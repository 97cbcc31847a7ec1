"""Exhaustive breadth-first search over game states.

The search key is a `GameState` (position, dash charge, door bits,
platform bits); the loop builds successors as plain tuples, which hash
and compare equal to a `GameState` and cost no Python-level constructor
call.  The move ordering is the canonical one from the simulator, so the
returned trace is unique for a given level.  Unsolvable means the
reachable state space was exhausted.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from satplat.level import Level
from satplat.sim import GameState, Move, _NEXT, _step_packed, initial_state, sim_context

DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class SearchStats:
    states_expanded: int
    states_visited: int
    frontier_peak: int
    elapsed: float


@dataclass(frozen=True)
class Solvable:
    trace: tuple[Move, ...]
    stats: SearchStats


@dataclass(frozen=True)
class Unsolvable:
    stats: SearchStats


@dataclass(frozen=True)
class LimitExceeded:
    stats: SearchStats


SolveResult = Solvable | Unsolvable | LimitExceeded


def _search(ctx, start, goal_cell, max_states, max_time):
    """BFS core.  Returns (goal_key, parents, visited, stats, limited).

    `start` is a GameState; `goal_cell` of None means exhaust the space
    (used for reachability queries).
    """
    t0 = time.perf_counter()
    moves = ctx.packed_moves
    step = _step_packed
    queue = deque([start])
    visited = {start}
    parents = {}
    expanded = 0
    frontier_peak = 1
    limited = False
    goal_key = None
    check_every = 2048
    while queue:
        key = queue.popleft()
        expanded += 1
        x, y, has_dash, doors, plats = key
        for mi, (kind, a, b) in enumerate(moves):
            status, nx, ny, ndash, ndoors, nplats = step(
                ctx, x, y, has_dash, doors, plats, kind, a, b
            )
            if status != _NEXT:
                continue
            nkey = (nx, ny, ndash, ndoors, nplats)
            if nkey in visited:
                continue
            visited.add(nkey)
            parents[nkey] = (key, mi)
            if goal_cell is not None and nx == goal_cell[0] and ny == goal_cell[1]:
                goal_key = nkey
                queue.clear()
                break
            queue.append(nkey)
        if goal_key is not None:
            break
        qlen = len(queue)
        if qlen > frontier_peak:
            frontier_peak = qlen
        if len(visited) > max_states:
            limited = True
            break
        if max_time is not None and expanded % check_every == 0:
            if time.perf_counter() - t0 > max_time:
                limited = True
                break
    stats = SearchStats(expanded, len(visited), frontier_peak, time.perf_counter() - t0)
    return goal_key, parents, visited, stats, limited


def _rebuild_trace(ctx, parents, key) -> tuple[Move, ...]:
    moves = []
    while key in parents:
        key, mi = parents[key]
        moves.append(ctx.moves[mi])
    moves.reverse()
    return tuple(moves)


def solve(level: Level, max_states: int = DEFAULT_MAX_STATES,
          max_time: float | None = None) -> SolveResult:
    """Decide solvability; Solvable carries the unique shortest witness
    trace under the canonical move order."""
    ctx = sim_context(level)
    start = initial_state(level)
    if start.position == ctx.flag:
        return Solvable((), SearchStats(0, 1, 1, 0.0))
    goal_key, parents, _, stats, limited = _search(
        ctx, start, ctx.flag, max_states, max_time
    )
    if goal_key is not None:
        return Solvable(_rebuild_trace(ctx, parents, goal_key), stats)
    if limited:
        return LimitExceeded(stats)
    return Unsolvable(stats)


def solve_between(level: Level, state: GameState, goal_cell):
    """BFS from an explicit GameState to a goal cell.

    Returns (trace, end_state) or None.  Used by the witness builder and
    by scripted gadget-contract checks.
    """
    if state.position == tuple(goal_cell):
        return (), state
    ctx = sim_context(level)
    goal_key, parents, _, _, _ = _search(ctx, state, tuple(goal_cell),
                                         DEFAULT_MAX_STATES, None)
    if goal_key is None:
        return None
    return _rebuild_trace(ctx, parents, goal_key), GameState(*goal_key)


def reachable_ports(level: Level, from_port: str, state_overrides=None) -> set[str]:
    """Names of ports whose cells some reachable rest state occupies,
    starting from a fresh probe (dash charged) at `from_port`.

    state_overrides may force door/platform bits:
    {"doors": {id: bool}, "platforms": {id: bool}}.
    """
    port = level.port(from_port)  # raises LevelError for unknown ports
    doors, plats = sim_context(level).initial_doors, 0
    if state_overrides:
        for door_id, value in state_overrides.get("doors", {}).items():
            doors = doors | (1 << door_id) if value else doors & ~(1 << door_id)
        for plat_id, value in state_overrides.get("platforms", {}).items():
            plats = plats | (1 << plat_id) if value else plats & ~(1 << plat_id)
    positions = reachable_positions(level, GameState(*port.cell, 1, doors, plats))
    return {p.name for p in level.ports if tuple(p.cell) in positions}


def reachable_positions(level: Level, state: GameState) -> set[tuple[int, int]]:
    """All rest positions reachable from a state; diagnostic helper."""
    _, _, visited, _, _ = _search(sim_context(level), state, None, DEFAULT_MAX_STATES, None)
    return {(kx, ky) for kx, ky, *_ in visited}
