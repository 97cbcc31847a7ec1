"""Exhaustive breadth-first search over game states.

The search key is a `GameState` (position, dash charge, door bits,
platform bits).  The step core returns each successor as a plain tuple,
which hashes and compares equal to a `GameState`, or the `BLOCKED` or
`DEATH` singleton, which the search skips; the successor is the key
itself, so the loop builds no state of its own.  One `parents` dict maps
each reached key to `(parent key, move index)`, and the start to None;
its keys are the visited set.  The move ordering is the canonical one
from the simulator, so the returned trace is unique for a given level.
Unsolvable means the reachable state space was exhausted.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from satplat.level import Level
from satplat.sim import BLOCKED, DEATH, GameState, Move, _step_packed, initial_state, sim_context

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
    """BFS core.  Returns (goal_key, parents, stats, limited).

    `start` is a GameState; `goal_cell` of None means exhaust the space
    (used for reachability queries).  A start on the goal cell is the
    goal, found with nothing expanded.
    """
    t0 = time.perf_counter()
    moves = ctx.packed_moves
    step = _step_packed
    parents = {start: None}
    gx, gy = goal_cell if goal_cell is not None else (None, None)
    goal_key = start if start[0] == gx and start[1] == gy else None
    queue = deque() if goal_key is not None else deque([start])
    expanded = 0
    frontier_peak = 1
    limited = False
    check_every = 2048
    while queue:
        key = queue.popleft()
        expanded += 1
        x, y, has_dash, doors, plats = key
        for mi, (kind, a, b) in enumerate(moves):
            nkey = step(ctx, x, y, has_dash, doors, plats, kind, a, b)
            if nkey is BLOCKED or nkey is DEATH or nkey in parents:
                continue
            parents[nkey] = (key, mi)
            if nkey[0] == gx and nkey[1] == gy:
                goal_key = nkey
                queue.clear()
                break
            queue.append(nkey)
        if goal_key is not None:
            break
        qlen = len(queue)
        if qlen > frontier_peak:
            frontier_peak = qlen
        if len(parents) > max_states:
            limited = True
            break
        if max_time is not None and expanded % check_every == 0:
            if time.perf_counter() - t0 > max_time:
                limited = True
                break
    stats = SearchStats(expanded, len(parents), frontier_peak, time.perf_counter() - t0)
    return goal_key, parents, stats, limited


def _rebuild_trace(ctx, parents, key) -> tuple[Move, ...]:
    moves = []
    link = parents[key]
    while link is not None:
        key, mi = link
        moves.append(ctx.moves[mi])
        link = parents[key]
    moves.reverse()
    return tuple(moves)


def solve(level: Level, max_states: int = DEFAULT_MAX_STATES,
          max_time: float | None = None) -> SolveResult:
    """Decide solvability; Solvable carries the unique shortest witness
    trace under the canonical move order.  Negative limits raise
    ValueError."""
    if max_states < 0 or (max_time is not None and max_time < 0):
        raise ValueError(f"search limits must be non-negative, got "
                         f"max_states={max_states}, max_time={max_time}")
    ctx = sim_context(level)
    goal_key, parents, stats, limited = _search(
        ctx, initial_state(level), ctx.flag, max_states, max_time
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
    ctx = sim_context(level)
    goal_key, parents, _, _ = _search(ctx, state, tuple(goal_cell),
                                      DEFAULT_MAX_STATES, None)
    if goal_key is None:
        return None
    return _rebuild_trace(ctx, parents, goal_key), GameState._make(goal_key)


def reachable_ports(level: Level, from_port: str, doors=None) -> set[str]:
    """Names of ports whose cells some reachable rest state occupies,
    starting from a fresh probe (dash charged, every platform intact) at
    `from_port`.  `doors` ({door id: open}) overrides initial door bits.
    """
    port = level.port(from_port)  # raises LevelError for unknown ports
    bits = sim_context(level).initial_doors
    for door_id, value in (doors or {}).items():
        bits = bits | (1 << door_id) if value else bits & ~(1 << door_id)
    positions = reachable_positions(level, GameState(*port.cell, 1, bits, 0))
    return {p.name for p in level.ports if tuple(p.cell) in positions}


def reachable_positions(level: Level, state: GameState) -> set[tuple[int, int]]:
    """All rest positions reachable from a state; diagnostic helper."""
    _, parents, _, _ = _search(sim_context(level), state, None, DEFAULT_MAX_STATES, None)
    return {(kx, ky) for kx, ky, *_ in parents}
