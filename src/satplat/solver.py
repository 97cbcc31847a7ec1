"""Exhaustive breadth-first search over game states.

`_search` expands each state through the move records of its cell
(`SimContext.records_at`) with the simulator's one core, `sim._apply`,
which returns the successor's fields or the `BLOCKED` or `DEATH`
singleton, which the search skips.  Inside the search a state is one
int key, `cell | has_dash | doors | plats` from the low bits up, with
field widths derived from the level (`_Keys`); the layout exists only
there, and `_Keys.state` turns a key back into the public `GameState`.
One `parents` dict maps each reached key to its parent link, `parent key
<< move bits | move index`, and the start to None; its keys are the
visited set.  The move ordering is the canonical one from the simulator,
so the returned trace is unique for a given level.  Unsolvable means the
reachable state space was exhausted.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from satplat.level import Level
from satplat.sim import BLOCKED, DEATH, GameState, Move, _apply, initial_state, sim_context

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


class _Keys(NamedTuple):
    """The layout of a search key, one int: `cell | has_dash | doors |
    plats` from the low bits up, where `cell` is `y * width + x`.  The
    field widths follow the level (and the start state's door bits); the
    platform bits take the top, so they need no width.  A parent link is
    `parent key << move_bits | move index`."""
    width: int
    dash: int  # shift of has_dash: the bits of a cell index
    doors: int  # shift of the door bits
    plats: int  # shift of the platform bits
    move_bits: int

    @classmethod
    def of(cls, ctx, start: GameState) -> _Keys:
        dash = (ctx.width * ctx.height - 1).bit_length()
        door_bits = max(ctx.door_bits, start.door_open.bit_length())
        return cls(ctx.width, dash, dash + 1, dash + 1 + door_bits,
                   len(ctx.moves).bit_length())

    def pack(self, state: GameState) -> int:
        x, y, has_dash, doors, plats = state
        return (y * self.width + x | has_dash << self.dash | doors << self.doors
                | plats << self.plats)

    def state(self, key: int) -> GameState:
        """The GameState a key stands for."""
        y, x = divmod(key & (1 << self.dash) - 1, self.width)
        return GameState(x, y, key >> self.dash & 1,
                         key >> self.doors & (1 << self.plats - self.doors) - 1,
                         key >> self.plats)

    def trace(self, ctx, parents, key: int) -> tuple[Move, ...]:
        """The moves of the path that `parents` records to a key."""
        mask = (1 << self.move_bits) - 1
        moves = []
        link = parents[key]
        while link is not None:
            moves.append(ctx.moves[link & mask])
            link = parents[link >> self.move_bits]
        moves.reverse()
        return tuple(moves)


def _search(ctx, start, goal_cell, max_states, max_time):
    """BFS core.  Returns (goal_key, parents, stats, limited, keys).

    `start` is a GameState; `goal_cell` of None means exhaust the space
    (used for reachability queries).  A start on the goal cell is the
    goal, found with nothing expanded.  `keys.state` turns a key of
    `parents` back into a GameState.  With `max_time`, the clock is read
    after the first expansion and after every `check_every` more.
    """
    t0 = time.perf_counter()
    keys = _Keys.of(ctx, start)
    w, dash_shift, door_shift, plat_shift, move_bits = keys
    cell_mask = (1 << dash_shift) - 1
    door_mask = (1 << plat_shift - door_shift) - 1
    goal = -1
    if goal_cell is not None and 0 <= goal_cell[0] < w and 0 <= goal_cell[1] < ctx.height:
        goal = goal_cell[1] * w + goal_cell[0]
    start_key = keys.pack(start)
    parents = {start_key: None}
    goal_key = start_key if start_key & cell_mask == goal else None
    queue = deque() if goal_key is not None else deque([start_key])
    records_at, apply = ctx.records_at, _apply
    expanded = 0
    frontier_peak = 1
    limited = False
    check_every = 2048
    while queue:
        key = queue.popleft()
        expanded += 1
        cell = key & cell_mask
        has_dash = key >> dash_shift & 1
        doors = key >> door_shift & door_mask
        plats = key >> plat_shift
        link = key << move_bits
        for rec in records_at(cell):
            out = apply(rec, has_dash, doors, plats)
            if out is BLOCKED or out is DEATH:
                continue
            ncell, ndash, ndoors, nplats = out
            nkey = ncell | ndash << dash_shift | ndoors << door_shift | nplats << plat_shift
            if nkey in parents:
                continue
            parents[nkey] = link | rec.move
            if ncell == goal:
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
        if max_time is not None and expanded % check_every == 1:
            if time.perf_counter() - t0 > max_time:
                limited = True
                break
    stats = SearchStats(expanded, len(parents), frontier_peak, time.perf_counter() - t0)
    return goal_key, parents, stats, limited, keys


def solve(level: Level, max_states: int = DEFAULT_MAX_STATES,
          max_time: float | None = None) -> SolveResult:
    """Decide solvability; Solvable carries the unique shortest witness
    trace under the canonical move order.  Negative limits raise
    ValueError."""
    if max_states < 0 or (max_time is not None and max_time < 0):
        raise ValueError(f"search limits must be non-negative, got "
                         f"max_states={max_states}, max_time={max_time}")
    ctx = sim_context(level)
    goal_key, parents, stats, limited, keys = _search(
        ctx, initial_state(level), ctx.flag, max_states, max_time
    )
    if goal_key is not None:
        return Solvable(keys.trace(ctx, parents, goal_key), stats)
    if limited:
        return LimitExceeded(stats)
    return Unsolvable(stats)


def solve_between(level: Level, state: GameState, goal_cell):
    """BFS from an explicit GameState to a goal cell.

    Returns (trace, end_state) or None.  Used by the witness builder and
    by scripted gadget-contract checks.
    """
    ctx = sim_context(level)
    goal_key, parents, _, _, keys = _search(ctx, state, tuple(goal_cell),
                                            DEFAULT_MAX_STATES, None)
    if goal_key is None:
        return None
    return keys.trace(ctx, parents, goal_key), keys.state(goal_key)


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
    _, parents, _, _, keys = _search(sim_context(level), state, None,
                                     DEFAULT_MAX_STATES, None)
    return {keys.state(key).position for key in parents}
