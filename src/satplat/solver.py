"""Exhaustive breadth-first search over game states.

Inside the search a state is one int key, `cell | has_dash | doors |
plats` from the low bits up, with field widths derived from the level
(`_Keys`); the layout exists only there, and `_Keys.state` turns a key
back into the public `GameState`.  One `parents` dict maps each reached
key to its parent's key, and the start to None; its keys are the visited
set.  It holds references to keys the search has made already, so a
visited state costs no int of its own beyond its key.

A move from a cell reads only the few door and platform bits on its path
and under its landings (`SimContext.read_bits`), and keeps, sets or
clears every other bit whatever its value.  So the successors of a key
depend only on its signature, `key & read`, where `read` covers the
cell, the dash and the cell's read bits.  On the first expansion of a
signature the search runs the simulator's one core, `sim._apply`, once
per move record of the cell, with every unread bit 0, and keeps each
successor as a pair of masks: the successor of any key with that
signature is `key & and_mask | or_mask`.  The outcome is the or-mask.
The and-mask follows from the record: a record changes an unread door
bit only if its write set (`writes`, the door bits of the buttons its
dash may fire) holds it, and an unread platform bit only where the
reform mask of the cell it rests in (`SimContext.reform_mask`) clears
it.  A record whose write set meets an unread door bit runs the core a
second time, with every unread bit 1, since its dash may stop before
that button.  A `BLOCKED` or `DEATH` outcome gets no masks.

The move ordering is the canonical one from the simulator, so the
returned trace is unique for a given level: the lexicographically least
shortest trace, by canonical move index, to a state on the flag cell.
Each of its moves is re-derived from the parent's cached successor
masks, as the first one that maps the parent to the child.  Unsolvable
means the reachable state space was exhausted.
"""

import time
from collections import deque
from typing import NamedTuple

from satplat.level import Level, own_kind
from satplat.sim import BLOCKED, DEATH, GameState, Move, _apply, _cell, initial_state, sim_context

DEFAULT_MAX_STATES = 5_000_000


@own_kind
class SearchStats(NamedTuple):
    states_expanded: int
    states_visited: int
    frontier_peak: int
    elapsed: float
    successor_lists: int  # signatures whose successors were computed


@own_kind
class Solvable(NamedTuple):
    trace: tuple[Move, ...]
    stats: SearchStats


@own_kind
class Unsolvable(NamedTuple):
    stats: SearchStats


@own_kind
class LimitExceeded(NamedTuple):
    stats: SearchStats


SolveResult = Solvable | Unsolvable | LimitExceeded


class _Keys(NamedTuple):
    """The layout of a search key, one int: `cell | has_dash | doors |
    plats` from the low bits up, where `cell` is `y * width + x`.  The
    field widths follow the level and the start state's bits, which may
    reach above the level's own: no move sets a bit there, so no key of
    the search is longer than `top` bits."""
    width: int
    dash: int  # shift of has_dash: the bits of a cell index
    doors: int  # shift of the door bits
    plats: int  # shift of the platform bits
    top: int  # bit length of every key

    @classmethod
    def of(cls, ctx, start: GameState) -> "_Keys":
        dash = (ctx.width * ctx.height - 1).bit_length()
        plats = dash + 1 + max(ctx.door_bits, start.door_open.bit_length())
        top = plats + max(ctx.plat_bits, start.platform_broken.bit_length())
        return cls(ctx.width, dash, dash + 1, plats, top)

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

    def read_mask(self, ctx, cell: int) -> int:
        """The key bits the moves from a cell read: the cell and dash
        fields and the cell's `SimContext.read_bits`."""
        doors, plats = ctx.read_bits(cell)
        return (1 << self.doors) - 1 | doors << self.doors | plats << self.plats

    def successors(self, ctx, sig: int, read: int) -> tuple:
        """The successors of every key whose bits under `read` (the cell
        and dash fields and the cell's read bits, laid out as a key) are
        `sig`: one `(and_mask, or_mask, move index)` per record of the
        cell that yields a state, in record order, where the successor
        of `key` is `key & and_mask | or_mask`.

        `_apply` runs once per record, on the read bits with every other
        door and platform bit 0; its outcome is the or-mask.  It changes
        a door bit only through a button on the record's path (its write
        set, `writes`), and a platform bit only by breaking the support
        it rests on, a read bit, and through the reform mask of the rest
        cell (`SimContext.reform_mask`).  So the and-mask keeps every
        unread door bit, the unread platform bits the reform mask keeps,
        and the platform bits above `ctx.plat_bits`.  A record whose
        write set meets an unread door bit runs `_apply` a second time,
        with every unread bit 1, since the dash may stop before that
        button: a bit that differs between the two outcomes is kept.
        Masks that map a key to itself or to an earlier record's
        successor are left out: the search would find that successor
        visited already."""
        w, dash, doors, plats, top = self
        door_mask = (1 << plats - doors) - 1
        has_dash = sig >> dash & 1
        lo_doors, lo_plats = sig >> doors & door_mask, sig >> plats
        free_doors = door_mask & ~(read >> doors)
        free_plats = (1 << ctx.plat_bits) - 1 & ~(read >> plats)
        unowned = (1 << top) - (1 << plats + ctx.plat_bits)
        kept = free_doors << doors | unowned
        reform_mask = ctx.reform_mask
        seen = {((1 << top) - 1 & ~read, sig)}  # the masks of the key itself
        out = []
        for rec in ctx.records_at(sig & (1 << dash) - 1):
            lo = _apply(rec, has_dash, lo_doors, lo_plats)
            if lo is BLOCKED or lo is DEATH:
                continue
            x, y, lo_dash, lo_door_bits, lo_plat_bits = lo
            rest = y * w + x
            lo_key = rest | lo_dash << dash | lo_door_bits << doors | lo_plat_bits << plats
            if rec.writes & free_doors:
                hi = _apply(rec, has_dash, lo_doors | free_doors, lo_plats | free_plats)
                hi_key = hi[1] * w + hi[0] | hi[2] << dash | hi[3] << doors | hi[4] << plats
                masks = (hi_key & ~lo_key | unowned, lo_key)
            else:
                masks = (kept | (free_plats & reform_mask(rest)) << plats, lo_key)
            if masks not in seen:
                seen.add(masks)
                out.append((*masks, rec.move))
        return tuple(out)


class _Search(NamedTuple):
    """What one `_search` call leaves: the goal key or None, the visited
    map of each reached key to its parent's key, the counters, whether a
    limit stopped it, the key layout, and its two caches, the read mask
    of each expanded cell and the successor masks of each expanded
    signature, from which `trace` re-derives the moves."""
    goal_key: int | None
    parents: dict[int, int | None]
    stats: SearchStats
    limited: bool
    keys: _Keys
    reads: dict[int, int]  # cell -> its read mask laid out as a key
    successors: dict[int, tuple]  # signature -> its successor masks

    def trace(self, ctx) -> tuple[Move, ...]:
        """The moves of the path that `parents` records to the goal key.
        Each step's move is the first of the parent's cached successor
        masks that maps the parent to the child: the one the search
        recorded the child by, since it visits a child on the first mask
        that reaches it."""
        cell_mask = (1 << self.keys.dash) - 1
        parents, reads, successors = self.parents, self.reads, self.successors
        key = self.goal_key
        moves = []
        parent = parents[key]
        while parent is not None:
            for and_mask, or_mask, move in successors[parent & reads[parent & cell_mask]]:
                if parent & and_mask | or_mask == key:
                    moves.append(ctx.moves[move])
                    break
            key, parent = parent, parents[parent]
        moves.reverse()
        return tuple(moves)


def _search(ctx, start, goal_cell, max_states, max_time) -> _Search:
    """BFS core.

    `start` is a GameState, checked by `sim._cell`; `goal_cell` of None
    means exhaust the space (used for reachability queries).  A start on
    the goal cell is the goal, found with nothing expanded.  `keys.state`
    turns a key of `parents` back into a GameState.  With `max_time`, the
    clock is read after the first expansion and after every `check_every`
    more.

    A key's successors depend only on its signature, `key & read`, where
    `read` holds the cell and dash fields and the door and platform bits
    the cell's records read (`SimContext.read_bits`).  The read mask of
    each cell and the successor masks of each signature
    (`_Keys.successors`) are computed on their first expansion and
    reused for every later key that shares them.  Both caches are dicts
    over what the search reaches, and the result hands them to the
    trace.
    """
    t0 = time.perf_counter()
    _cell(ctx, start)
    keys = _Keys.of(ctx, start)
    w = keys.width
    cell_mask = (1 << keys.dash) - 1
    goal = -1
    if goal_cell is not None and 0 <= goal_cell[0] < w and 0 <= goal_cell[1] < ctx.height:
        goal = goal_cell[1] * w + goal_cell[0]
    start_key = keys.pack(start)
    parents = {start_key: None}
    goal_key = start_key if start_key & cell_mask == goal else None
    queue = deque() if goal_key is not None else deque([start_key])
    reads: dict[int, int] = {}
    successors: dict[int, tuple] = {}
    expanded = 0
    frontier_peak = 1
    limited = False
    check_every = 2048
    while queue:
        key = queue.popleft()
        expanded += 1
        cell = key & cell_mask
        try:
            read = reads[cell]
        except KeyError:
            read = reads[cell] = keys.read_mask(ctx, cell)
        sig = key & read
        try:
            nexts = successors[sig]
        except KeyError:
            nexts = successors[sig] = keys.successors(ctx, sig, read)
        for and_mask, or_mask, _ in nexts:
            nkey = key & and_mask | or_mask
            if nkey in parents:
                continue
            parents[nkey] = key
            if nkey & cell_mask == goal:
                goal_key = nkey
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
    stats = SearchStats(expanded, len(parents), frontier_peak, time.perf_counter() - t0,
                        len(successors))
    return _Search(goal_key, parents, stats, limited, keys, reads, successors)


def solve(level: Level, max_states: int = DEFAULT_MAX_STATES,
          max_time: float | None = None) -> SolveResult:
    """Decide solvability; Solvable carries the unique shortest witness
    trace under the canonical move order.  Negative limits raise
    ValueError."""
    if max_states < 0 or (max_time is not None and not max_time >= 0):  # NaN too
        raise ValueError(f"search limits must be non-negative, got "
                         f"max_states={max_states}, max_time={max_time}")
    ctx = sim_context(level)
    found = _search(ctx, initial_state(level), ctx.flag, max_states, max_time)
    if found.goal_key is not None:
        return Solvable(found.trace(ctx), found.stats)
    if found.limited:
        return LimitExceeded(found.stats)
    return Unsolvable(found.stats)


def _complete_search(ctx, state: GameState, goal_cell) -> _Search:
    """`_search` under `DEFAULT_MAX_STATES`, or RuntimeError if it stops
    at the limit before an answer."""
    found = _search(ctx, state, goal_cell, DEFAULT_MAX_STATES, None)
    if found.limited:
        raise RuntimeError(f"search stopped at the limit of {DEFAULT_MAX_STATES} states")
    return found


def solve_between(level: Level, state: GameState, goal_cell):
    """BFS from an explicit GameState to a goal cell.

    Returns (trace, end_state) or None.  Used by the witness builder and
    by scripted gadget-contract checks.  Raises RuntimeError if the
    search reaches `DEFAULT_MAX_STATES` states first.
    """
    ctx = sim_context(level)
    found = _complete_search(ctx, state, tuple(goal_cell))
    if found.goal_key is None:
        return None
    return found.trace(ctx), found.keys.state(found.goal_key)


def reachable_ports(level: Level, from_port: str, doors=None) -> set[str]:
    """Names of ports whose cells some reachable rest state occupies,
    starting from a fresh probe (the start state moved to `from_port`).
    `doors` ({door id: open}) overrides initial door bits.
    """
    x, y = level.port(from_port).cell  # raises LevelError for unknown ports
    start = initial_state(level)
    bits = start.door_open
    for door_id, value in (doors or {}).items():
        bits = bits | (1 << door_id) if value else bits & ~(1 << door_id)
    positions = reachable_positions(level, start._replace(x=x, y=y, door_open=bits))
    return {p.name for p in level.ports if tuple(p.cell) in positions}


def reachable_positions(level: Level, state: GameState) -> set[tuple[int, int]]:
    """All rest positions reachable from a state; diagnostic helper.
    Raises RuntimeError if the search reaches `DEFAULT_MAX_STATES`
    states first."""
    found = _complete_search(sim_context(level), state, None)
    return {found.keys.state(key).position for key in found.parents}
