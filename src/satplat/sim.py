"""Deterministic movement semantics for the simplified platformer.

A step resolves in a fixed order: path legality, button triggering,
space-block transit, gravity, platform breaking, platform reform, dash
accounting.  All rest states are grounded; jumps, dashes and falls
resolve inside a single step.

Support (what a player can stand on): solid tile, closed door, unbroken
platform, or the top of a space block.  Dash charge is restored by
ending a step supported on solid or on a platform, or by passing through
a space block.  Buttons block walking and jumping but are swept (and
fired) by a dash; falling passes through button cells without firing.

The start state is the spawn cell with a dash charge, the initial door
bits and every platform intact.  The spawn must rest on solid, a closed
door or a platform (see `level.validate_level`), so the start is already
at rest; `solve` and `replay` both begin from `initial_state`.  Platform
breaking happens only at the end of a step, so a spawn platform stays
intact until the first move.

A `GameState` is the tuple `(x, y, has_dash, door_open, platform_broken)`,
the one public state type.  The outcome of a step is the next
`GameState`, or one of two singletons: `BLOCKED` (the move cannot start,
or moves nowhere) or `DEATH` (a dash through a space block exits into a
blocked cell or off the level).

The step core is table-driven.  `SimContext` turns a (cell, canonical
move) pair into a move record the first time it is needed, and keeps it
for the level, in one cache per caller: the search builds the records
of every move of a cell on its first expansion there
(`SimContext.records_at`), and `step`, `replay` and the mutation check
build the record of the one move they apply (`SimContext.record`).  A
pair that is blocked whatever the door and platform bits (a solid cell,
button, space block or the edge on a walk or jump path; a solid cell or
the edge first on a dash) gets none.
- A WALK or JUMP record is the door bits that must be open, the platform
  bits that must be broken, and the landing of its end cell.
- A DASH record is its static path: the doors, platforms and buttons on
  it in order, the landing of its last cell, the exit of a space block
  at its end, and its write set, the door bits of the buttons on the
  path and at the exit.
- A landing is where a player let go in a cell comes to rest, the
  support there, and the mask of the platforms within reform distance,
  so reform is one `&`.
One function, `_apply`, applies a record to `(has_dash, doors, plats)`
and returns the fields of the next `GameState`; `step`, `legal_moves`,
`replay` and the solver all call it.  `_run` is the one replay loop
over it: `replay` and `replay_states` run it through `_replay`, and
`verify.mutate_trace` runs it from a mutation point.  `canonical_moves`
is the one move table: a record names its move by its index there
(`SimContext.index`), and a `Move` not in it, such as a WALK with a
rise, is refused (`step` raises ValueError, a replay stops).

`SimContext.trail` is the first trace `replay` found winning on the
level, with the state before each of its moves and after the last.
`_replay`, the one place that reads it, finds the longest prefix its
trace shares with the trail (moves compared with `==`, as
`SimContext.index` compares them) and runs `_run` over the rest of the
trace only, from the trail's state at the end of that prefix; the
prefix's states stay the trail's, uncopied.  The core is deterministic
and the trail's states are its own earlier outcomes, so the result is
the same as a replay from the start: a mutant of the witness replays
only the moves from its mutation on.

`SimContext.read_bits` gives the door and platform bits a cell's
records read.  A record's outcome depends on no other bit, and it
keeps, sets or clears each other bit whatever that bit's value, which
lets the solver reuse one cell's successors across every state that
agrees on the dash and the read bits.  What a record does to such a bit
follows from its footprint: it changes a door bit only through its
write set (a WALK or JUMP has none), and a platform bit only by
breaking the support it lands on, a read bit, and through the reform
mask of the cell it rests in (`SimContext.reform_mask`).  So the solver
applies a record a second time only if its write set holds an unread
door bit: a dash may stop before that button.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from satplat.level import CLOSE, SOLID, Button, Door, Level, SpaceBlock, UnstablePlatform, own_kind

# Compass directions in canonical order, with their steps.
COMPASS_DELTA = {
    "N": (0, 1),
    "NE": (1, 1),
    "E": (1, 0),
    "SE": (1, -1),
    "S": (0, -1),
    "SW": (-1, -1),
    "W": (-1, 0),
    "NW": (-1, 1),
}
COMPASS = tuple(COMPASS_DELTA)

DEATH_BLOCKED_EXIT = "blocked space-block exit"


class Move(NamedTuple):
    """One move, printed as its trace line; only its kind's fields are set."""
    kind: str  # "WALK" | "JUMP" | "DASH"
    dx: int = 0
    rise: int = 0
    direction: str = ""  # DASH only

    def __str__(self) -> str:
        if self.kind == "WALK":
            return f"WALK {'L' if self.dx < 0 else 'R'}"
        if self.kind == "JUMP":
            return f"JUMP {self.dx} {self.rise}"
        return f"DASH {self.direction}"


def walk(dx: int) -> Move:
    return Move("WALK", dx=dx)


def jump(dx: int, rise: int) -> Move:
    return Move("JUMP", dx=dx, rise=rise)


def dash(direction: str) -> Move:
    return Move("DASH", direction=direction)


def move_from_text(text: str) -> Move:
    """Parse one trace line: `WALK L|R`, `JUMP dx rise` or `DASH dir`,
    with no further tokens."""
    parts = text.split()
    if len(parts) == 2 and parts[0] == "WALK" and parts[1] in ("L", "R"):
        return walk(-1 if parts[1] == "L" else 1)
    if len(parts) == 2 and parts[0] == "DASH" and parts[1] in COMPASS:
        return dash(parts[1])
    if len(parts) == 3 and parts[0] == "JUMP":
        try:
            return jump(int(parts[1]), int(parts[2]))
        except ValueError:
            pass
    raise ValueError(f"bad move text {text!r}")


def trace_to_text(moves) -> str:
    return "\n".join(str(m) for m in moves) + ("\n" if moves else "")


def trace_from_text(text: str) -> tuple[Move, ...]:
    return tuple(move_from_text(line) for line in text.splitlines() if line.strip())


class GameState(NamedTuple):
    x: int
    y: int
    has_dash: int  # 1 when the dash is charged, else 0
    door_open: int  # bitset keyed by door id
    platform_broken: int  # bitset keyed by platform rank (place among the platforms)

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)


@own_kind
class Death(NamedTuple):
    reason: str


class Blocked:
    """A plain class, not a NamedTuple: one with no fields is an empty
    tuple, and an empty tuple is false."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is Blocked

    def __hash__(self) -> int:
        return hash(Blocked)

    def __repr__(self) -> str:
        return "Blocked()"


BLOCKED = Blocked()
DEATH = Death(DEATH_BLOCKED_EXIT)
StepOutcome = GameState | Death | Blocked

# Cell codes in the packed grid; a dash gate splits a button cell into
# the two codes of its action.
_EMPTY, _SOLID, _DOOR, _PLAT, _BUTTON, _BLOCK, _OPENS, _CLOSES = range(8)
# `bytes.translate` table from a tile byte to its cell code.
_TILE_CODES = bytes(_SOLID if i == ord(SOLID) else _EMPTY for i in range(256))


class _Shift(NamedTuple):
    """A WALK or JUMP from one cell.  Its path is fixed, so it needs only
    the `doors` bits open and the `plats` bits broken; then the player
    falls from its end cell (`fall`, a landing).  It fires no button, so
    its write set `writes` (see `_Dash`) is empty."""
    move: int
    doors: int
    plats: int
    fall: tuple
    writes = 0  # a class attribute, not a field


class _Dash(NamedTuple):
    """A DASH from one cell, over its path up to the dash length, the
    first solid cell, the edge or the first space block.

    `gates` holds `(code, bit, before)` for each door, platform or button
    cell of the path in order, where `before` is the landing of the cell
    before it (None for the first cell): a closed door or an intact
    platform ends the dash there.  `fall` is the landing of the path's
    last cell (None if it has none).  `transit` is `(code, bit, fall)` of
    the cell a space block at the end of the path carries the player to,
    `DEATH` if that cell is solid or off the level, or None.  `writes`
    is the write set: the door bits of the buttons among the gates and
    of a button at the transit cell, the only door bits `_apply` may
    change."""
    move: int
    gates: tuple
    fall: tuple | None
    transit: object
    writes: int


# A landing is `(x, y, support, bit, keep, below)`: the cell a falling
# player comes to rest in; the code of the cell below it (solid at the
# bottom edge) and, for a door or platform, its bit; the mask that clears
# every platform out of reform distance of the cell; and, for a door or
# platform support, the landing of a fall on through it.


class SimContext:
    """Static tables for one level, shared by `step`, `replay` and the
    solver: the packed grid (`code`, one byte per cell, and `eid`, the
    id of each door cell, the rank of each platform cell and the index
    of each button cell) and the move records, kept for the level once
    built, in two caches that never read each other: per move for `step`,
    `replay` and the mutation check (`record`), and per cell for the
    search and `legal_moves` (`records_at`), on the first expansion there.

    `trail` is None until `replay` first finds a trace winning on the
    level, then `(moves, states)`: that trace as a tuple, and the state
    before each of its moves and after the last.  A losing replay never
    sets it, and once set it is never replaced.  `_replay`, the one
    trail lookup of `replay` and `replay_states`, resumes from it.

    The tables and the trail hold no reference back to the context, so a
    context that `sim_context` drops is freed at once, not at the next
    cycle collection."""

    def __init__(self, level: Level):
        w, h = level.width, level.height
        self.width, self.height = w, h
        code = bytearray("".join(level.tiles).encode("ascii", "replace").translate(_TILE_CODES))
        eid: dict[int, int] = {}
        buttons: list[tuple[int, bool]] = []
        plat_cells: list[tuple[int, int, int]] = []
        initial_doors = 0
        door_bits = 0
        for ent in level.entities:
            if isinstance(ent, Door):
                for (x, y) in ent.cells:
                    code[y * w + x] = _DOOR
                    eid[y * w + x] = ent.id
                if ent.initially_open:
                    initial_doors |= 1 << ent.id
                door_bits = max(door_bits, ent.id + 1)
            elif isinstance(ent, UnstablePlatform):
                x, y = ent.cell
                code[y * w + x] = _PLAT
                eid[y * w + x] = len(plat_cells)
                plat_cells.append((len(plat_cells), x, y))
            elif isinstance(ent, Button):
                x, y = ent.cell
                code[y * w + x] = _BUTTON
                eid[y * w + x] = len(buttons)
                buttons.append((ent.door_id, ent.action != CLOSE))
                door_bits = max(door_bits, ent.door_id + 1)
            elif isinstance(ent, SpaceBlock):
                for (x, y) in ent.cells:
                    code[y * w + x] = _BLOCK
        self.code = code
        self.eid = eid
        self.buttons = buttons
        self.plat_cells = plat_cells
        self.initial_doors = initial_doors
        self.door_bits = door_bits  # every door bit a button or the level sets is below it
        self.plat_bits = len(plat_cells)
        self.spawn = level.spawn.cell
        self.flag = level.flag.cell
        self.physics = level.physics
        self.moves = canonical_moves(level.physics)
        self.index = {move: i for i, move in enumerate(self.moves)}
        self._shapes = _move_shapes(self.moves)  # move index -> its shape
        self._near = _near_platforms(w, h, plat_cells, level.physics.reform_distance)
        self._records: dict[int, tuple] = {}  # cell -> its move records
        self._moved: dict[int, object] = {}  # cell * len(moves) + move index -> record or None
        self._landings: dict[int, tuple] = {}  # start or rest cell -> its landing
        self.trail: tuple[tuple, tuple] | None = None

    def records_at(self, cell: int) -> tuple:
        """The move records of a cell (`y * width + x`), in canonical move
        order; a move blocked whatever the bits has no record."""
        recs = self._records.get(cell)
        if recs is None:
            recs = self._records[cell] = tuple(self._build(cell, self._shapes))
        return recs

    def record(self, cell: int, mi: int):
        """The record of move `mi` (an index into `moves`) from a cell, or
        None if the move is blocked whatever the bits: built alone, not
        with the cell's other moves, and kept."""
        key = cell * len(self.moves) + mi
        try:
            return self._moved[key]
        except KeyError:
            rec = self._moved[key] = next(self._build(cell, self._shapes[mi:mi + 1]), None)
            return rec

    def read_bits(self, cell: int) -> tuple[int, int]:
        """`(doors, plats)`: every door bit and platform bit that `_apply`
        may read on a move record of the cell (see `_read_bits`).
        `_apply` on a record of the cell depends on no other bit, and
        keeps, sets or clears each other bit whatever its value."""
        return _read_bits(self.records_at(cell))

    def reform_mask(self, cell: int) -> int:
        """The mask a step that comes to rest in a cell ands the platform
        bits with: every bit but those of the platforms out of reform
        distance of the cell, so `plats & mask` reforms them."""
        return self._near.get(cell, 0) | -1 << self.plat_bits

    def _build(self, cell: int, shapes):
        """The records of a run of move shapes (see `_move_shapes`) from a
        cell, in shape order; a shape blocked whatever the bits yields
        none."""
        w, h, code, eid = self.width, self.height, self.code, self.eid
        y, x = divmod(cell, w)
        for mi, offsets, delta in shapes:
            if delta is None:  # a WALK or JUMP
                doors = plats = 0
                for ox, oy in offsets:
                    cx, cy = x + ox, y + oy
                    if not (0 <= cx < w and 0 <= cy < h):
                        break
                    i = cy * w + cx
                    c = code[i]
                    if c == _DOOR:
                        doors |= 1 << eid[i]
                    elif c == _PLAT:
                        plats |= 1 << eid[i]
                    elif c != _EMPTY:
                        break  # solid, button or space block
                else:
                    yield _Shift(mi, doors, plats, self._landing(i))
                continue
            dx, dy = delta
            gates, fall, transit, writes = [], None, None, 0
            cx, cy = x, y
            for _ in range(self.physics.dash_length):
                cx, cy = cx + dx, cy + dy
                if not (0 <= cx < w and 0 <= cy < h) or code[cy * w + cx] == _SOLID:
                    break
                i = cy * w + cx
                c = code[i]
                if c == _BLOCK:
                    while 0 <= cx < w and 0 <= cy < h and code[cy * w + cx] == _BLOCK:
                        cx, cy = cx + dx, cy + dy
                    if 0 <= cx < w and 0 <= cy < h and code[cy * w + cx] != _SOLID:
                        i = cy * w + cx
                        transit = (*self._gate(i), self._landing(i))
                        if code[i] == _BUTTON:
                            writes |= transit[1]
                    else:
                        transit = DEATH
                    break
                if c == _BUTTON:
                    gate = self._gate(i)
                    writes |= gate[1]
                    gates.append((*gate, fall))
                elif c != _EMPTY:
                    gates.append((*self._gate(i), fall))
                fall = self._landing(i)
            if fall is not None or transit is not None:
                yield _Dash(mi, tuple(gates), fall, transit, writes)

    def _gate(self, i: int) -> tuple[int, int]:
        """(code, bit) of a non-solid cell on a dash path: a button as the
        code of its action with its door's bit."""
        c = self.code[i]
        if c == _BUTTON:
            door_id, set_open = self.buttons[self.eid[i]]
            return (_OPENS if set_open else _CLOSES), 1 << door_id
        return c, (1 << self.eid[i] if c == _DOOR or c == _PLAT else 0)

    def _landing(self, start: int) -> tuple:
        """The landing of a player let go in cell `start`, kept under
        the start cell and the rest cell."""
        landing = self._landings.get(start)
        if landing is None:
            w, code, cell = self.width, self.code, start
            while cell >= w and code[cell - w] in (_EMPTY, _BUTTON):
                cell -= w
            landing = self._landings.get(cell)
            if landing is None:
                y, x = divmod(cell, w)
                support = code[cell - w] if cell >= w else _SOLID
                keep = self.reform_mask(cell)
                if support == _DOOR or support == _PLAT:
                    landing = (x, y, support, 1 << self.eid[cell - w], keep,
                               self._landing(cell - w))
                else:
                    landing = (x, y, support, 0, keep, None)
                self._landings[cell] = landing
            self._landings[start] = landing
        return landing


def _near_platforms(w: int, h: int, plat_cells, reform: int) -> dict[int, int]:
    """The bits of the platforms within reform distance of each cell that
    has any: each platform marks the cells within distance `reform - 1`."""
    near: dict[int, int] = {}
    r = reform - 1
    for pid, bx, by in plat_cells:
        for y in range(max(by - r, 0), min(by + r + 1, h)):
            for i in range(y * w + max(bx - r, 0), y * w + min(bx + r + 1, w)):
                near[i] = near.get(i, 0) | 1 << pid
    return near


def _read_bits(recs) -> tuple[int, int]:
    """`(doors, plats)` named by move records: the bits of a shift's path,
    of each door and platform gate of a dash and of a transit cell, and
    the support bit of every landing on each `below` chain, the `before`
    landings of the gates included.  A button's door bit is left out: a
    fired button only sets or clears it, and a door later on the path
    reads the bits from before the dash."""
    doors = plats = 0
    falls = []
    for rec in recs:
        if type(rec) is _Shift:
            doors |= rec.doors
            plats |= rec.plats
        else:
            gates = rec.gates if rec.transit is None or rec.transit is DEATH else (
                *rec.gates, rec.transit)
            for code, bit, fall in gates:
                if code == _DOOR:
                    doors |= bit
                elif code == _PLAT:
                    plats |= bit
                falls.append(fall)
        falls.append(rec.fall)
    for fall in falls:
        while fall is not None:
            _, _, support, bit, _, fall = fall
            if support == _DOOR:
                doors |= bit
            elif support == _PLAT:
                plats |= bit
    return doors, plats


def canonical_moves(physics) -> tuple[Move, ...]:
    """The one move table, in its fixed order: WALK L, WALK R, JUMPs by
    (dx, rise), then DASH in compass order."""
    moves = [walk(-1), walk(1)]
    for dx in (-1, 0, 1):
        for rise in range(1, physics.jump_rise + 1):
            moves.append(jump(dx, rise))
    for d in COMPASS:
        moves.append(dash(d))
    return tuple(moves)


def _move_shapes(moves) -> tuple:
    """The moves as shapes, indexed by move index: `(move index, cell
    offsets of the path, None)` for a WALK or JUMP, and `(move index,
    None, step)` for a DASH."""
    shapes = []
    for mi, move in enumerate(moves):
        if move.kind == "WALK":
            shapes.append((mi, ((move.dx, 0),), None))
        elif move.kind == "JUMP":
            offsets = [(0, i) for i in range(1, move.rise + 1)]
            if move.dx:
                offsets.append((move.dx, move.rise))
            shapes.append((mi, tuple(offsets), None))
        else:
            shapes.append((mi, None, COMPASS_DELTA[move.direction]))
    return tuple(shapes)


@lru_cache(maxsize=128)
def sim_context(level: Level) -> SimContext:
    return SimContext(level)


def initial_state(level: Level) -> GameState:
    """The start state: spawn, dash charged, initial doors, no broken
    platforms."""
    ctx = sim_context(level)
    return GameState(*ctx.spawn, 1, ctx.initial_doors, 0)


def _apply(rec, has_dash: int, doors: int, plats: int):
    """The transition core: apply one move record to the bits of a state
    in the record's cell.  Returns the fields of the next `GameState`
    as a tuple, `BLOCKED` or `DEATH`.

    Order: path legality, button triggering, space-block transit,
    gravity, platform breaking, platform reform, dash accounting."""
    if type(rec) is _Shift:
        _, need_doors, need_plats, fall = rec
        if doors & need_doors != need_doors or plats & need_plats != need_plats:
            return BLOCKED
    else:
        if not has_dash:
            return BLOCKED
        _, gates, fall, transit, _ = rec
        has_dash = 0
        fired = doors  # buttons fire in path order; a door passed reads the bits before
        for code, bit, before in gates:
            if code == _DOOR:
                if not doors & bit:
                    fall = before
                    break
            elif code == _PLAT:
                if not plats & bit:
                    fall = before
                    break
            elif code == _OPENS:
                fired |= bit
            elif code == _CLOSES:
                fired &= ~bit
        else:
            if transit is DEATH:
                return DEATH
            if transit is not None:
                code, bit, fall = transit
                if code == _DOOR and not fired & bit or code == _PLAT and not plats & bit:
                    return DEATH
                if code == _OPENS:
                    fired |= bit
                elif code == _CLOSES:
                    fired &= ~bit
                has_dash = 1  # a transit restores the charge
        if fall is None:
            return BLOCKED
        doors = fired
    while True:
        x, y, support, bit, keep, below = fall
        if support == _DOOR:
            if doors & bit:
                fall = below
                continue
        elif support == _PLAT:
            if plats & bit:
                fall = below
                continue
            plats |= bit  # standing on an intact platform breaks it
            has_dash = 1
        elif support == _SOLID:
            has_dash = 1
        return x, y, has_dash, doors, plats & keep


def _cell(ctx: SimContext, state: GameState) -> int:
    """The cell index of a state passed in from outside; ValueError
    unless its fields are ints (a bool counts), it is on the level, its
    dash is 0 or 1 and no bit is negative.  The one check on such a
    state."""
    x, y, has_dash, doors, plats = state
    if not (isinstance(x, int) and isinstance(y, int) and isinstance(has_dash, int)
            and isinstance(doors, int) and isinstance(plats, int)):
        raise ValueError(f"bad state {state}: every field must be an int")
    if not (0 <= x < ctx.width and 0 <= y < ctx.height):
        raise ValueError(f"position {(x, y)} is off the level")
    if has_dash not in (0, 1) or doors < 0 or plats < 0:
        raise ValueError(f"bad state {state}: has_dash must be 0 or 1, bits non-negative")
    return y * ctx.width + x


def step(level: Level, state: GameState, move: Move) -> StepOutcome:
    """Apply one move; a pure function of (level, state, move)."""
    ctx = sim_context(level)
    cell = _cell(ctx, state)
    mi = ctx.index.get(move)
    if mi is None:
        raise ValueError(f"not a canonical move: {move!r}")
    rec = ctx.record(cell, mi)
    if rec is None:
        return BLOCKED
    out = _apply(rec, state.has_dash, state.door_open, state.platform_broken)
    return out if out is BLOCKED or out is DEATH else GameState._make(out)


def legal_moves(level: Level, state: GameState) -> list[Move]:
    """Moves whose outcome is a next state; blocked and fatal moves are
    pruned."""
    ctx = sim_context(level)
    _, _, has_dash, doors, plats = state
    out = []
    for rec in ctx.records_at(_cell(ctx, state)):
        nxt = _apply(rec, has_dash, doors, plats)
        if nxt is not BLOCKED and nxt is not DEATH:
            out.append(ctx.moves[rec.move])
    return out


def _run(ctx: SimContext, state: tuple, moves) -> tuple[list, bool]:
    """The one replay loop: `(states, ok)`, `state` (a `GameState` or its
    fields) and the state after each move of `moves` that applied from it
    in turn, and whether every move applied.  A move that is not
    canonical, or whose outcome is `BLOCKED` or `DEATH`, stops it."""
    states = [state]
    x, y, has_dash, doors, plats = state
    for move in moves:
        mi = ctx.index.get(move)
        rec = None if mi is None else ctx.record(y * ctx.width + x, mi)
        out = BLOCKED if rec is None else _apply(rec, has_dash, doors, plats)
        if out is BLOCKED or out is DEATH:
            return states, False
        states.append(out)
        x, y, has_dash, doors, plats = out
    return states, True


def _replay(ctx: SimContext, level: Level, trace: tuple) -> tuple[int, list, bool]:
    """The one trail lookup: `(k, states, ok)`, where k is the length of
    the prefix `trace` shares with the trail (0 without a trail), and
    `(states, ok)` is `_run` over the rest of the trace from the trail's
    state before move k, or from `initial_state` without a trail.  So
    `states` are the replay's states from move k on; the ones before are
    the trail's."""
    trail = ctx.trail
    if trail is None:
        return 0, *_run(ctx, initial_state(level), trace)
    moves, trail_states = trail
    k = 0
    for move, mine in zip(moves, trace):
        if move is not mine and move != mine:  # the equality `SimContext.index` looks moves up by
            break
        k += 1
    return k, *_run(ctx, trail_states[k], trace[k:])


def replay(level: Level, trace) -> bool:
    """True iff the trace applies cleanly from the initial state and ends
    on the flag cell; linear in the trace length.  It resumes from the
    level's trail (`SimContext.trail`) after the prefix the trace shares
    with it, and the first winning trace it finds becomes the trail."""
    ctx = sim_context(level)
    trace = tuple(trace)
    _, states, ok = _replay(ctx, level, trace)
    if not ok or states[-1][:2] != ctx.flag:
        return False
    if ctx.trail is None:  # so `_replay` ran from the start, and `states` are all of them
        ctx.trail = (trace, tuple(states))
    return True


def replay_states(level: Level, trace):
    """Yield the successive states of a replay (initial state first);
    stops early if a move fails or is not a canonical move.  The states
    of the prefix the trace shares with the level's trail are the
    trail's.  Library helper for tests and tooling."""
    ctx = sim_context(level)
    k, states, _ = _replay(ctx, level, tuple(trace))
    if k:
        yield from map(GameState._make, islice(ctx.trail[1], k))
    yield from map(GameState._make, states)
