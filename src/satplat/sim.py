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

A `GameState` is the tuple `(x, y, has_dash, door_open, platform_broken)`
that the step core and the solver work on; there is no other encoding.
The outcome of a step is the next `GameState`, or one of two singletons:
`BLOCKED` (the move cannot start, or moves nowhere) or `DEATH` (a dash
through a space block exits into a blocked cell or off the level).
The core `_step_packed` returns the same outcomes, with the next state
as a plain tuple, which hashes and compares equal to a `GameState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from satplat.level import CLOSE, SOLID, Button, Door, Level, SpaceBlock, UnstablePlatform

# Compass directions in canonical order.
COMPASS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
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

DEATH_BLOCKED_EXIT = "blocked space-block exit"


@dataclass(frozen=True)
class Move:
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
    platform_broken: int  # bitset keyed by platform id

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Death:
    reason: str


@dataclass(frozen=True)
class Blocked:
    pass


BLOCKED = Blocked()
DEATH = Death(DEATH_BLOCKED_EXIT)
StepOutcome = GameState | Death | Blocked

# Cell codes in the packed grid.
_EMPTY, _SOLID, _DOOR, _PLAT, _BUTTON, _BLOCK = range(6)


class SimContext:
    """Precomputed lookup tables for one level; shared by step/solver."""

    def __init__(self, level: Level):
        w, h = level.width, level.height
        self.width, self.height = w, h
        code = [_SOLID if level.tiles[y][x] == SOLID else _EMPTY
                for y in range(h) for x in range(w)]
        eid = [0] * (w * h)
        buttons: list[tuple[int, bool]] = []
        plat_cells: list[tuple[int, int, int]] = []
        initial_doors = 0
        for ent in level.entities:
            if isinstance(ent, Door):
                for (x, y) in ent.cells:
                    code[y * w + x] = _DOOR
                    eid[y * w + x] = ent.id
                if ent.initially_open:
                    initial_doors |= 1 << ent.id
            elif isinstance(ent, UnstablePlatform):
                x, y = ent.cell
                code[y * w + x] = _PLAT
                eid[y * w + x] = ent.id
                plat_cells.append((ent.id, x, y))
            elif isinstance(ent, Button):
                x, y = ent.cell
                code[y * w + x] = _BUTTON
                eid[y * w + x] = len(buttons)
                buttons.append((ent.door_id, ent.action != CLOSE))
            elif isinstance(ent, SpaceBlock):
                for (x, y) in ent.cells:
                    code[y * w + x] = _BLOCK
                    eid[y * w + x] = ent.id
        self.code = code
        self.eid = eid
        self.buttons = buttons
        self.plat_cells = plat_cells
        self.initial_doors = initial_doors
        self.spawn = level.spawn.cell
        self.flag = level.flag.cell
        self.physics = level.physics
        self.moves = canonical_moves(level.physics)
        self.packed_moves = [_pack_move(m) for m in self.moves]


def canonical_moves(physics) -> tuple[Move, ...]:
    """The fixed move enumeration order: WALK L, WALK R, JUMPs by
    (dx, rise), then DASH in compass order."""
    moves = [walk(-1), walk(1)]
    for dx in (-1, 0, 1):
        for rise in range(1, physics.jump_rise + 1):
            moves.append(jump(dx, rise))
    for d in COMPASS:
        moves.append(dash(d))
    return tuple(moves)


def _pack_move(move: Move) -> tuple[int, int, int]:
    if move.kind == "WALK":
        return (0, move.dx, 0)
    if move.kind == "JUMP":
        return (1, move.dx, move.rise)
    dx, dy = COMPASS_DELTA[move.direction]
    return (2, dx, dy)


@lru_cache(maxsize=128)
def sim_context(level: Level) -> SimContext:
    return SimContext(level)


def initial_state(level: Level) -> GameState:
    """The start state: spawn, dash charged, initial doors, no broken
    platforms."""
    ctx = sim_context(level)
    return GameState(*ctx.spawn, 1, ctx.initial_doors, 0)


def _step_packed(ctx: SimContext, x: int, y: int, has_dash: int, doors: int,
                 plats: int, kind: int, a: int, b: int):
    """Core transition on the fields of a GameState; returns the next
    state as a plain tuple, `BLOCKED` or `DEATH`."""
    w, h = ctx.width, ctx.height
    code = ctx.code
    eid = ctx.eid

    def walkable(cx: int, cy: int) -> bool:
        if not (0 <= cx < w and 0 <= cy < h):
            return False
        c = code[cy * w + cx]
        if c == _EMPTY:
            return True
        if c == _DOOR:
            return bool((doors >> eid[cy * w + cx]) & 1)
        if c == _PLAT:
            return bool((plats >> eid[cy * w + cx]) & 1)
        return False  # solid, button, block

    fired: list[int] = []
    transited = False

    if kind == 0:  # WALK
        nx = x + a
        if not walkable(nx, y):
            return BLOCKED
        px, py = nx, y

    elif kind == 1:  # JUMP: ascend b cells, then shift a
        for i in range(1, b + 1):
            if not walkable(x, y + i):
                return BLOCKED
        px, py = x, y + b
        if a:
            if not walkable(x + a, py):
                return BLOCKED
            px = x + a

    else:  # DASH
        if not has_dash:
            return BLOCKED
        cx, cy = x, y
        moved = False
        for _ in range(ctx.physics.dash_length):
            nx, ny = cx + a, cy + b
            if not (0 <= nx < w and 0 <= ny < h):
                break
            i = ny * w + nx
            c = code[i]
            if c == _BLOCK:
                # Space-block transit: carried straight through the block
                # cells (chaining into an abutting block) to the first cell
                # beyond; a blocked exit kills.
                transited = True
                tx, ty = nx, ny
                while 0 <= tx < w and 0 <= ty < h and code[ty * w + tx] == _BLOCK:
                    tx += a
                    ty += b
                # Buttons swept before the block have already fired.
                tdoors = doors
                for bi in fired:
                    door_id, set_open = ctx.buttons[bi]
                    tdoors = tdoors | (1 << door_id) if set_open else tdoors & ~(1 << door_id)
                if not (0 <= tx < w and 0 <= ty < h):
                    return DEATH
                tc = code[ty * w + tx]
                ti = ty * w + tx
                exit_ok = (
                    tc == _EMPTY
                    or tc == _BUTTON
                    or (tc == _DOOR and (tdoors >> eid[ti]) & 1)
                    or (tc == _PLAT and (plats >> eid[ti]) & 1)
                )
                if not exit_ok:
                    return DEATH
                cx, cy = tx, ty
                moved = True
                if tc == _BUTTON:
                    fired.append(eid[ti])
                break
            passable = (
                c == _EMPTY
                or c == _BUTTON
                or (c == _DOOR and (doors >> eid[i]) & 1)
                or (c == _PLAT and (plats >> eid[i]) & 1)
            )
            if not passable:
                break
            cx, cy = nx, ny
            moved = True
            if c == _BUTTON:
                fired.append(eid[i])
        if not moved:
            return BLOCKED
        px, py = cx, cy

    for bi in fired:
        door_id, set_open = ctx.buttons[bi]
        doors = doors | (1 << door_id) if set_open else doors & ~(1 << door_id)

    # Gravity: fall until the cell below blocks (solid, closed door,
    # unbroken platform, or space block).
    while py > 0:
        i = (py - 1) * w + px
        c = code[i]
        if c == _EMPTY or c == _BUTTON:
            py -= 1
        elif c == _DOOR and (doors >> eid[i]) & 1:
            py -= 1
        elif c == _PLAT and (plats >> eid[i]) & 1:
            py -= 1
        else:
            break

    # Platform breaking: standing on an intact platform breaks it; the
    # player stays put this step.
    below = (py - 1) * w + px
    support = code[below] if py > 0 else _SOLID
    if support == _PLAT:
        plats |= 1 << eid[below]

    # Platform reform: broken platforms far enough away come back.
    if plats:
        reform = ctx.physics.reform_distance
        for pid, bx, by in ctx.plat_cells:
            if (plats >> pid) & 1:
                d = abs(bx - px)
                dy2 = abs(by - py)
                if (d if d > dy2 else dy2) >= reform:
                    plats &= ~(1 << pid)

    if kind == 2:
        has_dash = 0
    if transited:
        has_dash = 1
    if support == _SOLID or support == _PLAT:
        has_dash = 1

    return (px, py, has_dash, doors, plats)


def _validate_move(ctx: SimContext, move: Move) -> tuple[int, int, int]:
    if move.kind == "WALK":
        if move.dx not in (-1, 1):
            raise ValueError(f"bad WALK dx {move.dx}")
    elif move.kind == "JUMP":
        if move.dx not in (-1, 0, 1) or not 1 <= move.rise <= ctx.physics.jump_rise:
            raise ValueError(f"bad JUMP ({move.dx}, {move.rise})")
    elif move.kind == "DASH":
        if move.direction not in COMPASS:
            raise ValueError(f"bad DASH direction {move.direction!r}")
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return _pack_move(move)


def step(level: Level, state: GameState, move: Move) -> StepOutcome:
    """Apply one move; a pure function of (level, state, move)."""
    ctx = sim_context(level)
    kind, a, b = _validate_move(ctx, move)
    out = _step_packed(ctx, *state, kind, a, b)
    return out if out is BLOCKED or out is DEATH else GameState._make(out)


def legal_moves(level: Level, state: GameState) -> list[Move]:
    """Moves whose outcome is a next state; blocked and fatal moves are
    pruned."""
    ctx = sim_context(level)
    out = []
    for move, (kind, a, b) in zip(ctx.moves, ctx.packed_moves):
        nxt = _step_packed(ctx, *state, kind, a, b)
        if nxt is not BLOCKED and nxt is not DEATH:
            out.append(move)
    return out


def replay(level: Level, trace) -> bool:
    """True iff the trace applies cleanly from the initial state and ends
    on the flag cell; linear in the trace length."""
    ctx = sim_context(level)
    x, y, has_dash, doors, plats = initial_state(level)
    for move in trace:
        try:
            kind, a, b = _validate_move(ctx, move)
        except ValueError:
            return False
        nxt = _step_packed(ctx, x, y, has_dash, doors, plats, kind, a, b)
        if nxt is BLOCKED or nxt is DEATH:
            return False
        x, y, has_dash, doors, plats = nxt
    return (x, y) == ctx.flag


def replay_states(level: Level, trace):
    """Yield the successive states of a replay (initial state first);
    stops early if a move fails.  Library helper for tests and tooling."""
    state = initial_state(level)
    yield state
    for move in trace:
        state = step(level, state, move)
        if state is BLOCKED or state is DEATH:
            return
        yield state
