"""The table-driven step core against the frozen cell-by-cell core it
replaced (`tests/reference_core.py`), the bits a move record reads and
writes, and the lifetime of its tables."""

import gc
import weakref
from functools import cache

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import gen_random_3cnf, gen_random_qbf
from satplat.level import (
    CLOSE,
    OPEN,
    SOLID,
    Button,
    Door,
    LevelError,
    SpaceBlock,
    UnstablePlatform,
)
from satplat.sim import (
    BLOCKED,
    DEATH,
    GameState,
    SimContext,
    _apply,
    canonical_moves,
    dash,
    replay,
    sim_context,
    step,
)
from satplat.solver import Solvable, _Keys, solve
from tests.conftest import level_from_art
from tests.reference_core import reference_step
from tests.test_solver import loadable_levels, small_levels


@cache
def compiled_levels():
    return (
        compile_3sat(gen_random_3cnf(2, 2, seed=3)),
        compile_3sat(gen_random_3cnf(3, 4, seed=7)),
        compile_qbf(gen_random_qbf(2, 2, seed=5)),
        compile_qbf(gen_random_qbf(3, 2, seed=11)),
    )


@st.composite
def levels(draw):
    """A level from `small_levels`, or a compiled NP or QBF level."""
    if draw(st.booleans()):
        try:
            return level_from_art(*draw(small_levels()))
        except LevelError:
            reject()
    return compiled_levels()[draw(st.integers(0, len(compiled_levels()) - 1))]


@st.composite
def levels_and_states(draw, level_strategy=None):
    """A level, from `levels` unless another strategy is given, and an
    arbitrary state on it: any cell (mostly a non-solid one), either dash
    value, and door bits with one bit to spare above the level's door
    ids and platform bits with one to spare above its platforms."""
    level = draw(levels() if level_strategy is None else level_strategy)
    open_cells = [(x, y) for y in range(level.height) for x in range(level.width)
                  if level.tiles[y][x] != SOLID]
    if draw(st.integers(0, 3)):
        x, y = draw(st.sampled_from(open_cells))
    else:
        x, y = draw(st.integers(0, level.width - 1)), draw(st.integers(0, level.height - 1))
    doors = max((e.id for e in level.entities if isinstance(e, Door)), default=0) + 2
    plats = sum(isinstance(e, UnstablePlatform) for e in level.entities) + 1
    state = GameState(x, y, draw(st.integers(0, 1)), draw(st.integers(0, 2**doors - 1)),
                      draw(st.integers(0, 2**plats - 1)))
    return level, state


# A dash that sweeps a button, then crosses a space block into the door
# that button opens: the exit reads the door bits after the button fired.
BUTTON_BLOCK_DOOR = level_from_art(
    "#########\n#S.B*D.F#\n#########",
    (Button((3, 1), 0, OPEN), SpaceBlock((4, 1, 4, 1)), Door(0, ((5, 1),))),
)

# A dash through a space block whose exit is a CLOSE button: the exit
# fires it and closes the open door.
BLOCK_CLOSE_BUTTON = level_from_art(
    "#########\n#S.*B.DF#\n#########",
    (SpaceBlock((3, 1, 3, 1)), Button((4, 1), 0, CLOSE), Door(0, ((6, 1),), True)),
)


@given(levels_and_states())
@example((BUTTON_BLOCK_DOOR, GameState(1, 1, 1, 0, 0)))
@example((BLOCK_CLOSE_BUTTON, GameState(1, 1, 1, 1, 0)))
@settings(max_examples=400, deadline=None)
def test_core_matches_the_reference_core(level_state):
    level, state = level_state
    for move in canonical_moves(level.physics):
        assert step(level, state, move) == reference_step(level, state, move), move


@given(levels_and_states(loadable_levels()))
@settings(max_examples=300, deadline=None)
def test_core_matches_the_reference_core_on_loadable_levels(level_state):
    level, state = level_state
    for move in canonical_moves(level.physics):
        assert step(level, state, move) == reference_step(level, state, move), move


# A walk onto an open door two cells tall over an intact platform: only
# the `below` chain of a landing reads the platform.
DOOR_OVER_PLATFORM = level_from_art(
    "######\n#S.F.#\n##D###\n##D###\n##=###\n######",
    (Door(0, ((2, 3), (2, 2)), True), UnstablePlatform((2, 1))),
)
# A dash through a space block into a door no button toggles: the exit
# reads the door bit.
BLOCK_DOOR = level_from_art(
    "########\n#S.*D.F#\n########",
    (SpaceBlock((3, 1, 3, 1)), Door(0, ((4, 1),))),
)
# A dash over a button whose door sits in a sealed pocket: no record of
# the spawn cell reads the door's bit, which the dash only sets.
BUTTON_FAR_DOOR = level_from_art(
    "#########\n#S.B..F.#\n#########\n#D#######\n#########",
    (Button((3, 3), 0, OPEN), Door(0, ((1, 1),))),
)


@given(levels_and_states(), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
@example((DOOR_OVER_PLATFORM, GameState(1, 4, 1, 1, 0)), 0, 1)
@example((BUTTON_BLOCK_DOOR, GameState(1, 1, 1, 0, 0)), 1, 0)
@example((BLOCK_DOOR, GameState(1, 1, 1, 0, 0)), 1, 0)
@example((BUTTON_FAR_DOOR, GameState(1, 3, 1, 0, 0)), 1, 0)
@example((BLOCK_CLOSE_BUTTON, GameState(1, 1, 1, 0, 0)), 1, 0)
@settings(max_examples=400, deadline=None)
def test_successor_masks_hold_for_every_state_that_shares_the_read_bits(
        level_state, other_doors, other_plats):
    # The masks derived from one state reproduce `step` on another that
    # agrees with it on the cell, the dash and the cell's read bits and
    # takes any other door and platform bits.  A move with no mask either
    # fails on the other state too, or reaches the other state itself or
    # an earlier move's successor, which the search has visited.
    level, state = level_state
    ctx = sim_context(level)
    cell = state.y * ctx.width + state.x
    read_doors, read_plats = ctx.read_bits(cell)
    other = state._replace(
        door_open=state.door_open & read_doors | other_doors & ~read_doors,
        platform_broken=state.platform_broken & read_plats | other_plats & ~read_plats)
    keys = _Keys.of(ctx, state._replace(door_open=state.door_open | other.door_open,
                                        platform_broken=state.platform_broken
                                        | other.platform_broken))
    read = keys.read_mask(ctx, cell)
    key, other_key = keys.pack(state), keys.pack(other)
    masks = keys.successors(ctx, key & read, read)
    successors = {move: other_key & and_mask | or_mask for and_mask, or_mask, move in masks}
    assert list(successors) == sorted(successors)
    reached = {other_key}
    for rec in ctx.records_at(cell):
        out = step(level, other, ctx.moves[rec.move])
        if not isinstance(out, GameState):
            assert rec.move not in successors
            continue
        out_key = keys.pack(out)
        if rec.move in successors:
            assert successors[rec.move] == out_key, ctx.moves[rec.move]
        else:
            assert out_key in reached, ctx.moves[rec.move]
        reached.add(out_key)


@given(levels_and_states())
@example((BLOCK_CLOSE_BUTTON, GameState(1, 1, 1, 1, 0)))
@example((BUTTON_FAR_DOOR, GameState(1, 3, 1, 0, 0)))
@example((DOOR_OVER_PLATFORM, GameState(1, 4, 1, 1, 0)))
@settings(max_examples=400, deadline=None)
def test_a_record_writes_only_its_footprint(level_state):
    # The one-application rule of `_Keys.successors`: `_apply` changes a
    # door bit only if the cell's records read it or the record's write
    # set holds it, and an unread platform bit survives exactly where
    # the reform mask of the rest cell keeps it.
    level, state = level_state
    ctx = sim_context(level)
    cell = state.y * ctx.width + state.x
    read_doors, read_plats = ctx.read_bits(cell)
    _, _, has_dash, doors, plats = state
    for rec in ctx.records_at(cell):
        out = _apply(rec, has_dash, doors, plats)
        if out is BLOCKED or out is DEATH:
            continue
        x, y, _, out_doors, out_plats = out
        assert (out_doors ^ doors) & ~(read_doors | rec.writes) == 0, ctx.moves[rec.move]
        assert (out_plats & ~read_plats
                == plats & ~read_plats & ctx.reform_mask(y * ctx.width + x)), ctx.moves[rec.move]


def single_records_agree_with_records_at(level, singles_first: bool):
    """On a fresh context, `record(cell, mi)` is the record of move `mi`
    in `records_at(cell)`, or None when that has none, for every cell and
    canonical move; the single records are built before the per-cell
    ones, or after."""
    ctx = SimContext(level)
    cells = range(ctx.width * ctx.height)

    def singles():
        return {(cell, mi): ctx.record(cell, mi) for cell in cells
                for mi in range(len(ctx.moves))}

    single = singles() if singles_first else None
    by_cell = {cell: {rec.move: rec for rec in ctx.records_at(cell)} for cell in cells}
    for (cell, mi), rec in (single or singles()).items():
        assert rec == by_cell[cell].get(mi), (divmod(cell, ctx.width)[::-1], ctx.moves[mi])


@cache
def both_build_orders_agree(level):
    """Checked once per level: the check is deterministic, and the
    compiled levels are drawn again and again."""
    single_records_agree_with_records_at(level, singles_first=True)
    single_records_agree_with_records_at(level, singles_first=False)


@given(levels())
@example(BUTTON_BLOCK_DOOR)
@example(DOOR_OVER_PLATFORM)
@settings(max_examples=60, deadline=None)
def test_single_records_match_records_at_in_either_build_order(level):
    both_build_orders_agree(level)


def test_read_bits_leave_out_the_door_of_a_swept_button():
    ctx = sim_context(BUTTON_FAR_DOOR)
    cell = 3 * ctx.width + 1
    assert dash("E") in (ctx.moves[rec.move] for rec in ctx.records_at(cell))
    assert ctx.read_bits(cell) == (0, 0)


def test_context_is_freed_without_cycle_collection(sample_formula):
    level = compile_3sat(sample_formula)
    sim_context.cache_clear()
    gc.disable()
    try:
        ctx = weakref.ref(sim_context(level))
        result = solve(level)
        assert isinstance(result, Solvable) and replay(level, result.trace)
        sim_context.cache_clear()
        assert ctx() is None
    finally:
        gc.enable()
