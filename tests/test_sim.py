import re
from functools import cache

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import satplat.sim as sim
from satplat.compiler import compile_3sat
from satplat.level import Button, Door, LevelError, SpaceBlock, UnstablePlatform
from satplat.sim import (
    BLOCKED,
    DEATH,
    GameState,
    Move,
    canonical_moves,
    dash,
    initial_state,
    jump,
    legal_moves,
    move_from_text,
    replay,
    replay_states,
    sim_context,
    step,
    trace_from_text,
    trace_to_text,
    walk,
)
from satplat.solver import Solvable, solve
from tests.conftest import level_from_art
from tests.test_solver import small_levels
from tests.test_step_core import compiled_levels


def advance(level, state, *moves):
    for move in moves:
        out = step(level, state, move)
        assert isinstance(out, GameState), f"{move} gave {out}"
        state = out
    return state


class TestWalkAndGravity:
    def test_walk_right_along_floor(self, minimal_level):
        s = initial_state(minimal_level)
        out = step(minimal_level, s, walk(1))
        assert isinstance(out, GameState)
        assert out.position == (2, 1)

    def test_walk_into_wall_blocked(self, minimal_level):
        assert step(minimal_level, initial_state(minimal_level), walk(-1)) is BLOCKED

    def test_walk_off_ledge_falls_to_floor(self):
        level = level_from_art("#####\n#S..#\n##..#\n##.F#\n#####")
        s = advance(level, initial_state(level), walk(1))
        assert s.position == (2, 1)

    def test_initial_state(self, minimal_level):
        s = initial_state(minimal_level)
        assert s.position == minimal_level.spawn.cell
        assert s.has_dash and s.door_open == 0 and s.platform_broken == 0

    def test_initially_open_door_bit_set(self):
        level = level_from_art(
            "######\n#S..F#\n######",
            entities=[Door(3, ((2, 1),), initially_open=True)],
        )
        assert initial_state(level).door_open == 8


class TestJump:
    def test_rise_then_shift_over_wall(self):
        level = level_from_art("#####\n#...#\n#S#F#\n#####")
        s = advance(level, initial_state(level), jump(1, 1))
        assert s.position == (2, 2)

    def test_shift_blocked_by_wall(self):
        level = level_from_art("#####\n#.#.#\n#S#F#\n#####")
        assert step(level, initial_state(level), jump(1, 1)) is BLOCKED

    def test_rise_blocked_by_ceiling(self, minimal_level):
        assert step(minimal_level, initial_state(minimal_level), jump(0, 1)) is BLOCKED

    def test_pure_vertical_jump_bounces_back(self):
        level = level_from_art("####\n#..#\n#..#\n#SF#\n####")
        s = advance(level, initial_state(level), jump(0, 2))
        assert s.position == (1, 1)

    def test_invalid_rise_raises(self, minimal_level):
        with pytest.raises(ValueError):
            step(minimal_level, initial_state(minimal_level), jump(0, 9))


class TestDash:
    def test_dash_stops_before_wall(self):
        level = level_from_art("########\n#S....F#\n########")
        s = advance(level, initial_state(level), dash("E"))
        assert s.position == (5, 1)  # four cells, dash length
        assert s.has_dash  # restored on landing on solid ground

    def test_dash_without_charge_blocked(self, minimal_level):
        s = GameState(1, 1, 0, 0, 0)
        assert step(minimal_level, s, dash("E")) is BLOCKED
        assert dash("E") not in legal_moves(minimal_level, s)

    def test_dash_into_adjacent_wall_blocked(self, minimal_level):
        assert step(minimal_level, initial_state(minimal_level), dash("W")) is BLOCKED

    def test_diagonal_dash_lands_on_ledge(self):
        level = level_from_art(
            "######\n"
            "#..F.#\n"
            "#..#.#\n"
            "#S...#\n"
            "######"
        )
        s = advance(level, initial_state(level), dash("NE"))
        assert s.position == (3, 3)  # stopped diagonally, rests on the ledge

    def test_bad_direction_raises(self, minimal_level):
        with pytest.raises(ValueError):
            step(minimal_level, initial_state(minimal_level), dash("Q"))


def button_level():
    # corridor: spawn, free cell, button, closed door, flag
    return level_from_art(
        "#######\n#S.B.F#\n#######",
        entities=[Door(0, ((4, 1),)), Button((3, 1), 0)],
        validate=False,
    )


class TestButtons:
    def test_walk_into_button_blocked(self):
        level = button_level()
        s = advance(level, initial_state(level), walk(1))
        assert step(level, s, walk(1)) is BLOCKED

    def test_dash_fires_button_but_path_uses_prior_door_state(self):
        level = button_level()
        out = step(level, initial_state(level), dash("E"))
        assert isinstance(out, GameState)
        # stopped by the then-closed door, resting on the button cell
        assert out.position == (3, 1)
        assert out.door_open == 1
        # now the door is open: the next dash crosses it
        s = advance(level, out, dash("E"))
        assert s.position == (5, 1)

    def test_falling_through_button_does_not_fire(self):
        level = level_from_art(
            "######\n#S...#\n##B.F#\n######",
            entities=[Door(0, ((3, 1),), initially_open=True), Button((2, 1), 0, "close")],
            validate=False,
        )
        s = advance(level, initial_state(level), walk(1))
        assert s.position == (2, 1)  # rests inside the button cell
        assert s.door_open == 1  # unchanged: falling never presses

    def test_close_button_clears_bit(self):
        level = level_from_art(
            "#######\n#S.b.F#\n#######",
            entities=[Door(0, ((4, 1),), initially_open=True), Button((3, 1), 0, "close")],
            validate=False,
        )
        out = step(level, initial_state(level), dash("E"))
        assert isinstance(out, GameState)
        assert out.door_open == 0


def platform_tower():
    # spawn stands on a platform two cells above the floor
    return level_from_art(
        "#####\n"
        "#...#\n"
        "#S..#\n"
        "#=..#\n"
        "#...#\n"
        "#..F#\n"
        "#####",
        entities=[UnstablePlatform((1, 3))],
        validate=False,
    )


class TestPlatforms:
    def test_break_fall_reform_and_one_way(self):
        level = platform_tower()
        s0 = initial_state(level)
        assert s0.platform_broken == 0
        # landing back on the platform breaks it; the player stays put
        s1 = advance(level, s0, jump(0, 1))
        assert s1.position == s0.position
        assert s1.platform_broken == 1
        # the next hop falls through; 2 cells below, the platform reforms
        s2 = advance(level, s1, jump(0, 1))
        assert s2.position == (1, 1)
        assert s2.platform_broken == 0
        # returning from below is blocked: intact platforms are impassable
        assert step(level, s2, jump(0, 2)) is BLOCKED
        assert step(level, s2, jump(0, 3)) is BLOCKED
        out = step(level, s2, dash("N"))
        assert isinstance(out, GameState)
        assert out.position == (1, 1)  # bounced off, fell back

    def test_platform_keeps_broken_within_reform_distance(self):
        level = level_from_art(
            "######\n#.S..#\n#=#.F#\n######",
            entities=[UnstablePlatform((1, 1))],
            validate=False,
        )
        # step onto the platform (it breaks), step off one cell: Chebyshev
        # distance 1 < 2 keeps it broken; the next step reforms it
        s = advance(level, initial_state(level), walk(-1))
        assert s.position == (1, 2) and s.platform_broken == 1
        s = advance(level, s, walk(1))
        assert s.position == (2, 2) and s.platform_broken == 1
        s = advance(level, s, walk(1))
        assert s.platform_broken == 0

    def test_dash_recharges_on_platform_support(self):
        level = platform_tower()
        s = advance(level, initial_state(level), jump(0, 1))
        assert s.has_dash


def block_death_level():
    return level_from_art(
        "########\n#S.**#F#\n########",
        entities=[SpaceBlock((3, 1, 4, 1))],
        validate=False,
    )


class TestSpaceBlocks:
    def test_blocked_exit_kills(self):
        level = block_death_level()
        out = step(level, initial_state(level), dash("E"))
        assert out is DEATH
        assert "space-block" in out.reason

    def test_death_moves_pruned_from_legal_moves(self):
        level = block_death_level()
        assert dash("E") not in legal_moves(level, initial_state(level))

    def test_transit_carries_straight_through(self):
        level = level_from_art(
            "########\n#S.**.F#\n########",
            entities=[SpaceBlock((3, 1, 4, 1))],
            validate=False,
        )
        s = advance(level, initial_state(level), dash("E"))
        assert s.position == (5, 1)
        assert s.has_dash

    def test_walk_and_jump_cannot_enter(self):
        level = level_from_art(
            "########\n#S.**.F#\n########",
            entities=[SpaceBlock((3, 1, 4, 1))],
            validate=False,
        )
        s = advance(level, initial_state(level), walk(1))
        assert step(level, s, walk(1)) is BLOCKED

    def test_block_top_is_support_and_transit_down(self):
        level = level_from_art(
            "#######\n"
            "#S....#\n"
            "##*...#\n"
            "##...F#\n"
            "#######",
            entities=[SpaceBlock((2, 2, 2, 2))],
            validate=False,
        )
        s = advance(level, initial_state(level), walk(1))
        assert s.position == (2, 3)  # standing on the block
        s = advance(level, s, dash("S"))
        assert s.position == (2, 1)  # carried straight down through it

    def test_transit_restores_charge_even_off_the_ground(self):
        # the landing cell rests on a closed door: no ground recharge, so
        # the charge after the dash can only come from the transit itself
        level = level_from_art(
            "#########\n"
            "#S.**..F#\n"
            "#####D###\n"
            "#####.###\n"
            "#########",
            entities=[SpaceBlock((3, 3, 4, 3)), Door(0, ((5, 2),))],
            validate=False,
        )
        s = advance(level, initial_state(level), dash("E"))
        assert s.position == (5, 3)
        assert s.has_dash

    def test_no_recharge_on_closed_door_support(self):
        level = level_from_art(
            "#########\n"
            "#S.**..F#\n"
            "#####D###\n"
            "#####.###\n"
            "#########",
            entities=[SpaceBlock((3, 3, 4, 3)), Door(0, ((5, 2),))],
            validate=False,
        )
        s = advance(level, initial_state(level), dash("E"))
        # consume the charge by walking is impossible; emulate a spent one
        spent = s._replace(has_dash=0)
        out = step(level, spent, walk(1))
        assert isinstance(out, GameState)
        assert out.position == (6, 3)
        assert out.has_dash  # back on solid ground: recharged

    def test_transit_chains_through_abutting_blocks(self):
        level = level_from_art(
            "#########\n#S.**..F#\n#########",
            entities=[SpaceBlock((3, 1, 3, 1)), SpaceBlock((4, 1, 4, 1))],
            validate=False,
        )
        s = advance(level, initial_state(level), dash("E"))
        assert s.position == (5, 1)


class TestLegalMovesAndDeterminism:
    def test_pit_without_dash_offers_no_walk_or_dash(self):
        level = level_from_art(
            "#####\n#...#\n#.#.#\n#S#F#\n#####"
        )
        s = GameState(1, 1, 0, 0, 0)
        moves = legal_moves(level, s)
        assert all(m.kind == "JUMP" for m in moves)

    def test_legal_moves_match_step_outcomes(self, minimal_level):
        s = initial_state(minimal_level)
        for move in canonical_moves(minimal_level.physics):
            expected = isinstance(step(minimal_level, s, move), GameState)
            assert (move in legal_moves(minimal_level, s)) == expected

    def test_step_is_pure(self, minimal_level):
        s = initial_state(minimal_level)
        assert step(minimal_level, s, walk(1)) == step(minimal_level, s, walk(1))

    def test_canonical_move_order(self, minimal_level):
        moves = canonical_moves(minimal_level.physics)
        assert [str(m) for m in moves[:5]] == [
            "WALK L", "WALK R", "JUMP -1 1", "JUMP -1 2", "JUMP -1 3",
        ]
        assert [m.direction for m in moves[-8:]] == [
            "N", "NE", "E", "SE", "S", "SW", "W", "NW",
        ]


class TestInvariantsUnderRandomWalks:
    """Spec invariants checked along seeded random legal-move walks."""

    @staticmethod
    def _support_code(level, state):
        from satplat.sim import sim_context

        ctx = sim_context(level)
        x, y = state.position
        i = (y - 1) * ctx.width + x
        c = ctx.code[i]
        if c == 1 or c == 5:  # solid or space block
            return "ground" if c == 1 else "block"
        if c == 2:
            return None if (state.door_open >> ctx.eid[i]) & 1 else "door"
        if c == 3:
            # a platform supports even while broken: breaking leaves the
            # player in place for a step before falling through
            return "platform"
        return None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_np_level_walk(self, sample_formula, seed):
        import random

        from satplat.compiler import compile_3sat

        level = compile_3sat(sample_formula)
        rng = random.Random(seed)
        state = initial_state(level)
        for _ in range(200):
            moves = legal_moves(level, state)
            assert moves, "stuck states should not exist on this level"
            move = rng.choice(moves)
            nxt = step(level, state, move)
            assert isinstance(nxt, GameState)
            # every rest state is supported
            assert self._support_code(level, nxt) is not None
            # doors only ever open in the NP variant
            assert nxt.door_open & state.door_open == state.door_open
            # the dash charge returns only with ground/platform support,
            # or through a space block (only a DASH can transit)
            if not state.has_dash and nxt.has_dash:
                assert (self._support_code(level, nxt) in ("ground", "platform")
                        or move.kind == "DASH")
            # reform keeps the platform bitset canonical: a broken platform
            # is always within reform distance of the player
            if nxt.platform_broken:
                from satplat.sim import sim_context

                reform = level.physics.reform_distance
                for pid, bx, by in sim_context(level).plat_cells:
                    if (nxt.platform_broken >> pid) & 1:
                        cheb = max(abs(bx - nxt.position[0]),
                                   abs(by - nxt.position[1]))
                        assert cheb < reform
            state = nxt

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pspace_level_walk(self, seed):
        import random

        from satplat.compiler import compile_qbf
        from satplat.formula import parse_qdimacs

        level = compile_qbf(parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 -2 0"))
        rng = random.Random(seed)
        state = initial_state(level)
        for _ in range(200):
            moves = legal_moves(level, state)
            assert moves
            state = step(level, state, rng.choice(moves))
            assert isinstance(state, GameState)
            assert self._support_code(level, state) is not None


class TestReplayAndTraces:
    def test_replay_success(self, minimal_level):
        assert replay(minimal_level, (walk(1),)) is True

    def test_empty_trace_fails_when_spawn_is_not_flag(self, minimal_level):
        assert replay(minimal_level, ()) is False

    def test_replay_rejects_blocked_moves(self, minimal_level):
        assert replay(minimal_level, (walk(-1), walk(1))) is False

    def test_replay_rejects_invalid_move(self, minimal_level):
        assert replay(minimal_level, (jump(0, 99),)) is False

    def test_trace_text_round_trip(self):
        trace = (walk(-1), walk(1), jump(-1, 2), dash("NE"), dash("S"))
        assert trace_from_text(trace_to_text(trace)) == trace

    def test_move_text_errors(self):
        with pytest.raises(ValueError):
            move_from_text("FLY UP")

    @pytest.mark.parametrize("text", ["WALK L extra", "JUMP 1 2 3", "DASH E 9"])
    def test_move_text_rejects_trailing_tokens(self, text):
        with pytest.raises(ValueError):
            move_from_text(text)

    def test_replay_states_stops_on_failure(self, minimal_level):
        states = list(replay_states(minimal_level, (walk(-1), walk(1))))
        assert len(states) == 1  # just the initial state

    @pytest.mark.parametrize("move", [Move("WALK", dx=1, rise=2), jump(1, 9)], ids=repr)
    def test_non_canonical_move_is_refused_everywhere(self, sample_formula, move):
        # A WALK with a stray rise is not `walk(1)`; it is not a move.
        level = compile_3sat(sample_formula)
        trace = solve(level).trace
        assert replay(level, trace)
        start = initial_state(level)
        with pytest.raises(ValueError):
            step(level, start, move)
        assert replay(level, (move, *trace)) is False
        assert list(replay_states(level, (move, *trace))) == [start]


class TestTrail:
    """`SimContext.trail`: the first winning trace `replay` finds, and the
    core states along it."""

    def test_a_losing_replay_sets_no_trail(self, minimal_level):
        sim_context.cache_clear()
        assert replay(minimal_level, (walk(-1),)) is False
        assert replay(minimal_level, ()) is False
        assert list(replay_states(minimal_level, (walk(1),)))[-1].position == (2, 1)
        assert sim_context(minimal_level).trail is None
        assert replay(minimal_level, (walk(1),))
        assert sim_context(minimal_level).trail == ((walk(1),),
                                                    ((1, 1, 1, 0, 0), (2, 1, 1, 0, 0)))

    def test_a_second_winning_trace_does_not_replace_the_first(self, minimal_level):
        sim_context.cache_clear()
        assert replay(minimal_level, (walk(1),))
        trail = sim_context(minimal_level).trail
        assert replay(minimal_level, (dash("E"),))
        assert replay(minimal_level, (walk(1), walk(-1), walk(1)))
        assert sim_context(minimal_level).trail is trail

    def test_cache_clear_drops_the_trail(self, minimal_level):
        sim_context.cache_clear()
        assert replay(minimal_level, (walk(1),))
        sim_context.cache_clear()
        assert sim_context(minimal_level).trail is None

    def test_step_and_replay_build_only_the_records_they_apply(self, monkeypatch):
        # Records are built per move for `step` and `replay`, never for a
        # whole cell.
        level, trace = witnessed_levels()[0]
        built, applied = [], []
        build, apply = sim.SimContext._build, sim._apply

        def counted_build(ctx, cell, shapes):
            for rec in build(ctx, cell, shapes):
                built.append(rec)
                yield rec

        monkeypatch.setattr(sim.SimContext, "_build", counted_build)
        monkeypatch.setattr(sim, "_apply", lambda *args: applied.append(args) or apply(*args))
        sim_context.cache_clear()
        assert replay(level, trace)
        assert len(applied) == len(trace)
        assert 0 < len(built) <= len(applied)
        built.clear()
        start = initial_state(level)
        assert isinstance(step(level, start, trace[0]), GameState)
        assert not built  # the replay built that record already
        step(level, start, next(m for m in canonical_moves(level.physics) if m != trace[0]))
        assert len(built) <= 1
        with pytest.raises(ValueError, match=re.escape(f"not a canonical move: {NOT_A_MOVE!r}")):
            step(level, start, NOT_A_MOVE)
        sim_context.cache_clear()
        assert isinstance(solve(level), Solvable)
        built.clear()
        applied.clear()
        assert replay(level, trace)
        assert len(built) <= len(applied) == len(trace)  # at most one record per move applied

    def test_a_mutant_replays_only_the_moves_after_its_mutation(self, sample_formula,
                                                                monkeypatch):
        level = compile_3sat(sample_formula)
        trace = solve(level).trace
        sim_context.cache_clear()
        assert replay(level, trace)
        calls = []
        apply = sim._apply
        monkeypatch.setattr(sim, "_apply", lambda *args: calls.append(args) or apply(*args))
        assert replay(level, trace)
        assert len(list(replay_states(level, trace))) == len(trace) + 1
        assert not calls
        for i in range(len(trace)):
            calls.clear()
            assert replay(level, trace[:i] + trace[i + 1:]) is False
            assert len(calls) <= len(trace) - i


NOT_A_MOVE = Move("WALK", dx=1, rise=2)


@cache
def witnessed_levels():
    """The compiled NP and QBF levels that have a witness, with it."""
    return tuple((level, result.trace) for level in compiled_levels()
                 if isinstance(result := solve(level), Solvable))


@st.composite
def witnesses_and_traces(draw):
    """A level, from `small_levels` or a compiled NP or QBF level, its
    witness, and a trace drawn from the witness: a move deleted, a move
    substituted by any canonical move, the witness truncated or extended
    past the flag, or `NOT_A_MOVE` inserted, inside the witness or at its
    end."""
    if draw(st.booleans()):
        try:
            level = level_from_art(*draw(small_levels()))
        except LevelError:
            reject()
        result = solve(level)
        if not isinstance(result, Solvable):
            reject()
        witness = result.trace
    else:
        level, witness = draw(st.sampled_from(witnessed_levels()))
    moves = canonical_moves(level.physics)
    n = len(witness)
    kind = draw(st.sampled_from(["delete", "substitute", "truncate", "extend", "insert"]))
    if kind == "delete":
        i = draw(st.integers(0, n - 1))
        trace = witness[:i] + witness[i + 1:]
    elif kind == "substitute":
        i = draw(st.integers(0, n - 1))
        trace = (*witness[:i], draw(st.sampled_from(moves)), *witness[i + 1:])
    elif kind == "truncate":
        trace = witness[:draw(st.integers(0, n))]
    elif kind == "extend":
        trace = (*witness, *draw(st.lists(st.sampled_from(moves), min_size=1, max_size=3)))
    else:
        i = draw(st.just(n) | st.integers(0, n))
        trace = (*witness[:i], NOT_A_MOVE, *witness[i:])
    return level, tuple(witness), tuple(trace)


def walk_over_step(level, trace):
    """The states of a replay of `trace` and whether it wins, by `step`
    alone from `initial_state`."""
    states = [initial_state(level)]
    for move in trace:
        try:
            out = step(level, states[-1], move)
        except ValueError:  # not a canonical move
            return states, False
        if not isinstance(out, GameState):
            return states, False
        states.append(out)
    return states, states[-1].position == level.flag.cell


def walk_right_twin():
    """`NOT_A_MOVE`, which prints as `WALK R`, inserted where the witness
    walks right: a trail lookup that compared moves by their text would
    take it for the witness's move."""
    level = level_from_art("#######\n###..F#\n#S..###\n#######")
    witness = solve(level).trace
    assert witness == (dash("E"), jump(1, 1), walk(1))
    return level, witness, (*witness[:2], NOT_A_MOVE, *witness[2:])


@given(witnesses_and_traces())
@example(walk_right_twin())
@settings(max_examples=200, deadline=None)
def test_replay_from_the_trail_matches_a_walk_over_step(case):
    level, witness, trace = case
    sim_context.cache_clear()
    assert replay(level, witness)
    assert sim_context(level).trail[0] == witness
    states, wins = walk_over_step(level, trace)
    assert replay(level, trace) is wins
    assert list(replay_states(level, trace)) == states
    assert sim_context(level).trail[0] == witness
