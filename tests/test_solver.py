import gc
import tracemalloc

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from satplat import solver
from satplat.compiler import compile_3sat
from satplat.formula import gen_random_3cnf
from satplat.gadgets import build_elevator, check_contract
from satplat.level import (
    CLOSE,
    OPEN,
    Button,
    Door,
    LevelError,
    PhysicsParams,
    Port,
    SpaceBlock,
    UnstablePlatform,
    load_level,
    save_level,
)
from satplat.sim import (
    GameState,
    canonical_moves,
    dash,
    initial_state,
    jump,
    legal_moves,
    replay,
    replay_states,
    sim_context,
    step,
    walk,
)
from satplat.solver import (
    DEFAULT_MAX_STATES,
    LimitExceeded,
    Solvable,
    Unsolvable,
    _search,
    reachable_ports,
    reachable_positions,
    solve,
    solve_between,
)
from tests.conftest import level_from_art
from tests.test_search_pins import np_levels, qbf_levels


class TestSolve:
    def test_minimal_level_one_move(self, minimal_level):
        result = solve(minimal_level)
        assert isinstance(result, Solvable)
        assert result.trace == (walk(1),)

    def test_trace_replays(self, sample_formula):
        level = compile_3sat(sample_formula)
        result = solve(level)
        assert isinstance(result, Solvable)
        assert replay(level, result.trace)

    def test_unsolvable_dead_end(self):
        level = level_from_art("#####\n#S#F#\n#####")
        result = solve(level)
        assert isinstance(result, Unsolvable)
        assert result.stats.states_visited >= 1

    def test_spawn_on_flag(self):
        level = level_from_art("####\n#S.#\n####", validate=False)
        from satplat.level import Flag, Level

        level = Level(level.tiles, level.entities + (Flag((1, 1)),))
        result = solve(level)
        assert isinstance(result, Solvable)
        assert result.trace == ()
        assert result.stats.states_expanded == 0
        assert result.stats.states_visited == 1

    def test_determinism_including_trace(self, sample_formula):
        level = compile_3sat(sample_formula)
        a = solve(level)
        b = solve(level)
        assert a.trace == b.trace

    def test_state_limit(self, sample_formula):
        level = compile_3sat(sample_formula)
        result = solve(level, max_states=10)
        assert isinstance(result, LimitExceeded)

    def test_time_limit(self, sample_formula):
        level = compile_3sat(sample_formula)
        result = solve(level, max_time=0.0)
        assert isinstance(result, (LimitExceeded, Solvable))

    def test_stats_sane(self, minimal_level):
        result = solve(minimal_level)
        s = result.stats
        assert s.states_visited >= s.states_expanded >= 0
        assert s.frontier_peak >= 1

    def test_successor_lists_repeat_exactly(self):
        # A level of tests/test_search_pins.py, solved with and without its
        # move records already built.
        level = compile_3sat(gen_random_3cnf(4, 4, seed=400))
        sim_context.cache_clear()
        first, second = solve(level).stats, solve(level).stats
        assert 0 < first.successor_lists == second.successor_lists <= first.states_expanded

    def test_trace_takes_the_first_mask_that_reaches_the_child(self):
        # From the spawn, JUMP 1 1 and DASH E both rest in the button cell
        # with the door open, but the dash's mask sets the door bit (its
        # button opens the door) and the jump's keeps it.  The search
        # visits the child by the jump, the first in canonical order.
        level = level_from_art("""
#######
#..F###
#SB##.#
#######
""", [Button((2, 1), 0, OPEN), Door(0, ((5, 1),), True)])
        start = initial_state(level)
        assert step(level, start, jump(1, 1)) == step(level, start, dash("E"))
        assert solve(level).trace == (jump(1, 1), jump(1, 1))


class TestReachablePorts:
    def test_unknown_port(self, minimal_level):
        with pytest.raises(LevelError, match="unknown port"):
            reachable_ports(minimal_level, "nowhere")

    def test_compiled_level_ports_exposed(self, sample_formula):
        level = compile_3sat(sample_formula)
        names = {p.name for p in level.ports}
        assert "x1.entry" in names and "x3.exit_false" in names
        assert "passage.flag_port" in names
        reached = reachable_ports(level, "x1.entry")
        assert {"x1.exit_true", "x1.exit_false"} <= reached


class TestSolveBetween:
    def test_same_cell(self, minimal_level):
        state = initial_state(minimal_level)
        trace, end = solve_between(minimal_level, state, state.position)
        assert trace == () and end == state

    def test_unreachable_goal(self):
        level = level_from_art("#####\n#S#F#\n#####")
        assert solve_between(level, initial_state(level), (3, 1)) is None


class TestPruningSoundness:
    def test_visited_set_matches_unpruned_enumeration(self):
        # On a small level, the BFS visited set must contain every state an
        # unpruned bounded DFS can reach: the (position, dash, doors,
        # platforms) key loses no information.
        level = level_from_art(
            "#######\n#..=..#\n#S...F#\n#######",
            entities=[__import__("satplat.level", fromlist=["UnstablePlatform"])
                      .UnstablePlatform((3, 2))],
            validate=False,
        )
        ctx = sim_context(level)
        s0 = initial_state(level)
        found = _search(ctx, s0, None, 10**6, None)

        moves = canonical_moves(level.physics)
        seen = set()

        def dfs(state, depth):
            seen.add(state)
            if depth == 0:
                return
            for move in moves:
                out = step(level, state, move)
                if isinstance(out, GameState):
                    dfs(out, depth - 1)

        dfs(s0, 5)
        assert seen <= set(map(found.keys.state, found.parents))


# --- one start state: solve, replay and step agree ---------------------------

# Spawn on an unstable platform above the flag: a start that broke the
# platform would allow DASH S, which replay rejects.
PLATFORM_SPAWN = ("#####\n#S..#\n#=..#\n#F..#\n#####",
                  (UnstablePlatform((1, 2)),))
# Spawn over an initially open door above the flag: a start that fell
# through it would be solved by the empty trace.
OPEN_DOOR_SPAWN = ("#####\n#S..#\n#D..#\n#F..#\n#####",
                   (Door(0, ((1, 2),), True),))


class TestStartState:
    def test_platform_spawn_trace_replays(self):
        level = level_from_art(*PLATFORM_SPAWN)
        result = solve(level)
        assert isinstance(result, Solvable)
        assert result.trace == (walk(1), walk(-1))
        assert replay(level, result.trace)

    def test_open_door_spawn_rejected(self):
        with pytest.raises(LevelError, match="spawn-support"):
            level_from_art(*OPEN_DOOR_SPAWN)
        doc = save_level(level_from_art(*OPEN_DOOR_SPAWN, validate=False))
        with pytest.raises(LevelError, match="spawn-support"):
            load_level(doc)


# A closed door with no button between the spawn and the flag.
SHUT_DOOR = ("#######\n#S.D.F#\n#######", (Door(0, ((3, 1),)),))


class TestStateGate:
    """`step`, `legal_moves` and the search all check a state passed in
    the same way: on the level, a dash of 0 or 1, no negative bits."""

    @pytest.mark.parametrize("bad", [
        {"has_dash": 2},  # would overflow the key's dash bit into door 0
        {"has_dash": -1},
        {"door_open": -1},
        {"platform_broken": -2},
        {"x": 10},  # width + 3: a key of another cell
        {"x": -1},
        {"y": 3},
        {"has_dash": 1.0},  # equal to 1, but not an int
        {"x": 1.5},
        {"door_open": 0.5},
        {"platform_broken": 1.0},
    ])
    def test_a_bad_state_is_refused_everywhere(self, bad):
        level = level_from_art(*SHUT_DOOR)
        state = GameState(1, 1, 1, 0, 0)._replace(**bad)
        for call in (lambda: step(level, state, walk(1)),
                     lambda: legal_moves(level, state),
                     lambda: solve_between(level, state, (5, 1)),
                     lambda: reachable_positions(level, state)):
            with pytest.raises(ValueError):
                call()

    def test_a_good_state_is_searched(self):
        level = level_from_art(*SHUT_DOOR)
        for has_dash in (1, True):
            state = GameState(1, 1, has_dash, 0, 0)
            assert solve_between(level, state, (5, 1)) is None
            assert reachable_positions(level, state) == {(1, 1), (2, 1)}

    def test_a_start_off_the_sample_level_is_refused(self, sample_formula):
        level = compile_3sat(sample_formula)
        state = initial_state(level)._replace(x=level.width + 3)
        with pytest.raises(ValueError, match="off the level"):
            solve_between(level, state, level.flag.cell)
        with pytest.raises(ValueError, match="off the level"):
            reachable_positions(level, state)


class TestLimitIsReported:
    """The search helpers answer only from a complete search: a search
    cut off at `DEFAULT_MAX_STATES` raises, it does not answer."""

    def test_helpers_raise_at_the_limit(self, sample_formula, monkeypatch):
        level = compile_3sat(sample_formula)
        monkeypatch.setattr(solver, "DEFAULT_MAX_STATES", 50)
        with pytest.raises(RuntimeError, match="limit of 50 states"):
            reachable_positions(level, initial_state(level))
        with pytest.raises(RuntimeError, match="limit of 50 states"):
            solve_between(level, initial_state(level), level.flag.cell)

    def test_contract_check_raises_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(solver, "DEFAULT_MAX_STATES", 3)
        with pytest.raises(RuntimeError, match="limit of 3 states"):
            list(check_contract(build_elevator()))


def naive_search(level, start=None):
    """Breadth-first search over the public `step` from `start` (by
    default `initial_state`), run until no new state appears: (the
    lexicographically least shortest trace, by canonical move index, to
    a state on the flag cell, or None if none is reached; every state
    reached).

    The trace comes from the layers alone, with no parent links: a
    backward pass marks, layer by layer from the flag-cell states of the
    first layer that has one, the states with a move into the next
    layer's marked states; a forward pass then takes, from the start,
    the least move into a marked state at every step."""
    moves = canonical_moves(level.physics)
    layers = [{start or initial_state(level)}]
    seen = set(layers[0])
    flag_depth = None
    while layers[-1]:
        if flag_depth is None and any(s.position == level.flag.cell for s in layers[-1]):
            flag_depth = len(layers) - 1
        following = set()
        for state in layers[-1]:
            for move in moves:
                out = step(level, state, move)
                if isinstance(out, GameState) and out not in seen:
                    seen.add(out)
                    following.add(out)
        layers.append(following)
    if flag_depth is None:
        return None, seen
    marked = [{s for s in layers[flag_depth] if s.position == level.flag.cell}]
    for layer in reversed(layers[:flag_depth]):
        marked.append({s for s in layer if any(step(level, s, m) in marked[-1] for m in moves)})
    marked.reverse()
    [state], trace = marked[0], []
    for following in marked[1:]:
        move = next(m for m in moves if step(level, state, m) in following)
        trace.append(move)
        state = step(level, state, move)
    return tuple(trace), seen


@st.composite
def small_levels(draw):
    """(art, entities) for a 5-7 x 4-6 level with at most one
    platform, door, button and space block.  The spawn stands on a
    platform, a door or solid ground (made solid if left empty)."""
    width, height = draw(st.integers(5, 7)), draw(st.integers(4, 6))
    free = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]

    def take(cells):
        cell = draw(st.sampled_from(cells))
        free.remove(cell)
        return cell

    spawn, flag = take(free), take(free)
    below = (spawn[0], spawn[1] - 1)
    ground = draw(st.sampled_from(["solid", "platform", "door"]))
    entities = []
    if ground == "platform" and below in free:
        entities.append(UnstablePlatform(take([below])))
    elif draw(st.booleans()) and free:
        entities.append(UnstablePlatform(take(free)))
    door = None
    if ground == "door" and below in free:
        door = take([below])
    elif draw(st.booleans()) and free:
        door = take(free)
    if door is not None:
        cells = [door]
        for _ in range(draw(st.integers(0, 2))):
            above = (door[0], cells[-1][1] + 1)
            if above not in free:
                break
            cells.append(take([above]))
        entities.append(Door(0, tuple(cells), draw(st.booleans())))
    if door is not None and draw(st.booleans()) and free:
        action = draw(st.sampled_from([OPEN, CLOSE]))
        entities.append(Button(take(free), 0, action))
    if draw(st.booleans()) and free:
        x, y = take(free)
        x1, y1 = x, y
        if draw(st.booleans()) and (x + 1, y) in free:
            x1 = take([(x + 1, y)])[0]
        entities.append(SpaceBlock((x, y, x1, y1)))
    solid = draw(st.sets(st.sampled_from(free), max_size=len(free) // 2)) if free else set()
    if below in free:
        solid.add(below)
    rows = []
    for y in reversed(range(height)):
        row = ""
        for x in range(width):
            if (x, y) == spawn:
                row += "S"
            elif (x, y) == flag:
                row += "F"
            elif x in (0, width - 1) or y in (0, height - 1) or (x, y) in solid:
                row += "#"
            else:
                row += "."
        rows.append(row)
    return "\n".join(rows), tuple(entities)


@st.composite
def loadable_levels(draw):
    """A level `load_level` accepts, drawn wider than `small_levels`: a
    grid up to 9x8; up to 3 doors, some taller than one cell; up to 3
    platforms and 2 space blocks; up to 3 buttons of either action, on
    any door; up to 2 ports; and random physics (J 1-5, D 2-6, R 1-4).
    The level is round-tripped through `save_level` and `load_level`."""
    width, height = draw(st.integers(5, 9)), draw(st.integers(4, 8))
    free = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]

    def take(cells):
        cell = draw(st.sampled_from(cells))
        free.remove(cell)
        return cell

    def some(most):
        """Up to `most` indices, while free cells last."""
        for i in range(draw(st.integers(0, most))):
            if not free:
                return
            yield i

    spawn, flag = take(free), take(free)
    below = (spawn[0], spawn[1] - 1)
    ground = draw(st.sampled_from(["solid", "platform", "door"]))
    platforms = [take([below])] if ground == "platform" and below in free else []
    platforms += [take(free) for _ in some(3 - len(platforms))]
    doors = [[take([below])]] if ground == "door" and below in free else []
    doors += [[take(free)] for _ in some(3 - len(doors))]
    for cells in doors:
        for _ in range(draw(st.integers(0, 2))):
            above = (cells[0][0], cells[-1][1] + 1)
            if above not in free:
                break
            cells.append(take([above]))
    entities = [UnstablePlatform(cell) for cell in platforms]
    # the door under the spawn starts closed: the start is at rest
    entities += [Door(i, tuple(cells), below not in cells and draw(st.booleans()))
                 for i, cells in enumerate(doors)]
    for i in some(2):
        x, y = x1, y1 = take(free)
        grow = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        if grow != (0, 0) and (x + grow[0], y + grow[1]) in free:
            x1, y1 = take([(x + grow[0], y + grow[1])])
        entities.append(SpaceBlock((x, y, x1, y1)))
    for _ in some(3 if doors else 0):
        entities.append(Button(take(free), draw(st.integers(0, len(doors) - 1)),
                               draw(st.sampled_from([OPEN, CLOSE]))))
    ports = tuple(Port(f"p{i}", take(free)) for i in some(2))
    solid = draw(st.sets(st.sampled_from(free), max_size=len(free) // 3)) if free else set()
    if below in free:
        solid.add(below)
    art = "\n".join("".join("S" if (x, y) == spawn else "F" if (x, y) == flag
                            else "#" if x in (0, width - 1) or y in (0, height - 1)
                            or (x, y) in solid else "." for x in range(width))
                    for y in reversed(range(height)))
    level = level_from_art(art, entities, validate=False)
    physics = PhysicsParams(draw(st.integers(1, min(5, height))), draw(st.integers(2, 6)),
                            draw(st.integers(1, 4)))
    try:
        return load_level(save_level(level._replace(physics=physics, ports=ports)))
    except LevelError:
        reject()


@given(loadable_levels())
@settings(max_examples=300, deadline=None)
def test_solve_and_search_match_naive_search_on_loadable_levels(level):
    # The verdict and the trace are `naive_search`'s, the trace replays,
    # and the exhaustive search reaches exactly the states `step` does.
    result = solve(level)
    trace, reached = naive_search(level)
    assert isinstance(result, Solvable) == (trace is not None)
    if trace is not None:
        assert result.trace == trace
        assert replay(level, result.trace)
    found = _search(sim_context(level), initial_state(level), None, DEFAULT_MAX_STATES, None)
    assert set(map(found.keys.state, found.parents)) == reached


@given(small_levels())
@example(PLATFORM_SPAWN)
@example(OPEN_DOOR_SPAWN)
@settings(max_examples=150, deadline=None)
def test_solve_matches_naive_search_over_step(spec):
    try:
        level = level_from_art(*spec)
    except LevelError:
        reject()
    assert_solve_matches_naive_search(level)


@pytest.mark.parametrize("levels", [np_levels, qbf_levels], ids=["np", "qbf"])
def test_solve_trace_is_the_least_shortest_trace_on_pinned_levels(levels):
    for level in levels():
        assert_solve_matches_naive_search(level)


def assert_solve_matches_naive_search(level):
    """`solve` finds a trace exactly when `naive_search` does, and it is
    the same trace: the lexicographically least shortest one."""
    result = solve(level)
    trace, _ = naive_search(level)
    assert isinstance(result, Solvable) == (trace is not None)
    if trace is not None:
        assert replay(level, result.trace)
        assert result.trace == trace


@given(small_levels(), st.integers(0, 7), st.integers(0, 7))
@example(PLATFORM_SPAWN, 0, 0)
@settings(max_examples=150, deadline=None)
def test_search_visits_exactly_the_states_step_reaches(spec, extra_doors, plats):
    # Both directions: the solver's successor generation neither invents
    # nor loses a state that `step` reaches, and a witness replays only
    # through states the solver visited.  A start may also carry door bits
    # above the level's own and any platform bits, as `solve_between` and
    # `reachable_positions` can pass them; the search carries them on as
    # `step` does.
    try:
        level = level_from_art(*spec)
    except LevelError:
        reject()
    ctx = sim_context(level)
    initial = initial_state(level)
    visited = {}
    for start in (initial, initial._replace(
            door_open=initial.door_open | extra_doors << ctx.door_bits, platform_broken=plats)):
        found = _search(ctx, start, None, DEFAULT_MAX_STATES, None)
        visited[start] = set(map(found.keys.state, found.parents))
        _, reached = naive_search(level, start)
        assert visited[start] == reached
    result = solve(level)
    if isinstance(result, Solvable):
        assert set(replay_states(level, result.trace)) <= visited[initial]


def test_search_memory_per_visited_state():
    # Peak traced allocation of `solve` per visited state, the context
    # built beforehand and its move records built by the search, as the
    # benchmark's memory pass measures it: about 128 B on Python 3.11.
    # A fresh int per visited state, such as a packed parent link, adds
    # about 50 B and fails the bound.  A first solve in a process reads
    # about 30 B more than later ones, so an untraced solve of the same
    # level runs first, and the traced one gets a fresh context.  The
    # cyclic collector stays off from the first solve to the end of the
    # traced one: a collection between them (whenever earlier tests left
    # it due) empties the free lists of tuples, and the traced solve then
    # allocates the tuples it would otherwise reuse.
    level = compile_3sat(gen_random_3cnf(8, 8, seed=1))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        solve(level)
        sim_context.cache_clear()
        sim_context(level)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = solve(level)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    finally:
        if was_enabled:
            gc.enable()
    assert isinstance(result, Solvable)
    assert peak / result.stats.states_visited <= 140
