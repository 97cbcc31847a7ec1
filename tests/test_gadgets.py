import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satplat.gadgets import (
    ALL_GADGET_BUILDERS,
    StampError,
    build_elevator,
    build_exists_gadget,
    build_final_passage,
    build_forall_gadget,
    build_tunnel,
    build_variable_gadget,
    catalog,
    check_contract,
    contract_level,
    exists_width,
    forall_width,
    stamp_into,
)
from satplat.level import (
    CLOSE,
    EMPTY,
    NP,
    OPEN,
    PSPACE,
    Button,
    Door,
    Flag,
    LevelBuilder,
    LevelError,
    Spawn,
    UnstablePlatform,
)
from satplat import sim
from satplat.cli import main
from satplat.compiler import plan_3sat, plan_qbf
from satplat.formula import parse_dimacs, parse_qdimacs
from satplat.sim import BLOCKED, GameState, SimContext, jump, step
from satplat.solver import (
    DEFAULT_MAX_STATES,
    _search,
    reachable_ports,
    reachable_positions,
    solve_between,
)
from tests.conftest import SAMPLE_DIMACS


def probe_state(level, port_name, doors=0, plats=0):
    """A fresh probe at a port, as `reachable_ports` starts one."""
    return GameState(*level.port(port_name).cell, 1, doors, plats)


@pytest.mark.parametrize("kind", sorted(ALL_GADGET_BUILDERS))
def test_declared_contract_holds(kind):
    bp = ALL_GADGET_BUILDERS[kind]()
    results = list(check_contract(bp))
    assert results, f"{kind} has no contract"
    failed = [a for a, ok in results if not ok]
    assert not failed, f"{kind}: {failed}"


class TestVariableGadget:
    def test_committed_exit_cannot_be_undone(self):
        # walk in, break the true-side platform, fall through: the
        # reformed platform now blocks the way back up
        bp = build_variable_gadget()
        level = contract_level(bp)
        entry = probe_state(level, "entry")
        leg = solve_between(level, entry, level.port("exit_true").cell)
        assert leg is not None
        _, state = leg
        assert state.platform_broken == 0  # reformed behind the player
        assert step(level, state, jump(0, 2)) is BLOCKED
        assert step(level, state, jump(0, 3)) is BLOCKED

    def test_both_exits_reachable_fresh(self):
        bp = build_variable_gadget()
        level = contract_level(bp)
        reached = reachable_ports(level, "entry")
        assert {"exit_true", "exit_false"} <= reached

    @staticmethod
    def leaks(ctx, level):
        """Every state at an exit that an exhaustive search from the
        entry reaches, each with the cells among the other exit and the
        entry that it reaches in turn."""
        cells = {name: level.port(name).cell for name in ("entry", "exit_true", "exit_false")}
        exits = {cells[name]: name for name in ("exit_true", "exit_false")}
        found = _search(ctx, probe_state(level, "entry"), None, DEFAULT_MAX_STATES, None)
        leaks = {}
        for state in map(found.keys.state, found.parents):
            exit_ = exits.get(state.position)
            if exit_ is not None:
                after = _search(ctx, state, None, DEFAULT_MAX_STATES, None)
                reached = {after.keys.state(key).position for key in after.parents}
                leaks[state] = {n for n, cell in cells.items() if n != exit_ and cell in reached}
        return leaks

    def test_every_committed_state_stays_committed(self):
        # the contract's exit assertions start from a fresh probe; here
        # every state the entry reaches at an exit is checked
        level = contract_level(build_variable_gadget())
        leaks = self.leaks(SimContext(level), level)
        assert {s.position for s in leaks} == {level.port("exit_true").cell,
                                               level.port("exit_false").cell}
        assert not any(leaks.values()), leaks

    def test_commitment_rests_on_platform_reform(self, monkeypatch):
        # with a reform distance past the grid no broken platform comes
        # back: the test above then fails, as every state the entry
        # reaches at an exit reaches both the other exit and the entry
        near = sim._near_platforms
        monkeypatch.setattr(sim, "_near_platforms",
                            lambda w, h, plat_cells, reform: near(w, h, plat_cells, w + h))
        level = contract_level(build_variable_gadget())
        leaks = self.leaks(SimContext(level), level)
        assert len(leaks) == 4
        assert all(len(ports) == 2 for ports in leaks.values()), leaks


def walled_up_passage(k, c, s):
    """The k-clause passage with wall c's slot s solid and its door dropped."""
    bp = build_final_passage(k)
    x, y = 3 + 2 * c, 1 + s
    rows = list(bp.rows)
    rows[y] = rows[y][:x] + "#" + rows[y][x + 1:]
    return bp._replace(rows=tuple(rows),
                       doors=tuple(d for d in bp.doors if d.id != 3 * c + s))


class TestClauseGadget:
    # a clause is the one-wall final passage: its three doors OR together
    @pytest.mark.parametrize("mask", range(8))
    def test_or_semantics(self, mask):
        level = contract_level(build_final_passage(1))
        doors = {s: bool((mask >> s) & 1) for s in range(3)}
        reached = reachable_ports(level, "passage_in", doors)
        assert ("flag_port" in reached) == (mask != 0)


class TestFinalPassage:
    @pytest.mark.parametrize("k", [2, 3])
    def test_passable_exactly_when_every_clause_has_an_open_door(self, k):
        # every door mask, so adjacent walls meet in every combination
        level = contract_level(build_final_passage(k))
        for mask in range(1 << 3 * k):
            doors = {d: bool(mask >> d & 1) for d in range(3 * k)}
            satisfied = all(mask >> 3 * c & 0b111 for c in range(k))
            assert ("flag_port" in reachable_ports(level, "passage_in", doors)) == satisfied, \
                f"door mask {mask:0{3 * k}b}"

    @pytest.mark.parametrize("k, c, s", [(k, c, s) for k in (1, 2, 3)
                                         for c in range(k) for s in range(3)])
    def test_the_contract_catches_a_walled_up_slot(self, monkeypatch, capsys, k, c, s):
        faulty = walled_up_passage(k, c, s)
        assert not all(ok for _, ok in check_contract(faulty))
        monkeypatch.setattr("satplat.gadgets.build_final_passage", lambda num_clauses: faulty)
        assert main(["gadgets", "--check"]) == 1
        assert any(line.startswith("FAIL final_passage: ")
                   for line in capsys.readouterr().err.splitlines())


class TestTunnel:
    def test_traversal_presses_every_button(self):
        bp = build_tunnel(((4, OPEN), (9, OPEN)))
        assert bp.variant == NP
        level = contract_level(bp)
        start = probe_state(level, "tunnel_in")
        leg = solve_between(level, start, level.port("tunnel_out").cell)
        assert leg is not None
        _, state = leg
        assert (state.door_open >> 4) & 1 and (state.door_open >> 9) & 1

    def test_no_occurrences_is_a_plain_corridor(self):
        bp = build_tunnel(())
        assert not bp.buttons
        level = contract_level(bp)
        assert "tunnel_out" in reachable_ports(level, "tunnel_in")

    def test_empty_symbols_plain_corridor(self):
        # the crossing of an empty tunnel leaves every door as it was
        level = contract_level(build_tunnel(()))
        start = probe_state(level, "tunnel_in")
        leg = solve_between(level, start, level.port("tunnel_out").cell)
        assert leg is not None
        _, state = leg
        assert state.door_open == start.door_open

    def test_symbols_apply_in_order(self):
        bp = build_tunnel(((7, OPEN), (7, CLOSE)))
        assert bp.variant == PSPACE
        level = contract_level(bp)
        leg = solve_between(level, probe_state(level, "tunnel_in"),
                            level.port("tunnel_out").cell)
        _, state = leg
        assert not (state.door_open >> 7) & 1  # opened then closed

    def test_reversed_symbols_leave_door_open(self):
        bp = build_tunnel(((7, CLOSE), (7, OPEN)))
        level = contract_level(bp)
        leg = solve_between(level, probe_state(level, "tunnel_in"),
                            level.port("tunnel_out").cell)
        _, state = leg
        assert (state.door_open >> 7) & 1


class TestExistsGadget:
    def build(self):
        # variable drives doors 0 (true-open) and 1 (false-open); the
        # gadget's own valves are doors 2 and 3
        bp = build_exists_gadget(2, ((0, OPEN), (1, CLOSE)), ((1, OPEN), (0, CLOSE)))
        return contract_level(bp)

    def test_both_branches_open_fresh(self):
        level = self.build()
        positions = reachable_positions(level, probe_state(level, "q_in"))
        ground_lane_entry = (3, 2)
        upper_lane_entry = (3, 5)
        assert ground_lane_entry in positions
        assert upper_lane_entry in positions

    def test_commit_true_seals_false_branch_and_reentry(self):
        level = self.build()
        # drive the player through the ground (true) lane explicitly
        s = probe_state(level, "q_in")
        leg = solve_between(level, s, (9, 2))  # the true lane's exit stub
        assert leg is not None
        _, s = leg
        leg = solve_between(level, s, level.port("q_out").cell)
        assert leg is not None
        _, s = leg
        assert s.door_open & 1, "true-configuration door not set"
        assert not (s.door_open >> 1) & 1
        positions = reachable_positions(level, s)
        assert (3, 5) not in positions, "false lane reachable after commit"
        assert level.port("q_in").cell not in positions, "re-entry possible"

    def test_exit_states_never_mix_the_two_polarities(self):
        # Exhaustive over the reachable state space: at q_out the clause
        # doors are never open for both polarities at once (a player can
        # only hurt herself by leaving doors closed), and both honest
        # choices are realizable.
        from satplat.sim import sim_context

        level = self.build()
        ctx = sim_context(level)
        s = probe_state(level, "q_in")
        found = _search(ctx, s, None, DEFAULT_MAX_STATES, None)
        out_cell = level.port("q_out").cell
        configs = {doors & 0b11 for x, y, _, doors, _ in map(found.keys.state, found.parents)
                   if (x, y) == out_cell}
        assert 0b11 not in configs, "a polarity mix would break soundness"
        assert {0b01, 0b10} <= configs


class TestForallGadget:
    def build(self):
        bp = build_forall_gadget(2, ((0, OPEN), (1, CLOSE)), ((1, OPEN), (0, CLOSE)))
        return contract_level(bp)

    def test_full_protocol(self):
        level = self.build()
        ft, fx = 3, 4  # the gadget's own doors start at 2
        # forward pass: true configuration, flip gate armed
        leg = solve_between(level, probe_state(level, "q_in"), level.port("q_out").cell)
        assert leg is not None
        _, s1 = leg
        assert s1.door_open & 1 and not (s1.door_open >> 1) & 1
        assert (s1.door_open >> ft) & 1 and not (s1.door_open >> fx) & 1
        # mid-protocol: the outward exit is sealed
        assert solve_between(level, probe_state(level, "ret_in", doors=s1.door_open),
                             level.port("ret_out").cell) is None
        # first return: forced flip to the false configuration, rerouted
        leg = solve_between(level, probe_state(level, "ret_in", doors=s1.door_open),
                            level.port("reroute_out").cell)
        assert leg is not None
        _, s2 = leg
        assert (s2.door_open >> 1) & 1 and not s2.door_open & 1
        assert (s2.door_open >> fx) & 1 and not (s2.door_open >> ft) & 1
        # second return: exhausted, passes outward and resets the gates
        leg = solve_between(level, probe_state(level, "ret_in", doors=s2.door_open),
                            level.port("ret_out").cell)
        assert leg is not None
        _, s3 = leg
        assert not (s3.door_open >> ft) & 1 and not (s3.door_open >> fx) & 1


class TestStamp:
    def test_two_disjoint_chambers_keep_their_contracts(self):
        builder = LevelBuilder(30, 15)
        stamp_into(builder, build_variable_gadget(), (1, 1), prefix="a.")
        stamp_into(builder, build_variable_gadget(), (15, 1), prefix="b.")
        builder.add(Spawn((2, 7)))
        builder.add(Flag((16, 7)))
        level = builder.build()
        assert "a.exit_true" in reachable_ports(level, "a.entry")
        assert "b.exit_true" in reachable_ports(level, "b.entry")
        assert reachable_ports(level, "a.exit_true").isdisjoint({"a.entry", "a.exit_false",
                                                                 "b.entry"})

    def test_overlapping_stamp_rejected(self):
        builder = LevelBuilder(30, 15)
        stamp_into(builder, build_variable_gadget(), (1, 1))
        with pytest.raises(StampError, match="overlap"):
            stamp_into(builder, build_variable_gadget(), (5, 1))

    def test_overlap_names_the_first_carved_cell_in_row_major_order(self):
        builder = LevelBuilder(30, 15)
        for cell in ((9, 3), (14, 2), (4, 3), (7, 4), (8, 3)):
            builder.carve(*cell)
        with pytest.raises(StampError) as err:
            stamp_into(builder, build_variable_gadget(), (5, 2))
        assert str(err.value) == "variable at (5, 2) overlaps carved cell (8, 3)"

    def test_out_of_bounds_stamp_rejected(self):
        builder = LevelBuilder(8, 8)
        with pytest.raises(StampError, match="fit"):
            stamp_into(builder, build_variable_gadget(), (1, 1))

    def test_door_id_collision_rejected(self):
        builder = LevelBuilder(30, 15)
        stamp_into(builder, build_final_passage(1), (1, 1))
        stamp_into(builder, build_final_passage(1), (12, 1))
        builder.carve(13, 12)
        builder.carve(14, 12)
        builder.add(Spawn((13, 12)))
        builder.add(Flag((14, 12)))
        with pytest.raises(LevelError, match="unique-door-id"):
            builder.build()

    def test_stamp_keeps_the_blueprint_door_ids(self):
        builder = LevelBuilder(12, 10)
        builder.add(Spawn((5, 8)))
        builder.add(Flag((6, 8)))
        builder.carve(5, 8)
        builder.carve(6, 8)
        builder.carve(8, 8)
        builder.add(Door(7, ((8, 8),)))  # a door already there shifts no id
        stamp_into(builder, build_final_passage(1), (1, 1))
        level = builder.build()
        assert sorted(e.id for e in level.entities if isinstance(e, Door)) == [0, 1, 2, 7]
        assert {p.name for p in level.ports} == {"passage_in", "flag_port"}

    @pytest.mark.parametrize("build, origin, cell", [
        (build_tunnel, (0, 3), (0, 4)),  # the tunnel's corridor runs edge to edge
        (build_tunnel, (26, 3), (27, 4)),
        (build_elevator, (3, 2), (4, 11)),  # its top row holds the jump headroom
    ])
    def test_a_patch_opening_the_boundary_is_refused_as_carve_refuses_it(self, build, origin,
                                                                          cell):
        builder = LevelBuilder(28, 12)
        with pytest.raises(LevelError) as err:
            stamp_into(builder, build(), origin)
        assert str(err.value) == f"cannot carve boundary or out-of-bounds cell {cell}"

    def test_contract_translation_invariance(self):
        # the same gadget stamped at a different origin keeps its verdicts
        bp = build_variable_gadget()
        for origin in ((1, 1), (3, 4)):
            builder = LevelBuilder(bp.width + 8, bp.height + 8)
            stamp_into(builder, bp, origin)
            builder.add(Spawn((origin[0] + 1, origin[1] + 6)))
            builder.add(Flag((origin[0] + 1, origin[1] + 1)))
            level = builder.build()
            reached = reachable_ports(level, "entry")
            assert {"exit_true", "exit_false"} <= reached
            assert "entry" not in reachable_ports(level, "exit_true")


def _sized_blueprints():
    """Every catalog entry, and the resizable gadgets over a range of sizes."""
    for kind, builder in ALL_GADGET_BUILDERS.items():
        yield kind, builder()
    symbols = [(0, OPEN), (3, CLOSE), (1, OPEN), (2, OPEN), (4, CLOSE)]
    for m in range(len(symbols) + 1):
        yield f"tunnel-open-{m}", build_tunnel([(d, OPEN) for d, _ in symbols[:m]])
        yield f"tunnel-mixed-{m}", build_tunnel(symbols[:m])
        yield f"exists-{m}", build_exists_gadget(5, symbols[:m], symbols[m:])
        yield f"forall-{m}", build_forall_gadget(5, symbols[m:], symbols[:m])
    for k in range(5):
        yield f"final_passage-{k}", build_final_passage(k)


# SHA-256 over every blueprint's kind, rows, records, ports and contract
# (not its notes), for the catalog and the sized gadgets in the order
# `_sized_blueprints` yields them.  The elevator has one size, lift 7,
# which is its catalog entry.
BLUEPRINT_DIGEST = "997988ffd2f0d6243dd177954bc5125796691c5899cdf12ae7aa363fa9d83be8"


def test_blueprints_are_pinned():
    digest = hashlib.sha256()
    for name, bp in _sized_blueprints():
        if name.startswith("elevator-"):
            continue
        contract = tuple((a.from_port, a.to_port, a.reachable, a.doors) for a in bp.contract)
        digest.update(repr((bp.kind, bp.rows, bp.doors, bp.platforms, bp.blocks, bp.buttons,
                            bp.ports, contract)).encode())
    assert digest.hexdigest() == BLUEPRINT_DIGEST


@pytest.mark.parametrize("bp", [pytest.param(bp, id=name) for name, bp in _sized_blueprints()])
def test_size_and_variant_are_those_of_the_patch(bp):
    assert len(bp.rows) == bp.height
    assert all(len(row) == bp.width for row in bp.rows)
    closes = any(b.action == CLOSE for b in bp.buttons)
    assert (bp.variant == PSPACE) == closes
    # stamped, the patch's own entities become the level's, and the
    # level validates under exactly that variant
    level = contract_level(bp)
    assert level.variant == bp.variant
    named = {b.door_id for b in bp.buttons} | {d.id for d in bp.doors}
    assert sorted(e.id for e in level.entities if isinstance(e, Door)) == sorted(named)
    assert sum(isinstance(e, UnstablePlatform) for e in level.entities) == len(bp.platforms)
    assert any(isinstance(e, Button) and e.action == CLOSE for e in level.entities) == closes


@pytest.mark.parametrize("first_door", [2, 9])
@pytest.mark.parametrize("build", [build_exists_gadget, build_forall_gadget])
def test_quantifier_contract_holds_at_any_first_door(build, first_door):
    bp = build(first_door, ((0, OPEN), (1, CLOSE)), ((1, OPEN), (0, CLOSE)))
    assert min(d.id for d in bp.doors) == first_door
    failed = [a for a, ok in check_contract(bp) if not ok]
    assert not failed, failed


def test_the_catalog_holds_only_placed_kinds():
    qbf = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n")
    placed = {p.blueprint.kind for plan in (plan_3sat(parse_dimacs(SAMPLE_DIMACS)), plan_qbf(qbf))
              for p in plan.placements}
    assert set(ALL_GADGET_BUILDERS) == placed


def test_catalog_lists_every_kind():
    text = catalog()
    for kind in ALL_GADGET_BUILDERS:
        assert kind in text
    assert "REACHABLE" in text and "UNREACHABLE" in text


@pytest.mark.parametrize("m", range(6))
def test_quantifier_widths_are_known_before_the_gadget_is_built(m):
    symbols = [(0, OPEN), (3, CLOSE), (1, OPEN), (2, OPEN), (4, CLOSE)]
    for true_syms, false_syms in ((symbols[:m], symbols[m:]), (symbols[m:], symbols[:m])):
        assert exists_width(true_syms, false_syms) == \
            build_exists_gadget(5, true_syms, false_syms).width
        assert forall_width(true_syms, false_syms) == \
            build_forall_gadget(5, true_syms, false_syms).width


def stamp_cell_by_cell(builder, bp, origin):
    """The tiles of a stamp as one `carve` per empty cell of the patch."""
    for y, row in enumerate(bp.rows, start=origin[1]):
        for x, tile in enumerate(row, start=origin[0]):
            if tile == EMPTY:
                builder.carve(x, y)


def tiles_or_error(stamp, bp, width, height, origin, carved):
    builder = LevelBuilder(width, height)
    for cell in carved:
        builder.carve(*cell)
    try:
        stamp(builder, bp, origin)
    except LevelError as exc:
        return str(exc)
    return builder.grid


@st.composite
def stamps(draw):
    """A catalog blueprint at an origin where it fits a grid at most two
    cells wider and taller, so that it often reaches the boundary, and
    carved cells that miss it."""
    bp = ALL_GADGET_BUILDERS[draw(st.sampled_from(sorted(ALL_GADGET_BUILDERS)))]()
    width, height = bp.width + draw(st.integers(0, 2)), bp.height + draw(st.integers(0, 2))
    ox, oy = draw(st.integers(0, width - bp.width)), draw(st.integers(0, height - bp.height))
    outside = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)
               if not (ox <= x < ox + bp.width and oy <= y < oy + bp.height)]
    carved = draw(st.lists(st.sampled_from(outside), max_size=4)) if outside else []
    return bp, width, height, (ox, oy), carved


@given(stamps())
@settings(max_examples=200, deadline=None)
def test_stamped_rows_match_carving_cell_by_cell(case):
    bp, width, height, origin, carved = case
    assert tiles_or_error(stamp_into, bp, width, height, origin, carved) == \
        tiles_or_error(stamp_cell_by_cell, bp, width, height, origin, carved)
