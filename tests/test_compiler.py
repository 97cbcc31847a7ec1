import time
import tracemalloc

import pytest

from satplat import compiler
from satplat.compiler import (
    MAX_GRID_CELLS,
    CompileError,
    LayoutPlan,
    Wire,
    compile_3sat,
    compile_qbf,
    detect_crossings,
    plan_3sat,
    plan_qbf,
    plan_report,
    route_and_place,
    witness_trace,
)
from satplat.formula import (
    CnfFormula,
    QbfFormula,
    Quantifier,
    gen_random_3cnf,
    parse_dimacs,
    parse_qdimacs,
    qbf_oracle,
    sat_oracle,
)
from satplat.level import (
    NP,
    PSPACE,
    Button,
    Door,
    LevelError,
    UnstablePlatform,
    save_level,
    validate_level,
)
from satplat.sim import initial_state, replay
from satplat.solver import Solvable, Unsolvable, reachable_positions, solve, solve_between
from satplat.verify import enumerate_cnf, enumerate_qbf, gen_random_qbf

QUANTIFIERS = {"e": Quantifier.EXISTS, "a": Quantifier.FORALL}


class TestCompile3Sat:
    def test_sample_formula_structure(self, sample_formula):
        level = compile_3sat(sample_formula)
        assert validate_level(level) == []
        assert sum(isinstance(e, UnstablePlatform) for e in level.entities) == 6  # 2 per variable chamber
        assert sum(isinstance(e, Door) for e in level.entities) == 6  # 3 per clause wall
        assert len([p for p in level.ports if p.name.endswith(".entry")]) == 3
        # clause walls live in the final passage
        assert len([p for p in level.ports if p.name.startswith("passage.")]) == 2

    def test_initial_state_all_clause_doors_closed(self, sample_formula):
        level = compile_3sat(sample_formula)
        assert initial_state(level).door_open == 0

    def test_spawn_has_legal_moves(self, sample_formula):
        from satplat.sim import legal_moves

        level = compile_3sat(sample_formula)
        assert len(legal_moves(level, initial_state(level))) >= 1

    def test_tunnel_button_counts_match_occurrences(self, sample_formula):
        # x1 occurs once positively, once negatively; x2 twice positively
        # and never negatively; x3 once each
        level = compile_3sat(sample_formula)
        buttons = [e for e in level.entities if isinstance(e, Button)]
        by_door = {}
        for b in buttons:
            by_door.setdefault(b.door_id, 0)
            by_door[b.door_id] += 1
        assert len(buttons) == 6  # one per literal occurrence
        assert set(by_door) == {0, 1, 2, 3, 4, 5}

    def test_empty_formula_trivially_solvable(self):
        level = compile_3sat(parse_dimacs("p cnf 0 0\n"))
        assert validate_level(level) == []
        assert isinstance(solve(level), Solvable)

    def test_contradiction_unsolvable(self):
        level = compile_3sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0"))
        assert sat_oracle(parse_dimacs("p cnf 1 2\n1 0\n-1 0")) is None
        assert isinstance(solve(level), Unsolvable)

    def test_deterministic_documents(self, sample_formula):
        a = save_level(compile_3sat(sample_formula))
        b = save_level(compile_3sat(sample_formula))
        assert a == b

    @pytest.mark.parametrize("n", [9, 16, 32, 64])
    def test_compiles_beyond_small_sizes(self, n):
        level = compile_3sat(gen_random_3cnf(n, n, n))
        assert validate_level(level) == []
        assert sum(isinstance(e, UnstablePlatform) for e in level.entities) == 2 * n
        assert sum(isinstance(e, Door) for e in level.entities) == 3 * n

    def test_grid_bound_refused_before_the_grid_is_allocated(self, monkeypatch):
        # n=k=132 needs 2646 rows; even with empty tunnels its plan is
        # over the bound, so it is refused from the counts before any
        # tunnel is built.
        formula = gen_random_3cnf(132, 132, 0)
        built = []
        build = compiler.build_tunnel
        monkeypatch.setattr(compiler, "build_tunnel", lambda syms: built.append(syms) or build(syms))
        monkeypatch.setattr(compiler, "LevelBuilder", None)  # must not be reached
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CompileError, match=r"grid \d+x2646 has \d+ cells, over the bound "
                                                   f"of {MAX_GRID_CELLS}"):
                compile_3sat(formula)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < MAX_GRID_CELLS // 4  # the 1-byte-per-cell coverage grid was never made
        assert built == []
        oversized = LayoutPlan(MAX_GRID_CELLS + 1, 1)
        with pytest.raises(CompileError, match=f"{MAX_GRID_CELLS + 1} cells"):
            plan_report(oversized)

    def test_seed_one_compiles_up_to_n_k_123(self):
        # the grid check that routing runs: n=k=123 is 1678x2466 cells,
        # n=k=124 is 1691x2486, over the bound
        plan_report(plan_3sat(gen_random_3cnf(123, 123, 1)))
        with pytest.raises(CompileError, match=r"grid 1691x2486 has \d+ cells, over the bound"):
            plan_report(plan_3sat(gen_random_3cnf(124, 124, 1)))

    @pytest.mark.parametrize("n, k", [(124, 124), (131, 131)])
    def test_no_plan_over_the_bound_is_returned(self, n, k):
        # the final passage is checked before it is built
        with pytest.raises(CompileError, match=r"over the bound"):
            plan_3sat(gen_random_3cnf(n, k, 1))

    @pytest.mark.parametrize("n, k, seed", [(0, 0, 0), (1, 0, 0), (1, 3, 1), (2, 9, 2),
                                            (4, 4, 3), (9, 2, 4), (98, 98, 1),
                                            (123, 123, 1)])
    def test_the_size_check_refuses_only_what_the_plan_refuses(self, monkeypatch, n, k, seed):
        # a lower bound on the plan's size: a grid the plan fits passes
        plan = plan_3sat(gen_random_3cnf(n, k, seed))
        monkeypatch.setattr(compiler, "MAX_GRID_CELLS", plan.width * plan.height)
        compiler.check_size(n, k, NP)
        # and it is exact when every tunnel is empty
        plan = plan_3sat(CnfFormula(n, ()))
        cells = plan.width * plan.height
        monkeypatch.setattr(compiler, "MAX_GRID_CELLS", cells - 1)
        with pytest.raises(CompileError) as err:
            compiler.check_size(n, 0, NP)
        assert str(err.value) == f"grid {plan.width}x{plan.height} has {cells} cells, " \
                                 f"over the bound of {cells - 1}"

    def test_area_polynomial_proxy(self):
        # frozen constant: grid area <= 1200 * (n + k)^2 for n + k >= 1
        sizes = [(1 + seed % 4, seed % 5) for seed in range(12)]
        sizes += [(9, 9), (16, 16), (32, 32), (32, 1), (1, 32)]
        worst = 0.0
        for seed, (n, k) in enumerate(sizes):
            f = gen_random_3cnf(n, k, seed)
            level = compile_3sat(f)
            ratio = (level.width * level.height) / (n + k) ** 2
            worst = max(worst, ratio)
        assert worst <= 1200

    def test_witness_trace_follows_assignment(self, sample_formula):
        level = compile_3sat(sample_formula)
        trace = witness_trace(level, {1: True, 2: False, 3: True}, 3)
        assert trace is not None
        assert replay(level, trace)

    def test_witness_trace_fails_for_falsifying_assignment(self, sample_formula):
        level = compile_3sat(sample_formula)
        # x1=1, x2=0, x3=0 falsifies the second clause
        assert witness_trace(level, {1: True, 2: False, 3: False}, 3) is None

    def test_oracle_witness_always_replays(self):
        # completeness, assignment-guided: the oracle's own model drives a
        # replayable trace on every satisfiable formula in a seeded sweep
        import satplat.formula as fm

        checked = 0
        for seed in range(15):
            f = fm.gen_random_3cnf(1 + seed % 4, seed % 5, 300 + seed)
            model = fm.sat_oracle(f)
            if model is None:
                continue
            level = compile_3sat(f)
            trace = witness_trace(level, model, f.num_variables)
            assert trace is not None and replay(level, trace)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (4, 3), (7, 1), (7, 2)])
    def test_placed_chambers_keep_their_commitment(self, n, seed):
        # the isolated chamber's contract, checked in the placed level:
        # from the state the search reaches at one exit, neither the other
        # exit nor the entry is reachable
        level = compile_3sat(gen_random_3cnf(n, n, seed))
        start = initial_state(level)
        for i in range(1, n + 1):
            entry = level.port(f"x{i}.entry").cell
            for exit_, other in (("exit_true", "exit_false"), ("exit_false", "exit_true")):
                leg = solve_between(level, start, level.port(f"x{i}.{exit_}").cell)
                assert leg is not None
                reached = reachable_positions(level, leg[1])
                assert level.port(f"x{i}.{other}").cell not in reached, (i, exit_)
                assert entry not in reached, (i, exit_)


class TestDerivedVariant:
    """A level's variant is PSPACE exactly when some button closes a
    door: the compilers' levels show it without declaring it."""

    def test_every_compiled_cnf_is_an_np_level(self):
        formulas = [*enumerate_cnf(2, 2), *(gen_random_3cnf(4, 4, seed) for seed in range(50))]
        assert len(formulas) == 247 + 50  # criterion 1's corpus and 50 random
        assert {compile_3sat(f).variant for f in formulas} == {NP}

    def test_every_compiled_qbf_with_a_variable_is_a_pspace_level(self):
        qbfs = [q for q in enumerate_qbf(2, 2) if q.prefix]
        assert {compile_qbf(q).variant for q in qbfs} == {PSPACE}

    def test_the_zero_variable_qbf_is_an_np_level_decided_as_the_oracle_does(self):
        qbf = parse_qdimacs("p cnf 0 0\n")
        level = compile_qbf(qbf)
        assert level.variant == NP
        assert qbf_oracle(qbf) is True
        assert isinstance(solve(level), Solvable)


class TestPlanAndRouting:
    def test_one_chamber_per_variable(self, sample_formula):
        plan = plan_3sat(sample_formula)
        route_and_place(plan)
        # the chamber is built once per plan
        placed = [p.blueprint for p in plan.placements if p.blueprint.kind == "variable"]
        assert len(placed) == 3 and all(bp is placed[0] for bp in placed)

    def test_plan_report_lists_placements_and_wires(self, sample_formula):
        plan = plan_3sat(sample_formula)
        route_and_place(plan)
        report = plan_report(plan)
        assert "wires 8" in report and "carved cells 116" in report
        assert "variable" in report and "tunnel" in report

    @pytest.mark.parametrize("n, k, seed", [(3, 2, 0), (7, 7, 1), (9, 20, 2)])
    def test_strips_are_as_narrow_as_their_gadgets(self, n, k, seed):
        # the true tunnel starts at the foot of the true drop shaft, and
        # the false drop shaft is the column just east of the chamber
        plan = plan_3sat(gen_random_3cnf(n, k, seed))
        level = route_and_place(plan)
        wires = {w.name: w.points for w in plan.wires}
        for i in range(1, n + 1):
            chamber = next(p for p in plan.placements if p.prefix == f"x{i}.")
            cx, cy = chamber.origin
            _, (drop_x, _), (foot_x, foot_y), _ = wires[f"x{i}.true"]
            assert drop_x == foot_x == cx - 2
            assert level.port(f"x{i}.true.tunnel_in").cell == (foot_x + 1, foot_y)
            _, (drop_x, top_y), (foot_x, foot_y), *_ = wires[f"x{i}.false"]
            assert drop_x == foot_x == cx + chamber.blueprint.width and top_y == cy + 1
            assert level.port(f"x{i}.false.tunnel_in").cell == (foot_x + 1, foot_y)

    def test_deterministic_plans(self, sample_formula):
        assert plan_3sat(sample_formula) == plan_3sat(sample_formula)

    def test_unrouted_plan_reports_as_the_routed_one(self, sample_formula):
        # the report is the plan's, not a side effect of routing
        plan = plan_3sat(sample_formula)
        report = plan_report(plan)
        route_and_place(plan)
        assert plan_report(plan) == report

    @pytest.mark.parametrize("points, message", [
        # one row lower, the spawn wire enters the first chamber through its wall
        (((3, 62), (6, 62)), r"wire spawn runs through solid gadget cell \(6, 62\)"),
        (((3, 63), (6, 62)), "wire spawn has a diagonal segment"),
        (((-1, 63), (6, 63)), "wire spawn leaves the grid"),
        # down into the first chamber: a vertical wire is checked bottom up
        (((8, 63), (8, 55)), r"wire spawn runs through solid gadget cell \(8, 57\)"),
    ])
    def test_misrouted_wire_rejected(self, sample_formula, points, message):
        plan = plan_3sat(sample_formula)
        i = next(i for i, w in enumerate(plan.wires) if w.name == "spawn")
        assert plan.wires[i].points == ((3, 63), (6, 63))
        plan.wires[i] = Wire("spawn", points)
        with pytest.raises(CompileError, match=message):
            route_and_place(plan)

    @pytest.mark.parametrize("points, extra, cell", [
        (((3, 0), (6, 0)), (), (3, 0)),
        (((3, 63), (3, 0)), (), (3, 0)),  # a vertical wire's cells run bottom up
        # the first boundary cell in wire order, not in grid order
        (((6, 63), (0, 63)), (Wire("edge", ((2, 0), (4, 0))),), (0, 63)),
    ])
    def test_a_corridor_on_the_boundary_is_refused_as_carve_refuses_it(
            self, sample_formula, points, extra, cell):
        plan = plan_3sat(sample_formula)
        i = next(i for i, w in enumerate(plan.wires) if w.name == "spawn")
        plan.wires[i] = Wire("spawn", points)
        plan.wires.extend(extra)
        with pytest.raises(LevelError) as err:
            route_and_place(plan)
        assert str(err.value) == f"cannot carve boundary or out-of-bounds cell {cell}"

    @pytest.mark.parametrize("width, height", [(0, 3), (4, 0)])
    def test_a_zero_size_plan_is_refused_by_the_grid_shape_rule(self, width, height):
        plan = LayoutPlan(width, height, spawn=(1, 1), flag=(1, 1))
        with pytest.raises(LevelError, match=r"\[grid-shape\]"):
            route_and_place(plan)

    def test_endpoint_touches_are_joins(self):
        wires = [
            Wire("h", ((0, 5), (10, 5))),
            Wire("l", ((0, 0), (0, 10))),  # through h's west end
            Wire("r", ((10, 5), (10, 9))),  # from h's east end
            Wire("t", ((5, 5), (5, 9))),  # a T on h
        ]
        detect_crossings(wires)
        wires.append(Wire("x", ((3, 0), (3, 10))))  # the one crossing
        with pytest.raises(CompileError) as err:
            detect_crossings(wires)
        assert str(err.value) == "wires ['h', 'x'] cross at (3, 5)"

    def test_three_wires_at_a_point_rejected(self):
        wires = [
            Wire("h", ((0, 5), (10, 5))),
            Wire("v1", ((5, 0), (5, 10))),
            Wire("d", ((5, 0), (5, 10))),  # a second vertical through (5, 5)
        ]
        with pytest.raises(CompileError, match="more than two wires"):
            detect_crossings(wires)

    def test_uncovered_crossing_rejected(self, sample_formula):
        # the first chamber's exits routed with the false row below the
        # true row: the false exit's drop crosses the true row, and no
        # gadget covers a crossing
        plan = plan_3sat(sample_formula)
        cx, cy = next(p.origin for p in plan.placements if p.prefix == "x1.")
        true, false = (i for i, w in enumerate(plan.wires) if w.name in ("x1.true", "x1.false"))
        mx, pr = plan.wires[false].points[-2]
        plan.wires[true] = Wire("x1.true", ((cx, cy + 1), (cx - 2, cy + 1), (cx - 2, cy - 2),
                                            (mx, cy - 2), (mx, pr), (mx + 2, pr)))
        plan.wires[false] = Wire("x1.false", (
            (cx + 4, cy + 1), (cx + 6, cy + 1), (cx + 6, cy - 10), (mx, cy - 10)))
        with pytest.raises(CompileError) as err:
            route_and_place(plan)
        assert str(err.value) == f"wires ['x1.false', 'x1.true'] cross at {(cx + 6, cy - 2)}"


class TestCompileQbf:
    def test_small_true_qbf_solvable(self):
        q = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 -2 0")
        level = compile_qbf(q)
        assert validate_level(level) == []
        assert level.variant == "PSPACE"
        assert isinstance(solve(level), Solvable)

    def test_false_qbf_unsolvable(self):
        q = parse_qdimacs("p cnf 1 1\na 1 0\n1 0")
        assert isinstance(solve(compile_qbf(q)), Unsolvable)

    def test_all_exists_matches_np_pipeline(self, sample_formula):
        q = parse_qdimacs("p cnf 3 2\ne 1 2 3 0\n1 2 -3 0\n-1 2 3 0")
        np_verdict = isinstance(solve(compile_3sat(sample_formula)), Solvable)
        qbf_verdict = isinstance(solve(compile_qbf(q)), Solvable)
        assert np_verdict == qbf_verdict is True

    def test_deterministic(self):
        q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 0")
        assert save_level(compile_qbf(q)) == save_level(compile_qbf(q))

    def test_prefix_of_eight_compiles(self):
        level = compile_qbf(gen_random_qbf(8, 8, 1))
        assert validate_level(level) == []
        assert level.height == 14

    @pytest.mark.parametrize("quantifiers, width", [("e", 299596), ("ea", 299602)])
    def test_grid_bound_refused_before_any_gadget_is_built(self, monkeypatch, quantifiers,
                                                           width):
        # The refusal a plan built gadget by gadget met (for "e", that of
        # `p cnf 500000 0`), now reached from the gadgets' widths alone.
        n = 500_000
        qbf = QbfFormula(tuple((QUANTIFIERS[quantifiers[v % len(quantifiers)]], v)
                               for v in range(1, n + 1)), CnfFormula(n, ()))
        calls = []
        for name in ("build_exists_gadget", "build_forall_gadget", "build_clause_gadget",
                     "build_elevator"):
            monkeypatch.setattr(compiler, name, lambda *args, name=name: calls.append(name))
        start = time.perf_counter()
        with pytest.raises(CompileError) as err:
            plan_qbf(qbf)
        assert time.perf_counter() - start < 1.0
        assert calls == []
        assert str(err.value) == (f"grid {width}x14 has {width * 14} cells, "
                                  f"over the bound of {MAX_GRID_CELLS}")

    @pytest.mark.parametrize("n, k, seed", [(1, 2, 0), (2, 0, 1), (3, 2, 2), (4, 4, 3)])
    def test_the_size_check_refuses_only_what_the_plan_refuses(self, monkeypatch, n, k, seed):
        # a lower bound on the plan's width: a grid the plan fits passes
        qbf = gen_random_qbf(n, k, seed)
        plan = plan_qbf(qbf)
        monkeypatch.setattr(compiler, "MAX_GRID_CELLS", plan.width * plan.height)
        compiler.check_size(n, k, PSPACE)
        # and it is exact for existentials with no symbols
        exists = QbfFormula(tuple((Quantifier.EXISTS, v) for v in range(1, n + 1)),
                            CnfFormula(n, ()))
        width = plan_qbf(exists).width
        monkeypatch.setattr(compiler, "MAX_GRID_CELLS", width * 14 - 1)
        with pytest.raises(CompileError) as err:
            compiler.check_size(n, 0, PSPACE)
        assert str(err.value) == f"grid {width}x14 has {width * 14} cells, over the bound of " \
                                 f"{width * 14 - 1}"

    def test_quantifier_gadget_counts(self):
        q = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 -2 0")
        plan = plan_qbf(q)
        kinds = [p.blueprint.kind for p in plan.placements]
        assert kinds.count("exists") == 1
        assert kinds.count("forall") == 1
        assert kinds.count("clause") == 1
        assert kinds.count("elevator") == 1
