import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import (
    QBF_BOUND,
    SAT_BOUND,
    CnfFormula,
    QbfFormula,
    gen_random_qbf,
    parse_dimacs,
    parse_qdimacs,
    write_dimacs,
    write_qdimacs,
)
from satplat.level import NP, PSPACE, SpaceBlock, load_level
from satplat.sim import initial_state, jump, replay, sim_context, step, walk
from satplat.solver import Solvable, solve
from satplat import verify
from satplat.corpus import (
    CorpusSpec,
    CorpusSummary,
    corpus_items,
    enumerate_cnf,
    enumerate_qbf,
    run_corpus,
    run_items,
    write_repro_bundles,
)
from satplat.verify import (
    EquivalenceReport,
    mutate_trace,
    trace_prefix_states,
    verify_formula,
    verify_qbf,
)
from tests.conftest import SAMPLE_DIMACS, level_from_art


class TestVerifyFormula:
    def test_sample_agrees_positive(self, sample_formula):
        report = verify_formula(sample_formula)
        assert report.agree
        assert report.oracle_verdict is True and report.level_verdict == "solvable"
        assert report.trace is not None

    def test_contradiction_agrees_negative(self):
        report = verify_formula(parse_dimacs("p cnf 1 2\n1 0\n-1 0"))
        assert report.agree
        assert report.oracle_verdict is False and report.level_verdict == "unsolvable"

    def test_empty_formula_agrees_positive(self):
        report = verify_formula(parse_dimacs("p cnf 0 0\n"))
        assert report.agree and report.oracle_verdict is True


class TestVerifyQbf:
    def test_tautological_clause(self):
        report = verify_qbf(parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 -2 0"))
        assert report.agree and report.oracle_verdict is True

    def test_forall_false(self):
        report = verify_qbf(parse_qdimacs("p cnf 1 1\na 1 0\n1 0"))
        assert report.agree and report.oracle_verdict is False


class TestEnumeration:
    def test_cnf_counts(self):
        # n=2: C(6,3)=20 canonical clauses; k<=2 gives 1+20+C(21,2)=231;
        # n=1: 4 clauses -> 1+4+10=15; n=0: the empty formula
        formulas = list(enumerate_cnf(2, 2))
        assert len(formulas) == 231 + 15 + 1
        assert len(set(formulas)) == len(formulas)  # deduplicated

    def test_qbf_counts(self):
        qbfs = list(enumerate_qbf(1, 1))
        # n=0: 1; n=1: 2 prefixes x (1 + 4 clauses) = 10
        assert len(qbfs) == 11

    @pytest.mark.parametrize("enumerate_, write, bounds, count, digest", [
        (enumerate_cnf, write_dimacs, (2, 2), 247,
         "b3b685d2e2379bba6d4f8190c2af68c869940b8671187ec2270235c7be2dc598"),
        (enumerate_qbf, write_qdimacs, (2, 1), 95,
         "eb6b0b5dbafcd2e64d41a0fe1f76641f5366aff938fa6bd6fbbc6b9d80c009a0"),
    ], ids=["cnf", "qbf"])
    def test_corpus_order_is_pinned(self, enumerate_, write, bounds, count, digest):
        # An exhaustive corpus's order names its `case_NNNN` repro bundles.
        texts = [write(f) for f in enumerate_(*bounds)]
        assert len(texts) == count
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest

    def test_random_qbf_deterministic(self):
        assert gen_random_qbf(3, 2, 5) == gen_random_qbf(3, 2, 5)

    def test_corpus_items_deterministic(self):
        spec = CorpusSpec("RANDOM", NP, n=3, k=2, count=5, seed=9)
        assert corpus_items(spec) == corpus_items(spec)

    @pytest.mark.parametrize("mode, variant", [
        ("Exhaustive", NP), ("random", NP), ("EXHAUSTIVE", "np"), ("RANDOM", "QBF"),
    ])
    def test_unknown_mode_or_variant_rejected(self, mode, variant):
        # either would otherwise run a corpus the caller did not ask for
        with pytest.raises(ValueError, match="corpus mode"):
            CorpusSpec(mode, variant, n_max=0, k_max=0)

    @pytest.mark.parametrize("variant, oracle, bound", [
        (NP, "sat_oracle", SAT_BOUND), (PSPACE, "qbf_oracle", QBF_BOUND),
    ])
    def test_a_spec_above_the_oracle_bound_is_refused(self, variant, oracle, bound):
        # Refused when built, so no item is enumerated or solved first.
        for spec in (dict(mode="EXHAUSTIVE", n_max=bound + 1, k_max=0),
                     dict(mode="RANDOM", n=bound + 1, k=1, count=1)):
            with pytest.raises(ValueError, match=f"{oracle} bound exceeded: .* {bound + 1} "
                                                 f"variables, over the bound of {bound}"):
                CorpusSpec(variant=variant, **spec)

    @pytest.mark.parametrize("variant, bound", [(NP, SAT_BOUND), (PSPACE, QBF_BOUND)])
    def test_a_spec_at_the_oracle_bound_is_accepted(self, variant, bound):
        CorpusSpec("EXHAUSTIVE", variant, n_max=bound, k_max=0)
        spec = CorpusSpec("RANDOM", variant, n=bound, k=1, count=1, seed=1)
        assert len(corpus_items(spec)) == 1


class TestRunCorpus:
    def test_exhaustive_tiny_np(self):
        summary = run_corpus(CorpusSpec("EXHAUSTIVE", NP, n_max=1, k_max=1))
        assert summary.items == 6
        assert summary.all_agree
        assert "6 agree" in summary.text()

    def test_random_small_pspace(self):
        spec = CorpusSpec("RANDOM", PSPACE, n=2, k=1, count=6, seed=3)
        summary = run_corpus(spec)
        assert summary.items == 6 and summary.all_agree

    def test_parallel_matches_serial(self):
        # 16 items are two chunks, so this runs a real 2-worker pool
        spec = CorpusSpec("RANDOM", NP, n=3, k=3, count=16, seed=1)
        serial = run_corpus(spec)
        parallel = run_corpus(spec, jobs=2)
        assert serial.agreements == parallel.agreements == 16

    def test_workers_capped_by_chunk_count(self, monkeypatch):
        requested = []

        class RecordingPool:
            """Records the worker count asked for and maps in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = CorpusSpec("RANDOM", NP, n=1, k=1, count=20, seed=1)
        items = corpus_items(spec)

        def outcomes(summary):
            return [(r.formula_text, r.level_verdict, r.agree, r.trace) for r in summary.reports]

        one = run_items(items[:1], spec, jobs=5000)
        assert requested == []
        many = run_items(items, spec, jobs=5000)
        assert requested == [3]
        assert outcomes(one) == outcomes(run_items(items[:1], spec))
        assert outcomes(many) == outcomes(run_items(items, spec))

    @pytest.mark.parametrize("spec, kind, check", [
        (CorpusSpec("EXHAUSTIVE", NP, n_max=2, k_max=1), CnfFormula, verify_formula),
        (CorpusSpec("RANDOM", PSPACE, n=3, k=2, count=17, seed=4), QbfFormula, verify_qbf),
    ])
    def test_run_items_adds_nothing_to_each_formulas_check(self, spec, kind, check):
        # 27 and 17 items are more than one chunk, so jobs=2 sends both
        # formula types through a real two-worker pool.
        items = corpus_items(spec)
        assert all(type(f) is kind for f in items)

        def fields(report):
            return (report.formula_text, report.variant, report.oracle_verdict,
                    report.level_verdict, report.agree, report.trace,
                    report.stats._replace(elapsed=0.0))

        expected = [fields(check(f)) for f in items]
        for jobs in (1, 2):
            assert [fields(r) for r in run_items(items, spec, jobs=jobs).reports] == expected

    def test_repro_bundle_writer(self, tmp_path):
        # synthesize a disagreement record and check the bundle contents
        report = EquivalenceReport(SAMPLE_DIMACS, NP, False, "solvable",
                                   None, solve(compile_3sat(
                                       parse_dimacs(SAMPLE_DIMACS))).stats)
        paths = write_repro_bundles([report], tmp_path)
        assert len(paths) == 1
        case = paths[0]
        assert (case / "formula.cnf").read_text() == SAMPLE_DIMACS
        assert (case / "level.json").exists()
        verdicts = json.loads((case / "verdicts.json").read_text())
        assert verdicts == {"oracle": False, "level": "solvable", "agree": False}
        text = CorpusSummary(CorpusSpec("EXHAUSTIVE", NP), (report,)).text()
        assert "1 items, 0 agree, 1 disagree, 0 limit" in text
        assert ("  DISAGREE oracle=False level=solvable: p cnf 3 2 | 1 2 -3 0 | -1 2 3 0 | \n"
                in text)

    def test_pspace_repro_bundle_writer(self, tmp_path):
        report = verify_qbf(gen_random_qbf(3, 2, 1))
        case, = write_repro_bundles([report], tmp_path)
        text = (case / "formula.qdimacs").read_text()
        assert text == report.formula_text
        assert load_level((case / "level.json").read_text()) == compile_qbf(parse_qdimacs(text))


    def test_rewritten_bundle_holds_only_its_reports_files(self, tmp_path):
        reports = [verify_formula(parse_dimacs(SAMPLE_DIMACS)),
                   verify_formula(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")),
                   verify_qbf(gen_random_qbf(3, 2, 1))]
        assert [r.trace is not None for r in reports] == [True, False, True]
        (tmp_path / "case_0000").mkdir()
        (tmp_path / "case_0000" / "notes.txt").write_text("kept")
        expected = [
            {"formula.cnf", "level.json", "witness.trace", "verdicts.json"},
            {"formula.cnf", "level.json", "verdicts.json"},
            {"formula.qdimacs", "level.json", "witness.trace", "verdicts.json"},
        ]
        for report, names in zip(reports, expected):
            case, = write_repro_bundles([report], tmp_path)
            assert {p.name for p in case.iterdir()} == names | {"notes.txt"}

    def test_reused_repro_dir_holds_only_the_last_runs_bundles(self, tmp_path):
        report = verify_formula(parse_dimacs(SAMPLE_DIMACS))
        (tmp_path / "notes.txt").write_text("kept")
        for kept in ("case_studies", "case_12"):
            (tmp_path / kept).mkdir()
            (tmp_path / kept / "notes.txt").write_text("kept")
        write_repro_bundles([report] * 3, tmp_path)
        assert sorted(p.name for p in tmp_path.glob("case_0*")) == [
            "case_0000", "case_0001", "case_0002"]
        write_repro_bundles([report], tmp_path)
        assert [p.name for p in tmp_path.glob("case_0*")] == ["case_0000"]
        summary = run_corpus(CorpusSpec("EXHAUSTIVE", NP, n_max=0, k_max=0), repro_dir=tmp_path)
        assert summary.all_agree
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "case_12", "case_studies", "notes.txt"]
        assert (tmp_path / "case_studies" / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("spec", [
        CorpusSpec("RANDOM", NP, n=10, k=10, count=3, seed=1),
        CorpusSpec("RANDOM", PSPACE, n=6, k=4, count=3, seed=1),
    ], ids=["np-10x10", "pspace-6x4"])
    def test_random_corpus_beyond_small_sizes_agrees(self, spec):
        summary = run_corpus(spec)
        assert summary.items == 3 and summary.all_agree


class TestMutation:
    def test_mutations_break_solver_traces(self, sample_formula):
        level = compile_3sat(sample_formula)
        result = solve(level)
        assert isinstance(result, Solvable)
        rng = random.Random(0)
        for _ in range(50):
            mutant = mutate_trace(level, result.trace, rng)
            assert mutant != result.trace
            assert not replay(level, mutant)

    def test_mutation_deterministic_for_seed(self, sample_formula):
        level = compile_3sat(sample_formula)
        trace = solve(level).trace
        a = mutate_trace(level, trace, random.Random(7))
        b = mutate_trace(level, trace, random.Random(7))
        assert a == b

    def test_a_move_past_where_the_trace_stops_is_deleted_unchecked(self):
        # WALK L is blocked at the spawn, so the replay stops at move 0;
        # a deletion drawn at a later move is a mutant that fails too, and
        # a substitution drawn there yields no mutant.
        level = level_from_art("#####\n#S.F#\n#####")
        trace = (walk(-1), walk(1), walk(1))
        assert trace_prefix_states(level, trace) == [initial_state(level)]
        assert mutate_trace(level, trace, FixedDraw(0.0, 2)) == (walk(-1), walk(1))
        ctx = sim_context(level)
        assert list(verify._mutants(ctx, trace, 2, [initial_state(level)], FixedDraw(0.9))) == []

    def test_a_trace_with_only_equivalent_mutants_is_refused(self, monkeypatch):
        # Every draw deletes JUMP 0 1, which lands where it started, so the
        # mutant still wins and is redrawn until the attempts run out.
        level = level_from_art("#####\n#...#\n#S.F#\n#####")
        trace = (jump(0, 1), walk(1), walk(1))
        assert replay(level, trace) and replay(level, trace[1:])
        monkeypatch.setattr(verify, "MAX_MUTATION_ATTEMPTS", 3)
        counters = {}
        with pytest.raises(ValueError, match="no non-equivalent mutation found"):
            mutate_trace(level, trace, FixedDraw(0.0, 0), counters=counters)
        assert counters == {"equivalent": 3}

    @pytest.mark.parametrize("variant", [NP, PSPACE])
    def test_the_mutation_check_matches_replay_on_every_single_move_mutant(self, variant):
        # Every deletion and every substitution at every move of a witness:
        # the check `mutate_trace` runs from the mutation point must say
        # "wins" exactly when `replay` of the whole mutant does.  A
        # substitute skipped as outcome-identical must win as well.  A
        # compiled NP level holds no space block, so the NP case adds a
        # drawn one whose witness starts where a dash east dies.
        if variant == NP:
            levels = (compile_3sat(parse_dimacs(SAMPLE_DIMACS)),
                      level_from_art("#######\n#...F.#\n#.#####\n#S**###\n#######",
                                     entities=[SpaceBlock((2, 1, 3, 1))]))
        else:
            levels = (compile_qbf(gen_random_qbf(3, 2, seed=324)),)
        outcomes, verdicts = Counter(), Counter()
        for level in levels:
            assert level.variant == variant
            witness = solve(level).trace
            sim_context.cache_clear()
            assert replay(level, witness)
            ctx = sim_context(level)
            states = trace_prefix_states(level, witness)
            for i, original in enumerate(witness):
                [(mutant, wins)] = verify._mutants(ctx, witness, i, states, FixedDraw(0.0))
                assert mutant == witness[:i] + witness[i + 1:]
                assert wins is replay(level, mutant)
                verdicts[wins] += 1
                drawn = dict(verify._mutants(ctx, witness, i, states, FixedDraw(0.9)))
                for move in ctx.moves:
                    if move == original:
                        continue
                    mutant = (*witness[:i], move, *witness[i + 1:])
                    out = step(level, states[i], move)
                    outcomes[type(out).__name__] += 1
                    if mutant in drawn:
                        wins = replay(level, mutant)
                        assert drawn.pop(mutant) is wins
                        verdicts[wins] += 1
                    else:
                        assert out == step(level, states[i], original)
                        assert replay(level, mutant)
                assert not drawn
        assert min(outcomes[kind] for kind in ("GameState", "Blocked", "Death")) > 0
        assert verdicts[True] > 0 and verdicts[False] > 0


class FixedDraw:
    """A random source for `verify._mutants` whose `random()` is fixed, so
    that every draw is a deletion (below 0.5) or a substitution; its
    `randrange` is a seeded `random.Random`'s, or always `at` if given."""

    def __init__(self, u: float, at: int | None = None):
        self.u = u
        self.randrange = random.Random(0).randrange if at is None else lambda n: at

    def random(self) -> float:
        return self.u


def loaded(imports: str, modules) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after `imports`."""
    script = (f"import sys, {imports}\n"
              f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("module", ["satplat.cli", "satplat.verify", "satplat.corpus"])
def test_import_loads_no_process_pool(module):
    # `run_items` imports the pool only when it runs more than one worker.
    assert loaded(module, ("multiprocessing", "concurrent.futures.process")) == []


def test_the_pipeline_and_the_cli_import_no_corpus_runner():
    # `satplat verify` imports the runner when it runs, and nothing else does.
    pipeline = ", ".join(f"satplat.{m}" for m in
                         ("formula", "level", "sim", "compiler", "solver", "verify", "cli"))
    assert loaded(pipeline, ("satplat.corpus",)) == []
