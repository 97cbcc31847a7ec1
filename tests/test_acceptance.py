"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The corpora are shared across criteria through
module-scoped fixtures, so criteria 6 and 8 reuse the traces produced by
criteria 1, 2 and 4.
"""

import random
import time

import pytest

from satplat.compiler import compile_3sat, compile_qbf, witness_trace
from satplat.formula import gen_random_3cnf, parse_dimacs, parse_qdimacs
from satplat.gadgets import ALL_GADGET_BUILDERS, check_contract
from satplat.level import NP, PSPACE, save_level
from satplat.sim import replay, replay_states, trace_to_text
from satplat.solver import Solvable, solve
from satplat.verify import (
    CorpusSpec,
    mutate_trace,
    run_corpus,
    run_items,
    trace_prefix_states,
)

JOBS = 2


def _print_line(name, summary, elapsed, budget):
    ok = summary.all_agree and elapsed <= budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {summary.items} items, "
          f"{summary.agreements} agree, {summary.limit_hits} limit, "
          f"{elapsed:.1f}s (budget {budget}s)")


@pytest.fixture(scope="module")
def np_exhaustive():
    t0 = time.perf_counter()
    summary = run_corpus(CorpusSpec("EXHAUSTIVE", NP, n_max=2, k_max=2), jobs=JOBS)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def np_random():
    # 200 fixed-seed formulas cycling n through 1..4 and k through 0..4
    formulas = [gen_random_3cnf(1 + i % 4, i % 5, 1000 + i) for i in range(200)]
    spec = CorpusSpec("RANDOM", NP, n=4, k=4, count=200, seed=1000)
    t0 = time.perf_counter()
    summary = run_items(formulas, spec, jobs=JOBS)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qbf_corpus():
    t0 = time.perf_counter()
    exhaustive = run_corpus(CorpusSpec("EXHAUSTIVE", PSPACE, n_max=2, k_max=2),
                            jobs=JOBS)
    randomized = run_corpus(CorpusSpec("RANDOM", PSPACE, n=3, k=2, count=50,
                                       seed=2000), jobs=JOBS)
    return exhaustive, randomized, time.perf_counter() - t0


def _level_for(report):
    if report.variant == NP:
        return compile_3sat(parse_dimacs(report.formula_text))
    return compile_qbf(parse_qdimacs(report.formula_text))


def test_criterion_1_np_equivalence_exhaustive(np_exhaustive):
    summary, elapsed = np_exhaustive
    _print_line("1 (NP exhaustive n<=2 k<=2)", summary, elapsed, 60)
    assert summary.items == 247  # the full deduplicated enumeration
    assert summary.agreements == summary.items
    assert summary.limit_hits == 0
    assert elapsed <= 60


def test_criterion_2_np_equivalence_randomized(np_random):
    summary, elapsed = np_random
    _print_line("2 (NP random n<=4 k<=4 x200)", summary, elapsed, 300)
    assert summary.items == 200
    assert summary.agreements == 200
    assert summary.limit_hits == 0
    assert elapsed <= 300


def test_criterion_3_worked_example(sample_formula):
    level = compile_3sat(sample_formula)
    result = solve(level)
    assert isinstance(result, Solvable)
    # the documented substitution: x1=1, x2=0, x3=1 - true tunnel, false
    # tunnel, true tunnel, then the final passage to the flag
    scripted = witness_trace(level, {1: True, 2: False, 3: True}, 3)
    assert scripted is not None
    assert replay(level, scripted) is True
    print("PASS criterion 3: worked example solvable; scripted substitution "
          f"trace of {len(scripted)} moves replays to the flag")


def test_criterion_4_pspace_equivalence(qbf_corpus):
    exhaustive, randomized, elapsed = qbf_corpus
    _print_line("4a (QBF exhaustive prefix<=2 k<=2)", exhaustive, elapsed, 600)
    _print_line("4b (QBF random prefix-3 x50)", randomized, elapsed, 600)
    assert exhaustive.items == 955
    assert exhaustive.agreements == 955 and exhaustive.limit_hits == 0
    assert randomized.items == 50
    assert randomized.agreements == 50 and randomized.limit_hits == 0
    assert elapsed <= 600


def test_criterion_5_gadget_contracts():
    checked = 0
    for kind, builder in sorted(ALL_GADGET_BUILDERS.items()):
        for assertion, ok in check_contract(builder()):
            assert ok, f"{kind}: {assertion}"
            checked += 1
    # multi-step behaviors beyond single port-pair assertions
    from tests.test_gadgets import (
        TestExistsGadget,
        TestForallGadget,
        TestTunnel,
        TestVariableGadget,
    )

    TestVariableGadget().test_committed_exit_cannot_be_undone()
    TestTunnel().test_symbols_apply_in_order()
    TestExistsGadget().test_commit_true_seals_false_branch_and_reentry()
    TestExistsGadget().test_exit_states_never_mix_the_two_polarities()
    TestForallGadget().test_full_protocol()
    print(f"PASS criterion 5: {checked} contract assertions plus scripted "
          "variable/tunnel/exists/forall protocols")


def test_criterion_6_witness_integrity(np_exhaustive, np_random, qbf_corpus):
    summaries = [np_exhaustive[0], np_random[0], qbf_corpus[0], qbf_corpus[1]]
    total_traces = total_mutants = 0
    counters = {}
    rng = random.Random(0xACCE97)
    t0 = time.perf_counter()
    for summary in summaries:
        for report in summary.reports:
            if report.trace is None:
                continue
            level = _level_for(report)
            assert replay(level, report.trace), "witness does not replay"
            total_traces += 1
            states = trace_prefix_states(level, report.trace)
            for _ in range(100):
                mutant = mutate_trace(level, report.trace, rng, states,
                                      counters=counters)
                assert not replay(level, mutant)
                total_mutants += 1
    print(f"PASS criterion 6: {total_traces} witnesses replay; "
          f"{total_mutants} mutations all fail; "
          f"{counters.get('equivalent', 0)} equivalent mutants excluded "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_7_determinism(sample_formula):
    doc_a = save_level(compile_3sat(sample_formula))
    doc_b = save_level(compile_3sat(sample_formula))
    assert doc_a == doc_b
    level = compile_3sat(sample_formula)
    trace_a = trace_to_text(solve(level).trace)
    trace_b = trace_to_text(solve(level).trace)
    assert trace_a == trace_b
    print("PASS criterion 7: byte-identical level documents and traces")


def test_criterion_8_np_monotonicity(np_exhaustive, np_random, sample_formula):
    checked = 0
    for summary in (np_exhaustive[0], np_random[0]):
        for report in summary.reports:
            if report.trace is None:
                continue
            level = _level_for(report)
            prev = 0
            for state in replay_states(level, report.trace):
                assert state.door_open & prev == prev, "a door bit was cleared"
                prev = state.door_open
            checked += 1
    level = compile_3sat(sample_formula)
    prev = 0
    for state in replay_states(level, solve(level).trace):
        assert state.door_open & prev == prev
        prev = state.door_open
    print(f"PASS criterion 8: door bits monotone over {checked + 1} NP traces")
