"""Tests of the benchmark's own arithmetic, and a tiny-size smoke run of
each workload.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import random
import sys

import pytest

import run
import workloads
from metrics import covered, equivalent_ratio, new_state_ratio, self_times, spread, tail
from spans import Span, Tracer

sys.path.insert(0, str(run.SRC))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 31))  # 1..30, shuffled below
    random.Random(3).shuffle(samples)
    value, percentile, n = tail(samples)
    assert (value, n) == (20, 30)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(s > value for s in samples) == 10


def test_tail_needs_more_than_ten_samples():
    assert tail(range(10)) is None
    assert tail(range(11)) == (0, 100 * 1 / 11, 11)


def test_new_state_ratio_is_over_every_successor_tried():
    assert new_state_ratio(visited=57, expanded=10, moves_per_state=19) == (57 / 190, 190)
    assert new_state_ratio(visited=1, expanded=0, moves_per_state=19) == (0.0, 0)


def test_equivalent_ratio_is_over_every_draw():
    assert equivalent_ratio(equivalent=1, mutants=99) == (0.01, 100)
    assert equivalent_ratio(equivalent=0, mutants=0) == (0.0, 0)


def test_self_time_subtracts_the_union_of_child_spans_and_hot_time():
    spans = [
        Span("solver.solve", 0.0, 10.0, None, 0, hot=0.5),
        Span("sim.replay", 1.0, 3.0, 0, 0),
        Span("sim.replay", 2.0, 5.0, 0, 0),  # overlaps the first child
        Span("verify.mutate", 6.0, 7.0, 0, 0),
        Span("sim.context", 6.2, 6.6, 3, 0),  # grandchild: counts only for its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 2, 3, 0.6, 0.4])


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)


def test_tracer_tally_counts_calls_and_charges_the_enclosing_span():
    t = Tracer()
    t.item = 7
    step = t.tally("sim.step", lambda x: x + 1)
    assert t.call("verify.prefix", lambda: [step(i) for i in range(3)]) == [1, 2, 3]
    assert t.total("sim.step.calls") == 3
    assert t.total("sim.step.calls", {8}) == 0
    assert t.spans[0].hot == pytest.approx(t.total("sim.step.s"))


def test_spread_is_the_quartile_distance_over_the_median():
    assert spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_generated_matrices_are_balanced_and_verdicts_match_the_oracles():
    rng = random.Random(1)
    for n, k in ((3, 2), (4, 3), (8, 8)):
        clauses = workloads.balanced_clauses(n, k, rng)
        assert all(len({abs(lit) for lit in c}) == 3 for c in clauses)
        for v in range(1, n + 1):
            signs = {lit > 0 for c in clauses for lit in c if abs(lit) == v}
            assert len(signs) == 2 or sum(abs(lit) == v for c in clauses for lit in c) == 1
    lib = workloads.load_library()
    for stratum in (("eeee", 4), ("eae", 3), ("aeea", 4)):
        formula = workloads.draw(stratum, rng, "x")
        if formula.variant == "NP":
            oracle = lib.formula.sat_oracle(lib.formula.parse_dimacs(formula.text)) is not None
        else:
            oracle = lib.formula.qbf_oracle(lib.formula.parse_qdimacs(formula.text))
        assert oracle == formula.truth


def tiny(name):
    """The named workload on small formulas, with a short digest."""
    if name == "witness-mutation":
        w = workloads.WitnessWorkload(name, 2, 2, 2)
        w.strata = (("eee", 3), ("eae", 2))
        return w
    strata = {"np-search": (("eee", 3),), "qbf-search": (("aea", 2), ("eaa", 2))}[name]
    base = workloads.WORKLOADS[name]
    return workloads.SearchWorkload(name, 4, 2, strata, base.warm_up_input)


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures_and_every_metric(name, trace):
    detail, result = run.run(tiny(name), seed=5, seconds=0, trace=trace)
    assert detail["fail_ratio"] == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 11
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    again, _ = run.run(tiny(name), seed=5, seconds=0, trace=trace)
    assert (again["digest"], again["counts"]) == (detail["digest"], detail["counts"])
