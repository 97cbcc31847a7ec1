"""The benchmark's workloads: seeded inputs and the operation run per item.

Inputs are formula texts made here from the seed; the library only ever
sees those texts. Each input also carries the benchmark's own verdict,
computed by the brute-force evaluators below, which share no code with
satplat and so check its oracles as well as its solver.

Why the inputs look the way they do: the per-item cost of a search is
set mostly by how many door-bit combinations the level can reach, and
uniformly drawn clauses leave some variables unused or one-signed, which
merges branches and makes the cost of one n=k=8 item swing by 2.5x
(15k-38k states). Every generated matrix is therefore balanced: each
variable occurs as evenly as 3k/n allows, with both signs, and each
clause names three distinct variables. The sizes and quantifier
prefixes are cycled item by item rather than drawn, so a run of a few
dozen items covers the same mix whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from dataclasses import dataclass
from importlib import import_module
from time import perf_counter
from types import SimpleNamespace

from spans import NullTracer

MODULES = ("formula", "level", "sim", "compiler", "solver", "verify")
NULL = NullTracer()  # set-up and warm-up are not traced

# A search that takes this long is reported as a failure (LimitExceeded)
# instead of holding the run past its time limit.
SOLVE_MAX_TIME = 60.0
# Mutants drawn per witness: a light check on the search workloads, and
# acceptance criterion 6's count on witness-mutation.
SEARCH_MUTANTS = 2
WITNESS_MUTANTS = 100

# The bundled worked example, used for the warm-up item.
SAMPLE_CNF = "p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"
SAMPLE_QBF = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 -3 0\n-1 2 3 0\n"

# One size, n=k=7: with two, the median or the tail item can sit near
# the edge between the groups, where it jumps from run to run. n=7 items
# take about 0.7 s, so a 30 s run holds about 50 and its tail item is
# near p80; n=8 items take about 1.5 s, too few per run for a tail.
NP_STRATA = (("eeeeeee", 7),)
# Every mixed prefix of length 3, and every length-4 prefix with two of
# each quantifier, with k=3; k=4 only for the three length-3 prefixes
# whose formulas are mostly false and cheap. With k=4 the others run to
# 1-2 s per item and swing by 2x between formulas of one prefix, and
# ∃-heavy length-4 prefixes run to 255k states.
QBF_STRATA = (
    ("eea", 3), ("eae", 3), ("eaa", 4), ("aee", 3), ("aea", 4), ("aae", 4),
    ("eeaa", 3), ("eaea", 3), ("eaae", 3), ("aeea", 3), ("aeae", 3), ("aaee", 3),
)
# Witness corpus strata: NP n=k=3..5 and prefix-3 QBF with k=2, using the
# three mixed prefixes whose formulas are mostly true.
WITNESS_STRATA = (("eee", 3), ("eeee", 4), ("eeeee", 5), ("eea", 2), ("eae", 2), ("aee", 2))


def load_library():
    """Import satplat's modules afresh, so that every set-up pays for
    the import as a new process would."""
    for name in [m for m in sys.modules if m == "satplat" or m.startswith("satplat.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: import_module("satplat." + m) for m in MODULES})


# --- inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    key: str
    variant: str  # "NP" or "PSPACE"
    text: str
    truth: bool


def balanced_clauses(n: int, k: int, rng: random.Random) -> list[list[int]]:
    """k clauses over variables 1..n as DIMACS literals: each variable
    occurs 3k/n times (spread as evenly as possible) and, when it occurs
    twice or more, with both signs; each clause has three distinct
    variables."""
    counts = [3 * k // n + (v < 3 * k % n) for v in range(n)]
    slots = [v + 1 for v in range(n) for _ in range(counts[v])]
    while True:
        rng.shuffle(slots)
        clauses = [slots[3 * i:3 * i + 3] for i in range(k)]
        if all(len(set(c)) == 3 for c in clauses):
            break
    negated = {}
    for v, count in enumerate(counts, start=1):
        signs = [False, True][:count] + [rng.random() < 0.5 for _ in range(count - 2)]
        rng.shuffle(signs)
        negated[v] = signs
    return [[-v if negated[v].pop() else v for v in clause] for clause in clauses]


def satisfied(clauses, bits: int) -> bool:
    """Whether the assignment with variable v = bit v-1 of `bits`
    satisfies every clause."""
    return all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
               for clause in clauses)


def qbf_true(prefix: str, clauses, bits: int = 0, depth: int = 0) -> bool:
    """Truth of the QBF whose variable depth+1 is quantified by
    prefix[depth] ('e' or 'a'), outermost first."""
    if depth == len(prefix):
        return satisfied(clauses, bits)
    branches = (qbf_true(prefix, clauses, bits | value << depth, depth + 1)
                for value in (0, 1))
    return any(branches) if prefix[depth] == "e" else all(branches)


def dimacs(n: int, clauses, prefix: str | None = None) -> str:
    """DIMACS CNF text, or QDIMACS when a prefix is given."""
    lines = [f"p cnf {n} {len(clauses)}"]
    if prefix:
        for quant, block in itertools.groupby(enumerate(prefix, start=1), key=lambda p: p[1]):
            lines.append(quant + " " + " ".join(str(v) for v, _ in block) + " 0")
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def draw(stratum, rng: random.Random, key: str) -> Formula:
    """One formula of a stratum: an all-∃ prefix string names an NP
    formula with n=k, any other prefix a QBF with k clauses."""
    prefix, k = stratum
    n = len(prefix)
    clauses = balanced_clauses(n, k, rng)
    truth = qbf_true(prefix, clauses)
    if "a" in prefix:
        return Formula(key, "PSPACE", dimacs(n, clauses, prefix), truth)
    return Formula(key, "NP", dimacs(n, clauses), truth)


def fixed(text: str, prefix: str, clauses) -> Formula:
    variant = "PSPACE" if "a" in prefix else "NP"
    return Formula("warm-up", variant, text, qbf_true(prefix, clauses))


WARM_UP_NP = fixed(SAMPLE_CNF, "eee", [[1, 2, -3], [-1, 2, 3]])
WARM_UP_QBF = fixed(SAMPLE_QBF, "eae", [[1, 2, -3], [-1, 2, 3]])


# --- per-item operation ----------------------------------------------------


@dataclass
class ItemResult:
    item_s: float
    compile_s: float
    failures: list[str]
    counts: dict[str, int]
    fingerprint: bytes  # level document, verdict and trace, for the digest
    doc: str | None = None  # the level document when the item ran a search
    search_s: float = 0.0  # SearchStats.elapsed


COUNT_KEYS = ("states_expanded", "states_visited", "frontier_peak", "solves",
              "trace_moves", "cells", "placements", "doc_bytes", "mutants", "equivalent")


def compile_text(lib, t, formula: Formula):
    """Formula text to level document bytes, as `satplat compile` does."""
    if formula.variant == "NP":
        parse, plan = lib.formula.parse_dimacs, lib.compiler.plan_3sat
    else:
        parse, plan = lib.formula.parse_qdimacs, lib.compiler.plan_qbf
    parsed = t.call("formula.parse", parse, formula.text)
    layout = t.call("compiler.plan", plan, parsed)
    level = t.call("compiler.route", lib.compiler.route_and_place, layout)
    doc = t.call("level.save", lib.level.save_level, level)
    return parsed, layout, doc


def replay(lib, t, level, trace) -> bool:
    t.count("sim.replay_moves", len(trace))
    return t.call("sim.replay", lib.sim.replay, level, trace)


def mutants_fail(lib, t, level, trace, rng, count: int, counts) -> bool:
    """Draw `count` mutants of a witness; True iff none replays."""
    states = t.call("verify.prefix", lib.verify.trace_prefix_states, level, trace)
    counters = {}
    ok = True
    for _ in range(count):
        try:
            mutant = t.call("verify.mutate", lib.verify.mutate_trace, level, trace,
                            rng, states, counters=counters)
        except ValueError:  # no non-equivalent mutant exists
            ok = False
            continue
        counts["mutants"] += 1
        ok = not replay(lib, t, level, mutant) and ok
    counts["equivalent"] += counters.get("equivalent", 0)
    return ok


def search(lib, t, formula: Formula, rng, mutants: int) -> tuple[ItemResult, object]:
    """compile -> load -> solve -> replay -> oracle compare, plus
    `mutants` mutants of the witness. Returns the result and the trace
    (None unless Solvable)."""
    lib.sim.sim_context.cache_clear()
    counts = dict.fromkeys(COUNT_KEYS, 0)
    failures = []
    start = perf_counter()
    parsed, layout, doc = compile_text(lib, t, formula)
    compiled = perf_counter()
    level = t.call("level.load", lib.level.load_level, doc)
    t.call("sim.context", lib.sim.sim_context, level)
    result = t.call("solver.solve", lib.solver.solve, level, max_time=SOLVE_MAX_TIME)
    if formula.variant == "NP":
        oracle = t.call("formula.oracle", lib.formula.sat_oracle, parsed) is not None
    else:
        oracle = t.call("formula.oracle", lib.formula.qbf_oracle, parsed)
    trace = getattr(result, "trace", None)
    if isinstance(result, lib.solver.LimitExceeded):
        failures.append("limit")
    elif oracle != formula.truth or (trace is not None) != formula.truth:
        failures.append("oracle")
    if trace is not None:
        if not replay(lib, t, level, trace):
            failures.append("replay")
        elif mutants and not mutants_fail(lib, t, level, trace, rng, mutants, counts):
            failures.append("mutant")
    elapsed = perf_counter() - start
    stats = result.stats
    counts.update(states_expanded=stats.states_expanded, states_visited=stats.states_visited,
                  frontier_peak=stats.frontier_peak, solves=1)
    trace_text = lib.sim.trace_to_text(trace) if trace is not None else ""
    counts["trace_moves"] = len(trace or ())
    _count_level(counts, layout, doc)
    verdict = type(result).__name__
    fingerprint = _fingerprint(formula.key, verdict, doc, trace_text)
    return ItemResult(elapsed, compiled - start, failures, counts, fingerprint, doc,
                      stats.elapsed), trace


def _count_level(counts, layout, doc: str):
    counts["cells"] = layout.width * layout.height
    counts["placements"] = len(layout.placements)
    counts["doc_bytes"] = len(doc.encode())


def _fingerprint(key: str, verdict: str, doc: str, trace_text: str) -> bytes:
    return f"{key}\n{verdict}\n{doc}{trace_text}\n".encode()


@dataclass(frozen=True)
class Witness:
    formula: Formula
    trace: tuple  # moves of the library loaded by the set-up that solved it


class Workload:
    """Base: `pool` inputs are made in set-up and cycled through. A run
    stops only after a whole number of `cycle` items, so every run has
    the same mix of strata; the first `digest` items of every run are the
    ones whose documents, traces and counts must repeat exactly."""

    def __init__(self, name: str, pool: int, digest: int, cycle: int):
        self.name, self.pool, self.digest, self.cycle = name, pool, digest, cycle

    def inputs(self, seed: int) -> list[Formula]:
        rng = random.Random(f"{self.name}:{seed}")
        strata = self.strata
        return [draw(strata[i % len(strata)], rng, f"{self.name}:{seed}:{i}")
                for i in range(self.pool)]

    def set_up(self, lib, inputs):
        """Entries for the measured loop, and the results of any solves
        made while preparing them."""
        return inputs, []

    def warm_up(self, lib) -> list[ItemResult]:
        """One untimed item on a fixed small input, after the imports."""
        entries, results = self.set_up(lib, [self.warm_up_input])
        return results + [self.run_item(lib, NULL, entries[0], random.Random(0))]


class SearchWorkload(Workload):
    def __init__(self, name, pool, digest, strata, warm_up_input):
        super().__init__(name, pool, digest, len(strata))
        self.strata, self.warm_up_input = strata, warm_up_input

    def run_item(self, lib, t, entry: Formula, rng) -> ItemResult:
        return search(lib, t, entry, rng, SEARCH_MUTANTS)[0]


class WitnessWorkload(Workload):
    """Witnesses are solved in set-up; each measured item compiles the
    formula again, round-trips the level document, replays the witness
    and checks that every mutant fails."""

    strata = WITNESS_STRATA
    warm_up_input = WARM_UP_NP

    def inputs(self, seed: int) -> list[Formula]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        draws = 0
        while len(out) < self.pool:
            stratum = self.strata[len(out) % len(self.strata)]
            formula = draw(stratum, rng, f"{self.name}:{seed}:{draws}")
            draws += 1
            if formula.truth:  # only true formulas have witnesses
                out.append(formula)
        return out

    def set_up(self, lib, inputs):
        witnesses, results = [], []
        for formula in inputs:
            result, trace = search(lib, NULL, formula, None, 0)
            results.append(result)
            if trace is not None:
                witnesses.append(Witness(formula, trace))
        return witnesses, results

    def run_item(self, lib, t, entry: Witness, rng) -> ItemResult:
        lib.sim.sim_context.cache_clear()
        counts = dict.fromkeys(COUNT_KEYS, 0)
        failures = []
        start = perf_counter()
        _, layout, doc = compile_text(lib, t, entry.formula)
        compiled = perf_counter()
        level = t.call("level.load", lib.level.load_level, doc)
        t.call("sim.context", lib.sim.sim_context, level)
        if not replay(lib, t, level, entry.trace):
            failures.append("replay")
        elif not mutants_fail(lib, t, level, entry.trace, rng, WITNESS_MUTANTS, counts):
            failures.append("mutant")
        elapsed = perf_counter() - start
        counts["trace_moves"] = len(entry.trace)
        _count_level(counts, layout, doc)
        fingerprint = _fingerprint(entry.formula.key, "Solvable", doc,
                                   lib.sim.trace_to_text(entry.trace))
        return ItemResult(elapsed, compiled - start, failures, counts, fingerprint)


WORKLOADS = {
    w.name: w for w in (
        SearchWorkload("np-search", 200, 8, NP_STRATA, WARM_UP_NP),
        SearchWorkload("qbf-search", 600, 12, QBF_STRATA, WARM_UP_QBF),
        WitnessWorkload("witness-mutation", 12, 12, 12),
    )
}


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(result.fingerprint)
    return h.hexdigest()
