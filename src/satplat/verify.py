"""Empirical verification of the reduction: compile, solve, and compare
against the brute-force oracles over formula corpora.

A disagreement between the oracle and the solver is the artifact's most
important failure mode, so each one is captured as a reproduction bundle
(formula, level document, trace, verdicts) on disk.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from satplat.formula import (
    QBF_BOUND,
    SAT_BOUND,
    Clause,
    CnfFormula,
    Literal,
    QbfFormula,
    Quantifier,
    gen_random_3cnf,
    parse_dimacs,
    parse_qdimacs,
    qbf_oracle,
    sat_oracle,
    write_dimacs,
    write_qdimacs,
)
from satplat.compiler import compile_3sat, compile_qbf
from satplat.level import NP, PSPACE, Level, own_kind, save_level
from satplat.sim import (
    BLOCKED,
    DEATH,
    Move,
    _apply,
    _cell,
    _run,
    replay_states,
    sim_context,
    trace_to_text,
)
# Not called here: the benchmark's traced pass wraps `verify.replay` and `verify.step`.
from satplat.sim import replay, step  # noqa: F401
from satplat.solver import LimitExceeded, SearchStats, Solvable, solve

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
LIMIT = "limit"
MAX_MUTATION_ATTEMPTS = 10_000  # draws `mutate_trace` makes before it gives up
CHUNK_ITEMS = 8  # corpus items a worker process takes per task
# Every file a repro bundle may hold; a rewrite leaves none of another report's.
BUNDLE_FILES = ("formula.cnf", "formula.qdimacs", "level.json", "witness.trace", "verdicts.json")


@own_kind
class EquivalenceReport(NamedTuple):
    formula_text: str
    variant: str
    oracle_verdict: bool
    level_verdict: str  # solvable | unsolvable | limit
    trace: tuple[Move, ...] | None
    stats: SearchStats

    @property
    def agree(self) -> bool:
        """The level's verdict is the oracle's; a search limit agrees with neither."""
        verdict = self.level_verdict
        return verdict != LIMIT and (verdict == SOLVABLE) == self.oracle_verdict


@dataclass(frozen=True)
class CorpusSpec:
    """EXHAUSTIVE mode enumerates all formulas up to (n_max, k_max);
    RANDOM draws `count` seeded formulas at exactly (n, k).  The variant
    selects the NP (3-CNF) or PSPACE (QBF) pipeline.  A spec whose
    formulas may have more variables than its oracle takes (`SAT_BOUND`,
    `QBF_BOUND`) is refused with ValueError.  A dataclass, not a
    NamedTuple: `__post_init__` checks the fields, and a NamedTuple body
    cannot define `__new__`."""

    mode: str  # "EXHAUSTIVE" | "RANDOM"
    variant: str = NP
    n_max: int = 2
    k_max: int = 2
    n: int = 3
    k: int = 2
    count: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("EXHAUSTIVE", "RANDOM") or self.variant not in (NP, PSPACE):
            raise ValueError(f"corpus mode must be EXHAUSTIVE or RANDOM and variant NP or "
                             f"PSPACE, got mode={self.mode!r}, variant={self.variant!r}")
        if self.mode == "RANDOM" and self.count < 1:
            raise ValueError(f"corpus count must be at least 1, got {self.count}")
        if self.mode == "EXHAUSTIVE" and (self.n_max < 0 or self.k_max < 0):
            raise ValueError(f"corpus bounds must be non-negative, got "
                             f"n_max={self.n_max}, k_max={self.k_max}")
        # Refused before any item runs: the oracle itself would refuse
        # only the first item this large, after every smaller one.
        n = self.n_max if self.mode == "EXHAUSTIVE" else self.n
        oracle, bound = (("sat_oracle", SAT_BOUND) if self.variant == NP
                         else ("qbf_oracle", QBF_BOUND))
        if n > bound:
            raise ValueError(f"{oracle} bound exceeded: corpus formulas of {n} variables, "
                             f"over the bound of {bound}")


@dataclass
class CorpusSummary:
    """A corpus run: its reports, and the counts derived from them.  A
    dataclass, not a NamedTuple: it is mutable, and each summary gets a
    fresh `reports` list, where a NamedTuple's default is one shared
    object."""

    spec: CorpusSpec
    reports: list[EquivalenceReport] = field(default_factory=list)

    @property
    def items(self) -> int:
        return len(self.reports)

    @property
    def agreements(self) -> int:
        return sum(r.agree for r in self.reports)

    @property
    def limit_hits(self) -> int:
        return sum(r.level_verdict == LIMIT for r in self.reports)

    @property
    def disagreements(self) -> list[EquivalenceReport]:
        return [r for r in self.reports if not r.agree]

    @property
    def worst_states(self) -> int:
        return max((r.stats.states_visited for r in self.reports), default=0)

    @property
    def total_elapsed(self) -> float:
        return sum(r.stats.elapsed for r in self.reports)

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.items and not self.limit_hits

    def text(self) -> str:
        lines = [
            f"corpus {self.spec.mode} {self.spec.variant}: {self.items} items, "
            f"{self.agreements} agree, {len(self.disagreements)} disagree, "
            f"{self.limit_hits} limit",
            f"worst search {self.worst_states} states, total solve time "
            f"{self.total_elapsed:.1f}s",
        ]
        for r in self.disagreements:
            lines.append(f"  DISAGREE oracle={r.oracle_verdict} level={r.level_verdict}: "
                         + r.formula_text.replace("\n", " | "))
        return "\n".join(lines) + "\n"


def _report(variant: str, text: str, oracle: bool, level: Level) -> EquivalenceReport:
    """Solve a compiled level and compare its verdict with the oracle's."""
    result = solve(level)
    trace = result.trace if isinstance(result, Solvable) else None
    verdict = (SOLVABLE if trace is not None else
               LIMIT if isinstance(result, LimitExceeded) else UNSOLVABLE)
    return EquivalenceReport(text, variant, oracle, verdict, trace, result.stats)


def verify_formula(formula: CnfFormula) -> EquivalenceReport:
    """Compare sat_oracle with solving the compiled NP level."""
    return _report(NP, write_dimacs(formula), sat_oracle(formula) is not None,
                   compile_3sat(formula))


def verify_qbf(qbf: QbfFormula) -> EquivalenceReport:
    """Compare qbf_oracle with solving the compiled PSPACE level."""
    return _report(PSPACE, write_qdimacs(qbf), qbf_oracle(qbf), compile_qbf(qbf))


# --- corpora ----------------------------------------------------------------


def enumerate_cnf(n_max: int, k_max: int):
    """Every 3-CNF with at most n_max declared variables and k_max
    clauses, deduplicated: clause literal multisets and clause multisets
    are enumerated in canonical sorted order."""
    for n in range(n_max + 1):
        literals = [Literal(v, neg) for v in range(1, n + 1) for neg in (False, True)]
        clauses = [Clause(c) for c in
                   itertools.combinations_with_replacement(literals, 3)]
        for k in range(k_max + 1):
            for combo in itertools.combinations_with_replacement(clauses, k):
                yield CnfFormula(n, combo)


def enumerate_qbf(prefix_max: int, k_max: int):
    """Every QBF whose prefix length is at most prefix_max over the
    exhaustive matrix set with at most k_max clauses."""
    for n in range(prefix_max + 1):
        matrices = [f for f in enumerate_cnf(n, k_max) if f.num_variables == n]
        for quants in itertools.product((Quantifier.EXISTS, Quantifier.FORALL), repeat=n):
            prefix = tuple(zip(quants, range(1, n + 1)))
            for matrix in matrices:
                yield QbfFormula(prefix, matrix)


def gen_random_qbf(n: int, k: int, seed: int) -> QbfFormula:
    """Seeded random QBF: a uniform quantifier per variable plus a random
    3-CNF matrix (matrix PRNG stream is offset from the prefix stream)."""
    rng = random.Random(seed)
    prefix = tuple(
        (Quantifier.FORALL if rng.getrandbits(1) else Quantifier.EXISTS, v)
        for v in range(1, n + 1)
    )
    return QbfFormula(prefix, gen_random_3cnf(n, k, seed + 0x5A7))


def corpus_items(spec: CorpusSpec) -> list[CnfFormula] | list[QbfFormula]:
    """The corpus as formulas, `CnfFormula`s for NP and `QbfFormula`s for
    PSPACE, in deterministic order."""
    if spec.mode == "EXHAUSTIVE":
        enumerate_ = enumerate_cnf if spec.variant == NP else enumerate_qbf
        return list(enumerate_(spec.n_max, spec.k_max))
    gen = gen_random_3cnf if spec.variant == NP else gen_random_qbf
    return [gen(spec.n, spec.k, spec.seed + i) for i in range(spec.count)]


def run_items(items: list[CnfFormula] | list[QbfFormula], spec: CorpusSpec,
              jobs: int = 1) -> CorpusSummary:
    """Verify an explicit list of formulas under a spec's variant, in at
    most `jobs` worker processes.  The process pool is imported only
    when more than one worker runs, so importing this module (and the
    CLI) loads no multiprocessing machinery."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    runner = verify_formula if spec.variant == NP else verify_qbf
    # The pool hands out CHUNK_ITEMS items at a time and starts every
    # worker up front, so a worker beyond the chunk count would only idle.
    workers = min(jobs, math.ceil(len(items) / CHUNK_ITEMS))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return CorpusSummary(spec, list(pool.map(runner, items, chunksize=CHUNK_ITEMS)))
    return CorpusSummary(spec, [runner(f) for f in items])


def run_corpus(spec: CorpusSpec, jobs: int = 1,
               repro_dir: str | Path | None = None) -> CorpusSummary:
    """Verify every corpus item; aggregation is order-independent and the
    summary is deterministic for a given spec.  Disagreements are written
    as reproduction bundles under repro_dir, in place of any earlier
    run's."""
    summary = run_items(corpus_items(spec), spec, jobs)
    if repro_dir is not None:
        write_repro_bundles(summary.disagreements, repro_dir)
    return summary


def write_repro_bundles(reports, repro_dir: str | Path) -> list[Path]:
    """One directory per disagreement: the formula, the compiled level
    document, the trace if any, and both verdicts.  Every other `case_NNNN`
    directory under repro_dir, left by an earlier call, is removed."""
    root = Path(repro_dir)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for i, r in enumerate(reports):
        case = root / f"case_{i:04d}"
        case.mkdir(exist_ok=True)
        if r.variant == NP:
            files = {"formula.cnf": r.formula_text}
            level = compile_3sat(parse_dimacs(r.formula_text))
        else:
            files = {"formula.qdimacs": r.formula_text}
            level = compile_qbf(parse_qdimacs(r.formula_text))
        files["level.json"] = save_level(level)
        if r.trace is not None:
            files["witness.trace"] = trace_to_text(r.trace)
        files["verdicts.json"] = json.dumps({
            "oracle": r.oracle_verdict,
            "level": r.level_verdict,
            "agree": r.agree,
        }, indent=2) + "\n"
        for name in BUNDLE_FILES:
            if name in files:
                (case / name).write_text(files[name])
            else:
                (case / name).unlink(missing_ok=True)
        written.append(case)
    for stale in set(root.iterdir()) - set(written):
        if stale.is_dir() and re.fullmatch(r"case_[0-9]{4,}", stale.name):
            shutil.rmtree(stale)
    return written


# --- witness integrity ------------------------------------------------------


def trace_prefix_states(level: Level, trace):
    """The state before each move of a clean replay (so states[i] is the
    state move i applies to)."""
    return list(replay_states(level, trace))


def _mutants(ctx, trace: tuple, i: int, states, rng: random.Random):
    """The mutants drawn at move i, in trial order, each with whether it
    still wins: the deletion of move i, or each substitution of move i
    whose outcome differs from its, drawn one at a time in a uniformly
    random order (a partial Fisher-Yates shuffle of the move indices).
    The check applies only the moves from the mutation point on, from
    `states[i]`, with the replay loop itself (`sim._run`): a substitute
    that is blocked or dies at move i loses at once."""
    deletion = rng.random() < 0.5
    if i >= len(states):  # the first i moves do not replay, so neither does a mutant
        if deletion:
            yield trace[:i] + trace[i + 1:], False
        return
    before = states[i]
    cell = _cell(ctx, before)
    rest = trace[i + 1:]
    if deletion:
        yield trace[:i] + rest, _wins(ctx, before, rest)
        return
    bits = before[2:]
    original = ctx.index.get(trace[i])
    outcome = None if original is None else _outcome(ctx, cell, original, bits)
    pool = [mi for mi in range(len(ctx.moves)) if mi != original]
    for k in range(len(pool) - 1, -1, -1):
        j = rng.randrange(k + 1)
        mi, pool[j] = pool[j], pool[k]
        out = _outcome(ctx, cell, mi, bits)
        applies = out is not BLOCKED and out is not DEATH
        if applies and out == outcome:
            continue  # outcome-identical: equivalent by construction
        yield trace[:i] + (ctx.moves[mi],) + rest, applies and _wins(ctx, out, rest)


def _outcome(ctx, cell: int, mi: int, bits):
    """`step` on the context: the fields of the state after move `mi` (an
    index into `ctx.moves`) from `cell` with the `(has_dash, doors,
    plats)` bits, `BLOCKED` or `DEATH`."""
    rec = ctx.record(cell, mi)
    return BLOCKED if rec is None else _apply(rec, *bits)


def _wins(ctx, state, moves) -> bool:
    """Whether `moves` all apply from `state` and end on the flag."""
    states, ok = _run(ctx, state, moves)
    return ok and states[-1][:2] == ctx.flag


def mutate_trace(level: Level, trace, rng: random.Random, states=None, counters=None):
    """One random single-move corruption (deletion or substitution) of a
    witness trace, as a tuple that fails `replay`.

    A draw picks a move uniformly, then deletes it or, with the same
    chance, substitutes another canonical move for it, trying the
    substitutes in a uniformly random order.  Each draw is checked
    from the mutation point on, from the state before the mutated move,
    with the replay loop that `replay` runs.

    Equivalent mutants are excluded, as is standard in mutation testing:
    a substitute whose outcome equals the original move's is skipped,
    and a draw whose result still replays to the flag is an alternative
    valid witness, not a corruption (for example, substituting a walk
    with a dash that gets clamped by the same wall, or a taller jump with
    the same landing).  Such draws are rejected and redrawn; pass a
    `counters` dict to see how many.  Pass precomputed
    `trace_prefix_states` when mutating one trace many times.
    """
    trace = tuple(trace)
    if states is None:
        states = trace_prefix_states(level, trace)
    ctx = sim_context(level)
    for _ in range(MAX_MUTATION_ATTEMPTS):
        i = rng.randrange(len(trace))
        for mutant, wins in _mutants(ctx, trace, i, states, rng):
            if not wins:
                return mutant
            if counters is not None:
                counters["equivalent"] = counters.get("equivalent", 0) + 1
    raise ValueError("no non-equivalent mutation found")
