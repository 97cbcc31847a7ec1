"""Formula corpora, run through the equivalence check of `satplat.verify`.

A corpus is every small formula up to a size (EXHAUSTIVE) or a seeded
random draw at one size (RANDOM), of the NP (3-CNF) or the PSPACE (QBF)
variant.  A disagreement between the oracle and the solver is the
artifact's most important failure mode, so each one is captured as a
reproduction bundle (formula, level document, trace, verdicts) on disk.
"""

import itertools
import json
import math
import re
import shutil
from pathlib import Path
from typing import NamedTuple

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import (
    QBF_BOUND,
    SAT_BOUND,
    CnfFormula,
    QbfFormula,
    Quantifier,
    gen_random_3cnf,
    gen_random_qbf,
    parse_dimacs,
    parse_qdimacs,
)
from satplat.level import NP, PSPACE, checked, own_kind, save_level
from satplat.sim import trace_to_text
from satplat.verify import LIMIT, EquivalenceReport, verify_formula, verify_qbf

CHUNK_ITEMS = 8  # corpus items a worker process takes per task
# Every file a repro bundle may hold; a rewrite leaves none of another report's.
BUNDLE_FILES = ("formula.cnf", "formula.qdimacs", "level.json", "witness.trace", "verdicts.json")


@checked
class CorpusSpec(NamedTuple):
    """EXHAUSTIVE mode enumerates all formulas up to (n_max, k_max);
    RANDOM draws `count` seeded formulas at exactly (n, k).  The variant
    selects the NP (3-CNF) or PSPACE (QBF) pipeline.  A spec whose
    formulas may have more variables than its oracle takes (`SAT_BOUND`,
    `QBF_BOUND`) is refused with ValueError."""

    mode: str  # "EXHAUSTIVE" | "RANDOM"
    variant: str = NP
    n_max: int = 2
    k_max: int = 2
    n: int = 3
    k: int = 2
    count: int = 50
    seed: int = 0

    def _check(self):
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


@own_kind
class CorpusSummary(NamedTuple):
    """A corpus run: its reports, in item order, and the counts derived
    from them."""

    spec: CorpusSpec
    reports: tuple[EquivalenceReport, ...]

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


def enumerate_cnf(n_max: int, k_max: int):
    """Every 3-CNF with at most n_max declared variables and k_max
    clauses, deduplicated: clause literal multisets and clause multisets
    are enumerated in canonical sorted order."""
    for n in range(n_max + 1):
        literals = [lit for v in range(1, n + 1) for lit in (v, -v)]
        clauses = list(itertools.combinations_with_replacement(literals, 3))
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
            return CorpusSummary(spec, tuple(pool.map(runner, items, chunksize=CHUNK_ITEMS)))
    return CorpusSummary(spec, tuple(runner(f) for f in items))


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
