"""Empirical verification of the reduction: compile a formula, solve the
level, and compare the verdict with the brute-force oracle's
(`verify_formula`, `verify_qbf`); and witness integrity: corrupt a
witness trace by one move so that it no longer replays (`mutate_trace`).

Corpora of formulas, their runner and its reproduction bundles are in
`satplat.corpus`, which nothing on the compile, solve or replay path
imports.
"""

import random
from typing import NamedTuple

from satplat.formula import (
    CnfFormula,
    QbfFormula,
    qbf_oracle,
    sat_oracle,
    write_dimacs,
    write_qdimacs,
)
from satplat.compiler import compile_3sat, compile_qbf
from satplat.level import NP, PSPACE, Level, own_kind
from satplat.sim import (
    BLOCKED,
    DEATH,
    Move,
    _apply,
    _cell,
    _run,
    replay_states,
    sim_context,
)
# Not called here: the benchmark's traced pass wraps `verify.replay` and `verify.step`.
from satplat.sim import replay, step  # noqa: F401
from satplat.solver import LimitExceeded, SearchStats, Solvable, solve

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
LIMIT = "limit"
MAX_MUTATION_ATTEMPTS = 10_000  # draws `mutate_trace` makes before it gives up


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
