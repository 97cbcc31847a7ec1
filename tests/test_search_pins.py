"""Pinned search results: the verdict, witness trace and search counters
of a fixed, seeded set of compiled levels hash to a recorded SHA-256.

A change to the step core or the breadth-first search that alters a
verdict, a trace, the number of states expanded or visited, or the
frontier peak on any of these levels changes the digest.  Such a change
must be declared, and the digest re-recorded with it.
"""

import hashlib

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import gen_random_3cnf
from satplat.sim import trace_to_text
from satplat.solver import Solvable, solve
from satplat.verify import gen_random_qbf

NP_DIGEST = "bd5b8573baafda59a28dd6e44dc66344666781656b3b5097f256eecd38d4e3fe"
QBF_DIGEST = "8f04db7c7c8fca42dcdcdd1ddb7517a9feb69d5ed12f99c42ef8662bf34b09ac"
LIMIT_DIGEST = "8e869384ae0307886b900c66d77b7bfebfbefbd570edfa575caeed4b2a2a0bde"

# (n, k, seed) of unsatisfiable 3-CNFs small enough to compile.
NP_UNSAT = ((1, 4, 5), (2, 6, 9), (2, 8, 2))


def np_levels():
    for n in range(2, 7):
        for seed in (0, 1):
            yield compile_3sat(gen_random_3cnf(n, n, seed=100 * n + seed))
    for n, k, seed in NP_UNSAT:
        yield compile_3sat(gen_random_3cnf(n, k, seed=seed))


def qbf_levels():
    for n in (2, 3):
        for k in (2, 3):
            for seed in range(3):
                yield compile_qbf(gen_random_qbf(n, k, seed=100 * n + 10 * k + seed))


def digest(levels, max_states=None) -> str:
    h = hashlib.sha256()
    for level in levels:
        result = solve(level) if max_states is None else solve(level, max_states=max_states)
        trace = trace_to_text(result.trace) if isinstance(result, Solvable) else ""
        s = result.stats
        h.update(f"{type(result).__name__}\n{trace}"
                 f"{s.states_expanded} {s.states_visited} {s.frontier_peak}\0".encode())
    return h.hexdigest()


def test_np_search_results_are_pinned():
    assert digest(np_levels()) == NP_DIGEST


def test_qbf_search_results_are_pinned():
    assert digest(qbf_levels()) == QBF_DIGEST


def test_limited_search_results_are_pinned():
    levels = [compile_3sat(gen_random_3cnf(5, 5, seed=500)),
              compile_qbf(gen_random_qbf(3, 2, seed=321))]
    assert digest(levels, max_states=1000) == LIMIT_DIGEST
