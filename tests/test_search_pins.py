"""Pinned search results: the verdict, witness trace and search counters
of a fixed, seeded set of compiled levels hash to a recorded SHA-256.

A change to the step core or the breadth-first search that alters a
verdict, a trace, the number of states expanded or visited, the
frontier peak or the number of signatures whose successors were
computed (`successor_lists`) on any of these levels changes the digest.
So a read mask that grows wider shows here, since it splits signatures.
Such a change must be declared, and the digest re-recorded with it.
"""

import hashlib

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import gen_random_3cnf, gen_random_qbf
from satplat.sim import trace_to_text
from satplat.solver import Solvable, solve

NP_DIGEST = "bcddc2afe624a0bdc65e1627e1420359809dea251a75fc6021c0587e09e62f0c"
QBF_DIGEST = "2317ba611740c183e07e05109a330f690272684890749493a7b197aa3c2781f8"
LIMIT_DIGEST = "ec9bf30e92e598a34924a16f9abe69f8043e0e397304a202715e0a4aceb550ec"

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
                 f"{s.states_expanded} {s.states_visited} {s.frontier_peak} "
                 f"{s.successor_lists}\0".encode())
    return h.hexdigest()


def test_np_search_results_are_pinned():
    assert digest(np_levels()) == NP_DIGEST


def test_qbf_search_results_are_pinned():
    assert digest(qbf_levels()) == QBF_DIGEST


def test_limited_search_results_are_pinned():
    levels = [compile_3sat(gen_random_3cnf(5, 5, seed=500)),
              compile_qbf(gen_random_qbf(3, 2, seed=321))]
    assert digest(levels, max_states=1000) == LIMIT_DIGEST
