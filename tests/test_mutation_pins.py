"""Pinned mutant streams: the mutants `mutate_trace` draws for fixed seeds
on the witnesses of a fixed set of compiled levels, and the number of
equivalent draws it rejects, hash to a recorded SHA-256, one for the NP
levels and one for the QBF levels.

A change to how `mutate_trace` draws (how it uses the random stream, the
order it tries substitutes in, or which draws it counts as equivalent)
changes the digests; so does a change to the compiler or the search that
alters a level's witness, which changes only its own variant's digest.
Such a change must be declared, and the digest re-recorded with it.
"""

import hashlib
import random

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import gen_random_3cnf, parse_dimacs
from satplat.sim import trace_to_text
from satplat.solver import Solvable, solve
from satplat.verify import gen_random_qbf, mutate_trace
from tests.conftest import SAMPLE_DIMACS

NP_MUTANT_DIGEST = "281151a30023fecfe85e7d4c4ca07dc1b187b31a3eded24d7d3a0d292f0d12af"
QBF_MUTANT_DIGEST = "56c5f27a9e177ea0e82ba276c0d2c4cccd44ad9de1b6c6f44e615f38805ba67a"
SEEDS = (0, 1, 2)
MUTANTS = 200  # per seed and witness: enough that some draws are equivalent


def np_levels():
    """The sample formula's NP level and a random NP level."""
    return (compile_3sat(parse_dimacs(SAMPLE_DIMACS)),
            compile_3sat(gen_random_3cnf(4, 4, seed=400)))


def qbf_levels():
    """Two random QBF levels."""
    return (compile_qbf(gen_random_qbf(3, 2, seed=321)),
            compile_qbf(gen_random_qbf(3, 2, seed=324)))


def digest(levels) -> str:
    """The mutants drawn on each level's witness for every seed, and the
    number of equivalent draws rejected."""
    h = hashlib.sha256()
    for level in levels:
        result = solve(level)
        assert isinstance(result, Solvable)
        for seed in SEEDS:
            rng, counters = random.Random(seed), {}
            for _ in range(MUTANTS):
                h.update(trace_to_text(mutate_trace(level, result.trace, rng, counters=counters))
                         .encode() + b"\0")
            h.update(f"{counters.get('equivalent', 0)}\0".encode())
    return h.hexdigest()


def test_np_mutant_streams_are_pinned():
    assert digest(np_levels()) == NP_MUTANT_DIGEST


def test_qbf_mutant_streams_are_pinned():
    assert digest(qbf_levels()) == QBF_MUTANT_DIGEST
