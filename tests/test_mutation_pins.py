"""Pinned mutant streams: the mutants `mutate_trace` draws for fixed seeds
on the witnesses of a fixed set of compiled levels, and the number of
equivalent draws it rejects, hash to a recorded SHA-256.

A change to how `mutate_trace` draws (how it uses the random stream, the
order it tries substitutes in, or which draws it counts as equivalent)
changes the digest.  Such a change must be declared, and the digest
re-recorded with it.
"""

import hashlib
import random

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import gen_random_3cnf, parse_dimacs
from satplat.sim import trace_to_text
from satplat.solver import Solvable, solve
from satplat.verify import gen_random_qbf, mutate_trace
from tests.conftest import SAMPLE_DIMACS

MUTANT_DIGEST = "2a829fcdedfff3648fa07a103fede63f9f66baae1e331f7d494027c37336aa47"
SEEDS = (0, 1, 2)
MUTANTS = 200  # per seed and witness: enough that some draws are equivalent


def witnessed_levels():
    """The sample formula's NP level, a random NP level and two random QBF
    levels, each with its witness."""
    levels = (compile_3sat(parse_dimacs(SAMPLE_DIMACS)),
              compile_3sat(gen_random_3cnf(4, 4, seed=400)),
              compile_qbf(gen_random_qbf(3, 2, seed=321)),
              compile_qbf(gen_random_qbf(3, 2, seed=324)))
    for level in levels:
        result = solve(level)
        assert isinstance(result, Solvable)
        yield level, result.trace


def test_mutant_streams_are_pinned():
    h = hashlib.sha256()
    for level, witness in witnessed_levels():
        for seed in SEEDS:
            rng, counters = random.Random(seed), {}
            for _ in range(MUTANTS):
                h.update(trace_to_text(mutate_trace(level, witness, rng, counters=counters))
                         .encode() + b"\0")
            h.update(f"{counters.get('equivalent', 0)}\0".encode())
    assert h.hexdigest() == MUTANT_DIGEST
