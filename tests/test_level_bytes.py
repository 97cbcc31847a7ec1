"""Pinned level documents: the saved bytes of a fixed, seeded set of
compiled levels hash to a recorded SHA-256.

A change to the gadget library or the compiler that moves one cell, one
entity or one port in any of these levels changes the digest.  Such a
change must be declared, and the digest re-recorded with it.
"""

import hashlib

from satplat.compiler import compile_3sat, compile_qbf
from satplat.formula import Quantifier, QbfFormula, gen_random_3cnf
from satplat.level import save_level

NP_DIGEST = "828d5352788550f7eba51fdf8420699d8c4eef95942d216ee490e93218bd8a3c"
QBF_DIGEST = "7f657375f37dd44735d636e6927abf0b1f6099a7432b46954dd029672c8ca5a6"

E, A = Quantifier.EXISTS, Quantifier.FORALL
QBF_PREFIXES = ("E", "A", "EE", "AA", "EA", "AE", "EEE", "AAA", "EAE", "AEA",
                "EEAA", "AEEA", "EAAE", "AAAE")


def np_levels():
    for n in range(0, 8):
        for k in ((0,) if n == 0 else (0, 1, 4, 7)):
            yield compile_3sat(gen_random_3cnf(n, k, seed=1000 * n + k))


def qbf_levels():
    for p, letters in enumerate(QBF_PREFIXES):
        n = len(letters)
        prefix = tuple((E if q == "E" else A, v) for v, q in enumerate(letters, start=1))
        for k in (0, 1, 3, 4):
            matrix = gen_random_3cnf(n, k, seed=100 * p + k)
            yield compile_qbf(QbfFormula(prefix, matrix))


def digest(levels) -> str:
    h = hashlib.sha256()
    for level in levels:
        h.update(save_level(level).encode())
        h.update(b"\0")
    return h.hexdigest()


def test_np_level_bytes_are_pinned():
    assert digest(np_levels()) == NP_DIGEST


def test_qbf_level_bytes_are_pinned():
    assert digest(qbf_levels()) == QBF_DIGEST
