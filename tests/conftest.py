from __future__ import annotations

import pytest

from satplat.formula import parse_dimacs
from satplat.level import EMPTY, SOLID, Flag, Level, LevelBuilder, Spawn

# The bundled worked example: (x1 | x2 | ~x3) & (~x1 | x2 | x3).
SAMPLE_DIMACS = "p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"


@pytest.fixture(scope="session")
def sample_formula():
    return parse_dimacs(SAMPLE_DIMACS)


def level_from_art(art, entities=(), validate=True) -> Level:
    """Build a level from top-first ASCII rows.

    '#' is solid and every other glyph is carved empty; 'S'/'F' place the
    spawn and flag.  Other glyphs ('=', 'B', '*', ...) are decorative
    markers for readability - the matching entities must be supplied
    through `entities`.
    """
    rows = [line for line in art.strip("\n").splitlines()]
    height = len(rows)
    width = len(rows[0])
    builder = LevelBuilder(width, height)
    spawn = flag = None
    for top_y, line in enumerate(rows):
        y = height - 1 - top_y
        for x, ch in enumerate(line):
            if ch == SOLID:
                continue
            builder.carve(x, y)
            if ch == "S":
                spawn = (x, y)
            elif ch == "F":
                flag = (x, y)
    for ent in entities:
        for cell in ([ent.cell] if hasattr(ent, "cell") else ent.cells):
            if builder.grid[cell[1]][cell[0]] != EMPTY:
                builder.carve(*cell)
        builder.add(ent)
    if spawn:
        builder.add(Spawn(spawn))
    if flag:
        builder.add(Flag(flag))
    if not validate:  # a deliberately invalid level, for the checks that reject it
        return Level(tuple("".join(row) for row in builder.grid), tuple(builder.entities))
    return builder.build()


MINIMAL_ART = """
####
#SF#
####
"""


@pytest.fixture
def minimal_level():
    return level_from_art(MINIMAL_ART)
