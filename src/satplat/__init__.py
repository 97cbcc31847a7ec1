"""satplat: a reduction workbench that compiles CNF/QBF formulas into
grid-platformer puzzle levels and checks the compiled levels against
brute-force logic oracles.

The pieces, bottom up:

- ``formula``:  3-CNF / quantified formulas, DIMACS parsing, brute-force
  oracles (the ground truth everything else is measured against).
- ``level``:    the tile-grid level data model with serialization and
  ASCII rendering.
- ``sim``:      deterministic movement semantics (walk, jump, 8-way dash,
  gravity, crumbling platforms, buttons, doors, space blocks).
- ``gadgets``:  stampable blueprints with machine-checked reachability
  contracts.
- ``compiler``: lays out and wires gadgets into complete levels.
- ``solver``:   exhaustive BFS over game states; produces witness traces.
- ``verify``:   compile + solve + compare with the oracles, one formula
  at a time; witness mutation.
- ``corpus``:   formula corpora, run through ``verify`` in worker
  processes, with repro bundles for disagreements.
- ``cli``:      command-line front end.
"""

from satplat.formula import CnfFormula, QbfFormula, parse_dimacs, parse_qdimacs
from satplat.level import Level, load_level, save_level
from satplat.sim import GameState, initial_state, replay, step
from satplat.solver import solve

__all__ = [
    "CnfFormula",
    "QbfFormula",
    "parse_dimacs",
    "parse_qdimacs",
    "Level",
    "load_level",
    "save_level",
    "GameState",
    "initial_state",
    "step",
    "replay",
    "solve",
]

__version__ = "0.1.0"
