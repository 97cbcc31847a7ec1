"""The NP pipeline end to end.

Compiles the two-clause running example into a level, solves it by
exhaustive search, replays the witness, and contrasts with an
unsatisfiable formula.
"""

from satplat.compiler import compile_3sat, plan_3sat, route_and_place, witness_trace
from satplat.formula import parse_dimacs, sat_oracle
from satplat.level import Door, UnstablePlatform, render_ascii
from satplat.sim import replay, trace_to_text
from satplat.solver import Solvable, solve

formula = parse_dimacs("p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n")
plan = plan_3sat(formula)
level = route_and_place(plan)
platforms = sum(isinstance(e, UnstablePlatform) for e in level.entities)
doors = sum(isinstance(e, Door) for e in level.entities)
print(f"compiled to a {level.width}x{level.height} grid with "
      f"{platforms} platforms, {doors} doors and "
      f"{len(plan.wires)} wires, none crossing another\n")
print(render_ascii(level))

result = solve(level)
assert isinstance(result, Solvable)
print(f"\nsolved: {len(result.trace)} moves, "
      f"{result.stats.states_visited} states visited")
print("the witness replays:", replay(level, result.trace))
print("\nfirst ten moves:")
print(trace_to_text(result.trace[:10]))

# the documented substitution x1=1, x2=0, x3=1 also works
scripted = witness_trace(level, {1: True, 2: False, 3: True}, 3)
print("assignment-guided trace replays:", replay(level, scripted))

unsat = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
print("\nan unsatisfiable formula compiles to an unsolvable level:",
      type(solve(compile_3sat(unsat))).__name__)
print("(the oracle agrees: sat =", sat_oracle(unsat) is not None, ")")
