"""Formulas and the brute-force oracles.

Everything downstream is verified against these oracles, so this is the
place to start: parse a DIMACS formula, evaluate it, enumerate its
models, and evaluate a quantified formula.
"""

from satplat.formula import (
    assignment_from_index,
    eval_cnf,
    gen_random_3cnf,
    parse_dimacs,
    parse_qdimacs,
    qbf_oracle,
    sat_oracle,
    write_dimacs,
)

# The running example used throughout the repo: (x1|x2|~x3) & (~x1|x2|x3)
text = "p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"
formula = parse_dimacs(text)
print("formula:", " & ".join("(" + " | ".join(map(str, c)) + ")" for c in formula.clauses))

assignment = {1: True, 2: False, 3: True}
print("x1=1 x2=0 x3=1 satisfies it:", eval_cnf(formula, assignment))

models = [i for i in range(8) if eval_cnf(formula, assignment_from_index(3, i))]
print(f"{len(models)} of 8 assignments are models")
print("least witness:", sat_oracle(formula))

# a quantified formula: for every x2 there must be a way to satisfy both
qbf = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 2 0\n1 -2 -2 0")
print("exists x1, forall x2, (x1|x2)&(x1|~x2):", qbf_oracle(qbf))

# random corpus generation is seeded and reproducible
f1 = gen_random_3cnf(4, 3, seed=42)
f2 = gen_random_3cnf(4, 3, seed=42)
assert f1 == f2
print("\na seeded random formula:\n" + write_dimacs(f1))
