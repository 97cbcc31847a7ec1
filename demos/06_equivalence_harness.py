"""The verification harness: the reduction's empirical theorem.

Runs oracle-vs-solver equivalence over corpora.  A disagreement would be
the artifact's most serious bug; the harness writes a reproduction
bundle for each one (none expected here).
"""

from satplat.corpus import CorpusSpec, run_corpus
from satplat.formula import parse_dimacs
from satplat.verify import verify_formula

report = verify_formula(parse_dimacs("p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"))
print(f"worked example: oracle={report.oracle_verdict} "
      f"level={report.level_verdict} agree={report.agree}\n")

print("exhaustive NP corpus, every formula with n<=1, k<=2:")
print(run_corpus(CorpusSpec("EXHAUSTIVE", "NP", n_max=1, k_max=2)).text())

print("seeded random NP corpus at n=4, k=4:")
print(run_corpus(CorpusSpec("RANDOM", "NP", n=4, k=4, count=20, seed=7)).text())

print("seeded random PSPACE corpus, prefix length 2:")
print(run_corpus(CorpusSpec("RANDOM", "PSPACE", n=2, k=2, count=10, seed=7)).text())
