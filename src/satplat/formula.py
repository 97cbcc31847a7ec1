"""3-CNF and quantified Boolean formulas with brute-force oracles.

A literal is its DIMACS int, v for x_v and -v for its negation, and a
clause is a tuple of three of them.

Everything here is deliberately simple: the enumeration oracles are the
ground truth that the level compiler is verified against, so they must be
trivially auditable.
"""

import itertools
import random
from enum import Enum
from typing import NamedTuple

from satplat.level import checked

SAT_BOUND = 20  # most variables `sat_oracle` takes
QBF_BOUND = 12  # most variables `qbf_oracle` takes


class FormulaError(ValueError):
    """Malformed formula text or an out-of-contract formula operation."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Quantifier(Enum):
    EXISTS = "e"
    FORALL = "a"


@checked
class CnfFormula(NamedTuple):
    """A 3-CNF over the variables 1..num_variables.  Each clause is a
    tuple of three DIMACS literals and may repeat one, as parsing pads
    short clauses that way."""

    num_variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def _check(self):
        n = self.num_variables
        if n < 0:
            raise FormulaError("num_variables must be >= 0")
        if not isinstance(self.clauses, tuple):
            raise FormulaError(f"clauses must be a tuple, got {type(self.clauses).__name__}")
        for ci, clause in enumerate(self.clauses, start=1):
            if not isinstance(clause, tuple):
                raise FormulaError(f"clause {ci} must be a tuple, got {type(clause).__name__}")
            if len(clause) != 3:
                raise FormulaError(f"clause {ci} must have exactly 3 literals, got {len(clause)}")
            for lit in clause:
                if type(lit) is not int or lit == 0:
                    raise FormulaError(f"clause {ci} has literal {lit!r}, not a non-zero int")
                if abs(lit) > n:
                    raise FormulaError(f"clause {ci} uses variable {abs(lit)} "
                                       f"but the formula declares only {n}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@checked
class QbfFormula(NamedTuple):
    """A prenex quantified formula over a 3-CNF matrix.

    The prefix quantifies every matrix variable exactly once, outermost
    first.
    """

    prefix: tuple[tuple[Quantifier, int], ...]
    matrix: CnfFormula

    def _check(self):
        seen = set()
        for _, var in self.prefix:
            if var in seen:
                raise FormulaError(f"variable {var} quantified twice")
            seen.add(var)
        expected = set(range(1, self.matrix.num_variables + 1))
        if seen != expected:
            raise FormulaError(
                f"prefix must quantify variables {sorted(expected)} exactly once, got {sorted(seen)}"
            )


# An assignment is a plain dict {variable: bool}, total over 1..n.
Assignment = dict[int, bool]


def _check_total(formula: CnfFormula, assignment: Assignment) -> None:
    expected = set(range(1, formula.num_variables + 1))
    if set(assignment) != expected:
        raise FormulaError(
            f"assignment domain {sorted(assignment)} != variables {sorted(expected)}"
        )


def eval_cnf(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause has at least one true literal."""
    _check_total(formula, assignment)
    for clause in formula.clauses:
        if not any(assignment[abs(l)] != (l < 0) for l in clause):
            return False
    return True


def assignment_from_index(n: int, index: int) -> Assignment:
    """The index-th assignment in binary-counting order; x1 is the low bit."""
    return {v: bool((index >> (v - 1)) & 1) for v in range(1, n + 1)}


def sat_oracle(formula: CnfFormula) -> Assignment | None:
    """Exhaustive SAT check; returns the binary-counting-least witness.

    Raises FormulaError when the formula has more variables than `SAT_BOUND`
    (the oracle is meant for desk-scale formulas only).
    """
    n = formula.num_variables
    if n > SAT_BOUND:
        raise FormulaError(f"sat_oracle bound exceeded: {n} > {SAT_BOUND}")
    for index in range(1 << n):
        assignment = assignment_from_index(n, index)
        if eval_cnf(formula, assignment):
            return assignment
    return None


def qbf_oracle(qbf: QbfFormula) -> bool:
    """Standard recursive QBF evaluation; EXISTS is OR, FORALL is AND."""
    n = qbf.matrix.num_variables
    if n > QBF_BOUND:
        raise FormulaError(f"qbf_oracle bound exceeded: {n} > {QBF_BOUND}")

    def recurse(depth: int, assignment: Assignment) -> bool:
        if depth == len(qbf.prefix):
            return eval_cnf(qbf.matrix, assignment)
        quant, var = qbf.prefix[depth]
        branches = (recurse(depth + 1, {**assignment, var: value}) for value in (False, True))
        return any(branches) if quant is Quantifier.EXISTS else all(branches)

    return recurse(0, {})


def gen_random_3cnf(n: int, k: int, seed: int) -> CnfFormula:
    """k uniform random 3-literal clauses over variables 1..n.

    Deterministic for a given seed: the PRNG is Python's Mersenne Twister,
    drawing per literal first the variable (randrange) then the sign
    (one bit, which negates it when set).
    """
    if n < 0 or k < 0 or (n == 0 and k > 0):
        raise FormulaError(f"cannot generate {k} clauses over {n} variables")
    rng = random.Random(seed)

    def literal() -> int:
        var = rng.randrange(1, n + 1)
        return -var if rng.getrandbits(1) else var

    return CnfFormula(n, tuple((literal(), literal(), literal()) for _ in range(k)))


def gen_random_qbf(n: int, k: int, seed: int) -> QbfFormula:
    """Seeded random QBF: a uniform quantifier per variable plus a random
    3-CNF matrix (matrix PRNG stream is offset from the prefix stream)."""
    rng = random.Random(seed)
    prefix = tuple(
        (Quantifier.FORALL if rng.getrandbits(1) else Quantifier.EXISTS, v)
        for v in range(1, n + 1)
    )
    return QbfFormula(prefix, gen_random_3cnf(n, k, seed + 0x5A7))


# --- DIMACS / QDIMACS -------------------------------------------------------


def _tokenize(text: str):
    """Yield (token, line_number) pairs, skipping comment lines.  A line
    starting with `%` ends the input: SATLIB's uf/uuf files end in `%`
    and then `0`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            return
        if not line or line.startswith("c"):
            continue
        for tok in line.split():
            yield tok, lineno


def _parse_header(tokens) -> tuple[int, int]:
    try:
        tok, line = next(tokens)
    except StopIteration:
        raise FormulaError("empty input: missing 'p cnf' header") from None
    if tok != "p":
        raise FormulaError(f"expected 'p cnf' header, got {tok!r}", line)
    rest = []
    for _ in range(3):
        try:
            rest.append(next(tokens))
        except StopIteration:
            raise FormulaError("truncated 'p cnf' header", line) from None
    if rest[0][0] != "cnf":
        raise FormulaError(f"expected 'p cnf' header, got 'p {rest[0][0]}'", line)
    try:
        n, k = int(rest[1][0]), int(rest[2][0])
    except ValueError:
        raise FormulaError("header counts must be integers", line) from None
    if n < 0 or k < 0:
        raise FormulaError("header counts must be non-negative", line)
    return n, k


def dimacs_header(text: str) -> tuple[int, int]:
    """The variable and clause counts of a DIMACS or QDIMACS header,
    read without the rest of the text."""
    return _parse_header(_tokenize(text))


def _parse_clauses(tokens, n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    last_line = None
    for tok, line in tokens:
        last_line = line
        try:
            value = int(tok)
        except ValueError:
            raise FormulaError(f"expected a literal integer, got {tok!r}", line) from None
        if value == 0:
            if not current:
                raise FormulaError("empty clause (a bare 0)", line)
            if len(current) > 3:
                raise FormulaError(f"clause with {len(current)} literals (> 3)", line)
            while len(current) < 3:
                current.append(current[-1])  # pad by repeating the last literal
            clauses.append(tuple(current))
            current = []
            continue
        var = abs(value)
        if var > n:
            raise FormulaError(f"variable {var} out of range (header declares {n})", line)
        current.append(value)
    if current:
        raise FormulaError("unterminated clause at end of input (missing 0)", last_line)
    if len(clauses) != k:
        raise FormulaError(
            f"header declares {k} clauses but {len(clauses)} were given", last_line
        )
    return tuple(clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Clauses of 1 or 2 literals are padded to 3 by
    repeating the last literal; clauses of more than 3 literals are
    rejected."""
    tokens = _tokenize(text)
    n, k = _parse_header(tokens)
    return CnfFormula(n, _parse_clauses(tokens, n, k))


def parse_qdimacs(text: str) -> QbfFormula:
    """Parse QDIMACS. Variables the prefix does not mention are implicitly
    existential at the outermost level, in increasing variable order."""
    tokens = _tokenize(text)
    n, k = _parse_header(tokens)

    prefix: list[tuple[Quantifier, int]] = []
    quantified: set[int] = set()
    clause_tokens = tokens
    for tok, line in tokens:
        if tok not in ("e", "a"):  # the first clause token
            clause_tokens = itertools.chain([(tok, line)], tokens)
            break
        quant = Quantifier(tok)
        for tok2, line2 in tokens:
            try:
                var = int(tok2)
            except ValueError:
                raise FormulaError(f"bad quantifier block token {tok2!r}", line2) from None
            if var == 0:
                break
            if var < 1 or var > n:
                raise FormulaError(f"quantified variable {var} out of range", line2)
            if var in quantified:
                raise FormulaError(f"variable {var} quantified twice", line2)
            quantified.add(var)
            prefix.append((quant, var))

    matrix = CnfFormula(n, _parse_clauses(clause_tokens, n, k))
    free = [v for v in range(1, n + 1) if v not in quantified]
    full_prefix = tuple((Quantifier.EXISTS, v) for v in free) + tuple(prefix)
    return QbfFormula(full_prefix, matrix)


def write_dimacs(formula: CnfFormula) -> str:
    """Round-trip writer: parse_dimacs(write_dimacs(F)) == F."""
    lines = [f"p cnf {formula.num_variables} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def write_qdimacs(qbf: QbfFormula) -> str:
    """Round-trip writer: the DIMACS text of the matrix, with one
    quantifier block line after the header per run of adjacent variables
    under the same quantifier."""
    header, _, clauses = write_dimacs(qbf.matrix).partition("\n")
    blocks = [f"{quant.value} {' '.join(str(var) for _, var in run)} 0"
              for quant, run in itertools.groupby(qbf.prefix, key=lambda q: q[0])]
    return "\n".join([header, *blocks, clauses])
