import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satplat.formula import (
    Clause,
    CnfFormula,
    FormulaError,
    Literal,
    QbfFormula,
    Quantifier,
    assignment_from_index,
    eval_cnf,
    gen_random_3cnf,
    parse_dimacs,
    parse_qdimacs,
    qbf_oracle,
    sat_oracle,
    write_dimacs,
    write_qdimacs,
)
from tests.conftest import SAMPLE_DIMACS


def clause(*lits):
    return Clause(tuple(Literal(abs(v), v < 0) for v in lits))


class TestParseDimacs:
    def test_smallest_input_pads_to_three_literals(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        assert f.num_variables == 1
        assert f.clauses == (clause(1, 1, 1),)

    def test_sample_formula(self, sample_formula):
        assert sample_formula.num_variables == 3
        assert sample_formula.clauses == (clause(1, 2, -3), clause(-1, 2, 3))

    def test_variable_out_of_range_names_line(self):
        with pytest.raises(FormulaError, match="line 2.*variable 3"):
            parse_dimacs("p cnf 2 1\n1 2 3 0")

    def test_two_literal_clause_padded_with_last(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert f.clauses == (clause(1, -2, -2),)

    def test_too_many_literals_rejected(self):
        with pytest.raises(FormulaError, match="4 literals"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormulaError, match="declares 2 clauses"):
            parse_dimacs("p cnf 2 2\n1 2 0")

    def test_malformed_header(self):
        with pytest.raises(FormulaError, match="header"):
            parse_dimacs("p dnf 2 1\n1 2 0")

    def test_comments_and_crlf(self):
        f = parse_dimacs("c a comment\r\np cnf 1 1\r\n1 0\r\n")
        assert f.num_clauses == 1

    def test_unterminated_clause(self):
        with pytest.raises(FormulaError, match="missing 0"):
            parse_dimacs("p cnf 2 1\n1 2")

    def test_satlib_trailer_ends_the_input(self):
        # SATLIB's uf/uuf files end in "%" and then "0"
        body = "p cnf 2 1\n1 -2 0\n"
        assert parse_dimacs(body + "%\n0\n") == parse_dimacs(body)


class TestParseQdimacs:
    def test_single_exists(self):
        q = parse_qdimacs("p cnf 1 1\ne 1 0\n1 0")
        assert q.prefix == ((Quantifier.EXISTS, 1),)

    def test_tautological_clause(self):
        q = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 -2 0")
        assert q.prefix == ((Quantifier.EXISTS, 1), (Quantifier.FORALL, 2))
        assert qbf_oracle(q) is True

    def test_single_forall(self):
        q = parse_qdimacs("p cnf 1 1\na 1 0\n1 0")
        assert q.prefix == ((Quantifier.FORALL, 1),)
        assert qbf_oracle(q) is False

    def test_free_variables_become_outer_exists(self):
        q = parse_qdimacs("p cnf 2 1\na 2 0\n1 2 2 0")
        assert q.prefix == ((Quantifier.EXISTS, 1), (Quantifier.FORALL, 2))

    def test_satlib_trailer_ends_the_input(self):
        body = "p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n"
        assert parse_qdimacs(body + "%\n0\n") == parse_qdimacs(body)

    def test_duplicate_quantification_rejected(self):
        with pytest.raises(FormulaError, match="quantified twice"):
            parse_qdimacs("p cnf 1 1\ne 1 0\na 1 0\n1 0")

    @pytest.mark.parametrize("text, refusal", [
        ("p cnf 2 1\ne 1 x 0\n1 0", "line 2: bad quantifier block token 'x'"),
        ("p cnf 2 1\na 1 3 0\n1 0", "line 2: quantified variable 3 out of range"),
        ("p cnf 2 1\ne -1 0\n1 0", "line 2: quantified variable -1 out of range"),
    ])
    def test_bad_quantifier_block_rejected(self, text, refusal):
        with pytest.raises(FormulaError, match=refusal):
            parse_qdimacs(text)


class TestEvalCnf:
    def test_sample_satisfying_assignment(self, sample_formula):
        assert eval_cnf(sample_formula, {1: True, 2: False, 3: True}) is True

    def test_sample_falsifying_assignment(self, sample_formula):
        # second clause is all-false under x1=1, x2=0, x3=0
        assert eval_cnf(sample_formula, {1: True, 2: False, 3: False}) is False

    def test_empty_formula_vacuously_true(self):
        assert eval_cnf(CnfFormula(0, ()), {}) is True

    def test_partial_assignment_rejected(self, sample_formula):
        with pytest.raises(FormulaError):
            eval_cnf(sample_formula, {1: True})


class TestSatOracle:
    def test_sample_has_six_of_eight_models(self, sample_formula):
        # independent count by exhaustive evaluation
        models = [
            i for i in range(8)
            if eval_cnf(sample_formula, assignment_from_index(3, i))
        ]
        assert len(models) == 6
        witness = sat_oracle(sample_formula)
        assert witness is not None
        assert eval_cnf(sample_formula, witness)
        # determinism: the binary-counting-least model
        assert witness == assignment_from_index(3, models[0])

    def test_contradiction(self):
        f = CnfFormula(1, (clause(1, 1, 1), clause(-1, -1, -1)))
        assert sat_oracle(f) is None

    def test_empty_formula(self):
        assert sat_oracle(CnfFormula(0, ())) == {}

    def test_bound_enforced(self):
        f = CnfFormula(25, ())
        with pytest.raises(FormulaError, match="bound"):
            sat_oracle(f)


class TestQbfOracle:
    def test_forall_single_positive_clause_false(self):
        q = parse_qdimacs("p cnf 1 1\na 1 0\n1 0")
        assert qbf_oracle(q) is False

    def test_exists_forall_true_via_x1(self):
        q = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 2 0\n1 -2 -2 0")
        # hand enumeration: x1=1 satisfies both clauses for either x2
        assert qbf_oracle(q) is True

    def test_all_exists_matches_sat_presence(self):
        for f in _small_formulas():
            prefix = tuple((Quantifier.EXISTS, v)
                           for v in range(1, f.num_variables + 1))
            assert qbf_oracle(QbfFormula(prefix, f)) == (sat_oracle(f) is not None)


def _small_formulas():
    lits = [Literal(v, neg) for v in (1, 2) for neg in (False, True)]
    clauses = [Clause(c) for c in itertools.combinations_with_replacement(lits, 3)]
    for combo in itertools.combinations_with_replacement(clauses, 2):
        yield CnfFormula(2, combo)


class TestGenRandom:
    def test_deterministic(self):
        assert gen_random_3cnf(3, 2, 7) == gen_random_3cnf(3, 2, 7)

    def test_empty(self):
        assert gen_random_3cnf(1, 0, 0).clauses == ()

    def test_structural_bounds(self):
        f = gen_random_3cnf(4, 5, 42)
        assert f.num_clauses == 5
        for c in f.clauses:
            assert len(c.literals) == 3
            assert all(1 <= l.variable <= 4 for l in c.literals)

    def test_zero_variables_with_clauses_rejected(self):
        with pytest.raises(FormulaError):
            gen_random_3cnf(0, 1, 0)


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_dimacs_round_trip(n, k, seed):
    f = gen_random_3cnf(n, k, seed)
    assert parse_dimacs(write_dimacs(f)) == f


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_sat_oracle_consistent_with_exhaustive_eval(n, k, seed):
    f = gen_random_3cnf(n, k, seed)
    any_model = any(eval_cnf(f, assignment_from_index(n, i)) for i in range(1 << n))
    assert (sat_oracle(f) is not None) == any_model


def test_qbf_oracle_bound_enforced():
    prefix = tuple((Quantifier.EXISTS, v) for v in range(1, 14))
    q = QbfFormula(prefix, CnfFormula(13, ()))
    with pytest.raises(FormulaError, match="bound"):
        qbf_oracle(q)


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32), st.data())
@settings(max_examples=40, deadline=None)
def test_flipping_unused_variable_never_changes_eval(n, k, seed, data):
    f = gen_random_3cnf(n, k, seed)
    extended = CnfFormula(n + 1, f.clauses)  # variable n+1 occurs nowhere
    index = data.draw(st.integers(0, 2**n - 1))
    base = assignment_from_index(n, index)
    lo = {**base, n + 1: False}
    hi = {**base, n + 1: True}
    assert eval_cnf(extended, lo) == eval_cnf(extended, hi)


def test_qdimacs_round_trip():
    text = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 -3 0\n-1 2 3 0\n"
    q = parse_qdimacs(text)
    assert parse_qdimacs(write_qdimacs(q)) == q


def test_sample_round_trip(sample_formula):
    assert parse_dimacs(write_dimacs(sample_formula)) == sample_formula
    assert write_dimacs(sample_formula) == SAMPLE_DIMACS
