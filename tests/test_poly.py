from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expprod.poly import RationalPoly, as_exact, coeff_to_json, frac_str


def p(name):
    return RationalPoly.var(name)


def test_constant_demotion():
    c = as_exact(RationalPoly.const(Fraction(3, 4)))
    assert isinstance(c, Fraction) and c == Fraction(3, 4)
    assert isinstance(as_exact(p("a") - p("a")), Fraction)


def test_arithmetic_exact():
    expr = (p("a") + p("b")) * (p("a") - p("b"))
    assert expr == p("a") * p("a") - p("b") * p("b")
    assert (p("a") * Fraction(1, 3)) * 3 == p("a")


def test_power_and_degree():
    q = (1 + p("x")) ** 3
    assert q.terms[()] == 1
    assert q.terms[(("x", 3),)] == 1
    assert q.terms[(("x", 2),)] == 3
    assert q.total_degree() == 3


def test_derivative():
    q = p("x") ** 3 * p("y") + 2 * p("x")
    dx = q.derivative("x")
    assert dx == 3 * p("x") ** 2 * p("y") + RationalPoly.const(2)
    assert q.derivative("z").is_zero()


def test_evaluate_exact_and_float():
    q = p("x") ** 2 - Fraction(1, 4)
    assert q.evaluate({"x": Fraction(1, 2)}) == 0
    assert q.evaluate({"x": 0.5}) == pytest.approx(0.0)
    with pytest.raises(KeyError):
        q.evaluate({})


def test_subs():
    q = p("x") * p("y") + p("x")
    assert q.subs("x", Fraction(2)) == 2 * p("y") + RationalPoly.const(2)
    assert q.subs("y", p("x")) == p("x") ** 2 + p("x")


def test_json_round_trip():
    q = Fraction(-2, 3) * p("p1") + p("p2") ** 2 * Fraction(1, 12)
    doc = q.to_json()
    assert {"powers": {"p1": 1}, "coeff": "-2/3"} in doc["monomials"]
    assert {"powers": {"p2": 2}, "coeff": "1/12"} in doc["monomials"]
    assert len(doc["monomials"]) == 2
    assert coeff_to_json(q) == doc
    assert coeff_to_json(Fraction(1, 12)) == "1/12"


def test_frac_str_decimal_free():
    assert frac_str(Fraction(7, 24)) == "7/24"
    assert frac_str(Fraction(2)) == "2"


@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.fractions(max_denominator=20)), max_size=5),
       st.lists(st.tuples(st.sampled_from("abc"),
                          st.fractions(max_denominator=20)), max_size=5))
def test_ring_commutativity(terms1, terms2):
    q1 = sum((RationalPoly.var(n) * c for n, c in terms1), RationalPoly.const(1))
    q2 = sum((RationalPoly.var(n) * c for n, c in terms2), RationalPoly.const(0))
    assert q1 * q2 == q2 * q1
    assert q1 + q2 == q2 + q1
    assert (q1 - q2) + q2 == q1
