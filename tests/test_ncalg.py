import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from expprod.ncalg import (
    Copies, LieCombination, NcSeries, NotLieElementError, bracket_fold, bracket_leaves,
    bracket_tree_words, commutator, lie_project, lyndon_words,
    product_log, series_mul, stage_exp, stage_product,
)
from expprod.orders import MAX_ORDER, verify_order
from expprod.poly import RationalPoly
from expprod.schemes import CATALOG, catalog, fractal, hybrid_fourth, ruth
from reference import (
    conjugation_series, delta_power, frechet_exp, left_minus_ad_power, series_log, to_series,
)

suzuki6, timeordered4 = CATALOG["suzuki6"], CATALOG["timeordered4"]

AB = ("A", "B")


# ---------------------------------------------------------------------------
# stage_exp
# ---------------------------------------------------------------------------

def test_stage_exp_taylor():
    s = stage_exp("A", 1, 2, AB)
    assert s.terms == {(): Fraction(1), (0,): Fraction(1), (0, 0): Fraction(1, 2)}


def test_stage_exp_zero_coefficient():
    assert stage_exp("A", 0, 5, AB) == NcSeries.identity(5, AB)


def test_stage_exp_commutator_stage_truncates():
    # a degree-3 generator at truncation 4 keeps only its first power
    g = ("B", ("A", "B"))
    s = stage_exp(g, Fraction(1, 432), 4, AB)
    assert s.constant_term() == 1
    deg3 = s.homogeneous(3)
    assert deg3  # the stage itself
    assert not s.homogeneous(6)
    # matches 1/432 * (2 BAB - ABB - BBA)
    assert deg3[(1, 0, 1)] == Fraction(2, 432)
    assert deg3[(0, 1, 1)] == Fraction(-1, 432)
    assert deg3[(1, 1, 0)] == Fraction(-1, 432)


def test_stage_exp_invalid_order():
    with pytest.raises(ValueError):
        stage_exp("A", 1, 0, AB)


# ---------------------------------------------------------------------------
# series_mul
# ---------------------------------------------------------------------------

def test_series_mul_identity():
    s = stage_exp("A", Fraction(1, 3), 4, AB)
    assert series_mul(NcSeries.identity(4, AB), s) == s
    assert series_mul(s, NcSeries.identity(4, AB)) == s


def test_series_mul_trotter_order2():
    s = series_mul(stage_exp("A", 1, 2, AB), stage_exp("B", 1, 2, AB))
    assert s.terms == {
        (): Fraction(1), (0,): Fraction(1), (1,): Fraction(1),
        (0, 0): Fraction(1, 2), (0, 1): Fraction(1), (1, 1): Fraction(1, 2),
    }


def test_series_mul_inverse_pair():
    for order in (1, 3, 6):
        s = series_mul(stage_exp("A", 1, order, AB), stage_exp("A", -1, order, AB))
        assert s == NcSeries.identity(order, AB)


def test_series_mul_mismatched_orders():
    with pytest.raises(ValueError):
        series_mul(NcSeries.identity(3, AB), NcSeries.identity(4, AB))


def test_series_mul_associative():
    a = stage_exp("A", Fraction(1, 2), 4, AB)
    b = stage_exp("B", Fraction(-1, 3), 4, AB)
    c = stage_exp("A", Fraction(2, 5), 4, AB)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


# ---------------------------------------------------------------------------
# stage_product
# ---------------------------------------------------------------------------

def _fraction_exp(elem):
    """Reference exp: sum_k elem^k / k! by Fraction ``series_mul``."""
    total = dict(NcSeries.identity(elem.order, elem.labels).terms)
    power = NcSeries.identity(elem.order, elem.labels)
    for k in range(1, elem.order + 1):
        power = series_mul(power, elem)
        for w, c in power.terms.items():
            total[w] = total.get(w, 0) + c * Fraction(1, math.factorial(k))
    return NcSeries(elem.order, elem.labels, total)


def _fraction_log(s):
    """Reference log: sum_k (-1)^(k+1) (s - I)^k / k by Fraction ``series_mul``."""
    u = NcSeries(s.order, s.labels, {w: c for w, c in s.terms.items() if w})
    total, power = {}, NcSeries.identity(s.order, s.labels)
    for k in range(1, s.order + 1):
        power = series_mul(power, u)
        for w, c in power.terms.items():
            total[w] = total.get(w, 0) + c * Fraction((-1) ** (k + 1), k)
    return NcSeries(s.order, s.labels, total)


def _fraction_stage_exp(g, c, order, labels):
    words = g.word_expansion() if isinstance(g, LieCombination) else bracket_tree_words(g, labels)
    return _fraction_exp(NcSeries(order, labels, {w: v * c for w, v in words.items()}))


def _folded_product(stages, order, labels):
    prod = NcSeries.identity(order, labels)
    for g, c in stages:
        prod = series_mul(prod, _fraction_stage_exp(g, c, order, labels))
    return prod


def _same_terms(got, want):
    assert got.terms == want.terms
    assert all(type(got.terms[w]) is type(c) for w, c in want.terms.items())


def _symbolic_stages(pattern):
    return [(lab, RationalPoly.var(f"p{i + 1}")) for i, lab in enumerate(pattern)]


@pytest.mark.parametrize("stages,order,labels", [
    pytest.param(ruth().ncalg_stages(), 4, AB, id="ruth-rational"),
    pytest.param(suzuki6().ncalg_stages(), 5, AB, id="suzuki6-algebraic"),
    pytest.param(hybrid_fourth().ncalg_stages(), 5, AB, id="hybrid_fourth-lie"),
    pytest.param(timeordered4().ncalg_stages(), 4, tuple(timeordered4().slots),
                 id="timeordered4-three-letters"),
    pytest.param(_symbolic_stages("ABABAB"), 4, AB, id="ABABAB-symbolic"),
])
def test_stage_product_is_the_folded_product(stages, order, labels):
    folded = _folded_product(stages, order, labels)
    _same_terms(stage_product(stages, order, labels), folded)
    _same_terms(product_log(stages, order, labels), _fraction_log(folded))
    _same_terms(series_log(stage_product(stages, order, labels)), product_log(stages, order, labels))
    for g, c in stages:
        _same_terms(stage_exp(g, c, order, labels), _fraction_stage_exp(g, c, order, labels))


def test_stage_longer_than_the_truncation_order():
    # a degree-3 commutator stage at order 2 has no term below the cut
    g = ("B", ("A", "B"))
    assert stage_exp(g, Fraction(1, 432), 2, AB) == NcSeries.identity(2, AB)
    stages = hybrid_fourth().ncalg_stages()
    for order in (1, 2, 3):
        _same_terms(stage_product(stages, order, AB), _folded_product(stages, order, AB))
    assert verify_order(hybrid_fourth(), 2) == 2


def test_stage_product_mixes_coefficient_kinds():
    # distinct denominators, a zero stage and a polynomial with fractional
    # coefficients; the Lie stage's word coefficients bring in a denominator
    # (11) that no stage coefficient has, so Q must come from the elements
    lie = LieCombination(AB, {(0, 0, 1): Fraction(1, 11)})  # [A,[A,B]]/11
    stages = [("A", RationalPoly.var("p1") * Fraction(5, 6) + Fraction(1, 2)),
              ("B", Fraction(2, 7)), ("A", 0), (lie, Fraction(2, 5)), ("B", 3)]
    assert stage_product(stages, 6, AB) == _folded_product(stages, 6, AB)


@pytest.mark.parametrize("make", [
    CATALOG["suzuki6"], CATALOG["suzuki8"],
    # copies with commutator stages: a bracket of L leaves scales by factor^L
    lambda: fractal(fractal(hybrid_fourth(), "triple"), "triple"),
], ids=["suzuki6", "suzuki8", "hybrid_fourth-triple-triple"])
def test_composed_product_is_the_flat_fold(make):
    sch = make()
    product = sch.ncalg_product()
    assert isinstance(product, Copies)
    for order in range(1, MAX_ORDER + 1):
        for build in (stage_product, product_log):
            _same_terms(build(product, order, sch.slots),
                        build(sch.ncalg_stages(), order, sch.slots))


def test_stage_product_of_no_stages_is_the_identity():
    assert stage_product([], 3, AB) == NcSeries.identity(3, AB)


# ---------------------------------------------------------------------------
# series_log
# ---------------------------------------------------------------------------

def test_log_identity_is_zero():
    assert series_log(NcSeries.identity(5, AB)).terms == {}


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_log(NcSeries(3, AB, {(): Fraction(2)}))


def test_trotter_log_degree2():
    log = product_log([("A", 1), ("B", 1)], 2, AB)
    assert log.homogeneous(2) == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}


def test_trotter_log_degree3_lyndon():
    log = product_log([("A", 1), ("B", 1)], 3, AB)
    combo = lie_project(log)
    assert combo.terms[(0, 0, 1)] == Fraction(1, 12)
    assert combo.terms[(0, 1, 1)] == Fraction(1, 12)


# ---------------------------------------------------------------------------
# product_log
# ---------------------------------------------------------------------------

def test_product_log_single_factor():
    log = product_log([("A", 1)], 5, AB)
    assert log.terms == {(0,): Fraction(1)}


def test_product_log_strang():
    log = product_log([("A", Fraction(1, 2)), ("B", 1), ("A", Fraction(1, 2))], 4, AB)
    assert log.homogeneous(1) == {(0,): Fraction(1), (1,): Fraction(1)}
    assert not log.homogeneous(2)
    assert log.homogeneous(3)
    assert not log.homogeneous(4)


def test_product_log_ruth_kills_two_orders():
    stages = [("A", Fraction(7, 24)), ("B", Fraction(2, 3)), ("A", Fraction(3, 4)),
              ("B", Fraction(-2, 3)), ("A", Fraction(-1, 24)), ("B", Fraction(1))]
    log = product_log(stages, 4, AB)
    assert log.homogeneous(1) == {(0,): Fraction(1), (1,): Fraction(1)}
    assert not log.homogeneous(2)
    assert not log.homogeneous(3)
    assert log.homogeneous(4)


def test_product_log_empty():
    with pytest.raises(ValueError):
        product_log([], 3, AB)


# ---------------------------------------------------------------------------
# lie_project
# ---------------------------------------------------------------------------

def test_lie_project_bracket_definition():
    s = NcSeries(2, AB, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    combo = lie_project(s)
    assert combo.terms == {(0, 1): Fraction(1, 2)}


def test_lie_project_symmetric_part_rejected():
    s = NcSeries(2, AB, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
    with pytest.raises(NotLieElementError):
        lie_project(s)


def test_lie_project_round_trip():
    log = product_log([("A", Fraction(1, 3)), ("B", Fraction(-2, 7)),
                       ("A", Fraction(2, 3)), ("B", Fraction(9, 7))], 5, AB)
    combo = lie_project(log)
    assert to_series(combo, 5) == log


def test_lyndon_words_small():
    words = [w for w in lyndon_words(2, 3)]
    assert (0,) in words and (1,) in words
    assert (0, 1) in words
    assert (0, 0, 1) in words and (0, 1, 1) in words
    assert (1, 0) not in words


def test_pretty_bracket_names():
    log = product_log([("A", 1), ("B", 1)], 3, AB)
    text = lie_project(log).homogeneous(3).pretty()
    assert "[A,[A,B]]" in text and "[[A,B],B]" in text and "1/12" in text


@pytest.mark.parametrize("call", [
    lambda: stage_exp("C", 1, 2, AB),
    lambda: stage_exp(0, 1, 2, AB),
    lambda: stage_product([("A", 1), ("C", 1)], 2, AB),
], ids=["letter_C", "integer_letter", "stage_product"])
def test_unknown_stage_letter_is_named(call):
    with pytest.raises(ValueError, match=r"stage letter .* is not in the alphabet \('A', 'B'\)"):
        call()


def _trees(leaves: int) -> list:
    """Every bracket tree over A, B with the given number of leaves."""
    if leaves == 1:
        return ["A", "B"]
    return [(left, right) for k in range(1, leaves)
            for left in _trees(k) for right in _trees(leaves - k)]


def test_bracket_words_agree_with_the_matrix_fold():
    # the word expansion and the matrix evaluation are two folds of one tree
    rng = np.random.default_rng(7)
    mats = {lab: rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for lab in AB}
    stages = [st.target for sch in catalog().values() for st in sch.stages if st.is_commutator()]
    trees = stages + [t for n in range(1, 5) for t in _trees(n)]
    assert ("B", ("A", "B")) in stages and len(trees) == len(stages) + 2 + 4 + 16 + 80
    for tree in trees:
        words = bracket_tree_words(tree, AB)
        assert all(len(w) == bracket_leaves(tree) for w in words)
        expanded = sum(c * np.linalg.multi_dot([np.eye(4)] + [mats[AB[i]] for i in w])
                       for w, c in words.items())
        folded = bracket_fold(tree, mats.__getitem__, commutator)
        assert np.max(np.abs(expanded - folded)) < 1e-12, tree


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), small_coeff),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=6))
def test_lie_closure_random_products(stages, order):
    log = product_log(stages, order, AB)
    combo = lie_project(log)  # must not raise
    assert to_series(combo, order) == log


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), small_coeff),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=5))
def test_exp_log_round_trip(stages, order):
    prod = stage_product(stages, order, AB)
    assert stage_exp(lie_project(series_log(prod)), 1, order, AB) == prod


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A", "B"]), small_coeff, st.integers(min_value=1, max_value=6))
def test_log_of_stage_exp(label, coeff, order):
    log = series_log(stage_exp(label, coeff, order, AB))
    expected = {} if coeff == 0 else {(0 if label == "A" else 1,): coeff}
    assert log.terms == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), small_coeff),
                min_size=1, max_size=3))
def test_palindromic_products_have_even_degrees_zero(half):
    stages = half + [(lab, c) for lab, c in reversed(half)]
    log = product_log(stages, 6, AB)
    for degree in (2, 4, 6):
        assert not log.homogeneous(degree)


# ---------------------------------------------------------------------------
# operator-calculus identities on dense matrices
# ---------------------------------------------------------------------------

def _rand_complex(rng, n=3, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * m / np.linalg.norm(m, 2)


def test_analytic_functions_commute_with_own_inner_derivation():
    rng = np.random.default_rng(5)
    a = _rand_complex(rng)
    x = _rand_complex(rng)
    f = np.eye(3) + 2 * a + a @ a @ a          # f(A)
    g = 3 * np.eye(3) - a @ a                  # g(A)
    lhs = f @ commutator(g, x) - commutator(g, f @ x)
    assert np.linalg.norm(lhs) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_inner_derivation_power_identity(n):
    rng = np.random.default_rng(n)
    a = _rand_complex(rng)
    x = _rand_complex(rng)
    an = np.linalg.matrix_power(a, n)
    lhs = commutator(an, x)
    rhs = an @ x - left_minus_ad_power(a, x, n)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_conjugation_series_matches_exact():
    rng = np.random.default_rng(11)
    a = _rand_complex(rng, scale=0.5)   # ||x A|| <= 1/2 at x = 1
    b = _rand_complex(rng)
    exact = scipy.linalg.expm(a) @ b @ scipy.linalg.expm(-a)
    approx = conjugation_series(a, b, 1.0, kmax=12)
    assert np.linalg.norm(exact - approx) < 1e-10


def test_product_rule_corollary_for_inner_derivations():
    rng = np.random.default_rng(13)
    a = _rand_complex(rng, scale=0.4)
    b = _rand_complex(rng, scale=0.4)
    c = _rand_complex(rng)
    phi = scipy.linalg.logm(scipy.linalg.expm(a) @ scipy.linalg.expm(b))
    lhs = scipy.linalg.expm(a) @ (scipy.linalg.expm(b) @ c @ scipy.linalg.expm(-b)) @ scipy.linalg.expm(-a)
    rhs = scipy.linalg.expm(phi) @ c @ scipy.linalg.expm(-phi)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_delta_power_is_nested_commutator():
    rng = np.random.default_rng(17)
    a = _rand_complex(rng)
    x = _rand_complex(rng)
    assert np.allclose(delta_power(a, x, 2), commutator(a, commutator(a, x)))


# ---------------------------------------------------------------------------
# frechet_exp
# ---------------------------------------------------------------------------

def test_frechet_commuting_direction():
    rng = np.random.default_rng(3)
    a = _rand_complex(rng, 4)
    got = frechet_exp(a, a)
    assert np.linalg.norm(got - scipy.linalg.expm(a) @ a) < 1e-12


def test_frechet_at_zero_is_identity_map():
    da = np.arange(9.0).reshape(3, 3)
    assert np.allclose(frechet_exp(np.zeros((3, 3)), da), da)


def test_frechet_matches_central_difference():
    rng = np.random.default_rng(23)
    a = _rand_complex(rng, 4)
    da = _rand_complex(rng, 4)
    h = 1e-6
    fd = (scipy.linalg.expm(a + h * da) - scipy.linalg.expm(a - h * da)) / (2 * h)
    assert np.linalg.norm(frechet_exp(a, da) - fd) < 1e-8


def test_frechet_matches_taylor_sum_formula():
    rng = np.random.default_rng(29)
    a = _rand_complex(rng, 3, scale=1.0)
    da = _rand_complex(rng, 3)
    # sum_j A^{j-1} dA A^{n-j} pushed through the Taylor series of exp
    total = np.zeros((3, 3), dtype=complex)
    for n in range(1, 30):
        term = np.zeros((3, 3), dtype=complex)
        for j in range(1, n + 1):
            term += np.linalg.matrix_power(a, j - 1) @ da @ np.linalg.matrix_power(a, n - j)
        total += term / math.factorial(n)
    assert np.linalg.norm(frechet_exp(a, da) - total) < 1e-10


def test_frechet_dimension_mismatch():
    with pytest.raises(ValueError):
        frechet_exp(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_lie_combination_json_round_trip():
    # BCH to degree 3: A + B + 1/2 [A,B] + 1/12 [A,[A,B]] + 1/12 [[A,B],B]
    combo = lie_project(product_log([("A", 1), ("B", 1)], 3, AB))
    assert combo.to_json() == {
        "order": 3, "generators": ["A", "B"],
        "terms": [{"word": [0], "coeff": "1"}, {"word": [1], "coeff": "1"},
                  {"word": [0, 1], "coeff": "1/2"}, {"word": [0, 0, 1], "coeff": "1/12"},
                  {"word": [0, 1, 1], "coeff": "1/12"}]}


def test_symbolic_coefficient_serialization():
    combo = LieCombination(AB, {(0,): RationalPoly.var("p1") * Fraction(-2, 3)})
    doc = combo.to_json()
    assert doc["order"] == 1 and doc["generators"] == ["A", "B"]
    assert doc["terms"] == [{"word": [0], "coeff": {"monomials": [
        {"powers": {"p1": 1}, "coeff": "-2/3"}]}}]
