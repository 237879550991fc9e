import json
from fractions import Fraction

import pytest

from expprod import schemes
from expprod.ncalg import bracket_leaves, product_log
from expprod.orders import verify_order
from expprod.poly import RationalPoly, frac_str
from expprod.propagate import spin_parts, stage_unitaries
from expprod.schemes import (
    CATALOG, Scheme, catalog, coeff_value,
    evaluation_offsets, fractal, fractal_constant, has_negative_coefficient,
    hybrid_fourth, hybrid_second, merge_adjacent, ruth, stage_plan,
    strang, timeordered1, timeordered2, trotter,
)

triple_jump4, suzuki4, suzuki6, timeordered4 = (
    CATALOG[name] for name in ("triple_jump4", "suzuki4", "suzuki6", "timeordered4"))


def sym_or_frac(c):
    return c if isinstance(c, RationalPoly) else RationalPoly.const(c)


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------

def test_trotter_stages_and_sums():
    t = trotter()
    assert [(st.target, st.coeff) for st in t.stages] == [("A", 1), ("B", 1)]
    assert t.slot_sums() == {"A": 1, "B": 1}
    assert not t.symmetric


def test_strang_stages():
    s = strang()
    assert [(st.target, st.coeff) for st in s.stages] == \
        [("A", Fraction(1, 2)), ("B", 1), ("A", Fraction(1, 2))]
    assert s.symmetric and s.is_palindromic()
    assert s.slot_sums() == {"A": 1, "B": 1}


def test_ruth_stages():
    r = ruth()
    coeffs = [st.coeff for st in r.stages]
    assert coeffs == [Fraction(7, 24), Fraction(2, 3), Fraction(3, 4),
                      Fraction(-2, 3), Fraction(-1, 24), Fraction(1)]
    assert r.slot_sums() == {"A": 1, "B": 1}
    assert not r.symmetric
    # the quadratic invariant q = p2 p3 + p2 p5 + p4 p5 = 1/2, exactly
    p2, p3, p4, p5 = Fraction(2, 3), Fraction(3, 4), Fraction(-2, 3), Fraction(-1, 24)
    assert p2 * p3 + p2 * p5 + p4 * p5 == Fraction(1, 2)


# ---------------------------------------------------------------------------
# fractal constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,order,printed", [
    ("triple", 2, "1.351207191959657"),
    ("quintuple", 2, "0.414490771794375"),
    ("quintuple", 4, "0.373065827733272"),
    ("quintuple", 6, "0.359584649349992"),
])
def test_fractal_constant_decimals(kind, order, printed):
    c = fractal_constant(kind, order)
    assert abs(c.value - float(printed)) < 1e-14
    assert c.decimal.startswith(printed[:16])


def test_constant_decimal_agrees_with_refined_root():
    c = fractal_constant("quintuple", 2)
    refined = c.refined(Fraction(1, 10 ** 25))
    assert abs(float(refined) - float(c.decimal)) < 1e-15  # 15+ significant digits


def test_constant_defining_polynomial_has_sign_change():
    c = fractal_constant("triple", 2)
    assert c._eval(c.lo) * c._eval(c.hi) < 0


# ---------------------------------------------------------------------------
# fractal compositions
# ---------------------------------------------------------------------------

def test_triple_jump_merged_coefficients():
    tj = triple_jump4()
    s = RationalPoly.var("triple_order2")
    expected = [
        ("A", s * Fraction(1, 2)),
        ("B", s),
        ("A", (1 - s) * Fraction(1, 2)),
        ("B", 1 - 2 * s),
        ("A", (1 - s) * Fraction(1, 2)),
        ("B", s),
        ("A", s * Fraction(1, 2)),
    ]
    got = [(st.target, sym_or_frac(st.coeff)) for st in tj.stages]
    assert got == expected
    assert tj.claimed_order == 4 and tj.symmetric


def test_triple_jump_middle_coefficient_is_negative_past_excursion():
    tj = triple_jump4()
    middle_b = coeff_value(tj.stages[3].coeff)
    assert abs(middle_b - (1 - 2 * 1.351207191959657)) < 1e-14
    assert middle_b == pytest.approx(-1.702414383919, abs=1e-12)


def test_quintuple_merged_coefficients():
    s4 = fractal(strang(), "quintuple")
    s2 = RationalPoly.var("quintuple_order2")
    a_coeffs = [sym_or_frac(st.coeff) for st in s4.stages if st.target == "A"]
    b_coeffs = [sym_or_frac(st.coeff) for st in s4.stages if st.target == "B"]
    half = Fraction(1, 2)
    assert a_coeffs == [s2 * half, s2, (1 - 3 * s2) * half,
                        (1 - 3 * s2) * half, s2, s2 * half]
    assert b_coeffs == [s2, s2, 1 - 4 * s2, s2, s2]


def test_fractal_requires_symmetric_even_base():
    with pytest.raises(ValueError):
        fractal(trotter(), "triple")
    with pytest.raises(ValueError):
        fractal(ruth(), "quintuple")


@pytest.mark.parametrize("name", ["trotter", "strang", "ruth", "suzuki4", "suzuki6", "suzuki8",
                                  "hybrid_second", "hybrid_fourth",
                                  "timeordered1", "timeordered2", "timeordered4"])
def test_slot_sums_exactly_one(name):
    sch = CATALOG[name]()
    for label, total in sch.slot_sums().items():
        # polynomial sums collapse exactly to the rational 1
        assert isinstance(total, Fraction) and total == 1


@pytest.mark.parametrize("name", ["strang", "suzuki4", "suzuki6", "suzuki8", "hybrid_fourth",
                                  "timeordered2", "timeordered4"])
def test_symmetric_schemes_are_palindromic(name):
    sch = CATALOG[name]()
    assert sch.symmetric and sch.is_palindromic()


def test_symmetric_is_read_off_the_stage_list():
    assert {name: sch.symmetric for name, sch in catalog().items()} == {
        "trotter": False, "strang": True, "triple_jump4": True, "suzuki4": True,
        "suzuki6": True, "suzuki8": True, "ruth": False, "hybrid_second": False,
        "hybrid_fourth": True, "timeordered1": False, "timeordered2": True,
        "timeordered4": True}
    # a palindrome is not enough: a stage even in x breaks S(x) S(-x) = 1
    even = schemes.Stage(("A", "B"), Fraction(1))
    assert not Scheme(("A", "B"), (even,), claimed_order=1).symmetric


# ---------------------------------------------------------------------------
# flatten correctness: merged product == product of the scaled base copies
# ---------------------------------------------------------------------------

FLATTEN_CASES = [
    ("triple_jump4", strang, "triple", 5),
    ("suzuki4", strang, "quintuple", 5),
    ("suzuki6", suzuki4, "quintuple", 3),
    ("timeordered4", timeordered2, "quintuple", 3),
]


@pytest.mark.parametrize("name,base,kind,order", FLATTEN_CASES,
                         ids=[f"{case[0]}-{case[3]}" for case in FLATTEN_CASES])
def test_flatten_preserves_the_product(name, base, kind, order):
    sch, b = CATALOG[name](), base()
    s = RationalPoly.var(fractal_constant(kind, b.claimed_order).name)
    weights = [s, 1 - 2 * s, s] if kind == "triple" else [s, s, 1 - 4 * s, s, s]
    raw = [st for f in weights for st in b.scale(f).stages]
    assert len(raw) > len(sch.stages)  # the flattened list did merge
    raw_log = product_log(Scheme(b.slots, tuple(raw), 0).ncalg_stages(), order, b.slots)
    assert product_log(sch.ncalg_stages(), order, sch.slots) == raw_log


def test_symmetric_log_has_no_even_terms_to_degree8():
    # exact cancellation holds even with algebraic coefficients, since the
    # series algebra runs on the exact binary values of their constants
    for sch in (strang(), suzuki4()):
        log = product_log(sch.ncalg_stages(), 8, sch.slots)
        for degree in (2, 4, 6, 8):
            assert not log.homogeneous(degree)


def test_merge_adjacent_merges_and_drops_zeros():
    stages = (schemes.Stage("A", Fraction(1, 2)), schemes.Stage("A", Fraction(-1, 2)),
              schemes.Stage("B", Fraction(1)))
    merged = merge_adjacent(stages)
    assert [(st.target, st.coeff) for st in merged] == [("B", Fraction(1))]


# ---------------------------------------------------------------------------
# hybrid schemes
# ---------------------------------------------------------------------------

def test_hybrid_second_commutator_stage():
    h = hybrid_second()
    last = h.stages[-1]
    assert last.is_commutator()
    assert last.target == ("A", "B") and bracket_leaves(last.target) == 2
    assert last.coeff == Fraction(-1, 2)


def test_hybrid_fourth_end_caps():
    h = hybrid_fourth()
    first, last = h.stages[0], h.stages[-1]
    for cap in (first, last):
        assert cap.is_commutator()
        assert cap.target == ("B", ("A", "B")) and bracket_leaves(cap.target) == 3
        assert cap.coeff == Fraction(1, 432)


def test_hybrid_fourth_is_exactly_fourth_order():
    h = hybrid_fourth()
    log = product_log(h.ncalg_stages(), 5, h.slots)
    assert log.homogeneous(1) == {(0,): Fraction(1), (1,): Fraction(1)}
    for degree in (2, 3, 4):
        assert not log.homogeneous(degree)
    assert log.homogeneous(5)


def test_bracket_node_that_is_not_a_pair_is_refused():
    # every reader of a stage's tree refuses a three-way node with one message
    sch = Scheme(("A", "B"), (schemes.Stage(("A", "B", "A"), Fraction(1)),), claimed_order=1)
    readers = [sch.to_json, lambda: sch.symmetric, lambda: sch.scale(Fraction(2)),
               lambda: verify_order(sch, 2),
               lambda: stage_unitaries(sch, spin_parts(0.5), 0.1)]
    message = r"a bracket is a pair \(left, right\), got \('A', 'B', 'A'\)"
    for read in readers:
        with pytest.raises(ValueError, match=message):
            read()


# ---------------------------------------------------------------------------
# negative-coefficient detection
# ---------------------------------------------------------------------------

def test_has_negative_coefficient():
    assert not has_negative_coefficient(trotter())
    assert not has_negative_coefficient(strang())
    assert not has_negative_coefficient(hybrid_fourth())  # caps are commutators
    assert has_negative_coefficient(triple_jump4())
    assert has_negative_coefficient(suzuki4())
    assert has_negative_coefficient(ruth())


def test_quintuple_negative_values():
    s4 = suzuki4()
    s2 = 0.414490771794375
    b_middle = coeff_value(s4.stages[5].coeff)
    assert b_middle == pytest.approx(1 - 4 * s2, abs=1e-13)
    assert b_middle < 0
    a_inner = coeff_value(s4.stages[4].coeff)
    assert a_inner == pytest.approx((1 - 3 * s2) / 2, abs=1e-13)
    assert a_inner < 0


# ---------------------------------------------------------------------------
# shift-time evaluation
# ---------------------------------------------------------------------------

def test_g1_evaluation_times():
    out = [(lab, 0.0 + tau * 0.5) for lab, _, tau in stage_plan(timeordered1())]
    assert out == [("B", 0.5), ("A", 0.5)]


def test_g2_evaluation_times_all_midpoint():
    plan = stage_plan(timeordered2())
    assert all(abs(1.0 + tau * 0.2 - 1.1) < 1e-15 for _, _, tau in plan)
    assert [lab for lab, _, _ in plan] == ["A", "B", "A"]


def test_g4_offsets_exact_in_the_constant():
    s2 = RationalPoly.var("quintuple_order2")
    expected_taus = [s2 * Fraction(1, 2), s2 * Fraction(3, 2), RationalPoly.const(Fraction(1, 2)),
                     1 - s2 * Fraction(3, 2), 1 - s2 * Fraction(1, 2)]
    seen = []
    for lab, c, tau in evaluation_offsets(timeordered4()):
        poly = sym_or_frac(tau)
        if not seen or seen[-1] != poly:
            seen.append(poly)
    assert seen == expected_taus


def test_stage_plan_runs_right_to_left_with_zero_offsets():
    plan = stage_plan(ruth())
    assert [(lab, c) for lab, c, _ in plan] == [
        ("B", 1.0), ("A", -1 / 24), ("B", -2 / 3), ("A", 0.75), ("B", 2 / 3), ("A", 7 / 24)]
    assert all(tau == 0.0 for _, _, tau in plan)


def test_stage_plan_keeps_commutator_targets():
    plan = stage_plan(hybrid_second())
    assert plan[0][0] == ("A", "B")
    assert plan[0][1] == -0.5
    assert [lab for lab, _, _ in plan[1:]] == ["B", "A"]


def test_stage_plan_consumes_the_shift_time_slot():
    plan = stage_plan(timeordered4())
    offsets = evaluation_offsets(timeordered4())
    assert [(lab, c, tau) for lab, c, tau in plan] == [
        (lab, coeff_value(c), coeff_value(tau)) for lab, c, tau in offsets]


def test_evaluation_times_requires_t_slot():
    with pytest.raises(ValueError):
        evaluation_offsets(strang())


def test_t_coefficients_must_sum_to_one():
    bad = Scheme(("A", "B", "T"),
                 (schemes.Stage("T", Fraction(1, 2)), schemes.Stage("A", Fraction(1))),
                 claimed_order=1)
    with pytest.raises(ValueError):
        evaluation_offsets(bad)


# ---------------------------------------------------------------------------
# serialization and catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,make", sorted(catalog().items(),
                                             key=lambda kv: kv[0]),
                         ids=sorted(catalog()))
def test_scheme_json_round_trip(name, make):
    sch = make
    doc = sch.to_json()
    assert doc["name"] == sch.name == name  # each scheme is named by its catalog key
    assert doc["slots"] == list(sch.slots)
    assert doc["order"] == sch.claimed_order
    assert doc["symmetric"] == sch.symmetric
    assert len(doc["stages"]) == len(sch.stages)
    for entry, st in zip(doc["stages"], sch.stages):
        if st.is_commutator():
            assert entry["commutator"] == json.loads(json.dumps(st.target))
            assert entry["x_power"] == bracket_leaves(st.target)
        else:
            assert sch.slots[entry["slot"]] == st.target and "x_power" not in entry
        if isinstance(st.coeff, Fraction):
            assert entry["coeff"] == frac_str(st.coeff) and "coeff_poly" not in entry
        else:
            assert entry["coeff_poly"] == st.coeff.to_json()


def test_scheme_json_shape():
    doc = suzuki4().to_json()
    assert doc["slots"] == ["A", "B"]
    assert doc["order"] == 4 and doc["symmetric"] is True
    stage0 = doc["stages"][0]
    assert set(stage0) >= {"slot", "coeff"}
    assert "constants" in doc and "quintuple_order2" in doc["constants"]
    h = hybrid_fourth().to_json()
    cap = h["stages"][0]
    assert cap["commutator"] == ["B", ["A", "B"]]
    assert cap["coeff"] == "1/432" and cap["x_power"] == 3


def test_stage_decimal_matches_refined_constant():
    # the float of a symbolic coefficient agrees with its value at the refined roots
    eps = Fraction(1, 10 ** 30)
    for st in suzuki6().stages[:8]:
        if isinstance(st.coeff, RationalPoly):
            refined = st.coeff.evaluate({n: schemes._CONSTANTS[n].refined(eps)
                                         for n in st.coeff.variables()})
            assert abs(float(refined) - coeff_value(st.coeff)) < 1e-15
