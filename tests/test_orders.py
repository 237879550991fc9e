import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expprod import cli, ncalg, orders
from expprod.orders import (
    MAX_ORDER, ConditionEq, OrderConditionSet,
    order_conditions, rationalize_solution, ruth_family, solve, verify_order,
)
from expprod.poly import CompiledPolys, RationalPoly
from expprod.schemes import (
    CATALOG, fractal, hybrid_fourth, hybrid_second, ruth, strang, trotter,
)
from reference import of_degree

suzuki4 = CATALOG["suzuki4"]

RUTH_POINT = {"p1": Fraction(7, 24), "p2": Fraction(2, 3), "p3": Fraction(3, 4),
              "p4": Fraction(-2, 3), "p5": Fraction(-1, 24), "p6": Fraction(1)}


def single_poly_conditions(coeffs_ascending, name="s") -> OrderConditionSet:
    poly = RationalPoly.const(0)
    for k, c in enumerate(coeffs_ascending):
        poly = poly + RationalPoly.const(c) * RationalPoly.var(name) ** k
    return OrderConditionSet((name,), (ConditionEq(1, (0,), poly),))


def fractal_poly(mult, power):
    from math import comb

    coeffs = [comb(power, k) * (-mult) ** k for k in range(power + 1)]
    coeffs[power] += mult
    return coeffs


# ---------------------------------------------------------------------------
# order_conditions
# ---------------------------------------------------------------------------

def test_first_order_conditions_are_sum_rules():
    conds = order_conditions("ABABAB", 1)
    eqs = of_degree(conds, 1)
    assert len(eqs) == 2
    p = {i: RationalPoly.var(f"p{i}") for i in range(1, 7)}
    assert eqs[0].poly == p[1] + p[3] + p[5] - 1
    assert eqs[1].poly == p[2] + p[4] + p[6] - 1


def test_second_order_condition_reduces_to_q_form():
    conds = order_conditions("ABABAB", 2)
    eq2 = of_degree(conds, 2)
    assert len(eq2) == 1
    p = {i: RationalPoly.var(f"p{i}") for i in range(1, 7)}
    reduced = (eq2[0].poly
               .subs("p5", 1 - p[1] - p[3])
               .subs("p6", 1 - p[2] - p[4]))
    q = p[2] * p[3] + p[2] * p[5] + p[4] * p[5]
    q_reduced = q.subs("p5", 1 - p[1] - p[3]).subs("p6", 1 - p[2] - p[4])
    assert reduced == (1 - 2 * q_reduced) * Fraction(1, 2)


def test_third_order_conditions_satisfied_by_known_point():
    conds = order_conditions("ABABAB", 3)
    assert len(conds.equations) == 5
    assert all(eq.poly.evaluate(RUTH_POINT) == 0 for eq in conds.equations)
    # the reduced cubic identities hold at the known point:
    # 3(p1 + 2 p3 p4 p5) = 1 and 3(2 p2 p3 p4 + p6) = 1
    p = RUTH_POINT
    assert 3 * (p["p1"] + 2 * p["p3"] * p["p4"] * p["p5"]) == 1
    assert 3 * (2 * p["p2"] * p["p3"] * p["p4"] + p["p6"]) == 1


def test_conditions_infeasible_pattern_rejected():
    with pytest.raises(ValueError):
        order_conditions("AB", 3)
    with pytest.raises(ValueError):
        order_conditions("ABABAB", 9)


def test_pattern_reversal_maps_conditions_onto_themselves():
    conds = order_conditions("ABAB", 3)
    rev = order_conditions("BABA", 3)
    m = len("ABAB")
    relabel = {f"p{i}": RationalPoly.var(f"p{m + 1 - i}") for i in range(1, m + 1)}

    def mapped(poly):
        out = poly
        # substitute via fresh names to avoid collisions
        for i in range(1, m + 1):
            out = out.subs(f"p{i}", RationalPoly.var(f"q{m + 1 - i}"))
        for i in range(1, m + 1):
            out = out.subs(f"q{i}", RationalPoly.var(f"p{i}"))
        return out

    for degree in (1, 2, 3):
        orig = {}
        for eq in of_degree(conds, degree):
            orig[str(eq.poly)] = eq.poly
        for eq in of_degree(rev, degree):
            cand = mapped(eq.poly)
            assert any(cand == q or cand == q * Fraction(-1) for q in orig.values())


def test_even_conditions_vanish_under_palindromic_parameters():
    conds = order_conditions("ABA", 2)
    eq2 = of_degree(conds, 2)[0].poly
    assert eq2.subs("p3", RationalPoly.var("p1")).is_zero()


# ---------------------------------------------------------------------------
# verify_order
# ---------------------------------------------------------------------------

def test_verify_named_schemes():
    assert verify_order(trotter(), 3) == 1
    assert verify_order(strang(), 4) == 2
    assert verify_order(ruth(), 5) == 3
    assert verify_order(suzuki4(), 5) == 4
    assert verify_order(hybrid_second(), 3) == 2
    assert verify_order(hybrid_fourth(), 5) == 4


def test_verify_order_is_exact_for_rational_schemes():
    # ruth at order 4 must fail through exact rational arithmetic
    assert verify_order(ruth(), 4) == 3


def test_verify_order_cap():
    with pytest.raises(ValueError):
        verify_order(strang(), MAX_ORDER + 1)


def test_verify_order_needs_a_positive_order():
    with pytest.raises(ValueError, match="target order must be >= 1"):
        verify_order(strang(), 0)


def test_verify_order_builds_the_stage_product_once(monkeypatch):
    calls = {"log_residuals": 0, "_product_numerators": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ncalg, "_product_numerators", counting(ncalg._product_numerators))
    monkeypatch.setattr(orders, "log_residuals", counting(ncalg.log_residuals))
    assert verify_order(suzuki4(), 5) == 4
    # one call builds the product once; the log and the scale share it
    assert calls == {"log_residuals": 1, "_product_numerators": 1}

    # suzuki8 is five copies of suzuki6, itself five copies of suzuki4: one
    # product per level (three), and only suzuki4's merged stages are folded,
    # each stage element built once
    calls.update(log_residuals=0, _product_numerators=0, _stage_element=0)
    folded = []
    product_numerators = ncalg._product_numerators

    def recording(product, order, labels):
        if not isinstance(product, ncalg.Copies):
            folded.append(list(product))
        return product_numerators(product, order, labels)

    monkeypatch.setattr(ncalg, "_product_numerators", recording)
    monkeypatch.setattr(ncalg, "_stage_element", counting(ncalg._stage_element))
    assert verify_order(CATALOG["suzuki8"](), 8) == 8
    assert folded == [suzuki4().ncalg_stages()]
    assert calls == {"log_residuals": 1, "_product_numerators": 3,
                     "_stage_element": len(suzuki4().stages)}


def _reference_degrees(scheme, m):
    """Per degree 1..m: (all residuals 0, largest |residual|, largest |product
    coefficient|), from the product and its log as ``NcSeries`` and the
    residuals as Fractions, the rule ``verify_order`` followed before it read
    the residuals off the numerators."""
    labels = tuple(scheme.slots)
    prod = ncalg.stage_product(scheme.ncalg_product(), m, labels)
    log = ncalg.product_log(scheme.ncalg_product(), m, labels)
    target = {(j,): 1 for j in range(len(labels))}
    residual = {w: log.terms.get(w, 0) - target.get(w, 0) for w in log.terms.keys() | target}
    degrees = []
    for d in range(1, m + 1):
        diffs = [c for w, c in residual.items() if len(w) == d]
        degrees.append((all(c == 0 for c in diffs),
                        max((abs(float(c)) for c in diffs), default=0.0),
                        max((abs(float(c)) for w, c in prod.terms.items() if len(w) == d),
                            default=0.0)))
    return degrees


def _reference_verdict(exact, degrees, m):
    achieved = 0
    for zero, worst, scale in degrees[:m]:
        if not (zero if exact else worst <= 1e-12 * max(1.0, scale)):
            break
        achieved += 1
    return achieved


@pytest.mark.parametrize("make", [*CATALOG.values(), lambda: fractal(hybrid_fourth(), "triple")],
                         ids=[*CATALOG, "hybrid_fourth-triple"])
def test_verify_order_keeps_the_fraction_residual_rule(make):
    scheme = make()
    degrees = _reference_degrees(scheme, MAX_ORDER)
    records = ncalg.log_residuals(scheme.ncalg_product(), MAX_ORDER, tuple(scheme.slots))
    # the record's floats are the Fraction maxima, bit for bit
    assert [tuple(r) for r in records] == degrees
    for m in range(1, MAX_ORDER + 1):
        assert verify_order(scheme, m) == _reference_verdict(scheme.all_exact(), degrees, m)


def test_non_exact_fractal_takes_the_tolerance_path():
    # the triple jump's cube-root weights enter at their decimals' binary
    # values, so degree 5 cancels only to within the tolerance
    scheme = fractal(hybrid_fourth(), "triple")
    assert not scheme.all_exact()
    records = ncalg.log_residuals(scheme.ncalg_product(), 7, tuple(scheme.slots))
    assert [r.zero for r in records] == [True, True, True, True, False, True, False]
    assert 0 < records[4].worst <= 1e-12 * max(1.0, records[4].scale)
    assert verify_order(scheme, 7) == scheme.claimed_order == 6


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs,guess,target", [
    (fractal_poly(2, 3), 1.0, 1.351207191959657),
    (fractal_poly(4, 3), 0.4, 0.414490771794375),
    (fractal_poly(4, 5), 0.4, 0.373065827733272),
    (fractal_poly(4, 7), 0.4, 0.359584649349992),
])
def test_solver_reproduces_fractal_constants(coeffs, guess, target):
    report = solve(single_poly_conditions(coeffs), guess={"s": guess})
    assert report.converged
    assert abs(report.solution["s"] - target) < 1e-14


def test_solver_recovers_ruth_from_perturbed_guess():
    conds = order_conditions("ABABAB", 3)
    guess = {"p1": 7 / 24 + 0.05, "p2": 2 / 3 - 0.04, "p3": 3 / 4 + 0.03,
             "p4": -2 / 3 + 0.05, "p5": -1 / 24 - 0.02}
    report = solve(conds, fixed={"p6": 1}, guess=guess)
    assert report.converged
    for name, exact in RUTH_POINT.items():
        assert abs(report.solution[name] - float(exact)) < 1e-13


def test_solver_reports_nonconvergence_without_raising():
    # x^2 + 1 = 0 has no real root
    conds = single_poly_conditions([1, 0, 1])
    report = solve(conds, guess={"s": 0.7})
    assert not report.converged
    assert report.iterations <= 200
    assert report.max_residual > 1e-13


def test_solver_missing_guess():
    conds = order_conditions("AB", 1)
    with pytest.raises(ValueError):
        solve(conds, guess={"p1": 1.0})


def test_solution_substitution_kills_correction_norms():
    conds = order_conditions("ABABAB", 3)
    report = solve(conds, fixed={"p6": 1},
                   guess={k: float(v) + 0.01 for k, v in RUTH_POINT.items()
                          if k != "p6"})
    from expprod.ncalg import product_log

    stages = []
    for i, lab in enumerate("ABABAB"):
        stages.append((lab, Fraction(report.solution[f"p{i + 1}"])))
    log = product_log(stages, 3, ("A", "B"))
    for degree in (2, 3):
        for coeff in log.homogeneous(degree).values():
            assert abs(float(coeff)) <= 1e-12


def test_rationalize_solution():
    conds = order_conditions("ABABAB", 3)
    sol = {k: float(v) for k, v in RUTH_POINT.items()}
    assert rationalize_solution(conds, sol) == RUTH_POINT
    sol["p1"] += 1e-3
    assert rationalize_solution(conds, sol) is None


# ---------------------------------------------------------------------------
# exact residual kernel
# ---------------------------------------------------------------------------

@functools.cache
def _kernel_cases():
    """(conditions, kernel) for the third-order family and one order-4 pattern."""
    cases = []
    for pattern, m in (("ABABAB", 3), ("ABABABA", 4)):
        conds = order_conditions(pattern, m)
        cases.append((conds, CompiledPolys((eq.poly for eq in conds.equations),
                                           conds.parameters)))
    return cases


def _float_or_overflow(value):
    """The exact bits of a float residual (sign of zero included), or the overflow."""
    try:
        return float(value()).hex()
    except OverflowError:
        return "OverflowError"


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                   2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
                   1.7976931348623157e308, 1.0, -1.0 / 3.0]
_POINT_VALUE = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(-4.0, 4.0),
    st.floats(1e290, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e290),
    st.floats(-1e-290, 1e-290),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_POINT_VALUE, min_size=7, max_size=7))
def test_compiled_residuals_bit_identical_to_fraction_evaluation(values):
    for conds, kernel in _kernel_cases():
        point = values[:len(conds.parameters)]
        exact = {p: Fraction(v) for p, v in zip(conds.parameters, point)}
        for eq, (n, d) in zip(conds.equations, kernel.ratios(point)):
            assert (_float_or_overflow(lambda: n / d)
                    == _float_or_overflow(lambda: eq.poly.evaluate(exact)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=10 ** 6), min_size=7, max_size=7))
def test_compiled_polys_exact_at_fraction_points(values):
    for conds, kernel in _kernel_cases():
        point = values[:len(conds.parameters)]
        exact = dict(zip(conds.parameters, point))
        for eq, (n, d) in zip(conds.equations, kernel.ratios(point)):
            assert Fraction(n, d) == eq.poly.evaluate(exact)


def test_compiled_polys_refuse_bad_points():
    conds, kernel = _kernel_cases()[0]
    # non-finite values raise as Fraction(value) does
    for bad, error in ((math.inf, OverflowError), (math.nan, ValueError)):
        values = [bad, 1.0, 1.0, 1.0, 1.0, 1.0]
        with pytest.raises(error):
            Fraction(bad)
        with pytest.raises(error):
            kernel.ratios(values)
    with pytest.raises(ValueError, match="expected 6 values, got 5"):
        kernel.ratios([1.0] * 5)


@settings(max_examples=300, deadline=None)
@given(st.lists(_POINT_VALUE, min_size=7, max_size=7))
def test_compiled_jacobian_bit_identical_to_evaluate(values):
    for conds, kernel in _kernel_cases():
        point = values[:len(conds.parameters)]
        at = dict(zip(conds.parameters, point))
        try:
            jac = kernel.jacobian(point, range(len(point)))
        except OverflowError:  # a float power out of range raises, as in evaluate
            jac = None
        expected = []
        try:
            for eq in conds.equations:
                expected.append([float(eq.poly.derivative(p).evaluate(at)).hex()
                                 for p in conds.parameters])
        except OverflowError:
            expected = None
        assert (None if jac is None else [[v.hex() for v in row] for row in jac]) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_POINT_VALUE, min_size=7, max_size=7), min_size=1, max_size=4))
def test_lower_bounds_never_exceed_exact_magnitudes(rows):
    for conds, kernel in _kernel_cases():
        points = [row[:len(conds.parameters)] for row in rows]
        bounds = kernel.lower_bounds(np.array(points))
        for point, floor in zip(points, bounds):
            if np.isnan(floor).any():
                assert np.isnan(floor).all()
                continue
            exact = [abs(Fraction(n, d)) for n, d in kernel.ratios(point)]
            assert all(Fraction(f) <= e for f, e in zip(floor, exact))
            # a bounded point is one whose exact residuals are finite floats
            assert all(math.isfinite(n / d) for n, d in kernel.ratios(point))


def test_solve_and_rationalize_make_no_fraction_evaluation(monkeypatch):
    calls = []
    evaluate = RationalPoly.evaluate

    def counted(self, assignment):
        calls.append(any(isinstance(v, Fraction) for v in assignment.values()))
        return evaluate(self, assignment)

    monkeypatch.setattr(RationalPoly, "evaluate", counted)
    conds = order_conditions("ABABAB", 3)
    report = solve(conds, fixed={"p6": 1.0},
                   guess={k: float(v) + 0.01 for k, v in RUTH_POINT.items() if k != "p6"})
    assert report.converged
    assert rationalize_solution(conds, report.solution) == RUTH_POINT
    # residuals, Jacobian and the rational check all run on the compiled form
    assert calls == []


# ---------------------------------------------------------------------------
# the screened line search against the plain one
# ---------------------------------------------------------------------------

def _plain_solve(conds, fixed=None, guess=None):
    """``solve`` with its plain line search: every trial evaluated exactly, in turn,
    and the Jacobian by ``RationalPoly.evaluate``."""
    fixed = dict(fixed or {})
    guess = dict(guess or {})
    free = [p for p in conds.parameters if p not in fixed]
    x = np.array([float(guess[p]) for p in free], dtype=float)
    fixed_f = {p: float(v) for p, v in fixed.items()}
    grads = [[eq.poly.derivative(p) for p in free] for eq in conds.equations]
    compiled = CompiledPolys((eq.poly for eq in conds.equations), conds.parameters)

    def assignment(vec):
        a = dict(fixed_f)
        a.update({p: float(v) for p, v in zip(free, vec)})
        return a

    def residuals(vec):
        a = assignment(vec)
        return np.array([n / d for n, d in compiled.ratios([a[p] for p in conds.parameters])])

    r = residuals(x)
    best = float(np.max(np.abs(r))) if r.size else 0.0
    iterations = 0
    message = ""
    nudges = 0
    for iterations in range(1, orders.SOLVE_MAX_ITER + 1):
        if not free:
            break
        a = assignment(x)
        jac = np.array([[float(g.evaluate(a)) for g in row] for row in grads])
        if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(r))):
            message = "non-finite Jacobian or residual"
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            message = "singular Newton step"
            break
        lam = 1.0
        improved = False
        for _ in range(30):
            x_new = x + lam * step
            r_new = residuals(x_new)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                x, r = x_new, r_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            if best > orders.SOLVE_TOL and nudges < 3:
                nudges += 1
                x = x + 0.02 * (1.0 + np.abs(x))
                r = residuals(x)
                best = float(np.max(np.abs(r))) if r.size else 0.0
                continue
            message = "stalled (no descent along Newton direction)"
            break
        best = float(np.max(np.abs(r))) if r.size else 0.0
        if best == 0.0 or (best <= orders.SOLVE_TOL and np.linalg.norm(lam * step)
                           <= 1e-15 * (1 + np.linalg.norm(x))):
            break
    solution = assignment(x)
    converged = best <= orders.SOLVE_TOL
    if converged:
        message = ""
    elif not message:
        message = (f"no convergence in {orders.SOLVE_MAX_ITER} iterations" if free
                   else "no free parameters")
    return orders.SolveReport(solution={p: solution[p] for p in conds.parameters},
                              residuals=tuple(float(v) for v in r),
                              iterations=iterations, converged=converged, message=message)


def _outcome(solver, conds, fixed, guess):
    """Every bit of a solve: its report with floats as hex, or the error it raised.

    Run under ``solve``'s own errstate, so a norm past the float range reads
    inf in both solvers.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report = solver(conds, fixed=fixed, guess=guess)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    return ({p: v.hex() for p, v in report.solution.items()},
            [v.hex() for v in report.residuals],
            report.iterations, report.converged, report.message)


@functools.cache
def _family_solves(grid: str):
    """The (fixed, guess) of each solve ``ruth_family`` makes on a grid."""
    calls = []

    def recording(conds, fixed=None, guess=None):
        calls.append((dict(fixed), dict(guess)))
        return solve(conds, fixed=fixed, guess=guess)

    orders_solve = orders.solve
    orders.solve = recording
    try:
        ruth_family(cli.parse_range(grid))
    finally:
        orders.solve = orders_solve
    return calls


@pytest.mark.parametrize("grid", ["0:1.4:0.2", "0.2:1.4:0.05"])
def test_screened_solve_matches_plain_on_family_grids(grid):
    conds = order_conditions("ABABAB", 3)
    reports = []
    for fixed, guess in _family_solves(grid):
        outcome = _outcome(solve, conds, fixed, guess)
        assert outcome == _outcome(_plain_solve, conds, fixed, guess), fixed
        reports.append(outcome)
    # both grids hold flagged points, and the fold's 200-iteration creep
    assert any(not converged for *_, converged, _ in reports)


@pytest.mark.parametrize("pattern,order,fixed,guess", [
    ("ABA", 3, {}, {"p1": 0.5, "p2": 0.5, "p3": 0.5}),     # no third-order ABA: stalls
    ("ABA", 3, {}, {"p1": 1e200, "p2": 0.5, "p3": 0.5}),   # exact residual overflows
    ("ABABAB", 3, {"p6": 1}, {"p1": 1e200, "p2": 1, "p3": 1, "p4": 1, "p5": 1}),
    ("ABABAB", 3, {"p6": 0.2}, {"p1": 0.2541563017600742, "p2": 0.634995854037363,
                                "p3": 1.4999999999999998, "p4": -0.03499585403736303,
                                "p5": -0.7541563017600739}),
], ids=["aba3_stall", "aba3_overflow", "ruth_overflow", "fold_creep"])
def test_screened_solve_matches_plain_on_named_cases(pattern, order, fixed, guess):
    conds = order_conditions(pattern, order)
    assert _outcome(solve, conds, fixed, guess) == _outcome(_plain_solve, conds, fixed, guess)


@functools.cache
def _conditions(pattern, order):
    return order_conditions(pattern, order)


_GUESS_VALUE = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-200, 1e100, -1e150, 1e200, 1.7976931348623157e308]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("ABA", 2), ("ABA", 3), ("ABAB", 3), ("ABABA", 4)]),
       st.lists(_GUESS_VALUE, min_size=5, max_size=5), st.booleans())
def test_screened_solve_matches_plain_on_drawn_guesses(case, values, fix_last):
    conds = _conditions(*case)
    params = conds.parameters
    fixed = {params[-1]: values[-1]} if fix_last else {}
    guess = {p: v for p, v in zip(params, values) if p not in fixed}
    assert _outcome(solve, conds, fixed, guess) == _outcome(_plain_solve, conds, fixed, guess)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6))
def test_screen_rejects_only_trials_the_exact_norm_rejects(x, step):
    conds = _conditions("ABABAB", 3)
    kernel = conds.compiled
    x, step = np.array(x), np.array(step)

    def norm(point):
        return np.linalg.norm([n / d for n, d in kernel.ratios(point.tolist())])

    trials = x + orders._TRIAL_SCALES[:, None] * step
    norm_r = norm(x)
    for trial in trials[orders._screened_out(kernel, trials, norm_r)]:
        assert norm(trial) >= norm_r


def test_family_grid_screen_is_sound_and_saves_exact_evaluations(monkeypatch):
    calls = []
    ratios = CompiledPolys.ratios
    screened_out = orders._screened_out

    def counted(self, values):
        calls.append(1)
        return ratios(self, values)

    def checked(kernel, points, norm_r):
        out = screened_out(kernel, points, norm_r)
        for point in points[out]:
            assert np.linalg.norm([n / d for n, d in ratios(kernel, point.tolist())]) >= norm_r
        return out

    monkeypatch.setattr(orders, "_screened_out", checked)
    ruth_family([0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4])
    monkeypatch.setattr(CompiledPolys, "ratios", counted)
    monkeypatch.setattr(orders, "_screened_out", screened_out)
    ruth_family([0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4])
    # 3729 exact evaluations when every line-search trial is evaluated exactly
    assert len(calls) <= 600


def test_solve_message_is_empty_on_convergence():
    conds = order_conditions("ABABAB", 3)
    report = solve(conds, fixed={"p6": 1}, guess={k: float(v) + 0.01 for k, v in RUTH_POINT.items()
                                                  if k != "p6"})
    assert report.converged and report.message == ""
    report = solve(single_poly_conditions([1, 0, 1]), guess={"s": 0.7})
    assert not report.converged
    assert report.message == "stalled (no descent along Newton direction)"


# ---------------------------------------------------------------------------
# ruth_family
# ---------------------------------------------------------------------------

def test_family_contains_ruth_at_p6_equal_one():
    points = ruth_family([0.8, 0.9, 1.0, 1.1])
    by_p6 = {round(pt.p6, 6): pt for pt in points}
    pt = by_p6[1.0]
    assert pt.converged
    for name, exact in RUTH_POINT.items():
        assert abs(pt.solution[name] - float(exact)) < 1e-12


def test_family_converged_points_have_small_residuals():
    points = ruth_family([0.6, 0.8, 1.0, 1.2, 1.4])
    assert all(pt.max_residual <= 1e-12 for pt in points if pt.converged)
    assert sum(pt.converged for pt in points) == len(points)


def test_family_flags_the_complex_region():
    points = ruth_family([0.0])
    assert not points[0].converged


def test_family_p3_has_a_pole_at_one_third():
    # with p1 and p2 fixed by the sum rules, p3 (6 p6 - 2) - (4 p6 - 1) is a
    # polynomial combination of the three other conditions: no solution has p6 = 1/3
    p = {i: RationalPoly.var(f"p{i}") for i in range(1, 7)}
    e2, e3a, e3b = (eq.poly.subs("p1", 1 - p[3] - p[5]).subs("p2", 1 - p[4] - p[6])
                    for eq in order_conditions("ABABAB", 3).equations[2:])
    c2 = (12 * p[3] * p[4] + 24 * p[3] * p[6] - 12 * p[3] + 12 * p[5] * p[6] - 12 * p[5]
          - 12 * p[6] + 6)
    assert c2 * e2 + (24 * p[6] - 24) * e3a - 24 * p[3] * e3b == (
        6 * p[3] * p[6] - 2 * p[3] - 4 * p[6] + 1)


def test_family_points_keep_the_p3_identity_on_both_sides_of_the_pole():
    above = ruth_family([1.4, 1.0, 0.6, 0.4, 0.35, 0.34])
    below = ruth_family([0.3, 0.28, 0.26, 0.255, 0.252, 0.251, 0.2505])
    for pt in above + below:
        assert pt.converged
        p3 = pt.solution["p3"]
        assert abs(p3 - (4 * pt.p6 - 1) / (2 * (3 * pt.p6 - 1))) <= 1e-13 * max(1.0, abs(p3))
    # toward p6 = 1/4, p3 -> 0 while |p2| grows without bound
    p2 = [abs(pt.solution["p2"]) for pt in below]
    assert all(a < b for a, b in zip(p2, p2[1:])) and p2[-1] > 3
    # a step from a point near the pole does not reach the other side
    assert [pt.converged for pt in ruth_family([0.35, 0.3])] == [True, False]


def test_family_csv_format(capsys):
    assert cli.main(["family", "--p6", "1"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "p6,p1,p2,p3,p4,p5,max_residual,converged"
    assert lines[1].startswith("1,0.2916666666666")
    assert lines[1].endswith(",true")
    assert text.endswith("\n") and "\r" not in text
