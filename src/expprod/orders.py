"""Order conditions: generation, verification, and Newton solving.

The condition generator runs the series logarithm of a stage list with
symbolic coefficients and Lie-projects each homogeneous component; every
Lyndon-word coefficient that must vanish (and the degree-1 sum-to-one
conditions) becomes one polynomial equation.  Verification reads each
degree's residuals off the series kernel's integer numerators, with no
rational per word.  The solver is a damped least-squares Newton iteration
with exact polynomial gradients.  The module returns equations and
reports; it formats nothing (the CLI writes every table).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .ncalg import bracket_fold, lie_project, log_residuals, lyndon_words, product_log
from .poly import Coeff, CompiledPolys, RationalPoly
from .schemes import Scheme, ruth

# Truncation cap of the exact series work: condition generation and
# order verification refuse a higher target order.
MAX_ORDER = 9
# Newton converges at a largest residual <= SOLVE_TOL within SOLVE_MAX_ITER steps.
SOLVE_TOL = 1e-13
SOLVE_MAX_ITER = 200
# The line search's step scales: 1, 1/2, ..., 2^-29.
_TRIAL_SCALES = np.ldexp(1.0, -np.arange(30))
# A trial is screened out only when the bound on its norm tops norm(r) by
# this relative margin, far above the rounding of either norm (a few hundred
# ulps for the largest condition set below the order cap).
_SCREEN_MARGIN = 2.0 ** -30
# Bounds below this are dropped, so no square in the bound's norm underflows.
_FLOOR_MIN = 2.0 ** -400


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError("target order must be >= 1")
    if m > MAX_ORDER:
        raise ValueError(f"order {m} exceeds the configured truncation cap ({MAX_ORDER})")


@dataclass(frozen=True)
class ConditionEq:
    """One polynomial equation (== 0), tagged by degree and Lyndon word."""

    degree: int
    word: tuple[int, ...]
    poly: RationalPoly


@dataclass(frozen=True)
class OrderConditionSet:
    parameters: tuple[str, ...]
    equations: tuple[ConditionEq, ...]

    @functools.cached_property
    def compiled(self) -> CompiledPolys:
        """The equations compiled once; every solve and check of this set shares it."""
        return CompiledPolys((eq.poly for eq in self.equations), self.parameters)


@dataclass
class SolveReport:
    solution: dict[str, float]
    residuals: tuple[float, ...]
    iterations: int
    converged: bool
    message: str = ""

    @property
    def max_residual(self) -> float:
        return max((abs(r) for r in self.residuals), default=0.0)


def order_conditions(stages: Sequence[tuple[str | tuple, Coeff]], m: int) -> OrderConditionSet:
    """Polynomial conditions for a stage list to reach order m.

    ``stages`` holds (target, coefficient) pairs, as ``product_log`` takes
    them.  Labels are the targets' sorted leaves; parameters are the
    coefficients' variables in order of first appearance.  Degree 1 gives
    the per-label sum-to-one conditions, and each degree 2..m one equation
    per Lyndon word of that length: its coefficient in the log of the product.
    """
    _check_order(m)
    labels = tuple(sorted({leaf for target, _ in stages
                           for leaf in bracket_fold(target, lambda lab: (lab,), tuple.__add__)}))
    params = tuple(dict.fromkeys(name for _, c in stages if isinstance(c, RationalPoly)
                                 for name in sorted(c.variables())))
    log = product_log(stages, m, labels)
    combo = lie_project(log)
    equations = []
    for lw in lyndon_words(len(labels), m):
        coeff = RationalPoly.const(0) + combo.terms.get(lw, 0)
        if len(lw) == 1:
            coeff = coeff - RationalPoly.const(1)  # each letter's coefficient must be 1
        equations.append(ConditionEq(len(lw), lw, coeff))
    return OrderConditionSet(params, tuple(equations))


def verify_order(scheme: Scheme, m: int) -> int:
    """Highest order k <= m at which all correction terms vanish.

    The log must equal the exact flow's: each letter has coefficient 1 at
    degree 1, every longer word 0.  ``ncalg.log_residuals`` reads each
    degree's residuals off the numerators of ``Scheme.ncalg_product()``.
    Schemes with purely rational coefficients are checked exactly.  Any other
    enters at the exact binary values of its constants' decimals
    (``Scheme.ncalg_stages``), so its degree-d residuals need only be within
    1e-12 times the largest degree-d coefficient magnitude of the product
    (at least 1).
    """
    _check_order(m)
    exact = scheme.all_exact()
    achieved = 0
    for r in log_residuals(scheme.ncalg_product(), m, tuple(scheme.slots)):
        if not (r.zero if exact else r.worst <= 1e-12 * max(1.0, r.scale)):
            break
        achieved += 1
    return achieved


def _screened_out(compiled: CompiledPolys, points: np.ndarray, norm_r: float) -> np.ndarray:
    """Which rows of ``points`` provably have a computed residual norm >= ``norm_r``.

    ``compiled.lower_bounds`` gives floats f_k <= |p_k(x)|, so the correctly
    rounded residual has |r_k| >= f_k and the computed norm(r) is at least
    ||f|| (1 - gamma_(n+1)); the norm of f computed here is at most
    ||f|| (1 + gamma_(n+1)).  A row without a bound (NaN) is never screened out.
    """
    floors = compiled.lower_bounds(points)
    floors[floors < _FLOOR_MIN] = 0.0
    return np.sqrt(np.sum(floors * floors, axis=1)) * (1 - _SCREEN_MARGIN) >= norm_r


@np.errstate(over="ignore", invalid="ignore")  # a norm past the float range reads inf
def solve(conds: OrderConditionSet, fixed: Mapping[str, object] | None = None,
          guess: Mapping[str, float] | None = None) -> SolveReport:
    """Damped least-squares Newton on the condition polynomials.

    ``fixed`` pins parameters (the usual way to cut a one-parameter family
    down to isolated points); ``guess`` must cover every free parameter.
    A name in either that the conditions lack is a ValueError.
    Non-convergence is reported, not raised, with its reason in ``message``.

    Residuals are exact integer evaluations at the float iterate with the
    conditions compiled once per condition set (``conds.compiled``): each
    residual is the correctly rounded float of its exact value there.  An
    iterate whose exact residual exceeds the float range raises
    OverflowError.  The Jacobian is evaluated in floats; a non-finite
    Jacobian or residual ends the solve unconverged before the Newton step.

    The line search tries x + 2^-k step, k = 0..29, and takes the first
    trial whose residual norm is below norm(r).  Trial 0 is evaluated
    exactly.  After a rejection, a trial equal to x is rejected unevaluated
    (its residual is r), and the others are first bounded in floats, all at
    once: a trial is rejected unevaluated when a proved lower bound on its
    computed residual norm clears norm(r) (``CompiledPolys.lower_bounds``,
    which claims no bound at a non-finite point or near the float range).
    Every other trial is evaluated exactly, so the accepted trial, any
    OverflowError and every output are those of evaluating each trial
    exactly in turn.
    """
    fixed = dict(fixed or {})
    guess = dict(guess or {})
    unknown = sorted((fixed.keys() | guess.keys()) - set(conds.parameters))
    if unknown:
        raise ValueError(f"parameters {unknown} are not in the conditions")
    free = [p for p in conds.parameters if p not in fixed]
    missing = [p for p in free if p not in guess]
    if missing:
        raise ValueError(f"initial guess missing parameters {missing}")
    x = np.array([float(guess[p]) for p in free], dtype=float)
    compiled = conds.compiled
    free_cols = [conds.parameters.index(p) for p in free]
    base = np.array([float(fixed.get(p, 0.0)) for p in conds.parameters])

    def points(rows):
        """Every parameter's value, one row per row of free values."""
        out = np.tile(base, (len(rows), 1))
        out[:, free_cols] = rows
        return out

    def values(vec):
        return points([vec])[0].tolist()

    def residuals(vec):
        # Exact evaluation at the (exact binary) float point kills the
        # cancellation noise floor; accuracy is then limited only by the
        # float resolution of the iterate itself.
        return np.array([n / d for n, d in compiled.ratios(values(vec))])

    r = residuals(x)
    best = float(np.max(np.abs(r))) if r.size else 0.0
    iterations = 0
    message = ""
    nudges = 0
    for iterations in range(1, SOLVE_MAX_ITER + 1):
        if not free:
            break
        jac = np.array(compiled.jacobian(values(x), free_cols))
        if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(r))):
            # lstsq cannot take it (LAPACK fails and writes to stdout)
            message = "non-finite Jacobian or residual"
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            message = "singular Newton step"
            break
        norm_r = np.linalg.norm(r)
        trials = x + _TRIAL_SCALES[:, None] * step
        skip = None
        accepted = None
        for k, x_new in enumerate(trials):
            if k and skip is None:
                # after the first rejection: drop trials equal to x or proved worse
                skip = np.all(trials == x, axis=1) | _screened_out(compiled, points(trials),
                                                                   norm_r)
            if k and skip[k]:
                continue
            r_new = residuals(x_new)
            if np.linalg.norm(r_new) < norm_r:
                x, r, accepted = x_new, r_new, k
                break
        if accepted is None:
            if best > SOLVE_TOL and nudges < 3:
                # Stationary point of the residual norm away from any root
                # (e.g. a vanishing derivative at the guess): take a fixed
                # deterministic sidestep and keep going.
                nudges += 1
                x = x + 0.02 * (1.0 + np.abs(x))
                r = residuals(x)
                best = float(np.max(np.abs(r))) if r.size else 0.0
                continue
            message = "stalled (no descent along Newton direction)"
            break
        best = float(np.max(np.abs(r))) if r.size else 0.0
        if best == 0.0 or (best <= SOLVE_TOL and np.linalg.norm(_TRIAL_SCALES[accepted] * step)
                           <= 1e-15 * (1 + np.linalg.norm(x))):
            break
    converged = best <= SOLVE_TOL
    if converged:
        message = ""
    elif not message:
        message = (f"no convergence in {SOLVE_MAX_ITER} iterations" if free
                   else "no free parameters")
    return SolveReport(solution=dict(zip(conds.parameters, values(x))),
                       residuals=tuple(float(v) for v in r),
                       iterations=iterations, converged=converged, message=message)


def rationalize_solution(conds: OrderConditionSet,
                         solution: Mapping[str, float]) -> dict[str, Fraction] | None:
    """Snap a float solution to rationals with denominators up to 10**6 if they
    satisfy the system exactly."""
    candidate = {p: Fraction(solution[p]).limit_denominator(10 ** 6)
                 for p in conds.parameters}
    if any(n for n, _ in conds.compiled.ratios(candidate.values())):
        return None
    return candidate


def ruth_family(p6_values: Sequence[float]) -> list[SolveReport]:
    """Trace Ruth's one-parameter family of third-order ABABAB solutions.

    The conditions are ``schemes.ruth()``'s stages with the i-th coefficient
    a free p_i.  Each grid value pins the last, p6; the solve starts from
    the previous converged point (Ruth's own first five coefficients seed
    the point nearest to p6 = 1).  Failed points are flagged unconverged and
    continuation restarts from the nearest converged neighbor.

    Every solution has p3 (6 p6 - 2) = 4 p6 - 1, a polynomial combination of
    the conditions (the tests hold its cofactors), so no solution has
    p6 = 1/3 and p3 diverges there.  A step from a point near the pole does
    not reach the other side: on ``family --p6 0.2:1.4:0.05`` the last point
    that converges is 0.35, while a grid that starts below 1/3 converges from
    Ruth's seed.  A lex Groebner basis of the conditions (computed outside
    this package) leaves p5 a root of a quadratic whose discriminant has the
    sign of (4 p6 - 1)(12 p6^3 + 9 p6^2 - 6 p6 + 1), so no real solution has
    -1.21708 < p6 < 1/4 (the cubic's one real root is -1.21708).  Toward
    p6 = 1/4, p3 -> 0 while p2 and p4 diverge with opposite signs; below
    -1.21708 ``solve`` converges again (checked at p6 = -1.25 ... -3).
    """
    scheme = ruth()
    conds = order_conditions([(st.target, RationalPoly.var(f"p{i + 1}"))
                              for i, st in enumerate(scheme.stages)], scheme.claimed_order)
    p6_list = [float(v) for v in p6_values]
    reports: list[SolveReport | None] = [None] * len(p6_list)
    current = {p: float(st.coeff) for p, st in zip(conds.parameters[:-1], scheme.stages)}
    solved: list[tuple[float, dict[str, float]]] = []
    # sweep outward from the seed-nearest grid point
    for idx in sorted(range(len(p6_list)), key=lambda i: abs(p6_list[i] - 1.0)):
        p6 = p6_list[idx]
        if solved:
            current = dict(min(solved, key=lambda sv: abs(sv[0] - p6))[1])
        report = reports[idx] = solve(conds, fixed={"p6": p6}, guess=current)
        if report.converged:
            solved.append((p6, {p: v for p, v in report.solution.items() if p != "p6"}))
    return reports
