"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients throughout the series algebra are either plain
:class:`fractions.Fraction` values or :class:`RationalPoly` instances in
named parameters.  Arithmetic never leaves exact rationals; a polynomial
that collapses to a constant is demoted back to a ``Fraction`` by
:func:`as_exact`.  :class:`CompiledPolys` evaluates a fixed set of
polynomials at many points: exactly, in integers, and in floats with a
proved error bound or with the derivatives' float operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

# A monomial is a sorted tuple of (variable name, positive exponent) pairs.
Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]
Coeff = Union[Fraction, "RationalPoly"]


def frac_str(q: Fraction) -> str:
    """Decimal-free rendering: ``"7/24"``, ``"-2/3"``, integers as ``"1"``."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _norm_mono(powers: Iterable[tuple[str, int]]) -> Monomial:
    merged: dict[str, int] = {}
    for name, exp in powers:
        if exp:
            merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in merged.items() if e))


class RationalPoly:
    """Polynomial over Q in named variables, stored as monomial -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, value: Scalar) -> "RationalPoly":
        v = Fraction(value)
        return cls({(): v} if v else {})

    @classmethod
    def var(cls, name: str) -> "RationalPoly":
        return cls({((name, 1),): Fraction(1)})

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    # -- arithmetic ---------------------------------------------------
    @staticmethod
    def _coerce(other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "RationalPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in o.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = RationalPoly.__new__(RationalPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        res = RationalPoly.__new__(RationalPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "RationalPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RationalPoly":
        return (-self) + other

    def __mul__(self, other) -> "RationalPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = _norm_mono(m1 + m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = RationalPoly.__new__(RationalPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = RationalPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus and evaluation ---------------------------------------
    def derivative(self, name: str) -> "RationalPoly":
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            for i, (var, exp) in enumerate(mono):
                if var == name:
                    lowered = mono[:i] + (((var, exp - 1),) if exp > 1 else ()) + mono[i + 1:]
                    mono2 = _norm_mono(lowered)
                    s = out.get(mono2, Fraction(0)) + c * exp
                    if s:
                        out[mono2] = s
                    else:
                        out.pop(mono2, None)
                    break
        res = RationalPoly.__new__(RationalPoly)
        res.terms = out
        return res

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate at an assignment; exact when given Fractions, float otherwise."""
        total = None
        for mono, c in sorted(self.terms.items()):  # canonical order: float sums reproduce
            value: object = c
            for var, exp in mono:
                if var not in assignment:
                    raise KeyError(f"no value for parameter {var!r}")
                value = value * (assignment[var] ** exp)
            total = value if total is None else total + value
        if total is None:
            return Fraction(0)
        return total

    def subs(self, name: str, replacement) -> "RationalPoly":
        """Substitute a variable by a scalar or another polynomial."""
        rep = replacement if isinstance(replacement, RationalPoly) else RationalPoly.const(replacement)
        out = RationalPoly.const(0)
        for mono, c in self.terms.items():
            factor = RationalPoly({_norm_mono(tuple((v, e) for v, e in mono if v != name)): c})
            exp = next((e for v, e in mono if v == name), 0)
            if exp:
                factor = factor * rep ** exp
            out = out + factor
        return out

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        monos = []
        for mono, c in sorted(self.terms.items()):
            monos.append({"powers": {v: e for v, e in mono}, "coeff": frac_str(c)})
        return {"monomials": monos}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            body = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
            parts.append(frac_str(c) if not body else f"{frac_str(c)}*{body}")
        return " + ".join(parts)


def _powers(base: int, top: int) -> list[int]:
    row = [1]
    for _ in range(top):
        row.append(row[-1] * base)
    return row


class CompiledPolys:
    """Polynomials compiled once for evaluation at many points.

    Exact: polynomial k keeps integer coefficients over the lcm D_k of its
    denominators, each with ``(variable index, exponent)`` pairs over
    ``variables`` and its shortfall from the top degree t_k.  A point
    (floats, ints or Fractions) is taken as integer numerators over one
    common denominator Q, the lcm of the values' denominators: a power of
    two for floats.  Every monomial is shifted up to degree t_k, so the value
    of polynomial k is one integer over D_k Q^t_k, and ``n / d`` of that pair
    is the correctly rounded float of the exact value (raising OverflowError
    where ``float(Fraction)`` does).

    Float: ``lower_bounds`` proves how far from zero each polynomial is at
    many float points at once, and ``jacobian`` gives the partial
    derivatives at a float point with the float operations of
    ``RationalPoly.evaluate``.
    """

    __slots__ = ("_polys", "_top_exp", "_top_degree", "_coeffs", "_exps", "_gamma",
                 "_log2_coeff", "_derivs")

    def __init__(self, polys: Iterable[RationalPoly], variables: Iterable[str]):
        names = tuple(variables)
        index = {name: i for i, name in enumerate(names)}
        polys = list(polys)
        self._top_exp = [0] * len(index)
        self._polys = []
        for poly in polys:
            den = math.lcm(*(c.denominator for c in poly.terms.values()))
            top = poly.total_degree()
            terms = []
            for mono, c in poly.terms.items():
                powers = tuple((index[var], exp) for var, exp in mono)
                for i, exp in powers:
                    self._top_exp[i] = max(self._top_exp[i], exp)
                terms.append((c.numerator * (den // c.denominator), powers,
                              top - sum(exp for _, exp in mono)))
            self._polys.append((den, top, terms))
        self._top_degree = max((top for _, top, _ in self._polys), default=0)
        # float screen: one coefficient row per polynomial over the distinct monomials
        monos = sorted({mono for poly in polys for mono in poly.terms})
        column = {mono: j for j, mono in enumerate(monos)}
        self._coeffs = np.zeros((len(polys), len(monos)))
        self._exps = np.zeros((len(monos), len(names)), dtype=np.intp)
        for j, mono in enumerate(monos):
            for var, exp in mono:
                self._exps[j, index[var]] = exp
        for k, poly in enumerate(polys):
            for mono, c in poly.terms.items():
                self._coeffs[k, column[mono]] = float(c)
        # A term takes at most 1 + top degree roundings (float(c), the
        # repeated multiplications of its powers and monomial, the product
        # with c) and the sum one per further monomial: K = top degree +
        # monomials.  The error is at most gamma_K / (1 - gamma_K) times the
        # computed sum of |terms|; gamma_2K is twice that, covering its own rounding.
        two_k_u = 2 * (self._top_degree + len(monos)) * 2.0 ** -53
        self._gamma = two_k_u / (1 - two_k_u)
        # log2 of the smallest |coefficient| (-inf if one underflows) and of
        # the largest times the number of monomials
        mags = [abs(float(c)) for poly in polys for c in poly.terms.values()]
        self._log2_coeff = (math.log2(min(mags)) if min(mags, default=1.0) else -math.inf,
                            math.log2(max(mags, default=1.0) * max(1, len(monos))))
        self._derivs = [[_float_terms(poly.derivative(name), index) for name in names]
                        for poly in polys]

    def ratios(self, values: Iterable) -> list[tuple[int, int]]:
        """(numerator, denominator) of each polynomial at ``values``, in order.

        Inf and NaN values raise like ``Fraction(value)``.
        """
        ratios = [v.as_integer_ratio() for v in values]
        if len(ratios) != len(self._top_exp):
            raise ValueError(f"expected {len(self._top_exp)} values, got {len(ratios)}")
        q = math.lcm(*(d for _, d in ratios))
        pows = [_powers(n * (q // d), top) for (n, d), top in zip(ratios, self._top_exp)]
        q_pows = _powers(q, self._top_degree)
        out = []
        for den, top, terms in self._polys:
            total = 0
            for c, powers, short in terms:
                for i, exp in powers:
                    c *= pows[i][exp]
                total += c * q_pows[short]
            out.append((total, den * q_pows[top]))
        return out

    def lower_bounds(self, points) -> np.ndarray:
        """Proved lower bounds on |p_k(x)| at the rows x of ``points`` (points x variables).

        The result has one row per point and one column per polynomial.

        Each polynomial is evaluated in floats (powers by repeated
        multiplication), with the rounding-error bound gamma_2K * sum |c m(x)|
        on K roundings per term (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 3); the bound is |value| less that error, or 0.  It
        holds while every intermediate stays in the normal float range, so
        a row is NaN where a coordinate is not finite or where the largest
        and smallest products the coordinates and coefficients can form leave
        [2^-900, 2^400].  Below 2^400 the exact value is a finite float.
        """
        x = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            mag = np.abs(x)
            big = np.maximum(mag.max(axis=1, initial=1.0), 1.0)
            small = np.where(mag > 0, mag, 1.0).min(axis=1, initial=1.0)
            pw = [np.ones_like(x)]
            for _ in range(self._top_degree):
                pw.append(pw[-1] * x)
            cols = np.arange(x.shape[1])
            mono = np.stack(pw)[self._exps, :, cols].prod(axis=1)  # (monomials, points)
            value = self._coeffs @ mono
            spread = np.abs(self._coeffs) @ np.abs(mono)
            floor = np.maximum((np.abs(value) - self._gamma * spread) * (1 - 2.0 ** -50), 0.0)
            lo, hi = self._log2_coeff
            ok = (np.isfinite(x).all(axis=1)
                  & (self._top_degree * np.log2(small) + min(lo, 0.0) >= -900)
                  & (self._top_degree * np.log2(big) + max(hi, 0.0) <= 400))
        floor = floor.T
        floor[~ok] = np.nan
        return floor

    def jacobian(self, values: Iterable[float], columns: Iterable[int]) -> list[list[float]]:
        """d p_k / d x_j at a float point, for each k and each index j in ``columns``.

        Bit-identical to ``float(p.derivative(name).evaluate(point))``: each
        derivative is compiled once in ``evaluate``'s sorted term order, and
        evaluated with its float operations, ``c * x**e`` left to right,
        summed left to right.
        """
        x = [float(v) for v in values]
        columns = list(columns)
        return [[_float_value(row[j], x) for j in columns] for row in self._derivs]


def _float_terms(poly: RationalPoly, index: Mapping[str, int]):
    return tuple((float(c), tuple((index[var], exp) for var, exp in mono))
                 for mono, c in sorted(poly.terms.items()))


def _float_value(terms, x: list[float]) -> float:
    total = None
    for c, powers in terms:
        value = c
        for i, exp in powers:
            value = value * (x[i] ** exp)
        total = value if total is None else total + value
    return 0.0 if total is None else total


def as_exact(value) -> Coeff:
    """Demote constant polynomials to Fractions; pass everything else through."""
    if isinstance(value, RationalPoly):
        if value.is_const():
            return value.const_value()
        return value
    return Fraction(value)


def coeff_to_json(c: Coeff):
    if isinstance(c, RationalPoly):
        return c.to_json()
    return frac_str(c)

