"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients throughout the series algebra are either plain
:class:`fractions.Fraction` values or :class:`RationalPoly` instances in
named parameters.  Arithmetic never leaves exact rationals; a polynomial
that collapses to a constant is demoted back to a ``Fraction`` by
:func:`as_exact`.  :class:`CompiledPolys` evaluates a fixed set of
polynomials exactly, in integers, at many points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

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
    """Polynomials compiled once for exact evaluation at many points.

    Polynomial k keeps integer coefficients over the lcm D_k of its
    denominators, each with ``(variable index, exponent)`` pairs over
    ``variables`` and its shortfall from the top degree t_k.  A point
    (floats, ints or Fractions) is taken as integer numerators over one
    common denominator Q, the lcm of the values' denominators: a power of
    two for floats.  Every monomial is shifted up to degree t_k, so the value
    of polynomial k is one integer over D_k Q^t_k, and ``n / d`` of that pair
    is the correctly rounded float of the exact value (raising OverflowError
    where ``float(Fraction)`` does).
    """

    __slots__ = ("_polys", "_top_exp", "_top_degree")

    def __init__(self, polys: Iterable[RationalPoly], variables: Iterable[str]):
        index = {name: i for i, name in enumerate(variables)}
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

