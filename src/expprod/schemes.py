"""Construction, composition, and inspection of splitting schemes.

A scheme is an ordered list of stages, written left to right exactly as
the product of exponentials is written on paper; application to a state
runs right to left.  A stage's target is what ``ncalg`` takes as a
generator: a slot label such as ``"A"``, or a bracket tree of labels such
as ``("B", ("A", "B"))`` for a commutator stage, which carries x to the
power of its number of leaves.  Stage coefficients are exact rationals
where possible.  The fractal constructions introduce algebraic constants
(real roots of small odd-degree polynomials); their stage coefficients
are exact polynomials in those named constants, so every coefficient is
a ``poly.Coeff`` normalised by ``as_exact`` and per-slot sums stay
exactly 1 at every nesting depth without an algebraic-number tower.
Numeric work reads each constant's 17-significant-digit decimal through
``coeff_value``, once per scheme in ``stage_plan``.

``CATALOG`` is the one list of scheme names: it maps each name to a
zero-argument constructor whose scheme carries that name, so a caller
builds only the scheme it asks for; ``catalog()`` builds them all.
``Scheme.to_json`` is the JSON of ``scheme show``; no code reads it
back, so only ``fractal_constant`` registers algebraic constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .ncalg import Copies, bracket_fold, bracket_leaves
from .poly import Coeff, RationalPoly, as_exact, frac_str


# ---------------------------------------------------------------------------
# Algebraic constants
# ---------------------------------------------------------------------------

class AlgebraicConstant:
    """Real root of a rational polynomial, with a frozen decimal rendering.

    Numeric callers read ``value``; exactness checks refine the root by
    bisection in Fraction arithmetic from the stored isolating bracket.
    """

    __slots__ = ("name", "poly_coeffs", "decimal", "value", "lo", "hi")

    def __init__(self, name: str, poly_coeffs: Sequence[Fraction],
                 lo: Fraction, hi: Fraction):
        self.name = name
        self.poly_coeffs = tuple(Fraction(c) for c in poly_coeffs)  # ascending
        if self._eval(lo) * self._eval(hi) >= 0:
            raise ValueError(f"bracket does not isolate a root of {name}")
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        approx = self.refined(Fraction(1, 10 ** 25))
        self.decimal = _sig17(approx)
        self.value = float(self.decimal)

    def _eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.poly_coeffs):
            acc = acc * x + c
        return acc

    def refined(self, eps: Fraction) -> Fraction:
        lo, hi = self.lo, self.hi
        flo = self._eval(lo)
        while hi - lo > eps:
            mid = (lo + hi) / 2
            fmid = self._eval(mid)
            if fmid == 0:
                return mid
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return (lo + hi) / 2

    def __repr__(self) -> str:
        return f"AlgebraicConstant({self.name}={self.decimal})"


def _sig17(q: Fraction) -> str:
    """Decimal string of q with 17 significant digits."""
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = 17
    d = ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
    return format(d, "f")


def _fractal_poly(mult: int, power: int) -> list[Fraction]:
    """Ascending coefficients of mult*s^power + (1 - mult*s)^power."""
    from math import comb

    coeffs = [Fraction(0)] * (power + 1)
    for k in range(power + 1):
        coeffs[k] += Fraction(comb(power, k) * (-mult) ** k)
    coeffs[power] += Fraction(mult)
    return coeffs


_CONSTANTS: dict[str, AlgebraicConstant] = {}
# outer copies of the base at s x in each fractal composition
_OUTER_COPIES = {"triple": 2, "quintuple": 4}


def fractal_constant(kind: str, base_order: int) -> AlgebraicConstant:
    """The promotion constant for a symmetric base of even order 2k.

    ``triple``: real root of 2 s^(2k+1) + (1 - 2s)^(2k+1) = 0 (root > 1).
    ``quintuple``: real root of 4 s^(2k+1) + (1 - 4s)^(2k+1) = 0 (root in (0, 1/2)).
    """
    if base_order < 2 or base_order % 2:
        raise ValueError("fractal promotion needs an even base order >= 2")
    mult = _OUTER_COPIES[kind]
    name = f"{kind}_order{base_order}"
    if name not in _CONSTANTS:
        power = base_order + 1
        coeffs = _fractal_poly(mult, power)
        if kind == "triple":
            lo, hi = Fraction(1), Fraction(2)
        else:
            lo, hi = Fraction(1, 4), Fraction(1, 2)
        _CONSTANTS[name] = AlgebraicConstant(name, coeffs, lo, hi)
    return _CONSTANTS[name]


def _exact_value(c: Coeff) -> Fraction:
    """A coefficient as the series algebra takes it: a polynomial is evaluated
    in rational arithmetic at the binary-exact values of its constants' decimals."""
    if isinstance(c, RationalPoly):
        return c.evaluate({n: Fraction(_CONSTANTS[n].value) for n in c.variables()})
    return c


def coeff_value(c: Coeff) -> float:
    """Float value of a stage coefficient; no other code turns one into a float.

    A polynomial is evaluated at each constant's 17-significant-digit value.
    """
    if isinstance(c, RationalPoly):
        return float(c.evaluate({n: _CONSTANTS[n].value for n in c.variables()}))
    return float(c)


# ---------------------------------------------------------------------------
# Stages and schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One exponential factor: a slot label or a bracket tree of labels, and a coefficient."""

    target: Union[str, tuple]
    coeff: Coeff

    def is_commutator(self) -> bool:
        return isinstance(self.target, tuple)

    def scaled(self, factor: Coeff) -> "Stage":
        # factor on the left: a polynomial factor multiplies directly instead
        # of going through Fraction's operator fallback
        if self.is_commutator():
            factor = factor ** bracket_leaves(self.target)
        return Stage(self.target, as_exact(factor * self.coeff))


@dataclass(frozen=True)
class Scheme:
    """An exponential product formula: slots, ordered stages, claimed order.

    ``copies`` records a composition's scaled copies as (factor, base) pairs,
    for the series algebra only; it takes no part in comparison or hashing.
    """

    slots: tuple[str, ...]
    stages: tuple[Stage, ...]
    claimed_order: int
    name: str = ""
    copies: tuple[tuple[Coeff, "Scheme"], ...] = field(default=(), compare=False, repr=False)

    def slot_sums(self) -> dict[str, Coeff]:
        sums: dict[str, Coeff] = {lab: Fraction(0) for lab in self.slots}
        for st in self.stages:
            if not st.is_commutator():
                sums[st.target] = as_exact(sums[st.target] + st.coeff)
        return sums

    def is_palindromic(self) -> bool:
        return self.stages == self.stages[::-1]

    @property
    def symmetric(self) -> bool:
        """S(x) S(-x) = 1: the stages read the same both ways and are all odd in x."""
        return self.is_palindromic() and all(
            bracket_leaves(st.target) % 2 for st in self.stages if st.is_commutator())

    def all_exact(self) -> bool:
        return all(isinstance(st.coeff, Fraction) for st in self.stages)

    def scale(self, factor: Coeff) -> "Scheme":
        """The scheme with x replaced by factor*x (a commutator picks up factor^leaves)."""
        return Scheme(self.slots, tuple(st.scaled(factor) for st in self.stages),
                      self.claimed_order)

    @cached_property
    def _plan(self) -> tuple[tuple[Union[str, tuple], float, float], ...]:
        """The records of ``stage_plan``, cached on the (frozen) scheme."""
        if "T" in self.slots:
            records = evaluation_offsets(self)
        else:
            records = [(st.target, st.coeff, 0) for st in reversed(self.stages)]
        return tuple((target, coeff_value(c), coeff_value(tau)) for target, c, tau in records)

    # -- series view ----------------------------------------------------
    def ncalg_stages(self):
        """Stage list for the series algebra: each stage's target with its
        coefficient as a Fraction.

        Polynomial coefficients are evaluated in rational arithmetic at the
        binary-exact values of their constants' 17-digit decimals, so a merged
        stage list and its unmerged source produce bit-identical series.
        """
        return [(st.target, _exact_value(st.coeff)) for st in self.stages]

    def ncalg_product(self):
        """What ``ncalg.log_residuals`` multiplies for this scheme.

        A composition of copies of a composed base is ``ncalg.Copies``: the
        factors' exact values over the base's own product.  Any other scheme,
        a one-level composition included, is its ``ncalg_stages()``: folding
        the 7-21 merged stages of a one-level composition is cheaper at high
        order than multiplying copies of its 3-11 stage base.
        """
        if not self.copies or not self.copies[0][1].copies:
            return self.ncalg_stages()
        return Copies(tuple(_exact_value(f) for f, _ in self.copies),
                      self.copies[0][1].ncalg_product())

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        stages = []
        constants: set[str] = set()
        for st in self.stages:
            entry: dict = {}
            if st.is_commutator():
                entry["commutator"] = bracket_fold(st.target, lambda lab: lab,
                                                   lambda l, r: [l, r])
                entry["x_power"] = bracket_leaves(st.target)
            else:
                entry["slot"] = self.slots.index(st.target)
            c = st.coeff
            if isinstance(c, RationalPoly):
                entry["coeff"] = f"{coeff_value(c):.17g}"
                entry["coeff_poly"] = c.to_json()
                constants |= c.variables()
            else:
                entry["coeff"] = frac_str(c)
            stages.append(entry)
        doc = {
            "slots": list(self.slots),
            "order": self.claimed_order,
            "symmetric": self.symmetric,
            "stages": stages,
        }
        if self.name:
            doc["name"] = self.name
        if constants:
            doc["constants"] = {
                n: {"poly": [frac_str(c) for c in _CONSTANTS[n].poly_coeffs],
                    "decimal": _CONSTANTS[n].decimal,
                    "bracket": [frac_str(_CONSTANTS[n].lo), frac_str(_CONSTANTS[n].hi)]}
                for n in sorted(constants)
            }
        return doc


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def merge_adjacent(stages: Sequence[Stage]) -> tuple[Stage, ...]:
    """Merge neighboring exponentials of the same slot (not commutators)."""
    merged: list[Stage] = []
    for st in stages:
        if (merged and not st.is_commutator() and not merged[-1].is_commutator()
                and merged[-1].target == st.target):
            merged[-1] = Stage(st.target, as_exact(merged[-1].coeff + st.coeff))
        else:
            merged.append(st)
    return tuple(st for st in merged if st.coeff != 0)


def fractal(base: Scheme, kind: str, name: str = "") -> Scheme:
    """Promote a symmetric order-2k scheme to order 2k+2 by recursive composition.

    ``triple`` is the triple jump base(s x) base((1-2s) x) base(s x);
    ``quintuple`` is the five-copy base(s x)^2 base((1-4s) x) base(s x)^2,
    with s the ``fractal_constant`` of that kind.  The stages are the
    product flattened with same-slot merging.  The scheme also records each
    copy as a (factor, base) pair, so the series algebra of a nested
    composition multiplies rescaled copies of its base's product
    (``Scheme.ncalg_product``) instead of folding every merged stage.
    """
    if not base.symmetric or base.claimed_order % 2:
        raise ValueError(f"{kind} composition requires a symmetric even-order base scheme")
    mult = _OUTER_COPIES[kind]
    s = RationalPoly.var(fractal_constant(kind, base.claimed_order).name)
    side = [s] * (mult // 2)
    factors = side + [1 - mult * s] + side
    raw = [st for f in factors for st in base.scale(f).stages]
    return Scheme(base.slots, merge_adjacent(raw), base.claimed_order + 2, name,
                  tuple((f, base) for f in factors))


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def trotter() -> Scheme:
    return Scheme(("A", "B"), (Stage("A", Fraction(1)), Stage("B", Fraction(1))),
                  claimed_order=1, name="trotter")


def strang() -> Scheme:
    return Scheme(("A", "B"),
                  (Stage("A", Fraction(1, 2)), Stage("B", Fraction(1)), Stage("A", Fraction(1, 2))),
                  claimed_order=2, name="strang")


def ruth() -> Scheme:
    return Scheme(
        ("A", "B"),
        (Stage("A", Fraction(7, 24)), Stage("B", Fraction(2, 3)),
         Stage("A", Fraction(3, 4)), Stage("B", Fraction(-2, 3)),
         Stage("A", Fraction(-1, 24)), Stage("B", Fraction(1))),
        claimed_order=3, name="ruth")


def hybrid_second() -> Scheme:
    """Trotter step with a trailing commutator exponential killing the x^2 term."""
    return Scheme(("A", "B"),
                  (Stage("A", Fraction(1)), Stage("B", Fraction(1)),
                   Stage(("A", "B"), Fraction(-1, 2))),
                  claimed_order=2, name="hybrid_second")


def hybrid_fourth() -> Scheme:
    """Fourth-order product with nested-commutator end caps.

    The interior is the symmetric A-B-A / B-A-B / A-B-A sandwich at a third
    of the step each (no two neighbours share a slot); the caps carry
    (1/432) x^3 [B,[A,B]].
    """
    cap = Stage(("B", ("A", "B")), Fraction(1, 432))
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    inner = [("A", sixth), ("B", third), ("A", sixth), ("B", sixth), ("A", third),
             ("B", sixth), ("A", sixth), ("B", third), ("A", sixth)]
    return Scheme(("A", "B"), (cap, *(Stage(t, c) for t, c in inner), cap),
                  claimed_order=4, name="hybrid_fourth")


def timeordered1() -> Scheme:
    return Scheme(("A", "B", "T"),
                  (Stage("A", Fraction(1)), Stage("B", Fraction(1)), Stage("T", Fraction(1))),
                  claimed_order=1, name="timeordered1")


def timeordered2() -> Scheme:
    """Symmetric second-order splitting over three slots T, A, B."""
    return Scheme(("A", "B", "T"),
                  (Stage("T", Fraction(1, 2)), Stage("A", Fraction(1, 2)),
                   Stage("B", Fraction(1)),
                   Stage("A", Fraction(1, 2)), Stage("T", Fraction(1, 2))),
                  claimed_order=2, name="timeordered2")


# The one list of scheme names, in `scheme list` order: name -> constructor of
# the scheme carrying that name.  A fractal entry builds its base on demand.
CATALOG: dict[str, Callable[[], Scheme]] = {
    "trotter": trotter,
    "strang": strang,
    "triple_jump4": lambda: fractal(strang(), "triple", "triple_jump4"),
    "suzuki4": lambda: fractal(strang(), "quintuple", "suzuki4"),
    "suzuki6": lambda: fractal(CATALOG["suzuki4"](), "quintuple", "suzuki6"),
    "suzuki8": lambda: fractal(CATALOG["suzuki6"](), "quintuple", "suzuki8"),
    "ruth": ruth,
    "hybrid_second": hybrid_second,
    "hybrid_fourth": hybrid_fourth,
    "timeordered1": timeordered1,
    "timeordered2": timeordered2,
    "timeordered4": lambda: fractal(timeordered2(), "quintuple", "timeordered4"),
}


def catalog() -> dict[str, Scheme]:
    """Every scheme of ``CATALOG``, built."""
    return {name: make() for name, make in CATALOG.items()}


def has_negative_coefficient(s: Scheme) -> bool:
    """True iff any non-commutator stage coefficient is negative."""
    return any(coeff_value(st.coeff) < 0
               for st in s.stages if not st.is_commutator())


# ---------------------------------------------------------------------------
# Shift-time evaluation
# ---------------------------------------------------------------------------

def evaluation_offsets(s: Scheme) -> list[tuple[str, Coeff, Coeff]]:
    """Expand a scheme with a T slot into (slot, coeff, tau) records.

    The stage list is scanned right to left (application order); tau
    accumulates the T coefficients already passed, exactly.  T stages are
    consumed, the rest are emitted with their offsets.
    """
    if "T" not in s.slots:
        raise ValueError("scheme has no shift-time slot")
    if s.slot_sums()["T"] != 1:
        raise ValueError("T-stage coefficients must sum to 1")
    out: list[tuple[str, Coeff, Coeff]] = []
    tau: Coeff = Fraction(0)
    for st in reversed(s.stages):
        if st.is_commutator():
            raise ValueError("commutator stages are not supported with a T slot")
        if st.target == "T":
            tau = as_exact(tau + st.coeff)
        else:
            out.append((st.target, st.coeff, tau))
    return out


def stage_plan(s: Scheme) -> tuple[tuple[Union[str, tuple], float, float], ...]:
    """Numeric (target, coeff, tau) records in application (right-to-left) order.

    The target is the stage's: a slot label, or a bracket tree of labels.
    A T slot is consumed through the exact ``evaluation_offsets``; without
    one, every offset tau is 0.  Every numeric stepper reads a scheme here;
    the records are computed once per scheme instance.
    """
    return s._plan
