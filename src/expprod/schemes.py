"""Construction, composition, and inspection of splitting schemes.

A scheme is an ordered list of stages, written left to right exactly as
the product of exponentials is written on paper; application to a state
runs right to left.  Stage coefficients are exact rationals where
possible.  The fractal constructions introduce algebraic constants
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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

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

    def __float__(self) -> float:
        return self.value

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
class CommutatorSpec:
    """A nested commutator stage over slot labels, e.g. ("B", ("A", "B"))."""

    tree: tuple

    def __post_init__(self):
        if isinstance(self.tree, str):
            raise ValueError("a commutator stage needs a bracket, not a bare label")

    @property
    def x_power(self) -> int:
        """The power of x the stage carries: the number of leaves of its bracket."""
        return _tree_leaves(self.tree)

    def to_json(self):
        def conv(t):
            if isinstance(t, str):
                return t
            return [conv(t[0]), conv(t[1])]

        return conv(self.tree)


def _tree_leaves(tree) -> int:
    if isinstance(tree, str):
        return 1
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


@dataclass(frozen=True)
class Stage:
    """One exponential factor: a slot index or commutator, and a coefficient."""

    target: Union[int, CommutatorSpec]
    coeff: Coeff

    def is_commutator(self) -> bool:
        return isinstance(self.target, CommutatorSpec)

    def scaled(self, factor: Coeff) -> "Stage":
        # factor on the left: a polynomial factor multiplies directly instead
        # of going through Fraction's operator fallback
        if self.is_commutator():
            factor = factor ** self.target.x_power
        return Stage(self.target, as_exact(factor * self.coeff))


@dataclass(frozen=True)
class Scheme:
    """An exponential product formula: slots, ordered stages, claimed order."""

    slots: tuple[str, ...]
    stages: tuple[Stage, ...]
    claimed_order: int
    name: str = ""

    def slot_sums(self) -> dict[str, Coeff]:
        sums: dict[str, Coeff] = {lab: Fraction(0) for lab in self.slots}
        for st in self.stages:
            if not st.is_commutator():
                lab = self.slots[st.target]
                sums[lab] = as_exact(sums[lab] + st.coeff)
        return sums

    def is_palindromic(self) -> bool:
        return self.stages == self.stages[::-1]

    @property
    def symmetric(self) -> bool:
        """S(x) S(-x) = 1: the stages read the same both ways and are all odd in x."""
        return self.is_palindromic() and all(
            st.target.x_power % 2 for st in self.stages if st.is_commutator())

    def all_exact(self) -> bool:
        return all(isinstance(st.coeff, Fraction) for st in self.stages)

    def scale(self, factor: Coeff) -> "Scheme":
        """The scheme with x replaced by factor*x (commutators pick up factor^x_power)."""
        return Scheme(self.slots, tuple(st.scaled(factor) for st in self.stages),
                      self.claimed_order)

    @cached_property
    def _plan(self) -> tuple[tuple[Union[str, CommutatorSpec], float, float], ...]:
        """The records of ``stage_plan``, cached on the (frozen) scheme."""
        if "T" in self.slots:
            records = evaluation_offsets(self)
        else:
            records = [(st.target if st.is_commutator() else self.slots[st.target], st.coeff, 0)
                       for st in reversed(self.stages)]
        return tuple((target, coeff_value(c), coeff_value(tau)) for target, c, tau in records)

    # -- series view ----------------------------------------------------
    def ncalg_stages(self):
        """Stage list for the series algebra: a slot stage gives its label, a
        commutator stage its bracket tree, and every coefficient is a Fraction.

        Polynomial coefficients are evaluated in rational arithmetic at the
        binary-exact values of their constants' 17-digit decimals, so a merged
        stage list and its unmerged source produce bit-identical series.
        """
        out = []
        for st in self.stages:
            coeff = st.coeff
            if isinstance(coeff, RationalPoly):
                coeff = coeff.evaluate({n: Fraction(_CONSTANTS[n].value)
                                        for n in coeff.variables()})
            out.append((st.target.tree if st.is_commutator() else self.slots[st.target], coeff))
        return out

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        stages = []
        constants: set[str] = set()
        for st in self.stages:
            entry: dict = {}
            if st.is_commutator():
                entry["commutator"] = st.target.to_json()
                entry["x_power"] = st.target.x_power
            else:
                entry["slot"] = st.target
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
    with s the ``fractal_constant`` of that kind.  The product is flattened
    with same-slot merging.
    """
    if not base.symmetric or base.claimed_order % 2:
        raise ValueError(f"{kind} composition requires a symmetric even-order base scheme")
    mult = _OUTER_COPIES[kind]
    s = RationalPoly.var(fractal_constant(kind, base.claimed_order).name)
    side = [s] * (mult // 2)
    raw = [st for f in side + [1 - mult * s] + side for st in base.scale(f).stages]
    return Scheme(base.slots, merge_adjacent(raw), base.claimed_order + 2, name)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def trotter() -> Scheme:
    return Scheme(("A", "B"), (Stage(0, Fraction(1)), Stage(1, Fraction(1))),
                  claimed_order=1, name="trotter")


def strang() -> Scheme:
    return Scheme(("A", "B"),
                  (Stage(0, Fraction(1, 2)), Stage(1, Fraction(1)), Stage(0, Fraction(1, 2))),
                  claimed_order=2, name="strang")


def ruth() -> Scheme:
    return Scheme(
        ("A", "B"),
        (Stage(0, Fraction(7, 24)), Stage(1, Fraction(2, 3)),
         Stage(0, Fraction(3, 4)), Stage(1, Fraction(-2, 3)),
         Stage(0, Fraction(-1, 24)), Stage(1, Fraction(1))),
        claimed_order=3, name="ruth")


def hybrid_second() -> Scheme:
    """Trotter step with a trailing commutator exponential killing the x^2 term."""
    comm = CommutatorSpec(("A", "B"))
    return Scheme(("A", "B"),
                  (Stage(0, Fraction(1)), Stage(1, Fraction(1)), Stage(comm, Fraction(-1, 2))),
                  claimed_order=2, name="hybrid_second")


def hybrid_fourth() -> Scheme:
    """Fourth-order product with nested-commutator end caps.

    The interior is the symmetric A-B-A / B-A-B / A-B-A sandwich at a third
    of the step each (no two neighbours share a slot); the caps carry
    (1/432) x^3 [B,[A,B]].
    """
    cap = Stage(CommutatorSpec(("B", ("A", "B"))), Fraction(1, 432))
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    inner = [(0, sixth), (1, third), (0, sixth), (1, sixth), (0, third),
             (1, sixth), (0, sixth), (1, third), (0, sixth)]
    return Scheme(("A", "B"), (cap, *(Stage(t, c) for t, c in inner), cap),
                  claimed_order=4, name="hybrid_fourth")


def timeordered1() -> Scheme:
    return Scheme(("A", "B", "T"),
                  (Stage(0, Fraction(1)), Stage(1, Fraction(1)), Stage(2, Fraction(1))),
                  claimed_order=1, name="timeordered1")


def timeordered2() -> Scheme:
    """Symmetric second-order splitting over three slots T, A, B."""
    return Scheme(("A", "B", "T"),
                  (Stage(2, Fraction(1, 2)), Stage(0, Fraction(1, 2)),
                   Stage(1, Fraction(1)),
                   Stage(0, Fraction(1, 2)), Stage(2, Fraction(1, 2))),
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
    t_index = s.slots.index("T")
    if s.slot_sums()["T"] != 1:
        raise ValueError("T-stage coefficients must sum to 1")
    out: list[tuple[str, Coeff, Coeff]] = []
    tau: Coeff = Fraction(0)
    for st in reversed(s.stages):
        if st.is_commutator():
            raise ValueError("commutator stages are not supported with a T slot")
        if st.target == t_index:
            tau = as_exact(tau + st.coeff)
        else:
            out.append((s.slots[st.target], st.coeff, tau))
    return out


def stage_plan(s: Scheme) -> tuple[tuple[Union[str, CommutatorSpec], float, float], ...]:
    """Numeric (target, coeff, tau) records in application (right-to-left) order.

    The target is a slot label, or the CommutatorSpec of a commutator stage.
    A T slot is consumed through the exact ``evaluation_offsets``; without
    one, every offset tau is 0.  Every numeric stepper reads a scheme here;
    the records are computed once per scheme instance.
    """
    return s._plan
