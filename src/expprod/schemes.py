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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .ncalg import LieCombination, NcSeries, product_log
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


def fractal_constant(kind: str, base_order: int) -> AlgebraicConstant:
    """The promotion constant for a symmetric base of even order 2k.

    ``triple``: real root of 2 s^(2k+1) + (1 - 2s)^(2k+1) = 0 (root > 1).
    ``quintuple``: real root of 4 s^(2k+1) + (1 - 4s)^(2k+1) = 0 (root in (0, 1/2)).
    """
    if base_order < 2 or base_order % 2:
        raise ValueError("fractal promotion needs an even base order >= 2")
    mult = {"triple": 2, "quintuple": 4}[kind]
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
    """A nested commutator stage, e.g. ("B", ("A", "B")) with x_power 3."""

    tree: tuple
    x_power: int

    def __post_init__(self):
        depth = _tree_depth(self.tree)
        leaves = _tree_leaves(self.tree)
        if depth < 1:
            raise ValueError("commutator bracket depth must be >= 1")
        if self.x_power < 2:
            raise ValueError("commutator stage x_power must be >= 2")
        if leaves != self.x_power:
            raise ValueError("x_power must equal the number of bracket leaves")

    def to_json(self):
        def conv(t):
            if isinstance(t, str):
                return t
            return [conv(t[0]), conv(t[1])]

        return conv(self.tree)

    @classmethod
    def from_json(cls, doc, x_power: int) -> "CommutatorSpec":
        def conv(t):
            if isinstance(t, str):
                return t
            return (conv(t[0]), conv(t[1]))

        return cls(conv(doc), x_power)


def _tree_depth(tree) -> int:
    if isinstance(tree, str):
        return 0
    return 1 + max(_tree_depth(tree[0]), _tree_depth(tree[1]))


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
    symmetric: bool
    name: str = ""
    unmerged: tuple[Stage, ...] | None = None

    def slot_sums(self) -> dict[str, Coeff]:
        sums: dict[str, Coeff] = {lab: Fraction(0) for lab in self.slots}
        for st in self.stages:
            if not st.is_commutator():
                lab = self.slots[st.target]
                sums[lab] = as_exact(sums[lab] + st.coeff)
        return sums

    def is_palindromic(self) -> bool:
        return self.stages == self.stages[::-1]

    def all_exact(self) -> bool:
        return all(isinstance(st.coeff, Fraction) for st in self.stages)

    def scale(self, factor: Coeff) -> "Scheme":
        """The scheme with x replaced by factor*x (commutators pick up factor^x_power)."""
        return Scheme(self.slots, tuple(st.scaled(factor) for st in self.stages),
                      self.claimed_order, self.symmetric)

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
        """Stage list for the series algebra, every coefficient a Fraction.

        Polynomial coefficients are evaluated in rational arithmetic at the
        binary-exact values of their constants' 17-digit decimals, so merged
        and unmerged stage lists produce bit-identical series.
        """
        out = []
        for st in self.stages:
            coeff = st.coeff
            if isinstance(coeff, RationalPoly):
                coeff = coeff.evaluate({n: Fraction(_CONSTANTS[n].value)
                                        for n in coeff.variables()})
            if st.is_commutator():
                gen = LieCombination.from_bracket(st.target.tree, self.slots)
                out.append((gen, coeff))
            else:
                out.append((self.slots[st.target], coeff))
        return out

    def log_series(self, order: int) -> NcSeries:
        return product_log(self.ncalg_stages(), order, self.slots)

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

    @classmethod
    def from_json(cls, doc: dict) -> "Scheme":
        for n, spec in (doc.get("constants") or {}).items():
            if n not in _CONSTANTS:
                _CONSTANTS[n] = AlgebraicConstant(
                    n, [Fraction(c) for c in spec["poly"]],
                    Fraction(spec["bracket"][0]), Fraction(spec["bracket"][1]))
        stages = []
        for entry in doc["stages"]:
            # "coeff" alone is read exactly, a decimal string included
            coeff = (as_exact(RationalPoly.from_json(entry["coeff_poly"]))
                     if "coeff_poly" in entry else Fraction(entry["coeff"]))
            if "commutator" in entry:
                target: Union[int, CommutatorSpec] = CommutatorSpec.from_json(
                    entry["commutator"], int(entry["x_power"]))
            else:
                target = int(entry["slot"])
            stages.append(Stage(target, coeff))
        return cls(tuple(doc["slots"]), tuple(stages), int(doc["order"]),
                   bool(doc["symmetric"]), name=doc.get("name", ""))


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


def compose(base: Scheme, factors: Sequence[Coeff], order: int,
            name: str = "") -> Scheme:
    """Flattened product base(f1 x) base(f2 x) ... with same-slot merging."""
    raw: list[Stage] = []
    for f in factors:
        raw.extend(base.scale(f).stages)
    merged = merge_adjacent(raw)
    symmetric = list(factors) == list(reversed(list(factors))) and base.symmetric
    return Scheme(base.slots, merged, order, symmetric, name=name,
                  unmerged=tuple(raw))


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def trotter() -> Scheme:
    return Scheme(("A", "B"), (Stage(0, Fraction(1)), Stage(1, Fraction(1))),
                  claimed_order=1, symmetric=False, name="trotter")


def strang() -> Scheme:
    return Scheme(("A", "B"),
                  (Stage(0, Fraction(1, 2)), Stage(1, Fraction(1)), Stage(0, Fraction(1, 2))),
                  claimed_order=2, symmetric=True, name="strang")


def triple_jump(base: Scheme) -> Scheme:
    """Promote a symmetric order-2k scheme by the three-copy composition."""
    if not base.symmetric:
        raise ValueError("triple jump requires a symmetric base scheme")
    if base.claimed_order % 2:
        raise ValueError("triple jump requires an even-order base scheme")
    s = RationalPoly.var(fractal_constant("triple", base.claimed_order).name)
    name = f"triple_jump({base.name})" if base.name else ""
    return compose(base, [s, 1 - 2 * s, s], base.claimed_order + 2, name=name)


def quintuple(base: Scheme) -> Scheme:
    """Promote a symmetric order-2k scheme by the five-copy composition."""
    if not base.symmetric:
        raise ValueError("quintuple composition requires a symmetric base scheme")
    if base.claimed_order % 2:
        raise ValueError("quintuple composition requires an even-order base scheme")
    s = RationalPoly.var(fractal_constant("quintuple", base.claimed_order).name)
    name = f"quintuple({base.name})" if base.name else ""
    return compose(base, [s, s, 1 - 4 * s, s, s], base.claimed_order + 2, name=name)


def suzuki4() -> Scheme:
    sch = quintuple(strang())
    return Scheme(sch.slots, sch.stages, sch.claimed_order, sch.symmetric,
                  name="suzuki4", unmerged=sch.unmerged)


def suzuki6() -> Scheme:
    sch = quintuple(suzuki4())
    return Scheme(sch.slots, sch.stages, sch.claimed_order, sch.symmetric,
                  name="suzuki6", unmerged=sch.unmerged)


def suzuki8() -> Scheme:
    sch = quintuple(suzuki6())
    return Scheme(sch.slots, sch.stages, sch.claimed_order, sch.symmetric,
                  name="suzuki8", unmerged=sch.unmerged)


def ruth() -> Scheme:
    return Scheme(
        ("A", "B"),
        (Stage(0, Fraction(7, 24)), Stage(1, Fraction(2, 3)),
         Stage(0, Fraction(3, 4)), Stage(1, Fraction(-2, 3)),
         Stage(0, Fraction(-1, 24)), Stage(1, Fraction(1))),
        claimed_order=3, symmetric=False, name="ruth")


def hybrid_second() -> Scheme:
    """Trotter step with a trailing commutator exponential killing the x^2 term."""
    comm = CommutatorSpec(("A", "B"), x_power=2)
    return Scheme(("A", "B"),
                  (Stage(0, Fraction(1)), Stage(1, Fraction(1)), Stage(comm, Fraction(-1, 2))),
                  claimed_order=2, symmetric=False, name="hybrid_second")


def hybrid_fourth() -> Scheme:
    """Fourth-order product with nested-commutator end caps.

    The interior is the symmetric A-B-A / B-A-B / A-B-A sandwich at a third
    of the step each; the caps carry (1/432) x^3 [B,[A,B]].
    """
    comm = CommutatorSpec(("B", ("A", "B")), x_power=3)
    cap = Stage(comm, Fraction(1, 432))
    third = Fraction(1, 3)
    sandwich_a = (Stage(0, third / 2), Stage(1, third), Stage(0, third / 2))
    sandwich_b = (Stage(1, third / 2), Stage(0, third), Stage(1, third / 2))
    inner = merge_adjacent(sandwich_a + sandwich_b + sandwich_a)
    return Scheme(("A", "B"), (cap,) + inner + (cap,),
                  claimed_order=4, symmetric=True, name="hybrid_fourth",
                  unmerged=(cap,) + sandwich_a + sandwich_b + sandwich_a + (cap,))


def timeordered1() -> Scheme:
    return Scheme(("A", "B", "T"),
                  (Stage(0, Fraction(1)), Stage(1, Fraction(1)), Stage(2, Fraction(1))),
                  claimed_order=1, symmetric=False, name="timeordered1")


def timeordered2() -> Scheme:
    """Symmetric second-order splitting over three slots T, A, B."""
    return Scheme(("A", "B", "T"),
                  (Stage(2, Fraction(1, 2)), Stage(0, Fraction(1, 2)),
                   Stage(1, Fraction(1)),
                   Stage(0, Fraction(1, 2)), Stage(2, Fraction(1, 2))),
                  claimed_order=2, symmetric=True, name="timeordered2")


def timeordered4() -> Scheme:
    sch = quintuple(timeordered2())
    return Scheme(sch.slots, sch.stages, sch.claimed_order, sch.symmetric,
                  name="timeordered4", unmerged=sch.unmerged)


def has_negative_coefficient(s: Scheme) -> bool:
    """True iff any non-commutator stage coefficient is negative."""
    return any(coeff_value(st.coeff) < 0
               for st in s.stages if not st.is_commutator())


def catalog() -> dict[str, Scheme]:
    return {
        "trotter": trotter(),
        "strang": strang(),
        "triple_jump4": triple_jump(strang()),
        "suzuki4": suzuki4(),
        "suzuki6": suzuki6(),
        "suzuki8": suzuki8(),
        "ruth": ruth(),
        "hybrid_second": hybrid_second(),
        "hybrid_fourth": hybrid_fourth(),
        "timeordered1": timeordered1(),
        "timeordered2": timeordered2(),
        "timeordered4": timeordered4(),
    }


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
