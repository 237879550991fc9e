"""Exact algebra of truncated power series in noncommuting generators.

A series lives in the free associative algebra on a small alphabet,
truncated at a fixed total degree.  Each generator letter carries one
power of the expansion parameter, so the degree of a word is the power
of x it multiplies.  Coefficients are exact rationals, promoted to
polynomials over named parameters when symbolic stage coefficients are
in play.

The module provides stage exponentials, their products and the series
logarithm, and the rewrite of homogeneous Lie elements into the Lyndon
basis of the free Lie algebra.  A stage is a generator with a coefficient;
the generator is a label of the alphabet, a bracket tree over labels such
as ``("B", ("A", "B"))`` (a label is a tree of one leaf), or a
``LieCombination``.  ``bracket_fold`` is the one walk over a bracket tree;
its words, its number of leaves, its text and (in ``propagate``) its
matrix are folds.

All three series operations run on one integer kernel: a degree-d
coefficient is a numerator over ``Q^d * d!`` (``Q`` the lcm of the input's
coefficient denominators), two such series multiply with a binomial
weight and no gcd, and each word becomes an exact rational once at the
end.  ``series_mul`` is the plain Fraction product, kept as the reference.
A handful of dense-matrix utilities (commutator powers, the directional
derivative of expm) back the numeric identities exercised by the tests;
``frechet_exp`` alone needs scipy, which comes with the ``test`` extra.
``LieCombination.to_json`` is the JSON of ``bch``; nothing reads a series
back from JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .poly import Coeff, RationalPoly, as_exact, coeff_to_json

Word = tuple[int, ...]


class NotLieElementError(ValueError):
    """Raised when a series component is not an element of the free Lie algebra."""


def _czero(c) -> bool:
    if isinstance(c, RationalPoly):
        return c.is_zero()
    return c == 0


_ZERO = Fraction(0)


def _accumulate(out: dict[Word, Coeff], word: Word, delta) -> None:
    """Add ``delta`` to ``out[word]`` in place, keeping the sum exact.

    The sum is normalised by ``as_exact`` (constant polynomials become
    Fractions); a sum that is exactly zero removes the word, so stored
    terms are never zero.
    """
    s = as_exact(out.get(word, _ZERO) + delta)
    if _czero(s):
        out.pop(word, None)
    else:
        out[word] = s


class NcSeries:
    """Truncated series: map from words to exact coefficients.

    Instances are treated as immutable; all operations return new series.
    """

    __slots__ = ("order", "labels", "terms")

    def __init__(self, order: int, labels: Sequence[str],
                 terms: Mapping[Word, Coeff] | None = None):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "labels", tuple(labels))
        clean: dict[Word, Coeff] = {}
        for word, c in (terms or {}).items():
            if len(word) > order:
                continue
            c = as_exact(c)
            if not _czero(c):
                clean[tuple(word)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("NcSeries is immutable")

    @classmethod
    def identity(cls, order: int, labels: Sequence[str]) -> "NcSeries":
        return cls(order, labels, {(): Fraction(1)})

    # -- inspection ----------------------------------------------------
    def constant_term(self) -> Coeff:
        return self.terms.get((), Fraction(0))

    def homogeneous(self, degree: int) -> dict[Word, Coeff]:
        return {w: c for w, c in self.terms.items() if len(w) == degree}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcSeries):
            return NotImplemented
        return (self.order == other.order and self.labels == other.labels
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.order, self.labels, frozenset(self.terms.items())))

    # -- linear structure ------------------------------------------------
    def _compatible(self, other: "NcSeries") -> None:
        if self.labels != other.labels:
            raise ValueError("series over different generator alphabets")
        if self.order != other.order:
            raise ValueError("series with mismatched truncation orders")

    def __repr__(self) -> str:
        if not self.terms:
            return "<0>"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            name = "".join(self.labels[i] for i in w) or "I"
            parts.append(f"{self.terms[w]!s}*{name}")
        return " + ".join(parts)


def series_mul(a: NcSeries, b: NcSeries) -> NcSeries:
    """Word-concatenation product truncated at the common order."""
    a._compatible(b)
    order = a.order
    out: dict[Word, Coeff] = {}
    for w1, c1 in a.terms.items():
        room = order - len(w1)
        for w2, c2 in b.terms.items():
            if len(w2) <= room:
                _accumulate(out, w1 + w2, c1 * c2)
    return NcSeries(order, a.labels, out)


StageGen = Union["LieCombination", str, tuple]


def _element_words(g: StageGen, labels: Sequence[str]) -> dict[Word, Coeff]:
    """Word expansion of a stage generator: a Lie combination, or a bracket
    tree over ``labels`` (a letter is a tree of one leaf)."""
    if isinstance(g, LieCombination):
        if tuple(labels) != g.labels:
            raise ValueError("Lie combination over a different alphabet")
        return g.word_expansion()
    return bracket_tree_words(g, labels)


def _stage_element(g: StageGen, coeff, labels: Sequence[str]) -> dict[Word, Coeff]:
    """Words of the stage element c * G with their exact coefficients."""
    coeff = as_exact(coeff)
    return {w: as_exact(c * coeff) for w, c in _element_words(g, labels).items()}


def _denominator(c: Coeff) -> int:
    """Denominator of a Fraction; for a polynomial, the lcm of its coefficients'."""
    if isinstance(c, RationalPoly):
        return math.lcm(*(v.denominator for v in c.terms.values()))
    return c.denominator


def _integral(c, scale):
    """``c * scale`` where that is integral: an int, or a polynomial with
    integral coefficients."""
    return c * scale if isinstance(c, RationalPoly) else int(c * scale)


# A graded series: entry d maps each word of length d to its numerator over
# q^d d!, for d = 0..order.
Graded = list[dict[Word, object]]


def _graded(order: int, const=None) -> Graded:
    return [{} if const is None else {(): const}] + [{} for _ in range(order)]


def _numerators(terms: Mapping[Word, Coeff], q: int, order: int) -> Graded:
    """``terms`` over ``q^d d!``; ``q`` must clear every denominator, and
    words past ``order`` drop out."""
    x = _graded(order)
    for w, c in terms.items():
        if len(w) <= order and not _czero(c):
            x[len(w)][w] = _integral(c, q ** len(w) * math.factorial(len(w)))
    return x


def _muladd(out: Graded, a: Graded, b: Graded, top: int) -> Graded:
    """Add ``a * (b - b[0])`` into ``out`` at degrees ``top`` down to 1.

    Over ``q^d d!`` a degree-(d-e) numerator times a degree-e one is the
    degree-d numerator divided by ``C(d, e)``, so the step is ``out[w+u] +=
    a_w * b_u * C(d, e)`` in integers (or polynomials with integral
    coefficients), with no gcd.  ``b``'s degree-0 part is never read, and
    target degrees run from the top down, so ``out`` may be ``a`` itself:
    then ``a`` becomes ``a * b`` for ``b`` with constant term 1.
    """
    for d in range(top, 0, -1):
        level = out[d]
        for e in range(1, d + 1):
            if not b[e] or not a[d - e]:
                continue
            terms = [(u, m * math.comb(d, e)) for u, m in b[e].items()]
            for w, n in a[d - e].items():
                for u, m in terms:
                    key = w + u
                    level[key] = level.get(key, 0) + n * m
    return out


def _power_sum(x: Graded, weights: Sequence[int]) -> Graded:
    """``sum_k weights[k] * (x - x[0])^k`` by Horner's rule, k = 0..order.

    The partial sum still to be multiplied by ``x^k`` is needed only up to
    degree ``order - k``, so each step truncates there.
    """
    order = len(x) - 1
    acc = _graded(order, weights[order])
    for k in range(order - 1, -1, -1):
        acc = _muladd(_graded(order), acc, x, order - k)
        if weights[k]:
            acc[0][()] = weights[k]
    return acc


def _to_series(x: Graded, q: int, den: int, labels: Sequence[str]) -> NcSeries:
    """Divide each degree-d numerator by ``q^d d! den``, once per word."""
    terms = {}
    for d, level in enumerate(x):
        inv = Fraction(1, q ** d * math.factorial(d) * den)
        terms.update((w, n * inv) for w, n in level.items())
    return NcSeries(len(x) - 1, labels, terms)


def _log_series(x: Graded, q: int, labels: Sequence[str]) -> NcSeries:
    """log of ``x`` (constant term 1): weights ``(-1)^(k+1) L/k`` over
    ``L = lcm(1..order)``."""
    lcm = math.lcm(*range(1, len(x)))
    weights = [0] + [(-1) ** (k + 1) * (lcm // k) for k in range(1, len(x))]
    return _to_series(_power_sum(x, weights), q, lcm, labels)


def _exp_numerators(g: StageGen, coeff, q: int, order: int, labels: Sequence[str]) -> Graded:
    """exp(c * G) over ``q^d d! order!``: weights ``order!/k!``."""
    elem = _numerators(_stage_element(g, coeff, labels), q, order)
    return _power_sum(elem, [math.factorial(order) // math.factorial(k) for k in range(order + 1)])


def stage_exp(g: StageGen, coeff, order: int, labels: Sequence[str] = ("A", "B")) -> NcSeries:
    """Taylor expansion of a single stage exponential exp(c * G), truncated.

    ``G`` is a generator letter or a Lie combination; the word degree
    carries the power of x, so ``coeff`` is the pure numeric or symbolic
    multiplier of the stage.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    q = math.lcm(*map(_denominator, _stage_element(g, coeff, labels).values()))
    exp = _exp_numerators(g, coeff, q, order, labels)
    return _to_series(exp, q, math.factorial(order), labels)


def _product_numerators(stages, order: int, labels: Sequence[str]) -> tuple[Graded, int]:
    """Left-to-right product of stage exponentials over ``Q^d d!``.

    ``Q`` is the lcm of the denominators of every stage element's
    coefficients.  A stage exponential's degree-e term ``a_u`` enters as
    ``a_u * Q^e * e!``, which is integral: its k-th power part has
    denominators dividing ``Q^k * k!`` with k <= e.  So the exponential's
    numerators over ``Q^e e! order!`` divide exactly by ``order!``.
    """
    stages = list(stages)
    q = math.lcm(*(_denominator(a) for g, c in stages
                   for a in _stage_element(g, c, labels).values()))
    scale = Fraction(1, math.factorial(order))
    prod = _graded(order, 1)
    for g, c in stages:
        factor = [{u: _integral(m, scale) for u, m in level.items()}
                  for level in _exp_numerators(g, c, q, order, labels)]
        _muladd(prod, prod, factor, order)
    return prod, q


def stage_product(stages: Sequence[tuple[StageGen, object]], order: int,
                  labels: Sequence[str] = ("A", "B")) -> NcSeries:
    """Left-to-right product of stage exponentials, truncated at ``order``."""
    return _to_series(*_product_numerators(stages, order, labels), 1, labels)


def product_and_log(stages: Sequence[tuple[StageGen, object]], order: int,
                    labels: Sequence[str] = ("A", "B")) -> tuple[NcSeries, NcSeries]:
    """The stage product and its logarithm, both from the product's numerators."""
    prod, q = _product_numerators(stages, order, labels)
    return _to_series(prod, q, 1, labels), _log_series(prod, q, labels)


def product_log(stages: Sequence[tuple[StageGen, object]], order: int,
                labels: Sequence[str] = ("A", "B")) -> NcSeries:
    """log of the left-to-right product of stage exponentials.

    The degree-k homogeneous component is the k-th correction term of the
    product, scaled by x^k.
    """
    if not stages:
        raise ValueError("stage list must be nonempty")
    return product_and_log(stages, order, labels)[1]


def series_log(s: NcSeries) -> NcSeries:
    """Series logarithm: sum_{k>=1} (-1)^{k+1} (s - I)^k / k, truncated."""
    if as_exact(s.constant_term()) != Fraction(1):
        raise ValueError("series logarithm requires constant term exactly 1")
    q = math.lcm(*map(_denominator, s.terms.values()))
    return _log_series(_numerators(s.terms, q, s.order), q, s.labels)


# ---------------------------------------------------------------------------
# Lyndon words and the free Lie algebra
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def lyndon_words(nletters: int, maxlen: int) -> tuple[Word, ...]:
    """All Lyndon words over 0..nletters-1 of length 1..maxlen (Duval)."""
    words: list[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m <= maxlen:
            words.append(tuple(w))
        while len(w) < maxlen:
            w.append(w[len(w) - m])
        while w and w[-1] == nletters - 1:
            w.pop()
    return tuple(sorted(words, key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def standard_bracketing(word: Word):
    """Right-standard factorization tree of a Lyndon word.

    Returns a letter id for length-1 words, else a pair (left, right) of
    subtrees, splitting at the lexicographically least proper suffix.
    """
    if len(word) == 1:
        return word[0]
    best = None
    for i in range(1, len(word)):
        suffix = word[i:]
        if best is None or suffix < best[1]:
            best = (i, suffix)
    i, _ = best
    return (standard_bracketing(word[:i]), standard_bracketing(word[i:]))


def bracket_fold(tree, leaf, node):
    """Fold a bracket tree: ``leaf(x)`` at each leaf, ``node(l, r)`` at each bracket.

    A leaf is anything that is not a tuple; a bracket is a pair ``(left,
    right)``, and any other tuple is refused.
    """
    if not isinstance(tree, tuple):
        return leaf(tree)
    if len(tree) != 2:
        raise ValueError(f"a bracket is a pair (left, right), got {tree!r}")
    return node(bracket_fold(tree[0], leaf, node), bracket_fold(tree[1], leaf, node))


def bracket_leaves(tree) -> int:
    """The number of leaves of a bracket tree: the power of x its stage carries."""
    return bracket_fold(tree, lambda _: 1, lambda l, r: l + r)


def _bracket_words(lw: dict[Word, int], rw: dict[Word, int]) -> dict[Word, int]:
    out: dict[Word, int] = {}
    for wl, cl in lw.items():
        for wr, cr in rw.items():
            out[wl + wr] = out.get(wl + wr, 0) + cl * cr
            out[wr + wl] = out.get(wr + wl, 0) - cl * cr
    return {w: c for w, c in out.items() if c}


def bracket_tree_words(tree, labels: Sequence[str] | None = None) -> dict[Word, int]:
    """Integer word expansion of a nested-bracket tree whose leaves are letter
    ids, or labels of ``labels`` when they are given."""
    def letter(x) -> dict[Word, int]:
        if labels is None:
            return {(x,): 1}
        if x not in labels:
            raise ValueError(f"stage letter {x!r} is not in the alphabet {tuple(labels)}")
        return {(tuple(labels).index(x),): 1}

    return bracket_fold(tree, letter, _bracket_words)


@lru_cache(maxsize=None)
def lyndon_bracket_expansion(word: Word) -> tuple[tuple[Word, int], ...]:
    exp = bracket_tree_words(standard_bracketing(word))
    return tuple(sorted(exp.items()))


def bracket_tree_str(tree, labels: Sequence[str]) -> str:
    """``[A,[A,B]]``-style text of a bracket tree whose leaves are letter ids."""
    return bracket_fold(tree, labels.__getitem__, lambda l, r: f"[{l},{r}]")


class LieCombination:
    """Element of the free Lie algebra in the Lyndon basis.

    Keys are Lyndon words; each stands for its right-standard bracketing.
    """

    __slots__ = ("labels", "terms")

    def __init__(self, labels: Sequence[str], terms: Mapping[Word, Coeff] | None = None):
        object.__setattr__(self, "labels", tuple(labels))
        nlet = len(self.labels)
        clean: dict[Word, Coeff] = {}
        lyndon_ok = set(lyndon_words(nlet, max((len(w) for w in (terms or {})), default=1)))
        for w, c in (terms or {}).items():
            w = tuple(w)
            if w not in lyndon_ok:
                raise ValueError(f"key {w} is not a Lyndon word")
            c = as_exact(c)
            if not _czero(c):
                clean[w] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LieCombination is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieCombination):
            return NotImplemented
        return self.labels == other.labels and self.terms == other.terms

    def __hash__(self):
        return hash((self.labels, frozenset(self.terms.items())))

    def homogeneous(self, degree: int) -> "LieCombination":
        return LieCombination(self.labels,
                              {w: c for w, c in self.terms.items() if len(w) == degree})

    def word_expansion(self) -> dict[Word, Coeff]:
        out: dict[Word, Coeff] = {}
        for w, c in self.terms.items():
            for word, mult in lyndon_bracket_expansion(w):
                _accumulate(out, word, c * mult)
        return out

    def to_series(self, order: int) -> NcSeries:
        return NcSeries(order, self.labels, self.word_expansion())

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            tree = standard_bracketing(w)
            name = bracket_tree_str(tree, self.labels)
            parts.append(f"{_coeff_str(self.terms[w])} {name}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        words = sorted(self.terms, key=lambda w: (len(w), w))
        return {
            "order": max((len(w) for w in words), default=1),
            "generators": list(self.labels),
            "terms": [{"word": list(w), "coeff": coeff_to_json(self.terms[w])}
                      for w in words],
        }


def _coeff_str(c) -> str:
    if isinstance(c, RationalPoly):
        return f"({c!r})"
    from .poly import frac_str
    return frac_str(c)


def lie_project(s: NcSeries) -> LieCombination:
    """Rewrite each homogeneous component of ``s`` in the Lyndon basis.

    The rewrite is the standard triangular elimination: the bracketing of a
    Lyndon word expands to that word plus lexicographically larger words of
    the same multidegree, so scanning Lyndon words in increasing order peels
    the coefficients off one by one.  A nonzero residual means the input was
    not a Lie element.
    """
    if not _czero(s.constant_term()):
        raise ValueError("lie_project requires zero constant term")
    nlet = len(s.labels)
    result: dict[Word, Coeff] = {}
    for degree in range(1, s.order + 1):
        component = dict(s.homogeneous(degree))
        if not component:
            continue
        for lw in lyndon_words(nlet, degree):
            if len(lw) != degree:
                continue
            c = component.get(lw)
            if c is None or _czero(c):
                continue
            result[lw] = c
            for word, mult in lyndon_bracket_expansion(lw):
                _accumulate(component, word, -c * mult)
        leftovers = {w: c for w, c in component.items() if not _czero(c)}
        if leftovers:
            raise NotLieElementError(
                f"degree-{degree} component has non-Lie residual on words "
                f"{sorted(leftovers)[:4]}")
    return LieCombination(s.labels, result)


# ---------------------------------------------------------------------------
# Dense-matrix operator calculus
# ---------------------------------------------------------------------------

def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def delta_power(a: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """n-fold application of the inner derivation X -> [A, X]."""
    out = np.asarray(x)
    for _ in range(n):
        out = commutator(a, out)
    return out


def left_minus_ad_power(a: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Apply (L_A - delta_A)^n to X, expanded as a binomial of hyperoperators.

    Left multiplication commutes with its own inner derivation, so the
    binomial theorem applies term by term.
    """
    out = np.zeros_like(np.asarray(x, dtype=complex))
    apow = np.eye(a.shape[0], dtype=complex)
    apowers = [apow]
    for _ in range(n):
        apowers.append(apowers[-1] @ a)
    for k in range(n + 1):
        term = apowers[n - k] @ delta_power(a, x, k)
        out = out + (-1) ** k * math.comb(n, k) * term
    return out


def conjugation_series(a: np.ndarray, b: np.ndarray, x: float, kmax: int = 12) -> np.ndarray:
    """Truncated expansion sum_k x^k delta_A^k B / k!."""
    out = np.zeros_like(np.asarray(b, dtype=complex))
    term = np.asarray(b, dtype=complex)
    out += term
    for k in range(1, kmax + 1):
        term = commutator(a, term) * (x / k)
        out = out + term
    return out


def frechet_exp(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Directional derivative of the matrix exponential at A along dA.

    Computed by the doubled-dimension block trick: expm([[A, dA], [0, A]])
    carries the derivative in its upper-right block.  The block matrix is
    not normal, so this takes scipy's ``expm``; scipy comes with the
    ``test`` extra and is imported here only.
    """
    import scipy.linalg

    a = np.asarray(a)
    da = np.asarray(da)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be a square matrix")
    if a.shape != da.shape:
        raise ValueError("A and dA must have identical shapes")
    n = a.shape[0]
    dtype = np.result_type(a.dtype, da.dtype, float)
    block = np.zeros((2 * n, 2 * n), dtype=dtype)
    block[:n, :n] = a
    block[:n, n:] = da
    block[n:, n:] = a
    return scipy.linalg.expm(block)[:n, n:]
