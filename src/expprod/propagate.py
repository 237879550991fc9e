"""Apply splitting schemes to concrete dynamics.

Every stepper takes its parts as a mapping from slot label to part: a
matrix or a part object (below) for static stepping, a pair ``(f, H)`` of a
real scalar function of t and such a part for time-ordered stepping (the
part at time t is f(t) H).  A stage label the mapping lacks is refused with
a ``ValueError`` naming it before any factor is built or f called.

Quantum side: a part is a Hermitian operator held as its eigenvalues and
the move of a state into and out of its eigenbasis, so a stage
exp(-i c dt H) is that move, a phase per eigenvalue, and the move back;
every stage is unitary to roundoff and the norm cannot drift.  A
``HermitianPart`` is given as a matrix, checked finite and Hermitian within
1e-12 (in the Frobenius norm, relative to max(1, ||H||)): one ``eigh`` at
construction gives its eigenvectors, except that a matrix exactly zero off
the diagonal needs none and moves with the identity.  Two parts are held
with no matrix, for spin systems past the size of a 2^L x 2^L one: a
``DiagonalPart`` (a phase per basis state) and a ``TransverseField``
(-gamma sum sigma^x, moved by a Walsh-Hadamard transform).  A commutator
stage diagonalises its bracket (the matrices of its labels folded by
``ncalg.bracket_fold``) brought to Hermitian form, once per call for each
distinct bracket.  ``stage_unitaries`` builds the factors of all stages with
one stacked exponential over their targets' eigendecompositions,
bit-identical to one factor at a time.  ``stage_unitaries`` (so
``step_operator``) and a commutator stage need the matrices, and refuse a
part held without one, naming its slot.
Time-ordered stepping needs no decomposition per stage time: a driven part
f(t) H shares H's eigenvectors at every t, so a stage is the phases
exp(-i c dt f(t) w) in its slot's fixed eigenbasis and the move on to the
next stage's; between two parts given as matrices that move is one basis
change, premultiplied with the phases.  A sampled run is one pass over
chunks of whole steps, read at its marks.
Classical side: a ``SeparableHamiltonian`` is |p|^2/2 + V(q); kick and
drift are the exact flows of V and of |p|^2/2 (the generators are
nilpotent), so every composed step is symplectic.  ``run_umeno`` steps a
scheme in Python floats as one stream of (kick, drift) items between two
marks, each kick paired with the drift after it, with the float operations
of applying the stages one by one, so its rows keep their bits.  The
deliberately bad first-order baselines for comparison runs are built inside
``run_precession`` (the perturbative I - i dt H) and ``run_umeno`` (the
Euler update).

The ``cli`` commands only call this module and write what it returns: every
trajectory run records rows at the steps ``sample_marks`` names, and
``convergence`` is the one empirical-order study (dt grids, floor, fit).
Its driven system is measured against ``timeordered4`` at 1/32 of the
finest dt of each end time, accurate to about 1e-12 at t = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .ncalg import bracket_fold, bracket_leaves, commutator
from .schemes import CATALOG, Scheme, stage_plan


# ---------------------------------------------------------------------------
# Quantum stepping
# ---------------------------------------------------------------------------

# bytes of stage factors one chunk of whole time-ordered steps holds at most
# (or one step's, if more).  Larger chunks run no faster (one exponential call
# already covers ~1000 2x2 factors) but hold more: over 20000 steps of
# timeordered4 on the driven two-level system the peak RSS is 32.9 MB at
# 64 KB, as at one factor per chunk, and 59.9 MB at 4 MB.
_CHUNK_BYTES = 1 << 16

# the two-level fixture: A = sigma_z for the precession and driven systems,
# sigma_x in their B
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z.flags.writeable = _SIGMA_X.flags.writeable = False


def _hermitian_exp(w: np.ndarray, v: np.ndarray, z) -> np.ndarray:
    """exp(z H) for H = v diag(w) v^H (unitary for imaginary z).

    For a (K, N, N) stack v, pass w as (K, 1, N) and z as (K, 1, 1).
    """
    return (v * np.exp(z * w)) @ v.conj().swapaxes(-1, -2)


def _not_hermitian(stack: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the m in a (K, N, N) stack with ||m - m^H|| > tol max(1, ||m||) (Frobenius).

    An m with a part of 2^e or more (e >= 0) is divided by 2^e first, so no
    norm overflows; the scaling is exact, so the decision is the unscaled one.
    """
    top = np.maximum(abs(stack.real), abs(stack.imag)).max(axis=(-2, -1), initial=0.0)
    unit = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))   # 2^-e, or 1
    scaled = stack * unit[:, None, None]
    asym = np.linalg.norm(scaled - scaled.conj().swapaxes(-1, -2), axis=(-2, -1))
    return asym > tol * np.maximum(unit, np.linalg.norm(scaled, axis=(-2, -1)))


class _Eigenbasis:
    """H = V diag(w) V^H, held as its eigenvalues w and the move of a state
    into and out of its eigenbasis: a stage exp(z H) is ``out_of(exp(z w) *
    into(v))``.  Here the move is the unitary V (``vectors``), or the
    identity when ``vectors`` is None."""

    matrix = None

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray | None = None):
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """V as a dense matrix (the identity when ``vectors`` is None)."""
        return np.eye(self.dim, dtype=complex) if self.vectors is None else self.vectors

    def into(self, v: np.ndarray) -> np.ndarray:
        """The coordinates of v in the eigenbasis, V^H v."""
        return v if self.vectors is None else (v.conj() @ self.vectors).conj()

    def out_of(self, u: np.ndarray) -> np.ndarray:
        """The state with eigenbasis coordinates u, V u."""
        return u if self.vectors is None else self.vectors @ u


class HermitianPart(_Eigenbasis):
    """A Hermitian matrix with its eigenbasis, found once here.

    A matrix that is exactly zero off the diagonal is its own eigenbasis: its
    eigenvalues are its diagonal, in place, and it moves with the identity,
    with no ``eigh``.  Any other is diagonalised by ``eigh``.  A matrix with
    a non-finite entry, or not Hermitian within 1e-12, is refused.
    """

    def __init__(self, matrix: np.ndarray, label: str = ""):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Hamiltonian part must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("Hamiltonian part has a non-finite entry")
        if _not_hermitian(m[None], 1e-12)[0]:
            raise ValueError("matrix is not Hermitian within 1e-12")
        self.matrix = m
        self.label = label
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
            # eigh reads the real part of a Hermitian matrix's diagonal
            super().__init__(m.diagonal().real.copy())
        else:
            super().__init__(*np.linalg.eigh(m))

    def expfactor(self, z: complex) -> np.ndarray:
        """exp(z H) through the cached eigendecomposition."""
        return _hermitian_exp(self.eigenvalues, self.eigenvectors, z)


class DiagonalPart(_Eigenbasis):
    """diag(d) given by its real diagonal d and held with no matrix: its own
    eigenbasis, so a stage is one phase per basis state."""

    def __init__(self, diagonal):
        d = np.asarray(diagonal)
        if d.ndim != 1 or d.size == 0 or d.dtype.kind not in "iuf":
            raise ValueError("a diagonal part is a non-empty vector of real numbers")
        if not np.isfinite(d).all():
            raise ValueError("diagonal part has a non-finite entry")
        super().__init__(d.astype(np.float64))


# sites a TransverseField transforms in one matrix product: Hadamard blocks
# of at most 2^5 x 2^5, so a move is ceil(L / 5) products of 2^L * 2^k
# multiply-adds each, 3-5x faster in numpy than a butterfly per site
# (L = 4 to 16, one core of a 2-core x86 machine)
_HADAMARD_BLOCK = 5


class TransverseField:
    """-gamma sum_i sigma^x_i on ``sites`` spins, held with no matrix.

    sigma^x = W sigma^z W for the Hadamard matrix W = [[1, 1], [1, -1]] / sqrt 2,
    so the eigenbasis is the Walsh-Hadamard transform of the spin basis, and
    the eigenvalue of its state s is -gamma (sites - 2 popcount(s)).  A move
    is the unnormalised transform [[1, 1], [1, -1]] on every site, taken a
    block of up to ``_HADAMARD_BLOCK`` sites at a time; ``into`` also scales
    by 2^-L, which is exact, so it gives the coordinates times 2^(-L/2), and
    ``out_of`` undoes that.
    """

    matrix = None

    def __init__(self, gamma: float, sites: int):
        if not math.isfinite(gamma):
            raise ValueError(f"transverse field must be finite, got {gamma}")
        if isinstance(sites, bool) or not isinstance(sites, int) or sites < 1:
            raise ValueError(f"a transverse field needs at least one site, got {sites!r}")
        self.gamma, self.sites = float(gamma), sites
        states = np.arange(1 << sites)
        flips = sum((states >> i) & 1 for i in range(sites))
        self.eigenvalues = -self.gamma * (sites - 2.0 * flips)
        count = -(-sites // _HADAMARD_BLOCK)
        self._blocks = []
        for size in (sites // count + (b < sites % count) for b in range(count)):
            block = np.ones((1, 1), dtype=complex)
            for _ in range(size):
                block = np.kron(block, [[1, 1], [1, -1]])
            self._blocks.append(block)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def _transform(self, v: np.ndarray) -> np.ndarray:
        """The unnormalised transform of v.  The leading block of sites is
        the row index of v viewed as a matrix; the product v^T W_k puts that
        block's index last, so after the last block the sites are in order."""
        for block in self._blocks:
            v = v.reshape(block.shape[0], -1).T @ block
        return v.reshape(-1)

    def into(self, v: np.ndarray) -> np.ndarray:
        return self._transform(v) * 2.0 ** -self.sites

    def out_of(self, u: np.ndarray) -> np.ndarray:
        return self._transform(u)


@dataclass
class QuantumState:
    """A complex state vector."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)

    @classmethod
    def up(cls, dim: int = 2) -> "QuantumState":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return cls(v)


def _parts_map(parts: Mapping) -> dict:
    """The parts by slot label: a ``HermitianPart``, ``DiagonalPart`` or
    ``TransverseField`` as given, anything else wrapped as a ``HermitianPart``."""
    mapping = {lab: p if isinstance(p, (_Eigenbasis, TransverseField))
               else HermitianPart(p, label=lab)
               for lab, p in parts.items()}
    dims = {p.dim for p in mapping.values()}
    if len(dims) != 1:
        raise ValueError("Hamiltonian parts have mismatched dimensions")
    return mapping


def _matrix(parts: dict, label: str, use: str) -> np.ndarray:
    """The matrix of slot ``label``'s part, or a ``ValueError`` naming the slot
    when the part is held with no matrix."""
    if parts[label].matrix is None:
        raise ValueError(f"slot {label!r} has a part with no matrix, and {use} needs "
                         "one; give it as a matrix or HermitianPart")
    return parts[label].matrix


def _plan(scheme: Scheme, parts: Mapping, timed: bool = False) -> tuple:
    """The stage plan of a scheme stepped over ``parts``.

    Time-ordered stepping (``timed``) needs the shift-time slot T, and static
    stepping refuses it.  A label that a stage names and ``parts`` lacks is
    refused with a ``ValueError`` naming it.
    """
    if timed and "T" not in scheme.slots:
        raise ValueError("scheme has no shift-time slot")
    if not timed and "T" in scheme.slots:
        raise ValueError("scheme has a shift-time slot; step it with run_timeordered")
    plan = stage_plan(scheme)
    for target, _, _ in plan:
        for label in bracket_fold(target, lambda lab: (lab,), tuple.__add__):
            if label not in parts:
                raise ValueError(f"slot {label!r} has no part; the parts are {list(parts)}")
    return plan


def _stage_bases(plan, parts: dict) -> dict:
    """(eigenbasis, power of dt) of each distinct stage target.

    A letter is its part.  A bracket K of L Hermitian parts is i^(L-1) times
    a Hermitian matrix H, so its stage exp(c (-i dt)^L K) is exp(-i c dt^L H),
    and one ``eigh`` of H serves every stage of that bracket.  ``eigh`` reads
    one triangle of H, so the factor is unitary whatever roundoff K carries.
    A bracket over a part with no matrix is refused, naming its slot.
    """
    table = {}
    for target, _, _ in plan:
        if target in table:
            continue
        if isinstance(target, str):
            table[target] = parts[target], 1
        else:
            leaves = bracket_leaves(target)
            h = (-1j) ** (leaves - 1) * bracket_fold(
                target, lambda lab: _matrix(parts, lab, "a commutator stage"), commutator)
            table[target] = _Eigenbasis(*np.linalg.eigh(h)), leaves
    return table


def stage_unitaries(scheme: Scheme, parts: Mapping, dt: float) -> np.ndarray:
    """Stage matrices in application (right-to-left) order for exp(-i dt H),
    as one (K, N, N) stack.

    The stages of one target share its eigendecomposition, and all stages
    take one stacked exponential, which gives the same bits as building each
    factor on its own.  Every part needs a matrix: one held without (a
    ``DiagonalPart`` or ``TransverseField``) is refused, naming its slot.
    """
    plan = _plan(scheme, parts)
    pm = _parts_map(parts)
    for target in dict.fromkeys(target for target, _, _ in plan if isinstance(target, str)):
        _matrix(pm, target, "stage_unitaries")
    table = _stage_bases(plan, pm)
    row = {target: i for i, target in enumerate(table)}
    rows = [row[target] for target, _, _ in plan]
    w = np.array([basis.eigenvalues for basis, _ in table.values()])[rows]
    v = np.array([basis.eigenvectors for basis, _ in table.values()])[rows]
    zs = np.array([-1j * c * dt ** table[target][1] for target, c, _ in plan])
    return _hermitian_exp(w[:, None, :], v, zs[:, None, None])


def step_operator(scheme: Scheme, parts: Mapping, dt: float) -> np.ndarray:
    """The full one-step propagator (product of stage exponentials)."""
    mats = stage_unitaries(scheme, parts, dt)
    out = mats[0]
    for m in mats[1:]:
        out = m @ out
    return out


def unitary_step(scheme: Scheme, parts: Mapping, dt: float, psi: QuantumState) -> QuantumState:
    """One scheme step exp(-i dt H)-style applied to the state.

    Every stage moves the state into its target's eigenbasis, multiplies it
    by the phases and moves it back: O(N^2) and with no N x N temporary for a
    dense part, one product per amplitude for a diagonal one, and O(N log N)
    for a ``TransverseField``.
    """
    plan = _plan(scheme, parts)
    table = _stage_bases(plan, _parts_map(parts))
    v = psi.vector
    for target, c, _ in plan:
        basis, power = table[target]
        v = basis.out_of(np.exp(-1j * c * dt ** power * basis.eigenvalues) * basis.into(v))
    return QuantumState(v)


def spin_parts(gamma: float) -> dict[str, HermitianPart]:
    """The precession fixture: A = sigma_z, B = gamma * sigma_x."""
    return {"A": HermitianPart(_SIGMA_Z, "A"), "B": HermitianPart(gamma * _SIGMA_X, "B")}


def precession_period(gamma: float) -> float:
    return math.pi / math.sqrt(1.0 + gamma * gamma)


def sample_marks(steps: int, every: int) -> list[int]:
    """The steps a trajectory records a row at: 0, every, 2 every, ..., steps."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if every < 1:
        raise ValueError(f"sample_every must be >= 1, got {every}")
    return list(range(0, steps, every)) + [steps]


def run_precession(method, gamma: float, dt: float, steps: int, sample_every: int):
    """Evolve the up-spin state; record (t, <H>, ||psi||) at ``sample_marks``.

    ``method`` is a two-slot Scheme or the string "perturbative".  The
    energy expectation is the raw quadratic form (no renormalization), so
    the norm growth of the bad baseline shows up in the energy directly.

    The 2x2 step matrix is built in numpy, then every step runs in Python
    complex arithmetic on its four entries and the two amplitudes: at this
    size a numpy call costs more than the arithmetic it does.  The sampled
    rows (energy, norm) are computed in numpy from the rebuilt vector.
    """
    parts = spin_parts(gamma)
    h = parts["A"].matrix + parts["B"].matrix
    psi = QuantumState.up(2).vector
    rows = [(0.0, float((psi.conj() @ (h @ psi)).real), 1.0)]
    if isinstance(method, str):
        if method != "perturbative":
            raise ValueError(f"unknown method {method!r}")
        m_step = np.eye(2, dtype=complex) - 1j * dt * h
    else:
        m_step = step_operator(method, parts, dt)
    (a, b), (c, d) = m_step.tolist()
    x, y = psi.tolist()
    marks = sample_marks(steps, sample_every)
    # a run that leaves the float range records its inf/nan rows silently
    # (Python's complex product gives inf/nan without raising); the caller
    # reports the first non-finite row
    with np.errstate(over="ignore", invalid="ignore"):
        for k, k_next in zip(marks, marks[1:]):
            for _ in range(k_next - k):
                x, y = a * x + b * y, c * x + d * y
            psi = np.array([x, y])
            energy = float((psi.conj() @ (h @ psi)).real)
            rows.append((k_next * dt, energy, float(np.linalg.norm(psi))))
    return rows


# ---------------------------------------------------------------------------
# Classical stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.q))):
            raise ValueError("phase-space point has non-finite entries")


@dataclass(frozen=True)
class SeparableHamiltonian:
    """H(p, q) = |p|^2/2 + V(q), with V given through its gradient and value."""

    grad_v: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], float]

    def energy(self, x: PhasePoint) -> float:
        return float(0.5 * float(x.p @ x.p) + self.potential(x.q))


def drift(dt: float, x: PhasePoint) -> PhasePoint:
    """Exact kinetic flow: q advances by dt p, p unchanged."""
    return PhasePoint(x.p, x.q + dt * x.p)


def kick(h: SeparableHamiltonian, dt: float, x: PhasePoint) -> PhasePoint:
    """Exact potential flow: p absorbs -grad V(q), q unchanged."""
    return PhasePoint(x.p - dt * h.grad_v(x.q), x.q)


def symplectic_step(scheme: Scheme, h: SeparableHamiltonian, dt: float,
                    x: PhasePoint) -> PhasePoint:
    """Compose kick/drift maps per the scheme stages (right to left)."""
    for kick_c, drift_c in _kick_drift_items(scheme, dt):
        if kick_c is not None:
            x = kick(h, kick_c, x)
        if drift_c is not None:
            x = drift(drift_c, x)
    return x


def umeno_hamiltonian() -> SeparableHamiltonian:
    """V = q1^2 q2^2 / 2 (the chaotic demo system); the tests' reference for ``run_umeno``."""
    return SeparableHamiltonian(
        grad_v=lambda q: np.array([q[0] * q[1] ** 2, q[0] ** 2 * q[1]]),
        potential=lambda q: 0.5 * float(q[0] ** 2 * q[1] ** 2),
    )


UMENO_IC = PhasePoint(np.zeros(2), np.array([2.0, 1.0]))


def _kick_drift_items(scheme: Scheme, dt: float) -> list[tuple[float | None, float | None]]:
    """One step's stages as (kick c dt, drift c dt) items in application
    order: slot A drifts, slot B kicks.

    Each kick is paired with the drift that follows it; a drift with no kick
    before it, or a kick with no drift after it, stands alone beside None.
    """
    items = []
    for target, c, _ in _plan(scheme, dict.fromkeys("AB")):
        if not isinstance(target, str):
            raise ValueError("commutator stages are not supported in classical stepping")
        if target == "A" and items and items[-1][1] is None and items[-1][0] is not None:
            items[-1] = (items[-1][0], c * dt)
        else:
            items.append((c * dt, None) if target == "B" else (None, c * dt))
    return items


def run_umeno(method, dt: float, steps: int, sample_every: int):
    """Time series (t, E, q1, q2) at ``sample_marks`` for the chaotic two-dof
    demo, from ``UMENO_IC``.

    ``method`` is a two-slot Scheme (kick/drift composition) or "euler".
    Every step runs in Python float arithmetic.  A scheme's step is folded
    once into (kick, drift) items, and each interval between marks steps one
    stream of whole steps' items, the kick before the drift of an item; the
    Euler update has its own loop.  Each float operation and its order are
    those of applying the stages one by one, so the rows keep their bits.
    """
    (p1, p2), (q1, q2) = UMENO_IC.p.tolist(), UMENO_IC.q.tolist()
    rows = [(0.0, 0.5 * (p1 * p1 + p2 * p2) + 0.5 * q1 * q1 * q2 * q2, q1, q2)]
    if isinstance(method, str):
        if method != "euler":
            raise ValueError(f"unknown method {method!r}")
        items, minus_dt = None, -dt
    else:
        items = _kick_drift_items(method, dt)
        stream = itertools.cycle(items)
    marks = sample_marks(steps, sample_every)
    for k, k_next in zip(marks, marks[1:]):
        if items is None:
            for _ in range(k_next - k):
                dp1 = minus_dt * q1 * q2 * q2
                dp2 = minus_dt * q1 * q1 * q2
                q1, q2 = q1 + dt * p1, q2 + dt * p2
                p1, p2 = p1 + dp1, p2 + dp2
        else:
            for kick_c, drift_c in itertools.islice(stream, (k_next - k) * len(items)):
                if kick_c is not None:
                    p1 -= kick_c * q1 * q2 * q2
                    p2 -= kick_c * q1 * q1 * q2
                if drift_c is not None:
                    q1 += drift_c * p1
                    q2 += drift_c * p2
        energy = 0.5 * (p1 * p1 + p2 * p2) + 0.5 * q1 * q1 * q2 * q2
        rows.append((k_next * dt, energy, q1, q2))
    return rows


# ---------------------------------------------------------------------------
# Time-ordered stepping
# ---------------------------------------------------------------------------

def _scalar_values(fs: Sequence[Callable[[float], float]], slots: Sequence[str],
                   times: np.ndarray) -> np.ndarray:
    """fs[s](t) at each stage time t = times[k, s] of a (steps, stages) grid,
    asked in row order, as a float64 array of the grid's shape.

    Raises ``ValueError`` naming the slot and t of the first value that is
    not a finite real number (a bool, int or float, Python's or numpy's).
    """
    flat = times.ravel().tolist()
    values = [f(t) for f, t in zip(itertools.cycle(fs), flat)]
    try:
        out = np.array(values)
    except ValueError:   # values of different shapes
        out = None
    if (out is not None and out.ndim == 1 and out.dtype.kind in "biuf"
            and np.isfinite(out).all()):
        return out.astype(np.float64, copy=False).reshape(times.shape)
    for slot, t, x in zip(itertools.cycle(slots), flat, values):
        a = np.asarray(x)
        if a.ndim or a.dtype.kind not in "biuf" or not np.isfinite(a):
            raise ValueError(f"part {slot}: f({t}) = {x!r} is not a finite real number")
    return np.array(values, dtype=np.float64).reshape(times.shape)


def _timeordered_pass(scheme3: Scheme, parts: Mapping, t0: float, dt: float,
                      marks: Sequence[int], v: np.ndarray):
    """The state at each step count of ``marks`` (ascending; the last is the
    run's length) of one ``run_timeordered`` run set up once: a whole run's
    bits at every mark."""
    plan = _plan(scheme3, parts, timed=True)
    for lab, part in parts.items():
        if not (isinstance(part, (tuple, list)) and len(part) == 2 and callable(part[0])):
            raise ValueError(f"part {lab} must be a pair (f, H) of a scalar function "
                             "of t and a Hermitian matrix")
    pm = _parts_map({lab: h for lab, (_, h) in parts.items()})
    steps = marks[-1]
    offsets = np.array([tau * dt for _, _, tau in plan])
    # stage times are monotone in k and in tau, so these four bound them all
    for k in (0, steps - 1) if steps else ():
        for tau_dt in (float(offsets.min()), float(offsets.max())):
            t = (t0 + k * dt) + tau_dt
            if not math.isfinite(t):
                raise ValueError(f"stage time t0 + k*dt + tau*dt = {t} at step k = {k} "
                                 f"is not finite (t0 = {t0}, dt = {dt})")
    slots = [slot for slot, _, _ in plan]
    stage_f = [parts[slot][0] for slot in slots]
    bases = [pm[slot] for slot in slots]
    eigenvalues = np.array([basis.eigenvalues for basis in bases])
    # after stage s's phases: into stage s+1's eigenbasis, or back out after
    # the last.  Where the parts on both sides are given as matrices, that is
    # one matrix (V_{s+1}^H V_s, or V_s after the last) premultiplied with the
    # phases into the stage's factor; else the parts move the state
    # themselves, out of one basis and into the next
    vectors = {slot: part.eigenvectors for slot, part in pm.items() if part.matrix is not None}
    given = [slot in vectors for slot in slots] + [True]   # + the step's end
    free = {s: (bases[s].out_of if s + 1 == len(plan)
                else lambda u, a=bases[s], b=bases[s + 1]: b.into(a.out_of(u)))
            for s in range(len(plan)) if not (given[s] and given[s + 1])}
    by_matrix = [s for s in range(len(plan)) if s not in free]
    matrix_phases = by_matrix if free else slice(None)   # a view when all are factors
    enter = vectors[slots[0]].conj().T.dot if given[0] else bases[0].into
    pairs = [(slots[s], slots[s + 1]) for s in by_matrix if s + 1 < len(plan)]
    basis_change = {(a, b): vectors[b].conj().T @ vectors[a] for a, b in set(pairs)}
    moves = [basis_change[pair] for pair in pairs]
    if len(moves) < len(by_matrix):   # the last stage moves back out by a matrix
        moves.append(vectors[slots[-1]])
    moves = np.array(moves, dtype=complex).reshape(len(by_matrix), v.size, v.size)
    zs = np.array([-1j * c * dt for _, c, _ in plan])
    per_chunk = max(1, _CHUNK_BYTES // (16 * len(plan) * v.size * v.size))
    # a mark is read just before its step's first factor, or after the last step
    reads = iter(marks)
    mark = next(reads)
    for first in range(0, steps, per_chunk):
        k = np.arange(first, min(first + per_chunk, steps))
        times = (t0 + k[:, None] * dt) + offsets
        phases = np.exp((zs * _scalar_values(stage_f, slots, times))[..., None] * eigenvalues)
        factors = iter((moves * phases[:, matrix_phases, None, :]).reshape(-1, v.size, v.size))
        if free:
            factors = iter([_FreeStage(phases[i, s], free[s]) if s in free else next(factors)
                            for i in range(k.size) for s in range(len(plan))])
        for step in k.tolist():
            if step == mark:
                yield v
                mark = next(reads)
            v = enter(v)
            for factor in itertools.islice(factors, len(plan)):
                v = factor.dot(v)
    yield v


class _FreeStage:
    """A time-ordered stage whose move is no matrix, applied as a factor is:
    ``dot`` takes its phases, then its move."""

    __slots__ = ("phases", "move")

    def __init__(self, phases: np.ndarray, move: Callable[[np.ndarray], np.ndarray]):
        self.phases, self.move = phases, move

    def dot(self, v: np.ndarray) -> np.ndarray:
        return self.move(self.phases * v)


def run_timeordered(scheme3: Scheme, parts: Mapping, t0: float,
                    dt: float, steps: int, psi: QuantumState) -> QuantumState:
    """``steps`` steps of a scheme with a shift-time slot T on a driven system.

    ``parts`` maps each other slot to a pair ``(f, H)``: f is a real scalar
    function of t, H a Hermitian matrix or a part (``HermitianPart``,
    ``DiagonalPart``, ``TransverseField``), and the part at time t is
    f(t) H.  The shift-time slot is consumed into stage offsets tau; in step
    k each remaining stage applies exp(-i c dt f(t) H) at
    t = t0 + k dt + tau dt, right to left.

    A matrix is made a ``HermitianPart`` once per run, and stage s acts in
    its slot's fixed eigenbasis as the phases exp(-i c dt f(t) w_s), then
    moves on into the next stage's.  f is called once per (slot, t) in
    application order, t the float ``(t0 + k*dt) + tau*dt``, over a chunk of
    whole steps at a time (at most ``_CHUNK_BYTES`` of factors, or one step);
    the factors are applied one by one, so a run has the bits of single
    steps from ``t0 + k*dt``.  A 0-step run returns ``psi``'s state.

    Refused with a ``ValueError``: a negative ``steps``; a stage time that
    is not finite, named, before any f is called; an f(t) that is not a
    finite real number, naming its slot and the first such t in order.
    """
    # read at step 0 and at the end; sample_marks refuses a negative count
    marks = sample_marks(steps, max(steps, 1))
    *_, v = _timeordered_pass(scheme3, parts, t0, dt, marks, psi.vector)
    return QuantumState(v)


def driven_two_level() -> dict[str, tuple[Callable[[float], float], HermitianPart]]:
    """A(t) = sigma_z, B(t) = cos(t) sigma_x, as (f, H) pairs."""
    return {"A": (lambda t: 1.0, HermitianPart(_SIGMA_Z, "A")),
            "B": (math.cos, HermitianPart(_SIGMA_X, "B"))}


def run_driven(scheme3: Scheme, dt: float, steps: int, sample_every: int, t0: float):
    """Rows (t, Re psi_0, Im psi_0, Re psi_1, Im psi_1, ||psi||) at ``sample_marks``
    of one ``run_timeordered`` run of the driven two-level system from the up
    state; row k sits at t0 + k dt, and no bit depends on ``sample_every``."""
    marks = sample_marks(steps, sample_every)
    states = _timeordered_pass(scheme3, driven_two_level(), t0, dt, marks,
                               QuantumState.up(2).vector)
    return [(t0 + k * dt, v[0].real, v[0].imag, v[1].real, v[1].imag,
             float(np.linalg.norm(v))) for k, v in zip(marks, states)]


# ---------------------------------------------------------------------------
# Empirical-order sweeps
# ---------------------------------------------------------------------------

def error_slope(dts: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    if len(set(dts)) < 2:
        raise ValueError("a slope needs at least 2 distinct dt")
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def spin_error(scheme: Scheme, gamma: float, dt: float, t_final: float) -> float:
    """Final-state error on the precession fixture vs the exact evolution."""
    return hermitian_pair_error(scheme, _SIGMA_Z, gamma * _SIGMA_X, dt, t_final)


def step_count(t_final: float, dt: float) -> int:
    """Steps of size dt that approximate t_final; at least one.

    Raises ``ValueError`` when t_final / dt is not a finite number.
    """
    steps = t_final / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_final / dt = {t_final} / {dt} is not a finite step count")
    return max(1, int(round(steps)))


def hermitian_pair_error(scheme: Scheme, a: np.ndarray, b: np.ndarray,
                         dt: float, t_final: float) -> float:
    """Final-state error for arbitrary Hermitian parts (exact reference)."""
    parts = {"A": HermitianPart(a), "B": HermitianPart(b)}
    h = HermitianPart(a + b)
    steps = step_count(t_final, dt)
    u_step = step_operator(scheme, parts, dt)
    u_total = np.linalg.matrix_power(u_step, steps)
    u_exact = h.expfactor(-1j * steps * dt)
    psi0 = QuantumState.up(a.shape[0]).vector
    return float(np.linalg.norm(u_total @ psi0 - u_exact @ psi0))


# Steps a driven error study may take, its references included (about 2.5 s
# of timeordered4 on one core of a 2-core x86 machine).
MAX_DRIVEN_STEPS = 100_000


def driven_error(scheme3: Scheme, dts: Sequence[float], t_final: float) -> list[float]:
    """G-scheme error at each dt of ``dts`` on the driven two-level system vs a
    fine-step reference.

    Step dt runs ``step_count(t_final, dt)`` steps and ends at that count
    times dt.  The reference is the catalog's ``timeordered4`` at 1/32 of the
    finest dt that ends at the same time, run once for every end time.  On
    the default grid (finest dt 1/32, t_final 1) it agrees with
    ``timeordered4`` at 1/64 of that dt within 3.7e-13, and ``timeordered4``'s
    own error at dt 1/32, 1.1097e-8, reads the same to 2e-6 relative against
    a run at 1/256 of it.  A study of more than ``MAX_DRIVEN_STEPS`` steps,
    the references' included, is refused with a ``ValueError`` before any step.
    """
    parts = driven_two_level()

    def final_state(scheme: Scheme, step: float, steps: int) -> np.ndarray:
        return run_timeordered(scheme, parts, 0.0, step, steps, QuantumState.up(2)).vector

    steps = [step_count(t_final, d) for d in dts]
    finest: dict[float, float] = {}  # end time -> the finest dt that ends there
    for d, n in zip(dts, steps):
        finest[n * d] = min(d, finest.get(n * d, d))
    ref_steps = {end: step_count(t_final, d) * 32 for end, d in finest.items()}
    total = sum(steps) + sum(ref_steps.values())
    if total > MAX_DRIVEN_STEPS:
        raise ValueError(f"the driven study takes {total} steps, its dt/32 references "
                         f"included; the cap is {MAX_DRIVEN_STEPS}")
    reference = CATALOG["timeordered4"]()
    ref = {end: final_state(reference, finest[end] / 32, n) for end, n in ref_steps.items()}
    return [float(np.linalg.norm(final_state(scheme3, d, n) - ref[n * d]))
            for d, n in zip(dts, steps)]


@dataclass(frozen=True)
class Convergence:
    """An error-vs-dt study; ``slope`` is None when the kept points have fewer
    than 2 distinct dt."""

    dts: list[float]
    errors: list[float]
    t_final: float
    slope: float | None
    points_used: int


_SPIN_GAMMA = 0.75
# ||H|| in the fit's step cap dt ||H|| <= 1
_FIT_NORM = {"spin": math.hypot(1.0, _SPIN_GAMMA), "driven": 1.0}


def convergence(scheme: Scheme, system: str = "spin", dts: Sequence[float] | None = None,
                t_final: float | None = None) -> Convergence:
    """Final-state error at each dt (``spin_error`` at gamma 0.75 or ``driven_error``,
    which shares one reference among the dts that end at the same time)
    and the log-log slope of error against dt.

    Defaults: dt 1/4 ... 1/32 driven; spin 2^(-k/2), k = 0..8, from order 6
    on, else the precession period times 2^-k, k = 6..12; t_final 2 from
    order 6 on, else 1.  The fit keeps the points with dt ||H|| <= 1 whose error
    tops the roundoff floor max(1e-13, 2 eps stages steps), eps = float64 epsilon,
    each distinct dt once; a slope needs 2 of them.
    """
    if system not in _FIT_NORM:
        raise ValueError(f"unknown system {system!r}; expected 'spin' or 'driven'")
    high = scheme.claimed_order >= 6
    if dts is None and system == "driven":
        dts = [1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32]
    elif dts is None:
        dts = ([2 ** (-k / 2) for k in range(0, 9)] if high
               else [precession_period(_SPIN_GAMMA) * 2 ** -k for k in range(6, 13)])
    if t_final is None:
        t_final = 2.0 if high else 1.0
    errors = (driven_error(scheme, dts, t_final) if system == "driven"
              else [spin_error(scheme, _SPIN_GAMMA, dt, t_final) for dt in dts])
    kept = {}  # each distinct dt once, however often it is listed
    for dt, err in zip(dts, errors):
        floor = max(1e-13, 2 * 2.2e-16 * len(scheme.stages) * step_count(t_final, dt))
        if err > floor and dt * _FIT_NORM[system] <= 1.0:
            kept[dt] = err
    slope = error_slope(list(kept), list(kept.values())) if len(kept) >= 2 else None
    return Convergence(list(dts), errors, t_final, slope, len(kept))
