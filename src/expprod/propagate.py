"""Apply splitting schemes to concrete dynamics.

Quantum side: every stage exponential comes from an eigendecomposition of
a Hermitian matrix: letter stages from the cached one of their part,
commutator stages from the bracket (the matrices of its labels folded by
``ncalg.bracket_fold``) brought to Hermitian form.  So every
stage is unitary to roundoff and the norm cannot drift.  A static part is
checked Hermitian within 1e-12, a time-dependent sample within 1e-10 (both
in the Frobenius norm, relative to max(1, ||H||)).  Time-ordered stepping
builds its stage factors per chunk of steps: the samples of at most
``_CHUNK_BYTES`` of factors go through one stacked ``eigh``, and the
factors are then applied one by one in application order, so the output
is bit-identical to building each factor on its own.  Classical side:
kick and drift are the exact flows of the potential-only and kinetic-only
Hamiltonians (the generators are nilpotent), so every composed step is
symplectic.  The deliberately bad first-order baselines for comparison
runs are built inside ``run_precession`` (the perturbative I - i dt H) and
``run_umeno`` (the Euler update); ``euler_step`` is that Euler update on
its own, the tests' reference.  Quantum steppers take their parts as a
mapping from slot label to matrix or ``HermitianPart``.

The ``cli`` commands only call this module and write what it returns: every
trajectory run records rows at the steps ``sample_marks`` names, and
``convergence`` is the one empirical-order study (dt grids, floor, fit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .ncalg import bracket_fold, bracket_leaves, commutator
from .schemes import Scheme, stage_plan, timeordered2


# ---------------------------------------------------------------------------
# Quantum stepping
# ---------------------------------------------------------------------------

# bytes of stage factors that one chunk of time-ordered steps holds at most.
# Larger chunks run no faster (one eigh call already covers 1024 2x2 factors)
# but hold more: at 4 MB the peak RSS of the driven timeordered4 convergence
# run rose from 34 to 57 MB, at 64 KB by 0.4 MB.
_CHUNK_BYTES = 1 << 16


def _hermitian_exp(w: np.ndarray, v: np.ndarray, z) -> np.ndarray:
    """exp(z H) for H = v diag(w) v^H (unitary for imaginary z).

    For a (K, N, N) stack v, pass w as (K, 1, N) and z as (K, 1, 1).
    """
    return (v * np.exp(z * w)) @ v.conj().swapaxes(-1, -2)


def _not_hermitian(stack: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the m in a (K, N, N) stack with ||m - m^H|| > tol max(1, ||m||) (Frobenius)."""
    asym = np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    return asym > tol * np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1)))


class HermitianPart:
    """A Hermitian matrix with a cached eigendecomposition for stage factors."""

    def __init__(self, matrix: np.ndarray, label: str = ""):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Hamiltonian part must be a square matrix")
        if _not_hermitian(m[None], 1e-12)[0]:
            raise ValueError("matrix is not Hermitian within 1e-12")
        self.matrix = m
        self.label = label
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expfactor(self, z: complex) -> np.ndarray:
        """exp(z H) through the cached eigendecomposition."""
        return _hermitian_exp(self.eigenvalues, self.eigenvectors, z)

    def apply_exp(self, z: complex, vector: np.ndarray) -> np.ndarray:
        """exp(z H) vector in the cached eigenbasis, without forming exp(z H)."""
        v = self.eigenvectors
        return v @ (np.exp(z * self.eigenvalues) * (vector.conj() @ v).conj())

    def reconstruction_error(self) -> float:
        rebuilt = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T
        return float(np.linalg.norm(rebuilt - self.matrix))


@dataclass
class QuantumState:
    """A complex state vector; the norm is tracked alongside."""

    vector: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        self.norm = float(np.linalg.norm(self.vector))

    @classmethod
    def up(cls, dim: int = 2) -> "QuantumState":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return cls(v)


def _parts_map(parts: Mapping) -> dict[str, HermitianPart]:
    """The parts by slot label, each a ``HermitianPart`` (plain matrices are wrapped)."""
    mapping = {lab: p if isinstance(p, HermitianPart) else HermitianPart(p, label=lab)
               for lab, p in parts.items()}
    dims = {p.dim for p in mapping.values()}
    if len(dims) != 1:
        raise ValueError("Hamiltonian parts have mismatched dimensions")
    return mapping


def _static_plan(scheme: Scheme) -> list[tuple[str | tuple, float, float]]:
    """The stage plan of a scheme for a time-independent system (no T slot)."""
    if "T" in scheme.slots:
        raise ValueError("scheme has a shift-time slot; step it with run_timeordered")
    return stage_plan(scheme)


def stage_unitaries(scheme: Scheme, parts: Mapping, dt: float) -> list[np.ndarray]:
    """Stage matrices in application (right-to-left) order for exp(-i dt H).

    A commutator stage with L leaves applies exp(c (-i dt)^L K), where the
    bracket K of Hermitian parts is i^(L-1) times a Hermitian matrix; it is
    taken as exp(-i c dt^L H) with H = (-i)^(L-1) K.  ``eigh`` reads one
    triangle of H, so the factor is unitary whatever roundoff K carries.
    """
    pm = _parts_map(parts)
    return [pm[target].expfactor(-1j * c * dt) if isinstance(target, str)
            else _commutator_factor(target, c, dt, pm)
            for target, c, _ in _static_plan(scheme)]


def _commutator_factor(tree: tuple, c: float, dt: float,
                       parts: dict[str, HermitianPart]) -> np.ndarray:
    leaves = bracket_leaves(tree)
    h = (-1j) ** (leaves - 1) * bracket_fold(tree, lambda lab: parts[lab].matrix, commutator)
    w, v = np.linalg.eigh(h)
    return _hermitian_exp(w, v, -1j * c * dt ** leaves)


def step_operator(scheme: Scheme, parts: Mapping, dt: float) -> np.ndarray:
    """The full one-step propagator (product of stage exponentials)."""
    mats = stage_unitaries(scheme, parts, dt)
    out = mats[0]
    for m in mats[1:]:
        out = m @ out
    return out


def unitary_step(scheme: Scheme, parts: Mapping, dt: float, psi: QuantumState) -> QuantumState:
    """One scheme step exp(-i dt H)-style applied to the state.

    A letter stage acts in its part's cached eigenbasis, O(N^2) and with no
    N x N temporary; a commutator stage applies the factor of its bracket.
    """
    pm = _parts_map(parts)
    v = psi.vector
    for target, c, _ in _static_plan(scheme):
        if isinstance(target, str):
            v = pm[target].apply_exp(-1j * c * dt, v)
        else:
            v = _commutator_factor(target, c, dt, pm) @ v
    return QuantumState(v)


def spin_parts(gamma: float) -> dict[str, HermitianPart]:
    """The precession fixture: A = sigma_z, B = gamma * sigma_x."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return {"A": HermitianPart(sz, "A"), "B": HermitianPart(gamma * sx, "B")}


def precession_period(gamma: float) -> float:
    return math.pi / math.sqrt(1.0 + gamma * gamma)


def sample_marks(steps: int, every: int) -> list[int]:
    """The steps a trajectory records a row at: 0, every, 2 every, ..., steps."""
    return list(range(0, steps, every)) + [steps]


def run_precession(method, gamma: float, dt: float, steps: int, sample_every: int):
    """Evolve the up-spin state; record (t, <H>, ||psi||) at ``sample_marks``.

    ``method`` is a two-slot Scheme or the string "perturbative".  The
    energy expectation is the raw quadratic form (no renormalization), so
    the norm growth of the bad baseline shows up in the energy directly.
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
    marks = sample_marks(steps, sample_every)
    for k, k_next in zip(marks, marks[1:]):
        for _ in range(k_next - k):
            psi = np.dot(m_step, psi)
        energy = float((psi.conj() @ (h @ psi)).real)
        rows.append((k_next * dt, energy, float(np.linalg.norm(psi))))
    return rows


def dominant_period(times: Sequence[float], values: Sequence[float]) -> float:
    """Period of the dominant oscillation via an interpolated FFT peak."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    y = y - y.mean()
    window = np.hanning(len(y))
    spec = np.abs(np.fft.rfft(y * window))
    spec[0] = 0.0
    k = int(np.argmax(spec))
    if 0 < k < len(spec) - 1:
        # parabolic interpolation on the log magnitudes
        la, lb, lc = (math.log(max(s, 1e-300)) for s in spec[k - 1:k + 2])
        denom = la - 2 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        k_interp = k + max(-0.5, min(0.5, shift))
    else:
        k_interp = float(k)
    dt_sample = t[1] - t[0]
    total = dt_sample * len(y)
    freq = k_interp / total
    return 1.0 / freq


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
    """H(p, q) = K(p) + V(q) given through gradient and energy callbacks."""

    grad_k: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]
    kinetic: Callable[[np.ndarray], float]
    potential: Callable[[np.ndarray], float]

    def energy(self, x: PhasePoint) -> float:
        return float(self.kinetic(x.p) + self.potential(x.q))


def drift(h: SeparableHamiltonian, dt: float, x: PhasePoint) -> PhasePoint:
    """Exact kinetic flow: q advances along grad K(p), p unchanged."""
    return PhasePoint(x.p, x.q + dt * h.grad_k(x.p))


def kick(h: SeparableHamiltonian, dt: float, x: PhasePoint) -> PhasePoint:
    """Exact potential flow: p absorbs -grad V(q), q unchanged."""
    return PhasePoint(x.p - dt * h.grad_v(x.q), x.q)


def _kick_drift_plan(scheme: Scheme) -> list[tuple[str, float]]:
    """(kind, coeff) per stage in application order: slot A drifts, slot B kicks."""
    plan = []
    for target, c, _ in _static_plan(scheme):
        if not isinstance(target, str):
            raise ValueError("commutator stages are not supported in classical stepping")
        kind = {"A": "drift", "B": "kick"}.get(target)
        if kind is None:
            raise ValueError(f"slot {target!r} has no classical flow (A drifts, B kicks)")
        plan.append((kind, c))
    return plan


def symplectic_step(scheme: Scheme, h: SeparableHamiltonian, dt: float,
                    x: PhasePoint) -> PhasePoint:
    """Compose kick/drift maps per the scheme stages (right to left)."""
    for kind, c in _kick_drift_plan(scheme):
        x = (drift if kind == "drift" else kick)(h, c * dt, x)
    return x


def euler_step(h: SeparableHamiltonian, dt: float, x: PhasePoint) -> PhasePoint:
    """Simultaneous first-order update; breaks phase-space volume."""
    return PhasePoint(x.p - dt * h.grad_v(x.q), x.q + dt * h.grad_k(x.p))


def umeno_hamiltonian() -> SeparableHamiltonian:
    """K = (p1^2 + p2^2)/2, V = q1^2 q2^2 / 2 (the chaotic demo system)."""
    return SeparableHamiltonian(
        grad_k=lambda p: p,
        grad_v=lambda q: np.array([q[0] * q[1] ** 2, q[0] ** 2 * q[1]]),
        kinetic=lambda p: 0.5 * float(p @ p),
        potential=lambda q: 0.5 * float(q[0] ** 2 * q[1] ** 2),
    )


UMENO_IC = PhasePoint(np.zeros(2), np.array([2.0, 1.0]))


def run_umeno(method, dt: float, steps: int, sample_every: int):
    """Time series (t, E, q1, q2) at ``sample_marks`` for the chaotic two-dof
    demo, from ``UMENO_IC``.

    ``method`` is a two-slot Scheme (kick/drift composition) or "euler".
    """
    (p1, p2), (q1, q2) = UMENO_IC.p.tolist(), UMENO_IC.q.tolist()
    rows = [(0.0, umeno_hamiltonian().energy(UMENO_IC), q1, q2)]
    if isinstance(method, str):
        if method != "euler":
            raise ValueError(f"unknown method {method!r}")
        stepper = None
    else:
        stepper = [(kind, c * dt) for kind, c in _kick_drift_plan(method)]
    marks = sample_marks(steps, sample_every)
    for k, k_next in zip(marks, marks[1:]):
        for _ in range(k_next - k):
            if stepper is None:
                dp1 = -dt * q1 * q2 * q2
                dp2 = -dt * q1 * q1 * q2
                q1, q2 = q1 + dt * p1, q2 + dt * p2
                p1, p2 = p1 + dp1, p2 + dp2
            else:
                for kind, c in stepper:
                    if kind == "kick":
                        p1 -= c * q1 * q2 * q2
                        p2 -= c * q1 * q1 * q2
                    else:
                        q1 += c * p1
                        q2 += c * p2
        energy = 0.5 * (p1 * p1 + p2 * p2) + 0.5 * q1 * q1 * q2 * q2
        rows.append((k_next * dt, energy, q1, q2))
    return rows


def jacobian_determinant(step: Callable[[PhasePoint], PhasePoint], x: PhasePoint) -> float:
    """det of the phase-space Jacobian of a map, by central differences of width 1e-6."""
    h = 1e-6
    base = np.concatenate([x.p, x.q])
    n = base.size
    jac = np.zeros((n, n))
    for j in range(n):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        xp = step(PhasePoint(plus[:n // 2], plus[n // 2:]))
        xm = step(PhasePoint(minus[:n // 2], minus[n // 2:]))
        jac[:, j] = (np.concatenate([xp.p, xp.q]) - np.concatenate([xm.p, xm.q])) / (2 * h)
    return float(np.linalg.det(jac))


# ---------------------------------------------------------------------------
# Time-ordered stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeDependentParts:
    """Matrix-valued functions of time for the two Hamiltonian pieces."""

    a: Callable[[float], np.ndarray]
    b: Callable[[float], np.ndarray]

    def samples(self, slots: Sequence[str], times: Sequence[float]) -> np.ndarray:
        """The parts at the (slot, t) pairs in order, as one (len, N, N) stack.

        Raises ``ValueError`` naming the first pair whose sample is not
        Hermitian within 1e-10.
        """
        mats = np.array([(self.a if slot == "A" else self.b)(t)
                         for slot, t in zip(slots, times)], dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("time-dependent parts must be square matrices of one size")
        bad = np.flatnonzero(_not_hermitian(mats, 1e-10))
        if bad.size:
            raise ValueError(f"part {slots[bad[0]]} is not Hermitian at t={times[bad[0]]}")
        return mats

    def sample(self, slot: str, t: float) -> np.ndarray:
        return self.samples([slot], [t])[0]


def run_timeordered(scheme3: Scheme, parts: TimeDependentParts, t0: float,
                    dt: float, steps: int, psi: QuantumState, *,
                    first: int = 0) -> QuantumState:
    """Steps ``first`` .. ``first + steps - 1`` of a three-slot (A, B, T)
    scheme on a driven system.

    The shift-time slot is consumed into stage offsets tau; in step k each
    remaining stage applies exp(-i c dt X(t0 + k dt + tau dt)), right to left.
    So a run split into segments, each passing its first step index and the
    same ``t0``, gives every bit of one run over all the steps.
    The factors are built per chunk of (step, stage) pairs, at most
    ``_CHUNK_BYTES`` of them, with one stacked ``eigh``; a chunk's stage
    times are ``(t0 + k*dt) + tau*dt`` over a float64 array of its step
    indices k, the same floats as the scalar expression.  Applying the
    factors one by one keeps every bit of the one-factor-at-a-time product.
    """
    if "T" not in scheme3.slots:
        raise ValueError("scheme has no shift-time slot")
    plan = stage_plan(scheme3)
    slots = np.array([slot for slot, _, _ in plan])
    offsets = np.array([tau * dt for _, _, tau in plan])
    zs = np.array([-1j * c * dt for _, c, _ in plan])
    v = psi.vector
    per_chunk = max(1, _CHUNK_BYTES // (16 * v.size * v.size))
    # flat index i of the (step, stage) pairs: step i // len(plan), stage i % len(plan)
    end = (first + steps) * len(plan)
    for start in range(first * len(plan), end, per_chunk):
        k, stage = np.divmod(np.arange(start, min(start + per_chunk, end)), len(plan))
        times = (t0 + k.astype(np.float64) * dt) + offsets[stage]
        w, vecs = np.linalg.eigh(parts.samples(slots[stage].tolist(), times.tolist()))
        for factor in _hermitian_exp(w[:, None], vecs, zs[stage][:, None, None]):
            v = np.dot(factor, v)
    return QuantumState(v)


def driven_two_level() -> TimeDependentParts:
    """A(t) = sigma_z, B(t) = cos(t) sigma_x."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return TimeDependentParts(a=lambda t: sz, b=lambda t: math.cos(t) * sx)


def run_driven(scheme3: Scheme, dt: float, steps: int, sample_every: int, t0: float):
    """Rows (t, Re psi_0, Im psi_0, Re psi_1, Im psi_1, ||psi||) at ``sample_marks``
    of the driven two-level system from the up state; row k sits at t0 + k dt."""
    parts = driven_two_level()
    psi = QuantumState.up(2)

    def row(k: int) -> tuple:
        v = psi.vector
        return (t0 + k * dt, v[0].real, v[0].imag, v[1].real, v[1].imag, psi.norm)

    rows = [row(0)]
    marks = sample_marks(steps, sample_every)
    for k, k_next in zip(marks, marks[1:]):
        psi = run_timeordered(scheme3, parts, t0, dt, k_next - k, psi, first=k)
        rows.append(row(k_next))
    return rows


# ---------------------------------------------------------------------------
# Perturbational composition
# ---------------------------------------------------------------------------

class LogBranchError(ValueError):
    """The matrix-log eigenvalues straddle the principal branch cut."""


def _principal_log_symmetric(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if np.any(w <= 0):
        raise LogBranchError(
            "product eigenvalues reach the branch cut; reduce x")
    return (v * np.log(w)) @ v.conj().T


def transverse_coupling_coefficient(x: float) -> float:
    """First-order transverse response of the symmetric weak-field product.

    Numerically extracts the sigma_x component of dPhi/dgamma at gamma = 0,
    where exp(Phi(x, gamma)) = exp(x gamma sx/2) exp(x sz) exp(x gamma sx/2),
    via a central difference of half-width 1e-6 and the principal matrix
    logarithm, divided by x.  The closed form is x*coth(x).
    """
    if x == 0:
        return 1.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    mid = HermitianPart(sz).expfactor(x)
    sx_part = HermitianPart(sx)

    def sigx_component(gamma: float) -> float:
        cap = sx_part.expfactor(0.5 * x * gamma)
        phi = _principal_log_symmetric(cap @ mid @ cap)
        return float(np.trace(sx @ phi).real) / 2.0

    derivative = (sigx_component(1e-6) - sigx_component(-1e-6)) / 2e-6
    return derivative / x


def perturbational_composition(x_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """Rows (x, analytic x*coth x, numerically extracted coefficient)."""
    rows = []
    for x in x_grid:
        analytic = 1.0 if x == 0 else x / math.tanh(x)
        rows.append((float(x), analytic, transverse_coupling_coefficient(float(x))))
    return rows


# ---------------------------------------------------------------------------
# Empirical-order sweeps
# ---------------------------------------------------------------------------

def error_slope(dts: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    if len(dts) < 2:
        raise ValueError("a slope needs at least 2 points")
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def spin_error(scheme: Scheme, gamma: float, dt: float, t_final: float) -> float:
    """Final-state error on the precession fixture vs the exact evolution."""
    parts = spin_parts(gamma)
    return hermitian_pair_error(scheme, parts["A"].matrix, parts["B"].matrix, dt, t_final)


def step_count(t_final: float, dt: float) -> int:
    """Steps of size dt that approximate t_final; at least one."""
    return max(1, int(round(t_final / dt)))


def hermitian_pair_error(scheme: Scheme, a: np.ndarray, b: np.ndarray,
                         dt: float, t_final: float) -> float:
    """Final-state error for arbitrary Hermitian parts (exact reference)."""
    parts = {"A": HermitianPart(a), "B": HermitianPart(b)}
    h = HermitianPart(a + b)
    steps = step_count(t_final, dt)
    u_step = step_operator(scheme, parts, dt)
    u_total = np.linalg.matrix_power(u_step, steps)
    u_exact = h.expfactor(-1j * steps * dt)
    psi0 = np.zeros(a.shape[0], dtype=complex)
    psi0[0] = 1.0
    return float(np.linalg.norm(u_total @ psi0 - u_exact @ psi0))


def driven_error(scheme3: Scheme, dt: float | Sequence[float],
                 t_final: float) -> float | list[float]:
    """G-scheme error on the driven two-level system vs tiny-step reference.

    ``dt`` is one step, which gives one error, or a sequence of steps, which
    gives a list.  Step dt runs ``step_count(t_final, dt)`` steps and ends at
    that count times dt.  The reference is the second-order time-ordered
    scheme at 1/1024 of the finest dt that ends at the same time, run once
    for every end time.
    """
    dts = [dt] if np.ndim(dt) == 0 else list(dt)
    parts = driven_two_level()

    def final_state(scheme: Scheme, step: float, steps: int) -> np.ndarray:
        return run_timeordered(scheme, parts, 0.0, step, steps, QuantumState.up(2)).vector

    steps = [step_count(t_final, d) for d in dts]
    finest: dict[float, float] = {}  # end time -> the finest dt that ends there
    for d, n in zip(dts, steps):
        finest[n * d] = min(d, finest.get(n * d, d))
    ref = {end: final_state(timeordered2(), d / 1024, step_count(t_final, d) * 1024)
           for end, d in finest.items()}
    errors = [float(np.linalg.norm(final_state(scheme3, d, n) - ref[n * d]))
              for d, n in zip(dts, steps)]
    return errors[0] if np.ndim(dt) == 0 else errors


@dataclass(frozen=True)
class Convergence:
    """An error-vs-dt study; ``slope`` is None when fewer than 2 points are fit."""

    dts: list[float]
    errors: list[float]
    t_final: float
    slope: float | None
    points_used: int


_SPIN_GAMMA = 0.75
# ||H|| in the fit's step cap dt ||H|| <= 1: sqrt(1 + 0.75^2) on the spin fixture
_FIT_NORM = {"spin": 1.25, "driven": 1.0}


def convergence(scheme: Scheme, system: str = "spin", dts: Sequence[float] | None = None,
                t_final: float | None = None) -> Convergence:
    """Final-state error at each dt (``spin_error`` at gamma 0.75 or ``driven_error``,
    which shares one reference among the dts that end at the same time)
    and the log-log slope of error against dt.

    Defaults: dt 1/4 ... 1/32 driven; spin 2^(-k/2), k = 0..8, from order 6
    on, else the precession period times 2^-k, k = 6..12; t_final 2 from
    order 6 on, else 1.  The fit keeps the points with dt ||H|| <= 1 whose error
    tops the roundoff floor max(1e-13, 2 eps stages steps), eps = float64 epsilon.
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
    kept = []
    for dt, err in zip(dts, errors):
        floor = max(1e-13, 2 * 2.2e-16 * len(scheme.stages) * step_count(t_final, dt))
        if err > floor and dt * _FIT_NORM[system] <= 1.0:
            kept.append((dt, err))
    slope = error_slope(*zip(*kept)) if len(kept) >= 2 else None
    return Convergence(list(dts), errors, t_final, slope, len(kept))
