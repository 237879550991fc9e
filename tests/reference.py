"""The tests' references: oracles, measuring instruments and numeric identities.

No command runs these; the tests hold the package's kernels against them.
Some read private helpers of the module they check.  ``frechet_exp`` needs
scipy, which only the tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from expprod.ncalg import (
    LieCombination, NcSeries, _denominator, _log_numerators, _numerators, _to_series, commutator,
)
from expprod.orders import ConditionEq, OrderConditionSet
from expprod.poly import as_exact
from expprod.propagate import (
    _SIGMA_X, _SIGMA_Z, HermitianPart, PhasePoint, SeparableHamiltonian,
)
from expprod.qmc import ExactObservables, IsingModel, _ising_energy, _worldline_sums, couplings


# ---------------------------------------------------------------------------
# ncalg: the series logarithm and dense-matrix operator calculus
# ---------------------------------------------------------------------------

def series_log(s: NcSeries) -> NcSeries:
    """Series logarithm: sum_{k>=1} (-1)^{k+1} (s - I)^k / k, truncated."""
    if as_exact(s.constant_term()) != Fraction(1):
        raise ValueError("series logarithm requires constant term exactly 1")
    q = math.lcm(*map(_denominator, s.terms.values()))
    return _to_series(*_log_numerators(_numerators(s.terms, q, s.order), q), s.labels)


def to_series(combo: LieCombination, order: int) -> NcSeries:
    """The Lie combination expanded into words, as a series truncated at ``order``."""
    return NcSeries(order, combo.labels, combo.word_expansion())


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
    not normal, so this takes scipy's ``expm``.
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


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def of_degree(conds: OrderConditionSet, degree: int) -> tuple[ConditionEq, ...]:
    """The equations of one degree, in the set's order."""
    return tuple(eq for eq in conds.equations if eq.degree == degree)


# ---------------------------------------------------------------------------
# propagate: measuring instruments and the weak-transverse-field response
# ---------------------------------------------------------------------------

def reconstruction_error(h: HermitianPart) -> float:
    """Frobenius norm of V diag(w) V^H - H for the part's cached decomposition."""
    rebuilt = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
    return float(np.linalg.norm(rebuilt - h.matrix))


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


def euler_step(h: SeparableHamiltonian, dt: float, x: PhasePoint) -> PhasePoint:
    """Simultaneous first-order update; breaks phase-space volume."""
    return PhasePoint(x.p - dt * h.grad_v(x.q), x.q + dt * x.p)


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
    mid = HermitianPart(_SIGMA_Z).expfactor(x)
    sx_part = HermitianPart(_SIGMA_X)

    def sigx_component(gamma: float) -> float:
        cap = sx_part.expfactor(0.5 * x * gamma)
        phi = _principal_log_symmetric(cap @ mid @ cap)
        return float(np.trace(_SIGMA_X @ phi).real) / 2.0

    derivative = (sigx_component(1e-6) - sigx_component(-1e-6)) / 2e-6
    return derivative / x


# ---------------------------------------------------------------------------
# qmc: configuration enumeration
# ---------------------------------------------------------------------------

def enumeration_reference(model: IsingModel, n: int) -> ExactObservables:
    """The finite-n observables by summing all 2^(sites*n) configurations.

    An oracle independent of ``exact_reference``, capped at 24 spins.  The
    weights are e^(action - shift), with shift the running maximum of the
    action over the chunks so far; the sums are rescaled when it grows, so
    no weight overflows however cold the model.
    """
    nspin = model.sites * n
    if nspin > 24:
        raise ValueError("finite-n enumeration capped at sites*n <= 24")
    coup = couplings(model, n)
    count = 1 << nspin
    chunk = min(count, 1 << 20)
    shift = -math.inf
    z_acc = 0.0
    zz_acc = np.zeros(len(model.bonds))
    tc_acc = 0.0
    # spin (i, m) lives at bit i*n + m; chunks keep memory flat
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype="<u4")
        bits = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
        spins = (bits[:, :nspin].view(np.int8) * 2 - 1).reshape(-1, model.sites, n)
        bond, ring = _worldline_sums(model, spins)
        action = -(model.beta / n) * _ising_energy(model, bond) + coup.gamma_n * ring
        top = float(action.max())
        if top > shift:
            rescale = math.exp(shift - top)
            z_acc, zz_acc, tc_acc = z_acc * rescale, zz_acc * rescale, tc_acc * rescale
            shift = top
        weights = np.exp(action - shift)
        z_acc += float(weights.sum())
        zz_acc += (weights @ bond) / n
        tc_acc += float(weights @ ring) / nspin
    bond_zz = list(zz_acc / z_acc)
    trotter_corr = tc_acc / z_acc
    diag_energy = float(_ising_energy(model, bond_zz))
    sigma_x = coup.sigma_x(trotter_corr)
    # the dropped delta_n constant restores the true Z
    return ExactObservables(log_z=shift + math.log(z_acc) + nspin * coup.delta_n,
                            bond_zz=bond_zz, trotter_corr=trotter_corr,
                            diag_energy=diag_energy, sigma_x=sigma_x)
