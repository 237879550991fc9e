"""Integrated autocorrelation time by automatic windowing.

U. Wolff, "Monte Carlo errors with less errors", Comput. Phys. Commun. 156,
143 (2004): the summation window W is the first one where the estimated
truncation bias exp(-W/tau) falls below the statistical error
tau/sqrt(W N); the error of tau is the Madras-Sokal estimate
tau * sqrt(2 (2W + 1) / N).
"""

from __future__ import annotations

import math

import numpy as np

# Wolff's S: the window is set where exp(-W / tau) ~ S-scaled noise; 1.5 is
# the value the paper recommends for most observables.
WINDOW_FACTOR = 1.5


def tau_int(series) -> tuple[float, float, int]:
    """(tau_int, its Madras-Sokal error, window W) of a 1-D series.

    Convention: tau_int = 1/2 + sum_{t>=1} rho(t), so an uncorrelated series
    gives 1/2 and the variance of the mean is 2 tau_int var / N.  A constant
    series has no fluctuations to correlate and returns (0.5, 0.0, 0).
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    d = x - x.mean()
    spec = np.fft.rfft(d, 2 * n)
    acf = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n] / n
    if acf[0] <= 0.0:
        return 0.5, 0.0, 0
    rho = acf / acf[0]
    tau = 0.5
    window = n - 1
    for w in range(1, n):
        tau += rho[w]
        if tau <= 0.5:
            # anticorrelated or already decorrelated: stop at once
            window = w
            break
        tau_w = WINDOW_FACTOR / math.log((2 * tau + 1) / (2 * tau - 1))
        if math.exp(-w / tau_w) - tau_w / math.sqrt(w * n) < 0.0:
            window = w
            break
    # bias correction of the variance estimate from the fitted mean (Wolff eq. 49)
    tau *= 1.0 + (2 * window + 1) / n
    err = tau * math.sqrt(2.0 * (2 * window + 1) / n)
    return float(tau), float(err), window


def ar1_series(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """x_t = rho x_{t-1} + noise, started in equilibrium."""
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def self_test(seed: int, rho: float = 0.8, n: int = 1 << 17) -> tuple[bool, str]:
    """Estimate tau on an AR(1) series, whose exact tau is (1+rho)/(2(1-rho)).

    Passes when the estimate is within 4 Madras-Sokal errors of the truth.
    """
    exact = (1 + rho) / (2 * (1 - rho))
    tau, err, window = tau_int(ar1_series(rho, n, np.random.default_rng(seed)))
    ok = err > 0 and abs(tau - exact) <= 4 * err
    return ok, f"AR(1) rho={rho}: tau_int={tau:.4f} +- {err:.4f} (W={window}), exact {exact:.4f}"
