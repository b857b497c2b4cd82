"""Estimators shared by the protocol engine and the CLI reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats

__all__ = [
    "RateFit",
    "DecayFit",
    "CosineFit",
    "fit_exponential_rate",
    "fit_exponential_decay",
    "fit_cosine",
]


@dataclass(frozen=True)
class RateFit:
    rate: float
    stderr: float
    ks_pvalue: float
    n: int
    ok: bool


# Fewest waiting times the rate fit accepts, and fewest points the
# decay and cosine fits accept.
MIN_RATE_SAMPLES = 100
MIN_FIT_POINTS = 3


def fit_exponential_rate(times, min_n: int = MIN_RATE_SAMPLES, ks_alpha: float = 0.01) -> RateFit:
    """Maximum-likelihood exponential rate from waiting times.

    The ML estimate for rate R is 1/mean with standard error R/sqrt(n).
    A Kolmogorov-Smirnov test against the fitted exponential flags
    degenerate input (``ok`` is False when the sample is incompatible
    with an exponential at level ``ks_alpha``).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < min_n:
        raise ValueError(f"need at least {min_n} waiting times, got {t.size}")
    if np.any(t <= 0):
        raise ValueError("waiting times must be positive")
    rate = 1.0 / t.mean()
    stderr = rate / math.sqrt(t.size)
    ks = stats.kstest(t, "expon", args=(0.0, 1.0 / rate))
    return RateFit(rate=float(rate), stderr=float(stderr), ks_pvalue=float(ks.pvalue), n=t.size, ok=bool(ks.pvalue >= ks_alpha))


@dataclass(frozen=True)
class DecayFit:
    tau: float
    tau_stderr: float
    amplitude: float
    amplitude_stderr: float


def fit_exponential_decay(t, y, sigma=None) -> DecayFit:
    """Least-squares fit of y = A exp(-t / tau)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} (t, y) samples")

    def model(x, amp, tau):
        return amp * np.exp(-x / tau)

    span = t.max() - t.min()
    guess_tau = span if span > 0 else 1.0
    popt, pcov = optimize.curve_fit(
        model,
        t,
        y,
        p0=[max(y.max(), 1e-6), guess_tau],
        sigma=sigma,
        absolute_sigma=sigma is not None,
        maxfev=10000,
    )
    perr = np.sqrt(np.diag(pcov))
    return DecayFit(
        tau=float(popt[1]),
        tau_stderr=float(perr[1]),
        amplitude=float(popt[0]),
        amplitude_stderr=float(perr[0]),
    )


@dataclass(frozen=True)
class CosineFit:
    amplitude: float
    phase: float
    offset: float
    amplitude_stderr: float
    phase_stderr: float
    offset_stderr: float


def fit_cosine(phi, y, harmonic: int = 2, sigma=None) -> CosineFit:
    """Weighted linear fit of y = A cos(harmonic * phi - phase) + offset.

    Linear in (a, b, c) with y = a cos + b sin + c, then A = hypot(a, b)
    and phase = atan2(b, a). Errors propagate through the linear
    covariance.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.size != y.size or phi.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} (phi, y) samples")
    basis = np.column_stack(
        [np.cos(harmonic * phi), np.sin(harmonic * phi), np.ones_like(phi)]
    )
    if sigma is not None:
        w = 1.0 / np.asarray(sigma, dtype=float)
        basis_w = basis * w[:, None]
        y_w = y * w
    else:
        basis_w = basis
        y_w = y
    coef, *_ = np.linalg.lstsq(basis_w, y_w, rcond=None)
    a, b, c = coef
    resid = y_w - basis_w @ coef
    dof = max(phi.size - 3, 1)
    if sigma is not None:
        scale = 1.0
    else:
        scale = float(resid @ resid) / dof
    cov = scale * np.linalg.inv(basis_w.T @ basis_w)
    amp = math.hypot(a, b)
    phase = math.atan2(b, a)
    if amp > 1e-12:
        # Jacobian of (amp, phase) wrt (a, b)
        j_amp = np.array([a / amp, b / amp])
        j_phase = np.array([-b / amp**2, a / amp**2])
        var_amp = j_amp @ cov[:2, :2] @ j_amp
        var_phase = j_phase @ cov[:2, :2] @ j_phase
    else:
        var_amp = cov[0, 0] + cov[1, 1]
        var_phase = math.pi**2
    return CosineFit(
        amplitude=float(amp),
        phase=float(phase),
        offset=float(c),
        amplitude_stderr=float(math.sqrt(max(var_amp, 0.0))),
        phase_stderr=float(math.sqrt(max(var_phase, 0.0))),
        offset_stderr=float(math.sqrt(max(cov[2, 2], 0.0))),
    )
