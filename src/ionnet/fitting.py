"""Estimators shared by the protocol engine and the CLI reports.

numpy only: the rate fit's goodness-of-fit check is Stephens' modified
Kolmogorov-Smirnov statistic for an exponential of estimated scale, and
the decay fit is a Levenberg-Marquardt fit with its analytic Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from .records import Record

__all__ = [
    "RateFit",
    "DecayFit",
    "CosineFit",
    "fit_exponential_rate",
    "fit_exponential_decay",
    "fit_cosine",
]


class RateFit(Record):
    rate: float
    stderr: float
    ks_stat: float
    ok: bool


# Fewest waiting times the rate fit accepts, and fewest points the
# decay and cosine fits accept.
MIN_RATE_SAMPLES = 100
MIN_FIT_POINTS = 3

# 1 % point of Stephens' modified KS statistic D* for an exponential
# with estimated scale (Stephens, JASA 69 (1974) 730, Table 1A); it does
# not depend on n. The rate fit's ``ok`` is False above it.
KS_STAT_CRITICAL = 1.308

# Largest relative standard error of a decay-fit tau that still counts
# as determined. A well-sampled decay fits to a few percent (0.016 at
# the default scenario); a tau far above the delay grid gives ~1e2.
MAX_TAU_REL_STDERR = 0.5


def fit_exponential_rate(times) -> RateFit:
    """Maximum-likelihood exponential rate from waiting times.

    The ML estimate for rate R is 1/mean with standard error R/sqrt(n).
    The two-sided KS distance D to the fitted exponential, modified to
    D* = (D - 0.2/n)(sqrt(n) + 0.26 + 0.5/sqrt(n)) because the scale is
    fitted to the same times, flags non-exponential input: ``ok`` is
    False when D* exceeds its 1 % point ``KS_STAT_CRITICAL``.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < MIN_RATE_SAMPLES:
        raise ValueError(f"need at least {MIN_RATE_SAMPLES} waiting times, got {t.size}")
    if np.any(t <= 0):
        raise ValueError("waiting times must be positive")
    n = t.size
    rate = 1.0 / t.mean()
    stderr = rate / math.sqrt(n)
    cdf = -np.expm1(-(np.sort(t) / (1.0 / rate)))  # fitted CDF at the ordered times
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = float(max(d_plus, d_minus))
    stat = (d - 0.2 / n) * (math.sqrt(n) + 0.26 + 0.5 / math.sqrt(n))
    return RateFit(rate=float(rate), stderr=float(stderr), ks_stat=stat, ok=stat <= KS_STAT_CRITICAL)


class DecayFit(Record):
    tau: float
    tau_stderr: float
    amplitude: float
    amplitude_stderr: float


# Levenberg-Marquardt stopping rules: the fit ends at a step below
# _XTOL of each parameter or one that changes the SSR by at most _FTOL
# of it (accepted if it lowers it); _MAX_EVALS model evaluations
# without either fail it.
_XTOL = 1e-12
_FTOL = 1e-15
_MAX_EVALS = 10000


def fit_exponential_decay(t, y, sigma=None) -> DecayFit:
    """Least-squares fit of y = A exp(-t / tau).

    Levenberg-Marquardt with the analytic Jacobian and Marquardt's
    diagonal damping, from A = max(y), tau = span of t. It steps in
    log(tau), so tau stays positive and no step overshoots to tau ~ 0.
    With ``sigma`` the residuals are weighted by 1/sigma and the
    covariance inv(J^T J) of (A, tau) is absolute; without it the
    covariance is scaled by SSR / (n - 2); a non-finite entry is an
    infinite error. Raises RuntimeError when the fit does not converge.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} (t, y) samples")
    weight = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y)) and np.all(np.isfinite(weight))):
        raise ValueError("decay fit inputs must be finite")
    weighted_y = weight * y

    def evaluate(amp, log_tau):
        """Weighted exp(-t / tau), and the residuals, at (amp, log tau)."""
        e = weight * np.exp(-t * np.exp(-log_tau))
        return e, amp * e - weighted_y

    # Beyond this tau, exp(-t / tau) is 1 at every t in double precision;
    # a difference of logs stays finite up to the largest float t.
    log_tau_max = math.log(float(np.abs(t).max())) - math.log(np.finfo(float).eps)
    span = t.max() - t.min()
    amp, log_tau = max(y.max(), 1e-6), math.log(span if span > 0 else 1.0)
    damping = 1e-3
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        e, r = evaluate(amp, log_tau)
        ssr = float(r @ r)
        stale = True
        for _ in range(_MAX_EVALS):
            if stale:
                jac = np.column_stack([e, amp * e * t * np.exp(-log_tau)])
                (a00, a01), (_, a11) = (jac.T @ jac).tolist()
                g0, g1 = (jac.T @ r).tolist()
                stale = False
            b00, b11 = a00 * (1.0 + damping), a11 * (1.0 + damping)
            det = b00 * b11 - a01 * a01
            if not det > 0.0:  # tau no longer moves the model
                break
            d_amp = (a01 * g1 - b11 * g0) / det
            d_log_tau = (a01 * g0 - b00 * g1) / det
            if abs(d_amp) <= _XTOL * abs(amp) and abs(d_log_tau) <= _XTOL:
                break
            if log_tau + d_log_tau > log_tau_max:  # tau runs off to infinity
                break
            e_trial, r_trial = evaluate(amp + d_amp, log_tau + d_log_tau)
            ssr_trial = float(r_trial @ r_trial)
            converged = abs(ssr - ssr_trial) <= _FTOL * ssr
            if ssr_trial < ssr:
                amp, log_tau = amp + d_amp, log_tau + d_log_tau
                e, r, ssr, stale = e_trial, r_trial, ssr_trial, True
                damping = max(damping / 10.0, 1e-15)
            else:
                damping *= 10.0
            if converged:
                break
        else:
            raise RuntimeError(f"decay fit did not converge in {_MAX_EVALS} evaluations")
        tau = np.exp(log_tau)  # a numpy float: tau**2 may overflow or underflow
        jac = np.column_stack([e, amp * e * t / tau**2])  # in (A, tau)
        try:
            r_inv = np.linalg.inv(np.linalg.qr(jac, mode="r"))
            cov = r_inv @ r_inv.T
        except np.linalg.LinAlgError:
            cov = np.full((2, 2), np.inf)
        if sigma is None:
            cov = cov * (ssr / (t.size - 2))
        cov[~np.isfinite(cov)] = np.inf
        perr = np.sqrt(np.diag(cov))
    return DecayFit(
        tau=float(tau),
        tau_stderr=float(perr[1]),
        amplitude=float(amp),
        amplitude_stderr=float(perr[0]),
    )


class CosineFit(Record):
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
    covariance. Raises ValueError when the phases do not determine the
    three coefficients: the least-squares basis has rank below 3 when
    harmonic * phi takes fewer than three distinct angles modulo 2 pi.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.size != y.size or phi.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} (phi, y) samples")
    basis = np.column_stack(
        [np.cos(harmonic * phi), np.sin(harmonic * phi), np.ones_like(phi)]
    )
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    basis_w, y_w = basis * w[:, None], y * w
    coef, _, rank, _ = np.linalg.lstsq(basis_w, y_w, rcond=None)
    if rank < 3:
        raise ValueError(f"the {phi.size} phases do not determine a cosine (rank {rank} of 3)")
    a, b, c = coef
    resid = y_w - basis_w @ coef
    scale = 1.0 if sigma is not None else float(resid @ resid) / max(phi.size - 3, 1)
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
