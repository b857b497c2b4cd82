"""The numpy-only fits: the rate fit's goodness-of-fit statistic against
its null and an alternative, the decay fit against scipy's curve_fit as
the oracle, and the decay fit's stopping rules; and the Kolmogorov
survival function against scipy's kstwo."""

import math
import warnings

import numpy as np
import pytest

from ionnet import fitting
from ionnet.fitting import (
    KS_STAT_CRITICAL,
    MAX_TAU_REL_STDERR,
    fit_cosine,
    fit_exponential_decay,
    fit_exponential_rate,
)
from kolmogorov import ks_sf
from oracles import binomial_bounds


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@pytest.fixture(scope="module")
def scipy_optimize():
    return pytest.importorskip("scipy.optimize")


def assert_pvalue_matches(got, want):
    assert abs(got - want) <= 1e-14 or abs(got - want) <= 1e-8 * abs(want), (got, want)


# D for each method branch of ks_sf, as a function of n. Each applies
# where its condition holds; the grid below keeps the ones that do. At
# n = 100001 the "durbin" D falls to Pelz-Good, which replaces Durbin's
# matrix above n = 1e5.
KS_BRANCHES = {
    "zero": (lambda n: 0.0, lambda n: True),
    "one": (lambda n: 1.0, lambda n: True),
    "below-support": (lambda n: 0.4 / n, lambda n: True),
    "ruben-gambino-low": (lambda n: 0.8 / n, lambda n: True),
    "ruben-gambino-low-edge": (lambda n: 1.0 / n, lambda n: True),
    "ruben-gambino-high": (lambda n: 1.0 - 0.5 / n, lambda n: True),
    "smirnov-exact": (lambda n: 0.6, lambda n: True),
    "durbin-small-n": (lambda n: math.sqrt(0.5 / n), lambda n: n <= 140),
    "pomeranz-band": (lambda n: math.sqrt(2.0 / n), lambda n: n <= 140),
    "pomeranz-band-edge": (lambda n: math.sqrt(3.9 / n), lambda n: n <= 140),
    "smirnov-small-n": (lambda n: math.sqrt(6.0 / n), lambda n: n <= 140),
    "durbin": (lambda n: (1.0 / n) ** (2.0 / 3.0), lambda n: n > 140),
    "pelz-good": (lambda n: math.sqrt(1.5 / n), lambda n: n > 140),
    "smirnov": (lambda n: math.sqrt(10.0 / n), lambda n: n > 140),
    "zero-tail": (lambda n: math.sqrt(400.0 / n), lambda n: n > 140 and 400.0 / n < 0.25),
}
KS_GRID = [
    pytest.param(n, d_of(n), id=f"{name}-{n}")
    for n in (100, 140, 141, 1000, 2000, 10000, 100000, 100001)
    for name, (d_of, applies) in KS_BRANCHES.items()
    if applies(n)
]


class TestKolmogorovSurvival:
    @pytest.mark.parametrize("n, d", KS_GRID)
    def test_matches_scipy_kstwo(self, scipy_stats, n, d):
        assert_pvalue_matches(ks_sf(n, d), float(scipy_stats.kstwo.sf(d, n)))


# 5 % point of Stephens' modified statistic for an exponential with
# estimated scale (Stephens, JASA 69 (1974) 730, Table 1A).
KS_STAT_CRITICAL_5PCT = 1.094
NULL_SAMPLES = 4000


def stephens_stat(samples) -> np.ndarray:
    """D* of each row against the exponential fitted to that row: the
    statistic of ``fit_exponential_rate``, vectorised over rows."""
    t = np.sort(samples, axis=1)
    n = t.shape[1]
    cdf = -np.expm1(-t / t.mean(axis=1, keepdims=True))
    d = np.maximum(
        (np.arange(1.0, n + 1) / n - cdf).max(axis=1),
        (cdf - np.arange(0.0, n) / n).max(axis=1),
    )
    return (d - 0.2 / n) * (math.sqrt(n) + 0.26 + 0.5 / math.sqrt(n))


class TestRateFit:
    @pytest.mark.parametrize("n", [100, 2000])
    def test_vectorised_statistic_matches_fit(self, n):
        samples = np.random.default_rng(n).exponential(2.5, size=(20, n))
        fits = [fit_exponential_rate(row) for row in samples]
        np.testing.assert_allclose(stephens_stat(samples), [f.ks_stat for f in fits], rtol=1e-12)
        assert [f.ok for f in fits] == [f.ks_stat <= KS_STAT_CRITICAL for f in fits]

    @pytest.mark.parametrize("n", [100, 300, 2000])
    def test_null_rejection_at_nominal_level(self, n):
        # The points hold for every n, and D* does not depend on the scale.
        rng = np.random.default_rng(1000 + n)
        stats = np.concatenate(
            [stephens_stat(rng.exponential(1.0, size=(500, n))) for _ in range(NULL_SAMPLES // 500)]
        )
        for level, critical in ((0.01, KS_STAT_CRITICAL), (0.05, KS_STAT_CRITICAL_5PCT)):
            lo, hi = binomial_bounds(NULL_SAMPLES, level)
            assert lo <= np.count_nonzero(stats > critical) <= hi, (level, n)

    def test_power_against_weibull(self):
        samples = np.random.default_rng(7).weibull(1.3, size=(1000, 300))
        assert np.mean(stephens_stat(samples) > KS_STAT_CRITICAL) >= 0.9

    def test_non_exponential_sample_rejected(self):
        times = np.random.default_rng(3).uniform(0.5, 1.5, size=400)
        fit = fit_exponential_rate(times)
        assert fit.ks_stat > KS_STAT_CRITICAL
        assert not fit.ok


def decay_data(seed: int, weighted: bool):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    tau, amp = rng.uniform(0.2, 5.0), rng.uniform(0.2, 2.0)
    t = np.linspace(0.0, tau * rng.uniform(0.5, 4.0), n)
    noise = amp * rng.uniform(1e-3, 0.05)
    y = amp * np.exp(-t / tau) + rng.normal(0.0, noise, n)
    sigma = noise * rng.uniform(0.5, 1.5, n) if weighted else None
    return t, y, sigma


class TestDecayFit:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "sigma"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_curve_fit(self, scipy_optimize, seed, weighted):
        t, y, sigma = decay_data(seed, weighted)
        # curve_fit at its default tolerances stops up to a few 1e-6 short
        # of the least-squares minimum, so the oracle runs to convergence.
        popt, pcov = scipy_optimize.curve_fit(
            lambda x, amp, tau: amp * np.exp(-x / tau),
            t,
            y,
            p0=[max(y.max(), 1e-6), t.max() - t.min()],
            sigma=sigma,
            absolute_sigma=sigma is not None,
            ftol=1e-15,
            xtol=1e-15,
            maxfev=10000,
        )
        perr = np.sqrt(np.diag(pcov))
        fit = fit_exponential_decay(t, y, sigma=sigma)
        assert fit.tau == pytest.approx(popt[1], rel=1e-6)
        assert fit.amplitude == pytest.approx(popt[0], rel=1e-6)
        assert fit.tau_stderr == pytest.approx(perr[1], rel=1e-5)
        assert fit.amplitude_stderr == pytest.approx(perr[0], rel=1e-5)

    def test_exact_decay_recovered(self):
        t = np.linspace(0.0, 3.0, 40)
        fit = fit_exponential_decay(t, 0.8 * np.exp(-t / 1.12))
        assert fit.tau == pytest.approx(1.12, rel=1e-12)
        assert fit.amplitude == pytest.approx(0.8, rel=1e-12)

    def test_undetermined_tau_stays_positive_and_says_so(self):
        # Rising data: the least-squares tau runs off to infinity.
        t = np.linspace(0.0, 1.0, 20)
        y = 0.5 + 0.01 * t + 0.002 * np.sin(9.0 * t)
        fit = fit_exponential_decay(t, y)
        assert math.isfinite(fit.tau) and fit.tau > 0
        assert fit.tau_stderr / fit.tau > 1.0

    def test_delay_grid_to_the_float_limit_leaves_tau_undetermined(self):
        # A grid up to 1e300 overflows max(t) / eps and tau**2 as floats;
        # one up to 1e-300 underflows tau**2 to 0. Weighted or not, the
        # fit reports an infinite standard error (not inf * 0 = nan).
        for t_max in (1e300, 1e-300):
            t = np.linspace(0.0, t_max, 16)
            for sigma in (np.full(16, 0.01), None):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    fit = fit_exponential_decay(t, 0.66 * np.exp(-t / 1.12), sigma=sigma)
                assert fit.tau > 0 and fit.tau_stderr == math.inf, (t_max, sigma)
                assert fit.tau_stderr / fit.tau > MAX_TAU_REL_STDERR

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_EVALS", 2)
        t, y, _ = decay_data(0, False)
        with pytest.raises(RuntimeError, match="did not converge"):
            fit_exponential_decay(t, y)

    def test_non_finite_input_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="finite"):
            fit_exponential_decay(t, [1.0, 0.5, np.nan, 0.2, 0.1])


class TestCosineFit:
    @pytest.mark.parametrize(
        "phi, harmonic",
        [
            (np.zeros(16), 1),
            (2.0 * np.pi * np.arange(3), 1),
            (np.pi * np.arange(5), 2),
            (np.array([0.0, np.pi, 0.0, np.pi]), 1),
        ],
        ids=["one-phase", "whole-periods", "whole-periods-h2", "two-phases"],
    )
    def test_phases_that_do_not_determine_a_cosine_rejected(self, phi, harmonic):
        # Fewer than three distinct angles modulo 2 pi leave the basis
        # cos, sin, 1 singular; the fit says so instead of inverting it.
        y = np.linspace(0.1, 0.2, phi.size)
        for sigma in (None, np.full(phi.size, 0.05)):
            with pytest.raises(ValueError, match="do not determine a cosine"):
                fit_cosine(phi, y, harmonic=harmonic, sigma=sigma)

    def test_three_distinct_phases_recover_the_cosine(self):
        phi = np.array([0.0, 2.0, 4.0])
        fit = fit_cosine(phi, 0.7 * np.cos(phi - 0.4) + 0.1, harmonic=1)
        assert (fit.amplitude, fit.phase, fit.offset) == pytest.approx((0.7, 0.4, 0.1), abs=1e-12)
