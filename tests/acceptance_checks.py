"""The sampled acceptance checks, each declared once.

A sampled check compares values drawn at one seed with the paper's
claim or the exact path, so it fails by chance at some rate. ``CHECKS``
holds each one: the run it reads (driver or waiting-time draw, scenario,
trials, shots), its seed in the acceptance suite, its pass rule and its
stated false-failure rate. ``tests/test_acceptance.py`` asserts each
check by name at its suite seed, ``scripts/seed_sweep.py`` reruns every
check at many seeds to measure its miss rate, and the README's miss-rate
table lists the checks with their stated rates. A new sampled check is
one more entry here.
"""

import functools
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import chi2

from ionnet.fitting import KS_STAT_CRITICAL, fit_exponential_rate
from ionnet.montecarlo import rng_stream
from ionnet.protocols import coherence_experiment, modular_3q_experiment, remote_bell_experiment
from ionnet.records import replace
from ionnet.scenario import load_scenario, loads_scenario, success_probability

ROOT = Path(__file__).resolve().parents[1]

# Rate at which a chi-square check of a sampled table fails by chance.
FALSE_FAILURE = 1e-3

NOISELESS = """
[link_errors]
atom_photon_fidelity = 1.0
mode_overlap = 1.0
[gate]
depolarizing_p = 0.0
[phase_ledger]
delta_tau = 0.0
delta_x = 0.0
[detectors]
single_qubit_error = 0.0
two_qubit_overlap = 0.0
"""

SCENARIOS = {
    "default": loads_scenario(""),
    "noiseless": loads_scenario(NOISELESS),
    "calibrated": load_scenario(ROOT / "configs" / "calibrated_3q.cfg"),
}


def chi_square(z: np.ndarray) -> tuple[float, float]:
    """Sum of the squared z-scores of a table's points, and the chi-square
    quantile that an unbiased table exceeds with probability
    ``FALSE_FAILURE``."""
    return float(np.sum(z**2)), float(chi2.ppf(1.0 - FALSE_FAILURE, z.size))


def waiting_time_fit(scenario):
    """Rate fit of ``run.n_trials`` waiting times drawn on stream 2 of
    ``run.seed``: the repetitions up to each herald are geometric in the
    scenario's success probability."""
    budget, run = scenario.budget, scenario.run
    waits = rng_stream(run.seed, 2).geometric(success_probability(budget), size=run.n_trials)
    return fit_exponential_rate(waits / budget.rep_rate)


class Run(NamedTuple):
    """What a check draws: ``driver(scenario)``, with the scenario's
    ``[run]`` set to the seed, ``n_trials`` and ``shots`` per point (the
    scenario's own shot count when ``shots`` is None)."""

    driver: Callable
    scenario: str
    n_trials: int
    shots: int | None = None

    # Checks that read one run share its output at each seed; a caller
    # that walks many seeds clears the cache after each.
    @functools.cache
    def output(self, seed: int):
        scenario = SCENARIOS[self.scenario]
        counts = {"seed": seed, "n_trials": self.n_trials}
        if self.shots is not None:
            counts["shots_per_point"] = self.shots
        return self.driver(replace(scenario, run=replace(scenario.run, **counts)))


class Check(NamedTuple):
    run: Run
    seed: int  # the acceptance suite's seed
    rule: Callable  # run output -> (passed, the measured values and their bounds)
    rate: float  # stated false-failure rate

    def judge(self, seed: int) -> tuple[bool, str]:
        return self.rule(self.run.output(seed))


def rate_fit_rule(fit):
    return abs(fit.rate - 4.5) <= 0.15 and fit.ok, (
        f"rate fit {fit.rate:.3f}/s (4.5 +- 0.15), "
        f"KS D* = {fit.ks_stat:.3f} (<= {KS_STAT_CRITICAL} at 1%)"
    )


def sampled_tau_rule(res):
    tau = res.summary["tau_fit_s"]
    return abs(tau - 1.12) / 1.12 < 0.02, f"sampled tau {tau:.4f} s (1.12 within 2%)"


def amplitude_rule(res):
    amp = res.summary["parity_amplitude_remote1"]
    return abs(amp - 1.0) <= 0.01, f"noiseless amplitude {amp:.4f} (1.00 +- 0.01)"


def remote0_flat_rule(res):
    t = res.tables["parity_remote0"]
    stat, bound = chi_square(t["estimate"] / t["uncertainty"])
    return stat < bound, f"remote-0 flat (chi-square {stat:.1f} < {bound:.1f})"


def correlations_rule(res):
    s = res.summary
    keys = ("corr_even_given_remote1", "corr_odd_given_remote0")
    ok = all(abs(s[key] - s[f"{key}_exact"]) < 3 * s[f"{key}_err"] for key in keys)
    shown = "/".join(f"{s[key]:.3f}" for key in keys)
    return ok, f"sampled correlations {shown} (within 3 sigma of exact)"


def conditional_parities_rule(res):
    z = np.concatenate([
        (t["estimate"] - t["exact_reported"]) / t["uncertainty"]
        for t in (res.tables["parity_remote1"], res.tables["parity_remote0"])
    ])
    stat, bound = chi_square(z)
    return stat < bound, f"sampled parities chi-square {stat:.1f} (< {bound:.1f})"


def populations_rule(res):
    tables = (res.tables["populations_phid0"], res.tables["populations_phidpi"])
    dev = np.concatenate([np.abs(t["estimate"] - t["exact"]) for t in tables])
    sigma = np.concatenate([np.maximum(t["uncertainty"], 1e-3) for t in tables])
    # Elementwise, so a NaN anywhere fails the check.
    return bool(np.all(dev < 4 * sigma)), (
        f"populations within {np.max(dev / sigma):.2f} sigma of exact "
        "(< 4, sigma floored at 1e-3)"
    )


NOISELESS_3Q = Run(modular_3q_experiment, "noiseless", 1000, 10_000)

# A stated rate is a test's level (KS, chi-square) or the two-sided
# normal tail at the bound's distance in standard errors, summed over
# the values the check bounds.
CHECKS = {
    # KS at 1 %; the rate bounds lie ~7 (above) and ~14 (below) of the
    # fit's standard errors from the expected 4.55/s.
    "criterion 2: rate fit": Check(
        Run(waiting_time_fit, "default", 100_000), 20_2020, rate_fit_rule, 1e-2
    ),
    # 2 % is ~3.8 of the fit's standard errors.
    "criterion 5: sampled tau": Check(
        Run(coherence_experiment, "default", 2000, 100_000), 1, sampled_tau_rule, 1e-4
    ),
    # 0.01 is ~35 of the fit's reported standard errors (2.8e-4): an
    # upper figure far above that normal tail.
    "criterion 6: noiseless amplitude": Check(NOISELESS_3Q, 1, amplitude_rule, 1e-12),
    "criterion 6: noiseless remote-0 parity flat": Check(
        NOISELESS_3Q, 1, remote0_flat_rule, FALSE_FAILURE
    ),
    # Two values, each within 3 sigma.
    "criterion 6: calibrated correlations": Check(
        Run(modular_3q_experiment, "calibrated", 4000, 10_000), 1, correlations_rule, 5e-3
    ),
    "criterion 8: conditional parities": Check(
        Run(modular_3q_experiment, "default", 1000, 10_000), 8, conditional_parities_rule,
        FALSE_FAILURE,
    ),
    # Eight values, each within 4 sigma.
    "criterion 8: remote-bell populations": Check(
        Run(remote_bell_experiment, "default", 2000, 10_000), 8, populations_rule, 5e-4
    ),
}
