#!/usr/bin/env python3
"""Miss rate of each sampled acceptance check over many seeds.

Five checks in tests/test_acceptance.py compare sampled values with exact
ones at one fixed seed, so each passes or fails by the draw of that seed.
This script reruns each check at its own settings (scenario, trials,
shots, bound) at every seed of a range and prints how many seeds miss it.

Three checks draw their values from scan shots:

- criterion 5, sampled tau within 2 % at 10^5 shots per point;
- criterion 6, noiseless remote-0 parity flat: one chi-square of
  sum (parity / uncertainty)^2 over the points at false-failure rate 1e-3;
- criterion 8, conditional parities agree with the exact ones: one
  chi-square of sum ((estimate - exact) / uncertainty)^2 over the points
  of both tables at 1e-3.

Two checks draw their values from protocol trials, the one multinomial
draw over the trials' joint distribution: criterion 6, calibrated
correlations within 3 sigma, and criterion 8, remote-bell populations
within 4 sigma.

Run:  python3 scripts/seed_sweep.py [--seeds 200] [--first 1]
(scipy provides the chi-square quantile.) The noiseless scenario, the
false-failure rate and the chi-square rule are the acceptance suite's
own, from tests/acceptance_checks.py.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from acceptance_checks import FALSE_FAILURE, NOISELESS, chi_square  # noqa: E402
from ionnet.protocols import (  # noqa: E402
    coherence_experiment,
    modular_3q_experiment,
    remote_bell_experiment,
)
from ionnet.scenario import load_scenario, loads_scenario  # noqa: E402

SCENARIOS = {
    "default": lambda: loads_scenario(""),
    "noiseless": lambda: loads_scenario(NOISELESS),
    "calibrated": lambda: load_scenario(ROOT / "configs" / "calibrated_3q.cfg"),
}

# Experiment runs the checks read: driver, scenario, trials, shots.
RUNS = {
    "coherence-1e5": (coherence_experiment, "default", 2000, 100_000),
    "3q-noiseless": (modular_3q_experiment, "noiseless", 1000, 10_000),
    "3q-calibrated": (modular_3q_experiment, "calibrated", 4000, 10_000),
    "3q-default": (modular_3q_experiment, "default", 1000, 10_000),
    "remote-bell": (remote_bell_experiment, "default", 2000, 10_000),
}


def tau_within_2_percent(res) -> bool:
    return abs(res.summary["tau_fit_s"] - 1.12) / 1.12 < 0.02


def chi_square_ok(z: np.ndarray) -> bool:
    """Sum of z^2 below the chi-square quantile of ``FALSE_FAILURE``."""
    stat, bound = chi_square(z)
    return stat < bound


def remote0_z(res) -> np.ndarray:
    t = res.tables["parity_remote0"]
    return t["estimate"] / t["uncertainty"]


def conditional_parity_z(res) -> np.ndarray:
    return np.concatenate([
        (t["estimate"] - t["exact_reported"]) / t["uncertainty"]
        for t in (res.tables["parity_remote1"], res.tables["parity_remote0"])
    ])


def correlations_within_3_sigma(res) -> bool:
    s = res.summary
    return all(
        abs(s[key] - s[f"{key}_exact"]) < 3 * s[f"{key}_err"]
        for key in ("corr_even_given_remote1", "corr_odd_given_remote0")
    )


def populations_within_4_sigma(res) -> bool:
    return all(
        np.all(np.abs(t["estimate"] - t["exact"]) < 4 * np.maximum(t["uncertainty"], 1e-3))
        for t in (res.tables["populations_phid0"], res.tables["populations_phidpi"])
    )


# (check, run it reads, pass predicate on that run's output)
CHECKS = (
    ("criterion 5: sampled tau within 2 % at 10^5 shots",
     "coherence-1e5", tau_within_2_percent),
    (f"criterion 6: noiseless remote-0 parity, chi-square at {FALSE_FAILURE:g}",
     "3q-noiseless", lambda res: chi_square_ok(remote0_z(res))),
    ("criterion 6: calibrated correlations within 3 sigma",
     "3q-calibrated", correlations_within_3_sigma),
    (f"criterion 8: conditional parities, chi-square at {FALSE_FAILURE:g}",
     "3q-default", lambda res: chi_square_ok(conditional_parity_z(res))),
    ("criterion 8: remote-bell populations within 4 sigma",
     "remote-bell", populations_within_4_sigma),
)


def sweep(seeds) -> dict[str, list[int]]:
    """Seeds that miss each check, in ``CHECKS`` order."""
    scenarios = {name: make() for name, make in SCENARIOS.items()}
    misses = {check: [] for check, _, _ in CHECKS}
    for seed in seeds:
        outputs = {}
        for check, run, passes in CHECKS:
            if run not in outputs:
                driver, scenario, n_trials, shots = RUNS[run]
                outputs[run] = driver(scenarios[scenario], seed, n_trials, shots)
            if not passes(outputs[run]):
                misses[check].append(seed)
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds (default 200)")
    parser.add_argument("--first", type=int, default=1, help="first seed (default 1)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = range(args.first, args.first + args.seeds)
    print(f"seeds {seeds.start}-{seeds.stop - 1}:")
    for check, missed in sweep(seeds).items():
        rate = 100.0 * len(missed) / len(seeds)
        shown = ", ".join(map(str, missed[:12])) + (", ..." if len(missed) > 12 else "")
        print(f"{check}: {len(missed)} of {len(seeds)} missed ({rate:.1f} %)"
              + (f" [{shown}]" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
