"""Experiment drivers checked against independent exact routes, and
their standard errors against their exact values over many seeds."""

import math
from pathlib import Path

import numpy as np
import pytest

from ionnet import montecarlo, protocols
from ionnet import states as st
from ionnet.detection import confusion_matrix
from ionnet.gates import spin_echo_ramsey
from ionnet.montecarlo import BranchState, exact_branches, propagate
from ionnet.protocols import (
    _echo_steps,
    coherence_experiment,
    local_gate_experiment,
    modular_3q_experiment,
    phase_scan_experiment,
    remote_bell_experiment,
)
from ionnet.records import replace
from ionnet.scenario import ScenarioError, load_scenario, loads_scenario

from oracles import binomial_bounds, random_density

ROOT = Path(__file__).resolve().parents[1]
CALIBRATED = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")
DEFAULT = loads_scenario("")


def at(scenario, **run):
    """``scenario`` with the ``[run]`` settings ``run``."""
    return replace(scenario, run=replace(scenario.run, **run))


WAIT_STEPS = (
    "[protocol]\nstep.1 = herald\nstep.2 = wait 0.5\nstep.3 = reinit q1\n"
    "step.4 = gate q1 q2\nstep.5 = analyze q1 q2\nstep.6 = measure\n"
)


def _rejections():
    """(driver, config text, n_trials, reason) of every setting a driver
    checks before it runs, with an id that names the driver and setting."""
    fixed = (remote_bell_experiment, phase_scan_experiment, coherence_experiment,
             local_gate_experiment)
    rate_fit = (remote_bell_experiment, coherence_experiment, modular_3q_experiment)
    grids = ((phase_scan_experiment, "phase_scan_points"), (coherence_experiment, "delay_points"),
             (local_gate_experiment, "phi_points"), (modular_3q_experiment, "phi_points"))
    cases = [(d, "wait-step", WAIT_STEPS, 2000, "fixed script") for d in fixed]
    cases += [(d, "50-trials", "", 50, "at least 100 trials") for d in rate_fit]
    cases += [(d, "q_e-0", "[link_budget]\nq_e = 0.0\n", 2000, "zero herald probability")
              for d in rate_fit]
    cases += [(d, f"{grid}-2", f"[run]\n{grid} = 2\n", 2000, f"run.{grid} >= 3")
              for d, grid in grids]
    cases.append((phase_scan_experiment, "no-beat", "[phase_ledger]\ndelta_omega_ab = 0.0\n",
                  2000, "do not determine a cosine"))
    cases.append((modular_3q_experiment, "three-in-A", "[protocol]\nqubits_a = q1 q2 q4\n",
                  2000, "two qubits in module A"))
    return [pytest.param(d, *rest, id=f"{d.__name__}-{label}") for d, label, *rest in cases]


@pytest.mark.parametrize("driver, text, n_trials, reason", _rejections())
def test_driver_rejects_settings_before_exact_work(monkeypatch, driver, text, n_trials, reason):
    # Called from Python, a driver rejects what the CLI rejects, with a
    # ScenarioError raised before any branch is propagated.
    def refuse(*args, **kwargs):
        raise AssertionError("exact work before the driver checked its settings")

    for module in (montecarlo, protocols):
        monkeypatch.setattr(module, "exact_branches", refuse)
        monkeypatch.setattr(module, "propagate", refuse)
    scenario = loads_scenario(text, n_trials=n_trials, shots_per_point=100)
    with pytest.raises(ScenarioError, match=reason):
        driver(scenario)


def test_coherence_echo_matches_spin_echo_ramsey():
    # The echo runs as script steps from the phi_d = 0 herald branch; its
    # reported distribution equals the closed-form echo sequence at every
    # delay, the zero delay (analysis pulse only) included.
    scenario = at(CALIBRATED, delay_points=64, seed=1, n_trials=100, shots_per_point=100)
    pair = scenario.protocol.link
    script = scenario.script(scenario.protocol.link)
    (heralded,) = (b for b in exact_branches(script, scenario) if b.phi_d == 0.0)
    m = confusion_matrix(2, scenario.detectors, script.detector_layout())
    delays = np.linspace(0.0, scenario.run.delay_max_s, 64)
    table = coherence_experiment(scenario).tables["coherence"]
    assert len(table["delay_s"]) == len(delays) and delays[0] == 0.0
    for delay, row_delay, row_exact in zip(delays.tolist(), table["delay_s"], table["exact_parity"]):
        echoed = spin_echo_ramsey(
            heralded.state, pair, delay, scenario.ledger.delta_omega_ab, 0.0,
            coherence_time_s=scenario.memory.tau_s,
        )
        want = m @ st.outcome_probabilities(echoed, pair)
        (final,) = propagate(script, scenario, _echo_steps(pair, delay), [heralded])
        got = m @ st.outcome_probabilities(final.state, pair)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert row_delay == delay
        assert row_exact == pytest.approx(want[0] + want[3] - want[1] - want[2], abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_echo_steps_match_spin_echo_ramsey_on_any_pair_state(seed):
    # On a heralded odd-parity pair the echo axis and the zero-delay echo
    # do not show; on a generic stored pair state they do.
    rng = np.random.default_rng(seed)
    pair = CALIBRATED.protocol.link
    script = CALIBRATED.script(CALIBRATED.protocol.link)
    stored = BranchState(phi_d=0.0, weight=1.0, state=st.QuantumState(pair, random_density(4, rng)))
    for delay in (0.0, 0.3, 2.9):
        echoed = spin_echo_ramsey(
            stored.state, pair, delay, CALIBRATED.ledger.delta_omega_ab, 0.0,
            coherence_time_s=CALIBRATED.memory.tau_s,
        )
        (final,) = propagate(script, CALIBRATED, _echo_steps(pair, delay), [stored])
        np.testing.assert_allclose(final.state.data, echoed.data, rtol=0, atol=1e-12)


def heralds_scenario(heralds: int, **run):
    """The default scenario with ``heralds`` herald steps, then a 0.5 s
    wait and the default's other steps, with the ``[run]`` settings ``run``."""
    steps = ("herald",) * heralds + ("wait 0.5", "reinit q1", "gate q1 q2", "analyze q1 q2", "measure")
    lines = [f"step.{i + 1} = {s}" for i, s in enumerate(steps)]
    return loads_scenario("[protocol]\n" + "\n".join(lines) + "\n", **run)


def test_second_herald_gives_the_exact_results_of_one():
    # A later herald replaces the pair, and its dephasing starts afresh.
    # The sampled values differ, because the trials are drawn over the
    # four branches of two heralds instead of two.
    one, two = (
        modular_3q_experiment(heralds_scenario(h, seed=3, n_trials=100, shots_per_point=200))
        for h in (1, 2)
    )
    exact = [k for k in one.summary if "exact" in k]
    assert len(exact) == 6
    for key in exact:
        assert two.summary[key] == pytest.approx(one.summary[key], rel=0, abs=1e-12), key
    for name, table in one.tables.items():
        for column in ("exact", "exact_reported", "exact_ideal_readout"):
            if column in table:
                np.testing.assert_allclose(
                    two.tables[name][column], table[column], rtol=0, atol=1e-12
                )


def test_second_herald_halves_the_rate():
    # Each herald step waits for its own geometric number of attempts, so
    # two heralds take twice as long. The first step's waits are those of
    # the one-herald run (same stream), so the rate ratio is m1 / (m1 + m2)
    # for the mean waits m1, m2 of 2000 trials each: 0.5 with a relative
    # standard deviation of 1 / sqrt(2 * 2000) = 1.6 %, and the 6 % bound
    # is 3.8 sigma (false failure ~1.5e-4).
    one, two = (
        modular_3q_experiment(heralds_scenario(h, seed=3, n_trials=2000, shots_per_point=200))
        .summary["rate_per_s"]
        for h in (1, 2)
    )
    assert two == pytest.approx(one / 2.0, rel=0.06)


# Sampled estimates with a reported standard error and an exact
# counterpart, each over its own seeds. The scan draws do not depend on
# the trial count, so each run takes the fewest trials a rate fit accepts.
COVERAGE_CASES = {
    "coherence-tau": (
        lambda seed: coherence_experiment(at(DEFAULT, seed=seed, n_trials=100)),
        ("tau_fit_s", "tau_fit_stderr", "tau_fit_exact_s"),
        range(201, 801),
    ),
    "local-gate-amplitude": (
        lambda seed: local_gate_experiment(at(DEFAULT, seed=seed, n_trials=100)),
        ("parity_amplitude_sampled", "parity_amplitude_sampled_stderr", "parity_amplitude_exact_reported"),
        range(1, 201),
    ),
    "modular-3q-amplitude": (
        lambda seed: modular_3q_experiment(at(CALIBRATED, seed=seed, n_trials=100)),
        ("parity_amplitude_remote1", "parity_amplitude_remote1_stderr", "parity_amplitude_remote1_exact"),
        range(1, 201),
    ),
}


@pytest.mark.parametrize("case", COVERAGE_CASES)
def test_standard_errors_cover_exact_values(case):
    # An honest standard error puts |z| = |estimate - exact| / stderr above
    # 2 for 4.55 % of seeds, as for a normal variable.
    run, (estimate, stderr, exact), seeds = COVERAGE_CASES[case]
    summaries = [run(seed).summary for seed in seeds]
    z = np.array([(s[estimate] - s[exact]) / s[stderr] for s in summaries])
    lo, hi = binomial_bounds(len(seeds), math.erfc(2.0 / math.sqrt(2.0)))
    assert lo <= np.count_nonzero(np.abs(z) > 2.0) <= hi, z
