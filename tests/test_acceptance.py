"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria are asserted at their stated tolerances against the exact
(density-matrix) statistics path where the number is a model property.
Where sampling is part of the criterion, each sampled check has a stated
rate of failing by chance: the scan-drawn parity tables are one
chi-square over their points at ``acceptance_checks.FALSE_FAILURE``, and
``scripts/seed_sweep.py`` measures every sampled check's miss rate over
many seeds.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ionnet import photonics as ph
from ionnet import states as st
from ionnet.cli import main as cli_main
from ionnet.fitting import KS_STAT_CRITICAL, fit_exponential_rate
from ionnet.gates import analysis_rotation, ms_gate, spin_echo_ramsey
from ionnet.montecarlo import coherent_entanglement_distance, rng_stream
from ionnet.protocols import (
    coherence_experiment,
    modular_3q_experiment,
    remote_bell_experiment,
)
from ionnet.scenario import (
    GateSettings,
    LinkBudget,
    LinkErrorModel,
    expected_rate,
    load_scenario,
    loads_scenario,
    success_probability,
)

from acceptance_checks import NOISELESS, chi_square
from oracles import bsm_outcome_distribution, fock_bsm_distribution, parity_expectation

ROOT = Path(__file__).resolve().parents[1]


def report(n: int, text: str):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_1_budget_reproduction():
    budget = LinkBudget()
    p = success_probability(budget)
    assert f"{p:.2g}" == "9.7e-06"
    rate = expected_rate(budget)
    assert abs(rate - 4.5) / 4.5 < 0.05
    report(1, f"budget P = {p:.3g} (9.7e-06 at 2 s.f.), rate = {rate:.3f}/s (4.5 within 5%)")


def test_criterion_2_monte_carlo_rate():
    budget = LinkBudget()
    p = success_probability(budget)
    rng = rng_stream(20_2020, 2)
    waits = rng.geometric(p, size=100_000) / budget.rep_rate
    fit = fit_exponential_rate(waits)
    assert abs(fit.rate - 4.5) <= 0.15, fit
    assert fit.ok, fit
    report(
        2, f"rate fit {fit.rate:.3f}/s in 4.5 +- 0.15, KS D* = {fit.ks_stat:.3f} <= {KS_STAT_CRITICAL} (1%)"
    )


def test_criterion_3_remote_fidelity_composition():
    err = LinkErrorModel()  # 0.92 per module, calibrated overlap
    a = ph.module_emission(err, "qa", "pa")
    b = ph.module_emission(err, "qb", "pb")
    fids = []
    for phi_d, _, state in ph.conditional_herald_states(a, b, err):
        target = ph.heralded_bell_ket(("qa", "qb"), phi_d)
        fids.append(st.fidelity(state, target))
    mean_f = float(np.mean(fids))
    assert abs(mean_f - 0.79) <= 0.02
    assert max(fids) - min(fids) < 1e-12  # both detector-phase branches agree
    report(3, f"heralded fidelity {mean_f:.4f} in 0.79 +- 0.02")


def test_criterion_4_local_gate():
    # noiseless parity curve on a 16 x 16 grid to 1e-10
    grid = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    worst = 0.0
    for phi_a in grid:
        out0 = ms_gate(st.basis_state([0, 0], ["q1", "q2"]), ["q1", "q2"], float(phi_a))
        for phi in grid:
            analyzed = analysis_rotation(out0, ["q1", "q2"], math.pi / 2, float(phi))
            par = parity_expectation(analyzed, ["q1", "q2"])
            worst = max(worst, abs(par - math.cos(phi_a - 2 * phi)))
    assert worst < 1e-10
    # calibrated noise: fidelity and even-parity population
    noisy = ms_gate(st.basis_state([0, 0], ["q1", "q2"]), ["q1", "q2"], 0.0, GateSettings().depolarizing_p)
    target = st.pure_state(np.array([1, 0, 0, -1j]) / math.sqrt(2), ["q1", "q2"])
    f = st.fidelity(noisy, target)
    probs = st.outcome_probabilities(noisy, ["q1", "q2"])
    even = probs[0] + probs[3]
    assert abs(f - 0.85) <= 0.01
    assert even >= 0.90 - 1e-12
    report(4, f"parity grid max dev {worst:.1e} < 1e-10, F = {f:.3f}, even pop = {even:.3f}")


def test_criterion_5_coherence():
    # echo cancellation without decoherence, to 1e-10
    amps = np.zeros(4, dtype=complex)
    amps[1] = amps[2] = 1.0 / math.sqrt(2)
    pair = st.pure_state(amps, ["a", "b"])
    base = spin_echo_ramsey(pair, ["a", "b"], 0.0, 2 * math.pi * 2.5e3, 0.2)
    p0 = parity_expectation(base, ["a", "b"])
    for delay in (0.05, 0.8, 1.7, 3.0):
        out = spin_echo_ramsey(pair, ["a", "b"], delay, 2 * math.pi * 2.5e3, 0.2)
        assert abs(parity_expectation(out, ["a", "b"]) - p0) < 1e-10
    # tau recovery within 2 percent over a 0..3 s scan; at 10^5 shots per
    # point the bound is ~4 of the sampled tau's standard errors
    scenario = loads_scenario("")
    res = coherence_experiment(scenario, seed=1, n_trials=2000, shots=100_000)
    tau_exact = res.summary["tau_fit_exact_s"]
    tau_sampled = res.summary["tau_fit_s"]
    assert abs(tau_exact - 1.12) / 1.12 < 0.02
    assert abs(tau_sampled - 1.12) / 1.12 < 0.02
    report(
        5,
        f"echo cancellation < 1e-10, tau exact {tau_exact:.4f}, sampled {tau_sampled:.4f}"
        " (within 2%)",
    )


def test_criterion_6_three_qubit_protocol():
    # noiseless: conditional parity amplitude and flat remote-0 branch
    noiseless = loads_scenario(NOISELESS)
    res = modular_3q_experiment(noiseless, n_trials=1000, seed=1, shots=10_000)
    amp = res.summary["parity_amplitude_remote1"]
    assert abs(amp - 1.0) <= 0.01
    t0 = res.tables["parity_remote0"]
    flat, flat_bound = chi_square(t0["estimate"] / t0["uncertainty"])
    assert flat < flat_bound, f"remote-0 parity not flat: chi-square {flat} >= {flat_bound}"
    # calibrated noise: conditional correlations and even-branch fidelity
    calibrated = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")
    cal = modular_3q_experiment(calibrated, n_trials=4000, seed=1, shots=10_000)
    c_even = cal.summary["corr_even_given_remote1_exact"]
    c_odd = cal.summary["corr_odd_given_remote0_exact"]
    f_cond = cal.summary["conditional_fidelity_exact"]
    assert abs(c_even - 0.71) <= 0.05
    assert abs(c_odd - 0.75) <= 0.05
    assert abs(f_cond - 0.63) <= 0.05
    # sampled estimates agree with the exact path
    assert abs(cal.summary["corr_even_given_remote1"] - c_even) < 3 * cal.summary[
        "corr_even_given_remote1_err"
    ]
    assert abs(cal.summary["corr_odd_given_remote0"] - c_odd) < 3 * cal.summary[
        "corr_odd_given_remote0_err"
    ]
    report(
        6,
        f"noiseless amplitude {amp:.4f} (1.00 +- 0.01), remote-0 flat "
        f"(chi-square {flat:.1f} < {flat_bound:.1f}); "
        f"calibrated correlations {c_even:.3f}/{c_odd:.3f} (0.71/0.75 +- 0.05), "
        f"conditional fidelity {f_cond:.3f} (0.63 +- 0.05)",
    )


def test_criterion_7_entanglement_distance():
    d = coherent_entanglement_distance(1.0, 4.5, 1.12)
    assert d == pytest.approx(5.04, abs=1e-12)
    report(7, f"D_ent = {d} m (= 5.04 m)")


def test_criterion_8_oracle_equivalence():
    # BSM distribution vs brute-force photon-number enumeration
    single = {
        "H": np.array([1, 0], dtype=complex),
        "V": np.array([0, 1], dtype=complex),
        "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
        "L": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    }
    worst = 0.0
    for v in (1.0, 0.9, 0.5, 0.0):
        for n1, n2 in itertools.product(single, repeat=2):
            amp = np.outer(single[n1], single[n2])
            s = st.pure_state(amp.reshape(-1), ["p1", "p2"])
            got = bsm_outcome_distribution(s, ["p1", "p2"], v)
            want = fock_bsm_distribution(amp, v)
            for key, value in want.items():
                worst = max(worst, abs(got[key] - value))
    assert worst < 1e-10
    # sampled protocol statistics vs exact expectations at 1e4 shots
    scenario = loads_scenario("")
    res = modular_3q_experiment(scenario, n_trials=1000, seed=8, shots=10_000)
    tables = [res.tables[f"parity_{cond}"] for cond in ("remote1", "remote0")]
    stat, bound = chi_square(
        np.concatenate([(t["estimate"] - t["exact_reported"]) / t["uncertainty"] for t in tables])
    )
    assert stat < bound, f"conditional parities: chi-square {stat} >= {bound}"
    rb = remote_bell_experiment(scenario, seed=8, n_trials=2000, shots=10_000)
    for key in ("phid0", "phidpi"):
        t = rb.tables[f"populations_{key}"]
        for p, err, exact in zip(t["estimate"], t["uncertainty"], t["exact"]):
            assert abs(p - exact) < 4 * max(err, 1e-3)
    report(
        8,
        f"BSM oracle max dev {worst:.1e} < 1e-10; sampled parities chi-square {stat:.1f} "
        f"< {bound:.1f}, populations within 4 sigma of exact",
    )


def test_criterion_9_determinism(tmp_path):
    for sub, extra in (
        ("remote-bell", ["--trials", "300"]),
        ("modular-3q", ["--trials", "200", "--shots", "300"]),
        ("budget", []),
    ):
        out1 = tmp_path / f"{sub}-1"
        out2 = tmp_path / f"{sub}-2"
        args = [sub, "--seed", "33", *extra]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (sub, name)
    report(9, "byte-identical outputs across reruns for remote-bell, modular-3q, budget")
