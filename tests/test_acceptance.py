"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria are asserted at their stated tolerances against the exact
(density-matrix) statistics path where the number is a model property.
Where sampling is part of the criterion, the test asserts the sampled
checks of ``acceptance_checks.CHECKS`` by name at their suite seeds:
each check's run, seed, pass rule and stated false-failure rate are
declared there, and ``scripts/seed_sweep.py`` measures every check's
miss rate over many seeds.
"""

import itertools
import math

import numpy as np
import pytest

from ionnet import photonics as ph
from ionnet import states as st
from ionnet.cli import main as cli_main
from ionnet.gates import analysis_rotation, ms_gate, spin_echo_ramsey
from ionnet.scenario import (
    GateSettings,
    LinkBudget,
    LinkErrorModel,
    coherent_entanglement_distance,
    expected_rate,
    success_probability,
)

from acceptance_checks import CHECKS
from oracles import bsm_outcome_distribution, fock_bsm_distribution, parity_expectation


def report(n: int, text: str):
    print(f"ACCEPTANCE {n}: {text} PASS")


def passed(name: str) -> str:
    """Assert the sampled check ``name`` at its suite seed; return what it measured."""
    check = CHECKS[name]
    ok, shown = check.judge(check.seed)
    assert ok, f"{name}: {shown}"
    return shown


def suite_output(name: str):
    """Output of the run that the sampled check ``name`` reads, at its suite seed."""
    check = CHECKS[name]
    return check.run.output(check.seed)


def test_criterion_1_budget_reproduction():
    budget = LinkBudget()
    p = success_probability(budget)
    assert f"{p:.2g}" == "9.7e-06"
    rate = expected_rate(budget)
    assert abs(rate - 4.5) / 4.5 < 0.05
    report(1, f"budget P = {p:.3g} (9.7e-06 at 2 s.f.), rate = {rate:.3f}/s (4.5 within 5%)")


def test_criterion_2_monte_carlo_rate():
    report(2, passed("criterion 2: rate fit"))


def test_criterion_3_remote_fidelity_composition():
    err = LinkErrorModel()  # 0.92 per module, calibrated overlap
    fids = []
    for phi_d, _, state in ph.conditional_herald_states(err, ("qa", "qb")):
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
    # tau recovery within 2 percent over a 0..3 s scan, exact and sampled
    tau_exact = suite_output("criterion 5: sampled tau").summary["tau_fit_exact_s"]
    assert abs(tau_exact - 1.12) / 1.12 < 0.02
    sampled = passed("criterion 5: sampled tau")
    report(5, f"echo cancellation < 1e-10, tau exact {tau_exact:.4f} (1.12 within 2%), {sampled}")


def test_criterion_6_three_qubit_protocol():
    # noiseless: conditional parity amplitude and flat remote-0 branch
    amp = passed("criterion 6: noiseless amplitude")
    flat = passed("criterion 6: noiseless remote-0 parity flat")
    # calibrated noise: conditional correlations and even-branch fidelity
    cal = suite_output("criterion 6: calibrated correlations")
    c_even = cal.summary["corr_even_given_remote1_exact"]
    c_odd = cal.summary["corr_odd_given_remote0_exact"]
    f_cond = cal.summary["conditional_fidelity_exact"]
    assert abs(c_even - 0.71) <= 0.05
    assert abs(c_odd - 0.75) <= 0.05
    assert abs(f_cond - 0.63) <= 0.05
    # sampled estimates agree with the exact path
    sampled = passed("criterion 6: calibrated correlations")
    report(
        6,
        f"{amp}, {flat}; "
        f"calibrated correlations {c_even:.3f}/{c_odd:.3f} (0.71/0.75 +- 0.05), "
        f"conditional fidelity {f_cond:.3f} (0.63 +- 0.05), {sampled}",
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
    # sampled protocol statistics vs exact expectations
    parities = passed("criterion 8: conditional parities")
    populations = passed("criterion 8: remote-bell populations")
    report(8, f"BSM oracle max dev {worst:.1e} < 1e-10; {parities}, {populations}")


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
