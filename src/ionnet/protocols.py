"""High-level experiment drivers behind the CLI subcommands.

Every driver takes ``(scenario, seed, n_trials, shots)``, uses the
settings its experiment needs, and returns tables plus a flat summary
record. Tables pair sampled estimates and their uncertainties with the
exact density-matrix values, so the two statistics paths stay
comparable downstream.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import states as st
from .fitting import (
    MAX_TAU_REL_STDERR,
    CosineFit,
    RateFit,
    fit_cosine,
    fit_exponential_decay,
    fit_exponential_rate,
)
from .montecarlo import (
    AnalysisStep,
    MSGateStep,
    WaitStep,
    binomial_err,
    coherent_entanglement_distance,
    exact_branches,
    first_analysis,
    parity_scan,
    parity_weights,
    propagate,
    run_protocol,
    sample_outcomes,
    share,
)
from .photonics import heralded_bell_ket
from .records import replace
from .scenario import ExperimentOutput, Scenario, budget_report, timing_report

__all__ = [
    "ExperimentOutput",
    "budget_report",
    "timing_report",
    "remote_bell_experiment",
    "phase_scan_experiment",
    "phase_scan_grid",
    "coherence_experiment",
    "local_gate_experiment",
    "modular_3q_experiment",
]

# rng spawn-key stream id of the scans' shot sampling
_SHOT_STREAM = 20

# The detector phase of each herald branch, and the key of its outputs.
DETECTOR_PHASES = (("phid0", 0.0), ("phidpi", math.pi))


def _population_table(counts, n, exact) -> dict[str, Sequence]:
    """Sampled outcome frequencies ``counts / n`` beside the exact
    distribution, one row per outcome (first qubit most significant)."""
    n_bits = len(counts).bit_length() - 1
    p = counts / n
    return {
        "outcome": [format(idx, f"0{n_bits}b") for idx in range(len(counts))],
        "estimate": p,
        "uncertainty": binomial_err(p, n),
        "exact": exact,
    }


def _fit_rate(out: ExperimentOutput, herald_time: np.ndarray) -> RateFit:
    """Fit the herald rate to sampled waiting times and report it."""
    rate = fit_exponential_rate(herald_time)
    out.summary.update(
        {
            "rate_per_s": rate.rate,
            "rate_stderr": rate.stderr,
            "rate_ks_stat": rate.ks_stat,
            "rate_ks_ok": rate.ok,
            "n_trials": herald_time.size,
        }
    )
    return rate


def remote_bell_experiment(
    scenario: Scenario, seed: int, n_trials: int, shots: int
) -> ExperimentOutput:
    """Populations and fidelity of the heralded remote pair, plus the
    entanglement rate fitted from sampled waiting times.

    The populations of each detector phase keep the trials of its branch:
    the sampled counts are conditioned on the branch a trial heralded.
    That is not how a scan picks a detector phase, which propagates only
    that phase's branches (``phase-scan``, ``coherence``).
    """
    script = scenario.script(scenario.protocol.link)
    pair = scenario.protocol.link
    branches = exact_branches(script, scenario)
    out = ExperimentOutput()

    result = run_protocol(script, scenario, n_trials, seed, branches=branches)
    phi_d = np.array([b.phi_d for b in branches])
    for key, want in DETECTOR_PHASES:
        (branch,) = (b for b in branches if b.phi_d == want)
        target = heralded_bell_ket(pair, scenario.ledger.herald_phase(want))
        out.summary[f"fidelity_{key}"] = st.fidelity(branch.state, target)
        counts = result.counts[phi_d == want].sum(axis=(0, 2))
        exact = result.probs[phi_d == want].sum(axis=(0, 2))
        out.tables[f"populations_{key}"] = _population_table(
            counts, max(counts.sum(), 1), exact / exact.sum()
        )
    out.summary["fidelity_mean"] = 0.5 * (
        out.summary["fidelity_phid0"] + out.summary["fidelity_phidpi"]
    )

    exact_true = result.probs.sum(axis=(0, 1))
    out.summary["odd_parity_population_exact"] = parity_weights(exact_true, pair, pair)[1]
    for name, axes in (("sampled", (0, 2)), ("ideal_readout", (0, 1))):
        pops = result.counts.sum(axis=axes) / n_trials
        out.summary[f"odd_parity_population_{name}"] = parity_weights(pops, pair, pair)[1]

    _fit_rate(out, result.herald_time)
    return out


def phase_scan_grid(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The phase scan's delays and the beat phases delta_omega_ab * delay
    its cosine is fitted to."""
    delays = np.linspace(0.0, scenario.run.phase_scan_delay_s, scenario.run.phase_scan_points)
    return delays, scenario.ledger.delta_omega_ab * delays


def phase_scan_experiment(
    scenario: Scenario, seed: int, n_trials: int, shots: int
) -> ExperimentOutput:
    """Even-parity population after an analysis pulse versus the delay
    between herald and analysis, for both detector phases. The two
    branches oscillate at the Zeeman beat and are out of phase by pi."""
    qa, qb = scenario.protocol.link
    delays, beat = phase_scan_grid(scenario)
    script = scenario.script(scenario.protocol.link)
    heralded = exact_branches(script, scenario)
    steps = (WaitStep(delays), AnalysisStep((qa, qb), math.pi / 2.0, 0.0))
    out = ExperimentOutput()
    fits = {}
    for branch_i, (key, want) in enumerate(DETECTOR_PHASES):
        curve = parity_scan(
            script, scenario, steps, [b for b in heralded if b.phi_d == want],
            shots, seed, _SHOT_STREAM, branch_i, pair=(qa, qb),
        )["all"]
        out.tables[f"phase_scan_{key}"] = {
            "delay_s": delays,
            "estimate": (1.0 + curve["estimate"]) / 2.0,
            # P_even = (1 + parity) / 2 has half the parity's error.
            "uncertainty": curve["uncertainty"] / 2.0,
            "exact": (1.0 + curve["exact_reported"]) / 2.0,
        }
        # parity = 2 P_even - 1 = A cos(omega t - phase)
        fits[key] = fit_cosine(beat, curve["exact_reported"], harmonic=1)
        out.summary[f"fit_phase_{key}"] = fits[key].phase
        out.summary[f"fit_amplitude_{key}"] = fits[key].amplitude
    offset = abs(math.remainder(fits["phidpi"].phase - fits["phid0"].phase, 2.0 * math.pi))
    out.summary["branch_phase_offset"] = offset
    out.summary["shots_per_point"] = shots
    return out


def _echo_steps(pair: tuple[str, str], delay) -> tuple:
    """Spin echo over ``delay`` on ``pair``, then the pi/2 analysis pulse;
    an array of delays gives the steps of the whole scan.

    Half the delay, simultaneous pi pulses, the other half; a static
    gradient phase cancels across the echo. At zero delay only the
    analysis pulse runs: the echo pulse angle is masked to 0 there (a
    rotation by 0 is the identity, as are the zero waits). Scan phase
    pi/4 puts both pulses on the x axis.
    """
    delay = np.asarray(delay, dtype=float)
    half = WaitStep(delay / 2.0)
    echo = AnalysisStep(pair, np.where(delay > 0.0, math.pi, 0.0), math.pi / 4.0)
    return (half, echo, half, AnalysisStep(pair, math.pi / 2.0, math.pi / 4.0))


def coherence_experiment(
    scenario: Scenario, seed: int, n_trials: int, shots: int
) -> ExperimentOutput:
    """Echo-based coherence decay of the stored pair and the waiting-time
    distribution of herald generation.

    Coherence: the heralded pair (detector phase 0 branch) runs the
    ``_echo_steps`` of all delays at once; the surviving parity magnitude
    decays as exp(-delay/tau) because the static gradient phase cancels
    across the echo. The parity is sampled through the detector model
    and the decay is fitted on the sampled magnitudes. When the fit
    cannot determine tau, the distance figure built from it is left out.
    """
    qa, qb = scenario.protocol.link
    run = scenario.run
    out = ExperimentOutput()

    script = scenario.script(scenario.protocol.link)
    branches = exact_branches(script, scenario)

    delays = np.linspace(0.0, run.delay_max_s, run.delay_points)
    curve = parity_scan(
        script, scenario, _echo_steps((qa, qb), delays), [b for b in branches if b.phi_d == 0.0],
        shots, seed, _SHOT_STREAM, 0, pair=(qa, qb),
    )["all"]
    par, err, par_exact = curve["estimate"], curve["uncertainty"], curve["exact_reported"]
    out.tables["coherence"] = {
        "delay_s": delays,
        "parity": par,
        "uncertainty": err,
        "exact_parity": par_exact,
    }
    decay = fit_exponential_decay(delays, np.abs(par), sigma=err)
    decay_exact = fit_exponential_decay(delays, np.abs(par_exact))
    rel_stderr = decay.tau_stderr / decay.tau
    tau_ok = rel_stderr <= MAX_TAU_REL_STDERR
    out.summary.update(
        {
            "tau_fit_s": decay.tau,
            "tau_fit_stderr": decay.tau_stderr,
            "tau_fit_rel_stderr": rel_stderr,
            "tau_fit_ok": tau_ok,
            "tau_fit_exact_s": decay_exact.tau,
            "tau_configured_s": scenario.memory.tau_s,
            "coherence_amplitude": decay.amplitude,
        }
    )

    # Waiting-time distribution and rate, from sampled protocol trials.
    waits = run_protocol(script, scenario, n_trials, seed, branches=branches).herald_time
    rate = _fit_rate(out, waits)
    # Up to the fitted distribution's 99th percentile.
    grid = np.linspace(0.0, math.log(100.0) / rate.rate, 60)[1:]
    ecdf = np.searchsorted(np.sort(waits), grid, side="right") / n_trials
    out.tables["waiting"] = {
        "time_s": grid,
        "empirical_cdf": ecdf,
        "uncertainty": binomial_err(ecdf, n_trials),
        "fitted_cdf": [1.0 - math.exp(-rate.rate * t) for t in grid.tolist()],
    }
    out.summary["shots_per_point"] = shots
    if tau_ok:
        out.summary["d_ent_m"] = coherent_entanglement_distance(
            run.qubit_separation_m, rate.rate, decay.tau
        )
    else:
        out.warnings.append(
            f"coherence decay fit leaves tau undetermined (tau_fit_rel_stderr = "
            f"{rel_stderr:.3g} > {MAX_TAU_REL_STDERR}); d_ent_m is not reported"
        )
    return out


def local_gate_experiment(
    scenario: Scenario, seed: int, n_trials: int, shots: int
) -> ExperimentOutput:
    """Populations and parity oscillation of the local entangling gate.

    The script is the configured one over the gate's two qubits, from
    its gate step on: the populations propagate the gate step alone,
    and the parity scan runs the steps after it from the gated state.
    """
    qa, qb = next(args for verb, *args in scenario.protocol.steps if verb == "gate")
    script = scenario.script((qa, qb))
    start = next(k for k, s in enumerate(script.steps) if isinstance(s, MSGateStep))
    script = replace(script, steps=script.steps[start:])
    run = scenario.run
    out = ExperimentOutput()

    # populations without analysis pulse
    (branch,) = propagate(script, scenario, script.steps[:1])
    (true_diag,), (reported,), (counts,) = sample_outcomes(
        script, scenario, [branch], shots, seed, _SHOT_STREAM, 0
    )
    out.tables["populations"] = _population_table(counts, shots, reported)
    out.summary["even_population_exact"] = float(parity_weights(true_diag, (qa, qb), (qa, qb))[0])
    out.summary["even_population_reported"] = float(parity_weights(reported, (qa, qb), (qa, qb))[0])

    target = st.pure_state(
        np.array([1.0, 0.0, 0.0, -1j * np.exp(-1j * scenario.gate.phi_a)]) / math.sqrt(2.0),
        (qa, qb),
    )
    out.summary["gate_fidelity_exact"] = st.fidelity(branch.state, target)

    # parity oscillation versus analysis phase
    phis = np.linspace(0.0, math.pi, run.phi_points, endpoint=False)
    scan = parity_scan(
        script, scenario, _phase_scanned(script.steps[1:], phis), [branch],
        shots, seed, _SHOT_STREAM + 1, pair=(qa, qb),
    )["all"]
    curve = {"phi_rad": phis, **scan}
    out.tables["parity"] = curve
    fit, fit_exact, fit_ideal = _fringe_fits(curve)
    out.summary.update(
        {
            "parity_amplitude_sampled": fit.amplitude,
            "parity_amplitude_sampled_stderr": fit.amplitude_stderr,
            "parity_amplitude_exact_reported": fit_exact.amplitude,
            "parity_amplitude_exact_ideal_readout": fit_ideal.amplitude,
            "parity_phase": fit_ideal.phase,
            "shots_per_point": shots,
        }
    )
    # fidelity from measured quantities: even populations and fringe amplitude
    out.summary["gate_fidelity_from_parity"] = 0.5 * (
        out.summary["even_population_exact"] + fit_ideal.amplitude
    )
    return out


def _phase_scanned(steps: Sequence, phis: np.ndarray) -> list:
    """``steps`` with the phase of every analysis step set to the scanned
    phases ``phis``."""
    return [replace(s, phi=phis) if isinstance(s, AnalysisStep) else s for s in steps]


def _fringe_fits(curve: dict[str, np.ndarray]) -> tuple[CosineFit, CosineFit, CosineFit]:
    """Second-harmonic cosine fits of a phase-scanned parity table: the
    sampled values (weighted by their errors), then the exact values
    with and without detection errors."""
    phi = curve["phi_rad"]
    return (
        fit_cosine(phi, curve["estimate"], harmonic=2, sigma=curve["uncertainty"]),
        fit_cosine(phi, curve["exact_reported"], harmonic=2),
        fit_cosine(phi, curve["exact_ideal_readout"], harmonic=2),
    )


def modular_3q_experiment(
    scenario: Scenario, seed: int, n_trials: int, shots: int
) -> ExperimentOutput:
    """The scenario script, by default the full two-bus protocol:
    herald, re-initialize, local gate, analysis.

    Produces the parity/remote-state correlations (the script without
    analysis pulses) and the conditional parity oscillation of the
    analysis targets (the script as configured), conditioned on the
    reported state of the remote atom, the module-B end of the link.
    """
    run = scenario.run
    script = scenario.script()
    pair = next(s.targets for s in script.steps if isinstance(s, AnalysisStep))
    remote = script.link[1]
    out = ExperimentOutput()

    # Both runs share the steps before the first analysis pulse.
    scanned = first_analysis(script)
    prefix = propagate(script, scenario, script.steps[:scanned])

    # Correlation run (Fig-4c style; the script without analysis pulses).
    no_analysis = replace(
        script, steps=tuple(s for s in script.steps if not isinstance(s, AnalysisStep))
    )
    branches = propagate(no_analysis, scenario, no_analysis.steps[scanned:], prefix)
    result = run_protocol(no_analysis, scenario, n_trials, seed, branches=branches)
    counts = result.counts.sum(axis=(0, 2))
    rep_diag = result.probs.sum(axis=(0, 2))
    # Even share given remote 1 and odd share given remote 0, of the
    # sampled reported and true outcomes and of their exact distributions.
    weights = np.stack(
        [counts, result.counts.sum(axis=(0, 1)), rep_diag, result.probs.sum(axis=(0, 1))]
    )
    even_1, _, n_1 = parity_weights(weights, script.qubits, pair, (remote, 1))
    _, odd_0, n_0 = parity_weights(weights, script.qubits, pair, (remote, 0))
    even_1, odd_0 = share(even_1, n_1).tolist(), share(odd_0, n_0).tolist()
    out.summary.update(
        {
            "corr_even_given_remote1": even_1[0],
            "corr_even_given_remote1_err": binomial_err(even_1[0], max(n_1[0], 1)),
            "corr_odd_given_remote0": odd_0[0],
            "corr_odd_given_remote0_err": binomial_err(odd_0[0], max(n_0[0], 1)),
            "corr_even_given_remote1_exact": even_1[2],
            "corr_odd_given_remote0_exact": odd_0[2],
            "corr_even_given_remote1_ideal_readout": even_1[1],
            "corr_odd_given_remote0_ideal_readout": odd_0[1],
            "corr_even_given_remote1_exact_ideal": even_1[3],
            "corr_odd_given_remote0_exact_ideal": odd_0[3],
        }
    )
    out.tables["populations"] = _population_table(counts, n_trials, rep_diag)
    _fit_rate(out, result.herald_time)

    # Conditional parity oscillation (Fig-4d style).
    phis = np.linspace(0.0, math.pi, run.phi_points, endpoint=False)
    curves = parity_scan(
        script, scenario, _phase_scanned(script.steps[scanned:], phis), prefix,
        shots, seed, _SHOT_STREAM + 2, pair=pair, condition_qubit=remote,
    )
    curves = {cond: {"phi_rad": phis, **curve} for cond, curve in curves.items()}
    key1, key0 = f"{remote}=1", f"{remote}=0"
    out.tables["parity_remote1"] = curves[key1]
    out.tables["parity_remote0"] = curves[key0]
    out.tables["parity_unconditioned"] = curves["all"]
    fit1, fit1_exact, fit1_true = _fringe_fits(curves[key1])
    mean0 = float(np.mean(curves[key0]["estimate"]))
    max_abs0 = float(np.max(np.abs(curves[key0]["estimate"])))
    out.summary.update(
        {
            "parity_amplitude_remote1": fit1.amplitude,
            "parity_amplitude_remote1_stderr": fit1.amplitude_stderr,
            "parity_amplitude_remote1_exact": fit1_exact.amplitude,
            "parity_amplitude_remote1_ideal_readout": fit1_true.amplitude,
            "parity_offset_remote1": fit1.offset,
            "parity_mean_remote0": mean0,
            "parity_max_abs_remote0": max_abs0,
            "shots_per_point": shots,
        }
    )

    # Conditional even-branch fidelity from measured quantities:
    # half the conditional even population plus half the fringe amplitude.
    pop_even_1 = out.summary["corr_even_given_remote1_exact"]
    out.summary["conditional_fidelity_exact"] = 0.5 * pop_even_1 + 0.5 * fit1_exact.amplitude
    pop_even_1_true = out.summary["corr_even_given_remote1_exact_ideal"]
    out.summary["conditional_fidelity_ideal_readout"] = (
        0.5 * pop_even_1_true + 0.5 * fit1_true.amplitude
    )
    out.summary["conditional_fidelity_sampled"] = (
        0.5 * out.summary["corr_even_given_remote1"] + 0.5 * fit1.amplitude
    )
    return out
