"""High-level experiment drivers behind the CLI subcommands.

Every driver takes the scenario alone, reads the settings its
experiment needs from it, and returns tables plus a flat summary
record; the engine calls take the scenario too, and draw with its seed
and its trial and shot counts.
Tables pair sampled estimates and their uncertainties with the exact
density-matrix values, so the two statistics paths stay comparable
downstream. A driver first checks the settings it reads and
raises ``ScenarioError``, before any work, for a configuration it
would fail on or ignore.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

import numpy as np

from . import states as st
from .fitting import (
    MAX_TAU_REL_STDERR,
    MIN_FIT_POINTS,
    MIN_RATE_SAMPLES,
    CosineFit,
    RateFit,
    fit_cosine,
    fit_exponential_decay,
    fit_exponential_rate,
)
from .gates import ms_unitary
from .montecarlo import (
    binomial_err,
    exact_branches,
    parity_scan,
    parity_weights,
    propagate,
    run_protocol,
    sample_outcomes,
    share,
)
from .photonics import heralded_bell_ket
from .records import replace
from .scenario import (
    DETECTOR_PHASES,
    MAX_COUNT,
    AnalysisStep,
    ExperimentOutput,
    HeraldStep,
    MSGateStep,
    ProtocolLayout,
    ProtocolScript,
    ReinitStep,
    Scenario,
    ScenarioError,
    WaitStep,
    coherent_entanglement_distance,
    success_probability,
)

__all__ = [
    "remote_bell_experiment",
    "phase_scan_experiment",
    "coherence_experiment",
    "local_gate_experiment",
    "modular_3q_experiment",
]

# rng spawn-key stream id of the scans' shot sampling
_SHOT_STREAM = 20

# Largest log of the summed waiting times' expectation that a run
# accepts: the float maximum over a margin of 1e3 for the sampled sum.
_MAX_LOG_WAIT_SUM = math.log(sys.float_info.max / 1e3)

# Tail margin of the herald attempt counts: all N geometric draws of a run
# stay below (ln N + 21) / p but with a chance of at most e**-21 = 7.6e-10.
_ATTEMPT_TAIL = 21.0

# The key of each detector phase's outputs, with the phase, in branch order.
_PHASE_KEYS = tuple(zip(("phid0", "phidpi"), DETECTOR_PHASES))


def _fixed_script(scenario: Scenario, qubits: tuple[str, ...] | None = None) -> ProtocolScript:
    """``scenario.script(qubits)`` for a driver built for the default
    protocol steps; other steps are rejected."""
    if scenario.protocol.steps != ProtocolLayout().steps:
        raise ScenarioError(
            "this experiment runs a fixed script and accepts only the default "
            "protocol steps; use modular-3q to run other protocol.step.N lists"
        )
    return scenario.script(qubits)


def _check_rate_fit(scenario: Scenario) -> None:
    """Reject a run whose herald rate fit would get too few waiting times,
    attempt counts that numpy cannot draw, or waiting times whose sum
    overflows."""
    n_trials, rep_rate = scenario.run.n_trials, scenario.budget.rep_rate
    if n_trials < MIN_RATE_SAMPLES:
        raise ScenarioError(
            f"the herald rate fit needs at least {MIN_RATE_SAMPLES} trials, got {n_trials}"
        )
    p = success_probability(scenario.budget)
    if p == 0.0:
        raise ScenarioError("link_budget gives zero herald probability; nothing would herald")
    # A trial sums one int64 attempt count per herald step, which numpy
    # saturates at MAX_COUNT; the bound is taken in logs, as p may be subnormal.
    heralds = max(sum(isinstance(s, HeraldStep) for s in scenario.protocol.steps), 1)
    attempts = heralds * (math.log(n_trials * heralds) + _ATTEMPT_TAIL)
    if math.log(attempts) - math.log(p) >= math.log(MAX_COUNT):
        raise ScenarioError(
            f"link_budget gives a herald probability of {p!r}, too small to sample: in "
            f"{n_trials} trials, the attempts at a trial's {heralds} herald step(s) could "
            "reach the int64 limit 2**63 - 1"
        )
    # Each herald step's waiting time has mean 1 / (p * rep_rate), and that
    # product may underflow to 0, so the expected sum is bounded in logs.
    if math.log(n_trials * heralds) - math.log(p) - math.log(rep_rate) > _MAX_LOG_WAIT_SUM:
        raise ScenarioError(
            f"link_budget.rep_rate = {rep_rate!r} is too slow: at a herald probability of "
            f"{p!r}, the herald waiting times of {n_trials} trials would overflow when summed"
        )


def _fit_points(scenario: Scenario, grid: str) -> int:
    """``run.<grid>``, the points of a scan that a curve is fitted to."""
    points = getattr(scenario.run, grid)
    if points < MIN_FIT_POINTS:
        raise ScenarioError(f"a curve fit needs run.{grid} >= {MIN_FIT_POINTS}, got {points}")
    return points


# The settings that the duration of a reinit or a gate step comes from.
_DURATION_SOURCE = {ReinitStep: "protocol.reinit_duration_s", MSGateStep: "2 / gate.detuning_hz"}


def _check_beat(scenario: Scenario, steps: Sequence, what: str) -> None:
    """Reject ``steps`` (``what``) if delta_omega_ab times a step's time overflows."""
    omega = scenario.ledger.delta_omega_ab
    for step in steps:
        t = float(np.max(scenario.step_duration(step)))
        if not math.isfinite(omega * t):
            raise ScenarioError(f"the Zeeman beat phase overflows: phase_ledger.delta_omega_ab = "
                                f"{omega!r} times the {t!r} s of {what}")


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


def remote_bell_experiment(scenario: Scenario) -> ExperimentOutput:
    """Populations and fidelity of the heralded remote pair, plus the
    entanglement rate fitted from sampled waiting times.

    The populations of each detector phase keep the trials of its branch:
    the sampled counts are conditioned on the branch a trial heralded.
    That is not how a scan picks a detector phase, which propagates only
    that phase's branches (``phase-scan``, ``coherence``).
    """
    pair, run = scenario.protocol.link, scenario.run
    script = _fixed_script(scenario, pair)
    _check_rate_fit(scenario)
    branches = exact_branches(script, scenario)
    out = ExperimentOutput()

    result = run_protocol(script, scenario, branches=branches)
    phi_d = np.array([b.phi_d for b in branches])
    for key, want in _PHASE_KEYS:
        (branch,) = (b for b in branches if b.phi_d == want)
        target = heralded_bell_ket(pair, scenario.ledger.herald_phase(want))
        out.summary[f"fidelity_{key}"] = st.fidelity(branch.state, target)
        counts = result.counts[phi_d == want].sum(axis=(0, 2))
        exact = result.probs[phi_d == want].sum(axis=(0, 2))
        out.tables[f"populations_{key}"] = _population_table(
            counts, max(counts.sum(), 1), exact / exact.sum()
        )
    out.summary["fidelity_mean"] = 0.5 * sum(out.summary[f"fidelity_{k}"] for k, _ in _PHASE_KEYS)

    exact_true = result.probs.sum(axis=(0, 1))
    out.summary["odd_parity_population_exact"] = parity_weights(exact_true, pair, pair)[1]
    for name, axes in (("sampled", (0, 2)), ("ideal_readout", (0, 1))):
        pops = result.counts.sum(axis=axes) / run.n_trials
        out.summary[f"odd_parity_population_{name}"] = parity_weights(pops, pair, pair)[1]

    _fit_rate(out, result.herald_time)
    return out


def phase_scan_experiment(scenario: Scenario) -> ExperimentOutput:
    """Even-parity population after an analysis pulse versus the delay
    between herald and analysis, for both detector phases. The two
    branches oscillate at the Zeeman beat and are out of phase by pi.
    The cosine is fitted to the beat phases delta_omega_ab * delay; a
    grid of them that cannot determine it is rejected."""
    qa, qb = scenario.protocol.link
    script = _fixed_script(scenario, (qa, qb))
    run, omega = scenario.run, scenario.ledger.delta_omega_ab
    delays = np.linspace(0.0, run.phase_scan_delay_s, _fit_points(scenario, "phase_scan_points"))
    steps = (WaitStep(delays), AnalysisStep((qa, qb)))
    _check_beat(scenario, steps, "run.phase_scan_delay_s")
    beat = omega * delays
    try:  # the fit's own rank rule, on the phases it will be given
        fit_cosine(beat, np.zeros_like(beat), harmonic=1)
    except ValueError as exc:
        raise ScenarioError(
            "phase-scan fits a cosine to the beat phases delta_omega_ab * delay of "
            f"phase_ledger.delta_omega_ab = {omega!r}, run.phase_scan_points = "
            f"{run.phase_scan_points} and run.phase_scan_delay_s = {run.phase_scan_delay_s!r}: {exc}"
        ) from None
    heralded = exact_branches(script, scenario)
    out = ExperimentOutput()
    fits = {}
    for branch_i, (key, want) in enumerate(_PHASE_KEYS):
        curve = parity_scan(
            script, scenario, steps, [b for b in heralded if b.phi_d == want],
            _SHOT_STREAM, branch_i, pair=(qa, qb),
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
    out.summary["shots_per_point"] = run.shots_per_point
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
    return (half, echo, half, AnalysisStep(pair, phi=math.pi / 4.0))


def coherence_experiment(scenario: Scenario) -> ExperimentOutput:
    """Echo-based coherence decay of the stored pair and the waiting-time
    distribution of herald generation.

    Coherence: the heralded pair (detector phase 0 branch) runs the
    ``_echo_steps`` of all delays at once; the surviving parity magnitude
    decays as exp(-delay/tau) because the static gradient phase cancels
    across the echo. The parity is sampled through the detector model
    and the decay is fitted on the sampled magnitudes. When a fit cannot
    determine tau, d_ent_m (sampled) or tau_fit_exact_s (exact) is left out.
    """
    qa, qb = scenario.protocol.link
    run = scenario.run
    script = _fixed_script(scenario, (qa, qb))
    _check_rate_fit(scenario)
    delays = np.linspace(0.0, run.delay_max_s, _fit_points(scenario, "delay_points"))
    steps = _echo_steps((qa, qb), delays)
    _check_beat(scenario, steps, "each echo half of run.delay_max_s")
    out = ExperimentOutput()

    branches = exact_branches(script, scenario)
    phi_d = DETECTOR_PHASES[0]
    curve = parity_scan(
        script, scenario, steps, [b for b in branches if b.phi_d == phi_d],
        _SHOT_STREAM, 0, pair=(qa, qb),
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
    out.summary.update(
        {
            "tau_fit_s": decay.tau,
            "tau_fit_stderr": decay.tau_stderr,
            "tau_fit_rel_stderr": rel_stderr,
            "tau_fit_ok": decay.ok,
            "tau_fit_exact_s": decay_exact.tau,
            "tau_configured_s": scenario.memory.tau_s,
            "coherence_amplitude": decay.amplitude,
        }
    )
    if not decay_exact.ok:
        del out.summary["tau_fit_exact_s"]
        out.warnings.append("the exact coherence decay fit leaves tau undetermined; "
                            "tau_fit_exact_s is not reported")

    # Waiting-time distribution and rate, from sampled protocol trials.
    waits = run_protocol(script, scenario, branches=branches).herald_time
    rate = _fit_rate(out, waits)
    # Up to the fitted distribution's 99th percentile.
    grid = np.linspace(0.0, math.log(100.0) / rate.rate, 60)[1:]
    ecdf = np.searchsorted(np.sort(waits), grid, side="right") / run.n_trials
    out.tables["waiting"] = {
        "time_s": grid,
        "empirical_cdf": ecdf,
        "uncertainty": binomial_err(ecdf, run.n_trials),
        "fitted_cdf": [1.0 - math.exp(-rate.rate * t) for t in grid.tolist()],
    }
    out.summary["shots_per_point"] = run.shots_per_point
    if decay.ok:
        out.summary["d_ent_m"] = coherent_entanglement_distance(
            run.qubit_separation_m, rate.rate, decay.tau
        )
    else:
        out.warnings.append(
            f"coherence decay fit leaves tau undetermined (tau_fit_rel_stderr = "
            f"{rel_stderr:.3g} > {MAX_TAU_REL_STDERR}); d_ent_m is not reported"
        )
    return out


def local_gate_experiment(scenario: Scenario) -> ExperimentOutput:
    """Populations and parity oscillation of the local entangling gate.

    The script is the configured one over the gate's two qubits: the
    populations propagate its gate step alone, and the parity scan runs
    the steps after it from the gated state.
    """
    gate = next(s for s in _fixed_script(scenario).steps if isinstance(s, MSGateStep))
    qa, qb = gate.pair
    run = scenario.run
    phis = np.linspace(0.0, math.pi, _fit_points(scenario, "phi_points"), endpoint=False)
    script = scenario.script((qa, qb))
    out = ExperimentOutput()

    # populations without analysis pulse
    (branch,) = propagate(script, scenario, (gate,))
    (true_diag,), (reported,), (counts,) = sample_outcomes(
        script, scenario, [branch], _SHOT_STREAM, 0
    )
    out.tables["populations"] = _population_table(counts, run.shots_per_point, reported)
    out.summary["even_population_exact"] = float(parity_weights(true_diag, (qa, qb), (qa, qb))[0])
    out.summary["even_population_reported"] = float(parity_weights(reported, (qa, qb), (qa, qb))[0])

    # the gate applied to |00>
    target = st.QuantumState((qa, qb), ms_unitary(scenario.gate.phi_a)[:, 0])
    out.summary["gate_fidelity_exact"] = st.fidelity(branch.state, target)

    # parity oscillation versus analysis phase
    scan = parity_scan(
        script, scenario, _phase_scanned(script.steps[script.steps.index(gate) + 1:], phis),
        [branch], _SHOT_STREAM + 1, pair=(qa, qb),
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
            "shots_per_point": run.shots_per_point,
        }
    )
    out.summary["gate_fidelity_from_parity"] = _fidelity_from_parity(
        out.summary["even_population_exact"], fit_ideal
    )
    return out


def _fidelity_from_parity(even_population: float, fringe: CosineFit) -> float:
    """Bell-pair fidelity as half the even population plus half the fringe amplitude."""
    return 0.5 * (even_population + fringe.amplitude)


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


def modular_3q_experiment(scenario: Scenario) -> ExperimentOutput:
    """The scenario script, by default the full two-bus protocol:
    herald, re-initialize, local gate, analysis.

    Produces the parity/remote-state correlations (the script without
    analysis pulses) and the conditional parity oscillation of the
    analysis targets (the script as configured), conditioned on the
    reported state of the remote atom, the module-B end of the link.
    """
    _check_rate_fit(scenario)
    phis = np.linspace(0.0, math.pi, _fit_points(scenario, "phi_points"), endpoint=False)
    protocol, run = scenario.protocol, scenario.run
    if len(protocol.qubits_a) != 2 or len(protocol.qubits_b) != 1:
        raise ScenarioError("modular-3q needs two qubits in module A and one in module B")
    script = scenario.script()
    if not any(isinstance(s, HeraldStep) for s in script.steps):
        raise ScenarioError("modular-3q needs a herald step (the rate fit needs waiting times)")
    analyses = [s for s in script.steps if isinstance(s, AnalysisStep)]
    if not analyses:
        raise ScenarioError("modular-3q needs an analyze step (the parity scan sets its phase)")
    if any(sorted(s.targets) != sorted(protocol.qubits_a) for s in analyses):
        raise ScenarioError(
            "modular-3q analyze steps must target exactly the module-A qubits "
            f"{' '.join(protocol.qubits_a)}"
        )
    for n, step in enumerate(protocol.steps, start=1):
        what = f"protocol.step.{n} ({_DURATION_SOURCE.get(type(step), step.verb)})"
        _check_beat(scenario, (step,), what)
    pair = analyses[0].targets
    remote = script.link[1]
    out = ExperimentOutput()

    # Both runs share the steps before the first analysis pulse.
    scanned = script.steps.index(analyses[0])
    prefix = propagate(script, scenario, script.steps[:scanned])

    # Correlation run (Fig-4c style; the rest without analysis pulses).
    rest = [s for s in script.steps[scanned:] if not isinstance(s, AnalysisStep)]
    result = run_protocol(script, scenario, branches=propagate(script, scenario, rest, prefix))
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
            "corr_even_given_remote1_err": binomial_err(even_1[0], n_1[0]),
            "corr_odd_given_remote0": odd_0[0],
            "corr_odd_given_remote0_err": binomial_err(odd_0[0], n_0[0]),
            "corr_even_given_remote1_exact": even_1[2],
            "corr_odd_given_remote0_exact": odd_0[2],
            "corr_even_given_remote1_ideal_readout": even_1[1],
            "corr_odd_given_remote0_ideal_readout": odd_0[1],
            "corr_even_given_remote1_exact_ideal": even_1[3],
            "corr_odd_given_remote0_exact_ideal": odd_0[3],
        }
    )
    out.tables["populations"] = _population_table(counts, run.n_trials, rep_diag)
    _fit_rate(out, result.herald_time)

    # Conditional parity oscillation (Fig-4d style).
    curves = parity_scan(
        script, scenario, _phase_scanned(script.steps[scanned:], phis), prefix,
        _SHOT_STREAM + 2, pair=pair, condition_qubit=remote,
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
            "shots_per_point": run.shots_per_point,
        }
    )

    # Conditional even-branch fidelity from measured quantities.
    for name, even, fit in (("exact", even_1[2], fit1_exact),
                            ("ideal_readout", even_1[3], fit1_true),
                            ("sampled", even_1[0], fit1)):
        out.summary[f"conditional_fidelity_{name}"] = _fidelity_from_parity(even, fit)
    return out
