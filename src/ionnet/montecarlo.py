"""Discrete-event Monte Carlo engine for the full modular protocol.

A protocol is an ordered script of steps over declared qubits: attempt a
remote herald on the link, re-initialize a qubit, run the local entangling
gate, apply analysis rotations, wait, and finally measure everything.

Two statistics paths share all channel code. The exact path propagates
density matrices conditioned on each herald branch (the two detector
phases), which is cheap because the stochastic waiting time never touches
the state: the pair is born at the herald and only deterministic step
durations evolve it afterwards. ``propagate`` runs steps from any set of
branches, so a scan propagates the steps before its scanned step once.

Scan points are a batch axis of the exact path. A wait duration or an
analysis angle may be a 1-D array of P values, one per scan point; from
that step on every branch carries a (P, d, d) stack of density matrices,
and the ``states`` kernels act on the whole stack at once. A scan is
therefore one ``propagate`` call, not one per point; a scalar step is
the same code with no batch axis. ``propagate`` checks Hermiticity,
unit trace and positivity on every stack it returns.

The sampled path draws from exact distributions only, and every count
is one ``multinomial`` call. Its settings come from the scenario: the
seed, the trial count and the shots per point from ``scenario.run`` and
the detector model from ``scenario.detectors``. The trials are one draw
of ``run.n_trials`` from the exact joint distribution of herald branch,
reported and true outcome; each herald step of a trial then takes a geometric number of
attempts with the link budget. Every scan is one ``parity_scan`` call:
its steps run from the given branches for all points at once, and
``sample_outcomes`` gives the exact true distribution of each point,
the reported one through the script's readout channel
(``readout_channel``, the one place it is built), and then the
``run.shots_per_point`` shots of all points, one row per point; the parity of a pair follows
from those, unconditioned and conditioned on a third qubit.

Randomness is reproducible: generators derive from ``run.seed`` by the
counter scheme ``Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=key)))``, the generator ``default_rng`` builds from that seed
sequence (``rng_stream``). A protocol run draws every trial from the
one generator of stream 0; a scan draws all of its points from the one
generator of its shot stream, row after row.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence  # numpy loads it lazily otherwise

from . import states as st
from .detection import confusion_matrix
from .gates import analysis_rotation, ms_gate
from .photonics import conditional_herald_states
from .records import Record, replace
from .scenario import (
    AnalysisStep,
    HeraldStep,
    MeasureStep,
    MSGateStep,
    ProtocolScript,
    ReinitStep,
    Scenario,
    Step,
    success_probability,
)
from .states import free_evolution

__all__ = [
    "BranchState",
    "ProtocolResult",
    "rng_stream",
    "readout_channel",
    "outcome_table",
    "sample_outcomes",
    "binomial_err",
    "exact_branches",
    "propagate",
    "run_protocol",
    "parity_scan",
    "parity_weights",
    "share",
]

TRIAL_STREAM = 0


class BranchState(Record):
    """One deterministic herald branch of the protocol: ``phi_d`` is the
    detector phase of its last herald (None before any herald); once it
    has heralded, the script's link dephases during free evolution.
    After a scanned step ``state`` is a stack, one state per scan point;
    the branch weight is the same at every point."""

    phi_d: float | None
    weight: float
    state: st.QuantumState


class ProtocolResult(Record):
    """Sampled trials of a script and the distribution they were drawn
    from. ``probs[b, r, t]`` is the exact probability of herald branch b
    (of the exact branches, in order) with reported outcome r and true
    outcome t, over the script's qubits (first most significant), after
    and before the detector model; ``counts[b, r, t]`` is the number of
    trials in that cell. ``herald_time`` is each trial's wall time spent
    attempting heralds, summed over the script's herald steps (0 when it
    has none)."""

    probs: np.ndarray
    counts: np.ndarray
    herald_time: np.ndarray


def rng_stream(seed: int, *key: int) -> Generator:
    """Generator for a (stream, index, ...) counter under the root seed."""
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


def readout_channel(script: ProtocolScript, scenario: Scenario) -> np.ndarray:
    """Readout channel M[reported, true] of the scenario's detectors over
    the script's qubits (first qubit most significant)."""
    return confusion_matrix(len(script.qubits), scenario.detectors, script.detector_layout())


def outcome_table(
    branches: Sequence[BranchState], qubits: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact outcomes of ``branches`` over ``qubits`` (first most
    significant): the branch weights (B,) and each branch's true outcome
    distribution, (B, 2^k), or (B, P, 2^k) for stacked branches."""
    weights = np.array([b.weight for b in branches])
    true = np.array([st.outcome_probabilities(b.state, qubits) for b in branches])
    return weights, true


def sample_outcomes(
    script: ProtocolScript,
    scenario: Scenario,
    branches: Sequence[BranchState],
    *key: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes of ``branches`` over the script's qubits, averaged over
    the branches by weight: the exact distributions before and after the
    script's detectors, and the counts of ``run.shots_per_point``
    reported outcomes.

    Stacked branches give one row per scan point, unstacked ones a single
    row. Every row draws its shots from its reported distribution,
    normalised on its own, with one ``multinomial`` call on the
    generator of ``key``, row after row.
    """
    weights, true_given_branch = outcome_table(branches, script.qubits)
    true, total = 0.0, 0.0
    for w, t in zip(weights, true_given_branch):  # in branch order
        true, total = true + w * t, total + w
    if total <= 0:
        raise ValueError("no branch to average the outcome distribution over")
    true = np.atleast_2d(true / total)
    reported = true @ readout_channel(script, scenario).T
    rows = reported / reported.sum(axis=-1, keepdims=True)
    run = scenario.run
    return true, reported, rng_stream(run.seed, *key).multinomial(run.shots_per_point, rows)


def exact_branches(script: ProtocolScript, scenario: Scenario) -> list[BranchState]:
    """Propagate the whole script exactly from |0...0>."""
    return propagate(script, scenario, script.steps)


def propagate(
    script: ProtocolScript,
    scenario: Scenario,
    steps: Sequence[Step],
    branches: Sequence[BranchState] | None = None,
) -> list[BranchState]:
    """Run ``steps`` of ``script`` exactly from ``branches`` (by default
    the register in |0...0>), branching on herald outcomes.

    After each non-herald step the register evolves freely for the
    step's ``scenario.step_duration``, during which the link of a
    heralded branch dephases.
    Steps with array parameters (``WaitStep.duration_s``,
    ``AnalysisStep.theta`` and ``phi``, all of one length P) turn each
    branch state into a stack of P states. Every returned state is
    checked, on its whole stack, to be a physical state.
    """
    if branches is None:
        initial = st.basis_state([0] * len(script.qubits), script.qubits)
        branches = [BranchState(phi_d=None, weight=1.0, state=initial)]
    b_atoms = script.modules.get("B", ())
    delta_omega, tau_s = scenario.ledger.delta_omega_ab, scenario.memory.tau_s
    link = (script.link,)
    for step in steps:
        if isinstance(step, MeasureStep):
            break
        if isinstance(step, HeraldStep):
            branches = _herald_branches(branches, script.link, scenario)
            continue
        dt = scenario.step_duration(step)
        branches = [
            replace(
                b,
                state=free_evolution(
                    _apply_step(step, b.state, script, scenario), dt, delta_omega, b_atoms,
                    link if b.phi_d is not None else (), tau_s,
                ),
            )
            for b in branches
        ]
    # The kernels do not re-check their output; a state leaving the
    # engine is checked here (QuantumState validates the whole stack).
    return [
        replace(b, state=st.QuantumState(b.state.labels, b.state.data))
        for b in branches
    ]


def _apply_step(
    step: Step, state: st.QuantumState, script: ProtocolScript, scenario: Scenario
) -> st.QuantumState:
    """``state`` after the operation of a reinit, gate, analysis or wait
    step, before the step's free evolution."""
    if isinstance(step, ReinitStep):
        state = st.reset_subsystem(state, step.qubit, 0)
        if scenario.protocol.crosstalk_depol > 0:
            module = script.module_of(step.qubit)
            for neighbour in script.modules[module]:
                if neighbour != step.qubit and neighbour in state.labels:
                    state = st.depolarize(state, [neighbour], scenario.protocol.crosstalk_depol)
        return state
    if isinstance(step, MSGateStep):
        return ms_gate(state, list(step.pair), scenario.gate.phi_a, scenario.gate.depolarizing_p)
    if isinstance(step, AnalysisStep):
        return analysis_rotation(state, list(step.targets), step.theta, step.phi)
    return state


def _herald_branches(
    branches: list[BranchState], pair: tuple[str, str], scenario: Scenario
) -> list[BranchState]:
    conditional = conditional_herald_states(
        scenario.link_errors, pair, scenario.ledger.herald_phase(0.0)
    )
    total = sum(p for _, p, _ in conditional)
    # The heralded pair replaces whatever the two qubits held before.
    return [
        BranchState(
            phi_d=phi_d,
            weight=b.weight * prob / total,
            state=st.replace_subsystems(b.state, pair_state),
        )
        for b in branches
        for phi_d, prob, pair_state in conditional
    ]


def run_protocol(
    script: ProtocolScript,
    scenario: Scenario,
    branches: list[BranchState] | None = None,
) -> ProtocolResult:
    """Sample ``run.n_trials`` end-to-end trials of the script.

    The trials' herald branches, reported and true outcomes are counted
    together with one ``multinomial`` draw from their exact joint
    distribution; then each herald step of each trial takes a geometric
    number of attempts with the budget's coincidence probability. All draws come
    from one generator of ``run.seed``, so identical (script, scenario)
    give identical results. ``branches`` are the script's exact branches
    when the caller has propagated them already.
    """
    n_heralds = sum(isinstance(s, HeraldStep) for s in script.steps)
    p_herald = success_probability(scenario.budget)
    if n_heralds and p_herald <= 0.0:
        raise ValueError("success probability is zero; the protocol would never herald")
    if branches is None:
        branches = exact_branches(script, scenario)
    weights, true_given_branch = outcome_table(branches, script.qubits)
    readout = readout_channel(script, scenario)
    # joint[b, r, t] = P(branch b) P(true t | branch b) P(reported r | true t)
    joint = weights[:, None, None] * readout[None, :, :] * true_given_branch[:, None, :]
    n_trials = scenario.run.n_trials
    rng = rng_stream(scenario.run.seed, TRIAL_STREAM)
    counts = rng.multinomial(n_trials, joint.ravel() / joint.sum()).reshape(joint.shape)
    if n_heralds:
        attempts = rng.geometric(p_herald, size=(n_heralds, n_trials)).sum(axis=0)
        herald_time = attempts / scenario.budget.rep_rate
    else:
        herald_time = np.zeros(n_trials)
    return ProtocolResult(probs=joint, counts=counts, herald_time=herald_time)


def parity_scan(
    script: ProtocolScript,
    scenario: Scenario,
    steps: Sequence[Step],
    branches: Sequence[BranchState],
    *key: int,
    pair: tuple[str, str],
    condition_qubit: str | None = None,
) -> dict[str, dict[str, np.ndarray]]:
    """Parity of ``pair`` over a scan, sampled and exact.

    The scan ``steps`` (array-valued, one value per scan point) run once
    from ``branches`` for all points. The reported-outcome distribution
    of each point is sampled ``run.shots_per_point`` times through the
    scenario's detectors with ``sample_outcomes`` on the generator of
    ``key``, and parities are accumulated unconditioned plus
    (optionally) conditioned on each reported value of
    ``condition_qubit``.

    Returns one table per condition, "all" or "<qubit>=<bit>": the
    columns of the sampled ``estimate`` and its ``uncertainty``, and the
    exact density-matrix parity with (``exact_reported``) and without
    (``exact_ideal_readout``) detection errors, one row per scan point.
    """
    conditions = {"all": None}
    if condition_qubit is not None:
        conditions.update({f"{condition_qubit}={bit}": (condition_qubit, bit) for bit in (1, 0)})

    scanned = propagate(script, scenario, steps, branches)
    # Rows: the sampled counts, the exact reported and true distributions.
    weights = np.stack(sample_outcomes(script, scenario, scanned, *key)[::-1])
    curves = {}
    for name, condition in conditions.items():
        even, odd, n = parity_weights(weights, script.qubits, pair, condition)
        parity = share(even - odd, n)
        curves[name] = {
            "estimate": parity[0],
            # An empty condition has parity 0 and counts as one shot.
            "uncertainty": 2.0 * binomial_err((1.0 + parity[0]) / 2.0, n[0]),
            "exact_reported": parity[1],
            "exact_ideal_readout": parity[2],
        }
    return curves


def binomial_err(p, n):
    """Standard error of a frequency ``p`` of ``n`` draws, floored at one
    draw's worth (1/n) so that p = 0 or 1 keeps an error bar; n = 0 (an
    empty condition) counts as one draw. Elementwise on arrays. A parity
    ``par`` = 2 p - 1 has twice the error of p."""
    n = np.maximum(n, 1)
    return np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)


def parity_weights(
    weights: np.ndarray,
    qubits: Sequence[str],
    pair: tuple[str, str],
    condition: tuple[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even weight, odd weight and total of the outcomes of ``pair``.

    ``weights`` holds counts or probabilities over the outcomes of
    ``qubits`` (last axis, first qubit most significant). Only outcomes
    where qubit ``condition[0]`` reads ``condition[1]`` count.
    """
    bits = st._bits(len(qubits))
    a, b = (bits[:, qubits.index(q)] for q in pair)
    kept = np.ones(len(bits), dtype=bool)
    if condition is not None:
        kept = bits[:, qubits.index(condition[0])] == condition[1]
    even = weights[..., kept & (a == b)].sum(axis=-1)
    odd = weights[..., kept & (a != b)].sum(axis=-1)
    return even, odd, even + odd


def share(part, total):
    """``part / total``, and 0 where the total is 0 (a condition that no
    outcome meets); elementwise on arrays."""
    return np.divide(part, total, out=np.zeros(np.shape(total)), where=total > 0)

