"""Scan points as a batch axis of the exact engine.

A step whose parameter is an array of P values runs all P scan points
at once on a (P, d, d) stack. Every check here compares the batched
result with the same engine run one point at a time, on random
registers up to the 6-subsystem cap and random step scripts.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ionnet import states as st
from ionnet.montecarlo import outcome_table, propagate
from ionnet.records import replace
from ionnet.scenario import (
    AnalysisStep,
    HeraldStep,
    MeasureStep,
    MSGateStep,
    ProtocolScript,
    ReinitStep,
    WaitStep,
    load_scenario,
)

from oracles import haar_unitary, random_density

ROOT = Path(__file__).resolve().parents[1]
CALIBRATED = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")
# Crosstalk on re-initialization (calibrated), a re-initialization that
# takes time, and a coherence time short enough for the waits to dephase.
SCENARIO = replace(
    CALIBRATED,
    protocol=replace(CALIBRATED.protocol, reinit_duration_s=0.01),
    memory=replace(CALIBRATED.memory, tau_s=0.3),
)
ATOL = 1e-12


def assert_physical(rho):
    """Unit trace, Hermiticity and positivity on a whole stack."""
    rho = np.asarray(rho)
    assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() < ATOL
    assert np.abs(rho - rho.conj().swapaxes(-1, -2)).max() < ATOL
    assert np.linalg.eigvalsh(rho).min() > -ATOL


def stack(state, points):
    """Density matrices of ``state`` at each of ``points`` scan points; a
    state the scan did not act on stands for every point."""
    return np.broadcast_to(state.data, (points, state.dim, state.dim))


ANGLE = hs.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
DURATION = hs.sampled_from([0.0, 1e-4, 3e-4, 0.05, 0.5])


@hs.composite
def registers(draw):
    """Two modules of 1..5 qubits, at most 6 in all, and one link."""
    n_a = draw(hs.integers(1, 5))
    n_b = draw(hs.integers(1, 6 - n_a))
    qa = tuple(f"a{i}" for i in range(n_a))
    qb = tuple(f"b{i}" for i in range(n_b))
    link = (draw(hs.sampled_from(qa)), draw(hs.sampled_from(qb)))
    return qa, qb, link


def step_strategy(qa, qb):
    qubits = qa + qb
    options = [
        hs.just(HeraldStep()),
        hs.builds(ReinitStep, hs.sampled_from(qubits)),
        hs.builds(WaitStep, DURATION),
        hs.builds(
            AnalysisStep,
            hs.lists(hs.sampled_from(qubits), min_size=1, max_size=3, unique=True).map(tuple),
            ANGLE,
            ANGLE,
        ),
    ]
    pairs = [(x, y) for module in (qa, qb) for x in module for y in module if x != y]
    if pairs:
        options.append(hs.builds(MSGateStep, hs.sampled_from(pairs)))
    return hs.one_of(options)


@hs.composite
def scanned_scripts(draw):
    """A script with one scanned step (array parameter) among random steps.

    Returns the script, the scenario it runs on (``SCENARIO`` with a drawn
    gate phase), the scanned step's index and the P values."""
    qa, qb, link = draw(registers())
    before = draw(hs.lists(step_strategy(qa, qb), max_size=3))
    after = draw(hs.lists(step_strategy(qa, qb), max_size=3))
    points = draw(hs.integers(1, 4))
    kind = draw(hs.sampled_from(["wait", "phi", "theta"]))
    if kind == "wait":
        values = draw(hs.lists(DURATION, min_size=points, max_size=points))
        scanned = WaitStep(np.array(values))
    else:
        qubits = hs.sampled_from(qa + qb)
        targets = tuple(draw(hs.lists(qubits, min_size=1, max_size=3, unique=True)))
        values = draw(hs.lists(ANGLE, min_size=points, max_size=points))
        other = draw(ANGLE)
        if kind == "phi":
            scanned = AnalysisStep(targets, other, np.array(values))
        else:
            scanned = AnalysisStep(targets, np.array(values), other)
    script = ProtocolScript(
        qubits=qa + qb,
        modules={"A": qa, "B": qb},
        link=link,
        steps=(*before, scanned, *after, MeasureStep()),
    )
    scenario = replace(SCENARIO, gate=replace(SCENARIO.gate, phi_a=draw(ANGLE)))
    return script, scenario, len(before), np.array(values)


def at_point(script, index, value):
    """The script's steps with the scanned step set to one scan value."""
    step = script.steps[index]
    if isinstance(step, WaitStep):
        point = replace(step, duration_s=value)
    elif np.ndim(step.phi):
        point = replace(step, phi=value)
    else:
        point = replace(step, theta=value)
    return script.steps[:index] + (point,) + script.steps[index + 1 :]


@settings(max_examples=40, deadline=None)
@given(case=scanned_scripts())
def test_batched_propagation_equals_per_point(case):
    script, scenario, index, values = case
    batched = propagate(script, scenario, script.steps)
    for i, value in enumerate(values.tolist()):
        single = propagate(script, scenario, at_point(script, index, value))
        assert len(single) == len(batched)
        for one, many in zip(single, batched):
            assert (one.phi_d, one.weight) == (many.phi_d, many.weight)
            assert one.state.labels == many.state.labels
            got = stack(many.state, values.size)[i]
            np.testing.assert_allclose(got, one.state.data, rtol=0, atol=ATOL)


@settings(max_examples=25, deadline=None)
@given(case=scanned_scripts())
def test_stack_stays_physical_after_every_step(case):
    # One step at a time, so every step type acts on a stack.
    script, scenario, _, values = case
    branches = None
    for step in script.steps[:-1]:
        branches = propagate(script, scenario, (step,), branches)
        for b in branches:
            assert_physical(stack(b.state, values.size))


LABELS = ("r0", "r1", "r2", "r3", "r4", "r5")


@hs.composite
def stacks(draw):
    """A random stack of P mixed states on 1..6 subsystems."""
    n = draw(hs.integers(1, 6))
    points = draw(hs.integers(1, 3))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    data = np.array([random_density(2**n, rng, rank=2) for _ in range(points)])
    return st.QuantumState(LABELS[:n], data), rng


def kernel_cases(s, rng):
    """(name, batched output, per-point outputs) for every batched kernel."""
    points = s.batch_shape[0]
    labels = s.labels
    one = [st.QuantumState(labels, rho) for rho in s.data]
    target = labels[rng.integers(len(labels))]
    u = np.array([haar_unitary(2, rng) for _ in range(points)])
    phase = rng.uniform(-math.pi, math.pi, points)
    yield "unitary", st.apply_unitary(s, u, [target]), [
        st.apply_unitary(x, ui, [target]) for x, ui in zip(one, u)
    ]
    yield "phase", st.apply_phase(s, target, phase), [
        st.apply_phase(x, target, p) for x, p in zip(one, phase)
    ]
    yield "depolarize", st.depolarize(s, [target], 0.3), [
        st.depolarize(x, [target], 0.3) for x in one
    ]
    if len(labels) >= 2:
        pair = list(rng.choice(labels, 2, replace=False))
        gamma = rng.uniform(0.0, 1.0, points)
        yield "dephase", st.dephase_pair(s, pair, gamma), [
            st.dephase_pair(x, pair, g) for x, g in zip(one, gamma)
        ]
        u2 = np.array([haar_unitary(4, rng) for _ in range(points)])
        yield "two-qubit unitary", st.apply_unitary(s, u2, pair), [
            st.apply_unitary(x, ui, pair) for x, ui in zip(one, u2)
        ]
        yield "reset", st.reset_subsystem(s, target, 1), [
            st.reset_subsystem(x, target, 1) for x in one
        ]
        keep = [lbl for lbl in labels if lbl != target]
        yield "partial trace", st.partial_trace(s, keep), [st.partial_trace(x, keep) for x in one]
        fresh_pair = st.QuantumState(pair, random_density(4, rng))
        yield "replace", st.replace_subsystems(s, fresh_pair), [
            st.replace_subsystems(x, fresh_pair) for x in one
        ]
    if len(labels) < st.MAX_SUBSYSTEMS:
        fresh = st.basis_state([1], ["extra"])
        yield "tensor", st.tensor(s, fresh), [st.tensor(x, fresh) for x in one]


@settings(max_examples=30, deadline=None)
@given(case=stacks())
def test_kernels_broadcast_over_the_stack(case):
    s, rng = case
    for name, batched, per_point in kernel_cases(s, rng):
        # Kernel output is not re-checked by the engine, so check it here.
        assert_physical(batched.data)
        assert batched.batch_shape == s.batch_shape, name
        for i, single in enumerate(per_point):
            np.testing.assert_allclose(
                batched.data[i], single.data, rtol=0, atol=ATOL, err_msg=name
            )


def test_unbatched_state_takes_a_per_point_parameter():
    # A per-point phase on a single (pure) state gives a stack.
    plus = st.QuantumState(["a", "b"], np.full(4, 0.5))
    phases = np.array([0.0, 0.5, 2.0])
    out = st.apply_phase(plus, "b", phases)
    assert out.batch_shape == (3,)
    for rho, phase in zip(out.data, phases):
        np.testing.assert_allclose(
            rho, st.apply_phase(plus, "b", phase).data, rtol=0, atol=ATOL
        )


GOOD = np.eye(2, dtype=complex) / 2


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue"),
        (2 * GOOD, "trace"),
        (GOOD + np.triu(np.ones((2, 2)), 1), "Hermitian"),
    ],
)
def test_construction_checks_every_state_of_a_stack(bad, message):
    with pytest.raises(st.StateError, match=message):
        st.QuantumState(["a"], np.array([GOOD, bad]))


def trig_interpolant(samples, phis):
    """The trigonometric polynomial of degree (N - 1) / 2 through N
    equispaced samples on [0, 2 pi), evaluated at ``phis``."""
    n = samples.shape[0]
    coeffs = np.fft.fft(samples, axis=0) / n
    orders = np.fft.fftfreq(n, 1.0 / n)
    basis = np.exp(1j * np.outer(phis, orders))
    return basis @ coeffs


@settings(max_examples=25, deadline=None)
@given(case=scanned_scripts(), extra=hs.lists(ANGLE, min_size=5, max_size=40))
def test_analysis_scan_is_a_trigonometric_polynomial(case, extra):
    # Every analysis pulse on k targets enters the density matrix as
    # U rho U^dagger with entries of degree 1 in e^{i phi} per target,
    # so with k targets over all scanned analysis steps every branch
    # state, and so the outcome distribution, has degree <= 2k in phi:
    # 4k + 1 points fix the whole curve.
    script, scenario, index, values = case
    fixed = at_point(script, index, values[0])
    k = sum(len(s.targets) for s in fixed if isinstance(s, AnalysisStep))
    if k == 0:
        return

    def curves(phis):
        """Outcome distribution and branch density matrices, one row per phase."""
        steps = [replace(s, phi=phis) if isinstance(s, AnalysisStep) else s for s in fixed]
        branches = propagate(script, scenario, steps)
        weights, true = outcome_table(branches, script.qubits)
        dist = np.tensordot(weights, true, axes=1) / weights.sum()
        parts = [np.broadcast_to(dist, (phis.size, dist.shape[-1]))]
        parts += [stack(b.state, phis.size).reshape(phis.size, -1) for b in branches]
        return np.concatenate(parts, axis=1)

    nodes = 2 * math.pi * np.arange(4 * k + 1) / (4 * k + 1)
    grid = np.concatenate([np.linspace(0.0, 2 * math.pi, 33), np.array(extra)])
    np.testing.assert_allclose(
        curves(grid), trig_interpolant(curves(nodes), grid), rtol=0, atol=ATOL
    )
