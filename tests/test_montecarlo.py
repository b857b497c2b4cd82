import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from ionnet import montecarlo as mc
from ionnet import states as st
from ionnet.detection import confusion_matrix
from ionnet.fitting import KS_STAT_CRITICAL, fit_cosine, fit_exponential_rate
from ionnet.photonics import DETECTOR_PAIRS, bsm_kraus_operators, module_emission
from ionnet.records import replace
from ionnet.scenario import (
    AnalysisStep,
    DetectorModel,
    GateSettings,
    HeraldStep,
    LinkBudget,
    LinkErrorModel,
    MeasureStep,
    MemoryDecoherence,
    MSGateStep,
    PhaseLedger,
    ProtocolLayout,
    ProtocolScript,
    ReinitStep,
    Scenario,
    ScenarioError,
    WaitStep,
    coherent_entanglement_distance,
    emit_scenario,
    load_scenario,
    loads_scenario,
    success_probability,
)
from oracles import parity_expectation, protocol_trials_per_trial, sample_scan_per_row
from test_scenario import protocols

RNG = np.random.default_rng

ROOT = Path(__file__).resolve().parents[1]
DEFAULTS = loads_scenario("")
CALIBRATED = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")


def at(scenario: Scenario, **run) -> Scenario:
    """``scenario`` with the ``[run]`` settings ``run``."""
    return replace(scenario, run=replace(scenario.run, **run))


def noiseless_config(**overrides) -> Scenario:
    # An infinite coherence time makes exp(-t/tau) exactly 1: no dephasing.
    base = dict(
        link_errors=LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0),
        gate=GateSettings(depolarizing_p=0.0),
        ledger=PhaseLedger(delta_omega_ab=0.0, delta_tau=0.0, delta_x=0.0),
        memory=MemoryDecoherence(tau_s=math.inf),
        detectors=DetectorModel(0.0, 0.0),
    )
    base.update(overrides)
    return replace(DEFAULTS, **base)


def mean_outcomes(branches, qubits) -> np.ndarray:
    # The exact outcome distribution of the branches, averaged by weight.
    weights, true = mc.outcome_table(branches, qubits)
    return np.tensordot(weights, true, axes=1) / weights.sum()


def three_qubit_script(phi=None) -> ProtocolScript:
    steps = [
        HeraldStep(),
        ReinitStep("q1"),
        MSGateStep(("q1", "q2")),
    ]
    if phi is not None:
        steps.append(AnalysisStep(("q1", "q2"), math.pi / 2, phi))
    steps.append(MeasureStep())
    return ProtocolScript(
        qubits=("q1", "q2", "q3"),
        modules={"A": ("q1", "q2"), "B": ("q3",)},
        link=("q2", "q3"),
        steps=tuple(steps),
    )


def tripartite_target(phi_a: float, phi_ab: float) -> st.QuantumState:
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = 0.5
    amps[0b111] = -0.5j * np.exp(-1j * phi_a)
    amps[0b010] = 0.5 * np.exp(1j * phi_ab)
    amps[0b100] = -0.5j * np.exp(1j * phi_ab)
    return st.QuantumState(["q1", "q2", "q3"], amps)


def pair_script() -> ProtocolScript:
    return ProtocolScript(
        qubits=("q2", "q3"), modules={"A": ("q2",), "B": ("q3",)},
        link=("q2", "q3"),
        steps=(HeraldStep(), MeasureStep()),
    )


def per_pair_heralds(cfg: Scenario) -> list[tuple[float, float, np.ndarray]]:
    """(phi_d, probability, heralded (q2, q3) density matrix) for each
    detector pair, built from that pair's Kraus operators alone."""
    err = cfg.link_errors
    joint = st.tensor(module_emission(err, "q2", "p2"), module_emission(err, "q3", "p3"))
    rho = joint.data.reshape((2,) * 8)  # ket (q2, p2, q3, p3), then bra
    transfer = cfg.ledger.geometric_phase() + cfg.ledger.delta_phi_t
    out = []
    for pair, kraus in bsm_kraus_operators(err.mode_overlap).items():
        atoms = np.zeros((2, 2, 2, 2), dtype=complex)
        for k in kraus:
            k = k.reshape(2, 2, 2, 2)  # (p2 out, p3 out, p2 in, p3 in)
            # K rho K^dagger on the photons, photons traced out
            atoms += np.einsum("xyac,iajcIAJC,xyAC->ijIJ", k, rho, k.conj())
        atoms = atoms.reshape(4, 4)
        prob = atoms.trace().real
        state = st.apply_phase(st.QuantumState(["q2", "q3"], atoms / prob), "q2", transfer)
        out.append((DETECTOR_PAIRS[pair], prob, state.data))
    return out


STRESSED = replace(
    DEFAULTS, link_errors=LinkErrorModel(atom_photon_fidelity=0.8, mode_overlap=0.6)
)


def attempts_of(res: mc.ProtocolResult, budget: LinkBudget) -> np.ndarray:
    return res.herald_time * budget.rep_rate


class TestSampleWaiting:
    def test_certain_success(self):
        b = LinkBudget(p_bell=1.0, p_pi=1.0, p_s_half=1.0, q_e=1.0, t_fib=1.0,
                       t_opt=1.0, solid_angle_fraction=1.0)
        res = mc.run_protocol(pair_script(), at(noiseless_config(budget=b), n_trials=50, seed=0))
        np.testing.assert_allclose(res.herald_time, 1 / b.rep_rate, rtol=1e-15)

    def test_geometric_mean(self):
        # p = 0.5 -> mean attempts 2
        b = LinkBudget(p_bell=0.5, p_pi=1.0, p_s_half=1.0, q_e=1.0, t_fib=1.0,
                       t_opt=1.0, solid_angle_fraction=1.0)
        n = 100_000
        res = mc.run_protocol(pair_script(), at(noiseless_config(budget=b), n_trials=n, seed=1))
        draws = attempts_of(res, b)
        sigma = math.sqrt(2.0) / math.sqrt(n)  # var of Geom(1/2) is 2
        assert abs(draws.mean() - 2.0) < 3 * sigma

    def test_default_budget_rate_and_ks(self):
        res = mc.run_protocol(pair_script(), at(DEFAULTS, n_trials=20_000, seed=99))
        fit = fit_exponential_rate(res.herald_time)
        # mean wall time 1/4.55 with 3 sigma of the standard error
        assert abs(fit.rate - 4.5499) < 3 * fit.stderr + 0.05
        assert fit.ok

    def test_zero_probability_rejected(self):
        cfg = noiseless_config(budget=LinkBudget(p_pi=0.0))
        with pytest.raises(ValueError, match="never herald"):
            mc.run_protocol(pair_script(), at(cfg, n_trials=10, seed=0))


class TestScriptValidation:
    """The protocol rules, checked by ``ProtocolLayout`` whenever a layout
    is built or loaded, each naming the ``protocol.step.N`` line it fails."""

    def test_requires_measure_last(self):
        with pytest.raises(ScenarioError, match=r"^protocol\.step\.2 = reinit q1 is last"):
            ProtocolLayout(steps=(HeraldStep(), ReinitStep("q1")))

    def test_requires_single_measure(self):
        with pytest.raises(ScenarioError, match=r"^protocol\.step\.1 = measure precedes the last"):
            loads_scenario("[protocol]\nstep.1 = measure\nstep.2 = measure\n")

    def test_rejects_unknown_qubits(self):
        with pytest.raises(ScenarioError, match=r"^protocol\.step\.1 = reinit qX names qX,"):
            ProtocolLayout(steps=(ReinitStep("qX"), MeasureStep()))

    def test_rejects_negative_wait(self):
        with pytest.raises(ScenarioError, match=r"^protocol\.step\.2 = wait -1\.0 is not a finite"):
            loads_scenario("[protocol]\nstep.1 = herald\nstep.2 = wait -1\nstep.3 = measure\n")

    @pytest.mark.parametrize(
        "duration",
        [
            math.nan,
            math.inf,
            np.array([0.1, math.nan]),
            np.array([0.1, -1.0]),
            np.array([[0.1, 0.2], [math.nan, 0.3]]),
        ],
    )
    def test_rejects_non_finite_wait(self, duration):
        # A scan's array of durations is never configured: only propagate takes one.
        with pytest.raises(ScenarioError, match=r"(?s)^protocol\.step\.1 = wait .* is not a finite"):
            ProtocolLayout(steps=(WaitStep(duration), MeasureStep()))

    def test_rejects_analysis_naming_a_qubit_twice(self):
        # Rotating q1 twice by pi/2 would act as a pi pulse.
        with pytest.raises(ScenarioError, match="analyze q1 q1 names a qubit twice"):
            ProtocolLayout(steps=(AnalysisStep(("q1", "q1"), math.pi / 2, 0.0), MeasureStep()))

    def test_modules_must_partition_qubits(self):
        # Each declared qubit lies in exactly one module.
        with pytest.raises(ScenarioError, match="q1 q2 q3 q1 name a qubit twice"):
            loads_scenario("[protocol]\nqubits_b = q3 q1\n")


class TestStepDurations:
    """``propagate`` lets the register evolve for each step's
    ``Scenario.step_duration``, once per step."""

    @settings(max_examples=40, deadline=None)
    @given(layout=protocols().filter(lambda layout: layout.reinit_duration_s > 0))
    def test_free_evolution_times_sum_to_the_timeline(self, layout):
        scenario = replace(DEFAULTS, protocol=layout)
        script = scenario.script()
        times = []

        def recorded(state, t, *args):
            times.append(t)
            return state

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "free_evolution", recorded)
            # One branch throughout, so each step evolves the register once.
            patch.setattr(mc, "_herald_branches", lambda branches, pair, scenario: branches)
            mc.exact_branches(script, scenario)
        timed = {ReinitStep: layout.reinit_duration_s, MSGateStep: scenario.gate.gate_time_s,
                 AnalysisStep: 0.0}
        assert times == [
            step.duration_s if isinstance(step, WaitStep) else timed[type(step)]
            for step in script.steps
            if not isinstance(step, (HeraldStep, MeasureStep))
        ]
        assert sum(times) == sum(scenario.step_duration(step) for step in script.steps)

    def test_scan_durations_pass_through(self):
        durations = np.linspace(0.0, 1.0, 5)
        assert DEFAULTS.step_duration(WaitStep(durations)) is durations

    @pytest.mark.parametrize("phi_d", [0.0, math.pi])
    def test_link_coherence_after_reinit_and_wait(self, phi_d):
        # Between the herald and the measure the pair's |01><10| element
        # turns by the beat and decays over the reinit's d and the wait's w.
        # The beat angle is ~3e3 rad, whose rounding the tolerance allows.
        d, w = 3e-4, 0.2
        scenario = replace(DEFAULTS, protocol=ProtocolLayout(
            crosstalk_depol=0.0, reinit_duration_s=d,
            steps=(HeraldStep(), ReinitStep("q1"), WaitStep(w), MeasureStep()),
        ))
        script = scenario.script()
        heralded = mc.propagate(script, scenario, script.steps[:1])
        measured = mc.exact_branches(script, scenario)
        t = d + w
        beat = np.exp(-1j * scenario.ledger.delta_omega_ab * t)
        factor = math.exp(-t / scenario.memory.tau_s) * beat
        (before,) = [b for b in heralded if b.phi_d == phi_d]
        (after,) = [b for b in measured if b.phi_d == phi_d]
        coherence = [st.partial_trace(b.state, ["q2", "q3"]).data[1, 2] for b in (before, after)]
        assert abs(coherence[1] - coherence[0] * factor) < 1e-12
        assert abs(coherence[0]) > 0.3


class TestExactBranches:
    def test_tripartite_state_per_branch(self):
        cfg = noiseless_config()
        for b in mc.exact_branches(three_qubit_script(), cfg):
            target = tripartite_target(0.0, b.phi_d)
            assert st.fidelity(b.state, target) == pytest.approx(1.0, abs=1e-12)
            assert b.weight == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("cfg", [DEFAULTS, STRESSED], ids=["calibrated", "stressed"])
    def test_one_branch_per_detector_phase(self, cfg):
        # Each phase's branch is the probability-weighted average of the
        # states its detector pairs herald, and those states agree.
        branches = mc.exact_branches(pair_script(), cfg)
        assert [b.phi_d for b in branches] == [0.0, math.pi]
        assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
        pairs = per_pair_heralds(cfg)
        total = sum(p for _, p, _ in pairs)
        for b in branches:
            mine = [(p, rho) for phi_d, p, rho in pairs if phi_d == b.phi_d]
            assert len(mine) == 2
            p_phase = sum(p for p, _ in mine)
            average = sum(p * rho for p, rho in mine) / p_phase
            assert b.weight == pytest.approx(p_phase / total, abs=1e-12)
            np.testing.assert_allclose(b.state.data, average, rtol=0, atol=1e-12)
            for _, rho in mine:
                np.testing.assert_allclose(rho, average, rtol=0, atol=1e-12)

    def test_remote_populations_odd_parity(self):
        # before the local gate the heralded pair is odd-parity
        cfg = DEFAULTS  # calibrated defaults
        script = ProtocolScript(
            qubits=("q2", "q3"), modules={"A": ("q2",), "B": ("q3",)},
            link=("q2", "q3"),
            steps=(HeraldStep(), MeasureStep()),
        )
        diag = mean_outcomes(mc.exact_branches(script, cfg), ("q2", "q3"))
        assert diag[1] + diag[2] >= 0.78

    def test_branch_distribution_by_detector_phase(self):
        cfg = noiseless_config()
        branches = mc.exact_branches(pair_script(), cfg)
        for phi_d in (0.0, math.pi):
            mine = [b for b in branches if b.phi_d == phi_d]
            diag = mean_outcomes(mine, ("q2", "q3"))
            np.testing.assert_allclose(diag, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_second_herald_replaces_the_pair(self):
        # The last herald's pair is all that remains, and it dephases from
        # that herald on: each branch of two heralds is the branch of one
        # with the same detector phase (tau_s = 1.12 s dephases the link).
        def run(*steps):
            script = replace(pair_script(), steps=(*steps, WaitStep(0.5), MeasureStep()))
            return mc.exact_branches(script, DEFAULTS)

        one = {b.phi_d: b.state.data for b in run(HeraldStep())}
        two = run(HeraldStep(), HeraldStep())
        assert [b.phi_d for b in two] == [0.0, math.pi, 0.0, math.pi]
        for b in two:
            np.testing.assert_allclose(b.state.data, one[b.phi_d], rtol=0, atol=1e-12)

    def test_branch_phase_follows_ledger(self):
        ledger = PhaseLedger(delta_omega_ab=2 * math.pi * 2.5e3, delta_tau=0.0,
                             delta_x=0.0, delta_phi_t=0.4)
        cfg = noiseless_config(ledger=ledger)
        script = ProtocolScript(
            qubits=("q2", "q3"), modules={"A": ("q2",), "B": ("q3",)},
            link=("q2", "q3"),
            steps=(HeraldStep(), WaitStep(1e-4), MeasureStep()),
        )
        from ionnet.photonics import heralded_bell_ket

        for b in mc.exact_branches(script, cfg):
            expect = heralded_bell_ket(
                ("q2", "q3"), b.phi_d + 0.4 + ledger.delta_omega_ab * 1e-4
            )
            assert st.fidelity(b.state, expect) == pytest.approx(1.0, abs=1e-12)


class TestRunProtocol:
    def test_determinism(self):
        cfg = at(DEFAULTS, n_trials=300, seed=77)
        r1 = mc.run_protocol(three_qubit_script(0.3), cfg)
        r2 = mc.run_protocol(three_qubit_script(0.3), cfg)
        for column in ("counts", "herald_time"):
            np.testing.assert_array_equal(getattr(r1, column), getattr(r2, column))
        r3 = mc.run_protocol(three_qubit_script(0.3), at(cfg, seed=78))
        assert not np.array_equal(r1.counts, r3.counts)

    def test_wall_time_accounting(self):
        cfg = noiseless_config()
        res = mc.run_protocol(three_qubit_script(), at(cfg, n_trials=50, seed=5))
        attempts = attempts_of(res, cfg.budget)
        assert attempts.min() >= 1
        np.testing.assert_allclose(attempts, np.round(attempts), rtol=1e-12)
        # a script without a herald step spends no time waiting
        local = ProtocolScript(
            qubits=("q1", "q2"), modules={"A": ("q1", "q2")},
            steps=(MSGateStep(("q1", "q2")), MeasureStep()),
        )
        np.testing.assert_array_equal(mc.run_protocol(local, at(cfg, n_trials=20, seed=5)).herald_time, 0.0)

    def test_sampled_matches_exact_populations(self):
        cfg = noiseless_config()
        n = 8000
        script = three_qubit_script()
        res = mc.run_protocol(script, at(cfg, n_trials=n, seed=3))
        sampled = res.counts.sum(axis=(0, 1)) / n
        exact_true = mean_outcomes(mc.exact_branches(script, cfg), script.qubits)
        for p, exact_p in zip(sampled, exact_true):
            err = math.sqrt(max(p * (1 - p), 1 / n) / n)
            assert abs(p - exact_p) < 4 * max(err, 1e-3)

    def test_joint_draw_matches_branches_and_readout(self):
        # calibrated detectors: branches follow their weights, and the
        # reported outcomes follow the confusion matrix applied to the
        # true ones
        cfg = DEFAULTS
        script = three_qubit_script()
        n = 20_000
        res = mc.run_protocol(script, at(cfg, n_trials=n, seed=12))
        branches = mc.exact_branches(script, cfg)
        weights = np.array([b.weight for b in branches])
        freq = res.counts.sum(axis=(1, 2)) / n
        sigma = np.sqrt(weights * (1 - weights) / n)
        assert np.all(np.abs(freq - weights) < 4 * sigma)
        m = confusion_matrix(3, cfg.detectors, script.detector_layout())
        expect = m @ mean_outcomes(branches, script.qubits)
        rep = res.counts.sum(axis=(0, 2)) / n
        sigma = np.sqrt(np.maximum(expect * (1 - expect), 1 / n) / n)
        assert np.all(np.abs(rep - expect) < 4 * sigma)
        assert np.any(res.counts.sum(axis=0)[~np.eye(8, dtype=bool)] > 0)  # some r != t

    def test_conditional_parity_matches_expectation(self):
        # sampled conditional parity converges to the exact expectation
        cfg = noiseless_config()
        phi = 0.45
        script = three_qubit_script(phi)
        res = mc.run_protocol(script, at(cfg, n_trials=10_000, seed=11))
        true = res.counts.sum(axis=(0, 1)).reshape(2, 2, 2)  # [q1, q2, q3]
        total = int(true[:, :, 1].sum())
        even = int(true[0, 0, 1] + true[1, 1, 1])
        par = (2 * even - total) / total
        # exact: parity of the analyzed state conditioned on q3 = 1
        num = den = 0.0
        for b in mc.exact_branches(script, cfg):
            p = st.outcome_probabilities(b.state, ("q1", "q2", "q3"))
            for idx in range(8):
                if idx & 1:
                    den += b.weight * p[idx]
                    num += b.weight * p[idx] * (1 if ((idx >> 2) & 1) == ((idx >> 1) & 1) else -1)
        exact = num / den
        sigma = math.sqrt((1 - exact**2) / total)
        assert abs(par - exact) < 3 * sigma
        assert exact == pytest.approx(math.cos(-2 * phi), abs=1e-10)

    @pytest.mark.parametrize("n_trials", [1, 100, 10_000])
    @pytest.mark.parametrize("seed", [1, 17, 29])
    @pytest.mark.parametrize("link_only", [True, False], ids=["link", "full"])
    @pytest.mark.parametrize("config", ["default", "calibrated", "noiseless-readout"])
    def test_counts_equal_per_trial_reference(self, config, link_only, seed, n_trials):
        # The trial counts and herald times are bit-equal to one multinomial
        # draw over the joint distribution, then one geometric row per
        # herald step, from the same generator; a noiseless readout leaves
        # zero cells in the joint distribution.
        cfg = {
            "default": DEFAULTS,
            "calibrated": CALIBRATED,
            "noiseless-readout": replace(DEFAULTS, detectors=DetectorModel(0.0, 0.0)),
        }[config]
        script = cfg.script(cfg.protocol.link if link_only else None)
        branches = mc.exact_branches(script, cfg)
        res = mc.run_protocol(script, at(cfg, n_trials=n_trials, seed=seed), branches=branches)
        counts, herald_time = protocol_trials_per_trial(
            script, cfg, branches, n_trials, seed, mc.TRIAL_STREAM
        )
        assert res.counts.dtype == counts.dtype
        np.testing.assert_array_equal(res.counts, counts)
        np.testing.assert_array_equal(res.herald_time, herald_time)

    def test_two_heralds_equal_per_trial_reference(self):
        # Each herald step adds its own geometric attempts to every trial.
        script = three_qubit_script(0.3)
        script = replace(script, steps=(HeraldStep(), *script.steps))
        branches = mc.exact_branches(script, DEFAULTS)
        res = mc.run_protocol(script, at(DEFAULTS, n_trials=1000, seed=17), branches=branches)
        counts, herald_time = protocol_trials_per_trial(
            script, DEFAULTS, branches, 1000, 17, mc.TRIAL_STREAM
        )
        np.testing.assert_array_equal(res.counts, counts)
        np.testing.assert_array_equal(res.herald_time, herald_time)
        # Two heralds take twice the attempts of one on average: a sum of
        # k geometric counts has mean k / p, within 5 standard errors.
        one = mc.run_protocol(three_qubit_script(0.3), at(DEFAULTS, n_trials=1000, seed=17))
        p = success_probability(DEFAULTS.budget)
        for k, run in ((2, res), (1, one)):
            attempts = run.herald_time * DEFAULTS.budget.rep_rate
            stderr = math.sqrt(k * (1.0 - p) / 1000) / p
            assert abs(attempts.mean() - k / p) < 5 * stderr

    def test_crosstalk_config_validated(self):
        with pytest.raises(ValueError, match="crosstalk_depol"):
            ProtocolLayout(crosstalk_depol=1.5)
        with pytest.raises(ValueError, match="reinit_duration_s"):
            ProtocolLayout(reinit_duration_s=-1.0)


def engine_draws(engine: str, scenario: Scenario) -> tuple[np.ndarray, ...]:
    """What one engine function draws for ``scenario`` on the three-qubit
    script: the trials, the shots of the exact outcomes or a phase scan."""
    script = three_qubit_script(0.3)
    if engine == "run_protocol":
        res = mc.run_protocol(script, scenario)
        return res.counts, res.herald_time
    if engine == "sample_outcomes":
        return (mc.sample_outcomes(script, scenario, mc.exact_branches(script, scenario), 20, 0)[2],)
    prefix = mc.propagate(script, scenario, script.steps[:3])
    analysis = AnalysisStep(("q1", "q2"), math.pi / 2, np.linspace(0.0, math.pi, 4))
    curve = mc.parity_scan(script, scenario, (analysis,), prefix, 20, 0, pair=("q1", "q2"))
    return (curve["all"]["estimate"],)


@pytest.mark.parametrize(
    "engine, field",
    [
        ("run_protocol", "seed"),
        ("run_protocol", "n_trials"),
        ("sample_outcomes", "seed"),
        ("sample_outcomes", "shots_per_point"),
        ("parity_scan", "seed"),
        ("parity_scan", "shots_per_point"),
    ],
)
def test_run_is_its_config(engine, field):
    # The engine draws with the scenario's [run] settings: the scenario
    # and its emitted config draw alike, and a changed field draws anew.
    scenario = at(DEFAULTS, seed=8, n_trials=300, shots_per_point=200)
    draws = engine_draws(engine, scenario)
    for got, want in zip(engine_draws(engine, loads_scenario(emit_scenario(scenario))), draws):
        np.testing.assert_array_equal(got, want)
    changed = at(scenario, **{field: getattr(scenario.run, field) + 1})
    assert not all(map(np.array_equal, engine_draws(engine, changed), draws))


class TestParityScan:
    def test_conditioned_and_unconditioned_curves(self):
        cfg = noiseless_config()
        phis = np.linspace(0, math.pi, 8, endpoint=False)
        script = three_qubit_script(0.0)
        prefix = mc.propagate(script, cfg, script.steps[:3])
        analysis = AnalysisStep(("q1", "q2"), math.pi / 2, phis)
        curves = mc.parity_scan(
            script, at(cfg, shots_per_point=4000, seed=5), (analysis,), prefix, 2,
            pair=("q1", "q2"), condition_qubit="q3",
        )
        assert set(curves) == {"all", "q3=1", "q3=0"}
        # conditioned on remote |1>: full-contrast fringe cos(-2 phi)
        for phi, exact in zip(phis, curves["q3=1"]["exact_ideal_readout"]):
            assert exact == pytest.approx(math.cos(2 * phi), abs=1e-10)
        # remote |0>: flat at zero
        assert max(abs(v) for v in curves["q3=0"]["exact_ideal_readout"]) < 1e-10
        # unconditioned: half contrast
        for phi, exact in zip(phis, curves["all"]["exact_ideal_readout"]):
            assert exact == pytest.approx(0.5 * math.cos(2 * phi), abs=1e-10)
        for cond, amplitude in (("q3=1", 1.0), ("all", 0.5)):
            fit = fit_cosine(phis, curves[cond]["exact_ideal_readout"], harmonic=2)
            assert fit.amplitude == pytest.approx(amplitude, abs=1e-10)
        # sampled values carry uncertainties and track the exact curve
        q3_1 = curves["q3=1"]
        for v, e, r in zip(q3_1["estimate"], q3_1["uncertainty"], q3_1["exact_reported"]):
            assert e > 0
            assert abs(v - r) < 4 * e

    @pytest.mark.parametrize("phi_d", [0.0, math.pi], ids=["phid0", "phidpi"])
    def test_delay_scan_from_one_detector_phase(self, phi_d):
        # A delay scan from the branch of one detector phase: each exact
        # point is the parity of that branch propagated alone with a scalar
        # wait, and the sampled parity is that of the sample_outcomes
        # counts drawn on the same key.
        script = pair_script()
        pair = ("q2", "q3")
        cfg = at(DEFAULTS, shots_per_point=500, seed=3)
        delays = np.linspace(0.0, 3e-4, 7)
        mine = [b for b in mc.exact_branches(script, cfg) if b.phi_d == phi_d]
        analysis = AnalysisStep(pair, math.pi / 2, 0.0)
        steps = (WaitStep(delays), analysis)
        curve = mc.parity_scan(script, cfg, steps, mine, 20, 1, pair=pair)["all"]
        for delay, got in zip(delays, curve["exact_ideal_readout"]):
            (point,) = mc.propagate(script, cfg, (WaitStep(float(delay)), analysis), mine)
            assert abs(got - parity_expectation(point.state, pair)) <= 1e-12
        scanned = mc.propagate(script, cfg, steps, mine)
        counts = mc.sample_outcomes(script, cfg, scanned, 20, 1)[2]
        parity = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / 500
        np.testing.assert_array_equal(curve["estimate"], parity)
        with pytest.raises(ValueError, match="no branch"):
            mc.parity_scan(script, cfg, steps, [], 20, 1, pair=pair)

    def test_attached_to_protocol_result(self):
        from ionnet.protocols import modular_3q_experiment
        from ionnet.scenario import loads_scenario

        out = modular_3q_experiment(loads_scenario("", seed=4, n_trials=200, shots_per_point=300))
        assert "parity_remote1" in out.tables
        assert "parity_unconditioned" in out.tables


class TestConditionalCorrelations:
    @staticmethod
    def correlations(weights, qubits=("q1", "q2", "q3")):
        # P(q1 = q2 | q3 = 1) and P(q1 != q2 | q3 = 0) with the total weight
        # of each condition, read from the parity weights by qubit name.
        even_1, _, n_1 = mc.parity_weights(weights, qubits, ("q1", "q2"), ("q3", 1))
        _, odd_0, n_0 = mc.parity_weights(weights, qubits, ("q1", "q2"), ("q3", 0))
        return {"even_given_1": float(mc.share(even_1, n_1)),
                "odd_given_0": float(mc.share(odd_0, n_0)), "n_1": n_1, "n_0": n_0}

    @staticmethod
    def per_trial_loop(outcomes):
        # reference: count the trials one by one, as outcome bit triples
        n_e1 = n_1 = n_o0 = n_0 = 0
        for idx in outcomes:
            b1, b2, b3 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            if b3 == 1:
                n_1 += 1
                n_e1 += int(b1 == b2)
            else:
                n_0 += 1
                n_o0 += int(b1 != b2)
        return {"even_given_1": n_e1 / n_1, "odd_given_0": n_o0 / n_0, "n_1": n_1, "n_0": n_0}

    def test_counts_match_per_trial_loop(self):
        outcomes = RNG(6).integers(8, size=500)
        got = self.correlations(np.bincount(outcomes, minlength=8))
        assert got == self.per_trial_loop(outcomes)

    def test_remote_qubit_first_in_the_register(self):
        # The same trials over the register (q3, q1, q2): the bits are
        # found by name, not by position.
        outcomes = RNG(6).integers(8, size=500)
        reordered = ((outcomes & 1) << 2) | (outcomes >> 1)
        got = self.correlations(np.bincount(reordered, minlength=8), ("q3", "q1", "q2"))
        assert got == self.per_trial_loop(outcomes)

    def test_probabilities_and_empty_conditions(self):
        probs = np.zeros(8)
        probs[0b001] = probs[0b111] = 0.25  # q3 = 1, even
        probs[0b010] = probs[0b100] = 0.25  # q3 = 0, odd
        got = self.correlations(probs)
        assert got["even_given_1"] == pytest.approx(1.0, abs=1e-15)
        assert got["odd_given_0"] == pytest.approx(1.0, abs=1e-15)
        empty = self.correlations(np.zeros(8))
        assert empty["even_given_1"] == 0.0 and empty["odd_given_0"] == 0.0

    def test_parity_error_is_twice_the_even_frequency_error(self, monkeypatch):
        # Counts of parity 1, -1, 0 and 0.5 over 400 shots: each parity's
        # error is twice that of its even frequency (1 + parity) / 2, and
        # at |parity| = 1 it is the floor 2 / n.
        n = 400
        counts = np.array([[n, 0, 0, 0], [0, n, 0, 0], [100, 100, 100, 100], [250, 50, 50, 50]])
        probs = counts / n
        monkeypatch.setattr(mc, "sample_outcomes", lambda *args: (probs, probs, counts))
        script = ProtocolScript(
            qubits=("q1", "q2"), modules={"A": ("q1", "q2")}, steps=(MeasureStep(),)
        )
        branch = mc.BranchState(phi_d=None, weight=1.0, state=st.basis_state([0, 0], ("q1", "q2")))
        cfg = at(DEFAULTS, shots_per_point=n, seed=1)
        curve = mc.parity_scan(script, cfg, (), [branch], pair=("q1", "q2"))["all"]
        np.testing.assert_array_equal(curve["estimate"], [1.0, -1.0, 0.0, 0.5])
        np.testing.assert_array_equal(
            curve["uncertainty"], 2 * mc.binomial_err((1 + curve["estimate"]) / 2, n)
        )
        np.testing.assert_allclose(
            curve["uncertainty"], [2 / n, 2 / n, 1 / math.sqrt(n), math.sqrt(0.75 / n)],
            rtol=1e-15, atol=0,
        )


class TestFitRate:
    @pytest.mark.parametrize("rate", [0.1, 10.0, 1000.0])
    def test_recovers_synthetic_rate(self, rate):
        rng = RNG(int(rate * 10))
        times = rng.exponential(1.0 / rate, size=5000)
        fit = fit_exponential_rate(times)
        assert abs(fit.rate - rate) < 3 * fit.stderr
        assert fit.ok

    def test_degenerate_input_flagged(self):
        fit = fit_exponential_rate(np.full(500, 0.5))
        assert not fit.ok
        assert fit.ks_stat > KS_STAT_CRITICAL

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_rate([0.1] * 50)


class TestDent:
    def test_reference_value(self):
        assert coherent_entanglement_distance(1.0, 4.5, 1.12) == pytest.approx(
            5.04, abs=1e-12
        )

    def test_unit_throughput(self):
        assert coherent_entanglement_distance(7.3, 2.0, 0.5) == pytest.approx(7.3)

    def test_linear_in_tau(self):
        one = coherent_entanglement_distance(1.0, 4.5, 1.12)
        two = coherent_entanglement_distance(1.0, 4.5, 2.24)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coherent_entanglement_distance(0.0, 4.5, 1.12)
        with pytest.raises(ValueError):
            coherent_entanglement_distance(1.0, -4.5, 1.12)


class TestRngScheme:
    def test_one_stream_per_run(self, monkeypatch):
        calls = []
        real = mc.rng_stream

        def counting(*key):
            calls.append(key)
            return real(*key)

        monkeypatch.setattr(mc, "rng_stream", counting)
        mc.run_protocol(three_qubit_script(), at(DEFAULTS, n_trials=500, seed=4))
        assert calls == [(4, mc.TRIAL_STREAM)]

    @staticmethod
    def scan_counts(monkeypatch, probs, shots, seed, *key):
        # The shots sample_outcomes draws for a scan whose true outcome
        # distributions are the rows of ``probs`` (one branch of weight 1),
        # read out by noiseless individual detectors (the identity channel).
        qubits = tuple(f"q{i}" for i in range(int(math.log2(probs.shape[-1]))))
        script = ProtocolScript(qubits=qubits, modules={"B": qubits}, steps=(MeasureStep(),))
        scenario = at(
            replace(DEFAULTS, detectors=DetectorModel(0.0, 0.0)), shots_per_point=shots, seed=seed
        )
        monkeypatch.setattr(mc, "outcome_table", lambda *args: (np.ones(1), probs[None]))
        return mc.sample_outcomes(script, scenario, [], *key)[2]

    @pytest.mark.parametrize("shots", [1, 7, 10_000])
    @pytest.mark.parametrize("points", [1, 5])
    @pytest.mark.parametrize("outcomes", [2, 4, 8, 64])
    def test_sample_scan_equals_per_row_reference(self, monkeypatch, outcomes, points, shots):
        # Every row has a zero-probability outcome: the first one in even
        # rows, the last one in odd rows, and a middle one when K > 2.
        probs = RNG(outcomes * points).random((points, outcomes)) ** 3 + 0.01
        probs[::2, 0] = 0.0
        probs[1::2, -1] = 0.0
        if outcomes > 2:
            probs[:, outcomes // 2] = 0.0
        want = sample_scan_per_row(probs, shots, 7, 21, 1)
        got = self.scan_counts(monkeypatch, probs, shots, 7, 21, 1)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got.sum(axis=1), shots)

    def test_sample_scan_rows_normalised_within_float_error(self, monkeypatch):
        # Rows that sum to 1 only to rounding are normalised as one row is,
        # so that none of them sums above 1 before its last outcome.
        probs = RNG(11).dirichlet(np.full(8, 0.3), size=40)
        assert not np.all(probs.sum(axis=1) == 1.0)
        np.testing.assert_array_equal(
            self.scan_counts(monkeypatch, probs, 10_000, 3, 22),
            sample_scan_per_row(probs, 10_000, 3, 22),
        )

    @pytest.mark.parametrize("layout", ["broadcast", "fortran"])
    def test_sample_scan_non_contiguous_input(self, monkeypatch, layout):
        # A (P, K) input of one row broadcast over the scan points, or a
        # Fortran-ordered one, gives the counts of the per-row reference.
        rows = RNG(13).random((6, 64)) * 10.0 ** RNG(14).uniform(-3, 3, size=(6, 1))
        if layout == "broadcast":
            probs = np.broadcast_to(rows[0], (6, 64))
        else:
            probs = np.asfortranarray(rows)
        assert not probs.flags.c_contiguous
        got = self.scan_counts(monkeypatch, probs, 10_000, 9, 20, 0)
        np.testing.assert_array_equal(got, sample_scan_per_row(probs, 10_000, 9, 20, 0))

    def test_rng_stream_is_default_rng_of_the_seed_sequence(self):
        for seed, key in ((0, (0,)), (42, (22, 5)), (2**63 + 1, (20, 1, 300))):
            want = RNG(np.random.SeedSequence(entropy=seed, spawn_key=key)).random(8)
            np.testing.assert_array_equal(mc.rng_stream(seed, *key).random(8), want)

    def test_streams_are_independent_and_reproducible(self):
        a1 = mc.rng_stream(42, 0, 7).random(4)
        a2 = mc.rng_stream(42, 0, 7).random(4)
        b = mc.rng_stream(42, 0, 8).random(4)
        c = mc.rng_stream(42, 1, 7).random(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)
