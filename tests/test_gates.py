import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ionnet import gates as g
from ionnet import states as st
from ionnet.scenario import GateSettings

from oracles import ms_gate_trajectory, parity_expectation, purity

RNG = np.random.default_rng


def even_bell(phi_a, labels=("q1", "q2")):
    amps = np.array([1.0, 0.0, 0.0, -1j * np.exp(-1j * phi_a)]) / math.sqrt(2.0)
    return st.pure_state(amps, labels)


class TestMSGate:
    def test_creates_even_bell(self):
        s = st.basis_state([0, 0], ["q1", "q2"])
        out = g.ms_gate(s, ["q1", "q2"], 0.0)
        assert st.fidelity(out, even_bell(0.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi_a", np.linspace(0, 2 * math.pi, 16, endpoint=False))
    def test_unitary_on_grid(self, phi_a):
        u = g.ms_unitary(phi_a)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_double_application_matches_matrix_square(self):
        # independent oracle: square the 4x4 matrix and apply once
        u = g.ms_unitary(0.0)
        s = st.basis_state([0, 1], ["q1", "q2"])
        twice = g.ms_gate(g.ms_gate(s, ["q1", "q2"], 0.0), ["q1", "q2"], 0.0)
        oracle = st.apply_unitary(s, u @ u, ["q1", "q2"])
        assert st.fidelity(twice, oracle) == pytest.approx(1.0, abs=1e-12)
        # the odd subspace rotates into (|01> - 2i|10> - |01>)/2 form
        expected = np.zeros(4, dtype=complex)
        expected[1] = 0.0
        expected[2] = -1j
        oracle_vec = (u @ u) @ np.array([0, 1, 0, 0], dtype=complex)
        np.testing.assert_allclose(oracle_vec, expected, atol=1e-12)

    def test_calibrated_noise_fidelity(self):
        s = st.basis_state([0, 0], ["q1", "q2"])
        out = g.ms_gate(s, ["q1", "q2"], 0.0, GateSettings().depolarizing_p)
        f = st.fidelity(out, even_bell(0.0))
        assert abs(f - 0.85) < 0.01

    def test_even_population_with_noise(self):
        s = st.basis_state([0, 0], ["q1", "q2"])
        out = g.ms_gate(s, ["q1", "q2"], 0.0, GateSettings().depolarizing_p)
        p = st.outcome_probabilities(out, ["q1", "q2"])
        assert p[0] + p[3] >= 0.90 - 1e-12

    def test_even_population_noiseless_is_one(self):
        for phi_a in (0.0, 0.8, 2.5):
            out = g.ms_gate(st.basis_state([0, 0], ["q1", "q2"]), ["q1", "q2"], phi_a)
            p = st.outcome_probabilities(out, ["q1", "q2"])
            assert p[0] + p[3] == pytest.approx(1.0, abs=1e-12)

    def test_identical_labels_rejected(self):
        s = st.basis_state([0, 0], ["q1", "q2"])
        with pytest.raises(st.StateError):
            g.ms_gate(s, ["q1", "q1"], 0.0)

    def test_trajectory_matches_channel(self):
        # trajectory unravelling over many shots converges to the channel
        s = st.basis_state([0, 0], ["q1", "q2"])
        p = 0.5
        exact = g.ms_gate(s, ["q1", "q2"], 0.3, p)
        p_exact = st.outcome_probabilities(exact, ["q1", "q2"])
        rng = RNG(12)
        n = 4000
        acc = np.zeros(4)
        for _ in range(n):
            out = ms_gate_trajectory(s, ["q1", "q2"], 0.3, p, rng)
            assert purity(out) == pytest.approx(1.0, abs=1e-12)  # trajectories stay pure
            acc += st.outcome_probabilities(out, ["q1", "q2"])
        acc /= n
        assert np.abs(acc - p_exact).max() < 4.0 / math.sqrt(n)


class TestParityConvention:
    def test_parity_grid(self):
        # acceptance-critical: parity after analysis pulses reads
        # cos(phi_a - 2 phi) to 1e-10 on a 16 x 16 grid
        phis_a = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        for phi_a in phis_a:
            s0 = g.ms_gate(st.basis_state([0, 0], ["q1", "q2"]), ["q1", "q2"], phi_a)
            for phi in phis:
                out = g.analysis_rotation(s0, ["q1", "q2"], math.pi / 2, phi)
                par = parity_expectation(out, ["q1", "q2"])
                assert abs(par - math.cos(phi_a - 2 * phi)) < 1e-10

    def test_even_bell_analysis(self):
        # the documented analysis convention applied to the raw state
        for phi_a in (0.0, 0.7, 2.1):
            for phi in (0.0, 0.4, 1.3):
                out = g.analysis_rotation(even_bell(phi_a), ["q1", "q2"], math.pi / 2, phi)
                par = parity_expectation(out, ["q1", "q2"])
                assert par == pytest.approx(math.cos(phi_a - 2 * phi), abs=1e-10)

    def test_odd_fringe_is_axis_independent(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0 / math.sqrt(2)
        amps[2] = np.exp(0.9j) / math.sqrt(2)
        s = st.pure_state(amps, ["a", "b"])
        pars = []
        for phi in (0.0, 0.3, 1.0, 2.2):
            out = g.analysis_rotation(s, ["a", "b"], math.pi / 2, phi)
            pars.append(parity_expectation(out, ["a", "b"]))
        assert np.ptp(pars) < 1e-12
        assert pars[0] == pytest.approx(math.cos(0.9), abs=1e-12)


class TestRotation:
    def test_pi_pulse(self):
        out = st.apply_unitary(st.basis_state([0], ["a"]), g.rotation_matrix(math.pi, 0.0), ["a"])
        assert st.fidelity(out, st.basis_state([1], ["a"])) == pytest.approx(1.0, abs=1e-12)

    def test_inverse(self):
        u = g.rotation_matrix(1.1, 0.6) @ g.rotation_matrix(-1.1, 0.6)
        assert np.abs(u - np.eye(2)).max() < 1e-12

    def test_zero_angle_is_identity(self):
        assert np.abs(g.rotation_matrix(0.0, 1.234) - np.eye(2)).max() < 1e-15

    def test_unknown_label_rejected(self):
        with pytest.raises(st.StateError):
            st.apply_unitary(st.basis_state([0], ["a"]), g.rotation_matrix(1.0, 0.0), ["b"])


class TestSpinEcho:
    def make_pair(self, phase=0.4):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0 / math.sqrt(2)
        amps[2] = np.exp(1j * phase) / math.sqrt(2)
        return st.pure_state(amps, ["a", "b"])

    def test_zero_delay_equals_plain_analysis(self):
        s = self.make_pair()
        out = g.spin_echo_ramsey(s, ["a", "b"], 0.0, 2 * math.pi * 2.5e3, 0.3)
        pulse = g.rotation_matrix(math.pi / 2, 0.3)
        plain = st.apply_unitary(st.apply_unitary(s, pulse, ["a"]), pulse, ["b"])
        assert st.fidelity(out, plain) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delay", [0.01, 0.37, 1.0, 2.9])
    def test_static_gradient_cancels(self, delay):
        s = self.make_pair()
        base = g.spin_echo_ramsey(s, ["a", "b"], 0.0, 2 * math.pi * 2.5e3, 0.3)
        p0 = parity_expectation(base, ["a", "b"])
        out = g.spin_echo_ramsey(s, ["a", "b"], delay, 2 * math.pi * 2.5e3, 0.3)
        assert abs(parity_expectation(out, ["a", "b"]) - p0) < 1e-10

    def test_decay_recovers_tau(self):
        from ionnet.fitting import fit_exponential_decay

        tau = 1.12
        s = self.make_pair(phase=0.0)
        delays = np.linspace(0.0, 3.0, 12)
        mags = []
        for d in delays:
            out = g.spin_echo_ramsey(
                s, ["a", "b"], float(d), 2 * math.pi * 2.5e3, 0.0, coherence_time_s=tau
            )
            mags.append(abs(parity_expectation(out, ["a", "b"])))
        fit = fit_exponential_decay(delays, mags)
        assert abs(fit.tau - tau) / tau < 0.02

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            g.spin_echo_ramsey(self.make_pair(), ["a", "b"], -1.0, 0.0, 0.0)


class TestGateTiming:
    """The gate schedule derived from the detuning of ``GateSettings``."""

    def test_reference_detuning(self):
        t = GateSettings()
        assert t.detuning_hz == 20e3
        assert t.gate_time_s == pytest.approx(1e-4, rel=1e-12)
        assert t.phase_flip_time_s == pytest.approx(5e-5, rel=1e-12)
        assert t.sideband_rabi_hz == pytest.approx(7071.0678, rel=1e-7)

    def test_slow_detuning(self):
        assert GateSettings(detuning_hz=2.0).gate_time_s == pytest.approx(1.0, rel=1e-12)

    def test_roundtrip_relation(self):
        t = GateSettings(detuning_hz=13321.7)
        assert t.sideband_rabi_hz * 2**1.5 == pytest.approx(13321.7, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=r"gate\.detuning_hz"):
            GateSettings(detuning_hz=0.0)
        with pytest.raises(ValueError, match=r"gate\.detuning_hz"):
            GateSettings(detuning_hz=-5.0)

    @given(hst.floats(min_value=1e-3, max_value=1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold_for_random_detunings(self, detuning):
        t = GateSettings(detuning_hz=detuning)
        assert t.gate_time_s == pytest.approx(2.0 / detuning, rel=1e-12)
        assert t.phase_flip_time_s == pytest.approx(t.gate_time_s / 2, rel=1e-12)
        assert t.sideband_rabi_hz == pytest.approx(detuning / 2**1.5, rel=1e-12)
