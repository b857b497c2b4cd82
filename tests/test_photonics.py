import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ionnet import photonics as ph
from ionnet import states as st
from ionnet.scenario import (
    CALIBRATED_MODE_OVERLAP,
    LinkBudget,
    LinkErrorModel,
    expected_rate,
    success_probability,
)

from oracles import (
    HeraldEvent,
    bsm,
    bsm_outcome_distribution,
    fock_bsm_distribution,
    herald_remote_pair,
    herald_states_per_pair,
    purity,
)

RNG = np.random.default_rng
LINK = ("qa", "qb")

# single-photon polarization states spanning the process space
SINGLE_POL = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2),
}


class TestBudget:
    def test_success_probability_two_sig_figs(self):
        p = success_probability(LinkBudget())
        assert f"{p:.2g}" == "9.7e-06"

    def test_lossless_limit(self):
        b = LinkBudget(
            p_bell=1.0, p_pi=1.0, p_s_half=1.0, q_e=1.0, t_fib=1.0, t_opt=1.0,
            solid_angle_fraction=1.0,
        )
        assert success_probability(b) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_in_per_photon_factors(self):
        base = LinkBudget()
        halved = LinkBudget(q_e=base.q_e / 2)
        assert success_probability(halved) == pytest.approx(
            success_probability(base) / 4, rel=1e-12
        )

    def test_expected_rate_near_measured(self):
        r = expected_rate(LinkBudget())
        assert abs(r - 4.5) / 4.5 < 0.05

    def test_rate_linear_in_rep_rate(self):
        base = LinkBudget()
        doubled = LinkBudget(rep_rate=base.rep_rate * 2)
        assert expected_rate(doubled) == pytest.approx(
            2 * expected_rate(base), rel=1e-12
        )

    def test_rate_vanishes_with_probability(self):
        dark = LinkBudget(p_pi=0.0)
        assert expected_rate(dark) == 0.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="link_budget.rep_rate"):
            LinkBudget(rep_rate=-1.0)
        with pytest.raises(ValueError, match="q_e"):
            LinkBudget(q_e=1.4)

    @given(
        factor=hst.sampled_from(["p_pi", "p_s_half", "q_e", "t_fib", "t_opt", "solid_angle_fraction", "p_bell"]),
        scale=hst.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_every_factor(self, factor, scale):
        base = LinkBudget()
        reduced = LinkBudget(**{factor: getattr(base, factor) * scale})
        assert success_probability(reduced) <= success_probability(base) + 1e-18


class TestEmission:
    def test_perfect_emission_is_pure(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        s = ph.emit_atom_photon(err, "a", "p")
        assert purity(s) == pytest.approx(1.0, abs=1e-12)
        assert st.fidelity(s, ph.ideal_emission_ket("a", "p")) == pytest.approx(1.0, abs=1e-12)

    def test_configured_fidelity_is_exact(self):
        s = ph.emit_atom_photon(LinkErrorModel(), "a", "p")
        f = st.fidelity(s, ph.ideal_emission_ket("a", "p"))
        assert abs(f - 0.92) < 1e-10

    def test_fully_depolarizing_channel(self):
        err = LinkErrorModel(atom_photon_fidelity=0.25, mode_overlap=1.0)
        s = ph.emit_atom_photon(err, "a", "p")
        np.testing.assert_allclose(s.data, np.eye(4) / 4, atol=1e-12)
        assert st.fidelity(s, ph.ideal_emission_ket("a", "p")) == pytest.approx(0.25, abs=1e-12)


class TestWavePlate:
    def test_sigma_plus_maps_to_horizontal(self):
        s = st.basis_state([0], ["p"])  # sigma+
        out = ph.qwp_map(st.tensor(st.basis_state([0], ["a"]), s), "p")
        target = st.tensor(st.basis_state([0], ["a"]), st.basis_state([0], ["p"]))
        assert st.fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_twice_is_not_identity_but_inverse_is(self):
        u = ph.qwp_matrix()
        assert np.abs(u @ u - np.eye(2)).max() > 0.5
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        s = ph.ideal_emission_ket("a", "p")
        roundtrip = st.apply_unitary(ph.qwp_map(s, "p"), ph.qwp_matrix().conj().T, ["p"])
        assert st.fidelity(roundtrip, s) == pytest.approx(1.0, abs=1e-12)

    def test_post_waveplate_state(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        s = ph.module_emission(err, "a", "p")
        target = st.pure_state(np.array([0, 1, -1j, 0]) / math.sqrt(2), ["a", "p"])
        assert st.fidelity(s, target) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(st.StateError):
            ph.qwp_map(ph.ideal_emission_ket("a", "p"), "nope")


def photon_pair_state(name1: str, name2: str) -> st.QuantumState:
    amps = np.kron(SINGLE_POL[name1], SINGLE_POL[name2])
    return st.pure_state(amps, ["p1", "p2"])


class TestBSMOracle:
    @pytest.mark.parametrize("v", [1.0, 0.9, 0.5, 0.0])
    def test_distribution_matches_fock_enumeration(self, v):
        # all 16 product basis inputs from a tomographically complete set
        for n1, n2 in itertools.product(SINGLE_POL, repeat=2):
            s = photon_pair_state(n1, n2)
            amp = np.outer(SINGLE_POL[n1], SINGLE_POL[n2])
            got = bsm_outcome_distribution(s, ["p1", "p2"], v)
            want = fock_bsm_distribution(amp, v)
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-10), (n1, n2, v, key)

    def test_povm_completeness(self):
        for v in (1.0, 0.8, 0.3, 0.0):
            total = np.zeros((4, 4), dtype=complex)
            for kraus in ph.bsm_kraus_operators(v).values():
                for k in kraus:
                    total += k.conj().T @ k
            no_herald = np.diag([1.0, 0.0, 0.0, 1.0])  # |HH><HH| + |VV><VV|
            np.testing.assert_allclose(total + no_herald, np.eye(4), atol=1e-12)

    def test_same_polarization_never_heralds(self):
        dist = bsm_outcome_distribution(photon_pair_state("H", "H"), ["p1", "p2"], 1.0)
        assert dist[None] == pytest.approx(1.0, abs=1e-12)
        # also with distinguishable photons: bunching or invalid pairs only
        dist = bsm_outcome_distribution(photon_pair_state("V", "V"), ["p1", "p2"], 0.4)
        assert dist[None] == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric_state_heralds_on_cross_pairs(self):
        amps = (np.kron(SINGLE_POL["H"], SINGLE_POL["V"]) - np.kron(SINGLE_POL["V"], SINGLE_POL["H"])) / math.sqrt(2)
        s = st.pure_state(amps, ["p1", "p2"])
        dist = bsm_outcome_distribution(s, ["p1", "p2"], 1.0)
        assert dist[(1, 3)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(2, 4)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(1, 2)] == pytest.approx(0.0, abs=1e-12)
        assert dist[(3, 4)] == pytest.approx(0.0, abs=1e-12)

    def test_ideal_emissions_herald_half_the_time(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        joint = st.tensor(
            ph.module_emission(err, "a", "p1"), ph.module_emission(err, "b", "p2")
        )
        dist = bsm_outcome_distribution(joint, ["p1", "p2"], 1.0)
        herald = sum(v for k, v in dist.items() if k is not None)
        assert herald == pytest.approx(0.5, abs=1e-12)

    def test_sampled_bsm_follows_distribution(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        joint = st.tensor(
            ph.module_emission(err, "a", "p1"), ph.module_emission(err, "b", "p2")
        )
        photons = st.partial_trace(joint, ["p1", "p2"])
        rng = RNG(23)
        n = 3000
        counts = {pair: 0 for pair in ph.DETECTOR_PAIRS}
        none = 0
        for _ in range(n):
            ev = bsm(photons, 1.0, rng)
            if ev is None:
                none += 1
            else:
                counts[ev.detector_pair] += 1
                assert ev.phi_d == ph.DETECTOR_PAIRS[ev.detector_pair]
        assert abs(none - n / 2) < 3 * math.sqrt(n * 0.25)
        for pair in counts:
            assert abs(counts[pair] - n / 8) < 4 * math.sqrt(n * 0.125 * 0.875)


class TestHerald:
    def test_ideal_limit(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        for phi_d, prob, state in ph.conditional_herald_states(err, LINK):
            assert prob == pytest.approx(0.25, abs=1e-12)  # 1/8 per detector pair
            target = ph.heralded_bell_ket(LINK, phi_d)
            assert st.fidelity(state, target) == pytest.approx(1.0, abs=1e-12)

    def test_branches_follow_the_detector_phases(self):
        got = [phi_d for phi_d, _, _ in ph.conditional_herald_states(LinkErrorModel(), LINK)]
        assert got == list(ph.DETECTOR_PHASES) == sorted(set(ph.DETECTOR_PAIRS.values()))

    def test_calibrated_fidelity(self):
        err = LinkErrorModel()
        for phi_d, _, state in ph.conditional_herald_states(err, LINK):
            target = ph.heralded_bell_ket(LINK, phi_d)
            assert abs(st.fidelity(state, target) - 0.79) < 0.02

    def test_branches_related_by_z(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        branches = {phi_d: state for phi_d, _, state in ph.conditional_herald_states(err, LINK)}
        z_flipped = st.apply_unitary(branches[math.pi], np.diag([1, -1]), ["qa"])
        target = ph.heralded_bell_ket(LINK, 0.0)
        assert st.fidelity(z_flipped, target) == pytest.approx(1.0, abs=1e-12)

    def test_transfer_phase_applied(self):
        err = LinkErrorModel(atom_photon_fidelity=1.0, mode_overlap=1.0)
        dphi = 0.37
        for phi_d, _, state in ph.conditional_herald_states(err, LINK, transfer_phase=dphi):
            target = ph.heralded_bell_ket(LINK, phi_d + dphi)
            assert st.fidelity(state, target) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fidelity", [0.25, 0.5, 0.92, 1.0])
    @pytest.mark.parametrize("overlap", [0.0, 0.3, CALIBRATED_MODE_OVERLAP, 1.0])
    @pytest.mark.parametrize("transfer_phase", [0.0, 0.7])
    def test_equals_per_pair_oracle_bit_for_bit(self, fidelity, overlap, transfer_phase):
        err = LinkErrorModel(atom_photon_fidelity=fidelity, mode_overlap=overlap)
        got = ph.conditional_herald_states(err, LINK, transfer_phase)
        want = herald_states_per_pair(err, LINK, transfer_phase)
        assert [(phi_d, prob) for phi_d, prob, _ in got] == [
            (phi_d, prob) for phi_d, prob, _ in want
        ]
        for (_, _, state), (_, _, expected) in zip(got, want):
            assert np.array_equal(state.data, expected.data)
            assert state.data.tobytes() == expected.data.tobytes()  # signed zeros too

    def test_states_physical_for_noisy_configs(self):
        for f, v in ((0.9, 0.8), (0.75, 0.5), (0.92, 1.0), (1.0, 0.6)):
            err = LinkErrorModel(atom_photon_fidelity=f, mode_overlap=v)
            for _, prob, state in ph.conditional_herald_states(err, LINK):
                rho = state.data
                assert prob > 0
                assert abs(rho.trace().real - 1) < 1e-12
                assert np.abs(rho - rho.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_sampled_herald_event_consistency(self):
        err = LinkErrorModel()
        rng = RNG(5)
        seen_none = seen_event = False
        for _ in range(50):
            res = herald_remote_pair(err, LINK, rng)
            if res is None:
                seen_none = True
                continue
            seen_event = True
            phi_d, state = res
            assert state.labels == LINK
            assert phi_d in ph.DETECTOR_PAIRS.values()
        assert seen_none and seen_event


class TestHeraldEvent:
    def test_phi_d_consistency_enforced(self):
        with pytest.raises(ValueError):
            HeraldEvent(detector_pair=(1, 2), phi_d=math.pi)
        with pytest.raises(ValueError):
            HeraldEvent(detector_pair=(1, 4), phi_d=0.0)
        ev = HeraldEvent(detector_pair=(2, 4), phi_d=math.pi)
        assert ev.phi_d == ph.DETECTOR_PAIRS[ev.detector_pair]
