import math

import numpy as np
import pytest

from ionnet import states as st
from ionnet.gates import rotation_matrix
from ionnet.scenario import MemoryDecoherence, PhaseLedger
from ionnet.states import free_evolution

from oracles import random_density

RNG = np.random.default_rng


def odd_pair(phase=0.0, labels=("a", "b")):
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / math.sqrt(2)
    amps[2] = np.exp(1j * phase) / math.sqrt(2)
    return st.QuantumState(labels, amps)


class TestPhiAB:
    """The phase ledger's static geometric terms."""

    def test_geometric_terms_are_small_at_defaults(self):
        ledger = PhaseLedger()
        assert abs(ledger.k * ledger.c * ledger.delta_tau) < 1e-2
        assert abs(ledger.k * ledger.delta_x) < 1e-2
        assert ledger.k * ledger.c * ledger.delta_tau == pytest.approx(9.893e-3, rel=1e-3)
        assert not ledger.warnings()

    def test_warning_on_large_geometry(self):
        ledger = PhaseLedger(delta_tau=1e-8)
        assert any("delta_tau" in w for w in ledger.warnings())


def evolve(s, ledger, deco, t):
    """Free evolution of the stored pair ("a", "b"), "b" in module B."""
    tau_s = deco.tau_s if deco is not None else math.inf
    return free_evolution(s, t, ledger.delta_omega_ab, ["b"], [["a", "b"]], tau_s)


PAIR_CASES = {
    "one pair": (["a1", "b1"], ["b1"], [["a1", "b1"]]),
    "two pairs": (["a1", "b1", "a2", "b2"], ["b1", "b2"], [["a1", "b1"], ["a2", "b2"]]),
}


@pytest.mark.parametrize("case", PAIR_CASES)
@pytest.mark.parametrize("t", [3.3e-4, np.array([0.0, 1.2e-4, 0.7, 2.5])], ids=["scalar", "array"])
@pytest.mark.parametrize("tau_s", [0.9, math.inf])
def test_free_evolution_is_phases_then_pair_dephasing(case, t, tau_s):
    labels, b_atoms, pairs = PAIR_CASES[case]
    rng = RNG(len(labels))
    s = st.QuantumState(labels, random_density(2 ** len(labels), rng))
    omega = 2 * math.pi * 2.5e3
    want = s
    for q in b_atoms:
        want = st.apply_phase(want, q, -omega * np.asarray(t))
    for pair in pairs:
        want = st.dephase_pair(want, pair, np.exp(-np.asarray(t) / tau_s))
    got = free_evolution(s, t, omega, b_atoms, pairs, tau_s)
    assert got.data.shape == want.data.shape
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-15)


class TestEvolve:
    def ledger(self, **kw):
        base = dict(delta_omega_ab=2 * math.pi * 2.5e3, k=0.0, delta_tau=0.0, delta_x=0.0)
        base.update(kw)
        return PhaseLedger(**base)

    def test_zero_time_identity(self):
        s = odd_pair(0.3)
        out = evolve(s, self.ledger(), None, 0.0)
        assert st.fidelity(out, s) == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(odd_pair(), self.ledger(), None, -1e-3)

    def test_phase_accumulates(self):
        ledger = self.ledger()
        t = 3.3e-4
        out = evolve(odd_pair(0.0), ledger, None, t)
        target = odd_pair(ledger.delta_omega_ab * t)
        assert st.fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_populations_preserved_exactly(self):
        deco = MemoryDecoherence(tau_s=0.7)
        s = odd_pair(0.2)
        out = evolve(s, self.ledger(), deco, 0.5)
        np.testing.assert_allclose(
            np.diag(out.data), np.diag(s.data), atol=1e-14
        )

    def test_semigroup_composition(self):
        deco = MemoryDecoherence(tau_s=1.12)
        ledger = self.ledger()
        s = odd_pair(0.1)
        t1, t2 = 0.4, 0.9
        once = evolve(s, ledger, deco, t1 + t2)
        twice = evolve(evolve(s, ledger, deco, t1), ledger, deco, t2)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-12)

    def test_decay_oracle_at_one_tau(self):
        # fidelity against the phase-tracked ket after one coherence time
        tau = 1.12
        deco = MemoryDecoherence(tau_s=tau)
        ledger = self.ledger()
        out = evolve(odd_pair(0.0), ledger, deco, tau)
        tracked = odd_pair(ledger.delta_omega_ab * tau)
        expect = (1.0 + math.exp(-1.0)) / 2.0
        assert st.fidelity(out, tracked) == pytest.approx(expect, abs=1e-12)

    def test_branches_oscillate_out_of_phase(self):
        # the phi_d = 0 and pi branches give population fringes offset by pi
        ledger = self.ledger()
        deco = None
        delays = np.linspace(0, 8e-4, 40)
        even_pops = {0.0: [], math.pi: []}
        for phi_d in even_pops:
            for t in delays:
                s = odd_pair(phi_d)
                out = evolve(s, ledger, deco, float(t))
                pulse = rotation_matrix(math.pi / 2, 0.0)
                out = st.apply_unitary(st.apply_unitary(out, pulse, ["a"]), pulse, ["b"])
                p = st.outcome_probabilities(out, ["a", "b"])
                even_pops[phi_d].append(p[0] + p[3])
        a = np.array(even_pops[0.0])
        b = np.array(even_pops[math.pi])
        # out of phase: P_even(phi_d=0) + P_even(phi_d=pi) = 1 at every delay
        np.testing.assert_allclose(a + b, np.ones_like(a), atol=1e-12)
        expect = (1 + np.cos(ledger.delta_omega_ab * delays)) / 2
        np.testing.assert_allclose(a, expect, atol=1e-12)

    def test_fidelity_decay_fit_recovers_tau(self):
        from ionnet.fitting import fit_exponential_decay

        tau = 1.12
        deco = MemoryDecoherence(tau_s=tau)
        ledger = self.ledger()
        delays = np.linspace(0.0, 3.0, 16)
        cohs = []
        for t in delays:
            out = evolve(odd_pair(), ledger, deco, float(t))
            tracked = odd_pair(ledger.delta_omega_ab * float(t))
            cohs.append(2.0 * st.fidelity(out, tracked) - 1.0)
        fit = fit_exponential_decay(delays, cohs)
        assert abs(fit.tau - tau) / tau < 0.02

    def test_invalid_decoherence(self):
        with pytest.raises(ValueError):
            MemoryDecoherence(tau_s=0.0)
