import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ionnet import states as st

from oracles import haar_unitary, measure, parity_expectation, random_density, random_pure

RNG = np.random.default_rng


def bell(phase=0.0, labels=("a", "b"), odd=True):
    amps = np.zeros(4, dtype=complex)
    if odd:
        amps[1] = 1.0
        amps[2] = np.exp(1j * phase)
    else:
        amps[0] = 1.0
        amps[3] = np.exp(1j * phase)
    return st.pure_state(amps / math.sqrt(2.0), labels)


class TestConstruction:
    def test_rejects_register_above_cap(self):
        labels = [f"q{i}" for i in range(7)]
        amps = np.zeros(2**7)
        amps[0] = 1.0
        with pytest.raises(st.StateError):
            st.pure_state(amps, labels)

    def test_cap_is_configurable(self):
        labels = [f"q{i}" for i in range(7)]
        amps = np.zeros(2**7)
        amps[0] = 1.0
        s = st.QuantumState(labels, amps, max_subsystems=8)
        assert s.n_subsystems == 7

    def test_rejects_duplicate_labels(self):
        with pytest.raises(st.StateError):
            st.basis_state([0, 0], ["a", "a"])

    def test_amplitudes_stored_as_projector(self):
        amps = np.array([0.6, 0.8j])
        s = st.pure_state(amps, ["a"])
        np.testing.assert_allclose(s.data, np.outer(amps, amps.conj()), atol=1e-15)

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(st.StateError):
            st.pure_state([1.0, 1.0], ["a"])

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(st.StateError):
            st.mixed_state(rho, ["a"])

    def test_rejects_negative_eigenvalue(self):
        rho = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(st.StateError):
            st.mixed_state(rho, ["a"])

    def test_rejects_wrong_trace(self):
        with pytest.raises(st.StateError):
            st.mixed_state(np.eye(2, dtype=complex), ["a"])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: st.mixed_state(np.full((2, 2), np.nan), ["a"]),
            lambda: st.pure_state([math.nan, 1.0], ["a"]),
            lambda: st.mixed_state(np.stack([np.eye(2) / 2, np.full((2, 2), np.nan)]), ["a"]),
            lambda: st.mixed_state(np.diag([math.inf, 0.0]), ["a"]),
        ],
        ids=["nan-matrix", "nan-amplitude", "nan-in-stack", "inf-diagonal"],
    )
    def test_rejects_non_finite_data(self, make):
        # Every comparison with NaN is false, so each tolerance test is
        # written to fail on it.
        with pytest.raises(st.StateError):
            make()


def with_spectrum(eigenvalues, rng) -> np.ndarray:
    """A Hermitian matrix with the given eigenvalues in a Haar-random basis."""
    u = haar_unitary(len(eigenvalues), rng)
    return u @ np.diag(eigenvalues) @ u.conj().T


def lowest_named(message: str) -> float:
    return float(re.search(r"negative eigenvalue (\S+)", message).group(1))


class TestPositivity:
    """The constructor rejects exactly the stacks with an eigenvalue
    below EIGENVALUE_FLOOR (-1e-10), and names the lowest one."""

    def test_stack_with_one_matrix_below_floor_rejected(self):
        rng = RNG(3)
        stack = np.stack([random_density(4, rng) for _ in range(16)])
        stack[9] = with_spectrum([0.5, 0.3, 0.2 + 2e-10, -2e-10], rng)
        with pytest.raises(st.StateError, match="negative eigenvalue") as info:
            st.mixed_state(stack, ["a", "b"])
        assert lowest_named(str(info.value)) == pytest.approx(-2e-10, abs=1e-15)

    def test_eigenvalue_above_floor_accepted(self):
        rng = RNG(4)
        stack = np.stack(
            [random_density(4, rng), with_spectrum([0.6, 0.3, 0.1 + 5e-11, -5e-11], rng)]
        )
        s = st.mixed_state(stack, ["a", "b"])
        assert s.batch_shape == (2,)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_pure_states_accepted(self, dim):
        rng = RNG(dim)
        labels = ["a", "b", "c"][: dim.bit_length() - 1]
        stack = np.stack([np.outer(psi, psi.conj()) for psi in
                          (random_pure(dim, rng) for _ in range(32))])
        assert st.mixed_state(stack, labels).batch_shape == (32,)

    def test_scan_stack_accepted(self):
        rng = RNG(96)
        stack = np.stack([random_density(8, rng, rank=1 + i % 8) for i in range(96)])
        assert st.mixed_state(stack, ["a", "b", "c"]).batch_shape == (96,)


@given(
    seed=hst.integers(min_value=0, max_value=2**31),
    n=hst.integers(min_value=1, max_value=3),
    points=hst.integers(min_value=1, max_value=8),
    exponent=hst.floats(min_value=-13.0, max_value=-1.0),
    below=hst.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_positivity_rule_matches_eigenvalues(seed, n, points, exponent, below):
    # The lowest eigenvalue of one matrix of the stack sits at least
    # 1e-13 from the floor, on either side; the rest are states.
    rng = RNG(seed)
    dim = 2**n
    lowest = st.EIGENVALUE_FLOOR + (-1.0 if below else 1.0) * 10.0**exponent
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - lowest)
    stack = np.stack([random_density(dim, rng) for _ in range(points)])
    stack[int(rng.integers(points))] = with_spectrum([lowest, *rest], rng)
    labels = [f"q{i}" for i in range(n)]
    expected = np.linalg.eigvalsh(stack).min() >= st.EIGENVALUE_FLOOR
    try:
        st.mixed_state(stack, labels)
        accepted = True
    except st.StateError:
        accepted = False
    assert accepted == expected


class TestTensor:
    def test_basis_product(self):
        out = st.tensor(st.basis_state([0], ["a"]), st.basis_state([0], ["b"]))
        np.testing.assert_allclose(out.data, np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_superposition_distributes(self):
        plus = st.pure_state(np.array([1, 1]) / math.sqrt(2), ["a"])
        one = st.basis_state([1], ["b"])
        out = st.tensor(plus, one)
        psi = np.array([0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2)])
        np.testing.assert_allclose(out.data, np.outer(psi, psi), atol=1e-15)

    def test_mixed_kron_oracle(self):
        rng = RNG(0)
        rho = random_density(2, rng)
        a = st.mixed_state(rho, ["a"])
        b = st.basis_state([0], ["b"])
        out = st.tensor(a, b)
        expected = np.kron(rho, np.array([[1, 0], [0, 0]], dtype=complex))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        assert abs(out.data.trace() - 1) < 1e-12

    def test_label_collision_rejected(self):
        with pytest.raises(st.StateError):
            st.tensor(st.basis_state([0], ["a"]), st.basis_state([0], ["a"]))


class TestApplyUnitary:
    def test_identity(self):
        s = st.basis_state([0, 1], ["a", "b"])
        out = st.apply_unitary(s, np.eye(2), ["a"])
        np.testing.assert_allclose(out.data, s.data, atol=1e-15)

    def test_bit_flip_on_second_qubit(self):
        s = st.basis_state([0, 0], ["a", "b"])
        x = np.array([[0, 1], [1, 0]])
        out = st.apply_unitary(s, x, ["b"])
        np.testing.assert_allclose(out.data, st.basis_state([0, 1], ["a", "b"]).data, atol=1e-15)

    def test_hadamard_measure_statistics(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        s = st.apply_unitary(st.basis_state([0, 0], ["a", "b"]), h, ["a"])
        rng = RNG(11)
        n = 10_000
        ones = 0
        probs = st.outcome_probabilities(s, ["a"])
        outcomes = rng.choice(2, size=n, p=probs)
        ones = int(outcomes.sum())
        # binomial 3 sigma around n/2
        assert abs(ones - n / 2) < 3 * math.sqrt(n * 0.25)

    def test_rejects_non_unitary(self):
        s = st.basis_state([0], ["a"])
        with pytest.raises(st.StateError):
            st.apply_unitary(s, np.array([[1, 0], [0, 2.0]]), ["a"])

    def test_rejects_unknown_label(self):
        s = st.basis_state([0], ["a"])
        with pytest.raises(st.StateError):
            st.apply_unitary(s, np.eye(2), ["zz"])

    @pytest.mark.parametrize("n,targets", [(2, ["a"]), (3, ["c", "a"]), (3, ["b"])])
    def test_norm_preserved_random_unitaries(self, n, targets):
        rng = RNG(hash((n, tuple(targets))) % 2**32)
        labels = ["a", "b", "c"][:n]
        psi = random_pure(2**n, rng)
        s = st.pure_state(psi, labels)
        u = haar_unitary(2 ** len(targets), rng)
        out = st.apply_unitary(s, u, targets)
        # Frobenius norm sqrt(tr rho^2): the state stays pure
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_apply_to_each_is_one_apply_unitary_per_target(self):
        rng = RNG(6)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        u = np.stack([haar_unitary(2, rng) for _ in range(5)])
        expected = st.apply_unitary(st.apply_unitary(s, u, ["c"]), u, ["a"])
        out = st.apply_to_each(s, u, ["c", "a"])
        assert out.data.tobytes() == expected.data.tobytes()

    def test_apply_to_each_rejects_duplicates_and_non_unitary(self):
        s = st.basis_state([0, 0], ["a", "b"])
        with pytest.raises(st.StateError, match="duplicate targets"):
            st.apply_to_each(s, np.eye(2), ["a", "a"])
        with pytest.raises(st.StateError, match="not unitary"):
            st.apply_to_each(s, np.array([[1, 0], [0, 2.0]]), ["a", "b"])

    def test_trace_preserved_mixed(self):
        rng = RNG(5)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        u = haar_unitary(4, rng)
        out = st.apply_unitary(s, u, ["c", "a"])
        assert abs(out.data.trace().real - 1.0) < 1e-12
        # identity on the non-target: reduced state of b unchanged
        rb_before = st.partial_trace(s, ["b"]).data
        rb_after = st.partial_trace(out, ["b"]).data
        np.testing.assert_allclose(rb_before, rb_after, atol=1e-12)


def lifted_oracle(u: np.ndarray, axes: tuple[int, ...], n: int) -> np.ndarray:
    """``u`` on ``axes`` of an n-subsystem register as a full matrix:
    u (x) I with the targets first, then an explicit basis permutation
    into register order (first subsystem most significant)."""
    others = [ax for ax in range(n) if ax not in axes]
    full = np.kron(u, np.eye(2 ** len(others)))
    order = list(axes) + others
    dim = 2**n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - ax)) & 1 for ax in range(n)]
        lifted = 0
        for ax in order:
            lifted = (lifted << 1) | bits[ax]
        perm[lifted, idx] = 1.0
    return perm.T @ full @ perm


# Registers of 1 to 4 subsystems, with each target set that fits.
KERNEL_TARGETS = [
    (n, axes)
    for n in (1, 2, 3, 4)
    for axes in [(0,), (2, 0), (3, 1), (0, 2, 3)]
    if max(axes) < n
]
# (u batch shape, rho batch shape): one of each, stacked u on one rho,
# one u on a stack (of one and of two batch axes), and both stacked with
# broadcasting.
KERNEL_STACKS = [((), ()), ((5,), ()), ((), (4,)), ((), (2, 3)), ((3, 1), (4,))]


@pytest.mark.parametrize("n, axes", KERNEL_TARGETS)
@pytest.mark.parametrize("u_batch, rho_batch", KERNEL_STACKS)
def test_kernel_matches_kron_permutation_oracle(n, axes, u_batch, rho_batch):
    rng = RNG(n * 100 + len(axes))
    k, dim = 2 ** len(axes), 2**n
    u = rng.normal(size=u_batch + (k, k)) + 1j * rng.normal(size=u_batch + (k, k))
    rho = rng.normal(size=rho_batch + (dim, dim)) + 1j * rng.normal(size=rho_batch + (dim, dim))
    got = st._apply_matrix_density(rho, u, axes, n)
    batch = np.broadcast_shapes(u_batch, rho_batch)
    assert got.shape == batch + (dim, dim)
    u_b = np.broadcast_to(u, batch + (k, k))
    rho_b = np.broadcast_to(rho, batch + (dim, dim))
    for idx in np.ndindex(*batch):
        full = lifted_oracle(u_b[idx], axes, n)
        want = full @ rho_b[idx] @ full.conj().T
        np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-13)


def test_kernel_applies_a_kraus_stack_per_operator():
    # A non-unitary Kraus set on two photon modes of a four-subsystem
    # register, as the herald applies it: one output per operator.
    rng = RNG(21)
    rho = random_density(16, rng)
    kraus = np.stack([0.5 * np.outer(v, v.conj()) for v in np.eye(4)[[1, 2]]] + [
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ])
    got = st._apply_matrix_density(rho, kraus, (1, 3), 4)
    for op, out in zip(kraus, got):
        full = lifted_oracle(op, (1, 3), 4)
        np.testing.assert_allclose(out, full @ rho @ full.conj().T, rtol=0, atol=1e-13)


class TestConstantCaches:
    """Constants built once per process are shared read-only."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: st._bits(3),
            lambda: st.basis_state([0, 1], ["a", "b"]).data,
            lambda: st.maximally_mixed(["a", "b"]).data,
        ],
        ids=["bits", "basis_state", "maximally_mixed"],
    )
    def test_read_only_and_repeatable(self, make):
        first = make()
        with pytest.raises(ValueError):
            first[0, 0] = 1
        assert np.array_equal(make(), first)

    def test_basis_state_cache_keys_on_values(self):
        a = st.basis_state([1, 0], ["a", "b"])
        b = st.basis_state((True, 0), ("a", "b"))
        assert a is b
        assert st.basis_state([0, 1], ["a", "b"]).data[1, 1] == 1.0


class TestMeasure:
    def test_eigenstate(self):
        bits, collapsed, prob = measure(st.basis_state([1], ["a"]), ["a"], RNG(0))
        assert bits == (1,)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_bell_collapse(self):
        rng = RNG(3)
        for _ in range(20):
            bits, collapsed, prob = measure(bell(), ["a"], rng)
            assert prob == pytest.approx(0.5, abs=1e-12)
            expect = st.basis_state([bits[0], 1 - bits[0]], ["a", "b"])
            assert st.fidelity(collapsed, expect) == pytest.approx(1.0, abs=1e-12)

    def test_werner_distribution_matches_diagonal(self):
        # Werner state: p * Bell + (1 - p) * I/4
        p = 0.3
        rho = p * bell(odd=False).data + (1 - p) * np.eye(4) / 4
        s = st.mixed_state(rho, ["a", "b"])
        expected = np.diag(rho).real
        rng = RNG(17)
        n = 100_000
        outcomes = rng.choice(4, size=n, p=st.outcome_probabilities(s, ["a", "b"]))
        counts = np.bincount(outcomes, minlength=4)
        for k in range(4):
            sigma = math.sqrt(n * expected[k] * (1 - expected[k]))
            assert abs(counts[k] - n * expected[k]) < 3 * sigma
        # collapse route cross-check on a smaller sample
        sub = 2000
        hits = np.zeros(4)
        for _ in range(sub):
            bits, _, _ = measure(s, ["a", "b"], rng)
            hits[bits[0] * 2 + bits[1]] += 1
        for k in range(4):
            sigma = math.sqrt(sub * expected[k] * (1 - expected[k]))
            assert abs(hits[k] - sub * expected[k]) < 4 * sigma

    def test_empty_targets_rejected(self):
        with pytest.raises(st.StateError):
            measure(bell(), [], RNG(0))

    def test_chi_square_convergence_to_born(self):
        # chi-square goodness of fit at 3 sigma over >= 1e4 shots
        rng = RNG(41)
        amps = np.array([0.5, 0.5j, -0.5, 0.5]) / 1.0
        s = st.pure_state(amps, ["a", "b"])
        expected = st.outcome_probabilities(s, ["a", "b"])
        n = 20_000
        outcomes = rng.choice(4, size=n, p=expected)
        counts = np.bincount(outcomes, minlength=4)
        chi2 = float(((counts - n * expected) ** 2 / (n * expected)).sum())
        dof = 3
        assert chi2 < dof + 3 * math.sqrt(2 * dof)


class TestFidelity:
    def test_self_fidelity(self):
        rng = RNG(2)
        s = st.pure_state(random_pure(4, rng), ["a", "b"])
        assert st.fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_squared(self):
        target = st.pure_state(np.array([1, 0, 0, -1j]) / math.sqrt(2), ["a", "b"])
        s = st.basis_state([0, 0], ["a", "b"])
        assert st.fidelity(s, target) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.6, 1.0])
    def test_depolarized_bell(self, p):
        b = bell(odd=False)
        rho = (1 - p) * b.data + p * np.eye(4) / 4
        s = st.mixed_state(rho, ["a", "b"])
        assert st.fidelity(s, b) == pytest.approx((1 - p) + p / 4, abs=1e-12)

    def test_global_phase_invariance(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        s = st.pure_state(amps, ["a", "b"])
        t = st.pure_state(np.exp(0.7j) * amps, ["a", "b"])
        assert st.fidelity(s, t) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_target_rejected(self):
        with pytest.raises(st.StateError):
            st.fidelity(bell(), st.maximally_mixed(["a", "b"]))

    def test_label_mismatch_rejected(self):
        with pytest.raises(st.StateError):
            st.fidelity(bell(), bell(labels=("x", "y")))


class TestParity:
    def test_even_basis(self):
        assert parity_expectation(st.basis_state([0, 0], ["a", "b"]), ["a", "b"]) == 1.0

    def test_odd_bell(self):
        assert parity_expectation(bell(), ["a", "b"]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_probability_sum(self):
        rng = RNG(9)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        p = st.outcome_probabilities(s, ["a", "c"])
        expect = p[0] + p[3] - p[1] - p[2]
        assert parity_expectation(s, ["a", "c"]) == pytest.approx(expect, abs=1e-12)

    def test_distinct_labels_required(self):
        with pytest.raises(st.StateError):
            parity_expectation(bell(), ["a", "a"])


class TestPartialTrace:
    def test_product_state(self):
        s = st.tensor(st.basis_state([0], ["a"]), st.basis_state([1], ["b"]))
        out = st.partial_trace(s, ["a"])
        np.testing.assert_allclose(out.data, [[1, 0], [0, 0]], atol=1e-14)

    def test_bell_reduces_to_mixed(self):
        out = st.partial_trace(bell(), ["a"])
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)

    def test_nested_equals_direct(self):
        rng = RNG(21)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        direct = st.partial_trace(s, ["a"])
        nested = st.partial_trace(st.partial_trace(s, ["a", "b"]), ["a"])
        np.testing.assert_allclose(direct.data, nested.data, atol=1e-12)
        assert abs(direct.data.trace().real - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(st.StateError):
            st.partial_trace(bell(), [])

    def test_tensor_then_trace_recovers_factors(self):
        rng = RNG(31)
        a = st.pure_state(random_pure(2, rng), ["a"])
        b = st.pure_state(random_pure(4, rng), ["b", "c"])
        joint = st.tensor(a, b)
        np.testing.assert_allclose(
            st.partial_trace(joint, ["a"]).data, a.data, atol=1e-12
        )
        np.testing.assert_allclose(
            st.partial_trace(joint, ["b", "c"]).data, b.data, atol=1e-12
        )


class TestChannels:
    def test_full_depolarize_gives_maximally_mixed(self):
        out = st.depolarize(bell(), ["a", "b"], 1.0)
        np.testing.assert_allclose(out.data, np.eye(4) / 4, atol=1e-12)

    def test_partial_depolarize_preserves_other_marginal(self):
        rng = RNG(4)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        out = st.depolarize(s, ["b"], 0.37)
        np.testing.assert_allclose(
            st.partial_trace(s, ["a", "c"]).data,
            st.partial_trace(out, ["a", "c"]).data,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            st.partial_trace(out, ["b"]).data,
            (1 - 0.37) * st.partial_trace(s, ["b"]).data + 0.37 * np.eye(2) / 2,
            atol=1e-12,
        )

    def test_dephase_preserves_populations(self):
        rng = RNG(6)
        s = st.mixed_state(random_density(4, rng), ["a", "b"])
        out = st.dephase_pair(s, ["a", "b"], 0.5)
        np.testing.assert_allclose(
            np.diag(out.data), np.diag(s.data), atol=1e-14
        )

    def test_dephase_semigroup(self):
        rng = RNG(7)
        s = st.mixed_state(random_density(4, rng), ["a", "b"])
        g1, g2 = 0.8, 0.55
        once = st.dephase_pair(s, ["a", "b"], g1 * g2)
        twice = st.dephase_pair(st.dephase_pair(s, ["a", "b"], g1), ["a", "b"], g2)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-12)

    def test_dephase_is_completely_positive(self):
        # Choi matrix of the pair channel must be positive semidefinite.
        gamma = 0.3
        choi = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                e = np.zeros((4, 4), dtype=complex)
                e[i, j] = 1.0
                # channel acts by Schur factors; reuse implementation on a
                # synthetic non-state operator via direct factor formula
                x1, x2 = (i >> 1) & 1, i & 1
                y1, y2 = (j >> 1) & 1, j & 1
                du = (x1 + x2) - (y1 + y2)
                dw = (x2 - x1) - (y2 - y1)
                factor = gamma ** ((du * du + dw * dw) / 4.0)
                choi += np.kron(e, factor * e)
        eigs = np.linalg.eigvalsh(choi)
        assert eigs.min() > -1e-12

    def test_dephase_scales_pair_coherences(self):
        s = bell(phase=0.4)
        gamma = 0.25
        out = st.dephase_pair(s, ["a", "b"], gamma)
        rho_in = s.data
        rho_out = out.data
        assert rho_out[1, 2] == pytest.approx(gamma * rho_in[1, 2], abs=1e-14)
        even = bell(odd=False)
        out_even = st.dephase_pair(even, ["a", "b"], gamma)
        assert out_even.data[0, 3] == pytest.approx(
            gamma * even.data[0, 3], abs=1e-14
        )

    def test_vanishing_lifetime_decays_without_overflow(self):
        # t / tau_s exceeds the float range at every delay after the first;
        # pytest's filterwarnings fails the test on an overflow warning.
        s = bell(phase=0.4)
        out = st.free_evolution(s, np.linspace(0.0, 3.0, 4), 0.0, [], [("a", "b")], 1e-320)
        np.testing.assert_array_equal(out.data[:, 1, 2], [s.data[1, 2], 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(np.diagonal(out.data, axis1=1, axis2=2),
                                      np.tile(np.diag(s.data), (4, 1)))


def _index(bits: dict, order) -> int:
    """Basis index of the bits ``bits[label]`` with ``order``'s first label
    most significant."""
    return sum(bits[lbl] << (len(order) - 1 - k) for k, lbl in enumerate(order))


def _reduced(rho: np.ndarray, labels, keep) -> np.ndarray:
    """Reduced density matrix of ``keep``, in ``keep``'s order, summed
    element by element over the other labels' bits."""
    rest = [lbl for lbl in labels if lbl not in keep]
    out = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for x in range(2 ** len(keep)):
        for y in range(2 ** len(keep)):
            for z in range(2 ** len(rest)):
                zb = {lbl: (z >> (len(rest) - 1 - k)) & 1 for k, lbl in enumerate(rest)}
                xb = {lbl: (x >> (len(keep) - 1 - k)) & 1 for k, lbl in enumerate(keep)}
                yb = {lbl: (y >> (len(keep) - 1 - k)) & 1 for k, lbl in enumerate(keep)}
                out[x, y] += rho[_index({**xb, **zb}, labels), _index({**yb, **zb}, labels)]
    return out


class TestReplaceSubsystems:
    LABELS = ("a", "b", "c", "d")

    @pytest.mark.parametrize(
        "targets",
        [("b",), ("d",), ("a", "c"), ("d", "a"), ("c", "b"), ("a", "b", "c", "d"), ("d", "b", "a", "c")],
        ids=lambda t: "".join(t),
    )
    def test_product_of_marginals_in_register_order(self, targets):
        rng = RNG(len(targets) + 10 * ord(targets[0]))
        s = st.mixed_state(random_density(16, rng), self.LABELS)
        fresh = st.mixed_state(random_density(2 ** len(targets), rng), targets)
        out = st.replace_subsystems(s, fresh)
        assert out.labels == self.LABELS
        others = [lbl for lbl in self.LABELS if lbl not in targets]
        np.testing.assert_allclose(_reduced(out.data, self.LABELS, targets), fresh.data, atol=1e-12)
        rest = _reduced(s.data, self.LABELS, others) if others else np.ones((1, 1))
        if others:
            np.testing.assert_allclose(_reduced(out.data, self.LABELS, others), rest, atol=1e-12)
        # out[i, j] = rest[i_others, j_others] * fresh[i_targets, j_targets]
        expect = np.zeros((16, 16), dtype=complex)
        for i in range(16):
            for j in range(16):
                ib = dict(zip(self.LABELS, st._bits(4)[i].tolist()))
                jb = dict(zip(self.LABELS, st._bits(4)[j].tolist()))
                expect[i, j] = (
                    rest[_index(ib, others), _index(jb, others)]
                    * fresh.data[_index(ib, targets), _index(jb, targets)]
                )
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_reset_and_depolarize_are_replacements(self):
        rng = RNG(23)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        np.testing.assert_array_equal(
            st.reset_subsystem(s, "b", 1).data,
            st.replace_subsystems(s, st.basis_state([1], ["b"])).data,
        )
        mixed = st.replace_subsystems(s, st.maximally_mixed(["c", "a"])).data
        np.testing.assert_allclose(
            st.depolarize(s, ["c", "a"], 0.4).data, 0.6 * s.data + 0.4 * mixed, atol=1e-15
        )

    def test_unknown_label_rejected(self):
        s = bell()
        with pytest.raises(st.StateError, match="unknown subsystem"):
            st.replace_subsystems(s, st.basis_state([0], ["z"]))
        with pytest.raises(st.StateError, match="unknown subsystem"):
            st.replace_subsystems(s, st.basis_state([0, 1], ["a", "z"]))


class TestEmbeddedChannels:
    """Cross-checks of the channels on registers larger than their targets."""

    def test_depolarize_matches_uniform_pauli_average(self):
        # (1/16) sum_P P rho P over all two-qubit Paulis equals the
        # replacement channel with p = 1
        rng = RNG(14)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        out = st.depolarize(s, ["a", "c"], 1.0)
        i2 = np.eye(2, dtype=complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        acc = np.zeros((8, 8), dtype=complex)
        for p1 in (i2, x, y, z):
            for p2 in (i2, x, y, z):
                pauli = np.kron(p1, p2)
                twirled = st.apply_unitary(s, pauli, ["a", "c"])
                acc += twirled.data / 16.0
        np.testing.assert_allclose(out.data, acc, atol=1e-12)

    def test_depolarize_interpolates(self):
        rng = RNG(15)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        p = 0.37
        out = st.depolarize(s, ["b", "c"], p)
        full = st.depolarize(s, ["b", "c"], 1.0)
        expect = (1 - p) * s.data + p * full.data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_dephase_pair_order_invariant(self):
        rng = RNG(16)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        fwd = st.dephase_pair(s, ["a", "c"], 0.4)
        rev = st.dephase_pair(s, ["c", "a"], 0.4)
        np.testing.assert_allclose(fwd.data, rev.data, atol=1e-13)

    def test_unitary_on_reversed_targets_matches_permutation_oracle(self):
        rng = RNG(18)
        s = st.mixed_state(random_density(8, rng), ["a", "b", "c"])
        u = haar_unitary(4, rng)
        out = st.apply_unitary(s, u, ["c", "a"])
        # oracle: swap the tensor factors of u, then act on (a, c) in order
        u_t = u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        oracle = st.apply_unitary(s, u_t, ["a", "c"])
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)

    def test_marginal_ordering(self):
        s = st.basis_state([0, 1, 1], ["a", "b", "c"])
        p_ab = st.outcome_probabilities(s, ["a", "b"])
        p_ba = st.outcome_probabilities(s, ["b", "a"])
        assert p_ab[0b01] == 1.0
        assert p_ba[0b10] == 1.0
        bits, _, _ = measure(s, ["c", "a"], RNG(0))
        assert bits == (1, 0)


@given(
    bits=hst.lists(hst.integers(min_value=0, max_value=1), min_size=2, max_size=4),
    seed=hst.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_unitary_roundtrip_property(bits, seed):
    rng = RNG(seed)
    labels = [f"q{i}" for i in range(len(bits))]
    s = st.basis_state(bits, labels)
    u = haar_unitary(2, rng)
    target = labels[int(rng.integers(len(labels)))]
    forward = st.apply_unitary(s, u, [target])
    back = st.apply_unitary(forward, u.conj().T, [target])
    assert st.fidelity(back, s) == pytest.approx(1.0, abs=1e-10)
