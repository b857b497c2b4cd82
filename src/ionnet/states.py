"""Dense linear-algebra engine for small registers of two-level systems.

A register holds atomic qubits and photon polarization modes, all of
dimension 2, identified by string labels. Pure states are stored as
amplitude vectors of length ``2**n`` and mixed states as ``2**n x 2**n``
density matrices. The first label is the most significant bit of the
basis index. Everything is dense and exact, so the register size is
capped (default 6 subsystems).

States are immutable after construction; every operation returns a new
``QuantumState``. Instances are therefore safe to share across threads.
Nothing here is random: outcomes are sampled from the exact
distributions by the Monte Carlo engine.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_SUBSYSTEMS",
    "NORM_ATOL",
    "UNITARY_ATOL",
    "StateError",
    "QuantumState",
    "basis_state",
    "pure_state",
    "mixed_state",
    "maximally_mixed",
    "tensor",
    "apply_unitary",
    "apply_phase",
    "outcome_probabilities",
    "fidelity",
    "partial_trace",
    "depolarize",
    "dephase_pair",
    "reset_subsystem",
]

DEFAULT_MAX_SUBSYSTEMS = 6

# Double precision leaves ample headroom at these dimensions.
NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


class StateError(ValueError):
    """Raised on invalid register operations or malformed state data."""


class QuantumState:
    """A pure or mixed state over a labelled register.

    Parameters
    ----------
    labels :
        Subsystem identifiers, one per two-level system. Order fixes the
        basis convention: the first label is the most significant bit.
    data :
        Amplitude vector (length ``2**n``) or density matrix
        (``2**n x 2**n``). Must be normalized; construction rejects
        anything that is not a physical state.
    max_subsystems :
        Register cap. Constructors reject larger registers.
    """

    __slots__ = ("_labels", "_data", "_is_mixed")

    def __init__(self, labels: Sequence[str], data, max_subsystems: int = DEFAULT_MAX_SUBSYSTEMS):
        labels = tuple(labels)
        if not labels:
            raise StateError("register needs at least one subsystem")
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate subsystem labels: {labels}")
        if len(labels) > max_subsystems:
            raise StateError(
                f"register of {len(labels)} subsystems exceeds the cap of {max_subsystems}"
            )
        dim = 2 ** len(labels)
        arr = np.asarray(data, dtype=complex)
        if arr.shape == (dim,):
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > 1e-9:
                raise StateError(f"amplitude vector norm {norm} is not 1")
            # Renormalize residual float error; anything larger was rejected.
            arr = arr / norm
            self._is_mixed = False
        elif arr.shape == (dim, dim):
            if np.abs(arr - arr.conj().T).max() > 1e-9:
                raise StateError("density matrix is not Hermitian")
            tr = arr.trace().real
            if abs(tr - 1.0) > 1e-9:
                raise StateError(f"density matrix trace {tr} is not 1")
            arr = 0.5 * (arr + arr.conj().T) / tr
            low = np.linalg.eigvalsh(arr).min()
            if low < EIGENVALUE_FLOOR:
                raise StateError(f"density matrix has negative eigenvalue {low}")
            self._is_mixed = True
        else:
            raise StateError(
                f"data shape {arr.shape} does not match a register of {len(labels)} subsystems"
            )
        arr.setflags(write=False)
        self._labels = labels
        self._data = arr

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def n_subsystems(self) -> int:
        return len(self._labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self._labels)

    @property
    def is_mixed(self) -> bool:
        return self._is_mixed

    @property
    def data(self) -> np.ndarray:
        """Raw amplitudes or density matrix (read-only view)."""
        return self._data

    def density(self) -> np.ndarray:
        """Density-matrix form regardless of internal representation."""
        if self._is_mixed:
            return self._data
        return np.outer(self._data, self._data.conj())

    def axis(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise StateError(f"unknown subsystem label {label!r}") from None

    def probabilities(self) -> np.ndarray:
        """Born probabilities over the full computational basis."""
        if self._is_mixed:
            p = np.clip(self._data.diagonal().real, 0.0, None)
        else:
            p = np.abs(self._data) ** 2
        return p / p.sum()

    def __repr__(self) -> str:
        kind = "mixed" if self._is_mixed else "pure"
        return f"QuantumState(labels={self._labels}, {kind}, dim={self.dim})"


def basis_state(bits: Sequence[int], labels: Sequence[str]) -> QuantumState:
    """Computational basis ket, e.g. ``basis_state([0, 1], ["a", "b"])`` is |01>."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != len(labels):
        raise StateError("bits and labels must have equal length")
    if any(b not in (0, 1) for b in bits):
        raise StateError(f"bits must be 0 or 1, got {bits}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[_bits_to_index(bits)] = 1.0
    return QuantumState(labels, amps)


def pure_state(amplitudes, labels: Sequence[str]) -> QuantumState:
    return QuantumState(labels, np.asarray(amplitudes, dtype=complex))


def mixed_state(rho, labels: Sequence[str]) -> QuantumState:
    return QuantumState(labels, np.asarray(rho, dtype=complex))


def maximally_mixed(labels: Sequence[str]) -> QuantumState:
    dim = 2 ** len(labels)
    return QuantumState(labels, np.eye(dim, dtype=complex) / dim)


def _bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def tensor(a: QuantumState, b: QuantumState, max_subsystems: int = DEFAULT_MAX_SUBSYSTEMS) -> QuantumState:
    """Tensor product of two registers with disjoint labels.

    Purity propagates: pure (x) pure stays pure, anything else is a
    density matrix.
    """
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise StateError(f"label collision in tensor product: {sorted(overlap)}")
    labels = a.labels + b.labels
    if not a.is_mixed and not b.is_mixed:
        return QuantumState(labels, np.kron(a.data, b.data), max_subsystems)
    return QuantumState(labels, np.kron(a.density(), b.density()), max_subsystems)


def _check_unitary(u: np.ndarray, dim: int):
    if u.shape != (dim, dim):
        raise StateError(f"operator shape {u.shape} does not match target dimension {dim}")
    err = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if err > UNITARY_ATOL:
        raise StateError(f"operator is not unitary (deviation {err:.2e})")


def _apply_matrix_pure(amps: np.ndarray, u: np.ndarray, axes: Sequence[int], n: int) -> np.ndarray:
    k = len(axes)
    psi = amps.reshape((2,) * n)
    u_t = u.reshape((2,) * (2 * k))
    # tensordot contracts the ket axes of u with the target axes of psi,
    # then the fresh axes land in front and must be moved back in place.
    psi = np.tensordot(u_t, psi, axes=(list(range(k, 2 * k)), list(axes)))
    psi = np.moveaxis(psi, list(range(k)), list(axes))
    return psi.reshape(-1)


def _apply_matrix_density(rho: np.ndarray, u: np.ndarray, axes: Sequence[int], n: int) -> np.ndarray:
    """u rho u^dagger with u acting on ``axes``; u need not be unitary."""
    k = len(axes)
    t = rho.reshape((2,) * (2 * n))
    u_t = u.reshape((2,) * (2 * k))
    ket_axes = list(axes)
    bra_axes = [n + ax for ax in axes]
    t = np.tensordot(u_t, t, axes=(list(range(k, 2 * k)), ket_axes))
    t = np.moveaxis(t, list(range(k)), ket_axes)
    t = np.tensordot(u_t.conj(), t, axes=(list(range(k, 2 * k)), bra_axes))
    t = np.moveaxis(t, list(range(k)), bra_axes)
    return t.reshape(rho.shape)


def apply_unitary(s: QuantumState, u, targets: Sequence[str]) -> QuantumState:
    """Apply a unitary on the listed target subsystems, identity elsewhere.

    ``u`` is given in the basis ordered by ``targets`` (first target is
    the most significant bit of its index). Unitarity is checked to
    1e-10; norm and trace are preserved to well below 1e-12.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise StateError(f"duplicate targets: {targets}")
    axes = [s.axis(t) for t in targets]
    u = np.asarray(u, dtype=complex)
    _check_unitary(u, 2 ** len(targets))
    if s.is_mixed:
        out = _apply_matrix_density(s.data, u, axes, s.n_subsystems)
    else:
        out = _apply_matrix_pure(s.data, u, axes, s.n_subsystems)
    return QuantumState(s.labels, out, max_subsystems=s.n_subsystems)


def apply_phase(s: QuantumState, label: str, phase: float) -> QuantumState:
    """Z-type phase gate diag(1, e^{i phase}) on a single subsystem."""
    u = np.diag([1.0, np.exp(1j * phase)])
    return apply_unitary(s, u, [label])


def outcome_probabilities(s: QuantumState, targets: Sequence[str]) -> np.ndarray:
    """Marginal Born distribution over the target subsystems.

    Returned in the basis ordered by ``targets`` (first target most
    significant).
    """
    targets = list(targets)
    if not targets:
        raise StateError("need at least one measurement target")
    axes = [s.axis(t) for t in targets]
    n = s.n_subsystems
    full = s.probabilities().reshape((2,) * n)
    keep_order = axes
    other = [ax for ax in range(n) if ax not in axes]
    marg = full.sum(axis=tuple(other)) if other else full
    # sum() drops axes, so the kept axes must be permuted into the
    # requested target order.
    remaining = [ax for ax in range(n) if ax in axes]
    perm = [remaining.index(ax) for ax in keep_order]
    return marg.transpose(perm).reshape(-1)


def fidelity(s: QuantumState, target: QuantumState) -> float:
    """Fidelity against a pure target: F = <psi|rho|psi>.

    States are compared up to global phase; a mixed target is rejected.
    """
    if target.is_mixed:
        raise StateError("fidelity target must be a pure state")
    if s.labels != target.labels:
        raise StateError(f"label mismatch: {s.labels} vs {target.labels}")
    psi = target.data
    if s.is_mixed:
        val = np.vdot(psi, s.data @ psi).real
    else:
        val = abs(np.vdot(psi, s.data)) ** 2
    return float(min(max(val, 0.0), 1.0))


def partial_trace(s: QuantumState, keep: Sequence[str]) -> QuantumState:
    """Trace out everything except ``keep`` (result keeps register order)."""
    keep = list(keep)
    if not keep:
        raise StateError("cannot trace out the whole register")
    axes = [s.axis(k) for k in keep]  # validates labels
    kept_labels = tuple(lbl for lbl in s.labels if lbl in keep)
    n = s.n_subsystems
    if len(kept_labels) == n:
        return s
    rho = s.density().reshape((2,) * (2 * n))
    drop = [ax for ax in range(n) if s.labels[ax] not in keep]
    for off, ax in enumerate(drop):
        a = ax - off  # axes shift as traces remove pairs
        nn = n - off
        rho = np.trace(rho, axis1=a, axis2=a + nn)
    dim = 2 ** len(kept_labels)
    return QuantumState(kept_labels, rho.reshape(dim, dim), max_subsystems=n)


def depolarize(s: QuantumState, targets: Sequence[str], p: float) -> QuantumState:
    """Depolarizing channel: with probability p the targets are replaced
    by the maximally mixed state, leaving their correlations with the
    rest of the register erased."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"depolarizing probability {p} outside [0, 1]")
    targets = list(targets)
    axes = [s.axis(t) for t in targets]
    if p == 0.0:
        return s
    n = s.n_subsystems
    rho = s.density()
    if len(targets) == n:
        replaced = np.eye(s.dim, dtype=complex) / s.dim
    else:
        others = [lbl for lbl in s.labels if lbl not in targets]
        reduced = partial_trace(s, others)
        # Rebuild I/2^k (x) tr_T(rho) with the original label ordering.
        repl = tensor(
            maximally_mixed(targets), reduced, max_subsystems=n
        )
        replaced = _permute_density(repl, s.labels)
    out = (1.0 - p) * rho + p * replaced
    return QuantumState(s.labels, out, max_subsystems=n)


def _permute_density(s: QuantumState, new_order: Sequence[str]) -> np.ndarray:
    """Density matrix of ``s`` with subsystems reordered to ``new_order``."""
    if tuple(new_order) == s.labels:
        return s.density()
    n = s.n_subsystems
    perm = [s.axis(lbl) for lbl in new_order]
    t = s.density().reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + ax for ax in perm])
    return t.reshape(s.dim, s.dim)


def dephase_pair(s: QuantumState, pair: Sequence[str], gamma: float) -> QuantumState:
    """Collective random-phase dephasing of a qubit pair.

    The 01<->10 and 00<->11 coherences of the pair are scaled by
    ``gamma``; populations are untouched. Complete positivity of the
    underlying Gaussian random-phase model forces single-flip coherences
    (e.g. 00<->01) to scale by sqrt(gamma). The map composes as a
    semigroup: gamma(t1) * gamma(t2) = gamma(t1 + t2).
    """
    if not 0.0 <= gamma <= 1.0:
        raise StateError(f"dephasing factor {gamma} outside [0, 1]")
    pair = list(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise StateError(f"dephasing needs two distinct labels, got {pair}")
    if gamma == 1.0:
        return s
    ax = [s.axis(q) for q in pair]
    n = s.n_subsystems
    rho = s.density().reshape((2,) * (2 * n)).copy()
    # Common-mode charge u = b1 + b2, differential charge w = b2 - b1.
    # The Schur factor between ket bits x and bra bits y is
    # gamma ** ((du^2 + dw^2) / 4), a correlation matrix of the two
    # independent random phases (hence positive semidefinite).
    factor = np.ones((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    du = (x1 + x2) - (y1 + y2)
                    dw = (x2 - x1) - (y2 - y1)
                    factor[x1, x2, y1, y2] = gamma ** ((du * du + dw * dw) / 4.0)
    positions = [ax[0], ax[1], n + ax[0], n + ax[1]]
    shape = [1] * (2 * n)
    for pos in positions:
        shape[pos] = 2
    # reshape maps factor axes onto the broadcast slots in ascending
    # position order, so sort the factor axes accordingly first.
    perm = sorted(range(4), key=lambda i: positions[i])
    rho *= factor.transpose(perm).reshape(shape)
    return QuantumState(s.labels, rho.reshape(s.dim, s.dim), max_subsystems=n)


def reset_subsystem(s: QuantumState, label: str, bit: int = 0) -> QuantumState:
    """Discard one subsystem and re-prepare it in a basis state.

    Label order of the register is preserved.
    """
    axis = s.axis(label)
    others = [lbl for lbl in s.labels if lbl != label]
    if not others:
        return basis_state([bit], [label])
    rest = partial_trace(s, others)
    fresh = basis_state([bit], [label])
    joined = tensor(rest, fresh, max_subsystems=s.n_subsystems)
    rho = _permute_density(joined, s.labels)
    return QuantumState(s.labels, rho, max_subsystems=s.n_subsystems)
