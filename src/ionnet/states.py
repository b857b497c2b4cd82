"""Dense linear-algebra engine for small registers of two-level systems.

A register holds atomic qubits and photon polarization modes, all of
dimension 2, identified by string labels. Every state is stored as a
``2**n x 2**n`` density matrix; an amplitude vector given to a
constructor is checked for unit norm and stored as |psi><psi|. The
first label is the most significant bit of the basis index. Everything
is dense and exact, so a register holds at most ``MAX_SUBSYSTEMS``
(6) subsystems.

A state may carry leading batch axes: data of shape ``(P, d, d)`` is a
stack of P density matrices over one register, one per point of a
scan. Every kernel acts on the trailing ``(d, d)`` axes and broadcasts
over the leading ones, and so do its array-valued parameters (a unitary,
phase or dephasing factor per point): a per-point parameter applied to
a single state gives a stack.

Each kernel step is one batched matrix product or one elementwise
product. An operator on some subsystems is lifted to the whole register
(its Kronecker product with the identity on the others, permuted into
register order) and applied as ``U @ rho @ U^dagger``, by
``apply_unitary``, ``apply_to_each`` (once per target) and the herald's
stacked Kraus set alike. A phase gate and the pair dephasing multiply
the state by a Schur factor (``_phase_factor``, ``_dephasing_factor``),
and so does a whole free evolution (``free_evolution``), once, with the
product of the phase factor of each B atom and the dephasing factor of
each stored pair: the same map as applying them one after the other,
up to rounding.

Constants are built and checked once per process, in bounded caches,
and shared read-only: the bit table ``_bits(n)``, the identities
``_identity(d)``, ``basis_state`` and ``maximally_mixed``.

Replacing some subsystems by a fixed state is one kernel,
``replace_subsystems``: it traces them out and tensors the fresh state
back in, in the register's label order. Re-preparing a subsystem
(``reset_subsystem``), the depolarizing channel and the herald of a
remote pair all go through it.

States are immutable after construction; every operation returns a new
``QuantumState``. Construction from data checks the whole stack:
Hermiticity and unit trace to ``STATE_ATOL`` and eigenvalues above
``EIGENVALUE_FLOOR``. The eigenvalue rule is tested by one Cholesky
factorization of rho - EIGENVALUE_FLOOR * I over the stack, which exists
exactly when no eigenvalue lies below the floor (up to rounding of about
1e-15); the eigenvalues are computed only when it fails, and the lowest
one decides and is named. The kernels take checked states and checked
parameters (unitaries to 1e-10, probabilities in [0, 1]) and do not
repeat the state checks on their output; the exact engine checks every
stack it returns (``montecarlo.propagate``). Instances are safe to
share across threads. Nothing here is random: outcomes are sampled
from the exact distributions by the Monte Carlo engine.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "MAX_SUBSYSTEMS",
    "STATE_ATOL",
    "UNITARY_ATOL",
    "StateError",
    "QuantumState",
    "basis_state",
    "maximally_mixed",
    "tensor",
    "apply_unitary",
    "apply_to_each",
    "apply_phase",
    "outcome_probabilities",
    "fidelity",
    "partial_trace",
    "depolarize",
    "dephase_pair",
    "free_evolution",
    "reset_subsystem",
    "replace_subsystems",
]

MAX_SUBSYSTEMS = 6

# Double precision leaves ample headroom at these dimensions.
# STATE_ATOL bounds the norm, Hermiticity and trace errors a constructor accepts.
STATE_ATOL = 1e-9
UNITARY_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

# einsum subscripts of partial_trace and outcome_probabilities, one
# letter per tensor axis of a register
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class StateError(ValueError):
    """Raised on invalid register operations or malformed state data."""


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not labels:
        raise StateError("register needs at least one subsystem")
    if len(set(labels)) != len(labels):
        raise StateError(f"duplicate subsystem labels: {labels}")
    if len(labels) > MAX_SUBSYSTEMS:
        raise StateError(
            f"register of {len(labels)} subsystems exceeds the cap of {MAX_SUBSYSTEMS}"
        )
    return labels


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _check_positive(arr: np.ndarray):
    """Reject a Hermitian stack with an eigenvalue below ``EIGENVALUE_FLOOR``.

    One Cholesky factorization of ``arr - EIGENVALUE_FLOOR * I`` tests
    the whole stack. When it fails, the eigenvalues decide and the
    lowest is named, so a matrix within rounding of the floor is not
    rejected on the factorization alone.
    """
    try:
        np.linalg.cholesky(arr - EIGENVALUE_FLOOR * _identity(arr.shape[-1]))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(arr).min()
        if low < EIGENVALUE_FLOOR:
            raise StateError(f"density matrix has negative eigenvalue {low}") from None


class QuantumState:
    """A density matrix, or a stack of them, over a labelled register.

    Parameters
    ----------
    labels :
        Subsystem identifiers, one per two-level system, at most
        ``MAX_SUBSYSTEMS``. Order fixes the basis convention: the first
        label is the most significant bit.
    data :
        Amplitude vector (length ``2**n``), stored as its density
        matrix, or density matrix (``2**n x 2**n``), or a stack of
        density matrices with leading batch axes. Must be normalized;
        construction rejects anything that is not a physical state,
        anywhere in the stack: a non-Hermitian matrix, a trace off 1,
        or an eigenvalue below ``EIGENVALUE_FLOOR``. Positivity is one
        Cholesky factorization of the shifted stack; only a stack that
        fails it has its eigenvalues computed, and the error names the
        lowest.
    """

    __slots__ = ("_labels", "_data")

    def __init__(self, labels: Sequence[str], data):
        labels = _check_labels(labels)
        dim = 2 ** len(labels)
        arr = np.asarray(data, dtype=complex)
        # Each tolerance test is written so that NaN fails it.
        if arr.shape == (dim,):
            norm = np.linalg.norm(arr)
            if not abs(norm - 1.0) <= STATE_ATOL:
                raise StateError(f"amplitude vector norm {norm} is not 1")
            # Renormalize residual float error; anything larger was rejected.
            arr = arr / norm
            arr = np.outer(arr, arr.conj())
        elif arr.ndim < 2 or arr.shape[-2:] != (dim, dim):
            raise StateError(
                f"data shape {arr.shape} does not match a register of {len(labels)} subsystems"
            )
        # inf - inf in the Hermiticity test would be NaN: reject first.
        if not np.isfinite(arr).all():
            raise StateError("density matrix has non-finite entries")
        conj = _dagger(arr)
        if not np.abs(arr - conj).max() <= STATE_ATOL:
            raise StateError("density matrix is not Hermitian")
        tr = np.trace(arr, axis1=-2, axis2=-1).real
        worst = tr.flat[np.abs(tr - 1.0).argmax()]
        if not abs(worst - 1.0) <= STATE_ATOL:
            raise StateError(f"density matrix trace {worst} is not 1")
        arr = 0.5 * (arr + conj) / tr[..., None, None]
        _check_positive(arr)
        self._set(labels, arr)

    @classmethod
    def _of(cls, labels: tuple[str, ...], arr: np.ndarray) -> QuantumState:
        """A kernel's output: a checked map of checked states, not re-checked."""
        s = object.__new__(cls)
        s._set(labels, arr)
        return s

    def _set(self, labels: tuple[str, ...], arr: np.ndarray):
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
    def batch_shape(self) -> tuple[int, ...]:
        """Leading batch axes of a stack; () for a single state."""
        return self._data.shape[:-2]

    @property
    def data(self) -> np.ndarray:
        """Density matrix, or stack of them (read-only view)."""
        return self._data

    def axis(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise StateError(f"unknown subsystem label {label!r}") from None

    def probabilities(self) -> np.ndarray:
        """Born probabilities over the full computational basis (last axis)."""
        p = np.clip(np.diagonal(self._data, axis1=-2, axis2=-1).real, 0.0, None)
        return p / p.sum(axis=-1, keepdims=True)

    def __repr__(self) -> str:
        batch = f", batch={self.batch_shape}" if self.batch_shape else ""
        return f"QuantumState(labels={self._labels}, dim={self.dim}{batch})"


def basis_state(bits: Sequence[int], labels: Sequence[str]) -> QuantumState:
    """Computational basis ket, e.g. ``basis_state([0, 1], ["a", "b"])`` is |01>."""
    return _basis_state(tuple(int(b) for b in bits), tuple(labels))


@functools.lru_cache(maxsize=64)
def _basis_state(bits: tuple[int, ...], labels: tuple[str, ...]) -> QuantumState:
    if len(bits) != len(labels):
        raise StateError("bits and labels must have equal length")
    if any(b not in (0, 1) for b in bits):
        raise StateError(f"bits must be 0 or 1, got {bits}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[_bits_to_index(bits)] = 1.0
    return QuantumState(labels, amps)


def maximally_mixed(labels: Sequence[str]) -> QuantumState:
    return _maximally_mixed(tuple(labels))


@functools.lru_cache(maxsize=64)
def _maximally_mixed(labels: tuple[str, ...]) -> QuantumState:
    dim = 2 ** len(labels)
    return QuantumState(labels, np.eye(dim, dtype=complex) / dim)


def _bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


@functools.lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    identity = np.eye(dim)
    identity.setflags(write=False)
    return identity


@functools.lru_cache(maxsize=16)
def _bits(n: int) -> np.ndarray:
    """bits[idx, k] is bit k (first label most significant) of basis index idx."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def _tensor_form(rho: np.ndarray, n: int) -> np.ndarray:
    """A (..., d, d) stack with one axis per ket and per bra subsystem."""
    return rho.reshape(rho.shape[:-2] + (2,) * (2 * n))


def _matrix_form(t: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_tensor_form`` for the trailing 2n axes."""
    dim = 2**n
    return t.reshape(t.shape[: t.ndim - 2 * n] + (dim, dim))


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product of two registers with disjoint labels (a stack
    when either factor is one)."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise StateError(f"label collision in tensor product: {sorted(overlap)}")
    labels = _check_labels(a.labels + b.labels)
    out = np.einsum("...ij,...kl->...ikjl", a.data, b.data)
    dim = 2 ** len(labels)
    return QuantumState._of(labels, out.reshape(out.shape[:-4] + (dim, dim)))


def _check_unitary(u: np.ndarray, dim: int):
    if u.shape[-2:] != (dim, dim):
        raise StateError(f"operator shape {u.shape} does not match target dimension {dim}")
    err = np.abs(_dagger(u) @ u - _identity(dim)).max()
    if err > UNITARY_ATOL:
        raise StateError(f"operator is not unitary (deviation {err:.2e})")


@functools.lru_cache(maxsize=128)
def _lift_axes(axes: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Axis permutation from the tensor form of u (x) I to register order.

    u (x) I orders its subsystems as the targets (in ``axes`` order),
    then the others (in register order); the permutation puts each ket
    and each bra axis at its subsystem's register position.
    """
    order = list(axes) + [ax for ax in range(n) if ax not in axes]
    ket = tuple(order.index(ax) for ax in range(n))
    return ket + tuple(n + ax for ax in ket)


def _apply_matrix_density(rho: np.ndarray, u: np.ndarray, axes: Sequence[int], n: int) -> np.ndarray:
    """u rho u^dagger with u acting on ``axes``; u need not be unitary.

    u is lifted to the whole register, as the Kronecker product u (x) I
    with the identity on the other subsystems and one permutation of its
    axes into register order (``_lift_axes``), and applied as one
    batched ``U @ rho @ U^dagger``. Both ``rho`` (..., d, d) and ``u``
    (..., 2^k, 2^k) may be stacks; their leading axes broadcast. One
    operator on a stack of states is applied as two matrix products over
    the whole stack instead of two per state. A stack of operators takes
    one product per operator, each the same as the product of that
    operator alone, so a stacked Kraus set gives each operator's term to
    the last bit.
    """
    k, dim = 2 ** len(axes), 2**n
    batch = u.shape[:-2]
    kron = u[..., :, None, :, None] * _identity(dim // k)[:, None, :]
    lead = tuple(range(len(batch)))
    perm = lead + tuple(len(lead) + ax for ax in _lift_axes(tuple(axes), n))
    full = kron.reshape(batch + (2,) * (2 * n)).transpose(perm).reshape(batch + (dim, dim))
    if not batch and rho.ndim > 2:
        # rho U^dagger on the stacked rows, then U on the stack's columns
        # laid side by side.
        right = rho.reshape(-1, dim) @ _dagger(full)
        cols = right.reshape(-1, dim, dim).swapaxes(0, 1).reshape(dim, -1)
        return (full @ cols).reshape(dim, -1, dim).swapaxes(0, 1).reshape(rho.shape)
    return full @ rho @ _dagger(full)


def apply_unitary(s: QuantumState, u, targets: Sequence[str]) -> QuantumState:
    """Apply a unitary on the listed target subsystems, identity elsewhere.

    ``u`` is given in the basis ordered by ``targets`` (first target is
    the most significant bit of its index); a stack of unitaries applies
    one per point. Unitarity is checked to 1e-10; norm and trace are
    preserved to well below 1e-12.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise StateError(f"duplicate targets: {targets}")
    axes = [s.axis(t) for t in targets]
    u = np.asarray(u, dtype=complex)
    _check_unitary(u, 2 ** len(targets))
    return QuantumState._of(s.labels, _apply_matrix_density(s.data, u, axes, s.n_subsystems))


def apply_to_each(s: QuantumState, u, targets: Sequence[str]) -> QuantumState:
    """Apply one single-qubit unitary on each listed subsystem in turn.

    The same as one ``apply_unitary`` per target, to the last bit, with
    unitarity checked once; a stack of unitaries applies one per point.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise StateError(f"duplicate targets: {targets}")
    axes = [s.axis(t) for t in targets]
    u = np.asarray(u, dtype=complex)
    _check_unitary(u, 2)
    rho = s.data
    for ax in axes:
        rho = _apply_matrix_density(rho, u, (ax,), s.n_subsystems)
    return QuantumState._of(s.labels, rho)


def apply_phase(s: QuantumState, label: str, phase) -> QuantumState:
    """Z-type phase gate diag(1, e^{i phase}) on a single subsystem;
    an array of phases applies one per point.

    Populations are untouched to the last bit: each matrix element is
    multiplied by e^{i phase (x - y)} for ket bit x and bra bit y.
    """
    return QuantumState._of(s.labels, s.data * _phase_factor(s, label, phase))


def _phase_factor(s: QuantumState, label: str, phase) -> np.ndarray:
    """Schur factor of ``apply_phase``: e^{i phase (x - y)} for ket bit x
    and bra bit y of ``label``, one (d, d) matrix per phase."""
    bit = _bits(s.n_subsystems)[:, s.axis(label)]
    phase = np.asarray(phase, dtype=float)
    return np.exp(1j * np.multiply.outer(phase, bit[:, None] - bit[None, :]))


def outcome_probabilities(s: QuantumState, targets: Sequence[str]) -> np.ndarray:
    """Marginal Born distribution over the target subsystems.

    Returned in the basis ordered by ``targets`` (first target most
    significant), along the last axis of a stack's distributions.
    """
    targets = list(targets)
    if not targets:
        raise StateError("need at least one measurement target")
    axes = [s.axis(t) for t in targets]
    n = s.n_subsystems
    p = s.probabilities()
    full = p.reshape(p.shape[:-1] + (2,) * n)
    kept = "".join(_LETTERS[ax] for ax in axes)
    marg = np.einsum(f"...{_LETTERS[:n]}->...{kept}", full)
    return marg.reshape(p.shape[:-1] + (2 ** len(axes),))


def fidelity(s: QuantumState, target: QuantumState) -> float:
    """Fidelity against a pure target |psi><psi|: F = <psi|rho|psi> = tr(rho sigma).

    States are compared up to global phase; a target whose purity
    tr(sigma^2) is not 1 is rejected.
    """
    sigma = target.data
    purity = np.vdot(sigma, sigma).real
    if abs(purity - 1.0) > STATE_ATOL:
        raise StateError(f"fidelity target must be a pure state, purity {purity}")
    if s.labels != target.labels:
        raise StateError(f"label mismatch: {s.labels} vs {target.labels}")
    # vdot sums conj(sigma) * rho, and conj(sigma) = sigma^T for a Hermitian sigma.
    val = np.vdot(sigma, s.data).real
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
    ket = _LETTERS[:n]
    # A traced subsystem carries the same letter on its ket and bra axis.
    bra = "".join(_LETTERS[n + ax] if lbl in keep else ket[ax] for ax, lbl in enumerate(s.labels))
    out = "".join(ket[ax] for ax, lbl in enumerate(s.labels) if lbl in keep)
    out += "".join(bra[ax] for ax, lbl in enumerate(s.labels) if lbl in keep)
    rho = np.einsum(f"...{ket}{bra}->...{out}", _tensor_form(s.data, n))
    return QuantumState._of(kept_labels, _matrix_form(rho, len(kept_labels)))


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
    replaced = replace_subsystems(s, maximally_mixed(targets)).data
    return QuantumState._of(s.labels, (1.0 - p) * s.data + p * replaced)


def replace_subsystems(s: QuantumState, fresh: QuantumState) -> QuantumState:
    """Discard the subsystems ``fresh`` is labelled by and prepare them in
    ``fresh``: tr_F(rho) (x) fresh in the register order of ``s``, so
    their correlations with the rest are erased. Either may be a stack,
    also when ``fresh`` replaces the whole register."""
    axes = [s.axis(lbl) for lbl in fresh.labels]  # validates labels
    others = [lbl for lbl in s.labels if lbl not in fresh.labels]
    if others:
        fresh = tensor(partial_trace(s, others), fresh)
    rho = _permute_density(fresh, s.labels)
    batch = np.broadcast_shapes(s.batch_shape, fresh.batch_shape)
    return QuantumState._of(s.labels, np.broadcast_to(rho, batch + rho.shape[-2:]))


def _permute_density(s: QuantumState, new_order: Sequence[str]) -> np.ndarray:
    """Density matrix (stack) of ``s`` with subsystems reordered to ``new_order``."""
    rho = s.data
    if tuple(new_order) == s.labels:
        return rho
    n = s.n_subsystems
    lead = rho.ndim - 2
    perm = [s.axis(lbl) for lbl in new_order]
    t = _tensor_form(rho, n).transpose(
        list(range(lead)) + [lead + ax for ax in perm] + [lead + n + ax for ax in perm]
    )
    return _matrix_form(t, n)


def dephase_pair(s: QuantumState, pair: Sequence[str], gamma) -> QuantumState:
    """Collective random-phase dephasing of a qubit pair.

    The 01<->10 and 00<->11 coherences of the pair are scaled by
    ``gamma`` (an array of factors dephases one per point); populations
    are untouched. Complete positivity of the underlying Gaussian
    random-phase model forces single-flip coherences (e.g. 00<->01) to
    scale by sqrt(gamma). The map composes as a semigroup:
    gamma(t1) * gamma(t2) = gamma(t1 + t2).
    """
    factor = _dephasing_factor(s, pair, gamma)
    if factor is None:
        return s
    return QuantumState._of(s.labels, s.data * factor)


def _dephasing_factor(s: QuantumState, pair: Sequence[str], gamma) -> np.ndarray | None:
    """Schur factor of ``dephase_pair``, one (d, d) matrix per factor
    ``gamma``; None when every gamma is 1, which leaves the state as it is."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any((gamma < 0.0) | (gamma > 1.0)):
        raise StateError(f"dephasing factor {gamma} outside [0, 1]")
    pair = list(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise StateError(f"dephasing needs two distinct labels, got {pair}")
    ax = [s.axis(q) for q in pair]
    if np.all(gamma == 1.0):
        return None
    bits = _bits(s.n_subsystems)
    # Common-mode charge u = b1 + b2, differential charge w = b2 - b1.
    # The Schur factor between ket bits x and bra bits y is
    # gamma ** ((du^2 + dw^2) / 4), a correlation matrix of the two
    # independent random phases (hence positive semidefinite).
    u = bits[:, ax[0]] + bits[:, ax[1]]
    w = bits[:, ax[1]] - bits[:, ax[0]]
    du = u[:, None] - u[None, :]
    dw = w[:, None] - w[None, :]
    return gamma[..., None, None] ** ((du * du + dw * dw) / 4.0)


def free_evolution(
    s: QuantumState,
    t,
    delta_omega_ab: float,
    b_atoms: Sequence[str],
    pairs: Sequence[Sequence[str]],
    tau_s: float,
) -> QuantumState:
    """Evolve stored qubits for ``t`` seconds between operations; an
    array of durations evolves one per point into a stack.

    Each module is tracked in its own rotating frame, so the Zeeman beat
    is a local Z phase e^{-i delta_omega_ab t} on every module-B atom in
    ``b_atoms``; for a stored pair (module-A atom, module-B atom) it adds
    the relative phase e^{i delta_omega_ab t} between |01> and |10>.
    The coherences of every pair in ``pairs`` are dephased as by
    ``dephase_pair`` with factor exp(-t/tau_s) (exactly 1 for an infinite
    ``tau_s``); populations are preserved exactly. A zero duration
    leaves its point unchanged.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {t}")
    if not np.any(t):
        return s
    factors = [_phase_factor(s, q, -delta_omega_ab * t) for q in b_atoms]
    # exp(-800) is 0 already; clipping t there keeps t / tau_s finite.
    gamma = np.exp(-np.minimum(t, 800.0 * tau_s) / tau_s)
    factors += [_dephasing_factor(s, pair, gamma) for pair in pairs]
    factors = [f for f in factors if f is not None]
    if not factors:
        return s
    return QuantumState._of(s.labels, s.data * math.prod(factors))


def reset_subsystem(s: QuantumState, label: str, bit: int = 0) -> QuantumState:
    """Discard one subsystem and re-prepare it in a basis state.

    Label order of the register is preserved.
    """
    return replace_subsystems(s, basis_state([bit], [label]))
