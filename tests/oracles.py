"""Independent oracles used by the tests.

The beam-splitter oracle deliberately avoids the package's measurement
operators: the network is enumerated directly in the photon-number
picture, including a temporal mode label for partially distinguishable
photons.

Test-only helpers the package does not run: the per-detector-pair BSM
distribution and heralded states, the herald event record, the pair parity expectation,
exact binomial bounds on a count of rare events and the readout channel
enumerated flip pattern by flip pattern.

The single-shot samplers near the end draw one outcome at a time from
the package's exact channels. The package itself samples only in bulk,
from exact distributions; sampled-versus-exact tests use these samplers
as a second, shot-by-shot route to the same statistics. The last two
functions are the references that the package's bulk draws must equal
count for count: a scan's shots drawn one row at a time, and the trials
of a protocol run drawn in one multinomial, then one geometric row per
herald step.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from ionnet import states as st
from ionnet.detection import _validate_layout, apply_readout_array
from ionnet.gates import ms_gate
from ionnet.montecarlo import readout_channel
from ionnet.photonics import (
    DETECTOR_PAIRS,
    _emission_register,
    bsm_kraus_operators,
    conditional_herald_states,
)
from ionnet.scenario import (
    DetectorGroup,
    DetectorModel,
    HeraldStep,
    LinkErrorModel,
    success_probability,
)

# Detector numbering: PMT1 = (port c, H), PMT2 = (c, V), PMT3 = (d, V),
# PMT4 = (d, H). With the beam-splitter convention a -> (c + d)/sqrt(2),
# b -> (c - d)/sqrt(2) this makes (1,2)/(3,4) the symmetric-Bell pairs.
DETECTOR_OF = {("c", "H"): 1, ("c", "V"): 2, ("d", "V"): 3, ("d", "H"): 4}
VALID_PAIRS = {(1, 2), (3, 4), (1, 3), (2, 4)}


def fock_bsm_distribution(amp: np.ndarray, v: float) -> dict:
    """Coincidence distribution for two photons entering ports a and b.

    ``amp[p1, p2]`` is the joint polarization amplitude (index 0 = H,
    1 = V) of the photon in port a and the photon in port b. ``v`` is
    the wave-packet overlap: photon b rides in the temporal mode of
    photon a with amplitude v and in an orthogonal mode with amplitude
    sqrt(1 - v^2).

    Returns {pair: probability} for the four valid detector pairs plus
    {None: probability} for everything else (bunching, same detector,
    invalid pairs).
    """
    amp = np.asarray(amp, dtype=complex)
    norm = np.sqrt((np.abs(amp) ** 2).sum())
    amp = amp / norm
    pols = ("H", "V")
    # mode = (port, pol, temporal); amplitude accumulates per unordered pair
    states: dict[tuple, complex] = {}

    def add(mode1, mode2, coeff):
        if mode1 == mode2:
            key = (mode1, mode2)
            coeff = coeff * math.sqrt(2.0)  # double occupation
        else:
            key = tuple(sorted((mode1, mode2)))
        states[key] = states.get(key, 0.0) + coeff

    for (i1, p1), (i2, p2) in itertools.product(enumerate(pols), enumerate(pols)):
        a_pq = amp[i1, i2]
        if a_pq == 0:
            continue
        for tb, t_amp in ((0, v), (1, math.sqrt(max(1.0 - v * v, 0.0)))):
            if t_amp == 0:
                continue
            # a -> (c + d)/sqrt2, b -> (c - d)/sqrt2
            for port1, s1 in (("c", 1.0), ("d", 1.0)):
                for port2, s2 in (("c", 1.0), ("d", -1.0)):
                    coeff = a_pq * t_amp * s1 * s2 / 2.0
                    add((port1, p1, 0), (port2, p2, tb), coeff)

    dist: dict = {pair: 0.0 for pair in VALID_PAIRS}
    dist[None] = 0.0
    for (m1, m2), c in states.items():
        p = abs(c) ** 2
        det1 = DETECTOR_OF[(m1[0], m1[1])]
        det2 = DETECTOR_OF[(m2[0], m2[1])]
        if det1 == det2:
            dist[None] += p
            continue
        pair = tuple(sorted((det1, det2)))
        if pair in VALID_PAIRS:
            dist[pair] += p
        else:
            dist[None] += p
    return dist


@dataclass(frozen=True)
class HeraldEvent:
    """A successful two-photon coincidence."""

    detector_pair: tuple[int, int]
    phi_d: float

    def __post_init__(self):
        if self.detector_pair not in DETECTOR_PAIRS:
            raise ValueError(f"invalid detector pair {self.detector_pair}")
        if self.phi_d != DETECTOR_PAIRS[self.detector_pair]:
            raise ValueError(
                f"phi_d = {self.phi_d} inconsistent with detector pair {self.detector_pair}"
            )


def bsm_outcome_distribution(
    s: st.QuantumState, photon_labels: Sequence[str], v: float
) -> dict[tuple[int, int] | None, float]:
    """Probability of each detector pair (and of no herald, key None),
    from the package's per-pair Kraus operators."""
    photon_labels = list(photon_labels)
    if len(photon_labels) != 2:
        raise st.StateError(f"two photon modes required, got {photon_labels}")
    rho = st.partial_trace(s, photon_labels)
    # partial_trace keeps register order; realign to the requested order.
    if rho.labels != tuple(photon_labels):
        rho = st.mixed_state(st._permute_density(rho, photon_labels), photon_labels)
    probs: dict[tuple[int, int] | None, float] = {}
    total = 0.0
    for pair, kraus in bsm_kraus_operators(v).items():
        p = 0.0
        for k in kraus:
            p += float(np.trace(k @ rho.data @ k.conj().T).real)
        probs[pair] = p
        total += p
    probs[None] = max(1.0 - total, 0.0)
    return probs


def herald_states_per_pair(
    error: LinkErrorModel,
    link: Sequence[str],
    transfer_phase: float = 0.0,
) -> list[tuple[float, float, st.QuantumState]]:
    """``conditional_herald_states`` computed detector pair by detector
    pair: each Kraus operator of each pair applied on its own, the
    operators of a pair summed, and the pairs of a phase added."""
    joint = _emission_register(error, *link)
    atom_a, photon_a, atom_b, photon_b = joint.labels
    axes = [joint.axis(photon_a), joint.axis(photon_b)]
    n = joint.n_subsystems
    kraus = bsm_kraus_operators(error.mode_overlap)
    results = []
    for phi_d in sorted(set(DETECTOR_PAIRS.values())):
        out = np.zeros_like(joint.data)
        for pair, ops in kraus.items():
            if DETECTOR_PAIRS[pair] == phi_d:
                out += sum(st._apply_matrix_density(joint.data, k, axes, n) for k in ops)
        prob = float(out.trace().real)
        if prob <= 0.0:
            continue
        atoms = st.partial_trace(st.mixed_state(out / prob, joint.labels), [atom_a, atom_b])
        if transfer_phase != 0.0:
            atoms = st.apply_phase(atoms, atom_a, transfer_phase)
        results.append((phi_d, prob, atoms))
    return results


def parity_expectation(s: st.QuantumState, pair: Sequence[str]) -> float:
    """Exact <Z x Z> of a qubit pair, computed from the state."""
    pair = list(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise st.StateError(f"parity needs two distinct labels, got {pair}")
    p = st.outcome_probabilities(s, pair)
    # basis order 00, 01, 10, 11
    return float(p[0] + p[3] - p[1] - p[2])


def binomial_bounds(n: int, p: float, tail: float = 1e-4) -> tuple[int, int]:
    """Counts (lo, hi) with P(X < lo) <= tail and P(X > hi) <= tail for
    X ~ Binomial(n, p), from the exact pmf."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    cdf = np.cumsum(np.exp(log_pmf))
    lo = int(np.searchsorted(cdf, tail, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - tail, side="left"))
    return lo, hi


def purity(s: st.QuantumState) -> float:
    """tr(rho^2) of a single state: 1 exactly when it is pure."""
    return float(np.vdot(s.data, s.data).real)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = z @ z.conj().T
    return rho / rho.trace()


def bsm(photons: st.QuantumState, v: float, rng: np.random.Generator) -> HeraldEvent | None:
    """Sample one interference outcome for a two-photon state.

    Returns ``None`` when the photons bunch or land on an invalid
    detector combination (the attempt restarts in that case, so no
    state is tracked).
    """
    if photons.n_subsystems != 2:
        raise st.StateError("bsm expects a register of exactly two photon modes")
    dist = bsm_outcome_distribution(photons, list(photons.labels), v)
    outcomes = list(dist.keys())
    weights = np.array([dist[o] for o in outcomes])
    weights = weights / weights.sum()
    pick = outcomes[int(rng.choice(len(outcomes), p=weights))]
    if pick is None:
        return None
    return HeraldEvent(detector_pair=pick, phi_d=DETECTOR_PAIRS[pick])


def herald_remote_pair(
    error: LinkErrorModel,
    link: Sequence[str],
    rng: np.random.Generator,
    transfer_phase: float = 0.0,
) -> tuple[float, st.QuantumState] | None:
    """One coincidence attempt on ``link`` given both photons were
    collected.

    Samples the interference outcome; on a valid coincidence returns
    the detector phase and the two-atom state, otherwise ``None``.
    """
    branches = conditional_herald_states(error, link, transfer_phase)
    probs = np.array([p for _, p, _ in branches])
    p_none = max(1.0 - probs.sum(), 0.0)
    weights = np.append(probs, p_none)
    weights = weights / weights.sum()
    pick = int(rng.choice(len(weights), p=weights))
    if pick == len(branches):
        return None
    phi_d, _, state = branches[pick]
    return phi_d, state


def measure(
    s: st.QuantumState, targets: Sequence[str], rng: np.random.Generator
) -> tuple[tuple[int, ...], st.QuantumState, float]:
    """Projective measurement of the targets in the computational basis.

    Returns the sampled outcome bits (ordered like ``targets``), the
    collapsed renormalized state and the Born probability of the drawn
    outcome.
    """
    targets = list(targets)
    probs = st.outcome_probabilities(s, targets)
    idx = int(rng.choice(len(probs), p=probs))
    bits = tuple((idx >> (len(targets) - 1 - k)) & 1 for k in range(len(targets)))
    prob = float(probs[idx])
    axes = [s.axis(t) for t in targets]
    n = s.n_subsystems

    t = s.data.reshape((2,) * (2 * n))
    sel: list = [slice(None)] * (2 * n)
    for ax, b in zip(axes, bits):
        sel[ax] = b
        sel[n + ax] = b
    proj = np.zeros_like(t)
    proj[tuple(sel)] = t[tuple(sel)]
    rho = proj.reshape(s.dim, s.dim)
    collapsed = st.QuantumState(s.labels, rho / rho.trace(), max_subsystems=n)
    return bits, collapsed, prob


def apply_readout(
    true_bits: Sequence[int],
    model: DetectorModel,
    layout: Sequence[DetectorGroup],
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Reported bits for one shot of state detection."""
    arr = apply_readout_array(
        np.asarray(true_bits, dtype=np.int64)[None, :], model, layout, rng
    )
    return tuple(int(b) for b in arr[0])


def confusion_matrix_enumerated(
    n_bits: int, model: DetectorModel, layout: Sequence[DetectorGroup]
) -> np.ndarray:
    """Reference for ``detection.confusion_matrix``: M[reported, true]
    enumerated per true outcome, first every per-ion flip pattern, then
    every shared-detector bright-count confusion, in Python dicts."""
    _validate_layout(n_bits, layout, model)
    eps = model.single_qubit_error
    dim = 2**n_bits
    m = np.zeros((dim, dim))
    shared_pairs = [
        g.positions
        for g in layout
        if model.is_shared(g.module) and len(g.positions) == 2
    ]
    for true in range(dim):
        true_bits = [(true >> (n_bits - 1 - k)) & 1 for k in range(n_bits)]
        # enumerate per-ion flip patterns
        dist = {tuple(true_bits): 1.0}
        for k in range(n_bits):
            nxt: dict[tuple[int, ...], float] = {}
            for bits, p in dist.items():
                stay = list(bits)
                flip = list(bits)
                flip[k] ^= 1
                nxt[tuple(stay)] = nxt.get(tuple(stay), 0.0) + p * (1.0 - eps)
                nxt[tuple(flip)] = nxt.get(tuple(flip), 0.0) + p * eps
            dist = nxt
        # shared-detector bright-count confusion
        for i, j in shared_pairs:
            nxt = {}
            for bits, p in dist.items():
                bright = bits[i] + bits[j]
                if bright == 1 and model.two_qubit_overlap > 0:
                    up = list(bits)
                    up[i] = up[j] = 1
                    nxt[tuple(up)] = nxt.get(tuple(up), 0.0) + p * model.two_qubit_overlap
                    nxt[bits] = nxt.get(bits, 0.0) + p * (1.0 - model.two_qubit_overlap)
                elif bright == 2 and model.two_qubit_overlap > 0:
                    for drop in (i, j):
                        down = list(bits)
                        down[drop] = 0
                        nxt[tuple(down)] = (
                            nxt.get(tuple(down), 0.0) + p * model.two_qubit_overlap / 2.0
                        )
                    nxt[bits] = nxt.get(bits, 0.0) + p * (1.0 - model.two_qubit_overlap)
                else:
                    nxt[bits] = nxt.get(bits, 0.0) + p
            dist = nxt
        for bits, p in dist.items():
            rep = 0
            for b in bits:
                rep = (rep << 1) | b
            m[rep, true] += p
    return m


_SINGLE_PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
_TWO_QUBIT_PAULIS = [np.kron(a, b) for a in _SINGLE_PAULIS for b in _SINGLE_PAULIS]


def ms_gate_trajectory(
    s: st.QuantumState,
    pair: Sequence[str],
    phi_a: float,
    depolarizing_p: float,
    rng: np.random.Generator,
) -> st.QuantumState:
    """Entangling gate with its depolarizing noise unravelled as a trajectory.

    With probability p a uniformly random two-qubit Pauli follows the
    ideal gate, which keeps pure states pure and has the ensemble
    statistics of the exact channel.
    """
    out = ms_gate(s, pair, phi_a)
    if rng.random() < depolarizing_p:
        pauli = _TWO_QUBIT_PAULIS[rng.integers(16)]
        out = st.apply_unitary(out, pauli, list(pair))
    return out


def sample_scan_per_row(probs: np.ndarray, shots: int, seed: int, *key: int) -> np.ndarray:
    """Reference for the shots of a scan (``montecarlo.sample_outcomes``):
    one ``multinomial`` call per row, each row normalised on its own, all
    rows in turn from the generator ``default_rng`` builds for the
    counter ``key``."""
    rng = np.random.default_rng(SeedSequence(entropy=seed, spawn_key=key))
    return np.array([rng.multinomial(shots, p / p.sum()) for p in probs])


def protocol_trials_per_trial(
    script, scenario, branches, n_trials: int, seed: int, *key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the trials of ``montecarlo.run_protocol`` on a script
    that heralds: one ``multinomial`` draw of ``n_trials`` over the joint
    distribution ``joint[b, r, t]`` of herald branch, reported and true
    outcome, then the geometric number of attempts of every trial at the
    first herald step, then at the next one, all from the
    generator ``default_rng`` builds for the counter ``key``. Returns the
    trial counts of each (b, r, t) cell and the herald times."""
    weights = np.array([b.weight for b in branches])
    true_given_branch = np.array(
        [st.outcome_probabilities(b.state, script.qubits) for b in branches]
    )
    readout = readout_channel(script, scenario)
    joint = weights[:, None, None] * readout[None, :, :] * true_given_branch[:, None, :]
    rng = np.random.default_rng(SeedSequence(entropy=seed, spawn_key=key))
    counts = rng.multinomial(n_trials, joint.ravel() / joint.sum()).reshape(joint.shape)
    p_herald = success_probability(scenario.budget)
    n_heralds = sum(isinstance(s, HeraldStep) for s in script.steps)
    attempts = np.zeros(n_trials, dtype=np.int64)
    for _ in range(n_heralds):
        attempts += rng.geometric(p_herald, size=n_trials)
    return counts, attempts / scenario.budget.rep_rate
