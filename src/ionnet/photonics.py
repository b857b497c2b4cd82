"""Photon emission, wave-plate mapping and two-photon interference.

Basis conventions
-----------------
Atom: index 0 is the Zeeman state that the transfer pulses map to clock
|0>, index 1 the one mapped to clock |1>. Photon: index 0 is sigma+
before the quarter-wave plate and H after it; index 1 is sigma- / V.

Each excited atom decays into the maximally entangled atom-photon
singlet (|0>|sigma-> - |1>|sigma+>)/sqrt(2). The wave plate is the
fixed unitary diag(i, 1), which sends the emission state to
(|0>|V> - i |1>|H>)/sqrt(2).

Bell-state measurement
----------------------
The two photons interfere on a 50/50 beam-splitter; each output port is
split by a polarizer onto two detectors. Detectors are numbered so that
a coincidence on (1,2) or (3,4) projects onto (|HV> + |VH>)/sqrt(2)
(detector phase 0) and a coincidence on (1,3) or (2,4) projects onto
(|HV> - |VH>)/sqrt(2) (detector phase pi). Same-polarization photon
pairs bunch and never produce a valid coincidence.

Partial distinguishability enters through the mode overlap v of the two
photon wave packets. The indistinguishable fraction v^2 performs the
coherent Bell projection; the remaining 1 - v^2 behaves as two
independent single-photon detections, which heralds on the same
detector pairs but projects onto |HV><HV| or |VH><VH| instead,
degrading the heralded fidelity. For every v the no-herald operator is
|HH><HH| + |VV><VV|.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .scenario import LinkErrorModel
from .states import (
    QuantumState,
    StateError,
    _apply_matrix_density,
    apply_phase,
    apply_unitary,
    mixed_state,
    partial_trace,
    pure_state,
    tensor,
)

__all__ = [
    "DETECTOR_PHASES",
    "DETECTOR_PAIRS",
    "emit_atom_photon",
    "ideal_emission_ket",
    "qwp_map",
    "qwp_matrix",
    "module_emission",
    "bsm_kraus_operators",
    "conditional_herald_states",
    "heralded_bell_ket",
]

# The valid coincidence pairs of each detector phase; the phases in the
# order of the herald's branches.
_PAIRS_OF_PHASE = {0.0: ((1, 2), (3, 4)), math.pi: ((1, 3), (2, 4))}
DETECTOR_PHASES = tuple(_PAIRS_OF_PHASE)
DETECTOR_PAIRS = {pair: phi_d for phi_d, pairs in _PAIRS_OF_PHASE.items() for pair in pairs}


def ideal_emission_ket(atom_label: str, photon_label: str) -> QuantumState:
    """(|0>|sigma-> - |1>|sigma+>)/sqrt(2) on (atom, photon)."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return pure_state(amps, [atom_label, photon_label])


def emit_atom_photon(
    error: LinkErrorModel, atom_label: str = "atom", photon_label: str = "photon"
) -> QuantumState:
    """Excite one atom and collect its photon.

    Returns the Werner state w |psi><psi| + (1 - w) I/4 around the ideal
    atom-photon singlet; w is chosen so the state fidelity equals the
    configured ``atom_photon_fidelity`` exactly.
    """
    ideal = ideal_emission_ket(atom_label, photon_label)
    w = error.werner_weight()
    rho = w * ideal.data + (1.0 - w) * np.eye(4) / 4.0
    return mixed_state(rho, [atom_label, photon_label])


def qwp_matrix() -> np.ndarray:
    """Quarter-wave plate: sigma+ -> i H, sigma- -> V."""
    return np.diag([1j, 1.0]).astype(complex)


def qwp_map(s: QuantumState, photon_label: str) -> QuantumState:
    """Circular-to-linear polarization mapping on one photon mode."""
    return apply_unitary(s, qwp_matrix(), [photon_label])


def module_emission(
    error: LinkErrorModel, atom_label: str, photon_label: str
) -> QuantumState:
    """Emission followed by the wave plate: the state entering the fiber."""
    return qwp_map(emit_atom_photon(error, atom_label, photon_label), photon_label)


def bsm_kraus_operators(v: float) -> dict[tuple[int, int], list[np.ndarray]]:
    """Kraus operators on the two-photon polarization space per outcome.

    Basis order (HH, HV, VH, VV) with photon A the first factor. Each
    valid detector pair carries one coherent Bell-projection operator
    (weight v^2) and two incoherent product projections (weight 1-v^2).
    """
    if not 0.0 <= v <= 1.0:
        raise StateError(f"mode overlap {v} outside [0, 1]")
    hv, vh = np.eye(4, dtype=complex)[1:3]
    psi_plus = (hv + vh) / math.sqrt(2.0)
    psi_minus = (hv - vh) / math.sqrt(2.0)
    coherent = math.sqrt(0.5) * v
    incoherent = 0.5 * math.sqrt(max(1.0 - v * v, 0.0))
    out: dict[tuple[int, int], list[np.ndarray]] = {}
    for pair, phase in DETECTOR_PAIRS.items():
        bell = psi_plus if phase == DETECTOR_PHASES[0] else psi_minus
        ops = [coherent * np.outer(bell, bell.conj())]
        if incoherent > 0.0:
            ops += [incoherent * np.outer(hv, hv.conj()), incoherent * np.outer(vh, vh.conj())]
        out[pair] = ops
    return out


def conditional_herald_states(
    error: LinkErrorModel, link: Sequence[str], transfer_phase: float = 0.0
) -> list[tuple[float, float, QuantumState]]:
    """Exact post-herald states of the ``link`` atoms (module A's first),
    one ``(phi_d, prob, state)`` per detector phase, in the order of
    ``DETECTOR_PHASES``.

    The two detector pairs of one phase carry the same Kraus operators,
    so the heralded state depends on the coincidence only through phi_d.
    Each phase's branch applies one pair's operators and counts them
    once per pair of that phase: exactly what adding the pairs gives.
    The photon modes the atoms emit into are traced out here again.
    Probabilities are conditioned on both photons being present (they
    sum to the herald fraction, 1/2 for ideal emissions). The states
    have the transfer pulses applied; ``transfer_phase`` is the total
    static phase the transfer pulses and geometry imprint on the A atom.
    """
    atom_a, atom_b = link
    joint = _emission_register(error, atom_a, atom_b)
    kraus = bsm_kraus_operators(error.mode_overlap)
    results = []
    for phi_d, pairs in _PAIRS_OF_PHASE.items():
        prob, state = _project_photons(joint, joint.labels[1::2], kraus[pairs[0]], len(pairs))
        if prob <= 0.0:
            continue
        atoms = partial_trace(state, [atom_a, atom_b])
        if transfer_phase != 0.0:
            atoms = apply_phase(atoms, atom_a, transfer_phase)
        results.append((phi_d, prob, atoms))
    return results


def _emission_register(error: LinkErrorModel, atom_a: str, atom_b: str) -> QuantumState:
    """The register (atom_a, photon_a, atom_b, photon_b) entering the fiber; q emits into _ph_q."""
    return tensor(*(module_emission(error, q, f"_ph_{q}") for q in (atom_a, atom_b)))


def _project_photons(
    joint: QuantumState,
    photon_labels: tuple[str, str],
    kraus: list[np.ndarray],
    n_pairs: int,
) -> tuple[float, QuantumState]:
    """Apply one detector pair's photon-space Kraus set, counted for
    ``n_pairs`` pairs with the same operators, and renormalize.

    The set is applied as one stack and summed over it. Twice a sum is
    exactly the sum of two equal terms, so for the two pairs of a phase
    the result is the one that adding the pairs gives, to the last bit.
    """
    n = joint.n_subsystems
    axes = [joint.axis(lbl) for lbl in photon_labels]
    out = n_pairs * _apply_matrix_density(joint.data, np.stack(kraus), axes, n).sum(axis=0)
    prob = float(out.trace().real)
    if prob <= 0.0:
        return 0.0, joint
    return prob, mixed_state(out / prob, joint.labels)


def heralded_bell_ket(pair: Sequence[str], phase: float) -> QuantumState:
    """(|01> + e^{i phase} |10>)/sqrt(2) on the given atom pair."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / math.sqrt(2.0)
    amps[2] = np.exp(1j * phase) / math.sqrt(2.0)
    return pure_state(amps, list(pair))

