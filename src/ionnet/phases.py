"""Inter-module phase bookkeeping and stored-state evolution.

The phase of the heralded two-atom state is the sum of five terms: the
detector phase phi_d of the herald, the Zeeman-shift beat
Delta_omega_AB * t, two static geometric terms k*c*Delta_tau and
k*Delta_x from the excitation timing and path-length mismatch, and the
transfer-pulse phase Delta_phi_T. The ledger holds the four terms set by
the apparatus; phi_d comes with each herald. All terms are tracked in
full precision; only ``phi_ab`` reduces to (-pi, pi] at the output.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .records import Record
from .states import QuantumState, apply_phase, dephase_pair

__all__ = [
    "SPEED_OF_LIGHT",
    "PhaseLedger",
    "MemoryDecoherence",
    "phi_ab",
    "free_evolution",
]

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# The geometric terms are supposed to stay below 1e-2 rad; larger values
# are allowed but flagged at configuration load.
GEOMETRIC_PHASE_BOUND = 1e-2


class PhaseLedger(Record):
    """The apparatus phase terms, with SI units.

    delta_omega_ab: difference of the qubit splittings, rad/s.
    k: wavenumber of the emission Zeeman splitting, 1/m.
    delta_tau: excitation-time mismatch, s.
    delta_x: path-length mismatch to the beam-splitter, m.
    delta_phi_t: transfer-pulse phase difference, radians.
    """

    delta_omega_ab: float = 2.0 * math.pi * 2.5e3
    k: float = 0.33
    delta_tau: float = 1e-10
    delta_x: float = 0.03
    delta_phi_t: float = 0.0
    c = SPEED_OF_LIGHT  # a constant, not a setting

    def geometric_phase(self) -> float:
        """Static geometric contribution k*c*delta_tau + k*delta_x."""
        return self.k * self.c * self.delta_tau + self.k * self.delta_x

    def herald_phase(self, phi_d: float) -> float:
        """Phase of the pair at its herald: phi_d plus the static terms."""
        return phi_d + self.geometric_phase() + self.delta_phi_t

    def warnings(self) -> list[str]:
        """Soft invariant checks, reported at configuration load."""
        notes = []
        if abs(self.k * self.c * self.delta_tau) >= GEOMETRIC_PHASE_BOUND:
            notes.append(
                f"excitation-time phase k*c*delta_tau = {self.k * self.c * self.delta_tau:.3g} "
                f"rad is not small (expected < {GEOMETRIC_PHASE_BOUND})"
            )
        if abs(self.k * self.delta_x) >= GEOMETRIC_PHASE_BOUND:
            notes.append(
                f"path-length phase k*delta_x = {self.k * self.delta_x:.3g} "
                f"rad is not small (expected < {GEOMETRIC_PHASE_BOUND})"
            )
        return notes


class MemoryDecoherence(Record):
    """Collective dephasing of a stored entangled pair.

    A single coherence time drives an exponential decay of the pair
    coherences; the mechanism is the residual magnetic-field-gradient
    noise between the modules, so the odd-parity coherence is the
    primary casualty. Even-parity coherences use the same constant.
    """

    tau_s: float = 1.12

    def __post_init__(self):
        if self.tau_s <= 0:
            raise ValueError(f"memory.tau_s = {self.tau_s} must be positive")


def phi_ab(ledger: PhaseLedger, phi_d: float, t: float) -> float:
    """Inter-module phase at time ``t`` after a herald with detector
    phase ``phi_d``, reduced to (-pi, pi]."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    total = ledger.herald_phase(phi_d) + ledger.delta_omega_ab * t
    reduced = math.remainder(total, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


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
    The coherences of every pair in ``pairs`` are multiplied by
    exp(-t/tau_s) (exactly 1 for an infinite ``tau_s``); populations are
    preserved exactly. A zero duration leaves its point unchanged.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {t}")
    if not np.any(t):
        return s
    out = s
    for q in b_atoms:
        out = apply_phase(out, q, -delta_omega_ab * t)
    gamma = np.exp(-t / tau_s)
    for pair in pairs:
        out = dephase_pair(out, pair, gamma)
    return out
