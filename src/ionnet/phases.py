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

from .scenario import PhaseLedger
from .states import QuantumState, apply_phase, dephase_pair

__all__ = [
    "phi_ab",
    "free_evolution",
]

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
