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
from .states import QuantumState, _dephasing_factor, _phase_factor

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
    The coherences of every pair in ``pairs`` are dephased as by
    ``dephase_pair`` with factor exp(-t/tau_s) (exactly 1 for an infinite
    ``tau_s``); populations are preserved exactly. A zero duration
    leaves its point unchanged.

    The state is multiplied once, elementwise, by the product of the
    ``apply_phase`` factor of each B atom and the ``dephase_pair`` factor
    of each pair: the same map as applying them one after the other, up
    to rounding.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {t}")
    if not np.any(t):
        return s
    factors = [_phase_factor(s, q, -delta_omega_ab * t) for q in b_atoms]
    gamma = np.exp(-t / tau_s)
    factors += [_dephasing_factor(s, pair, gamma) for pair in pairs]
    factors = [f for f in factors if f is not None]
    if not factors:
        return s
    return QuantumState._of(s.labels, s.data * math.prod(factors))
