"""Entangling gate and microwave/Raman rotations.

The two-qubit entangling gate is the spin-dependent-force map

    |00> -> (|00> - i e^{-i phi} |11>) / sqrt(2)
    |11> -> (|11> - i e^{+i phi} |00>) / sqrt(2)
    |01> -> (|01> - i |10>) / sqrt(2)
    |10> -> (|10> - i |01>) / sqrt(2)

where ``phi`` is set by the relative optical phase of the two Raman
beams and is constant within one run. Gate noise is a single two-qubit
depolarizing channel calibrated against the measured gate fidelity; the
motional mode itself is not simulated.

Phase conventions
-----------------
``rotation_matrix`` is the standard R(theta, phi) = exp(-i theta (cos phi X +
sin phi Y) / 2). Parity scans are phase-referenced to the entangling
beams: ``analysis_rotation`` maps scan phase phi to the rotation axis
angle pi/4 - phi, which makes the even-parity fringe of the gate output
read exactly cos(phi_gate - 2 phi). Odd-parity (remote-pair) fringes do
not depend on the analysis axis at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .states import (
    QuantumState, StateError, apply_to_each, apply_unitary, depolarize, free_evolution,
)

__all__ = [
    "ms_unitary",
    "ms_gate",
    "rotation_matrix",
    "analysis_rotation",
    "spin_echo_ramsey",
]

def ms_unitary(phi: float) -> np.ndarray:
    """4x4 entangling-gate matrix in the (00, 01, 10, 11) basis."""
    e_plus = np.exp(1j * phi)
    e_minus = np.exp(-1j * phi)
    return np.array(
        [
            [1.0, 0.0, 0.0, -1j * e_plus],
            [0.0, 1.0, -1j, 0.0],
            [0.0, -1j, 1.0, 0.0],
            [-1j * e_minus, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    ) / math.sqrt(2.0)


def ms_gate(
    s: QuantumState,
    pair: Sequence[str],
    phi_a: float,
    depolarizing_p: float = 0.0,
) -> QuantumState:
    """Entangling gate on ``pair`` with intramodular phase ``phi_a``.

    The two-qubit depolarizing noise of probability ``depolarizing_p`` is
    applied as the exact channel after the ideal gate.
    """
    pair = list(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise StateError(f"gate needs two distinct labels, got {pair}")
    return depolarize(apply_unitary(s, ms_unitary(phi_a), pair), pair, depolarizing_p)


def rotation_matrix(theta, phi) -> np.ndarray:
    """R(theta, phi) = exp(-i theta (cos phi X + sin phi Y) / 2); array
    angles broadcast to a (..., 2, 2) stack. R(0, phi) is the identity
    exactly."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    c = np.cos(theta / 2.0)
    s = -1j * np.sin(theta / 2.0)
    return np.stack(
        [np.stack([c, s * np.exp(-1j * phi)], -1), np.stack([s * np.exp(1j * phi), c], -1)], -2
    ).astype(complex)


def analysis_rotation(
    s: QuantumState, targets: Sequence[str], theta, phi
) -> QuantumState:
    """Analysis pulse with scan phase ``phi`` on each target qubit; array
    angles give one pulse per point of a stack.

    The scan phase is referenced to the entangling-beam frame (axis
    angle pi/4 - phi), so parity fringes of the gate output follow
    cos(phi_gate - 2 phi).
    """
    return apply_to_each(s, rotation_matrix(theta, math.pi / 4.0 - phi), targets)


def spin_echo_ramsey(
    s: QuantumState,
    pair: Sequence[str],
    total_delay_s: float,
    gradient_rad_per_s: float,
    final_phase: float,
    coherence_time_s: float = math.inf,
) -> QuantumState:
    """Ramsey sequence with a mid-delay echo on an entangled pair.

    Free evolution under the inter-module gradient for half the delay,
    simultaneous pi pulses, the second half, then pi/2 analysis pulses
    of phase ``final_phase``. A static gradient cancels exactly; only
    stochastic dephasing (``coherence_time_s``) survives the echo.
    ``pair`` is ordered (module-A atom, module-B atom).
    """
    if total_delay_s < 0:
        raise ValueError(f"delay must be non-negative, got {total_delay_s}")
    pair = list(pair)
    half = total_delay_s / 2.0
    out = s
    if total_delay_s > 0:
        # With zero delay the sequence degenerates to the bare analysis
        # pulse; the echo is only inserted when there is a delay to split.
        # The gradient phase accrues on the B atom in the A-module frame,
        # so a static gradient cancels across the echo exactly.
        b_atom = pair[1:]
        out = free_evolution(out, half, gradient_rad_per_s, b_atom, [pair], coherence_time_s)
        out = apply_to_each(out, rotation_matrix(math.pi, 0.0), pair)
        out = free_evolution(out, half, gradient_rad_per_s, b_atom, [pair], coherence_time_s)
    return apply_to_each(out, rotation_matrix(math.pi / 2.0, final_phase), pair)
