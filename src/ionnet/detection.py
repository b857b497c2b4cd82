"""State-detection imperfections.

Two mechanisms are modelled. Every ion read by its own detector flips
with a small probability (off-resonant pumping during fluorescence
detection). Two ions sharing a single detector additionally suffer a
histogram overlap between the one-ion-bright and two-ion-bright count
distributions, modelled as a symmetric confusion between the aggregated
"one bright" outcome (01 or 10) and the "two bright" outcome (11).
Zero-bright is only affected through the per-ion flips.

The exact channel (``confusion_matrix``) is the product of these parts:
one 2x2 flip matrix per ion, then one 4x4 overlap channel per shared
pair. ``apply_readout_array`` draws the same channel shot by shot.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .scenario import DetectorGroup, DetectorModel

__all__ = [
    "apply_readout_array",
    "confusion_matrix",
]


def _validate_layout(n_bits: int, layout: Sequence[DetectorGroup], model: DetectorModel):
    seen: list[int] = []
    for group in layout:
        seen.extend(group.positions)
        if model.is_shared(group.module) and len(group.positions) > 2:
            raise ValueError(
                f"shared detector of module {group.module!r} covers "
                f"{len(group.positions)} ions; the overlap model handles at most two"
            )
    if sorted(seen) != list(range(n_bits)):
        raise ValueError(
            f"detector layout positions {sorted(seen)} do not cover a "
            f"{n_bits}-bit outcome exactly once"
        )


def apply_readout_array(
    true_bits: np.ndarray,
    model: DetectorModel,
    layout: Sequence[DetectorGroup],
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized readout for an (n_shots, n_bits) array of outcomes."""
    bits = np.asarray(true_bits, dtype=np.int64)
    if bits.ndim != 2:
        raise ValueError("true_bits must be a 2-d (shots, bits) array")
    _validate_layout(bits.shape[1], layout, model)
    out = bits.copy()
    n = bits.shape[0]
    # Per-ion flips apply everywhere; they cover the zero/one-bright
    # confusion on shared detectors as well.
    if model.single_qubit_error > 0:
        flips = rng.random(bits.shape) < model.single_qubit_error
        out ^= flips.astype(np.int64)
    if model.two_qubit_overlap > 0:
        for group in layout:
            if not model.is_shared(group.module) or len(group.positions) != 2:
                continue
            i, j = group.positions
            bright = out[:, i] + out[:, j]
            confuse = rng.random(n) < model.two_qubit_overlap
            # one bright reported as two bright
            up = confuse & (bright == 1)
            out[up, i] = 1
            out[up, j] = 1
            # two bright reported as one bright; the shared detector
            # cannot tell the ions apart, so pick the bright one at random
            down = confuse & (bright == 2)
            which = rng.random(n) < 0.5
            out[down & which, i] = 0
            out[down & ~which, j] = 0
    return out


def confusion_matrix(
    n_bits: int, model: DetectorModel, layout: Sequence[DetectorGroup]
) -> np.ndarray:
    """Exact stochastic matrix M[reported, true] of the readout channel.

    Columns sum to one. The channel is built from its parts: the
    Kronecker product of the per-ion 2x2 flip matrices, then the 4x4
    overlap channel of each shared detector on its pair's two reported
    bits (the tensored readout model of Bravyi et al., PRA 103, 042605
    (2021), plus the pair term). The exact reported statistics and the
    sampled trials both use it. Each channel is built once per process
    (a bounded cache) and returned read-only.
    """
    return _confusion_matrix(n_bits, model, tuple(layout))


@functools.lru_cache(maxsize=32)
def _confusion_matrix(
    n_bits: int, model: DetectorModel, layout: tuple[DetectorGroup, ...]
) -> np.ndarray:
    _validate_layout(n_bits, layout, model)
    eps, o = model.single_qubit_error, model.two_qubit_overlap
    flip = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    m = np.ones((1, 1))
    for _ in range(n_bits):  # m = kron(m, flip)
        m = (m[:, None, :, None] * flip[:, None, :]).reshape(2 * len(m), -1)
    # overlap[reported pair, true pair], pair bits (i, j) read as 2 i + j:
    # one bright is reported as two with probability o, two bright as
    # either one-bright outcome with o / 2 each; zero bright is untouched.
    overlap = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 - o, 0.0, o / 2.0],
            [0.0, 0.0, 1.0 - o, o / 2.0],
            [0.0, o, o, 1.0 - o],
        ]
    ).reshape(2, 2, 2, 2)
    m = m.reshape((2,) * n_bits + (2**n_bits,))  # one axis per reported bit
    for group in layout:
        if model.is_shared(group.module) and len(group.positions) == 2:
            i, j = group.positions
            m = np.moveaxis(np.tensordot(overlap, m, axes=((2, 3), (i, j))), (0, 1), (i, j))
    m = m.reshape(2**n_bits, 2**n_bits)
    m.setflags(write=False)
    return m
