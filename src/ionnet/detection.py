"""State-detection imperfections.

Two mechanisms are modelled. Every ion read by its own detector flips
with a small probability (off-resonant pumping during fluorescence
detection). Two ions sharing a single detector additionally suffer a
histogram overlap between the one-ion-bright and two-ion-bright count
distributions, modelled as a symmetric confusion between the aggregated
"one bright" outcome (01 or 10) and the "two bright" outcome (11).
Zero-bright is only affected through the per-ion flips.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .records import Record

__all__ = [
    "DetectorModel",
    "DetectorGroup",
    "apply_readout_array",
    "confusion_matrix",
]


class DetectorModel(Record):
    """The ``[detectors]`` section: readout errors and, per module,
    whether its ions share one detector or each have their own."""

    single_qubit_error: float = 0.01
    two_qubit_overlap: float = 0.08
    module_a: str = "shared"
    module_b: str = "individual"

    def __post_init__(self):
        for name in ("single_qubit_error", "two_qubit_overlap"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"detectors.{name} = {value} outside [0, 1]")
        for name in ("module_a", "module_b"):
            kind = getattr(self, name)
            if kind not in ("shared", "individual"):
                raise ValueError(f"detectors.{name} = {kind} must be 'shared' or 'individual'")

    def is_shared(self, module: str) -> bool:
        if module not in ("A", "B"):
            raise ValueError(f"no detector declared for module {module!r}")
        return getattr(self, f"module_{module.lower()}") == "shared"


class DetectorGroup(Record):
    """Ions of one module mapped to bit positions of the outcome string."""

    module: str
    positions: tuple[int, ...]


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

    Columns sum to one. The exact reported statistics and the sampled
    trials both use it; ``apply_readout_array`` draws the same channel
    shot by shot.
    """
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
