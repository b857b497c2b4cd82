#!/usr/bin/env python3
"""Calibration of the two documented noise constants.

1. Mode overlap v. Each module contributes a Werner-mixed atom-photon
   state with weight w = (4 F_ap - 1) / 3, so that its state fidelity is
   the configured F_ap = 0.92. The heralded two-atom fidelity then obeys

       F = w^2 (1 + v^2) / 2 + (1 - w^2) / 4

   (the incoherent fraction of the interference contributes 1/2, the
   single-sided and double-sided Werner floors contribute 1/4). Solving
   for the target F = 0.79 fixes v. The script verifies the closed form
   against the full density-matrix pipeline.

2. Re-initialization crosstalk. The optical pumping beam that resets
   atom 1 depolarizes its neighbour atom 2 with probability q. With the
   gate, link and detector models at their defaults, q is scanned and
   the value maximizing the joint margin of the three-qubit conditional
   targets (even/odd correlations 0.71/0.75, conditional fidelity 0.63,
   each within +-0.05) is reported. The shipped calibrated scenario
   (configs/calibrated_3q.cfg) embeds the result.

   Each row shows every target's signed residual (value minus target)
   beside its value, and the readout-free pair (``_exact_ideal``) beside
   the reported one. Without readout errors the two correlations are
   equal at every q; the shared-detector overlap o then puts the odd one
   o/2 below the even one (``gap``). Scanning q alone therefore cannot
   give the targets' order, odd above even.

Run:  python3 scripts/calibrate.py
"""

import math
import sys

import numpy as np

sys.path.insert(0, "src")

from ionnet import states as st
from ionnet.photonics import conditional_herald_states, heralded_bell_ket
from ionnet.protocols import modular_3q_experiment
from ionnet.scenario import LinkErrorModel, loads_scenario

TARGET_HERALD_FIDELITY = 0.79
ATOM_PHOTON_FIDELITY = 0.92

CORR_EVEN_TARGET = 0.71
CORR_ODD_TARGET = 0.75
COND_FIDELITY_TARGET = 0.63
TOLERANCE = 0.05


def calibrate_mode_overlap() -> float:
    w = (4.0 * ATOM_PHOTON_FIDELITY - 1.0) / 3.0
    w2 = w * w
    v2 = 2.0 * (TARGET_HERALD_FIDELITY - (1.0 - w2) / 4.0) / w2 - 1.0
    v = math.sqrt(v2)
    print(f"werner weight w          = {w!r}")
    print(f"mode overlap v           = {v!r}")

    # cross-check with the full pipeline
    err = LinkErrorModel(atom_photon_fidelity=ATOM_PHOTON_FIDELITY, mode_overlap=v)
    fids = []
    for phi_d, _, state in conditional_herald_states(err, ("a", "b")):
        target = heralded_bell_ket(("a", "b"), phi_d)
        fids.append(st.fidelity(state, target))
    print(f"pipeline herald fidelity = {float(np.mean(fids))!r} (target {TARGET_HERALD_FIDELITY})")
    return v


def calibrate_crosstalk() -> float:
    print()
    print("crosstalk scan (exact conditional statistics; signed residual value - target")
    print("in brackets; gap = (C_even - C_odd) - (C_even_ideal - C_odd_ideal)):")
    best_q, best_margin = None, -1.0
    for q in np.arange(0.0, 0.2001, 0.01):
        q = float(q)
        scenario = loads_scenario(
            f"[protocol]\ncrosstalk_depol = {q!r}\n", seed=1, n_trials=100, shots_per_point=100
        )
        res = modular_3q_experiment(scenario)
        ce = res.summary["corr_even_given_remote1_exact"]
        co = res.summary["corr_odd_given_remote0_exact"]
        fc = res.summary["conditional_fidelity_exact"]
        ce_ideal = res.summary["corr_even_given_remote1_exact_ideal"]
        co_ideal = res.summary["corr_odd_given_remote0_exact_ideal"]
        residuals = (ce - CORR_EVEN_TARGET, co - CORR_ODD_TARGET, fc - COND_FIDELITY_TARGET)
        margin = min(TOLERANCE - abs(r) for r in residuals)
        flag = " <-- feasible" if margin >= 0 else ""
        print(
            f"  q={q:0.2f}  C_even={ce:0.4f} [{residuals[0]:+0.4f}]"
            f"  C_odd={co:0.4f} [{residuals[1]:+0.4f}]  F_cond={fc:0.4f} [{residuals[2]:+0.4f}]"
            f"  margin={margin:+0.4f}  C_even_ideal={ce_ideal:0.4f}  C_odd_ideal={co_ideal:0.4f}"
            f"  gap={(ce - co) - (ce_ideal - co_ideal):+0.4f}{flag}"
        )
        if margin > best_margin:
            best_q, best_margin = q, margin
    overlap = loads_scenario("").detectors.two_qubit_overlap
    print(f"two_qubit_overlap o = {overlap!r}, o/2 = {overlap / 2:0.4f}")
    print(f"selected crosstalk_depol = {best_q:0.2f} (margin {best_margin:+0.4f})")
    return best_q


if __name__ == "__main__":
    calibrate_mode_overlap()
    calibrate_crosstalk()
