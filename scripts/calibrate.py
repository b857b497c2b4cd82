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

Run:  python3 scripts/calibrate.py
"""

import math
import sys

import numpy as np

sys.path.insert(0, "src")

from ionnet import states as st
from ionnet.photonics import (
    LinkErrorModel,
    conditional_herald_states,
    heralded_bell_ket,
    module_emission,
)
from ionnet.protocols import modular_3q_experiment
from ionnet.scenario import loads_scenario

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
    a = module_emission(err, "a", "pa")
    b = module_emission(err, "b", "pb")
    fids = []
    for phi_d, _, state in conditional_herald_states(a, b, err):
        target = heralded_bell_ket(("a", "b"), phi_d)
        fids.append(st.fidelity(state, target))
    print(f"pipeline herald fidelity = {float(np.mean(fids))!r} (target {TARGET_HERALD_FIDELITY})")
    return v


def calibrate_crosstalk() -> float:
    print()
    print("crosstalk scan (exact conditional statistics):")
    best_q, best_margin = None, -1.0
    for q in np.arange(0.0, 0.2001, 0.01):
        q = float(q)
        text = f"[protocol]\ncrosstalk_depol = {q!r}\n"
        scenario = loads_scenario(text)
        res = modular_3q_experiment(scenario, n_trials=100, seed=1, shots=100)
        ce = res.summary["corr_even_given_remote1_exact"]
        co = res.summary["corr_odd_given_remote0_exact"]
        fc = res.summary["conditional_fidelity_exact"]
        margins = (
            TOLERANCE - abs(ce - CORR_EVEN_TARGET),
            TOLERANCE - abs(co - CORR_ODD_TARGET),
            TOLERANCE - abs(fc - COND_FIDELITY_TARGET),
        )
        margin = min(margins)
        flag = " <-- feasible" if margin >= 0 else ""
        print(
            f"  q={q:0.2f}  C_even={ce:0.4f}  C_odd={co:0.4f}  F_cond={fc:0.4f}"
            f"  margin={margin:+0.4f}{flag}"
        )
        if margin > best_margin:
            best_q, best_margin = q, margin
    print(f"selected crosstalk_depol = {best_q:0.2f} (margin {best_margin:+0.4f})")
    return best_q


if __name__ == "__main__":
    calibrate_mode_overlap()
    calibrate_crosstalk()
