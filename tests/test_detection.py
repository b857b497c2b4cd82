import math

import numpy as np
import pytest

from ionnet import detection as det
from ionnet.scenario import DetectorGroup, DetectorModel

from oracles import apply_readout, confusion_matrix_enumerated

RNG = np.random.default_rng

LAYOUT_3Q = (
    DetectorGroup(module="A", positions=(0, 1)),
    DetectorGroup(module="B", positions=(2,)),
)
LAYOUT_1Q = (DetectorGroup(module="B", positions=(0,)),)
LAYOUT_2Q_SHARED = (DetectorGroup(module="A", positions=(0, 1)),)


def test_zero_error_is_identity():
    model = DetectorModel(0.0, 0.0)
    rng = RNG(0)
    bits = rng.integers(0, 2, size=(500, 3))
    out = det.apply_readout_array(bits, model, LAYOUT_3Q, rng)
    np.testing.assert_array_equal(out, bits)


def test_single_qubit_flip_rate():
    model = DetectorModel(single_qubit_error=0.01, two_qubit_overlap=0.0)
    rng = RNG(1)
    n = 100_000
    bits = np.ones((n, 1), dtype=np.int64)
    out = det.apply_readout_array(bits, model, LAYOUT_1Q, rng)
    flipped = int((out == 0).sum())
    sigma = math.sqrt(n * 0.01 * 0.99)
    assert abs(flipped - 0.01 * n) < 3 * sigma


def test_shared_detector_overlap_rate():
    model = DetectorModel(single_qubit_error=0.0, two_qubit_overlap=0.08)
    rng = RNG(2)
    n = 100_000
    bits = np.ones((n, 2), dtype=np.int64)
    out = det.apply_readout_array(bits, model, LAYOUT_2Q_SHARED, rng)
    bright = out.sum(axis=1)
    one_bright = int((bright == 1).sum())
    sigma = math.sqrt(n * 0.08 * 0.92)
    assert abs(one_bright - 0.08 * n) < 3 * sigma
    # never reported dark from a two-bright truth without per-ion flips
    assert int((bright == 0).sum()) == 0


def test_one_bright_confused_up():
    model = DetectorModel(single_qubit_error=0.0, two_qubit_overlap=0.08)
    rng = RNG(3)
    n = 100_000
    bits = np.tile(np.array([[0, 1]]), (n, 1))
    out = det.apply_readout_array(bits, model, LAYOUT_2Q_SHARED, rng)
    two_bright = int((out.sum(axis=1) == 2).sum())
    sigma = math.sqrt(n * 0.08 * 0.92)
    assert abs(two_bright - 0.08 * n) < 3 * sigma


def test_zero_bright_untouched_by_overlap():
    model = DetectorModel(single_qubit_error=0.0, two_qubit_overlap=0.5)
    rng = RNG(4)
    bits = np.zeros((2000, 2), dtype=np.int64)
    out = det.apply_readout_array(bits, model, LAYOUT_2Q_SHARED, rng)
    np.testing.assert_array_equal(out, bits)


def test_empirical_confusion_matrix_matches_enumeration():
    model = DetectorModel()  # defaults 0.01 / 0.08, A shared
    oracle = det.confusion_matrix(3, model, LAYOUT_3Q)
    # columns are probability distributions
    np.testing.assert_allclose(oracle.sum(axis=0), np.ones(8), atol=1e-12)
    rng = RNG(5)
    n = 60_000
    for true in range(8):
        true_bits = [(true >> 2) & 1, (true >> 1) & 1, true & 1]
        bits = np.tile(np.array([true_bits]), (n, 1))
        out = det.apply_readout_array(bits, model, LAYOUT_3Q, rng)
        reported = (out[:, 0] << 2) | (out[:, 1] << 1) | out[:, 2]
        counts = np.bincount(reported, minlength=8)
        for rep in range(8):
            p = oracle[rep, true]
            sigma = math.sqrt(max(n * p * (1 - p), 1.0))
            assert abs(counts[rep] - n * p) < 4 * sigma, (true, rep)


def layout(*groups):
    return tuple(DetectorGroup(module=m, positions=p) for m, p in groups)


# Reversed positions and a 4-qubit layout with two shared pairs are
# among them.
LAYOUTS = [
    (3, LAYOUT_3Q),
    (3, layout(("A", (1, 0)), ("B", (2,)))),
    (3, layout(("B", (1,)), ("A", (2, 0)))),
    (4, layout(("A", (3, 1)), ("B", (0, 2)))),
    (2, LAYOUT_2Q_SHARED),
]
TOPOLOGIES = [(a, b) for a in ("shared", "individual") for b in ("shared", "individual")]


@pytest.mark.parametrize("module_a, module_b", TOPOLOGIES)
@pytest.mark.parametrize("n_bits, groups", LAYOUTS)
def test_confusion_matrix_matches_enumeration(n_bits, groups, module_a, module_b):
    rng = RNG(7)
    errors = [(0.0, 0.0), (0.01, 0.08), (1.0, 1.0), *rng.random((40, 2)).tolist()]
    for eps, overlap in errors:
        model = DetectorModel(eps, overlap, module_a, module_b)
        got = det.confusion_matrix(n_bits, model, groups)
        want = confusion_matrix_enumerated(n_bits, model, groups)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "n_bits, groups, match",
    [
        (2, LAYOUT_3Q, r"positions \[0, 1, 2\] do not cover a 2-bit outcome"),
        (3, layout(("A", (0, 1))), r"\[0, 1\] do not cover a 3-bit"),
        (2, layout(("A", (0, 0))), r"\[0, 0\] do not cover a 2-bit"),
        (3, layout(("A", (0, 1, 2))), "covers 3 ions"),
        (1, layout(("C", (0,))), "module 'C'"),
    ],
)
def test_confusion_matrix_layout_rejections(n_bits, groups, match):
    model = DetectorModel()
    for build in (det.confusion_matrix, confusion_matrix_enumerated):
        with pytest.raises(ValueError, match=match):
            build(n_bits, model, groups)


def test_individual_topology_has_no_overlap():
    model = DetectorModel(
        single_qubit_error=0.0, two_qubit_overlap=0.5,
        module_a="individual", module_b="individual",
    )
    rng = RNG(6)
    bits = np.ones((1000, 2), dtype=np.int64)
    out = det.apply_readout_array(bits, model, LAYOUT_2Q_SHARED, rng)
    np.testing.assert_array_equal(out, bits)


def test_layout_validation():
    model = DetectorModel()
    rng = RNG(0)
    with pytest.raises(ValueError):
        apply_readout((0, 1), model, LAYOUT_3Q, rng)  # 2 bits vs 3 positions
    bad = (DetectorGroup(module="A", positions=(0, 1, 2)),)
    with pytest.raises(ValueError):
        apply_readout((0, 1, 1), model, bad, rng)  # 3 ions on shared PMT
    with pytest.raises(ValueError, match=r"^detectors\.module_a = both "):
        DetectorModel(module_a="both")
    with pytest.raises(ValueError, match=r"^detectors\.module_b = "):
        DetectorModel(module_b="")
    with pytest.raises(ValueError):
        DetectorModel(single_qubit_error=1.5)


def test_unknown_module_rejected():
    model = DetectorModel()
    assert model.is_shared("A") and not model.is_shared("B")
    with pytest.raises(ValueError, match="'C'"):
        model.is_shared("C")
    rng = RNG(0)
    layout = (DetectorGroup(module="C", positions=(0,)),)
    with pytest.raises(ValueError):
        apply_readout((1,), model, layout, rng)


def test_scalar_roundtrip():
    model = DetectorModel(0.0, 0.0)
    out = apply_readout((1, 0, 1), model, LAYOUT_3Q, RNG(0))
    assert out == (1, 0, 1)


def test_reported_fidelity_never_exceeds_ideal_readout():
    # detection only degrades: fringe amplitudes and even populations of
    # the local gate drop once the detector model is applied
    from ionnet.protocols import local_gate_experiment
    from ionnet.scenario import loads_scenario

    res = local_gate_experiment(loads_scenario("", seed=13, n_trials=100, shots_per_point=4000))
    assert (
        res.summary["parity_amplitude_exact_reported"]
        <= res.summary["parity_amplitude_exact_ideal_readout"] + 1e-12
    )
    assert (
        res.summary["even_population_reported"]
        <= res.summary["even_population_exact"] + 1e-12
    )
    # and the sampled amplitude sits within 3 sigma of the reported one
    assert (
        abs(res.summary["parity_amplitude_sampled"] - res.summary["parity_amplitude_exact_reported"])
        < 3 * res.summary["parity_amplitude_sampled_stderr"]
    )


def test_confusion_matrix_is_cached_read_only_and_bounded():
    model = DetectorModel()
    first = det.confusion_matrix(3, model, LAYOUT_3Q)
    with pytest.raises(ValueError):
        first[0, 0] = 0.5
    assert np.array_equal(det.confusion_matrix(3, model, list(LAYOUT_3Q)), first)
    # A calibration sweep builds one channel per model; the cache stays bounded.
    bound = det._confusion_matrix.cache_info().maxsize
    for eps in np.linspace(0.0, 0.5, 1000):
        det.confusion_matrix(3, DetectorModel(single_qubit_error=float(eps)), LAYOUT_3Q)
    assert det._confusion_matrix.cache_info().currsize <= bound
    assert np.array_equal(det.confusion_matrix(3, model, LAYOUT_3Q), first)
