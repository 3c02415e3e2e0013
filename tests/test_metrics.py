from dataclasses import replace

import numpy as np
import pytest

from flowcodec.codec import FrameStats
from flowcodec.metrics import (
    PSNR_CAP,
    RDPoint,
    bd_psnr,
    bd_rate,
    epe,
    frame_psnr,
    median_aggregate,
    psnr,
    rd_curves,
    rd_point,
)

from synth import random_frame


def _point(q, rate, psnr, sequence="clip", mode="zero"):
    return RDPoint(sequence, mode, q, rate, psnr)


CURVE = [_point(40, 1200.0, 31.0), _point(30, 2100.0, 33.5),
         _point(20, 4000.0, 36.2), _point(10, 9000.0, 40.1)]


def _scaled(curve, k):
    return [replace(p, rate=p.rate * k) for p in curve]


def test_bd_rate_of_curve_against_itself_is_zero():
    assert bd_rate(CURVE, CURVE) == pytest.approx(0.0, abs=1e-9)
    assert bd_psnr(CURVE, CURVE) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k", [0.5, 0.9, 1.25, 2.0])
def test_bd_rate_of_scaled_rates_is_k_minus_one(k):
    assert bd_rate(CURVE, _scaled(CURVE, k)) == pytest.approx((k - 1.0) * 100.0, abs=1e-6)


@pytest.mark.parametrize("which", [0, 1])
def test_bd_rate_rejects_a_repeated_psnr(which):
    # PSNRs 40, 40, 36, 34 (two points at PSNR_CAP in a real sweep, say):
    # the cubic fit of rate over PSNR is rank deficient.
    repeated = [_point(40, 1100.0, 34.0), _point(30, 2000.0, 36.0),
                _point(20, 4200.0, 40.0), _point(10, 9500.0, 40.0)]
    curves = [CURVE, CURVE]
    curves[which] = repeated
    with pytest.raises(ValueError, match="repeats a PSNR value"):
        bd_rate(*curves)
    assert np.isfinite(bd_psnr(*curves))  # the rates differ


@pytest.mark.parametrize("which", [0, 1])
def test_bd_psnr_rejects_a_repeated_rate(which):
    repeated = [_point(40, 1200.0, 31.0), _point(30, 2100.0, 33.5),
                _point(20, 2100.0, 36.2), _point(10, 9000.0, 40.1)]
    curves = [CURVE, CURVE]
    curves[which] = repeated
    with pytest.raises(ValueError, match="repeats a rate value"):
        bd_psnr(*curves)
    assert np.isfinite(bd_rate(*curves))  # the PSNRs differ


@pytest.mark.parametrize("bd", [bd_rate, bd_psnr])
@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -1.0])
def test_bd_metrics_reject_a_rate_that_is_not_finite_and_positive(bd, which, rate):
    curves = [CURVE, CURVE]
    curves[which] = CURVE[:3] + [replace(CURVE[3], rate=rate)]
    with pytest.raises(ValueError, match="rates must be finite and strictly positive"):
        bd(*curves)


def _stats(bits_total, psnr_combined):
    return FrameStats(0, 0, 0, 0, bits_total, 0.0, 0.0, 0.0, psnr_combined)


def test_rd_point_is_the_mean_over_all_frames():
    stats = [_stats(1000, 40.1), _stats(333, 35.3), _stats(334, 36.7)]
    assert rd_point("clip", "zero", 8, stats) == RDPoint(
        "clip", "zero", 8, (1000 + 333 + 334) / 3, (40.1 + 35.3 + 36.7) / 3)


def test_rd_point_of_no_frames_raises_naming_the_encode():
    with pytest.raises(ValueError, match="sequence 'clip', mode zero, q 8"):
        rd_point("clip", "zero", 8, [])


def test_rd_curves_sort_by_sequence_then_q():
    a = [_point(q, 100.0 * q, 30.0, "a") for q in (8, 4, 16)]
    b = [_point(q, 90.0 * q, 31.0, "b") for q in (4, 16, 8)]
    curves = rd_curves(b + a)
    assert curves == [sorted(a, key=lambda p: p.q), sorted(b, key=lambda p: p.q)]
    with pytest.raises(ValueError, match="repeated RD record for sequence 'b' at q 8"):
        rd_curves(a + b + [_point(8, 1.0, 1.0, "b")])


def test_median_aggregate_takes_lower_median_per_q():
    curves = [_scaled(CURVE, k) for k in (1.0, 3.0, 2.0, 4.0)]
    curves[1] = [replace(p, psnr=p.psnr + 1.0) for p in reversed(curves[1])]
    assert median_aggregate(curves) == [
        RDPoint("median", "zero", p.q, p.rate * 2.0, p.psnr)
        for p in sorted(CURVE, key=lambda p: p.q)]


def test_median_of_one_curve_is_that_curve_as_the_median_sequence():
    assert median_aggregate([CURVE]) == [
        replace(p, sequence="median") for p in sorted(CURVE, key=lambda p: p.q)]


def test_median_aggregate_rejects_curves_of_several_modes():
    with pytest.raises(ValueError, match=r"several modes \['internal-hex', 'zero'\]"):
        median_aggregate([CURVE, [replace(p, mode="internal-hex") for p in CURVE]])


def test_median_aggregate_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="does not match"):
        median_aggregate([CURVE, CURVE[:3]])
    with pytest.raises(ValueError, match="does not match"):
        median_aggregate([CURVE, [_point(45, 1.0, 1.0)] + CURVE[1:]])
    with pytest.raises(ValueError, match="no curves"):
        median_aggregate([])


@pytest.mark.parametrize("which", [0, 1])
def test_median_aggregate_rejects_repeated_q(which):
    curves = [CURVE, CURVE]
    curves[which] = CURVE + [_point(30, 2200.0, 33.6)]
    with pytest.raises(ValueError, match="repeats a q"):
        median_aggregate(curves)


def ref_psnr(a, b):
    mse = np.mean((a.astype(np.int64) - b.astype(np.int64)) ** 2, dtype=np.float64)
    return PSNR_CAP if mse == 0.0 else float(10.0 * np.log10(255.0 ** 2 / mse))


def test_frame_psnr_matches_psnr_per_plane():
    rng = np.random.default_rng(12)
    for trial in range(50):
        a = random_frame(16, 8, rng)
        b = a if trial == 0 else random_frame(16, 8, rng)
        planes = ((a.y, b.y), (a.u, b.u), (a.v, b.v))
        y, u, v, combined = frame_psnr(a, b)
        assert [y, u, v] == [psnr(p, q) for p, q in planes] == [ref_psnr(p, q) for p, q in planes]
        assert combined == psnr(*pooled(a, b)) == ref_psnr(*pooled(a, b))


def pooled(a, b):
    """The samples of all planes of frames a and b, as one array each."""
    return [np.concatenate([plane.ravel() for plane in (f.y, f.u, f.v)]) for f in (a, b)]


def test_combined_psnr_is_the_psnr_of_the_pooled_samples():
    """A QCIF frame pools 38016 samples. At sse 505, 10 log10(255^2 * count
    / sse) reads 66.89755401714329, an ulp below 10 log10(255^2 / (sse /
    count)), which `psnr` reads: the combined value is `psnr` of the pooled
    samples at every sse tried, 505 among them."""
    a = random_frame(176, 144, np.random.default_rng(5))
    flat = a.y.ravel()
    for sse in (1, 2, 505, 506, 1000, 4321, 38015, 38016):
        y = flat ^ (np.arange(flat.size) < sse).astype(np.uint8)  # sse samples off by one
        b = replace(a, y=y.reshape(a.y.shape))
        combined = frame_psnr(a, b)[3]
        assert combined == psnr(*pooled(a, b)) == ref_psnr(*pooled(a, b)), sse
        assert sse != 505 or combined == 66.8975540171433


def test_psnr_of_near_identical_samples_never_exceeds_that_of_identical_ones():
    """One luma sample off by one in a CIF frame: the combined value pools
    152064 samples, 99.95 dB uncapped, and a 1024x1024 plane reads 108.2 dB
    uncapped. Both read PSNR_CAP, as identical samples do, so a near-lossless
    RD point never ranks above a lossless one."""
    a = random_frame(352, 288, np.random.default_rng(4))
    y = a.y.copy()
    y[0, 0] ^= 1
    b = replace(a, y=y)
    assert frame_psnr(a, a) == (PSNR_CAP,) * 4
    y_db, u_db, v_db, combined = frame_psnr(a, b)
    assert y_db < PSNR_CAP and u_db == v_db == combined == PSNR_CAP
    plane = np.zeros((1024, 1024), np.uint8)
    off = plane.copy()
    off[0, 0] = 1
    assert psnr(plane, plane) == psnr(plane, off) == PSNR_CAP


def test_epe_of_known_fields():
    a = np.zeros((2, 3, 2))
    b = a.copy()
    b[..., 0], b[0, 0] = 3.0, (3.0, 4.0)  # one vector 5 px off, five 3 px off
    assert epe(a, b) == epe(b, a) == (5.0 + 5 * 3.0) / 6
    assert epe(a.astype(np.float32), a) == 0.0


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (2, 2, 1), (2, 2, 2, 2), (4,),
                                   (0, 0, 2), (0, 3, 2), (3, 0, 2)])
def test_epe_rejects_fields_that_are_not_non_empty_h_w_2(shape):
    with pytest.raises(ValueError, match=r"shape \(h, w, 2\)"):
        epe(np.zeros(shape), np.ones(shape))


def test_epe_rejects_fields_of_different_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        epe(np.zeros((2, 3, 2)), np.zeros((3, 2, 2)))


@pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0)])
def test_psnr_rejects_empty_arrays(shape):
    with pytest.raises(ValueError, match="empty"):
        psnr(np.zeros(shape, np.uint8), np.zeros(shape, np.uint8))
