import numpy as np
import pytest

from flowcodec.metrics import PSNR_CAP, bd_psnr, bd_rate, frame_psnr, psnr
from flowcodec.model import RDPoint

from synth import random_frame

CURVE = [RDPoint(40, 1200.0, 31.0), RDPoint(30, 2100.0, 33.5),
         RDPoint(20, 4000.0, 36.2), RDPoint(10, 9000.0, 40.1)]


def _scaled(curve, k):
    return [RDPoint(p.q, p.rate * k, p.psnr) for p in curve]


def test_bd_rate_of_curve_against_itself_is_zero():
    assert bd_rate(CURVE, CURVE) == pytest.approx(0.0, abs=1e-9)
    assert bd_psnr(CURVE, CURVE) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k", [0.5, 0.9, 1.25, 2.0])
def test_bd_rate_of_scaled_rates_is_k_minus_one(k):
    assert bd_rate(CURVE, _scaled(CURVE, k)) == pytest.approx((k - 1.0) * 100.0, abs=1e-6)


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
        sse = sum(int(((p.astype(np.int64) - q.astype(np.int64)) ** 2).sum()) for p, q in planes)
        count = sum(p.size for p, _ in planes)
        assert combined == (PSNR_CAP if sse == 0 else 10.0 * np.log10(255.0 ** 2 * count / sse))
