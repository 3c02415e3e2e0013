import pytest

from flowcodec.metrics import bd_psnr, bd_rate
from flowcodec.model import RDPoint

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
