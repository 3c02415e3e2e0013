"""Quality and comparison metrics: PSNR, flow end-point error, RD points and
curves, and the Bjontegaard rate/PSNR deltas. An RD point is one encode of a
sequence in one motion mode at one q, over all frames: the mean `bits_total`
and the mean `psnr_combined` of its frame stats, as `rd-sweep` writes it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Frame

PSNR_CAP = 99.0
_PEAK_SQ = 255.0 * 255.0


def _sse(a: np.ndarray, b: np.ndarray) -> int:
    return int(((a.astype(np.int64) - b.astype(np.int64)) ** 2).sum())


def _psnr_from_sse(sse: int, count: int) -> float:
    return PSNR_CAP if sse == 0 else min(PSNR_CAP, float(10.0 * np.log10(_PEAK_SQ / (sse / count))))


# Zero error reads the cap, for one sample and for 65535**2 * 3/2 samples,
# more than a frame of the header's uint16 width and height holds; one unit
# of error in one sample reads below it.
assert _psnr_from_sse(0, 1) == _psnr_from_sse(0, 65535 ** 2 * 3 // 2) == PSNR_CAP
assert round(_psnr_from_sse(1, 1), 2) == 48.13 < PSNR_CAP


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR in dB between two same-shaped, non-empty sample arrays: PSNR_CAP
    when identical, and never more, so that no pair of different arrays reads
    closer than identical ones, however many samples they hold."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not a.size:
        raise ValueError(f"PSNR of empty arrays of shape {a.shape}")
    return _psnr_from_sse(_sse(a, b), a.size)


def frame_psnr(a: Frame, b: Frame) -> tuple[float, float, float, float]:
    """Per-plane PSNR plus the combined value over all samples pooled, each
    capped at PSNR_CAP as `psnr` is."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("frame dimensions differ")
    planes = ((a.y, b.y), (a.u, b.u), (a.v, b.v))
    sses = [_sse(pa, pb) for pa, pb in planes]
    counts = [pa.size for pa, _ in planes]
    sse, count = sum(sses), sum(counts)
    return (*(_psnr_from_sse(s, n) for s, n in zip(sses, counts)), _psnr_from_sse(sse, count))


def epe(f1: np.ndarray, f2: np.ndarray) -> float:
    """Mean end-point error (px) between two dense (h, w, 2) flow fields of
    the same, non-empty shape."""
    f1 = np.asarray(f1, np.float64)
    f2 = np.asarray(f2, np.float64)
    if f1.shape != f2.shape:
        raise ValueError(f"shape mismatch {f1.shape} vs {f2.shape}")
    if f1.ndim != 3 or f1.shape[2] != 2 or not f1.size:
        raise ValueError(f"flow fields must have shape (h, w, 2) with h, w > 0, got {f1.shape}")
    d = f1 - f2
    return float(np.mean(np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)))


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a rate-distortion curve."""

    sequence: str
    mode: str
    q: int
    rate: float  # mean bits per frame
    psnr: float  # mean combined PSNR, dB


def rd_point(sequence: str, mode: str, q: int, stats) -> RDPoint:
    """The RD point of an encode from its per-frame stats (codec.FrameStats).
    Raises ValueError when there are none."""
    if not stats:
        raise ValueError(f"no frame stats for sequence {sequence!r}, mode {mode}, q {q}")
    return RDPoint(sequence, mode, q, sum(s.bits_total for s in stats) / len(stats),
                   sum(s.psnr_combined for s in stats) / len(stats))


def rd_curves(points) -> list[list[RDPoint]]:
    """One q-sorted RD curve per sequence, in sequence-name order."""
    by_sequence: dict[str, list[RDPoint]] = {}
    for p in sorted(points, key=lambda p: (p.sequence, p.q)):
        curve = by_sequence.setdefault(p.sequence, [])
        if curve and curve[-1].q == p.q:
            raise ValueError(f"repeated RD record for sequence {p.sequence!r} at q {p.q}")
        curve.append(p)
    return list(by_sequence.values())


def _lower_median(values) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def median_aggregate(curves: list[list[RDPoint]]) -> list[RDPoint]:
    """Per-q median of rate and PSNR across the curves of one mode (lower
    median on even counts), as points of the sequence "median"."""
    if not curves:
        raise ValueError("no curves to aggregate")
    modes = sorted({p.mode for curve in curves for p in curve})
    if len(modes) > 1:
        raise ValueError(f"curves of several modes {modes} do not aggregate")
    grid = sorted(p.q for p in curves[0])
    by_q = []
    for curve in curves:
        qs = {p.q: p for p in curve}
        if len(qs) != len(curve):
            raise ValueError(f"curve repeats a q: {sorted(p.q for p in curve)}")
        if sorted(qs) != grid:
            raise ValueError(f"curve q grid {sorted(qs)} does not match {grid}")
        by_q.append(qs)
    return [RDPoint("median", by_q[0][q].mode, q, _lower_median(c[q].rate for c in by_q),
                    _lower_median(c[q].psnr for c in by_q)) for q in grid]


def _validate_curve(curve: list[RDPoint], abscissa: str) -> tuple[np.ndarray, np.ndarray]:
    """The PSNRs and log10 rates of a curve whose fit runs over abscissa
    ("PSNR" or "rate"). A repeated abscissa value makes the cubic fit rank
    deficient (two points at PSNR_CAP, say), so it raises ValueError."""
    if len(curve) < 4:
        raise ValueError(f"BD metrics need >= 4 points, got {len(curve)}")
    rates = np.array([p.rate for p in curve], np.float64)
    psnrs = np.array([p.psnr for p in curve], np.float64)
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise ValueError("rates must be finite and strictly positive")
    if not np.all(np.isfinite(psnrs)):
        raise ValueError("PSNR values must be finite")
    x = psnrs if abscissa == "PSNR" else rates
    if len(np.unique(x)) < len(x):
        raise ValueError(f"curve repeats a {abscissa} value: {sorted(x.tolist())}")
    return psnrs, np.log10(rates)


def _poly_mean_diff(x_ref, y_ref, x_test, y_test) -> float:
    # Cubic least-squares fits (interpolation at exactly 4 points), integrated
    # in closed form over the overlapping x interval.
    p_ref = np.polyfit(x_ref, y_ref, 3)
    p_test = np.polyfit(x_test, y_test, 3)
    lo = max(x_ref.min(), x_test.min())
    hi = min(x_ref.max(), x_test.max())
    if not hi > lo:
        raise ValueError(f"curves do not overlap (interval [{lo}, {hi}])")
    int_ref = np.polyint(p_ref)
    int_test = np.polyint(p_test)
    area_ref = np.polyval(int_ref, hi) - np.polyval(int_ref, lo)
    area_test = np.polyval(int_test, hi) - np.polyval(int_test, lo)
    return float((area_test - area_ref) / (hi - lo))


def bd_rate(reference: list[RDPoint], test: list[RDPoint]) -> float:
    """Average rate difference of test vs reference at equal quality, percent.

    Fits log10(rate) as a cubic in PSNR for both curves and integrates the
    difference over the common PSNR range. Negative means the test curve
    spends fewer bits.
    """
    ref_psnr, ref_lograte = _validate_curve(reference, "PSNR")
    test_psnr, test_lograte = _validate_curve(test, "PSNR")
    avg_diff = _poly_mean_diff(ref_psnr, ref_lograte, test_psnr, test_lograte)
    return (10.0 ** avg_diff - 1.0) * 100.0


def bd_psnr(reference: list[RDPoint], test: list[RDPoint]) -> float:
    """Average PSNR difference (dB) of test vs reference at equal rate."""
    ref_psnr, ref_lograte = _validate_curve(reference, "rate")
    test_psnr, test_lograte = _validate_curve(test, "rate")
    return _poly_mean_diff(ref_lograte, ref_psnr, test_lograte, test_psnr)
