"""Block-matching motion estimation.

The selection criterion for every search is the rate-distortion cost
lambda * R(v) + SAD(v), where R(v) is the exact signed exp-Golomb length
of the vector difference against the median predictor and SAD is the sum
of absolute luma differences against the (sub-pel, border-clamped)
motion-compensated reference. Every search reads its candidates from one
`ReferencePlane` of the reference luma, which the caller builds once per
frame.

`SearchConfig` is the one parameter object of every search: the window,
the block size, the quarter-pel switch and the quantiser q that sets
lambda. The diamond and hexagon descents start from the better of (0,0)
and the median predictor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import se_bits
from .model import (
    LUMA_BLOCK_SIZES,
    QPEL,
    ZERO_MV,
    MotionVector,
    ReferencePlane,
    clip_block,
    predict_block,  # noqa: F401  (kept as a name bench/tracer.py wraps)
)

# Large/small patterns for the two descent searches, in integer pixels.
_DIAMOND_LARGE = ((0, 2), (0, -2), (2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))
_DIAMOND_SMALL = ((0, 1), (0, -1), (1, 0), (-1, 0))
_HEX_LARGE = ((2, 0), (-2, 0), (1, 2), (1, -2), (-1, 2), (-1, -2))
_HEX_SMALL = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True, kw_only=True)
class SearchConfig:
    search_range: int = 16       # integer-pel window [-R, +R] in both axes
    block_size: int = 16
    refine_subpel: bool = True   # one local quarter-pel descent after the pel search
    q: int = 5                   # quantiser; sets the rate weight lambda_y

    def __post_init__(self):
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")
        if self.block_size not in LUMA_BLOCK_SIZES:
            raise ValueError(f"block_size must be one of {LUMA_BLOCK_SIZES}")
        if self.q < 1:
            raise ValueError("quantiser must be >= 1")

    @property
    def lambda_y(self) -> float:
        return 2.0 ** (self.q / 6.0 - 2.0)


def sad(cur_block: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
        mv: MotionVector) -> int:
    """Sum of absolute differences against the compensated reference block.

    Sub-pel vectors sample the reference bilinearly, rounded to the nearest
    integer before differencing.
    """
    x0, y0 = origin
    size = cur_block.shape[0]
    pred = ref.block(x0, y0, size, mv)
    return int(np.abs(cur_block.astype(np.int32) - pred).sum())


def mv_rate_bits(mv: MotionVector, predictor: MotionVector) -> int:
    """Exact bits to code a vector as signed exp-Golomb differences."""
    return se_bits(int(mv.dx) - int(predictor.dx)) + se_bits(int(mv.dy) - int(predictor.dy))


def rd_cost(distortion: int, mv: MotionVector, predictor: MotionVector,
            lambda_y: float) -> float:
    """lambda_y-weighted rate plus luma distortion."""
    return lambda_y * mv_rate_bits(mv, predictor) + distortion


def _cost_key(cost: float, mv: MotionVector):
    # Deterministic tie-break: cheaper, then shorter, then smaller dy, dx.
    return (cost, abs(mv.dx) + abs(mv.dy), mv.dy, mv.dx)


class _Evaluator:
    """Caches RD evaluations of integer/sub-pel candidates for one block."""

    def __init__(self, cur_plane, ref, origin, config, predictor):
        self.cur_block = clip_block(cur_plane, *origin, config.block_size).astype(np.int32)
        self.ref = ref
        self.origin = origin
        self.lambda_y = config.lambda_y
        self.predictor = predictor
        self._cache: dict[MotionVector, float] = {}

    def cost(self, mv: MotionVector) -> float:
        cached = self._cache.get(mv)
        if cached is None:
            cached = rd_cost(sad(self.cur_block, self.ref, self.origin, mv),
                             mv, self.predictor, self.lambda_y)
            self._cache[mv] = cached
        return cached

    def best(self, candidates) -> tuple[MotionVector, float]:
        best_mv = None
        best_key = None
        for mv in candidates:
            key = _cost_key(self.cost(mv), mv)
            if best_key is None or key < best_key:
                best_key = key
                best_mv = mv
        return best_mv, best_key[0]


def _refine_quarter_pel(ev: _Evaluator, mv: MotionVector, cost: float,
                        bound: int) -> tuple[MotionVector, float]:
    # Greedy descent over the 8 quarter-pel neighbours, at most 3 steps,
    # so the vector moves at most +/-0.75 px off the integer optimum.
    best_key = _cost_key(cost, mv)
    best = mv
    for _ in range(3):
        moved = False
        for oy in (-1, 0, 1):
            for ox in (-1, 0, 1):
                if ox == 0 and oy == 0:
                    continue
                cand = MotionVector(
                    max(-bound, min(bound, best.dx + ox)),
                    max(-bound, min(bound, best.dy + oy)),
                )
                if cand == best:
                    continue
                key = _cost_key(ev.cost(cand), cand)
                if key < best_key:
                    best_key = key
                    best = cand
                    moved = True
        if not moved:
            break
    return best, best_key[0]


def _clamp_pel(ix: int, iy: int, r: int) -> tuple[int, int]:
    return max(-r, min(r, ix)), max(-r, min(r, iy))


def _pattern_search(cur_plane, ref, origin, config, predictor,
                    large_pattern, small_pattern):
    ev = _Evaluator(cur_plane, ref, origin, config, predictor)
    r = config.search_range

    seed = _clamp_pel(round(predictor.dx / QPEL), round(predictor.dy / QPEL), r)
    starts = {(0, 0), seed}
    center, _ = ev.best(MotionVector(ix * QPEL, iy * QPEL) for ix, iy in starts)

    # Large-pattern descent: recenter while any neighbour beats the center.
    while True:
        cx, cy = center.dx // QPEL, center.dy // QPEL
        ring = {_clamp_pel(cx + ox, cy + oy, r) for ox, oy in large_pattern}
        ring.add((cx, cy))
        best, _ = ev.best(MotionVector(ix * QPEL, iy * QPEL) for ix, iy in sorted(ring))
        if best == center:
            break
        center = best

    cx, cy = center.dx // QPEL, center.dy // QPEL
    final = {_clamp_pel(cx + ox, cy + oy, r) for ox, oy in small_pattern}
    final.add((cx, cy))
    best_mv, best_cost = ev.best(MotionVector(ix * QPEL, iy * QPEL) for ix, iy in sorted(final))

    if config.refine_subpel:
        best_mv, best_cost = _refine_quarter_pel(ev, best_mv, best_cost, r * QPEL)
    return best_mv, best_cost


def diamond_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                   config: SearchConfig,
                   predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """Large/small diamond descent seeded at (0,0) and at the predictor."""
    return _pattern_search(cur_plane, ref, origin, config, predictor,
                           _DIAMOND_LARGE, _DIAMOND_SMALL)


def hex_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
               config: SearchConfig,
               predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """Large hexagon then small cross descent, seeded at (0,0) and at the predictor."""
    return _pattern_search(cur_plane, ref, origin, config, predictor,
                           _HEX_LARGE, _HEX_SMALL)


def _median3(a: int, b: int, c: int) -> int:
    return max(min(a, b), min(max(a, b), c))


def median_predictor(vectors, col: int, row: int) -> MotionVector:
    """Component-wise median of the left, top, and top-right neighbours.

    vectors[row][col] is a block's (dx, dy): an (rows, cols, 2) array, or
    the rows decoded so far as lists of pairs. Must be queried in raster
    order; neighbours outside the grid count as zero vectors.
    """
    left = vectors[row][col - 1] if col > 0 else (0, 0)
    top = topright = (0, 0)
    if row > 0:
        above = vectors[row - 1]
        top = above[col]
        if col + 1 < len(above):
            topright = above[col + 1]
    return MotionVector(
        _median3(int(left[0]), int(top[0]), int(topright[0])),
        _median3(int(left[1]), int(top[1]), int(topright[1])),
    )
