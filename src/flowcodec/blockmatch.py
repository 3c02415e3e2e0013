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
and the median predictor; every step takes the best of a ring under
`_cost_key`, which ends in the vector itself, so candidates never tie.

The searches run a wave of blocks in lockstep:

- **Waves.** A block's median predictor reads its left, top and top-right
  neighbours, so the blocks on one anti-diagonal c + 2r = k depend only on
  earlier ones (`wavefronts`; the two-block lag of wavefront parallel
  processing). The caller searches the waves in order of k.
- **One batched step.** Each step of the start pair, of the large-ring
  descent and of the small ring scores every still-moving block of the wave
  at once: one fancy index of the reference phases (`ReferencePlane.blocks`),
  one SAD over the (blocks, candidates) array, one vectorised exp-Golomb
  rate (`se_bits_array`) and one `np.lexsort` on the `_cost_key` fields. A
  block leaves the descent when its ring keeps its centre.
- **Quarter-pel steps, replayed.** A step of the quarter-pel descent
  re-centres on every win, so its later candidates depend on its earlier
  ones. Each step scores the 3x3 neighbourhood of every moving block at
  once, then replays `_quarter_pel_step`, the one definition of the step,
  over those cached costs block by block. A candidate outside the 3x3 is
  scored alone with `sad`.
- **Same costs.** A batched cost is lambda_y * bits + sad in float64, from
  exact integer bits and SAD: the same two IEEE operations on the same
  values as `rd_cost`'s Python floats. So the batched and the one-block
  searches compare the same keys and pick the same vector and cost, which
  the tests check against the one-block searches in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import se_bits, se_bits_array
from .model import (
    QPEL,
    MotionVector,
    ReferencePlane,
    check_block_size,
    predict_block,  # noqa: F401  (kept as a name bench/tracer.py wraps)
)

# Large/small patterns for the two descent searches, in integer pixels; each
# ring scores its centre first.
_DIAMOND_LARGE = np.array(((0, 0), (0, 2), (0, -2), (2, 0), (-2, 0),
                           (1, 1), (1, -1), (-1, 1), (-1, -1)))
_DIAMOND_SMALL = np.array(((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)))
_HEX_LARGE = np.array(((0, 0), (2, 0), (-2, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)))
_HEX_SMALL = _DIAMOND_SMALL
# The quarter-pel descent: at most _QPEL_STEPS steps over the 3x3
# neighbourhood of the best vector, in this order.
_QPEL_STEPS = 3
_QPEL_OFFSETS = tuple((ox, oy) for oy in (-1, 0, 1) for ox in (-1, 0, 1))


@dataclass(frozen=True, kw_only=True)
class SearchConfig:
    search_range: int = 16       # integer-pel window [-R, +R] in both axes
    block_size: int = 16
    refine_subpel: bool = True   # one local quarter-pel descent after the pel search
    q: int = 5                   # quantiser; sets the rate weight lambda_y

    def __post_init__(self):
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")
        check_block_size(self.block_size)
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
    return int(np.abs(cur_block.astype(np.int32, copy=False) - pred).sum())


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
    """Caches the RD costs of one block's candidates; a miss scores the
    candidate alone with `sad`."""

    def __init__(self, cur_block: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                 lambda_y: float, predictor: MotionVector):
        self.cur_block = cur_block
        self.ref = ref
        self.origin = origin
        self.lambda_y = lambda_y
        self.predictor = predictor
        self._cache: dict[MotionVector, float] = {}

    def cost(self, mv: MotionVector) -> float:
        cached = self._cache.get(mv)
        if cached is None:
            cached = rd_cost(sad(self.cur_block, self.ref, self.origin, mv),
                             mv, self.predictor, self.lambda_y)
            self._cache[mv] = cached
        return cached


def _quarter_pel_step(ev, best: MotionVector, best_key: tuple,
                      bound: int) -> tuple[MotionVector, tuple]:
    # One step of the quarter-pel descent over the 8 neighbours of best. A
    # win re-centres the rest of its step, so one step can move the vector
    # up to 3 quarter-pels per axis. The (cached) centre never beats itself.
    for ox, oy in _QPEL_OFFSETS:
        cand = MotionVector(max(-bound, min(bound, best.dx + ox)),
                            max(-bound, min(bound, best.dy + oy)))
        key = _cost_key(ev.cost(cand), cand)
        if key < best_key:
            best_key = key
            best = cand
    return best, best_key


def _refine_quarter_pel(ev, mv: MotionVector, cost: float,
                        bound: int) -> tuple[MotionVector, float]:
    # Greedy descent of at most 3 steps, up to 9 quarter-pels (2.25 px) off
    # the integer optimum.
    best, best_key = mv, _cost_key(cost, mv)
    for _ in range(_QPEL_STEPS):
        start = best
        best, best_key = _quarter_pel_step(ev, best, best_key, bound)
        if best == start:
            break
    return best, best_key[0]


def _wave_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                 config: SearchConfig, predictors: np.ndarray,
                 large_pattern: np.ndarray, small_pattern: np.ndarray,
                 ) -> list[tuple[MotionVector, float]]:
    n, size = len(cur), config.block_size
    r, lambda_y = config.search_range, config.lambda_y
    cur16 = cur.astype(np.int16)

    def score(idx: np.ndarray, cand: np.ndarray) -> np.ndarray:
        # RD costs of the (blocks, candidates, 2) vectors cand of blocks idx.
        pred = ref.blocks(origins[idx, None], size, cand)
        distortion = np.abs(pred - cur16[idx, None]).reshape(*cand.shape[:2], -1).sum(-1)
        return lambda_y * se_bits_array(cand - predictors[idx, None]).sum(-1) + distortion

    def best(idx: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each block's candidate of least `_cost_key`, and its cost.
        cost = score(idx, cand)
        dx, dy = cand[..., 0], cand[..., 1]
        pick = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), cost), axis=-1)[:, 0]
        at = np.arange(len(idx))
        return cand[at, pick], cost[at, pick]

    def ring(idx: np.ndarray, center: np.ndarray, pattern: np.ndarray):
        return best(idx, np.minimum(np.maximum(center[:, None] // QPEL + pattern, -r), r) * QPEL)

    every = np.arange(n)
    pel = np.minimum(np.maximum(np.rint(predictors / QPEL), -r), r).astype(np.int64)
    center = best(every, np.stack([np.zeros_like(predictors), pel * QPEL], 1))[0]
    # Large-pattern descent: recentre while a ring beats its centre.
    active = every
    while active.size:
        moved, _ = ring(active, center[active], large_pattern)
        still = (moved != center[active]).any(axis=1)
        center[active] = moved
        active = active[still]
    center, cost = ring(every, center, small_pattern)
    found = [(MotionVector(dx, dy), c) for (dx, dy), c in zip(center.tolist(), cost.tolist())]
    if not config.refine_subpel:
        return found

    # Quarter-pel descent in lockstep: each step scores the 3x3 neighbourhood
    # of every moving block at once, then replays the step over those costs.
    bound = r * QPEL
    evs = [_Evaluator(cur16[i], ref, (x0, y0), lambda_y, MotionVector(pdx, pdy))
           for i, (x0, y0), (pdx, pdy) in zip(range(n), origins.tolist(), predictors.tolist())]
    keys = [_cost_key(c, mv) for mv, c in found]
    active = every
    for _ in range(_QPEL_STEPS):
        cand = np.minimum(np.maximum(center[active, None] + _QPEL_OFFSETS, -bound), bound)
        costs = score(active, cand).tolist()
        moving = []
        for i, vectors, vcosts in zip(active.tolist(), cand.tolist(), costs):
            ev = evs[i]
            ev._cache.update(zip(map(tuple, vectors), vcosts))
            start = found[i][0]
            mv, keys[i] = _quarter_pel_step(ev, start, keys[i], bound)
            found[i] = (mv, keys[i][0])
            if mv != start:
                center[i] = mv
                moving.append(i)
        if not moving:
            break
        active = np.array(moving)
    return found


def diamond_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                   config: SearchConfig,
                   predictors: np.ndarray) -> list[tuple[MotionVector, float]]:
    """Large/small diamond descent of a wave of blocks, each seeded at (0,0)
    and at its predictor. cur holds the blocks' (n, size, size) pixels,
    origins their (n, 2) top-left corners and predictors their (n, 2) median
    predictors, as int64; returns each block's vector and RD cost."""
    return _wave_search(cur, ref, origins, config, predictors, _DIAMOND_LARGE, _DIAMOND_SMALL)


def hex_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
               config: SearchConfig,
               predictors: np.ndarray) -> list[tuple[MotionVector, float]]:
    """Large hexagon then small cross descent of a wave of blocks, each
    seeded at (0,0) and at its predictor; arguments as `diamond_search`."""
    return _wave_search(cur, ref, origins, config, predictors, _HEX_LARGE, _HEX_SMALL)


def wavefronts(cols: int, rows: int) -> list[list[tuple[int, int]]]:
    """The (row, col) blocks of a grid in waves c + 2r = k, k ascending,
    without the empty ones.

    A block's median predictor reads its left, top and top-right
    neighbours, which all lie on earlier waves, so the blocks of one wave
    can be searched together once the waves before it are done.
    """
    waves = ([(r, k - 2 * r) for r in range((k - cols + 2) // 2, k // 2 + 1) if 0 <= r < rows]
             for k in range(cols + 2 * rows - 2))
    return [wave for wave in waves if wave]  # a one-column grid has no odd waves


def _median3(a, b, c, lo=min, hi=max):
    return hi(lo(a, b), lo(hi(a, b), c))


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


def median_predictors(vectors: np.ndarray) -> np.ndarray:
    """`median_predictor` of every block of an (rows, cols, 2) integer
    vector field at once, as int64: the component-wise median of the left,
    top and top-right shifted fields, with zeros outside the grid."""
    vectors = np.asarray(vectors, np.int64)
    left, top, topright = (np.zeros_like(vectors) for _ in range(3))
    left[:, 1:] = vectors[:, :-1]
    top[1:] = vectors[:-1]
    topright[1:, :-1] = vectors[:-1, 1:]
    return _median3(left, top, topright, np.minimum, np.maximum)
