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
and the median predictor; every step takes the candidate of least key
(cost, |dx| + |dy|, dy, dx), which ends in the vector itself, so
candidates never tie.

The searches run a wave of blocks in lockstep:

- **Waves.** A block's median predictor reads its left, top and top-right
  neighbours, so the blocks on one anti-diagonal c + 2r = k depend only on
  earlier ones (`wavefronts`; the two-block lag of wavefront parallel
  processing). The caller searches the waves in order of k.
- **One batched step.** Each step of the start pair, of the large-ring
  descent and of the small ring scores every still-moving block of the wave
  at once: one fancy index of the reference phases (`ReferencePlane.blocks`),
  one SAD over the (blocks, candidates) array, one vectorised exp-Golomb
  rate (`se_bits_array`) and one `np.lexsort` on the key's fields. A
  block leaves the descent when its ring keeps its centre. The hybrid
  modes' flow-derived vectors are extra columns of the start pair's step:
  scored there, never searched from, and their costs returned beside the
  searched ones, so the caller decides each block without scoring again.
- **Quarter-pel steps, replayed.** A step of the quarter-pel descent
  re-centres on every win, so its later candidates depend on its earlier
  ones. Each step scores the 3x3 neighbourhood of every moving block at
  once, then replays the step block by block over plain (dx, dy) ints and
  a dict of the block's cached costs. A candidate outside the 3x3 is scored
  alone with `sad`. A block whose centre alone has the least cost of its
  3x3 cannot move, and stops without a replay. `tests/oracles.py` holds the
  one-block step that the replay must match.
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


def _wave_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                 config: SearchConfig, predictors: np.ndarray,
                 large_pattern: np.ndarray, small_pattern: np.ndarray,
                 flow: np.ndarray | None,
                 ) -> tuple[list[tuple[MotionVector, float]], list[float] | None]:
    n, size = len(cur), config.block_size
    r, lambda_y = config.search_range, config.lambda_y
    cur16 = cur.astype(np.int16)

    def score(idx: np.ndarray, cand: np.ndarray) -> np.ndarray:
        # RD costs of the (blocks, candidates, 2) vectors cand of blocks idx.
        pred = ref.blocks(origins[idx, None], size, cand)
        distortion = np.abs(pred - cur16[idx, None]).reshape(*cand.shape[:2], -1).sum(-1)
        return lambda_y * se_bits_array(cand - predictors[idx, None]).sum(-1) + distortion

    def pick(cand: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each block's candidate of least (cost, |dx| + |dy|, dy, dx), and its cost.
        dx, dy = cand[..., 0], cand[..., 1]
        at = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), cost), axis=-1)[:, 0]
        rows = np.arange(len(cand))
        return cand[rows, at], cost[rows, at]

    def ring(idx: np.ndarray, center: np.ndarray, pattern: np.ndarray):
        cand = np.minimum(np.maximum(center[:, None] // QPEL + pattern, -r), r) * QPEL
        return pick(cand, score(idx, cand))

    every = np.arange(n)
    pel = np.minimum(np.maximum(np.rint(predictors / QPEL), -r), r).astype(np.int64)
    start = np.stack([np.zeros_like(predictors), pel * QPEL], 1)
    if flow is not None:
        # Scored beside the start pair, never searched from.
        start = np.concatenate([start, np.asarray(flow, np.int64)[:, None]], 1)
    cost = score(every, start)
    flow_costs = None if flow is None else cost[:, 2].tolist()
    center = pick(start[:, :2], cost[:, :2])[0]
    # Large-pattern descent: recentre while a ring beats its centre.
    active = every
    while active.size:
        moved, _ = ring(active, center[active], large_pattern)
        still = (moved != center[active]).any(axis=1)
        center[active] = moved
        active = active[still]
    center, cost = ring(every, center, small_pattern)
    vectors, costs = center.tolist(), cost.tolist()
    if not config.refine_subpel:
        return [(MotionVector(dx, dy), c) for (dx, dy), c in zip(vectors, costs)], flow_costs

    # Quarter-pel descent in lockstep: each step scores the 3x3 neighbourhood
    # of every moving block at once, then replays the step block by block
    # over those costs. A win re-centres the rest of its step, so one step
    # can move a vector up to 3 quarter-pels per axis; a candidate that
    # leaves the 3x3 is scored alone. The (cached) centre never beats itself.
    bound = r * QPEL
    cached: list[dict[tuple[int, int], float]] = [{} for _ in range(n)]
    corners, preds = origins.tolist(), predictors.tolist()
    active = every
    for _ in range(_QPEL_STEPS):
        cand = np.minimum(np.maximum(center[:, None] + _QPEL_OFFSETS, -bound), bound)
        moving = []
        for i, scored, step_costs in zip(active.tolist(), cand.tolist(),
                                         score(active, cand).tolist()):
            (sx, sy), bc = vectors[i], costs[i]
            if min(step_costs) == bc and step_costs.count(bc) == 1:
                continue  # the centre alone is this cheap: nothing in the 3x3 wins
            cache = cached[i]
            cache.update(zip(map(tuple, scored), step_costs))
            bx, by, bl = sx, sy, abs(sx) + abs(sy)
            for ox, oy in _QPEL_OFFSETS:
                dx, dy = bx + ox, by + oy
                if not (-bound <= dx <= bound and -bound <= dy <= bound):
                    dx, dy = min(max(dx, -bound), bound), min(max(dy, -bound), bound)
                c = cache.get((dx, dy))
                if c is None:
                    mv = MotionVector(dx, dy)
                    c = cache[dx, dy] = rd_cost(sad(cur16[i], ref, corners[i], mv), mv,
                                                MotionVector(*preds[i]), lambda_y)
                if c < bc or c == bc and (abs(dx) + abs(dy), dy, dx) < (bl, by, bx):
                    bx, by, bc, bl = dx, dy, c, abs(dx) + abs(dy)
            if bx != sx or by != sy:
                vectors[i], costs[i] = [bx, by], bc
                moving.append(i)
        if not moving:
            break
        active = np.array(moving)
        center = np.array([vectors[i] for i in moving])
    return [(MotionVector(dx, dy), c) for (dx, dy), c in zip(vectors, costs)], flow_costs


def diamond_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                   config: SearchConfig, predictors: np.ndarray,
                   flow: np.ndarray | None = None,
                   ) -> tuple[list[tuple[MotionVector, float]], list[float] | None]:
    """Large/small diamond descent of a wave of blocks, each seeded at (0,0)
    and at its predictor. cur holds the blocks' (n, size, size) pixels,
    origins their (n, 2) top-left corners and predictors their (n, 2) median
    predictors, as int64; returns each block's searched vector and RD cost.

    flow, the blocks' (n, 2) flow-derived vectors when given, is scored in
    the start pair's step and never searched from; its RD costs come back
    beside the searched pairs (None without flow)."""
    return _wave_search(cur, ref, origins, config, predictors, _DIAMOND_LARGE, _DIAMOND_SMALL,
                        flow)


def hex_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
               config: SearchConfig, predictors: np.ndarray,
               flow: np.ndarray | None = None,
               ) -> tuple[list[tuple[MotionVector, float]], list[float] | None]:
    """Large hexagon then small cross descent of a wave of blocks, each
    seeded at (0,0) and at its predictor; arguments and result as
    `diamond_search`."""
    return _wave_search(cur, ref, origins, config, predictors, _HEX_LARGE, _HEX_SMALL, flow)


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
