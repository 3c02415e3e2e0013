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

The searches run a batch of blocks in lockstep:

- **Batches.** A call searches any set of blocks, each under the median
  predictor it is given, and no block's search reads another block of the
  call: its vector and cost depend only on its pixels, its origin, its
  predictor and its flow vector. So the caller may batch blocks whose
  predictors are still guesses and search again those whose predictor
  turns out different (`codec._search_vectors`).
- **One batched step.** Each step of the start pair, of the large-ring
  descent and of the small ring scores every still-moving block of the batch
  at once: one fancy index of the reference, one SAD over the (blocks,
  candidates) array, one vectorised exp-Golomb rate (`se_bits_array`) and
  one pick by the key (`_pick`: an argmin, and a `np.lexsort` on the key's
  fields only when some block's least cost ties). The SAD is
  max(pred, cur) - min(pred, cur) of the uint8 blocks, summed in uint32.
  The start pair reads `ReferencePlane.blocks`. The rings compute their
  candidates in whole pels, clamped to the window, and read phase 0 at the
  displaced corners (`ReferencePlane.pel_blocks`). A ring's centre is its
  pattern's first point, and its cost is the one the step before picked,
  so only the other points are scored. A block leaves the descent when its
  ring keeps its centre. The hybrid modes' flow-derived vectors are extra
  columns of the start pair's step: scored there, never searched from, and
  their costs returned beside the searched ones, so the caller decides
  each block without scoring again.
- **Quarter-pel steps, replayed.** A step of the quarter-pel descent
  re-centres on every win, so its later candidates depend on its earlier
  ones. Each step scores the 8 neighbours of every moving block's vector at
  once, the centre's cost carried. A block with no neighbour at or below
  its centre's cost cannot move, and stops; numpy finds the others, and
  only they replay the step block by block, over plain (dx, dy) ints and a
  dict of the block's cached costs. A candidate outside the 3x3 is scored
  alone with `sad`. `tests/oracles.py` holds the one-block step that the
  replay must match.
- **Array results.** A search returns each block's vector as an (n, 2)
  int64 array, its cost as (n,) float64, and the flow vectors' costs as
  (n,) float64 or None, which the caller assigns as they are.
- **Same costs.** A batched cost is lambda_y * bits + sad in float64, from
  exact integer bits and SAD: the same two IEEE operations on the same
  values as `rd_cost`'s Python floats. So a carried cost is the one a
  re-score would give, and the batched and the one-block searches compare
  the same keys and pick the same vector and cost, which the tests check
  against the one-block searches in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import se_bits, se_bits_array
from .model import (
    LUMA_BLOCK_SIZES,
    QPEL,
    MotionVector,
    ReferencePlane,
    check_block_size,
    predict_block,  # noqa: F401  (kept as a name bench/tracer.py wraps)
)

# The batched SAD sums a block's uint8 differences in uint32.
assert 255 * max(LUMA_BLOCK_SIZES) ** 2 < 2 ** 32

# Large/small patterns for the two descent searches, in integer pixels; each
# ring's first point is its centre, whose cost the step before carries.
_DIAMOND_LARGE = np.array(((0, 0), (0, 2), (0, -2), (2, 0), (-2, 0),
                           (1, 1), (1, -1), (-1, 1), (-1, -1)))
_DIAMOND_SMALL = np.array(((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)))
_HEX_LARGE = np.array(((0, 0), (2, 0), (-2, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)))
_HEX_SMALL = _DIAMOND_SMALL
# The quarter-pel descent: at most _QPEL_STEPS steps over the 3x3
# neighbourhood of the best vector, in this order; _QPEL_RING is the 3x3
# without its centre, the points a batched step scores.
_QPEL_STEPS = 3
_QPEL_OFFSETS = tuple((ox, oy) for oy in (-1, 0, 1) for ox in (-1, 0, 1))
_QPEL_RING = np.array([o for o in _QPEL_OFFSETS if o != (0, 0)])


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
    diff = np.subtract(cur_block, pred, dtype=np.int16)  # uint8 differences fit
    return int(np.abs(diff, out=diff).sum())


def mv_rate_bits(mv: MotionVector, predictor: MotionVector) -> int:
    """Exact bits to code a vector as signed exp-Golomb differences."""
    return se_bits(int(mv.dx) - int(predictor.dx)) + se_bits(int(mv.dy) - int(predictor.dy))


def rd_cost(distortion: int, mv: MotionVector, predictor: MotionVector,
            lambda_y: float) -> float:
    """lambda_y-weighted rate plus luma distortion."""
    return lambda_y * mv_rate_bits(mv, predictor) + distortion


def _pick(cand: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's index of least (cost, |dx| + |dy|, dy, dx) among the
    (rows, k, 2) candidates cand of (rows, k) costs, and that cost. A row
    with one least cost needs no other field of the key."""
    at, low = cost.argmin(1), cost.min(1)
    if np.count_nonzero(cost == low[:, None]) > len(cost):
        dx, dy = cand[..., 0], cand[..., 1]
        at = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), cost), axis=-1)[:, 0]
    return at, low


def _batch_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                  config: SearchConfig, predictors: np.ndarray,
                  large_pattern: np.ndarray, small_pattern: np.ndarray,
                  flow: np.ndarray | None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    n, size = len(cur), config.block_size
    r, lambda_y = config.search_range, config.lambda_y

    def costs(idx: np.ndarray, cand: np.ndarray, pred: np.ndarray) -> np.ndarray:
        # RD costs of the (blocks, candidates, 2) quarter-pel vectors cand of
        # blocks idx, from their uint8 predictions pred, which it overwrites.
        blocks = cur[idx, None]
        diff = np.maximum(pred, blocks)
        diff -= np.minimum(pred, blocks, out=pred)
        distortion = diff.reshape(*cand.shape[:2], -1).sum(-1, dtype=np.uint32)
        return lambda_y * se_bits_array(cand - predictors[idx, None]).sum(-1) + distortion

    def score(idx: np.ndarray, cand: np.ndarray) -> np.ndarray:
        return costs(idx, cand, ref.blocks(origins[idx, None], size, cand))

    def ring(idx: np.ndarray, center: np.ndarray, center_cost: np.ndarray,
             pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The pick of each block's whole-pel ring about center, in pels, and
        # its index in the pattern. pattern[0] is the centre, whose cost the
        # step before gave; only the other points are scored.
        cand = np.minimum(np.maximum(center[:, None] + pattern, -r), r)
        others = cand[:, 1:]
        cost = np.empty(cand.shape[:2])
        cost[:, 0] = center_cost
        cost[:, 1:] = costs(idx, others * QPEL, ref.pel_blocks(origins[idx, None] + others, size))
        at, low = _pick(cand, cost)
        return cand[np.arange(len(cand)), at], low, at

    every = np.arange(n)
    pel = np.minimum(np.maximum(np.rint(predictors / QPEL), -r), r).astype(np.int64)
    start = np.stack([np.zeros_like(predictors), pel * QPEL], 1)
    if flow is not None:
        # Scored beside the start pair, never searched from.
        start = np.concatenate([start, np.asarray(flow, np.int64)[:, None]], 1)
    cost = score(every, start)
    flow_costs = None if flow is None else cost[:, 2]
    at, cost = _pick(start[:, :2], cost[:, :2])
    center = np.where(at[:, None] == 1, pel, 0)
    # Large-pattern descent: recentre while a ring beats its centre.
    active = every
    while active.size:
        moved, moved_cost, at = ring(active, center[active], cost[active], large_pattern)
        center[active], cost[active] = moved, moved_cost
        active = active[at > 0]
    center, cost = ring(every, center, cost, small_pattern)[:2]
    vectors = center * QPEL
    if not config.refine_subpel:
        return vectors, cost, flow_costs

    # Quarter-pel descent in lockstep: each step scores the 3x3 neighbourhood
    # of every moving block at once, the centre's cost carried, and replays
    # the step block by block over those costs only where a neighbour costs
    # no more than the centre: elsewhere nothing in the 3x3 wins. A win
    # re-centres the rest of its step, so one step can move a vector up to 3
    # quarter-pels per axis; a candidate that leaves the 3x3 is scored alone.
    bound = r * QPEL
    cached: dict[int, dict[tuple[int, int], float]] = {}
    active = every
    for _ in range(_QPEL_STEPS):
        cand = np.minimum(np.maximum(vectors[active, None] + _QPEL_RING, -bound), bound)
        step = score(active, cand)
        replay = np.flatnonzero((step <= cost[active, None]).any(axis=1))
        blocks = active[replay]
        moving = []
        for i, (sx, sy), bc, scored, step_costs in zip(
                blocks.tolist(), vectors[blocks].tolist(), cost[blocks].tolist(),
                cand[replay].tolist(), step[replay].tolist()):
            cache = cached.setdefault(i, {})
            cache.update(zip(map(tuple, scored), step_costs))
            cache[sx, sy] = bc
            bx, by, bl = sx, sy, abs(sx) + abs(sy)
            for ox, oy in _QPEL_OFFSETS:
                dx, dy = bx + ox, by + oy
                if not (-bound <= dx <= bound and -bound <= dy <= bound):
                    dx, dy = min(max(dx, -bound), bound), min(max(dy, -bound), bound)
                c = cache.get((dx, dy))
                if c is None:
                    mv = MotionVector(dx, dy)
                    c = cache[dx, dy] = rd_cost(sad(cur[i], ref, origins[i].tolist(), mv), mv,
                                                MotionVector(*predictors[i].tolist()), lambda_y)
                if c < bc or c == bc and (abs(dx) + abs(dy), dy, dx) < (bl, by, bx):
                    bx, by, bc, bl = dx, dy, c, abs(dx) + abs(dy)
            if bx != sx or by != sy:
                vectors[i], cost[i] = (bx, by), bc
                moving.append(i)
        if not moving:
            break
        active = np.array(moving)
    return vectors, cost, flow_costs


def diamond_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
                   config: SearchConfig, predictors: np.ndarray,
                   flow: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Large/small diamond descent of a batch of blocks, each seeded at (0,0)
    and at its predictor. cur holds the blocks' (n, size, size) uint8
    pixels, origins their (n, 2) top-left corners and predictors their
    (n, 2) median predictors, as int64. Returns each block's searched vector
    as an (n, 2) int64 array, its RD cost as (n,) float64, and the flow
    vectors' RD costs.

    flow, the blocks' (n, 2) flow-derived vectors when given, is scored in
    the start pair's step and never searched from; its RD costs come back
    as (n,) float64 (None without flow)."""
    return _batch_search(cur, ref, origins, config, predictors, _DIAMOND_LARGE, _DIAMOND_SMALL,
                         flow)


def hex_search(cur: np.ndarray, ref: ReferencePlane, origins: np.ndarray,
               config: SearchConfig, predictors: np.ndarray,
               flow: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Large hexagon then small cross descent of a batch of blocks, each
    seeded at (0,0) and at its predictor; arguments and result as
    `diamond_search`."""
    return _batch_search(cur, ref, origins, config, predictors, _HEX_LARGE, _HEX_SMALL, flow)


def median_predictors(vectors: np.ndarray) -> np.ndarray:
    """The median predictor of every block of an (rows, cols, 2) integer
    vector field at once, as int64: the component-wise median of the left,
    top and top-right neighbours, with zeros outside the grid."""
    vectors = np.asarray(vectors, np.int64)
    left, top, topright = (np.zeros_like(vectors) for _ in range(3))
    left[:, 1:] = vectors[:, :-1]
    top[1:] = vectors[:-1]
    topright[1:, :-1] = vectors[:-1, 1:]
    return np.maximum(np.minimum(left, top), np.minimum(np.maximum(left, top), topright))
