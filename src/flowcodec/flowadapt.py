"""Dense flow to block vectors: the Mean and Vector Median block estimators.

The vector median picks the member of the block's flow-vector set whose
summed distance to all other members is smallest; the mean averages the
set. Both results snap to the quarter-pel grid.

The vector median ranks members by the exact (``math.fsum``) sum of their
row of the distance matrix, but takes that sum only where it can matter.
A numpy float64 row sum prefilters the members: every row within a
relative 2**-40 of the smallest numpy sum is kept. The terms are
non-negative, so numpy's sum is within (n-1)*2**-53 relative of the true
sum, at most 2.9e-14 for a full 16x16 block, and fsum is correctly
rounded; the exact winner therefore always passes the filter, with more
than 15x margin. Among the kept rows, one per distinct (u, v) is summed
exactly: equal vectors have equal keys, and piecewise-constant flow
(ground truth, say) would otherwise tie every member of a block.
"""
from __future__ import annotations

import math

import numpy as np

from .model import (
    LUMA_BLOCK_SIZES,
    QPEL,
    BlockMotionField,
    FlowField,
    MotionVector,
    block_grid,
    quantize_to_quarter_pel,
)

METHODS = ("mean", "vector-median")

# Relative slack of the vector median's prefilter (see the module
# docstring). A numpy row sum is within (n-1)*2**-53 relative of the true
# sum, 2.9e-14 for n = 256 members of the largest block; the slack must
# stay more than 15x above that.
_NEAR_MIN = 2.0 ** -40
assert (max(LUMA_BLOCK_SIZES) ** 2 - 1) * 2.0 ** -53 * 15 < _NEAR_MIN


def block_mean(vecs: np.ndarray) -> MotionVector:
    """Arithmetic mean of a block's (n, 2) float64 flow vectors."""
    u = math.fsum(vecs[:, 0]) / len(vecs)
    v = math.fsum(vecs[:, 1]) / len(vecs)
    return quantize_to_quarter_pel(u, v)


def block_vector_median(vecs: np.ndarray) -> MotionVector:
    """Member of a block's (n, 2) float64 vector set with the least summed
    Euclidean distance to all members.

    Ties break toward the smaller magnitude, then lexicographically on
    (u, v). Per-candidate sums use exact float summation so equal-by-
    symmetry candidates tie exactly.
    """
    du = np.subtract.outer(vecs[:, 0], vecs[:, 0])
    dist = np.subtract.outer(vecs[:, 1], vecs[:, 1])
    np.multiply(du, du, out=du)
    np.multiply(dist, dist, out=dist)
    dist += du
    np.sqrt(dist, out=dist)
    approx = dist.sum(axis=1)
    near = np.flatnonzero(approx <= approx.min() * (1.0 + _NEAR_MIN))
    _, first = np.unique(vecs[near], axis=0, return_index=True)
    best = min((math.fsum(dist[i]), u * u + v * v, u, v)
               for i in near[first] for u, v in [vecs[i].tolist()])
    return quantize_to_quarter_pel(best[2], best[3])


def downsample_flow(field: FlowField, block_size: int,
                    method: str = "vector-median") -> BlockMotionField:
    """Estimate one quarter-pel vector per block of the covering grid.

    Edge blocks use only the in-bounds vectors. A field with any NaN or
    infinite component is rejected with ValueError.
    """
    field = np.asarray(field, np.float64)
    if field.ndim != 3 or field.shape[2] != 2:
        raise ValueError(f"flow field must have shape (h, w, 2), got {field.shape}")
    bad = field.size - np.count_nonzero(np.isfinite(field))
    if bad:
        raise ValueError(f"flow field has {bad} non-finite components")
    if method == "median":
        method = "vector-median"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    estimate = block_mean if method == "mean" else block_vector_median
    h, w = field.shape[:2]
    cols, rows = block_grid(w, h, block_size)
    vectors = np.zeros((rows, cols, 2), np.int32)
    for r in range(rows):
        for c in range(cols):
            block = field[r * block_size : (r + 1) * block_size,
                          c * block_size : (c + 1) * block_size]
            vectors[r, c] = estimate(block.reshape(-1, 2))
    return BlockMotionField(block_size, vectors)


def expand_block_field(field: BlockMotionField, width: int, height: int) -> FlowField:
    """Paint each block vector back over its block as a dense (u, v) field;
    ValueError if the field's grid does not cover width x height."""
    field.check_covers(width, height)
    bs = field.block_size
    return (field.vectors / QPEL).astype(np.float32).repeat(bs, 0).repeat(bs, 1)[:height, :width]
