"""Dense flow to block vectors: the Mean and Vector Median block estimators.

The vector median picks the member of the block's flow-vector set whose
summed distance to all other members is smallest; the mean averages the
set. Both results snap to the quarter-pel grid.

The vector median works on the block's distinct vectors. It groups the
members by value (``np.unique`` on a complex view) and weights each
distinct vector by its count. Grouping merges 0.0 and -0.0, which is
harmless: equal values give equal distances and quantise alike. Noisy flow
has as many distinct vectors as members, piecewise-constant flow (ground
truth, say) one or two per block. The k x k distance matrix of the
distinct vectors goes into a scratch buffer that `downsample_flow`
allocates once per field.

A count-weighted numpy product ``dist @ counts`` prefilters the distinct
vectors: every row within a relative 2**-40 of the smallest product is
kept. The terms are non-negative, so a product of k terms is within
gamma_k = k*2**-53 / (1 - k*2**-53) relative of the true sum, in any
summation order and with or without FMA (Higham 2002, section 3.1). The
exact winner passes the ratio test if 2*gamma_k is below the slack. A
block has at most 256 members, and 2*gamma_256 is about 2**-44, a 16x
margin.

The kept rows are ranked by the exact key (fsum of the row repeated by
the counts, u*u + v*v, u, v). The repeated row holds the same multiset of
distances as the member's row of the full n x n matrix, and ``math.fsum``
is correctly rounded, so equal vectors and symmetric ties compare exactly.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import (
    LUMA_BLOCK_SIZES,
    QPEL,
    BlockMotionField,
    FlowField,
    MotionVector,
    block_grid,
    check_block_size,
    quantize_to_quarter_pel,
)

METHODS = ("mean", "vector-median")

# Relative slack of the vector median's prefilter (see the module
# docstring). The ratio test needs 2*gamma_k for k terms, at most the
# members of the largest block; the slack stays more than 15x above it.
_NEAR_MIN = 2.0 ** -40
_MAX_MEMBERS = max(LUMA_BLOCK_SIZES) ** 2
assert 2 * _MAX_MEMBERS * 2.0 ** -53 / (1 - _MAX_MEMBERS * 2.0 ** -53) * 15 < _NEAR_MIN


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
    n = len(vecs)
    return _vector_median(vecs, np.empty((2, n, n)))


def _vector_median(vecs: np.ndarray, scratch: np.ndarray) -> MotionVector:
    # scratch is a (2, m, m) float64 buffer with m >= len(vecs).
    values, counts = np.unique(np.ascontiguousarray(vecs, np.float64).view(np.complex128),
                               return_counts=True)
    k = len(values)
    uv = values.view(np.float64).reshape(k, 2)
    du = np.subtract.outer(uv[:, 0], uv[:, 0], out=scratch[0, :k, :k])
    dist = np.subtract.outer(uv[:, 1], uv[:, 1], out=scratch[1, :k, :k])
    np.multiply(du, du, out=du)
    np.multiply(dist, dist, out=dist)
    dist += du
    np.sqrt(dist, out=dist)
    approx = dist @ counts.astype(np.float64)
    near = np.flatnonzero(approx <= approx.min() * (1.0 + _NEAR_MIN))
    best = min((math.fsum(np.repeat(dist[i], counts).tolist()), u * u + v * v, u, v)
               for i in near.tolist() for u, v in [uv[i].tolist()])
    return quantize_to_quarter_pel(best[2], best[3])


def downsample_flow(field: FlowField, block_size: int,
                    method: str = "vector-median") -> BlockMotionField:
    """Estimate one quarter-pel vector per block of the covering grid.

    Edge blocks use only the in-bounds vectors. A block size outside
    LUMA_BLOCK_SIZES, or a field with any NaN or infinite component, is
    rejected with ValueError.
    """
    check_block_size(block_size)
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
    if method == "mean":
        estimate = block_mean
    else:
        n = block_size * block_size
        estimate = partial(_vector_median, scratch=np.empty((2, n, n)))
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
