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

The Mean of a block is ``math.fsum`` of each component over its members,
divided by their count n and rounded to the quarter-pel grid
(``block_mean``). ``downsample_flow`` takes every block's sum S' from one
numpy sum over the reshaped field, and its sum A' of magnitudes. For k
terms in any order |S' - S| <= gamma_{k-1} A, where S and A are the exact
sums; ``math.fsum`` rounds S once more, by at most u|S| (u = 2**-53), and A
is at most A' / (1 - gamma_{k-1}). So 2*gamma_k*A' bounds the distance from
S' to the fsum result, with room for the rounding of the bound itself. The
key floor(|s|/n*4 + 0.5) is monotone in |s|; where it is the same at both
ends of |S'| -+ 2*gamma_k*A', it is the key of the fsum result, and a
nonzero key leaves S' the sign of S. Any other block, and any block whose
sum or bound is not finite, takes the ``block_mean`` path: an exact tie on
a quarter-pel half, large cancelling values, or a sum that overflows, which
raises fsum's ``OverflowError``.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import (
    DEFAULT_MV_BOUND,
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


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), with u = 2**-53."""
    return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


# Relative slack of the vector median's prefilter (see the module
# docstring). The ratio test needs 2*gamma_k for k terms, at most the
# members of the largest block; the slack stays more than 15x above it.
_NEAR_MIN = 2.0 ** -40
_MAX_MEMBERS = max(LUMA_BLOCK_SIZES) ** 2
assert 2 * _gamma(_MAX_MEMBERS) * 15 < _NEAR_MIN


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
        vectors, exact = _block_means(field, block_size)
        estimate = block_mean
    else:
        cols, rows = block_grid(field.shape[1], field.shape[0], block_size)
        vectors = np.zeros((rows, cols, 2), np.int32)
        exact = np.zeros((rows, cols), bool)
        n = block_size * block_size
        estimate = partial(_vector_median, scratch=np.empty((2, n, n)))
    for r, c in zip(*np.nonzero(~exact)):
        block = field[r * block_size : (r + 1) * block_size,
                      c * block_size : (c + 1) * block_size]
        vectors[r, c] = estimate(block.reshape(-1, 2))
    return BlockMotionField(block_size, vectors)


def _block_means(field: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """`block_mean` of every block of a finite (h, w, 2) float64 field, from
    one numpy sum per block: the (rows, cols, 2) int32 vectors, and where
    they are exact. A block whose sum may round to another quarter-pel, or
    overflows, is not exact and its vector is 0."""
    h, w = field.shape[:2]
    cols, rows = block_grid(w, h, size)
    if (h, w) != (rows * size, cols * size):
        padded = np.zeros((rows * size, cols * size, 2))
        padded[:h, :w] = field
        field = padded
    tiles = field.reshape(rows, size, cols, size, 2)
    counts = (np.minimum(size, h - size * np.arange(rows))[:, None, None]
              * np.minimum(size, w - size * np.arange(cols))[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        sums = tiles.sum(axis=1).sum(axis=2)  # much faster than axis=(1, 3)
        bound = np.abs(tiles).sum(axis=1).sum(axis=2) * (2 * _gamma(size * size))
        magnitude = np.abs(sums)
        low = np.floor((magnitude - bound) / counts * QPEL + 0.5)
        high = np.floor((magnitude + bound) / counts * QPEL + 0.5)
        exact = ((low == high) & np.isfinite(high)).all(axis=2)
        steps = np.where(exact[..., None], np.minimum(low, DEFAULT_MV_BOUND), 0).astype(np.int32)
    return np.where(sums < 0, -steps, steps), exact


def expand_block_field(field: BlockMotionField, width: int, height: int) -> FlowField:
    """Paint each block vector back over its block as a dense (u, v) field;
    ValueError if the field's grid does not cover width x height."""
    field.check_covers(width, height)
    bs = field.block_size
    return (field.vectors / QPEL).astype(np.float32).repeat(bs, 0).repeat(bs, 1)[:height, :width]
