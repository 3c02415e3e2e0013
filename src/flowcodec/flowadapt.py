"""Dense flow to block vectors: the Mean and Vector Median block estimators.

The vector median picks the member of the block's flow-vector set whose
summed distance to all other members is smallest; the mean averages the
set. Both results snap to the quarter-pel grid.
"""
from __future__ import annotations

import math

import numpy as np

from .model import BlockMotionField, FlowField, MotionVector, block_grid, quantize_to_quarter_pel

METHODS = ("mean", "vector-median")


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
    du = vecs[:, 0:1] - vecs[:, 0]
    dv = vecs[:, 1:2] - vecs[:, 1]
    dist = np.sqrt(du * du + dv * dv)
    best = None
    for i in range(len(vecs)):
        u, v = float(vecs[i, 0]), float(vecs[i, 1])
        key = (math.fsum(dist[i]), u * u + v * v, u, v)
        if best is None or key < best[0]:
            best = (key, u, v)
    return quantize_to_quarter_pel(best[1], best[2])


def downsample_flow(field: FlowField, block_size: int,
                    method: str = "vector-median") -> BlockMotionField:
    """Estimate one quarter-pel vector per block of the covering grid.

    Edge blocks use only the in-bounds vectors.
    """
    field = np.asarray(field, np.float64)
    if field.ndim != 3 or field.shape[2] != 2:
        raise ValueError(f"flow field must have shape (h, w, 2), got {field.shape}")
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
    """Paint each block vector back over its block as a dense (u, v) field."""
    bs = field.block_size
    dense = np.zeros((height, width, 2), np.float32)
    for r in range(field.rows):
        for c in range(field.cols):
            dense[r * bs : (r + 1) * bs, c * bs : (c + 1) * bs] = field.vector(c, r).to_pixels()
    return dense
