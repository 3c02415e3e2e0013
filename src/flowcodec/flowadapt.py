"""Dense flow to block vectors: the Mean and Vector Median block estimators.

The vector median picks the member of the block's flow-vector set whose
summed distance to all other members is smallest; the mean averages the
set. Both results snap to the quarter-pel grid.

The Vector Median ranks members by the exact key (S(x), u*u + v*v, u, v):
S(x) is ``math.fsum`` of the rounded distances sqrt(du*du + dv*dv) from
x to every member, repeats included. fsum is correctly rounded, so equal
vectors and symmetric ties compare exactly. `downsample_flow` works on
all blocks of one member count at once (full blocks, right edge, bottom
edge, corner), at most `_CHUNK_ELEMENTS` of the (blocks, anchors,
members) arrays at a time, and computes S only for members that can win:

1. Anchors (`_anchors`): from the coordinate-wise median, one Weiszfeld
   step; four points around it at a tenth of the members' mean distance.
2. Bounds (`_lower_bounds`): D(x) = sum_j |x - v_j| is convex. For any
   vectors e_j with |e_j| <= 1, |x - v_j| >= e_j.(x - v_j), so D(x) >=
   L(x) = K + g.(x - a), with g = sum_j e_j and K = sum_j e_j.(a - v_j).
   With e_j the unit vector from v_j to an anchor a, K = D(a) and g is
   the gradient of D at a: L is D's tangent plane. A member on the anchor
   takes e_j = 0, a subgradient. A member's bound is its largest L over
   the anchors, less a rounding margin E (below).
3. U is the numpy sum of the distances of the member with the least
   bound. A member whose bound exceeds U*(1 + 2**-40) is dropped.
4. A block whose survivors all have one value is decided. Otherwise each
   distinct surviving value gets its row of n distances. A numpy sum of
   each row prefilters them: every row within a relative 2**-40 of the
   smallest sum is kept, and the exact key ranks the kept rows.

The rounding margin. Let u = 2**-53 and n <= 256 the member count. The
code rounds a - v_j and d_j = sqrt(du*du + dv*dv), and takes e_j = (a -
v_j) / max(d_j, 2**-500). At d_j >= 2**-500, d_j**2 is normal, and
a component square that underflows moves it by at most 2**-1075; below,
d_j is clamped. Either way |e_j| <= 1 + 5u, so L(x) <= (1 + 5u) D(x). The
code evaluates L as (K' - g'.a) + g'.x with K' = numpy sum of the d_j and
g' = numpy sum of the e_j. Each d_j >= 2**-500 is within 8u of e_j.(a -
v_j), and a smaller one within 2**-500 of it; g' is within gamma_n * n
(1 + 5u) of g per component (gamma_k: see below); and the evaluation adds
a few u of K' + n(|a|_1 + |x|_1). In all, the computed L is within (n +
20)u (K' + n(|a|_1 + |x|_1)) + n 2**-500 of L(x), a sixteenth of E =
2**-40 (K' + n(|a|_1 + |x|_1)) + 2**-480. In S(x) each rounded distance
is at least (1 - 3u) times the true one, less 2**-537 where squares
underflow, so S(x) >= (1 - 3u) D(x) - n 2**-537.

Why the winner survives. Let a member x be dropped: its computed bound P
= L - E is above U(1 + 2**-40), rounded. Then L(x) >= P + 15E/16, and
S(x) >= (1 - 8u)(P + 15E/16) - n 2**-537 >= (1 + 2**-41) U. U is a
numpy sum of the n non-negative terms of S(m) for the member m it came
from, so U >= (1 - gamma_n) S(m), and S(x) >= (1 + 2**-42) S(m) > (1 +
2u) S(m). So fsum(x) > fsum(m) >= fsum(winner): x's key is above the
winner's. A bound, anchor or sum that is NaN or infinite fails the
comparison and keeps its member. The anchors decide only how many
members survive, never which one wins.

The prefilter's numpy sum of n non-negative terms is within gamma_n =
n*2**-53 / (1 - n*2**-53) relative of the true sum, in any summation
order and with or without FMA (Higham 2002, section 3.1). The exact
winner passes the ratio test if 2*gamma_n is below the slack. A block has
at most 256 members, and 2*gamma_256 is about 2**-44, a 16x margin.

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
nonzero key leaves S' the sign of S. Any other block, one whose sum lies
within that bound of a quarter-pel half (an exact tie, say), takes the
``block_mean`` path.
"""
from __future__ import annotations

import math

import numpy as np

from .io import FLO_SENTINEL
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


# Relative slack of the vector median's prefilter and of its pruning test
# (see the module docstring). The ratio test needs 2*gamma_k for k terms,
# at most the members of the largest block; the slack stays more than 15x
# above it.
_NEAR_MIN = 2.0 ** -40
_MAX_MEMBERS = max(LUMA_BLOCK_SIZES) ** 2
assert 2 * _gamma(_MAX_MEMBERS) * 15 < _NEAR_MIN

# The pruning bounds' rounding margin E = _MARGIN * (K' + n(|a|_1 +
# |x|_1)) + _ABSOLUTE, 16x the rounding error for up to _MAX_MEMBERS
# members; distances below _TINY are clamped to it.
_MARGIN = 2.0 ** -40
_TINY = 2.0 ** -500
_ABSOLUTE = 2.0 ** -480
assert 16 * (_MAX_MEMBERS + 20) * 2.0 ** -53 <= _MARGIN
assert 16 * _MAX_MEMBERS * _TINY <= _ABSOLUTE

# Anchor offsets, in units of the members' mean distance from the start
# point; they decide only how many members the bounds prune.
_ANCHORS = 0.1 * np.array([1, 1j, -1, -1j])

# Elements in one (blocks, anchors, members) float64 array: 128 KB.
_CHUNK_ELEMENTS = 1 << 14


def block_mean(vecs: np.ndarray) -> MotionVector:
    """Arithmetic mean of a block's (n, 2) float64 flow vectors."""
    u = math.fsum(vecs[:, 0]) / len(vecs)
    v = math.fsum(vecs[:, 1]) / len(vecs)
    return quantize_to_quarter_pel(u, v)


def _vector_medians(tiles: np.ndarray) -> np.ndarray:
    """The Vector Median of each block of a (rows, cols, bh, bw, 2) float64
    array: the member of least summed Euclidean distance to all members,
    ties to the smaller magnitude, then the lesser (u, v). (rows, cols, 2)
    float64; `_CHUNK_ELEMENTS` bounds the blocks taken at a time."""
    rows, cols = tiles.shape[:2]
    n = tiles.shape[2] * tiles.shape[3]
    step = max(1, _CHUNK_ELEMENTS // (len(_ANCHORS) * n))
    medians = np.empty((rows * cols, 2))
    for s in range(0, rows * cols, step):
        r, c = np.divmod(np.arange(s, min(s + step, rows * cols)), cols)
        u, v = (tiles[r, c, ..., i].reshape(len(r), n) for i in (0, 1))
        medians[s:s + step] = np.stack(_chunk_medians(u, v), 1)
    return medians.reshape(rows, cols, 2)


def _rows(su: np.ndarray, sv: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances sqrt(du*du + dv*dv) from each (su, sv) to the members in the
    matching row of u, v (broadcast)."""
    du = su[:, None] - u
    dv = sv[:, None] - v
    np.multiply(du, du, out=du)
    np.multiply(dv, dv, out=dv)
    du += dv
    return np.sqrt(du, out=du)


def _anchors(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (c, A) anchor points of c blocks with (c, n) members u, v: the
    `_ANCHORS` offsets, scaled by the members' mean distance from a start
    near the geometric median (the coordinate-wise median, then one
    Weiszfeld step). Their placement decides only how much is pruned."""
    n = u.shape[1]
    with np.errstate(all="ignore"):
        yu, yv = np.sort(u, axis=1)[:, n // 2, None], np.sort(v, axis=1)[:, n // 2, None]
        d = np.sqrt((u - yu) ** 2 + (v - yv) ** 2)
        w = 1.0 / np.maximum(d, _TINY)
        total = w.sum(axis=1, keepdims=True)
        step_u = (w * u).sum(axis=1, keepdims=True) / total
        step_v = (w * v).sum(axis=1, keepdims=True) / total
        moved = np.isfinite(step_u) & np.isfinite(step_v)
        radius = d.mean(axis=1, keepdims=True)
        return (np.where(moved, step_u, yu) + radius * _ANCHORS.real,
                np.where(moved, step_v, yv) + radius * _ANCHORS.imag)


def _lower_bounds(u: np.ndarray, v: np.ndarray, au: np.ndarray, av: np.ndarray) -> np.ndarray:
    """A lower bound on the exact summed distance of each of the (c, n)
    members u, v of c blocks, from the tangent planes at the (c, A) anchor
    points au, av, rounding margin included (see the module docstring). A
    bound that is not finite bounds nothing."""
    n = u.shape[1]
    with np.errstate(all="ignore"):
        du = au[..., None] - u[:, None]
        dv = av[..., None] - v[:, None]
        d = du * du
        d += dv * dv
        np.sqrt(d, out=d)
        tangent = d.sum(axis=2)
        inverse = np.maximum(d, _TINY)
        np.divide(1.0, inverse, out=inverse)
        du *= inverse
        dv *= inverse
        gradient = np.stack([du.sum(axis=2), dv.sum(axis=2)], axis=2)
        base = (tangent * (1 - _MARGIN) - (n * _MARGIN) * (abs(au) + abs(av))
                - gradient[..., 0] * au - gradient[..., 1] * av)
        bound = (np.matmul(gradient, np.stack([u, v], axis=1)) + base[..., None]).max(axis=1)
        bound -= (n * _MARGIN) * (abs(u) + abs(v)) + _ABSOLUTE
        return bound


def _chunk_medians(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Vector Median (wu, wv) of each of c blocks, from their (c, n)
    members u, v."""
    c, n = u.shape
    bound = _lower_bounds(u, v, *_anchors(u, v))
    at = np.arange(c)
    best = np.argmin(bound, axis=1)
    upper = _rows(u[at, best], v[at, best], u, v).sum(axis=1)
    blk, col = np.nonzero(~((bound > upper[:, None] * (1 + _NEAR_MIN)) & (bound < np.inf)))
    su, sv = u[blk, col], v[blk, col]
    # Every block keeps its best-bounded member (its bound is at most its
    # own sum), so starts[k] is block k's first survivor. A block whose
    # survivors all have one value is decided.
    starts = np.searchsorted(blk, at)
    wu, wv = su[starts], sv[starts]
    undecided = np.flatnonzero((np.minimum.reduceat(su, starts) != np.maximum.reduceat(su, starts))
                               | (np.minimum.reduceat(sv, starts) != np.maximum.reduceat(sv, starts)))
    if not len(undecided):
        return wu, wv
    # The others rank one survivor per distinct value.
    pick = np.zeros(c, bool)
    pick[undecided] = True
    pick = pick[blk]
    blk, su, sv = blk[pick], su[pick], sv[pick]
    order = np.lexsort((sv, su, blk))
    blk, su, sv = blk[order], su[order], sv[order]
    first = np.ones(len(blk), bool)
    first[1:] = (blk[1:] != blk[:-1]) | (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
    blk, su, sv = blk[first], su[first], sv[first]
    approx = np.empty(len(blk))
    step = max(1, _CHUNK_ELEMENTS // n)
    for s in range(0, len(blk), step):
        at = blk[s:s + step]
        approx[s:s + step] = _rows(su[s:s + step], sv[s:s + step], u[at], v[at]).sum(axis=1)
    lowest = np.full(c, np.inf)
    lowest[undecided] = np.minimum.reduceat(approx, np.searchsorted(blk, undecided))
    near = np.flatnonzero(approx <= lowest[blk] * (1 + _NEAR_MIN))
    counts = np.bincount(blk[near], minlength=c)
    one = near[counts[blk[near]] == 1]
    wu[blk[one]], wv[blk[one]] = su[one], sv[one]
    for k in np.flatnonzero(counts > 1).tolist():
        ids = near[blk[near] == k]
        rows = _rows(su[ids], sv[ids], u[k], v[k]).tolist()
        wu[k], wv[k] = min((math.fsum(row), a * a + b * b, a, b)
                           for row, a, b in zip(rows, su[ids].tolist(), sv[ids].tolist()))[2:]
    return wu, wv


def downsample_flow(field: FlowField, block_size: int,
                    method: str = "vector-median") -> BlockMotionField:
    """Estimate one quarter-pel vector per block of the covering grid.

    Edge blocks use only the in-bounds vectors. A block size outside
    LUMA_BLOCK_SIZES, or a field with a NaN or infinite component or one
    beyond +-`FLO_SENTINEL` px (the .flo cut-off for unknown flow), is
    rejected with ValueError. Within that bound no sum, distance or
    quarter-pel value overflows.
    """
    check_block_size(block_size)
    field = np.asarray(field, np.float64)
    if field.ndim != 3 or field.shape[2] != 2:
        raise ValueError(f"flow field must have shape (h, w, 2), got {field.shape}")
    bad = field.size - np.count_nonzero(np.isfinite(field))
    if bad:
        raise ValueError(f"flow field has {bad} non-finite components")
    far = field.size - np.count_nonzero(np.abs(field) <= FLO_SENTINEL)
    if far:
        raise ValueError(f"flow field has {far} components beyond +-{FLO_SENTINEL:g} px")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "vector-median":
        return BlockMotionField(block_size, _block_medians(field, block_size))
    vectors, exact = _block_means(field, block_size)
    for r, c in zip(*np.nonzero(~exact)):
        block = field[r * block_size : (r + 1) * block_size,
                      c * block_size : (c + 1) * block_size]
        vectors[r, c] = block_mean(block.reshape(-1, 2))
    return BlockMotionField(block_size, vectors)


def _block_medians(field: np.ndarray, size: int) -> np.ndarray:
    """The quarter-pel Vector Median of every block of a bounded (h, w, 2)
    float64 field, one group of equal member counts at a time: the full
    blocks, the right edge, the bottom edge and the corner."""
    h, w = field.shape[:2]
    cols, rows = block_grid(w, h, size)
    full_c, full_r = w // size, h // size
    medians = np.zeros((rows, cols, 2))
    for ys in (slice(0, full_r), slice(full_r, rows)):
        for xs in (slice(0, full_c), slice(full_c, cols)):
            part = field[ys.start * size:ys.stop * size, xs.start * size:xs.stop * size]
            if part.size:
                r, c = ys.stop - ys.start, xs.stop - xs.start
                tiles = part.reshape(r, part.shape[0] // r, c, part.shape[1] // c, 2)
                medians[ys, xs] = _vector_medians(tiles.swapaxes(1, 2))
    steps = np.minimum(np.floor(np.abs(medians) * QPEL + 0.5), DEFAULT_MV_BOUND)
    return np.where(medians < 0, -steps, steps).astype(np.int32)


def _block_means(field: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """`block_mean` of every block of a bounded (h, w, 2) float64 field,
    from one numpy sum per block: the (rows, cols, 2) int32 vectors, and
    where they are exact. A block whose sum may round to another
    quarter-pel is not exact and its vector is 0."""
    h, w = field.shape[:2]
    cols, rows = block_grid(w, h, size)
    if (h, w) != (rows * size, cols * size):
        padded = np.zeros((rows * size, cols * size, 2))
        padded[:h, :w] = field
        field = padded
    tiles = field.reshape(rows, size, cols, size, 2)
    counts = (np.minimum(size, h - size * np.arange(rows))[:, None, None]
              * np.minimum(size, w - size * np.arange(cols))[:, None])
    sums = tiles.sum(axis=1).sum(axis=2)  # much faster than axis=(1, 3)
    bound = np.abs(tiles).sum(axis=1).sum(axis=2) * (2 * _gamma(size * size))
    magnitude = np.abs(sums)
    low = np.floor((magnitude - bound) / counts * QPEL + 0.5)
    high = np.floor((magnitude + bound) / counts * QPEL + 0.5)
    exact = (low == high).all(axis=2)
    steps = np.where(exact[..., None], np.minimum(low, DEFAULT_MV_BOUND), 0).astype(np.int32)
    return np.where(sums < 0, -steps, steps), exact


def expand_block_field(field: BlockMotionField, width: int, height: int) -> FlowField:
    """Paint each block vector back over its block as a dense (u, v) field;
    ValueError if the field's grid does not cover width x height."""
    field.check_covers(width, height)
    bs = field.block_size
    return (field.vectors / QPEL).astype(np.float32).repeat(bs, 0).repeat(bs, 1)[:height, :width]
