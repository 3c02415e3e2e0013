"""Closed-loop P-frame encoder/decoder.

Frame 0 of each GOP is intra coded (blockwise DCT of the pixels); every
other frame predicts each block from the previous *decoded* frame using a
vector chosen by the configured motion mode, then transform-codes the
residual with a uniform quantiser and run-level exp-Golomb codes. The
decoder reproduces the encoder reconstruction bit for bit, and every
reported bit count is measured off the real bitstream.

Bitstream container: magic "FCL1", a fixed little-endian config header,
then one payload per frame and nothing after the last one. A frame payload
is, MSB first:

- a type byte: 0 for an intra frame (first of each GOP), 1 for a P frame;
- P frames only: for each block in raster order, se(dx - pdx) then
  se(dy - pdy), where (pdx, pdy) is the median of the left, top and
  top-right vectors (`median_predictors`), zero outside the grid;
- the Y, U and V residual sections: for each transform block in raster
  order, the run-level code of its zig-zag scanned levels. Luma transforms
  are min(8, bs) wide, chroma ones max(2, bs/2) (`_transform_sizes`);
- zero padding to the next byte.

Encoder and decoder both build every frame's prediction with `_prediction`
(zero planes for intra frames, `motion_compensate` of the previous decoded
frame otherwise) and add the dequantised residual to it the same way, with
`_reconstruct_plane`. `motion_compensate` is `predict_block` over whole
planes of the reference `Frame`: one `take` per plane gathers every
block's (size + 1)-square window of border-clamped samples, U and V through
the same indices, and the window's shifted views are its four bilinear
taps, weighted across and then down in uint16. `_encode_plane` forms the
residual once from the zero-padded blocks of both planes, `dctn` and `idctn`
may overwrite their input, `quantize` rounds in one float64 array, and
`_reconstruct_plane` adds the prediction, rounds and clips in another.

The `zero`, `flow-mean` and `flow-median` modes know the whole vector field
before any decision: zeros, or the provider's dense flow reduced by
`downsample_flow`. Only the internal and hybrid modes search, and only the
encoder: it reads the reference luma through one `ReferencePlane` per P
frame, which interpolates all 16 quarter-pel phases once. A block's median
predictor reads its left, top and top-right neighbours, so `_search_vectors`
searches the whole frame under guessed predictors (the previous P frame's,
across an intra frame too; the flow field's on a GOP's first P frame in the
hybrid modes; zeros before any P frame), then re-searches only the blocks
whose predictor changed, until none does. No block's search
reads another block of its `diamond_search` or `hex_search` call, so this
fixed point is the raster-order field. The searches return arrays of
vectors and costs, which the passes assign as they are. In the hybrid
modes the same calls score every block's flow-derived vector in their
first batched step and return those costs beside the searched ones. The
passes decide from them in numpy; after the last one, `select_block_vector`
decides each hybrid block once from its final (vector, cost) pairs, and
scores nothing itself. The internal modes decide nothing: their field is
the searched one.

Every mode codes its vector differences once the field is known, against
the median predictors of the whole grid at once (`median_predictors`). This
is the same stream as coding block by block, because a block's predictor
reads only vectors that come before it in raster order. `bitstream.ue_pack`
packs the vector codes into a Python int and its bit length. Each plane's
run-level codes come from `np.flatnonzero` over its zig-zagged levels,
`_CHUNK_BLOCKS` blocks at a time, so that no per-code array grows with the
frame: `_pack_levels` packs a chunk as one field per (level, run) pair,
both codes in one uint64, and one per EOB, with `bitstream.pack_fields`,
the packer under `ue_pack` too. The payload appends every packed int
after the type byte with `acc << length | bits` and pads with zeros to
the next byte. The frame's motion and residual bit counts are the lengths
of its packed codes.

The decoder parses the payload's codes in ranges of bits, and
`_read_levels` takes each frame's from them: the bounds of every code from
`bitstream.CodeParser.codes` and their values from `CodeParser.values`,
with no Python step per code, `_CHUNK_CODES` new codes at a time, so that
no per-code array grows with the frame. Where each level goes depends only
on the header, so `decode_sequence` takes the stream's `_Layout` once: each
block's offset and size in a frame's levels, and the int8 shift of every
level from its zig-zag scan index to its raster index. In a P frame the
first 2 * rows * cols codes are the vector differences, and `_vectors`
adds each block's to its median predictor in one raster-order pass over
Python ints, as each piece brings them: a block's predictor reads only
blocks before it. The three residual planes follow. After any 1-bit code
a level follows, and levels and runs alternate up to the next 1-bit code,
so a 1-bit code is an EOB where an odd number of codes separates it from
the 1-bit code before it. Pair k of a piece's block b starts at code
2k + b; one cumulative sum of (run + 1) over the piece's pairs gives each
level's scan position, and the layout's shift its raster index. A range
is `_MAX_RANGE_BITS` long, or ends with the data; while EOBs are missing,
the next starts at the first code not used yet, so no codes carry over. A
frame's last range runs on past its end, through the zero padding and the
next type byte. `_read_levels` returns the bounds it parsed to, and
`decode_sequence` hands them to the next frame, which reads its first
codes serially until they meet that parse (`CodeParser.rejoin`): from a
shared position on, two parses agree. A frame whose read meets none within
`bitstream._REJOIN_BITS` bits parses afresh from its first code. A parse
that stops at a code the parser refuses raises there only if a frame
needs that code. A malformed frame raises the `BitstreamError` of its
first bad code or symbol in stream order, as reading one code at a time
would. Before any of that, a header that claims more frames or blocks
than the payload can hold is rejected.
"""
from __future__ import annotations

import struct
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.fft import dctn, idctn

from . import metrics
from .bitstream import (
    MAX_PREFIX,
    BitstreamError,
    CodeParser,
    pack_fields,
    se_to_ue_array,
    ue_pack,
    ue_to_se_array,
)
from .blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictors,
    sad,  # noqa: F401  (kept as a name bench/tracer.py wraps)
)
from .flowadapt import downsample_flow
from .model import (
    LUMA_BLOCK_SIZES,
    QPEL,
    BlockMotionField,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
    chroma_vectors,
    predict_block,  # noqa: F401  (kept as a name bench/tracer.py wraps)
)

MOTION_MODES = (
    "zero",
    "internal-diamond",
    "internal-hex",
    "flow-mean",
    "flow-median",
    "hybrid-mean",
    "hybrid-median",
)
FLOW_MODES = frozenset(m for m in MOTION_MODES if m.startswith(("flow", "hybrid")))
HYBRID_MODES = frozenset(m for m in MOTION_MODES if m.startswith("hybrid"))
SEARCH_MODES = HYBRID_MODES | {"internal-diamond", "internal-hex"}

_MODE_IDS = {name: i for i, name in enumerate(MOTION_MODES)}

MAGIC = b"FCL1"
_HEADER = struct.Struct("<4sHHHBBHIII")
HEADER_SIZE = _HEADER.size
_U16_MAX = 0xFFFF  # q and gop_size are 16-bit header fields


@dataclass(frozen=True)
class CodecConfig(SearchConfig):
    """Search parameters plus the motion mode and the intra period."""

    motion_mode: str
    _: KW_ONLY
    gop_size: int = 100

    def __post_init__(self):
        super().__post_init__()
        if self.motion_mode not in MOTION_MODES:
            raise ValueError(f"unknown motion mode {self.motion_mode!r}")
        if self.q > _U16_MAX:
            raise ValueError(f"quantiser must be in 1..{_U16_MAX}")
        if not 1 <= self.gop_size <= _U16_MAX:
            raise ValueError(f"GOP size must be in 1..{_U16_MAX}")


@dataclass(frozen=True)
class FrameStats:
    index: int
    bits_motion: int
    bits_residual: int
    bits_header: int
    bits_total: int
    psnr_y: float
    psnr_u: float
    psnr_v: float
    psnr_combined: float


class BlockDecision(NamedTuple):
    """The chosen vector; hybrid modes also keep both candidates' RD costs."""

    mv: MotionVector
    internal_mv: MotionVector | None = None
    internal_cost: float | None = None
    flow_cost: float | None = None


@dataclass(frozen=True)
class EncodeResult:
    stats: list[FrameStats]
    recon: list[Frame]
    bitstream: bytes


@dataclass(frozen=True)
class BitstreamInfo:
    width: int
    height: int
    q: int
    block_size: int
    motion_mode: str
    gop_size: int
    frame_count: int
    fps_num: int
    fps_den: int


# ---------------------------------------------------------------------------
# Transform and quantiser


def quantize(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Uniform mid-tread quantiser: level = round(c / q), ties away from zero."""
    if q < 1:
        raise ValueError("quantiser must be >= 1")
    coeffs = np.asarray(coeffs, np.float64)
    levels = np.abs(coeffs)
    levels /= q
    levels += 0.5
    np.copysign(levels, coeffs, out=levels)  # -0.0 still casts to 0
    return levels.astype(np.int32)  # truncates toward zero, so floors |c|/q + 1/2 >= 0


def dequantize(levels: np.ndarray, q: int) -> np.ndarray:
    return np.multiply(levels, float(q), dtype=np.float64)


@lru_cache(maxsize=None)
def zigzag_order(n: int) -> tuple[int, ...]:
    """Flat indices of an n x n block in zig-zag scan order."""
    order = []
    for s in range(2 * n - 1):
        cells = [(k, s - k) for k in range(max(0, s - n + 1), min(s, n - 1) + 1)]
        if s % 2 == 0:
            cells.reverse()
        order.extend(r * n + c for r, c in cells)
    return tuple(order)


def _transform_sizes(block_size: int) -> tuple[int, int, int]:
    """Y, U and V transform sizes. Luma tiles at min(8, block) so a 16 px
    block carries four 8x8 transforms; chroma halves with the plane."""
    chroma = max(2, block_size // 2)
    return min(8, block_size), chroma, chroma


# ---------------------------------------------------------------------------
# Run-level residual code
#
# Per block, each nonzero coefficient in scan order is coded as
# (signed exp-Golomb level, unsigned exp-Golomb zero run); the level is
# written first so the 1-bit zero level can double as the end-of-block
# symbol. Blocks are written _CHUNK_BLOCKS at a time, one packed field per
# (level, run) pair and one per EOB, and parsed by ranges of bits,
# _CHUNK_CODES codes at a time, which bounds every per-code array.

_CHUNK_BLOCKS = 128
_INT32 = np.iinfo(np.int32)
_MAX_RANGE_BITS = 1 << 18  # the parser's arrays grow with the range
_CHUNK_CODES = 1 << 14
_MAX_LEVELS = max(_transform_sizes(max(LUMA_BLOCK_SIZES))) ** 2  # the most levels of a block
assert MAX_PREFIX + 1 + 2 * _MAX_LEVELS.bit_length() - 1 <= 64
# Transform sizes are powers of two, so a level's block and position in it
# are bit fields of its index in the chunk.
assert all(t & (t - 1) == 0 for size in LUMA_BLOCK_SIZES for t in _transform_sizes(size))
# A run's code length, by run + 1.
_RUN_BITS = np.array([0] + [2 * v.bit_length() - 1 for v in range(1, _MAX_LEVELS + 1)], np.uint64)
# A parse range restarts at the first code not used yet, so it must be longer
# than the largest block's codes (_MAX_LEVELS widest pairs, the EOB) and one code.
assert _MAX_RANGE_BITS > _MAX_LEVELS * (2 * MAX_PREFIX + 1 + int(_RUN_BITS[-1])) + 1 + 2 * MAX_PREFIX + 1


def _write_levels(scanned: np.ndarray) -> list[tuple[int, int]]:
    """The run-level codes of blocks of scanned levels, as one
    `_pack_levels` (bits, length) per chunk of _CHUNK_BLOCKS blocks."""
    return [_pack_levels(scanned[first:first + _CHUNK_BLOCKS])
            for first in range(0, len(scanned), _CHUNK_BLOCKS)]


def _pack_levels(chunk: np.ndarray) -> tuple[int, int]:
    """The run-level codes of a chunk of blocks of scanned int32 levels, one
    row of t * t per block, as (bits, length), from one
    `bitstream.pack_fields` field per (level, run) pair and one per EOB.

    A pair's field is the level's ue value + 1, 2|s| + (s < 0), shifted
    left over the run's code, with run + 1 below it. The level's value has
    at most MAX_PREFIX + 1 = 33 bits, and the run's code 2 * bitlength(run
    + 1) - 1 <= 13 bits, since run + 1 <= t * t <= 64. So a field holds at
    most 46 value bits and touches at most two words; its length is the sum
    of the two code lengths. The level at index nz of the chunk has run
    min(nz - nz' - 1, nz mod t * t), nz' being the index of the chunk's
    nonzero level before it, in its block or an earlier one (-1 for the
    first). One EOB precedes a pair for each block before its block b, so
    the pair's last bit is the sum of the lengths of the pairs up to it,
    plus b, less one; block b's 1-bit EOB is bit (the lengths of the pairs
    through block b) + b."""
    blocks, size = chunk.shape
    nz = np.flatnonzero(chunk != 0)  # faster than over the int32 levels
    values = chunk.ravel().take(nz)
    level = np.abs(values, dtype=np.int64)
    level <<= 1
    level += values < 0
    level_width = level.astype(np.float64).view(np.int64)  # bit lengths, exact
    level_width >>= 52
    level_width -= 1022
    run = np.empty_like(nz)  # run + 1
    run[:1] = nz[:1] + 1
    np.subtract(nz[1:], nz[:-1], out=run[1:])
    np.minimum(run, (nz & (size - 1)) + 1, out=run)
    run_bits = _RUN_BITS.take(run)
    fields = level.view(np.uint64) << run_bits
    fields |= run.view(np.uint64)
    widths = level_width + run_bits.view(np.int64)
    lengths = widths + level_width
    lengths -= 1
    ends = np.zeros(len(nz) + 1, np.int64)  # the pairs' bits before each pair, then all
    np.cumsum(lengths, out=ends[1:])
    last = nz >> (size.bit_length() - 1)  # the block
    last += ends[1:]
    last -= 1
    eob = ends.take(np.searchsorted(nz, np.arange(size, size * (blocks + 1), size)))
    eob += np.arange(blocks)
    length = int(ends[-1]) + blocks
    return pack_fields(length, (fields, widths, last),
                       (np.ones(blocks, np.uint64), np.ones(blocks, np.int64), eob)), length


class _Layout(NamedTuple):
    """Where the run-level codes of a stream's frames put their levels,
    which depends only on its header."""

    first: np.ndarray  # each block's first level in a frame's levels, then their count
    size: np.ndarray  # each block's level count, then 0
    shift: np.ndarray  # int8, each level's raster index less its scan index in levels
    cuts: tuple[int, ...]  # the planes' ends in levels, but the last
    shapes: tuple[tuple[int, int], ...]  # each plane's (blocks, t * t)


@lru_cache(maxsize=8)
def _layout(planes: tuple[tuple[int, int], ...]) -> _Layout:
    """The read-only `_Layout` of frames of consecutive planes of blocks,
    planes giving each plane's (block count, transform size t)."""
    shapes = tuple((n, t * t) for n, t in planes)
    size = np.repeat([a for _, a in shapes] + [0], [n for n, _ in shapes] + [1])
    first = np.zeros(len(size), np.int64)
    np.cumsum(size[:-1], out=first[1:])
    cuts = np.cumsum([n * a for n, a in shapes]).tolist()
    shift = np.empty(cuts[-1], np.int8)
    for lo, hi, (n, a), (_, t) in zip([0] + cuts, cuts, shapes, planes):
        shift[lo:hi].reshape(n, a)[:] = np.subtract(zigzag_order(t), np.arange(a))
    for table in (first, size, shift):
        table.setflags(write=False)
    return _Layout(first, size, shift, tuple(cuts[:-1]), shapes)


def _read_levels(parser: CodeParser, p: int, path: np.ndarray, layout: _Layout,
                 grid: tuple[int, int] | None,
                 frame: int) -> tuple[np.ndarray | None, list[np.ndarray], int, np.ndarray]:
    """Read a frame's codes from bit p: in a P frame, whose block grid is
    (rows, cols), the vector differences, then the run-level codes of the
    blocks of the layout's planes. Returns the (rows, cols, 2) int32 vectors
    (None without a grid), each plane's (blocks, t*t) int32 levels in raster
    order, the bit after the codes and the bounds of the range it parsed
    last, which the next frame's codes continue.

    The codes continue path, the bounds of the frame before's last range,
    where `CodeParser.rejoin` reads from p into them. While blocks are
    missing, ranges of _MAX_RANGE_BITS follow, each from the first code not
    used yet (an odd vector code, or an open block's first); a piece is the
    codes not used yet and _CHUNK_CODES new ones. By the contract under
    `_RUN_BITS` a range uses a new code, so one that ends where the last one
    did has stopped at a code the parser refuses. `_vectors` decodes its
    complete blocks of vector differences. Of its residual codes, a 1-bit code is an EOB where an
    odd number of codes separates it from the 1-bit code before it (from
    code -1), and the k-th EOB ends pair (eob_k - k) / 2: the codes but the
    EOBs are the blocks' (level, run) pairs, and pair k of the piece's
    block b starts at code 2k + b. A level's scan position in its block is
    the sum of (run + 1) over the block's pairs up to it, less one: one
    cumulative sum over the piece, less its value at the block's first
    pair. Its block's first level in levels plus that position is its
    scan index, and `_Layout.shift` moves it to its raster index. The
    levels of the open block are placed too, and again with the next piece.

    Raises the error of the earliest malformed code, vector or pair, in
    stream order, as reading them one by one would."""
    first, size, shift = layout.first, layout.size, layout.shift
    levels = np.zeros(int(first[-1]), np.int32)
    need, done = len(size) - 1, 0
    rows, cols = grid or (0, 0)
    field: list[int] = []  # the vectors so far, dx and dy of each block in raster order
    motion = 2 * rows * cols  # vector codes not read yet
    bounds = parser.rejoin(p, path)
    lo = seen = 0  # the first code not used yet and the first not read
    while True:
        if seen == len(bounds) - 1:
            end, p = int(bounds[-1]), int(bounds[lo])
            bounds = parser.codes(p, p + _MAX_RANGE_BITS)
            if bounds[-1] <= end:  # no progress: the code at end is refused
                parser.refuse(end)
            lo, seen = 0, seen - lo
        seen = min(seen + _CHUNK_CODES, len(bounds) - 1)
        piece = bounds[lo:seen + 1]
        values = parser.values(piece).view(np.int64)
        if motion:
            pairs = min(motion, len(values)) // 2
            _vectors(field, ue_to_se_array(values[:2 * pairs]).tolist(), cols, piece, frame)
            motion -= 2 * pairs
            lo += 2 * pairs
            if motion:
                continue
            values, piece = values[2 * pairs:], piece[2 * pairs:]
        ones = (values == 0).nonzero()[0]
        odd = ones & 1
        eob = np.empty(len(ones), bool)
        eob[:1] = odd[:1] == 0
        np.not_equal(odd[1:], odd[:-1], out=eob[1:])
        eobs = ones[eob][:need - done]
        closed = len(eobs)
        finished = closed == need - done
        limit = int(eobs[-1]) if finished else len(values)
        pairs = (limit - closed + finished) // 2  # the codes before limit but EOBs, paired
        # The pair index of each block's first pair, its open block's too,
        # and then the end.
        edges = np.empty(closed + 2 - finished, np.int64)
        edges[0] = 0
        np.subtract(eobs, np.arange(closed), out=edges[1:closed + 1])
        edges[1:closed + 1] >>= 1
        edges[closed + 1:] = pairs
        blocks = slice(done, done + len(edges) - 1)
        counts = np.diff(edges)
        # Pair k of the piece's block b starts at code 2k + b.
        at = np.arange(0, 2 * pairs, 2)
        at += np.repeat(np.arange(len(counts)), counts)
        level = values.take(at)
        at += 1
        run = values.take(at)
        run += 1
        ends = np.zeros(pairs + 1, np.int64)  # of (run + 1) over the piece's pairs before each
        np.cumsum(run, out=ends[1:])
        steps = ends.take(edges)
        # A block overflows where its pairs' (run + 1) add up past its size; a
        # ue value up to 2**32 - 2 is an int32 level.
        if (steps[1:] - steps[:-1] > size[blocks]).any() or level.max(initial=0) > 2 ** 32 - 2:
            _check_pairs(level, ends, edges, size[blocks], piece)
        scan = ends[1:]
        scan += np.repeat(first[blocks] - 1 - steps[:-1], counts)
        scan += shift.take(scan)
        levels[scan] = ue_to_se_array(level)
        done += closed
        if finished:
            return (None if grid is None else np.array(field, np.int32).reshape(rows, cols, 2),
                    [part.reshape(shape) for part, shape in
                     zip(np.split(levels, layout.cuts), layout.shapes)],
                    int(piece[limit]) + 1, bounds)
        lo += int(eobs[-1]) + 1 if closed else 0


def _check_pairs(level: np.ndarray, ends: np.ndarray, edges: np.ndarray, size: np.ndarray,
                 piece: np.ndarray) -> None:
    """Raise the error of a piece's first pair whose run overflows its block
    or whose level is outside int32, if any, at the end of its run code:
    level holds the pairs' ue level values, ends the sum of (run + 1) over
    the pairs before each, edges each block's first pair, size each
    block's level count, and piece the bounds of the piece's codes from
    the first level."""
    block = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    pos = ends[1:] - 1 - ends.take(edges)[block]
    overflow = pos >= size[block]
    value = ue_to_se_array(level)
    bad = np.flatnonzero(overflow | (value < _INT32.min) | (value > _INT32.max))
    if not bad.size:
        return
    k = bad[0]
    what = "run overflows block" if overflow[k] else "level out of range"
    raise BitstreamError(f"coefficient {what} at bit {piece[2 * k + int(block[k]) + 2]}")


def _vectors(field: list[int], diffs: list[int], cols: int, bounds: np.ndarray,
             frame: int) -> None:
    """Extend field, the vectors of a grid cols wide so far, dx and dy of
    each block in raster order, by those of the blocks whose differences
    diffs holds, dx - pdx then dy - pdy of each: (pdx, pdy) is the median
    of the block's left, top and top-right vectors, zero outside the grid,
    as `tests/oracles.median_predictor` takes it. The median of three is
    the left one clamped between the other two. Raises, as reading the
    codes one by one would, at the end of the first block outside int32;
    diffs[i]'s code ends at bounds[i + 1]."""
    low, high = int(_INT32.min), int(_INT32.max)
    k = len(field) // 2
    c = k % cols
    for i in range(0, len(diffs), 2):
        if k < cols:  # no neighbours above, so a predictor of zero
            x, y = diffs[i], diffs[i + 1]
        else:
            t = 2 * (k - cols)
            ax, ay = field[t], field[t + 1]
            bx, by = (field[t + 2], field[t + 3]) if c + 1 < cols else (0, 0)
            lx, ly = (field[-2], field[-1]) if c else (0, 0)
            if ax > bx:
                ax, bx = bx, ax
            if ay > by:
                ay, by = by, ay
            x = diffs[i] + (ax if lx < ax else bx if lx > bx else lx)
            y = diffs[i + 1] + (ay if ly < ay else by if ly > by else ly)
        if not (low <= x <= high and low <= y <= high):
            raise BitstreamError(f"frame {frame}: motion vector out of range at "
                                 f"bit {bounds[i + 2]}")
        field += x, y
        k += 1
        c = 0 if c + 1 == cols else c + 1


# ---------------------------------------------------------------------------
# Plane blocking


def _to_blocks(plane: np.ndarray, t: int) -> tuple[np.ndarray, int, int]:
    h, w = plane.shape
    hp = -(-h // t) * t
    wp = -(-w // t) * t
    if (hp, wp) != (h, w):
        padded = np.zeros((hp, wp), plane.dtype)
        padded[:h, :w] = plane
        plane = padded
    nby, nbx = hp // t, wp // t
    blocks = plane.reshape(nby, t, nbx, t).swapaxes(1, 2).reshape(nby * nbx, t, t)
    return blocks, nby, nbx


def _from_blocks(blocks: np.ndarray, nby: int, nbx: int, h: int, w: int) -> np.ndarray:
    t = blocks.shape[1]
    full = blocks.reshape(nby, nbx, t, t).swapaxes(1, 2).reshape(nby * t, nbx * t)
    return full[:h, :w]


def _reconstruct_plane(pred: np.ndarray, levels: np.ndarray, nby: int, nbx: int,
                       q: int, h: int, w: int) -> np.ndarray:
    """The uint8 h x w plane clip(floor(pred + res + 1/2), 0, 255), res being
    the inverse transform of the (nby * nbx, t, t) dequantised levels of its
    raster-order blocks. The prediction is added, rounded and clipped in
    place, in res's float64 plane."""
    res = idctn(dequantize(levels, q), axes=(1, 2), norm="ortho", overwrite_x=True)
    plane = _from_blocks(res, nby, nbx, h, w)
    plane += pred
    plane += 0.5
    np.clip(plane, 0, 255, out=plane)
    return plane.astype(np.uint8)  # truncates, so floors the clipped samples >= 0


def _encode_plane(cur: np.ndarray, pred: np.ndarray, t: int,
                  q: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Code one plane's residual; returns its reconstruction and its codes.
    Both planes are zero padded to whole blocks, so the residual is too."""
    blocks, nby, nbx = _to_blocks(cur, t)
    residual = np.subtract(blocks, _to_blocks(pred, t)[0], dtype=np.float64)
    levels = quantize(dctn(residual, axes=(1, 2), norm="ortho", overwrite_x=True), q)
    bits = _write_levels(levels.reshape(len(levels), t * t)[:, list(zigzag_order(t))])
    h, w = cur.shape
    return _reconstruct_plane(pred, levels, nby, nbx, q, h, w), bits


# ---------------------------------------------------------------------------
# Motion compensation and vector selection

# `_compensate_plane` sums a sample's four weighted taps, plus the rounding
# 8, in uint16.
assert QPEL * QPEL * 255 + 8 < 2 ** 16


def motion_compensate(ref: Frame, motion: BlockMotionField) -> tuple[np.ndarray, ...]:
    """Predict a frame's Y, U and V planes (uint8) from the reference frame:
    `predict_block` of every block under its vector, at once. Chroma uses the
    halved vectors on the half-resolution grid, through the same windows in
    both planes. Raises ValueError when the motion grid does not cover the
    frame."""
    motion.check_covers(ref.width, ref.height)
    bs = motion.block_size
    y = _compensate_plane(ref.y, _tap_windows(np.asarray(motion.vectors, np.int64), bs,
                                              *ref.y.shape))
    chroma = _tap_windows(chroma_vectors(motion.vectors), bs // 2, *ref.u.shape)
    return y, _compensate_plane(ref.u, chroma), _compensate_plane(ref.v, chroma)


def _tap_windows(vectors: np.ndarray, size: int, h: int,
                 w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bilinear taps of every size x size block of an h x w plane under
    its int64 vector, for `_compensate_plane`: the flat indices of each
    block's (size + 1) x (size + 1) window of border-clamped samples, as
    (size + 1, size + 1, rows, cols), and the vectors' fractions fx and fy
    as (rows, cols) uint16. Window sample (a, b) of block (r, c) is the
    plane's at y = r*size + iy + a, x = c*size + ix + b, clamped."""
    rows, cols = vectors.shape[:2]
    i, f = np.divmod(vectors, QPEL)
    taps = np.arange(size + 1)[:, None, None]
    x = np.clip(i[..., 0] + np.arange(cols) * size + taps, 0, w - 1)
    y = np.clip(i[..., 1] + np.arange(rows)[:, None] * size + taps, 0, h - 1)
    return y[:, None] * w + x, f[..., 0].astype(np.uint16), f[..., 1].astype(np.uint16)


def _compensate_plane(plane: np.ndarray,
                      windows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """`predict_block` of every block of plane from its `_tap_windows`: one
    gather of the windows, whose shifted views are the four taps, then a
    pass across the window rows and one down them, in uint16. That is
    gy*(gx*a + fx*b) + fy*(gx*c + fx*d), `predict_block`'s integer sum."""
    index, fx, fy = windows
    size, rows, cols = index.shape[0] - 1, *fx.shape
    window = plane.ravel().take(index)
    across = (QPEL - fx) * window[:, :-1]
    across += fx * window[:, 1:]
    acc = (QPEL - fy) * across[:-1]
    acc += fy * across[1:]
    acc += 8
    acc >>= 4
    tiles = acc.astype(np.uint8).transpose(2, 0, 3, 1)  # (rows, size, cols, size)
    h, w = plane.shape
    return tiles.reshape(rows * size, cols * size)[:h, :w]


def select_block_vector(mode: str, searched: tuple[MotionVector, float] | None,
                        flow: tuple[MotionVector, float] | None = None) -> BlockDecision:
    """Decide one block's vector in a searching mode.

    searched is the block's (vector, RD cost) from the mode's search:
    diamond for internal-diamond, hexagon for internal-hex and the hybrids.
    flow is a hybrid block's flow-derived (vector, RD cost), which the
    search scored beside its start pair. A hybrid takes the flow vector
    only when it is strictly cheaper, so ties keep the searched one; the
    other modes take the searched vector. A mode outside SEARCH_MODES raises
    ValueError: it knows its whole vector field before any decision.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"motion mode {mode!r} does not search")
    if searched is None:
        raise ValueError(f"motion mode {mode} requires a searched vector")
    if mode not in HYBRID_MODES:
        return BlockDecision(searched[0])
    if flow is None:
        raise ValueError(f"motion mode {mode} requires a flow-derived vector")
    (internal_mv, internal_cost), (flow_mv, flow_cost) = searched, flow
    mv = flow_mv if flow_cost < internal_cost else internal_mv
    return BlockDecision(mv, internal_mv, internal_cost, flow_cost)


def _settle_passes(cols: int, rows: int) -> int:
    """The most passes a field needs to settle under its own median
    predictors, at least 2: the number of waves c + 2r = k (a lone column
    has no odd ones), whose predictors read only earlier waves."""
    return max(2, cols + 2 * rows - 2 if cols > 1 else rows)


# The most blocks one search call takes, so that no search array grows with
# the frame; a QCIF or CIF frame of 16 px blocks is one call.
_SEARCH_BLOCKS = 512


def _block_tiles(plane: np.ndarray, bs: int, cols: int, rows: int) -> np.ndarray:
    """The (rows, cols, bs, bs) blocks of a plane; partial edge blocks
    replicate the border, as `tests/oracles.clip_block` reads them."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, rows * bs - h), (0, cols * bs - w)), mode="edge")
    return padded.reshape(rows, bs, cols, bs).swapaxes(1, 2)


def _search_vectors(cur: Frame, ref: Frame, flow_field: BlockMotionField | None,
                    config: CodecConfig, cols: int, rows: int, guess: np.ndarray) -> np.ndarray:
    """The (rows, cols, 2) int32 vectors of a searching mode, found in passes
    over the whole frame; guess holds each block's (rows, cols, 2) predictor
    for the first pass.

    Every pass decides the hybrid blocks with `select_block_vector`'s strict
    `<`, and `select_block_vector` decides each of them once after the last
    pass; an internal mode returns its searched vectors. After pass p >= 2
    every wave c + 2r below p is final, so the passes end within
    `_settle_passes`. A search call takes at most _SEARCH_BLOCKS blocks.
    """
    mode, bs, n = config.motion_mode, config.block_size, rows * cols
    luma = ReferencePlane(ref.y)
    search = diamond_search if mode == "internal-diamond" else hex_search
    tiles = _block_tiles(cur.y, bs, cols, rows).reshape(n, bs, bs)
    origins = np.stack(np.meshgrid(np.arange(cols), np.arange(rows)), -1).reshape(n, 2) * bs
    flow = None if flow_field is None else flow_field.vectors.reshape(n, 2).astype(np.int64)
    used = np.array(guess, np.int64).reshape(n, 2)  # each block's predictor when last searched
    vectors, costs, flow_costs = np.zeros((n, 2), np.int64), np.zeros(n), np.zeros(n)
    todo = np.arange(n)
    passes = _settle_passes(cols, rows)
    for _ in range(passes):
        for lo in range(0, len(todo), _SEARCH_BLOCKS):
            batch = todo[lo:lo + _SEARCH_BLOCKS]
            vectors[batch], costs[batch], scored = search(
                tiles[batch], luma, origins[batch], config, used[batch],
                None if flow is None else flow[batch])
            if scored is not None:
                flow_costs[batch] = scored
        field = vectors if flow is None else np.where((flow_costs < costs)[:, None], flow, vectors)
        predictors = median_predictors(field.reshape(rows, cols, 2)).reshape(n, 2)
        todo = np.flatnonzero((predictors != used).any(axis=1))
        if not todo.size:
            break
        used[todo] = predictors[todo]
    else:
        raise AssertionError(f"block search of a {cols}x{rows} grid did not settle "
                             f"in {passes} passes")
    if flow is None:
        return vectors.astype(np.int32).reshape(rows, cols, 2)
    searched = zip(map(MotionVector._make, vectors.tolist()), costs.tolist())
    flows = zip(map(MotionVector._make, flow.tolist()), flow_costs.tolist())
    return np.array([select_block_vector(mode, pair, flow_pair).mv
                     for pair, flow_pair in zip(searched, flows)], np.int32).reshape(rows, cols, 2)


def _flow_method(mode: str) -> str:
    return "mean" if mode.endswith("mean") else "vector-median"


# ---------------------------------------------------------------------------
# Sequence encode/decode


def _prediction(ref: Frame | None, vectors: np.ndarray | None, bs: int,
                w: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, U and V prediction planes (uint8) of one frame.

    An intra frame (ref None) predicts zeros; a P frame predicts the
    motion-compensated reference frame under one vector per bs x bs block.
    """
    if ref is None:
        return (np.zeros((h, w), np.uint8), np.zeros((h // 2, w // 2), np.uint8),
                np.zeros((h // 2, w // 2), np.uint8))
    return motion_compensate(ref, BlockMotionField(bs, vectors))


def encode_sequence(frames, config: CodecConfig, provider=None, sequence: str = "seq",
                    fps: tuple[int, int] = (25, 1)) -> EncodeResult:
    """Encode frames under config; returns stats, reconstructions, bitstream.

    Motion selection, compensation, and residual coding all run against the
    previously *decoded* frame, so the decoder tracks the encoder exactly.
    Flow and hybrid modes pull their dense field from the provider per frame.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("cannot encode an empty sequence")
    w0, h0 = frames[0].width, frames[0].height
    for f in frames:
        if (f.width, f.height) != (w0, h0):
            raise ValueError("frame dimensions change mid-sequence")
    mode = config.motion_mode
    if mode in FLOW_MODES and provider is None:
        raise ValueError(f"motion mode {mode} requires a flow provider")
    if fps[1] == 0:
        raise ValueError("frame rate denominator must be nonzero")

    bs = config.block_size
    cols, rows = block_grid(w0, h0, bs)
    sizes = _transform_sizes(bs)

    try:
        header = _HEADER.pack(MAGIC, w0, h0, config.q, bs, _MODE_IDS[mode],
                              config.gop_size, len(frames), fps[0], fps[1])
    except struct.error as exc:
        raise ValueError(f"sequence does not fit the stream header: {exc}") from None
    stats: list[FrameStats] = []
    recon: list[Frame] = []
    payloads: list[bytes] = []
    predictors = np.zeros((rows, cols, 2), np.int64)  # the guess of the next search

    for n, cur in enumerate(frames):
        ref = None if n % config.gop_size == 0 else recon[-1]
        vectors = None
        vector_codes = (0, 0)
        if ref is not None:
            flow_field = None
            if mode in FLOW_MODES:
                dense = provider.get_flow(sequence, n, cur, ref)
                flow_field = downsample_flow(dense, bs, _flow_method(mode))
            if mode in SEARCH_MODES:
                if flow_field is not None and n % config.gop_size == 1:  # a GOP's first P frame
                    predictors = median_predictors(flow_field.vectors)
                vectors = _search_vectors(cur, ref, flow_field, config, cols, rows, predictors)
            elif flow_field is not None:
                vectors = flow_field.vectors
            else:
                vectors = np.zeros((rows, cols, 2), np.int32)
            # The predictor reads only vectors chosen earlier, so the
            # differences can all be coded once every vector is known.
            predictors = median_predictors(vectors)
            vector_codes = ue_pack(se_to_ue_array((vectors - predictors).ravel()))

        pred = _prediction(ref, vectors, bs, w0, h0)
        planes, chunks = zip(*(_encode_plane(plane, p, t, config.q)
                               for plane, p, t in zip((cur.y, cur.u, cur.v), pred, sizes)))
        rec = Frame(*planes, n)
        level_codes = sum(chunks, [])
        payload, length = 0 if ref is None else 1, 8  # the type byte
        for bits, count in (vector_codes, *level_codes):
            payload = (payload << count) | bits
            length += count
        pad = -length % 8
        payloads.append((payload << pad).to_bytes((length + pad) // 8, "big"))
        bits_motion = vector_codes[1]
        bits_residual = length - 8 - bits_motion
        bits_header = 8 + pad

        recon.append(rec)
        psnr_y, psnr_u, psnr_v, psnr_c = metrics.frame_psnr(cur, rec)
        stats.append(FrameStats(n, bits_motion, bits_residual, bits_header,
                                bits_motion + bits_residual + bits_header,
                                psnr_y, psnr_u, psnr_v, psnr_c))

    return EncodeResult(stats, recon, header + b"".join(payloads))


def read_bitstream_info(data: bytes) -> BitstreamInfo:
    if len(data) < HEADER_SIZE:
        raise BitstreamError(f"stream too short for header ({len(data)} bytes)")
    magic, w, h, q, bs, mode_id, gop, count, fps_num, fps_den = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if mode_id >= len(MOTION_MODES):
        raise BitstreamError(f"unknown motion mode id {mode_id}")
    if (bs not in LUMA_BLOCK_SIZES or q < 1 or gop < 1 or fps_den == 0
            or w == 0 or h == 0 or w % 2 or h % 2):
        raise BitstreamError("corrupt stream header")
    return BitstreamInfo(w, h, q, bs, MOTION_MODES[mode_id], gop, count, fps_num, fps_den)


def _check_payload_size(info: BitstreamInfo, size: int) -> None:
    """Reject a header that claims more than size payload bytes can hold:
    every frame needs its type byte, one EOB bit per transform block and, in
    a P frame, one bit per (zero) vector component."""
    w, h, bs = info.width, info.height, info.block_size
    cols, rows = block_grid(w, h, bs)
    transforms = sum(-(-ph // t) * -(-pw // t)
                     for (ph, pw), t in zip(((h, w), (h // 2, w // 2), (h // 2, w // 2)),
                                            _transform_sizes(bs)))
    intra = -(-info.frame_count // info.gop_size)
    least = (intra * -(-(8 + transforms) // 8)
             + (info.frame_count - intra) * -(-(8 + transforms + 2 * rows * cols) // 8))
    if least > size:
        raise BitstreamError(f"header claims {info.frame_count} frames of {w}x{h}, which need "
                             f"at least {least} payload bytes; the stream has {size}")


def decode_sequence(data: bytes) -> list[Frame]:
    """Decode a bitstream back into frames, bit-identical to the encoder's
    reconstructions."""
    info = read_bitstream_info(data)
    _check_payload_size(info, len(data) - HEADER_SIZE)
    w0, h0, bs, q = info.width, info.height, info.block_size, info.q
    cols, rows = block_grid(w0, h0, bs)
    sizes = _transform_sizes(bs)
    grids = [(-(-ph // t), -(-pw // t), t) for (ph, pw), t in
             zip(((h0, w0), (h0 // 2, w0 // 2), (h0 // 2, w0 // 2)), sizes)]
    layout = _layout(tuple((nby * nbx, t) for nby, nbx, t in grids))
    parser = CodeParser(data)
    p = HEADER_SIZE * 8
    bounds = np.zeros(0, np.int64)  # the last range parsed, which each frame continues
    frames: list[Frame] = []
    for n in range(info.frame_count):
        if p + 8 > parser.end:
            raise BitstreamError(f"bitstream overrun reading 8 bits at bit {p}")
        ftype = data[p >> 3]
        p += 8
        expected = 0 if n % info.gop_size == 0 else 1
        if ftype != expected:
            raise BitstreamError(f"frame {n}: unexpected frame type {ftype} at bit {p}")
        ref = frames[-1] if ftype == 1 else None
        vectors, levels, p, bounds = _read_levels(parser, p, bounds, layout,
                                                  None if ref is None else (rows, cols), n)
        frames.append(Frame(*(_reconstruct_plane(pred, lv.reshape(-1, t, t), nby, nbx, q, *pred.shape)
                              for pred, lv, (nby, nbx, t) in
                              zip(_prediction(ref, vectors, bs, w0, h0), levels, grids)), n))
        p = -(-p // 8) * 8
    if p != parser.end:
        raise BitstreamError(f"{len(data) - p // 8} trailing bytes after "
                             f"{info.frame_count} frames")
    return frames
