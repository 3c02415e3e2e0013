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
  se(dy - pdy), where (pdx, pdy) is the median predictor of the vectors
  already decoded (`median_predictor`);
- the Y, U and V residual sections: for each transform block in raster
  order, the run-level code of its zig-zag scanned levels. Luma transforms
  are min(8, bs) wide, chroma ones max(2, bs/2) (`_transform_sizes`);
- zero padding to the next byte.

Encoder and decoder both build every frame's prediction with `_prediction`
(zero planes for intra frames, `motion_compensate` of the previous decoded
frame otherwise) and add the dequantised residual to it the same way. A P
frame's reference is one `ReferencePlane` per plane (`reference_planes`),
built once per frame: it interpolates each quarter-pel phase once, so every
search candidate and every compensated block is a slice of one phase. The
encoder's searches, the hybrid flow candidate and `motion_compensate` share
its luma plane.

The encoder writes a frame's exp-Golomb codes as arrays (see `bitstream`).
It records each block's vector difference during the search and writes them
all once the block loop is done. This is the same stream, because the median
predictor reads only vectors chosen earlier. Each plane's run-level codes
come from `np.flatnonzero` over its zig-zagged levels (`_level_codes`),
`_CHUNK_BLOCKS` blocks at a time, so that no per-code array grows with the
frame. The frame's motion and residual bit counts are the summed code
lengths.

The decoder reads the vector codes one at a time with a `BitReader`, block
by block under the median predictor (`_read_vectors`); they are about 1% of
a P frame's bits. It steps over the run-level codes a (level, run) pair at a
time through the pair table of `bitstream.CodeParser` (`_walk_blocks`; a
1-bit code where a level belongs is the EOB), `_CHUNK_BLOCKS` blocks at a
time, then reads every value at once and scatters the levels into their
blocks. A malformed frame raises the `BitstreamError` of its first bad code
or symbol in stream order, as reading one code at a time would. Before any
of that, a header that claims more frames or blocks than the payload can
hold is rejected.
"""
from __future__ import annotations

import struct
from array import array
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from . import metrics
from .bitstream import (
    BitReader,
    BitstreamError,
    BitWriter,
    CodeParser,
    se_to_ue_array,
    ue_to_se_array,
)
from .blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictor,
    rd_cost,
    sad,
)
from .flowadapt import downsample_flow
from .model import (
    LUMA_BLOCK_SIZES,
    ZERO_MV,
    BlockMotionField,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
    chroma_vector,
    clip_block,
    predict_block,  # noqa: F401  (kept as a name bench/tracer.py wraps)
    reference_planes,
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


@dataclass(frozen=True)
class BlockDecision:
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
    return (np.sign(coeffs) * np.floor(np.abs(coeffs) / q + 0.5)).astype(np.int32)


def dequantize(levels: np.ndarray, q: int) -> np.ndarray:
    return np.asarray(levels, np.float64) * float(q)


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


# ---------------------------------------------------------------------------
# Run-level residual code
#
# Per block, each nonzero coefficient in scan order is coded as
# (signed exp-Golomb level, unsigned exp-Golomb zero run); the level is
# written first so the 1-bit zero level can double as the end-of-block
# symbol. Blocks are coded and parsed _CHUNK_BLOCKS at a time, which bounds
# the size of every per-code array.

_CHUNK_BLOCKS = 128
_INT32 = np.iinfo(np.int32)


def _level_codes(scanned: np.ndarray) -> np.ndarray:
    """ue values of the run-level codes of blocks of scanned levels, in
    stream order. The k-th nonzero level, in block b, has its level code at
    2k + b and its run code at 2k + b + 1; the zeros left are the EOBs."""
    nz = np.flatnonzero(scanned)
    block, pos = np.divmod(nz, scanned.shape[1])
    prev = np.empty_like(pos)  # position of the previous nonzero level in the block
    prev[1:] = pos[:-1]
    first = np.ones(len(nz), bool)
    first[1:] = block[1:] != block[:-1]
    prev[first] = -1
    codes = np.zeros(2 * len(nz) + len(scanned), np.uint64)
    at = 2 * np.arange(len(nz)) + block
    codes[at] = se_to_ue_array(scanned.ravel()[nz])
    codes[at + 1] = pos - prev - 1
    return codes


def _write_levels(writer: BitWriter, scanned: np.ndarray) -> int:
    """Write the run-level codes of blocks of scanned levels; returns the bits."""
    return sum(writer.write_ue_array(_level_codes(scanned[first:first + _CHUNK_BLOCKS]))
               for first in range(0, len(scanned), _CHUNK_BLOCKS))


def _walk_blocks(parser: CodeParser, p: int, nblocks: int, size: int, starts: array,
                 eobs: array):
    """Step over the run-level pairs of nblocks blocks of size coefficients
    from bit p. Appends the start of every pair and EOB (a 1-bit code where
    a level belongs) to starts, and the index in starts of every EOB to
    eobs. Returns the bit after the last whole pair and the error that
    stopped the walk, if any. It also stops, without an error, in a block of
    more pairs than coefficients, one of whose runs then overflows it."""
    append, close = starts.append, eobs.append
    try:
        base, table = parser.pairs(p)
        for _ in range(nblocks):
            for _ in range(size + 1):
                length = table[p - base]
                if not length:
                    base, table = parser.pairs(p)
                    length = table[0]
                append(p)
                p += length
                if length == 1:
                    break
            else:
                return p, None
            close(len(starts) - 1)
    except BitstreamError as exc:
        return p, exc
    return p, None


def _read_levels(parser: CodeParser, p: int, nblocks: int, t: int) -> tuple[np.ndarray, int]:
    """Read the run-level codes of nblocks t x t blocks from bit p; returns
    the (nblocks, t*t) levels in raster order and the bit after the codes.

    Raises the error of the earliest malformed code or pair, in stream
    order, as reading them one by one would."""
    size = t * t
    zz = np.asarray(zigzag_order(t))
    levels = np.zeros((nblocks, size), np.int32)
    for first in range(0, nblocks, _CHUNK_BLOCKS):
        starts, eobs = array("q"), array("q")
        p, error = _walk_blocks(parser, p, min(_CHUNK_BLOCKS, nblocks - first), size,
                                starts, eobs)
        bounds = np.append(np.asarray(starts, np.int64), p)
        closes = np.asarray(eobs, np.int64)
        eob = np.zeros(len(starts), bool)
        eob[closes] = True
        paired = np.flatnonzero(~eob)
        pair_block = np.searchsorted(closes, paired)
        at_level, pair_end = bounds[paired], bounds[paired + 1]
        level_zeros = parser.prefixes(at_level)
        at_run = at_level + 2 * level_zeros + 1
        level = ue_to_se_array(parser.values(at_level, level_zeros))
        run = parser.values(at_run, (pair_end - at_run - 1) >> 1)
        # A level sits at the sum of (run + 1) over its block's pairs so far,
        # minus one. Capping runs at the block size keeps the sums exact
        # where it matters: a run that large overflows the block anyway.
        step = np.minimum(run, size).astype(np.int64) + 1
        end = np.cumsum(step)
        opens = np.ones(len(paired), bool)
        opens[1:] = pair_block[1:] != pair_block[:-1]
        pos = end - 1 - np.maximum.accumulate(np.where(opens, end - step, 0))
        overflow = pos >= size
        bad = np.flatnonzero(overflow | (level < _INT32.min) | (level > _INT32.max))
        if bad.size:
            k = bad[0]
            what = "run overflows block" if overflow[k] else "level out of range"
            raise BitstreamError(f"coefficient {what} at bit {pair_end[k]}")
        if error is not None:
            raise error
        levels[first + pair_block, zz[pos]] = level
    return levels, p


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
    res = idctn(dequantize(levels, q), axes=(1, 2), norm="ortho")
    res_full = _from_blocks(res, nby, nbx, h, w)
    return np.clip(np.floor(pred + res_full + 0.5), 0, 255).astype(np.uint8)


def _encode_plane(writer: BitWriter, cur: np.ndarray, pred: np.ndarray,
                  t: int, q: int) -> tuple[np.ndarray, int]:
    """Code one plane's residual; returns its reconstruction and its bits."""
    residual = cur.astype(np.float64) - pred
    blocks, nby, nbx = _to_blocks(residual, t)
    levels = quantize(dctn(blocks, axes=(1, 2), norm="ortho"), q)
    bits = _write_levels(writer, levels.reshape(len(levels), t * t)[:, list(zigzag_order(t))])
    h, w = cur.shape
    return _reconstruct_plane(pred, levels, nby, nbx, q, h, w), bits


def _decode_plane(parser: CodeParser, p: int, pred: np.ndarray, t: int,
                  q: int) -> tuple[np.ndarray, int]:
    """Decode one plane from bit p; returns it and the bit after its codes."""
    h, w = pred.shape
    nby, nbx = -(-h // t), -(-w // t)
    levels, p = _read_levels(parser, p, nby * nbx, t)
    return _reconstruct_plane(pred, levels.reshape(-1, t, t), nby, nbx, q, h, w), p


def _transform_sizes(block_size: int) -> tuple[int, int, int]:
    """Y, U and V transform sizes. Luma tiles at min(8, block) so a 16 px
    block carries four 8x8 transforms; chroma halves with the plane."""
    chroma = max(2, block_size // 2)
    return min(8, block_size), chroma, chroma


# ---------------------------------------------------------------------------
# Motion compensation and vector selection


def motion_compensate(ref: tuple[ReferencePlane, ...],
                      motion: BlockMotionField) -> tuple[np.ndarray, ...]:
    """Predict a frame's Y, U and V planes (uint8) under one vector per block.

    ref is the reference frame's `reference_planes`: Y, U, V in that order.
    Chroma uses the halved vector on the half-resolution grid. Prediction
    samples are bilinear, border-clamped, and rounded to integers.
    """
    bs = motion.block_size
    height, width = ref[0].plane.shape
    cols, rows = block_grid(width, height, bs)
    if (motion.rows, motion.cols) != (rows, cols):
        raise ValueError(
            f"motion grid {motion.cols}x{motion.rows} does not cover "
            f"{width}x{height} at block size {bs}"
        )
    planes = []
    for plane, size, halve in zip(ref, (bs, bs // 2, bs // 2), (False, True, True)):
        h, w = plane.plane.shape
        out = np.empty((h, w), np.uint8)
        for r in range(rows):
            for c in range(cols):
                mv = motion.vector(c, r)
                if halve:
                    mv = chroma_vector(mv)
                x0, y0 = c * size, r * size
                block = plane.block(x0, y0, size, mv)
                bh = min(size, h - y0)
                bw = min(size, w - x0)
                out[y0 : y0 + bh, x0 : x0 + bw] = block[:bh, :bw]
        planes.append(out)
    return tuple(planes)


def select_block_vector(mode: str, cur: Frame, ref: ReferencePlane, origin: tuple[int, int],
                        search: SearchConfig, predictor: MotionVector,
                        flow_mv: MotionVector | None = None) -> BlockDecision:
    """Pick the block vector for one mode; ref is the reference luma.

    Hybrid modes evaluate exactly two candidates under the RD cost: the
    internal hexagon search result and the flow-derived vector; ties keep
    the internal candidate.
    """
    if mode == "zero":
        return BlockDecision(ZERO_MV)
    if mode == "internal-diamond":
        return BlockDecision(diamond_search(cur.y, ref, origin, search, predictor)[0])
    if mode == "internal-hex":
        return BlockDecision(hex_search(cur.y, ref, origin, search, predictor)[0])
    if flow_mv is None:
        raise ValueError(f"motion mode {mode} requires a flow-derived vector")
    if mode in ("flow-mean", "flow-median"):
        return BlockDecision(flow_mv)
    if mode not in HYBRID_MODES:
        raise ValueError(f"unknown motion mode {mode!r}")

    internal_mv, internal_cost = hex_search(cur.y, ref, origin, search, predictor)
    cur_block = clip_block(cur.y, origin[0], origin[1], search.block_size)
    flow_cost = rd_cost(sad(cur_block, ref, origin, flow_mv), flow_mv, predictor,
                        search.lambda_y)
    mv = flow_mv if flow_cost < internal_cost else internal_mv
    return BlockDecision(mv, internal_mv, internal_cost, flow_cost)


def _flow_method(mode: str) -> str:
    return "mean" if mode.endswith("mean") else "vector-median"


# ---------------------------------------------------------------------------
# Sequence encode/decode


def _prediction(ref: tuple[ReferencePlane, ...] | None, vectors: np.ndarray | None, bs: int,
                w: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, U and V prediction planes (uint8) of one frame.

    An intra frame (ref None) predicts zeros; a P frame predicts the
    motion-compensated reference planes under one vector per bs x bs block.
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
    writer = BitWriter()
    writer.write_bytes(header)
    stats: list[FrameStats] = []
    recon: list[Frame] = []

    for n, cur in enumerate(frames):
        ref = None if n % config.gop_size == 0 else reference_planes(recon[-1])
        writer.write_bits(0 if ref is None else 1, 8)
        vectors = None
        bits_motion = 0
        if ref is not None:
            flow_field = None
            if mode in FLOW_MODES:
                dense = provider.get_flow(sequence, n, cur, recon[-1])
                flow_field = downsample_flow(dense, bs, _flow_method(mode))
            vectors = np.zeros((rows, cols, 2), np.int32)
            diffs = np.zeros((rows, cols, 2), np.int64)
            for r in range(rows):
                for c in range(cols):
                    predictor = median_predictor(vectors, c, r)
                    flow_mv = flow_field.vector(c, r) if flow_field is not None else None
                    mv = select_block_vector(mode, cur, ref[0], (c * bs, r * bs), config,
                                             predictor, flow_mv).mv
                    vectors[r, c] = mv
                    diffs[r, c] = (mv.dx - predictor.dx, mv.dy - predictor.dy)
            # The predictor reads only vectors chosen earlier, so the
            # differences can all be written once the search is done.
            bits_motion = writer.write_ue_array(se_to_ue_array(diffs.ravel()))

        pred = _prediction(ref, vectors, bs, w0, h0)
        planes, bits = zip(*(_encode_plane(writer, plane, p, t, config.q)
                             for plane, p, t in zip((cur.y, cur.u, cur.v), pred, sizes)))
        rec = Frame(*planes, n)
        bits_residual = sum(bits)
        bits_header = 8 + writer.align()

        recon.append(rec)
        psnr_y, psnr_u, psnr_v, psnr_c = metrics.frame_psnr(cur, rec)
        stats.append(FrameStats(n, bits_motion, bits_residual, bits_header,
                                bits_motion + bits_residual + bits_header,
                                psnr_y, psnr_u, psnr_v, psnr_c))

    return EncodeResult(stats, recon, writer.getvalue())


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


def _read_vectors(data: bytes, p: int, rows: int, cols: int,
                  n: int) -> tuple[np.ndarray, int]:
    """Read frame n's block vectors from bit p, one code at a time; returns
    them and the bit after their codes."""
    reader = BitReader(data, p)
    lo, hi = _INT32.min, _INT32.max
    field: list[list[tuple[int, int]]] = []
    for r in range(rows):
        row: list[tuple[int, int]] = []
        field.append(row)
        for c in range(cols):
            pdx, pdy = median_predictor(field, c, r)
            dx, dy = pdx + reader.read_se(), pdy + reader.read_se()
            if not (lo <= dx <= hi and lo <= dy <= hi):
                raise BitstreamError(f"frame {n}: motion vector out of range at "
                                     f"bit {reader.bit_pos}")
            row.append((dx, dy))
    return np.array(field, np.int32), reader.bit_pos


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
    parser = CodeParser(data)
    p = HEADER_SIZE * 8
    frames: list[Frame] = []
    for n in range(info.frame_count):
        if p + 8 > parser.end:
            raise BitstreamError(f"bitstream overrun reading 8 bits at bit {p}")
        ftype = data[p >> 3]
        p += 8
        expected = 0 if n % info.gop_size == 0 else 1
        if ftype != expected:
            raise BitstreamError(f"frame {n}: unexpected frame type {ftype} at bit {p}")
        ref = vectors = None
        if ftype == 1:
            ref = reference_planes(frames[-1])
            vectors, p = _read_vectors(data, p, rows, cols, n)
        planes = []
        for plane_pred, t in zip(_prediction(ref, vectors, bs, w0, h0), sizes):
            plane, p = _decode_plane(parser, p, plane_pred, t, q)
            planes.append(plane)
        frames.append(Frame(*planes, n))
        p = -(-p // 8) * 8
    if p != parser.end:
        raise BitstreamError(f"{len(data) - p // 8} trailing bytes after "
                             f"{info.frame_count} frames")
    return frames
