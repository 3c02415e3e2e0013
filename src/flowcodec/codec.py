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
frame otherwise) and add the dequantised residual to it the same way.
"""
from __future__ import annotations

import struct
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from . import metrics
from .bitstream import BitReader, BitstreamError, BitWriter
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
    block_grid,
    chroma_vector,
    clip_block,
    predict_block,
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
# symbol.


def _write_block_levels(writer: BitWriter, scanned: np.ndarray) -> None:
    prev = -1
    for pos in np.flatnonzero(scanned):
        writer.write_se(int(scanned[pos]))
        writer.write_ue(int(pos) - prev - 1)
        prev = int(pos)
    writer.write_se(0)


def _read_block_levels(reader: BitReader, count: int) -> np.ndarray:
    scanned = np.zeros(count, np.int32)
    pos = -1
    while True:
        level = reader.read_se()
        if level == 0:
            return scanned
        run = reader.read_ue()
        pos += run + 1
        if pos >= count:
            raise BitstreamError(f"coefficient run overflows block at bit {reader.bit_pos}")
        try:
            scanned[pos] = level
        except OverflowError:
            raise BitstreamError(f"coefficient level out of range at bit {reader.bit_pos}") from None


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
                  t: int, q: int) -> np.ndarray:
    residual = cur.astype(np.float64) - pred
    blocks, nby, nbx = _to_blocks(residual, t)
    levels = quantize(dctn(blocks, axes=(1, 2), norm="ortho"), q)
    zz = list(zigzag_order(t))
    for scanned in levels.reshape(len(levels), t * t)[:, zz]:
        _write_block_levels(writer, scanned)
    h, w = cur.shape
    return _reconstruct_plane(pred, levels, nby, nbx, q, h, w)


def _decode_plane(reader: BitReader, pred: np.ndarray, t: int, q: int) -> np.ndarray:
    h, w = pred.shape
    nby, nbx = -(-h // t), -(-w // t)
    zz = list(zigzag_order(t))
    levels = np.zeros((nby * nbx, t * t), np.int32)
    for i in range(nby * nbx):
        levels[i, zz] = _read_block_levels(reader, t * t)
    return _reconstruct_plane(pred, levels.reshape(-1, t, t), nby, nbx, q, h, w)


def _transform_sizes(block_size: int) -> tuple[int, int, int]:
    """Y, U and V transform sizes. Luma tiles at min(8, block) so a 16 px
    block carries four 8x8 transforms; chroma halves with the plane."""
    chroma = max(2, block_size // 2)
    return min(8, block_size), chroma, chroma


# ---------------------------------------------------------------------------
# Motion compensation and vector selection


def motion_compensate(ref: Frame, motion: BlockMotionField) -> Frame:
    """Predict a whole frame from ref under one vector per block.

    Chroma uses the halved vector on the half-resolution grid. Prediction
    samples are bilinear, border-clamped, and rounded to integers.
    """
    bs = motion.block_size
    cols, rows = block_grid(ref.width, ref.height, bs)
    if (motion.rows, motion.cols) != (rows, cols):
        raise ValueError(
            f"motion grid {motion.cols}x{motion.rows} does not cover "
            f"{ref.width}x{ref.height} at block size {bs}"
        )
    planes = []
    for plane, size, halve in ((ref.y, bs, False), (ref.u, bs // 2, True), (ref.v, bs // 2, True)):
        h, w = plane.shape
        out = np.empty((h, w), np.uint8)
        for r in range(rows):
            for c in range(cols):
                mv = motion.vector(c, r)
                if halve:
                    mv = chroma_vector(mv)
                x0, y0 = c * size, r * size
                block = predict_block(plane, x0, y0, size, mv)
                bh = min(size, h - y0)
                bw = min(size, w - x0)
                out[y0 : y0 + bh, x0 : x0 + bw] = block[:bh, :bw]
        planes.append(out)
    return Frame(planes[0], planes[1], planes[2], ref.index)


def select_block_vector(mode: str, cur: Frame, ref: Frame, origin: tuple[int, int],
                        search: SearchConfig, predictor: MotionVector,
                        flow_mv: MotionVector | None = None) -> BlockDecision:
    """Pick the block vector for one mode.

    Hybrid modes evaluate exactly two candidates under the RD cost: the
    internal hexagon search result and the flow-derived vector; ties keep
    the internal candidate.
    """
    if mode == "zero":
        return BlockDecision(ZERO_MV)
    if mode == "internal-diamond":
        return BlockDecision(diamond_search(cur.y, ref.y, origin, search, predictor)[0])
    if mode == "internal-hex":
        return BlockDecision(hex_search(cur.y, ref.y, origin, search, predictor)[0])
    if flow_mv is None:
        raise ValueError(f"motion mode {mode} requires a flow-derived vector")
    if mode in ("flow-mean", "flow-median"):
        return BlockDecision(flow_mv)
    if mode not in HYBRID_MODES:
        raise ValueError(f"unknown motion mode {mode!r}")

    internal_mv, internal_cost = hex_search(cur.y, ref.y, origin, search, predictor)
    cur_block = clip_block(cur.y, origin[0], origin[1], search.block_size)
    flow_cost = rd_cost(sad(cur_block, ref.y, origin, flow_mv), flow_mv, predictor,
                        search.lambda_y)
    mv = flow_mv if flow_cost < internal_cost else internal_mv
    return BlockDecision(mv, internal_mv, internal_cost, flow_cost)


def _flow_method(mode: str) -> str:
    return "mean" if mode.endswith("mean") else "vector-median"


# ---------------------------------------------------------------------------
# Sequence encode/decode


def _prediction(ref: Frame | None, vectors: np.ndarray | None, bs: int,
                w: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, U and V prediction planes (int32) of one frame.

    An intra frame (ref None) predicts zeros; a P frame predicts the
    motion-compensated ref under one vector per bs x bs block.
    """
    if ref is None:
        return (np.zeros((h, w), np.int32), np.zeros((h // 2, w // 2), np.int32),
                np.zeros((h // 2, w // 2), np.int32))
    predicted = motion_compensate(ref, BlockMotionField(bs, vectors))
    return tuple(p.astype(np.int32) for p in (predicted.y, predicted.u, predicted.v))


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
        ref = None if n % config.gop_size == 0 else recon[-1]
        writer.write_bits(0 if ref is None else 1, 8)
        vectors = None
        motion_start = writer.bit_length
        if ref is not None:
            flow_field = None
            if mode in FLOW_MODES:
                dense = provider.get_flow(sequence, n, cur, ref)
                flow_field = downsample_flow(dense, bs, _flow_method(mode))
            vectors = np.zeros((rows, cols, 2), np.int32)
            for r in range(rows):
                for c in range(cols):
                    predictor = median_predictor(vectors, c, r)
                    flow_mv = flow_field.vector(c, r) if flow_field is not None else None
                    mv = select_block_vector(mode, cur, ref, (c * bs, r * bs), config,
                                             predictor, flow_mv).mv
                    vectors[r, c] = mv
                    writer.write_se(mv.dx - predictor.dx)
                    writer.write_se(mv.dy - predictor.dy)
        bits_motion = writer.bit_length - motion_start

        pred = _prediction(ref, vectors, bs, w0, h0)
        residual_start = writer.bit_length
        rec = Frame(*(_encode_plane(writer, plane, p, t, config.q)
                      for plane, p, t in zip((cur.y, cur.u, cur.v), pred, sizes)), n)
        bits_residual = writer.bit_length - residual_start
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


def decode_sequence(data: bytes) -> list[Frame]:
    """Decode a bitstream back into frames, bit-identical to the encoder's
    reconstructions."""
    info = read_bitstream_info(data)
    w0, h0, bs, q = info.width, info.height, info.block_size, info.q
    cols, rows = block_grid(w0, h0, bs)
    sizes = _transform_sizes(bs)
    reader = BitReader(data, HEADER_SIZE * 8)
    frames: list[Frame] = []
    for n in range(info.frame_count):
        ftype = reader.read_bits(8)
        expected = 0 if n % info.gop_size == 0 else 1
        if ftype != expected:
            raise BitstreamError(f"frame {n}: unexpected frame type {ftype} at bit {reader.bit_pos}")
        ref = vectors = None
        if ftype == 1:
            ref = frames[-1]
            vectors = np.zeros((rows, cols, 2), np.int32)
            for r in range(rows):
                for c in range(cols):
                    predictor = median_predictor(vectors, c, r)
                    try:
                        vectors[r, c] = (predictor.dx + reader.read_se(),
                                         predictor.dy + reader.read_se())
                    except OverflowError:
                        raise BitstreamError(f"frame {n}: motion vector out of range at "
                                             f"bit {reader.bit_pos}") from None
        pred = _prediction(ref, vectors, bs, w0, h0)
        frames.append(Frame(*(_decode_plane(reader, p, t, q) for p, t in zip(pred, sizes)), n))
        reader.align()
    if reader.bit_pos != len(data) * 8:
        raise BitstreamError(f"{len(data) - reader.bit_pos // 8} trailing bytes after "
                             f"{info.frame_count} frames")
    return frames
