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
`motion_compensate` is `predict_block` over whole planes of the reference
`Frame`: it broadcasts each block's vector over its pixels and gathers the
four bilinear taps of every pixel at once.

The `zero`, `flow-mean` and `flow-median` modes know the whole vector field
before any decision: zeros, or the provider's dense flow reduced by
`downsample_flow`. Only the internal and hybrid modes search, and only the
encoder: it reads the reference luma through one `ReferencePlane` per P
frame, which interpolates all 16 quarter-pel phases once. It visits the
blocks wave by wave (`blockmatch.wavefronts`): a block's median predictor
reads only blocks of earlier waves, so one `diamond_search` or `hex_search`
call searches every block of a wave together. In the hybrid modes the same
call scores every block's flow-derived vector in its first batched step and
returns those costs beside the searched ones. `select_block_vector` then
decides each block from the (vector, cost) pairs it is given, and scores
nothing itself (`_search_vectors`).

Every mode codes its vector differences once the field is known, against
the median predictors of the whole grid at once (`median_predictors`). This
is the same stream as coding block by block, because a block's predictor
reads only vectors that come before it in raster order. Each plane's
run-level codes come from `np.flatnonzero` over its zig-zagged levels
(`_level_codes`), `_CHUNK_BLOCKS` blocks at a time, so that no per-code
array grows with the frame. `bitstream.ue_pack` packs the vector codes and
each chunk's run-level codes into a Python int and its bit length; the
payload appends them after the type byte with `acc << length | bits` and
pads with zeros to the next byte. The frame's motion and residual bit
counts are the lengths of its packed codes.

The decoder reads the vector codes one at a time with a `BitReader`, block
by block under the median predictor (`_read_vectors`); they are about 1% of
a P frame's bits. The frame's three residual planes follow as one run of
codes, which `_read_levels` takes a range of bits at a time: the bounds of
every code from `bitstream.CodeParser.codes` and their values from
`CodeParser.values`, with no Python step per code. After any 1-bit code a
level follows, and levels and runs alternate up to the next 1-bit code, so
a code is a level where an even number of codes separates it from the
previous 1-bit code, and a 1-bit level is an EOB. Without the EOBs, the
codes are the blocks' (level, run) pairs in order, and every level is
scattered into its block at once. The first range is a quarter longer than
the residual of the frame before (the mean payload, for the first frame),
and another follows only while EOBs are missing; no range is longer than
`_MAX_RANGE_BITS`, so no array grows with the frame. A malformed frame
raises the `BitstreamError` of its first bad code or symbol in stream
order, as reading one code at a time would. Before any of that, a header
that claims more frames or blocks than the payload can hold is rejected.
"""
from __future__ import annotations

import struct
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np
from scipy.fft import dctn, idctn

from . import metrics
from .bitstream import (
    BitReader,
    BitstreamError,
    CodeParser,
    se_to_ue_array,
    ue_pack,
    ue_to_se_array,
)
from .blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictor,
    median_predictors,
    sad,  # noqa: F401  (kept as a name bench/tracer.py wraps)
    wavefronts,
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
# symbol. Blocks are coded _CHUNK_BLOCKS at a time and parsed by ranges of
# bits, _CHUNK_CODES codes at a time, which bounds every per-code array.

_CHUNK_BLOCKS = 128
_INT32 = np.iinfo(np.int32)
_MIN_RANGE_BITS = 1 << 12
_MAX_RANGE_BITS = 1 << 18  # the parser's arrays grow with the range
_CHUNK_CODES = 1 << 14


def _level_codes(scanned: np.ndarray) -> np.ndarray:
    """ue values of the run-level codes of blocks of scanned levels, in
    stream order. The k-th nonzero level, in block b, has its level code at
    2k + b and its run code at 2k + b + 1; the zeros left are the EOBs."""
    nz = np.flatnonzero(scanned)
    block = nz // scanned.shape[1]  # np.divmod is several times slower
    pos = nz - block * scanned.shape[1]
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


def _write_levels(scanned: np.ndarray) -> list[tuple[int, int]]:
    """The run-level codes of blocks of scanned levels, as one `ue_pack`
    (bits, length) per chunk."""
    return [ue_pack(_level_codes(scanned[first:first + _CHUNK_BLOCKS]))
            for first in range(0, len(scanned), _CHUNK_BLOCKS)]


def _read_levels(parser: CodeParser, p: int, planes: list[tuple[int, int]],
                 span: int) -> tuple[list[np.ndarray], int]:
    """Read the run-level codes of consecutive planes of blocks from bit p,
    planes giving each plane's (block count, transform size t). Returns each
    plane's (blocks, t*t) levels in raster order and the bit after the
    codes. span, the expected length of the codes in bits, sizes the first
    range of bits parsed; later ranges follow while blocks are missing.

    Raises the error of the earliest malformed code or pair, in stream
    order, as reading them one by one would."""
    counts = [n for n, _ in planes]
    areas = [t * t for _, t in planes]
    size = np.repeat(areas, counts)  # coefficients per block
    first = np.cumsum(size) - size  # of the block's coefficients in levels
    scan = np.concatenate([zigzag_order(t) for _, t in planes])
    scan_of = np.repeat(np.cumsum(areas) - areas, counts)  # the block's scan in scan
    levels = np.zeros(int(size.sum()), np.int32)
    need, done = len(size), 0
    at = values = np.zeros(0, np.int64)  # starts and values of the open block's codes
    start = p
    while True:
        stop = p + min(max(span * 5 // 4, _MIN_RANGE_BITS), _MAX_RANGE_BITS)
        bounds = parser.codes(p, stop)
        for lo in range(0, len(bounds) - 1, _CHUNK_CODES):
            piece = bounds[lo:lo + _CHUNK_CODES + 1]
            at = np.concatenate([at, piece[:-1]])
            values = np.concatenate([values, parser.values(piece).view(np.int64)])
            # After a 1-bit code a level follows, and levels and runs
            # alternate up to the next 1-bit code; a 1-bit level is an EOB.
            ones = np.flatnonzero(values == 0)
            eobs = ones[np.diff(ones, prepend=-1) & 1 == 1]
            finished = len(eobs) >= need - done
            if finished:
                eobs = eobs[:need - done]
            closed = len(eobs)
            limit = int(eobs[-1]) if finished else len(values)
            paired = np.ones(limit, bool)
            paired[eobs[eobs < limit]] = False
            codes = values[:limit][paired]  # level, run, level, run, ...
            pairs = len(codes) // 2
            per_block = np.diff(eobs, prepend=-1) - 1 >> 1
            per_block = np.append(per_block, pairs - per_block.sum())  # and the open block
            block = np.repeat(np.arange(done, done + closed + 1), per_block)
            level = ue_to_se_array(codes[:2 * pairs:2].view(np.uint64))
            step = codes[1:2 * pairs:2] + 1  # run + 1, below 2**33
            # A level sits at the sum of (run + 1) over its block's pairs so
            # far, minus one.
            end = np.cumsum(step)
            pos = end - 1 - np.repeat(np.append(0, end)[np.cumsum(per_block) - per_block], per_block)
            overflow = pos >= size[block]
            bad = np.flatnonzero(overflow | (level < _INT32.min) | (level > _INT32.max))
            if bad.size:
                k = bad[0]
                run = np.flatnonzero(paired)[2 * k + 1]
                after = at[run + 1] if run + 1 < len(at) else piece[-1]
                what = "run overflows block" if overflow[k] else "level out of range"
                raise BitstreamError(f"coefficient {what} at bit {after}")
            kept = pairs - per_block[-1]  # the pairs of closed blocks
            levels[first[block[:kept]] + scan[scan_of[block[:kept]] + pos[:kept]]] = level[:kept]
            done += closed
            if finished:
                cuts = np.cumsum([n * a for n, a in zip(counts, areas)])[:-1]
                return ([part.reshape(n, a) for part, n, a in zip(np.split(levels, cuts), counts, areas)],
                        int(at[limit]) + 1)
            cut = int(eobs[-1]) + 1 if closed else 0
            at, values = at[cut:], values[cut:]
        if bounds[-1] < stop:
            parser.refuse(int(bounds[-1]))
        p = int(bounds[-1])
        # The next range: the bits per block so far, for the blocks missing.
        span = (p - start) * (need - done) // max(done, 1)


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


def _encode_plane(cur: np.ndarray, pred: np.ndarray, t: int,
                  q: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Code one plane's residual; returns its reconstruction and its codes."""
    residual = cur.astype(np.float64) - pred
    blocks, nby, nbx = _to_blocks(residual, t)
    levels = quantize(dctn(blocks, axes=(1, 2), norm="ortho"), q)
    bits = _write_levels(levels.reshape(len(levels), t * t)[:, list(zigzag_order(t))])
    h, w = cur.shape
    return _reconstruct_plane(pred, levels, nby, nbx, q, h, w), bits


def _transform_sizes(block_size: int) -> tuple[int, int, int]:
    """Y, U and V transform sizes. Luma tiles at min(8, block) so a 16 px
    block carries four 8x8 transforms; chroma halves with the plane."""
    chroma = max(2, block_size // 2)
    return min(8, block_size), chroma, chroma


# ---------------------------------------------------------------------------
# Motion compensation and vector selection


def motion_compensate(ref: Frame, motion: BlockMotionField) -> tuple[np.ndarray, ...]:
    """Predict a frame's Y, U and V planes (uint8) from the reference frame:
    `predict_block` of every block under its vector, at once. Chroma uses the
    halved vectors on the half-resolution grid. Raises ValueError when the
    motion grid does not cover the frame."""
    motion.check_covers(ref.width, ref.height)
    bs = motion.block_size
    chroma = chroma_vectors(motion.vectors)
    return (_compensate_plane(ref.y, np.asarray(motion.vectors, np.int64), bs),
            _compensate_plane(ref.u, chroma, bs // 2),
            _compensate_plane(ref.v, chroma, bs // 2))


def _compensate_plane(plane: np.ndarray, vectors: np.ndarray, size: int) -> np.ndarray:
    """`predict_block` of every size x size block of plane under its int64
    vector, as (rows, size, cols, size) tiles: pixel (a, b) of block (r, c)
    reads its taps at x = c*size + b + ix and y = r*size + a + iy, clamped."""
    h, w = plane.shape
    rows, cols = vectors.shape[:2]
    i, f = np.divmod(vectors[:, None, :, None], QPEL)
    x = i[..., 0] + np.arange(cols * size).reshape(cols, size)
    y = i[..., 1] + np.arange(rows * size).reshape(rows, size, 1, 1)
    x0, x1 = np.clip(x, 0, w - 1), np.clip(x + 1, 0, w - 1)
    y0, y1 = np.clip(y, 0, h - 1) * w, np.clip(y + 1, 0, h - 1) * w
    # The weighted sum is at most 16 * 255 + 8, so uint16 holds it.
    fx, fy = f[..., 0].astype(np.uint16), f[..., 1].astype(np.uint16)
    gx, gy = QPEL - fx, QPEL - fy
    flat = plane.ravel()
    acc = (gy * (gx * flat.take(y0 + x0) + fx * flat.take(y0 + x1))
           + fy * (gx * flat.take(y1 + x0) + fx * flat.take(y1 + x1)))
    return ((acc + 8) >> 4).astype(np.uint8).reshape(rows * size, cols * size)[:h, :w]


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


def _block_tiles(plane: np.ndarray, bs: int, cols: int, rows: int) -> np.ndarray:
    """The (rows, cols, bs, bs) blocks of a plane; partial edge blocks
    replicate the border, as `tests/oracles.clip_block` reads them."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, rows * bs - h), (0, cols * bs - w)), mode="edge")
    return padded.reshape(rows, bs, cols, bs).swapaxes(1, 2)


def _search_vectors(cur: Frame, ref: Frame, flow_field: BlockMotionField | None,
                    config: CodecConfig, cols: int, rows: int) -> np.ndarray:
    """The (rows, cols, 2) int32 vectors of a searching mode. The blocks go
    wave by wave: one search call per wave scores the hybrids' flow vectors
    with its start pair, then `select_block_vector` decides each block from
    the costs the search returned."""
    mode, bs = config.motion_mode, config.block_size
    luma = ReferencePlane(ref.y)
    search = diamond_search if mode == "internal-diamond" else hex_search
    tiles = _block_tiles(cur.y, bs, cols, rows)
    vectors = np.zeros((rows, cols, 2), np.int32)
    for wave in wavefronts(cols, rows):
        predictors = [median_predictor(vectors, c, r) for r, c in wave]
        at = np.array(wave)
        flow = None if flow_field is None else flow_field.vectors[at[:, 0], at[:, 1]]
        found, flow_costs = search(tiles[at[:, 0], at[:, 1]], luma, at[:, ::-1] * bs, config,
                                   np.array(predictors, np.int64), flow)
        flows = (repeat(None) if flow is None else
                 zip(map(MotionVector._make, flow.tolist()), flow_costs))
        for (r, c), searched, flow_pair in zip(wave, found, flows):
            vectors[r, c] = select_block_vector(mode, searched, flow_pair).mv
    return vectors


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
                vectors = _search_vectors(cur, ref, flow_field, config, cols, rows)
            elif flow_field is not None:
                vectors = flow_field.vectors
            else:
                vectors = np.zeros((rows, cols, 2), np.int32)
            # The predictor reads only vectors chosen earlier, so the
            # differences can all be coded once every vector is known.
            vector_codes = ue_pack(se_to_ue_array((vectors - median_predictors(vectors)).ravel()))

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
    grids = [(-(-ph // t), -(-pw // t), t) for (ph, pw), t in
             zip(((h0, w0), (h0 // 2, w0 // 2), (h0 // 2, w0 // 2)), sizes)]
    parser = CodeParser(data)
    p = HEADER_SIZE * 8
    span = 8 * (len(data) - HEADER_SIZE) // max(info.frame_count, 1)  # residual bits expected
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
            ref = frames[-1]
            vectors, p = _read_vectors(data, p, rows, cols, n)
        levels, end = _read_levels(parser, p, [(nby * nbx, t) for nby, nbx, t in grids], span)
        span, p = end - p, end
        frames.append(Frame(*(_reconstruct_plane(pred, lv.reshape(-1, t, t), nby, nbx, q, *pred.shape)
                              for pred, lv, (nby, nbx, t) in
                              zip(_prediction(ref, vectors, bs, w0, h0), levels, grids)), n))
        p = -(-p // 8) * 8
    if p != parser.end:
        raise BitstreamError(f"{len(data) - p // 8} trailing bytes after "
                             f"{info.frame_count} frames")
    return frames
