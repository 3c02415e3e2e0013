"""Reference implementations the tests hold the codec to.

The sequential coders read and write one exp-Golomb code at a time through
`BitWriter` and `BitReader`, the way the stream format describes it, and
share everything else with the codec: the header, the payload size check,
the prediction (`_prediction` of the previous decoded `Frame`) and the
reconstruction. `block_vector_median` is `flowadapt`'s Vector Median of
one block. `full_search` is the exhaustive block search that bounds
the pattern searches. `diamond_search` and `hex_search` search one block at
a time, each candidate once through an `_Evaluator`, and refine with the
one-block quarter-pel descent (`_refine_quarter_pel`); the batch searches of
`blockmatch` must match them vector for vector and cost for cost.
`flow_cost` scores a hybrid block's flow-derived vector alone, as the batch
search's start step must. `clip_block` reads a block of a plane with the
border replicated. `median_predictor` predicts one block's vector from the
blocks before it, as the stream format defines it. `wavefronts` orders a
grid's blocks in anti-diagonal waves whose median predictors read only
earlier waves: the order in which the tests search waves, and the bound on
the encoder's search passes and the decoder's prediction passes.
`quantize`, `reconstruct_plane` and `encode_plane` code and rebuild one
plane by the formulas: levels sign(c) * floor(|c| / q + 1/2), pixels
clip(floor(pred + res + 1/2), 0, 255), and each chunk of blocks' run-level
codes written one at a time.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from flowcodec import blockmatch
from flowcodec.bitstream import BitReader, BitstreamError, BitWriter
from flowcodec.blockmatch import (
    _DIAMOND_LARGE,
    _DIAMOND_SMALL,
    _HEX_LARGE,
    _HEX_SMALL,
    _QPEL_OFFSETS,
    _QPEL_STEPS,
    SearchConfig,
    rd_cost,
)
from flowcodec.codec import (
    HEADER_SIZE,
    _CHUNK_BLOCKS,
    _INT32,
    _check_payload_size,
    _prediction,
    _reconstruct_plane,
    _transform_sizes,
    read_bitstream_info,
    zigzag_order,
)
from flowcodec.flowadapt import _vector_medians
from flowcodec.model import (
    QPEL,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
    quantize_to_quarter_pel,
)

ZERO_MV = MotionVector(0, 0)


def clip_block(plane: np.ndarray, x0: int, y0: int, size: int) -> np.ndarray:
    """Copy a size x size window; reads outside the plane replicate the border."""
    h, w = plane.shape
    xs = np.minimum(np.maximum(np.arange(x0, x0 + size), 0), w - 1)
    ys = np.minimum(np.maximum(np.arange(y0, y0 + size), 0), h - 1)
    return plane[np.ix_(ys, xs)]


def median_predictor(vectors, col: int, row: int) -> MotionVector:
    """Component-wise median of the left, top, and top-right neighbours, the
    reference for `blockmatch.median_predictors`.

    vectors[row][col] is a block's (dx, dy): an (rows, cols, 2) array, or
    the rows decoded so far as lists of pairs. Must be queried in raster
    order; neighbours outside the grid count as zero vectors.
    """
    left = vectors[row][col - 1] if col > 0 else (0, 0)
    top = topright = (0, 0)
    if row > 0:
        above = vectors[row - 1]
        top = above[col]
        if col + 1 < len(above):
            topright = above[col + 1]
    return MotionVector(*(sorted(int(v[k]) for v in (left, top, topright))[1] for k in (0, 1)))


def wavefronts(cols: int, rows: int) -> list[list[tuple[int, int]]]:
    """The (row, col) blocks of a grid in waves c + 2r = k, k ascending,
    without the empty ones.

    A block's median predictor reads its left, top and top-right
    neighbours, which all lie on earlier waves, so the blocks of one wave
    can be searched together once the waves before it are done.
    """
    waves = ([(r, k - 2 * r) for r in range((k - cols + 2) // 2, k // 2 + 1) if 0 <= r < rows]
             for k in range(cols + 2 * rows - 2))
    return [wave for wave in waves if wave]  # a one-column grid has no odd waves


def _cost_key(cost: float, mv: MotionVector):
    # Deterministic tie-break: cheaper, then shorter, then smaller dy, dx.
    return (cost, abs(mv.dx) + abs(mv.dy), mv.dy, mv.dx)


class _Evaluator:
    """Caches the RD costs of one block's candidates; a miss scores the
    candidate alone with `blockmatch.sad`, looked up at call time."""

    def __init__(self, cur_block: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                 lambda_y: float, predictor: MotionVector):
        self.cur_block = cur_block
        self.ref = ref
        self.origin = origin
        self.lambda_y = lambda_y
        self.predictor = predictor
        self._cache: dict[MotionVector, float] = {}

    def cost(self, mv: MotionVector) -> float:
        cached = self._cache.get(mv)
        if cached is None:
            cached = rd_cost(blockmatch.sad(self.cur_block, self.ref, self.origin, mv),
                             mv, self.predictor, self.lambda_y)
            self._cache[mv] = cached
        return cached


def _quarter_pel_step(ev, best: MotionVector, best_key: tuple,
                      bound: int) -> tuple[MotionVector, tuple]:
    # One step of the quarter-pel descent over the 8 neighbours of best. A
    # win re-centres the rest of its step, so one step can move the vector
    # up to 3 quarter-pels per axis. The (cached) centre never beats itself.
    for ox, oy in _QPEL_OFFSETS:
        cand = MotionVector(max(-bound, min(bound, best.dx + ox)),
                            max(-bound, min(bound, best.dy + oy)))
        key = _cost_key(ev.cost(cand), cand)
        if key < best_key:
            best_key = key
            best = cand
    return best, best_key


def _refine_quarter_pel(ev, mv: MotionVector, cost: float,
                        bound: int) -> tuple[MotionVector, float]:
    # Greedy descent of at most 3 steps, up to 9 quarter-pels (2.25 px) off
    # the integer optimum.
    best, best_key = mv, _cost_key(cost, mv)
    for _ in range(_QPEL_STEPS):
        start = best
        best, best_key = _quarter_pel_step(ev, best, best_key, bound)
        if best == start:
            break
    return best, best_key[0]


def block_vector_median(vecs: np.ndarray) -> MotionVector:
    """`downsample_flow`'s Vector Median of one block's (n, 2) float64
    vectors, on the quarter-pel grid: the member of least summed Euclidean
    distance to all members, ties to the smaller magnitude, then the lesser
    (u, v)."""
    tiles = np.asarray(vecs, np.float64).reshape(1, 1, -1, 1, 2)
    return quantize_to_quarter_pel(*_vector_medians(tiles)[0, 0].tolist())


def _best(ev: _Evaluator, candidates) -> tuple[MotionVector, float]:
    """The candidate of least `_cost_key`, and its cost."""
    mv = min(candidates, key=lambda mv: _cost_key(ev.cost(mv), mv))
    return mv, ev.cost(mv)


def _evaluator(cur_plane, ref, origin, config, predictor) -> _Evaluator:
    cur_block = clip_block(cur_plane, *origin, config.block_size).astype(np.int32)
    return _Evaluator(cur_block, ref, origin, config.lambda_y, predictor)


def full_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                config: SearchConfig,
                predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """Exhaustive RD search over the integer window, the optimality oracle.

    Scans every integer-pel vector in [-R, +R]^2, then (optionally) runs the
    local quarter-pel descent around the winner.
    """
    ev = _evaluator(cur_plane, ref, origin, config, predictor)
    r = config.search_range
    best_mv, best_cost = _best(ev, (
        MotionVector(ix * QPEL, iy * QPEL)
        for iy in range(-r, r + 1)
        for ix in range(-r, r + 1)
    ))
    if config.refine_subpel:
        best_mv, best_cost = _refine_quarter_pel(ev, best_mv, best_cost, r * QPEL)
    return best_mv, best_cost


def _pattern_search(cur_plane, ref, origin, config, predictor, large_pattern, small_pattern):
    # One block at a time, scoring each candidate once through the cache.
    ev = _evaluator(cur_plane, ref, origin, config, predictor)
    r = config.search_range

    def pel(ix: int, iy: int) -> MotionVector:
        return MotionVector(max(-r, min(r, ix)) * QPEL, max(-r, min(r, iy)) * QPEL)

    def ring(center: MotionVector, pattern) -> tuple[MotionVector, float]:
        cx, cy = center.dx // QPEL, center.dy // QPEL
        return _best(ev, [pel(cx + int(ox), cy + int(oy)) for ox, oy in pattern])

    center, _ = _best(ev, [ZERO_MV, pel(round(predictor.dx / QPEL), round(predictor.dy / QPEL))])
    # Large-pattern descent: recentre while a ring beats its centre.
    while (best := ring(center, large_pattern)[0]) != center:
        center = best
    best_mv, best_cost = ring(center, small_pattern)

    if config.refine_subpel:
        best_mv, best_cost = _refine_quarter_pel(ev, best_mv, best_cost, r * QPEL)
    return best_mv, best_cost


def diamond_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                   config: SearchConfig,
                   predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """`blockmatch.diamond_search` of one block, searched on its own."""
    return _pattern_search(cur_plane, ref, origin, config, predictor,
                           _DIAMOND_LARGE, _DIAMOND_SMALL)


def hex_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
               config: SearchConfig,
               predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """`blockmatch.hex_search` of one block, searched on its own."""
    return _pattern_search(cur_plane, ref, origin, config, predictor,
                           _HEX_LARGE, _HEX_SMALL)


def flow_cost(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
              config: SearchConfig, predictor: MotionVector, flow_mv: MotionVector) -> float:
    """RD cost of one block's flow-derived vector, scored on its own."""
    block = clip_block(cur_plane, *origin, config.block_size)
    return rd_cost(blockmatch.sad(block, ref, origin, flow_mv), flow_mv, predictor,
                   config.lambda_y)


def write_block_levels(writer: BitWriter, scanned: np.ndarray) -> None:
    """Run-level codes of one block of zig-zag scanned levels, then its EOB."""
    prev = -1
    for pos in np.flatnonzero(scanned):
        writer.write_se(int(scanned[pos]))
        writer.write_ue(int(pos) - prev - 1)
        prev = int(pos)
    writer.write_se(0)


def quantize(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Uniform mid-tread levels sign(c) * floor(|c| / q + 1/2) as int32."""
    coeffs = np.asarray(coeffs, np.float64)
    return (np.sign(coeffs) * np.floor(np.abs(coeffs) / q + 0.5)).astype(np.int32)


def _tiles(plane: np.ndarray, t: int) -> np.ndarray:
    """The (blocks, t, t) tiles of a plane in raster order, zero padded."""
    h, w = plane.shape
    nby, nbx = -(-h // t), -(-w // t)
    padded = np.zeros((nby * t, nbx * t), plane.dtype)
    padded[:h, :w] = plane
    return padded.reshape(nby, t, nbx, t).swapaxes(1, 2).reshape(nby * nbx, t, t)


def reconstruct_plane(pred: np.ndarray, levels: np.ndarray, t: int, q: int) -> np.ndarray:
    """A plane rebuilt from its prediction and the (blocks, t, t) levels of
    its raster-order transform blocks: prediction plus residual, rounded
    half up and clipped."""
    h, w = pred.shape
    nby, nbx = -(-h // t), -(-w // t)
    res = idctn(np.asarray(levels, np.float64) * float(q), axes=(1, 2), norm="ortho")
    res = res.reshape(nby, nbx, t, t).swapaxes(1, 2).reshape(nby * t, nbx * t)[:h, :w]
    return np.clip(np.floor(pred + res + 0.5), 0, 255).astype(np.uint8)


def encode_plane(cur: np.ndarray, pred: np.ndarray, t: int,
                 q: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One plane's reconstruction and its run-level codes, as (bits,
    length) per _CHUNK_BLOCKS blocks, each block written one code at a time."""
    residual = _tiles(cur.astype(np.float64) - pred, t)
    levels = quantize(dctn(residual, axes=(1, 2), norm="ortho"), q)
    scanned = levels.reshape(len(levels), t * t)[:, list(zigzag_order(t))]
    chunks = []
    for first in range(0, len(scanned), _CHUNK_BLOCKS):
        writer = BitWriter()
        for block in scanned[first:first + _CHUNK_BLOCKS]:
            write_block_levels(writer, block)
        length = writer.bit_length
        pad = writer.align()
        chunks.append((int.from_bytes(writer.getvalue(), "big") >> pad, length))
    return reconstruct_plane(pred, levels, t, q), chunks


def read_block_levels(reader: BitReader, count: int) -> np.ndarray:
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
        if not _INT32.min <= level <= _INT32.max:
            raise BitstreamError(f"coefficient level out of range at bit {reader.bit_pos}")
        scanned[pos] = level


def _decode_plane(reader: BitReader, pred: np.ndarray, t: int, q: int) -> np.ndarray:
    h, w = pred.shape
    nby, nbx = -(-h // t), -(-w // t)
    zz = list(zigzag_order(t))
    levels = np.zeros((nby * nbx, t * t), np.int32)
    for i in range(nby * nbx):
        levels[i, zz] = read_block_levels(reader, t * t)
    return _reconstruct_plane(pred, levels.reshape(-1, t, t), nby, nbx, q, h, w)


def decode_sequential(data: bytes) -> tuple[list[Frame], list[tuple[int, int, int]]]:
    """Decode like `codec.decode_sequence`, one code at a time. Also returns
    the (motion, residual, header) bits of every frame as read."""
    info = read_bitstream_info(data)
    _check_payload_size(info, len(data) - HEADER_SIZE)
    w0, h0, bs, q = info.width, info.height, info.block_size, info.q
    cols, rows = block_grid(w0, h0, bs)
    sizes = _transform_sizes(bs)
    reader = BitReader(data, HEADER_SIZE * 8)
    frames: list[Frame] = []
    bits: list[tuple[int, int, int]] = []
    for n in range(info.frame_count):
        start = reader.bit_pos
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
                    mv = (predictor.dx + reader.read_se(), predictor.dy + reader.read_se())
                    if not all(_INT32.min <= v <= _INT32.max for v in mv):
                        raise BitstreamError(f"frame {n}: motion vector out of range at "
                                             f"bit {reader.bit_pos}")
                    vectors[r, c] = mv
        motion_end = reader.bit_pos
        pred = _prediction(ref, vectors, bs, w0, h0)
        frames.append(Frame(*(_decode_plane(reader, p, t, q) for p, t in zip(pred, sizes)), n))
        residual_end = reader.bit_pos
        reader.align()
        bits.append((motion_end - start - 8, residual_end - motion_end,
                     reader.bit_pos - residual_end + 8))
    if reader.bit_pos != len(data) * 8:
        raise BitstreamError(f"{len(data) - reader.bit_pos // 8} trailing bytes after "
                             f"{info.frame_count} frames")
    return frames, bits
