"""Reference implementations the tests hold the codec to.

The sequential coders read and write one exp-Golomb code at a time through
`BitWriter` and `BitReader`, the way the stream format describes it, and
share everything else (header, payload size check, prediction,
reconstruction) with the codec. `full_search` is the exhaustive block
search that bounds the pattern searches.
"""
from __future__ import annotations

import numpy as np

from flowcodec.bitstream import BitReader, BitstreamError, BitWriter
from flowcodec.blockmatch import SearchConfig, _Evaluator, _refine_quarter_pel, median_predictor
from flowcodec.codec import (
    HEADER_SIZE,
    _INT32,
    _check_payload_size,
    _prediction,
    _reconstruct_plane,
    _transform_sizes,
    read_bitstream_info,
    zigzag_order,
)
from flowcodec.model import (
    QPEL,
    ZERO_MV,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
    reference_planes,
)


def full_search(cur_plane: np.ndarray, ref: ReferencePlane, origin: tuple[int, int],
                config: SearchConfig,
                predictor: MotionVector = ZERO_MV) -> tuple[MotionVector, float]:
    """Exhaustive RD search over the integer window, the optimality oracle.

    Scans every integer-pel vector in [-R, +R]^2, then (optionally) runs the
    local quarter-pel descent around the winner.
    """
    ev = _Evaluator(cur_plane, ref, origin, config, predictor)
    r = config.search_range
    best_mv, best_cost = ev.best(
        MotionVector(ix * QPEL, iy * QPEL)
        for iy in range(-r, r + 1)
        for ix in range(-r, r + 1)
    )
    if config.refine_subpel:
        best_mv, best_cost = _refine_quarter_pel(ev, best_mv, best_cost, r * QPEL)
    return best_mv, best_cost


def write_block_levels(writer: BitWriter, scanned: np.ndarray) -> None:
    """Run-level codes of one block of zig-zag scanned levels, then its EOB."""
    prev = -1
    for pos in np.flatnonzero(scanned):
        writer.write_se(int(scanned[pos]))
        writer.write_ue(int(pos) - prev - 1)
        prev = int(pos)
    writer.write_se(0)


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
            ref = reference_planes(frames[-1])
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
