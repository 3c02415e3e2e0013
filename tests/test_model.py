import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowcodec.model import (
    DEFAULT_MV_BOUND,
    QPEL,
    REF_MARGIN,
    BlockMotionField,
    MotionVector,
    ReferencePlane,
    block_grid,
    chroma_vectors,
    predict_block,
    quantize_to_quarter_pel,
)

from oracles import clip_block
from synth import flat_frame, random_frame


# --- reference implementations (oracles) -----------------------------------

def ref_extract(plane, x0, y0, size):
    h, w = plane.shape
    out = np.empty((size, size), plane.dtype)
    for j in range(size):
        for i in range(size):
            out[j, i] = plane[min(max(y0 + j, 0), h - 1), min(max(x0 + i, 0), w - 1)]
    return out


def ref_bilinear(plane, x, y):
    h, w = plane.shape
    x = min(max(float(x), 0.0), w - 1.0)
    y = min(max(float(y), 0.0), h - 1.0)
    xi, yi = int(math.floor(x)), int(math.floor(y))
    xj, yj = min(xi + 1, w - 1), min(yi + 1, h - 1)
    a, b = x - xi, y - yi
    p00, p01 = float(plane[yi, xi]), float(plane[yi, xj])
    p10, p11 = float(plane[yj, xi]), float(plane[yj, xj])
    return (1 - a) * (1 - b) * p00 + a * (1 - b) * p01 + (1 - a) * b * p10 + a * b * p11


# --- clip_block -------------------------------------------------------------

def test_extract_constant_block():
    frame = flat_frame(16, 16, 128)
    block = clip_block(frame.y, 0, 0, 8)
    assert block.shape == (8, 8)
    assert np.all(block == 128)


def test_extract_right_edge_replicates():
    rng = np.random.default_rng(1)
    plane = rng.integers(0, 256, (12, 10), dtype=np.uint8)
    block = clip_block(plane, 6, 0, 8)
    # columns past x=9 replicate column 9
    for i in range(8):
        src_col = min(6 + i, 9)
        assert np.array_equal(block[:, i], plane[:8, src_col])


def test_extract_matches_reference():
    rng = np.random.default_rng(2)
    frame = random_frame(24, 16, rng)
    for x0, y0, size in [(0, 0, 8), (20, 10, 8), (-3, -5, 16), (19, 1, 4), (30, 30, 8)]:
        got = clip_block(frame.y, x0, y0, size)
        assert np.array_equal(got, ref_extract(frame.y, x0, y0, size))
    for x0, y0, size in [(0, 0, 4), (10, 6, 8), (-1, 2, 2)]:
        got = clip_block(frame.u, x0, y0, size)
        assert np.array_equal(got, ref_extract(frame.u, x0, y0, size))


def test_extract_is_pure_copy():
    rng = np.random.default_rng(3)
    frame = random_frame(16, 16, rng)
    a = clip_block(frame.y, 2, 2, 8)
    b = clip_block(frame.y, 2, 2, 8)
    assert np.array_equal(a, b)
    a[0, 0] ^= 0xFF  # mutating the copy must not touch the frame
    assert frame.y[2, 2] == b[0, 0]


# --- predict_block (integer bilinear used by SAD and compensation) ----------

def test_predict_integer_vector_matches_clip():
    rng = np.random.default_rng(6)
    plane = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    for dx, dy in [(0, 0), (4, -8), (-12, 16), (40, 0)]:
        got = predict_block(plane, 4, 4, 8, MotionVector(dx, dy))
        assert np.array_equal(got, clip_block(plane, 4 + dx // 4, 4 + dy // 4, 8))


def test_predict_subpel_matches_bilinear_rounding():
    rng = np.random.default_rng(7)
    plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    for _ in range(40):
        x0, y0 = int(rng.integers(-2, 14)), int(rng.integers(-2, 14))
        mv = MotionVector(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
        got = predict_block(plane, x0, y0, 4, mv)
        for j in range(4):
            for i in range(4):
                want = math.floor(
                    ref_bilinear(plane, x0 + i + mv.dx / 4, y0 + j + mv.dy / 4) + 0.5)
                assert got[j, i] == want, (x0, y0, mv, i, j)


# --- ReferencePlane (padded, pre-interpolated predict_block) ----------------

@pytest.mark.parametrize("w, h", [(40, 24), (20, 12), (36, 20), (18, 10), (37, 23), (19, 11)])
@pytest.mark.parametrize("size", [2, 4, 8, 16])
def test_reference_plane_blocks_match_predict_block(w, h, size):
    """Every block of the grid slices to predict_block's values, at vectors
    out to DEFAULT_MV_BOUND plus the padding plus 3 px, where the slice is
    clamped, and at the int32 extremes the decoder accepts. `pel_blocks`
    reads the same blocks at whole-pel vectors, in one batch."""
    rng = np.random.default_rng(100 * w + size)
    plane = rng.integers(0, 256, (h, w), dtype=np.uint8)
    ref = ReferencePlane(plane)
    cols, rows = block_grid(w, h, size)
    reach = DEFAULT_MV_BOUND + (REF_MARGIN + 3) * QPEL
    extremes = [-2**31, -2**31 + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1]
    checked = 0
    for trial in range(400):
        x0 = size * int(rng.integers(0, cols))
        y0 = size * int(rng.integers(0, rows))
        if trial < 50:
            mv = MotionVector(int(rng.choice(extremes)), int(rng.choice(extremes)))
        else:
            mv = MotionVector(int(rng.integers(-reach, reach + 1)),
                              int(rng.integers(-reach, reach + 1)))
        got = ref.block(x0, y0, size, mv)
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert np.array_equal(got, predict_block(plane, x0, y0, size, mv)), (x0, y0, mv)
        if (mv.dx % QPEL or mv.dy % QPEL) and checked < 10:
            checked += 1
            for j in range(size):
                for i in range(size):
                    want = math.floor(
                        ref_bilinear(plane, x0 + i + mv.dx / 4, y0 + j + mv.dy / 4) + 0.5)
                    assert got[j, i] == want, (x0, y0, mv, i, j)
    assert checked
    # Whole-pel vectors past the padding, and at the int32 extremes in
    # quarter-pels, read through the displaced corners.
    pel_reach = reach // QPEL
    pel_extremes = [-2**31 // QPEL, -2**31 // QPEL + 1, -1, 0, 1, (2**31 - 1) // QPEL]
    corners, want = [], []
    for trial in range(200):
        x0 = size * int(rng.integers(0, cols))
        y0 = size * int(rng.integers(0, rows))
        if trial < 30:
            dx, dy = (int(v) for v in rng.choice(pel_extremes, 2))
        else:
            dx, dy = (int(v) for v in rng.integers(-pel_reach, pel_reach + 1, 2))
        mv = MotionVector(QPEL * dx, QPEL * dy)
        block = ref.block(x0, y0, size, mv)
        assert np.array_equal(block, predict_block(plane, x0, y0, size, mv)), (x0, y0, mv)
        corners.append((x0 + dx, y0 + dy))
        want.append(block)
    got = ref.pel_blocks(np.array(corners, np.int64), size)
    assert got.dtype == np.uint8 and got.shape == (200, size, size)
    for k, block in enumerate(want):
        assert np.array_equal(got[k], block), corners[k]


@pytest.mark.parametrize("size", [4, 8, 16])
def test_reference_plane_batches_match_its_blocks(size):
    """One fancy index of the phases gives each origin's `block` under each
    vector, clamped the same way, out to the int32 extremes."""
    rng = np.random.default_rng(size)
    ref = ReferencePlane(rng.integers(0, 256, (26, 40), dtype=np.uint8))
    origins = rng.integers(-8, 40, (5, 1, 2))
    reach = DEFAULT_MV_BOUND + (REF_MARGIN + 3) * QPEL
    vectors = rng.integers(-reach, reach + 1, (5, 7, 2))
    vectors[0, :, 0] = [-2**31, -2**31 + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1]
    vectors[1, :, 1] = vectors[0, :, 0]
    got = ref.blocks(origins, size, vectors)
    assert got.shape == (5, 7, size, size) and got.dtype == np.uint8
    for i in range(5):
        for k in range(7):
            x0, y0 = (int(v) for v in origins[i, 0])
            mv = MotionVector(*(int(v) for v in vectors[i, k]))
            assert np.array_equal(got[i, k], ref.block(x0, y0, size, mv)), (i, k)


def test_reference_plane_takes_only_2d_uint8_planes():
    # Wider samples would overflow the uint16 interpolation.
    with pytest.raises(ValueError):
        ReferencePlane(np.full((8, 8), 300, np.int32))
    with pytest.raises(ValueError):
        ReferencePlane(np.zeros(8, np.uint8))


# --- quantize_to_quarter_pel -------------------------------------------------

def test_quantize_exact_multiples():
    assert quantize_to_quarter_pel(1.0, -2.0) == MotionVector(4, -8)


def test_quantize_rounds_to_nearest_quarter():
    assert quantize_to_quarter_pel(1.1, 0.9) == MotionVector(4, 4)


def test_quantize_ties_away_from_zero():
    assert quantize_to_quarter_pel(0.125, -0.125) == MotionVector(1, -1)
    assert quantize_to_quarter_pel(0.375, -0.375) == MotionVector(2, -2)


def test_quantize_clamps_to_bound():
    assert quantize_to_quarter_pel(1000.0, -1000.0) == MotionVector(128, -128)


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        quantize_to_quarter_pel(float("nan"), 0.0)
    with pytest.raises(ValueError):
        quantize_to_quarter_pel(0.0, float("inf"))


@given(st.integers(-DEFAULT_MV_BOUND, DEFAULT_MV_BOUND),
       st.integers(-DEFAULT_MV_BOUND, DEFAULT_MV_BOUND))
def test_quantize_idempotent_on_grid(qx, qy):
    mv = quantize_to_quarter_pel(qx / 4.0, qy / 4.0)
    assert mv == MotionVector(qx, qy)


@given(st.floats(-31.0, 31.0), st.floats(-31.0, 31.0))
def test_quantize_roundtrip_error_bound(u, v):
    mv = quantize_to_quarter_pel(u, v)
    assert abs(mv.dx / 4.0 - u) <= 0.125 + 1e-12
    assert abs(mv.dy / 4.0 - v) <= 0.125 + 1e-12


# --- misc model helpers -------------------------------------------------------

def test_chroma_vectors_halve_with_ties_away():
    luma = np.array([[3, -3], [1, 2], [4, -4], [0, 0], [-2**31, 2**31 - 1]], np.int32)
    chroma = chroma_vectors(luma)
    assert chroma.dtype == np.int64  # abs(-2**31) overflows int32
    assert chroma.tolist() == [[2, -2], [1, 1], [2, -2], [0, 0], [-2**30, 2**30]]


@pytest.mark.parametrize("dtype, value", [(np.int64, -2**31 - 1), (np.int64, 2**31),
                                          (np.uint64, 2**63)])
def test_block_motion_field_rejects_vectors_beyond_int32(dtype, value):
    vectors = np.zeros((1, 2, 2), dtype)
    vectors[0, 1, 0] = value
    with pytest.raises(ValueError, match="int32 range"):
        BlockMotionField(16, vectors)
    BlockMotionField(16, np.array([[[-2**31, 2**31 - 1]]], np.int64))


def test_block_grid_ceils():
    assert block_grid(64, 64, 16) == (4, 4)
    assert block_grid(20, 12, 16) == (2, 1)
    assert block_grid(1024, 436, 16) == (64, 28)


def test_frame_validation():
    with pytest.raises(ValueError):
        flat_frame(15, 16)  # odd width
    rng = np.random.default_rng(8)
    frame = random_frame(8, 8, rng)
    with pytest.raises(ValueError):
        frame.y[0, 0] = 3  # planes are read-only
