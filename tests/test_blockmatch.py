import math

import numpy as np
import pytest

from flowcodec.blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictor,
    mv_rate_bits,
    rd_cost,
    sad,
)
from flowcodec.model import MotionVector, ReferencePlane, ZERO_MV, clip_block

from oracles import full_search
from synth import smooth_texture
from test_model import ref_bilinear


def ref_sad(cur_block, ref_plane, x0, y0, mv):
    total = 0
    size = cur_block.shape[0]
    for j in range(size):
        for i in range(size):
            pred = math.floor(ref_bilinear(ref_plane, x0 + i + mv.dx / 4, y0 + j + mv.dy / 4) + 0.5)
            total += abs(int(cur_block[j, i]) - pred)
    return total


# --- SearchConfig ------------------------------------------------------------

def lam(q):
    return SearchConfig(q=q).lambda_y


def test_lambda_formulas():
    assert lam(2) == 2.0 ** (2 / 6 - 2)
    assert lam(2) == pytest.approx(0.31498, abs=1e-5)
    assert lam(26) == pytest.approx(5.0397, abs=1e-4)
    with pytest.raises(ValueError):
        SearchConfig(q=0)


def test_search_config_is_keyword_only():
    with pytest.raises(TypeError):
        SearchConfig(8, 8)


# --- SAD ---------------------------------------------------------------------

def test_sad_zero_on_identical():
    rng = np.random.default_rng(1)
    plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    block = clip_block(plane, 8, 8, 16)
    assert sad(block, ReferencePlane(plane), (8, 8), ZERO_MV) == 0


def test_sad_constant_difference():
    cur = np.full((8, 8), 10, np.uint8)
    ref = np.full((32, 32), 13, np.uint8)
    assert sad(cur, ReferencePlane(ref), (4, 4), ZERO_MV) == 192  # 64 * 3


def test_sad_matches_reference():
    rng = np.random.default_rng(2)
    cur_plane = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    ref_plane = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    ref = ReferencePlane(ref_plane)
    for _ in range(50):
        x0, y0 = int(rng.integers(-2, 20)), int(rng.integers(-2, 20))
        mv = MotionVector(int(rng.integers(-24, 25)), int(rng.integers(-24, 25)))
        block = clip_block(cur_plane, x0, y0, 8)
        assert sad(block, ref, (x0, y0), mv) == ref_sad(block, ref_plane, x0, y0, mv)


# --- vector rate -----------------------------------------------------------

def test_rate_of_equal_vectors_is_two_bits():
    assert mv_rate_bits(MotionVector(5, -3), MotionVector(5, -3)) == 2


def test_rate_of_unit_difference():
    assert mv_rate_bits(MotionVector(1, 0), ZERO_MV) == 4  # se(1)=3 bits + se(0)=1 bit


def test_rate_symmetric_in_sign():
    for k in range(1, 1025):
        assert mv_rate_bits(MotionVector(k, 0), ZERO_MV) == mv_rate_bits(MotionVector(-k, 0), ZERO_MV)
        assert mv_rate_bits(MotionVector(0, k), ZERO_MV) == mv_rate_bits(MotionVector(0, -k), ZERO_MV)


def test_rate_minimal_at_predictor():
    rng = np.random.default_rng(3)
    pred = MotionVector(7, -9)
    base = mv_rate_bits(pred, pred)
    for _ in range(200):
        mv = MotionVector(int(rng.integers(-128, 129)), int(rng.integers(-128, 129)))
        assert mv_rate_bits(mv, pred) >= base


# --- RD cost -----------------------------------------------------------------

def test_rd_cost_formula():
    mv, pred = MotionVector(0, 0), MotionVector(0, 0)
    assert rd_cost(100, mv, pred, lam(2)) == pytest.approx(100 + 0.62996, abs=1e-4)
    assert rd_cost(100, mv, pred, lam(2)) == 100 + lam(2) * 2


def test_rd_cost_zero_case():
    # distortion 0 and (hypothetically) zero rate -> zero cost
    assert rd_cost(0, ZERO_MV, ZERO_MV, lam(5)) == lam(5) * 2
    assert lam(5) * 0 + 0 == 0.0


def test_rd_cost_monotone_in_lambda():
    mv, pred = MotionVector(8, 0), ZERO_MV
    costs = [rd_cost(50, mv, pred, lam(q)) for q in (1, 5, 15, 30, 45)]
    assert costs == sorted(costs)
    # at lambda -> 0 the ordering degenerates to SAD ordering
    tiny = lam(1)
    assert rd_cost(10, mv, pred, tiny) < rd_cost(20, ZERO_MV, pred, tiny)


# --- searches ----------------------------------------------------------------

def _translated_pair(shift, size=48, seed=4):
    """(cur, ref) planes where cur samples ref `shift` px to the right."""
    rng = np.random.default_rng(seed)
    tex = smooth_texture(size, size + shift, rng)
    ref = tex[:, :size]
    cur = tex[:, shift:shift + size]
    return cur, ref


def test_full_search_identical_returns_zero():
    rng = np.random.default_rng(5)
    plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    cfg = SearchConfig(search_range=4, block_size=8, q=5)
    mv, cost = full_search(plane, ReferencePlane(plane), (8, 8), cfg)
    assert mv == ZERO_MV
    assert cost == cfg.lambda_y * 2


def test_full_search_finds_translation():
    cur, ref = _translated_pair(3)
    cfg = SearchConfig(search_range=8, block_size=16, q=5)
    mv, cost = full_search(cur, ReferencePlane(ref), (16, 16), cfg)
    assert mv == MotionVector(12, 0)  # 3 px in quarter-pel units
    assert cost == pytest.approx(cfg.lambda_y * mv_rate_bits(mv, ZERO_MV))


def test_full_search_is_global_minimum():
    rng = np.random.default_rng(6)
    cur = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    ref = ReferencePlane(rng.integers(0, 256, (24, 24), dtype=np.uint8))
    cfg = SearchConfig(search_range=4, block_size=8, refine_subpel=False, q=10)
    for x0, y0 in [(0, 0), (8, 8), (16, 4)]:
        mv, cost = full_search(cur, ref, (x0, y0), cfg)
        block = clip_block(cur, x0, y0, 8)
        for iy in range(-4, 5):
            for ix in range(-4, 5):
                cand = MotionVector(4 * ix, 4 * iy)
                assert rd_cost(sad(block, ref, (x0, y0), cand), cand, ZERO_MV,
                               cfg.lambda_y) >= cost


def test_subpel_refinement_never_hurts():
    rng = np.random.default_rng(7)
    cur = smooth_texture(32, 32, rng)
    ref = ReferencePlane(smooth_texture(32, 32, rng))
    base_cfg = SearchConfig(search_range=4, block_size=8, refine_subpel=False, q=10)
    fine_cfg = SearchConfig(search_range=4, block_size=8, refine_subpel=True, q=10)
    for origin in [(0, 0), (8, 16), (24, 24)]:
        _, coarse = full_search(cur, ref, origin, base_cfg)
        mv, fine = full_search(cur, ref, origin, fine_cfg)
        assert fine <= coarse
        assert abs(mv.dx) <= 16 and abs(mv.dy) <= 16  # stays inside the window


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_identical_returns_zero(search):
    rng = np.random.default_rng(8)
    plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    cfg = SearchConfig(search_range=8, block_size=8, q=5)
    mv, cost = search(plane, ReferencePlane(plane), (8, 8), cfg)
    assert mv == ZERO_MV


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_finds_translation(search):
    cur, ref = _translated_pair(3)
    cfg = SearchConfig(search_range=8, block_size=16, q=5)
    mv, _ = search(cur, ReferencePlane(ref), (16, 16), cfg)
    assert mv == MotionVector(12, 0)


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_cost_bounded_by_full_search(search):
    rng = np.random.default_rng(9)
    cfg = SearchConfig(search_range=6, block_size=8, refine_subpel=False, q=10)
    for trial in range(20):
        cur = smooth_texture(24, 24, rng)
        ref = ReferencePlane(smooth_texture(24, 24, rng))
        origin = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        _, best = full_search(cur, ref, origin, cfg)
        _, got = search(cur, ref, origin, cfg)
        assert got >= best


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_stays_in_window(search):
    cur, ref = _translated_pair(20, size=64)
    cfg = SearchConfig(search_range=8, block_size=16, q=5)
    mv, _ = search(cur, ReferencePlane(ref), (16, 16), cfg, predictor=MotionVector(120, 0))
    assert abs(mv.dx) <= 32 and abs(mv.dy) <= 32


def test_search_is_deterministic():
    rng = np.random.default_rng(10)
    cur = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    ref = ReferencePlane(rng.integers(0, 256, (24, 24), dtype=np.uint8))
    cfg = SearchConfig(search_range=4, block_size=8, q=25)
    runs = [hex_search(cur, ref, (8, 8), cfg) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# --- median predictor ----------------------------------------------------------

def _field(rows, cols, entries):
    v = np.zeros((rows, cols, 2), np.int32)
    for (r, c), mv in entries.items():
        v[r, c] = mv
    return v


def test_median_predictor_origin_is_zero():
    v = _field(2, 3, {})
    assert median_predictor(v, 0, 0) == ZERO_MV


def test_median_predictor_scalar_median():
    # left (0,0), top (4,0), top-right (8,0) -> (4,0)
    v = _field(2, 3, {(1, 0): (0, 0), (0, 1): (4, 0), (0, 2): (8, 0)})
    assert median_predictor(v, 1, 1) == MotionVector(4, 0)


def test_median_predictor_componentwise():
    v = _field(2, 3, {(1, 0): (1, 5), (0, 1): (3, 1), (0, 2): (2, 9)})
    assert median_predictor(v, 1, 1) == MotionVector(2, 5)


def test_median_predictor_missing_topright():
    # last column: top-right unavailable -> counts as (0,0)
    v = _field(2, 2, {(1, 0): (4, 4), (0, 1): (4, 4)})
    assert median_predictor(v, 1, 1) == MotionVector(4, 4)
