import math

import numpy as np
import pytest

from flowcodec import blockmatch
from flowcodec.blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictor,
    median_predictors,
    mv_rate_bits,
    rd_cost,
    sad,
    wavefronts,
)
from flowcodec.codec import _block_tiles
from flowcodec.model import MotionVector, ReferencePlane, block_grid, clip_block

import oracles
from oracles import ZERO_MV, full_search
from synth import flat_frame, smooth_texture
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


def search_one(search, cur_plane, ref, origin, config, predictor=ZERO_MV):
    """One block searched as a wave of its own."""
    block = clip_block(cur_plane, *origin, config.block_size)[None]
    return search(block, ref, np.array([origin]), config, np.array([predictor]))[0]


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
    mv, cost = search_one(search, plane, ReferencePlane(plane), (8, 8), cfg)
    assert mv == ZERO_MV


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_finds_translation(search):
    cur, ref = _translated_pair(3)
    cfg = SearchConfig(search_range=8, block_size=16, q=5)
    mv, _ = search_one(search, cur, ReferencePlane(ref), (16, 16), cfg)
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
        _, got = search_one(search, cur, ref, origin, cfg)
        assert got >= best


@pytest.mark.parametrize("search", [diamond_search, hex_search])
def test_pattern_search_stays_in_window(search):
    cur, ref = _translated_pair(20, size=64)
    cfg = SearchConfig(search_range=8, block_size=16, q=5)
    mv, _ = search_one(search, cur, ReferencePlane(ref), (16, 16), cfg, MotionVector(120, 0))
    assert abs(mv.dx) <= 32 and abs(mv.dy) <= 32


def test_search_is_deterministic():
    rng = np.random.default_rng(10)
    cur = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    ref = ReferencePlane(rng.integers(0, 256, (24, 24), dtype=np.uint8))
    cfg = SearchConfig(search_range=4, block_size=8, q=25)
    runs = [search_one(hex_search, cur, ref, (8, 8), cfg) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# SAD evaluations of the one-block oracle searches over the grid below. The
# golden stream hashes pin the winners; these totals pin the candidates the
# oracle scores to find them, each once.
PATTERN_SEARCH_SADS = {
    ("diamond_search", False): 730,
    ("diamond_search", True): 1030,
    ("hex_search", False): 556,
    ("hex_search", True): 876,
}


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("search", [oracles.diamond_search, oracles.hex_search])
def test_pattern_search_scores_the_same_candidates(monkeypatch, search, refine):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return sad(*args)

    monkeypatch.setattr(blockmatch, "sad", counted)
    rng = np.random.default_rng(11)
    tex = smooth_texture(64, 64, rng)
    ref = ReferencePlane(tex[8:56, 8:56])
    cur = tex[6:54, 11:59]  # moved 3 px left and 2 px down
    cfg = SearchConfig(search_range=5, block_size=8, refine_subpel=refine, q=10)
    for y0 in range(0, 48, 8):
        for x0 in range(0, 48, 8):
            dx, dy = (int(v) for v in rng.integers(-40, 41, 2))  # some past the window
            search(cur, ref, (x0, y0), cfg, predictor=MotionVector(dx, dy))
    assert calls == PATTERN_SEARCH_SADS[search.__name__, refine]


# --- wave searches against the one-block oracle ------------------------------

def _search_frame(search, cur, ref, config, predictor=None):
    """Every block's (vector, cost), searched wave by wave as the encoder
    does; predictor, when given, replaces every block's median predictor."""
    bs = config.block_size
    cols, rows = block_grid(cur.shape[1], cur.shape[0], bs)
    tiles = _block_tiles(cur, bs, cols, rows)
    vectors = np.zeros((rows, cols, 2), np.int64)
    found = {}
    for wave in wavefronts(cols, rows):
        predictors = [median_predictor(vectors, c, r) if predictor is None else predictor
                      for r, c in wave]
        at = np.array(wave)
        got = search(tiles[at[:, 0], at[:, 1]], ref, at[:, ::-1] * bs, config,
                     np.array(predictors, np.int64))
        for (r, c), (mv, cost) in zip(wave, got):
            vectors[r, c] = mv
            found[r, c] = (mv, cost)
    return found


def _oracle_frame(search, cur, ref, config, predictor=None):
    """Every block's (vector, cost) from the one-block oracle, in raster
    order; predictor as in `_search_frame`."""
    bs = config.block_size
    cols, rows = block_grid(cur.shape[1], cur.shape[0], bs)
    vectors = np.zeros((rows, cols, 2), np.int64)
    found = {}
    for r in range(rows):
        for c in range(cols):
            mv, cost = search(cur, ref, (c * bs, r * bs), config,
                              median_predictor(vectors, c, r) if predictor is None else predictor)
            vectors[r, c] = mv
            found[r, c] = (mv, cost)
    return found


def _moved_pair(w, h, seed):
    rng = np.random.default_rng(seed)
    tex = smooth_texture(h + 20, w + 20, rng)
    return tex[8:8 + h, 4:4 + w], ReferencePlane(np.ascontiguousarray(tex[5:5 + h, 7:7 + w]))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("search_range", [1, 5, 40])
@pytest.mark.parametrize("block_size", [4, 8, 16])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_wave_search_matches_the_oracle(monkeypatch, name, block_size, search_range, refine):
    # 40x26 leaves partial blocks on the right and bottom edges.
    cur, ref = _moved_pair(40, 26, block_size + search_range)
    cfg = SearchConfig(search_range=search_range, block_size=block_size,
                       refine_subpel=refine, q=10)
    want = _oracle_frame(getattr(oracles, name), cur, ref, cfg)
    misses = 0

    def counted(*args):
        nonlocal misses
        misses += 1
        return sad(*args)

    monkeypatch.setattr(blockmatch, "sad", counted)
    assert _search_frame(getattr(blockmatch, name), cur, ref, cfg) == want
    # Only a quarter-pel step that leaves its gathered 3x3 scores one
    # candidate alone; at 4 px blocks that happens on this content.
    if not refine:
        assert misses == 0
    elif block_size == 4:
        assert misses > 0


@pytest.mark.parametrize("predictor", [(120, -77), (2**31 - 1, -2**31), (-2**31, 2**31 - 1),
                                       (-6, 6)])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_wave_search_matches_the_oracle_from_far_predictors(name, predictor):
    # Far past the window: the start pair clamps, and the rates of the
    # differences reach the longest codes a stream holds.
    cur, ref = _moved_pair(44, 30, 3)
    cfg = SearchConfig(search_range=6, block_size=8, q=20)
    predictor = MotionVector(*predictor)
    assert (_search_frame(getattr(blockmatch, name), cur, ref, cfg, predictor)
            == _oracle_frame(getattr(oracles, name), cur, ref, cfg, predictor))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_wave_search_matches_the_oracle_on_flat_content(name, refine):
    # Every candidate of a flat plane has SAD 0 and many tie on cost.
    cur = flat_frame(40, 24, 90).y
    ref = ReferencePlane(flat_frame(40, 24, 90).y)
    cfg = SearchConfig(search_range=5, block_size=8, refine_subpel=refine, q=30)
    far = MotionVector(13, -7)
    assert (_search_frame(getattr(blockmatch, name), cur, ref, cfg, far)
            == _oracle_frame(getattr(oracles, name), cur, ref, cfg, far))


@pytest.mark.parametrize("cols, rows", [(1, 1), (1, 5), (5, 1), (11, 9), (3, 7)])
def test_wavefronts_follow_the_predictor(cols, rows):
    order = {}
    for wave in wavefronts(cols, rows):
        k = {c + 2 * r for r, c in wave}.pop()
        assert all(c + 2 * r == k for r, c in wave)
        assert all(k > earlier for earlier in order.values())
        for r, c in wave:
            order[r, c] = k
    assert sorted(order) == [(r, c) for r in range(rows) for c in range(cols)]
    for (r, c), k in order.items():
        for neighbour in ((r, c - 1), (r - 1, c), (r - 1, c + 1)):
            assert order.get(neighbour, -1) < k


def test_quarter_pel_refinement_recentres_within_a_step():
    # Each win re-centres the rest of its step: from (0, 0) toward (-10, -10)
    # one step moves (-1, -3), so three steps reach (-3, -9), 2.25 px in dy.
    class Stub:
        def cost(self, mv):
            return abs(mv.dx + 10) + abs(mv.dy + 10)

    mv, cost = blockmatch._refine_quarter_pel(Stub(), ZERO_MV, 20, 64)
    assert (mv, cost) == (MotionVector(-3, -9), 8)


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


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (6, 1), (2, 2), (5, 9)])
def test_median_predictors_match_the_raster_predictor(rows, cols):
    rng = np.random.default_rng(10 * rows + cols)
    info = np.iinfo(np.int32)
    extremes = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max], np.int32)
    for vectors in (rng.integers(-40, 41, (rows, cols, 2)).astype(np.int32),
                    rng.choice(extremes, (rows, cols, 2)),
                    np.full((rows, cols, 2), info.min, np.int32)):
        got = median_predictors(vectors)
        assert got.dtype == np.int64 and got.shape == vectors.shape
        for r in range(rows):
            for c in range(cols):
                assert tuple(got[r, c].tolist()) == median_predictor(vectors, c, r), (r, c)
