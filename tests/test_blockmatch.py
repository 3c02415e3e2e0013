import math

import numpy as np
import pytest

from flowcodec import blockmatch, codec
from flowcodec.blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictors,
    mv_rate_bits,
    rd_cost,
    sad,
)
from flowcodec.codec import CodecConfig, _block_tiles
from flowcodec.model import (
    QPEL,
    REF_MARGIN,
    BlockMotionField,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
)

import oracles
from oracles import ZERO_MV, clip_block, full_search, median_predictor, wavefronts
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
    vectors, costs, _ = search(block, ref, np.array([origin]), config, np.array([predictor]))
    return MotionVector(*vectors[0].tolist()), costs[0].item()


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


# Blocks the batched searches read through `ReferencePlane` (`blocks`,
# `pel_blocks` and `block`) over the grid above, every block in one call,
# beside the totals of the searches that scored every ring's centre again.
BATCH_SEARCH_READS = {  # (reads, reads when each ring scored its centre)
    ("diamond_search", False): (1088, 1233),
    ("diamond_search", True): (1605, 1806),
    ("hex_search", False): (774, 903),
    ("hex_search", True): (1345, 1535),
}


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_batched_searches_read_fewer_blocks(monkeypatch, name, refine):
    reads = 0

    def counted(read):
        def wrapped(*args):
            nonlocal reads
            got = read(*args)
            reads += math.prod(got.shape[:-2])
            return got
        return wrapped

    for read in ("block", "blocks", "pel_blocks"):
        monkeypatch.setattr(ReferencePlane, read, counted(getattr(ReferencePlane, read)))
    rng = np.random.default_rng(11)
    tex = smooth_texture(64, 64, rng)
    ref = ReferencePlane(tex[8:56, 8:56])
    cur = tex[6:54, 11:59]  # moved 3 px left and 2 px down
    cfg = SearchConfig(search_range=5, block_size=8, refine_subpel=refine, q=10)
    origins = [(x0, y0) for y0 in range(0, 48, 8) for x0 in range(0, 48, 8)]
    predictors = [rng.integers(-40, 41, 2) for _ in origins]  # the draws of the test above
    getattr(blockmatch, name)(np.array([clip_block(cur, x0, y0, 8) for x0, y0 in origins]),
                              ref, np.array(origins), cfg, np.array(predictors))
    now, centres_rescored = BATCH_SEARCH_READS[name, refine]
    assert reads == now < centres_rescored


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
        got, costs, flow_costs = search(tiles[at[:, 0], at[:, 1]], ref, at[:, ::-1] * bs,
                                        config, np.array(predictors, np.int64))
        assert flow_costs is None
        assert got.dtype == np.int64 and got.shape == (len(wave), 2)
        assert costs.dtype == np.float64 and costs.shape == (len(wave),)
        for (r, c), mv, cost in zip(wave, got.tolist(), costs.tolist(), strict=True):
            vectors[r, c] = mv
            found[r, c] = (MotionVector(*mv), cost)
    return found


def _oracle_frame(search, cur, ref, config, predictor=None, flow=None):
    """Every block's (vector, cost) from the one-block oracle, in raster
    order; predictor as in `_search_frame`. flow, a hybrid's (rows, cols, 2)
    flow-derived vectors, replaces a block's searched pair with the flow
    vector and its cost, scored on its own, where that is strictly cheaper."""
    bs = config.block_size
    cols, rows = block_grid(cur.shape[1], cur.shape[0], bs)
    vectors = np.zeros((rows, cols, 2), np.int64)
    found = {}
    for r in range(rows):
        for c in range(cols):
            origin = (c * bs, r * bs)
            block_predictor = median_predictor(vectors, c, r) if predictor is None else predictor
            mv, cost = search(cur, ref, origin, config, block_predictor)
            if flow is not None:
                flow_mv = MotionVector(*flow[r, c].tolist())
                flow_cost = oracles.flow_cost(cur, ref, origin, config, block_predictor, flow_mv)
                if flow_cost < cost:
                    mv, cost = flow_mv, flow_cost
            vectors[r, c] = mv
            found[r, c] = (mv, cost)
    return found


def _moved_planes(w, h, seed):
    """A current and a reference luma plane; the content moved by (-3, 3) px."""
    rng = np.random.default_rng(seed)
    tex = smooth_texture(h + 20, w + 20, rng)
    return tex[8:8 + h, 4:4 + w], np.ascontiguousarray(tex[5:5 + h, 7:7 + w])


def _moved_pair(w, h, seed):
    cur, ref = _moved_planes(w, h, seed)
    return cur, ReferencePlane(ref)


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
    misses = []

    def counted(cur_block, ref, origin, mv):
        misses.append((tuple(origin), mv))
        return sad(cur_block, ref, origin, mv)

    monkeypatch.setattr(blockmatch, "sad", counted)
    assert _search_frame(getattr(blockmatch, name), cur, ref, cfg) == want
    # Only a quarter-pel step that leaves its gathered 3x3 scores one
    # candidate alone; at 4 px blocks that happens on this content. No
    # block scores a candidate alone twice.
    if not refine:
        assert not misses
    elif block_size == 4:
        assert misses
    assert len(set(misses)) == len(misses)


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


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("predictor", [3, 5])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_wave_search_matches_the_oracle_on_diagonal_ties(name, predictor, refine):
    # Stripes along x + y on a square plane, with a predictor on the
    # diagonal: blocks on the diagonal score (a, b) and (b, a) alike, so
    # candidates tie in cost and in |dx| + |dy| and only the order of dy
    # and dx in the key tells them apart.
    stripes = np.add.outer(np.arange(40), np.arange(40)) * (2 * np.pi / 9)
    tex = np.rint(128 + 60 * np.sin(stripes)).astype(np.uint8)
    ref = ReferencePlane(np.ascontiguousarray(tex[:32, :32]))
    cur = tex[3:35, :32]
    cfg = SearchConfig(search_range=5, block_size=8, refine_subpel=refine, q=10)
    diagonal = MotionVector(predictor, predictor)
    assert (_search_frame(getattr(blockmatch, name), cur, ref, cfg, diagonal)
            == _oracle_frame(getattr(oracles, name), cur, ref, cfg, diagonal))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("block_size", [4, 8, 16])
@pytest.mark.parametrize("name", ["diamond_search", "hex_search"])
def test_wave_flow_costs_match_the_oracle(name, block_size, refine):
    # 40x26 leaves partial blocks on the right and bottom edges. The flow
    # vectors reach past the 5 px window and past the REF_MARGIN padding,
    # one of them to the ends of the int32 range.
    cur, ref = _moved_pair(40, 26, block_size)
    cfg = SearchConfig(search_range=5, block_size=block_size, refine_subpel=refine, q=10)
    bs = block_size
    cols, rows = block_grid(40, 26, bs)
    far = (REF_MARGIN + 8) * QPEL
    flow = np.random.default_rng(bs).integers(-far, far + 1, (rows, cols, 2))
    flow[0, -1] = (2**31 - 1, -2**31)
    want = _oracle_frame(getattr(oracles, name), cur, ref, cfg)
    predictors = median_predictors([[want[r, c][0] for c in range(cols)] for r in range(rows)])
    tiles = _block_tiles(cur, bs, cols, rows)
    for wave in wavefronts(cols, rows):
        at = np.array(wave)
        found, costs, flow_costs = getattr(blockmatch, name)(
            tiles[at[:, 0], at[:, 1]], ref, at[:, ::-1] * bs, cfg,
            predictors[at[:, 0], at[:, 1]], flow[at[:, 0], at[:, 1]])
        assert flow_costs.dtype == np.float64 and flow_costs.shape == (len(wave),)
        for (r, c), mv, searched_cost, cost in zip(wave, found.tolist(), costs.tolist(),
                                                   flow_costs.tolist(), strict=True):
            # The flow vector is never searched from.
            assert (MotionVector(*mv), searched_cost) == want[r, c]
            assert cost == oracles.flow_cost(cur, ref, (c * bs, r * bs), cfg,
                                             MotionVector(*predictors[r, c].tolist()),
                                             MotionVector(*flow[r, c].tolist()))


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


# --- the encoder's search passes against the raster-order oracle -------------

def _frame(luma):
    h, w = luma.shape
    chroma = np.zeros((h // 2, w // 2), np.uint8)
    return Frame(np.ascontiguousarray(luma), chroma, chroma)


def _search_passes(monkeypatch, mode, cur, ref, config, flow=None, guess=None):
    """`codec._search_vectors` of luma planes cur and ref, guess defaulting
    to zeros. Checks that the field the passes settled on is the one
    returned, and returns it with the blocks of each search call."""
    bs = config.block_size
    cols, rows = block_grid(cur.shape[1], cur.shape[0], bs)
    name = "diamond_search" if mode == "internal-diamond" else "hex_search"
    search, medians, calls, fields = getattr(codec, name), codec.median_predictors, [], []

    def counted(tiles, *args):
        calls.append(len(tiles))
        return search(tiles, *args)

    def recorded(vectors):
        fields.append(np.array(vectors))
        return medians(vectors)

    monkeypatch.setattr(codec, name, counted)
    monkeypatch.setattr(codec, "median_predictors", recorded)
    field = None if flow is None else BlockMotionField(bs, flow.astype(np.int32))
    guess = np.zeros((rows, cols, 2), np.int64) if guess is None else guess
    got = codec._search_vectors(_frame(cur), _frame(ref), field,
                                CodecConfig(mode, **vars(config)), cols, rows, guess)
    assert np.array_equal(fields[-1], got)  # the last pass's field
    return got, calls


def _oracle_field(mode, cur, ref, config, flow=None):
    cols, rows = block_grid(cur.shape[1], cur.shape[0], config.block_size)
    search = oracles.diamond_search if mode == "internal-diamond" else oracles.hex_search
    found = _oracle_frame(search, cur, ReferencePlane(ref), config, flow=flow)
    return np.array([[found[r, c][0] for c in range(cols)] for r in range(rows)], np.int32)


def _flow_near(cols, rows, seed):
    """A hybrid's flow field: the content's motion (-3, 3) px, off by up to
    two quarter-pels on most blocks and anywhere in +-6 px on some."""
    rng = np.random.default_rng(seed)
    flow = np.array((-12, 12)) + rng.integers(-2, 3, (rows, cols, 2))
    far = rng.random((rows, cols)) < 0.3
    flow[far] = rng.integers(-24, 25, (int(far.sum()), 2))
    return flow


SEARCH_MODES = ["internal-diamond", "internal-hex", "hybrid-mean", "hybrid-median"]


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("block_size", [4, 8, 16])
@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_search_passes_reach_the_raster_order_field(monkeypatch, mode, block_size, refine):
    # 40x26 leaves partial blocks on the right and bottom edges.
    cur, ref = _moved_planes(40, 26, block_size)
    cfg = SearchConfig(search_range=5, block_size=block_size, refine_subpel=refine, q=10)
    cols, rows = block_grid(40, 26, block_size)
    flow = _flow_near(cols, rows, SEARCH_MODES.index(mode)) if mode.startswith("hybrid") else None
    field, calls = _search_passes(monkeypatch, mode, cur, ref, cfg, flow)
    assert np.array_equal(field, _oracle_field(mode, cur, ref, cfg, flow))
    assert field.dtype == np.int32 and field.shape == (rows, cols, 2)
    # One call per pass; the first searches every block, the later ones
    # only the blocks whose predictor moved.
    assert calls[0] == rows * cols and all(n < rows * cols for n in calls[1:])
    assert len(calls) <= len(wavefronts(cols, rows))


@pytest.mark.parametrize("mode", ["internal-hex", "hybrid-median"])
def test_search_guess_changes_only_the_passes(monkeypatch, mode):
    cur, ref = _moved_planes(40, 26, 4)
    rng = np.random.default_rng(4)
    cfg = SearchConfig(search_range=5, block_size=8, q=10)
    cols, rows = block_grid(40, 26, 8)
    flow = _flow_near(cols, rows, 9) if mode.startswith("hybrid") else None
    want = _oracle_field(mode, cur, ref, cfg, flow)
    # The field's own predictors are a perfect guess: one pass settles it.
    field, calls = _search_passes(monkeypatch, mode, cur, ref, cfg, flow, median_predictors(want))
    assert np.array_equal(field, want) and calls == [rows * cols]
    # Random predictors, even where the true one is always zero (row 0),
    # give the zero guess's field.
    wrong = rng.integers(-2**31, 2**31, (rows, cols, 2))
    for guess in (None, wrong, rng.integers(-60, 61, (rows, cols, 2))):
        field, calls = _search_passes(monkeypatch, mode, cur, ref, cfg, flow, guess)
        assert np.array_equal(field, want)
        assert len(calls) <= len(wavefronts(cols, rows))


@pytest.mark.parametrize("mode", ["internal-diamond", "hybrid-mean"])
def test_search_passes_on_noise(monkeypatch, mode):
    # I.i.d. noise has no motion to find: the vectors scatter, each change
    # moves the predictors behind it, and the passes run long.
    rng = np.random.default_rng(12)
    cur, ref = (rng.integers(0, 256, (40, 64), dtype=np.uint8) for _ in range(2))
    cfg = SearchConfig(search_range=6, block_size=8, q=8)
    cols, rows = block_grid(64, 40, 8)
    flow = rng.integers(-24, 25, (rows, cols, 2)) if mode.startswith("hybrid") else None
    field, calls = _search_passes(monkeypatch, mode, cur, ref, cfg, flow)
    assert np.array_equal(field, _oracle_field(mode, cur, ref, cfg, flow))
    assert 3 <= len(calls) <= len(wavefronts(cols, rows))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("mode", ["internal-hex", "hybrid-mean"])
def test_search_passes_on_flat_content(monkeypatch, mode, refine):
    # Every SAD is 0, so candidates tie on cost and only the rest of the
    # key tells them apart; a flow vector that is its block's searched one
    # ties with it.
    plane = flat_frame(40, 24, 90).y
    cfg = SearchConfig(search_range=5, block_size=8, refine_subpel=refine, q=30)
    cols, rows = block_grid(40, 24, 8)
    flow = np.tile([[1, -1], [0, 0], [-3, 2]], (rows, -(-cols // 3), 1))[:, :cols]
    flow = flow if mode.startswith("hybrid") else None
    field, _ = _search_passes(monkeypatch, mode, plane, plane, cfg, flow,
                              np.full((rows, cols, 2), 7, np.int64))
    assert np.array_equal(field, _oracle_field(mode, plane, plane, cfg, flow))


def test_search_passes_keep_the_searched_vector_on_a_tie(monkeypatch):
    # At q = 12 lambda is 1, so a flow vector's SAD and rate can sum to
    # exactly its block's searched cost; on this content they do for a
    # block. The passes, like the final decision, keep the searched vector.
    cur, ref = _moved_planes(40, 26, 1)
    cfg = SearchConfig(search_range=5, block_size=4, q=12)
    cols, rows = block_grid(40, 26, 4)
    flow = _flow_near(cols, rows, 1)
    field, _ = _search_passes(monkeypatch, "hybrid-mean", cur, ref, cfg, flow)
    assert np.array_equal(field, _oracle_field("hybrid-mean", cur, ref, cfg, flow))
    plane, predictors, ties = ReferencePlane(ref), median_predictors(field), 0
    for r in range(rows):
        for c in range(cols):
            origin, predictor = (c * 4, r * 4), MotionVector(*predictors[r, c].tolist())
            flow_mv = MotionVector(*flow[r, c].tolist())
            mv, cost = oracles.hex_search(cur, plane, origin, cfg, predictor)
            ties += (flow_mv != mv
                     and oracles.flow_cost(cur, plane, origin, cfg, predictor, flow_mv) == cost)
    assert ties


def test_search_batches_never_exceed_the_block_limit(monkeypatch):
    monkeypatch.setattr(codec, "_SEARCH_BLOCKS", 7)
    cur, ref = _moved_planes(40, 26, 5)
    cfg = SearchConfig(search_range=5, block_size=4, q=10)
    cols, rows = block_grid(40, 26, 4)
    flow = _flow_near(cols, rows, 2)
    field, calls = _search_passes(monkeypatch, "hybrid-mean", cur, ref, cfg, flow)
    assert np.array_equal(field, _oracle_field("hybrid-mean", cur, ref, cfg, flow))
    assert max(calls) == 7 and calls[:10] == [7] * 10  # the first pass: 70 blocks


def test_quarter_pel_refinement_recentres_within_a_step():
    # Each win re-centres the rest of its step: from (0, 0) toward (-10, -10)
    # one step moves (-1, -3), so three steps reach (-3, -9), 2.25 px in dy.
    class Stub:
        def cost(self, mv):
            return abs(mv.dx + 10) + abs(mv.dy + 10)

    mv, cost = oracles._refine_quarter_pel(Stub(), ZERO_MV, 20, 64)
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
