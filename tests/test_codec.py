import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcodec import bitstream, blockmatch, codec
from flowcodec.bitstream import (
    MAX_PREFIX,
    BitstreamError,
    BitWriter,
    se_to_ue,
    ue_bits,
)
from flowcodec.blockmatch import median_predictors
from flowcodec.codec import (
    _HEADER,
    _INT32,
    HEADER_SIZE,
    HYBRID_MODES,
    MAGIC,
    MOTION_MODES,
    BlockDecision,
    CodecConfig,
    decode_sequence,
    encode_sequence,
    read_bitstream_info,
    select_block_vector,
)
from flowcodec.flowadapt import downsample_flow
from flowcodec.model import (
    LUMA_BLOCK_SIZES,
    BlockMotionField,
    Frame,
    MotionVector,
    ReferencePlane,
    block_grid,
    predict_block,
)

import oracles
from oracles import decode_sequential, flow_cost, hex_search, median_predictor, write_block_levels
from test_bitstream import joined
from synth import flat_frame, random_frame, translating_frames

W, H = 40, 24  # not a multiple of 16: edge blocks are partial


class StubProvider:
    """Backward flow of the synthetic motion (-4, -2) px plus seeded noise,
    so the Mean and Vector Median reductions disagree on some blocks."""

    def __init__(self, noise: float = 1.5):
        self.noise = noise
        self.calls = []

    def get_flow(self, sequence, n, cur, ref):
        self.calls.append((sequence, n))
        rng = np.random.default_rng(n)
        field = rng.standard_normal((cur.height, cur.width, 2)) * self.noise
        field[..., 0] -= 4.0
        field[..., 1] -= 2.0
        return field.astype(np.float32)


@pytest.fixture(scope="module")
def frames():
    return translating_frames(W, H, 3, dx=4, dy=2, seed=11)


def _encode(frames, mode, block_size=8, gop=100, q=6, noise=1.5):
    config = CodecConfig(mode, q=q, gop_size=gop, block_size=block_size, search_range=8)
    return encode_sequence(frames, config, StubProvider(noise), "seq")


# --- round trip and bit accounting ----------------------------------------------

@pytest.mark.parametrize("gop", [1, 2])
@pytest.mark.parametrize("block_size", [4, 8, 16])
@pytest.mark.parametrize("mode", MOTION_MODES)
def test_encode_decode_bit_exact(frames, mode, block_size, gop):
    result = _encode(frames, mode, block_size, gop)
    decoded = decode_sequence(result.bitstream)
    assert len(decoded) == len(frames)
    for rec, dec in zip(result.recon, decoded):
        for a, b in ((rec.y, dec.y), (rec.u, dec.u), (rec.v, dec.v)):
            assert np.array_equal(a, b)
    total = sum(s.bits_total for s in result.stats)
    assert total == 8 * (len(result.bitstream) - HEADER_SIZE)
    for s in result.stats:
        assert s.bits_total == s.bits_motion + s.bits_residual + s.bits_header
        assert (s.bits_motion == 0) == (s.index % gop == 0)


def test_intra_frames_carry_no_motion_and_p_frames_use_the_provider(frames):
    provider = StubProvider()
    config = CodecConfig("flow-median", q=6, gop_size=2, block_size=8)
    result = encode_sequence(frames, config, provider, "clip")
    assert [s.bits_motion > 0 for s in result.stats] == [False, True, False]
    assert provider.calls == [("clip", 1)]


def test_header_round_trips_config(frames):
    config = CodecConfig("hybrid-mean", q=9, gop_size=7, block_size=4)
    result = encode_sequence(frames, config, StubProvider(), fps=(30000, 1001))
    info = read_bitstream_info(result.bitstream)
    assert (info.width, info.height, info.q, info.block_size) == (W, H, 9, 4)
    assert (info.motion_mode, info.gop_size, info.frame_count) == ("hybrid-mean", 7, 3)
    assert (info.fps_num, info.fps_den) == (30000, 1001)


# SHA-256 of each mode's stream from _encode on the fixture: any change to the
# stream format or to an encoder decision shows here.
GOLDEN_SHA256 = {
    "zero": "e3d52f41536ce60df9de2374db1bcc80479fc239573d5337f66c8b9a161f6ebe",
    "internal-diamond": "b8b710cb1d194ab583cb68266d111d447668143a3e0098e0b5c069f2b87e8c77",
    "internal-hex": "2967d5593de94076719a2684143a4996d26aa9ff65ff937b7196cde0459ec911",
    "flow-mean": "a468308317171769242cce95fc3730a95949033d02843a8cce5ca348e2c4b573",
    "flow-median": "88808bbb3d408e054615bd1c15b0bddbfed07b5159d1d65e3ec8baa61d2d2b57",
    "hybrid-mean": "2f5281bef674ba68e62cf85fd97e5df8804795019e72d5ec69b833727d7ab173",
    "hybrid-median": "72e5c5d88c105a5df5792657fe3ffa5f58f0dab67c2f39fd88a1c29f58fa2c21",
}


@pytest.mark.parametrize("mode", MOTION_MODES)
def test_stream_bytes_are_pinned(frames, mode):
    assert hashlib.sha256(_encode(frames, mode).bitstream).hexdigest() == GOLDEN_SHA256[mode]


# 16 px Vector Median streams: full 256-member blocks, with noisy flow and
# with noise-free flow, where every member of a block ties.
GOLDEN_SHA256_BLOCK16 = {
    ("flow-median", 1.5): "d65ec6f573497fc66e7e27b7dedba2f7531c597402cbf90e1781410139c5ee05",
    ("hybrid-median", 1.5): "215daf0c9657aea161fba0d36ddf6f9df99b11d7576d92fb4cd70b270ff318fe",
    ("flow-median", 0.0): "40f870cfe5c6ce58ab8bb5be04aa6545a12f037f98348534ca43c268a62462b8",
    ("hybrid-median", 0.0): "68231e7cbffb1a5fe0ab88c1f8a8e17c1ed97fb1d02b5950a9b8b4ed795931b2",
}


@pytest.mark.parametrize("mode, noise", GOLDEN_SHA256_BLOCK16)
def test_16px_median_stream_bytes_are_pinned(frames, mode, noise):
    stream = _encode(frames, mode, block_size=16, noise=noise).bitstream
    assert hashlib.sha256(stream).hexdigest() == GOLDEN_SHA256_BLOCK16[mode, noise]


class ConstantFlow:
    def __init__(self, u: float, v: float):
        self.u, self.v = u, v

    def get_flow(self, sequence, n, cur, ref):
        return np.broadcast_to(np.float32([self.u, self.v]), (cur.height, cur.width, 2))


def rising_ramp(w, h, count, step):
    """Frames of a vertical luma ramp moving up step px per frame."""
    th = h + step * count
    ramp = np.repeat(np.arange(th) * 250 // th, w).reshape(th, w).astype(np.uint8)
    frames = []
    for t in range(count):
        y = ramp[step * t:step * t + h].copy()
        frames.append(Frame(y, y[::2, ::2].copy(), y[::2, ::2].copy(), t))
    return frames


# Streams of content moving 38 px per frame, searched at range 40. The
# median predictor carries the 38 px vector down to the partial bottom row
# (98 = 6 * 16 + 2), whose candidates and chosen vectors reach past the
# padding of `ReferencePlane`, so the searches read clamped slices there and
# `motion_compensate` reads clamped taps. Recorded with `predict_block`'s
# gather, before the padded reference existed.
GOLDEN_SHA256_FAR = {
    "internal-diamond": "dafc3ddf9a6827bea29c52883363e74c29df14f2d61daf1b09852299c6f74683",
    "hybrid-mean": "eb1e330bfbc03c66eeb478c1400a821c2838055c1aedd19899f3330b5eb38d4e",
}


@pytest.mark.parametrize("mode", GOLDEN_SHA256_FAR)
def test_vectors_past_the_padding_keep_the_stream_bytes(mode):
    frames = rising_ramp(64, 98, 3, 38)
    config = CodecConfig(mode, q=6, block_size=16, search_range=40)
    result = encode_sequence(frames, config, ConstantFlow(0.0, 38.0), "seq")
    assert hashlib.sha256(result.bitstream).hexdigest() == GOLDEN_SHA256_FAR[mode]
    for rec, dec in zip(result.recon, decode_sequence(result.bitstream), strict=True):
        for a, b in ((rec.y, dec.y), (rec.u, dec.u), (rec.v, dec.v)):
            assert np.array_equal(a, b)


def test_encode_is_deterministic(frames):
    assert _encode(frames, "hybrid-median").bitstream == _encode(frames, "hybrid-median").bitstream


# --- hybrid decision contract ---------------------------------------------------

@pytest.mark.parametrize("noise", [0.0, 1.5, 6.0])
def test_hybrid_picks_flow_exactly_when_cheaper(frames, noise):
    # The per-block oracle decides in raster order: each block searched on
    # its own and its flow vector scored on its own. The encoder's wave
    # search, which scores the flow vectors in its start step, must agree.
    cur, ref = frames[1], frames[0]
    bs = 8
    config = CodecConfig("hybrid-mean", q=6, block_size=bs, search_range=8)
    field = downsample_flow(StubProvider(noise).get_flow("s", 1, cur, ref), bs, "mean")
    cols, rows = block_grid(W, H, bs)
    vectors = np.zeros((rows, cols, 2), np.int32)
    flow_wins = 0
    luma = ReferencePlane(ref.y)
    for r in range(rows):
        for c in range(cols):
            predictor = median_predictor(vectors, c, r)
            flow_mv = field.vector(c, r)
            origin = (c * bs, r * bs)
            searched = hex_search(cur.y, luma, origin, config, predictor)
            flow = (flow_mv, flow_cost(cur.y, luma, origin, config, predictor, flow_mv))
            decision = select_block_vector("hybrid-mean", searched, flow)
            assert (decision.internal_mv, decision.internal_cost) == searched
            assert decision.flow_cost == flow[1]
            if decision.flow_cost < decision.internal_cost:
                assert decision.mv == flow_mv
                flow_wins += 1
            else:  # ties keep the internal candidate
                assert decision.mv == decision.internal_mv
            vectors[r, c] = decision.mv
    assert 0 < flow_wins < rows * cols  # both branches are exercised
    guess = np.zeros((rows, cols, 2), np.int64)
    assert np.array_equal(codec._search_vectors(cur, ref, field, config, cols, rows, guess),
                          vectors)


@pytest.mark.parametrize("mode", ["internal-diamond", "hybrid-mean"])
def test_each_block_is_decided_once_from_its_final_pairs(monkeypatch, mode):
    # The passes decide hybrid blocks in numpy; `select_block_vector`, whose
    # decisions the benchmark's tracer counts, sees each block of a hybrid P
    # frame once, after the last pass, and its decisions are the field
    # returned. The internal modes return their searched field and decide
    # nothing. (tests/test_blockmatch.py checks that this is the passes' field.)
    decisions, per_frame = [], []
    select, search = codec.select_block_vector, codec._search_vectors

    def recorded_select(*args):
        decisions.append(select(*args))
        return decisions[-1]

    def recorded_search(*args):
        decisions.clear()
        field = search(*args)
        per_frame.append(len(decisions))
        if decisions:
            assert [d.mv for d in decisions] == [tuple(v) for v in field.reshape(-1, 2).tolist()]
        return field

    monkeypatch.setattr(codec, "select_block_vector", recorded_select)
    monkeypatch.setattr(codec, "_search_vectors", recorded_search)
    clip = translating_frames(W, H, 5, dx=4, dy=2, seed=3)
    encode_sequence(clip, CodecConfig(mode, q=6, gop_size=3, block_size=8, search_range=8),
                    StubProvider(), "seq")
    cols, rows = block_grid(W, H, 8)
    decided = rows * cols if mode in HYBRID_MODES else 0
    assert per_frame == [decided] * 3  # frames 1, 2 and 4 are P frames


def test_search_guess_is_the_previous_p_frames_predictors(monkeypatch):
    # On a GOP's first P frame, the predictors of the flow field in the
    # hybrid modes; otherwise the median predictors of the previous P
    # frame's field, across an intra frame too, and zeros before any.
    searches = []
    search = codec._search_vectors

    def recorded(*args):
        searches.append((np.array(args[-1]), search(*args)))
        return searches[-1][1]

    monkeypatch.setattr(codec, "_search_vectors", recorded)
    clip = translating_frames(W, H, 6, dx=4, dy=2, seed=3)
    for mode in ("internal-hex", "hybrid-mean"):
        searches.clear()
        encode_sequence(clip, CodecConfig(mode, q=6, gop_size=3, block_size=8, search_range=8),
                        StubProvider(), "seq")
        (g1, v1), (g2, v2), (g4, v4), (g5, _) = searches  # frames 0 and 3 are intra
        for n, guess, previous in ((1, g1, 0 * g1), (4, g4, median_predictors(v2))):
            flow = downsample_flow(StubProvider().get_flow("seq", n, clip[n], clip[n - 1]), 8,
                                   "mean")
            want = median_predictors(flow.vectors) if mode in HYBRID_MODES else previous
            assert np.array_equal(guess, want)
        assert np.array_equal(g2, median_predictors(v1))
        assert np.array_equal(g5, median_predictors(v4))
        assert v1.any() and g1.any() == (mode in HYBRID_MODES) and g4.any()


@pytest.mark.parametrize("mode, second", [("internal-diamond", [38, 9, 11, 6]),
                                          ("internal-hex", [39, 33, 4, 7])])
def test_gops_after_the_first_guess_from_the_last_p_frame(monkeypatch, mode, second):
    """Blocks that pass 2 of the search re-searches in each P frame of two
    GOPs: on frame 4, the first of the second GOP, about as few as on the
    frames after a P frame, not as many as on frame 1, which guesses zeros."""
    searched = []

    def counted(search):
        def wrapped(tiles, *args):
            searched[-1].append(len(tiles))
            return search(tiles, *args)
        return wrapped

    search_vectors = codec._search_vectors

    def per_frame(*args):
        searched.append([])
        return search_vectors(*args)

    monkeypatch.setattr(codec, "_search_vectors", per_frame)
    for name in ("diamond_search", "hex_search"):
        monkeypatch.setattr(codec, name, counted(getattr(codec, name)))
    clip = translating_frames(64, 48, 6, dx=4, dy=2, seed=3)
    encode_sequence(clip, CodecConfig(mode, q=6, gop_size=3, block_size=8, search_range=8))
    assert [passes[0] for passes in searched] == [48] * 4  # frames 1, 2, 4 and 5
    assert [passes[1] for passes in searched] == second


def test_non_hybrid_decisions_have_no_candidates(frames):
    cur, ref = frames[1], frames[0]
    config = CodecConfig("internal-hex", block_size=8, search_range=8)
    predictor = median_predictor(np.zeros((1, 1, 2), np.int32), 0, 0)
    flow_mv = downsample_flow(StubProvider().get_flow("s", 1, cur, ref), 8, "mean").vector(1, 1)
    luma = ReferencePlane(ref.y)
    searched = hex_search(cur.y, luma, (8, 8), config, predictor)
    flow = (flow_mv, flow_cost(cur.y, luma, (8, 8), config, predictor, flow_mv))
    for mode in ("internal-diamond", "internal-hex"):
        for pair in (flow, None):
            decision = select_block_vector(mode, searched, pair)
            assert decision == BlockDecision(searched[0])
            assert decision.internal_mv is None
    # Modes that know their whole vector field before any decision do not
    # come here.
    for mode in ("zero", "flow-mean", "flow-median", "bogus"):
        with pytest.raises(ValueError, match="does not search"):
            select_block_vector(mode, searched, flow)


def test_searching_modes_need_the_searched_vector():
    flow = (MotionVector(4, 4), 20.0)
    for mode in ("internal-diamond", "internal-hex", "hybrid-mean", "hybrid-median"):
        with pytest.raises(ValueError, match="searched vector"):
            select_block_vector(mode, None, flow)
    # A hybrid also needs its flow-derived pair.
    for mode in ("hybrid-mean", "hybrid-median"):
        with pytest.raises(ValueError, match="flow-derived vector"):
            select_block_vector(mode, (MotionVector(0, 0), 10.0))


@pytest.mark.parametrize("search", [blockmatch.diamond_search, blockmatch.hex_search])
def test_hybrid_tie_keeps_the_searched_vector(search):
    # Every SAD of a flat plane is 0. Against the predictor (13, -7) the
    # searched (12, -8) and the flow vector (14, -6) both code in 6 bits.
    plane = flat_frame(W, H, 90).y
    config = CodecConfig("hybrid-mean", block_size=8, search_range=5, refine_subpel=False, q=30)
    cols, rows = block_grid(W, H, 8)
    origins = np.array([(c * 8, r * 8) for r in range(rows) for c in range(cols)])
    n = len(origins)
    found, costs, flow_costs = search(codec._block_tiles(plane, 8, cols, rows).reshape(n, 8, 8),
                                      ReferencePlane(plane), origins, config,
                                      np.tile([13, -7], (n, 1)), np.tile([14, -6], (n, 1)))
    for mv, searched_cost, cost in zip(found.tolist(), costs.tolist(), flow_costs.tolist(),
                                       strict=True):
        searched = (MotionVector(*mv), searched_cost)
        assert searched == (MotionVector(12, -8), 6 * config.lambda_y) and cost == searched[1]
        decision = select_block_vector("hybrid-mean", searched, (MotionVector(14, -6), cost))
        assert decision.mv == searched[0]


# --- motion compensation against predict_block ---------------------------------------

def _half_away(c):
    """A luma vector component halved for chroma, ties away from zero."""
    q = (abs(c) + 1) // 2
    return q if c >= 0 else -q


_INT32_EXTREMES = (-2**31, -2**31 + 1, -2**31 + 3, -5, -1, 0, 3, 2**31 - 4, 2**31 - 1)


@pytest.mark.parametrize("vectors", ["random", "int32-extremes"])
@pytest.mark.parametrize("w, h", [(48, 32), (40, 26), (18, 10)])
@pytest.mark.parametrize("bs", LUMA_BLOCK_SIZES)
def test_motion_compensate_is_predict_block_of_every_block(bs, w, h, vectors):
    rng = np.random.default_rng(bs * 1000 + w * 10 + h)
    ref = random_frame(w, h, rng)
    cols, rows = block_grid(w, h, bs)
    if vectors == "random":
        mvs = rng.integers(-200, 201, (rows, cols, 2)).astype(np.int32)
    else:
        mvs = rng.choice(_INT32_EXTREMES, (rows, cols, 2)).astype(np.int32)
    pred = codec.motion_compensate(ref, BlockMotionField(bs, mvs))
    for plane, got, size in zip((ref.y, ref.u, ref.v), pred, (bs, bs // 2, bs // 2)):
        assert got.dtype == np.uint8 and got.shape == plane.shape
        ph, pw = plane.shape
        for r in range(rows):
            for c in range(cols):
                dx, dy = (int(v) for v in mvs[r, c])
                if size < bs:
                    dx, dy = _half_away(dx), _half_away(dy)
                x0, y0 = c * size, r * size
                want = predict_block(plane, x0, y0, size, MotionVector(dx, dy))
                assert np.array_equal(got[y0:y0 + size, x0:x0 + size],
                                      want[:ph - y0, :pw - x0]), (size, c, r, dx, dy)


# --- quantiser and reconstruction against their formulas ------------------------

QUANTISERS = (1, 2, 3, 10, 31)


@pytest.mark.parametrize("q", QUANTISERS)
def test_quantize_rounds_ties_away_from_zero(q):
    k = np.arange(300)
    ties = (k + 0.5) * q
    assert np.array_equal(codec.quantize(ties, q), k + 1)
    assert np.array_equal(codec.quantize(-ties, q), -(k + 1))


@pytest.mark.parametrize("q", QUANTISERS)
def test_quantize_maps_signed_zeros_to_zero(q):
    levels = codec.quantize(np.array([0.0, -0.0, 0.49 * q, -0.49 * q]), q)
    assert levels.dtype == np.int32 and np.array_equal(levels, [0, 0, 0, 0])


@pytest.mark.parametrize("q", QUANTISERS)
def test_quantize_is_the_formula_and_keeps_its_input(q):
    rng = np.random.default_rng(q)
    for coeffs in (rng.normal(0, 40 * q, (64, 8, 8)),
                   rng.integers(-500, 500, (64, 8, 8)) + 0.5,
                   rng.integers(-500, 500, (64, 8, 8)) * (q / 2)):
        kept = coeffs.copy()
        levels = codec.quantize(coeffs, q)
        assert levels.dtype == np.int32
        assert np.array_equal(levels, oracles.quantize(kept, q))
        assert np.array_equal(coeffs, kept)


@pytest.mark.parametrize("q", [0, -3])
def test_quantize_rejects_a_quantiser_below_one(q):
    with pytest.raises(ValueError):
        codec.quantize(np.zeros(4), q)


def _reconstructs_like_the_formula(pred, levels, t, q):
    h, w = pred.shape
    got = codec._reconstruct_plane(pred, levels.copy(), -(-h // t), -(-w // t), q, h, w)
    assert got.dtype == np.uint8 and got.shape == pred.shape
    assert np.array_equal(got, oracles.reconstruct_plane(pred, levels, t, q))


@pytest.mark.parametrize("q", [1, 3, 4, 12, 20])
def test_reconstruction_rounds_dc_residual_halves_like_the_formula(q):
    """DC-only 8x8 blocks whose residual is k + 1/2, level * q = 4 (mod 8):
    exactly on some blocks, an ulp off it after the inverse DCT on others."""
    rng = np.random.default_rng(q)
    dc = [level for level in range(-300, 301) if level * q % 8 == 4]
    pred = rng.integers(0, 256, (24, 40)).astype(np.uint8)
    levels = np.zeros((3 * 5, 8, 8), np.int32)
    levels[:, 0, 0] = rng.choice(dc, len(levels))
    _reconstructs_like_the_formula(pred, levels, 8, q)


@pytest.mark.parametrize("fill", [0, 255])
@pytest.mark.parametrize("q", [1, 10, 31])
def test_reconstruction_clips_like_the_formula(fill, q):
    rng = np.random.default_rng(q + fill)
    pred = np.full((24, 40), fill, np.uint8)
    levels = rng.integers(-2000, 2001, (3 * 5, 8, 8)).astype(np.int32)
    _reconstructs_like_the_formula(pred, levels, 8, q)


@pytest.mark.parametrize("h, w", [(13, 22), (30, 46)])
@pytest.mark.parametrize("t", [2, 4, 8])
def test_partial_edge_blocks_reconstruct_like_the_formula(t, h, w):
    rng = np.random.default_rng(t * 100 + h)
    pred = rng.integers(0, 256, (h, w)).astype(np.uint8)
    levels = rng.integers(-60, 61, (-(-h // t) * -(-w // t), t, t)).astype(np.int32)
    levels[rng.random(levels.shape) < 0.7] = 0
    _reconstructs_like_the_formula(pred, levels, t, 3)


@pytest.mark.parametrize("q", [1, 6, 31])
@pytest.mark.parametrize("h, w", [(13, 22), (30, 46), (32, 48)])
@pytest.mark.parametrize("t", [2, 4, 8])
def test_encode_plane_is_the_formula_and_the_sequential_writer(t, h, w, q):
    rng = np.random.default_rng(t * 1000 + h * 10 + q)
    cur = rng.integers(0, 256, (h, w)).astype(np.uint8)
    # a compensated plane is a view into the padded tiles
    pred = rng.integers(0, 256, (h + 5, w + 3)).astype(np.uint8)[:h, :w]
    recon, chunks = codec._encode_plane(cur, pred, t, q)
    want_recon, want_chunks = oracles.encode_plane(cur, pred, t, q)
    assert recon.dtype == np.uint8 and np.array_equal(recon, want_recon)
    assert chunks == want_chunks


def test_motion_compensate_rejects_a_grid_that_does_not_cover_the_frame():
    ref = random_frame(40, 26, np.random.default_rng(0))
    with pytest.raises(ValueError, match="motion grid 5x3 does not cover 40x26"):
        codec.motion_compensate(ref, BlockMotionField(8, np.zeros((3, 5, 2), np.int32)))


# --- config limits ----------------------------------------------------------------

@pytest.mark.parametrize("field", ["q", "gop_size"])
def test_config_rejects_values_beyond_header_fields(field):
    assert getattr(CodecConfig("zero", **{field: 65535}), field) == 65535
    for bad in (0, 65536, 70000):
        with pytest.raises(ValueError):
            CodecConfig("zero", **{field: bad})


def test_config_takes_only_the_mode_by_position():
    assert CodecConfig("zero", q=7, gop_size=3).gop_size == 3
    with pytest.raises(TypeError):
        CodecConfig("zero", 7)


@pytest.mark.parametrize("fps", [(25, 0), (-25, 1), (2 ** 32, 1)])
def test_encode_rejects_frame_rates_the_header_cannot_carry(frames, fps):
    with pytest.raises(ValueError):
        encode_sequence(frames, CodecConfig("zero"), fps=fps)


# --- malformed streams ------------------------------------------------------------

def _with_header(stream: bytes, **changes) -> bytes:
    names = ("magic", "w", "h", "q", "bs", "mode", "gop", "count", "fps_num", "fps_den")
    fields = dict(zip(names, _HEADER.unpack_from(stream)))
    fields.update(changes)
    return _HEADER.pack(*fields.values()) + stream[HEADER_SIZE:]


def test_decode_rejects_trailing_bytes(frames):
    stream = _encode(frames, "zero").bitstream
    with pytest.raises(BitstreamError, match="trailing"):
        decode_sequence(stream + b"garbage")
    with pytest.raises(BitstreamError, match="trailing"):
        decode_sequence(stream + b"\x00")


def test_decode_rejects_truncated_stream(frames):
    stream = _encode(frames, "internal-hex").bitstream
    with pytest.raises(BitstreamError):
        decode_sequence(stream[:-1])


@pytest.mark.parametrize("change", [{"fps_den": 0}, {"w": 0}, {"h": 0}])
def test_decode_rejects_malformed_header(frames, change):
    stream = _encode(frames, "zero").bitstream
    assert _with_header(stream) == stream
    bad = _with_header(stream, **change)
    with pytest.raises(BitstreamError):
        read_bitstream_info(bad)
    with pytest.raises(BitstreamError):
        decode_sequence(bad)



def oversized_stream(what: str) -> bytes:
    """A 16x16 stream whose first intra level ("level") or first P-frame
    vector component ("vector") is 2**31, one past the int32 range."""
    writer = BitWriter()
    if what == "level":
        writer.write_bytes(_HEADER.pack(MAGIC, 16, 16, 5, 16, 0, 100, 1, 25, 1))
        writer.write_bits(0, 8)
        writer.write_se(2 ** 31)
        writer.write_ue(0)
    else:
        intra = encode_sequence([flat_frame(16, 16)], CodecConfig("zero")).bitstream
        writer.write_bytes(_with_header(intra, count=2))
        writer.write_bits(1, 8)
        writer.write_se(2 ** 31)
        writer.write_se(0)
    writer.align()
    return writer.getvalue()


@pytest.mark.parametrize("what", ["level", "vector"])
def test_decode_rejects_values_beyond_int32(what):
    with pytest.raises(BitstreamError, match="out of range"):
        decode_sequence(oversized_stream(what))


# --- the array coders against the sequential oracle ---------------------------------

@pytest.mark.parametrize("gop", [1, 2])
@pytest.mark.parametrize("block_size", [4, 8, 16])
@pytest.mark.parametrize("mode", MOTION_MODES)
def test_frame_bit_counts_equal_the_sequential_reading(frames, mode, block_size, gop):
    result = _encode(frames, mode, block_size, gop)
    decoded, bits = decode_sequential(result.bitstream)
    assert [(s.bits_motion, s.bits_residual, s.bits_header) for s in result.stats] == bits
    for rec, dec in zip(result.recon, decoded):
        assert np.array_equal(rec.y, dec.y) and np.array_equal(rec.u, dec.u)
        assert np.array_equal(rec.v, dec.v)


def assert_writes_like_the_sequential_writer(scanned: np.ndarray) -> None:
    """`codec._write_levels` of blocks of scanned int32 levels gives one
    (bits, length) per chunk, whose bits are those of the blocks' codes
    written one at a time by `write_block_levels`."""
    chunks = codec._write_levels(scanned)
    assert len(chunks) == -(-len(scanned) // codec._CHUNK_BLOCKS)
    slow = BitWriter()
    for block in scanned:
        write_block_levels(slow, block)
    assert sum(count for _, count in chunks) == slow.bit_length
    slow.align()
    assert joined(0, *chunks) == slow.getvalue()


def test_run_level_writer_matches_the_sequential_writer():
    rng = np.random.default_rng(3)
    extremes = np.array([2 ** 31 - 1, -(2 ** 31), 1, -1], np.int32)
    for size in (4, 16, 64):
        nblocks = codec._CHUNK_BLOCKS + 37  # two chunks, the second partial
        for density in (0.0, 0.05, 0.5, 1.0):
            scanned = rng.integers(-40, 41, (nblocks, size)).astype(np.int32)
            scanned[rng.random((nblocks, size)) >= density] = 0
            scanned[::5] = 0  # empty blocks
            scanned[1::7, -1] = rng.choice(extremes, len(scanned[1::7]))
            assert_writes_like_the_sequential_writer(scanned)


WRITER_SIZES = [t * t for t in sorted({t for bs in LUMA_BLOCK_SIZES
                                       for t in codec._transform_sizes(bs)})]


@pytest.mark.parametrize("size", WRITER_SIZES)
def test_run_level_fields_end_at_every_bit_of_a_word(size):
    """lead empty blocks, whose EOBs shift every bit after them, then a
    block of the widest pair (an int32 level after size - 1 zeros), then a
    block of a 4-bit pair (level 1 after no zeros) and an int32 level. As
    lead runs over 0-63, each pair's field ends at every bit offset of a
    word, and the 46 value bits of the widest one cross a word's end from
    45 of those offsets."""
    for lead in range(64):
        scanned = np.zeros((lead + 2, size), np.int32)
        scanned[lead, -1] = -(2 ** 31)
        scanned[lead + 1, [0, size // 2]] = 1, 2 ** 31 - 1
        assert_writes_like_the_sequential_writer(scanned)


@pytest.mark.parametrize("size", WRITER_SIZES)
def test_run_level_writer_codes_the_widest_pairs(size):
    """An int32-extreme level after a run of t * t - 1 zeros, in blocks
    after an empty one, after a block whose last level is nonzero (a run
    of t * t - 1 either way) and after a block whose nonzero level is its
    first."""
    scanned = np.zeros((8, size), np.int32)
    scanned[1, -1] = -(2 ** 31)
    scanned[2, -1] = 2 ** 31 - 1
    scanned[3, 0] = -(2 ** 31)
    scanned[4, -1] = -(2 ** 31)
    scanned[6:, -1] = 2 ** 31 - 1, -(2 ** 31)
    assert_writes_like_the_sequential_writer(scanned)


@pytest.mark.parametrize("size", WRITER_SIZES)
def test_run_level_writer_codes_a_chunk_of_empty_blocks(size):
    scanned = np.zeros((codec._CHUNK_BLOCKS, size), np.int32)
    assert codec._write_levels(scanned) == [((1 << codec._CHUNK_BLOCKS) - 1,
                                             codec._CHUNK_BLOCKS)]
    assert_writes_like_the_sequential_writer(scanned)


@pytest.mark.parametrize("size", WRITER_SIZES)
def test_run_level_writer_codes_a_single_block_chunk(size):
    for levels in ([], [0], [size - 1], [0, size - 1], range(size)):
        scanned = np.zeros((1, size), np.int32)
        scanned[0, list(levels)] = np.arange(-len(levels), 0) * 1000003
        assert_writes_like_the_sequential_writer(scanned)
    # A single block after a whole chunk.
    scanned = np.zeros((codec._CHUNK_BLOCKS + 1, size), np.int32)
    scanned[-1, -1] = 5
    assert_writes_like_the_sequential_writer(scanned)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WRITER_SIZES), st.integers(1, codec._CHUNK_BLOCKS + 20),
       st.floats(0, 1), st.integers(1, 32), st.integers(0, 2 ** 32 - 1))
def test_run_level_writer_matches_the_sequential_writer_on_random_levels(size, blocks, density,
                                                                          magnitude, seed):
    """Random scanned blocks of int32 levels of up to magnitude bits, any
    density, in one chunk or two."""
    rng = np.random.default_rng(seed)
    scanned = rng.integers(-(2 ** (magnitude - 1)), 2 ** (magnitude - 1), (blocks, size),
                           dtype=np.int64, endpoint=True).clip(_INT32.min, _INT32.max)
    scanned[rng.random((blocks, size)) >= density] = 0
    assert_writes_like_the_sequential_writer(scanned.astype(np.int32))


def test_large_frames_round_trip():
    """A payload longer than several parse ranges, with more blocks per
    plane than a chunk."""
    rng = np.random.default_rng(5)
    frames = [random_frame(352, 288, rng, n) for n in range(2)]
    result = encode_sequence(frames, CodecConfig("zero", q=1, block_size=16))
    assert min(s.bits_total for s in result.stats) > 4 * codec._MAX_RANGE_BITS
    assert (288 // 8) * (352 // 8) > 4 * codec._CHUNK_BLOCKS
    for rec, dec in zip(result.recon, decode_sequence(result.bitstream)):
        assert np.array_equal(rec.y, dec.y) and np.array_equal(rec.u, dec.u)
        assert np.array_equal(rec.v, dec.v)


def test_frames_of_several_parse_ranges_decode_like_the_sequential_decoder(monkeypatch):
    """A flat intra frame ends early in the first parse range, and the noisy
    frame after it rejoins the codes parsed past that end; each noisy frame
    needs several full ranges. The payload is parsed in ranges of
    _MAX_RANGE_BITS, none cut short at a frame's end: each later range
    starts at a code start that the range before it returned, past that
    range's first half."""
    rng = np.random.default_rng(8)
    frames = [flat_frame(176, 144, 0, 0)] + [random_frame(176, 144, rng, n) for n in (1, 2)]
    result = encode_sequence(frames, CodecConfig("zero", q=1, block_size=8, gop_size=1))
    bits = [s.bits_residual for s in result.stats]
    assert bits[0] < codec._MAX_RANGE_BITS and min(bits[1:]) > 2 * codec._MAX_RANGE_BITS
    calls = parser_calls(monkeypatch)
    returned = range_bounds(monkeypatch)
    decoded = decode_sequence(result.bitstream)
    assert decode_outcome(lambda _: decoded, b"") == decode_outcome(decode_one_code_at_a_time,
                                                                     result.bitstream)
    for rec, dec in zip(result.recon, decoded):
        assert np.array_equal(rec.y, dec.y) and np.array_equal(rec.u, dec.u)
    starts = first_codes(result.bitstream)
    ranges = [pos for pos, _ in returned]
    assert ranges[0] == starts[0]
    for (pos, bounds), after in zip(returned, ranges[1:]):
        assert after in bounds and after > pos + codec._MAX_RANGE_BITS // 2
    assert len(ranges) > sum(bits) // codec._MAX_RANGE_BITS
    assert [(kind, pos) for kind, pos, *_ in calls if kind == "rejoin"] == [
        ("rejoin", start) for start in starts[1:]]


# The bound that the contract under codec._RUN_BITS sets _MAX_RANGE_BITS
# above: the largest block's codes and one code.
RESTART_BITS = (codec._MAX_LEVELS * (2 * MAX_PREFIX + 1 + int(codec._RUN_BITS[-1])) + 1
                + 2 * MAX_PREFIX + 1)


@pytest.fixture(scope="module")
def short_range_clips() -> list[bytes]:
    """Streams of several RESTART_BITS per frame: q 1 noise at 4, 8 and 16
    px blocks, whose dense blocks straddle range ends, and an internal-hex
    clip, whose P frames' vector codes do too."""
    rng = np.random.default_rng(12)
    noise = [random_frame(48, 32, rng, n) for n in range(3)]
    clips = [encode_sequence(noise, CodecConfig("zero", q=1, block_size=bs)).bitstream
             for bs in (4, 8, 16)]
    clip = translating_frames(48, 32, 3, dx=4, dy=-2, seed=9)
    config = CodecConfig("internal-hex", q=1, block_size=4, search_range=8)
    return clips + [encode_sequence(clip, config).bitstream]


@pytest.mark.parametrize("range_bits", [RESTART_BITS, RESTART_BITS + 1, 3 * RESTART_BITS])
def test_short_parse_ranges_decode_like_the_sequential_decoder(monkeypatch, short_range_clips,
                                                               range_bits):
    """Ranges down to the contract's bound restart many times a frame, at the
    open block or odd vector code where the range before ran out; the clips
    and corruptions of them decode, or fail with the same error at the same
    bit, as reading one code at a time."""
    monkeypatch.setattr(codec, "_MAX_RANGE_BITS", range_bits)
    returned = range_bounds(monkeypatch)
    rng = np.random.default_rng(range_bits)
    for stream in short_range_clips:
        before = len(returned)
        assert_decodes_like_the_oracle(stream)
        assert len(returned) - before > 8 * len(stream) // range_bits
        for data in corruptions(stream, rng, 8):
            assert decode_outcome(decode_sequence, data) == decode_outcome(
                decode_one_code_at_a_time, data)


def range_bounds(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Records the pos and the returned bounds of every `CodeParser.codes`
    call."""
    returned, codes = [], bitstream.CodeParser.codes

    def recorded_codes(self, pos, stop):
        bounds = codes(self, pos, stop)
        returned.append((pos, bounds))
        return bounds

    monkeypatch.setattr(bitstream.CodeParser, "codes", recorded_codes)
    return returned


def parser_calls(monkeypatch) -> list[tuple]:
    """Records every `CodeParser.codes` call as ("codes", pos) and every
    `CodeParser.rejoin` as ("rejoin", pos, the codes read before it met the
    path it was handed) or, where it gave [pos] off that path, ("no rejoin",
    pos)."""
    calls, codes, rejoin = [], bitstream.CodeParser.codes, bitstream.CodeParser.rejoin

    def recorded_codes(self, pos, stop):
        calls.append(("codes", pos))
        return codes(self, pos, stop)

    def recorded_rejoin(self, pos, path):
        bounds = rejoin(self, pos, path)
        met = np.isin(bounds, path)
        calls.append(("rejoin", pos, int(met.argmax())) if met.any() else ("no rejoin", pos))
        return bounds

    monkeypatch.setattr(bitstream.CodeParser, "codes", recorded_codes)
    monkeypatch.setattr(bitstream.CodeParser, "rejoin", recorded_rejoin)
    return calls


def first_codes(stream: bytes) -> list[int]:
    """The bit of every frame's first code, after its type byte."""
    starts, p = [], HEADER_SIZE * 8
    for frame_bits in decode_sequential(stream)[1]:
        starts.append(p + 8)
        p += sum(frame_bits)
    return starts


def decode_outcome(decode, data: bytes):
    """The decoded planes, or the message of the BitstreamError raised."""
    try:
        frames = decode(data)
    except BitstreamError as exc:
        return str(exc)
    return [(f.y.tolist(), f.u.tolist(), f.v.tolist()) for f in frames]


def decode_one_code_at_a_time(data: bytes):
    return decode_sequential(data)[0]


def vector_sections(stream: bytes) -> list[tuple[int, int]]:
    """The bit range of every P frame's vector codes."""
    sections, p = [], HEADER_SIZE * 8
    for motion, residual, header in decode_sequential(stream)[1]:
        if motion:
            sections.append((p + 8, p + 8 + motion))
        p += motion + residual + header
    return sections


def corruptions(stream: bytes, rng, count: int):
    """Seeded bit flips (mostly in the payload), truncations, appended bytes,
    zeroed byte spans (long exp-Golomb prefixes), bit flips or zeroed spans
    in a P frame's vector codes, a header that claims more frames (a few
    more overrun after the last one, far more fail the payload-size check),
    and bit flips or zeroed spans in the first codes of a frame after the
    first, where the codes parsed past the frame before are rejoined."""
    sections = vector_sections(stream)
    starts = first_codes(stream)[1:]
    for k in range(count):
        data = bytearray(stream)
        kind = k % 8
        if kind < 2:
            for _ in range(1 + kind * int(rng.integers(1, 4))):
                lo = 0 if rng.random() < 0.1 else HEADER_SIZE * 8
                bit = int(rng.integers(lo, 8 * len(data)))
                data[bit >> 3] ^= 0x80 >> (bit & 7)
        elif kind == 2:
            data = data[:int(rng.integers(HEADER_SIZE, len(data)))]
        elif kind == 3:
            data += rng.integers(0, 256, int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
        elif kind == 4:
            at = int(rng.integers(HEADER_SIZE + 1, len(data)))
            span = min(int(rng.integers(7, 11)), len(data) - at)
            data[at:at + span] = bytes(span)
        elif kind == 5:
            lo, hi = sections[int(rng.integers(len(sections)))]
            if rng.random() < 0.5:
                for _ in range(int(rng.integers(1, 4))):
                    bit = int(rng.integers(lo, hi))
                    data[bit >> 3] ^= 0x80 >> (bit & 7)
            else:
                at = int(rng.integers(lo, hi)) >> 3
                span = min(int(rng.integers(4, 7)), len(data) - at)
                data[at:at + span] = bytes(span)
        elif kind == 6:
            fields = list(_HEADER.unpack_from(data))  # fields[7] is the frame count
            fields[7] += int(rng.integers(1, 5) if rng.random() < 0.5 else rng.integers(1000, 1 << 20))
            data[:HEADER_SIZE] = _HEADER.pack(*fields)
        else:
            start = starts[int(rng.integers(len(starts)))]
            if rng.random() < 0.5:
                for _ in range(int(rng.integers(1, 4))):
                    bit = start + int(rng.integers(0, 24))
                    data[bit >> 3] ^= 0x80 >> (bit & 7)
            else:
                at = start >> 3
                data[at:at + 5] = bytes(5)  # a first code of more than 32 zeros
        yield bytes(data)


ERROR_KINDS = ("overrun", "prefix too long", "run overflows", "level out of range",
               "vector out of range", "frame type", "trailing", "payload bytes", "header",
               "magic", "mode id")


def test_corrupted_streams_decode_or_fail_like_the_sequential_decoder():
    frames = translating_frames(24, 16, 3, dx=2, dy=2, seed=3)
    rng = np.random.default_rng(2024)
    seen = Counter()
    for mode, block_size in (("zero", 4), ("internal-hex", 8), ("flow-median", 16),
                             ("hybrid-mean", 4), ("flow-mean", 8), ("internal-diamond", 16)):
        config = CodecConfig(mode, q=3, gop_size=2, block_size=block_size, search_range=4)
        stream = encode_sequence(frames, config, StubProvider(), "seq").bitstream
        for k, data in enumerate(corruptions(stream, rng, 112)):
            outcome = decode_outcome(decode_sequence, data)
            assert outcome == decode_outcome(decode_one_code_at_a_time, data)
            if isinstance(outcome, str):
                seen.update(kind for kind in ERROR_KINDS if kind in outcome)
                if k % 8 == 7:
                    seen["first codes"] += 1
            else:
                seen["decoded"] += 1
    # The fuzz reaches clean decodes and the errors of every layer, also
    # from damaged first codes of a frame.
    assert {"decoded", "overrun", "prefix too long", "run overflows", "vector out of range",
            "frame type", "trailing", "payload bytes", "first codes"} <= seen.keys(), seen


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_pieces_of_a_few_codes_decode_like_the_sequential_decoder(monkeypatch, chunk):
    """Pieces of 1, 2, 3 and 7 codes: their edges fall on EOBs, inside open
    blocks, between a P frame's vector codes and its residual, and next to
    the codes whose errors the corrupted streams raise."""
    frames = translating_frames(24, 16, 4, dx=2, dy=2, seed=3)
    config = CodecConfig("internal-hex", q=8, gop_size=2, block_size=4, search_range=4)
    stream = encode_sequence(frames, config).bitstream
    monkeypatch.setattr(codec, "_CHUNK_CODES", chunk)
    assert_decodes_like_the_oracle(stream)
    for data in corruptions(stream, np.random.default_rng(chunk), 16):
        assert decode_outcome(decode_sequence, data) == decode_outcome(
            decode_one_code_at_a_time, data)


# --- hand-made streams at the limits ------------------------------------------------

def intra_stream(pairs, closing: int = 6) -> bytes:
    """A one-frame 16x16 intra stream at block size 16 (four 8x8 luma and two
    8x8 chroma transforms) whose first block holds the (level, run) pairs,
    followed by `closing` EOBs."""
    writer = BitWriter()
    writer.write_bytes(_HEADER.pack(MAGIC, 16, 16, 5, 16, 0, 100, 1, 25, 1))
    writer.write_bits(0, 8)
    for level, run in pairs:
        writer.write_se(level)
        writer.write_ue(run)
    for _ in range(closing):
        writer.write_se(0)
    writer.align()
    return writer.getvalue()


def assert_decodes_like_the_oracle(data: bytes, error: str | None = None):
    outcome = decode_outcome(decode_sequence, data)
    assert outcome == decode_outcome(decode_one_code_at_a_time, data)
    if error is None:
        assert not isinstance(outcome, str), outcome
    else:
        assert isinstance(outcome, str) and error in outcome, outcome


def test_level_range_is_exactly_int32():
    assert_decodes_like_the_oracle(intra_stream([(-(2 ** 31), 0), (2 ** 31 - 1, 0)]))
    assert_decodes_like_the_oracle(intra_stream([(2 ** 31, 0)]), "level out of range")
    assert_decodes_like_the_oracle(intra_stream([(-(2 ** 31) - 1, 0)]), "level out of range")


def test_run_may_end_on_the_last_coefficient_but_not_past_it():
    assert_decodes_like_the_oracle(intra_stream([(1, 63)]))
    assert_decodes_like_the_oracle(intra_stream([(1, 0), (2, 62)]))
    assert_decodes_like_the_oracle(intra_stream([(1, 64)]), "run overflows block")
    assert_decodes_like_the_oracle(intra_stream([(1, 0), (2, 63)]), "run overflows block")
    # More pairs than coefficients, every run 0: the 65th lands past the block.
    assert_decodes_like_the_oracle(intra_stream([(1, 0)] * 64))
    assert_decodes_like_the_oracle(intra_stream([(1, 0)] * 65), "run overflows block")


def test_longest_prefix_parses_and_one_more_zero_raises():
    # A level of 2**31 is coded with 32 zeros: it parses, then is out of range.
    assert_decodes_like_the_oracle(intra_stream([(2 ** 31, 0)]), "level out of range")
    assert_decodes_like_the_oracle(intra_stream([(1, 2 ** 33 - 2)]), "run overflows block")
    assert_decodes_like_the_oracle(intra_stream([(1, 2 ** 33 - 1)]), "prefix too long")


def test_first_error_in_stream_order_wins():
    # The out-of-range level comes before the EOBs that are missing.
    assert_decodes_like_the_oracle(intra_stream([(2 ** 31, 0)], closing=0), "level out of range")
    assert_decodes_like_the_oracle(intra_stream([(1, 0)], closing=0), "overrun")


def p_frame_stream(diffs, rows: int = 1, cols: int = 2, block_size: int = 16,
                   intra: Frame | None = None) -> bytes:
    """An intra frame (flat unless given) of rows x cols blocks, then a P
    frame whose block vectors differ from their predictors by diffs, and an
    empty residual. A difference of None writes a prefix of MAX_PREFIX + 1
    zeros, which no reader takes."""
    w, h = cols * block_size, rows * block_size
    intra = encode_sequence([flat_frame(w, h) if intra is None else intra],
                            CodecConfig("zero", block_size=block_size)).bitstream
    writer = BitWriter()
    writer.write_bytes(_with_header(intra, count=2))
    writer.write_bits(1, 8)
    for d in diffs:
        if d is None:
            writer.write_bits(1, MAX_PREFIX + 2)
        else:
            writer.write_se(d)
    luma, chroma, _ = codec._transform_sizes(block_size)
    for _ in range(w * h // luma ** 2 + w * h // (2 * chroma ** 2)):  # one EOB per transform
        writer.write_se(0)
    writer.align()
    return writer.getvalue()


def differences(field: np.ndarray) -> list[int]:
    """The coded differences of a (rows, cols, 2) vector field."""
    return (np.asarray(field, np.int64) - median_predictors(field)).ravel().tolist()


def decoded_vectors(monkeypatch, data: bytes) -> list[np.ndarray]:
    """The vector fields that `decode_sequence` predicts its P frames with."""
    fields, prediction = [], codec._prediction

    def recorded(ref, vectors, *args):
        if vectors is not None:
            fields.append(vectors)
        return prediction(ref, vectors, *args)

    monkeypatch.setattr(codec, "_prediction", recorded)
    decode_sequence(data)
    return fields


def test_vector_range_is_exactly_int32():
    # The second block's predictor is (0, 0): the median of its left
    # neighbour and two absent ones.
    extremes = [2 ** 31 - 1, -(2 ** 31)]
    assert_decodes_like_the_oracle(p_frame_stream(extremes + extremes[::-1]))
    assert_decodes_like_the_oracle(p_frame_stream([2 ** 31 - 1, -(2 ** 31), 0, 2 ** 31]),
                                   "motion vector out of range")
    assert_decodes_like_the_oracle(p_frame_stream([-(2 ** 31) - 1, 0, 0, 0]),
                                   "motion vector out of range")


@pytest.mark.parametrize("top, bottom", [(-(2 ** 31), 2 ** 31 - 1), (2 ** 31 - 1, -(2 ** 31))])
def test_largest_vector_difference_takes_the_longest_code(top, bottom):
    """A row of int32 extremes above the other extreme: the second row's
    first predictor is the row above, so its difference is 2**32 - 1 in
    size, the largest value a valid stream carries."""
    assert ue_bits(se_to_ue(-(2 ** 32 - 1))) == 2 * MAX_PREFIX + 1
    field = [[(top, top)] * 2, [(bottom, bottom)] * 2]
    diffs = []
    for r, row in enumerate(field):
        for c, (dx, dy) in enumerate(row):
            p = median_predictor(field, c, r)
            diffs += [dx - p.dx, dy - p.dy]
    assert max(map(abs, diffs)) == 2 ** 32 - 1
    assert_decodes_like_the_oracle(p_frame_stream(diffs, rows=2))


def test_vector_codes_span_several_parse_ranges(monkeypatch):
    """4096 blocks of 4 px with differences near 2**20 and 2**30: their
    codes fill more than one parse range of the P frame."""
    rng = np.random.default_rng(19)
    field = rng.integers(-(2 ** 30), 2 ** 30, (64, 64, 2))
    field[::2] >>= 10
    diffs = differences(field)
    data = p_frame_stream(diffs, 64, 64, 4, random_frame(256, 256, rng))
    assert_decodes_like_the_oracle(data)
    (start, end), = vector_sections(data)
    ranges, codes = [], bitstream.CodeParser.codes

    def recorded(self, pos, stop):
        ranges.append(pos)
        return codes(self, pos, stop)

    monkeypatch.setattr(bitstream.CodeParser, "codes", recorded)
    assert np.array_equal(decoded_vectors(monkeypatch, data)[0], field)
    assert any(start < pos < end for pos in ranges)


def test_vector_out_of_range_before_a_bad_prefix_raises_the_vector_error():
    # Block 0 is out of range; a later vector code has 33 zeros.
    for bad in (2, 3, 4, 7):
        diffs = [2 ** 31, 0, 0, 0, 0, 0, 0, 0]
        diffs[bad] = None
        assert_decodes_like_the_oracle(p_frame_stream(diffs, rows=2),
                                       "frame 1: motion vector out of range")


def test_bad_prefix_before_a_vector_out_of_range_raises_the_prefix_error():
    # Block 1 is out of range; a code before its dy, or its dy, has 33 zeros.
    for bad in (0, 1, 2, 3):
        diffs = [0, 0, 0, -(2 ** 31) - 1, 0, 0, 0, 0]
        diffs[bad] = None
        assert_decodes_like_the_oracle(p_frame_stream(diffs, rows=2), "prefix too long")


@pytest.mark.parametrize("rows, cols", [(1, 7), (7, 1), (2, 2), (5, 6)])
def test_vectors_at_the_int32_extremes_settle_within_the_bound(monkeypatch, rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    extremes = np.array([_INT32.min, _INT32.min + 1, -1, 0, 1, _INT32.max - 1, _INT32.max])
    field = rng.choice(extremes, (rows, cols, 2))
    data = p_frame_stream(differences(field), rows, cols)
    assert_decodes_like_the_oracle(data)
    assert np.array_equal(decoded_vectors(monkeypatch, data)[0], field)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (5, 6), (9, 11)])
def test_vector_fields_decode_like_the_sequential_decoder(monkeypatch, rows, cols):
    """Seeded fields of int32 extremes and random int32 vectors, whose
    differences go up to 2**32 - 1 in size; in half of them one difference
    in mid-grid leads its vector just outside int32, which raises at the
    end of its block, before any later block is read."""
    rng = np.random.default_rng(rows * 100 + cols)
    extremes = np.array([_INT32.min, _INT32.min + 1, -1, 0, 1, _INT32.max - 1, _INT32.max])
    for k in range(6):
        field = np.where(rng.random((rows, cols, 2)) < 0.3,
                         rng.integers(_INT32.min, _INT32.max, (rows, cols, 2), endpoint=True),
                         rng.choice(extremes, (rows, cols, 2)))
        diffs = differences(field)
        assert max(map(abs, diffs)) < 2 ** 32
        if k % 2 == 0:
            data = p_frame_stream(diffs, rows, cols)
            assert_decodes_like_the_oracle(data)
            assert np.array_equal(decoded_vectors(monkeypatch, data)[0], field)
            continue
        block = int(rng.integers(rows * cols // 2, rows * cols))
        component = int(rng.integers(2))
        predictor = median_predictors(field).reshape(-1, 2)[block, component]
        outside = _INT32.max + 1 if predictor >= 0 else _INT32.min - 1
        diffs[2 * block + component] = int(outside - predictor)
        assert_decodes_like_the_oracle(p_frame_stream(diffs, rows, cols),
                                       "frame 1: motion vector out of range")


# --- frames that rejoin the codes parsed past the frame before ------------------------

def test_intra_frames_rejoin_across_their_type_bytes(monkeypatch):
    """In a stream of intra frames each frame starts with type byte 0x00
    after the zero padding of the one before; the codes parsed past a
    frame's end cross both, and the next frame rejoins them."""
    clip = translating_frames(W, H, 5, dx=4, dy=2, seed=7)
    stream = encode_sequence(clip, CodecConfig("zero", q=6, gop_size=1, block_size=8)).bitstream
    starts = first_codes(stream)
    assert [stream[start // 8 - 1] for start in starts] == [0] * 5
    calls = parser_calls(monkeypatch)
    assert_decodes_like_the_oracle(stream)
    assert [(kind, pos) for kind, pos, *_ in calls] == (
        [("no rejoin", starts[0]), ("codes", starts[0])] + [("rejoin", start) for start in starts[1:]])


def two_intra_frames(first: int | None) -> bytes:
    """Two empty 16x16 intra frames at block size 16; the first block of the
    second holds one pair whose level is first, or whose level code is a
    prefix of MAX_PREFIX + 1 zeros if first is None. The first frame's six
    EOBs leave two bits of padding."""
    writer = BitWriter()
    writer.write_bytes(_HEADER.pack(MAGIC, 16, 16, 5, 16, 0, 1, 2, 25, 1))
    writer.write_bits(0, 8)
    for _ in range(6):
        writer.write_se(0)
    assert writer.align() == 2
    writer.write_bits(0, 8)
    if first is None:
        writer.write_bits(1, MAX_PREFIX + 2)
    else:
        writer.write_se(first)
    writer.write_ue(0)
    for _ in range(6):
        writer.write_se(0)
    writer.align()
    return writer.getvalue()


def test_a_parse_refused_at_a_frame_boundary_leaves_the_next_frame_a_fresh_parse(monkeypatch):
    """Two bits of padding, type byte 0x00 and a level code of 31 zeros: the
    codes parsed past the first frame stop at its end, where more than 32
    zeros lead, and the first frame needs no code there. The second frame
    parses afresh from its first code; with one zero more, that code is
    the error."""
    calls = parser_calls(monkeypatch)
    data = two_intra_frames(2 ** 31 - 1)
    assert ue_bits(se_to_ue(2 ** 31 - 1)) == 2 * 31 + 1
    assert_decodes_like_the_oracle(data)
    first, second = first_codes(data)
    assert calls == [("no rejoin", first), ("codes", first), ("no rejoin", second),
                     ("codes", second)]
    assert_decodes_like_the_oracle(two_intra_frames(None), f"prefix too long at bit {second + 33}")


@pytest.mark.parametrize("diff, read", [((1, 0), 3), ((0, 1), None)])
def test_a_parse_out_of_step_beyond_the_rejoin_window_is_not_rejoined(monkeypatch, diff, read):
    """A black 128x128 intra frame at block size 4 ends on a byte, so the
    codes parsed past it read type byte 0x01 and re-enter the P frame's
    vector codes 7 bits in. Differences (0, 1) on every block code as
    1 010 1 010 ..., whose codes start 0 and 1 bits past a multiple of 4,
    while the carried parse steps on 3 and 2 past one: the two never meet,
    and after _REJOIN_BITS the P frame is parsed afresh. Differences (1, 0)
    code as 010 1 010 1 ..., which start at bit 7: the serial read meets
    the carried parse after 3 codes."""
    rows = cols = 32
    data = p_frame_stream(list(diff) * rows * cols, rows, cols, 4, flat_frame(128, 128, 0))
    assert decode_sequential(data)[1][0] == (0, 3072, 8)  # no padding
    (start, end), = vector_sections(data)
    assert end - start > 2 * bitstream._REJOIN_BITS
    calls = parser_calls(monkeypatch)
    assert_decodes_like_the_oracle(data)
    assert calls[2:] == ([("no rejoin", start), ("codes", start)] if read is None else
                         [("rejoin", start, read)])


def test_a_qcif_stream_shorter_than_a_parse_range_is_parsed_in_one_call(monkeypatch):
    clip = translating_frames(176, 144, 3, dx=4, dy=2, seed=5)
    result = encode_sequence(clip, CodecConfig("internal-hex", q=10, block_size=16))
    assert 8 * len(result.bitstream) < codec._MAX_RANGE_BITS
    calls = parser_calls(monkeypatch)
    for rec, dec in zip(result.recon, decode_sequence(result.bitstream), strict=True):
        assert np.array_equal(rec.y, dec.y) and np.array_equal(rec.u, dec.u)
        assert np.array_equal(rec.v, dec.v)
    assert [call for call in calls if call[0] == "codes"] == [("codes", (HEADER_SIZE + 1) * 8)]


# --- header against payload ---------------------------------------------------------

def test_header_claiming_more_than_the_payload_holds_is_rejected():
    forged = _HEADER.pack(MAGIC, 65534, 65534, 5, 16, 0, 100, 1, 25, 1) + bytes(16)
    assert len(forged) == 42
    with pytest.raises(BitstreamError, match="payload bytes"):
        decode_sequence(forged)


@pytest.mark.parametrize("block_size, w, h", [(4, 20, 14), (8, 40, 24), (16, 34, 18)])
def test_payload_size_check_is_tight(block_size, w, h):
    """Black frames in zero mode code every block empty: the smallest payload
    a header allows, which must decode, while one byte less must not."""
    frames = [flat_frame(w, h, 0, n) for n in range(5)]
    stream = encode_sequence(frames, CodecConfig("zero", block_size=block_size,
                                                 gop_size=2)).bitstream
    assert len(decode_sequence(stream)) == 5
    least = len(stream) - HEADER_SIZE
    with pytest.raises(BitstreamError, match=f"at least {least} payload bytes"):
        decode_sequence(stream[:-1])
