import hashlib

import numpy as np
import pytest

from flowcodec.bitstream import BitstreamError, BitWriter
from flowcodec.blockmatch import median_predictor
from flowcodec.codec import (
    _HEADER,
    HEADER_SIZE,
    HYBRID_MODES,
    MAGIC,
    MOTION_MODES,
    CodecConfig,
    decode_sequence,
    encode_sequence,
    read_bitstream_info,
    select_block_vector,
)
from flowcodec.flowadapt import downsample_flow
from flowcodec.model import block_grid

from synth import flat_frame, translating_frames

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


def test_encode_is_deterministic(frames):
    assert _encode(frames, "hybrid-median").bitstream == _encode(frames, "hybrid-median").bitstream


# --- hybrid decision contract ---------------------------------------------------

@pytest.mark.parametrize("noise", [0.0, 1.5, 6.0])
def test_hybrid_picks_flow_exactly_when_cheaper(frames, noise):
    cur, ref = frames[1], frames[0]
    bs = 8
    config = CodecConfig("hybrid-mean", q=6, block_size=bs, search_range=8)
    field = downsample_flow(StubProvider(noise).get_flow("s", 1, cur, ref), bs, "mean")
    cols, rows = block_grid(W, H, bs)
    vectors = np.zeros((rows, cols, 2), np.int32)
    flow_wins = 0
    for r in range(rows):
        for c in range(cols):
            predictor = median_predictor(vectors, c, r)
            flow_mv = field.vector(c, r)
            decision = select_block_vector("hybrid-mean", cur, ref, (c * bs, r * bs),
                                           config, predictor, flow_mv)
            assert decision.internal_mv is not None
            if decision.flow_cost < decision.internal_cost:
                assert decision.mv == flow_mv
                flow_wins += 1
            else:  # ties keep the internal candidate
                assert decision.mv == decision.internal_mv
            vectors[r, c] = decision.mv
    assert 0 < flow_wins < rows * cols  # both branches are exercised


def test_non_hybrid_decisions_have_no_candidates(frames):
    cur, ref = frames[1], frames[0]
    config = CodecConfig("zero", block_size=8, search_range=8)
    predictor = median_predictor(np.zeros((1, 1, 2), np.int32), 0, 0)
    flow_mv = downsample_flow(StubProvider().get_flow("s", 1, cur, ref), 8, "mean").vector(1, 1)
    for mode in MOTION_MODES:
        decision = select_block_vector(mode, cur, ref, (8, 8), config, predictor, flow_mv)
        assert (decision.internal_mv is None) == (mode not in HYBRID_MODES)
        if mode.startswith("flow"):
            assert decision.mv == flow_mv


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
