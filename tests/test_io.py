import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcodec.io import (
    FloError,
    SequenceHeader,
    Y4MError,
    read_flo,
    read_metrics_csv,
    read_pgm,
    read_y4m,
    write_flo,
    write_metrics,
    write_pgm,
    write_y4m,
)
from flowcodec.metrics import RDPoint
from flowcodec.model import Frame

from synth import random_frame

FLO_HEADER = struct.pack("<fii", 202021.25, 1, 1)


# --- Y4M ---------------------------------------------------------------------

def test_read_minimal_y4m():
    payload = bytes(range(24))
    stream = b"YUV4MPEG2 W4 H4 F25:1 C420\nFRAME\n" + payload
    header, frames = read_y4m(stream)
    frames = list(frames)
    assert (header.width, header.height) == (4, 4)
    assert (header.fps_num, header.fps_den) == (25, 1)
    assert len(frames) == 1
    f = frames[0]
    assert f.y.shape == (4, 4) and f.u.shape == (2, 2) and f.v.shape == (2, 2)
    assert np.array_equal(f.y.reshape(-1), np.arange(16))
    assert np.array_equal(f.u.reshape(-1), np.arange(16, 20))
    assert np.array_equal(f.v.reshape(-1), np.arange(20, 24))


def test_truncated_frame_names_index():
    stream = (b"YUV4MPEG2 W4 H4 F25:1 C420\n"
              + b"FRAME\n" + bytes(24)
              + b"FRAME\n" + bytes(23))
    _, frames = read_y4m(stream)
    with pytest.raises(Y4MError, match="frame 1"):
        list(frames)


def test_bad_magic():
    with pytest.raises(Y4MError, match="signature"):
        read_y4m(b"YUVBOGUS W4 H4\nFRAME\n")


def test_unsupported_colorspace():
    with pytest.raises(Y4MError, match="colorspace"):
        read_y4m(b"YUV4MPEG2 W4 H4 F25:1 C444\n")


def test_missing_dimensions():
    with pytest.raises(Y4MError):
        read_y4m(b"YUV4MPEG2 F25:1 C420\n")


def test_write_empty_sequence_is_header_only():
    header = SequenceHeader(4, 4)
    assert write_y4m(header, []) == b"YUV4MPEG2 W4 H4 F25:1 C420\n"


def test_write_one_constant_frame():
    header = SequenceHeader(4, 4)
    frame = Frame(np.full((4, 4), 7, np.uint8), np.full((2, 2), 8, np.uint8),
                  np.full((2, 2), 9, np.uint8))
    data = write_y4m(header, [frame])
    assert data == (b"YUV4MPEG2 W4 H4 F25:1 C420\nFRAME\n"
                    + bytes([7] * 16) + bytes([8] * 4) + bytes([9] * 4))


def test_write_rejects_dimension_mismatch():
    header = SequenceHeader(8, 8)
    frame = Frame(np.zeros((4, 4), np.uint8), np.zeros((2, 2), np.uint8),
                  np.zeros((2, 2), np.uint8))
    with pytest.raises(Y4MError):
        write_y4m(header, [frame])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_y4m_roundtrips(half_w, half_h, n_frames, seed):
    w, h = half_w * 2, half_h * 2
    rng = np.random.default_rng(seed)
    frames = [random_frame(w, h, rng, i) for i in range(n_frames)]
    header = SequenceHeader(w, h, 30, 1)
    data = write_y4m(header, frames)
    header2, parsed = read_y4m(data)
    parsed = list(parsed)
    assert write_y4m(header2, parsed) == data  # write(read(s)) == s
    assert len(parsed) == n_frames
    for a, b in zip(frames, parsed):
        assert np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_parsed_header_roundtrips_extra_tokens():
    stream = b"YUV4MPEG2 W4 H4 F30000:1001 Ip A1:1 C420jpeg Xfoo\nFRAME\n" + bytes(24)
    header, frames = read_y4m(stream)
    assert write_y4m(header, list(frames)) == stream
    assert header.colorspace == "C420jpeg"
    assert (header.fps_num, header.fps_den) == (30000, 1001)


# --- .flo --------------------------------------------------------------------

def test_read_single_pixel_flo():
    data = FLO_HEADER + struct.pack("<ff", 1.5, -2.0)
    field = read_flo(data)
    assert field.shape == (1, 1, 2)
    assert field[0, 0, 0] == 1.5 and field[0, 0, 1] == -2.0


def test_flo_bad_magic():
    data = struct.pack("<fii", 202021.0, 1, 1) + struct.pack("<ff", 0, 0)
    with pytest.raises(FloError, match="magic"):
        read_flo(data)


def test_flo_truncated_payload():
    data = struct.pack("<fii", 202021.25, 4, 4) + b"\x00" * 16
    with pytest.raises(FloError, match="128 payload bytes"):
        read_flo(data)


def test_flo_bad_dimensions():
    with pytest.raises(FloError, match="dimensions"):
        read_flo(struct.pack("<fii", 202021.25, -1, 4))


def test_flo_rejects_nan():
    data = FLO_HEADER + struct.pack("<ff", float("nan"), 0.0)
    with pytest.raises(FloError, match="NaN"):
        read_flo(data)


def test_flo_sentinel_becomes_zero(caplog):
    data = FLO_HEADER + struct.pack("<ff", 1e10, 3.0)
    with caplog.at_level("WARNING"):
        field = read_flo(data)
    assert np.array_equal(field, np.zeros((1, 1, 2), np.float32))
    assert "1 unknown" in caplog.text


def test_write_flo_layout():
    field = np.zeros((2, 2, 2), np.float32)
    data = write_flo(field)
    assert data[:12] == struct.pack("<fii", 202021.25, 2, 2)
    assert data[12:] == b"\x00" * 32


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_flo_roundtrips(w, h, seed):
    rng = np.random.default_rng(seed)
    field = (rng.standard_normal((h, w, 2)) * 50).astype(np.float32)
    data = write_flo(field)
    parsed = read_flo(data)
    assert np.array_equal(parsed, field)
    assert write_flo(parsed) == data


# --- PGM ---------------------------------------------------------------------

def test_write_pgm_exact_bytes():
    plane = np.array([[0, 255], [128, 64]], np.uint8)
    assert write_pgm(plane) == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])


def test_pgm_roundtrip():
    rng = np.random.default_rng(11)
    plane = rng.integers(0, 256, (5, 9), dtype=np.uint8)
    assert np.array_equal(read_pgm(write_pgm(plane)), plane)


def test_read_pgm_rejects_other_formats():
    with pytest.raises(ValueError):
        read_pgm(b"P2\n2 2\n255\n....")


@pytest.mark.parametrize("dims", [b"-1 1", b"0 5", b"5 0", b"x 2", b"2 +2", b"1.5 2"])
def test_read_pgm_rejects_non_positive_or_non_integer_dimensions(dims):
    with pytest.raises(ValueError, match="width and height must be positive integers"):
        read_pgm(b"P5\n" + dims + b"\n255\n" + bytes(64))


@pytest.mark.parametrize("maxval", [b"x", b"65535", b"-255", b"+255", b"25.5"])
def test_read_pgm_rejects_maxvals_other_than_255(maxval):
    message = f"only maxval 255 supported, got {maxval.decode()}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_pgm(b"P5\n2 2\n" + maxval + b"\n" + bytes(4))


def test_read_pgm_takes_a_zero_padded_maxval():
    assert read_pgm(b"P5\n2 2\n0255\n" + bytes([1, 2, 3, 4])).tolist() == [[1, 2], [3, 4]]


# --- metrics records ----------------------------------------------------------

POINTS = [RDPoint("alley", "zero", 5, 1234.5, 38.25),
          RDPoint("alley", "internal-hex", 10, 432.0, 35.5)]


def test_metrics_csv_header_only_when_empty():
    assert write_metrics([], "csv") == b"sequence,mode,q,rate_bits_per_frame,psnr_db\n"


def test_metrics_json_roundtrip():
    data = write_metrics(POINTS, "json")
    assert json.loads(data) == [
        {"sequence": "alley", "mode": "zero", "q": 5, "rate_bits_per_frame": 1234.5,
         "psnr_db": 38.25},
        {"sequence": "alley", "mode": "internal-hex", "q": 10, "rate_bits_per_frame": 432.0,
         "psnr_db": 35.5},
    ]


def test_metrics_csv_roundtrip():
    data = write_metrics(POINTS, "csv")
    assert data == (b"sequence,mode,q,rate_bits_per_frame,psnr_db\n"
                    b"alley,zero,5,1234.5,38.25\nalley,internal-hex,10,432.0,35.5\n")
    assert read_metrics_csv(data) == POINTS


@pytest.mark.parametrize("text, message", [
    ("sequence,mode,q,psnr_db\na,zero,5,30\n", "missing column(s) rate_bits_per_frame"),
    ("", "missing column(s) sequence, mode, q, rate_bits_per_frame, psnr_db"),
    ("sequence,mode,q,rate_bits_per_frame,psnr_db\na,zero,5,1,30\na,zero,8\n",
     "line 3: expected 5 fields"),
    ("sequence,mode,q,rate_bits_per_frame,psnr_db\na,zero,5,1,30,7\n",
     "line 2: expected 5 fields"),
    ("sequence,mode,q,rate_bits_per_frame,psnr_db\na,zero,five,1,30\n", "line 2: invalid literal"),
])
def test_metrics_csv_rejects_malformed_tables(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_metrics_csv(text)


def test_metrics_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_metrics([], "xml")
