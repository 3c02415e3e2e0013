import csv
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from flowcodec.cli import EXIT_INPUT, EXIT_OK, main
from flowcodec.codec import _HEADER, HEADER_SIZE, MAGIC, CodecConfig, encode_sequence
from flowcodec.io import read_flo_file, read_metrics_csv, write_flo_file, write_metrics

from synth import constant_flow, random_flow, translating_frames, write_y4m_file
from test_codec import oversized_stream


@pytest.fixture
def y4m(tmp_path):
    return write_y4m_file(tmp_path / "clip.y4m", translating_frames(16, 16, 2))


@pytest.mark.parametrize("flag", ["--gop", "--q"])
def test_encode_rejects_header_overflow_as_input_error(y4m, tmp_path, capsys, flag):
    out = tmp_path / "clip.fcl"
    code = main(["encode", "--input", y4m, "--out", str(out), "--mode", "zero",
                 flag, "70000"])
    assert code == EXIT_INPUT == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_encode_rejects_bad_flow_timeout_before_estimating(y4m, tmp_path, capsys, timeout):
    out, marker = tmp_path / "clip.fcl", tmp_path / "ran"
    estimator = f"{sys.executable} -c \"open({str(marker)!r}, 'w')\""
    code = main(["encode", "--input", y4m, "--out", str(out), "--mode", "flow-mean",
                 "--provenance", "T2", "--estimator-cmd", estimator, f"--flow-timeout={timeout}"])
    assert code == EXIT_INPUT
    assert "positive finite number of seconds" in capsys.readouterr().err.split("error:", 1)[1]
    assert not out.exists() and not marker.exists()


def test_encode_recon_equals_decode_output(y4m, tmp_path):
    stream, recon, decoded = (tmp_path / name for name in ("c.fcl", "recon.y4m", "dec.y4m"))
    assert main(["encode", "--input", y4m, "--out", str(stream), "--mode", "internal-hex",
                 "--block-size", "8", "--recon", str(recon)]) == EXIT_OK
    assert main(["decode", "--input", str(stream), "--out", str(decoded)]) == EXIT_OK
    assert recon.read_bytes() == decoded.read_bytes()


@pytest.mark.parametrize("what", ["level", "vector"])
def test_decode_of_oversized_value_is_input_error(tmp_path, capsys, what):
    stream = tmp_path / "bad.fcl"
    stream.write_bytes(oversized_stream(what))
    assert main(["decode", "--input", str(stream), "--out", str(tmp_path / "o.y4m")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_decode_of_header_larger_than_its_payload_is_input_error(tmp_path, capsys):
    stream = tmp_path / "forged.fcl"
    stream.write_bytes(_HEADER.pack(MAGIC, 65534, 65534, 5, 16, 0, 100, 1, 25, 1) + bytes(16))
    assert main(["decode", "--input", str(stream), "--out", str(tmp_path / "o.y4m")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o.y4m").exists()


def test_block_size_outside_luma_sizes_is_rejected(y4m, tmp_path):
    assert main(["encode", "--input", y4m, "--out", str(tmp_path / "c.fcl"), "--mode", "zero",
                 "--block-size", "32"]) == EXIT_INPUT


@pytest.fixture
def rd_csv(tmp_path):
    """RD sweep of two 4-frame clips over four quantisers with one worker. A
    mean over four frames may round differently from statistics.fmean's."""
    clips = [write_y4m_file(tmp_path / f"clip{k}.y4m", translating_frames(16, 16, 4, seed=k))
             for k in (1, 2)]
    out, agg = tmp_path / "rd1.csv", tmp_path / "agg.csv"
    argv = ["rd-sweep", "--inputs", *clips, "--modes", "zero,internal-diamond",
            "--q-list", "4,8,16,32", "--block-size", "8"]
    assert main(argv + ["--out", str(out), "--aggregate-out", str(agg), "--jobs", "1"]) == EXIT_OK
    return argv, out, agg


def test_rd_sweep_is_independent_of_worker_count(rd_csv, tmp_path):
    argv, out, _ = rd_csv
    out2 = tmp_path / "rd2.csv"
    assert main(argv + ["--out", str(out2), "--jobs", "2"]) == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()


def test_rd_sweep_aggregate_writes_median_rows(rd_csv):
    _, out, agg = rd_csv
    medians = read_metrics_csv(agg.read_bytes())
    assert len(medians) == 8
    assert {m.sequence for m in medians} == {"median"}
    assert [(m.mode, m.q) for m in medians] == [
        (mode, q) for mode in ("internal-diamond", "zero") for q in (4, 8, 16, 32)]
    per_clip = read_metrics_csv(out.read_bytes())
    for m in medians:  # lower median of two values is the smaller one
        assert m.rate == min(p.rate for p in per_clip if (p.mode, p.q) == (m.mode, m.q))


def _encode_stats(frames, mode, q):
    """The FrameStats of an encode as the CLI runs it at --block-size 8."""
    return encode_sequence(frames, CodecConfig(motion_mode=mode, q=q, block_size=8)).stats


def _metrics_bytes(rows, fmt):
    """rows (sequence, mode, q, rate, psnr) as rd-sweep writes them."""
    if fmt == "json":
        keys = ("sequence", "mode", "q", "rate_bits_per_frame", "psnr_db")
        return (json.dumps([dict(zip(keys, r)) for r in rows], indent=2) + "\n").encode()
    lines = [f"{s},{m},{q},{rate!r},{psnr!r}\n" for s, m, q, rate, psnr in rows]
    return ("sequence,mode,q,rate_bits_per_frame,psnr_db\n" + "".join(lines)).encode()


BDRATE_ZERO_TO_DIAMOND = [
    "BD-Rate: -42.57%",
    "  (test uses 42.57% fewer bits than reference at equal quality)",
    "BD-PSNR: +9.708 dB",
    "  (test is 9.708 dB better than reference at equal rate)",
]


def test_rd_outputs_are_the_mean_of_the_encodes_frame_stats(rd_csv, tmp_path, capsys):
    """The RD outputs, byte for byte: an RD point is the mean bits_total and
    the mean psnr_combined over all frames of one encode, and the aggregate
    is the per-q lower median of rate and of PSNR across sequences. The
    expected rows are rebuilt from encode_sequence, since the last bit of a
    PSNR may differ between numpy builds; bdrate's rounded lines are pinned."""
    argv, out, agg = rd_csv
    modes, qs = ("internal-diamond", "zero"), (4, 8, 16, 32)
    rows = []
    for k in (1, 2):
        frames = translating_frames(16, 16, 4, seed=k)
        for mode in modes:
            for q in qs:
                stats = _encode_stats(frames, mode, q)
                rows.append((f"clip{k}", mode, q, sum(s.bits_total for s in stats) / len(stats),
                             sum(s.psnr_combined for s in stats) / len(stats)))
    medians = [("median", mode, q, *(min(r[i] for r in rows if r[1:3] == (mode, q))
                                     for i in (3, 4)))
               for mode in modes for q in qs]
    assert out.read_bytes() == _metrics_bytes(rows, "csv")
    assert agg.read_bytes() == _metrics_bytes(medians, "csv")
    out_json, agg_json = tmp_path / "rd.json", tmp_path / "agg.json"
    assert main(argv + ["--out", str(out_json), "--aggregate-out", str(agg_json),
                        "--format", "json", "--jobs", "2"]) == EXIT_OK
    assert out_json.read_bytes() == _metrics_bytes(rows, "json")
    assert agg_json.read_bytes() == _metrics_bytes(medians, "json")
    capsys.readouterr()

    for curves in (out, agg):
        assert main(["bdrate", "--reference", str(curves), "--test", str(curves),
                     "--ref-mode", "zero", "--test-mode", "internal-diamond"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == BDRATE_ZERO_TO_DIAMOND

    clip, stream = tmp_path / "clip1.y4m", tmp_path / "c.fcl"
    assert main(["encode", "--input", str(clip), "--out", str(stream), "--mode",
                 "internal-diamond", "--q", "8", "--block-size", "8"]) == EXIT_OK
    rate, psnr = next(r[3:] for r in rows if r[:3] == ("clip1", "internal-diamond", 8))
    assert capsys.readouterr().out == (f"clip1: 4 frames, mode internal-diamond, q 8, "
                                       f"{rate:.1f} bits/frame, {psnr:.2f} dB\n")


def test_encode_stats_are_the_frame_stats_of_the_stream(tmp_path, capsys):
    """The --stats CSV holds the encode's FrameStats; its bits_total column
    counts every payload bit, and its mean is the summary line's bits/frame
    and rd-sweep's rate for the same clip, mode and q."""
    frames = translating_frames(16, 16, 3, seed=4)
    clip = write_y4m_file(tmp_path / "clip.y4m", frames)
    stream, stats_csv, rd = tmp_path / "c.fcl", tmp_path / "stats.csv", tmp_path / "rd.csv"
    assert main(["encode", "--input", clip, "--out", str(stream), "--mode", "internal-hex",
                 "--q", "8", "--block-size", "8", "--stats", str(stats_csv)]) == EXIT_OK
    summary = capsys.readouterr().out
    rows = list(csv.DictReader(stats_csv.read_text().splitlines()))
    stats = _encode_stats(frames, "internal-hex", 8)
    assert len(rows) == len(stats) == 3
    for row, s in zip(rows, stats):
        assert [int(row[k]) for k in ("frame", "bits_motion", "bits_residual", "bits_header",
                                      "bits_total")] == [s.index, s.bits_motion, s.bits_residual,
                                                         s.bits_header, s.bits_total]
        for k in ("psnr_y", "psnr_u", "psnr_v", "psnr_combined"):
            assert float(row[k]) == pytest.approx(getattr(s, k), abs=5e-5)
    bits = [int(row["bits_total"]) for row in rows]
    assert sum(bits) == 8 * (len(stream.read_bytes()) - HEADER_SIZE)
    rate = sum(bits) / len(bits)
    assert f", {rate:.1f} bits/frame, " in summary
    assert main(["rd-sweep", "--inputs", clip, "--modes", "internal-hex", "--q-list", "8",
                 "--block-size", "8", "--out", str(rd)]) == EXIT_OK
    [point] = csv.DictReader(rd.read_text().splitlines())
    assert float(point["rate_bits_per_frame"]) == rate


def test_bdrate_of_curve_against_itself_is_zero(rd_csv, capsys):
    _, out, _ = rd_csv
    assert main(["bdrate", "--reference", str(out), "--test", str(out),
                 "--mode", "zero"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "BD-Rate: +0.00%"


def test_rd_sweep_rejects_inputs_sharing_a_stem(tmp_path, capsys):
    clips = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        clips.append(write_y4m_file(tmp_path / d / "clip.y4m", translating_frames(16, 16, 2)))
    out = tmp_path / "rd.csv"
    assert main(["rd-sweep", "--inputs", *clips, "--modes", "zero", "--q-list", "4,8,16,32",
                 "--out", str(out)]) == EXIT_INPUT
    assert "'clip'" in capsys.readouterr().err.split("error:", 1)[1]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--modes", "zero,zero", "repeated motion modes ['zero']"),
    ("--modes", ",", "no motion modes given"),
    ("--q-list", "4,4,8,16", "repeated quantisers [4]"),
    ("--q-list", ",", "no quantisers given"),
    ("--jobs", "-3", "--jobs must be at least 1"),
    ("--jobs", "0", "--jobs must be at least 1"),
])
def test_rd_sweep_rejects_sweeps_without_distinct_rd_rows(y4m, tmp_path, capsys, monkeypatch,
                                                          flag, value, message):
    """Rejected before any encode, so neither output is written."""
    def no_encode(*args, **kwargs):
        raise AssertionError("encoded before the arguments were checked")

    monkeypatch.setattr("flowcodec.cli.encode_sequence", no_encode)
    out, agg = tmp_path / "rd.csv", tmp_path / "agg.csv"
    argv = {"--modes": "zero", "--q-list": "4,8", "--jobs": "1", flag: value}
    assert main(["rd-sweep", "--inputs", y4m, "--out", str(out), "--aggregate-out", str(agg),
                 *(f"{k}={v}" for k, v in argv.items())]) == EXIT_INPUT
    assert message in capsys.readouterr().err.split("error:", 1)[1]
    assert not out.exists() and not agg.exists()


def test_bdrate_rejects_repeated_rd_records(rd_csv, tmp_path, capsys):
    _, out, _ = rd_csv
    points = read_metrics_csv(out.read_bytes())
    doubled = tmp_path / "doubled.csv"
    doubled.write_bytes(write_metrics(points + [points[-1]]))
    assert main(["bdrate", "--reference", str(out), "--test", str(doubled),
                 "--mode", points[-1].mode]) == EXIT_INPUT
    assert "repeated RD record" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["--reference", "--test"])
def test_bdrate_of_an_infinite_rate_is_input_error(rd_csv, tmp_path, capsys, which):
    _, out, _ = rd_csv
    points = [p for p in read_metrics_csv(out.read_bytes()) if p.sequence == "clip1"]
    bad = tmp_path / "inf.csv"
    bad.write_bytes(write_metrics(points[:-1] + [replace(points[-1], rate=float("inf"))]))
    files = {"--reference": str(out), "--test": str(out), which: str(bad)}
    assert main(["bdrate", *(a for kv in files.items() for a in kv),
                 "--mode", points[-1].mode]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: rates must be finite and strictly positive\n"


@pytest.mark.parametrize("text, message", [
    ("sequence,mode,q,psnr_db\na,zero,5,30\n", "missing column(s) rate_bits_per_frame"),
    ("sequence,mode,q,rate_bits_per_frame,psnr_db\na,zero,5\n", "line 2: expected 5 fields"),
])
def test_bdrate_of_malformed_csv_is_input_error(rd_csv, tmp_path, capsys, text, message):
    _, out, _ = rd_csv
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["bdrate", "--reference", str(bad), "--test", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err.split("error:", 1)[1]


def test_epe_of_flow_with_itself_is_zero(tmp_path, capsys):
    flo = tmp_path / "a.flo"
    write_flo_file(flo, random_flow(16, 16, np.random.default_rng(3)))
    assert main(["epe", "--a", str(flo), "--b", str(flo)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "mean: 0.000000"


def test_epe_of_flows_of_different_sizes_is_input_error(tmp_path, capsys):
    a, b = tmp_path / "a.flo", tmp_path / "b.flo"
    write_flo_file(a, constant_flow(16, 8, 1.0, 0.0))
    write_flo_file(b, constant_flow(8, 16, 1.0, 0.0))
    assert main(["epe", "--a", str(a), "--b", str(b)]) == EXIT_INPUT
    assert "shape mismatch" in capsys.readouterr().err.split("error:", 1)[1]


def test_downsample_flow_writes_block_field(tmp_path):
    flo, out = tmp_path / "a.flo", tmp_path / "blocks.flo"
    write_flo_file(flo, constant_flow(20, 12, 1.25, -0.5))
    assert main(["downsample-flow", "--input", str(flo), "--out", str(out),
                 "--block-size", "8", "--method", "mean"]) == EXIT_OK
    assert np.array_equal(read_flo_file(out), constant_flow(20, 12, 1.25, -0.5))


def test_downsample_flow_refuses_a_second_name_for_a_method(tmp_path, capsys):
    flo = tmp_path / "a.flo"
    write_flo_file(flo, constant_flow(16, 16, 1.0, 0.0))
    assert main(["downsample-flow", "--input", str(flo), "--out", str(tmp_path / "b.flo"),
                 "--method", "median"]) == EXIT_INPUT
    assert "invalid choice: 'median'" in capsys.readouterr().err
    assert not (tmp_path / "b.flo").exists()
