"""Tests of the benchmark itself: seeded content, the tracer, and the
command-line contract. Run with `python -m pytest -q bench/tests`."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracer_mod
from content import make_sequence
from flowcodec import codec
from flowcodec.bitstream import BitWriter
from flowcodec.flowadapt import downsample_flow
from flowcodec.flowprovider import TMPDIR_ENV

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    """The named workload's modes and flow source on small frames."""
    return dataclasses.replace(run.WORKLOADS[name], width=64, height=48, frames=3)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv(TMPDIR_ENV, str(tmp_path))  # restored after Bench sets it
    return tmp_path / "work"


def test_same_seed_same_content():
    a = make_sequence("s", 64, 48, 4, np.random.default_rng(7))
    b = make_sequence("s", 64, 48, 4, np.random.default_rng(7))
    c = make_sequence("s", 64, 48, 4, np.random.default_rng(8))
    for fa, fb in zip(a.frames, b.frames):
        assert all(np.array_equal(getattr(fa, p), getattr(fb, p)) for p in "yuv")
    assert all(np.array_equal(a.flows[n], b.flows[n]) for n in a.flows)
    assert not np.array_equal(a.frames[1].y, c.frames[1].y)


def test_noise_free_flow_is_the_backward_motion():
    seq = make_sequence("s", 96, 64, 4, np.random.default_rng(3),
                        noise_sigma=0.0, flow_sigma=0.0)
    ys, xs = np.mgrid[0:64, 0:96]
    for n, field in seq.flows.items():
        sx, sy = xs + field[..., 0].astype(int), ys + field[..., 1].astype(int)
        inside = (sx >= 0) & (sx < 96) & (sy >= 0) & (sy < 64)
        cur, ref = seq.frames[n].y, seq.frames[n - 1].y
        match = cur[inside] == ref[sy[inside], sx[inside]]
        # Only background uncovered by the rectangle may differ.
        assert match.mean() > 0.9


def test_flow_mean_recovers_background_vector_on_noise_free_flow():
    seq = make_sequence("s", 176, 144, 3, np.random.default_rng(5), flow_sigma=0.0)
    vbg = tuple(-4 * v for v in seq.bg_velocity)
    for field in seq.flows.values():
        blocks = downsample_flow(field, 16, "mean")
        background = (field == field[0, 0]).all(axis=2)  # corner blocks are background
        for r in range(blocks.rows):
            for c in range(blocks.cols):
                if background[r * 16:(r + 1) * 16, c * 16:(c + 1) * 16].all():
                    assert blocks.vector(c, r) == vbg


def test_tracer_restores_every_wrapped_name():
    before = [(owner, name, owner.__dict__[name]) for owner, name, _ in tracer_mod._targets()]
    with pytest.raises(RuntimeError):
        with tracer_mod.Tracer():
            assert codec.encode_sequence is not before[0][2]
            raise RuntimeError("leave the block by an exception")
    with tracer_mod.Tracer():
        pass
    for owner, name, original in before:
        assert owner.__dict__[name] is original, f"{owner}.{name} still wrapped"


def test_nested_bitstream_calls_count_once():
    with tracer_mod.Tracer() as tr:
        writer = BitWriter()
        writer.write_se(-3)  # write_se -> write_ue -> write_bits
        writer.write_bits(1, 1)
    assert tr.layer_total("bitstream.write")[0] == 2
    assert tr.spans.keys() == {("bitstream.write",)}


def test_self_times_account_for_traced_encode(workdir):
    bench = run.Bench(tiny("search-qcif"), 1, workdir, [])
    with tracer_mod.Tracer() as tr:
        bench.run_round(run.Tally(), {})
    for root in (tracer_mod.ENCODE, tracer_mod.DECODE):
        inclusive = tr.layer_total(root)[1]
        self_sum = sum(s[2] for path, s in tr.spans.items() if path[0] == root)
        assert self_sum == pytest.approx(inclusive, rel=1e-9)
    assert tr.counters["hybrid_blocks"] > 0
    assert tr.calls_within(tracer_mod.SAD, tracer_mod.SEARCH) > tr.layer_total(tracer_mod.SEARCH)[0]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_each_workload_smoke(name, workdir):
    bench = run.Bench(tiny(name), 2, workdir, [])
    tally, digests = run.Tally(), {}
    first = bench.run_round(tally, digests)
    second = bench.run_round(tally, digests)
    assert tally.failed == 0
    # encode, decode, bit-exact check and bit accounting per pair, plus the
    # repeat check in the second round
    assert tally.attempted == 4 * len(first) + 5 * len(second)
    assert [p.digest for p in first] == [p.digest for p in second]


def test_same_seed_same_stream_bits_and_psnr(tmp_path, monkeypatch):
    monkeypatch.setenv(TMPDIR_ENV, str(tmp_path))
    pairs = [run.Bench(tiny("flow-t2-qcif"), 4, tmp_path / str(i), []).run_round(run.Tally(), {})
             for i in range(2)]
    a, b = ([(p.digest, p.bits, p.psnr) for p in r] for r in pairs)
    assert a == b


def test_calibrated_time_cancels_host_speed():
    from reference import REFERENCE_S

    def pair(scale, seconds):
        p = run.Pair("s", "zero", frames=2, encode_s=scale * seconds,
                     decode_s=scale * seconds / 2)
        p.encode_ref = p.decode_ref = scale * REFERENCE_S
        return p

    # The same call in three rounds, the host 1x, 1.8x and 1.3x slow: the
    # calibrated time is the unscaled one; the wall time is not.
    rounds = [[pair(1.0, 0.1)], [pair(1.8, 0.1)], [pair(1.3, 0.1)]]
    assert run.ms_per_frame(rounds, "encode") == pytest.approx(50.0)
    assert run.ms_per_frame(rounds, "decode") == pytest.approx(25.0)
    assert run.ms_per_frame(rounds, "encode", calibrated=False) == pytest.approx(65.0)
    # A program twice as slow reads twice the time.
    rounds = [[pair(s, 0.2)] for s in (1.0, 1.8, 1.3)]
    assert run.ms_per_frame(rounds, "encode") == pytest.approx(100.0)


def _last_json(text: str) -> dict:
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, section, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "search-qcif", tiny("search-qcif"))
    for var in (TMPDIR_ENV, "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, str(tmp_path))
    assert run.main(["--workload", "search-qcif", "--seed", "1", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search-qcif",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
