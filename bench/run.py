"""Seeded end-to-end benchmark of the flowcodec encoder and decoder.

    python3 bench/run.py --workload search-qcif --seed 1 --seconds 30 --trace 0

Generates the workload's sequences and flow fields from --seed, then, in
one process and one thread, encodes and decodes every (sequence, mode)
pair in a closed loop: the next call starts only after the previous one
returned. One pass over all pairs is a round; rounds repeat until
--seconds is used up. Each call is timed against a fixed reference
computation run just before and after it (see reference.py), and a pair's
time is the median over rounds of that ratio, scaled to ms.
Every encode is decoded and checked (bit-exact reconstruction, bit
accounting, identical bytes in every round).

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the first half of the time runs untraced (per-mode
table) and the second half under bench/tracer.py (per-layer metrics).
Earlier stdout lines give the SHA-256 of every stream and one digest per
workload. See bench/README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# numpy, flowcodec and the modules beside this file that import them are
# imported inside functions: flowcodec is importable only once setup() has
# put this checkout's src/ on the path, and import time counts as set-up.

# One setup is measured in this process and SETUP_PROBES more in fresh
# interpreters, so the import and first-call caches are cold in each.
SETUP_PROBES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    modes: tuple[str, ...]
    q: int
    sequences: int
    provenance: str   # flow source of the flow/hybrid modes: "T0" files or the "T2" stub
    # Each sequence is one GOP: an intra frame, then P frames. Short
    # sequences make short timed calls, so the host's speed hardly changes
    # within one call and its reference samples (see ms_per_frame).
    frames: int = 2


WORKLOADS = {w.name: w for w in (
    # Block search (diamond/hex + predict_block via sad) is most of encode;
    # the Mean reduction of hybrid-mean is ~1%.
    Workload("search-qcif", 176, 144, ("internal-diamond", "internal-hex", "hybrid-mean"),
             q=10, sequences=2, provenance="T0", frames=3),
    # The vector median is most of encode; flow comes through the T2
    # subprocess path (PGM write, child process, .flo read).
    Workload("flow-t2-qcif", 176, 144, ("flow-mean", "flow-median", "hybrid-median"),
             q=10, sequences=2, provenance="T2"),
    # Fine quantiser on noisy CIF: exp-Golomb run-level write/read dominates,
    # with no search and only the cheap Mean reduction.
    Workload("residual-cif", 352, 288, ("zero", "flow-mean"),
             q=2, sequences=1, provenance="T0"),
)}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)


@dataclass
class Pair:
    """One encode + decode of a (sequence, mode) pair in one round."""

    sequence: str
    mode: str
    frames: int
    encode_s: float | None = None
    decode_s: float | None = None
    # Reference seconds around each call: the mean of the samples taken
    # just before and just after it.
    encode_ref: float | None = None
    decode_ref: float | None = None
    digest: str = ""
    size: int = 0
    bits: list[int] = field(default_factory=list)
    psnr: list[float] = field(default_factory=list)


class Bench:
    """The generated inputs and codec entry points of one workload."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, setup_refs: list):
        import numpy as np
        from content import make_sequence
        from reference import reference_seconds
        from flowcodec import codec
        from flowcodec.flowprovider import TMPDIR_ENV, FlowProvider
        from flowcodec.io import write_flo_file, write_pgm

        self.workload = workload
        self.codec = codec
        rng = np.random.default_rng(seed)
        self.sequences = [make_sequence(f"seq{i}", workload.width, workload.height,
                                        workload.frames, rng)
                          for i in range(workload.sequences)]
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True)
        os.environ[TMPDIR_ENV] = str(tmp)
        if workload.provenance == "T0":
            flow_dir = workdir / "flow"
            for seq in self.sequences:
                (flow_dir / seq.name).mkdir(parents=True)
                for n, dense in seq.flows.items():
                    write_flo_file(flow_dir / seq.name / f"frame_{n:04d}.flo", dense)
            self.provider = FlowProvider("T0", flow_dir=flow_dir)
        else:
            # The stub finds each frame's field by the hash of the current
            # luma PGM the provider hands it.
            flow_dir = workdir / "t2"
            flow_dir.mkdir()
            for seq in self.sequences:
                for n, dense in seq.flows.items():
                    key = hashlib.sha256(write_pgm(seq.frames[n].y)).hexdigest()
                    write_flo_file(flow_dir / f"{key}.flo", dense)
            cmd = [sys.executable, str(BENCH_DIR / "t2_stub.py"), str(flow_dir)]
            self.provider = FlowProvider("T2", estimator_cmd=shlex.join(cmd))
        self.configs = {mode: codec.CodecConfig(mode, q=workload.q, gop_size=workload.frames,
                                                block_size=16, search_range=16,
                                                refine_subpel=True)
                        for mode in workload.modes}
        # Warm-up: fills zigzag_order, the scipy FFT plan cache and, for
        # T2, the estimator's first start.
        setup_refs.append(reference_seconds())
        first = self.sequences[0]
        codec.encode_sequence(first.frames, self.configs[workload.modes[0]],
                              self.provider, sequence=first.name)
        setup_refs.append(reference_seconds())

    def run_pair(self, seq, mode: str, tally: Tally, digests: dict) -> Pair:
        from reference import reference_seconds

        codec = self.codec
        pair = Pair(seq.name, mode, len(seq.frames))
        what = f"{self.workload.name} {seq.name} {mode}"
        before = reference_seconds()
        try:
            start = time.perf_counter()
            result = codec.encode_sequence(seq.frames, self.configs[mode], self.provider,
                                           sequence=seq.name)
            pair.encode_s = time.perf_counter() - start
        except Exception as exc:  # a failed encode is counted, the run goes on
            tally.record(False, f"encode {what}: {exc!r}")
            return pair
        between = reference_seconds()
        pair.encode_ref = (before + between) / 2
        tally.record(True, "encode")
        stream = result.bitstream
        pair.digest = hashlib.sha256(stream).hexdigest()
        pair.size = len(stream)
        pair.bits = [s.bits_total for s in result.stats]
        pair.psnr = [s.psnr_combined for s in result.stats]
        try:
            start = time.perf_counter()
            decoded = codec.decode_sequence(stream)
            pair.decode_s = time.perf_counter() - start
            pair.decode_ref = (between + reference_seconds()) / 2
        except Exception as exc:
            tally.record(False, f"decode {what}: {exc!r}")
        else:
            tally.record(True, "decode")
            tally.record(_same_frames(decoded, result.recon), f"bit-exact decode {what}")
        tally.record(sum(pair.bits) == 8 * (len(stream) - codec.HEADER_SIZE),
                     f"bit accounting {what}")
        key = (seq.name, mode)
        if key in digests:
            tally.record(digests[key] == pair.digest, f"repeatable bytes {what}")
        else:
            digests[key] = pair.digest
        return pair

    def run_round(self, tally: Tally, digests: dict) -> list[Pair]:
        return [self.run_pair(seq, mode, tally, digests)
                for seq in self.sequences for mode in self.workload.modes]

    def run_rounds(self, seconds: float, tally: Tally, digests: dict) -> list[list[Pair]]:
        """At least one round; another only if it is expected to end in time."""
        rounds = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            rounds.append(self.run_round(tally, digests))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return rounds


def _same_frames(decoded, recon) -> bool:
    import numpy as np

    return len(decoded) == len(recon) and all(
        np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        for a, b in zip(decoded, recon))


def ms_per_frame(rounds: list[list[Pair]], attr: str, mode: str | None = None,
                 calibrated: bool = True) -> float:
    """Sum over pairs of each pair's median calibrated time, per frame, in ms.

    A call's calibrated time is its wall time divided by the reference
    time measured around it, times REFERENCE_S: the wall time the call
    would take with the host at the speed where the reference takes
    REFERENCE_S. The shared host this was tuned on slows down by up to
    1.8x for seconds to minutes at a time, nearly evenly over interpreter
    and small-array work; the ratio cancels that, the raw wall time
    (calibrated=False) does not.
    """
    from reference import REFERENCE_S

    total, frames = 0.0, 0
    for i, pair in enumerate(rounds[0]):
        if mode is not None and pair.mode != mode:
            continue
        samples = [(getattr(r[i], attr + "_s"), getattr(r[i], attr + "_ref")) for r in rounds]
        times = [t / ref * REFERENCE_S if calibrated else t
                 for t, ref in samples if ref is not None]
        if times:
            total += statistics.median(times)
            frames += pair.frames
    return 1000.0 * total / frames if frames else 0.0


def setup(workload: Workload, seed: int, workdir: Path, setup_refs: list) -> Bench:
    """Import the codec from this checkout's sources and build the inputs.

    Appends to setup_refs a reference sample after the imports, one before
    the warm-up encode and one after it, for calibrating the set-up time.
    """
    if not (SRC / "flowcodec" / "__init__.py").is_file():
        sys.exit(f"error: flowcodec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowcodec
    from reference import reference_seconds

    if Path(flowcodec.__file__).resolve().parent != SRC / "flowcodec":
        sys.exit(f"error: imported flowcodec from {flowcodec.__file__}, not {SRC}")
    setup_refs.append(reference_seconds())
    return Bench(workload, seed, workdir, setup_refs)


def probe_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """Calibrated and wall setup seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload.name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    calibrated, wall = proc.stdout.split()[-2:]
    return float(calibrated), float(wall)


def end_to_end(rounds, tally: Tally, setup_s: float) -> dict:
    first = [p for p in rounds[0] if p.bits]
    bits = [b for p in first for b in p.bits]
    psnr = [x for p in first for x in p.psnr]
    return {
        "encode_ms_per_frame": (ms_per_frame(rounds, "encode"), "ms"),
        "decode_ms_per_frame": (ms_per_frame(rounds, "decode"), "ms"),
        "bits_per_frame": (statistics.fmean(bits) if bits else 0.0, "bit"),
        "psnr_db": (statistics.fmean(psnr) if psnr else 0.0, "dB"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced, tr, tally: Tally) -> dict:
    from flowcodec.codec import MOTION_MODES
    from tracer import DECODE, ENCODE, SAD, SEARCH

    frames = sum(p.frames for r in traced for p in r if p.encode_s is not None) or 1
    out = {}

    def per_frame(name, value, unit):
        out[name] = (value / frames, unit)

    for layer in ("flowadapt.downsample_flow", SEARCH, "model.predict_block",
                  "codec.motion_compensate", "bitstream.read", "bitstream.write",
                  "flowprovider.get_flow"):
        calls, seconds = tr.layer_total(layer)
        per_frame(f"{layer}.calls", calls, "calls/frame")
        per_frame(f"{layer}.ms", 1000.0 * seconds, "ms/frame")
    for layer in ("codec.transform", "io.write_pgm", "io.read_flo",
                  "codec.select_block_vector", "metrics.frame_psnr"):
        per_frame(f"{layer}.ms", 1000.0 * tr.layer_total(layer)[1], "ms/frame")
    per_frame("flowadapt.blocks", tr.counters["flow_blocks"], "blocks/frame")
    per_frame("blockmatch.sad.calls", tr.layer_total(SAD)[0], "calls/frame")
    searches = tr.layer_total(SEARCH)[0]
    out["blockmatch.candidates_per_search"] = (
        tr.calls_within(SAD, SEARCH) / searches if searches else 0.0, "ratio")
    per_frame("bitstream.bits", sum(8 * p.size for r in traced for p in r), "bits/frame")
    out["flowprovider.get_flow.errors"] = (
        tr.counters["flowprovider.get_flow.errors"], "count")
    per_frame("codec.encode_sequence.self_ms", 1000.0 * tr.self_seconds((ENCODE,)), "ms/frame")
    per_frame("codec.decode_sequence.self_ms", 1000.0 * tr.self_seconds((DECODE,)), "ms/frame")
    blocks = tr.counters["hybrid_blocks"]
    out["codec.hybrid.flow_win_ratio"] = (
        tr.counters["hybrid_flow_wins"] / blocks if blocks else 0.0, "ratio")
    for mode in MOTION_MODES:
        out[f"codec.encode_ms_per_frame.{mode}"] = (ms_per_frame(untraced, "encode", mode), "ms")
        out[f"codec.decode_ms_per_frame.{mode}"] = (ms_per_frame(untraced, "decode", mode), "ms")

    encode_s = tr.layer_total(ENCODE)[1] or 1.0
    decode_s = tr.layer_total(DECODE)[1] or 1.0
    for name, root, total, prefixes in (
            ("trace.encode.blockmatch_pct", ENCODE, encode_s, ("blockmatch.",)),
            ("trace.encode.flowadapt_pct", ENCODE, encode_s, ("flowadapt.",)),
            ("trace.encode.flowprovider_pct", ENCODE, encode_s, ("flowprovider.",)),
            ("trace.decode.bitstream_pct", DECODE, decode_s, ("bitstream.",)),
            ("trace.decode.motion_compensate_pct", DECODE, decode_s, ("codec.motion_compensate",))):
        out[name] = (100.0 * tr.outermost_seconds(root, prefixes) / total, "%")
    out["trace.decode.self_pct"] = (100.0 * tr.self_seconds((DECODE,)) / decode_s, "%")
    plain = ms_per_frame(untraced, "encode") + ms_per_frame(untraced, "decode")
    with_trace = ms_per_frame(traced, "encode") + ms_per_frame(traced, "decode")
    out["trace.overhead_pct"] = (100.0 * (with_trace / plain - 1.0) if plain else 0.0, "%")
    out["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return out


def print_streams(workload: Workload, pairs: list[Pair]) -> None:
    for p in pairs:
        print(f"stream {workload.name} {p.sequence} {p.mode} sha256={p.digest} bytes={p.size}")
    digest = hashlib.sha256(" ".join(p.digest for p in pairs).encode()).hexdigest()
    print(f"workload_digest {workload.name} sha256={digest}")


def print_times(rounds: list[list[Pair]]) -> None:
    """Raw wall times of every call and the reference samples beside them."""
    refs = [1000.0 * x for r in rounds for p in r
            for x in (p.encode_ref, p.decode_ref) if x is not None]
    if refs:
        print(f"reference_ms median={statistics.median(refs):.4f} min={min(refs):.4f} "
              f"max={max(refs):.4f}")
    print(f"wall_ms_per_frame encode={ms_per_frame(rounds, 'encode', calibrated=False):.3f} "
          f"decode={ms_per_frame(rounds, 'decode', calibrated=False):.3f}")
    for i, pair in enumerate(rounds[0]):
        enc = " ".join(f"{1000.0 * r[i].encode_s:.1f}" for r in rounds
                       if r[i].encode_s is not None)
        dec = " ".join(f"{1000.0 * r[i].decode_s:.1f}" for r in rounds
                       if r[i].decode_s is not None)
        print(f"times_ms {pair.sequence} {pair.mode} frames={pair.frames} "
              f"encode=[{enc}] decode=[{dec}]")


def print_spans(tr) -> None:
    print("span calls incl_ms self_ms")
    for path, (calls, incl, self_s) in sorted(tr.spans.items()):
        print(f"  {'/'.join(path)} {calls} {1000.0 * incl:.3f} {1000.0 * self_s:.3f}")


def main(argv=None) -> int:
    clock_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # One thread: keep any BLAS/OpenMP pool from starting.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    workdir = WORK_ROOT / f"{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_refs = []
        bench = setup(workload, args.seed, workdir, setup_refs)
        setup_wall = time.perf_counter() - clock_start
        from reference import REFERENCE_S

        # Calibrated like a codec call (see ms_per_frame), by the reference
        # samples taken during the set-up.
        setup_s = setup_wall / statistics.fmean(setup_refs) * REFERENCE_S
        if args.setup_only:
            print(f"{setup_s!r} {setup_wall!r}")
            return 0
        tally, digests = Tally(), {}
        if not args.trace:
            setup_samples = [(setup_s, setup_wall)]
            setup_samples += [probe_setup(workload, args.seed) for _ in range(SETUP_PROBES)]
            rounds = bench.run_rounds(args.seconds, tally, digests)
            metrics = end_to_end(rounds, tally,
                                 statistics.median(cal for cal, _ in setup_samples))
            print_streams(workload, rounds[0])
            print_times(rounds)
            print(f"setup_s calibrated={[cal for cal, _ in setup_samples]} "
                  f"wall={[wall for _, wall in setup_samples]}")
        else:
            from tracer import Tracer

            untraced = bench.run_rounds(args.seconds / 2, tally, digests)
            with Tracer() as tr:
                traced = bench.run_rounds(args.seconds / 2, tally, digests)
            metrics = per_layer(untraced, traced, tr, tally)
            print_streams(workload, untraced[0])
            print_spans(tr)
            rounds = untraced + traced
        print(f"rounds {len(rounds)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the work directory is removed and a
    # running estimator or probe child is killed by subprocess.run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the process and the children it starts (T2 estimator,
    # set-up probes), so the reference samples the core the timed work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
