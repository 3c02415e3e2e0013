"""Command line front end: encode/decode runs, quantiser sweeps, BD-metric
comparison, end-point-error reports, and flow downsampling.

All flow inputs are BACKWARD fields: the file for frame n maps n to n-1.
Forward-flow datasets must be re-indexed or inverted before use.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
import tempfile
import traceback
from dataclasses import fields
from io import StringIO
from pathlib import Path

from . import io as mio
from .codec import (
    MOTION_MODES,
    CodecConfig,
    FrameStats,
    decode_sequence,
    encode_sequence,
    read_bitstream_info,
)
from .flowadapt import METHODS, downsample_flow, expand_block_field
from .flowprovider import PROVENANCE_MODES, FlowProvider, FlowProviderError
from .metrics import RDPoint, bd_psnr, bd_rate, epe, median_aggregate, rd_curves, rd_point
from .model import LUMA_BLOCK_SIZES

DEFAULT_Q_LIST = "2,5,10,15,20,25,30,35,40"

STATS_FIELDS = ("frame", "bits_motion", "bits_residual", "bits_header", "bits_total",
                "psnr_y", "psnr_u", "psnr_v", "psnr_combined")
# The stats CSV's columns are FrameStats' fields in order, index as frame.
assert STATS_FIELDS == tuple("frame" if f.name == "index" else f.name
                             for f in fields(FrameStats))

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _atomic_write(path: str | Path, data: bytes) -> None:
    """Write via a temp file and rename so partial output never lands."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _make_provider(args) -> FlowProvider | None:
    if args.provenance is None:
        return None
    return FlowProvider(args.provenance, flow_dir=args.flow_dir,
                        estimator_cmd=args.estimator_cmd, timeout=args.flow_timeout)


def _codec_config(mode: str, q: int, args) -> CodecConfig:
    return CodecConfig(motion_mode=mode, q=q, gop_size=args.gop,
                       block_size=args.block_size, search_range=args.search_range,
                       refine_subpel=not args.no_subpel)


def _stats_csv(stats) -> bytes:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STATS_FIELDS)
    for s in stats:
        writer.writerow([s.index, s.bits_motion, s.bits_residual, s.bits_header,
                         s.bits_total, f"{s.psnr_y:.4f}", f"{s.psnr_u:.4f}",
                         f"{s.psnr_v:.4f}", f"{s.psnr_combined:.4f}"])
    return buf.getvalue().encode("ascii")


def _encode(path, sequence: str, mode: str, q: int, args):
    """Encode a Y4M file at its frame rate under the codec and flow-source
    arguments: the file's header and the EncodeResult."""
    header, frames = mio.load_y4m(path)
    if not frames:
        raise ValueError(f"{path}: no frames")
    result = encode_sequence(frames, _codec_config(mode, q, args), _make_provider(args),
                             sequence, fps=(header.fps_num, header.fps_den))
    return header, result


def cmd_encode(args) -> int:
    sequence = args.sequence or Path(args.input).stem
    header, result = _encode(args.input, sequence, args.mode, args.q, args)
    _atomic_write(args.out, result.bitstream)
    if args.stats:
        _atomic_write(args.stats, _stats_csv(result.stats))
    if args.recon:
        recon_header = mio.SequenceHeader(header.width, header.height,
                                          header.fps_num, header.fps_den)
        _atomic_write(args.recon, mio.write_y4m(recon_header, result.recon))
    point = rd_point(sequence, args.mode, args.q, result.stats)
    print(f"{sequence}: {len(result.stats)} frames, mode {args.mode}, q {args.q}, "
          f"{point.rate:.1f} bits/frame, {point.psnr:.2f} dB")
    return EXIT_OK


def cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    info = read_bitstream_info(data)
    frames = decode_sequence(data)
    header = mio.SequenceHeader(info.width, info.height, info.fps_num, info.fps_den)
    _atomic_write(args.out, mio.write_y4m(header, frames))
    print(f"decoded {len(frames)} frames of {info.width}x{info.height} "
          f"(mode {info.motion_mode}, q {info.q})")
    return EXIT_OK


def _sweep_job(job) -> RDPoint:
    path, sequence, mode, q, argd = job
    _, result = _encode(path, sequence, mode, q, argparse.Namespace(**argd))
    return rd_point(sequence, mode, q, result.stats)


def _distinct(values: list, what: str) -> list:
    """values, unless the sweep would write no RD rows from them, or rows
    that cannot be told apart."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if not values or repeated:
        raise ValueError(f"repeated {what} {repeated}; the RD rows would be indistinguishable"
                         if values else f"no {what} given")
    return values


def cmd_rd_sweep(args) -> int:
    modes = _distinct([m.strip() for m in args.modes.split(",") if m.strip()], "motion modes")
    for mode in modes:
        if mode not in MOTION_MODES:
            raise ValueError(f"unknown motion mode {mode!r}")
    q_list = _distinct([int(tok) for tok in args.q_list.split(",") if tok.strip()], "quantisers")
    sequences = _distinct([Path(path).stem for path in args.inputs], "sequence names")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    argd = vars(args).copy()
    jobs = []
    for path, sequence in zip(args.inputs, sequences):
        for mode in modes:
            for q in q_list:
                jobs.append((path, sequence, mode, q, argd))

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(_sweep_job, jobs))
    else:
        points = [_sweep_job(job) for job in jobs]
    points.sort(key=lambda p: (p.sequence, p.mode, p.q))
    _atomic_write(args.out, mio.write_metrics(points, args.format))

    if args.aggregate_out:
        medians = [median for mode in sorted(modes)
                   for median in median_aggregate(rd_curves(p for p in points if p.mode == mode))]
        _atomic_write(args.aggregate_out, mio.write_metrics(medians, args.format))
    print(f"wrote {len(points)} RD points to {args.out}")
    return EXIT_OK


def _load_curve(path, mode_filter: str | None) -> list[RDPoint]:
    """The median curve of a metrics CSV's points in one mode."""
    points = mio.read_metrics_csv(Path(path).read_bytes())
    if mode_filter:
        points = [p for p in points if p.mode == mode_filter]
    if not points:
        raise ValueError(f"{path}: no matching RD records")
    modes = sorted({p.mode for p in points})
    if len(modes) > 1:
        raise ValueError(f"{path}: multiple modes {modes}; use --mode to pick one")
    return median_aggregate(rd_curves(points))


def cmd_bdrate(args) -> int:
    reference = _load_curve(args.reference, args.ref_mode or args.mode)
    test = _load_curve(args.test, args.test_mode or args.mode)
    rate_delta = bd_rate(reference, test)
    psnr_delta = bd_psnr(reference, test)
    rate_word = "fewer" if rate_delta <= 0 else "more"
    psnr_word = "better" if psnr_delta >= 0 else "worse"
    print(f"BD-Rate: {rate_delta:+.2f}%")
    print(f"  (test uses {abs(rate_delta):.2f}% {rate_word} bits than reference at equal quality)")
    print(f"BD-PSNR: {psnr_delta:+.3f} dB")
    print(f"  (test is {abs(psnr_delta):.3f} dB {psnr_word} than reference at equal rate)")
    return EXIT_OK


def _flo_pairs(a: Path, b: Path) -> list[tuple[str, Path, Path]]:
    if a.is_dir() != b.is_dir():
        raise ValueError("epe inputs must both be files or both be directories")
    if not a.is_dir():
        return [(a.name, a, b)]
    names = sorted(p.name for p in a.glob("*.flo"))
    if not names:
        raise ValueError(f"{a}: no .flo files")
    pairs = []
    for name in names:
        other = b / name
        if not other.is_file():
            raise ValueError(f"{b}: missing {name}")
        pairs.append((name, a / name, other))
    return pairs


def cmd_epe(args) -> int:
    pairs = _flo_pairs(Path(args.a), Path(args.b))
    values = []
    for name, pa, pb in pairs:
        value = epe(mio.read_flo_file(pa), mio.read_flo_file(pb))
        values.append(value)
        print(f"{name}: {value:.6f}")
    print(f"mean: {sum(values) / len(values):.6f}")
    return EXIT_OK


def cmd_downsample_flow(args) -> int:
    dense = mio.read_flo_file(args.input)
    blocks = downsample_flow(dense, args.block_size, args.method)
    h, w = dense.shape[:2]
    _atomic_write(args.out, mio.write_flo(expand_block_field(blocks, w, h)))
    print(f"wrote {blocks.cols}x{blocks.rows} block field (size {args.block_size}) to {args.out}")
    return EXIT_OK


def _add_flow_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provenance", choices=PROVENANCE_MODES, default=None,
                   help="flow source: T0/T1 read --flow-dir, T2 runs --estimator-cmd "
                        "on decoded frames")
    p.add_argument("--flow-dir", default=None,
                   help="directory holding <sequence>/frame_%%04d.flo BACKWARD flow files")
    p.add_argument("--estimator-cmd", default=None,
                   help="external estimator invoked as: CMD cur.pgm ref.pgm out.flo")
    p.add_argument("--flow-timeout", type=float, default=60.0,
                   help="per-frame estimator timeout in seconds (default 60)")


def _add_codec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gop", type=int, default=100, help="GOP size (default 100)")
    p.add_argument("--block-size", type=int, default=16, choices=LUMA_BLOCK_SIZES)
    p.add_argument("--search-range", type=int, default=16)
    p.add_argument("--no-subpel", action="store_true",
                   help="disable the quarter-pel refinement pass")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcodec",
        description="Experimental P-frame codec harness comparing motion estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode one Y4M sequence")
    p.add_argument("--input", required=True, help="input .y4m file (4:2:0)")
    p.add_argument("--out", required=True, help="output bitstream file")
    p.add_argument("--mode", required=True, choices=MOTION_MODES)
    p.add_argument("--q", type=int, default=5, help="quantiser (default 5)")
    p.add_argument("--stats", default=None, help="per-frame stats CSV")
    p.add_argument("--recon", default=None, help="write the reconstruction as Y4M")
    p.add_argument("--sequence", default=None,
                   help="sequence name for flow lookup (default: input stem)")
    _add_codec_args(p)
    _add_flow_source_args(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream to Y4M")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rd-sweep", help="encode sequences over a quantiser grid")
    p.add_argument("--inputs", nargs="+", required=True, help="input .y4m files")
    p.add_argument("--modes", required=True,
                   help="comma-separated motion modes, e.g. zero,internal-hex")
    p.add_argument("--q-list", default=DEFAULT_Q_LIST,
                   help=f"comma-separated quantisers (default {DEFAULT_Q_LIST})")
    p.add_argument("--out", required=True, help="RD CSV output")
    p.add_argument("--aggregate-out", default=None,
                   help="also write the per-mode median curve (sequence column = 'median')")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    _add_codec_args(p)
    _add_flow_source_args(p)
    p.set_defaults(func=cmd_rd_sweep)

    p = sub.add_parser("bdrate", help="BD-Rate / BD-PSNR of test vs reference RD CSVs")
    p.add_argument("--reference", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--mode", default=None, help="mode filter applied to both files")
    p.add_argument("--ref-mode", default=None)
    p.add_argument("--test-mode", default=None)
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser("epe", help="mean end-point error between .flo files or dirs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_epe)

    p = sub.add_parser("downsample-flow",
                       help="reduce a dense .flo to block vectors, re-expanded for viewing")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-size", type=int, default=16, choices=LUMA_BLOCK_SIZES)
    p.add_argument("--method", choices=METHODS, default="vector-median")
    p.set_defaults(func=cmd_downsample_flow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, ValueError, FlowProviderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
