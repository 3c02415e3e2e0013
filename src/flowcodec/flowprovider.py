"""Per-frame flow sources: ground-truth files (T0), fields precomputed on the
originals (T1), or an external estimator run on decoded frames (T2).

All fields are backward flow, mapping frame n to frame n-1. The T2 contract
is a command line `cmd <current.pgm> <reference.pgm> <output.flo>` invoked
with the luma of the original current frame and of the decoded reference.
"""
from __future__ import annotations

import math
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .io import read_flo_file, write_pgm
from .model import FlowField, Frame

PROVENANCE_MODES = ("T0", "T1", "T2")

TMPDIR_ENV = "FLOWCODEC_TMPDIR"


class FlowProviderError(RuntimeError):
    """Flow acquisition failed (missing file, estimator failure, bad output)."""


@dataclass(frozen=True)
class FlowProvider:
    """Resolves the dense flow field for (sequence, frame index) requests.

    T0 and T1 read `<flow_dir>/<sequence>/frame_%04d.flo` (index of the
    current frame; the two modes differ only in what the directory holds).
    T2 shells out to `estimator_cmd`, which never sees chroma. The command
    is split once, here, with `shlex.split`; one that does not split, or
    splits into nothing, raises ValueError.
    """

    mode: str
    flow_dir: Path | str | None = None
    estimator_cmd: str | None = None
    timeout: float = 60.0
    _argv: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in PROVENANCE_MODES:
            raise ValueError(f"provenance mode must be one of {PROVENANCE_MODES}")
        if self.mode in ("T0", "T1") and self.flow_dir is None:
            raise ValueError(f"mode {self.mode} requires flow_dir")
        if self.mode == "T2":
            try:
                argv = tuple(shlex.split(self.estimator_cmd or ""))
            except ValueError as exc:
                raise ValueError(f"estimator command {self.estimator_cmd!r}: {exc}") from None
            if not argv:
                raise ValueError("mode T2 requires estimator_cmd")
            object.__setattr__(self, "_argv", argv)
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise ValueError(f"estimator timeout must be a positive finite number of seconds, "
                             f"got {self.timeout}")

    def flow_path(self, sequence: str, index: int) -> Path:
        return Path(self.flow_dir) / sequence / f"frame_{index:04d}.flo"

    def get_flow(self, sequence: str, index: int, cur: Frame,
                 ref_decoded: Frame) -> FlowField:
        """Backward flow field (index -> index-1) matching cur's luma size."""
        if self.mode in ("T0", "T1"):
            path = self.flow_path(sequence, index)
            if not path.is_file():
                raise FlowProviderError(f"missing flow file {path}")
            field = read_flo_file(path)
        else:
            field = self._run_estimator(cur, ref_decoded)
        if field.shape[:2] != (cur.height, cur.width):
            raise FlowProviderError(
                f"flow field is {field.shape[1]}x{field.shape[0]}, "
                f"frame is {cur.width}x{cur.height} (sequence {sequence}, frame {index})"
            )
        return field

    def _run_estimator(self, cur: Frame, ref_decoded: Frame) -> FlowField:
        workdir = tempfile.mkdtemp(prefix="flowcodec_", dir=os.environ.get(TMPDIR_ENV))
        try:
            cur_path = os.path.join(workdir, "cur.pgm")
            ref_path = os.path.join(workdir, "ref.pgm")
            out_path = os.path.join(workdir, "out.flo")
            with open(cur_path, "wb") as fh:
                fh.write(write_pgm(cur.y))
            with open(ref_path, "wb") as fh:
                fh.write(write_pgm(ref_decoded.y))
            argv = [*self._argv, cur_path, ref_path, out_path]
            try:
                proc = subprocess.run(argv, capture_output=True, timeout=self.timeout)
            except subprocess.TimeoutExpired as exc:
                raise FlowProviderError(
                    f"estimator timed out after {self.timeout}s: {self.estimator_cmd}"
                ) from exc
            except OSError as exc:
                raise FlowProviderError(f"estimator did not start: {exc}") from exc
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip()[-500:]
                raise FlowProviderError(
                    f"estimator exited {proc.returncode}: {self.estimator_cmd}\n{tail}"
                )
            if not os.path.isfile(out_path):
                raise FlowProviderError("estimator produced no output file")
            return read_flo_file(out_path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
