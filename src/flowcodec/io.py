"""Bit-exact readers and writers: Y4M video, Middlebury .flo flow fields,
binary PGM, and the metrics CSV/JSON emitted by the CLI."""
from __future__ import annotations

import csv
import json
import logging
import struct
from dataclasses import dataclass
from io import BytesIO, StringIO
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import FlowField, Frame

log = logging.getLogger(__name__)

Y4M_MAGIC = b"YUV4MPEG2"
Y4M_COLORSPACES = ("C420", "C420jpeg", "C420mpeg2")

FLO_MAGIC = 202021.25  # stored little-endian, spells "PIEH"
FLO_SENTINEL = 1e9     # components larger than this are "unknown"

METRICS_FIELDS = ("sequence", "mode", "q", "rate_bits_per_frame", "psnr_db")


class Y4MError(ValueError):
    """Malformed YUV4MPEG2 stream."""


class FloError(ValueError):
    """Malformed .flo flow file."""


@dataclass(frozen=True)
class SequenceHeader:
    """Parsed Y4M stream header.

    raw_tokens keeps the original parameter tokens so a parsed header writes
    back byte-for-byte; headers built in code use the canonical W H F C order.
    """

    width: int
    height: int
    fps_num: int = 25
    fps_den: int = 1
    colorspace: str = "C420"
    raw_tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.width % 2 or self.height % 2:
            raise Y4MError(f"dimensions must be positive and even, got {self.width}x{self.height}")
        if self.colorspace not in Y4M_COLORSPACES:
            raise Y4MError(f"unsupported colorspace {self.colorspace!r} (4:2:0 only)")

    def header_line(self) -> bytes:
        if self.raw_tokens is not None:
            tokens = (Y4M_MAGIC.decode(),) + self.raw_tokens
        else:
            tokens = (
                Y4M_MAGIC.decode(),
                f"W{self.width}",
                f"H{self.height}",
                f"F{self.fps_num}:{self.fps_den}",
                self.colorspace,
            )
        return " ".join(tokens).encode("ascii") + b"\n"


def read_y4m(data: bytes) -> tuple[SequenceHeader, Iterator[Frame]]:
    """Parse a Y4M stream into its header and a lazy frame iterator."""
    stream = BytesIO(data)
    line = stream.readline()
    if not line.startswith(Y4M_MAGIC + b" ") and line.rstrip(b"\n") != Y4M_MAGIC:
        raise Y4MError("missing YUV4MPEG2 signature")
    if not line.endswith(b"\n"):
        raise Y4MError("unterminated stream header")
    tokens = line[:-1].decode("ascii", errors="replace").split(" ")[1:]
    tokens = [t for t in tokens if t]
    width = height = None
    fps_num, fps_den = 25, 1
    colorspace = "C420"
    try:
        for tok in tokens:
            if tok.startswith("W"):
                width = int(tok[1:])
            elif tok.startswith("H"):
                height = int(tok[1:])
            elif tok.startswith("F"):
                num, _, den = tok[1:].partition(":")
                fps_num, fps_den = int(num), int(den or "1")
            elif tok.startswith("C"):
                colorspace = tok
    except ValueError as exc:
        raise Y4MError(f"malformed header token {tok!r}") from exc
    if width is None or height is None:
        raise Y4MError("header must carry W and H parameters")
    header = SequenceHeader(width, height, fps_num, fps_den, colorspace, tuple(tokens))
    return header, _frame_iter(stream, header)


def _frame_iter(stream: BytesIO, header: SequenceHeader) -> Iterator[Frame]:
    w, h = header.width, header.height
    y_size = w * h
    c_size = (w // 2) * (h // 2)
    index = 0
    while True:
        marker = stream.readline()
        if marker == b"":
            return
        if not marker.startswith(b"FRAME") or not marker.endswith(b"\n"):
            raise Y4MError(f"bad FRAME marker before frame {index}")
        payload = stream.read(y_size + 2 * c_size)
        if len(payload) != y_size + 2 * c_size:
            raise Y4MError(f"truncated payload in frame {index}")
        y = np.frombuffer(payload, np.uint8, count=y_size).reshape(h, w)
        u = np.frombuffer(payload, np.uint8, count=c_size, offset=y_size).reshape(h // 2, w // 2)
        v = np.frombuffer(payload, np.uint8, count=c_size, offset=y_size + c_size).reshape(h // 2, w // 2)
        yield Frame(y, u, v, index)
        index += 1


def load_y4m(path) -> tuple[SequenceHeader, list[Frame]]:
    """Read a whole Y4M file into memory."""
    with open(path, "rb") as fh:
        header, frames = read_y4m(fh.read())
    return header, list(frames)


def write_y4m(header: SequenceHeader, frames: Iterable[Frame]) -> bytes:
    """Serialize frames under a header; inverse of read_y4m for canonical headers."""
    out = bytearray(header.header_line())
    for frame in frames:
        if frame.width != header.width or frame.height != header.height:
            raise Y4MError(
                f"frame {frame.index} is {frame.width}x{frame.height}, "
                f"header says {header.width}x{header.height}"
            )
        out += b"FRAME\n"
        out += frame.y.tobytes()
        out += frame.u.tobytes()
        out += frame.v.tobytes()
    return bytes(out)


def read_flo(data: bytes) -> FlowField:
    """Parse a Middlebury .flo file into an (h, w, 2) float32 field.

    Components beyond the "unknown" sentinel magnitude are replaced by zero
    motion (counted in a warning); NaN components are rejected.
    """
    if len(data) < 12:
        raise FloError(f"file too short for a .flo header ({len(data)} bytes)")
    magic = np.frombuffer(data, "<f4", count=1)[0]
    if magic != np.float32(FLO_MAGIC):
        raise FloError(f"bad magic {magic!r}, expected {FLO_MAGIC}")
    width, height = (int(x) for x in np.frombuffer(data, "<i4", count=2, offset=4))
    if width <= 0 or height <= 0:
        raise FloError(f"invalid dimensions {width}x{height}")
    need = width * height * 8
    if len(data) - 12 < need:
        raise FloError(f"dimensions {width}x{height} need {need} payload bytes, have {len(data) - 12}")
    field = np.frombuffer(data, "<f4", count=2 * width * height, offset=12)
    field = field.reshape(height, width, 2).copy()
    nan_count = int(np.isnan(field).sum())
    if nan_count:
        raise FloError(f"{nan_count} NaN flow components")
    unknown = np.abs(field) > FLO_SENTINEL
    unknown_vectors = np.any(unknown, axis=2)
    count = int(unknown_vectors.sum())
    if count:
        field[unknown_vectors] = 0.0
        log.warning("replaced %d unknown flow vectors with (0, 0)", count)
    return field


def write_flo(field: FlowField) -> bytes:
    """Serialize an (h, w, 2) field as little-endian .flo bytes."""
    field = np.asarray(field)
    if field.ndim != 3 or field.shape[2] != 2:
        raise FloError(f"flow field must have shape (h, w, 2), got {field.shape}")
    h, w = field.shape[:2]
    header = struct.pack("<fii", FLO_MAGIC, w, h)
    return header + field.astype("<f4").tobytes()


def read_flo_file(path) -> FlowField:
    with open(path, "rb") as fh:
        return read_flo(fh.read())


def write_flo_file(path, field: FlowField) -> None:
    with open(path, "wb") as fh:
        fh.write(write_flo(field))


def write_pgm(plane: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255) bytes for one 8-bit plane."""
    plane = np.asarray(plane, np.uint8)
    if plane.ndim != 2:
        raise ValueError("PGM plane must be 2D")
    h, w = plane.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + plane.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM (P5, maxval 255); companion of write_pgm."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) != 4 or fields[0] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < w * h:
        raise ValueError("truncated PGM payload")
    return np.frombuffer(data, np.uint8, count=w * h, offset=pos).reshape(h, w)


def write_metrics(records: Sequence[Mapping], fmt: str = "csv") -> bytes:
    """Serialize sweep records with the fixed schema

    sequence,mode,q,rate_bits_per_frame,psnr_db
    """
    rows = [{k: rec[k] for k in METRICS_FIELDS} for rec in records]
    if fmt == "csv":
        buf = StringIO()
        writer = csv.DictWriter(buf, fieldnames=METRICS_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().encode("ascii")
    if fmt == "json":
        return (json.dumps(rows, indent=2) + "\n").encode("ascii")
    raise ValueError(f"unknown metrics format {fmt!r}, expected 'csv' or 'json'")


def read_metrics_csv(source: bytes | str) -> list[dict]:
    """Parse a metrics CSV back into typed records."""
    text = source.decode("ascii") if isinstance(source, (bytes, bytearray)) else source
    reader = csv.DictReader(StringIO(text))
    records = []
    for row in reader:
        records.append(
            {
                "sequence": row["sequence"],
                "mode": row["mode"],
                "q": int(row["q"]),
                "rate_bits_per_frame": float(row["rate_bits_per_frame"]),
                "psnr_db": float(row["psnr_db"]),
            }
        )
    return records
