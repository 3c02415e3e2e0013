"""Frames, motion vectors, block grids, and the pixel sampling primitives
shared by every other module."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, TypeAlias

import numpy as np

QPEL = 4                 # quarter-pel units per pixel
DEFAULT_MV_BOUND = 128   # quarter-pel units; 128 = a 32 px displacement budget

LUMA_BLOCK_SIZES = (4, 8, 16)


class MotionVector(NamedTuple):
    """Block displacement in quarter-pel units (dx right, dy down)."""

    dx: int
    dy: int

    def to_pixels(self) -> tuple[float, float]:
        return self.dx / QPEL, self.dy / QPEL


ZERO_MV = MotionVector(0, 0)

#: Dense optic flow as a (height, width, 2) float array of (u, v) in pixels.
FlowField: TypeAlias = np.ndarray


def chroma_vector(mv: MotionVector) -> MotionVector:
    """Luma vector halved for the 4:2:0 chroma grid, ties away from zero."""
    return MotionVector(_half_away(mv.dx), _half_away(mv.dy))


def _half_away(c: int) -> int:
    q = (abs(int(c)) + 1) // 2
    return q if c >= 0 else -q


@dataclass(frozen=True, eq=False)
class Frame:
    """One YUV 4:2:0 picture with 8-bit planes.

    Planes are marked read-only on construction; all consumers treat frames
    as immutable values.
    """

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    index: int = 0

    def __post_init__(self):
        for name, plane in (("y", self.y), ("u", self.u), ("v", self.v)):
            if not isinstance(plane, np.ndarray) or plane.ndim != 2 or plane.dtype != np.uint8:
                raise ValueError(f"{name} plane must be a 2D uint8 array")
        h, w = self.y.shape
        if w % 2 or h % 2 or w == 0 or h == 0:
            raise ValueError(f"frame dimensions must be positive and even, got {w}x{h}")
        if self.u.shape != (h // 2, w // 2) or self.v.shape != (h // 2, w // 2):
            raise ValueError("chroma planes must be half the luma size (4:2:0)")
        for plane in (self.y, self.u, self.v):
            plane.setflags(write=False)

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class BlockMotionField:
    """One quarter-pel vector per block of the grid covering a frame."""

    block_size: int
    vectors: np.ndarray  # (rows, cols, 2) integer array of (dx, dy) quarter-pel

    def __post_init__(self):
        if self.block_size not in LUMA_BLOCK_SIZES:
            raise ValueError(f"block_size must be one of {LUMA_BLOCK_SIZES}")
        v = self.vectors
        if not isinstance(v, np.ndarray) or v.ndim != 3 or v.shape[2] != 2:
            raise ValueError("vectors must have shape (rows, cols, 2)")
        if not np.issubdtype(v.dtype, np.integer):
            raise ValueError("vectors must be integer quarter-pel units")
        v.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def cols(self) -> int:
        return self.vectors.shape[1]

    def vector(self, col: int, row: int) -> MotionVector:
        dx, dy = self.vectors[row, col]
        return MotionVector(int(dx), int(dy))


def block_grid(width: int, height: int, block_size: int) -> tuple[int, int]:
    """Grid dimensions (cols, rows) covering a width x height plane."""
    return -(-width // block_size), -(-height // block_size)


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a rate-distortion curve."""

    q: int
    rate: float  # mean bits per frame
    psnr: float  # dB


#: A rate-distortion curve: RDPoints sorted by quantiser ascending.
RDCurve: TypeAlias = "list[RDPoint]"


def clip_block(plane: np.ndarray, x0: int, y0: int, size: int) -> np.ndarray:
    """Copy a size x size window; reads outside the plane replicate the border."""
    h, w = plane.shape
    xs = np.clip(np.arange(x0, x0 + size), 0, w - 1)
    ys = np.clip(np.arange(y0, y0 + size), 0, h - 1)
    return plane[np.ix_(ys, xs)]


def predict_block(plane: np.ndarray, x0: int, y0: int, size: int, mv: MotionVector) -> np.ndarray:
    """Motion-compensated block of a reference plane, rounded to integers.

    Sub-pel positions use bilinear interpolation over the four neighbours;
    the weights are quarter fractions, so the exact value times 16 is an
    integer and (acc + 8) >> 4 rounds half up without any float arithmetic.
    Out-of-plane reads replicate the border.
    """
    h, w = plane.shape
    ix, fx = divmod(int(mv.dx), QPEL)
    iy, fy = divmod(int(mv.dy), QPEL)
    bx = np.arange(x0 + ix, x0 + ix + size)
    by = np.arange(y0 + iy, y0 + iy + size)
    xs0 = np.clip(bx, 0, w - 1)
    ys0 = np.clip(by, 0, h - 1)
    if fx == 0 and fy == 0:
        return plane[np.ix_(ys0, xs0)].astype(np.int32)
    xs1 = np.clip(bx + 1, 0, w - 1)
    ys1 = np.clip(by + 1, 0, h - 1)
    p00 = plane[np.ix_(ys0, xs0)].astype(np.int32)
    p01 = plane[np.ix_(ys0, xs1)].astype(np.int32)
    p10 = plane[np.ix_(ys1, xs0)].astype(np.int32)
    p11 = plane[np.ix_(ys1, xs1)].astype(np.int32)
    acc = (
        (QPEL - fx) * (QPEL - fy) * p00
        + fx * (QPEL - fy) * p01
        + (QPEL - fx) * fy * p10
        + fx * fy * p11
    )
    return (acc + 8) >> 4


def quantize_to_quarter_pel(u: float, v: float) -> MotionVector:
    """Round a real displacement in pixels to the quarter-pel grid.

    Ties round away from zero; components clamp to +/-DEFAULT_MV_BOUND.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"displacement must be finite, got ({u}, {v})")
    return MotionVector(_round_qpel(u), _round_qpel(v))


def _round_qpel(value: float) -> int:
    q = math.floor(abs(value) * QPEL + 0.5)
    if value < 0:
        q = -q
    return max(-DEFAULT_MV_BOUND, min(DEFAULT_MV_BOUND, q))
