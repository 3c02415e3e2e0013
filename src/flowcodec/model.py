"""Frames, motion vectors, block grids, and the pixel sampling primitives
shared by every other module."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, TypeAlias

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

QPEL = 4                 # quarter-pel units per pixel
DEFAULT_MV_BOUND = 128   # quarter-pel units; 128 = a 32 px displacement budget

LUMA_BLOCK_SIZES = (4, 8, 16)


def check_block_size(block_size: int) -> None:
    """ValueError unless block_size is one of LUMA_BLOCK_SIZES."""
    if block_size not in LUMA_BLOCK_SIZES:
        raise ValueError(f"block_size must be one of {LUMA_BLOCK_SIZES}")


class MotionVector(NamedTuple):
    """Block displacement in quarter-pel units (dx right, dy down)."""

    dx: int
    dy: int


#: Dense optic flow as a (height, width, 2) float array of (u, v) in pixels.
FlowField: TypeAlias = np.ndarray


def chroma_vectors(vectors: np.ndarray) -> np.ndarray:
    """Luma vectors halved for the 4:2:0 chroma grid, ties away from zero,
    as int64: abs(-2**31) overflows int32."""
    v = np.asarray(vectors, np.int64)
    return np.sign(v) * ((np.abs(v) + 1) // 2)


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
        check_block_size(self.block_size)
        v = self.vectors
        if not isinstance(v, np.ndarray) or v.ndim != 3 or v.shape[2] != 2:
            raise ValueError("vectors must have shape (rows, cols, 2)")
        if not np.issubdtype(v.dtype, np.integer):
            raise ValueError("vectors must be integer quarter-pel units")
        if v.size and not -2**31 <= int(v.min()) <= int(v.max()) < 2**31:
            raise ValueError("vectors must lie in the int32 range of the stream format")
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

    def check_covers(self, width: int, height: int) -> None:
        """Raise ValueError unless the grid is the one covering width x height."""
        if (self.cols, self.rows) != block_grid(width, height, self.block_size):
            raise ValueError(f"motion grid {self.cols}x{self.rows} does not cover "
                             f"{width}x{height} at block size {self.block_size}")


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


def predict_block(plane: np.ndarray, x0: int, y0: int, size: int, mv: MotionVector) -> np.ndarray:
    """Motion-compensated block of a reference plane, rounded to integers.

    Sub-pel positions use bilinear interpolation over the four neighbours;
    the weights are quarter fractions, so the exact value times 16 is an
    integer and (acc + 8) >> 4 rounds half up without any float arithmetic.
    Out-of-plane reads replicate the border.

    The searches read blocks through `ReferencePlane.blocks` and
    `ReferencePlane.block`, and `codec.motion_compensate` computes every
    block of a frame at once; all give this gather's values, and the tests
    hold them to it.
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


#: Edge padding of a `ReferencePlane` on every side, in pixels: the largest
#: block, so a partial edge block and its sub-pel taps stay inside it, and a
#: block that leaves it lies wholly beyond the plane's border.
REF_MARGIN = max(LUMA_BLOCK_SIZES)


class ReferencePlane:
    """A uint8 reference plane, interpolated once for all the blocks read
    from it.

    The plane is edge-padded by REF_MARGIN, and all 16 quarter-pel phases
    are interpolated over the whole padded plane at once, with
    `predict_block`'s formula, into one (16, rows, cols) array indexed by
    fy * QPEL + fx. A compensated block is then a slice of one phase, and a
    batch of blocks is one fancy index of that array (`blocks`). Phases are
    uint8: the rounded samples are exactly 0..255.
    """

    def __init__(self, plane: np.ndarray):
        if not isinstance(plane, np.ndarray) or plane.ndim != 2 or plane.dtype != np.uint8:
            raise ValueError("reference plane must be a 2D uint8 array")
        # The weighted sum is at most 16 * 255 + 8, so uint16 holds it.
        p = np.pad(plane, REF_MARGIN, mode="edge").astype(np.uint16)
        fx = np.arange(QPEL, dtype=np.uint16)[:, None, None]
        rows = (QPEL - fx) * p[:, :-1] + fx * p[:, 1:]  # [fx, y, x]
        # The last padded row and column only feed the sub-pel taps.
        phases = np.empty((QPEL, QPEL, p.shape[0] - 1, p.shape[1] - 1), np.uint8)
        for fy in range(QPEL):
            phases[fy] = ((QPEL - fy) * rows[:, :-1] + fy * rows[:, 1:] + 8) >> 4
        phases = phases.reshape(QPEL * QPEL, *phases.shape[2:])
        phases.setflags(write=False)
        self._phases = phases
        self._rows, self._cols = phases.shape[1:]
        self._windows: dict[int, np.ndarray] = {}

    def block(self, x0: int, y0: int, size: int, mv: MotionVector) -> np.ndarray:
        """Read-only view equal to `predict_block(plane, x0, y0, size, mv)`
        of the built plane, for any vector and any size up to REF_MARGIN.

        A block that leaves the padding lies wholly beyond one border of the
        plane, so every tap `predict_block` reads on that axis clamps to the
        border row or column. Clamping the slice into the padding reads only
        copies of that border, and equal taps interpolate to the same value.
        """
        ix, fx = divmod(mv.dx, QPEL)
        iy, fy = divmod(mv.dy, QPEL)
        left = min(max(x0 + ix + REF_MARGIN, 0), self._cols - size)
        top = min(max(y0 + iy + REF_MARGIN, 0), self._rows - size)
        return self._phases[fy * QPEL + fx, top:top + size, left:left + size]

    def blocks(self, origins: np.ndarray, size: int, vectors: np.ndarray) -> np.ndarray:
        """`block` of every broadcast pair of int64 (x0, y0) origins and
        (dx, dy) vectors, as one uint8 array of shape (..., size, size): one
        fancy index of the phases, clamped as `block` clamps."""
        windows = self._windows.get(size)
        if windows is None:
            windows = self._windows[size] = sliding_window_view(
                self._phases, (size, size), axis=(1, 2))
        i, f = np.divmod(vectors, QPEL)
        at = np.minimum(np.maximum(origins + i + REF_MARGIN, 0),
                        (self._cols - size, self._rows - size))
        return windows[f[..., 1] * QPEL + f[..., 0], at[..., 1], at[..., 0]]


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
