"""Seeded synthetic content: a translating textured background, a textured
square moving with its own velocity, per-frame luma noise, and the
matching noisy backward flow (frame n -> n-1) for every P frame.

Velocities are even so the 4:2:0 chroma planes move by whole samples. The
square's edge is the motion boundary where the Mean and the Vector
Median of a block's flow disagree. The seed picks the directions, never the
speeds or the square's size, so the work per frame (search distance,
uncovered area, residual bits) barely depends on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowcodec.model import Frame

BG_SPEED = 2  # px per frame on each axis; the square moves at -2x this


@dataclass(frozen=True)
class Sequence:
    name: str
    frames: list[Frame]
    flows: dict[int, np.ndarray]  # backward flow for each P-frame index
    bg_velocity: tuple[int, int]  # px per frame


def smooth_texture(h: int, w: int, rng, passes: int = 12) -> np.ndarray:
    """Correlated random 8-bit texture: box-filtered uniform noise scaled to
    mean 128 and standard deviation 40.

    Smooth enough that intra-frame residual coding does not outweigh block
    search in the search workload; a fixed deviation, not a stretch to the
    full range, keeps the bits per frame from depending on the seed's
    extreme samples.
    """
    a = rng.integers(0, 256, (h + passes, w + passes)).astype(np.float64)
    for _ in range(passes):
        a = (a[:-1, :-1] + a[1:, :-1] + a[:-1, 1:] + a[1:, 1:]) / 4.0
    a = a[:h, :w]
    scaled = 128.0 + (a - a.mean()) * (40.0 / a.std())
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def make_sequence(name: str, width: int, height: int, count: int, rng,
                  noise_sigma: float = 2.0, flow_sigma: float = 0.5) -> Sequence:
    """One sequence of count frames plus its backward flow fields."""
    vbg = tuple(int(s) * BG_SPEED for s in rng.choice((-1, 1), 2))
    vfg = (-2 * vbg[0], -2 * vbg[1])
    travel = count - 1
    mx, my = abs(vbg[0]) * travel, abs(vbg[1]) * travel
    bg = [smooth_texture(height + my, width + mx, rng)]
    bg += [smooth_texture((height + my) // 2, (width + mx) // 2, rng) for _ in range(2)]

    # A square covering about a quarter of the frame that stays inside it.
    rw = rh = int(round((width * height) ** 0.5 / 4)) * 2
    fg = [smooth_texture(rh, rw, rng)]
    fg += [smooth_texture(rh // 2, rw // 2, rng) for _ in range(2)]
    lo_x, hi_x = max(0, -vfg[0] * travel), width - rw - max(0, vfg[0] * travel)
    lo_y, hi_y = max(0, -vfg[1] * travel), height - rh - max(0, vfg[1] * travel)
    if hi_x < lo_x or hi_y < lo_y:
        raise ValueError(f"{count} frames of {vfg} px/frame leave a {width}x{height} frame")
    px0 = int(rng.integers(lo_x // 2, hi_x // 2 + 1)) * 2
    py0 = int(rng.integers(lo_y // 2, hi_y // 2 + 1)) * 2

    frames: list[Frame] = []
    flows: dict[int, np.ndarray] = {}
    for t in range(count):
        planes = []
        # Background content moving +v per frame: its canvas origin moves -v.
        ox = (mx if vbg[0] > 0 else 0) - vbg[0] * t
        oy = (my if vbg[1] > 0 else 0) - vbg[1] * t
        x0, y0 = px0 + vfg[0] * t, py0 + vfg[1] * t
        for i, scale in enumerate((1, 2, 2)):
            plane = bg[i][oy // scale:(oy + height) // scale,
                          ox // scale:(ox + width) // scale].copy()
            plane[y0 // scale:(y0 + rh) // scale, x0 // scale:(x0 + rw) // scale] = fg[i]
            planes.append(plane)
        noisy = planes[0] + rng.normal(0.0, noise_sigma, planes[0].shape)
        planes[0] = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        frames.append(Frame(planes[0], planes[1], planes[2], t))
        if t:
            field = np.empty((height, width, 2), np.float64)
            field[...] = (-vbg[0], -vbg[1])
            field[y0:y0 + rh, x0:x0 + rw] = (-vfg[0], -vfg[1])
            field += rng.normal(0.0, flow_sigma, field.shape)
            flows[t] = field.astype(np.float32)
    return Sequence(name, frames, flows, vbg)
