"""Fixed reference computation that measures the host's current speed.

The benchmark runs it just before and just after every timed codec call
and divides the call's wall time by it (run.ms_per_frame). It imitates the
codec's mix of work on a fixed input: an interpreter loop of integer and
bit operations (exp-Golomb coding, run-level loops), sums of absolute
differences of small numpy blocks (block search), and 8x8 DCTs through
scipy.fft (transform). It never calls flowcodec, so a change to the
program leaves it unchanged.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.fft import dctn

# Seconds one reference_seconds() sample takes with the host at full speed,
# about what it took in the fast state of the 2-core x86_64 VM the benchmark
# was tuned on. It only scales the calibrated times to ms; any fixed value
# would do.
REFERENCE_S = 0.0011

# Best of REPEATS back-to-back runs, so an interrupt in one does not count.
REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 256, (64, 64)).astype(np.int32)
_B = _rng.integers(0, 256, (64, 64)).astype(np.int32)
_BLOCKS = _rng.normal(0.0, 40.0, (24, 8, 8))


def _work() -> int:
    acc = 0
    for i in range(2500):
        acc = (acc + (i * i ^ (acc >> 3))) & 0xFFFFFF
    for k in range(100):
        y, x = k % 48, (k * 7) % 48
        acc += int(np.abs(_A[y:y + 16, x:x + 16] - _B[x:x + 16, y:y + 16]).sum())
    for _ in range(12):
        acc += int(np.rint(dctn(_BLOCKS, axes=(1, 2), norm="ortho")[:, 0, 0]).sum())
    return acc


def reference_seconds() -> float:
    """Wall seconds of the reference work: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
