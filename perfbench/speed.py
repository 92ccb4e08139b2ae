"""The machine's speed, measured around every timed step.

On a shared host the same code runs up to twice as fast in one stretch of
seconds or minutes as in another, for interpreter and numpy work alike, so
raw seconds measure the neighbours as much as the program. A fixed probe,
interpreter work mixed with small-array numpy calls like a cascade step's, is
timed right before and right after each step, and the step's seconds are
scaled by ``REFERENCE_S`` over the mean of the two probe times. The scaled
figures read as seconds at a fixed reference speed: the speed at which the
probe takes ``REFERENCE_S``, close to a quiet 2-core Xeon VM's. A change to
the program moves them as it moves raw time; a change in the host's load
moves both the step and the probe, and cancels.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 2.0e-3
REPEATS = 3

_rng = np.random.default_rng(0)
_VECTORS = _rng.standard_normal((1000, 10))
_MASK = _rng.random(1000) < 0.3


def _probe_once() -> float:
    total = 0.0
    for i in range(150):
        dots = _VECTORS[_MASK] @ _VECTORS[i % 1000]
        total += float(dots.max()) + (i * 7 % 5)
    return total


def probe(clock=time.perf_counter) -> float:
    """Seconds the probe takes now: the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = clock()
        _probe_once()
        best = min(best, clock() - t0)
    return best


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, scaled
    to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
