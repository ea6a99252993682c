"""Calibration loop: a fixed piece of work that does not use actionorbits.

The benchmark host is a few cores of a shared machine, and its speed
changes by tens of percent from one second to the next; the change moves
every timing made at that moment together.  The benchmark runs this loop
before every operation and reports each timing scaled by ``NOMINAL_S``
over the loop's mean time around that timing: seconds on a machine on
which the loop takes ``NOMINAL_S``.  A change to the library cannot move
the loop, so it moves the scaled timings exactly as it moves the raw
ones.

The work mimics the library's mix: an RK4 integration of three bodies
with small NumPy arrays (per-call overhead, like ``return_error``), a
batched pair evaluation over many configurations and a basis product
(array arithmetic, like ``EvalKernel`` and ``forces`` in descent).
"""

from __future__ import annotations

import bisect
import time
from statistics import mean

import numpy as np

NOMINAL_S = 0.0125
REPEATS = 3          # loop runs per calibration
WINDOW = 0.5         # see speed_scale


def _forces(x):
    """Pairwise inverse-square forces on unit masses, x of shape (n, T, 3)."""
    n = x.shape[0]
    i_idx, j_idx = np.triu_indices(n, 1)
    d = x[i_idx] - x[j_idx]
    r = np.sqrt(np.einsum("ptc,ptc->pt", d, d))
    pair_f = (-1.0 / r ** 3)[:, :, None] * d
    incidence = np.zeros((n, i_idx.size))
    incidence[i_idx, np.arange(i_idx.size)] = 1.0
    incidence[j_idx, np.arange(j_idx.size)] = -1.0
    return np.tensordot(incidence, pair_f, axes=(1, 0))


def _work() -> float:
    pos = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.1]])
    vel = np.array([[0.0, -0.4, 0.0], [0.0, 0.4, 0.0], [0.1, 0.0, 0.0]])
    dt = 1e-3
    for _ in range(40):
        a1 = _forces(pos[:, None, :])[:, 0, :]
        a2 = _forces((pos + 0.5 * dt * vel)[:, None, :])[:, 0, :]
        p3 = pos + 0.5 * dt * (vel + 0.5 * dt * a1)
        a3 = _forces(p3[:, None, :])[:, 0, :]
        a4 = _forces((pos + dt * (vel + 0.5 * dt * a2))[:, None, :])[:, 0, :]
        pos = pos + dt * vel + dt * dt / 6.0 * (a1 + a2 + a3)
        vel = vel + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    k = np.arange(1, 49)
    basis = np.sin(np.outer(k, t))                       # (48, 512)
    coeffs = 1.0 / k[None, :] ** 2 * np.ones((12 * 3, 1))
    x = (coeffs @ basis).reshape(12, 3, t.size).transpose(0, 2, 1)
    x = x + np.arange(12)[:, None, None] * np.array([1.0, 0.5, 0.25])
    f = _forces(x)
    return float(pos.sum() + vel.sum() + f.sum())


def calibration_loop() -> float:
    """Seconds the work takes now: the mean over REPEATS runs."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return (time.perf_counter() - start) / REPEATS


def speed_scale(calibrations, start: float, end: float) -> float:
    """NOMINAL_S over the mean time of the calibrations around [start, end].

    ``calibrations`` holds (time at its middle, seconds) in time order.
    The mean is over those inside the interval or within WINDOW times its
    length of it, and at least the last one before it and the first one
    after it.  The host's speed changes from one second to the next, so
    only nearby calibrations track it; a long interval averages over
    longer stretches and takes in more of them.  A mean, because a timing
    is the integral of the host's slowness over its interval.
    """
    mids = [mid for mid, _ in calibrations]
    margin = WINDOW * (end - start)
    lo = max(bisect.bisect_left(mids, start - margin) - 1, 0)
    hi = min(bisect.bisect_right(mids, end + margin) + 1, len(mids))
    return NOMINAL_S / mean(s for _, s in calibrations[lo:hi])


def scaled_seconds(calibrations, intervals) -> float:
    """The summed length of ``intervals``, each scaled by its speed_scale."""
    return sum((end - start) * speed_scale(calibrations, start, end)
               for start, end in intervals)
