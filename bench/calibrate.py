"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host, whose speed shifts by up
to 1.8x for stretches of seconds to minutes, on every kind of code, and even
the fastest of a run's samples moves with it (README.md).  No statistic of the
program's own wall times removes a shift that covers a whole run, so every
end-to-end time is scaled by this loop, timed in the same stretch:

    scaled = wall * REFERENCE_S / (the loop's time next to the op)

``REFERENCE_S`` is the loop's time on an uncontended core of the host the
benchmark was defined on, so a scaled time reads as seconds on that core at
its fast speed.  The loop uses only numpy and scipy, none of ``execsched``,
so a change to the program moves the scaled times and leaves the loop alone.

A pass runs ``erfcx`` (the Mills kernel's scipy call) over a fixed array and
a small matrix-vector recursion, whose numpy calls cost mostly interpreter
time.  Pure-Python text handling, which attribute and simulate do plenty
of, is left out on purpose: timed beside the ops of every workload, it
tracked the host's speed worst of the loop parts tried (README.md).
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.special import erfcx

# The loop's wall time on an uncontended core of the benchmark's 2-vCPU
# Xeon host (fastest of 2000 samples: 4.95 ms).
REFERENCE_S = 0.005

_U = np.linspace(-20.0, 30.0, 400_000)
# Written in place, so that a pass allocates no large array and the heap the
# program sees does not depend on how many passes ran.
_E = np.empty_like(_U)
_M = np.random.default_rng(7).normal(size=(120, 120))


def work() -> float:
    """One pass of the reference loop; the return value only defeats shortcuts."""
    acc = float(np.log(erfcx(_U, out=_E), out=_E).sum())
    v = np.ones(_M.shape[0])
    for _ in range(400):
        v = _M @ v
        v /= np.abs(v).max()
    return acc + float(v.sum())


def timed() -> float:
    t0 = perf_counter()
    work()
    return perf_counter() - t0


class Timeline:
    """Ops and calibration passes in the order they ran.

    A pass runs first, and after every op passes run for about
    ``CAL_SHARE`` of the op's time (at least one), so every op has passes
    on both sides.  An op's scaled time divides its wall time by the median
    of those passes: the host's speed shifts within seconds, so passes
    further away say less about the op, and the median ignores a pass that
    a short stall hit.
    """

    # Calibration time after each op, as a share of the op's wall time.
    CAL_SHARE = 0.1

    def __init__(self):
        work()  # the first pass pays numpy's and scipy's lazy set-up
        self.entries: list[tuple[str | None, float]] = [(None, timed())]

    def add(self, name: str, wall: float) -> None:
        self.entries.append((name, wall))
        for _ in range(max(1, round(self.CAL_SHARE * wall / REFERENCE_S))):
            self.entries.append((None, timed()))

    def _passes_beside(self, j: int) -> list[float]:
        out = []
        for step in (-1, 1):
            k = j + step
            while 0 <= k < len(self.entries) and self.entries[k][0] is None:
                out.append(self.entries[k][1])
                k += step
        return out

    def scaled(self) -> dict[str, list[float]]:
        """Op name -> its scaled times, in run order."""
        out: dict[str, list[float]] = {}
        for j, (name, wall) in enumerate(self.entries):
            if name is not None:
                near = statistics.median(self._passes_beside(j))
                out.setdefault(name, []).append(wall * REFERENCE_S / near)
        return out

    def walls(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, wall in self.entries:
            if name is not None:
                out.setdefault(name, []).append(wall)
        return out

    def passes(self) -> list[float]:
        return [wall for name, wall in self.entries if name is None]
