"""Machine-speed probe: rescales wall times to a fixed reference speed.

The shared 2-core virtual machines this benchmark was sized on switch between a
fast and a slow state, up to 2x apart, within seconds; the same command
varied by 20-30% in wall time from one repetition to the next.  Medians
over repetitions cannot remove a drift that lasts a whole run, so every
timed block also samples the machine's speed.

While a block runs, a SIGALRM interval timer (no thread, no process) fires
every ``INTERVAL`` seconds in the main thread and times ``kernel()``: a
fixed mix of small numpy operations and Python object churn, the same kind
of work that dominates the program.  A block's wall time times
``REFERENCE / mean(kernel time)`` is its time on a machine where the kernel
takes ``REFERENCE`` seconds.  The probe itself costs about 1% of the block,
on the parent commit and a change alike.

The kernel does not call the program, but it runs in the program's process:
on its heap, between its bytecodes, and late when a long numpy call holds
the interpreter.  A change to the program's memory use or allocation
pattern can therefore move the factor a little.  That is why run.py reports
the plain wall-clock figures and the factor beside every rescaled one, and
sweep.py stores them in the trajectory: a claimed gain should also show in
wall time, and the factor's median should not move between the parent and
the change by more than the machine does between sets of runs.

The kernel runs with the cyclic garbage collector paused, so a collection
of the program's large autodiff graph is never billed to it.  Each sample
counts at most ``CLIP`` times the median: the slow state is at most about
2x, while a rare stall (the process descheduled for tens of milliseconds)
would otherwise swing the mean of a few hundred 0.1 ms samples far more
than it slows the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
REFERENCE = 1e-4
CLIP = 4.0
_ONES = np.ones(16)


def kernel() -> float:
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, keep = _ONES, []
        for i in range(32):
            acc = acc * 0.5 + 1.0
            keep.append((i, acc))
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


class SpeedProbe:
    """Context manager; ``scaled(wall)`` rescales the block's wall time."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(kernel())

    @property
    def factor(self) -> float:
        """REFERENCE over the mean (clipped) kernel time: below 1 on a slow machine."""
        cap = CLIP * statistics.median(self.samples)
        return REFERENCE * len(self.samples) / sum(min(s, cap) for s in self.samples)

    def scaled(self, wall: float) -> float:
        return wall * self.factor
