"""The machine's pace, sampled while the program runs, to scale its times.

This benchmark runs on shared hosts whose speed drifts: the same
pure-Python loop can take half as long again from one minute to the next,
with no change in the code.  Raw wall times then spread more between runs
than any change worth catching.  So while an operation runs, a timer
interrupts it every ``PERIOD_S`` seconds and the signal handler times a
fixed probe, a short pure-Python loop that does not touch the program.
Each probe's duration gives the machine's speed at that moment.

``Pace.scaled(a, b)`` turns the wall time of an interval into reference
seconds: the time the interval's work would take on a machine on which
the probe takes ``REFERENCE_PROBE_S``.  It removes the probes' own time
from the interval and multiplies what is left by the mean of
``REFERENCE_PROBE_S / probe`` over the probes taken in and next to it
(the mean speed over wall time, so a slow stretch counts for as long as
it lasted).
A program change that does more work still shows in full; a slower
machine does not.

The probe runs in the main thread between bytecodes, allocates nothing
the garbage collector tracks and starts no thread or process.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.15
PROBE_LOOPS = 8_000
# One probe on an unloaded vCPU of the reference machine (Intel Xeon,
# Python 3.11): the fast end of what it measures there.
REFERENCE_PROBE_S = 0.0062


def _box(i: int) -> tuple[float, float, float, float]:
    x, y = (i * 37 % 97) / 97.0, (i * 61 % 89) / 89.0
    return (x, y, x + 0.05 + (i * 13 % 23) / 46.0, y + 0.05 + (i * 17 % 29) / 58.0)


BOXES = tuple(_box(i) for i in range(256))


def probe() -> float:
    """Box-overlap arithmetic on floats and tuples, the kind of Python the
    program's hot loops run: a probe of that kind follows the program's
    speed more closely than one of plain integer arithmetic does."""
    acc = 0.0
    for i in range(PROBE_LOOPS):
        a, b = BOXES[i & 255], BOXES[(i * 7) & 255]
        w = min(a[2], b[2]) - max(a[0], b[0])
        h = min(a[3], b[3]) - max(a[1], b[1])
        if w > 0 and h > 0:
            acc += w * h
    return acc


class Pace:
    """Probe samples (start, duration), taken on a timer between ``start``
    and ``stop`` and once at each end, so every interval has two."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> "Pace":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b].  Its speed comes from
        the probes taken in it or within one period of either end (so the
        probes at ``start`` and ``stop`` count), or else from all probes."""
        inside = [d for t, d in self.samples if a <= t and t + d <= b]
        speed = [d for t, d in self.samples if a - PERIOD_S <= t <= b + PERIOD_S]
        return to_reference((b - a) - sum(inside), speed or [d for _, d in self.samples])


def to_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` of wall time at the speed the probe durations show,
    as seconds at the reference speed."""
    return seconds * sum(REFERENCE_PROBE_S / d for d in probes) / len(probes)


def paced(fn, *args) -> list[float]:
    """Call ``fn(*args)`` under a pace; the probe durations."""
    pace = Pace().start()
    try:
        fn(*args)
    finally:
        pace.stop()
    return [d for _, d in pace.samples]
