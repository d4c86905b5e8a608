"""Host-speed calibration: a fixed probe sampled while each op runs.

The benchmark runs on shared machines whose speed is not steady: the
development VM ran the same pure-Python code at full speed in one tenth
of a second and at half speed in the next, flipping many times within
one op, so no run length averages it out, and a reference loop timed
between ops does not see what happened during the op.

So while an op runs, :class:`Sampler` has a timer signal interrupt it
every :data:`SAMPLE_INTERVAL_S`, and the handler times a short fixed
probe (:func:`probe_seconds`).  The op's wall time without the probe
time is rescaled to a host on which the probe takes :data:`PROBE_REF_S`:

    calibrated = (wall - probe time) * PROBE_REF_S / mean(probe samples)

Ticks land in proportion to where the op spends its time, so a part of
the op (a layer's self time) is rescaled by the same factor.

The probe lives in the benchmark, not in ``src/``, so no change to the
program can speed it up.  It allocates no object the garbage collector
tracks, so it never triggers a collection and the program's heap does
not change its time.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

__all__ = ["PROBE_REF_S", "SAMPLE_INTERVAL_S", "Sampler", "probe_seconds", "scale_factor"]

#: Seconds the probe takes on the reference host.  Calibrated times are
#: "seconds on a host where the probe takes this long"; the value sets
#: the scale only (the probe's time on the development VM at full speed).
PROBE_REF_S = 0.000_175

#: Timer period between probe samples while an op runs.
SAMPLE_INTERVAL_S = 0.025

_ITERATIONS = 1_000


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _accumulator():
    total = 0
    while True:
        total = (total + (yield total)) & 0xFFFF


_GEN = _accumulator()
next(_GEN)
_COUNTS = dict.fromkeys(range(64), 0)
_SLOT = _Slot()


def probe_seconds() -> float:
    """Run the probe once; return its wall seconds.

    Generator resumes, dict counters and slotted attribute stores, as in
    the simulator's kernel, on preallocated objects and small integers.
    """
    gen, counts, slot = _GEN, _COUNTS, _SLOT
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        slot.value = gen.send(i & 255)
        key = i & 63
        counts[key] = counts[key] + 1
    return time.perf_counter() - t0


class Sampler:
    """Time the probe on every timer tick between :meth:`start` and
    :meth:`stop`.

    ``ticks`` are the probe times inside the work, so the work's wall
    time includes them.  One sampler may be active at a time (it owns
    ``SIGALRM``), and the work must not use ``SIGALRM`` or
    ``ITIMER_REAL`` itself.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self.ticks: list[float] = []
        self._previous = None
        self._probing = False

    def _tick(self, signum, frame) -> None:
        # A tick that arrives while the probe runs (the host stalled it
        # for a whole interval) would re-enter the probe's generator.
        if self._probing:
            return
        self._probing = True
        try:
            self.ticks.append(probe_seconds())
        finally:
            self._probing = False

    def start(self) -> None:
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, wall_s: float) -> float:
        """The factor that calibrates seconds measured within ``wall_s``.

        Times the probe once more, now, outside the work, so that work
        shorter than one tick still has a sample: call it after the
        work's timed region has ended.
        """
        return scale_factor(wall_s, self.ticks, probe_seconds())


def scale_factor(wall_s: float, ticks: list[float], after: float) -> float:
    """``(1 - sum(ticks) / wall_s) * PROBE_REF_S / mean(ticks + [after])``.

    ``wall_s`` includes the probe time ``sum(ticks)``.  Multiplying a
    time measured within it by the factor removes the probe's share and
    rescales the rest to the reference host.
    """
    return (1.0 - sum(ticks) / wall_s) * PROBE_REF_S / fmean([*ticks, after])
