"""Host speed: a fixed reference workload timed beside the program.

On a shared VM the same code runs up to 60% slower for seconds to minutes
at a time, and interpreter and numpy work slow together.  So every time the
benchmark reports is scaled by how fast the host ran at that moment: a
:class:`Clock` times :func:`probe` — a fixed mix of interpreter and numpy
work owned by this directory, independent of ``repro`` — at most every
:data:`PERIOD_S`, and a sample taken while the probe took ``p`` seconds
counts as ``sample * NOMINAL_S / p``.  Times are thus in milliseconds
(or seconds) of a host on which the probe takes :data:`NOMINAL_S`.  A
change to the program moves them; a change in host speed moves the probe
too and largely cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: The probe's time on the 2-vCPU Intel Xeon VM (2.1 GHz) where the
#: benchmark was written, at its usual speed.
NOMINAL_S = 0.0037

#: Longest time between two probes of a timed phase.
PERIOD_S = 0.5

#: Probe repetitions; the fastest is the reading.  After an idle wait (as
#: in serve-mixed's pauses) the first few run up to 15% slow.
REPEATS = 6

_RNG = np.random.default_rng(20201)
_ARRAY = _RNG.integers(0, 1 << 30, 20_000)
_LIST = _RNG.integers(0, 1 << 30, 8_000).tolist()


def _reference() -> None:
    index = {}
    for i, x in enumerate(_LIST):
        index[x] = i
    ordered = sorted(_LIST)
    [index[x] for x in ordered]
    order = np.argsort(_ARRAY, kind="stable")
    _ARRAY[order].cumsum()


def probe() -> float:
    """Seconds the reference workload takes now (fastest of a few)."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """The scale factor ``NOMINAL_S / probe()`` over a phase.

    :meth:`tick` probes again once :data:`PERIOD_S` has passed since the
    last probe; call it between operations, never inside a timer.
    """

    def __init__(self, probe_fn=probe):
        self._probe = probe_fn
        self.readings: list[float] = []
        self.refresh()

    def tick(self) -> float:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.refresh()
        return self.factor

    def refresh(self) -> float:
        """Probe now, whatever the time since the last probe."""
        reading = self._probe()
        self.readings.append(reading)
        self.factor = NOMINAL_S / reading
        self._last = time.perf_counter()
        return self.factor
