"""Host-speed sampling: compute timings in reference-speed seconds.

The benchmark's host shares its cores with other tenants.  Their load
slows the same code by up to 70%, and the slow and fast states switch
many times a second, so a timing of one operation mostly measures the
neighbours.  While a compute pass runs, :class:`Pacer` has an interval
timer interrupt the main thread every :data:`INTERVAL_S` and times a
fixed probe there: small-array NumPy ufuncs in a Python loop, the mix
the transient kernel runs.  The probe's time at that instant, against
:data:`REFERENCE_PROBE_S`, is the host's slowdown at that instant.

An operation's *paced* time is its wall time minus the probes inside
it, divided by the mean slowdown those probes saw (the mean of
``REFERENCE_PROBE_S / probe``, since the samples are uniform in wall
time): the seconds it would have taken at the reference speed.  The
probe is the benchmark's own code, so a change to the program moves
paced times exactly as it moves the work.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Wall time between two probes.
INTERVAL_S = 0.025

#: Loop rounds of one probe: about 0.3 ms on a quiet core.
PROBE_ROUNDS = 40

#: The probe's time on a quiet core of the machine the benchmark was
#: tuned on (a 2-vCPU Xeon KVM guest), so paced and wall times agree
#: there; it only sets the scale.
REFERENCE_PROBE_S = 3.0e-4


class Pacer:
    """Samples the host's speed while installed (``with pacer:``)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((16, 2))
        self._b = rng.random((16, 2))
        #: ``(perf_counter at start, seconds)`` of every probe.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None
        # The first NumPy calls of a process are slower: not a sample.
        self._probe(None, None)
        self.samples.clear()

    def _probe(self, signum, frame) -> None:
        # The program's garbage must not be collected on the probe's clock.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        v, b = self._a, self._b
        for _ in range(PROBE_ROUNDS):
            x = np.maximum(v - b, 0.0)
            y = np.where(v > 0.5, x * 1.01, np.exp(-x))
            v = np.clip(v + 1e-3 * (y - v), -0.1, 1.1)
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paced(self, start: float, seconds: float) -> Tuple[float, float]:
        """``(net, paced)`` seconds of the span ``[start, start+seconds)``:
        its wall time without the probes inside it, and that time at the
        reference speed.  A span no probe fell in is left as measured."""
        inside = [d for t, d in self.samples if start <= t < start + seconds]
        net = seconds - sum(inside)
        if not inside:
            return net, net
        return net, net * statistics.fmean(REFERENCE_PROBE_S / d
                                           for d in inside)
