"""The speed of the machine, measured next to every timed call.

The vCPUs of a small shared VM change speed by up to 1.5x, in periods of a
few seconds to minutes, and a whole set of runs can fall in a slow period.
Raw times then move more between runs of the same code than the changes
they are meant to catch. So the benchmark times a fixed reference loop,
which is not vbisnr code, before and after each timed call, and scales the
call's time by ``REF_S / (reference time)``. A scaled time is the time the
call would take on a machine where the reference loop takes ``REF_S``.
A change to vbisnr moves the call but not the reference, so it shows in
full; a change of machine speed moves both, and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference loop's median time on the baseline machine, rounded. Any
# constant would do: it fixes the scale, not the ratios compared.
REF_S = 0.003
REPS = 15  # loops per probe; the probe reports their median


def _reference_loop() -> float:
    # Interpreted bytecode and a numpy reduction, like vbisnr's own work.
    total = 0
    for i in range(40000):
        total += i * i
    samples = np.arange(20000.0)
    return total + float(np.sum(samples * samples))


def probe() -> float:
    """Seconds one reference loop takes now (median of ``REPS``)."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Scaler:
    """Probes between timed calls; scales each call by the probes around it.

    Call ``add`` after each timed call with its raw times, and ``flush``
    after the last. A new probe is taken when ``every_s`` seconds have
    passed since the last one, so short calls share a probe pair and long
    calls each get their own. Calls waiting for the next probe are scaled
    when it is taken.
    """

    def __init__(self, every_s: float = 0.0):
        self.every_s = every_s
        self.probes = [probe()]
        self.last = time.perf_counter()
        self.raw: list[tuple] = []
        self.scaled: list[tuple] = []

    def add(self, *raw_s: float) -> None:
        self.raw.append(raw_s)
        if time.perf_counter() - self.last >= self.every_s:
            self.flush()

    def flush(self) -> None:
        waiting = self.raw[len(self.scaled):]
        if not waiting:
            return
        self.probes.append(probe())
        factor = REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.scaled.extend(tuple(t * factor for t in raw) for raw in waiting)
        self.last = time.perf_counter()
