"""A yardstick for the machine's speed, timed between the operations.

The benchmark runs on a few vCPUs of a shared host. There each vCPU runs at
one of two speeds, about 1.5x apart, and switches between them within
seconds; a slow spell can last tens of seconds. Wall times taken in a run
of 20 s therefore read how many slow spells fell on it as much as how fast
the program is. The yardstick is a fixed piece of reference work that never
touches bolf: small NumPy array operations and an interpreter loop, the mix
that bolf's per-sample code runs. Timed right after each operation, it
tells how fast the machine was while the operation ran, and an operation's
time scaled by ``nominal / yardstick`` reads much the same whatever spell
it fell on.

It runs the way the workload's operations run: on one thread, or, for a
workload whose operations score frames on the CLI's thread pool, on a pool
of the same size, so that it meets the same contention for the cores and
for the interpreter lock.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Seconds of operation time per yardstick run after it: long operations are
# followed by more runs, so the yardstick samples a steady share of the time.
EVERY_S = 0.05

# One yardstick time, serial and on the pool, on the reference machine (a
# 2-vCPU 2.0 GHz Xeon). They only set the scale, so that scaled times read
# about as wall times on that machine.
NOMINAL_S = {"serial": 0.0025, "pool": 0.012}


class Yardstick:
    def __init__(self, pooled: bool):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((17, 64))
        self._w = rng.standard_normal((64, 64))
        # the pool `bolf eval` scores frames on has min(8, cpu_count) threads
        self.threads = min(8, os.cpu_count() or 1) if pooled else 1
        self.nominal = NOMINAL_S["pool" if pooled else "serial"]
        self.history: list[float] = []  # every measurement, in seconds
        self.last = self.measure(0.0)

    def _once(self) -> float:
        total = 0.0
        for _ in range(100):
            x = self._x @ self._w
            x = np.exp(x - x.max(axis=1, keepdims=True))
            x /= x.sum(axis=1, keepdims=True)
            for i in range(100):
                total += i
        return total + float(x[0, 0])

    def measure(self, after: float) -> float:
        """Seconds per yardstick run, averaged over 1 + ``after`` / EVERY_S
        runs; on the pool a run is one piece of work per thread."""
        runs = 1 + int(after / EVERY_S)
        start = time.perf_counter()
        if self.threads == 1:
            for _ in range(runs):
                self._once()
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(lambda _: self._once(), range(runs * self.threads)))
        self.history.append((time.perf_counter() - start) / runs)
        return self.history[-1]

    def restart(self, ahead: float) -> None:
        """Measure afresh before ``ahead`` seconds of work that does not
        follow the last one measured."""
        self.last = self.measure(ahead)

    def scaled(self, elapsed: float) -> float:
        """``elapsed`` wall seconds, just ended, in nominal seconds: scaled by
        the mean of the yardstick before and after them."""
        after = self.measure(elapsed)
        scale = self.nominal / ((self.last + after) / 2)
        self.last = after
        return elapsed * scale
