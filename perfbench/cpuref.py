"""CPU-speed reference for the benchmark's timings.

The virtual CPUs this benchmark was tuned on share their cores with other
tenants. How fast they run Python moves by up to 1.7x, for seconds to
minutes at a time, and it does so for the whole interpreter alike: a
fixed loop of dict, str and int work tracks the testbed's own calls with
a correlation of 0.96-0.98. Raw wall times from two runs a minute apart
therefore differ by more than most regressions.

So every timing the benchmark reports is scaled by how fast a fixed
reference kernel runs at that moment. A reported value is the wall time
the call would have taken on a CPU that runs the kernel in NOMINAL_S. The
kernel lives here, outside the program, so no change to drmtestbed can
move it, and it allocates no tracked containers besides one dict, so it
does not trigger collections of the program's heap.
"""

from __future__ import annotations

import statistics
import time

# a typical time of the kernel on the CPU the bounds were set on, so that
# scaled values there stay close to wall times
NOMINAL_S = 0.0008
# how often the kernel is re-timed, and how many timings the scale uses
EVERY_S = 0.2
WINDOW = 5

_BLOCK = bytes(range(256)) * 64


def reference_work() -> int:
    table = {}
    for i in range(1500):
        table[f"k{i}"] = i
    total = 0
    for key, value in table.items():
        total += value * len(key)
    wide = int.from_bytes(_BLOCK, "big")
    (wide ^ (wide >> 7)).to_bytes(len(_BLOCK) + 1, "big")
    return total


def time_reference() -> float:
    """Best of three timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedReference:
    """Scale factor from wall time to nominal-CPU time, re-timed every
    EVERY_S between the benchmark's calls."""

    def __init__(self):
        self.timings: list[float] = []
        self.scale = 1.0
        self._next = 0.0

    def update(self) -> None:
        if time.perf_counter() < self._next:
            return
        self.timings.append(time_reference())
        self.scale = NOMINAL_S / statistics.median(self.timings[-WINDOW:])
        self._next = time.perf_counter() + EVERY_S
