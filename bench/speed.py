"""The machine's momentary speed, from a fixed reference kernel.

On a shared two-CPU machine the same interpreter work runs up to half
again as slow for stretches of seconds to minutes, because other tenants
share the cores.  Such drift is slower than one operation and faster than
a run, so it moves whole runs apart.  The benchmark therefore times a
small fixed kernel (integer arithmetic, dict inserts, string building,
composing small permutation tables, a depth-first path search and
substring tests: what starshift spends its time on)
next to the operations, and scales every operation's wall time to the
reference speed, at which the kernel takes ``REFERENCE_SECONDS``.  A program that gets
faster still reads faster; the machine slowing down does not.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time (best of two) on the reference machine in NOTES.md.
REFERENCE_SECONDS = 6.0e-4
# Longest gap between two kernel samples during a pass.
INTERVAL_SECONDS = 0.04
# Samples on each side of an operation's own two that its scale looks at.
SMOOTHING = 2


_PERM = np.random.default_rng(0).permutation(1024)
_HOST = "aDaCaDaBaDaCaDa" * 100
_FOLLOWERS = {0: {"a": 1}, 1: {"B": 0, "C": 0, "D": 0}}


def kernel() -> float:
    start = perf_counter()
    total = 0
    for i in range(1000):
        total += i * i
    table = {}
    for i in range(150):
        table[str(i)] = i
    "".join(str(i) for i in range(150))
    perm = np.arange(1024)
    for _ in range(30):
        perm = _PERM[perm]
    # depth-first path search with string building and rotations
    stack, found = [(0, "")], set()
    while stack:
        state, word = stack.pop()
        if len(word) == 8:
            found.add(min(word[i:] + word[:i] for i in range(8)))
            continue
        for letter, target in _FOLLOWERS[state].items():
            stack.append((target, word + letter))
    sum(1 for i in range(0, 1000, 3) if _HOST[i : i + 40] in _HOST)
    return perf_counter() - start


class Speed:
    """Kernel samples taken along a pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Take a sample now; the best of two readings rejects a stray
        interrupt.  Returns the sample's index."""
        self.samples.append(min(kernel(), kernel()))
        self._last = perf_counter()
        return len(self.samples) - 1

    def latest(self) -> int:
        """Index of a sample no older than the interval, taking one if due."""
        if perf_counter() - self._last >= INTERVAL_SECONDS:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor from wall time to reference time for work done between
        sample ``before`` and the next one.  The median of the samples
        around it smooths the kernel's own jitter; the drift it corrects
        lasts far longer than the few samples it spans."""
        around = self.samples[max(0, before - SMOOTHING) : before + 2 + SMOOTHING]
        return REFERENCE_SECONDS / statistics.median(around)
