"""Reference kernel and the rescaling of measured times to a nominal speed.

On a shared host the speed of one process drifts by a quarter or more over
tens of seconds, and the drift is nearly the same for everything the process
runs.  The benchmark therefore runs a fixed kernel in short slices between
calls into the program and rescales each measured program interval by the
slices next to it:

    rescaled = raw * NOMINAL_SLICE_S / local_slice_time

so a figure reads as the time the work would take on a host where one slice
takes ``NOMINAL_SLICE_S``.  The kernel is interpreter-bound the way the
program is: dict and tuple churn plus small numpy calls.

Run ``python3 perfbench/refclock.py`` to print the slice statistics of this
host; README.md says how ``NOMINAL_SLICE_S`` was derived.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

KERNEL_REPS = 320  # iterations of the kernel loop in one slice
NOMINAL_SLICE_S = 0.005  # slice time at the nominal speed (README.md)
TICK_S = 0.1  # tick() runs a slice when this long has passed since the last one

_KNOTS = np.linspace(0.0, 1.0, 9)
_MIX = np.arange(36, dtype=np.float64).reshape(6, 6) / 36.0
_UTIL = np.sin(np.arange(12 * 18 * 2, dtype=np.float64)).reshape(12, 18, 2)
_LAM = np.linspace(1.0, 3.0, 12)


def kernel(reps: int = KERNEL_REPS) -> float:
    """Fixed work: tuple-keyed dicts, short arrays, and a small solver-sized einsum."""
    acc = 0.0
    table: dict[tuple[int, int], list] = {}
    for i in range(reps):
        key = (i % 13, i % 7)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = [0.0, 0]
        cell[0] += i * 0.5
        cell[1] += 1
        rates = {(j, (i + j) % 5): float(j * ((i + j) % 5)) for j in range(6)}
        row = np.array([rates.get((j, (i + j) % 5), 0.0) for j in range(6)])
        best = int(np.argmax(_MIX @ row))
        acc += float(np.maximum(row - 2.0, 0.0).sum()) + best
        acc += float(np.searchsorted(_KNOTS, (i % 100) / 100.0))
        if i % 2:
            obj = np.einsum("i,ick->ck", _LAM, np.maximum(_UTIL + (i % 5) * 0.1, 0.0))
            acc += float(obj.max()) + int(np.argmax(obj))
    return acc + len(table)


class RefClock:
    """A timeline of reference slices; rescales program intervals against it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def slice(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= TICK_S:
            self.slice()

    def durations(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def local_slice(self, a: float, b: float) -> float:
        """Mean duration of the last slice ending by a and the first starting at b or later."""
        if not self.starts:
            raise RuntimeError("no reference slices recorded")
        before = bisect.bisect_right(self.ends, a) - 1
        after = bisect.bisect_left(self.starts, b)
        near = [i for i in (before, after) if 0 <= i < len(self.starts)]
        if not near:
            near = [len(self.starts) - 1]
        return sum(self.ends[i] - self.starts[i] for i in near) / len(near)

    def measure(self, t0: float, t1: float) -> tuple[float, float, float]:
        """(rescaled, raw, mean local slice) of program time in [t0, t1].

        Slices that ran inside the interval are cut out; each stretch of
        program time between them is rescaled by its own local slice time.
        """
        cuts = [t0]
        i = bisect.bisect_left(self.starts, t0)
        while i < len(self.starts) and self.ends[i] <= t1:
            cuts.extend((self.starts[i], self.ends[i]))
            i += 1
        cuts.append(t1)
        raw = rescaled = weighted_ref = 0.0
        for a, b in zip(cuts[::2], cuts[1::2]):
            if b <= a:
                continue
            ref = self.local_slice(a, b)
            raw += b - a
            rescaled += (b - a) * NOMINAL_SLICE_S / ref
            weighted_ref += (b - a) * ref
        return rescaled, raw, (weighted_ref / raw if raw > 0 else self.local_slice(t0, t1))


if __name__ == "__main__":
    clock = RefClock()
    for _ in range(5):
        clock.slice()  # warm-up
    clock = RefClock()
    for _ in range(200):
        clock.slice()
    d = sorted(clock.durations())
    q1, med, q3 = statistics.quantiles(d, n=4)
    print(f"slices={len(d)} median={med * 1e3:.3f} ms q1={q1 * 1e3:.3f} q3={q3 * 1e3:.3f} "
          f"min={d[0] * 1e3:.3f} max={d[-1] * 1e3:.3f} nominal={NOMINAL_SLICE_S * 1e3:.3f} ms")
