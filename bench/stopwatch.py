"""Operation times corrected for the speed of a shared host.

On a shared host the program runs up to about 2 times slower for seconds
or minutes at a time, while other tenants load the processor it runs on.
The slowdown shows in CPU time as much as in wall time, so no clock inside
the process can subtract it.  The benchmark measures it instead: between
operations it times a fixed reference loop of its own, and it scales each
operation's time by how much slower the loop ran around that operation than
on an uncontended host.  A change to the program moves the operation's
time, never the loop's, so a slower program still reads slower; a busy
host moves both, and the ratio cancels it.

The scaled times are in seconds of an uncontended host.  ``REF_S`` is the
loop's time there, its fastest time on the host the bounds in
``BENCHMARK.json`` were measured on (a 2-vCPU Xeon at 2.1 GHz, CPython
3.11.7).  On another host the scaled times are still comparable with each
other, but not with wall time.
"""

from __future__ import annotations

from time import perf_counter

#: seconds the reference loop takes on an uncontended host (see above)
REF_S = 0.434e-3
#: a reference sample follows an operation once this long has passed since
#: the previous sample, so the loop costs about 5% of a pass at most
SAMPLE_EVERY_S = 0.025


def reference() -> int:
    """The reference loop: dictionary, set and integer work, like the program's.

    It allocates no objects the garbage collector tracks, so it never starts
    a collection of the program's objects.
    """
    counts: dict[int, int] = {}
    for i in range(4000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
    return len(sorted(set(counts)))


def reference_s() -> float:
    """Seconds of one reference loop, run warm.

    The first run after an operation finds the processor's caches full of
    the program's data and runs about 10% slower.  Timing the second keeps
    the program's memory use out of the reference.
    """
    reference()
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Stopwatch:
    """Times operations and samples the reference loop between them."""

    def __init__(self) -> None:
        #: wall seconds of each operation
        self.wall_s: list[float] = []
        self._refs = [reference_s()]
        self._last = perf_counter()
        #: per operation, the index of the last reference sample before it
        self._before: list[int] = []
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = perf_counter()

    def stop(self) -> None:
        end = perf_counter()
        self.wall_s.append(end - self._t0)
        self._before.append(len(self._refs) - 1)
        if end - self._last >= SAMPLE_EVERY_S:
            self._sample()

    def _sample(self) -> None:
        self._refs.append(reference_s())
        self._last = perf_counter()

    def host_s(self) -> list[float]:
        """Each operation's time scaled to an uncontended host.

        The reference time around an operation is the mean of the samples
        just before and just after it.
        """
        if self._before and self._before[-1] == len(self._refs) - 1:
            self._sample()
        refs = self._refs
        return [t * 2 * REF_S / (refs[b] + refs[b + 1]) for t, b in zip(self.wall_s, self._before)]

    def slowdown(self) -> float:
        """How much slower than on an uncontended host the loop ran, as a median."""
        refs = sorted(self._refs)
        return refs[len(refs) // 2] / REF_S
