"""Speed of the host, measured by a fixed reference computation.

The benchmark's host is shared.  Other tenants slow its cores by up to 1.7
times, in stretches from under a second to minutes, and CPU time slows with
wall time, so neither clock can tell the program's cost from the host's state.
A fixed mix of pure-Python work slows by nearly the same factor as cwkit
does.  The benchmark samples the mix's time while a unit runs and gives each
operation's time at the mix's nominal speed:
``wall time * NOMINAL_S / reference time``.

The mix has four kernels, one per kind of work cwkit's layers do: integer
arithmetic in a loop, breadth-first search with a dict, bitmask
backtracking (Bron-Kerbosch), and hashing tuples that hold frozensets into
a dict.  Its time is the geometric mean of the kernels' times.  On the host
this was written on, log wall time of the program rose 0.65 to 1.35 times
as fast as log time of a single kernel, depending on the kernel, and 0.98
to 1.01 times as fast as that of the mix (oracle and witness units).

Nothing here imports cwkit, so no change to the program can move the
reference.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
from time import perf_counter

# A fixed scale: normalised times are seconds on a host where the mix takes
# NOMINAL_S.  On the host the benchmark was written on (2 vCPUs, CPython
# 3.11) the mix took 1.5-2.6 ms inside units, median 2.4 ms, so normalised
# times read about 1.3 times the wall times there.  The mix keeps
# under 0.7 MB of data, allocates under 0.3 MB and a handful of containers
# while it runs, so that it barely moves the unit's peak RSS or its garbage
# collections.
NOMINAL_S = 0.003
SAMPLE_EVERY_S = 0.3


class Reference:
    """The reference mix, on fixed inputs drawn from a constant seed."""

    def __init__(self) -> None:
        rng = random.Random("hostspeed")
        self._neighbours = [tuple(rng.sample(range(3000), 8)) for _ in range(3000)]
        self._masks = [0] * 40
        for u in range(40):
            for v in range(u + 1, 40):
                if rng.random() < 0.5:
                    self._masks[u] |= 1 << v
                    self._masks[v] |= 1 << u
        # Built once: a kernel that allocated containers would move the
        # program's garbage-collection schedule, which counts allocations.
        distinct = {}
        for i in range(4000):
            a, b = i % 23, i % 29
            distinct.setdefault((a, b), (a, b, frozenset((a, b))))
        self._keys = [distinct[i % 23, i % 29] for i in range(4000)]

    @staticmethod
    def _arithmetic() -> int:
        total = 0
        for i in range(40_000):
            total += i * i
        return total

    def _search(self) -> int:
        depth = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                d = depth[u] + 1
                for v in self._neighbours[u]:
                    if v not in depth:
                        depth[v] = d
                        nxt.append(v)
            frontier = nxt
        return len(depth)

    def _cliques(self) -> int:
        adj = self._masks
        count = 0

        def extend(candidates: int, excluded: int) -> None:
            nonlocal count
            if not candidates and not excluded:
                count += 1
                return
            while candidates:
                v = (candidates & -candidates).bit_length() - 1
                extend(candidates & adj[v], excluded & adj[v])
                candidates &= ~(1 << v)
                excluded |= 1 << v

        extend((1 << len(adj)) - 1, 0)
        return count

    def _hashing(self) -> int:
        table: dict = {}
        for key in self._keys:
            table[key] = table.get(key, 0) + 1
        return len(table)

    def time_s(self, repeats: int = 1) -> float:
        """Geometric mean over the kernels of each one's median time over
        ``repeats`` runs, with the cyclic garbage collector off so that the
        program's heap cannot lengthen them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            logs = []
            for kernel in (self._arithmetic, self._search, self._cliques, self._hashing):
                times = []
                for _ in range(repeats):
                    t0 = perf_counter()
                    kernel()
                    times.append(perf_counter() - t0)
                logs.append(math.log(statistics.median(times)))
        finally:
            if enabled:
                gc.enable()
        return math.exp(statistics.fmean(logs))


class Sampler:
    """Times the reference mix every SAMPLE_EVERY_S, wherever the process is,
    from a SIGALRM handler; also once on entry and once on exit.

    ``samples`` holds (start, end, reference time) per sample.  A handler that
    runs inside a timed operation lengthens it by end - start, which
    ``normalise`` takes off again.
    """

    def __init__(self) -> None:
        t0 = perf_counter()
        self.reference = Reference()
        self.samples: list[tuple[float, float, float]] = []
        self.built_s = perf_counter() - t0

    def sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        ref = self.reference.time_s()
        self.samples.append((t0, perf_counter(), ref))

    def __enter__(self) -> Sampler:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def setup(self) -> tuple[float, float]:
        """Call once set-up has ended.  Returns the time the sampler took
        before that point, to take off the set-up time, and the mean
        reference time over the samples taken up to then and one taken now.
        """
        ready = perf_counter()
        self.sample()
        before = [end - start for start, end, _ in self.samples if start < ready]
        return self.built_s + sum(before), statistics.fmean(ref for _, _, ref in self.samples)

    def normalise(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) interval's time, less the samples taken inside
        it, at the nominal speed: scaled by the mean reference time over the
        samples inside it and the nearest one on either side."""
        samples = self.samples
        out = []
        first = 0  # the last sample that starts before the current interval
        for start, end in intervals:
            while first + 1 < len(samples) and samples[first + 1][0] < start:
                first += 1
            last = first + 1
            inside = 0.0
            while last < len(samples) and samples[last][0] < end:
                inside += samples[last][1] - samples[last][0]
                last += 1
            last = min(last, len(samples) - 1)
            refs = [ref for _, _, ref in samples[first:last + 1]]
            out.append(normalised(end - start - inside, statistics.fmean(refs)))
        return out


def normalised(wall_s: float, reference_s: float) -> float:
    """``wall_s`` at the reference's nominal speed."""
    return wall_s * NOMINAL_S / reference_s
