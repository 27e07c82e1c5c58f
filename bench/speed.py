"""Timing normalised to a reference machine speed.

On a host shared with other tenants, the same Python code runs up to about
1.5 times slower for seconds at a time, and CPU time tracks wall time, so
neither medians of repeats within a run nor CPU time remove the swing.  A
ProbeClock therefore runs a fixed probe (dict updates, a sort and random
reads over 16 MiB, about 1 ms) from a SIGALRM handler every
PROBE_INTERVAL_S seconds, interleaved with the measured code.  An interval's
time is its wall time minus the probes' own time, scaled by
REFERENCE_PROBE_S over the mean probe time inside the interval: the seconds
the interval would take on a machine where the probe takes exactly
REFERENCE_PROBE_S.  On a shared 2-vCPU x86-64 VM this cut the spread of a
repeated graph-edit-distance loop from 15% to 2% of its median, and that of
whole featurize stages from about 20% to about 5%.  It does not remove
everything: some slow spells hit the pipeline harder than the probe.  Raw
wall times are kept next to the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.025
REFERENCE_PROBE_S = 0.0015  # about the probe's median on a shared 2-vCPU x86-64 VM
_KEYS = [str(i) for i in range(512)]
_MEMORY_BYTES = 16 << 20


def probe(memory: bytes, offsets: list[int]) -> int:
    counts: dict[str, int] = {}
    for i in range(3000):
        key = _KEYS[i & 511]
        counts[key] = counts.get(key, 0) + i
    total = sum(sorted(counts.values()))
    for offset in offsets:  # feel cache and memory contention, not only the interpreter
        total += memory[offset]
    return total


class ProbeClock:
    """Interleaves probes with the caller's work while running (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # duration of each probe
        self.spent = 0.0  # total time inside probes
        self._previous = None
        self._memory = bytes(range(256)) * (_MEMORY_BYTES // 256)  # resident, not zero pages
        self._offsets = [(i * 2654435761) % _MEMORY_BYTES for i in range(4000)]

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe(self._memory, self._offsets)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "ProbeClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # every interval has at least one probe to refer to
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """A clock that stands still while a probe runs."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple[float, int]:
        return self.now(), len(self.samples)

    def factor(self, mark: tuple[float, int]) -> float:
        """REFERENCE_PROBE_S over the mean probe since mark (or the last one before it)."""
        recent = self.samples[max(0, mark[1] - 1):]
        return REFERENCE_PROBE_S / statistics.fmean(recent)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(probe-free wall seconds, normalised seconds) since mark."""
        wall = self.now() - mark[0]
        return wall, wall * self.factor(mark)
