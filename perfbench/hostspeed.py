"""Host speed, sampled beside every timing so the timing can be scaled to a
reference host.

The benchmark's host is a shared VM whose CPU speed drifts with the load of
other tenants: within one minute the same pipeline run took from 6.6 to
11.3 ms.  So each timing is paired with samples of a fixed reference
workload, the kernel, taken in step with it.  The kernel does the kinds of
work the pipeline does: it parses JSON, searches bytes with a regex, copies
pages, scans words against a set and calls methods on small objects.  It
calls nothing in ``caveprobe``, so no change to the program changes it.

A timing is reported as ``wall time * REFERENCE_MS / kernel median``: the
time it would have taken on a host where the kernel takes ``REFERENCE_MS``.
A change to the program moves that figure exactly as it moves wall time.
Drift of the host moves the timing and the kernel together and cancels.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

# A fixed round figure inside the range of kernel medians on the 2-vCPU VM
# the README describes (1.05 to 1.6 ms).  Only its constancy matters.
REFERENCE_MS = 1.2
# Sampling keeps the kernel's own time at about this share of the time it
# tracks, in batches of at least MIN_BATCH samples every BATCH_S seconds.
SHARE = 0.1
MIN_BATCH = 8
BATCH_S = 0.25

# Inputs of the reference work, built once at import.
_PAGES = [bytes((i * 7 + j) & 0xFF for j in range(4096)) for i in range(32)]
_BLOB = b"".join(_PAGES)
_MANIFEST = json.dumps(
    [{"base": hex(i * 4096), "perms": "r-x", "data": p[:512].hex()} for i, p in enumerate(_PAGES)]
)
_PATTERNS = re.compile(rb"\x58\xc3|\x5f\xc3|\x0f\x05")
_BASES = frozenset(range(0, 64 * 4096, 4096))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a + x) & 0xFF if x & 1 else self.b


def kernel() -> int:
    """One unit of reference work: parse a JSON manifest, search bytes for
    short patterns, copy pages and scan one word by word against a set of
    page bases, and call methods on small objects kept in a dict."""
    entries = json.loads(_MANIFEST)
    found = len(_PATTERNS.findall(_BLOB))
    copies = [bytearray(p) for p in _PAGES[:16]]
    data = copies[0]
    hits = 0
    for off in range(0, 4096, 8):
        value = int.from_bytes(data[off : off + 8], "little")
        if value & ~4095 in _BASES:
            hits += 1
    acc = 0
    seen = {}
    for cell in [_Cell(i, i * 3) for i in range(200)]:
        for x in range(4):
            acc += cell.step(x)
        seen[cell.a, cell.b] = acc
    return len(entries) + found + hits + len(seen)


class HostClock:
    """Kernel samples taken in step with the time being measured.

    Samples come in batches, at most every ``BATCH_S`` of tracked time, so
    their pattern does not depend on how long one run takes.  The first
    kernel call of a batch is not timed: it pays for the caches the program
    left cold, which would tie the samples to what the program does.
    """

    def __init__(self) -> None:
        self.batches: list[list[float]] = []  # kernel times, ms
        self._tracked = 0.0
        self._spent = 0.0
        self._pending = 0.0

    @property
    def samples(self) -> list[float]:
        return [ms for batch in self.batches for ms in batch]

    def track(self, seconds: float, batch: bool = False) -> None:
        """Account ``seconds`` of measured time just ended.  Once ``BATCH_S``
        have gathered, or if ``batch``, take a batch: sample the kernel
        until its own time is ``SHARE`` of all time tracked, and at least
        ``MIN_BATCH`` times."""
        self._tracked += seconds
        self._pending += seconds
        if not batch and self._pending < BATCH_S:
            return
        self._pending = 0.0
        kernel()
        samples: list[float] = []
        while len(samples) < MIN_BATCH or self._spent < SHARE * self._tracked:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
            samples.append(elapsed * 1e3)
            self._spent += elapsed
        self.batches.append(samples)

    def scale(self, first: int = 0, last: int = -1) -> float:
        """Factor from wall time to reference time, from the samples of
        batches ``first`` to ``last``, both included (by default all)."""
        window = self.batches[first : last % len(self.batches) + 1]
        return REFERENCE_MS / statistics.median(ms for batch in window for ms in batch)
