"""Discovery of data caves: unused writable memory to hide a payload in.

A cave is a maximal run of adjacent pages that the write probe classifies
writable and whose bytes are all zero, meaning nothing appears to be using
them.  Content is read only through ``PageMap.is_zero``, after the write
probe said the page is writable, so discovery stays fault-free.
"""

from __future__ import annotations

from .memspace import PageRun, page_runs
from .explorer import PageMap
from .probe import WRITABLE


class NoCaveError(Exception):
    """No discovered cave is large enough.  The message names the size of
    every cave there was."""

    def __init__(self, need_len: int, caves: list[PageRun]):
        sizes = ", ".join(f"{c.end - c.start:#x}" for c in caves)
        super().__init__(
            f"no cave of at least {need_len:#x} bytes among {len(caves)} "
            f"cave{'' if len(caves) == 1 else 's'}"
            + (f", of {sizes} bytes" if caves else "")
        )
        self.need_len = need_len


def find_caves(pm: PageMap) -> list[PageRun]:
    """The ``page_runs`` of the pages ``pm`` stores writable whose bytes
    are all zero: maximal with respect to the probed set, and sorted by
    address.  It probes nothing, so every accessible page must hold its
    claw verdict, as it does after the explore stage; a page stored as a
    bare tap hit is not a cave."""
    entries = pm.entries
    usable = [(base, WRITABLE) for base in pm.bases()
              if entries[base] is WRITABLE and pm.is_zero(base)]
    return page_runs(usable)


def select_cave(caves: list[PageRun], need_len: int) -> PageRun:
    """First fit by address among caves large enough for ``need_len``."""
    if need_len <= 0:
        raise ValueError("need_len must be positive")
    for cave in sorted(caves, key=lambda c: c.start):
        if cave.end - cave.start >= need_len:
            return cave
    raise NoCaveError(need_len, caves)
