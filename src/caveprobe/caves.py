"""Discovery of data caves: unused writable memory to hide a payload in.

A cave is a maximal run of adjacent pages that the write probe classifies
writable and whose bytes are all zero, meaning nothing appears to be using
them.  Content is read only through ``PageMap.zero_pages``, one read per
run of pages the write probe said are writable, so discovery stays
fault-free.
"""

from __future__ import annotations

from .memspace import PAGE_SIZE, PageRun
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
    """The maximal runs of adjacent pages ``pm`` stores writable whose
    bytes are all zero, kind ``WRITABLE``, sorted by address: maximal with
    respect to the probed set, as ``page_runs`` would coalesce them page by
    page.  Each writable run of ``pm.runs()`` is tested by one read, and
    two runs of one kind are never adjacent, so no cave spans two.  It
    probes nothing, so every accessible page must hold its claw verdict, as
    it does after the explore stage; a page stored as a bare tap hit is not
    a cave."""
    found = []
    for start, end, kind in pm.runs():
        if kind is not WRITABLE:
            continue
        zero = pm.zero_pages(start, end)
        i = zero.find(1)
        while i >= 0:
            j = zero.find(0, i)
            if j < 0:
                j = len(zero)
            found.append(PageRun(start + i * PAGE_SIZE, start + j * PAGE_SIZE, WRITABLE))
            i = zero.find(1, j)
    return found


def select_cave(caves: list[PageRun], need_len: int) -> PageRun:
    """First fit among ``caves``, in address order as ``find_caves`` gives
    them, large enough for ``need_len``."""
    for cave in caves:
        if cave.end - cave.start >= need_len:
            return cave
    raise NoCaveError(need_len, caves)
