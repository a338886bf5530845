"""Discovery of data caves: unused writable memory to hide a payload in.

A cave is a maximal run of adjacent pages that the write probe classifies
writable and whose bytes are all zero, meaning nothing appears to be using
them.  Content is read only through ``PageMap.is_zero``, after the write
probe said the page is writable, so discovery stays fault-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memspace import page_runs
from .explorer import PageMap
from .probe import ACCESSIBLE, WRITABLE


@dataclass(frozen=True, slots=True)
class CaveRegion:
    start: int
    length: int


class NoCaveError(Exception):
    """No discovered cave is large enough.  The message names the size of
    every cave there was."""

    def __init__(self, need_len: int, caves: list[CaveRegion]):
        sizes = ", ".join(f"{c.length:#x}" for c in caves)
        super().__init__(
            f"no cave of at least {need_len:#x} bytes among {len(caves)} "
            f"cave{'' if len(caves) == 1 else 's'}"
            + (f", of {sizes} bytes" if caves else "")
        )
        self.need_len = need_len


def find_caves(pm: PageMap) -> list[CaveRegion]:
    """The ``page_runs`` of the zero writable pages, all under one key:
    maximal with respect to the probed set, and sorted by address.

    Only pages the store marks accessible are considered, and a page's
    bytes are checked for zero only on a writable verdict.  In a pipeline
    run the explore stage has clawed every accessible page already, so
    this pays no transaction; the claw below runs only for a caller whose
    store still holds a tap-only page.
    """
    entries = pm.entries
    usable = []
    for base in pm.bases():
        verdict = entries[base]
        if verdict is ACCESSIBLE:
            verdict = pm.claw(base)
        if verdict is WRITABLE and pm.is_zero(base):
            usable.append((base, WRITABLE))
    return [CaveRegion(start, end - start) for start, end, _ in page_runs(usable)]


def select_cave(caves: list[CaveRegion], need_len: int) -> CaveRegion:
    """First fit by address among caves large enough for ``need_len``."""
    if need_len <= 0:
        raise ValueError("need_len must be positive")
    for cave in sorted(caves, key=lambda c: c.start):
        if cave.length >= need_len:
            return cave
    raise NoCaveError(need_len, caves)
