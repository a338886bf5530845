"""Address-space exploration strategies built on the probe primitives.

Two strategies are offered: a linear page sweep, and a pointer-chasing
breadth-first walk that harvests pointer-looking words from every page it
can read.  Both classify pages purely through probes, and read only through
``PageMap.read``, which refuses a page no probe has shown accessible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .memspace import (
    PAGE_SIZE, USER_TOP, AddressSpace, GroundTruthMap, MemoryFault,
    lane_filter, PageRun, page_runs,
)
from .probe import ACCESSIBLE, NO_ACCESS, READ_ONLY, WRITABLE, Prober, Writability

DEFAULT_BUDGET = 4096
MAX_GAP = 64

_WORD = struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")  # a saved (rbp, rip) slot pair
_PAGE_MASK = ~(PAGE_SIZE - 1)


class ExploreBudgetError(Exception):
    """A page needed a first probe after the store held its budget."""


class NoFrameError(ValueError):
    """No slot above the stack pointer holds a plausible frame."""


@dataclass(slots=True)
class PageMap:
    """Probe verdicts keyed by page base address: the one store a run
    probes and reads through, the injector's checks included.  It owns the
    space and the prober; ``read`` and ``zero_pages`` touch only pages it
    stores accessible.  Each page maps to the strongest verdict its probes
    settled, as the prober returned it: a claw's, or a tap's when no claw
    ran, so ``ACCESSIBLE`` marks a page tapped but not clawed.  The victim
    is paused, so a verdict holds for the whole run; ``tap``, ``claw`` and
    ``walk`` probe a page only for a verdict not yet stored.  No more than
    ``budget`` pages are ever probed in the run.  Pages are only ever added
    to ``entries``, never removed; a verdict changes only when a page
    stored as a bare tap hit is clawed."""

    space: AddressSpace
    prober: Prober
    budget: int = DEFAULT_BUDGET
    entries: dict[int, Writability] = field(default_factory=dict)

    def runs(self) -> list[PageRun]:
        """``page_runs`` of every stored verdict, misses included, in address
        order, built anew on each call."""
        return page_runs(sorted(self.entries.items()))

    def accessible_pages(self) -> list[int]:
        entries = self.entries
        return [b for b in sorted(entries) if entries[b] is not NO_ACCESS]

    def read(self, addr: int, n: int) -> bytes:
        """``n`` bytes at ``addr`` if every page they touch is stored
        accessible, else MemoryFault "unprobed", with nothing read."""
        entries = self.entries
        base = addr & _PAGE_MASK
        last = (addr + n - 1) & _PAGE_MASK  # below ``base`` when n is 0 at a page start
        if entries.get(base, NO_ACCESS) is NO_ACCESS and base <= last:
            raise MemoryFault(addr, "unprobed")
        while base < last:
            base += PAGE_SIZE
            if entries.get(base, NO_ACCESS) is NO_ACCESS:
                raise MemoryFault(base, "unprobed")
        return self.space.read_bytes(addr, n)

    def zero_pages(self, start: int, end: int) -> bytes:
        """``AddressSpace.zero_pages`` of the page-aligned range [start,
        end) if every page in it is stored accessible, else MemoryFault
        "unprobed" at the first page that is not, with nothing read."""
        entries = self.entries
        for base in range(start, end, PAGE_SIZE):
            if entries.get(base, NO_ACCESS) is NO_ACCESS:
                raise MemoryFault(base, "unprobed")
        return self.space.zero_pages(start, end)

    def _spent(self, base: int) -> ExploreBudgetError:
        return ExploreBudgetError(
            f"explore budget of {self.budget} page{'s' * (self.budget != 1)} is spent; "
            f"page {base:#x} needs one more"
        )

    def tap(self, base: int) -> bool:
        """Whether the page at ``base`` is accessible, tapped at most once."""
        verdict = self.entries.get(base)
        if verdict is None:
            if len(self.entries) >= self.budget:
                raise self._spent(base)
            verdict = self.entries[base] = self.prober.tap(self.space, base)
        return verdict is not NO_ACCESS

    def claw(self, base: int) -> Writability:
        """Writability of the page at ``base``, clawed at most once.  A new
        page costs one write transaction if writable, and a tap more if
        not; a page already tapped accessible costs only the write."""
        verdict = self.entries.get(base)
        if verdict is None:
            if len(self.entries) >= self.budget:
                raise self._spent(base)
            verdict = self.prober.claw(self.space, base)
        elif verdict is ACCESSIBLE:
            verdict = self.prober.claw(self.space, base, known_accessible=True)
        else:
            return verdict
        self.entries[base] = verdict
        return verdict

    def walk(self, base: int, step: int, gap: int, claw_hits: bool) -> int:
        """Probe from ``base`` by ``step`` until ``gap`` pages in a row missed
        or the user half ends; return the last hit, or ``base - step``.  The
        one probe-order rule: claw a page when the one before it on the walk
        is stored accessible and not read-only, as a writable page then costs
        one transaction, not a tap and a claw; else tap, as a gap costs one
        transaction to tap and two to claw.  ``claw_hits`` claws each hit too.
        Only a page stored as tapped accessible is probed again, by a claw."""
        entries, space, budget = self.entries, self.space, self.budget
        tap, claw = self.prober.tap, self.prober.claw
        last, misses = base - step, 0
        before = entries.get(base - step)  # then the verdict the last page settled
        while 0 <= base < USER_TOP and misses < gap:
            verdict = entries.get(base)
            if verdict is None or verdict is ACCESSIBLE:
                clawed = before is ACCESSIBLE or before is WRITABLE
                if verdict is None:
                    if len(entries) >= budget:
                        raise self._spent(base)
                    verdict = entries[base] = (claw if clawed else tap)(space, base)
                if verdict is ACCESSIBLE and (clawed or claw_hits):
                    verdict = entries[base] = claw(space, base, known_accessible=True)
            if verdict is NO_ACCESS:
                misses += 1
            else:
                misses, last = 0, base
            before = verdict
            base += step
        return last


@dataclass(frozen=True, slots=True)
class ReconstructedMap:
    """The store's accessible pages, coalesced into runs of adjacent pages
    of one class."""

    runs: tuple[PageRun, ...]


def harvest_pointers(page_bytes: bytes) -> list[int]:
    """Extract pointer candidates from one page's bytes in word order:
    aligned 8-byte words that are nonzero and fall inside the user half.
    Only the words ``lane_filter`` marks are read."""
    marks = lane_filter(page_bytes)
    found = []
    i = marks.find(1)
    while i >= 0:
        v = _WORD.unpack_from(page_bytes, 8 * i)[0]
        if v < USER_TOP:
            found.append(v)
        i = marks.find(1, i + 1)
    return found


def explore_from_pointers(pm: PageMap, pointers: tuple[int, ...]) -> PageMap:
    """Breadth-first pointer chase from the addresses in ``pointers``.

    Each dequeued page is tapped; accessible pages are read (only after the
    tap) and mined for further pointer candidates.  Inaccessible candidates
    are recorded too.  The store raises ExploreBudgetError at the first
    page beyond its budget.
    """
    queue = list(dict.fromkeys(AddressSpace.page_base(p) for p in pointers))
    queued = set(queue)
    qi = 0
    while qi < len(queue):
        base = queue[qi]
        qi += 1
        if not pm.tap(base):
            continue
        data = pm.read(base, PAGE_SIZE)
        for ptr in harvest_pointers(data):
            nb = AddressSpace.page_base(ptr)
            if nb not in queued:
                queue.append(nb)
                queued.add(nb)
    return pm


def _sweep(pm: PageMap, anchor: int) -> None:
    """Linear sweep from ``anchor``: walk up from its page, then down from
    the page below, each until ``MAX_GAP`` pages in a row missed.  A page is
    a hit or a miss as with taps alone."""
    base = AddressSpace.page_base(anchor)
    pm.walk(base, PAGE_SIZE, MAX_GAP, False)
    pm.walk(base - PAGE_SIZE, -PAGE_SIZE, MAX_GAP, False)


def frame_above(pm: PageMap, stack_ptr: int) -> tuple[int, int, int]:
    """(slot address, saved base pointer, saved return address) of the
    innermost plausible frame above ``stack_ptr``.

    Grows the stack extent around ``stack_ptr`` through ``pm``, then walks
    upward at 8-byte alignment for a slot whose value points higher into
    the extent (a frame-pointer chain link) and whose neighbor holds a
    return address on a page that claws read-only through ``pm``: its
    probe verdict vouches for it, and a page already stored costs nothing.
    The canary slot just below it must not lie below ``stack_ptr``, where
    the stack may end.  The slots are read a stack page at a time, with
    the 8 bytes of the pair that crosses the page's end.
    """
    lo, hi = region_around(pm, stack_ptr)
    unpack = _PAIR.unpack_from
    at = (stack_ptr + 15) & ~7  # the first slot whose canary is not below
    end = hi - 8  # the slot of a pair must leave room for its rip
    while at < end:
        stop = min((at & _PAGE_MASK) + PAGE_SIZE, end)
        raw = pm.read(at, stop + 8 - at)
        for slot in range(at, stop, 8):
            rbp, rip = unpack(raw, slot - at)
            if slot < rbp < hi and rip < USER_TOP and pm.claw(rip & _PAGE_MASK) is READ_ONLY:
                return slot, rbp, rip
        at = stop
    raise NoFrameError(
        f"no plausible frame above the stack pointer {stack_ptr:#x}: "
        f"scanned {len(range((stack_ptr + 7) & ~7, hi - 15, 8))} slots "
        f"of the stack region {lo:#x}-{hi:#x}"
    )


def explore(pm: PageMap, mode: str, stack_pointer: int) -> tuple[int, int, int] | None:
    """Run one exploration strategy from the stack pointer, the only
    address the attacker is given, through ``pm``; it stops gracefully when
    the store's budget is spent.  Returns the ``frame_above`` the stack
    pointer that the strategy found, else None.

    ``linear``: gap-limited bidirectional sweep around the stack pointer,
    then around the saved return address of the first frame above it; it
    claws on through accessible runs, so a writable page costs one transaction.
    Without that frame nothing leads to the code, so the walk's ValueError
    propagates.
    ``pointer-chase`` and ``hybrid``: breadth-first pointer harvest from the
    stack pointer.  A sweep to its first hit would stop on the stack
    pointer's own page, which a paused host always has, so ``hybrid``
    probes as the pointer chase does; neither looks for a frame.
    """
    frame = None
    try:
        if mode == "linear":
            _sweep(pm, stack_pointer)
            frame = frame_above(pm, stack_pointer)
            _sweep(pm, frame[2])  # from the saved return address
        else:
            explore_from_pointers(pm, (stack_pointer,))
    except ExploreBudgetError:
        pass  # a later stage that needs one more page fails on it instead
    return frame


def region_around(pm: PageMap, addr: int) -> tuple[int, int]:
    """Extent of the contiguous accessible run containing ``addr``.

    ``PageMap.walk`` goes outward in both directions until the first
    inaccessible page and claws every hit, following the probe-order rule,
    so past a read-only page one tap finds the edge.  Every page grown is
    stored with its writability; stored pages cost nothing.  The page of
    ``addr`` must be accessible.
    """
    base = AddressSpace.page_base(addr)
    if pm.claw(base) is NO_ACCESS:
        raise ValueError(f"page {base:#x} is not accessible")
    lo = pm.walk(base - PAGE_SIZE, -PAGE_SIZE, 1, True)
    return lo, pm.walk(base + PAGE_SIZE, PAGE_SIZE, 1, True) + PAGE_SIZE


def reconstruct_map(runs: list[PageRun]) -> ReconstructedMap:
    """The store's ``runs`` with the runs of misses left out.  Every
    accessible page must hold its claw verdict, as it does after the
    explore stage."""
    return ReconstructedMap(tuple(r for r in runs if r.kind is not NO_ACCESS))


def match_ground_truth(runs: list[PageRun], truth: GroundTruthMap) -> list[str]:
    """Judge every verdict of a store's ``runs`` against ground truth.

    A page tapped accessible must be readable, a clawed page must have the
    truth's writability, and a miss must be unmapped or unreadable.  The
    store's runs are cut where ``truth.regions`` begin and end, walking
    both in address order, so every piece has one (probed, truth) pair.
    Returns one line per maximal run of adjacent disagreeing pages of one
    pair, as ``page_runs`` would coalesce them page by page; the store
    matches when the list is empty.
    """
    regions = truth.regions
    ri = 0
    bad: list[PageRun] = []  # maximal runs of disagreeing pages, by pair
    for at, end, got in runs:
        while at < end:
            while ri < len(regions) and regions[ri].end <= at:
                ri += 1
            want = NO_ACCESS
            if ri == len(regions):
                hi = end
            elif regions[ri].start > at:
                hi = min(regions[ri].start, end)
            else:
                hi, perms = min(regions[ri].end, end), regions[ri].kind
                if perms.readable and perms.user_accessible:
                    want = WRITABLE if perms.writable else READ_ONLY
            if got is not want and (got is not ACCESSIBLE or want is NO_ACCESS):
                if bad and bad[-1].end == at and bad[-1].kind == (got, want):
                    bad[-1] = bad[-1]._replace(end=hi)
                else:
                    bad.append(PageRun(at, hi, (got, want)))
            at = hi
    return [
        f"{lo:#x}-{hi:#x}: probed {got.value}, truth {want.value}"
        for lo, hi, (got, want) in bad
    ]
