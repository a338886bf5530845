"""Gadget discovery over probed pages and chain construction.

The catalog is a census: every byte offset in every accessible page where a
known instruction pattern occurs, overlapping and unaligned occurrences
included.  x86 decodes from any byte, so a pattern found mid-"instruction"
is just as executable as an intended one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .memspace import PAGE_SIZE, AddressSpace, page_runs
from .machine import SYS_MPROTECT

CHAIN_VARIANTS = ("sound-5", "short-4")


@dataclass(frozen=True, slots=True)
class GadgetSpec:
    """A named byte pattern the census looks for."""

    name: str
    pattern: bytes


def default_gadget_specs() -> tuple[GadgetSpec, ...]:
    """The pattern set the chain builder knows how to use."""
    return (
        GadgetSpec("pop-rdi-ret", b"\x5f\xc3"),
        GadgetSpec("pop-rsi-ret", b"\x5e\xc3"),
        GadgetSpec("pop-rdx-ret", b"\x5a\xc3"),
        GadgetSpec("pop-rax-ret", b"\x58\xc3"),
        GadgetSpec("pop-rbp-ret", b"\x5d\xc3"),
        GadgetSpec("syscall", b"\x0f\x05"),
        GadgetSpec("leave-ret", b"\xc9\xc3"),
    )


_SPECS = default_gadget_specs()
_KINDS = {spec.pattern: spec.name for spec in _SPECS}  # every pattern is two bytes
_FIRST, _LAST = ({pattern[i] for pattern in _KINDS} for i in (0, 1))
assert not _FIRST & _LAST, "the census scan needs first and last pattern bytes apart"
# bytes.translate table: first pattern bytes become 1, last ones 2, others 0
_MARKS = bytes(1 if b in _FIRST else 2 if b in _LAST else 0 for b in range(256))
_RET = next(s.pattern[-1:] for s in _SPECS if s.name.endswith("-ret"))


@dataclass(frozen=True, slots=True)
class GadgetCatalog:
    """Census result: every address per gadget kind, sorted ascending, plus
    the syscall sites whose next byte, read in the same census, is a ret."""

    found: dict[str, tuple[int, ...]]
    searched_pages: int
    syscalls_into_ret: tuple[int, ...] = ()

    def lowest(self, name: str) -> int | None:
        addrs = self.found.get(name)
        return addrs[0] if addrs else None


class MissingGadgetError(Exception):
    """A required gadget kind has no occurrence at all."""

    def __init__(self, missing: list[str]):
        super().__init__("missing gadget kinds: " + ", ".join(sorted(missing)))
        self.missing = tuple(sorted(missing))


def find_gadgets(space: AddressSpace, pages: Iterable[int]) -> GadgetCatalog:
    """Scan every page base in ``pages``, each one probed accessible, for
    every pattern in default_gadget_specs().

    No other page is read.  Each maximal run of adjacent pages is read
    and translated once, marking first and last pattern bytes; a marked
    pair is a hit if its bytes form a pattern.  So a pattern straddling
    two adjacent pages of the set counts too, since execution would cross
    the boundary just as happily, and one ending outside the set does not.
    """
    accessible = set(pages)
    hits: dict[str, list[int]] = {s.name: [] for s in _SPECS}
    into_ret: list[int] = []
    for start, end in page_runs(accessible):
        buf = space.read_bytes(start, end - start)
        marked = buf.translate(_MARKS)
        pos = marked.find(b"\x01\x02")
        while pos != -1:
            name = _KINDS.get(buf[pos : pos + 2])
            if name is not None:
                hits[name].append(start + pos)
                # the chain continues past a syscall only through a ret
                # right after it, read here in the same run
                if name == "syscall" and buf[pos + 2 : pos + 3] == _RET:
                    into_ret.append(start + pos)
            pos = marked.find(b"\x01\x02", pos + 2)
    return GadgetCatalog(
        found={name: tuple(addrs) for name, addrs in hits.items()},
        searched_pages=len(accessible),
        syscalls_into_ret=tuple(into_ret),
    )


@dataclass(frozen=True, slots=True)
class ChainWord:
    value: int
    role: str  # "gadget-address" | "immediate" | "resume-address"


@dataclass(frozen=True, slots=True)
class RopChain:
    words: tuple[ChainWord, ...]

    def __post_init__(self) -> None:
        if not self.words or self.words[0].role != "gadget-address":
            raise ValueError("a chain must start with a gadget address")


def required_kinds(variant: str) -> tuple[str, ...]:
    """Gadget kinds a chain variant consumes."""
    if variant == "sound-5":
        return ("pop-rdi-ret", "pop-rsi-ret", "pop-rdx-ret", "pop-rax-ret", "syscall")
    if variant == "short-4":
        # the shorter variant drops the rdx load and trusts the register to
        # already hold the protection value when the pivot begins
        return ("pop-rdi-ret", "pop-rsi-ret", "pop-rax-ret", "syscall")
    raise ValueError(f"unknown chain variant {variant!r}")


def chain_len(variant: str) -> int:
    """Words in the chain build_mprotect_chain emits for ``variant``: a
    gadget and an immediate per argument-loading kind, then the syscall."""
    return 2 * len(required_kinds(variant)) - 1


def _pick_syscall(catalog: GadgetCatalog) -> int:
    """Choose the syscall site.  The chain continues past the call only if
    the bytes after it fall through into a ret, so prefer the lowest
    occurrence the census saw followed by C3; otherwise take the lowest
    occurrence as for any other kind."""
    if catalog.syscalls_into_ret:
        return catalog.syscalls_into_ret[0]
    return catalog.found["syscall"][0]


def build_mprotect_chain(
    catalog: GadgetCatalog,
    cave_addr: int,
    cave_len: int,
    prot_value: int,
    variant: str = "sound-5",
) -> RopChain:
    """Build the argument-loading chain for one memory-protection syscall.

    The default variant loads all three arguments; "short-4" omits the rdx
    gadget.  Every kind resolves to its lowest cataloged address.  The chain
    ends with the syscall word; the caller appends the continuation word the
    falling-through ret will consume.
    """
    if cave_addr % PAGE_SIZE:
        raise ValueError("cave address must be page aligned")
    if cave_len <= 0 or cave_len % PAGE_SIZE:
        raise ValueError("cave length must be a positive page multiple")
    kinds = required_kinds(variant)
    missing = [k for k in kinds if not catalog.found.get(k)]
    if missing:
        raise MissingGadgetError(missing)

    g = lambda name: ChainWord(catalog.lowest(name), "gadget-address")
    imm = lambda v: ChainWord(v, "immediate")
    words = [g("pop-rdi-ret"), imm(cave_addr), g("pop-rsi-ret"), imm(cave_len)]
    if variant == "sound-5":
        words += [g("pop-rdx-ret"), imm(prot_value)]
    words += [
        g("pop-rax-ret"),
        imm(SYS_MPROTECT),
        ChainWord(_pick_syscall(catalog), "gadget-address"),
    ]
    assert len(words) == chain_len(variant)
    return RopChain(tuple(words))
