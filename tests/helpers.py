"""Shared builders for test address spaces, independent of the code under
test wherever they serve as oracles, and the rule every run of ``cli.main``
on a bad input must keep."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
from pathlib import Path
from unittest.mock import patch

from caveprobe import caves, cli, explorer, gadgets
from caveprobe.cli import (
    EXIT_STAGE_ERROR, RESTORE_MODES, PipelineConfig, main, run_pipeline,
)
from caveprobe.gadgets import CHAIN_VARIANTS
from caveprobe.explorer import ReconstructedMap
from caveprobe.machine import (
    REG_NAMES, MachineState, _fetch_u8, _read64, _Stop, _syscall, _write64,
)
from caveprobe.memspace import (
    PAGE_SIZE, USER_TOP, AddressSpace, GroundTruthMap, Page, PagePermissions,
    PageRun, page_runs,
)
from caveprobe.probe import (
    ACCESSIBLE, NO_ACCESS, READ_ONLY, WRITABLE, Prober, Writability,
)

# writability classes as plain strings, kept separate from the library's
# enum so oracle comparisons cannot accidentally share a bug
W = "writable"
RO = "readonly"
NONE = "inaccessible"


def read_image(path) -> tuple[AddressSpace, int]:
    """The space and stack pointer of the manifest at ``path``, parsed from
    an open file as a run parses it on a miss."""
    with open(path, "rb", buffering=0) as file:
        image = cli._read_image(file)
    return image.space, image.stack_pointer


def make_space(*regions: tuple[int, int, str, bytes]) -> AddressSpace:
    """Build a space from (start, length, perms letters, data) tuples."""
    space = AddressSpace()
    for start, length, perms, data in regions:
        space.map_region(start, length, PagePermissions.from_rwxu(perms), data)
    return space


def settled_store(space: AddressSpace,
                  budget: int = explorer.DEFAULT_BUDGET) -> explorer.PageMap:
    """A store holding every mapped page's claw verdict, in address order,
    settled by a prober that never aborts spuriously: the verdicts the
    explore stage leaves for the pages it reaches."""
    pm = explorer.PageMap(space, Prober(0.0, 0), budget)
    for base in sorted(space.pages):
        pm.claw(base)
    return pm


def runs_of(pages) -> list[PageRun]:
    """The runs of adjacent pages among the page bases in ``pages``, in
    address order: what ``gadgets.find_gadgets`` scans."""
    return page_runs(zip(sorted(set(pages)), itertools.repeat(None)))


def poke(space: AddressSpace, addr: int, data: bytes) -> None:
    """Test-setup backdoor: write ``data`` at ``addr`` whatever the pages'
    permissions.  Each page it touches is replaced by a new Page with bytes
    of its own first, so no poke reaches a page another space shares."""
    end = addr + len(data)
    for base in range(addr & ~(PAGE_SIZE - 1), end, PAGE_SIZE):
        page = space.pages[base]
        own = bytearray(page.data)
        lo, hi = max(addr, base), min(base + PAGE_SIZE, end)
        own[lo - base : hi - base] = data[lo - addr : hi - addr]
        space.pages[base] = Page(page.perms, own)


def is_mapped(space: AddressSpace, addr: int) -> bool:
    """Whether a page of ``space`` holds ``addr``."""
    return addr - addr % PAGE_SIZE in space.pages


def page_bytes(space: AddressSpace) -> dict[int, bytes]:
    """A copy of every page's bytes, keyed by page base."""
    return {base: bytes(page.data) for base, page in space.pages.items()}


def space_digest(space: AddressSpace) -> str:
    """SHA-256 over every page's base, permission flags and bytes: equal
    digests mean nothing in ``space`` changed."""
    h = hashlib.sha256()
    for base in sorted(space.pages):
        page = space.pages[base]
        p = page.perms
        h.update(base.to_bytes(8, "little"))
        h.update(bytes([p.readable, p.writable, p.executable, p.user_accessible]))
        h.update(page.data)
    return h.hexdigest()


def page_class(perms: PagePermissions) -> str:
    """Classify one mapped page the way a perfect observer would."""
    if not (perms.readable and perms.user_accessible):
        return NONE
    return W if perms.writable else RO


def random_permed_space(
    rng: random.Random,
    max_pages: int = 256,
    *,
    fill: str = "random",
) -> tuple[AddressSpace, dict[int, str], int, int]:
    """A random user-half space with holes and mixed permissions.

    Returns (space, truth, start, end) where ``truth`` maps every page base
    in [start, end) to its observer classification, including unmapped
    holes, and start/end bound the generated layout.
    """
    space = AddressSpace()
    truth: dict[int, str] = {}
    start = rng.randrange(0, 1 << 30) * PAGE_SIZE
    base = start
    total = 0
    while total < max_pages:
        hole = rng.randint(0, 6)
        for _ in range(hole):
            truth[base] = NONE
            base += PAGE_SIZE
        total += hole
        if total >= max_pages:
            break
        length = min(rng.randint(1, 8), max_pages - total)
        perms = rng.choice(
            (
                PagePermissions.from_rwxu("ru"),
                PagePermissions.from_rwxu("rwu"),
                PagePermissions.from_rwxu("rxu"),
                PagePermissions.from_rwxu("rwxu"),
                PagePermissions.from_rwxu("r"),   # mapped, not user visible
                PagePermissions(),                # guard style
            )
        )
        if fill == "random":
            data = rng.randbytes(length * PAGE_SIZE)
        elif fill == "zero":
            data = b""
        else:
            raise ValueError(fill)
        space.map_region(base, length * PAGE_SIZE, perms, data)
        for i in range(length):
            truth[base + i * PAGE_SIZE] = page_class(perms)
        base += length * PAGE_SIZE
        total += length
    return space, truth, start, base


def truth_class_runs(
    truth: dict[int, str], start: int, end: int
) -> list[tuple[int, int, str]]:
    """Coalesce a page-class dict into (start, end, class) runs; pages
    absent from the dict count as inaccessible."""
    runs: list[tuple[int, int, str]] = []
    for base in range(start, end, PAGE_SIZE):
        cls = truth.get(base, NONE)
        if runs and runs[-1][2] == cls and runs[-1][1] == base:
            runs[-1] = (runs[-1][0], base + PAGE_SIZE, cls)
        else:
            runs.append((base, base + PAGE_SIZE, cls))
    return runs


# The walk rule as it stood before ``PageMap.walk``, kept as an oracle for
# it: ``probe_next`` picked each probe, ``grow`` extended a run, and the
# sweep and the extent growth drove them one page per call.  Every probe
# goes through the store's ``tap`` and ``claw``.

def reference_probe_next(pm: explorer.PageMap, base: int, step: int) -> bool:
    """Accessibility of the page at ``base`` on a walk moving by
    ``step``: the one probe-order rule of every walk.  It claws when
    the page before it on the walk is stored accessible and not
    read-only, since the run may go on writable and a writable page
    costs one transaction, not a tap and a claw; it taps otherwise,
    since a gap costs one transaction to tap and two to claw."""
    before = pm.entries.get(base - step)
    if before is ACCESSIBLE or before is WRITABLE:
        return pm.claw(base) is not NO_ACCESS
    return pm.tap(base)


def reference_grow(pm: explorer.PageMap, base: int, step: int) -> bool:
    """Whether the page at ``base`` extends a run grown by ``step``:
    probed by ``probe_next``, then clawed, so every page of the run is
    stored with its writability.  A page already stored with its
    writability, or as a gap, costs one lookup."""
    verdict = pm.entries.get(base)
    if verdict is not None and verdict is not ACCESSIBLE:
        return verdict is not NO_ACCESS
    return reference_probe_next(pm, base, step) and pm.claw(base) is not NO_ACCESS


def reference_sweep(pm: explorer.PageMap, anchor: int) -> None:
    """The linear sweep from ``anchor``, up then down, by
    ``reference_probe_next``, until ``explorer.MAX_GAP`` misses in a row."""
    for step in (PAGE_SIZE, -PAGE_SIZE):
        base = AddressSpace.page_base(anchor)
        if step < 0:
            base += step  # upward pass already covered the anchor page
        misses = 0
        while 0 <= base < USER_TOP and misses < explorer.MAX_GAP:
            misses = 0 if reference_probe_next(pm, base, step) else misses + 1
            base += step


def reference_region_around(pm: explorer.PageMap, addr: int) -> tuple[int, int]:
    """The extent around ``addr``, grown a page at a time by
    ``reference_grow``."""
    base = AddressSpace.page_base(addr)
    if pm.claw(base) is NO_ACCESS:
        raise ValueError(f"page {base:#x} is not accessible")
    lo = base
    while lo > 0 and reference_grow(pm, lo - PAGE_SIZE, -PAGE_SIZE):
        lo -= PAGE_SIZE
    hi = base + PAGE_SIZE
    while hi < USER_TOP and reference_grow(pm, hi, PAGE_SIZE):
        hi += PAGE_SIZE
    return lo, hi


def reference_frame_above(pm: explorer.PageMap, stack_ptr: int) -> tuple[int, int, int]:
    """``explorer.frame_above`` as it stood before it read the stack a page
    at a time, kept as an oracle for it: every slot from the stack
    pointer's first aligned word up to the last whole pair of the extent
    is visited in turn, and each one past the first canary slot reads its
    pair with one 16-byte ``PageMap.read``."""
    lo, hi = explorer.region_around(pm, stack_ptr)
    slots = range((stack_ptr + 7) & ~7, hi - 15, 8)
    for slot in slots:
        if slot - 8 < stack_ptr:
            continue
        raw = pm.read(slot, 16)
        rbp = int.from_bytes(raw[:8], "little")
        rip = int.from_bytes(raw[8:], "little")
        rip_page = AddressSpace.page_base(rip)
        if slot < rbp < hi and rip < USER_TOP and pm.claw(rip_page) is READ_ONLY:
            return slot, rbp, rip
    raise explorer.NoFrameError(
        f"no plausible frame above the stack pointer {stack_ptr:#x}: "
        f"scanned {len(slots)} slots of the stack region {lo:#x}-{hi:#x}"
    )


_find_caves = caves.find_caves


def reference_find_caves(pm: explorer.PageMap, runs):
    """``caves.find_caves`` after a store claw of every accessible page, in
    address order, as the cave search once probed; the claws may change
    the store, so the runs given are built anew."""
    for base in pm.accessible_pages():
        pm.claw(base)
    return _find_caves(pm, pm.runs())


@contextlib.contextmanager
def reference_walk():
    """Run the sweep, the extent growth and the cave search by the
    reference rule above while the block runs."""
    with (
        patch.object(explorer, "_sweep", reference_sweep),
        patch.object(explorer, "region_around", reference_region_around),
        patch.object(caves, "find_caves", reference_find_caves),
    ):
        yield


# The stages after the explore stage as they stood before they read the
# store by ``PageMap.runs``, kept as oracles for it: the census, the cave
# search and the truth match each visit the stored pages one at a time.

def page_by_page_census(pm: explorer.PageMap, pages,
                        need: tuple[str, ...] | None = None) -> gadgets.GadgetCatalog:
    """``gadgets.find_gadgets`` over the page bases in ``pages``: each page
    read through ``pm`` in address order, with the first two bytes of the
    next page when that page is in the set too."""
    accessible = set(pages)
    kinds = {pattern: name for name, pattern in gadgets.GADGETS.items()}
    hits: dict[str, list[int]] = {name: [] for name in gadgets.GADGETS}
    into_ret: list[int] = []
    searched = 0
    for base in sorted(accessible):
        searched += 1
        buf = pm.read(
            base, PAGE_SIZE + 2 if base + PAGE_SIZE in accessible else PAGE_SIZE)
        for pos in range(PAGE_SIZE):
            name = kinds.get(buf[pos : pos + 2])
            if name is not None:
                hits[name].append(base + pos)
                if name == "syscall" and buf[pos + 2 : pos + 3] == b"\xc3":
                    into_ret.append(base + pos)
        if (need is not None and all(hits[kind] for kind in need)
                and ("syscall" not in need or into_ret)):
            break
    return gadgets.GadgetCatalog(
        found={name: tuple(addrs) for name, addrs in hits.items()},
        searched_pages=searched,
        syscalls_into_ret=tuple(into_ret),
    )


def page_by_page_caves(pm: explorer.PageMap) -> list[PageRun]:
    """``caves.find_caves``: the ``page_runs`` of the pages stored writable
    whose bytes, each page read whole through ``pm``, are all zero."""
    zero = bytes(PAGE_SIZE)
    return page_runs((base, WRITABLE) for base in sorted(pm.entries)
                     if pm.entries[base] is WRITABLE and pm.read(base, PAGE_SIZE) == zero)


def page_by_page_match(pm: explorer.PageMap, truth: GroundTruthMap) -> list[str]:
    """``explorer.match_ground_truth``: each stored page judged against the
    region of ``truth`` that holds it, and the ``page_runs`` of the
    disagreeing pages keyed by their (probed, truth) pair."""
    bad = []
    for base in sorted(pm.entries):
        want = NO_ACCESS
        for region in truth.regions:
            if region.start <= base < region.end:
                perms = region.kind
                if perms.readable and perms.user_accessible:
                    want = WRITABLE if perms.writable else READ_ONLY
        got = pm.entries[base]
        if got is not want and (got is not ACCESSIBLE or want is NO_ACCESS):
            bad.append((base, (got, want)))
    return [
        f"{lo:#x}-{hi:#x}: probed {got.value}, truth {want.value}"
        for lo, hi, (got, want) in page_runs(bad)
    ]


# The map as it stood before ``explorer.reconstruct_map`` coalesced the
# store in one pass, kept as an oracle for it: a range classified page by
# page, clawing each page the store lacks or holds as a bare tap hit, and
# the explore stage classifying each extent as it grew it.

def _check_page_range(start: int, end: int) -> None:
    if start % PAGE_SIZE or end % PAGE_SIZE:
        raise ValueError("range bounds must be page aligned")
    if not (0 <= start <= end <= USER_TOP):
        raise ValueError("range must lie inside the user half")


def reference_reconstruct_map(pm: explorer.PageMap, start: int, end: int):
    """Classify every page in [start, end) via write probes through ``pm``
    and coalesce adjacent pages of equal classification into runs.  A page
    stored with its writability costs one lookup; only others are clawed."""
    _check_page_range(start, end)
    runs: list[PageRun] = []
    cur_kind: Writability | None = None
    cur_start = start
    for base in range(start, end, PAGE_SIZE):
        kind = pm.entries.get(base)
        if kind is None or kind is ACCESSIBLE:
            kind = pm.claw(base)
        if kind is not cur_kind:
            if cur_kind is not None:
                runs.append(PageRun(cur_start, base, cur_kind))
            cur_kind = kind
            cur_start = base
    if cur_kind is not None:
        runs.append(PageRun(cur_start, end, cur_kind))
    return ReconstructedMap(tuple(runs))


def reference_explore(pm: explorer.PageMap) -> tuple[tuple, int]:
    """cli's explore stage over ``pm`` as it stood: (the map's runs, the
    number of extents), each extent grown by ``explorer.region_around``,
    then classified by ``reference_reconstruct_map``."""
    accessible = pm.accessible_pages()
    if not accessible:
        raise ValueError("exploration found nothing accessible")
    runs: list[PageRun] = []
    extents = hi = 0
    for base in accessible:
        if base < hi:
            continue
        lo, hi = explorer.region_around(pm, base)
        runs.extend(reference_reconstruct_map(pm, lo, hi).runs)
        extents += 1
    return tuple(runs), extents


def claw_range(pm: explorer.PageMap, start: int, end: int):
    """Classify every page of [start, end) as ``reference_reconstruct_map``
    does, with the same probes in the same order and the same errors, but
    read the map from the program: a store claw of each page, then the
    runs ``explorer.reconstruct_map`` coalesces, cut to the range, with a
    run of misses in each gap between them.  Each gap page must be stored
    as a miss."""
    _check_page_range(start, end)
    for base in range(start, end, PAGE_SIZE):
        pm.claw(base)
    runs: list[PageRun] = []
    at = start  # the range is classified up to here
    for run in explorer.reconstruct_map(pm.runs()).runs:
        lo, hi = max(run.start, start), min(run.end, end)
        if lo >= hi:
            continue
        if at < lo:
            runs.append(PageRun(at, lo, NO_ACCESS))
        runs.append(PageRun(lo, hi, run.kind))
        at = hi
    if at < end:
        runs.append(PageRun(at, end, NO_ACCESS))
    gaps = [b for r in runs if r.kind is NO_ACCESS
            for b in range(r.start, r.end, PAGE_SIZE)]
    assert all(pm.entries[b] is NO_ACCESS for b in gaps), "a stored hit is not in the map"
    return ReconstructedMap(tuple(runs))


# The machine's step as it stood before it sliced each instruction from
# its page, kept as an oracle for ``machine._execute``: every byte is
# fetched, and checked, by its own ``_fetch_u8`` call.

def reference_execute(state: MachineState, space: AddressSpace,
                      effects: list | None) -> None:
    pos = state.rip

    def u8() -> int:
        nonlocal pos
        b = _fetch_u8(space, pos)
        pos += 1
        return b

    def pop64() -> int:
        rsp = state.reg("rsp")
        value = _read64(space, rsp)
        state.set_reg("rsp", rsp + 8)
        return value

    b0 = u8()

    if b0 == 0x90:  # nop
        state.rip = pos
        return
    if b0 == 0xC3:  # ret
        state.rip = pop64()
        return
    if b0 == 0xC9:  # leave
        state.set_reg("rsp", state.reg("rbp"))
        state.set_reg("rbp", pop64())
        state.rip = pos
        return
    if b0 == 0x0F:
        if u8() != 0x05:
            raise _Stop("undecodable")
        state.rip = pos  # rip already past the instruction when it runs
        _syscall(state, space, effects)
        return
    if 0x58 <= b0 <= 0x5F:  # pop r64
        state.set_reg(REG_NAMES[b0 - 0x58], pop64())
        state.rip = pos
        return
    if b0 == 0x48:  # REX.W
        b1 = u8()
        if 0xB8 <= b1 <= 0xBF:  # mov r64, imm64
            imm = 0
            for shift in range(0, 64, 8):
                imm |= u8() << shift
            state.set_reg(REG_NAMES[b1 - 0xB8], imm)
            state.rip = pos
            return
        if b1 == 0x89:  # mov [r64], r64
            modrm = u8()
            rm_i = modrm & 7
            if modrm >> 6 == 0b00 and rm_i not in (4, 5):  # 4 needs SIB, 5 is rip-rel
                src = state.reg(REG_NAMES[(modrm >> 3) & 7])
                _write64(space, state.reg(REG_NAMES[rm_i]), src, effects)
                state.rip = pos
                return
        raise _Stop("undecodable")
    if b0 == 0xFF:  # jmp r64
        modrm = u8()
        if modrm >> 6 == 0b11 and (modrm >> 3) & 7 == 4:
            state.rip = state.reg(REG_NAMES[modrm & 7])
            return
        raise _Stop("undecodable")
    raise _Stop("undecodable")


DEMO = str(Path(__file__).resolve().parent.parent / "images" / "demo.json")


def run_demo_pipelines(**config) -> None:
    """Run the demo image through every stage once per chain variant and
    restore mode, so a spy patched in sees every call a stage makes."""
    for variant, restore in itertools.product(CHAIN_VARIANTS, RESTORE_MODES):
        report = run_pipeline(PipelineConfig(
            image_path=DEMO, chain_variant=variant, restore=restore, **config))
        assert report.all_verdicts_pass(), (variant, restore)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` run in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# text of Python's own exceptions and codecs, which no message of the
# program holds
LEAKS = re.compile(
    r"Traceback|\b[A-Z][A-Za-z]*(Error|Exception)\b|codec|Errno|NoneType|"
    r"'(str|int|float|bool|dict|list|bytes|tuple)'|invalid literal|"
    r"unsupported operand|has no attribute|unhashable|not subscriptable|"
    r"not iterable|out of range|can't|object is not|positional argument|"
    r"null byte"
)


def error_fault(code: int, err: str) -> str | None:
    """Why a run that failed with exit ``code`` and stderr ``err`` breaks
    the rule for a failed run, or None.  The rule: exit 2 and exactly one
    stderr line that starts ``caveprobe: ``, holds no text of a Python
    exception or codec, and is under 300 bytes."""
    if code != EXIT_STAGE_ERROR:
        return f"exit {code}"
    if err.count("\n") != 1 or not err.startswith("caveprobe: "):
        return f"not one line: {err[:200]!r}"
    if LEAKS.search(err):
        return f"Python text: {err[:200]!r}"
    size = len(err.encode("utf-8", "backslashreplace"))
    if size >= 300:
        return f"{size} bytes: {err[:200]!r}"
    return None
