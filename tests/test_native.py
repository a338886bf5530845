"""The model's mprotect against the kernel's.

One forked child maps a fixed layout of pages, with holes, at ``BASE`` and
makes seeded mprotect calls through ``syscall(10, ...)``.  After each call it
sends back the return, ``-errno`` on failure, and the VMA flags
``/proc/self/maps`` shows for each page of a window around the layout.  The
parent replays the calls on a model space through ``machine._mprotect`` and
compares the returns and each page's ``(r, w, x)``.  A kernel ``w`` counts
as read, since the model has no write-only page.  The flags are the VMA's,
not the effective access: with protection keys an exec-only page cannot be
read, yet its VMA shows ``--x``.

Not checked here: ``-EACCES`` from a mapping's ``VM_MAY*`` bits (an
anonymous private mapping may take any protection), mappings that can grow
(the model has none, so a grow bit meets only refusals and holes), the
``READ_IMPLIES_EXEC`` personality, and effective access under protection
keys.

The test skips, with its reason, off Linux x86-64 or when the window cannot
be mapped at its address.
"""

import ctypes
import os
import platform
import random
import select
import signal
import sys
import traceback

import pytest

from caveprobe import machine as m
from caveprobe.memspace import PAGE_SIZE, AddressSpace, PagePermissions

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64",
    reason="the kernel differential needs Linux on x86-64")

BASE = 0x6F0000000000
PAGES = 16
HOLES = {3, 7, 8, 12}  # the layout's unmapped pages
# every page a call can reach but an unaligned or wrapping one: from three
# pages before the layout to eight past its last start
WINDOW = range(BASE - 3 * PAGE_SIZE, BASE + (PAGES + 10) * PAGE_SIZE, PAGE_SIZE)
CALLS = 2000
TIMEOUT = 30  # seconds any one read from the child may wait

# Linux's values, written out rather than taken from the model under test
SYS_MPROTECT = 10
MAP_PRIVATE, MAP_ANONYMOUS, MAP_FIXED_NOREPLACE = 0x02, 0x20, 0x100000
PROT_GROWSDOWN, PROT_GROWSUP = 0x01000000, 0x02000000
GROW_BITS = (PROT_GROWSDOWN, PROT_GROWSUP, PROT_GROWSDOWN | PROT_GROWSUP)
UNKNOWN_BITS = (0x10, 0x80, 0x04000000)


def draw_calls(rng: random.Random) -> list[tuple[int, int, int]]:
    """``CALLS`` mprotect arguments starting around the layout, a tenth of
    them unaligned; a protection of R, W, X and SEM bits, now and then with
    an unknown bit or grow bits."""
    calls = []
    for _ in range(CALLS):
        addr = BASE + rng.randrange(-3, PAGES + 2) * PAGE_SIZE
        if rng.random() < 0.1:
            addr += rng.randrange(1, PAGE_SIZE)
        length = rng.choice((0, rng.randrange(1, 9) * PAGE_SIZE,
                             rng.randrange(1, 3 * PAGE_SIZE), 2**64 - PAGE_SIZE))
        prot = rng.randrange(16)  # PROT_READ, _WRITE, _EXEC and _SEM
        if rng.random() < 0.05:
            prot |= rng.choice(UNKNOWN_BITS)
        if rng.random() < 0.15:
            prot |= rng.choice(GROW_BITS)
        calls.append((addr, length, prot))
    return calls


def vma_bits() -> str:
    """One character per page of ``WINDOW``: "." where no VMA holds it,
    else the digit of its VMA's flags, r = 1, w = 2 and x = 4."""
    bits = ["."] * len(WINDOW)
    with open("/proc/self/maps", "rb") as maps:
        for line in maps:
            span, flags = line.split(None, 2)[:2]
            lo, hi = (int(x, 16) for x in span.split(b"-"))
            if lo < WINDOW.stop and hi > WINDOW.start:
                digit = str(sum(bit for bit, ch in zip((1, 2, 4), flags) if ch != ord("-")))
                for base in range(max(lo, WINDOW.start), min(hi, WINDOW.stop), PAGE_SIZE):
                    bits[(base - WINDOW.start) // PAGE_SIZE] = digit
    return "".join(bits)


def child(out: int, initial: dict[int, int], calls: list[tuple[int, int, int]]) -> None:
    """Map the layout, make the calls, and write one line for the layout and
    one per call ("RET BITS") to ``out``; or one "skip REASON" line."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long)
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    libc.syscall.restype = ctypes.c_long
    libc.syscall.argtypes = (ctypes.c_long, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong)
    flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE
    size = WINDOW.stop - WINDOW.start
    # the whole window first, so that nothing else lies in it
    if libc.mmap(WINDOW.start, size, 0, flags, -1, 0) != WINDOW.start:
        lines = [f"skip cannot map {size} bytes at {WINDOW.start:#x}"]
    else:
        libc.munmap(WINDOW.start, size)
        lines = []
        for base, prot in initial.items():
            if libc.mmap(base, PAGE_SIZE, prot, flags, -1, 0) != base:
                lines = [f"skip cannot map a page at {base:#x}"]
                break
    if not lines:
        lines.append(vma_bits())
        for addr, length, prot in calls:
            ret = libc.syscall(SYS_MPROTECT, addr, length, prot)
            lines.append(f"{-ctypes.get_errno() if ret == -1 else ret} {vma_bits()}")
    data = "".join(line + "\n" for line in lines).encode()
    while data:
        data = data[os.write(out, data):]


def kernel_lines(initial: dict[int, int], calls: list[tuple[int, int, int]]) -> list[str]:
    """What ``child`` writes, read with every wait bounded; the child is
    killed and reaped however the reading ends."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 1
        try:
            os.close(rfd)
            child(wfd, initial, calls)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    try:
        while True:
            ready, _, _ = select.select([rfd], [], [], TIMEOUT)
            assert ready, f"the child sent nothing for {TIMEOUT} s"
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        os.kill(pid, signal.SIGKILL)  # a child not yet reaped can take it
        os.waitpid(pid, 0)
    return b"".join(chunks).decode().splitlines()


def perms(prot: int) -> PagePermissions:
    return PagePermissions(readable=bool(prot & 3), writable=bool(prot & 2),
                           executable=bool(prot & 4), user_accessible=True)


def model_bits(space: AddressSpace) -> str:
    """``vma_bits`` of the model space."""
    out = []
    for base in WINDOW:
        page = space.pages.get(base)
        if page is None:
            out.append(".")
        else:
            p = page.perms
            out.append(str(p.readable + 2 * p.writable + 4 * p.executable))
    return "".join(out)


def read_counts(bits: str) -> str:
    """``bits`` with a kernel ``w`` counted as read."""
    return "".join(ch if ch == "." or not int(ch) & 2 else str(int(ch) | 1) for ch in bits)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mprotect_answers_as_the_kernel_does(seed):
    rng = random.Random(seed)
    initial = {BASE + i * PAGE_SIZE: rng.randrange(8) for i in range(PAGES) if i not in HOLES}
    calls = draw_calls(rng)
    lines = kernel_lines(initial, calls)
    if lines and lines[0].startswith("skip "):
        pytest.skip(lines[0][len("skip "):])
    assert len(lines) == len(calls) + 1, "the child stopped early"
    space = AddressSpace()
    for base, prot in initial.items():
        space.map_region(base, PAGE_SIZE, perms(prot))
    assert model_bits(space) == read_counts(lines[0])
    for k, ((addr, length, prot), line) in enumerate(zip(calls, lines[1:])):
        ret, bits = line.split()
        got = (m._mprotect(space, addr, length, prot), model_bits(space))
        assert got == (int(ret), read_counts(bits)), (
            f"call {k}: mprotect({addr:#x}, {length:#x}, {prot:#x})")
