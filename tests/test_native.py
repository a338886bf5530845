"""The model against the machine it stands for: its mprotect against the
kernel's, and its instruction steps against the CPU's.

The mprotect differential: one forked child maps a fixed layout of pages,
with holes, at ``BASE`` and makes seeded mprotect calls through
``syscall(10, ...)``.  After each call it sends back the return, ``-errno``
on failure, and the VMA flags ``/proc/self/maps`` shows for each page of a
window around the layout.  The parent replays the calls on a model space
through ``machine._mprotect`` and compares the returns and each page's
``(r, w, x)``.  A kernel ``w`` counts as read, since the model has no
write-only page.  The flags are the VMA's, not the effective access: with
protection keys an exec-only page cannot be read, yet its VMA shows ``--x``.
Not checked there: ``-EACCES`` from a mapping's ``VM_MAY*`` bits (an
anonymous private mapping may take any protection), mappings that can grow
(the model has none, so a grow bit meets only refusals and holes), the
``READ_IMPLIES_EXEC`` personality, and effective access under protection
keys.

The CPU lockstep: a full pipeline run hands its execute stage's start, the
machine state and the pages, to ``machine.run_until``; a wrapper keeps a
copy.  A forked child maps each user page at its address with its bytes and
protection (none for a page without ``u``), asks to be traced and stops
itself.  The parent sets the child's 16 registers and rip to the start's,
keeping its segments and ``fs_base``, and single-steps it beside
``machine.step``.  After each step all 16 registers and rip must agree;
once a ``syscall`` ran, r11 holds the CPU's rflags, so it is compared only
under ``SYSCALL_FLAGS``.  A model memory trap must meet a ``SIGSEGV`` at the
same rip.  At the stop every user page's bytes, read from
``/proc/<pid>/mem``, and its VMA's ``rwx`` must agree.  Not checked there:
flags, which the model does not keep; bytes the model cannot decode, and
system calls other than mprotect, which end a comparison before the CPU
runs them; and effective access beyond the VMA flags, as above.

Both skip, with their reason, off Linux x86-64; the differential when its
window cannot be mapped, the lockstep when ``ptrace`` is refused.
"""

import ctypes
import dataclasses
import os
import platform
import random
import select
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple
from unittest.mock import patch

import pytest

import golden
from caveprobe import machine as m
from caveprobe.cli import MAX_STEPS, MODES, RESTORE_MODES, PipelineConfig, run_pipeline
from caveprobe.gadgets import CHAIN_VARIANTS
from caveprobe.memspace import PAGE_SIZE, AddressSpace, Page, PagePermissions
from caveprobe.synth import build_victim_image

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64",
    reason="the kernel differential and the CPU lockstep need Linux on x86-64")

DEMO = str(Path(__file__).resolve().parent.parent / "images" / "demo.json")
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
PROT_READ_WRITE = 3
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


def libc_calls() -> ctypes.CDLL:
    """libc, with the calls both checks make typed."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long)
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    libc.mprotect.restype = ctypes.c_int
    libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    libc.syscall.restype = ctypes.c_long
    libc.syscall.argtypes = (ctypes.c_long, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong)
    libc.ptrace.restype = ctypes.c_long
    libc.ptrace.argtypes = (ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p)
    return libc


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
    libc = libc_calls()
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


# --- machine.step against the CPU -------------------------------------------

PTRACE_TRACEME, PTRACE_SINGLESTEP, PTRACE_GETREGS, PTRACE_SETREGS = 0, 9, 12, 13
TASK_TOP = 0x7FFFFFFFF000  # the first address past what Linux maps on x86-64
UNMAPPABLE, REFUSED = 3, 4  # the child's exit codes before it stops
STEP_WAIT = 10  # seconds any one wait for the child may take
SYSCALL_FLAGS = 0x202  # the rflags bits a SYSCALL's r11 must show: IF and bit 1
# struct user_regs_struct, in the kernel's order
USER_REGS = ("r15", "r14", "r13", "r12", "rbp", "rbx", "r11", "r10", "r9", "r8",
             "rax", "rcx", "rdx", "rsi", "rdi", "orig_rax", "rip", "cs", "eflags",
             "rsp", "ss", "fs_base", "gs_base", "ds", "es", "fs", "gs")
MEMORY_TRAPS = ("unmapped", "nx-fetch", "perm-read", "perm-write")


class UserRegs(ctypes.Structure):
    _fields_ = [(name, ctypes.c_ulonglong) for name in USER_REGS]


class Start(NamedTuple):
    """The execute stage's start, as ``cli._execute`` hands it to
    ``machine.run_until``, and the steps that run took."""

    state: m.MachineState
    pages: dict[int, Page]
    stop_rip: int
    stop_rsp: int
    steps: int


def capture_start(config: PipelineConfig) -> Start:
    """Run the whole pipeline for ``config``, keeping a copy of the state and
    of the pages the execute stage starts from."""
    starts = []
    run_until = m.run_until

    def capture(state, space, stop_rip, max_steps, stop_rsp):
        state_copy = m.MachineState(dict(state.regs), state.rip)
        pages = dict(space.pages)
        result = run_until(state, space, stop_rip, max_steps, stop_rsp)
        starts.append(Start(state_copy, pages, stop_rip, stop_rsp, result.steps))
        return result

    with patch.object(m, "run_until", capture):
        run_pipeline(config)
    (start,) = starts
    return start


def prot_of(perms: PagePermissions) -> int:
    """The mmap protection of a page: none without ``u``."""
    if not perms.user_accessible:
        return 0
    return perms.readable | perms.writable << 1 | perms.executable << 2


def wait_for(pid: int, flags: int = 0) -> int:
    """The child's next wait status, waited for at most ``STEP_WAIT`` s."""
    deadline = time.monotonic() + STEP_WAIT
    while True:
        got, status = os.waitpid(pid, os.WNOHANG | flags)
        if got:
            return status
        assert time.monotonic() < deadline, f"the child did not stop within {STEP_WAIT} s"
        time.sleep(0.00005)


def stopped_child(pages: dict[int, Page]) -> int:
    """Fork a child that maps each page at its address with its bytes and
    protection, asks to be traced and stops itself."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:  # the child never returns into the test runner
        libc = libc_calls()
        flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE
        code = UNMAPPABLE
        for base, page in pages.items():
            if libc.mmap(base, PAGE_SIZE, PROT_READ_WRITE, flags, -1, 0) != base:
                return
            ctypes.memmove(base, bytes(page.data), len(page.data))
            libc.mprotect(base, PAGE_SIZE, prot_of(page.perms))
        code = REFUSED
        if libc.ptrace(PTRACE_TRACEME, 0, None, None) == 0:
            os.kill(os.getpid(), signal.SIGSTOP)
    except Exception:
        code = 1
        traceback.print_exc()
    finally:
        os._exit(code)


def vma_flags(pid: int, bases) -> list[str]:
    """The ``rwx`` flags of the VMA that holds each page of ``bases``."""
    vmas = []
    with open(f"/proc/{pid}/maps", "rb") as maps:
        for line in maps:
            span, flags = line.split(None, 2)[:2]
            lo, hi = (int(x, 16) for x in span.split(b"-"))
            vmas.append((lo, hi, flags[:3].decode()))
    return [next((f for lo, hi, f in vmas if lo <= base < hi), "") for base in bases]


def model_flags(perms: PagePermissions) -> str:
    prot = prot_of(perms)
    return "".join(ch if prot & bit else "-" for ch, bit in (("r", 1), ("w", 2), ("x", 4)))


def lockstep(start: Start, libc) -> str:
    """Step the model and a traced child beside each other from ``start``
    and compare them; return how the comparison ended: "reached-stop", the
    model's memory trap, "undecodable" or "unmappable".  A case skips the
    test when ``ptrace`` is refused."""
    user = {b: p for b, p in start.pages.items() if b < m.USER_TOP}
    if max(user, default=0) >= TASK_TOP:
        return "unmappable"
    space = AddressSpace()
    space.pages.update(start.pages)
    state = m.MachineState(dict(start.state.regs), start.state.rip)
    pid = stopped_child(user)
    reaped = False
    try:
        status = wait_for(pid, os.WUNTRACED)
        if os.WIFEXITED(status):
            reaped = True
            if os.WEXITSTATUS(status) == REFUSED:
                pytest.skip("ptrace is refused: PTRACE_TRACEME failed")
            assert os.WEXITSTATUS(status) == UNMAPPABLE, f"the child failed: {status:#x}"
            return "unmappable"
        assert os.WIFSTOPPED(status) and os.WSTOPSIG(status) == signal.SIGSTOP
        regs = UserRegs()

        def ptrace(request: int, data=None) -> None:
            if libc.ptrace(request, pid, None, data) != 0:
                pytest.skip(f"ptrace is refused: {os.strerror(ctypes.get_errno())}")

        ptrace(PTRACE_GETREGS, ctypes.byref(regs))
        for name in m.REG_NAMES:
            setattr(regs, name, state.regs[name])
        regs.rip = state.rip
        regs.orig_rax = m.MASK64  # no system call to restart
        ptrace(PTRACE_SETREGS, ctypes.byref(regs))
        effects: list = []
        flags_in_r11 = False
        steps = 0
        while not (state.rip == start.stop_rip and state.regs["rsp"] == start.stop_rsp):
            assert steps < MAX_STEPS, "the model ran out of steps"
            rip = state.rip
            before = len(effects)
            m.step(state, space, effects)
            if state.status == m.TRAPPED and state.trap_reason not in MEMORY_TRAPS:
                # the CPU would run bytes the model cannot decode, or a
                # system call it does not model
                return "undecodable"
            ptrace(PTRACE_SINGLESTEP)
            status = wait_for(pid)
            assert os.WIFSTOPPED(status), f"step {steps}: the child ended: {status:#x}"
            ptrace(PTRACE_GETREGS, ctypes.byref(regs))
            where = f"step {steps} at {rip:#x}"
            if state.status == m.TRAPPED:
                assert os.WSTOPSIG(status) == signal.SIGSEGV, (
                    f"{where}: the model trapped ({state.trap_reason}), the CPU did not")
                assert regs.rip == state.rip, f"{where}: SIGSEGV at {regs.rip:#x}"
                break
            assert os.WSTOPSIG(status) == signal.SIGTRAP, (
                f"{where}: the CPU stopped with signal {os.WSTOPSIG(status)}")
            flags_in_r11 |= any(isinstance(e, m.SyscallEffect) for e in effects[before:])
            got = {name: getattr(regs, name) for name in (*m.REG_NAMES, "rip")}
            want = {**state.regs, "rip": state.rip}
            if flags_in_r11:
                got["r11"] &= SYSCALL_FLAGS
                want["r11"] &= SYSCALL_FLAGS
            assert got == want, where
            steps += 1
        else:
            assert steps == start.steps, "the run stopped at another step"
        bases = sorted(user)
        with open(f"/proc/{pid}/mem", "rb", buffering=0) as mem:
            for base in bases:
                assert os.pread(mem.fileno(), PAGE_SIZE, base) == bytes(
                    space.pages[base].data), f"page {base:#x}"
        assert vma_flags(pid, bases) == [model_flags(space.pages[b].perms) for b in bases]
        return state.trap_reason or "reached-stop"
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            wait_for(pid)


LOCKSTEP_SEED = 0
SYNTH_DRAWS = 2  # runs drawn for each synth image
MIN_COMPARED = 80  # of 120: the demo's no-ASLR third may meet a fixed interpreter


def lockstep_cases(folder) -> list[PipelineConfig]:
    """The demo-combos corpus's runs, with ASLR and without, then runs drawn
    over synth images of 4 and 16 pages per region, seeds 0..11: a mode, a
    chain variant, a restore, ASLR or not and a run seed for each."""
    cases = []
    for config in golden._combo_runs():
        for aslr in (True, False):
            cases.append(dataclasses.replace(
                config, image_path=DEMO, ground_truth_path=None, aslr=aslr))
    rng = random.Random(LOCKSTEP_SEED)
    for pages in (4, 16):
        for image_seed in range(12):
            path = folder / f"synth-{pages}-{image_seed}.json"
            path.write_text(build_victim_image(
                image_seed, code_pages=pages, cave_pages=pages, stack_pages=pages,
            ).manifest_text)
            for _ in range(SYNTH_DRAWS):
                cases.append(PipelineConfig(
                    image_path=str(path), mode=rng.choice(MODES),
                    chain_variant=rng.choice(CHAIN_VARIANTS),
                    restore=rng.choice(RESTORE_MODES), aslr=rng.random() < 0.5,
                    seed=rng.randrange(1 << 16)))
    return cases


def test_machine_steps_as_the_cpu_does(tmp_path):
    libc = libc_calls()
    endings = Counter(lockstep(capture_start(config), libc)
                      for config in lockstep_cases(tmp_path))
    # every attack run reaches its stop on both sides, unless its pages
    # cannot be mapped: past TASK_TOP, or where the interpreter lies
    assert set(endings) <= {"reached-stop", "unmappable"}, endings
    assert endings["reached-stop"] >= MIN_COMPARED, endings


def mutant_start() -> Start:
    """A short-4 payload run of the demo, whose chain trusts rdx."""
    return capture_start(PipelineConfig(
        image_path=DEMO, chain_variant="short-4", restore="payload", seed=0))


def test_a_chain_gadget_on_a_read_only_page_traps_on_both_sides():
    # the page of the first gadget the epilogue's ret enters loses its x
    start = mutant_start()
    space = AddressSpace()
    space.pages.update(start.pages)
    state = m.MachineState(dict(start.state.regs), start.state.rip)
    for _ in range(2):  # leave; ret
        m.step(state, space)
    base = state.rip & ~(PAGE_SIZE - 1)
    pages = {**start.pages,
             base: Page(PagePermissions.from_rwxu("ru"), start.pages[base].data)}
    ending = lockstep(start._replace(pages=pages), libc_calls())
    if ending == "unmappable":
        pytest.skip("the demo's pages cannot be mapped at its ASLR offset")
    assert ending == "nx-fetch"


def test_a_store_to_a_read_only_page_traps_on_both_sides():
    # rdx asks mprotect for r-x, so the payload's first store, the marker's,
    # meets a cave page it cannot write
    start = mutant_start()
    state = m.MachineState(
        {**start.state.regs, "rdx": m.PROT_READ | m.PROT_EXEC}, start.state.rip)
    ending = lockstep(start._replace(state=state), libc_calls())
    if ending == "unmappable":
        pytest.skip("the demo's pages cannot be mapped at its ASLR offset")
    assert ending == "perm-write"
