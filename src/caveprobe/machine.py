"""Minimal x86-64 machine model used to verify injected control flow.

Only the handful of instructions the pivot, chain, and payload need are
implemented; everything else traps loudly rather than guessing.  Memory
accesses go through the address space's permission checks, so a store to a
read-only page traps exactly like the real MMU would fault it.

Supported encodings (little endian, REX.W = 0x48 where shown):

    58+rd            pop r64
    C3               ret
    C9               leave            (rsp <- rbp; rbp <- pop)
    0F 05            syscall          (mprotect only; other numbers trap)
    90               nop
    48 B8+rd imm64   mov r64, imm64
    48 89 /r         mov [r64], r64   (mod 00 only; no SIB, no disp)
    FF /4 (mod 11)   jmp r64

There are no flags and no arithmetic; the verification runs need none.

A step looks up rip's page once and takes the instruction from a slice of
it.  Only an instruction that runs past its page end fetches its remaining
bytes one at a time, each checked as it is fetched, so a byte on an
unmapped or non-executable page traps ("unmapped" or "nx-fetch") only when
the instruction needs it, before anything is executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .memspace import (
    PAGE_SIZE,
    USER_TOP,
    AddressSpace,
    MemoryFault,
    Page,
    PagePermissions,
)

MASK64 = (1 << 64) - 1

REG_NAMES = (
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)
_REG_INDEX = {name: i for i, name in enumerate(REG_NAMES)}

RUNNING = "running"
TRAPPED = "trapped"

# Linux x86-64 ABI values used by the syscall model.
SYS_MPROTECT = 10

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
PROT_RWX = PROT_READ | PROT_WRITE | PROT_EXEC

EINVAL = 22
ENOMEM = 12

# the longest encoding of the subset, mov r64, imm64
_MAX_INSN = 10


@dataclass(slots=True)
class MachineState:
    """Register file plus run status."""

    regs: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in REG_NAMES}
    )
    rip: int = 0
    status: str = RUNNING
    trap_reason: str | None = None

    def reg(self, name: str) -> int:
        return self.regs[name]

    def set_reg(self, name: str, value: int) -> None:
        self.regs[name] = value & MASK64


@dataclass(frozen=True, slots=True)
class SyscallEffect:
    name: str
    args: tuple[int, int, int]
    ret: int


@dataclass(frozen=True, slots=True)
class StoreEffect:
    addr: int
    value: int


@dataclass(frozen=True, slots=True)
class RunResult:
    final_state: MachineState
    steps: int
    side_effects: tuple[object, ...]
    stop_reason: str  # "reached-stop" | "halted" | "budget-exhausted"


class _Stop(Exception):
    """Internal: unwinds instruction execution into a trap."""

    def __init__(self, reason: str):
        self.reason = reason


def _code_page(space: AddressSpace, addr: int) -> Page:
    """The page holding ``addr``, if code may be fetched from it."""
    page = space.get_page(addr)
    if page is None:
        raise _Stop("unmapped")
    p = page.perms
    if not (p.executable and p.user_accessible):
        raise _Stop("nx-fetch")
    return page


def _fetch_u8(space: AddressSpace, addr: int) -> int:
    return _code_page(space, addr).data[addr % PAGE_SIZE]


def _fetch_to(space: AddressSpace, rip: int, code: bytes, n: int) -> bytes:
    """``code``, the bytes at ``rip`` up to its page end, extended byte by
    byte to ``n`` bytes from the page after it; the first byte that cannot
    be fetched traps as it would alone."""
    while len(code) < n:
        code += bytes((_fetch_u8(space, rip + len(code)),))
    return code


def _pop64(regs: dict[str, int], space: AddressSpace) -> int:
    rsp = regs["rsp"]
    value = _read64(space, rsp)
    regs["rsp"] = (rsp + 8) & MASK64
    return value


def _read64(space: AddressSpace, addr: int) -> int:
    try:
        return int.from_bytes(space.read_bytes(addr, 8), "little")
    except MemoryFault as exc:
        raise _Stop("unmapped" if exc.kind == "unmapped" else "perm-read") from None


def _write64(space: AddressSpace, addr: int, value: int,
             effects: list | None) -> None:
    try:
        space.write_bytes(addr, (value & MASK64).to_bytes(8, "little"))
    except MemoryFault as exc:
        raise _Stop("unmapped" if exc.kind == "unmapped" else "perm-write") from None
    if effects is not None:
        effects.append(StoreEffect(addr, value & MASK64))


# --- syscall model ----------------------------------------------------------

def _syscall(state: MachineState, space: AddressSpace,
             effects: list | None) -> None:
    """mprotect(rdi, rsi, rdx); any other number in rax traps."""
    if state.reg("rax") != SYS_MPROTECT:
        raise _Stop("unknown-syscall")
    args = (state.reg("rdi"), state.reg("rsi"), state.reg("rdx"))
    ret = _mprotect(space, *args)
    state.set_reg("rax", ret & MASK64)
    if effects is not None:
        effects.append(SyscallEffect("mprotect", args, ret))


def _mprotect(space: AddressSpace, addr: int, length: int, prot: int) -> int:
    """The checks of Linux's ``do_mprotect_pkey``, in its order."""
    if addr % PAGE_SIZE:
        return -EINVAL
    if length == 0:
        return 0
    length = (length + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
    if addr + length > MASK64:  # the range wraps past 2**64
        return -ENOMEM
    if prot & ~(PROT_READ | PROT_WRITE | PROT_EXEC):
        return -EINVAL
    if addr + length > USER_TOP:
        return -ENOMEM
    perms = PagePermissions(
        # hardware cannot express write-only mappings, so PROT_WRITE
        # implies readability here just as it does on x86
        readable=bool(prot & (PROT_READ | PROT_WRITE)),
        writable=bool(prot & PROT_WRITE),
        executable=bool(prot & PROT_EXEC),
        user_accessible=True,
    )
    try:
        space.set_protection(addr, length, perms)
    except MemoryFault:
        return -ENOMEM
    return 0


# --- instruction stepping ---------------------------------------------------

def step(
    state: MachineState, space: AddressSpace, effects: list | None = None
) -> MachineState:
    """Execute one instruction at ``state.rip``, mutating ``state``, which
    must be running, as ``run_until`` checks before each step.

    Undecodable bytes, fetches from non-executable memory, stores to
    read-only pages, and touches of unmapped pages all end in a trapped
    status instead of an exception.
    """
    try:
        _execute(state, space, effects)
    except _Stop as stop:
        state.status = TRAPPED
        state.trap_reason = stop.reason
    return state


def _execute(state: MachineState, space: AddressSpace, effects: list | None) -> None:
    rip = state.rip
    off = rip & (PAGE_SIZE - 1)
    code = _code_page(space, rip).data[off : off + _MAX_INSN]
    regs = state.regs
    b0 = code[0]

    if b0 == 0x90:  # nop
        state.rip = rip + 1
        return
    if b0 == 0xC3:  # ret
        state.rip = _pop64(regs, space)
        return
    if b0 == 0xC9:  # leave
        regs["rsp"] = regs["rbp"] & MASK64
        regs["rbp"] = _pop64(regs, space)
        state.rip = rip + 1
        return
    if 0x58 <= b0 <= 0x5F:  # pop r64
        regs[REG_NAMES[b0 - 0x58]] = _pop64(regs, space)
        state.rip = rip + 1
        return
    if b0 not in (0x0F, 0x48, 0xFF):
        raise _Stop("undecodable")
    if len(code) < 2:
        code = _fetch_to(space, rip, code, 2)
    if b0 == 0x0F:
        if code[1] != 0x05:
            raise _Stop("undecodable")
        state.rip = rip + 2  # rip already past the instruction when it runs
        _syscall(state, space, effects)
        return
    if b0 == 0x48:  # REX.W
        b1 = code[1]
        if 0xB8 <= b1 <= 0xBF:  # mov r64, imm64
            if len(code) < 10:
                code = _fetch_to(space, rip, code, 10)
            regs[REG_NAMES[b1 - 0xB8]] = int.from_bytes(code[2:10], "little")
            state.rip = rip + 10
            return
        if b1 == 0x89:  # mov [r64], r64
            if len(code) < 3:
                code = _fetch_to(space, rip, code, 3)
            modrm = code[2]
            rm_i = modrm & 7
            if modrm >> 6 == 0b00 and rm_i not in (4, 5):  # 4 needs SIB, 5 is rip-rel
                src = regs[REG_NAMES[(modrm >> 3) & 7]]
                _write64(space, regs[REG_NAMES[rm_i]], src, effects)
                state.rip = rip + 3
                return
        raise _Stop("undecodable")
    modrm = code[1]  # jmp r64: FF /4, mod 11
    if modrm >> 6 == 0b11 and (modrm >> 3) & 7 == 4:
        state.rip = regs[REG_NAMES[modrm & 7]]
        return
    raise _Stop("undecodable")


def run_until(
    state: MachineState,
    space: AddressSpace,
    stop_rip: int,
    max_steps: int,
    stop_rsp: int,
) -> RunResult:
    """Step until rip reaches ``stop_rip`` while rsp equals ``stop_rsp``
    (checked before executing there), the machine halts, or the step budget
    runs out.

    Rip alone does not stop the run: a chain gadget's ``ret`` byte can sit
    at the stop address, and falling through it mid-chain is not the end.
    """
    effects: list = []
    steps = 0
    while True:
        if state.status != RUNNING:
            reason = "halted"
            break
        if state.rip == stop_rip and state.reg("rsp") == stop_rsp:
            reason = "reached-stop"
            break
        if steps >= max_steps:
            reason = "budget-exhausted"
            break
        step(state, space, effects)
        steps += 1
    return RunResult(state, steps, tuple(effects), reason)


# --- tiny assembler ---------------------------------------------------------
# Each encoder takes registers among rax..rdi, as assemble_payload passes
# them; a store's address register is not rsp or rbp.


def enc_mov_ri(reg: str, imm: int) -> bytes:
    """mov r64, imm64."""
    return bytes([0x48, 0xB8 + _REG_INDEX[reg]]) + (imm & MASK64).to_bytes(8, "little")


def enc_store(addr_reg: str, src_reg: str) -> bytes:
    """mov [addr_reg], src_reg."""
    return bytes([0x48, 0x89, (_REG_INDEX[src_reg] << 3) | _REG_INDEX[addr_reg]])


def enc_jmp_r(reg: str) -> bytes:
    return bytes([0xFF, 0xC0 | (4 << 3) | _REG_INDEX[reg]])


def enc_nop() -> bytes:
    return b"\x90"


# length of the marker-writing prologue that assemble_payload emits,
# nop-padded so the cleanup region stays 8-byte divisible
MARKER_STUB_LEN = 24


def payload_len(cleanup_bytes: int) -> int:
    """Length of the payload assemble_payload emits for ``cleanup_bytes``
    of cleanup: the marker stub, the rsi zeroing, one 13-byte store pair per
    zeroed word, three restore loads and the final jump."""
    return MARKER_STUB_LEN + 10 + 13 * (cleanup_bytes // 8) + 3 * 10 + 2


def assemble_payload(
    cleanup: tuple[int, int],
    marker: tuple[int, int],
    resume_rsp: int,
    resume_rbp: int,
    resume_rip: int,
) -> bytes:
    """Emit position-independent bytes (from the supported subset only) that:

    1. write the marker value to the marker address,
    2. zero the cleanup range ``(start, length)`` with unrolled 8-byte stores,
    3. load ``resume_rsp`` and ``resume_rbp`` into the stack and base
       pointers,
    4. jump to ``resume_rip``.

    ``injector.forge_fake_frame`` passes the victim's values and places the
    blob.  The range's length, ``injector.payload_offset``, is 8-byte
    divisible; each zeroed 8 bytes costs 13 instruction bytes.
    """
    marker_addr, marker_value = marker
    start, length = cleanup
    out = bytearray()
    out += enc_mov_ri("rdi", marker_addr)
    out += enc_mov_ri("rsi", marker_value)
    out += enc_store("rdi", "rsi")
    out += enc_nop()
    assert len(out) == MARKER_STUB_LEN

    out += enc_mov_ri("rsi", 0)
    for off in range(0, length, 8):
        out += enc_mov_ri("rdi", start + off)
        out += enc_store("rdi", "rsi")

    out += enc_mov_ri("rsp", resume_rsp)
    out += enc_mov_ri("rbp", resume_rbp)
    out += enc_mov_ri("rcx", resume_rip)
    out += enc_jmp_r("rcx")
    assert len(out) == payload_len(length)
    return bytes(out)
