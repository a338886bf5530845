import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from caveprobe import injector
from caveprobe import machine as m
from caveprobe.gadgets import CHAINS, GADGETS
from caveprobe.memspace import PAGE_SIZE, USER_TOP, PagePermissions
from helpers import make_space, reference_execute, run_demo_pipelines, space_digest

CODE = 0x400000
STACK = 0x7F0000000000
DATA = 0x600000


def machine_space(code: bytes = b""):
    return make_space(
        (CODE, PAGE_SIZE, "rxu", code),
        (DATA, PAGE_SIZE, "rwu", b""),
        (STACK, 2 * PAGE_SIZE, "rwu", b""),
    )


def ready_state(**regs) -> m.MachineState:
    state = m.MachineState()
    state.rip = CODE
    state.set_reg("rsp", STACK + PAGE_SIZE)
    for name, value in regs.items():
        state.set_reg(name, value)
    return state


def push_words(space, state, *values: int) -> None:
    rsp = state.reg("rsp") - 8 * len(values)
    state.set_reg("rsp", rsp)
    blob = b"".join(v.to_bytes(8, "little") for v in values)
    space.write_bytes(rsp, blob)


class TestDecode:
    def test_nop(self):
        space = machine_space(b"\x90")
        state = ready_state()
        m.step(state, space)
        assert state.status == m.RUNNING and state.rip == CODE + 1

    def test_pop_example(self):
        space = machine_space(b"\x5f")  # pop rdi
        state = ready_state()
        push_words(space, state, 0x42)
        rsp0 = state.reg("rsp")
        m.step(state, space)
        assert state.reg("rdi") == 0x42
        assert state.reg("rsp") == rsp0 + 8

    def test_pop_each_register(self):
        for i, reg in enumerate(m.REG_NAMES[:8]):
            space = machine_space(bytes([0x58 + i]))
            state = ready_state()
            push_words(space, state, 0x1000 + i)
            m.step(state, space)
            assert state.reg(reg) == 0x1000 + i, reg

    def test_ret(self):
        space = machine_space(b"\xc3")
        state = ready_state()
        push_words(space, state, CODE + 0x100)
        m.step(state, space)
        assert state.rip == CODE + 0x100

    def test_leave(self):
        space = machine_space(b"\xc9")
        state = ready_state()
        frame = STACK + 0x800
        space.write_bytes(frame, (0x1234).to_bytes(8, "little"))
        state.set_reg("rbp", frame)
        m.step(state, space)
        assert state.reg("rsp") == frame + 8
        assert state.reg("rbp") == 0x1234

    def test_mov_imm64(self):
        imm = 0x1122334455667788
        space = machine_space(b"\x48\xbb" + imm.to_bytes(8, "little"))  # mov rbx
        state = ready_state()
        m.step(state, space)
        assert state.reg("rbx") == imm
        assert state.rip == CODE + 10

    def test_mov_store_indirect(self):
        space = machine_space(b"\x48\x89\x37")  # mov [rdi], rsi
        state = ready_state(rdi=DATA + 0x10, rsi=0xCAFE)
        effects = []
        m.step(state, space, effects)
        assert space.read_bytes(DATA + 0x10, 8) == (0xCAFE).to_bytes(8, "little")
        assert effects == [m.StoreEffect(DATA + 0x10, 0xCAFE)]

    def test_jmp_register(self):
        space = machine_space(b"\xff\xe1")  # jmp rcx
        state = ready_state(rcx=CODE + 0x40)
        m.step(state, space)
        assert state.rip == CODE + 0x40

    def test_rip_advances_before_syscall_runs(self):
        space = machine_space(b"\x0f\x05")
        state = ready_state(rax=m.SYS_MPROTECT, rdi=DATA, rsi=PAGE_SIZE,
                            rdx=m.PROT_READ)
        m.step(state, space)
        assert state.rip == CODE + 2
        assert state.status == m.RUNNING
        assert state.reg("rax") == 0


class TestTraps:
    def trap_of(self, space, state) -> str:
        m.step(state, space)
        assert state.status == m.TRAPPED
        return state.trap_reason

    def test_undecodable(self):
        # int3, ud2 (0F but not syscall), then push rdi, mov rax, [rdi] and
        # mov rbx, rax: the attack runs none of them, so the machine does
        # not decode them
        for code in (b"\xcc", b"\x0f\x0b", b"\x57", b"\x48\x8b\x07", b"\x48\x89\xc3"):
            state = ready_state()
            assert self.trap_of(machine_space(code), state) == "undecodable", code

    def test_modrm_forms_outside_subset(self):
        # mod 01 (disp8) is not implemented
        assert self.trap_of(machine_space(b"\x48\x89\x47"), ready_state()) == "undecodable"

    def test_fetch_unmapped(self):
        state = ready_state()
        state.rip = 0x123000
        assert self.trap_of(machine_space(), state) == "unmapped"

    def test_fetch_non_executable(self):
        state = ready_state()
        state.rip = DATA
        assert self.trap_of(machine_space(), state) == "nx-fetch"

    def test_fetch_kernel_half(self):
        space = machine_space()
        space.map_region(USER_TOP, PAGE_SIZE, PagePermissions.from_rwxu("rx"), b"\x90")
        state = ready_state()
        state.rip = USER_TOP
        assert self.trap_of(space, state) == "nx-fetch"

    def test_store_to_read_only(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b"\x48\x89\x37"),
            (0x700000, PAGE_SIZE, "ru", b""),
        )
        state = ready_state(rdi=0x700000)
        assert self.trap_of(space, state) == "perm-write"

    def test_pop_from_unmapped_leaves_rsp(self):
        space = machine_space(b"\x5f")
        state = ready_state()
        state.set_reg("rsp", 0x9000)
        assert self.trap_of(space, state) == "unmapped"
        assert state.reg("rsp") == 0x9000

    def test_unknown_syscall(self):
        # mprotect is the only syscall; write (1) and exit (60) trap too
        for number in (999, 1, 60):
            space = machine_space(b"\x0f\x05")
            state = ready_state(rax=number)
            assert self.trap_of(space, state) == "unknown-syscall", number

    def test_step_refuses_halted_machine(self):
        # step trusts its caller to pass a running machine: run_until
        # checks the status before each step, so a halted one never steps
        space = machine_space(b"\xcc")
        state = ready_state()
        m.step(state, space)
        assert state.status == m.TRAPPED
        with patch.object(m, "step", side_effect=AssertionError("stepped")):
            result = m.run_until(state, space, CODE, 10, STACK)
        assert (result.stop_reason, result.steps, result.side_effects) == ("halted", 0, ())
        assert state.trap_reason == "undecodable"


class TestPageStraddling:
    """Fetches, loads and stores whose bytes cross from one page into the
    next: each runs whole or traps with no register or byte changed."""

    IMM = 0x1122334455667788
    MOV_RAX = b"\x48\xb8" + IMM.to_bytes(8, "little")  # mov rax, imm64

    def straddling_mov(self, next_perms: str | None):
        # the instruction's first 4 bytes end the code page, its last 6
        # start the page after, which is mapped with next_perms or not at all
        regions = [(CODE, PAGE_SIZE, "rxu", bytes(PAGE_SIZE - 4) + self.MOV_RAX[:4])]
        if next_perms is not None:
            regions.append((CODE + PAGE_SIZE, PAGE_SIZE, next_perms, self.MOV_RAX[4:]))
        state = ready_state(rax=0xAA)
        state.rip = CODE + PAGE_SIZE - 4
        m.step(state, make_space(*regions))
        return state

    def test_fetch_into_executable_page_runs(self):
        state = self.straddling_mov("rxu")
        assert state.status == m.RUNNING
        assert state.reg("rax") == self.IMM
        assert state.rip == CODE + PAGE_SIZE + 6

    @pytest.mark.parametrize("next_perms, reason", [("ru", "nx-fetch"), (None, "unmapped")])
    def test_fetch_into_unfetchable_page_traps_in_place(self, next_perms, reason):
        state = self.straddling_mov(next_perms)
        assert (state.status, state.trap_reason) == (m.TRAPPED, reason)
        assert state.rip == CODE + PAGE_SIZE - 4
        assert state.reg("rax") == 0xAA

    def test_store_into_read_only_page_writes_nothing(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b"\x48\x89\x37"),  # mov [rdi], rsi
            (DATA, PAGE_SIZE, "rwu", b""),
            (DATA + PAGE_SIZE, PAGE_SIZE, "ru", b""),
        )
        before = space_digest(space)
        state = ready_state(rdi=DATA + PAGE_SIZE - 4, rsi=self.IMM)
        m.step(state, space)
        assert (state.status, state.trap_reason) == (m.TRAPPED, "perm-write")
        assert space_digest(space) == before

    def test_pop_into_unmapped_page_leaves_rsp(self):
        space = machine_space(b"\x5f")  # pop rdi; the stack's next page is unmapped
        state = ready_state(rdi=0xAA)
        state.set_reg("rsp", STACK + 2 * PAGE_SIZE - 4)
        m.step(state, space)
        assert (state.status, state.trap_reason) == (m.TRAPPED, "unmapped")
        assert state.reg("rsp") == STACK + 2 * PAGE_SIZE - 4
        assert state.reg("rdi") == 0xAA


class TestSyscalls:
    def run_syscall(self, space, **regs):
        state = ready_state(**regs)
        effects = []
        m.step(state, space, effects)
        return state, effects

    def test_mprotect_flips_permissions(self):
        space = machine_space(b"\x0f\x05")
        state, effects = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=DATA, rsi=PAGE_SIZE, rdx=m.PROT_RWX
        )
        assert state.reg("rax") == 0
        page = space.get_page(DATA)
        assert page.perms.executable and page.perms.writable
        assert effects == [
            m.SyscallEffect("mprotect", (DATA, PAGE_SIZE, m.PROT_RWX), 0)
        ]

    def test_mprotect_rounds_length_up(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=STACK, rsi=PAGE_SIZE + 1,
            rdx=m.PROT_READ,
        )
        assert state.reg("rax") == 0
        assert not space.get_page(STACK + PAGE_SIZE).perms.writable

    def test_mprotect_unaligned_einval(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=DATA + 1, rsi=8, rdx=m.PROT_READ
        )
        assert state.reg("rax") == (-m.EINVAL) & ((1 << 64) - 1)

    def test_mprotect_bad_prot_einval(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=DATA, rsi=8, rdx=0x100
        )
        assert state.reg("rax") == (-m.EINVAL) & ((1 << 64) - 1)

    def test_mprotect_wrapping_length_enomem_before_bad_prot(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=DATA, rsi=2**64 - 1, rdx=0x100
        )
        assert state.reg("rax") == (-m.ENOMEM) & ((1 << 64) - 1)

    def test_mprotect_unmapped_enomem(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=0x66000, rsi=8, rdx=m.PROT_READ
        )
        assert state.reg("rax") == (-m.ENOMEM) & ((1 << 64) - 1)

    def test_mprotect_kernel_enomem(self):
        space = machine_space(b"\x0f\x05")
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=USER_TOP, rsi=8, rdx=m.PROT_READ
        )
        assert state.reg("rax") == (-m.ENOMEM) & ((1 << 64) - 1)

    def test_mprotect_past_user_half_enomem(self):
        # both pages are mapped, but the range ends past the user half
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b"\x0f\x05"),
            (USER_TOP - PAGE_SIZE, PAGE_SIZE, "rwu", b""),
            (USER_TOP, PAGE_SIZE, "rw", b""),
        )
        before = space_digest(space)
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=USER_TOP - PAGE_SIZE,
            rsi=2 * PAGE_SIZE, rdx=m.PROT_READ,
        )
        assert state.reg("rax") == (-m.ENOMEM) & ((1 << 64) - 1)
        assert space_digest(space) == before

    # a zero length returns 0 before the address half or the bits are checked
    @pytest.mark.parametrize("addr, prot", [
        (DATA, m.PROT_READ), (USER_TOP, m.PROT_READ), (0x600000, 0x100),
    ])
    def test_mprotect_zero_length_noop(self, addr, prot):
        space = machine_space(b"\x0f\x05")
        before = space_digest(space)
        state, _ = self.run_syscall(
            space, rax=m.SYS_MPROTECT, rdi=addr, rsi=0, rdx=prot
        )
        assert state.reg("rax") == 0
        assert space_digest(space) == before

    def test_mprotect_write_implies_read(self):
        space = machine_space(b"\x0f\x05")
        self.run_syscall(space, rax=m.SYS_MPROTECT, rdi=DATA, rsi=8,
                         rdx=m.PROT_WRITE)
        assert space.get_page(DATA).perms.readable


class TestRunUntil:
    def test_reached_stop_checked_before_execution(self):
        space = machine_space(b"\x90\x90\xcc")
        state = ready_state()
        result = m.run_until(state, space, CODE + 2, max_steps=10,
                             stop_rsp=STACK + PAGE_SIZE)
        assert result.stop_reason == "reached-stop"
        assert result.steps == 2
        assert state.status == m.RUNNING  # the trap byte never ran

    def test_halted(self):
        space = machine_space(b"\xcc")
        state = ready_state()
        result = m.run_until(state, space, CODE + 0x100, max_steps=10,
                             stop_rsp=STACK + PAGE_SIZE)
        assert result.stop_reason == "halted"
        assert result.final_state.status == m.TRAPPED

    def test_stop_rsp_runs_through_a_mid_chain_stop_rip(self):
        # pop rax; ret whose ret byte is the stop address: after the pop the
        # rip matches but rsp is mid-chain, so only the second visit stops
        space = machine_space(b"\x58\xc3")
        state = ready_state()
        push_words(space, state, 0x1234, CODE + 1)
        rsp0 = state.reg("rsp")
        result = m.run_until(state, space, CODE + 1, max_steps=10,
                             stop_rsp=rsp0 + 16)
        assert result.stop_reason == "reached-stop"
        assert result.steps == 2
        assert state.reg("rax") == 0x1234
        assert state.reg("rsp") == rsp0 + 16

    def test_budget_exhausted(self):
        # jmp rcx back to itself, forever
        space = machine_space(b"\xff\xe1")
        state = ready_state(rcx=CODE)
        result = m.run_until(state, space, CODE + 0x100, max_steps=25,
                             stop_rsp=STACK + PAGE_SIZE)
        assert result.stop_reason == "budget-exhausted"
        assert result.steps == 25


class TestGadgetSemanticsAgreement:
    def test_every_spec_behaves_as_documented(self):
        # execute each cataloged pattern and check the machine does what
        # its kind's name promises
        pop_regs = {"pop-rdi-ret": "rdi", "pop-rsi-ret": "rsi",
                    "pop-rdx-ret": "rdx", "pop-rax-ret": "rax",
                    "pop-rbp-ret": "rbp"}
        for name, pattern in GADGETS.items():
            space = machine_space(pattern + b"\x90" * 8)
            state = ready_state()
            if name in pop_regs:
                reg = pop_regs[name]
                push_words(space, state, 0x5151, CODE + 0x20)
                m.step(state, space)  # the pop
                assert state.reg(reg) == 0x5151, name
                m.step(state, space)  # the ret
                assert state.rip == CODE + 0x20, name
            elif name == "syscall":
                state.set_reg("rax", m.SYS_MPROTECT)
                state.set_reg("rdi", DATA)
                state.set_reg("rsi", PAGE_SIZE)
                state.set_reg("rdx", m.PROT_READ)
                m.step(state, space)
                assert state.reg("rax") == 0
            elif name == "leave-ret":
                frame = STACK + 0x100
                space.write_bytes(frame, (0x7777).to_bytes(8, "little"))
                space.write_bytes(frame + 8, (CODE + 0x30).to_bytes(8, "little"))
                state.set_reg("rbp", frame)
                m.step(state, space)  # leave
                assert state.reg("rbp") == 0x7777
                m.step(state, space)  # ret
                assert state.rip == CODE + 0x30
            else:
                pytest.fail(f"kind {name} not covered")


class TestAssemblers:
    def test_mov_imm_encoding(self):
        assert m.enc_mov_ri("rax", 1) == b"\x48\xb8" + (1).to_bytes(8, "little")

    def test_store_encoding(self):
        assert m.enc_store("rdi", "rsi") == b"\x48\x89\x37"

    def test_jmp_encoding(self):
        assert m.enc_jmp_r("rcx") == b"\xff\xe1"


# the resume rsp, rbp and rip every payload below ends with
RESUME = (STACK + 0x800, STACK + 0x900, CODE + 0x10)


class TestAssemblePayload:
    def test_unrolled_store_count_frozen(self):
        # 0x90 bytes of cleanup take 18 stores: the blob length is the
        # 24-byte marker stub, one rsi load, 18 store pairs of 13 bytes,
        # three restore loads, and the final 2-byte jump
        payload = m.assemble_payload((DATA, 0x90), (DATA + 0x200, 1), *RESUME)
        assert len(payload) == 24 + 10 + 18 * 13 + 3 * 10 + 2

    def test_marker_stub_length_constant(self):
        payload = m.assemble_payload((DATA, 0), (DATA, 5), *RESUME)
        assert m.MARKER_STUB_LEN == 24
        assert payload[:2] == b"\x48\xbf"  # mov rdi, marker address

    def test_range_validation(self):
        # assemble_payload trusts its caller for the cleanup range: the
        # pipeline passes payload_offset bytes, 8-byte divisible
        lengths = []
        assemble = m.assemble_payload

        def spy(cleanup, *rest):
            lengths.append(cleanup[1])
            return assemble(cleanup, *rest)

        with patch.object(m, "assemble_payload", spy):
            run_demo_pipelines()
        offsets = {injector.payload_offset(2 * len(CHAINS[v]) - 1) for v in CHAINS}
        assert lengths and set(lengths) <= offsets
        assert all(n > 0 and n % 8 == 0 for n in offsets)

    def test_executes_to_specification(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b""),
            (DATA, PAGE_SIZE, "rwxu", b"\xee" * PAGE_SIZE),
            (STACK, PAGE_SIZE, "rwu", b""),
        )
        marker = (DATA + 0xF00, 0x1122334455667788)
        payload = m.assemble_payload((DATA, 0x40), marker, *RESUME)
        space.write_bytes(DATA + 0x100, payload)
        state = m.MachineState()
        state.rip = DATA + 0x100
        rsp, rbp, rip = RESUME
        result = m.run_until(state, space, rip, max_steps=1000, stop_rsp=rsp)
        assert result.stop_reason == "reached-stop"
        assert state.reg("rsp") == rsp
        assert state.reg("rbp") == rbp
        assert space.read_bytes(DATA, 0x40) == bytes(0x40)
        assert space.read_bytes(marker[0], 8) == marker[1].to_bytes(8, "little")
        # bytes past the range stay untouched
        assert space.read_bytes(DATA + 0x40, 0xC0) == b"\xee" * 0xC0


@given(data=st.binary(min_size=1, max_size=16), seed=st.integers(0, 2**32 - 1))
def test_step_never_raises_on_arbitrary_bytes(data, seed):
    rng = random.Random(seed)
    space = machine_space(data)
    state = ready_state()
    for name in m.REG_NAMES:
        state.set_reg(name, rng.randrange(0, 1 << 48))
    state.set_reg("rsp", STACK + 0x1000)
    state.rip = CODE
    for _ in range(4):
        if state.status != m.RUNNING:
            break
        m.step(state, space)
    assert state.status in (m.RUNNING, m.TRAPPED)


# operands the differential runs load: addresses on every page of the
# layout and across its page ends, the mprotect number, and anything else
OPERANDS = st.one_of(
    st.sampled_from((
        CODE, CODE + PAGE_SIZE - 4, CODE + PAGE_SIZE, DATA, DATA + PAGE_SIZE - 4,
        DATA + PAGE_SIZE, STACK + PAGE_SIZE, STACK + 2 * PAGE_SIZE - 8,
        m.SYS_MPROTECT, m.PROT_RWX,
    )),
    st.integers(0, 2**64 - 1),
)

INSTRUCTIONS = st.one_of(
    st.sampled_from((b"\x90", b"\xc3", b"\xc9", b"\x0f\x05")),
    st.integers(0x58, 0x5F).map(lambda op: bytes([op])),
    st.tuples(st.integers(0xB8, 0xBF), OPERANDS).map(
        lambda t: bytes([0x48, t[0]]) + t[1].to_bytes(8, "little")),
    st.integers(0, 255).map(lambda modrm: bytes([0x48, 0x89, modrm])),
    st.integers(0, 255).map(lambda modrm: bytes([0xFF, modrm])),
    st.binary(min_size=1, max_size=4),
)


@st.composite
def straddling_programs(draw):
    """(regions, registers, rip) of a program whose bytes run from the end
    of the code page into the page after it, which is unmapped, mapped
    without execute (or user) rights, or executable."""
    code = b"".join(draw(st.lists(INSTRUCTIONS, min_size=1, max_size=8)))
    head = draw(st.integers(1, min(len(code), 24)))  # bytes on the code page
    regions = [
        (CODE, PAGE_SIZE, "rxu", bytes(PAGE_SIZE - head) + code[:head]),
        (DATA, PAGE_SIZE, "rwu", b""),
        (DATA + PAGE_SIZE, PAGE_SIZE, "ru", b""),
        (STACK, 2 * PAGE_SIZE, "rwu", draw(st.binary(max_size=64))),
    ]
    next_perms = draw(st.sampled_from((None, "ru", "rwu", "rx", "rxu")))
    if next_perms is not None:
        regions.append((CODE + PAGE_SIZE, PAGE_SIZE, next_perms, code[head:]))
    regs = {name: draw(OPERANDS) for name in m.REG_NAMES}
    regs["rsp"] = draw(st.sampled_from((STACK, STACK + PAGE_SIZE, STACK + 2 * PAGE_SIZE - 8)))
    return regions, regs, CODE + PAGE_SIZE - head


@given(straddling_programs())
# mov [rdi], rsi whose ModRM byte starts the next page: a draw reaches that
# fetch only by chance
@example((
    [(CODE, PAGE_SIZE, "rxu", bytes(PAGE_SIZE - 2) + b"\x48\x89"),
     (CODE + PAGE_SIZE, PAGE_SIZE, "rxu", b"\x37"),
     (DATA, PAGE_SIZE, "rwu", b""),
     (STACK, 2 * PAGE_SIZE, "rwu", b"")],
    {"rdi": DATA, "rsi": 0xAA, "rsp": STACK + PAGE_SIZE},
    CODE + PAGE_SIZE - 2,
))
def test_execute_matches_per_byte_reference(program):
    # the same registers, rip, status, trap reason, steps and side effects,
    # and the same bytes and permissions left in the space, as the step
    # that fetched each byte by its own call
    regions, regs, rip = program
    outcomes = []
    for execute in (m._execute, reference_execute):
        space = make_space(*regions)
        state = m.MachineState()
        for name, value in regs.items():
            state.set_reg(name, value)
        state.rip = rip
        with patch.object(m, "_execute", execute):
            result = m.run_until(state, space, -1, 12, 0)
        outcomes.append((result, space_digest(space)))
    assert outcomes[0] == outcomes[1]
