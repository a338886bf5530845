"""Synthetic victim images for tests, experiments, and the bundled demo.

An image models a paused host process: a code region with usable gadget
sites, read-only data, writable data holding a few live pointers, a run of
zero pages (the cave-to-be), a junk-filled heap, a guard page, and a stack
carrying a frame-pointer chain with canaries.  The builder returns both the
loadable manifest and a ground-truth description, plus every planted
address so tests can check probe results against reality.

Code filler is random but scrubbed of bare two-byte syscall patterns that
do not fall through into a ret; such a site would be cataloged as usable
yet derail any chain routed through it.  All other incidental pattern
occurrences are left in place, since their bytes execute exactly as their
pattern promises.

The manifest text is ``json.dumps(manifest, indent=2)`` with each blob's hex
spliced in for a placeholder; hex never needs escaping, so the text is what
dumping the blobs themselves would give, without json escaping megabytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .memspace import MAX_MANIFEST_PAGES, PAGE_SIZE, USER_TOP
from .gadgets import GADGETS

_PRINTABLE = bytes(range(0x20, 0x7F))


@dataclass(frozen=True)
class VictimTruth:
    """Everything the builder knows that a probing attacker must discover."""

    regions: dict[str, tuple[int, int, str]]  # name -> (start, len, perms)
    gadget_plants: dict[str, int]
    return_site: int
    stack_pointer: int
    victim_slot: int
    saved_rbp: int
    saved_rip: int
    canary_addr: int
    canary_value: int
    cave_start: int
    cave_len: int
    stack_region: tuple[int, int]


@dataclass(frozen=True)
class VictimImage:
    manifest_text: str
    maps_text: str
    truth: VictimTruth


def _scrub_hanging_syscalls(code: bytearray) -> None:
    """Rewrite any syscall byte pair not followed by a ret; see module doc."""
    pos = code.find(b"\x0f\x05")
    while pos != -1:
        if pos + 2 >= len(code) or code[pos + 2] != 0xC3:
            code[pos] = 0x90
        pos = code.find(b"\x0f\x05", pos + 1)


def build_victim_image(
    seed: int,
    *,
    code_pages: int = 4,
    cave_pages: int = 4,
    stack_pages: int = 4,
    omit_gadgets: tuple[str, ...] = (),
) -> VictimImage:
    """Deterministically build one victim image from ``seed``.

    ``omit_gadgets`` suppresses planting the named gadget kinds, which is
    how tests produce images where chain construction must fail.  Page
    counts below 1, or an image past ``MAX_MANIFEST_PAGES`` pages, raise
    ValueError before anything is drawn or allocated.
    """
    if unknown := [name for name in omit_gadgets if name not in GADGETS]:
        raise ValueError(f"unknown gadget kinds: {', '.join(unknown)}")
    for name, count in (("code_pages", code_pages), ("cave_pages", cave_pages),
                        ("stack_pages", stack_pages)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, not {count}")
    # rodata, data and heap take two pages each, the guard and vsyscall one
    if code_pages + cave_pages + stack_pages + 8 > MAX_MANIFEST_PAGES:
        raise ValueError(f"the image would map more than the loader's "
                         f"{MAX_MANIFEST_PAGES} pages")
    rng = random.Random(seed)
    page = PAGE_SIZE

    def gap() -> int:
        return rng.randint(1, 32) * page

    # -- low cluster: code, rodata, data, cave, heap -------------------------
    code_start = 0x00400000 + rng.randint(0, 64) * page
    code_len = code_pages * page
    rodata_start = code_start + code_len + gap()
    rodata_len = 2 * page
    data_start = rodata_start + rodata_len + gap()
    data_len = 2 * page
    cave_start = data_start + data_len + gap()
    cave_len = cave_pages * page
    heap_start = cave_start + cave_len + gap()
    heap_len = 2 * page

    # -- high cluster: guard page below the stack ----------------------------
    stack_base = 0x7F0000000000 + rng.randint(0, 4096) * page
    guard_start = stack_base - page
    stack_len = stack_pages * page
    stack_top = stack_base + stack_len

    # -- code bytes -----------------------------------------------------------
    code = bytearray(rng.randbytes(code_len))
    plants: dict[str, int] = {}
    taken: list[tuple[int, int]] = []
    for name, pattern in GADGETS.items():
        if name in omit_gadgets:
            continue
        if name == "syscall":
            pattern = pattern + b"\xc3"  # must fall through into a ret
        while True:
            off = rng.randrange(0, page - len(pattern))
            if all(off + len(pattern) <= lo or off >= hi for lo, hi in taken):
                break
        taken.append((off, off + len(pattern)))
        code[off : off + len(pattern)] = pattern
        plants[name] = code_start + off
    _scrub_hanging_syscalls(code)

    def code_addr() -> int:
        # plausible return site: anywhere in the first three code pages
        return code_start + rng.randrange(0, min(3, code_pages) * page)

    return_site = code_addr()

    # -- read-only data: printable bytes can never form a usable pattern -----
    rodata = bytes(rng.choice(_PRINTABLE) for _ in range(64)) * (rodata_len // 64)

    # -- writable data: live pointers for the harvest to find ----------------
    data = bytearray(rng.randbytes(data_len))
    for i, value in enumerate((cave_start, code_addr(), rodata_start + 0x40)):
        data[i * 8 : i * 8 + 8] = value.to_bytes(8, "little")

    # -- heap: junk, definitely not zero --------------------------------------
    heap = bytearray(rng.randbytes(heap_len))
    for off in range(0, heap_len, page):
        heap[off] |= 0x01

    # -- stack: three frames with canaries, then scratch locals ---------------
    stack = bytearray(stack_len)

    def put(addr: int, value: int) -> None:
        off = addr - stack_base
        stack[off : off + 8] = value.to_bytes(8, "little")

    def fresh_canary() -> int:
        while True:
            v = rng.getrandbits(64)
            # never let a canary masquerade as an in-stack pointer
            if not (stack_base <= v < stack_top) and v != 0:
                return v

    slot_main = stack_top - 0x40
    slot_mid = slot_main - 0xA0
    slot_inner = slot_mid - 0x90
    put(slot_main, 0)  # chain terminator
    put(slot_main + 8, code_addr())
    put(slot_mid, slot_main)
    put(slot_mid + 8, code_addr())
    put(slot_mid - 8, fresh_canary())
    saved_rip = code_addr()
    put(slot_inner, slot_mid)
    put(slot_inner + 8, saved_rip)
    canary_value = fresh_canary()
    put(slot_inner - 8, canary_value)

    stack_pointer = slot_inner - 0x48
    locals_values = (
        cave_start,               # a buffer pointer into the zero pages
        data_start + 8,
        0x2A,
        0x00DEAD0000 + rng.randrange(0, 1 << 16),  # dangling, unmapped
        rodata_start,
        0,
        0x1_0000_0001,
        rng.getrandbits(32),
    )
    for i, value in enumerate(locals_values):
        put(stack_pointer + i * 8, value)

    # -- assemble manifest and maps -------------------------------------------
    app = "/opt/victim/app"
    region_rows = [
        # (start, length, perms, blob, maps perms, offset, dev, inode, label)
        (code_start, code_len, "rxu", code, "r-xp", 0, "08:01", 40001, app),
        (rodata_start, rodata_len, "ru", rodata, "r--p", code_len, "08:01", 40001, app),
        (data_start, data_len, "rwu", data, "rw-p", code_len + rodata_len, "08:01", 40001, app),
        (cave_start, cave_len, "rwu", b"", "rw-p", 0, "00:00", 0, ""),
        (heap_start, heap_len, "rwu", heap, "rw-p", 0, "00:00", 0, "[heap]"),
        (guard_start, page, "", b"", "---p", 0, "00:00", 0, ""),
        (stack_base, stack_len, "rwu", stack, "rw-p", 0, "00:00", 0, "[stack]"),
        (USER_TOP, page, "rx", b"", "r-xp", 0, "00:00", 0, "[vsyscall]"),
    ]

    manifest_regions = []
    blobs = []  # the blobs whose hex replaces the "\0" placeholders, in order
    maps_lines = []
    for start, length, perms, blob, maps_perms, offset, dev, inode, label in region_rows:
        entry = {
            "start": f"{start:#x}",
            "len": f"{length:#x}",
            "perms": perms,
            "label": label or "anon",
        }
        if blob != bytes(len(blob)):  # an all-zero region loads zero-filled
            entry["data"] = "\0"
            blobs.append(blob)
        manifest_regions.append(entry)
        line = f"{start:x}-{start + length:x} {maps_perms} {offset:08x} {dev} {inode}"
        if label:
            line += f"  {label}"
        maps_lines.append(line)

    manifest = {
        "regions": manifest_regions,
        "seeds": {
            "return_site": f"{return_site:#x}",
            "stack_pointer": f"{stack_pointer:#x}",
        },
    }

    truth = VictimTruth(
        regions={
            "code": (code_start, code_len, "rxu"),
            "rodata": (rodata_start, rodata_len, "ru"),
            "data": (data_start, data_len, "rwu"),
            "cave": (cave_start, cave_len, "rwu"),
            "heap": (heap_start, heap_len, "rwu"),
            "guard": (guard_start, page, ""),
            "stack": (stack_base, stack_len, "rwu"),
        },
        gadget_plants=plants,
        return_site=return_site,
        stack_pointer=stack_pointer,
        victim_slot=slot_inner,
        saved_rbp=slot_mid,
        saved_rip=saved_rip,
        canary_addr=slot_inner - 8,
        canary_value=canary_value,
        cave_start=cave_start,
        cave_len=cave_len,
        stack_region=(stack_base, stack_top),
    )
    # json writes "\0" as \u0000, which no label, perms or address spells
    head, *tails = json.dumps(manifest, indent=2).split("\\u0000")
    parts = [head]
    for blob, tail in zip(blobs, tails):
        parts += (blob.hex(), tail)
    parts.append("\n")
    return VictimImage(
        manifest_text="".join(parts),
        maps_text="\n".join(maps_lines) + "\n",
        truth=truth,
    )
