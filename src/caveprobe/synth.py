"""Synthetic victim images for tests, experiments, and the bundled demo.

An image models a paused host process: a code region with usable gadget
sites, read-only data, writable data holding a few live pointers, a run of
zero pages (the cave-to-be), a junk-filled heap, a guard page, and a stack
carrying a frame-pointer chain with canaries.  A ``VictimSpec`` gives its
shape and is checked before anything is drawn.  One layout table holds each
region's start, length and perms, and the manifest, the maps text and the
ground truth all come from it.  The builder returns both the loadable
manifest and a ground-truth description, plus every planted address so
tests can check probe results against reality.

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
_APP = ("code", "rodata", "data")  # the executable's segments, in file order
_LABELS = {"heap": "[heap]", "stack": "[stack]", "vsyscall": "[vsyscall]"}

Region = tuple[int, int, str]  # (start, len, perms)


@dataclass(frozen=True)
class VictimSpec:
    """The shape of one victim image.

    ``omit_gadgets`` suppresses planting the named gadget kinds, which is
    how tests produce images where chain construction must fail.  Unknown
    kinds, page counts below 1, or an image past ``MAX_MANIFEST_PAGES``
    pages raise ValueError on construction, before anything is drawn or
    allocated.
    """

    code_pages: int = 4
    cave_pages: int = 4
    stack_pages: int = 4
    omit_gadgets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if unknown := [name for name in self.omit_gadgets if name not in GADGETS]:
            raise ValueError(f"unknown gadget kinds: {', '.join(unknown)}")
        for name in ("code_pages", "cave_pages", "stack_pages"):
            if (count := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, not {count}")
        # rodata, data and heap take two pages each, the guard and vsyscall one
        if self.code_pages + self.cave_pages + self.stack_pages + 8 > MAX_MANIFEST_PAGES:
            raise ValueError(f"the image would map more than the loader's "
                             f"{MAX_MANIFEST_PAGES} pages")


@dataclass(frozen=True)
class VictimTruth:
    """Everything the builder knows that a probing attacker must discover."""

    regions: dict[str, Region]  # the layout table, without vsyscall
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


def build_victim_image(seed: int, **fields) -> VictimImage:
    """Deterministically build one victim image from ``seed`` and the
    ``VictimSpec`` that ``fields`` make; a bad spec raises ValueError."""
    spec = VictimSpec(**fields)
    rng = random.Random(seed)
    regions = _layout(rng, spec)
    code, plants = _code(rng, spec, regions["code"][0])
    return_site = _code_addr(rng, regions)
    blobs, frame = _fill(rng, regions)
    cave_start, cave_len, _ = regions["cave"]
    truth = VictimTruth(regions=regions, gadget_plants=plants, return_site=return_site,
                        cave_start=cave_start, cave_len=cave_len, **frame)
    return VictimImage(*_texts(truth, {"code": code, **blobs}), truth=truth)


def _layout(rng: random.Random, spec: VictimSpec) -> dict[str, Region]:
    """The low cluster (code, rodata, data, cave, heap) a random gap apart,
    then the stack high up with a guard page right below it."""
    regions: dict[str, Region] = {}
    start = 0x00400000 + rng.randint(0, 64) * PAGE_SIZE
    for name, pages, perms in (("code", spec.code_pages, "rxu"), ("rodata", 2, "ru"),
                               ("data", 2, "rwu"), ("cave", spec.cave_pages, "rwu"),
                               ("heap", 2, "rwu")):
        if regions:
            start += rng.randint(1, 32) * PAGE_SIZE
        regions[name] = (start, pages * PAGE_SIZE, perms)
        start += pages * PAGE_SIZE
    stack_base = 0x7F0000000000 + rng.randint(0, 4096) * PAGE_SIZE
    regions["guard"] = (stack_base - PAGE_SIZE, PAGE_SIZE, "")
    regions["stack"] = (stack_base, spec.stack_pages * PAGE_SIZE, "rwu")
    return regions


def _code(rng: random.Random, spec: VictimSpec,
          code_start: int) -> tuple[bytearray, dict[str, int]]:
    """Random code with each kind not omitted planted once in its first
    page, and each plant's address."""
    code = bytearray(rng.randbytes(spec.code_pages * PAGE_SIZE))
    plants: dict[str, int] = {}
    taken: list[tuple[int, int]] = []
    for name, pattern in GADGETS.items():
        if name in spec.omit_gadgets:
            continue
        if name == "syscall":
            pattern = pattern + b"\xc3"  # must fall through into a ret
        while True:
            off = rng.randrange(0, PAGE_SIZE - len(pattern))
            if all(off + len(pattern) <= lo or off >= hi for lo, hi in taken):
                break
        taken.append((off, off + len(pattern)))
        code[off : off + len(pattern)] = pattern
        plants[name] = code_start + off
    _scrub_hanging_syscalls(code)
    return code, plants


def _scrub_hanging_syscalls(code: bytearray) -> None:
    """Rewrite any syscall byte pair not followed by a ret; see module doc."""
    pos = code.find(b"\x0f\x05")
    while pos != -1:
        if pos + 2 >= len(code) or code[pos + 2] != 0xC3:
            code[pos] = 0x90
        pos = code.find(b"\x0f\x05", pos + 1)


def _code_addr(rng: random.Random, regions: dict[str, Region]) -> int:
    """A plausible return site: anywhere in the first three code pages."""
    start, length, _ = regions["code"]
    return start + rng.randrange(0, min(3 * PAGE_SIZE, length))


def _fill(rng: random.Random,
          regions: dict[str, Region]) -> tuple[dict[str, bytes], dict]:
    """The rodata, data, heap and stack bytes by region name, and the
    stack's truth fields."""
    rodata_start, rodata_len, _ = regions["rodata"]
    data_start, data_len, _ = regions["data"]
    cave_start = regions["cave"][0]
    stack_base, stack_len, _ = regions["stack"]
    stack_top = stack_base + stack_len

    # read-only data: printable bytes can never form a usable pattern
    blobs = {"rodata": bytes(rng.choice(_PRINTABLE) for _ in range(64)) * (rodata_len // 64)}

    # writable data: live pointers for the harvest to find
    data = blobs["data"] = bytearray(rng.randbytes(data_len))
    for i, value in enumerate((cave_start, _code_addr(rng, regions), rodata_start + 0x40)):
        data[i * 8 : i * 8 + 8] = value.to_bytes(8, "little")

    # heap: junk, definitely not zero
    heap = blobs["heap"] = bytearray(rng.randbytes(regions["heap"][1]))
    for off in range(0, len(heap), PAGE_SIZE):
        heap[off] |= 0x01

    # stack: three frames with canaries, then scratch locals
    stack = blobs["stack"] = bytearray(stack_len)

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
    put(slot_main + 8, _code_addr(rng, regions))
    put(slot_mid, slot_main)
    put(slot_mid + 8, _code_addr(rng, regions))
    put(slot_mid - 8, fresh_canary())
    saved_rip = _code_addr(rng, regions)
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
    return blobs, dict(stack_pointer=stack_pointer, victim_slot=slot_inner, saved_rbp=slot_mid,
                       saved_rip=saved_rip, canary_addr=slot_inner - 8,
                       canary_value=canary_value, stack_region=(stack_base, stack_top))


def _texts(truth: VictimTruth, blobs: dict[str, bytes]) -> tuple[str, str]:
    """The manifest and maps text, one entry and one line per region of the
    truth's table and the vsyscall page; an all-zero region gets no ``data``."""
    entries = []
    hexed = []  # the blobs whose hex replaces the "\0" placeholders, in order
    maps_lines = []
    offset = 0  # into the executable's file, summed over its segments
    for name, (start, length, perms) in {**truth.regions,
                                         "vsyscall": (USER_TOP, PAGE_SIZE, "rx")}.items():
        if name in _APP:
            label, file_id = "/opt/victim/app", f"{offset:08x} 08:01 40001"
            offset += length
        else:
            label, file_id = _LABELS.get(name, ""), "00000000 00:00 0"
        entry = {"start": f"{start:#x}", "len": f"{length:#x}", "perms": perms,
                 "label": label or "anon"}
        blob = blobs.get(name, b"")
        if blob != bytes(len(blob)):  # an all-zero region loads zero-filled
            entry["data"] = "\0"
            hexed.append(blob)
        entries.append(entry)
        mode = "".join(bit if bit in perms else "-" for bit in "rwx") + "p"
        maps_lines.append(f"{start:x}-{start + length:x} {mode} {file_id}"
                          + (f"  {label}" if label else ""))

    seeds = {name: f"{getattr(truth, name):#x}" for name in ("return_site", "stack_pointer")}
    manifest = {"regions": entries, "seeds": seeds}
    # json writes "\0" as \u0000, which no label, perms or address spells
    head, *tails = json.dumps(manifest, indent=2).split("\\u0000")
    parts = [head]
    for blob, tail in zip(hexed, tails):
        parts += (blob.hex(), tail)
    parts.append("\n")
    return "".join(parts), "\n".join(maps_lines) + "\n"
