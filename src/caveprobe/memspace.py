"""Page-granular model of a 64-bit virtual address space.

The model keeps a sparse dictionary of 4 KB pages, each carrying its own
permission bits and backing bytes.  No page changes once built: a write or
a change of permissions puts a new page in the old one's place, so any
space may share any page.  Every all-zero page of a loaded manifest is the
one ``_ZERO_PAGE``, and every other page keeps the bytes its hex decoded
to, page by page, as the manifest file streams past one chunk at a time.
The scan keeps every byte outside the blobs as a skeleton, and a literal
is a blob when the skeleton shows it after a "data" literal and one ":";
an invalid file's whole text is parsed once, by json alone.  A shift moves
a space as a relocating loader moves an image to a new base, into a copy
that shares the Page objects of its source: it re-keys them, and builds
new pages only for those a relocation table names, which one pass over
every page builds once per source.
Addresses are 48-bit canonical: the low half [0, 2**47) belongs to user
mappings, the high half [2**47, 2**48) is reserved for kernel mappings,
which may be loaded for realism but are never user accessible.
"""

from __future__ import annotations

import binascii
import io
import json
import re
import struct
from array import array
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from typing import BinaryIO, NamedTuple

PAGE_SIZE = 4096
USER_TOP = 1 << 47
ADDR_TOP = 1 << 48
# pages one manifest may map in all: each is a Page object on load, and a
# page holding data is its bytes as well.  Past the pages, a load holds one
# chunk of the file (_CHUNK) and the skeleton, every byte but the blobs,
# which are the literals it shows after a "data" literal and one ":"; the
# whole text only for a file that cannot seek, or one json parses alone,
# once, such as an invalid file
MAX_MANIFEST_PAGES = 1 << 16

_ZERO_PAGE = bytes(PAGE_SIZE)
_ZERO_HEX = b"0" * (2 * PAGE_SIZE)  # one page's hex digits, all zero
_CHUNK = 1 << 16  # the most a manifest scan reads at a time
_BLANK = b" \t\n\r"  # JSON's whitespace
_WORDS = PAGE_SIZE // 8
_WORD = struct.Struct("<Q")
# bytes.translate tables: a zero byte becomes 1 and any other byte 0, and
# the reverse
_IS_ZERO = bytes([1]) + bytes(255)
_IS_NONZERO = bytes([0]) + bytes([1]) * 255


class MemoryFault(Exception):
    """Raised when a native read/write touches memory it must not touch.

    ``addr`` names the first failing byte.  ``kind`` is "unmapped" when no
    page is there, "perm" when its permission bits forbid the access, and
    "unprobed" when ``explorer.PageMap`` stores no accessible verdict for it.
    """

    def __init__(self, addr: int, kind: str = "unmapped"):
        super().__init__(f"memory fault at {addr:#x} ({kind})")
        self.addr = addr
        self.kind = kind


class ManifestError(ValueError):
    """Malformed or semantically invalid image manifest."""


class MapsParseError(ValueError):
    """Unparseable line in a maps-format ground truth file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class PagePermissions:
    """Permission bits for one page.  Writable pages are always readable."""

    readable: bool = False
    writable: bool = False
    executable: bool = False
    user_accessible: bool = False

    def __post_init__(self) -> None:
        if self.writable and not self.readable:
            raise ValueError("writable pages must be readable")

    @classmethod
    def from_rwxu(cls, spec: str) -> "PagePermissions":
        """Build from a subset of the letters 'rwxu', e.g. "rwu"."""
        seen = set()
        for ch in spec:
            if ch not in "rwxu":
                raise ValueError(f"unknown permission letter {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate permission letter {ch!r}")
            seen.add(ch)
        return cls(
            readable="r" in seen,
            writable="w" in seen,
            executable="x" in seen,
            user_accessible="u" in seen,
        )


@dataclass(slots=True, eq=False)
class Page:
    """One 4 KB page: permission bits plus one page of bytes.  Neither
    changes once the Page is built, so its bytes may be shared with other
    pages and the Page itself with other spaces
    (:meth:`AddressSpace.shifted`)."""

    perms: PagePermissions
    data: bytes | bytearray


class AddressSpace:
    """Sparse map of page base address to :class:`Page`.

    Any page may be in another space's map as well, so
    :meth:`write_bytes` and :meth:`set_protection` put a new Page in the
    place of each page they change, and ``dict(space.pages)`` is a
    snapshot of the space."""

    def __init__(self) -> None:
        self.pages: dict[int, Page] = {}

    @staticmethod
    def page_base(addr: int) -> int:
        return addr & ~(PAGE_SIZE - 1)

    def get_page(self, addr: int) -> Page | None:
        return self.pages.get(addr & ~(PAGE_SIZE - 1))

    def map_region(
        self,
        start: int,
        length: int,
        perms: PagePermissions,
        data: bytes | tuple[bytes, ...] = b"",
    ) -> None:
        """Map ``length`` bytes at ``start``; pages beyond ``data`` are zero.

        ``data`` is bytes, or the pages :func:`parse_manifest` decodes, each
        a full page but the last, which is padded with zeros.  A page's
        bytes are kept, not copied, and an all-zero page is ``_ZERO_PAGE``.
        The region must be page aligned, lie inside canonical space, not
        cross the user/kernel boundary, and not overlap existing pages.
        Kernel-half regions cannot be user accessible.
        """
        if start % PAGE_SIZE or length % PAGE_SIZE:
            raise ValueError("region bounds must be page aligned")
        if length <= 0:
            raise ValueError("region length must be positive")
        end = start + length
        if start < 0 or end > ADDR_TOP:
            raise ValueError("region outside canonical address space")
        if start < USER_TOP < end:
            raise ValueError("region crosses the user/kernel boundary")
        if start >= USER_TOP and perms.user_accessible:
            raise ValueError("kernel-half pages cannot be user accessible")
        if type(data) is not tuple:
            data = tuple(bytes(data[k : k + PAGE_SIZE]) for k in range(0, len(data), PAGE_SIZE))
        bases = range(start, end, PAGE_SIZE)
        if len(data) > len(bases):
            raise ValueError("content blob longer than region")
        for base in bases:
            if base in self.pages:
                raise ValueError(f"page {base:#x} already mapped")
        if data and len(data[-1]) < PAGE_SIZE:
            data = (*data[:-1], data[-1].ljust(PAGE_SIZE, b"\0"))
        pages = {}
        for base, page in zip(bases, data):
            if len(page) != PAGE_SIZE:
                raise ValueError("page data must be exactly one page long")
            pages[base] = Page(perms, _ZERO_PAGE if page == _ZERO_PAGE else page)
        for base in bases[len(data):]:
            pages[base] = Page(perms, _ZERO_PAGE)
        self.pages.update(pages)

    def read_bytes(self, addr: int, count: int) -> bytes:
        """Native read.  Faults unless every touched page is mapped,
        readable, and user accessible.  A read of one whole page never
        written or relocated gives its bytes themselves, with nothing copied."""
        if count < 0:
            raise ValueError("negative read length")
        pages = self.pages
        parts = []
        pos = addr
        end = addr + count
        while pos < end:
            base = pos & ~(PAGE_SIZE - 1)
            page = pages.get(base)
            if page is None:
                raise MemoryFault(pos, "unmapped")
            p = page.perms
            if not (p.user_accessible and p.readable):
                raise MemoryFault(pos, "perm")
            if end - base <= PAGE_SIZE:
                parts.append(page.data[pos - base : end - base])
                break
            parts.append(page.data[pos - base :])
            pos = base + PAGE_SIZE
        return b"".join(parts)

    def zero_pages(self, start: int, end: int) -> bytes:
        """One byte per page of the page-aligned range [start, end), 1 where
        the page holds only zero bytes: a native read of each whole page,
        compared in place.  Faults as read_bytes does, at the first page it
        may not read."""
        pages = self.pages
        zero = bytearray()
        for base in range(start, end, PAGE_SIZE):
            page = pages.get(base)
            if page is None or not (page.perms.user_accessible and page.perms.readable):
                raise MemoryFault(base, "unmapped" if page is None else "perm")
            zero.append(page.data == _ZERO_PAGE)
        return bytes(zero)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Native write, all or nothing: permissions for the whole range are
        checked before any byte changes.  Each page written becomes a new
        Page, its bytes a copy with the write applied."""
        if not data:
            return
        pages = self.pages
        end = addr + len(data)
        bases = range(addr & ~(PAGE_SIZE - 1), end, PAGE_SIZE)
        for base in bases:
            page = pages.get(base)
            if page is None or not (page.perms.user_accessible and page.perms.writable):
                raise MemoryFault(max(addr, base), "unmapped" if page is None else "perm")
        for base in bases:
            lo, hi = max(addr, base), min(base + PAGE_SIZE, end)
            page = pages[base]
            new = bytearray(page.data)
            new[lo - base : hi - base] = data[lo - addr : hi - addr]
            pages[base] = Page(page.perms, new)

    def set_protection(self, start: int, length: int, perms: PagePermissions) -> int:
        """Replace the permissions of each page from the page-aligned
        ``start`` up to the first page of the ``length`` bytes that is not
        mapped in the user half, and return the bytes covered.  Each page
        becomes a new Page with the same bytes, but every all-zero page
        becomes one Page of ``_ZERO_PAGE``."""
        pages = self.pages
        end = min(start + length, USER_TOP)
        base, zero = start, None
        while base < end and (page := pages.get(base)) is not None:
            if page.data == _ZERO_PAGE:
                pages[base] = zero = zero or Page(perms, _ZERO_PAGE)
            else:
                pages[base] = Page(perms, page.data)
            base += PAGE_SIZE
        return base - start

    def layout(self) -> list[PageRun]:
        """The runs of adjacent user-half pages mapped now, each of kind
        None.  A shift reads nothing else of the page keys."""
        return page_runs(zip(sorted(b for b in self.pages if b < USER_TOP), repeat(None)))

    def relocations(self, layout: list[PageRun] | None = None) -> dict[int, array | None]:
        """The pages a shift of this space rewrites, by page base: the
        indices of the page's pointer words, or None for an all-zero page
        while page 0 is mapped, whose every word is zero and so a pointer.
        Every other page is left out, and a shift shares it.  Built by one
        pass over every page's bytes, the table holds for each shift until
        a page of this space changes.
        ``layout`` is ``self.layout()``.

        A pointer word is one a relocating loader fixes up in an image it
        moves: an aligned little-endian 8-byte word, in any page including
        kernel-half ones, whose value falls inside a user page of
        ``layout``.  Random data is effectively never touched, since hitting
        the mapped span by accident requires a 64-bit value to land in it.
        A page with no word whose two top bytes are both zero is skipped,
        since every candidate lies below 2**47.  On the pages left,
        :func:`lane_filter` builds a mask with one byte per word, from the
        page's eight byte lanes, that marks the words whose top bytes are
        zero and whose low bytes are not (zero words too while page 0 is
        mapped); only the marked words are read and matched against the
        runs.

        Two bytes an index, so a page's entry is at most a quarter of its
        own bytes, and the all-zero pages, which share their bytes, add
        none."""
        layout = self.layout() if layout is None else layout
        table: dict[int, array | None] = {}
        if not layout:
            return table
        for base, page in self.pages.items():
            data = page.data
            if data == _ZERO_PAGE:
                if not layout[0].start:
                    table[base] = None
            elif words := _pointer_words(data, layout):
                table[base] = words
        return table

    def shifted(self, offset: int, layout: list[PageRun] | None = None,
                relocations: dict[int, array | None] | None = None) -> "AddressSpace":
        """A copy of this space moved the way a relocating loader moves an
        image to a new base: every user-half page up by ``offset``, and the offset
        added to each pointer word into them (:meth:`relocations`).
        Kernel-half pages stay in place, like the fixed hardware-dictated
        mappings real base randomization never moves.  The offset must be
        page aligned and must not push any page past the user-half top;
        otherwise ValueError is raised.

        The copy holds this space's Page objects at their shifted bases, and
        new, relocated ones only for the pages ``relocations`` names.  The
        all-zero pages relocated while page 0 is mapped share one page of
        bytes, every word the offset.  A shift by 0 is ``dict(self.pages)``
        and reads no page.

        ``layout`` is ``self.layout()`` and ``relocations`` is
        ``self.relocations(layout)``: a caller that shifts one space many
        times, and changes none of its pages, need build each only once."""
        if offset % PAGE_SIZE or offset < 0:
            raise ValueError("offset must be a non-negative page multiple")
        out = AddressSpace()
        pages = self.pages
        if not offset:
            out.pages = dict(pages)
            return out
        layout = self.layout() if layout is None else layout
        if layout and layout[-1].end + offset > USER_TOP:
            raise ValueError("shift pushes a page past the user half")
        if relocations is None:
            relocations = self.relocations(layout)
        moved = {base + offset if base < USER_TOP else base: page
                 for base, page in pages.items()}
        zero = None  # an all-zero page relocated
        for base, words in relocations.items():
            page = pages[base]
            if words is None:
                data = zero = zero or _WORD.pack(offset) * _WORDS
            else:
                data = _add_offset(page.data, words, offset)
            moved[base + offset if base < USER_TOP else base] = Page(page.perms, data)
        out.pages = moved
        return out


def lane_filter(data: bytes | bytearray, *, zero: bool = False) -> bytes:
    """One byte per aligned little-endian word of the page ``data``: 1 where
    the word's two top bytes are zero and its value is not (or, with
    ``zero``, may be), 0 elsewhere; empty when no word's top bytes are zero.

    A marked word is below 2**48, so every pointer into the user half is
    marked.  Byte lane k, data[k::8], holds byte k of every word, so each
    lane as one integer lets a few C-level operations test all 512 words at
    once.  Random code and heap pages seldom hold a word with zero top
    bytes, and that first test builds no per-word objects."""
    top = int.from_bytes(data[6::8], "little") | int.from_bytes(data[7::8], "little")
    top = top.to_bytes(_WORDS, "little")
    if 0 not in top:
        return b""
    marks = int.from_bytes(top.translate(_IS_ZERO), "little")
    if not zero:
        low = 0
        for k in range(6):
            low |= int.from_bytes(data[k::8], "little")
        low = low.to_bytes(_WORDS, "little").translate(_IS_NONZERO)
        marks &= int.from_bytes(low, "little")
    return marks.to_bytes(_WORDS, "little")


def _pointer_words(data: bytes | bytearray, layout: list[PageRun]) -> array:
    """The indices of the aligned little-endian words of the page ``data``
    that lie in one of the runs of user pages ``layout``, the words a shift
    relocates: of the words ``lane_filter`` marks, zero words too when the
    first run starts at page 0, those the runs hold."""
    marks = lane_filter(data, zero=not layout[0].start)
    words = array("H")
    i = marks.find(1)
    while i >= 0:
        w = _WORD.unpack_from(data, 8 * i)[0]
        k = bisect_right(layout, (w, ADDR_TOP)) - 1  # the run holding w, if any
        if k >= 0 and w < layout[k].end:
            words.append(i)
        i = marks.find(1, i + 1)
    return words


def _add_offset(data: bytes | bytearray, words: array, offset: int) -> bytearray:
    """A copy of the page ``data`` with ``offset`` added to each aligned
    little-endian word whose index is in ``words``."""
    out = bytearray(data)
    for i in words:
        _WORD.pack_into(out, 8 * i, _WORD.unpack_from(out, 8 * i)[0] + offset)
    return out


class PageRun(NamedTuple):
    """Pages ``[start, end)``, adjacent, that share one ``kind``."""

    start: int
    end: int
    kind: object


def page_runs(pages: Iterable[tuple[int, object]]) -> list[PageRun]:
    """Maximal runs of adjacent pages with equal keys, from ``(base, key)``
    pairs in ascending base order, as the runs come: the one rule by which
    the map, the mismatch lines and the caves are coalesced."""
    runs = []
    start = end = key = None
    for base, k in pages:
        if base == end and k == key:
            end += PAGE_SIZE
        else:
            if end is not None:
                runs.append(PageRun(start, end, key))
            start, end, key = base, base + PAGE_SIZE, k
    if end is not None:
        runs.append(PageRun(start, end, key))
    return runs


# --- image manifests -------------------------------------------------------

# what int(text, 16) also takes, and a manifest must not: "_", a sign,
# whitespace and digits past ASCII
_HEX = re.compile(r"(?:0[xX])?[0-9a-fA-F]+")


def parse_hex(value, what: str) -> int:
    """A manifest address or length: a JSON integer, or ASCII hex digits
    with an optional ``0x`` or ``0X``."""
    if type(value) is int:  # not bool: JSON true/false are ints to isinstance
        return value
    if isinstance(value, str) and _HEX.fullmatch(value):
        return int(value, 16)
    raise ManifestError(f"{what} is not a hex string")


def _clip(value: str) -> str:
    """``ascii(value)`` cut to its first 80 characters plus ``...``: an echo
    for a one-line message, at most 83 bytes whatever the value holds."""
    shown = ascii(value)
    return shown if len(shown) <= 80 else shown[:80] + "..."


def _decode_pages(pages: list, part: bytes | bytearray, buf: bytes | bytearray,
                  lo: int, hi: int, last: bool) -> bytes | bytearray:
    """Append to ``pages`` each whole page that the hex digits ``part``,
    then ``buf[lo:hi]``, spell, and return the digits left over, fewer than
    a page; or, if the literal ends at ``hi`` (``last``), append them as a
    short last page.  A page of ``0`` digits is ``_ZERO_PAGE``, with
    nothing decoded, and each other page is one ``unhexlify`` of the digits
    in place.  Raises binascii.Error on a page that is not hex."""
    if part:
        k = min(hi, lo + len(_ZERO_HEX) - len(part))
        part, lo = part + buf[lo:k], k
        if len(part) < len(_ZERO_HEX) and not last:
            return part
        pages.append(_ZERO_PAGE if part == _ZERO_HEX else binascii.unhexlify(part))
    view = memoryview(buf)
    end = hi - (hi - lo) % len(_ZERO_HEX)
    for pos in range(lo, end, len(_ZERO_HEX)):
        pages.append(_ZERO_PAGE if buf.startswith(_ZERO_HEX, pos)
                     else binascii.unhexlify(view[pos : pos + len(_ZERO_HEX)]))
    if not last:
        return buf[end:hi]
    if end < hi:
        pages.append(binascii.unhexlify(view[end:hi]))
    return b""


def _hex_pages(digits: bytes) -> tuple[bytes, ...] | None:
    """The pages the hex literal ``digits`` spells, decoded as
    :func:`_decode_pages` decodes them; None when any page is not hex or
    the length is odd, so the literal stays text."""
    pages: list[bytes] = []
    try:
        _decode_pages(pages, b"", digits, 0, len(digits), True)
    except binascii.Error:
        return None
    return tuple(pages)


def _scan(source: BinaryIO) -> tuple[bytearray, dict] | None:
    """Split the manifest file ``source``, which can seek, into a skeleton
    and the blobs decoded from it, reading one chunk of at most ``_CHUNK``
    bytes, and never more than the file's size, at a time into one buffer.

    Every byte outside a blob goes into the skeleton as it is read.  A
    literal is a blob when the skeleton from the end of a literal that
    spells "data" to its own quote is one ":" and JSON whitespace, so only
    ``key``, an index into the skeleton, and whether a literal is open
    cross a chunk's end.  A blob's digits are decoded by
    :func:`_decode_pages` straight from the chunks they lie in, and a
    placeholder, the text its pages are keyed by, stands in the skeleton
    for them.  The scan holds the pages, the skeleton and one chunk.

    Without a backslash in the file every quote delimits a string literal,
    so the literals pair up by ``find`` alone.  A placeholder is a
    ``\\u0000`` escape and a number, which no literal of a backslash-free
    file can spell.  Hex digits are never a quote, a backslash, a control
    character or a byte that is not UTF-8, so taking them out hides no
    fault of the file.  None when the file holds a backslash or leaves a
    literal open, and binascii.Error when a "data" literal is not hex: the
    caller then parses the whole text instead.
    """
    size = source.seek(0, io.SEEK_END)
    source.seek(0)
    buf = bytearray(min(_CHUNK, size) or _CHUNK)
    skeleton = bytearray()
    blobs: dict[str, tuple[bytes, ...]] = {}
    pages: list[bytes] | None = None  # the open blob's pages, while one is open
    part = b""  # the open blob's digits past its last whole page
    opened = False  # whether a literal is open
    key = -1  # the skeleton's length after the last literal if it spelled "data", else -1
    while n := source.readinto(buf):
        if n < len(buf):  # the end of the file, or a source that reads less
            del buf[n:]
        if b"\\" in buf:
            return None
        pos = 0  # buf[:pos] is in the skeleton or a blob
        while True:
            if not opened:
                lo = buf.find(b'"', pos) + 1
                skeleton += memoryview(buf)[pos : lo or n]
                if not lo:
                    break
                opened, pos = True, lo
                if key >= 0 and skeleton[key:-1].strip(_BLANK) == b":":
                    skeleton += b"\\u0000%d" % len(blobs)
                    pages = []
            hi = buf.find(b'"', pos)
            if pages is None:
                skeleton += memoryview(buf)[pos : hi + 1 or n]
            else:
                part = _decode_pages(pages, part, buf, pos, n if hi < 0 else hi, hi >= 0)
            if hi < 0:
                break
            if pages is not None:
                blobs[f"\0{len(blobs)}"] = tuple(pages)
                skeleton += b'"'
            # no literal holds a quote, so one six bytes back opened this one
            key = len(skeleton) if skeleton.endswith(b'"data"') else -1
            opened, pos, pages = False, hi + 1, None
    return None if opened else (skeleton, blobs)


def parse_manifest(source: BinaryIO | bytes) -> dict:
    """Parse the manifest file read from the binary file ``source``, or
    given as bytes, as JSON and check the document's top-level shape.

    Each "data" member whose value is a hex string comes back as the tuple
    of pages :func:`_decode_pages` decodes; every other value is what
    ``json.loads`` gives.  :func:`_scan` reads the file a chunk at a time
    into a skeleton, and decodes as a blob each literal that the skeleton
    shows follows a "data" literal and one ":", so the JSON scanner never
    walks a blob and the whole text is never held.  A file with a
    backslash, a "data" literal that is not hex, or a fault that ``json``
    or UTF-8 finds is parsed from its whole text once, by ``json`` alone;
    each hex "data" string is decoded by the same decoder once it parsed:
    the same document, or the message and offset of the file's first
    fault.  A source that cannot seek is read whole first.  Bytes that are
    not UTF-8 raise UnicodeDecodeError at the offset of the first bad byte.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif not source.seekable():
        source = io.BytesIO(source.read())
    try:
        scanned = _scan(source)
    except binascii.Error:  # a "data" literal that is not hex
        scanned = None
    blobs: dict[str, tuple[bytes, ...]] = {}
    noted: list[dict] = []  # each object whose "data" is a string

    def note(obj: dict) -> dict:
        if type(obj.get("data")) is str:
            noted.append(obj)
        return obj

    if scanned is not None:
        skeleton, blobs = scanned
        try:
            doc = json.loads(skeleton.decode(), object_hook=note)
        except (ValueError, RecursionError):
            # the skeleton's offsets are not the file's: parse the file
            scanned, blobs, noted = None, {}, []
    if scanned is None:
        source.seek(0)
        text = source.read().decode()
        try:
            doc = json.loads(text, object_hook=note)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"not valid JSON: {exc}") from None
        except ValueError:
            # the int() of a too-long integer literal; its text names the
            # limit differently from one Python version to the next
            raise ManifestError("not valid JSON: an integer has too many digits") from None
        except RecursionError:
            raise ManifestError("not valid JSON: nested too deeply") from None
    for obj in noted:  # decoded only once the whole text has parsed
        value = obj["data"]
        if value in blobs:  # a membership test: an empty blob is falsy
            obj["data"] = blobs[value]
        elif value.isascii() and (pages := _hex_pages(value.encode())) is not None:
            obj["data"] = pages
    if not isinstance(doc, dict) or not isinstance(doc.get("regions"), list):
        raise ManifestError('manifest must be an object with a "regions" list')
    return doc


def load_manifest(doc: dict) -> AddressSpace:
    """Build an address space from the manifest document that
    :func:`parse_manifest` returned, so a caller that reads side-band keys
    parses once.

    The manifest is ``{"regions": [...]}`` where each region gives page
    aligned "start" and "len" hex strings, a "perms" string drawn from
    "rwxu", an optional "label", and optional content as "data", the pages
    :func:`parse_manifest` decodes from a hex string.  Regions without
    content are zero filled; a region that names a "file" or an "offset"
    is refused, since its bytes would otherwise load as zeroes.  Unknown
    top-level keys are ignored so callers may carry side-band data in the
    same document.  The regions may map no more than ``MAX_MANIFEST_PAGES``
    pages in all.
    """
    space = AddressSpace()
    pages = 0
    for i, region in enumerate(doc["regions"]):
        where = f"region {i}"
        if not isinstance(region, dict):
            raise ManifestError(f"{where}: not an object")
        if "file" in region or "offset" in region:
            raise ManifestError(
                f'{where}: "file" and "offset" are not supported; '
                'give the bytes as hex "data"'
            )
        start = parse_hex(region.get("start"), f"{where} start")
        length = parse_hex(region.get("len"), f"{where} len")
        # checked before any page of the region is built
        pages += length // PAGE_SIZE
        if pages > MAX_MANIFEST_PAGES:
            raise ManifestError(
                f"{where}: len takes the image past {MAX_MANIFEST_PAGES} pages"
            )
        perms_field = region.get("perms", "")
        if not isinstance(perms_field, str):
            raise ManifestError(f"{where}: perms must be a string")
        try:
            perms = PagePermissions.from_rwxu(perms_field)
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from None

        blob = region.get("data", ())
        if type(blob) is not tuple:
            raise ManifestError(f"{where}: data is not a hex blob")
        try:
            space.map_region(start, length, perms, blob)
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from None
    return space


# --- /proc/<pid>/maps ground truth -----------------------------------------

# start-end perms offset dev inode, then an optional path; only the bounds,
# 64-bit values as the kernel writes them, and the permission letters are kept
_MAPS_LINE = re.compile(
    r"^([0-9a-fA-F]{1,16})-([0-9a-fA-F]{1,16})\s+([r-][w-][x-])[ps]\s+"
    r"[0-9a-fA-F]+\s+\S+\s+\d+\s*.*$"
)


@dataclass(frozen=True)
class GroundTruthMap:
    """Parsed maps file: sorted, non-overlapping regions, each a run of
    the :class:`PagePermissions` its line gives."""

    regions: tuple[PageRun, ...]

    def shifted(self, offset: int) -> "GroundTruthMap":
        """Move user-half regions up by ``offset``; kernel lines stay put."""
        if offset % PAGE_SIZE or offset < 0:
            raise ValueError("offset must be a non-negative page multiple")
        moved = [
            PageRun(r.start + offset, r.end + offset, r.kind)
            if r.start < USER_TOP else r
            for r in self.regions
        ]
        return GroundTruthMap(tuple(sorted(moved, key=lambda r: r.start)))


def parse_proc_maps(text: str) -> GroundTruthMap:
    """Parse maps-format text: ``start-end perms offset dev inode [path]``.

    Permission fields use the usual rwx letters plus p/s for private versus
    shared.  User accessibility is inferred from the address half.  Every
    field is checked, though only bounds and permissions are kept.
    """
    numbered: list[tuple[int, int, PageRun]] = []  # (start, line, region)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        m = _MAPS_LINE.match(line)
        if m is None:
            raise MapsParseError(line_no, f"unparseable maps line: {_clip(raw)}")
        start = int(m.group(1), 16)
        end = int(m.group(2), 16)
        if end <= start:
            raise MapsParseError(line_no, "region end precedes start")
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise MapsParseError(line_no, "region bounds not page aligned")
        field = m.group(3)
        # Linux prints -w- for a PROT_WRITE mapping, which the MMU lets read
        perms = PagePermissions(
            readable=field[0] == "r" or field[1] == "w",
            writable=field[1] == "w",
            executable=field[2] == "x",
            user_accessible=start < USER_TOP,
        )
        numbered.append((start, line_no, PageRun(start, end, perms)))
    numbered.sort()
    for (_, _, a), (_, line_no, b) in zip(numbered, numbered[1:]):
        if b.start < a.end:
            raise MapsParseError(line_no, f"regions {a.start:#x} and {b.start:#x} overlap")
    return GroundTruthMap(tuple(region for _, _, region in numbered))
