import binascii
import io
import json
import random
import signal
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from caveprobe import machine, memspace
from caveprobe.memspace import (
    _ZERO_PAGE,
    ADDR_TOP,
    PAGE_SIZE,
    USER_TOP,
    AddressSpace,
    ManifestError,
    MapsParseError,
    MemoryFault,
    Page,
    PagePermissions,
    load_manifest,
    page_runs,
    parse_hex,
    parse_manifest,
    parse_proc_maps,
)
from caveprobe.probe import NO_ACCESS, Writability
from caveprobe.synth import build_victim_image
from helpers import (
    is_mapped, make_space, page_bytes, read_image, settled_store, space_digest,
)


class TestPagePermissions:
    def test_writable_implies_readable(self):
        with pytest.raises(ValueError):
            PagePermissions(readable=False, writable=True)

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            PagePermissions.from_rwxu("rz")

    def test_rejects_duplicate_letter(self):
        with pytest.raises(ValueError):
            PagePermissions.from_rwxu("rr")

    def test_write_only_spec_rejected(self):
        with pytest.raises(ValueError):
            PagePermissions.from_rwxu("wu")


class TestMapRegion:
    def test_blob_placement_and_zero_fill(self):
        space = make_space((0x1000, 2 * PAGE_SIZE, "rwu", b"\xab" * 10))
        assert space.read_bytes(0x1000, 10) == b"\xab" * 10
        assert space.read_bytes(0x100A, 2 * PAGE_SIZE - 10) == bytes(2 * PAGE_SIZE - 10)

    def test_rejects_unaligned(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_region(0x1001, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        with pytest.raises(ValueError):
            space.map_region(0x1000, 100, PagePermissions.from_rwxu("ru"))

    def test_rejects_overlap(self):
        space = make_space((0x1000, PAGE_SIZE, "ru", b""))
        with pytest.raises(ValueError):
            space.map_region(0x1000, PAGE_SIZE, PagePermissions.from_rwxu("ru"))

    def test_rejects_boundary_crossing(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_region(
                USER_TOP - PAGE_SIZE, 2 * PAGE_SIZE, PagePermissions.from_rwxu("r")
            )

    def test_rejects_user_accessible_kernel_half(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_region(USER_TOP, PAGE_SIZE, PagePermissions.from_rwxu("ru"))

    def test_kernel_half_without_user_bit_is_fine(self):
        space = AddressSpace()
        space.map_region(USER_TOP, PAGE_SIZE, PagePermissions.from_rwxu("rx"))
        assert is_mapped(space, USER_TOP)

    def test_rejects_past_canonical_top(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_region(ADDR_TOP, PAGE_SIZE, PagePermissions.from_rwxu("r"))

    def test_pages_of_the_wrong_length_are_refused(self):
        # only the last page of a blob may be short, and a refused region
        # maps no page
        perms = PagePermissions.from_rwxu("ru")
        for pages in ((bytes(PAGE_SIZE + 1),), (b"\1", bytes(PAGE_SIZE))):
            space = AddressSpace()
            with pytest.raises(ValueError, match="exactly one page long"):
                space.map_region(0x1000, 2 * PAGE_SIZE, perms, pages)
            assert space.pages == {}
        space = make_space((0x1000, PAGE_SIZE, "ru", (b"\1",)))
        assert space.read_bytes(0x1000, PAGE_SIZE) == b"\1".ljust(PAGE_SIZE, b"\0")

    def test_blob_longer_than_region_rejected(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_region(
                0x1000, PAGE_SIZE, PagePermissions.from_rwxu("ru"),
                bytes(PAGE_SIZE + 1),
            )


@given(
    regions=st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 5 * PAGE_SIZE),
                  st.sampled_from(["zero", "random", "zero-first-page"])),
        min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    shift=st.integers(0, 8),
)
def test_every_page_is_one_page_long(regions, seed, shift):
    # loaded from a manifest, and shifted: each page is exactly PAGE_SIZE
    # bytes, holds its blob then zeros, and a blob longer than its region
    # is refused
    rng = random.Random(seed)
    doc, blobs, start = [], {}, 0x10000
    for pages, size, fill in regions:
        blob = bytes(size) if fill == "zero" else rng.randbytes(size)
        if fill == "zero-first-page":
            blob = bytes(min(size, PAGE_SIZE)) + blob[PAGE_SIZE:]
        doc.append({"start": hex(start), "len": hex(pages * PAGE_SIZE),
                    "perms": "rwu", "data": blob.hex()})
        blobs[start] = blob.ljust(pages * PAGE_SIZE, b"\0")
        start += (pages + 1) * PAGE_SIZE
    raw = json.dumps({"regions": doc}).encode()
    if any(size > pages * PAGE_SIZE for pages, size, _ in regions):
        with pytest.raises(ManifestError, match="content blob longer than region"):
            load_manifest(parse_manifest(raw))
        return
    space = load_manifest(parse_manifest(raw))
    for lo, blob in blobs.items():
        assert space.read_bytes(lo, len(blob)) == blob
    moved = space.shifted(shift * PAGE_SIZE)
    for each in (space, moved):
        assert {len(page.data) for page in each.pages.values()} == {PAGE_SIZE}
        assert all(page.data is _ZERO_PAGE
                   for page in each.pages.values() if page.data == _ZERO_PAGE)


class TestReadWrite:
    def test_cross_page_read(self):
        data = bytes(range(256)) * 32  # exactly two pages
        space = make_space((0x4000, 2 * PAGE_SIZE, "rwu", data))
        got = space.read_bytes(0x4000 + PAGE_SIZE - 8, 16)
        assert got == data[PAGE_SIZE - 8 : PAGE_SIZE + 8]

    def test_unmapped_fault_kind(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault) as exc:
            space.read_bytes(0x5000, 1)
        assert exc.value.kind == "unmapped"
        assert exc.value.addr == 0x5000
        # an empty write touches no page, so it cannot fault
        space.write_bytes(0x5000, b"")
        assert space.pages == {}

    def test_perm_fault_kind(self):
        space = make_space((0x5000, PAGE_SIZE, "ru", b""))
        with pytest.raises(MemoryFault) as exc:
            space.write_bytes(0x5000, b"x")
        assert exc.value.kind == "perm"

    def test_fault_names_first_failing_byte(self):
        space = make_space((0x5000, PAGE_SIZE, "ru", b""))
        with pytest.raises(MemoryFault) as exc:
            space.read_bytes(0x5FF0, 0x20)
        assert exc.value.addr == 0x6000

    def test_kernel_page_never_user_readable(self):
        space = make_space((USER_TOP, PAGE_SIZE, "r", b""))
        with pytest.raises(MemoryFault) as exc:
            space.read_bytes(USER_TOP, 8)
        assert exc.value.kind == "perm"

    def test_write_is_all_or_nothing(self):
        space = make_space(
            (0x5000, PAGE_SIZE, "rwu", b""),
            (0x6000, PAGE_SIZE, "ru", b""),
        )
        before = space.read_bytes(0x5000, PAGE_SIZE)
        with pytest.raises(MemoryFault):
            space.write_bytes(0x5FF8, b"A" * 16)
        assert space.read_bytes(0x5000, PAGE_SIZE) == before

    def test_zero_page_test_reads_as_read_bytes_does(self):
        space = make_space(
            (0x5000, PAGE_SIZE, "rwu", b""),
            (0x6000, PAGE_SIZE, "rwu", b"\0" * (PAGE_SIZE - 1) + b"\1"),
            (0x7000, PAGE_SIZE, "", b""),
        )
        assert space.zero_pages(0x5000, 0x6000) == b"\1"
        assert space.zero_pages(0x6000, 0x7000) == b"\0"
        assert space.zero_pages(0x5000, 0x7000) == b"\1\0"
        assert space.zero_pages(0x5000, 0x5000) == b""
        # a range faults at the first page it may not read
        for start, base, kind in ((0x7000, 0x7000, "perm"), (0x8000, 0x8000, "unmapped"),
                                  (0x5000, 0x7000, "perm")):
            with pytest.raises(MemoryFault) as exc:
                space.zero_pages(start, 0x9000)
            assert (exc.value.addr, exc.value.kind) == (base, kind)
        # the store's guarded test answers alike for the pages it stores
        # accessible, and refuses the page stored inaccessible and the page
        # it lacks before any access
        pm = settled_store(space)
        assert pm.entries[0x7000] is NO_ACCESS and 0x8000 not in pm.entries
        assert pm.zero_pages(0x5000, 0x6000) == b"\1"
        assert pm.zero_pages(0x6000, 0x7000) == b"\0"
        assert pm.zero_pages(0x5000, 0x7000) == b"\1\0"
        for start, base in ((0x7000, 0x7000), (0x8000, 0x8000), (0x5000, 0x7000)):
            with pytest.raises(MemoryFault) as exc:
                pm.zero_pages(start, 0x9000)
            assert (exc.value.addr, exc.value.kind) == (base, "unprobed")

    def test_zero_length_read(self):
        assert AddressSpace().read_bytes(0x1234, 0) == b""

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().read_bytes(0x1000, -1)


class TestSetProtection:
    def test_replaces_permissions(self):
        space = make_space((0x7000, 2 * PAGE_SIZE, "ru", b""))
        space.set_protection(0x7000, 2 * PAGE_SIZE, PagePermissions.from_rwxu("rwxu"))
        space.write_bytes(0x7000, b"ok")
        assert space.read_bytes(0x7000, 2) == b"ok"

    def test_unaligned_rejected(self):
        # no page starts at an unaligned address, so the walk covers nothing
        space = make_space((0x7000, PAGE_SIZE, "ru", b""))
        before = space_digest(space)
        assert space.set_protection(0x7001, PAGE_SIZE, PagePermissions.from_rwxu("rwu")) == 0
        assert space_digest(space) == before

    def test_a_hole_stops_the_walk(self):
        # the page before the hole changes, and the one after it does not
        space = make_space((0x7000, PAGE_SIZE, "ru", b""), (0x9000, PAGE_SIZE, "ru", b""))
        rw = PagePermissions.from_rwxu("rwu")
        assert space.set_protection(0x7000, 3 * PAGE_SIZE, rw) == PAGE_SIZE
        assert space.get_page(0x7000).perms == rw
        assert space.get_page(0x8000) is None
        assert space.get_page(0x9000).perms == PagePermissions.from_rwxu("ru")

    def test_all_zero_pages_share_one_page(self):
        # an owned all-zero page joins them; a page holding data keeps its
        # own Page; a write then changes its one page only
        space = make_space((0x7000, 4 * PAGE_SIZE, "ru", bytes(2 * PAGE_SIZE) + b"\1"))
        space.pages[0x8000] = Page(space.pages[0x8000].perms, bytearray(PAGE_SIZE))
        data = space.pages[0x9000].data
        space.set_protection(0x7000, 4 * PAGE_SIZE, PagePermissions.from_rwxu("rwu"))
        zero = space.pages[0x7000]
        assert zero.data is _ZERO_PAGE and zero.perms == PagePermissions.from_rwxu("rwu")
        assert space.pages[0x8000] is zero and space.pages[0xA000] is zero
        assert space.pages[0x9000] is not zero and space.pages[0x9000].data is data
        space.write_bytes(0x8000, b"ok")
        assert space.read_bytes(0x8000, 2) == b"ok"
        assert space.pages[0x7000] is zero and space.pages[0xA000] is zero
        assert zero.data is _ZERO_PAGE


class TestContentHash:
    def test_sensitive_to_data_and_perms(self):
        space = make_space((0x8000, PAGE_SIZE, "rwu", b""))
        h0 = space_digest(space)
        space.write_bytes(0x8000, b"\x01")
        h1 = space_digest(space)
        space.set_protection(0x8000, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        h2 = space_digest(space)
        assert len({h0, h1, h2}) == 3

    def test_stable_without_changes(self):
        space = make_space((0x8000, PAGE_SIZE, "ru", b"abc"))
        assert space_digest(space) == space_digest(space)


def reference_read(space: AddressSpace, addr: int, count: int):
    """Outcome of a read by a per-byte rule: the bytes, or the ValueError
    type, or the (address, kind) of the first byte that may not be read."""
    if count < 0:
        return ValueError
    out = bytearray()
    for pos in range(addr, addr + count):
        page = space.pages.get(pos - pos % PAGE_SIZE)
        if page is None:
            return (pos, "unmapped")
        if not (page.perms.user_accessible and page.perms.readable):
            return (pos, "perm")
        out.append(page.data[pos % PAGE_SIZE])
    return bytes(out)


def read_outcome(space: AddressSpace, addr: int, count: int):
    try:
        return space.read_bytes(addr, count)
    except ValueError:
        return ValueError
    except MemoryFault as exc:
        return (exc.addr, exc.kind)


# readable, kernel-only, user-but-unreadable, a hole, then readable again
READ_LAYOUT = (
    (0x4000, 2 * PAGE_SIZE, "rxu", bytes(range(256)) * 32),
    (0x6000, PAGE_SIZE, "r", b"\x11" * PAGE_SIZE),
    (0x7000, PAGE_SIZE, "u", b""),
    (0x9000, PAGE_SIZE, "rwu", b"\x22" * PAGE_SIZE),
)


class TestReadOutcomes:
    @pytest.mark.parametrize("addr, count", [
        (0x4010, 0x20),                      # inside one page
        (0x4000, PAGE_SIZE),                 # a whole page
        (0x5000 - 8, 16),                    # straddles two readable pages
        (0x5000 - 8, 2 * PAGE_SIZE),         # runs into the kernel-only page
        (0x6010, 8),                         # kernel-only page: perm
        (0x7010, 8),                         # user page without r: perm
        (0x8010, 8),                         # the hole: unmapped
        (0x9FF8, 16),                        # runs off the last page
        (0x9000, 0),                         # zero length
        (0x8000, 0),                         # zero length in the hole
        (0x4000, -1),                        # negative length
        (0x8000, -5),                        # negative length in the hole
    ])
    def test_matches_per_byte_reference(self, addr, count):
        space = make_space(*READ_LAYOUT)
        assert read_outcome(space, addr, count) == reference_read(space, addr, count)

    @given(
        addr=st.integers(0x3000, 0xA000),
        count=st.integers(-2, 3 * PAGE_SIZE),
    )
    def test_any_range_matches_per_byte_reference(self, addr, count):
        space = make_space(*READ_LAYOUT)
        assert read_outcome(space, addr, count) == reference_read(space, addr, count)

    def test_result_is_a_copy(self):
        space = make_space(*READ_LAYOUT)
        one, two = space.read_bytes(0x9010, 8), space.read_bytes(0x4FF8, 16)
        space.write_bytes(0x9010, b"\x33" * 8)
        assert type(one) is bytes and one == b"\x22" * 8
        assert type(two) is bytes


class TestShifted:
    def test_moves_pages_and_shares_those_it_does_not_relocate(self):
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", (0x8010).to_bytes(8, "little")),
            (0x9000, PAGE_SIZE, "ru", b"hi"),
            (USER_TOP, PAGE_SIZE, "rx", b""),
        )
        page = space.get_page(0x9000)
        moved = space.shifted(0x10000)
        assert moved.get_page(0x19000) is page  # moved, not copied
        assert not is_mapped(moved, 0x8000)
        assert is_mapped(moved, USER_TOP)
        assert moved.read_bytes(0x18000, 8) == (0x18010).to_bytes(8, "little")

    def test_a_shift_by_0_shares_every_page_whatever_the_table(self):
        # zero words are pointers while page 0 is mapped, but nothing moves
        space = make_space(
            (0, PAGE_SIZE, "rwu", b""),
            (0x8000, PAGE_SIZE, "rwu", (0x8010).to_bytes(8, "little")),
            (USER_TOP, PAGE_SIZE, "rx", b""),
        )
        table = space.relocations()
        assert set(table) == {0, 0x8000, USER_TOP}
        moved = space.shifted(0, None, table)
        assert moved.pages == space.pages and moved.pages is not space.pages

    def test_moves_user_pages_only(self):
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", b"hi"),
            (USER_TOP, PAGE_SIZE, "rx", b""),
        )
        moved = space.shifted(0x10000)
        assert is_mapped(moved, 0x18000)
        assert not is_mapped(moved, 0x8000)
        assert is_mapped(moved, USER_TOP)
        assert moved.read_bytes(0x18000, 2) == b"hi"

    def test_is_a_deep_copy(self):
        space = make_space((0x8000, PAGE_SIZE, "rwu", b""))
        moved = space.shifted(PAGE_SIZE)
        moved.write_bytes(0x9000, b"x")
        assert space.read_bytes(0x8000, 1) == b"\x00"

    def test_rejects_unaligned_or_negative(self):
        for space in (AddressSpace(), make_space((0x8000, PAGE_SIZE, "rwu", b""))):
            digest = space_digest(space)
            for offset in (8, -PAGE_SIZE):
                with pytest.raises(ValueError):
                    space.shifted(offset)
            assert space_digest(space) == digest

    def test_rejects_overflow_past_user_top(self):
        space = make_space((USER_TOP - PAGE_SIZE, PAGE_SIZE, "r", b""))
        with pytest.raises(ValueError):
            space.shifted(PAGE_SIZE)
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", (0x8010).to_bytes(8, "little")),
            (USER_TOP - PAGE_SIZE, PAGE_SIZE, "ru", b""),
            (USER_TOP, PAGE_SIZE, "r", (0x8010).to_bytes(8, "little")),
        )
        before = dict(space.pages)
        digest = space_digest(space)
        with pytest.raises(ValueError):
            space.shifted(PAGE_SIZE)
        assert space.pages == before
        assert all(space.pages[b] is p for b, p in before.items())
        assert space_digest(space) == digest

    def test_relocates_stored_pointers(self):
        ptr = (0x8000).to_bytes(8, "little") + (0xDEAD0000).to_bytes(8, "little")
        space = make_space((0x8000, PAGE_SIZE, "rwu", ptr))
        moved = space.shifted(0x10000)
        words = moved.read_bytes(0x18000, 16)
        # a pointer into the old mapping is rebased; a dangling value is not
        assert int.from_bytes(words[:8], "little") == 0x18000
        assert int.from_bytes(words[8:], "little") == 0xDEAD0000

    def test_unaligned_pointer_bytes_not_rewritten(self):
        blob = b"\x01" + (0x8000).to_bytes(8, "little") + bytes(7)
        space = make_space((0x8000, PAGE_SIZE, "rwu", blob))
        moved = space.shifted(0x10000)
        assert moved.read_bytes(0x18000, 16) == blob

    def test_written_after_the_shift_stays_as_written(self):
        space = make_space((0x8000, PAGE_SIZE, "rwu", words_page(0x8010, 0x8020)))
        moved = space.shifted(0x10000)
        # a word into the page's loaded place, written into the relocated
        # copy, is left as written
        moved.write_bytes(0x18008, (0x8030).to_bytes(8, "little"))
        assert moved.read_bytes(0x18000, 16) == b"".join(
            w.to_bytes(8, "little") for w in (0x18010, 0x8030))

    def test_two_shifts_compose(self):
        # 0x18010 points nowhere at load and into the page after the first
        # shift, so the second moves both words
        space = make_space((0x8000, PAGE_SIZE, "rwu", words_page(0x8010, 0x18010)))
        want = space_digest(reference_shifted(reference_shifted(space, 0x10000), 0x20000))
        moved = space.shifted(0x10000).shifted(0x20000)
        assert moved.read_bytes(0x38000, 16) == (0x38010).to_bytes(8, "little") * 2
        assert space_digest(moved) == want

    def test_shifts_compose_once_page_0_is_mapped(self):
        # zero becomes a pointer, so the second shift relocates every page
        space = make_space((0x8000, PAGE_SIZE, "rwu", (0x8010).to_bytes(8, "little")))
        space = space.shifted(0x10000)
        space.map_region(0, PAGE_SIZE, PagePermissions.from_rwxu("rwu"))
        space = space.shifted(0x100000)
        assert space.read_bytes(0x118000, 8) == (0x118010).to_bytes(8, "little")

    def test_pages_compare_by_identity(self):
        # two pages of equal bytes are not equal
        space = make_space((0x8000, 2 * PAGE_SIZE, "rwu", words_page(0x8010) * 2))
        moved = space.shifted(0x10000)
        first, second = moved.pages[0x18000], moved.pages[0x19000]
        assert first != second
        assert first == first
        assert first.data == second.data == words_page(0x18010)


# --- relocation against an independent reference ----------------------------

def reference_shifted(space: AddressSpace, offset: int) -> AddressSpace:
    """``space.shifted(offset)`` built eagerly, page by page, by the
    original per-word rule: every aligned little-endian word, in every
    page, whose page number was an old user page moves by ``offset``."""
    old_bases = {b for b in space.pages if b < USER_TOP}
    out = AddressSpace()
    for base, page in space.pages.items():
        data = bytearray(page.data)
        if offset:
            for off in range(0, PAGE_SIZE, 8):
                value = int.from_bytes(data[off : off + 8], "little")
                if value & ~(PAGE_SIZE - 1) in old_bases:
                    data[off : off + 8] = (value + offset).to_bytes(8, "little")
        moved = base + offset if base < USER_TOP else base
        out.map_region(moved, PAGE_SIZE, page.perms, bytes(data))
    return out


def reference_shift(space: AddressSpace, offset: int) -> str:
    """space_digest of ``space.shifted(offset)`` by the per-word rule."""
    return space_digest(reference_shifted(space, offset))


def words_page(*words: int, fill: int = 0) -> bytes:
    """One page holding ``words`` at its start, then ``fill``."""
    rest = [fill] * (PAGE_SIZE // 8 - len(words))
    return b"".join(w.to_bytes(8, "little") for w in (*words, *rest))


def assert_matches_reference(space: AddressSpace, offset: int) -> None:
    assert space_digest(space.shifted(offset)) == reference_shift(space, offset)


KERNEL = USER_TOP + 0x10000
RANDOM_HIGH = 0x9C3F_71A2_55E0_1B47  # above 2**63, like random code bytes


class TestRelocationReference:
    def test_page_zero_mapped_moves_zero_words(self):
        space = make_space(
            (0, PAGE_SIZE, "rwu", b""),
            (0x5000, PAGE_SIZE, "rwu", words_page(0, 0x5008)),
        )
        assert_matches_reference(space, 0x3000)
        moved = space.shifted(0x3000)
        assert moved.read_bytes(0x3000, 8) == (0x3000).to_bytes(8, "little")

    def test_pointer_to_last_byte_of_highest_page(self):
        last = 0x9000 + PAGE_SIZE - 1
        space = make_space(
            (0x8000, 2 * PAGE_SIZE, "rwu", words_page(last, fill=RANDOM_HIGH)),
        )
        assert_matches_reference(space, 0x10000)

    def test_value_equal_to_span_end_stays(self):
        hi = 0x8000 + 2 * PAGE_SIZE
        space = make_space((0x8000, 2 * PAGE_SIZE, "rwu", words_page(hi, 0x8000)))
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        assert moved.read_bytes(0x18000, 8) == hi.to_bytes(8, "little")

    def test_value_in_gap_between_regions_stays(self):
        gap = 0xA010
        space = make_space(
            (0x8000, 2 * PAGE_SIZE, "rwu", words_page(gap, 0xC018)),
            (0xC000, PAGE_SIZE, "ru", b""),
        )
        assert_matches_reference(space, 0x20000)
        moved = space.shifted(0x20000)
        assert moved.read_bytes(0x28000, 8) == gap.to_bytes(8, "little")

    def test_kernel_pages_holding_user_pointers(self):
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", b""),
            (KERNEL, PAGE_SIZE, "r", words_page(0x8123, 0x8FF8, RANDOM_HIGH)),
        )
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        assert moved.get_page(KERNEL).data[:8] == (0x18123).to_bytes(8, "little")

    def test_all_zero_pages(self):
        space = make_space((0x8000, 4 * PAGE_SIZE, "rwu", b""))
        assert_matches_reference(space, 0x10000)

    def test_values_at_or_above_user_top(self):
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", words_page(
                USER_TOP, USER_TOP + 0x8000, (1 << 63) + 0x8000, (1 << 64) - 1, 0x8000,
            )),
            (KERNEL, PAGE_SIZE, "r", words_page(USER_TOP, KERNEL)),
        )
        assert_matches_reference(space, 0x10000)

    # The relocation marks candidate words through a mask built from the
    # page's eight byte lanes; each case below puts a word where one lane or
    # one end of that mask decides it.

    def test_pointer_whose_only_nonzero_low_byte_is_byte_5(self):
        far = 1 << 40  # bytes 00 00 00 00 00 01 00 00
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", words_page(far, fill=RANDOM_HIGH)),
            (far, PAGE_SIZE, "ru", b""),
        )
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        assert moved.read_bytes(0x18000, 8) == (far + 0x10000).to_bytes(8, "little")

    def test_zero_top_word_into_a_gap_stays(self):
        gap = 0x9800
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", words_page(RANDOM_HIGH, gap, 0xA010, fill=RANDOM_HIGH)),
            (0xA000, PAGE_SIZE, "ru", b""),
        )
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        assert moved.read_bytes(0x18008, 16) == b"".join(
            w.to_bytes(8, "little") for w in (gap, 0x1A010)
        )

    @pytest.mark.parametrize("page_zero", [True, False], ids=["page-0-mapped", "page-0-unmapped"])
    def test_zero_words(self, page_zero):
        regions = [(0x8000, PAGE_SIZE, "rwu", words_page(0, 0x8010, 0, fill=RANDOM_HIGH))]
        if page_zero:
            regions.append((0, PAGE_SIZE, "ru", b""))
        space = make_space(*regions)
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        zero = 0x10000 if page_zero else 0
        assert moved.read_bytes(0x18000, 24) == b"".join(
            w.to_bytes(8, "little") for w in (zero, 0x18010, zero)
        )

    def test_pointers_in_first_and_last_slot(self):
        words = [RANDOM_HIGH] * (PAGE_SIZE // 8)
        words[0], words[-1] = 0x8008, 0x8FF8
        space = make_space((0x8000, PAGE_SIZE, "rwu", words_page(*words)))
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        assert moved.read_bytes(0x18000, 8) == (0x18008).to_bytes(8, "little")
        assert moved.read_bytes(0x18FF8, 8) == (0x18FF8).to_bytes(8, "little")

    def test_distinct_words_with_three_pointers(self):
        # like a data page: 512 distinct words, most of them small integers
        # or random values, and three pointers
        rng = random.Random(9)
        words = rng.sample(range(1, 1 << 12), 256) + [
            rng.getrandbits(64) | 1 << 63 for _ in range(253)
        ]
        rng.shuffle(words)
        words[17:17] = [0x8040]
        words[300:300] = [0x9100]
        words[511:511] = [0x8FFF]
        assert len(set(words)) == PAGE_SIZE // 8
        space = make_space(
            (0x8000, PAGE_SIZE, "rwu", words_page(*words)),
            (0x9000, PAGE_SIZE, "ru", b""),
        )
        assert_matches_reference(space, 0x10000)
        moved = space.shifted(0x10000)
        data = moved.read_bytes(0x18000, PAGE_SIZE)
        got = [int.from_bytes(data[i : i + 8], "little") for i in range(0, PAGE_SIZE, 8)]
        changed = [(i, w, g) for i, (w, g) in enumerate(zip(words, got)) if w != g]
        assert changed == [
            (17, 0x8040, 0x18040), (300, 0x9100, 0x19100), (511, 0x8FFF, 0x18FFF),
        ]


@st.composite
def relocation_cases(draw):
    """A space with gapped user regions, optional kernel pages and page 0,
    filled with words drawn from the boundary values of its own layout."""
    first = draw(st.sampled_from([0, 1, 7, 1 << 20, USER_TOP // PAGE_SIZE - 32]))
    regions = []
    page = first
    for _ in range(draw(st.integers(1, 3))):
        pages = draw(st.integers(1, 3))
        regions.append((page, pages))
        page += pages + draw(st.integers(1, 3))  # leave a gap
    kernel = draw(st.lists(st.integers(0, 3), max_size=2, unique=True))
    bases = [(p + i) * PAGE_SIZE for p, n in regions for i in range(n)]
    lo, hi = min(bases), max(bases) + PAGE_SIZE
    pool = st.one_of(
        st.sampled_from([0, lo, hi - 1, hi, hi + PAGE_SIZE, USER_TOP, RANDOM_HIGH]),
        st.sampled_from(bases).flatmap(
            lambda b: st.integers(b, b + PAGE_SIZE - 1)),
        st.integers(lo, hi + PAGE_SIZE),  # pages and the gaps between them
        st.integers(USER_TOP, (1 << 64) - 1),
        st.integers(0, (1 << 64) - 1),
    )
    page_data = st.one_of(
        st.just(b""),
        st.lists(pool, max_size=6).map(lambda ws: words_page(*ws)),
        st.lists(pool, max_size=6).map(lambda ws: words_page(*ws, fill=RANDOM_HIGH)),
    )
    space = AddressSpace()
    for base in bases:
        space.map_region(base, PAGE_SIZE, PagePermissions.from_rwxu(
            draw(st.sampled_from(["rwu", "rxu", "ru", ""]))), draw(page_data))
    for k in kernel:
        space.map_region(KERNEL + k * PAGE_SIZE, PAGE_SIZE,
                         PagePermissions.from_rwxu("r"), draw(page_data))
    room = (USER_TOP - hi) // PAGE_SIZE
    offset = draw(st.one_of(st.integers(0, min(64, room)), st.integers(0, room))) * PAGE_SIZE
    return space, offset


@given(relocation_cases())
def test_relocation_matches_per_word_reference(case):
    space, offset = case
    assert_matches_reference(space, offset)


# --- a shifted copy under reads, writes and shifts ---------------------------

def outcome(call, *args):
    """What ``call(*args)`` gives, or the fault or refusal it raises."""
    try:
        return call(*args)
    except MemoryFault as exc:
        return ("fault", exc.addr, exc.kind)
    except ValueError as exc:
        return ("refused", str(exc))


def step_both(moved: AddressSpace, eager: AddressSpace, op, loaded: list[int]):
    """Run ``op`` on a shifted space and on its relocated reference, check
    that both give the same, and return both spaces after it.  ``loaded``
    holds the page bases the two were loaded at."""
    bases = sorted(eager.pages)
    assert sorted(moved.pages) == bases
    kind, i = op[0], op[1]
    base = bases[i % len(bases)]
    if kind == "shifted":
        offset = i * PAGE_SIZE
        top = max((b for b in bases if b < USER_TOP), default=-PAGE_SIZE)
        if top + offset + PAGE_SIZE > USER_TOP:
            with pytest.raises(ValueError):
                moved.shifted(offset)
            return moved, eager
        return moved.shifted(offset), reference_shifted(eager, offset)
    if kind == "read":
        got = [outcome(space.read_bytes, base + op[2], op[3]) for space in (moved, eager)]
    elif kind == "write":
        # into a writable page when there is one, so that a write often
        # lands on a page the shifted space shares with its source
        writable = [b for b in bases if eager.pages[b].perms.writable
                    and eager.pages[b].perms.user_accessible] or bases
        base = writable[i % len(writable)]
        _, _, slot, (layout, j, off) = op
        targets = {"now": bases, "loaded": loaded, "zero": [0]}[layout]
        word = (targets[j % len(targets)] + off).to_bytes(8, "little")
        got = [outcome(space.write_bytes, base + slot, word) for space in (moved, eager)]
    elif kind == "protect":
        perms = PagePermissions.from_rwxu(op[2])
        got = [outcome(space.set_protection, base, PAGE_SIZE, perms) for space in (moved, eager)]
    elif kind == "zero":
        got = [outcome(space.zero_pages, base, base + PAGE_SIZE) for space in (moved, eager)]
    else:
        got = [bytes(space.get_page(base).data) for space in (moved, eager)]
    assert got[0] == got[1], op
    return moved, eager


# a pointer-looking word: into a page where it is now, where it was
# loaded, or zero, a pointer while page 0 is mapped
POINTER_WRITE = st.tuples(
    st.just("write"), st.integers(0, 63),
    st.integers(0, PAGE_SIZE // 8 - 1).map(lambda k: 8 * k),
    st.tuples(st.sampled_from(["loaded", "loaded", "now", "zero"]), st.integers(0, 63),
              st.integers(0, PAGE_SIZE - 1)))
SHIFTED_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 63), st.integers(0, PAGE_SIZE - 1),
              st.integers(0, 2 * PAGE_SIZE)),
    POINTER_WRITE,
    POINTER_WRITE,  # twice, so that writes are common
    st.tuples(st.just("protect"), st.integers(0, 63), st.sampled_from(["rwu", "ru", "rxu", "r", ""])),
    st.tuples(st.just("zero"), st.integers(0, 63)),
    st.tuples(st.just("data"), st.integers(0, 63)),
    st.tuples(st.just("shifted"), st.integers(0, 64)),
), min_size=1, max_size=12)


@given(relocation_cases(), st.booleans(), SHIFTED_OPS)
def test_a_shifted_space_matches_the_eager_reference(case, page_zero, ops):
    # and its source, which shares its pages, stays as it was
    space, offset = case
    if page_zero and 0 not in space.pages:
        space.map_region(0, PAGE_SIZE, PagePermissions.from_rwxu("rwu"))
    loaded, digest = sorted(space.pages), space_digest(space)
    moved, eager = space.shifted(offset), reference_shifted(space, offset)
    for op in ops:
        moved, eager = step_both(moved, eager, op, loaded)
    assert space_digest(moved) == space_digest(eager)
    assert space_digest(space) == digest


# --- a shifted pair shares its pages, copy-on-write ---------------------------

SIDE_OPS = st.lists(st.tuples(
    st.sampled_from([0, 1]),  # the side: the source, or its shifted copy
    st.one_of(
        # odd bytes, so a write always changes an all-zero page
        st.tuples(st.just("write"), st.integers(0, 63), st.integers(0, PAGE_SIZE - 1),
                  st.binary(min_size=1, max_size=16).map(lambda b: bytes(x | 1 for x in b))),
        st.tuples(st.just("protect"), st.integers(0, 63),
                  st.sampled_from(["rwu", "ru", "rxu", "r", ""])),
        st.tuples(st.just("shift"), st.integers(0, 8)),
    )), max_size=12)


@given(relocation_cases(), st.booleans(), st.booleans(), SIDE_OPS)
def test_a_change_to_either_side_of_a_shifted_pair_leaves_the_other(
        case, page_zero, with_table, ops):
    space, offset = case
    if page_zero and 0 not in space.pages:
        space.map_region(0, PAGE_SIZE, PagePermissions.from_rwxu("rwu"))
    want = space_digest(reference_shifted(space, offset))
    moved = space.shifted(offset, None, space.relocations() if with_table else None)
    assert space_digest(moved) == want
    sides, digests = [space, moved], [space_digest(space), want]
    for side, op in ops:
        target = sides[side]
        bases = sorted(target.pages)
        base = bases[op[1] % len(bases)]
        if op[0] == "write":
            outcome(target.write_bytes, base + op[2], op[3])
        elif op[0] == "protect":
            outcome(target.set_protection, base, PAGE_SIZE, PagePermissions.from_rwxu(op[2]))
        elif isinstance(moved := outcome(target.shifted, op[1] * PAGE_SIZE), AddressSpace):
            sides[side] = target = moved  # the side is now its shifted copy
        assert space_digest(sides[1 - side]) == digests[1 - side], op
        digests[side] = space_digest(target)


def test_the_table_names_only_the_pages_a_shift_rewrites():
    # a written page, a bytearray page and an all-zero page, none holding
    # a pointer word, are shared; the pointer page comes out relocated
    space = make_space((0x8000, 4 * PAGE_SIZE, "rwu", b""))
    space.write_bytes(0x9000, b"\1")
    space.write_bytes(0xA000, (0x8010).to_bytes(8, "little"))
    space.pages[0xB000] = Page(space.pages[0xB000].perms, bytearray(PAGE_SIZE))
    table = space.relocations()
    assert table == {0xA000: array("H", [0])}
    moved = space.shifted(0x10000, None, table)
    for base in (0x8000, 0x9000, 0xB000):
        assert moved.pages[base + 0x10000] is space.pages[base]
    assert moved.pages[0x1A000] is not space.pages[0xA000]
    assert moved.read_bytes(0x1A000, 8) == (0x18010).to_bytes(8, "little")
    assert space.read_bytes(0xA000, 8) == (0x8010).to_bytes(8, "little")
    # a shift with a table reads no page it does not name: a page written
    # after the table was built is shared as it is
    space.write_bytes(0x8000, b"\1")
    assert space.shifted(0x10000, None, table).pages[0x18000] is space.pages[0x8000]


def test_shifted_shares_every_page_the_table_does_not_name():
    # page 0 is mapped, so the three all-zero pages relocate, to one page
    # of bytes every word of which is the offset
    space = make_space(
        (0, 3 * PAGE_SIZE, "rwu", b""),
        (0x8000, 2 * PAGE_SIZE, "rwu",
         words_page(0x8010, fill=RANDOM_HIGH) + words_page(fill=RANDOM_HIGH)),
    )
    table = space.relocations()
    assert table == {0: None, 0x1000: None, 0x2000: None, 0x8000: array("H", [0])}
    moved = space.shifted(0x10000, None, table)
    assert moved.pages[0x19000] is space.pages[0x9000]
    assert moved.pages[0x18000] is not space.pages[0x8000]
    assert moved.read_bytes(0x18000, 8) == (0x18010).to_bytes(8, "little")
    zero = moved.pages[0x10000].data
    assert zero == (0x10000).to_bytes(8, "little") * (PAGE_SIZE // 8)
    assert all(moved.pages[base].data is zero for base in (0x11000, 0x12000))
    assert type(zero) is bytes  # shared, so a write copies it first
    moved.write_bytes(0x11000, b"\1")
    assert moved.pages[0x12000].data is zero and moved.read_bytes(0x11000, 2) == b"\1\0"


# keys as the program passes them: verdicts, (probed, truth) pairs of
# verdicts, and one constant; few of each, so that equal keys often meet
_W, _RO = Writability.WRITABLE, Writability.READ_ONLY
RUN_KEYS = st.one_of(
    st.sampled_from([_W, _RO]),
    st.tuples(st.sampled_from([_W, _RO]), st.just(Writability.INACCESSIBLE)),
    st.none(),
)


class TestPageRuns:
    def test_adjacent_pages_merge(self):
        pairs = [(b, None) for b in (0x1000, 0x2000, 0x5000, 0x6000, 0x7000)]
        assert page_runs(pairs) == [(0x1000, 0x3000, None), (0x5000, 0x8000, None)]
        # adjacent pages merge only while their keys are equal
        pairs = [(0x1000, _RO), (0x2000, _RO), (0x3000, _W), (0x4000, (_W, _RO)),
                 (0x5000, (_W, _RO))]
        assert page_runs(pairs) == [
            (0x1000, 0x3000, _RO), (0x3000, 0x4000, _W), (0x4000, 0x6000, (_W, _RO))]

    @given(st.sets(st.integers(0, 63)))
    def test_runs_are_maximal_and_cover_exactly(self, pages):
        runs = page_runs((p * PAGE_SIZE, 0) for p in sorted(pages))
        covered = [b for lo, hi, _ in runs for b in range(lo, hi, PAGE_SIZE)]
        assert covered == sorted(p * PAGE_SIZE for p in pages)
        # a gap of at least one page separates consecutive runs
        assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))

    @given(st.lists(st.tuples(st.integers(1, 2), RUN_KEYS), max_size=48))
    def test_keyed_runs_match_a_per_page_reference(self, steps):
        # ascending bases, each one or two pages past the last, so some
        # pages touch and some have gaps between them; keys are drawn anew
        # for each page, so equal tuples are distinct objects
        pairs, base = [], 0
        for pages_on, key in steps:
            base += pages_on * PAGE_SIZE
            pairs.append((base, key))
        # a page starts a run unless the page just below it came last, with
        # an equal key; a run ends past the page before the next start
        starts = [i for i, (b, key) in enumerate(pairs)
                  if i == 0 or pairs[i - 1] != (b - PAGE_SIZE, key)]
        want = [(pairs[i][0], pairs[j - 1][0] + PAGE_SIZE, pairs[i][1])
                for i, j in zip(starts, starts[1:] + [len(pairs)])]
        assert page_runs(pairs) == want
        assert page_runs(iter(pairs)) == want


class TestParseHex:
    @pytest.mark.parametrize("value, want", [
        ("0x1000", 0x1000), ("0X1000", 0x1000), ("1000", 0x1000), ("aBc", 0xABC),
        (0x1000, 0x1000), (-1, -1),
    ])
    def test_accepts_ascii_hex_and_json_integers(self, value, want):
        assert parse_hex(value, "x") == want

    @pytest.mark.parametrize("value", [
        "", "0x", "0x0x1", "1_000", "\u0661", "\uff11", "1000\n", "0x10 ", "+1",
        "-1", "1.0", True, None, 1.0,
    ])
    def test_refuses_anything_else(self, value):
        with pytest.raises(ManifestError, match="^x is not a hex string$"):
            parse_hex(value, "x")


class TestManifest:
    def test_load_with_hex_data(self):
        text = json.dumps(
            {
                "regions": [
                    {"start": "0x1000", "len": "0x1000", "perms": "rwu",
                     "data": "deadbeef", "label": "blob"},
                    {"start": "0x3000", "len": "0x1000", "perms": ""},
                ]
            }
        )
        space = load_manifest(parse_manifest(text.encode()))
        assert space.read_bytes(0x1000, 4) == bytes.fromhex("deadbeef")
        assert is_mapped(space, 0x3000)
        with pytest.raises(MemoryFault):
            space.read_bytes(0x3000, 1)

    def test_load_with_file_blob(self, tmp_path):
        # refused rather than loaded zero-filled
        (tmp_path / "blob.bin").write_bytes(b"SKIPME" + b"\x11" * 32)
        text = json.dumps(
            {
                "regions": [
                    {"start": "0x1000", "len": "0x1000", "perms": "ru"},
                    {"start": "0x2000", "len": "0x1000", "perms": "ru",
                     "file": str(tmp_path / "blob.bin"), "offset": 6},
                ]
            }
        )
        with pytest.raises(ManifestError) as exc:
            load_manifest(parse_manifest(text.encode()))
        assert str(exc.value) == (
            'region 1: "file" and "offset" are not supported; '
            'give the bytes as hex "data"'
        )

    def test_unknown_top_level_keys_ignored(self):
        text = json.dumps({"regions": [], "seeds": {"x": 1}, "comment": "hi"})
        load_manifest(parse_manifest(text.encode()))

    def test_rejects_bad_json(self):
        with pytest.raises(ManifestError):
            parse_manifest(b"{nope")

    def test_rejects_missing_regions(self):
        with pytest.raises(ManifestError):
            parse_manifest(b"{}")

    def test_rejects_unaligned_region(self):
        text = json.dumps(
            {"regions": [{"start": "0x10", "len": "0x1000", "perms": "ru"}]}
        )
        with pytest.raises(ManifestError):
            load_manifest(parse_manifest(text.encode()))

    def test_rejects_bad_hex(self):
        text = json.dumps(
            {"regions": [{"start": "0x1000", "len": "0x1000", "perms": "ru",
                          "data": "zz"}]}
        )
        with pytest.raises(ManifestError):
            load_manifest(parse_manifest(text.encode()))

    @pytest.mark.parametrize(
        "data",
        ["abc", "de ad", "de\nad", "dead\t", "d\u00e9", "\u0663\u0663", 5, None, ["de"], True],
        ids=["odd-length", "space", "newline", "tab", "non-ascii", "non-ascii-digits",
             "integer", "null", "list", "boolean"],
    )
    def test_data_that_is_not_one_contiguous_hex_string_is_refused(self, data):
        # whitespace between hex bytes is refused too: a blob is one
        # contiguous hex string
        text = json.dumps({"regions": [
            {"start": "0x1000", "len": "0x1000", "perms": "ru", "data": "00"},
            {"start": "0x2000", "len": "0x1000", "perms": "ru", "data": data},
        ]})
        with pytest.raises(ManifestError) as exc:
            load_manifest(parse_manifest(text.encode()))
        assert str(exc.value) == "region 1: data is not a hex blob"

    def test_accepts_integer_addresses(self):
        text = json.dumps(
            {"regions": [{"start": 0x1000, "len": 0x1000, "perms": "ru"}]}
        )
        assert is_mapped(load_manifest(parse_manifest(text.encode())), 0x1000)

    def test_rejects_boolean_address(self):
        # json false is an int to isinstance; it must not map page 0
        text = json.dumps(
            {"regions": [{"start": False, "len": "0x1000", "perms": "ru"}]}
        )
        with pytest.raises(ManifestError, match="region 0 start"):
            load_manifest(parse_manifest(text.encode()))

    def test_rejects_boolean_offset(self):
        text = json.dumps(
            {"regions": [{"start": "0x1000", "len": "0x1000", "perms": "ru",
                          "offset": True}]}
        )
        with pytest.raises(ManifestError, match='^region 0: "file" and "offset"'):
            load_manifest(parse_manifest(text.encode()))

    def test_rejects_file_that_is_not_a_string(self):
        text = json.dumps(
            {"regions": [{"start": "0x1000", "len": "0x1000", "perms": "ru",
                          "file": 5}]}
        )
        with pytest.raises(ManifestError, match='^region 0: "file" and "offset"'):
            load_manifest(parse_manifest(text.encode()))

    def test_rejects_deep_nesting(self):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ManifestError, match="^not valid JSON: nested too deeply$"):
            parse_manifest(text.encode())

    def test_rejects_a_region_past_the_page_cap(self):
        # about 128 TB: refused from the lengths alone.  Mapping it would
        # walk 2**35 page bases before allocating any, so if the cap were
        # gone the alarm would end the walk after a second.
        text = json.dumps({"regions": [
            {"start": "0x1000", "len": "0x1000", "perms": "ru"},
            {"start": "0x2000", "len": "0x7fff00000000", "perms": "rwu"},
        ]})

        def too_slow(signum, frame):
            raise AssertionError("the manifest was not refused within a second")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ManifestError) as exc:
                load_manifest(parse_manifest(text.encode()))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert str(exc.value) == (
            "region 1: len takes the image past 65536 pages"
        )


def reference_pages(regions) -> dict[int, tuple[tuple[bool, ...], bytes]]:
    """What each region's pages must hold, one page at a time: zero fill,
    then copy the page's slice of the blob over it."""
    pages = {}
    for start, length, letters, blob in regions:
        flags = tuple(letter in letters for letter in "rwxu")
        for off in range(0, length, PAGE_SIZE):
            page = bytearray(PAGE_SIZE)
            part = blob[off : off + PAGE_SIZE]
            page[: len(part)] = part
            pages[start + off] = (flags, bytes(page))
    return pages


@st.composite
def blob_regions(draw):
    """Up to three regions of one to four pages.  Each blob is any length
    up to its region's, often one byte short of, at or past a page end,
    and comes as inline hex in either case.  Its pages are random, all
    zero, or each one either; a label past ASCII sends the file to the
    json-only parse."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    regions = []
    for i in range(draw(st.integers(1, 3))):
        npages = draw(st.integers(1, 4))
        length = npages * PAGE_SIZE
        if draw(st.booleans()):
            size = draw(st.integers(0, length))
        else:
            edge = draw(st.integers(0, npages)) * PAGE_SIZE
            size = min(max(edge + draw(st.sampled_from([-1, 0, 1])), 0), length)
        # regions at least a megabyte apart never touch
        region = {"start": hex((i + 1) << 20), "len": hex(length),
                  "perms": draw(st.sampled_from(["", "ru", "rwu", "rxu", "rwxu"])),
                  "label": draw(st.sampled_from(["a", "caf\u00e9"]))}
        zero = draw(st.sampled_from([0.0, 1.0, 0.5]))  # the share of zero pages
        blob = b"".join(
            bytes(n) if rng.random() < zero else rng.randbytes(n)
            for n in (min(PAGE_SIZE, size - k) for k in range(0, size, PAGE_SIZE)))
        region["data"] = blob.hex().upper() if draw(st.booleans()) else blob.hex()
        regions.append((region, blob))
    return regions


@given(blob_regions())
def test_load_matches_the_zero_fill_then_copy_reference(regions):
    text = json.dumps({"regions": [region for region, _ in regions]})
    space = load_manifest(parse_manifest(text.encode()))
    got = {
        base: ((p.readable, p.writable, p.executable, p.user_accessible), bytes(page.data))
        for base, page in space.pages.items()
        for p in [page.perms]
    }
    assert got == reference_pages(
        (int(r["start"], 16), int(r["len"], 16), r["perms"], blob) for r, blob in regions
    )
    assert all(page.data is _ZERO_PAGE
               for page in space.pages.values() if page.data == bytes(PAGE_SIZE))


# a literal the per-page decoder must refuse as a whole, whatever pages of
# it decode: the region's data stays text and the loader names it
BAD_BLOBS = {
    "odd-length": "0" * (6 * PAGE_SIZE) + "0",
    "odd-length-short": "abc",
    "bad-page-after-zero-pages": "0" * (6 * PAGE_SIZE) + "zz" + "0" * (2 * PAGE_SIZE - 2),
    "bad-short-page-after-zero-pages": "0" * (6 * PAGE_SIZE) + "0g",
}


@pytest.mark.parametrize("label", ["plain", "caf\\u00e9"], ids=["spliced", "json-only"])
@pytest.mark.parametrize("blob", BAD_BLOBS.values(), ids=BAD_BLOBS)
def test_a_literal_with_a_bad_page_is_not_a_hex_blob(blob, label):
    raw = ('{"regions": [{"start": "0x1000", "len": "0x4000", "perms": "rwu", '
           '"data": "00", "label": "%s"}, {"start": "0x10000", "len": "0x4000", '
           '"perms": "rwu", "data": "%s"}]}' % (label, blob)).encode()
    doc = parse_manifest(raw)
    assert doc["regions"][0]["data"] == (b"\0",)
    assert doc["regions"][1]["data"] == blob
    with pytest.raises(ManifestError, match=r"^region 1: data is not a hex blob$"):
        load_manifest(doc)


# --- shared pages, copied on the first write --------------------------------

DEMO = Path(__file__).resolve().parent.parent / "images" / "demo.json"


def zero_pages(space: AddressSpace) -> list[Page]:
    return [page for page in space.pages.values() if page.data == bytes(PAGE_SIZE)]


def test_read_image_shares_every_zero_page():
    space, _ = read_image(DEMO)
    assert len(zero_pages(space)) == 9
    assert all(page.data is _ZERO_PAGE for page in zero_pages(space))
    # and every other page keeps the bytes its hex decoded to
    assert all(type(page.data) is bytes for page in space.pages.values())


def test_a_written_page_stops_sharing():
    space, _ = read_image(DEMO)
    cave = 0x459000
    before = page_bytes(space)
    space.write_bytes(cave + PAGE_SIZE - 2, b"\x01\x02\x03")
    for base in (cave, cave + PAGE_SIZE):
        assert space.pages[base].data is not _ZERO_PAGE
        assert type(space.pages[base].data) is bytearray
    assert space.read_bytes(cave + PAGE_SIZE - 2, 3) == b"\x01\x02\x03"
    assert _ZERO_PAGE == bytes(PAGE_SIZE)
    assert len(zero_pages(space)) == 7
    assert all(page.data is _ZERO_PAGE for page in zero_pages(space))
    after = page_bytes(space)
    assert [b for b in before if before[b] != after[b]] == [cave, cave + PAGE_SIZE]


def test_shifted_copy_does_not_see_later_writes_to_its_source():
    source, _ = read_image(DEMO)
    source.write_bytes(0x462000, b"\xee" * 8)  # a page the source wrote
    copy = source.shifted(0)
    want = page_bytes(copy)
    # a shared zero page, a page with data, and the page already written
    source.write_bytes(0x459000, b"\xaa" * 8)
    source.write_bytes(0x453000, b"\xbb" * 8)
    source.write_bytes(0x462008, b"\xcc" * 8)
    assert page_bytes(copy) == want
    copy.write_bytes(0x462010, b"\xdd" * 8)
    assert source.read_bytes(0x462000, 24) == b"\xee" * 8 + b"\xcc" * 8 + want[0x462000][16:24]


def old_way_copy(space: AddressSpace) -> AddressSpace:
    """``space`` with every page a bytearray of its own, the way every page
    was built before pages were shared: the reference for the shared ones."""
    out = AddressSpace()
    out.pages = {base: Page(page.perms, bytearray(page.data))
                 for base, page in space.pages.items()}
    return out


SCRATCH_PERMS = PagePermissions.from_rwxu("rwxu")


def apply_op(space: AddressSpace, op) -> tuple[object, set[int]]:
    """Run ``op`` on ``space``; its outcome, and the pages it may write."""
    bases = sorted(space.pages)
    if op[0] == "protect":  # an mprotect, as the chain makes of the cave
        _, i, pages, letters = op
        return outcome(space.set_protection, bases[i % len(bases)], pages * PAGE_SIZE,
                       PagePermissions.from_rwxu(letters)), set()
    if op[0] == "write":
        _, i, off, data = op
        addr = bases[i % len(bases)] + off
        touched = {space.page_base(a) for a in (addr, addr + len(data) - 1)}
        try:
            space.write_bytes(addr, data)
        except MemoryFault as exc:
            return ("fault", exc.addr, exc.kind), touched
        return "ok", touched
    # a machine store: mov rax, addr; mov rcx, value; mov [rax], rcx, run
    # from the scratch page
    _, i, off, value = op
    addr = bases[i % len(bases)] + off
    scratch = next((b for b, page in space.pages.items() if page.perms == SCRATCH_PERMS), None)
    if scratch is None:  # protected away
        return "no scratch page", set()
    code = (machine.enc_mov_ri("rax", addr) + machine.enc_mov_ri("rcx", value)
            + machine.enc_store("rax", "rcx"))
    space.write_bytes(scratch, code)
    state = machine.MachineState(rip=scratch)
    for _ in range(3):
        machine.step(state, space)
    touched = {scratch} | {space.page_base(a) for a in (addr, addr + 7)}
    return (state.status, state.trap_reason, state.rip), touched


COW_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 63), st.integers(0, PAGE_SIZE - 1),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("store"), st.integers(0, 63), st.integers(0, PAGE_SIZE - 8),
              st.integers(0, 2**64 - 1)),
    st.tuples(st.just("shift"), st.integers(0, 1 << 20)),
    st.tuples(st.just("protect"), st.integers(0, 63), st.integers(1, 4),
              st.sampled_from(["rwu", "ru", "rxu", ""])),
), max_size=8)


@given(
    seed=st.integers(0, 2**16),
    sizes=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)),
    scratch=st.sampled_from([0, 0x10000]),  # page 0 mapped: zero words relocate
    ops=COW_OPS,
)
def test_shared_pages_match_the_copy_every_page_reference(seed, sizes, scratch, ops):
    code, cave, stack = sizes
    image = build_victim_image(seed, code_pages=code, cave_pages=cave, stack_pages=stack)
    doc = parse_manifest(image.manifest_text.encode())
    doc["regions"].append({"start": hex(scratch), "len": "0x1000", "perms": "rwxu"})
    # the run's space shares the kept image's pages, as the CLI's runs do
    kept = load_manifest(doc)
    built = {b: (p.perms, bytes(p.data)) for b, p in kept.pages.items()}
    space = kept.shifted(0)
    reference = old_way_copy(space)
    for op in ops:
        before = page_bytes(space)
        held = dict(space.pages)
        held_perms = {b: p.perms for b, p in held.items()}
        if op[0] == "shift":
            space = space.shifted(op[1] * PAGE_SIZE)
            reference = old_way_copy(reference_shifted(reference, op[1] * PAGE_SIZE))
        else:
            outcome, touched = apply_op(space, op)
            assert apply_op(reference, op)[0] == outcome
        after = page_bytes(space)
        assert after == page_bytes(reference)
        assert {b: p.perms for b, p in space.pages.items()} == {
            b: p.perms for b, p in reference.pages.items()}
        # no kernel-half page is user-accessible: the probes and instruction
        # fetch rely on it, and do not check the address again
        assert not any(p.perms.user_accessible for b, p in space.pages.items() if b >= USER_TOP)
        if op[0] != "shift":  # a write changes no page but its own
            assert {b for b in before if before[b] != after[b]} <= touched
        # no page changes once built, so dict(space.pages) was a snapshot
        assert {b: (p.perms, bytes(p.data)) for b, p in held.items()} == {
            b: (held_perms[b], before[b]) for b in held}
        assert _ZERO_PAGE == bytes(PAGE_SIZE)
    assert {b: (p.perms, bytes(p.data)) for b, p in kept.pages.items()} == built


# --- manifest parsing against one json.loads of the text ---------------------

def json_parse_manifest(text: str) -> dict:
    """The manifest parse by one ``json.loads`` of the whole text, with the
    messages parse_manifest gives."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"not valid JSON: {exc}") from None
    except ValueError:
        raise ManifestError("not valid JSON: an integer has too many digits") from None
    except RecursionError:
        raise ManifestError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("regions"), list):
        raise ManifestError('manifest must be an object with a "regions" list')
    return doc


def pages_of(blob: bytes) -> tuple[bytes, ...]:
    """``blob`` cut into pages, the last one short if the blob ends there."""
    return tuple(blob[k : k + PAGE_SIZE] for k in range(0, len(blob), PAGE_SIZE))


def decoded_blobs(value):
    """``value`` with every "data" member that unhexlify accepts replaced by
    its bytes cut into pages, at any depth."""
    if isinstance(value, list):
        return [decoded_blobs(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {k: decoded_blobs(v) for k, v in value.items()}
    if isinstance(out.get("data"), str):
        try:
            out["data"] = pages_of(binascii.unhexlify(out["data"]))
        except ValueError:
            pass
    return out


def reference_parse(raw: bytes) -> dict:
    """What parse_manifest must return for ``raw``: the json.loads document,
    with its hex blobs decoded."""
    return decoded_blobs(json_parse_manifest(raw.decode()))


def parse_outcome(parse, raw):
    try:
        return "doc", parse(raw)
    except ManifestError as exc:
        return "manifest-error", str(exc)
    except UnicodeDecodeError as exc:
        return "not-utf8", exc.start


class Obj(list):
    """A JSON object as its members in order, so a key may repeat."""


HEX_TEXT = st.binary(max_size=6).flatmap(
    lambda b: st.sampled_from([b.hex(), b.hex().upper()]))
DATA_TEXT = HEX_TEXT | st.sampled_from(["", "abc", "zz", "de ad", "0G", "\u00e90", "0x00"])
LABELS = st.text("ab -/[]\u00e9\u20ac\U0001f600", max_size=5) | st.sampled_from(
    ["caf\u00e9", "data", "\u0663\u0663"])
# labels json can only write with a backslash
ESCAPED_LABELS = st.sampled_from(["a\\b", 'q"q', "\x01"])
# "ad" and "0f" are keys that are hex too
KEYS = st.sampled_from(["data", "data", "label", "ad", "0f", "dat", "Data", "datas", "d\u00e4ta"])
# hex as a "data" value, or inside one: in a list, or a nested object's key or value
DATA_VALUES = DATA_TEXT | st.lists(DATA_TEXT, min_size=1, max_size=2) | st.tuples(
    st.sampled_from(["ad", "data"]), DATA_TEXT).map(lambda member: Obj([member]))
JSON_TREES = st.recursive(
    st.integers(-2, 2**70) | st.booleans() | st.none() | LABELS | DATA_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(KEYS, inner), max_size=3).map(Obj),
    max_leaves=10,
)
MEMBERS = st.lists(st.tuples(KEYS, JSON_TREES), max_size=3)
SPACE = st.sampled_from(["", " ", "\n", "\t", " \r\n "])


@st.composite
def manifest_bytes(draw):
    """A manifest-like document written with any JSON whitespace, "data"
    members as values, nested keys, under "seeds" and repeated, often with
    a fault placed after every blob: a stray comma, a control character in
    the last label, a byte that is not UTF-8, or a stray byte anywhere.
    Three documents in seven hold a backslash: a \\u escape for each
    character past ASCII or in the key "data", or a label json escapes."""
    spelling = draw(st.sampled_from(
        ["plain", "plain", "plain", "plain", "ascii", "data-key", "label"]))

    def string(s: str) -> str:
        if s == "data" and spelling == "data-key":
            return '"d\\u0061ta"'
        return json.dumps(s, ensure_ascii=spelling == "ascii")

    def write(value) -> str:
        if isinstance(value, Obj):
            inner = ",".join(
                draw(SPACE) + string(k) + draw(SPACE) + ":" + draw(SPACE)
                + write(v) + draw(SPACE)
                for k, v in value
            )
            return "{" + (inner or draw(SPACE)) + "}"
        if isinstance(value, list):
            inner = ",".join(draw(SPACE) + write(v) + draw(SPACE) for v in value)
            return "[" + (inner or draw(SPACE)) + "]"
        if isinstance(value, str):
            return string(value)
        return json.dumps(value)

    regions = [
        Obj([("start", "0x1000"), ("data", draw(DATA_VALUES)), *draw(MEMBERS)])
        for _ in range(draw(st.integers(0, 3)))
    ]
    seeds = Obj([("stack_pointer", "0x1000"), ("data", draw(DATA_TEXT))])
    label = draw(ESCAPED_LABELS if spelling == "label" else LABELS)
    doc = Obj([("regions", regions), ("seeds", seeds), *draw(MEMBERS), ("label", label)])
    raw = write(doc).encode()
    fault = draw(st.sampled_from(
        [None, None, "comma", "control", "not-utf8", "stray"]))
    last = raw.rindex(b'"', 0, raw.rindex(b'"')) + 1  # inside the last label
    if fault == "comma":
        raw = raw[:-1] + b",}"
    elif fault == "control":
        raw = raw[:last] + b"\x01" + raw[last:]
    elif fault == "not-utf8":
        raw = raw[:last] + b"\xff" + raw[last:]
    elif fault == "stray":
        pos = draw(st.integers(0, len(raw)))
        byte = draw(st.sampled_from([b'"', b":", b"\\", b",", b"\x00", b"\xff", b"}"]))
        raw = raw[:pos] + byte + raw[pos:]
    return raw


@given(manifest_bytes())
def test_parse_decodes_blobs_and_otherwise_matches_json(raw):
    assert parse_outcome(parse_manifest, raw) == parse_outcome(reference_parse, raw)


@pytest.mark.parametrize("fault", [
    # a missing comma after the stack's blob
    lambda raw: raw.replace(b'"\n    },\n    {\n      "start": "0x800000000000"',
                            b'"\n    }\n    {\n      "start": "0x800000000000"'),
    # a control character in the last label, past every blob
    lambda raw: raw.replace(b'"[vsyscall]"', b'"[vsys\x01call]"'),
    # a byte that is not UTF-8 after the last blob
    lambda raw: raw.replace(b'"[vsyscall]"', b'"[vsys\xffcall]"'),
], ids=["missing-comma-after-a-blob", "control-character-in-a-label",
        "bad-utf8-after-a-blob"])
def test_faults_past_a_blob_give_the_json_message_and_offset(fault):
    raw = fault(DEMO.read_bytes())
    assert raw != DEMO.read_bytes()
    got = parse_outcome(parse_manifest, raw)
    assert got[0] != "doc"
    assert got == parse_outcome(reference_parse, raw)


class Trickle(io.RawIOBase):
    """A binary file over ``raw`` whose every read gives at most ``k``
    bytes, as a pipe's may, and which can say it cannot seek.  It counts
    the reads to its end, ``whole_reads``."""

    def __init__(self, raw: bytes, k: int, seekable: bool = True):
        super().__init__()
        self._file = io.BytesIO(raw)
        self._k = k
        self._seekable = seekable
        self.whole_reads = 0

    def readall(self) -> bytes:
        self.whole_reads += 1
        return super().readall()

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return self._seekable

    def seek(self, pos: int, whence: int = io.SEEK_SET) -> int:
        if not self._seekable:
            raise io.UnsupportedOperation("seek")
        return self._file.seek(pos, whence)

    def readinto(self, buf) -> int:
        got = self._file.read(min(len(buf), self._k))
        buf[: len(got)] = got
        return len(got)


# read sizes either side of one byte, of a UTF-8 sequence and of a page's
# 8,192 hex digits, from a source that can seek and from one that cannot
TRICKLES = [(k, seekable) for k in (1, 2, 7, 8191, 8193) for seekable in (True, False)]


def scans_alone(raw: bytes) -> bool:
    """Whether ``raw`` holds none of what sends a parse to its whole text:
    a backslash, a "data" string that is not hex, or a fault that json or
    UTF-8 finds."""
    hex_data = True

    def check(members):
        nonlocal hex_data
        for key, value in members:
            if key == "data" and isinstance(value, str):
                try:
                    binascii.unhexlify(value)
                except ValueError:
                    hex_data = False
        return dict(members)

    try:
        json.loads(raw.decode(), object_pairs_hook=check)
    except (ValueError, RecursionError):
        return False
    return hex_data and b"\\" not in raw


def trickle_counts(k: int, seekable: bool, raw: bytes):
    """The outcome of parsing ``raw`` from a ``Trickle``; the times the
    parse read the source whole; the "data" strings it decoded from text
    json had parsed; and its ``json.loads`` calls."""
    source = Trickle(raw, k, seekable)
    with mock.patch.object(memspace, "_hex_pages", wraps=memspace._hex_pages) as from_text, \
            mock.patch.object(memspace.json, "loads", wraps=json.loads) as loads:
        outcome = parse_outcome(lambda _: parse_manifest(source), raw)
    return outcome, source.whole_reads, from_text.call_count, loads.call_count


@given(manifest_bytes())
def test_short_reads_parse_as_the_bytes_do(raw):
    # and a file with nothing that needs the whole text is read whole only
    # when it cannot seek, before the scan, which decodes every blob.  json
    # parses the skeleton of a file without a backslash, and then the whole
    # text only if the skeleton fails; a file with one it parses whole, once,
    # unless the text is not UTF-8
    want = parse_outcome(reference_parse, raw)
    alone = scans_alone(raw)
    for k, seekable in TRICKLES:
        got, whole_reads, from_text, loads = trickle_counts(k, seekable, raw)
        assert got == want, (k, seekable)
        if alone:
            assert (whole_reads, from_text) == (0 if seekable else 1, 0), (k, seekable)
            assert loads == 1, (k, seekable)
        elif b"\\" in raw:
            assert loads == (got[0] != "not-utf8"), (k, seekable)
        else:
            assert loads <= 2, (k, seekable)


# bytes that bytes.strip() or str.strip() take as whitespace and JSON does
# not: form feed, vertical tab and a no-break space in UTF-8
NOT_BLANK = [b"\f", b"\v", "\u00a0".encode()]


@pytest.mark.parametrize("k, seekable", TRICKLES)
def test_only_a_data_key_makes_a_blob_however_the_reads_fall(k, seekable):
    # "data" as a key before blanks and line breaks, and as a string before
    # a hex key and a hex item
    raw = (b'{"regions": [{"data"\n :\r\n\t"0f0E"}], "label": "data" , "ad": "00",'
           b' "list": ["data",\n "ab"]}')
    got, whole_reads, from_text, _ = trickle_counts(k, seekable, raw)
    assert got == ("doc", reference_parse(raw))
    assert got[1]["regions"][0]["data"] == (b"\x0f\x0e",) and got[1]["ad"] == "00"
    assert (whole_reads, from_text) == (0 if seekable else 1, 0)
    # a byte that is not JSON whitespace next to the key's ":", on either
    # side, makes no blob: the parse decodes nothing and gives json's own
    # message
    for byte in NOT_BLANK:
        for spot in (b'"data"', b'"data"\n ', b'"data"\n :', b'"data"\n :\r\n\t'):
            bad = raw.replace(spot, spot + byte, 1)
            with mock.patch.object(memspace, "_decode_pages",
                                   wraps=memspace._decode_pages) as decoded:
                got = trickle_counts(k, seekable, bad)[0]
            assert got[0] == "manifest-error" and got == parse_outcome(reference_parse, bad)
            assert decoded.call_count == 0, (byte, spot)


# the faults of the test above that places them past the demo's blobs
PAST_BLOB_FAULTS = test_faults_past_a_blob_give_the_json_message_and_offset.pytestmark[0].args[1]


@pytest.mark.parametrize("k, seekable", TRICKLES)
@pytest.mark.parametrize("fault", [None, *PAST_BLOB_FAULTS], ids=[
    "demo", "missing-comma-after-a-blob", "control-character-in-a-label",
    "bad-utf8-after-a-blob"])
def test_the_demo_read_in_short_reads_parses_as_its_bytes_do(fault, k, seekable):
    raw = DEMO.read_bytes() if fault is None else fault(DEMO.read_bytes())
    want = parse_outcome(reference_parse, raw)
    assert (want[0] == "doc") == (fault is None) == scans_alone(raw)
    got, whole_reads, from_text, _ = trickle_counts(k, seekable, raw)
    assert got == want
    if fault is None:
        assert (whole_reads, from_text) == (0 if seekable else 1, 0)


@pytest.mark.parametrize("k, seekable", TRICKLES + [(1 << 20, True)])
def test_a_backslash_after_a_decoded_blob_gives_the_json_result(k, seekable):
    # the blob, a page and more, is decoded before the scan reaches the
    # escape in the label; the whole text is then parsed by json alone
    blob = bytes(range(256)) * 20
    raw = json.dumps({"regions": [{"start": "0x1000", "len": "0x2000", "perms": "ru",
                                   "data": blob.hex()}], "label": "caf\u00e9"}).encode()
    assert raw.index(b"\\") > raw.index(blob.hex().encode()) > 0
    doc = parse_manifest(Trickle(raw, k, seekable))
    assert doc == reference_parse(raw)
    assert doc["regions"][0]["data"] == pages_of(blob) and doc["label"] == "caf\u00e9"


@pytest.mark.parametrize("backslash", [False, True], ids=["scanned", "json-only"])
def test_a_fault_at_the_end_decodes_no_blob(backslash):
    # a synth manifest with a trailing comma before its last brace, and
    # with an escaped key or without: json reports the fault before any
    # "data" string parsed from the text is decoded, with json's message
    text = build_victim_image(3).manifest_text.rstrip()
    assert text.endswith("}") and text.count('"data": "') >= 3
    if backslash:
        text = text.replace('"label"', '"\\u006cabel"', 1)
    raw = (text[:-1].rstrip() + ",\n}").encode()
    assert (b"\\" in raw) == backslash
    with mock.patch.object(memspace, "_hex_pages", wraps=memspace._hex_pages) as from_text:
        got = parse_outcome(parse_manifest, raw)
    assert from_text.call_count == 0
    assert got[0] == "manifest-error"
    assert got == parse_outcome(reference_parse, raw)


def test_demo_blobs_come_back_decoded():
    doc = parse_manifest(DEMO.read_bytes())
    want = json.loads(DEMO.read_text())
    blobs = [r for r in doc["regions"] if "data" in r]
    assert blobs and all(
        type(r["data"]) is tuple and all(type(page) is bytes for page in r["data"])
        for r in blobs)
    assert doc == decoded_blobs(want)
    assert space_digest(load_manifest(doc)) == space_digest(
        load_manifest(decoded_blobs(want)))


def test_hex_text_data_is_refused_by_the_loader():
    # parse_manifest hands the loader bytes; hex text is what json.loads
    # alone gives, and the loader decodes nothing itself
    doc = json.loads(DEMO.read_text())
    with pytest.raises(ManifestError, match=r"^region 0: data is not a hex blob$"):
        load_manifest(doc)


@pytest.mark.parametrize("label", ["plain", "caf\\u00e9"], ids=["spliced", "json-only"])
def test_empty_data_comes_back_as_empty_bytes(label):
    # the empty blob is no pages at all; its region loads zero-filled
    raw = ('{"regions": [{"start": "0x1000", "len": "0x1000", "perms": "ru", '
           '"data": "", "label": "%s"}]}' % label).encode()
    doc = parse_manifest(raw)
    assert doc["regions"][0]["data"] == ()
    assert type(doc["regions"][0]["data"]) is tuple
    assert load_manifest(doc).read_bytes(0x1000, 8) == bytes(8)


class TestProcMaps:
    SAMPLE = (
        "00400000-00404000 r-xp 00000000 08:01 40001  /opt/victim/app\n"
        "00620000-00622000 rw-p 00004000 08:01 40001  /opt/victim/app\n"
        "7ffc00000000-7ffc00004000 rw-p 00000000 00:00 0  [stack]\n"
        "ffffffffff600000-ffffffffff601000 r-xp 00000000 00:00 0  [vsyscall]\n"
    )

    def test_parse_fields(self):
        truth = parse_proc_maps(self.SAMPLE)
        first = truth.regions[0]
        assert (first.start, first.end) == (0x400000, 0x404000)
        assert first.kind.readable and first.kind.executable
        assert not first.kind.writable

    def test_user_accessibility_from_address_half(self):
        truth = parse_proc_maps(self.SAMPLE)
        assert truth.regions[0].kind.user_accessible
        assert not truth.regions[-1].kind.user_accessible

    def test_sorted_on_parse(self):
        lines = self.SAMPLE.splitlines()
        text = "\n".join(reversed(lines)) + "\n"
        truth = parse_proc_maps(text)
        starts = [r.start for r in truth.regions]
        assert starts == sorted(starts)

    def test_overlap_rejected(self):
        text = (
            "00400000-00402000 r-xp 00000000 00:00 0\n"
            "00401000-00403000 rw-p 00000000 00:00 0\n"
        )
        with pytest.raises(MapsParseError) as exc:
            parse_proc_maps(text)
        assert exc.value.line_no == 2

    def test_overlap_names_the_later_line(self):
        # sorted, the repeated line is second, but it is line 3 of the file
        line = "00400000-00401000 r-xp 00000000 00:00 0\n"
        text = line + "00429000-0042a000 rw-p 00000000 00:00 0\n" + line
        with pytest.raises(MapsParseError, match="^line 3: ") as exc:
            parse_proc_maps(text)
        assert exc.value.line_no == 3

    def test_unparseable_line_names_line_number(self):
        with pytest.raises(MapsParseError) as exc:
            parse_proc_maps("00400000-00401000 r-xp 00000000 00:00 0\nbogus\n")
        assert exc.value.line_no == 2
        # a blank line is skipped, but it still counts
        with pytest.raises(MapsParseError) as exc:
            parse_proc_maps("\n  \n00400000-00401000 r-xp 00000000 00:00 0\nbogus\n")
        assert exc.value.line_no == 4

    def test_unaligned_bounds_rejected(self):
        with pytest.raises(MapsParseError):
            parse_proc_maps("00400001-00402000 r-xp 00000000 00:00 0\n")

    def test_address_past_sixteen_digits_is_unparseable(self):
        # the kernel writes 64-bit addresses; an overlap message would echo
        # a longer one whole
        assert parse_proc_maps("ffffffffff600000-ffffffffff601000 r-xp 0 00:00 0\n")
        with pytest.raises(MapsParseError, match="^line 1: unparseable maps line"):
            parse_proc_maps("0ffffffffff600000-0ffffffffff601000 r-xp 0 00:00 0\n")

    def test_shifted_moves_user_lines_only(self):
        truth = parse_proc_maps(self.SAMPLE)
        moved = truth.shifted(0x1000)
        assert moved.regions[0].start == 0x401000
        assert moved.regions[-1].start == truth.regions[-1].start
        for offset in (0x800, -0x1000):
            with pytest.raises(ValueError, match="non-negative page multiple"):
                truth.shifted(offset)


@given(
    start_page=st.integers(min_value=0, max_value=1 << 20),
    pages=st.integers(min_value=1, max_value=4),
    data=st.binary(max_size=64),
)
def test_read_back_equals_written(start_page, pages, data):
    space = make_space((start_page * PAGE_SIZE, pages * PAGE_SIZE, "rwu", b""))
    limit = pages * PAGE_SIZE - len(data)
    addr = start_page * PAGE_SIZE + (limit // 2)
    if data:
        space.write_bytes(addr, data)
        assert space.read_bytes(addr, len(data)) == data
