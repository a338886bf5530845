import dataclasses

import pytest

from caveprobe.caves import NoCaveError
from caveprobe.explorer import ExploreBudgetError, NoFrameError, PageMap
from caveprobe.gadgets import CHAIN_VARIANTS, GADGETS, ChainWord, GadgetCatalog
from caveprobe.injector import (
    FakeFrameImage,
    InjectionError,
    VictimFrame,
    forge_fake_frame,
    inject,
    locate_victim_frame,
    payload_offset,
)
from caveprobe.memspace import PAGE_SIZE, PagePermissions, PageRun
from caveprobe.probe import WRITABLE, Prober, Writability
from helpers import make_space, settled_store, space_digest

STACK = 0x7F0000000000
CODE = 0x400000
CAVE = 0x600000
EPILOGUE = CODE + 0x100
MARKER = 0x1122334455667789


def quiet_prober() -> Prober:
    return Prober(0.0, 0)


def catalog() -> GadgetCatalog:
    """One site of every kind on the code page, the syscall falling into a
    ret; the leave; ret is EPILOGUE, where arming_space plants its bytes."""
    found = {kind: (CODE + 0x10 * (i + 1),) for i, kind in enumerate(GADGETS)}
    found["leave-ret"] = (EPILOGUE,)
    return GadgetCatalog(found, searched_pages=1, syscalls_into_ret=found["syscall"])


def victim() -> VictimFrame:
    return VictimFrame(
        rbp_slot_addr=STACK + 0x800,
        saved_rbp=STACK + 0x900,
        saved_rip=CODE + 0x234,
    )


def forge(v: VictimFrame | None = None, marker: int | None = MARKER,
          variant: str = "sound-5", cave_list=None) -> FakeFrameImage:
    """The image forge_fake_frame plans for ``v``, by default in payload
    mode and in one page-long cave at CAVE."""
    return forge_fake_frame(v or victim(), catalog(),
                            cave_list or [PageRun(CAVE, CAVE + 0x1000, WRITABLE)],
                            variant, marker)


class TestRestorationRecord:
    def test_values(self):
        v = victim()
        assert v.resume_rsp == STACK + 0x810


class TestLocate:
    def build_stack(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b""),
            (STACK, PAGE_SIZE, "rwu", b""),
        )

        def put(addr, value):
            space.write_bytes(addr, value.to_bytes(8, "little"))

        # outer frame terminates the chain; middle links to it; inner is
        # the one a scan from below must find first
        put(STACK + 0xF00, 0)                # outer saved rbp (terminator)
        put(STACK + 0xF08, CODE + 0x500)
        put(STACK + 0xA00, STACK + 0xF00)    # middle
        put(STACK + 0xA08, CODE + 0x300)
        put(STACK + 0x800, STACK + 0xA00)    # inner
        put(STACK + 0x808, CODE + 0x234)
        put(STACK + 0x7F8, 0xDEAD10CC)       # canary below the inner slot
        return space

    def test_finds_innermost_frame(self):
        frame = locate_victim_frame(settled_store(self.build_stack()), STACK + 0x700)
        assert frame.rbp_slot_addr == STACK + 0x800
        assert frame.saved_rbp == STACK + 0xA00
        assert frame.saved_rip == CODE + 0x234
        assert frame.canary_slot_addr == STACK + 0x7F8

    def test_claws_return_address_on_unprobed_page(self):
        # the stack alone was probed: locating claws the code page, and its
        # read-only verdict vouches for the return address
        pm = PageMap(self.build_stack(), quiet_prober())
        frame = locate_victim_frame(pm, STACK + 0x700)
        assert frame.saved_rip == CODE + 0x234
        assert pm.entries[CODE] is Writability.READ_ONLY

    def test_refuses_return_address_on_writable_page(self):
        space = self.build_stack()
        space.set_protection(CODE, PAGE_SIZE, PagePermissions.from_rwxu("rwxu"))
        pm = settled_store(space)
        assert pm.entries[CODE] is Writability.WRITABLE
        with pytest.raises(NoFrameError):
            locate_victim_frame(pm, STACK + 0x700)

    def test_no_frame_names_the_region_and_slots_scanned(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b""),
            (STACK, PAGE_SIZE, "rwu", b""),
        )
        with pytest.raises(NoFrameError) as exc:
            locate_victim_frame(settled_store(space), STACK + 0x700)
        # slots STACK+0x700 .. STACK+0xFF0, eight bytes apart
        assert str(exc.value) == (
            f"no plausible frame above the stack pointer {STACK + 0x700:#x}: "
            f"scanned 287 slots of the stack region "
            f"{STACK:#x}-{STACK + PAGE_SIZE:#x}"
        )

    def test_frame_whose_canary_lies_below_the_stack_pointer_is_refused(self):
        # a frame at the stack's first word would put its canary slot on the
        # guard page below; the scan skips it and keeps its range
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b""),
            (STACK - PAGE_SIZE, PAGE_SIZE, "", b""),
            (STACK, PAGE_SIZE, "rwu", b""),
        )
        space.write_bytes(STACK, (STACK + 0x100).to_bytes(8, "little"))
        space.write_bytes(STACK + 8, (CODE + 0x234).to_bytes(8, "little"))
        with pytest.raises(NoFrameError) as exc:
            locate_victim_frame(settled_store(space), STACK)
        assert str(exc.value) == (
            f"no plausible frame above the stack pointer {STACK:#x}: "
            f"scanned 511 slots of the stack region "
            f"{STACK:#x}-{STACK + PAGE_SIZE:#x}"
        )

    def test_frame_one_word_above_the_stack_pointer_is_found(self):
        # its canary slot is the stack pointer's own word
        space = self.build_stack()
        frame = locate_victim_frame(settled_store(space), STACK + 0x7F8)
        assert frame.rbp_slot_addr == STACK + 0x800
        assert frame.canary_slot_addr == STACK + 0x7F8

    def test_stack_pointer_on_inaccessible_page_fails(self):
        pm = settled_store(self.build_stack())
        with pytest.raises(ValueError, match="not accessible"):
            locate_victim_frame(pm, STACK - 0x1000)


class TestForge:
    def test_payload_layout_frozen(self):
        # 1 saved-rbp word + 9 chain words + 1 continuation = 11 words,
        # 0x58 bytes, so the payload starts at the 0x60 boundary
        image = forge()
        assert image.cave == PageRun(CAVE, CAVE + 0x1000, WRITABLE)
        assert len(image.words) == 11
        assert image.payload_addr == CAVE + 0x60
        assert image.words[0].value == victim().saved_rbp
        assert image.words[0].role == "saved-rbp"
        assert image.words[-1].value == CAVE + 0x60
        assert image.words[-1].role == "resume-address"
        assert payload_offset(9) == 0x60

    def test_short_variant_payload_at_0x50(self):
        # 7 chain words make 0x48 bytes of frame, rounded to 0x50
        image = forge(variant="short-4")
        assert len(image.words) == 9
        assert image.payload_addr == CAVE + 0x50
        assert image.cleanup == (CAVE, 0x50)

    def test_payload_offset_rounds_up_to_16(self):
        # saved-rbp copy + chain + continuation: 7 chain words make 0x48
        # bytes, rounded to 0x50; 6 make exactly 0x40
        assert payload_offset(7) == 0x50
        assert payload_offset(6) == 0x40

    def test_chain_words_follow_the_saved_rbp_copy(self):
        # the chain protects the chosen cave: its immediates name the
        # cave's start and length
        image = forge()
        chain = image.words[1:-1]
        assert len(chain) == 9
        assert [w.value for w in chain[1:4:2]] == [CAVE, 0x1000]
        assert chain[-1].value == catalog().syscalls_into_ret[0]

    def test_image_bytes_pad_before_payload(self):
        image = forge()
        blob = image.image_bytes()
        assert len(blob) == 0x60 + len(image.payload)
        assert blob[0x58:0x60] == bytes(8)
        assert blob[0x60:] == image.payload

    def test_chain_only_resumes_at_saved_rip(self):
        image = forge(marker=None)
        assert image.payload_addr is None
        assert image.payload == b""
        assert image.marker is None
        assert image.words[-1].value == victim().saved_rip
        assert len(image.image_bytes()) == 0x58

    @pytest.mark.parametrize("variant, marker, need", [
        ("sound-5", MARKER, 0x146), ("short-4", MARKER, 0x11C),
        ("sound-5", None, 0x58), ("short-4", None, 0x48),
    ])
    def test_no_cave_that_fits_names_the_need(self, variant, marker, need):
        # with a payload: the frame, the payload that zeroes it, and the
        # marker word; without one, the frame alone
        with pytest.raises(NoCaveError) as exc:
            forge(marker=marker, variant=variant,
                  cave_list=[PageRun(CAVE, CAVE + 0x40, WRITABLE)])
        assert exc.value.need_len == need
        assert str(exc.value).startswith(f"no cave of at least {need:#x} bytes")

    def test_lowest_cave_that_fits_is_taken(self):
        # in address order, as find_caves gives them; the larger comes last
        caves = [PageRun(CAVE, CAVE + 0x1000, WRITABLE),
                 PageRun(CAVE + 0x10000, CAVE + 0x12000, WRITABLE)]
        assert forge(cave_list=caves).cave == PageRun(CAVE, CAVE + 0x1000, WRITABLE)

    def test_forge_writes_nothing(self):
        # pure layout computation: no space is even passed in
        image = forge(marker=None)
        assert isinstance(image, FakeFrameImage)


@pytest.mark.parametrize("variant", CHAIN_VARIANTS)
@pytest.mark.parametrize("marker", [MARKER, None], ids=["payload", "chain-only"])
def test_image_carries_marker_cleanup_epilogue_and_stop(variant, marker):
    image = forge(marker=marker, variant=variant)
    cave = image.cave
    assert image.epilogue == catalog().lowest("leave-ret")
    if marker is None:
        # the chain's last ret pops the continuation word, the frame's last
        assert image.stop_rsp == cave.start + 8 * len(image.words)
        assert image.marker is None and image.cleanup is None
        return
    assert image.stop_rsp == victim().resume_rsp
    # the marker takes the cave's last word, past everything planted
    assert image.marker == (cave.end - 8, MARKER)
    assert cave.start + len(image.image_bytes()) <= image.marker[0]
    assert image.cleanup == (cave.start, image.payload_addr - cave.start)


class TestPlanCleanup:
    def test_payload_mode_covers_words_and_pad(self):
        assert forge().cleanup == (CAVE, 0x60)

    def test_chain_only_has_no_cleanup(self):
        # no payload runs, so nothing zeroes the chain image
        assert forge(marker=None).cleanup is None


def arming_space():
    v = victim()
    space = make_space(
        (CODE, PAGE_SIZE, "rxu", b"\x90" * 0x100 + b"\xc9\xc3"),
        (CAVE, PAGE_SIZE, "rwu", b""),
        (STACK, PAGE_SIZE, "rwu", b""),
    )
    space.write_bytes(v.rbp_slot_addr, v.saved_rbp.to_bytes(8, "little"))
    space.write_bytes(v.rbp_slot_addr + 8, v.saved_rip.to_bytes(8, "little"))
    space.write_bytes(v.canary_slot_addr, (0xC0FFEE).to_bytes(8, "little"))
    return space, v


def logged_writes(space) -> list[tuple[int, int]]:
    """(address, length) of every ``write_bytes`` on ``space`` from now on."""
    written = []
    write_bytes = space.write_bytes

    def logged(addr, data):
        written.append((addr, len(data)))
        write_bytes(addr, data)

    space.write_bytes = logged
    return written



class TestInject:
    def test_arms_frame_and_plants_image(self):
        space, v = arming_space()
        image = forge(v)
        pm = settled_store(space)
        counters = dict(pm.prober.counters)
        assert inject(pm, v, image) is None
        blob = image.image_bytes()
        assert space.read_bytes(CAVE, len(blob)) == blob
        slot = space.read_bytes(v.rbp_slot_addr, 16)
        assert int.from_bytes(slot[:8], "little") == CAVE
        assert int.from_bytes(slot[8:], "little") == EPILOGUE
        assert image.cleanup == (CAVE, 0x60)
        # canary untouched
        assert space.read_bytes(v.canary_slot_addr, 8) == (0xC0FFEE).to_bytes(8, "little")
        # the store held both pages: two writes and no transaction
        counters["safe_writes"] = counters.get("safe_writes", 0) + 2
        assert pm.prober.counters == counters

    def test_undo_on_refused_write(self):
        # cave writable, stack read-only: the store refuses the stack page
        # before any byte is written, so the cave is never touched
        space, v = arming_space()
        space.set_protection(STACK, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge(v)
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image)
        assert str(err.value) == f"page {STACK:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    @pytest.mark.parametrize("refused", ["rbp-slot-page", "rip-slot-page"])
    def test_refused_slot_page_leaves_cave_and_slots_untouched(self, refused):
        # the slot pair straddles two stack pages and one of them is
        # read-only: the store claws both before any write, so neither the
        # image nor either slot is ever written
        slot = STACK + PAGE_SIZE - 8
        v = VictimFrame(rbp_slot_addr=slot, saved_rbp=STACK + 0x1100,
                        saved_rip=CODE + 0x234)
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b"\x90" * 0x100 + b"\xc9\xc3"),
            (CAVE, PAGE_SIZE, "rwu", b"\x5A" * PAGE_SIZE),
            (STACK, 2 * PAGE_SIZE, "rwu", b""),
        )
        space.write_bytes(slot, v.saved_rbp.to_bytes(8, "little"))
        space.write_bytes(slot + 8, v.saved_rip.to_bytes(8, "little"))
        page = STACK if refused == "rbp-slot-page" else STACK + PAGE_SIZE
        space.set_protection(page, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge(v)
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image)
        assert str(err.value) == f"page {page:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    def test_refuses_a_read_only_cave_and_writes_nothing(self):
        space, v = arming_space()
        space.set_protection(CAVE, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge(v, marker=None)
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image)
        assert str(err.value) == f"page {CAVE:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    def test_refusal_past_a_page_boundary_writes_nothing(self):
        # the image runs from a writable cave page into a read-only one
        space, v = arming_space()
        space.map_region(CAVE + PAGE_SIZE, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        # forge takes only page-aligned caves, whose images fit a page, so
        # this image is built by hand
        start = CAVE + PAGE_SIZE - 0x80
        image = FakeFrameImage(
            PageRun(start, start + 0x1000, WRITABLE), (ChainWord(v.saved_rbp, "saved-rbp"),),
            b"\xAA" * 0x100, start + 0x10, None, EPILOGUE, v.resume_rsp)
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image)
        assert str(err.value) == f"page {CAVE + PAGE_SIZE:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    def test_a_store_at_its_budget_that_holds_both_pages_arms_the_frame(self):
        # both written pages, and the code page the epilogue is read from
        space, v = arming_space()
        pm = PageMap(space, quiet_prober(), budget=3)
        pm.claw(CODE)
        pm.claw(CAVE)
        pm.claw(STACK)
        image = forge(v, marker=None)
        inject(pm, v, image)
        slot = space.read_bytes(v.rbp_slot_addr, 16)
        assert int.from_bytes(slot[:8], "little") == CAVE
        assert sorted(pm.entries) == [CODE, CAVE, STACK]

    @pytest.mark.parametrize("missing", [CAVE, STACK], ids=["cave", "stack"])
    def test_a_store_at_its_budget_without_a_written_page_writes_nothing(self, missing):
        # the explore budget holds for inject too: a page the store lacks
        # needs a probe the budget has no room for
        space, v = arming_space()
        pm = PageMap(space, quiet_prober(), budget=2)
        pm.claw(CODE)
        pm.claw(STACK if missing == CAVE else CAVE)
        image = forge(v, marker=None)
        before = space_digest(space)
        with pytest.raises(ExploreBudgetError, match=f"page {missing:#x} needs one more"):
            inject(pm, v, image)
        assert space_digest(space) == before
        assert len(pm.entries) == 2
