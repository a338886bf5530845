import pytest

from caveprobe.caves import CaveRegion
from caveprobe.explorer import ExploreBudgetError, PageMap
from caveprobe.gadgets import ChainWord
from caveprobe.injector import (
    FakeFrameImage,
    InjectionError,
    VictimFrame,
    forge_fake_frame,
    inject,
    locate_victim_frame,
    payload_offset,
)
from caveprobe.memspace import PAGE_SIZE, PagePermissions
from caveprobe.probe import Prober, Writability
from helpers import make_space, settled_store, space_digest

STACK = 0x7F0000000000
CODE = 0x400000
CAVE = 0x600000


def quiet_prober() -> Prober:
    return Prober(0.0, 0)


def nine_word_chain() -> tuple[ChainWord, ...]:
    words = []
    for i in range(4):
        words.append(ChainWord(CODE + 0x10 * (i + 1), "gadget-address"))
        words.append(ChainWord(0x1000 + i, "immediate"))
    words.append(ChainWord(CODE + 0x50, "gadget-address"))
    return tuple(words)


def victim() -> VictimFrame:
    return VictimFrame(
        rbp_slot_addr=STACK + 0x800,
        saved_rbp=STACK + 0x900,
        saved_rip=CODE + 0x234,
        canary_slot_addr=STACK + 0x7F8,
    )


class TestRestorationRecord:
    def test_values(self):
        v = victim()
        assert v.resume_rip == CODE + 0x234
        assert v.resume_rbp == STACK + 0x900
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
        with pytest.raises(InjectionError):
            locate_victim_frame(pm, STACK + 0x700)

    def test_no_frame_names_the_region_and_slots_scanned(self):
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b""),
            (STACK, PAGE_SIZE, "rwu", b""),
        )
        with pytest.raises(InjectionError) as exc:
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
        with pytest.raises(InjectionError) as exc:
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
        image = forge_fake_frame(victim(), nine_word_chain(), b"\xCC" * 40,
                                 CaveRegion(CAVE, 0x1000))
        assert image.base == CAVE
        assert len(image.words) == 11
        assert image.payload_addr == CAVE + 0x60
        assert image.words[0].value == victim().saved_rbp
        assert image.words[0].role == "saved-rbp"
        assert image.words[-1].value == CAVE + 0x60
        assert image.words[-1].role == "resume-address"
        assert payload_offset(9) == 0x60

    def test_payload_offset_rounds_up_to_16(self):
        # saved-rbp copy + chain + continuation: 7 chain words make 0x48
        # bytes, rounded to 0x50; 6 make exactly 0x40
        assert payload_offset(7) == 0x50
        assert payload_offset(6) == 0x40

    def test_image_bytes_pad_before_payload(self):
        image = forge_fake_frame(victim(), nine_word_chain(), b"\xCC" * 4,
                                 CaveRegion(CAVE, 0x1000))
        blob = image.image_bytes()
        assert len(blob) == 0x60 + 4
        assert blob[0x58:0x60] == bytes(8)
        assert blob[0x60:] == b"\xCC" * 4

    def test_chain_only_resumes_at_saved_rip(self):
        image = forge_fake_frame(victim(), nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        assert image.payload_addr is None
        assert image.words[-1].value == victim().saved_rip
        assert len(image.image_bytes()) == 0x58

    def test_cave_too_small(self):
        with pytest.raises(InjectionError):
            forge_fake_frame(victim(), nine_word_chain(), b"\xCC" * 0x1000,
                             CaveRegion(CAVE, 0x1000))

    def test_forge_writes_nothing(self):
        # pure layout computation: no space is even passed in
        image = forge_fake_frame(victim(), nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        assert isinstance(image, FakeFrameImage)


class TestPlanCleanup:
    def test_payload_mode_covers_words_and_pad(self):
        image = forge_fake_frame(victim(), nine_word_chain(), b"\xCC" * 8,
                                 CaveRegion(CAVE, 0x1000))
        assert image.cleanup == (CAVE, 0x60)

    def test_chain_only_has_no_cleanup(self):
        # no payload runs, so nothing zeroes the chain image
        image = forge_fake_frame(victim(), nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        assert image.cleanup is None


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


EPILOGUE = CODE + 0x100


class TestInject:
    def test_arms_frame_and_plants_image(self):
        space, v = arming_space()
        image = forge_fake_frame(v, nine_word_chain(), b"\xAA" * 16,
                                 CaveRegion(CAVE, 0x1000))
        pm = settled_store(space)
        counters = dict(pm.prober.counters)
        assert inject(pm, v, image, EPILOGUE) is None
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

    def test_rejects_rearming(self):
        space, v = arming_space()
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        pm = settled_store(space)
        inject(pm, v, image, EPILOGUE)
        with pytest.raises(InjectionError, match="already armed"):
            inject(pm, v, image, EPILOGUE)

    def test_rejects_wrong_epilogue_bytes(self):
        space, v = arming_space()
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        with pytest.raises(InjectionError, match="not a leave; ret site"):
            inject(settled_store(space), v, image, CODE)  # nop bytes there

    def test_rejects_unreadable_epilogue(self):
        space, v = arming_space()
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        with pytest.raises(InjectionError):
            inject(PageMap(space, quiet_prober()), v, image, 0x123000)

    def test_undo_on_refused_write(self):
        # cave writable, stack read-only: the store refuses the stack page
        # before any byte is written, so the cave is never touched
        space, v = arming_space()
        space.set_protection(STACK, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge_fake_frame(v, nine_word_chain(), b"\xAA" * 16,
                                 CaveRegion(CAVE, 0x1000))
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image, EPILOGUE)
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
                        saved_rip=CODE + 0x234, canary_slot_addr=slot - 8)
        space = make_space(
            (CODE, PAGE_SIZE, "rxu", b"\x90" * 0x100 + b"\xc9\xc3"),
            (CAVE, PAGE_SIZE, "rwu", b"\x5A" * PAGE_SIZE),
            (STACK, 2 * PAGE_SIZE, "rwu", b""),
        )
        space.write_bytes(slot, v.saved_rbp.to_bytes(8, "little"))
        space.write_bytes(slot + 8, v.saved_rip.to_bytes(8, "little"))
        page = STACK if refused == "rbp-slot-page" else STACK + PAGE_SIZE
        space.set_protection(page, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge_fake_frame(v, nine_word_chain(), b"\xAA" * 16,
                                 CaveRegion(CAVE, 0x1000))
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image, EPILOGUE)
        assert str(err.value) == f"page {page:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    def test_refuses_a_read_only_cave_and_writes_nothing(self):
        space, v = arming_space()
        space.set_protection(CAVE, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image, EPILOGUE)
        assert str(err.value) == f"page {CAVE:#x} is not writable"
        assert written == []
        assert space_digest(space) == before

    def test_refusal_past_a_page_boundary_writes_nothing(self):
        # the image runs from a writable cave page into a read-only one
        space, v = arming_space()
        space.map_region(CAVE + PAGE_SIZE, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
        image = forge_fake_frame(v, nine_word_chain(), b"\xAA" * 0x100,
                                 CaveRegion(CAVE + PAGE_SIZE - 0x80, 0x1000))
        before = space_digest(space)
        written = logged_writes(space)
        with pytest.raises(InjectionError) as err:
            inject(PageMap(space, quiet_prober()), v, image, EPILOGUE)
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
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        inject(pm, v, image, EPILOGUE)
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
        image = forge_fake_frame(v, nine_word_chain(), b"",
                                 CaveRegion(CAVE, 0x1000))
        before = space_digest(space)
        with pytest.raises(ExploreBudgetError, match=f"page {missing:#x} needs one more"):
            inject(pm, v, image, EPILOGUE)
        assert space_digest(space) == before
        assert len(pm.entries) == 2
