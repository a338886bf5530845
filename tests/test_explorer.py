import contextlib
import random
import struct
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from caveprobe import caves, cli, explorer, gadgets
from caveprobe.cli import MODES, Pipeline, PipelineConfig, _aslr_offset
from caveprobe.explorer import (
    DEFAULT_BUDGET,
    ExploreBudgetError,
    NoFrameError,
    PageMap,
    explore,
    explore_from_pointers,
    frame_above,
    harvest_pointers,
    match_ground_truth,
    reconstruct_map,
    region_around,
)
from caveprobe.memspace import (
    PAGE_SIZE,
    USER_TOP,
    AddressSpace,
    GroundTruthMap,
    MemoryFault,
    PagePermissions,
    PageRun,
    load_manifest,
    page_runs,
    parse_manifest,
    parse_proc_maps,
)
from caveprobe.probe import Prober, Writability
from caveprobe.synth import build_victim_image
from helpers import (
    DEMO, NONE, claw_range, make_space, page_by_page_caves, page_by_page_census,
    page_by_page_match, page_class, random_permed_space, reference_explore,
    reference_frame_above, reference_walk, run_main,
)


def quiet_prober() -> Prober:
    return Prober(0.0, 0)


def quiet_store(space, budget=DEFAULT_BUDGET) -> PageMap:
    return PageMap(space, quiet_prober(), budget)


def ptr_page(*values: int) -> bytes:
    """A page blob whose leading qwords are the given values."""
    return b"".join(v.to_bytes(8, "little") for v in values)


class TestHarvest:
    def test_extracts_user_half_pointers(self):
        page = ptr_page(0x404000, 0, USER_TOP, USER_TOP - 8, 1 << 63, 0x11)
        page += bytes(PAGE_SIZE - len(page))
        got = harvest_pointers(page)
        assert 0x404000 in got
        assert USER_TOP - 8 in got
        assert 0x11 in got
        assert 0 not in got
        assert USER_TOP not in got
        assert (1 << 63) not in got

    def test_requires_one_page(self):
        # harvest_pointers trusts its caller for the length: the chase
        # hands it each page whole, as the store read it
        lengths = []
        harvest = explorer.harvest_pointers

        def spy(page_bytes):
            lengths.append(len(page_bytes))
            return harvest(page_bytes)

        space = make_space(
            (0x100000, PAGE_SIZE, "ru", ptr_page(0x70000000)),
            (0x70000000, 2 * PAGE_SIZE, "rwu", ptr_page(0x70001008, 0x100008)),
        )
        with patch.object(explorer, "harvest_pointers", spy):
            pm = quiet_store(space)
            explore(pm, "pointer-chase", 0x100000)
        assert 0x70001000 in pm.accessible_pages()
        assert len(lengths) >= 3 and set(lengths) == {PAGE_SIZE}

    @given(
        fill=st.none() | st.integers(0, 2**32),
        # this many leading words are user-half pointers, so pages with
        # few and with many candidates are both drawn
        pointers=st.integers(0, PAGE_SIZE // 8),
        words=st.lists(
            st.tuples(
                st.integers(0, PAGE_SIZE // 8 - 1),
                # 2**40 and 2**46: only byte 5 is not zero
                st.sampled_from([0, 1, 2**40, 2**46, 2**47 - 1, 2**47,
                                 2**48 - 1, 2**48, 2**63, 2**64 - 1])
                | st.integers(0, 2**64 - 1),
            ),
            max_size=40,
        ),
    )
    def test_matches_the_per_word_filter(self, fill, pointers, words):
        # a zero or random page with boundary and random words written in
        page = bytearray(PAGE_SIZE if fill is None
                         else random.Random(fill).randbytes(PAGE_SIZE))
        page[:8 * pointers] = struct.pack(
            f"<{pointers}Q", *range(0x7F00_0000_0000, 0x7F00_0000_0000 + 8 * pointers, 8))
        for index, value in words:
            page[8 * index:8 * index + 8] = value.to_bytes(8, "little")
        page = bytes(page)
        want = [v for v in struct.unpack("<512Q", page) if 0 < v < USER_TOP]
        assert harvest_pointers(page) == want


class TestPointerChase:
    def test_follows_chain_across_gaps(self):
        space = make_space(
            (0x10000, PAGE_SIZE, "ru", ptr_page(0x40000123)),
            (0x40000000, PAGE_SIZE, "ru", ptr_page(0x80000000)),
            (0x80000000, PAGE_SIZE, "rwu", b""),
        )
        pm = explore_from_pointers(quiet_store(space), (0x10008,))
        assert pm.accessible_pages() == [0x10000, 0x40000000, 0x80000000]

    def test_records_inaccessible_candidates(self):
        space = make_space((0x10000, PAGE_SIZE, "ru", ptr_page(0x77770000)))
        pm = explore_from_pointers(quiet_store(space), (0x10000,))
        assert pm.entries[0x77770000] is Writability.INACCESSIBLE

    def test_never_reads_before_successful_tap(self):
        space = make_space(
            (0x10000, PAGE_SIZE, "ru", ptr_page(0x20000, 0x30000)),
            (0x20000, PAGE_SIZE, "", b""),  # tap says no; a read would fault
            (0x30000, PAGE_SIZE, "ru", b""),
        )
        p = Prober(0.0, 0, trace=True)
        pm = explore_from_pointers(PageMap(space, p), (0x10000,))
        assert pm.entries[0x20000] is Writability.INACCESSIBLE
        assert pm.entries[0x30000] is Writability.ACCESSIBLE

    def test_budget_bounds_probed_pages(self):
        # every page points at the next, far away
        regions = []
        addr = 0x10000
        for _ in range(12):
            nxt = addr + 0x100000
            regions.append((addr, PAGE_SIZE, "ru", ptr_page(nxt)))
            addr = nxt
        space = make_space(*regions)
        pm = quiet_store(space, budget=5)
        with pytest.raises(ExploreBudgetError):
            explore_from_pointers(pm, (0x10000,))
        assert len(pm.entries) == 5

    def test_dedup_single_probe_per_page(self):
        # two seeds in the same page, page full of self references
        space = make_space((0x10000, PAGE_SIZE, "ru",
                            ptr_page(*([0x10008] * 16))))
        p = quiet_prober()
        explore_from_pointers(PageMap(space, p), (0x10000, 0x10100))
        assert p.counters["taps"] == 1


class TestExploreModes:
    def layout(self):
        return make_space(
            (0x100000, 2 * PAGE_SIZE, "rxu", b"\x90" * 64),
            # 16-page hole
            (0x112000, PAGE_SIZE, "rwu", ptr_page(0x100010)),
            # enormous hole, bridged only by a pointer
            (0x70000000, PAGE_SIZE, "rwu", b""),
        )

    # no frame is on these layouts, so linear fails after its first sweep;
    # the store keeps what that sweep found

    def test_linear_bridges_small_gaps_only(self):
        pm = quiet_store(self.layout(), budget=4096)
        with pytest.raises(NoFrameError):
            explore(pm, "linear", 0x100000)
        assert 0x112000 in pm.accessible_pages()
        assert 0x70000000 not in pm.entries

    def test_linear_respects_the_gap_limit(self):
        pm = quiet_store(self.layout(), budget=4096)
        with patch.object(explorer, "MAX_GAP", 4), pytest.raises(NoFrameError):
            explore(pm, "linear", 0x100000)
        assert 0x112000 not in pm.entries

    def test_pointer_chase_jumps_the_big_hole(self):
        space = make_space(
            (0x100000, PAGE_SIZE, "ru", ptr_page(0x70000000)),
            (0x70000000, PAGE_SIZE, "rwu", b""),
        )
        pm = quiet_store(space)
        explore(pm, "pointer-chase", 0x100000)
        assert 0x70000000 in pm.accessible_pages()

    def test_hybrid_combines_both(self):
        pm = quiet_store(self.layout())
        explore(pm, "hybrid", 0x112008)
        # the sweep finds the data page; the harvest then reaches the code
        assert 0x100000 in pm.accessible_pages()

    def test_unknown_mode(self):
        # argv and the config refuse a mode explore does not know before
        # any stage runs, so explore reads the mode as linear or not
        with patch.object(explorer, "explore", side_effect=AssertionError("explored")):
            code, out, err = run_main(["--image-path", DEMO, "--mode", "dfs"])
        assert (code, out) == (cli.EXIT_STAGE_ERROR, "")
        assert err.startswith("caveprobe: ") and "--mode" in err
        with pytest.raises(ValueError, match="mode must be one of"):
            PipelineConfig(image_path="", mode="dfs")


def transactions(p: Prober) -> tuple[int, int]:
    return p.counters.get("read_tx", 0), p.counters.get("write_tx", 0)


class TestLinearSweepProbes:
    # a gap, 5 writable pages, a 2-page gap, 3 read-only pages, a gap
    RW = 0x20000
    RO = RW + 7 * PAGE_SIZE

    def layout(self):
        return make_space(
            (self.RW, 5 * PAGE_SIZE, "rwu", b""),
            (self.RO, 3 * PAGE_SIZE, "ru", b""),
        )

    def test_exact_transactions_through_explore_stage(self):
        p = quiet_prober()
        pm = PageMap(self.layout(), p)
        with patch.object(explorer, "MAX_GAP", 4), pytest.raises(NoFrameError):
            explore(pm, "linear", self.RW)
        # upward: tap the anchor, claw 4 writable pages (1 write each),
        # claw the far edge (fatal write, fatal tap), tap the next gap page,
        # tap the first read-only page, claw the second (fatal write,
        # committed tap), tap the third, claw the far edge (2), tap 3 gap
        # pages.  Downward: the anchor page is the first neighbour, and it
        # is stored accessible and not read-only, so the gap page below it
        # is clawed (fatal write, fatal tap); then tap 3 gap pages.  A
        # tap-only sweep pays 18 reads.  The walk for a frame then grows
        # the anchor's extent, clawing its tapped first page (1 write); the
        # page below is stored inaccessible, and no frame is on zero pages,
        # so the walk's error ends the sweep.
        assert transactions(p) == (14, 9)
        extents = [region_around(pm, self.RW), region_around(pm, self.RO)]
        assert extents == [(self.RW, self.RW + 5 * PAGE_SIZE),
                           (self.RO, self.RO + 3 * PAGE_SIZE)]
        # the writes left: the read-only extent's tapped first and third
        # pages; a tap-only sweep leaves all 8 pages
        assert transactions(p) == (14, 11)
        kinds = [[r.kind for r in claw_range(pm, lo, hi).runs]
                 for lo, hi in extents]
        assert kinds == [[Writability.WRITABLE], [Writability.READ_ONLY]]
        assert transactions(p) == (14, 11)

    def test_hybrid_sweep_only_taps(self):
        p = quiet_prober()
        explore(PageMap(self.layout(), p), "hybrid", self.RW)
        assert "claws" not in p.counters


class TestProbeOrderRule:
    # PageMap.walk claws a page whose neighbour on the walk's side is
    # stored accessible and not read-only, and taps it otherwise; the
    # sweep and region_around both walk by it

    def test_neighbour_verdict_picks_the_probe(self):
        space = make_space(
            (0x20000, 2 * PAGE_SIZE, "rwu", b""),
            (0x22000, PAGE_SIZE, "ru", b""),
            (0x23000, PAGE_SIZE, "rwu", b""),
        )
        p = Prober(0.0, 0, trace=True)
        pm = PageMap(space, p)

        def walk(base, step):
            # the last hit, and the probe each page got, named by its first
            # transaction: a claw writes first, a tap reads
            start = len(p.trace_log)
            last = pm.walk(base, step, 1, False)
            probes = {}
            for op, addr, _ in p.trace_log[start:]:
                if op.endswith("_tx"):
                    probes.setdefault(addr, "claw" if op == "write_tx" else "tap")
            return last, probes

        assert walk(0x21000, PAGE_SIZE) == (0x23000, {
            0x21000: "tap",     # nothing stored below
            0x22000: "claw",    # tapped accessible below
            0x23000: "tap",     # read-only below
            0x24000: "claw",    # tapped accessible below: the miss ends it
        })
        assert pm.entries[0x22000] is Writability.READ_ONLY
        assert walk(0x20000, -PAGE_SIZE) == (0x20000, {
            0x20000: "claw",    # walking down: tapped above
            0x1F000: "claw",    # writable above: the miss ends it
        })
        assert pm.entries[0x20000] is Writability.WRITABLE
        # tapped accessible, with a writable page below: one write
        assert walk(0x20000, PAGE_SIZE) == (0x23000, {0x21000: "claw"})
        assert pm.entries[0x21000] is Writability.WRITABLE
        # a walk over stored verdicts probes nothing
        spent = dict(p.counters)
        assert walk(0x20000, PAGE_SIZE) == (0x23000, {})
        assert p.counters == spent

    def test_walk_stops_after_gap_misses_and_at_the_user_half_edges(self):
        space = make_space((0, PAGE_SIZE, "ru", b""),
                           (0x20000, PAGE_SIZE, "ru", b""),
                           (0x23000, PAGE_SIZE, "ru", b""),
                           (USER_TOP - PAGE_SIZE, PAGE_SIZE, "ru", b""))
        pm = quiet_store(space)
        # two misses in a row are not three: the walk goes on to 0x23000
        assert pm.walk(0x20000, PAGE_SIZE, 3, False) == 0x23000
        assert list(pm.entries) == [0x20000 + k * PAGE_SIZE for k in range(7)]
        pm = quiet_store(space)
        assert pm.walk(0x20000, PAGE_SIZE, 2, False) == 0x20000
        assert len(pm.entries) == 3
        # no hit: the page before the first
        assert quiet_store(space).walk(0x30000, -PAGE_SIZE, 1, True) == 0x31000
        pm = quiet_store(space)
        assert pm.walk(USER_TOP - PAGE_SIZE, PAGE_SIZE, 64, True) == USER_TOP - PAGE_SIZE
        assert pm.walk(PAGE_SIZE, -PAGE_SIZE, 64, False) == 0
        assert list(pm.entries) == [USER_TOP - PAGE_SIZE, PAGE_SIZE, 0]

    def test_read_only_run_edges_cost_one_read_each(self):
        # three read-only pages between gaps: each page pays a write and a
        # read to settle as read-only, and each edge only the read that
        # finds it inaccessible; clawing the edges paid a write more each
        space = make_space((0x20000, 3 * PAGE_SIZE, "ru", b""))
        p = quiet_prober()
        pm = PageMap(space, p)
        assert region_around(pm, 0x21000) == (0x20000, 0x23000)
        assert transactions(p) == (3 + 2, 3)
        assert [pm.entries[b] for b in (0x1F000, 0x23000)] == [
            Writability.INACCESSIBLE, Writability.INACCESSIBLE]

    @pytest.mark.parametrize("ro_first", [True, False])
    @pytest.mark.parametrize("anchor", [0x20000, 0x21000, 0x23000])
    def test_read_only_page_then_writable_grows_one_extent(self, ro_first, anchor):
        # a read-only page directly below or above three writable ones,
        # grown from either kind: past the read-only page the walk taps,
        # and the page it finds is clawed too, so the extent is whole and
        # each page is stored with its own kind
        ro = 0x20000 if ro_first else 0x23000
        rw = 0x21000 if ro_first else 0x20000
        space = make_space((ro, PAGE_SIZE, "ru", b""),
                           (rw, 3 * PAGE_SIZE, "rwu", b""))
        pm = quiet_store(space)
        assert region_around(pm, anchor) == (0x20000, 0x24000)
        want = dict.fromkeys(range(rw, rw + 3 * PAGE_SIZE, PAGE_SIZE),
                             Writability.WRITABLE)
        want[ro] = Writability.READ_ONLY
        assert {b: pm.entries[b] for b in want} == want
        recon = claw_range(pm, 0x20000, 0x24000)
        assert sorted((r.start, r.end, r.kind) for r in recon.runs) == sorted([
            (ro, ro + PAGE_SIZE, Writability.READ_ONLY),
            (rw, rw + 3 * PAGE_SIZE, Writability.WRITABLE),
        ])


class TestFrameAbove:
    # a frame-pointer chain on the stack whose saved return address is the
    # only way to the code: no other word anywhere points into it, and it
    # lies far past any gap limit
    STACK = 0x7F0000000000
    CODE = 0x400000

    def layout(self, code_perms="rxu"):
        space = make_space(
            (self.CODE, 2 * PAGE_SIZE, code_perms, b""),
            (self.STACK, PAGE_SIZE, "rwu", b""),
        )

        def put(addr, value):
            space.write_bytes(addr, value.to_bytes(8, "little"))

        put(self.STACK + 0xA00, 0)                 # outer frame: terminator
        put(self.STACK + 0x800, self.STACK + 0xA00)
        put(self.STACK + 0x808, self.CODE + 0x234)
        put(self.STACK + 0x7F8, 0xDEAD10CC)        # canary below the slot
        return space

    def test_linear_reaches_code_only_the_return_address_points_to(self):
        pm = quiet_store(self.layout())
        explore(pm, "linear", self.STACK + 0x700)
        assert pm.entries[self.CODE] is Writability.READ_ONLY
        # the second sweep grew the code run past the return address's page
        assert self.CODE + PAGE_SIZE in pm.accessible_pages()

    def test_pointer_chase_and_hybrid_do_not_walk_frames(self):
        # the return address is harvested as a pointer, so its page is
        # found, but nothing sweeps past it
        for mode in ("pointer-chase", "hybrid"):
            pm = quiet_store(self.layout())
            explore(pm, mode, self.STACK + 0x700)
            assert self.CODE in pm.accessible_pages()
            assert self.CODE + PAGE_SIZE not in pm.entries

    def test_walk_claws_the_return_address_page(self):
        p = quiet_prober()
        pm = PageMap(self.layout(), p)
        got = frame_above(pm, self.STACK + 0x700)
        assert got == (self.STACK + 0x800, self.STACK + 0xA00, self.CODE + 0x234)
        assert pm.entries[self.CODE] is Writability.READ_ONLY
        # a second walk finds every verdict stored
        spent = dict(p.counters)
        assert frame_above(pm, self.STACK + 0x700) == got
        assert p.counters == spent

    def test_return_address_on_a_writable_page_is_refused(self):
        space = self.layout(code_perms="rwxu")
        pm = quiet_store(space)
        with pytest.raises(NoFrameError, match="no plausible frame"):
            frame_above(pm, self.STACK + 0x700)
        assert pm.entries[self.CODE] is Writability.WRITABLE
        # linear sweeps from no address the walk refused, and names the
        # missing frame
        pm = quiet_store(space)
        with pytest.raises(NoFrameError, match="no plausible frame"):
            explore(pm, "linear", self.STACK + 0x700)
        assert pm.entries[self.CODE] is Writability.WRITABLE
        assert self.CODE + PAGE_SIZE not in pm.entries

    def test_linear_from_an_inaccessible_stack_pointer_stops_after_its_sweep(self):
        pm = quiet_store(self.layout())
        with pytest.raises(ValueError, match=f"^page {self.STACK - 0x1000:#x} "
                                             "is not accessible$"):
            explore(pm, "linear", self.STACK - 0x1000)
        assert self.STACK in pm.accessible_pages()
        assert self.CODE not in pm.entries


# The paged frame search against the per-slot reference in helpers.py: one
# stack of a few pages over a page of drawn perms, a read-only code page a
# return address can be vouched for on, a second one no probe has stored,
# and a writable page where one is refused.
FRAME_STACK = 0x7F0000000000
FRAME_CODE = 0x400000
FRAME_CODE2 = 0x480000
FRAME_DATA = 0x600000
RIPS = {
    "code": FRAME_CODE, "code2": FRAME_CODE2, "data": FRAME_DATA,
    "unmapped": 0x500000, "kernel": USER_TOP,
}


def frame_stack(stack_pages, below, frames, junk=None) -> AddressSpace:
    """The stack of ``stack_pages`` pages at FRAME_STACK, zero or filled
    with the random words of seed ``junk``, over a page of perms ``below``
    (None: unmapped).  Each of ``frames``, (word index, link, rip kind,
    offset), writes a pair at that word of the stack: a saved rbp ``link``
    words above the slot (0: zero) and a return address ``offset`` bytes
    into the page of the ``RIPS`` kind; pairs written later win."""
    size = stack_pages * PAGE_SIZE
    blob = bytearray(size if junk is None else random.Random(junk).randbytes(size))
    for index, link, kind, offset in frames:
        slot = 8 * (index % (size // 8 - 1))
        rbp = FRAME_STACK + slot + 8 * link if link else 0
        blob[slot:slot + 16] = struct.pack("<QQ", rbp, RIPS[kind] + offset)
    regions = [(FRAME_STACK, size, "rwu", bytes(blob)),
               (FRAME_CODE, PAGE_SIZE, "rxu", b""),
               (FRAME_CODE2, PAGE_SIZE, "ru", b""),
               (FRAME_DATA, PAGE_SIZE, "rwu", b"")]
    if below is not None:
        regions.append((FRAME_STACK - PAGE_SIZE, PAGE_SIZE, below, b""))
    return make_space(*regions)


def frame_search(search, space, stack_ptr, abort_prob=0.0, seed=0):
    """What ``search`` gives on a new store of ``space``: the frame, or the
    NoFrameError text, with the prober's counters and the verdicts stored,
    in the order they were."""
    pm = PageMap(space, Prober(abort_prob, seed))
    try:
        got = search(pm, stack_ptr)
    except NoFrameError as exc:
        got = str(exc)
    return got, pm.prober.counters, list(pm.entries.items())


@given(
    stack_pages=st.integers(1, 3),
    below=st.sampled_from((None, "", "ru", "rwu")),
    sp_page=st.integers(0, 2),
    # every 8-byte offset of a page is drawn as often as any other offset
    sp_off=st.integers(0, PAGE_SIZE // 8 - 1).map(lambda i: 8 * i)
    | st.integers(0, PAGE_SIZE - 1),
    frames=st.lists(st.tuples(
        st.integers(0, 3 * PAGE_SIZE // 8),
        st.integers(0, 600),
        st.sampled_from(sorted(RIPS)),
        st.integers(0, PAGE_SIZE - 1),
    ), max_size=6),
    junk=st.none() | st.integers(0, 2**32 - 1),
    abort_prob=st.sampled_from((0.0, 0.3)),
)
# a pair straddling the end of the stack's first page, above the stack
# pointer, and one below the stack pointer that the search must skip
@example(stack_pages=2, below=None, sp_page=0, sp_off=0x800,
         frames=[(511, 4, "code", 0x234), (100, 4, "code", 0x10)],
         junk=None, abort_prob=0.0)
# the last pair of the stack, at hi - 16, found after a refused one
@example(stack_pages=3, below="rwu", sp_page=1, sp_off=0x7F3,
         frames=[(3 * 512 - 2, 1, "code2", 0x8), (600, 2, "data", 0)],
         junk=None, abort_prob=0.3)
# nothing plausible: the text names the slots and the grown region
@example(stack_pages=2, below="ru", sp_page=1, sp_off=0xFF1,
         frames=[], junk=7, abort_prob=0.0)
def test_paged_frame_search_matches_the_per_slot_reference(
    stack_pages, below, sp_page, sp_off, frames, junk, abort_prob
):
    space = frame_stack(stack_pages, below, frames, junk)
    stack_ptr = FRAME_STACK + (sp_page % stack_pages) * PAGE_SIZE + sp_off
    seed = sp_off
    assert (frame_search(frame_above, space, stack_ptr, abort_prob, seed)
            == frame_search(reference_frame_above, space, stack_ptr, abort_prob, seed))


def test_paged_frame_search_matches_from_every_word_of_a_page():
    # a pair straddling the first page's end and one in the last slot of
    # the second, at hi - 16: a stack pointer below the first finds it,
    # one above finds the last, and one in the top words finds neither
    hi = FRAME_STACK + 2 * PAGE_SIZE
    space = frame_stack(2, "", [(511, 2, "code", 0x40), (1022, 1, "code2", 0x80)])
    found = []
    for stack_ptr in range(FRAME_STACK, hi, 8):
        for unaligned in (0, 3) if stack_ptr % 0x100 == 0 else (0,):
            got = frame_search(frame_above, space, stack_ptr + unaligned)
            assert got == frame_search(reference_frame_above, space, stack_ptr + unaligned)
            found.append(got[0] if isinstance(got[0], str) else got[0][0])
    # below each pair: 511 aligned stack pointers, and 16 unaligned ones
    assert found.count(FRAME_STACK + 0xFF8) == found.count(hi - 16) == 511 + 16
    assert [f for f in found if isinstance(f, str)] == [
        f"no plausible frame above the stack pointer {stack_ptr:#x}: "
        f"scanned {n} slots of the stack region {FRAME_STACK:#x}-{hi:#x}"
        for stack_ptr, n in ((hi - 16, 1), (hi - 8, 0))
    ]


def reference_linear_sweep(space, anchors, gap) -> dict[int, bool]:
    """Pages a tap-only linear sweep stores, in the order it first visits
    them, with the accessibility a perfect observer gives each."""
    seen: dict[int, bool] = {}
    for anchor in anchors:
        for step in (PAGE_SIZE, -PAGE_SIZE):
            base = anchor - anchor % PAGE_SIZE + min(step, 0)
            misses = 0
            while 0 <= base < USER_TOP and misses < gap:
                if base not in seen:
                    page = space.pages.get(base)
                    seen[base] = page is not None and page_class(page.perms) != NONE
                misses = 0 if seen[base] else misses + 1
                base += step
    return seen


@given(
    image_seed=st.integers(0, 2**32 - 1),
    pages=st.sampled_from((4, 16)),
    budget=st.one_of(st.integers(1, 300), st.just(4096)),
    gap=st.sampled_from((1, 3, 64)),
    abort_prob=st.sampled_from((0.0, 0.3)),
)
def test_linear_store_matches_tap_only_sweep(
    image_seed, pages, budget, gap, abort_prob
):
    img = build_victim_image(
        image_seed, code_pages=pages, cave_pages=pages, stack_pages=pages
    )
    space = load_manifest(parse_manifest(img.manifest_text.encode()))
    # the second sweep starts at the saved return address of the frame
    # above the stack pointer
    anchors = (img.truth.stack_pointer, img.truth.saved_rip)
    prober = Prober(abort_prob, image_seed)
    with patch.object(explorer, "MAX_GAP", gap):
        pm = PageMap(space, prober, budget)
        explore(pm, "linear", img.truth.stack_pointer)
    want = list(reference_linear_sweep(space, anchors, gap).items())
    assert [
        (b, v is not Writability.INACCESSIBLE) for b, v in pm.entries.items()
    ] == want[:budget]
    for base, verdict in pm.entries.items():
        if verdict in (Writability.WRITABLE, Writability.READ_ONLY):
            assert verdict.value == page_class(space.pages[base].perms)


def map_stages(pm, mode, stack_pointer, direct):
    """Every probe of cli's probe, explore and caves stages over ``pm``,
    and the frame search the inject stage starts with: the map runs, caves
    and frame found, or the text of the error that ended them.  With
    ``direct``, a sweep from the stack pointer and a classification of
    every third hit and the page above it come first, so the
    classifications and the extent growth meet pages stored as tapped
    accessible; the cave search runs only on the settled store, as it
    probes nothing."""
    out = []
    try:
        explore(pm, mode, stack_pointer)
        if direct:
            explorer._sweep(pm, stack_pointer)
            for base in pm.accessible_pages()[::3]:
                out += claw_range(pm, base, base + 2 * PAGE_SIZE).runs
        hi = 0
        for base in pm.accessible_pages():
            if base >= hi:
                lo, hi = explorer.region_around(pm, base)
                out += claw_range(pm, lo, hi).runs
        out += [caves.find_caves(pm, pm.runs()), frame_above(pm, stack_pointer)]
    except (ExploreBudgetError, ValueError) as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


@given(
    image_seed=st.integers(0, 2**32 - 1),
    pages=st.sampled_from((4, 16)),
    mode=st.sampled_from(MODES),
    aslr=st.booleans(),
    budget=st.one_of(st.integers(1, 300), st.just(4096)),
    abort_prob=st.sampled_from((0.0, 0.3)),
    direct=st.booleans(),
)
def test_walk_matches_the_reference_rule(image_seed, pages, mode, aslr, budget,
                                         abort_prob, direct):
    # the same transactions, retries and verdicts in the same order, the
    # same store in the same order, the same counters, and the same
    # results or error text as the one-page-a-call rule in helpers; and
    # untraced, as the benchmark runs, all of it but the trace
    img = build_victim_image(
        image_seed, code_pages=pages, cave_pages=pages, stack_pages=pages
    )
    space = load_manifest(parse_manifest(img.manifest_text.encode()))
    offset = _aslr_offset(image_seed, space.layout()) if aslr else 0
    space = space.shifted(offset)
    got = []
    for reference, trace in ((False, True), (True, True), (False, False)):
        pm = PageMap(space, Prober(abort_prob, image_seed, trace=trace), budget)
        with reference_walk() if reference else contextlib.nullcontext():
            out = map_stages(pm, mode, img.truth.stack_pointer + offset, direct)
        got.append((out, list(pm.entries.items()), pm.prober.counters,
                    pm.prober.trace_log))
    assert got[0] == got[1]
    assert got[2][:3] == got[1][:3]


@given(
    image_seed=st.integers(0, 2**32 - 1),
    pages=st.sampled_from((4, 16)),
    mode=st.sampled_from(MODES),
    aslr=st.booleans(),
    budget=st.one_of(st.integers(1, 300), st.just(4096)),
    abort_prob=st.sampled_from((0.0, 0.3)),
)
def test_explore_stage_map_matches_the_per_extent_reference(
    image_seed, pages, mode, aslr, budget, abort_prob
):
    # cli's probe and explore stages, which grow every extent and then
    # coalesce the store once, against the probe stage and the explore
    # stage in helpers, which classified each extent as it grew it: the
    # same runs and extent count, or the same error text, with the same
    # transactions, retries and verdicts in the same order, the same store
    # in the same order and the same counters
    img = build_victim_image(
        image_seed, code_pages=pages, cave_pages=pages, stack_pages=pages
    )
    space = load_manifest(parse_manifest(img.manifest_text.encode()))
    offset = _aslr_offset(image_seed, space.layout()) if aslr else 0
    space = space.shifted(offset)
    got = []
    for reference in (True, False):  # the program's store is left in pm
        ctx = Pipeline(PipelineConfig(image_path="", mode=mode))
        ctx.pagemap = PageMap(space, Prober(abort_prob, image_seed, trace=True), budget)
        ctx.stack_pointer = img.truth.stack_pointer + offset
        try:
            cli._probe(ctx)
            if reference:
                out = reference_explore(ctx.pagemap)
            else:
                cli._explore(ctx)
                out = (ctx.report.reconstructed.runs, ctx.report.exploration["extents"])
        except (ExploreBudgetError, ValueError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        pm = ctx.pagemap
        got.append((out, list(pm.entries.items()), pm.prober.counters,
                    pm.prober.trace_log))
    assert got[0] == got[1]
    if isinstance(got[1][0], str):
        return
    # after the explore stage every accessible page holds its claw verdict,
    # and the map, read again, probes nothing
    assert Writability.ACCESSIBLE not in pm.entries.values()
    entries, counters = list(pm.entries.items()), pm.prober.counters
    assert reconstruct_map(pm.runs()).runs == got[1][0][0]
    assert (list(pm.entries.items()), pm.prober.counters) == (entries, counters)


def test_explore_stage_counts_an_extent_of_two_classes_once():
    # code directly below data is one extent of two runs; the stack page,
    # which points at the code, is a second extent
    space = make_space(
        (0x100000, 2 * PAGE_SIZE, "rxu", b""),
        (0x102000, 2 * PAGE_SIZE, "rwu", b""),
        (0x200000, PAGE_SIZE, "rwu", ptr_page(0x100000)),
    )
    ctx = Pipeline(PipelineConfig(image_path="", mode="pointer-chase"))
    ctx.pagemap, ctx.stack_pointer = quiet_store(space), 0x200000
    cli._probe(ctx)
    cli._explore(ctx)
    W, RO = Writability.WRITABLE, Writability.READ_ONLY
    assert ctx.report.reconstructed.runs == (
        PageRun(0x100000, 0x102000, RO),
        PageRun(0x102000, 0x104000, W),
        PageRun(0x200000, 0x201000, W),
    )
    assert ctx.report.exploration["extents"] == 2


@given(
    image_seed=st.integers(0, 2**32 - 1),
    pages=st.sampled_from((4, 16)),
    mode=st.sampled_from(MODES),
    aslr=st.booleans(),
)
def test_explore_stage_counts_the_runs_that_begin_where_none_ends(
    image_seed, pages, mode, aslr
):
    # the extents the explore stage counts as it grows them equal the map
    # runs that do not begin where another ends, the count the map gave
    img = build_victim_image(
        image_seed, code_pages=pages, cave_pages=pages, stack_pages=pages
    )
    space = load_manifest(parse_manifest(img.manifest_text.encode()))
    offset = _aslr_offset(image_seed, space.layout()) if aslr else 0
    space = space.shifted(offset)
    ctx = Pipeline(PipelineConfig(image_path="", mode=mode))
    ctx.pagemap = PageMap(space, Prober(0.001, image_seed))
    ctx.stack_pointer = img.truth.stack_pointer + offset
    assert_extents_are_the_runs_that_begin_where_none_ends(ctx)


@given(st.integers(0, 2**32 - 1))
def test_extents_of_mixed_class_layouts_are_the_runs_that_begin_where_none_ends(
    layout_seed
):
    # regions of different classes touch here, so an extent can hold
    # several runs; the pointer chase starts from a random accessible page
    rng = random.Random(layout_seed)
    space, truth, _, _ = random_permed_space(rng, 64)
    hits = [base for base, cls in truth.items() if cls != NONE]
    if not hits:
        return
    ctx = Pipeline(PipelineConfig(image_path="", mode="pointer-chase"))
    ctx.pagemap, ctx.stack_pointer = quiet_store(space), rng.choice(hits)
    assert_extents_are_the_runs_that_begin_where_none_ends(ctx)


def assert_extents_are_the_runs_that_begin_where_none_ends(ctx: Pipeline) -> None:
    cli._probe(ctx)
    cli._explore(ctx)
    runs = ctx.report.reconstructed.runs
    ends = {run.end for run in runs}
    assert ctx.report.exploration["extents"] == sum(run.start not in ends for run in runs)


class TestRegionAround:
    def test_exact_extent(self):
        space = make_space(
            (0x20000, 3 * PAGE_SIZE, "rwu", b""),
            (0x23000, PAGE_SIZE, "ru", b""),  # adjacent but separate perms
        )
        lo, hi = region_around(quiet_store(space), 0x21234)
        assert (lo, hi) == (0x20000, 0x24000)  # accessibility merges them

    def test_inaccessible_anchor_rejected(self):
        with pytest.raises(ValueError):
            region_around(quiet_store(make_space()), 0x5000)

    def test_writable_run_costs_one_write_per_page(self):
        # five writable pages between two holes: each page of the run is
        # settled by its write; only the two edge pages, whose writes
        # fault, are tapped as well
        space = make_space((0x20000, 5 * PAGE_SIZE, "rwu", b""))
        p = Prober(0.0, 0, trace=True)
        pm = PageMap(space, p)
        assert region_around(pm, 0x22000) == (0x20000, 0x25000)
        assert p.counters["write_tx"] == 5 + 2
        assert p.counters["read_tx"] == 2
        for edge in (0x1F000, 0x25000):
            assert [op for op, addr, _ in p.trace_log
                    if addr == edge and op.endswith("_tx")] == ["write_tx", "read_tx"]
        recon = claw_range(pm, 0x20000, 0x25000)
        assert [r.kind for r in recon.runs] == [Writability.WRITABLE]
        assert p.counters["write_tx"] + p.counters["read_tx"] == 9

    def test_no_page_cap(self):
        # 1,100 pages grown from either end, beyond what a 1,024-page cap
        # per direction reaches
        start, end = 0x100000, 0x100000 + 1100 * PAGE_SIZE
        space = make_space((start, end - start, "ru", b""))
        assert region_around(quiet_store(space), start) == (start, end)
        assert region_around(quiet_store(space), end - 1) == (start, end)


class TestPageMapStore:
    def space(self):
        return make_space(
            (0x10000, PAGE_SIZE, "ru", b""),
            (0x11000, PAGE_SIZE, "rwu", b""),
        )

    def test_second_tap_costs_no_transaction(self):
        p = quiet_prober()
        pm = PageMap(self.space(), p)
        assert pm.tap(0x10000) is True
        assert pm.tap(0x10000) is True
        assert pm.tap(0x20000) is False
        assert pm.tap(0x20000) is False
        assert p.counters["read_tx"] == 2 and p.counters["taps"] == 2

    def test_second_claw_costs_no_transaction(self):
        p = quiet_prober()
        pm = PageMap(self.space(), p)
        for _ in range(2):
            assert pm.claw(0x10000) is Writability.READ_ONLY
            assert pm.claw(0x11000) is Writability.WRITABLE
            assert pm.claw(0x20000) is Writability.INACCESSIBLE
        assert p.counters["claws"] == 3
        assert p.counters["read_tx"] == 2 and p.counters["write_tx"] == 3
        assert pm.entries == {
            0x10000: Writability.READ_ONLY,
            0x11000: Writability.WRITABLE,
            0x20000: Writability.INACCESSIBLE,
        }

    def test_known_accessible_page_costs_one_write_tx(self):
        p = quiet_prober()
        pm = PageMap(self.space(), p)
        pm.tap(0x11000)
        assert pm.entries[0x11000] is Writability.ACCESSIBLE
        before = dict(p.counters)
        assert pm.claw(0x11000) is Writability.WRITABLE
        assert pm.entries[0x11000] is Writability.WRITABLE
        assert p.counters["write_tx"] - before.get("write_tx", 0) == 1
        assert p.counters["read_tx"] == before["read_tx"]
        assert p.counters["claws"] == 1

    def test_tapped_inaccessible_page_claws_free(self):
        p = quiet_prober()
        pm = PageMap(self.space(), p)
        pm.tap(0x20000)
        assert pm.entries[0x20000] is Writability.INACCESSIBLE
        assert pm.claw(0x20000) is Writability.INACCESSIBLE
        assert p.counters.get("claws", 0) == 0
        assert p.counters.get("write_tx", 0) == 0

    def test_budget_refuses_a_new_page_only(self):
        pm = quiet_store(self.space(), budget=1)
        pm.tap(0x10000)
        with pytest.raises(ExploreBudgetError, match="budget of 1 page is spent"):
            pm.tap(0x11000)
        with pytest.raises(ExploreBudgetError):
            pm.claw(0x11000)
        assert pm.claw(0x10000) is Writability.READ_ONLY
        assert list(pm.entries) == [0x10000]

    def test_explore_stops_at_the_budget_it_stores(self):
        space = make_space((0x10000, 8 * PAGE_SIZE, "ru", b""))
        pm = quiet_store(space, budget=3)
        explore(pm, "linear", 0x12000)
        assert len(pm.entries) == 3 and pm.budget == 3

    def test_region_around_reuses_stored_verdicts(self):
        p = quiet_prober()
        pm = PageMap(self.space(), p)
        assert region_around(pm, 0x10000) == (0x10000, 0x12000)
        spent = dict(p.counters)
        assert region_around(pm, 0x11000) == (0x10000, 0x12000)
        recon = claw_range(pm, 0x10000, 0x12000)
        assert [r.kind for r in recon.runs] == [Writability.READ_ONLY,
                                                Writability.WRITABLE]
        assert p.counters == spent


class TestReadGuard:
    """``PageMap.read`` and ``zero_pages`` touch only pages stored accessible."""

    def space(self):
        rng = random.Random(5)
        return make_space(
            (0x10000, PAGE_SIZE, "ru", rng.randbytes(PAGE_SIZE)),
            (0x11000, PAGE_SIZE, "rwu", rng.randbytes(PAGE_SIZE)),
            (0x12000, PAGE_SIZE, "rwu", b""),
            (0x13000, PAGE_SIZE, "", b""),
        )

    def stored(self):
        """A store holding the first three pages as clawed read-only,
        tapped accessible and clawed writable, and the fourth, which is
        mapped, as tapped inaccessible."""
        pm = quiet_store(self.space())
        pm.claw(0x10000)
        pm.tap(0x11000)
        pm.claw(0x12000)
        pm.tap(0x13000)
        assert pm.entries == {
            0x10000: Writability.READ_ONLY,
            0x11000: Writability.ACCESSIBLE,
            0x12000: Writability.WRITABLE,
            0x13000: Writability.INACCESSIBLE,
        }
        return pm

    @staticmethod
    def refuse(*args):
        raise AssertionError("the native space was accessed")

    @contextlib.contextmanager
    def no_native_access(self):
        with patch.object(AddressSpace, "read_bytes", self.refuse), \
                patch.object(AddressSpace, "zero_pages", self.refuse):
            yield

    # (page, whether the store drops it): stored inaccessible, mapped
    # readable but lacked, unmapped and lacked
    REFUSED = [(0x13000, False), (0x12000, True), (0x14000, False)]
    REFUSED_IDS = ["stored-inaccessible", "lacked", "unmapped"]

    @pytest.mark.parametrize("base, drop", REFUSED, ids=REFUSED_IDS)
    def test_refuses_a_page_not_stored_accessible(self, base, drop):
        pm = self.stored()
        if drop:
            del pm.entries[base]
        with self.no_native_access():
            for call, addr in ((lambda: pm.read(base + 8, 16), base + 8),
                               (lambda: pm.zero_pages(base, base + PAGE_SIZE), base)):
                with pytest.raises(MemoryFault) as exc:
                    call()
                assert (exc.value.addr, exc.value.kind) == (addr, "unprobed")

    def test_a_range_across_a_lacked_page_faults_there(self):
        # the pages on either side of it are stored accessible
        pm = self.stored()
        del pm.entries[0x11000]
        with self.no_native_access(), pytest.raises(MemoryFault) as exc:
            pm.zero_pages(0x10000, 0x13000)
        assert (exc.value.addr, exc.value.kind) == (0x11000, "unprobed")

    @pytest.mark.parametrize("base, drop", REFUSED[:2], ids=REFUSED_IDS[:2])
    def test_a_read_straddling_into_a_refused_page_reads_nothing(self, base, drop):
        # from the stored accessible page below it
        pm = self.stored()
        if drop:
            del pm.entries[base]
        with self.no_native_access(), pytest.raises(MemoryFault) as exc:
            pm.read(base - 8, 16)
        assert (exc.value.addr, exc.value.kind) == (base, "unprobed")

    @given(start=st.integers(0x10000, 0x13000), count=st.integers(0, 2 * PAGE_SIZE))
    def test_accessible_pages_read_as_the_space_does(self, start, count):
        pm = self.stored()
        count = min(count, 0x13000 - start)
        assert pm.read(start, count) == pm.space.read_bytes(start, count)
        for base in (0x10000, 0x11000, 0x12000):
            end = base + PAGE_SIZE
            assert pm.zero_pages(base, end) == pm.space.zero_pages(base, end)
        assert pm.zero_pages(0x12000, 0x13000) == b"\1"
        assert pm.zero_pages(0x10000, 0x13000) == pm.space.zero_pages(0x10000, 0x13000)


class TestReconstruct:
    def test_coalesces_the_store_alone(self):
        # stored out of order: runs break at a class change, a miss and an
        # unstored page, and the store and the counters stay as they were
        W, RO, NO = Writability.WRITABLE, Writability.READ_ONLY, Writability.INACCESSIBLE
        entries = {0x16000: RO, 0x10000: W, 0x12000: RO, 0x11000: W,
                   0x13000: NO, 0x14000: RO, 0x17000: RO, 0x15000: NO}
        p = quiet_prober()
        pm = PageMap(make_space(), p, entries=dict(entries))
        assert reconstruct_map(pm.runs()).runs == (
            PageRun(0x10000, 0x12000, W),
            PageRun(0x12000, 0x13000, RO),
            PageRun(0x14000, 0x15000, RO),
            PageRun(0x16000, 0x18000, RO),
        )
        pm.entries[0x1A000] = W
        assert reconstruct_map(pm.runs()).runs[-1] == PageRun(0x1A000, 0x1B000, W)
        assert list(pm.entries.items()) == [*entries.items(), (0x1A000, W)]
        assert p.counters == {}

    def test_coalesces_equal_classes(self):
        space = make_space(
            (0x30000, 2 * PAGE_SIZE, "ru", b""),
            (0x32000, 2 * PAGE_SIZE, "rwu", b""),
        )
        recon = claw_range(quiet_store(space), 0x2F000, 0x35000)
        kinds = [(r.start, r.end, r.kind) for r in recon.runs]
        assert kinds == [
            (0x2F000, 0x30000, Writability.INACCESSIBLE),
            (0x30000, 0x32000, Writability.READ_ONLY),
            (0x32000, 0x34000, Writability.WRITABLE),
            (0x34000, 0x35000, Writability.INACCESSIBLE),
        ]

    def test_all_unmapped_single_run(self):
        recon = claw_range(quiet_store(make_space()), 0x0, 0x8000)
        assert recon.runs == (PageRun(0x0, 0x8000, Writability.INACCESSIBLE),)

    def test_alternating_pages_stay_uncoalesced(self):
        regions = []
        for i in range(6):
            perms = "ru" if i % 2 == 0 else "rwu"
            regions.append((0x40000 + i * PAGE_SIZE, PAGE_SIZE, perms, b""))
        space = make_space(*regions)
        recon = claw_range(quiet_store(space), 0x40000, 0x46000)
        assert len(recon.runs) == 6
        assert all(r.end - r.start == PAGE_SIZE for r in recon.runs)


class TestGroundTruthCompare:
    MAPS = (
        "00100000-00102000 r-xp 00000000 00:00 0\n"
        "00102000-00103000 ---p 00000000 00:00 0\n"
        "00104000-00106000 rw-p 00000000 00:00 0\n"
    )

    def space(self):
        return make_space(
            (0x100000, 2 * PAGE_SIZE, "rxu", b""),
            (0x104000, 2 * PAGE_SIZE, "rwu", b""),
        )

    def check(self, entries):
        store = PageMap(self.space(), quiet_prober(), entries=dict(entries))
        return match_ground_truth(store.runs(), parse_proc_maps(self.MAPS))

    def test_match(self):
        store = quiet_store(self.space())
        claw_range(store, 0x100000, 0x106000)
        assert match_ground_truth(store.runs(), parse_proc_maps(self.MAPS)) == []

    def test_tapped_page_on_readable_region_passes(self):
        assert self.check({0x100000: Writability.ACCESSIBLE}) == []

    def test_tapped_page_on_unreadable_region_fails(self):
        assert self.check({0x102000: Writability.ACCESSIBLE}) == [
            "0x102000-0x103000: probed accessible, truth inaccessible"
        ]

    def test_readonly_claw_on_writable_region_fails(self):
        assert self.check({0x104000: Writability.READ_ONLY}) == [
            "0x104000-0x105000: probed readonly, truth writable"
        ]

    def test_miss_inside_readable_region_fails(self):
        assert self.check({0x101000: Writability.INACCESSIBLE}) == [
            "0x101000-0x102000: probed inaccessible, truth readonly"
        ]

    def test_miss_on_unreadable_region_passes(self):
        assert self.check({0x102000: Writability.INACCESSIBLE}) == []

    def test_empty_store_matches(self):
        assert self.check({}) == []

    def test_mismatch_reported(self):
        # adjacent pages that disagree alike form one run
        got = self.check({
            0x100000: Writability.WRITABLE,
            0x101000: Writability.WRITABLE,
            0x104000: Writability.READ_ONLY,
            0x105000: Writability.INACCESSIBLE,
        })
        assert got == [
            "0x100000-0x102000: probed writable, truth readonly",
            "0x104000-0x105000: probed readonly, truth writable",
            "0x105000-0x106000: probed inaccessible, truth writable",
        ]


VERDICTS = tuple(Writability)
MAPS_PERMS = ("r--p", "rw-p", "r-xp", "rwxp", "---p", "-w-p")


@given(
    regions=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4),
                               st.sampled_from(MAPS_PERMS)), max_size=6),
    batches=st.lists(st.dictionaries(st.integers(0, 40), st.sampled_from(VERDICTS)),
                     min_size=1, max_size=3),
)
# a write-only mapping, which Linux prints -w-, is writable and readable
@example(regions=[(0, 2, "-w-p")], batches=[{0: Writability.WRITABLE,
                                             1: Writability.READ_ONLY}])
def test_ground_truth_compare_matches_a_per_page_oracle(regions, batches):
    # regions as (gap, pages, perms) from page 0 up; verdicts stored in
    # batches, in no order, the store judged after each batch
    lines, extents, page = [], [], 0
    for gap, pages, perms in regions:
        start, page = page + gap, page + gap + pages
        lines.append(f"{start * PAGE_SIZE:08x}-{page * PAGE_SIZE:08x} {perms} 00000000 00:00 0")
        extents.append((start * PAGE_SIZE, page * PAGE_SIZE, perms))
    truth = parse_proc_maps("".join(line + "\n" for line in lines))
    store = PageMap(make_space(), quiet_prober())
    for batch in batches:
        for page, verdict in batch.items():
            store.entries.setdefault(page * PAGE_SIZE, verdict)
        bad = []
        for base in sorted(store.entries):
            want = "inaccessible"
            for lo, hi, perms in extents:
                # a -w- mapping is readable, as the MMU maps PROT_WRITE
                if lo <= base < hi and (perms[0] == "r" or perms[1] == "w"):
                    want = "writable" if perms[1] == "w" else "readonly"
            got = store.entries[base].value
            if got == want or (got == "accessible" and want != "inaccessible"):
                continue
            if bad and bad[-1][1] == base and bad[-1][2:] == [got, want]:
                bad[-1][1] += PAGE_SIZE
            else:
                bad.append([base, base + PAGE_SIZE, got, want])
        assert match_ground_truth(store.runs(), truth) == [
            f"{lo:#x}-{hi:#x}: probed {got}, truth {want}" for lo, hi, got, want in bad
        ]


# --- the stages after the explore stage read the store by runs --------------

class TestRuns:
    def stored(self):
        """A store holding page 0, writable, only tapped, and the writable
        page above it clawed."""
        pm = quiet_store(make_space((0, 2 * PAGE_SIZE, "rwu", b"")))
        pm.claw(0x1000)
        pm.tap(0)
        return pm

    # a claw of page 0 by the store, and by a walk down from it, which
    # ends below it without probing another page
    @pytest.mark.parametrize("settle", [
        lambda pm: pm.claw(0),
        lambda pm: pm.walk(0, -PAGE_SIZE, 1, True),
    ], ids=["claw", "walk"])
    def test_a_claw_of_a_tapped_page_shows_in_the_next_runs(self, settle):
        pm = self.stored()
        assert pm.runs() == [PageRun(0, 0x1000, Writability.ACCESSIBLE),
                             PageRun(0x1000, 0x2000, Writability.WRITABLE)]
        size = len(pm.entries)
        settle(pm)
        assert len(pm.entries) == size
        assert pm.runs() == [PageRun(0, 0x2000, Writability.WRITABLE)]
        pm.tap(0x2000)
        assert pm.runs()[-1] == PageRun(0x2000, 0x3000, Writability.INACCESSIBLE)

    # each probe a (kind, page from the first accessible one, walk gap,
    # claw_hits, window start from that page, window pages); few pages are
    # drawn, so one is often tapped, then clawed
    @given(layout_seed=st.integers(0, 2**32 - 1), probes=st.lists(st.tuples(
        st.sampled_from(["tap", "claw", "walk-up", "walk-down"]),
        st.integers(0, 3), st.integers(1, 2), st.booleans(),
        st.integers(-2, 6), st.integers(0, 4),
    ), max_size=16))
    def test_the_read_gate_follows_the_store_after_every_probe(self, layout_seed, probes):
        space, truth, start, _ = random_permed_space(random.Random(layout_seed), 16)
        first = min((b for b, cls in truth.items() if cls != NONE), default=start)
        pm = quiet_store(space)
        for kind, page, gap, claw_hits, at, pages in probes:
            base = first + page * PAGE_SIZE
            if kind == "tap":
                pm.tap(base)
            elif kind == "claw":
                pm.claw(base)
            else:
                pm.walk(base, PAGE_SIZE if kind == "walk-up" else -PAGE_SIZE, gap, claw_hits)
            entries = pm.entries
            assert pm.accessible_pages() == sorted(
                b for b, v in entries.items() if v is not Writability.INACCESSIBLE)
            # the window [lo, hi) reads only if each of its pages is stored
            # accessible, else faults at the first that is not
            lo = max(first + at * PAGE_SIZE, 0)
            hi = lo + pages * PAGE_SIZE
            lacked = [b for b in range(lo, hi, PAGE_SIZE)
                      if entries.get(b, Writability.INACCESSIBLE) is Writability.INACCESSIBLE]
            if not lacked:
                assert pm.zero_pages(lo, hi) == space.zero_pages(lo, hi)
                continue
            with patch.object(AddressSpace, "zero_pages", TestReadGuard.refuse), \
                    pytest.raises(MemoryFault) as exc:
                pm.zero_pages(lo, hi)
            assert (exc.value.addr, exc.value.kind) == (lacked[0], "unprobed")


# (pages, how the store holds them, their bytes); a hole is neither mapped
# nor stored, a miss is stored inaccessible, mapped without permissions or
# not at all
SEGMENT = st.tuples(
    st.integers(1, 3),
    st.sampled_from(["writable", "readonly", "tapped-writable", "tapped-readonly",
                     "miss-mapped", "miss-unmapped", "hole"]),
    st.sampled_from(["zero", "code", "dirty"]),
)
SEGMENT_PERMS = {"writable": "rwu", "readonly": "rxu", "tapped-writable": "rwu",
                 "tapped-readonly": "ru", "miss-mapped": ""}
SEGMENT_VERDICT = {"writable": Writability.WRITABLE, "readonly": Writability.READ_ONLY,
                   "tapped-writable": Writability.ACCESSIBLE,
                   "tapped-readonly": Writability.ACCESSIBLE,
                   "miss-mapped": Writability.INACCESSIBLE,
                   "miss-unmapped": Writability.INACCESSIBLE}
# each truth region's permissions: as mapped, or another class
TRUTH_PERMS = ("as-mapped", "rwu", "ru", "rxu", "", None)
# bytes the census patterns are made of, so that patterns, and patterns
# straddling two pages, are common
CODE_BYTES = bytes(sorted({b for p in gadgets.GADGETS.values() for b in p})) + b"\x00\x90"


@st.composite
def hand_built_stores(draw):
    """A store whose verdicts are set by hand, and a ground truth for it:
    two classes adjacent in one extent, pages only tapped, misses and holes
    between runs, and truth regions that abut with one class, each as no
    synthetic image has them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space, entries, regions = AddressSpace(), {}, []
    base = 0x10000
    for pages, kind, fill in draw(st.lists(SEGMENT, min_size=1, max_size=8)):
        end = base + pages * PAGE_SIZE
        letters = SEGMENT_PERMS.get(kind)
        if letters is not None:
            if fill == "code":  # with a pattern's bytes on each page boundary
                data = bytearray(rng.choices(CODE_BYTES, k=pages * PAGE_SIZE))
                for cut in range(PAGE_SIZE, len(data), PAGE_SIZE):
                    data[cut - 1 : cut + 1] = rng.choice(list(gadgets.GADGETS.values()))
            else:
                data = bytearray(pages * PAGE_SIZE)
                if fill == "dirty":  # one byte set, in one page of them
                    data[rng.randrange(len(data))] = 1
            space.map_region(base, end - base, PagePermissions.from_rwxu(letters), bytes(data))
        if kind in SEGMENT_VERDICT:
            entries.update(dict.fromkeys(range(base, end, PAGE_SIZE), SEGMENT_VERDICT[kind]))
        # one truth region or two that abut, of the mapped class or another
        truth = draw(st.sampled_from(TRUTH_PERMS))
        if truth is not None:
            letters = (letters or "") if truth == "as-mapped" else truth
            perms = PagePermissions.from_rwxu(letters)
            cut = base + draw(st.integers(0, pages)) * PAGE_SIZE
            regions += [PageRun(lo, hi, perms) for lo, hi in ((base, cut), (cut, end))
                        if lo < hi]
        base = end
    pm = quiet_store(space)
    pm.entries.update(entries)
    return pm, GroundTruthMap(tuple(regions))


@st.composite
def budget_cut_stores(draw):
    """A store a walk filled until its budget was spent, over a random
    layout, and the layout's ground truth."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space, _, start, _ = random_permed_space(
        rng, 32, fill=draw(st.sampled_from(["random", "zero"])))
    pm = quiet_store(space, budget=draw(st.integers(1, 40)))
    try:
        pm.walk(start, PAGE_SIZE, draw(st.integers(1, 8)), draw(st.booleans()))
    except ExploreBudgetError:
        pass
    mapped = sorted(space.pages)
    regions = page_runs(zip(mapped, (space.pages[b].perms for b in mapped)))
    return pm, GroundTruthMap(tuple(regions))


@given(store=st.one_of(hand_built_stores(), budget_cut_stores()),
       need=st.sampled_from([None, *gadgets.CHAINS.values(), ("leave-ret",)]))
def test_run_level_stages_equal_their_page_by_page_references(store, need):
    pm, truth = store
    assert caves.find_caves(pm, pm.runs()) == page_by_page_caves(pm)
    assert match_ground_truth(pm.runs(), truth) == page_by_page_match(pm, truth)
    code = [b for b, v in pm.entries.items() if v is Writability.READ_ONLY]
    runs = [r for r in pm.runs() if r.kind is Writability.READ_ONLY]
    assert gadgets.find_gadgets(pm, runs, need) == page_by_page_census(pm, code, need)
    assert reconstruct_map(pm.runs()).runs == tuple(
        r for r in page_runs((b, pm.entries[b]) for b in sorted(pm.entries))
        if r.kind is not Writability.INACCESSIBLE)


def test_random_layout_agreement():
    # pointer chase against a hand-derived reachability oracle
    rng = random.Random(1234)
    for _ in range(20):
        n = rng.randint(2, 8)
        bases = sorted(
            rng.sample(range(0x1000, 0x40000000 // PAGE_SIZE), n)
        )
        bases = [b * PAGE_SIZE for b in bases]
        targets = {b: rng.choice(bases) for b in bases}
        space = make_space(
            *[(b, PAGE_SIZE, "ru", ptr_page(targets[b])) for b in bases]
        )
        seed = bases[0]
        reach = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            nxt = targets[cur]
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
        pm = explore_from_pointers(quiet_store(space), (seed,))
        assert set(pm.accessible_pages()) == reach
