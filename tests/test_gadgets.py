import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from caveprobe import gadgets
from caveprobe.cli import PipelineConfig
from caveprobe.gadgets import (
    CHAIN_VARIANTS,
    CHAINS,
    GADGETS,
    GadgetCatalog,
    MissingGadgetError,
    build_mprotect_chain,
    find_gadgets,
)
from caveprobe.machine import SYS_MPROTECT
from caveprobe.memspace import PAGE_SIZE, AddressSpace, PagePermissions, page_runs
from helpers import (
    DEMO, make_space, poke, run_demo_pipelines, run_main, runs_of, settled_store,
)


def space_with_code(base: int, code: bytes, pages: int = 1):
    return make_space((base, pages * PAGE_SIZE, "rxu", code))


class TestFindGadgets:
    def test_finds_planted_patterns(self):
        code = bytearray(b"\x90" * PAGE_SIZE)
        code[0x10:0x12] = b"\x5f\xc3"   # pop rdi; ret
        code[0x40:0x42] = b"\x0f\x05"   # syscall
        space = space_with_code(0x400000, bytes(code))
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert cat.found["pop-rdi-ret"] == (0x400010,)
        assert cat.found["syscall"] == (0x400040,)
        assert cat.searched_pages == 1

    def test_overlapping_and_unaligned_occurrences(self):
        # 5f 5f c3: "pop rdi; pop rdi; ret" hides a pop-rdi-ret at +1
        code = b"\x5f\x5f\xc3" + b"\x90" * (PAGE_SIZE - 3)
        space = space_with_code(0x400000, code)
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert cat.found["pop-rdi-ret"] == (0x400001,)

    def test_straddles_adjacent_accessible_pages(self):
        code = b"\x90" * (PAGE_SIZE - 1) + b"\x5f" + b"\xc3" + b"\x90" * (PAGE_SIZE - 1)
        space = space_with_code(0x400000, code, pages=2)
        cat = find_gadgets(settled_store(space), runs_of({0x400000, 0x401000}))
        assert 0x400FFF in cat.found["pop-rdi-ret"]

    def test_no_straddle_when_next_page_unprobed(self):
        code = b"\x90" * (PAGE_SIZE - 1) + b"\x5f" + b"\xc3" + b"\x90" * (PAGE_SIZE - 1)
        space = space_with_code(0x400000, code, pages=2)
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert 0x400FFF not in cat.found["pop-rdi-ret"]

    def test_ignores_pages_not_in_map(self):
        code = b"\x5f\xc3" + b"\x90" * (PAGE_SIZE - 2)
        space = make_space(
            (0x400000, PAGE_SIZE, "rxu", code),
            (0x500000, PAGE_SIZE, "rxu", code),
        )
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert cat.found["pop-rdi-ret"] == (0x400000,)

    def test_addresses_sorted(self):
        code = bytearray(b"\x90" * PAGE_SIZE)
        for off in (0x800, 0x20, 0x400):
            code[off : off + 2] = b"\x5e\xc3"
        space = space_with_code(0x400000, bytes(code))
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert list(cat.found["pop-rsi-ret"]) == sorted(cat.found["pop-rsi-ret"])

    def test_brute_force_agreement(self):
        rng = random.Random(99)
        for _ in range(20):
            blob = rng.randbytes(2 * PAGE_SIZE)
            space = space_with_code(0x400000, blob, pages=2)
            cat = find_gadgets(settled_store(space), runs_of({0x400000, 0x401000}))
            for name, pattern in GADGETS.items():
                expected = []
                pos = blob.find(pattern)
                while pos != -1:
                    expected.append(0x400000 + pos)
                    pos = blob.find(pattern, pos + 1)
                assert list(cat.found[name]) == expected


def brute_force_census(space: AddressSpace, pages: set[int]):
    """Every pattern occurrence, one offset at a time, whose bytes all lie
    in ``pages``; plus the syscall sites whose next byte there is C3."""
    data = {base: space.pages[base].data for base in pages}

    def byte(addr: int) -> int | None:
        page = data.get(addr - addr % PAGE_SIZE)
        return None if page is None else page[addr % PAGE_SIZE]

    specs = [(list(pattern), name) for name, pattern in GADGETS.items()]
    longest = max(len(pattern) for pattern, _ in specs)
    found = {name: [] for _, name in specs}
    into_ret = []
    for base in sorted(pages):
        for addr in range(base, base + PAGE_SIZE):
            window = [byte(addr + i) for i in range(longest + 1)]
            for pattern, name in specs:
                if window[: len(pattern)] == pattern:
                    found[name].append(addr)
                    if name == "syscall" and window[2] == 0xC3:
                        into_ret.append(addr)
    return {k: tuple(v) for k, v in found.items()}, tuple(into_ret)


# bytes that form, or almost form, the patterns, so hits are dense
DENSE = bytes({b for pattern in GADGETS.values() for b in pattern} | {0x90})
FIRST_BYTES = sorted({pattern[0] for pattern in GADGETS.values()})
LAST_BYTES = sorted({pattern[-1] for pattern in GADGETS.values()})
# a first byte of one pattern then the last byte of another: no gadget
CROSS_PAIRS = [b"\x5f\x05", b"\xc9\x05", b"\x0f\xc3"]


@st.composite
def census_cases(draw):
    """Up to eight mapped page slots, some unmapped; a random subset of the
    mapped pages is the census set, so the set has holes where mapped pages
    lie outside it.  Patterns are planted across page ends, and syscall
    sites end exactly at a page end with C3 on the next page.  Cross pairs
    are planted inside pages and across page ends, and a page may end with
    a first pattern byte and start with a last one, so that a run ending
    or starting there has half a pattern at its edge."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    slots = draw(st.integers(1, 8))
    mapped = [i for i in range(slots) if draw(st.booleans())] or [0]
    first = 0x400000
    space = AddressSpace()
    for i in mapped:
        data = bytes(rng.choices(DENSE, k=PAGE_SIZE))
        space.map_region(first + i * PAGE_SIZE, PAGE_SIZE,
                         PagePermissions.from_rwxu("rxu"), data)
    patterns = list(GADGETS.values())
    for i in mapped:
        end = first + (i + 1) * PAGE_SIZE
        nxt = end in space.pages
        kind = draw(st.sampled_from(
            ["straddle", "syscall-end", "last-byte", "cross", "edges", "none"]
        ))
        if kind == "straddle" and nxt:
            poke(space, end - 1, draw(st.sampled_from(patterns)))
        elif kind == "syscall-end":
            poke(space, end - 2, b"\x0f\x05\xc3" if nxt else b"\x0f\x05")
        elif kind == "last-byte":
            poke(space, end - 2, draw(st.sampled_from(patterns)))
        elif kind == "cross":
            pair = draw(st.sampled_from(CROSS_PAIRS))
            off = draw(st.integers(0, PAGE_SIZE - 3))
            poke(space, end - PAGE_SIZE + off, pair)
            if nxt:
                poke(space, end - 1, pair)
        elif kind == "edges":
            poke(space, end - PAGE_SIZE, bytes([draw(st.sampled_from(LAST_BYTES))]))
            poke(space, end - 1, bytes([draw(st.sampled_from(FIRST_BYTES))]))
    chosen = {first + i * PAGE_SIZE for i in mapped if draw(st.booleans())}
    return space, chosen


@given(census_cases())
def test_census_matches_brute_force(case):
    space, pages = case
    cat = find_gadgets(settled_store(space), runs_of(pages))
    found, into_ret = brute_force_census(space, pages)
    assert cat.found == found
    assert cat.syscalls_into_ret == into_ret
    assert cat.searched_pages == len(pages)


@pytest.mark.parametrize("pair", CROSS_PAIRS, ids=lambda pair: pair.hex(" "))
def test_cross_pairs_are_not_gadgets(pair):
    # inside a page and across the end of two adjacent pages
    code = bytearray(b"\x90" * 2 * PAGE_SIZE)
    code[0x10:0x12] = pair
    code[PAGE_SIZE - 1], code[PAGE_SIZE] = pair
    space = space_with_code(0x400000, bytes(code), pages=2)
    cat = find_gadgets(settled_store(space), runs_of({0x400000, 0x401000}))
    assert all(addrs == () for addrs in cat.found.values())
    assert cat.syscalls_into_ret == ()


def test_half_patterns_at_run_edges_are_not_gadgets():
    # a run that starts with a last byte and ends with a first byte: each
    # half's other byte lies on a mapped page outside the census set
    code = bytearray(b"\x90" * 3 * PAGE_SIZE)
    code[PAGE_SIZE - 1 : PAGE_SIZE + 1] = b"\x5f\xc3"
    code[2 * PAGE_SIZE - 1 : 2 * PAGE_SIZE + 1] = b"\x0f\x05"
    space = space_with_code(0x400000, bytes(code), pages=3)
    cat = find_gadgets(settled_store(space), runs_of({0x401000}))
    assert all(addrs == () for addrs in cat.found.values())


def test_every_pattern_translates_to_the_first_then_last_marks():
    for name, pattern in GADGETS.items():
        assert pattern.translate(gadgets._MARKS) == b"\x01\x02", name
    others = bytes(sorted(set(range(256)) - {b for p in GADGETS.values() for b in p}))
    assert others.translate(gadgets._MARKS) == bytes(len(others))


def run_census(space: AddressSpace, pages: set[int]):
    """The census of each maximal run of ``pages`` read as one buffer:
    every pattern occurrence in it, and the syscall sites whose next byte
    in it is C3."""
    kinds = {pattern: name for name, pattern in GADGETS.items()}
    found = {name: [] for name in GADGETS}
    into_ret = []
    for start, end, _ in page_runs((base, None) for base in sorted(pages)):
        buf = space.read_bytes(start, end - start)
        for pos in range(len(buf) - 1):
            name = kinds.get(buf[pos : pos + 2])
            if name is not None:
                found[name].append(start + pos)
                if name == "syscall" and buf[pos + 2 : pos + 3] == b"\xc3":
                    into_ret.append(start + pos)
    return {k: tuple(v) for k, v in found.items()}, tuple(into_ret)


def test_each_page_is_read_once_with_at_most_two_bytes_of_the_next(monkeypatch):
    # three runs: two pages, one page, three pages; the last region's fourth
    # page is mapped but outside the set.  In the last run: a leave-ret
    # across its last page pair, a syscall whose ret is the next page's
    # first byte, and a leave-ret whose ret lies past the set
    code = bytearray(b"\x90" * 4 * PAGE_SIZE)
    code[2 * PAGE_SIZE - 1 : 2 * PAGE_SIZE + 1] = b"\xc9\xc3"
    code[PAGE_SIZE - 2 : PAGE_SIZE + 1] = b"\x0f\x05\xc3"
    code[3 * PAGE_SIZE - 1 : 3 * PAGE_SIZE + 1] = b"\xc9\xc3"
    space = make_space(
        (0x400000, 2 * PAGE_SIZE, "rxu", b""),
        (0x403000, PAGE_SIZE, "rxu", b""),
        (0x405000, 4 * PAGE_SIZE, "rxu", bytes(code)),
    )
    pages = {0x400000, 0x401000, 0x403000, 0x405000, 0x406000, 0x407000}
    pm = settled_store(space)
    reads = []
    real = AddressSpace.read_bytes

    def counted(self, addr, count):
        reads.append((addr, count))
        return real(self, addr, count)

    monkeypatch.setattr(AddressSpace, "read_bytes", counted)
    cat = find_gadgets(pm, runs_of(pages))
    monkeypatch.undo()
    assert sorted(addr for addr, _ in reads) == sorted(pages)
    for addr, count in reads:
        assert count == PAGE_SIZE or (count == PAGE_SIZE + 2 and addr + PAGE_SIZE in pages)
    assert cat.found["leave-ret"] == (0x406FFF,)
    assert cat.syscalls_into_ret == (0x405FFE,)
    assert (cat.found, cat.syscalls_into_ret) == run_census(space, pages)


def planted_code(pages: int, plants: dict[int, bytes]) -> AddressSpace:
    """``pages`` pages of nops at 0x400000 with each byte string in
    ``plants`` written at its offset from there."""
    code = bytearray(b"\x90" * pages * PAGE_SIZE)
    for off, raw in plants.items():
        code[off : off + len(raw)] = raw
    return space_with_code(0x400000, bytes(code), pages)


def census_reads(monkeypatch, space: AddressSpace, need):
    """The census of every page of ``space`` with ``need``, and the
    addresses it read at."""
    pm = settled_store(space)
    reads = []
    real = AddressSpace.read_bytes

    def counted(self, addr, count):
        reads.append(addr)
        return real(self, addr, count)

    monkeypatch.setattr(AddressSpace, "read_bytes", counted)
    cat = find_gadgets(pm, runs_of(space.pages), need)
    monkeypatch.undo()
    return cat, reads


class TestDirectedCensus:
    def test_stops_at_the_first_page_that_completes_the_need(self):
        # page 1 completes the need; its other sites are in the census,
        # page 2's are not
        space = planted_code(3, {
            0x10: GADGETS["pop-rdi-ret"],
            PAGE_SIZE + 0x20: GADGETS["leave-ret"],
            PAGE_SIZE + 0x50: GADGETS["pop-rsi-ret"],
            2 * PAGE_SIZE + 0x30: GADGETS["pop-rdi-ret"],
            2 * PAGE_SIZE + 0x40: GADGETS["leave-ret"],
        })
        cat = find_gadgets(settled_store(space), runs_of(space.pages),
                           ("pop-rdi-ret", "leave-ret"))
        assert cat.searched_pages == 2
        assert cat.found["pop-rdi-ret"] == (0x400010,)
        assert cat.found["leave-ret"] == (0x401020,)
        assert cat.found["pop-rsi-ret"] == (0x401050,)

    def test_a_site_straddling_into_the_next_page_counts_at_the_stop_page(self):
        space = planted_code(2, {
            PAGE_SIZE - 1: GADGETS["pop-rdi-ret"],
            PAGE_SIZE + 0x100: GADGETS["pop-rdi-ret"],
        })
        cat = find_gadgets(settled_store(space), runs_of(space.pages), ("pop-rdi-ret",))
        assert cat.searched_pages == 1
        assert cat.found["pop-rdi-ret"] == (0x400FFF,)

    def test_a_syscall_into_no_ret_does_not_stop_the_scan(self):
        space = planted_code(3, {
            0x10: b"\x0f\x05\x90",
            PAGE_SIZE + 0x20: b"\x0f\x05\xc3",
            2 * PAGE_SIZE + 0x30: b"\x0f\x05\xc3",
        })
        cat = find_gadgets(settled_store(space), runs_of(space.pages), ("syscall",))
        assert cat.searched_pages == 2
        assert cat.found["syscall"] == (0x400010, 0x401020)
        assert cat.syscalls_into_ret == (0x401020,)

    @pytest.mark.parametrize("need, plants", [
        # no leave-ret anywhere
        (("pop-rdi-ret", "leave-ret"),
         {0x10: GADGETS["pop-rdi-ret"], PAGE_SIZE + 0x20: GADGETS["pop-rdi-ret"]}),
        # every syscall falls into a nop
        (("pop-rdi-ret", "syscall"),
         {0x10: GADGETS["pop-rdi-ret"], PAGE_SIZE + 0x20: b"\x0f\x05\x90",
          2 * PAGE_SIZE + 0x30: b"\x0f\x05\x90"}),
    ], ids=["missing-kind", "syscall-into-no-ret"])
    def test_an_unmet_need_gives_the_full_census(self, need, plants):
        space = planted_code(3, plants)
        pm = settled_store(space)
        cat = find_gadgets(pm, runs_of(space.pages), need)
        assert cat == find_gadgets(pm, runs_of(space.pages))
        assert cat.searched_pages == 3
        with pytest.raises(MissingGadgetError):
            cat.require(need)

    def test_searched_pages_counts_only_the_pages_scanned(self, monkeypatch):
        space = planted_code(4, {PAGE_SIZE + 0x20: GADGETS["leave-ret"]})
        cat, reads = census_reads(monkeypatch, space, ("leave-ret",))
        assert reads == [0x400000, 0x401000]
        assert cat.searched_pages == len(reads) == 2
        cat, reads = census_reads(monkeypatch, space, None)
        assert cat.searched_pages == len(reads) == 4


def _census_case(plants: dict[int, bytes]):
    space = planted_code(2, plants)
    return space, set(space.pages)


@given(census_cases(), st.sets(st.sampled_from(sorted(GADGETS)), min_size=1))
# the need is met on the first page, and the census stops before the
# syscall site on the second
@example(_census_case({0x10: GADGETS["leave-ret"], PAGE_SIZE + 0x20: b"\x0f\x05\xc3"}),
         {"leave-ret"})
def test_directed_census_is_a_prefix_with_the_same_lowest_sites(case, need):
    space, pages = case
    need = tuple(sorted(need))
    pm = settled_store(space)
    full, directed = find_gadgets(pm, runs_of(pages)), find_gadgets(pm, runs_of(pages), need)
    for kind, sites in directed.found.items():
        assert full.found[kind][: len(sites)] == sites
    assert full.syscalls_into_ret[: len(directed.syscalls_into_ret)] == directed.syscalls_into_ret
    try:
        full.require(need)
    except MissingGadgetError:
        # unmet: every page scanned, so the same catalog and the same error
        assert directed == full
    else:
        directed.require(need)
        assert all(directed.lowest(k) == full.lowest(k) for k in need)
        if "syscall" in need:  # else the census may stop before any site
            assert directed.syscalls_into_ret[:1] == full.syscalls_into_ret[:1]
        assert 1 <= directed.searched_pages <= full.searched_pages


class TestCatalog:
    def test_lowest(self):
        cat = GadgetCatalog({"syscall": (0x500, 0x900)}, searched_pages=1)
        assert cat.lowest("syscall") == 0x500
        assert cat.lowest("pop-rdi-ret") is None


class TestRequiredKinds:
    def test_variants(self):
        assert "pop-rdx-ret" in CHAINS["sound-5"]
        assert "pop-rdx-ret" not in CHAINS["short-4"]
        assert set(CHAINS["short-4"]) < set(CHAINS["sound-5"])

    def test_unknown_variant(self):
        # argv and the config refuse a variant CHAINS lacks before any
        # stage runs, so every stage indexes CHAINS directly
        assert "five" not in CHAINS
        code, out, err = run_main(["--image-path", DEMO, "--chain-variant", "five"])
        assert (code, out) == (2, "")
        assert err.startswith("caveprobe: ") and "--chain-variant" in err
        with pytest.raises(ValueError, match="chain_variant must be one of"):
            PipelineConfig(image_path="", chain_variant="five")

    def test_variant_constant(self):
        # in this order: perfbench's combos rotate through the variants so
        assert CHAIN_VARIANTS == ("sound-5", "short-4")


def full_catalog() -> GadgetCatalog:
    return GadgetCatalog(
        {
            "pop-rdi-ret": (0x400010,),
            "pop-rsi-ret": (0x400020,),
            "pop-rdx-ret": (0x400030,),
            "pop-rax-ret": (0x400040,),
            "syscall": (0x400050,),
            "leave-ret": (0x400060,),
        },
        searched_pages=1,
        syscalls_into_ret=(0x400050,),
    )


class TestBuildChain:
    def test_sound_variant_word_sequence(self):
        chain = build_mprotect_chain(full_catalog(), 0x700000, 0x2000, 7)
        values = [w.value for w in chain]
        roles = [w.role for w in chain]
        assert values == [
            0x400010, 0x700000,
            0x400020, 0x2000,
            0x400030, 7,
            0x400040, SYS_MPROTECT,
            0x400050,
        ]
        assert roles == ["gadget-address", "immediate"] * 4 + ["gadget-address"]

    def test_short_variant_drops_rdx_pair(self):
        chain = build_mprotect_chain(full_catalog(), 0x700000, 0x2000, 7,
                                     variant="short-4")
        values = [w.value for w in chain]
        assert values == [
            0x400010, 0x700000,
            0x400020, 0x2000,
            0x400040, SYS_MPROTECT,
            0x400050,
        ]

    def test_missing_gadgets_all_named(self):
        # the gadgets stage requires the chain's kinds before any is built
        cat = GadgetCatalog({"pop-rdi-ret": (0x400010,)}, searched_pages=1)
        with pytest.raises(MissingGadgetError) as exc:
            cat.require(CHAINS["sound-5"])
        assert set(exc.value.missing) == {
            "pop-rsi-ret", "pop-rdx-ret", "pop-rax-ret", "syscall"
        }

    def test_alignment_validation(self):
        # build_mprotect_chain trusts its caller: the pipeline passes a cave
        # find_caves gave, page aligned and whole pages long, and a catalog
        # the gadgets stage has already required the chain's kinds of
        calls = []
        build = gadgets.build_mprotect_chain

        def spy(catalog, cave_addr, cave_len, prot_value, variant="sound-5"):
            calls.append((cave_addr, cave_len))
            catalog.require(CHAINS[variant])
            return build(catalog, cave_addr, cave_len, prot_value, variant)

        with patch.object(gadgets, "build_mprotect_chain", spy):
            run_demo_pipelines()
        assert calls
        for cave_addr, cave_len in calls:
            assert cave_addr % PAGE_SIZE == 0
            assert cave_len > 0 and cave_len % PAGE_SIZE == 0

    def test_syscall_site_prefers_ret_fallthrough(self):
        # two syscall sites; only the higher one falls through into a ret
        code = bytearray(b"\x90" * PAGE_SIZE)
        code[0x100:0x102] = b"\x0f\x05"          # bare
        code[0x200:0x203] = b"\x0f\x05\xc3"      # falls into ret
        code[0x300:0x302] = b"\x5f\xc3"
        code[0x310:0x312] = b"\x5e\xc3"
        code[0x320:0x322] = b"\x5a\xc3"
        code[0x330:0x332] = b"\x58\xc3"
        space = space_with_code(0x400000, bytes(code))
        cat = find_gadgets(settled_store(space), runs_of({0x400000}))
        assert cat.found["syscall"] == (0x400100, 0x400200)
        chain = build_mprotect_chain(cat, 0x700000, 0x1000, 7)
        assert chain[-1].value == 0x400200

    @pytest.mark.parametrize("sites", [1, 2])
    def test_no_syscall_into_a_ret_builds_no_chain(self, sites):
        # a syscall site followed by anything but a ret would run on into
        # those bytes: with no other site there is no chain, whatever the
        # census found
        code = bytearray(b"\x90" * PAGE_SIZE)
        for i in range(sites):
            code[0x100 * (i + 1):0x100 * (i + 1) + 3] = b"\x0f\x05\x90"
        for i, kind in enumerate(CHAINS["sound-5"][:-1]):
            code[0x400 + 0x10 * i:0x402 + 0x10 * i] = GADGETS[kind]
        cat = find_gadgets(settled_store(space_with_code(0x400000, bytes(code))), runs_of({0x400000}))
        assert len(cat.found["syscall"]) == sites and cat.syscalls_into_ret == ()
        with pytest.raises(MissingGadgetError) as exc:
            cat.require(CHAINS["sound-5"])
        assert exc.value.missing == ("syscall",)
        assert str(exc.value) == (
            f"none of the {sites} syscall site{'s' * (sites > 1)} found falls into a ret")


def two_site_catalog() -> GadgetCatalog:
    """Two sites of every kind, apart from every other kind's, so each word
    names the kind it came from and that kind's lowest site."""
    found = {name: (0x400000 + 0x100 * i + 0x10, 0x480000 + 0x100 * i)
             for i, name in enumerate(GADGETS)}
    return GadgetCatalog(found, searched_pages=2, syscalls_into_ret=found["syscall"])


@pytest.mark.parametrize("variant", list(CHAINS))
def test_chain_follows_its_table_entry(variant):
    # the words alternate gadget and immediate, the gadgets being each
    # kind's lowest site in table order and the last one the syscall; the
    # immediates fill rdi, rsi, rdx when loaded, then rax
    cat = two_site_catalog()
    chain = build_mprotect_chain(cat, 0x700000, 0x2000, 7, variant)
    assert len(chain) == 2 * len(CHAINS[variant]) - 1
    gadget_words = [w.value for w in chain if w.role == "gadget-address"]
    assert gadget_words == [cat.found[kind][0] for kind in CHAINS[variant]]
    assert CHAINS[variant][-1] == "syscall"
    assert chain[-1].value == cat.found["syscall"][0]
    assert [w.role for w in chain[::2]] == ["gadget-address"] * len(CHAINS[variant])
    immediates = {"pop-rdi-ret": 0x700000, "pop-rsi-ret": 0x2000,
                  "pop-rdx-ret": 7, "pop-rax-ret": SYS_MPROTECT}
    loaded = [kind for kind in immediates if kind in CHAINS[variant]]
    assert [w.value for w in chain[1::2]] == [immediates[k] for k in loaded]
    assert [w.role for w in chain[1::2]] == ["immediate"] * len(loaded)
