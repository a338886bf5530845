import pytest

from caveprobe.caves import CaveRegion, NoCaveError, find_caves, select_cave
from caveprobe.explorer import PageMap
from caveprobe.memspace import PAGE_SIZE
from caveprobe.probe import ACCESSIBLE, Prober
from helpers import make_space


def quiet_prober() -> Prober:
    return Prober(0.0, 0)


def pagemap_for(space, prober=None) -> PageMap:
    return PageMap(space, prober or quiet_prober(),
                   entries=dict.fromkeys(space.pages, ACCESSIBLE))


class TestFindCaves:
    def test_zero_writable_run_found(self):
        space = make_space((0x100000, 3 * PAGE_SIZE, "rwu", b""))
        caves = find_caves(pagemap_for(space))
        assert caves == [CaveRegion(0x100000, 3 * PAGE_SIZE)]
        assert caves[0].start + caves[0].length == 0x103000

    def test_nonzero_pages_break_runs(self):
        blob = bytes(PAGE_SIZE) + b"\x01" + bytes(PAGE_SIZE - 1) + bytes(PAGE_SIZE)
        space = make_space((0x100000, 3 * PAGE_SIZE, "rwu", blob))
        caves = find_caves(pagemap_for(space))
        assert caves == [
            CaveRegion(0x100000, PAGE_SIZE),
            CaveRegion(0x102000, PAGE_SIZE),
        ]

    def test_read_only_zero_pages_excluded(self):
        space = make_space(
            (0x100000, PAGE_SIZE, "ru", b""),
            (0x101000, PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(pagemap_for(space))
        assert caves == [CaveRegion(0x101000, PAGE_SIZE)]

    def test_runs_of_every_length_are_caves(self):
        space = make_space(
            (0x100000, PAGE_SIZE, "rwu", b""),
            (0x200000, 4 * PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(pagemap_for(space))
        assert caves == [CaveRegion(0x100000, PAGE_SIZE),
                         CaveRegion(0x200000, 4 * PAGE_SIZE)]

    def test_unprobed_pages_invisible(self):
        space = make_space((0x100000, 2 * PAGE_SIZE, "rwu", b""))
        pm = PageMap(space, quiet_prober(), entries={0x100000: ACCESSIBLE})
        caves = find_caves(pm)
        assert caves == [CaveRegion(0x100000, PAGE_SIZE)]

    def test_sorted_by_address(self):
        space = make_space(
            (0x500000, PAGE_SIZE, "rwu", b""),
            (0x100000, PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(pagemap_for(space))
        assert [c.start for c in caves] == [0x100000, 0x500000]

    def test_probe_before_read_discipline(self):
        space = make_space((0x100000, 2 * PAGE_SIZE, "rwu", b""))
        p = quiet_prober()
        find_caves(pagemap_for(space, p))
        assert p.counters["claws"] == 2


class TestSelectCave:
    def test_first_fit_by_address(self):
        caves = [CaveRegion(0x200000, 0x4000), CaveRegion(0x100000, 0x1000)]
        assert select_cave(caves, 0x800) == CaveRegion(0x100000, 0x1000)
        assert select_cave(caves, 0x2000) == CaveRegion(0x200000, 0x4000)

    def test_no_fit(self):
        with pytest.raises(NoCaveError) as exc:
            select_cave([CaveRegion(0x100000, 0x1000)], 0x2000)
        assert exc.value.need_len == 0x2000

    def test_no_fit_names_the_caves(self):
        caves = [CaveRegion(0x100000, 0x1000), CaveRegion(0x300000, 0x3000)]
        with pytest.raises(NoCaveError) as exc:
            select_cave(caves, 0x4000)
        assert str(exc.value) == (
            "no cave of at least 0x4000 bytes among 2 caves, of 0x1000, "
            "0x3000 bytes"
        )

    def test_need_len_positive(self):
        with pytest.raises(ValueError):
            select_cave([], 0)
