from unittest.mock import patch

import pytest

from caveprobe import caves
from caveprobe.caves import NoCaveError, find_caves, select_cave
from caveprobe.explorer import PageMap
from caveprobe.memspace import PAGE_SIZE, PageRun
from caveprobe.probe import ACCESSIBLE, WRITABLE, Prober
from helpers import make_space, run_demo_pipelines, settled_store


class TestFindCaves:
    def test_zero_writable_run_found(self):
        space = make_space((0x100000, 3 * PAGE_SIZE, "rwu", b""))
        caves = find_caves(settled_store(space))
        assert caves == [PageRun(0x100000, 0x103000, WRITABLE)]
        assert caves[0].end == 0x103000

    def test_nonzero_pages_break_runs(self):
        blob = bytes(PAGE_SIZE) + b"\x01" + bytes(PAGE_SIZE - 1) + bytes(PAGE_SIZE)
        space = make_space((0x100000, 3 * PAGE_SIZE, "rwu", blob))
        caves = find_caves(settled_store(space))
        assert caves == [
            PageRun(0x100000, 0x101000, WRITABLE),
            PageRun(0x102000, 0x103000, WRITABLE),
        ]

    def test_read_only_zero_pages_excluded(self):
        space = make_space(
            (0x100000, PAGE_SIZE, "ru", b""),
            (0x101000, PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(settled_store(space))
        assert caves == [PageRun(0x101000, 0x102000, WRITABLE)]

    def test_runs_of_every_length_are_caves(self):
        space = make_space(
            (0x100000, PAGE_SIZE, "rwu", b""),
            (0x200000, 4 * PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(settled_store(space))
        assert caves == [PageRun(0x100000, 0x101000, WRITABLE),
                         PageRun(0x200000, 0x204000, WRITABLE)]

    def test_unprobed_pages_invisible(self):
        space = make_space((0x100000, 2 * PAGE_SIZE, "rwu", b""))
        pm = PageMap(space, Prober(0.0, 0))
        pm.claw(0x100000)
        caves = find_caves(pm)
        assert caves == [PageRun(0x100000, 0x101000, WRITABLE)]

    def test_sorted_by_address(self):
        space = make_space(
            (0x500000, PAGE_SIZE, "rwu", b""),
            (0x100000, PAGE_SIZE, "rwu", b""),
        )
        caves = find_caves(settled_store(space))
        assert [c.start for c in caves] == [0x100000, 0x500000]

    def test_probe_before_read_discipline(self):
        # the search reads only stored verdicts and probes nothing
        space = make_space((0x100000, 2 * PAGE_SIZE, "rwu", b""))
        pm = settled_store(space)
        before = pm.prober.counters
        assert find_caves(pm) == [PageRun(0x100000, 0x102000, WRITABLE)]
        assert pm.prober.counters == before

    def test_a_bare_tap_hit_is_not_clawed_and_is_not_a_cave(self):
        space = make_space((0x100000, 2 * PAGE_SIZE, "rwu", b""))
        tapped = PageMap(space, Prober(0.0, 0),
                         entries=dict.fromkeys(space.pages, ACCESSIBLE))
        assert find_caves(tapped) == []
        assert tapped.prober.counters == {}


class TestSelectCave:
    def test_first_fit_by_address(self):
        # in address order, as find_caves gives them
        caves = [PageRun(0x100000, 0x101000, WRITABLE),
                 PageRun(0x200000, 0x204000, WRITABLE)]
        assert select_cave(caves, 0x800) == PageRun(0x100000, 0x101000, WRITABLE)
        assert select_cave(caves, 0x2000) == PageRun(0x200000, 0x204000, WRITABLE)

    def test_no_fit(self):
        with pytest.raises(NoCaveError) as exc:
            select_cave([PageRun(0x100000, 0x101000, WRITABLE)], 0x2000)
        assert exc.value.need_len == 0x2000

    def test_no_fit_names_the_caves(self):
        caves = [PageRun(0x100000, 0x101000, WRITABLE),
                 PageRun(0x300000, 0x303000, WRITABLE)]
        with pytest.raises(NoCaveError) as exc:
            select_cave(caves, 0x4000)
        assert str(exc.value) == (
            "no cave of at least 0x4000 bytes among 2 caves, of 0x1000, "
            "0x3000 bytes"
        )

    def test_need_len_positive(self):
        # select_cave trusts its caller: forge_fake_frame asks for a
        # positive length, among caves in address order as find_caves
        # gives them
        calls = []
        select = caves.select_cave

        def spy(cave_list, need_len):
            calls.append((list(cave_list), need_len))
            return select(cave_list, need_len)

        with patch.object(caves, "select_cave", spy):
            run_demo_pipelines()
        assert calls
        for cave_list, need_len in calls:
            assert need_len > 0
            assert cave_list == sorted(cave_list, key=lambda c: c.start)
