import argparse
import contextlib
import dataclasses
import errno
import functools
import io
import json
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import types
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from caveprobe import cli, explorer, gadgets, injector, machine, memspace, synth
from caveprobe.cli import (
    EXIT_OK,
    EXIT_STAGE_ERROR,
    MODES,
    RESTORE_MODES,
    STAGE_COUNTERS,
    Pipeline,
    PipelineConfig,
    StageError,
    emit_report,
    main,
    run_pipeline,
)
from caveprobe.gadgets import CHAIN_VARIANTS
from caveprobe.memspace import _ZERO_PAGE, PAGE_SIZE, USER_TOP, AddressSpace, Page
from caveprobe.probe import READ_ONLY, WRITABLE, ProbeOutcome, Prober, Writability
from caveprobe.synth import build_victim_image
from helpers import page_bytes, read_image, runs_of, settled_store

REPO = Path(__file__).resolve().parent.parent
DEMO = str(REPO / "images" / "demo.json")
DEMO_MAPS = str(REPO / "images" / "demo.maps")


@pytest.fixture(scope="module")
def image_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("images")
    img = build_victim_image(21)
    manifest = tmp / "victim.json"
    maps = tmp / "victim.maps"
    manifest.write_text(img.manifest_text)
    maps.write_text(img.maps_text)
    return str(manifest), str(maps), img.truth


def demo_without_caves(folder: Path) -> str:
    """A copy of the demo image with a non-zero first byte on every zero
    writable page, so no zero run is left to be a cave."""
    doc = json.loads(Path(DEMO).read_text())
    for region in doc["regions"]:
        if "w" in region["perms"]:
            blob = bytearray.fromhex(region.get("data", ""))
            blob += bytes(int(region["len"], 16) - len(blob))
            for off in range(0, len(blob), PAGE_SIZE):
                if not any(blob[off : off + PAGE_SIZE]):
                    blob[off] = 1
            region["data"] = blob.hex()
    manifest = folder / "no-caves.json"
    manifest.write_text(json.dumps(doc))
    return str(manifest)


def base_config(image_paths, **kw):
    manifest, maps, _ = image_paths
    kw.setdefault("image_path", manifest)
    kw.setdefault("ground_truth_path", maps)
    kw.setdefault("seed", 5)
    return PipelineConfig(**kw)


class TestConfigValidation:
    def test_mode_checked(self, image_paths):
        with pytest.raises(ValueError):
            base_config(image_paths, mode="spiral")

    def test_stop_after_checked(self, image_paths):
        with pytest.raises(ValueError):
            base_config(image_paths, stop_after="cleanup")

    def test_restore_checked(self, image_paths):
        with pytest.raises(ValueError):
            base_config(image_paths, restore="partial")

    def test_explore_budget_checked(self, image_paths):
        with pytest.raises(ValueError):
            base_config(image_paths, explore_budget=0)

    @pytest.mark.parametrize("prob", [-0.1, 1.0, float("nan")])
    def test_spurious_prob_checked(self, image_paths, prob):
        with pytest.raises(ValueError):
            base_config(image_paths, spurious_prob=prob)


class TestPipeline:
    def test_full_run_all_verdicts(self, image_paths):
        report = run_pipeline(base_config(image_paths))
        assert list(report.stage_counters) == ["probe", "explore", "gadgets", "caves",
                                               "inject", "execute"]
        assert report.verdicts == {
            "map-match": True,
            "restoration": True,
            "cleanup-zeroed": True,
            "marker-written": True,
            "canary-intact": True,
        }
        assert report.all_verdicts_pass()

    def test_resume_state_matches_victim_truth(self, image_paths):
        _, _, truth = image_paths
        pipe = Pipeline(base_config(image_paths))
        report = pipe.run()
        offset = report.aslr_offset
        assert int(report.run["final-rip"], 16) == truth.saved_rip + offset
        assert int(report.run["final-rbp"], 16) == truth.saved_rbp + offset
        assert int(report.run["final-rsp"], 16) == truth.victim_slot + 16 + offset

    def test_stop_after_probe_reads_only(self, image_paths):
        report = run_pipeline(base_config(image_paths, stop_after="probe"))
        assert list(report.stage_counters) == ["probe"]
        assert report.probe_counters.get("write_tx", 0) == 0
        assert report.probe_counters.get("claws", 0) == 0
        assert report.verdicts == {}

    def test_run_context_declares_every_attribute(self, image_paths):
        pipe = Pipeline(base_config(image_paths))
        pipe.run()
        assert pipe.pagemap.entries and pipe.image.marker is not None
        with pytest.raises(AttributeError):
            pipe.undeclared = 1

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("image_seed", [3, 21, 40])
    def test_gadgets_search_the_readonly_runs(self, monkeypatch, tmp_path,
                                              mode, image_seed):
        # the gadgets stage takes its runs from the store: exactly the
        # report's readonly runs, so exactly their pages
        real = gadgets.find_gadgets
        searched = []

        def recording(pm, runs, need=None):
            searched.append(list(runs))
            return real(pm, searched[-1], need)

        monkeypatch.setattr(gadgets, "find_gadgets", recording)
        manifest = tmp_path / "victim.json"
        manifest.write_text(build_victim_image(image_seed).manifest_text)
        report = run_pipeline(PipelineConfig(
            image_path=str(manifest), mode=mode, seed=image_seed,
            stop_after="gadgets",
        ))
        readonly = [
            base
            for run in report.reconstructed.runs
            if run.kind is Writability.READ_ONLY
            for base in range(run.start, run.end, 0x1000)
        ]
        (runs,) = searched
        assert runs == [r for r in report.reconstructed.runs
                        if r.kind is Writability.READ_ONLY]
        pages = [base for run in runs for base in range(run.start, run.end, 0x1000)]
        assert readonly and sorted(pages) == sorted(readonly)

    def test_stage_order_stops_midway(self, image_paths):
        report = run_pipeline(base_config(image_paths, stop_after="caves"))
        assert list(report.stage_counters)[-1] == "caves"
        assert report.cave_list
        assert report.run == {}

    def test_probes_find_the_planted_cave(self, image_paths):
        _, _, truth = image_paths
        pipe = Pipeline(base_config(image_paths, stop_after="caves"))
        report = pipe.run()
        starts = [c.start - report.aslr_offset for c in report.cave_list]
        assert truth.cave_start in starts

    def test_missing_gadget_stage_error(self, tmp_path):
        img = build_victim_image(22, omit_gadgets=("syscall",))
        manifest = tmp_path / "no-syscall.json"
        manifest.write_text(img.manifest_text)
        with pytest.raises(StageError) as exc:
            run_pipeline(PipelineConfig(image_path=str(manifest), seed=1))
        assert exc.value.stage == "gadgets"
        assert "syscall" in str(exc.value)

    def test_syscall_into_no_ret_is_one_line_gadgets_error(self, tmp_path, capsys):
        # the demo with a nop after its one syscall site: a chain through
        # it would run on past the syscall, so the gadgets stage refuses
        # the census before anything is injected
        doc = json.loads(Path(DEMO).read_text())
        code = bytearray.fromhex(doc["regions"][0]["data"])
        assert code.count(b"\x0f\x05") == code.count(b"\x0f\x05\xc3") == 1
        code[code.index(b"\x0f\x05\xc3") + 2] = 0x90
        doc["regions"][0]["data"] = code.hex()
        manifest = tmp_path / "hanging-syscall.json"
        manifest.write_text(json.dumps(doc))
        for variant in CHAIN_VARIANTS:
            assert main(["--image-path", str(manifest), "--seed", "1",
                         "--chain-variant", variant]) == EXIT_STAGE_ERROR
            assert capsys.readouterr().err == (
                "caveprobe: stage 'gadgets' failed: none of the 1 syscall "
                "site found falls into a ret\n"
            )

    def test_code_that_is_not_executable_reports_its_trap(self, tmp_path, capsys):
        # the demo with its code region readable but not executable: the
        # epilogue's first fetch traps before anything moves rsp, so the
        # run reports the trap's reason and the host's own stack pointer,
        # shifted by the run's ASLR offset
        doc = json.loads(Path(DEMO).read_text())
        doc["regions"][0]["perms"] = "ru"
        manifest = tmp_path / "code-ru.json"
        manifest.write_text(json.dumps(doc))
        stack_pointer = int(doc["seeds"]["stack_pointer"], 16)
        for flags in ([], ["--no-aslr"]):
            code = main(["--image-path", str(manifest), "--seed", "1", *flags])
            report = json.loads(capsys.readouterr().out)
            assert code == cli.EXIT_VERDICT_FAILURE
            run = report["run"]
            assert (run["status"], run["stop-reason"], run["trap-reason"]) == (
                "trapped", "halted", "nx-fetch")
            offset = int(report["aslr-offset"], 16)
            assert (offset != 0) == (flags == [])
            assert run["final-rsp"] == f"{stack_pointer + offset:#x}"

    def test_chain_only_restores_without_cleanup(self, image_paths):
        report = run_pipeline(base_config(image_paths, restore="chain-only"))
        assert report.verdicts["restoration"]
        assert "cleanup-zeroed" not in report.verdicts
        assert "marker-written" not in report.verdicts
        assert report.verdicts["canary-intact"]

    def test_short_chain_variant(self, image_paths):
        report = run_pipeline(base_config(image_paths, chain_variant="short-4"))
        assert report.all_verdicts_pass()
        roles = [w["role"] for w in report.injection["chain-words"]]
        assert len(roles) == 9  # saved-rbp + 7 chain words + continuation

    def test_no_aslr_keeps_manifest_addresses(self, image_paths):
        _, _, truth = image_paths
        report = run_pipeline(base_config(image_paths, aslr=False))
        assert report.aslr_offset == 0
        assert int(report.injection["resume-rip"], 16) == truth.saved_rip

    @pytest.mark.parametrize("aslr", [True, False])
    @pytest.mark.parametrize("restore", RESTORE_MODES)
    def test_reported_overwritten_words_are_the_saved_pair(
        self, tmp_path, restore, aslr
    ):
        img = build_victim_image(7)
        manifest = tmp_path / "victim.json"
        manifest.write_text(img.manifest_text)
        report = run_pipeline(PipelineConfig(
            image_path=str(manifest), seed=4, restore=restore, aslr=aslr,
        ))
        offset = report.aslr_offset
        assert report.injection["overwritten"] == [
            f"{img.truth.saved_rbp + offset:#x}",
            f"{img.truth.saved_rip + offset:#x}",
        ]

    def test_aslr_offsets_differ_by_seed(self, image_paths):
        r1 = run_pipeline(base_config(image_paths, seed=11))
        r2 = run_pipeline(base_config(image_paths, seed=12))
        assert r1.aslr_offset != r2.aslr_offset
        assert r1.all_verdicts_pass() and r2.all_verdicts_pass()

    def test_every_mode_succeeds(self, image_paths):
        for mode in ("linear", "pointer-chase", "hybrid"):
            report = run_pipeline(base_config(image_paths, mode=mode))
            assert report.all_verdicts_pass(), mode

    def test_aslr_redraws_when_the_shift_overflows(self):
        # the first 2**28-page draw for this seed pushes the demo stack past
        # the user half; the redraw must land the image inside it
        report = run_pipeline(PipelineConfig(
            image_path=str(REPO / "images" / "demo.json"),
            ground_truth_path=str(REPO / "images" / "demo.maps"),
            seed=156229,
        ))
        assert report.aslr_offset > 0
        assert report.all_verdicts_pass()

    @pytest.mark.parametrize("restore", ["payload", "chain-only"])
    def test_stop_waits_for_the_finished_chain(self, tmp_path, restore):
        # the lowest pop-rax-ret's ret byte is this image's saved rip, so
        # rip reaches the resume address mid-chain, before the syscall
        img = build_victim_image(342514169, code_pages=64, cave_pages=64,
                                 stack_pages=64)
        manifest = tmp_path / "ret-at-resume.json"
        manifest.write_text(img.manifest_text)
        report = run_pipeline(PipelineConfig(
            image_path=str(manifest), seed=1, restore=restore,
        ))
        resume = int(report.injection["resume-rip"], 16)
        assert report.gadget_census["pop-rax-ret"][0] + 1 == resume
        syscalls = [e["name"] for e in report.run["side-effects"]
                    if e["kind"] == "syscall"]
        assert syscalls == ["mprotect"]
        assert report.all_verdicts_pass()

    def test_stage_counters_sum_to_probe_counters(self):
        report = run_pipeline(PipelineConfig(
            image_path=DEMO, ground_truth_path=DEMO_MAPS, seed=3,
        ))
        by_stage = emit_report(report)
        by_stage = json.loads(by_stage)["probe-counters-by-stage"]
        assert list(by_stage) == sorted(report.stage_counters)
        for key in STAGE_COUNTERS:
            total = sum(counts[key] for counts in by_stage.values())
            assert total == report.probe_counters.get(key, 0), key
        # every page the caves stage looks at was clawed while exploring
        assert by_stage["caves"] == dict.fromkeys(STAGE_COUNTERS, 0)

    @pytest.mark.parametrize("mode, synth", [
        *(pytest.param(mode, False, id=mode) for mode in MODES),
        *(pytest.param(mode, True, id=f"synth-16-{mode}") for mode in MODES),
    ])
    def test_inject_stage_pays_no_transactions(self, tmp_path, mode, synth):
        # the explore stage leaves every accessible page clawed, so no later
        # stage probes: the census and the cave search read stored verdicts,
        # and inject checks the cave and stack pages through the store and
        # makes its two writes without a probe.  On the demo image without
        # aborts, and on a 16-page synth image with 30% of them
        image, maps, prob = DEMO, DEMO_MAPS, 0.0
        if synth:
            img = build_victim_image(5, code_pages=16, cave_pages=16, stack_pages=16)
            image, maps, prob = tmp_path / "synth-16.json", tmp_path / "synth-16.maps", 0.3
            image.write_text(img.manifest_text)
            maps.write_text(img.maps_text)
        report = run_pipeline(PipelineConfig(
            image_path=str(image), ground_truth_path=str(maps), mode=mode,
            spurious_prob=prob,
        ))
        assert report.all_verdicts_pass()
        assert (report.probe_counters.get("retries", 0) > 0) == synth
        for stage in ("gadgets", "caves", "inject", "execute"):
            assert report.stage_counters[stage] == {
                "read_tx": 0, "write_tx": 0, "retries": 0}, stage
        assert report.probe_counters["safe_writes"] == 2

    @pytest.mark.parametrize("mode", ["linear", "pointer-chase", "hybrid"])
    def test_each_probe_settles_once_per_page(self, monkeypatch, mode):
        # over the whole run's trace: no stage, inject included, probes a
        # page the store already settled
        monkeypatch.setattr(cli, "Prober", functools.partial(Prober, trace=True))
        pipe = Pipeline(PipelineConfig(
            image_path=DEMO, ground_truth_path=DEMO_MAPS, seed=4, mode=mode,
            spurious_prob=0.2,
        ))
        assert pipe.run().all_verdicts_pass()
        assert pipe.pagemap.prober.counters["safe_writes"] == 2
        settled = [
            (op, addr & ~0xFFF)
            for op, addr, out in pipe.pagemap.prober.trace_log
            if op in ("read_tx", "write_tx")
            and out is not ProbeOutcome.RETRYABLE_ABORT
        ]
        assert len(settled) == len(set(settled))

    @pytest.mark.parametrize("mode", MODES)
    def test_each_run_searches_for_the_victim_frame_once(self, monkeypatch, tmp_path, mode):
        # linear finds the frame in its probe stage, to reach the code, and
        # keeps it for the inject stage; the other modes search only there
        searched = []
        search = explorer.frame_above

        def spy(pm, stack_ptr):
            searched.append(stack_ptr)
            return search(pm, stack_ptr)

        monkeypatch.setattr(explorer, "frame_above", spy)
        img = build_victim_image(5, code_pages=16, cave_pages=16, stack_pages=16)
        synth_16 = tmp_path / "synth-16.json"
        synth_16.write_text(img.manifest_text)
        for image, seed, prob in ((DEMO, 3, 0.0), (synth_16, 4, 0.3)):
            config = PipelineConfig(image_path=str(image), mode=mode, seed=seed,
                                    spurious_prob=prob)
            searched.clear()
            pipe = Pipeline(config)
            assert pipe.run().all_verdicts_pass()
            assert searched == [pipe.stack_pointer]
            # the store as the inject stage meets it: a new search of it
            # finds the frame the run used, and pays no transaction
            kept = Pipeline(dataclasses.replace(config, stop_after="caves"))
            kept.run()
            assert kept.victim == (pipe.victim if mode == "linear" else None)
            spent = kept.pagemap.prober.counters
            assert injector.locate_victim_frame(kept.pagemap, kept.stack_pointer) == pipe.victim
            assert kept.pagemap.prober.counters == spent

    @pytest.mark.parametrize("mode", ["linear", "hybrid"])
    def test_large_region_is_one_run(self, tmp_path, mode):
        # a code region longer than 1,024 pages is grown in full, once
        img = build_victim_image(3, code_pages=1100)
        manifest = tmp_path / "big-code.json"
        manifest.write_text(img.manifest_text)
        report = run_pipeline(PipelineConfig(
            image_path=str(manifest), mode=mode, stop_after="explore",
        ))
        code_start, code_len, _ = img.truth.regions["code"]
        start = code_start + report.aslr_offset
        runs = sorted(report.reconstructed.runs, key=lambda r: r.start)
        assert [(r.start, r.end) for r in runs if r.start <= start < r.end] == [
            (start, start + 1100 * 0x1000)
        ]
        assert code_len == 1100 * 0x1000
        assert all(a.end <= b.start for a, b in zip(runs, runs[1:]))

    def test_reading_an_image_peaks_below_its_file_and_its_pages(self, tmp_path):
        # the file's bytes, the decoded blobs and the pages: never a second
        # copy of the file as text or as parsed hex strings
        manifest = tmp_path / "victim.json"
        manifest.write_text(build_victim_image(
            5, code_pages=64, cave_pages=64, stack_pages=64).manifest_text)
        tracemalloc.start()
        try:
            space, _ = read_image(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < manifest.stat().st_size + len(space.pages) * PAGE_SIZE

    def test_reading_an_image_allocates_only_the_pages_that_hold_data(self, tmp_path):
        # all-zero pages share one object and decoded pages are kept as
        # they are, so past the file's bytes the peak is the pages that hold
        # data and at most 256 bytes of bookkeeping for each page
        manifest = tmp_path / "victim.json"
        manifest.write_text(build_victim_image(
            5, code_pages=64, cave_pages=64, stack_pages=64).manifest_text)
        tracemalloc.start()
        try:
            space, _ = read_image(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = [page for page in space.pages.values() if page.data != bytes(PAGE_SIZE)]
        assert (len(space.pages), len(data)) == (200, 71)
        assert peak < (manifest.stat().st_size + len(data) * PAGE_SIZE
                       + len(space.pages) * 256)

    @pytest.mark.parametrize("seed", [5, 12, 40])
    def test_loading_and_the_census_hold_no_copy_of_the_file(self, tmp_path, seed):
        # the manifest is read a chunk at a time and the census a page at a
        # time: loading peaks below the file's size, and the census below
        # 16 pages, though the code run is 64 pages
        manifest = tmp_path / "victim.json"
        manifest.write_text(build_victim_image(
            seed, code_pages=64, cave_pages=64, stack_pages=64).manifest_text)
        tracemalloc.start()
        try:
            space, _ = read_image(manifest)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        code = [base for base, page in space.pages.items()
                if page.perms.user_accessible and page.perms.readable
                and not page.perms.writable]
        assert len(code) > 64
        pm = settled_store(space)
        tracemalloc.start()
        try:
            gadgets.find_gadgets(pm, runs_of(code))
            _, census_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_peak < manifest.stat().st_size
        assert census_peak < 16 * PAGE_SIZE

    def test_bad_image_path_is_load_stage_error(self):
        with pytest.raises(StageError) as exc:
            run_pipeline(PipelineConfig(image_path="/nonexistent.json"))
        assert exc.value.stage == "load"


# JSON values with the awkward cases spelled out: escapes, lone
# surrogates, ints past 64 bits, floats json writes specially
_TEXT = (
    st.text()
    | st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))
    | st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\u2028",
                       "caf\u00e9 \u20ac \U0001f600", "\ud800x\udfff"])
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, -(2**64), 2**64, 2**200, -(10**40)])
    | st.floats()
    | st.sampled_from([0.001, -0.0, 1e300, 1e-300, 0.1])
    | _TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


class TestReportRendering:
    def test_json_deterministic(self, image_paths):
        cfg = base_config(image_paths)
        a = emit_report(run_pipeline(cfg), "json")
        b = emit_report(run_pipeline(cfg), "json")
        assert a == b
        parsed = json.loads(a)
        assert parsed["tool"] == "caveprobe"
        assert parsed["verdicts"]["restoration"] is True

    def test_text_format(self, image_paths):
        text = emit_report(run_pipeline(base_config(image_paths)), "text")
        assert "verdicts:" in text
        assert "restoration: pass" in text

    def test_text_leaves_out_an_empty_cave_list(self, tmp_path):
        report = run_pipeline(PipelineConfig(
            image_path=demo_without_caves(tmp_path), stop_after="caves"
        ))
        assert json.loads(emit_report(report, "json"))["caves"] == []
        assert "caves:" not in emit_report(report, "text")

    @given(value=JSON_VALUES)
    def test_json_is_what_the_stdlib_writes(self, value):
        # emit_report renders whatever to_json_obj() returns
        report = types.SimpleNamespace(to_json_obj=lambda: value)
        assert emit_report(report, "json") == (
            json.dumps(value, indent=2, sort_keys=True) + "\n"
        )

    def test_unknown_format(self, capsys):
        # argparse's choices refuse a format emit_report does not know
        # before any stage runs or any report is rendered
        with patch.object(cli, "emit_report", side_effect=AssertionError("rendered")):
            assert main(["--image-path", DEMO, "--format", "yaml"]) == EXIT_STAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("caveprobe: ") and "--format" in captured.err


def assert_same_report_as_demo(manifest: Path) -> None:
    """The default JSON report of ``manifest`` is the demo image's, but for
    the image path it records."""
    reports = []
    for path in (DEMO, str(manifest)):
        out = manifest.parent / "r.json"
        assert main(["--image-path", path, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"].pop("image-path") == path
        reports.append(doc)
    assert reports[0] == reports[1]


REFUSED_REGION = (
    "caveprobe: stage 'load' failed: region 0: \"file\" and \"offset\" are "
    'not supported; give the bytes as hex "data"\n'
)


def assert_region_refused(tmp_path: Path, capsys, **keys) -> None:
    """A synth image whose region 0 holds ``keys`` exits 2 with the one
    refusal line."""
    doc = json.loads(build_victim_image(21).manifest_text)
    doc["regions"][0].update(keys)
    manifest = tmp_path / "victim.json"
    manifest.write_text(json.dumps(doc))
    assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
    assert capsys.readouterr().err == REFUSED_REGION


class TestMain:
    def test_exit_zero_and_output_file(self, image_paths, tmp_path):
        manifest, maps, _ = image_paths
        out = tmp_path / "report.json"
        code = main([
            "--image-path", manifest,
            "--ground-truth-path", maps,
            "--seed", "5",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verdicts"]["map-match"] is True

    def test_text_report_file_keeps_an_image_path_that_is_not_utf8(self, tmp_path):
        # argv holds the name's byte 0xff as a surrogate; the text report
        # file gets the bytes a UTF-8 stdout gets for it
        manifest = tmp_path / "demo\udcff.json"
        manifest.write_bytes(Path(DEMO).read_bytes())
        out = tmp_path / "report.txt"
        stdout = io.TextIOWrapper(io.BytesIO(), "utf-8", "surrogateescape")
        with patch.object(sys, "stdout", stdout):
            assert main(["--image-path", str(manifest), "--format", "text"]) == EXIT_OK
        stdout.flush()
        shown = stdout.buffer.getvalue()
        assert main(["--image-path", str(manifest), "--format", "text",
                     "--out", str(out)]) == EXIT_OK
        assert b"demo\xff.json" in shown
        assert out.read_bytes() == shown

    def test_exit_two_on_stage_error(self, tmp_path, capsys):
        img = build_victim_image(23, omit_gadgets=("pop-rdi-ret",))
        manifest = tmp_path / "broken.json"
        manifest.write_text(img.manifest_text)
        code = main(["--image-path", str(manifest)])
        assert code == EXIT_STAGE_ERROR
        assert "pop-rdi-ret" in capsys.readouterr().err

    def test_seed_from_environment(self, image_paths, tmp_path, monkeypatch):
        manifest, _, _ = image_paths
        monkeypatch.setenv("CAVEPROBE_SEED", "77")
        out = tmp_path / "r.json"
        assert main(["--image-path", manifest, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == 77

    def test_seed_flag_overrides_environment(self, image_paths, tmp_path,
                                             monkeypatch):
        manifest, _, _ = image_paths
        monkeypatch.setenv("CAVEPROBE_SEED", "77")
        out = tmp_path / "r.json"
        main(["--image-path", manifest, "--seed", "5", "--out", str(out)])
        assert json.loads(out.read_text())["config"]["seed"] == 5

    @pytest.mark.parametrize(
        "seeds, field",
        [
            ({"return_site": "0x400000"}, "seeds.stack_pointer"),
            ({"return_site": "0x400000", "stack_pointer": "7fz0"},
             "seeds.stack_pointer"),
            ({"return_site": "0x400000", "stack_pointer": True},
             "seeds.stack_pointer"),
            # outside the user half; at or past 2**47 every page probes
            # inaccessible, so the run would fail late on a page address
            ({"stack_pointer": -0x1000}, "seeds.stack_pointer"),
            ({"stack_pointer": hex(2**47)}, "seeds.stack_pointer"),
            ({"stack_pointer": "0x" + "f" * 20}, "seeds.stack_pointer"),
        ],
        ids=["missing-stack-pointer", "non-hex-stack-pointer",
             "boolean-stack-pointer", "negative-stack-pointer",
             "stack-pointer-at-2**47", "stack-pointer-past-2**64"],
    )
    def test_bad_seed_field_is_one_line_error(self, tmp_path, capsys, seeds,
                                              field):
        doc = json.loads(build_victim_image(21).manifest_text)
        doc["seeds"] = seeds
        manifest = tmp_path / "bad-seeds.json"
        manifest.write_text(json.dumps(doc))
        assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"caveprobe: stage 'load' failed: {field} ")

    def test_integer_seeds_give_the_same_report(self, tmp_path):
        # seeds take JSON integers, as region starts and lengths do
        doc = json.loads(Path(DEMO).read_text())
        doc["seeds"] = {key: int(value, 16) for key, value in doc["seeds"].items()}
        manifest = tmp_path / "demo.json"
        manifest.write_text(json.dumps(doc))
        assert_same_report_as_demo(manifest)

    def test_crlf_manifest_gives_the_same_report(self, tmp_path):
        crlf = tmp_path / "demo.json"
        crlf.write_bytes(Path(DEMO).read_bytes().replace(b"\n", b"\r\n"))
        assert_same_report_as_demo(crlf)

    def test_manifest_with_a_backslash_gives_the_same_report(self, tmp_path):
        # a backslash anywhere sends the file to json alone, with no blob
        # decoded in the scan
        escaped = tmp_path / "demo.json"
        escaped.write_bytes(Path(DEMO).read_bytes().replace(
            b'"label"', b'"\\u006cabel"', 1))
        assert_same_report_as_demo(escaped)

    @pytest.mark.parametrize("path", ["spliced", "json-only"])
    @pytest.mark.parametrize("spelling", [
        "cave-as-zero-hex", "cave-as-empty-hex", "cave-as-short-zero-hex",
        "uppercase-hex", "zero-tails-cut"])
    def test_data_spellings_give_the_same_pages_and_report(self, tmp_path, spelling, path):
        # the anon cave's zero pages given as hex, the blobs in uppercase, or
        # each blob cut short before its trailing zero bytes: the pages
        # decode page by page to the same bytes, shared wherever all zero
        doc = json.loads(Path(DEMO).read_text())
        cave = doc["regions"][3]
        assert (cave["label"], cave["perms"], "data" in cave) == ("anon", "rwu", False)
        if spelling == "cave-as-zero-hex":
            cave["data"] = "0" * 2 * int(cave["len"], 16)
        elif spelling == "cave-as-empty-hex":
            cave["data"] = ""
        elif spelling == "cave-as-short-zero-hex":
            cave["data"] = "0" * (2 * PAGE_SIZE + 6)
        for region in doc["regions"]:
            if "data" in region and spelling == "uppercase-hex":
                region["data"] = region["data"].upper()
            elif "data" in region and spelling == "zero-tails-cut":
                cut = region["data"].rstrip("0")
                region["data"] = cut + "0" * (len(cut) % 2)
        text = json.dumps(doc, indent=2)
        if path == "json-only":
            text = text.replace('"label"', '"\\u006cabel"', 1)
        manifest = tmp_path / "demo.json"
        manifest.write_text(text)
        assert (b"\\" in manifest.read_bytes()) == (path == "json-only")
        if spelling == "zero-tails-cut":  # the stack's blob ends in zero bytes
            stack = doc["regions"][6]
            assert len(stack["data"]) < 2 * int(stack["len"], 16)
        space, _ = read_image(manifest)
        demo, _ = read_image(Path(DEMO))
        assert page_bytes(space) == page_bytes(demo)
        zero = [page for page in space.pages.values() if page.data == bytes(PAGE_SIZE)]
        assert len(zero) == 9 and all(page.data is _ZERO_PAGE for page in zero)
        assert_same_report_as_demo(manifest)

    def test_manifest_that_is_not_utf8_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "not-utf8.json"
        text = Path(DEMO).read_bytes()
        manifest.write_bytes(text[:7] + b"\xff" + text[7:])
        assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("caveprobe: stage 'load' failed: ")
        assert str(manifest) in err
        assert "is not UTF-8: first bad byte at offset 7" in err
        assert "codec" not in err

    def test_ground_truth_that_is_not_utf8_is_one_line_error(self, tmp_path, capsys):
        maps = tmp_path / "bad.maps"
        maps.write_bytes(b"\xff\xfe" + Path(DEMO_MAPS).read_bytes())
        assert main(["--image-path", DEMO, "--ground-truth-path", str(maps)]) \
            == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == (
            f"caveprobe: stage 'load' failed: ground truth {str(maps)!r} is not "
            "UTF-8: first bad byte at offset 0\n"
        )
        assert "codec" not in err

    def test_missing_ground_truth_is_one_line_error(self, tmp_path, capsys):
        maps = tmp_path / "nope.maps"
        assert main(["--image-path", DEMO, "--ground-truth-path", str(maps)]) \
            == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err == (
            f"caveprobe: stage 'load' failed: cannot read {str(maps)!r}: "
            "No such file or directory\n"
        )
        assert "Errno" not in err

    def test_a_read_that_fails_part_way_is_one_line_error(self, monkeypatch, capsys):
        # the manifest is read inside the parse; a read failing after the
        # first chunk gives the line a failed open gives
        class FailsAfterOneRead(io.RawIOBase):
            def __init__(self, raw: bytes):
                super().__init__()
                self.file = io.BytesIO(raw)
                self.reads = 0

            def readable(self) -> bool:
                return True

            def seekable(self) -> bool:
                return True

            def seek(self, pos: int, whence: int = io.SEEK_SET) -> int:
                return self.file.seek(pos, whence)

            def readinto(self, buf) -> int:
                self.reads += 1
                if self.reads > 1:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                got = self.file.read(len(buf))
                buf[: len(got)] = got
                return len(got)

        opened = []

        def fake_open(path, *args, **kwargs):
            opened.append(FailsAfterOneRead(Path(path).read_bytes()))
            return opened[-1]

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        assert main(["--image-path", DEMO]) == EXIT_STAGE_ERROR
        assert [reader.reads for reader in opened] == [2]
        assert capsys.readouterr().err == (
            f"caveprobe: stage 'load' failed: cannot read {DEMO!r}: "
            f"{os.strerror(errno.EIO)}\n"
        )

    def test_image_path_that_is_a_directory_is_one_line_error(self, tmp_path,
                                                              capsys):
        assert main(["--image-path", str(tmp_path)]) == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err == (
            f"caveprobe: stage 'load' failed: cannot read {str(tmp_path)!r}: "
            "Is a directory\n"
        )
        assert "Errno" not in err

    # a region's bytes come from "data" alone; one naming a "file" or an
    # "offset" is refused without its value echoed, so none of the values
    # that once broke the file read (a missing file, a NUL, a lone
    # surrogate, an offset past any seek) can reach the line
    @pytest.mark.parametrize("keys", [{"file": "x.bin"}, {"offset": 0}],
                             ids=["file", "offset"])
    def test_file_backed_region_is_one_line_error(self, tmp_path, capsys, keys):
        assert_region_refused(tmp_path, capsys, **keys)

    def test_missing_blob_file_is_one_line_error(self, tmp_path, capsys):
        assert_region_refused(tmp_path, capsys, file="missing.bin")

    def test_blob_file_with_a_nul_character_is_one_line_error(self, tmp_path, capsys):
        assert_region_refused(tmp_path, capsys, file="blob\0.bin")

    def test_blob_file_with_a_lone_surrogate_is_one_line_error(self, tmp_path,
                                                               capsys):
        assert_region_refused(tmp_path, capsys, file="blob\ud800.bin")

    def test_blob_offset_past_any_file_is_one_line_error(self, tmp_path, capsys):
        assert_region_refused(tmp_path, capsys, file="blob.bin", offset=1 << 70)

    def test_integer_too_long_to_convert_is_one_line_error(self, tmp_path, capsys):
        # Python's own text for this differs between 3.10 and 3.11
        manifest = tmp_path / "long-int.json"
        manifest.write_text('{"regions": [], "pad": ' + "9" * 5000 + "}")
        assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
        assert capsys.readouterr().err == (
            "caveprobe: stage 'load' failed: not valid JSON: an integer has "
            "too many digits\n"
        )

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--explore-budget", "0"], "explore_budget"),
            (["--spurious-prob", "1"], "spurious_prob"),
        ],
        ids=["zero-explore-budget", "certain-abort"],
    )
    def test_bad_knob_fails_before_any_file_is_read(self, capsys, flags, field):
        # the image path does not exist, so a load would fail differently
        code = main(["--image-path", "/nonexistent/image.json", *flags])
        assert code == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"caveprobe: {field} ")

    def test_explore_budget_holds_for_the_whole_run(self, capsys):
        # three pages satisfy the probe stage; growing them into extents
        # needs a fourth
        code = main(["--image-path", DEMO, "--explore-budget", "3"])
        assert code == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("caveprobe: ")
        assert "explore budget of 3 pages" in err

    def test_reported_pages_probed_is_the_budget_the_run_needs(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        assert main(["--image-path", DEMO, "--out", str(out)]) == EXIT_OK
        needed = json.loads(out.read_text())["exploration"]["pages-probed"]
        budget = ["--image-path", DEMO, "--out", str(out), "--explore-budget"]
        assert main([*budget, str(needed)]) == EXIT_OK
        assert main([*budget, str(needed - 1)]) == EXIT_STAGE_ERROR
        assert f"explore budget of {needed - 1} pages" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_frame_at_the_bottom_of_the_stack_is_refused(self, tmp_path, capsys,
                                                         mode):
        # the demo's stack holds one frame, at its first word, and the stack
        # pointer points at it: its canary slot would lie on the guard page.
        # linear walks for the frame to find the code, so it fails first
        doc = json.loads(Path(DEMO).read_text())
        stack = next(r for r in doc["regions"] if r.get("label") == "[stack]")
        start = int(stack["start"], 16)
        frame = (start + 0x100).to_bytes(8, "little") + int(
            doc["seeds"]["return_site"], 16).to_bytes(8, "little")
        stack["data"] = frame.hex()
        doc["seeds"]["stack_pointer"] = hex(start)
        manifest = tmp_path / "bottom.json"
        manifest.write_text(json.dumps(doc))
        assert main(["--image-path", str(manifest), "--no-aslr",
                     "--mode", mode]) == EXIT_STAGE_ERROR
        stage = "probe" if mode == "linear" else "inject"
        assert capsys.readouterr().err == (
            f"caveprobe: stage '{stage}' failed: no plausible frame above "
            f"the stack pointer {start:#x}: scanned 2047 slots of the "
            f"stack region {start:#x}-{start + 0x4000:#x}\n"
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_stack_pointer_on_an_unmapped_page_is_refused(self, tmp_path, capsys,
                                                          mode):
        # the page below the demo's stack is a gap: linear's frame walk
        # names it, and the pointer chase finds nothing to grow
        doc = json.loads(Path(DEMO).read_text())
        stack = next(r for r in doc["regions"] if r.get("label") == "[stack]")
        gap = int(stack["start"], 16) - PAGE_SIZE
        doc["seeds"]["stack_pointer"] = hex(gap + 0x80)
        manifest = tmp_path / "gap.json"
        manifest.write_text(json.dumps(doc))
        assert main(["--image-path", str(manifest), "--no-aslr",
                     "--mode", mode]) == EXIT_STAGE_ERROR
        if mode == "linear":
            want = f"stage 'probe' failed: page {gap:#x} is not accessible"
        else:
            want = "stage 'explore' failed: exploration found nothing accessible"
        assert capsys.readouterr().err == f"caveprobe: {want}\n"

    @pytest.mark.parametrize("value", [
        "\u0661\u0660\u0660\u0660", "0x_1000", " 0x1000\n", "+0x10", "-0x1000",
    ], ids=["arabic-indic-digits", "underscore", "whitespace", "plus", "minus"])
    @pytest.mark.parametrize("field", [
        "region 0 start", "region 0 len", "seeds.stack_pointer",
    ])
    def test_hex_field_outside_the_grammar_is_refused(self, tmp_path, capsys,
                                                      field, value):
        # int(value, 16) takes the first four; a manifest takes none
        doc = json.loads(Path(DEMO).read_text())
        if field == "seeds.stack_pointer":
            doc["seeds"]["stack_pointer"] = value
        else:
            doc["regions"][0][field.split()[-1]] = value
        manifest = tmp_path / "bad-hex.json"
        manifest.write_text(json.dumps(doc))
        assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
        assert capsys.readouterr().err == (
            f"caveprobe: stage 'load' failed: {field} is not a hex string\n"
        )

    @pytest.mark.parametrize("fault", ["len", "file", "maps-line"])
    def test_load_message_bounds_a_long_value_from_a_file(self, tmp_path, capsys,
                                                          fault):
        doc = json.loads(Path(DEMO).read_text())
        region = doc["regions"][0]
        maps = tmp_path / "victim.maps"
        maps.write_text(Path(DEMO_MAPS).read_text())
        if fault == "len":
            region["len"] = "f" * 100_000
        elif fault == "file":
            region["file"] = "b" * 100_000
        else:
            maps.write_text("m" * 100_000 + "\n")
        manifest = tmp_path / "victim.json"
        manifest.write_text(json.dumps(doc))
        code = main(["--image-path", str(manifest), "--ground-truth-path", str(maps)])
        err = capsys.readouterr().err
        assert code == EXIT_STAGE_ERROR
        assert err.count("\n") == 1 and len(err.encode()) < 300
        assert err.startswith("caveprobe: stage 'load' failed: ")
        if fault == "file":
            assert err == REFUSED_REGION  # the name is not echoed
        elif fault == "maps-line":
            assert "'" + "m" * 79 + "..." in err

    def test_no_cave_is_one_line_error(self, tmp_path, capsys):
        assert main(["--image-path", demo_without_caves(tmp_path)]) == EXIT_STAGE_ERROR
        assert capsys.readouterr().err == (
            "caveprobe: stage 'inject' failed: no cave of at least 0x146 "
            "bytes among 0 caves\n"
        )

    def test_seed_environment_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("CAVEPROBE_SEED", "x")
        assert main(["--image-path", DEMO]) == EXIT_STAGE_ERROR
        assert capsys.readouterr().err == (
            "caveprobe: $CAVEPROBE_SEED is not an integer: 'x'\n"
        )

    def test_seed_environment_takes_only_ascii_digits(self, monkeypatch, capsys):
        monkeypatch.setenv("CAVEPROBE_SEED", " \u0661_\u0662 ")
        assert main(["--image-path", DEMO]) == EXIT_STAGE_ERROR
        assert capsys.readouterr().err == (
            "caveprobe: $CAVEPROBE_SEED is not an integer: ' \\u0661_\\u0662 '\n"
        )

    @pytest.mark.parametrize(
        "flag, text, key, value",
        [
            ("--seed", "-3", "seed", -3),
            ("--explore-budget", "0100", "explore-budget", 100),
            ("--spurious-prob", ".25", "spurious-prob", 0.25),
            ("--spurious-prob", "0.", "spurious-prob", 0.0),
        ],
    )
    def test_number_flag_ascii_forms(self, tmp_path, flag, text, key, value):
        out = tmp_path / "r.json"
        flags = ["--image-path", DEMO, "--stop-after", "probe", "--out", str(out)]
        assert main([*flags, flag, text]) == EXIT_OK
        assert json.loads(out.read_text())["config"][key] == value

    @pytest.mark.parametrize("mode", MODES)
    def test_wrong_truth_for_a_stored_miss_fails_map_match(
        self, tmp_path, capsys, mode
    ):
        # every mode stores the stack's guard page as a miss, which no
        # extent's runs include; a truth that calls it writable must fail
        maps = tmp_path / "guard-rw.maps"
        maps.write_text(Path(DEMO_MAPS).read_text().replace(
            "7f0000302000-7f0000303000 ---p", "7f0000302000-7f0000303000 rw-p"))
        code = main(["--image-path", DEMO, "--mode", mode, "--format", "text",
                     "--ground-truth-path", str(maps)])
        assert code == cli.EXIT_VERDICT_FAILURE
        assert "    map-match: FAIL\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, flag",
        [
            # there is no --cave-min-len: it is an unrecognized argument
            # whatever its value
            (["--image-path", DEMO, "--cave-min-len", "4096"], "--cave-min-len"),
            (["--image-path", DEMO, "--cave-min-len", "0x1_000"], "--cave-min-len"),
            (["--image-path", DEMO, "--cave-min-len", "0x"], "--cave-min-len"),
            (["--image-path", DEMO, "--seed", "x"], "--seed"),
            (["--image-path", DEMO, "--mode", "spiral"], "--mode"),
            ([], "--image-path"),
            # number flags take ASCII digits only, with no separator or pad
            (["--image-path", DEMO, "--seed", "\u0663"], "--seed"),
            (["--image-path", DEMO, "--seed", "1_0"], "--seed"),
            (["--image-path", DEMO, "--seed", " 3"], "--seed"),
            (["--image-path", DEMO, "--seed", "0x10"], "--seed"),
            (["--image-path", DEMO, "--explore-budget", "1_0_0_0"], "--explore-budget"),
            (["--image-path", DEMO, "--explore-budget", "-1"], "--explore-budget"),
            (["--image-path", DEMO, "--spurious-prob", "0.0_01"], "--spurious-prob"),
            (["--image-path", DEMO, "--spurious-prob", "1e-3"], "--spurious-prob"),
            (["--image-path", DEMO, "--spurious-prob", "."], "--spurious-prob"),
        ],
        ids=["cave-min-len", "cave-min-len-underscore", "cave-min-len-bare-0x",
             "seed", "mode", "missing-image-path",
             "seed-arabic-indic-digit", "seed-underscore", "seed-padded", "seed-hex",
             "explore-budget-underscore", "explore-budget-negative",
             "spurious-prob-underscore", "spurious-prob-exponent",
             "spurious-prob-bare-point"],
    )
    def test_flag_error_is_one_line(self, capsys, flags, flag):
        assert main(flags) == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("caveprobe: ")
        assert flag in err and "<lambda>" not in err

    @pytest.mark.parametrize(
        "out", ["", "missing/r.json"], ids=["directory", "missing-parent"]
    )
    def test_unwritable_out_is_one_line_error(self, tmp_path, capsys, out):
        path = tmp_path / out
        assert main(["--image-path", DEMO, "--out", str(path)]) == EXIT_STAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"caveprobe: cannot write {str(path)!r}: ")

    def test_stdout_report(self, image_paths, capsys):
        manifest, _, _ = image_paths
        assert main(["--image-path", manifest, "--format", "text"]) == EXIT_OK
        assert "caveprobe report" in capsys.readouterr().out


def assert_census_stops_at_the_chain(**config) -> None:
    """Whatever the mode, the gadgets stage scans read-only pages in address
    order and stops after the first page that completes the chain and the
    epilogue: its catalog is the full census cut after that page, so each
    kind's list is a prefix of the full list, and it holds each needed
    kind's lowest site."""
    pipe = Pipeline(PipelineConfig(**config))
    pipe.run()
    code = sorted(b for b, v in pipe.pagemap.entries.items()
                  if v is Writability.READ_ONLY)
    full = gadgets.find_gadgets(pipe.pagemap, runs_of(code))
    need = (*gadgets.CHAINS[pipe.config.chain_variant], "leave-ret")

    def cut(k: int) -> gadgets.GadgetCatalog:
        end = code[k - 1] + PAGE_SIZE
        return gadgets.GadgetCatalog(
            found={kind: tuple(a for a in sites if a < end)
                   for kind, sites in full.found.items()},
            searched_pages=k,
            syscalls_into_ret=tuple(a for a in full.syscalls_into_ret if a < end))

    def complete(k: int) -> bool:
        try:
            cut(k).require(need)
        except gadgets.MissingGadgetError:
            return False
        return True

    k = next((k for k in range(1, len(code) + 1) if complete(k)), len(code))
    assert pipe.catalog == cut(k)
    assert all(pipe.catalog.lowest(kind) == full.lowest(kind) for kind in need)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", CHAIN_VARIANTS)
def test_every_mode_stops_its_census_at_the_chain(tmp_path, mode, variant):
    for seed in range(4):
        assert_census_stops_at_the_chain(
            image_path=DEMO, seed=seed, mode=mode, chain_variant=variant)
    for seed in range(6):
        manifest = tmp_path / f"victim-{seed}.json"
        manifest.write_text(build_victim_image(
            seed, code_pages=16, cave_pages=16, stack_pages=16).manifest_text)
        for aslr in (True, False):
            assert_census_stops_at_the_chain(
                image_path=str(manifest), seed=seed, aslr=aslr, mode=mode,
                chain_variant=variant)


@pytest.mark.parametrize("omit, image_seed", [
    ("pop-rdi-ret", 21), ("pop-rsi-ret", 21), ("pop-rdx-ret", 21),
    ("pop-rax-ret", 29), ("syscall", 20), ("leave-ret", 20),
])
def test_hybrid_gadgets_error_equals_pointer_chase(tmp_path, capsys, omit, image_seed):
    # a need the census never meets scans every page, so the one-line
    # error is the full census's
    manifest = tmp_path / "omitted.json"
    manifest.write_text(build_victim_image(
        image_seed, code_pages=16, omit_gadgets=(omit,)).manifest_text)
    errors = []
    for mode in ("hybrid", "pointer-chase"):
        assert main(["--image-path", str(manifest), "--mode", mode]) == EXIT_STAGE_ERROR
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"caveprobe: stage 'gadgets' failed: missing gadget kinds: {omit}\n")


def readme_command_line() -> str:
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```\n(.*?)\n```", section, re.S)
    assert match, "README's Command line section has no block"
    return match.group(1)


def test_readme_command_line_names_every_flag_and_its_default():
    # PipelineConfig holds the one copy of each config default; the block
    # names it for every flag that takes a value, and names no other value
    block = readme_command_line()
    parser = cli._build_parser()
    config = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", block), flag
        line = next(
            (line for line in block.splitlines() if line.startswith(flag + " ")), None)
        named = re.search(r"\(([^()]*)\)$", line or "")
        want = config.get(action.dest, action.default)
        if want in (None, dataclasses.MISSING) or isinstance(want, bool):
            assert named is None, flag  # required, or a switch
            continue
        assert named, f"{flag} names no default"
        assert named.group(1) == str(want), flag


GADGET_KINDS = ("pop-rdi-ret", "pop-rsi-ret", "pop-rdx-ret", "pop-rax-ret",
                "pop-rbp-ret", "syscall", "leave-ret")


@given(
    image_seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["linear", "pointer-chase", "hybrid"]),
    variant=st.sampled_from(["sound-5", "short-4"]),
    restore=st.sampled_from(["payload", "chain-only"]),
    aslr=st.booleans(),
    omit=st.one_of(st.none(), st.sampled_from(GADGET_KINDS)),
)
def test_main_gives_a_report_or_a_one_line_error(
    image_seed, run_seed, mode, variant, restore, aslr, omit
):
    img = build_victim_image(image_seed, omit_gadgets=(omit,) if omit else ())
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "victim.json"
        maps = Path(tmp) / "victim.maps"
        manifest.write_text(img.manifest_text)
        maps.write_text(img.maps_text)
        argv = [
            "--image-path", str(manifest), "--ground-truth-path", str(maps),
            "--seed", str(run_seed), "--mode", mode,
            "--chain-variant", variant, "--restore", restore,
            "--out", str(Path(tmp) / "report.json"),
        ]
        if not aslr:
            argv.append("--no-aslr")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        if code != EXIT_STAGE_ERROR:
            report = json.loads((Path(tmp) / "report.json").read_text())
    assert code in (0, 2, 3)
    if code == EXIT_STAGE_ERROR:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("caveprobe: ")
    else:
        assert err.getvalue() == ""
        # the runs are strictly increasing and pairwise disjoint
        bounds = [
            (int(r["start"], 16), int(r["end"], 16))
            for r in report["reconstructed-map"]
        ]
        assert bounds
        assert all(lo < hi for lo, hi in bounds)
        assert all(a[1] <= b[0] for a, b in zip(bounds, bounds[1:]))


# the functions that may read the native space: the store's two guarded
# reads, through which every stage reads, and the simulator's own checks
# of the canary, the cleanup and the marker; the machine reads it too
NATIVE_READERS = {
    explorer.PageMap.read.__code__,
    explorer.PageMap.zero_pages.__code__,
    cli._inject.__code__,
    cli._execute.__code__,
}


def adjacent_segments_image(seed: int) -> synth.VictimImage:
    """The synth image of ``seed`` with its rodata and data moved down to
    follow the code directly, as an ELF maps its segments; every other
    region keeps its place, past a gap."""
    layout = synth._layout

    def adjacent(rng, spec):
        regions = layout(rng, spec)
        start, length, _ = regions["code"]
        for name in ("rodata", "data"):
            start += length
            _, length, perms = regions[name]
            regions[name] = (start, length, perms)
        return regions

    with patch.object(synth, "_layout", adjacent):
        return build_victim_image(seed)


@pytest.mark.parametrize("mode", MODES)
def test_adjacent_code_rodata_and_data_are_one_extent_of_two_classes(tmp_path, mode):
    for image_seed in range(3):
        img = adjacent_segments_image(image_seed)
        code, rodata, data = (img.truth.regions[name] for name in ("code", "rodata", "data"))
        assert code[0] + code[1] == rodata[0] and rodata[0] + rodata[1] == data[0]
        manifest, maps = tmp_path / f"{image_seed}.json", tmp_path / f"{image_seed}.maps"
        manifest.write_text(img.manifest_text)
        maps.write_text(img.maps_text)
        for seed in range(3):
            report = run_pipeline(PipelineConfig(
                image_path=str(manifest), ground_truth_path=str(maps), mode=mode, seed=seed))
            assert report.all_verdicts_pass()
            assert report.verdicts["map-match"]
            # the map splits the one extent by class: code and rodata are
            # read-only, data writable; no other run touches another
            off = report.aslr_offset
            runs = report.reconstructed.runs
            assert (code[0] + off, data[0] + off, READ_ONLY) in runs
            assert (data[0] + off, data[0] + data[1] + off, WRITABLE) in runs
            assert report.exploration["extents"] == len(runs) - 1


@given(
    image_seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    budget=st.one_of(st.integers(1, 300), st.just(explorer.DEFAULT_BUDGET)),
)
def test_stages_read_only_through_the_store(image_seed, run_seed, mode, budget):
    callers = []
    real_read, real_zero = AddressSpace.read_bytes, AddressSpace.zero_pages

    def read_bytes(space, addr, count):
        callers.append(sys._getframe(1).f_code)
        return real_read(space, addr, count)

    def zero_pages(space, start, end):
        callers.append(sys._getframe(1).f_code)
        return real_zero(space, start, end)

    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "victim.json"
        manifest.write_text(build_victim_image(image_seed).manifest_text)
        config = PipelineConfig(image_path=str(manifest), mode=mode,
                                seed=run_seed, explore_budget=budget)
        with patch.object(AddressSpace, "read_bytes", read_bytes), \
                patch.object(AddressSpace, "zero_pages", zero_pages):
            try:
                run_pipeline(config)
                finished = True
            except StageError:
                finished = False
    stray = {
        f"{code.co_filename}:{code.co_firstlineno} {code.co_name}"
        for code in callers
        if code not in NATIVE_READERS and code.co_filename != machine.__file__
    }
    assert not stray
    if finished:  # the census read and the cave search tested zero pages
        assert {explorer.PageMap.read.__code__,
                explorer.PageMap.zero_pages.__code__} <= set(callers)


# --- loaded inputs kept per process --------------------------------------------

def counted_parses(monkeypatch) -> list[str]:
    """Count the manifest and maps files parsed from here on, by kind."""
    parsed = []
    real_manifest, real_maps = cli.parse_manifest, cli.parse_proc_maps

    def parse_manifest(source):
        parsed.append("manifest")
        return real_manifest(source)

    def parse_proc_maps(text):
        parsed.append("maps")
        return real_maps(text)

    monkeypatch.setattr(cli, "parse_manifest", parse_manifest)
    monkeypatch.setattr(cli, "parse_proc_maps", parse_proc_maps)
    return parsed


def _write_all(fd: int, data: bytes) -> None:
    with os.fdopen(fd, "wb") as out:
        out.write(data)


def clock_at(monkeypatch, ns: int) -> None:
    monkeypatch.setattr(cli, "time_ns", lambda: ns)


def late_clock(monkeypatch) -> None:
    """The module's clock an hour on: no file written so far is racy."""
    clock_at(monkeypatch, cli.time_ns() + 3600 * 10**9)


def kept_kinds() -> list[str]:
    return sorted(key[0] for key in cli._KEPT)


def kept_weight() -> int:
    return sum(weight for _, weight in cli._KEPT.values())


class TestKeptInputs:
    def test_first_load_keeps_and_later_runs_share(self, monkeypatch, tmp_path):
        manifest, maps = tmp_path / "demo.json", tmp_path / "demo.maps"
        manifest.write_bytes(Path(DEMO).read_bytes())
        maps.write_bytes(Path(DEMO_MAPS).read_bytes())
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        config = PipelineConfig(image_path=str(manifest), ground_truth_path=str(maps), seed=3)
        texts = [emit_report(run_pipeline(config)) for _ in range(4)]
        assert parsed == ["manifest", "maps"]
        assert kept_kinds() == ["ground truth", "manifest"]
        assert len(set(texts)) == 1
        assert json.loads(texts[0])["aslr-offset"] != "0x0"

    def test_a_manifest_rewritten_in_place_gives_the_new_report(
            self, monkeypatch, tmp_path, capsys):
        # the same inode and size, a later mtime, and a stack pointer a page
        # up, above the victim's frame
        manifest, fresh = tmp_path / "victim.json", tmp_path / "fresh.json"
        old_text = Path(DEMO).read_text()
        new_text = old_text.replace("0x7f0000306e48", "0x7f0000306f48")
        assert len(new_text) == len(old_text) and new_text != old_text
        manifest.write_text(old_text)
        late_clock(monkeypatch)

        def outcome(path: Path) -> tuple[int, str, str]:
            code = main(["--image-path", str(path), "--seed", "2"])
            out, err = capsys.readouterr()
            return code, out, err.replace(str(path), "IMAGE")

        old = [outcome(manifest) for _ in range(3)]
        assert kept_kinds() == ["manifest"]
        assert old[-1][0] == EXIT_OK
        before = manifest.stat()
        manifest.write_text(new_text)
        # a tick on, however coarse the file system's clock
        os.utime(manifest, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
        assert (manifest.stat().st_ino, manifest.stat().st_size) == (
            before.st_ino, before.st_size)
        new = outcome(manifest)
        fresh.write_text(new_text)
        assert new == outcome(fresh)
        assert new[0] == EXIT_STAGE_ERROR
        assert "no plausible frame above the stack pointer" in new[2]

    def test_a_fresh_file_is_parsed_on_every_run(self, monkeypatch, tmp_path):
        manifest = tmp_path / "victim.json"
        manifest.write_bytes(Path(DEMO).read_bytes())
        changed = manifest.stat().st_ctime_ns
        parsed = counted_parses(monkeypatch)
        config = PipelineConfig(image_path=str(manifest), stop_after="probe")
        clock_at(monkeypatch, changed + cli.RACY_NS - 1)
        for _ in range(3):
            run_pipeline(config)
        assert (len(parsed), kept_kinds()) == (3, [])
        clock_at(monkeypatch, changed + cli.RACY_NS)
        for _ in range(3):
            run_pipeline(config)
        assert (len(parsed), kept_kinds()) == (4, ["manifest"])

    def test_a_failing_manifest_is_never_kept(self, monkeypatch, tmp_path, capsys):
        manifest = tmp_path / "victim.json"
        manifest.write_text(Path(DEMO).read_text().replace(
            '"stack_pointer": "0x7f0000306e48"', '"stack_pointer": "0xff00000306e48"'))
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        for _ in range(3):
            assert main(["--image-path", str(manifest)]) == EXIT_STAGE_ERROR
        assert len(parsed) == 3
        assert cli._KEPT == {}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and len(set(err)) == 1
        assert "seeds.stack_pointer is outside the user half" in err[0]

    def test_a_pipe_given_as_dev_stdin_is_never_kept(self, monkeypatch):
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        data = Path(DEMO).read_bytes()
        saved = os.dup(0)
        texts = []
        try:
            for _ in range(3):
                read, write = os.pipe()
                writer = threading.Thread(target=_write_all, args=(write, data))
                writer.start()
                os.dup2(read, 0)
                os.close(read)
                try:
                    texts.append(emit_report(run_pipeline(
                        PipelineConfig(image_path="/dev/stdin", seed=1))))
                finally:
                    writer.join()
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert len(parsed) == 3
        assert cli._KEPT == {}
        assert len(set(texts)) == 1

    def test_a_procfs_file_is_never_kept(self, monkeypatch):
        # regular, but of size 0 and read fresh each time
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        config = PipelineConfig(image_path=DEMO, ground_truth_path="/proc/self/maps",
                                stop_after="explore")
        for _ in range(3):
            run_pipeline(config)
        assert parsed.count("maps") == 3
        assert "ground truth" not in kept_kinds()

    def test_a_run_leaves_the_kept_image_as_built(self, monkeypatch, tmp_path):
        # every run builds its space by one shift of the image it loads; a
        # racy one-shot run keeps nothing, and one past RACY_NS keeps the
        # image with its table.  Runs share the kept image's pages, and
        # writes, the mprotect of the chain and the relocation each replace
        # a page first, so they touch only pages of the run's own
        manifest, out = tmp_path / "demo.json", tmp_path / "report.json"
        manifest.write_bytes(Path(DEMO).read_bytes())
        argv = ["--image-path", str(manifest), "--seed", "4", "--out", str(out)]
        calls = []
        for name in ("relocations", "shifted"):
            def counted(space, *args, real=getattr(AddressSpace, name), name=name):
                calls.append(name)
                return real(space, *args)
            monkeypatch.setattr(AddressSpace, name, counted)
        clock_at(monkeypatch, manifest.stat().st_ctime_ns)
        assert main(argv) == EXIT_OK
        assert not cli._KEPT
        racy = out.read_bytes()
        late_clock(monkeypatch)
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == racy
        assert calls == ["relocations", "shifted"] * 2
        [(image, _)] = cli._KEPT.values()
        pages = dict(image.space.pages)
        built = {base: (type(page), page.perms, page.data) for base, page in pages.items()}
        fresh, _ = read_image(manifest)
        assert page_bytes(image.space) == page_bytes(fresh)
        assert {b: (t, perms) for b, (t, perms, _) in built.items()} == {
            b: (Page, p.perms) for b, p in fresh.pages.items()}
        assert all(type(page.data) is bytes for page in pages.values())
        changed = set()  # the bases the run wrote or re-protected

        def spy(name: str, size) -> None:
            real = getattr(AddressSpace, name)

            def spied(space, addr, *args):
                real(space, addr, *args)
                changed.update(range(addr & -PAGE_SIZE, addr + size(*args), PAGE_SIZE))
            monkeypatch.setattr(AddressSpace, name, spied)
        spy("write_bytes", len)
        spy("set_protection", lambda length, perms: length)
        pipe = Pipeline(PipelineConfig(image_path=str(manifest), seed=4))
        report = pipe.run()
        assert calls == ["relocations", "shifted"] * 2 + ["shifted"]
        assert report.all_verdicts_pass()
        assert [e["name"] for e in report.run["side-effects"] if e["kind"] == "syscall"] == [
            "mprotect"]
        space, offset = pipe.pagemap.space, report.aslr_offset
        relocated = {base + offset if base < USER_TOP else base for base in image.relocations}
        assert relocated and changed
        for base, page in space.pages.items():
            kept = pages[base - offset if base < USER_TOP else base]
            assert (page is kept) == (base not in changed | relocated)
            assert type(page) is Page
        assert any(p.perms != built[b - report.aslr_offset][1]
                   for b, p in space.pages.items() if b - report.aslr_offset in built)
        assert image.space.pages == pages  # the same Page objects: eq is identity
        assert {base: (type(page), page.perms, page.data)
                for base, page in pages.items()} == built
        assert all(page.data is built[base][2] for base, page in pages.items())
        assert page_bytes(image.space) == page_bytes(fresh)
        assert emit_report(report).encode() == racy

    def test_a_run_without_aslr_builds_no_table(self, monkeypatch, tmp_path):
        # a shift by 0 relocates nothing: the run's space holds every Page
        # of the kept image, in a dict of its own
        manifest = tmp_path / "demo.json"
        manifest.write_bytes(Path(DEMO).read_bytes())
        late_clock(monkeypatch)
        monkeypatch.setattr(AddressSpace, "relocations", None)
        config = PipelineConfig(image_path=str(manifest), aslr=False, stop_after="caves")
        run_pipeline(config)
        pipe = Pipeline(config)
        assert pipe.run().aslr_offset == 0
        [(image, _)] = cli._KEPT.values()
        assert image.relocations is None
        space = pipe.pagemap.space
        assert space.pages == image.space.pages and space.pages is not image.space.pages

    def test_an_image_heavier_than_the_bound_is_parsed_on_every_run(
            self, monkeypatch, tmp_path):
        manifest = tmp_path / "demo.json"
        manifest.write_bytes(Path(DEMO).read_bytes())
        monkeypatch.setattr(cli, "MAX_MANIFEST_PAGES", len(read_image(manifest)[0].pages) - 1)
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        config = PipelineConfig(image_path=str(manifest), seed=2)
        texts = [emit_report(run_pipeline(config)) for _ in range(3)]
        assert (len(parsed), cli._KEPT, kept_weight()) == (3, {}, 0)
        assert len(set(texts)) == 1

    def test_an_entry_weighs_at_least_1(self, monkeypatch, tmp_path):
        empty, image = tmp_path / "empty.maps", tmp_path / "image.json"
        empty.write_text("\n")
        image.write_text("{}")
        late_clock(monkeypatch)
        assert cli._parse_file(empty, "ground truth", lambda f: "map", lambda v: 0) == "map"
        assert cli._parse_file(image, "manifest", lambda f: "image", lambda v: 3) == "image"
        assert kept_weight() == 4

    def test_an_image_that_maps_page_0_runs_warm_as_cold(self, monkeypatch, tmp_path):
        # zero is a pointer there, so every all-zero page relocates: the
        # table names each with None and holds no index for it, and lists
        # the indices of the other pages by the per-word rule
        doc = json.loads(Path(DEMO).read_text())
        doc["regions"].append({"start": "0x0", "len": hex(64 * PAGE_SIZE), "perms": ""})
        manifest = tmp_path / "page-0.json"
        manifest.write_text(json.dumps(doc))
        configs = [PipelineConfig(image_path=str(manifest), mode=mode, seed=seed,
                                  stop_after="caves")
                   for mode in ("linear", "hybrid") for seed in range(3)]
        late = cli.time_ns() + 3600 * 10**9
        clock_at(monkeypatch, 0)  # every load is racy, so each run shifts its own parse
        cold = [emit_report(run_pipeline(config)) for config in configs]
        assert not cli._KEPT
        clock_at(monkeypatch, late)
        warm = [emit_report(run_pipeline(config)) for config in configs]
        assert warm == cold
        [(image, _)] = cli._KEPT.values()
        zero = [base for base, page in image.space.pages.items() if page.data == _ZERO_PAGE]
        assert len(zero) >= 64
        assert [base for base, words in image.relocations.items() if words is None] == zero
        mapped = set(image.space.pages)
        want = {}
        for base, page in image.space.pages.items():
            if page.data != _ZERO_PAGE:
                words = [i for i in range(PAGE_SIZE // 8)
                         if int.from_bytes(page.data[8 * i : 8 * i + 8], "little")
                         & -PAGE_SIZE in mapped]
                if words:
                    want[base] = words
        assert {base: list(words) for base, words in image.relocations.items()
                if words is not None} == want
        assert sum(map(len, want.values())) < PAGE_SIZE // 8 * len(want)

    def test_a_load_past_the_page_bound_empties_the_table(self, monkeypatch, tmp_path):
        paths = []
        for name in ("a", "b", "c"):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_bytes(Path(DEMO).read_bytes())
        a, b, c = (str(p) for p in paths)
        pages = len(read_image(paths[0])[0].pages)
        # two kept images fit; a third does not
        monkeypatch.setattr(cli, "MAX_MANIFEST_PAGES", 2 * pages)
        late_clock(monkeypatch)
        parsed = counted_parses(monkeypatch)
        inode = {path: os.stat(path).st_ino for path in (a, b, c)}
        # each load, then the parses so far and the images kept after it
        for path, parses, kept in [
            (a, 1, {a}), (a, 1, {a}), (b, 2, {a, b}), (b, 2, {a, b}), (a, 2, {a, b}),
            (c, 3, {c}), (c, 3, {c}), (a, 4, {a, c}), (b, 5, {b}),
        ]:
            run_pipeline(PipelineConfig(image_path=path, stop_after="probe"))
            assert len(parsed) == parses
            assert {key[2] for key in cli._KEPT} == {inode[p] for p in kept}
            assert kept_weight() == len(kept) * pages

