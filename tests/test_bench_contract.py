"""The names the benchmark in ``perfbench/`` reaches inside caveprobe, and
its oracle run over synth images.

A traced benchmark run wraps every attribute in ``spans.SPANNED``, and the
benchmark scripts import names from the package.  Deleting one of them
breaks the benchmark without failing any other test, so this file pins
them.  The benchmark checks each run with ``workloads.check_report``, an
oracle independent of the report's own verdicts; the sweep here runs it in
tier-1.  This file only reads ``perfbench/``.
"""

import ast
import importlib
import itertools
from pathlib import Path

from caveprobe.cli import MODES, Pipeline, PipelineConfig, emit_report, run_pipeline
from caveprobe.memspace import PAGE_SIZE
from caveprobe.probe import NO_ACCESS
from caveprobe.synth import build_victim_image
from golden import perfbench_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _caveprobe_imports() -> list[tuple[str, str, str]]:
    """(script, module, name) for every ``from caveprobe... import name``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.split(".")[0] == "caveprobe":
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_every_spanned_attribute_exists():
    spans = perfbench_module("spans")
    assert spans.SPANNED
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in spans.SPANNED
        if attr not in vars(owner)
    ]
    assert missing == []


def test_benchmark_imports_resolve():
    imports = _caveprobe_imports()
    assert {script for script, _, _ in imports} >= {"bench.py", "workloads.py"}
    unresolved = [
        f"{script}: {module}.{name}"
        for script, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unresolved == []


def test_oracle_passes_synth_images_in_every_mode(tmp_path):
    # 16-page regions, seeds 0..29, every mode with ASLR on and off: the
    # attacker starts from the stack pointer alone, and each run must pass
    # its verdicts and the benchmark's oracle, and arm its frame on the
    # store's verdicts alone, without a transaction.  The benchmark's
    # coverage metric, read from the report's map, must be the share of
    # truly readable pages the run's store holds accessible
    workloads = perfbench_module("workloads")
    check_report, coverage = workloads.check_report, workloads.coverage
    failures = []
    for seed in range(30):
        img = build_victim_image(seed, code_pages=16, cave_pages=16, stack_pages=16)
        manifest = tmp_path / f"victim-{seed}.json"
        maps = tmp_path / f"victim-{seed}.maps"
        manifest.write_text(img.manifest_text)
        maps.write_text(img.maps_text)
        for mode, aslr in itertools.product(MODES, (True, False)):
            pipe = Pipeline(PipelineConfig(
                image_path=str(manifest), ground_truth_path=str(maps),
                mode=mode, seed=seed, aslr=aslr,
            ))
            report = pipe.run()
            wrong = check_report(report, img.truth)
            inject = report.stage_counters["inject"]
            if wrong is None and inject["read_tx"] + inject["write_tx"] > 0:
                wrong = f"inject stage paid {inject}"
            readable = {
                page + report.aslr_offset
                for start, length, perms in img.truth.regions.values() if "r" in perms
                for page in range(start, start + length, PAGE_SIZE)
            }
            held = sum(pipe.pagemap.entries.get(page, NO_ACCESS) is not NO_ACCESS
                       for page in readable) / len(readable)
            if wrong is None and (got := coverage(report, img.truth)) != held:
                wrong = f"coverage {got}, store {held}"
            if not report.all_verdicts_pass() or wrong is not None:
                failures.append((seed, mode, aslr, wrong))
    assert failures == []


def _traced_run(config: PipelineConfig):
    """The report of one run traced as the benchmark traces it, and the
    trace's per-layer metrics."""
    trace = perfbench_module("spans").RunTrace()
    report = trace.run(lambda cfg, render: run_pipeline(cfg), config, emit_report)
    return report, trace.metrics()


def test_every_probe_is_a_spanned_call(tmp_path):
    # the benchmark counts probes by wrapping Prober.tap and Prober.claw:
    # a probe settled past them would go uncounted there, and the report's
    # taps and claws would outnumber the spans
    demo = PERFBENCH.parent / "images"
    configs = [
        PipelineConfig(image_path=str(demo / "demo.json"),
                       ground_truth_path=str(demo / "demo.maps"), mode=mode, seed=3)
        for mode in MODES
    ]
    img = build_victim_image(5, code_pages=16, cave_pages=16, stack_pages=16)
    manifest = tmp_path / "victim.json"
    manifest.write_text(img.manifest_text)
    configs.append(PipelineConfig(image_path=str(manifest), mode="linear",
                                  seed=5, spurious_prob=0.3))
    for config in configs:
        report, metrics = _traced_run(config)
        counters = report.probe_counters
        assert config.spurious_prob < 0.3 or counters["retries"] > 0  # retries ran
        assert (metrics["probe.tap_calls"], metrics["probe.claw_calls"]) == (
            counters["taps"], counters["claws"]), config
