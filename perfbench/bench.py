"""Measurement loops and metric arithmetic behind run.py.

Both loops are closed: one client in one process and thread makes a run,
checks it, and only then makes the next.  A run is timed from the call to
``run_pipeline`` (which loads the image) to the return of ``emit_report``.
Every timing is scaled to a reference host speed by ``hostspeed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

from caveprobe.cli import STAGES, PipelineConfig, StageError, emit_report, run_pipeline

from hostspeed import HostClock
from spans import RunTrace
from workloads import (
    DEMO_MANIFEST,
    DEMO_MAPS,
    Case,
    Workload,
    check_report,
    coverage,
    make_cases,
    make_images,
)

SETUPS = 5  # setup_s is the median of this many setups
MIN_REPEATS = 12  # runs past the first pass, rechecked byte for byte
BLOCKS = 20  # runs_per_s is the median rate over this many blocks of runs
DEMO_DIGEST_SEEDS = range(10)
TIME_SUFFIXES = ("_ms", "_ms_p90", "us_per_step")  # per-layer metrics that are times
SPANS_DIR = Path(".perfbench-out")


def pipeline(config: PipelineConfig, render=emit_report):
    report = run_pipeline(config)
    return report, render(report)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tx(counters: dict[str, int]) -> int:
    return counters.get("read_tx", 0) + counters.get("write_tx", 0)


class Checker:
    """Checks every run and sums the exact metrics over the first pass.

    The first run of each case goes through the oracle; a later run of the
    same case must render a byte-identical report.
    """

    def __init__(self, cases: list[Case]):
        self.cases = cases
        self.first: dict[int, tuple[str | None, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact = Counter()

    def record(self, i: int, report, text: str) -> bool:
        k = i % len(self.cases)
        digest = _sha(text)
        if k in self.first:
            first_digest, problem = self.first[k]
            if digest != first_digest:
                problem = "report differs from an earlier run of the same config"
        else:
            problem = check_report(report, self.cases[k].truth)
            self.first[k] = (digest, problem)
            c = report.probe_counters
            self.exact["runs"] += 1
            self.exact["tx"] += _tx(c)
            self.exact["retries"] += c.get("retries", 0)
            self.exact["coverage"] += coverage(report, self.cases[k].truth)
        return self.count(i, problem)

    def fail(self, i: int, problem: str) -> None:
        self.first.setdefault(i % len(self.cases), (None, problem))
        self.count(i, problem)

    def count(self, i: int, problem: str | None) -> bool:
        """Count one attempted run of case ``i``; ``problem`` marks it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            seed = self.cases[i % len(self.cases)].config.seed
            self.problems.append(f"run {i} (run seed {seed}): {problem}")
        return problem is None

    def first_pass_digest(self) -> str:
        return _sha("".join(str(self.first[k][0]) for k in sorted(self.first)))


def _setup(workload: Workload, seed: int) -> list[Case]:
    images = make_images(workload, seed)
    cases = make_cases(workload, seed, images)
    for case in cases[: workload.warmup_runs]:
        try:
            pipeline(case.config)
        except StageError:
            pass  # the loop runs this case again and counts the failure
    return cases


def _tail(ms: list[float]) -> tuple[str, float] | None:
    """Highest common percentile with at least ten samples beyond it."""
    for pct in (99.9, 99, 90):
        if len(ms) * (100 - pct) / 100 >= 10:
            n = round(100 / (100 - pct))
            return f"p{pct:g}", statistics.quantiles(ms, n=n)[-1]
    return None


def _scaled(ms, ok, busy, after, clock: HostClock):
    """Scale each run to reference time by the kernel batches just before
    and just after it (``after[i]`` is the index of the batch after run
    ``i``).  Returns the scaled times of the completed runs and the median
    rate over ``BLOCKS`` equal blocks of consecutive runs: completed runs
    per scaled second of run-and-check time, so a burst of host
    interference moves it no more than it moves the median run time."""
    factor = {b: clock.scale(b - 1, b) for b in set(after)}
    times = [t * factor[b] for t, good, b in zip(ms, ok, after) if good]
    rates = []
    for k in range(BLOCKS):
        lo = k * len(ok) // BLOCKS
        hi = (k + 1) * len(ok) // BLOCKS
        scaled_s = sum(s * factor[b] for s, b in zip(busy[lo:hi], after[lo:hi]))
        rates.append(sum(ok[lo:hi]) / scaled_s)
    return times, statistics.median(rates)


def measure(workload: Workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics.  Returns (values, checker, notes)."""
    clock = HostClock()
    clock.track(0.0, batch=True)
    setup_s = []
    for _ in range(SETUPS):
        start = perf_counter()
        cases = _setup(workload, seed)
        elapsed = perf_counter() - start
        clock.track(elapsed, batch=True)
        setup_s.append(elapsed * clock.scale(-2, -1))

    check = Checker(cases)
    ms: list[float] = []  # wall time of each run, 0 if it raised
    ok: list[bool] = []
    busy: list[float] = []  # run plus check, seconds
    after: list[int] = []  # index of the kernel batch that follows each run
    loop_start = perf_counter()
    while len(ok) < len(cases) + MIN_REPEATS or perf_counter() - loop_start < seconds:
        i = len(ok)
        start = perf_counter()
        try:
            report, text = pipeline(cases[i % len(cases)].config)
        except StageError as exc:
            check.fail(i, str(exc))
            ok.append(False)
            ms.append(0.0)
        else:
            ms.append((perf_counter() - start) * 1e3)
            ok.append(check.record(i, report, text))
        busy.append(perf_counter() - start)
        after.append(len(clock.batches))
        clock.track(busy[-1])
    clock.track(0.0, batch=True)
    window = perf_counter() - loop_start
    scaled_ms, rate = _scaled(ms, ok, busy, after, clock)

    tracemalloc.start()
    try:
        pipeline(cases[0].config)
    except StageError:
        pass  # already counted as failed in the loop
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    done = check.exact["runs"] or 1
    values = {
        "run_ms_p50": statistics.median(scaled_ms) if scaled_ms else 0.0,
        "runs_per_s": rate,
        "tx_per_run": check.exact["tx"] / done,
        "retries_per_run": check.exact["retries"] / done,
        "coverage": check.exact["coverage"] / done,
        "ok_frac": 1 - check.failed / check.attempted,
        "peak_mem_mb": peak / 1e6,
        "setup_s": statistics.median(setup_s),
    }
    notes = [
        f"runs {check.attempted} in {window:.1f} s, first pass {len(cases)}, "
        f"failed {check.failed}, failed_frac {check.failed / check.attempted}",
        f"report digest over the first pass: {check.first_pass_digest()}",
        f"host: kernel median {statistics.median(clock.samples):.4f} ms over "
        f"{len(clock.samples)} samples; unscaled wall run_ms p50 "
        f"{statistics.median([t for t, good in zip(ms, ok) if good] or [0]):.3f}",
    ]
    tail = _tail(scaled_ms)
    if tail:
        notes.append(f"run_ms {tail[0]} {tail[1]:.3f} ms over {len(scaled_ms)} runs")
    if workload.pages == 0:
        notes.append(f"demo report digest, seeds 0..9: {demo_digest()}")
    return values, check, notes


def demo_digest() -> str:
    """Digest of the default-config demo reports for seeds 0..9: unchanged
    by any refactor that means to leave behaviour alone."""
    texts = []
    for seed in DEMO_DIGEST_SEEDS:
        config = PipelineConfig(
            image_path=str(DEMO_MANIFEST), ground_truth_path=str(DEMO_MAPS), seed=seed
        )
        try:
            texts.append(pipeline(config)[1])
        except StageError as exc:
            texts.append(f"StageError: {exc}\n")
    return _sha("".join(texts))


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Traced run: the per-layer metrics.  Each case runs once untraced and
    once traced, in alternating order; per-layer counts are means over the
    first ``traced_runs`` cases.  Layer times are scaled to reference time by
    the kernel samples of the whole loop; the spans file keeps wall time."""
    cases = _setup(workload, seed)
    check = Checker(cases)
    counted = min(workload.traced_runs, len(cases))
    totals: Counter[str] = Counter()
    kept: list[list] = []
    ms = {False: [], True: []}
    clock = HostClock()
    i = 0
    loop_start = perf_counter()
    while i < counted or perf_counter() - loop_start < seconds:
        case = cases[i % len(cases)]
        pair_start = perf_counter()
        for traced in (False, True) if i % 2 else (True, False):
            trace = RunTrace()
            start = perf_counter()
            try:
                if traced:
                    report, text = trace.run(pipeline, case.config, emit_report)
                else:
                    report, text = pipeline(case.config)
            except StageError as exc:
                check.fail(i, str(exc))
                continue
            elapsed = perf_counter() - start
            if not check.record(i, report, text):
                continue
            ms[traced].append(elapsed * 1e3)
            if traced and i < counted:
                totals.update(trace.metrics())
                c = report.probe_counters
                totals["probe.read_tx"] += c.get("read_tx", 0)
                totals["probe.write_tx"] += c.get("write_tx", 0)
                totals["probe.retries"] += c.get("retries", 0)
                totals["explorer.pages_probed"] += report.exploration["pages-probed"]
                totals["runs"] += 1
                kept.append(trace.spans)
        clock.track(perf_counter() - pair_start)
        i += 1

    runs = totals.pop("runs", 0) or 1
    values = {name: total / runs for name, total in totals.items()}
    probes = totals["probe.tap_calls"] + totals["probe.claw_calls"]
    values["probe.useful_ratio"] = totals["probe.distinct_pairs"] / probes if probes else 0.0
    steps = totals["machine.steps"]
    values["machine.us_per_step"] = totals["machine.run_until_ms"] * 1e3 / steps if steps else 0.0
    values["cli.run_ms_p90"] = statistics.quantiles(ms[False], n=10)[-1]
    f = clock.scale()
    for name in values:
        if name.endswith(TIME_SUFFIXES):
            values[name] *= f
    values.update(stage_split(cases[: workload.prefix_runs], check))
    values["trace.overhead_frac"] = (
        statistics.median(ms[True]) / statistics.median(ms[False]) - 1
    )
    spans_file = write_spans(workload, seed, kept)
    notes = [
        f"pairs {i}, traced runs averaged {runs}, failed {check.failed}",
        f"run_ms p50 untraced {statistics.median(ms[False]):.3f}, traced "
        f"{statistics.median(ms[True]):.3f}, p90 over {len(ms[False])} runs",
        f"spans written to {spans_file}",
        f"host: kernel median {statistics.median(clock.samples):.4f} ms; "
        f"layer times scaled by {f:.4f}",
    ]
    return values, check, notes


def stage_split(cases: list[Case], check: Checker) -> dict[str, float]:
    """Transactions and retries per stage, from ``probe-counters`` of each
    ``stop_after`` prefix.  Runs are deterministic, so the difference
    between consecutive prefixes is exact."""
    totals: Counter[str] = Counter()
    for n, case in enumerate(cases):
        tx = retries = 0
        for stage in STAGES:
            config = dataclasses.replace(case.config, stop_after=stage)
            try:
                c = run_pipeline(config).probe_counters
            except StageError as exc:
                check.count(n, f"stop after {stage}: {exc}")
                break
            check.count(n, None)
            totals[f"cli.stage.{stage}.tx"] += _tx(c) - tx
            totals[f"cli.stage.{stage}.retries"] += c.get("retries", 0) - retries
            tx, retries = _tx(c), c.get("retries", 0)
    return {
        f"cli.stage.{stage}.{kind}": totals[f"cli.stage.{stage}.{kind}"] / max(len(cases), 1)
        for stage in STAGES
        for kind in ("tx", "retries")
    }


def write_spans(workload: Workload, seed: int, runs: list[list]) -> Path:
    """Write the kept spans, one JSON array per line after a header."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}.jsonl"
    with path.open("w") as fh:
        header = {
            "workload": workload.name,
            "seed": seed,
            "fields": ["run", "id", "name", "start_ns", "end_ns", "parent"],
        }
        fh.write(json.dumps(header) + "\n")
        for run_id, spans in enumerate(runs):
            for span_id, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps([run_id, span_id, name, start, end, parent]) + "\n")
    return path
