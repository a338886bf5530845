#!/usr/bin/env python3
"""caveprobe pipeline benchmark.

Runs full attack pipelines through the public API (``PipelineConfig`` ->
``run_pipeline`` -> ``emit_report``) in a closed loop, checks every run's
output against the synth ground truth, and prints the metrics named in
BENCHMARK.json.  Run it from anywhere; it works in the checkout it lives in:

    python3 perfbench/run.py --workload large-aslr --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload in
turn.  A table per workload goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Import caveprobe from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import caveprobe

    if not Path(caveprobe.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"caveprobe came from {caveprobe.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORK_DIR, WORKLOADS, image_dir

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in chosen:
        measure = bench.measure_traced if args.trace else bench.measure
        try:
            values, check, notes = measure(workload, args.seed, args.seconds)
        finally:
            shutil.rmtree(image_dir(workload, args.seed), ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # absent, or another run still uses it
        print(f"== {workload.name} (seed {args.seed}, trace {args.trace}): {why[workload.name]}")
        for note in notes:
            print(f"  {note}")
        for problem in check.problems[:10]:
            print(f"  FAILED {problem}")
        for m in wanted:
            print(f"  {m['name']:<34} {values[m['name']]:>16.6f} {m['unit']}")
        prefix = f"{workload.name}." if len(chosen) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        attempted += check.attempted
        failed += check.failed

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
