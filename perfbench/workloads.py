"""Benchmark workloads: their input images, the runs they make, and the
oracle every run's output is checked against.

Each image comes from ``caveprobe.synth.build_victim_image``, so every run
has a ``VictimTruth`` that knows what the attacker should find.  The shipped
demo image is byte-identical to ``build_victim_image(7)``; setup checks that
before it trusts the truth object.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from caveprobe.cli import MODES, RESTORE_MODES, PipelineConfig
from caveprobe.gadgets import CHAIN_VARIANTS
from caveprobe.memspace import PAGE_SIZE
from caveprobe.probe import Writability
from caveprobe.synth import VictimTruth, build_victim_image

# Generated images go under here, relative to the checkout root.  The path
# shows up in every report's config block, so it depends only on the
# workload and the seed.
WORK_DIR = Path(".perfbench-work")

# Run seeds are drawn from [0, RUN_SEED_SPACE).
RUN_SEED_SPACE = 20_000

DEMO_IMAGE_SEED = 7
DEMO_MANIFEST = Path("images/demo.json")
DEMO_MAPS = Path("images/demo.maps")

# mode x chain variant x restore: the 12 pipeline variants demo-configs
# rotates through
COMBOS = tuple(
    {"mode": m, "chain_variant": v, "restore": r}
    for m, v, r in itertools.product(MODES, CHAIN_VARIANTS, RESTORE_MODES)
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    ``pages`` is pages per region for synth images; 0 selects the shipped
    demo image.  The run counts are fixed, not timed, so every exact metric
    is taken over the same runs on any host:

    - ``exact_runs``: the first pass of the timed loop; exact end-to-end
      metrics are means over it.  Sized so the retry count, a Poisson
      count, varies by about 8% between seeds, while a run on a host twice
      as slow as expected still ends well inside its time limit.
    - ``traced_runs``: traced runs whose per-layer counts are averaged.
    - ``prefix_runs``: runs replayed with every ``stop_after`` prefix to
      split transactions by stage.
    - ``warmup_runs``: untimed runs inside each setup.
    """

    name: str
    pages: int
    images: int
    pipeline: dict
    rotate_combos: bool
    exact_runs: int
    traced_runs: int
    prefix_runs: int
    warmup_runs: int


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo-configs",
            pages=0,
            images=1,
            pipeline={},
            rotate_combos=True,
            exact_runs=3000,
            traced_runs=120,
            prefix_runs=12,
            warmup_runs=24,
        ),
        Workload(
            name="large-aslr",
            pages=256,
            images=1,
            pipeline={"mode": "hybrid"},
            rotate_combos=False,
            exact_runs=100,
            traced_runs=50,
            prefix_runs=2,
            warmup_runs=2,
        ),
        Workload(
            name="noisy-noaslr",
            pages=64,
            images=8,
            pipeline={"mode": "linear", "aslr": False, "spurious_prob": 0.3},
            rotate_combos=False,
            exact_runs=1600,
            traced_runs=120,
            prefix_runs=8,
            warmup_runs=16,
        ),
    )
}


@dataclass(frozen=True)
class Image:
    manifest: Path
    maps: Path
    truth: VictimTruth


@dataclass(frozen=True)
class Case:
    """One pipeline run and the truth its output is checked against."""

    config: PipelineConfig
    truth: VictimTruth


def image_dir(workload: Workload, seed: int) -> Path:
    return WORK_DIR / f"{workload.name}-{seed}"


def make_images(workload: Workload, seed: int) -> list[Image]:
    """Generate and write the workload's images; the same seed gives the
    same files."""
    if workload.pages == 0:
        built = build_victim_image(DEMO_IMAGE_SEED)
        if (
            DEMO_MANIFEST.read_text() != built.manifest_text
            or DEMO_MAPS.read_text() != built.maps_text
        ):
            raise RuntimeError(
                f"{DEMO_MANIFEST} is not build_victim_image({DEMO_IMAGE_SEED}); "
                "the oracle has no truth for it"
            )
        return [Image(DEMO_MANIFEST, DEMO_MAPS, built.truth)]

    rng = random.Random(f"perfbench:{workload.name}:{seed}:images")
    out = image_dir(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    images = []
    for k in range(workload.images):
        n = workload.pages
        built = build_victim_image(
            rng.getrandbits(32), code_pages=n, cave_pages=n, stack_pages=n
        )
        manifest = out / f"image-{k}.json"
        maps = out / f"image-{k}.maps"
        manifest.write_text(built.manifest_text)
        maps.write_text(built.maps_text)
        images.append(Image(manifest, maps, built.truth))
    return images


def make_cases(workload: Workload, seed: int, images: list[Image]) -> list[Case]:
    """The workload's ``exact_runs`` runs, in the order the loop makes them."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}:runs")
    cases = []
    for i in range(workload.exact_runs):
        image = images[i % len(images)]
        fields = dict(workload.pipeline)
        if workload.rotate_combos:
            fields.update(COMBOS[i % len(COMBOS)])
        config = PipelineConfig(
            image_path=str(image.manifest),
            ground_truth_path=str(image.maps),
            seed=rng.randrange(RUN_SEED_SPACE),
            **fields,
        )
        cases.append(Case(config, image.truth))
    return cases


def check_report(report, truth: VictimTruth) -> str | None:
    """Independent oracle for one full run.  Returns what is wrong, or None."""
    off = report.aslr_offset
    if not report.verdicts:
        return "no verdicts"
    failing = sorted(k for k, ok in report.verdicts.items() if not ok)
    if failing:
        return f"verdicts failed: {failing}"
    inj = report.injection
    if int(inj["resume-rip"], 16) != truth.saved_rip + off:
        return f"resume-rip {inj['resume-rip']} is not the saved rip"
    if int(inj["victim-slot"], 16) != truth.victim_slot + off:
        return f"victim-slot {inj['victim-slot']} is not the victim frame"
    cave = (int(inj["cave"]["start"], 16), int(inj["cave"]["len"], 16))
    if cave != (truth.cave_start + off, truth.cave_len):
        return f"cave {inj['cave']} is not the planted cave"
    for kind, addr in truth.gadget_plants.items():
        if addr + off not in report.gadget_census.get(kind, ()):
            return f"planted {kind} gadget at {addr + off:#x} not in the census"
    if report.run.get("stop-reason") != "reached-stop":
        return f"run stopped with {report.run.get('stop-reason')!r}"
    return None


def coverage(report, truth: VictimTruth) -> float:
    """Share of truly user-readable pages the reconstructed map marks
    accessible."""
    off = report.aslr_offset
    readable = {
        page + off
        for start, length, perms in truth.regions.values()
        if "r" in perms
        for page in range(start, start + length, PAGE_SIZE)
    }
    found = {
        page
        for run in report.reconstructed.runs
        if run.kind is not Writability.INACCESSIBLE
        for page in range(run.start, run.end, PAGE_SIZE)
    }
    return len(readable & found) / len(readable)
