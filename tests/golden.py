"""The golden corpora: one table of every pinned set of reports, each with
its runs, the rule its digest follows and the digest pinned for it; and
beside it the relations between reports that the model promises.

A change that means to leave behaviour alone keeps every digest.  One that
changes reports on purpose shows where they moved, then re-pins:

    PYTHONPATH=BEFORE/src python tests/golden.py dump OLD   # the parent's reports
    PYTHONPATH=src python tests/golden.py dump NEW
    python tests/golden.py diff OLD NEW
    PYTHONPATH=src python tests/golden.py pin

``PYTHONPATH`` names the checkout whose program runs; the images and the
benchmark's workloads come from this one.  ``dump DIR`` writes each report
to ``DIR/CORPUS/NNNN.json`` (``.txt`` for text) and prints each corpus's
digest against its pin.  ``diff`` prints, for each corpus, how many reports
changed, each top-level block that changed with the number of reports it
changed in and its first differing JSON path, and for text the first
differing line; it exits 1 if any report changed.  ``pin`` rewrites the
digests in this file.

Every corpus is built in a temporary directory that holds a copy of
``images/``, so the reports name their images by the same relative paths
on any checkout, and the benchmark's generated images go there, never into
the checkout's ``.perfbench-work/``.  This file imports caveprobe and
``perfbench/`` only inside the functions that build runs:
``tests/bench_digests.py`` reads the pins where neither can be imported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
IMAGE, MAPS = "images/demo.json", "images/demo.maps"
BENCH_SEED = 1  # the benchmark smoke step's --seed


def perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` without putting ``perfbench/`` on the path."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, REPO / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


def _demo_runs() -> list:
    """The default-config demo runs for seeds 0..9."""
    from caveprobe.cli import PipelineConfig
    return [PipelineConfig(image_path=IMAGE, ground_truth_path=MAPS, seed=seed)
            for seed in range(10)]


def _combo_runs() -> list:
    """Every mode x chain variant x restore, in that product order, with
    seeds 0..2 innermost."""
    from caveprobe.cli import MODES, RESTORE_MODES, PipelineConfig
    from caveprobe.gadgets import CHAIN_VARIANTS
    return [
        PipelineConfig(image_path=IMAGE, ground_truth_path=MAPS, mode=mode,
                       chain_variant=variant, restore=restore, seed=seed)
        for mode, variant, restore in itertools.product(MODES, CHAIN_VARIANTS, RESTORE_MODES)
        for seed in range(3)
    ]


def _first_pass(name: str) -> Callable[[], list]:
    """The runs of the benchmark workload ``name``'s first pass at
    ``BENCH_SEED``, in the order ``perfbench/run.py`` makes them; its images
    are written under the working directory."""
    def runs() -> list:
        workloads = perfbench_module("workloads")
        workload = workloads.WORKLOADS[name]
        images = workloads.make_images(workload, BENCH_SEED)
        return [case.config for case in workloads.make_cases(workload, BENCH_SEED, images)]
    return runs


class Corpus(NamedTuple):
    name: str
    runs: Callable[[], list]  # the PipelineConfigs of its reports, in order
    digest: str
    fmt: str = "json"  # the --format each report is rendered in
    # hash each report's SHA-256 hex, as the benchmark's first-pass digest
    # does, in place of the reports themselves
    per_report: bool = False


CORPORA = (
    Corpus("demo-json", _demo_runs,
           "680a64e21994c8bf1d25fb00d577cff750dba8d117c2d2bcc17898b053e50dd2"),
    Corpus("demo-text", _demo_runs,
           "0a060df44ed4dba3b4d84a8189be27270a570e1868d6f6b85e6913f71294f8f0", fmt="text"),
    Corpus("demo-combos", _combo_runs,
           "aac65266ac1354bdd9b6b46a15b6c4fddf6b9548025057626da4a933d75de6a0"),
    # each benchmark workload's first pass: the digest the smoke run prints
    Corpus("demo-configs", _first_pass("demo-configs"),
           "6da3ad5dcd70c6deace8dad33dbbb8ca19f8ff9eff7181fe439513d75963b463", per_report=True),
    Corpus("large-aslr", _first_pass("large-aslr"),
           "38ce8b51e3663f161bcbc6eda60e67b85e8678e4608afa0282e956eda7a0535c", per_report=True),
    Corpus("noisy-noaslr", _first_pass("noisy-noaslr"),
           "9868c3cf994efed07e4f03c74f6d1fb67fc18135264f215cfbd1e22d1a0d3b66", per_report=True),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(corpus: Corpus, texts: list[str]) -> str:
    """``corpus``'s digest rule applied to the reports ``texts``."""
    return _sha("".join(map(_sha, texts) if corpus.per_report else texts))


def check(corpus: Corpus, texts: list[str]) -> str | None:
    """What is wrong with ``texts`` as ``corpus``'s reports, or None."""
    got = digest(corpus, texts)
    return None if got == corpus.digest else f"digest {got}, pinned {corpus.digest}"


@contextlib.contextmanager
def _in_images_copy():
    """Run the block in a temporary directory that holds a copy of images/."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(REPO / "images", Path(tmp, "images"))
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def build(names: tuple[str, ...] | None = None, **fields) -> dict[str, list[str]]:
    """Each corpus's reports, in order, or only those of the corpora
    ``names``, each run with the config ``fields`` replaced.  Corpora with
    the same runs render one run of each, so the demo's JSON and text share
    ten runs.  A run that fails gives the line ``StageError: ...`` in place
    of its report."""
    from caveprobe.cli import StageError, emit_report, run_pipeline
    chosen = [corpus for corpus in CORPORA if names is None or corpus.name in names]
    texts: dict[str, list[str]] = {corpus.name: [] for corpus in chosen}
    with _in_images_copy():
        for runs in dict.fromkeys(corpus.runs for corpus in chosen):
            renders = [corpus for corpus in chosen if corpus.runs is runs]
            for config in runs():
                try:
                    report = run_pipeline(dataclasses.replace(config, **fields))
                except StageError as exc:
                    rendered = [f"StageError: {exc}\n"] * len(renders)
                else:
                    rendered = [emit_report(report, corpus.fmt) for corpus in renders]
                for corpus, text in zip(renders, rendered):
                    texts[corpus.name].append(text)
    return texts


# --- the differ ------------------------------------------------------------

_ABSENT = object()


def _show(value) -> str:
    text = "(absent)" if value is _ABSENT else json.dumps(value)
    return text if len(text) <= 70 else text[:67] + "..."


def first_difference(old, new, path: str = "") -> str | None:
    """Where the JSON values ``old`` and ``new`` first differ, in key order:
    ``PATH: OLD -> NEW``, or None when they are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            found = first_difference(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                     f"{path}.{key}" if path else key)
            if found:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            found = first_difference(old[i] if i < len(old) else _ABSENT,
                                     new[i] if i < len(new) else _ABSENT, f"{path}[{i}]")
            if found:
                return found
        return None
    if old == new and type(old) is type(new):
        return None
    return f"{path}: {_show(old)} -> {_show(new)}"


def _first_line_difference(old: str, new: str) -> str:
    a, b = old.splitlines(), new.splitlines()
    n = next(i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1])
    return (f"line {n + 1}: {_show(a[n] if n < len(a) else _ABSENT)} -> "
            f"{_show(b[n] if n < len(b) else _ABSENT)}")


def write_dump(out: Path, texts: dict[str, list[str]]) -> None:
    """Write each corpus's reports to ``out/CORPUS/NNNN.json`` (or ``.txt``)."""
    fmt = {corpus.name: corpus.fmt for corpus in CORPORA}
    for name, reports in texts.items():
        (out / name).mkdir(parents=True)
        suffix = ".txt" if fmt[name] == "text" else ".json"
        for i, text in enumerate(reports):
            (out / name / f"{i:04d}{suffix}").write_bytes(text.encode())


def _read(path: Path) -> str:
    return path.read_bytes().decode() if path.exists() else ""


def diff(old: Path, new: Path) -> tuple[list[str], int]:
    """The differ's lines for the dumps ``old`` and ``new``, and the number
    of reports that changed."""
    order = {corpus.name: i for i, corpus in enumerate(CORPORA)}
    names = {p.name for dump in (old, new) for p in dump.iterdir() if p.is_dir()}
    lines, total = [], 0
    for name in sorted(names, key=lambda n: (order.get(n, len(order)), n)):
        files = sorted({p.name for dump in (old, new) for p in (dump / name).glob("*")})
        blocks: dict[str, list] = {}  # block -> [reports, first difference]
        changed = 0
        for file in files:
            a, b = _read(old / name / file), _read(new / name / file)
            if a == b:
                continue
            changed += 1
            try:
                a_doc, b_doc = json.loads(a), json.loads(b)
                keys = a_doc.keys() | b_doc.keys()
            except (ValueError, AttributeError):  # text, or not a JSON object
                blocks.setdefault("", [0, f"{file} {_first_line_difference(a, b)}"])[0] += 1
                continue
            for key in sorted(keys):
                found = first_difference(a_doc.get(key, _ABSENT), b_doc.get(key, _ABSENT), key)
                if found:
                    blocks.setdefault(key, [0, f"{file} {found}"])[0] += 1
        total += changed
        lines.append(f"{name}: {changed} of {len(files)} reports changed")
        for block, (count, first) in sorted(blocks.items()):
            lines.append(f"  {block + ': ' if block else ''}{count} changed; first in {first}")
    return lines, total


# --- the relations ---------------------------------------------------------

def _report(**config) -> dict:
    from caveprobe.cli import PipelineConfig, emit_report, run_pipeline
    return json.loads(emit_report(run_pipeline(PipelineConfig(**config))))


def _differs(expected: dict, got: dict) -> str | None:
    found = first_difference(expected, got)
    return found and f"first differs at {found}"


_HEX = re.compile(r"0x[0-9a-f]+")


def aslr_translation(**config) -> str | None:
    """ASLR is a translation.  The ASLR-on report is the ASLR-off report
    with ``config.aslr`` and ``aslr-offset`` set and every hex value moved
    by the offset when it lies on a user page the image maps or is one past
    such a page, as the ``end`` of a map run is.  None when that holds."""
    from caveprobe.memspace import PAGE_SIZE, USER_TOP, load_manifest, parse_manifest
    on, off = _report(aslr=True, **config), _report(aslr=False, **config)
    space = load_manifest(parse_manifest(Path(config["image_path"]).read_bytes()))
    pages = {base for base in space.pages if base < USER_TOP}
    offset = int(on["aslr-offset"], 16)

    def move(match: re.Match) -> str:
        addr = int(match.group(), 16)
        if addr - addr % PAGE_SIZE in pages or (addr - 1) - (addr - 1) % PAGE_SIZE in pages:
            return f"{addr + offset:#x}"
        return match.group()

    def moved(value):
        if isinstance(value, str):
            return _HEX.sub(move, value)
        if isinstance(value, dict):
            return {key: moved(item) for key, item in value.items()}
        return [moved(item) for item in value] if isinstance(value, list) else value

    off = moved(off)
    off["config"]["aslr"] = True
    off["aslr-offset"] = on["aslr-offset"]
    return _differs(off, on)


def hybrid_is_pointer_chase(**config) -> str | None:
    """``hybrid`` probes as the pointer chase does, and every mode's gadget
    census stops once the chain's kinds are found: its JSON report is
    pointer-chase's once the two mode names are swapped, ``gadgets``
    included, and every kind the chain and the epilogue need has a site."""
    from caveprobe import gadgets
    hybrid, chase = (_report(mode=mode, **config) for mode in ("hybrid", "pointer-chase"))
    modes = (hybrid["config"]["mode"], hybrid["exploration"]["mode"])
    if modes != ("hybrid", "hybrid"):
        return f"the hybrid run names the modes {modes}"
    hybrid["config"]["mode"] = hybrid["exploration"]["mode"] = "pointer-chase"
    need = (*gadgets.CHAINS[hybrid["config"]["chain-variant"]], "leave-ret")
    if missing := [kind for kind in need if not hybrid["gadgets"].get(kind)]:
        return f"no site for {missing}"
    return _differs(chase, hybrid)


def explore_budget(**config) -> str | None:
    """An explore budget of the run's ``pages-probed``, or one more, gives
    the report of the default budget but for ``config.explore-budget``."""
    full = _report(**config)
    probed = full["exploration"]["pages-probed"]
    for budget in (probed, probed + 1):
        capped = _report(**config, explore_budget=budget)
        if capped["config"]["explore-budget"] != budget:
            return f"budget {budget}: the report names {capped['config']['explore-budget']}"
        capped["config"]["explore-budget"] = full["config"]["explore-budget"]
        if problem := _differs(full, capped):
            return f"budget {budget}: {problem}"
    return None


# --- the commands ----------------------------------------------------------

def repinned(source: str, digests: dict[str, str]) -> str:
    """This file's text ``source`` with each corpus's pinned digest replaced
    by its digest in ``digests``."""
    for corpus in CORPORA:
        source = source.replace(f'"{corpus.digest}"', f'"{digests[corpus.name]}"')
    return source


def _built() -> dict[str, list[str]]:
    """Every corpus's reports, once a line per corpus says if it matches
    its pin."""
    texts = build()
    for corpus in CORPORA:
        problem = check(corpus, texts[corpus.name])
        print(f"{corpus.name}: {len(texts[corpus.name])} reports: {problem or 'ok'}")
    return texts


def main(argv: list[str]) -> int:
    usage = "usage: python tests/golden.py dump DIR | diff DIR_A DIR_B | pin"
    command, args = (argv[0], argv[1:]) if argv else ("", [])
    if (command, len(args)) not in (("dump", 1), ("diff", 2), ("pin", 0)):
        print(usage, file=sys.stderr)
        return 2
    try:
        if command == "diff":
            lines, changed = diff(*map(Path, args))
            print("\n".join(lines))
            return 1 if changed else 0
        out = Path(args[0]).resolve() if args else None  # before the runs' chdir
        texts = _built()
        if command == "pin":
            path = Path(__file__)
            path.write_text(repinned(path.read_text(), {
                corpus.name: digest(corpus, texts[corpus.name]) for corpus in CORPORA}))
        else:
            write_dump(out, texts)
    except OSError as exc:
        print(f"golden.py: {exc.strerror or exc}: {exc.filename}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"golden.py: {exc}; put a checkout's src/ on PYTHONPATH", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
