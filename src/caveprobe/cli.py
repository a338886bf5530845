"""Attack pipeline and command line front end.

The pipeline drives the whole flow against a loaded victim image: explore
accessibility from the host's stack pointer, classify writability, census
gadgets, pick a cave, forge and inject the fake frame, then execute the
pivot on the machine model and judge the outcome.  The only address it is
given is the image's stack pointer; everything else must come out of probes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import stat
import sys
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from time import time_ns
from typing import BinaryIO

from . import caves, explorer, gadgets, injector, machine
from .memspace import (
    MAX_MANIFEST_PAGES,
    PAGE_SIZE,
    USER_TOP,
    AddressSpace,
    GroundTruthMap,
    ManifestError,
    PageRun,
    _clip,
    load_manifest,
    parse_hex,
    parse_manifest,
    parse_proc_maps,
)
from .probe import NO_ACCESS, READ_ONLY, Prober

MODES = ("linear", "pointer-chase", "hybrid")
RESTORE_MODES = ("payload", "chain-only")

ENV_SEED = "CAVEPROBE_SEED"

EXIT_OK = 0
EXIT_STAGE_ERROR = 2
EXIT_VERDICT_FAILURE = 3

# what the report splits by stage: the transactions and retries the
# attacker pays for, in the order of ``Prober.totals``
STAGE_COUNTERS = ("read_tx", "write_tx", "retries")

_ASLR_PAGE_BITS = 28  # pages of entropy for the base shift
MAX_STEPS = 100_000  # machine step budget of the execute stage


@dataclass(frozen=True)
class PipelineConfig:
    image_path: str
    mode: str = "hybrid"
    seed: int = 0
    spurious_prob: float = 0.001
    chain_variant: str = "sound-5"
    restore: str = "payload"
    ground_truth_path: str | None = None
    stop_after: str = "execute"
    aslr: bool = True
    explore_budget: int = explorer.DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.stop_after not in STAGES:
            raise ValueError(f"stop_after must be one of {STAGES}")
        if self.chain_variant not in gadgets.CHAIN_VARIANTS:
            raise ValueError(f"chain_variant must be one of {gadgets.CHAIN_VARIANTS}")
        if self.restore not in RESTORE_MODES:
            raise ValueError(f"restore must be one of {RESTORE_MODES}")
        if self.explore_budget < 1:
            raise ValueError("explore_budget must be at least 1")
        if not 0 <= self.spurious_prob < 1:
            raise ValueError("spurious_prob must be in [0, 1)")


class StageError(RuntimeError):
    """A pipeline stage could not complete."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _hex_extent(start: int, length: int) -> dict[str, str]:
    return {"start": f"{start:#x}", "len": f"{length:#x}"}


@dataclass
class AttackReport:
    config: PipelineConfig
    aslr_offset: int = 0
    exploration: dict = field(default_factory=dict)
    reconstructed: explorer.ReconstructedMap | None = None
    map_mismatches: list[str] = field(default_factory=list)
    gadget_census: dict[str, tuple[int, ...]] = field(default_factory=dict)
    cave_list: list = field(default_factory=list)
    injection: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    probe_counters: dict[str, int] = field(default_factory=dict)
    stage_counters: dict[str, dict[str, int]] = field(default_factory=dict)

    def all_verdicts_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json_obj(self) -> dict:
        obj: dict = {
            "tool": "caveprobe",
            "config": {
                f.name.replace("_", "-"): getattr(self.config, f.name)
                for f in fields(self.config)
            },
            "aslr-offset": f"{self.aslr_offset:#x}",
            "stages": list(self.stage_counters),
            "probe-counters": dict(sorted(self.probe_counters.items())),
            "probe-counters-by-stage": self.stage_counters,
            "exploration": self.exploration,
        }
        if self.reconstructed is not None:
            obj["reconstructed-map"] = [
                {"start": f"{r.start:#x}", "end": f"{r.end:#x}", "class": r.kind.value}
                for r in self.reconstructed.runs
            ]
            if self.config.ground_truth_path is not None:
                obj["map-mismatches"] = list(self.map_mismatches)
        if "gadgets" in self.stage_counters:
            obj["gadgets"] = {
                name: [f"{a:#x}" for a in addrs]
                for name, addrs in sorted(self.gadget_census.items())
            }
        if "caves" in self.stage_counters:
            obj["caves"] = [_hex_extent(c.start, c.end - c.start) for c in self.cave_list]
        if "inject" in self.stage_counters:
            obj["injection"] = self.injection
        if "execute" in self.stage_counters:
            obj["run"] = self.run
        obj["verdicts"] = dict(sorted(self.verdicts.items()))
        return obj


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(value, indent=2,
    sort_keys=True)`` gives for ``value`` at the line break and indent
    ``pad``.  The stdlib encoder writes indented JSON in pure Python; this
    writes the same bytes with fewer calls, strings through the C escaper.
    Keys must be strings."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _json_str(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:  # float; anything else raises TypeError there
        out.append(json.dumps(value))


def emit_report(report: AttackReport, fmt: str = "json") -> str:
    """Render a report deterministically; identical runs give identical text.

    Both formats come from ``report.to_json_obj()``.  The JSON form is
    exactly ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.
    The text form is a summary of that document: hex values lose their
    ``0x``, and an empty cave list is left out.
    """
    obj = report.to_json_obj()
    if fmt == "json":
        out: list[str] = []
        _write_json(obj, "\n", out)
        out.append("\n")
        return "".join(out)
    cfg = obj["config"]
    lines = [
        "caveprobe report",
        f"  image: {cfg['image-path']}",
        f"  mode: {cfg['mode']}  seed: {cfg['seed']}  "
        f"aslr-offset: {obj['aslr-offset']}",
        f"  stages: {' -> '.join(obj['stages'])}",
    ]
    if e := obj.get("exploration"):
        lines.append(
            f"  probed {e['pages-probed']} pages, "
            f"{e['accessible-pages']} accessible"
        )
    if "reconstructed-map" in obj:
        lines.append("  reconstructed map:")
        lines += (
            f"    {r['start'][2:]}-{r['end'][2:]} {r['class']}"
            for r in obj["reconstructed-map"]
        )
    if census := obj.get("gadgets"):
        counts = ", ".join(f"{name}:{len(addrs)}" for name, addrs in census.items())
        lines.append(f"  gadgets: {counts}")
    if cave_list := obj.get("caves"):
        lines.append("  caves:")
        lines += (f"    {c['start'][2:]}+{c['len'][2:]}" for c in cave_list)
    if run := obj.get("run"):
        lines.append(f"  run: {run['steps']} steps, {run['stop-reason']}")
    if obj["verdicts"]:
        lines.append("  verdicts:")
        lines += (
            f"    {name}: {'pass' if ok else 'FAIL'}"
            for name, ok in obj["verdicts"].items()
        )
    return "\n".join(lines) + "\n"


# --- inputs, kept per process --------------------------------------------------

# A file whose status changed less than this long before the clock at lookup
# is parsed and not kept: a rewrite in place of the same size within one
# timestamp tick then cannot be served stale, even where ctime is coarse
# (FAT: 2 s; ext4 on older kernels: one jiffy)
RACY_NS = 2_000_000_000


# the input files loaded so far, key (see ``_memo_key``) -> (value, weight);
# only ``_parse_file`` reads and writes it
_KEPT: dict[tuple, tuple[object, int]] = {}


def _memo_key(file, what: str) -> tuple | None:
    """The key in ``_KEPT`` of the open ``file`` loaded as ``what``, its stat
    signature: only a regular file of non-zero size, whose status did not
    change within ``RACY_NS`` of the lookup, has one."""
    try:
        st = os.fstat(file.fileno())
    except OSError:  # io.UnsupportedOperation too: a file-like object
        return None
    if not stat.S_ISREG(st.st_mode) or not st.st_size or time_ns() - st.st_ctime_ns < RACY_NS:
        return None
    return (what, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _parse_file(path: Path, what: str, parse, weigh):
    """``parse`` of the input file ``path``, opened for binary reads, whose
    bytes must be UTF-8 whatever the locale.  The file is opened once; the
    stat signature of that handle looks it up in ``_KEPT``, and a miss
    parses from the same handle and keeps the value there, shared with
    later runs; a load that fails is never kept.  A kept value must not
    change, with one exception: the first run that shifts a kept
    ``_Image`` by a non-zero offset sets its ``relocations``, once.
    ``weigh`` gives a value's weight, at least 1: its pages, or a maps
    file's regions.  A load that would take the kept weights past
    ``MAX_MANIFEST_PAGES`` first empties the table, and a value heavier
    than the bound on its own is not kept.  A failed open and a read that
    fails part way give the same one line."""
    shown = _clip(str(path))
    try:
        with open(path, "rb", buffering=0) as file:
            key = _memo_key(file, what)
            if key is not None and (entry := _KEPT.get(key)) is not None:
                return entry[0]
            value = parse(file)
    except OSError as exc:
        raise ValueError(f"cannot read {shown}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{what} {shown} is not UTF-8: first bad byte at offset {exc.start}"
        ) from None
    if key is not None:
        weight = max(weigh(value), 1)
        if weight + sum(w for _, w in _KEPT.values()) > MAX_MANIFEST_PAGES:
            _KEPT.clear()
        if weight <= MAX_MANIFEST_PAGES:
            _KEPT[key] = (value, weight)
    return value


@dataclass(slots=True)
class _Image:
    """A loaded manifest: its space as built, the stack pointer it gives the
    attacker, the layout of its user pages, which every run's ASLR draw
    and shift read, and, once a run shifted the image by a non-zero
    offset, the table of the words every such shift relocates."""

    space: AddressSpace
    stack_pointer: int
    layout: list[PageRun]
    relocations: dict | None = None  # space.relocations(layout)


def _read_image(file: BinaryIO) -> _Image:
    """Parse the manifest file once.  Its stack pointer is the one seed the
    attacker is given; other seeds are ground truth for checkers and are
    not read."""
    doc = parse_manifest(file)
    seed_obj = doc.get("seeds")
    if not isinstance(seed_obj, dict):
        raise ManifestError('image manifest lacks a "seeds" object')
    stack_pointer = parse_hex(seed_obj.get("stack_pointer"), "seeds.stack_pointer")
    if not 0 <= stack_pointer < USER_TOP:
        raise ManifestError(
            f"seeds.stack_pointer is outside the user half [0, {USER_TOP:#x})"
        )
    space = load_manifest(doc)
    return _Image(space, stack_pointer, space.layout())


def _read_maps(file: BinaryIO) -> GroundTruthMap:
    return parse_proc_maps(file.read().decode())


def _aslr_offset(seed: int, layout: list[PageRun]) -> int:
    """Draw the base shift for ``seed``: 2**28 pages of entropy.  A draw
    that would push the highest user page past the user half is replaced
    by a second draw from the same RNG over the pages left above it, so
    every seed that fitted before keeps its offset."""
    rng = random.Random(f"{seed}:aslr")
    pages = rng.randrange(1 << _ASLR_PAGE_BITS)
    if layout:
        room = (USER_TOP - layout[-1].end) // PAGE_SIZE
        if pages > room:
            pages = rng.randrange(room + 1)
    return pages * PAGE_SIZE


@dataclass(slots=True)
class Pipeline:
    """One attack run against one image: the typed context its stages fill
    in order.  The stages read only through the probe store the load builds;
    the simulator's own checks and the machine read its space.  Kept apart
    from the report, which must not hold the store: a report that kept it
    alive while it rendered raised peak memory on every benchmark workload.
    Tests reach the store behind a finished report through this object."""

    config: PipelineConfig
    report: AttackReport = field(init=False)
    # load
    pagemap: explorer.PageMap | None = None
    stack_pointer: int | None = None
    truth: GroundTruthMap | None = None
    # explore: the store's runs once its verdicts are settled; a later
    # stage that probes must build the runs it reads anew
    runs: list[PageRun] | None = None
    # gadgets
    catalog: gadgets.GadgetCatalog | None = None
    # inject; a linear probe stage sets victim, the frame it found
    victim: injector.VictimFrame | None = None
    image: injector.FakeFrameImage | None = None
    canary_before: bytes | None = None

    def __post_init__(self) -> None:
        self.report = AttackReport(config=self.config)

    def run(self) -> AttackReport:
        try:
            _load(self)
        except Exception as exc:
            raise StageError("load", exc) from exc
        prober = self.pagemap.prober
        before = prober.totals()
        for stage, body in _STAGE_TABLE:
            try:
                body(self)
            except Exception as exc:
                raise StageError(stage, exc) from exc
            after = prober.totals()
            self.report.stage_counters[stage] = {
                k: n - m for k, n, m in zip(STAGE_COUNTERS, after, before)
            }
            before = after
            if stage == self.config.stop_after:
                break
        # the store's totals after the last stage: what --explore-budget caps
        verdicts = self.pagemap.entries.values()
        self.report.exploration["pages-probed"] = len(verdicts)
        self.report.exploration["accessible-pages"] = len(verdicts) - [*verdicts].count(NO_ACCESS)
        self.report.probe_counters = prober.counters
        return self.report


# --- stage bodies -------------------------------------------------------------

def _load(ctx: Pipeline) -> None:
    cfg = ctx.config
    image = _parse_file(Path(cfg.image_path), "manifest", _read_image,
                        lambda image: len(image.space.pages))
    offset = _aslr_offset(cfg.seed, image.layout) if cfg.aslr else 0
    if offset and image.relocations is None:
        image.relocations = image.space.relocations(image.layout)
    # the run's space shares the kept image's pages: none changes once built
    space = image.space.shifted(offset, image.layout, image.relocations)
    ctx.report.aslr_offset = offset
    ctx.pagemap = explorer.PageMap(
        space, Prober(cfg.spurious_prob, cfg.seed), cfg.explore_budget)
    ctx.stack_pointer = image.stack_pointer + offset
    if cfg.ground_truth_path is not None:
        truth = _parse_file(Path(cfg.ground_truth_path), "ground truth", _read_maps,
                            lambda truth: len(truth.regions))
        ctx.truth = truth.shifted(offset) if offset else truth


def _probe(ctx: Pipeline) -> None:
    cfg = ctx.config
    frame = explorer.explore(ctx.pagemap, cfg.mode, ctx.stack_pointer)
    if frame is not None:
        ctx.victim = injector.VictimFrame(*frame)
    ctx.report.exploration = {"mode": cfg.mode}


def _explore(ctx: Pipeline) -> None:
    # grow each accessible hit, in address order, to its maximal extent
    # with claws, which settle each page's verdict.  An extent ends below a
    # page stored inaccessible, and a stored verdict is never weakened, so
    # a hit past the last extent grows one that starts past it: the extents
    # come out sorted and disjoint, and every accessible page lies in one
    accessible = ctx.pagemap.accessible_pages()
    if not accessible:
        raise ValueError("exploration found nothing accessible")
    extents = hi = 0
    for base in accessible:
        if base >= hi:
            _, hi = explorer.region_around(ctx.pagemap, base)
            extents += 1
    ctx.report.exploration["extents"] = extents
    ctx.runs = ctx.pagemap.runs()
    ctx.report.reconstructed = explorer.reconstruct_map(ctx.runs)
    if ctx.truth is not None:
        # every verdict the store holds so far, misses included
        mismatches = explorer.match_ground_truth(ctx.runs, ctx.truth)
        ctx.report.map_mismatches = mismatches
        ctx.report.verdicts["map-match"] = not mismatches


def _gadgets(ctx: Pipeline) -> None:
    # read-only pages are where gadgets can live; writable pages would
    # not make them trustworthy
    code = [r for r in ctx.runs if r.kind is READ_ONLY]
    # the chain's kinds and the pivot's epilogue, where the census stops
    need = (*gadgets.CHAINS[ctx.config.chain_variant], "leave-ret")
    ctx.catalog = gadgets.find_gadgets(ctx.pagemap, code, need)
    ctx.report.gadget_census = dict(ctx.catalog.found)
    ctx.catalog.require(need)


def _caves(ctx: Pipeline) -> None:
    ctx.report.cave_list = caves.find_caves(ctx.pagemap, ctx.runs)


def _inject(ctx: Pipeline) -> None:
    cfg = ctx.config
    # a frame the probe stage found is the one a search would find now: the
    # pages it read and clawed are stored, and no verdict changes
    victim = ctx.victim or injector.locate_victim_frame(ctx.pagemap, ctx.stack_pointer)
    marker_value = None
    if cfg.restore == "payload":
        marker_value = random.Random(f"{cfg.seed}:marker").getrandbits(64) | 1
    image = injector.forge_fake_frame(
        victim, ctx.catalog, ctx.report.cave_list, cfg.chain_variant, marker_value)
    ctx.canary_before = ctx.pagemap.space.read_bytes(victim.canary_slot_addr, 8)
    injector.inject(ctx.pagemap, victim, image)

    ctx.victim = victim
    ctx.image = image
    ctx.report.injection = {
        "cave": _hex_extent(image.cave.start, image.cave.end - image.cave.start),
        "victim-slot": f"{victim.rbp_slot_addr:#x}",
        "resume-rip": f"{victim.saved_rip:#x}",
        "epilogue-gadget": f"{image.epilogue:#x}",
        "chain-words": [
            {"value": f"{w.value:#x}", "role": w.role} for w in image.words
        ],
        "payload-addr": (
            f"{image.payload_addr:#x}" if image.payload_addr else None
        ),
        "payload-len": len(image.payload),
        "marker-addr": f"{image.marker[0]:#x}" if image.marker else None,
        "cleanup-ranges": [_hex_extent(*image.cleanup)] if image.cleanup else [],
        "overwritten": [f"{victim.saved_rbp:#x}", f"{victim.saved_rip:#x}"],
    }


def _execute(ctx: Pipeline) -> None:
    cfg = ctx.config
    victim, image, space = ctx.victim, ctx.image, ctx.pagemap.space
    state = machine.MachineState()
    # the victim is paused right at its epilogue: base pointer at the
    # frame we armed, stack pointer where the host holds it, below the canary
    state.set_reg("rbp", victim.rbp_slot_addr)
    state.set_reg("rsp", ctx.stack_pointer)
    if "pop-rdx-ret" not in gadgets.CHAINS[cfg.chain_variant]:
        # a chain without an rdx load assumes the register already holds
        # the protection value when the return fires
        state.set_reg("rdx", machine.PROT_RWX)
    state.rip = image.epilogue
    result = machine.run_until(
        state, space, victim.saved_rip, MAX_STEPS, stop_rsp=image.stop_rsp
    )

    effects = [
        {"kind": "syscall", "name": e.name, "args": [f"{a:#x}" for a in e.args],
         "ret": e.ret}
        if isinstance(e, machine.SyscallEffect)
        else {"kind": "store", "addr": f"{e.addr:#x}", "value": f"{e.value:#x}"}
        for e in result.side_effects
    ]
    final = result.final_state
    ctx.report.run = {
        "steps": result.steps,
        "stop-reason": result.stop_reason,
        "status": final.status,
        "final-rip": f"{final.rip:#x}",
        "final-rsp": f"{final.reg('rsp'):#x}",
        "final-rbp": f"{final.reg('rbp'):#x}",
        "side-effects": effects,
    }
    if final.status == machine.TRAPPED:
        ctx.report.run["trap-reason"] = final.trap_reason

    # reaching the stop puts rip and rsp where the finished pivot must
    ctx.report.verdicts["restoration"] = (
        result.stop_reason == "reached-stop"
        and final.reg("rbp") == victim.saved_rbp
    )
    if image.marker is not None:
        start, length = image.cleanup
        ctx.report.verdicts["cleanup-zeroed"] = (
            space.read_bytes(start, length) == bytes(length)
        )
        marker_addr, marker_value = image.marker
        ctx.report.verdicts["marker-written"] = (
            space.read_bytes(marker_addr, 8)
            == marker_value.to_bytes(8, "little")
        )
    canary_now = space.read_bytes(victim.canary_slot_addr, 8)
    ctx.report.verdicts["canary-intact"] = canary_now == ctx.canary_before


# the one place stage order is defined
_STAGE_TABLE = (
    ("probe", _probe),
    ("explore", _explore),
    ("gadgets", _gadgets),
    ("caves", _caves),
    ("inject", _inject),
    ("execute", _execute),
)
STAGES = tuple(stage for stage, _ in _STAGE_TABLE)


def run_pipeline(config: PipelineConfig) -> AttackReport:
    return Pipeline(config).run()


# --- command line ------------------------------------------------------------

class _UsageError(Exception):
    """A flag argparse rejected; main prints it as one line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line naming the flag instead of the usage block: the text ahead
        # of an invalid choice's choice list is escaped and cut as _clip does
        head = re.match(r"argument \S+: invalid choice: .*(?= \(choose from )", message, re.S)
        echo = head[0] if head else message
        shown = re.sub(r"[^ -~]", lambda m: ascii(m[0])[1:-1], echo)
        raise _UsageError(shown[:80] + "..." * (len(shown) > 80) + message[len(echo):])


def _ascii(pattern: str, convert, what: str):
    """A flag type that takes only text ``pattern`` matches whole, then
    ``convert``s it; int() and float() alone would also take other scripts'
    digits, underscores and padding."""
    match = re.compile(pattern).fullmatch

    def parse(text: str):
        if match(text):
            try:
                return convert(text)
            except ValueError:  # past int()'s digit limit
                pass
        raise argparse.ArgumentTypeError(f"not {what}: {_clip(text)}")

    return parse


_SEED = _ascii(r"-?[0-9]+", int, "an integer")
_COUNT = _ascii(r"[0-9]+", int, "a decimal count")
_PROB = _ascii(r"[0-9]+\.?[0-9]*|\.[0-9]+", float, "a decimal fraction")


def _build_parser() -> argparse.ArgumentParser:
    # a config flag that is not given sets nothing, so PipelineConfig holds
    # the one copy of each default
    p = _Parser(
        prog="caveprobe",
        description=(
            "Probe a victim image without faulting, reconstruct its memory "
            "map, and verify a fake-stack-frame pivot end to end."
        ),
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--image-path", required=True, help="victim image manifest (JSON)")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=_SEED, help=f"master RNG seed, else ${ENV_SEED}")
    p.add_argument("--spurious-prob", type=_PROB)
    p.add_argument("--chain-variant", choices=gadgets.CHAIN_VARIANTS)
    p.add_argument("--restore", choices=RESTORE_MODES)
    p.add_argument("--ground-truth-path")
    p.add_argument("--stop-after", choices=STAGES)
    p.add_argument("--no-aslr", dest="aslr", action="store_false")
    p.add_argument("--explore-budget", type=_COUNT, help="max pages probed in the whole run")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # argparse would echo them raw, line breaks included
            raise _UsageError(f"unrecognized arguments: {_clip(' '.join(extra))}")
        given = vars(args)
        fmt, out = given.pop("format"), given.pop("out")
        if "seed" not in given and ENV_SEED in os.environ:
            try:
                given["seed"] = _SEED(os.environ[ENV_SEED])
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"${ENV_SEED} is {exc}") from None
        # every other flag sets the config field of its name
        config = PipelineConfig(**given)
    except (_UsageError, ValueError) as exc:
        print(f"caveprobe: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    try:
        report = run_pipeline(config)
    except StageError as exc:
        print(f"caveprobe: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    text = emit_report(report, fmt)
    # the same bytes for stdout and --out in every locale: the image path
    # gets back the bytes argv gave, as os.fsencode gives them, and the
    # rest of the report is ASCII
    data = os.fsencode(text)
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            print(f"caveprobe: cannot write {_clip(out)}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_STAGE_ERROR
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a text stream alone, such as a StringIO capture
        sys.stdout.write(text)
    return EXIT_OK if report.all_verdicts_pass() else EXIT_VERDICT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
