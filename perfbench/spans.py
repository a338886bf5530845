"""Span tracing of the pipeline from outside the program.

A traced run installs wrappers at the attributes the callers look up
(``caveprobe.cli.load_manifest``, ``AddressSpace.shifted``,
``explorer.region_around``, ``Prober.tap`` and the rest of ``SPANNED``),
records one span per call, and removes the wrappers when the run ends, so
untraced runs execute the program untouched.  A span is
``(name, start_ns, end_ns, parent)``; ``parent`` indexes the run's span list
and is -1 for the root.  Calls too frequent to span are only counted.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

from caveprobe import caves, cli, explorer, gadgets, injector, machine
from caveprobe.memspace import PAGE_SIZE, AddressSpace
from caveprobe.probe import Prober

ROOT = "cli.run"
RENDER = "cli.render"

# (owner, attribute, span name).  The span name is the metric stem:
# ``<name>_ms`` is the span's total time per run, ``<name>_calls`` its count.
SPANNED = (
    (cli, "load_manifest", "memspace.load_manifest"),
    (cli, "parse_proc_maps", "memspace.parse_proc_maps"),
    (AddressSpace, "shifted", "memspace.shifted"),
    (Prober, "tap", "probe.tap"),
    (Prober, "claw", "probe.claw"),
    (Prober, "safe_write", "probe.safe_write"),
    (explorer, "explore", "explorer.explore"),
    (explorer, "region_around", "explorer.region_around"),
    (explorer, "reconstruct_map", "explorer.reconstruct_map"),
    (explorer, "match_ground_truth", "explorer.match_ground_truth"),
    (gadgets, "find_gadgets", "gadgets.find_gadgets"),
    (gadgets, "build_mprotect_chain", "gadgets.build_chain"),
    (caves, "find_caves", "caves.find_caves"),
    (caves, "select_cave", "caves.select_cave"),
    (injector, "locate_victim_frame", "injector.locate"),
    (injector, "forge_fake_frame", "injector.forge"),
    (injector, "inject", "injector.inject"),
    (machine, "assemble_payload", "machine.assemble"),
    (machine, "run_until", "machine.run_until"),
)

LAYERS = ("cli", "memspace", "probe", "explorer", "gadgets", "caves", "injector", "machine")

# every key metrics() reports, so a function never called reads as 0
ZERO_KEYS = (
    [f"{name}_{kind}" for *_, name in SPANNED for kind in ("ms", "calls")]
    + [f"{layer}.self_ms" for layer in LAYERS]
    + [f"{layer}.claw_calls" for layer in LAYERS if layer != "probe"]
    + [
        "memspace.read_bytes_calls",
        "memspace.bytes_read",
        "memspace.write_bytes_calls",
        "cli.manifest_parses",
        "gadgets.pages_searched",
        "machine.steps",
        f"{RENDER}_ms",
    ]
)


class RunTrace:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.pairs: set[tuple[str, int]] = set()  # distinct (op, page) probed
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            self._note(name, args, result)
            return result

        return traced

    def _note(self, name: str, args: tuple, result) -> None:
        if name in ("probe.tap", "probe.claw"):
            self.pairs.add((name, args[2] & ~(PAGE_SIZE - 1)))
        elif name == "gadgets.find_gadgets":
            self.counts["gadgets.pages_searched"] += result.searched_pages
        elif name == "machine.run_until":
            self.counts["machine.steps"] += result.steps

    def _counted(self) -> list[tuple[object, str, object]]:
        counts = self.counts
        read_bytes = AddressSpace.read_bytes
        write_bytes = AddressSpace.write_bytes
        loads = json.loads

        def counted_read(space, addr, count):
            counts["memspace.read_bytes_calls"] += 1
            counts["memspace.bytes_read"] += count
            return read_bytes(space, addr, count)

        def counted_write(space, addr, data):
            counts["memspace.write_bytes_calls"] += 1
            return write_bytes(space, addr, data)

        def counted_loads(*args, **kwargs):
            # cli and memspace both reach json.loads through the module
            counts["cli.manifest_parses"] += 1
            return loads(*args, **kwargs)

        return [
            (AddressSpace, "read_bytes", counted_read),
            (AddressSpace, "write_bytes", counted_write),
            (json, "loads", counted_loads),
        ]

    def run(self, pipeline, config, render):
        """Call ``pipeline(config, render)`` as the root span with every
        wrapper installed; the wrappers are removed before returning."""
        patches = [
            (owner, attr, self.wrap(name, vars(owner)[attr]))
            for owner, attr, name in SPANNED
        ] + self._counted()
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            return self.wrap(ROOT, pipeline)(config, self.wrap(RENDER, render))
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer values for this run.

        ``<layer>.self_ms`` is the layer's span time minus the time of the
        spans nested directly inside it; ``cli.self_ms`` is the root span's
        own share, the pipeline glue in ``cli.py``.
        """
        out: Counter[str] = Counter(dict.fromkeys(ZERO_KEYS, 0))
        out.update(self.counts)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}_ms"] += (end - start) / 1e6
            out[f"{name}_calls"] += 1
            if name != RENDER:
                layer = name.split(".")[0]
                out[f"{layer}.self_ms"] += (end - start - child_ns[i]) / 1e6
            if name == "probe.claw":
                owner = parent
                while owner >= 0 and self.spans[owner][0].startswith("probe."):
                    owner = self.spans[owner][3]
                layer = self.spans[owner][0].split(".")[0] if owner >= 0 else "cli"
                out[f"{layer}.claw_calls"] += 1
        out["probe.distinct_pairs"] = len(self.pairs)
        return dict(out)
