"""Every manifest mutation gives a report or one clean line on stderr.

The test starts from a valid ``synth`` manifest, applies one mutation from a
fixed catalogue, and runs ``cli.main`` in-process on the result.  It tries
the whole catalogue, every time:

- each field of the top level, of ``seeds`` and of every region (``file``
  and ``offset``, which a region is refused for holding, included) swapped
  for every JSON type, for integers at 0, -1, 2**63, 2**64 and huge, and
  for strings that are empty, very long, hold a NUL, a lone surrogate,
  non-ASCII digits or a line break, or are 100,000 four-byte characters or
  control characters;
- each field removed, an extra key in each object, each member
  duplicated, and each region removed or duplicated, plus an extra region;
- a stray ``"``, ``:`` or ``\\`` next to either quote of each ``data``
  literal.

A run passes when it exits 0 or 3 with a JSON report, or exits 2 with
exactly one stderr line that starts ``caveprobe: ``, holds no text of a
Python exception or codec, and is under 300 bytes.
"""

import json
import re
from pathlib import Path

from caveprobe.cli import EXIT_OK, EXIT_VERDICT_FAILURE
from caveprobe.synth import build_victim_image
from helpers import error_fault, run_main

# one page of code, cave and stack: the smallest image every stage passes on
BASE = build_victim_image(21, code_pages=1, cave_pages=1, stack_pages=1).manifest_text


class Obj(list):
    """A JSON object as its members in order, so a key may repeat."""


class Raw(str):
    """JSON text written as it stands."""


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def base_doc() -> Obj:
    return json.loads(BASE, object_pairs_hook=Obj)


JSON_TYPES = [None, True, False, 0, 1.5, "0x1000", [], Obj(), [1], Obj([("a", 1)])]
INTEGERS = [0, -1, 2**63, 2**64, 10**400, Raw("9" * 5000)]
STRINGS = [
    "", "f" * 100_000, "0x1\x000", "\ud800", "١٠٠٠", "a\nb",
    "\U0001F600" * 100_000, "\x01" * 100_000,
]
REGION_KEYS = ("start", "len", "perms", "label", "data", "file", "offset")


def containers(doc: Obj):
    """(name, object) of the top level, the seeds and each region."""
    top = dict(doc)
    yield "top", doc
    yield "seeds", top["seeds"]
    for i, region in enumerate(top["regions"]):
        yield f"region {i}", region


def set_member(obj: Obj, key: str, value) -> None:
    """Give ``key`` its new value where it stands, or add it."""
    for i, (k, _) in enumerate(obj):
        if k == key:
            obj[i] = (key, value)
            return
    obj.append((key, value))


def member_swaps():
    for name, obj in containers(base_doc()):
        present = [k for k, _ in obj]
        for key in REGION_KEYS if name.startswith("region") else present:
            for value in JSON_TYPES + INTEGERS + STRINGS:
                yield f"{name}: {key} = {dump(value)[:40]}", name, "set", key, value
            if key in present:
                yield f"{name}: {key} removed", name, "remove", key, None
                yield f"{name}: {key} duplicated", name, "duplicate", key, None
        yield f"{name}: extra key", name, "set", "extra", 1


def apply(doc: Obj, name: str, op: str, key: str, value) -> None:
    obj = dict(containers(doc))[name]
    if op == "set":
        set_member(obj, key, value)
    elif op == "remove":
        obj[:] = [(k, v) for k, v in obj if k != key]
    else:
        obj[:] = [m for k, v in obj for m in ([(k, v)] * (2 if k == key else 1))]


def region_mutations():
    count = len(dict(base_doc())["regions"])
    for i in range(count):
        yield f"region {i} removed", lambda regions, i=i: regions.pop(i)
        yield f"region {i} duplicated", lambda regions, i=i: regions.append(regions[i])
    extra = Obj([("start", "0x1000"), ("len", "0x1000"), ("perms", "ru")])
    yield "extra region", lambda regions: regions.insert(0, extra)


def stray_characters(text: str):
    """The text with one stray character next to a quote of a data literal."""
    for match in re.finditer(r'"data": "[0-9a-f]*"', text):
        value_lo = match.start() + len('"data": ')
        for where, pos in [("before its opening quote", value_lo),
                           ("after its opening quote", value_lo + 1),
                           ("before its closing quote", match.end() - 1),
                           ("after its closing quote", match.end())]:
            for ch in '":\\':
                label = f"{ch} {where} at offset {value_lo}"
                yield label, text[:pos] + ch + text[pos:]


def catalogue():
    """(label, manifest text) for every mutation."""
    for label, name, op, key, value in member_swaps():
        doc = base_doc()
        apply(doc, name, op, key, value)
        yield label, dump(doc)
    for label, mutate in region_mutations():
        doc = base_doc()
        mutate(dict(doc)["regions"])
        yield label, dump(doc)
    yield from stray_characters(dump(base_doc()))


def outcome_fault(tmp: Path, text: str) -> str | None:
    """Why the run on manifest ``text`` fails the contract, or None."""
    manifest = tmp / "victim.json"
    report = tmp / "report.json"
    manifest.write_text(text)
    report.unlink(missing_ok=True)
    code, _, err = run_main(["--image-path", str(manifest), "--seed", "3",
                             "--out", str(report)])
    if code in (EXIT_OK, EXIT_VERDICT_FAILURE):
        if err:
            return f"exit {code} with stderr {err!r}"
        json.loads(report.read_text())
        return None
    return error_fault(code, err)


def test_every_mutation_gives_a_report_or_one_clean_line(tmp_path):
    assert outcome_fault(tmp_path, BASE) is None
    faults = []
    seen = 0
    for label, text in catalogue():
        seen += 1
        fault = outcome_fault(tmp_path, text)
        if fault is not None:
            faults.append(f"{label}: {fault}")
    assert seen > 1000
    assert not faults, "\n".join(faults)
