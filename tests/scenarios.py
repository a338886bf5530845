"""The command-line scenarios: one table of runs of the caveprobe CLI, each
on a copy of the demo image or maps edited one way, with the exit code and
the stderr or report each must give, and a runner that checks them from
outside the program.  It imports nothing from caveprobe, so the same table
runs against any command that stands for the CLI:

    PYTHONPATH=$PWD/src python tests/scenarios.py python -m caveprobe
    python tests/scenarios.py caveprobe        # an installed console script

Each row runs in a directory of its own that holds ``images/demo.json`` and
``images/demo.maps`` (edited as the row says), so rows that compare their
reports name the image by the same relative path.  A row fails unless the
exit code is the one expected, and a run that exits 0 must leave a report:
its ``--out`` file when the row gives one, else its stdout.  The script
prints one PASS or FAIL line per row and exits 1 if any row failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

IMAGES = Path(__file__).resolve().parent.parent / "images"
IMAGE, MAPS = "images/demo.json", "images/demo.maps"
EMOJI = "\U0001F600" * 10000  # 40,000 bytes: under the 128 KiB limit on one argument


class Failed(Exception):
    """A row's run did not give what the row expects."""


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise Failed(what)


class Err(NamedTuple):
    """What stderr must hold: ``lines`` newlines, fewer than ``under``
    bytes, and the text ``has``."""
    lines: int = 1
    under: int | None = 300
    has: str | None = None


class Row(NamedTuple):
    name: str
    args: tuple[str, ...]
    exit: int = 0
    image: Callable[[str], str] | None = None  # an edit of demo.json's text
    maps: Callable[[str], str] | None = None  # an edit of demo.maps' text
    image_at: str = IMAGE  # where the row's copy of demo.json goes
    env: dict[str, str] = {}
    stdin: str | None = None  # "file" redirects demo.json's copy; "pipe" pipes it
    stderr: Err | None = None
    fields: dict | None = None  # exact fields of the JSON report
    has: str | None = None  # text the report holds
    json_tool: bool = False  # json.tool --sort-keys --indent 2 gives it back byte for byte
    same_as: str | None = None  # the earlier row whose report this one's equals
    same_keys: tuple[str, ...] = ()  # ... in these JSON fields only, else byte for byte


def _sub(old: str, new: str, shows: str, count: int = -1) -> Callable[[str], str]:
    """An edit that replaces ``old`` by ``new`` (the first ``count`` times)
    and checks that the result holds ``shows``."""
    def edit(text: str) -> str:
        text = text.replace(old, new, count)
        _need(shows in text, f"the edit left no {shows!r}")
        return text
    return edit


def _doc(change: Callable[[dict], None], shows: str = "", **dump) -> Callable[[str], str]:
    """An edit that ``change``s the parsed manifest, dumps it again with
    ``json.dumps``'s options ``dump`` and checks that the result holds
    ``shows``."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        text = json.dumps(doc, **dump)
        _need(shows in text, f"the edit left no {shows!r}")
        return text
    return edit


def _file_region(doc: dict) -> None:
    doc["regions"][0]["file"] = "x.bin"


def _hanging_syscall(doc: dict) -> None:
    # the one syscall site is followed by a nop instead of a ret
    code = bytearray.fromhex(doc["regions"][0]["data"])
    _need(code.count(b"\x0f\x05") == code.count(b"\x0f\x05\xc3") == 1,
          "the demo's code holds other than one syscall, ret")
    code[code.index(b"\x0f\x05\xc3") + 2] = 0x90
    doc["regions"][0]["data"] = code.hex()


def _zero_hex_cave(doc: dict) -> None:
    # the anon cave as explicit all-"0" data, the code blob in uppercase
    code, cave = doc["regions"][0], doc["regions"][3]
    _need((code["perms"], cave["label"], cave["perms"], "data" in cave)
          == ("rxu", "anon", "rwu", False), "region 3 is not the demo's anon cave")
    cave["data"] = "0" * (2 * int(cave["len"], 16))
    code["data"] = code["data"].upper()


def _page_zero(doc: dict) -> None:
    # a read-only user page at 0x0 makes zero an address
    _need(all(int(r["start"], 16) >= 0x1000 for r in doc["regions"]),
          "the demo already maps page 0")
    doc["regions"].insert(0, {"start": "0x0", "len": "0x1000", "perms": "ru"})


_BACKSLASH = _sub('"label"', '"\\u006cabel"', '"\\u006cabel"', 1)
_OUT = ("--out", "report.json")
_NOT_UTF8 = "images/demo\udcff.json"  # names the file with byte 0xff

ROWS = (
    # a long value is escaped to ASCII and cut to 80 characters
    Row("Long flag values give one short line",
        ("--image-path", IMAGE, "--mode", "x" * 100000), 2, stderr=Err()),
    Row("Long --seed gives one short line",
        ("--image-path", IMAGE, "--seed", "9" * 100000), 2, stderr=Err()),
    Row("Long $CAVEPROBE_SEED gives one short line",
        ("--image-path", IMAGE), 2, env={"CAVEPROBE_SEED": EMOJI}, stderr=Err()),
    Row("Long --image-path gives one short line",
        ("--image-path", EMOJI), 2, stderr=Err()),
    # inputs that are gone must be refused, not run without
    Row("Deleted run inputs give one short line",
        ("--image-path", IMAGE, "--cave-min-len", "4096"), 2, stderr=Err()),
    Row("Region naming a file gives one short line",
        ("--image-path", IMAGE), 2, image=_doc(_file_region), stderr=Err()),
    # the run stores the guard page as a miss
    Row("Ground truth that disagrees fails map-match",
        ("--image-path", IMAGE, "--ground-truth-path", MAPS, "--format", "text"), 3,
        maps=_sub("7f0000302000-7f0000303000 ---p", "7f0000302000-7f0000303000 rw-p",
                  "7f0000302000-7f0000303000 rw-p"),
        has="map-match: FAIL"),
    # a chain through that syscall would run on into the bytes after it
    Row("Syscall that falls into no ret fails the gadgets stage",
        ("--image-path", IMAGE, "--seed", "1"), 2, image=_doc(_hanging_syscall),
        stderr=Err(has="syscall")),
    # the run claws the four stack pages writable: one coalesced line
    Row("Read-only stack in the ground truth is one mismatch line",
        ("--image-path", IMAGE, "--ground-truth-path", MAPS, "--no-aslr",
         "--seed", "1", "--format", "json"), 3,
        maps=_sub("7f0000303000-7f0000307000 rw-p", "7f0000303000-7f0000307000 r--p",
                  "7f0000303000-7f0000307000 r--p"),
        fields={"map-mismatches": [
            "0x7f0000303000-0x7f0000307000: probed writable, truth readonly"]}),
    # the stdlib's writer shares no code with the report writer; the
    # linear report with ground truth holds every map run and the
    # map-mismatches list
    Row("JSON report matches json.tool", ("--image-path", IMAGE) + _OUT, json_tool=True),
    Row("Linear report with ground truth matches json.tool",
        ("--image-path", IMAGE, "--mode", "linear", "--ground-truth-path", MAPS) + _OUT,
        json_tool=True),
    # a backslash anywhere sends the manifest to the json-only parse
    Row("Manifest with a backslash gives the same report", ("--image-path", IMAGE) + _OUT,
        image=_BACKSLASH, same_as="JSON report matches json.tool"),
    # the scan takes a literal for a blob when only ":" and JSON whitespace
    # stand between "data" and its quote
    Row("Manifest in other JSON spacing gives the same report",
        ("--image-path", IMAGE) + _OUT,
        image=_doc(lambda doc: None, '"data":"', separators=(",", ":")),
        same_as="JSON report matches json.tool"),
    Row("Manifest spaced around the data colon gives the same report",
        ("--image-path", IMAGE) + _OUT,
        image=_sub('"data": "', '"data" :\n "', '\n      "data" :\n'),
        same_as="JSON report matches json.tool"),
    # a redirected file can seek and is scanned a chunk at a time; a pipe
    # cannot and is read whole first
    Row("Manifest redirected to stdin", ("--image-path", "/dev/stdin") + _OUT,
        stdin="file"),
    Row("Manifest from a pipe gives the same report", ("--image-path", "/dev/stdin") + _OUT,
        stdin="pipe", same_as="Manifest redirected to stdin"),
    Row("Manifest with a backslash redirected to stdin",
        ("--image-path", "/dev/stdin") + _OUT, image=_BACKSLASH, stdin="file"),
    Row("Manifest with a backslash from a pipe gives the same report",
        ("--image-path", "/dev/stdin") + _OUT, image=_BACKSLASH, stdin="pipe",
        same_as="Manifest with a backslash redirected to stdin"),
    # the per-page decoder shares every all-"0" page and reads either case
    Row("Cave as zero hex and uppercase code give the same report",
        ("--image-path", IMAGE) + _OUT, image=_doc(_zero_hex_cave, indent=2),
        same_as="JSON report matches json.tool"),
    # with ASLR every zero word is relocated and no zero-filled cave is
    # left; without it nothing moves
    Row("Page 0 mapped: zero words are pointers", ("--image-path", IMAGE, "--seed", "1"),
        2, image=_doc(_page_zero), stderr=Err(under=None, has="among 0 caves")),
    Row("Page 0 mapped without ASLR passes",
        ("--image-path", IMAGE, "--seed", "1", "--no-aslr"), image=_doc(_page_zero)),
    # hybrid's census stops once the chain's kinds are found, but it must
    # pick the same chain
    Row("Pointer-chase report",
        ("--image-path", IMAGE, "--format", "json", "--mode", "pointer-chase") + _OUT),
    Row("Hybrid picks the chain pointer-chase picks",
        ("--image-path", IMAGE, "--format", "json", "--mode", "hybrid") + _OUT,
        same_as="Pointer-chase report", same_keys=("injection", "run", "verdicts")),
    # the text report holds the path as given
    Row("Image path that is not UTF-8 in a text report",
        ("--image-path", _NOT_UTF8, "--format", "text"), image_at=_NOT_UTF8),
    Row("Image path that is not UTF-8 in a text report on a strict stdout",
        ("--image-path", _NOT_UTF8, "--format", "text"), image_at=_NOT_UTF8,
        env={"PYTHONIOENCODING": "utf-8:strict"},
        same_as="Image path that is not UTF-8 in a text report"),
    Row("Image path that is not UTF-8 in a text report to --out gives stdout's bytes",
        ("--image-path", _NOT_UTF8, "--format", "text", "--out", "report.txt"),
        image_at=_NOT_UTF8, same_as="Image path that is not UTF-8 in a text report"),
)


def _check(row: Row, run: subprocess.CompletedProcess, cwd: Path,
           reports: dict[str, bytes]) -> bytes:
    """The report of ``row``'s ``run``, once every expectation holds."""
    err = run.stderr
    _need(run.returncode == row.exit, f"exit {run.returncode}, expected {row.exit}; "
          f"stderr {err[:200]!r}")
    if row.stderr:
        lines, under, has = row.stderr
        got = err.count(b"\n")
        _need(got == lines, f"{got} stderr lines, expected {lines}")
        _need(under is None or len(err) < under, f"{len(err)} stderr bytes, expected < {under}")
        _need(has is None or has.encode() in err, f"stderr lacks {has!r}: {err[:200]!r}")
    out = cwd / row.args[row.args.index("--out") + 1] if "--out" in row.args else None
    if out is None:
        report = run.stdout
    else:
        report = out.read_bytes() if out.exists() else b""
    _need(row.exit != 0 or report != b"", "no report")
    if row.fields is not None or row.same_keys:
        try:
            doc = json.loads(report)
        except ValueError:
            raise Failed(f"the report is not JSON: {report[:200]!r}") from None
        for key, want in (row.fields or {}).items():
            _need(doc.get(key) == want, f"report {key!r} is {doc.get(key)!r}, expected {want!r}")
    _need(row.has is None or row.has.encode() in report, f"the report lacks {row.has!r}")
    if row.json_tool:
        tool = subprocess.run([sys.executable, "-m", "json.tool", "--sort-keys", "--indent",
                               "2"], input=report, capture_output=True)
        _need(tool.returncode == 0 and tool.stdout == report,
              f"json.tool --sort-keys --indent 2 rewrites the report {tool.stderr[:200]!r}")
    if row.same_as:
        _need(row.same_as in reports, f"no report from {row.same_as!r} to compare")
        other = reports[row.same_as]
        if row.same_keys:
            theirs = json.loads(other)
            differ = [k for k in row.same_keys if doc.get(k) != theirs.get(k)]
            _need(not differ, f"differs from {row.same_as!r} in {differ}")
        else:
            _need(report == other, f"not byte for byte the report of {row.same_as!r}")
    return report


def _run_row(prefix: list[str], row: Row, cwd: Path, reports: dict[str, bytes]) -> bytes:
    (cwd / "images").mkdir(parents=True)
    image = (IMAGES / "demo.json").read_text()
    maps = (IMAGES / "demo.maps").read_text()
    (cwd / row.image_at).write_text(row.image(image) if row.image else image)
    (cwd / MAPS).write_text(row.maps(maps) if row.maps else maps)
    # the caller's seed would change every report that names no --seed
    env = {k: v for k, v in os.environ.items() if k != "CAVEPROBE_SEED"}
    with open(cwd / row.image_at, "rb") as manifest:
        feed = {"input": manifest.read()} if row.stdin == "pipe" else {
            "stdin": manifest if row.stdin == "file" else subprocess.DEVNULL}
        try:
            run = subprocess.run(prefix + list(row.args), cwd=cwd, env={**env, **row.env},
                                 capture_output=True, timeout=120, **feed)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise Failed(f"cannot run {prefix}: {exc}") from None
    return _check(row, run, cwd, reports)


def run(prefix: list[str]) -> list[tuple[str, str]]:
    """Run every row through the command ``prefix``; the name of each row
    that failed, with what went wrong."""
    reports: dict[str, bytes] = {}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(ROWS):
            try:
                reports[row.name] = _run_row(prefix, row, Path(tmp, str(i)), reports)
            except Failed as exc:
                failed.append((row.name, str(exc)))
    return failed


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/scenarios.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    failed = dict(run(argv))
    for row in ROWS:
        print(f"FAIL {row.name}: {failed[row.name]}" if row.name in failed
              else f"PASS {row.name}")
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} scenarios pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
