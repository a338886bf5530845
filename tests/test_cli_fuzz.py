"""Every flag value, ``$CAVEPROBE_SEED`` value and ground-truth mutation gives
a report or one short clean line on stderr.

The test runs ``cli.main`` in-process on ``images/demo.json`` with one input
changed, and tries the whole catalogue every time:

- each flag given each value of ``VALUES``, both as ``--flag value`` and as
  ``--flag=value`` (``--help`` only in the second form, since the first
  prints the help and exits), and ``--s=value``, a prefix of three flags;
- ``$CAVEPROBE_SEED`` set to each value of ``VALUES``;
- ``images/demo.maps`` as the ground truth with one line dropped, one line
  doubled, or one field of one line swapped for each value of
  ``FIELD_VALUES``.

``VALUES`` holds what a command line or an environment can carry: empty
text, 100,000-character values of letters, digits, hex digits, non-ASCII
digits, a four-byte character and a control character, the text argparse
puts ahead of a choice list followed by four-byte characters, a line
break, an undecodable byte, and a valid value of each kind of flag.  A run passes when it exits 0 or 3 with a report and
nothing on stderr, or exits 2 with exactly one stderr line that starts
``caveprobe: ``, holds no text of a Python exception or codec, and is under
300 bytes.
"""

from pathlib import Path

import pytest

from caveprobe.cli import EXIT_OK, EXIT_VERDICT_FAILURE, ENV_SEED, _build_parser
from helpers import error_fault, run_main

REPO = Path(__file__).resolve().parent.parent
DEMO = str(REPO / "images" / "demo.json")
DEMO_MAPS = REPO / "images" / "demo.maps"

LONG = 100_000
VALUES = [
    "", "x" * LONG, "9" * LONG, "-" + "9" * LONG, "0x" + "f" * LONG,
    "١" * LONG, "\U0001F600" * LONG, "\x01" * LONG,
    " (choose from " + "\U0001F600" * LONG, "a\nb", "\udcff",
    "0", "-1", "0x2000", ".5", "linear", "short-4", "chain-only", "caves", "text",
    "--mode",
]
FLAGS = [
    "--image-path", "--mode", "--seed", "--spurious-prob",
    "--chain-variant", "--restore", "--ground-truth-path", "--stop-after",
    "--no-aslr", "--explore-budget", "--format", "--out",
]
FIELD_VALUES = [
    "", "x" * LONG, "9" * LONG, "f" * 17, "0", "-1", "١", "\x00", "rwxp",
    "---s", "a b", "\U0001F600" * LONG, "\x01" * LONG,
]


def test_the_catalogue_names_every_flag():
    options = {opt for action in _build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert options == {*FLAGS, "--help"}


def run_fault(argv: list[str], folder: Path, monkeypatch) -> str | None:
    """Why the run on ``argv`` breaks the rule, or None.  The run starts in
    ``folder``, made new and empty, and writes its report there unless a
    later ``--out`` sends it to stdout or to another file of the folder."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    code, out, err = run_main(["--image-path", DEMO, "--out", "report.json", *argv])
    if code in (EXIT_OK, EXIT_VERDICT_FAILURE):
        if err:
            return f"exit {code} with stderr {err[:200]!r}"
        if not (out or any(folder.iterdir())):
            return f"exit {code} with no report"
        return None
    return error_fault(code, err)


def flag_cases():
    for flag in FLAGS + ["--help"]:
        for value in VALUES:
            if flag != "--help":
                yield [flag, value]
            yield [f"{flag}={value}"]
    for value in VALUES:
        yield [f"--s={value}"]


def maps_cases():
    lines = DEMO_MAPS.read_text().splitlines()
    for i, line in enumerate(lines):
        yield f"line {i + 1} dropped", lines[:i] + lines[i + 1:]
        yield f"line {i + 1} doubled", lines[:i + 1] + lines[i:]
        span, *rest = line.split()
        fields = [*span.split("-", 1), *rest]
        for j in range(len(fields)):
            for value in FIELD_VALUES:
                swapped = fields[:j] + [value] + fields[j + 1:]
                text = "-".join(swapped[:2]) + " " + " ".join(swapped[2:])
                label = f"line {i + 1} field {j} = {value[:20]!r}"
                yield label, lines[:i] + [text] + lines[i + 1:]


def test_every_flag_value_gives_a_report_or_one_short_line(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    faults = []
    seen = 0
    for argv in flag_cases():
        seen += 1
        fault = run_fault(argv, tmp_path / str(seen), monkeypatch)
        if fault is not None:
            faults.append(f"{[a[:40] for a in argv]}: {fault}")
    assert seen == (len(FLAGS) * 2 + 2) * len(VALUES)
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_every_seed_variable_gives_a_report_or_one_short_line(
    tmp_path, monkeypatch, value
):
    monkeypatch.setenv(ENV_SEED, value)
    assert run_fault([], tmp_path / "run", monkeypatch) is None


def test_every_ground_truth_mutation_gives_a_report_or_one_short_line(
    tmp_path, monkeypatch
):
    monkeypatch.delenv(ENV_SEED, raising=False)
    maps = tmp_path / "victim.maps"
    faults = []
    seen = 0
    for label, lines in maps_cases():
        seen += 1
        maps.write_text("\n".join(lines) + "\n")
        fault = run_fault(["--ground-truth-path", str(maps)], tmp_path / str(seen),
                          monkeypatch)
        if fault is not None:
            faults.append(f"{label}: {fault}")
    assert seen > 500
    assert not faults, "\n".join(faults)
