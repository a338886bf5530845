"""The benchmark's first-pass report digests at seed 1, pinned.

For each workload, ``perfbench/run.py --workload all --seed 1 --seconds 0
--trace 0`` prints a ``report digest over the first pass`` line: one
SHA-256 over the reports of every run of the workload's first pass.  A
change that keeps reports byte-identical keeps these three; one that
changes reports on purpose re-pins them here, as it re-pins the demo
digests in ``tests/test_cli.py``.  They guard the 256-page ASLR image and
the linear runs with transient aborts, which the demo digests do not reach.

Check a saved smoke output (exit 1 on any difference; exit 2 with one
stderr line when no file is named or it cannot be read):

    python tests/bench_digests.py SMOKE_OUTPUT
"""

from __future__ import annotations

import sys
from pathlib import Path

PINNED = {
    "demo-configs": "6da3ad5dcd70c6deace8dad33dbbb8ca19f8ff9eff7181fe439513d75963b463",
    "large-aslr": "38ce8b51e3663f161bcbc6eda60e67b85e8678e4608afa0282e956eda7a0535c",
    "noisy-noaslr": "9868c3cf994efed07e4f03c74f6d1fb67fc18135264f215cfbd1e22d1a0d3b66",
}

_DIGEST_LINE = "report digest over the first pass: "


def first_pass_digests(text: str) -> dict[str, str]:
    """Each workload's first-pass digest in a ``perfbench/run.py`` output,
    keyed by the name on the workload's ``== name (...)`` header line."""
    found: dict[str, str] = {}
    name = None
    for line in text.splitlines():
        if line.startswith("== "):
            name = line.split()[1]
        elif line.strip().startswith(_DIGEST_LINE):
            found[name] = line.strip()[len(_DIGEST_LINE):]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/bench_digests.py SMOKE_OUTPUT", file=sys.stderr)
        return 2
    try:
        text = Path(argv[0]).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, binary
        print(f"bench_digests.py: cannot read {argv[0]}: "
              f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return 2
    got = first_pass_digests(text)
    for name in sorted(PINNED.keys() | got.keys()):
        verdict = "ok" if got.get(name) == PINNED.get(name) else "DIFFERS"
        print(f"{name}: {verdict}: got {got.get(name)}, pinned {PINNED.get(name)}")
    return 0 if got == PINNED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
