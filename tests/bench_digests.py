"""Check the report digests a benchmark smoke run prints against the golden
table in ``tests/golden.py``.

``perfbench/run.py --workload all --seed 1 --seconds 4 --trace 0`` prints,
for each workload, a ``report digest over the first pass`` line: one
SHA-256 over the reports of every run of the workload's first pass, the
digest of the golden corpus named after the workload.  Under
``demo-configs`` it also prints a ``demo report digest, seeds 0..9`` line,
the digest of the ``demo-json`` corpus.  The benchmark corpora guard the
256-page ASLR image and the linear runs with transient aborts, which the
demo corpora do not reach.

Check a saved smoke output (exit 1 on any difference; exit 2 with one
stderr line when no file is named or it cannot be read):

    python tests/bench_digests.py SMOKE_OUTPUT

It needs neither caveprobe nor ``perfbench/`` on the path.
"""

from __future__ import annotations

import sys
from pathlib import Path

import golden

# each line the smoke output prints a digest on, and the corpus it names:
# None for the workload of the ``== name (...)`` header above it
LINES = {
    "report digest over the first pass: ": None,
    "demo report digest, seeds 0..9: ": "demo-json",
}
PINNED = {
    corpus.name: corpus.digest
    for corpus in golden.CORPORA
    if corpus.per_report or corpus.name in LINES.values()
}


def printed_digests(text: str) -> dict[str, str]:
    """Each digest in a ``perfbench/run.py`` output, keyed by the golden
    corpus it is the digest of."""
    found: dict[str, str] = {}
    name = None
    for line in text.splitlines():
        if line.startswith("== "):
            name = line.split()[1]
        for start, corpus in LINES.items():
            if line.strip().startswith(start):
                found[corpus or name] = line.strip()[len(start):]
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
    got = printed_digests(text)
    for name in sorted(PINNED.keys() | got.keys()):
        verdict = "ok" if got.get(name) == PINNED.get(name) else "DIFFERS"
        print(f"{name}: {verdict}: got {got.get(name)}, pinned {PINNED.get(name)}")
    return 0 if got == PINNED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
