#!/usr/bin/env python3
"""Generate a randomized victim image for the pipeline CLI.

Writes a manifest the CLI can load plus the matching ground-truth map file,
so a full run can be checked end to end:

    python3 scripts/make_demo_image.py --seed 7 --out images/
    python3 -m caveprobe --image-path images/demo.json \
        --ground-truth-path images/demo.maps --seed 1

A bad flag value, an image past the loader's page cap, or an ``--out`` it
cannot write to, ends the script with one line on stderr and exit 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

from caveprobe.cli import _SEED, _Parser, _UsageError, _ascii
from caveprobe.gadgets import GADGETS
from caveprobe.memspace import _clip
from caveprobe.synth import build_victim_image

# the CLI's flag grammar and its one-line usage errors
_PAGES = _ascii(r"0*[1-9][0-9]*", int, "a positive decimal")
# an empty basename would write the hidden files .json and .maps
_NAME = _ascii(r"(?s).+", str, "a non-empty basename")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=_SEED, default=0,
                        help="layout randomization seed (default 0)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default current)")
    parser.add_argument("--name", type=_NAME, default="demo",
                        help="basename for the written files (default demo)")
    for region in ("code", "cave", "stack"):
        parser.add_argument(f"--{region}-pages", type=_PAGES, default=4,
                            help=f"pages in the {region} region (default 4, at least 1)")
    parser.add_argument("--omit-gadget", action="append", default=[],
                        choices=tuple(GADGETS), metavar="KIND",
                        help="leave out a gadget kind (repeatable); useful "
                             "for exercising the failure path")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2

    try:
        image = build_victim_image(
            args.seed,
            code_pages=args.code_pages,
            cave_pages=args.cave_pages,
            stack_pages=args.stack_pages,
            omit_gadgets=tuple(args.omit_gadget),
        )
    except ValueError as exc:  # an image the loader would refuse
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    manifest = args.out / f"{args.name}.json"
    maps = args.out / f"{args.name}.maps"
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        manifest.write_text(image.manifest_text)
        maps.write_text(image.maps_text)
    except OSError as exc:
        print(f"{parser.prog}: cannot write {_clip(str(exc.filename or args.out))}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2

    truth = image.truth
    print(f"wrote {manifest} and {maps}")
    print(f"  regions: {len(truth.regions)}, cave at {truth.cave_start:#x} "
          f"({truth.cave_len:#x} bytes)")
    print(f"  victim frame slot {truth.victim_slot:#x}, "
          f"return site {truth.return_site:#x}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
