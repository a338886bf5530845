#!/usr/bin/env python3
"""Measure probe retry cost against the transient-abort rate.

Classifies the same randomized layout under a sweep of spurious-abort
probabilities and reports, for each point, how many transactions the probes
spent, the retry overhead per probe, and how often a tight retry budget
would have given up.  Output is a table on stdout, optionally JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from caveprobe.memspace import PAGE_SIZE, AddressSpace, PagePermissions
from caveprobe.probe import ProbeConfig, Prober, RetryBudgetExhausted


def build_layout(seed: int, pages: int) -> tuple[AddressSpace, int, int]:
    """A user-half layout with holes and mixed permissions."""
    rng = random.Random(seed)
    space = AddressSpace()
    base = rng.randrange(0, 1 << 30) * PAGE_SIZE
    start = base
    total = 0
    while total < pages:
        base += rng.randint(0, 4) * PAGE_SIZE
        length = min(rng.randint(1, 8), pages - total)
        perms = rng.choice(("ru", "rwu", "rxu", "rwxu"))
        space.map_region(
            base,
            length * PAGE_SIZE,
            PagePermissions.from_rwxu(perms),
            rng.randbytes(length * PAGE_SIZE),
        )
        base += length * PAGE_SIZE
        total += length
    return space, start, base


def sweep_point(
    space: AddressSpace,
    start: int,
    end: int,
    probability: float,
    max_retries: int,
    seed: int,
) -> dict:
    prober = Prober(ProbeConfig(
        spurious_abort_probability=probability,
        rng_seed=seed,
        max_retries=max_retries,
    ))
    gave_up = 0
    probes = 0
    for page in range(start, end, PAGE_SIZE):
        probes += 1
        try:
            prober.claw(space, page)
        except RetryBudgetExhausted:
            gave_up += 1
    c = prober.counters
    transactions = c.get("read_tx", 0) + c.get("write_tx", 0)
    retries = c.get("retries", 0)
    return {
        "abort-probability": probability,
        "probes": probes,
        "transactions": transactions,
        "retries": retries,
        "retries-per-probe": round(retries / probes, 4),
        "gave-up": gave_up,
        "gave-up-rate": round(gave_up / probes, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pages", type=int, default=512,
                        help="mapped pages in the layout (default 512)")
    parser.add_argument("--max-retries", type=int, default=8,
                        help="retry budget per probe (default 8)")
    parser.add_argument("--probabilities", type=float, nargs="+",
                        default=[0.0, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5],
                        help="transient-abort rates to sweep")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the rows as JSON")
    args = parser.parse_args(argv)

    space, start, end = build_layout(args.seed, args.pages)
    rows = [
        sweep_point(space, start, end, p, args.max_retries, args.seed)
        for p in sorted(args.probabilities)
    ]

    header = f"{'abort-p':>8} {'probes':>7} {'tx':>8} {'retries':>8} " \
             f"{'ret/probe':>10} {'gave-up':>8}"
    print(header)
    for row in rows:
        print(f"{row['abort-probability']:>8} {row['probes']:>7} "
              f"{row['transactions']:>8} {row['retries']:>8} "
              f"{row['retries-per-probe']:>10} {row['gave-up']:>8}")

    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
