#!/usr/bin/env python3
"""Gelfand-Cetlin batch experiments: sampled eigenvalue maps and critical points.

Writes a CSV of Gelfand-Cetlin values for seeded (optionally quaternionic)
frames and prints the disk-potential critical-point report for each context.

Example:
    python scripts/gc_experiments.py --contexts 2,4 4,8 --samples 50 --quaternionic \
        --csv-out gc_values.csv
"""

from __future__ import annotations

import argparse
import json
import sys

from qhgrass.diagram import GrContext
from qhgrass.gelfand_cetlin import critical_point, gc_csv_rows


def parse_context(text: str) -> GrContext:
    k, n = map(int, text.split(","))
    return GrContext(k, n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--contexts", nargs="+", default=["2,4", "2,5", "3,6"])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--quaternionic", action="store_true")
    parser.add_argument("--csv-out", default=None, help="write GC values here (default stdout)")
    args = parser.parse_args()

    contexts = [parse_context(text) for text in args.contexts]
    sink = open(args.csv_out, "w") if args.csv_out else sys.stdout
    try:
        for ctx in contexts:
            if args.quaternionic and (ctx.k % 2 or ctx.n % 2):
                print(f"skipping {ctx}: quaternionic frames need k, n even", file=sys.stderr)
                continue
            print(f"# Gr({ctx.k},{ctx.n})", file=sink)
            for row in gc_csv_rows(ctx, list(range(args.samples)), args.quaternionic):
                print(row, file=sink)
    finally:
        if args.csv_out:
            sink.close()

    for ctx in contexts:
        _, report = critical_point(ctx)
        print(json.dumps({"k": ctx.k, "n": ctx.n, **report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
