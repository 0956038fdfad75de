#!/usr/bin/env python3
"""Time the all-pairs structure-constant table of Gr(K, N) in fresh processes.

Each repeat runs in a new interpreter, so every one starts from cold caches,
as a CLI call does, and times schubert_product over every ordered pair of
enumerate_diagrams. The script prints one JSON line: the context, the number
of pairs and repeats, the minimum seconds, and the sha256 of the table. The
table is hashed as compact JSON: a list of [a, b, terms] per ordered pair,
with terms the sorted [rows, q-power, coefficient] of the product. Every
repeat must give the same digest.

Example:
    python scripts/product_table.py 4 10 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import qhgrass

# run in each fresh process with argv [k, n]; prints {"seconds": ..., "sha256": ...}
_RUN_ONCE = """
import hashlib, json, sys, time
from qhgrass.diagram import GrContext, enumerate_diagrams
from qhgrass.qh_core import schubert_product

k, n = map(int, sys.argv[1:3])
ctx = GrContext(k, n)
diagrams = enumerate_diagrams(ctx)
start = time.perf_counter()
products = [schubert_product(ctx, a, b) for a in diagrams for b in diagrams]
seconds = time.perf_counter() - start
pairs = [(a, b) for a in diagrams for b in diagrams]
table = [
    [list(a), list(b), sorted([list(d), m, c] for (d, m), c in product.items())]
    for (a, b), product in zip(pairs, products)
]
digest = hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()
print(json.dumps({"seconds": seconds, "sha256": digest}))
"""


def run_once(k: int, n: int) -> dict:
    src = str(Path(qhgrass.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ONCE, str(k), str(n)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("k", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes to time (default 3)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    runs = [run_once(args.k, args.n) for _ in range(args.repeats)]
    digests = {run["sha256"] for run in runs}
    if len(digests) != 1:
        print(f"repeats disagree on the table: {sorted(digests)}", file=sys.stderr)
        return 1
    count = len(qhgrass.enumerate_diagrams(qhgrass.GrContext(args.k, args.n)))
    print(json.dumps({
        "k": args.k,
        "n": args.n,
        "pairs": count * count,
        "repeats": args.repeats,
        "min_s": round(min(run["seconds"] for run in runs), 4),
        "sha256": digests.pop(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
