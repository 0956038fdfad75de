#!/usr/bin/env python3
"""Count the work of one seeded benchmark job, per tree, as deterministic JSON.

A count of the calls a seeded job makes does not move with the host's load,
so it can show a change that wall times too noisy to settle cannot. For
each tree (default: the repository this script is in), a fresh interpreter
puts the tree's src/ and perfbench/ on its path, builds the job's operations
with perfbench/workloads.generate and runs them through perfbench/worker's
run_job under cProfile; nothing under perfbench/ is changed. Only the job is
profiled, not the building of its operations.

The script prints one JSON document: per tree, the total calls, the calls per
qhgrass module, Fraction constructions, field mul and add calls (the exactfield
functions of those names) and the 20 functions with the most calls, as
"file:line(name)" with file relative to the tree's src/ for qhgrass. Counts
are cProfile's total calls, recursive ones included. No time is reported,
so two runs of one tree print the same document. With two or more trees it
adds each later tree's ratios to the first on the totals and modules. What a
profiled process writes to stderr is passed on to this script's stderr.

Example:
    python scripts/workcount.py --workload product-reads --seed 7 --tree /tmp/parent --tree .
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

# run in each fresh process with argv [tree, workload, seed, tiny]; prints
# [[file, line, name, calls], ...] for every function the job called. Two code
# objects can share one (file, line, name) label, such as two comprehensions
# on one line; pstats keeps only one of them, so the raw entries are summed per label
_PROFILE_JOB = """
import cProfile, json, sys
tree, workload, seed, tiny = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import worker, workloads
ops = workloads.generate(workload, seed, tiny)
profile = cProfile.Profile()
profile.runcall(worker.run_job, ops, False, False)
counts = {}
for entry in profile.getstats():
    key = cProfile.label(entry.code)
    counts[key] = counts.get(key, 0) + entry.callcount
json.dump([[*key, calls] for key, calls in counts.items()], sys.stdout)
"""

TOP = 20


def profile_rows(tree: Path, workload: str, seed: int, tiny: bool) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])}
    argv = [sys.executable, "-c", _PROFILE_JOB, str(tree), workload, str(seed), "1" if tiny else "0"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    sys.stderr.write(done.stderr)  # warnings too, not only a failure's traceback
    if done.returncode:
        raise SystemExit(2)
    return json.loads(done.stdout)


def summarize(tree: Path, rows: list) -> dict:
    package = tree / "src" / "qhgrass"
    calls = 0
    modules: dict[str, int] = {}
    fractions = 0
    field_ops = {"mul": 0, "add": 0}
    functions: dict[str, int] = {}
    for filename, line, name, count in rows:
        calls += count
        path = Path(filename)
        if path.parent == package:
            label = f"qhgrass/{path.name}"
            modules[path.stem] = modules.get(path.stem, 0) + count
            if path.stem == "exactfield" and name in field_ops:
                field_ops[name] += count
        elif filename == "~":  # a builtin: cProfile names it in full, maybe with an address
            label, name = "~", re.sub(r" at 0x[0-9a-f]+", "", name)
        else:
            label = path.name
            fractions += count if (path.name, name) == ("fractions.py", "__new__") else 0
        key = f"{label}:{line}({name})"
        functions[key] = functions.get(key, 0) + count
    heaviest = sorted(functions.items(), key=lambda item: (-item[1], item[0]))[:TOP]
    return {
        "tree": str(tree),
        "calls": calls,
        "qhgrass_calls": sum(modules.values()),
        "modules": dict(sorted(modules.items())),
        "fractions": fractions,
        "field_ops": field_ops,
        "top": [{"function": key, "calls": count} for key, count in heaviest],
    }


def ratios(base: dict, other: dict) -> dict:
    def ratio(a: int, b: int):
        return round(b / a, 4) if a else None

    out = {key: ratio(base[key], other[key]) for key in ("calls", "qhgrass_calls", "fractions")}
    for group in ("modules", "field_ops"):
        names = sorted(set(base[group]) | set(other[group]))
        out[group] = {m: ratio(base[group].get(m, 0), other[group].get(m, 0)) for m in names}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a perfbench workload, e.g. product-fill")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny job, as the benchmark's own tests run it")
    parser.add_argument(
        "--tree", action="append", type=Path, help="a checkout to count (repeatable; default: this repository)"
    )
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [Path(__file__).resolve().parent.parent]]
    counts = [summarize(tree, profile_rows(tree, args.workload, args.seed, args.tiny)) for tree in trees]
    report = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny, "trees": counts}
    if len(counts) > 1:
        report["ratios"] = [ratios(counts[0], other) for other in counts[1:]]
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
