"""Write perfbench/digests.json: output digests of one job per workload at the default seed.

    python3 perfbench/record_digests.py

The gate compares every later run against this file, so record it only from
a commit whose outputs are known to be right. A workload whose job fails any
check other than the known failures is not recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        record = run.run(workload, run.DEFAULT_SEED, 0, trace=False, digests={})
        if not record["correct"]:
            print(f"{workload}: not correct, not recorded: {record['failures']}", file=sys.stderr)
            return 1
        recorded[workload] = record["digests"]
    (run.HERE / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
