"""qhgrass benchmark: one command per workload, every metric by name and unit.

    python3 perfbench/run.py --workload product-fill --seed 1 --seconds 24 --trace 0

Run from the repository root (any directory works; paths are taken from this
file). The load is a closed loop with a single client: this process starts
one single-threaded worker process at a time (perfbench/worker.py, launched
with sys.executable so no launcher shim inflates set-up), and waits for its
report before the next one starts. The worker builds the workload's
operations from the seed and runs them in order. Every job runs in a fresh
worker, so every job starts with cold caches, as a CLI call does.

A run first times a calibration loop and a few bare worker start-ups, then
runs the workload's fixed job a fixed number of times (job_count: --seconds
over the workload's nominal job time, so the count never depends on how fast
the program is). The correctness gate (perfbench/gate.py) checks the outputs
of the first job, outside any timing; the program is deterministic, so an
output it fails counts as failed in every job, and an exception counts in
the job where it was raised. Only the first job returns its outputs:
encoding and decoding them costs about as much as a second job.

End-to-end metrics (--trace 0): job_s is the mean wall time of the run's
jobs, and op_p50_ms and op_p99_ms are the means over the jobs of each job's
percentiles of its operation latencies (see end_to_end; a job has at least
1181 operations);
peak_rss_mb is the median over the jobs of the worker's peak RSS; setup_s is
the median time from spawning a worker to the end of its ``import
qhgrass``; ok_op_frac is the share of attempted operations that did not
fail.

With --trace 1 the jobs alternate between untraced and traced, a probe
worker times single layer calls and runs workloads.layer_probe traced, the
spans are written to perfbench/out/<workload>-seed<n>-spans.json, and the
per-layer metrics of perfbench/metrics.py are printed instead of the
end-to-end ones. Either way the whole record, with the environment, goes to
perfbench/out/ and the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_STARTS = 3  # bare worker start-ups per run, besides one per job; 1 at tiny size
MIN_JOBS = 2  # jobs per run at least, whatever --seconds says; 1 at tiny size
WORKER_TIMEOUT_S = 60  # a whole run must end within 180 s
# Median wall time of one job on a 2-core x86-64 host with Python 3.11 at the
# commit that defined the benchmark. Fixed, so that job_count does not
# depend on the speed of the program under test.
NOMINAL_JOB_S = {"product-fill": 5.9, "product-reads": 4.8, "degree-zero": 6.5, "ev-maps": 4.6}


def spawn(job: dict) -> dict:
    """Run one worker to completion and return its report plus setup_s."""
    payload = json.dumps(job, separators=(",", ":")).encode()
    # a fixed hash seed keeps set and dict layouts, and so memory use, the same in every job
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=payload,
        capture_output=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = (report["ready_ns"] - start) / 1e9
    return report


def job_count(workload: str, seconds: float, tiny: bool) -> int:
    """Jobs per run: --seconds over the workload's nominal job time."""
    if tiny:
        return 1
    return max(MIN_JOBS, round(seconds / NOMINAL_JOB_S[workload]))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows host-speed drift beside the metrics."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe_job(ops: list, seed: int, tiny: bool) -> dict:
    """Probe inputs: every context the job touches, all fields, the large-n inputs."""
    contexts = set()
    for op in ops:
        kind = op[0]
        if kind in ("enumerate_diagrams", "quantum_product", "EvContext"):
            contexts.add((op[1], op[2]))
        elif kind in ("mult_matrix", "is_graded_field"):
            contexts.add((2, op[1]))
    return {
        "mode": "probe",
        "seed": seed,
        "contexts": sorted(contexts),
        "fields": metrics.FIELDS,
        "large_n": workloads.large_n(tiny),
    }


def job_figures(report: dict) -> dict:
    """The per-job figures the run's metrics are means or medians of."""
    latencies_ms = [ns / 1e6 for ns in report["latency_ns"]]
    return {
        "job_s": report["job_ns"] / 1e9,
        "op_p50_ms": metrics.percentile(latencies_ms, 50),
        "op_p99_ms": metrics.percentile(latencies_ms, 99),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "input_rss_mb": report["input_rss_kb"] / 1024,
    }


JOB_FIGURES = ("job_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "input_rss_mb")


def median_of(jobs: list, key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def end_to_end(jobs: list, setups: list, attempted: int, failed: int) -> dict:
    """job_s, op_p50_ms and op_p99_ms are each taken per untraced job and
    averaged over the run's untraced jobs.

    On a shared host, neighbours slow everything by up to 70%, in phases
    from a second to over a minute. Averaging over every job of the run
    varied less between runs than the median or the fastest job did, and
    per-job percentiles averaged over the jobs less than percentiles of all
    the run's latencies pooled together.
    """
    plain = [j for j in jobs if not j["traced"]]
    return {
        "job_s": statistics.fmean(j["job_s"] for j in plain),
        "op_p50_ms": statistics.fmean(j["op_p50_ms"] for j in plain),
        "op_p99_ms": statistics.fmean(j["op_p99_ms"] for j in plain),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "ok_op_frac": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
    }


def per_layer(ops: list, jobs: list, probe: dict) -> dict:
    """Per-layer metrics of a traced run.

    Span counts and self times are those of one traced job (the median over
    the run's traced jobs) plus those of the probe's layer calls, so a layer
    the workload never calls still shows the probe's small, cold calls.
    Output counts (terms, routes) likewise cover the first job and the probe.
    """
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    layers = probe["layers"]
    probe_times = metrics.self_times(layers["spans"])
    job_times = [metrics.self_times(j["spans"]) for j in traced]
    out: dict[str, float] = {}
    for name in metrics.SPANNED:
        job_calls = len(job_times[0].get(name, ()))
        out[f"{name}.calls"] = job_calls + len(probe_times.get(name, ()))
        job_busy = statistics.median(sum(t.get(name, ())) for t in job_times)
        out[f"{name}.busy_s"] = job_busy + sum(probe_times.get(name, ()))
    for name, (count, total_ns) in probe["calls"].items():
        out[f"{name}.calls"] = count
        out[f"{name}.busy_s"] = total_ns / 1e9
    out["qh_core.giambelli_expand.us"] = probe["giambelli_ns"] / 1e3
    out["qh_core.pieri_multiply.us"] = probe["pieri_ns"] / 1e3
    # outputs of the job and of the probe
    outputs = [
        (op[0], r)
        for op_list, result_list in ((ops, jobs[0]["results"]), (workloads.layer_probe(), layers["results"]))
        for op, r in zip(op_list, result_list)
        if r is not None
    ]
    out["qh_core.terms_out"] = sum(len(r) for kind, r in outputs if kind in ("schubert_product", "quantum_product"))
    # input properties of the job alone; 0 where it makes no lookups (degree-zero)
    ordered, unordered = workloads.repeat_shares(ops)
    out["qh_core.pair_repeat_share"] = ordered
    out["qh_core.unordered_repeat_share"] = unordered
    for route in metrics.ROUTES:
        out[f"degree_zero.route.{route}.count"] = sum(
            route in r["routes"] for kind, r in outputs if kind == "is_graded_field"
        )
    for suffix, (mul_ns, inv_ns) in probe["fields"].items():
        out[f"exactfield.mul_ns.{suffix}"] = mul_ns
        out[f"exactfield.inv_ns.{suffix}"] = inv_ns
    out["job.rss_growth_mb"] = median_of(plain, "peak_rss_mb") - median_of(plain, "input_rss_mb")
    out["trace.overhead_frac"] = statistics.fmean(j["job_s"] for j in traced) / statistics.fmean(
        j["job_s"] for j in plain
    ) - 1
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, digests=None) -> dict:
    """One benchmark run; returns the result record (metrics, gate, environment).

    ``tiny`` shrinks the inputs to smoke-test size; ``digests`` replaces the
    recorded perfbench/digests.json.
    """
    if digests is None:
        digests = json.loads((HERE / "digests.json").read_text())
    ops = workloads.generate(workload, seed, tiny)
    calibration_s = calibrate()
    setups = [spawn({"mode": "setup"})["setup_s"] for _ in range(1 if tiny else SETUP_STARTS)]
    jobs: list[dict] = []
    wrong: dict[int, str] = {}
    got: dict = {}
    failures: dict[int, str] = {}
    correct = True
    for n in range(job_count(workload, seconds, tiny) + int(trace and tiny)):
        traced = trace and n % 2 == 1
        report = spawn(
            {"mode": "job", "workload": workload, "seed": seed, "tiny": tiny, "trace": traced, "results": n == 0}
        )
        report.update(job_figures(report), traced=traced)
        setups.append(report["setup_s"])
        if n == 0:
            wrong, got = gate.wrong_outputs(workload, ops, report["results"], report["checks"], digests)
        job_failed = {int(i): msg for i, msg in report["errors"].items()}
        for i, reason in wrong.items():
            job_failed.setdefault(i, reason)
        correct = correct and not wrong and not gate.unexpected_errors(ops, report["errors"])
        failures.update(job_failed)
        report["failed"] = len(job_failed)
        jobs.append(report)
    attempted = len(ops) * len(jobs)
    failed = sum(j["failed"] for j in jobs)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": {
            **jobs[0]["versions"],
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "calibration_s": calibration_s,
        },
        "setups_s": setups,
        "jobs": [
            {key: j[key] for key in ("traced", "setup_s", "failed", *JOB_FIGURES)} for j in jobs
        ],
        "failures": {str(i): [ops[i], reason] for i, reason in sorted(failures.items())},
        "digests": got,
        "ops_per_job": len(ops),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        probe = spawn(probe_job(ops, seed, tiny))
        if probe["layers"]["errors"]:
            record["correct"] = False
            record["probe_errors"] = probe["layers"]["errors"]
        values = per_layer(ops, jobs, probe)
        registry = {name: unit for name, (unit, _better, _moves) in metrics.PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        spans = [{"job": n, "spans": j["spans"]} for n, j in enumerate(jobs) if j["traced"]]
        spans.append({"job": "probe", "spans": probe["layers"]["spans"]})
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(spans, separators=(",", ":")))
    else:
        values = end_to_end(jobs, setups, attempted, failed)
        registry = {name: unit for name, (unit, _better, _bound) in metrics.END_TO_END.items()}
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in registry.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhgrass" / "__init__.py").is_file():
        print(f"qhgrass sources not found under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"]}))
    plain = [j for j in record["jobs"] if not j["traced"]]
    for key in JOB_FIGURES:
        values = [j[key] for j in plain]
        print(f"{key} of {len(values)} untraced jobs: " + " ".join(f"{v:.6g}" for v in values))
    print(f"latency percentiles per job over its {record['ops_per_job']} operations")
    for reason in list(record["failures"].values())[:10]:
        print(f"failed op: {reason[0]}: {reason[1]}")
    for metric, entry in record["metrics"].items():
        print(f"{metric:48s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
