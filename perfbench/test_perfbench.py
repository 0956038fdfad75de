"""Tests of the benchmark itself: smoke-size runs, the gate, and the registry.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    record = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert record["correct"], record["failures"]
    assert record["attempted"] == len(workloads.generate(workload, 3, tiny=True))
    assert set(record["metrics"]) == set(metrics.END_TO_END)
    for name in ("job_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "setup_s"):
        assert record["metrics"][name]["value"] > 0
    known = [op for op, _reason in record["failures"].values()]
    if workload == "degree-zero":
        assert known == [["is_graded_field", 131, "Q"]]
    else:
        assert known == []


def test_traced_tiny_run_reports_every_layer_metric_and_writes_spans():
    record = run.run("ev-maps", seed=3, seconds=0, trace=True, tiny=True)
    assert record["correct"]
    assert set(record["metrics"]) == set(metrics.PER_LAYER)
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    # 3 per multiplicativity check in the job, 3 more in the layer probe
    assert values["presentation.ev_map.calls"] == 3 * 30 + 3
    # every layer has calls and time, also those this workload never calls
    for name, value in values.items():
        if name.endswith((".calls", ".busy_s", ".count", "_ns", ".us")):
            assert value > 0, name
    spans = json.loads((run.OUT / "ev-maps-seed3-spans.json").read_text())
    names = {span[3] for job in spans for span in job["spans"]}
    assert {"op.ev_multiplicative", "presentation.ev_map", "qh_core.quantum_product", "op.classify"} <= names


def test_wrong_expected_digest_is_reported_as_failed_operations():
    first = run.run("product-fill", seed=3, seconds=0, trace=False, tiny=True)
    wrong = json.loads(json.dumps(first["digests"]))
    wrong["schubert_product"]["outputs"] = "0" * 64
    second = run.run(
        "product-fill", seed=3, seconds=0, trace=False, tiny=True, digests={"product-fill": wrong}
    )
    ops = workloads.generate("product-fill", 3, tiny=True)
    assert not second["correct"]
    assert second["failed"] == sum(op[0] == "schubert_product" for op in ops)
    assert second["metrics"]["ok_op_frac"]["value"] < 1


def test_ev_checks_are_mixed_and_follow_every_context():
    ops = workloads.generate("ev-maps", run.DEFAULT_SEED)
    contexts = [op for op in ops if op[0] == "EvContext"]
    # the worker keeps each context's state, so all contexts come first
    assert ops[: len(contexts)] == contexts
    # and the checks of the contexts are interleaved, not one stretch each
    first_half = {tuple(op[1:4]) for op in ops[len(contexts) : len(ops) // 2]}
    assert first_half == {tuple(op[1:4]) for op in contexts}


def test_recorded_digests_cover_every_workload_and_kind():
    recorded = json.loads((run.HERE / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        kinds = {op[0] for op in workloads.generate(workload, run.DEFAULT_SEED)}
        if "quantum_product" in kinds:
            kinds.add("schubert_constants")
        assert set(recorded[workload]) == kinds


def test_gate_recomputes_quantum_products_on_any_seed():
    ops = workloads.generate("product-reads", 5, tiny=True)
    report = run.spawn({"mode": "job", "workload": "product-reads", "seed": 5, "tiny": True, "trace": False, "results": True})
    results, checks = report["results"], report["checks"]
    assert {"GF(2^3)"} == set(checks["moduli"])
    assert gate.wrong_outputs("product-reads", ops, results, checks, {})[0] == {}
    # one wrong coefficient in one product, and a dropped term in another
    i = next(i for i, op in enumerate(ops) if op[3] == "GF(7)")
    results[i][0][2] = results[i][0][2] % 7 + 1
    j = next(j for j, op in enumerate(ops) if op[3] == "GF(2^3)" and len(results[j]) > 1)
    del results[j][-1]
    assert set(gate.wrong_outputs("product-reads", ops, results, checks, {})[0]) == {i, j}


def test_gate_flags_a_non_commutative_table():
    ops = [["schubert_product", 2, 4, [1], [2]], ["schubert_product", 2, 4, [2], [1]]]
    results = [[[[2, 1], 0, 1]], [[[1, 1, 1], 0, 1]]]
    assert set(gate.wrong_outputs("product-fill", ops, results, None, {})[0]) == {0, 1}


def test_laurent_identity_of_small_closed_forms():
    # det(M - xI) for n = 5 (M = [[1, -1], [-1, 0]]) and n = 6 (3 x 3, both corners 1)
    assert gate.laurent_identity(5, [Fraction(-1), Fraction(-1), Fraction(1)])
    assert gate.laurent_identity(6, [Fraction(-2), Fraction(1), Fraction(2), Fraction(-1)])
    assert not gate.laurent_identity(5, [Fraction(1), Fraction(-1), Fraction(1)])


def test_only_the_known_failure_is_expected():
    ops = [["is_graded_field", 131, "Q"], ["is_graded_field", 61, "Q"]]
    assert gate.unexpected_errors(ops, {"0": "DegreeLimitError: degree 65"}) == []
    assert gate.unexpected_errors(ops, {"0": "ValueError: x", "1": "DegreeLimitError: y"}) == [0, 1]


def test_self_time_subtracts_covered_child_time():
    spans = [(1, 0, 0, "child", 10, 30), (2, 0, 0, "child", 25, 40), (0, -1, 0, "op", 0, 100)]
    times = metrics.self_times(spans)
    assert times["op"] == [pytest.approx(70e-9)]
    assert times["child"] == [pytest.approx(20e-9), pytest.approx(15e-9)]


def test_benchmark_json_matches_the_registry():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in metrics.PER_LAYER.items()
    }
