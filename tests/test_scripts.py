import contextlib
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qhgrass.cli import main
from qhgrass.diagram import GrContext, enumerate_diagrams
from qhgrass.gelfand_cetlin import gc_csv_rows
from qhgrass.qh_core import schubert_product

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CLASSIFIER_GRID = SCRIPTS / "classifier_grid.py"
GC_EXPERIMENTS = SCRIPTS / "gc_experiments.py"
PRODUCT_TABLE = SCRIPTS / "product_table.py"
WORKCOUNT = SCRIPTS / "workcount.py"
GRID_ARGS = ["--max-n", "60", "--chars", "0", "2", "3", "5", "7", "11", "13"]
# a child process runs in dev mode with ResourceWarning an error, as CI runs the
# tests, so a file or pipe it leaves open shows on its stderr
DEV_MODE = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error::ResourceWarning"}


def run_script(monkeypatch, capsys, script, *argv):
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    return capsys.readouterr()


def run_classifier_grid(monkeypatch, capsys, *extra):
    return run_script(monkeypatch, capsys, CLASSIFIER_GRID, *GRID_ARGS, *extra).out


def test_classifier_grid_json_digest(monkeypatch, capsys):
    out = run_classifier_grid(monkeypatch, capsys, "--json")
    assert out.count("\n") == 6300
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15ccb08ec9c19a208392cff0b1f48eb653c81f6d328e615908c79542b2b97e9f"
    )


def test_classifier_grid_table_digest(monkeypatch, capsys):
    out = run_classifier_grid(monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1145a3c374d3c41b75fe55977109d921fb8c35674c9aa958f10255cf2aa492d9"
    )


def critical_report(capsys, k, n):
    """The `gc critical k n` report, as the script prints it: k and n first."""
    assert main(["gc", "critical", str(k), str(n)]) == 0
    return {"k": k, "n": n, **json.loads(capsys.readouterr().out)}


@pytest.mark.parametrize("quaternionic", [False, True])
def test_gc_experiments_rows_and_reports(monkeypatch, capsys, tmp_path, quaternionic):
    """CSV rows are gc_csv_rows for seeds 0..2 under a "# Gr(k,n)" line, and
    the JSON lines are the `gc critical` reports of every context. With
    --quaternionic, Gr(2,5) has no quaternionic frame: its rows are skipped
    with a note on stderr, and its critical point is still reported."""
    contexts = [(2, 4), (2, 5)]
    csv_out = tmp_path / "gc.csv"
    flags = ["--quaternionic"] if quaternionic else []
    captured = run_script(
        monkeypatch, capsys, GC_EXPERIMENTS,
        "--contexts", "2,4", "2,5", "--samples", "3", "--csv-out", str(csv_out), *flags,
    )
    sampled = [(2, 4)] if quaternionic else contexts
    want_rows = []
    for k, n in sampled:
        want_rows += [f"# Gr({k},{n})", *gc_csv_rows(GrContext(k, n), [0, 1, 2], quaternionic)]
    assert csv_out.read_text().splitlines() == want_rows
    skipped = "skipping GrContext(k=2, n=5): quaternionic frames need k, n even\n"
    assert captured.err == (skipped if quaternionic else "")
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert reports == [critical_report(capsys, k, n) for k, n in contexts]


def product_table_digest(k, n):
    """The sha256 of the Gr(k, n) table as the script's docstring says:
    compact JSON of [a, b, sorted terms] per ordered pair. Tuples, diagrams
    among them, sort as lists do and dump as JSON arrays."""
    ctx = GrContext(k, n)
    diagrams = enumerate_diagrams(ctx)
    table = [
        [a, b, sorted((d, m, c) for (d, m), c in schubert_product(ctx, a, b).items())]
        for a in diagrams
        for b in diagrams
    ]
    return hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()


def test_product_table_digest_matches_schubert_product(monkeypatch, capsys):
    """The script's digest hashes the Gr(2,5) table as its docstring says."""
    captured = run_script(monkeypatch, capsys, PRODUCT_TABLE, "2", "5", "--repeats", "2")
    (line,) = captured.out.splitlines()
    report = json.loads(line)
    assert report["sha256"] == product_table_digest(2, 5)
    assert (report["k"], report["n"], report["pairs"], report["repeats"]) == (2, 5, 100, 2)
    assert report["min_s"] > 0


@pytest.mark.parametrize(
    "k,n,digest",
    [
        pytest.param(3, 9, "a9a6ecac7b2a9e5357e216ce94ef95658fe29eb6cc3879f4a60edc7960f04cf8", id="3-9"),
        pytest.param(6, 9, "f44e113ef9c9ec2fda8041773d8d1cb17fd336b9ee0ab7d22af0b0c666d9edaa", id="6-9"),
        pytest.param(4, 10, "51e92e46bb5c48d1259954871e3f60a4cad0310b800829735460b43f03c091f9", id="4-10"),
        pytest.param(6, 10, "2dd20770ec97fff5e14beb5c7b677df21c9573fd00bff228e44950b50d7faa1b", id="6-10"),
    ],
)
def test_product_table_digests_are_pinned(k, n, digest):
    """The whole tables of four boxes, hashed as the script hashes them, keep
    the digests quoted for them. Gr(k, n) and Gr(n - k, n) are pinned apart,
    so a fault that the row and column routes share, which the transposition
    test cannot see, still changes a digest."""
    assert product_table_digest(k, n) == digest


def test_workcount_is_deterministic_and_keeps_its_schema():
    """Tiny product-reads, degree-zero and ev-maps jobs, each counted on one
    tree in three fresh processes, each under its own random hash seed
    (PYTHONHASHSEED unset): the three counts of a job are equal and the later
    trees' ratios are 1. Code objects that share a (file, line, name) label,
    such as two comprehensions on one line, are summed, so which of them the
    profiler lists first does not matter. The schema is checked, not the
    counts, so a change of the work does not have to re-record anything here."""
    root = str(SCRIPTS.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHASHSEED"} | DEV_MODE
    modules = {"product-reads": "qh_core", "degree-zero": "degree_zero", "ev-maps": "presentation"}
    argv = [sys.executable, str(WORKCOUNT), "--seed", "3", "--tiny", *["--tree", root] * 3]
    done = {}
    # every child is waited on and its pipes closed before the first assertion
    with contextlib.ExitStack() as stack:
        runs = {
            workload: stack.enter_context(
                subprocess.Popen(
                    [*argv, "--workload", workload], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
                )
            )
            for workload in modules
        }
        for workload, run in runs.items():
            out, err = run.communicate(timeout=120)
            done[workload] = run.returncode, out, err
    for workload, (code, out, err) in done.items():
        assert code == 0, (workload, err)
        assert "ResourceWarning" not in err, workload
        report = json.loads(out)
        assert (report["workload"], report["seed"], report["tiny"]) == (workload, 3, True)
        first, *later = report["trees"]
        assert later == [first, first], workload
        assert set(first) == {"tree", "calls", "qhgrass_calls", "modules", "fractions", "field_ops", "top"}
        assert first["calls"] > first["qhgrass_calls"] == sum(first["modules"].values()) > 0
        assert {modules[workload], "exactfield", "diagram"} <= set(first["modules"])
        assert set(first["field_ops"]) == {"mul", "add"} and first["fractions"] > 0
        top = [(entry["calls"], entry["function"]) for entry in first["top"]]
        assert len(top) == 20 and top == sorted(top, key=lambda entry: (-entry[0], entry[1]))
        assert not any(" at 0x" in function for _, function in top)
        for ratios in report["ratios"]:
            assert ratios["calls"] == ratios["qhgrass_calls"] == ratios["fractions"] == 1
            assert set(ratios["modules"].values()) == {1}
