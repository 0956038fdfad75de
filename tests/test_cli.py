import json

import pytest

from qhgrass.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_golden_case(capsys):
    code, out, _ = run(capsys, "product", "3", "6", "Q", "σ[1,1]", "σ[3,1]")
    assert code == 0
    assert out.strip() == "σ[3,2,1] + q*σ[-]"


def test_product_ascii_and_fields(capsys):
    code, out, _ = run(capsys, "product", "3", "6", "GF(2)", "s[1,1]", "s[3,1]")
    assert code == 0
    assert out.strip() == "σ[3,2,1] + q*σ[-]"
    code, out, _ = run(capsys, "product", "2", "5", "Q", "3/2*σ[1]", "2*σ[1]")
    assert code == 0
    assert out.strip() == "3*σ[2] + 3*σ[1,1]"


@pytest.mark.parametrize(
    "argv,want",
    [
        (("3", "6", "GF(2)", "σ[2]+σ[1,1]", "σ[1]"), "σ[3] + σ[1,1,1]"),
        (("3", "6", "Q", "σ[2]+-1*σ[1,1]", "σ[1]"), "σ[3] + -1*σ[1,1,1]"),
        (("3", "6", "GF(2^3)", "σ[2]+σ[1,1]", "σ[1]"), "σ[3] + σ[1,1,1]"),
        (("2", "5", "GF(3^2)", "1/2*σ[2,1]+q^-1*σ[2,2]", "σ[2,1]"), "σ[2] + 2*σ[3,3] + 2*q*σ[1]"),
    ],
    ids=["GF(2)", "Q", "GF(2^3)", "GF(3^2)"],
)
def test_product_with_cancellation_golden(capsys, argv, want):
    code, out, _ = run(capsys, "product", *argv)
    assert code == 0
    assert out == want + "\n"


def test_pieri_command(capsys):
    code, out, _ = run(capsys, "pieri", "2", "5", "Q", "2", "σ[3,2]")
    assert code == 0
    assert out.strip() == "q*σ[2]"


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "13", "Q", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matchesClosedForm"] is True
    assert data["laurentIdentityOverQ"] is True
    assert len(data["matrix"]) == 6
    assert data["matrix"][0][0] == "1"


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "1", "5", "0")
    assert code == 0
    data = json.loads(out)
    assert data["isGradedField"] is True
    assert data["diameter"]["kind"] == "finite"
    code, out, _ = run(capsys, "classify", "2", "10", "7")
    data = json.loads(out)
    assert data["orbitCount"] == 3 and data["fieldDims"] == [1, 2, 2]


def test_orbits_command(capsys):
    code, out, _ = run(capsys, "orbits", "10", "7")
    assert code == 0
    assert out.splitlines()[0].startswith("3 orbits")
    code, out, _ = run(capsys, "orbits", "10", "7", "--json")
    data = json.loads(out)
    assert data["orbitCount"] == 3 and data["sizes"] == [1, 2, 2]


def test_evcheck_command(capsys):
    code, out, _ = run(capsys, "evcheck", "2", "5", "GF(11)", "--pairs", "10")
    assert code == 0
    data = json.loads(out)
    assert data["idealVanishing"] is True
    assert data["multiplicativeFailures"] == 0
    assert data["multisets"] == 10


def test_gc_commands(capsys):
    code, out, _ = run(capsys, "gc", "map", "2", "4", "--seed", "1", "--quaternionic")
    assert code == 0
    data = json.loads(out)
    assert abs(data["values"]["1,2"] - data["values"]["2,1"]) < 1e-9
    code, out, _ = run(capsys, "gc", "map", "2", "4", "--seed", "1", "--csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("seed,")
    code, out, _ = run(capsys, "gc", "critical", "1", "2", "--tol", "1e-10")
    data = json.loads(out)
    assert abs(data["W"] - 2.0) < 1e-12
    assert data["gradInf"] < 1e-10


def test_gc_commands_on_a_point(capsys):
    code, out, _ = run(capsys, "gc", "map", "2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {} and data["interlacingViolation"] == 0.0
    code, out, err = run(capsys, "gc", "critical", "2", "2")
    assert code == 2 and out == "" and "no variables" in err


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "product", "3")[0] == 1


def test_computation_error_exit_code(capsys):
    code, _, err = run(capsys, "product", "3", "6", "GF(15)", "σ[1]", "σ[1]")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "2", "6", "4")
    assert code == 2
    code, _, err = run(capsys, "product", "3", "6", "Q", "σ[9]", "σ[1]")
    assert code == 2  # diagram does not fit the rectangle


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "3", "6", "Q", "0*σ[9]", "σ[1]"),
        ("product", "3", "6", "Q", "σ[9]+-1*σ[9]", "σ[1]"),
        ("pieri", "3", "6", "Q", "1", "0*σ[9]"),
        ("pieri", "3", "6", "GF(2)", "1", "σ[1,1,1,1]+σ[1,1,1,1]"),
    ],
    ids=["product-zero", "product-cancelled", "pieri-zero", "pieri-cancelled"],
)
def test_zero_or_cancelled_term_outside_the_box(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "does not fit" in err
