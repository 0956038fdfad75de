import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qhgrass
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


def test_product_on_a_context_with_a_tall_transpose(capsys):
    """sigma_1 * sigma_1 on Gr(2,1200) runs the row rule on 1198 rows."""
    code, out, _ = run(capsys, "product", "2", "1200", "Q", "s[1]", "s[1]")
    assert code == 0
    assert out == "σ[2] + σ[1,1]\n"


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


def test_classify_strong_pseudoprime_n(capsys):
    """psi_12, a strong pseudoprime to the bases 2..37, is not taken for a
    prime; psi_13 passes all 13 bases and gets no verdict."""
    code, out, _ = run(capsys, "classify", "2", "318665857834031151167461", "0")
    data = json.loads(out)
    assert code == 0 and data["isGradedField"] is False
    assert data["diameter"] == {"kind": "unknown"}
    code, out, err = run(capsys, "classify", "2", "3317044064679887385961981", "0")
    assert code == 2 and out == "" and "not proven prime" in err


def test_classify_unproven_cofactor(capsys):
    """n = 2 * (2^89 - 1) is even, so not prime, but the orbit sizes and
    field dimensions need its factorization, whose cofactor 2^89 - 1 lies
    above psi_13: classify gets no answer rather than unproven field
    dimensions."""
    code, out, err = run(capsys, "classify", "2", str(2 * (2**89 - 1)), "3")
    assert code == 2 and out == "" and "not proven prime" in err


def test_evcheck_past_the_factoring_budget(capsys, monkeypatch):
    """GF((2^61 - 1)^16), the splitting field of Gr(1, 17), needs a
    generator, and so the factors of p^16 - 1, which Pollard rho does not
    find within the budget: one error line and exit 2. The budget is cut to
    10^4 steps here; at FACTOR_BUDGET the command exits the same way."""
    from qhgrass import numberth

    monkeypatch.setattr(numberth, "FACTOR_BUDGET", 10**4)
    code, out, err = run(capsys, "evcheck", "1", "17", "GF(2305843009213693951)", "--pairs", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: no factor of ") and err.endswith(" within 10000 Pollard rho steps\n")
    assert err.count("\n") == 1


def test_orbits_command(capsys):
    code, out, _ = run(capsys, "orbits", "10", "7")
    assert code == 0
    assert out.splitlines()[0].startswith("3 orbits")
    code, out, _ = run(capsys, "orbits", "10", "7", "--json")
    data = json.loads(out)
    assert data["orbitCount"] == 3 and data["sizes"] == [1, 2, 2]


@pytest.mark.parametrize("n,p", [("-5", "2"), ("0", "1")])
def test_orbits_rejects_n_below_one(capsys, n, p):
    code, out, err = run(capsys, "orbits", n, p)
    assert code == 2 and out == "" and err == f"error: n must be at least 1, got {n}\n"


def test_orbits_on_n_one_has_no_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "1", "2", "--json")
    assert code == 0 and json.loads(out)["orbitCount"] == 0


def test_evcheck_rejects_negative_pairs(capsys):
    code, out, err = run(capsys, "evcheck", "2", "5", "Q", "--pairs", "-3")
    assert code == 2 and out == "" and err == "error: --pairs must be at least 0, got -3\n"


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
    code, out, _ = run(capsys, "gc", "critical", "1", "2")
    assert code == 0
    assert json.loads(out) == {"z": {"1,1": 1.0}, "W": 2.0, "exactCheck": True}
    # the closed form has no tolerance to set
    assert run(capsys, "gc", "critical", "2", "5", "--tol", "1e-8")[0] == 1


# sha256 of the stdout of `gc critical k n`. Its floats are ratios of
# products of math.sin values, so only a different libm may move the last
# digits; W is also checked against its closed form n sin(k pi/n) / sin(pi/n)
_GC_CRITICAL_SHA256 = {
    (2, 5): "ab39a1ba60be401b05939b59ca0ecc02f3cbba546b37214b46a6c328ee4f87b9",
    (3, 6): "a072050a1284f320be196b4f471a8e84ff750f44162b7c2b1d540988d711e6c0",
    (3, 7): "e7f0314d91b9c1cdafa6a84720a9d0d7d3791e273086b9980a5edad085f2c8fe",
    (4, 8): "5117e479658200c04af1ae28ea2b8da0f8a1a2a63f079efe15120d1bfbee874c",
}


@pytest.mark.parametrize("k,n", list(_GC_CRITICAL_SHA256))
def test_gc_critical_stdout_digest(capsys, k, n):
    code, out, err = run(capsys, "gc", "critical", str(k), str(n))
    assert code == 0 and err == ""
    assert abs(json.loads(out)["W"] - n * math.sin(k * math.pi / n) / math.sin(math.pi / n)) < 1e-9
    assert hashlib.sha256(out.encode()).hexdigest() == _GC_CRITICAL_SHA256[(k, n)]


def test_exact_commands_start_without_numpy():
    """Only the Gelfand-Cetlin layer imports numpy, and only when it is used."""
    src = str(Path(qhgrass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, qhgrass\n"
        "assert 'numpy' not in sys.modules, 'import qhgrass'\n"
        "from qhgrass.cli import main\n"
        "assert main(['classify', '2', '7', '3']) == 0\n"
        "assert 'numpy' not in sys.modules, 'classify 2 7 3'\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["isGradedField"] is True


def test_output_into_a_closed_pipe_exits_1_with_nothing_on_stderr():
    """A reader that closes the pipe early, as `qhgrass orbits 100003 2 | head
    -c 50` does, ends the command with exit code 1 and no traceback. The
    output, about 690 kB, is larger than a pipe's buffer, so a write fails."""
    src = str(Path(qhgrass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "qhgrass.cli", "orbits", "100003", "2"]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(50).startswith(b"1 orbits of")
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert code == 1 and err == b""


def test_gc_map_csv_row_matches_json_values(capsys):
    code, out, _ = run(capsys, "gc", "map", "2", "4", "--seed", "3")
    assert code == 0
    values = json.loads(out)["values"]
    code, out, _ = run(capsys, "gc", "map", "2", "4", "--seed", "3", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",") == ["seed"] + ["z" + key.replace(",", "_") for key in values]
    assert row.split(",") == ["3"] + [f"{v:.12f}" for v in values.values()]


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
    "field,a,message",
    [
        ("Q", "1/0*σ[1]", "error: element term '1/0*σ[1]' has a zero denominator\n"),
        ("GF(3)", "σ[2] + -5/00*q*σ[1]", "error: element term '-5/00*q*σ[1]' has a zero denominator\n"),
        ("GF(3)", "2/6*σ[1]", "error: element term '2/6*σ[1]' has a denominator that is zero in GF(3)\n"),
        ("GF(3^2)", "1/3*σ[1]", "error: element term '1/3*σ[1]' has a denominator that is zero in GF(3^2)\n"),
    ],
)
def test_zero_denominator_names_its_term(capsys, field, a, message):
    """A fraction whose denominator is 0, or 0 in the field once the fraction
    is reduced, is an input error that names its term; 3/3 over GF(3) is 1."""
    code, out, err = run(capsys, "product", "2", "5", field, a, "σ[1]")
    assert (code, out, err) == (2, "", message)
    code, out, _ = run(capsys, "product", "2", "5", "GF(3)", "3/3*σ[1]", "σ[1]")
    assert (code, out) == (0, "σ[2] + σ[1,1]\n")


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


# malformed pieces of the CLI grammar; each makes any call that takes it fail
_BAD_SIZES = [("0", "5"), ("-1", "5"), ("6", "5"), ("2", "0"), ("2", "-3"), ("3", "2"),
              ("2.5", "5"), ("x", "5"), ("2", ""), ("2", "1e3")]
_BAD_FIELDS = ["GF(4)", "GF(2^0)", "GF(9^2)", "GF(6^2)", "GF(1)", "GF(0)", "GF(-3)", "GF(2^-1)",
               "GF(", "GF()", "GF(2^)", "GF(2^x)", "GF(p)", "F7", "Q(", "Z", "", "GF(2)^2",
               "GF(2^99999999)", "GF(7^513)"]
_BAD_ELEMENTS = ["σ[1,2]", "s[2,3]", "σ[1,1,2]", "1.5*σ[1]", "σ[1.0]", "0.5*q*σ[1]", "1e5*σ[1]",
                 "σ[1", "σ1]", "σ[[1]]", "σ[1]]", "(σ[1]", "σ[[", "1/0*σ[1]", "σ[1]+3/0*σ[2]",
                 "σ[9]", "σ[1,1,1,1]", "σ[-1]", "σ[a]", "q^x*σ[1]", "+", "**σ[1]", "σ[1,]", "1/2/3*σ[1]"]
# (field, element): a denominator that is zero in the field
_ZERO_IN_FIELD = [("GF(3)", "1/3*σ[1]"), ("GF(2^2)", "1/2*σ[1]"), ("GF(7)", "2/14*σ[2]"),
                  ("GF(3^2)", "q*σ[1]+1/6*σ[2]")]
# the malformed term of an element that has a well-formed one too
_BAD_TERM = {"σ[1]+3/0*σ[2]": "3/0*σ[2]", "q*σ[1]+1/6*σ[2]": "1/6*σ[2]"}
_BAD_SEEDS = [["--seed", "x"], ["--seed", "1.5"], ["--seed"], ["--seed", ""], ["--seed", "0x10"]]


def _malformed_calls(rng, count):
    """count seeded (argument list, bad texts) pairs, each call malformed in
    one place. The bad texts name that place: the malformed argument, the
    malformed term of an element, or "k=..." and "n=..." for a bad size
    pair. The gc calls fail in argument parsing, before the numpy import."""

    def call(*parts):
        # a part is one well-formed argument or a pair (arguments, bad texts)
        argv, bad = [], ()
        for part in parts:
            if isinstance(part, str):
                argv.append(part)
            else:
                argv += part[0]
                bad += part[1]
        return argv, bad

    def one(choices):
        text = rng.choice(choices)
        return [text], (text,)

    def sizes():
        k, n = rng.choice(_BAD_SIZES)
        return [k, n], (f"k={k}", f"n={n}")

    def element(e):
        return (_BAD_TERM.get(e, e),)

    def bad_and_good_element():
        e = rng.choice(_BAD_ELEMENTS)
        return rng.sample([e, "σ[2,1]"], 2), element(e)

    def zero_in_field():
        spec, e = rng.choice(_ZERO_IN_FIELD)
        return [spec, e], element(e)

    makers = [
        lambda: call("product", sizes(), "Q", "σ[1]", "σ[1]"),
        lambda: call("product", "2", "5", one(_BAD_FIELDS), "σ[1]", "σ[1]"),
        lambda: call("product", "3", "7", rng.choice(["Q", "GF(2)", "GF(3^2)"]), bad_and_good_element()),
        lambda: call("product", "2", "5", zero_in_field(), "σ[1]"),
        lambda: call("pieri", "2", "5", "Q", one(["-1", "0", "3", "x", "1.0"]), "σ[1]"),
        lambda: call("pieri", "2", "5", "GF(7)", "1", one(_BAD_ELEMENTS)),
        lambda: call("matrix", one(["2", "-1", "0", "x", ""]), "Q"),
        lambda: call("matrix", "7", one(_BAD_FIELDS)),
        lambda: call("classify", sizes(), "3"),
        lambda: call("classify", "2", "7", one(["x", "4", "-3", "1", "2.5", "9", ""])),
        lambda: call("orbits", one(["0", "-4", "x"]), "3"),
        lambda: call("evcheck", "2", "5", "Q", (rng.choice(_BAD_SEEDS), ())),
        lambda: call("evcheck", sizes(), rng.choice(["Q", "GF(3)"])),
        lambda: call("evcheck", "2", "5", one(_BAD_FIELDS + ["GF(2^2)"])),
        lambda: call("gc", "map", "2", "5", (rng.choice(_BAD_SEEDS), ())),
        lambda: call("gc", rng.choice(["map", "critical"]), one(["x", "2.5"]), "5"),
        lambda: (rng.choice([["bogus"], ["product", "3"], ["classify"], ["gc"], ["orbits", "5"]]), ()),
    ]
    return [rng.choice(makers)() for _ in range(count)]


def test_malformed_calls_fail_fast_with_one_error_line(capsys):
    """200 seeded malformed calls: bad k or n, field specs, element strings,
    characteristics and seeds. Each exits 1 (usage, argparse's usage lines
    then one error line) or 2 (one line "error: ..." that contains each bad
    text of the call, and no stdout), raises nothing and takes under 0.1 s."""
    codes = []
    for argv, bad in _malformed_calls(random.Random(2910), 200):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert code in (1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
            assert all(text in lines[0] for text in bad), (argv, bad, err)
        else:
            assert lines and lines[-1].startswith("qhgrass") and ": error: " in lines[-1], (argv, err)
        assert elapsed < 0.1, (argv, elapsed)
        codes.append(code)
    assert codes.count(2) > 100


@pytest.mark.parametrize(
    "argv,message",
    [
        (("product", "2", "5", "Q", "σ[1,]", "σ[1]"), "error: cannot parse element term 'σ[1,]'\n"),
        (("product", "2", "5", "GF()", "σ[1]", "σ[1]"), "error: cannot parse field spec 'GF()'\n"),
        (("classify", "2", "5", "x"), "error: characteristic must be 0 or a prime, got 'x'\n"),
        (("product", "2", "5", "GF(4)", "σ[1]", "σ[1]"), "error: field spec 'GF(4)': 4 is not prime\n"),
        (("product", "3", "7", "Q", "σ[1,1,2]", "σ[1]"),
         "error: element term 'σ[1,1,2]': rows not weakly decreasing: (1, 1, 2)\n"),
        (("pieri", "2", "5", "Q", "1", "σ[2]+0*σ[4]"),
         "error: element term '0*σ[4]': YoungDiagram(4) does not fit in GrContext(k=2, n=5)\n"),
        (("product", "2", "5", "Q", "+", "σ[1]"), "error: element '+' has an empty term\n"),
        (("classify", "5", "2", "3"), "error: need 1 <= k <= n, got k=5, n=2\n"),
        (("product", "2", "5", "GF(2^99999999)", "σ[1]", "σ[1]"),
         "error: field spec 'GF(2^99999999)': extension degree 99999999 above the supported bound 512\n"),
    ],
    ids=["rows", "field-spec", "char", "field-order", "decreasing", "box", "empty-term", "sizes", "field-degree"],
)
def test_input_errors_name_their_argument(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


# sha256 of the stdout of each command, recorded with the earlier exact layers
# (rational-root screen, echelon min_poly, pi reduced from Q to GF(p)); a change
# inside those layers must keep every one of these outputs byte for byte
_STDOUT_SHA256 = {
    ("classify", "2", "13", "3"): "9062bd82c46b8f19eb7cd0beecc7db056c6e551b76310fa6e741bed06b01ef99",
    ("classify", "4", "8", "0"): "ee864923bc0ff2d4e2dab04a97db92d58cbf8e72afe1c5a5351e2ee46304196b",
    ("classify", "2", "1000003", "3"): "e9af4dc59407c6fa09741ed8c008b1395928ed308852d297b48d4f16af0ad297",
    ("matrix", "13", "GF(2^2)", "--json"): "17ab42a57bf066f9d2552e885a4f7c5a17cbad4bc2696c20a67721338886c9fa",
    ("matrix", "12", "Q"): "43b135473ddc659d49239a249fdbb7400639ed4f30e3931709f822b18ea2ea50",
    ("orbits", "10", "7"): "ce8a5ebf60f068b9b74c6d6bd9c4873a8d4d238153aeb0654109fd30b19ca5fe",
    ("evcheck", "3", "8", "Q"): "3c2a45874bdf537401ad466d3c35bd5bdcc0e4c6ab73b2beeb8664e4bb4195dc",
    ("evcheck", "2", "7", "Q", "--verbose"): "a3ce98359b9821cce0b26884d5b43b85b533d796d11872beb6395e6c36796a6e",
    ("evcheck", "2", "13", "GF(3)"): "34d49921a64e328bc8fff5718cd5030de356ea37df5770eef6d799b729cb303e",
    ("pieri", "2", "5", "GF(2^3)", "2", "σ[3,2]+σ[2,1]"): "11fcde8afdb4fb8df93d668b8a5e838bb7f79fc05333a31aa1bbe07c6b5e73fe",
    # recorded with the Pieri steps applied per field element, before they ran
    # through the product engine; Gr(1,1) and Gr(3,3) are points (x_n = q)
    ("pieri", "1", "1", "Q", "1", "σ[-]"): "f00a2d8e4fbc3106cecbe4964bb0e44c1fd7c10b2a0511000e900f7c412dac05",
    ("pieri", "3", "3", "GF(5)", "3", "σ[-]"): "f00a2d8e4fbc3106cecbe4964bb0e44c1fd7c10b2a0511000e900f7c412dac05",
    ("pieri", "3", "3", "GF(5)", "2", "σ[-]"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("pieri", "4", "9", "GF(2^2)", "3", "σ[5,3,1]"): "60c3da6d4627fd3f2ff3efc14f0a5e11bd3b3837953a675359242e9e9242f904",
    ("product", "3", "7", "GF(3^2)", "2*σ[2,1]+q*σ[1]+σ[4,4,1]", "σ[3,1]+-1*σ[2]"): "89cb7fa72790a7a06c92fbac1746fe3ee68ff7af51abc9426dde29d6359dcab4",
    ("matrix", "11", "GF(3^2)"): "1a0e1c9f63ffaccdef34b9d3b729a40fc5676d0b4b964c04ad48702421563478",
    # recorded before elements kept integer coordinates over one denominator:
    # mixed denominators over Q, and the same product over GF(7)
    ("product", "3", "7", "Q", "3/2*σ[2,1]+q*σ[1]+-2*σ[4,4,1]", "σ[3,1]+-1/3*σ[2]"): "20daf269c824238128a116edff8b62ea253cfa92942908078c40da6a3607288b",
    ("product", "3", "7", "GF(7)", "3/2*σ[2,1]+q*σ[1]+-2*σ[4,4,1]", "σ[3,1]+-1/3*σ[2]"): "770a9959eccb33e2098d5c8d47f93caf31cadf65f2a77b7c9394df8fa1fcf560",
    # p | n (2 | 6), and a GF(2^3) splitting field
    ("evcheck", "2", "6", "GF(2)", "--verbose"): "11bd490d99578884127394d3fb2ab5986bac203727f248ebf95180313f0b3c92",
    ("evcheck", "3", "7", "GF(2)"): "a1a7b118fb15003780a55d8b028b92261aed5694b917fe09751e1d1afd10545d",
    # recorded before ev_map ran in integer coordinates and small GF(p^m) on
    # log tables: a GF(3^4) splitting field, K = GF(7), K = Q, and n = k
    ("evcheck", "4", "8", "GF(3)", "--verbose"): "a753ffd4cd52ff7ca280f280d84dbaf6a7d51ce660582d59bfc16c3fed892929",
    ("evcheck", "3", "6", "GF(7)", "--verbose"): "d1d578c489dfe4906aa1844df6aa771af815c5190a18cb0d713bac875018e855",
    ("evcheck", "1", "2", "Q"): "8127e0f56459b56815f5d74236dfde3786b494da68fdd83135efb93ec07a00fe",
    ("evcheck", "2", "2", "GF(3)"): "3081f6e4386be5fb4cdb1e9a0719eba1304454554af40faed18359b9492a2fdc",
    # the standing large-n baseline: 600 columns of Gr(2,1200) products read
    # through terms, about 3 s
    ("matrix", "1200", "GF(2)"): "ccac43472b4fa95f5a1c6e6a3653e3ddbcffcb085c23dcd68e0e5be45ed7bdbc",
    # recorded while make_extension and multiplicative_generator still tested
    # every binomial and every constant: a GF(10007^4) splitting field, and
    # GF(2^10), above TABLE_CAP, on the integer kernel
    ("evcheck", "2", "5", "GF(10007)"): "57bce569a9af24071a20ff4c3a9dacf5571ce7fc8276101cf325064fcf336104",
    ("evcheck", "2", "11", "GF(2)"): "608dc41b25f1cc821565eaaf2b64d4dea273f32eedac7230faf2d7d9e02d5a1e",
}


@pytest.mark.parametrize("argv", list(_STDOUT_SHA256), ids=" ".join)
def test_cli_stdout_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[argv]
