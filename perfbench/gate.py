"""Correctness gate for the benchmark, run on worker results outside any timing.

Three checks, none of which imports qhgrass:

* Digests. Each operation kind of a workload is one group; its digest is a
  sha256 over the sorted (operation, result) pairs, recorded in
  perfbench/digests.json for the default seed. A group is compared only when
  the hash of its inputs matches the recorded one, so groups whose inputs do
  not depend on the seed are checked on every seed. A mismatch fails every
  operation of the group.
* Recomputed products. The worker also returns the integer structure
  constants of every pair of Schubert classes that product-reads combines
  (that set of pairs does not depend on the seed, so its digest is checked on
  every seed); the gate redoes each quantum product from them with its own
  field arithmetic and compares every coefficient.
* Invariants that hold for any seed: commutativity and nonnegativity of the
  structure-constant tables, degree conservation in them, mult_matrix equal
  to the closed-form tridiagonal matrix, the Laurent identity of its
  characteristic polynomial, classify agreeing with is_graded_field where
  both answer, the irreducibility tests agreeing with each other, ideal
  vanishing and multiplicativity of the evaluation maps.

An operation fails when it raised or when a check marks it. Operations named
in KNOWN_FAILURES are defects of the library that the benchmark must keep
showing; they count as failed but do not make a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from fractions import Fraction

from workloads import admissible_count, box_partitions, field_order

def op_key(op) -> str:
    return json.dumps(op, separators=(",", ":"))


# is_graded_field on Gr(2, 131) over Q needs rational irreducibility in degree
# 65, above the factorizer's limit, while classify(2, 131, 0) answers
# "graded field" (ROADMAP item 4).
KNOWN_FAILURES = {
    op_key(["is_graded_field", 131, "Q"]): "DegreeLimitError",
}


def group_digests(ops: list, results: list, checks: dict | None = None) -> dict:
    """{kind: {"inputs": sha256, "outputs": sha256}} over ops not in KNOWN_FAILURES,
    plus the group "schubert_constants" of the worker's check data."""
    groups: dict = defaultdict(list)
    for op, result in zip(ops, results):
        key = op_key(op)
        if key not in KNOWN_FAILURES:
            groups[op[0]].append((key, result))
    for k, n, a, b, terms in (checks or {}).get("constants", ()):
        groups["schubert_constants"].append((op_key([k, n, a, b]), terms))
    out = {}
    for kind, pairs in groups.items():
        pairs.sort(key=lambda pair: pair[0])
        inputs = json.dumps([key for key, _ in pairs]).encode()
        outputs = json.dumps(pairs, separators=(",", ":")).encode()
        out[kind] = {
            "inputs": hashlib.sha256(inputs).hexdigest(),
            "outputs": hashlib.sha256(outputs).hexdigest(),
        }
    return out


# ---------------------------------------------------------------------------
# invariants; each yields (op id, reason)


def _degree(rows, m, n) -> int:
    return sum(rows) + n * m


def _check_tables(ops, results):
    table = {}
    for i, op in enumerate(ops):
        if op[0] == "schubert_product" and results[i] is not None:
            table[(op[1], op[2], tuple(op[3]), tuple(op[4]))] = i
    for (k, n, a, b), i in table.items():
        j = table.get((k, n, b, a))
        if j is not None and results[i] != results[j]:
            yield i, "not commutative"
        want = sum(a) + sum(b)
        for rows, m, c in results[i]:
            if c <= 0 or _degree(rows, m, n) != want:
                yield i, f"bad term {rows} q^{m} coefficient {c}"


def _check_enumeration(op, result):
    k, n = op[1], op[2]
    want = sorted(box_partitions(k, n - k), key=lambda d: (sum(d), [-r for r in d]))
    if [tuple(d) for d in result] != want:
        yield "diagram list differs from the k x (n-k) box in canonical order"


def closed_form(n: int) -> list[list[int]]:
    size = (n - 1) // 2 if n % 2 else n // 2
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    for i in range(size - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    if n % 2 == 0:
        rows[-1][-1] = 1
    return rows


def _check_matrix(op, result):
    if [[Fraction(x) for x in row] for row in result] != closed_form(op[1]):
        yield "mult_matrix differs from the closed-form tridiagonal matrix"


class Coefficients:
    """Arithmetic of one field spec on the JSON forms of its elements: a
    Fraction (or "num/den" text, or [num, den] input) over Q, an int over
    GF(p), a digit list (low first) reduced by ``modulus`` over GF(p^m)."""

    def __init__(self, spec: str, modulus: list | None = None):
        self.p, self.m = field_order(spec)
        self.modulus = modulus

    def parse(self, c):
        if self.p == 0:
            return Fraction(*c) if isinstance(c, list) else Fraction(c)
        return tuple(c) if self.m > 1 else c

    def add(self, x, y):
        if self.p == 0:
            return x + y
        if self.m == 1:
            return (x + y) % self.p
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        if self.p == 0:
            return x * y
        if self.m == 1:
            return x * y % self.p
        m, p = self.m, self.p
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            for j in range(m):
                prod[d - m + j] -= c * self.modulus[j]
        return tuple(v % p for v in prod[:m])

    def times_int(self, x, count: int):
        if self.m > 1:
            return tuple(a * count % self.p for a in x)
        return x * count if self.p == 0 else x * count % self.p

    def is_zero(self, x) -> bool:
        return not any(x) if self.m > 1 else x == 0


def _check_quantum_products(ops, results, checks):
    constants = {(k, n, tuple(a), tuple(b)): terms for k, n, a, b, terms in checks["constants"]}
    fields = {}
    for i, op in enumerate(ops):
        if op[0] != "quantum_product" or results[i] is None:
            continue
        _kind, k, n, spec, a, b = op
        F = fields.get(spec) or fields.setdefault(spec, Coefficients(spec, checks["moduli"].get(spec)))
        b_terms = [(tuple(rows), m, F.parse(c)) for rows, m, c in b]
        want: dict = {}
        for rows_a, m_a, c_a in a:
            c_a, rows_a = F.parse(c_a), tuple(rows_a)
            for rows_b, m_b, c_b in b_terms:
                c = F.mul(c_a, c_b)
                for rows, m, count in constants[(k, n, rows_a, rows_b)]:
                    key = (tuple(rows), m_a + m_b + m)
                    term = c if count == 1 else F.times_int(c, count)
                    want[key] = F.add(want[key], term) if key in want else term
        got = {(tuple(rows), m): F.parse(c) for rows, m, c in results[i]}
        if got != {key: c for key, c in want.items() if not F.is_zero(c)}:
            yield i, "quantum_product differs from the bilinear extension of its structure constants"


def laurent_identity(n: int, coeffs: list[Fraction]) -> bool:
    """x^shift * pi(-x - 1/x) == (x^n - 1)/(x - 1), times (x + 1) for even n."""
    shift = (n - 1) // 2 if n % 2 else n // 2
    total: dict[int, Fraction] = defaultdict(Fraction)
    power = {0: Fraction(1)}  # (-x - 1/x)^j as {exponent: coefficient}
    for c in coeffs:
        for e, v in power.items():
            total[e + shift] += c * v
        step: dict[int, Fraction] = defaultdict(Fraction)
        for e, v in power.items():
            step[e + 1] -= v
            step[e - 1] -= v
        power = step
    want: dict[int, Fraction] = defaultdict(Fraction)
    for i in range(n):
        want[i] += 1
        if n % 2 == 0:
            want[i + 1] += 1
    return {e: v for e, v in total.items() if v} == dict(want)


def _parse_poly(spec: str, coeffs: list) -> list:
    return [Fraction(c) if spec == "Q" else c for c in coeffs]


def _check_linear_algebra(ops, results):
    by_key = {(op[1], op[2]): (i, results[i]) for i, op in enumerate(ops) if op[0] == "linear_algebra"}
    for (n, spec), (i, res) in by_key.items():
        if res is None:
            continue
        cp = _parse_poly(spec, res["char_poly"])
        mp = _parse_poly(spec, res["min_poly"])
        p, _ = field_order(spec)
        lead = cp[-1]
        monic = [c / lead for c in cp] if p == 0 else [c * pow(lead, -1, p) % p for c in cp]
        if mp != monic:  # the closed-form matrices are unreduced tridiagonal
            yield i, "min_poly is not the monic characteristic polynomial"
        if p == 0:
            if not laurent_identity(n, cp):
                yield i, "characteristic polynomial fails the Laurent identity"
            continue
        if sorted(res["profile"]) != res["profile"] or sum(res["profile"]) != len(cp) - 1:
            yield i, "distinct-degree profile does not add up to the degree"
        if res["irreducible"] != (res["profile"] == [len(cp) - 1]):
            yield i, "is_irreducible disagrees with the distinct-degree profile"
        rational = by_key.get((n, "Q"), (None, None))[1]
        if rational is not None:
            reduced = [_mod_p(Fraction(c), p) for c in rational["char_poly"]]
            if reduced != cp:
                yield i, "characteristic polynomial differs from the rational one mod p"


def _mod_p(c: Fraction, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def _check_graded_field(ops, results):
    verdicts = {
        (op[2], res["char"]): res["isGradedField"]
        for i, op in enumerate(ops)
        if op[0] == "classify" and op[1] == 2 and results[i] is not None
        for res in results[i]
    }
    irreducible = {
        (op[1], op[2]): results[i]["irreducible"]
        for i, op in enumerate(ops)
        if op[0] == "linear_algebra" and op[2] != "Q" and results[i] is not None
    }
    for i, op in enumerate(ops):
        if op[0] == "classify" and results[i] is not None:
            if any((res["diameter"]["kind"] == "finite") != res["isGradedField"] for res in results[i]):
                yield i, "classify: finite diameter without a graded field, or the reverse"
        if op[0] != "is_graded_field" or results[i] is None:
            continue
        n, spec = op[1], op[2]
        p, m = field_order(spec)
        answer = results[i]["is_field"]
        if m == 1 and verdicts.get((n, p), answer) != answer:
            yield i, f"is_graded_field disagrees with classify(2, {n}, {p})"
        if n % 2 and irreducible.get((n, spec), answer) != answer:
            yield i, "is_graded_field disagrees with is_irreducible of the closed-form charpoly"


def _check_ev(ops, results):
    for i, op in enumerate(ops):
        res = results[i]
        if res is None:
            continue
        if op[0] == "EvContext":
            k, n, spec = op[1], op[2], op[3]
            indices = [tuple(J) for J in res["multisets"]]
            if len(set(indices)) != len(indices) or len(indices) != admissible_count(k, n, spec):
                yield i, "admissible multisets differ from the independent count"
        elif op[0] == "verify_ideal_vanishing" and not res["all_ok"]:
            yield i, "an ideal generator does not vanish"
        elif op[0] == "ev_multiplicative" and not (res["holds"] and res["lhs"] == res["rhs"]):
            yield i, "ev(a*b) != ev(a)*ev(b)"


def invariant_failures(ops: list, results: list, checks: dict | None = None) -> dict[int, str]:
    bad: dict[int, str] = {}
    if checks and checks["constants"]:
        for i, reason in _check_quantum_products(ops, results, checks):
            bad.setdefault(i, reason)
    for i, reason in _check_tables(ops, results):
        bad.setdefault(i, reason)
    for i, reason in _check_linear_algebra(ops, results):
        bad.setdefault(i, reason)
    for i, reason in _check_graded_field(ops, results):
        bad.setdefault(i, reason)
    for i, reason in _check_ev(ops, results):
        bad.setdefault(i, reason)
    single = {
        "enumerate_diagrams": _check_enumeration,
        "mult_matrix": _check_matrix,
    }
    for i, op in enumerate(ops):
        if results[i] is None:
            continue
        if op[0] in single:
            for reason in single[op[0]](op, results[i]):
                bad.setdefault(i, reason)
        elif op[0] == "charpoly_identity_holds" and results[i] is not True:
            bad.setdefault(i, "charpoly_identity_holds returned False")
    return bad


# ---------------------------------------------------------------------------
# entry points


def wrong_outputs(workload: str, ops: list, results: list, checks: dict | None, digests: dict):
    """(op ids whose output fails an invariant or a recorded digest, with
    reasons; the group digests of these outputs).

    A wrong "schubert_constants" digest fails every quantum_product, since
    the gate recomputed them from those constants.
    """
    wrong = invariant_failures(ops, results, checks)
    recorded = digests.get(workload, {})
    got = group_digests(ops, results, checks)
    for kind, digest in got.items():
        want = recorded.get(kind)
        if want and want["inputs"] == digest["inputs"] and want["outputs"] != digest["outputs"]:
            failing = "quantum_product" if kind == "schubert_constants" else kind
            for i, op in enumerate(ops):
                if op[0] == failing:
                    wrong.setdefault(i, f"{kind} outputs differ from the recorded digest")
    return wrong, got


def unexpected_errors(ops: list, errors: dict) -> list[int]:
    """Op ids that raised, other than with the exception KNOWN_FAILURES expects.

    ``errors`` maps op id to "ExceptionType: message".
    """
    return [
        int(i) for i, msg in errors.items()
        if KNOWN_FAILURES.get(op_key(ops[int(i)])) != msg.split(":")[0]
    ]
