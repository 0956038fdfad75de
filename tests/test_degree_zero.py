import json
import random
from fractions import Fraction
from math import gcd

import pytest

from qhgrass.diagram import GrContext, YoungDiagram
from qhgrass.exactfield import (
    QQ,
    DegreeLimitError,
    Poly,
    SquareMatrix,
    char_poly,
    distinct_degree_profile,
    is_irreducible,
    make_extension,
    min_poly,
    parse_field,
    poly_gcd,
    prime_field,
)
from qhgrass.degree_zero import (
    _int_matrices,
    _rank_mod_p,
    charpoly_identity_holds,
    classify,
    closed_form_charpoly,
    closed_form_matrix,
    generates_units,
    is_graded_field,
    mult_matrix,
    orbit_decomposition,
    orbit_sizes,
    qh0_basis,
    standard_degree_zero_element,
)
from qhgrass import qh_core
from qhgrass.numberth import is_prime
from qhgrass.qh_core import QhElement, q_shift, special_class

from oracles import (
    SearchBudgetError,
    determinant,
    int_poly,
    per_column_mult_matrix,
    sequential_distinct_degree_parts,
    sympy_is_irreducible_q,
    sympy_rank_mod_p,
    units_from_powers,
    zero_divisor_search,
)


def test_qh0_basis_examples():
    assert [(tuple(d), m) for d, m in qh0_basis(GrContext(2, 5))] == [((), 0), ((3, 2), -1)]
    assert [(tuple(d), m) for d, m in qh0_basis(GrContext(1, 9))] == [((), 0)]
    assert len(qh0_basis(GrContext(2, 13))) == 6  # dim QH^0 = 1 + dim H^n


def test_mult_matrix_unit_is_identity():
    ctx = GrContext(2, 9)
    M = mult_matrix(QhElement.unit(ctx, QQ), 7)
    assert M == SquareMatrix.from_int_rows(QQ, [[int(i == j) for j in range(M.size)] for i in range(M.size)])


def test_mult_matrix_on_an_element_whose_engine_was_dropped():
    """The basis classes are built on the element's engine, so dropping the
    engine table leaves the matrix as it was."""
    e = standard_degree_zero_element(GrContext(2, 7), QQ)
    before = mult_matrix(e, 5)
    qh_core._ENGINES.clear()
    assert mult_matrix(e, 5) == before


def test_mult_matrix_requires_degree_zero():
    ctx = GrContext(2, 5)
    with pytest.raises(ValueError):
        mult_matrix(special_class(ctx, QQ, 1), 3)


def test_paper_matrices_entry_exact():
    for n, corner in ((13, 0), (12, 1)):
        ctx = GrContext(2, n)
        ring = mult_matrix(standard_degree_zero_element(ctx, QQ), n - 2)
        closed = closed_form_matrix(n, QQ)
        assert ring == closed
        size = ring.size
        assert size == 6
        assert ring.rows[0][0] == 1
        assert ring.rows[size - 1][size - 1] == corner
        for i in range(size - 1):
            assert ring.rows[i][i + 1] == -1 and ring.rows[i + 1][i] == -1


def test_variant_element_matrix():
    """The no-unit variant q^(-1) x_2 * sigma_(n-3,1) acts by I - M."""
    ctx = GrContext(2, 13)
    primary = mult_matrix(standard_degree_zero_element(ctx, QQ), 11)
    variant = mult_matrix(QhElement.unit(ctx, QQ) - standard_degree_zero_element(ctx, QQ), 11)
    for i, (row, other) in enumerate(zip(primary.rows, variant.rows, strict=True)):
        assert [a + b for a, b in zip(row, other, strict=True)] == [int(i == j) for j in range(6)]


@pytest.mark.parametrize("n", list(range(5, 22, 2)))
def test_matrix_agreement_odd(n):
    ctx = GrContext(2, n)
    ring = mult_matrix(standard_degree_zero_element(ctx, QQ), n - 2)
    assert ring == closed_form_matrix(n, QQ)


@pytest.mark.parametrize("n", list(range(6, 21, 2)))
def test_matrix_agreement_even(n):
    ctx = GrContext(2, n)
    ring = mult_matrix(standard_degree_zero_element(ctx, QQ), n - 2)
    assert ring == closed_form_matrix(n, QQ)


def test_closed_form_charpoly_examples():
    assert closed_form_charpoly(3).coeffs == (Fraction(1), Fraction(-1))
    assert closed_form_charpoly(5).coeffs == (Fraction(-1), Fraction(-1), Fraction(1))
    assert charpoly_identity_holds(13)
    with pytest.raises(ValueError):
        closed_form_charpoly(2)


@pytest.mark.parametrize("ell", list(range(0, 31)))
def test_recursion_gives_all_ones(ell):
    """R_ell = x^ell pi(-x - 1/x) = 1 + x + ... + x^(2 ell) for n = 2 ell + 1.

    pi is char_poly of the size-ell tridiagonal matrix (+1 in the corner, -1
    off the diagonal), built here rather than by closed_form_matrix. Its
    leading minors obey a three-term recursion, which the substitution turns
    into R_ell = (x^2 + 1) R_(ell-1) - x^2 R_(ell-2); char_poly must agree
    with the all-ones solution. The substitution is done term by term, not
    by charpoly_identity_holds.
    """
    rows = [[0] * ell for _ in range(ell)]
    for i in range(ell - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    if ell:
        rows[0][0] = 1
    pi = char_poly(QQ, SquareMatrix.from_int_rows(QQ, rows))
    # x^ell pi(-x - 1/x) = sum_i c_i (-1)^i (x^2 + 1)^i x^(ell - i)
    r = Poly.zero(QQ)
    power = Poly.one(QQ)
    for i, c in enumerate(pi.coeffs):
        r = r + power * Poly(QQ, [QQ.zero()] * (ell - i) + [c * (-1) ** i])
        power = power * int_poly(QQ, [1, 0, 1])
    assert r == int_poly(QQ, [1] * (2 * ell + 1))


def test_even_charpoly_via_recursion_sum():
    """x^(l+1) pi(-x - 1/x) = R_(l+1) + x R_l = (x + 1)(1 + x + ... + x^(n-1))
    for even n = 2l + 2, where R_l = 1 + x + ... + x^(2l)."""
    for n in (6, 10, 12):
        assert charpoly_identity_holds(n)


def test_generates_units_examples():
    assert generates_units(2, 3) is True
    assert generates_units(3, 7) is True
    # closure of {7, -1} mod 10 hits all of {1, 3, 7, 9}
    assert generates_units(7, 10) is True
    assert units_from_powers(7, 10) == {1, 3, 7, 9}
    assert generates_units(7, 29) is False  # 7 has order 7, with -1 that is 14 < 28
    with pytest.raises(ValueError):
        generates_units(5, 10)


@pytest.mark.parametrize("n,p", [(n, p) for n in range(3, 20) for p in (2, 3, 5, 7) if gcd(n, p) == 1])
def test_generates_units_against_oracle(n, p):
    units = {a for a in range(1, n) if gcd(a, n) == 1}
    assert generates_units(p, n) == (units_from_powers(p, n) == units)


def test_orbit_examples():
    od = orbit_decomposition(10, 7)
    assert od.count == 3
    assert od.orbits == (((5, 5),), ((1, 9), (3, 7)), ((2, 8), (4, 6)))
    assert od.sizes() == [1, 2, 2]
    assert orbit_decomposition(4, 3).count == 2
    # transitivity when {p,-1} generates and n is prime
    for n, p in ((13, 2), (5, 2), (7, 3)):
        assert generates_units(p, n)
        assert orbit_decomposition(n, p).count == 1
    with pytest.raises(ValueError):
        orbit_decomposition(10, 5)


def test_orbits_partition_pairs():
    for n, p in ((12, 5), (15, 2), (9, 2), (24, 7)):
        od = orbit_decomposition(n, p)
        seen = [pair for orbit in od.orbits for pair in orbit]
        assert sorted(seen) == [(a, n - a) for a in range(1, n // 2 + 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_orbit_sizes_match_enumerated_orbits(p):
    for n in range(2, 401):
        if gcd(n, p) == 1:
            assert orbit_sizes(n, p) == orbit_decomposition(n, p).sizes(), (n, p)


@pytest.mark.parametrize("n", [12, 36, 60, 360])
def test_orbit_sizes_on_many_divisors(n):
    """Every prime below 2n coprime to n: p = 1 and p = -1 mod some divisor
    m > 2 both occur (orbits of size 1; the halving rule) next to larger orders."""
    primes = [p for p in range(2, 2 * n) if all(p % d for d in range(2, p)) and gcd(n, p) == 1]
    divisors = [m for m in range(3, n + 1) if n % m == 0]
    residues = set()
    for p in primes:
        sizes = orbit_sizes(n, p)
        assert sizes == orbit_decomposition(n, p).sizes(), (n, p)
        assert sum(sizes) == n // 2  # every pair {a, -a}, {n/2, n/2} included
        residues |= {1 if p % m == 1 else -1 for m in divisors if p % m in (1, m - 1)}
    assert residues == {1, -1}


def test_orbit_sizes_examples():
    assert orbit_sizes(10, 7) == [1, 2, 2]
    assert orbit_sizes(1, 3) == [] and orbit_sizes(2, 3) == [1]
    with pytest.raises(ValueError):
        orbit_sizes(10, 5)


@pytest.mark.parametrize("n,p", [(-5, 2), (0, 1), (0, 3)])
def test_orbit_functions_reject_n_below_one(n, p):
    """The enumeration used to answer "0 orbits" here and orbit_sizes to fail
    inside factorize; both now raise the same ValueError."""
    for orbits in (orbit_decomposition, orbit_sizes):
        with pytest.raises(ValueError, match="n must be at least 1"):
            orbits(n, p)
    assert orbit_decomposition(1, p).count == 0 and orbit_sizes(1, p) == []


def test_classify_verdict_is_the_unit_group_criterion():
    """For prime n and prime p != n the k = 2 verdict is decided by one orbit,
    which must agree with generates_units, and its reason says which."""
    primes = [m for m in range(2, 400) if is_prime(m)]
    for n in primes[2:]:  # Gr(2, n) has k = 2 from n = 5
        for p in primes[:10]:
            if p == n:
                continue
            verdict = classify(2, n, p)
            assert verdict.is_graded_field == generates_units(p, n), (n, p)
            assert (verdict.orbit_count == 1) == verdict.is_graded_field, (n, p)
            assert ("does not generate" in verdict.reasons[0]) != verdict.is_graded_field, (n, p)


def test_classify_large_n_against_enumerated_orbits():
    verdict = classify(2, 100003, 3)
    od = orbit_decomposition(100003, 3)
    assert verdict.field_dims == od.sizes()
    assert verdict.orbit_count == od.count


@pytest.mark.parametrize("n", range(3, 25))
def test_orbit_factor_agreement(n):
    """Irreducible factor degrees of pi over GF(p) equal the orbit sizes."""
    for p in (2, 3, 5, 7, 11, 13):
        if gcd(n, p) != 1:
            continue
        F = prime_field(p)
        profile = distinct_degree_profile(F, char_poly(F, closed_form_matrix(n, F)))
        od = orbit_decomposition(n, p)
        assert sorted(profile) == sorted(od.sizes()), (n, p)


@pytest.mark.parametrize("n", range(25, 212, 2))
def test_orbit_factor_agreement_past_the_first_split_block(n):
    """Irreducible factor degrees of pi over GF(p) equal the Frobenius orbit
    sizes for odd n up to 211, where deg pi = (n - 1) / 2 reaches up to 105, so
    the blocked split runs past its first blocks of SPLIT_BLOCK degrees."""
    for p in (2, 3, 5, 7):
        if gcd(n, p) != 1:
            continue
        F = prime_field(p)
        profile = distinct_degree_profile(F, char_poly(F, closed_form_matrix(n, F)))
        assert profile == sorted(orbit_sizes(n, p)), (n, p)


def test_split_of_pi_against_the_sequential_split():
    """On a seeded grid of pi over GF(2), GF(3), GF(5), GF(7) and GF(4),
    is_irreducible and distinct_degree_profile agree with the per-degree split."""
    rng = random.Random(19)
    fields = [prime_field(p) for p in (2, 3, 5, 7)] + [make_extension(2, 2)]
    for n in sorted(rng.sample(range(5, 132, 2), 12)):
        for F in fields:
            if gcd(n, F.characteristic) != 1:
                continue
            pi = char_poly(F, closed_form_matrix(n, F)).monic()
            parts = sequential_distinct_degree_parts(F, pi)
            assert distinct_degree_profile(F, pi) == [d for d, h in parts for _ in range(int(h.degree) // d)]
            assert is_irreducible(F, pi) is (parts[0][0] == pi.degree), (n, F)


@pytest.mark.parametrize("n", range(3, 25))
def test_distinct_roots_guard(n):
    """gcd(pi, pi') = 1 over GF(p) whenever gcd(n, p) = 1."""
    for p in (2, 3, 5, 7):
        if gcd(n, p) != 1:
            continue
        F = prime_field(p)
        pi = char_poly(F, closed_form_matrix(n, F))
        assert poly_gcd(pi, pi.derivative()).degree == 0, (n, p)


def test_min_poly_equals_char_poly_for_irreducible_case():
    F2 = prime_field(2)
    M = closed_form_matrix(13, F2)
    cp = char_poly(F2, M)
    assert is_irreducible(F2, cp)
    assert min_poly(F2, M) == cp.monic()


def test_is_graded_field_examples():
    assert is_graded_field(GrContext(1, 6), prime_field(3)).is_field
    assert is_graded_field(GrContext(1, 6), QQ).is_field
    check = is_graded_field(GrContext(2, 13), prime_field(2))
    assert check.is_field and check.routes["charpoly_irreducible"]
    check = is_graded_field(GrContext(2, 10), prime_field(7))
    assert not check.is_field and check.routes["zero_divisor_search"] is False
    # rationals: prime n yes, composite odd n no (the charpoly factors)
    assert is_graded_field(GrContext(2, 7), QQ).is_field
    assert not is_graded_field(GrContext(2, 9), QQ).is_field
    assert not is_graded_field(GrContext(2, 15), QQ).is_field


def test_is_graded_field_rational_zassenhaus_case():
    """n = 25: pi factors as deg 2 x deg 10 with no rational root."""
    check = is_graded_field(GrContext(2, 25), QQ)
    assert not check.is_field
    assert check.routes["charpoly_irreducible"] is False


def test_rational_charpoly_route_against_sympy():
    """Over Q the route is the Laurent identity plus primality of n; sympy
    factors pi itself. Odd n up to 129 covers the prime powers 9, 25, 27,
    49, 81, 121 and 125 and deg pi = 64, the top of the bound. Gr(2, 3) is
    its own dual Gr(1, 3) and takes the rank-one route instead."""
    assert "charpoly_irreducible" not in is_graded_field(GrContext(2, 3), QQ).routes
    seen = set()
    for n in range(5, 130, 2):
        route = is_graded_field(GrContext(2, n), QQ).routes["charpoly_irreducible"]
        assert route == sympy_is_irreducible_q(closed_form_charpoly(n).coeffs), n
        seen.add(route)
    assert seen == {True, False}


def test_rational_charpoly_route_keeps_the_degree_limit(monkeypatch):
    """Gr(2, 131) over Q (deg pi = 65) raises DegreeLimitError before pi is built."""
    import qhgrass.degree_zero as dz

    def unreachable(n):
        raise AssertionError("pi built above the degree limit")

    monkeypatch.setattr(dz, "closed_form_charpoly", unreachable)
    with pytest.raises(DegreeLimitError, match="degree 65 above the supported bound 64"):
        is_graded_field(GrContext(2, 131), QQ)


def test_is_graded_field_n_equals_p():
    check = is_graded_field(GrContext(2, 5), prime_field(5))
    assert not check.is_field
    assert any("n = p" in note for note in check.notes)


def test_is_graded_field_p_divides_composite_n():
    # n = 9, p = 3: charpoly route is skipped, the oracle decides
    check = is_graded_field(GrContext(2, 9), prime_field(3))
    assert not check.is_field
    assert "zero_divisor_search" in check.routes


def test_is_graded_field_extension_field():
    """Gr(2,13) is a graded field over GF(2) but not over GF(4)."""
    assert is_graded_field(GrContext(2, 13), prime_field(2)).is_field
    check4 = is_graded_field(GrContext(2, 13), make_extension(2, 2), brute_limit=10**8)
    assert not check4.is_field
    assert check4.routes["charpoly_irreducible"] is False


def test_is_graded_field_dual_context():
    assert is_graded_field(GrContext(3, 5), prime_field(2)).is_field == is_graded_field(
        GrContext(2, 5), prime_field(2)
    ).is_field


N_EQUALS_P = "n = p excluded: x^n - 1 = (x-1)^n collapses the roots"
P_DIVIDES_N = "p | n composite: charpoly route skipped, oracle only"


GRADED_FIELD_BRANCHES = [
    (1, 6, "GF(3)", 10**6, True, [("rule", True)], ["rank-one degree pieces: k = 1 (or its dual)"]),
    (3, 3, "GF(2)", 10**6, True, [("rule", True)], ["k = n: Gr(n, n) is a point"]),
    (2, 7, "GF(2^2)", 10**6, True,
     [("charpoly_irreducible", True), ("units_closure", True), ("zero_divisor_search", True)], []),
    (2, 13, "GF(2)", 10**6, True,
     [("rule", True), ("charpoly_irreducible", True), ("zero_divisor_search", True)], []),
    (2, 5, "GF(5)", 10**6, False, [("rule", False), ("zero_divisor_search", False)], [N_EQUALS_P]),
    (2, 9, "GF(3)", 10**6, False, [("rule", False), ("zero_divisor_search", False)], [P_DIVIDES_N]),
    (2, 10, "GF(7)", 10**6, False, [("rule", False), ("zero_divisor_search", False)], []),
    (2, 61, "GF(2^2)", 10**6, False, [("charpoly_irreducible", False), ("units_closure", False)], []),
    (2, 12, "GF(2^2)", 4000, False, [], ["rule-only"]),
    (3, 7, "Q", 10**6, False, [("rule", False)], ["rule-only"]),
    (2, 9, "Q", 10**6, False, [("rule", False), ("charpoly_irreducible", False)], []),
    (5, 7, "GF(2)", 10**6, True,
     [("rule", True), ("charpoly_irreducible", True), ("zero_divisor_search", True)], []),
    (2, 25, "GF(5^2)", 10**6, False, [], [P_DIVIDES_N, "rule-only"]),
    (3, 6, "GF(2)", 10**6, False, [("rule", False), ("zero_divisor_search", False)], []),
]


@pytest.mark.parametrize(
    "k,n,spec,limit,is_field,routes,notes",
    GRADED_FIELD_BRANCHES,
    ids=[f"Gr({k},{n})-{spec}" for k, n, spec, *_ in GRADED_FIELD_BRANCHES],
)
def test_is_graded_field_every_branch(k, n, spec, limit, is_field, routes, notes):
    """Verdict, routes in insertion order, and notes; perfbench/digests.json
    pins the routes of is_graded_field, key order included."""
    check = is_graded_field(GrContext(k, n), parse_field(spec), brute_limit=limit)
    assert (check.is_field, list(check.routes.items()), check.notes) == (is_field, routes, notes)


def test_zero_divisor_search_small():
    found, witness = zero_divisor_search(GrContext(2, 5), prime_field(2))
    assert not found and witness is None
    found, witness = zero_divisor_search(GrContext(2, 10), prime_field(7))
    assert found and witness is not None
    with pytest.raises(SearchBudgetError):
        zero_divisor_search(GrContext(2, 13), prime_field(101), limit=10**6)


def test_zero_divisor_witness_is_genuine():
    """Each reported witness is a nonzero class whose multiplication matrix,
    built by mult_matrix, has determinant zero (oracles.determinant, not the
    search's own singularity test)."""
    for k, n, spec in [(2, 10, "GF(7)"), (2, 13, "GF(2^2)"), (2, 13, "GF(3)"), (3, 6, "GF(2)")]:
        ctx, F = GrContext(k, n), parse_field(spec)
        found, witness = zero_divisor_search(ctx, F)
        assert found, (k, n, spec)
        element = QhElement(ctx, F, dict(zip([(d, m) for d, m in qh0_basis(ctx)], witness)))
        assert element.terms  # nonzero class
        assert F.is_zero(determinant(mult_matrix(element, 0))), (k, n, spec)


@pytest.mark.parametrize("spec", ["Q", "GF(2)", "GF(3)", "GF(2^2)"])
def test_integer_qh0_matrices_match_mult_matrix(spec):
    """The sparse integer builder against the per-column oracle (one
    quantum_product per basis class, read through terms). The search's basis
    matrices, mapped into F, are the oracle's matrix of each basis class. So
    is mult_matrix, and mult_matrix of a seeded degree-0 combination of them
    on every graded piece, degrees 0..n-1, matches the oracle too."""
    F = parse_field(spec)
    rng = random.Random(f"builder {spec}")
    boxes = [(2, n) for n in range(4, 14)] + [(3, n) for n in range(6, 10)]
    for k, n in boxes:
        ctx = GrContext(k, n)
        basis = qh0_basis(ctx)
        for (d, m), B in zip(basis, _int_matrices(ctx, basis, basis), strict=True):
            element = QhElement.schubert(ctx, F, d, m)
            want = per_column_mult_matrix(element, 0)
            got = tuple(tuple(F.from_int(B.get((i, j), 0)) for j in range(len(basis))) for i in range(len(basis)))
            assert got == want, (k, n, d, m)
            assert mult_matrix(element, 0).rows == want, (k, n, d, m)
        element = QhElement(ctx, F, {key: F.random_element(rng) for key in basis})
        for degree in range(n):
            assert mult_matrix(element, degree).rows == per_column_mult_matrix(element, degree), (k, n, degree)


def test_classify_examples():
    v = classify(2, 5, 0)
    assert v.is_graded_field and v.diameter.kind == "finite" and v.diameter.bound == 2
    v = classify(2, 7, 0)
    assert v.is_graded_field and v.diameter.bound == (2 * 2 * 5) // 7
    v = classify(2, 10, 7)
    assert not v.is_graded_field
    assert v.diameter.kind == "unknown"
    assert v.orbit_count == 3 and v.field_dims == [1, 2, 2]
    v = classify(4, 8, 0)
    assert not v.is_graded_field and v.diameter.kind == "infinite"
    v = classify(2, 4, 0)
    assert v.diameter.kind == "infinite"
    v = classify(1, 17, 13)
    assert v.is_graded_field and v.diameter.kind == "finite"
    v = classify(3, 7, 5)
    assert not v.is_graded_field
    v = classify(2, 5, 5)
    assert not v.is_graded_field  # n = p excluded
    with pytest.raises(ValueError):
        classify(2, 5, 4)
    with pytest.raises(ValueError):
        classify(0, 5, 2)


@pytest.mark.parametrize("k,c", [(1, 0), (2, 7), (3, 0), (5, 2)])
def test_classify_a_point(k, c):
    """Gr(k, k) is a point: one reason for the verdict, and no duality step
    to Gr(0, k) or rank-one rule for k = 1 in front of it."""
    v = classify(k, k, c)
    assert v.is_graded_field and v.diameter.kind == "finite" and v.diameter.bound == 0
    assert v.reasons == [
        f"k = n: Gr({k},{k}) is a point, so QH^0 = F",
        "graded field: spectral diameter bounded by 2k(n-k)/n rounded down",
    ]
    assert v.field_dims is None and v.orbit_count is None


def test_classify_duality_normalization():
    v = classify(3, 5, 0)  # Gr(3,5) = Gr(2,5)
    assert v.is_graded_field and v.diameter.bound == 2
    assert any("dual" in r.lower() or "n-k" in r for r in v.reasons)


def test_classify_json_schema():
    payload = classify(2, 10, 7).to_json_dict()
    data = json.loads(json.dumps(payload))
    assert set(data) >= {"k", "n", "char", "isGradedField", "diameter", "reasons"}
    assert data["diameter"]["kind"] in ("finite", "infinite", "unknown")
    assert data["orbitCount"] == 3
    assert data["fieldDims"] == [1, 2, 2]


def test_rule_consistency_routes_never_disagree():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(3, 14)
        k = rng.randint(1, n)
        p = rng.choice([2, 3, 5, 7])
        is_graded_field(GrContext(k, n), prime_field(p), brute_limit=4000)


# (field, n) -> the witness zero_divisor_search returned for Gr(2, n) before
# its candidates were built from prefix sums (None: no zero divisor); the
# search must still find the same first witness in the same order
_ZERO_DIVISOR_WITNESSES = {
    ("GF(2)", 5): None,
    ("GF(2)", 6): [1, 0, 1],
    ("GF(2)", 7): None,
    ("GF(2)", 8): [1, 0, 0, 1],
    ("GF(2)", 9): [1, 0, 0, 1],
    ("GF(2)", 10): [1, 0, 0, 0, 1],
    ("GF(2)", 11): None,
    ("GF(2)", 12): [1, 0, 0, 0, 0, 1],
    ("GF(2)", 13): None,
    ("GF(3)", 5): None,
    ("GF(3)", 6): [1, 0, 1],
    ("GF(3)", 7): None,
    ("GF(3)", 8): [1, 0, 0, 1],
    ("GF(3)", 9): [1, 0, 0, 2],
    ("GF(3)", 10): [1, 0, 0, 0, 1],
    ("GF(3)", 11): None,
    ("GF(3)", 12): [1, 0, 0, 0, 0, 1],
    ("GF(3)", 13): [1, 0, 0, 0, 1, 1],
    ("GF(5)", 5): [1, 3],
    ("GF(5)", 6): [1, 0, 1],
    ("GF(5)", 7): None,
    ("GF(5)", 8): [1, 0, 0, 1],
    ("GF(5)", 9): [1, 0, 0, 4],
    ("GF(5)", 10): [1, 0, 0, 0, 1],
    ("GF(5)", 11): None,
    ("GF(5)", 12): [1, 0, 0, 0, 0, 1],
    ("GF(5)", 13): [1, 0, 0, 0, 2, 4],
    ("GF(7)", 5): None,
    ("GF(7)", 6): [1, 0, 1],
    ("GF(7)", 7): [1, 0, 4],
    ("GF(7)", 8): [1, 0, 0, 1],
    ("GF(7)", 9): [1, 0, 0, 6],
    ("GF(7)", 10): [1, 0, 0, 0, 1],
    ("GF(7)", 11): None,
    ("GF(7)", 12): [1, 0, 0, 0, 0, 1],
    ("GF(7)", 13): None,
    ("GF(2^2)", 5): [(1, 0), (0, 1)],
    ("GF(2^2)", 6): [(1, 0), (0, 0), (1, 0)],
    ("GF(2^2)", 7): None,
    ("GF(2^2)", 8): [(1, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(2^2)", 9): [(1, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(2^2)", 10): [(1, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(2^2)", 11): None,
    ("GF(2^2)", 12): [(1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(2^2)", 13): [(1, 0), (0, 0), (0, 0), (0, 1), (0, 1), (1, 1)],
    ("GF(3^2)", 5): [(1, 0), (2, 1)],
    ("GF(3^2)", 6): [(1, 0), (0, 0), (1, 0)],
    ("GF(3^2)", 7): None,
    ("GF(3^2)", 8): [(1, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(3^2)", 9): [(1, 0), (0, 0), (0, 0), (2, 0)],
    ("GF(3^2)", 10): [(1, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(3^2)", 11): None,
    ("GF(3^2)", 12): [(1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("GF(3^2)", 13): [(1, 0), (0, 0), (0, 0), (0, 0), (1, 0), (1, 0)],
}


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)", "GF(3^2)"])
def test_zero_divisor_search_witnesses_recorded(spec):
    F = parse_field(spec)
    for n in range(5, 14):
        found, witness = zero_divisor_search(GrContext(2, n), F)
        want = _ZERO_DIVISOR_WITNESSES[(spec, n)]
        assert (found, witness) == (want is not None, want), (spec, n)
        assert is_graded_field(GrContext(2, n), F).routes["zero_divisor_search"] is (not found), (spec, n)


def test_rank_mod_p_against_sympy():
    """The Frobenius test's rank kernel against sympy over GF(2), GF(3) and
    GF(7): seeded products of an s x r and an r x s int matrix, of rank at
    most r, with entries of either sign and, in every third, a zero first
    column, so that a column without a pivot is dropped."""
    rng = random.Random(3301)
    seen = set()
    for p in (2, 3, 7):
        for trial in range(60):
            s = rng.randint(1, 7)
            r = rng.randint(1, s)
            a = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(s)]
            b = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(r)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            if trial % 3 == 0:
                rows = [[0] + row[1:] for row in rows]
            want = sympy_rank_mod_p(rows, p)
            assert _rank_mod_p(p, rows) == want, (p, rows)
            seen.add(want == s)
    assert seen == {True, False}


def test_zero_divisor_route_against_the_search_on_extension_fields():
    """The route decides QH^0 over GF(p^m) by the Frobenius matrix over GF(p)
    and gcd(dim, m); the exhaustive search enumerates QH^0 over GF(p^m)
    itself. Every k with min(k, n - k) >= 2 and n <= 13, wherever
    |F|^dim <= 10^6, which takes in Gr(3, 6), Gr(3, 7) and Gr(3, 8) and their
    duals."""
    seen, big_k = set(), 0
    for spec in ["GF(2^2)", "GF(2^3)", "GF(3^2)", "GF(5^2)"]:
        F = parse_field(spec)
        for n in range(4, 14):
            for k in range(2, n - 1):
                ctx = GrContext(k, n)
                if F.order ** len(qh0_basis(ctx)) > 10**6:
                    continue
                found, _ = zero_divisor_search(ctx, F)
                route = is_graded_field(ctx, F).routes["zero_divisor_search"]
                assert route is (not found), (k, n, spec)
                seen.add(route)
                big_k += min(k, n - k) >= 3
    assert seen == {True, False} and big_k == 12


@pytest.mark.parametrize("spec", ["GF(2^2)", "GF(2^3)", "GF(3^2)", "GF(5^2)"])
def test_extension_charpoly_route_against_rabin_over_the_extension(spec):
    """Over GF(p^m) the route tests pi over GF(p) and the gcd of its degree
    with m; the oracle builds pi over GF(p^m) and tests its irreducibility
    there, in extension-field arithmetic."""
    F = parse_field(spec)
    seen = set()
    for n in range(5, 32, 2):
        if n % F.characteristic == 0:
            continue
        check = is_graded_field(GrContext(2, n), F, brute_limit=0)
        want = is_irreducible(F, char_poly(F, closed_form_matrix(n, F)))
        assert check.routes["charpoly_irreducible"] == want, (spec, n)
        seen.add(want)
    assert seen == {True, False}


def test_charpoly_identity_fails_for_a_perturbed_pi(monkeypatch):
    """A non-integer or a changed integer coefficient of pi breaks the
    identity, and the rational route of is_graded_field, which rests on it,
    raises for prime and composite n alike."""
    import qhgrass.degree_zero as dz

    for n in (13, 15):
        pi = closed_form_charpoly(n)
        for delta in (Fraction(1, 2), Fraction(1)):
            bent = Poly(QQ, (pi.coeffs[0] + delta,) + pi.coeffs[1:])
            monkeypatch.setattr(dz, "closed_form_charpoly", lambda n, bent=bent: bent)
            assert not charpoly_identity_holds(n)
            with pytest.raises(RuntimeError, match="Laurent identity"):
                is_graded_field(GrContext(2, n), QQ)
        monkeypatch.undo()
        assert charpoly_identity_holds(n)
