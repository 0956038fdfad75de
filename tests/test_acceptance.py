"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime budget is pinned here.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest

from qhgrass.diagram import GrContext, YoungDiagram, enumerate_diagrams
from qhgrass.exactfield import (
    QQ,
    char_poly,
    distinct_degree_profile,
    is_irreducible,
    prime_field,
)
from qhgrass.degree_zero import (
    charpoly_identity_holds,
    classify,
    closed_form_charpoly,
    closed_form_matrix,
    generates_units,
    is_graded_field,
    mult_matrix,
    orbit_decomposition,
    qh0_basis,
    standard_degree_zero_element,
)
from qhgrass.gelfand_cetlin import critical_point, gc_map, quaternionic_frame, random_frame
from qhgrass.presentation import EvContext, admissible_multisets, ev_map, verify_ideal_vanishing
from qhgrass.qh_core import (
    QhElement,
    format_element,
    parse_element,
    pieri_multiply,
    q_shift,
    quantum_product,
)

from oracles import gc_potential, int_poly, newton_critical_point, zero_divisor_search


def report(number: int, title: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {number}: {title}{suffix}")


def test_criterion_01_pieri_golden_case():
    start = time.perf_counter()
    ctx = GrContext(3, 6)
    a = parse_element(ctx, QQ, "σ[1,1]")
    b = parse_element(ctx, QQ, "σ[3,1]")
    got = format_element(quantum_product(a, b))
    elapsed = time.perf_counter() - start
    assert got == "σ[3,2,1] + q*σ[-]"
    assert elapsed < 1.0
    report(1, "product 3 6 Q σ[1,1] σ[3,1] = σ[3,2,1] + q*σ[-]", f"{elapsed:.3f}s")


def test_criterion_02_power_identity():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 11):
        for k in range(2, n // 2 + 1):  # 2 <= k <= n - k
            ctx = GrContext(k, n)
            for field in (QQ, prime_field(2)):
                acc = QhElement.unit(ctx, field)
                for _ in range(n):
                    acc = pieri_multiply(acc, k)
                assert acc == q_shift(QhElement.unit(ctx, field), k), (k, n, field.label)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "x_k^n = q^k for 2 <= k <= n-k, n <= 10, over Q and GF(2)", f"{checked} cases, {elapsed:.2f}s")


def test_criterion_03_matrix_reproduction():
    for n in (13, 12):
        ctx = GrContext(2, n)
        ring = mult_matrix(standard_degree_zero_element(ctx, QQ), n - 2)
        assert ring == closed_form_matrix(n, QQ), n
    report(3, "degree-zero matrices for n = 13 and n = 12 are entry-exact")


def test_criterion_04_charpoly_identities():
    start = time.perf_counter()
    for n in range(3, 41):
        assert charpoly_identity_holds(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, "x^l pi(-x-1/x) Laurent identities for n = 3..40", f"{elapsed:.2f}s")


def test_criterion_05_equivalence_battery():
    start = time.perf_counter()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    cells = 0
    for n in primes:
        if n < 3:
            continue  # Gr(2,2) is a point and pi is defined for n >= 3 only
        ctx = GrContext(2, n)
        for p in primes:
            if p == n:
                continue
            F = prime_field(p)
            field_test = is_graded_field(ctx, F)
            # pi over Q reduced mod p, not the charpoly over F that is_graded_field takes
            pi = int_poly(F, [int(c) for c in closed_form_charpoly(n).coeffs])
            irreducible = is_irreducible(F, pi)
            units = generates_units(p, n)
            assert field_test.is_field == irreducible == units, (n, p, field_test.routes)
            cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, "field test == pi irreducibility == unit-group criterion", f"{cells} (n,p) cells, {elapsed:.1f}s")


def test_criterion_06_semisimplicity():
    od = orbit_decomposition(10, 7)
    assert od.count == 3 and od.sizes() == [1, 2, 2]
    cells = 0
    for n in range(3, 25):
        for p in (2, 3, 5, 7, 11, 13):
            if gcd(n, p) != 1:
                continue
            F = prime_field(p)
            profile = distinct_degree_profile(F, char_poly(F, closed_form_matrix(n, F)))
            assert sorted(profile) == sorted(orbit_decomposition(n, p).sizes()), (n, p)
            cells += 1
    report(6, "orbits(10,7) = [1,2,2]; factor degrees = orbit sizes, n <= 24, p <= 13", f"{cells} cells")


def test_criterion_07_evaluation_homomorphisms():
    start = time.perf_counter()
    cases = [((2, 5), 11), ((3, 6), 7), ((2, 7), 29)]
    for (k, n), p in cases:
        ctx = GrContext(k, n)
        base = prime_field(p)
        ev = EvContext(ctx, base)
        multisets = admissible_multisets(ev.field, k, n)
        assert len(multisets) == comb(n, k)
        for J in multisets:
            assert verify_ideal_vanishing(ev, J)["all_ok"], (k, n, p, J.to_text())
        rng = random.Random(k * 100 + n)
        diagrams = enumerate_diagrams(ctx)
        for _ in range(100):
            a = _random_element(ctx, base, diagrams, rng)
            b = _random_element(ctx, base, diagrams, rng)
            J = multisets[rng.randrange(len(multisets))]
            lhs = ev_map(ev, J, quantum_product(a, b))
            rhs = ev.field.mul(ev_map(ev, J, a), ev_map(ev, J, b))
            assert lhs == rhs, (k, n, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, "ideal vanishing on all multisets + ev_J multiplicativity, 100 pairs/case", f"{elapsed:.1f}s")


def _random_element(ctx, field, diagrams, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        diagram = diagrams[rng.randrange(len(diagrams))]
        terms[(diagram, rng.randint(-1, 1))] = field.random_element(rng)
    return QhElement(ctx, field, terms)


def test_criterion_08_classifier_table():
    for n in (2, 5, 9, 14):
        for char in (0, 3):
            assert classify(1, n, char).is_graded_field, (1, n, char)
    v = classify(2, 5, 0)
    assert v.is_graded_field and v.diameter.kind == "finite" and v.diameter.bound == 2
    v = classify(2, 7, 0)
    assert v.is_graded_field and v.diameter.bound == (2 * 2 * 5) // 7
    for n in (4, 6, 8, 10, 12):
        for char in (0, 2, 7):
            assert not classify(2, n, char).is_graded_field, (2, n, char)
    for k, n in ((3, 7), (3, 8)):
        for p in (2, 3, 5, 11):
            assert not classify(k, n, p).is_graded_field, (k, n, p)
    assert classify(4, 8, 0).diameter.kind == "infinite"
    assert classify(2, 4, 0).diameter.kind == "infinite"
    report(8, "classifier table: k=1 fields, prime n bounds, even n, k=3 cases, infinite verdicts")


def test_criterion_09_zero_divisor_oracle_agreement():
    start = time.perf_counter()
    cells = 0
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            ctx = GrContext(k, n)
            dim = len(qh0_basis(ctx))
            for p in (2, 3, 5, 7, 11, 13):
                if p**dim > 10**6:
                    continue
                found, _ = zero_divisor_search(ctx, prime_field(p), limit=10**6)
                rule = classify(k, n, p).is_graded_field
                assert rule == (not found), (k, n, p)
                if k >= 2:  # k = 1 takes the rank-one route
                    route = is_graded_field(ctx, prime_field(p)).routes["zero_divisor_search"]
                    assert route is (not found), (k, n, p)
                cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "exhaustive zero-divisor search agrees with the rule verdict", f"{cells} (k,n,p) cells, {elapsed:.1f}s")


def test_criterion_10_gelfand_cetlin():
    for k, n in ((2, 4), (4, 8)):
        ctx = GrContext(k, n)
        for seed in range(100):
            values = gc_map(quaternionic_frame(ctx, seed))
            assert abs(values.value(1, 2) - values.value(2, 1)) < 1e-9, (k, n, seed)
    for k, n in ((2, 4), (2, 5), (3, 6)):
        ctx = GrContext(k, n)
        for seed in range(100):
            values = gc_map(random_frame(ctx, seed))
            assert values.interlacing_violation() < 1e-9, (k, n, seed)
    report(10, "quaternionic equality |z12 - z21| < 1e-9 and interlacing on 100 frames per context")


def test_criterion_11_critical_points():
    start = time.perf_counter()
    _, rep = critical_point(GrContext(1, 2))
    assert rep == {"z": {"1,1": 1.0}, "W": 2.0, "exactCheck": True}
    for k, n in ((2, 4), (2, 5), (3, 6)):
        z = np.array(list(critical_point(GrContext(k, n))[1]["z"].values())).reshape(k, n - k)
        newton = newton_critical_point(k, n, tol=1e-8)[0]
        assert np.max(np.abs(newton - z) / z) < 1e-7, (k, n)
        grad = gc_potential(k, n, z)[1]
        assert np.max(np.abs(grad)) < 1e-12, (k, n)
        h = 1e-6
        for i in range(k):
            for j in range(n - k):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (gc_potential(k, n, zp)[0] - gc_potential(k, n, zm)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) <= 1e-6 * max(1.0, abs(grad[i, j]))
    big = time.perf_counter()
    critical_point(GrContext(8, 16))
    big = time.perf_counter() - big
    assert big < 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        11,
        "critical points: exact check on Gr(1,2), Gr(2,4), Gr(2,5), Gr(3,6), Gr(8,16); Newton to 1e-7, "
        "float gradients < 1e-12, finite differences to 1e-6",
        f"{elapsed:.2f}s, Gr(8,16) {big:.2f}s",
    )
