import random
from fractions import Fraction
from math import comb

import pytest

from qhgrass.diagram import GrContext, YoungDiagram, enumerate_diagrams
from qhgrass.exactfield import QQ, ExtensionField, cyclotomic_field, make_extension, prime_field
from qhgrass.presentation import (
    AdmissibleMultiset,
    EvContext,
    _complete_upto,
    _elementary_upto,
    admissible_multisets,
    ev_map,
    verify_ideal_vanishing,
)
from qhgrass.qh_core import (
    QhElement,
    format_element as qc_text,
    giambelli_expand,
    q_shift,
    quantum_product,
    special_class,
)

from oracles import in_zeta_subfield, naive_complete, naive_elementary


def frac(*values):
    return [Fraction(v) for v in values]


def test_elementary_examples():
    assert _elementary_upto(QQ, frac(5, 7, 9), 0) == [1]
    assert _elementary_upto(QQ, frac(1, 2, 3), 3) == [1, 6, 11, 6]
    assert _elementary_upto(QQ, frac(1, 2), 3) == [1, 3, 2, 0]  # e_3 of two values is 0


def test_complete_examples():
    assert _complete_upto(QQ, _elementary_upto(QQ, frac(4, 4), 2), 0) == [1]
    assert _complete_upto(QQ, _elementary_upto(QQ, frac(1, 2), 2), 2) == [1, 3, 7]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symmetric_functions_against_enumeration(k):
    rng = random.Random(k)
    values = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
    es = _elementary_upto(QQ, values, k)
    assert es == [naive_elementary(QQ, values, i) for i in range(k + 1)]
    assert _complete_upto(QQ, es, 5) == [naive_complete(QQ, values, i) for i in range(6)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generating_identity_eh(k):
    """E(-t)H(t) = 1 up to degree 12, checked at random rational points."""
    rng = random.Random(10 + k)
    for _ in range(20):
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
        es = _elementary_upto(QQ, values, k)
        hs = _complete_upto(QQ, es, 12)
        for d in range(1, 13):
            total = Fraction(0)
            for j in range(0, min(d, k) + 1):
                total += (-1) ** j * es[j] * hs[d - j]
            assert total == 0, (values, d)


@pytest.mark.parametrize("r,k", [(2, 2), (3, 3), (4, 4), (5, 3), (4, 5)])
def test_y_polynomial_against_sympy_determinant(r, k):
    """Y_r = det(x_{1+j-i}) with x_0 = 1 and x_m = 0 for m > k or m < 0, the
    Giambelli expansion of the one-row class sigma_(r) in Gr(k, k + r)."""
    import sympy

    xs = sympy.symbols(f"x1:{k + 1}")

    def entry(i, j):
        m = 1 + j - i
        if m == 0:
            return sympy.Integer(1)
        if m < 0 or m > k:
            return sympy.Integer(0)
        return xs[m - 1]

    M = sympy.Matrix(r, r, lambda i, j: entry(i, j))
    expected = sympy.expand(M.det())
    mine = sympy.Integer(0)
    for exps, c in giambelli_expand(GrContext(k, k + r), YoungDiagram((r,))).items():
        term = sympy.Integer(c)
        for i, e in enumerate(exps):
            term *= xs[i] ** e
        mine += term
    assert sympy.expand(mine - expected) == 0


def test_vieta_full_root_set():
    """sum_i e_i(all n-th roots)(-t)^i = 1 - t^n coefficientwise."""
    cases = [
        (prime_field(11), 5),
        (prime_field(11), 10),
        (prime_field(13), 12),
        (cyclotomic_field(7), 7),
        (cyclotomic_field(12), 12),
    ]
    from qhgrass.exactfield import nth_roots_of_unity

    for F, n in cases:
        roots = nth_roots_of_unity(F, n)
        for i, e in enumerate(_elementary_upto(F, roots, n)):
            if i == 0:
                assert e == F.one()
            elif i < n:
                assert F.is_zero(e), (F.label, n, i)
            else:
                # (-1)^n e_n = -1, i.e. the t^n coefficient of prod(1 - zeta t) is -1
                want = F.neg(F.one()) if n % 2 == 0 else F.one()
                assert e == want


def test_admissible_multisets_counts():
    # characteristic 0: plain subsets
    K = cyclotomic_field(5)
    assert len(admissible_multisets(K, 2, 5)) == comb(5, 2)
    assert len(admissible_multisets(K, 5, 5)) == 1
    F7 = prime_field(7)
    got = admissible_multisets(F7, 1, 3)
    assert [m.roots for m in got] == [(1,), (2,), (4,)]
    assert [m.to_text() for m in got] == ["[0]", "[1]", "[2]"]
    # p | n: the distinct roots collapse to m-th roots with multiplicity cap p^d
    F2 = prime_field(2)
    got = admissible_multisets(F2, 2, 4)  # n = 4 = 2^2, m = 1, cap 4
    assert len(got) == 1 and got[0].indices == (0, 0)
    F3 = prime_field(3)
    got = admissible_multisets(F3, 2, 6)  # n = 6 = 3 * 2: two distinct roots, cap 3
    assert {m.indices for m in got} == {(0, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "spec,k,n",
    [
        ("Q", 3, 7),
        ("Q", 4, 8),
        ("GF(7)", 2, 6),
        ("GF(2)", 3, 8),
        ("GF(3)", 3, 9),
        ("GF(2)", 2, 6),
        ("GF(3)", 4, 6),
    ],
)
def test_admissible_multisets_against_filtered_multisets(spec, k, n):
    """The multisets are those of combinations_with_replacement over the
    m = n / p^d distinct roots whose multiplicities stay at most p^d, in
    that order; for p not dividing n that is combinations itself."""
    import itertools

    F = QQ if spec == "Q" else prime_field(int(spec[3:-1]))
    K = EvContext(GrContext(k, n), F).field
    p = F.characteristic
    cap, m = 1, n
    while p and m % p == 0:
        cap, m = cap * p, m // p
    want = [
        c
        for c in itertools.combinations_with_replacement(range(m), k)
        if max(c.count(i) for i in c) <= cap
    ]
    got = admissible_multisets(K, k, n)
    assert [J.indices for J in got] == want
    assert all(len(set(J.roots)) == len(set(J.indices)) for J in got)


def test_ideal_vanishing_builds_no_powers_beyond_x():
    """verify_ideal_vanishing keeps x_i^0, x_i per multiset, in integer
    coordinates; the first ev_map at J grows J's rows to x_i^(n-k) in place."""
    ctx = GrContext(3, 7)
    for base in (prime_field(29), QQ):
        ev = EvContext(ctx, base)
        K = ev.field

        def element(coords):
            return K._drop_ints({0: coords}, 1).get(0, K.zero())

        multisets = admissible_multisets(K, 3, 7)
        for J in multisets:
            assert verify_ideal_vanishing(ev, J)["all_ok"]
        assert {len(row) for rows in ev._powers.values() for row in rows} == {2}
        J = multisets[0]
        rows = ev._powers[J.roots]
        value = ev_map(ev, J, special_class(ctx, base, 2))
        assert ev._powers[J.roots] is rows
        assert [len(row) for row in rows] == [ctx.cols + 1] * 3
        assert value == element(rows[1][1])
        assert all(
            element(row[e]) == K.pow(element(row[1]), e) for row in rows for e in range(ctx.cols + 1)
        )
        assert verify_ideal_vanishing(ev, J)["all_ok"]


def test_ev_context_examples():
    ev = EvContext(GrContext(2, 5), prime_field(11))
    assert ev.field.order == 11
    assert ev.field.pow(ev.xi, 5) == 10  # xi^5 = -1
    ev36 = EvContext(GrContext(3, 6), prime_field(7))
    assert ev36.xi == 1  # odd k: xi^n = 1 admits the trivial choice
    ev0 = EvContext(GrContext(2, 5), QQ)
    assert ev0.field.label == "Q(zeta10)"
    assert ev0.field.pow(ev0.xi, 5) == ev0.field.neg(ev0.field.one())


def test_ev_map_unit_and_q():
    ctx = GrContext(3, 6)
    ev = EvContext(ctx, prime_field(7))
    J = admissible_multisets(ev.field, 3, 6)[0]
    unit = QhElement.unit(ctx, prime_field(7))
    assert ev_map(ev, J, unit) == ev.field.one()
    assert ev_map(ev, J, q_shift(unit, 1)) == ev.field.one()  # q -> 1


def test_ev_multiplicative_on_worked_example():
    ctx = GrContext(3, 6)
    F7 = prime_field(7)
    ev = EvContext(ctx, F7)
    x2 = special_class(ctx, F7, 2)
    s31 = QhElement.schubert(ctx, F7, YoungDiagram((3, 1)))
    product = quantum_product(x2, s31)
    for J in admissible_multisets(ev.field, 3, 6):
        assert ev_map(ev, J, product) == ev.field.mul(
            ev_map(ev, J, x2), ev_map(ev, J, s31)
        )


def test_ideal_vanishing_gr25_gf11_all_multisets():
    ev = EvContext(GrContext(2, 5), prime_field(11))
    multisets = admissible_multisets(ev.field, 2, 5)
    assert len(multisets) == 10
    for J in multisets:
        report = verify_ideal_vanishing(ev, J)
        assert report["all_ok"], report


def test_ideal_vanishing_k1_and_char0():
    # k = 1: single generator h_n + (-1) = 0 trivially
    ev = EvContext(GrContext(1, 4), QQ)
    for J in admissible_multisets(ev.field, 1, 4):
        assert verify_ideal_vanishing(ev, J)["all_ok"]
    # exact cyclotomic arithmetic for Gr(3,6)
    ev36 = EvContext(GrContext(3, 6), QQ)
    J = admissible_multisets(ev36.field, 3, 6)[3]
    assert verify_ideal_vanishing(ev36, J)["all_ok"]


def test_ideal_vanishing_p_divides_n():
    """n = p * m: the multiplicity-capped multisets still kill the ideal."""
    ev = EvContext(GrContext(2, 6), prime_field(3))
    multisets = admissible_multisets(ev.field, 2, 6)
    for J in multisets:
        assert verify_ideal_vanishing(ev, J)["all_ok"], J.to_text()


def test_degree_zero_realness():
    """Degree-0 classes evaluate inside F(zeta_n) (Frobenius-fixed subfield)."""
    ctx = GrContext(2, 8)
    F3 = prime_field(3)
    ev = EvContext(ctx, F3)
    assert ev.field.order == 81  # splitting field of x^16 - 1 over GF(3)
    from qhgrass.degree_zero import qh0_basis

    rng = random.Random(3)
    multisets = admissible_multisets(ev.field, 2, 8)
    for _ in range(10):
        terms = {}
        for diagram, m in qh0_basis(ctx):
            terms[(diagram, m)] = F3.random_element(rng)
        element = QhElement(ctx, F3, terms)
        J = multisets[rng.randrange(len(multisets))]
        assert in_zeta_subfield(ev, ev_map(ev, J, element))


@pytest.mark.parametrize("n", [6, 8])
def test_degree_zero_classes_over_q_lie_in_zeta_n_subfield(n):
    """Over Q, Gr(2, n) evaluates into Q(zeta_2n); degree-0 classes land in Q(zeta_n)."""
    from qhgrass.degree_zero import qh0_basis

    ctx = GrContext(2, n)
    ev = EvContext(ctx, QQ)
    assert ev.field.cyclotomic_order == 2 * n
    rng = random.Random(n)
    multisets = admissible_multisets(ev.field, 2, n)
    for _ in range(5):
        terms = {(diagram, m): Fraction(rng.randint(-3, 3)) for diagram, m in qh0_basis(ctx)}
        J = multisets[rng.randrange(len(multisets))]
        assert in_zeta_subfield(ev, ev_map(ev, J, QhElement(ctx, QQ, terms)))


def test_zeta_16_is_not_in_the_zeta_8_subfield():
    ev = EvContext(GrContext(2, 8), QQ)
    K = ev.field
    zeta16 = K.gen()
    assert not in_zeta_subfield(ev, zeta16)
    assert in_zeta_subfield(ev, K.mul(zeta16, zeta16))


def test_full_product_table_separated_by_evaluations():
    """Complete certification of the structure constants for Gr(2,5).

    At q = 1 over characteristic 0 the ring is semisimple and the joint
    evaluation at all C(n,k) admissible multisets is injective, so checking
    multiplicativity on every pair of Schubert classes at every multiset
    would expose any wrong structure constant.
    """
    ctx = GrContext(2, 5)
    ev = EvContext(ctx, QQ)
    multisets = admissible_multisets(ev.field, 2, 5)
    assert len(multisets) == 10
    diagrams = enumerate_diagrams(ctx)
    values = {
        (tuple(d), J.indices): ev_map(ev, J, QhElement.schubert(ctx, QQ, d))
        for d in diagrams
        for J in multisets
    }
    K = ev.field
    for d1 in diagrams:
        for d2 in diagrams:
            product = quantum_product(
                QhElement.schubert(ctx, QQ, d1), QhElement.schubert(ctx, QQ, d2)
            )
            for J in multisets:
                lhs = ev_map(ev, J, product)
                rhs = K.mul(values[(tuple(d1), J.indices)], values[(tuple(d2), J.indices)])
                assert lhs == rhs, (d1, d2, J.to_text())


def test_ev_map_context_mismatch():
    ev = EvContext(GrContext(2, 5), prime_field(11))
    J = admissible_multisets(ev.field, 2, 5)[0]
    with pytest.raises(ValueError):
        ev_map(ev, J, QhElement.unit(GrContext(2, 6), prime_field(11)))


@pytest.mark.parametrize(
    "base,element_field",
    [(prime_field(11), make_extension(11, 2)), (QQ, cyclotomic_field(8))],
    ids=["GF(11^2) element, GF(11) context", "Q(zeta8) element, Q context"],
)
def test_ev_map_rejects_an_element_over_another_field(base, element_field):
    """The characteristics agree, but the element's field is not the context's
    base; this raised TypeError or AttributeError from inside the arithmetic."""
    ctx = GrContext(2, 5)
    ev = EvContext(ctx, base)
    J = admissible_multisets(ev.field, 2, 5)[0]
    element = QhElement(ctx, element_field, {(YoungDiagram((1,)), 0): element_field.gen()})
    with pytest.raises(ValueError, match="evaluation from"):
        ev_map(ev, J, element)


def _direct_ev(ev, roots, diagram):
    """sigma_D at x_i = xi^i e_i(roots), from naive e_i and plain powers."""
    K, k = ev.field, ev.ctx.k
    xs = [K.mul(K.pow(ev.xi, i), naive_elementary(K, roots, i)) for i in range(1, k + 1)]
    total = K.zero()
    for exps, c in giambelli_expand(ev.ctx, diagram).items():
        mono = K.from_int(c)
        for x, e in zip(xs, exps):
            mono = K.mul(mono, K.pow(x, e))
        total = K.add(total, mono)
    return total


@pytest.mark.parametrize("k,n,bases", [(3, 8, (QQ, prime_field(3))), (4, 8, (prime_field(3), QQ))])
def test_ev_map_matches_direct_evaluation_across_contexts(k, n, bases):
    """Every Schubert class at several multisets, against naive e_i and plain
    powers; calls alternate between two contexts of Gr(k, n) over different
    bases and repeat, so one context's tables never answer for the other."""
    ctx = GrContext(k, n)
    evs = [EvContext(ctx, base) for base in bases]
    rng = random.Random(k * 100 + n)
    picks = [rng.sample(admissible_multisets(ev.field, k, n), 3) for ev in evs]
    diagrams = enumerate_diagrams(ctx)
    want = {
        (which, J.indices, d): _direct_ev(evs[which], J.roots, d)
        for which in (0, 1)
        for J in picks[which]
        for d in diagrams
    }
    for _ in range(2):
        for d in diagrams:
            for which, ev in enumerate(evs):
                for J in picks[which]:
                    got = ev_map(ev, J, QhElement.schubert(ctx, ev.base, d))
                    assert got == want[(which, J.indices, d)], (bases[which], J.to_text(), d)


def _embed(K, c):
    return K.lift(c) if isinstance(K, ExtensionField) else c


# Q(zeta_N) for odd and even k, GF(p^m) under and over TABLE_CAP, K = Q,
# K = GF(p), p | n, a point, and n = k
MULTI_TERM_CASES = [
    (QQ, 3, 8, "Q(zeta8)"),
    (QQ, 2, 7, "Q(zeta14)"),
    (prime_field(3), 4, 8, "GF(3^4)"),
    (prime_field(3), 2, 13, "GF(3^3)"),
    (prime_field(2), 2, 11, "GF(2^10)"),
    (QQ, 1, 2, "Q"),
    (prime_field(7), 3, 6, "GF(7)"),
    (prime_field(2), 2, 4, "GF(2)"),
    (prime_field(3), 2, 9, "GF(3)"),
    (QQ, 1, 1, "Q"),
    (prime_field(3), 2, 2, "GF(3^2)"),
]


@pytest.mark.parametrize(
    "base,k,n,splitting", MULTI_TERM_CASES, ids=[f"Gr({k},{n})/{b.label}" for b, k, n, _ in MULTI_TERM_CASES]
)
def test_ev_map_of_multi_term_elements_against_direct_evaluation(base, k, n, splitting):
    """Seeded elements of 1-4 terms with q-powers -1..1 and coefficients the
    rationals with denominators 1..6 (mapped into GF(p) there), against the
    sum of coefficient times naive sigma_D at xi^i e_i(J)."""
    ctx = GrContext(k, n)
    ev = EvContext(ctx, base)
    K = ev.field
    assert K.label == splitting
    p = base.characteristic
    rng = random.Random(k * 1000 + n * 10 + p)
    diagrams = enumerate_diagrams(ctx)
    multisets = admissible_multisets(K, k, n)
    direct = {}
    mixed_denominators = 0
    for _ in range(12):
        terms, denominators = {}, set()
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            if p and r.denominator % p == 0:
                continue
            denominators.add(r.denominator)
            c = base.div(base.from_int(r.numerator), base.from_int(r.denominator)) if p else r
            terms[(rng.choice(diagrams), rng.randint(-1, 1))] = c
        mixed_denominators += len(denominators) > 1
        element = QhElement(ctx, base, terms)
        J = rng.choice(multisets)
        want = K.zero()
        for (d, _m), c in element.terms.items():
            if (J.roots, d) not in direct:
                direct[(J.roots, d)] = _direct_ev(ev, J.roots, d)
            want = K.add(want, K.mul(_embed(K, c), direct[(J.roots, d)]))
        assert ev_map(ev, J, element) == want, (qc_text(element), J.to_text())
    assert mixed_denominators


def test_ev_map_tables_follow_the_roots_not_the_indices():
    """A caller-built multiset that reuses the indices of one already seen,
    with other roots, is evaluated at its own roots."""
    ctx = GrContext(3, 8)
    ev = EvContext(ctx, QQ)
    first, second = admissible_multisets(ev.field, 3, 8)[:2]
    element = QhElement.schubert(ctx, QQ, YoungDiagram((2, 1)))
    ev_map(ev, first, element)
    impostor = AdmissibleMultiset(first.indices, second.roots)
    assert ev_map(ev, impostor, element) == _direct_ev(ev, second.roots, YoungDiagram((2, 1)))
    assert ev_map(ev, impostor, element) != ev_map(ev, first, element)


def test_multiset_with_non_integral_roots_is_rejected():
    """The power rows are integer coordinates, so a caller-built multiset
    whose roots are not algebraic integers raises instead of evaluating."""
    ctx = GrContext(2, 5)
    ev = EvContext(ctx, QQ)
    K = ev.field
    half = K.lift(Fraction(1, 2))
    J = AdmissibleMultiset((0, 1), (half, K.one()))
    with pytest.raises(ValueError, match="algebraic integers"):
        verify_ideal_vanishing(ev, J)
    with pytest.raises(ValueError, match="algebraic integers"):
        ev_map(ev, J, special_class(ctx, QQ, 1))


@pytest.mark.parametrize("k,n,base", [(3, 8, QQ), (4, 8, prime_field(3))])
def test_ideal_vanishing_values_against_naive_complete(k, n, base):
    """Each reported value against naive h_r at xi*zeta_J, on admissible
    multisets and on a repeated-root one whose values do not vanish."""
    ev = EvContext(GrContext(k, n), base)
    K = ev.field
    multisets = list(admissible_multisets(K, k, n)[:3])
    repeated = (ev.roots[0],) * (k - 1) + (ev.roots[1],)
    multisets.append(AdmissibleMultiset((0,) * (k - 1) + (1,), repeated))
    sign = K.one() if k % 2 == 0 else K.neg(K.one())
    for J in multisets:
        scaled = [K.mul(ev.xi, z) for z in J.roots]
        want = [naive_complete(K, scaled, r) for r in range(n - k + 1, n)]
        want.append(K.add(naive_complete(K, scaled, n), sign))
        report = verify_ideal_vanishing(ev, J)
        assert [c["value"] for c in report["checks"]] == [K.element_to_str(v) for v in want]
        assert report["all_ok"] == all(K.is_zero(v) for v in want)
    assert not verify_ideal_vanishing(ev, multisets[-1])["all_ok"]
