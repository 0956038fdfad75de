import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgrass import qh_core
from qhgrass.diagram import EMPTY, GrContext, YoungDiagram, enumerate_diagrams
from qhgrass.exactfield import QQ, cyclotomic_field, make_extension, prime_field
from qhgrass.qh_core import (
    QhElement,
    format_element,
    giambelli_expand,
    parse_element,
    pieri_multiply,
    q_shift,
    quantum_product,
    schubert_product,
    special_class,
    transposed_pieri_multiply,
)

from oracles import column_expansion_product, column_giambelli, column_pieri_terms, naive_quantum_product


def sigma(ctx, field, rows, m=0):
    return QhElement.schubert(ctx, field, YoungDiagram(rows), m)


def test_pieri_worked_example_gr36():
    ctx = GrContext(3, 6)
    result = pieri_multiply(sigma(ctx, QQ, (3, 1)), 2)
    assert result == sigma(ctx, QQ, (3, 2, 1)) + sigma(ctx, QQ, (), 1)


def test_pieri_on_unit_gives_column():
    for k, n in ((2, 5), (3, 7), (4, 9)):
        ctx = GrContext(k, n)
        for j in range(1, k + 1):
            got = pieri_multiply(QhElement.unit(ctx, QQ), j)
            assert got == sigma(ctx, QQ, (1,) * j)


def test_pieri_pure_quantum_case():
    ctx = GrContext(2, 5)
    assert pieri_multiply(sigma(ctx, QQ, (3, 2)), 2) == sigma(ctx, QQ, (2,), 1)


def test_pieri_bad_index():
    ctx = GrContext(2, 5)
    with pytest.raises(ValueError):
        pieri_multiply(QhElement.unit(ctx, QQ), 3)
    with pytest.raises(ValueError):
        transposed_pieri_multiply(QhElement.unit(ctx, QQ), 4)


def test_transposed_pieri_list_gr2_13():
    """The degree 2l-1 products for n = 13 (l = 6) by the transposed rule."""
    ctx = GrContext(2, 13)
    v = [sigma(ctx, QQ, (11 - j, j) if j else (11,)) for j in range(6)]
    V = lambda a, b=0: sigma(ctx, QQ, (a, b) if b else ((a,) if a else ()))
    # V_{2l-3,0} * v_0 = V_{2l-1,2l-3}
    assert transposed_pieri_multiply(v[0], 9) == V(11, 9)
    # V_{2l-3,0} * v_1 = V_{2l-1,2l-3} + V_{2l-2,2l-2} + q V_{2l-5,0}
    assert transposed_pieri_multiply(v[1], 9) == V(11, 9) + V(10, 10) + q_shift(V(7), 1)
    # V_{2l-3,0} * v_2 = V_{2l-1,2l-3} + q(V_{2l-5,0} + V_{2l-6,1})
    assert transposed_pieri_multiply(v[2], 9) == V(11, 9) + q_shift(V(7) + V(6, 1), 1)
    # V_{2l-3,0} * v_3 = q(V_{2l-5,0} + V_{2l-6,1} + V_{2l-7,2})
    assert transposed_pieri_multiply(v[3], 9) == q_shift(V(7) + V(6, 1) + V(5, 2), 1)
    # last row: V_{2l-3,0} * v_{l-1} = q(V_{l-1,l-4} + V_{l-2,l-3})
    assert transposed_pieri_multiply(v[5], 9) == q_shift(V(5, 2) + V(4, 3), 1)


def test_transposed_pieri_on_unit():
    ctx = GrContext(3, 7)
    assert transposed_pieri_multiply(QhElement.unit(ctx, QQ), 3) == sigma(ctx, QQ, (3,))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (4, 8), (1, 1), (2, 2), (3, 3)])
def test_pieri_multiply_matches_whole_box_filter(k, n):
    """x_j * sigma_D for every D and j against the vertical-strip filter that
    tests every diagram of the box."""
    ctx = GrContext(k, n)
    for d in enumerate_diagrams(ctx):
        for j in range(1, k + 1):
            want = {(YoungDiagram(mu), m): 1 for mu, m in column_pieri_terms(k, ctx.cols, tuple(d), j)}
            assert pieri_multiply(sigma(ctx, QQ, d), j).terms == want, (d, j)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7), (4, 8)])
def test_transposed_pieri_agrees_with_row_class_product(k, n):
    """h_j * sigma_D for every D and j against the whole-box filter for
    x_j * sigma_D' in Gr(n-k, n), transposed back."""
    ctx = GrContext(k, n)
    for d in enumerate_diagrams(ctx):
        for j in range(1, ctx.cols + 1):
            dual_terms = column_pieri_terms(ctx.cols, k, tuple(d.conjugate()), j)
            want = {(YoungDiagram(mu).conjugate(), m): 1 for mu, m in dual_terms}
            assert transposed_pieri_multiply(sigma(ctx, QQ, d), j).terms == want, (d, j)


def test_schubert_product_rejects_diagrams_outside_the_box():
    ctx = GrContext(2, 5)
    for outside in (YoungDiagram((1, 1, 1)), YoungDiagram((5,))):
        with pytest.raises(ValueError):
            schubert_product(ctx, outside, YoungDiagram((1,)))
        with pytest.raises(ValueError):
            schubert_product(ctx, YoungDiagram((1,)), outside)


def test_schubert_product_inputs_under_index_lookup():
    """Rows reach the engine's index as plain tuples. A float row equals an
    int in a dict lookup, so it must be refused before the lookup, also once
    the diagram it spells is indexed."""
    ctx = GrContext(3, 6)
    want = schubert_product(ctx, YoungDiagram((2, 1)), YoungDiagram((1,)))
    assert want == {(YoungDiagram(rows), 0): 1 for rows in ((3, 1), (2, 2), (2, 1, 1))}
    assert schubert_product(ctx, [2, 1, 0], [1]) == want
    assert schubert_product(ctx, (2, 1), (1, 0, 0)) == want
    assert schubert_product(ctx, [2, 1] + [0] * 200_000, [1]) == want  # zeros stripped in one pass
    for bad in ((2.0, 1), [2, 1.0], ("2", 1)):
        with pytest.raises(TypeError):
            schubert_product(ctx, bad, (1,))
        with pytest.raises(TypeError):
            schubert_product(ctx, (1,), bad)
    for outside in ((4,), (1, 1, 1, 1), [4, 0], (1, 2), (-1,)):
        with pytest.raises(ValueError):
            schubert_product(ctx, outside, (1,))
        with pytest.raises(ValueError):
            schubert_product(ctx, (2, 1), outside)


@pytest.mark.parametrize("n", [8, 990, 1200, 100003])
def test_products_on_contexts_with_a_tall_transpose(n):
    """The column rule runs the row rule in Gr(n-2, n), with n-2 rows; the
    rows are walked without recursion, so no depth of the box raises. The
    small context checks the expected values against the oracle."""
    ctx = GrContext(2, n)
    s1, wide = YoungDiagram((1,)), YoungDiagram((n - 2, 1))
    cases = [
        (s1, s1, {(YoungDiagram((2,)), 0): 1, (YoungDiagram((1, 1)), 0): 1}),
        (wide, wide, {(YoungDiagram((n - 2,)), 1): 1, (YoungDiagram((n - 3, 1)), 1): 1}),
    ]
    for a, b, want in cases:
        assert schubert_product(ctx, a, b) == want
        if n < 20:
            assert column_expansion_product(2, n, a, b) == want
    assert pieri_multiply(sigma(ctx, QQ, (1,)), 2) == sigma(ctx, QQ, (2, 1))


@pytest.fixture
def cold_caches():
    """Products from empty caches: no engine and no Giambelli expansion kept."""
    qh_core._ENGINES.clear()
    qh_core._giambelli_cached.cache_clear()


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_table_filled_in_any_order_from_cold_caches_matches_oracle(cold_caches, k, n, order):
    """Chains, step tables and indices are shared by all products of a
    context, so the fill order decides what each product finds cached and
    which index each diagram gets. Every order must give the oracle's table."""
    ctx = GrContext(k, n)
    diagrams = enumerate_diagrams(ctx)
    cells = [(a, b) for a in diagrams for b in diagrams]
    if order == "shuffled":
        random.Random(f"fill {k} {n}").shuffle(cells)
    for a, b in cells:
        assert schubert_product(ctx, a, b) == column_expansion_product(k, n, a, b), (a, b)


@pytest.mark.parametrize("k,n", [(1, 6), (2, 9), (3, 7), (4, 8), (5, 7), (6, 8)])
def test_schubert_product_matches_column_expansion_oracle(k, n):
    """Every ordered pair against the column-only expansion of the first factor.

    The contexts take both Giambelli determinants, k > n-k and q-terms. The
    oracle computes the two orders of a pair separately, so this also checks
    commutativity without the engine's unordered cache.
    """
    ctx = GrContext(k, n)
    diagrams = enumerate_diagrams(ctx)
    for a in diagrams:
        for b in diagrams:
            assert schubert_product(ctx, a, b) == column_expansion_product(k, n, a, b), (a, b)


def test_x2_v1_squared_paper_identity():
    """(x_2 * v_1) * v_1 = q(v_0 + v_1 + v_2) for n = 13."""
    ctx = GrContext(2, 13)
    v0, v1, v2 = sigma(ctx, QQ, (11,)), sigma(ctx, QQ, (10, 1)), sigma(ctx, QQ, (9, 2))
    lhs = quantum_product(quantum_product(special_class(ctx, QQ, 2), v1), v1)
    assert lhs == q_shift(v0 + v1 + v2, 1)


def test_even_case_products_gr2_12():
    """The n = 2l+2 = 12 multiplication table rows for x_2 * v_1."""
    ctx = GrContext(2, 12)
    v = [sigma(ctx, QQ, (10 - j, j) if j else (10,)) for j in range(6)]
    a = quantum_product(special_class(ctx, QQ, 2), v[1])
    assert quantum_product(a, v[0]) == q_shift(v[1], 1)
    assert quantum_product(a, v[1]) == q_shift(v[0] + v[1] + v[2], 1)
    for i in range(2, 5):
        assert quantum_product(a, v[i]) == q_shift(v[i - 1] + v[i] + v[i + 1], 1)
    # the truncated last row is exactly what puts +1 in the bottom-right corner
    assert quantum_product(a, v[5]) == q_shift(v[4], 1)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (5, 10)])
def test_power_identity(k, n):
    ctx = GrContext(k, n)
    for field in (QQ, prime_field(2)):
        acc = QhElement.unit(ctx, field)
        for _ in range(n):
            acc = pieri_multiply(acc, k)
        assert acc == q_shift(QhElement.unit(ctx, field), k)


def test_point_class_invertibility_witness():
    """x_k^(n-k) * x_k^k = q^k: PD(pt) = x_k^(n-k) is invertible."""
    for k, n in ((2, 5), (3, 6)):
        ctx = GrContext(k, n)
        pd = QhElement.unit(ctx, QQ)
        for _ in range(n - k):
            pd = pieri_multiply(pd, k)
        assert pd == sigma(ctx, QQ, (n - k,) * k)
        rest = QhElement.unit(ctx, QQ)
        for _ in range(k):
            rest = pieri_multiply(rest, k)
        assert quantum_product(pd, rest) == q_shift(QhElement.unit(ctx, QQ), k)


def test_giambelli_examples():
    ctx = GrContext(2, 5)
    assert giambelli_expand(ctx, YoungDiagram((1, 1))) == {(0, 1): 1}
    assert giambelli_expand(ctx, YoungDiagram((2, 1))) == {(1, 1): 1}
    ctx4 = GrContext(4, 9)
    assert giambelli_expand(ctx4, YoungDiagram((1, 1, 1))) == {(0, 0, 1, 0): 1}


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 10) for k in range(1, n + 1)])
def test_giambelli_expand_matches_permutation_oracle(k, n):
    """Both determinants of every class against the sum over permutations.

    The row determinant of D in Gr(k, n) is the column one of its conjugate in
    the dual Gr(n-k, n); Gr(n, n) has no dual, so there only the column one.
    """
    ctx = GrContext(k, n)
    for diagram in enumerate_diagrams(ctx):
        assert giambelli_expand(ctx, diagram) == dict(column_giambelli(k, diagram)), diagram
        if k < n:
            flipped = diagram.conjugate()
            want = dict(column_giambelli(n - k, flipped))
            assert giambelli_expand(GrContext(n - k, n), flipped) == want, diagram


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_giambelli_recovers_schubert_classes(k, n):
    """Applying the expansion through iterated Pieri to the unit returns sigma_D."""
    ctx = GrContext(k, n)
    for diagram in enumerate_diagrams(ctx):
        acc = QhElement.zero(ctx, QQ)
        for exps, coeff in giambelli_expand(ctx, diagram).items():
            term = QhElement.unit(ctx, QQ)
            for i in range(1, k + 1):
                for _ in range(exps[i - 1]):
                    term = pieri_multiply(term, i)
            acc = acc + term.scale(Fraction(coeff))
        assert acc == QhElement.schubert(ctx, QQ, diagram), diagram


def _coeff_types(c):
    return type(c), tuple(map(type, c)) if isinstance(c, tuple) else ()


def _assert_matches_naive(a, b):
    got = quantum_product(a, b)
    want = naive_quantum_product(a, b)
    assert got.terms == want, (a, b)
    ctx, F = a.ctx, a.field
    for key, c in got.terms.items():
        assert _coeff_types(c) == _coeff_types(want[key])
        assert not F.is_zero(c)
        assert key[0].fits(ctx.k, ctx.cols)
    return got


PRODUCT_FIELDS = {
    "Q": QQ,
    "GF(2)": prime_field(2),
    "GF(7)": prime_field(7),
    "GF(2^3)": make_extension(2, 3),
    "GF(3^2)": make_extension(3, 2),
    "Q(zeta8)": cyclotomic_field(8),
}


@pytest.mark.parametrize("k,n", [(3, 6), (2, 7), (4, 8)])
@pytest.mark.parametrize("label", list(PRODUCT_FIELDS))
def test_quantum_product_matches_naive_per_term_expansion(label, k, n):
    """Integer accumulation against one field product per (pair, term), on
    1-4-term elements with q-powers -1..1; over Q the coefficients have
    mixed denominators."""
    ctx, F = GrContext(k, n), PRODUCT_FIELDS[label]
    diagrams = enumerate_diagrams(ctx)
    rng = random.Random(f"{label} {k} {n}")

    def element():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = F.zero()
            while F.is_zero(c):
                c = F.random_element(rng)
            terms[(rng.choice(diagrams), rng.randint(-1, 1))] = c
        return QhElement(ctx, F, terms)

    for _ in range(12):
        _assert_matches_naive(element(), element())


def _per_term_oracle(a, b) -> dict:
    """a * b term by term in field arithmetic, each structure constant taken
    from the column-expansion oracle rather than from the engine."""
    ctx, F = a.ctx, a.field
    acc: dict = {}
    for (d1, m1), c1 in a.terms.items():
        for (d2, m2), c2 in b.terms.items():
            for (rows, dm), N in column_expansion_product(ctx.k, ctx.n, d1, d2).items():
                key, c = (YoungDiagram(rows), m1 + m2 + dm), F.mul(F.mul(c1, c2), F.from_int(N))
                acc[key] = F.add(acc[key], c) if key in acc else c
    return {key: c for key, c in acc.items() if not F.is_zero(c)}


@pytest.mark.parametrize("label", ["Q", "GF(7)", "GF(2^3)", "Q(zeta8)"])
def test_inhomogeneous_products_with_negative_q_powers_from_cold_caches(cold_caches, label):
    """Codes carry q-powers down to -2 per factor (a code below 0), and the
    elements mix degrees, so one output code collects several pairs."""
    ctx, F = GrContext(3, 7), PRODUCT_FIELDS[label]
    diagrams = enumerate_diagrams(ctx)
    rng = random.Random(f"inhomogeneous {label}")

    def element():
        terms: dict = {}
        while len(terms) < 2 or len({d.size + ctx.n * m for d, m in terms}) < 2:
            c = F.random_element(rng)
            if not F.is_zero(c):
                terms[(rng.choice(diagrams), rng.randint(-2, 1))] = c
        element = QhElement(ctx, F, terms)
        assert element.homogeneous_degree() is None
        return element

    for _ in range(15):
        a, b = element(), element()
        assert quantum_product(a, b).terms == _per_term_oracle(a, b), (a, b)


def test_cached_constants_are_untracked_by_the_collector(cold_caches):
    """The pair constants, the chains and the step tables hold ints only, so
    after a collection the garbage collector no longer tracks them."""
    ctx = GrContext(3, 7)
    diagrams = enumerate_diagrams(ctx)
    for a in diagrams:
        for b in diagrams:
            schubert_product(ctx, a, b)
    quantum_product(sigma(ctx, QQ, (2, 1), -1), sigma(ctx, QQ, (4, 4, 1), 1))
    gc.collect()
    engine = qh_core._ENGINES[(3, 7)]
    assert len(engine.pairs) == len(diagrams) * (len(diagrams) + 1) // 2
    assert not any(gc.is_tracked(constants) for constants in engine.pairs.values())
    assert engine.chains and not any(gc.is_tracked(chain) for chain in engine.chains.values())
    assert engine.steps and not any(gc.is_tracked(table) for table in engine.steps.values())


@pytest.mark.parametrize("label,sign", [("Q", -1), ("GF(2)", 1), ("GF(2^3)", 1), ("Q(zeta8)", -1)])
def test_quantum_product_cancellation(label, sign):
    """(sigma[2] + sign * sigma[1,1]) * sigma[1] in Gr(3,6): both products
    contain sigma[2,1] once, so it cancels and leaves sigma[3] + sign * sigma[1,1,1]."""
    ctx, F = GrContext(3, 6), PRODUCT_FIELDS[label]
    c = F.from_int(sign)
    a = QhElement(ctx, F, {(YoungDiagram((2,)), 0): F.one(), (YoungDiagram((1, 1)), 0): c})
    got = _assert_matches_naive(a, sigma(ctx, F, (1,)))
    assert got.terms == {(YoungDiagram((3,)), 0): F.one(), (YoungDiagram((1, 1, 1)), 0): c}


def test_element_rejects_plain_tuple_and_outside_diagrams():
    ctx = GrContext(2, 5)
    for rows in ((2, 1), (1, 2)):
        with pytest.raises(TypeError):
            QhElement(ctx, QQ, {(rows, 0): Fraction(1)})
    for outside in (YoungDiagram((1, 1, 1)), YoungDiagram((4,))):
        with pytest.raises(ValueError):
            QhElement(ctx, QQ, {(outside, 0): Fraction(1)})


def test_element_rejects_outside_diagram_with_zero_coefficient():
    with pytest.raises(ValueError, match="does not fit"):
        QhElement(GrContext(3, 6), QQ, {(YoungDiagram((9,)), 0): Fraction(0)})


def test_unit_and_context_mismatch():
    ctx = GrContext(2, 5)
    a = sigma(ctx, QQ, (2, 1))
    assert quantum_product(QhElement.unit(ctx, QQ), a) == a
    with pytest.raises(ValueError):
        quantum_product(a, QhElement.unit(GrContext(2, 6), QQ))
    with pytest.raises(ValueError):
        quantum_product(a, QhElement.unit(ctx, prime_field(3)))


def test_q_shift_examples():
    ctx = GrContext(2, 5)
    unit = QhElement.unit(ctx, QQ)
    assert q_shift(unit, 0) == unit
    assert q_shift(q_shift(unit, 1), -1) == unit
    acc = unit
    for _ in range(5):
        acc = pieri_multiply(acc, 2)
    assert q_shift(acc, -2) == unit


def _random_homogeneous(ctx, field, rng):
    diagrams = enumerate_diagrams(ctx)
    target = rng.randrange(ctx.n)
    terms = {}
    for diagram in rng.sample(diagrams, min(3, len(diagrams))):
        m, r = divmod(target - diagram.size, ctx.n)
        if r:
            continue
        coeff = field.random_element(rng)
        terms[(diagram, m)] = coeff
    return QhElement(ctx, field, terms)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(max(2, k), 9)])
def test_product_laws(k, n):
    """Associativity, commutativity, grading on random homogeneous triples."""
    ctx = GrContext(k, n)
    fields = [QQ, prime_field(2), prime_field(3), prime_field(7)]
    rng = random.Random(1000 * k + n)
    per_field = 50  # 200 triples per context across the four fields
    for field in fields:
        for _ in range(per_field):
            a = _random_homogeneous(ctx, field, rng)
            b = _random_homogeneous(ctx, field, rng)
            c = _random_homogeneous(ctx, field, rng)
            ab = quantum_product(a, b)
            assert ab == quantum_product(b, a)
            assert quantum_product(ab, c) == quantum_product(a, quantum_product(b, c))
            if a.terms and b.terms and ab.terms:
                assert (
                    ab.homogeneous_degree()
                    == a.homogeneous_degree() + b.homogeneous_degree()
                )


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_pieri_consistency_with_product(k, n):
    ctx = GrContext(k, n)
    rng = random.Random(7)
    for j in range(1, k + 1):
        for _ in range(10):
            e = _random_homogeneous(ctx, QQ, rng)
            assert quantum_product(special_class(ctx, QQ, j), e) == pieri_multiply(e, j)


def test_classical_limit_nonnegative_integers():
    """q^0 coefficients of Schubert products over Q are nonnegative integers."""
    ctx = GrContext(3, 7)
    diagrams = enumerate_diagrams(ctx)
    rng = random.Random(42)
    for _ in range(30):
        d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
        for (diagram, m), coeff in schubert_product(ctx, d1, d2).items():
            assert m >= 0
            if m == 0:
                assert coeff == int(coeff) and coeff >= 0


def test_format_and_parse_roundtrip():
    ctx = GrContext(3, 6)
    el = parse_element(ctx, QQ, "σ[3,2,1] + q*σ[-]")
    assert format_element(el) == "σ[3,2,1] + q*σ[-]"
    el2 = parse_element(ctx, QQ, "3/2*σ[2,1] + -2*q^2*σ[1] + q^-1*s[3,3]")
    assert el2.coeff(YoungDiagram((2, 1))) == Fraction(3, 2)
    assert el2.coeff(YoungDiagram((1,)), 2) == Fraction(-2)
    assert el2.coeff(YoungDiagram((3, 3)), -1) == Fraction(1)
    assert parse_element(ctx, QQ, format_element(el2)) == el2
    assert format_element(QhElement.zero(ctx, QQ)) == "0"
    with pytest.raises(ValueError):
        parse_element(ctx, QQ, "garbage")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2))
def test_scale_and_shift_commute(c, m):
    ctx = GrContext(2, 6)
    rng = random.Random(5)
    e = _random_homogeneous(ctx, QQ, rng)
    assert q_shift(e.scale(Fraction(c)), m) == q_shift(e, m).scale(Fraction(c))
