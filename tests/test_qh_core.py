import copy
import gc
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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

from oracles import (
    box_partitions,
    column_expansion_product,
    column_giambelli,
    column_pieri_terms,
    naive_quantum_product,
)


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


# Gr(n - 1, n) and Gr(1, n): runs and gaps that go on past n; then four boxes with k, n - k >= 3
WRAPPING_BOXES = sorted({(n - 1, n) for n in range(2, 31)} | {(1, n) for n in range(2, 31)}) + [
    (3, 9), (6, 9), (4, 10), (5, 11),
]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (4, 8), (1, 1), (2, 2), (3, 3)] + WRAPPING_BOXES)
def test_pieri_multiply_matches_whole_box_filter(k, n):
    """x_j * sigma_D for every D and j against the vertical-strip filter that
    tests every diagram of the box."""
    ctx = GrContext(k, n)
    for d in enumerate_diagrams(ctx):
        for j in range(1, k + 1):
            want = {(YoungDiagram(mu), m): 1 for mu, m in column_pieri_terms(k, ctx.cols, tuple(d), j)}
            assert pieri_multiply(sigma(ctx, QQ, d), j).terms == want, (d, j)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7), (4, 8)] + WRAPPING_BOXES)
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
def test_products_on_contexts_with_a_tall_transpose(cold_caches, n):
    """Gr(2, n) is Gr(n-2, n) transposed, but a Pieri step moves the two
    particles of a diagram on Z/n and transposes nothing, so no (n-2)-row
    diagram is built and no depth raises. From cold caches; sigma_1 *
    sigma_(m, 3), m = 50000 at n = 100003, is one e_1 step next to gaps of
    about n/2. The small context checks the expected values against the
    oracle."""
    ctx = GrContext(2, n)
    s1, wide, m = YoungDiagram((1,)), YoungDiagram((n - 2, 1)), max((n - 3) // 2, 4)
    cases = [
        (s1, s1, {(YoungDiagram((2,)), 0): 1, (YoungDiagram((1, 1)), 0): 1}),
        (wide, wide, {(YoungDiagram((n - 2,)), 1): 1, (YoungDiagram((n - 3, 1)), 1): 1}),
        (s1, YoungDiagram((m, 3)), {(YoungDiagram((m + 1, 3)), 0): 1, (YoungDiagram((m, 4)), 0): 1}),
    ]
    for a, b, want in cases:
        assert schubert_product(ctx, a, b) == want
        if n < 20:
            assert column_expansion_product(2, n, a, b) == want
    assert pieri_multiply(sigma(ctx, QQ, (1,)), 2) == sigma(ctx, QQ, (2, 1))


def _narrow_diagram(rng, k, width):
    """A diagram of k rows of at most width boxes, with a full column six times in ten."""
    rows = sorted((rng.randint(0, width) for _ in range(k)), reverse=True)
    return YoungDiagram([max(r, 1) for r in rows] if rng.random() < 0.6 else rows)


@pytest.mark.parametrize("k", [99, 60])
def test_tall_products_match_the_conjugate_products(cold_caches, k):
    """Products on Gr(k, 100) with factors of up to k rows against the
    conjugate products on Gr(100 - k, 100), where rows and columns trade
    places: e_j steps on one side are h_j steps on the other. On Gr(99,
    100) every pair of the box; on Gr(60, 100) seeded pairs of a class of
    at most six boxes or x_j, j up to 60, and a narrow tall diagram, most
    with a full column to shift out."""
    n = 100
    ctx, dual = GrContext(k, n), GrContext(n - k, n)
    if k == n - 1:
        pairs = list(itertools.product(enumerate_diagrams(ctx), repeat=2))
    else:
        rng = random.Random(f"tall {k} {n}")
        small = [d for d in enumerate_diagrams(GrContext(6, 12)) if d.size <= 6]
        pairs = [(rng.choice(small), _narrow_diagram(rng, k, 3)) for _ in range(30)]
        pairs += [(YoungDiagram((1,) * rng.randint(1, k)), _narrow_diagram(rng, k, 2)) for _ in range(15)]
    for a, b in pairs:
        conjugate = schubert_product(dual, a.conjugate(), b.conjugate())
        want = {(d.conjugate(), m): c for (d, m), c in conjugate.items()}
        assert schubert_product(ctx, a, b) == want, (a, b)


@pytest.fixture
def cold_caches():
    """Products from empty caches: no engine, so no Giambelli expansion kept."""
    qh_core._ENGINES.clear()


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
    The engine of Gr(k, n) keeps both, each monomial with its Pieri steps:
    e_r steps x_r, last variable first.
    """
    ctx = GrContext(k, n)
    engine = qh_core._engine(ctx)
    for diagram in enumerate_diagrams(ctx):
        assert giambelli_expand(ctx, diagram) == dict(column_giambelli(k, diagram)), diagram
        routes = [(0, k, diagram)]
        if k < n:
            flipped = diagram.conjugate()
            want = dict(column_giambelli(n - k, flipped))
            assert giambelli_expand(GrContext(n - k, n), flipped) == want, diagram
            routes.append((1, n - k, flipped))
        for by_rows, variables, rows in routes:
            monomials = engine.expansion(engine.lookup(diagram), by_rows)
            assert {exps: g for exps, _, g in monomials} == dict(column_giambelli(variables, rows)), diagram
            for exps, steps, _ in monomials:
                assert steps == tuple(v for v in range(variables, 0, -1) for _ in range(exps[v - 1]))


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


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("k,n", [(3, 7), (4, 9), (2, 31)])
def test_products_over_q_reduce_mod_p_to_products_over_gf_p(k, n, p):
    """Reduction mod p is a ring map on coefficients with no p in their
    denominators, so it commutes with quantum_product: the product over Q,
    reduced, is the GF(p) product of the reduced factors. The two share no
    arithmetic: numerators over one denominator over Q, residues over GF(p).
    Seeded elements of 1-4 terms with q-powers -1..1, most with a full column."""
    ctx, F = GrContext(k, n), prime_field(p)
    rng = random.Random(f"mod {p} {k} {n}")

    def reduce(c: Fraction) -> int:
        return c.numerator * pow(c.denominator, -1, p) % p

    for _ in range(15):
        factors = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                den = rng.choice([d for d in range(1, 13) if d % p])
                terms[(_random_diagram(rng, k, n), rng.randint(-1, 1))] = Fraction(rng.randint(-12, 12), den)
            reduced = {key: reduce(c) for key, c in terms.items()}
            factors.append((QhElement(ctx, QQ, terms), QhElement(ctx, F, reduced)))
        (a, a_p), (b, b_p) = factors
        reduced = {key: reduce(c) for key, c in quantum_product(a, b).terms.items()}
        assert quantum_product(a_p, b_p).terms == {key: c for key, c in reduced.items() if c}, (a, b)


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
    assert engine.reduced and not gc.is_tracked(engine.reduced)
    # a rotation table is a dict subclass, so it stays tracked itself; it holds
    # ints only, so the collector follows nothing from it
    assert engine.rotations
    for table in engine.rotations.values():
        assert table and all(type(x) is int for entry in table.items() for x in entry)


def _cold_engine(k, n):
    """The engine of Gr(k, n) from empty caches, and the indices of its box."""
    qh_core._ENGINES.clear()
    engine = qh_core._engine(GrContext(k, n))
    return engine, [engine.lookup(d) for d in enumerate_diagrams(GrContext(k, n))]


def _as_terms(engine, constants) -> dict:
    """{(diagram, q-power): coeff} from a pair's flat (code, coeff, ...) tuple."""
    return dict(zip(map(engine.keys.__getitem__, constants[::2]), constants[1::2]))


def _random_diagram(rng, k, n):
    """A diagram of the k x (n-k) box, with lambda_k > 0 seven times in ten."""
    rows = sorted((rng.randint(0, n - k) for _ in range(k)), reverse=True)
    if rng.random() < 0.7:
        rows = [max(r, 1) for r in rows]
    return YoungDiagram(rows)


SMALL_BOXES = [(k, n) for n in range(1, 85) for k in range(1, n + 1) if math.comb(n, k) <= 84]
BOX_FAMILIES = {
    "k = 1": lambda k, n: k == 1,
    "k = n - 1 > 1": lambda k, n: k == n - 1 > 1,
    "k = n > 1": lambda k, n: k == n > 1,
    "other": lambda k, n: 1 < k < n - 1,
}


def _oracle_scans(k, n):
    """Whether the whole-box oracles stay small: each of their Pieri steps
    scans the diagrams of k rows each of one or two sizes, kept once per box,
    and a box takes about C(n, k) * k steps. Gr(5, 11) reads 2310 and
    Gr(83, 84) 6972, so every box of SMALL_BOXES passes, and Gr(2, 1200) not."""
    return math.comb(n, k) * k <= 7_000


@pytest.mark.parametrize("family", list(BOX_FAMILIES))
def test_reduced_pairs_match_the_unreduced_engine_and_the_oracle(family):
    """Every ordered pair of every Gr(k, n) with C(n, k) <= 84, each context
    from cold caches and filled in box order, so most reduced pairs were
    filled earlier. A pair with a full column to shift out against the
    unreduced engine (_constants called directly; a pair without one is
    _constants by construction), and every pair against the column-expansion
    oracle: the box scans of all these boxes are small (_oracle_scans)."""
    for k, n in filter(lambda box: BOX_FAMILIES[family](*box), SMALL_BOXES):
        assert _oracle_scans(k, n)
        engine, indices = _cold_engine(k, n)
        for i in indices:
            for j in indices:
                got = _as_terms(engine, engine.pair(i, j))
                assert got == column_expansion_product(k, n, engine.diagrams[i], engine.diagrams[j]), (k, n, i, j)
                if (engine._reduce(i) | engine._reduce(j)) >> 32:
                    assert got == _as_terms(engine, engine._constants(i, j)), (k, n, i, j)


@pytest.mark.parametrize("k,n", [(4, 10), (5, 11), (2, 1200)])
def test_seeded_pairs_with_q_powers_match_the_unreduced_engine(cold_caches, k, n):
    """Seeded products q^m1 sigma_a * q^m2 sigma_b, m1, m2 in -2..2, most with
    a full column to shift out, against the unreduced engine and, where the
    box scan is small, the column-expansion oracle."""
    ctx = GrContext(k, n)
    engine = qh_core._engine(ctx)
    rng = random.Random(f"reduced {k} {n}")
    for _ in range(60 if n < 20 else 8):  # on Gr(2,1200) the unreduced engine walks ~1000-term chains
        a, b = _random_diagram(rng, k, n), _random_diagram(rng, k, n)
        m1, m2 = rng.randint(-2, 2), rng.randint(-2, 2)
        product = quantum_product(sigma(ctx, QQ, a, m1), sigma(ctx, QQ, b, m2))
        constants = engine._constants(engine.lookup(a), engine.lookup(b))
        shift = (m1 + m2) * qh_core._Q
        assert product.den == 1
        assert product.codes == {code + shift: c for code, c in zip(constants[::2], constants[1::2])}, (a, b)
        if _oracle_scans(k, n):
            want = column_expansion_product(k, n, a, b)
            assert product.terms == {(YoungDiagram(rows), m + m1 + m2): c for (rows, m), c in want.items()}


@pytest.mark.parametrize("family", list(BOX_FAMILIES) + ["Gr(4,10) and Gr(5,11)"])
def test_rotation_is_repeated_column_pieri(cold_caches, family):
    """S^t on every diagram of each box with C(n, k) <= 84, at q-powers
    -1..1 and for t up to max(n, 2(n-k)), the largest shift a pair asks for,
    against t steps of the whole-box column Pieri oracle for x_k =
    sigma_(1^k); and S^n = q^k. A box asks for about 3n^2 entries of k
    rows each, so of the projective spaces Gr(1, n) only n <= 30 and the
    largest, Gr(1, 84), and of the Gr(n - 1, n) only n <= 50."""
    if family in BOX_FAMILIES:
        boxes = [
            (k, n)
            for k, n in SMALL_BOXES
            if BOX_FAMILIES[family](k, n) and (n <= 30 or n == 84 if k == 1 else k != n - 1 or n <= 50)
        ]
    else:
        boxes = [(4, 10), (5, 11)]
    Q = qh_core._Q
    for k, n in boxes:
        cols = n - k
        engine = qh_core._engine(GrContext(k, n))
        for rows in box_partitions(k, cols):
            code = engine.lookup(rows)
            image, q = rows, 0
            for t in range(max(n, 2 * cols) + 1):
                for m in (-1, 0, 1):
                    got = engine.rotations[t][code + m * Q] if t else code + m * Q
                    assert engine.keys[got] == (image, q + m), (k, n, rows, t, m)
                ((image, dq),) = column_pieri_terms(k, cols, image, k)
                q += dq
            assert engine.rotations[n][code] == code + k * Q


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


TERMS_FIELDS = {
    "Q": QQ,
    "GF(7)": prime_field(7),
    "GF(2^3)": make_extension(2, 3),
    "GF(3)": prime_field(3),
    "GF(2^2)": make_extension(2, 2),
    "Q(zeta8)": cyclotomic_field(8),
}


def _seeded_terms(ctx, F, rng, size):
    """size (diagram, q-power) keys, q-powers -1..1, about one in five with a zero coefficient."""
    diagrams = enumerate_diagrams(ctx)
    keys = {(rng.choice(diagrams), rng.randint(-1, 1)) for _ in range(size)}
    return {key: F.zero() if rng.random() < 0.2 else F.random_element(rng) for key in keys}


@pytest.mark.parametrize("label", list(TERMS_FIELDS))
def test_terms_give_back_the_constructor_mapping(label):
    """An element keeps its terms on engine codes; terms gives back the
    mapping it was built from, less the zero coefficients, as a new dict."""
    F, rng = TERMS_FIELDS[label], random.Random(f"terms {label}")
    for k, n in ((2, 6), (3, 7), (4, 9)):
        ctx = GrContext(k, n)
        for size in (0, 1, 3, 8):
            terms = _seeded_terms(ctx, F, rng, size)
            element = QhElement(ctx, F, terms)
            want = {key: c for key, c in terms.items() if not F.is_zero(c)}
            assert element.terms == want
            assert element.terms is not element.terms
            assert bool(element) == bool(want)
            assert element == QhElement(ctx, F, dict(reversed(list(want.items()))))


_UNPICKLE_AFTER_REVERSED_INTERNING = """
import pickle, sys
from qhgrass import qh_core
from qhgrass.diagram import GrContext, enumerate_diagrams
for k, n in ((3, 7), (2, 6)):
    engine = qh_core._engine(GrContext(k, n))
    for d in reversed(enumerate_diagrams(GrContext(k, n))):
        engine.lookup(d)
for element in pickle.load(sys.stdin.buffer):
    print(qh_core.format_element(element))
"""


def test_pickle_rebuilds_elements_in_a_process_with_other_codes():
    """Codes are indices in the order a process first sees each diagram, so
    an element pickles through its terms: a process that indexed the box in
    reverse order still reads the same element."""
    rng = random.Random(23)
    elements = [
        QhElement(GrContext(k, n), F, _seeded_terms(GrContext(k, n), F, rng, 5))
        for k, n in ((3, 7), (2, 6))
        for F in TERMS_FIELDS.values()
    ]
    elements.append(quantum_product(elements[0], elements[0]))
    for element in elements:
        assert copy.copy(element) == element == copy.deepcopy(element)
    src = str(Path(qh_core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_AFTER_REVERSED_INTERNING],
        input=pickle.dumps(elements), env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().splitlines() == [format_element(e) for e in elements]


def test_q_power_must_be_an_integer():
    """A float q-power would be kept as a float key, so it is refused."""
    ctx, d = GrContext(2, 5), YoungDiagram((1,))
    with pytest.raises(TypeError):
        QhElement(ctx, QQ, {(d, 1.5): Fraction(1)})
    with pytest.raises(TypeError):
        QhElement(ctx, QQ, {(d, 1.0): Fraction(1)})
    with pytest.raises(TypeError):
        q_shift(sigma(ctx, QQ, (1,)), 1.5)


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
    """Associativity, commutativity, distributivity, (a + b) - b = a and
    grading on random homogeneous triples, over prime, extension and
    cyclotomic fields."""
    ctx = GrContext(k, n)
    fields = [
        QQ, prime_field(2), prime_field(3), prime_field(7),
        make_extension(2, 3), make_extension(3, 2), cyclotomic_field(8),
    ]
    rng = random.Random(1000 * k + n)
    per_field = 50  # 350 triples per context across the seven fields
    for field in fields:
        for _ in range(per_field):
            a = _random_homogeneous(ctx, field, rng)
            b = _random_homogeneous(ctx, field, rng)
            c = _random_homogeneous(ctx, field, rng)
            ab = quantum_product(a, b)
            assert ab == quantum_product(b, a)
            assert quantum_product(ab, c) == quantum_product(a, quantum_product(b, c))
            assert a * (b + c) == ab + a * c
            assert (a + b) - b == a
            if a.terms and b.terms and ab.terms:
                assert (
                    ab.homogeneous_degree()
                    == a.homogeneous_degree() + b.homogeneous_degree()
                )


def _by_degree(element) -> dict:
    """{degree: the homogeneous component of that degree}."""
    parts: dict = {}
    for key, c in element.terms.items():
        parts.setdefault(element.term_degree(key), {})[key] = c
    return {d: QhElement(element.ctx, element.field, terms) for d, terms in parts.items()}


@pytest.mark.parametrize("k,n", [(3, 7), (4, 9), (2, 31)])
@pytest.mark.parametrize("label", ["Q", "GF(2^3)"])
def test_product_laws_on_shifted_pairs(cold_caches, label, k, n):
    """Commutativity, associativity and degree conservation of quantum_product
    on seeded inhomogeneous elements of 1-4 terms with q-powers -1..1, most
    terms with a full column, so a product's pairs are shifted from reduced
    pairs, and (a * b) * c chains the shifted pairs of a * b through c's.
    On Gr(2, n) every chain the products build is one Pieri step long."""
    ctx, F = GrContext(k, n), PRODUCT_FIELDS[label]
    rng = random.Random(f"laws {label} {k} {n}")

    def element():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = F.random_element(rng)
            while F.is_zero(c):
                c = F.random_element(rng)
            terms[(_random_diagram(rng, k, n), rng.randint(-1, 1))] = c
        return QhElement(ctx, F, terms)

    for _ in range(20):
        a, b, c = element(), element(), element()
        ab = quantum_product(a, b)
        assert ab == quantum_product(b, a)
        assert quantum_product(ab, c) == quantum_product(a, quantum_product(b, c))
        total = QhElement.zero(ctx, F)
        for da, x in _by_degree(a).items():
            for db, y in _by_degree(b).items():
                xy = quantum_product(x, y)
                assert all(xy.term_degree(key) == da + db for key in xy.terms)
                total = total + xy
        assert total == ab
    if k == 2:  # a reduced factor is one row, so every computed pair took one Pieri step
        assert all(len(seq) == 1 for _base, seq in qh_core._engine(ctx).chains)


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


@pytest.mark.parametrize("n", range(2, 10))
def test_transposition_isomorphism(n):
    """Gr(k, n) = Gr(n-k, n) sends sigma_a to sigma_a' (a' the conjugate) and
    keeps q, so it carries sigma_a * sigma_b to sigma_a' * sigma_b'. The two
    sides take the engine's row and column routes. Every unordered pair of
    every Gr(k, n) with 1 <= k < n."""
    for k in range(1, n):
        ctx, dual = GrContext(k, n), GrContext(n - k, n)
        diagrams = enumerate_diagrams(ctx)
        for i, a in enumerate(diagrams):
            for b in diagrams[i:]:
                want = {(d.conjugate(), m): c for (d, m), c in schubert_product(ctx, a, b).items()}
                assert schubert_product(dual, a.conjugate(), b.conjugate()) == want, (k, a, b)


@pytest.mark.parametrize("n", range(2, 9))
def test_three_point_invariants_are_symmetric(n):
    """<a,b,c>_d, the coefficient of q^d sigma_(c^vee) in sigma_a * sigma_b,
    where c^vee is the complement of c in the k x (n-k) box, is the same for
    every order of a, b, c. Every triple of every Gr(k, n) with 1 <= k < n."""
    for k in range(1, n):
        ctx = GrContext(k, n)
        diagrams = enumerate_diagrams(ctx)
        complement = {
            c: YoungDiagram(ctx.cols - r for r in reversed(c + (0,) * (k - len(c)))) for c in diagrams
        }
        # {(a, b): {d: {m: coeff}}}, the terms of sigma_a * sigma_b grouped by diagram
        grouped = {}
        for a in diagrams:
            for b in diagrams:
                table = grouped[a, b] = {}
                for (d, m), coeff in schubert_product(ctx, a, b).items():
                    table.setdefault(d, {})[m] = coeff

        def invariants(a, b, c):
            return grouped[a, b].get(complement[c], {})

        for triple in itertools.combinations_with_replacement(diagrams, 3):
            want = invariants(*triple)
            for a, b, c in itertools.permutations(triple):
                assert invariants(a, b, c) == want, (k, triple)


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


def test_equality_over_q_is_canonical():
    """Over Q an element keeps integer numerators over one denominator prime
    to them, so scaling by c and then by 1/c gives back the same codes, den
    and terms, and == compares them directly."""
    ctx = GrContext(3, 7)
    rng = random.Random(31)
    for _ in range(40):
        a = QhElement(ctx, QQ, _seeded_terms(ctx, QQ, rng, 4))
        c = QQ.zero()
        while not c:
            c = QQ.random_element(rng)
        back = a.scale(c).scale(1 / c)
        assert back == a and back.terms == a.terms
        assert (back.codes, back.den) == (a.codes, a.den)
        assert not a.scale(QQ.zero()) and a.scale(QQ.zero()).den == 1
        assert (a + a.scale(c)) - a == a.scale(c)


def test_constructor_reduces_coefficients_and_refuses_non_elements():
    """Residues are reduced on input, so equal elements compare and print
    equal; a value that is not a field element raises TypeError when the
    element is built, not later inside a product."""
    ctx, d = GrContext(2, 5), YoungDiagram((1,))
    F7, G = prime_field(7), make_extension(2, 3)
    nine = QhElement(ctx, F7, {(d, 0): 9})
    assert nine == QhElement(ctx, F7, {(d, 0): 2})
    assert format_element(nine) == "2*σ[1]"
    assert not QhElement(ctx, F7, {(d, 0): 14})
    reduced = QhElement(ctx, G, {(d, 0): (3, 0, 1)})
    assert reduced == QhElement(ctx, G, {(d, 0): (1, 0, 1)})
    assert reduced.terms == {(d, 0): (1, 0, 1)}
    assert format_element(reduced) == "(1 + t^2)*σ[1]"
    assert not QhElement(ctx, G, {(d, 0): (2, 4, 0)})
    not_elements = [
        (QQ, 1.5), (QQ, 2.0), (QQ, "1"),
        (F7, 1.5), (F7, Fraction(1, 2)),
        (G, 1), (G, (1, 0)), (G, (1, 0, 0, 0)), (G, [1, 0, 1]), (G, (1.0, 0, 1)),
        (cyclotomic_field(8), (1, 0, 0)), (cyclotomic_field(8), (0.5, 0, 0, 0)),
    ]
    for F, c in not_elements:
        with pytest.raises(TypeError, match="not an element"):
            QhElement(ctx, F, {(d, 0): c})
        with pytest.raises(TypeError, match="not an element"):
            QhElement.unit(ctx, F).scale(c)


def test_elements_keep_their_engine():
    """An element reads its codes through the engine that made them, so
    dropping the engine table and indexing the box in another order changes
    nothing it prints. Sums and products of elements of two engines of one
    context are refused; == compares their terms."""
    ctx = GrContext(2, 5)
    old = parse_element(ctx, QQ, "σ[2,1] + q*σ[1]")
    qh_core._ENGINES.clear()
    engine = qh_core._engine(ctx)
    for diagram in reversed(enumerate_diagrams(ctx)):
        engine.lookup(diagram)
    assert format_element(old) == "σ[2,1] + q*σ[1]"
    new = parse_element(ctx, QQ, "σ[2,1] + q*σ[1]")
    assert old == new and old.terms == new.terms
    assert old * old == new * new
    assert pieri_multiply(old, 2) == pieri_multiply(new, 2)
    assert transposed_pieri_multiply(old, 1) == transposed_pieri_multiply(new, 1)
    for mix in (lambda: old + new, lambda: old - new, lambda: old * new):
        with pytest.raises(ValueError, match="engines"):
            mix()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2))
def test_scale_and_shift_commute(c, m):
    ctx = GrContext(2, 6)
    rng = random.Random(5)
    e = _random_homogeneous(ctx, QQ, rng)
    assert q_shift(e.scale(Fraction(c)), m) == q_shift(e, m).scale(Fraction(c))
