import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgrass.exactfield import (
    QQ,
    ExtensionField,
    FieldError,
    Poly,
    PrimeField,
    RationalField,
    SquareMatrix,
    UnsupportedCharacteristicError,
    char_poly,
    cyclotomic_field,
    distinct_degree_profile,
    is_irreducible,
    make_extension,
    min_poly,
    multiplicative_generator,
    nth_roots_of_unity,
    parse_field,
    poly_gcd,
    poly_lcm,
    prime_field,
)

from qhgrass import exactfield
from qhgrass.degree_zero import closed_form_matrix
from qhgrass.diagram import GrContext, YoungDiagram, enumerate_diagrams
from qhgrass.presentation import AdmissibleMultiset, EvContext, admissible_multisets, verify_ideal_vanishing
from qhgrass.qh_core import QhElement, quantum_product, schubert_product
from qhgrass.numberth import cyclotomic_polynomial, multiplicative_order

from oracles import (
    _gf_p_rows,
    _is_singular_mod_p,
    _mult_block,
    _per_element_prime_field,
    cross_multiplied_is_singular,
    determinant,
    first_generator_by_powers,
    first_irreducible_by_full_scan,
    int_poly,
    gf_irreducible_by_trial_division,
    sequential_distinct_degree_parts,
    sympy_charpoly_coeffs,
    sympy_charpoly_reduced,
    sympy_cyclotomic,
    sympy_ddf,
    sympy_factors_mod_p,
    sympy_gf_ops,
    sympy_irreducibles_mod_p,
    sympy_is_irreducible_q,
    sympy_min_poly_is_minimal,
    sympy_reduced_ops,
)

FIELDS_UNDER_TEST = [
    QQ,
    prime_field(2),
    prime_field(7),
    make_extension(7, 2),
    make_extension(2, 3),
    cyclotomic_field(12),
]


@pytest.mark.parametrize("F", FIELDS_UNDER_TEST, ids=lambda f: f.label)
def test_field_axioms_on_samples(F):
    rng = random.Random(12345)
    one, zero = F.one(), F.zero()
    for _ in range(1000):
        a = F.random_element(rng)
        b = F.random_element(rng)
        c = F.random_element(rng)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == zero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == one


KERNEL_FIELDS = [
    make_extension(2, 2),
    make_extension(2, 3),
    make_extension(3, 3),
    make_extension(3, 4),
    make_extension(7, 2),
    cyclotomic_field(8),
    cyclotomic_field(9),
    cyclotomic_field(12),
    cyclotomic_field(14),
    make_extension(13, 4),  # above TABLE_CAP: the kernel reduced mod p
]


def _kernel_pairs(F, rng, count=300):
    """Seeded pairs that include zero, one, a base scalar and, over Q, mixed denominators."""

    def element():
        if F.characteristic:
            return F.random_element(rng)
        return tuple(
            Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 7, 9, 12, 25]))
            if rng.random() < 0.8 else Fraction(0)
            for _ in range(F.degree)
        )

    special = [F.zero(), F.one(), F.from_int(2), F.gen()]
    pairs = [(s, t) for s in special for t in special]
    pairs += [(s, element()) for s in special] + [(element(), s) for s in special]
    while len(pairs) < count:
        pairs.append((element(), element()))
    return pairs


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=lambda f: f.label)
def test_extension_kernel_against_sympy_remainder(F):
    """mul, add and sub against sympy's polynomial remainder modulo the field's
    modulus; results are canonical ints in [0, p) or normalized Fractions."""
    p = F.characteristic
    for a, b in _kernel_pairs(F, random.Random(F.label)):
        want = sympy_reduced_ops(a, b, F.modulus, p)
        for got, expected in zip((F.mul(a, b), F.add(a, b), F.sub(a, b)), want):
            assert list(got) == expected, (a, b)
            if p:
                assert all(type(c) is int and 0 <= c < p for c in got)
            else:
                assert all(type(c) is Fraction for c in got)


TABLE_FIELDS = [
    make_extension(p, m)
    for p, m in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (11, 2), (5, 3), (2, 8), (2, 9))
]


def _divmod_product(F, a, b):
    """a * b as the product of Polys reduced by divmod, the selftest's oracle."""
    rem = (Poly(F.base, a) * Poly(F.base, b)) % Poly(F.base, F.modulus)
    return rem.coeffs + (F.base.zero(),) * (F.degree - len(rem.coeffs))


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=lambda f: f.label)
def test_table_products_and_inverses_against_divmod(F):
    """Fields of order at most TABLE_CAP multiply and invert by log tables:
    every pair up to order 81 and seeded pairs above, zero factors included,
    and every inverse, against the divmod oracle; results are ints in [0, p)."""
    assert F.order <= exactfield.TABLE_CAP
    p, zero, one = F.characteristic, F.zero(), F.one()
    elements = list(F.elements())
    if F.order <= 81:
        pairs = list(itertools.product(elements, repeat=2))
    else:
        rng = random.Random(F.label)
        pairs = [(zero, zero)] + [(zero, x) for x in elements[:20]] + [(x, zero) for x in elements[-20:]]
        pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(3000)]
    for a, b in pairs:
        got = F.mul(a, b)
        assert got == _divmod_product(F, a, b), (a, b)
        assert type(got) is tuple and all(type(c) is int and 0 <= c < p for c in got)
    assert len(F._log) == F.order  # the tables were built, zero included
    for a in elements:
        if a == zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
            continue
        inverse = F.inv(a)
        assert _divmod_product(F, a, inverse) == one, a
        assert type(inverse) is tuple and all(type(c) is int and 0 <= c < p for c in inverse)


@pytest.mark.parametrize("p,m", [(13, 4), (2, 16)])
def test_fields_above_the_table_cap_build_no_tables(p, m):
    F = make_extension(p, m)
    assert F.order > exactfield.TABLE_CAP
    rng = random.Random(p**m)
    for _ in range(40):
        a, b = F.random_element(rng), F.random_element(rng)
        assert F.mul(a, b) == _divmod_product(F, a, b)
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one()
    assert F._log == {} and F._exp == []


_ACCUMULATE_FIELDS = {
    "Q": lambda: QQ,
    "GF(7)": lambda: prime_field(7),
    "GF(2^3)": lambda: make_extension(2, 3),  # log tables
    "GF(13^4)": lambda: make_extension(13, 4),  # above TABLE_CAP: the integer kernel
    "Q(zeta8)": lambda: cyclotomic_field(8),
}


@pytest.mark.parametrize("label", list(_ACCUMULATE_FIELDS))
def test_accumulate_matches_field_sums_and_leaves_its_inputs_alone(label):
    """_accumulate(acc, pairs, v) adds N * v to acc[key] for each (key, N);
    after _drop_ints the sums are those of F.mul, F.add and F.from_int, and
    no input coordinate value is changed, also one stored as given for N = 1
    and hit again later."""
    F = _ACCUMULATE_FIELDS[label]()
    rng = random.Random(25)
    values = [F.random_element(rng) for _ in range(5)]
    coords, d = F._lift_ints(values)
    if isinstance(F, ExtensionField):
        F.mul(F.one(), F.one())  # builds the log tables where the field has them
        assert bool(F._log) == (label == "GF(2^3)")
        coords = [list(v) for v in coords]  # lists, so that an update in place would show
    before = [list(v) if isinstance(v, list) else v for v in coords]
    # (key, N, index of v): v 0 first stored as given (N = 1), then hit again;
    # v 1 under several keys; key 2 hit several times; N = 0, 1, -1 and larger
    triples = [(0, 1, 0), (0, 1, 1), (1, 1, 1), (2, -1, 1), (3, 17, 1), (0, -1, 0),
               (2, 0, 2), (2, 1, 3), (2, -40, 4), (4, 1, 2), (4, 1, 4)]
    triples += [(rng.randrange(6), rng.choice([0, 1, -1, rng.randint(2, 99)]), rng.randrange(5)) for _ in range(20)]
    acc: dict = {}
    want: dict = {}
    for key, N, i in triples:
        F._accumulate(acc, [(key, N)], coords[i])
        want[key] = F.add(want.get(key, F.zero()), F.mul(F.from_int(N), values[i]))
    # several pairs with one v in one call
    F._accumulate(acc, [(5, 1), (0, 3), (5, -2), (1, 1)], coords[3])
    for key, N in [(5, 1), (0, 3), (5, -2), (1, 1)]:
        want[key] = F.add(want.get(key, F.zero()), F.mul(F.from_int(N), values[3]))
    assert F._drop_ints(acc.items(), d) == {key: c for key, c in want.items() if not F.is_zero(c)}
    assert coords == before


# multiplicative_generator(F) and the primitive n-th root nth_roots_of_unity(F, n)[1],
# as found before products went through log tables; the order of EvContext's
# roots, and so the CLI output, follows from them
_GENERATORS_AND_ROOTS = {
    (2, 2, 3): ((0, 1), (0, 1)),
    (2, 3, 7): ((0, 1, 0), (0, 1, 0)),
    (3, 2, 8): ((1, 1), (1, 1)),
    (3, 3, 26): ((0, 1, 0), (0, 1, 0)),
    (3, 4, 16): ((0, 1, 0, 0), (0, 1, 2, 0)),
    (5, 2, 12): ((1, 1), (4, 2)),
    (7, 2, 16): ((2, 1), (2, 4)),
    (11, 2, 24): ((4, 1), (8, 10)),
    (2, 8, 17): ((1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 1, 1, 0, 0)),
    (2, 9, 73): ((1, 1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 1, 1)),
    (13, 4, 16): ((4, 1, 0, 0), (0, 0, 0, 12)),
    (2, 10, 11): ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0, 1, 1, 0, 1)),
}


@pytest.mark.parametrize("p,m,n", list(_GENERATORS_AND_ROOTS))
def test_generator_and_roots_unchanged_by_the_tables(p, m, n):
    F = make_extension(p, m)
    generator, zeta = _GENERATORS_AND_ROOTS[(p, m, n)]
    assert multiplicative_generator(F) == generator
    roots = nth_roots_of_unity(F, n)
    assert roots[1] == zeta
    assert list(roots) == [F.pow(zeta, i) for i in range(n)]


def test_extension_field_rejects_unsupported_base_or_modulus():
    ExtensionField(prime_field(3), (1, 0, 1))  # t^2 + 1 over GF(3) is accepted
    with pytest.raises(FieldError):
        ExtensionField(make_extension(2, 2), make_extension(2, 2).modulus)
    with pytest.raises(FieldError):
        ExtensionField(QQ, (Fraction(1, 2), Fraction(0), Fraction(1)))
    with pytest.raises(FieldError):
        ExtensionField(prime_field(3), (0.5, 0, 1))
    with pytest.raises(FieldError):
        ExtensionField(QQ, (Fraction(1), Fraction(0), Fraction(2)))  # not monic


def test_make_extension_examples():
    assert make_extension(7, 1) is prime_field(7)
    F49 = make_extension(7, 2)
    assert F49.order == 49
    # degree-2 modulus irreducible iff it has no roots in GF(7)
    modulus = [int(c) for c in F49.modulus]
    assert all(
        (modulus[0] + modulus[1] * x + modulus[2] * x * x) % 7 for x in range(7)
    )
    F8 = make_extension(2, 3)
    assert F8.order == 8
    assert gf_irreducible_by_trial_division(2, [int(c) for c in F8.modulus])
    with pytest.raises(FieldError):
        make_extension(6, 2)


# the first irreducible monic modulus in make_extension's scan (constant term
# counting fastest), low degree first; every field built on them depends on it
_MODULI = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (2, 5): [1, 0, 1, 0, 0, 1],
    (2, 6): [1, 1, 0, 0, 0, 0, 1],
    (2, 7): [1, 1, 0, 0, 0, 0, 0, 1],
    (2, 8): [1, 1, 0, 1, 1, 0, 0, 0, 1],
    (3, 2): [1, 0, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 1, 0, 0, 1],
    (5, 2): [2, 0, 1],
    (5, 3): [1, 1, 0, 1],
    (7, 2): [1, 0, 1],
    (7, 3): [2, 0, 0, 1],
    (11, 2): [1, 0, 1],
    (13, 4): [2, 0, 0, 0, 1],
}


@pytest.mark.parametrize("p,m", list(_MODULI))
def test_make_extension_modulus_is_the_first_irreducible(p, m):
    modulus = _MODULI[(p, m)]
    assert list(make_extension(p, m).modulus) == modulus
    assert gf_irreducible_by_trial_division(p, modulus)
    position = sum(c * p**i for i, c in enumerate(modulus[:-1]))
    for earlier in range(position):
        digits = [earlier // p**i % p for i in range(m)]
        assert not gf_irreducible_by_trial_division(p, digits + [1]), digits


# every GF(p^m) with p <= 13, m >= 2 and p^m <= 2197; make_extension skips the
# binomials for p = 2, p = 3, (5, 3) and (11, 3), and scans them for the rest
_SCANNED_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 12) if p**m <= 2197]


@pytest.mark.parametrize("p,m", _SCANNED_FIELDS)
def test_modulus_and_generator_match_the_full_scan(p, m):
    """make_extension skips the binomials x^m + c when none can be
    irreducible, and multiplicative_generator skips the constants; neither
    may change the first hit of the scan over every candidate."""
    F = make_extension(p, m)
    assert F.modulus == first_irreducible_by_full_scan(p, m)
    assert multiplicative_generator(F) == first_generator_by_powers(p, F.modulus)


def test_a_large_prime_extension_scans_a_few_candidates(monkeypatch):
    """GF(100003^4): 100003 = 3 mod 4, so no x^4 + c is irreducible, and no
    constant generates. A scan through the p binomials or the p constants
    fails here after 40 irreducibility tests or 100 powers."""
    real = exactfield.is_irreducible
    tests = []

    def counted_is_irreducible(F, f):
        tests.append(f)
        assert len(tests) <= 40, "make_extension tested more than 40 candidates"
        return real(F, f)

    monkeypatch.setattr(exactfield, "is_irreducible", counted_is_irreducible)
    F = make_extension.__wrapped__(100003, 4)  # not the cached field: its scan runs here
    assert F.modulus == (7, 1, 0, 0, 1)
    powers = []

    def counted_pow(a, exponent):
        powers.append(a)
        assert len(powers) <= 100, "multiplicative_generator took more than 100 powers"
        return ExtensionField.pow(F, a, exponent)

    monkeypatch.setattr(F, "pow", counted_pow)
    assert multiplicative_generator(F) == (0, 1, 0, 0)


def test_make_extension_refuses_a_degree_above_the_bound():
    bound = exactfield.MAX_EXTENSION_DEGREE
    with pytest.raises(exactfield.DegreeLimitError, match=f"extension degree {bound + 1} above the supported bound {bound}"):
        make_extension(2, bound + 1)
    with pytest.raises(exactfield.DegreeLimitError, match="'GF\\(2\\^99999999\\)'"):
        parse_field("GF(2^99999999)")


def test_extension_determinism():
    assert make_extension(7, 2).modulus == make_extension(7, 2).modulus
    assert make_extension(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1


def test_extension_elements_vary_the_constant_term_fastest():
    """multiplicative_generator, the zero-divisor witnesses and the scan of
    make_extension all read the elements in this order."""
    assert list(make_extension(2, 3).elements()) == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)
    ]
    assert list(make_extension(3, 2).elements()) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)
    ]


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("GF(7)").order == 7
    assert parse_field("GF(3^2)").order == 9
    with pytest.raises(FieldError):
        parse_field("R")


def test_nth_roots_examples():
    F7 = prime_field(7)
    # cube roots oracle: all x in GF(7) with x^3 = 1
    assert set(nth_roots_of_unity(F7, 3)) == {x for x in range(1, 7) if pow(x, 3, 7) == 1}
    assert set(nth_roots_of_unity(F7, 3)) == {1, 2, 4}
    assert set(nth_roots_of_unity(F7, 6)) == {1, 2, 3, 4, 5, 6}
    assert nth_roots_of_unity(F7, 1) == (1,)
    assert nth_roots_of_unity(F7, 3)[0] == 1


@pytest.mark.parametrize(
    "F,n",
    [
        (prime_field(11), 10),
        (prime_field(13), 12),
        (make_extension(2, 4), 5),
        (make_extension(3, 2), 8),
        (cyclotomic_field(12), 12),
        (cyclotomic_field(5), 5),
    ],
    ids=lambda v: getattr(v, "label", v),
)
def test_roots_product_polynomial(F, n):
    """prod (x - zeta) over all n-th roots equals x^n - 1 coefficientwise."""
    roots = nth_roots_of_unity(F, n)
    assert len(set(roots)) == n
    poly = Poly.one(F)
    x = Poly.x(F)
    for zeta in roots:
        poly = poly * (x - Poly.constant(F, zeta))
    expected = Poly(F, [F.neg(F.one())] + [F.zero()] * (n - 1) + [F.one()])
    assert poly == expected


def test_roots_error_cases():
    with pytest.raises(UnsupportedCharacteristicError):
        nth_roots_of_unity(prime_field(5), 10)  # p | n
    with pytest.raises(FieldError):
        nth_roots_of_unity(prime_field(7), 5)  # 5 does not divide 6
    with pytest.raises(FieldError):
        nth_roots_of_unity(QQ, 3)
    assert nth_roots_of_unity(QQ, 2) == (Fraction(1), Fraction(-1))


def test_generator_deterministic():
    assert multiplicative_generator(prime_field(7)) == 3
    assert multiplicative_generator(prime_field(11)) == 2


def test_is_irreducible_finite_examples():
    F3, F5 = prime_field(3), prime_field(5)
    assert is_irreducible(F3, int_poly(F3, [-1, -1, 1])) is True
    assert is_irreducible(F5, int_poly(F5, [-1, -1, 1])) is False
    assert is_irreducible(F5, int_poly(F5, [0, 1])) is True  # y
    with pytest.raises(FieldError):
        is_irreducible(F5, int_poly(F5, [3]))
    for F in (QQ, cyclotomic_field(4)):
        with pytest.raises(FieldError, match="finite fields only"):
            is_irreducible(F, int_poly(F, [-2, 0, 1]))


def test_field_mismatch_raises():
    """A polynomial or matrix over a field other than the one asked about is
    refused. Read over GF(3), x^2 + x + 1 over GF(2) has the root x = 1, and
    the char poly of a matrix with a 1/2 entry over Q holds -5/2."""
    F2, F3 = prime_field(2), prime_field(3)
    f = int_poly(F2, [1, 1, 1])
    assert is_irreducible(F2, f) is True
    for fn in (is_irreducible, distinct_degree_profile):
        with pytest.raises(FieldError, match="over GF\\(2\\), asked over GF\\(3\\)"):
            fn(F3, f)
    M = SquareMatrix(QQ, [[Fraction(1, 2), 1], [0, 2]])
    assert char_poly(QQ, M).coeffs == (1, Fraction(-5, 2), 1)
    for fn in (char_poly, min_poly):
        with pytest.raises(FieldError, match="over Q, asked over GF\\(3\\)"):
            fn(F3, M)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_finite_against_trial_division(p):
    rng = random.Random(99 + p)
    F = prime_field(p)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        poly = int_poly(F, coeffs)
        assert is_irreducible(F, poly) == gf_irreducible_by_trial_division(p, coeffs)


def test_char_poly_examples():
    assert char_poly(QQ, SquareMatrix.from_int_rows(QQ, [[1, 0], [0, 1]])).coeffs == (
        Fraction(1),
        Fraction(-2),
        Fraction(1),
    )
    M = SquareMatrix.from_int_rows(QQ, [[1, -1], [-1, 0]])
    assert char_poly(QQ, M).coeffs == (Fraction(-1), Fraction(-1), Fraction(1))


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_char_poly_against_sympy_and_cayley_hamilton(size):
    rng = random.Random(size * 17)
    rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    M = SquareMatrix.from_int_rows(QQ, rows)
    mine = char_poly(QQ, M)
    # sympy gives det(xI - M); ours is det(M - xI) = (-1)^size * that
    expected = sympy_charpoly_coeffs(rows)
    sign = 1 if size % 2 == 0 else -1
    assert list(mine.coeffs) == [sign * c for c in expected]
    assert sympy_min_poly_is_minimal(rows, mine.coeffs)  # Cayley-Hamilton, and M is nonderogatory
    # and over GF(7)
    F7 = prime_field(7)
    M7 = SquareMatrix.from_int_rows(F7, rows)
    mine7 = char_poly(F7, M7)
    assert list(mine7.coeffs) == [F7.from_int(int(sign * c)) for c in expected]
    assert sympy_min_poly_is_minimal(rows, mine7.monic().coeffs, 7)


def _charpoly_rows(F, shape, rng):
    """A test matrix over F: the closed-form degree-zero matrix of Gr(2, 14),
    a random tridiagonal or dense one, or a block upper-triangular one whose
    zero lower-left block leaves the Hessenberg reduction without a pivot."""

    def draw():
        if F == QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return F.random_element(rng)

    if shape == "closed-form":
        return [list(row) for row in closed_form_matrix(14, F).rows]
    size = 5 if shape == "dense" else 7
    rows = [[draw() for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (shape == "tridiagonal" and abs(i - j) > 1) or (shape == "block" and i >= 3 > j):
                rows[i][j] = F.zero()
    return rows


@pytest.mark.parametrize("shape", ["closed-form", "tridiagonal", "dense", "block"])
@pytest.mark.parametrize("F", [QQ, prime_field(3), make_extension(2, 2)], ids=lambda f: f.label)
def test_char_poly_against_sympy_oracle(F, shape):
    rows = _charpoly_rows(F, shape, random.Random(f"{F.label}-{shape}"))
    mine = char_poly(F, SquareMatrix(F, rows))
    if F == QQ:
        expected = sympy_charpoly_reduced([[[c] for c in row] for row in rows])
    elif F.order == F.characteristic:
        expected = sympy_charpoly_reduced([[[c] for c in row] for row in rows], F.order)
    else:
        entries = [[list(c) for c in row] for row in rows]
        expected = [tuple(c) for c in sympy_charpoly_reduced(entries, F.characteristic, F.modulus)]
    # the oracle gives det(xI - M); char_poly is det(M - xI) = (-1)^size times that
    if len(rows) % 2:
        expected = [F.neg(c) for c in expected]
    assert list(mine.coeffs) == expected
    assert all(type(c) is type(F.one()) for c in mine.coeffs)


def test_char_poly_work_on_tridiagonal_matrices_is_quadratic():
    class CountingQ(RationalField):
        muls = 0

        def mul(self, a, b):
            CountingQ.muls += 1
            return a * b

    F = CountingQ()
    work = []
    for n in (41, 81):  # sizes 20 and 40
        M = closed_form_matrix(n, F)
        CountingQ.muls = 0
        assert char_poly(F, M) == char_poly(QQ, closed_form_matrix(n, QQ))
        work.append(CountingQ.muls)
    assert work[1] < 5 * work[0]  # doubling the size: 4x for O(size^2), 8x for O(size^3)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_char_poly_over_q_reduces_mod_p_to_the_char_poly_over_gf_p(p):
    """Reduction mod p is a ring map, so it commutes with det(M - xI): the
    char_poly over Q of an integer matrix, reduced mod p, is the char_poly
    over GF(p) of the reduced matrix. The two share no arithmetic: Fractions
    over Q, residues over GF(p), where pivots vanish that do not over Q. On
    closed_form_matrix(n) for n = 3..40 and seeded integer matrices of sizes 1..8."""
    F, rng = prime_field(p), random.Random(f"charpoly mod {p}")
    matrices = [[[int(c) for c in row] for row in closed_form_matrix(n, QQ).rows] for n in range(3, 41)]
    for size in range(1, 9):
        matrices += [[[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)] for _ in range(3)]
    for rows in matrices:
        over_q = char_poly(QQ, SquareMatrix.from_int_rows(QQ, rows)).coeffs
        assert all(c.denominator == 1 for c in over_q)
        want = [F.from_int(c.numerator) for c in over_q]
        assert list(char_poly(F, SquareMatrix.from_int_rows(F, rows)).coeffs) == want, rows


def test_is_irreducible_over_gf4_against_distinct_degree_profile():
    """Both answers from the shared distinct-degree split, and trial division
    by every monic polynomial of degree <= deg/2 over GF(4)."""
    F = make_extension(2, 2)
    elements = list(F.elements())

    def has_small_factor(f):
        return any(
            (f % Poly(F, list(tail) + [F.one()])).is_zero
            for d in range(1, int(f.degree) // 2 + 1)
            for tail in itertools.product(elements, repeat=d)
        )

    rng = random.Random(44)
    seen = set()
    for _ in range(60):
        deg = rng.randint(2, 9)
        f = Poly(F, [F.random_element(rng) for _ in range(deg)] + [F.one()])
        if poly_gcd(f, f.derivative()).degree != 0:
            assert is_irreducible(F, f) is False, f
            continue
        irreducible = distinct_degree_profile(F, f) == [deg]
        seen.add(irreducible)
        assert is_irreducible(F, f) is irreducible, f
        assert irreducible is not has_small_factor(f), f
    assert seen == {True, False}
    # degrees 2 + 3: the product has no linear factor, and the degree-2 part rejects it
    quadratic = next(
        g for g in (Poly(F, [a, b, F.one()]) for a in F.elements() for b in F.elements())
        if is_irreducible(F, g)
    )
    cubic = next(
        g for g in (Poly(F, [a, b, c, F.one()]) for a in F.elements() for b in F.elements() for c in F.elements())
        if is_irreducible(F, g)
    )
    assert distinct_degree_profile(F, quadratic * cubic) == [2, 3]
    assert is_irreducible(F, quadratic * cubic) is False


def test_rational_inverse_and_quotient_are_fractions():
    for value, want in ((QQ.inv(2), Fraction(1, 2)), (QQ.div(1, 2), Fraction(1, 2)), (QQ.div(6, -4), Fraction(-3, 2))):
        assert value == want and type(value) is Fraction
    monic = Poly(QQ, [1, 0, 2]).monic()
    assert monic.coeffs == (Fraction(1, 2), Fraction(0), Fraction(1))
    assert all(type(c) is Fraction for c in monic.coeffs)


def test_rational_quotient_equals_fraction_on_every_operand_type():
    """QQ.div divides two Fractions through their integer ratios and sends any
    other pair to Fraction(a, b): the same value and exact type either way."""
    rng = random.Random(35)
    ints = [1, -1, 7, -12, 10**30 + 7] + [rng.randint(-10**6, 10**6) or 1 for _ in range(12)]
    fractions = [Fraction(3, 4), Fraction(-10**20, 3), QQ.from_int(6), QQ.one()]
    fractions += [Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99)) for _ in range(12)]
    values = ints + fractions + [0, Fraction(0)]
    for a in values:
        for b in values[:-2]:
            got = QQ.div(a, b)
            assert got == Fraction(a, b) and type(got) is Fraction, (a, b)
    for a in (Fraction(3, 4), 5, 0, Fraction(0)):
        for zero in (0, Fraction(0), QQ.zero(), 0.0):
            with pytest.raises(ZeroDivisionError):
                QQ.div(a, zero)
    for a, b in ((2.5, Fraction(1, 2)), (Fraction(1, 2), 2.5), (1.0, 2), (3, 0.5), (Fraction(1, 3), "2")):
        with pytest.raises(TypeError):
            QQ.div(a, b)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (7, 2), (13, 3)])
def test_extension_products_keep_single_terms_and_equal_the_generic_form(p, m, monkeypatch):
    """quantum_product over GF(p^m) keeps an output entry of one term with
    N = 1 as mul returned it (_canon_ints keeps a tuple as given); its codes
    and den equal those of a reference that reduces and zero-tests every sum
    (_drop_ints), and each coefficient equals the sum, by F.mul and F.add,
    of N * a_i * b_j over the schubert_product constants. The seeded
    products reach entries of one term, entries whose terms cancel, and
    constants N > 1. GF(13^3) is above TABLE_CAP."""
    F = make_extension(p, m)
    ctx = GrContext(3, 6)
    diagrams = enumerate_diagrams(ctx)
    rng = random.Random(100 * p + m)

    def element(size):
        terms = {}
        while len(terms) < size:
            c = F.random_element(rng)
            if not F.is_zero(c):
                terms[rng.choice(diagrams), rng.randrange(2)] = c
        return QhElement(ctx, F, terms)

    pairs = [(element(rng.randint(1, 4)), element(rng.randint(1, 4))) for _ in range(60)]
    x = element(3)
    pairs.append((x, x))  # every cross term twice
    # sigma_1 * (sigma_2 - sigma_11) = sigma_3 - sigma_111: sigma_21 cancels
    one, two, column = (YoungDiagram(rows) for rows in ((1,), (2,), (1, 1)))
    difference = QhElement(ctx, F, {(two, 0): F.one(), (column, 0): F.neg(F.one())})
    pairs.append((QhElement(ctx, F, {(one, 0): F.one()}), difference))
    fast = [quantum_product(a, b) for a, b in pairs]
    monkeypatch.setattr(F, "_canon_ints", lambda items, d: (F._drop_ints(items, d), 1))
    kinds = set()
    for (a, b), got in zip(pairs, fast):
        generic = quantum_product(a, b)
        assert got.codes == generic.codes and got.den == generic.den == 1
        assert all(type(v) is tuple and len(v) == m and all(0 <= c < p for c in v) for v in got.codes.values())
        parts: dict = {}
        for (da, ma), ca in a.terms.items():
            for (db, mb), cb in b.terms.items():
                for (d, mq), N in schubert_product(ctx, da, db).items():
                    parts.setdefault((d, mq + ma + mb), []).append((N, F.mul(ca, cb)))
        terms = got.terms
        for key, contributions in parts.items():
            want = F.zero()
            for N, c in contributions:
                want = F.add(want, F.mul(F.from_int(N), c))
            assert terms.get(key, F.zero()) == want
            if len(contributions) == 1 and contributions[0][0] == 1:
                kinds.add("one term, N = 1")
            if F.is_zero(want):
                kinds.add("cancels")
            if any(N > 1 for N, _ in contributions):
                kinds.add("N > 1")
        assert set(terms) <= set(parts)
    assert kinds == {"one term, N = 1", "cancels", "N > 1"}


CANON_FIELDS = {
    "GF(2^3)": make_extension(2, 3),
    "GF(13^3)": make_extension(13, 3),
    "Q(zeta8)": cyclotomic_field(8),
    "GF(7)": prime_field(7),
    "Q": QQ,
}


def _reference_canon(F):
    """A _canon_ints that reduces and zero-tests every value: the values
    themselves as coordinates over 1, which QhElement.terms and
    verify_ideal_vanishing read back to the same elements."""
    return lambda items, d: (F._drop_ints(items, d), 1)


@pytest.mark.parametrize("label", list(CANON_FIELDS))
def test_every_element_sum_ends_in_the_one_canonical_step(label, monkeypatch):
    """scale, -x, x + y, x - y and x - x end their integer sums in
    _canon_ints, which over GF(p^m) keeps a tuple as given and reduces and
    zero-tests a list. Each seeded result equals the reference that reduces
    and zero-tests every value (over a finite field, code for code), and is
    in the constructor's canonical form. GF(2^3) multiplies by log tables,
    GF(13^3), above TABLE_CAP, by the integer kernel."""
    F = CANON_FIELDS[label]
    ctx = GrContext(3, 6)
    diagrams = enumerate_diagrams(ctx)
    rng = random.Random(f"one canonical step {label}")

    def element():
        size = rng.randint(0, 5)
        return QhElement(ctx, F, {(rng.choice(diagrams), rng.randint(-1, 1)): F.random_element(rng) for _ in range(size)})

    cases = []
    for _ in range(40):
        x = element()
        y = element() - x if rng.random() < 0.5 else element()  # x + y then cancels x
        c = rng.choice([F.zero(), F.one(), F.neg(F.one()), F.random_element(rng)])
        cases.append((x, y, c))

    def results(x, y, c):
        return [x.scale(c), -x, x + y, x - y, x - x]

    got = [results(*case) for case in cases]
    for values in got:
        for value in values:
            canonical = QhElement(ctx, F, value.terms)
            assert value.codes == canonical.codes and value.den == canonical.den
        assert not values[-1] and values[-1].den == 1
    monkeypatch.setattr(F, "_canon_ints", _reference_canon(F))
    for case, values in zip(cases, got):
        for value, want in zip(values, results(*case)):
            assert value.terms == want.terms
            if F.characteristic:
                assert value.codes == want.codes and value.den == want.den == 1


@pytest.mark.parametrize("k,n", [(3, 13), (4, 10)], ids=["GF(3^3)", "GF(3^4)"])
def test_ideal_vanishing_reports_the_reference_values(k, n, monkeypatch):
    """verify_ideal_vanishing ends each h_r's sum in _canon_ints; on every
    admissible multiset, and on seeded tuples off the roots where the
    generators do not vanish, it reports what the reference that reduces
    and zero-tests every value reports."""
    ev = EvContext(GrContext(k, n), prime_field(3))
    K = ev.field
    rng = random.Random(f"ideal vanishing {k} {n}")
    on_roots = admissible_multisets(K, k, n)
    off_roots = [AdmissibleMultiset(tuple(range(k)), tuple(K.random_element(rng) for _ in range(k))) for _ in range(8)]
    on, off = ([verify_ideal_vanishing(ev, J) for J in multisets] for multisets in (on_roots, off_roots))
    assert all(report["all_ok"] for report in on) and not all(report["all_ok"] for report in off)
    monkeypatch.setattr(K, "_canon_ints", _reference_canon(K))
    assert [verify_ideal_vanishing(ev, J) for J in on_roots] == on
    assert [verify_ideal_vanishing(ev, J) for J in off_roots] == off


def test_characteristic_is_read_the_same_on_every_field():
    """characteristic, a plain attribute set once per field, is 0 over Q
    and Q(zeta_N) and p over GF(p) and GF(p^m), on subclasses too."""

    class SubQ(RationalField):
        pass

    fields = [
        (QQ, 0), (SubQ(), 0), (cyclotomic_field(8), 0), (cyclotomic_field(14), 0),
        (prime_field(7), 7), (_per_element_prime_field(5), 5), (make_extension(2, 3), 2),
        (make_extension(13, 3), 13), (parse_field("GF(3^4)"), 3),
    ]
    for F, p in fields:
        assert F.characteristic == p, F.label


def test_min_poly_examples():
    identity = SquareMatrix.from_int_rows(QQ, [[int(i == j) for j in range(3)] for i in range(3)])
    assert min_poly(QQ, identity).coeffs == (Fraction(-1), Fraction(1))
    D = SquareMatrix.from_int_rows(QQ, [[1, 0], [0, 2]])
    assert min_poly(QQ, D).coeffs == (Fraction(2), Fraction(-3), Fraction(1))


def test_min_poly_jordan_blocks():
    J = SquareMatrix.from_int_rows(QQ, [[1, 1], [0, 1]])
    assert min_poly(QQ, J).coeffs == (Fraction(1), Fraction(-2), Fraction(1))  # (x-1)^2
    N = SquareMatrix.from_int_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert min_poly(QQ, N).coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    # blocks J2(1), J1(1), J2(2): minimal polynomial (x-1)^2 (x-2)^2, degree 4 of 5
    rows = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 1], [0, 0, 0, 0, 2]]
    mp = min_poly(QQ, SquareMatrix.from_int_rows(QQ, rows))
    assert mp.coeffs == (Fraction(4), Fraction(-12), Fraction(13), Fraction(-6), Fraction(1))


def _jordan_rows(blocks, rng):
    """Integer matrix similar to the direct sum of Jordan blocks J_size(value):
    the block-diagonal matrix conjugated by a product of integer shears."""
    size = sum(s for s, _ in blocks)
    rows = [[0] * size for _ in range(size)]
    start = 0
    for s, value in blocks:
        for i in range(start, start + s):
            rows[i][i] = value
            if i + 1 < start + s:
                rows[i][i + 1] = 1
        start += s
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-1, 1])
        # M -> E M E^-1 with E = I + c e_ij: row i += c row j, then column j -= c column i
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for row in rows:
            row[j] -= c * row[i]
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_min_poly_is_minimal_against_sympy(seed):
    """min_poly over Q on dense integer matrices and on conjugated Jordan forms
    with repeated blocks (derogatory ones), checked for minimality by sympy."""
    rng = random.Random(4100 + seed)
    if seed % 3 == 0:
        size = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    else:
        values = rng.sample(range(-2, 3), rng.randint(1, 2))
        blocks = [(rng.randint(1, 3), rng.choice(values)) for _ in range(rng.randint(2, 4))]
        blocks.append(blocks[0])  # a repeated Jordan block
        rows = _jordan_rows(blocks, rng)
    mp = min_poly(QQ, SquareMatrix.from_int_rows(QQ, rows))
    assert mp.lc() == 1
    assert sympy_min_poly_is_minimal(rows, mp.coeffs), (rows, mp)


@pytest.mark.parametrize("seed", range(6))
def test_min_poly_divides_char_poly(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 5)
    F = random.Random(seed + 1).choice([QQ, prime_field(5), prime_field(2)])
    rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    M = SquareMatrix.from_int_rows(F, rows)
    mp = min_poly(F, M)
    cp = char_poly(F, M)
    assert (cp % mp).is_zero
    assert sympy_min_poly_is_minimal(*_oracle_args(F, M.rows, mp.coeffs))
    assert mp.lc() == F.one()


MIN_POLY_FIELDS = [QQ, prime_field(2), prime_field(3), make_extension(2, 2)]


def _sample(F, rng):
    if F.order is None:
        return Fraction(rng.randint(-3, 3))
    return rng.choice(list(F.elements()))


def _oracle_args(F, rows, coeffs):
    """rows and coefficients in the form of sympy_min_poly_is_minimal, with its p and modulus."""
    if F.order is None:
        return [[int(c) for c in row] for row in rows], coeffs, 0, None
    if isinstance(F, ExtensionField):
        as_lists = [[list(c) for c in row] for row in rows]
        return as_lists, [list(c) for c in coeffs], F.characteristic, F.modulus
    return rows, coeffs, F.characteristic, None


def _derogatory_rows(F, rng):
    """A + A + B (direct sum, A and B random) conjugated by shears
    I + c e_ij with c = +-1: its minimal polynomial has degree at most
    deg A + deg B, below the size."""
    blocks = []
    for size in (rng.randint(1, 2), rng.randint(1, 2)):
        blocks.append([[_sample(F, rng) for _ in range(size)] for _ in range(size)])
    blocks.insert(1, blocks[0])
    size = sum(len(b) for b in blocks)
    rows = [[F.zero()] * size for _ in range(size)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[start + i][start : start + len(b)] = row
        start += len(b)
    return _conjugated(F, rows, rng)


def _conjugated(F, rows, rng):
    """rows conjugated in place by 2 * size random shears I + c e_ij, c = +-1."""
    size = len(rows)
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([F.one(), F.neg(F.one())])
        # M -> E M E^-1 with E = I + c e_ij: row i += c row j, then column j -= c column i
        rows[i] = [F.add(a, F.mul(c, b)) for a, b in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = F.sub(row[j], F.mul(c, row[i]))
    return rows


@pytest.mark.parametrize("F", MIN_POLY_FIELDS, ids=lambda f: f.label)
@pytest.mark.parametrize("seed", range(8))
def test_min_poly_minimal_on_nonderogatory_and_derogatory_matrices(F, seed):
    """Dense random matrices (even seeds) and derogatory direct sums (odd
    seeds): min_poly is minimal by the sympy oracle, and equals the Krylov
    lcm in value and coefficient type."""
    rng = random.Random(5300 + seed)
    if seed % 2 == 0:
        size = rng.randint(1, 5)
        rows = [[_sample(F, rng) for _ in range(size)] for _ in range(size)]
    else:
        rows = _derogatory_rows(F, rng)
    M = SquareMatrix(F, rows)
    mp = min_poly(F, M)
    if seed % 2:
        assert mp.degree < M.size
    assert sympy_min_poly_is_minimal(*_oracle_args(F, rows, mp.coeffs)), (rows, mp)
    krylov = _all_seeds_lcm(F, M)
    assert mp == krylov
    assert [type(c) for c in mp.coeffs] == [type(c) for c in krylov.coeffs]


def _all_seeds_lcm(F, M):
    """The lcm over every unit vector e of the minimal polynomial at e of
    M's Hessenberg form, which is M's minimal polynomial."""
    h = exactfield._hessenberg(F, M)
    return reduce(poly_lcm, [exactfield._krylov_min_poly(F, h, s) for s in range(M.size)])


def _block_triangular_rows(F, rng):
    """Block upper-triangular matrix of size 2-7, conjugated by shears:
    random diagonal blocks of sizes 1-3, one or two of them repeated, in a
    random order, and above them each block pair coupled by random entries
    with probability 1/2 (left zero otherwise, so most are derogatory)."""
    while True:
        distinct = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        sizes = distinct + [rng.choice(distinct) for _ in range(rng.randint(1, 2))]
        if sum(sizes) <= 7:
            break
    blocks = {s: [[_sample(F, rng) for _ in range(s)] for _ in range(s)] for s in sizes}
    rng.shuffle(sizes)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    rows = [[F.zero()] * sum(sizes) for _ in range(sum(sizes))]
    for b, (start, s) in enumerate(zip(starts, sizes)):
        for i, row in enumerate(blocks[s]):
            rows[start + i][start : start + s] = row
        for c in range(b + 1, len(sizes)):
            if rng.random() < 0.5:
                for i in range(s):
                    rows[start + i][starts[c] : starts[c] + sizes[c]] = [_sample(F, rng) for _ in range(sizes[c])]
    return _conjugated(F, rows, rng)


# cells per field, 1000 in all, fewer where the sympy oracle is slower
BLOCK_START_CELLS = {QQ: 400, prime_field(2): 250, prime_field(3): 200, make_extension(2, 2): 150}


@pytest.mark.parametrize("F", BLOCK_START_CELLS, ids=lambda f: f.label)
def test_min_poly_seeds_the_hessenberg_block_starts(F):
    """Seeded block upper-triangular matrices with repeated diagonal blocks:
    min_poly, which seeds only the block starts of the Hessenberg form,
    equals the lcm over every unit vector on the same form, in value and
    coefficient type, and is minimal by the sympy oracle. Most of the forms
    have several blocks."""
    rng = random.Random(f"block starts {F.label}")
    cells = BLOCK_START_CELLS[F]
    several = 0
    for _ in range(cells):
        rows = _block_triangular_rows(F, rng)
        M = SquareMatrix(F, rows)
        h = exactfield._hessenberg(F, M)
        several += any(F.is_zero(h[i][i - 1]) for i in range(1, M.size))
        mp, want = min_poly(F, M), _all_seeds_lcm(F, M)
        assert mp == want, rows
        assert [type(c) for c in mp.coeffs] == [type(c) for c in want.coeffs]
        assert sympy_min_poly_is_minimal(*_oracle_args(F, rows, mp.coeffs)), (rows, mp)
    assert several > cells // 2


@pytest.mark.parametrize("F", MIN_POLY_FIELDS, ids=lambda f: f.label)
def test_min_poly_with_a_zero_subdiagonal(F):
    """J_2(1) + J_1(1) + J_2(0), conjugated: the Hessenberg form has a zero
    on its subdiagonal, and the minimal polynomial (x - 1)^2 x^2, of degree
    4, is not the characteristic one, (x - 1)^3 x^2."""
    rows = _jordan_rows([(2, 1), (1, 1), (2, 0)], random.Random(11))
    M = SquareMatrix.from_int_rows(F, rows)
    h = exactfield._hessenberg(F, M)
    assert any(F.is_zero(h[i][i - 1]) for i in range(1, M.size))
    mp = min_poly(F, M)
    assert mp.degree == 4 and mp != char_poly(F, M).monic()
    assert mp == int_poly(F, [0, 0, 1, -2, 1])
    entries = [[F.from_int(v) for v in row] for row in rows]
    assert sympy_min_poly_is_minimal(*_oracle_args(F, entries, mp.coeffs))


def test_min_poly_of_the_closed_form_matrices_is_the_char_poly():
    for F in MIN_POLY_FIELDS:
        for n in (5, 8, 13, 30, 31):
            M = closed_form_matrix(n, F)
            krylov = exactfield._krylov_min_poly(F, exactfield._hessenberg(F, M), 0)
            assert min_poly(F, M) == char_poly(F, M).monic() == krylov


def _kernel_is_singular(F, M):
    """The zero-divisor search's singularity test on M, each entry expanded
    into its block over GF(p)."""
    p = F.characteristic
    rows = _gf_p_rows(p, [[_mult_block(F, a) for a in row] for row in M.rows])
    before = [list(r) if p != 2 else r for r in rows]
    verdict = _is_singular_mod_p(p, rows)
    assert rows == before  # the kernel leaves its rows as given
    return verdict


@pytest.mark.parametrize(
    "F",
    FIELDS_UNDER_TEST + [prime_field(3), make_extension(2, 2), make_extension(3, 2)],
    ids=lambda f: f.label,
)
def test_is_singular_against_determinant(F, monkeypatch):
    """Seeded matrices of sizes 1-6, every third made singular (the last row
    a combination of the others, or zero when it is the only one), plus the
    zero matrix and a permuted identity. Over a finite field the zero-divisor
    search's kernel must agree with the determinant and with the
    cross-multiplying elimination; over Q and Q(zeta_N) the elimination
    alone is checked. Neither inverts a field element."""
    rng = random.Random(6100)
    matrices = []
    for trial in range(40):
        size = rng.randint(1, 6)
        rows = [[F.random_element(rng) for _ in range(size)] for _ in range(size)]
        if trial % 3 == 0 and size == 1:
            rows = [[F.zero()]]
        elif trial % 3 == 0:
            a, b = F.random_element(rng), F.random_element(rng)
            rows[-1] = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(rows[0], rows[-2])]
        matrices.append(SquareMatrix(F, rows))
    matrices.append(SquareMatrix.from_int_rows(F, [[0] * 4 for _ in range(4)]))
    perm = [3, 0, 5, 1, 4, 2]
    matrices.append(SquareMatrix.from_int_rows(F, [[int(j == perm[i]) for j in range(6)] for i in range(6)]))
    want = [F.is_zero(determinant(M)) for M in matrices]
    assert all(want[:40:3]) and want[-2:] == [True, False]

    def no_inverse(self, a):
        raise AssertionError("a singularity test inverted a field element")

    monkeypatch.setattr(type(F), "inv", no_inverse)
    assert [cross_multiplied_is_singular(M) for M in matrices] == want
    if F.order is not None:
        assert [_kernel_is_singular(F, M) for M in matrices] == want
    assert True in want[:40] and False in want[:40]


def test_poly_text_format():
    f = int_poly(QQ, [1, 0, 2])
    assert f.to_text() == "1 + 2*x^2"
    assert Poly.zero(QQ).to_text() == "0"
    assert int_poly(QQ, [0, 1]).to_text() == "x"


def test_distinct_degree_profile_and_factors():
    F2 = prime_field(2)
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2) (order of 2 mod 5 is 4)
    assert distinct_degree_profile(F2, int_poly(F2, [1, 1, 1, 1, 1])) == [4]
    # x^5 - 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1) over GF(2)
    profile = distinct_degree_profile(F2, int_poly(F2, [1, 0, 0, 0, 0, 1]))
    assert profile == [1, 4]
    assert [len(c) - 1 for c in sympy_factors_mod_p([1, 0, 0, 0, 0, 1], 2)] == profile


# degrees drawn for each product: three of one degree, so that the
# distinct-degree part of that degree needs Cantor-Zassenhaus to split
_FACTOR_DEGREES = {2: (4, 4, 4, 1, 3), 3: (2, 2, 2, 1, 3), 5: (1, 1, 1, 2, 3)}


def _distinct_irreducibles(p, degrees, rng):
    chosen: list[tuple[int, ...]] = []
    for d in degrees:
        while True:
            coeffs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if coeffs not in chosen and gf_irreducible_by_trial_division(p, list(coeffs)):
                chosen.append(coeffs)
                break
    return chosen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_finite_factoring_against_sympy(p):
    F = prime_field(p)
    rng = random.Random(600 + p)
    for case in range(6):
        degrees = _FACTOR_DEGREES[p][: 3 + case % 3]
        pieces = _distinct_irreducibles(p, degrees, rng)
        f = Poly.one(F)
        for c in pieces:
            f = f * int_poly(F, c)
        f = f.scale(F.from_int(rng.randrange(1, p)))  # the profile needs no monic input
        want = sympy_factors_mod_p([int(c) for c in f.coeffs], p)
        assert sorted(pieces, key=lambda c: (len(c), c)) == want
        assert distinct_degree_profile(F, f) == [len(c) - 1 for c in want]
    irreducible = _distinct_irreducibles(p, (7,), rng)[0]
    f = int_poly(F, irreducible)
    assert sympy_factors_mod_p(list(irreducible), p) == [irreducible]
    assert distinct_degree_profile(F, f) == [7]


@pytest.mark.parametrize("n", [3, 5, 7, 15, 21])
def test_distinct_degree_profile_over_gf4_is_the_order_of_4(n):
    # Phi_n splits over GF(4) into factors of degree ord_n(4), fewer than over
    # GF(2) when ord_n(2) is even, so the split must take x^(4^d), not x^(2^d)
    F = make_extension(2, 2)
    f = int_poly(F, cyclotomic_polynomial(n))
    d = multiplicative_order(4, n)
    assert distinct_degree_profile(F, f) == [d] * (int(f.degree) // d)
    assert is_irreducible(F, f) is (d == f.degree)


def test_equal_polys_over_equal_fields_hash_alike():
    """GF(2^2) from make_extension and the same field built by hand are equal
    fields under different labels; x^2 + t x + 1 over each is one polynomial,
    so the two hash alike and a set keeps one of them."""
    A, B = make_extension(2, 2), ExtensionField(prime_field(2), (1, 1, 1))
    assert A == B and A.label != B.label
    a, b = (Poly(F, [F.one(), F.gen(), F.one()]) for F in (A, B))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# the fields of the memo tests
MEMO_FIELDS = [prime_field(p) for p in (2, 3, 5, 7)] + [make_extension(2, 2), make_extension(3, 2)]


def _twin(F):
    """A field equal to F that is another object."""
    if isinstance(F, ExtensionField):
        return ExtensionField(F.base, [int(c) for c in F.modulus])
    return RationalField() if F.order is None else PrimeField(F.p)


def _split_memo_polys(F, rng):
    """pi of Gr(2, n) for n = 3..70 over F, then seeded polynomials of degree
    1-24 with a random leading coefficient: single draws, products of two
    (some with a repeated factor, so not squarefree) and squares."""
    polys = [char_poly(F, closed_form_matrix(n, F)) for n in range(3, 71)]
    elements = list(F.elements())
    nonzero = elements[1:]

    def draw(degree):
        return Poly(F, [rng.choice(elements) for _ in range(degree)] + [rng.choice(nonzero)])

    for _ in range(20):
        a = draw(rng.randint(1, 12))
        polys += [draw(rng.randint(1, 24)), a * draw(rng.randint(1, 12)), a * a]
    return polys


def _split_oracle(F, f):
    """The profile of f over F, None when f is not squarefree. Where f has
    its coefficients in GF(p), from sympy's factors mod p: over GF(p^m) an
    irreducible factor of degree d over GF(p) splits into gcd(d, m) factors
    of degree d / gcd(d, m) (Lidl and Niederreiter, Finite Fields, Thm 3.46).
    Otherwise from the per-degree split."""
    f = f.monic()
    m = F.degree if isinstance(F, ExtensionField) else 1
    if m == 1 or not any(c[1:] != (0,) * (m - 1) for c in f.coeffs):
        factors = sympy_factors_mod_p([c if m == 1 else c[0] for c in f.coeffs], F.characteristic)
        if len(set(factors)) < len(factors):
            return None
        degrees = [len(c) - 1 for c in factors]
        return sorted(d // gcd(d, m) for d in degrees for _ in range(gcd(d, m)))
    if poly_gcd(f, f.derivative()).degree != 0:
        return None
    return [d for d, h in sequential_distinct_degree_parts(F, f) for _ in range(int(h.degree) // d)]


def _memo_answers(F, f, profile_first):
    """[(is_irreducible, distinct_degree_profile or None)] through the split
    memo, in the given order, asked twice; the two profiles are new lists."""
    def profile():
        try:
            return distinct_degree_profile(F, f)
        except FieldError:
            return None

    answers = []
    for _ in range(2):
        if profile_first:
            prof = profile()
            answers.append((is_irreducible(F, f), prof))
        else:
            irreducible = is_irreducible(F, f)
            answers.append((irreducible, profile()))
    assert answers[0][1] is None or answers[0][1] is not answers[1][1]
    return answers


@pytest.mark.parametrize("F", MEMO_FIELDS, ids=lambda f: f.label)
def test_split_memo_answers_as_a_fresh_split_in_either_order(F, monkeypatch):
    """is_irreducible and distinct_degree_profile, in either order, on a
    cleared memo and then on a warm one, give the answers of the sympy
    oracle and of a split that bypasses the memo; a reducible f that
    is_irreducible met first must not leave its first part as its profile."""
    polys = _split_memo_polys(F, random.Random(f"split memo {F.label}"))
    want = [_split_oracle(F, f) for f in polys]
    fresh = []
    for f in polys:
        g = f.monic()
        if poly_gcd(g, g.derivative()).degree != 0:
            fresh.append(None)
        else:
            fresh.append([d for d, h in exactfield._distinct_degree_parts(F, g) for _ in range(int(h.degree) // d)])
    assert fresh == want
    assert sum(w is not None and len(w) > 1 for w in want) > 20  # reducible squarefree cases
    for profile_first in (False, True):
        monkeypatch.setattr(exactfield, "_SPLITS", exactfield.BoundedMemo())
        cold = [_memo_answers(F, f, profile_first) for f in polys]
        warm = [_memo_answers(F, f, not profile_first) for f in polys]
        for f, w, c, h in zip(polys, want, cold, warm):
            expected = (w is not None and len(w) == 1, w)
            assert c == h == [expected] * 2, (f, profile_first)


@pytest.mark.parametrize("F", MEMO_FIELDS + [QQ], ids=lambda f: f.label)
def test_kept_reduction_answers_as_a_fresh_matrix_in_either_order(F):
    """char_poly and min_poly on one matrix, in either order and each asked
    twice, equal the answers on a fresh copy: the closed-form matrices for
    n = 3..70, derogatory direct sums and block triangular matrices. Over an
    equal field that is another object, the answers are over that object,
    and the answers over F are unchanged after them."""
    rng = random.Random(f"kept reduction {F.label}")
    matrices = [closed_form_matrix(n, F).rows for n in range(3, 71)]
    matrices += [_derogatory_rows(F, rng) for _ in range(15)]
    matrices += [_block_triangular_rows(F, rng) for _ in range(15)]
    twin = _twin(F)
    derogatory = 0
    for rows in matrices:
        want = {char_poly: char_poly(F, SquareMatrix(F, rows)), min_poly: min_poly(F, SquareMatrix(F, rows))}
        derogatory += want[min_poly].degree < len(rows)
        for first, second in ((char_poly, min_poly), (min_poly, char_poly)):
            M = SquareMatrix(F, rows)
            for f in (first, second, first, second):
                got = f(F, M)
                assert got == want[f] and got.field is F, (rows, f.__name__)
            for f in (first, second):
                got = f(twin, M)
                assert got == want[f] and got.field is twin, (rows, f.__name__)
            assert all(f(F, M).field is F for f in (first, second))
    assert derogatory >= 20


def test_split_memo_stays_under_its_cap(monkeypatch):
    """With SPLIT_CAP at 40 coefficients, the memo's keys never hold more,
    a polynomial of more coefficients is never kept, and every answer holds."""
    cap = 40
    monkeypatch.setattr(exactfield, "SPLIT_CAP", cap)
    monkeypatch.setattr(exactfield, "_SPLITS", exactfield.BoundedMemo())
    kept_sizes = set()
    for F in (prime_field(2), prime_field(3)):
        for n in range(3, 100):
            if n % F.characteristic == 0:
                continue
            pi = char_poly(F, closed_form_matrix(n, F))
            want = _split_oracle(F, pi)
            for _ in range(2):
                assert distinct_degree_profile(F, pi) == want, (F, n)
                assert is_irreducible(F, pi) is (len(want) == 1), (F, n)
                memo = exactfield._SPLITS
                assert sum(len(f.coeffs) for f in memo) <= cap
                assert (pi.monic() in memo) is (len(pi.coeffs) <= cap)
                kept_sizes.update(len(f.coeffs) for f in memo)
    assert max(kept_sizes) > cap // 2


def test_cyclotomic_moduli_against_sympy():
    """Phi_n for n = 1..300, among them 210 = 2*3*5*7 with eight exact
    divisions; Q(zeta_n) is Q itself for n = 1, 2. Irreducibility is sympy's
    factorization, for n <= 40."""
    for n in range(1, 301):
        want = tuple(sympy_cyclotomic(n))
        assert cyclotomic_polynomial(n) == want, n
        if n <= 2:
            assert cyclotomic_field(n) is QQ
        else:
            assert cyclotomic_field(n).modulus == want, n
        if n <= 40:
            assert sympy_is_irreducible_q(want), n


def test_pow_mod_squares_only_while_bits_remain(monkeypatch):
    F = prime_field(3)
    f = int_poly(F, [1, 2, 0, 1, 1])
    x = Poly.x(F)
    calls = []
    mul = Poly.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for e in range(1, 41):
        calls.clear()
        exactfield._pow_rem(x % f, e, exactfield._remainder_by(f))
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1"), e


@pytest.mark.parametrize("F", [prime_field(2), make_extension(2, 2), QQ], ids=lambda f: f.label)
def test_pow_mod_against_repeated_multiplication(F):
    rng = random.Random(31)
    f = Poly(F, [F.random_element(rng) for _ in range(5)] + [F.one()])
    g = Poly(F, [F.random_element(rng) for _ in range(7)])
    power = Poly.one(F) % f
    for e in range(41):
        assert exactfield._pow_rem(g % f, e, exactfield._remainder_by(f)) == power, e
        power = (power * g) % f


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7),
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=5),
)
def test_poly_divmod_roundtrip(acoeffs, bcoeffs):
    F = prime_field(7)
    a = Poly(F, acoeffs)
    b = Poly(F, bcoeffs)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    g = poly_gcd(a, b)
    if not g.is_zero:
        assert (a % g).is_zero and (b % g).is_zero


# 65521 gives Kronecker slots of 4 and 8 bytes; 2^31 - 1 gives 8 bytes when a
# factor has degree 3 or less and otherwise slots too wide, which multiply per element
KERNEL_PRIMES = [2, 3, 7, 65521, 2**31 - 1]


def _prime_kernel_pairs(p, rng):
    """(a, b) coefficient lists for the GF(p) Poly kernels: the zero
    polynomial, constants, divisors of degree 0, non-monic and monic
    divisors, a pair with a common factor, and random pairs up to degree 200."""

    def draw(length, monic=False):
        c = [rng.randrange(p) for _ in range(length)]
        if c:
            c[-1] = 1 if monic else rng.randrange(1, p)
        return c

    def times(f, g):  # schoolbook, independent of the kernel
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    common = draw(30)
    pairs = [
        ([], draw(3)),
        (draw(1), draw(1)),
        (draw(40), draw(1)),
        (draw(1), draw(5)),
        (draw(60), draw(17)),
        (draw(201), draw(201)),
        (draw(201), draw(80, monic=True)),
        (draw(150), draw(101)),
        (times(common, draw(50)), times(common, draw(20))),
    ]
    pairs += [(draw(rng.randint(0, 201)), draw(rng.randint(1, 201))) for _ in range(4)]
    return pairs


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_prime_field_poly_kernels_against_sympy(p):
    """*, divmod, poly_gcd and _pow_rem over GF(p), which run on the Kronecker
    and int-division kernels, against sympy; every coefficient is an int in
    [0, p), and the product also equals the schoolbook one of the generic path."""
    F = prime_field(p)
    rng = random.Random(f"kernels-{p}")
    for a, b in _prime_kernel_pairs(p, rng):
        exponent = rng.choice([0, 1, 2, p, rng.randrange(3 * p)])
        fa, fb = Poly(F, a), Poly(F, b)
        q, r = divmod(fa, fb)
        power = exactfield._pow_rem(fa % fb, exponent, exactfield._remainder_by(fb))
        got = [fa * fb, q, r, poly_gcd(fa, fb), power]
        assert [list(g.coeffs) for g in got] == list(sympy_gf_ops(a, b, p, exponent)), (a, b, exponent)
        for g in got:
            assert all(type(c) is int and 0 <= c < p for c in g.coeffs)
        assert q * fb + r == fa and fb * fa == got[0]


def _block_degree_cases(p):
    """Factor degrees at B - 1, B, B + 1 and 2B for B = SPLIT_BLOCK, with
    repeats. In the first case the factor of degree 2B is what is left once
    the blocks have split off the rest; in the second, two of them share the
    second block; the third is one irreducible past the first block.
    GF(2^31 - 1) multiplies per element, so it runs the first case only."""
    b = exactfield.SPLIT_BLOCK
    cases = [(b - 1, b - 1, b, b + 1, 2 * b), (b, b + 1, b + 1, 2 * b, 2 * b), (2 * b + 1,)]
    return cases[:1] if p == 2**31 - 1 else cases


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_blocked_split_against_sympy_ddf(p):
    """The blocked split of products of seeded random irreducibles equals
    sympy's gf_ddf_zassenhaus and, below 2^16, the sequential split."""
    F = prime_field(p)
    rng = random.Random(f"split-{p}")
    for degrees in _block_degree_cases(p):
        f = Poly.one(F)
        for c in sympy_irreducibles_mod_p(p, degrees, rng):
            f = f * Poly(F, c)
        parts = [(d, h.coeffs) for d, h in exactfield._distinct_degree_parts(F, f)]
        assert parts == sympy_ddf(list(f.coeffs), p), degrees
        if p < 2**16:  # the per-element products of larger p are slow
            assert parts == [(d, h.coeffs) for d, h in sequential_distinct_degree_parts(F, f)]
        assert distinct_degree_profile(F, f.scale(F.from_int(p - 1))) == sorted(degrees)
        assert is_irreducible(F, f) is (len(degrees) == 1)


def test_blocked_split_over_gf4_against_the_sequential_split():
    F = make_extension(2, 2)
    rng = random.Random(45)
    b = exactfield.SPLIT_BLOCK
    for degree in (b - 1, 2 * b + 3, 3 * b):
        f = Poly(F, [F.random_element(rng) for _ in range(degree)] + [F.one()])
        while poly_gcd(f, f.derivative()).degree != 0:
            f = Poly(F, [F.random_element(rng) for _ in range(degree)] + [F.one()])
        assert list(exactfield._distinct_degree_parts(F, f)) == sequential_distinct_degree_parts(F, f)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_prime_reducer_against_sympy(p):
    """Remainders by the Newton reducer and _pow_rem, against sympy, for
    moduli of degree 1, 2 and more: inputs shorter than the modulus, products
    of two remainders, and longer inputs, which _prime_divmod divides."""
    F = prime_field(p)
    rng = random.Random(f"reducer-{p}")
    for n in (1, 2, 3, 9, 40):
        b = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        reduce = exactfield._remainder_by(Poly(F, b))
        assert isinstance(reduce, exactfield._PrimeReducer)
        for length in (0, 1, n, n + 1, 2 * n - 1, 2 * n, 3 * n + 2):
            a = [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)] if length else []
            exponent = rng.choice([2, p, rng.randrange(3 * p)])
            _, _, rem, _, power = sympy_gf_ops(a, b, p, exponent)
            got = reduce(Poly(F, a))
            assert list(got.coeffs) == rem, (n, length)
            assert all(type(c) is int and 0 <= c < p for c in got.coeffs)
            got = exactfield._pow_rem(Poly(F, a) % Poly(F, b), exponent, reduce)
            assert list(got.coeffs) == power, (n, length, exponent)


def test_prime_field_poly_reduces_its_coefficients():
    F = prime_field(3)
    a = Poly(F, [4, 5])
    assert a.coeffs == (1, 2)
    assert a == Poly(F, [1, 2]) and hash(a) == hash(Poly(F, [1, 2]))
    assert Poly(F, [-1, -5, 3]) == Poly(F, [2, 1]) and Poly(F, [-1, -5, 3]).degree == 1
    assert Poly(F, [3, -3, 6]).is_zero
    assert (a + Poly.zero(F)).coeffs == (a * Poly.one(F)).coeffs == (1, 2)
    assert hash(Poly.constant(F, -1)) == hash(Poly.constant(F, 2))


def _assert_char_and_min_poly(F, rows, p=0):
    """char_poly against sympy, min_poly minimal by sympy, coefficient types."""
    M = SquareMatrix(F, rows)
    cp, mp = char_poly(F, M), min_poly(F, M)
    want = sympy_charpoly_reduced([[[c] for c in row] for row in rows], p)
    if len(rows) % 2:  # det(M - xI) = (-1)^size det(xI - M)
        want = [F.neg(c) for c in want]
    assert list(cp.coeffs) == want
    assert sympy_min_poly_is_minimal(rows, mp.coeffs, p)
    for c in cp.coeffs + mp.coeffs:
        assert type(c) is Fraction if p == 0 else (type(c) is int and 0 <= c < p)
    return cp, mp


@pytest.mark.parametrize("seed", range(6))
def test_char_poly_and_min_poly_over_q_with_a_common_denominator(seed):
    """Dense rational matrices whose Hessenberg form lifts to A/d with d > 1,
    where coefficient i of the char poly is q_i / d^(n-i)."""
    rng = random.Random(6100 + seed)
    size = rng.randint(2, 6)
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in range(size)] for _ in range(size)]
    h = exactfield._hessenberg(QQ, SquareMatrix(QQ, rows))
    assert QQ._lift_ints([c for row in h for c in row])[1] > 1
    _assert_char_and_min_poly(QQ, rows)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_char_poly_and_min_poly_over_gf_p_against_sympy(p):
    rng = random.Random(f"charpoly-{p}")
    for size in (1, 2, 4, 6):
        rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        _assert_char_and_min_poly(prime_field(p), rows, p)


@pytest.mark.parametrize("F", [QQ, prime_field(3), prime_field(2**31 - 1)], ids=lambda f: f.label)
def test_char_poly_and_min_poly_with_a_zero_subdiagonal(F):
    """Half of a conjugated J_2(1) + J_1(1) + J_2(0): its Hessenberg form has
    a zero on the subdiagonal (d = 2 over Q), so min_poly takes the Krylov
    branch and the char-poly recurrence meets an empty chain."""
    half = F.inv(F.from_int(2))
    rows = [[F.mul(half, F.from_int(v)) for v in row] for row in _jordan_rows([(2, 1), (1, 1), (2, 0)], random.Random(11))]
    h = exactfield._hessenberg(F, SquareMatrix(F, rows))
    assert any(F.is_zero(h[i][i - 1]) for i in range(1, len(rows)))
    cp, mp = _assert_char_and_min_poly(F, rows, F.characteristic)
    assert mp.degree == 4 and cp.degree == 5
