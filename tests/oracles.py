"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (exhaustive enumeration, permutation
expansions, sympy) and never calls back into the code paths it checks.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction


def int_poly(F, ints):
    """The polynomial over F with these integer coefficients, low degree first."""
    from qhgrass.exactfield import Poly

    return Poly(F, [F.from_int(c) for c in ints])


def box_partitions(k: int, cols: int) -> set[tuple[int, ...]]:
    """All weakly decreasing tuples in a k x cols box, trailing zeros stripped.

    Built row by row, each row at most the one above it, so the cost follows
    the C(k + cols, k) diagrams, not the (cols + 1)^k row tuples."""
    partial = [()]
    for _ in range(k):
        partial = [rows + (r,) for rows in partial for r in range((rows[-1] if rows else cols) + 1)]
    return {tuple(r for r in rows if r) for rows in partial}


def transpose_rows(rows) -> tuple[int, ...]:
    width = rows[0] if rows else 0
    return tuple(sum(1 for r in rows if r > c) for c in range(width))


def naive_elementary(F, values, i):
    total = F.zero()
    for combo in itertools.combinations(values, i):
        prod = F.one()
        for v in combo:
            prod = F.mul(prod, v)
        total = F.add(total, prod)
    return total


def naive_complete(F, values, i):
    total = F.zero()
    for combo in itertools.combinations_with_replacement(values, i):
        prod = F.one()
        for v in combo:
            prod = F.mul(prod, v)
        total = F.add(total, prod)
    return total


def in_zeta_subfield(ev, value) -> bool:
    """Membership of a splitting-field element of the EvContext ev in the
    subfield F(zeta_n).

    Over GF(p), that subfield is GF(p^s) with s the least exponent for which
    the distinct roots all satisfy x^(p^s) = x, so its elements are the
    fixed points of x -> x^(p^s). Over Q, ev.field is Q(zeta_N) with N = n
    or 2n, and only N = 2n with n even is larger than Q(zeta_n) (for odd n,
    Q(zeta_2n) = Q(zeta_n)). There zeta -> zeta^(n+1) = -zeta generates
    Gal(Q(zeta_2n)/Q(zeta_n)) and negates the odd power-basis coefficients,
    so the fixed values are those whose odd coefficients vanish.
    """
    K = ev.field
    p = K.characteristic
    if p:
        roots = ev.distinct_root_count
        s = next(s for s in itertools.count(1) if (p**s - 1) % roots == 0)
        return K.pow(value, p**s) == value
    big_n = getattr(K, "cyclotomic_order", None)
    if big_n is None or big_n == ev.ctx.n or ev.ctx.n % 2 == 1:
        return True
    return all(c == 0 for c in value[1::2])


def units_from_powers(p: int, n: int) -> set[int]:
    """The subgroup {(-1)^a p^b mod n} by direct enumeration."""
    out = set()
    value = 1
    for _ in range(2 * n):
        out.add(value % n)
        out.add((-value) % n)
        value = value * p % n
    return out


def gf_irreducible_by_trial_division(p: int, coeffs: list[int]) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2 over GF(p)."""
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    assert deg >= 1

    def divides(div):
        rem = list(coeffs)
        dd = len(div) - 1
        inv = pow(div[-1], -1, p)
        for i in range(len(rem) - 1 - dd, -1, -1):
            c = rem[i + dd] * inv % p
            if c:
                for j, d in enumerate(div):
                    rem[i + j] = (rem[i + j] - c * d) % p
        return all(v % p == 0 for v in rem[:dd])

    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if divides(div):
                return False
    return True


def sympy_charpoly_coeffs(rows):
    """det(x*I - M) coefficients, low degree first, as Fractions."""
    import sympy

    M = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    x = sympy.symbols("x")
    poly = sympy.Poly(M.charpoly(x).as_expr(), x)
    coeffs = list(reversed(poly.all_coeffs()))
    return [Fraction(str(c)) for c in coeffs]


def sympy_charpoly_reduced(entries, p: int = 0, modulus=None):
    """det(x*I - M) coefficients, low degree first, over Q (p = 0), GF(p), or
    GF(p)[t]/(modulus) when modulus (coefficients low degree first) is given.

    Each entry of M is a coefficient list in t, low degree first (length 1
    outside the extension). sympy computes the characteristic polynomial
    over Q[t]; reducing its coefficients afterwards is a ring map, so it
    commutes with the determinant. Coefficients come back as Fractions,
    ints in [0, p), or lists of ints padded to deg(modulus).
    """
    import sympy

    t, x = sympy.symbols("t x")
    M = sympy.Matrix(
        [[sum(sympy.Rational(str(c)) * t**i for i, c in enumerate(e)) for e in row] for row in entries]
    )
    poly = sympy.Poly(M.charpoly(x).as_expr(), x)
    out = []
    for c in reversed(poly.all_coeffs()):
        if modulus is not None:
            m = sympy.Poly(list(reversed(modulus)), t, modulus=p)
            rem = sympy.Poly(c, t, modulus=p).rem(m)
            coeffs = [0] * (len(modulus) - 1)
            for (e,), v in rem.terms():
                coeffs[e] = int(v) % p
            out.append(coeffs)
        elif p:
            out.append(int(c) % p)
        else:
            out.append(Fraction(str(c)))
    return out


def sympy_is_irreducible_q(coeffs) -> bool:
    """Whether sympy factors the polynomial (coefficients low degree first)
    over Q into one nonconstant factor of multiplicity 1. It is built as a
    Poly from its coefficients, with no symbolic expression."""
    import sympy

    poly = sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)], sympy.symbols("x"), domain="QQ")
    return [mult for f, mult in poly.factor_list()[1] if f.degree() >= 1] == [1]


def sympy_min_poly_is_minimal(rows, coeffs, p: int = 0, modulus=None) -> bool:
    """Whether the polynomial with these coefficients (low degree first) is
    the minimal polynomial of the matrix rows.

    Over Q (p = 0) rows are integers and mp is taken up to a scalar:
    mp(M) = 0, and (mp/g)(M) != 0 for every irreducible factor g of mp from
    sympy's factor_list. Matrices are evaluated by sympy. Over GF(p), or
    GF(p)[t]/(modulus) when modulus (low degree first) is given, see
    _min_poly_is_minimal_mod_p.
    """
    import sympy

    if p:
        return _min_poly_is_minimal_mod_p(rows, coeffs, p, modulus)
    x = sympy.symbols("x")
    M = sympy.Matrix(rows)
    mp = sympy.Poly(list(reversed([sympy.Rational(str(c)) for c in coeffs])), x)

    def at_matrix(poly):
        acc = sympy.zeros(M.rows, M.cols)
        for c in poly.all_coeffs():
            acc = acc * M + c * sympy.eye(M.rows)
        return acc

    if not at_matrix(mp).is_zero_matrix:
        return False
    _, factors = sympy.factor_list(mp.as_expr())
    return all(not at_matrix(sympy.div(mp, sympy.Poly(g, x))[0]).is_zero_matrix for g, _ in factors)


def _min_poly_is_minimal_mod_p(rows, coeffs, p: int, modulus) -> bool:
    """The finite-field case of sympy_min_poly_is_minimal. Entries and
    coefficients are ints, or coefficient lists in t over the extension.
    mp is minimal when it is monic, mp(M) = 0, and I, M, ..., M^(d-1) are
    independent over the field, d = deg mp. Over GF(p^m) that independence
    is rank m * d over GF(p) of the vectors t^j M^i, j < m, i < d, which
    sympy's DomainMatrix computes. Entries are sympy polynomials in t over
    GF(p), reduced by the modulus (by t over GF(p) itself)."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    mod = sympy.Poly(list(reversed(modulus if modulus is not None else (0, 1))), t, modulus=p)
    m = mod.degree()

    def elem(c):
        c = list(c) if isinstance(c, (list, tuple)) else [c]
        return sympy.Poly(list(reversed(c)), t, modulus=p).rem(mod)

    def coords(e):
        return [int(e.coeff_monomial(t**i)) % p for i in range(m)]

    M = [[elem(c) for c in row] for row in rows]
    size = len(M)
    zero, one = elem(0), elem(1)
    powers = [[[one if i == j else zero for j in range(size)] for i in range(size)]]
    for _ in range(len(coeffs) - 1):
        A = powers[-1]
        powers.append(
            [
                [sum((A[i][l] * M[l][j] for l in range(size)), zero).rem(mod) for j in range(size)]
                for i in range(size)
            ]
        )
    cs = [elem(c) for c in coeffs]
    if cs[-1] != one:
        return False
    for i in range(size):
        for j in range(size):
            if not sum((c * P[i][j] for c, P in zip(cs, powers)), zero).rem(mod).is_zero:
                return False
    d = len(coeffs) - 1
    vectors = [
        [v for row in P for e in row for v in coords((elem([0] * s + [1]) * e).rem(mod))]
        for P in powers[:d]
        for s in range(m)
    ]
    if not vectors:
        return True
    K = sympy.GF(p)
    shape = (len(vectors), len(vectors[0]))
    return DomainMatrix([[K(v) for v in vec] for vec in vectors], shape, K).rank() == m * d


def sympy_factors_mod_p(coeffs, p: int) -> list[tuple[int, ...]]:
    """Monic irreducible factors over GF(p) of the polynomial with these
    coefficients (low degree first), each with its multiplicity, as coefficient
    tuples (ints in [0, p), low degree first), sorted by (degree, coefficients)."""
    import sympy

    x = sympy.symbols("x")
    _, factored = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
    out = []
    for f, mult in factored:
        c = [int(v) % p for v in reversed(f.all_coeffs())]
        inv = pow(c[-1], -1, p)
        out.extend([tuple(v * inv % p for v in c)] * mult)
    return sorted(out, key=lambda c: (len(c), c))


def sympy_gf_ops(a, b, p: int, exponent: int):
    """(a*b, a // b, a % b, monic gcd(a, b), a^exponent mod b) over GF(p) by
    sympy's galoistools, for coefficient lists low degree first and b
    nonzero; each result is a list of ints in [0, p), empty for zero."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow_mod, gf_rem, gf_strip

    fa = gf_strip([c % p for c in reversed(a)])
    fb = gf_strip([c % p for c in reversed(b)])
    q, r = gf_div(fa, fb, p, ZZ)
    # gf_pow_mod returns 1 for exponent 0 without reducing it by b
    power = gf_rem(gf_pow_mod(fa, exponent, fb, p, ZZ), fb, p, ZZ)
    results = (gf_mul(fa, fb, p, ZZ), q, r, gf_gcd(fa, fb, p, ZZ), power)
    return tuple([int(c) % p for c in reversed(gf_strip(f))] for f in results)


def sympy_irreducibles_mod_p(p: int, degrees, rng) -> list[tuple[int, ...]]:
    """Distinct monic irreducibles over GF(p), one per entry of degrees, as
    coefficient tuples (low degree first): seeded random draws that sympy's
    gf_irreducible_p accepts."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    chosen: list[tuple[int, ...]] = []
    for d in degrees:
        while True:
            coeffs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if coeffs not in chosen and gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ):
                chosen.append(coeffs)
                break
    return chosen


def first_irreducible_by_full_scan(p: int, m: int) -> tuple[int, ...]:
    """The first monic irreducible of degree m over GF(p), as coefficients low
    degree first, with the m low coefficients counted as base-p digits, the
    constant term the lowest: every candidate, binomials included, tested by
    sympy's gf_irreducible_p."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for count in itertools.count():
        coeffs = tuple(count // p**i % p for i in range(m)) + (1,)
        if gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ):
            return coeffs


def first_generator_by_powers(p: int, modulus) -> tuple[int, ...]:
    """The first element of GF(p)[t]/(modulus), in the order of
    first_irreducible_by_full_scan and constants included, whose powers meet
    1 only after all p^m - 1 nonzero elements; each power is one schoolbook
    product reduced by the monic modulus."""
    m = len(modulus) - 1
    one = (1,) + (0,) * (m - 1)

    def times(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * m - 2, m - 1, -1):  # x^d = x^(d-m) * (x^m - modulus)
            for i, c in enumerate(modulus):
                prod[d - m + i] -= prod[d] * c
        return tuple(v % p for v in prod[:m])

    for count in range(1, p**m):
        g = power = tuple(count // p**i % p for i in range(m))
        steps = 1
        while power != one:
            power, steps = times(power, g), steps + 1
        if steps == p**m - 1:
            return g
    raise AssertionError("no generator")


def sympy_ddf(coeffs, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Distinct-degree split of a monic squarefree polynomial over GF(p) by
    sympy's gf_ddf_zassenhaus: (d, the product of the degree-d irreducible
    factors as a coefficient tuple, low degree first), d ascending."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus

    parts = gf_ddf_zassenhaus([ZZ(c % p) for c in reversed(coeffs)], p, ZZ)
    return sorted((int(d), tuple(int(c) % p for c in reversed(f))) for f, d in parts)


@functools.lru_cache(maxsize=None)
def _per_element_prime_field(p: int):
    """A PrimeField subclass for GF(p): Poly multiplies, divides, takes gcds
    and reduces powers over it per element, as over any field other than
    exactly PrimeField, so it shares none of the GF(p) int kernels."""
    from qhgrass.exactfield import PrimeField

    class PerElementPrimeField(PrimeField):
        pass

    return PerElementPrimeField(p)


def sequential_distinct_degree_parts(F, f) -> list:
    """The per-degree distinct-degree split of a monic squarefree f over
    GF(q): [(d, the product of the degree-d irreducible factors of f)] for each
    d that has factors, d ascending, from one Frobenius step and one gcd per
    degree. x^(q^d) is carried mod the part not yet split off, raised to the
    q-th power by its own square-and-multiply on %; once 2d exceeds its
    degree, that part is one irreducible factor.

    Over GF(p) it runs over _per_element_prime_field(p), so it checks the
    blocked split and the GF(p) kernels together; its parts compare equal to
    polynomials over F."""
    from qhgrass.exactfield import Poly, PrimeField, poly_gcd

    if type(F) is PrimeField:
        F = _per_element_prime_field(F.p)
        f = Poly(F, f.coeffs)

    def frobenius(w, g):  # w^q mod g by square-and-multiply with %
        result, e = Poly.one(F), F.order
        while e:
            if e & 1:
                result = result * w % g
            e >>= 1
            if e:
                w = w * w % g
        return result

    x = Poly.x(F)
    g = f
    w = x % g
    d = 0
    parts = []
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            parts.append((int(g.degree), g))
            break
        w = frobenius(w, g)
        h = poly_gcd(g, w - x)
        if h.degree > 0:
            parts.append((d, h))
            g = g // h
            w = w % g
    return parts


def sympy_cyclotomic(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    import sympy

    return [int(v) for v in reversed(sympy.cyclotomic_poly(n, sympy.symbols("x"), polys=True).all_coeffs())]


def sympy_symmetric_determinant(entries, size, symbols):
    """Determinant of an explicit symbolic matrix, expanded."""
    import sympy

    M = sympy.Matrix(size, size, entries)
    return sympy.expand(M.det())


def sympy_reduced_ops(a, b, modulus, p: int):
    """(a*b, a+b, a-b) of two coefficient lists, each reduced modulo the
    polynomial `modulus` by sympy's remainder over GF(p), or over Q when
    p = 0; coefficients low degree first, as ints in [0, p) or Fractions."""
    import sympy

    x = sympy.symbols("x")
    domain = sympy.GF(p, symmetric=False) if p else sympy.QQ

    def poly(coeffs):
        return sympy.Poly.from_list([sympy.Rational(str(c)) for c in reversed(coeffs)], x, domain=domain)

    fa, fb, fm = poly(a), poly(b), poly(modulus)
    out = []
    for combined in (fa * fb, fa + fb, fa - fb):
        coeffs = [0] * (len(modulus) - 1)
        for (e,), c in combined.rem(fm).terms():
            coeffs[e] = int(c) % p if p else Fraction(int(c.p), int(c.q))
        out.append(coeffs)
    return tuple(out)


def _padded(rows, k):
    return tuple(rows) + (0,) * (k - len(rows))


@functools.lru_cache(maxsize=None)
def _box_by_size(k: int, cols: int) -> dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """{size: ((rows, rows padded to k), ...)} over every diagram of the box,
    built once per box, each size's diagrams in sorted order."""
    by_size: dict = {}
    for mu in sorted(box_partitions(k, cols)):
        by_size.setdefault(sum(mu), []).append((mu, _padded(mu, k)))
    return {size: tuple(diagrams) for size, diagrams in by_size.items()}


@functools.lru_cache(maxsize=None)
def column_pieri_terms(k: int, cols: int, rows: tuple[int, ...], j: int):
    """x_j * sigma_rows in Gr(k, k+cols) as ((mu, q-power), ...), by testing
    every diagram of the box that has the size of a term.

    Classical terms: mu / rows is a vertical strip of j boxes. q-terms: rows
    has a full top row, and nu_i = rows_{i+1} or rows_{i+1} - 1 with nu_k = 0
    and |nu| = |rows| + j - n.
    """
    n = k + cols
    lam = _padded(rows, k)
    size = sum(lam) + j
    box = _box_by_size(k, cols)
    # a strip: every row difference is 0 or 1
    out = [(mu, 0) for mu, m in box.get(size, ()) if set(map(operator.sub, m, lam)) <= {0, 1}]
    if lam[0] == cols:
        out += [(nu, 1) for nu, m in box.get(size - n, ()) if not m[-1] and set(map(operator.sub, lam[1:], m)) <= {0, 1}]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def column_giambelli(k: int, rows: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """det(e_{rows'_i - i + j}) expanded over its permutations, as exponent
    tuples over x_1..x_k with coefficients; e_0 = 1 and e_v = 0 off 0..k."""
    conj = transpose_rows(rows)
    m = len(conj)
    out: dict[tuple[int, ...], int] = {}

    def walk(i, used, perm):
        if i == m:
            inversions = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
            exps = [0] * k
            for row, col in enumerate(perm):
                v = conj[row] - row + col
                if v:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + (-1) ** inversions
            return
        for col in range(m):
            if col not in used and 0 <= conj[i] - i + col <= k:
                walk(i + 1, used | {col}, perm + (col,))

    walk(0, frozenset(), ())
    return tuple((e, c) for e, c in sorted(out.items()) if c)


@functools.lru_cache(maxsize=None)
def _monomial_times(k: int, cols: int, rows: tuple[int, ...], variables: tuple[int, ...]):
    """x_v1 * x_v2 * ... * sigma_rows for variables (v1, v2, ...), as ((mu,
    q-power), coeff) pairs: one Pieri step by v1, then the rest on each term."""
    if not variables:
        return (((rows, 0), 1),)
    acc: dict = {}
    for mu, dq in column_pieri_terms(k, cols, rows, variables[0]):
        for (nu, m), c in _monomial_times(k, cols, mu, variables[1:]):
            acc[(nu, m + dq)] = acc.get((nu, m + dq), 0) + c
    return tuple(acc.items())


@functools.lru_cache(maxsize=None)
def _giambelli_variables(k: int, rows: tuple[int, ...]):
    """column_giambelli(k, rows) with each monomial x^exps as its variables,
    x_1 e_1 times, then x_2 e_2 times, and so on."""
    return tuple(
        (tuple(v for v, e in enumerate(exps, 1) for _ in range(e)), coeff) for exps, coeff in column_giambelli(k, rows)
    )


def column_expansion_product(k: int, n: int, first, second) -> dict:
    """sigma_first * sigma_second by the column Giambelli determinant of
    `first` (always the first factor) and iterated column Pieri steps on
    `second`: {(rows, q-power): coeff}."""
    acc: dict = {}
    second = tuple(second)
    for variables, coeff in _giambelli_variables(k, tuple(first)):
        for key, c in _monomial_times(k, n - k, second, variables):
            acc[key] = acc.get(key, 0) + coeff * c
    return {key: c for key, c in acc.items() if c}


def naive_quantum_product(a, b) -> dict:
    """a * b term by term, as {(diagram, q-power): coefficient}: every
    structure constant N of every pair of terms adds the field product
    c1 * c2 * N to its output term at once, and a sum that reaches zero is
    deleted. The integer structure constants come from schubert_product."""
    from qhgrass.qh_core import schubert_product

    ctx, F = a.ctx, a.field
    acc: dict = {}
    for (d1, m1), c1 in a.terms.items():
        for (d2, m2), c2 in b.terms.items():
            c12 = F.mul(c1, c2)
            for (diagram, dm), coeff in schubert_product(ctx, d1, d2).items():
                key, c = (diagram, m1 + m2 + dm), F.mul(c12, F.from_int(coeff))
                new = F.add(acc[key], c) if key in acc else c
                if F.is_zero(new):
                    acc.pop(key, None)
                else:
                    acc[key] = new
    return acc


def per_column_mult_matrix(element, degree: int):
    """mult_matrix by one quantum_product per basis class: column j of the
    matrix of b -> element * b on graded_basis(ctx, degree) is the product
    with the j-th basis class, read through `terms`. Rows of field elements."""
    from qhgrass.diagram import graded_basis
    from qhgrass.qh_core import QhElement, quantum_product

    ctx, F = element.ctx, element.field
    basis = graded_basis(ctx, degree)
    index = {tuple(entry): i for i, entry in enumerate(basis)}
    rows = [[F.zero()] * len(basis) for _ in basis]
    for j, (diagram, m) in enumerate(basis):
        image = quantum_product(element, QhElement.schubert(ctx, F, diagram, m))
        for key, coeff in image.terms.items():
            rows[index[key]][j] = coeff
    return tuple(tuple(row) for row in rows)


class SearchBudgetError(RuntimeError):
    """Exhaustive search would exceed the configured budget."""


def _mult_block(F: FieldCtx, c) -> list[list[int]]:
    """The m x m matrix over GF(p) of x -> c*x on the basis 1, t, ..., t^(m-1)
    of GF(p^m); [[c]] over GF(p)."""
    from qhgrass.exactfield import ExtensionField

    if not isinstance(F, ExtensionField):
        return [[c]]
    columns, x = [], c
    for _ in range(F.degree):
        columns.append(x)
        x = F.mul(x, F.gen())
    return [list(row) for row in zip(*columns)]


def _gf_p_rows(p: int, blocks) -> list:
    """Rows over GF(p) of the block matrix whose (i, j) block is blocks[i][j].

    Over GF(2) a row is one int with bit s set where entry s is 1, else a
    list of ints in [0, p). Replacing each entry a of a matrix over GF(p^m)
    by _mult_block(a) keeps singularity: the expanded determinant is the norm
    of the original one (Lidl and Niederreiter, Finite Fields, ch. 2).
    """
    rows = []
    for block_row in blocks:
        for r in range(len(block_row[0])):
            coords = [x % p for block in block_row for x in block[r]]
            rows.append(sum(1 << s for s, x in enumerate(coords) if x) if p == 2 else coords)
    return rows


def _is_singular_mod_p(p: int, rows: list) -> bool:
    """Whether a square matrix over GF(p), in rows shaped as _gf_p_rows
    builds them (odd-p entries in [0, p)), is singular.

    Over GF(2) each pivot row is XORed into every other row that has its
    lowest set bit, so no two pivots share a leading bit and only a zero
    row can end the elimination early. For odd p, the first row with a
    nonzero first entry a is scaled by pow(a, -1, p), cleared from the
    others, and the first column dropped. The given rows are not changed.
    """
    rows = list(rows)
    if p == 2:
        while rows:
            top = rows.pop()
            if not top:
                return True
            low = top & -top
            rows = [r ^ top if r & low else r for r in rows]
        return False
    while rows:
        for i, r in enumerate(rows):
            if r[0]:
                break
        else:
            return True
        top = rows.pop(i)
        inv = pow(top[0], -1, p)
        tail = [a * inv % p for a in top[1:]]
        rows = [[(a - r[0] * b) % p for a, b in zip(r[1:], tail)] if r[0] else r[1:] for r in rows]
    return False


def zero_divisor_search(ctx: GrContext, F: FieldCtx, limit: int = 10**6):
    """Exhaustively test every nonzero degree-0 class for zero divisors.

    Returns (found, witness_coefficients). Scaling a class does not change
    whether it is a zero divisor, so only vectors with first nonzero
    coordinate 1 are enumerated, in itertools.product order after that 1.
    The integer basis matrices B_t are mult_matrix of each basis class over
    Q, whose entries are integers, built once per call, and each c*B_t is
    expanded once into rows over the prime field (_gf_p_rows, each entry b
    a block b*R(c)). Each candidate's
    rows are its prefix's rows plus one of those, an XOR of bit masks over
    GF(2^m) and a sum mod p otherwise, and a candidate is a zero divisor
    exactly when its rows are singular (_is_singular_mod_p).
    """
    from qhgrass.degree_zero import mult_matrix, qh0_basis
    from qhgrass.exactfield import QQ, FieldError
    from qhgrass.qh_core import QhElement

    if F.order is None:
        raise FieldError("exhaustive zero-divisor search needs a finite field")
    basis = qh0_basis(ctx)
    dim = len(basis)
    if F.order**dim > limit:
        raise SearchBudgetError(
            f"|F|^dim = {F.order}^{dim} exceeds the search limit {limit}"
        )
    # dense, since every entry is read once per scalar
    matrices = [
        [[int(b) for b in row] for row in mult_matrix(QhElement.schubert(ctx, QQ, d, m), 0).rows]
        for d, m in basis
    ]
    p = F.characteristic
    scalars = list(F.elements())
    one = scalars.index(F.one())
    values = {b for B in matrices for row in B for b in row}
    # scaled[t][s] = rows over GF(p) of scalars[s] * B_t; None for the zero scalar
    scaled = [[None] * len(scalars) for _ in matrices]
    for s, c in enumerate(scalars):
        if F.is_zero(c):
            continue
        block = _mult_block(F, c)
        times = {b: [[b * x for x in r] for r in block] for b in values}
        for t, B in enumerate(matrices):
            scaled[t][s] = _gf_p_rows(p, [[times[b] for b in row] for row in B])

    if p == 2:
        def add(x, y):
            return [a ^ b for a, b in zip(x, y)]
    else:
        def add(x, y):
            return [[(a + b) % p for a, b in zip(r, s)] for r, s in zip(x, y)]

    # depth-first in itertools.product order over the coordinates after the
    # leading 1; each node adds one scaled basis matrix to its prefix sum
    def walk(t, acc, coeffs):
        if t == dim:
            return _is_singular_mod_p(p, acc)
        for c, rows in zip(scalars, scaled[t]):
            coeffs.append(c)
            if walk(t + 1, acc if rows is None else add(acc, rows), coeffs):
                return True
            coeffs.pop()
        return False

    for lead in range(dim):
        coeffs = [F.zero()] * lead + [F.one()]
        if walk(lead + 1, scaled[lead][one], coeffs):
            return True, coeffs
    return False, None


def cross_multiplied_is_singular(M):
    """Whether det M = 0 for an exactfield SquareMatrix, by elimination that
    cross-multiplies rows and inverts no element.

    The first row with a nonzero leading entry p is the pivot row; every
    other row r with a nonzero leading entry becomes
    p * r - r[0] * pivot_row with its first column dropped, which scales
    the determinant by p. A row that already leads with zero just loses its
    first column. It works over every field, element by element, and shares
    nothing with the zero-divisor search's GF(p) kernel it checks.
    """
    F = M.field
    m = [list(r) for r in M.rows]
    while m:
        pivot = next((i for i, row in enumerate(m) if not F.is_zero(row[0])), None)
        if pivot is None:
            return True
        top = m.pop(pivot)
        p, tail = top[0], top[1:]
        for i, row in enumerate(m):
            c = row[0]
            if F.is_zero(c):
                m[i] = row[1:]
                continue
            m[i] = [F.sub(F.mul(p, a), F.mul(c, b)) for a, b in zip(row[1:], tail)]
    return False


def determinant(M):
    """det of an exactfield SquareMatrix by Gaussian elimination with field
    inverses."""
    F = M.field
    n = M.size
    m = [list(r) for r in M.rows]
    det = F.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not F.is_zero(m[r][col])), None)
        if pivot is None:
            return F.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = F.neg(det)
        det = F.mul(det, m[col][col])
        inv = F.inv(m[col][col])
        for r in range(col + 1, n):
            if F.is_zero(m[r][col]):
                continue
            t = F.mul(m[r][col], inv)
            m[r] = [F.sub(a, F.mul(t, b)) for a, b in zip(m[r], m[col])]
    return det


MAX_NEWTON_STEPS = 200


def gc_potential_exponents(k: int, n: int):
    """Exponent vectors of the disk potential's monomials, one per facet
    big >= small of the Gelfand-Cetlin pattern, as exp(u_big - u_small) in
    u = log z over the cells (i, j), flattened row by row.

    The facets are the interlacing inequalities between neighbouring cells,
    z_{i,j+1} >= z_{i,j} and z_{i,j} >= z_{i+1,j}, and the two border
    inequalities that these do not imply, 1 >= z_{1,n-k} and z_{k,1} >= 0;
    a constant side adds nothing."""
    import numpy as np

    cols = n - k
    cells = {(i, j): (i - 1) * cols + j - 1 for i in range(1, k + 1) for j in range(1, cols + 1)}
    facets = [((i, j + 1), (i, j)) for i, j in cells if (i, j + 1) in cells]
    facets += [((i, j), (i + 1, j)) for i, j in cells if (i + 1, j) in cells]
    facets += [("one", (1, cols)), ((k, 1), "zero")]
    t = np.zeros((len(facets), len(cells)))
    for row, (big, small) in enumerate(facets):
        if big in cells:
            t[row, cells[big]] += 1
        if small in cells:
            t[row, cells[small]] -= 1
    return t


def gc_potential(k: int, n: int, z):
    """W and dW/dz at a positive k x (n-k) array z: the sum of the monomials
    exp(t . log z), and (t^T exp(t . log z)) / z."""
    import numpy as np

    t = gc_potential_exponents(k, n)
    monomials = np.exp(t @ np.log(z).reshape(-1))
    return float(monomials.sum()), (t.T @ monomials / z.reshape(-1)).reshape(z.shape)


def newton_critical_point(k: int, n: int, tol: float = 1e-8):
    """The disk potential's critical point by damped Newton in u = log z.

    There W is a sum of exponentials of linear forms, so it is convex and
    its Hessian positive definite along the iteration. Steps until |dW/du|
    and |dW/dz| are both below tol, halving each step until W drops enough.
    Returns z as a k x (n-k) array, W, max |dW/dz| and the step count;
    raises RuntimeError after MAX_NEWTON_STEPS steps."""
    import numpy as np

    t = gc_potential_exponents(k, n)
    u = np.zeros(t.shape[1])
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        monomials = np.exp(t @ u)
        grad_u = t.T @ monomials
        grad_z = grad_u / np.exp(u)
        w = float(monomials.sum())
        if np.max(np.abs(grad_z)) < tol and np.max(np.abs(grad_u)) < tol:
            return np.exp(u).reshape(k, n - k), w, float(np.max(np.abs(grad_z))), steps
        hess = t.T @ (t * monomials[:, None])
        step = np.linalg.solve(hess, -grad_u)
        slope = float(grad_u @ step)
        scale = 1.0
        # Armijo's test, forgiving the rounding error of the sum near the minimum
        while np.exp(t @ (u + scale * step)).sum() > w + 0.25 * scale * slope + 1e-14 * w and scale > 1e-12:
            scale *= 0.5
        u = u + scale * step
    raise RuntimeError(f"no convergence after {MAX_NEWTON_STEPS} Newton steps")
