"""Degree-zero ring analysis and the spectral-diameter classifier.

The degree-zero subring QH^0 of the quantum cohomology of Gr(k, n) decides
everything: the full ring is a graded field (every nonzero homogeneous
element invertible) exactly when QH^0 is a field. For k = 2 and odd n this
reduces to irreducibility of the characteristic polynomial of an explicit
tridiagonal matrix, which in turn is equivalent to a unit-group condition
in (Z/nZ)^x; for even n the ring splits into one field summand per orbit
of x -> p*x on the inverse pairs of n-th roots of unity. classify holds
the graded-field rule and reports a finite bound, infiniteness, or
"unknown" for the spectral diameter; is_graded_field cross-checks that
rule against the charpoly and unit-group routes and, over small finite
fields, a Frobenius field test of QH^0 itself: the minimal polynomial of
a -> a^p on QH^0 over GF(p) is x^dim - 1 exactly when QH^0 is a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from math import comb, gcd, lcm
from operator import index, mul

from .diagram import GradedBasisElement, GrContext, YoungDiagram, graded_basis
from .exactfield import (
    QQ,
    BoundedMemo,
    DegreeLimitError,
    FieldCtx,
    Poly,
    PrimeField,
    RationalField,
    SquareMatrix,
    char_poly,
    is_irreducible,
    min_poly,
    prime_field,
)
from .numberth import (
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    order_dividing,
)
from .qh_core import QhElement, pieri_multiply, q_shift, schubert_product


# Gr(2, 131) over Q (ell = 65) must still fail: perfbench/gate.py KNOWN_FAILURES
# and perfbench/test_perfbench.py::test_tiny_run_of_each_workload pin it
RATIONAL_DEGREE_LIMIT = 64

# the closed_form_matrix memo: its matrices hold at most this many cells in all
CLOSED_FORM_CAP = 1 << 16

_CLOSED_FORMS = BoundedMemo()

# is_graded_field reports its "zero_divisor_search" route when |F|^dim QH^0 is
# at most this, the bound of the exhaustive search the route replaced; the
# is_graded_field digest in perfbench/digests.json pins which cells report it
_ZERO_DIVISOR_ROUTE_LIMIT = 10**6


# ---------------------------------------------------------------------------
# degree-zero basis and multiplication operators


def qh0_basis(ctx: GrContext) -> tuple[GradedBasisElement, ...]:
    """Basis of QH^0: pairs (D, -|D|/n) over diagrams of size divisible by n."""
    return graded_basis(ctx, 0)


def _qh0_dim(ctx: GrContext) -> int:
    """len(qh0_basis(ctx)) without the basis: by cyclic sieving (Reiner, Stanton
    and White 2004), the number of rotation orbits of k-subsets of Z/n,
    (1/n) sum over d | gcd(k, n) of phi(d) C(n/d, k/d)."""
    k, n = ctx.k, ctx.n
    g = gcd(k, n)
    return sum(euler_phi(d) * comb(n // d, k // d) for d in range(1, g + 1) if g % d == 0) // n


def standard_degree_zero_element(ctx: GrContext, field: FieldCtx) -> QhElement:
    """The degree-zero element sigma_empty - q^(-1) x_2 * sigma_(n-3,1) (k = 2)."""
    if ctx.k != 2 or ctx.n < 4:
        raise ValueError("the distinguished element lives in Gr(2, n), n >= 4")
    v1 = QhElement.schubert(ctx, field, YoungDiagram((ctx.n - 3, 1)))
    return QhElement.unit(ctx, field) - q_shift(pieri_multiply(v1, 2), -1)


def mult_matrix(element: QhElement, degree: int) -> SquareMatrix:
    """Matrix of b -> element * b on the canonical basis of the degree-d piece:
    for each term, its coefficient times the integer structure constants of
    schubert_product with every basis class, added at (row, column)."""
    if element.homogeneous_degree() != 0:
        raise ValueError("multiplication operator requires a homogeneous degree-0 class")
    ctx, F = element.ctx, element.field
    basis = graded_basis(ctx, degree)
    index = {tuple(entry): i for i, entry in enumerate(basis)}
    rows = [[F.zero()] * len(basis) for _ in basis]
    for (d1, m1), c in element.terms.items():
        for j, (d2, m2) in enumerate(basis):
            for (diagram, dm), b in schubert_product(ctx, d1, d2).items():
                i = index[(diagram, m1 + m2 + dm)]
                rows[i][j] = F.add(rows[i][j], F.mul(c, F.from_int(b)))
    return SquareMatrix(F, rows)


def closed_form_matrix(n: int, field: FieldCtx) -> SquareMatrix:
    """Tridiagonal matrix of the distinguished element on the degree n-2 piece.

    Size (n-1)/2 for odd n and n/2 for even n; +1 in the top-left corner, -1
    on the off-diagonals, and (for even n) +1 in the bottom-right corner as
    well.

    One matrix per (n, field object) is shared, with the reduction that
    char_poly and min_poly keep on it, from the module memo _CLOSED_FORMS. It
    is keyed on operator.index(n), so a non-integer n raises TypeError, and
    on the field, and a hit over an equal but distinct field object is built
    again. The memo is cleared whole when its matrices would hold more than
    CLOSED_FORM_CAP cells in all, and a larger matrix is not kept.
    """
    if n < 3:
        raise ValueError(f"n >= 3 required, got n={n}")
    key = (index(n), field)
    kept = _CLOSED_FORMS.get(key)
    if kept is not None and kept.field is field:
        return kept
    size = (n - 1) // 2 if n % 2 == 1 else n // 2
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    for i in range(size - 1):
        rows[i][i + 1] = -1
        rows[i + 1][i] = -1
    if n % 2 == 0:
        rows[size - 1][size - 1] = 1
    matrix = SquareMatrix.from_int_rows(field, rows)
    _CLOSED_FORMS.keep(key, matrix, size * size, CLOSED_FORM_CAP)
    return matrix


def closed_form_charpoly(n: int) -> Poly:
    """det(M - xI) over Q for the closed-form degree-(n-2) multiplication matrix."""
    return char_poly(QQ, closed_form_matrix(n, QQ))


def charpoly_identity_holds(n: int) -> bool:
    """Exact Laurent check: x^ell pi(-x - 1/x) equals x^(n-1) + ... + x + 1
    for odd n = 2 ell + 1, and (x + 1)(x^(n-1) + ... + 1) for even n = 2 ell + 2.

    Both sides have integer coefficients, and pi -> x^ell pi(-x - 1/x) is
    triangular with leading coefficients +-1, so the identity fails as soon
    as a coefficient of pi is not an integer; otherwise Horner's rule runs on
    ints. The Laurent polynomial is a list indexed by exponent + ell, with
    ell = deg pi, which is the shift to the right-hand side.
    """
    coeffs = closed_form_charpoly(n).coeffs
    if any(c.denominator != 1 for c in coeffs):
        return False
    ell = len(coeffs) - 1
    expansion = [0] * (2 * ell + 1)
    for c in reversed(coeffs):
        new = [0] * (2 * ell + 1)
        for i, v in enumerate(expansion):  # multiply by (-x - 1/x)
            if v:
                new[i + 1] -= v
                new[i - 1] -= v
        new[ell] += c.numerator
        expansion = new
    want = [1] * n if n % 2 == 1 else [1] + [2] * (n - 1) + [1]
    return expansion == want


# ---------------------------------------------------------------------------
# unit-group number theory and Frobenius orbits


def generates_units(p: int, n: int) -> bool:
    """Whether {p, -1} generates (Z/nZ)^x.

    With m the order of p, the subgroup <p, -1> has m elements when -1 is a
    power of p (m even and p^(m/2) = -1, the only element of order 2 in the
    cyclic group <p>) and 2m otherwise; compare that with phi(n).
    """
    if n < 1 or gcd(p, n) != 1:
        raise ValueError(f"gcd({p}, {n}) must be 1")
    if n <= 2:
        return True
    m = multiplicative_order(p, n)
    minus_one_is_power = m % 2 == 0 and pow(p, m // 2, n) == n - 1
    return (m if minus_one_is_power else 2 * m) == euler_phi(n)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits of {a, -a} -> {pa, -pa} on nonzero inverse pairs mod n."""

    n: int
    p: int
    orbits: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def sizes(self) -> list[int]:
        """Orbit sizes, in the order of the orbits: by (size, smallest representative)."""
        return [len(o) for o in self.orbits]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "orbitCount": self.count,
            "orbits": [[list(pair) for pair in orbit] for orbit in self.orbits],
            "sizes": self.sizes(),
        }


def _check_orbit_args(n: int, p: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if gcd(n, p) != 1:
        raise ValueError(f"gcd({n}, {p}) must be 1")


def orbit_decomposition(n: int, p: int) -> OrbitDecomposition:
    """Partition of the pairs {a, -a}, a != 0, under multiplication by p (n >= 1)."""
    _check_orbit_args(n, p)
    reps = list(range(1, n // 2 + 1))  # pair {a, n-a} keyed by min
    seen: set[int] = set()
    orbits = []
    for start in reps:
        if start in seen:
            continue
        orbit = []
        a = start
        while a not in seen:
            seen.add(a)
            orbit.append((a, n - a))
            a = min(p * a % n, (n - p * a) % n)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (len(o), o[0][0]))
    return OrbitDecomposition(n, p, tuple(orbits))


def orbit_sizes(n: int, p: int) -> list[int]:
    """orbit_decomposition(n, p).sizes() in closed form, from the divisors of n.

    For a divisor m > 1 of n, the pairs {a, -a} with gcd(a, n) = n/m are the
    group (Z/m)^x/{+-1}: phi(m)/2 elements, or one ({n/2, n/2}) for m = 2.
    <p> acts on it by translation, so all its orbits have the size s_m of the
    image of <p>: ord_m(p), halved when -1 = p^(ord/2) mod m. That gives
    phi(m)/(2 s_m) orbits of size s_m. n is factored once; the order mod each
    prime power q^e grows from ord_q(p) by a factor 1 or q per step, and
    ord_m(p) is the lcm over the prime powers of m.
    """
    _check_orbit_args(n, p)
    divisors = [(1, 1, 1)]  # (m, phi(m), ord_m(p))
    for q, exponent in factorize(n).items():
        grown = []
        qe = order = 1
        for e in range(1, exponent + 1):
            qe *= q
            if e == 1:
                order = order_dividing(p % q, q, q - 1)
            elif pow(p, order, qe) != 1:
                order *= q
            grown += [(m * qe, phi * (qe - qe // q), lcm(o, order)) for m, phi, o in divisors]
        divisors += grown
    counts: dict[int, int] = {}
    for m, phi, order in divisors[1:]:  # divisors[0] is m = 1, the excluded a = 0
        if m == 2:
            size, count = 1, 1  # the self-paired {n/2, n/2}
        else:
            size = order // 2 if order % 2 == 0 and pow(p, order // 2, m) == m - 1 else order
            count = phi // (2 * size)
        counts[size] = counts.get(size, 0) + count
    return [size for size in sorted(counts) for _ in range(counts[size])]


# ---------------------------------------------------------------------------
# Frobenius field test


def _is_field_mod_p(ctx: GrContext, p: int) -> bool:
    """Whether QH^0 over GF(p) is a field (Berlekamp, Bell Syst. Tech. J. 1967).

    a -> a^p is GF(p)-linear on QH^0; column j of its matrix Fr is the p-th
    power of the j-th basis class, p - 1 quantum products over GF(p). QH^0 is
    a field exactly when min_poly(Fr) = x^dim - 1. x does not divide that,
    so Fr is injective, QH^0 has no nonzero nilpotent and is a product of
    fields GF(p^d_i), on which min_poly(Fr) is the lcm of the x^d_i - 1.
    They share the factor x - 1, so the lcm has degree dim only for one
    factor; on GF(p^dim) itself the p-th power has order dim, and its
    minimal polynomial is x^dim - 1.
    """
    F = prime_field(p)
    basis = qh0_basis(ctx)
    powers = [reduce(mul, [QhElement.schubert(ctx, F, *b)] * p).terms for b in basis]
    frobenius = SquareMatrix(F, [[power.get(key, F.zero()) for power in powers] for key in basis])
    return min_poly(F, frobenius) == Poly(F, [-1] + [0] * (len(basis) - 1) + [1])


# ---------------------------------------------------------------------------
# graded-field decision


@dataclass
class GradedFieldCheck:
    """Verdict plus the evidence trail (each route that actually ran)."""

    is_field: bool
    routes: dict[str, bool] = dc_field(default_factory=dict)
    notes: list[str] = dc_field(default_factory=list)


def is_graded_field(ctx: GrContext, F: FieldCtx) -> GradedFieldCheck:
    """Decide whether QH^*(Gr(k,n); F) is a graded field, with evidence.

    The "rule" route is classify(k, n, char F).is_graded_field, recorded
    over Q and GF(p). For k = 2 and odd n the routes add irreducibility of
    the closed-form characteristic polynomial pi over F and, over GF(p^m),
    the unit-group criterion for |F|. The "zero_divisor_search" route over
    GF(p^m) holds when QH^0 over GF(p) is a field (_is_field_mod_p) and
    gcd(dim QH^0, m) = 1, as GF(p^dim) over GF(p^m) splits into gcd(dim, m)
    fields (Thm 3.46, as for pi below). It is reported when |F|^dim QH^0 is
    at most _ZERO_DIVISOR_ROUTE_LIMIT; dim comes from _qh0_dim, so no other
    case lists a basis of QH^0. The verdict is the charpoly route, else that
    route, else the rule (noted "rule-only"); routes that disagree raise
    RuntimeError.

    Over Q the route needs no factorizer. For odd n = 2 ell + 1,
    charpoly_identity_holds checks x^ell pi(-x - 1/x) = (x^n - 1)/(x - 1),
    the product of the cyclotomic polynomials Phi_d over the divisors d > 1
    of n. Each Phi_d is irreducible over Q, and a factor g of pi gives the
    factor x^deg g g(-x - 1/x) of that product, so pi is irreducible exactly
    when n is prime. A failed identity raises RuntimeError, and ell above
    RATIONAL_DEGREE_LIMIT raises DegreeLimitError before any work.

    Over GF(p^m), pi has integer coefficients, so it is built over GF(p) and
    tested there by the distinct-degree split: an irreducible f of degree d
    over GF(q) splits over GF(q^m) into gcd(d, m) irreducible factors of
    degree d / gcd(d, m) (Lidl and Niederreiter, Finite Fields, Thm 3.46), so
    pi is irreducible over GF(p^m) exactly when it is over GF(p) and
    gcd(deg pi, m) = 1.
    """
    k, n = ctx.k, ctx.n
    kk = min(k, n - k)
    p = F.characteristic
    m = 1 if F.order in (None, p) else F.degree  # |F| = p^m over GF(p^m)
    rule = classify(k, n, p).is_graded_field
    check = GradedFieldCheck(is_field=rule)

    if kk <= 1:
        check.routes["rule"] = rule
        check.notes.append("rank-one degree pieces: k = 1 (or its dual)" if kk else "k = n: Gr(n, n) is a point")
        return check

    if isinstance(F, (PrimeField, RationalField)):
        check.routes["rule"] = rule

    if kk == 2 and n % 2 == 1:
        if p and n % p == 0:
            if n == p:
                check.notes.append("n = p excluded: x^n - 1 = (x-1)^n collapses the roots")
                check.routes["rule"] = rule
            else:
                check.notes.append("p | n composite: charpoly route skipped, oracle only")
        elif isinstance(F, RationalField):
            if (n - 1) // 2 > RATIONAL_DEGREE_LIMIT:
                raise DegreeLimitError(
                    f"degree {(n - 1) // 2} above the supported bound {RATIONAL_DEGREE_LIMIT}"
                )
            if not charpoly_identity_holds(n):
                raise RuntimeError(f"pi of Gr(2,{n}) fails the Laurent identity")
            check.routes["charpoly_irreducible"] = is_prime(n)
        else:
            # GF(p) and GF(p^m): pi over GF(p) and the gcd rule of the docstring;
            # is_irreducible refuses Q(zeta_N) with FieldError
            base = F if m == 1 else F.base
            pi = char_poly(base, closed_form_matrix(n, base))
            check.routes["charpoly_irreducible"] = (
                is_irreducible(base, pi) and gcd(int(pi.degree), m) == 1
            )
            # the Frobenius is x -> x^|F|, so the unit-group cross-check uses
            # |F| mod n instead of p
            if m > 1 and gcd(F.order, n) == 1:
                check.routes["units_closure"] = is_prime(n) and generates_units(F.order % n, n)

    # |F| >= 2, so a dim past the limit's bit length is over it without the power
    dim = _qh0_dim(ctx)
    limit = _ZERO_DIVISOR_ROUTE_LIMIT
    if F.order is not None and dim < limit.bit_length() and F.order**dim <= limit:
        check.routes["zero_divisor_search"] = gcd(dim, m) == 1 and _is_field_mod_p(ctx, p)

    for route in ("charpoly_irreducible", "zero_divisor_search"):
        if route in check.routes:
            check.is_field = check.routes[route]
            break
    else:
        check.notes.append("rule-only")
    if len(set(check.routes.values())) > 1:
        raise RuntimeError(f"graded-field routes disagree for Gr({k},{n})/{F.label}: {check.routes}")
    return check


# ---------------------------------------------------------------------------
# classifier


@dataclass(frozen=True)
class Diameter:
    kind: str  # "finite" | "infinite" | "unknown"
    bound: int | None = None

    @classmethod
    def finite(cls, bound: int) -> "Diameter":
        """Diameter at most bound; classify passes the paper's floor(2k(n-k)/n),
        without derivation, and the tests check only that arithmetic."""
        return cls("finite", bound)

    @classmethod
    def infinite(cls) -> "Diameter":
        return cls("infinite")

    @classmethod
    def unknown(cls) -> "Diameter":
        return cls("unknown")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass
class ClassifierVerdict:
    k: int
    n: int
    char: int
    is_graded_field: bool
    diameter: Diameter
    reasons: list[str]
    orbit_count: int | None = None
    field_dims: list[int] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "n": self.n,
            "char": self.char,
            "isGradedField": self.is_graded_field,
            "diameter": self.diameter.to_json_dict(),
            "reasons": self.reasons,
        }
        if self.orbit_count is not None:
            out["orbitCount"] = self.orbit_count
        if self.field_dims is not None:
            out["fieldDims"] = self.field_dims
        return out


def classify(k: int, n: int, char_spec: int) -> ClassifierVerdict:
    """Graded-field / spectral-diameter verdict for (Gr(k, n), characteristic).

    For k = 2 (or its dual) and a characteristic p coprime to n, the verdict
    also carries the field summands of QH^0: orbit_count orbits of
    x -> p*x on the inverse pairs mod n, with field_dims their sizes in
    increasing order, as orbit_sizes(n, p) computes them from the divisors
    of n without listing the orbits.

    A graded field gets the finite diameter bound floor(2k(n-k)/n) of the
    paper, reported without derivation; the tests pin only its arithmetic.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if char_spec != 0 and not is_prime(char_spec):
        raise ValueError(f"characteristic must be 0 or a prime, got {char_spec}")
    reasons: list[str] = []
    kk = min(k, n - k)
    if 0 < kk != k:
        reasons.append(f"replaced k={k} by n-k={kk} via the duality Gr(k,n) = Gr(n-k,n)")

    # the graded-field rule: k = n, k = 1, or k = 2 with n prime, char != n,
    # and char = 0 or {char, -1} generating the units mod n
    is_field = kk <= 1
    field_dims = None
    if not kk:
        reasons.append(f"k = n: Gr({n},{n}) is a point, so QH^0 = F")
    elif kk == 1:
        reasons.append("k = 1: every graded piece has rank one, so QH^0 = F")
    elif kk == 2:
        if char_spec and gcd(n, char_spec) == 1:
            field_dims = orbit_sizes(n, char_spec)
        if not is_prime(n):
            reasons.append(f"k = 2 but n = {n} is not prime")
        elif char_spec == n:
            reasons.append("n = p excluded: the characteristic divides n")
        elif char_spec == 0:
            is_field = True
            reasons.append(f"k = 2 with n = {n} prime over characteristic 0")
        elif len(field_dims) == 1:
            # n prime: {p, -1} generates (Z/nZ)^x exactly when its pairs {a, -a} form one orbit
            is_field = True
            reasons.append(
                f"k = 2, n = {n} prime, and {{{char_spec}, -1}} generates (Z/{n}Z)^x"
            )
        else:
            reasons.append(
                f"{{{char_spec}, -1}} does not generate (Z/{n}Z)^x"
            )
    else:
        reasons.append(
            f"k = {kk} >= 3: the degree-zero dimension count rules out a field"
        )

    if is_field:
        diameter = Diameter.finite((2 * kk * (n - kk)) // n)
        reasons.append("graded field: spectral diameter bounded by 2k(n-k)/n rounded down")
    elif char_spec == 0 and n % 2 == 0 and kk % 2 == 0 and kk >= 2:
        diameter = Diameter.infinite()
        reasons.append(
            f"Gr({kk},{n}) = Gr(2*{kk // 2}, 2*{n // 2}) with {kk // 2} < {n // 2}: "
            "disjoint quaternionic and Gelfand-Cetlin Lagrangians force infinite diameter"
        )
    else:
        diameter = Diameter.unknown()
        reasons.append("no finiteness rule applies and no infiniteness theorem covers this case")

    verdict = ClassifierVerdict(
        k=k, n=n, char=char_spec, is_graded_field=is_field, diameter=diameter, reasons=reasons
    )
    if field_dims is not None:
        verdict.field_dims = field_dims
        verdict.orbit_count = len(field_dims)
    elif kk == 2 and char_spec and n % char_spec == 0:
        reasons.append("p | n: the orbit method does not apply (no field-summand count)")
    return verdict
