"""Exact field arithmetic plus polynomial and matrix utilities.

Supported fields: the rationals Q, prime fields GF(p), extension fields
GF(p^m) presented by a monic irreducible modulus, and cyclotomic
extensions Q[x]/(Phi_N). Field elements are plain immutable values
(Fraction, int in [0, p), or tuple of base elements); all arithmetic goes
through the field-context object, so the generic algorithms here
(characteristic polynomials, gcds, irreducibility tests) are written once.

ExtensionField accepts only GF(p) or Q as its base and a monic modulus with
integer coefficients, which is all that make_extension and cyclotomic_field
build; anything else raises FieldError. Its product is one integer kernel:
coefficient lists are convolved as Python ints and reduced by the integer
modulus, then reduced mod p once per coefficient over GF(p), or, over Q,
with each factor's denominators cleared first, turned into one Fraction per
coefficient. Addition and negation over GF(p) work on the ints directly.
A GF(p^m) of order at most TABLE_CAP builds log and antilog tables from
multiplicative_generator on its first product or inverse, and from then on
mul and inv are lookups (Huber, Some comments on Zech's logarithms, 1990).
The cap keeps that build to a few milliseconds: GF(2^9) takes about 6 ms,
GF(13^4) would take about 0.13 s and GF(2^16) about 1 s.

Every field lifts a list of elements to integer coordinates over one common
denominator (_lift_ints) and maps integer combinations of them back, one
conversion per result (_drop_ints): the int itself over GF(p), numerators
over the lcm of the denominators over Q, coefficient lists over an
extension. The extension product clears denominators through the same lift,
and qh_core.quantum_product sums structure constants times these
coordinates before it builds any element. _mul_ints multiplies two such
coordinates of denominator 1 (the bare kernel over Q(zeta_N), mul
elsewhere) and _dot_ints sums int multiples of them, which is how
presentation.ev_map evaluates.

char_poly reduces a matrix to upper Hessenberg form once and runs the
determinant recurrence on it. min_poly reuses that reduction: a Hessenberg
matrix with no zero on its subdiagonal is nonderogatory, so its minimal
polynomial is its monic characteristic polynomial, and only a matrix whose
reduced form has a zero there goes to the Krylov lcm. SquareMatrix.is_singular
eliminates by cross-multiplying rows and inverts no element of a finite field.

Over a finite field, is_irreducible, distinct_degree_profile and
factor_squarefree_finite share one distinct-degree split: a squarefree f is
irreducible when the first part of its split has degree deg f, and the
factorization splits each part further by Cantor-Zassenhaus. Over Q,
is_irreducible screens up to 10 primes below 1000 by their degree profiles and
factors only the first prime with the fewest modular factors, for Hensel
lifting and factor recombination. Recombination tries subsets of the lifted
factors smallest first, so a rational root shows up as a subset of size one;
its budget of 200,000 subsets is counted size by size, and the first size
that would exceed it raises DegreeLimitError.

Everything is exact; no floating point appears in this module.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from typing import Any, Iterator, Sequence

from .numberth import cyclotomic_polynomial, factorize, int_poly_divmod_monic, is_prime

Element = Any

NEG_INF = float("-inf")

# GF(p^m) of at most this order multiplies and inverts by log tables
TABLE_CAP = 512


class FieldError(ValueError):
    """Invalid field construction or operation."""


class DegreeLimitError(FieldError):
    """Polynomial degree above the supported bound."""


class UnsupportedCharacteristicError(FieldError):
    """Operation undefined in this characteristic (e.g. p | n roots of unity)."""


class FieldCtx:
    """Abstract exact field; concrete elements are opaque immutable values."""

    label = "?"
    order: int | None = None  # None for infinite fields

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        raise NotImplementedError

    def add(self, a, b) -> Element:
        raise NotImplementedError

    def neg(self, a) -> Element:
        raise NotImplementedError

    def mul(self, a, b) -> Element:
        raise NotImplementedError

    def inv(self, a) -> Element:
        raise NotImplementedError

    def sub(self, a, b) -> Element:
        return self.add(a, self.neg(b))

    def div(self, a, b) -> Element:
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def from_int(self, value: int) -> Element:
        raise NotImplementedError

    def _lift_ints(self, values: Sequence[Element]) -> tuple[list, int]:
        """(coords, d): the values as integer coordinates over one common
        denominator d: an int per value, a sequence of ints over an extension.
        Integer combinations of the coords, then _drop_ints, give the same
        combinations of the values."""
        raise NotImplementedError

    def _drop_ints(self, coords: dict, d: int) -> dict:
        """The same keys mapped to the field elements coords[key] / d, zeros left out."""
        raise NotImplementedError

    def _mul_ints(self, a, b):
        """The product of two integer coordinates of _lift_ints with d = 1, as
        integer coordinates again; mul itself except over Q(zeta_N)."""
        return self.mul(a, b)

    def _dot_ints(self, weights: Sequence[int], coords: Sequence) -> Any:
        """Sum of weights[i] * coords[i], integer coordinates for _drop_ints."""
        return sum(map(operator.mul, weights, coords))

    def pow(self, a, exponent: int) -> Element:
        if exponent < 0:
            return self.pow(self.inv(a), -exponent)
        result = self.one()
        base = a
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result

    def elements(self) -> Iterator[Element]:
        raise FieldError(f"{self.label} is not finite")

    def random_element(self, rng: random.Random) -> Element:
        raise NotImplementedError

    def element_to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.label


class RationalField(FieldCtx):
    """The field Q with arbitrary-precision Fraction elements."""

    label = "Q"
    order = None

    @property
    def characteristic(self) -> int:
        return 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1, a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return Fraction(a, b)

    def is_zero(self, a):
        return a == 0

    def from_int(self, value):
        return Fraction(value)

    def _lift_ints(self, values):
        d = lcm(*[c.denominator for c in values])
        return [c.numerator * (d // c.denominator) for c in values], d

    def _drop_ints(self, coords, d):
        return {key: Fraction(v, d) for key, v in coords.items() if v}

    def random_element(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


class PrimeField(FieldCtx):
    """GF(p) with elements the integers 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.label = f"GF({p})"

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, value):
        return value % self.p

    def _lift_ints(self, values):
        return values, 1

    def _drop_ints(self, coords, d):
        p = self.p
        return {key: r for key, v in coords.items() if (r := v % p)}

    def pow(self, a, exponent):
        if exponent < 0:
            return pow(self.inv(a), -exponent, self.p)
        return pow(a, exponent, self.p)

    def elements(self):
        return iter(range(self.p))

    def random_element(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


class ExtensionField(FieldCtx):
    """base[x]/(modulus) for GF(p) or Q and a monic irreducible integer
    modulus; elements are tuples of base elements. The product's integer
    kernel reduces by precomputed rows x^d mod modulus; a field of order at
    most TABLE_CAP multiplies and inverts by log tables instead (see the
    module docstring)."""

    def __init__(self, base: FieldCtx, modulus: Sequence[Element], label: str | None = None):
        if isinstance(base, PrimeField):
            p = base.p
        elif isinstance(base, RationalField):
            p = 0
        else:
            raise FieldError(f"extension fields are built over GF(p) or Q, not {base.label}")
        given = tuple(modulus)
        try:
            ints = tuple(int(c) for c in given)
        except (TypeError, ValueError):
            ints = None
        if ints != given:
            raise FieldError("modulus must have integer coefficients")
        modulus = tuple(base.from_int(c) for c in ints)
        if len(modulus) < 3 or modulus[-1] != base.one():
            raise FieldError("modulus must be monic of degree >= 2")
        self.base = base
        self.modulus = modulus
        self.degree = m = len(modulus) - 1
        self.order = None if base.order is None else base.order**m
        self.label = label or f"{base.label}[t]/({_poly_text(base, modulus, 't')})"
        self.cyclotomic_order: int | None = None
        self._generator_cache: Element | None = None
        self._p = p
        # log and antilog tables (_tables), built on the first product or
        # inverse of a field of order <= TABLE_CAP; {} means no tables
        self._log: dict | None = None if self.order is not None and self.order <= TABLE_CAP else {}
        self._exp: list = []
        # _reduce[t] holds the coefficients of x^(m+t) mod modulus over Z
        row = [-c for c in ints[:-1]]
        self._reduce: list[list[int]] = []
        for _ in range(m - 1):
            self._reduce.append([c % p for c in row] if p else row)
            row = [c - row[-1] * d for c, d in zip([0] + row[:-1], ints)]

    @property
    def characteristic(self) -> int:
        return self.base.characteristic

    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * (self.degree - 1)

    def gen(self):
        """The class of t, i.e. a root of the modulus."""
        z = self.base.zero()
        return tuple(self.base.one() if i == 1 else z for i in range(self.degree))

    def add(self, a, b):
        p = self._p
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple([x + y for x, y in zip(a, b)])

    def neg(self, a):
        p = self._p
        if p:
            return tuple([-x % p for x in a])
        return tuple([-x for x in a])

    def sub(self, a, b):
        p = self._p
        if p:
            return tuple([(x - y) % p for x, y in zip(a, b)])
        return tuple([x - y for x, y in zip(a, b)])

    def _kernel(self, a, b) -> list[int]:
        """a * b for integer coordinate lists: convolved, then reduced by the
        rows x^d mod modulus; no Fraction and no reduction mod p."""
        m = self.degree
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        for high, row in zip(prod[m:], self._reduce):
            if high:
                for j, r in enumerate(row):
                    prod[j] += high * r
        del prod[m:]
        return prod

    def _tables(self) -> dict:
        """Build the log and antilog tables from multiplicative_generator; the
        products that find the generator run while the log is still empty.

        exp holds g^0..g^(q-2) twice, so a sum of two logs indexes it without
        a reduction, then zeros: 0 has log 2(q-1), and every sum with it lands
        there."""
        self._log = {}
        g = multiplicative_generator(self)
        q1 = self.order - 1
        powers = [self.one()]
        for _ in range(q1 - 1):
            powers.append(self.mul(powers[-1], g))
        self._exp = powers + powers + [self.zero()] * (2 * q1 + 1)
        log = {a: i for i, a in enumerate(powers)}
        log[self.zero()] = 2 * q1
        self._log = log
        return log

    def mul(self, a, b):
        p = self._p
        if not p:
            (a,), da = self._lift_ints((a,))
            (b,), db = self._lift_ints((b,))
            d = da * db
            return tuple([Fraction(c, d) for c in self._kernel(a, b)])
        log = self._log
        if log is None:
            log = self._tables()
        if log:
            la = log.get(a)
            if la is not None:
                lb = log.get(b)
                if lb is not None:
                    return self._exp[la + lb]
        return tuple([c % p for c in self._kernel(a, b)])

    def _mul_ints(self, a, b):
        return self.mul(a, b) if self._p else self._kernel(a, b)

    def _dot_ints(self, weights, coords):
        return [sum(map(operator.mul, weights, column)) for column in zip(*coords)]

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        log = self._log
        if log is None:
            log = self._tables()
        la = log.get(a) if log else None
        if la is not None:
            return self._exp[self.order - 1 - la]
        f = Poly(self.base, a)
        g = Poly(self.base, self.modulus)
        d, s, _ = poly_ext_gcd(f, g)
        if d.degree != 0:
            raise FieldError("modulus is not irreducible")
        s = s.scale(self.base.inv(d.coeffs[0]))
        coeffs = list(s.coeffs) + [self.base.zero()] * self.degree
        return tuple(coeffs[: self.degree])

    def is_zero(self, a):
        return not any(a)

    def from_int(self, value):
        z = self.base.zero()
        return (self.base.from_int(value),) + (z,) * (self.degree - 1)

    def _lift_ints(self, values):
        if self._p:
            return values, 1
        d = lcm(*[c.denominator for v in values for c in v])
        return [[c.numerator * (d // c.denominator) for c in v] for v in values], d

    def _drop_ints(self, coords, d):
        p = self._p
        if p:
            return {key: t for key, v in coords.items() if any(t := tuple([c % p for c in v]))}
        return {key: tuple([Fraction(c, d) for c in v]) for key, v in coords.items() if any(v)}

    def lift(self, a) -> Element:
        """Embed a base-field element."""
        z = self.base.zero()
        return (a,) + (z,) * (self.degree - 1)

    def elements(self):
        if self.order is None:
            raise FieldError(f"{self.label} is not finite")
        # t^0 varies fastest, as in make_extension's scan; multiplicative_generator
        # and the zero-divisor witnesses depend on this order
        for digits in itertools.product(range(self.base.order), repeat=self.degree):
            yield digits[::-1]

    def random_element(self, rng):
        return tuple(self.base.random_element(rng) for _ in range(self.degree))

    def element_to_str(self, a):
        return _poly_text(self.base, a, "t")

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))


def _poly_text(field: FieldCtx, coeffs: Sequence[Element], var: str) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if field.is_zero(c):
            continue
        cstr = field.element_to_str(c)
        if i == 0:
            parts.append(cstr)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            parts.append(xpow if cstr == "1" else f"{cstr}*{xpow}")
    return " + ".join(parts) if parts else "0"


class Poly:
    """Dense univariate polynomial over a field, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs: Sequence[Element] = ()):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field: FieldCtx, ints: Sequence[int]) -> "Poly":
        return cls(field, [field.from_int(i) for i in ints])

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Element:
        if not self.coeffs:
            raise FieldError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.label, self.coeffs))

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if not self.coeffs or not other.coeffs:
            return Poly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other):
        F = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return Poly.zero(F), Poly(F, rem)
        inv_lc = F.inv(other.lc())
        quot = [F.zero()] * (len(rem) - dlen + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = F.mul(rem[i + dlen - 1], inv_lc)
            if F.is_zero(c):
                continue
            quot[i] = c
            for j, d in enumerate(other.coeffs):
                rem[i + j] = F.sub(rem[i + j], F.mul(c, d))
        return Poly(F, quot), Poly(F, rem[: dlen - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(
            F, [F.mul(F.from_int(i), c) for i, c in enumerate(self.coeffs)][1:]
        )

    def pow_mod(self, exponent: int, modulus: "Poly") -> "Poly":
        if exponent < 0:
            raise FieldError("negative exponent in pow_mod")
        result = Poly.one(self.field) % modulus
        base = self % modulus
        while exponent:
            if exponent & 1:
                result = (result * base) % modulus
            exponent >>= 1
            if exponent:
                base = (base * base) % modulus
        return result

    def to_text(self) -> str:
        return _poly_text(self.field, self.coeffs, "x")

    def __repr__(self):
        return f"Poly({self.field.label}: {self.to_text()})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


# ---------------------------------------------------------------------------
# field constructors


@lru_cache(maxsize=None)
def make_extension(p: int, m: int) -> FieldCtx:
    """Deterministic field of order p^m; first irreducible modulus in a fixed scan."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    base = prime_field(p)
    if m == 1:
        return base
    # t^0 varies fastest, as in ExtensionField.elements
    for digits in itertools.product(range(p), repeat=m):
        candidate = Poly(base, digits[::-1] + (1,))
        if is_irreducible(base, candidate):
            return ExtensionField(base, candidate.coeffs, label=f"GF({p}^{m})")
    raise FieldError("no irreducible modulus found")  # pragma: no cover


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> FieldCtx:
    """Q(zeta_n) as Q[x]/(Phi_n); the generator is a primitive n-th root of unity.

    Phi_n is irreducible over Q, a theorem that is not re-proved at run time;
    the tests check Phi_n and its irreducibility against sympy for n <= 40.
    """
    if n < 1:
        raise FieldError("n must be positive")
    coeffs = cyclotomic_polynomial(n)
    if len(coeffs) == 2:  # n in {1, 2}: Phi_n linear, the field is Q itself
        return QQ
    field = ExtensionField(QQ, coeffs, label=f"Q(zeta{n})")
    field.cyclotomic_order = n
    return field


def parse_field(text: str) -> FieldCtx:
    """Field spec strings: "Q", "GF(p)", "GF(p^m)"."""
    text = text.strip()
    if text in ("Q", "QQ", "q"):
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        inner = text[3:-1]
        if "^" in inner:
            p_str, m_str = inner.split("^", 1)
            return make_extension(int(p_str), int(m_str))
        return prime_field(int(inner))
    raise FieldError(f"cannot parse field spec {text!r}")


# ---------------------------------------------------------------------------
# roots of unity


def multiplicative_generator(F: FieldCtx) -> Element:
    """Smallest generator of F^x in the canonical element enumeration."""
    if F.order is None:
        raise FieldError("multiplicative generator needs a finite field")
    cached = getattr(F, "_generator_cache", None)
    if cached is not None:
        return cached
    q1 = F.order - 1
    prime_divs = list(factorize(q1)) if q1 > 1 else []
    one = F.one()
    for g in F.elements():
        if F.is_zero(g):
            continue
        if all(F.pow(g, q1 // r) != one for r in prime_divs):
            F._generator_cache = g
            return g
    raise FieldError("no generator found")  # pragma: no cover


def nth_roots_of_unity(F: FieldCtx, n: int) -> tuple[Element, ...]:
    """All n distinct n-th roots of unity, as consecutive powers of a fixed root."""
    if n < 1:
        raise FieldError("n must be positive")
    one = F.one()
    if n == 1:
        return (one,)
    p = F.characteristic
    if p and n % p == 0:
        raise UnsupportedCharacteristicError(
            f"x^{n} - 1 is inseparable in characteristic {p}; use m = n / p^d roots"
        )
    if F.order is not None:
        if (F.order - 1) % n:
            raise FieldError(f"{F.label} has no primitive {n}-th root of unity")
        zeta = F.pow(multiplicative_generator(F), (F.order - 1) // n)
    elif isinstance(F, ExtensionField) and F.cyclotomic_order is not None:
        if F.cyclotomic_order % n:
            raise FieldError(f"{F.label} has no primitive {n}-th root of unity")
        zeta = F.pow(F.gen(), F.cyclotomic_order // n)
    elif isinstance(F, RationalField):
        if n == 2:
            return (one, F.neg(one))
        raise FieldError(f"Q has no primitive {n}-th root; use cyclotomic_field({n})")
    else:
        raise FieldError(f"no roots of unity available in {F.label}")
    roots = [one]
    for _ in range(n - 1):
        roots.append(F.mul(roots[-1], zeta))
    if len(set(roots)) != n:  # pragma: no cover - guarded by the order checks
        raise FieldError("roots of unity are not distinct")
    return tuple(roots)


# ---------------------------------------------------------------------------
# matrices


class SquareMatrix:
    """Dense square matrix over a field."""

    __slots__ = ("field", "size", "rows")

    def __init__(self, field: FieldCtx, rows: Sequence[Sequence[Element]]):
        rows = tuple(tuple(r) for r in rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix is not square")
        self.field = field
        self.size = size
        self.rows = rows

    @classmethod
    def from_int_rows(cls, field, rows):
        return cls(field, [[field.from_int(v) for v in row] for row in rows])

    def __eq__(self, other):
        return (
            isinstance(other, SquareMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def apply(self, vector: Sequence[Element]) -> list[Element]:
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, vector):
                if not F.is_zero(a):
                    acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out

    def is_singular(self) -> bool:
        """Whether det = 0, by elimination that cross-multiplies rows.

        The first row with a nonzero leading entry p is the pivot row; every
        other row r with a nonzero leading entry becomes
        p * r - r[0] * pivot_row with its first column dropped, which scales
        the determinant by p and inverts nothing. A row that already leads
        with zero just loses its first column.
        """
        F = self.field
        m = [list(r) for r in self.rows]
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

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.element_to_str(v) for v in row) for row in self.rows
        )
        return f"SquareMatrix({self.field.label} {self.size}x{self.size}: {body})"


def _hessenberg(F: FieldCtx, M: SquareMatrix) -> list[list[Element]]:
    """Upper Hessenberg matrix similar to M, as mutable rows.

    Column j is cleared below row j + 1 by the first nonzero entry at or
    below j + 1, swapped into place; a column with no such entry is left
    with a zero on the subdiagonal. The pivot is inverted only when a row
    below it needs clearing, so an already tridiagonal matrix costs
    O(size^2) comparisons and no field operation.
    """
    n = M.size
    h = [list(row) for row in M.rows]
    for j in range(n - 2):
        pivot = next((r for r in range(j + 1, n) if not F.is_zero(h[r][j])), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for row in h:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = None
        for r in range(j + 2, n):
            if F.is_zero(h[r][j]):
                continue
            if inv is None:
                inv = F.inv(h[j + 1][j])
            t = F.mul(h[r][j], inv)
            h[r] = [F.sub(a, F.mul(t, b)) for a, b in zip(h[r], h[j + 1])]
            for row in h:
                row[j + 1] = F.add(row[j + 1], F.mul(t, row[r]))
    return h


def _hessenberg_charpoly(F: FieldCtx, h: list[list[Element]]) -> Poly:
    """det(xI - H) for an upper Hessenberg H, monic, by the recurrence
    p_r = (x - h_rr) p_(r-1) - sum_i h_(i,r) (h_(i+1,i)...h_(r,r-1)) p_(i-1),
    which skips the terms whose h_(i,r) is zero: on a tridiagonal matrix it
    costs O(size^2) field operations instead of O(size^3)."""
    x = Poly.x(F)
    polys = [Poly.one(F)]
    for r in range(1, len(h) + 1):
        p = (x - Poly.constant(F, h[r - 1][r - 1])) * polys[r - 1]
        prod = F.one()
        for i in range(r - 1, 0, -1):
            prod = F.mul(prod, h[i][i - 1])
            if not F.is_zero(h[i - 1][r - 1]):
                p = p - polys[i - 1].scale(F.mul(h[i - 1][r - 1], prod))
        polys.append(p)
    return polys[-1]


def char_poly(F: FieldCtx, M: SquareMatrix) -> Poly:
    """det(M - xI), computed by exact Hessenberg reduction over the field.

    Leading coefficient is (-1)^size (the det(M - xI) sign convention). The
    reduction is _hessenberg and the determinant of the reduced matrix is
    _hessenberg_charpoly's recurrence.
    """
    monic = _hessenberg_charpoly(F, _hessenberg(F, M))  # det(xI - M)
    return monic if M.size % 2 == 0 else -monic


def min_poly(F: FieldCtx, M: SquareMatrix) -> Poly:
    """Monic minimal polynomial of M.

    M is reduced to Hessenberg form H once. When no subdiagonal entry of H
    is zero, H is unreduced, hence nonderogatory (e_1, He_1, ...,
    H^(size-1) e_1 are independent), and its minimal polynomial is its
    monic characteristic polynomial, read off the same H. Otherwise the
    result is _krylov_min_poly(F, M).
    """
    h = _hessenberg(F, M)
    if all(not F.is_zero(h[i][i - 1]) for i in range(1, M.size)):
        return _hessenberg_charpoly(F, h)
    return _krylov_min_poly(F, M)


def _krylov_min_poly(F: FieldCtx, M: SquareMatrix) -> Poly:
    """Monic minimal polynomial: the lcm over the unit vectors e of the
    minimal polynomial of M at e, which is the minimal polynomial of M.

    Each chain e, Me, M^2 e, ... is reduced against its own rows only, so
    its first dependence gives the exact minimal polynomial at e. The seeds
    stop early once the lcm has degree size.
    """
    n = M.size
    f = Poly.one(F)
    for seed in range(n):
        local: list[tuple[int, list[Element], Poly]] = []
        vec = [F.zero()] * n
        vec[seed] = F.one()
        weight = Poly.one(F)
        while True:
            reduced = list(vec)
            rel = weight
            for piv, row, row_poly in local:
                c = reduced[piv]
                if not F.is_zero(c):
                    reduced = [F.sub(a, F.mul(c, b)) for a, b in zip(reduced, row)]
                    rel = rel - row_poly.scale(c)
            pivot = next((i for i, c in enumerate(reduced) if not F.is_zero(c)), None)
            if pivot is None:
                f = poly_lcm(f, rel.monic())
                break
            inv = F.inv(reduced[pivot])
            reduced = [F.mul(inv, c) for c in reduced]
            rel = rel.scale(inv)
            local.append((pivot, reduced, rel))
            vec = M.apply(reduced)
            weight = Poly.x(F) * rel
        if f.degree == n:
            break
    return f


# ---------------------------------------------------------------------------
# distinct-degree split over finite fields


def _distinct_degree_parts(F: FieldCtx, f: Poly) -> Iterator[tuple[int, Poly]]:
    """Distinct-degree split of a monic squarefree f over GF(q): yields (d, the
    product of the degree-d irreducible factors of f) for each d that has
    factors, d ascending. x^(q^d) is carried mod the part not yet split off;
    once 2d exceeds its degree, that part is one irreducible factor."""
    x = Poly.x(F)
    g = f
    w = x % g
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            yield int(g.degree), g
            return
        w = w.pow_mod(F.order, g)
        h = poly_gcd(g, w - x)
        if h.degree > 0:
            yield d, h
            g = g // h
            w = w % g


def distinct_degree_profile(F: FieldCtx, f: Poly) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of squarefree f,
    ascending."""
    f = f.monic()
    if poly_gcd(f, f.derivative()).degree != 0:
        raise FieldError("distinct-degree profile requires a squarefree polynomial")
    return [d for d, h in _distinct_degree_parts(F, f) for _ in range(int(h.degree) // d)]


def _equal_degree_split(F: FieldCtx, g: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles. Each
    try draws h of degree < deg g from the whole field and takes the gcd of g
    with h^((q^d - 1)/2) - 1 for odd q, or, for q = 2^m, with the trace
    h + h^2 + ... + h^(2^(md - 1)) of h down to GF(2)."""
    if g.degree == d:
        return [g.monic()]
    q = F.order
    while True:
        h = Poly(F, [F.random_element(rng) for _ in range(int(g.degree))])
        if h.degree < 1:
            continue
        if q % 2 == 1:
            t = h.pow_mod((q**d - 1) // 2, g) - Poly.one(F)
        else:
            t = Poly.zero(F)
            w = h % g
            for _ in range(d * (q.bit_length() - 1)):
                t = (t + w) % g
                w = w.pow_mod(2, g)
        u = poly_gcd(g, t)
        if 0 < u.degree < g.degree:
            return _equal_degree_split(F, u, d, rng) + _equal_degree_split(
                F, g // u, d, rng
            )


def factor_squarefree_finite(F: FieldCtx, f: Poly) -> list[Poly]:
    """Monic irreducible factors of a squarefree polynomial over a finite field:
    each distinct-degree part is split by Cantor-Zassenhaus."""
    rng = random.Random(0x5EED)
    factors = [
        u for d, h in _distinct_degree_parts(F, f.monic()) for u in _equal_degree_split(F, h, d, rng)
    ]
    return sorted(factors, key=lambda p: (p.degree, p.coeffs))


# ---------------------------------------------------------------------------
# irreducibility over Q (modular degree patterns, then Hensel lifting with
# factor recombination)

RATIONAL_DEGREE_LIMIT = 64
_RECOMBINATION_BUDGET = 200_000  # subsets of lifted factors tried at most


def _int_content_primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if g == 0:
        return coeffs
    out = [c // g for c in coeffs]
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _subset_sum_mask(degrees: list[int]) -> int:
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _balanced(c: int, modulus: int) -> int:
    c %= modulus
    return c - modulus if c > modulus // 2 else c


def _hensel_pair(
    F_int: list[int], u: Poly, v: Poly, p: int, target: int
) -> tuple[list[int], list[int]]:
    """Lift F = u*v mod p (u, v monic coprime) to mod p^e >= target."""
    Fp = u.field
    g, s, t = poly_ext_gcd(u, v)
    inv = Fp.inv(g.coeffs[0])
    s, t = s.scale(inv), t.scale(inv)  # s*u + t*v = 1 mod p
    U = [c % p for c in u.coeffs]
    V = [c % p for c in v.coeffs]
    m = p
    while m < target:
        prod = _int_poly_mul(U, V)
        diff = [a - b for a, b in zip(F_int + [0] * len(prod), prod + [0] * len(F_int))]
        diff = diff[: max(len(F_int), len(prod))]
        assert all(c % m == 0 for c in diff), "Hensel invariant broken"
        dbar = Poly.from_ints(Fp, [(c // m) % p for c in diff])
        if dbar.is_zero:
            m *= p
            continue
        a = (t * dbar) % u
        b, rem = divmod(dbar - a * v, u)
        assert rem.is_zero
        acoef = [c % p for c in a.coeffs]
        bcoef = [c % p for c in b.coeffs]
        for i, c in enumerate(acoef):
            U[i] = (U[i] + m * c) % (m * p)
        for i, c in enumerate(bcoef):
            V[i] = (V[i] + m * c) % (m * p)
        m *= p
    return U, V


def _hensel_chain(F_int: list[int], factors: list[Poly], p: int, target: int) -> list[list[int]]:
    if len(factors) == 1:
        return [[c % target for c in F_int]]
    Fp = factors[0].field
    rest = Poly.one(Fp)
    for g in factors[1:]:
        rest = rest * g
    U, V = _hensel_pair(F_int, factors[0], rest, p, target)
    return [U] + _hensel_chain(V, factors[1:], p, target)


def _zassenhaus_reducible(F_int: list[int], p: int, factors: list[Poly]) -> bool:
    """True iff monic integer polynomial F_int factors over Z (Zassenhaus search).

    Subsets of the lifted factors are tried by size, smallest first, so a
    linear factor is found among the single factors. Before each size its
    subsets are added to the count; past _RECOMBINATION_BUDGET it raises
    DegreeLimitError.
    """
    n = len(F_int) - 1
    norm2 = isqrt(sum(c * c for c in F_int)) + 1
    bound = 2 * (norm2 << n) + 1
    modulus = p
    while modulus < bound:
        modulus *= p
    lifted = _hensel_chain(F_int, factors, p, modulus)
    r = len(lifted)
    degs = [len(f) - 1 for f in lifted]
    tried = 0
    for size in range(1, r // 2 + 1):
        tried += comb(r, size)
        if tried > _RECOMBINATION_BUDGET:
            raise DegreeLimitError("factor recombination search too large")
        for subset in itertools.combinations(range(r), size):
            cand = [1]
            for i in subset:
                cand = [c % modulus for c in _int_poly_mul(cand, lifted[i])]
            cand = [_balanced(c, modulus) for c in cand]
            if len(cand) - 1 != sum(degs[i] for i in subset):
                continue
            _, rem = int_poly_divmod_monic(F_int, cand)
            if not rem:
                return True
    return False


def _rational_irreducible(coeffs: list[Fraction]) -> bool:
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    ints = _int_content_primitive(ints)
    n = len(ints) - 1
    if n == 1:
        return True
    if ints[0] == 0:
        return False  # divisible by x
    fq = Poly(QQ, [Fraction(c) for c in ints])
    if poly_gcd(fq, fq.derivative()).degree != 0:
        return False  # repeated factor
    # monicize: F(y) = lc^(n-1) * f(y / lc), which is monic with integer coefficients
    lc = ints[-1]
    F_int = [c * lc ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    allowed = (1 << (n + 1)) - 1
    # recombination runs at the first prime with the fewest modular factors
    best: Poly | None = None
    fewest = n + 1
    usable = 0
    for p in filter(is_prime, range(1000)):
        Fp = prime_field(p)
        fp = Poly.from_ints(Fp, F_int).monic()
        if poly_gcd(fp, fp.derivative()).degree != 0:
            continue
        profile = distinct_degree_profile(Fp, fp)
        if len(profile) == 1:
            return True
        allowed &= _subset_sum_mask(profile)
        if not any((allowed >> d) & 1 for d in range(1, n)):
            return True
        if len(profile) < fewest:
            best, fewest = fp, len(profile)
        usable += 1
        if usable >= 10:
            break
    if best is None:  # pragma: no cover
        raise FieldError("no usable screening prime found")
    Fp = best.field
    return not _zassenhaus_reducible(F_int, Fp.p, factor_squarefree_finite(Fp, best))


def is_irreducible(F: FieldCtx, f: Poly) -> bool:
    """Exact irreducibility over a finite field or over Q.

    Over GF(q), f is irreducible exactly when it is squarefree (gcd(f, f') = 1,
    which also rejects f' = 0) and the distinct-degree split of monic f finds
    no factor of degree below deg f, so its first part has degree deg f.

    Over Q the degree is at most RATIONAL_DEGREE_LIMIT (64), else
    DegreeLimitError. Degree profiles mod small primes answer most inputs;
    the rest go to Zassenhaus recombination at one prime, which finds a
    rational root as a single lifted factor. A recombination past 200,000
    subsets raises DegreeLimitError.
    """
    if f.degree < 1:
        raise FieldError("irreducibility is only defined for nonconstant polynomials")
    if F.characteristic == 0:
        if not isinstance(F, RationalField):
            raise FieldError("characteristic-0 irreducibility is supported over Q only")
        if f.degree > RATIONAL_DEGREE_LIMIT:
            raise DegreeLimitError(
                f"degree {int(f.degree)} above the supported bound {RATIONAL_DEGREE_LIMIT}"
            )
        return _rational_irreducible([Fraction(c) for c in f.coeffs])
    if F.order is None:  # pragma: no cover
        raise FieldError("infinite fields of positive characteristic unsupported")
    f = f.monic()
    if poly_gcd(f, f.derivative()).degree != 0:
        return False
    return next(_distinct_degree_parts(F, f))[0] == f.degree
