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

make_extension(p, m) takes the first irreducible monic modulus of degree m
in the order of ExtensionField.elements (the constant term varying fastest),
and multiplicative_generator the first generator in that order. Neither
tests a candidate it can rule out: the binomials x^m + c when none can be
irreducible, and the constants of a proper extension, whose orders divide
p - 1. So a large p costs no scan of p candidates. A degree above
MAX_EXTENSION_DEGREE raises DegreeLimitError before any scan.

Every field lifts a list of elements to integer coordinates over one common
denominator (_lift_ints) and maps integer combinations of them back, one
conversion per result (_drop_ints): the int itself over GF(p), numerators
over the lcm of the denominators over Q, coefficient lists over an
extension. _canon_ints brings such combinations to one canonical form
instead: zeros left out, residues reduced mod p over a finite field (the
denominator is 1 there), and over Q and Q(zeta_N) numerators and
denominator divided by their gcd, so equal values have equal coordinates.
_lift_canon lifts elements given from outside straight to that form and
raises TypeError for a value that is not an element. A qh_core.QhElement
keeps its coefficients in that form; the extension product clears
denominators through _lift_ints. _mul_ints multiplies two coordinates (the
int product over Q, the bare kernel over Q(zeta_N), mul elsewhere), and
their denominators multiply; _accumulate adds N times one coordinate value
to a dict's sum at each (key, N), unreduced: ints in FieldCtx, new lists that
never change a value given in ExtensionField. qh_core and presentation sum
through it, and none of their code tests the shape of a coordinate; every
sum they form ends in _canon_ints. Over GF(p^m) the layer keeps one
invariant: a coordinate tuple is always a reduced residue (mul, _lift_canon
and _canon_ints return nothing else), and only _accumulate's lists are
unreduced. So _canon_ints keeps a tuple as given, with no reduction and no
zero test, and reduces and zero-tests a list. Every field sets
characteristic, 0 or p, once as a plain attribute; ExtensionField branches
on it between GF(p^m) and Q(zeta_N).

A Poly over GF(p) keeps its coefficients in [0, p) and multiplies them by
Kronecker substitution where a product coefficient over Z fits in 8 bytes
(per element otherwise). Remainders by a fixed modulus g, in the powers
and products of the distinct-degree split, go through a _PrimeReducer: the
inverse of g reversed, found once by Newton iteration, makes each remainder
two products and O(deg g) list work. One-off divisions and Euclid steps, whose quotients
are short, divide by int accumulation (_prime_divmod); poly_gcd keeps int
lists until it builds its one monic result. Other fields, and subclasses
that may override arithmetic, work per element. char_poly reduces a matrix
to upper Hessenberg form once and runs the determinant recurrence on it, on
ints over Q and GF(p) (not their subclasses). min_poly reuses that
reduction: a Hessenberg matrix with no zero on its subdiagonal is
nonderogatory, so its minimal polynomial is its monic characteristic
polynomial, and only a matrix whose reduced form has a zero there goes to
the Krylov lcm. SquareMatrix has no singularity test; degree_zero's
Frobenius field test compares the min_poly of its Frobenius matrix over
GF(p) with x^dim - 1. char_poly, min_poly, is_irreducible and
distinct_degree_profile raise FieldError when the matrix or polynomial is
over a field other than the one they are given.

Over a finite field, is_irreducible and distinct_degree_profile share one
distinct-degree split, which takes one gcd per block of SPLIT_BLOCK degrees
and steps through a block only when that gcd is nontrivial: a squarefree f
is irreducible when the first part of its split has degree deg f. There is
no factorizer over Q, and is_irreducible refuses characteristic 0 with
FieldError. The one rational polynomial the package decides, pi of
Gr(2, n), is decided in degree_zero.is_graded_field from the Laurent
identity x^ell pi(-x - 1/x) = (x^n - 1)/(x - 1) and the irreducibility of
the cyclotomic polynomials Phi_d.

Everything is exact; no floating point appears in this module.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Any, Iterable, Iterator, Sequence

from .numberth import cyclotomic_polynomial, factorize, is_prime

Element = Any

NEG_INF = float("-inf")

# GF(p^m) of at most this order multiplies and inverts by log tables
TABLE_CAP = 512

# make_extension refuses a degree m above this with DegreeLimitError. The scan
# grows with m: at m = 512, GF(2^m) takes 2.7 s and GF(3^m) 20 s on a 2-core
# host; the tests and the benchmark build no degree above 16
MAX_EXTENSION_DEGREE = 512

# array typecodes by item size: Kronecker slots of 1, 2, 4 or 8 bytes
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


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
    characteristic: int  # set once per field: 0 or p
    # every concrete field also defines sub, is_zero and _mul_ints

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

    def div(self, a, b) -> Element:
        return self.mul(a, self.inv(b))

    def from_int(self, value: int) -> Element:
        raise NotImplementedError

    def _lift_ints(self, values: Sequence[Element]) -> tuple[list, int]:
        """(coords, d): the values as integer coordinates over one common
        denominator d: an int per value, a sequence of ints over an extension.
        Integer combinations of the coords, then _drop_ints, give the same
        combinations of the values."""
        raise NotImplementedError

    def _drop_ints(self, items: Iterable[tuple[Any, Any]], d: int) -> dict:
        """{key: coords / d} over the (key, coords) pairs, zeros left out."""
        raise NotImplementedError

    def _lift_canon(self, items: Iterable[tuple[Any, Element]]) -> tuple[dict, int]:
        """_lift_ints and then _canon_ints on (key, element) pairs given from
        outside the field's own arithmetic, in one pass: TypeError for a value
        that is not an element (a float over Q, an int over an extension, a
        tuple of the wrong length)."""
        raise NotImplementedError

    def _canon_ints(self, items: Iterable[tuple[Any, Any]], d: int) -> tuple[dict, int]:
        """({key: coords}, d) in canonical form, for integer combinations of
        the coords of _lift_ints over d: zeros left out, residues reduced mod
        p over a finite field (where d is 1), and over Q and Q(zeta_N) coords
        and d divided by their gcd. Coordinate sequences become tuples, so
        two canonical forms are equal exactly when the values are. Over
        GF(p^m) a tuple, a reduced residue by the module's invariant, is kept
        as given, and only a list of _accumulate is reduced and zero-tested.
        So a zero tuple given stays: presentation._complete_upto sums one once
        when an h_r vanishes, and reads the sum only through .get(0, zero),
        the same value. This default serves GF(p)."""
        return self._drop_ints(items, d), 1

    def _accumulate(self, acc: dict, pairs: Iterable[tuple[Any, int]], v) -> None:
        """acc[key] += N * v (0 if missing) per (key, N), on coords of _lift_ints,
        unreduced: the only coordinates not in canonical form, which _canon_ints
        then brings to it."""
        for key, N in pairs:  # few pairs a call: acc.get is not worth binding
            acc[key] = acc.get(key, 0) + N * v

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
    characteristic = 0

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
        """a / b as a Fraction; ZeroDivisionError for b = 0, TypeError for an
        operand that is not an int or Fraction. Two Fractions divide through
        their integer ratios: Fraction(a, b) on them takes Fraction's generic
        path (an ABC isinstance and property reads), about 1.6x the time."""
        if type(a) is Fraction and type(b) is Fraction:
            (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
            if nb:
                return Fraction(na * db, da * nb)
        elif b != 0:
            return Fraction(a, b)
        raise ZeroDivisionError("division by 0")

    def is_zero(self, a):
        return a == 0

    def from_int(self, value):
        return Fraction(value)

    _mul_ints = staticmethod(operator.mul)

    def _lift_ints(self, values):
        d = lcm(*[c.denominator for c in values])
        return [c.numerator * (d // c.denominator) for c in values], d

    def _drop_ints(self, items, d):
        return {key: Fraction(v, d) for key, v in items if v}

    def _lift_canon(self, items):
        ratios = []
        d = 1
        for key, c in items:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"{c!r} is not an element of Q")
            num, den = c.as_integer_ratio()
            if num:
                ratios.append((key, num, den))
                if d % den:
                    d = lcm(d, den)
        # each prime power in d divides some denominator exactly, and that
        # coordinate is prime to it: the form is canonical as it stands
        out = {}
        for key, num, den in ratios:
            out[key] = num * (d // den)
        return out, d

    def _canon_ints(self, items, d):
        coords = {key: v for key, v in items if v}
        g = gcd(d, *coords.values()) if d != 1 else 1
        if g != 1:
            coords = {key: v // g for key, v in coords.items()}
        return coords, d // g

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
        self.p = self.characteristic = self.order = p
        self.label = f"GF({p})"

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

    def _drop_ints(self, items, d):
        p = self.p
        return {key: r for key, v in items if (r := v % p)}

    _mul_ints = mul  # the default, one call fewer per pair of terms in a product

    def _lift_canon(self, items):
        p = self.p
        out = {}
        for key, c in items:
            r = (c if type(c) is int else _integer(c, self)) % p
            if r:
                out[key] = r
        return out, 1

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


def _integer(c, field: FieldCtx) -> int:
    """c as an int by operator.index, or TypeError: c is not an element of field."""
    try:
        return operator.index(c)
    except TypeError:
        raise TypeError(f"{c!r} is not an element of {field.label}") from None


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
        self.characteristic = p
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

    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * (self.degree - 1)

    def gen(self):
        """The class of t, i.e. a root of the modulus."""
        z = self.base.zero()
        return tuple(self.base.one() if i == 1 else z for i in range(self.degree))

    def add(self, a, b):
        p = self.characteristic
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple([x + y for x, y in zip(a, b)])

    def neg(self, a):
        p = self.characteristic
        if p:
            return tuple([-x % p for x in a])
        return tuple([-x for x in a])

    def sub(self, a, b):
        p = self.characteristic
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
        p = self.characteristic
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
        return self.mul(a, b) if self.characteristic else self._kernel(a, b)

    def _accumulate(self, acc, pairs, v):
        """FieldCtx._accumulate on coordinate sequences. A key's first (key, 1)
        stores v itself, and every later hit, or a first N other than 1,
        stores a new list: v, and a value already in acc, may be shared. So a
        tuple left in acc is one v taken once, already canonical over GF(p^m),
        and _canon_ints keeps it as it is; a list is a sum to reduce."""
        for key, N in pairs:
            old = acc.get(key)
            if old is None:
                acc[key] = v if N == 1 else [N * x for x in v]
            else:
                acc[key] = [s + N * x for s, x in zip(old, v)]

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
        if self.characteristic:
            return values, 1
        d = lcm(*[c.denominator for v in values for c in v])
        return [[c.numerator * (d // c.denominator) for c in v] for v in values], d

    def _drop_ints(self, items, d):
        p = self.characteristic
        if p:
            return {key: t for key, v in items if any(t := tuple([c % p for c in v]))}
        return {key: tuple([Fraction(c, d) for c in v]) for key, v in items if any(v)}

    def _lift_canon(self, items):
        m, p = self.degree, self.characteristic
        out = {}
        for key, v in items:
            if type(v) is not tuple or len(v) != m:
                raise TypeError(f"{v!r} is not an element of {self.label}: want a tuple of {m} {self.base.label} elements")
            if p:
                for c in v:
                    if type(c) is not int or not 0 <= c < p:  # not a reduced residue
                        v = tuple([_integer(c, self) % p for c in v])
                        break
                if not any(v):
                    continue
            out[key] = v
        if p:
            return out, 1
        for v in out.values():
            if not all(isinstance(c, (int, Fraction)) for c in v):
                raise TypeError(f"{v!r} is not an element of {self.label}")
        coords, d = self._lift_ints(list(out.values()))
        return self._canon_ints(zip(out, coords), d)

    def _canon_ints(self, items, d):
        p = self.characteristic
        if p:
            # a tuple is a reduced residue, kept as given: most entries of a
            # product, mul's result or a coordinate taken once (see _accumulate)
            out = {}
            for key, v in items:
                if type(v) is not tuple:
                    v = tuple([c % p for c in v])
                    if not any(v):
                        continue
                out[key] = v
            return out, 1
        coords = {key: tuple(v) for key, v in items if any(v)}
        g = gcd(d, *itertools.chain.from_iterable(coords.values())) if d != 1 else 1
        if g != 1:
            coords = {key: tuple([c // g for c in v]) for key, v in coords.items()}
        return coords, d // g

    def elements(self):
        if self.order is None:
            raise FieldError(f"{self.label} is not finite")
        # t^0 varies fastest, as in make_extension's scan; multiplicative_generator
        # and the zero-divisor witnesses depend on this order
        yield from _residue_tuples(self.base.order, self.degree)

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
        p = field.p if isinstance(field, PrimeField) else 0
        coeffs = [c % p for c in coeffs] if p else list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

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
        if type(F) is PrimeField:
            return Poly(F, _prime_mul(self.coeffs, other.coeffs, F.p))
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
        if type(F) is PrimeField:
            quot, rem = _prime_divmod(self.coeffs, other.coeffs, F.p)
            return Poly(F, quot), Poly(F, rem)
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

    def to_text(self) -> str:
        return _poly_text(self.field, self.coeffs, "x")

    def __repr__(self):
        return f"Poly({self.field.label}: {self.to_text()})"


def _kronecker_mul(a: Sequence[int], b: Sequence[int], p: int) -> array | None:
    """The coefficients over Z of a * b, for nonempty lists in [0, p), by
    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): one int product of the lists packed in array slots that
    hold min(len) (p - 1)^2, the bound on such a coefficient. None when that
    needs more than 8 bytes, as for p = 2^31 - 1 when both degrees are 4 or more."""
    width = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    for size in (1, 2, 4, 8):
        if size >= width:
            break
    else:
        return None
    code, order = _ARRAY_CODES[size], sys.byteorder
    x = int.from_bytes(array(code, a).tobytes(), order)
    y = int.from_bytes(array(code, b).tobytes(), order)
    out = array(code)
    out.frombytes((x * y).to_bytes(size * (len(a) + len(b) - 1), order))
    return out


def _prime_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) lists of a by b over GF(p), len(a) >= len(b) >= 1,
    the remainder not yet reduced mod p: one inverse, then ints that add
    multiples of the negated divisor and are reduced only where they are read."""
    dlen = len(b) - 1
    inv = pow(b[-1], -1, p)
    neg = [-c % p for c in b[:-1]]
    rem = list(a)
    quot = [0] * (len(a) - dlen)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dlen] * inv % p
        if c:
            quot[i] = c
            rem[i : i + dlen] = [r + c * d for r, d in zip(rem[i : i + dlen], neg)]
    return quot, rem[:dlen]


def _prime_mul(a: Sequence[int], b: Sequence[int], p: int) -> Sequence[int]:
    """The coefficients over Z of a * b, for nonempty lists in [0, p): the
    Kronecker product, or a per-element product where its slots would be too
    wide."""
    out = _kronecker_mul(a, b, p)
    if out is not None:
        return out
    out = [0] * (len(a) + len(b) - 1)
    span = len(b)
    for i, c in enumerate(a):
        if c:
            out[i : i + span] = [o + c * d for o, d in zip(out[i : i + span], b)]
    return out


class _PrimeReducer:
    """a -> a % g for a fixed g of degree n >= 1 over GF(p), by Newton
    division (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1).

    h = rev(g)^(-1) mod x^max(n - 1, 1), with rev(g) = x^n g(1/x), is found
    once by Newton iteration. The quotient of an a of degree m, with
    k = m - n + 1 <= len(h) coefficients, reversed, is rev(a) h mod x^k, and
    the remainder a - q g needs only the low n coefficients of q g: two
    _prime_mul products and O(n) list work per remainder, where _prime_divmod's
    loop costs O(n k). That covers every product of two remainders (k <= n - 1);
    a longer a is a one-off division, which _prime_divmod does."""

    __slots__ = ("field", "g", "n", "low", "inv")

    def __init__(self, g: Poly):
        F = g.field
        p = F.p
        self.field, self.g = F, g.coeffs
        n = self.n = len(g.coeffs) - 1
        self.low = g.coeffs[:n]
        rev = g.coeffs[::-1]
        # rev * h = 1 mod x^l, so rev * h = 1 + x^l e mod x^(2l), and
        # h - x^l (h e) inverts rev mod x^(2l)
        h = [pow(rev[0], -1, p)]
        while len(h) < n - 1:
            l = len(h)
            top = min(2 * l, n - 1)
            e = [c % p for c in _prime_mul(rev[:top], h, p)[l:top]]
            h += [-c % p for c in _prime_mul(h, e, p)[: top - l]]
        self.inv = h

    def __call__(self, a: Poly) -> Poly:
        c, n = a.coeffs, self.n
        k = len(c) - n
        if k <= 0:
            return a
        p = self.field.p
        if k > len(self.inv):
            return Poly(self.field, _prime_divmod(c, self.g, p)[1])
        q = [v % p for v in _prime_mul(c[n:][::-1], self.inv[:k], p)[:k]][::-1]
        return Poly(self.field, [u - v for u, v in zip(c[:n], _prime_mul(q, self.low, p))])


def _remainder_by(g: Poly):
    """The map a -> a % g: a _PrimeReducer over exactly PrimeField when
    deg g >= 1, Poly's division otherwise."""
    if type(g.field) is PrimeField and g.degree >= 1:
        return _PrimeReducer(g)
    return lambda a: a % g


def _pow_rem(base: Poly, exponent: int, rem) -> Poly:
    """base^exponent reduced by rem (see _remainder_by), for a reduced base;
    squares only while bits remain."""
    result = rem(Poly.one(base.field))
    while exponent:
        if exponent & 1:
            result = rem(result * base)
        exponent >>= 1
        if exponent:
            base = rem(base * base)
    return result


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd. Over exactly PrimeField, Euclid runs on int lists, keeping
    only the remainders of _prime_divmod, and builds one Poly at the end."""
    F = a.field
    if type(F) is not PrimeField:
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a
    p = F.p
    x, y = a.coeffs, b.coeffs
    while y:
        r = [c % p for c in _prime_divmod(x, y, p)[1]] if len(x) >= len(y) else list(x)
        while r and not r[-1]:
            r.pop()
        x, y = y, r
    if not x:
        return Poly.zero(F)
    inv = pow(x[-1], -1, p)
    return Poly(F, [c * inv for c in x])


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


def _residue_tuples(p: int, m: int, constants: bool = True) -> Iterator[tuple[int, ...]]:
    """Every m-tuple of residues mod p, low place first, the first place
    varying fastest; without the p tuples that are 0 past the first place
    when constants is false (m >= 2). Places 1..m-1 count as an odometer:
    itertools.product would hold range(p) as a tuple, p ints."""
    high = [0] * (m - 1)
    if not constants:
        high[0] = 1
    while True:
        rest = tuple(high)
        for c in range(p):
            yield (c, *rest)
        for i in range(m - 1):  # one more, place 1 first
            high[i] += 1
            if high[i] < p:
                break
            high[i] = 0
        else:
            return


@lru_cache(maxsize=None)
def make_extension(p: int, m: int) -> FieldCtx:
    """Deterministic field of order p^m; first irreducible modulus in a fixed scan."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    if m > MAX_EXTENSION_DEGREE:
        raise DegreeLimitError(f"extension degree {m} above the supported bound {MAX_EXTENSION_DEGREE}")
    base = prime_field(p)
    if m == 1:
        return base
    # x^m - a is reducible for every a when a prime r | m has r ∤ p - 1, or when
    # 4 | m and p = 3 mod 4 (Lidl and Niederreiter, Finite Fields, Thm 3.75), so
    # the scan skips the binomials x^m + c then
    binomials = all((p - 1) % r == 0 for r in factorize(m)) and (m % 4 != 0 or p % 4 == 1)
    for coeffs in _residue_tuples(p, m, binomials):
        candidate = Poly(base, coeffs + (1,))
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
    """Field spec strings: "Q", "GF(p)", "GF(p^m)". Every FieldError quotes the spec."""
    text = text.strip()
    if text in ("Q", "QQ", "q"):
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        p_str, caret, m_str = text[3:-1].partition("^")
        try:
            return make_extension(int(p_str), int(m_str) if caret else 1)
        except FieldError as exc:
            raise type(exc)(f"field spec {text!r}: {exc}") from None  # a DegreeLimitError stays one
        except ValueError:  # p or m not an integer
            pass
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
    candidates = F.elements()
    if isinstance(F, ExtensionField):  # the order of a constant divides p - 1 < q1
        candidates = _residue_tuples(F.characteristic, F.degree, constants=False)
    for g in candidates:
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
        # field elements are immutable, so each distinct int is converted once
        # and its element shared by every entry that holds it
        element = {v: field.from_int(v) for row in rows for v in set(row)}
        return cls(field, [[element[v] for v in row] for row in rows])

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
    costs O(size^2) field operations instead of O(size^3).

    Over Q and GF(p) it runs on ints: _lift_ints gives H = A/d (d = 1 over
    GF(p), where each step is reduced mod p), q = det(xI - A) needs no
    division, and det(xI - A/d) = d^(-n) q(dx) has coefficient i = q_i / d^(n-i)."""
    n = len(h)
    if type(F) in (PrimeField, RationalField):
        flat, d = F._lift_ints([c for row in h for c in row])
        a = [flat[i * n : (i + 1) * n] for i in range(n)]
        p = F.characteristic
        polys = [[1]]
        for r in range(n):
            prev, diag = polys[r], a[r][r]
            q = [hi - diag * lo for hi, lo in zip([0] + prev, prev + [0])]
            prod = 1
            for i in range(r, 0, -1):
                prod = prod * a[i][i - 1] % p if p else prod * a[i][i - 1]
                if not prod:  # a zero subdiagonal entry ends the chain
                    break
                if a[i - 1][r]:
                    t = a[i - 1][r] * prod
                    q[:i] = [c - t * e for c, e in zip(q, polys[i - 1])]  # deg p_(i-1) = i - 1
            polys.append([c % p for c in q] if p else q)
        q = polys[-1]
        return Poly(F, q if p else [Fraction(c, d ** (n - i)) for i, c in enumerate(q)])
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


def _require_field(F: FieldCtx, obj) -> None:
    """Refuse a matrix or polynomial over a field other than F, whose entries
    would otherwise be read as elements of F and give a wrong answer."""
    if obj.field != F:
        raise FieldError(f"{type(obj).__name__} over {obj.field.label}, asked over {F.label}")


def char_poly(F: FieldCtx, M: SquareMatrix) -> Poly:
    """det(M - xI), computed by exact Hessenberg reduction over the field.

    Leading coefficient is (-1)^size (the det(M - xI) sign convention). The
    reduction is _hessenberg and the determinant of the reduced matrix is
    _hessenberg_charpoly's recurrence, on ints over Q and GF(p).
    """
    _require_field(F, M)
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
    _require_field(F, M)
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


# degrees per block of the distinct-degree split (see _distinct_degree_parts)
SPLIT_BLOCK = 8


def _distinct_degree_parts(F: FieldCtx, f: Poly) -> Iterator[tuple[int, Poly]]:
    """Distinct-degree split of a monic squarefree f over GF(q), in blocks of
    SPLIT_BLOCK degrees (von zur Gathen and Shoup, Computing Frobenius maps and
    factoring polynomials, 1992): yields (d, the product of the degree-d
    irreducible factors of f) for each d that has factors, d ascending.

    x^(q^j) is carried mod g, the part of f not yet split off; over GF(p)
    every remainder mod g is a _PrimeReducer's, built again when g shrinks.
    For a block of degrees j = d+1..d+B, the x^(q^j) - x are multiplied
    together mod g, and one gcd with g gives h, the product of g's factors
    of degree in the block. Only when h is nontrivial does the block step
    through its degrees, ascending: gcd(h, x^(q^j) - x) is the degree-j part,
    since the factors of lower degree have left h already, and once 2j
    exceeds deg h, h is one irreducible factor. Once 2(d + 1) exceeds deg g,
    g is one irreducible factor too.

    B = 8 weighs the B - 1 gcds a block saves, each n Euclid steps of O(n)
    list work for g of degree n, against what it adds: B products mod g, of
    three Kronecker products each, and, where the smallest factor degree e
    ends a block early, the Frobenius steps and products past e. A larger B
    saves gcds only on an f whose factors all have high degree. With
    is_irreducible plus distinct_degree_profile, min of 15 in process
    (2-core x86-64, Python 3.11), pi of Gr(2, 131) over GF(3), irreducible of
    degree 65, took 16.5 ms at B = 1, 10.2 at B = 8, 9.2 at B = 12 and 10.2 at
    B = 16; pi of Gr(2, 61) over GF(3), six factors of degree 5, took 1.4,
    1.7, 2.1 and 2.1 ms."""
    q = F.order
    x = Poly.x(F)
    g = f
    rem = _remainder_by(g)
    w = rem(x)
    d = 0
    while 2 * (d + 1) <= g.degree:
        diffs = []
        block = Poly.one(F)
        for _ in range(min(SPLIT_BLOCK, int(g.degree) // 2 - d)):
            w = _pow_rem(w, q, rem)
            diffs.append(w - x)
            block = rem(block * diffs[-1])
        h = poly_gcd(g, block)
        if h.degree > 0:
            g = g // h
            for j, diff in enumerate(diffs, d + 1):
                if 2 * j > h.degree:
                    yield int(h.degree), h
                    break
                part = poly_gcd(h, diff)
                if part.degree > 0:
                    yield j, part
                    h = h // part
                    if h.degree == 0:
                        break
            rem = _remainder_by(g)
            w = rem(w)
        d += len(diffs)
    if g.degree > 0:
        yield int(g.degree), g


def distinct_degree_profile(F: FieldCtx, f: Poly) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of squarefree f,
    ascending."""
    _require_field(F, f)
    f = f.monic()
    if poly_gcd(f, f.derivative()).degree != 0:
        raise FieldError("distinct-degree profile requires a squarefree polynomial")
    return [d for d, h in _distinct_degree_parts(F, f) for _ in range(int(h.degree) // d)]


def is_irreducible(F: FieldCtx, f: Poly) -> bool:
    """Exact irreducibility over a finite field: f is irreducible exactly when
    it is squarefree (gcd(f, f') = 1, which also rejects f' = 0) and the
    distinct-degree split of monic f finds no factor of degree below deg f,
    so its first part has degree deg f. An irreducible f of degree n costs
    n/2 Frobenius steps and one gcd per SPLIT_BLOCK of them; a reducible f
    stops in the block of its smallest factor degree.

    Over Q and Q(zeta_N) it raises FieldError: degree_zero.is_graded_field
    decides the rational pi of Gr(2, n) from the Laurent identity instead.
    """
    _require_field(F, f)
    if f.degree < 1:
        raise FieldError("irreducibility is only defined for nonconstant polynomials")
    if F.order is None:
        raise FieldError(f"irreducibility is decided over finite fields only, not {F.label}")
    f = f.monic()
    if poly_gcd(f, f.derivative()).degree != 0:
        return False
    return next(_distinct_degree_parts(F, f))[0] == f.degree
