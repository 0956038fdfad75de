"""The small quantum cohomology ring of Gr(k, n).

Elements are finite sums of monomials q^m * sigma_D with coefficients in a
working exact field. Multiplication by a special class follows Bertram's
quantum Pieri rule for h_p (p boxes in a row). The column rule for x_j (j
boxes in a column) is that row rule for h_j in Gr(n-k, n), transposed back
through Gr(k, n) = Gr(n-k, n). A product of two general classes expands
one factor by a quantum Giambelli determinant and applies the other factor
to each monomial by iterated Pieri steps. Each factor has two determinants:
the column one in x_1..x_k, of order D_1 (the width of D), and the row one
in h_1..h_{n-k}, of order len(D). The product takes the factor and
determinant of smallest order, ties broken by the smaller |D|.

Structure constants are integers independent of the coefficient field and
are cached per context, keyed on the unordered pair of diagrams, so
repeated products are cheap. quantum_product works on integers first: it
multiplies the coefficients of each pair of terms once, lifts these products
to integer coordinates over one common denominator, sums structure constant
times coordinates per output term with plain int arithmetic, and converts
each sum back to a field element once (FieldCtx._lift_ints/_drop_ints). The
engine's results, like those of the Pieri rules, q_shift, sums and
negation, are built by QhElement._trusted, which skips the box and zero
checks: their keys lie in the box by construction and their coefficients
are nonzero.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Mapping

from . import _xpoly
from .diagram import EMPTY, GrContext, YoungDiagram, column_diagram
from .exactfield import ExtensionField, FieldCtx

TermKey = tuple[YoungDiagram, int]


class QhElement:
    """A quantum cohomology class: mapping (diagram, q-power) -> coefficient."""

    __slots__ = ("ctx", "field", "terms")

    def __init__(self, ctx: GrContext, field: FieldCtx, terms: Mapping[TermKey, object] | None = None):
        k, cols = ctx.k, ctx.n - ctx.k
        clean: dict[TermKey, object] = {}
        for (diagram, m), coeff in (terms or {}).items():
            if not isinstance(diagram, YoungDiagram):
                raise TypeError(f"term diagram must be a YoungDiagram, not {type(diagram).__name__}")
            if len(diagram) > k or diagram and diagram[0] > cols:
                raise ValueError(f"{diagram!r} does not fit in {ctx}")
            if not field.is_zero(coeff):
                clean[(diagram, m)] = coeff
        self.ctx = ctx
        self.field = field
        self.terms = clean

    @classmethod
    def _trusted(cls, ctx: GrContext, field: FieldCtx, terms: dict[TermKey, object]) -> "QhElement":
        """An element on terms as given: every diagram fits the box, no coefficient is zero."""
        element = object.__new__(cls)
        element.ctx, element.field, element.terms = ctx, field, terms
        return element

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx, field):
        return cls(ctx, field)

    @classmethod
    def unit(cls, ctx, field):
        return cls(ctx, field, {(EMPTY, 0): field.one()})

    @classmethod
    def schubert(cls, ctx, field, diagram: YoungDiagram, q_power: int = 0, coeff=None):
        coeff = field.one() if coeff is None else coeff
        return cls(ctx, field, {(YoungDiagram(diagram), q_power): coeff})

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other: "QhElement"):
        if other.ctx != self.ctx or other.field != self.field:
            raise ValueError("context or field mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        F = self.field
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _bump(acc, key, c, F)
        return QhElement._trusted(self.ctx, F, acc)

    def __neg__(self):
        F = self.field
        return QhElement._trusted(self.ctx, F, {k: F.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "QhElement":
        F = self.field
        return QhElement(self.ctx, F, {k: F.mul(coeff, c) for k, c in self.terms.items()})

    def __mul__(self, other):
        return quantum_product(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, QhElement)
            and other.ctx == self.ctx
            and other.field == self.field
            and other.terms == self.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def coeff(self, diagram: YoungDiagram, q_power: int = 0):
        return self.terms.get((YoungDiagram(diagram), q_power), self.field.zero())

    def term_degree(self, key: TermKey) -> int:
        diagram, m = key
        return diagram.size + self.ctx.n * m

    def homogeneous_degree(self) -> int | None:
        """Complex degree if homogeneous (zero element counts as any degree)."""
        degrees = {self.term_degree(key) for key in self.terms}
        if len(degrees) > 1:
            return None
        return degrees.pop() if degrees else 0

    def __repr__(self):
        return f"QhElement(Gr({self.ctx.k},{self.ctx.n}) over {self.field.label}: {format_element(self)})"


def _bump(acc: dict, key, c, field: FieldCtx):
    if key in acc:
        new = field.add(acc[key], c)
        if field.is_zero(new):
            del acc[key]
        else:
            acc[key] = new
    elif not field.is_zero(c):
        acc[key] = c


def special_class(ctx: GrContext, field: FieldCtx, j: int) -> QhElement:
    """The Chern class x_j (column of j boxes)."""
    if not 1 <= j <= ctx.k:
        raise ValueError(f"x_{j} undefined for k={ctx.k}")
    return QhElement.schubert(ctx, field, column_diagram(j))


def point_class(ctx: GrContext, field: FieldCtx) -> QhElement:
    """PD(pt): the full k x (n-k) rectangle."""
    return QhElement.schubert(ctx, field, YoungDiagram((ctx.cols,) * ctx.k))


# ---------------------------------------------------------------------------
# quantum Pieri rules: one step maps sigma_D to (classical terms, q-terms)


def _interlacing(lo: tuple[int, ...], hi: tuple[int, ...], total: int) -> tuple[YoungDiagram, ...]:
    """Every row tuple with lo[i] <= rows[i] <= hi[i] and sum total.

    The bounds interlace, so every such tuple is weakly decreasing. Each row's
    range is cut by what the rows below it can still absorb, so no branch is
    a dead end and the cost is linear in the output.
    """
    k = len(lo)
    lo_below, hi_below = [0] * (k + 1), [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        lo_below[i] = lo_below[i + 1] + lo[i]
        hi_below[i] = hi_below[i + 1] + hi[i]
    out: list[YoungDiagram] = []

    def fill(i: int, left: int, prefix: tuple[int, ...]) -> None:
        if i == k:
            out.append(YoungDiagram(prefix))
            return
        top = min(hi[i], left - lo_below[i + 1])
        bottom = max(lo[i], left - hi_below[i + 1])
        for value in range(top, bottom - 1, -1):
            fill(i + 1, left - value, prefix + (value,))

    if lo_below[0] <= total <= hi_below[0]:
        fill(0, total, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _row_pieri(
    k: int, cols: int, rows: YoungDiagram, p: int
) -> tuple[tuple[YoungDiagram, ...], tuple[YoungDiagram, ...]]:
    """h_p * sigma_rows by Bertram's quantum Pieri rule: classical terms, then q-terms.

    With rows padded to lam_1..lam_k: the classical mu are the horizontal strips
    lam_i <= mu_i <= lam_{i-1} (lam_0 = n-k) with |mu| = |lam| + p; the q-terms
    nu satisfy lam_i - 1 >= nu_i >= lam_{i+1} - 1, nu_k >= 0, |nu| = |lam| + p - n,
    and exist only when lam_k >= 1.
    """
    lam = tuple(rows) + (0,) * (k - len(rows))
    size = sum(lam)
    classical = _interlacing(lam, ((cols,) + lam)[:k], size + p)
    quantum: tuple[YoungDiagram, ...] = ()
    # k = 0 arises only as the dual of Gr(n, n); there lam_k >= 1 holds
    # vacuously, and h_n * 1 = q
    if k == 0 or lam[-1] >= 1:
        lo = tuple(r - 1 for r in (lam + (1,))[1:])
        quantum = _interlacing(lo, tuple(r - 1 for r in lam), size + p - k - cols)
    return classical, quantum


@lru_cache(maxsize=None)
def _column_pieri(
    k: int, cols: int, rows: YoungDiagram, j: int
) -> tuple[tuple[YoungDiagram, ...], tuple[YoungDiagram, ...]]:
    """x_j * sigma_rows: the row rule for h_j in Gr(n-k, n), transposed back."""
    classical, quantum = _row_pieri(cols, k, rows.conjugate(), j)
    return tuple(d.conjugate() for d in classical), tuple(d.conjugate() for d in quantum)


def _field_pieri(step, element: QhElement, j: int) -> QhElement:
    ctx, F = element.ctx, element.field
    acc: dict[TermKey, object] = {}
    for (diagram, m), c in element.terms.items():
        classical, quantum = step(ctx.k, ctx.cols, diagram, j)
        for added in classical:
            _bump(acc, (added, m), c, F)
        for removed in quantum:
            _bump(acc, (removed, m + 1), c, F)
    return QhElement._trusted(ctx, F, acc)


def pieri_multiply(element: QhElement, j: int) -> QhElement:
    """x_j * element by the quantum Pieri rule."""
    if not 1 <= j <= element.ctx.k:
        raise ValueError(f"Pieri index {j} out of range 1..{element.ctx.k}")
    return _field_pieri(_column_pieri, element, j)


def transposed_pieri_multiply(element: QhElement, j: int) -> QhElement:
    """V_{j,0} * element (single row of j boxes) by the row quantum Pieri rule."""
    if not 1 <= j <= element.ctx.cols:
        raise ValueError(f"transposed Pieri index {j} out of range 1..{element.ctx.cols}")
    return _field_pieri(_row_pieri, element, j)


def q_shift(element: QhElement, m: int) -> QhElement:
    """Multiply by q^m."""
    return QhElement._trusted(
        element.ctx,
        element.field,
        {(diagram, power + m): c for (diagram, power), c in element.terms.items()},
    )


# ---------------------------------------------------------------------------
# Giambelli expansion and general products


@lru_cache(maxsize=None)
def _giambelli_cached(k: int, diagram: YoungDiagram) -> tuple[tuple[tuple[int, ...], int], ...]:
    conj = diagram.conjugate()
    m = diagram.width
    if m == 0:
        return ((tuple([0] * k), 1),)
    full_mask = (1 << m) - 1

    @lru_cache(maxsize=None)
    def minor(i: int, mask: int):
        if i == m:
            return _xpoly.one(k)
        acc: dict = {}
        sign = 1
        for j in range(m):
            if not mask & (1 << j):
                continue
            v = conj[i] - i + j
            if 0 <= v <= k:
                sub = minor(i + 1, mask & ~(1 << j))
                term = _xpoly.mul_variable(sub, v)
                _xpoly.add_into(acc, term, sign)
            sign = -sign
        return acc

    result = minor(0, full_mask)
    minor.cache_clear()
    return tuple(sorted(result.items()))


def giambelli_expand(ctx: GrContext, diagram: YoungDiagram) -> dict[tuple[int, ...], int]:
    """sigma_D as an integer polynomial in x_1..x_k (dual Jacobi-Trudi determinant).

    Keys are exponent tuples (a_1..a_k) meaning x_1^a_1 * ... * x_k^a_k.
    """
    if not diagram.fits(ctx.k, ctx.cols):
        raise ValueError(f"{diagram!r} does not fit in {ctx}")
    return dict(_giambelli_cached(ctx.k, YoungDiagram(diagram)))


def _int_pieri(step, k: int, cols: int, terms: dict[TermKey, int], j: int) -> dict[TermKey, int]:
    acc: dict[TermKey, int] = {}
    for (diagram, m), c in terms.items():
        classical, quantum = step(k, cols, diagram, j)
        for added in classical:
            acc[(added, m)] = acc.get((added, m), 0) + c
        for removed in quantum:
            acc[(removed, m + 1)] = acc.get((removed, m + 1), 0) + c
    return {key: c for key, c in acc.items() if c}


@lru_cache(maxsize=None)
def _schubert_constants(
    k: int, n: int, first: YoungDiagram, second: YoungDiagram
) -> tuple[tuple[TermKey, int], ...]:
    """Integer structure constants of sigma_first * sigma_second.

    The product is commutative, so callers pass first <= second and the
    cache holds each unordered pair once.
    """
    cols = n - k
    for d in (first, second):
        if not d.fits(k, cols):
            raise ValueError(f"{d!r} does not fit in {GrContext(k, n)}")
    if not first:
        return (((second, 0), 1),)
    # Four expansions: either factor, by its column determinant in x_1..x_k
    # (order D_1) or by its row determinant in h_1..h_{n-k} (order len(D)).
    # Take the smallest order, then the smallest |D|; columns win a full tie.
    _, a, b, by_rows = min(
        ((order, d.size, by_rows), d, other, by_rows)
        for d, other in ((first, second), (second, first))
        for order, by_rows in ((d.width, False), (len(d), True))
    )
    if by_rows:
        # the row determinant of D in Gr(k,n) is the column one of D' in Gr(n-k,n)
        monomials, step = _giambelli_cached(cols, a.conjugate()), _row_pieri
    else:
        monomials, step = _giambelli_cached(k, a), _column_pieri
    acc: dict[TermKey, int] = {}
    for exps, coeff in monomials:
        element: dict[TermKey, int] = {(b, 0): 1}
        for i in range(len(exps), 0, -1):
            for _ in range(exps[i - 1]):
                element = _int_pieri(step, k, cols, element, i)
        for key, value in element.items():
            acc[key] = acc.get(key, 0) + coeff * value
    return tuple(sorted(((key, c) for key, c in acc.items() if c), key=lambda t: (t[0][1], t[0][0].sort_key())))


def schubert_product(ctx: GrContext, first: YoungDiagram, second: YoungDiagram) -> dict[TermKey, int]:
    """sigma_first * sigma_second with integer coefficients."""
    a, b = sorted((YoungDiagram(first), YoungDiagram(second)))
    return dict(_schubert_constants(ctx.k, ctx.n, a, b))


def quantum_product(a: QhElement, b: QhElement) -> QhElement:
    """Bilinear extension of the Schubert-class product."""
    a._check_compatible(b)
    ctx, F = a.ctx, a.field
    k, n = ctx.k, ctx.n
    # per pair of terms: its structure constants, the q-power they are
    # shifted by, and (in c12s) the product of the two coefficients
    blocks = []
    c12s = []
    for (d1, m1), c1 in a.terms.items():
        for (d2, m2), c2 in b.terms.items():
            pair = (d1, d2) if d1 <= d2 else (d2, d1)
            blocks.append((_schubert_constants(k, n, *pair), m1 + m2))
            c12s.append(F.mul(c1, c2))
    coords, den = F._lift_ints(c12s)
    acc: dict[TermKey, object] = {}
    get = acc.get
    if isinstance(F, ExtensionField):  # coordinate lists
        for (constants, m), v in zip(blocks, coords):
            for key, N in constants:
                if m:
                    key = (key[0], key[1] + m)
                old = get(key)
                if old is None:
                    acc[key] = v if N == 1 else [N * x for x in v]
                else:
                    acc[key] = [s + N * x for s, x in zip(old, v)]
    else:
        for (constants, m), v in zip(blocks, coords):
            for key, N in constants:
                if m:
                    key = (key[0], key[1] + m)
                acc[key] = get(key, 0) + N * v
    return QhElement._trusted(ctx, F, F._drop_ints(acc, den))


# ---------------------------------------------------------------------------
# text format: "sigma[3,1] + q^2*sigma[-]" with sigma spelled with its
# unicode letter; coefficients print before the q-power.

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*)?(?P<q>q(?:\^(?P<qpow>-?\d+))?\*)?(?:σ|s)\[(?P<rows>[-0-9,]*)\]$"
)


def format_element(element: QhElement) -> str:
    if not element.terms:
        return "0"
    F = element.field
    items = sorted(element.terms.items(), key=lambda t: (t[0][1], t[0][0].sort_key()))
    pieces = []
    for (diagram, m), coeff in items:
        qpart = "" if m == 0 else ("q*" if m == 1 else f"q^{m}*")
        cstr = F.element_to_str(coeff)
        if cstr == "1":
            cpart = ""
        elif any(ch in cstr for ch in " +"):
            cpart = f"({cstr})*"
        else:
            cpart = f"{cstr}*"
        pieces.append(f"{cpart}{qpart}σ[{diagram.to_text()}]")
    return " + ".join(pieces)


def parse_element(ctx: GrContext, field: FieldCtx, text: str) -> QhElement:
    """Parse the element grammar; coefficients are integers or fractions."""
    from fractions import Fraction

    acc: dict[TermKey, object] = {}
    body = text.strip()
    if body in ("0", ""):
        return QhElement.zero(ctx, field)
    for raw in body.split("+"):
        term = raw.strip().replace(" ", "")
        negate = False
        while term.startswith("-") and not _TERM_RE.match(term):
            negate = not negate
            term = term[1:]
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError(f"cannot parse element term {raw!r}")
        coeff_text = match.group("coeff")
        if coeff_text is None:
            coeff = field.one()
        elif "/" in coeff_text:
            frac = Fraction(coeff_text)
            coeff = field.div(field.from_int(frac.numerator), field.from_int(frac.denominator))
        else:
            coeff = field.from_int(int(coeff_text))
        if negate:
            coeff = field.neg(coeff)
        qpow = 0 if match.group("q") is None else int(match.group("qpow") or 1)
        diagram = YoungDiagram.from_text(match.group("rows"))
        # checked here: _bump drops zero and cancelled terms before QhElement sees them
        if not diagram.fits(ctx.k, ctx.cols):
            raise ValueError(f"{diagram!r} does not fit in {ctx}")
        _bump(acc, (diagram, qpow), coeff, field)
    return QhElement(ctx, field, acc)
