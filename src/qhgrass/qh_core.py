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
determinant of smallest order, ties broken by the smaller |D|. Products by
x_j (pieri_multiply) and by h_p (transposed_pieri_multiply) run through
this one engine. On Gr(n, n), a point, the column x_j is not a class: x_n
acts as q and x_j for j < n as 0.

Structure constants are integers independent of the coefficient field. One
engine per context computes and keeps them on integer codes. A diagram gets
a dense index when it is first seen, so the box is never enumerated (Gr(2,
100003) works), and a code idx + m * 2^32 stands for q^m * sigma_idx; m may
be negative. The engine keeps:
- the constants of each unordered pair of indices, as one flat int tuple
  (code, coefficient, code, coefficient, ...);
- one Pieri step table per route and j, mapping an index to the codes of
  its targets, filled on first use;
- the chains x^e * sigma_b, each built by one Pieri step from the chain with
  one step fewer and shared by every product whose Giambelli expansion
  reaches it. A product is then the sum of coefficient times chain over its
  Giambelli monomials.
After a collection the garbage collector no longer tracks these int-only
tuples and dicts; it always tracks a diagram, a tuple subclass, and every
tuple that holds one. Codes become (diagram, q-power) keys only when a
product is returned, and each key is built once.

quantum_product works on integers first: it multiplies the coefficients of
each pair of terms once, lifts these products to integer coordinates over
one common denominator, sums structure constant times coordinates per output
code with plain int arithmetic, and converts each sum back to a field
element once (FieldCtx._lift_ints/_drop_ints). The engine's results, like
those of q_shift, sums and negation, are built by QhElement._trusted, which
skips the box and zero checks: their keys lie in the box by construction and
their coefficients are nonzero.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import index
from typing import Mapping

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
    def schubert(cls, ctx, field, diagram: YoungDiagram, q_power: int = 0):
        return cls(ctx, field, {(YoungDiagram(diagram), q_power): field.one()})

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other: "QhElement"):
        if other.ctx != self.ctx or other.field != self.field:
            raise ValueError("context or field mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        F = self.field
        acc = dict(self.terms)
        for key, c in other.terms.items():
            total = F.add(acc[key], c) if key in acc else c
            if F.is_zero(total):
                acc.pop(key, None)
            else:
                acc[key] = total
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


def special_class(ctx: GrContext, field: FieldCtx, j: int) -> QhElement:
    """The Chern class x_j (column of j boxes)."""
    if not 1 <= j <= ctx.k:
        raise ValueError(f"x_{j} undefined for k={ctx.k}")
    return QhElement.schubert(ctx, field, column_diagram(j))


# ---------------------------------------------------------------------------
# quantum Pieri rules: one step maps sigma_D to (classical terms, q-terms)


def _interlacing(lo: tuple[int, ...], hi: tuple[int, ...], total: int) -> tuple[YoungDiagram, ...]:
    """Every row tuple with lo[i] <= rows[i] <= hi[i] and sum total.

    The bounds interlace, so every such tuple is weakly decreasing. Each row's
    range is cut by what the rows below it can still absorb, so no branch is
    a dead end and the cost is linear in the output. The rows are walked as
    an odometer, largest first, so the depth of the box costs no recursion,
    and the rows below the last positive hi are 0 and not walked at all.
    """
    k = len(hi)
    while k and not hi[k - 1]:  # lo <= hi, so these rows are 0
        k -= 1
    lo_below, hi_below = [0] * (k + 1), [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        lo_below[i] = lo_below[i + 1] + lo[i]
        hi_below[i] = hi_below[i + 1] + hi[i]
    if not lo_below[0] <= total <= hi_below[0]:
        return ()
    out: list[YoungDiagram] = []
    rows, bottoms = [0] * k, [0] * k
    i, left = 0, total  # rows[:i] are set; left is what rows[i:] must sum to
    while True:
        while i < k:
            rows[i] = top = min(hi[i], left - lo_below[i + 1])
            bottoms[i] = max(lo[i], left - hi_below[i + 1])
            left -= top
            i += 1
        out.append(YoungDiagram(rows))
        # step the deepest row that can still go down, and refill below it
        i = k - 1
        while i >= 0 and rows[i] == bottoms[i]:
            left += rows[i]
            i -= 1
        if i < 0:
            return tuple(out)
        rows[i] -= 1
        left += 1
        i += 1


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
    if lam[-1] >= 1:
        lo = tuple(r - 1 for r in (lam + (1,))[1:])
        quantum = _interlacing(lo, tuple(r - 1 for r in lam), size + p - k - cols)
    return classical, quantum


def _column_pieri(
    k: int, cols: int, rows: YoungDiagram, j: int
) -> tuple[tuple[YoungDiagram, ...], tuple[YoungDiagram, ...]]:
    """x_j * sigma_rows: the row rule for h_j in Gr(n-k, n), transposed back."""
    classical, quantum = _row_pieri(cols, k, rows.conjugate(), j)
    return tuple(d.conjugate() for d in classical), tuple(d.conjugate() for d in quantum)


def pieri_multiply(element: QhElement, j: int) -> QhElement:
    """x_j * element by the quantum Pieri rule."""
    ctx = element.ctx
    if not 1 <= j <= ctx.k:
        raise ValueError(f"Pieri index {j} out of range 1..{ctx.k}")
    if not ctx.cols:  # Gr(n, n) is a point: x_n = q and x_j = 0 below n
        return q_shift(element, 1) if j == ctx.k else QhElement.zero(ctx, element.field)
    return quantum_product(special_class(ctx, element.field, j), element)


def transposed_pieri_multiply(element: QhElement, j: int) -> QhElement:
    """V_{j,0} * element (single row of j boxes) by the row quantum Pieri rule."""
    ctx = element.ctx
    if not 1 <= j <= ctx.cols:
        raise ValueError(f"transposed Pieri index {j} out of range 1..{ctx.cols}")
    return quantum_product(QhElement.schubert(ctx, element.field, YoungDiagram((j,))), element)


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

    # Laplace expansion of det(x_{conj[i]-i+j}) along its rows; minor(i, mask)
    # is the minor on rows i.. and the columns in mask, as {exponents: coeff}
    @lru_cache(maxsize=None)
    def minor(i: int, mask: int) -> dict[tuple[int, ...], int]:
        if i == m:
            return {(0,) * k: 1}
        acc: dict[tuple[int, ...], int] = {}
        sign = 1
        for j in range(m):
            if not mask & (1 << j):
                continue
            v = conj[i] - i + j
            if 0 <= v <= k:
                # add sign * x_v * minor, where x_0 = 1
                for exps, c in minor(i + 1, mask & ~(1 << j)).items():
                    if v:
                        exps = exps[: v - 1] + (exps[v - 1] + 1,) + exps[v:]
                    new = acc.get(exps, 0) + sign * c
                    if new:
                        acc[exps] = new
                    else:
                        del acc[exps]
            sign = -sign
        return acc

    result = minor(0, (1 << m) - 1)
    minor.cache_clear()
    return tuple(sorted(result.items()))


def giambelli_expand(ctx: GrContext, diagram: YoungDiagram) -> dict[tuple[int, ...], int]:
    """sigma_D as an integer polynomial in x_1..x_k (dual Jacobi-Trudi determinant).

    Keys are exponent tuples (a_1..a_k) meaning x_1^a_1 * ... * x_k^a_k.
    """
    if not diagram.fits(ctx.k, ctx.cols):
        raise ValueError(f"{diagram!r} does not fit in {ctx}")
    return dict(_giambelli_cached(ctx.k, YoungDiagram(diagram)))


_Q = 1 << 32  # a code is idx + m * _Q: the diagram of index idx times q^m
_IDX = _Q - 1


class _KeyTable(dict):
    """code -> (diagram, q-power), each key built on its first lookup."""

    __slots__ = ("diagrams",)

    def __init__(self, diagrams: list[YoungDiagram]):
        super().__init__()
        self.diagrams = diagrams

    def __missing__(self, code: int) -> TermKey:
        key = self[code] = (self.diagrams[code & _IDX], code >> 32)
        return key


class _ProductEngine:
    """Integer structure constants of one Gr(k, n), on integer codes.

    Diagrams get dense indices in the order they are first seen, so the box
    is never enumerated. The constants of each unordered pair of indices are
    one flat int tuple, codes interleaved with their coefficients. (Two
    tuples in a pair would leave the pair tracked by the garbage collector
    after a collection: it untracks a tuple only once its items are, and it
    visits the pair first.) A Pieri step table maps an index to the codes of
    its targets, one table per route and j. A chain is x^e * sigma_b, keyed
    on b, the route and the sequence of Pieri steps that forms x^e; it is
    built by one step from the chain with one step fewer, and every product
    that expands into it shares it.
    """

    __slots__ = (
        "k", "n", "diagrams", "index", "choice", "keys", "steps", "monomials", "chains", "pairs"
    )

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.diagrams: list[YoungDiagram] = []
        self.index: dict[YoungDiagram, int] = {}
        # per index: (order, size, by_rows) of its cheaper Giambelli determinant
        self.choice: list[tuple[int, int, int]] = []
        self.keys = _KeyTable(self.diagrams)
        self.steps: dict[int, dict[int, tuple[int, ...]]] = {}
        self.monomials: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}
        self.chains: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        self.pairs: dict[int, tuple[int, ...]] = {}

    def intern(self, d: YoungDiagram) -> int:
        """The index of a diagram in the box, given it on first sight."""
        i = self.index.get(d)
        if i is None:
            i = self.index[d] = len(self.diagrams)
            self.diagrams.append(d)
            size = sum(d)
            # column determinant (order d_1) or row one (order len d); columns win a tie
            self.choice.append(min((d[0] if d else 0, size, 0), (len(d), size, 1)))
        return i

    def lookup(self, rows) -> int:
        """The index of a diagram given as rows, checked as YoungDiagram and the box check them."""
        if type(rows) is not YoungDiagram:
            rows = tuple(map(index, rows))  # a float equals an int in a lookup, so refuse it here
        i = self.index.get(rows)
        if i is None:
            d = YoungDiagram(rows)
            if not d.fits(self.k, self.n - self.k):
                raise ValueError(f"{d!r} does not fit in {GrContext(self.k, self.n)}")
            i = self.intern(d)
        return i

    def pair(self, i: int, j: int) -> tuple[int, ...]:
        """The constants of sigma_i * sigma_j, computed on a miss of the pair cache."""
        if i > j:
            i, j = j, i
        constants = self.pairs.get(i << 32 | j)
        if constants is None:
            constants = self.pairs[i << 32 | j] = self._constants(i, j)
        return constants

    def _constants(self, i: int, j: int) -> tuple[int, ...]:
        # expand the factor whose cheaper determinant has the smaller (order, |D|)
        a, b = (i, j) if self.choice[i] <= self.choice[j] else (j, i)
        by_rows = self.choice[a][2]
        acc: dict[int, int] = {}
        get = acc.get
        for seq, g in self._monomials(a, by_rows):
            for code, c in self._chain(b, by_rows, seq).items():
                acc[code] = get(code, 0) + g * c
        return tuple([x for term in acc.items() if term[1] for x in term])

    def _monomials(self, a: int, by_rows: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The Giambelli monomials of index a, each as its sequence of Pieri steps.

        x_1^e_1 ... x_r^e_r is the step x_r applied e_r times, then x_(r-1),
        and so on down to x_1. The row determinant of D in Gr(k, n) is the
        column one of D' in Gr(n-k, n)."""
        key = a << 1 | by_rows
        monomials = self.monomials.get(key)
        if monomials is None:
            d = self.diagrams[a]
            if by_rows:
                expansion = _giambelli_cached(self.n - self.k, d.conjugate())
            else:
                expansion = _giambelli_cached(self.k, d)
            monomials = self.monomials[key] = tuple(
                (tuple([v for v in range(len(exps), 0, -1) for _ in range(exps[v - 1])]), g)
                for exps, g in expansion
            )
        return monomials

    def _chain(self, b: int, by_rows: int, seq: tuple[int, ...]) -> dict[int, int]:
        """x^e * sigma_b as {code: coeff}, for the monomial x^e with step sequence seq."""
        chains = self.chains
        base = b << 1 | by_rows
        chain = chains.get((base, seq))
        if chain is not None:
            return chain
        # the longest cached prefix, then one step per missing factor
        t = len(seq) - 1
        while t > 0 and (base, seq[:t]) not in chains:
            t -= 1
        chain = chains[(base, seq[:t])] if t > 0 else {b: 1}
        for t in range(max(t, 0), len(seq)):
            chain = chains[(base, seq[: t + 1])] = self._step(by_rows, seq[t], chain)
        return chain

    def _step(self, by_rows: int, j: int, terms: dict[int, int]) -> dict[int, int]:
        """One Pieri step, x_j (columns) or h_j (rows), on {code: coeff}."""
        table = self.steps.get(j << 1 | by_rows)
        if table is None:
            table = self.steps[j << 1 | by_rows] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for code, c in terms.items():
            i = code & _IDX
            targets = table.get(i)
            if targets is None:
                targets = table[i] = self._targets(by_rows, j, i)
            shift = code - i
            for t in targets:
                t += shift
                acc[t] = get(t, 0) + c
        return acc

    def _targets(self, by_rows: int, j: int, i: int) -> tuple[int, ...]:
        step = _row_pieri if by_rows else _column_pieri
        classical, quantum = step(self.k, self.n - self.k, self.diagrams[i], j)
        intern = self.intern
        return tuple([intern(d) for d in classical] + [intern(d) + _Q for d in quantum])


_ENGINES: dict[tuple[int, int], _ProductEngine] = {}


def _engine(ctx: GrContext) -> _ProductEngine:
    key = (ctx.k, ctx.n)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = _ENGINES[key] = _ProductEngine(*key)
    return engine


def schubert_product(ctx: GrContext, first: YoungDiagram, second: YoungDiagram) -> dict[TermKey, int]:
    """sigma_first * sigma_second with integer coefficients."""
    engine = _engine(ctx)
    i, j = engine.lookup(first), engine.lookup(second)
    constants = iter(engine.pair(i, j))
    # codes and coefficients alternate; zip takes the code first
    return dict(zip(map(engine.keys.__getitem__, constants), constants))


def quantum_product(a: QhElement, b: QhElement) -> QhElement:
    """Bilinear extension of the Schubert-class product."""
    a._check_compatible(b)
    ctx, F = a.ctx, a.field
    engine = _engine(ctx)
    index_get, pairs_get = engine.index.get, engine.pairs.get
    # the terms of b as (index, q-power as a code offset, coefficient)
    rest = []
    for (d, m), c in b.terms.items():
        j = index_get(d)
        rest.append((engine.intern(d) if j is None else j, m * _Q, c))
    # per pair of terms: its constants, the code offset of its q-power, and
    # (in c12s) the product of the two coefficients
    blocks = []
    c12s = []
    for (d1, m1), c1 in a.terms.items():
        i = index_get(d1)
        if i is None:
            i = engine.intern(d1)
        s1 = m1 * _Q
        for j, s2, c2 in rest:
            constants = pairs_get(i << 32 | j if i <= j else j << 32 | i)
            blocks.append((engine.pair(i, j) if constants is None else constants, s1 + s2))
            c12s.append(F.mul(c1, c2))
    coords, den = F._lift_ints(c12s)
    acc: dict[int, object] = {}
    get = acc.get
    # codes and coefficients alternate, and zip draws the code first; a block
    # with a q-power shift adds it by map, which costs no bytecode per term
    if isinstance(F, ExtensionField):  # coordinate lists
        for (constants, shift), v in zip(blocks, coords):
            it = iter(constants)
            for code, N in zip(map(shift.__add__, it) if shift else it, it):
                old = get(code)
                if old is None:
                    acc[code] = v if N == 1 else [N * x for x in v]
                else:
                    acc[code] = [s + N * x for s, x in zip(old, v)]
    else:
        for (constants, shift), v in zip(blocks, coords):
            it = iter(constants)
            for code, N in zip(map(shift.__add__, it) if shift else it, it):
                acc[code] = get(code, 0) + N * v
    terms = F._drop_ints(zip(map(engine.keys.__getitem__, acc), acc.values()), den)
    return QhElement._trusted(ctx, F, terms)


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
        key = (YoungDiagram.from_text(match.group("rows")), qpow)
        # zero sums are kept, so QhElement box-checks every term before dropping them
        acc[key] = field.add(acc[key], coeff) if key in acc else coeff
    return QhElement(ctx, field, acc)
