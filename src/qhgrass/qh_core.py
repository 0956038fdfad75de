"""The small quantum cohomology ring of Gr(k, n).

Elements are finite sums of monomials q^m * sigma_D with coefficients in a
working exact field. Multiplication by a special class, h_p (p boxes in a
row) or x_j = e_j (j boxes in a column), follows Bertram's quantum Pieri
rules, which are one rule on k particles in Z/n (toric horizontal and
vertical strips). D, padded to k rows, is the k-subset {D_(k+1-j) + j : j =
1..k} of 1..n. h_p moves the particles forward p steps in all, none reaching
the old place of the next particle; e_j moves j particles one step each into
places left empty; each particle that passes n gives one q. A product of two
general classes expands one factor by a quantum Giambelli determinant and
applies the other factor to each monomial by iterated Pieri steps. Each
factor has two determinants: the column one in x_1..x_k, of order D_1 (the
width of D), and the row one in h_1..h_{n-k}, of order len(D). The product
takes the factor and determinant of smallest order, ties broken by the
smaller |D|. Products by x_j (pieri_multiply) and by h_p
(transposed_pieri_multiply) run through this one engine. On Gr(n, n), a
point, the column x_j is not a class: x_n acts as q and x_j for j < n as 0.

Structure constants are integers independent of the coefficient field. One
engine per context computes and keeps them on integer codes. A diagram gets
a dense index when it is first seen, so the box is never enumerated (Gr(2,
100003) works), and a code idx + m * 2^32 stands for q^m * sigma_idx; m may
be negative. The engine keeps the constants of each unordered pair of
indices, one Pieri step table per route and j, the Giambelli expansion of
each index per route (giambelli_expand and presentation.ev_map read the
column ones; nothing else keeps one), and the chains x^e * sigma_b shared
by every product whose Giambelli expansion reaches them; a product is the
sum of coefficient times chain over its Giambelli monomials. After
a collection the garbage collector no longer tracks these int-only tuples
and dicts; it always tracks a diagram, a tuple subclass, and every tuple
that holds one. Every other table memoizes one way, as a _Memo: a dict that
stores fill(key) on the first lookup of a key, so a hit is a plain dict
read. The engines per (k, n), each engine's code -> (diagram, q-power) keys
and shift tables, and the minors of one Giambelli determinant are _Memo.

Only pairs inside a (k-1) x (n-k) box reach Giambelli and Pieri. The
product by the full column sigma_(1^k) = e_k is the cyclic shift S of the
Schubert basis that moves every particle one step (S is the Seidel element
of a Hamiltonian loop), so S^n = q^k. S(sigma_mu) = sigma_(mu + 1^k) while
mu_1 < n - k, so sigma_lambda = S^(lambda_k)(sigma_mu) for mu = lambda -
lambda_k * 1^k, and sigma_lambda * sigma_nu = S^(lambda_k + nu_k)(sigma_mu *
sigma_nu') with nu' = nu - nu_k * 1^k. A pair with lambda_k = nu_k = 0 is
computed; any other is read from its reduced pair, with S^t applied to the
codes through one code -> code table per t, each entry moved by the same
particle helpers once. On Gr(2, n) a reduced factor is one row, so each
computed pair is one Pieri step. Each Pieri target and rotated place becomes
a diagram through _placed, whose YoungDiagram call is a hit of the diagram
intern table for rows seen before (most targets repeat), so only a new
diagram runs the full check.

A QhElement keeps its terms on these codes too, as {code: integer
coordinates} over one denominator, in the canonical form of
FieldCtx._canon_ints, and it keeps the engine whose codes they are. Its
constructor takes (diagram, q-power) keys, reads each diagram's index from
the engine (checking a diagram only when the engine first indexes it), and
lifts each coefficient once (FieldCtx._lift_canon); `terms` turns codes and
coordinates back into keys and field elements (FieldCtx._drop_ints).
quantum_product works on integers only: it multiplies the coordinates of
each pair of terms once (FieldCtx._mul_ints), adds constant times product
per output code (FieldCtx._accumulate, whatever the coordinates' shape) over
the product of the two denominators, and brings the sums to canonical form
once (FieldCtx._canon_ints, which over GF(p^m) keeps a sum of one term, still
the reduced tuple mul gave, as it is). `+`, unary `-` and `scale` end in the
same step. No Fraction is built. ev_map reads the coordinates as kept.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from math import lcm
from operator import add, index, sub
from typing import Callable, Mapping

from .diagram import EMPTY, GrContext, YoungDiagram, column_diagram
from .exactfield import FieldCtx

TermKey = tuple[YoungDiagram, int]


class QhElement:
    """A quantum cohomology class as {code: integer coordinates} over one
    denominator `den`, on the codes of its product engine `engine`.

    The coordinates are those of FieldCtx._lift_ints, in the canonical form
    of FieldCtx._canon_ints: a reduced residue (tuple) over GF(p) (GF(p^m))
    with den 1; an int numerator (int tuple) over Q (Q(zeta_N)) with den > 0
    prime to all of them. So two elements are equal exactly when their codes
    and dens are. quantum_product, `+`, unary `-` and `scale` each end
    their integer sums in that one step. The constructor takes
    {(diagram, q-power): coefficient}, refuses with TypeError a coefficient
    that is not a field element, and lifts each once; `terms` gives that
    mapping back. Codes are indices in the order the engine first saw each
    diagram, so an element keeps its engine, and pickle and copy rebuild it
    from its terms."""

    __slots__ = ("ctx", "field", "engine", "codes", "den")

    def __init__(self, ctx: GrContext, field: FieldCtx, terms: Mapping[TermKey, object] | None = None):
        engine = _ENGINES[ctx.k, ctx.n]
        get = engine.index.get  # a diagram the engine has indexed is checked and in its box
        terms = terms or {}
        codes = []
        for diagram, m in terms:
            if not isinstance(diagram, YoungDiagram):
                raise TypeError(f"term diagram must be a YoungDiagram, not {type(diagram).__name__}")
            i = get(diagram)
            codes.append((engine.lookup(diagram) if i is None else i) + index(m) * _Q)
        self.ctx, self.field, self.engine = ctx, field, engine
        self.codes, self.den = field._lift_canon(zip(codes, terms.values()))

    @classmethod
    def _trusted(cls, a: "QhElement", codes: dict, den: int) -> "QhElement":
        """An element of a's context, field and engine on codes and den as
        given, in the canonical form of FieldCtx._canon_ints."""
        element = object.__new__(cls)
        element.ctx, element.field, element.engine = a.ctx, a.field, a.engine
        element.codes, element.den = codes, den
        return element

    @property
    def terms(self) -> dict[TermKey, object]:
        """{(diagram, q-power): coefficient}, a new dict built on every call."""
        codes = self.codes
        return self.field._drop_ints(zip(map(self.engine.keys.__getitem__, codes), codes.values()), self.den)

    def __reduce__(self):
        return QhElement, (self.ctx, self.field, self.terms)

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
        if other.engine is self.engine and other.field is self.field:
            return  # one engine serves one (k, n)
        if other.ctx != self.ctx or other.field != self.field:
            raise ValueError("context or field mismatch")
        if other.engine is not self.engine:
            raise ValueError("elements of one context on two product engines")

    def __add__(self, other):
        self._check_compatible(other)
        F, den, acc = self.field, lcm(self.den, other.den), {}
        for x in (self, other):
            for code, c in x.codes.items():
                F._accumulate(acc, ((code, den // x.den),), c)
        return QhElement._trusted(self, *F._canon_ints(acc.items(), den))

    def __neg__(self):
        F, acc = self.field, {}
        for code, c in self.codes.items():
            F._accumulate(acc, ((code, -1),), c)
        return QhElement._trusted(self, *F._canon_ints(acc.items(), self.den))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "QhElement":
        F = self.field
        lifted, d = F._lift_canon([(0, coeff)])
        if not lifted:
            return QhElement._trusted(self, {}, 1)
        c, mul = lifted[0], F._mul_ints
        items = ((code, mul(c, x)) for code, x in self.codes.items())
        return QhElement._trusted(self, *F._canon_ints(items, self.den * d))

    def __mul__(self, other):
        return quantum_product(self, other)

    def __eq__(self, other):
        if not (isinstance(other, QhElement) and other.ctx == self.ctx and other.field == self.field):
            return False
        if other.engine is not self.engine:  # codes of two engines name different diagrams
            return other.terms == self.terms
        return other.codes == self.codes and other.den == self.den

    def __bool__(self):
        return bool(self.codes)

    # -- inspection --------------------------------------------------------

    def coeff(self, diagram: YoungDiagram, q_power: int = 0):
        return self.terms.get((YoungDiagram(diagram), q_power), self.field.zero())

    def term_degree(self, key: TermKey) -> int:
        diagram, m = key
        return diagram.size + self.ctx.n * m

    def homogeneous_degree(self) -> int | None:
        """Complex degree if homogeneous (zero element counts as any degree)."""
        degrees = {self.term_degree(key) for key in self.terms}
        return None if len(degrees) > 1 else max(degrees, default=0)

    def __repr__(self):
        return f"QhElement(Gr({self.ctx.k},{self.ctx.n}) over {self.field.label}: {format_element(self)})"


def special_class(ctx: GrContext, field: FieldCtx, j: int) -> QhElement:
    """The Chern class x_j (column of j boxes)."""
    if not 1 <= j <= ctx.k:
        raise ValueError(f"x_{j} undefined for k={ctx.k}")
    return QhElement.schubert(ctx, field, column_diagram(j))


# ---------------------------------------------------------------------------
# quantum Pieri rules: k particles on the circle Z/n


def _positions(k: int, d: YoungDiagram) -> list[int]:
    """The particles of sigma_d: d padded to k rows as the increasing places
    d_(k+1-j) + j, j = 1..k, in 1..n."""
    return [*range(1, k - len(d) + 1), *[r + k - i for i, r in enumerate(d)][::-1]]


def _placed(n: int, moved: list[int]) -> tuple[YoungDiagram, int]:
    """(diagram, q-power) of particles at increasing places moved[i] < moved[0] + n;
    each place past n turns once round the circle and gives one q. The rows
    keep their trailing zeros, under which the diagram intern table knows a
    target seen before."""
    k = len(moved)
    w = bisect_right(moved, n)
    if w < k:
        moved = [x - n for x in moved[w:]] + moved[:w]
    return YoungDiagram(map(sub, reversed(moved), range(k, 0, -1))), k - w


def _compositions(bounds: list[int], total: int) -> list[tuple[int, ...]]:
    """Every count tuple c with 0 <= c[i] <= bounds[i] and sum total.

    The counts are walked as an odometer, so the number of groups costs no
    recursion. Each count is refilled as large as it can be and goes down
    only while the counts after it can still take the rest, so no branch is
    a dead end and the cost is linear in the output.
    """
    m = len(bounds)
    room = [0] * (m + 1)  # room[i]: the most that counts[i:] can take
    for i in range(m - 1, -1, -1):
        room[i] = room[i + 1] + bounds[i]
    if total > room[0]:
        return []
    out: list[tuple[int, ...]] = []
    counts = [0] * m
    i, left = 0, total  # counts[:i] are set; left is what counts[i:] must sum to
    while True:
        while i < m:
            counts[i] = c = min(bounds[i], left)
            left -= c
            i += 1
        out.append(tuple(counts))
        i = m - 1
        while i >= 0 and (not counts[i] or left == room[i + 1]):
            left += counts[i]
            i -= 1
        if i < 0:
            return out
        counts[i] -= 1
        left += 1
        i += 1


def _pieri(k: int, n: int, d: YoungDiagram, j: int, by_rows: int) -> list[tuple[YoungDiagram, int]]:
    """h_j (by_rows) or x_j = e_j times sigma_d, as (diagram, q-power) pairs.

    h_j: each particle moves up to the length of the gap ahead of it. e_j:
    one group per run of adjacent particles, ending where a gap begins and
    maybe going on past n; c of the group moves the run's last c particles
    one step each. Each particle that passes n gives one q.
    """
    places = _positions(k, d)
    gaps = [b - a - 1 for a, b in zip(places, places[1:] + [places[0] + n])]
    if by_rows:
        return [_placed(n, list(map(add, places, counts))) for counts in _compositions(gaps, j)]
    ends = [i for i, g in enumerate(gaps) if g]
    out = []
    for counts in _compositions([(e - before) % k or k for before, e in zip(ends[-1:] + ends, ends)], j):
        moved = places[:]
        for e, c in zip(ends, counts):
            for i in range(e - c + 1, e + 1):  # a negative i is a particle before the turn
                moved[i] += 1
        out.append(_placed(n, moved))
    return out


def pieri_multiply(element: QhElement, j: int) -> QhElement:
    """x_j * element by the quantum Pieri rule."""
    ctx = element.ctx
    if not 1 <= j <= ctx.k:
        raise ValueError(f"Pieri index {j} out of range 1..{ctx.k}")
    if not ctx.cols:  # Gr(n, n) is a point: x_n = q and x_j = 0 below n
        return q_shift(element, 1) if j == ctx.k else QhElement._trusted(element, {}, 1)
    return quantum_product(_schubert_like(element, column_diagram(j)), element)


def transposed_pieri_multiply(element: QhElement, j: int) -> QhElement:
    """V_{j,0} * element (single row of j boxes) by the row quantum Pieri rule."""
    ctx = element.ctx
    if not 1 <= j <= ctx.cols:
        raise ValueError(f"transposed Pieri index {j} out of range 1..{ctx.cols}")
    return quantum_product(_schubert_like(element, YoungDiagram((j,))), element)


def _schubert_like(element: QhElement, diagram: YoungDiagram) -> QhElement:
    """sigma_diagram on the context, field and engine of element."""
    F = element.field
    return QhElement._trusted(element, *F._lift_canon([(element.engine.lookup(diagram), F.one())]))


def q_shift(element: QhElement, m: int) -> QhElement:
    """Multiply by q^m."""
    shift = index(m) * _Q
    codes = {code + shift: c for code, c in element.codes.items()}
    return QhElement._trusted(element, codes, element.den)


# ---------------------------------------------------------------------------
# Giambelli expansion and general products


def _giambelli(k: int, diagram: YoungDiagram) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The column Giambelli determinant over x_1..x_k as sorted (exponents, coefficient) pairs."""
    conj = diagram.conjugate()
    m = diagram.width

    # Laplace expansion of det(x_{conj[i]-i+j}) along its rows; minors[i, mask]
    # is the minor on rows i.. and the columns in mask, as {exponents: coeff}
    def minor(key: tuple[int, int]) -> dict[tuple[int, ...], int]:
        i, mask = key
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
                for exps, c in minors[i + 1, mask & ~(1 << j)].items():
                    if v:
                        exps = exps[: v - 1] + (exps[v - 1] + 1,) + exps[v:]
                    new = acc.get(exps, 0) + sign * c
                    if new:
                        acc[exps] = new
                    else:
                        del acc[exps]
            sign = -sign
        return acc

    minors = _Memo(minor)
    return tuple(sorted(minors[0, (1 << m) - 1].items()))


def giambelli_expand(ctx: GrContext, diagram: YoungDiagram) -> dict[tuple[int, ...], int]:
    """sigma_D as an integer polynomial in x_1..x_k (dual Jacobi-Trudi determinant).

    Keys are exponent tuples (a_1..a_k) meaning x_1^a_1 * ... * x_k^a_k, as the
    context's product engine keeps them; ValueError for a diagram outside the box.
    """
    engine = _engine(ctx)
    return {exps: g for exps, _, g in engine.expansion(engine.lookup(diagram), 0)}


_Q = 1 << 32  # a code is idx + m * _Q: the diagram of index idx times q^m
_IDX = _Q - 1


class _Memo(dict):
    """key -> fill(key), each value filled on its first lookup; a hit is a
    plain C-level dict read."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _ProductEngine:
    """Integer structure constants of one Gr(k, n), on integer codes.

    Diagrams get dense indices in the order they are first seen, so the box
    is never enumerated. The constants of each unordered pair of indices are
    one flat int tuple, codes interleaved with their coefficients. (Two
    tuples in a pair would leave the pair tracked by the garbage collector
    after a collection: it untracks a tuple only once its items are, and it
    visits the pair first.) A Pieri step table maps an index to the codes of
    its targets under h_j (the row route) or e_j (the column route) by the
    one particle rule, _pieri, one table per route and j. A chain is x^e *
    sigma_b, keyed on b, the route and the sequence of Pieri steps that forms
    x^e; it is one Pieri step on the chain of the sequence without its last
    step, and every product that expands into it shares it.

    A pair fills through its reduced pair: `reduced` maps an index i to
    s << 32 | i', where sigma_i = S^s(sigma_i') and i' has last row 0, and
    `rotations` holds one code -> code table of S^t per shift t (_rotate).
    Only a pair of two reduced indices runs _constants, the one
    Giambelli/Pieri computation; any other is its reduced pair with every
    code moved by S^(s_i + s_j), a C-level map over the codes.

    The int-only stores (pairs, reduced, chains, steps, monomials) are plain
    dicts, filled by a get and a set, so the collector can untrack them; the
    keys and the rotation tables are _Memo.
    """

    __slots__ = (
        "k", "n", "diagrams", "index", "choice", "keys", "steps", "monomials", "chains", "pairs",
        "reduced", "rotations",
    )

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.diagrams: list[YoungDiagram] = []
        self.index: dict[YoungDiagram, int] = {}
        # per index: (order, size, by_rows) of its cheaper Giambelli determinant
        self.choice: list[tuple[int, int, int]] = []
        self.keys: _Memo = _Memo(lambda code: (self.diagrams[code & _IDX], code >> 32))
        self.steps: dict[int, dict[int, tuple[int, ...]]] = {}
        self.monomials: dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]] = {}
        self.chains: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        self.pairs: dict[int, tuple[int, ...]] = {}
        self.reduced: dict[int, int] = {}
        self.rotations: _Memo = _Memo(lambda t: _Memo(partial(self._rotate, t)))

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
        """The constants of sigma_i * sigma_j, filled on a miss of the pair cache."""
        if i > j:
            i, j = j, i
        constants = self.pairs.get(i << 32 | j)
        if constants is None:
            constants = self.pairs[i << 32 | j] = self._fill(i, j)
        return constants

    def _fill(self, i: int, j: int) -> tuple[int, ...]:
        # sigma_i * sigma_j = S^(s_i + s_j)(sigma_i' * sigma_j'), with i', j' reduced
        ri, rj = self._reduce(i), self._reduce(j)
        t = (ri >> 32) + (rj >> 32)
        if not t:
            return self._constants(i, j)
        constants = self.pair(ri & _IDX, rj & _IDX)
        shifted = list(constants)  # codes and coefficients alternate; shift the codes
        shifted[::2] = map(self.rotations[t].__getitem__, constants[::2])
        return tuple(shifted)

    def _reduce(self, i: int) -> int:
        """s << 32 | i' for sigma_i = S^s(sigma_i'): s = lambda_k and i' the
        index of lambda - s * 1^k, whose last row is 0."""
        r = self.reduced.get(i)
        if r is None:
            d = self.diagrams[i]
            s = d[-1] if len(d) == self.k else 0
            r = self.reduced[i] = s << 32 | (self.intern(YoungDiagram([x - s for x in d])) if s else i)
        return r

    def _rotate(self, t: int, code: int) -> int:
        """The code of S^t(code), S = sigma_(1^k) = e_k in the particle rule of
        _pieri: every particle moves one step, and each that passes n gives
        one q, so S^n = q^k and S^t = q^(k * (t // n)) S^(t mod n)."""
        turns, t = divmod(t, self.n)
        moved, q = _placed(self.n, [x + t for x in _positions(self.k, self.diagrams[code & _IDX])])
        return self.intern(moved) + ((code >> 32) + q + self.k * turns) * _Q

    def _constants(self, i: int, j: int) -> tuple[int, ...]:
        # expand the factor whose cheaper determinant has the smaller (order, |D|)
        a, b = (i, j) if self.choice[i] <= self.choice[j] else (j, i)
        by_rows = self.choice[a][2]
        acc: dict[int, int] = {}
        get = acc.get
        for _, seq, g in self.expansion(a, by_rows):
            for code, c in self._chain(b, by_rows, seq).items():
                acc[code] = get(code, 0) + g * c
        return tuple([x for term in acc.items() if term[1] for x in term])

    def expansion(self, code: int, by_rows: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        """The Giambelli monomials of the diagram of a code, its q-power aside,
        as (exponents, Pieri steps, coefficient), kept per index and route.

        x_1^e_1 ... x_r^e_r is the step x_r applied e_r times, then x_(r-1),
        and so on down to x_1. The row determinant of D in Gr(k, n) is the
        column one of D' in Gr(n-k, n), over h_1..h_(n-k)."""
        i = code & _IDX
        monomials = self.monomials.get(i << 1 | by_rows)
        if monomials is None:
            d = self.diagrams[i]
            expansion = _giambelli(self.n - self.k, d.conjugate()) if by_rows else _giambelli(self.k, d)
            monomials = self.monomials[i << 1 | by_rows] = tuple(
                (exps, tuple([v for v in range(len(exps), 0, -1) for _ in range(exps[v - 1])]), g)
                for exps, g in expansion
            )
        return monomials

    def _chain(self, b: int, by_rows: int, seq: tuple[int, ...]) -> dict[int, int]:
        """x^e * sigma_b as {code: coeff}, for the monomial x^e with step
        sequence seq: one Pieri step on the chain of seq[:-1], and {b: 1} for
        no step."""
        if not seq:
            return {b: 1}
        key = (b << 1 | by_rows, seq)
        chain = self.chains.get(key)
        if chain is None:
            chain = self.chains[key] = self._step(by_rows, seq[-1], self._chain(b, by_rows, seq[:-1]))
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
                terms = _pieri(self.k, self.n, self.diagrams[i], j, by_rows)
                targets = table[i] = tuple([self.intern(d) + q * _Q for d, q in terms])
            shift = code - i
            for t in targets:
                t += shift
                acc[t] = get(t, 0) + c
        return acc


_ENGINES: _Memo = _Memo(lambda key: _ProductEngine(*key))


def _engine(ctx: GrContext) -> _ProductEngine:
    return _ENGINES[ctx.k, ctx.n]


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
    F = a.field
    pair = a.engine.pair
    mul, accumulate = F._mul_ints, F._accumulate
    # the terms of b as (index, q-power as a code offset, coordinates)
    rest = [(code & _IDX, code & ~_IDX, c) for code, c in b.codes.items()]
    acc: dict[int, object] = {}
    for code, c1 in a.codes.items():
        i, s1 = code & _IDX, code & ~_IDX
        for j, s2, c2 in rest:
            # codes and constants alternate, and zip draws the code first; a
            # q-power shift is added by map, which costs no bytecode per term
            it = iter(pair(i, j))
            shift = s1 + s2
            accumulate(acc, zip(map(shift.__add__, it) if shift else it, it), mul(c1, c2))
    return QhElement._trusted(a, *F._canon_ints(acc.items(), a.den * b.den))


# ---------------------------------------------------------------------------
# text format: "sigma[3,1] + q^2*sigma[-]" with sigma spelled with its
# unicode letter; coefficients print before the q-power.

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*)?(?P<q>q(?:\^(?P<qpow>-?\d+))?\*)?(?:σ|s)\[(?P<rows>-|\d+(?:,\d+)*|)\]$"
)


def format_element(element: QhElement) -> str:
    if not element:
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
        if not term:
            raise ValueError(f"element {text.strip()!r} has an empty term")
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
            if not int(coeff_text.partition("/")[2]):
                raise ValueError(f"element term {raw.strip()!r} has a zero denominator")
            frac = Fraction(coeff_text)
            den = field.from_int(frac.denominator)
            if field.is_zero(den):
                raise ValueError(f"element term {raw.strip()!r} has a denominator that is zero in {field.label}")
            coeff = field.div(field.from_int(frac.numerator), den)
        else:
            coeff = field.from_int(int(coeff_text))
        if negate:
            coeff = field.neg(coeff)
        qpow = 0 if match.group("q") is None else int(match.group("qpow") or 1)
        try:
            diagram = YoungDiagram.from_text(match.group("rows"))
            if not diagram.fits(ctx.k, ctx.cols):  # checked here, so the error names its term
                raise ValueError(f"{diagram!r} does not fit in {ctx}")
        except ValueError as exc:
            raise ValueError(f"element term {raw.strip()!r}: {exc}") from None
        key = (diagram, qpow)
        acc[key] = field.add(acc[key], coeff) if key in acc else coeff
    return QhElement(ctx, field, acc)
