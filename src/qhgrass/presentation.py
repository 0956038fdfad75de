"""Symmetric-function presentation of the quantum ring and its evaluation maps.

The ring is F[x_1..x_k, q] modulo the ideal generated by Y_{n-k+1}, ...,
Y_{n-1}, Y_n + (-1)^k q, where Y_r is the Giambelli expansion of the one-row
class sigma_(r): the r-th complete symmetric function written in the
elementary ones x_i = e_i. Evaluating x_i at xi^i * e_i(zeta_1..zeta_k)
for an admissible multiset of n-th roots of unity and q at 1 kills the ideal
generators and produces a ring homomorphism into a splitting field; these
maps are the workhorse behind the degree-zero analysis. xi solves
xi^n = -(-1)^k in closed form. For odd k or p = 2 that reads xi^n = 1, and
xi = 1. Otherwise xi is the fixed primitive 2m-th root of unity zeta, where
n = p^d * m with p not dividing m: zeta^m = -1 and p^d is odd.

xi and the roots are algebraic integers, so the x_i have integer
coordinates in the splitting field (FieldCtx._lift_ints with denominator 1).
EvContext keeps the powers of each x_i in those coordinates, and ev_map
evaluates integer-first, as qh_core.quantum_product sums: it reads the
element's integer coordinates over its one denominator as they are kept,
takes each code's column Giambelli expansion from the element's product
engine, forms the monomials with FieldCtx._mul_ints (the extension kernel
over Q(zeta_N), the field product over GF(p) and GF(p^m)), adds them with
their summed integer coefficients (FieldCtx._accumulate), and converts once.
verify_ideal_vanishing runs the h_r recurrence on the same rows the same way,
keeps each h_r canonical (FieldCtx._canon_ints) and converts each value once.
"""

from __future__ import annotations

import itertools
from functools import reduce
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .diagram import GrContext
from .exactfield import (
    FieldCtx,
    PrimeField,
    RationalField,
    cyclotomic_field,
    make_extension,
    nth_roots_of_unity,
)
from .numberth import multiplicative_order
from .qh_core import QhElement


def _elementary_upto(F: FieldCtx, values: Sequence, i: int) -> list:
    """[e_0, ..., e_i] at the values, by one row DP over the values."""
    # table[j] = e_j of the prefix processed so far
    table = [F.one()] + [F.zero()] * i
    for v in values:
        for j in range(i, 0, -1):
            table[j] = F.add(table[j], F.mul(v, table[j - 1]))
    return table


def _complete_upto(F: FieldCtx, es: Sequence, i: int) -> list:
    """[h_0, ..., h_i] from [e_0, ..., e_k], by h_r = h_{r-1}e_1 - h_{r-2}e_2 + ...
    (E(-t)H(t) = 1), in integer coordinates by F._mul_ints and F._accumulate, each
    h_r canonical (F._canon_ints, a reduced tuple F.mul takes over GF(p^m)); h_0 is es[0]."""
    k = len(es) - 1
    (zero,), _ = F._lift_ints([F.zero()])
    hs = [es[0]]
    for r in range(1, i + 1):
        acc: dict[int, object] = {}
        for j in range(1, min(r, k) + 1):
            F._accumulate(acc, ((0, (-1) ** (j + 1)),), F._mul_ints(hs[r - j], es[j]))
        hs.append(F._canon_ints(acc.items(), 1)[0].get(0, zero))
    return hs


def _p_split(n: int, p: int) -> tuple[int, int]:
    """(p^d, m) with n = p^d * m and p not dividing m; (1, n) when p = 0."""
    power = 1
    while p and n % p == 0:
        n //= p
        power *= p
    return power, n


@dataclass(frozen=True)
class AdmissibleMultiset:
    """Multiset of n-th roots of unity of cardinality k, given by root indices.

    Indices refer to the canonical ordering of the distinct roots (consecutive
    powers of the fixed primitive root). In characteristic p with n = p^d * m
    the distinct roots are the m-th roots and each may repeat up to p^d times.
    """

    indices: tuple[int, ...]
    roots: tuple = dc_field(repr=False)

    def to_text(self) -> str:
        return "[" + ",".join(map(str, self.indices)) + "]"


class EvContext:
    """Evaluation data: splitting field K, the scalar xi with xi^n = -(-1)^k,
    and the distinct n-th roots of unity.

    On first use of a multiset J the context computes x_i = xi^i e_i(J) for
    i = 1..k and keeps them keyed on J.roots, in integer coordinates; the
    powers x_i^2..x_i^(n-k) are appended to the same rows only when ev_map
    first evaluates at J. That is O(#multisets * k * (n-k)) coordinates at
    most, dropped with the context.
    """

    def __init__(self, ctx: GrContext, base: FieldCtx):
        self.ctx = ctx
        self.base = base
        k, n = ctx.k, ctx.n
        p = base.characteristic
        _, distinct = _p_split(n, p)
        # xi is root 0 or 1 of the big_n-th roots, as the module docstring says
        self.xi_index = 0 if k % 2 == 1 or p == 2 else 1
        big_n = distinct * (1 + self.xi_index)
        if p == 0:
            if not isinstance(base, RationalField):
                raise ValueError(f"characteristic-0 evaluation starts from Q, not {base.label}")
            self.field = cyclotomic_field(big_n)
        else:
            if not isinstance(base, PrimeField):
                raise ValueError(f"positive-characteristic evaluation starts from GF(p), not {base.label}")
            self.field = make_extension(p, multiplicative_order(p, big_n))
        K = self.field
        self.distinct_root_count = distinct
        self.roots = nth_roots_of_unity(K, distinct)
        self.xi = nth_roots_of_unity(K, big_n)[self.xi_index]
        self._powers: dict[tuple, list[list]] = {}

    def _power_rows(self, J: AdmissibleMultiset, top: int) -> list[list]:
        """Rows [x_i^0, ..., x_i^t] for i = 1..k in integer coordinates
        (K._lift_ints), with x_i = xi^i e_i(J) and t = max(top, 1), kept per
        J.roots. verify_ideal_vanishing reads x_i alone (top 1); ev_map asks
        for top n-k, the largest exponent of a Giambelli monomial in the
        k x (n-k) box, and the rows grow in place then."""
        rows = self._powers.get(J.roots)
        K = self.field
        if rows is None:
            xs = []
            xi_power = K.one()
            for e in _elementary_upto(K, J.roots, self.ctx.k)[1:]:
                xi_power = K.mul(xi_power, self.xi)
                xs.append(K.mul(xi_power, e))
            (one, *xs), d = K._lift_ints([K.one()] + xs)
            if d != 1:  # xi and roots of unity are algebraic integers
                raise ValueError(f"multiset {J.to_text()} has roots that are not algebraic integers")
            rows = self._powers[J.roots] = [[one, x] for x in xs]
        for row in rows:
            while len(row) <= top:
                row.append(K._mul_ints(row[-1], row[1]))
        return rows

    def __repr__(self):
        return (
            f"EvContext(Gr({self.ctx.k},{self.ctx.n}), {self.base.label} -> "
            f"{self.field.label}, xi=zeta^{self.xi_index})"
        )


def admissible_multisets(F: FieldCtx, k: int, n: int) -> tuple[AdmissibleMultiset, ...]:
    """All admissible cardinality-k multisets of n-th roots of unity in F.

    In characteristic p with n = p^d * m, the distinct roots are the m-th
    roots, each admitted with multiplicity at most p^d; in characteristic 0
    (or gcd(n, p) = 1) multiplicities are at most 1 and the count is C(n, k).
    """
    cap, reduced = _p_split(n, F.characteristic)
    roots = nth_roots_of_unity(F, reduced)
    if cap == 1:  # the same tuples in the same (lexicographic) order
        combos = itertools.combinations(range(reduced), k)
    else:
        combos = (
            combo
            for combo in itertools.combinations_with_replacement(range(reduced), k)
            if all(combo.count(i) <= cap for i in set(combo))
        )
    return tuple(AdmissibleMultiset(combo, tuple(roots[i] for i in combo)) for combo in combos)


def ev_map(ev: EvContext, J: AdmissibleMultiset, element: QhElement):
    """Image of a quantum cohomology class under ev_J (q -> 1, x_i -> xi^i e_i).

    The element's integer coordinates over its denominator are read as
    kept, each Giambelli monomial is weighted by its integer coefficient
    summed over the terms, and the weighted monomials are summed in integer
    coordinates and converted to a field element once."""
    if element.ctx != ev.ctx:
        raise ValueError("context mismatch")
    if element.field != ev.base:
        raise ValueError(f"element over {element.field.label}, evaluation from {ev.base.label}")
    K = ev.field
    rows = ev._power_rows(J, ev.ctx.cols)
    expansion = element.engine.expansion
    weights: dict[tuple[int, ...], int] = {}
    for code, c in element.codes.items():
        # q -> 1, so a code's q-power is dropped; the engine keeps each column expansion
        for exps, _, g in expansion(code, 0):
            weights[exps] = weights.get(exps, 0) + c * g
    # rows[0][0] = x_1^0 = 1 stands for the empty monomial
    total: dict[int, object] = {}
    for exps, w in weights.items():
        monomial = reduce(K._mul_ints, [row[e] for row, e in zip(rows, exps) if e] or [rows[0][0]])
        K._accumulate(total, ((0, w),), monomial)
    return K._drop_ints(total.items(), element.den).get(0, K.zero())


def verify_ideal_vanishing(ev: EvContext, J: AdmissibleMultiset) -> dict:
    """Check that the presentation-ideal generators vanish under ev_J.

    Asserts h_{n-k+1}(xi*zeta_J) = ... = h_{n-1}(xi*zeta_J) = 0 and
    h_n(xi*zeta_J) + (-1)^k = 0, reporting each computed value.
    """
    K = ev.field
    k, n = ev.ctx.k, ev.ctx.n
    # e_i(xi*zeta_J) = xi^i e_i(zeta_J) = x_i, and rows[0][0] is 1, all in integer coordinates
    rows = ev._power_rows(J, 1)
    one = rows[0][0]
    hs = _complete_upto(K, [one] + [row[1] for row in rows], n)
    values = {r: hs[r] for r in range(n - k + 1, n + 1)}
    K._accumulate(values, ((n, (-1) ** k),), one)
    values = K._drop_ints(values.items(), 1)
    checks = []
    for r in range(n - k + 1, n + 1):
        value = values.get(r, K.zero())
        generator = f"h_{r}" if r < n else f"h_{n} + (-1)^{k}"
        checks.append({"generator": generator, "value": K.element_to_str(value), "ok": r not in values})
    return {
        "k": k,
        "n": n,
        "field": K.label,
        "multiset": J.to_text(),
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }
