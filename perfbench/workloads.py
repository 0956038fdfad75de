"""Seeded inputs of the four benchmark workloads, as plain JSON-able data.

Nothing here imports qhgrass: the inputs are built from the seed alone and
handed to the worker process, which turns them into library calls. An
operation is a list ``[kind, *args]``; its position in the list is its id.

The seed draws every coefficient and shuffles the order of the all-pairs
table cells, of the degree-zero operations and of the ev-maps checks. It
does not choose which diagrams, fields and multisets the elements of
product-reads and ev-maps combine: that shape comes from a fixed generator,
dealing each context's diagrams from permutations so each one is used about
equally often. The cost of an
operation depends on its shape, hardly on its coefficients, so every seed
gives the same spread of operation costs and the latency percentiles move
only with the program and the host, not with the seed.
"""

from __future__ import annotations

import itertools
import random
from math import comb

WORKLOADS = ("product-fill", "product-reads", "degree-zero", "ev-maps")

PRODUCT_READ_FIELDS = ("Q", "GF(7)", "GF(2^3)")
GRADED_FIELD_FIELDS = ("Q", "GF(2)", "GF(3)", "GF(2^2)")
SHAPE_SEED = 0  # fixed: the shape of product-reads and ev-maps elements
GRID_CHARACTERISTICS = ((0, 2, 3), (5, 7))  # degree-zero's classify grid, one group per operation


def box_partitions(k: int, cols: int) -> list[tuple[int, ...]]:
    """Diagrams in the k x cols box (trailing zeros stripped), in a fixed order."""
    out = []
    for raw in itertools.product(range(cols, -1, -1), repeat=k):
        if all(a >= b for a, b in zip(raw, raw[1:])):
            out.append(tuple(r for r in raw if r))
    return out


def field_order(spec: str) -> tuple[int, int]:
    """(p, m) of a field spec; (0, 1) for Q."""
    if spec == "Q":
        return 0, 1
    inner = spec[3:-1]
    p, _, m = inner.partition("^")
    return int(p), int(m or 1)


def random_coeff(rng: random.Random, spec: str):
    """A nonzero coefficient as plain data: [num, den] over Q, an int over
    GF(p), a digit list (low first) over GF(p^m)."""
    p, m = field_order(spec)
    if p == 0:
        return [rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)]
    if m == 1:
        return rng.randrange(1, p)
    digits = [0] * m
    while not any(digits):
        digits = [rng.randrange(p) for _ in range(m)]
    return digits


class _Dealer:
    """Deals items from seeded permutations of a list, one pass at a time."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _element(rng, dealer: _Dealer, spec: str, terms: int, q_powers=(0,)):
    """Plain-data element: list of [rows, q_power, coeff] with distinct keys.

    The dealer's generator picks the q-powers; ``rng`` draws the coefficients.
    """
    out: dict = {}
    while len(out) < terms:
        key = (dealer.next(), dealer.rng.choice(q_powers))
        out.setdefault(key, random_coeff(rng, spec))
    return [[list(rows), m, c] for (rows, m), c in out.items()]


# ---------------------------------------------------------------------------
# workloads


def product_fill(seed: int, tiny: bool) -> list:
    """All-pairs schubert_product tables, then mult_matrix on Gr(2, n).

    One operation is one table cell, one enumerate_diagrams per table, or the
    mult_matrix of the distinguished degree-zero element (built in the same op).
    """
    rng = random.Random(seed)
    tables = [(2, 5), (3, 6)] if tiny else [(3, 8), (4, 9), (3, 9)]
    ops: list = [["enumerate_diagrams", k, n] for k, n in tables]
    cells = [
        ["schubert_product", k, n, list(a), list(b)]
        for k, n in tables
        for a in box_partitions(k, n - k)
        for b in box_partitions(k, n - k)
    ]
    rng.shuffle(cells)  # the tables fill side by side, so each spans the whole job
    ops.extend(cells)
    ops.append(["mult_matrix", 11 if tiny else 101])
    return ops


def product_reads(seed: int, tiny: bool) -> list:
    """Seeded quantum_products of 1-4-term elements in three small contexts.

    One operation is one quantum_product, including building its two elements.
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    contexts = [(3, 8), (2, 10), (4, 8)]
    combos = [(k, n, spec) for k, n in contexts for spec in PRODUCT_READ_FIELDS]
    count = 180 if tiny else 20_000
    dealers = {(k, n): _Dealer(box_partitions(k, n - k), shape) for k, n in contexts}
    combo_dealer = _Dealer(combos, shape)
    size_dealer = _Dealer([1, 2, 3, 4], shape)
    ops: list = []
    for _ in range(count):
        k, n, spec = combo_dealer.next()
        a = _element(rng, dealers[(k, n)], spec, size_dealer.next())
        b = _element(rng, dealers[(k, n)], spec, size_dealer.next())
        ops.append(["quantum_product", k, n, spec, a, b])
    return ops


def large_n(tiny: bool) -> list[tuple[int, int]]:
    """(n, characteristic) of the large-n classify inputs, also probed in every traced run.

    One characteristic: the cost of the unit-group closure depends on it.
    """
    return [(n, 3) for n in ((101, 1009) if tiny else (100003, 1000003))]


def degree_zero(seed: int, tiny: bool) -> list:
    """classify grid, is_graded_field on Gr(2, n), and the closed-form matrices.

    One operation is the classify of one (k, n) of the grid in one group of
    characteristics (0, 2, 3 or 5, 7), one large-n classify, one
    is_graded_field, one charpoly_identity_holds, or one linear-algebra chain
    on a closed-form matrix (char_poly and min_poly, plus is_irreducible and
    distinct_degree_profile over the prime fields). A grid classify in one
    characteristic takes a few microseconds, mostly harness time, and with
    one operation each the 43 heavy operations would be under 1% of the job,
    so the 99th latency percentile would fall on the edge between the two
    kinds; with all five characteristics in one, the job would have fewer
    than 1000 operations.
    """
    rng = random.Random(seed)
    half = 6 if tiny else 30
    ops: list = [
        ["classify", k, n, list(group)]
        for n in range(2, 2 * half + 1)
        for k in range(1, n // 2 + 1)
        for group in GRID_CHARACTERISTICS
    ]
    ops += [["classify", 2, n, [c]] for n, c in large_n(tiny)]
    graded = (5, 7, 11) if tiny else (5, 7, 11, 13, 31, 61, 131)
    ops += [["is_graded_field", n, spec] for n in graded for spec in GRADED_FIELD_FIELDS]
    if tiny:  # keep the known Gr(2, 131) / Q failure visible at tiny size too
        graded += (131,)
        ops.append(["is_graded_field", 131, "Q"])
    # classify on the is_graded_field contexts beyond the grid, so the two can be compared
    ops += [["classify", 2, n, [0, 2, 3]] for n in graded if n > 2 * half]
    matrix_sizes = (11, 13) if tiny else (61, 101, 131)
    ops += [["linear_algebra", n, spec] for n in matrix_sizes for spec in ("Q", "GF(2)", "GF(3)")]
    ops += [["charpoly_identity_holds", n] for n in matrix_sizes]
    rng.shuffle(ops)
    return ops


# (k, n, base field, multiplicativity checks); GF(3) on Gr(2, 9) is the p | n case
EV_CONTEXTS = [
    (3, 8, "Q", 100),
    (2, 7, "Q", 100),
    (2, 13, "GF(3)", 250),
    (2, 9, "GF(3)", 250),
    (4, 8, "GF(3)", 250),
]
EV_CONTEXTS_TINY = [(2, 5, "Q", 10), (2, 7, "GF(3)", 10), (2, 6, "GF(3)", 10)]


def admissible_count(k: int, n: int, spec: str) -> int:
    """Number of admissible k-multisets of n-th roots of unity (independent count)."""
    p, _ = field_order(spec)
    cap, reduced = 1, n
    while p and reduced % p == 0:
        reduced //= p
        cap *= p
    if cap == 1:
        return comb(reduced, k)
    return sum(
        1
        for combo in itertools.combinations_with_replacement(range(reduced), k)
        if all(combo.count(i) <= cap for i in set(combo))
    )


def ev_maps(seed: int, tiny: bool) -> list:
    """EvContext, ideal vanishing on every multiset, seeded multiplicativity checks.

    One operation is one EvContext (with its admissible multisets), one
    verify_ideal_vanishing, or one check ev(a*b) == ev(a)*ev(b).
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    contexts: list = []
    all_checks: list = []
    for k, n, spec, checks in EV_CONTEXTS_TINY if tiny else EV_CONTEXTS:
        count = admissible_count(k, n, spec)
        contexts.append(["EvContext", k, n, spec])
        all_checks += [["verify_ideal_vanishing", k, n, spec, j] for j in range(count)]
        dealer = _Dealer(box_partitions(k, n - k), shape)
        sizes = _Dealer([1, 2, 3], shape)
        multisets = _Dealer(range(count), shape)
        for _ in range(checks):
            a = _element(rng, dealer, spec, sizes.next(), q_powers=(-1, 0, 1))
            b = _element(rng, dealer, spec, sizes.next(), q_powers=(-1, 0, 1))
            all_checks.append(["ev_multiplicative", k, n, spec, multisets.next(), a, b])
    # Each kind of check spans the whole job, not one stretch of it, so the
    # latency percentiles sample the host over the whole job as job_s does.
    rng.shuffle(all_checks)
    return contexts + all_checks


def layer_probe() -> list:
    """A few small operations that together call every layer the job spans cover.

    The traced run runs them in its probe worker, so that each per-layer
    metric has calls and time on every workload, not only where the job
    calls the layer. The two is_graded_field calls take all four routes.
    """
    a = [[[1], 0, [1, 2]], [[2], 0, [-3, 1]]]
    b = [[[1, 1], 0, [2, 1]]]
    return [
        ["enumerate_diagrams", 2, 5],
        ["schubert_product", 2, 5, [1], [2, 1]],
        ["quantum_product", 2, 5, "Q", a, b],
        ["mult_matrix", 7],
        ["classify", 2, 7, [3]],
        ["is_graded_field", 5, "GF(2)"],
        ["is_graded_field", 7, "GF(2^2)"],
        ["linear_algebra", 7, "GF(3)"],
        ["charpoly_identity_holds", 7],
        ["EvContext", 2, 5, "Q"],
        ["verify_ideal_vanishing", 2, 5, "Q", 0],
        ["ev_multiplicative", 2, 5, "Q", 0, a, b],
    ]


GENERATORS = {
    "product-fill": product_fill,
    "product-reads": product_reads,
    "degree-zero": degree_zero,
    "ev-maps": ev_maps,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    return GENERATORS[workload](seed, tiny)


# ---------------------------------------------------------------------------
# input properties


def term_pair_lookups(ops: list):
    """The (context, first, second) structure-constant lookups the inputs ask for.

    One per schubert_product, and one per term pair of each quantum product
    the benchmark requests directly (the worker's quantum_product calls).
    """
    for op in ops:
        kind = op[0]
        if kind == "schubert_product":
            yield (op[1], op[2]), tuple(op[3]), tuple(op[4])
        elif kind in ("quantum_product", "ev_multiplicative"):
            k, n = op[1], op[2]
            a, b = op[-2], op[-1]
            for rows_a, _, _ in a:
                for rows_b, _, _ in b:
                    yield (k, n), tuple(rows_a), tuple(rows_b)


def repeat_shares(ops: list) -> tuple[float, float]:
    """Shares of lookups repeating an earlier ordered, and unordered, pair."""
    ordered: set = set()
    unordered: set = set()
    total = ordered_hits = unordered_hits = 0
    for ctx, a, b in term_pair_lookups(ops):
        total += 1
        key = (ctx, a, b)
        ukey = (ctx, min(a, b), max(a, b))
        ordered_hits += key in ordered
        unordered_hits += ukey in unordered
        ordered.add(key)
        unordered.add(ukey)
    if not total:
        return 0.0, 0.0
    return ordered_hits / total, unordered_hits / total
