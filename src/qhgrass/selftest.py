"""Fast self-test tier: a battery of exact golden checks for the CLI."""

from __future__ import annotations

import random

from . import degree_zero as dz
from . import presentation as pres
from . import qh_core as qc
from .diagram import GrContext, YoungDiagram, enumerate_diagrams
from .exactfield import (
    QQ,
    Poly,
    char_poly,
    cyclotomic_field,
    distinct_degree_profile,
    make_extension,
    prime_field,
)


def _check_extension_kernel():
    rng = random.Random(8)
    # Phi_12 = t^4 - t^2 + 1 is there because t^4 + 1 and the GF(3^4) modulus
    # t^4 + t + 2 have no t^3 or t^2 term, so no reduction row past t^4 is
    # corrected by the modulus on them
    for F in (cyclotomic_field(8), cyclotomic_field(12), make_extension(3, 4)):
        modulus = Poly(F.base, F.modulus)
        for _ in range(6):
            a, b = F.random_element(rng), F.random_element(rng)
            rem = (Poly(F.base, a) * Poly(F.base, b)) % modulus
            want = rem.coeffs + (F.base.zero(),) * (F.degree - len(rem.coeffs))
            if F.mul(a, b) != want:
                return False, f"{F.label}: {a} * {b} differs from the Poly product reduced by divmod"
    return True, "Q(zeta8), Q(zeta12) and GF(3^4) products match Poly products reduced by divmod"


def _check_integer_accumulation():
    ctx = GrContext(3, 6)
    rng = random.Random(6)
    # small diagrams keep the cold structure constants cheap and make output terms collide
    small = [d for d in enumerate_diagrams(ctx) if d.size <= 3]

    def keys():
        return [(rng.choice(small), rng.randint(-1, 1)) for _ in range(2)]

    shapes = [(keys(), keys()) for _ in range(3)]
    # QQ.random_element draws mixed denominators, so products reduce theirs by a gcd
    for F in (make_extension(2, 3), cyclotomic_field(8), QQ, prime_field(7)):
        pairs = [[qc.QhElement(ctx, F, {key: F.random_element(rng) for key in ks}) for ks in shape] for shape in shapes]
        # sigma[2,1] cancels in (sigma[2] - sigma[1,1]) * sigma[1]; -1 = 1 over GF(2^3)
        difference = {(YoungDiagram((2,)), 0): F.one(), (YoungDiagram((1, 1)), 0): F.neg(F.one())}
        pairs.append([qc.QhElement(ctx, F, difference), qc.QhElement.schubert(ctx, F, YoungDiagram((1,)))])
        for a, b in pairs:
            want = {}
            for (d1, m1), c1 in a.terms.items():
                for (d2, m2), c2 in b.terms.items():
                    c12 = F.mul(c1, c2)
                    for (d, dm), N in qc.schubert_product(ctx, d1, d2).items():
                        key = (d, m1 + m2 + dm)
                        want[key] = F.add(want.get(key, F.zero()), F.mul(c12, F.from_int(N)))
            if qc.quantum_product(a, b).terms != {key: c for key, c in want.items() if not F.is_zero(c)}:
                return False, f"{F.label}: ({qc.format_element(a)}) * ({qc.format_element(b)}) differs from the per-term expansion"
            # with a itself too, every term meets its partner and a - a cancels
            for other in (b, a):
                for op, combine, got in (("+", F.add, a + other), ("-", F.sub, a - other)):
                    want = dict(a.terms)
                    for key, c in other.terms.items():
                        want[key] = combine(want.get(key, F.zero()), c)
                    if got.terms != {key: c for key, c in want.items() if not F.is_zero(c)}:
                        return False, f"{F.label}: ({qc.format_element(a)}) {op} ({qc.format_element(other)}) differs from the per-term sum"
    return True, "GF(2^3), Q(zeta8), Q and GF(7) products, sums and differences on Gr(3,6) match field arithmetic per term"


def _check_pieri_golden():
    ctx = GrContext(3, 6)
    a = qc.QhElement.schubert(ctx, QQ, YoungDiagram((1, 1)))
    b = qc.QhElement.schubert(ctx, QQ, YoungDiagram((3, 1)))
    got = qc.format_element(qc.quantum_product(a, b))
    return got == "σ[3,2,1] + q*σ[-]", got


def _horizontal_strip(outer, inner) -> bool:
    """outer/inner is a horizontal strip: outer_{i+1} <= inner_i <= outer_i."""
    return all(b <= a for a, b in zip(outer, inner)) and all(a <= b for a, b in zip(outer[1:], inner))


def _check_row_pieri():
    ctx = GrContext(2, 5)
    box = enumerate_diagrams(ctx)
    padded = {d: tuple(d) + (0,) * (ctx.k - len(d)) for d in box}
    for lam, rows in padded.items():
        for p in range(1, ctx.cols + 1):
            # classical mu: mu/lam is a horizontal p-strip; q-terms nu: lam_k >= 1
            # and (lam_1 - 1, ..., lam_k - 1)/nu is a horizontal (n-k-p)-strip
            want = {
                (mu, 0): 1
                for mu in box
                if mu.size == lam.size + p and _horizontal_strip(padded[mu], rows)
            }
            if rows[-1]:
                shifted = tuple(r - 1 for r in rows)
                want.update(
                    ((nu, 1), 1)
                    for nu in box
                    if nu.size == lam.size + p - ctx.n and _horizontal_strip(shifted, padded[nu])
                )
            got = qc.transposed_pieri_multiply(qc.QhElement.schubert(ctx, QQ, lam), p)
            if got.terms != want:
                return False, f"h_{p} * σ[{lam.to_text()}] in Gr(2,5) differs from the horizontal-strip filter"
    return True, "row Pieri rule on Gr(2,5) matches a whole-box horizontal-strip filter"


def _check_power_identity():
    for k, n in ((2, 5), (2, 6), (3, 6)):
        ctx = GrContext(k, n)
        acc = qc.QhElement.unit(ctx, QQ)
        xk = qc.special_class(ctx, QQ, k)
        for _ in range(n):
            acc = qc.quantum_product(xk, acc)
        want = qc.q_shift(qc.QhElement.unit(ctx, QQ), k)
        if acc != want:
            return False, f"x_{k}^{n} != q^{k} in Gr({k},{n})"
    return True, "x_k^n = q^k on the sampled grid"


def _check_matrices():
    for n in (13, 12):
        ctx = GrContext(2, n)
        ring = dz.mult_matrix(dz.standard_degree_zero_element(ctx, QQ), n - 2)
        if ring != dz.closed_form_matrix(n, QQ):
            return False, f"matrix mismatch at n={n}"
    return True, "ring matrices match the closed tridiagonal form (n = 13, 12)"


def _check_charpoly_identity():
    bad = [n for n in range(3, 17) if not dz.charpoly_identity_holds(n)]
    return not bad, f"failures: {bad}" if bad else "Laurent identity holds for n = 3..16"


def _check_orbits():
    od = dz.orbit_decomposition(10, 7)
    if od.count != 3 or od.sizes() != [1, 2, 2]:
        return False, f"orbits(10,7) -> {od.count}, sizes {od.sizes()}"
    F7 = prime_field(7)
    prof = distinct_degree_profile(F7, char_poly(F7, dz.closed_form_matrix(10, F7)))
    return prof == [1, 2, 2], f"factor degrees over GF(7): {prof}"


def _check_orbit_sizes():
    for n in (10, 60):
        want = dz.orbit_decomposition(n, 7).sizes()
        got = dz.orbit_sizes(n, 7)
        if got != want:
            return False, f"orbit_sizes({n}, 7) = {got}, enumerated orbits give {want}"
    return True, "closed-form orbit sizes match the enumerated orbits (n = 10, 60; p = 7)"


def _check_classifier():
    cases = [
        ((1, 5, 0), True, "finite"),
        ((2, 5, 0), True, "finite"),
        ((2, 10, 7), False, "unknown"),
        ((4, 8, 0), False, "infinite"),
        ((2, 4, 0), False, "infinite"),
    ]
    for (k, n, c), want_field, want_kind in cases:
        verdict = dz.classify(k, n, c)
        if verdict.is_graded_field != want_field or verdict.diameter.kind != want_kind:
            return False, f"classify{(k, n, c)} -> {verdict.to_json_dict()}"
    return True, "classifier table reproduced"


def _check_ev_vanishing():
    ctx = GrContext(2, 5)
    ev = pres.EvContext(ctx, prime_field(11))
    multisets = pres.admissible_multisets(ev.field, 2, 5)
    bad = [J.to_text() for J in multisets if not pres.verify_ideal_vanishing(ev, J)["all_ok"]]
    return not bad, f"failing multisets: {bad}" if bad else "ideal vanishing on all 10 multisets"


def _check_ev_multiplicative():
    rng = random.Random(5)
    # Q(zeta10) runs the integer kernel, GF(3^4) the log tables
    for k, n, base in ((2, 5, QQ), (2, 8, prime_field(3))):
        ctx = GrContext(k, n)
        ev = pres.EvContext(ctx, base)
        K = ev.field
        diagrams = enumerate_diagrams(ctx)
        multisets = pres.admissible_multisets(K, k, n)

        def element():
            terms = {(rng.choice(diagrams), rng.randint(-1, 1)): base.random_element(rng) for _ in range(2)}
            return qc.QhElement(ctx, base, terms)

        for _ in range(4):
            a, b = element(), element()
            J = rng.choice(multisets)
            if pres.ev_map(ev, J, qc.quantum_product(a, b)) != K.mul(pres.ev_map(ev, J, a), pres.ev_map(ev, J, b)):
                return False, f"{K.label}: ev_{J.to_text()} of ({qc.format_element(a)}) * ({qc.format_element(b)}) is not the product"
    return True, "ev_J(a*b) = ev_J(a)ev_J(b) on seeded pairs over Q(zeta10) and GF(3^4)"


def _check_critical_point():
    from . import gelfand_cetlin as gc

    for k, n in ((1, 2), (2, 5), (3, 7)):
        gc.critical_point(GrContext(k, n))  # raises RuntimeError unless the exact check holds
    return True, "grad W = 0 and W = n [k]/[1] exactly at the closed-form point of Gr(1,2), Gr(2,5), Gr(3,7)"


def _check_quaternionic():
    from . import gelfand_cetlin as gc

    for ctx in (GrContext(2, 4), GrContext(4, 8)):
        blocks = [(i, j) for i in range(1, ctx.k, 2) for j in range(2, ctx.cols + 1, 2)]
        boundaries = [(i, j) for i in range(1, ctx.k + 1) for j in range(2, ctx.cols, 2)]
        for seed in range(5):
            z = gc.gc_map(gc.quaternionic_frame(ctx, seed)).value
            generic = gc.gc_map(gc.random_frame(ctx, seed)).value
            for i, j in blocks:
                block = (z(i, j - 1), z(i, j), z(i + 1, j - 1), z(i + 1, j))
                if max(block) - min(block) > 1e-9:
                    return False, f"2x2 block z_{{{i}..{i + 1},{j - 1}..{j}}} not constant in {ctx}, seed {seed}"
                if abs(generic(i, j) - generic(i + 1, j - 1)) <= 1e-6:
                    return False, f"random frame has z_{{{i},{j}}} = z_{{{i + 1},{j - 1}}} in {ctx}, seed {seed}"
            for i, j in boundaries:
                if abs(z(i, j) - z(i, j + 1)) <= 1e-6:
                    return False, f"z_{{{i},{j}}} = z_{{{i},{j + 1}}} across a block boundary in {ctx}, seed {seed}"
    return True, "Kramers 2x2 blocks (i odd, j even) constant; block neighbours and random-frame pairs apart"


CHECKS = [
    ("extension-field products", _check_extension_kernel),
    ("integer-accumulated products", _check_integer_accumulation),
    ("pieri golden case", _check_pieri_golden),
    ("row Pieri rule vs horizontal-strip filter", _check_row_pieri),
    ("power identity x_k^n = q^k", _check_power_identity),
    ("degree-zero multiplication matrices", _check_matrices),
    ("characteristic polynomial identity", _check_charpoly_identity),
    ("orbit decomposition and factor degrees", _check_orbits),
    ("closed-form orbit sizes", _check_orbit_sizes),
    ("classifier table", _check_classifier),
    ("evaluation ideal vanishing", _check_ev_vanishing),
    ("evaluation multiplicativity", _check_ev_multiplicative),
    ("disk potential critical points", _check_critical_point),
    ("quaternionic Gelfand-Cetlin locus", _check_quaternionic),
]


def run_selftest() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the tier
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
