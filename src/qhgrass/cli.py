"""Command-line surface.

Subcommands: product, pieri, matrix, classify, orbits, evcheck, gc map,
gc critical, selftest. Machine-readable output is JSON (--json where it is
not the default). Exit codes: 0 success, 1 usage error or output into a
closed pipe (nothing is printed to stderr then), 2 computation error, 3
selftest failure.

Only the two gc subcommands import the numpy-backed Gelfand-Cetlin module,
so the exact subcommands start without numpy.

Element grammar: "+"-separated terms of the form [coeff*][q[^m]*]σ[rows]
with rows comma-separated ("-" for the empty diagram); "s[...]" is accepted
as an ASCII spelling. Fields are "Q", "GF(p)", or "GF(p^m)".
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import degree_zero as dz
from . import presentation as pres
from . import qh_core as qc
from .diagram import GrContext, enumerate_diagrams
from .exactfield import FieldError, char_poly, parse_field
from .selftest import run_selftest


def _context(args) -> GrContext:
    return GrContext(args.k, args.n)


def _cmd_product(args) -> int:
    ctx = _context(args)
    field = parse_field(args.field)
    a = qc.parse_element(ctx, field, args.a)
    b = qc.parse_element(ctx, field, args.b)
    result = qc.quantum_product(a, b)
    if args.json:
        print(json.dumps({"result": qc.format_element(result)}, ensure_ascii=False))
    else:
        print(qc.format_element(result))
    return 0


def _cmd_pieri(args) -> int:
    ctx = _context(args)
    field = parse_field(args.field)
    element = qc.parse_element(ctx, field, args.element)
    result = qc.pieri_multiply(element, args.j)
    print(qc.format_element(result))
    return 0


def _cmd_matrix(args) -> int:
    n = args.n
    field = parse_field(args.field)
    closed = dz.closed_form_matrix(n, field)
    if n >= 4:
        ctx = GrContext(2, n)
        element = dz.standard_degree_zero_element(ctx, field)
        ring_matrix = dz.mult_matrix(element, n - 2)
    else:
        ring_matrix = closed  # n = 3: single basis class, the matrix is [1]
    pi = char_poly(field, ring_matrix)
    payload = {
        "n": n,
        "field": field.label,
        "matrix": [[field.element_to_str(v) for v in row] for row in ring_matrix.rows],
        "matchesClosedForm": ring_matrix == closed,
        "charPoly": pi.to_text(),
        "laurentIdentityOverQ": dz.charpoly_identity_holds(n),
    }
    if args.json:
        print(json.dumps(payload, ensure_ascii=False))
    else:
        for row in payload["matrix"]:
            print(" ".join(f"{v:>4}" for v in row))
        print(f"char poly: {payload['charPoly']}")
        print(f"matches closed form: {payload['matchesClosedForm']}")
        print(f"Laurent identity over Q: {payload['laurentIdentityOverQ']}")
    if not payload["matchesClosedForm"] or not payload["laurentIdentityOverQ"]:
        return 2
    return 0


def _cmd_classify(args) -> int:
    try:
        char_spec = int(args.char)
    except ValueError:
        raise ValueError(f"characteristic must be 0 or a prime, got {args.char!r}") from None
    verdict = dz.classify(args.k, args.n, char_spec)
    print(json.dumps(verdict.to_json_dict(), ensure_ascii=False))
    return 0


def _cmd_orbits(args) -> int:
    decomposition = dz.orbit_decomposition(args.n, args.p)
    if args.json:
        print(json.dumps(decomposition.to_json_dict()))
    else:
        print(f"{decomposition.count} orbits of {{a,-a}} -> {{pa,-pa}} mod {args.n} (p = {args.p})")
        for orbit in decomposition.orbits:
            print("  " + " ".join("{%d,%d}" % pair for pair in orbit))
    return 0


def _cmd_evcheck(args) -> int:
    if args.pairs < 0:
        raise ValueError(f"--pairs must be at least 0, got {args.pairs}")
    ctx = _context(args)
    base = parse_field(args.field)
    ev = pres.EvContext(ctx, base)
    multisets = pres.admissible_multisets(ev.field, ctx.k, ctx.n)
    vanishing = [pres.verify_ideal_vanishing(ev, J) for J in multisets]
    rng = random.Random(args.seed)
    diagrams = enumerate_diagrams(ctx)
    failures = 0
    for _ in range(args.pairs):
        a = _random_element(ctx, base, diagrams, rng)
        b = _random_element(ctx, base, diagrams, rng)
        product = qc.quantum_product(a, b)
        J = multisets[rng.randrange(len(multisets))]
        lhs = pres.ev_map(ev, J, product)
        rhs = ev.field.mul(pres.ev_map(ev, J, a), pres.ev_map(ev, J, b))
        if lhs != rhs:
            failures += 1
    report = {
        "k": ctx.k,
        "n": ctx.n,
        "baseField": base.label,
        "splittingField": ev.field.label,
        "xiIndex": ev.xi_index,
        "multisets": len(multisets),
        "idealVanishing": all(r["all_ok"] for r in vanishing),
        "vanishingReports": vanishing if args.verbose else None,
        "multiplicativePairs": args.pairs,
        "multiplicativeFailures": failures,
    }
    print(json.dumps({k: v for k, v in report.items() if v is not None}, ensure_ascii=False))
    return 0 if report["idealVanishing"] and failures == 0 else 2


def _random_element(ctx, field, diagrams, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        diagram = diagrams[rng.randrange(len(diagrams))]
        coeff = field.random_element(rng)
        terms[(diagram, rng.randint(-1, 1))] = coeff
    return qc.QhElement(ctx, field, terms)


def _cmd_gc_map(args) -> int:
    from . import gelfand_cetlin as gc

    ctx = _context(args)
    if args.csv:
        for row in gc.gc_csv_rows(ctx, [args.seed], quaternionic=args.quaternionic):
            print(row)
    else:
        frame = (
            gc.quaternionic_frame(ctx, args.seed)
            if args.quaternionic
            else gc.random_frame(ctx, args.seed)
        )
        values = gc.gc_map(frame)
        payload = {
            "k": ctx.k,
            "n": ctx.n,
            "seed": args.seed,
            "quaternionic": args.quaternionic,
            "values": {
                f"{i+1},{j+1}": values.grid[i, j]
                for i in range(ctx.k)
                for j in range(ctx.cols)
            },
            "interlacingViolation": values.interlacing_violation(),
        }
        print(json.dumps(payload))
    return 0


def _cmd_gc_critical(args) -> int:
    from . import gelfand_cetlin as gc

    _, report = gc.critical_point(_context(args))
    print(json.dumps(report))
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhgrass",
        description="Exact quantum cohomology of Grassmannians and the spectral-diameter classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="quantum product of two classes")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("field")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("pieri", help="multiply by the special class x_j")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("field")
    p.add_argument("j", type=int)
    p.add_argument("element")
    p.set_defaults(func=_cmd_pieri)

    p = sub.add_parser("matrix", help="degree-zero multiplication matrix for Gr(2, n)")
    p.add_argument("n", type=int)
    p.add_argument("field")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("classify", help="graded-field / spectral-diameter verdict (JSON)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("char")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbits", help="Frobenius orbits on inverse pairs mod n")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("evcheck", help="ideal vanishing and multiplicativity of ev_J")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("field", help="base field: Q or GF(p)")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_evcheck)

    gc_parser = sub.add_parser("gc", help="Gelfand-Cetlin toolbox")
    gc_sub = gc_parser.add_subparsers(dest="gc_command", required=True)

    p = gc_sub.add_parser("map", help="Gelfand-Cetlin values of a seeded frame")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quaternionic", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_gc_map)

    p = gc_sub.add_parser("critical", help="critical point of the disk potential")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gc_critical)

    p = sub.add_parser("selftest", help="run the fast acceptance tier")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at exit
        # writes what is left nowhere instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, FieldError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
