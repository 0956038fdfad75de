"""Benchmark worker: runs one job of qhgrass calls in a fresh process.

Usage: ``PYTHONPATH=<repo>/src <python> worker.py`` with the job as JSON on
stdin; one JSON report goes to stdout. Importing qhgrass is the first thing
it does, so the parent can time set-up from process start to the end of
that import (both read the system-wide monotonic clock).

Jobs: ``{"mode": "setup"}`` only imports; ``{"mode": "job", "workload": ...,
"seed": ..., "tiny": bool, "trace": bool, "results": bool}`` builds the
workload's operations (perfbench/workloads.py) from the seed and runs them in
order, returning their outputs if asked; ``{"mode": "probe", ...}`` times
single layer calls on a cold process and runs the small layer probe of
workloads.layer_probe traced.
"""

import time

import qhgrass  # noqa: F401

READY_NS = time.monotonic_ns()

import json  # noqa: E402

import numpy  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter_ns  # noqa: E402

from qhgrass import degree_zero, diagram, exactfield, presentation, qh_core  # noqa: E402

import workloads  # noqa: E402  (perfbench/, the script's own directory)

# Every library call the benchmark makes goes through this table, so a traced
# job can wrap each one in a span; an untraced job calls the functions as is.
LAYER_CALLS = {
    "diagram.enumerate_diagrams": diagram.enumerate_diagrams,
    "qh_core.schubert_product": qh_core.schubert_product,
    "qh_core.quantum_product": qh_core.quantum_product,
    "degree_zero.standard_degree_zero_element": degree_zero.standard_degree_zero_element,
    "degree_zero.mult_matrix": degree_zero.mult_matrix,
    "degree_zero.classify": degree_zero.classify,
    "degree_zero.is_graded_field": degree_zero.is_graded_field,
    "degree_zero.closed_form_matrix": degree_zero.closed_form_matrix,
    "degree_zero.charpoly_identity_holds": degree_zero.charpoly_identity_holds,
    "exactfield.char_poly": exactfield.char_poly,
    "exactfield.min_poly": exactfield.min_poly,
    "exactfield.is_irreducible": exactfield.is_irreducible,
    "exactfield.distinct_degree_profile": exactfield.distinct_degree_profile,
    "presentation.EvContext": presentation.EvContext,
    "presentation.admissible_multisets": presentation.admissible_multisets,
    "presentation.verify_ideal_vanishing": presentation.verify_ideal_vanishing,
    "presentation.ev_map": presentation.ev_map,
}


class Tracer:
    """In-memory spans: (span id, parent id, op id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op = -1
        self.parent = -1
        self.op_name = ""
        self.op_start = 0

    def wrap(self, name, fn):
        spans = self.spans

        def traced(*args):
            span_id = self.next_id
            self.next_id += 1
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                spans.append((span_id, self.parent, self.op, name, start, perf_counter_ns()))

        return traced

    def begin(self, op_id: int, kind: str):
        self.op = op_id
        self.parent = self.next_id
        self.next_id += 1
        self.op_name = "op." + kind
        self.op_start = perf_counter_ns()

    def end(self):
        self.spans.append((self.parent, -1, self.op, self.op_name, self.op_start, perf_counter_ns()))
        self.parent = -1


class Api:
    """Attribute access to LAYER_CALLS by short name, traced or not."""

    def __init__(self, tracer: Tracer | None):
        for name, fn in LAYER_CALLS.items():
            setattr(self, name.split(".")[1], tracer.wrap(name, fn) if tracer else fn)


# ---------------------------------------------------------------------------
# plain data -> library values


def field_of(spec: str):
    if spec.startswith("Q(zeta"):
        return exactfield.cyclotomic_field(int(spec[6:-1]))
    return exactfield.parse_field(spec)


def coeff_of(F, c):
    if F.characteristic == 0:
        num, den = c
        return F.div(F.from_int(num), F.from_int(den))
    if isinstance(c, list):
        return tuple(F.base.from_int(d) for d in c)
    return F.from_int(c)


def element_of(ctx, F, terms):
    return qh_core.QhElement(
        ctx, F, {(qh_core.YoungDiagram(rows), m): coeff_of(F, c) for rows, m, c in terms}
    )


# ---------------------------------------------------------------------------
# operations: each returns a raw result; canon() turns it into JSON data


def op_enumerate_diagrams(api, state, k, n):
    return api.enumerate_diagrams(diagram.GrContext(k, n))


def op_schubert_product(api, state, k, n, a, b):
    return api.schubert_product(diagram.GrContext(k, n), a, b)


def op_mult_matrix(api, state, n):
    element = api.standard_degree_zero_element(diagram.GrContext(2, n), exactfield.QQ)
    return api.mult_matrix(element, n - 2)


def op_quantum_product(api, state, k, n, spec, a, b):
    ctx = diagram.GrContext(k, n)
    F = field_of(spec)
    return api.quantum_product(element_of(ctx, F, a), element_of(ctx, F, b))


def op_classify(api, state, k, n, chars):
    return [api.classify(k, n, c) for c in chars]


def op_is_graded_field(api, state, n, spec):
    return api.is_graded_field(diagram.GrContext(2, n), field_of(spec))


def op_linear_algebra(api, state, n, spec):
    F = field_of(spec)
    M = api.closed_form_matrix(n, F)
    cp = api.char_poly(F, M)
    out = {"char_poly": cp, "min_poly": api.min_poly(F, M)}
    if F.order is not None:
        out["irreducible"] = api.is_irreducible(F, cp)
        out["profile"] = api.distinct_degree_profile(F, cp)
    return out


def op_charpoly_identity_holds(api, state, n):
    return api.charpoly_identity_holds(n)


def op_ev_context(api, state, k, n, spec):
    ev = api.EvContext(diagram.GrContext(k, n), field_of(spec))
    multisets = api.admissible_multisets(ev.field, k, n)
    state[(k, n, spec)] = (ev, multisets)
    return ev, multisets


def op_verify_ideal_vanishing(api, state, k, n, spec, j):
    ev, multisets = state[(k, n, spec)]
    return api.verify_ideal_vanishing(ev, multisets[j])


def op_ev_multiplicative(api, state, k, n, spec, j, a, b):
    ev, multisets = state[(k, n, spec)]
    J = multisets[j]
    x = element_of(ev.ctx, ev.base, a)
    y = element_of(ev.ctx, ev.base, b)
    lhs = api.ev_map(ev, J, api.quantum_product(x, y))
    rhs = ev.field.mul(api.ev_map(ev, J, x), api.ev_map(ev, J, y))
    return lhs, rhs


OPS = {
    "enumerate_diagrams": op_enumerate_diagrams,
    "schubert_product": op_schubert_product,
    "mult_matrix": op_mult_matrix,
    "quantum_product": op_quantum_product,
    "classify": op_classify,
    "is_graded_field": op_is_graded_field,
    "linear_algebra": op_linear_algebra,
    "charpoly_identity_holds": op_charpoly_identity_holds,
    "EvContext": op_ev_context,
    "verify_ideal_vanishing": op_verify_ideal_vanishing,
    "ev_multiplicative": op_ev_multiplicative,
}


def _terms(terms):
    return sorted([d, m, c] for (d, m), c in terms.items())


def canon(kind: str, raw):
    """JSON-able data for an operation's result, compared by perfbench/gate.py.

    Field elements stay as they are (int, Fraction, tuple); json.dumps writes
    a Fraction through its ``default`` as "num/den" and a tuple as a list.
    """
    if kind in ("schubert_product", "quantum_product"):
        return _terms(raw if kind == "schubert_product" else raw.terms)
    if kind == "mult_matrix":
        return raw.rows
    if kind == "classify":
        return [r.to_json_dict() for r in raw]
    if kind == "is_graded_field":
        return {"is_field": raw.is_field, "routes": raw.routes}
    if kind == "linear_algebra":
        return {key: v.coeffs if key.endswith("poly") else v for key, v in raw.items()}
    if kind == "EvContext":
        ev, multisets = raw
        return {"field": ev.field.label, "xi_index": ev.xi_index, "multisets": [J.indices for J in multisets]}
    if kind == "ev_multiplicative":
        lhs, rhs = raw
        return {"lhs": lhs, "rhs": rhs, "holds": lhs == rhs}
    return raw  # enumerate_diagrams, charpoly_identity_holds, verify_ideal_vanishing


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB: VmHWM, where Linux provides it.

    ru_maxrss is not used there: Linux carries it across execve, so a fresh
    worker would report at least the RSS its parent had when it spawned it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(ops: list, trace: bool, want_results: bool) -> dict:
    input_kb = _peak_rss_kb()  # the high-water mark with the inputs built, before any operation
    tracer = Tracer() if trace else None
    api = Api(tracer)
    state: dict = {}
    raw: list = [None] * len(ops)
    errors: dict[int, str] = {}
    latency = [0] * len(ops)
    start = perf_counter_ns()
    for i, op in enumerate(ops):
        t0 = perf_counter_ns()
        if tracer:
            tracer.begin(i, op[0])
        try:
            raw[i] = OPS[op[0]](api, state, *op[1:])
        except Exception as exc:  # a failed operation is reported, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end()
        latency[i] = perf_counter_ns() - t0
    job_ns = perf_counter_ns() - start
    peak_kb = _peak_rss_kb()
    results = checks = None
    if want_results:
        results = [None if i in errors else canon(op[0], raw[i]) for i, op in enumerate(ops)]
        checks = check_data(ops)
    return {
        "job_ns": job_ns,
        "latency_ns": latency,
        "input_rss_kb": input_kb,
        "peak_rss_kb": peak_kb,
        "results": results,
        "checks": checks,
        "errors": errors,
        "spans": tracer.spans if tracer else None,
    }


def check_data(ops: list) -> dict:
    """Data the gate needs to recompute every quantum_product of the job on its own.

    The integer structure constants of each distinct pair of Schubert classes
    the products combine, and the modulus of each extension field, so the
    gate can redo the bilinear extension with its own field arithmetic.
    Called after the timed region.
    """
    pairs = sorted(
        {(op[1], op[2], tuple(ra), tuple(rb)) for op in ops if op[0] == "quantum_product"
         for ra, _, _ in op[4] for rb, _, _ in op[5]}
    )
    constants = [
        [k, n, list(a), list(b), _terms(qh_core.schubert_product(diagram.GrContext(k, n), a, b))]
        for k, n, a, b in pairs
    ]
    moduli = {}
    for spec in {op[3] for op in ops if op[0] == "quantum_product"}:
        F = field_of(spec)
        if isinstance(F, exactfield.ExtensionField):
            moduli[spec] = list(F.modulus)
    return {"constants": constants, "moduli": moduli}


# ---------------------------------------------------------------------------
# probes: single layer calls timed in a process whose caches are cold


def _time_ns(fn, *args) -> int:
    t0 = perf_counter_ns()
    fn(*args)
    return perf_counter_ns() - t0


def _field_ns(F, rng: random.Random) -> tuple[float, float]:
    """Median ns per mul and per inv over seeded nonzero elements of F."""
    values = []
    while len(values) < 64:
        x = F.random_element(rng)
        if not F.is_zero(x):
            values.append(x)
    pairs = [(values[i], values[(i * 7 + 3) % 64]) for i in range(64)]
    mul, inv = [], []
    for _ in range(5):
        t0 = perf_counter_ns()
        for x, y in pairs:
            F.mul(x, y)
        mul.append((perf_counter_ns() - t0) / len(pairs))
        t0 = perf_counter_ns()
        for x in values:
            F.inv(x)
        inv.append((perf_counter_ns() - t0) / len(values))
    return statistics.median(mul), statistics.median(inv)


def run_probe(job: dict) -> dict:
    out: dict = {"giambelli_ns": 0, "pieri_ns": 0, "fields": {}, "calls": {}}
    for k, n in job["contexts"]:
        ctx = diagram.GrContext(k, n)
        widest = qh_core.YoungDiagram((n - k,) * k)
        out["giambelli_ns"] += _time_ns(qh_core.giambelli_expand, ctx, widest)
        element = qh_core.QhElement.schubert(ctx, exactfield.QQ, widest)
        for j in range(1, k + 1):
            out["pieri_ns"] += _time_ns(qh_core.pieri_multiply, element, j)
    rng = random.Random(job["seed"])
    for name, spec in job["fields"].items():
        out["fields"][name] = _field_ns(field_of(spec), rng)
    for name, args_list in (
        ("degree_zero.orbit_decomposition", [(n, p) for n, p in job["large_n"]]),
        ("degree_zero.generates_units", [(p, n) for n, p in job["large_n"]]),
    ):
        fn = getattr(degree_zero, name.split(".")[1])
        out["calls"][name] = [len(args_list), sum(_time_ns(fn, *args) for args in args_list)]
    out["layers"] = run_job(workloads.layer_probe(), trace=True, want_results=True)
    return out


def main() -> None:
    job = json.load(sys.stdin)
    report: dict = {"ready_ns": READY_NS}
    if job["mode"] == "job":
        ops = workloads.generate(job["workload"], job["seed"], job["tiny"])
        report.update(run_job(ops, job["trace"], job["results"]))
    elif job["mode"] == "probe":
        report.update(run_probe(job))
    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    sys.stdout.write(json.dumps(report, separators=(",", ":"), default=str))
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the filled caches object by object
    # takes up to half a second and nothing is left to flush or close.
    os._exit(0)


if __name__ == "__main__":
    main()
