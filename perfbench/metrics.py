"""Metric registry of the benchmark, and the arithmetic that fills it.

BENCHMARK.json at the repository root lists the same names, units and
directions; perfbench/test_perfbench.py keeps the two in step. Each per-layer
metric notes the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name: (unit, better, bound)
END_TO_END = {
    "job_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p99_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_op_frac": ("frac", "higher", 0.01),
    "setup_s": ("s", "lower", 0.25),
}

# Layer calls the worker wraps in spans, with what they should move. A traced
# run reports their calls and self time in one traced job plus in the probe's
# layer calls (workloads.layer_probe), so every workload shows every layer.
SPANNED = {
    "qh_core.schubert_product": "job_s on product-fill; no change on ev-maps or degree-zero",
    "qh_core.quantum_product": "job_s and op_p50_ms on product-reads",
    "degree_zero.mult_matrix": "job_s on product-fill",
    "degree_zero.classify": "job_s and peak_rss_mb on degree-zero",
    "degree_zero.is_graded_field": "job_s on degree-zero",
    "degree_zero.charpoly_identity_holds": "job_s on degree-zero",
    "exactfield.char_poly": "job_s on degree-zero",
    "exactfield.min_poly": "job_s on degree-zero",
    "exactfield.is_irreducible": "job_s on degree-zero",
    "exactfield.distinct_degree_profile": "job_s on degree-zero",
    "presentation.EvContext": "job_s and op_p99_ms on ev-maps",
    "presentation.verify_ideal_vanishing": "job_s and op_p99_ms on ev-maps",
    "presentation.ev_map": "job_s and op_p99_ms on ev-maps",
    "diagram.enumerate_diagrams": "job_s on product-fill (cold first call per context)",
}

# Layer calls timed by the probe worker on a cold process, on the large-n inputs.
PROBED = {
    "degree_zero.orbit_decomposition": "job_s and peak_rss_mb on degree-zero",
    "degree_zero.generates_units": "job_s and peak_rss_mb on degree-zero",
}

# Field arithmetic probes: metric suffix -> field spec understood by the worker.
FIELDS = {
    "Q": "Q",
    "GF2": "GF(2)",
    "GF3": "GF(3)",
    "GF7": "GF(7)",
    "GF2_2": "GF(2^2)",
    "GF2_3": "GF(2^3)",
    "GF3_3": "GF(3^3)",
    "GF3_4": "GF(3^4)",
    "Qzeta8": "Q(zeta8)",
    "Qzeta14": "Q(zeta14)",
}

ROUTES = ("rule", "charpoly_irreducible", "units_closure", "zero_divisor_search")


def _layer_registry() -> dict:
    out = {}
    for name, moves in {**SPANNED, **PROBED}.items():
        out[f"{name}.calls"] = ("count", "lower", moves)
        out[f"{name}.busy_s"] = ("s", "lower", moves)
    out["qh_core.giambelli_expand.us"] = ("us", "lower", "job_s on product-fill")
    out["qh_core.pieri_multiply.us"] = ("us", "lower", "job_s on product-fill")
    out["qh_core.terms_out"] = ("count", "lower", "repeats exactly; terms in all product outputs")
    prop = "input property: share of lookups repeating an earlier"
    out["qh_core.pair_repeat_share"] = ("frac", "higher", f"{prop} ordered pair")
    out["qh_core.unordered_repeat_share"] = ("frac", "higher", f"{prop} unordered pair")
    for route in ROUTES:
        out[f"degree_zero.route.{route}.count"] = ("count", "lower", "repeats exactly; is_graded_field routes run")
    for suffix in FIELDS:
        moves = "job_s on ev-maps, and on product-reads through the coefficients"
        out[f"exactfield.mul_ns.{suffix}"] = ("ns", "lower", moves)
        out[f"exactfield.inv_ns.{suffix}"] = ("ns", "lower", moves)
    out["job.rss_growth_mb"] = ("MB", "lower", "peak_rss_mb on every workload; the peak less the RSS with the inputs built")
    out["trace.overhead_frac"] = ("frac", "lower", "traced job_s over untraced job_s, minus one")
    return out


# name: (unit, better, what it should move)
PER_LAYER = _layer_registry()


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles, inclusive method."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans: list) -> dict[str, list[float]]:
    """{span name: [self time in s per span]}; self time is the span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for span_id, parent, _op, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list[float]] = defaultdict(list)
    for span_id, _parent, _op, name, start, end in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name].append((end - start - covered) / 1e9)
    return out
