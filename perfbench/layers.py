"""Per-layer metrics, derived from a traced run.

Span names are "<module>.<function>" for library functions and
"lapack.<routine>" for the wrapped numpy.linalg calls.  Every calls and
count value is per op; every _s value is seconds per op.  total_s counts
the outermost span of a name only; self_s subtracts the time of direct
child spans.  README.md maps each metric to the end-to-end metric and
workload it should move.  The metric names come from BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path

# The metric lists (name, unit, better) are the ones in BENCHMARK.json.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# Metrics that sum several spans.
ALIASES = {
    "equivalence.decide": (
        "equivalence.decide_unitary_congruence",
        "equivalence.decide_unitary_star_congruence",
    ),
}

COUNTERS = {
    "lapack.full_size.calls",
    "factorizations.cluster_complex.values",
    "cli.report_bytes",
    "errors.precondition.count",
    "errors.convergence.count",
}


def per_layer(tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, which needs
    the untraced timings."""
    totals = tracer.layer_totals()
    ops = max(1, tracer.ops)

    def field(span: str, key: str) -> float:
        return sum(totals.get(s, {}).get(key, 0.0) for s in ALIASES.get(span, (span,)))

    lapack_calls = sum(v["calls"] for k, v in totals.items() if k.startswith("lapack."))
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name in COUNTERS:
            out[name] = tracer.counters.get(name, 0.0) / ops
        elif name == "lapack.time_s":
            out[name] = sum(
                v["total_s"] for k, v in totals.items() if k.startswith("lapack.")
            ) / ops
        elif name == "lapack.repeat_ratio":
            out[name] = tracer.counters.get("lapack.repeat.calls", 0.0) / max(1, lapack_calls)
        elif name != "trace.overhead_ratio":
            span, key = name.rsplit(".", 1)
            out[name] = field(span, key) / ops
    return out
