"""Metric names, units and the arithmetic that turns raw timings and spans into them."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Tracer, self_times

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LINALG_FNS = ("eigh", "eigvalsh", "svd", "svdvals", "qr", "lstsq", "cho_factor", "cho_solve")
LAYERS = ("symcore", "model", "ssnewton", "facialred", "degeneracy", "cli")

# spans whose call count and self time are reported
SPAN_METRICS = {
    "ssnewton.newton_solve": ("calls", "self_s"),
    "ssnewton.jacobian_spectrum": ("self_s",),
    "ssnewton.trace_to_csv": ("self_s",),
    "symcore.eig_sym": ("calls", "self_s"),
    "symcore.smat": ("calls", "self_s"),
    "symcore.project_psd": ("calls", "self_s"),
    "model.LinearMap.matrices": ("calls", "self_s"),
    "model.LinearMap.matrix": ("calls", "self_s"),
    "model.LinearMap.adjoint": ("calls", "self_s"),
    "model.LinearMap.apply": ("calls", "self_s"),
    "model.preprocess_surjective": ("calls", "self_s"),
    "model.load_instance": ("self_s",),
    "model.dumps_json": ("self_s",),
    "model.kkt_residuals": ("self_s",),
    "facialred.solve_aux_gauss_newton": ("calls", "self_s"),
    "facialred.certificate_from_stall": ("self_s",),
    "facialred.fr_step": ("calls", "self_s"),
    "facialred.fr_loop": ("self_s",),
    "degeneracy.is_nondegenerate": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
SPAN_METRICS.update({f"linalg.{fn}": ("calls", "self_s") for fn in LINALG_FNS})

# counters filled by result hooks, reported per traced operation
COUNTER_UNITS = {
    "ssnewton.iterations": "iter/op",
    "ssnewton.status.Solved": "solves/op",
    "ssnewton.status.SuspectedDegenerate": "solves/op",
    "ssnewton.status.IterLimit": "solves/op",
    "ssnewton.gflop_computed": "GFLOP/op",
    "ssnewton.bytes_computed": "B/op",
    "model.LinearMap.matrices.bytes_computed": "B/op",
    "model.preprocess_surjective.rows_removed": "rows/op",
    "facialred.solve_aux_gauss_newton.found": "certs/op",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "calls/op" if kind == "calls" else "s/op"
    units.update(COUNTER_UNITS)
    units.update({
        "ssnewton.iterations_per_solve": "iter/solve",
        "ssnewton.factor.self_s": "s/op",
        "ssnewton.factor.failures": "count/op",
        "facialred.solve_aux_gauss_newton.hit_rate": "certs/search",
        "cli.bytes_written": "B/op",
        "instances.setup_s": "s",
    })
    units.update({f"linalg.{layer}.self_s": "s/op" for layer in LAYERS})
    units.update({
        "trace.spans": "spans/op",
        "trace.overhead_s": "s/op",
        "trace.overhead_share": "ratio",
        "trace.count_mismatches": "count",
        "checks.error_rate": "ratio",
        "oracle.miss_rate": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()

# per-layer metrics that are exact counts; they must repeat between traced runs
EXACT_COUNTS = sorted(
    k for k, u in PER_LAYER.items()
    if u in ("calls/op", "iter/op", "solves/op", "rows/op", "certs/op", "count/op", "iter/solve")
)

_FACTOR_FNS = ("linalg.cho_factor", "linalg.cho_solve", "linalg.lstsq")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer no
    such percentile exists; the maximum is returned with no sample beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 10  # 1-based rank of the tail sample; ten samples lie above it
    return xs[k - 1], 100.0 * k / n, 10


def span_counts(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Exact totals (calls per span name plus hook counters) over ``ops``."""
    a = tracer.arrays()
    sel = np.isin(a["op"], ops)
    totals: dict[str, float] = defaultdict(float)
    for nid, cnt in zip(*np.unique(a["name"][sel], return_counts=True)):
        totals[f"{tracer.names[nid]}.calls"] = float(cnt)
    for op in ops:
        for key, val in tracer.counters.get(op, {}).items():
            totals[key] += val
    return dict(totals)


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float | None]:
    """Per-layer metrics over the traced operations ``ops``, per operation."""
    a = tracer.arrays()
    nops = len(ops)
    sel = np.isin(a["op"], ops)
    selft = self_times(a["start"], a["end"], a["parent"])
    names = np.array(tracer.names + ["<none>"])
    layer_of = np.array([n.split(".")[0] for n in names])
    parent_nid = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], len(names) - 1)
    span_name, parent_name = names[a["name"]], names[parent_nid]

    out: dict[str, float | None] = {}
    for span, kinds in SPAN_METRICS.items():
        mask = sel & (span_name == span)
        for kind in kinds:
            key = f"{span}.{kind}"
            if span in tracer.missing:
                out[key] = None
            elif kind == "calls":
                out[key] = float(mask.sum()) / nops
            else:
                out[key] = float(selft[mask].sum()) / nops

    totals = span_counts(tracer, ops)
    for key in COUNTER_UNITS:
        out[key] = totals.get(key, 0.0) / nops
    solves = totals.get("ssnewton.newton_solve.calls", 0.0)
    out["ssnewton.iterations_per_solve"] = (
        totals.get("ssnewton.iterations", 0.0) / solves if solves else 0.0)
    searches = totals.get("facialred.solve_aux_gauss_newton.calls", 0.0)
    out["facialred.solve_aux_gauss_newton.hit_rate"] = (
        totals.get("facialred.solve_aux_gauss_newton.found", 0.0) / searches if searches else 0.0)

    under_newton = sel & (parent_name == "ssnewton.newton_solve")
    factor = under_newton & np.isin(span_name, _FACTOR_FNS)
    out["ssnewton.factor.self_s"] = float(selft[factor].sum()) / nops
    failures = under_newton & (span_name == "linalg.cho_factor") & a["failed"]
    out["ssnewton.factor.failures"] = float(failures.sum()) / nops

    is_linalg = layer_of[a["name"]] == "linalg"
    parent_layer = layer_of[parent_nid]
    for layer in LAYERS:
        mask = sel & is_linalg & (parent_layer == layer)
        out[f"linalg.{layer}.self_s"] = float(selft[mask].sum()) / nops
    out["trace.spans"] = float(sel.sum()) / nops
    return out
