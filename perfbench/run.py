#!/usr/bin/env python3
"""Closed-loop benchmark of spectraproj: one caller, one operation at a time.

    python3 perfbench/run.py --workload slater_solve --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  perfbench/README.md
describes the workloads and every metric.
"""

import os

# pinned before numpy loads: the BLAS thread count changes both the speed and
# the bytes of the results
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_ROUNDS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, prints the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances (n=10): one set-up round and one checked operation")
    return p.parse_args(argv)


def _blas_threads() -> list[dict[str, Any]]:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found.append({"package": pkg.__name__, "lib": lib.name, "threads": fn()})
                    break
    return found


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    def blas(cfg: dict[str, Any]) -> dict[str, Any]:
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return {"name": info.get("name"), "version": info.get("version")}

    digest = hashlib.sha256()
    for path in sorted((SRC / "spectraproj").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_op(wl: Any, i: int, tracer: Any = None, op_id: int = -1) -> tuple[float, Any]:
    """One closed-loop operation on pool instance ``i``: (seconds, Outcome)."""
    from workloads import Outcome

    inp = wl.prepare(i)
    error: Exception | None = None
    with tracer.recording(op_id) if tracer is not None else contextlib.nullcontext():
        t = time.perf_counter()
        try:
            result = wl.run(inp)
        except Exception as exc:  # a raising operation is a failed operation
            error = exc
        dt = time.perf_counter() - t
    if error is not None:
        return dt, Outcome(False, f"raised {type(error).__name__}: {error}")
    try:
        return dt, wl.check(i, inp, result)
    except Exception as exc:  # unreadable or malformed output
        return dt, Outcome(False, f"check raised {type(exc).__name__}: {exc}")


def set_up(wl: Any, seed: int, workdir: Path, rounds: int) -> tuple[float, float, list[Any]]:
    """Generate and write the pool, then one warm-up operation, ``rounds`` times.

    Returns the median round time, the median time inside the generators and
    the warm-up outcomes.
    """
    totals, gens, warm = [], [], []
    for _ in range(rounds):
        t = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        gens.append(wl.build_pool(seed, workdir))
        warm.append(run_op(wl, 0)[1])
        totals.append(time.perf_counter() - t)
    return statistics.median(totals), statistics.median(gens), warm


def closed_loop(wl: Any, seconds: float, smoke: bool) -> tuple[list[float], list[Any], float]:
    """Untraced operations back to back over the pool until ``seconds`` have passed."""
    lat, outcomes = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        dt, out = run_op(wl, i % wl.pool_size)
        lat.append(dt)
        outcomes.append(out)
        i += 1
        if smoke or time.perf_counter() - t0 >= seconds:
            return lat, outcomes, time.perf_counter() - t0


def traced_loop(wl: Any, seconds: float, smoke: bool, tracer: Any) -> list[dict[str, Any]]:
    """Whole passes over the first ``trace_ops`` instances, each run untraced and traced.

    The order of the pair alternates.  Passes repeat while another one fits in
    ``seconds``; there is always at least one.  Every pass runs the same
    instances, so its counts must repeat exactly.
    """
    records: list[dict[str, Any]] = []
    t0 = time.perf_counter()
    passes = 0
    while True:
        tp = time.perf_counter()
        for j in range(wl.trace_ops):
            for traced in ((False, True) if (j + passes) % 2 == 0 else (True, False)):
                op_id = len(records)
                dt, out = run_op(wl, j, tracer if traced else None, op_id)
                records.append({"op": op_id, "pass": passes, "traced": traced,
                                "latency": dt, "outcome": out})
        passes += 1
        now = time.perf_counter()
        if smoke or (now - t0) + (now - tp) > seconds:
            return records


def count_mismatches(tracer: Any, records: list[dict[str, Any]]) -> list[str]:
    """Counts that differ between the first traced pass and any later one."""
    from metrics import span_counts

    by_pass: dict[int, list[int]] = {}
    for r in records:
        if r["traced"]:
            by_pass.setdefault(r["pass"], []).append(r["op"])
    first, *rest = [span_counts(tracer, ops) for _, ops in sorted(by_pass.items())]
    bad = set()
    for other in rest:
        bad.update(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return sorted(bad)


def measure_untraced(wl: Any, args: argparse.Namespace,
                     setup_s: float) -> tuple[dict[str, Any], list[Any], dict[str, Any]]:
    """End-to-end metrics of the closed loop: (values, outcomes, notes)."""
    import metrics

    lat, outcomes, window = closed_loop(wl, args.seconds, args.smoke)
    ok_lat = [dt for dt, out in zip(lat, outcomes) if out.ok] or lat
    tail_value, tail_pct, beyond = metrics.tail(ok_lat)
    values = {
        "ops_per_s": sum(out.ok for out in outcomes) / window,
        "latency_p50_s": statistics.median(ok_lat),
        "latency_tail_s": tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"window_s": window, "samples": len(ok_lat), "tail_percentile": tail_pct,
             "tail_samples_beyond": beyond, "latencies": lat}
    return values, outcomes, notes


def measure_traced(wl: Any, args: argparse.Namespace, gen_s: float,
                   workdir: Path) -> tuple[dict[str, Any], list[Any], dict[str, Any]]:
    """Per-layer metrics of the traced passes: (values, outcomes, notes)."""
    import metrics
    from tracer import Tracer

    tracer = Tracer()
    records = traced_loop(wl, args.seconds, args.smoke, tracer)
    traced = [r for r in records if r["traced"]]
    values = metrics.layer_metrics(tracer, [r["op"] for r in traced])
    values["cli.bytes_written"] = sum(r["outcome"].bytes_written for r in traced) / len(traced)
    values["instances.setup_s"] = gen_s
    lat_on = statistics.median(r["latency"] for r in traced)
    lat_off = statistics.median(r["latency"] for r in records if not r["traced"])
    values["trace.overhead_s"] = lat_on - lat_off
    values["trace.overhead_share"] = (lat_on - lat_off) / lat_off
    mismatched = count_mismatches(tracer, records)
    values["trace.count_mismatches"] = float(len(mismatched))
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.save(str(workdir / f"spans-s{args.seed}.npz"))
    notes = {"passes": records[-1]["pass"] + 1, "traced_ops": len(traced),
             "count_mismatches": mismatched, "missing_names": tracer.missing}
    return values, [r["outcome"] for r in records], notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectraproj" / "__init__.py").is_file():
        print(f"error: no spectraproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spectraproj

    if Path(spectraproj.__file__).resolve().parent != (SRC / "spectraproj").resolve():
        print(f"error: imported spectraproj from {spectraproj.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import metrics

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    workdir = RUN_DIR / wl.name
    setup_round_s, gen_s, warm = set_up(wl, args.seed, workdir, 1 if args.smoke else SETUP_ROUNDS)
    setup_s = import_s + setup_round_s

    if args.trace:
        values, outcomes, notes = measure_traced(wl, args, gen_s, workdir)
        units = metrics.PER_LAYER
    else:
        values, outcomes, notes = measure_untraced(wl, args, setup_s)
        units = metrics.END_TO_END

    failed = sum(not out.ok for out in outcomes)
    with_oracle = [out for out in outcomes if out.oracle_miss is not None]
    misses = sum(bool(out.oracle_miss) for out in with_oracle)
    error_rate = failed / len(outcomes)
    miss_rate = misses / len(outcomes)
    if args.trace:
        values["checks.error_rate"] = error_rate
        values["oracle.miss_rate"] = miss_rate
    reasons = sorted({out.reason for out in outcomes + warm if not out.ok})
    correct = failed == 0 and all(out.ok for out in warm)
    env = environment()

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<45} {shown} {units[name]}")
    if not args.trace:
        print(f"  {'latency_tail_s is':<45} p{notes['tail_percentile']:.1f} of "
              f"{notes['samples']} samples, {notes['tail_samples_beyond']} beyond it")
    print(f"  {'error_rate':<45} {error_rate:.6g} ({failed} of {len(outcomes)} operations)")
    if with_oracle:
        print(f"  {'oracle_miss_rate':<45} {miss_rate:.6g} "
              f"({misses} of {len(outcomes)} disagree with the planted truth)")
    else:
        print(f"  {'oracle_miss_rate':<45} 0 (no planted optimum; hard checks only)")
    print(f"  {'set-up':<45} {setup_s:.6g} s = import {import_s:.3g} s + median round "
          f"{setup_round_s:.3g} s (generators {gen_s:.3g} s)")
    for reason in reasons:
        print(f"  failure: {reason}")
    if notes.get("count_mismatches"):
        print(f"  counts that differ between passes: {notes['count_mismatches']}")
    if notes.get("missing_names"):
        print(f"  names no longer in the code: {notes['missing_names']}")
    print(f"  env {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"result-s{args.seed}-t{args.trace}.json").write_text(json.dumps({
        **result, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "env": env, "error_rate": error_rate,
        "oracle_miss_rate": miss_rate, "failures": reasons,
        "setup": {"import_s": import_s, "round_s": setup_round_s, "generators_s": gen_s},
        "notes": notes,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
