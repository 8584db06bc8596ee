#!/usr/bin/env python3
"""Run each workload's traced run twice and report every count that differs.

    python3 perfbench/check_counts.py [--seed 1] [--seconds 25] [workload ...]

Calls, iterations, status counts, rows removed and the other exact counts
must repeat exactly between two traced runs at one BLAS thread.  Exits 1 if
any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import EXACT_COUNTS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()
    differing = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        bad = [k for k in EXACT_COUNTS if first[k] != second[k]]
        differing += len(bad)
        print(f"{workload}: {len(EXACT_COUNTS) - len(bad)} of {len(EXACT_COUNTS)} counts repeat")
        for k in bad:
            print(f"  {k}: {first[k]!r} then {second[k]!r}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
