#!/usr/bin/env python3
"""Reproduce the ROADMAP per-iteration baseline from a traced slater_solve run.

    python3 perfbench/baseline.py [--seed 1] [--seconds 25]

Prints, per Newton iterate on RandomSlater n=100, m=200: assembly
(newton_solve self time), eig_sym, jacobian_spectrum and the Cholesky
factor/solve, and per solve LinearMap.matrices(), next to the figures ROADMAP
measured with scratch scripts.  ROADMAP asks to treat its figures as +-2x, so a
measurement agrees when it lies within a factor of two of the stated range.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# quantity -> (ROADMAP low, high, ms per ...)
ROADMAP_MS = {
    "assembly (newton_solve self)": (45.0, 69.0, "iterate"),
    "eig_sym": (3.0, 3.0, "iterate"),
    "jacobian_spectrum": (2.3, 2.3, "iterate"),
    "factor (cho_factor + cho_solve)": (0.4, 0.4, "iterate"),
    "LinearMap.matrices": (42.0, 42.0, "solve"),
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "slater_solve", "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    workdir = ROOT / ".perfbench_run" / "slater_solve"
    result = json.loads((workdir / f"result-s{args.seed}-t1.json").read_text())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    ops = result["notes"]["traced_ops"]
    with np.load(workdir / f"spans-s{args.seed}.npz") as z:
        names = list(z["names"])
        dur = z["end"] - z["start"]
        name = z["name"]

    def inclusive(span: str) -> float:
        """Seconds per operation inside ``span``, children included."""
        return float(dur[name == names.index(span)].sum()) / ops

    solves = m["ssnewton.newton_solve.calls"]
    iterates = m["ssnewton.iterations"]
    measured = {
        "assembly (newton_solve self)": m["ssnewton.newton_solve.self_s"] / iterates,
        "eig_sym": inclusive("symcore.eig_sym") / iterates,
        "jacobian_spectrum": inclusive("ssnewton.jacobian_spectrum") / iterates,
        "factor (cho_factor + cho_solve)": m["ssnewton.factor.self_s"] / iterates,
        "LinearMap.matrices": inclusive("model.LinearMap.matrices") / solves,
    }
    print(f"slater_solve seed={args.seed}: {ops} traced solves, "
          f"{iterates / solves:g} iterates per solve")
    print(f"{'quantity':<34}{'measured ms':>12}{'ROADMAP ms':>12}  per      agrees (within 2x)")
    for key, (lo, hi, per) in ROADMAP_MS.items():
        ms = 1000.0 * measured[key]
        stated = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        agrees = lo / 2 <= ms <= 2 * hi
        print(f"{key:<34}{ms:>12.3f}{stated:>12}  {per:<8} {'yes' if agrees else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
