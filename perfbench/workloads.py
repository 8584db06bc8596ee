"""The benchmark's workloads: how each builds its instance pool, runs one
operation, and checks the operation's output.

Instance ``i`` of a run with workload seed ``s`` is generated with seed
``1000 * s + i``.  A run cycles through its pool, so instances repeat once
the pool is exhausted; every operation still gets a freshly built instance
(new arrays loaded from the pool file, or the instance file read again by the
CLI), so nothing cached on an instance object carries over.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from spectraproj import cli, instances, model, ssnewton
from spectraproj.model import BapInstance, LinearMap

# hard-check tolerances on kkt_residuals of a Solved run; Solved itself means
# relres <= 1e-13, and the other residuals are roundoff (measured <= 6e-14)
KKT_TOL = {"pf": 1e-12, "df_lin": 1e-12, "df_cone_X": 1e-10, "df_cone_Z": 1e-10, "cs": 1e-12}
DIAG_TOL = 1e-11        # max |diag X - 1| on the elliptope (measured <= 4e-13)
# pipeline report's pf of the lifted X: rows dropped as dependent are only
# verified consistent to 1e-9 (preprocess_surjective), so the lifted point
# meets them to about that level (measured up to 3e-10)
LIFTED_PF_TOL = 1e-8
CERT_TOL = 1e-9         # fr report's per-round certificate residual (search tolerance)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    oracle_miss: bool | None = None  # None: this workload has no oracle
    bytes_written: int = 0


class Workload:
    name = ""
    pool_size = 1   # distinct instances per run
    trace_ops = 1   # instances per traced pass (the first ones of the pool)

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        if smoke:
            self.pool_size = self.trace_ops = 1
        self.pool: list[Path] = []
        self.expected: list[dict[str, int]] = []

    def generate(self, seed: int) -> BapInstance:
        raise NotImplementedError

    def write(self, inst: BapInstance, stem: Path) -> Path:
        raise NotImplementedError

    def build_pool(self, seed: int, workdir: Path) -> float:
        """Generate and write the pool; returns the seconds spent in the generators."""
        pool_dir = workdir / "pool"
        pool_dir.mkdir(parents=True, exist_ok=True)
        self.pool, self.expected = [], []
        gen_s = 0.0
        for i in range(self.pool_size):
            t = time.perf_counter()
            inst = self.generate(1000 * seed + i)
            gen_s += time.perf_counter() - t
            self.pool.append(self.write(inst, pool_dir / f"inst_{i}"))
            self.expected.append(self.oracle_values(inst))
        self.out_dir = workdir / "out"
        return gen_s

    def oracle_values(self, inst: BapInstance) -> dict[str, int]:
        return {}

    def prepare(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, i: int, inp: Any, result: Any) -> Outcome:
        raise NotImplementedError


class SolveWorkload(Workload):
    """``newton_solve`` from y = 0 on a freshly loaded instance."""

    def write(self, inst: BapInstance, stem: Path) -> Path:
        path = stem.with_suffix(".npz")
        np.savez(path, rows=inst.map.rows, b=inst.b, W=inst.W,
                 seed=int(inst.meta.get("seed", 0)))
        return path

    def prepare(self, i: int) -> BapInstance:
        with np.load(self.pool[i]) as z:
            W = z["W"]
            return BapInstance(map=LinearMap(n=W.shape[0], rows=z["rows"]), b=z["b"],
                               W=W, meta={"seed": int(z["seed"])})

    def run(self, inst: BapInstance) -> Any:
        # looked up at call time so a traced run goes through the wrapper
        return ssnewton.newton_solve(inst)

    def check(self, i: int, inst: BapInstance, trace: Any) -> Outcome:
        if trace.status is not ssnewton.NewtonStatus.SOLVED:
            return Outcome(False, f"status {trace.status.value}")
        res = model.kkt_residuals(inst, trace.triple)
        bad = [f"{k}={res[k]:.2e}" for k, tol in KKT_TOL.items() if not res[k] <= tol]
        if bad:
            return Outcome(False, "kkt " + " ".join(bad))
        return self.check_extra(inst, trace)

    def check_extra(self, inst: BapInstance, trace: Any) -> Outcome:
        return Outcome(True)


class SlaterSolve(SolveWorkload):
    name = "slater_solve"
    pool_size = 4
    trace_ops = 4

    def generate(self, seed: int) -> BapInstance:
        n, m = (10, 20) if self.smoke else (100, 200)
        return instances.gen_random_slater(n, m, seed=seed)


class NcmSolve(SolveWorkload):
    name = "ncm_solve"
    pool_size = 8
    trace_ops = 6

    def generate(self, seed: int) -> BapInstance:
        return instances.gen_elliptope(10 if self.smoke else 100, seed=seed, w_mode="random")

    def check_extra(self, inst: BapInstance, trace: Any) -> Outcome:
        # X psd is df_cone_X, already checked
        dev = float(np.abs(np.diag(trace.triple.X) - 1.0).max())
        if not dev <= DIAG_TOL:
            return Outcome(False, f"max|diag X - 1| = {dev:.2e}")
        return Outcome(True)


class CliWorkload(Workload):
    """``spectraproj.cli.main`` on an instance file, into an emptied ``--out``."""

    command = ""

    def write(self, inst: BapInstance, stem: Path) -> Path:
        # json writes each double as its shortest round-trip repr, so the CLI
        # reads back exactly the generated instance; model.save_instance's
        # 17-digit writer is pure Python and takes 3x longer
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(model.instance_to_dict(inst), default=lambda a: a.tolist()))
        return path

    def oracle_values(self, inst: BapInstance) -> dict[str, int]:
        return {"n": inst.n, "sd": inst.meta["sd"], "iips": inst.meta["iips"],
                "order": inst.n - inst.meta["planted"]["face_codim"]}

    def prepare(self, i: int) -> list[str]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return [self.command, "--instance", str(self.pool[i]), "--out", str(self.out_dir)]

    def run(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def check(self, i: int, argv: list[str], rc: int) -> Outcome:
        written = sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
        if rc != 0:
            return Outcome(False, f"exit code {rc}", bytes_written=written)
        outcome = self.check_report(self.expected[i])
        outcome.bytes_written = written
        return outcome

    def check_report(self, expected: dict[str, int]) -> Outcome:
        raise NotImplementedError


class NoslaterRepair(CliWorkload):
    name = "noslater_repair"
    command = "pipeline"
    pool_size = 32
    trace_ops = 4

    def generate(self, seed: int) -> BapInstance:
        n, m = (10, 14) if self.smoke else (30, 40)
        return instances.gen_planted_noslater(n, m, sd_target=2, iips_target=3,
                                              support_size=5, seed=seed)

    def check_report(self, expected: dict[str, int]) -> Outcome:
        report = json.loads((self.out_dir / "report.json").read_text())
        if report["status"] != "Solved":
            return Outcome(False, f"status {report['status']}")
        if not report["pf"] <= LIFTED_PF_TOL:
            return Outcome(False, f"pf {report['pf']:.2e}")
        # planted truth: every feasible point lives on a face of order n - face_codim
        final_order = report["rounds"][-1]["n"]
        return Outcome(True, oracle_miss=final_order != expected["order"])


class FrSearch(CliWorkload):
    name = "fr_search"
    command = "fr"
    pool_size = 20
    trace_ops = 4

    def generate(self, seed: int) -> BapInstance:
        n = 10 if self.smoke else 15
        return instances.gen_planted_noslater(n, 7, sd_target=1, iips_target=1,
                                              support_size=5, seed=seed)

    def check_report(self, expected: dict[str, int]) -> Outcome:
        report = json.loads((self.out_dir / "fr_report.json").read_text())
        reduced = model.load_instance(str(self.out_dir / "reduced_instance.json"))
        steps = report["steps"]
        if len(steps) != report["sd_hat"]:
            return Outcome(False, f"{len(steps)} steps but sd_hat {report['sd_hat']}")
        if any(not s["residual"] <= CERT_TOL for s in steps):
            return Outcome(False, "certificate residual above the search tolerance")
        if (reduced.n, reduced.m) != (report["final_n"], report["final_m"]):
            return Outcome(False, "reduced instance does not match final_n/final_m")
        got = (report["sd_hat"], report["iips_hat"], report["final_n"])
        want = (expected["sd"], expected["iips"], expected["order"])
        return Outcome(True, oracle_miss=got != want)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SlaterSolve, NcmSolve, NoslaterRepair, FrSearch)
}
