"""Tests of the benchmark itself: smoke runs of every workload and the span arithmetic.

    python3 -m pytest perfbench -q

Smoke runs use n=10 instances, one set-up round and one checked operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

WORKLOADS = ("slater_solve", "ncm_solve", "noslater_repair", "fr_search")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_its_operation_and_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "slater_solve", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert metrics.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert metrics.tail([float(i) for i in range(1, 12)]) == (1.0, 100.0 / 11, 10)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] with children [1, 3] and [4, 8]; [5, 6] is a grandchild
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_wrappers_replace_every_binding_and_are_removed_afterwards():
    from spectraproj import cli, facialred, ssnewton, symcore

    tracer = Tracer()
    originals = (ssnewton.newton_solve, facialred.eig_sym, np.linalg.eigh)
    with tracer.recording(0):
        assert cli.newton_solve is ssnewton.newton_solve
        assert ssnewton.newton_solve.__wrapped__ is originals[0]
        assert facialred.eig_sym is symcore.eig_sym is ssnewton.eig_sym
        symcore.eig_sym(np.eye(3))
    assert (ssnewton.newton_solve, facialred.eig_sym, np.linalg.eigh) == originals
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["symcore.eig_sym", "linalg.eigh"]
    assert list(tracer.parent) == [-1, 0]


def test_a_name_gone_from_the_code_is_reported_missing(monkeypatch):
    from spectraproj import symcore

    for module in ("spectraproj", "spectraproj.symcore", "spectraproj.ssnewton",
                   "spectraproj.facialred", "spectraproj.degeneracy"):
        monkeypatch.delattr(sys.modules[module], "eig_sym", raising=False)
    assert not hasattr(symcore, "eig_sym")
    tracer = Tracer()
    assert tracer.missing == ["symcore.eig_sym"]
    with tracer.recording(0):
        pass
    values = metrics.layer_metrics(tracer, [0])
    assert values["symcore.eig_sym.calls"] is None
    assert values["symcore.smat.calls"] == 0.0
