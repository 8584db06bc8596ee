import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectraproj

from spectraproj.cli import (
    EXIT_FACE_ZERO,
    EXIT_FAILURE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    _aggregate,
    main,
)
from spectraproj.degeneracy import FEAS_TOL
from spectraproj.instances import (
    GeneratorSpec,
    fixture_dual_gap_face,
    fixture_sd2_chain,
    generate,
)
from spectraproj.model import (
    BapInstance,
    LinearMap,
    dumps_json,
    instance_to_dict,
    load_instance,
    save_instance,
)
from spectraproj.symcore import svec


def _run(*argv):
    return main(list(argv))


def _usage_error(capsys, *argv):
    # a usage error exits 2 with argparse's message prefix on stderr
    with pytest.raises(SystemExit) as exc:
        _run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("spectraproj: error: ")
    return err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_solve_emits_trace_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(
        "solve", "--gen", "RandomSlater", "--n", "8", "--seed", "3",
        "--out", str(out),
    ) == EXIT_OK
    assert capsys.readouterr().out.startswith("status=Solved")
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Solved"
    assert report["config"]["seed"] == 3
    assert report["config"]["version"]
    assert report["config"]["options"]["eps_final"] == 1e-13
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("iter,relres,cond,eigJ_1")


def test_solve_artifacts_are_bitwise_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        _run("solve", "--gen", "RandomSlater", "--n", "8", "--seed", "5",
             "--out", str(out))
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_emit_filter(tmp_path):
    out = tmp_path / "run"
    _run("solve", "--gen", "Elliptope", "--n", "5", "--emit", "report",
         "--out", str(out))
    assert (out / "report.json").exists()
    assert not (out / "trace.csv").exists()


def test_solve_requires_a_source(capsys):
    assert "--gen FAMILY is required" in _usage_error(capsys, "solve", "--out", "/tmp/nowhere")


def _instance_payload():
    return json.loads(
        dumps_json(instance_to_dict(generate(GeneratorSpec(family="Elliptope", n=4))))
    )


def _corrupt_w(payload):
    payload["W"] = payload["W"][:-1]
    return json.dumps(payload)


def _corrupt_m(payload):
    payload["m"] += 1
    return json.dumps(payload)


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (_corrupt_w, "ValueError: 9 is not n*(n+1)/2"),
        (_corrupt_m, "ValueError: declared m does not match"),
        (lambda payload: json.dumps(payload)[:-1], "JSONDecodeError"),
    ],
    ids=["W-length", "m", "json"],
)
def test_malformed_instance_file_is_a_usage_error(tmp_path, capsys, corrupt, reason):
    src = tmp_path / "bad.json"
    src.write_text(corrupt(_instance_payload()))
    err = _usage_error(capsys, "solve", "--instance", str(src), "--out", str(tmp_path / "o"))
    assert f"cannot load --instance {src}: {reason}" in err
    assert not (tmp_path / "o").exists()


def test_missing_instance_file_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "absent.json"
    err = _usage_error(capsys, "fr", "--instance", str(src), "--out", str(tmp_path / "o"))
    assert f"cannot load --instance {src}: FileNotFoundError" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{", "JSONDecodeError"),
        (json.dumps({"Y": np.eye(6).tolist()}), "KeyError: 'X'"),
        (json.dumps({"X": np.eye(5).tolist()}), "shape (5, 5), the instance has order 6"),
    ],
    ids=["json", "key", "order"],
)
def test_malformed_point_file_is_a_usage_error(tmp_path, capsys, text, reason):
    xfile = tmp_path / "x.json"
    xfile.write_text(text)
    err = _usage_error(
        capsys, "diagnose", "--gen", "Elliptope", "--n", "6", "--x-json", str(xfile),
        "--out", str(tmp_path / "o"),
    )
    assert reason in err


def test_usage_error_is_the_process_exit_status(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(spectraproj.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spectraproj.cli", "solve", "--gen", "Elliptope",
         "--n", "0", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "spectraproj: error: --n must be at least 1\n"


def test_gen_writes_loadable_instance(tmp_path, capsys):
    out = tmp_path / "gen"
    assert _run(
        "gen", "--gen", "PlantedNoSlater", "--n", "10", "--m", "7",
        "--sd", "1", "--iips", "1", "--support", "5", "--seed", "2",
        "--out", str(out),
    ) == EXIT_OK
    inst = load_instance(str(out / "instance.json"))
    assert inst.n == 10 and inst.m == 7
    assert inst.meta["sd"] == 1


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTRA_SEED", "7")
    out = tmp_path / "gen"
    _run("gen", "--gen", "RandomSlater", "--n", "6", "--out", str(out))
    inst = load_instance(str(out / "instance.json"))
    assert inst.meta["seed"] == 7


def test_fr_reports_chain(tmp_path, capsys):
    src = tmp_path / "sd2.json"
    save_instance(fixture_sd2_chain(), str(src))
    out = tmp_path / "fr"
    assert _run("fr", "--instance", str(src), "--out", str(out)) == EXIT_OK
    assert "sd_hat=2" in capsys.readouterr().out
    rep = json.loads((out / "fr_report.json").read_text())
    assert rep["sd_hat"] == 2 and rep["final_n"] == 1
    reduced = load_instance(str(out / "reduced_instance.json"))
    assert reduced.n == 1 and reduced.m == 1


def test_pipeline_two_round_fixture(tmp_path):
    src = tmp_path / "sd2.json"
    save_instance(fixture_sd2_chain(), str(src))
    out = tmp_path / "pipe"
    assert _run("pipeline", "--instance", str(src), "--out", str(out)) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["fr_rounds"] == 2
    assert rep["status"] == "Solved"
    assert rep["p_star"] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(rep["X_star"], [1, 0, 0, 0, 0, 0], atol=1e-10)
    assert (out / "round_0_trace.csv").exists()
    assert (out / "round_2_trace.csv").exists()
    assert "degeneracy" in rep


def test_pipeline_recovers_gap_instance_optimum(tmp_path):
    src = tmp_path / "gap.json"
    save_instance(fixture_dual_gap_face(), str(src))
    out = tmp_path / "pipe"
    assert _run(
        "pipeline", "--instance", str(src), "--max-iter", "300", "--out", str(out)
    ) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["rounds"][0]["status"] == "IterLimit"
    assert rep["status"] == "Solved"
    assert np.linalg.norm(rep["X_star"]) <= 1e-10
    assert rep["p_star"] == pytest.approx(1.0, abs=1e-10)


def test_face_collapse_exit_code(tmp_path, capsys):
    inst = BapInstance(
        map=LinearMap.from_matrices([np.eye(3)]), b=np.zeros(1), W=np.eye(3)
    )
    src = tmp_path / "pd.json"
    save_instance(inst, str(src))
    code = _run("fr", "--instance", str(src), "--out", str(tmp_path / "o"))
    assert code == EXIT_FACE_ZERO
    assert "face" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path, capsys):
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    inst = BapInstance(
        map=LinearMap(n=3, rows=np.array([svec(E11), svec(E11)])),
        b=np.array([0.0, 1.0]),
        W=np.eye(3),
    )
    src = tmp_path / "bad.json"
    save_instance(inst, str(src))
    code = _run("fr", "--instance", str(src), "--out", str(tmp_path / "o"))
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err
    # solve preprocesses instance files too, so it rejects the same system
    code = _run("solve", "--instance", str(src), "--out", str(tmp_path / "o2"))
    assert code == EXIT_INFEASIBLE


def test_solve_drops_consistent_duplicate_rows(tmp_path, capsys):
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    inst = BapInstance(
        map=LinearMap(n=3, rows=np.array([svec(E11), svec(E11), svec(np.eye(3))])),
        b=np.array([0.5, 0.5, 2.0]),
        W=np.eye(3),
    )
    src = tmp_path / "dup.json"
    save_instance(inst, str(src))
    out = tmp_path / "o"
    assert _run("solve", "--instance", str(src), "--out", str(out)) == EXIT_OK
    assert "status=Solved" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["relres"] <= 1e-13


def test_pipeline_skips_rank_test_off_its_feasibility_tolerance(tmp_path, capsys):
    # a loose stop leaves the lifted point between the old 1e-6 gate and the
    # rank test's own tolerance, where the rank test used to raise
    out = tmp_path / "pipe"
    assert _run(
        "pipeline", "--gen", "PlantedNoSlater", "--n", "15", "--m", "7",
        "--sd", "1", "--iips", "1", "--support", "5", "--eps", "1e-7",
        "--out", str(out),
    ) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert FEAS_TOL < rep["pf"] <= 1e-6
    assert rep["degeneracy"] is None
    assert rep["infeasible"]["pf"] == rep["pf"]


def test_diagnose_solve_path(tmp_path, capsys):
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "Elliptope", "--n", "6", "--seed", "1",
        "--out", str(out),
    ) == EXIT_OK
    assert "verdict=Nondegenerate" in capsys.readouterr().out
    rep = json.loads((out / "diagnose.json").read_text())
    assert rep["crosscheck"]["agree"] is True
    assert len(rep["jacobian_spectrum"]) == 6


def test_diagnose_gives_no_verdict_at_a_stall_off_the_rank_tests_tolerance(tmp_path, capsys):
    # the set has no interior, so every feasible point is degenerate; the
    # stalled iterate (pf about 5e-7) used to be rank-tested "Nondegenerate"
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "PlantedNoSlater", "--n", "15", "--m", "7",
        "--sd", "1", "--iips", "1", "--support", "5", "--out", str(out),
    ) == EXIT_OK
    assert "verdict=Nondegenerate" not in capsys.readouterr().out
    rep = json.loads((out / "diagnose.json").read_text())
    assert rep["solve"]["kkt"]["pf"] > FEAS_TOL
    assert rep["crosscheck"]["inconclusive"] is True
    assert "rank test skipped" in rep["crosscheck"]["reason"]


def test_diagnose_skipped_rank_test_gives_no_verdict(tmp_path, capsys):
    # the reduced lifted-permutation model stalls at pf about 5e-4, so no rank
    # test runs and no verdict may be printed or written
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "VontopePost", "--n", "3", "--w-mode", "rank1",
        "--out", str(out),
    ) == EXIT_OK
    assert "verdict=None" in capsys.readouterr().out
    cc = json.loads((out / "diagnose.json").read_text())["crosscheck"]
    assert cc["verdict"] is None and cc["rank_L"] is None and cc["agree"] is None
    assert cc["inconclusive"] is True
    assert "rank test skipped" in cc["reason"]


def test_diagnose_at_planted_vertex(tmp_path, capsys):
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "VontopePost", "--n", "3", "--w-mode", "rank1",
        "--at-planted", "--out", str(out),
    ) == EXIT_OK
    assert "verdict=Degenerate" in capsys.readouterr().out


def test_diagnose_explicit_point(tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps({"X": np.eye(6).tolist()}))
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "Elliptope", "--n", "6", "--x-json", str(xfile),
        "--out", str(out),
    ) == EXIT_OK
    rep = json.loads((out / "diagnose.json").read_text())
    assert rep["degeneracy"]["verdict"] == "Nondegenerate"


def test_diagnose_infeasible_point_gets_no_verdict(tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps({"X": (2.0 * np.eye(6)).tolist()}))
    out = tmp_path / "diag"
    assert _run(
        "diagnose", "--gen", "Elliptope", "--n", "6", "--x-json", str(xfile),
        "--out", str(out),
    ) == EXIT_OK
    assert "verdict=None" in capsys.readouterr().out
    rep = json.loads((out / "diagnose.json").read_text())
    assert rep["degeneracy"] is None
    assert rep["infeasible"]["pf_abs"] > 0


def test_diagnose_planted_requires_metadata(tmp_path, capsys):
    err = _usage_error(
        capsys, "diagnose", "--gen", "Elliptope", "--n", "5", "--at-planted",
        "--out", str(tmp_path / "o"),
    )
    assert "no planted point" in err


def test_experiment_rows_are_deterministic_up_to_time(tmp_path):
    outs = []
    for tag, workers in (("a", "1"), ("b", "3")):
        out = tmp_path / tag
        assert _run(
            "experiment", "noslater_table", "--seeds", "3",
            "--workers", workers, "--out", str(out),
        ) == EXIT_OK
        outs.append(out)
    a, b = outs
    assert (a / "noslater_table.json").read_bytes() == (b / "noslater_table.json").read_bytes()
    assert (a / "noslater_table_pct.csv").read_bytes() == (b / "noslater_table_pct.csv").read_bytes()

    def strip_time(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        t = rows[0].index("time")
        return [r[:t] + r[t + 1:] for r in rows]

    assert strip_time(a / "noslater_table.csv") == strip_time(b / "noslater_table.csv")
    # row labels keep their order
    labels = [r[0] for r in strip_time(a / "noslater_table.csv")[1:]]
    assert labels == ["noslater_n10", "noslater_n20"]


def test_experiment_report_has_no_wallclock(tmp_path):
    out = tmp_path / "exp"
    _run("experiment", "noslater_table", "--seeds", "2", "--out", str(out))
    payload = json.loads((out / "noslater_table.json").read_text())
    for cell in payload["cells"]:
        for row in cell["rows"]:
            assert "time" not in row
            assert {"status", "k", "relres", "cond", "pf", "df", "cs"} <= set(row)


def test_cell_cond_is_the_median_run():
    rows = [
        {"pf": 0.0, "df": 0.0, "cs": 0.0, "k": k, "time": 1.0, "cond": cond,
         "reach8": True, "reach13": False}
        for k, cond in enumerate([1e15, 2.56e299, 1e16])
    ]
    agg = _aggregate(rows)
    assert agg["cond"] == 1e16
    assert agg["k"] == 1.0 and agg["pct_1e-8"] == 100.0 and agg["pct_1e-13"] == 0.0


def test_experiment_needs_a_worker(tmp_path, capsys):
    err = _usage_error(
        capsys, "experiment", "noslater_table", "--workers", "0", "--out", str(tmp_path / "o")
    )
    assert "--workers must be at least 1" in err


def test_experiment_needs_a_seed(tmp_path, capsys):
    err = _usage_error(
        capsys, "experiment", "noslater_table", "--seeds", "0", "--out", str(tmp_path / "o")
    )
    assert "--seeds must be at least 1" in err


def test_negative_iteration_cap_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(
        capsys, "solve", "--gen", "RandomSlater", "--n", "5", "--max-iter", "-1",
        "--out", str(tmp_path / "o"),
    )
    assert "--max-iter must be at least 0" in err


def test_generated_order_must_be_positive(tmp_path, capsys):
    err = _usage_error(
        capsys, "solve", "--gen", "Elliptope", "--n", "0", "--out", str(tmp_path / "o")
    )
    assert "--n must be at least 1" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--gen", "RandomSlater", "--w-mode", "rank1"), "unknown w_mode 'rank1'"),
        (("--gen", "VontopePre", "--n", "2"), "needs n >= 3"),
        (("--gen", "PlantedNoSlater", "--sd", "0"), "sd_target must be at least 1"),
        (("--gen", "PlantedNoSlater", "--m", "7", "--support", "8"), "support_size must fit"),
        (("--gen", "DualUnattained", "--n", "1"), "need n >= 2"),
        (("--gen", "RandomSlater", "--n", "3", "--m", "7"), "m must lie in [1, 6]"),
        (("--gen", "Elliptope", "--seed", "-1"), "--seed must be at least 0"),
    ],
    ids=["rank1", "vontope-n", "sd", "support", "unattained-n", "slater-m", "seed"],
)
def test_generator_argument_error_is_a_usage_error(tmp_path, capsys, argv, reason):
    err = _usage_error(capsys, "gen", *argv, "--out", str(tmp_path / "o"))
    assert reason in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "value, reason",
    [
        ("abc", "argument --seed: invalid int value: 'abc'"),
        ("-1", "spectraproj: error: --seed must be at least 0"),
    ],
    ids=["not-int", "negative"],
)
def test_bad_env_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, value, reason):
    monkeypatch.setenv("SPECTRA_SEED", value)
    with pytest.raises(SystemExit) as exc:
        _run("gen", "--gen", "Elliptope", "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_singularity_walk_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert _run("experiment", "singularity_demo", "--out", str(out)) == EXIT_OK
    text = capsys.readouterr().out
    assert "before" in text and "after" in text
    rep = json.loads((out / "singularity_demo.json").read_text())
    assert rep["before"]["status"] == "SuspectedDegenerate"
    assert rep["after"]["status"] == "Solved"
    assert len(rep["rows_removed"]) == 1
    assert (out / "before_trace.csv").exists()
    assert (out / "after_trace.csv").exists()


def test_singularity_walk_without_a_stall_has_nothing_to_repair(tmp_path, capsys):
    # at a loose tolerance round 0 solves, so there is no stall to reduce
    out = tmp_path / "demo"
    code = _run("experiment", "singularity_demo", "--eps", "1e-5", "--out", str(out))
    assert code == EXIT_FAILURE
    assert "nothing to repair" in capsys.readouterr().err
    assert not out.exists()
