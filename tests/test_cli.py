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


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("solve", "A", float("nan")),
        ("pipeline", "b", float("nan")),
        ("diagnose", "W", float("-inf")),
        ("fr", "W", float("inf")),
    ],
    ids=["solve", "pipeline", "diagnose", "fr"],
)
def test_non_finite_instance_file_is_a_usage_error(tmp_path, capsys, command, key, value):
    payload = _instance_payload()
    entries = payload[key][0] if key == "A" else payload[key]
    entries[-1] = value
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    err = _usage_error(capsys, command, "--instance", str(src), "--out", str(tmp_path / "o"))
    assert f"cannot load --instance {src}: ValueError: {key} has a non-finite entry" in err
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
        (json.dumps({"X": np.diag([1.0] * 5 + [np.nan]).tolist()}), "X has a non-finite entry"),
    ],
    ids=["json", "key", "order", "nan"],
)
def test_malformed_point_file_is_a_usage_error(tmp_path, capsys, text, reason):
    xfile = tmp_path / "x.json"
    xfile.write_text(text)
    err = _usage_error(
        capsys, "diagnose", "--gen", "Elliptope", "--n", "6", "--x-json", str(xfile),
        "--out", str(tmp_path / "o"),
    )
    assert reason in err


@pytest.mark.parametrize("X", [[[1.0, 5.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]]],
                         ids=["upper", "lower"])
def test_non_symmetric_point_file_is_a_usage_error(tmp_path, capsys, X):
    # eigvalsh reads one triangle of X: without the check the first point was
    # reported with min eig 1.0 against a reason of -1.5, and the second got
    # verdict=Nondegenerate
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps({"X": X}))
    out = tmp_path / "o"
    err = _usage_error(
        capsys, "diagnose", "--gen", "Elliptope", "--n", "2", "--x-json", str(xfile),
        "--out", str(out),
    )
    assert err.count("\n") == 1 and "X is not symmetric" in err
    assert not out.exists()


def test_point_file_symmetric_to_rounding_is_accepted(tmp_path, capsys):
    X = np.eye(2)
    X[0, 1] = 1e-17
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps({"X": X.tolist()}))
    assert _run(
        "diagnose", "--gen", "Elliptope", "--n", "2", "--x-json", str(xfile),
        "--out", str(tmp_path / "o"),
    ) == EXIT_OK
    assert "verdict=Nondegenerate" in capsys.readouterr().out


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an empty spectrahedron exits 0: no certificate search looks for "
    "infeasibility that only the cone causes (ROADMAP item 11)",
)
@pytest.mark.parametrize("command", ["fr", "pipeline"])
def test_empty_spectrahedron_exits_infeasible(tmp_path, command):
    # {X psd : X_11 = -1} is empty, though its linear manifold is not; y = -1
    # proves it: A*(y) = -E_11 is negative semidefinite and <b, y> = 1 > 0.
    # Today fr prints sd_hat=0 final_n=2 and pipeline status=IterLimit
    # pf=5.000e-01, and both exit 0
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    inst = BapInstance(map=LinearMap.from_matrices([E11]), b=np.array([-1.0]), W=np.eye(2))
    src = tmp_path / "empty.json"
    save_instance(inst, str(src))
    code = _run(command, "--instance", str(src), "--out", str(tmp_path / "o"))
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


def test_pipeline_report_floats_read_back_as_floats(tmp_path, capsys):
    out = tmp_path / "pipe"
    assert _run(
        "pipeline", "--gen", "PlantedNoSlater", "--n", "15", "--m", "7",
        "--sd", "1", "--iips", "1", "--support", "5", "--out", str(out),
    ) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert type(rep["config"]["options"]["cond_budget"]) is float
    assert all(type(r["relres"]) is float for r in rep["rounds"])


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
        (("--gen", "PlantedNoSlater", "--n", "3", "--m", "7"), "m must be at most 6"),
        (("--gen", "Elliptope", "--seed", "-1"), "--seed must be at least 0"),
        (("--gen", "Elliptope", "--m", "9", "--sd", "3"),
         "m applies only to RandomSlater and PlantedNoSlater, not Elliptope"),
        (("--gen", "RandomSlater", "--iips", "2", "--support", "3"),
         "iips, support applies only to PlantedNoSlater, not RandomSlater"),
        (("--gen", "DualUnattained", "--n", "3", "--w-mode", "feasible"),
         "w_mode applies only to Elliptope, VontopePre, VontopePost, RandomSlater and "
         "PlantedNoSlater, not DualUnattained"),
        (("--gen", "Sd2Chain", "--w-mode", "rank1"), "w_mode applies only to"),
        (("--gen", "DualGapFace", "--w-mode", "feasible"), "not DualGapFace"),
    ],
    ids=[
        "rank1", "vontope-n", "sd", "support", "unattained-n", "slater-m", "planted-m", "seed",
        "ignored-m", "ignored-extras", "ignored-w-mode-unattained", "ignored-w-mode-sd2",
        "ignored-w-mode-gap",
    ],
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
    assert set(rep["config"]) == {"command", "version", "seed", "options"}
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


# flags with valid values, each taken and never read before it was rejected
_SOURCE = [("--instance", "problem.json"), ("--gen", "Elliptope"), ("--n", "5"), ("--m", "3"),
           ("--sd", "1"), ("--iips", "1"), ("--support", "3"), ("--w-mode", "rank1")]
_NEWTON = [("--eps", "0.1"), ("--cond-budget", "8"), ("--max-iter", "5")]
_UNREAD = (
    [(("fr", "--gen", "Sd2Chain"), flag) for flag in _NEWTON]
    + [(("gen", "--gen", "Elliptope", "--n", "4"), flag) for flag in _NEWTON + [("--emit", "report")]]
    + [(("experiment", "noslater_table", "--seeds", "1"), flag) for flag in _SOURCE]
    + [(("experiment", "singularity_demo"), ("--seeds", "3")),
       (("experiment", "singularity_demo"), ("--workers", "2")),
       # --x-json used to win silently over --at-planted
       (("diagnose", "--gen", "Elliptope", "--n", "3", "--x-json", "x.json"), ("--at-planted",))]
)


@pytest.mark.parametrize("argv, flag", _UNREAD, ids=[argv[0] + flag[0] for argv, flag in _UNREAD])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, flag
):
    monkeypatch.chdir(tmp_path)
    Path("x.json").write_text(json.dumps({"X": np.eye(3).tolist()}))
    with pytest.raises(SystemExit) as exc:
        _run(*argv, *flag, "--out", "o")
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not Path("o").exists()


@pytest.mark.parametrize(
    "argv, report, solved",
    [
        (("solve", "--gen", "Elliptope", "--n", "4"), "report.json", True),
        (("pipeline", "--gen", "Sd2Chain"), "report.json", True),
        (("diagnose", "--gen", "Elliptope", "--n", "4"), "diagnose.json", True),
        (("fr", "--gen", "Sd2Chain"), "fr_report.json", False),
        (("diagnose", "--gen", "VontopePost", "--n", "3", "--w-mode", "rank1", "--at-planted"),
         "diagnose.json", False),
    ],
    ids=["solve", "pipeline", "diagnose-solve", "fr", "diagnose-at-planted"],
)
def test_config_echoes_newton_options_only_where_a_solve_ran(tmp_path, argv, report, solved):
    out = tmp_path / "o"
    assert _run(*argv, "--out", str(out)) == EXIT_OK
    config = json.loads((out / report).read_text())["config"]
    assert ("options" in config) is solved
    assert config["generator"]["family"] == argv[2]
