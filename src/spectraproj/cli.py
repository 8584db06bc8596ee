"""Command-line front end: solve, reduce, diagnose, generate, benchmark.

Each subcommand, in each of its modes, takes only the flags it reads, and
``--emit`` only the artifacts it writes.  Every artifact echoes the settings
that shaped it: the command, seed and library version, the instance
source when the command reads one, and the Newton options only when a Newton
solve ran.  For a fixed configuration the JSON and trace-CSV artifacts are
byte-identical across runs; experiment tables additionally carry a wall-clock
column, which is the one documented exception to bitwise reproducibility.

Exit codes: 0 success, 1 solver or linear-algebra failure, 2 usage error,
3 facial reduction collapsed the face to {0}, 4 infeasible linear manifold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

import numpy as np

from . import __version__
from .degeneracy import FEAS_TOL, is_nondegenerate, jacobian_degeneracy_crosscheck
from .facialred import FaceCollapsedError, fr_loop, fr_report, solve_with_reduction
from .instances import (
    FAMILIES,
    FIXTURE_FAMILIES,
    NOSLATER_SUITE,
    GeneratorSpec,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    generate,
    noslater_suite_instance,
)
from .model import (
    BapInstance,
    InfeasibleManifoldError,
    dumps_json,
    finite_array,
    kkt_residuals,
    load_instance,
    preprocess_surjective,
    primal_objective,
    save_instance,
    scaled_primal_residual,
)
from .ssnewton import NewtonOptions, NewtonStatus, NewtonTrace, newton_solve, trace_to_csv
from .symcore import smat, svec

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_FACE_ZERO = 3
EXIT_INFEASIBLE = 4


def _usage_error(msg: str) -> NoReturn:
    """Report a usage error in argparse's format and exit with ``EXIT_USAGE``."""
    print(f"spectraproj: error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _read_file(flag: str, path: str, read: Callable[[str], Any]) -> Any:
    """``read(path)``, with a missing or malformed file reported as a usage error."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _usage_error(f"cannot load {flag} {path}: {type(exc).__name__}: {exc}")


#: largest |X - X'| entry a 2-d point may carry, relative to max(1, max |X|):
#: a few roundings, where a point the package writes is exactly symmetric
_SYMMETRY_TOL = 1e-12


def _read_point(path: str) -> np.ndarray:
    payload = finite_array("X", json.loads(Path(path).read_text())["X"])
    if payload.ndim != 2:
        return smat(payload)
    if payload.shape[0] == payload.shape[1]:
        # eigvalsh reads one triangle and the rank test the other, so a
        # non-symmetric X would get a verdict about neither matrix
        asym = float(np.abs(payload - payload.T).max(initial=0.0))
        if asym > _SYMMETRY_TOL * max(1.0, float(np.abs(payload).max(initial=0.0))):
            raise ValueError(f"X is not symmetric: max |X - X'| = {asym:.3e}")
    return payload


def _parse_emit(text: str) -> set[str]:
    parts = {p.strip() for p in text.split(",") if p.strip()}
    bad = parts - {"trace", "report", "table"}
    if bad:
        raise argparse.ArgumentTypeError(f"unknown emit flags: {sorted(bad)}")
    return parts


def _emitted(args: argparse.Namespace, *writes: str) -> set[str]:
    """The artifact kinds to write: the ``--emit`` subset of ``writes``, all by default."""
    emit = set(writes) if args.emit is None else args.emit
    if emit - set(writes):
        _usage_error(f"--emit {','.join(sorted(emit - set(writes)))}: "
                     f"{getattr(args, 'suite', args.command)} writes only {','.join(writes)}")
    return emit


def _given(args: argparse.Namespace, flags: Iterable[str]) -> dict[str, Any]:
    """The value of each of ``flags`` set on the command line; none has a parser default."""
    return {f: v for f in flags if (v := getattr(args, f[2:].replace("-", "_"))) is not None}


#: the flag that sets each Newton option
_OPTION_FLAGS = {"eps_final": "--eps", "cond_budget": "--cond-budget", "max_iter": "--max-iter"}
#: the source flags other than --instance, which reads all of them from its file
_GENERATOR_FLAGS = ("--gen", "--n", "--m", "--sd", "--iips", "--support", "--w-mode")


def _options_from_args(args: argparse.Namespace) -> NewtonOptions:
    """The Newton options: each given flag, and ``NewtonOptions``' default for the rest."""
    given = _given(args, _OPTION_FLAGS.values())
    opts = NewtonOptions(**{f: given[flag] for f, flag in _OPTION_FLAGS.items() if flag in given})
    try:
        opts.check()
    except ValueError as exc:
        # the message opens with the field's name; report the flag's instead
        field, _, rest = str(exc).partition(" ")
        _usage_error(f"{_OPTION_FLAGS[field]} {rest}")
    return opts


def _resolve_instance(args: argparse.Namespace) -> BapInstance:
    if args.instance is not None:
        if unread := _given(args, _GENERATOR_FLAGS):
            _usage_error(f"{', '.join(unread)}: --instance reads the instance from its file")
        inst = _read_file("--instance", args.instance, load_instance)
        # instance files are untrusted: drop dependent rows up front so the
        # solver sees a surjective map, and reject inconsistent systems here
        red_map, red_b, removed = preprocess_surjective(inst.map, inst.b)
        if removed:
            meta = dict(inst.meta)
            meta["rows_dropped"] = removed
            inst = BapInstance(map=red_map, b=red_b, W=inst.W, meta=meta)
        return inst
    if args.gen is None:
        _usage_error("either --instance PATH or --gen FAMILY is required")
    # filled here, not by the parser, so a given --n or --w-mode can be told
    # apart; a fixture has its own fixed order, so it takes no n at all
    if args.gen in FIXTURE_FAMILIES:
        if args.n is not None:
            _usage_error(f"--n does not apply to {args.gen}, a fixture of fixed order")
    else:
        args.n = 10 if args.n is None else args.n
        if args.n < 1:
            _usage_error("--n must be at least 1")
    args.w_mode = GeneratorSpec.w_mode if args.w_mode is None else args.w_mode
    extras = {
        key: val
        for key, val in (("sd", args.sd), ("iips", args.iips), ("support", args.support))
        if val is not None
    }
    spec = GeneratorSpec(
        family=args.gen,
        n=args.n,
        m=args.m,
        seed=args.seed,
        w_mode=args.w_mode,
        extras=extras,
    )
    try:
        return generate(spec)
    except ValueError as exc:
        _usage_error(str(exc))


def _config_echo(args: argparse.Namespace, opts: NewtonOptions | None) -> dict[str, Any]:
    """The settings that shaped an artifact: ``opts`` is None when no Newton solve ran."""
    cfg: dict[str, Any] = {"command": args.command, "version": __version__, "seed": args.seed}
    if opts is not None:
        cfg["options"] = dataclasses.asdict(opts)
    if getattr(args, "instance", None) is not None:
        cfg["instance"] = args.instance
    elif getattr(args, "gen", None) is not None:
        cfg["generator"] = {
            "family": args.gen, "n": args.n, "m": args.m,
            "w_mode": args.w_mode, "sd": args.sd, "iips": args.iips,
            "support": args.support,
        }
    return cfg


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    _write_text(path, dumps_json(payload) + "\n")


def _trace_row(trace: NewtonTrace) -> dict[str, Any]:
    """How one solve ended, as the leading fields of an experiment record."""
    return {"status": trace.status.value, "k": trace.k_final,
            "relres": trace.relres_final, "cond": trace.cond_final}


def _trace_summary(trace: NewtonTrace) -> dict[str, Any]:
    return {
        "status": trace.status.value,
        "iterations": trace.k_final,
        "relres": trace.relres_final,
        "cond": trace.cond_final,
    }


def _solve_summary(inst: BapInstance, trace: NewtonTrace) -> dict[str, Any]:
    return {
        **_trace_summary(trace),
        "kkt": kkt_residuals(inst, trace.triple),
        "p_star": primal_objective(inst, trace.triple.X),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    emit = _emitted(args, "trace", "report")
    inst = _resolve_instance(args)
    opts = _options_from_args(args)
    trace = newton_solve(inst, opts=opts)
    out = Path(args.out)
    if "trace" in emit:
        _write_text(out / "trace.csv", trace_to_csv(trace))
    if "report" in emit:
        report = {"config": _config_echo(args, opts), **_solve_summary(inst, trace)}
        _write_json(out / "report.json", report)
    print(
        f"status={trace.status.value} k={trace.k_final} "
        f"relres={trace.relres_final:.3e} cond={trace.cond_final:.3e}"
    )
    return EXIT_OK


def cmd_fr(args: argparse.Namespace) -> int:
    emit = _emitted(args, "report")
    inst = _resolve_instance(args)
    chain, final = fr_loop(inst)
    out = Path(args.out)
    report = {"config": _config_echo(args, opts=None), **fr_report(chain, final)}
    if "report" in emit:
        _write_json(out / "fr_report.json", report)
        save_instance(final, str(out / "reduced_instance.json"))
    print(
        f"sd_hat={chain.sd_hat} iips_hat={chain.iips_hat} "
        f"final_n={final.n} final_m={final.m}"
    )
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Render :func:`solve_with_reduction` against the original instance.

    Writes one trace per round and a report of the rounds, the lifted final
    iterate and, when that point is feasible enough, the rank test there.
    """
    emit = _emitted(args, "trace", "report")
    inst = _resolve_instance(args)
    opts = _options_from_args(args)
    res = solve_with_reduction(inst, opts)
    out = Path(args.out)
    rounds: list[dict[str, Any]] = []
    for rnd, r in enumerate(res.rounds):
        if "trace" in emit:
            _write_text(out / f"round_{rnd}_trace.csv", trace_to_csv(r.trace))
        entry = {"round": rnd, "n": r.inst.n, "m": r.inst.m, **_trace_summary(r.trace)}
        if r.trace.status != NewtonStatus.SOLVED:
            entry["certificate"] = None if r.step is None else r.step.lam
            if r.step is not None:
                entry["rows_removed"] = r.step.rows_removed
        rounds.append(entry)
    trace, X_lift = res.rounds[-1].trace, res.X
    pf = scaled_primal_residual(inst, X_lift)
    report: dict[str, Any] = {
        "config": _config_echo(args, opts),
        "rounds": rounds,
        "fr_rounds": len(rounds) - 1,
        "status": trace.status.value,
        "X_star": svec(X_lift),
        "pf": pf,
        "p_star": primal_objective(inst, X_lift),
        "reduced": _solve_summary(res.rounds[-1].inst, trace),
    }
    if pf <= FEAS_TOL:
        report["degeneracy"] = is_nondegenerate(inst, X_lift).to_dict()
    else:
        # the rank test refuses points this far off the constraints
        report["degeneracy"] = None
        report["infeasible"] = {
            "reason": f"lifted pf {pf:.3e} exceeds the rank test's tolerance {FEAS_TOL:g}",
            "pf": pf,
        }
    if "report" in emit:
        _write_json(out / "report.json", report)
    print(
        f"rounds={len(rounds)} status={trace.status.value} "
        f"p_star={report['p_star']:.12g} pf={pf:.3e}"
    )
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    emit = _emitted(args, "report")
    at_point = args.x_json is not None or args.at_planted
    if at_point and (unread := _given(args, _OPTION_FLAGS.values())):
        _usage_error(f"{', '.join(unread)}: --x-json and --at-planted run no Newton solve")
    inst = _resolve_instance(args)
    out = Path(args.out)
    X: np.ndarray | None = None
    if args.x_json is not None:
        X = _read_file("--x-json", args.x_json, _read_point)
        if X.shape != (inst.n, inst.n):
            _usage_error(f"--x-json point has shape {X.shape}, the instance has order {inst.n}")
    elif args.at_planted:
        planted = inst.meta.get("planted", {})
        for key in ("xhat", "x_star", "vertex"):
            if key in planted:
                X = smat(np.asarray(planted[key], dtype=float))
                break
        if X is None:
            _usage_error("instance metadata has no planted point")
    opts = None if at_point else _options_from_args(args)
    report: dict[str, Any] = {"config": _config_echo(args, opts)}
    if X is not None:
        try:
            report["degeneracy"] = is_nondegenerate(inst, X).to_dict()
        except ValueError as exc:
            # infeasible point: report the residuals, refuse a verdict
            pf = np.linalg.norm(inst.map.apply(X) - inst.b)
            report["degeneracy"] = None
            report["infeasible"] = {
                "reason": str(exc),
                "pf_abs": float(pf),
                "min_eig": float(np.linalg.eigvalsh(X).min()),
            }
    else:
        trace = newton_solve(inst, opts=opts)
        cc = jacobian_degeneracy_crosscheck(inst, trace)
        report["solve"] = _solve_summary(inst, trace)
        report["crosscheck"] = cc.to_dict()
        report["jacobian_spectrum"] = trace.iterates[-1].eig_J
    if "report" in emit:
        _write_json(out / "diagnose.json", report)
    verdict = None
    if report.get("degeneracy"):
        verdict = report["degeneracy"]["verdict"]
    elif "crosscheck" in report:
        verdict = report["crosscheck"]["verdict"]
    print(f"verdict={verdict}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    inst = _resolve_instance(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "instance.json"
    save_instance(inst, str(path))
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment suites
# ---------------------------------------------------------------------------


def _run_one(inst: BapInstance, opts: NewtonOptions) -> dict[str, Any]:
    t0 = time.perf_counter()
    trace = newton_solve(inst, opts=opts)
    # cond_final forms a solved run's last Newton matrix: the clock counts it
    row = _trace_row(trace)
    elapsed = time.perf_counter() - t0
    res = kkt_residuals(inst, trace.triple)
    history = trace.relres_history()
    return {
        **row,
        "pf": res["pf"],
        "df": res["df_lin"],
        "cs": res["cs"],
        "time": elapsed,
        "reach8": bool((history <= 1e-8).any()),
        "reach13": bool((history <= 1e-13).any()),
    }


def _aggregate(rows: list[dict[str, Any]]) -> dict[str, Any]:
    def mean(key: str) -> float:
        return float(np.mean([r[key] for r in rows]))

    return {
        "runs": len(rows),
        "pf": mean("pf"),
        "df": mean("df"),
        "cs": mean("cs"),
        "k": mean("k"),
        # medians: one 1e299 cond or one slow run must not stand for the cell
        "time": float(np.median([r["time"] for r in rows])),
        "cond": float(np.median([r["cond"] for r in rows])),
        "pct_1e-8": 100.0 * sum(r["reach8"] for r in rows) / len(rows),
        "pct_1e-13": 100.0 * sum(r["reach13"] for r in rows) / len(rows),
    }


def _table(cols: list[str], rows: list[list[str]]) -> tuple[str, str]:
    """Markdown and CSV renderings of one table of formatted cells."""
    md = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    md += ["| " + " | ".join(row) + " |" for row in rows]
    csv = [",".join(row) for row in [cols, *rows]]
    return "\n".join(md) + "\n", "\n".join(csv) + "\n"


def _cells_to_tables(cells: list[dict[str, Any]]) -> tuple[str, str, str, str]:
    """Markdown and CSV renderings of a suite: main table and percentages."""
    aggs = [(c["cell"], c["agg"]) for c in cells]
    md, csv = _table(
        ["cell", "runs", "pf", "df", "cs", "k", "time", "cond"],
        [
            [
                cell, str(agg["runs"]),
                f"{agg['pf']:.2e}", f"{agg['df']:.2e}", f"{agg['cs']:.2e}",
                f"{agg['k']:.1f}", f"{agg['time']:.4f}", f"{agg['cond']:.2e}",
            ]
            for cell, agg in aggs
        ],
    )
    pmd, pcsv = _table(
        ["cell", "pct_1e-8", "pct_1e-13"],
        [[cell, f"{agg['pct_1e-8']:.0f}", f"{agg['pct_1e-13']:.0f}"] for cell, agg in aggs],
    )
    return md, csv, pmd, pcsv


def _suite_cells(suite: str, seeds: int, base_seed: int) -> list[dict[str, Any]]:
    """Cell definitions: a label plus the list of instance thunks to run."""
    makers: dict[str, Callable[[int], BapInstance]]
    if suite == "slater_table":
        makers = {
            f"slater_n{n}": lambda s, n=n: gen_random_slater(n, 2 * n, seed=s)
            for n in (10, 20, 50, 100)
        }
    elif suite == "noslater_table":
        makers = {
            f"noslater_n{n}": partial(noslater_suite_instance, n) for n in sorted(NOSLATER_SUITE)
        }
    elif suite == "ellip_vontope_table":
        makers = {
            "elliptope_n10_random": lambda s: gen_elliptope(10, seed=s, w_mode="random"),
            "vontope_n3_rank1": lambda s: gen_vontope(3, seed=s, post_fr=True, w_mode="rank1"),
            "vontope_n4_random": lambda s: gen_vontope(4, seed=s, post_fr=True, w_mode="random"),
        }
    else:
        _usage_error(f"unknown suite {suite!r}")
    return [
        {"cell": label, "makers": [partial(make, base_seed + s) for s in range(seeds)]}
        for label, make in makers.items()
    ]


def _run_singularity_demo(args: argparse.Namespace, opts: NewtonOptions) -> int:
    """The stall-then-repair walk: one planted instance, before/after rows."""
    emit = _emitted(args, "trace", "table", "report")
    out = Path(args.out)
    inst = gen_planted_noslater(
        15, 7, sd_target=1, iips_target=1, support_size=5, seed=args.seed
    )
    res = solve_with_reduction(inst, opts)
    if len(res.rounds) == 1:
        status = res.rounds[0].trace.status.value
        print(f"round 0 ended {status} with no reduction; nothing to repair", file=sys.stderr)
        return EXIT_FAILURE
    first, last = res.rounds[0], res.rounds[-1]
    if "trace" in emit:
        _write_text(out / "before_trace.csv", trace_to_csv(first.trace))
        _write_text(out / "after_trace.csv", trace_to_csv(last.trace))
    md, csv = _table(
        ["phase", "n", "m", "status", "k", "relres", "cond"],
        [
            [
                label, str(r.inst.n), str(r.inst.m), r.trace.status.value,
                str(r.trace.k_final), f"{r.trace.relres_final:.4e}", f"{r.trace.cond_final:.4e}",
            ]
            for label, r in (("before", first), ("after", last))
        ],
    )
    if "table" in emit:
        _write_text(out / "singularity_demo.md", md)
        _write_text(out / "singularity_demo.csv", csv)
    if "report" in emit:
        _write_json(
            out / "singularity_demo.json",
            {
                "config": _config_echo(args, opts),
                "rows_removed": first.step.rows_removed,
                "before": _trace_row(first.trace),
                "after": _trace_row(last.trace),
            },
        )
    print(md, end="")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    opts = _options_from_args(args)
    if args.suite == "singularity_demo":
        if args.seeds is not None or args.workers is not None:
            _usage_error("--seeds and --workers apply only to the table suites")
        return _run_singularity_demo(args, opts)
    emit = _emitted(args, "table", "report")
    out = Path(args.out)
    workers = 1 if args.workers is None else args.workers
    seeds = 20 if args.seeds is None else args.seeds
    if workers < 1:
        _usage_error("--workers must be at least 1")
    if seeds < 1:
        _usage_error("--seeds must be at least 1")
    cells = _suite_cells(args.suite, seeds, args.seed)
    # collected in submission order, so the bytes do not depend on --workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for c in cells:
            futures = [pool.submit(lambda mk=mk: _run_one(mk(), opts)) for mk in c.pop("makers")]
            c["rows"] = [f.result() for f in futures]
            c["agg"] = _aggregate(c["rows"])
    md, csv, pmd, pcsv = _cells_to_tables(cells)
    if "table" in emit:
        _write_text(out / f"{args.suite}.md", md)
        _write_text(out / f"{args.suite}.csv", csv)
        _write_text(out / f"{args.suite}_pct.md", pmd)
        _write_text(out / f"{args.suite}_pct.csv", pcsv)
    if "report" in emit:
        payload = {
            "config": _config_echo(args, opts),
            "suite": args.suite,
            "cells": [
                {
                    "cell": c["cell"],
                    # per-run records without the wall-clock field so the
                    # JSON artifact stays bitwise reproducible
                    "rows": [
                        {k: v for k, v in row.items() if k != "time"}
                        for row in c["rows"]
                    ],
                }
                for c in cells
            ],
        }
        _write_json(out / f"{args.suite}.json", payload)
    print(md)
    print(pmd)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectraproj",
        description="Nearest-point projection onto spectrahedra, with "
        "stall detection, facial reduction and degeneracy diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is made once, then handed to every subcommand that reads it;
    # parents= would build one more parser per group on every main() call
    add = argparse.ArgumentParser(add_help=False).add_argument
    # no defaults in the source and Newton groups, so a given flag can be told
    # from an unset one; NewtonOptions holds the Newton defaults
    source = (
        add("--instance", help="path to an instance JSON file"),
        add("--gen", choices=FAMILIES, help="generate an instance instead"),
        add("--n", type=int),
        add("--m", type=int),
        add("--sd", type=int, help="planted singularity degree"),
        add("--iips", type=int, help="planted redundant rows"),
        add("--support", type=int, help="certificate support size"),
        add("--w-mode", choices=("random", "rank1", "feasible")),
    )
    # a string default goes through type=int, so a bad SPECTRA_SEED is a usage error
    seed = add("--seed", type=int, default=os.environ.get("SPECTRA_SEED", "0"))
    newton = (
        add("--eps", type=float),
        add("--cond-budget", type=float),
        add("--max-iter", type=int),
    )
    out = add("--out", default="out")
    emit = add("--emit", type=_parse_emit, help="comma-separated subset of trace,report,table")

    def command(name: str, func: Callable[[argparse.Namespace], int],
                *flags: argparse.Action) -> argparse.ArgumentParser:
        # no abbreviations: --m must not stand for experiment's --max-iter
        cmd = sub.add_parser(name, allow_abbrev=False)
        for action in flags:
            cmd._add_action(action)
        cmd.set_defaults(func=func)
        return cmd

    command("solve", cmd_solve, *source, seed, *newton, out, emit)
    command("fr", cmd_fr, *source, seed, out, emit)
    command("pipeline", cmd_pipeline, *source, seed, *newton, out, emit)
    diag = command("diagnose", cmd_diagnose, *source, seed, *newton, out, emit)
    point = diag.add_mutually_exclusive_group()
    point.add_argument("--x-json", help="JSON file with an explicit point under key 'X'")
    point.add_argument("--at-planted", action="store_true",
                       help="diagnose at the generator's planted point")
    command("gen", cmd_gen, *source, seed, out)
    exp = command("experiment", cmd_experiment, seed, *newton, out, emit)
    exp.add_argument(
        "suite",
        choices=("slater_table", "noslater_table", "singularity_demo", "ellip_vontope_table"),
    )
    # no defaults here, so singularity_demo can reject a given value
    exp.add_argument("--seeds", type=int, help="instances per table cell (default 20)")
    exp.add_argument("--workers", type=int, help="threads for a table (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed < 0:
        _usage_error("--seed must be at least 0")
    try:
        return args.func(args)
    except FaceCollapsedError as exc:
        print(f"face collapsed to the origin: {exc}", file=sys.stderr)
        return EXIT_FACE_ZERO
    except InfeasibleManifoldError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except np.linalg.LinAlgError as exc:
        print(f"linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
