"""End-to-end checks of the headline behaviors.

Each test covers one numbered claim about the solver, the reduction pipeline
or the benchmark families, at its stated tolerance, and prints a single
PASS/FAIL line with the measured quantities.
"""

import itertools
import time

import numpy as np

from spectraproj import ssnewton
from spectraproj.degeneracy import jacobian_degeneracy_crosscheck
from spectraproj.facialred import (
    certificate_from_stall,
    fr_loop,
    fr_step,
    solve_aux_gauss_newton,
)
from spectraproj.instances import (
    fixture_dual_gap_face,
    fixture_sd2_chain,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    known_nearest_point,
    noslater_suite_instance,
    vontope_lift_vertex,
    vontope_null_basis,
)
from spectraproj.model import (
    KktTriple,
    kkt_residuals,
    primal_objective,
    residual_F,
)
from spectraproj.ssnewton import (
    NewtonStatus,
    jacobian,
    newton_solve,
)
from spectraproj.symcore import (
    moreau_envelope,
    project_face,
    project_psd,
    smat,
)

from oracles import check_independence, residual_F_face


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _sym(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) * scale
    return 0.5 * (G + G.T)


def test_01_full_precision_on_strictly_feasible_instances():
    solved = 0
    total = 0
    worst_time = 0.0
    for n in (10, 20, 50):
        for seed in range(20):
            inst = gen_random_slater(n, 2 * n, seed=seed)
            t0 = time.perf_counter()
            trace = newton_solve(inst)
            dt = time.perf_counter() - t0
            total += 1
            ok = (
                trace.status == NewtonStatus.SOLVED
                and trace.relres_final <= 1e-13
                and trace.k_final <= 2000
            )
            solved += ok
            if n == 50:
                worst_time = max(worst_time, dt)
    _line(
        "strictly-feasible full convergence",
        solved == total and worst_time <= 10.0,
        f"{solved}/{total} solved to 1e-13, slowest n=50 run {worst_time:.2f}s",
    )


def _reference_lm_parameter(rho, normF, b_scale):
    # the reference protocol's step regularization, 0.2*||F|| in the units of b
    return max(0.2 * normF, 1e-14)


def test_02_no_interior_means_no_full_precision(monkeypatch):
    # planted roots, so X* is the planted X-hat: the relative-residual
    # regularization reaches it on most instances, and the reference
    # protocol's 0.2*||F|| keeps the precision ceiling
    suite = [noslater_suite_instance(n, seed) for n in (10, 20) for seed in range(20)]
    total = len(suite)
    solved = 0
    worst_solved = 0.0
    worst = 0.0
    for inst in suite:
        xstar = known_nearest_point(inst)
        trace = newton_solve(inst)
        err = np.linalg.norm(trace.triple.X - xstar) / np.linalg.norm(xstar)
        worst = max(worst, err)
        if trace.status == NewtonStatus.SOLVED:
            solved += 1
            worst_solved = max(worst_solved, err)
    _line(
        "no-interior nearest point",
        solved >= 30 and worst_solved <= 1e-10 and worst <= 1e-7,
        f"{solved}/{total} Solved (want >= 30) within {worst_solved:.1e} of X* (want <= 1e-10), "
        f"all within {worst:.1e} (want <= 1e-7)",
    )

    monkeypatch.setattr(ssnewton, "_lm_parameter", _reference_lm_parameter)
    reached8 = 0
    reached13 = 0
    for inst in suite:
        trace = newton_solve(inst)
        hist = trace.relres_history()
        reached8 += bool((hist <= 1e-8).any())
        reached13 += bool((hist <= 1e-13).any())
    _line(
        "no-interior precision ceiling",
        reached13 == 0 and reached8 >= 0.25 * total,
        f"{reached13}/{total} at 1e-13 (want 0), {reached8}/{total} at 1e-8 (want >= {total // 4})",
    )


def test_03_stall_one_reduction_round_then_fast_solve():
    inst = gen_planted_noslater(
        15, 7, sd_target=1, iips_target=1, support_size=5, seed=0
    )
    stalled = newton_solve(inst)
    stall_ok = (
        stalled.status == NewtonStatus.SUSPECTED_DEGENERATE
        and 1e-9 <= stalled.relres_final <= 1e-6
        and stalled.cond_final >= 1e10
    )
    lam0 = certificate_from_stall(stalled, inst)
    cert = solve_aux_gauss_newton(inst, lam0=lam0)
    reduced, _, removed = fr_step(inst, cert)
    again = newton_solve(reduced)
    after_ok = (
        len(removed) == 1
        and again.status == NewtonStatus.SOLVED
        and again.relres_final <= 1e-13
        and again.k_final <= 25
    )
    _line(
        "stall, one reduction round, fast solve",
        stall_ok and after_ok,
        f"stall relres {stalled.relres_final:.2e} cond {stalled.cond_final:.2e}, "
        f"rows removed {removed}, resolve k={again.k_final} relres {again.relres_final:.2e}",
    )


def test_04_two_step_chain_fixture_end_to_end():
    t0 = time.perf_counter()
    inst = fixture_sd2_chain()
    chain, final = fr_loop(inst)
    planted = inst.meta["planted"]
    triple = KktTriple(
        X=smat(np.asarray(planted["x_star"])),
        y=np.asarray(planted["y_root"], dtype=float),
        Z=smat(np.asarray(planted["z_star"])),
    )
    res = kkt_residuals(inst, triple)
    y_shift = triple.y + np.asarray(planted["certificates"][1], dtype=float)
    Ff, _ = residual_F_face(inst, y_shift, chain.V)
    F, _ = residual_F(inst, y_shift)
    elapsed = time.perf_counter() - t0
    ok = (
        chain.sd_hat == 2
        and final.n == 1
        and np.allclose(final.map.rows, [[1.0]], atol=1e-12)
        and np.allclose(final.b, [1.0], atol=1e-12)
        and all(v <= 1e-14 for v in res.values())
        and np.linalg.norm(Ff) <= 1e-12
        and np.linalg.norm(F) > 1e-6
        and elapsed < 1.0
    )
    _line(
        "two-step reduction chain",
        ok,
        f"steps={chain.sd_hat} final_n={final.n} kkt_max={max(res.values()):.1e} "
        f"|Ff|={np.linalg.norm(Ff):.1e} |F|={np.linalg.norm(F):.1e} {elapsed:.2f}s",
    )


def test_05_divergent_duals_then_exact_recovery():
    inst = fixture_dual_gap_face()
    trace = newton_solve(inst)
    norms = {it.k: np.linalg.norm(it.y) for it in trace.iterates}
    growth = norms[2000] / norms[50]
    never_solved = trace.status != NewtonStatus.SOLVED
    chain, final = fr_loop(inst)
    lifted = chain.V @ newton_solve(final).triple.X @ chain.V.T
    x_err = np.linalg.norm(lifted)  # the planted optimum is the origin
    p_star = primal_objective(inst, lifted)
    ok = (
        never_solved
        and growth >= 10.0
        and x_err <= 1e-10
        and abs(p_star - 1.0) <= 1e-10
    )
    _line(
        "dual divergence and recovery by reduction",
        ok,
        f"status={trace.status.value} growth={growth:.1f}x |X*-0|={x_err:.1e} "
        f"p*={p_star:.12f}",
    )


def test_06_benchmark_rows_benign_and_degenerate():
    ks, conds, pfs, dfs, css = [], [], [], [], []
    for seed in range(10):
        inst = gen_elliptope(10, seed=seed)
        trace = newton_solve(inst)
        res = kkt_residuals(inst, trace.triple)
        ks.append(trace.k_final)
        conds.append(trace.cond_final)
        pfs.append(res["pf"])
        dfs.append(res["df_lin"])
        css.append(res["cs"])
    benign_ok = (
        np.mean(ks) <= 15
        and max(conds) <= 1e3
        and max(pfs) <= 1e-10
        and max(dfs) <= 1e-12
        and max(css) <= 1e-12
    )

    hard = gen_vontope(3, seed=0, post_fr=True, w_mode="rank1")
    hard_trace = newton_solve(hard)
    vertex = smat(np.asarray(hard.meta["planted"]["vertex"]))
    cc = jacobian_degeneracy_crosscheck(hard, hard_trace, X=vertex)
    hard_ok = hard_trace.cond_final >= 1e10 and cc.report.verdict == "Degenerate"

    easy_ok = True
    easy_pf = 0.0
    for seed in range(5):
        inst = gen_vontope(4, seed=seed, post_fr=True, w_mode="random")
        trace = newton_solve(inst)
        res = kkt_residuals(inst, trace.triple)
        easy_pf = max(easy_pf, res["pf"])
        easy_ok = easy_ok and trace.status == NewtonStatus.SOLVED and res["pf"] <= 1e-10
    _line(
        "benchmark rows",
        benign_ok and hard_ok and easy_ok,
        f"unit-diag mean k={np.mean(ks):.1f} cond<={max(conds):.1e} pf<={max(pfs):.1e}; "
        f"vertex-anchored cond={hard_trace.cond_final:.1e} verdict={cc.report.verdict}; "
        f"random-anchored pf<={easy_pf:.1e}",
    )


def test_07a_projection_split_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        S = _sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        X, Zneg = project_psd(S)
        nS = max(1.0, np.linalg.norm(S))
        worst = max(
            worst,
            np.linalg.norm(X - Zneg - S) / nS,
            max(0.0, -np.linalg.eigvalsh(X).min()) / nS,
            max(0.0, -np.linalg.eigvalsh(Zneg).min()) / nS,
            abs(np.sum(X * Zneg)) / nS**2,
        )
    elapsed = time.perf_counter() - t0
    _line(
        "projection split exactness",
        worst <= 1e-12 and elapsed < 60,
        f"worst scaled defect {worst:.2e} over 200 draws in {elapsed:.1f}s",
    )


def test_07b_face_projection_against_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    for _ in range(5):
        n, r = 5, 2
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V = Q[:, :r]
        u = _sym(rng, n, scale=2.0)
        ours = project_face(u, V)
        f_ours = 0.5 * np.linalg.norm(ours - u) ** 2

        # independent oracle: zoomed grid search over Cholesky coordinates
        # L = [[x, 0], [y, z]], R = L L^T, so every candidate is psd and the
        # objective is smooth in (x, y, z); evaluated in the ambient space
        v1, v2 = V[:, 0], V[:, 1]
        basis = np.stack(
            [
                np.outer(v1, v1).ravel(),
                (np.outer(v1, v2) + np.outer(v2, v1)).ravel(),
                np.outer(v2, v2).ravel(),
            ]
        )
        u_flat = u.ravel()
        center = np.zeros(3)
        radius = float(np.sqrt(2.0 * np.abs(V.T @ u @ V).max())) + 1.0
        best_val = np.inf
        pts = np.linspace(-1.0, 1.0, 13)
        for _level in range(26):
            x, y, z = (
                g.ravel()
                for g in np.meshgrid(*(c + radius * pts for c in center))
            )
            coeffs = np.stack([x * x, x * y, y * y + z * z], axis=1)
            vals = 0.5 * np.sum((coeffs @ basis - u_flat) ** 2, axis=1)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, center = float(vals[j]), np.array([x[j], y[j], z[j]])
            radius *= 0.55
        # the oracle explores feasible points only, so it can never do
        # better than the exact projection, and it must get within 1e-6
        worst_gap = max(worst_gap, best_val - f_ours)
        assert best_val >= f_ours - 1e-12
    elapsed = time.perf_counter() - t0
    _line(
        "face projection vs grid oracle",
        worst_gap <= 1e-6 and elapsed < 60,
        f"largest oracle-vs-exact value gap {worst_gap:.2e} in {elapsed:.1f}s",
    )


def test_07c_jacobian_finite_difference_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 8))
        m = int(rng.integers(2, 7))
        inst = gen_random_slater(n, m, seed=int(rng.integers(0, 10_000)))
        y = rng.standard_normal(m)
        if np.abs(np.linalg.eigvalsh(inst.W + inst.map.adjoint(y))).min() < 1e-4:
            continue
        J = jacobian(inst, y)
        h = 1e-6
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            col = (residual_F(inst, y + e)[0] - residual_F(inst, y - e)[0]) / (2 * h)
            worst = max(
                worst,
                np.linalg.norm(col - J[:, j]) / max(np.linalg.norm(J[:, j]), 1.0),
            )
        checked += 1
    elapsed = time.perf_counter() - t0
    _line(
        "derivative matrix vs finite differences",
        worst <= 1e-5 and elapsed < 60,
        f"worst relative column error {worst:.2e} on {checked} points in {elapsed:.1f}s",
    )


def test_07d_envelope_gradient_quadratic_error():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(5):
        S = _sym(rng, 7, scale=2.0)
        X, _ = project_psd(S)
        errs = []
        for h in (1e-2, 1e-3):
            worst = 0.0
            for _ in range(4):
                H = _sym(rng, 7)
                H /= np.linalg.norm(H)
                fd = (moreau_envelope(S + h * H) - moreau_envelope(S - h * H)) / (2 * h)
                worst = max(worst, abs(fd - np.sum(X * H)))
            errs.append(worst)
        ratios.append(errs[0] / max(errs[1], 1e-18))
    elapsed = time.perf_counter() - t0
    # an order-h^2 error shrinks 100x per decade of h; allow slack 2x
    _line(
        "envelope gradient second-order error",
        min(ratios) >= 50.0 and elapsed < 60,
        f"error contraction per decade {min(ratios):.0f}x (want >= 50) in {elapsed:.1f}s",
    )


def test_07e_certificates_are_null_recession_directions():
    t0 = time.perf_counter()
    worst_null = 0.0
    worst_shift = 0.0
    for seed in range(3):
        inst = gen_planted_noslater(
            12, 7, sd_target=1, iips_target=1, support_size=5,
            seed=seed, plant_root=True,
        )
        y_root = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
        cert = solve_aux_gauss_newton(inst)
        assert cert is not None
        J = jacobian(inst, y_root)
        nJ = np.linalg.norm(J, 2)
        worst_null = max(
            worst_null, np.linalg.norm(J @ cert.lam) / (nJ * np.linalg.norm(cert.lam))
        )
        b_scale = 1.0 + np.linalg.norm(inst.b)
        for t in (1.0, -1.0, 10.0, -10.0):
            F, _ = residual_F(inst, y_root + t * cert.lam)
            worst_shift = max(worst_shift, np.linalg.norm(F) / b_scale)
    elapsed = time.perf_counter() - t0
    _line(
        "certificate null-direction and recession window",
        worst_null <= 1e-8 and worst_shift <= 1e-10 and elapsed < 60,
        f"|J lam|/(|J||lam|) <= {worst_null:.2e}, residual along the ray <= "
        f"{worst_shift:.2e}, in {elapsed:.1f}s",
    )


def test_07f_rank_and_jacobian_verdicts_agree():
    t0 = time.perf_counter()
    agreements = 0
    conclusive = 0
    cases = (
        [gen_elliptope(10, seed=s) for s in range(10)]
        + [gen_random_slater(10, 20, seed=s) for s in range(5)]
        + [gen_vontope(4, seed=s, post_fr=True, w_mode="random") for s in range(3)]
    )
    for inst in cases:
        cc = jacobian_degeneracy_crosscheck(inst, newton_solve(inst))
        if cc.inconclusive:
            continue
        conclusive += 1
        agreements += cc.agree
    elapsed = time.perf_counter() - t0
    _line(
        "rank test vs terminal matrix invertibility",
        conclusive > 0 and agreements == conclusive and elapsed < 60,
        f"{agreements}/{conclusive} conclusive cases agree in {elapsed:.1f}s",
    )


def test_07g_multi_step_chains_are_independent():
    t0 = time.perf_counter()
    checked = 0
    inst = fixture_sd2_chain()
    chain, _ = fr_loop(inst)
    assert chain.sd_hat == 2
    y_root = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
    ok = check_independence(chain, inst=inst, y_root=y_root)
    checked += 1
    for seed in (3, 4):
        deep = gen_planted_noslater(
            12, 7, sd_target=2, iips_target=2, support_size=5, seed=seed
        )
        c2, _ = fr_loop(deep)
        if c2.sd_hat >= 2:
            ok = ok and check_independence(c2)
            checked += 1
    elapsed = time.perf_counter() - t0
    _line(
        "multi-step certificate independence",
        ok and checked >= 2 and elapsed < 60,
        f"{checked} multi-step chains checked in {elapsed:.1f}s",
    )


def test_08_lifted_permutation_model_construction():
    n = 3
    pre = gen_vontope(n, seed=0, post_fr=False)
    post = gen_vontope(n, seed=0, post_fr=True)
    sizes_ok = post.n == 5 and post.m == 10
    vhat = vontope_null_basis(n)
    worst = 0.0
    for perm in itertools.permutations(range(n)):
        perm = np.array(perm)
        Y = vontope_lift_vertex(perm)
        R = vontope_lift_vertex(perm, vhat)
        worst = max(
            worst,
            np.linalg.norm(pre.map.apply(Y) - pre.b) / (1 + np.linalg.norm(pre.b)),
            np.linalg.norm(post.map.apply(R) - post.b) / (1 + np.linalg.norm(post.b)),
            max(0.0, -np.linalg.eigvalsh(Y).min()),
            max(0.0, -np.linalg.eigvalsh(R).min()),
        )
    cert = solve_aux_gauss_newton(pre)
    cert_ok = cert is not None
    if cert_ok:
        cert.validate(pre.b)
    _line(
        "lifted permutation model construction",
        sizes_ok and worst <= 1e-12 and cert_ok,
        f"reduced order {post.n}, rows {post.m}, 6 vertices feasible to {worst:.1e}, "
        f"pre-reduction certificate found={cert_ok}",
    )
