import numpy as np
import pytest

from spectraproj.facialred import (
    AuxCertificate,
    FaceCollapsedError,
    _aux_jacobian,
    _aux_residual,
    certificate_from_stall,
    fr_loop,
    fr_report,
    fr_step,
    solve_aux_gauss_newton,
    solve_with_reduction,
)
from spectraproj.instances import (
    fixture_dual_gap_face,
    fixture_sd2_chain,
    gen_planted_noslater,
    gen_random_slater,
    known_nearest_point,
)
from spectraproj.model import BapInstance, LinearMap, kkt_residuals, primal_objective
from spectraproj.ssnewton import NewtonStatus, _dir_deriv_from_dec, jacobian, newton_solve
from spectraproj.symcore import eig_sym, smat, svec, tri_len

from oracles import check_independence


def _certificate_instance():
    return gen_planted_noslater(
        15, 7, sd_target=1, iips_target=1, support_size=5, seed=0
    )


def test_certificate_validation_branches():
    good = AuxCertificate(
        lam=np.array([1.0, 0.0]),
        Z=np.eye(3),
        residual=0.0,
        b_inner=0.0,
    )
    good.validate(np.zeros(2))
    with pytest.raises(ValueError, match="unit norm"):
        AuxCertificate(lam=np.array([2.0, 0.0]), Z=np.eye(3), residual=0.0, b_inner=0.0).validate(np.zeros(2))
    with pytest.raises(ValueError, match="not psd"):
        AuxCertificate(lam=np.array([1.0, 0.0]), Z=np.diag([1.0, -1.0]), residual=0.0, b_inner=0.0).validate(np.zeros(2))
    with pytest.raises(ValueError, match="orthogonal"):
        AuxCertificate(lam=np.array([1.0, 0.0]), Z=np.eye(3), residual=0.0, b_inner=0.5).validate(np.zeros(2))
    with pytest.raises(ValueError, match="numerically zero"):
        AuxCertificate(lam=np.array([1.0, 0.0]), Z=np.zeros((3, 3)), residual=0.0, b_inner=0.0).validate(np.zeros(2))


def test_certificate_found_on_planted_instances():
    for n, m, sd in ((15, 7, 1), (10, 7, 1), (15, 7, 2)):
        inst = gen_planted_noslater(n, m, sd_target=sd, iips_target=sd, support_size=5, seed=1)
        cert = solve_aux_gauss_newton(inst)
        assert cert is not None
        cert.validate(inst.b)
        # the exposing matrix annihilates every feasible point
        Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
        assert abs(np.sum(Xhat * cert.Z)) <= 1e-9 * (1 + np.linalg.norm(Xhat))


def test_aux_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    for inst in (_certificate_instance(), gen_random_slater(6, 9, seed=1)):
        checked = 0
        while checked < 6:
            lam = rng.standard_normal(inst.m)
            # the residual is smooth only away from zero eigenvalues of A*(lam)
            if np.abs(np.linalg.eigvalsh(inst.map.adjoint(lam))).min() < 1e-3:
                continue
            _, dec = _aux_residual(inst, lam)
            J = _aux_jacobian(inst, dec)
            h = 1e-6
            for j in range(inst.m):
                e = np.zeros(inst.m)
                e[j] = h
                rp, _ = _aux_residual(inst, lam + e)
                rm, _ = _aux_residual(inst, lam - e)
                fd = (rp - rm) / (2 * h)
                assert np.linalg.norm(fd - J[:, j]) <= 1e-6 * max(1.0, np.linalg.norm(J[:, j]))
            checked += 1


def test_no_certificate_on_strictly_feasible_instances():
    for seed in range(4):
        inst = gen_random_slater(8, 10, seed=seed)
        assert solve_aux_gauss_newton(inst) is None


def test_stall_vector_warm_starts_the_search():
    inst = _certificate_instance()
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SUSPECTED_DEGENERATE
    lam0 = certificate_from_stall(trace, inst)
    assert np.linalg.norm(lam0) == pytest.approx(1.0)
    cert = solve_aux_gauss_newton(inst, lam0=lam0)
    assert cert is not None
    assert abs(lam0 @ cert.lam) > 0.99


def test_stall_extraction_requires_a_stall():
    inst = gen_random_slater(6, 8, seed=2)
    trace = newton_solve(inst)
    with pytest.raises(ValueError):
        certificate_from_stall(trace, inst)


def test_fr_step_removes_planted_redundancy():
    inst = _certificate_instance()
    cert = solve_aux_gauss_newton(inst)
    reduced, Q, removed = fr_step(inst, cert)
    assert len(removed) == 1
    assert reduced.n < inst.n
    assert reduced.m == inst.m - 1
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)


def test_fr_step_collapse_is_an_error():
    cert = AuxCertificate(lam=np.array([1.0]), Z=np.eye(3), residual=0.0, b_inner=0.0)
    inst = BapInstance(
        map=LinearMap.from_matrices([np.eye(3)]), b=np.zeros(1), W=np.eye(3)
    )
    with pytest.raises(FaceCollapsedError):
        fr_step(inst, cert)


def test_two_round_chain_structure():
    inst = fixture_sd2_chain()
    run = fr_loop(inst)
    final = run.final
    assert run.sd_hat == 2
    assert run.iips_hat == 2
    assert [s.rows_removed for s in run.steps] == [[2], [1]]
    assert final.n == 1 and final.m == 1
    # final face is the span of e1, up to sign
    assert np.allclose(np.abs(run.V), [[1.0], [0.0], [0.0]], atol=1e-9)
    # the reduced system pins the single remaining variable to one
    assert np.allclose(final.map.rows, [[1.0]], atol=1e-12)
    assert np.allclose(final.b, [1.0], atol=1e-12)


def test_the_fr_loop_runs_no_newton_solve(monkeypatch):
    import spectraproj.facialred as facialred

    def no_solve(*args, **kwargs):
        raise AssertionError("the certificate-only loop ran a Newton solve")

    monkeypatch.setattr(facialred, "newton_solve", no_solve)
    run = fr_loop(fixture_sd2_chain())
    assert [s.rows_removed for s in run.steps] == [[2], [1]]
    assert run.final.n == 1
    res = solve_with_reduction(fixture_sd2_chain(), newton=False)
    assert [r.trace for r in res.rounds] == [None, None, None]
    assert [r.step is None for r in res.rounds] == [False, False, True]
    assert [r.inst.n for r in res.rounds] == [3, 2, 1]
    assert res.X is None


def test_chain_preserves_planted_feasibility():
    inst = gen_planted_noslater(12, 7, sd_target=2, iips_target=2, support_size=5, seed=3)
    run = fr_loop(inst)
    final = run.final
    assert run.sd_hat >= 1
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    R = run.V.T @ Xhat @ run.V
    pf = np.linalg.norm(final.map.apply(R) - final.b)
    assert pf <= 1e-10 * (1.0 + np.linalg.norm(final.b))
    assert np.linalg.eigvalsh(R).min() >= -1e-10


def test_face_dimension_strictly_decreases():
    inst = gen_planted_noslater(12, 7, sd_target=2, iips_target=2, support_size=5, seed=3)
    run = fr_loop(inst)
    dims = [inst.n] + [s.r_after for s in run.steps]
    assert all(a > b for a, b in zip(dims, dims[1:]))
    assert len(run.steps) <= inst.n


def test_post_reduction_solves_cleanly():
    for inst in (
        fixture_sd2_chain(),
        fixture_dual_gap_face(),
        gen_planted_noslater(12, 7, sd_target=2, iips_target=2, support_size=5, seed=3),
    ):
        trace = newton_solve(fr_loop(inst).final)
        assert trace.status == NewtonStatus.SOLVED
        assert trace.relres_final <= 1e-13


def test_lifted_certificates_annihilate_roots():
    # at a planted root of the unreduced residual, every chain certificate
    # is a null direction of the Newton matrix
    inst = gen_planted_noslater(
        15, 7, sd_target=1, iips_target=1, support_size=5, seed=4, plant_root=True
    )
    y_root = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
    run = fr_loop(inst)
    assert run.sd_hat >= 1
    J = jacobian(inst, y_root)
    nJ = np.linalg.norm(J, 2)
    for s in run.steps[:1]:
        lam = s.lam_lifted
        assert np.linalg.norm(J @ lam) <= 1e-8 * nJ * np.linalg.norm(lam)


def test_chain_independence_checks():
    inst = fixture_sd2_chain()
    run = fr_loop(inst)
    assert check_independence(run)
    y_root = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
    assert check_independence(run, inst=inst, y_root=y_root)
    # corrupt the run: a repeated round repeats its certificate, which is dependent
    run.rounds.insert(-1, run.rounds[0])
    assert not check_independence(run)


def test_report_shape():
    inst = fixture_sd2_chain()
    rep = fr_report(fr_loop(inst))
    assert rep["sd_hat"] == 2
    assert rep["iips_hat"] == 2
    assert rep["final_n"] == 1
    assert len(rep["steps"]) == 2
    assert all(len(s["lam"]) == inst.m for s in rep["steps"])


def test_gap_instance_reduces_to_zero_solution():
    inst = fixture_dual_gap_face()
    run = fr_loop(inst)
    final = run.final
    trace = newton_solve(final)
    X_lift = run.V @ trace.triple.X @ run.V.T
    assert np.linalg.norm(X_lift) <= 1e-10
    res = kkt_residuals(inst, trace.triple) if final.n == inst.n else None
    assert res is None  # the face genuinely shrank


def test_stall_then_reduce_then_solve():
    inst = _certificate_instance()
    stalled = newton_solve(inst)
    lam0 = certificate_from_stall(stalled, inst)
    cert = solve_aux_gauss_newton(inst, lam0=lam0)
    reduced, Q, removed = fr_step(inst, cert)
    again = newton_solve(reduced)
    assert again.status == NewtonStatus.SOLVED
    assert again.k_final <= 25


def test_solve_with_reduction_on_the_two_step_chain():
    inst = fixture_sd2_chain()
    res = solve_with_reduction(inst)
    assert res.sd_hat == 2
    assert len(res.rounds) == 3
    assert [r.step is None for r in res.rounds] == [False, False, True]
    assert [r.inst.n for r in res.rounds] == [3, 2, 1]
    assert res.rounds[-1].trace.status == NewtonStatus.SOLVED
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(res.X, np.outer(e1, e1), atol=1e-10)
    assert primal_objective(inst, res.X) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(inst.map.apply(res.X), inst.b, atol=1e-12)
    assert check_independence(res)
    y_root = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
    assert check_independence(res, inst=inst, y_root=y_root)
    # the same rows are dropped as by the certificate-only loop
    run = fr_loop(inst)
    assert [s.rows_removed for s in res.steps] == [s.rows_removed for s in run.steps]
    assert res.kept.tolist() == [True, False, False]


def test_solve_with_reduction_stops_at_a_clean_solve():
    inst = gen_random_slater(6, 8, seed=2)
    res = solve_with_reduction(inst)
    assert len(res.rounds) == 1 and res.rounds[0].step is None
    assert res.sd_hat == 0
    assert np.array_equal(res.X, res.rounds[0].trace.triple.X)


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "cold"])
@pytest.mark.parametrize(
    "make",
    [fixture_sd2_chain,
     lambda: gen_planted_noslater(12, 7, sd_target=2, iips_target=2, support_size=5, seed=3)],
    ids=["Sd2Chain", "planted"],
)
def test_a_reduction_run_is_one_record(make, newton):
    inst = make()
    res = solve_with_reduction(inst, newton=newton)
    assert res.sd_hat >= 1
    # each round but the last carries the step that reduced it
    assert res.steps == [r.step for r in res.rounds[:-1]]
    assert None not in res.steps and res.rounds[-1].step is None
    assert res.sd_hat == len(res.rounds) - 1
    assert [s.r_after for s in res.steps] == [r.inst.n for r in res.rounds[1:]]
    V = np.eye(inst.n)
    for s in res.steps:
        V = V @ s.Q
    assert V.shape == res.V.shape and V.tobytes() == res.V.tobytes()
    assert res.kept.sum() == res.final.m
    assert res.iips_hat == inst.m - res.final.m


def test_solve_with_reduction_builds_each_matrix_stack_once(monkeypatch):
    import spectraproj.model as model

    real_smat = model.smat
    builds = []

    def counting_smat(v):
        if np.ndim(v) == 2:  # a rows stack, not one half-vector
            builds.append(np.shape(v))
        return real_smat(v)

    monkeypatch.setattr(model, "smat", counting_smat)
    res = solve_with_reduction(fixture_sd2_chain())
    assert len(builds) <= len(res.rounds)


def test_certificate_search_decomposes_each_multiplier_once(monkeypatch):
    import spectraproj.facialred as facialred

    calls = {"eig_sym": 0, "residual": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(facialred, "eig_sym", counting("eig_sym", facialred.eig_sym))
    monkeypatch.setattr(
        facialred, "_aux_residual", counting("residual", facialred._aux_residual)
    )
    assert solve_aux_gauss_newton(_certificate_instance()) is not None
    assert calls["residual"] > 0
    assert calls["eig_sym"] == calls["residual"]


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_polish_decomposes_each_candidate_once(monkeypatch):
    # the starting multiplier's decomposition comes from the Gauss-Newton loop
    import spectraproj.facialred as facialred

    calls = {"eigh": 0, "candidates": 0}
    monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(
        facialred, "_aux_residual", _counting(calls, "candidates", facialred._aux_residual)
    )
    polishes = []
    real_polish = facialred._polish_certificate

    def polish(*args):
        before = dict(calls)
        out = real_polish(*args)
        polishes.append({k: calls[k] - before[k] for k in calls})
        return out

    monkeypatch.setattr(facialred, "_polish_certificate", polish)
    assert solve_aux_gauss_newton(_certificate_instance()) is not None
    assert polishes and all(p["candidates"] > 0 for p in polishes)
    assert all(p["eigh"] == p["candidates"] for p in polishes)


def test_restrict_reuses_the_certificates_decomposition(monkeypatch):
    inst = _certificate_instance()
    cert = solve_aux_gauss_newton(inst)
    ref = eig_sym(cert.Z)
    assert np.array_equal(cert.dec.U, ref.U) and np.array_equal(cert.dec.lam, ref.lam)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        monkeypatch.setattr(np.linalg, name, _counting(calls, name, getattr(np.linalg, name)))
    cert.validate(inst.b)
    reduced, _, _ = fr_step(inst, cert)
    assert calls == {"eigh": 0, "eigvalsh": 0}
    # a certificate built from a bare Z decomposes it once, to the same face
    bare = AuxCertificate(lam=cert.lam, Z=cert.Z, residual=cert.residual, b_inner=cert.b_inner)
    bare.validate(inst.b)
    again, _, _ = fr_step(inst, bare)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    assert np.array_equal(again.map.rows, reduced.map.rows)


def test_stall_certificate_reuses_the_terminal_newton_matrix(monkeypatch):
    import spectraproj.facialred as facialred
    import spectraproj.ssnewton as ssnewton
    import spectraproj.symcore as symcore

    inst = _certificate_instance()
    trace = newton_solve(inst)
    calls = {"eig_sym": 0, "assembly": 0, "eigh": 0}
    for module in (facialred, ssnewton, symcore):
        monkeypatch.setattr(module, "eig_sym", _counting(calls, "eig_sym", symcore.eig_sym))
    monkeypatch.setattr(
        ssnewton, "_jacobian_from_dec", _counting(calls, "assembly", ssnewton._jacobian_from_dec)
    )
    monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
    certificate_from_stall(trace, inst)
    assert calls == {"eig_sym": 0, "assembly": 0, "eigh": 1}


def test_trace_keeps_the_newton_matrix_at_its_last_iterate():
    for inst in (_certificate_instance(), gen_random_slater(6, 8, seed=2)):
        trace = newton_solve(inst)
        assert np.array_equal(trace.J, jacobian(inst, trace.triple.y))


def _whole_stack_aux_jacobian(inst, dec):
    mats = smat(inst.map.rows)
    return np.vstack([svec(mats - _dir_deriv_from_dec(dec, mats)).T, inst.b])


@pytest.mark.parametrize("m", [150, 0])
def test_streamed_aux_jacobian_is_bitwise_the_whole_stack_one(m):
    # m * n^2 is above one block at m = 150 (blocks of 72 rows, the last of 6)
    n = 60
    rng = np.random.default_rng(m)
    amap = LinearMap(n=n, rows=rng.standard_normal((m, tri_len(n))))
    inst = BapInstance(map=amap, b=rng.standard_normal(m), W=np.eye(n))
    # three eigenvalues in the zero bucket, so P' projects a 3-by-3 block
    lam = np.concatenate([np.linspace(3.0, 0.5, 20), [0.0, 1e-12, -1e-12], np.linspace(-0.5, -2.0, 37)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dec = eig_sym((Q * lam) @ Q.T)
    assert (dec.p, dec.z) == (20, 3)
    J = _aux_jacobian(inst, dec)
    expected = _whole_stack_aux_jacobian(inst, dec)
    assert J.shape == expected.shape == (tri_len(n) + 1, m)
    assert J.flags.c_contiguous and J.tobytes() == expected.tobytes()
    assert (amap._mats is None) == (m > 0)


_OVER_REDUCED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "over-reduction: round 1 keeps a row at sigma/sigma_1 = 2.2e-8, above the "
        "1e-9 rank cut, and its next certificate cuts off the planted point (ROADMAP item 2)"
    ),
)


@pytest.mark.parametrize(
    "n, m, sd, iips, seed",
    [
        (15, 7, 1, 1, 0),
        pytest.param(30, 40, 2, 3, 101000, marks=_OVER_REDUCED),
        pytest.param(30, 40, 2, 3, 102000, marks=_OVER_REDUCED),
    ],
)
def test_planted_point_stays_on_every_face_of_the_chain(n, m, sd, iips, seed):
    inst = gen_planted_noslater(n, m, sd_target=sd, iips_target=iips, support_size=5, seed=seed)
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    res = solve_with_reduction(inst)
    assert res.sd_hat >= 1
    V = np.eye(n)
    for s in res.steps:
        V = V @ s.Q
        P = V @ V.T
        assert np.linalg.norm(Xhat - P @ Xhat @ P) <= 1e-8 * np.linalg.norm(Xhat)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="over-reduction: the last face has order 23, the planted one 24 (ROADMAP item 2)",
)
@pytest.mark.parametrize("seed", [1000, 2000])
def test_reduction_ends_at_the_true_nearest_point(seed):
    # the noslater_repair benchmark pool; today the Solved point is 0.33
    # (seed 1000) and 0.21 (seed 2000) away from X*, relative to ||X*||
    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=seed)
    Xstar = known_nearest_point(inst)
    res = solve_with_reduction(inst)
    assert res.rounds[-1].trace.status == NewtonStatus.SOLVED
    assert np.linalg.norm(res.X - Xstar) <= 1e-8 * np.linalg.norm(Xstar)


@pytest.mark.parametrize("seed", [2010, 2021])
def test_reduction_ends_on_the_planted_face_of_the_pool_instances_it_reaches(seed):
    # the two noslater_repair pool instances whose last face is the planted
    # one, of order 24; with the reference 0.2*||F|| step, stopping round 0
    # anywhere from k = 40 to 210 sends 2021 to an order-23 face 0.21 from X*
    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=seed)
    Xstar = known_nearest_point(inst)
    res = solve_with_reduction(inst)
    assert res.rounds[-1].trace.status == NewtonStatus.SOLVED
    assert res.rounds[-1].inst.n == 24
    assert np.linalg.norm(res.X - Xstar) <= 1e-7 * np.linalg.norm(Xstar)


def _cut_null_space(K, m):
    # the polish's rank rule on the SVD of K (or of its triangle R): a right
    # singular vector is null when sigma <= 1e-8 sigma_0 or K has no row for it
    _, sig, Vt = np.linalg.svd(K, full_matrices=True)
    null_mask = np.zeros(m, dtype=bool)
    null_mask[len(sig):] = True
    null_mask[: len(sig)] |= sig <= 1e-8 * (sig[0] if len(sig) else 1.0)
    return null_mask, Vt[null_mask].T


def _polish_without_memo(inst, lam, rn, dec):
    # the three rank cuts as separate loops, every pass computed afresh
    best = (lam, rn, dec)
    for theta in (1e-4, 1e-6, 1e-8):
        mu, mdec = lam, dec
        for _ in range(4):
            keep = mdec.lam < theta * float(np.abs(mdec.lam).max())
            if not keep.any() or keep.all():
                break
            N = mdec.U[:, keep]
            K = np.vstack([inst.map.restrict(N).rows.T, inst.b])
            null_mask, B = _cut_null_space(np.linalg.qr(K, mode="r"), inst.m)
            if not null_mask.any():
                break
            cand = B @ (B.T @ mu)
            nm = float(np.linalg.norm(cand))
            if nm < 1e-8:
                break
            mu = cand / nm
            r_new, mdec = _aux_residual(inst, mu)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < best[1]:
                best = (mu, rn_new, mdec)
            if rn_new == 0.0:
                break
    return best


def test_memoized_polish_is_bitwise_the_full_replay(monkeypatch):
    # round 0 of the pipeline on a planted n=30, m=40 instance
    import spectraproj.facialred as facialred

    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=1000)
    trace = newton_solve(inst)
    inputs = []
    real_polish = facialred._polish_certificate

    def recording(*args):
        inputs.append(args)
        return real_polish(*args)

    monkeypatch.setattr(facialred, "_polish_certificate", recording)
    assert solve_aux_gauss_newton(inst, lam0=certificate_from_stall(trace, inst)) is not None
    monkeypatch.setattr(facialred, "_polish_certificate", real_polish)
    assert inputs

    calls = {"svd": 0}
    monkeypatch.setattr(np.linalg, "svd", _counting(calls, "svd", np.linalg.svd))
    for args in inputs:
        calls["svd"] = 0
        lam, rn, dec = real_polish(*args)
        memo_svd = calls["svd"]
        calls["svd"] = 0
        ref_lam, ref_rn, ref_dec = _polish_without_memo(*args)
        assert lam.tobytes() == ref_lam.tobytes()
        assert rn == ref_rn
        assert dec.lam.tobytes() == ref_dec.lam.tobytes()
        assert memo_svd < calls["svd"]


def test_polish_triangle_keeps_the_full_svd_null_space(monkeypatch):
    # the SVD of K's triangle R against the full SVD of K: the same null
    # mask, and the same null space up to rounding.  First every cut system
    # the polish factors while the pipeline reduces pool seed 1000
    # (30 -> 24 -> 23): four passes in each round, 301 x 40 and 277 x 38
    systems = []
    real_qr = np.linalg.qr

    def recording(a, mode="reduced"):
        if mode == "r":
            systems.append(np.array(a))
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=1000)
    assert [r.inst.n for r in solve_with_reduction(inst).rounds] == [30, 24, 23]
    monkeypatch.setattr(np.linalg, "qr", real_qr)
    assert [K.shape for K in systems] == [(301, 40)] * 4 + [(277, 38)] * 4
    rng = np.random.default_rng(3)
    # wide: 12 rows, rank 10, m = 40; R is 12 x 40 and the rule appends the
    # 28 right singular vectors K has no row for
    systems.append(rng.standard_normal((12, 10)) @ rng.standard_normal((10, 40)))
    # tall, one singular value just inside the cut and one just outside
    U, _ = np.linalg.qr(rng.standard_normal((301, 40)))
    V, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    for edge in (0.5e-8, 2e-8):
        systems.append((U * np.append(np.logspace(0, -2, 39), edge)) @ V.T)
    masks = []
    for K in systems:
        ref_mask, B_ref = _cut_null_space(K, K.shape[1])
        mask, B = _cut_null_space(np.linalg.qr(K, mode="r"), K.shape[1])
        assert mask.tolist() == ref_mask.tolist()
        assert np.linalg.norm(B @ B.T - B_ref @ B_ref.T) <= 1e-12
        masks.append(int(mask.sum()))
    assert masks[-3:] == [30, 1, 0]


def test_reduction_factors_no_tall_system_for_its_singular_vectors(monkeypatch):
    # the polish reads only sigma and V' of its tall cut system, so it factors
    # the m x m triangle; a full SVD of K would build a (t+1) x (t+1) U
    tall = []
    real_svd = np.linalg.svd

    def checking(a, *args, **kwargs):
        compute_uv = args[1] if len(args) > 1 else kwargs.get("compute_uv", True)
        if compute_uv and a.shape[-2] > a.shape[-1]:
            tall.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", checking)
    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=1000)
    res = solve_with_reduction(inst)
    assert res.rounds[-1].trace.status == NewtonStatus.SOLVED
    assert tall == []
