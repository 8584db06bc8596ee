import io

import numpy as np
import pytest

from spectraproj import model, ssnewton
from spectraproj.instances import (
    FAMILIES,
    GeneratorSpec,
    gen_dual_unattained,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    generate,
)
from spectraproj.model import LinearMap, residual_F
from spectraproj.ssnewton import (
    NewtonOptions,
    NewtonStatus,
    _dir_deriv_from_dec,
    _jacobian_from_dec,
    _weights,
    dir_deriv_proj,
    jacobian,
    jacobian_spectrum,
    newton_solve,
    trace_to_csv,
)
from spectraproj.symcore import eig_sym, smat


def _sym(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) * scale
    return 0.5 * (G + G.T)


def test_weights_range():
    lam = np.array([3.0, 1.0, -0.5, -2.0])
    om = _weights(lam, 2, 0)[:2, 2:]
    assert np.all(om > 0) and np.all(om < 1)
    assert om[0, 0] == pytest.approx(3.0 / 3.5)


def test_weights_empty_sides():
    assert np.array_equal(_weights(np.array([-1.0, -2.0]), 0, 0), np.zeros((2, 2)))
    assert np.array_equal(_weights(np.array([2.0, 1.0]), 2, 0), np.ones((2, 2)))
    assert _weights(np.zeros(0), 0, 0).shape == (0, 0)


def test_weights_block_pattern():
    w = _weights(np.array([2.0, 1.0, -1.0]), 2, 0)
    assert np.array_equal(w[:2, :2], np.ones((2, 2)))
    assert w[2, 2] == 0.0
    assert w[0, 2] == pytest.approx(2.0 / 3.0)
    assert np.array_equal(w, w.T)
    # a zero bucket pairs like the positive one against positives, else like a
    # negative one
    w = _weights(np.array([2.0, 1.0, 0.0, -1.0, -3.0]), 2, 1)
    assert np.array_equal(w, w.T)
    assert np.array_equal(w[:2, :3], np.ones((2, 3)))
    assert np.array_equal(w[2:, 2:], np.zeros((3, 3)))
    assert w[1, 4] == pytest.approx(1.0 / 4.0)


def test_dir_deriv_stack_matches_single_directions():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for lam in ([3.0, 1.0, 0.0, 0.0, -0.5, -2.0], [2.0, 1.5, 0.7, -0.1, -1.0, -4.0]):
        dec = eig_sym((Q * lam) @ Q.T)
        assert dec.z == lam.count(0.0)
        Hs = np.array([_sym(rng, 6) for _ in range(6)]).reshape(2, 3, 6, 6)
        D = _dir_deriv_from_dec(dec, Hs)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(D[idx], _dir_deriv_from_dec(dec, Hs[idx]))


def test_dir_deriv_at_definite_points():
    rng = np.random.default_rng(0)
    H = _sym(rng, 5)
    Spd = np.eye(5) * 3.0
    assert np.allclose(dir_deriv_proj(Spd, H), H, atol=1e-12)
    assert np.allclose(dir_deriv_proj(-Spd, H), np.zeros((5, 5)), atol=1e-12)


def test_dir_deriv_matches_finite_differences_when_smooth():
    rng = np.random.default_rng(1)
    for _ in range(10):
        S = _sym(rng, 5, scale=2.0)
        if np.abs(np.linalg.eigvalsh(S)).min() < 1e-3:
            continue
        H = _sym(rng, 5)
        H /= np.linalg.norm(H)
        h = 1e-6

        def proj(M):
            dec = eig_sym(M, zero_tol=0.0)
            return (dec.U * np.maximum(dec.lam, 0.0)) @ dec.U.T

        fd = (proj(S + h * H) - proj(S - h * H)) / (2 * h)
        assert np.linalg.norm(dir_deriv_proj(S, H) - fd) <= 1e-6


def test_dir_deriv_shape_check():
    with pytest.raises(ValueError):
        dir_deriv_proj(np.eye(3), np.eye(4))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 6))
        inst = gen_random_slater(n, m, seed=int(rng.integers(0, 10_000)))
        y = rng.standard_normal(m)
        Y = inst.W + inst.map.adjoint(y)
        if np.abs(np.linalg.eigvalsh(Y)).min() < 1e-4:
            continue
        J = jacobian(inst, y)
        h = 1e-6
        worst = 0.0
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            Fp, _ = residual_F(inst, y + e)
            Fm, _ = residual_F(inst, y - e)
            col = (Fp - Fm) / (2 * h)
            denom = max(np.linalg.norm(J[:, j]), 1.0)
            worst = max(worst, np.linalg.norm(col - J[:, j]) / denom)
        assert worst <= 1e-5
        checked += 1


def _dense_newton_matrix(amap, dec):
    # the dense reference: every G_i = U'(A_i U) from the full matrix stack
    U, n = dec.U, dec.n
    G = np.matmul(U.T[None, :, :], np.matmul(smat(amap.rows), U))
    Gf = G.reshape(amap.m, n * n)
    J = (Gf * _weights(dec.lam, dec.p, 0).ravel()) @ Gf.T
    return 0.5 * (J + J.T)


def _mixed_point(amap, rng):
    # a decomposition with 0 < p < n, so the mixed-block weights are in play
    for _ in range(50):
        dec = eig_sym(_sym(rng, amap.n) + amap.adjoint(rng.standard_normal(amap.m)))
        if 0 < dec.p < dec.n:
            return dec
    raise AssertionError("no point with 0 < p < n")


def _is_diagonal(amap):
    return amap.diagonal_rows is not None


def _assert_matches_dense(amap, dec):
    # the Hadamard form sums in another order than the dense product, so it
    # is held to a few ulps of max|J| instead of bit identity
    J = _jacobian_from_dec(amap, dec)
    ref = _dense_newton_matrix(amap, dec)
    assert np.abs(J - ref).max() <= 1e-14 * np.abs(J).max()
    assert np.array_equal(J, J.T)
    eig_J, _ = jacobian_spectrum(J)
    assert eig_J[-1] >= -1e-12 * max(eig_J[0], 1.0)
    # J d against the map applied to the directional derivative, which never
    # forms a Newton matrix; with no zero bucket both use the same weights
    assert dec.z == 0
    rng = np.random.default_rng(13)
    for d in rng.standard_normal((3, amap.m)):
        Jd = amap.apply(_dir_deriv_from_dec(dec, amap.adjoint(d)))
        assert np.linalg.norm(J @ d - Jd) <= 1e-13 * max(np.abs(J).max(), 1.0) * np.linalg.norm(d)


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_matrix_from_supports_is_bitwise_the_dense_one(family):
    inst = generate(GeneratorSpec(family=family, n=4, seed=0))
    dec = _mixed_point(inst.map, np.random.default_rng(11))
    if _is_diagonal(inst.map):
        _assert_matches_dense(inst.map, dec)
    else:
        assert np.array_equal(_jacobian_from_dec(inst.map, dec), _dense_newton_matrix(inst.map, dec))


def test_only_the_all_diagonal_families_leave_the_dense_product():
    bitwise = [
        f for f in FAMILIES if not _is_diagonal(generate(GeneratorSpec(family=f, n=4, seed=0)).map)
    ]
    assert bitwise == [f for f in FAMILIES if f not in ("Elliptope", "DualGapFace")]


def _point_with_spectrum(lam, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return eig_sym((Q * lam) @ Q.T)


@pytest.mark.parametrize(
    "lam",
    [
        [3.0, 1.5, 0.7, -0.2, -1.0, -2.5, -4.0],  # p = 3, q = 4
        [2.0, -0.3, -0.8, -1.1, -1.9, -2.4, -3.0],  # p = 1
        [2.0, 1.6, 1.1, 0.9, 0.4, 0.2, -1.0],  # q = 1
        [-0.1, -0.3, -0.8, -1.1, -1.9, -2.4, -3.0],  # p = 0
        [3.0, 2.6, 2.1, 1.9, 1.4, 1.2, 0.5],  # p = n
    ],
)
def test_diagonal_newton_matrix_matches_the_dense_one(lam):
    # one nonzero per row, at scrambled diagonal positions (one repeated),
    # with non-unit and negative scales, and m < n
    rng = np.random.default_rng(14)
    n = len(lam)
    mats = []
    for k, beta in zip([5, 1, 6, 2, 5], [1.7, -0.5, 1.0, 1.7, -0.5]):
        A = np.zeros((n, n))
        A[k, k] = beta
        mats.append(A)
    amap = LinearMap.from_matrices(mats)
    assert _is_diagonal(amap)
    _assert_matches_dense(amap, _point_with_spectrum(lam, rng))


def test_map_with_an_empty_row_keeps_the_dense_product():
    rng = np.random.default_rng(15)
    n = 5
    diag, scaled = np.zeros((n, n)), np.zeros((n, n))
    diag[3, 3] = 1.0
    scaled[0, 0] = 1.7
    amap = LinearMap.from_matrices([diag, np.zeros((n, n)), scaled])
    assert amap.diagonal_rows is None
    dec = _point_with_spectrum([2.0, 1.0, -0.5, -1.5, -3.0], rng)
    assert np.array_equal(_jacobian_from_dec(amap, dec), _dense_newton_matrix(amap, dec))


def test_newton_matrix_from_mixed_supports_is_bitwise_the_dense_one():
    rng = np.random.default_rng(12)
    n = 6
    full = _sym(rng, n)
    diag = np.zeros((n, n))
    diag[4, 4] = 1.7
    off = np.zeros((n, n))
    off[1, 3] = off[3, 1] = -0.6
    block = np.zeros((n, n))
    block[np.ix_([0, 2, 5], [0, 2, 5])] = _sym(rng, 3)
    # rows out of support order: one entry, full, one off-diagonal pair,
    # all zero, a 3-by-3 block, full
    mats = [diag, full, off, np.zeros((n, n)), block, _sym(rng, n)]
    amap = LinearMap.from_matrices(mats)
    dec = _mixed_point(amap, rng)
    assert np.array_equal(_jacobian_from_dec(amap, dec), _dense_newton_matrix(amap, dec))


def test_elliptope_solve_never_builds_the_dense_stack(monkeypatch):
    shapes = []

    def recording_smat(v):
        shapes.append(np.shape(v))
        return smat(v)

    inst = gen_elliptope(12, seed=3)
    monkeypatch.setattr(model, "smat", recording_smat)
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SOLVED
    assert shapes and all(len(shape) == 1 for shape in shapes)
    assert inst.map._mats is None


def test_elliptope_solve_never_forms_the_congruence_stack(monkeypatch):
    def refuse(self):
        raise AssertionError("matrix stack built for an all-diagonal map")

    kernel_calls = []
    kernel = ssnewton._diagonal_newton_matrix
    monkeypatch.setattr(LinearMap, "matrices", refuse)
    monkeypatch.setattr(
        ssnewton, "_diagonal_newton_matrix", lambda *a: kernel_calls.append(a) or kernel(*a)
    )
    trace = newton_solve(gen_elliptope(30, seed=2))
    assert trace.status == NewtonStatus.SOLVED
    assert kernel_calls


@pytest.mark.parametrize("seed", range(1000, 1005))
def test_elliptope_solves_keep_their_iteration_count(seed):
    trace = newton_solve(gen_elliptope(100, seed=seed))
    assert trace.status == NewtonStatus.SOLVED
    assert trace.k_final == 19


def test_jacobian_is_psd_along_the_iteration():
    inst = gen_random_slater(8, 10, seed=3)
    trace = newton_solve(inst)
    for it in trace.iterates:
        assert it.eig_J[-1] >= -1e-9 * max(it.eig_J[0], 1.0)


def test_iterates_satisfy_projection_split():
    inst = gen_random_slater(7, 9, seed=4)
    trace = newton_solve(inst)
    w_scale = 1.0 + np.linalg.norm(inst.W)
    for it in trace.iterates:
        Y = inst.W + inst.map.adjoint(it.y)
        dec = eig_sym(Y, zero_tol=0.0)
        X = (dec.U * np.maximum(dec.lam, 0.0)) @ dec.U.T
        Z = X - Y
        assert np.linalg.norm(X - Z - Y) <= 1e-13 * w_scale
        assert abs(np.sum(X * Z)) <= 1e-12 * max(1.0, np.linalg.norm(X) ** 2)


def test_jacobian_spectrum_floors_singular_ratio():
    eigs, cond = jacobian_spectrum(np.diag([1.0, 0.0]))
    assert eigs[0] == 1.0
    assert cond >= 1e299
    assert np.isfinite(cond)


def test_solver_converges_on_strictly_feasible_instances():
    for seed in range(3):
        inst = gen_random_slater(10, 12, seed=seed)
        trace = newton_solve(inst)
        assert trace.status == NewtonStatus.SOLVED
        assert trace.relres_final <= 1e-13


def test_solver_starts_from_given_point():
    inst = gen_elliptope(6, seed=5)
    ref = newton_solve(inst)
    warm = newton_solve(inst, y0=ref.triple.y)
    assert warm.status == NewtonStatus.SOLVED
    assert warm.k_final == 0


def test_conditioning_stop_reports_degeneracy_suspicion():
    inst = gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0)
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SUSPECTED_DEGENERATE
    assert trace.cond_final >= 1e10
    assert 1e-9 <= trace.relres_final <= 1e-6


def test_negative_iteration_cap_is_refused():
    inst = gen_random_slater(5, 4, seed=0)
    with pytest.raises(ValueError, match="max_iter"):
        newton_solve(inst, opts=NewtonOptions(max_iter=-1))


def test_iteration_cap_status():
    inst = gen_dual_unattained(2, seed=0)
    trace = newton_solve(inst, opts=NewtonOptions(max_iter=120))
    assert trace.status == NewtonStatus.ITER_LIMIT
    assert trace.k_final == 120


def test_divergence_signature_without_strict_feasibility():
    # dual iterates grow without bound once past the transient; compare the
    # late window against the first fifty iterations
    opts = NewtonOptions(max_iter=600, cond_budget=400.0)
    for inst in (
        gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0),
        gen_dual_unattained(2, seed=0),
    ):
        trace = newton_solve(inst, opts=opts)
        assert trace.status == NewtonStatus.ITER_LIMIT
        ys = np.array([np.linalg.norm(it.y) for it in trace.iterates])
        Zs = np.array(
            [
                np.linalg.norm(
                    np.minimum(
                        np.linalg.eigvalsh(inst.W + inst.map.adjoint(it.y)), 0.0
                    )
                )
                for it in trace.iterates
            ]
        )
        q = len(ys) // 4
        assert np.all(np.diff(ys[50:]) >= -1e-9 * ys[50:-1])
        assert ys[-q:].max() >= 10.0 * ys[:50].max()
        assert Zs[-q:].max() >= 10.0 * Zs[:50].max()


def test_trace_csv_layout():
    inst = gen_random_slater(5, 6, seed=6)
    trace = newton_solve(inst)
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["iter", "relres", "cond"]
    assert header[3:] == [f"eigJ_{i}" for i in range(1, inst.m + 1)]
    assert len(lines) == len(trace.iterates) + 1
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (len(trace.iterates), 3 + inst.m)
    # 17 significant digits round-trip the stored values exactly
    assert data[-1, 1] == trace.relres_final


def test_trace_csv_is_identical_across_runs():
    inst = gen_random_slater(5, 6, seed=7)
    a = trace_to_csv(newton_solve(inst))
    b = trace_to_csv(newton_solve(inst))
    assert a == b
