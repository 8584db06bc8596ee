import io
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spectraproj import model, ssnewton, symcore
from spectraproj.cli import _suite_cells
from spectraproj.degeneracy import _rank
from spectraproj.instances import (
    FAMILIES,
    FIXTURE_FAMILIES,
    GeneratorSpec,
    fixture_dual_gap_face,
    gen_dual_unattained,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    generate,
    noslater_suite_instance,
)
from spectraproj.model import LinearMap, residual_F
from spectraproj.ssnewton import (
    NewtonIterate,
    NewtonOptions,
    NewtonStatus,
    NewtonTrace,
    _dir_deriv_from_dec,
    _jacobian_from_dec,
    _leading_gram_factor,
    _weights,
    dir_deriv_proj,
    jacobian,
    jacobian_spectrum,
    newton_solve,
    trace_to_csv,
)
from spectraproj.symcore import BLOCK_DOUBLES, eig_sym, project_psd, smat, svec


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


def test_weights_stay_in_the_unit_interval_at_a_positive_zero_bucket():
    # eig_sym puts 9e-11 in the zero bucket; folded into the later entries it
    # pairs with 1.5e-10 at the divided difference of max(., 0), which is 1
    lam = np.array([1.0, 1.5e-10, 9e-11, -1.0])
    dec = _point_with_spectrum(lam, np.random.default_rng(5))
    assert (dec.p, dec.z) == (2, 1)
    w = _weights(dec.lam, dec.p, 0)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert w[1, 2] == 1.0
    assert w[0, 3] == pytest.approx(0.5)
    # 0 <= P' <= I, so the Newton matrix lies between 0 and the Gram matrix,
    # on the all-diagonal and on the dense kernel
    for amap in (gen_elliptope(4, seed=1).map, gen_random_slater(4, 6, seed=1).map):
        J = _jacobian_from_dec(amap, dec)
        assert np.linalg.eigvalsh(J)[0] >= -1e-15
        assert np.linalg.eigvalsh(amap.gram - J)[0] >= -1e-15


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


def _assert_close_to_dense(amap, dec):
    # the Hadamard form and the min(p, q)-sided Gram factor both sum in another
    # order than the dense product, so they are held to a few ulps of max|J|
    # instead of bit identity
    J = _jacobian_from_dec(amap, dec)
    ref = _dense_newton_matrix(amap, dec)
    assert np.abs(J - ref).max() <= 1e-14 * np.abs(J).max()
    assert np.array_equal(J, J.T)
    return J


def _assert_matches_dense(amap, dec):
    J = _assert_close_to_dense(amap, dec)
    # the complement form R R' - Kc Kc' is not psd by construction
    eig_J, _ = jacobian_spectrum(J)
    assert eig_J[-1] >= -1e-12 * max(eig_J[0], 1.0)
    # J d against the map applied to the directional derivative, which never
    # forms a Newton matrix; with no zero bucket both use the same weights
    assert dec.z == 0
    rng = np.random.default_rng(13)
    for d in rng.standard_normal((3, amap.m)):
        Jd = amap.apply(_dir_deriv_from_dec(dec, amap.adjoint(d)))
        assert np.linalg.norm(J @ d - Jd) <= 1e-13 * max(np.abs(J).max(), 1.0) * np.linalg.norm(d)


def _family_instance(family):
    return generate(GeneratorSpec(family=family, n=None if family in FIXTURE_FAMILIES else 4))


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_matrix_from_supports_is_bitwise_the_dense_one(family):
    inst = _family_instance(family)
    dec = _mixed_point(inst.map, np.random.default_rng(11))
    _assert_matches_dense(inst.map, dec)


def test_only_the_all_diagonal_families_leave_the_dense_product():
    gram = [f for f in FAMILIES if not _is_diagonal(_family_instance(f).map)]
    assert gram == [f for f in FAMILIES if f not in ("Elliptope", "DualGapFace")]


def _point_with_spectrum(lam, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return eig_sym((Q * lam) @ Q.T)


def _scrambled_diagonal_map(n):
    # one nonzero per row, at scrambled diagonal positions (5 twice), with
    # non-unit and negative scales, and m < n
    mats = []
    for k, beta in zip([5, 1, 6, 2, 5], [1.7, -0.5, 1.0, 1.7, -0.5]):
        A = np.zeros((n, n))
        A[k, k] = beta
        mats.append(A)
    return LinearMap.from_matrices(mats)


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
    rng = np.random.default_rng(14)
    amap = _scrambled_diagonal_map(len(lam))
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
    _assert_matches_dense(amap, _point_with_spectrum([2.0, 1.0, -0.5, -1.5, -3.0], rng))


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
    _assert_matches_dense(amap, _mixed_point(amap, rng))


@pytest.mark.parametrize("m", [9, 21])
@pytest.mark.parametrize("p", range(1, 6))
def test_gram_factor_matches_the_dense_one_on_either_side(p, m):
    # n = 6, so p < q, p = q and p > q all occur, and m = 21 is every svec row
    rng = np.random.default_rng(100 * m + p)
    amap = gen_random_slater(6, m, seed=p).map
    lam = np.concatenate([np.linspace(3.0, 0.4, p), np.linspace(-0.3, -2.5, 6 - p)])
    _assert_matches_dense(amap, _point_with_spectrum(lam, rng))


@pytest.mark.parametrize("zero", [0.0, 1e-12, -1e-12])
@pytest.mark.parametrize("p", [2, 4])
def test_gram_factor_with_a_zero_bucket_matches_the_dense_one(p, zero):
    # two eigenvalues inside the zero threshold, on the leading (p = 2) and the
    # complement (p = 4) side; above zero they weigh 1 against the positive
    # bucket and 0 on the reversed spectrum, so either form holds
    rng = np.random.default_rng(p)
    amap = gen_random_slater(7, 12, seed=p).map
    lam = np.concatenate([np.linspace(3.0, 0.5, p), [zero, zero / 2], np.linspace(-0.4, -2.0, 5 - p)])
    dec = _point_with_spectrum(lam, rng)
    assert (dec.p, dec.z) == (p, 2)
    _assert_close_to_dense(amap, dec)


@pytest.mark.parametrize("p", [15, 45])
def test_gram_factor_assembly_stays_below_one_stack(p):
    # the factor is m*n*min(p, q) doubles, well below one more m-by-n^2 stack
    amap = gen_random_slater(60, 120, seed=0).map
    lam = np.concatenate([np.linspace(3.0, 0.5, p), np.linspace(-0.5, -2.0, 60 - p)])
    dec = _point_with_spectrum(lam, np.random.default_rng(0))
    # the cached stack and Gram matrix are built outside the traced window
    amap.matrices(), amap.gram
    tracemalloc.start()
    try:
        _jacobian_from_dec(amap, dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * amap.m * amap.n**2 * 8


def test_gram_factor_peak_is_the_factor_plus_one_block():
    # n=100, m=200, s=50: the stack is 16 MB and the factor 8 MB; forming all
    # of A_i V_s before V' (A_i V_s) would hold a second 8 MB
    amap = gen_random_slater(100, 200, seed=0).map
    lam = np.concatenate([np.linspace(3.0, 0.5, 50), np.linspace(-0.5, -2.0, 50)])
    dec = _point_with_spectrum(lam, np.random.default_rng(0))
    amap.matrices(), amap.gram
    tracemalloc.start()
    try:
        _jacobian_from_dec(amap, dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor = amap.m * amap.n * 50 * 8
    # slack: the weights, J and its symmetrization, each under 0.4 MB
    assert peak <= factor + BLOCK_DOUBLES * 8 + 2**20


def test_newton_solve_streams_the_stack_one_block_at_a_time(monkeypatch):
    # n=100, m=200: the stack would be 16 MB; the map keeps only its rows
    n, m = 100, 200
    inst = gen_random_slater(n, m, seed=0)
    rows_per_smat = []

    def recording_smat(v, out=None):
        rows_per_smat.append(len(v) if np.ndim(v) == 2 else 1)
        return smat(v, out=out)

    monkeypatch.setattr(model, "smat", recording_smat)
    tracemalloc.start()
    try:
        trace = newton_solve(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.status == NewtonStatus.SOLVED
    assert max(rows_per_smat) == BLOCK_DOUBLES // n**2
    assert inst.map._mats is None
    # the largest factor, at s = min(p, n - p) = n/2, and the blocks B and C
    factor = m * n * (n // 2) * 8
    assert peak <= factor + 2 * BLOCK_DOUBLES * 8 + 2**20


def _one_shot_gram_factor(mats, V, lam, s):
    m, n = mats.shape[:2]
    C = (mats.reshape(m * n, n) @ V[:, :s]).reshape(m, n, s)
    G = np.matmul(V.T, C)
    G[:, s:] *= np.sqrt(2.0 * _weights(lam, s, 0)[s:, :s])
    return G.reshape(m, n * s)


@pytest.mark.parametrize(
    "m, p", [(300, 25), (300, 45), (300, 0), (0, 25)], ids=["25", "45", "s0", "m0"]
)
def test_blocked_gram_factor_is_bitwise_the_one_shot_factor(m, p):
    # m = 300 streams 4 blocks of 72 rows and a last one of 12; the rank test
    # asks for s = 0 at X = 0, and a map can have no rows at all
    n = 60
    amap = LinearMap(n=n, rows=gen_random_slater(n, 300, seed=2).map.rows[:m])
    lam = np.concatenate([np.linspace(3.0, 0.5, p), np.linspace(-0.5, -2.0, n - p)])
    dec = _point_with_spectrum(lam, np.random.default_rng(1))
    mats = smat(amap.rows)  # a test-local whole stack; the map keeps none
    if p <= n - p:
        V, w, s = dec.U, dec.lam, p
    else:
        V, w, s = dec.U[:, ::-1], -dec.lam[::-1], n - p
    assert 300 % (BLOCK_DOUBLES // (n * n)) == 12
    K = _leading_gram_factor(amap, V, w, s)
    assert (amap._mats is None) == (m > 0)  # a stack within one block is cached
    assert K.shape == (m, n * s)
    assert K.tobytes() == _one_shot_gram_factor(mats, V, w, s).tobytes()


@pytest.mark.parametrize("suite", ["slater_table", "noslater_table", "ellip_vontope_table"])
def test_newton_factor_and_unit_weight_factor_have_one_rank(suite):
    # J = K_w K_w' and L'L = K_1 K_1' with K_w = K_1 D, D diagonal and
    # positive: at the final split of Y of every solve of a table suite both
    # factors have the same numerical rank
    cells = _suite_cells(suite, 2, 0)
    for make in (make for cell in cells for make in cell["makers"]):
        inst = make()
        trace = newton_solve(inst)
        dec = eig_sym(inst.W + inst.map.adjoint(trace.triple.y))
        n, p = dec.n, dec.p
        unit = np.repeat([1.0, 0.0], [p, n - p])
        K_w = _leading_gram_factor(inst.map, dec.U, dec.lam, p)
        K_1 = _leading_gram_factor(inst.map, dec.U, unit, p)
        sv_w, sv_1 = (np.linalg.svd(K, compute_uv=False) for K in (K_w, K_1))
        assert _rank(sv_w) == _rank(sv_1), inst.meta.get("family")


@pytest.mark.parametrize("seed", range(4))
def test_slater_solves_keep_their_iteration_count(seed):
    trace = newton_solve(gen_random_slater(100, 200, seed=seed))
    assert trace.status == NewtonStatus.SOLVED
    assert trace.k_final == 4


def _dykstra(inst, tol=1e-12, max_iter=20000):
    # Higham's (2002) alternating projections: the psd projection carries
    # Dykstra's correction dS, the affine projection needs none
    rows = inst.map.rows
    gram = scipy.linalg.cho_factor(inst.map.gram)
    Y, dS = inst.W, np.zeros_like(inst.W)
    for k in range(max_iter):
        R = Y - dS
        X, _ = project_psd(R)
        dS = X - R
        x = svec(X)
        Y_next = smat(x - rows.T @ scipy.linalg.cho_solve(gram, rows @ x - inst.b))
        step = np.linalg.norm(Y_next - Y)
        Y = Y_next
        if step <= tol * np.linalg.norm(Y):
            return Y
    raise AssertionError(f"Dykstra did not converge in {max_iter} iterations")


@pytest.mark.parametrize(
    "inst",
    [
        pytest.param(gen_random_slater(20, 40, seed=3), id="RandomSlater"),
        pytest.param(gen_elliptope(30, seed=1), id="Elliptope"),
        pytest.param(gen_vontope(4, seed=0, post_fr=True), id="VontopePost"),
    ],
)
def test_newton_point_is_the_dykstra_point(inst):
    # an oracle that shares nothing with the Newton step but project_psd
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SOLVED
    X = trace.triple.X
    assert np.linalg.norm(X - _dykstra(inst)) <= 1e-8 * np.linalg.norm(X)


def test_elliptope_solve_never_builds_the_dense_stack(monkeypatch):
    shapes = []

    def recording_smat(v):
        shapes.append(np.shape(v))
        return smat(v)

    inst = gen_elliptope(12, seed=3)
    monkeypatch.setattr(model, "smat", recording_smat)
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SOLVED
    assert all(len(shape) == 1 for shape in shapes)
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
    assert trace.k_final == 7


@pytest.mark.parametrize(
    "n, seed", [(100, s) for s in range(5)] + [(200, s) for s in range(5)] + [(300, 0)]
)
def test_elliptope_solves_in_ten_steps_at_any_order(n, seed):
    # with reg = 0.2*||F|| unscaled these took 18, 35 and 52 steps at
    # n = 100, 200 and 300
    trace = newton_solve(gen_elliptope(n, seed=seed))
    assert trace.status == NewtonStatus.SOLVED
    assert trace.k_final <= 10


def test_elliptope_regularization_scale():
    # ||A||^2 = 1 and ||b|| = sqrt(100) = 10
    assert ssnewton._reg_scale(gen_elliptope(100, seed=0).map, 11.0) == 1.0 / 11.0


def test_diagonal_regularization_scale_reads_only_the_diagonal(monkeypatch):
    # rows sharing a k form one rank-one block of A A*: 1.7^2 + 0.5^2 at k = 5,
    # above 1, so min(1, ||A||^2) = 1; scaled by 1/2 the block reads 0.785
    def refuse(self):
        raise AssertionError("matrix stack built for an all-diagonal map")

    amap = _scrambled_diagonal_map(7)
    half = LinearMap(n=7, rows=0.5 * amap.rows)
    monkeypatch.setattr(LinearMap, "matrices", refuse)
    assert ssnewton._reg_scale(amap, 10.0) == 1.0 / 10.0
    rho = ssnewton._reg_scale(half, 10.0)
    assert "gram" not in vars(amap) and "gram" not in vars(half)
    assert rho == pytest.approx(np.linalg.eigvalsh(half.gram)[-1] / 10.0, rel=1e-15)
    assert rho == pytest.approx((1.7**2 + 0.5**2) / 4.0 / 10.0, rel=1e-15)


def test_map_without_rows_solves_at_once():
    inst = model.BapInstance(map=LinearMap(n=3, rows=np.zeros((0, 6))), b=np.zeros(0), W=-np.eye(3))
    trace = newton_solve(inst)
    assert (trace.status, trace.k_final) == (NewtonStatus.SOLVED, 0)
    assert np.array_equal(trace.triple.X, np.zeros((3, 3)))


def test_regularization_scale_of_a_dense_map():
    rows = gen_random_slater(6, 9, seed=2).map.rows
    amap = LinearMap(n=6, rows=rows)
    top = np.sum(rows**2, axis=1).max()
    assert top >= 1.0
    # a row of norm at least 1 decides min(1, ||A||^2) = 1 without the Gram matrix
    assert ssnewton._reg_scale(amap, 0.5 * top) == 1.0 / (0.5 * top)
    assert "gram" not in vars(amap)
    sigma = np.linalg.eigvalsh(rows @ rows.T)[-1]
    assert ssnewton._reg_scale(amap, 2.0 * sigma) == 1.0 / (2.0 * sigma)
    assert ssnewton._reg_scale(LinearMap(n=6, rows=1e-3 * rows), 1.0) == pytest.approx(
        1e-6 * sigma, rel=1e-14
    )


def _reference_lm_parameter(rho, normF, b_scale):
    # the reference protocol's 0.2*||F||, which the solver took wherever
    # ||A||^2 >= 1 + ||b|| before it regularized by the relative residual
    return max(0.2 * normF, 1e-14)


def test_relative_residual_regularization_keeps_the_small_map_rule():
    # ||A||^2 <= 1 and ||F|| <= 1 + ||b||: 0.2 * (||A||^2 / (1 + ||b||)) * ||F||
    inst = gen_elliptope(30, seed=2)
    b_scale = 1.0 + np.linalg.norm(inst.b)
    rho = ssnewton._reg_scale(inst.map, b_scale)
    assert rho == min(1.0, 1.0 / b_scale)
    for normF in (0.0, 1e-9, 0.3, b_scale):
        assert ssnewton._lm_parameter(rho, normF, b_scale) == max(0.2 * rho * normF, 1e-14)
    # above 1 + ||b|| the parameter stays at its relres = 1 value
    assert ssnewton._lm_parameter(rho, 4.0 * b_scale, b_scale) == 0.2 * rho * b_scale


def test_relative_residual_regularization_leaves_the_genuine_stall_early():
    # the singularity_demo instance (test_03's), a genuine stall
    inst = gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0)
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SUSPECTED_DEGENERATE
    assert trace.cond_final >= 1e10
    assert trace.k_final <= 100


@pytest.mark.parametrize(
    "inst, outcome",
    [
        (gen_random_slater(20, 30, seed=3), ("Solved", 5, "2.5868e-15")),
        (
            gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0),
            ("SuspectedDegenerate", 278, "4.7108e-07"),
        ),
        (noslater_suite_instance(10, 0), ("SuspectedDegenerate", 5, "6.1587e-08")),
        (fixture_dual_gap_face(), ("IterLimit", 2000, "1.0428e-12")),
    ],
    ids=["RandomSlater20", "PlantedNoSlater15", "NoslaterSuite10", "DualGapFace"],
)
def test_regularization_scale_of_one_keeps_every_byte(inst, outcome, monkeypatch):
    # ||A||^2 >= 1 + ||b|| on each (DualGapFace ties at 1), where the solver
    # stepped with the reference 0.2*||F|| before it regularized by the
    # relative residual; patched back in, it keeps each of those outcomes
    # (PlantedNoSlater15 is the singularity_demo before-row)
    monkeypatch.setattr(ssnewton, "_lm_parameter", _reference_lm_parameter)
    trace = newton_solve(inst)
    assert (trace.status.value, trace.k_final, f"{trace.relres_final:.4e}") == outcome


def test_newton_iteration_frees_the_last_step_before_the_next_assembly(monkeypatch):
    # live bytes on entry to every Newton-matrix assembly: a later iteration
    # holds no more than the first, besides the trace's few vectors of
    # length m; keeping J, J + reg*I and its factor would add three m-by-m
    inst = gen_random_slater(60, 120, seed=1)
    m = inst.m
    live = []
    factor = ssnewton._leading_gram_factor

    def recording(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return factor(*args)

    monkeypatch.setattr(ssnewton, "_leading_gram_factor", recording)
    tracemalloc.start()
    try:
        trace = newton_solve(inst)
    finally:
        tracemalloc.stop()
    assert trace.status == NewtonStatus.SOLVED
    # a solved run stops before the Newton matrix of its last iterate
    assert len(live) == trace.k_final >= 3
    assert max(live[1:]) - live[0] < m * m * 8 // 4


def _count_newton_matrices(monkeypatch):
    calls = {"assembly": 0, "spectrum": 0}
    for attr, name in (("_jacobian_from_dec", "assembly"), ("jacobian_spectrum", "spectrum")):
        fn = getattr(ssnewton, attr)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ssnewton, attr, counted)
    return calls


def test_a_solved_run_forms_no_newton_matrix_at_its_last_iterate(monkeypatch):
    calls = _count_newton_matrices(monkeypatch)
    trace = newton_solve(gen_random_slater(12, 20, seed=5))
    assert trace.status == NewtonStatus.SOLVED and trace.k_final >= 2
    assert calls == {"assembly": trace.k_final, "spectrum": trace.k_final}


_READS = {
    "J": lambda trace: trace.J,
    "eig_J": lambda trace: trace.iterates[-1].eig_J,
    "cond_final": lambda trace: trace.cond_final,
    "csv": trace_to_csv,
}


@pytest.mark.parametrize(
    "order", list(itertools.permutations(_READS)), ids="-".join
)
def test_a_solved_trace_forms_its_last_newton_matrix_once_on_first_read(monkeypatch, order):
    inst = gen_random_slater(12, 20, seed=5)
    trace = newton_solve(inst)
    assert trace.status == NewtonStatus.SOLVED
    J = jacobian(inst, trace.triple.y)
    eig_J, cond = jacobian_spectrum(J)
    calls = _count_newton_matrices(monkeypatch)
    got = {name: _READS[name](trace) for name in order}
    assert calls == {"assembly": 1, "spectrum": 1}
    assert got["J"].tobytes() == trace.J.tobytes() == J.tobytes()
    assert got["eig_J"].tobytes() == eig_J.tobytes()
    assert got["cond_final"] == trace.iterates[-1].cond == cond
    last = [str(trace.k_final), format(trace.relres_final, ".17g"), format(cond, ".17g")]
    assert got["csv"].splitlines()[-1] == ",".join(last + [format(v, ".17g") for v in eig_J])
    assert calls == {"assembly": 1, "spectrum": 1}


@pytest.mark.parametrize(
    "inst, opts, status",
    [
        (gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0),
         NewtonOptions(), NewtonStatus.SUSPECTED_DEGENERATE),
        (gen_dual_unattained(2, seed=0), NewtonOptions(max_iter=120), NewtonStatus.ITER_LIMIT),
    ],
    ids=["stalled", "iter-limit"],
)
def test_an_unsolved_run_forms_the_newton_matrix_at_every_iterate(monkeypatch, inst, opts, status):
    calls = _count_newton_matrices(monkeypatch)
    trace = newton_solve(inst, opts=opts)
    assert trace.status == status
    iterates = len(trace.iterates)
    assert calls == {"assembly": iterates, "spectrum": iterates}
    trace_to_csv(trace)
    assert trace.cond_final == trace.iterates[-1].cond
    assert np.array_equal(trace.J, jacobian(inst, trace.triple.y))
    # jacobian() above is the one assembly the reads added
    assert calls == {"assembly": iterates + 1, "spectrum": iterates}


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


@pytest.mark.parametrize(
    "field, value",
    [("eps_final", np.inf), ("eps_final", 1.0), ("eps_final", -1.0), ("eps_final", np.nan),
     ("cond_budget", -1.0), ("cond_budget", np.nan)],
)
def test_a_tolerance_that_makes_the_status_meaningless_is_refused(field, value):
    # eps_final >= 1 declares the start solved; cond_budget < 0 stalls it at
    # k = 0; a negative or NaN eps_final can never be met
    inst = gen_elliptope(5, seed=0)
    with pytest.raises(ValueError, match=f"^{field} "):
        newton_solve(inst, opts=NewtonOptions(**{field: value}))


def test_the_tolerance_bounds_themselves_are_accepted():
    inst = gen_elliptope(5, seed=0)
    for opts in (NewtonOptions(eps_final=0.0, max_iter=3),
                 NewtonOptions(cond_budget=0.0), NewtonOptions(cond_budget=np.inf)):
        newton_solve(inst, opts=opts)


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


@pytest.mark.parametrize(
    "inst",
    [
        gen_random_slater(8, 12, seed=4),
        gen_elliptope(10, seed=2),
        gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0),
    ],
    ids=["RandomSlater8", "Elliptope10", "PlantedNoSlater15"],
)
def test_newton_iterates_do_not_depend_on_eigenvector_signs(inst, monkeypatch):
    opts = NewtonOptions(max_iter=50)
    lean = newton_solve(inst, opts=opts)
    calls, flipped = [], []

    def signed_eig_sym(S, zero_tol=symcore.DEFAULT_ZERO_TOL, normalize_sign=True):
        calls.append(normalize_sign)
        dec = symcore.eig_sym(S, zero_tol, normalize_sign=True)
        raw = symcore.eig_sym(S, zero_tol, normalize_sign=False)
        flipped.append(not np.array_equal(dec.U, raw.U))
        return dec

    monkeypatch.setattr(ssnewton, "eig_sym", signed_eig_sym)
    signed = newton_solve(inst, opts=opts)
    # the solver asks for raw signs, and the normalized ones do differ
    assert calls and not any(calls) and any(flipped)
    assert signed.status == lean.status
    assert len(signed.iterates) == len(lean.iterates)
    for a, b in zip(signed.iterates, lean.iterates):
        assert a.y.tobytes() == b.y.tobytes()
        assert (a.relres, a.cond, a.lam_min_X) == (b.relres, b.cond, b.lam_min_X)
        assert a.eig_J.tobytes() == b.eig_J.tobytes()
    for name in ("X", "y", "Z"):
        assert getattr(signed.triple, name).tobytes() == getattr(lean.triple, name).tobytes()
    assert signed.J.tobytes() == lean.J.tobytes()


def test_nan_anchor_fails_in_the_eigendecomposition():
    inst = gen_random_slater(5, 4, seed=0)
    inst.W[1, 2] = inst.W[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        newton_solve(inst)


def test_infinite_right_hand_side_fails_before_the_step():
    inst = gen_random_slater(5, 4, seed=0)
    inst.b[2] = np.inf
    # relres divides inf by inf on the way
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        newton_solve(inst)


def test_trace_csv_writes_each_value_as_format_17g():
    specials = np.array([-0.0, 5e-324, 1e308, np.inf, np.nan, 9751922431660104.0])
    iterates = [
        NewtonIterate(k=k, y=np.zeros(0), relres=r, cond=c, eig_J=np.roll(specials, k),
                      lam_min_X=0.0, wallclock=0.0)
        for k, (r, c) in enumerate(zip(specials, specials[::-1]))
    ]
    trace = NewtonTrace(iterates, NewtonStatus.ITER_LIMIT, None, NewtonOptions(), np.zeros((6, 6)))
    lines = ["iter,relres,cond," + ",".join(f"eigJ_{i}" for i in range(1, 7))]
    for it in iterates:
        vals = [str(it.k), format(it.relres, ".17g"), format(it.cond, ".17g")]
        vals += [format(v, ".17g") for v in it.eig_J]
        lines.append(",".join(vals))
    assert trace_to_csv(trace) == "\n".join(lines) + "\n"
