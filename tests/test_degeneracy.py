import numpy as np
import pytest

from spectraproj.degeneracy import (
    RANK_TOL,
    is_nondegenerate,
    jacobian_degeneracy_crosscheck,
)
from spectraproj.facialred import solve_aux_gauss_newton
from spectraproj.instances import (
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
)
from spectraproj.model import BapInstance, LinearMap
from spectraproj.ssnewton import newton_solve
from spectraproj.symcore import smat, svec, tri_len


def test_L_shape_and_rank_bound():
    inst = gen_random_slater(6, 5, seed=0)
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    rep = is_nondegenerate(inst, Xhat)
    # Xhat is positive definite, so the V block is everything and L is
    # tri_len(6)-by-5: five singular values, and a rank of at most five
    assert rep.rank_X == 6
    assert rep.singular_values.shape == (5,)
    assert rep.rank_L <= 5


def test_interior_points_are_nondegenerate():
    for seed in range(4):
        inst = gen_random_slater(7, 6, seed=seed)
        Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
        rep = is_nondegenerate(inst, Xhat)
        assert rep.verdict == "Nondegenerate"
        assert rep.rank_L == inst.m
        assert rep.margin > RANK_TOL


def test_every_point_without_interior_is_degenerate():
    for seed in range(3):
        inst = gen_planted_noslater(
            10, 7, sd_target=1, iips_target=1, support_size=5, seed=seed
        )
        Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
        rep = is_nondegenerate(inst, Xhat)
        assert rep.verdict == "Degenerate"
        assert rep.rank_L < inst.m


def test_certificate_makes_restricted_constraints_dependent():
    inst = gen_planted_noslater(
        12, 7, sd_target=1, iips_target=1, support_size=5, seed=1
    )
    cert = solve_aux_gauss_newton(inst)
    assert cert is not None
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    w, U = np.linalg.eigh(Xhat)
    V = U[:, w > 1e-8 * w.max()]
    M = inst.map.adjoint(cert.lam)
    assert np.linalg.norm(M @ V) <= 1e-9 * max(1.0, np.linalg.norm(M))


def test_strict_complementarity_flag():
    inst = gen_elliptope(6, seed=2)
    trace = newton_solve(inst)
    rep = is_nondegenerate(inst, trace.triple.X, Z=trace.triple.Z)
    assert rep.rank_Z is not None
    assert rep.strict_complementarity == (rep.rank_X + rep.rank_Z == inst.n)


def test_verdict_constant_on_relative_interior_of_a_face():
    # restrict the unit-diagonal body to a fixed rank-3 face and sample
    # points in its relative interior; the verdict may not flip inside
    rng = np.random.default_rng(3)
    n, r = 4, 3
    G = rng.standard_normal((n, r))
    X0 = G @ G.T
    d = 1.0 / np.sqrt(np.diag(X0))
    X0 = X0 * np.outer(d, d)
    w, U = np.linalg.eigh(X0)
    V = U[:, w > 1e-10]
    assert V.shape == (n, r)
    R0 = V.T @ X0 @ V
    rows = np.array([svec(np.outer(V[i], V[i])) for i in range(n)])
    _, _, Vt = np.linalg.svd(rows)
    null = Vt[np.linalg.matrix_rank(rows):]
    assert null.shape[0] >= 1
    inst = gen_elliptope(n, seed=3)
    verdicts = set()
    for t in (-0.05, 0.0, 0.04):
        R = R0 + t * smat(null[0])
        assert np.linalg.eigvalsh(R).min() > 0  # still in the relative interior
        X = V @ R @ V.T
        verdicts.add(is_nondegenerate(inst, X).verdict)
    assert len(verdicts) == 1


def test_rank_test_refuses_infeasible_points():
    inst = gen_elliptope(5, seed=4)
    with pytest.raises(ValueError, match="linear constraints"):
        is_nondegenerate(inst, np.eye(5) * 2.0)
    with pytest.raises(ValueError, match="psd"):
        is_nondegenerate(inst, np.diag([1.0, 1.0, 1.0, 1.0, -1.0]))


def test_rank_test_and_crosscheck_refuse_a_nan_point():
    # every comparison with NaN is false, so "pf > tol" would let it through
    inst = gen_elliptope(2)
    X = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ValueError):
        is_nondegenerate(inst, X)
    cc = jacobian_degeneracy_crosscheck(inst, newton_solve(inst), X=X)
    assert cc.report is None and cc.agree is None and cc.inconclusive


def test_crosscheck_on_a_clean_solve():
    inst = gen_elliptope(8, seed=5)
    trace = newton_solve(inst)
    cc = jacobian_degeneracy_crosscheck(inst, trace)
    assert not cc.inconclusive
    assert cc.agree
    assert cc.report.verdict == "Nondegenerate"
    assert cc.jacobian_nonsingular


def test_crosscheck_flags_infeasible_terminal_iterate():
    inst = gen_vontope(3, seed=0, post_fr=True, w_mode="rank1")
    trace = newton_solve(inst)
    cc = jacobian_degeneracy_crosscheck(inst, trace)
    assert cc.inconclusive
    assert "infeasible" in cc.reason


def test_crosscheck_with_known_optimum_override():
    inst = gen_vontope(3, seed=0, post_fr=True, w_mode="rank1")
    trace = newton_solve(inst)
    vertex = smat(np.asarray(inst.meta["planted"]["vertex"]))
    cc = jacobian_degeneracy_crosscheck(inst, trace, X=vertex)
    assert cc.report.verdict == "Degenerate"
    assert not cc.jacobian_nonsingular
    assert cc.agree


def test_crosscheck_report_serializes():
    inst = gen_elliptope(5, seed=6)
    trace = newton_solve(inst)
    d = jacobian_degeneracy_crosscheck(inst, trace).to_dict()
    for key in ("verdict", "rank_L", "agree", "inconclusive", "cond_J", "sc"):
        assert key in d


def test_zero_instance_edge():
    # a single vacuous constraint on a 1x1 cone: X = [0]
    inst = BapInstance(
        map=LinearMap(n=1, rows=np.array([[1.0]])), b=np.zeros(1), W=np.eye(1)
    )
    rep = is_nondegenerate(inst, np.zeros((1, 1)))
    assert rep.rank_X == 0
    assert rep.verdict == "Degenerate"


def _whole_stack_L(inst, V, Vbar):
    mats = smat(inst.map.rows)
    top = svec(V.T @ mats @ V)
    mid = np.sqrt(2.0) * (V.T @ mats @ Vbar).reshape(inst.m, V.shape[1] * Vbar.shape[1])
    return np.hstack([top, mid]).T


@pytest.mark.parametrize("n, r, m", [(6, 5, 25), (6, 6, 30), (8, 3, 12), (5, 0, 4)])
def test_sigma_L_are_the_singular_values_of_L(n, r, m):
    # (6, 5, 25): L is 20-by-25 and the factor 25-by-30, so the factor has
    # five more singular values than L, all of them rounding
    rng = np.random.default_rng(10 * n + r)
    amap = LinearMap(n=n, rows=rng.standard_normal((m, tri_len(n))))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    X = (Q[:, :r] * np.linspace(2.0, 1.0, r)) @ Q[:, :r].T
    inst = BapInstance(map=amap, b=amap.apply(X), W=np.eye(n))
    rep = is_nondegenerate(inst, X)
    assert rep.rank_X == r
    sv = np.linalg.svd(_whole_stack_L(inst, Q[:, :r], Q[:, r:]), compute_uv=False)
    assert rep.singular_values.shape == sv.shape == (min(m, tri_len(r) + r * (n - r)),)
    if sv.size:
        assert np.max(np.abs(rep.singular_values - sv)) <= 1e-13 * sv[0]
    assert rep.rank_L == min(m, sv.size) and (rep.verdict == "Nondegenerate") == (sv.size >= m)
