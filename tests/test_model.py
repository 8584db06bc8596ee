import numpy as np
import pytest

from spectraproj.instances import fixture_sd2_chain, gen_random_slater
from spectraproj.model import (
    BapInstance,
    InfeasibleManifoldError,
    KktTriple,
    LinearMap,
    dual_objective,
    dumps_json,
    instance_from_dict,
    instance_to_dict,
    kkt_residuals,
    load_instance,
    preprocess_surjective,
    primal_objective,
    residual_F,
    residual_F_face,
    save_instance,
)
from spectraproj.ssnewton import newton_solve
from spectraproj.symcore import smat, svec, tri_len


def _rand_map(n, m, rng):
    rows = np.array([svec(0.5 * (G + G.T)) for G in rng.standard_normal((m, n, n))])
    return LinearMap(n=n, rows=rows)


def test_linear_map_shapes_and_validation():
    amap = _rand_map(4, 3, np.random.default_rng(0))
    assert amap.m == 3
    assert amap.matrices().shape == (3, 4, 4)
    with pytest.raises(ValueError):
        LinearMap(n=4, rows=np.zeros((2, 7)))


def test_adjointness():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m = rng.integers(2, 8), rng.integers(1, 6)
        amap = _rand_map(n, m, rng)
        G = rng.standard_normal((n, n))
        X = 0.5 * (G + G.T)
        y = rng.standard_normal(m)
        lhs = float(amap.apply(X) @ y)
        rhs = float(np.sum(X * amap.adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_instance_validation():
    amap = _rand_map(3, 2, np.random.default_rng(2))
    with pytest.raises(ValueError):
        BapInstance(map=amap, b=np.zeros(3), W=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BapInstance(map=amap, b=np.zeros(2), W=np.zeros((4, 4)))


def test_preprocess_drops_one_of_a_consistent_dependent_pair():
    amap = _rand_map(4, 3, np.random.default_rng(3))
    rows = np.vstack([amap.rows, 2.0 * amap.rows[1]])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    red, bred, removed = preprocess_surjective(LinearMap(n=4, rows=rows), b)
    # the pair {row 1, row 3 = 2*row 1} loses exactly one member and the
    # kept right-hand side follows the kept rows
    assert len(removed) == 1 and removed[0] in (1, 3)
    assert red.m == 3
    keep = [i for i in range(4) if i not in removed]
    assert np.array_equal(bred, b[keep])
    assert np.linalg.matrix_rank(red.rows) == 3


def test_preprocess_inconsistent_raises():
    amap = _rand_map(4, 3, np.random.default_rng(3))
    rows = np.vstack([amap.rows, 2.0 * amap.rows[1]])
    b = np.array([1.0, 2.0, 3.0, 5.0])
    with pytest.raises(InfeasibleManifoldError):
        preprocess_surjective(LinearMap(n=4, rows=rows), b)


def test_preprocess_keeps_full_rank_untouched():
    amap = _rand_map(5, 4, np.random.default_rng(4))
    red, bred, removed = preprocess_surjective(amap, np.arange(4.0))
    assert removed == []
    assert red is amap


def test_root_assembles_kkt_triple():
    inst = gen_random_slater(8, 10, seed=5)
    trace = newton_solve(inst)
    y = trace.triple.y
    F, X = residual_F(inst, y)
    assert np.linalg.norm(F) <= 1e-12 * (1.0 + np.linalg.norm(inst.b))
    Z = X - inst.W - inst.map.adjoint(y)
    res = kkt_residuals(inst, KktTriple(X=X, y=y, Z=Z))
    assert all(v <= 1e-10 for v in res.values())


def test_face_restricted_residual_contains_cone_roots():
    # a root over the full cone stays a root after restriction to a face
    # whose range covers the solution
    inst = gen_random_slater(6, 8, seed=6)
    trace = newton_solve(inst)
    y = trace.triple.y
    F_full, _ = residual_F(inst, y)
    F_face, _ = residual_F_face(inst, y, np.eye(6))
    assert np.allclose(F_face, F_full, atol=1e-12)
    assert np.linalg.norm(F_face) <= 1e-12 * (1.0 + np.linalg.norm(inst.b))


def test_face_residual_roots_form_a_strictly_larger_set():
    # shifting a root by a recession direction of the face-restricted
    # residual leaves that residual at zero but breaks the full one
    inst = fixture_sd2_chain()
    planted = inst.meta["planted"]
    y = np.asarray(planted["y_root"], dtype=float)
    lam = np.asarray(planted["certificates"][1], dtype=float)
    V = np.asarray(planted["v_final"], dtype=float)
    Ff, _ = residual_F_face(inst, y + lam, V)
    F, _ = residual_F(inst, y + lam)
    assert np.linalg.norm(Ff) <= 1e-12
    assert np.linalg.norm(F) > 1e-3


def test_weak_duality():
    rng = np.random.default_rng(7)
    inst = gen_random_slater(6, 5, seed=8)
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    p_at_feasible = primal_objective(inst, Xhat)
    for _ in range(25):
        y = rng.standard_normal(inst.m)
        G = rng.standard_normal((6, 6))
        Z = G @ G.T
        assert dual_objective(inst, y, Z) <= p_at_feasible + 1e-9


def test_dual_objective_rejects_indefinite_slack():
    inst = gen_random_slater(4, 3, seed=9)
    Z = np.diag([1.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        dual_objective(inst, np.zeros(3), Z)


def test_json_serialization_is_stable(tmp_path):
    inst = gen_random_slater(5, 4, seed=10)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_instance(inst, str(p1))
    loaded = load_instance(str(p1))
    save_instance(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.map.rows, inst.map.rows)
    assert np.array_equal(loaded.b, inst.b)
    # W passes through half-vectorization, so off-diagonals may move an ulp
    assert np.allclose(loaded.W, inst.W, rtol=0, atol=1e-15)


def test_json_floats_keep_seventeen_digits():
    x = 1.0 / 3.0
    s = dumps_json({"x": x})
    assert s == '{"x":0.33333333333333331}'
    assert dumps_json([float("inf"), float("-inf")]) == "[Infinity,-Infinity]"


def test_instance_dict_row_count_checked():
    inst = gen_random_slater(4, 3, seed=11)
    payload = instance_to_dict(inst)
    payload["m"] = 5
    with pytest.raises(ValueError):
        instance_from_dict(payload)


def test_primal_objective_matches_definition():
    inst = gen_random_slater(4, 3, seed=12)
    X = np.eye(4)
    assert primal_objective(inst, X) == pytest.approx(
        0.5 * np.linalg.norm(X - inst.W) ** 2
    )


def test_matrices_stack_round_trips_and_handles_an_empty_map():
    rng = np.random.default_rng(8)
    mats = [0.5 * (G + G.T) for G in rng.standard_normal((3, 4, 4))]
    amap = LinearMap.from_matrices(mats)
    assert np.array_equal(amap.matrices(), np.array([amap.matrix(i) for i in range(3)]))
    assert np.allclose(amap.matrices(), mats, atol=1e-15)
    assert LinearMap(n=3, rows=np.zeros((0, tri_len(3)))).matrices().shape == (0, 3, 3)


def test_matrices_are_built_once_and_read_only():
    amap = _rand_map(4, 3, np.random.default_rng(9))
    mats = amap.matrices()
    assert amap.matrices() is mats
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        amap.rows[0, 0] = 1.0


def test_diagonal_rows_are_cached_and_read_only():
    n = 4
    mats = np.zeros((3, n, n))
    for A, k, beta in zip(mats, [2, 0, 2], [1.7, -0.5, 1.7]):
        A[k, k] = beta
    amap = LinearMap.from_matrices(mats)
    rows = amap.diagonal_rows
    assert amap.diagonal_rows is rows
    k, beta = rows
    assert k.tolist() == [2, 0, 2]
    assert beta.tolist() == [1.7, -0.5, 1.7]
    for arr in rows:
        with pytest.raises(ValueError):
            arr[0] = 7
    off, two, empty = mats.copy(), mats.copy(), mats.copy()
    off[1] = 0.0
    off[1, 0, 3] = off[1, 3, 0] = 0.5
    two[1, 3, 3] = 1.0
    empty[1] = 0.0
    for other in (off, two, empty):
        assert LinearMap.from_matrices(other).diagonal_rows is None
    assert _rand_map(4, 3, np.random.default_rng(13)).diagonal_rows is None
    assert LinearMap(n=3, rows=np.zeros((0, tri_len(3)))).diagonal_rows is None


def test_restrict_is_the_congruence_of_every_constraint():
    rng = np.random.default_rng(10)
    amap = _rand_map(5, 4, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    red = amap.restrict(Q)
    assert (red.n, red.m) == (3, 4)
    assert np.array_equal(red.rows, svec(Q.T @ smat(amap.rows) @ Q))


def test_empty_map_preprocess():
    amap = LinearMap(n=3, rows=np.zeros((0, tri_len(3))))
    red, b, removed = preprocess_surjective(amap, np.zeros(0))
    assert red.m == 0 and removed == []
