import json
import math

import numpy as np
import pytest
import scipy.linalg

from spectraproj import model
from spectraproj.instances import fixture_sd2_chain, gen_elliptope, gen_random_slater
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
    save_instance,
)
from spectraproj.ssnewton import newton_solve
from spectraproj.symcore import BLOCK_DOUBLES, smat, svec, tri_len

from oracles import residual_F_face


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


def _svd_preprocess(rows, b):
    # the SVD path alone: rank from singular values, kept rows by pivoted QR,
    # consistency through least squares
    m = rows.shape[0]
    sv = scipy.linalg.svdvals(rows)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    if rank == m:
        return rows, b, []
    _, _, piv = scipy.linalg.qr(rows.T, mode="economic", pivoting=True)
    keep = sorted(piv[:rank].tolist())
    removed = sorted(set(range(m)) - set(keep))
    coeff, *_ = np.linalg.lstsq(rows[keep].T, rows[removed].T, rcond=None)
    for j, idx in enumerate(removed):
        gap = abs(b[idx] - coeff[:, j] @ b[keep])
        if gap > 1e-9 * (1.0 + np.linalg.norm(b)):
            raise InfeasibleManifoldError(
                f"row {idx} is dependent but inconsistent (gap {gap:.3e}); "
                "infeasible linear manifold"
            )
    return rows[keep], b[keep], removed


def _counting_qr(monkeypatch):
    calls = []

    def qr(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    real = scipy.linalg.qr
    monkeypatch.setattr(scipy.linalg, "qr", qr)
    return calls


def _near_dependent_rows(ratio, rng):
    # 12 Gaussian rows of order 6, and a 13th that is their combination plus
    # a direction off their span, so sigma_min / sigma_max is about ratio / 10
    rows = _rand_map(6, 12, rng).rows.copy()
    Q, _ = np.linalg.qr(rows.T, mode="complete")
    off = Q[:, -1] * ratio * np.linalg.norm(rows, 2)
    return np.vstack([rows, rng.standard_normal(12) @ rows + off])


def _sv_ratio(rows):
    sv = scipy.linalg.svdvals(rows)
    return sv[-1] / sv[0]


def test_gaussian_rows_are_certified_full_rank_without_an_svd(monkeypatch):
    calls = _counting_qr(monkeypatch)
    amap = gen_random_slater(30, 200, seed=4).map
    red, bred, removed = preprocess_surjective(amap, np.ones(200))
    assert calls == [] and removed == [] and red is amap
    _, _, ref_removed = _svd_preprocess(amap.rows, np.ones(200))
    assert ref_removed == []


@pytest.mark.parametrize("consistent", [True, False])
def test_dependent_rows_take_the_svd_path_with_its_outcome(monkeypatch, consistent):
    # the certificate declines, and one pivoted QR gives the SVD reference's outcome
    rng = np.random.default_rng(11)
    rows = _rand_map(5, 8, rng).rows
    rows = np.vstack([rows, 2.0 * rows[1], rows[0] - rows[6], rows[3]])
    x = rng.standard_normal(rows.shape[1])
    b = rows @ x
    if not consistent:
        b[9] += 1e-3
    calls = _counting_qr(monkeypatch)
    if consistent:
        red, bred, removed = preprocess_surjective(LinearMap(n=5, rows=rows), b)
        assert len(calls) == 1
        ref_rows, ref_b, ref_removed = _svd_preprocess(rows, b)
        assert removed == ref_removed and len(removed) == 3
        assert np.array_equal(red.rows, ref_rows) and np.array_equal(bred, ref_b)
    else:
        with pytest.raises(InfeasibleManifoldError) as got:
            preprocess_surjective(LinearMap(n=5, rows=rows), b)
        assert len(calls) == 1
        with pytest.raises(InfeasibleManifoldError) as ref:
            _svd_preprocess(rows, b)
        assert str(got.value) == str(ref.value)


def test_certificate_declines_a_nearly_dependent_row_the_svd_keeps(monkeypatch):
    # sigma_min / sigma_max is 1.2e-8, 1.7e-7 and 1.5e-6, above the band where
    # the QR and the SVD rules can differ, and the SVD reference keeps the row
    calls = _counting_qr(monkeypatch)
    for ratio, seed in [(1e-7, 12), (1e-6, 13), (1e-5, 14)]:
        rows = _near_dependent_rows(ratio, np.random.default_rng(seed))
        assert 1e-8 < _sv_ratio(rows) < 1e-5
        assert _svd_preprocess(rows, rows @ np.ones(21))[2] == []
        calls.clear()
        amap = LinearMap(n=6, rows=rows)
        red, _, removed = preprocess_surjective(amap, rows @ np.ones(21))
        assert len(calls) == 1 and removed == [] and red is amap
    # sigma_min / sigma_max = 9.2e-10 lies just below the SVD's cut, and the
    # reference removes the row; the QR diagonal |r_mm / r_00| = 1.3e-9 keeps it
    rows = _near_dependent_rows(1e-8, np.random.default_rng(16))
    assert 2.7e-10 < _sv_ratio(rows) < 1e-9
    assert len(_svd_preprocess(rows, rows @ np.ones(21))[2]) == 1
    amap = LinearMap(n=6, rows=rows)
    red, _, removed = preprocess_surjective(amap, rows @ np.ones(21))
    assert removed == [] and red is amap


def test_a_row_below_the_rank_cut_is_removed():
    # sigma_min / sigma_max is 1.7e-12, 7.3e-11 and 2.4e-14, below the band
    # where the QR and the SVD rules can differ
    for ratio, seed in [(1e-11, 13), (5e-10, 14), (1e-13, 15)]:
        rows = _near_dependent_rows(ratio, np.random.default_rng(seed))
        assert _sv_ratio(rows) < 1e-10
        b = rows @ np.ones(21)
        red, bred, removed = preprocess_surjective(LinearMap(n=6, rows=rows), b)
        ref_rows, ref_b, ref_removed = _svd_preprocess(rows, b)
        assert removed == ref_removed and len(removed) == 1
        assert np.array_equal(red.rows, ref_rows) and np.array_equal(bred, ref_b)


def test_row_rank_certificate_is_skipped_for_long_rows(monkeypatch):
    # with (t + m + 2) eps above tau / 10 the bound proves nothing: QR only
    calls = _counting_qr(monkeypatch)
    monkeypatch.setattr(model, "_CERT_TAU", 1e-14)
    assert model._row_rank(_rand_map(6, 12, np.random.default_rng(14)))[0] == 12
    assert len(calls) == 1


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


def test_json_floats_use_shortest_round_trip_spelling():
    x = 1.0 / 3.0
    s = dumps_json({"x": x})
    assert s == '{"x":0.3333333333333333}'
    assert dumps_json([float("inf"), float("-inf")]) == "[Infinity,-Infinity]"


def test_json_values_read_back_with_their_types():
    payload = {
        "one": 1.0, "neg_zero": -0.0, "big": 9751922431660104.0, "nan": float("nan"),
        "flag": np.bool_(True), "count": np.int64(7), "arr": np.array([2.0, -0.0]),
    }
    back = json.loads(dumps_json(payload))
    for key in ("one", "neg_zero", "big"):
        assert type(back[key]) is float and back[key] == payload[key]
    assert math.copysign(1.0, back["neg_zero"]) == -1.0
    assert type(back["nan"]) is float and math.isnan(back["nan"])
    assert back["flag"] is True
    assert type(back["count"]) is int and back["count"] == 7
    assert [type(v) for v in back["arr"]] == [float, float]
    assert back["arr"] == [2.0, 0.0] and math.copysign(1.0, back["arr"][1]) == -1.0
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_json({"x": object()})


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


def test_diagonal_map_apply_and_adjoint_are_bitwise_the_dense_rows():
    inst = gen_elliptope(100, seed=1000)
    amap = inst.map
    assert amap.diagonal_rows is not None
    for it in newton_solve(inst).iterates:
        Y = inst.W + amap.adjoint(it.y)
        assert np.array_equal(amap.adjoint(it.y), smat(amap.rows.T @ it.y))
        assert np.array_equal(amap.apply(Y), amap.rows @ svec(Y))
    # rows that share a k sum on the diagonal
    mats = np.zeros((3, 4, 4))
    for A, k, beta in zip(mats, [2, 0, 2], [1.7, -0.5, 1.7]):
        A[k, k] = beta
    amap = LinearMap.from_matrices(mats)
    y = np.array([0.3, -1.1, 2.0])
    assert np.allclose(amap.adjoint(y), smat(amap.rows.T @ y), rtol=0.0, atol=1e-15)
    assert amap.adjoint(y)[2, 2] == pytest.approx(1.7 * 2.3)
    X = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(amap.apply(X + X.T), [1.7 * 20.0, -0.5 * 0.0, 1.7 * 20.0])


def test_restrict_is_the_congruence_of_every_constraint():
    rng = np.random.default_rng(10)
    amap = _rand_map(5, 4, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    red = amap.restrict(Q)
    assert (red.n, red.m) == (3, 4)
    assert np.array_equal(red.rows, svec(Q.T @ smat(amap.rows) @ Q))


def _streamed_map(m, n=60):
    # m * n^2 above BLOCK_DOUBLES once m > 72, so the map streams its stack
    rows = np.random.default_rng(m).standard_normal((m, tri_len(n)))
    return LinearMap(n=n, rows=rows)


def test_matrix_blocks_cover_the_rows_one_block_at_a_time():
    amap = _streamed_map(150)
    k = BLOCK_DOUBLES // 60**2
    spans = []
    for start, block in amap._matrix_blocks():
        assert block.shape[1:] == (60, 60) and block.size <= BLOCK_DOUBLES
        assert block.tobytes() == smat(amap.rows[start : start + len(block)]).tobytes()
        spans.append((start, len(block)))
    assert spans == [(0, k), (k, k), (2 * k, 150 - 2 * k)]
    assert amap._mats is None
    # once a caller has cached the stack, the blocks are slices of it
    mats = amap.matrices()
    assert all(np.shares_memory(block, mats) for _, block in amap._matrix_blocks())
    # a stack that fits in one block is built, cached and handed out whole
    small = _rand_map(5, 4, np.random.default_rng(14))
    [(start, block)] = small._matrix_blocks()
    assert start == 0 and block.shape == (4, 5, 5)
    assert np.shares_memory(block, small._mats)
    assert list(_streamed_map(0)._matrix_blocks()) == []


@pytest.mark.parametrize("m, r", [(150, 20), (150, 0), (150, 60), (0, 20)])
def test_streamed_restrict_is_bitwise_the_whole_stack_congruence(m, r):
    amap = _streamed_map(m)
    # a column slice of an orthogonal matrix, as the face bases are
    U, _ = np.linalg.qr(np.random.default_rng(r).standard_normal((60, 60)))
    Q = U[:, :r]
    red = amap.restrict(Q)
    expected = svec(Q.T @ smat(amap.rows) @ Q)
    assert (red.n, red.rows.shape) == (r, expected.shape)
    assert red.rows.tobytes() == expected.tobytes()
    # an empty stack fits in one block, so only m = 0 caches one
    assert (amap._mats is None) == (m > 0)


def test_empty_map_preprocess():
    amap = LinearMap(n=3, rows=np.zeros((0, tri_len(3))))
    red, b, removed = preprocess_surjective(amap, np.zeros(0))
    assert red.m == 0 and removed == []
