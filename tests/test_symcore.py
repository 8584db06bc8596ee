import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectraproj import symcore
from spectraproj.symcore import (
    check_face_range,
    eig_sym,
    moreau_envelope,
    project_face,
    project_psd,
    smat,
    svec,
    tri_len,
    tri_order,
)

RNG = np.random.default_rng(20260815)


def _sym(n, rng=RNG, scale=1.0):
    G = rng.standard_normal((n, n)) * scale
    return 0.5 * (G + G.T)


def sym_matrices(max_n=6):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        A = draw(
            arrays(
                np.float64,
                (n, n),
                elements=st.floats(-10, 10, allow_nan=False, width=64),
            )
        )
        return 0.5 * (A + A.T)

    return st.composite(build)()


def test_tri_len_roundtrip():
    for n in range(1, 30):
        assert tri_order(tri_len(n)) == n
    with pytest.raises(ValueError):
        tri_order(4)


def test_svec_pinned_values():
    assert np.allclose(svec(np.eye(2)), [1.0, 0.0, 1.0])
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(svec(off), [0.0, np.sqrt(2.0), 0.0])


def test_svec_rejects_nonsquare():
    with pytest.raises(ValueError):
        svec(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        smat(np.zeros(4))


def test_svec_smat_stacks_match_single_matrices():
    rng = np.random.default_rng(5)
    for shape in ((4,), (2, 3)):
        mats = np.array([_sym(5, rng) for _ in range(int(np.prod(shape)))])
        mats = mats.reshape(shape + (5, 5))
        vecs = svec(mats)
        assert vecs.shape == shape + (tri_len(5),)
        # C order matters: BLAS sums a transposed layout in another order
        assert vecs.flags.c_contiguous
        back = smat(vecs)
        for idx in np.ndindex(*shape):
            assert np.array_equal(vecs[idx], svec(mats[idx]))
            assert np.array_equal(back[idx], smat(vecs[idx]))


def test_smat_gather_is_bitwise_the_scatter_inverse():
    # reference: divide the off-diagonal entries by sqrt(2), then write each
    # entry to both triangles
    def scatter(v):
        n = tri_order(v.shape[-1])
        iu, ju = np.triu_indices(n)
        w = v.copy()
        w[..., iu != ju] /= np.sqrt(2.0)
        M = np.zeros(v.shape[:-1] + (n, n))
        M[..., iu, ju] = w
        M[..., ju, iu] = w
        return M

    rng = np.random.default_rng(6)
    for shape in ((tri_len(9),), (7, 3, tri_len(9)), (40, tri_len(30))):
        v = rng.standard_normal(shape)
        M = smat(v)
        assert M.tobytes() == scatter(v).tobytes()
        assert M.flags.c_contiguous


def test_smat_is_bitwise_the_divide_then_gather_form():
    # the form smat had before it divided after the gather
    def divide_then_gather(v):
        n = tri_order(v.shape[-1])
        iu, ju = np.triu_indices(n)
        pos = np.zeros((n, n), dtype=np.intp)
        pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
        scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
        return np.take(v / scale, pos, axis=-1)

    rng = np.random.default_rng(9)
    for shape in ((tri_len(11),), (6, tri_len(11)), (2, 5, tri_len(4))):
        v = rng.standard_normal(shape)
        assert smat(v).tobytes() == divide_then_gather(v).tobytes()


def _svec_reference(M):
    iu, ju = np.triu_indices(M.shape[-1])
    v = M[..., iu, ju].copy()
    v[..., iu != ju] *= np.sqrt(2.0)
    return v


def test_svec_gather_is_bitwise_the_triu_reference():
    rng = np.random.default_rng(8)
    for n in range(8):
        for shape in ((), (3,), (2, 4)):
            M = rng.standard_normal(shape + (n, n))
            v = svec(M)
            assert v.shape == shape + (tri_len(n),) and v.flags.c_contiguous
            assert v.tobytes() == _svec_reference(M).tobytes()
    # a transposed (non C-order) input reads the same entries
    M = rng.standard_normal((5, 6, 6))
    T = np.swapaxes(M, -1, -2)
    assert svec(T).tobytes() == _svec_reference(T).tobytes()


def test_svec_index_cache_is_read_only():
    for n in (0, 1, 5):
        svec(np.zeros((n, n)))
        for arr in symcore._svec_gather(n):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


def test_svec_smat_empty_stacks():
    assert smat(np.zeros((0, tri_len(3)))).shape == (0, 3, 3)
    assert svec(np.zeros((0, 3, 3))).shape == (0, tri_len(3))


@given(sym_matrices())
@settings(max_examples=60, deadline=None)
def test_svec_smat_roundtrip(A):
    assert np.allclose(smat(svec(A)), A, atol=1e-12)


@given(sym_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_svec_isometry(A, seed):
    B = _sym(A.shape[0], np.random.default_rng(seed), scale=3.0)
    assert svec(A) @ svec(B) == pytest.approx(np.trace(A @ B), abs=1e-9, rel=1e-12)


def test_eig_sym_partition_and_recompose():
    for n in (1, 3, 7):
        S = _sym(n)
        dec = eig_sym(S)
        assert np.all(np.diff(dec.lam) <= 1e-14)
        assert 0 <= dec.p and 0 <= dec.z and dec.p + dec.z <= n
        assert np.allclose(dec.recompose(), S, atol=1e-10)
        assert np.allclose(dec.U @ dec.U.T, np.eye(n), atol=1e-12)


def test_eig_sym_zero_bucket():
    S = np.diag([2.0, 1e-14, -3.0])
    dec = eig_sym(S)
    assert (dec.p, dec.z, dec.n - dec.p - dec.z) == (1, 1, 1)


def _cumsum_normalize_sign(U):
    # reference sign rule: flip a column whose first sizeable entry is negative
    A = np.abs(U)
    big = A > 1e-12 * np.maximum(1.0, A.max(axis=0, initial=0.0))
    lead = big & (np.cumsum(big, axis=0) == 1)
    out = U.copy()
    out[:, (lead & (U < 0)).any(axis=0)] *= -1.0
    return out


def _tiny_lead_matrix():
    # rotate e_0 into the other coordinates by 1e-13: every other eigenvector
    # starts with an entry below 1e-12, so its sign comes from a later row
    rng = np.random.default_rng(5)
    Q = np.eye(5)
    Q[1:, 1:], _ = np.linalg.qr(rng.standard_normal((4, 4)))
    t = 1e-13
    G = np.eye(5)
    G[0, 0] = G[1, 1] = np.cos(t)
    G[0, 1], G[1, 0] = -np.sin(t), np.sin(t)
    Q = G @ Q
    return (Q * np.array([4.0, 2.0, 0.0, -1.0, -3.0])) @ Q.T


@pytest.mark.parametrize(
    "S",
    [
        np.zeros((0, 0)),
        np.diag([2.0, 1e-14, -3.0]),
        np.diag([0.0, 5.0, 0.0, -1e-12, 1.0]),
        _tiny_lead_matrix(),
        _sym(7, np.random.default_rng(7)),
        np.eye(4),
        np.diag([2.0, 2.0, 1.0, 1.0, -3.0]),
    ],
    ids=["order0", "zero_bucket", "diagonal", "tiny_leading_entries", "random", "eye4", "ties"],
)
def test_eig_sym_buckets_and_signs_match_a_direct_reference(S):
    dec = eig_sym(S)
    n = S.shape[0]
    assert dec.U.shape == (n, n) and dec.U.flags.c_contiguous
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    assert np.array_equal(dec.lam, w[::-1])
    # bitwise the stable-argsort order, ties included, with and without signs
    order = np.argsort(w, kind="stable")[::-1]
    assert dec.lam.tobytes() == w[order].tobytes()
    assert dec.U.tobytes() == _cumsum_normalize_sign(V[:, order]).tobytes()
    raw = eig_sym(S, normalize_sign=False)
    assert raw.U.flags.c_contiguous and (raw.p, raw.z) == (dec.p, dec.z)
    assert raw.U.tobytes() == np.ascontiguousarray(V[:, order]).tobytes()
    thr = 1e-10 * max([1.0] + [abs(x) for x in dec.lam])
    assert dec.p == sum(1 for x in dec.lam if x > thr)
    assert dec.z == sum(1 for x in dec.lam if abs(x) <= thr)
    for j in range(n):
        col = dec.U[:, j]
        assert np.array_equal(np.abs(col), np.abs(V[:, n - 1 - j]))
        big = [i for i in range(n) if abs(col[i]) > 1e-12 * max(1.0, np.abs(col).max())]
        assert col[big[0]] > 0


def test_eig_sym_sign_normalization_is_stable():
    S = _sym(6)
    d1 = eig_sym(S)
    d2 = eig_sym(S.copy())
    assert np.array_equal(d1.U, d2.U)
    # the first sizeable component of every eigenvector is positive
    for j in range(6):
        col = d1.U[:, j]
        idx = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[idx] > 0


def test_projection_split_properties():
    # X psd, complement psd, orthogonal, and the difference recovers S
    for n in (2, 5, 9):
        S = _sym(n, scale=4.0)
        X, Zneg = project_psd(S)
        nS = np.linalg.norm(S)
        assert np.linalg.eigvalsh(X).min() >= -1e-10 * nS
        assert np.linalg.eigvalsh(Zneg).min() >= -1e-10 * nS
        assert abs(np.sum(X * Zneg)) <= 1e-10 * nS**2
        assert np.allclose(X - Zneg, S, atol=1e-12 * max(1.0, nS))


def test_projection_idempotent():
    S = _sym(6, scale=2.0)
    X, _ = project_psd(S)
    X2, _ = project_psd(X)
    assert np.allclose(X2, X, atol=1e-12)


def test_face_projection_full_face_matches_cone():
    S = _sym(5)
    X, _ = project_psd(S)
    assert np.allclose(project_face(S, np.eye(5)), X, atol=1e-12)


def test_face_projection_single_column():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    u = _sym(4, rng)
    expect = max(v @ u @ v, 0.0) * np.outer(v, v)
    assert np.allclose(project_face(u, v.reshape(-1, 1)), expect, atol=1e-12)


def test_face_range_validation():
    V = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        check_face_range(V)
    with pytest.raises(ValueError):
        check_face_range(np.ones(3))


def test_envelope_gradient_central_difference():
    rng = np.random.default_rng(11)
    S = _sym(6, rng, scale=2.0)
    X, _ = project_psd(S)
    errs = []
    for h in (1e-2, 1e-3):
        worst = 0.0
        for _ in range(5):
            H = _sym(6, rng)
            H /= np.linalg.norm(H)
            fd = (moreau_envelope(S + h * H) - moreau_envelope(S - h * H)) / (2 * h)
            worst = max(worst, abs(fd - np.sum(X * H)))
        errs.append(worst)
    # quadratic decay: a decade in h buys two decades in error (slack 2x)
    assert errs[1] <= errs[0] / 50.0 + 1e-14
