import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spectraproj import instances
from spectraproj.facialred import fr_loop, solve_aux_gauss_newton
from spectraproj.instances import (
    FAMILIES,
    FIXTURE_FAMILIES,
    NOSLATER_SUITE,
    GeneratorSpec,
    fixture_dual_gap_face,
    fixture_sd2_chain,
    gen_dual_unattained,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    generate,
    known_nearest_point,
    noslater_suite_instance,
    vontope_gangster_pairs,
    vontope_lift_vertex,
    vontope_null_basis,
)
from spectraproj.model import (
    KktTriple,
    LinearMap,
    dumps_json,
    instance_to_dict,
    kkt_residuals,
    preprocess_surjective,
    save_instance,
)
from spectraproj.symcore import BLOCK_DOUBLES, smat, svec, tri_len


def test_every_family_dispatches():
    for fam in FAMILIES:
        if fam in FIXTURE_FAMILIES:
            spec = GeneratorSpec(family=fam)
        else:
            spec = GeneratorSpec(family=fam, n=4 if "Vontope" in fam else 6, seed=0)
        inst = generate(spec)
        assert inst.meta["family"] == fam or fam in FIXTURE_FAMILIES
        assert inst.map.rows.shape == (inst.m, tri_len(inst.n))


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_a_fixture_takes_no_order(family):
    with pytest.raises(ValueError, match=f"n does not apply to {family}"):
        generate(GeneratorSpec(family=family, n=4))


@pytest.mark.parametrize("family", FIXTURE_FAMILIES)
def test_a_fixture_takes_no_seed(family):
    with pytest.raises(ValueError, match=f"^seed does not apply to {family}"):
        generate(GeneratorSpec(family=family, seed=5))


@pytest.mark.parametrize("n", [0, -3])
def test_a_generated_order_must_be_positive(n):
    with pytest.raises(ValueError, match="^n must be at least 1"):
        generate(GeneratorSpec(family="Elliptope", n=n))


def test_a_spec_fills_its_defaults():
    # a fixture keeps n None: it has an order of its own
    for family, n in (("RandomSlater", 10), ("Sd2Chain", None)):
        spec = GeneratorSpec(family=family)
        assert (spec.n, spec.m, spec.seed, spec.w_mode) == (n, None, 0, "random")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(family="Nope", n=4))


def test_same_spec_same_bytes():
    spec = GeneratorSpec(family="RandomSlater", n=7, m=9, seed=42)
    a = dumps_json(instance_to_dict(generate(spec)))
    b = dumps_json(instance_to_dict(generate(spec)))
    assert a == b


def test_different_seeds_differ():
    a = gen_random_slater(6, 7, seed=0)
    b = gen_random_slater(6, 7, seed=1)
    assert not np.array_equal(a.W, b.W)


def test_elliptope_structure():
    inst = gen_elliptope(5, seed=0)
    assert inst.m == 5
    assert np.array_equal(inst.b, np.ones(5))
    assert np.allclose(inst.map.apply(np.eye(5)), np.ones(5))


def test_elliptope_feasible_anchor_mode():
    inst = gen_elliptope(5, seed=0, w_mode="feasible")
    assert np.allclose(np.diag(inst.W), 1.0)
    assert np.linalg.eigvalsh(inst.W).min() >= -1e-12
    with pytest.raises(ValueError):
        gen_elliptope(5, w_mode="bogus")


def test_slater_planted_point_is_interior_and_feasible():
    inst = gen_random_slater(8, 10, seed=1)
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    assert np.linalg.eigvalsh(Xhat).min() >= 1.0 - 1e-9
    pf = np.linalg.norm(inst.map.apply(Xhat) - inst.b)
    assert pf <= 1e-12 * (1.0 + np.linalg.norm(inst.b))


def test_noslater_planted_truths():
    inst = gen_planted_noslater(
        12, 8, sd_target=2, iips_target=3, support_size=5, seed=2
    )
    planted = inst.meta["planted"]
    Xhat = smat(np.asarray(planted["xhat"]))
    pf = np.linalg.norm(inst.map.apply(Xhat) - inst.b)
    assert pf <= 1e-12 * (1.0 + np.linalg.norm(inst.b))
    assert np.linalg.eigvalsh(Xhat).min() >= -1e-10
    # each planted multiplier is unit, b-orthogonal, and exposes the face
    for k, lam in enumerate(planted["certificates"]):
        lam = np.asarray(lam, dtype=float)
        assert np.linalg.norm(lam) == pytest.approx(1.0)
        assert abs(inst.b @ lam) <= 1e-9 * (1.0 + np.linalg.norm(inst.b))
        M = inst.map.adjoint(lam)
        assert abs(np.sum(M * Xhat)) <= 1e-8
        assert np.allclose(M, smat(np.asarray(planted["exposing"][k])), atol=1e-9)


def test_noslater_parameter_validation():
    with pytest.raises(ValueError):
        gen_planted_noslater(10, 7, sd_target=0)
    with pytest.raises(ValueError):
        gen_planted_noslater(10, 7, sd_target=2, iips_target=1)
    with pytest.raises(ValueError):
        gen_planted_noslater(10, 7, support_size=20)
    with pytest.raises(ValueError):
        gen_planted_noslater(10, 7, face_codim=12)


def test_redundancy_count_is_honored():
    inst = gen_planted_noslater(
        12, 9, sd_target=1, iips_target=4, support_size=4, seed=5
    )
    run = fr_loop(inst)
    assert run.iips_hat == 4
    assert run.final.m == inst.m - 4


def test_planted_root_is_a_root():
    inst = gen_planted_noslater(
        10, 7, sd_target=1, iips_target=1, support_size=5, seed=3, plant_root=True
    )
    from spectraproj.model import residual_F

    y = np.asarray(inst.meta["planted"]["y_root"], dtype=float)
    F, X = residual_F(inst, y)
    assert np.linalg.norm(F) <= 1e-9 * (1.0 + np.linalg.norm(inst.b))


def test_dual_unattained_structure():
    # rotated copy of the canonical gap instance: one rank-one constraint
    # pinned to zero, anchor on the mixed term, optimum at the origin
    inst = gen_dual_unattained(3, seed=0)
    assert inst.m == 1
    assert inst.b[0] == 0.0
    A1 = inst.map.matrix(0)
    w = np.linalg.eigvalsh(A1)
    assert np.sum(np.abs(w) > 1e-10) == 1
    assert abs(np.sum(A1 * inst.W)) <= 1e-12  # anchor orthogonal to the pin
    assert inst.meta["planted"]["dual_attained"] is False
    assert inst.meta["planted"]["p_star"] == 1.0


def test_gap_fixture_is_the_canonical_data():
    inst = fixture_dual_gap_face()
    assert np.allclose(inst.W, [[0.0, -1.0], [-1.0, 0.0]])
    assert np.allclose(inst.map.matrix(0), [[1.0, 0.0], [0.0, 0.0]])
    assert inst.b[0] == 0.0


def test_suite_configs_resolve():
    for n in NOSLATER_SUITE:
        inst = noslater_suite_instance(n, seed=0)
        assert inst.n == n
        assert inst.meta["plant_root"] is True


def test_vontope_sizes_and_vertices():
    n = 3
    pre = gen_vontope(n, seed=0, post_fr=False)
    post = gen_vontope(n, seed=0, post_fr=True)
    assert pre.meta["ambient"] == n * n + 1
    assert post.n == (n - 1) ** 2 + 1
    assert post.m == n**3 - 2 * n**2 + 1
    vhat = vontope_null_basis(n)
    assert np.allclose(vhat.T @ vhat, np.eye(post.n), atol=1e-12)
    import itertools

    for perm in itertools.permutations(range(n)):
        perm = np.array(perm)
        Y = vontope_lift_vertex(perm)
        R = vontope_lift_vertex(perm, vhat)
        assert np.linalg.norm(pre.map.apply(Y) - pre.b) <= 1e-12 * (1 + np.linalg.norm(pre.b))
        assert np.linalg.norm(post.map.apply(R) - post.b) <= 1e-12 * (1 + np.linalg.norm(post.b))
        assert np.linalg.eigvalsh(Y).min() >= -1e-12
        assert np.linalg.eigvalsh(R).min() >= -1e-12


def test_vontope_gangster_index_hand_count():
    # n = 3: each diagonal block contributes 3 off-diagonal pairs (x3 blocks),
    # each off-diagonal block pair contributes its 3 diagonal entries (x3 pairs)
    pairs = vontope_gangster_pairs(3)
    assert len(pairs) == 18
    assert len(set(pairs)) == 18
    for p, q in pairs:
        assert 1 <= p < q <= 9


def test_vontope_rejects_tiny_orders():
    with pytest.raises(ValueError):
        gen_vontope(2)


def test_vontope_anchor_modes():
    inst = gen_vontope(3, seed=1, post_fr=True, w_mode="rank1")
    vertex = smat(np.asarray(inst.meta["planted"]["vertex"]))
    assert np.linalg.norm(inst.W - vertex) <= 0.01 * np.linalg.norm(vertex)
    feas = gen_vontope(3, seed=1, post_fr=True, w_mode="feasible")
    pf = np.linalg.norm(feas.map.apply(feas.W) - feas.b)
    assert pf <= 1e-12 * (1 + np.linalg.norm(feas.b))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vontope_post_is_pre_restricted_to_its_face(n):
    # each row set spans the other, and b follows through the same combination
    pre = gen_vontope(n, post_fr=False)
    post = gen_vontope(n, post_fr=True)
    face = pre.map.restrict(vontope_null_basis(n))
    for (src, src_b), (dst, dst_b) in (
        ((face.rows, pre.b), (post.map.rows, post.b)),
        ((post.map.rows, post.b), (face.rows, pre.b)),
    ):
        coef, *_ = np.linalg.lstsq(src.T, dst.T, rcond=None)
        assert np.abs(src.T @ coef - dst.T).max() <= 1e-12
        assert np.abs(coef.T @ src_b - dst_b).max() <= 1e-12


def _dense_vontope(n, post_fr):
    """Rows and b of ``gen_vontope`` built as dense order-N matrices and svec'd whole."""
    N = n * n + 1

    def idx(i, c):
        return 1 + c * n + i

    def esym(p, q):
        E = np.zeros((N, N))
        if p == q:
            E[p, p] = 1.0
        else:
            E[p, q] = E[q, p] = 0.5
        return E

    pairs = [(0, 0)] + vontope_gangster_pairs(n)
    if post_fr:
        drop = {(c, n - 1) for c in range(n - 1)} | {(n - 3, n - 2)}
        kept = [(p, q) for p, q in pairs if ((p - 1) // n, (q - 1) // n) not in drop]
        vhat = vontope_null_basis(n)
        mats = np.array([esym(p, q) for p, q in kept])
        b = np.zeros(len(kept))
        b[0] = 1.0
        return svec(vhat.T @ mats @ vhat), b, None
    mats = [esym(p, q) for p, q in pairs]
    b = [1.0] + [0.0] * (len(pairs) - 1)
    for ix in (idx, lambda a, c: idx(c, a)):
        for a1 in range(n):
            for a2 in range(a1, n):
                M = np.zeros((N, N))
                for c in range(n):
                    M += esym(ix(a1, c), ix(a2, c))
                mats.append(M)
                b.append(1.0 if a1 == a2 else 0.0)
    for p in range(1, N):
        M = esym(0, p)
        M[p, p] -= 1.0
        mats.append(M)
        b.append(0.0)
    raw = LinearMap.from_matrices(mats)
    amap, b, removed = preprocess_surjective(raw, np.array(b))
    return amap.rows, b, (raw.m, len(removed))


@pytest.mark.parametrize("post_fr", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vontope_rows_are_bitwise_the_dense_construction(n, post_fr):
    inst = gen_vontope(n, post_fr=post_fr)
    rows, b, counts = _dense_vontope(n, post_fr)
    assert inst.map.rows.shape == rows.shape
    assert inst.map.rows.tobytes() == rows.tobytes()
    assert inst.b.tobytes() == b.tobytes()
    if counts is not None:
        assert (inst.meta["m_raw"], inst.meta["rows_removed_at_gen"]) == counts


def test_vontope_post_generation_holds_one_block_of_dense_matrices():
    # n=10 (m=801): the svec rows before and after the restriction are 33 and
    # 22 MB; the dense stack of the rows before it alone would be 65 MB
    tracemalloc.start()
    try:
        inst = gen_vontope(10, post_fr=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.m == 801
    assert peak <= 80e6


ANCHOR_FAMILIES = {
    # family: (generator of one w_mode, whether it has a rank-one vertex)
    "Elliptope": (lambda w: gen_elliptope(6, seed=1, w_mode=w), True),
    "VontopePre": (lambda w: gen_vontope(3, seed=1, w_mode=w), True),
    "VontopePost": (lambda w: gen_vontope(3, seed=1, post_fr=True, w_mode=w), True),
    "RandomSlater": (lambda w: gen_random_slater(6, 8, seed=1, w_mode=w), False),
    "PlantedNoSlater": (lambda w: gen_planted_noslater(10, 8, seed=1, w_mode=w), False),
}


@pytest.mark.parametrize("family", sorted(ANCHOR_FAMILIES))
def test_anchor_modes_per_family(family):
    make, has_vertex = ANCHOR_FAMILIES[family]
    feas = make("feasible")
    assert np.abs(feas.map.apply(feas.W) - feas.b).max() <= 1e-12
    rand = make("random")
    assert np.abs(rand.map.apply(rand.W) - rand.b).max() > 0.1
    if has_vertex:
        near = make("rank1")
        assert 0 < np.abs(near.map.apply(near.W) - near.b).max() < 1e-2
    else:
        with pytest.raises(ValueError, match="unknown w_mode 'rank1'"):
            make("rank1")
    with pytest.raises(ValueError, match="unknown w_mode 'bogus'"):
        make("bogus")


def test_random_slater_rows_are_bitwise_the_per_row_draws():
    n, m, seed = 30, 300, 5
    step = BLOCK_DOUBLES // (n * n)
    assert m > step and m % step
    inst = gen_random_slater(n, m, seed=seed)
    # reference: one (n, n) draw per row, then the rest of the stream as the
    # generator continues it
    rng = instances._rng(seed, "RandomSlater")
    rows = np.array([svec(instances._sym(rng, n)) for _ in range(m)])
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Xhat = G @ G.T + np.eye(n)
    assert inst.map.rows.tobytes() == rows.tobytes()
    assert inst.b.tobytes() == (rows @ svec(Xhat)).tobytes()
    assert inst.W.tobytes() == instances._sym(rng, n).tobytes()


def test_planted_noslater_rank_test_is_the_singular_value_cut(monkeypatch):
    # the generator's "rows are dependent, draw again" decision is
    # sigma_min <= 1e-9 sigma_max, decided without an SVD on independent rows
    calls = []
    real = scipy.linalg.svdvals
    monkeypatch.setattr(scipy.linalg, "svdvals", lambda a: calls.append(1) or real(a))
    inst = gen_planted_noslater(30, 40, sd_target=2, iips_target=3, support_size=5, seed=1000)
    assert calls == [] and inst.meta["attempt"] == 0
    sv = real(inst.map.rows)
    assert sv[-1] > 1e-9 * sv[0]


def test_random_slater_rows_must_fit_the_order():
    for m in (0, tri_len(3) + 1):
        with pytest.raises(ValueError, match=r"m must lie in \[1, 6\]"):
            gen_random_slater(3, m)
    assert gen_random_slater(3, tri_len(3), seed=0).m == tri_len(3)


def test_planted_noslater_rows_must_fit_the_order():
    with pytest.raises(ValueError, match="m must be at most 6"):
        gen_planted_noslater(3, tri_len(3) + 1, support_size=5)
    # the default m is capped at n(n+1)/2, so the generated map is surjective
    inst = generate(GeneratorSpec(family="PlantedNoSlater", n=3, seed=0))
    assert inst.m == tri_len(3)
    assert np.linalg.matrix_rank(inst.map.rows) == inst.m


def test_vontope_pre_has_certificate_post_does_not():
    pre = gen_vontope(3, seed=0, post_fr=False)
    cert = solve_aux_gauss_newton(pre)
    assert cert is not None
    cert.validate(pre.b)
    post = gen_vontope(3, seed=0, post_fr=True)
    assert solve_aux_gauss_newton(post) is None


def test_fixture_recorded_triple_is_optimal():
    inst = fixture_sd2_chain()
    planted = inst.meta["planted"]
    triple = KktTriple(
        X=smat(np.asarray(planted["x_star"])),
        y=np.asarray(planted["y_root"], dtype=float),
        Z=smat(np.asarray(planted["z_star"])),
    )
    res = kkt_residuals(inst, triple)
    assert all(v <= 1e-14 for v in res.values())


def test_fixture_file_bytes_are_pinned(tmp_path):
    # the bytes `spectraproj gen --gen <fixture>` writes; a changed digest
    # means a changed fixture, or a changed instance-file format
    for builder, digest in (
        (fixture_sd2_chain, "5211180b2d471ff0d153dee556f93243fc4ffcc848194b99757832d6e52dc2f5"),
        (fixture_dual_gap_face, "446ae928254c0bdec0b2a967bbbdf37e2c491a463ab7f485a172bae6dc93972a"),
    ):
        path = tmp_path / "instance.json"
        save_instance(builder(), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, builder.__name__


@pytest.mark.parametrize("seed", range(3))
def test_nearest_point_on_the_planted_face_is_the_planted_root(seed):
    # with plant_root, X-hat is the nearest point; X* comes from one solve on
    # the face V0 and never sees the no-Slater formulation
    inst = noslater_suite_instance(10, seed)
    Xhat = smat(np.asarray(inst.meta["planted"]["xhat"]))
    assert np.linalg.norm(known_nearest_point(inst) - Xhat) <= 1e-10 * np.linalg.norm(Xhat)


def test_nearest_point_of_a_fixture_is_its_stored_answer():
    for inst in (fixture_sd2_chain(), fixture_dual_gap_face()):
        X = known_nearest_point(inst)
        assert np.array_equal(X, smat(np.asarray(inst.meta["planted"]["x_star"])))
    with pytest.raises(ValueError, match="RandomSlater"):
        known_nearest_point(gen_random_slater(6, 8, seed=0))
