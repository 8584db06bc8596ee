import numpy as np
import pytest

from spectraproj.facialred import fr_loop, solve_aux_gauss_newton
from spectraproj.instances import (
    FAMILIES,
    FIXTURE_FILES,
    NOSLATER_SUITE,
    GeneratorSpec,
    fixture_dual_gap_face,
    fixture_path,
    fixture_sd2_chain,
    gen_dual_unattained,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    generate,
    load_fixture,
    noslater_suite_instance,
    vontope_gangster_pairs,
    vontope_lift_vertex,
    vontope_null_basis,
)
from spectraproj.model import dumps_json, instance_to_dict, kkt_residuals, KktTriple
from spectraproj.symcore import smat, tri_len


def test_every_family_dispatches():
    for fam in FAMILIES:
        spec = GeneratorSpec(family=fam, n=4 if "Vontope" in fam else 6, seed=0)
        inst = generate(spec)
        assert inst.meta["family"] == fam or fam in ("Sd2Chain", "DualGapFace")
        assert inst.map.rows.shape == (inst.m, tri_len(inst.n))


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
    chain, final = fr_loop(inst)
    assert chain.iips_hat == 4
    assert final.m == inst.m - 4


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


def test_random_slater_rows_must_fit_the_order():
    for m in (0, tri_len(3) + 1):
        with pytest.raises(ValueError, match=r"m must lie in \[1, 6\]"):
            gen_random_slater(3, m)
    assert gen_random_slater(3, tri_len(3), seed=0).m == tri_len(3)


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


def test_fixture_files_match_builders():
    for name, builder in zip(FIXTURE_FILES, (fixture_sd2_chain, fixture_dual_gap_face)):
        disk = load_fixture(name)
        built = builder()
        assert dumps_json(instance_to_dict(disk)) == dumps_json(instance_to_dict(built))


def test_fixture_checksum_guard(tmp_path, monkeypatch):
    import spectraproj.instances as mod

    src = fixture_path("sd2_chain.json")
    sums = src.parent / "SHA256SUMS"
    tampered = tmp_path / "sd2_chain.json"
    text = src.read_text()
    tampered.write_text(text.replace("1", "2", 1))
    (tmp_path / "SHA256SUMS").write_text(sums.read_text())
    monkeypatch.setattr(mod, "fixture_path", lambda name: tmp_path / name)
    with pytest.raises(ValueError, match="checksum"):
        mod.load_fixture("sd2_chain.json")


def test_fixture_name_guard():
    with pytest.raises(ValueError):
        fixture_path("nope.json")
