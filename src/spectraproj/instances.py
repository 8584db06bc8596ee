"""Instance generators: structured feasible sets, planted pathologies, fixtures.

Every generator is a pure function of its arguments; randomness comes from a
counter-based generator keyed by (seed, family), so identical calls reproduce
identical instances byte for byte.  Ground truth that a generator knows about
itself (a planted feasible point, certificate chain, known optimum) is stored
under ``meta["planted"]`` so tests and diagnostics can check against it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg

from .model import BapInstance, LinearMap, _row_rank, load_instance, preprocess_surjective
from .ssnewton import NewtonStatus, newton_solve
from .symcore import (
    BLOCK_DOUBLES,
    SQRT2,
    _smat_gather,
    diag_positions,
    smat,
    svec,
    tri_len,
)

FAMILIES = (
    "Elliptope",
    "VontopePre",
    "VontopePost",
    "RandomSlater",
    "PlantedNoSlater",
    "DualUnattained",
    "Sd2Chain",
    "DualGapFace",
)

_FAMILY_CODE = {name: i + 1 for i, name in enumerate(FAMILIES)}


@dataclass
class GeneratorSpec:
    """Declarative description of one instance."""

    family: str
    n: int
    m: int | None = None
    seed: int = 0
    w_mode: str = "random"
    extras: dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, family: str, salt: int = 0) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(_FAMILY_CODE[family], salt))
    return np.random.default_rng(key)


def _sym(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    return 0.5 * (G + G.T)


def _sym_rows(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """(m, tri_len(n)) rows svec(_sym(rng, n)), drawn a block of matrices at a time.

    A (k, n, n) draw is the same stream as k draws of (n, n), and each
    matrix is symmetrized and half-vectorized by the same operations, so the
    rows are bitwise those of m calls of :func:`_sym`.
    """
    rows = np.empty((m, tri_len(n)))
    step = max(1, BLOCK_DOUBLES // (n * n))
    for i in range(0, m, step):
        G = rng.standard_normal((min(step, m - i), n, n))
        rows[i : i + step] = svec(0.5 * (G + np.swapaxes(G, -1, -2)))
    return rows


def _orth(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _anchor(
    rng: np.random.Generator, n: int, w_mode: str,
    feasible: Callable[[], np.ndarray], vertex: Callable[[], np.ndarray] | None = None,
) -> np.ndarray:
    """The anchor W for ``w_mode``: random, ``feasible()``, or for ``"rank1"`` (where
    a family has a ``vertex``) ``vertex()`` perturbed.  Only the mode taken draws."""
    if w_mode == "random":
        return _sym(rng, n)
    if w_mode == "feasible":
        return feasible()
    if w_mode == "rank1" and vertex is not None:
        return vertex() + 1e-3 * _sym(rng, n)
    raise ValueError(f"unknown w_mode {w_mode!r}")


def generate(spec: GeneratorSpec) -> BapInstance:
    """Dispatch a GeneratorSpec to its family generator; a ``ValueError`` means a bad spec."""
    fam = spec.family
    ex = spec.extras
    # a setting the family would ignore must not reach the config echo unused
    if spec.m is not None and fam not in ("RandomSlater", "PlantedNoSlater"):
        raise ValueError(f"m applies only to RandomSlater and PlantedNoSlater, not {fam}")
    if ex and fam != "PlantedNoSlater":
        raise ValueError(f"{', '.join(ex)} applies only to PlantedNoSlater, not {fam}")
    if spec.w_mode != "random" and fam in ("DualUnattained", "Sd2Chain", "DualGapFace"):
        raise ValueError("w_mode applies only to Elliptope, VontopePre, VontopePost, "
                         f"RandomSlater and PlantedNoSlater, not {fam}")
    if fam == "Elliptope":
        return gen_elliptope(spec.n, seed=spec.seed, w_mode=spec.w_mode)
    if fam == "VontopePre":
        return gen_vontope(spec.n, seed=spec.seed, post_fr=False, w_mode=spec.w_mode)
    if fam == "VontopePost":
        return gen_vontope(spec.n, seed=spec.seed, post_fr=True, w_mode=spec.w_mode)
    if fam == "RandomSlater":
        m = spec.m if spec.m is not None else 2 * spec.n
        return gen_random_slater(spec.n, m, seed=spec.seed, w_mode=spec.w_mode)
    if fam == "PlantedNoSlater":
        m = spec.m if spec.m is not None else min(max(7, (3 * spec.n) // 2), tri_len(spec.n))
        return gen_planted_noslater(
            spec.n,
            m,
            sd_target=ex.get("sd", 1),
            iips_target=ex.get("iips", ex.get("sd", 1)),
            support_size=ex.get("support", min(5, m)),
            seed=spec.seed,
            w_mode=spec.w_mode,
        )
    if fam == "DualUnattained":
        return gen_dual_unattained(spec.n, seed=spec.seed)
    if fam == "Sd2Chain":
        return fixture_sd2_chain()
    if fam == "DualGapFace":
        return fixture_dual_gap_face()
    raise ValueError(f"unknown family {fam!r}; choose one of {FAMILIES}")


# ---------------------------------------------------------------------------
# strictly feasible families
# ---------------------------------------------------------------------------


def gen_elliptope(n: int, seed: int = 0, w_mode: str = "random") -> BapInstance:
    """Unit-diagonal spectrahedron: diag(X) = 1, X psd.

    The identity is strictly feasible, so this family is the benign baseline:
    every feasible point is nondegenerate and the solver's Newton matrix at a
    definite point is the identity.
    """
    rng = _rng(seed, "Elliptope")
    rows = np.zeros((n, tri_len(n)))
    rows[np.arange(n), diag_positions(n)] = 1.0
    b = np.ones(n)

    def correlation() -> np.ndarray:
        G = rng.standard_normal((n, 2 * n))
        S = G @ G.T
        d = 1.0 / np.sqrt(np.diag(S))
        return S * np.outer(d, d)

    def cut() -> np.ndarray:
        v = rng.choice([-1.0, 1.0], size=n)
        return np.outer(v, v)

    W = _anchor(rng, n, w_mode, correlation, cut)
    meta = {"family": "Elliptope", "n": n, "m": n, "seed": seed, "w_mode": w_mode}
    return BapInstance(map=LinearMap(n=n, rows=rows), b=b, W=W, meta=meta)


def gen_random_slater(
    n: int, m: int, seed: int = 0, w_mode: str = "random"
) -> BapInstance:
    """Dense Gaussian constraints through a planted strictly feasible point."""
    if not 1 <= m <= tri_len(n):
        raise ValueError(f"m must lie in [1, {tri_len(n)}] for order {n}, got {m}")
    rng = _rng(seed, "RandomSlater")
    amap = LinearMap(n=n, rows=_sym_rows(rng, n, m))
    if _row_rank(amap)[0] < m:
        raise RuntimeError("Gaussian rows came out rank deficient; try another seed")
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Xhat = G @ G.T + np.eye(n)
    b = amap.apply(Xhat)
    W = _anchor(rng, n, w_mode, lambda: Xhat)
    meta = {
        "family": "RandomSlater", "n": n, "m": m, "seed": seed, "w_mode": w_mode,
        "planted": {"xhat": svec(Xhat)},
    }
    return BapInstance(map=amap, b=b, W=W, meta=meta)


# ---------------------------------------------------------------------------
# planted pathology
# ---------------------------------------------------------------------------


def gen_planted_noslater(
    n: int,
    m: int,
    sd_target: int = 1,
    iips_target: int = 1,
    support_size: int = 5,
    seed: int = 0,
    w_mode: str = "random",
    plant_root: bool = False,
    root_margin: float = 20.0,
    face_codim: int | None = None,
) -> BapInstance:
    """Feasible instance with no interior point and a planted facial structure.

    The construction fixes an orthonormal flag: a face basis V0 of dimension
    n - c and exposing blocks C_1, ..., C_d that partition the complement
    (d = ``sd_target``).  Certificate k is a sparse multiplier lam_k, supported
    on ``support_size`` rows, with A*(lam_k) chosen so that its restriction to
    the face remaining after k-1 rounds is psd and exposes exactly C_k, while a
    cross term against C_{k-1} keeps it useless any earlier.  Every feasible
    point lives on V0, so strict feasibility fails; each round of facial
    reduction makes one planted multiplier a row dependency, and additional
    always-vacuous rows raise the redundancy count to ``iips_target``.

    With ``plant_root`` the anchor W is chosen so the root function has an
    exact root with dual slack proportional to the first exposing matrix
    (factor ``root_margin``), giving a clean null direction of the Newton
    matrix at a known zero of F.
    """
    if m > tri_len(n):
        raise ValueError(f"m must be at most {tri_len(n)} for order {n}, got {m}")
    d = int(sd_target)
    if d < 1:
        raise ValueError("sd_target must be at least 1")
    if iips_target < d:
        raise ValueError("iips_target cannot be smaller than sd_target")
    extras = iips_target - d
    if support_size < 1 or support_size > m - extras:
        raise ValueError("support_size must fit among the non-reserved rows")
    c = int(face_codim) if face_codim is not None else max(d, max(1, n // 5))
    if c < d or c >= n:
        raise ValueError("face codimension must lie in [sd_target, n)")
    r = n - c
    if m - extras < d:
        raise ValueError("not enough rows to carry the certificate chain")

    t = tri_len(n)
    for attempt in range(64):
        rng = _rng(seed, "PlantedNoSlater", salt=attempt)
        Q = _orth(rng, n)
        V0 = Q[:, :r]
        blocks: list[np.ndarray] = []
        pos = r
        sizes = [c - (d - 1)] + [1] * (d - 1)
        for sz in sizes:
            blocks.append(Q[:, pos : pos + sz])
            pos += sz

        M_list: list[np.ndarray] = []
        for k in range(d):
            Ck = blocks[k]
            diag = 1.0 + rng.uniform(0.0, 1.0, size=Ck.shape[1])
            Mk = (Ck * diag) @ Ck.T
            if k > 0:
                u = blocks[k - 1] @ rng.standard_normal(blocks[k - 1].shape[1])
                u /= np.linalg.norm(u)
                v = Ck[:, 0]
                Mk = Mk + np.outer(u, v) + np.outer(v, u)
            M_list.append(0.5 * (Mk + Mk.T))

        reserved = list(range(m - extras, m))
        free = list(range(m - extras))
        Lam = np.zeros((d, m))
        for k in range(d):
            supp = rng.choice(free, size=support_size, replace=False)
            vals = rng.standard_normal(support_size)
            vals /= np.linalg.norm(vals)
            Lam[k, supp] = vals
        if np.linalg.matrix_rank(Lam) < d:
            continue

        rows = _sym_rows(rng, n, m)
        for j, idx in enumerate(reserved):
            u = V0 @ rng.standard_normal(r)
            u /= np.linalg.norm(u)
            v = blocks[0] @ rng.standard_normal(blocks[0].shape[1])
            v /= np.linalg.norm(v)
            rows[idx] = svec(np.outer(u, v) + np.outer(v, u))
        Msvec = np.array([svec(Mk) for Mk in M_list])
        corr = np.linalg.solve(Lam @ Lam.T, Msvec - Lam @ rows)
        amap = LinearMap(n=n, rows=rows + Lam.T @ corr)
        if _row_rank(amap)[0] < m:
            continue

        G0 = rng.standard_normal((r, r))
        Rhat = G0 @ G0.T / r + np.eye(r)
        Xhat = V0 @ Rhat @ V0.T
        b = amap.apply(Xhat)

        planted: dict[str, Any] = {
            "xhat": svec(Xhat),
            "certificates": [Lam[k] / np.linalg.norm(Lam[k]) for k in range(d)],
            "exposing": [svec(Mk) for Mk in M_list],
            "v0": V0,
            "face_codim": c,
            "reserved_rows": reserved,
        }
        if plant_root:
            y_root = rng.standard_normal(m)
            W = Xhat - root_margin * M_list[0] - amap.adjoint(y_root)
            planted["y_root"] = y_root
            planted["root_margin"] = root_margin
        else:
            W = _anchor(rng, n, w_mode, lambda: Xhat)

        meta = {
            "family": "PlantedNoSlater", "n": n, "m": m, "seed": seed,
            "w_mode": w_mode, "sd": d, "iips": iips_target,
            "support": support_size, "plant_root": plant_root,
            "attempt": attempt, "planted": planted,
        }
        return BapInstance(map=amap, b=b, W=W, meta=meta)
    raise RuntimeError("could not draw an independent planted system in 64 attempts")


# ---------------------------------------------------------------------------
# permutation-lift family
# ---------------------------------------------------------------------------


def _idx(i: int, c: int, n: int) -> int:
    # position of X[i, c] inside (1; vec(X)) with column-major vec
    return 1 + c * n + i


def _put_esym(row: np.ndarray, pos: np.ndarray, p: int, q: int) -> None:
    # write svec(E_pq), E_pq = (e_p e_q' + e_q e_p') / 2, into a zero svec row
    # at svec position pos[p, q]: 1 on the diagonal, sqrt(2) * 0.5 off it, as
    # svec scales the dense form
    row[pos[p, q]] = 1.0 if p == q else 0.5 * SQRT2


def _esym_rows(pairs: list[tuple[int, int]], N: int, m: int) -> np.ndarray:
    """(m, tri_len(N)) rows, zero but for svec(E_pq) over ``pairs`` in the first ones."""
    rows = np.zeros((m, tri_len(N)))
    pos, _ = _smat_gather(N)
    for row, (p, q) in zip(rows, pairs):
        _put_esym(row, pos, p, q)
    return rows


def vontope_gangster_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs forced to zero in the lifted matrix: off-diagonals of
    diagonal blocks and diagonals of off-diagonal blocks."""
    pairs = []
    for c in range(n):
        for i, j in itertools.combinations(range(n), 2):
            pairs.append((_idx(i, c, n), _idx(j, c, n)))
    for c1, c2 in itertools.combinations(range(n), 2):
        for i in range(n):
            pairs.append((_idx(i, c1, n), _idx(i, c2, n)))
    return pairs


def vontope_null_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the common range of all lifted permutation matrices.

    Null space of the row/column-sum map [-e | H]; the last row of that map is
    dependent and dropped before the SVD.
    """
    N = n * n + 1
    K = np.zeros((2 * n, N))
    K[:, 0] = -1.0
    for a in range(n):
        for c in range(n):
            K[a, _idx(a, c, n)] = 1.0  # row sum a
            K[n + a, _idx(c, a, n)] = 1.0  # column sum a
    return scipy.linalg.null_space(K[:-1])


def vontope_lift_vertex(perm: np.ndarray, vhat: np.ndarray | None = None) -> np.ndarray:
    """Rank-one lift of a permutation matrix; reduced coordinates when vhat given."""
    perm = np.asarray(perm, dtype=int)
    n = perm.size
    X = np.zeros((n, n))
    X[perm, np.arange(n)] = 1.0
    y = np.concatenate([[1.0], X.ravel(order="F")])
    Y = np.outer(y, y)
    if vhat is None:
        return Y
    return vhat.T @ Y @ vhat


def gen_vontope(
    n: int, seed: int = 0, post_fr: bool = False, w_mode: str = "random"
) -> BapInstance:
    """Feasible region of the lifted permutation-matrix relaxation.

    Pre-reduction: order n^2+1 variables with corner, gangster, block-diagonal
    sum, block-trace and arrow constraints; every lifted permutation is
    feasible but no point is strictly feasible.  Post-reduction: the corner
    and gangster rows of the pre-reduction set restricted to the known common
    range V̂ (order (n-1)^2+1), less the gangster rows of ``drop_blocks``,
    which are dependent on that face; this formulation is strictly feasible.
    """
    if n < 3:
        raise ValueError("the lifted permutation family needs n >= 3")
    N = n * n + 1
    rng = _rng(seed, "VontopePost" if post_fr else "VontopePre")
    pairs = [(0, 0)] + vontope_gangster_pairs(n)

    if not post_fr:
        # sum_c Y[(i,c),(j,c)] = (XX')_ij, then sum_i Y[(i,c1),(i,c2)] = (X'X)_c1c2
        sums = [
            (idx, a1, a2)
            for idx in (lambda a, c: _idx(a, c, n), lambda a, c: _idx(c, a, n))
            for a1 in range(n)
            for a2 in range(a1, n)
        ]
        # corner and gangster rows, block sums, then one arrow row per p >= 1;
        # every row is a few svec entries, written straight into the rows
        rows = _esym_rows(pairs, N, len(pairs) + len(sums) + N - 1)
        pos, _ = _smat_gather(N)
        b_list = [1.0] + [0.0] * (len(pairs) - 1)
        for row, (idx, a1, a2) in zip(rows[len(pairs):], sums):
            for c in range(n):
                _put_esym(row, pos, idx(a1, c), idx(a2, c))
            b_list.append(1.0 if a1 == a2 else 0.0)
        for row, p in zip(rows[len(pairs) + len(sums):], range(1, N)):
            _put_esym(row, pos, 0, p)
            row[pos[p, p]] = -1.0
            b_list.append(0.0)
        raw_map = LinearMap(n=N, rows=rows)
        amap, b, removed = preprocess_surjective(raw_map, np.array(b_list))

        def vertex() -> np.ndarray:
            return vontope_lift_vertex(rng.permutation(n))

        W = _anchor(rng, N, w_mode, vertex, vertex)
        meta = {
            "family": "VontopePre", "n": n, "ambient": N, "m": amap.m,
            "m_raw": raw_map.m, "rows_removed_at_gen": len(removed),
            "seed": seed, "w_mode": w_mode,
        }
        return BapInstance(map=amap, b=b, W=W, meta=meta)

    vhat = vontope_null_basis(n)
    rdim = (n - 1) ** 2 + 1
    if vhat.shape != (N, rdim):
        raise RuntimeError("null-space basis has unexpected shape")
    drop_blocks = {(c, n - 1) for c in range(n - 1)} | {(n - 3, n - 2)}
    kept = [(p, q) for p, q in pairs if ((p - 1) // n, (q - 1) // n) not in drop_blocks]
    # restrict streams the rows a block of dense matrices at a time
    amap = LinearMap(n=N, rows=_esym_rows(kept, N, len(kept))).restrict(vhat)
    expected_m = n**3 - 2 * n**2 + 1
    if amap.m != expected_m:
        raise RuntimeError(f"reduced row count {amap.m}, expected {expected_m}")
    b = np.zeros(amap.m)
    b[0] = 1.0
    perm = rng.permutation(n)
    R1 = vontope_lift_vertex(perm, vhat)
    W = _anchor(rng, rdim, w_mode, lambda: R1, lambda: R1)
    meta = {
        "family": "VontopePost", "n": n, "ambient": rdim, "m": amap.m,
        "seed": seed, "w_mode": w_mode,
        "planted": {"perm": perm, "vertex": svec(R1), "vhat": vhat},
    }
    return BapInstance(map=amap, b=b, W=W, meta=meta)


# ---------------------------------------------------------------------------
# dual pathologies and fixtures
# ---------------------------------------------------------------------------


def gen_dual_unattained(n: int = 2, seed: int = 0) -> BapInstance:
    """Zero duality gap but no dual attainment; dual iterates must diverge.

    One constraint pins the leading coefficient (in a rotated basis) to zero;
    the anchor sits along the mixed term, whose nearest feasible point is the
    origin at squared distance 2 regardless of n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = _rng(seed, "DualUnattained")
    Q = _orth(rng, n)
    q1, q2 = Q[:, 0], Q[:, 1]
    A1 = np.outer(q1, q1)
    W = -(np.outer(q1, q2) + np.outer(q2, q1))
    meta = {
        "family": "DualUnattained", "n": n, "m": 1, "seed": seed,
        "planted": {"x_star": svec(np.zeros((n, n))), "p_star": 1.0,
                    "dual_attained": False},
    }
    return BapInstance(
        map=LinearMap.from_matrices([A1]), b=np.zeros(1), W=W, meta=meta
    )


def known_nearest_point(inst: BapInstance) -> np.ndarray:
    """The exact nearest point X* of an instance whose generator planted it.

    A stored ``meta["planted"]["x_star"]`` (Sd2Chain, DualGapFace,
    DualUnattained) is returned as a matrix.  Every feasible point of a
    PlantedNoSlater instance is V0 R V0' with V0 = ``meta["planted"]["v0"]``
    orthonormal, and ||V0 R V0' - W||^2 = ||R - V0' W V0||^2 + const, so
    X* = V0 R* V0' with R* the nearest point of the problem on that face
    (:meth:`BapInstance.restrict`): the rows svec(V0' A_i V0) less the
    dependent ones, and the anchor V0' W V0.  Slater holds
    there (the planted X-hat is V0 R-hat V0' with R-hat positive definite),
    so one Newton solve gives R*; a solve that does not end ``Solved``
    raises ``RuntimeError``.  Any other instance raises ``ValueError``.
    """
    planted = inst.meta.get("planted", {})
    if "x_star" in planted:
        return smat(np.asarray(planted["x_star"], dtype=float))
    if "v0" not in planted:
        raise ValueError(
            f"family {inst.meta.get('family')!r} plants no face and stores no x_star"
        )
    V0 = np.asarray(planted["v0"], dtype=float)
    trace = newton_solve(inst.restrict(V0)[0])
    if trace.status != NewtonStatus.SOLVED:
        raise RuntimeError(f"the solve on the planted face ended {trace.status.value}")
    return V0 @ trace.triple.X @ V0.T


# Benchmark-suite configuration for the no-Slater percentage tables.  The flag
# construction with a planted root, a one-dimensional exposed face and a small
# anchor margin puts runs in the regime where a fraction dives below 1e-8
# before the digit budget halts them, while none ever reach 1e-13.
NOSLATER_SUITE = {
    10: {"m": 15, "face_codim": 1, "root_margin": 2.0},
    20: {"m": 30, "face_codim": 1, "root_margin": 2.5},
}


def noslater_suite_instance(n: int, seed: int) -> BapInstance:
    """One cell entry of the no-Slater convergence-percentage table."""
    params = NOSLATER_SUITE[n]
    return gen_planted_noslater(
        n,
        params["m"],
        seed=seed,
        plant_root=True,
        face_codim=params["face_codim"],
        root_margin=params["root_margin"],
    )


FIXTURE_FILES = ("sd2_chain.json", "dual_gap_face.json")


def fixture_path(name: str) -> Path:
    """Path of a checked-in fixture file inside the installed package."""
    if name not in FIXTURE_FILES:
        raise ValueError(f"unknown fixture {name!r}; choose one of {FIXTURE_FILES}")
    return Path(__file__).parent / "data" / name


def load_fixture(name: str) -> BapInstance:
    """Load a checked-in fixture after verifying it against SHA256SUMS."""
    path = fixture_path(name)
    sums = {}
    for line in (path.parent / "SHA256SUMS").read_text().splitlines():
        digest, fname = line.split()
        sums[fname] = digest
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    if actual != sums[name]:
        raise ValueError(f"fixture {name!r} fails its checksum: {actual}")
    return load_instance(str(path))


def fixture_dual_gap_face() -> BapInstance:
    """Canonical order-2 instance with unattained dual: project [[0,-1],[-1,0]]
    onto {X psd : X_11 = 0} = {diag(0, t), t >= 0}; the answer is 0."""
    A1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    W = np.array([[0.0, -1.0], [-1.0, 0.0]])
    meta = {
        "family": "DualGapFace", "n": 2, "m": 1, "seed": 0,
        "planted": {"x_star": svec(np.zeros((2, 2))), "p_star": 1.0,
                    "dual_attained": False},
    }
    return BapInstance(map=LinearMap.from_matrices([A1]), b=np.zeros(1), W=W, meta=meta)


def fixture_sd2_chain() -> BapInstance:
    """Order-3 instance whose facial reduction takes exactly two rounds.

    The feasible set is the single point e1 e1'; the first certificate exposes
    e3, and only after that restriction does the second certificate become
    expressible.  The optimal triple and both multipliers are known in closed
    form and stored in the metadata.
    """
    A1 = np.zeros((3, 3)); A1[0, 0] = 1.0
    A2 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    A3 = np.zeros((3, 3)); A3[2, 2] = 1.0
    b = np.array([1.0, 0.0, 0.0])
    W = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, -1.0], [0.0, -1.0, 0.0]])
    Xbar = np.zeros((3, 3)); Xbar[0, 0] = 1.0
    Zbar = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    meta = {
        "family": "Sd2Chain", "n": 3, "m": 3, "seed": 0,
        "planted": {
            "x_star": svec(Xbar),
            "y_root": [1.0, 0.0, -2.0],
            "z_star": svec(Zbar),
            "certificates": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
            "v_final": [[1.0], [0.0], [0.0]],
            "sd": 2,
            "iips": 2,
            "p_star": 2.0,
        },
    }
    return BapInstance(map=LinearMap.from_matrices([A1, A2, A3]), b=b, W=W, meta=meta)
