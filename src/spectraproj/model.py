"""Problem data for the nearest-point problem over a spectrahedron.

An instance is  min 0.5*||X - W||^2  subject to  A(X) = b,  X psd,
with A a surjective linear map into R^m.  The map is stored row-wise in the
isometric half-vector coordinates of :mod:`.symcore`, so applying it is a
matrix-vector product and its adjoint is the transpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator

import numpy as np
import scipy.linalg

from .symcore import (
    BLOCK_DOUBLES,
    diag_positions,
    project_psd,
    smat,
    svec,
    tri_len,
)


class InfeasibleManifoldError(Exception):
    """The linear equations A(X) = b are inconsistent (infeasible linear manifold)."""


@dataclass
class LinearMap:
    """Linear map from symmetric order-n matrices to R^m, stored as svec rows.

    The map owns ``rows`` and makes it read-only, so :attr:`gram` and
    :attr:`diagonal_rows` stay valid for the map's lifetime.  The rows are
    the only copy of the constraints that the map keeps: the library reads
    the dense matrices A_i a block of :data:`~.symcore.BLOCK_DOUBLES` doubles
    at a time (:meth:`_matrix_blocks`), so no consumer holds more than one
    block of them.  :meth:`matrices` still builds and caches the whole
    (m, n, n) stack for a caller that asks for it.
    """

    n: int
    rows: np.ndarray  # (m, tri_len(n)), read-only
    _mats: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        self.rows.flags.writeable = False
        if self.rows.shape[1] != tri_len(self.n):
            raise ValueError(
                f"rows have length {self.rows.shape[1]}, expected {tri_len(self.n)}"
            )

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_matrices(cls, mats: list[np.ndarray]) -> "LinearMap":
        mats = np.asarray(mats, dtype=float)
        return cls(n=mats.shape[-1], rows=svec(mats))

    def matrix(self, i: int) -> np.ndarray:
        """The i-th constraint matrix A_i as a dense symmetric array."""
        return smat(self.rows[i])

    def matrices(self) -> np.ndarray:
        """All constraint matrices stacked into a read-only (m, n, n) array, built once."""
        if self._mats is None:
            self._mats = smat(self.rows)
            self._mats.flags.writeable = False
        return self._mats

    def _matrix_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, block)`` pairs; ``block`` is A_start, A_start+1, ... as (k, n, n).

        Each block holds k = max(1, BLOCK_DOUBLES // n^2) rows, the last one
        fewer.  When the whole stack fits in one block, or :meth:`matrices`
        has already cached it, the blocks are read-only slices of that
        stack.  Otherwise each is the ``smat`` of its rows, written into one
        buffer that the next block overwrites, so a caller finishes with a
        block before it draws the next and never holds two.  Either way every
        A_i has the same bytes, so a product taken matrix by matrix does not
        depend on the blocking.
        """
        m, n = self.m, self.n
        k = max(1, BLOCK_DOUBLES // max(1, n * n))
        if self._mats is not None or m * n * n <= BLOCK_DOUBLES:
            mats = self.matrices()
            for start in range(0, m, k):
                yield start, mats[start : start + k]
        else:
            buf = np.empty((k, n, n))
            for start in range(0, m, k):
                rows = self.rows[start : start + k]
                yield start, smat(rows, out=buf[: len(rows)])

    @cached_property
    def diagonal_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(k, beta)`` when every row i is beta_i e_k e_k' with k = k[i], else None.

        Read from ``rows`` once; both arrays are read-only.
        """
        on_diag = self.rows[:, diag_positions(self.n)]
        k = np.argmax(on_diag != 0, axis=1)
        beta = on_diag[np.arange(self.m), k]
        # a nonzero diagonal entry in each row, and no other nonzero anywhere
        if self.m == 0 or not beta.all() or np.count_nonzero(self.rows) != self.m:
            return None
        k.flags.writeable = beta.flags.writeable = False
        return k, beta

    @cached_property
    def gram(self) -> np.ndarray:
        """The read-only (m, m) Gram matrix <A_i, A_j> of the rows, formed once."""
        G = self.rows @ self.rows.T
        G.flags.writeable = False
        return G

    def restrict(self, Q: np.ndarray) -> LinearMap:
        """The map restricted to the face range of an (n, r) ``Q``: rows svec(Q' A_i Q).

        The (m, tri_len(r)) rows are filled a block of constraint matrices at
        a time (:meth:`_matrix_blocks`), so the peak is the new rows plus
        one block and its products, whatever m is.
        """
        r = Q.shape[1]
        rows = np.empty((self.m, tri_len(r)))
        for start, block in self._matrix_blocks():
            rows[start : start + len(block)] = svec(Q.T @ block @ Q)
        return LinearMap(n=r, rows=rows)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A(X), the vector of inner products <A_i, X>.

        On an all-diagonal map (:attr:`diagonal_rows`) this is beta o X[k, k],
        O(m) instead of a pass over the dense rows.
        """
        if self.diagonal_rows is not None:
            k, beta = self.diagonal_rows
            return beta * np.asarray(X, dtype=float)[k, k]
        return self.rows @ svec(X)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i A_i as a dense symmetric matrix.

        On an all-diagonal map this places beta o y on the diagonal, summing
        rows that share a k, without a pass over the dense rows.
        """
        y = np.asarray(y, dtype=float)
        if self.diagonal_rows is not None:
            k, beta = self.diagonal_rows
            return np.diag(np.bincount(k, weights=beta * y, minlength=self.n))
        return smat(self.rows.T @ y)


@dataclass
class BapInstance:
    """One projection problem: map A, right-hand side b, anchor point W."""

    map: LinearMap
    b: np.ndarray
    W: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.W = np.asarray(self.W, dtype=float)
        if self.b.size != self.map.m:
            raise ValueError(f"b has length {self.b.size}, map has {self.map.m} rows")
        if self.W.shape != (self.map.n, self.map.n):
            raise ValueError("W shape does not match the map order")

    @property
    def n(self) -> int:
        return self.map.n

    @property
    def m(self) -> int:
        return self.map.m

    def restrict(self, Q: np.ndarray) -> tuple[BapInstance, list[int]]:
        """The instance on the face range of an (n, r) ``Q``, and the rows it drops.

        The rows become svec(Q' A_i Q) (:meth:`LinearMap.restrict`), less
        the ones that became dependent there (:func:`preprocess_surjective`,
        which raises :class:`InfeasibleManifoldError` when one of them is
        inconsistent); W becomes Q' W Q, and the copied meta records
        ``reduced_from``.
        """
        amap, b, removed = preprocess_surjective(self.map.restrict(Q), self.b)
        meta = {**self.meta, "reduced_from": self.n}
        return BapInstance(map=amap, b=b, W=Q.T @ self.W @ Q, meta=meta), removed


@dataclass
class KktTriple:
    """Candidate primal/dual point (X, y, Z) for one instance."""

    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray


#: row k of the pivoted QR is dependent when |r_kk| <= _RANK_TOL * |r_00|
_RANK_TOL = 1e-9
#: shift of the full-rank certificate, relative to trace(G)
_CERT_TAU = 1e-10


def _row_rank(amap: LinearMap) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Numerical row rank of ``amap``, with the factorization that decided it.

    Full rank is first certified from the cached Gram matrix
    :attr:`LinearMap.gram`, and then ``(m, None, None)`` is returned.  Only
    when the certificate declines are the rows factored, once, by the
    column-pivoted QR rows'[:, piv] = Q R, and ``(rank, R, piv)`` is
    returned, the rank counting the |r_kk| above 1e-9 * |r_00|.
    :func:`preprocess_surjective` derives the certificate's bound.
    """
    rows = amap.rows
    m, t = rows.shape
    if m <= t and (t + m + 2) * np.finfo(float).eps <= 0.1 * _CERT_TAU:
        G = amap.gram
        try:
            np.linalg.cholesky(G - _CERT_TAU * np.trace(G) * np.eye(m))
            return m, None, None
        except np.linalg.LinAlgError:
            pass
    R, piv = scipy.linalg.qr(rows.T, mode="r", pivoting=True)
    d = np.abs(np.diag(R))
    return int(np.sum(d > _RANK_TOL * (d[0] if d.size else 0.0))), R, piv


def preprocess_surjective(
    amap: LinearMap, b: np.ndarray
) -> tuple[LinearMap, np.ndarray, list[int]]:
    """Drop dependent rows of A, keeping a maximal independent subset.

    One column-pivoted QR of the row transpose, rows'[:, piv] = Q R, decides
    everything.  The rank r counts the |r_kk| above 1e-9 * |r_00|; the rows
    piv[:r] are kept, in their original order, so the outcome is
    deterministic (the pivot prefers larger-norm rows within a dependent
    group); and each removed row piv[r + j] is the combination
    R[:r, :r]^{-1} R[:r, r + j] of the kept rows.  Each removed row must be
    consistent with the kept ones through that combination, to
    1e-9 * (1 + ||b||), otherwise the linear manifold is empty and
    :class:`InfeasibleManifoldError` is raised for the first such row in
    index order.

    Full row rank is certified before any factorization of the rows: a
    Cholesky factorization of G - tau * tr(G) * I, with G the cached m-by-m
    Gram matrix of the t-long rows (:attr:`LinearMap.gram`) and tau = 1e-10.
    The computed G is within gamma_t tr(G) of the exact one in the 2-norm
    (gamma_k = k eps/(1 - k eps)), forming the shifted diagonal adds about
    eps tr(G), and a Cholesky that succeeds is exact for a matrix within
    gamma_{m+1} ||L L'|| <= gamma_{m+1} tr(G) of its input, L the factor.
    Success therefore proves lambda_min(G) >= (tau - (t + m + 2) eps) tr(G)
    to first order.  The certificate is tried only when
    (t + m + 2) eps <= tau / 10, so then lambda_min(G) >= 0.9 tau tr(G) >=
    0.9 tau lambda_max(G), that is sigma_min / sigma_max >= 9e-6.  The
    square R of any QR of m <= t rows has their singular values, so
    |r_kk| >= sigma_min for every k, and |r_00|, the norm of one row, is at
    most sigma_max: the QR would keep every row at that ratio, and
    ``(amap, b, [])`` is returned without it.  When the factorization
    fails, or the rows are too long for the bound, the QR runs as described
    above.

    The same inequalities bound the last diagonal entry: |r_mm / r_00| >=
    sigma_min / sigma_max.  So a single near-dependent row that a cut of the
    singular values at 1e-9 * sigma_max keeps, the QR keeps too, and the QR
    keeps more only where sigma_min / sigma_max lies just below that cut:
    on 750 near-dependent Gaussian cases |r_mm / r_00| was 1.3 to 4.0 times
    sigma_min / sigma_max, so the two rules differed only for ratios in
    [1e-9 / 4.0, 1e-9] = [2.5e-10, 1e-9].

    Returns
    -------
    (reduced_map, reduced_b, removed_indices)
    """
    b = np.asarray(b, dtype=float).ravel()
    rows = amap.rows
    m = rows.shape[0]
    if m == 0:
        return LinearMap(n=amap.n, rows=rows.reshape(0, tri_len(amap.n))), b, []

    rank, R, piv = _row_rank(amap)
    if rank == m:
        return amap, b, []
    kept, dropped = piv[:rank], piv[rank:]
    # coeff[:, j] reproduces the removed row dropped[j] from the kept rows
    coeff = scipy.linalg.solve_triangular(R[:rank, :rank], R[:rank, rank:])
    gaps = np.abs(b[dropped] - coeff.T @ b[kept])
    b_scale = 1.0 + np.linalg.norm(b)
    for j in np.argsort(dropped):
        if gaps[j] > 1e-9 * b_scale:
            raise InfeasibleManifoldError(
                f"row {dropped[j]} is dependent but inconsistent (gap {gaps[j]:.3e}); "
                "infeasible linear manifold"
            )

    keep = sorted(kept.tolist())
    return LinearMap(n=amap.n, rows=rows[keep]), b[keep], sorted(dropped.tolist())


def residual_F(inst: BapInstance, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root-function value F(y) = A(P(W + A*y)) - b and the projected point X."""
    X, _ = project_psd(inst.W + inst.map.adjoint(y))
    return inst.map.apply(X) - inst.b, X


def scaled_primal_residual(inst: BapInstance, X: np.ndarray) -> float:
    """The primal feasibility ||A(X) - b|| / (1 + ||b||) of a point X."""
    return float(np.linalg.norm(inst.map.apply(X) - inst.b) / (1.0 + np.linalg.norm(inst.b)))


def kkt_residuals(inst: BapInstance, triple: KktTriple) -> dict[str, float]:
    """Scaled KKT residuals of a candidate triple.

    Keys: ``pf`` primal feasibility ||A(X)-b||/(1+||b||); ``df_lin`` stationarity
    ||X - W - A*y - Z||/(1+||W||); ``df_cone_X`` and ``df_cone_Z`` the magnitude
    of the most negative eigenvalue (0 when psd); ``cs`` the complementarity
    |<Z,X>|/(1+||X||*||Z||).
    """
    X, y, Z = triple.X, triple.y, triple.Z
    pf = scaled_primal_residual(inst, X)
    G = X - inst.W - inst.map.adjoint(y) - Z
    df_lin = np.linalg.norm(G) / (1.0 + np.linalg.norm(inst.W))
    eX = np.linalg.eigvalsh(0.5 * (X + X.T))
    eZ = np.linalg.eigvalsh(0.5 * (Z + Z.T))
    df_cone_X = float(max(0.0, -eX[0]))
    df_cone_Z = float(max(0.0, -eZ[0]))
    nX = np.linalg.norm(X)
    nZ = np.linalg.norm(Z)
    cs = abs(float(np.sum(Z * X))) / (1.0 + nX * nZ)
    return {
        "pf": pf,
        "df_lin": float(df_lin),
        "df_cone_X": df_cone_X,
        "df_cone_Z": df_cone_Z,
        "cs": float(cs),
    }


def dual_objective(inst: BapInstance, y: np.ndarray, Z: np.ndarray) -> float:
    """Value of the concave dual functional at a feasible dual pair (y, Z).

    phi(y, Z) = -0.5*||Z + A*y||^2 + <y, b - A(W)> - <Z, W>.  Z must be psd up
    to 1e-9 (relative); weak duality pins phi <= 0.5*||X-W||^2 for any
    primal-feasible X, and the gap closes at an optimal triple.
    """
    Z = np.asarray(Z, dtype=float)
    eZ = np.linalg.eigvalsh(0.5 * (Z + Z.T))
    scale = max(1.0, abs(eZ[-1]))
    if eZ[0] < -1e-9 * scale:
        raise ValueError(f"Z is not psd: min eigenvalue {eZ[0]:.3e}")
    y = np.asarray(y, dtype=float)
    M = Z + inst.map.adjoint(y)
    val = -0.5 * float(np.sum(M * M))
    val += float(y @ (inst.b - inst.map.apply(inst.W)))
    val -= float(np.sum(Z * inst.W))
    return val


def primal_objective(inst: BapInstance, X: np.ndarray) -> float:
    """0.5*||X - W||^2."""
    D = np.asarray(X, dtype=float) - inst.W
    return 0.5 * float(np.sum(D * D))


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def _builtin(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(payload: Any) -> str:
    """Serialize to compact JSON; each float is written as its shortest round-trip repr."""
    return json.dumps(payload, separators=(",", ":"), default=_builtin)


def instance_to_dict(inst: BapInstance) -> dict[str, Any]:
    return {
        "n": inst.n,
        "m": inst.m,
        "b": inst.b,
        "W": svec(inst.W),
        "A": inst.map.rows,
        "meta": inst.meta,
    }


def save_instance(inst: BapInstance, path: str) -> None:
    """Write an instance to a JSON file (deterministic; floats read back bitwise)."""
    with open(path, "w") as fh:
        fh.write(dumps_json(instance_to_dict(inst)))
        fh.write("\n")


def finite_array(name: str, values: Any) -> np.ndarray:
    """``values`` as a float array; raises ``ValueError`` on a NaN or infinite entry."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def instance_from_dict(payload: dict[str, Any]) -> BapInstance:
    """The instance ``payload`` describes; ``meta.seed``, 0 when absent, seeds its searches."""
    n = int(payload["n"])
    amap = LinearMap(n=n, rows=finite_array("A", payload["A"]))
    if amap.m != int(payload["m"]):
        raise ValueError("declared m does not match the number of rows in A")
    W = smat(finite_array("W", payload["W"]))
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    seed = meta.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"meta.seed must be an integer at least 0, got {seed!r}")
    return BapInstance(map=amap, b=finite_array("b", payload["b"]), W=W, meta=meta)


def load_instance(path: str) -> BapInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
