"""Problem data for the nearest-point problem over a spectrahedron.

An instance is  min 0.5*||X - W||^2  subject to  A(X) = b,  X psd,
with A a surjective linear map into R^m.  The map is stored row-wise in the
isometric half-vector coordinates of :mod:`.symcore`, so applying it is a
matrix-vector product and its adjoint is the transpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg

from .symcore import SQRT2, project_face, project_psd, smat, svec, tri_len


class InfeasibleManifoldError(Exception):
    """The linear equations A(X) = b are inconsistent (infeasible linear manifold)."""


@dataclass(frozen=True)
class SupportGroup:
    """The rows of a map whose constraint matrices have ``s`` nonzero rows and columns.

    Row ``index[g]`` of the map is nonzero only on the rows and columns
    ``support[g]`` (ascending, shape ``(k, s)``), where it equals
    ``blocks[g]`` (shape ``(k, s, s)``).  All three arrays are read-only.
    """

    index: np.ndarray
    support: np.ndarray
    blocks: np.ndarray

    def congruence(self, U: np.ndarray) -> np.ndarray:
        """U' A_i U for the group's rows, read through their supports: ``(k, c, c)``."""
        if self.support.shape[1] == U.shape[0]:
            return np.matmul(U.T[None, :, :], np.matmul(self.blocks, U))
        US = U[self.support]
        return np.matmul(np.swapaxes(US, 1, 2), np.matmul(self.blocks, US))


@dataclass
class LinearMap:
    """Linear map from symmetric order-n matrices to R^m, stored as svec rows.

    The map owns ``rows`` and makes it read-only, so the matrix stack that
    :meth:`matrices` builds from it once, and the row supports that
    :meth:`support_groups` reads from it once, stay valid for the map's
    lifetime.
    """

    n: int
    rows: np.ndarray  # (m, tri_len(n)), read-only
    _mats: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _groups: tuple[SupportGroup, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def support_groups(self) -> tuple[SupportGroup, ...]:
        """The rows grouped by support size s, ascending, read from ``rows`` once.

        The support of A_i is the set of rows (equally, columns) where it has
        a nonzero entry.  Blocks are cut from ``rows`` with the scaling
        :func:`smat` applies, so each equals ``smat(rows[i])[S, S]`` bit for
        bit; a full-support group (s = n) holds whole matrices instead, the
        cached :meth:`matrices` stack when it covers every row.
        """
        if self._groups is None:
            n, m = self.n, self.m
            iu, ju = np.triu_indices(n)
            nz = self.rows != 0
            # svec rows run along the upper triangle row by row: a row of A_i
            # is one contiguous run, a column is one run after this reorder
            by_col = np.lexsort((iu, ju))
            mask = np.logical_or.reduceat(nz, np.flatnonzero(np.diff(iu, prepend=-1)), axis=1)
            mask |= np.logical_or.reduceat(
                nz[:, by_col], np.flatnonzero(np.diff(ju[by_col], prepend=-1)), axis=1
            )
            sizes = np.count_nonzero(mask, axis=1)
            groups = []
            for s in np.unique(sizes):
                index = np.flatnonzero(sizes == s)
                support = np.nonzero(mask[index])[1].reshape(index.size, s)
                if s == n:
                    blocks = self.matrices() if index.size == m else smat(self.rows[index])
                else:
                    a, c = support[:, :, None], support[:, None, :]
                    lo, hi = np.minimum(a, c), np.maximum(a, c)
                    blocks = self.rows[index[:, None, None], lo * (2 * n - lo + 1) // 2 + hi - lo]
                    blocks[:, ~np.eye(s, dtype=bool)] /= SQRT2
                for arr in (index, support, blocks):
                    arr.flags.writeable = False
                groups.append(SupportGroup(index=index, support=support, blocks=blocks))
            self._groups = tuple(groups)
        return self._groups

    def congruence(self, U: np.ndarray) -> np.ndarray:
        """The stack U' A_i U of all constraints, ``(m, c, c)`` for an ``(n, c)`` U.

        Each row is read through its support (:meth:`support_groups`): a row
        nonzero on s < n rows and columns costs O(s*c*c + s*s*c), and a
        full-support row is the dense product ``U' (A_i U)``.  Outside the
        support the dense product only adds exact zeros, so both give the
        same bits.
        """
        groups = self.support_groups()
        if len(groups) == 1:
            return groups[0].congruence(U)
        c = U.shape[1]
        G = np.empty((self.m, c, c))
        for g in groups:
            G[g.index] = g.congruence(U)
        return G

    def restrict(self, Q: np.ndarray) -> LinearMap:
        """The map restricted to the face range of an (n, k) ``Q``: rows svec(Q' A_i Q)."""
        return LinearMap(n=Q.shape[1], rows=svec(Q.T @ self.matrices() @ Q))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A(X), the vector of inner products <A_i, X>."""
        return self.rows @ svec(X)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i A_i as a dense symmetric matrix."""
        y = np.asarray(y, dtype=float)
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


@dataclass
class KktTriple:
    """Candidate primal/dual point (X, y, Z) for one instance."""

    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray


def preprocess_surjective(
    amap: LinearMap, b: np.ndarray
) -> tuple[LinearMap, np.ndarray, list[int]]:
    """Drop dependent rows of A, keeping a maximal independent subset.

    The row rank is decided from singular values (relative threshold 1e-9);
    which rows survive is decided by column-pivoted QR on the row transpose,
    so the outcome is deterministic (the pivot prefers larger-norm rows
    within a dependent group).  Each removed row must be consistent with the
    kept ones, to 1e-9 * (1 + ||b||), through the same linear combination
    that reproduces it, otherwise the linear manifold is empty and
    :class:`InfeasibleManifoldError` is raised.

    Returns
    -------
    (reduced_map, reduced_b, removed_indices)
    """
    b = np.asarray(b, dtype=float).ravel()
    rows = amap.rows
    m = rows.shape[0]
    if m == 0:
        return LinearMap(n=amap.n, rows=rows.reshape(0, tri_len(amap.n))), b, []

    sv = scipy.linalg.svdvals(rows)
    rank = int(np.sum(sv > 1e-9 * (sv[0] if sv.size else 0.0)))
    if rank == m:
        return amap, b, []

    _, _, piv = scipy.linalg.qr(rows.T, mode="economic", pivoting=True)
    keep = sorted(piv[:rank].tolist())
    removed = sorted(set(range(m)) - set(keep))

    kept_rows = rows[keep]
    coeff, *_ = np.linalg.lstsq(kept_rows.T, rows[removed].T, rcond=None)
    # coeff[:, j] reproduces removed row j from the kept rows
    b_scale = 1.0 + np.linalg.norm(b)
    for j, idx in enumerate(removed):
        gap = abs(b[idx] - coeff[:, j] @ b[keep])
        if gap > 1e-9 * b_scale:
            raise InfeasibleManifoldError(
                f"row {idx} is dependent but inconsistent (gap {gap:.3e}); "
                "infeasible linear manifold"
            )

    return LinearMap(n=amap.n, rows=kept_rows), b[keep], removed


def residual_F(inst: BapInstance, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root-function value F(y) = A(P(W + A*y)) - b and the projected point X."""
    X, _ = project_psd(inst.W + inst.map.adjoint(y))
    return inst.map.apply(X) - inst.b, X


def residual_F_face(
    inst: BapInstance, y: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Face-restricted root function: projection constrained to the face spanned by V."""
    X = project_face(inst.W + inst.map.adjoint(y), V)
    return inst.map.apply(X) - inst.b, X


def kkt_residuals(inst: BapInstance, triple: KktTriple) -> dict[str, float]:
    """Scaled KKT residuals of a candidate triple.

    Keys: ``pf`` primal feasibility ||A(X)-b||/(1+||b||); ``df_lin`` stationarity
    ||X - W - A*y - Z||/(1+||W||); ``df_cone_X`` and ``df_cone_Z`` the magnitude
    of the most negative eigenvalue (0 when psd); ``cs`` the complementarity
    |<Z,X>|/(1+||X||*||Z||).
    """
    X, y, Z = triple.X, triple.y, triple.Z
    pf = np.linalg.norm(inst.map.apply(X) - inst.b) / (1.0 + np.linalg.norm(inst.b))
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
        "pf": float(pf),
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


def _format_float(x: float) -> str:
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _emit(obj: Any, parts: list[str]) -> None:
    # json.dumps formats floats with repr(), which can drop below 17 digits;
    # instance files pin 17 significant digits, so emit by hand
    if isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(payload: Any) -> str:
    """Serialize to JSON with all reals at 17 significant digits (deterministic)."""
    parts: list[str] = []
    _emit(payload, parts)
    return "".join(parts)


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
    """Write an instance to a JSON file (17 significant digits, deterministic)."""
    with open(path, "w") as fh:
        fh.write(dumps_json(instance_to_dict(inst)))
        fh.write("\n")


def instance_from_dict(payload: dict[str, Any]) -> BapInstance:
    n = int(payload["n"])
    rows = np.asarray(payload["A"], dtype=float)
    amap = LinearMap(n=n, rows=rows)
    if amap.m != int(payload["m"]):
        raise ValueError("declared m does not match the number of rows in A")
    W = smat(np.asarray(payload["W"], dtype=float))
    return BapInstance(map=amap, b=np.asarray(payload["b"], dtype=float),
                       W=W, meta=payload.get("meta", {}))


def load_instance(path: str) -> BapInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
