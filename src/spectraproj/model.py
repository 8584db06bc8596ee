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
from typing import Any

import numpy as np
import scipy.linalg

from .symcore import diag_positions, project_face, project_psd, smat, svec, tri_len


class InfeasibleManifoldError(Exception):
    """The linear equations A(X) = b are inconsistent (infeasible linear manifold)."""


@dataclass
class LinearMap:
    """Linear map from symmetric order-n matrices to R^m, stored as svec rows.

    The map owns ``rows`` and makes it read-only, so the matrix stack that
    :meth:`matrices` builds from it once, and :attr:`diagonal_rows`, stay
    valid for the map's lifetime.
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
