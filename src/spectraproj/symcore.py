"""Symmetric-matrix kernel: isometric vectorization, spectral splits, cone projections.

Everything downstream works with dense real symmetric matrices of modest order
(n <= 200 or so).  Matrices are plain ``(n, n)`` numpy arrays; the half-vector
form produced by :func:`svec` is the storage format for linear maps and files.
:func:`svec` and :func:`smat` also take stacks ``(..., n, n)`` and ``(..., t)``,
so a whole family of constraint matrices converts in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)

#: relative threshold below which an eigenvalue counts as zero
DEFAULT_ZERO_TOL = 1e-10

#: doubles in one block of a stack built a block of rows at a time (2 MB,
#: about a cache's worth), so a temporary never grows with the row count
BLOCK_DOUBLES = 1 << 18


def tri_len(n: int) -> int:
    """Length n*(n+1)/2 of the half-vectorization of an order-n symmetric matrix."""
    return n * (n + 1) // 2


def tri_order(t: int) -> int:
    """Inverse of :func:`tri_len`; raises if ``t`` is not a triangular number."""
    n = (math.isqrt(8 * t + 1) - 1) // 2
    if tri_len(n) != t:
        raise ValueError(f"{t} is not n*(n+1)/2 for any integer n")
    return n


def diag_positions(n: int) -> np.ndarray:
    """Positions of the diagonal entries X[0, 0], ..., X[n-1, n-1] inside ``svec(X)``."""
    d = np.arange(n)
    return d * (2 * n - d + 1) // 2


def svec(M: np.ndarray) -> np.ndarray:
    """Half-vectorize a symmetric matrix, or a stack of them, isometrically.

    Upper triangle in row-major order; off-diagonal entries are scaled by
    sqrt(2) so that ``svec(A) @ svec(B) == trace(A @ B)``.

    Parameters
    ----------
    M : (..., n, n) ndarray
        Symmetric matrix or stack.  Symmetry is trusted, only the upper
        triangle is read.

    Returns
    -------
    (..., n*(n+1)/2) ndarray
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[-1]
    flat, scale = _svec_gather(n)
    # take returns C order (fancy indexing a stack returns a transposed layout,
    # and BLAS would sum products against such rows in a different order);
    # the product with 1.0 on the diagonal is exact
    return np.take(M.reshape(*M.shape[:-2], n * n), flat, axis=-1) * scale


@functools.lru_cache(maxsize=32)
def _svec_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat positions of the upper triangle and the per-position factor.

    ``flat`` lists a*n + b over ``np.triu_indices(n)``; ``scale`` is 1 at
    diagonal positions and sqrt(2) elsewhere.
    """
    iu, ju = np.triu_indices(n)
    flat = iu * n + ju
    scale = np.where(iu == ju, 1.0, SQRT2)
    flat.flags.writeable = scale.flags.writeable = False
    return flat, scale


@functools.lru_cache(maxsize=32)
def _smat_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) tables of svec positions and of the per-entry divisor.

    ``pos[a, b]`` is where X[a, b] (or X[b, a]) sits in ``svec(X)``;
    ``div[a, b]`` is 1 on the diagonal and sqrt(2) elsewhere.
    """
    iu, ju = np.triu_indices(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    div = np.where(np.eye(n, dtype=bool), 1.0, SQRT2)
    pos.flags.writeable = div.flags.writeable = False
    return pos, div


def smat(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`svec`: ``(..., t)`` half-vectors to ``(..., n, n)`` matrices.

    ``out``, when given, is a C-ordered float array of the result's shape;
    the matrices are written into it and it is returned.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise ValueError("expected a vector or a stack of vectors")
    pos, div = _smat_gather(tri_order(v.shape[-1]))
    # take, since fancy indexing a stack returns a transposed (non C-order)
    # layout; then divide in place, since a product with 1/sqrt(2) rounds
    # differently, and dividing after the gather needs no copy of v.  Every
    # position is in range, so mode="clip" clips nothing; unlike the default
    # "raise" it lets take write into ``out`` without a buffered copy
    M = np.take(v, pos, axis=-1, out=out, mode="clip")
    M /= div
    return M


@dataclass
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix with a thresholded sign split.

    ``lam`` is nonincreasing, ``U`` orthogonal and C-contiguous with matching
    columns.  The split is by counts, so each bucket is a slice: ``lam[:p]``
    strictly positive, ``lam[p:p+z]`` within
    ``zero_tol * max(1, |lam[0]|, |lam[-1]|)`` of zero, the rest strictly
    negative.
    """

    U: np.ndarray
    lam: np.ndarray
    p: int
    z: int

    @property
    def n(self) -> int:
        return self.lam.size

    def recompose(self) -> np.ndarray:
        return (self.U * self.lam) @ self.U.T

    def psd_part(self) -> np.ndarray:
        """P(S): the eigenvalues clipped at zero, recomposed and symmetrized."""
        X = (self.U * np.maximum(self.lam, 0.0)) @ self.U.T
        return 0.5 * (X + X.T)


def _normalize_sign(U: np.ndarray) -> np.ndarray:
    # flip each column so its first component of nontrivial size is positive;
    # keeps eigenvectors reproducible across runs on the same data
    if U.size == 0:
        return U.copy()
    A = np.abs(U)
    big = A > 1e-12 * np.maximum(1.0, A.max(axis=0))
    # argmax finds the first True; a column with none reads row 0, which is
    # then not big and flips nothing
    lead = np.argmax(big, axis=0)
    cols = np.arange(U.shape[1])
    out = U.copy()
    out[:, big[lead, cols] & (U[lead, cols] < 0)] *= -1.0
    return out


def eig_sym(
    S: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL, *, normalize_sign: bool = True
) -> SpectralDecomp:
    """Ordered symmetric eigendecomposition with its positive/zero/negative split.

    ``np.linalg.eigh`` returns its eigenvalues ascending, so reversing them
    and the columns of V gives the nonincreasing order.  Even on ties this is
    the order ``argsort(w, kind="stable")[::-1]`` gives, since a stable sort
    of a sorted array is the identity.

    Parameters
    ----------
    S : (n, n) ndarray
        Symmetric input; it is symmetrized as (S + S.T)/2 before factoring.
    zero_tol : float
        Relative threshold for the zero bucket.
    normalize_sign : bool
        Flip each column of U so its first entry of nontrivial size is
        positive (the default).  A caller that reads U only through products
        invariant under a column's sign, such as U diag(d) U', may pass
        False and keep the columns as ``eigh`` returned them.

    Returns
    -------
    SpectralDecomp
    """
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    lam = w[::-1].copy()
    U = V[:, ::-1]
    U = _normalize_sign(U) if normalize_sign else np.ascontiguousarray(U)
    scale = max(1.0, abs(lam[0]), abs(lam[-1])) if lam.size else 1.0
    thr = zero_tol * scale
    p = int(np.count_nonzero(lam > thr))
    z = int(np.count_nonzero(np.abs(lam) <= thr))
    return SpectralDecomp(U=U, lam=lam, p=p, z=z)


def project_psd(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest positive semidefinite matrix and the complementary part.

    Returns ``(X, Zneg)`` with ``X`` the Frobenius-nearest PSD matrix and
    ``Zneg = X - S``.  The pair satisfies ``Zneg >= 0`` and ``<X, Zneg> = 0``
    up to roundoff, which is the decomposition the dual side of everything
    here is built on.
    """
    X = eig_sym(S, zero_tol=0.0).psd_part()
    Zneg = X - np.asarray(S, dtype=float)
    return X, 0.5 * (Zneg + Zneg.T)


def check_face_range(V: np.ndarray) -> None:
    """Raise ValueError unless V has orthonormal columns: ||V'V - I|| <= 1e-12."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("face range must be a 2-d array")
    defect = np.linalg.norm(V.T @ V - np.eye(V.shape[1]))
    if defect > 1e-12:
        raise ValueError(f"columns of V are not orthonormal: ||V'V - I|| = {defect:.3e}")


def project_face(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Project onto the face ``{V R V' : R psd}`` of the PSD cone.

    Equals ``V P(V' u V) V'`` with ``P`` the PSD projection on the reduced
    order; this is the exact nearest point because conjugation by an isometry
    preserves the Frobenius geometry.
    """
    check_face_range(V)
    u = np.asarray(u, dtype=float)
    R, _ = project_psd(V.T @ u @ V)
    return V @ R @ V.T


def moreau_envelope(S: np.ndarray) -> float:
    """Value 0.5*||P(S)||^2 of the squared-norm envelope at S.

    Differentiable everywhere with gradient P(S), the PSD projection of S,
    which is what makes the Newton residual downstream a gradient map.
    """
    dec = eig_sym(S, zero_tol=0.0)
    pos = np.maximum(dec.lam, 0.0)
    return 0.5 * float(pos @ pos)
