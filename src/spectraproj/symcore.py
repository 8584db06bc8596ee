"""Symmetric-matrix kernel: isometric vectorization, spectral splits, cone projections.

Everything downstream works with dense real symmetric matrices of modest order
(n <= 200 or so).  Matrices are plain ``(n, n)`` numpy arrays; the half-vector
form produced by :func:`svec` is the storage format for linear maps and files.
:func:`svec` and :func:`smat` also take stacks ``(..., n, n)`` and ``(..., t)``,
so a whole family of constraint matrices converts in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)

#: relative threshold below which an eigenvalue counts as zero
DEFAULT_ZERO_TOL = 1e-10


def tri_len(n: int) -> int:
    """Length n*(n+1)/2 of the half-vectorization of an order-n symmetric matrix."""
    return n * (n + 1) // 2


def tri_order(t: int) -> int:
    """Inverse of :func:`tri_len`; raises if ``t`` is not a triangular number."""
    n = int((np.sqrt(8 * t + 1) - 1) / 2 + 0.5)
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
    iu, ju = np.triu_indices(M.shape[-1])
    # copy to C order: fancy indexing a stack returns a transposed layout, and
    # BLAS would sum products against such rows in a different order
    v = M[..., iu, ju].copy()
    v[..., iu != ju] *= SQRT2
    return v


def smat(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`: ``(..., t)`` half-vectors to ``(..., n, n)`` matrices."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise ValueError("expected a vector or a stack of vectors")
    n = tri_order(v.shape[-1])
    iu, ju = np.triu_indices(n)
    w = v.copy()
    w[..., iu != ju] /= SQRT2
    M = np.zeros(v.shape[:-1] + (n, n))
    M[..., iu, ju] = w
    M[..., ju, iu] = w
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
    A = np.abs(U)
    big = A > 1e-12 * np.maximum(1.0, A.max(axis=0, initial=0.0))
    lead = big & (np.cumsum(big, axis=0) == 1)
    out = U.copy()
    out[:, (lead & (U < 0)).any(axis=0)] *= -1.0
    return out


def eig_sym(S: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> SpectralDecomp:
    """Ordered symmetric eigendecomposition with its positive/zero/negative split.

    Parameters
    ----------
    S : (n, n) ndarray
        Symmetric input; it is symmetrized as (S + S.T)/2 before factoring.
    zero_tol : float
        Relative threshold for the zero bucket.

    Returns
    -------
    SpectralDecomp
    """
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    order = np.argsort(w, kind="stable")[::-1]
    lam = w[order]
    U = _normalize_sign(V[:, order])
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
