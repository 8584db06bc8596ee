"""Semismooth Newton solver for the projection root function.

The root function is F(y) = A(P(W + A*y)) - b with P the PSD projection.  P is
not differentiable everywhere, but it has directional derivatives with a closed
spectral form, and on the complement of a thin set F has an honest Jacobian
that is symmetric positive semidefinite.  The solver below runs damped Newton
steps on F with an LM-style regularization and stops on one of three flags:
converged, suspected-degenerate (conditioning has eaten the attainable digits),
or iteration limit.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import BapInstance, KktTriple, LinearMap
from .symcore import SpectralDecomp, eig_sym, project_psd

__all__ = [
    "NewtonOptions",
    "NewtonStatus",
    "NewtonIterate",
    "NewtonTrace",
    "dir_deriv_proj",
    "jacobian",
    "jacobian_spectrum",
    "newton_solve",
    "trace_to_csv",
]


def _weights(lam: np.ndarray, p: int, z: int) -> np.ndarray:
    """First-divided-difference weights of max(., 0) on a sorted split spectrum.

    ``lam`` is nonincreasing with ``p`` positive entries followed by ``z`` in
    the zero bucket.  The symmetric n-by-n result is 1 between the positive
    bucket and the positive or zero buckets, lam_a / (lam_a - lam_g) in (0, 1)
    between positive a and negative g, and 0 on every other pair.
    """
    n = lam.size
    w = np.zeros((n, n))
    w[:p, : p + z] = 1.0
    w[p : p + z, :p] = 1.0
    om = lam[:p, None] / (lam[:p, None] - lam[None, p + z :])
    w[:p, p + z :] = om
    w[p + z :, :p] = om.T
    return w


def _dir_deriv_from_dec(dec: SpectralDecomp, H: np.ndarray) -> np.ndarray:
    """P'(Y; H) for one direction ``(n, n)`` or a stack ``(..., n, n)`` of them."""
    p, z = dec.p, dec.z
    U = dec.U
    Ht = U.T @ H @ U
    M = _weights(dec.lam, p, z) * Ht
    # Ht is symmetric only to rounding; mirror the weighted upper mixed block
    M[..., p + z :, :p] = np.swapaxes(M[..., :p, p + z :], -1, -2)
    if z:
        n = dec.n
        for Mk, Hk in zip(M.reshape(-1, n, n), Ht.reshape(-1, n, n)):
            Mk[p : p + z, p : p + z], _ = project_psd(Hk[p : p + z, p : p + z])
    return U @ M @ U.T


def dir_deriv_proj(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Directional derivative of the PSD projection at S in direction H.

    Uses the spectral divided-difference form: with the eigenbasis of S split
    into positive / zero / negative buckets (relative zero threshold
    ``symcore.DEFAULT_ZERO_TOL``), the derivative keeps the positive block of
    H, damps the mixed positive-negative block by the omega weights, projects
    the zero block, and kills the rest.  At a definite S this reduces to H
    (positive definite) or 0 (negative definite).
    """
    S = np.asarray(S, dtype=float)
    H = np.asarray(H, dtype=float)
    if S.shape != H.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S and H must be square matrices of equal order")
    dec = eig_sym(S)
    return _dir_deriv_from_dec(dec, 0.5 * (H + H.T))


def _diagonal_newton_matrix(
    V: np.ndarray, beta: np.ndarray, lam: np.ndarray, p: int
) -> np.ndarray:
    """The Newton matrix of a map whose row i is beta_i e_k e_k', k = k_i.

    ``V`` holds the rows U[k_i, :] of the eigenvectors.  Then G_i = beta_i
    v_i v_i' is rank one, and the weighted Gram matrix has the closed form
    D [(V_p V_p') o (V_p V_p') + K K'] D with D = diag(beta) and
    K[i, (a, c)] = V_ia V_ic sqrt(2 omega_ac) over positive a and negative c
    (Qi & Sun 2006).  It costs O(m^2 p q) and never forms the G stack.
    """
    m = V.shape[0]
    Vp = V[:, :p]
    H = Vp @ Vp.T
    K = Vp[:, :, None] * V[:, None, p:]
    K *= np.sqrt(2.0 * _weights(lam, p, 0)[:p, p:])
    K = K.reshape(m, -1)
    J = (H * H + K @ K.T) * np.outer(beta, beta)
    return 0.5 * (J + J.T)


def _jacobian_from_dec(amap: LinearMap, dec: SpectralDecomp) -> np.ndarray:
    """Assemble the m-by-m Newton matrix from a cached eigendecomposition.

    Zero eigenvalues are folded into the negative bucket (a Clarke
    generalized-Jacobian choice), which leaves the clean two-block weight
    pattern: ones on the positive-positive block, omega weights on the mixed
    block, zero on the rest.  The result is a nonnegatively weighted Gram
    matrix, hence symmetric positive semidefinite.  A map whose every row is
    one diagonal entry (:attr:`LinearMap.diagonal_rows`) takes the closed
    Hadamard form of :func:`_diagonal_newton_matrix`; every other map weights
    the dense stack of congruences U' A_i U.
    """
    m = amap.m
    p = dec.p
    n = dec.n
    if p == 0:
        return np.zeros((m, m))
    if p == n:
        return amap.rows @ amap.rows.T
    if amap.diagonal_rows is not None:
        k, beta = amap.diagonal_rows
        return _diagonal_newton_matrix(dec.U[k], beta, dec.lam, p)
    G = np.matmul(dec.U.T, np.matmul(amap.matrices(), dec.U))
    w = _weights(dec.lam, p, 0)
    Gf = G.reshape(m, n * n)
    J = (Gf * w.ravel()) @ Gf.T
    return 0.5 * (J + J.T)


def jacobian(inst: BapInstance, y: np.ndarray) -> np.ndarray:
    """Newton matrix J(y) of the root function at y (m-by-m, psd)."""
    return _jacobian_from_dec(inst.map, eig_sym(inst.W + inst.map.adjoint(y)))


def jacobian_spectrum(J: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of J sorted nonincreasing and the ratio largest/smallest.

    The smallest eigenvalue is floored at 1e-300 in the ratio so that an exactly
    singular J reports a huge but finite condition number.
    """
    w = np.linalg.eigvalsh(0.5 * (J + J.T))
    eigs = w[::-1].copy()
    cond = float(eigs[0] / max(eigs[-1], 1e-300)) if eigs.size else 0.0
    return eigs, cond


class NewtonStatus(enum.Enum):
    SOLVED = "Solved"
    SUSPECTED_DEGENERATE = "SuspectedDegenerate"
    ITER_LIMIT = "IterLimit"


@dataclass
class NewtonOptions:
    """Knobs for :func:`newton_solve`; defaults match the reference protocol."""

    eps_final: float = 1e-13
    cond_budget: float = 16.0
    max_iter: int = 2000


@dataclass
class NewtonIterate:
    k: int
    y: np.ndarray
    relres: float
    cond: float
    eig_J: np.ndarray
    lam_min_X: float
    wallclock: float


@dataclass
class NewtonTrace:
    iterates: list[NewtonIterate]
    status: NewtonStatus
    triple: KktTriple
    options: NewtonOptions
    J: np.ndarray  # Newton matrix at the last iterate: jacobian(inst, triple.y)

    @property
    def k_final(self) -> int:
        return self.iterates[-1].k

    @property
    def relres_final(self) -> float:
        return self.iterates[-1].relres

    @property
    def cond_final(self) -> float:
        return self.iterates[-1].cond

    def relres_history(self) -> np.ndarray:
        return np.array([it.relres for it in self.iterates])


def _digits_lost(cond: float) -> int:
    # cond = beta * 10^s with beta in [1, 10)
    if not np.isfinite(cond) or cond <= 0:
        return 0
    return int(math.floor(math.log10(cond)))


def _digits_gained(relres: float) -> int:
    # relres = alpha * 10^-t with alpha in [1, 10)
    if relres <= 0:
        return 400
    return int(math.ceil(-math.log10(relres)))


def newton_solve(
    inst: BapInstance,
    y0: np.ndarray | None = None,
    opts: NewtonOptions | None = None,
) -> NewtonTrace:
    """Run the regularized semismooth Newton iteration on F(y) = A(P(W+A*y)) - b.

    One eigendecomposition per iteration feeds the residual, the Newton matrix
    and its spectrum.  The step solves (J + lam*I) d = -F by Cholesky with
    lam = 0.2*||F|| (floored at 1e-14), escalating lam tenfold if the
    factorization fails and falling back to least squares as a last resort.
    No line search; a step-norm cap of 1e8 guards against overflow on
    divergent dual sequences.

    Stopping, checked in this order at each iterate k:

    * relres <= eps_final                      -> SOLVED
    * digits lost to cond(J) + digits gained
      in relres exceed cond_budget             -> SUSPECTED_DEGENERATE
    * k reached max_iter                       -> ITER_LIMIT

    A negative ``max_iter`` raises ValueError: the trace needs one iterate.
    """
    opts = opts or NewtonOptions()
    if opts.max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {opts.max_iter}")
    m = inst.m
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    b_scale = 1.0 + np.linalg.norm(inst.b)
    t0 = time.perf_counter()
    iterates: list[NewtonIterate] = []
    status = NewtonStatus.ITER_LIMIT
    X = np.zeros((inst.n, inst.n))
    Z = np.zeros_like(X)
    J = np.zeros((m, m))

    for k in range(opts.max_iter + 1):
        Y = inst.W + inst.map.adjoint(y)
        dec = eig_sym(Y)
        X = dec.psd_part()
        Z = X - Y
        F = inst.map.apply(X) - inst.b
        normF = float(np.linalg.norm(F))
        relres = min(1.0, normF / b_scale)
        J = _jacobian_from_dec(inst.map, dec)
        eig_J, cond = jacobian_spectrum(J)
        iterates.append(
            NewtonIterate(
                k=k,
                y=y.copy(),
                relres=relres,
                cond=cond,
                eig_J=eig_J,
                lam_min_X=max(float(dec.lam[-1]), 0.0) if dec.n else 0.0,
                wallclock=time.perf_counter() - t0,
            )
        )
        if relres <= opts.eps_final:
            status = NewtonStatus.SOLVED
            break
        if _digits_lost(cond) + _digits_gained(relres) > opts.cond_budget:
            status = NewtonStatus.SUSPECTED_DEGENERATE
            break
        if k >= opts.max_iter:
            status = NewtonStatus.ITER_LIMIT
            break

        reg = max(0.2 * normF, 1e-14)
        d = None
        for _ in range(40):
            try:
                cf = scipy.linalg.cho_factor(J + reg * np.eye(m), lower=True)
                d = scipy.linalg.cho_solve(cf, -F)
                break
            except scipy.linalg.LinAlgError:
                reg *= 10.0
        if d is None:
            d, *_ = np.linalg.lstsq(J + reg * np.eye(m), -F, rcond=None)
        nd = float(np.linalg.norm(d))
        if nd > 1e8:
            d *= 1e8 / nd
        y = y + d

    return NewtonTrace(
        iterates=iterates,
        status=status,
        triple=KktTriple(X=X, y=y.copy(), Z=Z),
        options=opts,
        J=J,
    )


def trace_to_csv(trace: NewtonTrace) -> str:
    """Render a trace as CSV: iter, relres, cond, then the Newton-matrix spectrum."""
    m = trace.iterates[0].eig_J.size if trace.iterates else 0
    header = ",".join(["iter", "relres", "cond"] + [f"eigJ_{i+1}" for i in range(m)])
    lines = [header]
    for it in trace.iterates:
        vals = [str(it.k), format(it.relres, ".17g"), format(it.cond, ".17g")]
        vals += [format(v, ".17g") for v in it.eig_J]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
