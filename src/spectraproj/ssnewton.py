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
import functools
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

    ``lam`` is nonincreasing; its first ``p`` entries are the positive bucket
    and the next ``z`` the zero bucket.  The symmetric n-by-n result is 1
    between the positive bucket and the positive or zero buckets, the divided
    difference (max(lam_a, 0) - max(lam_g, 0)) / (lam_a - lam_g) between each
    of the first p entries a and each later g, and 0 on every other pair, so
    every weight lies in [0, 1].  That is lam_a / (lam_a - lam_g) where a is
    positive and g is not; with ``z = 0`` a zero-bucket g above zero gets
    exactly 1, and a first-p entry a that is not positive gets 0.
    """
    n = lam.size
    w = np.zeros((n, n))
    w[:p, : p + z] = 1.0
    w[p : p + z, :p] = 1.0
    lam_a, lam_g = lam[:p, None], lam[None, p + z :]
    om = (np.maximum(lam_a, 0.0) - np.maximum(lam_g, 0.0)) / (lam_a - lam_g)
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


def _leading_gram_factor(
    amap: LinearMap, V: np.ndarray, lam: np.ndarray, s: int
) -> np.ndarray:
    """K (m, n*s) whose Gram K K' weights the leading s columns of each V' A_i V.

    ``lam`` is nonincreasing and matches the columns of the orthogonal ``V``;
    its first ``s`` entries lie above the rest.  Row i of K holds G_i[:s, :s]
    and then sqrt(2 omega) o G_i[s:, :s], with G_i = V' A_i V and the omega
    weights of :func:`_weights`, so (K K')_ij sums the leading s-by-s block
    once and the mixed block twice.  Only the s columns are formed, one block
    B of constraint matrices at a time (:meth:`LinearMap._matrix_blocks`):
    C = B V_s by one GEMM on the block's (k*n, n) view, then V' C by a
    batched product written straight into the factor.  B and C each hold at
    most :data:`.symcore.BLOCK_DOUBLES` doubles (one row's n^2 where that is
    larger), so the peak is the factor plus two blocks, and each row's
    products are those of one GEMM over the whole stack.

    Two callers: :func:`_jacobian_from_dec`, on either side of the split of
    Y, and :func:`.degeneracy.is_nondegenerate`, which passes the unit
    spectrum (ones, then zeros) so that every omega is 1 and K K' = L'L.
    """
    m, n = amap.m, amap.n
    G = np.empty((m, n, s))
    C = None
    for i, block in amap._matrix_blocks():
        k = block.shape[0]
        if C is None:  # the first block is the largest
            C = np.empty((k, n, s))
        np.matmul(block.reshape(k * n, n), V[:, :s], out=C[:k].reshape(k * n, s))
        np.matmul(V.T, C[:k], out=G[i : i + k])
    G[:, s:] *= np.sqrt(2.0 * _weights(lam, s, 0)[s:, :s])
    return G.reshape(m, n * s)


def _jacobian_from_dec(amap: LinearMap, dec: SpectralDecomp) -> np.ndarray:
    """Assemble the m-by-m Newton matrix from a cached eigendecomposition.

    Zero eigenvalues are folded into the negative bucket (a Clarke
    generalized-Jacobian choice), which leaves the clean two-block weight
    pattern: ones on the positive-positive block, omega weights on the mixed
    block, zero on the rest, so J_ij = sum_ab w_ab G_i[a, b] G_j[a, b] with
    G_i = U' A_i U.  A map whose every row is one diagonal entry
    (:attr:`LinearMap.diagonal_rows`) takes the closed Hadamard form of
    :func:`_diagonal_newton_matrix`.  Every other map takes a Gram factor on
    the smaller side of the split, so the work scales with s = min(p, q),
    q = n - p: O(m n^2 s + m^2 n s) against O(m n^3 + m^2 n^2) for weighting
    all of every G_i.

    * p <= q: J = K K' from the leading p columns of each G_i
      (:func:`_leading_gram_factor`).
    * p > q: the complement identity.  With weights 1 - w the trailing q
      columns carry what J leaves out of sum_ab G_i[a, b] G_j[a, b] =
      <A_i, A_j>, so J = R R' - Kc Kc' with R R' the cached
      :attr:`LinearMap.gram` and Kc the same factor on the reversed spectrum,
      whose mixed weights are the divided differences 1 - omega.

    Both forms err by about eps ||A_i|| ||A_j|| per entry.  K K' is psd by
    construction; the complement form is not, so its smallest eigenvalue can
    fall that far below zero (the tests bound it).
    """
    m = amap.m
    p = dec.p
    n = dec.n
    if p == 0:
        return np.zeros((m, m))
    if p == n:
        return amap.gram.copy()
    if amap.diagonal_rows is not None:
        k, beta = amap.diagonal_rows
        return _diagonal_newton_matrix(dec.U[k], beta, dec.lam, p)
    if p <= n - p:
        K = _leading_gram_factor(amap, dec.U, dec.lam, p)
        J = K @ K.T
    else:
        K = _leading_gram_factor(amap, dec.U[:, ::-1], -dec.lam[::-1], n - p)
        J = amap.gram - K @ K.T
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
    """Knobs for :func:`newton_solve`.

    The stop rule is the reference protocol's.  Its step regularization is
    not: the reference protocol takes 0.2*||F||, in the units of b, and the
    solver takes 0.2 * min(1, ||A||^2) * relres (see :func:`newton_solve`).
    Where ||A||^2 <= 1 and ||F|| <= 1 + ||b|| that is 0.2*||A||^2*||F|| /
    (1 + ||b||).  The reference rule is reproduced by replacing
    :func:`_lm_parameter`, not by an option.
    """

    eps_final: float = 1e-13
    cond_budget: float = 16.0
    max_iter: int = 2000

    def check(self) -> None:
        """Raise ValueError where a setting would leave a status meaningless.

        ``eps_final`` must lie in [0, 1): relres is clamped at 1, so 1 or more
        declares the start solved, and a negative or NaN one nothing.
        ``cond_budget`` must be at least 0 and not NaN, and ``max_iter`` at
        least 0, since the trace needs one iterate.  Each message opens with
        the field's name.
        """
        if not 0.0 <= self.eps_final < 1.0:
            raise ValueError(f"eps_final must lie in [0, 1), got {self.eps_final}")
        if not self.cond_budget >= 0.0:
            raise ValueError(f"cond_budget must be at least 0, got {self.cond_budget}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter}")


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
    """The iterates of one solve, how it stopped, and its last KKT triple.

    ``J`` is the Newton matrix at the last iterate, jacobian(inst, triple.y).
    A solved run stops without forming it: its trace, and its last iterate's
    ``cond`` and ``eig_J``, form it on first read (:class:`_SolvedIterate`).
    """

    iterates: list[NewtonIterate]
    status: NewtonStatus
    triple: KktTriple
    options: NewtonOptions
    J: np.ndarray

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


class _SolvedIterate(NewtonIterate):
    """The last iterate of a solved run, whose Newton matrix is formed on first read.

    The loop stops there without forming it.  The iterate keeps the map and
    the decomposition, and forms ``J`` and its spectrum from them once, by
    the module's :func:`_jacobian_from_dec` and :func:`jacobian_spectrum`
    looked up when read, to the bits the loop would have formed.
    """

    def __init__(self, k: int, y: np.ndarray, relres: float, lam_min_X: float,
                 wallclock: float, amap: LinearMap, dec: SpectralDecomp) -> None:
        self.k, self.y, self.relres = k, y, relres
        self.lam_min_X, self.wallclock = lam_min_X, wallclock
        self._amap, self._dec = amap, dec

    @functools.cached_property
    def J(self) -> np.ndarray:
        return _jacobian_from_dec(self._amap, self._dec)

    @functools.cached_property
    def _spectrum(self) -> tuple[np.ndarray, float]:
        return jacobian_spectrum(self.J)

    @property
    def cond(self) -> float:
        return self._spectrum[1]

    @property
    def eig_J(self) -> np.ndarray:
        return self._spectrum[0]


class _SolvedTrace(NewtonTrace):
    """The trace of a solved run: ``J`` is its last iterate's, formed on first read."""

    def __init__(self, iterates: list[NewtonIterate], triple: KktTriple,
                 options: NewtonOptions) -> None:
        self.iterates, self.triple, self.options = iterates, triple, options
        self.status = NewtonStatus.SOLVED

    @property
    def J(self) -> np.ndarray:
        return self.iterates[-1].J


def _reg_scale(amap: LinearMap, b_scale: float) -> float:
    """rho = min(1, ||A||^2) / b_scale: what turns ||F|| into the step's units.

    ``b_scale`` is 1 + ||b||.  ||A||^2 = lambda_max(A A*) bounds the Newton
    matrix, since 0 <= P' <= I gives J <= A A*.  On an all-diagonal map A A*
    is block diagonal over the rows that share one k, each block rank one,
    so ||A||^2 is the largest sum of beta_i^2 over a k, read in O(m).  On
    every other map ||A||^2 >= max_i ||A_i||^2, so min(1, ||A||^2) is exactly
    1 when that reaches 1; only below it is the cached Gram matrix decomposed.
    A map without rows has ||A|| = 0.
    """
    if amap.m == 0:
        return 0.0
    if amap.diagonal_rows is not None:
        k, beta = amap.diagonal_rows
        sigma = np.bincount(k, weights=beta * beta).max()
    elif np.einsum("ij,ij->i", amap.rows, amap.rows).max() >= 1.0:
        return 1.0 / b_scale
    else:
        sigma = np.linalg.eigvalsh(amap.gram)[-1]
    return min(1.0, float(sigma)) / b_scale


def _lm_parameter(rho: float, normF: float, b_scale: float) -> float:
    """The regularization of one Newton step: 0.2 * rho * min(||F||, b_scale).

    With rho from :func:`_reg_scale` that is 0.2 * min(1, ||A||^2) * relres,
    the clamped relres the stop rule reads: proportional to the residual,
    capped, and in the units of J (Fan & Yuan 2005; SDPNAL's
    tau1 * min(tau2, ||grad||), Zhao, Sun & Toh 2010).  Floored at 1e-14.
    """
    return max(0.2 * rho * min(normF, b_scale), 1e-14)


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


def _check_finite(a: np.ndarray) -> None:
    # the test and message of scipy's check_finite, made once per matrix
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _newton_step(J: np.ndarray, F: np.ndarray, reg: float, eye: np.ndarray) -> np.ndarray:
    """d solving (J + reg*I) d = -F by Cholesky, escalating reg tenfold on failure.

    After 40 failed factorizations it falls back to least squares.  The
    shifted matrix and its factor die with the call.
    """
    _check_finite(F)
    for _ in range(40):
        A = J + reg * eye
        _check_finite(A)
        try:
            cf = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
            return scipy.linalg.cho_solve(cf, -F, check_finite=False)
        except scipy.linalg.LinAlgError:
            reg *= 10.0
    d, *_ = np.linalg.lstsq(J + reg * eye, -F, rcond=None)
    return d


def newton_solve(
    inst: BapInstance,
    y0: np.ndarray | None = None,
    opts: NewtonOptions | None = None,
) -> NewtonTrace:
    """Run the regularized semismooth Newton iteration on F(y) = A(P(W+A*y)) - b.

    One eigendecomposition per iteration feeds the residual, the Newton matrix
    and its spectrum.  The step solves (J + lam*I) d = -F by Cholesky with
    lam = 0.2 * min(1, ||A||^2) * relres (floored at 1e-14), escalating lam
    tenfold if the factorization fails and falling back to least squares as
    a last resort.  relres is the clamped min(1, ||F|| / (1 + ||b||)) that
    the stop rule reads, so lam shrinks with the relative residual whatever
    the units of b, and min(1, ||A||^2) bounds it by the Newton matrix, since
    J <= A A*.  rho = min(1, ||A||^2) / (1 + ||b||) is computed once per
    solve (:func:`_reg_scale`), and lam = 0.2 * rho * min(||F||, 1 + ||b||)
    (:func:`_lm_parameter`).  On the elliptope rho = 1/(1 + sqrt(n)).  The
    Levenberg-Marquardt parameter proportional to the residual and capped
    is Fan & Yuan's (2005) and SDPNAL's (Zhao, Sun & Toh 2010); the
    reference protocol's 0.2*||F|| damps a stalled iterate's near-null
    directions by the absolute units of b.
    No line search; a step-norm cap of 1e8 guards against overflow on
    divergent dual sequences.  The previous iteration's Newton matrix, its
    shifted copy and its factor are released before the next one is built.

    Stopping, checked in this order at each iterate k:

    * relres <= eps_final                      -> SOLVED
    * digits lost to cond(J) + digits gained
      in relres exceed cond_budget             -> SUSPECTED_DEGENERATE
    * k reached max_iter                       -> ITER_LIMIT

    A solved iterate stops before its Newton matrix is formed, since the
    rule read relres alone.  The trace keeps that iterate's decomposition,
    and its ``J``, ``cond_final`` and last ``eig_J`` form the matrix and its
    spectrum on first read, once, to the bits the loop would have formed.
    A caller that wants only the projection never pays for them.  Stalled
    and iteration-limit runs form J at every iterate, their last included.

    The map must be surjective (linearly independent rows); the solver does
    not check.  A dependent row gives J an exact null vector, so cond(J) is
    1e16 or more, and the stop rule reads that as lost digits and stops
    SUSPECTED_DEGENERATE at k = 0, far from the projection.  The CLI
    prunes ``--instance`` files with :func:`~spectraproj.model.preprocess_surjective`,
    and :meth:`BapInstance.restrict <spectraproj.model.BapInstance.restrict>`
    prunes each reduced instance; a library caller with dependent rows
    prunes them the same way first.

    Options that leave a status meaningless raise ValueError
    (:meth:`NewtonOptions.check`).
    A residual or Newton matrix with an infinite or NaN entry raises
    ValueError before the step, as a checked Cholesky factorization would.

    The eigenvectors are left with the signs ``eigh`` gave them
    (``eig_sym(..., normalize_sign=False)``).  The iteration reads U only
    through products in which each column meets itself: P(Y) = U diag U' and
    J = sum w_ab G_i[a, b] G_j[a, b] with G_i = U' A_i U.  Negating a column
    negates both factors of each such product exactly, so X, F, J, its
    spectrum and every y are the same to the last bit either way.
    """
    opts = opts or NewtonOptions()
    opts.check()
    m = inst.m
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    b_scale = 1.0 + np.linalg.norm(inst.b)
    rho = _reg_scale(inst.map, b_scale)
    t0 = time.perf_counter()
    iterates: list[NewtonIterate] = []
    status = NewtonStatus.ITER_LIMIT
    eye = np.eye(m)

    for k in range(opts.max_iter + 1):
        Y = inst.W + inst.map.adjoint(y)
        dec = eig_sym(Y, normalize_sign=False)
        X = dec.psd_part()
        F = inst.map.apply(X) - inst.b
        normF = float(np.linalg.norm(F))
        relres = min(1.0, normF / b_scale)
        lam_min_X = max(float(dec.lam[-1]), 0.0) if dec.n else 0.0
        if relres <= opts.eps_final:
            status = NewtonStatus.SOLVED
            iterates.append(
                _SolvedIterate(k, y.copy(), relres, lam_min_X, time.perf_counter() - t0,
                               inst.map, dec)
            )
            break
        J = _jacobian_from_dec(inst.map, dec)
        eig_J, cond = jacobian_spectrum(J)
        iterates.append(
            NewtonIterate(
                k=k,
                y=y.copy(),
                relres=relres,
                cond=cond,
                eig_J=eig_J,
                lam_min_X=lam_min_X,
                wallclock=time.perf_counter() - t0,
            )
        )
        if _digits_lost(cond) + _digits_gained(relres) > opts.cond_budget:
            status = NewtonStatus.SUSPECTED_DEGENERATE
            break
        if k >= opts.max_iter:
            status = NewtonStatus.ITER_LIMIT
            break

        d = _newton_step(J, F, _lm_parameter(rho, normF, b_scale), eye)
        J = None  # free before the next assembly; the trace takes J from the break
        nd = float(np.linalg.norm(d))
        if nd > 1e8:
            d *= 1e8 / nd
        y = y + d

    triple = KktTriple(X=X, y=y.copy(), Z=X - Y)
    if status is NewtonStatus.SOLVED:
        return _SolvedTrace(iterates, triple, opts)
    return NewtonTrace(iterates=iterates, status=status, triple=triple, options=opts, J=J)


def trace_to_csv(trace: NewtonTrace) -> str:
    """Render a trace as CSV: iter, relres, cond, then the Newton-matrix spectrum."""
    m = trace.iterates[0].eig_J.size if trace.iterates else 0
    header = ",".join(["iter", "relres", "cond"] + [f"eigJ_{i+1}" for i in range(m)])
    # one %-format per row; "%.17g" writes the bytes format(v, ".17g") does
    row = "%d" + ",%.17g" * (m + 2)
    lines = [header]
    for it in trace.iterates:
        lines.append(row % (it.k, it.relres, it.cond, *it.eig_J.tolist()))
    return "\n".join(lines) + "\n"
