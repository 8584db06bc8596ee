"""Facial reduction for projection problems without a strictly feasible point.

When the feasible spectrahedron has empty interior there is, by a theorem of
the alternative, a nonzero multiplier lam with A*(lam) psd, nonzero, and
orthogonal to b.  Such a certificate exposes a proper face of the cone; pulling
the problem onto that face and deleting the constraint rows that became
dependent yields a smaller, better behaved instance.  Repeating until no
certificate exists restores a strictly feasible formulation.  The number of
rounds taken is an upper estimate of the singularity degree of the feasible
set, and the total number of deleted rows counts the implicit redundancies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .model import BapInstance
from .ssnewton import NewtonOptions, NewtonStatus, NewtonTrace, newton_solve
from .ssnewton import _dir_deriv_from_dec
from .symcore import SpectralDecomp, eig_sym, svec, tri_len

#: residual a certificate must reach, and the slack its checks allow
CERT_TOL = 1e-9


class FaceCollapsedError(Exception):
    """Facial reduction drove the face to {0}; only X = 0 could be feasible."""


@dataclass
class AuxCertificate:
    """Solution of the auxiliary system: unit lam with A*(lam) psd and <b, lam> = 0."""

    lam: np.ndarray
    Z: np.ndarray
    residual: float
    b_inner: float

    @cached_property
    def dec(self) -> SpectralDecomp:
        """``eig_sym(Z)``; the search sets the one it already holds."""
        return eig_sym(self.Z)

    def validate(self, b: np.ndarray) -> None:
        if abs(np.linalg.norm(self.lam) - 1.0) > 1e-8:
            raise ValueError("certificate multiplier is not unit norm")
        eZ = self.dec.lam
        if eZ.size and eZ[-1] < -CERT_TOL * max(1.0, abs(eZ[0])):
            raise ValueError(f"exposing matrix is not psd: min eig {eZ[-1]:.3e}")
        if abs(self.b_inner) > CERT_TOL * (1.0 + np.linalg.norm(b)):
            raise ValueError("certificate is not orthogonal to b")
        if np.linalg.norm(self.Z) < 1e-8:
            raise ValueError("exposing matrix is numerically zero")


@dataclass
class FrStep:
    """One facial-reduction round."""

    lam: np.ndarray          # certificate in the coordinates of the step's instance
    lam_lifted: np.ndarray   # same certificate zero-padded to the original rows
    Q: np.ndarray            # basis of the step's face inside the previous one
    rows_removed: list[int]  # indices (step-local) of rows dropped as dependent
    r_after: int             # face dimension after the step
    residual: float


@dataclass
class FaceChain:
    """Composed outcome of a facial-reduction loop."""

    V: np.ndarray            # n x r basis of the current face in original coordinates
    kept: np.ndarray         # mask over the original rows still present
    steps: list[FrStep] = field(default_factory=list)

    @classmethod
    def start(cls, inst: BapInstance) -> FaceChain:
        """The empty chain: the whole cone and every row of ``inst``."""
        return cls(V=np.eye(inst.n), kept=np.ones(inst.m, dtype=bool))

    @property
    def sd_hat(self) -> int:
        return len(self.steps)

    @property
    def iips_hat(self) -> int:
        return sum(len(s.rows_removed) for s in self.steps)

    def restrict(self, inst: BapInstance, cert: AuxCertificate) -> BapInstance:
        """One round: validate ``cert``, restrict ``inst`` to its face, record the step.

        ``inst`` is the chain's current instance; the reduced one is returned
        and ``V`` and ``kept`` are updated to it.
        """
        cert.validate(inst.b)
        reduced, Q, removed = fr_step(inst, cert)
        rows = np.flatnonzero(self.kept)
        lifted = np.zeros(self.kept.size)
        lifted[rows] = cert.lam
        self.kept[rows[removed]] = False
        self.V = self.V @ Q
        self.steps.append(FrStep(cert.lam, lifted, Q, removed, reduced.n, cert.residual))
        return reduced


@dataclass
class ReductionRound:
    """One round of a reduction run: its Newton solve and the reduction that followed.

    ``trace`` is None when the run solves no round (``newton=False``, as in
    :func:`fr_loop`); ``step`` is None on the last round.
    """

    inst: BapInstance
    trace: NewtonTrace | None
    step: FrStep | None


@dataclass
class ReductionResult:
    """Outcome of :func:`solve_with_reduction`.

    ``X`` is the last round's primal iterate lifted back, V X V', and None
    when no round solved (``newton=False``).
    """

    rounds: list[ReductionRound]
    chain: FaceChain
    X: np.ndarray | None


def _aux_residual(inst: BapInstance, lam: np.ndarray) -> tuple[np.ndarray, SpectralDecomp]:
    """Residual (svec(M - P(M)), <b, lam>) at M = A*(lam), and M's decomposition."""
    dec = eig_sym(inst.map.adjoint(lam))
    neg = np.minimum(dec.lam, 0.0)
    Mneg = (dec.U * neg) @ dec.U.T
    r = np.concatenate([svec(Mneg), [float(inst.b @ lam)]])
    return r, dec


def _aux_jacobian(inst: BapInstance, dec: SpectralDecomp) -> np.ndarray:
    # residual row block is svec(M - P(M)); its derivative in lam_j is
    # svec(A_j - P'(M; A_j)), with dec the decomposition of M, filled here a
    # block of constraint matrices at a time
    J = np.empty((tri_len(inst.n) + 1, inst.m))
    for i, block in inst.map._matrix_blocks():
        J[:-1, i : i + len(block)] = svec(block - _dir_deriv_from_dec(dec, block)).T
    J[-1] = inst.b
    return J


def _polish_step(
    inst: BapInstance, mu: np.ndarray, mdec: SpectralDecomp, keep: np.ndarray
) -> tuple[np.ndarray, SpectralDecomp, float] | None:
    """One polish pass: the null vector of the cut system closest to ``mu``.

    ``mdec`` decomposes A*(mu) and ``keep`` marks the columns of its U that
    span the cut.  Returns the unit candidate, its decomposition and its
    residual norm, or None when the system has no usable null vector.

    The cut system K stacks the restricted rows svec(N'A_iN) as columns over
    b', so it is (t + 1) x m with t = tri_len(|keep|), usually far taller
    than wide (301 x 40 on the benchmark pool).  Only its singular values
    and right singular vectors are read.  K = QR with Q orthonormal, so
    K'K = R'R: the triangle R, m x m for a tall K and (t + 1) x m for a wide
    one, has the same singular values and right singular vectors, and its
    SVD stands in for K's without building K's (t + 1)-square left factor.
    """
    N = mdec.U[:, keep]
    K = np.vstack([inst.map.restrict(N).rows.T, inst.b])
    _, sig, Vt = np.linalg.svd(np.linalg.qr(K, mode="r"))
    null_mask = np.zeros(inst.m, dtype=bool)
    null_mask[len(sig):] = True
    null_mask[: len(sig)] |= sig <= 1e-8 * (sig[0] if len(sig) else 1.0)
    if not null_mask.any():
        return None
    B = Vt[null_mask].T
    cand = B @ (B.T @ mu)
    nm = float(np.linalg.norm(cand))
    if nm < 1e-8:
        return None
    mu = cand / nm
    r_new, mdec = _aux_residual(inst, mu)
    return mu, mdec, float(np.linalg.norm(r_new))


def _polish_certificate(
    inst: BapInstance, lam: np.ndarray, rn: float, dec: SpectralDecomp
) -> tuple[np.ndarray, float, SpectralDecomp]:
    """Snap a near-certificate onto the exact face it is trying to expose.

    A residual of ``rn`` still tolerates spurious multiplier components of
    order sqrt(rn), because their contribution to the negative part is
    quadratic; those inflate the rank of the exposing matrix and over-restrict
    the face.  For a few candidate rank cuts this solves the exact linear
    system (complement block of A* vanishes, b-orthogonality) and keeps the
    null vector closest to ``lam`` whenever that strictly improves the
    residual.  ``dec`` decomposes A*(lam); the winner comes back with its own.

    The cuts often replay one another: a pass of a finer cut can start from
    the multiplier and cut that a coarser one already solved.  Each pass
    (:func:`_polish_step`) depends only on its multiplier and its cut, so the
    passes are memoized on those bytes for the length of one polish, and a
    replayed pass returns the very result it returned before.
    """
    best = (lam, rn, dec)
    steps: dict[tuple[bytes, bytes], tuple[np.ndarray, SpectralDecomp, float] | None] = {}
    for theta in (1e-4, 1e-6, 1e-8):
        mu, mdec = lam, dec
        # the cut basis inherits the pollution it is meant to remove, so one
        # projection only shrinks it quadratically; a few passes reach machine
        for _ in range(4):
            # at A*(mu) = 0 nothing is kept, and the passes end
            keep = mdec.lam < theta * float(np.abs(mdec.lam).max())
            if not keep.any() or keep.all():
                break
            key = (mu.tobytes(), keep.tobytes())
            if key not in steps:
                steps[key] = _polish_step(inst, mu, mdec, keep)
            step = steps[key]
            if step is None:
                break
            mu, mdec, rn_new = step
            if rn_new < best[1]:
                best = (mu, rn_new, mdec)
            if rn_new == 0.0:
                break
    return best


def solve_aux_gauss_newton(
    inst: BapInstance, lam0: np.ndarray | None = None
) -> AuxCertificate | None:
    """Search for an auxiliary-system certificate by projected Gauss-Newton.

    Minimizes ||(negative part of A*(lam), <b, lam>)|| over the unit sphere,
    renormalizing after every step and halving the step while it does not
    decrease the residual.  The residual is positively homogeneous of degree
    one, so the unconstrained least-squares step is always the useless
    direction -lam (Euler's identity); the step is therefore restricted to the
    tangent space of the sphere at the current point.  Deterministic
    multi-start: the optional warm start first, then 20 unit Gaussians seeded
    from the instance seed, each run for at most 60 steps.  Returns None when
    no start reaches residual ``CERT_TOL`` with a nontrivially nonzero
    exposing matrix; on a feasible instance that outcome is evidence of strict
    feasibility.
    """
    m = inst.m
    if m == 0:
        return None
    seed = int(inst.meta.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    starts: list[np.ndarray] = []
    if lam0 is not None:
        lam0 = np.asarray(lam0, dtype=float)
        if np.linalg.norm(lam0) > 0:
            starts.append(lam0 / np.linalg.norm(lam0))
    for _ in range(20):
        v = rng.standard_normal(m)
        starts.append(v / np.linalg.norm(v))

    for lam in starts:
        lam = lam.copy()
        r, dec = _aux_residual(inst, lam)
        rn = float(np.linalg.norm(r))
        for _ in range(60):
            if rn <= CERT_TOL or m == 1:
                break
            J = _aux_jacobian(inst, dec)
            # tangent basis at lam: trailing columns of a full QR of [lam]
            Q, _ = np.linalg.qr(lam.reshape(-1, 1), mode="complete")
            T = Q[:, 1:]
            c, *_ = np.linalg.lstsq(J @ T, -r, rcond=None)
            d = T @ c
            step = 1.0
            improved = False
            for _ in range(25):
                cand = lam + step * d
                nc = np.linalg.norm(cand)
                if nc < 1e-14:
                    step *= 0.5
                    continue
                cand /= nc
                rc, decc = _aux_residual(inst, cand)
                rcn = float(np.linalg.norm(rc))
                if rcn < rn:
                    lam, r, rn, dec = cand, rc, rcn, decc
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        # ||M||_F is the 2-norm of M's eigenvalues
        if rn <= CERT_TOL and np.linalg.norm(dec.lam) >= 1e-8:
            lam, rn, dec = _polish_certificate(inst, lam, rn, dec)
            if np.linalg.norm(dec.lam) < 1e-8:
                continue
            # first success wins, in start order, so the outcome is seed-stable
            cert = AuxCertificate(
                lam=lam, Z=inst.map.adjoint(lam), residual=rn, b_inner=float(inst.b @ lam)
            )
            cert.dec = dec  # eig_sym of this same A*(lam)
            return cert
    return None


def certificate_from_stall(trace: NewtonTrace, inst: BapInstance) -> np.ndarray:
    """Candidate certificate from a stalled Newton run.

    The eigenvector of the smallest eigenvalue of the terminal Newton matrix
    ``trace.J`` is the stall direction; entries below a thousandth of the
    largest are zeroed (small supports are typical for planted redundancy) and
    the result is renormalized.  Raises if the run actually solved the problem.
    """
    if trace.status == NewtonStatus.SOLVED:
        raise ValueError("run converged; there is no stall to extract a certificate from")
    _, V = np.linalg.eigh(trace.J)
    lam = V[:, 0].copy()
    lam[np.abs(lam) <= 1e-3 * np.abs(lam).max()] = 0.0
    lam /= np.linalg.norm(lam)
    # orient toward the psd side so the Gauss-Newton polish starts closer
    M = inst.map.adjoint(lam)
    e = np.linalg.eigvalsh(M)
    if abs(e[0]) > abs(e[-1]):
        lam = -lam
    return lam


def fr_step(inst: BapInstance, cert: AuxCertificate) -> tuple[BapInstance, np.ndarray, list[int]]:
    """Restrict the instance to the face exposed by a certificate.

    The face is spanned by the (thresholded) null space Q of the psd part of
    the exposing matrix; constraints become Q' A_i Q, the anchor W becomes
    Q' W Q, and rows that lost rank are deleted after a consistency check.
    Raises :class:`FaceCollapsedError` when the exposing matrix has full-rank
    positive part.
    """
    dec = cert.dec
    if dec.p == dec.n:
        raise FaceCollapsedError("exposing matrix is positive definite; face is {0}")
    # the zero and negative buckets, in F order: the congruences Q' A_i Q
    # round differently from a C-ordered Q
    Q = np.asfortranarray(dec.U[:, dec.p :])
    reduced, removed = inst.restrict(Q)
    return reduced, Q, removed


def fr_loop(inst: BapInstance) -> tuple[FaceChain, BapInstance]:
    """Alternate cold certificate search and face restriction until none is found.

    :func:`solve_with_reduction` with the Newton round off, so at most
    ``inst.n`` reductions.  Returns the composed chain and the final reduced
    instance, on which strict feasibility is expected to hold.
    """
    res = solve_with_reduction(inst, newton=False)
    return res.chain, res.rounds[-1].inst


def solve_with_reduction(
    inst: BapInstance, opts: NewtonOptions | None = None, *, newton: bool = True
) -> ReductionResult:
    """Solve; on every stall, restrict to the face the stall exposes and solve again.

    Each round runs :func:`newton_solve` on the current instance.  A round that
    does not solve warm-starts the certificate search from its stall; the
    certificate restricts the instance through the chain and the next round
    solves the reduced problem.  The run ends at the first round that solves
    or finds no certificate, after at most ``inst.n`` reductions.  The last
    round's primal iterate is lifted back to the original coordinates.

    With ``newton=False`` no round solves and ``opts`` is not read: each
    round searches cold (:func:`solve_aux_gauss_newton` with no warm start),
    its ``trace`` is None, and so is the result's ``X``.  That is the
    certificate-only loop of :func:`fr_loop`.

    ``inst``'s map must be surjective, as :func:`newton_solve` requires: a
    dependent row gives round 0's Newton matrix an exact null vector, so the
    round stops SUSPECTED_DEGENERATE at k = 0, or within a few steps, on a
    stall the set does not cause, and the run can end there with no
    reduction, far from the projection.  The CLI prunes
    ``--instance`` files with :func:`~spectraproj.model.preprocess_surjective`;
    each reduced instance is pruned by :meth:`BapInstance.restrict
    <spectraproj.model.BapInstance.restrict>` (through :meth:`FaceChain.restrict`).
    """
    chain = FaceChain.start(inst)
    rounds: list[ReductionRound] = []
    current = inst
    while True:
        trace = newton_solve(current, opts=opts) if newton else None
        cert = None
        if chain.sd_hat < inst.n and (trace is None or trace.status != NewtonStatus.SOLVED):
            lam0 = None if trace is None else certificate_from_stall(trace, current)
            cert = solve_aux_gauss_newton(current, lam0=lam0)
        rounds.append(ReductionRound(current, trace, None))
        if cert is None:
            break
        current = chain.restrict(current, cert)
        rounds[-1].step = chain.steps[-1]
    X = None if trace is None else chain.V @ trace.triple.X @ chain.V.T
    return ReductionResult(rounds, chain, X)


def fr_report(chain: FaceChain, final_inst: BapInstance) -> dict[str, Any]:
    """JSON-ready summary of a facial-reduction run."""
    return {
        "steps": [
            {
                "lam": s.lam_lifted,
                "rows_removed": [int(i) for i in s.rows_removed],
                "r_after": int(s.r_after),
                "residual": float(s.residual),
            }
            for s in chain.steps
        ],
        "sd_hat": chain.sd_hat,
        "iips_hat": chain.iips_hat,
        "final_n": int(final_inst.n),
        "final_m": int(final_inst.m),
    }
