"""Primal nondegeneracy diagnostics at a feasible point.

A feasible X is nondegenerate when the constraint matrices, restricted to the
eigenbasis of X and with the block untouched by the face structure discarded,
still span all of R^m.  That is a rank test on a tall matrix L assembled from
V' A_i V and V' A_i Vbar blocks, with V the positive eigenspace of X.  The
same question has a dual reading: at an optimum satisfying strict
complementarity, degeneracy of X is equivalent to singularity of the Newton
matrix of the projection root function, which is what the crosscheck below
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import BapInstance, scaled_primal_residual
from .ssnewton import NewtonTrace
from .symcore import SpectralDecomp, eig_sym

RANK_TOL = 1e-8
#: largest scaled residual ||A(X) - b|| / (1 + ||b||) the rank test accepts
FEAS_TOL = 1e-8


@dataclass
class DegeneracyReport:
    rank_L: int
    m: int
    verdict: str  # "Nondegenerate" | "Degenerate"
    singular_values: np.ndarray
    margin: float  # sigma_m / sigma_1, zero when rank deficient
    rank_X: int
    rank_Z: int | None = None
    strict_complementarity: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank_L": self.rank_L,
            "m": self.m,
            "verdict": self.verdict,
            "sc": self.strict_complementarity,
            "sigma_L": self.singular_values,
            "margin": self.margin,
            "rank_X": self.rank_X,
            "rank_Z": self.rank_Z,
        }


def _feasibility_guard(inst: BapInstance, X: np.ndarray) -> SpectralDecomp:
    """Decomposition of X split at ``RANK_TOL``; raises unless X is psd and feasible."""
    X = 0.5 * (np.asarray(X, dtype=float) + np.asarray(X, dtype=float).T)
    dec = eig_sym(X, zero_tol=RANK_TOL)
    lo = dec.lam[-1]
    if lo < -1e-9 * max(1.0, abs(dec.lam[0])):
        raise ValueError(f"X is not psd enough for a rank split: min eig {lo:.3e}")
    pf = scaled_primal_residual(inst, X)
    if pf > FEAS_TOL:
        raise ValueError(f"X violates the linear constraints: scaled residual {pf:.3e}")
    return dec


def build_L(inst: BapInstance, X: np.ndarray) -> np.ndarray:
    """Nondegeneracy test matrix at a feasible X.

    Column i stacks svec(V' A_i V) over sqrt(2) * vec(V' A_i Vbar), where V
    spans the positive eigenspace of X (relative threshold ``RANK_TOL``) and
    Vbar the rest; the block that the definition zeroes out is omitted.  The
    scaling keeps the stacked column an isometric image of the two blocks.
    X must be psd and satisfy the constraints to ``FEAS_TOL``.
    """
    L, _, _ = _build_L_split(inst, X)
    return L


def _build_L_split(
    inst: BapInstance, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dec = _feasibility_guard(inst, X)
    r = dec.p
    V = dec.U[:, :r]
    Vbar = dec.U[:, r:]
    top = inst.map.restrict(V).rows
    mid = np.sqrt(2.0) * (V.T @ inst.map.matrices() @ Vbar).reshape(inst.m, r * (inst.n - r))
    return np.hstack([top, mid]).T, V, Vbar


def _rank(sv: np.ndarray) -> int:
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def is_nondegenerate(
    inst: BapInstance,
    X: np.ndarray,
    Z: np.ndarray | None = None,
) -> DegeneracyReport:
    """Rank verdict at a feasible X, with strict complementarity when Z is given."""
    L, V, _ = _build_L_split(inst, X)
    sv = np.linalg.svd(L, compute_uv=False)
    rank_L = _rank(sv)
    full = rank_L == inst.m
    margin = float(sv[inst.m - 1] / sv[0]) if full and sv.size >= inst.m else 0.0
    rank_Z = None
    sc = None
    if Z is not None:
        eZ = np.linalg.eigvalsh(0.5 * (Z + Z.T))
        rank_Z = int(np.sum(eZ > RANK_TOL * max(1.0, abs(eZ[-1]))))
        sc = V.shape[1] + rank_Z == inst.n
    return DegeneracyReport(
        rank_L=rank_L,
        m=inst.m,
        verdict="Nondegenerate" if full else "Degenerate",
        singular_values=sv,
        margin=margin,
        rank_X=V.shape[1],
        rank_Z=rank_Z,
        strict_complementarity=sc,
    )


@dataclass
class CrosscheckReport:
    """Agreement between the rank test and terminal Newton-matrix invertibility."""

    report: DegeneracyReport | None  # None when the rank test did not run
    jacobian_nonsingular: bool
    sigma_ratio_J: float
    agree: bool | None
    inconclusive: bool
    reason: str = ""

    def to_dict(self) -> dict[str, Any]:
        if self.report is not None:
            d = self.report.to_dict()
        else:
            d = dict.fromkeys(
                ("rank_L", "m", "verdict", "sc", "sigma_L", "margin", "rank_X", "rank_Z")
            )
        d["cond_J"] = None if self.sigma_ratio_J == 0 else 1.0 / self.sigma_ratio_J
        d["jacobian_nonsingular"] = self.jacobian_nonsingular
        d["agree"] = self.agree
        d["inconclusive"] = self.inconclusive
        d["reason"] = self.reason
        return d


def jacobian_degeneracy_crosscheck(
    inst: BapInstance,
    trace: NewtonTrace,
    X: np.ndarray | None = None,
) -> CrosscheckReport:
    """Compare the rank verdict at the terminal X with Newton-matrix invertibility.

    The equivalence between the two is a statement about optima with strict
    complementarity; the result is flagged inconclusive when the terminal
    iterate is off the constraints by more than ``FEAS_TOL``, where the rank
    test refuses to judge it (``report`` and ``agree`` are then None), or
    when strict complementarity fails, and the raw disagreement is preserved
    rather than patched over.  When the run stalled short of feasibility but
    the optimum is known (a planted vertex, say), pass it as ``X`` to
    rank-test there while still judging the Newton matrix from the trace.
    """
    Z = trace.triple.Z
    X = trace.triple.X if X is None else np.asarray(X, dtype=float)
    eig_J = trace.iterates[-1].eig_J
    ratio = float(eig_J[-1] / eig_J[0]) if eig_J.size and eig_J[0] > 0 else 0.0
    nonsing = ratio > RANK_TOL
    pf = scaled_primal_residual(inst, X)
    if pf > FEAS_TOL:
        return CrosscheckReport(
            report=None, jacobian_nonsingular=nonsing, sigma_ratio_J=ratio,
            agree=None, inconclusive=True,
            reason=f"terminal iterate infeasible (pf {pf:.3e}); rank test skipped",
        )
    rep = is_nondegenerate(inst, X, Z=Z)
    agree = (rep.verdict == "Nondegenerate") == nonsing
    inconclusive = not bool(rep.strict_complementarity)
    reason = "" if not inconclusive else "strict complementarity fails at the terminal triple"
    return CrosscheckReport(
        report=rep, jacobian_nonsingular=nonsing, sigma_ratio_J=ratio,
        agree=agree, inconclusive=inconclusive, reason=reason,
    )
