"""Primal nondegeneracy diagnostics at a feasible point.

A feasible X is nondegenerate when the constraint matrices, restricted to the
eigenbasis of X and with the block untouched by the face structure discarded,
still span all of R^m.  That is a rank test on the matrix L whose column i
stacks svec(V' A_i V) over sqrt(2) vec(V' A_i Vbar), with V the positive
eigenspace of X and Vbar the rest.  The test never forms L: it takes the
Gram factor of the Newton matrix (:func:`.ssnewton._leading_gram_factor`)
with every mixed weight omega set to 1.  Call that factor K_1 and the Newton
matrix's own K_omega, both on the split of one matrix.  Then L'L = K_1 K_1',
J = K_omega K_omega' and K_omega = K_1 D, with D diagonal and its entries 1
or sqrt(omega) > 0, so "J singular" and "X degenerate" are one statement.
The code compares two splits, though.  The Newton matrix splits its iterate
Y at the relative threshold 1e-10 (``symcore.DEFAULT_ZERO_TOL``) and folds
zeros into the negative bucket; the rank test splits X at ``RANK_TOL`` =
1e-8.  At an optimum with strict complementarity, X = P(Y) and the two splits
see the same positive eigenspace, which is what the crosscheck below
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import BapInstance, scaled_primal_residual
from .ssnewton import NewtonTrace, _leading_gram_factor
from .symcore import SpectralDecomp, eig_sym, tri_len

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
    # written as "not ok" so that a NaN entry fails both checks
    if not lo >= -1e-9 * max(1.0, abs(dec.lam[0])):
        raise ValueError(f"X is not psd enough for a rank split: min eig {lo:.3e}")
    pf = scaled_primal_residual(inst, X)
    if not pf <= FEAS_TOL:
        raise ValueError(f"X violates the linear constraints: scaled residual {pf:.3e}")
    return dec


def _rank(sv: np.ndarray) -> int:
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def is_nondegenerate(
    inst: BapInstance,
    X: np.ndarray,
    Z: np.ndarray | None = None,
) -> DegeneracyReport:
    """Rank verdict at a feasible X, with strict complementarity when Z is given.

    X must be psd and satisfy the constraints to ``FEAS_TOL``; its rank r
    counts the eigenvalues above ``RANK_TOL`` * max(1, |lambda|_max).
    ``singular_values`` are those of L (module docstring).
    """
    dec = _feasibility_guard(inst, X)
    r, n = dec.p, dec.n
    # on the spectrum (1, ..., 1, 0, ..., 0) every mixed weight omega is 1
    unit = np.repeat([1.0, 0.0], [r, n - r])
    K = _leading_gram_factor(inst.map, dec.U, unit, r)
    # K holds all r^2 entries of each V' A_i V where L holds its tri_len(r),
    # so K can have more singular values than L: the extra ones are rounding.
    # K' is column-major and shaped like L, which LAPACK takes without a copy
    sv = np.linalg.svd(K.T, compute_uv=False)[: tri_len(r) + r * (n - r)]
    rank_L = _rank(sv)
    full = rank_L == inst.m
    margin = float(sv[inst.m - 1] / sv[0]) if full and sv.size >= inst.m else 0.0
    rank_Z = None
    sc = None
    if Z is not None:
        eZ = np.linalg.eigvalsh(0.5 * (Z + Z.T))
        rank_Z = int(np.sum(eZ > RANK_TOL * max(1.0, abs(eZ[-1]))))
        sc = r + rank_Z == n
    return DegeneracyReport(
        rank_L=rank_L,
        m=inst.m,
        verdict="Nondegenerate" if full else "Degenerate",
        singular_values=sv,
        margin=margin,
        rank_X=r,
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
        # rounding can leave lambda_min(J) just below zero: that J is singular too
        d["cond_J"] = None if self.sigma_ratio_J <= 0 else 1.0 / self.sigma_ratio_J
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
    if not pf <= FEAS_TOL:
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
