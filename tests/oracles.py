"""Checks that only the tests read: the face-restricted root function and the
independence of a facial-reduction chain's certificates."""

from __future__ import annotations

import numpy as np

from spectraproj.facialred import FaceChain
from spectraproj.model import BapInstance
from spectraproj.symcore import project_face


def residual_F_face(
    inst: BapInstance, y: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Face-restricted root function: projection constrained to the face spanned by V."""
    X = project_face(inst.W + inst.map.adjoint(y), V)
    return inst.map.apply(X) - inst.b, X


def check_independence(
    chain: FaceChain,
    inst: BapInstance | None = None,
    y_root: np.ndarray | None = None,
) -> bool:
    """Verify that the lifted certificates are linearly independent.

    When the original instance and a root of the face-restricted residual are
    supplied, additionally verify that shifting the root by any chain
    certificate keeps the face-restricted residual at zero (to 1e-9 relative
    to 1 + ||b||).
    """
    if not chain.steps:
        return True
    L = np.array([s.lam_lifted for s in chain.steps])
    sv = np.linalg.svd(L, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    if rank != len(chain.steps):
        return False
    if inst is not None and y_root is not None:
        b_scale = 1.0 + np.linalg.norm(inst.b)
        for s in chain.steps:
            F, _ = residual_F_face(inst, np.asarray(y_root) + s.lam_lifted, chain.V)
            if np.linalg.norm(F) > 1e-9 * b_scale:
                return False
    return True
