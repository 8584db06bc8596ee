"""
Repairing a stalled solve by facial reduction
=============================================

When the feasible set has no interior the Newton matrix degenerates along
the run: the residual stalls around sqrt(machine precision) while the
condition number blows up.  A certificate computed from the stalled
iterate exposes the face the feasible set actually lives on; restricting
to it gives a smaller problem with an interior, which then solves fast.
"""

import numpy as np

from spectraproj import (
    certificate_from_stall,
    fixture_sd2_chain,
    fr_loop,
    fr_step,
    gen_planted_noslater,
    newton_solve,
    solve_aux_gauss_newton,
)

inst = gen_planted_noslater(15, 7, sd_target=1, iips_target=1, support_size=5, seed=0)
stalled = newton_solve(inst)
print("before: %s after %d iterations, relres %.2e, cond %.2e"
      % (stalled.status.value, stalled.k_final, stalled.relres_final,
         stalled.cond_final))

# the eigenvector attached to the smallest Jacobian eigenvalue at the stall
# is already close to a certificate; a few Gauss-Newton sweeps polish it
lam0 = certificate_from_stall(stalled, inst)
cert = solve_aux_gauss_newton(inst, lam0=lam0)
print("certificate residual %.2e, exposing rank %d"
      % (cert.residual, np.linalg.matrix_rank(cert.Z, tol=1e-8)))

reduced, Q, removed = fr_step(inst, cert)
print("one reduction round: order %d -> %d, dropped rows %s"
      % (inst.n, reduced.n, removed))

after = newton_solve(reduced)
print("after : %s in %d iterations, relres %.2e"
      % (after.status.value, after.k_final, after.relres_final))

# some instances need several rounds; the loop repeats until the reduced
# problem has an interior, recording each round's certificate and step
print()
res = fr_loop(fixture_sd2_chain())
print("chain length %d, redundant rows found %d, final order %d"
      % (res.sd_hat, res.iips_hat, res.final.n))
for k, step in enumerate(res.steps):
    print("  round %d: removed rows %s, aux residual %.1e"
          % (k, step.rows_removed, step.residual))
