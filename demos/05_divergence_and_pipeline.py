"""
When the multipliers diverge, reduce first and solve second
===========================================================

On some problems the optimal value is attained but no multiplier exists:
the Newton iterates wander off to infinity and no amount of iterating
helps.  Facial reduction removes the obstruction, and the solution of the
reduced problem lifts back exactly.
"""

import numpy as np

from spectraproj import (
    NewtonOptions,
    fixture_dual_gap_face,
    newton_solve,
    primal_objective,
    solve_with_reduction,
)

inst = fixture_dual_gap_face()

# watch the multiplier norm grow without the residual ever reaching the
# solve tolerance
trace = newton_solve(inst, opts=NewtonOptions(max_iter=500))
print("status after 500 iterations:", trace.status.value)
for k in (10, 50, 100, 250, 500):
    it = trace.iterates[k]
    print("  k=%3d  |y|=%9.2f  relres=%.2e" % (k, np.linalg.norm(it.y), it.relres))

# the stall yields a certificate; one reduction round, then the solve is
# immediate and lifting back to the original coordinates recovers the true
# optimum
res = solve_with_reduction(inst, NewtonOptions(max_iter=500))
print()
print("reduction rounds     ", res.chain.sd_hat)
print("reduced order        ", res.rounds[-1].inst.n)
print("final status         ", res.rounds[-1].trace.status.value)
print("lifted solution      ", np.round(res.X, 12).tolist())
print("objective            ", primal_objective(inst, res.X))
print("planted optimal value", 1.0)

# the command line drives the same pipeline and writes the artifacts:
#
#   spectraproj pipeline --gen PlantedNoSlater --n 15 --m 7 --sd 1 --iips 1 --support 5 --out out
#   spectraproj experiment noslater_table --seeds 20 --out tables
#
# reports and traces are byte-reproducible; only the time column of the
# experiment tables varies between runs
