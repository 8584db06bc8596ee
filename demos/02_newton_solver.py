"""
Solving the nearest-psd-matrix problem with a semismooth Newton method
======================================================================

The problem: find the matrix closest to an anchor W among psd matrices
satisfying a handful of linear equations.  The dual reduces to finding a
root of a map F on the multipliers, and each Newton step needs just one
eigendecomposition.
"""

from spectraproj import (
    gen_random_slater,
    kkt_residuals,
    newton_solve,
    primal_objective,
)

inst = gen_random_slater(20, 40, seed=3)
trace = newton_solve(inst)

print("status   ", trace.status.value)
print("iterations", trace.k_final)
print()
print(" k   relres      cond(J)")
for it in trace.iterates:
    print("%2d   %.3e   %.3e" % (it.k, it.relres, it.cond))

# the terminal triple satisfies the optimality system to machine precision
res = kkt_residuals(inst, trace.triple)
print()
for name, val in res.items():
    print("%-10s %.3e" % (name, val))
print("objective  %.12f" % primal_objective(inst, trace.triple.X))

# warm starting from the solution costs zero iterations
again = newton_solve(inst, y0=trace.triple.y)
print()
print("warm start iterations:", again.k_final)
