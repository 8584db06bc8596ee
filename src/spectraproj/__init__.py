"""spectraproj: nearest-point projection onto spectrahedra.

Solve  min 0.5*||X - W||^2  s.t.  A(X) = b,  X psd  by a semismooth Newton
method on the projection root function, detect failure of strict feasibility,
repair it by facial reduction, and diagnose degeneracy of solutions.

Subpackage map:

* :mod:`.symcore`    symmetric-matrix kernel (stack-aware svec/smat, spectral splits, projections)
* :mod:`.model`      problem data, residuals, duality, instance files
* :mod:`.ssnewton`   the regularized semismooth Newton solver and its trace
* :mod:`.facialred`  certificates and the one facial-reduction loop, with or without Newton
* :mod:`.degeneracy` nondegeneracy rank test and the Jacobian crosscheck
* :mod:`.instances`  generators and closed-form fixtures
* :mod:`.cli`        command-line front end
"""

from .symcore import (
    DEFAULT_ZERO_TOL,
    SpectralDecomp,
    eig_sym,
    moreau_envelope,
    project_face,
    project_psd,
    smat,
    svec,
    tri_len,
)
from .model import (
    BapInstance,
    InfeasibleManifoldError,
    KktTriple,
    LinearMap,
    dual_objective,
    kkt_residuals,
    load_instance,
    preprocess_surjective,
    primal_objective,
    residual_F,
    save_instance,
)
from .ssnewton import (
    NewtonOptions,
    NewtonStatus,
    NewtonTrace,
    dir_deriv_proj,
    jacobian,
    jacobian_spectrum,
    newton_solve,
    trace_to_csv,
)
from .facialred import (
    AuxCertificate,
    FaceCollapsedError,
    ReductionResult,
    certificate_from_stall,
    fr_loop,
    fr_report,
    fr_step,
    solve_aux_gauss_newton,
    solve_with_reduction,
)
from .degeneracy import (
    CrosscheckReport,
    DegeneracyReport,
    is_nondegenerate,
    jacobian_degeneracy_crosscheck,
)
from .instances import (
    GeneratorSpec,
    NOSLATER_SUITE,
    fixture_dual_gap_face,
    fixture_sd2_chain,
    gen_dual_unattained,
    gen_elliptope,
    gen_planted_noslater,
    gen_random_slater,
    gen_vontope,
    generate,
    known_nearest_point,
    noslater_suite_instance,
    vontope_lift_vertex,
    vontope_null_basis,
)

__version__ = "0.1.0"
