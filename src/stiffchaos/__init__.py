"""Local-Lyapunov stiffness/chaos diagnostics and chaos-mitigating
exponential transformation for small ODE systems."""

from .diagnostics import (
    EigenSet,
    InsufficientSamples,
    LleTrace,
    NonNegativeGamma,
    StiffnessReport,
    curvature,
    curvature_along,
    dt_max,
    dt_stiff,
    dt_stiff_at,
    eigenvalues_along,
    kappa_stiff,
    local_eigenvalues,
    stiffness_report,
    t_star_peak,
)
from .ode import (
    AdaptiveConfig,
    NewtonDivergence,
    NonFiniteState,
    OdeProblem,
    OracleNotConverged,
    Trajectory,
    check_jacobian,
    reference_solution,
    solve_rk4_adaptive,
    solve_rk4_fixed,
    solve_trapezoid_adaptive,
)
from .problems import (
    BenchmarkSpec,
    PROBLEM_FACTORIES,
    flame,
    lle_scan,
    lorenz84,
    make_problem,
    robertson,
    stiff_linear,
)
from .transform import (
    IntervalPlan,
    MuMethod,
    StiffTransformReport,
    TransformParams,
    TransformRun,
    jstar_scan,
    params_for_method,
    run_transformed,
    select_mu,
    shifted_jacobian,
    step_extension_report,
    stiff_transform_demo,
    transformed_rhs,
)

__version__ = "0.1.0"
