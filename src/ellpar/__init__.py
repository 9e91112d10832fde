"""Elliptic-parabolic phase-transition problems as singular limits of
regularized uniformly parabolic ones: geometry of the regularization body,
smoothing families, extremal operators, barrier certificates, implicit
solvers, sup/inf-convolutions, and an acceptance harness.
"""

from .geometry import (
    HarnackChain,
    XiShape,
    harnack_chain,
    harnack_chain_k_bound,
    harnack_lower_bound,
    xi_contains,
    xi_lateral_distance,
    xi_slice_radius,
)
from .nonlinearity import (
    BnFamily,
    BSpec,
    PsiSpec,
    b_derivative,
    b_eval,
    bn_derivative,
    bn_eval,
    psi_derivative,
    psi_eval,
)
from .operators import (
    OperatorSpec,
    apply_operator_1d,
    operator_full_eval,
    pucci_minus,
    pucci_plus,
    structural_envelope_check,
)
from .barriers import (
    BarrierInfeasible,
    HeatKernelBarrier,
    LogDivBarrier,
    MarginReport,
    OutOfWindowError,
    ParabolaBarrier,
    RadialPowerBarrier,
    critical_radius,
    front_offset_sets,
    make_eps_eta_barrier,
    make_parabola_barrier,
    solve_heatkernel_barrier,
    solve_logdiv_barrier,
    solve_radial_barrier,
    verify_subsolution_margin,
)
from .solver import (
    Geometry,
    ProblemSpec,
    SolverPolicy,
    SpaceTimeField,
    bracket_maximal_minimal,
    run,
    singular_limit_study,
    solve_elliptic,
    step_parabolic,
)
from .regularize import (
    ConvolvedField,
    GridField,
    crossing_time,
    essential_envelopes,
    inf_convolve,
    interior_ball_check,
    sup_convolve,
)
from .harness import (
    Scenario,
    make_comparison_pair,
    make_jump_scenario,
    run_acceptance,
)

__version__ = "0.1.0"
