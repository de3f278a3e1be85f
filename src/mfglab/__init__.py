"""mfglab: solvers and analysis for mean field games with an acceleration penalty.

The package solves the penalized phase-space system for a ladder of penalty
parameters, the two limit systems it converges to, and audits the a-priori
estimates that drive the convergence analysis.
"""

from .analysis import (
    ConvergenceReport,
    EstimateAudit,
    RateFit,
    SweepPlan,
    audit_estimates,
    compare_joint_reconstruction,
    fit_rate,
    run_sweep,
    sup_marginal_gap,
    sup_value_gap,
    velocity_oscillation,
)
from .config import RunConfig
from .errors import (
    ConfigurationError,
    InvalidInputError,
    MFGLabError,
    NumericalError,
    TransportError,
    UnsupportedModelError,
)
from .hjb import (
    ControlSet,
    PhaseGrid,
    ValueField,
    acceleration_controls,
    gradient_v,
    gradient_x,
    solve_hjb_acceleration,
    solve_hjb_limit_classical,
    solve_hjb_mfg_control,
)
from .measures import (
    MeasureFlow,
    ParticleEnsemble,
    W1Result,
    gaussian_ensemble,
    lattice_ensemble,
    wasserstein1_1d,
    wasserstein1_joint,
)
from .mfg import (
    MFGSolution,
    solve_eps_system,
    solve_limit_classical,
    solve_mfg_of_control,
    transport_eps,
)
from .model import (
    LagrangianSpec,
    TerminalCost,
    audit_assumptions,
    eval_L0,
    make_lagrangian,
    make_terminal,
    optimal_velocity_field,
)
from .trajectory import (
    BVPSolution,
    Curve,
    DirectMinimizeResult,
    accel_energy,
    connecting_curve,
    el_residual,
    energy,
    eval_cost,
    minimize_direct,
    solve_el_bvp,
)

__version__ = "0.1.0"
