"""Spectral-Galerkin simulation lab for slow-fast stochastic evolution systems.

The package simulates the coupled system

    dX = -Lambda X dt + F(X, Y) dt
    dY = -(1/eps) Lambda Y dt + sqrt(2/eps) dW

projected on the first J eigenmodes of Lambda, together with its averaging
limit, and measures weak errors of the time discretizations, uniformly in the
time-scale separation eps.
"""

from .spectral import (
    SpectrumSpec,
    dirichlet_spectrum,
    quadratic_spectrum,
    eigenvalue_error_bounds,
    log_ratio_constant,
)
from .noise import sample_cylindrical_batch
from .nonlinearity import (
    GridTransform,
    LinearInY,
    PointwiseSquare,
    SaturatingSquare,
    PointwiseGeneral,
    saturating_square,
    pointwise_variance,
    eval_F,
    averaged_force,
)
from .integrators import (
    SchemeKind,
    RunConfig,
    Transition,
    trajectory,
    run_trajectory_batch,
    solve_averaged_reference,
)
from .moments import (
    ModeMoments,
    continuous_mean,
    second_moment_recursion,
    second_moment_recursions,
    continuous_second_moment,
)
from .harness import (
    FunctionalKind,
    FunctionalSpec,
    McEstimate,
    RateFit,
    evaluate_functional,
    gaussian_expectation,
    mc_estimate,
    oracle_weak_value,
    oracle_weak_values,
    continuous_weak_value,
    weak_error_curve,
    fit_rate,
    ap_diagram,
    averaging_curve,
    invariant_measure_check,
    uniform_sweep,
)
from .cli import run_cli

__version__ = "0.1.0"
