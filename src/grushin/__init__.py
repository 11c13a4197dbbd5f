"""Eigenvalue tools for a degenerate elliptic operator on product domains.

The operator couples an ordinary Laplacian in the first group of variables
with a |x|^(2s)-weighted Laplacian in the second.  The package computes its
first Dirichlet eigenvalue on cartesian products via a radial 1-D reduction,
optimizes the volume split between the factors, checks the closed-form
limit curves in s, and cross-validates everything with a direct 2-D solver
on disks and rectangles.
"""

from .asymptotics import (
    LimitKind,
    LimitProfile,
    convergence_report,
    large_s_limit,
    limit_profile,
    lower_envelope,
    max_deviation_per_s,
    small_s_argmin,
    small_s_limit,
    small_s_min_value,
    upper_envelope,
)
from .errors import (
    BaselineMissing,
    BracketFailure,
    DegenerateGrid,
    GrushinError,
    InvalidProblem,
    NonConvergence,
    UsageError,
)
from .minimizer import (
    BallConstants,
    MinimizeResult,
    ProblemParams,
    ball1_radius,
    ball_constants,
    coupling_of_split,
    lambda1_product,
    log_coupling_of_split,
    lower_bounds,
    minimize,
    scaled_energy_derivative,
    split_of_coupling,
    whole_space_energy,
)
from .planar import (
    DEFAULT_N_2D,
    DiskProblem,
    DiskSolve,
    decoupled_rectangle_value,
    segment_limit_probe,
    solve_disk,
    solve_rectangle_full,
)
from .radial import (
    DEFAULT_N,
    RadialProblem,
    RadialSolution,
    ball_volume_constant,
    gradient_integral,
    identity_residuals,
    mu1_ball,
    second_derivative_sign,
    solve_radial,
)
from .tables import SweepTable, emit_csv, emit_svg, render_csv, render_svg

__version__ = "0.1.0"

__all__ = [
    "BallConstants",
    "BaselineMissing",
    "BracketFailure",
    "DEFAULT_N",
    "DEFAULT_N_2D",
    "DegenerateGrid",
    "DiskProblem",
    "DiskSolve",
    "GrushinError",
    "InvalidProblem",
    "LimitKind",
    "LimitProfile",
    "MinimizeResult",
    "NonConvergence",
    "ProblemParams",
    "RadialProblem",
    "RadialSolution",
    "SweepTable",
    "UsageError",
    "ball1_radius",
    "ball_constants",
    "ball_volume_constant",
    "convergence_report",
    "coupling_of_split",
    "decoupled_rectangle_value",
    "emit_csv",
    "emit_svg",
    "gradient_integral",
    "identity_residuals",
    "lambda1_product",
    "large_s_limit",
    "limit_profile",
    "log_coupling_of_split",
    "lower_bounds",
    "lower_envelope",
    "max_deviation_per_s",
    "minimize",
    "mu1_ball",
    "render_csv",
    "render_svg",
    "scaled_energy_derivative",
    "second_derivative_sign",
    "segment_limit_probe",
    "small_s_argmin",
    "small_s_limit",
    "small_s_min_value",
    "solve_disk",
    "solve_radial",
    "solve_rectangle_full",
    "split_of_coupling",
    "upper_envelope",
    "whole_space_energy",
]
