"""Distances between hypographs of CDF-like functions, and estimation of a
shape-constrained CDF that tracks a target while staying inside an
ambiguity ball around an anchor distribution."""

from __future__ import annotations

from .estimator import (
    EstimateResult,
    EstimationProblem,
    IterationLimitError,
    RefinementReport,
    ShapeConstraints,
    ShapeInfeasibleError,
    assemble_lp,
    estimate,
    min_slack,
    refinement_study,
    shape_violation,
)
from .functions import (
    CdfSpec,
    DiracPoint,
    EmpiricalSamples,
    GridFunction,
    Mixture,
    SampleSet,
    UniformBox,
    delta_rect,
    empirical_cdf,
    expected_value,
    load_grid_function,
    realize,
    resample,
    save_grid_function,
    upper_envelope,
)
from .grid import (
    Domain,
    Grid,
    Rect,
    build_grid,
    cells,
    locate,
    mesh_size,
    refine,
)
from .lp import LPModel, LPSolution, SolverError, brute_force_minimum, solve
from .metrics import (
    DistanceReport,
    RhoBall,
    default_rho,
    dl_rho_oracle,
    eta_minus,
    eta_plus,
    hat_dl_rho,
    hypo_dist_estimate,
    kenmochi_ok,
    point_hypo_dist,
    saturation_radius,
)
from .validation import (
    ClosureFixture,
    SandwichReport,
    Scenario,
    closure_fixture,
    density_convergence,
    distribution_error_pct,
    two_uniforms_scenario,
    uuv_scenario,
    verify_sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "Domain",
    "Grid",
    "Rect",
    "build_grid",
    "cells",
    "locate",
    "mesh_size",
    "refine",
    # functions
    "CdfSpec",
    "DiracPoint",
    "EmpiricalSamples",
    "GridFunction",
    "Mixture",
    "SampleSet",
    "UniformBox",
    "delta_rect",
    "empirical_cdf",
    "expected_value",
    "load_grid_function",
    "realize",
    "resample",
    "save_grid_function",
    "upper_envelope",
    # metrics
    "DistanceReport",
    "RhoBall",
    "default_rho",
    "dl_rho_oracle",
    "eta_minus",
    "eta_plus",
    "hat_dl_rho",
    "hypo_dist_estimate",
    "kenmochi_ok",
    "point_hypo_dist",
    "saturation_radius",
    # lp
    "LPModel",
    "LPSolution",
    "SolverError",
    "brute_force_minimum",
    "solve",
    # estimator
    "EstimateResult",
    "EstimationProblem",
    "IterationLimitError",
    "RefinementReport",
    "ShapeConstraints",
    "ShapeInfeasibleError",
    "assemble_lp",
    "estimate",
    "min_slack",
    "refinement_study",
    "shape_violation",
    # validation
    "ClosureFixture",
    "SandwichReport",
    "Scenario",
    "closure_fixture",
    "density_convergence",
    "distribution_error_pct",
    "two_uniforms_scenario",
    "uuv_scenario",
    "verify_sandwich",
]
