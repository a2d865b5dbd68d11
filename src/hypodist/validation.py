"""Independent cross-checks for the distance machinery and estimator output.

Everything here is built against first principles rather than the production
code paths it audits: the sandwich check compares the corner bounds and the
searched shift distance against a lattice supremum of hypograph point
distances (never the shift form), the rectangle audit measures the
distribution condition over node-pair rectangles the estimator never saw,
and the density / closure fixtures reproduce the qualitative behaviour that
motivates estimating with hypograph distances in the first place.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    CdfSpec,
    EmpiricalSamples,
    GridFunction,
    UniformBox,
    delta_rect,
    realize,
    resample,
    upper_envelope,
)
from .grid import Domain, Rect, build_grid, corner_bits, corner_sum, lattice
from .metrics import (
    DistanceReport,
    dl_rho_oracle,
    eta_minus,
    eta_plus,
    hat_dl_rho,
    hypo_dist_estimate,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SandwichReport",
    "ClosureFixture",
    "Scenario",
    "verify_sandwich",
    "distribution_error_pct",
    "density_convergence",
    "closure_fixture",
    "two_uniforms_scenario",
    "uuv_scenario",
]


@dataclass(frozen=True)
class SandwichReport:
    """Five distance readings and any ordering violations between them.

    The corner bounds must bracket the shift distance, and the lattice
    supremum of point-distance gaps must sit between the shift distance at
    radius rho (minus lattice resolution) and the shift distance at radius
    2*rho.  Violations are recorded as messages, never raised.
    """

    eta_minus: float
    hat_rho: float
    eta_plus: float
    oracle: float
    hat_two_rho: float
    lattice_slack: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_sandwich(
    f: GridFunction,
    g: GridFunction,
    rho: float,
    *,
    samples_per_axis: int = 9,
    tol: float = 1e-8,
) -> SandwichReport:
    """Audit the bracket eta- <= hat <= eta+ and the lattice cross-check.

    The lattice oracle is a supremum over finitely many test points, hence a
    lower bound on the radius-rho distance; both hypograph point distances
    are 1-Lipschitz, so the oracle undershoots by at most twice the lattice
    covering radius.  That resolution term is reported as ``lattice_slack``.
    """
    em = eta_minus(f, g, rho)
    ep = eta_plus(f, g, rho)
    hat = hat_dl_rho(f, g, rho, tol=tol)
    hat2 = hat_dl_rho(f, g, 2.0 * rho, tol=tol)
    oracle = dl_rho_oracle(f, g, rho, samples_per_axis)

    # the widest lattice axis spans 2 rho: the level axis is [-rho, rho], and
    # the region S cap [-rho, rho]^m has no side longer than that
    slack = 2.0 * rho / (samples_per_axis - 1)

    violations = []
    if em > hat + tol:
        violations.append(f"eta_minus {em:.9g} exceeds hat {hat:.9g} + {tol:g}")
    if hat > ep + tol:
        violations.append(f"hat {hat:.9g} exceeds eta_plus {ep:.9g} + {tol:g}")
    if hat > oracle + slack + tol:
        violations.append(
            f"hat {hat:.9g} exceeds oracle {oracle:.9g} + lattice slack "
            f"{slack:.9g} + {tol:g}"
        )
    if oracle > hat2 + 2.0 * tol:
        violations.append(
            f"oracle {oracle:.9g} exceeds hat at 2*rho {hat2:.9g} + {2 * tol:g}"
        )
    report = SandwichReport(em, hat, ep, oracle, hat2, slack, tuple(violations))
    if violations:
        logger.warning("sandwich check failed: %s", "; ".join(violations))
    return report


def distribution_error_pct(
    F: GridFunction,
    budget: int = 100_000,
    *,
    seed: int = 20250816,
) -> float:
    """Percentage of node-pair rectangles A with a negative signed corner sum.

    Checks every rectangle with node corners when their count fits in
    ``budget``, otherwise a seeded uniform sample of ``budget`` rectangles.
    A rectangle counts as a violation when its corner sum drops below -1e-9,
    absorbing solver round-off.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    grid = F.grid
    v = np.atleast_1d(F.eval(grid.node_lattice())).reshape(grid.shape)
    # each rectangle is a node pair i < j per axis, its corners taken in the
    # grid module's corner order
    total = math.prod(n * (n - 1) // 2 for n in grid.shape)
    if total <= budget:
        pairs = [np.triu_indices(n, k=1) for n in grid.shape]
        lower, upper = (lattice([p[k] for p in pairs]) for k in (0, 1))
    else:
        rng = np.random.default_rng(seed)
        lower = np.empty((budget, grid.dim), dtype=np.int64)
        upper = np.empty_like(lower)
        for ax, n in enumerate(grid.shape):
            lower[:, ax] = rng.integers(0, n - 1, size=budget)
            upper[:, ax] = rng.integers(lower[:, ax] + 1, n)
    # flat node indices of every rectangle's corners, (R, 2^m)
    strides = np.array(grid.strides)
    corners = ((upper - lower) * strides) @ corner_bits(grid.dim).T
    corners += (lower @ strides)[:, None]
    bad = int(np.count_nonzero(corner_sum(v.reshape(-1)[corners]) < -1e-9))
    return 100.0 * bad / lower.shape[0]


def density_convergence(
    target: CdfSpec,
    levels,
    *,
    domain: Domain,
    fine_nodes: int = 65,
    quad_points: int = 32,
) -> list:
    """Distances from coarse cell-sup envelopes of the target down to its
    fine-grid realization, one per refinement level.

    ``levels`` are cells per axis; each must divide the fine grid's cell
    count so the envelopes transfer to the fine grid exactly.
    """
    levels = [int(n) for n in levels]
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    fine_cells = fine_nodes - 1
    for n in levels:
        if n < 1 or fine_cells % n != 0:
            raise ValueError(
                f"each level must divide the fine cell count {fine_cells}, "
                f"got {levels}"
            )
    fine_grid = build_grid(domain, fine_nodes)
    target_fine = realize(target, fine_grid)
    reports: list[DistanceReport] = []
    for n in levels:
        coarse = build_grid(domain, n + 1)
        envelope = upper_envelope(realize(target, coarse))
        on_fine = resample(envelope, fine_grid)
        reports.append(
            hypo_dist_estimate(on_fine, target_fine, quad_points=quad_points)
        )
        logger.info("envelope at %d cells/axis: dl ~= %.6f", n, reports[-1].value)
    return reports


@dataclass(frozen=True)
class ClosureFixture:
    """A sequence member and its limit showing the distribution condition is
    not preserved under hypograph convergence."""

    F_nu: GridFunction
    F_limit: GridFunction
    distance: DistanceReport
    delta_nu: float
    delta_limit: float
    rect: Rect


def closure_fixture(
    nu: int,
    *,
    nodes_per_axis: int = 21,
    quad_points: int = 32,
) -> ClosureFixture:
    """Indicator of a rotating upper half-plane versus its limiting position.

    Each member is the indicator of {x2 >= 0.5 - sigma * (x1 - 0.2)} with
    sigma = nu / (2 * (nu + 1)) climbing toward the limit slope 1/2.  On the
    corner rectangle A = [0.2, 0.8]^2 every member has signed corner sum 0,
    while the limit scores -1: the bottom-right corner joins the upper set
    only in the limit.  Distances to the limit shrink as nu grows.
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    domain = Domain([0.0, 0.0], [1.0, 1.0])
    grid = build_grid(domain, nodes_per_axis)
    nodes = grid.node_lattice()

    def half_plane(sigma: float) -> GridFunction:
        lhs = nodes[:, 1] + sigma * nodes[:, 0]
        rhs = 0.5 + 0.2 * sigma
        vals = (lhs >= rhs - 1e-12).astype(float).reshape(grid.shape)
        return GridFunction(grid, 1, vals, monotone=True)

    F_nu = half_plane(0.5 * nu / (nu + 1.0))
    F_limit = half_plane(0.5)
    rect = Rect([0.2, 0.2], [0.8, 0.8])
    d_nu = float(delta_rect(F_nu, rect))
    d_limit = float(delta_rect(F_limit, rect))
    distance = hypo_dist_estimate(F_nu, F_limit, quad_points=quad_points)
    return ClosureFixture(F_nu, F_limit, distance, d_nu, d_limit, rect)


# -- scenario builders -------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Ready-to-estimate problem ingredients for a named example."""

    name: str
    domain: Domain
    F0: CdfSpec
    G0: CdfSpec
    cells_per_axis: tuple
    deltas: tuple
    samples: dict | None = None  # label -> (N, m) sample arrays, when sampled


def two_uniforms_scenario(*, cells_per_axis: int = 50) -> Scenario:
    """Uniform mass on [0,1]^2 as target versus uniform mass on [2,3]^2 as
    anchor, on the domain [0,3]^2."""
    return Scenario(
        name="two-uniforms",
        domain=Domain([0.0, 0.0], [3.0, 3.0]),
        F0=UniformBox([0.0, 0.0], [1.0, 1.0]),
        G0=UniformBox([2.0, 2.0], [3.0, 3.0]),
        cells_per_axis=(cells_per_axis, cells_per_axis),
        deltas=(1.0, 0.70, 0.40, 0.10, 1e-4),
    )


def uuv_scenario(
    seed: int = 7,
    *,
    n_samples: int = 200,
    cells_per_axis: tuple = (96, 32),
) -> Scenario:
    """Two synthetic position-fix sources over a 6 x 2 search strip.

    Each source is a seeded uniform scatter: the target source over the
    box [0.3, 3.3] x [0.2, 1.8] and the anchor source over
    [2.7, 5.7] x [0.2, 1.8], mimicking two sensors that disagree about a
    vehicle's position.  The wide scatter keeps every grid cell's
    probability mass small, so tight ambiguity radii remain meaningful on
    the discretization.  Identical seeds reproduce identical samples.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    domain = Domain([0.0, 0.0], [6.0, 2.0])
    rng = np.random.default_rng(seed)
    target_pts = rng.uniform([0.3, 0.2], [3.3, 1.8], size=(n_samples, 2))
    anchor_pts = rng.uniform([2.7, 0.2], [5.7, 1.8], size=(n_samples, 2))
    return Scenario(
        name="uuv-synthetic",
        domain=domain,
        F0=EmpiricalSamples(target_pts),
        G0=EmpiricalSamples(anchor_pts),
        cells_per_axis=tuple(int(c) for c in cells_per_axis),
        deltas=(0.9, 0.1, 0.01),
        samples={"target": target_pts, "anchor": anchor_pts},
    )
