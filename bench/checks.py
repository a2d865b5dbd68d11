"""Output checks for the benchmark workloads.

Each check compares a run's output files against the benchmark's own
reference sources (see ``workloads``) and against properties the method
guarantees; none compares against saved copies of earlier output.  A check
returns a list of failure messages, empty when the output is correct.

The estimate checks use two routes of the program that share no code with
the LP: ``metrics.eta_plus`` (the root-scan certificate) and, for
minimality, a fresh ``estimator.min_slack`` solve at a shift just below the
reported eta.
"""

from __future__ import annotations

import json
import os

import numpy as np

from hypodist.estimator import EstimationProblem, ShapeInfeasibleError, min_slack
from hypodist.functions import GridFunction
from hypodist.grid import Domain, Grid
from hypodist.metrics import eta_plus

from workloads import DISTANCE_ORACLE_SAMPLES, Inputs, node_points

# HiGHS runs at a 1e-9 feasibility tolerance per row; shape rows chain a few
# of them, so node values may miss a shape inequality by a few 1e-9.
LP_TOL = 1e-7
# eta_plus of the solution may exceed the LP's eta by the same row tolerance
CERT_TOL = 1e-7
# minimality is probed this many bisection tolerances below eta, far enough
# that the linear slack curve rises clearly above tol
MIN_STEPS = 10
# two-uniforms: eta = 1 - delta for these deltas (the paper's table)
PAPER_DELTAS = (0.7, 0.4, 0.1)
PAPER_STEPS = 10  # within this many bisection tolerances
TREND_TOL = 1e-6


def read_solution(path: str, axes) -> np.ndarray:
    """Node values of a solution CSV, checked to lie on the expected nodes."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "x1,x2,value":
        raise ValueError(f"{path}: unexpected header {header!r}")
    nodes = node_points(axes)
    if rows.shape != (nodes.shape[0], 3):
        raise ValueError(f"{path}: {rows.shape[0]} rows, expected {nodes.shape[0]}")
    if np.max(np.abs(rows[:, :2] - nodes)) > 1e-12:
        raise ValueError(f"{path}: node coordinates differ from the grid")
    return rows[:, 2].reshape(tuple(a.size for a in axes))


def load_estimate(inputs: Inputs) -> tuple[dict, dict]:
    """result.json and the solution node values per delta."""
    with open(os.path.join(inputs.out_dir, "result.json")) as fh:
        report = json.load(fh)
    solutions = {
        run["delta"]: read_solution(
            os.path.join(inputs.out_dir, run["files"]["solution"]), inputs.axes
        )
        for run in report["runs"]
    }
    return report, solutions


def load_distance(inputs: Inputs) -> dict:
    with open(os.path.join(inputs.out_dir, "distance.json")) as fh:
        return json.load(fh)


def shape_problems(V: np.ndarray) -> list:
    """CDF shape on the grid: range, monotone axes, lower faces, upper corner
    and nonnegative cell masses, all within LP_TOL."""
    out = []
    if V.min() < -LP_TOL or V.max() > 1.0 + LP_TOL:
        out.append(f"values leave [0, 1]: [{V.min():.3g}, {V.max():.3g}]")
    for ax in (0, 1):
        worst = float(np.min(np.diff(V, axis=ax)))
        if worst < -LP_TOL:
            out.append(f"decreases by {-worst:.3g} along axis {ax}")
    faces = max(float(np.max(np.abs(V[0, :]))), float(np.max(np.abs(V[:, 0]))))
    if faces > LP_TOL:
        out.append(f"lower faces reach {faces:.3g}, expected 0")
    if abs(V[-1, -1] - 1.0) > LP_TOL:
        out.append(f"upper corner is {V[-1, -1]!r}, expected 1")
    worst = float(np.min(cell_masses(V)))
    if worst < -LP_TOL:
        out.append(f"a cell's signed corner sum is {worst:.3g}")
    return out


def cell_masses(V: np.ndarray) -> np.ndarray:
    return V[1:, 1:] - V[:-1, 1:] - V[1:, :-1] + V[:-1, :-1]


def mean_of(V: np.ndarray, axes) -> np.ndarray:
    """Mean of the distribution whose CDF has node values V, from cell masses
    placed at cell centroids."""
    mass = cell_masses(V)
    c1 = 0.5 * (axes[0][1:] + axes[0][:-1])
    c2 = 0.5 * (axes[1][1:] + axes[1][:-1])
    total = mass.sum()
    return np.array([(mass.sum(axis=1) @ c1) / total, (mass.sum(axis=0) @ c2) / total])


def check_estimate(inputs: Inputs, report: dict, solutions: dict) -> list:
    out = []
    tol = inputs.tol
    runs = report["runs"]
    deltas = tuple(run["delta"] for run in runs)
    if deltas != tuple(inputs.deltas):
        return [f"deltas {deltas} in result.json, expected {inputs.deltas}"]
    if abs(report["rho"] - inputs.rho) > 1e-12:
        out.append(f"rho {report['rho']} in result.json, expected {inputs.rho}")
    grid = Grid(Domain(inputs.lower, inputs.upper), inputs.axes)
    F0 = GridFunction(grid, 1, inputs.F0, monotone=True)
    G0 = GridFunction(grid, 1, inputs.G0, monotone=True)
    for run in runs:
        delta, eta, slack = run["delta"], run["eta"], run["slack"]
        tag = f"delta={delta:g}"
        V = solutions[delta]
        bad = shape_problems(V)
        out += [f"{tag}: {msg}" for msg in bad]
        if bad:
            continue
        Fhat = GridFunction(grid, 1, np.clip(V, 0.0, 1.0), monotone=True)
        shift = eta_plus(Fhat, F0, inputs.rho)
        if shift > eta + CERT_TOL:
            out.append(f"{tag}: eta_plus(F, F0) = {shift:.9g} exceeds eta {eta:.9g}")
        shift = eta_plus(Fhat, G0, inputs.rho)
        if shift > delta + slack + CERT_TOL:
            out.append(f"{tag}: eta_plus(F, G0) = {shift:.9g} exceeds "
                       f"delta + slack = {delta + slack:.9g}")
        if eta < 1.0 and slack > tol:
            out.append(f"{tag}: slack {slack:.3g} > tol at eta {eta:.9g} < 1")
        below = eta - MIN_STEPS * tol
        if below >= 0.0 and not (eta == 1.0 and slack > tol):
            problem = EstimationProblem(F0, G0, delta, rho=inputs.rho, tol=tol)
            try:
                s, _ = min_slack(problem, below)
            except ShapeInfeasibleError:
                s = np.inf
            if not s > tol:
                out.append(f"{tag}: slack {s:.3g} <= tol at eta - {MIN_STEPS} tol; "
                           f"eta {eta:.9g} is not minimal")
    # the configured deltas shrink along the ladder
    etas = [run["eta"] for run in runs]
    for (d0, e0), (d1, e1) in zip(zip(deltas, etas), zip(deltas[1:], etas[1:])):
        if e1 < e0 - tol:
            out.append(f"eta drops from {e0:.9g} (delta={d0:g}) to {e1:.9g} "
                       f"(delta={d1:g})")
    if inputs.name == "estimate-two-uniforms":
        for run in runs:
            if run["delta"] in PAPER_DELTAS:
                want = 1.0 - run["delta"]
                if abs(run["eta"] - want) > PAPER_STEPS * tol:
                    out.append(f"delta={run['delta']:g}: eta {run['eta']:.9g}, "
                               f"paper value {want:g}")
    if inputs.name == "estimate-uuv" and not out:
        # a saturated delta (eta = 1) returns any slack-minimising function,
        # whose mean is not tied to the anchor's, so the trend skips it
        anchor = mean_of(inputs.G0, inputs.axes)
        moving = [run["delta"] for run in runs if run["eta"] < 1.0]
        gaps = [float(np.linalg.norm(mean_of(solutions[d], inputs.axes) - anchor))
                for d in moving]
        for d, g0, g1 in zip(moving[1:], gaps, gaps[1:]):
            if g1 > g0 + TREND_TOL:
                out.append(f"delta={d:g}: mean moves away from the anchor's "
                           f"({g0:.6g} -> {g1:.6g})")
    return out


def lattice_slack(inputs: Inputs, rho: float) -> float:
    """Resolution of the oracle's test lattice: both point distances are
    1-Lipschitz, so the lattice max undershoots by at most this much."""
    lo = np.maximum(inputs.lower, -rho)
    hi = np.minimum(inputs.upper, rho)
    return max(float(np.max(hi - lo)), 2.0 * rho) / (DISTANCE_ORACLE_SAMPLES - 1)


def check_distance(inputs: Inputs, report: dict) -> list:
    out = []
    tol = inputs.tol
    rows = sorted(report["per_rho"], key=lambda row: row["rho"])
    radii = tuple(row["rho"] for row in rows)
    if radii != tuple(sorted(inputs.radii)):
        return [f"radii {radii} in distance.json, expected {inputs.radii}"]
    gap = float(np.max(np.abs(inputs.F0 - inputs.G0)))
    hat = {row["rho"]: row["hat"] for row in rows}
    for row in rows:
        tag = f"rho={row['rho']:g}"
        if not row["eta_minus"] <= row["hat"] + tol:
            out.append(f"{tag}: eta_minus {row['eta_minus']:.9g} > hat {row['hat']:.9g}")
        if not row["hat"] <= row["eta_plus"] + tol:
            out.append(f"{tag}: hat {row['hat']:.9g} > eta_plus {row['eta_plus']:.9g}")
        slack = lattice_slack(inputs, row["rho"])
        if not row["hat"] <= row["oracle"] + slack + tol:
            out.append(f"{tag}: hat {row['hat']:.9g} > oracle {row['oracle']:.9g} "
                       f"+ lattice slack {slack:.9g}")
        twice = hat.get(2.0 * row["rho"])
        if twice is not None and not row["oracle"] <= twice + 2 * tol:
            out.append(f"{tag}: oracle {row['oracle']:.9g} > hat(2 rho) {twice:.9g}")
        if not row["hat"] <= gap + tol:
            out.append(f"{tag}: hat {row['hat']:.9g} > sup |F0 - G0| = {gap:.9g}")
    for r0, r1 in zip(radii, radii[1:]):
        if hat[r1] < hat[r0] - tol:
            out.append(f"hat drops from {hat[r0]:.9g} (rho={r0:g}) to "
                       f"{hat[r1]:.9g} (rho={r1:g})")
    hd = report["hypo_distance"]
    if not hd["lower_bound"] <= hd["value"] <= hd["upper_bound"]:
        out.append(f"hypo distance {hd['value']:.9g} outside "
                   f"[{hd['lower_bound']:.9g}, {hd['upper_bound']:.9g}]")
    if not hd["upper_bound"] <= gap + tol:
        out.append(f"hypo distance upper bound {hd['upper_bound']:.9g} > "
                   f"sup |F0 - G0| = {gap:.9g}")
    return out


def check(inputs: Inputs) -> list:
    """Load a finished run's outputs and check them; unreadable or missing
    output is a failure too."""
    try:
        if inputs.radii:
            return check_distance(inputs, load_distance(inputs))
        report, solutions = load_estimate(inputs)
        return check_estimate(inputs, report, solutions)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable output: {e!r}"]
