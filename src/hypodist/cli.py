"""Command-line front end: strict JSON configs in, CSV/JSON artifacts out.

Subcommands
    estimate   solve one config (optionally a ladder of ambiguity radii,
               estimated concurrently)
    distance   distance suite between two function sources
    study      refinement study plus validation table
    generate   write ready-to-run scenario configs (and sample CSVs)
    validate   sandwich checks and rectangle audits for a config's sources

Configs are JSON with a ``schema_version`` field; unknown keys anywhere are
rejected so a typo in ``delta`` or ``bounded_growth`` cannot silently change
an experiment.  Relative paths inside a config resolve against the config
file's directory.  Exit codes: 0 success, 1 configuration or usage error,
2 shape-infeasible, 3 LP iteration limit, 4 LP solver failure.

No output directory is made before the config has passed every check that
can refuse it.  ``estimate`` and ``study`` build their estimation problems
first, then make the directory and start the solves; ``distance`` and
``validate`` make it when they write their JSON, after the distance layer
has accepted the sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import threading
import time

import numpy as np

from .estimator import (
    EstimationProblem,
    IterationLimitError,
    ShapeConstraints,
    ShapeInfeasibleError,
    estimate,
    refinement_study,
)
from .functions import (
    DiracPoint,
    GridFunction,
    Mixture,
    UniformBox,
    _axis_header,
    _csv_rows,
    _in_domain,
    _write_rows,
    cell_masses,
    empirical_cdf,
    expected_value,
    load_grid_function,
    realize,
    resample,
    save_grid_function,
)
from .grid import Domain, Grid, build_grid, lattice
from .lp import SolverError
from .metrics import (
    default_rho,
    dl_rho_oracle,
    eta_minus,
    eta_plus,
    hat_dl_rho,
    hypo_dist_estimate,
)
from .validation import (
    distribution_error_pct,
    two_uniforms_scenario,
    uuv_scenario,
    verify_sandwich,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem: bad JSON, bad value, or unresolvable source."""


def _fail(where: str, msg: str):
    raise ConfigError(f"config {where}: {msg}")


def _check_keys(obj: dict, where: str, allowed: set, required: set) -> None:
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _fail(where, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(obj))
    if missing:
        _fail(where, f"missing required key(s) {missing}")


def _float_list(x, where: str, length: int | None = None) -> list:
    if not isinstance(x, (list, tuple)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    ):
        _fail(where, "expected a list of numbers")
    if length is not None and len(x) != length:
        _fail(where, f"expected {length} numbers, got {len(x)}")
    return [float(v) for v in x]


def _positive_int_list(x, where: str, length: int | None = None) -> list:
    vals = _float_list(x, where, length=length)
    # json.load accepts Infinity and NaN, which int() cannot convert
    if not all(math.isfinite(v) and v == int(v) and v >= 1 for v in vals):
        _fail(where, f"must be positive integers, got {x}")
    return [int(v) for v in vals]


def _positive_int(cfg: dict, key: str, default: int, least: int = 1) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        _fail(f"$.{key}", f"must be an integer >= {least}, got {value!r}")
    return value


def _number(x, where: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        _fail(where, f"expected a number, got {x!r}")
    return float(x)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(
                    f"config {path} line {e.lineno}, column {e.colno}: {e.msg}"
                ) from e
    except OSError as e:
        raise ConfigError(f"config {path}: cannot read ({e})") from e
    if not isinstance(cfg, dict):
        _fail(path, "top level must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail(path, f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def _parse_domain(obj, where: str) -> Domain:
    _check_keys(obj, where, {"lower", "upper"}, {"lower", "upper"})
    lower = _float_list(obj["lower"], f"{where}.lower")
    upper = _float_list(obj["upper"], f"{where}.upper", length=len(lower))
    try:
        return Domain(lower, upper)
    except ValueError as e:
        _fail(where, str(e))


def _parse_grid(domain: Domain, obj, where: str) -> Grid:
    _check_keys(obj, where, {"cells_per_axis"}, {"cells_per_axis"})
    cells = obj["cells_per_axis"]
    if isinstance(cells, int) and not isinstance(cells, bool):
        nodes = [cells + 1] * domain.dim
    else:
        cells = _positive_int_list(cells, f"{where}.cells_per_axis", domain.dim)
        nodes = [c + 1 for c in cells]
    if min(nodes) < 2:
        _fail(where, "need at least one cell per axis")
    try:
        return build_grid(domain, nodes)
    except ValueError as e:
        _fail(where, str(e))


_FILE_KINDS = {"samples_csv", "grid_function"}
_SOURCE_KINDS = {"uniform_box", "dirac", "mixture", "samples"} | _FILE_KINDS


def _parse_spec(obj, where: str, grid: Grid):
    """CdfSpec kinds only (no file references) — used inside mixtures too.
    Samples must lie inside the grid's domain, wherever they appear."""
    if not isinstance(obj, dict):
        _fail(where, "source must be an object with a 'kind'")
    kind = obj.get("kind")
    if kind == "uniform_box":
        _check_keys(obj, where, {"kind", "lower", "upper"}, {"lower", "upper"})
        lower = _float_list(obj["lower"], f"{where}.lower")
        upper = _float_list(obj["upper"], f"{where}.upper", length=len(lower))
        return UniformBox(lower, upper)
    if kind == "dirac":
        _check_keys(obj, where, {"kind", "point"}, {"point"})
        return DiracPoint(_float_list(obj["point"], f"{where}.point"))
    if kind == "samples":
        _check_keys(obj, where, {"kind", "points"}, {"points"})
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            _fail(where, "points must be a non-empty list of coordinate lists")
        rows = [_float_list(p, f"{where}.points[{i}]") for i, p in enumerate(pts)]
        try:
            return _in_domain(np.asarray(rows, dtype=float), grid)
        except ValueError as e:  # reported here, where a mixture component sits
            _fail(where, str(e))
    if kind == "mixture":
        _check_keys(obj, where, {"kind", "components", "weights"},
                    {"components", "weights"})
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            _fail(where, "components must be a non-empty list")
        parsed = [
            _parse_spec(c, f"{where}.components[{i}]", grid)
            for i, c in enumerate(comps)
        ]
        weights = _float_list(obj["weights"], f"{where}.weights", length=len(parsed))
        return Mixture(tuple(parsed), tuple(weights))
    _fail(where, f"unknown source kind {kind!r}; expected one of "
                 f"{sorted(_SOURCE_KINDS)}")


def _read_samples_csv(path: str, where: str) -> np.ndarray:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            cols = header.split(",")
            rows, _ = _csv_rows(fh, len(cols))
    except (OSError, ValueError) as e:
        _fail(where, f"cannot read samples from {path}: {e}")
    if header != _axis_header(len(cols)):
        _fail(where, f"{path}: expected header like 'x1,x2', got {header!r}")
    if not rows.size:
        _fail(where, f"{path}: no sample rows")
    return rows


def _resolve_source(obj, where: str, grid: Grid, base_dir: str) -> GridFunction:
    try:
        if not isinstance(obj, dict) or obj.get("kind") not in _FILE_KINDS:
            return realize(_parse_spec(obj, where, grid), grid)
        _check_keys(obj, where, {"kind", "path"}, {"path"})
        if not isinstance(obj["path"], str):
            _fail(f"{where}.path", f"expected a string, got {obj['path']!r}")
        path = os.path.join(base_dir, obj["path"])  # an absolute path stays
        if obj["kind"] == "samples_csv":
            return empirical_cdf(_read_samples_csv(path, where), grid)
        try:
            f = load_grid_function(path)
        except (OSError, ValueError) as e:
            _fail(where, f"cannot load grid function {path}: {e}")
        if f.grid == grid:
            return f
        if f.grid.domain != grid.domain:
            _fail(where, f"{path}: domain differs from the config domain")
        return resample(f, grid)
    except ConfigError:
        raise
    except ValueError as e:
        _fail(where, str(e))


def _parse_shape(obj, where: str) -> ShapeConstraints:
    allowed = {
        "monotone",
        "boundary_zero",
        "boundary_one",
        "distribution_condition",
        "bounded_growth",
    }
    _check_keys(obj, where, allowed, set())
    kwargs = {}
    for key in ("monotone", "boundary_zero", "boundary_one",
                "distribution_condition"):
        if key in obj:
            if not isinstance(obj[key], bool):
                _fail(where, f"{key} must be true or false")
            kwargs[key] = obj[key]
    if "bounded_growth" in obj and obj["bounded_growth"] is not None:
        kwargs["bounded_growth"] = _number(
            obj["bounded_growth"], f"{where}.bounded_growth"
        )
    try:
        return ShapeConstraints(**kwargs)
    except ValueError as e:
        _fail(where, str(e))


_COMMON_KEYS = {
    "schema_version",
    "domain",
    "grid",
    "F0",
    "G0",
    "rho",
    "shape",
    "tol",
    "seed",
    "out_dir",
}

# one schema for the whole config family: a key is "unknown" only when no
# subcommand understands it, so one config can drive several subcommands
_ALL_KEYS = _COMMON_KEYS | {
    "delta",
    "refinement_factors",
    "rect_budget",
    "quad_points",
    "rho_values",
    "oracle_samples",
}


# the part of a ladder's file names that tells their delta
_DELTA_SUFFIX = "_delta_{:g}"


def _deltas(raw) -> list:
    single = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    vals = [float(raw)] if single else _float_list(raw, "$.delta")
    if not vals:
        _fail("$.delta", "delta ladder must be non-empty")
    if not all(v >= 0 and math.isfinite(v) for v in vals):
        _fail("$.delta", f"must be finite nonnegative radii, got {vals}")
    suffixes = [_DELTA_SUFFIX.format(v) for v in vals]
    if len(set(suffixes)) < len(vals):
        _fail("$.delta", f"two deltas would share file names: {suffixes}")
    return vals


def _refinement_factors(raw) -> list:
    factors = _positive_int_list(raw, "$.refinement_factors")
    if len(factors) < 2:
        _fail("$.refinement_factors", "need at least two refinement levels")
    if any(b % a != 0 for a, b in zip(factors, factors[1:])):
        _fail("$.refinement_factors", "each factor must divide the next")
    return factors


def _family_keys(cfg: dict, domain: Domain, rho) -> dict:
    """Every key beyond the common part, parsed whichever command reads it,
    so a config fails alike in every command.  The keys with a default get
    it; a missing ``delta`` or ``refinement_factors`` stays missing."""
    parsed = {}
    if "delta" in cfg:
        parsed["delta"] = _deltas(cfg["delta"])
    rho_values = (
        _float_list(cfg["rho_values"], "$.rho_values")
        if "rho_values" in cfg
        else [rho if rho is not None else default_rho(domain)]
    )
    if not rho_values or not all(r > 0 and math.isfinite(r) for r in rho_values):
        _fail("$.rho_values",
              f"must be a non-empty list of positive finite radii, got {rho_values}")
    parsed["rho_values"] = rho_values
    parsed["oracle_samples"] = _positive_int(cfg, "oracle_samples", 9, least=2)
    parsed["quad_points"] = _positive_int(cfg, "quad_points", 32)
    if "refinement_factors" in cfg:
        parsed["refinement_factors"] = _refinement_factors(cfg["refinement_factors"])
    parsed["rect_budget"] = _positive_int(cfg, "rect_budget", 200_000)
    # read by no command; generate records its sample seed here
    seed = cfg.get("seed")
    if "seed" in cfg and (not isinstance(seed, int) or isinstance(seed, bool)
                          or seed < 0):
        _fail("$.seed", f"must be a nonnegative integer, got {seed!r}")
    return parsed


def _load(args, *required: str):
    """The config at ``args.config``, its keys checked against the family
    schema with ``required`` beyond the common required keys, and parsed:
    ``(cfg, grid, F0, G0, rho, shape, tol)``, where ``cfg`` holds every
    family key's parsed value (see ``_family_keys``)."""
    cfg = load_config(args.config)
    _check_keys(cfg, "$", _ALL_KEYS,
                {"schema_version", "domain", "grid", "F0", "G0", *required})
    domain = _parse_domain(cfg["domain"], "$.domain")
    grid = _parse_grid(domain, cfg["grid"], "$.grid")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    F0 = _resolve_source(cfg["F0"], "$.F0", grid, base_dir)
    G0 = _resolve_source(cfg["G0"], "$.G0", grid, base_dir)
    rho = None
    if cfg.get("rho") is not None:
        rho = _number(cfg["rho"], "$.rho")
        if not (rho > 0 and math.isfinite(rho)):
            _fail("$.rho", f"must be positive and finite, got {rho}")
    shape = _parse_shape(cfg.get("shape", {}), "$.shape")
    tol = _number(cfg.get("tol", 1e-8), "$.tol")
    if not (0 < tol < 1):
        _fail("$.tol", f"must be in (0, 1), got {tol}")
    cfg = {**cfg, **_family_keys(cfg, domain, rho)}
    return cfg, grid, F0, G0, rho, shape, tol


def _make_problem(F0, G0, delta, rho, shape, tol) -> EstimationProblem:
    try:
        return EstimationProblem(F0, G0, delta, rho=rho, shape=shape, tol=tol)
    except ValueError as e:
        raise ConfigError(f"config: {e}") from e


def _out_dir(args, cfg: dict) -> str:
    configured = cfg.get("out_dir")
    if not isinstance(configured, (str, type(None))):
        _fail("$.out_dir", f"expected a string, got {configured!r}")
    out = args.out or configured or "."
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as e:
        raise ConfigError(f"output directory {out!r} not writable: {e}") from e
    return out


def _dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot(path: str, axes, values: np.ndarray) -> None:
    """gnuplot-ready ``x1 [x2] value`` rows over the lattice of ``axes``, in
    C order; in 2-D a blank line follows each row of axis 0."""
    table = np.column_stack([lattice(axes), np.reshape(values, -1)])
    _write_rows(path, table, sep=" ", block=axes[-1].size if len(axes) > 1 else 0)


def _expected_value_or_none(f: GridFunction):
    try:
        ev = expected_value(f, neg_tol=1e-6)
    except ValueError as e:
        logger.warning("expected value unavailable: %s", e)
        return None
    return [float(c) for c in np.atleast_1d(ev)]


# -- subcommands -------------------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _map_until_failure(fn, items: list, workers: int) -> tuple[list, list | None]:
    """``fn`` over ``items`` on ``workers`` threads, the calling thread one of
    them, so one worker is a plain loop.  Items are taken in order; once an
    item raises, no later item is started.  The calling thread works rather
    than waits because a ``ThreadPoolExecutor``, with a thread for every
    worker, raised the peak memory of the 3-delta estimate-uuv benchmark
    ladder by about 3 MB (unverified cause: likely the extra thread's malloc
    arena).

    The threads overlap only where ``fn`` releases the GIL, as HiGHS does
    while it solves.  Left to the scheduler, two such threads often share
    one CPU for a whole ladder, so with more than one worker, and at least
    as many CPUs in the calling thread's mask, each worker first pins
    itself to one of the lowest ``workers`` of them; the calling thread
    gets its mask back before it joins the others.  Without
    ``os.sched_setaffinity`` (macOS, Windows), with too few CPUs, or where
    pinning raises ``OSError``, the workers run unpinned.

    Returns (result, exception) per item, in item order, up to the first
    item that raised, which ends the list, and the CPU each worker was
    pinned to, in worker order (None for one that could not pin), or None
    when none was pinned."""
    outcomes = [None] * len(items)
    lock = threading.Lock()
    claimed, stop = 0, len(items)
    pinnable = workers > 1 and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pinnable else set()
    cpus = sorted(mask)[:workers] if len(mask) >= workers else None
    pinned = [None] * workers

    def work(k: int) -> None:
        nonlocal claimed, stop
        if cpus is not None:
            try:
                os.sched_setaffinity(0, {cpus[k]})  # pid 0: this thread only
                pinned[k] = cpus[k]
            except OSError:
                pass  # this worker runs unpinned
        while True:
            with lock:
                i = claimed
                if i >= stop:
                    return
                claimed += 1
            try:
                outcomes[i] = (fn(items[i]), None)
            except BaseException as e:  # re-raised by the caller, in order
                outcomes[i] = (None, e)
                with lock:
                    stop = min(stop, i + 1)

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for t in helpers:
        t.start()
    try:
        work(0)
    finally:
        if pinned[0] is not None:
            os.sched_setaffinity(0, mask)
        for t in helpers:
            t.join()
    return outcomes[:stop], (pinned if any(c is not None for c in pinned) else None)


def cmd_estimate(args) -> int:
    cfg, grid, F0, G0, rho, shape, tol = _load(args, "delta")
    deltas = cfg["delta"]
    problems = [_make_problem(F0, G0, delta, rho, shape, tol) for delta in deltas]
    out = _out_dir(args, cfg)

    # each delta is estimated on its own, so the deltas run concurrently;
    # their files are written afterwards, in config order
    workers = min(len(deltas), _usable_cpus())
    t0 = time.perf_counter()
    outcomes, cpus = _map_until_failure(estimate, problems, workers)
    elapsed = time.perf_counter() - t0

    runs = []
    total_time = 0.0
    for delta, (result, error) in zip(deltas, outcomes):
        if error is not None:
            raise error
        total_time += result.wall_time
        suffix = "" if len(deltas) == 1 else _DELTA_SUFFIX.format(delta)
        sol_path = os.path.join(out, f"solution{suffix}.csv")
        save_grid_function(result.solution, sol_path)
        surf_path = os.path.join(out, f"surface{suffix}.dat")
        _write_plot(surf_path, grid.axes, result.solution.values)
        mass_path = os.path.join(out, f"cell_mass{suffix}.dat")
        centers = [0.5 * (a[:-1] + a[1:]) for a in grid.axes]
        _write_plot(mass_path, centers, cell_masses(result.solution))
        record = {
            "delta": delta,
            "eta": result.eta,
            "slack": result.slack,
            "expected_value": _expected_value_or_none(result.solution),
            # the slack LP, at eta = 1, runs first or not at all; the target
            # search starts at eta = 0
            "history": [
                {"eta": e, "kind": "slack" if i == 0 and e == 1.0 else "target",
                 "objective": v, "lp_iterations": it}
                for i, (e, v, it) in enumerate(result.history)
            ],
            "wall_time": result.wall_time,
            "files": {
                "solution": os.path.basename(sol_path),
                "surface": os.path.basename(surf_path),
                "cell_mass": os.path.basename(mass_path),
            },
        }
        runs.append(record)
        if not args.quiet:
            ev = record["expected_value"]
            ev_txt = ("(" + ", ".join(f"{c:.4f}" for c in ev) + ")") if ev else "n/a"
            print(
                f"delta={delta:g}  eta={result.eta:.8f}  "
                f"slack={result.slack:.3g}  expected_value={ev_txt}"
            )

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "rho": problems[0].rho,
        "tol": tol,
        "grid": grid.to_json_obj(),
        "runs": runs,
        "timings": {"total_wall_time": total_time, "elapsed": elapsed,
                    "workers": workers, "cpus": cpus},
    }
    _dump_json(report, os.path.join(out, "result.json"))
    return 0


def cmd_distance(args) -> int:
    cfg, _grid, F0, G0, _rho, _shape, tol = _load(args)
    rho_values, samples = cfg["rho_values"], cfg["oracle_samples"]
    quad_points = cfg["quad_points"]

    def at_rho(r: float) -> dict:
        return {
            "rho": r,
            "hat": hat_dl_rho(F0, G0, r, tol=tol),
            "eta_minus": eta_minus(F0, G0, r),
            "eta_plus": eta_plus(F0, G0, r),
            "oracle": dl_rho_oracle(F0, G0, r, samples),
        }

    try:
        per_rho = [at_rho(r) for r in rho_values]
        integral = hypo_dist_estimate(F0, G0, quad_points=quad_points, tol=tol)
    except ValueError as e:
        raise ConfigError(f"config: sources unsuitable for distances: {e}") from e
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "distance",
        "oracle_samples": samples,
        "per_rho": per_rho,
        "hypo_distance": {
            "value": integral.value,
            "lower_bound": integral.lower_bound,
            "upper_bound": integral.upper_bound,
            "method": integral.method,
            "evaluations": integral.evaluations,
            "points": integral.points,
        },
    }
    _dump_json(report, os.path.join(_out_dir(args, cfg), "distance.json"))
    if not args.quiet:
        for row in per_rho:
            print(
                f"rho={row['rho']:g}  hat={row['hat']:.6f}  "
                f"eta-={row['eta_minus']:.6f}  eta+={row['eta_plus']:.6f}  "
                f"oracle={row['oracle']:.6f}"
            )
        print(
            f"hypo distance ~= {integral.value:.6f} "
            f"in [{integral.lower_bound:.6f}, {integral.upper_bound:.6f}]"
        )
    return 0


def cmd_study(args) -> int:
    cfg, _grid, F0, G0, rho, shape, tol = _load(args, "delta", "refinement_factors")
    deltas, factors = cfg["delta"], cfg["refinement_factors"]
    if len(deltas) != 1:
        _fail("$.delta", "a study takes a single delta, not a ladder")
    budget, quad_points = cfg["rect_budget"], cfg["quad_points"]
    problem = _make_problem(F0, G0, deltas[0], rho, shape, tol)
    out = _out_dir(args, cfg)

    report = refinement_study(problem, factors, quad_points=quad_points)

    def validate_level(item) -> dict:
        factor, result = item
        g = result.solution.grid
        sandwich = verify_sandwich(
            resample(F0, g), resample(G0, g), problem.rho, samples_per_axis=7
        )
        return {
            "factor": factor,
            "cells_per_axis": [int(c) for c in g.cell_counts],
            "eta": result.eta,
            "slack": result.slack,
            "wall_time": result.wall_time,
            "distribution_error_pct": distribution_error_pct(
                result.solution, budget=budget
            ),
            "sandwich": dataclasses.asdict(sandwich),
        }

    levels = [validate_level(item) for item in zip(factors, report.results)]
    distances = [
        {"value": d.value, "lower_bound": d.lower_bound, "upper_bound": d.upper_bound}
        for d in report.consecutive_distances
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "study",
        "delta": deltas[0],
        "rho": problem.rho,
        "levels": levels,
        "consecutive_distances": distances,
        "total_sandwich_violations": sum(
            len(lv["sandwich"]["violations"]) for lv in levels
        ),
    }
    _dump_json(doc, os.path.join(out, "study.json"))
    if not args.quiet:
        print(f"{'factor':>6} {'cells':>10} {'eta':>12} {'slack':>10} "
              f"{'dist_to_prev':>13} {'rect_err_%':>10}")
        for i, lv in enumerate(levels):
            dist = f"{distances[i - 1]['value']:.6f}" if i > 0 else "-"
            cells = "x".join(str(c) for c in lv["cells_per_axis"])
            print(
                f"{lv['factor']:>6} {cells:>10} {lv['eta']:>12.8f} "
                f"{lv['slack']:>10.3g} {dist:>13} "
                f"{lv['distribution_error_pct']:>10.4f}"
            )
    return 0


def cmd_validate(args) -> int:
    cfg, _grid, F0, G0, _rho, _shape, tol = _load(args)
    rho_values, samples = cfg["rho_values"], cfg["oracle_samples"]
    budget = cfg["rect_budget"]

    def sandwich_at(r: float) -> dict:
        rep = verify_sandwich(F0, G0, r, samples_per_axis=samples, tol=tol)
        return {"rho": r, **dataclasses.asdict(rep)}

    try:
        sandwiches = [sandwich_at(r) for r in rho_values]
    except ValueError as e:
        raise ConfigError(f"config: sources unsuitable for validation: {e}") from e
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "sandwich": sandwiches,
        "distribution_error_pct": {
            "F0": distribution_error_pct(F0, budget=budget),
            "G0": distribution_error_pct(G0, budget=budget),
        },
        "total_sandwich_violations": sum(len(s["violations"]) for s in sandwiches),
    }
    _dump_json(doc, os.path.join(_out_dir(args, cfg), "validate.json"))
    if not args.quiet:
        for s in sandwiches:
            status = "ok" if not s["violations"] else "VIOLATED"
            print(
                f"rho={s['rho']:g}  eta-={s['eta_minus']:.6f} "
                f"hat={s['hat_rho']:.6f} eta+={s['eta_plus']:.6f} "
                f"oracle={s['oracle']:.6f}  {status}"
            )
        print(f"total sandwich violations: {doc['total_sandwich_violations']}")
    return 0


def cmd_generate(args) -> int:
    out = _out_dir(args, {})
    seed = args.seed if args.seed is not None else 7
    written = []
    if args.scenario == "two-uniforms":
        sc = two_uniforms_scenario()
        sources = [{"kind": "uniform_box", **dataclasses.asdict(box)}
                   for box in (sc.F0, sc.G0)]
    else:
        sc = uuv_scenario(seed)
        sources = []
        for label in ("target", "anchor"):
            written.append(f"uuv_{label}_samples.csv")
            points = sc.samples[label]
            _write_rows(os.path.join(out, written[-1]), points,
                        header=_axis_header(points.shape[1]))
            sources.append({"kind": "samples_csv", "path": written[-1]})
    common = {
        "schema_version": SCHEMA_VERSION,
        "domain": {"lower": sc.domain.lower.tolist(),
                   "upper": sc.domain.upper.tolist()},
        "F0": sources[0],
        "G0": sources[1],
        "tol": 1e-8,
        "seed": seed,
    }
    configs = {"estimate": {**common,
                            "grid": {"cells_per_axis": list(sc.cells_per_axis)},
                            "delta": list(sc.deltas)}}
    if args.scenario == "two-uniforms":
        configs["study"] = {**common, "grid": {"cells_per_axis": [10, 10]},
                            "delta": 0.7, "refinement_factors": [1, 2, 4]}
    for kind, cfg in configs.items():
        written.append(f"{sc.name.replace('-', '_')}_{kind}.json")
        _dump_json(cfg, os.path.join(out, written[-1]))
    if not args.quiet:
        print(f"wrote {', '.join(written[:-1])} and {written[-1]} to {out}")
    return 0


# -- entry point -------------------------------------------------------------------


def _seed_arg(text: str) -> int:
    """``--seed``: a nonnegative integer, which the sample generator needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypodist",
        description="Shape-constrained CDF estimation under hypograph-distance "
                    "ambiguity, plus the distance toolbox behind it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true", help="warnings only")

    p = sub.add_parser("estimate", help="solve an estimation config")
    common(p)
    p.set_defaults(fn=cmd_estimate)
    p = sub.add_parser("distance", help="distance suite between two sources")
    common(p)
    p.set_defaults(fn=cmd_distance)
    p = sub.add_parser("study", help="refinement study with validation table")
    common(p)
    p.set_defaults(fn=cmd_study)
    p = sub.add_parser("validate", help="sandwich checks and rectangle audits")
    common(p)
    p.set_defaults(fn=cmd_validate)
    p = sub.add_parser("generate", help="write ready-to-run scenario inputs")
    p.add_argument("scenario", choices=["two-uniforms", "uuv-synthetic"])
    p.add_argument("--seed", type=_seed_arg, default=None,
                   help="sample seed (default 7)")
    common(p, needs_config=False)
    p.set_defaults(fn=cmd_generate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which here means shape-infeasible
        return 0 if e.code in (0, None) else 1
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 1
    except ShapeInfeasibleError as e:
        print(f"shape-infeasible: {e}", file=sys.stderr)
        return 2
    except IterationLimitError as e:
        print(f"iteration limit: {e}", file=sys.stderr)
        return 3
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
