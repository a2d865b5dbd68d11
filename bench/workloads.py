"""Benchmark workloads: the input files each one writes, the CLI arguments it
runs, and the reference sources its output checks compare against.

Every input is made here from the workload seed with numpy alone; the program
only ever sees the written config and sample files.  The reference node
values (box-CDF products, brute-force sample counts) are likewise computed
here, apart from the program's own ``realize``/``empirical_cdf``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("estimate-two-uniforms", "estimate-uuv", "distance-uuv")
DEFAULT_SEED = 7  # the seed of the paper's uuv-synthetic scenario

TOL = 1e-8  # the program's default slack and bisection tolerance
# the estimate workloads bisect to 1e-6: 20 LP probes per delta instead of
# 28, so that a round takes about 9 s and a run holds three of them
ESTIMATE_TOL = 1e-6

TWO_UNIFORMS_CELLS = (20, 20)
TWO_UNIFORMS_DELTAS = (1.0, 0.7, 0.4, 0.1, 1e-4)
UUV_CELLS = (48, 16)
UUV_DELTAS = (0.9, 0.1, 0.01)
UUV_SAMPLES = 200
DISTANCE_RADII = (0.5, 1.0, 2.0)
DISTANCE_QUAD_POINTS = 32
DISTANCE_ORACLE_SAMPLES = 9


@dataclass(frozen=True)
class Inputs:
    """One workload's written inputs and the benchmark's own view of them."""

    name: str
    argv: list  # arguments to hypodist.cli.main
    out_dir: str
    lower: np.ndarray
    upper: np.ndarray
    axes: tuple  # node coordinates per axis
    F0: np.ndarray  # reference node values, shape (n1, n2)
    G0: np.ndarray
    tol: float = TOL
    deltas: tuple = ()
    radii: tuple = ()

    @property
    def rho(self) -> float:
        """The program's default truncation radius: 1 + max-norm diameter."""
        return 1.0 + float(np.max(self.upper - self.lower))


def node_axes(lower, upper, cells) -> tuple:
    return tuple(np.linspace(lo, hi, c + 1) for lo, hi, c in zip(lower, upper, cells))


def node_points(axes) -> np.ndarray:
    """(N, 2) node coordinates in C order, the order of the solution CSVs."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def box_cdf(axes, lo, hi) -> np.ndarray:
    """CDF of the uniform distribution on the box [lo, hi] at every node."""
    parts = [np.clip((a - l) / (h - l), 0.0, 1.0) for a, l, h in zip(axes, lo, hi)]
    return parts[0][:, None] * parts[1][None, :]


def sample_cdf(axes, samples: np.ndarray) -> np.ndarray:
    """Share of samples <= each node, counted by brute force."""
    nodes = node_points(axes)
    below = np.all(samples[None, :, :] <= nodes[:, None, :], axis=2)
    return below.mean(axis=1).reshape(tuple(a.size for a in axes))


def uuv_samples(seed: int, pair: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The uuv-synthetic recipe: two seeded uniform scatters over a 6 x 2
    strip that overlap on [2.7, 3.3].  Pair 0 is the scenario's own draw for
    ``seed``; pair k > 0 draws from the seed sequence (seed, k)."""
    rng = np.random.default_rng(seed if pair == 0 else [seed, pair])
    target = rng.uniform([0.3, 0.2], [3.3, 1.8], size=(UUV_SAMPLES, 2))
    anchor = rng.uniform([2.7, 0.2], [5.7, 1.8], size=(UUV_SAMPLES, 2))
    return target, anchor


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def _write_samples(path: str, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2\n")
        for x1, x2 in points:
            fh.write(f"{float(x1)!r},{float(x2)!r}\n")


def prepare(name: str, seed: int, work_dir: str, pair: int = 0) -> Inputs:
    """Write the inputs of workload ``name`` under ``work_dir``: for the uuv
    workloads, sample pair ``pair`` of ``seed``."""
    in_dir = os.path.join(work_dir, "inputs")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(in_dir, exist_ok=True)
    config = os.path.join(in_dir, "config.json")
    if name == "estimate-two-uniforms":
        # the paper's pair: fixed, so every seed gives the same inputs
        lower, upper = np.array([0.0, 0.0]), np.array([3.0, 3.0])
        axes = node_axes(lower, upper, TWO_UNIFORMS_CELLS)
        cfg = {
            "schema_version": 1,
            "domain": {"lower": lower.tolist(), "upper": upper.tolist()},
            "grid": {"cells_per_axis": list(TWO_UNIFORMS_CELLS)},
            "F0": {"kind": "uniform_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "G0": {"kind": "uniform_box", "lower": [2.0, 2.0], "upper": [3.0, 3.0]},
            "delta": list(TWO_UNIFORMS_DELTAS),
            "tol": ESTIMATE_TOL,
        }
        _write_json(config, cfg)
        return Inputs(
            name, ["estimate", "--config", config, "--out", out_dir, "--quiet"],
            out_dir, lower, upper, axes,
            box_cdf(axes, [0.0, 0.0], [1.0, 1.0]),
            box_cdf(axes, [2.0, 2.0], [3.0, 3.0]),
            tol=ESTIMATE_TOL,
            deltas=TWO_UNIFORMS_DELTAS,
        )
    if name not in ("estimate-uuv", "distance-uuv"):
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    lower, upper = np.array([0.0, 0.0]), np.array([6.0, 2.0])
    axes = node_axes(lower, upper, UUV_CELLS)
    target, anchor = uuv_samples(seed, pair)
    _write_samples(os.path.join(in_dir, "target.csv"), target)
    _write_samples(os.path.join(in_dir, "anchor.csv"), anchor)
    cfg = {
        "schema_version": 1,
        "domain": {"lower": lower.tolist(), "upper": upper.tolist()},
        "grid": {"cells_per_axis": list(UUV_CELLS)},
        "F0": {"kind": "samples_csv", "path": "target.csv"},
        "G0": {"kind": "samples_csv", "path": "anchor.csv"},
    }
    if name == "estimate-uuv":
        cfg["delta"] = list(UUV_DELTAS)
        cfg["tol"] = ESTIMATE_TOL
        command = "estimate"
    else:
        cfg["rho_values"] = list(DISTANCE_RADII)
        cfg["quad_points"] = DISTANCE_QUAD_POINTS
        cfg["oracle_samples"] = DISTANCE_ORACLE_SAMPLES
        cfg["tol"] = TOL
        command = "distance"
    _write_json(config, cfg)
    return Inputs(
        name, [command, "--config", config, "--out", out_dir, "--quiet"],
        out_dir, lower, upper, axes,
        sample_cdf(axes, target), sample_cdf(axes, anchor),
        tol=cfg["tol"],
        deltas=UUV_DELTAS if command == "estimate" else (),
        radii=DISTANCE_RADII if command == "distance" else (),
    )
