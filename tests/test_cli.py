from __future__ import annotations

import filecmp
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from hypodist import (
    Domain,
    UniformBox,
    build_grid,
    load_grid_function,
    realize,
    save_grid_function,
)
from hypodist.cli import main


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "domain": {"lower": [0.0, 0.0], "upper": [3.0, 3.0]},
        "grid": {"cells_per_axis": 6},
        "F0": {"kind": "uniform_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "G0": {"kind": "uniform_box", "lower": [2.0, 2.0], "upper": [3.0, 3.0]},
        "delta": 0.7,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def plot_blocks(path) -> list:
    """Blocks of a .dat plot file (separated by blank lines), each a list of
    rows, every token parsed with float()."""
    blocks, rows = [], []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rows.append([float(tok) for tok in line.split()])
        elif rows:
            blocks.append(rows)
            rows = []
    return blocks + [rows] if rows else blocks


def test_estimate_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = read_json(out / "result.json")
    assert doc["schema_version"] == 1
    assert doc["command"] == "estimate"
    (run,) = doc["runs"]
    assert run["delta"] == 0.7
    assert 0.0 <= run["eta"] <= 1.0
    assert run["slack"] <= 1e-6
    assert len(run["expected_value"]) == 2
    # G0 is a witness at eta = 1, so no slack LP runs: the target search
    # starts at eta = 0
    first, *targets = run["history"]
    assert (first["eta"], first["kind"]) == (0.0, "target")
    assert targets and {h["kind"] for h in targets} == {"target"}
    assert set(first) == {"eta", "kind", "objective", "lp_iterations"}
    # a ball too tight for G0 itself: the slack LP runs, and it is the answer
    tight = write_config(tmp_path / "tight.json", delta=1e-4)
    assert main(["estimate", "--config", str(tight), "--out",
                 str(tmp_path / "tight"), "--quiet"]) == 0
    (run_tight,) = read_json(tmp_path / "tight" / "result.json")["runs"]
    assert [(h["eta"], h["kind"]) for h in run_tight["history"]] == [(1.0, "slack")]
    # the saved solution round-trips bit-exact
    sol = load_grid_function(str(out / run["files"]["solution"]))
    assert sol.monotone and sol.order == 1
    assert np.all(np.diff(sol.values, axis=0) >= -1e-12)
    # plot files hold plain float columns, one block per row of axis 0:
    # 7 nodes by 7 for the surface, 6 cells by 6 for the cell masses
    axis = np.linspace(0.0, 3.0, 7)
    surf = plot_blocks(out / run["files"]["surface"])
    assert [len(b) for b in surf] == [7] * 7
    assert all(len(r) == 3 for b in surf for r in b)
    assert [[r[:2] for r in b] for b in surf] == [
        [[x1, x2] for x2 in axis] for x1 in axis
    ]
    assert [r[2] for b in surf for r in b] == sol.values.reshape(-1).tolist()
    mass = plot_blocks(out / run["files"]["cell_mass"])
    assert [len(b) for b in mass] == [6] * 6
    assert all(len(r) == 3 for b in mass for r in b)
    assert mass[0][0][:2] == [0.25, 0.25]
    total = sum(r[2] for b in mass for r in b)
    assert total == pytest.approx(sol.values[-1, -1] - sol.values[0, -1]
                                  - sol.values[-1, 0] + sol.values[0, 0])

    # 1-D: one block, no blank lines
    cfg = write_config(
        tmp_path / "run1d.json",
        domain={"lower": [0.0], "upper": [3.0]},
        F0={"kind": "uniform_box", "lower": [0.0], "upper": [1.0]},
        G0={"kind": "uniform_box", "lower": [2.0], "upper": [3.0]},
    )
    out = tmp_path / "out1d"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    (run,) = read_json(out / "result.json")["runs"]
    sol = load_grid_function(str(out / run["files"]["solution"]))
    (surf,) = plot_blocks(out / run["files"]["surface"])
    assert surf == [[x, v] for x, v in zip(axis.tolist(), sol.values.tolist())]
    (mass,) = plot_blocks(out / run["files"]["cell_mass"])
    assert [r[0] for r in mass] == [0.25, 0.75, 1.25, 1.75, 2.25, 2.75]
    assert [r[1] for r in mass] == np.diff(sol.values).tolist()


def test_estimate_delta_ladder_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "run.json", delta=[1.0, 0.4])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out2),
                 "--quiet"]) == 0
    d1 = read_json(out1 / "result.json")
    d2 = read_json(out2 / "result.json")
    assert [r["delta"] for r in d1["runs"]] == [1.0, 0.4]
    # eta responds monotonically within the ladder
    assert d1["runs"][0]["eta"] <= d1["runs"][1]["eta"] + 1e-9
    # identical modulo timing fields
    for d in (d1, d2):
        d.pop("timings")
        for r in d["runs"]:
            r.pop("wall_time")
    assert d1 == d2
    for name in ("solution_delta_1.csv", "solution_delta_0.4.csv",
                 "surface_delta_1.dat", "surface_delta_0.4.dat",
                 "cell_mass_delta_1.dat", "cell_mass_delta_0.4.dat"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_ladder_matches_single_delta_estimates(tmp_path):
    # each delta of a ladder (out of order here) is estimated on its own, so
    # its run equals a fresh single-delta estimate exactly
    deltas = [0.7, 1.0, 0.4, 0.1]
    cfg = write_config(tmp_path / "ladder.json", delta=deltas)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "ladder"), "--quiet"]) == 0
    runs = read_json(tmp_path / "ladder" / "result.json")["runs"]
    for run in runs:
        name = f"single_{run['delta']:g}"
        cfg = write_config(tmp_path / f"{name}.json", delta=run["delta"])
        assert main(["estimate", "--config", str(cfg), "--out",
                     str(tmp_path / name), "--quiet"]) == 0
        (single,) = read_json(tmp_path / name / "result.json")["runs"]
        for key in ("eta", "slack", "history"):
            assert run[key] == single[key], key
    by_delta = sorted(runs, key=lambda r: -r["delta"])
    etas = [r["eta"] for r in by_delta]
    assert all(b >= a for a, b in zip(etas, etas[1:])), etas


def pinned_cpus(workers: int):
    """The CPUs a ladder of ``workers`` workers pins to on this host: the
    lowest ``workers`` of this thread's mask, or None where it cannot pin."""
    if workers < 2 or not hasattr(os, "sched_setaffinity"):
        return None
    mask = sorted(os.sched_getaffinity(0))
    return mask[:workers] if len(mask) >= workers else None


def assert_same_ladder_files(a, b) -> None:
    """Two ladder output directories hold the same files, byte for byte
    apart from the timings in result.json."""
    docs = []
    for out in (a, b):
        doc = read_json(out / "result.json")
        doc.pop("timings")
        for run in doc["runs"]:
            run.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name != "result.json":
            assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_ladder_on_two_workers_matches_one_worker(tmp_path, monkeypatch):
    # the deltas of a ladder run concurrently, one per usable CPU; forcing
    # the CPU count runs the threaded path on any host, and its files must
    # equal a one-worker run's byte for byte
    from hypodist import cli as climod

    cfg = write_config(tmp_path / "ladder.json", delta=[0.7, 1.0, 0.4, 0.1])
    for workers in (1, 2):
        monkeypatch.setattr(climod, "_usable_cpus", lambda n=workers: n)
        out = tmp_path / f"workers_{workers}"
        assert main(["estimate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        doc = read_json(out / "result.json")
        timings = doc.pop("timings")
        assert timings["workers"] == workers and timings["elapsed"] > 0
        assert timings["cpus"] == pinned_cpus(workers)
        assert timings["total_wall_time"] == pytest.approx(
            sum(r["wall_time"] for r in doc["runs"]))
    # result.json; csv, sidecar, 2 plots per delta
    assert len(os.listdir(tmp_path / "workers_1")) == 1 + 4 * 4
    assert_same_ladder_files(tmp_path / "workers_1", tmp_path / "workers_2")


def test_ladder_workers_run_pinned_to_their_own_cpus(tmp_path, monkeypatch):
    # each of two workers pins itself to one of the two lowest CPUs, and the
    # calling thread, one of them, gets its mask back afterwards
    if pinned_cpus(2) is None:
        pytest.skip("needs sched_setaffinity and at least 2 usable CPUs")
    from hypodist import cli as climod

    real_estimate = climod.estimate
    masks = {}
    second_started = threading.Event()

    def recording(problem):
        masks[problem.delta] = frozenset(os.sched_getaffinity(0))
        if problem.delta == 1.0:
            second_started.set()
        elif problem.delta == 0.7:
            # held until the second item has started, so it runs on the
            # other worker
            assert second_started.wait(timeout=60)
        return real_estimate(problem)

    monkeypatch.setattr(climod, "estimate", recording)
    monkeypatch.setattr(climod, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path / "ladder.json", delta=[0.7, 1.0, 0.4, 0.1])
    before = os.sched_getaffinity(0)
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert os.sched_getaffinity(0) == before
    timings = read_json(tmp_path / "o" / "result.json")["timings"]
    assert timings["workers"] == 2
    assert timings["cpus"] == sorted(before)[:2]
    assert len(masks) == 4
    assert set(masks.values()) == {frozenset({c}) for c in timings["cpus"]}
    assert masks[0.7] != masks[1.0]


@pytest.mark.parametrize("case", ["one cpu", "refused", "missing"])
def test_ladder_runs_unpinned_where_it_cannot_pin(tmp_path, monkeypatch, case):
    # fewer CPUs than workers, a refused sched_setaffinity, or none at all
    # (macOS, Windows): two workers run unpinned, and their files equal a
    # one-worker run's byte for byte
    from hypodist import cli as climod

    cfg = write_config(tmp_path / "ladder.json", delta=[0.7, 1.0, 0.4, 0.1])
    monkeypatch.setattr(climod, "_usable_cpus", lambda: 1)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "workers_1"), "--quiet"]) == 0

    calls = []

    def refuse(pid, mask):
        calls.append(mask)
        raise OSError("sched_setaffinity refused")

    if case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: calls.append(mask), raising=False)
    elif case == "refused":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(climod, "_usable_cpus", lambda: 2)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "workers_2"), "--quiet"]) == 0
    timings = read_json(tmp_path / "workers_2" / "result.json")["timings"]
    assert timings["workers"] == 2 and timings["cpus"] is None
    # each worker tries its CPU once; a one-CPU mask tries none
    assert sorted(min(m) for m in calls) == ([0, 1] if case == "refused" else [])
    assert_same_ladder_files(tmp_path / "workers_1", tmp_path / "workers_2")


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_delta_in_config_order_decides(tmp_path, monkeypatch, capsys,
                                                     workers):
    # delta 0.4 fails after its estimate and 0.1 fails at once: the run
    # exits as 0.4 does, with delta 1's files written and no others; one
    # worker never starts delta 0.1
    from hypodist import IterationLimitError, ShapeInfeasibleError
    from hypodist import cli as climod

    real_estimate = climod.estimate
    started = []

    def fails(problem):
        started.append(problem.delta)
        if problem.delta == 0.1:
            raise ShapeInfeasibleError("delta 0.1")
        result = real_estimate(problem)
        if problem.delta == 0.4:
            raise IterationLimitError("delta 0.4")
        return result

    monkeypatch.setattr(climod, "estimate", fails)
    monkeypatch.setattr(climod, "_usable_cpus", lambda: workers)
    cfg = write_config(tmp_path / "ladder.json", delta=[1.0, 0.4, 0.1])
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == "iteration limit: delta 0.4\n"
    assert sorted(os.listdir(out)) == [
        "cell_mass_delta_1.dat", "solution_delta_1.csv",
        "solution_delta_1.csv.meta.json", "surface_delta_1.dat"]
    if workers == 1:
        assert started == [1.0, 0.4]


def run_generated_two_uniforms_ladder(tmp_path, cells=None):
    """The generated two-uniforms ladder, at ``cells`` per axis if given, in
    a subprocess, because a solver crash would take the interpreter with
    it.  The slack curves of the two uniforms reach zero at eta = 1 - delta,
    and delta 1e-4 saturates at eta = 1."""
    import subprocess
    import sys

    import hypodist

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypodist.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    assert main(["generate", "two-uniforms", "--out", str(tmp_path),
                 "--quiet"]) == 0
    cfg = read_json(tmp_path / "two_uniforms_estimate.json")
    if cells is not None:
        cfg["grid"]["cells_per_axis"] = [cells, cells]
        write_json(tmp_path / "two_uniforms_estimate.json", cfg)
    run = subprocess.run(
        [sys.executable, "-m", "hypodist.cli", "estimate", "--config",
         str(tmp_path / "two_uniforms_estimate.json"), "--out",
         str(tmp_path / "run"), "--quiet"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr[-2000:]
    etas = {r["delta"]: r["eta"]
            for r in read_json(tmp_path / "run" / "result.json")["runs"]}
    assert sorted(etas) == sorted(cfg["delta"])
    for delta in (0.7, 0.4, 0.1):
        assert abs(etas[delta] - (1.0 - delta)) <= 10 * cfg["tol"], delta
    assert etas[1e-4] == 1.0


def test_generated_two_uniforms_ladder_runs(tmp_path):
    # the README quickstart at its 50x50 demo size
    run_generated_two_uniforms_ladder(tmp_path)


def test_generated_two_uniforms_ladder_runs_at_60_cells(tmp_path):
    # the size at which a warm slack LP next to its root crashed HiGHS
    run_generated_two_uniforms_ladder(tmp_path, cells=60)


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": 1,\n  "grid": }\n')
    assert main(["estimate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_key_rejected(tmp_path, capsys):
    # a typo, and the LP backend choice that estimation no longer has
    for key, value in (("detla", 0.5), ("lp_method", "highs")):
        cfg = write_config(tmp_path / "run.json", **{key: value})
        assert main(["estimate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    p = tmp_path / "run.json"
    cfg = read_json(write_config(p))
    del cfg["delta"]
    write_json(p, cfg)
    assert main(["estimate", "--config", str(p), "--out",
                 str(tmp_path / "o")]) == 1
    assert "delta" in capsys.readouterr().err


def test_shape_infeasible_exit_code(tmp_path):
    cfg = write_config(tmp_path / "run.json",
                       shape={"bounded_growth": 0.0})
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2


def test_iteration_limit_exit_code(tmp_path, monkeypatch):
    from hypodist import IterationLimitError
    from hypodist import cli as climod

    def boom(problem, **kw):
        raise IterationLimitError("simplex ran out of pivots")

    monkeypatch.setattr(climod, "estimate", boom)
    cfg = write_config(tmp_path / "run.json")
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 3


@pytest.mark.parametrize(
    "failure", ["status", "backend", "model-error", "no-bindings", "non-monotone"]
)
def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys, failure):
    # an LP status the estimator cannot use, a backend that gives up, a
    # model that HiGHS rejects, a SciPy without the HiGHS bindings, and a
    # solution that is not monotone all exit 4 with one line, not a traceback
    import sys

    import scipy.optimize._highspy._core as core

    from hypodist import lp

    real_solve = lp.solve

    def fake_solve(model, **kw):
        if failure == "status":
            return lp.LPSolution("unbounded", None, math.nan, 0)
        sol = real_solve(model, **kw)
        x = sol.x.copy()
        x[: x.size - 1] = np.linspace(1.0, 0.0, x.size - 1)  # node values
        return lp.LPSolution(sol.status, x, sol.objective, sol.iterations)

    if failure == "backend":
        class FailingHighs(core._Highs):
            def run(self):
                return core.HighsStatus.kError

        monkeypatch.setattr(core, "_Highs", FailingHighs)
    elif failure == "model-error":
        class RejectingHighs(core._Highs):
            def passModel(self, *args):
                return core.HighsStatus.kError

        monkeypatch.setattr(core, "_Highs", RejectingHighs)
    elif failure == "no-bindings":
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    else:
        monkeypatch.setattr(lp, "solve", fake_solve)
    cfg = write_config(tmp_path / "run.json")
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("solver failure: ") and "\n" not in err


def test_distance_identical_sources(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        G0={"kind": "uniform_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        rho_values=[0.5, 1.0],
        oracle_samples=5,
    )
    out = tmp_path / "out"
    assert main(["distance", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = read_json(out / "distance.json")
    assert doc["command"] == "distance"
    assert [r["rho"] for r in doc["per_rho"]] == [0.5, 1.0]
    for row in doc["per_rho"]:
        assert row["hat"] <= 1e-7
        assert row["oracle"] <= 1e-9
        assert row["eta_minus"] <= row["eta_plus"] + 1e-12
    assert doc["hypo_distance"]["value"] <= 1e-7
    hd = doc["hypo_distance"]
    assert hd["lower_bound"] <= hd["value"] <= hd["upper_bound"]


def test_distance_passes_config_tol_to_the_integral(tmp_path, monkeypatch):
    from hypodist import cli as climod

    real, seen = climod.hypo_dist_estimate, []

    def spy(F, G, **kw):
        seen.append(kw)
        return real(F, G, **kw)

    monkeypatch.setattr(climod, "hypo_dist_estimate", spy)
    cfg = write_config(tmp_path / "run.json", rho_values=[1.0],
                       oracle_samples=3, quad_points=4, tol=1e-4)
    assert main(["distance", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0
    assert seen == [{"quad_points": 4, "tol": 1e-4}]
    doc = read_json(tmp_path / "out" / "distance.json")
    assert doc["hypo_distance"]["evaluations"] >= 1
    assert doc["hypo_distance"]["points"] >= doc["hypo_distance"]["evaluations"]


def test_validate_subcommand(tmp_path):
    cfg = write_config(tmp_path / "run.json", rho_values=[0.5])
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = read_json(out / "validate.json")
    assert doc["total_sandwich_violations"] == 0
    assert doc["distribution_error_pct"]["F0"] == 0.0
    assert doc["distribution_error_pct"]["G0"] == 0.0


def test_dimension_scope_of_the_commands(tmp_path, capsys):
    # distances and their checks take m <= 3; estimation stays at m <= 2
    def box_config(name, dim, cells):
        return write_config(
            tmp_path / name, domain={"lower": [0.0] * dim, "upper": [3.0] * dim},
            grid={"cells_per_axis": cells}, rho_values=[1.0], oracle_samples=3,
            quad_points=4, refinement_factors=[1, 2],
            F0={"kind": "uniform_box", "lower": [0.0] * dim, "upper": [1.0] * dim},
            G0={"kind": "uniform_box", "lower": [2.0] * dim, "upper": [3.0] * dim})

    cube = box_config("cube.json", 3, 3)
    for command in ("distance", "validate"):
        out = tmp_path / command
        assert main([command, "--config", str(cube), "--out", str(out), "--quiet"]) == 0
    hd = read_json(tmp_path / "distance" / "distance.json")["hypo_distance"]
    assert 0.0 < hd["lower_bound"] <= hd["value"] <= hd["upper_bound"] <= 1.0
    assert read_json(tmp_path / "validate" / "validate.json")[
        "total_sandwich_violations"] == 0
    # a refused config leaves no output directory behind
    for command in ("estimate", "study"):
        out = tmp_path / f"{command}-out"
        assert main([command, "--config", str(cube), "--out", str(out),
                     "--quiet"]) == 1
        assert "estimation supports m in {1, 2}" in capsys.readouterr().err
        assert not os.path.exists(out)
    tesseract = box_config("tesseract.json", 4, 1)
    for command in ("distance", "validate"):
        out = tmp_path / f"{command}-4d"
        assert main([command, "--config", str(tesseract), "--out", str(out),
                     "--quiet"]) == 1
        assert "dimensions are 1, 2 and 3" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_study_subcommand(tmp_path):
    cfg = write_config(tmp_path / "run.json", delta=0.7,
                       grid={"cells_per_axis": 4},
                       refinement_factors=[1, 2])
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = read_json(out / "study.json")
    assert len(doc["levels"]) == 2
    assert len(doc["consecutive_distances"]) == 1
    assert doc["total_sandwich_violations"] == 0


def test_study_rejects_delta_ladder_and_bad_factors(tmp_path):
    cfg = write_config(tmp_path / "a.json", delta=[0.5, 0.7],
                       refinement_factors=[1, 2])
    assert main(["study", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    cfg = write_config(tmp_path / "b.json", delta=0.7,
                       refinement_factors=[2])
    assert main(["study", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    cfg = write_config(tmp_path / "c.json", delta=0.7,
                       refinement_factors=[2, 3])
    assert main(["study", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1


@pytest.mark.parametrize("key,overrides", [
    ("cells_per_axis", {"grid": {"cells_per_axis": [math.inf, 16]}}),
    ("cells_per_axis", {"grid": {"cells_per_axis": [math.nan, 16]}}),
    ("refinement_factors", {"refinement_factors": [1, math.inf]}),
])
def test_non_finite_integer_lists_are_config_errors(tmp_path, capsys, key, overrides):
    # json.load accepts Infinity and NaN; int() of either raises
    cfg = write_config(tmp_path / "run.json", **{"refinement_factors": [1, 2],
                                                 **overrides})
    assert main(["study", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command,key,overrides", [
    ("validate", "$.rho_values", {"rho_values": []}),
    ("distance", "$.rho_values", {"rho_values": []}),
    ("distance", "$.rho_values", {"rho_values": [0.5, math.inf]}),
    ("validate", "$.rho_values", {"rho_values": [math.nan]}),
    ("distance", "$.rho", {"rho": math.inf}),
    ("estimate", "$.rho", {"rho": math.inf}),
    ("estimate", "$.rho", {"rho": -1.0}),
    ("estimate", "$.tol", {"tol": 0.0}),
    ("distance", "$.tol", {"tol": 1.5}),
    ("validate", "$.tol", {"tol": math.nan}),
    ("estimate", "$.delta", {"delta": [1.0, -0.5]}),
    ("estimate", "$.delta", {"delta": math.nan}),
    ("estimate", "$.rho_values", {"rho_values": "x"}),
    ("estimate", "$.seed", {"seed": "not a seed"}),
    ("distance", "$.delta", {"delta": [1.0, -0.5]}),
    ("validate", "$.seed", {"seed": -1}),
    # two deltas whose files would share a name, which one would overwrite
    ("estimate", "$.delta", {"delta": [0.7, 0.7000004]}),
    ("distance", "$.delta", {"delta": [0.7, 0.7]}),
])
def test_bad_values_fail_up_front_naming_the_key(tmp_path, capsys, command, key,
                                                 overrides):
    # json.load accepts Infinity and NaN; such a value, an empty radius list,
    # a tol outside (0, 1), a negative delta anywhere in a ladder or two
    # deltas with one file suffix fails before any output directory is made,
    # in every command, whether or not the command reads the key
    cfg = write_config(tmp_path / "run.json", **overrides)
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"config {key}:" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command,key,overrides", [
    ("estimate", "$.F0.path", {"F0": {"kind": "samples_csv", "path": 3}}),
    ("distance", "$.G0.path", {"G0": {"kind": "grid_function", "path": ["f.csv"]}}),
    ("estimate", "$.out_dir", {"out_dir": 1}),
    ("validate", "$.out_dir", {"out_dir": {"dir": "o"}}),
])
def test_non_string_paths_are_config_errors(tmp_path, monkeypatch, capsys, command,
                                            key, overrides):
    # without --out, the config's out_dir decides where the output goes
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "run.json", rho_values=[1.0], quad_points=4,
                       oracle_samples=3, **overrides)
    assert main([command, "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"config {key}:" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_study_rejects_bad_quad_points_up_front(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", delta=0.7,
                       grid={"cells_per_axis": 2},
                       refinement_factors=[1, 2], quad_points=0)
    assert main(["study", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    assert "$.quad_points" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o" / "study.json")


def test_validate_rejects_bad_rect_budget(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", rect_budget="x")
    assert main(["validate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    assert "$.rect_budget" in capsys.readouterr().err


def test_generate_two_uniforms(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "two-uniforms", "--out", str(out),
                 "--quiet"]) == 0
    est = read_json(out / "two_uniforms_estimate.json")
    assert est["schema_version"] == 1
    assert est["delta"] == [1.0, 0.7, 0.4, 0.1, 1e-4]
    study = read_json(out / "two_uniforms_study.json")
    assert study["refinement_factors"] == [1, 2, 4]
    # the emitted config is directly runnable (shrunk grid for speed)
    est["grid"] = {"cells_per_axis": 5}
    est["delta"] = 0.7
    p = out / "small.json"
    write_json(p, est)
    assert main(["estimate", "--config", str(p), "--out",
                 str(out / "run"), "--quiet"]) == 0


def test_generate_uuv_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "uuv-synthetic", "--out", str(a), "--seed", "7",
                 "--quiet"]) == 0
    assert main(["generate", "uuv-synthetic", "--out", str(b), "--seed", "7",
                 "--quiet"]) == 0
    for name in ("uuv_target_samples.csv", "uuv_anchor_samples.csv",
                 "uuv_synthetic_estimate.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    cfg = read_json(a / "uuv_synthetic_estimate.json")
    assert cfg["delta"] == [0.9, 0.1, 0.01]
    assert cfg["F0"]["kind"] == "samples_csv"
    # relative sample paths resolve against the config directory
    header = (a / "uuv_target_samples.csv").read_text().splitlines()[0]
    assert header == "x1,x2"


def test_generate_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "badseed"
    assert main(["generate", "uuv-synthetic", "--seed", "-3", "--out", str(out),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_unknown_scenario(tmp_path, capsys):
    assert main(["generate", "no-such-thing", "--out",
                 str(tmp_path / "o")]) == 1
    # rejected before the output directory is made
    assert not (tmp_path / "o").exists()


# exact text of every table file for a fixed solution: shortest round-trip
# floats, C-order rows, and in 2-D a blank line after each row of axis 0
PINNED_TABLES = {
    1: {
        "solution.csv": "x1,value\n"
                        "0.0,0.0\n"
                        "1.5,0.3333333333333333\n"
                        "3.0,1.0\n",
        "surface.dat": "0.0 0.0\n"
                       "1.5 0.3333333333333333\n"
                       "3.0 1.0\n",
        "cell_mass.dat": "0.75 0.3333333333333333\n"
                         "2.25 0.6666666666666667\n",
    },
    2: {
        "solution.csv": "x1,x2,value\n"
                        "0.0,0.0,0.0\n"
                        "0.0,1.0,0.0\n"
                        "1.0,0.0,0.0\n"
                        "1.0,1.0,0.3333333333333333\n"
                        "2.0,0.0,0.0\n"
                        "2.0,1.0,1.0\n",
        "surface.dat": "0.0 0.0 0.0\n"
                       "0.0 1.0 0.0\n"
                       "\n"
                       "1.0 0.0 0.0\n"
                       "1.0 1.0 0.3333333333333333\n"
                       "\n"
                       "2.0 0.0 0.0\n"
                       "2.0 1.0 1.0\n"
                       "\n",
        "cell_mass.dat": "0.5 0.5 0.3333333333333333\n"
                         "\n"
                         "1.5 0.5 0.6666666666666667\n"
                         "\n",
    },
}


@pytest.mark.parametrize("dim", [1, 2])
def test_table_files_pinned_text(tmp_path, monkeypatch, dim):
    from hypodist import EstimateResult, GridFunction
    from hypodist import cli as climod

    if dim == 1:
        values = [0.0, 1.0 / 3.0, 1.0]
        box = {"lower": [0.0], "upper": [3.0]}
        cells, F0, G0 = 2, ([0.0], [1.0]), ([2.0], [3.0])
    else:
        values = [[0.0, 0.0], [0.0, 1.0 / 3.0], [0.0, 1.0]]
        box = {"lower": [0.0, 0.0], "upper": [2.0, 1.0]}
        cells, F0, G0 = [2, 1], ([0.0, 0.0], [1.0, 1.0]), ([1.0, 0.0], [2.0, 1.0])

    def fixed(problem, **kw):
        solution = GridFunction(problem.grid, 1, np.array(values), monotone=True)
        return EstimateResult(solution, 0.5, 0.0, [(1.0, 0.0, 0)], 0.0)

    monkeypatch.setattr(climod, "estimate", fixed)
    cfg = write_config(
        tmp_path / "run.json", domain=box, grid={"cells_per_axis": cells},
        F0={"kind": "uniform_box", "lower": F0[0], "upper": F0[1]},
        G0={"kind": "uniform_box", "lower": G0[0], "upper": G0[1]},
    )
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    for name, text in PINNED_TABLES[dim].items():
        assert (out / name).read_text() == text, name


def test_generated_samples_csv_pinned_text(tmp_path):
    assert main(["generate", "uuv-synthetic", "--out", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "uuv_target_samples.csv").read_text().splitlines()
    assert lines[:2] == ["x1,x2", "2.175286399814001,1.6355420815513209"]


def test_config_with_extra_family_keys_is_shared(tmp_path):
    # a single config drives several subcommands: estimate ignores
    # rho_values, distance ignores delta
    cfg = write_config(tmp_path / "run.json", rho_values=[0.5],
                       oracle_samples=5)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "e"), "--quiet"]) == 0
    assert main(["distance", "--config", str(cfg), "--out",
                 str(tmp_path / "d"), "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["estimate"],                                    # missing --config
    ["estimate", "--config", "x.json", "--bogus"],   # unknown flag
    ["estimate", "--config", "x.json", "--seed", "3"],  # --seed is generate's
    ["distance", "--config", "x.json", "--seed", "3"],
    ["no-such-command"],
    [],
])
def test_usage_error_exits_1(argv, capsys):
    # argparse's own code 2 would read as shape-infeasible
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert main(["estimate", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out
    assert main(["generate", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_inline_samples_match_samples_csv(tmp_path):
    from hypodist import cli as climod

    # on the boundary, at nodes, and strictly inside cells
    pts = [[0.0, 0.0], [0.5, 1.5], [3.0, 3.0], [1.2, 0.7], [2.9, 0.0],
           [0.0, 2.25], [1.2, 0.7], [3.0, 0.1]]
    (tmp_path / "pts.csv").write_text(
        "x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in pts)
    )
    inline = {"kind": "samples", "points": pts}
    csv = {"kind": "samples_csv", "path": "pts.csv"}
    for name, src in (("inline", inline), ("csv", csv)):
        cfg = write_config(tmp_path / f"{name}.json", F0=src, rho_values=[0.5],
                           oracle_samples=3, quad_points=4)
        assert main(["distance", "--config", str(cfg), "--out",
                     str(tmp_path / name), "--quiet"]) == 0
    grid = build_grid(Domain([0.0, 0.0], [3.0, 3.0]), 7)  # the config's grid
    F_inline = climod._resolve_source(inline, "$.F0", grid, str(tmp_path))
    F_csv = climod._resolve_source(csv, "$.F0", grid, str(tmp_path))
    assert np.array_equal(F_inline.values, F_csv.values)
    assert F_inline.values[-1, -1] == 1.0 and F_inline.values[0, 0] == 1 / 8
    assert filecmp.cmp(tmp_path / "inline" / "distance.json",
                       tmp_path / "csv" / "distance.json", shallow=False)


@pytest.mark.parametrize("source", [
    {"kind": "samples_csv", "path": "pts.csv"},
    {"kind": "samples", "points": [[0.5, 0.5], [math.nan, 1.0], [2.0, 2.0]]},
    {"kind": "dirac", "point": [math.nan, 0.0]},
    {"kind": "samples_csv", "path": "out.csv"},
    {"kind": "samples", "points": [[0.5, 0.5], [3.5, 1.0]]},
    {"kind": "samples", "points": [[0.5, 0.5], [-0.5, 1.0]]},
    {"kind": "mixture", "weights": [0.5, 0.5], "components": [
        {"kind": "dirac", "point": [1.0, 1.0]},
        {"kind": "samples", "points": [[0.5, 3.5]]},
    ]},
])
def test_nan_coordinates_are_config_errors(tmp_path, capsys, source):
    # a NaN sample counts in N but lies below no node; a NaN point mass
    # gives a CDF that is zero everywhere.  A sample outside the domain is
    # an error too, wherever it comes from: a CSV file, an inline list or a
    # mixture component
    (tmp_path / "pts.csv").write_text("x1,x2\n0.5,0.5\nnan,1.0\n2.0,2.0\n")
    (tmp_path / "out.csv").write_text("x1,x2\n0.5,0.5\n3.5,1.0\n")
    cfg = write_config(tmp_path / "run.json", F0=source)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "$.F0" in err and "Traceback" not in err
    if source["kind"] == "mixture":  # the component at fault is named
        assert "$.F0.components[1]" in err


@pytest.mark.parametrize(
    "breakage",
    ["no order", "no grid", "list", "scalar lower", "comma-less row", "swapped rows"],
)
def test_malformed_sidecar_is_a_config_error(tmp_path, capsys, breakage):
    grid = build_grid(Domain([0.0, 0.0], [3.0, 3.0]), 7)
    path = str(tmp_path / "f.csv")
    save_grid_function(realize(UniformBox([0.0, 0.0], [1.0, 1.0]), grid), path)
    meta = read_json(path + ".meta.json")
    if breakage == "no order":
        del meta["order"]
    elif breakage == "no grid":
        del meta["grid"]
    elif breakage == "list":
        meta = [1, 2]
    elif breakage == "scalar lower":
        meta["grid"]["lower"] = 0
    elif breakage == "comma-less row":
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", "")
        Path(path).write_text("".join(lines))
    else:  # the nodes (0, 0) and (0, 0.5) both hold 0: the values stay as they were
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        Path(path).write_text("".join(lines))
    write_json(path + ".meta.json", meta)
    cfg = write_config(tmp_path / "run.json",
                       F0={"kind": "grid_function", "path": "f.csv"})
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "$.F0: cannot load grid function" in err and "Traceback" not in err
    if breakage == "comma-less row":
        assert "line 4" in err
    if breakage == "swapped rows":
        assert "line 2: coordinates [0.0, 0.5]" in err


@pytest.mark.parametrize("row", ["0.5", "0.5,0.5,0.5", "0.5,x"],
                         ids=["short", "long", "not a number"])
def test_malformed_samples_row_is_a_config_error(tmp_path, capsys, row):
    (tmp_path / "pts.csv").write_text(f"x1,x2\n0.5,0.5\n{row}\n2.0,2.0\n")
    cfg = write_config(tmp_path / "run.json",
                       F0={"kind": "samples_csv", "path": "pts.csv"})
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "pts.csv: line 3" in err and "Traceback" not in err
