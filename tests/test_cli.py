from __future__ import annotations

import filecmp
import json
import os

import numpy as np
import pytest

from hypodist import load_grid_function
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


def test_estimate_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.load(open(out / "result.json"))
    assert doc["schema_version"] == 1
    assert doc["command"] == "estimate"
    (run,) = doc["runs"]
    assert run["delta"] == 0.7
    assert 0.0 <= run["eta"] <= 1.0
    assert run["slack"] <= 1e-6
    assert len(run["expected_value"]) == 2
    assert run["history"][0]["eta"] == 1.0
    # the saved solution round-trips bit-exact
    sol = load_grid_function(str(out / run["files"]["solution"]))
    assert sol.monotone and sol.order == 1
    assert np.all(np.diff(sol.values, axis=0) >= -1e-12)
    # plot files parse as float columns
    surf = (out / run["files"]["surface"]).read_text().strip().splitlines()
    rows = [r for r in surf if r and not r.startswith("#")]
    assert all(len(r.split()) == 3 for r in rows)
    mass = (out / run["files"]["cell_mass"]).read_text().strip().splitlines()
    assert all(len(r.split()) == 3 for r in mass if r and not r.startswith("#"))


def test_estimate_delta_ladder_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "run.json", delta=[1.0, 0.4])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out2),
                 "--quiet"]) == 0
    d1 = json.load(open(out1 / "result.json"))
    d2 = json.load(open(out2 / "result.json"))
    assert [r["delta"] for r in d1["runs"]] == [1.0, 0.4]
    # eta responds monotonically within the ladder
    assert d1["runs"][0]["eta"] <= d1["runs"][1]["eta"] + 1e-9
    # identical modulo timing fields
    for d in (d1, d2):
        d.pop("timings")
        for r in d["runs"]:
            r.pop("wall_time")
    assert d1 == d2
    assert filecmp.cmp(out1 / "solution_delta_1.csv",
                       out2 / "solution_delta_1.csv", shallow=False)


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": 1,\n  "grid": }\n')
    assert main(["estimate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", detla=0.5)  # typo
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 1
    assert "detla" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    p = tmp_path / "run.json"
    cfg = json.loads(open(write_config(p)).read())
    del cfg["delta"]
    json.dump(cfg, open(p, "w"))
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
    doc = json.load(open(out / "distance.json"))
    assert doc["command"] == "distance"
    assert [r["rho"] for r in doc["per_rho"]] == [0.5, 1.0]
    for row in doc["per_rho"]:
        assert row["hat"] <= 1e-7
        assert row["oracle"] <= 1e-9
        assert row["eta_minus"] <= row["eta_plus"] + 1e-12
    assert doc["hypo_distance"]["value"] <= 1e-7
    hd = doc["hypo_distance"]
    assert hd["lower_bound"] <= hd["value"] <= hd["upper_bound"]


def test_validate_subcommand(tmp_path):
    cfg = write_config(tmp_path / "run.json", rho_values=[0.5])
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.load(open(out / "validate.json"))
    assert doc["total_sandwich_violations"] == 0
    assert doc["distribution_error_pct"]["F0"] == 0.0
    assert doc["distribution_error_pct"]["G0"] == 0.0


def test_study_subcommand(tmp_path):
    cfg = write_config(tmp_path / "run.json", delta=0.7,
                       grid={"cells_per_axis": 4},
                       refinement_factors=[1, 2])
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.load(open(out / "study.json"))
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
    est = json.load(open(out / "two_uniforms_estimate.json"))
    assert est["schema_version"] == 1
    assert est["delta"] == [1.0, 0.7, 0.4, 0.1, 1e-4]
    study = json.load(open(out / "two_uniforms_study.json"))
    assert study["refinement_factors"] == [1, 2, 4]
    # the emitted config is directly runnable (shrunk grid for speed)
    est["grid"] = {"cells_per_axis": 5}
    est["delta"] = 0.7
    p = out / "small.json"
    json.dump(est, open(p, "w"))
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
    cfg = json.load(open(a / "uuv_synthetic_estimate.json"))
    assert cfg["delta"] == [0.9, 0.1, 0.01]
    assert cfg["F0"]["kind"] == "samples_csv"
    # relative sample paths resolve against the config directory
    header = open(a / "uuv_target_samples.csv").readline().strip()
    assert header == "x1,x2"


def test_generate_unknown_scenario(tmp_path, capsys):
    assert main(["generate", "no-such-thing", "--out",
                 str(tmp_path / "o")]) == 1


def test_config_with_extra_family_keys_is_shared(tmp_path):
    # a single config drives several subcommands: estimate ignores
    # rho_values, distance ignores delta
    cfg = write_config(tmp_path / "run.json", rho_values=[0.5],
                       oracle_samples=5)
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "e"), "--quiet"]) == 0
    assert main(["distance", "--config", str(cfg), "--out",
                 str(tmp_path / "d"), "--quiet"]) == 0
