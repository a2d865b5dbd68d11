"""The output checks reject planted wrong outputs and pass untouched ones.

    python3 -m pytest bench/test_checks.py

Each fixture runs one workload's CLI call once (about 15 s in all), then
the tests alter copies of its outputs in memory.
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from hypodist import cli  # noqa: E402


@pytest.fixture(scope="module")
def two_uniforms(tmp_path_factory):
    inputs = workloads.prepare(
        "estimate-two-uniforms", workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("tu"))
    )
    assert cli.main(inputs.argv) == 0
    report, solutions = checks.load_estimate(inputs)
    return inputs, report, solutions


@pytest.fixture(scope="module")
def distance(tmp_path_factory):
    inputs = workloads.prepare(
        "distance-uuv", workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("dist"))
    )
    assert cli.main(inputs.argv) == 0
    return inputs, checks.load_distance(inputs)


def with_eta(report: dict, delta: float, shift: float) -> dict:
    planted = copy.deepcopy(report)
    for run in planted["runs"]:
        if run["delta"] == delta:
            run["eta"] += shift
    return planted


def test_untouched_outputs_pass(two_uniforms, distance):
    assert checks.check_estimate(*two_uniforms) == []
    assert checks.check_distance(*distance) == []


def test_decreasing_node_is_rejected(two_uniforms):
    inputs, report, solutions = two_uniforms
    V = solutions[0.7].copy()
    V[15, 15] = V[14, 15] - 0.01
    problems = checks.check_estimate(inputs, report, {**solutions, 0.7: V})
    assert any("delta=0.7: decreases by" in p for p in problems), problems


def test_eta_too_high_is_not_minimal(two_uniforms):
    inputs, report, solutions = two_uniforms
    problems = checks.check_estimate(inputs, with_eta(report, 0.4, 0.01), solutions)
    assert any("delta=0.4" in p and "is not minimal" in p for p in problems), problems
    assert any("paper value" in p for p in problems), problems


def test_eta_too_low_fails_the_certificate(two_uniforms):
    inputs, report, solutions = two_uniforms
    problems = checks.check_estimate(inputs, with_eta(report, 0.4, -0.01), solutions)
    assert any("delta=0.4: eta_plus(F, F0)" in p for p in problems), problems
    assert any("paper value" in p for p in problems), problems


def test_hat_above_eta_plus_is_rejected(distance):
    inputs, report = distance
    planted = copy.deepcopy(report)
    row = planted["per_rho"][1]
    row["hat"] = row["eta_plus"] + 0.01
    problems = checks.check_distance(inputs, planted)
    assert any(f"rho={row['rho']:g}: hat" in p and "> eta_plus" in p
               for p in problems), problems
