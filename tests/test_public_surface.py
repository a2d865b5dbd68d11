"""The package's public names, and the module attributes that the benchmark's
tracer (``bench/spans.py``) replaces with timing wrappers: a cleanup that
drops or renames one of them breaks traced benchmark runs."""

from __future__ import annotations

import pytest

import hypodist
from hypodist import cli, estimator, functions, lp, metrics

TRACED = [
    (cli, "main"),
    (cli, "estimate"),
    (cli, "hypo_dist_estimate"),
    (cli, "hat_dl_rho"),
    (cli, "eta_minus"),
    (cli, "eta_plus"),
    (cli, "dl_rho_oracle"),
    (cli, "save_grid_function"),
    (estimator, "assemble_lp"),
    (lp, "solve"),
    (functions, "locate_batch"),
    (functions.GridFunction, "eval"),
    (metrics, "locate_batch"),
    (lp.LPModel, "rows"),
]


def test_all_names_resolve():
    missing = [name for name in hypodist.__all__ if not hasattr(hypodist, name)]
    assert missing == []


def test_sample_set_is_empirical_samples():
    assert hypodist.SampleSet is hypodist.EmpiricalSamples
    assert functions.SampleSet is functions.EmpiricalSamples


@pytest.mark.parametrize("owner, attr", TRACED,
                         ids=[f"{o.__name__}.{a}" for o, a in TRACED])
def test_traced_attribute_exists(owner, attr):
    assert callable(getattr(owner, attr, None))
