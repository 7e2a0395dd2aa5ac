"""The case lists of tools/quality_sweep.py, checked without running them."""

import importlib.util
import os

import pytest

from sdpcolor.testkit import planted_k_colorable
from sdpcolor.vecsdp import solve_indset_sdp
from test_combined import STALL_CASES

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "quality_sweep.py")


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("quality_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quality_sweep_case_lists(sweep):
    assert len(sweep.grid_cases()) == 20
    cases = sweep.sweep_cases()
    assert len(cases) == 361
    assert [sum(c[0] == part for c in cases)
            for part in ("kms", "combined", "stall")] == [300, 54, len(STALL_CASES)]
    assert [c[1:] for c in cases if c[0] == "stall"] == STALL_CASES
    k3 = sweep.k3_cases()
    assert len(k3) == 60
    assert k3[:6] == [(40, 0.3, s) for s in range(5)] + [(60, 0.3, 0)]
    assert [p for _, p, _ in k3] == [0.3] * 20 + [0.5] * 20 + [0.7] * 20
    assert len(sweep.sparse_cases()) == 54
    indset = sweep.indset_cases()
    assert len(indset) == 100
    assert [n for n, _ in indset[:4]] == [100, 150, 100, 150]
    assert [s for _, s in indset] == list(range(960000, 960100))


def test_solve_counter_sums_iterations_and_restores(sweep):
    real = sweep.indset.solve_indset_sdp
    g = planted_k_colorable(30, 3, 0.3, seed=0).graph
    with sweep._SolveCounter() as solves:
        sweep.ak_independent_set(g, 3.0, seed=0)
    assert solves.iterations == solve_indset_sdp(g, seed=0).iterations > 0
    assert sweep.indset.solve_indset_sdp is real
