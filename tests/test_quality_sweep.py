"""The case lists of tools/quality_sweep.py, checked without running them."""

import importlib.util
import os

import pytest

from sdpcolor.testkit import cycle_graph, planted_k_colorable
from sdpcolor.vecsdp import InfeasibleError, solve_indset_sdp, solve_vector_coloring
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


def test_phase_counter_counts_the_polish_and_its_fallbacks(sweep):
    vecsdp = sweep.vecsdp
    real = (vecsdp._coloring_descent, vecsdp._rank_reduce, vecsdp._polyak_polish)
    # Planted (40, 7, 0.5, 0) at alpha 7: the Polyak polish runs its 100
    # iterations short of t + eps/2, and the Adam polish takes over.
    g = planted_k_colorable(40, 7, 0.5, seed=0).graph
    with sweep._PhaseCounter() as count:
        solve_vector_coloring(g, 7.0, seed=0)
    assert count.counts["polish"] == vecsdp._POLISH_ITERS
    assert count.fallbacks == 1
    g = planted_k_colorable(60, 4, 0.3, seed=1).graph
    with sweep._PhaseCounter() as count:
        solve_vector_coloring(g, 4.0, seed=1)
    assert 0 < count.counts["polish"] < vecsdp._POLISH_ITERS
    assert count.fallbacks == 0 and count.counts["lowrank"] > 0
    # Every iteration the solver reports is counted in some phase.
    with sweep._PhaseCounter() as count, pytest.raises(InfeasibleError) as err:
        solve_vector_coloring(cycle_graph(5), 2.23, budget=400, seed=0,
                              restarts=2)
    assert count.counts["polish"] > 0
    assert sum(count.counts.values()) == err.value.iterations
    assert (vecsdp._coloring_descent, vecsdp._rank_reduce,
            vecsdp._polyak_polish) == real
