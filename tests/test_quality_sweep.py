"""tools/quality_sweep.py: its case lists, checked without running them,
and the solver tallies it sums."""

import importlib.util
import os

import pytest

from sdpcolor import combined, indset, rounding, vecsdp
from sdpcolor.graph import Graph
from sdpcolor.testkit import cycle_graph, planted_k_colorable
from sdpcolor.vecsdp import (
    EPS,
    InfeasibleError,
    solve_indset_sdp,
    solve_vector_coloring,
)
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
    # The tally wraps both public solvers in every sdpcolor module that
    # bound them, sums what each solve reports, and puts them back.
    bindings = [(vecsdp, "solve_vector_coloring", solve_vector_coloring),
                (vecsdp, "solve_indset_sdp", solve_indset_sdp),
                (rounding, "solve_vector_coloring", solve_vector_coloring),
                (combined, "solve_vector_coloring", solve_vector_coloring),
                (indset, "solve_indset_sdp", solve_indset_sdp)]
    g = planted_k_colorable(30, 3, 0.3, seed=0).graph
    with sweep._Tally() as tally:
        assert not any(getattr(module, name) is real
                       for module, name, real in bindings)
        sweep.ak_independent_set(g, 3.0, seed=0)
    assert tally.iterations == solve_indset_sdp(g, seed=0).iterations > 0
    assert not any(tally.counts.values())
    g = planted_k_colorable(40, 4, 0.3, seed=1).graph
    with sweep._Tally() as tally:
        sweep.kms_color(g, 4, seed=1, trials=8)
    assert tally.counts == solve_vector_coloring(g, 4.0, seed=1).counts
    assert tally.iterations == 0 and tally.counts["wide"] > 0
    # A failed solve reports through its error.
    with sweep._Tally() as tally, pytest.raises(InfeasibleError) as err:
        vecsdp.solve_vector_coloring(cycle_graph(5), 2.23, budget=400,
                                     seed=0, restarts=2)
    assert tally.counts == err.value.counts
    assert all(getattr(module, name) is real
               for module, name, real in bindings)


def test_phase_counter_counts_the_polish_and_its_fallbacks():
    # The solver's own tally, which the sweep sums. Planted (40, 7, 0.5, 0)
    # at alpha 7: the Polyak polish runs its 100 iterations short of
    # t + eps/2, and the Adam polish takes over.
    g = planted_k_colorable(40, 7, 0.5, seed=0).graph
    counts = solve_vector_coloring(g, 7.0, seed=0).counts
    assert counts["polish"] == vecsdp._POLISH_ITERS
    assert counts["fallbacks"] == 1
    g = planted_k_colorable(60, 4, 0.3, seed=1).graph
    counts = solve_vector_coloring(g, 4.0, seed=1).counts
    assert 0 < counts["polish"] < vecsdp._POLISH_ITERS
    assert counts["fallbacks"] == 0 and counts["lowrank"] > 0
    # Every iteration the solver reports is counted in some phase.
    with pytest.raises(InfeasibleError) as err:
        solve_vector_coloring(cycle_graph(5), 2.23, budget=400, seed=0,
                              restarts=2)
    counts = err.value.counts
    assert counts["polish"] > 0
    assert sum(counts[phase] for phase in vecsdp.PHASES) == err.value.iterations
    assert err.value.iterations == 994
    # An edgeless graph reports zeros; rows no solve returned carry None.
    edgeless = solve_vector_coloring(Graph(3), 3.0)
    assert edgeless.counts == dict.fromkeys(vecsdp.PHASES + ("fallbacks",), 0)
    assert vecsdp.VectorColoring(3.0, edgeless.vectors, EPS).counts is None


def test_sweep_reads_no_solver_internals():
    # The sweep reads the solvers' reports; it patches no private phase.
    with open(TOOL, encoding="utf-8") as fh:
        source = fh.read()
    for name in ("_coloring_descent", "_rank_reduce", "_polyak_polish"):
        assert name not in source
