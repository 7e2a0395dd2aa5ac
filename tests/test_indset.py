import json

import numpy as np
import pytest

import sdpcolor.indset as indset
from sdpcolor.combined import CombinedConfig, combined_color
from sdpcolor.graph import Graph, verify_independent_set
from sdpcolor.indset import (
    ak_independent_set,
    f_exponent,
    greedy_independent_set,
    l2_vector_indset,
)
from sdpcolor.rounding import kms_independent_set
from sdpcolor.testkit import (
    brute_force_mis,
    complete_graph,
    cycle_graph,
    path_graph,
    planted_k_colorable,
    random_graph,
    simplex_vectors,
)
from sdpcolor.vecsdp import (
    PromiseNotMetError,
    VectorColoring,
    solve_indset_sdp,
    solve_vector_coloring,
)


def test_f_integer_values():
    assert f_exponent(2.0) == 1.0
    assert f_exponent(3.0) == pytest.approx(0.75, abs=1e-15)
    assert f_exponent(4.0) == pytest.approx(0.6, abs=1e-15)
    for k in range(2, 11):
        assert f_exponent(float(k)) == pytest.approx(3.0 / (k + 1), abs=1e-15)


def test_f_fractional_values():
    # On [2, 3] the closed form reduces to alpha / (2 (alpha - 1)).
    assert f_exponent(2.5) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert f_exponent(3.5) == pytest.approx(35.0 / 53.0, abs=1e-14)
    assert f_exponent(2.05) == pytest.approx(0.97619, abs=5e-6)
    assert f_exponent(1.3) == 1.0


def test_f_functional_equation_spot_checks():
    for alpha in (2.3, 3.5, 4.25, 7.8):
        lhs = f_exponent(alpha)
        rhs = 1.0 / (1.0 + (1.0 - 2.0 / alpha) / f_exponent(alpha - 1.0))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_f_validation():
    with pytest.raises(ValueError):
        f_exponent(0.9)


def test_greedy_independent_set():
    for seed in range(8):
        g = random_graph(20, 0.3, seed=seed)
        s = greedy_independent_set(g)
        assert verify_independent_set(g, s)
        assert len(s) <= len(brute_force_mis(g))
    assert greedy_independent_set(Graph(4)) == frozenset(range(4))


def test_l2_base_case_edgeless():
    g = Graph(5)
    vc = VectorColoring(1.5, simplex_vectors(2)[:1].repeat(5, axis=0), 1e-9)
    assert l2_vector_indset(g, vc) == frozenset(range(5))


def test_l2_below_two_with_a_leftover_edge_is_greedy():
    # A vector coloring below 2 admits no edge; one left by numerics falls
    # to the greedy set.
    g = path_graph(3)
    vc = VectorColoring(1.5, np.tile([1.0, 0.0], (3, 1)), 1e-9)
    assert l2_vector_indset(g, vc) == greedy_independent_set(g) == {0, 2}


def test_l2_k4_simplex_singleton():
    g = complete_graph(4)
    vc = VectorColoring(4.0, simplex_vectors(4), 1e-9)
    out = l2_vector_indset(g, vc, trials=8, seed=0)
    assert len(out) == 1
    assert verify_independent_set(g, out)


def test_l2_dominates_single_branch():
    # The returned set is the max of the two branches, so it is at least as
    # large as threshold rounding alone with the same seeds.
    inst = planted_k_colorable(40, 4, 0.4, seed=6)
    g = inst.graph
    vc = VectorColoring(4.0, simplex_vectors(4)[inst.class_of()], 1e-9)
    assert vc.edge_residual(g) <= 1e-9
    out = l2_vector_indset(g, vc, trials=16, seed=3)
    branch_a = kms_independent_set(g, vc, trials=max(8, 16 // 4), seed=3)
    assert len(out) >= len(branch_a)
    assert verify_independent_set(g, out)


def test_ak_edgeless_alpha_one():
    assert ak_independent_set(Graph(6), 1.0) == frozenset(range(6))


def test_ak_planted_recovers_class():
    inst = planted_k_colorable(120, 3, 0.35, seed=3)
    out = ak_independent_set(inst.graph, 3.0, trials=32, seed=1)
    assert verify_independent_set(inst.graph, out)
    # Sanity floor n^{3/4} / 4 with the planted class (size 40) available.
    assert len(out) >= 120 ** 0.75 / 4.0


def test_ak_planted_500_meets_size_floor():
    inst = planted_k_colorable(500, 3, 0.4, seed=2)
    out = ak_independent_set(inst.graph, 3.0, trials=32, seed=1)
    assert verify_independent_set(inst.graph, out)
    assert len(out) >= 500 ** 0.75 / 4.0


@pytest.mark.parametrize("n, seed", [(100 if i % 2 == 0 else 150, 960000 + i)
                                     for i in range(6)]
                         + [(150, 960051), (150, 960055), (150, 960087)])
def test_ak_bench_shaped_returns_the_planted_class(n, seed):
    # The indset-a3 workload's instances: planted k=3, p=0.3, where the
    # extraction finds a largest planted class (34 or 50 vertices). On the
    # last three the classes tie and a certified point that mixes them gave
    # 46, 37 and 41 vertices when restarts started on v0's side.
    inst = planted_k_colorable(n, 3, 0.3, seed=seed)
    out = ak_independent_set(inst.graph, 3.0, seed=seed)
    assert verify_independent_set(inst.graph, out)
    assert len(out) == max(len(c) for c in inst.classes) == -(-n // 3)
    # The count is deterministic; rows started on v0's side took up to 2600.
    assert solve_indset_sdp(inst.graph, seed=seed).iterations <= 1000


def test_ak_best_effort_without_promise():
    # Dense random graphs lack the promised independent set; the extractor
    # must stay verified and within the true maximum.
    for seed in range(6):
        g = random_graph(18, 0.45, seed=seed)
        out = ak_independent_set(g, 3.0, trials=8, seed=seed)
        assert verify_independent_set(g, out)
        assert len(out) <= len(brute_force_mis(g))


def test_ak_refused_promise_returns_the_greedy_set(monkeypatch):
    # K10 holds no independent set of 10 / 2 vertices: the aligned
    # extraction refuses, and the extractor returns the greedy set.
    refused = []
    real = indset.well_aligned_subset

    def recorded(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except PromiseNotMetError:
            refused.append(True)
            raise

    monkeypatch.setattr(indset, "well_aligned_subset", recorded)
    g = complete_graph(10)
    assert ak_independent_set(g, 2.0, seed=0) == greedy_independent_set(g) == {0}
    assert refused == [True]


def test_ak_below_three_vertices_is_greedy(monkeypatch):
    # K2 is answered by the greedy set, with no relaxation solved.
    def refuse(*args, **kwargs):
        raise AssertionError("solved the relaxation of K2")

    monkeypatch.setattr(indset, "solve_indset_sdp", refuse)
    assert ak_independent_set(complete_graph(2), 2.0) == frozenset({0})


def test_ak_validation():
    with pytest.raises(ValueError):
        ak_independent_set(Graph(3), 0.5)


@pytest.mark.parametrize("trials", [0, -5])
def test_ak_refuses_trials_below_one(monkeypatch, trials):
    # Refused at entry, before the solve: the recursion's floor of 8
    # trials per level would otherwise hide it.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking trials")

    monkeypatch.setattr(indset, "solve_indset_sdp", no_solve)
    g = planted_k_colorable(100, 3, 0.3, seed=1).graph
    with pytest.raises(ValueError, match="need at least one trial"):
        ak_independent_set(g, 3.0, trials=trials)


def test_ak_rejects_nan_alpha():
    with pytest.raises(ValueError):
        ak_independent_set(Graph(3), float("nan"))


def test_ak_rejects_infinite_alpha():
    # Refused before the solve, as well_aligned_subset would refuse it after.
    with pytest.raises(ValueError, match="alpha must be finite"):
        ak_independent_set(Graph(3), float("inf"))


def test_public_results_hold_python_ints(monkeypatch):
    # The library passes vertex ids as int64 arrays; every public set and
    # colouring turns them into Python ints, which json writes and
    # perfbench's checker (``isinstance(v, int)``) accepts.
    reached = []
    real = indset.neighborhood_reduce

    def logged(*args, **kwargs):
        reached.append("neighborhood_reduce")
        return real(*args, **kwargs)

    monkeypatch.setattr(indset, "neighborhood_reduce", logged)
    g = planted_k_colorable(40, 3, 0.3, seed=0).graph
    vc = solve_vector_coloring(g, 3.0, seed=0)
    # C5 is vector 2.24-colourable; at alpha 2.5 < 3, l2 reduces to the
    # neighbourhood, and the recursion at alpha 1.5 returns it whole.
    c5 = cycle_graph(5)
    vc5 = solve_vector_coloring(c5, 2.5, seed=0)
    sets = [ak_independent_set(g, 3.0, seed=0)]
    sets.append(l2_vector_indset(g, vc, trials=16))
    assert "neighborhood_reduce" in reached
    reached.clear()
    sets.append(l2_vector_indset(c5, vc5, trials=16))
    assert reached == ["neighborhood_reduce"]
    sets += [greedy_independent_set(g), kms_independent_set(g, vc, trials=16)]
    coloring = combined_color(planted_k_colorable(60, 4, 0.3, seed=1).graph, 4,
                              CombinedConfig(trials=16)).coloring
    for values in sets + [coloring.assignment]:
        assert values and all(type(v) is int for v in values)
        json.dumps(sorted(values))
