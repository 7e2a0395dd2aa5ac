import math

import numpy as np
import pytest

from sdpcolor._rng import stream
import sdpcolor.rounding as rounding
from sdpcolor.graph import Coloring, Graph, verify_coloring, verify_independent_set
from sdpcolor.indset import l2_vector_indset
from sdpcolor.progress import NotKColorableError
from sdpcolor.rounding import (
    kms_color,
    kms_independent_set,
    kms_threshold,
    round_once,
)
from sdpcolor.testkit import (
    classic_threshold,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    paired_threshold_trials,
    path_graph,
    petersen_graph,
    planted_k_colorable,
    random_graph,
)
from sdpcolor.vecsdp import VectorColoring, solve_vector_coloring

PLANAR_120 = np.array([
    [1.0, 0.0],
    [-0.5, math.sqrt(3) / 2],
    [-0.5, -math.sqrt(3) / 2],
])


def _rows_on_e0(n, norm):
    """n equal rows norm * e_0 in two dimensions. At threshold c they select
    every vertex exactly when r_0 >= c / norm, and none when norm is 0."""
    vecs = np.zeros((n, 2))
    vecs[:, 0] = norm
    return vecs


@pytest.mark.parametrize("rows", [5, 2])
@pytest.mark.parametrize("rounder", [
    lambda g, vc: round_once(vc, g, np.array([10.0, 0.0]), 0.5),
    lambda g, vc: kms_independent_set(g, vc, trials=8),
    lambda g, vc: l2_vector_indset(g, vc, trials=8),
], ids=["round_once", "kms_independent_set", "l2_vector_indset"])
def test_rounding_refuses_rows_that_do_not_match_the_graph(rounder, rows):
    # With 5 rows on a 3-vertex path every draw that selects anything used
    # to return {0, 2, 3, 4}, two vertices that do not exist; with 2 rows
    # it raised a bare IndexError.
    g = Graph(3, [(0, 1), (1, 2)])
    vc = VectorColoring(3.0, _rows_on_e0(rows, 1.0), 0.0)
    with pytest.raises(ValueError, match=f"{rows} rows for 3 vertices"):
        rounder(g, vc)


def test_threshold_values():
    # Frozen high-precision evaluations of the closed form.
    assert kms_threshold(3.0, math.e ** 6) == pytest.approx(
        1.844653583627736, abs=1e-12)
    assert kms_threshold(4.0, math.e ** 4) == pytest.approx(
        1.818475410732863, abs=1e-12)


def test_threshold_alpha3_specialization():
    # sqrt((1-2/3)(2 ln D - ln ln D)) == sqrt((2/3) ln D - (1/3) ln ln D).
    for d in (math.e ** 6, 25.0, 400.0):
        direct = math.sqrt((2.0 / 3.0) * math.log(d) - math.log(math.log(d)) / 3.0)
        assert kms_threshold(3.0, d) == pytest.approx(direct, rel=1e-12)


def test_threshold_validation_and_clamp():
    with pytest.raises(ValueError):
        kms_threshold(2.0, 100.0)
    with pytest.raises(ValueError):
        classic_threshold(1.5, 100.0)
    # D below e is clamped to e, where ln ln D = 0.
    assert kms_threshold(3.0, 1.0) == pytest.approx(
        math.sqrt((1.0 / 3.0) * 2.0), rel=1e-12)
    assert kms_threshold(3.0, 0.0) == kms_threshold(3.0, math.e)


def test_threshold_rejects_nan_alpha():
    # A NaN threshold would select no vertex in any draw and end every
    # kms_independent_set call in the one-vertex fallback.
    with pytest.raises(ValueError, match="alpha > 2"):
        kms_threshold(math.nan, 10.0)


def test_kms_independent_set_rejects_trials_below_one():
    g = path_graph(3)
    vc = VectorColoring(3.0, _rows_on_e0(3, 1.0), 1e-9)
    with pytest.raises(ValueError, match="at least one trial"):
        kms_independent_set(g, vc, trials=0)


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("g, k", [(path_graph(4), 2),
                                  (planted_k_colorable(60, 4, 0.3, seed=1).graph, 4)],
                         ids=["bipartite", "planted"])
def test_kms_color_refuses_trials_below_one(monkeypatch, g, k, trials):
    # Refused at entry: before the bipartite shortcut, and before a solve
    # whose first rounding round would refuse it.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking trials")

    monkeypatch.setattr(rounding, "solve_vector_coloring", no_solve)
    with pytest.raises(ValueError, match="need at least one trial"):
        kms_color(g, k, trials=trials)


def test_refined_below_classic():
    for d in (10.0, 50.0, 1000.0):
        assert kms_threshold(3.0, d) < classic_threshold(3.0, d)


def test_round_once_triangle_single_survivor():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    vc = VectorColoring(3.0, PLANAR_120, 1e-9)
    r = PLANAR_120[0]  # aligned with the first vector, norm 1
    out = round_once(vc, g, r, 0.9)
    assert out == frozenset({0})


def test_round_once_threshold_above_everything():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    vc = VectorColoring(3.0, PLANAR_120, 1e-9)
    assert round_once(vc, g, PLANAR_120[0], 1.5) == frozenset()


def test_round_once_edgeless_keeps_selection():
    g = Graph(3)
    vc = VectorColoring(3.0, PLANAR_120, 1e-9)
    out = round_once(vc, g, np.array([1.0, 0.0]), -2.0)
    assert out == frozenset({0, 1, 2})


def test_round_once_deletion_prefers_high_degree():
    # Path 0-1-2 with all three selected: the middle vertex has internal
    # degree 2 and is deleted first, leaving both endpoints.
    g = path_graph(3)
    vectors = np.tile(np.array([1.0, 0.0]), (3, 1))
    vc = VectorColoring(3.0, vectors, 1e-9)
    out = round_once(vc, g, np.array([1.0, 0.0]), 0.5)
    assert out == frozenset({0, 2})


def test_round_once_deterministic():
    g = random_graph(40, 0.2, seed=3)
    rng = stream(0, "fuzz-vectors")
    vecs = rng.standard_normal((40, 5))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vc = VectorColoring(float(40), vecs, 1.0)
    r = stream(1, "dir").standard_normal(5)
    assert round_once(vc, g, r, 0.3) == round_once(vc, g, r, 0.3)


def test_round_once_always_independent_fuzz():
    # Independence must hold for arbitrary vectors, not just feasible ones.
    for seed in range(25):
        g = random_graph(30, 0.25, seed=seed)
        rng = stream(seed, "fuzz-vectors")
        vecs = rng.standard_normal((30, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vc = VectorColoring(float(30), vecs, 1.0)
        r = rng.standard_normal(4)
        out = round_once(vc, g, r, 0.2)
        assert verify_independent_set(g, out)


def test_kms_independent_set_edgeless():
    # Rows of norm 1e6 c select everything once r_0 >= 1e-6.
    g = Graph(7)
    c = kms_threshold(3.0, g.average_degree)
    vc = VectorColoring(3.0, _rows_on_e0(7, 1e6 * c), 1e-9)
    out = kms_independent_set(g, vc, trials=4, seed=0)
    assert out == frozenset(range(7))


def test_kms_independent_set_fallback_single_vertex():
    # Zero rows never reach the threshold, which forces the min-degree
    # fallback.
    g = path_graph(3)
    vc = VectorColoring(3.0, _rows_on_e0(3, 0.0), 1e-9)
    out = kms_independent_set(g, vc, trials=3, seed=0)
    assert out == frozenset({0})  # degree-1 tie broken by lowest id


def _counted_draws(monkeypatch):
    """Count round_once calls, which kms_independent_set makes once a draw."""
    draws = []

    def counted(vc, g, r, c):
        draws.append(c)
        return round_once(vc, g, r, c)

    monkeypatch.setattr(rounding, "round_once", counted)
    return draws


def test_kms_independent_set_draws_past_trials_until_a_hit(monkeypatch):
    # Every row is (c/2) e_0, so a draw selects all of them exactly when
    # r_0 >= 2. With seed 1 draws 0-5 miss and draw 6 hits: the four trials
    # alone would end in the single-vertex fallback.
    draws = _counted_draws(monkeypatch)
    g = Graph(5)
    c = kms_threshold(3.0, g.average_degree)
    vc = VectorColoring(3.0, _rows_on_e0(5, c / 2), 1e-9)
    out = kms_independent_set(g, vc, trials=4, seed=1)
    assert out == frozenset(range(5))
    assert draws == [c] * 7


def test_kms_independent_set_opens_one_stream_per_call(monkeypatch):
    opened = []

    def counted(seed, *key):
        opened.append((seed, key))
        return stream(seed, *key)

    monkeypatch.setattr(rounding, "stream", counted)
    g = path_graph(4)
    vc = VectorColoring(3.0, _rows_on_e0(4, 0.0), 1e-9)
    # 48 draws, all missing, from the one stream.
    kms_independent_set(g, vc, trials=3, seed=4)
    assert opened == [(4, ("kms-trial",))]


def test_kms_independent_set_retry_is_capped(monkeypatch):
    draws = _counted_draws(monkeypatch)
    g = path_graph(4)
    vc = VectorColoring(3.0, _rows_on_e0(4, 0.0), 1e-9)
    out = kms_independent_set(g, vc, trials=3, seed=0)
    assert out == frozenset({0})  # the minimum-degree vertex, lowest id
    assert len(draws) == 16 * 3


def test_kms_color_small_graphs_exact():
    assert kms_color(cycle_graph(5), 3).colors_used == 3
    assert kms_color(petersen_graph(), 3).colors_used == 3


def test_kms_color_verifies_the_exact_coloring(monkeypatch):
    # The exact route's colouring is verified too before it is returned.
    monkeypatch.setattr(rounding, "exact_coloring",
                        lambda g: Coloring((0,) * g.n))
    with pytest.raises(AssertionError, match="improper"):
        kms_color(cycle_graph(5), 3)


def test_kms_color_bipartite_shortcut():
    g = complete_multipartite([15, 15])
    col = kms_color(g, 2)
    assert col.colors_used == 2
    assert verify_coloring(g, col)


def test_kms_color_rejects_odd_cycle_for_k2():
    with pytest.raises(NotKColorableError) as info:
        kms_color(cycle_graph(25), 2)
    assert info.value.kind == "witness"


@pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(3)],
                         ids=["C5", "K3"])
def test_kms_color_k2_answers_by_two_coloring_at_every_size(g):
    # Below the exact oracle's size guard too: an odd cycle is a witness,
    # not an optimal 3-colouring.
    with pytest.raises(NotKColorableError) as info:
        kms_color(g, 2)
    assert info.value.kind == "witness"


def test_kms_color_planted_proper():
    inst = planted_k_colorable(60, 3, 0.25, seed=11)
    col = kms_color(inst.graph, 3, trials=16, seed=2)
    assert verify_coloring(inst.graph, col)
    assert col.colors_used <= inst.graph.n


def test_kms_color_low_degree_color_bound():
    # Planted 3-colorable, n = 1000, average degree ~20: the color count must
    # land under 4 D^{1/3} (ln D)^{1/3} ln n (the 4 is a test margin).
    inst = planted_k_colorable(1000, 3, 0.03, seed=42)
    g = inst.graph
    col = kms_color(g, 3, trials=32, seed=7)
    assert verify_coloring(g, col)
    d = g.average_degree
    bound = 4.0 * d ** (1 / 3) * math.log(d) ** (1 / 3) * math.log(g.n)
    assert col.colors_used <= bound


def test_paired_trials_shapes_and_types():
    inst = planted_k_colorable(60, 3, 0.25, seed=1)
    vc = solve_vector_coloring(inst.graph, 3.0, seed=0)
    res = paired_threshold_trials(inst.graph, vc, 3.0, 8, seed=5)
    assert len(res["refined_sizes"]) == 8
    assert res["c_refined"] < res["c_classic"]
    for size in res["refined_sizes"]:
        assert 0 <= size <= inst.graph.n
