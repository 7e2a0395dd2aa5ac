import pytest

from sdpcolor.graph import Graph, verify_coloring, verify_independent_set
from sdpcolor.testkit import (
    SizeGuardError,
    brute_force_chromatic,
    brute_force_mis,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    degree_capped_planted,
    is_k_colorable,
    load_fixture,
    petersen_graph,
    planted_k_colorable,
    random_graph,
    save_fixture,
)


def test_planted_all_cross_edges():
    inst = planted_k_colorable(6, 3, 1.0, seed=0)
    assert inst.graph.m == complete_multipartite([2, 2, 2]).m == 12
    sizes = sorted(len(c) for c in inst.classes)
    assert sizes == [2, 2, 2]


def test_degree_capped_planted_keeps_planted_edges_up_to_the_cap():
    inst = planted_k_colorable(120, 4, 0.5, seed=3)
    capped = degree_capped_planted(120, 4, 0.5, 20, seed=3)
    assert capped.classes == inst.classes
    assert (capped.k, capped.p, capped.seed) == (4, 0.5, 3)
    assert set(capped.graph.edges) < set(inst.graph.edges)
    assert list(capped.graph.edges) == sorted(capped.graph.edges)
    assert capped.graph.max_degree == 20
    # An edge is dropped only where an endpoint already has d neighbours.
    degrees = capped.graph.degrees()
    assert all(max(degrees[u], degrees[v]) == 20
               for u, v in set(inst.graph.edges) - set(capped.graph.edges))
    assert degree_capped_planted(120, 4, 0.5, 20, seed=3).graph.edges == (
        capped.graph.edges)
    assert degree_capped_planted(120, 4, 0.5, 200, seed=3).graph.edges == (
        inst.graph.edges)


def test_planted_empty():
    inst = planted_k_colorable(6, 3, 0.0, seed=1)
    assert inst.graph.m == 0


def test_planted_coloring_is_proper():
    inst = planted_k_colorable(12, 3, 0.5, seed=1)
    assert verify_coloring(inst.graph, inst.planted_coloring())
    for cls in inst.classes:
        assert verify_independent_set(inst.graph, set(cls))


def test_planted_class_balance_and_partition():
    inst = planted_k_colorable(11, 3, 0.4, seed=9)
    sizes = [len(c) for c in inst.classes]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(v for cls in inst.classes for v in cls) == list(range(11))


def test_planted_reproducible():
    a = planted_k_colorable(30, 4, 0.3, seed=7)
    b = planted_k_colorable(30, 4, 0.3, seed=7)
    c = planted_k_colorable(30, 4, 0.3, seed=8)
    assert a.graph == b.graph and a.classes == b.classes
    assert c.graph != a.graph


def test_planted_rejects_bad_args():
    with pytest.raises(ValueError):
        planted_k_colorable(2, 3, 0.5)
    with pytest.raises(ValueError):
        planted_k_colorable(5, 3, 1.5)
    with pytest.raises(ValueError):
        planted_k_colorable(5, 1, 0.5)


@pytest.mark.parametrize("graph", [
    lambda: planted_k_colorable(2, 2, 0.0).graph,
    lambda: planted_k_colorable(3, 3, 1.0).graph,
    lambda: planted_k_colorable(30, 4, 0.3, seed=3).graph,
    lambda: random_graph(0, 0.5),
    lambda: random_graph(1, 1.0),
    lambda: random_graph(20, 0.0),
    lambda: random_graph(20, 1.0),
    lambda: random_graph(40, 0.3, seed=3),
], ids=["planted-2-empty", "planted-3-full", "planted-30", "gnp-0", "gnp-1",
        "gnp-empty", "gnp-full", "gnp-40"])
def test_generated_graph_equals_its_validated_rebuild(graph):
    g = graph()
    assert Graph(g.n, g.edges) == g


def test_random_graph_rejects_bad_args():
    with pytest.raises(ValueError):
        random_graph(-1, 0.5)
    with pytest.raises(ValueError):
        random_graph(5, 1.5)


def test_planted_small_instances_are_k_colorable():
    for seed in range(5):
        inst = planted_k_colorable(18, 3, 0.5, seed=seed)
        assert is_k_colorable(inst.graph, 3)


def test_mis_known_values():
    assert len(brute_force_mis(cycle_graph(5))) == 2
    assert len(brute_force_mis(complete_graph(5))) == 1
    assert len(brute_force_mis(petersen_graph())) == 4


def test_mis_is_independent_and_deterministic():
    for seed in range(8):
        g = random_graph(16, 0.3, seed=seed)
        s1 = brute_force_mis(g)
        s2 = brute_force_mis(g)
        assert s1 == s2
        assert verify_independent_set(g, s1)


def test_mis_guard():
    with pytest.raises(SizeGuardError):
        brute_force_mis(random_graph(41, 0.1, seed=0))


def test_chromatic_known_values():
    assert brute_force_chromatic(cycle_graph(5)).colors_used == 3
    assert brute_force_chromatic(complete_multipartite([3, 3])).colors_used == 2
    assert brute_force_chromatic(petersen_graph()).colors_used == 3


def test_chromatic_coloring_is_proper():
    for seed in range(6):
        g = random_graph(12, 0.4, seed=seed)
        col = brute_force_chromatic(g)
        assert verify_coloring(g, col)


def test_chromatic_guard():
    with pytest.raises(SizeGuardError):
        brute_force_chromatic(random_graph(21, 0.1, seed=0))


def test_is_k_colorable_matches_chromatic():
    for seed in range(6):
        g = random_graph(11, 0.45, seed=seed)
        chi = brute_force_chromatic(g).colors_used
        assert not is_k_colorable(g, chi - 1) if chi > 1 else True
        assert is_k_colorable(g, chi)
        assert is_k_colorable(g, chi + 1)


def test_is_k_colorable_guard():
    with pytest.raises(SizeGuardError):
        is_k_colorable(random_graph(31, 0.1, seed=0), 3)


def test_fixture_round_trip(tmp_path):
    inst = planted_k_colorable(14, 3, 0.4, seed=5)
    base = str(tmp_path / "fixture")
    save_fixture(inst, base)
    loaded = load_fixture(base)
    assert loaded.graph == inst.graph
    assert loaded.classes == inst.classes
    assert (loaded.k, loaded.p, loaded.seed) == (inst.k, inst.p, inst.seed)
