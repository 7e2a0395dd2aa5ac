import math

import numpy as np
import pytest

from sdpcolor._rng import stream
from sdpcolor.graph import Coloring, Graph, verify_coloring
from sdpcolor.progress import (
    Colored,
    ContractedGraph,
    LargeIndependentSet,
    NotKColorableError,
    SameColor,
    _buckets,
    build_candidate_collection,
    default_delta,
    progress_driver,
)
from sdpcolor.testkit import (
    brute_force_mis,
    collection_guarantee_check,
    complete_graph,
    cycle_graph,
    find_pigeon_index,
    path_graph,
    planted_k_colorable,
    random_graph,
)
from sdpcolor.vecsdp import InfeasibleError


def test_bucket_index_boundaries():
    # Exact powers land in their own bucket; delta = 1 doubles each step.
    assert _buckets(np.array([1, 7, 8, 15]), 1.0).tolist() == [0, 2, 3, 3]


def test_candidate_collection_k4():
    # K4 is regular, so S = N(v) is one bucket; d_S is 3 for v and 2 inside
    # S, giving exactly two distinct sets per vertex: {v} and N(v).
    coll = build_candidate_collection(complete_graph(4), delta=0.5)
    assert len(coll) == 8
    per_v: dict[int, int] = {}
    for cs in coll:
        per_v[cs.v] = per_v.get(cs.v, 0) + 1
        assert cs.members in ({cs.v}, set(range(4)) - {cs.v},
                              frozenset({cs.v}),
                              frozenset(set(range(4)) - {cs.v}))
    assert all(count <= 2 for count in per_v.values())


def test_candidate_collection_edgeless():
    assert len(build_candidate_collection(Graph(6), delta=0.5)) == 0


def test_candidate_collection_default_delta_on_one_edge():
    # 1/ln 2 exceeds the largest valid width, so the default is capped at 1.
    assert default_delta(2) == 1.0
    coll = build_candidate_collection(Graph(2, [(0, 1)]))
    assert [c.members for c in coll] == [frozenset({0}), frozenset({1})]


def test_candidate_collection_size_bound_and_determinism():
    for seed in range(5):
        g = random_graph(40, 0.2, seed=seed)
        delta = default_delta(g.n)
        coll = build_candidate_collection(g)
        bound = g.n * (math.log(g.n) / math.log1p(delta) + 1) ** 2
        assert len(coll) <= bound
        again = build_candidate_collection(g)
        assert coll == again


def test_pigeon_index_random_sequences():
    rng = stream(5, "pigeon")
    for _ in range(50):
        n = int(rng.integers(3, 30))
        x = rng.random(n) * 10
        y = rng.random(n) * 10
        beta = float(x.sum() / y.sum())
        delta = float(rng.uniform(0.05, 0.9))
        i = find_pigeon_index(x, y, delta, beta=beta)
        assert x[i] >= delta * x.mean() - 1e-12
        assert x[i] >= (1 - delta) * beta * y[i] - 1e-12


def test_pigeon_index_validation():
    with pytest.raises(ValueError):
        find_pigeon_index([], [], 0.5)
    with pytest.raises(ValueError):
        find_pigeon_index([1.0, -1.0], [1.0, 1.0], 0.5)


def test_guarantee_check_bipartite_pure_witness():
    # In a bipartite planted instance every candidate set sits entirely on
    # one side, so a fully red witness exists.
    inst = planted_k_colorable(80, 2, 0.3, seed=4)
    coll = build_candidate_collection(inst.graph)
    report = collection_guarantee_check(inst.graph, coll, 2, inst)
    assert report["found"]
    pure = [cs for cs in coll
            if len(cs.members & set(inst.classes[report["red_class"]]))
            == len(cs.members)]
    assert pure


def test_guarantee_check_planted_k4():
    inst = planted_k_colorable(200, 4, 0.25, seed=0)
    coll = build_candidate_collection(inst.graph)
    report = collection_guarantee_check(inst.graph, coll, 4, inst)
    assert report["found"]
    assert report["witness"]["size"] >= report["size_floor"]
    assert report["witness"]["red_fraction"] >= report["purity_floor"]


def test_guarantee_check_rejects_mismatched_graph():
    inst = planted_k_colorable(20, 3, 0.3, seed=1)
    other = planted_k_colorable(20, 3, 0.3, seed=2)
    coll = build_candidate_collection(inst.graph)
    with pytest.raises(ValueError):
        collection_guarantee_check(other.graph, coll, 3, inst)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def test_merge_path_to_single_edge():
    cg = ContractedGraph(path_graph(3))
    cg.merge(0, 2)
    q, _ = cg.quotient_graph()
    assert q.n == 2 and q.m == 1


def test_merge_triangle_contradiction():
    cg = ContractedGraph(complete_graph(3))
    with pytest.raises(NotKColorableError) as err:
        cg.merge(0, 1)
    assert err.value.kind == "contradiction"


def test_merge_c6_antipodal_gives_triangle():
    cg = ContractedGraph(cycle_graph(6))
    cg.merge(0, 3)
    cg.merge(1, 4)
    cg.merge(2, 5)
    q, _ = cg.quotient_graph()
    assert q == complete_graph(3)


def test_merge_validates_liveness():
    cg = ContractedGraph(path_graph(4))
    cg.merge(0, 2)
    with pytest.raises(ValueError):
        cg.merge(0, 2)
    with pytest.raises(ValueError):
        cg.merge(1, -1)  # -1 must not be read as vertex 3
    with pytest.raises(ValueError, match="delete needs live vertices"):
        cg.delete(np.array([-1]))
    with pytest.raises(TypeError):
        cg.delete(np.array([1.5]))  # not read as vertex 1
    assert cg.live.tolist() == [True, True, False, True]


def test_contraction_lift_preserves_properness():
    # Any proper coloring of the quotient lifts to a proper coloring of the
    # base with the same number of colors.
    rng = stream(3, "contract-fuzz")
    for seed in range(8):
        g = random_graph(18, 0.25, seed=seed)
        cg = ContractedGraph(g)
        for _ in range(6):
            alive = cg.alive
            if len(alive) < 2:
                break
            u, v = sorted(int(x) for x in rng.choice(alive, 2, replace=False))
            if u != v and not cg.has_edge(u, v):
                cg.merge(u, v)
        quotient, reps = cg.quotient_graph()
        # Greedy color the quotient, lift, verify.
        assignment = np.full(g.n, -1, dtype=np.int64)
        for rep in reps:
            banned = set(assignment[cg.adj[rep]].tolist())
            c = 0
            while c in banned:
                c += 1
            assignment[rep] = c
        lifted = assignment[cg.rep]
        assert (lifted >= 0).all()
        assert verify_coloring(g, Coloring(tuple(lifted.tolist())))


def test_rep_names_each_group_by_its_smallest_id():
    # After random merges and deletes, rep[v] is the smallest base id of
    # v's group (a deleted group keeps its own), every representative
    # represents itself, and the group sizes are the merges made.
    rng = stream(5, "rep-invariant")
    total = 0
    for seed in range(8):
        g = random_graph(30, 0.2, seed=seed)
        cg = ContractedGraph(g)
        groups = {v: {v} for v in range(g.n)}  # by representative
        merges = 0
        for step in range(20):
            alive = cg.alive
            if len(alive) < 3:
                break
            if step % 5 == 4:
                drop = rng.choice(alive, size=2, replace=False).tolist()
                if cg.is_independent(drop):
                    cg.delete(drop)
                continue
            u, v = (int(x) for x in rng.choice(alive, 2, replace=False))
            if not cg.has_edge(u, v):
                merged = groups.pop(u) | groups.pop(v)
                groups[cg.merge(u, v)] = merged
                merges += 1
        want = np.empty(g.n, dtype=np.int64)
        for rep, group in groups.items():
            assert rep == min(group)
            want[sorted(group)] = rep
        assert np.array_equal(cg.rep, want)
        assert np.array_equal(cg.rep[cg.rep], cg.rep)
        sizes = np.bincount(cg.rep, minlength=g.n)
        assert sizes.tolist() == [len(groups.get(v, ())) for v in range(g.n)]
        assert g.n - np.count_nonzero(sizes) == merges
        total += merges
    assert total >= 40


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def test_driver_edgeless_single_color():
    def finder(cg):
        return LargeIndependentSet(cg.alive)

    col = progress_driver(Graph(6), finder=finder, budget=6)
    assert col.colors_used == 1


def test_driver_with_exact_mis_oracle_on_c5():
    def finder(cg):
        quotient, reps = cg.quotient_graph()
        mis = brute_force_mis(quotient)
        return LargeIndependentSet(reps[sorted(mis)])

    col = progress_driver(cycle_graph(5), finder=finder, budget=5)
    assert col.colors_used == 3
    sizes = sorted(
        [list(col.assignment).count(c) for c in set(col.assignment)])
    assert sizes == [1, 2, 2]
    assert verify_coloring(cycle_graph(5), col)


def test_driver_rejects_dependent_set():
    def finder(cg):
        return LargeIndependentSet(cg.alive)

    with pytest.raises(ValueError):
        progress_driver(path_graph(3), finder=finder, budget=3)


def test_driver_budget_exhaustion():
    def finder(cg):
        return LargeIndependentSet(cg.alive[:1])

    with pytest.raises(NotKColorableError) as err:
        progress_driver(complete_graph(6), finder=finder, budget=3)
    assert err.value.kind == "budget"


@pytest.mark.parametrize("claim, message", [
    (LargeIndependentSet(np.array([], dtype=np.int64)), "empty independent set"),
    (Colored(Coloring((0, 1))), "does not cover the quotient"),
    (Colored(Coloring((0, 0, 1))), "improper quotient coloring"),
    # -1 must not be read as vertex 2, which would make it a valid set.
    (LargeIndependentSet(np.array([-1])), "dependent vertex set"),
])
def test_driver_refuses_a_bad_claim(claim, message):
    with pytest.raises(ValueError, match=message):
        progress_driver(path_graph(3), finder=lambda cg: claim, budget=3)


def test_driver_relabels_a_quotient_coloring_in_order():
    # Colours out of order and negative, (7, -2) on reps [1, 3], keep their
    # order: -2 becomes the first fresh colour and 7 the next.
    claims = iter([SameColor(0, 2), LargeIndependentSet(np.array([0])),
                   Colored(Coloring((7, -2)))])
    col = progress_driver(path_graph(4), finder=lambda cg: next(claims),
                          budget=3)
    assert col.assignment == (0, 2, 0, 1)


def test_driver_refuses_a_coloring_over_budget():
    def finder(cg):
        return Colored(Coloring(tuple(range(cg.alive_count))))

    with pytest.raises(NotKColorableError,
                       match="color budget 3 exhausted") as err:
        progress_driver(complete_graph(4), finder=finder, budget=3)
    assert err.value.kind == "budget"


def test_driver_refuses_a_non_result():
    with pytest.raises(TypeError):
        progress_driver(path_graph(3), finder=lambda cg: {0, 2}, budget=3)


def test_driver_leaves_the_graph_matrix_unchanged():
    # Merges and deletes write to the quotient's own matrix, never to one
    # the base Graph hands out.
    g = random_graph(24, 0.3, seed=4)
    before = g.adjacency_matrix()

    def finder(cg):
        live = cg.alive
        pair = next(((u, v) for u in live.tolist() for v in live.tolist()
                     if u < v and not cg.has_edge(u, v)), None)
        if pair is not None:
            return SameColor(*pair)
        return Colored(Coloring(tuple(range(live.size))))

    col = progress_driver(g, finder=finder, budget=g.n)
    assert verify_coloring(g, col) and col.colors_used < g.n
    after = g.adjacency_matrix()
    assert np.array_equal(after, before) and after is not before
    assert not np.shares_memory(after, g.adjacency_matrix())


def test_driver_deletes_once_per_spending_claim(monkeypatch):
    claims = iter([SameColor(0, 2), LargeIndependentSet(np.array([0])),
                   Colored(Coloring((5, 7)))])  # reps [1, 3]
    deleted = []
    real_delete = ContractedGraph.delete

    def delete(cg, vs):
        deleted.append(np.asarray(vs).tolist())
        real_delete(cg, vs)

    monkeypatch.setattr(ContractedGraph, "delete", delete)
    col = progress_driver(path_graph(4), finder=lambda cg: next(claims),
                          budget=3)
    assert deleted == [[0], [1, 3]]
    assert col.assignment == (0, 1, 0, 2)


def test_driver_same_color_and_colored_path():
    # Merge the ends of a path, then finish with an exact coloring.
    calls = {"n": 0}

    def finder(cg):
        calls["n"] += 1
        if calls["n"] == 1:
            return SameColor(0, 2)
        return Colored(Coloring(tuple(i % 2 for i in range(cg.alive_count))))

    g = path_graph(3)
    col = progress_driver(g, finder=finder, budget=3)
    assert verify_coloring(g, col)
    assert col.colors_used == 2


def test_driver_contradiction_bubbles():
    def finder(cg):
        return SameColor(0, 1)

    with pytest.raises(NotKColorableError) as err:
        progress_driver(complete_graph(3), finder=finder, budget=3)
    assert err.value.kind == "contradiction"


def test_failure_types_are_kinds_of_not_k_colorable():
    counts = {"wide": 1, "lowrank": 0, "polish": 0, "refine": 0,
              "fallbacks": 0}
    stall = InfeasibleError(3.0, 0.5, counts)
    contradiction = NotKColorableError("contradiction", "x")
    assert stall.kind == "solver" and contradiction.kind == "contradiction"
    assert isinstance(stall, NotKColorableError)
    assert isinstance(contradiction, NotKColorableError)
    assert (stall.best_residual, stall.iterations) == (0.5, 1)
    assert stall.counts is counts
    assert str(contradiction) == "x"
