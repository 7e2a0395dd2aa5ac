import io
import re
from collections import deque

import numpy as np
import pytest

from sdpcolor._rng import stream
from sdpcolor.graph import (
    Coloring,
    DimacsError,
    Graph,
    _adjacency_masks,
    _try_k_coloring,
    brute_force_chromatic,
    induced_subgraph,
    largest_color_class,
    read_dimacs,
    two_coloring,
    verify_coloring,
    verify_independent_set,
    write_dimacs,
)
from sdpcolor.progress import ContractedGraph
from sdpcolor.testkit import (
    complete_graph,
    cycle_graph,
    is_k_colorable,
    path_graph,
    planted_k_colorable,
    random_graph,
    star_graph,
)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 0)], "self-loop at vertex 0"),
    (3, [(0, 3)], "edge (0, 3) out of range for n=3"),
    (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    (-1, [], "vertex count must be nonnegative, got -1"),
    # The first offending edge in input order is reported, whatever its kind.
    (3, [(2, 1), (1, 2), (0, 7)], "duplicate edge (1, 2)"),
    (3, [(0, 7), (1, 1)], "edge (0, 7) out of range for n=3"),
    # Beyond int64 (and at its edge) an endpoint is out of range, not an
    # OverflowError from numpy.
    (3, [(0, 2**64)], f"edge (0, {2**64}) out of range for n=3"),
    (3, [(0, 2**63)], f"edge (0, {2**63}) out of range for n=3"),
    (3, [(-2**70, 1)], f"edge ({-2**70}, 1) out of range for n=3"),
    (3, [(np.uint64(2**64 - 1), 0)], "out of range for n=3"),
    (3, [(0, 1, 2)], "(u, v) pairs"),
    (3, [(0, 1), (1, 2, 0)], None),
    (3, [(0, 1), (2,)], None),
], ids=["self-loop", "out-of-range", "duplicate", "negative-n",
        "duplicate-first", "range-first", "beyond-int64", "at-int64",
        "below-int64", "uint64-wraps", "triple", "ragged-triple", "single"])
def test_construction_validates(n, edges, message):
    with pytest.raises(ValueError, match=message and re.escape(message)):
        Graph(n, edges)


def test_construction_refuses_non_integer_endpoints():
    # 0.5 used to be truncated to vertex 0, making a duplicate of (0, 1).
    with pytest.raises(ValueError, match=re.escape(
            "edge (0.5, 1) has a non-integer endpoint")):
        Graph(3, [(0.5, 1), (0, 1)])
    for edges in ([(0, 1.0)], [("0", 1)], [(0, 1), (np.float64(2), 0)]):
        with pytest.raises(ValueError, match="non-integer endpoint"):
            Graph(3, edges)
    # An earlier fault is still reported first.
    with pytest.raises(ValueError, match=re.escape("edge (0, 5) out of range")):
        Graph(3, [(0, 5), (0.5, 1)])
    # Integer types other than int pass: numpy integers and bools.
    g = Graph(3, [(np.int32(2), np.uint64(0)), (True, np.int64(2))])
    assert g.edges == ((0, 2), (1, 2))
    assert all(type(x) is int for e in g.edges for x in e)


def _reference_edges(n, edges):
    """The set-based validation ``Graph(n, edges)`` once made, kept as the
    reference for the array validation."""
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return tuple(sorted(seen))


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


def test_array_validation_matches_the_set_based_loop():
    rng = stream(0, "graph-validation-fuzz")
    kinds = set()
    for _ in range(3000):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 20))
        # Endpoints -1..n; one in four inputs draws them in range only, so
        # valid graphs and duplicates are common too.
        low, high = (0, n) if rng.random() < 0.25 else (-1, n + 1)
        edges = [tuple(int(x) for x in rng.integers(low, high, 2)) for _ in range(m)]
        want = _outcome(_reference_edges, n, edges)
        got = _outcome(lambda n, edges: Graph(n, edges).edges, n, edges)
        assert got == want, (n, edges)
        kinds.add(want.split()[0] if isinstance(want, str) else "valid")
    assert kinds == {"edge", "self-loop", "duplicate", "valid"}


def test_basic_queries():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.degree(0) == 1
    assert g.average_degree == pytest.approx(1.5)
    assert g.max_degree == 2
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


@pytest.mark.parametrize("quotient, query, args", [
    (False, "degree", (-1,)), (False, "degree", (3,)),
    (False, "neighbors", (-1,)), (False, "neighbors", (3,)),
    (False, "has_edge", (-1, 1)), (False, "has_edge", (1, 3)),
    (True, "has_edge", (-1, -2)), (True, "has_edge", (0, 3)),
], ids=[f"{name}-{side}" for name in ("degree", "neighbors", "has_edge",
                                       "quotient-has_edge")
        for side in ("negative", "n")])
def test_vertex_queries_refuse_ids_out_of_range(quotient, query, args):
    # numpy indexing would wrap a negative id: degree(-1) would read vertex
    # 2's degree, and the quotient's has_edge(-1, -2) the edge (2, 1).
    g = Graph(3, [(1, 2)])
    with pytest.raises(IndexError, match="out of range for n=3"):
        getattr(ContractedGraph(g) if quotient else g, query)(*args)


def test_neighbors_is_a_read_only_int64_slice():
    g = random_graph(20, 0.3, seed=1)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert nbrs.dtype == np.int64
        assert nbrs.tolist() == sorted(w for e in g.edges for w in e
                                       if v in e and w != v)
        if nbrs.size:
            with pytest.raises(ValueError):
                nbrs[0] = v


def test_induced_subgraph_takes_an_array_of_ids():
    # An integer array is read as is, and ``verts`` is its distinct ids as
    # a sorted int64 array, whatever the ids came as.
    g = cycle_graph(6)
    for ids in (np.array([4, 0, 2, 1, 4]), g.neighbors(0), [4, 0, 2, 1],
                np.array([4, 0, 2], dtype=np.uint8)):
        sub, verts = induced_subgraph(g, ids)
        assert verts.tolist() == sorted(set(np.asarray(ids).tolist()))
        assert verts.dtype == np.int64


@pytest.mark.parametrize("ids, error", [
    (np.array([0.0, 2.0]), TypeError),
    ([0, 1.5], TypeError),
    (np.array([True, False]), TypeError),
    (np.array([0, -1]), ValueError),  # -1 must not be read as vertex 5
    ([0, 6], ValueError),
])
def test_induced_subgraph_refuses_bad_ids(ids, error):
    with pytest.raises(error):
        induced_subgraph(cycle_graph(6), ids)


def test_induced_subgraph_k4_restriction():
    sub, verts = induced_subgraph(complete_graph(4), {0, 1, 2})
    assert sub == complete_graph(3)
    assert verts.tolist() == [0, 1, 2]


def test_induced_subgraph_c5_alternating():
    # C5 on {0,2,4} keeps only the edge (4,0), mapped to (0,2).
    sub, verts = induced_subgraph(cycle_graph(5), {0, 2, 4})
    assert sub.n == 3
    assert sub.edges == ((0, 2),)
    assert verts.tolist() == [0, 2, 4]


def test_induced_subgraph_empty():
    sub, verts = induced_subgraph(cycle_graph(5), set())
    assert sub.n == 0 and sub.m == 0 and verts.tolist() == []


def test_induced_subgraph_matches_contracted_induced():
    for seed in range(6):
        g = random_graph(30, 0.3, seed=seed)
        rng = stream(seed, "induced-subsets")
        ids = [int(x) for x in rng.choice(g.n, size=4 + 3 * seed, replace=False)]
        sub, verts = induced_subgraph(g, ids)
        assert verts.tolist() == sorted(ids)
        validated = Graph(len(verts), sub.edges)
        for other in (ContractedGraph(g).induced(verts), validated):
            assert sub == other and hash(sub) == hash(other)
            assert sub.edges == other.edges
            assert np.array_equal(sub.degrees(), other.degrees())
            assert all(np.array_equal(sub.neighbors(v), other.neighbors(v))
                       for v in range(sub.n))
            for mine, theirs in zip(sub.edge_arrays(), other.edge_arrays()):
                assert mine.dtype == theirs.dtype == np.int64
                assert np.array_equal(mine, theirs)
        pos = {old: new for new, old in enumerate(verts.tolist())}
        assert validated.edges == tuple(sorted(
            (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos))


def test_edge_arrays_are_read_only():
    g = cycle_graph(5)
    sub, _ = induced_subgraph(g, range(4))
    quotient, _ = ContractedGraph(g).quotient_graph()
    for graph in (g, sub, quotient):
        eu, ev = graph.edge_arrays()
        with pytest.raises(ValueError):
            eu[0] = 3
        with pytest.raises(ValueError):
            ev[0] = 3


def _peel(g, threshold):
    u, w = ContractedGraph(g).peel(threshold)
    return set(u), set(w)


def test_peel_star():
    u, w = _peel(star_graph(5), 2)
    assert u == set(range(6)) and w == set()


def test_peel_k5_keeps_all():
    u, w = _peel(complete_graph(5), 3)
    assert u == set() and w == set(range(5))


def test_peel_path_high_threshold():
    u, w = _peel(path_graph(3), 10)
    assert u == set(range(3)) and w == set()


def test_peel_average_degree_bound_and_core_property():
    for seed in range(8):
        g = random_graph(40, 0.15, seed=seed)
        thr = 3
        u, w = _peel(g, thr)
        sub_u, _ = induced_subgraph(g, u)
        if sub_u.n:
            assert sub_u.average_degree <= 2 * thr
        sub_w, _ = induced_subgraph(g, w)
        if sub_w.n:
            assert min(sub_w.degrees()) >= thr


def test_peel_order_independence():
    # Simulate a different (reverse) exhaustive peeling order by hand.
    for seed in range(6):
        g = random_graph(30, 0.2, seed=seed)
        thr = 3
        alive = set(range(g.n))
        deg = list(g.degrees())
        changed = True
        while changed:
            changed = False
            for v in sorted(alive, reverse=True):
                if deg[v] < thr:
                    alive.discard(v)
                    for nb in g.neighbors(v):
                        if nb in alive:
                            deg[nb] -= 1
                    changed = True
        u, w = _peel(g, thr)
        assert w == alive and u == set(range(g.n)) - alive


def _reference_peel(g, cg, threshold):
    """Peel of the quotient of g, vertex by vertex from the base edges and
    ``rep``, never from ``cg.adj``; also the number of passes that
    removed something."""
    owner = {b: int(cg.rep[b]) for b in range(g.n) if cg.live[cg.rep[b]]}
    nbrs = {rep: set() for rep in cg.alive}
    for u, v in g.edges:
        if u in owner and v in owner:
            nbrs[owner[u]].add(owner[v])
            nbrs[owner[v]].add(owner[u])
    alive, passes = set(nbrs), 0
    while True:
        low = {v for v in alive if len(nbrs[v] & alive) < threshold}
        if not low:
            return sorted(set(nbrs) - alive), sorted(alive), passes
        alive -= low
        passes += 1


def test_peel_after_merges_and_deletes():
    # Merged-away and deleted ids leave zero rows and columns in the
    # matrix that peel reads in place; none of them may count.
    rng = stream(11, "peel-quotient")
    most_passes = 0
    for seed in range(12):
        g = random_graph(45, 0.25, seed=seed)
        cg = ContractedGraph(g)
        for step in range(16):
            alive = cg.alive
            if step % 4 == 3:
                cg.delete(rng.choice(alive, size=2, replace=False).tolist())
                continue
            u, v = (int(x) for x in rng.choice(alive, size=2, replace=False))
            if not cg.has_edge(u, v):
                cg.merge(u, v)
        for threshold in (1, 4, 7.5, 10, 13, 100):
            u_ids, w_ids, passes = _reference_peel(g, cg, threshold)
            assert [ids.tolist() for ids in cg.peel(threshold)] == [u_ids, w_ids]
            most_passes = max(most_passes, passes)
    assert most_passes >= 3


def test_verify_coloring():
    assert verify_coloring(cycle_graph(5), Coloring((0, 1, 0, 1, 2)))
    assert not verify_coloring(complete_graph(3), Coloring((0, 0, 1)))
    assert not verify_coloring(complete_graph(3), Coloring((0, 1)))
    # Colours are compared exactly, even where float64 cannot tell them apart.
    assert verify_coloring(path_graph(2), Coloring((2**63, 2**63 + 1)))


def test_verify_independent_set():
    c5 = cycle_graph(5)
    assert verify_independent_set(c5, {0, 2})
    assert not verify_independent_set(c5, {0, 1})
    assert not verify_independent_set(c5, {0, 9})
    # -1 must be refused, not read as vertex 4 (which would make {-1, 1} a
    # valid set of C5).
    assert not verify_independent_set(c5, {-1, 1})
    # A non-integer member is no vertex: 0.5 must not be read as vertex 0.
    assert not verify_independent_set(Graph(3, [(0, 1)]), {0.5, 2})
    assert not verify_independent_set(c5, {"0", 2})
    # Integer types other than int are vertices: numpy integers and bools.
    assert verify_independent_set(c5, [np.int64(0), np.uint8(2)])
    assert verify_independent_set(c5, {True, 3})


def test_independent_iff_induced_edgeless():
    for seed in range(10):
        g = random_graph(16, 0.3, seed=seed)
        s = {v for v in range(g.n) if (v * 7 + seed) % 3 == 0}
        sub, _ = induced_subgraph(g, s)
        assert verify_independent_set(g, s) == (sub.m == 0)


def test_largest_color_class():
    assert largest_color_class(Coloring((0, 0, 1))) == {0, 1}
    # All classes singletons: tie broken by the lowest color index.
    assert largest_color_class(Coloring((0, 1, 2))) == {0}
    assert largest_color_class(Coloring((0, 1, 0, 1, 0, 1))) == {0, 2, 4}


def test_largest_color_class_independent_when_proper():
    for seed in range(5):
        g = random_graph(14, 0.3, seed=seed)
        # Greedy proper coloring.
        assignment = []
        for v in range(g.n):
            banned = {assignment[w] for w in g.neighbors(v) if w < v}
            c = 0
            while c in banned:
                c += 1
            assignment.append(c)
        col = Coloring(tuple(assignment))
        assert verify_coloring(g, col)
        assert verify_independent_set(g, largest_color_class(col))


def test_bipartition_and_two_coloring():
    assert two_coloring(cycle_graph(5)) is None
    col = two_coloring(cycle_graph(6))
    assert col is not None and col.colors_used == 2
    assert verify_coloring(cycle_graph(6), col)


def _reference_bipartition(g):
    """The vertex-by-vertex BFS that the numpy level BFS replaced: the
    sides (0, 1) it must reproduce exactly."""
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return ({v for v in range(g.n) if side[v] == 0},
            {v for v in range(g.n) if side[v] == 1})


def _relabelled(g, rng):
    perm = rng.permutation(g.n)
    return Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])


def _disjoint_union(a, b):
    return Graph(a.n + b.n, list(a.edges)
                 + [(u + a.n, v + a.n) for u, v in b.edges])


def _bipartition_cases():
    rng = stream(5, "bipartition-cases")
    yield Graph(0)
    yield Graph(1)
    for n in (2, 7, 30):
        yield Graph(n)  # edgeless
    for n in (3, 5, 9, 21):
        yield cycle_graph(n)  # odd cycles: None
        yield _relabelled(cycle_graph(n), rng)
        yield _disjoint_union(cycle_graph(n + 1), cycle_graph(n))
    for seed in range(130):
        n = int(rng.integers(2, 60))
        yield random_graph(n, float(rng.choice([0.02, 0.05, 0.1, 0.3])),
                           seed=seed)
    for seed in range(130):
        n = int(rng.integers(2, 80))
        g = planted_k_colorable(n, 2, float(rng.choice([0.05, 0.2, 0.6])),
                                seed=seed).graph
        yield _relabelled(g, rng)
    for seed in range(130):
        # Several components with interleaved ids: each one's lowest id,
        # not the lowest id overall, is its side-0 root.
        a = planted_k_colorable(int(rng.integers(2, 30)), 2, 0.3, seed=seed).graph
        b = random_graph(int(rng.integers(1, 30)), 0.08, seed=seed)
        yield _relabelled(_disjoint_union(a, b), rng)
    yield from _beyond_the_first_level()


def _beyond_the_first_level():
    """Graphs with no edge among the neighbours of the lowest non-isolated
    vertex, the BFS's first root: an odd cycle, if any, shows only at a
    later level or from a later root."""
    yield Graph(1)
    yield Graph(6)  # edgeless
    for n in (5, 7):  # odd cycles found beyond the first level
        yield cycle_graph(n)
        yield _disjoint_union(cycle_graph(n + 1), cycle_graph(n))
        yield _disjoint_union(path_graph(4), cycle_graph(n))
    # A triangle at the far end of a path from the root.
    yield Graph(8, [(i, i + 1) for i in range(5)] + [(5, 6), (6, 7), (5, 7)])
    # The lowest vertex is isolated, so the root is a later one.
    yield _disjoint_union(Graph(1), cycle_graph(5))
    yield _disjoint_union(Graph(2), cycle_graph(6))
    yield _disjoint_union(Graph(1), _disjoint_union(cycle_graph(4),
                                                    complete_graph(3)))


def test_bipartition_matches_the_vertex_by_vertex_bfs():
    # The one route gives exactly the old sides, so probe, k=2/k=3 and
    # alpha=2 results keep theirs: the larger side and its tie rule fix
    # the partition.
    count = odd = 0
    for g in _bipartition_cases():
        count += 1
        want = _reference_bipartition(g)
        odd += want is None
        col = two_coloring(g)
        if want is None:
            assert col is None
        else:
            for side in (0, 1):
                assert {v for v, c in enumerate(col.assignment)
                        if c == side} == want[side]
            assert sorted(largest_color_class(col)) == sorted(max(want, key=len))
    assert count >= 400 and odd >= 50
    for g in _beyond_the_first_level():
        adj = g.adjacency_matrix()
        busy = np.flatnonzero(adj.any(axis=1))
        if busy.size:
            nbrs = np.flatnonzero(adj[busy[0]])
            assert not adj[np.ix_(nbrs, nbrs)].any()


def _triangle_at_the_first_root():
    """Graphs with an edge among the neighbours of the lowest non-isolated
    vertex, the BFS's first root."""
    yield complete_graph(3)
    yield complete_graph(6)
    yield _disjoint_union(Graph(2), complete_graph(4))  # isolated ids first
    # The root 0's neighbours 1 and 5 are joined, a path hangs from 5, and
    # 2..4 are isolated.
    yield Graph(9, [(0, 1), (0, 5), (1, 5), (5, 6), (6, 7), (7, 8)])
    for seed in range(20):
        # A planted 3-colourable graph with the root's first two neighbours
        # joined (if they were not already).
        g = planted_k_colorable(40, 3, 0.5, seed=seed).graph
        eu, ev = g.edge_arrays()
        a, b = ev[eu == eu[0]][:2].tolist()
        yield Graph(g.n, set(g.edges) | {(a, b)})


def test_first_root_triangle_refuses_before_the_csr_arrays():
    count = 0
    for g in _triangle_at_the_first_root():
        count += 1
        assert two_coloring(g) is None
        assert "_csr" not in vars(g)
        assert _reference_bipartition(g) is None
    assert count >= 20


def test_dimacs_round_trip():
    g = random_graph(17, 0.3, seed=3)
    buf = io.StringIO()
    write_dimacs(g, buf)
    text = buf.getvalue()
    g2 = read_dimacs(io.StringIO(text))
    assert g2 == g
    buf2 = io.StringIO()
    write_dimacs(g2, buf2)
    assert buf2.getvalue() == text


def test_dimacs_reads_comments_and_1_indexing():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    g = read_dimacs(io.StringIO(text))
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p edge 2 1\ne 1 1\n", "self-loop"),
        ("p edge 3 2\ne 1 2\ne 2 1\n", "duplicate"),
        ("p edge 2 1\ne 1 5\n", "out of range"),
        ("e 1 2\n", "before problem line"),
        ("p edge 2 2\ne 1 2\n", "declared 2 edges"),
        ("p col 2 1\ne 1 2\n", "expected 'p edge"),
        ("p edge 2 1\nx 1 2\n", "unrecognized"),
        ("", "missing problem line"),
    ],
)
def test_dimacs_errors(text, fragment):
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO(text))
    assert fragment in str(err.value)


def test_dimacs_error_carries_line_number():
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO("c x\np edge 2 1\ne 1 1\n"))
    assert err.value.line == 3


def test_dimacs_duplicate_names_its_line():
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO("p edge 3 3\ne 1 2\nc x\ne 2 3\ne 2 1\n"))
    assert err.value.line == 5
    assert str(err.value) == "line 5: duplicate edge (2, 1)"


def test_dimacs_per_line_faults_come_before_duplicates():
    # Duplicates are found once every line is parsed, so a later per-line
    # fault is reported first.
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO("p edge 3 3\ne 1 2\ne 2 1\ne 3 3\n"))
    assert err.value.line == 4 and "self-loop at vertex 3" in str(err.value)


def test_read_dimacs_validates_once(monkeypatch):
    g = random_graph(40, 0.3, seed=5)
    buf = io.StringIO()
    write_dimacs(g, buf)

    def refuse(self, n, edges=()):
        raise AssertionError("read_dimacs validated its edges a second time")

    monkeypatch.setattr(Graph, "__init__", refuse)
    g2 = read_dimacs(io.StringIO(buf.getvalue()))
    assert g2 == g and g2.edges == g.edges


@pytest.mark.parametrize("g", [Graph(0), Graph(4), star_graph(6),
                               random_graph(30, 0.3, seed=2)],
                         ids=["empty", "edgeless", "star", "random"])
def test_degrees_are_one_cached_read_only_array(g):
    deg = g.degrees()
    assert deg is g.degrees()
    assert deg.dtype == np.int64 and not deg.flags.writeable
    assert deg.tolist() == [g.degree(v) for v in range(g.n)]
    assert deg.tolist() == [len(g.neighbors(v)) for v in range(g.n)]
    with pytest.raises(ValueError):
        deg[:1] = 0


def test_degree_queries_leave_the_csr_arrays_unbuilt():
    g = random_graph(30, 0.3, seed=2)
    assert g.degree(0) == g.degrees()[0]
    with pytest.raises(IndexError):
        g.degree(g.n)
    assert "_csr" not in g.__dict__
    g.neighbors(0)
    assert "_csr" in g.__dict__


def _reference_k_coloring(g, k):
    """The list-based backtracking search: each node builds the set of
    colours on the vertex's coloured neighbours. Same vertex order (falling
    degree, then id) and colour order as ``_try_k_coloring``."""
    n = g.n
    if n == 0:
        return ()
    if k <= 0:
        return None
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    color = [-1] * n
    neighbors = [g.neighbors(v).tolist() for v in range(n)]

    def place(idx, used):
        if idx == n:
            return True
        v = order[idx]
        banned = {color[w] for w in neighbors[v] if color[w] != -1}
        for c in range(min(k, used + 1)):
            if c in banned:
                continue
            color[v] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return tuple(color) if place(0, 0) else None


@pytest.mark.parametrize("seed", range(8))
def test_bitmask_k_coloring_matches_the_list_search(seed):
    # Seeded random graphs, n 0..20 and p 0.1..0.9: the bitmask search
    # finds the reference's colouring (or none) at every k, and the exact
    # oracles built on it agree with the reference.
    rng = stream(seed, "k-coloring-graphs")
    for n in range(21):
        p = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        g = random_graph(n, p, seed=int(rng.integers(1 << 30)))
        masks = _adjacency_masks(g)
        for k in range(6):
            want = _reference_k_coloring(g, k)
            assert _try_k_coloring(g, k, masks) == want
            assert is_k_colorable(g, k) == (want is not None)
        chi = brute_force_chromatic(g)
        assert chi.colors_used == min(
            k for k in range(n + 1) if _reference_k_coloring(g, k) is not None)
        assert chi.assignment == _reference_k_coloring(g, chi.colors_used)
