"""The neighbour walks over a Graph's CSR arrays against the set-based and
dense-matrix versions they replaced, kept here as references: the greedy
independent set, threshold rounding's conflict pass and the candidate
collection must give exactly the old outputs. The collection's ranked
enumeration must equal the reference's distinct sets stably sorted by
size, and its vector bucket index the scalar one."""

import math

import numpy as np
import pytest

from sdpcolor._rng import stream
from sdpcolor.graph import Graph, induced_subgraph
from sdpcolor.indset import greedy_independent_set
from sdpcolor.progress import (CandidateSet, _buckets,
                               build_candidate_collection, default_delta)
from sdpcolor.rounding import kms_threshold, round_once
from sdpcolor.testkit import (complete_graph, planted_k_colorable, random_graph,
                              star_graph)
from sdpcolor.vecsdp import VectorColoring


def _neighbour_sets(g):
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _reference_greedy(g):
    """The set-based min-degree greedy (ties to the lowest id)."""
    nbrs = _neighbour_sets(g)
    deg = list(g.degrees())
    alive = set(range(g.n))
    chosen = []
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        chosen.append(v)
        dead = (nbrs[v] & alive) | {v}
        alive -= dead
        for w in dead:
            for x in nbrs[w]:
                if x in alive:
                    deg[x] -= 1
    return frozenset(chosen)


def _reference_round_once(vc, g, r, c):
    """The dict-of-sets conflict pass of threshold rounding."""
    selected = vc.vectors @ r >= c
    alive = set(np.nonzero(selected)[0].tolist())
    if not alive:
        return frozenset()
    eu, ev = g.edge_arrays()
    inside = selected[eu] & selected[ev]
    internal = list(zip(eu[inside].tolist(), ev[inside].tolist()))
    nbrs = {v: set() for v in alive}
    for u, v in internal:
        nbrs[u].add(v)
        nbrs[v].add(u)
    deg = {v: len(nbrs[v]) for v in alive}
    for u, v in internal:
        if u in alive and v in alive:
            drop = u if (deg[u] > deg[v] or (deg[u] == deg[v] and u < v)) else v
            alive.discard(drop)
            for w in nbrs[drop]:
                if w in alive:
                    deg[w] -= 1
    return frozenset(alive)


def bucket_index(degree, delta):
    """The scalar bucket index: j with (1+delta)^j <= degree < (1+delta)^{j+1}
    (degree >= 1), its log estimate corrected against the powers ** computes."""
    base = 1.0 + delta
    j = max(0, int(math.floor(math.log(degree) / math.log(base))))
    while base ** (j + 1) <= degree:
        j += 1
    while j > 0 and base ** j > degree:
        j -= 1
    return j


def _reference_collection(g, delta):
    """The candidate collection read from the dense n*n adjacency matrix, in
    first-occurrence order."""
    adj = g.adjacency_matrix()
    degs = np.asarray(g.degrees(), dtype=np.int64)
    jbucket = np.array([bucket_index(int(d), delta) if d >= 1 else -1
                        for d in degs], dtype=np.int64)
    out, seen = [], set()
    for v in range(g.n):
        nbrs = np.nonzero(adj[v])[0]
        for j in sorted(set(int(x) for x in jbucket[nbrs])):
            s_idx = nbrs[jbucket[nbrs] == j]
            d_s = adj[:, s_idx].sum(axis=1)
            touched = np.nonzero(d_s)[0]
            ibuckets = np.array([bucket_index(int(d_s[u]), delta)
                                 for u in touched], dtype=np.int64)
            for i in sorted(set(int(x) for x in ibuckets)):
                members = frozenset(int(u) for u in touched[ibuckets == i])
                if members not in seen:
                    seen.add(members)
                    out.append(CandidateSet(members, v, j, i))
    return tuple(out)


def _cases():
    for n in (40, 100, 150, 300):
        for p in (0.3, 0.5):
            yield planted_k_colorable(n, 4, p, seed=n).graph
    for n in (30, 60, 200):
        for p in (0.05, 0.2, 0.6):
            for seed in range(3):
                yield random_graph(n, p, seed=seed)
    yield Graph(0)
    yield Graph(1)
    yield Graph(9)  # edgeless
    for n in (2, 5, 12):
        yield complete_graph(n)
    for leaves in (1, 4, 20):
        yield star_graph(leaves)
    # A relabelled star: the centre is not the lowest id.
    yield Graph(6, [(3, v) for v in (0, 1, 2, 4, 5)])


CASES = list(_cases())


@pytest.mark.parametrize("g", CASES, ids=repr)
def test_greedy_matches_the_set_based_greedy(g):
    assert greedy_independent_set(g) == _reference_greedy(g)


def test_round_once_matches_the_set_based_conflict_pass():
    conflicts = 0
    for index, g in enumerate(CASES):
        rng = stream(index, "walk-draws")
        vecs = rng.standard_normal((g.n, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vc = VectorColoring(4.0, vecs, 1.0)
        for c in (0.0, 0.5, kms_threshold(vc.alpha, g.average_degree)):
            for _ in range(20):
                r = rng.standard_normal(4)
                want = _reference_round_once(vc, g, r, c)
                assert round_once(vc, g, r, c) == want
                selected = vecs @ r >= c
                conflicts += len(want) < np.count_nonzero(selected)
    assert conflicts >= 500  # the conflict pass ran, not just the selection


def _ranked(sets):
    """Largest first; equal sizes keep their first-occurrence order."""
    return tuple(sorted(sets, key=lambda cs: -len(cs.members)))


@pytest.mark.parametrize("delta", [0.05, 0.1, 1 / math.log(1000), 0.5, 1.0])
def test_vector_buckets_match_the_scalar_index(delta):
    d = np.arange(1, 20_001)
    want = [bucket_index(int(x), delta) for x in d]
    assert _buckets(d, delta).tolist() == want


@pytest.mark.parametrize("g", CASES, ids=repr)
def test_collection_matches_the_dense_matrix_collection(g):
    for delta in (default_delta(g.n), 0.5):
        assert (build_candidate_collection(g, delta)
                == _ranked(_reference_collection(g, delta)))


def test_collection_of_an_induced_subgraph():
    # G[W] as the finder hands it over: relabelled ids from a larger graph.
    g = planted_k_colorable(120, 4, 0.5, seed=7).graph
    w = stream(7, "walk-subset").choice(g.n, size=70, replace=False)
    sub, _ = induced_subgraph(g, w)
    delta = default_delta(sub.n)
    assert (build_candidate_collection(sub, delta)
            == _ranked(_reference_collection(sub, delta)))
