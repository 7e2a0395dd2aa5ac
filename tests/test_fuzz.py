"""Seeded fuzz over small graphs.

Each family is drawn from the in-repo ``stream``, so every case is pinned by
its seed. The properties: ``combined_color`` ends in a verified colouring or
a typed failure and never raises, and the edge dots of ``_EdgeSums`` agree
with the gathered row products on both of its branches, also when the graph
has fewer vertices than the solver width.
"""

import numpy as np
import pytest

from sdpcolor._rng import stream
from sdpcolor.combined import CombinedConfig, combined_color
from sdpcolor.graph import Graph, verify_coloring
from sdpcolor.testkit import complete_graph
from sdpcolor.vecsdp import _EdgeSums, _edge_dots

FAILURE_KINDS = {"witness", "solver", "budget", "contradiction"}


def _gnp(n, p, seed, offset=0):
    """G(n, p) drawn from the fuzz stream, its vertices shifted by offset."""
    rng = stream(seed, "fuzz", n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return [(int(a) + offset, int(b) + offset) for a, b in zip(iu[keep], iv[keep])]


def _graphs(k, seed):
    """Small graphs; the last three have more vertices than the exact
    finish takes (``CHROMATIC_GUARD``), so the solver runs on them."""
    disconnected = (_gnp(10, 0.6, seed) + _gnp(12, 0.4, seed + 1, offset=10)
                    + [(22 + u, 22 + v) for u, v in complete_graph(k).edges])
    return {
        "empty": Graph(0),
        "single-vertex": Graph(1),
        "two-isolated": Graph(2),
        "one-edge": Graph(2, [(0, 1)]),
        "clique-k+1": complete_graph(k + 1),
        "disconnected": Graph(22 + k, disconnected),
        "dense": Graph(30, _gnp(30, 0.6, seed)),
        "sparse": Graph(40, _gnp(40, 0.08, seed)),
    }


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_combined_color_ends_verified_or_typed(k, seed):
    for name, g in _graphs(k, seed).items():
        res = combined_color(g, k, CombinedConfig(trials=8, seed=seed))
        if res.coloring is not None:
            assert verify_coloring(g, res.coloring), name
            assert res.failure is None, name
        else:
            kind, message = res.failure
            assert kind in FAILURE_KINDS and message, name


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_edge_sums_dots_match_gathered_products(dtype, tol):
    seen = set()
    for k in (2, 3, 4, 5):
        for seed in (0, 1):
            for name, g in _graphs(k, seed).items():
                if g.m == 0:
                    continue
                eu, ev = g.edge_arrays()
                for d in (3, 16, 48):
                    rng = stream(seed, "fuzz-dots", k, d)
                    x = rng.standard_normal((g.n, d))
                    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(dtype)
                    sums = _EdgeSums(eu, ev, x.shape, dtype)
                    got = np.empty(g.m, dtype)
                    sums.dots(x, got)
                    want = _edge_dots(x, eu, ev)
                    branch = "gram" if sums.by_gram else "gather"
                    seen.add((branch, g.n < d))
                    if branch == "gather":
                        assert np.array_equal(got, want), name
                    else:
                        assert np.abs(got - want).max() <= tol, name
    # Both branches ran, each with fewer and with more vertices than the
    # width: width 16 gathers on the sparse 40-vertex graph.
    assert seen == {(b, small) for b in ("gather", "gram") for small in (True, False)}
