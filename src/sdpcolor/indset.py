"""Independent-set extraction from graphs with a large independence ratio.

Given the promise that g contains an independent set of size n/alpha, the
extractor solves the independence-number relaxation, keeps the well-aligned
subset S (which carries a vector alpha'-coloring of G[S]), and then runs the
recursive max-of-two-branches scheme: threshold rounding on the current
subgraph versus recursion into the neighborhood of a maximum-degree vertex at
parameter alpha' - 1. The guaranteed size exponent is

    f(alpha) = alpha (alpha - 1) / (k (alpha (alpha - k) + (k-1)(k+1)/3)),

with k = floor(alpha), which satisfies f(alpha) = 1/(1 + (1 - 2/alpha) /
f(alpha - 1)) and reduces to 3/(k+1) at integers.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (
    Graph,
    largest_color_class,
    two_coloring,
    verify_independent_set,
)
from .rounding import kms_independent_set, lex_best
from .vecsdp import (
    PromiseNotMetError,
    VectorColoring,
    neighborhood_reduce,
    solve_indset_sdp,
    well_aligned_subset,
)


def f_exponent(alpha: float) -> float:
    """Size exponent of the extractable independent set; continuous, equal to
    1 on [1, 2] and to 3/(k+1) at every integer k >= 2."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if alpha <= 2.0:
        return 1.0
    k = math.floor(alpha)
    if alpha == k:
        return 3.0 / (k + 1)
    return alpha * (alpha - 1.0) / (k * (alpha * (alpha - k) + (k - 1) * (k + 1) / 3.0))


def greedy_independent_set(g: Graph) -> frozenset[int]:
    """Deterministic min-degree greedy (ties to the lowest id, argmin's
    first index). ``deg`` is n at removed vertices; each pick takes one
    ``bincount`` of the removed vertices' gathered neighbours off it."""
    n = g.n
    deg = g.degrees().copy()
    alive = np.ones(n, dtype=bool)
    chosen = []
    while alive.any():
        v = int(np.argmin(deg))
        chosen.append(v)
        nbrs = g.neighbors(v)
        dead = np.append(nbrs[alive[nbrs]], v)
        alive[dead] = False
        deg[dead] = n
        deg -= np.bincount(g.neighbors_of(dead), minlength=n) * alive
    return frozenset(chosen)


def l2_vector_indset(g: Graph, vc: VectorColoring, trials: int = 64,
                     seed: int = 0) -> frozenset[int]:
    """Independent set from a vector coloring: max of threshold rounding and
    the neighborhood recursion at parameter alpha - 1 on G[N(v*)], v* a
    maximum-degree vertex. ``neighborhood_reduce`` cannot fail on geometry,
    so every level with alpha > 2 recurses; at alpha < 3 that recursion is
    the base case.

    Base case floor(alpha) = 1: a vector alpha-colorable graph with alpha < 2
    has no edges, so the whole vertex set is returned; residual edges (a
    numerics artifact) fall back to the greedy set. trials are shared across
    recursion levels with a floor of 8 per level. Each level lowers alpha by
    one on a strictly smaller neighbourhood, so the recursion terminates.
    """
    if g.m == 0:
        return frozenset(range(g.n))
    if vc.alpha < 2.0:
        return greedy_independent_set(g)
    if vc.alpha <= 2.0:
        # Vector 2-colorable means bipartite; take the larger side.
        col = two_coloring(g)
        return (frozenset(largest_color_class(col)) if col is not None
                else greedy_independent_set(g))

    trials_here = max(8, trials // 4)
    branch_a = kms_independent_set(g, vc, trials=trials_here, seed=seed)

    # g has an edge, so the maximum-degree vertex has a neighbour.
    v_star = int(np.argmax(g.degrees()))  # ties to the lowest id
    red = neighborhood_reduce(vc, g, v_star, seed=seed)
    inner = l2_vector_indset(red.graph, red.coloring, trials, seed + 1)
    branch_b = frozenset(red.vertices[list(inner)].tolist())

    return lex_best(branch_a, branch_b)


def ak_independent_set(g: Graph, alpha: float, trials: int = 64, seed: int = 0,
                       solver_budget: int = 6000) -> frozenset[int]:
    """Independent set under the promise of one of size >= n/alpha.

    Pipeline: independence-number relaxation at vecsdp.EPS, well-aligned
    subset with its vector alpha'-coloring, then recursive extraction on it.
    Best-effort when the promise fails (the aligned extraction refuses):
    returns the greedy set instead of erroring. The output is always
    verified independent. An alpha that is not finite or below 1, and
    trials below 1, raise ValueError at entry.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and at least 1, got {alpha}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if g.m == 0:
        return frozenset(range(g.n))
    if g.n < 3:
        return greedy_independent_set(g)
    sol = solve_indset_sdp(g, budget=solver_budget, seed=seed)
    try:
        res = well_aligned_subset(sol, g, max(alpha, 2.0), seed=seed)
    except PromiseNotMetError:
        return greedy_independent_set(g)
    # The aligned subgraph is dominated by the promised independent set, so
    # the greedy baseline on it is often strong; keep the max.
    inner = lex_best(l2_vector_indset(res.graph, res.coloring, trials, seed),
                     greedy_independent_set(res.graph))
    out = frozenset(res.vertices[list(inner)].tolist())
    if not verify_independent_set(g, out):
        # The recursion only returns verified pieces, so this is a bug trap.
        raise AssertionError("extraction produced a dependent set")
    return out
