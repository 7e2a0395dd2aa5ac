"""Gaussian threshold rounding of vector colorings.

A random direction r selects I = {i : v_i . r >= c}; deleting one endpoint
per surviving edge leaves an independent set. The threshold uses the refined
value

    c = sqrt((1 - 2/alpha) (2 ln D - ln ln D)),   D = average degree,

whose extra -ln ln D term buys the polylogarithmic improvement over the
classical sqrt((1 - 2/alpha) 2 ln D) choice (``testkit.classic_threshold``,
kept for the comparison experiments). Logarithms are natural; D is clamped
below by e so ln ln D is defined. ``kms_independent_set`` derives c from the
vector coloring's alpha and the graph's average degree, so the threshold is
chosen in this module alone; ``round_once`` takes an explicit c for the
experiments that compare two thresholds on shared draws.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ._rng import stream
from .graph import (Coloring, Graph, NotKColorableError, exact_coloring,
                    induced_subgraph, two_coloring, verify_coloring)
from .vecsdp import VectorColoring, solve_vector_coloring


def kms_threshold(alpha: float, d_avg: float) -> float:
    """Refined rounding threshold sqrt((1 - 2/alpha)(2 ln D - ln ln D))."""
    if not alpha > 2.0:  # also refuses NaN
        raise ValueError(f"threshold needs alpha > 2, got {alpha}")
    d = max(d_avg, math.e)
    return math.sqrt((1.0 - 2.0 / alpha) * (2.0 * math.log(d) - math.log(math.log(d))))


def round_once(vc: VectorColoring, g: Graph, r: np.ndarray, c: float) -> frozenset[int]:
    """One threshold pass: select {i : v_i . r >= c}, then delete one endpoint
    of every surviving edge (higher residual internal degree first, ties to
    the lower id) so the result is always independent. Works on the
    selection mask and a degree array, lowered at a dropped vertex's CSR
    neighbours."""
    if vc.n != g.n:
        raise ValueError(f"vector coloring has {vc.n} rows for {g.n} vertices")
    alive = vc.vectors @ r >= c
    if not alive.any():  # most draws at the benchmark thresholds
        return frozenset()
    eu, ev = g.edge_arrays()
    inside = alive[eu] & alive[ev]
    iu, iv = eu[inside], ev[inside]
    deg = np.bincount(np.concatenate((iu, iv)), minlength=g.n)
    # The edge arrays are sorted, a fixed scan order, and u < v, so a tie
    # drops u, the lower id.
    for u, v in zip(iu.tolist(), iv.tolist()):
        if alive[u] and alive[v]:
            drop = u if deg[u] >= deg[v] else v
            alive[drop] = False
            deg[g.neighbors(drop)] -= 1
    return frozenset(np.flatnonzero(alive).tolist())


def lex_best(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """The larger set; between equal sizes the one whose sorted members come
    first lexicographically (a on a tie), so reductions over many sets do
    not depend on their order."""
    if len(a) != len(b):
        return a if len(a) > len(b) else b
    return a if sorted(a) <= sorted(b) else b


def kms_independent_set(g: Graph, vc: VectorColoring, trials: int = 64,
                        seed: int = 0) -> frozenset[int]:
    """Best rounded set over ``trials`` independent Gaussian draws at the
    threshold c = kms_threshold(vc.alpha, g.average_degree).

    The draws are consecutive standard_normal(vc.dim) vectors of one
    stream(seed, "kms-trial"), opened once per call. Ties go to the
    lexicographically smallest set, so the reduction is schedule-independent.
    While every draw so far has selected nothing, it keeps drawing past
    ``trials`` (Las Vegas amplification; no bound changes), up to 16 *
    trials draws. Never empty for n >= 1: after that cap it falls back to a
    single minimum-degree vertex.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    c = kms_threshold(vc.alpha, g.average_degree)
    rng = stream(seed, "kms-trial")
    best: frozenset[int] = frozenset()
    trial = 0
    while trial < trials or (not best and trial < 16 * trials):
        r = rng.standard_normal(vc.dim)
        best = lex_best(best, round_once(vc, g, r, c))
        trial += 1
    if not best and g.n >= 1:
        best = frozenset([int(np.argmin(g.degrees()))])  # ties to the lowest id
    return best


def kms_color(g: Graph, k: int, trials: int = 64, seed: int = 0) -> Coloring:
    """Color a vector k-colorable graph by repeated threshold rounding.

    The vector coloring is solved once, at ``vecsdp.EPS``, and restricted to
    each residual subgraph (restriction closure), so each residual's
    threshold follows its own average degree. At k = 2 the answer is the
    exact 2-coloring at every size; at larger k tiny and bipartite graphs
    get their exact coloring instead. k below 2 and trials below 1 raise
    ValueError before anything is solved. Failures raise
    NotKColorableError: kind "solver" (its subclass InfeasibleError) on a
    solver stall, "witness" on a graph that is not bipartite at k = 2.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    result = two_coloring(g) if k == 2 else exact_coloring(g)
    if result is None and k == 2:
        raise NotKColorableError("witness", "graph is not bipartite")
    if result is None:
        vc = solve_vector_coloring(g, float(k), seed=seed)
        assignment = np.full(g.n, -1, dtype=np.int64)
        color = 0
        while (remaining := np.flatnonzero(assignment < 0)).size:
            # remaining is sorted and distinct: its rows are the
            # restriction to the induced subgraph, taken without a mask.
            sub = induced_subgraph(g, remaining)[0]
            rows = replace(vc, vectors=vc.vectors[remaining])
            chosen = kms_independent_set(sub, rows, trials=trials,
                                         seed=seed * 1000003 + color)
            assignment[remaining[list(chosen)]] = color
            color += 1
        result = Coloring(tuple(assignment.tolist()))
    if not verify_coloring(g, result):
        raise AssertionError("kms_color produced an improper coloring")
    return result

