"""The combined coloring algorithm and its exponent sequence.

The color-count exponents are the exact rationals

    a_2 = 0,  a_3 = 3/14,
    a_k = 1 - 6 / (k + 4 + 3 (1 - 2/k) / (1 - a_{k-2}))   for k >= 4,

chosen so that (2 a_k/(1-2/k) - (1-a_k)/(1-a_{k-2})) * 3/k = 1 - a_k: the
independent sets produced by the candidate-collection route match the
n^{1-a_k} progress size.

One round of the finder on the current quotient graph (n vertices):

  1/2. k = 2 exact bipartite coloring; k = 3 via the degree-split fallback,
       whose n^{1/4} exponent (``route_exponent``) the result reports and a
       k = 5 pair probe's cutoff uses in place of a_3.
  3.   peel vertices of residual degree < n^{a_k/(1-2/k)} into U, core W.
  4.   |U| >= n/2: threshold rounding on G[U] gives a large independent set.
       It rounds the last solve's rows restricted to U when every vertex of
       U has one, and solves G[U] otherwise. The finder drops the rows when
       it claims a merge, so between a solve and its reuse the quotient only
       lost vertices: G[U] is an induced subgraph of the solved graph, so the
       restricted rows meet the solve's tolerance on every edge (restriction
       closure).
  5/6. otherwise probe the pair u,v in W with the largest common
       neighborhood S (when |S| >= n^{(1-a_k)/(1-a_{k-2})}): color G[S] with
       k-2 colors recursively; success within the cutoff extracts a large
       color class, failure proves u,v share a color and they are merged
       (a solver stall in the probe proves nothing and fails the run).
       For k-2 = 2 the recursion is its own exact k = 2 route, the BFS
       2-coloring of G[S], whose larger colour class (on a tie colour 0,
       the side of S's lowest id) is the set. The pair always exists: a
       round on more than CHROMATIC_GUARD vertices reaches this step with
       |W| > n/2 > 10, and the peel leaves each W vertex at least two
       neighbours in W (n^{a_k/(1-2/k)} > 1 for k >= 4), so |S| >= 1.
  7-9. no qualifying pair: rank the candidate collection on G[W] by size
       (``progress.candidate_sets``, which builds only the sets it reaches)
       and run the promise extractor on the largest CANDIDATE_CAP until one
       yields a set of size n^{1-a_k} up to the harness constant.

Every claim is re-verified by the driver before it is applied. A run is one
randomized pass from ``CombinedConfig.seed``; a failure (contradiction,
budget, or solver stall) is reported, not retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .graph import (
    CHROMATIC_GUARD,
    Coloring,
    Graph,
    NotKColorableError,
    brute_force_chromatic,
    exact_coloring,
    induced_subgraph,
    largest_color_class,
    two_coloring,
    verify_coloring,
)
from .indset import ak_independent_set, greedy_independent_set
from .progress import (
    Colored,
    ContractedGraph,
    LargeIndependentSet,
    SameColor,
    candidate_sets,
    default_delta,
    progress_driver,
)
from .rounding import kms_color, kms_independent_set
from .vecsdp import solve_vector_coloring


@lru_cache(maxsize=None)
def alpha_k(k: int) -> Fraction:
    """Exact color-count exponent for k-colorable graphs."""
    if k < 2:
        raise ValueError(f"exponent sequence starts at k = 2, got {k}")
    # A loop, not a recursion: k may pass the interpreter's recursion limit.
    a = Fraction(0) if k % 2 == 0 else Fraction(3, 14)
    for j in range(4 + k % 2, k + 1, 2):
        a = 1 - Fraction(6) / (j + 4 + 3 * (1 - Fraction(2, j)) / (1 - a))
    return a


def route_exponent(k: int) -> Fraction:
    """The colour-count exponent of the route that runs for k: a_k, but 1/4
    at k = 3, whose route is the degree split (color_three_fallback)."""
    return Fraction(1, 4) if k == 3 else alpha_k(k)


def cutoff(size: int, k: int) -> int:
    """Color-count threshold C0 * size^a * (1 + ln size)^2 (floored), a the
    exponent of k's route: the colour budget of a run and the success bar
    of a recursive pair probe."""
    if size < 1:
        raise ValueError(f"cutoff needs a positive size, got {size}")
    if k < 2:
        raise ValueError(f"cutoff needs k >= 2, got {k}")
    a = float(route_exponent(k))
    return max(1, int(C0 * size ** a * (1.0 + math.log(size)) ** 2))


C0 = 4.0                 # the constant of cutoff
SIZE_FLOOR_CONST = 4.0   # step-9 acceptance divisor
CANDIDATE_CAP = 8        # step-9 candidate probes per round
SOLVER_BUDGET = 1600     # descent budget of each low-degree round's solve
INDSET_BUDGET = 3000     # independence-SDP budget of each candidate probe
# Declarations stay auditable: general ones up to the exact oracle's size
# guard, 2-colorability ones up to 80 (bipartiteness is exact at any size).
DECLARATION_LIMIT = 30
DECLARATION_LIMIT_BIPARTITE = 80


@dataclass(frozen=True)
class CombinedConfig:
    """The caller-set parameters of the combined algorithm."""

    trials: int = 64
    seed: int = 0


@dataclass(frozen=True)
class Declaration:
    """One step-6 "not (k-2)-colorable" inference, kept for oracle audits.

    ``sub`` is the probed common-neighborhood subgraph in its local
    indexing; only subgraphs up to DECLARATION_LIMIT vertices (80 when
    k = 2) are recorded.
    """

    sub: Graph
    k: int  # the number of colors the subgraph was declared to exceed


@dataclass
class CombinedResult:
    n: int
    k: int
    coloring: Coloring | None
    failure: tuple[str, str] | None  # NotKColorableError (kind, message)
    seed: int
    declarations: list[Declaration] = field(default_factory=list)

    @property
    def colors_used(self) -> int | None:
        return self.coloring.colors_used if self.coloring is not None else None

    @property
    def alpha_exponent(self) -> Fraction:
        """The exponent of the route that ran; a_k at n = 0, where none does."""
        return route_exponent(self.k) if self.n > 0 else alpha_k(self.k)

    @property
    def k3_fallback(self) -> bool:
        """Whether the run took the k = 3 degree split."""
        return self.k == 3 and self.n > 0

    @property
    def repeats_used(self) -> int:
        """Attempts the run made: 1, whether it coloured or failed."""
        return (self.failure is not None) + (self.coloring is not None)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "colors_used": self.colors_used,
            "coloring": (list(self.coloring.assignment)
                         if self.coloring is not None else None),
            "failure": self.failure and (
                "not k-colorable or algorithm failure: %s: %s" % self.failure),
            "alpha_k": str(self.alpha_exponent),
            "bound_n_pow_alpha": float(self.n ** float(self.alpha_exponent)),
            "seed": self.seed,
            "k3_fallback": self.k3_fallback,
        }


# ---------------------------------------------------------------------------
# k = 3 fallback: high-degree neighborhood splitting + threshold rounding
# ---------------------------------------------------------------------------

def color_three_fallback(g: Graph, cfg: CombinedConfig) -> Coloring:
    """Color a 3-colorable graph with roughly n^{1/4} polylog colors.

    While a vertex of degree >= n^{3/4} exists, its neighborhood must be
    bipartite in a 3-colorable graph (a non-bipartite neighborhood is a
    sound "not 3-colorable" witness) and is finished with two fresh colors;
    the low-degree remainder goes to threshold-rounding coloring.
    """
    assignment = np.full(g.n, -1, dtype=np.int64)
    next_color = 0
    while True:
        verts = np.flatnonzero(assignment < 0)
        sub = induced_subgraph(g, verts)[0]
        v_star = int(np.argmax(sub.degrees()))  # ties to the lowest id
        if sub.degree(v_star) < sub.n ** 0.75:
            # kms_color tries the exact coloring first.
            col = kms_color(sub, 3, trials=cfg.trials, seed=cfg.seed)
            break
        col = exact_coloring(sub)
        if col is not None:
            break
        # v* never joins its own neighborhood, so some vertex stays
        # uncoloured across splits.
        nbrs = sub.neighbors(v_star)
        split = two_coloring(induced_subgraph(sub, nbrs)[0])
        if split is None:
            raise NotKColorableError(
                "witness",
                "a vertex neighborhood is not bipartite, so the graph "
                "is not 3-colorable")
        assignment[verts[nbrs]] = next_color + np.array(split.assignment)
        next_color += 2
    assignment[verts] = next_color + np.array(col.assignment)
    return Coloring(tuple(assignment.tolist()))


# ---------------------------------------------------------------------------
# The per-round finder for k >= 4
# ---------------------------------------------------------------------------

def _best_pair(cg: ContractedGraph, w_ids: np.ndarray) -> tuple[int, int, int]:
    """The pair in W with the most common neighbours in the quotient (the
    first in row-major order on ties) and that count.

    The finder calls it only on a peeled core W of more than 10 vertices
    (|U| < n/2 with n > 20), in which every vertex keeps at least
    n^{a_k/(1-2/k)} > 1, so at least 2, neighbours: two neighbours of one
    W vertex share it, so the count is at least 1 and i != j."""
    common = cg.common_neighbour_counts(w_ids)
    i, j = divmod(int(np.argmax(common)), len(w_ids))
    # i < j, as the first maximum of a symmetric matrix lies above its
    # diagonal, and w_ids is sorted, so u < v.
    return int(w_ids[i]), int(w_ids[j]), int(common[i, j])


class _CombinedFinder:
    """Progress finder realizing peeling, pair probes, and candidate probes.

    Holds no graph state: each round reads the ContractedGraph it is handed,
    and every returned vertex id is a quotient representative (= base id),
    which is what the driver verifies against; claims carry int64 arrays
    indexed out of the quotient's own. Across rounds it keeps only the
    round counter and the last solve's result, with each base id's row
    index in its rows (-1 for none), for restriction to U; it drops both
    when it claims a merge.
    """

    def __init__(self, k: int, cfg: CombinedConfig,
                 declarations: list[Declaration]):
        self.k = k
        self.cfg = cfg
        self.declarations = declarations
        self.round_no = 0
        self._solved = None  # the last solve's result
        self._row_of: np.ndarray | None = None  # base id -> row index, or -1

    def __call__(self, cg: ContractedGraph):
        self.round_no += 1
        k = self.k
        n = cg.alive_count
        if n <= CHROMATIC_GUARD:
            return Colored(brute_force_chromatic(cg.quotient_graph()[0]))
        ak = float(alpha_k(k))
        u_ids, w_ids = cg.peel(n ** (ak / (1.0 - 2.0 / k)))
        if len(u_ids) >= n / 2:
            return self._round_low_degree(cg, u_ids)
        u, v, count = _best_pair(cg, w_ids)
        if count >= n ** ((1.0 - ak) / (1.0 - float(alpha_k(k - 2)))):
            return self._probe_pair(cg, u, v)
        return self._candidate_round(cg, w_ids, n, ak)

    def _round_low_degree(self, cg: ContractedGraph, u_ids: np.ndarray):
        sub = cg.induced(u_ids)
        if sub.m == 0:
            return LargeIndependentSet(u_ids)
        rng_seed = self.cfg.seed * 1009 + self.round_no
        if self._row_of is not None and (at := self._row_of[u_ids]).min() >= 0:
            # Restriction closure: only deletions happened since the solve,
            # so G[U] is an induced subgraph of the solved one.
            vc = replace(self._solved, vectors=self._solved.vectors[at])
        else:
            self._solved = vc = solve_vector_coloring(
                sub, float(self.k), budget=SOLVER_BUDGET, seed=rng_seed)
            self._row_of = np.full(cg.base.n, -1, dtype=np.int64)
            self._row_of[u_ids] = np.arange(u_ids.size)
        chosen = kms_independent_set(sub, vc, trials=self.cfg.trials,
                                     seed=rng_seed)
        return LargeIndependentSet(u_ids[sorted(chosen)])

    def _probe_pair(self, cg: ContractedGraph, u: int, v: int):
        s_ids = cg.common_neighbours(u, v)
        k2 = self.k - 2
        sub = cg.induced(s_ids)
        probe_cfg = replace(self.cfg, trials=max(8, self.cfg.trials // 2))
        result = combined_color(sub, k2, probe_cfg)
        if (result.coloring is not None
                and result.colors_used <= cutoff(sub.n, k2)):
            cls = largest_color_class(result.coloring)
            return LargeIndependentSet(s_ids[sorted(cls)])
        if result.coloring is None:
            kind, msg = result.failure
            if kind == "solver":
                # A stalled solver says nothing about S: neither a merge
                # nor a contradiction may rest on it, so the whole run
                # fails as "solver".
                raise NotKColorableError(
                    "solver", f"{k2}-coloring probe of pair {u},{v}: {msg}")
        limit = DECLARATION_LIMIT_BIPARTITE if k2 == 2 else DECLARATION_LIMIT
        if len(s_ids) <= limit:
            self.declarations.append(Declaration(sub, k2))
        if cg.has_edge(u, v):
            # Adjacent endpoints can never share a color: together with the
            # failed probe this certifies the graph is not k-colorable.
            raise NotKColorableError("contradiction", f"adjacent pair {u},{v} "
                                     "has a common neighborhood needing more "
                                     f"than {k2} colors")
        # The merge gives v's edges to u, which the cached rows never saw.
        self._solved = self._row_of = None
        return SameColor(u, v)

    def _candidate_round(self, cg: ContractedGraph, w_ids: np.ndarray,
                         n: int, ak: float):
        wsub = cg.induced(w_ids)
        largest = islice(candidate_sets(wsub, default_delta(n)), CANDIDATE_CAP)
        floor_size = max(1, int(n ** (1.0 - ak) / SIZE_FLOOR_CONST))
        alpha_probe = (self.k - 1) + 3.0 / math.log(max(n, 3))
        for rank, cs in enumerate(largest):
            tsub, verts = induced_subgraph(wsub, cs.members)
            found = ak_independent_set(
                tsub, alpha_probe, trials=max(8, self.cfg.trials // 4),
                seed=self.cfg.seed * 131 + self.round_no * 17 + rank,
                solver_budget=INDSET_BUDGET)
            if len(found) >= floor_size:
                return LargeIndependentSet(w_ids[verts[sorted(found)]])
        # Last resort: greedy progress keeps the driver moving; the color
        # budget polices the overall count.
        quotient, reps = cg.quotient_graph()
        return LargeIndependentSet(reps[sorted(greedy_independent_set(quotient))])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def combined_color(g: Graph, k: int, cfg: CombinedConfig | None = None) -> CombinedResult:
    """Color g with roughly n^{a_k} polylog colors when g is k-colorable.

    Always returns a CombinedResult; the coloring (when present) is proper
    regardless of whether g was k-colorable. The run is one pass from
    cfg.seed: a failure (contradiction, color budget, solver stall) is
    reported as it happened.
    """
    if cfg is None:
        cfg = CombinedConfig()
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if cfg.trials < 1:
        raise ValueError(f"need at least one trial, got {cfg.trials}")
    declarations: list[Declaration] = []
    try:
        if g.n == 0:
            coloring = Coloring(())
        elif k >= 4:  # the driver verifies its own coloring
            finder = _CombinedFinder(k, cfg, declarations)
            coloring = progress_driver(g, finder=finder, budget=cutoff(g.n, k))
        else:
            coloring = (two_coloring(g) if k == 2
                        else color_three_fallback(g, cfg))
            if coloring is None:
                raise NotKColorableError("witness", "graph is not bipartite")
            if not verify_coloring(g, coloring):
                raise AssertionError(
                    f"the k = {k} route produced an improper coloring")
    except NotKColorableError as exc:
        return CombinedResult(g.n, k, None, (exc.kind, str(exc)), cfg.seed,
                              declarations)
    return CombinedResult(g.n, k, coloring, None, cfg.seed, declarations)
