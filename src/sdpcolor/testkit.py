"""Instance generators, exact oracles and checks of the paper's claims.

The planted generator produces k-colorable graphs with a known hidden
partition; the brute-force routines give exact ground truth on small graphs;
the claim checks and experiment helpers measure the paper's statements
against them. All randomness comes from PCG64 streams (see _rng), so
identical (n, k, p, seed) always yields the identical edge set. No library
module imports this one; the exact coloring it re-exports lives in graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ._rng import stream
from .analysis import (
    WedgeSpec,
    _wedge_integrand,
    adaptive_quadrature,
    wedge_probability_exact,
)
from .combined import alpha_k
from .graph import (  # the exact coloring is re-exported from here
    CHROMATIC_GUARD,
    Coloring,
    Graph,
    SizeGuardError,
    _adjacency_masks,
    _greedy_clique,
    _try_k_coloring,
    brute_force_chromatic,
    read_dimacs,
    write_dimacs,
)
from .progress import CandidateSet
from .rounding import kms_threshold, round_once
from .vecsdp import IndSetSdpSolution, VectorColoring


# ---------------------------------------------------------------------------
# Planted instances and random graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantedInstance:
    """A graph with a hidden proper k-partition used as ground truth."""

    graph: Graph
    classes: tuple[tuple[int, ...], ...]
    k: int
    p: float
    seed: int

    def planted_coloring(self) -> Coloring:
        return Coloring(tuple(self.class_of()))

    def class_of(self) -> list[int]:
        out = [0] * self.graph.n
        for color, cls in enumerate(self.classes):
            for v in cls:
                out[v] = color
        return out


def planted_k_colorable(n: int, k: int, p: float, seed: int = 0) -> PlantedInstance:
    """Random k-partite graph: balanced hidden classes, cross pairs i.i.d. with prob p.

    Class sizes differ by at most one; membership is a seeded permutation so
    vertex ids carry no class information. Same-class pairs are never edges.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = stream(seed, "planted", n, k)
    perm = rng.permutation(n)
    parts = np.array_split(perm, k)  # the first n mod k one vertex larger
    class_of = np.empty(n, dtype=np.int64)
    class_of[perm] = np.repeat(np.arange(k), [part.size for part in parts])
    iu, iv = np.triu_indices(n, k=1)
    cross = class_of[iu] != class_of[iv]
    iu, iv = iu[cross], iv[cross]
    keep = rng.random(iu.shape[0]) < p
    # triu_indices is row-major: the kept pairs are sorted, u < v, distinct.
    return PlantedInstance(Graph._from_arrays(n, iu[keep], iv[keep]),
                           tuple(tuple(sorted(part.tolist())) for part in parts),
                           k, float(p), int(seed))


def degree_capped_planted(n: int, k: int, p: float, d: int,
                          seed: int = 0) -> PlantedInstance:
    """``planted_k_colorable(n, k, p, seed)`` with every degree capped at d:
    its edges are visited in the order of a permutation drawn from
    ``stream(seed, "capped", n, k)``, and each is kept while both endpoints'
    degrees are still below d. Capping removes the peel cascade of uniform
    planted graphs, so ``combined_color`` reaches its candidate round
    (steps 7-9) on this family."""
    inst = planted_k_colorable(n, k, p, seed)
    eu, ev = inst.graph.edge_arrays()
    keep, deg = np.zeros(eu.size, dtype=bool), [0] * n
    for t in stream(seed, "capped", n, k).permutation(eu.size).tolist():
        u, v = int(eu[t]), int(ev[t])
        if deg[u] < d and deg[v] < d:
            keep[t], deg[u], deg[v] = True, deg[u] + 1, deg[v] + 1
    # The kept edges stay in the planted graph's sorted order.
    return replace(inst, graph=Graph._from_arrays(n, eu[keep], ev[keep]))


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), deterministic given the seed."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = stream(seed, "gnp", n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return Graph._from_arrays(n, iu[keep], iv[keep])  # sorted, as above


# ---------------------------------------------------------------------------
# Named small graphs
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete_multipartite(sizes: list[int]) -> Graph:
    part = np.repeat(np.arange(len(sizes)), sizes)
    n = part.size
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return Graph(n, edges)


def petersen_graph() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return Graph(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Exact oracles (bitset branch and bound / backtracking)
# ---------------------------------------------------------------------------

MIS_GUARD = 40
K_COLORABLE_GUARD = 30


def _clique_cover_bound(cand: int, masks: list[int]) -> int:
    # Greedy clique cover of the candidate set: an independent set picks at
    # most one vertex per clique, so the cover size is an upper bound.
    count = 0
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= ~_greedy_clique(v, cand & masks[v], masks)
        count += 1
    return count


def brute_force_mis(g: Graph) -> set[int]:
    """A maximum independent set (exact; lexicographically smallest maximum).

    Branch and bound over bitsets with a greedy-clique-cover bound; include
    branches are explored lowest-vertex-first, and before any maximum is known
    the bound cannot prune a subtree containing one, so the first maximum
    found is the lexicographically smallest.
    """
    if g.n > MIS_GUARD:
        raise SizeGuardError(f"brute_force_mis guard is n <= {MIS_GUARD}, got {g.n}")
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    best = {"mask": 0, "size": 0}

    def visit(cand: int, current: int, size: int) -> None:
        if size > best["size"]:
            best["size"] = size
            best["mask"] = current
        if not cand:
            return
        if size + _clique_cover_bound(cand, masks) <= best["size"]:
            return
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        visit(cand & ~(bit | masks[v]), current | bit, size + 1)
        visit(cand & ~bit, current, size)

    visit(full, 0, 0)
    mask = best["mask"]
    return {v for v in range(g.n) if mask >> v & 1}


def is_k_colorable(g: Graph, k: int) -> bool:
    """Exact decision for small graphs (guarded)."""
    if g.n > K_COLORABLE_GUARD:
        raise SizeGuardError(
            f"is_k_colorable guard is n <= {K_COLORABLE_GUARD}, got {g.n}")
    if k >= g.n or g.max_degree < k:
        return k >= 1 or g.n == 0
    return _try_k_coloring(g, k, _adjacency_masks(g)) is not None


# ---------------------------------------------------------------------------
# Persistence: planted fixtures (DIMACS graph + JSON sidecar with the hidden
# partition) and vector colorings (JSON)
# ---------------------------------------------------------------------------

def save_fixture(inst: PlantedInstance, basepath: str) -> tuple[str, str]:
    """Write <basepath>.col and <basepath>.json; returns both paths."""
    col = basepath + ".col"
    sidecar = basepath + ".json"
    write_dimacs(inst.graph, col)
    payload = {
        "k": inst.k,
        "p": inst.p,
        "seed": inst.seed,
        "classes": [list(c) for c in inst.classes],
    }
    with open(sidecar, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return col, sidecar


def load_fixture(basepath: str) -> PlantedInstance:
    graph = read_dimacs(basepath + ".col")
    with open(basepath + ".json", "r", encoding="ascii") as fh:
        payload = json.load(fh)
    classes = tuple(tuple(int(v) for v in c) for c in payload["classes"])
    return PlantedInstance(graph, classes, int(payload["k"]),
                           float(payload["p"]), int(payload["seed"]))


# ---------------------------------------------------------------------------
# Vectors: exact configurations and checks of solver output
# ---------------------------------------------------------------------------

def simplex_vectors(count: int, dim: int | None = None) -> np.ndarray:
    """count unit vectors with pairwise inner product exactly -1/(count-1)."""
    if count < 2:
        raise ValueError("simplex needs at least 2 vectors")
    d = count - 1 if dim is None else dim
    if d < count - 1:
        raise ValueError(f"simplex on {count} vectors needs dimension >= {count - 1}")
    eye = np.eye(count)
    centered = eye - eye.mean(axis=0, keepdims=True)
    # Rows of `centered` live in a (count-1)-dim subspace; orthonormalize it.
    q, _ = np.linalg.qr(centered.T)
    coords = centered @ q[:, :count - 1]
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    out = np.zeros((count, d))
    out[:, :count - 1] = coords
    return out


class DegenerateProjectionError(ValueError):
    """A vector was too close to +-axis for a stable orthogonal projection."""


def project_orthogonal(v0: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """Normalized projection of v onto the hyperplane orthogonal to v0."""
    residual = v - float(v0 @ v) * v0
    norm = float(np.linalg.norm(residual))
    if norm <= eps:
        raise DegenerateProjectionError(
            f"vector within {eps:g} of +-span(v0); projection is unstable")
    return residual / norm


def is_feasible_for(vc: VectorColoring, g: Graph) -> bool:
    """vc's norms and edge inner products are within its eps on g."""
    return vc.norm_residual() <= vc.eps and vc.edge_residual(g) <= vc.eps


def alignment_sum(sol: IndSetSdpSolution) -> float:
    """sum over vertices of v0 . v_i."""
    return float((sol.vectors @ sol.v0).sum())


def constraint_residual(sol: IndSetSdpSolution, g: Graph) -> float:
    """max over edges of |(v0 + v_u) . (v0 + v_v)|; 0 without edges."""
    if g.m == 0:
        return 0.0
    eu, ev = g.edge_arrays()
    p = sol.vectors + sol.v0
    return float(np.abs((p[eu] * p[ev]).sum(axis=1)).max())


# ---------------------------------------------------------------------------
# Claim checks and experiment helpers
# ---------------------------------------------------------------------------

def wedge_q_quadrature(w: WedgeSpec) -> float:
    """Q(beta) = (1/pi) int_0^beta e^{-c^2/(2 sin^2 t)} (2 sin^2 t + tan^2 t) dt."""
    base = _wedge_integrand(w.c)

    def f(t: float) -> float:
        v = base(t)
        if v == 0.0:
            return 0.0
        s = math.sin(t)
        return v * (2.0 * s * s + (s / math.cos(t)) ** 2)

    return adaptive_quadrature(f, 0.0, w.beta) / math.pi


def wedge_q_identity(w: WedgeSpec) -> float:
    """Q(beta) via integration by parts: B(beta) e^{-c^2/(2 sin^2 b)} - c^2 P(beta)."""
    sb = math.sin(w.beta)
    b_coef = sb ** 3 / (math.pi * math.cos(w.beta))
    decay = math.exp(-w.c * w.c / (2.0 * sb * sb))
    return b_coef * decay - w.c * w.c * wedge_probability_exact(w)


def step9_identity_holds(k: int) -> bool:
    """Exact check of (2a_k/(1-2/k) - (1-a_k)/(1-a_{k-2})) * 3/k == 1 - a_k."""
    if k < 4:
        raise ValueError("the identity applies for k >= 4")
    a = alpha_k(k)
    prev = alpha_k(k - 2)
    lhs = (2 * a / (1 - Fraction(2, k)) - (1 - a) / (1 - prev)) * Fraction(3, k)
    return lhs == 1 - a


def find_pigeon_index(x, y, delta: float, beta: float | None = None) -> int:
    """Index i with x_i >= delta * mean(x) and x_i >= (1-delta) * beta * y_i.

    beta defaults to sum(x)/sum(y). Existence is guaranteed for nonnegative
    sequences with sum(x) >= beta * sum(y); raises if the inputs break that
    contract.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y) or not x:
        raise ValueError("need two equal-length nonempty sequences")
    if min(x) < 0 or min(y) < 0:
        raise ValueError("sequences must be nonnegative")
    total_x = sum(x)
    if beta is None:
        total_y = sum(y)
        beta = total_x / total_y if total_y > 0 else float("inf")
    mean_x = total_x / len(x)
    for i in range(len(x)):
        if x[i] >= delta * mean_x and x[i] >= (1.0 - delta) * beta * y[i]:
            return i
    raise ValueError("no index satisfies the pigeonhole conditions; "
                     "inputs violate sum(x) >= beta * sum(y)")


def fit_exponent(sizes, values) -> float:
    """Least-squares slope of log(values) against log(sizes)."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    if len(xs) < 2:
        raise ValueError("need at least two points to fit an exponent")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def collection_guarantee_check(g: Graph, coll: tuple[CandidateSet, ...],
                               k: int, planted: PlantedInstance) -> dict:
    """Search the collection, in its order, for the first witness set that
    is simultaneously large (>= d_min^2 / (s ln^2 n)) and nearly 1/(k-1)
    pure in the heaviest planted class. Returns a report; the caller
    asserts report["found"]."""
    if planted.graph != g:
        raise ValueError("planted instance does not match the graph")
    n = g.n
    degs = g.degrees()
    class_weight = [sum(degs[v] for v in cls) for cls in planted.classes]
    red_class = min(range(len(class_weight)),
                    key=lambda c: (-class_weight[c], c))
    red = set(planted.classes[red_class])
    d_min = int(degs.min()) if n else 0
    adj = g.adjacency_matrix().astype(np.int16)
    common = adj @ adj
    np.fill_diagonal(common, 0)
    s_max = int(common.max()) if n else 0
    logn = math.log(max(n, 3))
    size_floor = d_min * d_min / (max(s_max, 1) * logn * logn)
    purity_floor = 1.0 / (k - 1) - 2.0 / logn
    witness = None
    for cs in coll:
        size = len(cs.members)
        red_frac = len(cs.members & red) / size
        if size >= size_floor and red_frac >= purity_floor:
            witness = {"v": cs.v, "j": cs.j, "i": cs.i, "size": size,
                       "red_fraction": red_frac}
            break
    return {
        "n": n,
        "k": k,
        "d_min": d_min,
        "s_max": s_max,
        "size_floor": size_floor,
        "purity_floor": purity_floor,
        "collection_size": len(coll),
        "red_class": red_class,
        "found": witness is not None,
        "witness": witness,
    }


def classic_threshold(alpha: float, d_avg: float) -> float:
    """The unrefined sqrt((1 - 2/alpha) 2 ln D) threshold, for comparisons."""
    if alpha <= 2.0:
        raise ValueError(f"threshold needs alpha > 2, got {alpha}")
    d = max(d_avg, math.e)
    return math.sqrt((1.0 - 2.0 / alpha) * 2.0 * math.log(d))


def paired_threshold_trials(g: Graph, vc: VectorColoring, alpha: float,
                            trials: int, seed: int) -> dict:
    """Rounded-set sizes for the refined and classic thresholds on shared
    Gaussian draws (paired for variance reduction)."""
    c_refined = kms_threshold(alpha, g.average_degree)
    c_classic = classic_threshold(alpha, g.average_degree)
    refined = np.empty(trials, dtype=np.int64)
    classic = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        rng = stream(seed, "paired-trial", trial)
        r = rng.standard_normal(vc.dim)
        refined[trial] = len(round_once(vc, g, r, c_refined))
        classic[trial] = len(round_once(vc, g, r, c_classic))
    return {
        "alpha": alpha,
        "D": g.average_degree,
        "c_refined": c_refined,
        "c_classic": c_classic,
        "refined_sizes": refined,
        "classic_sizes": classic,
        "seed": seed,
    }


def bootstrap_mean_difference(a: np.ndarray, b: np.ndarray, resamples: int,
                              seed: int) -> tuple[float, float]:
    """(2.5th, 5th) percentile of the bootstrap distribution of mean(a - b)."""
    diffs = (a - b).astype(float)
    rng = stream(seed, "bootstrap")
    n = len(diffs)
    idx = rng.integers(0, n, size=(resamples, n))
    means = diffs[idx].mean(axis=1)
    lo2_5, lo5 = np.percentile(means, [2.5, 5.0])
    return float(lo2_5), float(lo5)
