"""Instance generators and exact brute-force oracles.

The planted generator produces k-colorable graphs with a known hidden
partition; the brute-force routines give exact ground truth on small graphs.
All randomness comes from PCG64 streams (see _rng), so identical
(n, k, p, seed) always yields the identical edge set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .graph import Coloring, Graph, read_dimacs, write_dimacs
from .vecsdp import VectorColoring


class SizeGuardError(ValueError):
    """An exact oracle was asked for an instance above its size guard."""


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
    base, extra = divmod(n, k)
    classes = []
    pos = 0
    for c in range(k):
        size = base + (1 if c < extra else 0)
        classes.append(tuple(sorted(int(x) for x in perm[pos:pos + size])))
        pos += size
    class_of = np.empty(n, dtype=np.int64)
    for c, cls in enumerate(classes):
        class_of[list(cls)] = c
    iu, iv = np.triu_indices(n, k=1)
    cross = class_of[iu] != class_of[iv]
    iu, iv = iu[cross], iv[cross]
    keep = rng.random(iu.shape[0]) < p
    edges = [(int(a), int(b)) for a, b in zip(iu[keep], iv[keep])]
    return PlantedInstance(Graph(n, edges), tuple(classes), k, float(p), int(seed))


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), deterministic given the seed."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = stream(seed, "gnp", n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return Graph(n, [(int(a), int(b)) for a, b in zip(iu[keep], iv[keep])])


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
    bounds = np.cumsum([0] + list(sizes))
    n = int(bounds[-1])
    part = np.empty(n, dtype=np.int64)
    for c in range(len(sizes)):
        part[bounds[c]:bounds[c + 1]] = c
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
CHROMATIC_GUARD = 20
K_COLORABLE_GUARD = 30


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _clique_cover_bound(cand: int, masks: list[int]) -> int:
    # Greedy clique cover of the candidate set: an independent set picks at
    # most one vertex per clique, so the cover size is an upper bound.
    count = 0
    while cand:
        v = (cand & -cand).bit_length() - 1
        rest = cand & masks[v]
        clique = 1 << v
        while rest:
            u = (rest & -rest).bit_length() - 1
            clique |= 1 << u
            rest &= masks[u]
        cand &= ~clique
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


def _try_k_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """Backtracking k-coloring; first vertex in the order is pinned to color 0
    and a fresh color may only be opened one beyond the current maximum."""
    n = g.n
    if n == 0:
        return ()
    if k <= 0:
        return None
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    color = [-1] * n
    neighbors = [sorted(g.neighbors(v)) for v in range(n)]

    def place(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        banned = {color[w] for w in neighbors[v] if color[w] != -1}
        top = min(k, used + 1)
        for c in range(top):
            if c in banned:
                continue
            color[v] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return tuple(color) if place(0, 0) else None


def is_k_colorable(g: Graph, k: int) -> bool:
    """Exact decision for small graphs (guarded)."""
    if g.n > K_COLORABLE_GUARD:
        raise SizeGuardError(
            f"is_k_colorable guard is n <= {K_COLORABLE_GUARD}, got {g.n}")
    if k >= g.n or g.max_degree < k:
        return k >= 1 or g.n == 0
    return _try_k_coloring(g, k) is not None


def brute_force_chromatic(g: Graph) -> Coloring:
    """An optimal proper coloring of a small graph (guarded)."""
    if g.n > CHROMATIC_GUARD:
        raise SizeGuardError(
            f"brute_force_chromatic guard is n <= {CHROMATIC_GUARD}, got {g.n}")
    if g.n == 0:
        return Coloring(())
    masks = _adjacency_masks(g)
    lower = _clique_lower_bound(g, masks)
    for k in range(max(1, lower), g.n + 1):
        attempt = _try_k_coloring(g, k)
        if attempt is not None:
            return Coloring(attempt)
    raise AssertionError("unreachable: every graph is n-colorable")


def _clique_lower_bound(g: Graph, masks: list[int]) -> int:
    best = 1 if g.n else 0
    for v in range(g.n):
        clique = 1 << v
        rest = masks[v]
        while rest:
            u = (rest & -rest).bit_length() - 1
            clique |= 1 << u
            rest &= masks[u]
        best = max(best, bin(clique).count("1"))
    return best


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


def vector_coloring_to_json(vc: VectorColoring) -> str:
    payload = {
        "alpha": vc.alpha,
        "eps": vc.eps,
        "dim": vc.dim,
        "vectors": [[float(x) for x in row] for row in vc.vectors],
        "max_edge_residual": (None if not math.isfinite(vc.max_edge_residual)
                              else vc.max_edge_residual),
    }
    return json.dumps(payload, sort_keys=True)


def vector_coloring_from_json(text: str) -> VectorColoring:
    payload = json.loads(text)
    res = payload.get("max_edge_residual")
    return VectorColoring(
        float(payload["alpha"]),
        np.asarray(payload["vectors"], dtype=float).reshape(-1, int(payload["dim"])),
        float(payload["eps"]),
        max_edge_residual=float("-inf") if res is None else float(res),
    )
