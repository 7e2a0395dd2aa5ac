"""Contraction-based progress framework and the candidate-set construction.

Two ways of making progress toward an O~(n^a)-coloring: proving that two
non-adjacent vertices share a color in some valid k-coloring (contract
them), or finding a large independent set (spend one color on it). The
driver loops a caller-supplied finder over the shrinking quotient graph,
verifying every claim before applying it. The quotient lives in one place,
a ContractedGraph, the only code that reads its dense adjacency: finders ask
it for common neighbours and their counts, and take the parts they need
through ``induced`` as Graphs built from edge arrays alone (no Python sets
or tuples); only the driver mutates it. The grouping is one int array,
each base vertex's representative, and the driver keeps its colours in one
int array indexed by representative, so a colouring of the quotient lifts
to the base graph with one gather. Vertex ids pass between the quotient,
the finder and the driver as int64 arrays of representatives: a set claim
is one, and a finishing colouring is a Coloring of ``quotient_graph()``'s
Graph, indexed like its ``reps``. The driver fails with one type,
NotKColorableError, named by its kind: a same-colour claim on an adjacent
pair is a "contradiction", a claim past the colour budget "budget"; a
malformed claim is a ValueError.

The candidate collection groups vertices into geometric degree buckets
I_j = {v : (1+delta)^j <= d(v) < (1+delta)^{j+1}} and emits, for every
vertex v and bucket pair (j, i), the set

    T = N_i(N(v) & I_j) = {u in N(S) : (1+delta)^i <= d_S(u) < (1+delta)^{i+1}},

S = N(v) & I_j. On a k-colorable graph with minimum degree d_min and common
neighborhoods bounded by s, at least one of these O(n log^2 n) sets is both
large (d_min^2/s up to polylogs) and nearly 1/(k-1) pure in one color class;
``testkit.collection_guarantee_check`` tests that claim against a planted
partition. ``candidate_sets`` yields the sets largest first and builds each
only when reached, so probing the largest few never builds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .graph import (Coloring, Graph, NotKColorableError, check_vertex,
                    verify_coloring, vertex_ids)


# ---------------------------------------------------------------------------
# Degree buckets and the candidate collection
# ---------------------------------------------------------------------------

def _buckets(d: np.ndarray, delta: float) -> np.ndarray:
    """j with (1+delta)^j <= d < (1+delta)^{j+1}, elementwise (every d >= 1):
    the count of the powers (1+delta)^t, t >= 0, at or below d, less one.
    The powers are those ** computes, so boundary values land
    deterministically; the table runs one power past the log estimate of
    the largest d."""
    base = 1.0 + delta
    top = math.log(d.max(initial=1)) / math.log(base)
    powers = np.array([base ** t for t in range(int(top) + 2)])
    return (powers[:, None] <= d).sum(axis=0) - 1


def default_delta(n: int) -> float:
    """Bucket width 1/ln n, capped at 1 (n < 3) and floored at 0.05."""
    if n < 3:
        return 1.0
    return max(1.0 / math.log(n), 0.05)


@dataclass(frozen=True)
class CandidateSet:
    members: frozenset[int]
    v: int
    j: int
    i: int


def candidate_sets(g: Graph, delta: float) -> Iterator[CandidateSet]:
    """The distinct nonempty T = N_i(N(v) & I_j), ranked by (-size, v, j, i).

    A set keeps the tag of its first copy; later copies are dropped. Each
    tag's size comes from one ``bincount`` of its (v, j)'s i-buckets, and a
    set's members are built only when the ranking reaches it, from d_S(u):
    one ``bincount`` of the gathered CSR neighbours of S (no n*n state).
    """
    degs = g.degrees()
    # The bucket of every value 0..max degree (-1 at 0); d_S(u) <= |S| <= d(v).
    top = int(degs.max(initial=0))
    bucket = np.concatenate(([-1], _buckets(np.arange(1, top + 1), delta)))
    jbucket = bucket[degs]

    def i_buckets(v: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        nbrs = g.neighbors(v)
        d_s = np.bincount(g.neighbors_of(nbrs[jbucket[nbrs] == j]), minlength=g.n)
        touched = np.flatnonzero(d_s)  # holds v, so never empty
        return touched, bucket[d_s[touched]]

    tags: list[tuple[int, int, int, int]] = []  # (-size, v, j, i)
    for v in range(g.n):
        # The buckets met among v's neighbours (each >= 0, as a neighbour
        # has degree >= 1), read from a count, not a sort.
        for j in np.flatnonzero(np.bincount(jbucket[g.neighbors(v)])).tolist():
            counts = np.bincount(i_buckets(v, j)[1])
            tags += [(-int(c), v, j, i) for i, c in enumerate(counts) if c]
    seen: set[frozenset[int]] = set()
    for _, v, j, i in sorted(tags):
        touched, ibuckets = i_buckets(v, j)
        members = frozenset(touched[ibuckets == i].tolist())
        if members not in seen:
            seen.add(members)
            yield CandidateSet(members, v, j, i)


def build_candidate_collection(g: Graph, delta: float | None = None
                               ) -> tuple[CandidateSet, ...]:
    """The whole candidate collection in ``candidate_sets`` order: every
    distinct nonempty T, largest first, each with its first (v, j, i)."""
    if delta is None:
        delta = default_delta(g.n)
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return tuple(candidate_sets(g, delta))


# ---------------------------------------------------------------------------
# Contraction and the progress driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SameColor:
    u: int
    v: int


@dataclass(frozen=True)
class LargeIndependentSet:
    """An independent set of the quotient, to be spent on one colour."""

    members: np.ndarray  # int64 representatives


@dataclass(frozen=True)
class Colored:
    """A colouring of ``ContractedGraph.quotient_graph()``'s Graph: its
    vertex i is the quotient vertex reps[i]."""

    coloring: Coloring


ProgressResult = SameColor | LargeIndependentSet | Colored


class ContractedGraph:
    """The quotient graph, the one mutable state of the progress driver.

    ``adj`` is a boolean adjacency matrix over base vertex ids in which the
    rows and columns of merged-away and deleted ids are zero; ``live`` marks
    the quotient's vertices. Each quotient vertex is named by its
    representative, the smallest base id in its merged group, and ``rep``
    is an int64 array with rep[v] the representative of base vertex v (a
    deleted group keeps its representative). Every method takes
    representatives, and vertex lists go in and out as int64 arrays.
    Single-owner mutable; the driver serializes all mutations.
    """

    def __init__(self, base: Graph):
        self.base = base
        self.adj = base.adjacency_matrix()  # a new matrix, owned here
        self.live = np.ones(base.n, dtype=bool)
        self.rep = np.arange(base.n, dtype=np.int64)

    def _live_ids(self, vs) -> np.ndarray | None:
        """``vs`` as an integer array (``vertex_ids``, which refuses a
        non-integer id) when every id is a live vertex, else None: one
        range test, then one gather (a negative id is refused, not
        wrapped)."""
        ids = vertex_ids(vs)
        inside = (ids >= 0) & (ids < self.base.n)
        return ids if inside.all() and self.live[ids].all() else None

    @property
    def alive(self) -> np.ndarray:
        return np.flatnonzero(self.live)

    @property
    def alive_count(self) -> int:
        return int(np.count_nonzero(self.live))

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(u, self.base.n)
        check_vertex(v, self.base.n)
        return bool(self.adj[u, v])

    def is_independent(self, vs) -> bool:
        ids = self._live_ids(vs)
        return ids is not None and not self.adj[ids][:, ids].any()

    def common_neighbours(self, u: int, v: int) -> np.ndarray:
        """The sorted common neighbours of quotient vertices u and v."""
        return np.flatnonzero(self.adj[u] & self.adj[v])

    def common_neighbour_counts(self, ids: np.ndarray) -> np.ndarray:
        """The float32 matrix of common-neighbour counts in the quotient of
        each pair of ``ids`` (entry [i, j] for ids[i], ids[j]), with a zero
        diagonal."""
        rows = self.adj[ids].astype(np.float32)
        common = rows @ rows.T
        np.fill_diagonal(common, 0)
        return common

    def merge(self, u: int, v: int) -> int:
        """Merge two live, distinct, non-adjacent quotient vertices; returns
        the surviving representative (the smaller id). An adjacent pair
        raises NotKColorableError of kind "contradiction": no valid coloring
        is consistent with the inferences so far (the input is not
        k-colorable, or a finder made an unsound claim)."""
        if u == v or self._live_ids((u, v)) is None:
            raise ValueError(f"merge needs two live distinct vertices, got {u},{v}")
        if self.adj[u, v]:
            raise NotKColorableError("contradiction", f"vertices {u} and {v} "
                                     "are adjacent; no valid coloring gives "
                                     "them the same color")
        keep, drop = (u, v) if u < v else (v, u)
        union = self.adj[keep] | self.adj[drop]
        self.adj[drop, :] = self.adj[:, drop] = False
        self.adj[keep, :] = self.adj[:, keep] = union
        self.live[drop] = False
        self.rep[self.rep == drop] = keep
        return keep

    def delete(self, vs) -> None:
        ids = self._live_ids(vs)
        if ids is None:
            raise ValueError(f"delete needs live vertices, got {vs}")
        self.adj[ids, :] = self.adj[:, ids] = False
        self.live[ids] = False

    def induced(self, ids: np.ndarray) -> Graph:
        """The subgraph of the quotient induced by ``ids`` as an immutable
        Graph; vertex i of it is ids[i]."""
        # np.nonzero's row-major order over the upper triangle is (u, v) order.
        block = self.adj[ids][:, ids]
        return Graph._from_arrays(len(block), *np.nonzero(np.triu(block, 1)))

    def quotient_graph(self) -> tuple[Graph, np.ndarray]:
        """The whole quotient as an immutable Graph plus its sorted
        representatives ``reps``: vertex i of the Graph is reps[i]."""
        reps = self.alive
        return self.induced(reps), reps

    def peel(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustively remove live vertices of residual degree < threshold.

        Returns (U, W), both sorted: U is everything removed, W the unique
        maximal subgraph of the quotient with minimum degree >= threshold,
        so the result does not depend on removal order.
        """
        # Read in place: the zero rows and columns of dead ids add nothing
        # to a degree, and a dead id never enters ``keep``.
        keep = self.live.copy()
        deg = self.adj.sum(axis=1)
        while True:
            low = keep & (deg < threshold)
            if not low.any():
                break
            keep &= ~low
            deg -= self.adj[low].sum(axis=0)
        return np.flatnonzero(self.live & ~keep), np.flatnonzero(keep)


def progress_driver(g: Graph, *,
                    finder: Callable[[ContractedGraph], ProgressResult],
                    budget: int) -> Coloring:
    """Drive a progress finder to a full proper coloring of g.

    SameColor claims contract the quotient; LargeIndependentSet claims spend
    one color on the base vertices of the claimed set; Colored finishes the
    remaining quotient outright, its colours relabelled in order to fresh
    ones. Every claim is verified against the quotient before being applied,
    and the color count is capped by ``budget``; exceeding it raises
    NotKColorableError of kind "budget".
    """
    cg = ContractedGraph(g)
    color = np.empty(g.n, dtype=np.int64)  # indexed by representative
    next_color = 0
    while cg.alive_count > 0:
        result = finder(cg)
        if isinstance(result, SameColor):
            cg.merge(result.u, result.v)  # raises on a stale or adjacent pair
            continue
        if isinstance(result, LargeIndependentSet):
            ids = vertex_ids(result.members)
            if not ids.size:
                raise ValueError("finder returned an empty independent set")
            if not cg.is_independent(ids):
                raise ValueError("finder returned a dependent vertex set")
            values = (0,)  # one colour, broadcast over the set
        elif isinstance(result, Colored):
            quotient, ids = cg.quotient_graph()
            if result.coloring.n != ids.size:
                raise ValueError("finder coloring does not cover the quotient")
            if not verify_coloring(quotient, result.coloring):
                raise ValueError("finder returned an improper quotient coloring")
            values = result.coloring.assignment
        else:
            raise TypeError(f"finder returned {result!r}, not a progress result")
        # Spend the claim's colours: one for a set, one per class otherwise,
        # relabelled in order (a dict, not np.searchsorted, whose kernels
        # raised peak RSS by about 0.1 MB).
        relabel = {c: i for i, c in enumerate(sorted(set(values)), next_color)}
        if next_color + len(relabel) > budget:
            raise NotKColorableError(
                "budget", f"color budget {budget} exhausted")
        color[ids] = np.fromiter(map(relabel.get, values), np.int64, len(values))
        next_color += len(relabel)
        cg.delete(ids)
    coloring = Coloring(tuple(color[cg.rep].tolist()))
    if not verify_coloring(g, coloring):
        raise AssertionError("driver assembled an improper coloring")
    return coloring
