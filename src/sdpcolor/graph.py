"""Immutable simple undirected graphs, colorings, and structural helpers.

Vertices are the integers 0..n-1. A Graph is n plus its edges as two
read-only int64 endpoint arrays (u < v, in (u, v) order), which the solvers
read; the edge tuple, CSR neighbour arrays (the one neighbour structure)
and degrees are derived from them on first use and cached, and no n*n
matrix is kept. ``Graph(n, edges)`` and ``read_dimacs`` validate input
once, as arrays. Graphs are immutable (threads racing to fill a cache store
equal values), so instances can be shared freely between threads. DIMACS
.col files use 1-indexed vertices, converted at the I/O boundary only.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import IO, Iterable, Iterator

import numpy as np


class DimacsError(ValueError):
    """Malformed DIMACS .col input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotKColorableError(RuntimeError):
    """An attempt of the algorithm failed; ``kind`` names the cause:
    "solver" (a solver stall), "contradiction", "budget" (the color budget
    ran out) or "witness" (a non-bipartite neighborhood or graph)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def check_vertex(v: int, n: int) -> None:
    """Refuses a vertex id outside 0..n-1, which numpy indexing would wrap
    (a negative id) or report as an array index."""
    if not 0 <= v < n:
        raise IndexError(f"vertex {v} out of range for n={n}")


class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no multi-edges).

    Its whole state is n and two read-only int64 endpoint arrays, u[i] <
    v[i] in (u, v) order; the rest is derived from them, and all but the n*n
    matrix is cached. ``neighbors`` and ``neighbors_of`` read the CSR arrays;
    ``degrees()`` is the cached read-only int64 degree array, which
    ``degree(v)`` reads without building them.
    ``Graph(n, edges)`` validates once, as arrays: the first bad edge raises.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = list(edges)
        arr = np.array(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
        if arr.dtype.kind not in "biu":  # floats, strings, or ints beyond int64
            for j, e in enumerate(pairs):
                if not all(isinstance(x, Integral) for x in e):
                    Graph(n, pairs[:j])  # a fault before it comes first
                    raise ValueError(f"edge {e!r} has a non-integer endpoint")
            # Integers outside 0..n-1 become -1, still out of range.
            arr = np.array([[x if 0 <= x < n else -1 for x in e] for e in pairs])
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
        lo, hi, order, dup = _sorted_edges(*arr.astype(np.int64).T)
        out, loop = (lo < 0) | (hi >= n), lo == hi
        bad = out | loop | dup
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge {pairs[i]!r} out of range for n={n}" if out[i]
                             else f"self-loop at vertex {lo[i]}" if loop[i]
                             else f"duplicate edge ({lo[i]}, {hi[i]})")
        self._set(n, lo[order], hi[order])

    @classmethod
    def _from_arrays(cls, n: int, eu: np.ndarray, ev: np.ndarray) -> "Graph":
        # Trusted constructor: int64 arrays with eu < ev, in (u, v) order and
        # without duplicates. Skips all checks.
        g = object.__new__(cls)
        g._set(n, eu, ev)
        return g

    def _set(self, n: int, eu: np.ndarray, ev: np.ndarray) -> None:
        eu.flags.writeable = ev.flags.writeable = False
        self._n, self._eu, self._ev = n, eu, ev

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._eu.size

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted (u, v) pairs with u < v."""
        return tuple(zip(self._eu.tolist(), self._ev.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int64 arrays (u[i] < v[i])."""
        return self._eu, self._ev

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.bincount(np.concatenate((self._eu, self._ev)), minlength=self._n)
        deg.flags.writeable = False
        return deg

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        # (indptr, indices): the neighbours of v are indices[indptr[v]:indptr[v + 1]],
        # sorted, as the ev half (those below v, in u order) sorts first.
        src = np.concatenate((self._ev, self._eu))
        dst = np.concatenate((self._eu, self._ev))[np.argsort(src, kind="stable")]
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        indptr.flags.writeable = dst.flags.writeable = False
        return indptr, dst

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbours of v, sorted: a read-only int64 slice of the CSR
        arrays (``.tolist()`` gives Python ints)."""
        check_vertex(v, self._n)
        indptr, indices = self._csr
        return indices[indptr[v]:indptr[v + 1]]

    def neighbors_of(self, vs: np.ndarray) -> np.ndarray:
        """The neighbours of every vertex of the int64 array ``vs``,
        concatenated in the order of ``vs`` (with repeats)."""
        return _gather(*self._csr, vs)

    def degree(self, v: int) -> int:
        check_vertex(v, self._n)
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        """Every vertex's degree as one cached read-only int64 array."""
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(v, self._n)
        return v in self.neighbors(u)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self._n if self._n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max()) if self._n else 0

    def adjacency_matrix(self) -> np.ndarray:
        """A new boolean n*n adjacency matrix, built from the edge arrays."""
        mat = np.zeros((self._n, self._n), dtype=bool)
        mat[self._eu, self._ev] = mat[self._ev, self._eu] = True
        return mat

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return (self._n == other._n and np.array_equal(self._eu, other._eu)
                    and np.array_equal(self._ev, other._ev))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._eu.tobytes(), self._ev.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def _sorted_edges(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, order, dup): the edges (u[i], v[i]) as lo <= hi, the stable
    order sorting them by (lo, hi), and which equal an earlier edge."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    dup = np.zeros(order.size, dtype=bool)
    dup[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    return lo, hi, order, dup


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring: assignment[v] is the color index of vertex v."""

    assignment: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))


def vertex_ids(s: Iterable[int]) -> np.ndarray:
    """The ids of ``s`` as an integer array: an integer array as is, any
    other iterable read through ``operator.index`` into int64, so a
    non-integer id raises TypeError (a Python int beyond int64,
    OverflowError)."""
    if isinstance(s, np.ndarray) and s.dtype.kind in "iu":
        return s
    return np.fromiter(map(operator.index, s), dtype=np.int64)


def vertex_mask(s: Iterable[int], n: int) -> np.ndarray:
    """Boolean mask over 0..n-1 of the ids in ``s`` (``vertex_ids``),
    written through one fancy index, so repeats fold without a sort. An id
    outside 0..n-1 raises ValueError."""
    s = vertex_ids(s)
    if s.size and not (0 <= s.min() and s.max() < n):
        raise ValueError(f"subset contains invalid vertex ids for n={n}")
    inside = np.zeros(n, dtype=bool)
    inside[s] = True
    return inside


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by vertex set ``s`` plus its distinct ids as a
    sorted int64 array ``verts``: vertex i of the subgraph is verts[i]."""
    inside = vertex_mask(s, g.n)
    verts = np.flatnonzero(inside)
    pos = np.cumsum(inside) - 1  # each kept id's index in verts
    eu, ev = g.edge_arrays()
    keep = inside[eu] & inside[ev]
    # The relabelling is monotone, so the kept edges stay in (u, v) order.
    return Graph._from_arrays(verts.size, pos[eu[keep]], pos[ev[keep]]), verts


def verify_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c assigns a color to every vertex and no edge is monochromatic."""
    if len(c.assignment) != g.n:
        return False
    # Object dtype: numpy would round integer colours from 2**63 to float.
    a = np.asarray(c.assignment, dtype=object)
    eu, ev = g.edge_arrays()
    return not np.any(a[eu] == a[ev])


def verify_independent_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is a valid vertex set with no internal edge."""
    try:
        inside = vertex_mask(s, g.n)
    except (TypeError, ValueError, OverflowError):  # an id that is no vertex
        return False
    eu, ev = g.edge_arrays()
    return not np.any(inside[eu] & inside[ev])


def largest_color_class(c: Coloring) -> set[int]:
    """Largest color class; ties broken by the smallest color index."""
    counts = Counter(c.assignment)
    best = min(counts, key=lambda col: (-counts[col], col), default=None)
    return {v for v, col in enumerate(c.assignment) if col == best}


def _gather(indptr: np.ndarray, indices: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The CSR neighbours of every vertex of ``vs``, concatenated in order:
    one repeat of each row's offset and one fancy index, no Python loop."""
    counts = indptr[vs + 1] - indptr[vs]
    ends = np.cumsum(counts)
    at = np.repeat(indptr[vs] - (ends - counts), counts)
    return indices[at + np.arange(ends[-1] if ends.size else 0)]


def _bfs_sides(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray | None:
    """Side (0 or 1) of every vertex of the graph with CSR arrays (indptr,
    indices), or None if an odd cycle exists.

    Each component's lowest id is on side 0 and every other vertex on the
    parity of its BFS distance from it. The BFS takes one numpy pass per
    level: it gathers the level's neighbours, fails on one already on the
    level's side, and puts the unvisited ones, the next level, on the other
    side.
    """
    n = indptr.size - 1
    side = np.zeros(n, dtype=np.int8)
    seen = np.diff(indptr) == 0  # isolated vertices are their own components, side 0
    nxt = np.zeros(n, dtype=bool)  # the next level, deduplicated
    start = 0
    while not seen[start:].all():
        root = start + int(np.argmin(seen[start:]))  # lowest unvisited id
        seen[root] = True
        level, parity = np.array([root]), 0
        while level.size:
            nbrs = _gather(indptr, indices, level)
            old = seen[nbrs]
            if np.any(side[nbrs[old]] == parity):
                return None
            # Deduplicated through a mask, not np.unique, whose sort pages
            # in about 1.4 MB of numpy's sort kernels (seen as peak RSS).
            nxt[nbrs[~old]] = True
            level = np.flatnonzero(nxt)
            nxt[level] = False
            parity ^= 1
            seen[level] = True
            side[level] = parity
        start = root + 1
    return side


def two_coloring(g: Graph) -> Coloring | None:
    """Proper 2-coloring via BFS, or None if an odd cycle exists. Color 0
    holds each connected component's lowest id (isolated vertices too).

    The BFS's first test is made on the edge arrays before any CSR array
    is built: r = eu[0], the lowest non-isolated vertex and the first
    root, has only higher neighbours, ev[eu == r], and an edge between two
    of them is a triangle."""
    eu, ev = g.edge_arrays()
    if eu.size:
        mask = np.zeros(g.n, dtype=bool)
        mask[ev[eu == eu[0]]] = True
        if (mask[eu] & mask[ev]).any():
            return None
    side = _bfs_sides(*g._csr)
    return None if side is None else Coloring(tuple(side.tolist()))


# ---------------------------------------------------------------------------
# Exact finish: optimal colorings of small graphs (backtracking on bitmasks)
# ---------------------------------------------------------------------------

CHROMATIC_GUARD = 20


class SizeGuardError(ValueError):
    """An exact oracle was asked for an instance above its size guard."""


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _try_k_coloring(g: Graph, k: int, masks: list[int]) -> tuple[int, ...] | None:
    """Backtracking k-coloring over g's adjacency bitmasks ``masks``
    (``_adjacency_masks``, which ``brute_force_mis`` searches on too): it
    keeps one bitmask per colour class, and v may join class c when
    classes[c] & masks[v] is 0. Vertices go in order of falling degree, the
    first pinned to color 0, and a fresh color may only be opened one
    beyond the current maximum."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    color = [-1] * n
    classes = [0] * min(k, n)  # empty for k <= 0, which colours only n = 0

    def place(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for c in range(min(k, used + 1)):
            if not classes[c] & masks[v]:
                classes[c] |= 1 << v
                color[v] = c
                if place(idx + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << v
        return False

    return tuple(color) if place(0, 0) else None


def _greedy_clique(v: int, rest: int, masks: list[int]) -> int:
    """The bitmask of the clique grown from v over the candidates ``rest``
    (v's neighbours among them), adding the lowest candidate first."""
    clique = 1 << v
    while rest:
        u = (rest & -rest).bit_length() - 1
        clique |= 1 << u
        rest &= masks[u]
    return clique


def _clique_lower_bound(g: Graph, masks: list[int]) -> int:
    return max((bin(_greedy_clique(v, masks[v], masks)).count("1")
                for v in range(g.n)), default=0)


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
        attempt = _try_k_coloring(g, k, masks)
        if attempt is not None:
            return Coloring(attempt)
    raise AssertionError("unreachable: every graph is n-colorable")


def exact_coloring(g: Graph) -> Coloring | None:
    """An optimal coloring when g is small enough for brute force, else the
    exact 2-coloring, which is None when g is not bipartite."""
    if g.n <= CHROMATIC_GUARD:
        return brute_force_chromatic(g)
    return two_coloring(g)


# ---------------------------------------------------------------------------
# DIMACS .col I/O
# ---------------------------------------------------------------------------

def read_dimacs(source: str | IO[str]) -> Graph:
    """Parse a DIMACS .col file ("p edge n m" header, "e u v" edges, 1-indexed).

    Self-loops, duplicate edges, out-of-range endpoints, and a mismatched edge
    count are all hard parse errors: benchmark files are not silently cleaned.
    """
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="ascii") as fh:
                return _read_dimacs_lines(fh)
        return _read_dimacs_lines(source)
    except UnicodeDecodeError as exc:
        raise DimacsError(f"not ASCII text: byte {exc.start} is "
                          f"{exc.object[exc.start]:#04x}") from None


def _read_dimacs_lines(lines: Iterator[str]) -> Graph:
    n = None
    m_declared = None
    edges: list[tuple[int, int, int]] = []  # (u, v, line), as in the file
    line_no = 0
    for raw in lines:
        line_no += 1
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"expected 'p edge <n> <m>', got {line!r}", line_no)
            try:
                n, m_declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"non-integer sizes in {line!r}", line_no) from None
            if n < 0 or m_declared < 0:
                raise DimacsError("negative size in problem line", line_no)
        elif fields[0] == "e":
            if n is None:
                raise DimacsError("edge line before problem line", line_no)
            if len(fields) != 3:
                raise DimacsError(f"expected 'e <u> <v>', got {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"non-integer endpoint in {line!r}", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"endpoint out of range in {line!r}", line_no)
            if u == v:
                raise DimacsError(f"self-loop at vertex {u}", line_no)
            edges.append((u, v, line_no))
        else:
            raise DimacsError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise DimacsError("missing problem line")
    arr = np.array(edges, dtype=np.int64).reshape(-1, 3)
    lo, hi, order, dup = _sorted_edges(arr[:, 0] - 1, arr[:, 1] - 1)
    if dup.any():
        u, v, line = edges[int(np.argmax(dup))]
        raise DimacsError(f"duplicate edge ({u}, {v})", line)
    if len(edges) != m_declared:
        raise DimacsError(f"problem line declared {m_declared} edges, found {len(edges)}")
    return Graph._from_arrays(n, lo[order], hi[order])


def write_dimacs(g: Graph, target: str | IO[str]) -> None:
    """Write g in DIMACS .col format (edges sorted, 1-indexed endpoints)."""
    if isinstance(target, str):
        with open(target, "w", encoding="ascii") as fh:
            write_dimacs(g, fh)
        return
    target.write(f"p edge {g.n} {g.m}\n")
    for u, v in g.edges:
        target.write(f"e {u + 1} {v + 1}\n")
