"""The benchmark's workloads: planted instances and the public calls on them.

Every workload draws its instances from ``testkit.planted_k_colorable``
with seeds derived from the workload seed, hands the library only the
generated graph, and re-checks each returned colouring or set here, with
code that does not call into the library. The entry points are looked up
on the ``sdpcolor`` package at call time, so a traced pass sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import sdpcolor
from sdpcolor import CombinedConfig, Graph
from sdpcolor.testkit import planted_k_colorable


@dataclass(frozen=True)
class Case:
    """One planted instance; ``seed`` seeds both the graph and the algorithm."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    seed: int

    def fresh_graph(self) -> Graph:
        # A new Graph per pass, so no pass reuses the adjacency caches that
        # an earlier pass filled.
        return Graph(self.n, self.edges)


@dataclass(frozen=True)
class Outcome:
    """The re-checked result of one call on one case."""

    verified: bool
    vertices: int         # vertices placed in a colour class
    classes: int          # colour classes used (1 for an independent set)
    attempts: int         # full attempts the library made (repeats_used)
    result: tuple[int, ...] | None   # colouring or sorted set, for drift checks


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "color" or "indset"
    k: int                 # planted colour classes
    p: Callable[[int], float]
    sizes: tuple[int, ...]  # cycled through, one size per case
    case_seconds: float    # typical seconds per case, sets the case count
    solve: Callable[[Case, Graph], Outcome]

    def cases(self, seed: int, count: int,
              sizes: tuple[int, ...] | None = None) -> list[Case]:
        sizes = self.sizes if sizes is None else sizes
        out = []
        for i in range(count):
            n = sizes[i % len(sizes)]
            case_seed = seed * 1000 + i
            inst = planted_k_colorable(n, self.k, self.p(n), seed=case_seed)
            out.append(Case(f"n={n}", n, inst.graph.edges, case_seed))
        return out

    def case_count(self, seconds: float) -> int:
        """Cases that take about ``seconds`` on a 2-core machine; a fixed
        function of its argument, so the same seed and seconds always run
        the same cases."""
        return max(MIN_CASES, int(seconds / self.case_seconds))

    def warmup(self) -> None:
        """One small fixed instance through the workload's own call."""
        (case,) = self.cases(0, 1, sizes=(WARMUP_SIZE,))
        self.solve(case, case.fresh_graph())


def is_proper_coloring(g: Graph, assignment) -> bool:
    if len(assignment) != g.n:
        return False
    return all(assignment[u] != assignment[v] for u, v in g.edges)


def is_independent_set(g: Graph, members) -> bool:
    chosen = set(members)
    if any(not (isinstance(v, int) and 0 <= v < g.n) for v in chosen):
        return False
    return not any(u in chosen and v in chosen for u, v in g.edges)


def _color_with(k: int, **cfg) -> Callable[[Case, Graph], Outcome]:
    def solve(case: Case, g: Graph) -> Outcome:
        res = sdpcolor.combined_color(g, k, CombinedConfig(seed=case.seed, **cfg))
        if res.coloring is None:
            return Outcome(False, 0, 0, res.repeats_used, None)
        assignment = tuple(res.coloring.assignment)
        ok = is_proper_coloring(g, assignment)
        return Outcome(ok, g.n if ok else 0,
                       len(set(assignment)) if ok else 0,
                       res.repeats_used, assignment)
    return solve


def _indset_with(alpha: float) -> Callable[[Case, Graph], Outcome]:
    def solve(case: Case, g: Graph) -> Outcome:
        chosen = tuple(sorted(sdpcolor.ak_independent_set(g, alpha, seed=case.seed)))
        ok = len(chosen) > 0 and is_independent_set(g, chosen)
        return Outcome(ok, len(chosen) if ok else 0, int(ok), 1, chosen)
    return solve


MIN_CASES = 2
WARMUP_SIZE = 40

# One case takes 0.5-4 s on a 2-core machine with one BLAS thread, so a 20 s
# run holds 5-28 cases: enough that the instances alone move a run's time by
# about 5%. README.md gives each workload's reason, the parent's layer
# shares, and why contract-k4 stops at n=130.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("color-k4", "color", k=4, p=lambda n: 0.3, sizes=(96, 128),
             case_seconds=2.0, solve=_color_with(4, trials=16)),
    Workload("contract-k4", "color", k=4, p=lambda n: 0.5, sizes=(130,),
             case_seconds=2.5, solve=_color_with(4)),
    Workload("color-k3-sparse", "color", k=3, p=lambda n: 30.0 / n,
             sizes=(300,), case_seconds=3.6, solve=_color_with(3)),
    Workload("indset-a3", "indset", k=3, p=lambda n: 0.3, sizes=(100, 150),
             case_seconds=0.7, solve=_indset_with(3.0)),
)}
