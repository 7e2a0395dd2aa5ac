import math
from fractions import Fraction

import numpy as np
import pytest

from sdpcolor._rng import stream
import sdpcolor.combined as combined
import sdpcolor.progress as progress
import sdpcolor.rounding as rounding
from sdpcolor.combined import (
    CombinedConfig,
    CombinedResult,
    Declaration,
    alpha_k,
    color_three_fallback,
    combined_color,
    cutoff,
    _best_pair,
    _CombinedFinder,
)
from sdpcolor.graph import Coloring, Graph, verify_coloring
from sdpcolor.indset import greedy_independent_set
from sdpcolor.progress import (
    ContractedGraph,
    NotKColorableError,
    SameColor,
)
from sdpcolor.testkit import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    degree_capped_planted,
    fit_exponent,
    is_k_colorable,
    planted_k_colorable,
    random_graph,
    step9_identity_holds,
)
from sdpcolor.vecsdp import PHASES, InfeasibleError

TABLE = {
    3: Fraction(3, 14),
    4: Fraction(7, 19),
    5: Fraction(97, 207),
    6: Fraction(43, 79),
    7: Fraction(1391, 2315),
    8: Fraction(175, 271),
}


def test_alpha_table_exact():
    assert alpha_k(2) == Fraction(0)
    for k, want in TABLE.items():
        assert alpha_k(k) == want


def test_alpha_loop_matches_the_recurrence():
    # a_k from a_{k-2}, as the recurrence is written; alpha_k runs it as a
    # loop, so a k far past the interpreter's recursion limit evaluates.
    want = {2: Fraction(0), 3: Fraction(3, 14)}
    for k in range(4, 41):
        want[k] = 1 - Fraction(6) / (
            k + 4 + 3 * (1 - Fraction(2, k)) / (1 - want[k - 2]))
    assert {k: alpha_k(k) for k in want} == want
    assert 0 < alpha_k(2500) < 1


def test_alpha_validation():
    with pytest.raises(ValueError):
        alpha_k(1)


def test_step9_identity_exact():
    for k in range(4, 13):
        assert step9_identity_holds(k)


def test_alpha_beats_prior_exponents():
    # Decimal columns of the comparison table: the combined exponent is
    # strictly below both the contraction-only and rounding-only rows.
    blum_row = {4: 3 / 5, 5: 91 / 131, 6: 105 / 137, 7: 5301 / 6581,
                8: 10647 / 12695}
    kms_row = {4: 2 / 5, 5: 1 / 2, 6: 4 / 7, 7: 5 / 8, 8: 2 / 3}
    for k in range(4, 9):
        ours = float(alpha_k(k))
        assert ours < blum_row[k]
        assert ours < kms_row[k]


def test_cutoff():
    assert cutoff(1, 4) == 4  # size 1 passes with the bare constant
    # alpha_2 = 0 keeps 2-colorable restrictions at polylog colors.
    assert cutoff(100, 2) == int(4.0 * (1 + math.log(100)) ** 2)
    for s in (2, 5, 17, 400):
        assert cutoff(2 * s, 4) >= cutoff(s, 4)
    with pytest.raises(ValueError):
        cutoff(0, 4)
    with pytest.raises(ValueError):
        cutoff(5, 1)


def test_cutoff_uses_the_exponent_of_the_route_that_runs():
    # k = 3 runs the n^{1/4} degree-split route, so a k = 5 run's pair
    # probes are judged at 1/4, the exponent its result reports, not 3/14.
    for size in (10, 100, 1000):
        assert cutoff(size, 3) == int(4.0 * size ** 0.25
                                      * (1 + math.log(size)) ** 2)
    res = combined_color(planted_k_colorable(40, 3, 0.4, seed=1).graph, 3,
                         CombinedConfig(seed=0, trials=8))
    assert res.alpha_exponent == Fraction(1, 4)


def test_combined_k2_bipartite():
    g = complete_multipartite([7, 8])
    res = combined_color(g, 2)
    assert res.colors_used == 2
    assert verify_coloring(g, res.coloring)
    assert not res.k3_fallback


def test_combined_k2_odd_cycle_fails():
    res = combined_color(cycle_graph(9), 2)
    assert res.coloring is None
    assert res.failure[0] == "witness"


def test_failing_run_makes_one_attempt():
    # A failure is reported from the run's one pass, never rerun.
    res = combined_color(cycle_graph(9), 2)
    assert res.failure == ("witness", "graph is not bipartite")
    assert res.repeats_used == 1
    res = combined_color(complete_multipartite([7, 8]), 2)
    assert res.failure is None
    assert res.repeats_used == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_route_fields_derive_from_k_and_n(k):
    # No route runs at n = 0, so the result reports a_k and no fallback;
    # every k = 3 run on a vertex takes the n^{1/4} degree split.
    empty = combined_color(Graph(0), k)
    assert empty.alpha_exponent == alpha_k(k)
    assert not empty.k3_fallback
    res = CombinedResult(5, k, None, ("witness", "x"), 0)
    assert res.k3_fallback is (k == 3)
    assert res.alpha_exponent == (Fraction(1, 4) if k == 3 else alpha_k(k))


def _budget_of_one(monkeypatch):
    monkeypatch.setattr(combined, "cutoff", lambda size, k: 1)
    return planted_k_colorable(40, 4, 0.3, seed=0).graph


# One run per failure kind, with the JSON failure string each gave when the
# result stored that string.
FAILURE_STRINGS = [
    ("witness", lambda mp: cycle_graph(9), 2,
     "graph is not bipartite"),
    ("solver", lambda mp: random_graph(40, 0.5, seed=0), 4,
     "no vector 4-coloring found at tolerance 0.001 (best edge residual "
     "3.160e-01 after 525 iterations; evidence only, not a certificate)"),
    ("contradiction", lambda mp: random_graph(40, 0.7, seed=0), 4,
     "adjacent pair 14,33 has a common neighborhood needing more than 2 "
     "colors"),
    ("budget", _budget_of_one, 4, "color budget 1 exhausted"),
]


@pytest.mark.parametrize("kind,graph,k,message", FAILURE_STRINGS,
                         ids=[case[0] for case in FAILURE_STRINGS])
def test_failure_json_string_per_kind(monkeypatch, kind, graph, k, message):
    res = combined_color(graph(monkeypatch), k, CombinedConfig(seed=0, trials=8))
    assert res.failure == (kind, message)
    assert res.to_json_dict()["failure"] == (
        f"not k-colorable or algorithm failure: {kind}: {message}")


def test_combined_k3_fallback_flagged():
    inst = planted_k_colorable(90, 3, 0.3, seed=4)
    res = combined_color(inst.graph, 3, CombinedConfig(seed=1, trials=16))
    assert res.k3_fallback
    assert verify_coloring(inst.graph, res.coloring)


def test_color_three_witness_on_non_3_colorable():
    # K5 has a non-bipartite neighborhood... but it is tiny, so drive the
    # witness path with a graph above the exact threshold: a 25-clique.
    g = complete_graph(25)
    res = combined_color(g, 3, CombinedConfig(seed=0, trials=8))
    assert res.coloring is None
    assert res.failure[0] == "witness"


def _wheel_plus_path(path_len):
    # Hub 0 joined to the 30-cycle 1..30, then a path on 31..30+path_len.
    edges = [(0, i) for i in range(1, 31)]
    edges += [(i, i % 30 + 1) for i in range(1, 31)]
    edges += [(i, i + 1) for i in range(31, 30 + path_len)]
    return Graph(31 + path_len, edges)


# The hub's degree 30 is at least n^{3/4}, so the fallback splits its
# bipartite neighbourhood off with colours 0 and 1. The hub and the path
# remain: 10 vertices go to the exact oracle, 30 to the exact 2-colouring.
# Colourings captured before the fallback named its subgraphs by ``verts``.
_WHEEL_CYCLE = (0, 1) * 15


@pytest.mark.parametrize("path_len, rest", [
    (9, (2,) + _WHEEL_CYCLE + (3, 2) * 4 + (3,)),
    (29, (2,) + _WHEEL_CYCLE + (2, 3) * 14 + (2,)),
])
def test_color_three_fallback_splits_high_degree_neighbourhood(path_len, rest):
    g = _wheel_plus_path(path_len)
    col = color_three_fallback(g, CombinedConfig())
    assert col.assignment == rest
    assert verify_coloring(g, col)


def test_color_three_fallback_reports_solver_stall(monkeypatch):
    # An odd 25-cycle is above the exact oracle's guard, not bipartite and
    # of low degree, so the fallback rounds it through kms_color.
    def stall(g, alpha, **kwargs):
        assert "eps" not in kwargs  # the solver's default tolerance holds
        raise InfeasibleError(alpha, 0.5, dict.fromkeys(PHASES, 1))

    monkeypatch.setattr(rounding, "solve_vector_coloring", stall)
    with pytest.raises(NotKColorableError) as err:
        color_three_fallback(cycle_graph(25), CombinedConfig())
    assert err.value.kind == "solver"


@pytest.mark.parametrize("k, route", [(2, "two_coloring"),
                                      (3, "color_three_fallback")])
def test_combined_verifies_the_k2_and_k3_routes(monkeypatch, k, route):
    # Each route's colouring is verified before it leaves the library, as
    # progress_driver verifies its own: an improper one is a bug trap.
    monkeypatch.setattr(combined, route,
                        lambda g, *args: Coloring((0,) * g.n))
    with pytest.raises(AssertionError, match="improper"):
        combined_color(cycle_graph(6), k)


def test_combined_k4_planted_small():
    inst = planted_k_colorable(60, 4, 0.4, seed=2)
    res = combined_color(inst.graph, 4, CombinedConfig(seed=3, trials=16))
    assert res.coloring is not None
    assert verify_coloring(inst.graph, res.coloring)
    assert res.colors_used <= cutoff(60, 4)


def test_combined_k4_planted_midsize():
    inst = planted_k_colorable(150, 4, 0.3, seed=5)
    res = combined_color(inst.graph, 4, CombinedConfig(seed=7, trials=16))
    assert res.coloring is not None
    assert verify_coloring(inst.graph, res.coloring)
    assert res.colors_used <= 20


# Planted (n, k, p, seed) cases whose solves once stalled above eps: with
# feasibility aimed below the exact target, a K_k held the largest edge
# residual at 1.2-1.7e-3 against eps 1e-3. Each now colours in its one run.
STALL_CASES = [
    (200, 4, 0.5, 0), (250, 4, 0.5, 0), (300, 4, 0.5, 0), (120, 4, 0.6, 0),
    (64, 4, 0.3, 0), (120, 6, 0.7, 3), (130, 4, 0.5, 306005),
]


@pytest.mark.parametrize("n,k,p,seed", STALL_CASES)
def test_former_solver_stalls_colour(n, k, p, seed):
    g = planted_k_colorable(n, k, p, seed=seed).graph
    res = combined_color(g, k, CombinedConfig(seed=seed, trials=16))
    assert res.coloring is not None, res.failure
    assert verify_coloring(g, res.coloring)
    assert res.failure is None


def _counting_solver(monkeypatch):
    """Log the vertex count of every solve the finder makes."""
    calls = []
    solve = combined.solve_vector_coloring

    def counted(g, alpha, **kwargs):
        calls.append(g.n)
        return solve(g, alpha, **kwargs)

    monkeypatch.setattr(combined, "solve_vector_coloring", counted)
    return calls


def _first_round(monkeypatch):
    calls = _counting_solver(monkeypatch)
    cg = ContractedGraph(planted_k_colorable(60, 4, 0.3, seed=1).graph)
    finder = _CombinedFinder(4, CombinedConfig(trials=16), [])
    first = finder._round_low_degree(cg, cg.alive)
    assert calls == [60] and first.members.size
    return calls, cg, finder, first


def test_low_degree_round_restricts_feasible_cached_rows(monkeypatch):
    calls, cg, finder, first = _first_round(monkeypatch)
    cg.delete(first.members)
    second = finder._round_low_degree(cg, cg.alive)
    assert calls == [60]  # the cached rows of U served the round
    assert second.members.size and cg.is_independent(second.members)


@pytest.mark.parametrize("miss", ["row", "merge"])
def test_low_degree_round_solves_cold_without_feasible_rows(monkeypatch, miss):
    calls, cg, finder, _ = _first_round(monkeypatch)
    if miss == "row":
        finder._row_of[cg.alive[0]] = -1
    else:
        # A failed probe claims a merge, which gives u the edges of v that
        # the cached rows never saw: the finder drops them.
        monkeypatch.setattr(combined, "combined_color",
                            lambda g, k, cfg: CombinedResult(
                                g.n, k, None, ("witness", "x"), cfg.seed))
        u, v = planted_k_colorable(60, 4, 0.3, seed=1).classes[0][:2]
        claim = finder._probe_pair(cg, u, v)
        assert claim == SameColor(u, v) and finder._solved is None
        cg.merge(u, v)
    second = finder._round_low_degree(cg, cg.alive)
    assert calls == [60, cg.alive_count]
    assert second.members.size and cg.is_independent(second.members)


def test_combined_proper_even_when_not_k_colorable():
    # K5 is not 4-colorable; the result is still a proper (5-)coloring.
    res = combined_color(complete_graph(5), 4)
    assert res.coloring is not None
    assert verify_coloring(complete_graph(5), res.coloring)
    assert res.colors_used == 5


def test_combined_declarations_are_sound():
    # Any recorded "needs more than k-2 colors" subgraph must be confirmed
    # by the exact oracle (independent BFS bipartiteness check for k = 2).
    from sdpcolor.graph import two_coloring
    inst = planted_k_colorable(128, 4, 0.5, seed=9)
    res = combined_color(inst.graph, 4, CombinedConfig(seed=2, trials=16))
    assert res.coloring is not None
    assert res.declarations
    for dec in res.declarations:
        sub = Graph(dec.sub.n, dec.sub.edges)
        if dec.k == 2:
            assert two_coloring(sub) is None
        else:
            assert not is_k_colorable(sub, dec.k)


def test_result_json_schema():
    # The exponent is the route's: k = 3 runs the n^{1/4} degree-split
    # route, not the 3/14 one.
    for k, alpha, fallback in ((4, "7/19", False), (3, "1/4", True)):
        inst = planted_k_colorable(40, k, 0.4, seed=1)
        res = combined_color(inst.graph, k, CombinedConfig(seed=0, trials=8))
        payload = res.to_json_dict()
        assert payload["n"] == 40 and payload["k"] == k
        assert payload["k3_fallback"] is fallback
        assert payload["alpha_k"] == alpha
        assert payload["bound_n_pow_alpha"] == pytest.approx(
            40 ** float(Fraction(alpha)))
        assert payload["colors_used"] == len(set(payload["coloring"]))
        assert set(payload) == {
            "n", "k", "colors_used", "coloring", "failure", "alpha_k",
            "bound_n_pow_alpha", "seed", "k3_fallback",
        }


def test_quotient_matches_recompute_through_merges_and_deletes():
    # The dense quotient must equal the graph rebuilt from the base graph and
    # the merged groups, dead ids must hold no edges, and the finder's pair
    # counts must match common neighbours counted on the rebuilt quotient.
    # The pair is asked for only where the finder asks for it: on a peeled
    # core of more than 10 vertices at a threshold above 1.
    rng = stream(11, "finder-fuzz")
    paired = 0
    for seed in range(6):
        g = random_graph(22, 0.3, seed=seed)
        base = g.adjacency_matrix().astype(np.int64)
        cg = ContractedGraph(g)
        for step in range(8):
            alive = cg.alive
            if len(alive) < 4:
                break
            if step % 3 == 2:
                drop = [int(x) for x in
                        rng.choice(alive, size=min(3, len(alive)), replace=False)]
                if cg.is_independent(drop):
                    cg.delete(drop)
            else:
                u, v = (int(x) for x in rng.choice(alive, 2, replace=False))
                if u != v and not cg.has_edge(u, v):
                    cg.merge(u, v)
            alive = cg.alive
            groups = (cg.rep == np.array(alive)[:, None]).astype(np.int64)
            want = (groups @ base @ groups.T) > 0
            assert np.array_equal(cg.adj[np.ix_(alive, alive)], want)
            assert not cg.adj[~cg.live].any() and not cg.adj[:, ~cg.live].any()
            quotient, _ = cg.quotient_graph()
            assert np.array_equal(quotient.adjacency_matrix(), want)
            common = want.astype(np.int64) @ want.astype(np.int64)
            np.fill_diagonal(common, 0)
            index = alive.tolist().index
            for thr in (1.5, 3.0):
                w_ids = cg.peel(thr)[1]
                if len(w_ids) <= 10:
                    continue
                paired += 1
                at = [index(w) for w in w_ids]
                common_w = common[np.ix_(at, at)]
                u, v, count = _best_pair(cg, w_ids)
                assert u < v and count == common_w.max() >= 1
                # Ties go to the first pair in row-major order over W.
                i, j = divmod(int(np.argmax(common_w)), len(at))
                assert (u, v) == (w_ids[i], w_ids[j])
                assert count == common[index(u), index(v)]
    assert paired >= 80


def test_pair_step_rests_on_the_peel_invariant(monkeypatch):
    # Every pair step the finder takes is on a core W of more than 10
    # vertices, each with at least 2 neighbours in W, so a pair sharing a
    # neighbour always exists: _best_pair needs no "no pair" answer.
    calls = []

    def checked(cg, w_ids):
        assert len(w_ids) > 10
        assert cg.adj[np.ix_(w_ids, w_ids)].sum(axis=1).min() >= 2
        u, v, count = _best_pair(cg, w_ids)
        assert count >= 1 and u < v
        calls.append(len(w_ids))
        return u, v, count

    monkeypatch.setattr(combined, "_best_pair", checked)
    # The k >= 4 golden runs (tests/test_golden.py), then contract-k4-shaped
    # runs (perfbench: planted k=4, p=0.5, n=130, default trials). The first
    # golden run's rounds are all low-degree ones and never reach the step.
    runs = [(planted_k_colorable(96, 4, 0.3, seed=1).graph, 4, 16, 1),
            (planted_k_colorable(130, 4, 0.5, seed=2).graph, 4, 16, 2),
            (planted_k_colorable(100, 4, 0.8, seed=1).graph, 4, 16, 1),
            (planted_k_colorable(90, 6, 0.8, seed=5).graph, 6, 16, 5),
            (planted_k_colorable(120, 6, 0.7, seed=3).graph, 6, 16, 3),
            (random_graph(60, 0.9, seed=1), 4, 16, 1)]
    runs += [(planted_k_colorable(130, 4, 0.5, seed=s).graph, 4, 64, s)
             for s in (1000, 1001, 1002)]
    reached = []
    for g, k, trials, seed in runs:
        before = len(calls)
        combined_color(g, k, CombinedConfig(trials=trials, seed=seed))
        reached.append(len(calls) > before)
    assert reached == [False] + [True] * (len(runs) - 1)


def test_candidate_round_pinned():
    # No golden CLI case reaches the candidate round, so one round is pinned
    # directly; this set comes from an ak_independent_set probe, not from
    # the greedy last resort.
    g = planted_k_colorable(60, 4, 0.4, seed=0).graph
    cg = ContractedGraph(g)
    finder = _CombinedFinder(4, CombinedConfig(trials=16), [])
    finder.round_no = 1
    got = finder._candidate_round(cg, cg.alive, cg.alive_count,
                                  float(alpha_k(4)))
    assert got.members.tolist() == [1, 11, 12, 15, 16, 39, 40, 43, 57]
    assert cg.is_independent(got.members)


def test_candidate_round_falls_back_to_greedy(monkeypatch):
    # When no probe meets its floor, the round's last resort is the greedy
    # set of the whole quotient, named by its representatives.
    probes = []

    def nothing(tsub, *args, **kwargs):
        probes.append(tsub.n)
        return frozenset()

    monkeypatch.setattr(combined, "ak_independent_set", nothing)
    inst = planted_k_colorable(60, 4, 0.4, seed=0)
    cg = ContractedGraph(inst.graph)
    cg.merge(*inst.classes[0][:2])
    finder = _CombinedFinder(4, CombinedConfig(trials=16), [])
    finder.round_no = 1
    got = finder._candidate_round(cg, cg.alive, cg.alive_count,
                                  float(alpha_k(4)))
    assert len(probes) == combined.CANDIDATE_CAP
    quotient, reps = cg.quotient_graph()
    assert got.members.tolist() == reps[sorted(
        greedy_independent_set(quotient))].tolist() == [
            0, 5, 13, 17, 18, 28, 30, 33, 35, 37, 45]
    assert cg.is_independent(got.members)


@pytest.mark.parametrize("seed", range(6))
def test_capped_family_reaches_the_candidate_round(monkeypatch, seed):
    # Steps 7-9 end to end: on a degree-capped planted graph the peel
    # leaves a core in which no pair shares enough neighbours, so the
    # finder's dispatch runs one candidate round, and a probe meets its
    # floor (the greedy last resort never runs).
    rounds = []
    real = _CombinedFinder._candidate_round

    def recorded(self, cg, w_ids, n, ak):
        claim = real(self, cg, w_ids, n, ak)
        rounds.append((claim.members.size, n ** (1.0 - ak) / 4.0))
        return claim

    def refuse(g):
        raise AssertionError("the candidate round fell back to greedy")

    monkeypatch.setattr(_CombinedFinder, "_candidate_round", recorded)
    monkeypatch.setattr(combined, "greedy_independent_set", refuse)
    n, k, d = 400, 4, 90
    g = degree_capped_planted(n, k, 2 * d / (3 * n / 4), d, seed=seed).graph
    res = combined_color(g, k, CombinedConfig(seed=seed))
    assert verify_coloring(g, res.coloring)
    assert res.colors_used <= cutoff(n, k)
    assert len(rounds) == 1 and rounds[0][0] >= rounds[0][1]


def test_candidate_round_never_builds_the_whole_collection(monkeypatch):
    # The round ranks the collection lazily and builds only the sets it
    # probes, so it must give the pinned set without the full build.
    def refuse(*args, **kwargs):
        raise AssertionError("the candidate round built the whole collection")

    monkeypatch.setattr(progress, "build_candidate_collection", refuse)
    monkeypatch.setattr(combined, "build_candidate_collection", refuse,
                        raising=False)
    g = planted_k_colorable(60, 4, 0.4, seed=0).graph
    cg = ContractedGraph(g)
    finder = _CombinedFinder(4, CombinedConfig(trials=16), [])
    finder.round_no = 1
    got = finder._candidate_round(cg, cg.alive, cg.alive_count,
                                  float(alpha_k(4)))
    assert got.members.tolist() == [1, 11, 12, 15, 16, 39, 40, 43, 57]


def _probe_fixture(adjacent):
    # Pair 0,1 with the common neighbourhood {2..6}, a K5, which no
    # 4-colouring probe can colour; 0-1 is an edge when ``adjacent``.
    edges = [(a, b) for a in range(2, 7) for b in range(a + 1, 7)]
    edges += [(0, x) for x in range(2, 7)] + [(1, x) for x in range(2, 7)]
    if adjacent:
        edges.append((0, 1))
    return ContractedGraph(Graph(7, edges))


def _failing_probe(monkeypatch, kind):
    """Make the recursive probe fail with ``kind``; returns its call log."""
    calls = []

    def probe(sub, k, cfg=None):
        calls.append((sub.n, k))
        return CombinedResult(sub.n, k, None, (kind, "probe failed"), 0)

    monkeypatch.setattr(combined, "combined_color", probe)
    return calls


@pytest.mark.parametrize("adjacent", [False, True])
def test_probe_solver_stall_is_no_evidence(monkeypatch, adjacent):
    # A stalled solver must neither merge the pair nor contradict the graph:
    # the run fails as "solver".
    calls = _failing_probe(monkeypatch, "solver")
    declarations = []
    finder = _CombinedFinder(6, CombinedConfig(), declarations)
    with pytest.raises(NotKColorableError) as err:
        finder._probe_pair(_probe_fixture(adjacent), 0, 1)
    assert err.value.kind == "solver"
    assert "pair 0,1" in str(err.value)
    assert calls == [(5, 4)]
    assert declarations == []


@pytest.mark.parametrize("kind", ["budget", "witness", "contradiction"])
def test_probe_sound_failure_merges_or_contradicts(monkeypatch, kind):
    _failing_probe(monkeypatch, kind)
    declarations = []
    finder = _CombinedFinder(6, CombinedConfig(), declarations)
    assert finder._probe_pair(_probe_fixture(False), 0, 1) == SameColor(0, 1)
    with pytest.raises(NotKColorableError) as err:
        finder._probe_pair(_probe_fixture(True), 0, 1)
    assert err.value.kind == "contradiction"
    assert [(d.sub.n, d.k) for d in declarations] == [(5, 4), (5, 4)]


def test_declarations_read_what_the_probe_built(monkeypatch):
    # k - 2 = 2 and k - 2 >= 3 both record the Graph the probe coloured,
    # cg.induced(S): the subgraph the quotient induces on S.
    edges = [(0, x) for x in range(2, 9)] + [(1, x) for x in range(2, 9)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (7, 8)]  # C5 + edge
    cg = ContractedGraph(Graph(10, edges))
    cg.merge(8, 9)  # a merged-away id, whose zero row stays out of S
    declarations = []
    finder = _CombinedFinder(4, CombinedConfig(), declarations)
    assert finder._probe_pair(cg, 0, 1) == SameColor(0, 1)
    [dec] = declarations
    assert dec == Declaration(cg.induced(list(range(2, 9))), 2)
    assert (dec.sub.n, dec.k) == (7, 2)
    assert dec.sub.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (5, 6))

    _failing_probe(monkeypatch, "budget")
    declarations.clear()
    cg = _probe_fixture(False)
    finder = _CombinedFinder(6, CombinedConfig(), declarations)
    assert finder._probe_pair(cg, 0, 1) == SameColor(0, 1)
    [dec] = declarations
    assert dec == Declaration(cg.induced(list(range(2, 7))), 4)
    assert (dec.sub.n, dec.k, len(dec.sub.edges)) == (5, 4, 10)


@pytest.mark.parametrize("cycle, side", [
    ((3, 6, 4, 7, 5, 8), [3, 4, 5]),
    ((3, 4, 7, 5, 8, 6), [3, 7, 8]),
])
def test_k4_probe_tie_takes_the_side_of_the_lowest_id(cycle, side):
    # Pair 0,1 with the common neighbourhood S = {3..8}, an even cycle
    # whose two sides have three vertices each; 2 is a neighbour of 0 only.
    # The k - 2 = 2 colouring's larger class is, on the tie, colour 0: the
    # side holding S's lowest id.
    edges = [(0, 2)] + [(0, x) for x in cycle] + [(1, x) for x in cycle]
    edges += [tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])]
    declarations = []
    finder = _CombinedFinder(4, CombinedConfig(), declarations)
    claim = finder._probe_pair(ContractedGraph(Graph(9, edges)), 0, 1)
    assert claim.members.tolist() == side
    assert declarations == []


@pytest.mark.parametrize("trials", [0, -1])
def test_combined_refuses_trials_below_one(trials):
    # Refused at entry, before any round: on 15 vertices the exact finish
    # would colour the graph without a single rounding trial.
    g = planted_k_colorable(15, 4, 0.3, seed=1).graph
    with pytest.raises(ValueError, match="need at least one trial"):
        combined_color(g, 4, CombinedConfig(trials=trials))


def test_fit_exponent():
    sizes = [100, 200, 400, 800]
    values = [s ** 0.4 * 3.0 for s in sizes]
    assert fit_exponent(sizes, values) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        fit_exponent([10], [5])
