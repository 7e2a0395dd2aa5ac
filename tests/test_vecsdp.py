import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import sdpcolor._dual as dual
import sdpcolor.vecsdp as vecsdp
from sdpcolor._rng import stream
from sdpcolor.graph import Graph
from sdpcolor.testkit import (
    DegenerateProjectionError,
    alignment_sum,
    complete_graph,
    constraint_residual,
    cycle_graph,
    is_feasible_for,
    path_graph,
    petersen_graph,
    planted_k_colorable,
    project_orthogonal,
    simplex_vectors,
    star_graph,
)
from sdpcolor.vecsdp import (
    EPS,
    IndSetSdpSolution,
    InfeasibleError,
    PromiseNotMetError,
    VectorColoring,
    neighborhood_reduce,
    solve_indset_sdp,
    solve_vector_coloring,
    well_aligned_subset,
)


def test_simplex_vectors():
    for count in (2, 3, 4, 7):
        s = simplex_vectors(count)
        gram = s @ s.T
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram[~np.eye(count, dtype=bool)]
        assert np.allclose(off, -1.0 / (count - 1), atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_adam_matches_textbook_adam(dtype, tol):
    # The unscaled-moment step against out-of-place textbook Adam over 200
    # seeded steps; one row's gradient stays zero and must not move it.
    rng = stream(41, "adam-textbook")
    lr = 0.02
    p0 = rng.standard_normal((16, 5)).astype(dtype)
    p0[3] = 0.0
    lean, book = p0.copy(), p0.copy()
    opt = vecsdp._Adam(lean, lr)
    m, v = np.zeros_like(book), np.zeros_like(book)
    for t in range(1, 201):
        g = rng.standard_normal(book.shape).astype(dtype)
        g[3] = 0.0
        opt.step(lean, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        book -= lr * mhat / (np.sqrt(vhat) + 1e-12)
        assert lean.dtype == dtype
        assert np.abs(lean - book).max() <= tol
    assert np.array_equal(lean[3], p0[3])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_first_step_moves_by_lr_sign(dtype):
    # Step 1 is lr g / (|g| + 1e-12): lr sign(g) up to the 1e-12 term and
    # rounding. From zero the step is the whole move.
    rng = stream(42, "adam-first-step")
    g = rng.standard_normal((32, 7)).astype(dtype)
    lr = 0.05
    params = np.zeros_like(g)
    vecsdp._Adam(params, lr).step(params, g)
    slack = lr * (8 * np.finfo(dtype).eps + 1e-12 / np.abs(g.astype(float)))
    assert np.all(np.abs(params + lr * np.sign(g)) <= slack)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_row_normalize_in_place_unit_rows_zero_row_kept(dtype):
    # Against np.linalg.norm to 2 ulp of the rows' unit norm: the two sum
    # the squares in different orders, so a small entry can differ by more
    # than 2 of its own ulp (3 at d = 32 here).
    rng = stream(43, "row-normalize")
    eps = np.finfo(dtype).eps
    for d in (1, 3, 8, 24, 32, 129):
        v = rng.standard_normal((40, d)) * np.logspace(-3, 3, 40)[:, None]
        v = v.astype(dtype)
        v[5] = 0.0
        want = v.copy()
        keep = np.arange(40) != 5
        want[keep] /= np.linalg.norm(v[keep], axis=1, keepdims=True)
        got = v.copy()
        norms = np.empty(40, dtype)
        assert vecsdp._row_normalize(got, norms) is got
        assert got.dtype == dtype
        assert not got[5].any()
        unit = np.linalg.norm(got[keep].astype(np.float64), axis=1)
        assert np.abs(unit - 1.0).max() <= 4 * eps
        assert np.abs(got - want).max() <= 2 * eps


# The kernel table the cost model is fitted to: per shape, each kernel's
# us per call in every run, and the weighted-edge counts of the sums.
_KERNEL_TABLE = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_kernel_model.json")


def _faster(times, a, b):
    """a or b if it was faster in every run and by 20% or more in the
    median; None for a tie within the table's run-to-run spread."""
    ta, tb = np.asarray(times[a]), np.asarray(times[b])
    if (ta < tb).all() and np.median(tb) >= 1.2 * np.median(ta):
        return a
    if (tb < ta).all() and np.median(ta) >= 1.2 * np.median(tb):
        return b
    return None


def _kernel_rows():
    """(n, m, d, dtype, weighted edges) -> (dots kernel, sums kernel), None
    where the table measured a tie. Float32 rows of width 8 or less are left
    out: ``_iteration_dtype`` never iterates there."""
    with open(_KERNEL_TABLE, encoding="utf-8") as fh:
        table = json.load(fh)["kernel_table"]["rows"]
    rows = []
    for r in table:
        if r["dtype"] == "float32" and r["d"] <= 8:
            continue
        dots = _faster(r["us"], "gram", "gather")
        for pct, weighted in r["weighted"].items():
            sums = _faster(r["us"], f"gemm_{pct}", f"scatter_{pct}")
            sums = sums and sums.split("_")[0]
            rows.append(((r["n"], r["m"], r["d"], r["dtype"], weighted),
                         (dots, sums)))
    # Above 2048 vertices the gather and the scatter, whatever the counts.
    for m, d, dtype in ((3000, 2, "float64"), (100_000, 24, "float32")):
        rows += [((2049, m, d, dtype, w), ("gather", "scatter"))
                 for w in (1, m // 2, m)]
    # indset-a3's shapes: every edge weighted, width 32, float32.
    rows += [((100, 1014, 32, "float32", 1014), ("gram", "gemm")),
             ((150, 2270, 32, "float32", 2270), ("gram", "gemm"))]
    return rows


def test_edge_kernel_choice_follows_the_cost_model():
    rows = _kernel_rows()
    assert sum(dots is not None for _, (dots, _) in rows) >= 100
    assert sum(sums is not None for _, (_, sums) in rows) >= 200
    wrong = []
    for (n, m, d, dtype, weighted), want in rows:
        # The choice reads only the counts, so every edge may be 0-1.
        sums = vecsdp._EdgeSums(np.zeros(m, np.int64), np.ones(m, np.int64),
                                (n, d), np.dtype(dtype))
        got = ("gram" if sums.by_gram else "gather",
               "gemm" if weighted >= sums.gemm_from else "scatter")
        if any(w is not None and w != g for w, g in zip(want, got)):
            wrong.append(((n, m, d, dtype, weighted), want, got))
    assert wrong == []


def test_all_edge_scatter_peak_stays_below_one_gathered_block():
    # The scatter gathers one column at a time, so no (2m, d) block of
    # gathered rows (14.5 MiB here) is ever built; building it peaked at
    # 16.9 MiB. The sums equal those of the block, bit for bit.
    g = planted_k_colorable(2049, 4, 0.05, seed=0).graph
    eu, ev = g.edge_arrays()
    d, dtype = 24, np.dtype(np.float32)
    sums = vecsdp._EdgeSums(eu, ev, (g.n, d), dtype)
    rng = stream(0, "scatter-peak")
    x = rng.standard_normal((g.n, d)).astype(dtype)
    w = rng.random(g.m).astype(dtype)
    out = np.empty_like(x)
    tracemalloc.start()
    try:
        sums.scatter(w, x, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.m * d * dtype.itemsize
    block, both = x[sums.other], np.concatenate([w, w])
    for col in range(d):
        assert np.array_equal(out[:, col], np.bincount(
            sums.idx, weights=both * block[:, col], minlength=g.n).astype(dtype))


def test_solve_simplex_tight_instance():
    # K_{k+1} at alpha = k+1 forces the regular simplex: every pairwise dot
    # lands on -1/k.
    g = complete_graph(5)
    vc = solve_vector_coloring(g, 5.0, seed=0)
    assert is_feasible_for(vc, g)
    dots = vc.vectors @ vc.vectors.T
    off = dots[~np.eye(5, dtype=bool)]
    assert np.allclose(off, -0.25, atol=5e-3)


def test_solve_edgeless_any_alpha():
    g = Graph(6)
    vc = solve_vector_coloring(g, 2.0, seed=0)
    assert vc.norm_residual() <= 1e-12
    assert vc.edge_residual(g) == float("-inf")


def test_solve_planted_instance():
    inst = planted_k_colorable(30, 3, 0.5, seed=7)
    vc = solve_vector_coloring(inst.graph, 3.0, seed=1)
    assert is_feasible_for(vc, inst.graph)
    # The planted classes give an exact witness, so feasibility must also hold
    # at any weaker alpha.
    vc2 = solve_vector_coloring(inst.graph, 3.5, seed=1)
    assert is_feasible_for(vc2, inst.graph)


def test_solve_infeasible_is_evidence():
    # K4 has no vector 2.5-coloring: four unit vectors cannot be pairwise
    # below -2/3 (the Gram sum would be negative).
    with pytest.raises(InfeasibleError) as err:
        solve_vector_coloring(complete_graph(4), 2.5, budget=600, seed=0)
    assert err.value.best_residual > 0
    assert "evidence" in str(err.value)


def test_solve_tracks_vector_chromatic_boundary():
    # The vector chromatic number of C5 is sqrt(5) ~ 2.236.
    vc = solve_vector_coloring(cycle_graph(5), 2.5, seed=0)
    assert is_feasible_for(vc, cycle_graph(5))
    with pytest.raises(InfeasibleError):
        solve_vector_coloring(cycle_graph(5), 2.1, budget=1200, seed=0)


def test_infeasible_error_counts_every_descent_iteration(monkeypatch):
    # Just below C5's vector chromatic number the wide pass lands within
    # 10 eps, so the rank-2 re-descent and its Polyak polish run before the
    # solve gives up; the polish's iterations count too.
    calls = []
    real_descent, real_polish = vecsdp._coloring_descent, vecsdp._polyak_polish

    def counted(v, *args, **kwargs):
        used = real_descent(v, *args, **kwargs)
        calls.append(("adam", v.shape[1], used))
        return used

    def polished(v, *args):
        used, met = real_polish(v, *args)
        calls.append(("polyak", v.shape[1], used))
        return used, met

    monkeypatch.setattr(vecsdp, "_coloring_descent", counted)
    monkeypatch.setattr(vecsdp, "_polyak_polish", polished)
    with pytest.raises(InfeasibleError) as err:
        solve_vector_coloring(cycle_graph(5), 2.23, budget=400, seed=0,
                              restarts=2)
    assert any(width == 2 for kind, width, _ in calls if kind == "adam")
    assert any(kind == "polyak" for kind, _, _ in calls)
    assert err.value.iterations == sum(used for *_, used in calls)


@pytest.mark.parametrize("n,k,p,seed,dim", [
    (40, 5, 0.3, 3, 4),    # the low-rank re-descent after one refinement pass
    (60, 5, 0.3, 0, 24),   # refined full-width rows; the re-descent misses
    # Refinement with a fixed aim parked above eps here on every pass (best
    # residual 1.5e-3); the per-edge shifts bring it within eps at rank 3.
    (40, 4, 0.3, 3, 3),
])
def test_refinement_rescues_the_solve(n, k, p, seed, dim):
    g = planted_k_colorable(n, k, p, seed=seed).graph
    vc = solve_vector_coloring(g, float(k), seed=seed, restarts=1)
    assert vc.dim == dim
    assert is_feasible_for(vc, g)


def test_final_lowrank_phase_exits_at_half_eps(monkeypatch):
    # The re-descent at rank 3 is an Adam feasibility phase that exits at
    # the hand-off bar t + 10 eps, then the Polyak polish, which iterates
    # float64 rows accepted at t + eps and exits at t + eps/2. It meets that
    # bar here, so no Adam polish follows it.
    phases = []
    real_descent, real_polish = vecsdp._coloring_descent, vecsdp._polyak_polish

    def recorded(v, *args, stop_at=None, **kwargs):
        phases.append(("adam", v.shape[1], stop_at))
        return real_descent(v, *args, stop_at=stop_at, **kwargs)

    def polished(v, eu, ev, target, stop_at):
        used, met = real_polish(v, eu, ev, target, stop_at)
        phases.append(("polyak", v.shape[1], stop_at))
        assert met and (v[eu] * v[ev]).sum(axis=1).max() <= stop_at
        return used, met

    monkeypatch.setattr(vecsdp, "_coloring_descent", recorded)
    monkeypatch.setattr(vecsdp, "_polyak_polish", polished)
    g = planted_k_colorable(60, 4, 0.3, seed=1).graph
    vc = solve_vector_coloring(g, 4.0, seed=1)
    assert is_feasible_for(vc, g) and vc.dim == 3
    t = -1.0 / 3.0
    assert [phase for phase in phases if phase[1] == 3] == [
        ("adam", 3, t + 10.0 * EPS), ("polyak", 3, t + 0.5 * EPS)]


def test_polish_that_stops_short_falls_back_to_adam(monkeypatch):
    # At alpha 7 on planted (40, 7, 0.5, 0) the Polyak polish of the rank-6
    # rows runs its 100 iterations without reaching t + eps/2, so the Adam
    # polish continues from its rows, exits at the same bar, and the solve
    # still returns rank-6 rows within eps.
    phases = []
    real_descent, real_polish = vecsdp._coloring_descent, vecsdp._polyak_polish

    def recorded(v, *args, stop_at=None, **kwargs):
        phases.append(("adam", v.shape[1], stop_at))
        return real_descent(v, *args, stop_at=stop_at, **kwargs)

    def polished(v, *args):
        used, met = real_polish(v, *args)
        phases.append(("polyak", v.shape[1], used, met))
        return used, met

    monkeypatch.setattr(vecsdp, "_coloring_descent", recorded)
    monkeypatch.setattr(vecsdp, "_polyak_polish", polished)
    g = planted_k_colorable(40, 7, 0.5, seed=0).graph
    vc = solve_vector_coloring(g, 7.0, seed=0)
    t = -1.0 / 6.0
    assert [phase for phase in phases if phase[1] == 6] == [
        ("adam", 6, t + 10.0 * EPS), ("polyak", 6, vecsdp._POLISH_ITERS, False),
        ("adam", 6, t + 0.5 * EPS)]
    assert vc.dim == 6 and is_feasible_for(vc, g)


def test_polish_stops_on_a_zero_tangent_gradient():
    # Identical rows on a path: every neighbour sum is parallel to its own
    # row, so the tangent gradient is exactly zero while every edge is
    # violated. The polish stops there and leaves the rows as they were,
    # with no 0/0 step.
    g = path_graph(4)
    eu, ev = g.edge_arrays()
    v = np.zeros((4, 2))
    v[:, 0] = 1.0
    assert vecsdp._polyak_polish(v, eu, ev, -0.5, -0.5 + 0.5 * EPS) == (1, False)
    assert np.array_equal(v[:, 0], np.ones(4)) and not v[:, 1].any()


def test_unrefined_rows_are_re_descended_once(monkeypatch):
    # On the Petersen graph the wide pass alone meets eps, so no refinement
    # pass runs and a failed re-descent is not repeated on the same rows.
    calls = []

    def collapsed(v, rank):
        calls.append(rank)
        out = np.zeros((v.shape[0], 1))
        out[:, 0] = 1.0  # every edge dot is 1: no rank-1 descent can succeed
        return out

    monkeypatch.setattr(vecsdp, "_rank_reduce", collapsed)
    g = petersen_graph()
    vc = solve_vector_coloring(g, 3.0, seed=0)
    assert calls == [2]
    assert vc.dim == 10 and is_feasible_for(vc, g)


def test_rank_at_least_width_still_solves():
    # n = 3 rows are narrower than rank ceil(8) - 1 = 7, so the re-descent
    # runs on a full-width copy.
    g = complete_graph(3)
    vc = solve_vector_coloring(g, 8.0, seed=0)
    assert vc.dim == 3
    assert is_feasible_for(vc, g)


def _gaussian_rows(n, d, dtype):
    return stream(48, "spectral-start").standard_normal((n, d)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spectral_start_gives_unit_rows_that_push_neighbours_apart(dtype):
    # Power steps on max_degree I - A move random rows toward the
    # adjacency's most negative eigenspace: unit rows in the input dtype,
    # the same rows for the same draw, and edges further apart on average
    # than between the raw rows.
    g = planted_k_colorable(128, 4, 0.3, seed=0).graph
    eu, ev = g.edge_arrays()
    raw = vecsdp._row_normalize(_gaussian_rows(g.n, 24, dtype))
    start = vecsdp._spectral_start(_gaussian_rows(g.n, 24, dtype), eu, ev,
                                   g.max_degree)
    again = vecsdp._spectral_start(_gaussian_rows(g.n, 24, dtype), eu, ev,
                                   g.max_degree)
    assert start.dtype == np.dtype(dtype) and start.shape == (g.n, 24)
    assert np.allclose(np.linalg.norm(start.astype(np.float64), axis=1), 1.0,
                       atol=1e-6)
    assert np.array_equal(start, again)
    mean_dot = float(vecsdp._edge_dots(start, eu, ev).mean())
    assert mean_dot < 0.0
    assert mean_dot < float(vecsdp._edge_dots(raw, eu, ev).mean())


def test_spectral_start_scatters_above_2048_vertices(monkeypatch):
    # No n x n matrix above n = 2048: the start's products A v go through
    # the scatter over every edge, never the gemm.
    g = planted_k_colorable(2049, 3, 3.0 / 1366, seed=18).graph
    eu, ev = g.edge_arrays()
    calls = []
    real = vecsdp._EdgeSums.scatter

    def scatter(self, weights, x, out, active=None):
        calls.append(active)
        return real(self, weights, x, out, active)

    def gemm(self, weights, x, out):
        raise AssertionError("gemm above n = 2048")

    monkeypatch.setattr(vecsdp._EdgeSums, "scatter", scatter)
    monkeypatch.setattr(vecsdp._EdgeSums, "gemm", gemm)
    d = vecsdp._solver_dim(g.n, g.m)
    vecsdp._spectral_start(_gaussian_rows(g.n, d, np.float32), eu, ev,
                           g.max_degree)
    assert calls == [None] * vecsdp._SPECTRAL_STEPS


def test_restriction_closure():
    inst = planted_k_colorable(24, 3, 0.5, seed=4)
    g = inst.graph
    vc = solve_vector_coloring(g, 3.0, seed=0)
    for subset in ({0, 1, 2, 3, 4}, set(range(0, 24, 2))):
        from sdpcolor.graph import induced_subgraph
        sub, verts = induced_subgraph(g, subset)
        rvc = VectorColoring(vc.alpha, vc.vectors[verts], vc.eps)
        assert rvc.norm_residual() <= vc.eps
        assert rvc.edge_residual(sub) <= vc.eps


def test_alpha_validation():
    with pytest.raises(ValueError):
        solve_vector_coloring(complete_graph(3), 1.5)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_coloring_solver_rejects_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        solve_vector_coloring(complete_graph(3), alpha)


@pytest.mark.parametrize("budget", [0, -1])
def test_indset_sdp_rejects_budget_below_one(budget):
    with pytest.raises(ValueError, match="budget"):
        solve_indset_sdp(complete_graph(3), budget=budget)


@pytest.mark.parametrize("name", ["budget", "restarts"],
                         ids=["coloring-budget", "coloring-restarts"])
@pytest.mark.parametrize("value", [0, -1])
def test_solvers_reject_counts_below_one(name, value):
    # A usage error, not InfeasibleError, and never a silent single restart.
    with pytest.raises(ValueError, match=name):
        solve_vector_coloring(complete_graph(3), 3.0, **{name: value})


# ---------------------------------------------------------------------------
# Independence-number program
# ---------------------------------------------------------------------------

def test_indset_sdp_edgeless():
    sol = solve_indset_sdp(Graph(5), seed=0)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.upper_bound == 5.0
    assert sol.iterations == 0


def test_indset_sdp_single_edge():
    # Optimum of the one-edge program is 1 (v1 = v0, v2 = -v0). A restart
    # stops only at an outer step with residual within EPS/2.
    sol = solve_indset_sdp(Graph(2, [(0, 1)]), seed=0)
    assert sol.max_constraint_residual <= 0.5 * EPS
    assert sol.objective == pytest.approx(1.0, abs=5e-3)


def test_indset_sdp_c5_matches_theta():
    # The program value for C5 is sqrt(5) ~ 2.2360; brute force independence
    # number is 2, and the relaxation must land between them.
    sol = solve_indset_sdp(cycle_graph(5), seed=0)
    assert sol.max_constraint_residual <= 0.5 * EPS
    assert 2.0 <= sol.objective <= 2.2361


_THETA = [(cycle_graph(5), math.sqrt(5.0)), (petersen_graph(), 4.0),
          (complete_graph(4), 1.0)]


def _exact_bound(bounds, kept):
    """The oracle: a kept step's bound base + (n+1) max(0, -lambda_min(M))
    by ``eigvalsh``, M = diag(gamma) - K."""
    m = -bounds._k(kept.lam)
    m.flat[::m.shape[0] + 1] = kept.gamma
    return kept.base + m.shape[0] * max(0.0, -np.linalg.eigvalsh(m)[0])


@pytest.fixture
def exact_bounds(monkeypatch):
    """The oracle's bound of every step the independence solver keeps."""
    out = []
    real = dual.DualBounds.add

    def add(self, rows, lam):
        real(self, rows, lam)
        out.append(_exact_bound(self, self.kept[-1]))

    monkeypatch.setattr(dual.DualBounds, "add", add)
    return out


@pytest.mark.parametrize("g, theta", _THETA, ids=["C5", "petersen", "K4"])
def test_indset_upper_bound_brackets_theta(g, theta, exact_bounds):
    sol = solve_indset_sdp(g, seed=0)
    assert theta <= min(exact_bounds) <= theta + 1e-3
    # A certified bar is at least the oracle's bound, and at most the
    # loosest bar the solver asks about.
    assert min(exact_bounds) <= sol.upper_bound
    assert sol.upper_bound <= sol.objective + 0.5 * EPS * g.n


def _random_dual_cases():
    # (graph, theta or None, trial): random rows and multipliers on the
    # three theta graphs, then on a 120-vertex graph (rows of width 32).
    for trial in range(50):
        yield (*_THETA[trial % 3], trial)
    g = planted_k_colorable(120, 3, 0.3, seed=7).graph
    for trial in range(50, 60):
        yield g, None, trial


def test_dual_bound_holds_for_any_rows_and_multipliers():
    # Weak duality: no rows and no multipliers give a bound below theta.
    # The Cholesky test never certifies a bar below the oracle's bound, and
    # it certifies one 1e-6 above it.
    for g, theta, trial in _random_dual_cases():
        rng = stream(trial, "dual-bound")
        rows = rng.standard_normal((g.n + 1, 4 if theta else 32))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        lam = rng.uniform(0.0, 4.0) * rng.standard_normal(g.m)
        eu, ev = g.edge_arrays()
        bounds = dual.DualBounds(eu, ev, g.n)
        bounds.add(rows, lam)
        exact = _exact_bound(bounds, bounds.kept[0])
        below = [exact - 1.0, exact - 1e-3, exact - 1e-6]
        if theta is not None:
            assert exact >= theta - 1e-9
            below.insert(0, theta - 1e-6)
        for bar in sorted(below):
            assert not bounds.certifies(bar), (trial, exact - bar)
        assert bounds.certifies(exact + 1e-6), trial
        assert bounds.upper == exact + 1e-6


def test_indset_upper_bound_covers_planted_class(exact_bounds):
    inst = planted_k_colorable(150, 3, 0.3, seed=2)
    sol = solve_indset_sdp(inst.graph, seed=2)
    largest = max(np.bincount(inst.class_of()))
    assert largest <= min(exact_bounds) <= sol.upper_bound < math.inf


@pytest.fixture
def indsdp_draws(monkeypatch):
    """The restart streams the independence solver draws."""
    draws = []
    real = vecsdp.stream

    def counted(seed, *key):
        if key[0] == "indsdp":
            draws.append(key[1])
        return real(seed, *key)

    monkeypatch.setattr(vecsdp, "stream", counted)
    return draws


def test_indset_certified_restart_skips_the_rest(indsdp_draws, exact_bounds):
    g = planted_k_colorable(100, 3, 0.3, seed=5).graph
    sol = solve_indset_sdp(g, seed=3)
    assert indsdp_draws == [0]
    assert sol.max_constraint_residual <= EPS
    assert min(exact_bounds) <= sol.upper_bound
    assert sol.upper_bound <= sol.objective + 0.5 * EPS * g.n


def test_indset_uncertified_restart_runs_the_rest(indsdp_draws,
                                                  exact_bounds):
    # 400 iterations leave the residual above eps: nothing to certify. Each
    # restart still keeps the bound of its last step, and no bar is asked.
    g = planted_k_colorable(100, 3, 0.3, seed=5).graph
    sol = solve_indset_sdp(g, budget=400, seed=3)
    assert indsdp_draws == [0, 1]
    assert sol.max_constraint_residual > EPS
    assert len(exact_bounds) == 2 and max(exact_bounds) < math.inf
    assert sol.upper_bound == math.inf
    assert sol.iterations == 2 * 400  # both restarts, each to its budget


def _bench_shaped():
    # The indset-a3 workload's shape: planted n=100, k=3, p=0.3.
    return planted_k_colorable(100, 3, 0.3, seed=960000).graph


def test_indset_step_certificate_is_within_the_stall_tolerance(exact_bounds):
    g = _bench_shaped()
    sol = solve_indset_sdp(g, seed=960000)
    assert sol.max_constraint_residual <= 0.5 * EPS
    assert min(exact_bounds) <= sol.upper_bound
    assert sol.upper_bound == sol.objective + 0.01 * EPS * g.n  # its bar


def test_indset_without_a_bound_runs_more_iterations(monkeypatch,
                                                     indsdp_draws):
    # A test that never certifies is always sound. The bound ends the first
    # restart and skips the second; without it the first restart alone
    # runs more outer steps of 6000 // 30 inner iterations each.
    g = _bench_shaped()
    sol = solve_indset_sdp(g, seed=960000)
    assert indsdp_draws == [0]
    steps = []  # the restart of every outer step
    real = vecsdp._as_float64

    def counted(w):
        steps.append(indsdp_draws[-1])
        return real(w)

    monkeypatch.setattr(vecsdp, "_as_float64", counted)
    monkeypatch.setattr(dual.DualBounds, "certifies", lambda *args: False)
    loose = solve_indset_sdp(g, seed=960000)
    assert loose.upper_bound == math.inf
    assert steps.count(0) * 200 > sol.iterations > 0


def test_indset_sdp_planted_alignment():
    inst = planted_k_colorable(100, 3, 0.4, seed=3)
    sol = solve_indset_sdp(inst.graph, seed=1)
    assert sol.max_constraint_residual <= 1e-3
    align = float((sol.vectors @ sol.v0).sum())
    assert align >= (2.0 / 3.0 - 1.0 - 1.0 / math.log(100)) * 100


def test_indset_sdp_float32_iterations_return_float64_rows():
    g = planted_k_colorable(60, 3, 0.3, seed=5).graph
    assert vecsdp._iteration_dtype(32) is np.float32  # width 32 at n=60
    sol = solve_indset_sdp(g, budget=600, seed=2)
    assert sol.vectors.dtype == sol.v0.dtype == np.float64
    rows = np.vstack([sol.v0, sol.vectors])
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
    assert sol.max_constraint_residual == constraint_residual(sol, g)
    assert sol.objective == float((1.0 + sol.vectors @ sol.v0).sum() / 2.0)


def test_indset_sdp_fields_are_consistent():
    inst = planted_k_colorable(30, 3, 0.5, seed=2)
    sol = solve_indset_sdp(inst.graph, seed=0)
    recomputed = float((1.0 + sol.vectors @ sol.v0).sum() / 2.0)
    assert abs(recomputed - sol.objective) <= inst.graph.n * EPS
    assert constraint_residual(sol, inst.graph) == pytest.approx(
        sol.max_constraint_residual, abs=1e-12)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 3])
def test_indset_alignment_sum(n):
    v0 = np.array([1.0, 0.0])
    vecs = np.tile([0.6, 0.8], (n, 1))
    sol = IndSetSdpSolution(v0, vecs, 0.0, 0.0)
    assert isinstance(alignment_sum(sol), float)
    assert alignment_sum(sol) == pytest.approx(0.6 * n)


def test_project_orthogonal_basics():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(project_orthogonal(e1, e2, 1e-9), e2)
    v = np.array([-0.5, math.sqrt(3) / 2, 0.0])
    assert np.allclose(project_orthogonal(e1, v, 1e-9), e2, atol=1e-12)
    with pytest.raises(DegenerateProjectionError):
        project_orthogonal(e1, -e1, 1e-9)


def test_projection_identity_hand_instance():
    # (v0 + v_i).(v0 + v_j) = 0 with a_i = a_j = -1/2 forces the projected
    # inner product -1/3.
    v0 = np.array([1.0, 0.0, 0.0])
    vi = np.array([-0.5, math.sqrt(3) / 2, 0.0])
    vj = np.array([-0.5, -math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)])
    assert abs((v0 + vi) @ (v0 + vj)) < 1e-15
    pi = project_orthogonal(v0, vi, 1e-9)
    pj = project_orthogonal(v0, vj, 1e-9)
    assert pi @ pj == pytest.approx(-1.0 / 3.0, abs=1e-12)


def _random_constraint_triple(rng):
    # Unit v0, vi, vj with prescribed alignments a_i + a_j <= 0 and
    # (v0+vi).(v0+vj) = 0, embedded in dimension 5 with a random rotation.
    while True:
        ai, aj = rng.uniform(-0.95, 0.95, size=2)
        if ai + aj <= 0.0:
            break
    d = -1.0 - ai - aj
    b = (d - ai * aj) / math.sqrt(1.0 - ai * ai)
    c2 = 1.0 - aj * aj - b * b
    assert c2 >= -1e-12
    basis = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    v0 = basis[0]
    vi = ai * basis[0] + math.sqrt(1 - ai * ai) * basis[1]
    vj = aj * basis[0] + b * basis[1] + math.sqrt(max(c2, 0.0)) * basis[2]
    return v0, vi, vj, ai, aj


def test_projection_identity_random_triples():
    rng = stream(17, "triples")
    for _ in range(300):
        v0, vi, vj, ai, aj = _random_constraint_triple(rng)
        pi = project_orthogonal(v0, vi, 1e-9)
        pj = project_orthogonal(v0, vj, 1e-9)
        expected = -math.sqrt((1 + ai) * (1 + aj) / ((1 - ai) * (1 - aj)))
        assert pi @ pj == pytest.approx(expected, abs=1e-9)


def test_neighborhood_reduce_simplex():
    # K4 with the exact simplex: the projected neighbors of any vertex have
    # pairwise inner products exactly -1/2 (a vector 3-coloring).
    g = complete_graph(4)
    vc = VectorColoring(4.0, simplex_vectors(4), 1e-9)
    red = neighborhood_reduce(vc, g, 0)
    assert red.coloring.alpha == pytest.approx(3.0)
    gram = red.coloring.vectors @ red.coloring.vectors.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-9)
    assert red.graph == complete_graph(3)


def test_neighborhood_reduce_planted_alpha3():
    # alpha = 3 reduction demands near-bipartite neighborhoods: projected
    # edge dots must sit at -1 up to the measured tolerance.
    inst = planted_k_colorable(30, 3, 0.5, seed=7)
    g = inst.graph
    vc = solve_vector_coloring(g, 3.0, seed=1)
    v = max(range(g.n), key=g.degree)
    red = neighborhood_reduce(vc, g, v)
    assert red.coloring.alpha == pytest.approx(2.0)
    if red.graph.m:
        eu, ev = red.graph.edge_arrays()
        dots = (red.coloring.vectors[eu] * red.coloring.vectors[ev]).sum(axis=1)
        assert dots.max() <= -1.0 + red.coloring.eps + 1e-12


@pytest.mark.parametrize("v", [-1, 4, 9])
def test_neighborhood_reduce_refuses_a_vertex_out_of_range(v):
    # -1 used to read vertex 3's degree and an empty slice of neighbours,
    # and returned an empty reduction.
    vc = VectorColoring(4.0, simplex_vectors(4), 1e-9)
    with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
        neighborhood_reduce(vc, complete_graph(4), v)


def test_neighborhood_reduce_degree_one_vacuous():
    g = Graph(2, [(0, 1)])
    vc = VectorColoring(3.0, np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2]]), 1e-9)
    red = neighborhood_reduce(vc, g, 0)
    assert red.graph.n == 1 and red.graph.m == 0
    assert red.coloring.vectors.shape[0] == 1


def test_neighborhood_reduce_validates():
    g = complete_graph(3)
    vc = VectorColoring(2.0, simplex_vectors(3), 1e-9)
    with pytest.raises(ValueError):
        neighborhood_reduce(vc, g, 0)
    g2 = Graph(2)
    vc2 = VectorColoring(3.0, np.eye(2), 1e-9)
    with pytest.raises(ValueError):
        neighborhood_reduce(vc2, g2, 0)


def test_neighborhood_reduce_fills_a_row_the_retry_leaves_on_the_axis():
    # A 2-D star on 0 with v_0 = e_0. Leaf 1 sits at -e_0, so the first
    # projection is degenerate; the perturbed axis is normalize(1, +-10 eps),
    # and leaf 2 or leaf 3 lies on its antipode whichever sign the noise
    # draws. That row becomes e_0; the others project to unit rows.
    eps = 1e-3
    leaves = np.array([[-1.0, 0.0], [-1.0, 10 * eps], [-1.0, -10 * eps]])
    rows = np.vstack([[1.0, 0.0],
                      leaves / np.linalg.norm(leaves, axis=1)[:, None]])
    red = neighborhood_reduce(VectorColoring(3.0, rows, eps), star_graph(3), 0)
    assert isinstance(red, vecsdp.ReducedColoring)
    assert red.vertices.tolist() == [1, 2, 3] and red.graph.m == 0
    out = red.coloring.vectors
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    filled = [i for i, row in enumerate(out) if row.tolist() == [1.0, 0.0]]
    assert filled in ([1], [2])


# ---------------------------------------------------------------------------
# Aligned-subset extraction
# ---------------------------------------------------------------------------

def test_well_aligned_edgeless_takes_everything():
    g = Graph(8)
    sol = solve_indset_sdp(g, seed=0)
    res = well_aligned_subset(sol, g, 2.0)
    assert res.vertices.tolist() == list(range(8))


def test_well_aligned_planted():
    inst = planted_k_colorable(100, 3, 0.4, seed=3)
    g = inst.graph
    sol = solve_indset_sdp(g, seed=1)
    res = well_aligned_subset(sol, g, 3.0, seed=0)
    assert len(res.vertices) >= 100 / math.log(100)
    sub = res.graph
    vc = res.coloring
    beta = 2.0 / 3.0 - 1.0 - 3.0 / math.log(100)
    assert vc.alpha == pytest.approx(1.0 + (1.0 - beta) / (1.0 + beta))
    assert vc.norm_residual() <= 1e-9
    if sub.m:
        assert vc.edge_residual(sub) <= vc.eps
    # The extracted set must be usable as an independent-set seed: the
    # planted class structure should dominate it.
    classes = inst.class_of()
    counts = {}
    for v in res.vertices:
        counts[classes[v]] = counts.get(classes[v], 0) + 1
    assert max(counts.values()) >= 0.8 * len(res.vertices)


def test_well_aligned_retries_on_a_perturbed_axis(monkeypatch):
    # A bench-shaped instance whose aligned rows include some within EPS of
    # v0: the first projection is degenerate, and the one retry on an axis
    # perturbed from the seed's stream gives unit rows, the same each time.
    g = planted_k_colorable(100, 3, 0.3, seed=960000).graph
    sol = solve_indset_sdp(g, seed=960000)
    v0 = sol.v0 / np.linalg.norm(sol.v0)
    perturbed = []
    real = vecsdp._perturb_axis

    def logged(*args):
        perturbed.append(args[1])
        return real(*args)

    monkeypatch.setattr(vecsdp, "_perturb_axis", logged)
    res = well_aligned_subset(sol, g, 3.0, seed=960000)
    rows = sol.vectors[res.vertices]
    off_axis = np.linalg.norm(rows - np.outer(rows @ v0, v0), axis=1)
    assert (off_axis <= EPS).any()
    assert perturbed == [10 * EPS]
    vectors = res.coloring.vectors
    assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)
    again = well_aligned_subset(sol, g, 3.0, seed=960000)
    assert np.array_equal(again.coloring.vectors, vectors)
    assert np.array_equal(again.vertices, res.vertices)


def test_well_aligned_refuses_broken_promise():
    # K6 has independence number 1, so its program tops out at alignment
    # 2 - 6 = -4, below the alpha = 2 promise of -6/ln 6 ~ -3.35.
    g = complete_graph(6)
    sol = solve_indset_sdp(g, seed=0)
    with pytest.raises(PromiseNotMetError):
        well_aligned_subset(sol, g, 2.0)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_well_aligned_rejects_nonfinite_alpha(alpha):
    g = planted_k_colorable(30, 3, 0.3, seed=0).graph
    sol = solve_indset_sdp(g, budget=200, seed=0)
    with pytest.raises(ValueError, match="alpha must be finite"):
        well_aligned_subset(sol, g, alpha)


def test_claim_c1_style_counting():
    # Averaging bound: with sum x = gamma n and x <= 1, at least eps*n entries
    # exceed (gamma - eps)/(1 - eps).
    x = [1.0, 1.0, 0.0, 0.0]
    gamma, eps = 0.5, 0.25
    threshold = (gamma - eps) / (1 - eps)
    assert sum(1 for xi in x if xi > threshold) >= eps * len(x)
    assert sum(1 for xi in x if xi > threshold) == 2
