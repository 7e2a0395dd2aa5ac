"""The workspace descents against the out-of-place loops they replaced.

``_ref_coloring_descent`` and its helpers below are the allocating loop as it
stood before the per-call workspace, kept as the reference with two changes.
``_ref_scatter_rows`` returns its float64 bincount sums in the rows' dtype,
as the descent keeps every gradient of a phase in that phase's dtype. And
the sphere step is no longer the old one verbatim: it moved in step with the
descent's lean form, still written out of place. ``_RefAdam`` keeps unscaled
moments M = 0.9 M + g, V = 0.999 V + g g and steps by M / (sqrt(V) c2 /
(lr c1) + 1e-12 / (lr c1)), the textbook update to rounding (pinned in
``tests/test_vecsdp.py``), and the tangent projection and
``_ref_row_normalize`` take their row dots by ``np.einsum("ij,ij->i")``.
The reference has no stall stop, and ``cut_at`` ends it where a stall stop
would. Each case runs both from the same start on a pinned planted instance
and records the kernels the descent's ``_EdgeSums`` workspace ran in every
iteration (``kernels``): its dots, "gram" or "gather", and its sums, "gemm"
or a scatter. The reference takes the gemm or the scatter wherever the
workspace does (it asks the workspace's ``gemm_from``). Where the dots are
gathered the case asserts identical vectors and iteration counts, and a
failure names the kernels that drifted. Where they are read from a gemm
Gram matrix they round differently from the reference's row products, so
the case asserts equal iteration counts and vectors within 1e-5 in float32
and 1e-12 in float64. The descent takes its neighbour sums from one
``_EdgeSums`` workspace; the reference keeps its ``both_idx`` argument,
which ``_both`` passes to it alone. Both take ``target`` as a scalar or as
one aim per edge, the form a refinement pass passes; the reference's ``dots
- target`` broadcasts either. The refinement case records every pass of two
solves, checks each pass's aim against the multiplier step shift = max(0,
shift + d - t), and runs the reference toward that aim from the pass's
starting rows.

``_ref_polyak_polish`` is the Polyak polish as a plain out-of-place loop
on the same neighbour sums (``_RefGradient``, which the reference descent
uses too): it must match ``_polyak_polish`` bit for bit, iterations and
exit included, where the dots are gathered, and within rounding on the
Gram dots.

``_ref_solve_indset_sdp`` is the independence solver as it stood before its
workspace, with the same helpers, brought to what the solver now does. It
keeps its tolerance ``eps`` and its number of ``restarts`` as parameters,
which the solver fixes at EPS and 2. It iterates in float32 when eps >=
1e-4 and the width exceeds 8 (float64 otherwise), rounds the multipliers to that dtype for each outer step,
measures every outer step on the rows taken to float64 (renormalized after
float32 iterations), takes its Gram matrix as ``p @ p.T.copy()`` (gemm, not
syrk) and forms the gradient of v0 from the column sums of the neighbour
sums and of the rows, each a gemv against a ones vector (the lean step's
form; the verbatim loop reduced along axis 0). Up to n = 2048 it also
keeps the weak-duality bound, by ``eigvalsh`` on a dense K of its own
(``_ref_dual_bound``), of every outer step whose residual is within eps/2
and of the end of a restart whose last step was not, and asks the
solver's question of them: is the smallest bound so far at most a bar?
At a step within eps/2 it asks first whether the objective stalled, from
the fourth step on, then for the bar objective + max(1e-7, 0.01 eps n),
and ends the restart on either. After each restart but the last it stops
restarting once its best restart meets eps and the bar objective + eps/2
per vertex is answered yes. Its ``upper_bound`` is the smallest bar
answered yes. It counts its inner iterations over the restarts run. Its
two-restart solves at eps = 1e-3 must match the solver's bit for bit,
iteration counts included, on all three branches: gathered dots, Gram dots (in float32, and in float64 on 6
vertices), and the scatter above n = 2048; in one solve where the restart
skip leaves restart 1 out; and in one solve where the per-step bound ends
restart 0 before the stall rule would, which a single-restart reference
run without the bound measures. The certified bars are equal, so the
solver's Cholesky certificates answer as the eigenvalues do. Three
solves are also pinned by digest: two float32 ones and one float64 one. Its
Gram dots and its gemm or scatter sums follow the workspace's choice too.
"""

import hashlib
import math

import numpy as np
import pytest

import sdpcolor.vecsdp as vecsdp
from sdpcolor._rng import stream
from sdpcolor.testkit import is_feasible_for, planted_k_colorable, simplex_vectors
from sdpcolor.vecsdp import (
    _STALL_RTOL,
    IndSetSdpSolution,
    _coloring_descent,
    _rank_reduce,
    _row_sums,
    _solver_dim,
    solve_indset_sdp,
)


# ---------------------------------------------------------------------------
# Reference: the out-of-place loop, verbatim
# ---------------------------------------------------------------------------

def _ref_row_normalize(v: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    norms[norms == 0.0] = 1.0
    v /= norms
    return v


def _ref_scatter_rows(idx: np.ndarray, weights: np.ndarray, rows: np.ndarray,
                      n: int) -> np.ndarray:
    """out[idx[t]] += weights[t] * rows[t], accumulated over t."""
    out = np.empty((n, rows.shape[1]), rows.dtype)
    for col in range(rows.shape[1]):
        out[:, col] = np.bincount(idx, weights=weights * rows[:, col], minlength=n)
    return out


class _RefAdam:
    def __init__(self, like, lr):
        self.lr = lr
        self.m = np.zeros_like(like)
        self.v = np.zeros_like(like)
        self.t = 0

    def step(self, params, grad):
        self.t += 1
        lr_c1 = self.lr * (0.1 / (1.0 - 0.9 ** self.t))
        c2 = math.sqrt(0.001 / (1.0 - 0.999 ** self.t))
        self.m = 0.9 * self.m + grad
        self.v = 0.999 * self.v + grad * grad
        params -= self.m / (np.sqrt(self.v) * (c2 / lr_c1) + 1e-12 / lr_c1)


class _RefGradient:
    """The hinge gradient sum_{ij in E} 2 viol_ij v_j of every row, by the
    gemm from the workspace's ``gemm_from`` violated edges on, else by the
    scatter of the violated edges."""

    def __init__(self, v, eu, ev, both_idx):
        n, d = v.shape
        self.eu, self.ev, self.both_idx = eu, ev, both_idx
        self.other = np.concatenate([ev, eu])
        self.dense_w = np.zeros((n, n), dtype=v.dtype) if n <= 2048 else None
        self.gemm_from = vecsdp._EdgeSums(eu, ev, (n, d), v.dtype).gemm_from

    def __call__(self, v, viol):
        eu, ev, n, m = self.eu, self.ev, v.shape[0], len(self.eu)
        hinge_w = 2.0 * viol
        active = np.nonzero(viol)[0]
        if 0 < active.size >= self.gemm_from:
            self.dense_w.fill(0.0)
            ea, va, wa = eu[active], ev[active], hinge_w[active]
            self.dense_w[ea, va] = wa
            self.dense_w[va, ea] = wa
            return self.dense_w @ v
        if active.size:
            act2 = np.concatenate([active, active + m])
            wa = hinge_w[active]
            return _ref_scatter_rows(self.both_idx[act2], np.concatenate([wa, wa]),
                                     v[self.other[act2]], n)
        return np.zeros_like(v)


def _ref_coloring_descent(v, eu, ev, both_idx, target, iters, lr,
                          stop_at=None, cut_at=None):
    stage = max(1, iters // 6)
    opt = _RefAdam(v, lr)
    used = 0
    gradient = _RefGradient(v, eu, ev, both_idx)
    for it in range(iters):
        used += 1
        if it % stage == 0 and it > 0:
            opt.lr *= 0.5
        dots = (v[eu] * v[ev]).sum(axis=1)
        viol = np.maximum(dots - target, 0.0)
        if it % 10 == 0 and stop_at is not None and dots.max() <= stop_at:
            break
        if used == cut_at:
            break
        grad = gradient(v, viol)
        grad -= np.einsum("ij,ij->i", grad, v)[:, None] * v
        opt.step(v, grad)
        _ref_row_normalize(v)
    return used


def _ref_polyak_polish(v, eu, ev, both_idx, target, stop_at):
    """Polyak steps v <- normalize(v - (f / ||g||^2) g) on the tangent hinge
    gradient g; at most 100 iterations."""
    gradient = _RefGradient(v, eu, ev, both_idx)
    for it in range(100):
        dots = (v[eu] * v[ev]).sum(axis=1)
        if dots.max() <= stop_at:
            return it + 1, True
        viol = np.maximum(dots - target, 0.0)
        f = float((viol ** 2).sum())
        grad = gradient(v, viol)
        grad -= np.einsum("ij,ij->i", grad, v)[:, None] * v
        gg = float(np.vdot(grad, grad))
        if gg == 0.0:
            break
        v -= (f / gg) * grad
        _ref_row_normalize(v)
    return it + 1, False


def _ref_dual_bound(g, w64, lam):
    """The weak-duality bound from a dense K accumulated with ``np.add.at``:
    n/2 - sum(lam)/2 + sum(gamma) + (n+1) max(0, -lambda_min(diag(gamma) -
    K)), with gamma_a = w_a . (K w)_a."""
    n = g.n
    eu, ev = g.edge_arrays()
    k = np.zeros((n + 1, n + 1))
    k[0, 1:] = k[1:, 0] = 0.25
    for a, b in ((eu, ev), (ev, eu)):
        np.add.at(k, (0, a + 1), -0.25 * lam)
        np.add.at(k, (a + 1, 0), -0.25 * lam)
        np.add.at(k, (a + 1, b + 1), -0.25 * lam)
    gamma = np.einsum("ad,ad->a", w64, k @ w64)
    lmin = np.linalg.eigvalsh(np.diag(gamma) - k).min()
    return n / 2 - lam.sum() / 2 + gamma.sum() + (n + 1) * max(0.0, -lmin)


def _ref_solve_indset_sdp(g, eps=1e-3, budget=6000, seed=0, restarts=2):
    """The allocating solver, iterating in the solver's dtype."""
    n = g.n
    d = max(3, min(n + 1, 32))
    dt = np.float32 if (eps >= 1e-4 and d > 8) else np.float64
    eu, ev = g.edge_arrays()
    dense = n <= 2048
    workspace = vecsdp._EdgeSums(eu, ev, (n, d), dt)
    by_gram, by_gemm = workspace.by_gram, g.m >= workspace.gemm_from
    ones = np.ones(n, dt)
    if by_gemm:
        s_buf = np.zeros((n, n), dt)
    else:
        both_idx = np.concatenate([eu, ev])
        other_idx = np.concatenate([ev, eu])

    best = None
    bounds = []  # the exact bound of every bounded step
    certified = math.inf

    def certify(bar):
        # The solver's test, decided by eigenvalues: some bound <= bar.
        nonlocal certified
        if min(bounds, default=math.inf) <= bar:
            certified = min(certified, bar)
            return True
        return False

    iterations = 0
    for attempt in range(restarts):
        rng = stream(seed, "indsdp", attempt)
        w = np.zeros((n + 1, d))
        w[0] = _ref_row_normalize(rng.standard_normal((1, d)))[0]
        w[1:] = _ref_row_normalize(0.3 * rng.standard_normal((n, d)) - w[0])
        w = w.astype(dt)
        lam = np.zeros(g.m)
        mu = 4.0
        inner = max(40, budget // 30)
        used = 0
        prev_obj = None
        stall = 0.0
        outer = 0
        while used < budget:
            outer += 1
            lr = 0.03 * 0.85 ** min(outer, 30)
            opt = _RefAdam(w, lr)
            lam_dt = lam.astype(dt)
            for _ in range(inner):
                used += 1
                v0 = w[0]
                p = w[1:] + v0
                h = (p @ p.T.copy())[eu, ev] if by_gram \
                    else (p[eu] * p[ev]).sum(axis=1)
                s = lam_dt + mu * h
                if by_gemm:
                    s_buf[eu, ev] = s
                    s_buf[ev, eu] = s
                    c = s_buf @ p
                else:
                    c = _ref_scatter_rows(both_idx, np.concatenate([s, s]),
                                          p[other_idx], n)
                grad = np.empty_like(w)
                grad[1:] = c - v0
                grad[0] = ones @ c - ones @ w[1:]
                grad -= np.einsum("ij,ij->i", grad, w)[:, None] * w
                opt.step(w, grad)
                _ref_row_normalize(w)
            w64 = w if dt is np.float64 else _ref_row_normalize(w.astype(np.float64))
            v0 = w64[0]
            p = w64[1:] + v0
            h = (p[eu] * p[ev]).sum(axis=1)
            res = float(np.abs(h).max())
            obj = float((1.0 + w64[1:] @ v0).sum() / 2.0)
            if prev_obj is not None:
                stall = abs(obj - prev_obj)
            prev_obj = obj
            tol = max(1e-7, 0.01 * eps * n)
            met = res <= 0.5 * eps
            if met and dense:
                bounds.append(_ref_dual_bound(g, w64, lam))
            if met and ((outer >= 4 and stall <= tol) or certify(obj + tol)):
                break
            lam = lam + mu * h
            if res > 0.25 * eps:
                mu = min(mu * 1.6, 1e8)
        iterations += used
        v0 = w64[0].copy()
        vecs = w64[1:].copy()
        p = vecs + v0
        res = float(np.abs((p[eu] * p[ev]).sum(axis=1)).max())
        obj = float((1.0 + vecs @ v0).sum() / 2.0)
        if dense and not met:
            bounds.append(_ref_dual_bound(g, w64, lam))
        cand = IndSetSdpSolution(v0, vecs, obj, res)
        if best is None:
            best = cand
        else:
            cand_ok = cand.max_constraint_residual <= eps
            best_ok = best.max_constraint_residual <= eps
            if (cand_ok, cand.objective) > (best_ok, best.objective):
                best = cand
        if attempt + 1 < restarts and best.max_constraint_residual <= eps \
                and certify(best.objective + 0.5 * eps * n):
            break
    return IndSetSdpSolution(best.v0, best.vectors, best.objective,
                             best.max_constraint_residual, certified, iterations)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def _instance(n, k, p, seed):
    g = planted_k_colorable(n, k, p, seed=seed).graph
    eu, ev = g.edge_arrays()
    return g, eu, ev, np.concatenate([eu, ev])


def _random_start(n, d, seed, dtype=np.float64):
    rng = stream(seed, "descent-reference")
    return _ref_row_normalize(rng.standard_normal((n, d))).astype(dtype)


def _planted_start(inst_seed, n, k, p, noise):
    """Rows at the planted class's simplex vertex plus noise: near-feasible."""
    inst = planted_k_colorable(n, k, p, seed=inst_seed)
    rng = stream(inst_seed, "descent-reference-planted")
    corners = simplex_vectors(k)
    v = corners[inst.class_of()] + noise * rng.standard_normal((n, k - 1))
    return _ref_row_normalize(v)


class _Kernels(list):
    """(dots kernel, sums kernel) per iteration, the dtypes of the sums'
    outputs in ``dtypes``, and in ``dotted`` the workspace whose dots the
    last entry holds until its sums fill it."""

    def __init__(self):
        super().__init__()
        self.dtypes = set()
        self.dotted = None


@pytest.fixture
def kernels(monkeypatch):
    """Records the kernels of every iteration on an ``_EdgeSums``
    workspace: its dots, "gram" or "gather", then its sums, "gemm",
    "scatter" (over the ``active`` edges), "scatter-all" (over every edge)
    or None (the iteration exited before its sums, or no edge carried
    weight). Sums on a workspace that took no dots before them, as in the
    coloring solver's start filter, are recorded as (None, sums)."""
    record = _Kernels()
    real = vecsdp._EdgeSums

    def dots(self, x, out):
        record.append(("gram" if self.by_gram else "gather", None))
        record.dotted = self
        return real_dots(self, x, out)

    def summed(self, kind, out):
        if record.dotted is self:
            record[-1] = (record[-1][0], kind)
            record.dotted = None
        else:
            record.append((None, kind))
        record.dtypes.add(out.dtype)

    def gemm(self, weights, x, out):
        summed(self, "gemm", out)
        return real_gemm(self, weights, x, out)

    def scatter(self, weights, x, out, active=None):
        summed(self, "scatter-all" if active is None else "scatter", out)
        return real_scatter(self, weights, x, out, active)

    real_dots, real_gemm, real_scatter = real.dots, real.gemm, real.scatter
    for name, fn in (("dots", dots), ("gemm", gemm), ("scatter", scatter)):
        monkeypatch.setattr(real, name, fn)
    return record


def _both(v0, eu, ev, both, *args, **kwargs):
    """Runs the reference (with ``both``) and the descent, which does not
    take it, from copies of v0."""
    ref, new = v0.copy(), v0.copy()
    used_ref = _ref_coloring_descent(ref, eu, ev, both, *args, **kwargs)
    used_new = _coloring_descent(new, eu, ev, *args, **kwargs)
    return ref, new, used_ref, used_new


def _assert_same(ref, new, used_ref, used_new):
    assert used_new == used_ref
    assert new.dtype == ref.dtype
    assert np.array_equal(new, ref)


_ROUNDING = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


def _assert_within_rounding(ref, new, used_ref, used_new):
    assert used_new == used_ref
    assert new.dtype == ref.dtype
    assert np.abs(new - ref).max() <= _ROUNDING[new.dtype]


def _steps(dots, sums, used, stopped=False):
    """The kernel record of ``used`` iterations that all ran ``dots`` and
    ``sums``, the last one exiting before its sums when ``stopped``."""
    return [(dots, sums)] * (used - stopped) + [(dots, None)] * stopped


def test_wide_float32_feasible_matches_within_rounding(kernels):
    g, eu, ev, both = _instance(120, 4, 0.3, seed=11)
    d = _solver_dim(g.n, g.m)
    assert d == 24
    target = -1.0 / 3.0
    v0 = _random_start(g.n, d, 1, np.float32)
    ref, new, ur, un = _both(v0, eu, ev, both, target - 5e-4,
                             100, lr=0.05, stop_at=target + 5e-4)
    _assert_within_rounding(ref, new, ur, un)
    assert kernels == _steps("gram", "gemm", un)


def test_lowrank_float64_feasible_stops_early_within_rounding(kernels):
    g, eu, ev, both = _instance(96, 4, 0.3, seed=12)
    target = -1.0 / 3.0
    v0 = _planted_start(12, 96, 4, 0.3, noise=0.05)
    assert v0.shape[1] == 3
    ref, new, ur, un = _both(v0, eu, ev, both, target - 5e-4,
                             100, lr=0.02, stop_at=target + 3e-3)
    assert un < 100  # the stop_at exit fired
    _assert_within_rounding(ref, new, ur, un)
    assert kernels == _steps("gram", "gemm", un, stopped=True)


@pytest.mark.parametrize("dtype, case", [
    (np.float32, (800, 3, 8.0 / 533, 14)),
    (np.float64, (300, 3, 4.0 / 200, 14)),
], ids=["float32", "float64"])
def test_sparse_scatter_branch_is_bitwise(dtype, case, kernels):
    # Average degree 8 at n=800 (float32) and 4 at n=300 (float64): the
    # dots are gathered, and the sums take the gemm while most edges are
    # violated, then scatter the violated edges once few are.
    g, eu, ev, both = _instance(*case)
    d = _solver_dim(g.n, g.m)
    v0 = _random_start(g.n, d, 2, dtype)
    ref, new, ur, un = _both(v0, eu, ev, both, -0.5 - 5e-4, 100, lr=0.05)
    _assert_same(ref, new, ur, un)
    gemms = kernels.count(("gather", "gemm"))
    assert 0 < gemms < un
    assert kernels == (_steps("gather", "gemm", gemms)
                       + _steps("gather", "scatter", un - gemms))
    # The float64 bincount sums round into a gradient of the phase's dtype.
    assert kernels.dtypes == {np.dtype(dtype)}


def test_scatter_branches_above_2048_vertices(kernels):
    # No dense matrix above n = 2048. The float32 wide phase at alpha 7
    # scatters its violated edges into a float32 gradient and reaches steps
    # with none violated (a zero gradient).
    g, eu, ev, both = _instance(2049, 3, 3.0 / 1366, seed=18)
    target = -1.0 / 6.0 - 5e-4
    v0 = _random_start(g.n, _solver_dim(g.n, g.m), 6, np.float32)
    ref, new, ur, un = _both(v0, eu, ev, both, target, 50, lr=0.05)
    _assert_same(ref, new, ur, un)
    assert {dots for dots, _ in kernels} == {"gather"}
    assert {sums for _, sums in kernels} == {"scatter", None}
    assert kernels.dtypes == {np.dtype(np.float32)}


def _objective(v, eu, ev, target):
    dots = (v[eu] * v[ev]).sum(axis=1)
    return float((np.maximum(dots - target, 0.0) ** 2).sum())


def _stalled(v0, eu, ev, both, target, iters, lr, **kwargs):
    """Runs a descent that must stop on a stall; checks that it is a prefix
    of the reference run, within rounding, and returns (stopped, full-budget
    reference, used).
    """
    new = v0.copy()
    used = _coloring_descent(new, eu, ev, target, iters, lr, **kwargs)
    assert used < iters
    cut, full = v0.copy(), v0.copy()
    used_cut = _ref_coloring_descent(cut, eu, ev, both, target, iters, lr,
                                     cut_at=used, **kwargs)
    _assert_within_rounding(cut, new, used_cut, used)
    assert _ref_coloring_descent(full, eu, ev, both, target, iters, lr,
                                 **kwargs) == iters
    return new, full, used


def test_lowrank_feasible_stops_at_its_fixed_point_within_rounding(
        kernels):
    # The solver's route on a 3-colourable graph of average degree 20: a
    # wide float32 pass, then the rank-2 basis, where the hinge descent
    # parks at a stationary point just above stop_at instead of reaching it.
    g, eu, ev, both = _instance(150, 3, 30.0 / 150, seed=0)
    target = -0.5
    wide = _random_start(g.n, _solver_dim(g.n, g.m), 3, np.float32)
    _coloring_descent(wide, eu, ev, target - 5e-4, 2000, lr=0.05,
                      stop_at=target + 5e-4)
    v0 = _rank_reduce(_ref_row_normalize(wide.astype(np.float64)), 2)
    stop_at = target - 2.5e-4
    kernels.clear()
    new, full, used = _stalled(v0, eu, ev, both, target - 5e-4,
                               2000, lr=0.02, stop_at=stop_at)
    assert [dots for dots, _ in kernels] == ["gram"] * used
    assert kernels[-1] == ("gram", None)
    assert used <= 190  # 171 at the 1e-7 floor; a 1e-9 floor ran 211
    for v in (new, full):
        assert (v[eu] * v[ev]).sum(axis=1).max() > stop_at
    got = _objective(new, eu, ev, target - 5e-4)
    want = _objective(full, eu, ev, target - 5e-4)
    assert 0.0 < want and abs(got - want) <= _STALL_RTOL


def _collapsed(v, rank):
    """Rank-1 rows with every edge dot 1: no low-rank descent can succeed."""
    out = np.zeros((v.shape[0], 1))
    out[:, 0] = 1.0
    return out


@pytest.mark.parametrize("case, collapse, branch, same", [
    ((400, 3, 0.015, 1), False, "gather", _assert_same),
    # float64 at width 6. The Polyak polish now finishes this solve's first
    # re-descent, so the low-rank rows are collapsed to make it refine its
    # wide rows as before. No 5- to 8-vertex planted instance (k 3-6, p
    # 0.4-1, seeds 0-39), cycle or complete graph refines twice in float64
    # at the default budget; at budgets 50-1500 some do, on wide phases cut
    # short, but their passes drift 3e-5 to 3e-4 from the reference.
    ((6, 3, 1.0, 1), True, "gram", _assert_within_rounding),
], ids=["scatter-float32", "gram-float64"])
def test_refinement_passes_match_the_reference(case, collapse, branch, same,
                                               monkeypatch, kernels):
    # Every refinement pass of a solve that needs two or more: its per-edge
    # aim is target - shift after the step shift = max(0, shift + d - t) on
    # the pass's starting rows, and the whole pass matches the reference
    # from the same rows, cut where the pass ended: bit for bit where the
    # dots are gathered, within rounding on the Gram dots, in float64 as the
    # low-rank Gram case above does. An edge whose dot rounds to either side
    # of its aim is active in one run only, and Adam's first steps scale
    # that to a full step: a float32 pass on (40, 4, 0.3, 3) differs by 0.04
    # after one step, with a fixed aim as with shifts, and float64 passes on
    # other instances by up to 1e-11.
    n, k, p, seed = case
    g, eu, ev, both = _instance(n, k, p, seed)
    passes = []
    real = vecsdp._coloring_descent

    def recorded(v, eu_, ev_, target, *args, **kwargs):
        start, first = v.copy(), len(kernels)
        used = real(v, eu_, ev_, target, *args, **kwargs)
        if isinstance(target, np.ndarray):
            passes.append((start, target.copy(), args, kwargs, v.copy(), used,
                           kernels[first:]))
        return used

    monkeypatch.setattr(vecsdp, "_coloring_descent", recorded)
    if collapse:
        monkeypatch.setattr(vecsdp, "_rank_reduce", _collapsed)
    vc = vecsdp.solve_vector_coloring(g, float(k), seed=seed)
    assert is_feasible_for(vc, g)
    assert len(passes) >= 2
    target = -1.0 / (k - 1)
    shift = np.zeros(g.m, passes[0][0].dtype)
    for start, aim, args, kwargs, new, used, ran in passes:
        shift = np.maximum(shift + (start[eu] * start[ev]).sum(axis=1) - target,
                           0.0)
        assert shift.any()
        assert np.array_equal(aim, target - shift)
        assert [dots for dots, _ in ran] == [branch] * used
        ref = start.copy()
        used_ref = _ref_coloring_descent(ref, eu, ev, both, aim, *args,
                                         cut_at=used, **kwargs)
        same(ref, new, used_ref, used)
    if branch == "gather":  # the passes scatter once few edges stay violated
        assert any(("gather", "scatter") in ran for *_, ran in passes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", list(range(1, 33)) + [64, 127, 128, 129, 200])
def test_row_sums_match_numpy_bitwise(d, dtype):
    # The descent's sums replay numpy's row summation order; a numpy that
    # sums rows differently fails here rather than as a golden diff.
    rng = np.random.default_rng(d)
    a = rng.standard_normal((513, d)).astype(dtype)
    a[0] = 0.0
    a[1, 0] = -0.0
    a[2] = -0.0
    want = a.sum(axis=1)
    got = _row_sums(a.copy())
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))



def _indset_pair(g, budget, seed):
    return (_ref_solve_indset_sdp(g, 1e-3, budget, seed, 2),
            solve_indset_sdp(g, budget, seed))


def _assert_indset_same(ref, new):
    assert new.vectors.dtype == new.v0.dtype == np.float64
    assert np.array_equal(new.vectors, ref.vectors)
    assert np.array_equal(new.v0, ref.v0)
    assert new.objective == ref.objective
    assert new.max_constraint_residual == ref.max_constraint_residual
    assert new.iterations == ref.iterations
    assert new.upper_bound == ref.upper_bound  # the same bars certified


def test_indset_edge_dot_path_is_bitwise(kernels):
    # Average degree 20 at n=800: h comes from per-edge dots and the
    # multipliers still go through the dense n x n matrix.
    g = planted_k_colorable(800, 3, 0.0375, seed=16).graph
    ref, new = _indset_pair(g, 120, seed=3)
    _assert_indset_same(ref, new)
    assert set(kernels) == {("gather", "gemm")}


@pytest.mark.parametrize("case, dtype", [((100, 3, 0.3, 17), np.float32),
                                         ((6, 3, 1.0, 1), np.float64)],
                         ids=["float32", "float64"])
def test_indset_gram_path_is_bitwise(case, dtype, kernels):
    # Width min(n + 1, 32): float64 only on 7 vertices or fewer.
    n, k, p, inst_seed = case
    g = planted_k_colorable(n, k, p, seed=inst_seed).graph
    assert vecsdp._iteration_dtype(min(n + 1, 32)) is dtype
    ref, new = _indset_pair(g, 400, seed=4)
    _assert_indset_same(ref, new)
    assert set(kernels) == {("gram", "gemm")}


def test_indset_scatter_branch_above_2048_vertices(kernels):
    # The only branch without the dense n x n matrix: n > 2048.
    g = planted_k_colorable(2049, 3, 3.0 / 1366, seed=18).graph
    ref, new = _indset_pair(g, 80, seed=5)
    _assert_indset_same(ref, new)
    assert set(kernels) == {("gather", "scatter-all")}
    assert new.upper_bound == math.inf  # no bound without the n x n state


def test_indset_certified_restart_skip_is_bitwise(monkeypatch):
    # At the full budget restart 0 meets eps and lies within eps/2 per
    # vertex of its dual bound, so neither solver runs restart 1.
    draws = {"solver": [], "reference": []}

    def counting(who, real):
        def counted(seed, *key):
            draws[who].append(key)
            return real(seed, *key)
        return counted

    monkeypatch.setattr(vecsdp, "stream", counting("solver", vecsdp.stream))
    monkeypatch.setitem(globals(), "stream", counting("reference", stream))
    g = planted_k_colorable(100, 3, 0.3, seed=17).graph
    ref, new = _indset_pair(g, 6000, seed=4)
    _assert_indset_same(ref, new)
    assert draws == {"solver": [("indsdp", 0)], "reference": [("indsdp", 0)]}
    assert new.max_constraint_residual <= 1e-3
    assert new.upper_bound <= new.objective + 0.5 * 1e-3 * g.n


def test_indset_step_certificate_is_bitwise(monkeypatch):
    # The objective is within 0.01 eps n of the bound one outer step before
    # it stalls, which ends restart 0 and skips restart 1. A single-restart
    # reference run without the bound runs restart 0 to the stall rule.
    g = planted_k_colorable(80, 3, 0.3, seed=6).graph
    ref, new = _indset_pair(g, 6000, seed=5)
    _assert_indset_same(ref, new)
    assert new.max_constraint_residual <= 0.5e-3
    assert new.upper_bound == new.objective + 0.01 * 1e-3 * g.n  # its bar
    monkeypatch.setitem(globals(), "_ref_dual_bound", lambda *args: math.inf)
    stalled = _ref_solve_indset_sdp(g, 1e-3, 6000, 5, restarts=1)
    assert stalled.iterations > new.iterations


@pytest.mark.parametrize("case, noise, met, kernel, same", [
    ((300, 3, 4.0 / 200, 14), 0.01, True, ("gather", "gemm"), _assert_same),
    ((300, 3, 4.0 / 200, 14), 0.05, False, ("gather", "gemm"), _assert_same),
    ((800, 3, 8.0 / 533, 14), 0.01, True, ("gather", "scatter"), _assert_same),
    ((96, 4, 0.3, 12), 0.05, True, ("gram", "gemm"), _assert_within_rounding),
], ids=["gather-gemm", "gather-gemm-cap", "gather-scatter", "gram-gemm"])
def test_polyak_polish_matches_the_reference(case, noise, met, kernel, same,
                                              kernels):
    # The polish from rank-(k-1) float64 rows near the planted simplex,
    # against the plain loop: bit for bit on gathered dots, within rounding
    # on the Gram dots; the same iterations and the same exit, at t + eps/2
    # or, from the noisier start, after the 100-iteration cap.
    n, k, p, seed = case
    g, eu, ev, both = _instance(n, k, p, seed)
    target = -1.0 / (k - 1)
    v0 = _planted_start(seed, n, k, p, noise=noise)
    ref, new = v0.copy(), v0.copy()
    used_ref, met_ref = _ref_polyak_polish(ref, eu, ev, both, target,
                                           target + 5e-4)
    assert vecsdp._polyak_polish(new, eu, ev, target, target + 5e-4) == (
        used_ref, met_ref)
    assert met_ref == met and used_ref > 2
    same(ref, new, used_ref, used_ref)
    assert kernels == _steps(*kernel, used_ref, stopped=met)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# (n, k, p, instance seed, budget, solver seed) -> the kernels every
# iteration runs, and digests of the vectors and v0, and the objective and
# residual as float.hex. Each pin holds the bits of its kernels' iterations,
# float32 on the wide rows and float64 on 6 vertices (width 7), from
# restarts that start beside the empty set (rows at normalize(0.3 g - v0))
# and iterations that take the lean sphere step (Adam on unscaled moments,
# einsum row dots, gemv column sums); ``_ref_solve_indset_sdp`` gave the
# same bits when they were captured.
_INDSET_PINS = [
    ((100, 3, 0.3, 17, 400, 4), ("gram", "gemm"),
     ("428709f680b32b98", "bfadede2c9283a69", "0x1.0c3740fc0e68bp+5",
      "0x1.a31529df428f0p-8")),
    ((800, 3, 0.0375, 16, 120, 3), ("gather", "gemm"),
     ("9a13d7894424a437", "c88455e818e09f4d", "0x1.005788d7ce096p+8",
      "0x1.4935e71bae6bcp-5")),
    ((6, 3, 1.0, 1, 400, 4), ("gram", "gemm"),
     ("85ca3d9d45134a26", "9c04381a98b05911", "0x1.ffbf91ee7c7fep+0",
      "0x1.0b3f2b3cb0259p-10")),
]


@pytest.mark.parametrize("case, branch, pin", _INDSET_PINS,
                         ids=["gram", "gather", "gram-float64"])
def test_indset_solution_keeps_its_pinned_bits(case, branch, pin, kernels):
    n, k, p, inst_seed, budget, seed = case
    g = planted_k_colorable(n, k, p, seed=inst_seed).graph
    sol = solve_indset_sdp(g, budget=budget, seed=seed)
    assert set(kernels) == {branch}
    assert (_digest(sol.vectors), _digest(sol.v0), sol.objective.hex(),
            sol.max_constraint_residual.hex()) == pin
