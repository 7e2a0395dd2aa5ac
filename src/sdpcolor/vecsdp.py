"""Semidefinite relaxations via low-rank Gram factorization.

Two programs are solved here over unit vectors, both as augmented
Lagrangians (Burer-Monteiro) by Adam steps with row renormalization on the
product of spheres (no external SDP solver):

* vector alpha-coloring: unit v_1..v_n with v_i . v_j <= -1/(alpha-1) + EPS
  on every edge. Random rows pushed toward the adjacency's most negative
  eigenspace by five power steps on Delta I - A (Delta the maximum degree)
  start a penalty descent on the hinge violations (multipliers at zero),
  refined where it misses by per-edge multipliers, then the same
  feasibility descent again on the rows reduced to rank ceil(alpha) - 1,
  finished by gradient steps of Polyak's length (the objective's optimum,
  0, is known), with Adam from their rows where they stop short.

* the independence-number program: maximize sum (1 + v0 . v_i)/2 subject to
  (v0 + v_i) . (v0 + v_j) = 0 on edges.

Both solve at the one tolerance ``EPS`` and iterate on the edge kernels of
one ``_EdgeSums`` workspace: in float32 where the rows are wider than 8
(``_iteration_dtype``), which covers the coloring solver's wide rows and
every independence iteration on 8 or more vertices, else in float64. What
is accepted or returned is measured in float64 with per-edge products. The
coloring solver's infeasibility reports are evidence only (best residual
reached), not certificates; the independence solver stops on a
weak-duality certificate up to n = 2048 (``solve_indset_sdp``). All
logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._dual import DualBounds
from ._rng import stream
from .graph import Graph, NotKColorableError, induced_subgraph

EPS = 1e-3  # the tolerance of both programs for every library caller

# The coloring solver's phases, whose iterations it tallies: Adam on the
# full-width rows, Adam on the rank-reduced rows, the Polyak polish of those,
# and the refinement passes with per-edge aims (``solve_vector_coloring``).
PHASES = ("wide", "lowrank", "polish", "refine")


class InfeasibleError(NotKColorableError):
    """The coloring solver could not reach the requested tolerance (kind
    "solver").

    Evidence only: carries the best residual achieved, not a certificate
    that no feasible solution exists.
    """

    def __init__(self, alpha: float, best_residual: float, counts: dict):
        iterations = sum(counts[phase] for phase in PHASES)
        super().__init__(
            "solver",
            f"no vector {alpha:g}-coloring found at tolerance {EPS:g} "
            f"(best edge residual {best_residual:.3e} after {iterations} "
            f"iterations; evidence only, not a certificate)")
        self.best_residual = best_residual
        self.counts = counts  # the solve's tally, as ``VectorColoring.counts``
        self.iterations = iterations


class PromiseNotMetError(RuntimeError):
    """The independence-promise precondition failed (solver slack too large
    or the graph lacks the promised independent set)."""


@dataclass(frozen=True)
class VectorColoring:
    """Unit vectors with every edge inner product <= -1/(alpha-1) + eps.

    ``counts`` is the tally of the solve that returned the rows: iterations
    per phase of ``PHASES`` and ``fallbacks``, the Polyak polishes that
    stopped short; None for rows no solve returned."""

    alpha: float
    vectors: np.ndarray  # shape (n, d)
    eps: float
    counts: dict[str, int] | None = None

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def target(self) -> float:
        return -1.0 / (self.alpha - 1.0)

    def edge_residual(self, g: Graph) -> float:
        """max over edges of v_i . v_j + 1/(alpha-1); -inf if no edges."""
        if g.m == 0:
            return float("-inf")
        eu, ev = g.edge_arrays()
        return _residual(self.vectors, eu, ev, self.target)

    def norm_residual(self) -> float:
        """max over vertices of | ||v_i|| - 1 |."""
        if self.n == 0:
            return 0.0
        return float(np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0).max())


@dataclass(frozen=True)
class IndSetSdpSolution:
    """Feasible point of the independence-number relaxation, solved at EPS."""

    v0: np.ndarray
    vectors: np.ndarray  # shape (n, d)
    objective: float     # sum (1 + v0 . v_i) / 2
    max_constraint_residual: float
    # The smallest certified bar, >= the optimum; inf where no bar was
    # certified, and always above n = 2048.
    upper_bound: float = math.inf
    iterations: int = 0  # inner iterations, summed over the restarts run


# ---------------------------------------------------------------------------
# Shared descent machinery
# ---------------------------------------------------------------------------

def _row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit.

    numpy adds a row shorter than 8 entries in order, starting from +0.0
    (which only turns an all -0.0 sum into +0.0), so such rows are summed
    by adding whole columns: that skips numpy's per-row reduction call,
    which costs more than the additions on short rows.
    """
    d = a.shape[1]
    if d >= 8:
        return np.add.reduce(a, axis=1, out=out)
    if out is None:
        out = np.empty(a.shape[0], dtype=a.dtype)
    np.add(a[:, 0], 0.0, out=out)
    for j in range(1, d):
        np.add(out, a[:, j], out=out)
    return out


def _edge_dots(v: np.ndarray, eu: np.ndarray, ev: np.ndarray,
               out: np.ndarray | None = None, rows_u: np.ndarray | None = None,
               rows_v: np.ndarray | None = None) -> np.ndarray:
    """v[eu[t]] . v[ev[t]] for every edge t, bit for bit
    ``(v[eu] * v[ev]).sum(axis=1)``.

    With the (m, d) row buffers given nothing is allocated; the gathers then
    skip the bounds check (numpy buffers a checked gather), so callers
    passing buffers pass in-range endpoints.
    """
    mode = "raise" if rows_u is None else "clip"
    rows_u = v.take(eu, axis=0, out=rows_u, mode=mode)
    rows_v = v.take(ev, axis=0, out=rows_v, mode=mode)
    np.multiply(rows_u, rows_v, out=rows_u)
    return _row_sums(rows_u, out)


def _residual(v, eu, ev, target):
    """max over edges of v_u . v_v - target."""
    return float(_edge_dots(v, eu, ev).max() - target)


# The smallest normal number of each float dtype the solvers use, looked up
# once: ``np.finfo`` costs a call per lookup.
_TINY = {np.dtype(t): np.finfo(t).tiny for t in (np.float32, np.float64)}


def _row_normalize(v: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Divide each row of v by its Euclidean norm, in place; a zero row
    stays zero (its norm is raised to the dtype's tiny). v is float32 or
    float64. The optional (n,) buffer makes it allocation-free."""
    norms = np.einsum("ij,ij->i", v, v, out=norms)
    np.sqrt(norms, out=norms)
    np.maximum(norms, _TINY[v.dtype], out=norms)
    v /= norms[:, None]
    return v


# No n x n state above this many vertices: gather and scatter only.
_DENSE_N = 2048


def _kernel_choice(n, m, d, size):
    """Whether the Gram dots beat the gathered ones, and from how many
    weighted edges on the gemm sums beat the scatter (m + 1: never), for
    (n, d) operands of ``size``-byte floats and m edges. Each kernel's ns
    per call on one BLAS thread is modelled below, fitted to the kernel
    table of BENCH_kernel_model.json: bytes beyond 1.5 MiB of cache cost
    more (``miss``), OpenBLAS packs the n x n matrix for gemm once d > 2,
    and the scatter's rows outgrow the cache from ``knee`` edges on."""
    cache = 1.5 * 2 ** 20

    def miss(nbytes):  # the share of a working set beyond the cache
        return max(0.0, 1.0 - cache / max(nbytes, 1))

    b, rows = n * n * size, m * d * size
    f = miss(b)
    gram = 5190 + b * (0.0372 + 0.144 * f + 0.00583 * d) + m * (1.32 + 3.39 * f)
    gather = (rows * (1.41 / size + 0.153 + 0.342 * miss(2 * rows))
              + (d < 8) * d * (3640 + 0.0632 * rows))
    gemm = 3470 + m * (6.24 + 14.3 * f) + b * (0.00655 + 0.113 * f + 0.00577 * d
                                               + (d > 2) * (0.0201 + 0.12 * f))
    # the scatter over a edges: base + a (slope + spill miss(a (48 + 2 d size)))
    base, slope, spill = 8570 + 2570 * d, 49.6 + 9.25 * d, 15.4 * d
    knee, t = cache / (48 + 2 * d * size), gemm - base
    a = t / slope if t <= slope * knee else (t + spill * knee) / (slope + spill)
    return gram < gather, max(0, min(m + 1, math.floor(a) + 1))


class _EdgeSums:
    """Both solvers' edge kernels on (n, d) operands x, into ``out``: the
    edge dots x_u . x_v and the neighbour sums c_i = sum_{ij in E} w_ij x_j,
    each by the kernel ``_kernel_choice`` models as cheaper for the
    workspace's n, m, d and dtype; above n = ``_DENSE_N`` only gather and
    scatter run.

    ``dots`` reads the edge entries of the gemm Gram matrix x x^T (on a
    transposed copy: gemm, not syrk) or gathers (m, d) rows; the two agree
    to rounding. ``neighbour_sums`` takes one gemm from ``gemm_from``
    weighted edges on (``w`` holds every edge's weight and zeros), else a
    float64 bincount per column over the edges ``nonzero`` marks (None:
    all), rounded into ``out``; with no weighted edge ``out`` is zeroed.
    """

    def __init__(self, eu, ev, shape, dtype):
        n, d = shape
        self.n, self.m, self.eu, self.ev = n, len(eu), eu, ev
        self.idx, self.other = np.concatenate([eu, ev]), np.concatenate([ev, eu])
        self.fwd, self.bwd = eu * n + ev, ev * n + eu
        self.by_gram, self.gemm_from = (
            _kernel_choice(n, self.m, d, np.dtype(dtype).itemsize)
            if n <= _DENSE_N else (False, self.m + 1))
        if self.gemm_from <= self.m:
            self.w = np.zeros((n, n), dtype)
        if self.by_gram:
            self.gram, self.xt = np.empty((n, n), dtype), np.empty((d, n), dtype)
        else:
            self.rows = [np.empty((self.m, d), dtype) for _ in range(2)]

    def dots(self, x, out):
        if not self.by_gram:
            return _edge_dots(x, self.eu, self.ev, out, *self.rows)
        np.copyto(self.xt, x.T)
        np.matmul(x, self.xt, out=self.gram)
        self.gram.reshape(-1).take(self.fwd, out=out, mode="clip")

    def neighbour_sums(self, weights, x, out, nonzero=None):
        weighted = self.m if nonzero is None else np.count_nonzero(nonzero)
        if not weighted:
            out.fill(0.0)
        elif weighted >= self.gemm_from:
            self.gemm(weights, x, out)
        else:
            self.scatter(weights, x, out,
                         None if nonzero is None else nonzero.nonzero()[0])

    def gemm(self, weights, x, out):
        flat = self.w.reshape(-1)
        flat[self.fwd] = flat[self.bwd] = weights
        np.matmul(self.w, x, out=out)

    def scatter(self, weights, x, out, active=None):
        idx, other = self.idx, self.other
        if active is not None:
            both = np.concatenate([active, active + self.m])
            idx, other, weights = idx[both], other[both], weights[active]
        weights = np.concatenate([weights, weights])
        # One column at a time from x^T: strided (2a, d) rows miss the cache.
        for col, xc in enumerate(np.ascontiguousarray(x.T)):
            out[:, col] = np.bincount(idx, weights=weights * xc[other],
                                      minlength=self.n)


class _Adam:
    """Adam steps on unscaled moments, in place.

    M = 0.9 M + g and V = 0.999 V + g g are 10 and 1000 times the textbook
    moments, so both bias corrections and lr fold into two scalars
    (Kingma-Ba, section 2): params -= M / (sqrt(V) c2 / (lr c1) + 1e-12 /
    (lr c1)) with c1 = 0.1 / (1 - 0.9^t) and c2 = sqrt(0.001 / (1 -
    0.999^t)). That is the textbook lr mhat / (sqrt(vhat) + 1e-12) to
    rounding, in ten array passes. The gradient has the parameters' dtype.
    """

    def __init__(self, like, lr):
        self.lr = lr
        self.m = np.zeros_like(like)
        self.v = np.zeros_like(like)
        self.t = 0
        self._buf = np.empty_like(self.m)

    def step(self, params, grad):
        self.t += 1
        lr_c1 = self.lr * (0.1 / (1.0 - 0.9 ** self.t))
        c2 = math.sqrt(0.001 / (1.0 - 0.999 ** self.t))
        buf = self._buf
        np.multiply(0.9, self.m, out=self.m)
        np.add(self.m, grad, out=self.m)
        np.multiply(0.999, self.v, out=self.v)
        np.multiply(grad, grad, out=buf)
        np.add(self.v, buf, out=self.v)
        np.sqrt(self.v, out=buf)
        np.multiply(buf, c2 / lr_c1, out=buf)
        np.add(buf, 1e-12 / lr_c1, out=buf)
        np.divide(self.m, buf, out=buf)
        np.subtract(params, buf, out=params)


def _project_tangent(v, grad, tmp, rowdots):
    """grad -= einsum("ij,ij->i", grad, v)[:, None] * v: each row of grad
    onto its row of v's tangent space, in place, in the buffers tmp (shaped
    like grad) and rowdots (n,)."""
    np.einsum("ij,ij->i", grad, v, out=rowdots)
    np.multiply(rowdots[:, None], v, out=tmp)
    np.subtract(grad, tmp, out=grad)


def _sphere_step(v, grad, opt, tmp, rowdots):
    """Project grad onto each row's tangent space, step, renormalize rows.
    Allocation-free: tmp is shaped like grad, rowdots (n,) serves both
    row-dot passes."""
    _project_tangent(v, grad, tmp, rowdots)
    opt.step(v, grad)
    _row_normalize(v, rowdots)


def _iteration_dtype(d: int):
    """The dtype a solver iterates in at width d: float32 for rows wider
    than 8, where the iterations only have to land near a target that
    float64 measurements accept or refuse at EPS, far above float32
    resolution; float64 otherwise."""
    return np.float32 if d > 8 else np.float64


def _as_float64(v: np.ndarray) -> np.ndarray:
    """v itself when it is float64, else its rows in float64, renormalized."""
    return v if v.dtype == np.float64 else _row_normalize(v.astype(np.float64))


def _check_alpha(alpha: float) -> None:
    """alpha is a finite number of at least 2 (NaN and infinity refused)."""
    if not 2.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and at least 2, got {alpha}")


def _check_counts(**counts: int) -> None:
    """Each count is at least 1: both solvers run at least one iteration
    per restart, and the coloring solver at least one restart."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


# Cap on the solver width: every iteration scales with the width and
# desk-scale instances gain nothing past the cap.
_SOLVER_DIM_CAP = 24


def _solver_dim(n: int, m: int) -> int:
    # Low-rank factorization dimension ceil(sqrt(2m)) + 4, generous enough
    # that the factorized landscape is benign, capped at _SOLVER_DIM_CAP.
    return max(1, min(n, int(math.ceil(math.sqrt(2.0 * max(m, 1)))) + 4,
                      _SOLVER_DIM_CAP))


# ---------------------------------------------------------------------------
# Vector alpha-coloring
# ---------------------------------------------------------------------------

# A descent phase stops once its objective moved by at most this much,
# relative to max(1, |objective|), over the ten iterations between checks:
# a low-rank factorization parks at a stationary point (Burer-Monteiro) and
# the remaining budget would not move it. On a 3-colourable graph of
# average degree 20 the rank-2 phase parks just above its exit this way
# after 171 iterations; a floor of 1e-9 ran it to 211.
_STALL_RTOL = 1e-7


def _coloring_descent(v, eu, ev, target, iters, lr, stop_at=None):
    """One Adam descent phase for the coloring program: minimize sum
    relu(d_e - target_e)^2.

    ``target`` is one aim, or one per edge in v's dtype (refinement). The
    learning rate halves in six stages. Every tenth iteration, before its
    step, the loop exits once the max edge dot drops to ``stop_at``, or
    once the objective (summed in v's dtype) moved by at most
    ``_STALL_RTOL * max(1, |objective|)`` (1e-7) since the previous check.
    The gradient is the ``_EdgeSums`` neighbour sum of the hinge weights
    over the violated edges, by the kernels the workspace picks. Returns
    the iterations used, the exiting one included.

    Every array an iteration writes is allocated once per call, in v's
    dtype. The operation order is part of the output contract: each
    iteration performs the floating-point operations of the out-of-place
    expressions noted beside each step, ``_Adam``'s and ``_sphere_step``'s,
    in their order and dtypes (to rounding where the dots read the Gram
    matrix), so the golden CLI results keep their bits. Reordering a sum or
    fusing a product changes them; so does moving the stall check, which
    only decides where a run ends.
    """
    n, d = v.shape
    stage = max(1, iters // 6)
    opt = _Adam(v, lr)
    used = 0
    prev_obj = math.inf
    sums = _EdgeSums(eu, ev, v.shape, v.dtype)
    dots, viol, hinge = (np.empty(sums.m, v.dtype) for _ in range(3))
    grad, tmp = np.empty((n, d), v.dtype), np.empty((n, d), v.dtype)
    rowdots = np.empty(n, v.dtype)
    for it in range(iters):
        used += 1
        if it % stage == 0 and it > 0:
            opt.lr *= 0.5
        sums.dots(v, dots)                           # (v[eu] * v[ev]).sum(1)
        np.subtract(dots, target, out=viol)
        np.maximum(viol, 0.0, out=viol)              # relu(dots - target)
        if it % 10 == 0:
            if stop_at is not None and dots.max() <= stop_at:
                break
            np.multiply(viol, viol, out=hinge)      # hinge is rewritten below
            obj = float(hinge.sum())
            if abs(obj - prev_obj) <= _STALL_RTOL * max(1.0, abs(obj)):
                break
            prev_obj = obj
        np.multiply(2.0, viol, out=hinge)
        sums.neighbour_sums(hinge, v, grad, viol)
        _sphere_step(v, grad, opt, tmp, rowdots)
    return used


# The Polyak polish's cap: at most this many iterations.
_POLISH_ITERS = 100


def _polyak_polish(v, eu, ev, target, stop_at):
    """Riemannian gradient descent with Polyak's step on the hinge objective
    f = sum relu(d_e - target)^2, whose optimum 0 is known (Polyak,
    *Introduction to Optimization*, 1987, section 5.3): each step is v <-
    normalize(v - (f / ||g||^2) g) with g the gradient projected onto each
    row's tangent space. It works on rows already near a feasible point,
    where Adam's first steps of +-lr per coordinate would raise f before
    lowering it.

    Every iteration exits once the max edge dot is at most ``stop_at``; the
    loop also exits when the tangent gradient is zero, or after
    ``_POLISH_ITERS`` (100). Returns the iterations used, the
    exiting one included, and whether the max edge dot reached ``stop_at``.
    Its kernels are ``_coloring_descent``'s, on one ``_EdgeSums``
    workspace, and each iteration performs the floating-point operations of
    the out-of-place expressions noted beside each step and in
    ``_project_tangent``, in their order and v's dtype (to rounding where
    the dots read the Gram matrix).
    """
    n, d = v.shape
    sums = _EdgeSums(eu, ev, v.shape, v.dtype)
    dots, viol, hinge = (np.empty(sums.m, v.dtype) for _ in range(3))
    grad, tmp = np.empty((n, d), v.dtype), np.empty((n, d), v.dtype)
    rowdots = np.empty(n, v.dtype)
    for it in range(_POLISH_ITERS):
        sums.dots(v, dots)                           # (v[eu] * v[ev]).sum(1)
        if dots.max() <= stop_at:
            return it + 1, True
        np.subtract(dots, target, out=viol)
        np.maximum(viol, 0.0, out=viol)              # relu(dots - target)
        np.multiply(viol, viol, out=hinge)
        f = float(hinge.sum())                       # (viol ** 2).sum()
        np.multiply(2.0, viol, out=hinge)
        sums.neighbour_sums(hinge, v, grad, viol)
        _project_tangent(v, grad, tmp, rowdots)
        gg = float(np.vdot(grad, grad))
        if gg == 0.0:
            break
        np.multiply(f / gg, grad, out=tmp)           # v -= (f / gg) * grad
        np.subtract(v, tmp, out=v)
        _row_normalize(v, rowdots)
    return it + 1, False


# Power steps of the coloring solver's start filter (``_spectral_start``).
_SPECTRAL_STEPS = 5


def _spectral_start(v, eu, ev, top):
    """Push random rows toward the adjacency's most negative eigenspace, in
    place: ``_SPECTRAL_STEPS`` (5) steps v <- top v - A v, each followed by
    dividing every column by its norm (raised to the dtype's tiny), then
    unit rows. With top the maximum degree these are power steps on the
    positive semidefinite top I - A, whose leading eigenvectors are A's most
    negative ones, where a planted coloring shows (Alon-Kahale, SIAM J.
    Comput. 1997); each is also a gradient step of sum_edges v_u . v_v,
    which pushes neighbours apart. A v is the ``_EdgeSums`` neighbour sum
    with unit weights, in v's dtype, by the kernel the workspace picks."""
    sums = _EdgeSums(eu, ev, v.shape, v.dtype)
    ones, av = np.ones(sums.m, v.dtype), np.empty_like(v)
    for _ in range(_SPECTRAL_STEPS):
        sums.neighbour_sums(ones, v, av)
        v *= top
        v -= av                                      # top v - A v
        v /= np.maximum(np.sqrt(np.einsum("ij,ij->j", v, v)), _TINY[v.dtype])
    return _row_normalize(v)


def _rank_reduce(v, rank):
    """Coordinates of the rows in their top-``rank`` right-singular basis,
    renormalized; the returned array has only ``rank`` columns."""
    if rank >= min(v.shape):
        return v.copy()
    _, _, vt = np.linalg.svd(v, full_matrices=False)
    out = v @ vt[:rank].T
    return _row_normalize(out)


def solve_vector_coloring(g: Graph, alpha: float, budget: int = 2000,
                          seed: int = 0, restarts: int = 1) -> VectorColoring:
    """Find a vector alpha-coloring of g at tolerance eps = EPS.

    Each restart starts from Gaussian rows in the wide phase's dtype, put
    through five power steps v <- Delta v - A v on the maximum degree
    Delta (``_spectral_start``), and takes one path:

    1. the wide feasibility phase, at most ``budget`` iterations;
    2. if its residual is within the hand-off bar 10 eps, the
       rank-``ceil(alpha) - 1`` re-descent: a feasibility phase of
       ``budget`` iterations, which must end within the hand-off bar too,
       then the Polyak polish (``_polyak_polish``, at most 100
       iterations) and, only where it ends above t + eps/2, a final
       feasibility phase of ``budget // 2`` from its rows; returned if
       it meets eps;
    3. while the residual exceeds eps, up to four refinement passes of
       ``budget // 2`` on the wide rows, at lr 0.02, 0.008, 0.003, 0.001;
    4. if a refinement pass ran and brought the residual within eps, the
       re-descent once more;
    5. otherwise the wide rows, if they meet eps; else the next restart.

    ``budget`` sets the learning-rate schedule as well as the cap: every
    Adam phase halves its rate each sixth of the iterations it is given
    (``_coloring_descent``), so a solve that ends well inside its budget
    still takes other steps, and returns other rows, under another budget.

    The refinement passes are an augmented Lagrangian on d_e <= t =
    -1/(alpha-1): before each pass every edge's shift becomes max(0, shift
    + d_e - t) and the pass aims its hinge at t - shift (multipliers 2
    shift), so an edge that a K_k holds at t keeps its shift. The other
    phases aim at t, which any K_k forces some edge dot to reach; residuals
    that decide are measured against t. The refinement phases exit at t +
    eps/4: they iterate the wide rows, float32 ones renormalized in float64
    before the eps test. The polish and the final low-rank phase iterate
    float64 rows that are accepted at t + eps, so they exit at t + eps/2,
    which leaves a margin between the Gram dots that test the exit and the
    per-edge products that accept. The wide phase and the first low-rank
    phase exit at the hand-off bar t + 10 eps, and every Adam phase once
    its objective stalls (``_coloring_descent``, relative change 1e-7).
    Library callers keep the one default restart and do not rerun a failed
    solve: ``kms_color`` raises, and ``combined_color`` reports kind
    "solver".
    The solve tallies its iterations per phase of ``PHASES`` over every
    restart, with ``fallbacks`` the Polyak polishes that stopped short: the
    result's ``counts``, all zero for an edgeless graph, or the
    ``InfeasibleError``'s. That error (evidence only) is raised when every
    restart stalls above eps, its iteration count the tally's sum over the
    phases; ValueError when alpha is not finite or below 2, or budget or
    restarts is below 1.
    """
    _check_alpha(alpha)
    _check_counts(budget=budget, restarts=restarts)
    n = g.n
    d = _solver_dim(n, g.m)  # 1 at n = 0: an empty graph gets (0, 1) rows
    counts = dict.fromkeys(PHASES + ("fallbacks",), 0)
    if g.m == 0:
        vecs = np.zeros((n, d))
        vecs[:, 0] = 1.0
        return VectorColoring(alpha, vecs, EPS, counts)

    target = -1.0 / (alpha - 1.0)
    eu, ev = g.edge_arrays()

    best_res = float("inf")
    handoff = 10.0 * EPS  # the wide and first low-rank phases' exit and test
    rank = max(2, int(math.ceil(alpha)) - 1)

    def descend(phase, vecs, iters, lr, aim=target, **kwargs):
        counts[phase] += _coloring_descent(vecs, eu, ev, aim, iters, lr, **kwargs)

    def try_lowrank(full):
        # Re-descend in the top-rank basis to the hand-off bar, then polish
        # to EPS: Polyak steps, and Adam from their rows where they park.
        reduced = _rank_reduce(full, rank)
        descend("lowrank", reduced, budget, lr=0.02, stop_at=target + handoff)
        if _residual(reduced, eu, ev, target) > handoff:
            return None
        polish_bar = target + 0.5 * EPS
        used, met = _polyak_polish(reduced, eu, ev, target, polish_bar)
        counts["polish"] += used
        if not met:
            counts["fallbacks"] += 1
            descend("lowrank", reduced, budget // 2, lr=0.005, stop_at=polish_bar)
        ok = _residual(reduced, eu, ev, target) <= EPS
        return VectorColoring(alpha, reduced, EPS, counts) if ok else None

    for attempt in range(restarts):
        rng = stream(seed, "veccol", attempt)
        work = _spectral_start(rng.standard_normal((n, d)).astype(
            _iteration_dtype(d), copy=False), eu, ev, g.max_degree)
        descend("wide", work, budget, lr=0.05, stop_at=target + handoff)
        res = _residual(work, eu, ev, target)
        if res <= handoff:
            found = try_lowrank(_as_float64(work))
            if found is not None:
                return found
        # Augmented-Lagrangian passes: multiplier step, then the shifted aim.
        refined = res > EPS
        shift = 0.0
        for lr in (0.02, 0.008, 0.003, 0.001):
            dots = _edge_dots(work, eu, ev)
            if dots.max() - target <= EPS:
                break
            shift = np.maximum(shift + dots - target, 0.0)
            descend("refine", work, budget // 2, lr=lr, aim=target - shift,
                    stop_at=target + 0.25 * EPS)
        v = _as_float64(work)
        res = _residual(v, eu, ev, target)
        best_res = min(best_res, res)
        if res > EPS:
            continue
        found = try_lowrank(v) if refined else None
        return found if found is not None else VectorColoring(alpha, v, EPS, counts)
    raise InfeasibleError(alpha, best_res, counts)


# ---------------------------------------------------------------------------
# Independence-number relaxation
# ---------------------------------------------------------------------------

def solve_indset_sdp(g: Graph, budget: int = 6000,
                     seed: int = 0) -> IndSetSdpSolution:
    """Near-optimal feasible point of the independence-number program at
    tolerance eps = EPS.

    Augmented Lagrangian (Burer-Monteiro) on the edge constraints
    (v0+v_i).(v0+v_j) = 0 with the alignment objective; budget caps the
    inner iterations of each of two restarts. The restart returned is the
    best by (residual <= eps, objective); ``iterations`` sums the restarts
    run.

    Each restart draws v0 and Gaussian rows g from its own stream and starts
    the rows at normalize(0.3 g - v0), beside v_i = -v0: the empty set,
    which meets every edge constraint exactly. Rows on v0's side would put
    every vertex in the set, for the first outer steps to push most out.

    Up to n = 2048 (``_DENSE_N``) the solve keeps the weak-duality bound
    (``_dual.DualBounds``) of the float64 rows and edge multipliers of every
    outer step with residual within eps/2, and of the end of a restart
    whose last step was not. Each bound is at least theta(G) >= alpha(G)
    whatever the rows. A stop asks only whether the smallest kept bound is
    at most a bar, and a Cholesky factorization answers it; no bound's
    value is computed.

    A restart ends at the first outer step with residual within eps/2 that
    meets either stop, both with tolerance tol = 0.01 eps n: the stall
    rule, from the fourth step on, objective within tol of the previous
    step's; or the certificate, some kept bound (an earlier step's or
    restart's counts) at most objective + tol. Above n = 2048 only the
    stall rule. The second restart is skipped once the first has residual
    <= eps and some kept bound is at most its objective + 0.5 eps n.
    ``upper_bound`` is the smallest bar certified: inf where none was, and
    always above n = 2048; an edgeless graph returns n for both. Raises
    ValueError when budget is below 1.

    The inner iterations run in ``_iteration_dtype(d)``, in buffers
    allocated once per call, with the multipliers rounded to that dtype for
    each outer step. The edge values (v0+v_u).(v0+v_v) are
    ``_EdgeSums.dots``; the gradient is its neighbour sum of the
    multipliers, by the kernels the workspace picks, and v0's is the column
    sums of those less the column sums of the rows, each a gemv against a
    ones vector. After each outer step the rows go to float64 (renormalized
    after float32 iterations), where the residual, objective and multiplier
    update are measured with per-edge products; the last measurement is the
    restart's result.
    """
    _check_counts(budget=budget)
    n = g.n
    if g.m == 0:
        return IndSetSdpSolution(np.ones(1), np.ones((n, 1)), float(n), 0.0,
                                 float(n))

    d = max(3, min(n + 1, 32))
    dtype = _iteration_dtype(d)
    eu, ev = g.edge_arrays()
    sums = _EdgeSums(eu, ev, (n, d), dtype)
    grad, tmp = np.empty((n + 1, d), dtype), np.empty((n + 1, d), dtype)
    rowdots, ones = np.empty(n + 1, dtype), np.ones(n, dtype)
    p, colsum = np.empty((n, d), dtype), np.empty(d, dtype)
    h, s = np.empty(g.m, dtype), np.empty(g.m, dtype)
    p64, h64 = np.empty((n, d)), np.empty(g.m)  # measured in float64
    c = grad[1:]  # the weighted neighbour sums; v0 comes off after grad[0]

    tol = 0.01 * EPS * n  # of both stops, certified and stalled
    bounds = DualBounds(eu, ev, n)
    best, iterations = None, 0
    for attempt in range(2):
        rng = stream(seed, "indsdp", attempt)
        w = np.zeros((n + 1, d))
        w[0] = _row_normalize(rng.standard_normal((1, d)))[0]
        w[1:] = _row_normalize(0.3 * rng.standard_normal((n, d)) - w[0])
        w = w.astype(dtype, copy=False)
        lam = np.zeros(g.m)
        mu = 4.0
        inner = max(40, budget // 30)
        used = 0
        prev_obj = math.inf
        outer = 0
        while used < budget:
            outer += 1
            lr = 0.03 * 0.85 ** min(outer, 30)
            opt = _Adam(w, lr)
            lam_dt = lam.astype(dtype, copy=False)
            for _ in range(inner):
                used += 1
                v0 = w[0]
                np.add(w[1:], v0, out=p)
                sums.dots(p, h)
                np.multiply(mu, h, out=s)
                np.add(lam_dt, s, out=s)  # lam + mu * h
                sums.neighbour_sums(s, p, c)
                # grad[0] = ones @ c - ones @ w[1:] (gemv); grad[1:] = c - v0
                np.matmul(ones, c, out=grad[0])
                np.matmul(ones, w[1:], out=colsum)
                np.subtract(grad[0], colsum, out=grad[0])
                np.subtract(c, v0, out=c)
                _sphere_step(w, grad, opt, tmp, rowdots)
            rows = _as_float64(w)
            np.add(rows[1:], rows[0], out=p64)
            _edge_dots(p64, eu, ev, h64)
            res = float(np.abs(h64).max())
            obj = float((1.0 + rows[1:] @ rows[0]).sum() / 2.0)
            stall = abs(obj - prev_obj)
            prev_obj = obj
            met = res <= 0.5 * EPS
            if met and n <= _DENSE_N:
                bounds.add(rows, lam)
            if met and ((outer >= 4 and stall <= tol)
                        or bounds.certifies(obj + tol)):
                break
            lam = lam + mu * h64
            if res > 0.25 * EPS:
                mu = min(mu * 1.6, 1e8)
        if n <= _DENSE_N and not met:
            bounds.add(rows, lam)
        iterations += used
        if best is None or (res <= EPS, obj) > best_key:
            best = IndSetSdpSolution(rows[0].copy(), rows[1:].copy(), obj, res)
            best_key = (res <= EPS, obj)
        if (attempt == 0 and best_key[0]
                and bounds.certifies(best.objective + 0.5 * EPS * n)):
            break
    return replace(best, upper_bound=bounds.upper, iterations=iterations)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedColoring:
    """A vector coloring of an induced subgraph plus its vertex list."""

    coloring: VectorColoring
    graph: Graph
    vertices: np.ndarray  # sorted int64 original ids; row i is vertices[i]


def _perturb_axis(axis: np.ndarray, magnitude: float, rng) -> np.ndarray:
    noise = rng.standard_normal(axis.shape[0])
    noise -= float(noise @ axis) * axis
    nn = float(np.linalg.norm(noise))
    if nn == 0.0:
        return axis
    out = axis + magnitude * noise / nn
    return out / float(np.linalg.norm(out))


def _project(axis, rows, eps, *key):
    """Normalized projections of rows orthogonal to axis. If a row is within
    eps of +-axis, once more with the axis perturbed by 10 eps from
    ``stream(*key)``, which is opened only then; a row still within eps
    becomes e_0. The callers pass the rows to ``_reduced``, which re-measures
    the residual, so the fill never overstates feasibility."""
    proj = rows - (rows @ axis)[:, None] * axis[None, :]
    norms = np.linalg.norm(proj, axis=1)
    if (norms <= eps).any():
        axis = _perturb_axis(axis, 10.0 * eps, stream(*key))
        proj = rows - (rows @ axis)[:, None] * axis[None, :]
        norms = np.linalg.norm(proj, axis=1)
        bad = norms <= eps
        proj[bad] = 0.0
        proj[bad, 0] = 1.0
        norms[bad] = 1.0
    return proj / norms[:, None]


def _reduced(alpha, vectors, eps, g, ids):
    """The vector alpha-coloring of G[ids] by ``vectors`` (row i for the
    i-th smallest id), its tolerance raised from eps to just above its
    measured edge residual where that is larger."""
    sub, verts = induced_subgraph(g, ids)
    residual = VectorColoring(alpha, vectors, eps).edge_residual(sub)
    vc = VectorColoring(alpha, vectors, max(eps, residual + 1e-12))
    return ReducedColoring(vc, sub, verts)


def neighborhood_reduce(vc: VectorColoring, g: Graph, v: int,
                        seed: int = 0) -> ReducedColoring:
    """Vector (alpha-1)-coloring of G[N(v)] by projecting orthogonal to v_v.

    The tolerance of the result is the measured residual of the projected
    vectors against -1/(alpha-2) (first-order, the input eps grows by about
    2/(1 - t^2) with t = -1/(alpha-1)). A neighbor within eps of +-v_v
    takes ``_project``'s seeded perturbation of the axis, and then its fill;
    while eps < 2/(3(alpha-1)) a neighbor at -v_v has no edge in G[N(v)], so
    the fill leaves its vector unconstrained.
    """
    if vc.alpha <= 2.0:
        raise ValueError(f"neighborhood reduction needs alpha > 2, got {vc.alpha}")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    if g.degree(v) < 1:
        raise ValueError(f"vertex {v} has no neighbors")
    neighbors = g.neighbors(v)
    axis = vc.vectors[v] / float(np.linalg.norm(vc.vectors[v]))
    proj = _project(axis, vc.vectors[neighbors], vc.eps, seed, "nbr-perturb", v)
    return _reduced(vc.alpha - 1.0, proj, vc.eps, g, neighbors)


def well_aligned_subset(sol: IndSetSdpSolution, g: Graph, alpha: float,
                        seed: int = 0) -> ReducedColoring:
    """Aligned subset S = {i : v0 . v_i > 2/alpha - 1 - 3/ln n} and a vector
    alpha'-coloring of G[S] with -1/(alpha'-1) = -(1+beta)/(1-beta), as a
    ReducedColoring (alpha' is its coloring's alpha).

    Requires the promise sum v0 . v_i >= (2/alpha - 1 - 1/ln n) n; refuses
    otherwise (the graph lacked the promised independent set or the solver
    slack was too large). When the promise holds, |S| >= n / ln n. The rows
    of S are projected orthogonal to v0 by ``_project``; a member it fills
    (still within EPS of v0 after the perturbation) is isolated inside S, as
    an S-edge at it would need |v_i . v_j| > 1.
    """
    _check_alpha(alpha)
    n = g.n
    if n < 2:
        raise ValueError("aligned-subset extraction needs at least 2 vertices")
    logn = math.log(n)
    align = sol.vectors @ sol.v0
    total = float(align.sum())
    required = (2.0 / alpha - 1.0 - 1.0 / logn) * n
    if total < required - 1e-9:
        raise PromiseNotMetError(
            f"alignment sum {total:.6g} below the promised {required:.6g} "
            f"for alpha={alpha:g}; refusing extraction")
    beta = 2.0 / alpha - 1.0 - 3.0 / logn
    # Membership uses the raw threshold (below -1 it admits every unit
    # vector, antipodal ones included); the coloring parameter needs the
    # clamp so alpha' stays finite and positive.
    members = np.flatnonzero(align > beta)
    beta = max(beta, -1.0 + 1e-9)
    if len(members) < n / logn - 1e-9:
        raise RuntimeError(
            "aligned subset smaller than the guaranteed n/ln n; "
            "inconsistent solver output")
    rows = sol.vectors[members]
    v0 = sol.v0 / float(np.linalg.norm(sol.v0))
    proj = _project(v0, rows, EPS, seed, "aligned-perturb")
    alpha_prime = 1.0 + (1.0 - beta) / (1.0 + beta)
    return _reduced(alpha_prime, proj, EPS, g, members)
