"""Weak-duality certificates on the independence-number program's optimum,
decided by Cholesky factorizations (``DualBounds``); used by
``vecsdp.solve_indset_sdp``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The unit roundoff u and the smallest subnormal eta of float64, from which
# the certificate's margins are derived.
_U = np.finfo(np.float64).eps / 2
_ETA = float(np.finfo(np.float64).smallest_subnormal)


def _gamma_k(k):
    """gamma_k = k u / (1 - k u), the rounding bound of k operations."""
    return k * _U / (1.0 - k * _U)


def _alpha(k):
    """gamma_{k+1} / (1 - gamma_{k+1}): Cholesky's backward error on a
    k x k matrix, relative to its diagonal."""
    return _gamma_k(k + 1) / (1.0 - _gamma_k(k + 1))


def _factors(a) -> bool:
    """Whether ``np.linalg.cholesky`` factors a to the end."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor.diagonal()).all())  # NaN passes potrf


@dataclass(eq=False)
class _KeptBound:
    """One bounded step: its multipliers lam, radial multipliers gamma and
    base; M = diag(gamma) - K projected on the columns of the step's rows W
    (``proj`` = W^T M W, ``gram`` = W^T W); M's largest absolute row sum;
    and the largest bar it refused."""

    lam: np.ndarray
    gamma: np.ndarray
    base: float
    proj: np.ndarray
    gram: np.ndarray
    rowsum: float
    refused: float = -math.inf


class DualBounds:
    """Weak-duality certificates on the independence program's optimum.

    Any (n+1, d) rows W = [v0; v_1..v_n] and any edge multipliers lam give a
    bound (Lovasz 1979). With lam_e/2 on each edge constraint, the
    Lagrangian at the Gram matrix X of unit rows is n/2 - sum(lam)/2 + <K,
    X>, where K[0,i] = 1/4 - (sum of lam over the edges at i)/4, K[i,j] =
    -lam_ij/4 on each edge ij, and every other entry is 0. For any gamma,
    <K, X> <= sum(gamma) + N max(0, -lambda_min(M)), M = diag(gamma) - K
    and N = n+1, since X is PSD with trace N. gamma_a = W_a . (K W)_a, the
    rows' radial multipliers, makes the bound tight at a stationary point.
    The bound is at least theta(G), which is at least alpha(G).

    ``add`` keeps a step's lam, gamma and base = n/2 - sum(lam)/2 +
    sum(gamma) for the rest of the solve: m + n + 2 floats, and 2 d^2 + 2
    more. Its bound is at most a bar exactly when base <= bar and M + s I is
    PSD, s = (bar - base)/N. ``certifies(bar)`` answers whether some kept
    bound is at most bar, trying the newest first; ``upper`` is the
    smallest bar certified, inf before the first. A kept step is not tried
    again for a bar at or below one it refused.

    One Cholesky factorization of M + (s - c) I certifies, once c covers
    its backward error (Rump, "Verification of positive definiteness", BIT
    46, 2006). With gamma_k = k u/(1 - k u) and alpha = gamma_{N+1}/(1 -
    gamma_{N+1}): if the floating-point factorization of A~ = fl(A - c I),
    A = M + s I, runs to completion, its factor R has R^T R = A~ + E with
    |E| <= gamma_{N+1} |R^T| |R| in any order of the inner products, so
    |E_ij| <= alpha sqrt(A~_ii A~_jj), ||E|| <= alpha tr(A~) and
    lambda_min(A~) >= -alpha tr(A~). So c = 2 alpha (tr A + |s|) + 4 N^2
    eta proves A PSD: alpha tr(A~) is alpha tr A to first order, the factor
    2 covers the roundings of s, of the shifted diagonal and of c itself,
    each a few u times tr A + |s| while alpha >= (N+1) u, and 4 N^2 eta
    covers underflow. K, gamma and base are taken as computed; their own
    rounding, relative u times a degree or n + m, is far below the stop
    tolerance, as it was below that of the ``eigvalsh`` this replaces.

    Three refusals come first and cost no factorization of order N, each a
    proof that the bound exceeds bar: base > bar; a diagonal entry of A
    below 0; and W^T A W + tau I not factoring (d x d), which shows some
    W y with (W y)^T A (W y) < 0. Where a step's bound exceeds the bar, A's
    negative directions lie almost wholly in the columns of W (M W = 0 at a
    stationary point), so this refuses nearly every bar a factorization of
    order N would.
    tau = 2 (eps_P + d alpha_d max_i P_ii), with P = W^T A W as computed,
    alpha_d the alpha of order d, and eps_P = gamma_{2N+4} tr(W^T W)
    (rowsum + |s|) bounding P's rounding in norm: P's inner products have
    length N, two of them nested, and || |W|^T |A| |W| || <= ||W||_F^2
    times A's largest absolute row sum. If A is PSD then P + tau I has
    smallest eigenvalue above d alpha_d times its largest diagonal entry,
    and such a matrix factors (Demmel 1989; both bounds are in Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 10.1).
    """

    def __init__(self, eu, ev, n):
        self.eu, self.ev, self.n = eu, ev, n
        self.kept: list[_KeptBound] = []  # oldest first
        self.upper = math.inf

    def _k(self, lam):
        n, eu, ev = self.n, self.eu, self.ev
        at = np.bincount(np.concatenate([eu, ev]), np.concatenate([lam, lam]), n)
        k = np.zeros((n + 1, n + 1))
        k[0, 1:] = k[1:, 0] = 0.25 - 0.25 * at
        k[eu + 1, ev + 1] = k[ev + 1, eu + 1] = -0.25 * lam
        return k

    def add(self, rows, lam):
        """Keep the bound of float64 rows W and multipliers lam."""
        k = self._k(lam)
        kw = k @ rows
        gamma = (rows * kw).sum(axis=1)
        base = float(self.n / 2.0 - 0.5 * lam.sum() + gamma.sum())
        mw = gamma[:, None] * rows - kw
        rowsum = float((np.abs(k, out=k).sum(axis=1) + np.abs(gamma)).max())
        self.kept.append(_KeptBound(lam, gamma, base, rows.T @ mw,
                                    rows.T @ rows, rowsum))

    def certifies(self, bar: float) -> bool:
        """Whether a kept bound is provably at most bar."""
        if self.upper <= bar:
            return True
        for kept in reversed(self.kept):
            if bar > kept.refused and self._proves(kept, bar):
                self.upper = bar
                return True
            kept.refused = max(kept.refused, bar)
        return False

    def _proves(self, kept, bar):
        big_n, d = self.n + 1, kept.gram.shape[0]
        s = (bar - kept.base) / big_n
        diag = kept.gamma + s
        if not (kept.base <= bar and diag.min() >= 0.0):
            return False
        p = kept.proj + s * kept.gram
        eps_p = (_gamma_k(2 * big_n + 4) * np.trace(kept.gram)
                 * (kept.rowsum + abs(s)))
        p.flat[::d + 1] += 2.0 * (eps_p + d * _alpha(d)
                                  * max(p.diagonal().max(), 0.0))
        if not _factors(p):
            return False
        c = (2.0 * _alpha(big_n) * (diag.sum() + abs(s))
             + 4.0 * big_n ** 2 * _ETA)
        a = self._k(kept.lam)
        np.negative(a, out=a)
        a.flat[::big_n + 1] = kept.gamma + (s - c)
        return _factors(a)
