"""Numerical verification of the probabilistic machinery behind the rounding.

Everything here is dependency-free: the standard normal tail N(x) from the
standard library's erfc, the exact two-sided threshold ("wedge") probability

    P(beta) = (1/pi) * integral_0^beta exp(-c^2 / (2 sin^2 t)) dt

for unit vectors v1, v2 with v1.v2 = -cos(2 beta), a Monte Carlo estimator of
the same probability, and the closed-form lower / upper bounds that sandwich
it. Results are bit-stable across platforms at the documented tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rng import stream

SQRT2 = math.sqrt(2.0)
_QUAD_TOL = 1e-12
_QUAD_PANELS = 8
_MAX_DEPTH = 48
_MC_BATCH = 1 << 21


def normal_pdf(x: float) -> float:
    """Standard normal density (1/sqrt(2 pi)) exp(-x^2/2)."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_tail(x: float) -> float:
    """N(x) = Pr[Z >= x] for standard normal Z; absolute error <= 1e-14."""
    if not math.isfinite(x):
        raise ValueError(f"normal_tail requires finite x, got {x}")
    return 0.5 * math.erfc(x / SQRT2)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_adaptive_simpson(f, a, m, 0.5 * tol, fa, flm, fm, left, depth - 1)
            + _adaptive_simpson(f, m, b, 0.5 * tol, fm, frm, fb, right, depth - 1))


def adaptive_quadrature(f, a: float, b: float) -> float:
    """Adaptive Simpson integration of f over [a, b] to absolute tolerance
    ``_QUAD_TOL``.

    The interval is pre-split into ``_QUAD_PANELS`` equal pieces so
    integrands that are exponentially flat near one endpoint (the t -> 0
    regime here) are resolved without deep recursion.
    """
    if b < a:
        raise ValueError("integration bounds out of order")
    if b == a:
        return 0.0
    total = 0.0
    step = (b - a) / _QUAD_PANELS
    sub_tol = _QUAD_TOL / _QUAD_PANELS
    for i in range(_QUAD_PANELS):
        x0 = a + i * step
        x1 = a + (i + 1) * step
        xm = 0.5 * (x0 + x1)
        f0, fm_, f1 = f(x0), f(xm), f(x1)
        whole = (x1 - x0) / 6.0 * (f0 + 4.0 * fm_ + f1)
        total += _adaptive_simpson(f, x0, x1, sub_tol, f0, fm_, f1, whole,
                                   _MAX_DEPTH)
    return total


# ---------------------------------------------------------------------------
# Wedge probability: exact, Monte Carlo, and bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeSpec:
    """Half-angle beta in (0, pi/2) and threshold c >= 0.

    The two unit vectors satisfy v1.v2 = -cos(2 beta); the event is
    {v1.r >= c and v2.r >= c} for a standard normal r, which in the plane is
    a wedge of opening 2 beta at apex distance R(beta) = c / sin(beta).
    """

    beta: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.beta < 0.5 * math.pi):
            raise ValueError(f"beta must lie in (0, pi/2), got {self.beta}")
        if self.c < 0.0:
            raise ValueError(f"threshold c must be nonnegative, got {self.c}")

    @classmethod
    def from_alpha(cls, alpha: float, c: float) -> "WedgeSpec":
        """Wedge for an edge of a vector alpha-coloring: cos(2 beta) = 1/(alpha-1)."""
        if alpha <= 2.0:
            raise ValueError(f"from_alpha requires alpha > 2, got {alpha}")
        return cls(0.5 * math.acos(1.0 / (alpha - 1.0)), c)


def _wedge_integrand(c: float):
    c2 = c * c

    def f(t: float) -> float:
        if t <= 0.0:
            return 1.0 if c2 == 0.0 else 0.0
        s = math.sin(t)
        z = c2 / (2.0 * s * s)
        if z > 745.0:  # exp underflows anyway
            return 0.0
        return math.exp(-z)

    return f


def wedge_probability_exact(w: WedgeSpec) -> float:
    """P(beta) by adaptive quadrature; absolute error <= 1e-10."""
    return adaptive_quadrature(_wedge_integrand(w.c), 0.0, w.beta) / math.pi


def wedge_probability_mc(w: WedgeSpec, samples: int,
                         seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of P(beta) with its binomial standard error.

    v1 = (sin b, cos b) and v2 = (sin b, -cos b) are placed symmetrically about
    the x-axis (so v1.v2 = -cos 2b) and r' is a standard 2-D normal vector.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    rng = stream(seed, "wedge-mc")
    sb = math.sin(w.beta)
    cb = math.cos(w.beta)
    hits = 0
    remaining = samples
    while remaining > 0:
        size = min(_MC_BATCH, remaining)
        x = rng.standard_normal(size)
        y = rng.standard_normal(size)
        # v1.r >= c and v2.r >= c  <=>  x sin b >= c + |y| cos b
        hits += int(((sb * x - cb * abs(y)) >= w.c).sum())
        remaining -= size
    p_hat = hits / samples
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, se


@dataclass(frozen=True)
class BoundSet:
    """Closed-form sandwich for P(beta) at one (beta, c).

    a_coef = 2 sin^2 b + tan^2 b and b_coef = (1/pi) sin^3 b / cos b give the
    lower bound b_coef/(c^2 + a_coef) * exp(-c^2/(2 sin^2 b)). upper_claim is
    N(sqrt(2) c)^2, the orthogonal-wedge bound specialized to beta = pi/6;
    upper_general is N(c / (sqrt(2) sin b))^2, valid for beta <= pi/4 (None
    otherwise), which for cos(2b) = 1/(alpha-1) equals
    N(sqrt((alpha-1)/(alpha-2)) c)^2. upper_general_floor evaluates the same
    expression with floor(alpha) in place of alpha when floor(alpha) > 2.
    """

    beta: float
    c: float
    a_coef: float
    b_coef: float
    lower: float
    upper_claim: float
    upper_general: float | None
    upper_general_floor: float | None


def wedge_bounds(w: WedgeSpec, alpha: float | None = None) -> BoundSet:
    """All sandwich bounds for P(beta); alpha (> 2) adds the floor variant."""
    sb = math.sin(w.beta)
    cb = math.cos(w.beta)
    a_coef = 2.0 * sb * sb + (sb / cb) ** 2
    b_coef = sb ** 3 / (math.pi * cb)
    decay = math.exp(-w.c * w.c / (2.0 * sb * sb))
    lower = b_coef / (w.c * w.c + a_coef) * decay
    upper_claim = normal_tail(SQRT2 * w.c) ** 2
    upper_general = None
    if w.beta <= 0.25 * math.pi + 1e-12:
        upper_general = normal_tail(w.c / (SQRT2 * sb)) ** 2
    upper_floor = None
    if alpha is not None:
        if alpha <= 2.0:
            raise ValueError(f"alpha must exceed 2 for the general bound, got {alpha}")
        upper_general = normal_tail(math.sqrt((alpha - 1.0) / (alpha - 2.0)) * w.c) ** 2
        ka = math.floor(alpha)
        if ka > 2:
            upper_floor = normal_tail(math.sqrt((ka - 1.0) / (ka - 2.0)) * w.c) ** 2
    return BoundSet(w.beta, w.c, a_coef, b_coef, lower, upper_claim,
                    upper_general, upper_floor)


def expected_rounding_size(n: float, d_avg: float, alpha: float, c: float) -> float:
    """Lower bound n (N(c) - (D/2) N(sqrt((alpha-1)/(alpha-2)) c)^2) on the
    expected number of surviving vertices after one threshold-rounding pass."""
    if n < 0 or d_avg < 0:
        raise ValueError("n and the average degree must be nonnegative")
    if alpha <= 2.0:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    pair_bound = normal_tail(math.sqrt((alpha - 1.0) / (alpha - 2.0)) * c) ** 2
    return n * (normal_tail(c) - 0.5 * d_avg * pair_bound)


# ---------------------------------------------------------------------------
# Sweeps and the CSV emitter
# ---------------------------------------------------------------------------

CSV_HEADER = "beta,c,exact,mc,se,lower,upper_claim,upper_general"


def sweep_rows(betas, cs, mc_samples: int = 0, seed: int = 0) -> list[dict]:
    """Sandwich sweep over the (beta, c) grid; mc columns filled if requested."""
    rows = []
    for beta in betas:
        for i, c in enumerate(cs):
            w = WedgeSpec(beta, c)
            bounds = wedge_bounds(w)
            exact = wedge_probability_exact(w)
            mc = se = None
            if mc_samples:
                mc, se = wedge_probability_mc(w, mc_samples, seed=seed * 100003 + i)
            rows.append({
                "beta": beta,
                "c": c,
                "exact": exact,
                "mc": mc,
                "se": se,
                "lower": bounds.lower,
                "upper_claim": bounds.upper_claim,
                "upper_general": bounds.upper_general,
            })
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    def fmt(x):
        return "" if x is None else repr(float(x))

    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(fmt(r[k]) for k in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"
