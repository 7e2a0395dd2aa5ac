import math

import numpy as np
import pytest

from sdpcolor.analysis import (
    WedgeSpec,
    expected_rounding_size,
    normal_pdf,
    normal_tail,
    rows_to_csv,
    sweep_rows,
    wedge_bounds,
    wedge_probability_exact,
    wedge_probability_mc,
)
from sdpcolor.testkit import wedge_q_identity, wedge_q_quadrature

# Independent oracle: composite 20-point Gauss-Legendre quadrature of the
# normal density over [x, x+12]; the remaining tail is below 1e-32.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def oracle_normal_tail(x: float, width: float = 12.0, panels: int = 48) -> float:
    total = 0.0
    h = width / panels
    for i in range(panels):
        a = x + i * h
        b = a + h
        xs = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.sum(_GL_WEIGHTS * np.exp(-xs * xs / 2)))
    return total / math.sqrt(2 * math.pi)


def test_normal_tail_symmetry_and_midpoint():
    assert normal_tail(0.0) == 0.5
    assert normal_tail(-1.3) + normal_tail(1.3) == pytest.approx(1.0, abs=1e-15)


def test_normal_tail_at_one():
    # Frozen from the quadrature oracle.
    assert normal_tail(1.0) == pytest.approx(0.1586552539314571, abs=1e-14)


def test_normal_tail_matches_oracle_grid():
    for x in np.arange(-6.0, 6.01, 0.125):
        x = float(x)
        ref = oracle_normal_tail(x) if x >= 0 else 1.0 - oracle_normal_tail(-x)
        assert normal_tail(x) == pytest.approx(ref, abs=1e-14)


def test_normal_tail_sandwich_at_two():
    # (1/x - 1/x^3) phi(x) <= N(x) <= phi(x)/x at x = 2; endpoint values are
    # evaluations of the closed forms.
    low = 0.375 * normal_pdf(2.0)
    high = 0.5 * normal_pdf(2.0)
    assert low == pytest.approx(0.020246612442445522, abs=1e-15)
    assert normal_tail(2.0) == pytest.approx(0.022750131948179212, abs=1e-13)
    assert high == pytest.approx(0.02699548325659403, abs=1e-15)
    assert low <= normal_tail(2.0) <= high


def test_normal_tail_rejects_nonfinite():
    with pytest.raises(ValueError):
        normal_tail(float("nan"))
    with pytest.raises(ValueError):
        normal_tail(float("inf"))


def test_wedge_spec_validation():
    with pytest.raises(ValueError):
        WedgeSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        WedgeSpec(math.pi / 2, 1.0)
    with pytest.raises(ValueError):
        WedgeSpec(math.pi / 6, -0.1)
    with pytest.raises(ValueError):
        WedgeSpec.from_alpha(2.0, 1.0)


def test_wedge_spec_from_alpha():
    assert WedgeSpec.from_alpha(3.0, 1.0).beta == pytest.approx(math.pi / 6, abs=1e-15)


def test_wedge_exact_zero_threshold_is_angular_fraction():
    # At c = 0 the wedge probability is beta / pi.
    assert wedge_probability_exact(WedgeSpec(math.pi / 2 - 1e-12, 0.0)) == pytest.approx(
        0.5, abs=1e-10)
    assert wedge_probability_exact(WedgeSpec(math.pi / 4, 0.0)) == pytest.approx(
        0.25, abs=1e-12)
    assert wedge_probability_exact(WedgeSpec(math.pi / 6, 0.0)) == pytest.approx(
        1.0 / 6.0, abs=1e-12)


def test_wedge_exact_orthogonal_vectors_factorize():
    # beta = pi/4 means v1.v2 = 0, so the two threshold events are independent.
    for c in (0.5, 1.0, 2.0):
        w = WedgeSpec(math.pi / 4, c)
        assert wedge_probability_exact(w) == pytest.approx(
            normal_tail(c) ** 2, abs=1e-12)


def test_wedge_exact_frozen_value():
    # Frozen from this quadrature (cross-validated against Monte Carlo below).
    assert wedge_probability_exact(WedgeSpec(math.pi / 6, 1.5)) == pytest.approx(
        0.00017230461003926888, abs=1e-12)


def test_wedge_mc_matches_exact():
    w = WedgeSpec(math.pi / 6, 1.0)
    exact = wedge_probability_exact(w)
    mc, se = wedge_probability_mc(w, 2_000_000, seed=11)
    assert abs(mc - exact) <= 4.0 * se


def test_wedge_mc_zero_threshold_sixth():
    mc, se = wedge_probability_mc(WedgeSpec(math.pi / 6, 0.0), 1_000_000, seed=5)
    assert abs(mc - 1.0 / 6.0) <= 4.0 * se


def test_wedge_mc_huge_threshold_is_zero():
    mc, se = wedge_probability_mc(WedgeSpec(math.pi / 6, 10.0), 100_000, seed=1)
    assert mc == 0.0


def test_wedge_mc_rejects_tiny_sample():
    with pytest.raises(ValueError):
        wedge_probability_mc(WedgeSpec(math.pi / 6, 1.0), 10)


def test_bounds_coefficients_at_pi_over_six():
    b = wedge_bounds(WedgeSpec(math.pi / 6, 1.5))
    assert b.a_coef == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert b.b_coef == pytest.approx(1.0 / (4.0 * math.sqrt(3.0) * math.pi), rel=1e-12)


def test_bounds_sandwich_grid():
    for beta in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3):
        for c in np.arange(0.25, 3.01, 0.25):
            w = WedgeSpec(beta, float(c))
            exact = wedge_probability_exact(w)
            b = wedge_bounds(w)
            assert b.lower <= exact + 1e-10
            if abs(beta - math.pi / 6) < 1e-12:
                assert exact <= b.upper_claim + 1e-10
            if b.upper_general is not None:
                assert exact <= b.upper_general + 1e-10


def test_bounds_zero_threshold_below_exact():
    # Regression guard on transcription: at c = 0 the lower bound is B/A and
    # must not exceed the exact value beta/pi.
    for beta in (math.pi / 12, math.pi / 6, math.pi / 4):
        b = wedge_bounds(WedgeSpec(beta, 0.0))
        assert b.lower == pytest.approx(b.b_coef / b.a_coef, rel=1e-12)
        assert b.lower <= beta / math.pi + 1e-12


def test_bounds_general_matches_alpha_form():
    # N(c / (sqrt2 sin b))^2 with cos 2b = 1/(alpha-1) equals
    # N(sqrt((alpha-1)/(alpha-2)) c)^2.
    for alpha in (2.5, 3.0, 4.0, 7.0):
        w = WedgeSpec.from_alpha(alpha, 1.2)
        from_beta = wedge_bounds(w).upper_general
        from_alpha = wedge_bounds(w, alpha=alpha).upper_general
        assert from_beta == pytest.approx(from_alpha, rel=1e-12)


def test_bounds_general_absent_for_wide_wedges():
    b = wedge_bounds(WedgeSpec(math.pi / 3, 1.0))
    assert b.upper_general is None


def test_bounds_floor_variant():
    b = wedge_bounds(WedgeSpec.from_alpha(3.5, 1.0), alpha=3.5)
    assert b.upper_general_floor is not None
    expected = normal_tail(math.sqrt(2.0) * 1.0) ** 2  # floor(3.5) = 3
    assert b.upper_general_floor == pytest.approx(expected, rel=1e-12)
    # (x-1)/(x-2) decreases in x, so the floor variant multiplies c by more
    # and yields the smaller (tighter) expression of the two.
    assert b.upper_general_floor <= b.upper_general


def test_lower_bound_tightness_no_growth():
    # The ratio exact/lower at beta = pi/6 stays Theta(1) in c: frozen values
    # show it decreasing toward 1 on [1, 3], never above 1.2.
    ratios = []
    for c in (1.0, 1.5, 2.0, 2.5, 3.0):
        w = WedgeSpec(math.pi / 6, c)
        ratios.append(wedge_probability_exact(w) / wedge_bounds(w).lower)
    assert ratios[0] == pytest.approx(1.1152, abs=2e-4)
    assert all(r <= 1.2 for r in ratios)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_q_identity_numerically():
    for beta in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3):
        for c in (0.5, 1.0, 2.0):
            w = WedgeSpec(beta, c)
            assert wedge_q_quadrature(w) == pytest.approx(
                wedge_q_identity(w), abs=1e-8)


def test_expected_rounding_size_positive_at_refined_threshold():
    d = math.e ** 6
    c = math.sqrt((1 - 2 / 3) * (2 * math.log(d) - math.log(math.log(d))))
    assert expected_rounding_size(1000.0, d, 3.0, c) > 0.0
    # Chain inequality from the refined analysis: N(c)/N(sqrt2 c)^2 > D.
    assert normal_tail(c) / normal_tail(math.sqrt(2) * c) ** 2 > d


def test_expected_rounding_size_edge_cases():
    assert expected_rounding_size(50, 0.0, 3.0, 1.0) == pytest.approx(
        50 * normal_tail(1.0), rel=1e-12)
    assert expected_rounding_size(50, 10.0, 3.0, 40.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_rounding_size(10, 5.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        expected_rounding_size(-1, 5.0, 3.0, 1.0)


def test_sweep_rows_and_csv():
    rows = sweep_rows([math.pi / 6], [0.5, 1.0], mc_samples=0)
    assert len(rows) == 2
    for r in rows:
        assert r["lower"] <= r["exact"] <= r["upper_claim"] + 1e-10
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "beta,c,exact,mc,se,lower,upper_claim,upper_general"
    assert len(lines) == 3
    # Empty mc columns serialize as empty strings.
    assert ",," in lines[1]
    assert rows_to_csv(rows) == csv  # deterministic
