"""Acceptance suite: ten gate criteria, one pass/fail line each.

Every criterion runs at its stated tolerance and asserts its stated runtime
budget. The heavyweight artifacts (the n = 1000 planted instance and its
vector coloring) are shared module fixtures so wall-clock budgets reflect
the criterion's own work.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sdpcolor._rng import stream
from sdpcolor.analysis import (
    WedgeSpec,
    expected_rounding_size,
    wedge_bounds,
    wedge_probability_exact,
    wedge_probability_mc,
)
from sdpcolor.cli import main as cli_main
from sdpcolor.combined import (
    CombinedConfig,
    alpha_k,
    combined_color,
)
from sdpcolor.graph import Graph, verify_coloring, verify_independent_set
from sdpcolor.indset import ak_independent_set, f_exponent, greedy_independent_set
from sdpcolor.progress import build_candidate_collection
from sdpcolor.rounding import (
    kms_independent_set,
    kms_threshold,
    round_once,
)
from sdpcolor.testkit import (
    bootstrap_mean_difference,
    brute_force_mis,
    collection_guarantee_check,
    fit_exponent,
    is_k_colorable,
    paired_threshold_trials,
    planted_k_colorable,
    random_graph,
    simplex_vectors,
    step9_identity_holds,
)
from sdpcolor.vecsdp import VectorColoring, solve_vector_coloring


def report(number: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"PASS criterion {number} [{elapsed:.1f}s / limit {limit:.0f}s] {detail}")


@pytest.fixture(scope="module")
def planted_rounding_instance():
    """n = 1000 three-colorable instance with average degree ~20 plus its
    solved vector 3-coloring (shared by criteria 4 and 5)."""
    inst = planted_k_colorable(1000, 3, 0.03, seed=42)
    vc = solve_vector_coloring(inst.graph, 3.0, seed=5)
    return inst, vc


def test_criterion_1_exponent_table():
    t0 = time.monotonic()
    table = {
        3: Fraction(3, 14),
        4: Fraction(7, 19),
        5: Fraction(97, 207),
        6: Fraction(43, 79),
        7: Fraction(1391, 2315),
        8: Fraction(175, 271),
    }
    for k, want in table.items():
        assert alpha_k(k) == want
    for k in range(4, 13):
        assert step9_identity_holds(k)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1, "exponent table exact; step-9 identity k=4..12")


def test_criterion_2_f_exponent_suite():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200, 1201):
        a = i / 100.0
        lhs = f_exponent(a)
        rhs = 1.0 / (1.0 + (1.0 - 2.0 / a) / f_exponent(a - 1.0))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    for k in range(2, 11):
        assert f_exponent(float(k)) == 3.0 / (k + 1)
    for k in range(2, 9):
        assert abs(f_exponent(k - 1e-9) - f_exponent(float(k))) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, elapsed, 1,
           f"closed form vs functional equation worst {worst:.2e}; "
           f"integers and junctions exact")


def test_criterion_3_sandwich_and_monte_carlo():
    t0 = time.monotonic()
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
    w = WedgeSpec(math.pi / 6, 1.0)
    exact = wedge_probability_exact(w)
    hits = 0
    for seed in range(40):
        mc, se = wedge_probability_mc(w, 10_000_000, seed=seed)
        if abs(mc - exact) <= 4.0 * se:
            hits += 1
    assert hits >= 38  # >= 95% of 40 seeded runs
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, elapsed, 120,
           f"sandwich holds on the grid; MC within 4 se in {hits}/40 runs")


def test_criterion_4_refined_threshold_improvement(planted_rounding_instance):
    t0 = time.monotonic()
    inst, vc = planted_rounding_instance
    res = paired_threshold_trials(inst.graph, vc, 3.0, trials=200, seed=17)
    refined = res["refined_sizes"]
    classic = res["classic_sizes"]
    lo2_5, lo5 = bootstrap_mean_difference(refined, classic, 10000, seed=3)
    assert lo5 > 0.0  # one-sided 95% bootstrap lower bound
    positivity_worst = float("inf")
    t = 3.0
    while t <= 10.0 + 1e-9:
        d = math.exp(t)
        val = expected_rounding_size(1.0, d, 3.0, kms_threshold(3.0, d))
        positivity_worst = min(positivity_worst, val)
        t += 0.25
    assert positivity_worst > 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(4, elapsed, 120,
           f"mean gain {float(np.mean(refined - classic)):.1f} vertices; "
           f"bootstrap 5th pct {lo5:.2f} > 0; E-bound min {positivity_worst:.4f}")


def test_criterion_5_rounding_size_floor(planted_rounding_instance):
    t0 = time.monotonic()
    inst, vc = planted_rounding_instance
    g = inst.graph
    d_avg = g.average_degree
    best = kms_independent_set(g, vc, trials=64, seed=9)
    floor = 0.5 * g.n / (d_avg ** (1.0 / 3.0) * math.log(d_avg) ** (1.0 / 3.0))
    assert verify_independent_set(g, best)
    assert len(best) >= floor
    failures = 0
    for seed in range(1000):
        rng = stream(seed, "accept-fuzz")
        n = int(rng.integers(2, 61))
        p = float(rng.uniform(0.05, 0.5))
        fg = random_graph(n, p, seed=seed)
        vecs = rng.standard_normal((n, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        fvc = VectorColoring(float(max(n, 3)), vecs, 1.0)
        out = round_once(fvc, fg, rng.standard_normal(4), 0.2)
        if not verify_independent_set(fg, out):
            failures += 1
    assert failures == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(5, elapsed, 120,
           f"best set {len(best)} >= floor {floor:.1f}; fuzz 1000/1000 independent")


def test_criterion_6_candidate_collection_witness():
    t0 = time.monotonic()
    hits = 0
    details = []
    for seed in range(10):
        inst = planted_k_colorable(200, 4, 0.25, seed=seed)
        coll = build_candidate_collection(inst.graph)
        rep = collection_guarantee_check(inst.graph, coll, 4, inst)
        if rep["found"]:
            hits += 1
        details.append(rep["found"])
    assert hits >= 9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, elapsed, 60, f"witness found for {hits}/10 seeds")


def test_criterion_7_small_scale_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for seed in range(500):
        rng = stream(seed, "accept-oracle")
        n = int(rng.integers(4, 21))
        p = float(rng.uniform(0.1, 0.5))
        g = random_graph(n, p, seed=10_000 + seed)
        mis = len(brute_force_mis(g))
        produced = [greedy_independent_set(g)]
        vecs = simplex_vectors(max(n, 2), dim=max(n - 1, 1))[:n]
        svc = VectorColoring(float(max(n, 3)), vecs, 1e-6)
        produced.append(kms_independent_set(g, svc, trials=4, seed=seed))
        if seed % 5 == 0:
            produced.append(ak_independent_set(g, 3.0, trials=8, seed=seed))
        for s in produced:
            assert verify_independent_set(g, s)
            assert len(s) <= mis
            checked += 1
    declarations = 0
    for seed in range(8):
        inst = planted_k_colorable(112 + 4 * seed, 4, 0.5, seed=seed)
        res = combined_color(inst.graph, 4,
                             CombinedConfig(seed=seed, trials=8))
        assert res.coloring is not None
        assert verify_coloring(inst.graph, res.coloring)
        for dec in res.declarations:
            sub = Graph(dec.sub.n, dec.sub.edges)
            if dec.k == 2:
                from sdpcolor.graph import two_coloring
                assert two_coloring(sub) is None  # zero false declarations
            else:
                assert not is_k_colorable(sub, dec.k)
            declarations += 1
    assert declarations > 0  # the audit actually exercised declarations
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(7, elapsed, 120,
           f"{checked} sets within the exact optimum; "
           f"{declarations} declarations all confirmed")


def test_criterion_8_end_to_end_scaling():
    t0 = time.monotonic()
    sizes, values = [], []
    for n in (125, 250, 500, 1000):
        for s in range(5):
            inst = planted_k_colorable(n, 4, 0.3, seed=s)
            res = combined_color(inst.graph, 4,
                                 CombinedConfig(seed=100 + s, trials=16))
            assert res.coloring is not None, f"n={n} seed={s}: {res.failure}"
            assert verify_coloring(inst.graph, res.coloring)
            sizes.append(n)
            values.append(res.colors_used)
    slope = fit_exponent(sizes, values)
    bound = float(alpha_k(4)) + 0.15
    assert slope <= bound
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(8, elapsed, 600,
           f"all 20 colorings proper; fitted exponent {slope:.3f} <= {bound:.3f}")


def test_criterion_9_projection_identity():
    t0 = time.monotonic()
    from sdpcolor.testkit import project_orthogonal
    rng = stream(29, "accept-triples")
    worst = 0.0
    for _ in range(10_000):
        while True:
            ai, aj = rng.uniform(-0.95, 0.95, size=2)
            if ai + aj <= 0.0:
                break
        d = -1.0 - ai - aj
        b = (d - ai * aj) / math.sqrt(1.0 - ai * ai)
        c2 = max(1.0 - aj * aj - b * b, 0.0)
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        v0 = basis[0]
        vi = ai * basis[0] + math.sqrt(1 - ai * ai) * basis[1]
        vj = aj * basis[0] + b * basis[1] + math.sqrt(c2) * basis[2]
        pi = project_orthogonal(v0, vi, 1e-12)
        pj = project_orthogonal(v0, vj, 1e-12)
        expected = -math.sqrt((1 + ai) * (1 + aj) / ((1 - ai) * (1 - aj)))
        worst = max(worst, abs(float(pi @ pj) - expected))
    assert worst <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(9, elapsed, 5, f"10^4 triples, worst deviation {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    from sdpcolor.testkit import save_fixture
    inst = planted_k_colorable(36, 4, 0.4, seed=3)
    base = tmp_path / "fixture"
    save_fixture(inst, str(base))
    color_args = ["color", "--input", str(base) + ".col", "--k", "4",
                  "--trials", "8", "--seed", "5"]
    runs = {
        "color": color_args,
        "indset": ["indset", "--gen", "planted:n=40,k=3,p=0.4,seed=1",
                   "--alpha", "3", "--trials", "8", "--seed", "5"],
        "analyze": ["analyze", "--beta", "pi/6,pi/4", "--c", "0.5,1.5",
                    "--mc", "50000", "--seed", "7"],
        "bench": ["bench", "--algo", "indset", "--k", "3", "--p", "0.4",
                  "--sizes", "24,48", "--seeds", "2", "--trials", "8",
                  "--seed", "5"],
    }
    outputs = {}
    for name, argv in runs.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name} output not byte-stable"
        outputs[name] = a
    # verify is deterministic on its own output too
    code_a = cli_main(["verify", "--input", str(base) + ".col",
                       "--result", str(outputs["color"])])
    code_b = cli_main(["verify", "--input", str(base) + ".col",
                       "--result", str(outputs["color"])])
    assert code_a == code_b == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(10, elapsed, 60, "byte-identical reruns across the CLI surface")
