"""Self-tests of the benchmark at tiny sizes: python -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import sdpcolor
from layers import FINDER, LAYERS, Tracer, bindings, metric_names
from run import END_TO_END, TRACE_TOTALS, run_pass
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers each workload must reach, on one tiny case of its own kind.
EXERCISED = {
    "color-k4": (48, (
        "vecsdp.solve_vector_coloring", "rounding.kms_independent_set",
        "rounding.round_once", "combined.combined_color", "combined.finder",
        "progress.progress_driver", "progress.ContractedGraph.delete",
        "progress.ContractedGraph.quotient_graph",
        "testkit.brute_force_chromatic", "graph.verify_coloring")),
    "contract-k4": (110, (
        "vecsdp.solve_vector_coloring", "combined.finder",
        "progress.ContractedGraph.merge")),
    "color-k3-sparse": (120, (
        "combined.color_three_fallback", "rounding.kms_color",
        "vecsdp.solve_vector_coloring", "graph.induced_subgraph",
        "rounding.kms_independent_set", "rounding.round_once")),
    "indset-a3": (60, (
        "indset.ak_independent_set", "vecsdp.solve_indset_sdp",
        "vecsdp.well_aligned_subset", "vecsdp.neighborhood_reduce",
        "indset.greedy_independent_set", "rounding.kms_independent_set")),
}


def _tiny_passes(name):
    size, _ = EXERCISED[name]
    workload = WORKLOADS[name]
    cases = workload.cases(1, 1, sizes=(size,))
    plain = run_pass(workload, cases)
    traced = run_pass(workload, cases, Tracer())
    return plain, traced


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_workload_reaches_its_layers_and_tracing_keeps_results(name):
    plain, traced = _tiny_passes(name)
    assert all(o.verified for o in plain.outcomes)
    assert traced.outcomes == plain.outcomes
    stats = traced.tracer.stats
    for layer in EXERCISED[name][1]:
        assert stats[layer].calls > 0, layer
    if name == "contract-k4":
        assert stats[FINDER.name].counts["same_color"] > 0
    if name == "indset-a3":
        assert stats["vecsdp.solve_vector_coloring"].calls == 0
    # Self times partition the traced wall time.
    assert traced.tracer.total_self_s() <= traced.wall_s


def test_patches_reach_every_binding_and_are_restored():
    from sdpcolor import combined, progress, vecsdp

    originals = {(id(owner), name): getattr(owner, name)
                 for layer in LAYERS
                 for owner, name in bindings(layer, getattr(layer.owner, layer.attr))}
    solver = vecsdp.solve_vector_coloring
    assert combined.solve_vector_coloring is solver
    tracer = Tracer()
    with tracer.installed():
        assert combined.solve_vector_coloring is not solver
        assert vecsdp.solve_vector_coloring is combined.solve_vector_coloring
        assert sdpcolor.solve_vector_coloring is combined.solve_vector_coloring
        assert combined.progress_driver is progress.progress_driver
        assert progress.ContractedGraph.merge.__wrapped__ is not None
    assert combined.solve_vector_coloring is solver
    for layer in LAYERS:
        for owner, name in bindings(layer, getattr(layer.owner, layer.attr)):
            assert getattr(owner, name) is originals[(id(owner), name)]
    assert not hasattr(progress.ContractedGraph.merge, "__wrapped__")


def test_recursive_spans_report_self_time_not_inclusive_time():
    tracer = Tracer()
    name = "combined.combined_color"

    def probe(depth):
        time.sleep(0.02)
        if depth:
            tracer._span(name, probe, (depth - 1,), {})

    t0 = time.perf_counter()
    tracer._span(name, probe, (2,), {})
    wall = time.perf_counter() - t0
    stats = tracer.stats[name]
    assert stats.calls == 3
    # Inclusive time would be about 0.06 + 0.04 + 0.02 = 2 * wall.
    assert abs(stats.self_s - wall) < 0.01


def test_candidate_collection_counts_sets():
    inst = sdpcolor.planted_k_colorable(30, 4, 0.4, seed=2)
    tracer = Tracer()
    with tracer.installed():
        coll = sdpcolor.build_candidate_collection(inst.graph)
    stats = tracer.stats["progress.build_candidate_collection"]
    assert stats.calls == 1
    assert stats.counts["sets"] == len(coll) > 0


def test_infeasible_solve_counts_as_failed():
    k4 = sdpcolor.Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    tracer = Tracer()
    with tracer.installed(), pytest.raises(sdpcolor.vecsdp.InfeasibleError):
        sdpcolor.solve_vector_coloring(k4, 3.0, budget=50, restarts=1)
    stats = tracer.stats["vecsdp.solve_vector_coloring"]
    assert stats.calls == 1 and stats.counts["failed"] == 1
    assert stats.counts["edges"] == 6


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == metric_names() + list(TRACE_TOTALS))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_run_prints_end_to_end_then_per_layer_json():
    out = _run(ROOT, "--workload", "indset-a3", "--seed", "5", "--seconds", "1",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    out = _run(ROOT, "--workload", "indset-a3", "--seed", "5", "--seconds", "1",
               "--trace", "1")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert metrics["vecsdp.solve_vector_coloring.calls"]["value"] == 0
    assert metrics["vecsdp.solve_indset_sdp.calls"]["value"] == 2


def test_run_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "color-k4", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
