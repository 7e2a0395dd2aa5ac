"""Run one sdpcolor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload color-k4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src``. The
workload's planted instances come from ``--seed``, and their number from
``--seconds``: enough cases to take about that long. One pass calls the
library once on every case and re-checks every result.

``--trace 0`` times one untraced pass and reports the end-to-end metrics;
the first case is then called again and must return the same result.
``--trace 1`` runs half as many cases twice, untraced and traced, reports
the per-layer metrics of the traced pass and the difference of the two
wall times as the tracing overhead; both passes must return the same
results. The last line of output is one JSON object; the lines before it
give the machine, the per-case results and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
from statistics import median
from time import perf_counter

# The BLAS thread count changes solver times, so it is part of the set-up:
# fixed, no higher than any machine's core count, before numpy loads.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
CALIBRATE_EVERY_S = 1.0
# calibration_s() on an idle 2-vCPU machine (0.0175-0.0205 s measured).
REFERENCE_CAL_S = 0.019

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# wall_s is printed but not part of the result: on a shared machine its
# run-to-run spread reached the largest bound a metric may have (README.md).
END_TO_END = (
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_class_size", "vertices"),
    ("verified_frac", "ratio"),
    ("attempts_per_instance", "attempts"),
)
TRACE_TOTALS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import numpy and sdpcolor from ``src`` with the fixed BLAS threads."""
    if not os.path.isfile(os.path.join(SRC, "sdpcolor", "__init__.py")):
        raise SystemExit(f"error: no sdpcolor sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import sdpcolor
    if os.path.dirname(os.path.abspath(sdpcolor.__file__)) != os.path.join(SRC, "sdpcolor"):
        raise SystemExit(f"error: sdpcolor was imported from {sdpcolor.__file__}, "
                         f"not from {SRC}")


def blas_threads_in_use():
    """Threads OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads_in_use(),
        "blas_threads_set": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


def calibration_s():
    """Seconds for a fixed loop shaped like one solver iteration: gather the
    rows of 2500 random edges on a 150 x 24 array, scatter their dot
    products into a dense 150 x 150 matrix, one gemm, row normalisation.
    It uses numpy only, so a change to the library cannot speed it up, and
    it writes into preallocated arrays: a loop that allocated its 480 kB
    temporaries would run 2.5 times slower or faster depending on whether
    the work before it had raised malloc's mmap threshold. Median of three
    runs of 40 iterations."""
    import numpy as np

    rng = np.random.default_rng(0)
    eu = rng.integers(0, 150, 2500)
    ev = (eu + 1 + rng.integers(0, 149, 2500)) % 150
    start = rng.standard_normal((150, 24))
    v, g, gv = np.empty_like(start), np.empty_like(start), np.empty_like(start)
    a, b = np.empty((2500, 24)), np.empty((2500, 24))
    dots, norms = np.empty(2500), np.empty(150)
    w = np.zeros((150, 150))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        v[...] = start
        for _ in range(40):
            np.take(v, eu, axis=0, out=a)
            np.take(v, ev, axis=0, out=b)
            np.multiply(a, b, out=a)
            a.sum(axis=1, out=dots)
            w.fill(0.0)
            w[eu, ev] = dots
            w[ev, eu] = dots
            np.matmul(w, v, out=g)
            np.multiply(g, v, out=gv)
            gv.sum(axis=1, out=norms)
            np.multiply(norms[:, None], v, out=gv)
            g -= gv
            g *= 1e-3
            v -= g
            np.sqrt(np.einsum("ij,ij->i", v, v, out=norms), out=norms)
            v /= norms[:, None]
        times.append(perf_counter() - t0)
    return median(times)


class Pass:
    def __init__(self, outcomes, case_walls, wall_cal, calibrations, tracer=None):
        self.outcomes = outcomes
        self.case_walls = case_walls
        self.wall_s = sum(case_walls)
        self.wall_cal = wall_cal
        self.calibrations = calibrations
        self.tracer = tracer


def run_pass(workload, cases, tracer=None):
    """Call the library once on every case, each on a fresh graph; a case is
    timed from its library call to its re-checked result.

    The calibration loop runs before the first case and then after every
    CALIBRATE_EVERY_S of case time. Each such block of cases counts in
    ``wall_cal`` as its time over the mean of the loop times around it: a
    shared virtual machine can run up to half slower for 10-20 s at a time,
    and the ratio cancels most of that.
    """
    graphs = [case.fresh_graph() for case in cases]
    outcomes, walls, calibrations = [], [], [calibration_s()]
    wall_cal = block = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, (case, g) in enumerate(zip(cases, graphs)):
            t0 = perf_counter()
            outcomes.append(workload.solve(case, g))
            walls.append(perf_counter() - t0)
            block += walls[-1]
            if block >= CALIBRATE_EVERY_S or i == len(cases) - 1:
                calibrations.append(calibration_s())
                wall_cal += block / ((calibrations[-2] + calibrations[-1]) / 2)
                block = 0.0
    return Pass(outcomes, walls, wall_cal, calibrations, tracer)


def quality(workload, cases, outcomes):
    """End-to-end quality of one pass, plus the counts printed beside it."""
    instances = len(outcomes)
    verified = [o for o in outcomes if o.verified]
    classes = sum(o.classes for o in verified)
    vertices = sum(o.vertices for o in verified)
    attempts = sum(o.attempts for o in outcomes)
    e2e = {
        "mean_class_size": vertices / classes if classes else 0.0,
        "verified_frac": len(verified) / instances,
        "attempts_per_instance": attempts / instances,
    }
    extra = {
        "failed_frac": (instances - len(verified)) / instances,
        "retry_frac": attempts / instances - 1.0,
    }
    if workload.kind == "color":
        extra["colors_used"] = classes
        sizes = [c.n for c, o in zip(cases, outcomes) if o.verified]
        if len(set(sizes)) >= 2:
            import numpy as np
            slope, _ = np.polyfit(np.log(sizes),
                                  np.log([o.classes for o in verified]), 1)
            extra["fitted_exponent"] = float(slope)
    else:
        extra["indset_size"] = vertices
    return e2e, extra


def trace_metrics(plain, traced):
    from layers import metric_names

    metrics = traced.tracer.metrics()
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = plain.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.unaccounted_s"] = traced.wall_s - traced.tracer.total_self_s()
    return list(metric_names()) + list(TRACE_TOTALS), metrics


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    import_library()
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t_start

    info = machine()
    if info["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {info['blas_threads']} threads, not "
              f"{BLAS_THREADS}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(info, sort_keys=True))

    # A traced run splits its time between an untraced and a traced pass
    # over the same cases.
    count = workload.case_count(args.seconds / (2 if args.trace else 1))
    cal_before = calibration_s()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cases = workload.cases(args.seed, count)
        workload.warmup()
        setup_times.append(perf_counter() - t0)
    cal_setup = (cal_before + calibration_s()) / 2
    # Set-up time at the calibration loop's reference speed: the machine's
    # speed moved set-up medians by up to 43% between series of runs.
    setup_s = (import_s + median(setup_times)) * REFERENCE_CAL_S / cal_setup

    plain = run_pass(workload, cases)
    if args.trace:
        repeat = run_pass(workload, cases, Tracer())
    else:
        repeat = run_pass(workload, cases[:1])
    print(f"workload {workload.name} seed={args.seed} trace={args.trace} "
          f"cases={len(cases)} sizes={sorted({c.n for c in cases})}")
    for case, o, wall in zip(cases, plain.outcomes, plain.case_walls):
        print(f"case {case.label} seed={case.seed} verified={o.verified} "
              f"vertices={o.vertices} classes={o.classes} "
              f"attempts={o.attempts} wall_s={wall:.4f}")

    problems = []
    if repeat.outcomes != plain.outcomes[:len(repeat.outcomes)]:
        problems.append("a repeated call returned a different result")
    unverified = [o for o in plain.outcomes + repeat.outcomes
                  if o.result is not None and not o.verified]
    if unverified:
        problems.append(f"{len(unverified)} returned results failed the re-check")
    for line in problems:
        print("incorrect: " + line)

    e2e, extra = quality(workload, cases, plain.outcomes)
    for name, value in sorted(extra.items()):
        print(f"quality {name} = {value}")
    if args.trace:
        spec, metrics = trace_metrics(plain, repeat)
    else:
        walls = sorted(plain.case_walls)
        print(f"wall_s = {plain.wall_s} s; per case: median {median(walls):.4f} "
              f"max {walls[-1]:.4f} over {len(walls)} cases; calibration loop "
              f"median {median(plain.calibrations):.4f} s; setup repeats "
              f"{[round(t, 4) for t in setup_times]} s, import {import_s:.4f} s, "
              f"calibration loop around set-up {cal_setup:.4f} s")
        e2e.update(
            wall_cal=plain.wall_cal,
            setup_s=setup_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        spec, metrics = END_TO_END, e2e
    for name, unit in spec:
        print(f"metric {name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(plain.outcomes),
        "failed": sum(1 for o in plain.outcomes if not o.verified),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
