"""Run the colouring and independent-set quality gates and print their
totals as one JSON line.

    python3 tools/quality_sweep.py

Run from anywhere; the library is imported from ``src`` with one BLAS
thread. Five sets of cases, each a fixed list (no options):

* ``grid``: criterion 8, planted k=4, p=0.3, n = 125..1000, 5 seeds,
  ``combined_color`` at ``CombinedConfig(seed=100 + s, trials=16)``; also
  reports the fitted exponent;
* the 361-run sweep: ``kms`` (300 ``kms_color`` runs, k 3..7, p
  0.3/0.5/0.7, n 40/60/90/150, seeds 0..4, trials 16), ``combined`` (54
  ``combined_color`` runs, k 5/6, p 0.3/0.5/0.7, n 60/90/120, seeds 0..2,
  trials 16) and ``stall`` (``tests/test_combined.STALL_CASES``, called as
  that test calls them);
* ``k3``: 60 ``combined_color(g, 3, CombinedConfig(seed=s, trials=16))``
  runs on planted k=3 graphs, p 0.3/0.5/0.7, n 40/60/90/150, seeds 0..4;
* ``sparse_k3``: 54 ``solve_vector_coloring(g, 3.0, seed=s)`` solves on
  planted 3-colourable graphs, n 60/90/120/200, average degree 4/6/8/12,
  seeds 0..3, kept where 16 m < n^2;
* ``indset``: the 100 bench-shaped cases, planted k=3, p=0.3, n = 100/150
  alternating from 100, seeds 960000..960099,
  ``ak_independent_set(g, 3.0, seed=s)``.

For each part the line gives the runs, colours, failures (an
``InfeasibleError``, or a ``combined_color`` result with no colouring)
and the colouring solver's iterations per phase of ``vecsdp.PHASES``
(``wide``, ``lowrank``, ``polish``, ``refine``) with their total, and
``fallbacks``, the Polyak polishes that stopped short, so that an Adam
polish ran from their rows. These are the sums of the ``counts`` that
each solve reports (``VectorColoring.counts``, or the
``InfeasibleError``'s), read by wrapping the two public solvers. Colour,
iteration and fallback totals are deterministic; ``seconds`` is not.
``colorings_sha256`` is one digest over the colourings of every
``combined_color`` run (``grid``, ``combined`` and ``stall``), in run order:
each as its JSON list (``null`` for no colouring), one per line, so two
trees' outputs compare as one string. ``kms`` and ``k3`` each give their
own ``colorings_sha256``, the same kind of digest over their runs alone.
``indset`` gives the total ``size`` of its sets, ``sets_sha256``, the same
kind of digest over each set as its sorted JSON list, and ``iterations``,
the independence solver's inner iterations summed over its 100 solves
(``IndSetSdpSolution.iterations``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    # Fixed before numpy loads, as perfbench/run.py does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = "1"

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from sdpcolor import vecsdp  # noqa: E402
from sdpcolor.combined import CombinedConfig, combined_color  # noqa: E402
from sdpcolor.graph import verify_coloring  # noqa: E402
from sdpcolor.indset import ak_independent_set  # noqa: E402
from sdpcolor.rounding import kms_color  # noqa: E402
from sdpcolor.testkit import fit_exponent, planted_k_colorable  # noqa: E402
from sdpcolor.vecsdp import InfeasibleError  # noqa: E402
from test_combined import STALL_CASES  # noqa: E402


def grid_cases():
    """(n, k, p, instance seed, config seed) of criterion 8."""
    return [(n, 4, 0.3, s, 100 + s) for n in (125, 250, 500, 1000)
            for s in range(5)]


def sweep_cases():
    """(part, n, k, p, seed) of the 361-run sweep."""
    kms = [("kms", n, k, p, s) for k in range(3, 8) for p in (0.3, 0.5, 0.7)
           for n in (40, 60, 90, 150) for s in range(5)]
    comb = [("combined", n, k, p, s) for k in (5, 6) for p in (0.3, 0.5, 0.7)
            for n in (60, 90, 120) for s in range(3)]
    return kms + comb + [("stall", *case) for case in STALL_CASES]


def k3_cases():
    """(n, p, seed) of the k=3 ``combined_color`` family."""
    return [(n, p, s) for p in (0.3, 0.5, 0.7) for n in (40, 60, 90, 150)
            for s in range(5)]


def sparse_cases():
    """(n, average degree, seed) of the sparse k=3 probe: planted at p =
    degree / (2n/3), kept where 16 m < n^2."""
    out = []
    for n in (60, 90, 120, 200):
        for deg in (4, 6, 8, 12):
            for s in range(4):
                g = planted_k_colorable(n, 3, deg / (2 * n / 3), seed=s).graph
                if 16 * g.m < n * n:
                    out.append((n, deg, s))
    return out


def indset_cases():
    """(n, seed) of the 100 bench-shaped independent-set cases."""
    return [(100 + 50 * (i % 2), 960000 + i) for i in range(100)]


class _Tally:
    """Sums what the two public solvers report while installed, patched
    wherever an ``sdpcolor`` module bound them: the colouring solver's
    ``counts``, of its result or its ``InfeasibleError``, and the
    independence solver's ``iterations``."""

    def __init__(self):
        self.counts = dict.fromkeys(vecsdp.PHASES + ("fallbacks",), 0)
        self.iterations = 0

    def __enter__(self):
        color, indset = vecsdp.solve_vector_coloring, vecsdp.solve_indset_sdp

        def counted_color(*args, **kwargs):
            try:
                vc = color(*args, **kwargs)
            except InfeasibleError as exc:
                self._add(exc.counts)
                raise
            self._add(vc.counts)
            return vc

        def counted_indset(*args, **kwargs):
            sol = indset(*args, **kwargs)
            self.iterations += sol.iterations
            return sol

        wrapped = {color: counted_color, indset: counted_indset}
        self.bound = [(module, name, value)
                      for key, module in list(sys.modules.items())
                      if key == "sdpcolor" or key.startswith("sdpcolor.")
                      for name, value in vars(module).items()
                      if any(value is real for real in wrapped)]
        for module, name, value in self.bound:
            setattr(module, name, wrapped[value])
        return self

    def __exit__(self, *exc):
        for module, name, value in self.bound:
            setattr(module, name, value)

    def _add(self, counts):
        for key, used in counts.items():
            self.counts[key] += used


def _finish(part, tally, t0):
    phases = {phase: tally.counts[phase] for phase in vecsdp.PHASES}
    part["descent_iterations"] = dict(phases, total=sum(phases.values()))
    part["fallbacks"] = tally.counts["fallbacks"]
    part["seconds"] = round(time.perf_counter() - t0, 1)
    return part


def run():
    out = {}
    digest = hashlib.sha256()
    cases = sweep_cases()
    parts = [("grid", grid_cases())] + [
        (name, [(n, k, p, s, s) for tag, n, k, p, s in cases if tag == name])
        for name in ("kms", "combined", "stall")]
    parts.append(("k3", [(n, 3, p, s, s) for n, p, s in k3_cases()]))
    for name, mine in parts:
        t0 = time.perf_counter()
        colors = []
        own = hashlib.sha256() if name in ("kms", "k3") else digest
        with _Tally() as tally:
            for n, k, p, s, seed in mine:
                g = planted_k_colorable(n, k, p, seed=s).graph
                if name == "kms":
                    try:
                        coloring = kms_color(g, k, seed=seed, trials=16)
                    except InfeasibleError:
                        coloring = None
                else:
                    res = combined_color(g, k, CombinedConfig(seed=seed, trials=16))
                    coloring = res.coloring
                own.update(json.dumps(
                    None if coloring is None
                    else list(coloring.assignment)).encode() + b"\n")
                if coloring is not None and not verify_coloring(g, coloring):
                    raise AssertionError(f"improper colouring of {(n, k, p, s)}")
                colors.append(None if coloring is None else coloring.colors_used)
        done = [(case[0], c) for case, c in zip(mine, colors) if c is not None]
        part = {"runs": len(mine), "colors": sum(c for _, c in done),
                "failures": len(mine) - len(done)}
        if name == "grid":
            part["fitted_exponent"] = round(fit_exponent(*zip(*done)), 3) + 0.0
        if own is not digest:
            part["colorings_sha256"] = own.hexdigest()
        out[name] = _finish(part, tally, t0)

    t0 = time.perf_counter()
    sparse = {"runs": 0, "failures": 0}
    with _Tally() as tally:
        for n, deg, s in sparse_cases():
            g = planted_k_colorable(n, 3, deg / (2 * n / 3), seed=s).graph
            sparse["runs"] += 1
            try:
                vecsdp.solve_vector_coloring(g, 3.0, seed=s)
            except InfeasibleError:
                sparse["failures"] += 1
    out["sparse_k3"] = _finish(sparse, tally, t0)

    t0 = time.perf_counter()
    sets = hashlib.sha256()
    size = 0
    with _Tally() as tally:
        for n, s in indset_cases():
            chosen = sorted(ak_independent_set(
                planted_k_colorable(n, 3, 0.3, seed=s).graph, 3.0, seed=s))
            size += len(chosen)
            sets.update(json.dumps(chosen).encode() + b"\n")
    out["indset"] = {"runs": len(indset_cases()), "size": size,
                     "sets_sha256": sets.hexdigest(),
                     "iterations": tally.iterations,
                     "seconds": round(time.perf_counter() - t0, 1)}
    out["colorings_sha256"] = digest.hexdigest()
    return out


if __name__ == "__main__":
    print(json.dumps(run()))
