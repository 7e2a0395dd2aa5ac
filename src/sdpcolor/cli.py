"""Command-line front end: color, indset, verify, analyze, bench.

Results are deterministic byte-for-byte for a fixed configuration: every
random choice flows from the recorded seed, JSON keys are sorted, and no
timestamps enter result files (run metadata lives in a ``.meta.json``
side-channel next to ``--out``). Every coloring or vertex set is re-verified
immediately before serialization. The default output directory comes from
``SDPCOLOR_OUTDIR`` (falling back to the working directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import analysis
from .combined import CombinedConfig, CombinedResult, combined_color
from .graph import (
    Coloring,
    DimacsError,
    Graph,
    NotKColorableError,
    read_dimacs,
    verify_coloring,
    verify_independent_set,
)
from .indset import ak_independent_set
from .rounding import kms_color
from .testkit import fit_exponent, planted_k_colorable, random_graph

SCHEMA = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def parse_generator_spec(spec: str) -> Graph:
    """Parse "name:key=val,key=val" generator descriptions."""
    name, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise UsageError(f"malformed generator item {item!r}")
            kwargs[key.strip()] = val.strip()
    try:
        if name == "planted":
            return planted_k_colorable(
                n=int(kwargs["n"]), k=int(kwargs["k"]),
                p=float(kwargs.get("p", 0.5)),
                seed=int(kwargs.get("seed", 0))).graph
        if name == "gnp":
            return random_graph(n=int(kwargs["n"]), p=float(kwargs["p"]),
                                seed=int(kwargs.get("seed", 0)))
    except KeyError as exc:
        raise UsageError(f"{name} generator is missing {exc}") from None
    except ValueError as exc:
        raise UsageError(f"bad {name} generator spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown generator {name!r} (expected planted or gnp)")


def load_input(args) -> Graph:
    if getattr(args, "input", None):
        try:
            return read_dimacs(args.input)
        except OSError as exc:
            raise UsageError(f"cannot read input file {args.input}: "
                             f"{exc.strerror or exc}") from None
        except DimacsError as exc:
            raise UsageError(f"malformed DIMACS input: {exc}")
    spec = getattr(args, "gen", None)
    if not spec:
        raise UsageError("exactly one of --input or --gen is required")
    return parse_generator_spec(spec)


def check_solver_args(args) -> None:
    """Reject solver settings the library would refuse mid-run."""
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")


def finite(token: str) -> float:
    """float(token), refusing inf and nan: every float option parses here."""
    value = float(token)
    if not math.isfinite(value):
        raise UsageError(f"not a finite number: {token!r}")
    return value


def parse_float_token(token: str) -> float:
    """Floats with a pi/<d> convenience form ("pi/6", "pi", "0.5")."""
    token = token.strip()
    if token == "pi":
        return math.pi
    try:
        if token.startswith("pi/"):
            return math.pi / finite(token[3:])
        return finite(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a finite number: {token!r}") from None


def parse_range(token: str) -> list[float]:
    """"start:stop:step" inclusive ranges, or a comma list of values."""
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be start:stop:step, got {token!r}")
        start, stop, step = (parse_float_token(p) for p in parts)
        if step <= 0:
            raise UsageError("range step must be positive")
        out = []
        x = start
        while x <= stop + 1e-12:
            if len(out) == 10_000:  # far past any sweep; x may not move
                raise UsageError(f"range {token!r} has over 10000 points")
            out.append(round(x, 12))
            x += step
        return out
    return [parse_float_token(p) for p in token.split(",")]


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

def _outdir() -> str:
    return os.environ.get("SDPCOLOR_OUTDIR", ".")


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(_outdir(), path)


def write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    meta = {"written": time.strftime("%Y-%m-%dT%H:%M:%S"), "path": path}
    with open(path + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_combined(graph: Graph, k: int, trials: int, seed: int) -> CombinedResult:
    """``combined_color``'s result, its coloring (if any) re-verified."""
    result = combined_color(graph, k, CombinedConfig(trials=trials, seed=seed))
    if result.coloring is not None and not verify_coloring(graph, result.coloring):
        raise AssertionError("refusing to write an unverified coloring")
    return result


def _run_indset(graph: Graph, alpha: float, trials: int, seed: int) -> frozenset[int]:
    """``ak_independent_set``'s set, re-verified."""
    members = ak_independent_set(graph, alpha, trials=trials, seed=seed)
    if not verify_independent_set(graph, members):
        raise AssertionError("refusing to write an unverified set")
    return members


def cmd_color(args) -> int:
    graph = load_input(args)
    if args.k < 2:
        raise UsageError("--k must be at least 2")
    check_solver_args(args)
    result = _run_combined(graph, args.k, args.trials, args.seed)
    payload = result.to_json_dict()
    payload["schema"] = SCHEMA
    write_text(_resolve_out(args.out), dump_json(payload))
    return EXIT_OK if result.coloring is not None else EXIT_FAILURE


def cmd_indset(args) -> int:
    graph = load_input(args)
    if not args.alpha >= 1:
        raise UsageError("--alpha must be at least 1")
    check_solver_args(args)
    members = _run_indset(graph, args.alpha, args.trials, args.seed)
    payload = {
        "schema": SCHEMA,
        "n": graph.n,
        "alpha": args.alpha,
        "size": len(members),
        "members": sorted(members),
        "seed": args.seed,
    }
    write_text(_resolve_out(args.out), dump_json(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = load_input(args)
    try:
        with open(args.result, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read result file {args.result}: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError("result file holds neither a coloring nor a set")
    if payload.get("coloring") is not None:
        kind, values = "coloring", payload["coloring"]
    elif "members" in payload:
        kind, values = "independent-set", payload["members"]
    else:
        raise UsageError("result file holds neither a coloring nor a set")
    if not (isinstance(values, list) and all(type(v) is int for v in values)):
        raise UsageError(f"the result's {kind} is not a list of integers")
    if kind == "coloring":
        ok = verify_coloring(graph, Coloring(tuple(values)))
    else:
        ok = verify_independent_set(graph, set(values))
    sys.stdout.write(f"{kind}: {'valid' if ok else 'INVALID'}\n")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_analyze(args) -> int:
    betas = parse_range(args.beta)
    cs = parse_range(args.c)
    if not all(0.0 < b < 0.5 * math.pi for b in betas):
        raise UsageError("every --beta must lie in (0, pi/2)")
    if not all(c >= 0.0 for c in cs):
        raise UsageError("every --c must be nonnegative")
    if args.mc != 0 and args.mc < 1000:
        raise UsageError("--mc must be 0 or at least 1000")
    rows = analysis.sweep_rows(betas, cs, mc_samples=args.mc, seed=args.seed)
    write_text(_resolve_out(args.out), analysis.rows_to_csv(rows))
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise UsageError("--sizes must be a comma list of integers") from None
    if args.k < 2:
        raise UsageError("--k must be at least 2")
    if not 0.0 <= args.p <= 1.0:
        raise UsageError("--p must lie in [0, 1]")
    if min(sizes) < args.k:
        raise UsageError("every --sizes entry must be at least --k")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    check_solver_args(args)
    cells = []
    for n in sizes:
        for s in range(args.seeds):
            inst = planted_k_colorable(n, args.k, args.p, seed=s)
            value, failure = _bench_cell(args, inst.graph, s)
            cells.append({"n": n, "seed": s, "value": value, "failure": failure})
    verified = [c for c in cells if c["value"] is not None]
    xs = [c["n"] for c in verified]
    ys = [max(c["value"], 1) for c in verified]
    payload = {
        "schema": SCHEMA,
        "algo": args.algo,
        "k": args.k,
        "p": args.p,
        "sizes": sizes,
        "seeds": args.seeds,
        "base_seed": args.seed,
        "cells": cells,
        "fitted_exponent": fit_exponent(xs, ys) if len(set(xs)) > 1 else None,
    }
    write_text(_resolve_out(args.out), dump_json(payload))
    failed = len(cells) - len(verified)
    if failed:
        sys.stderr.write(f"failure: {failed} of {len(cells)} cells failed\n")
        return EXIT_FAILURE
    return EXIT_OK


def _bench_cell(args, graph: Graph, s: int) -> tuple[int | None, str | None]:
    """One bench cell's verified value, or None and the failure's kind
    (as in NotKColorableError) when the algorithm failed on it."""
    if args.algo == "combined":
        res = _run_combined(graph, args.k, args.trials, args.seed + s)
        if res.coloring is None:
            return None, res.failure[0]
        return res.colors_used, None
    if args.algo == "kms":
        try:
            col = kms_color(graph, args.k, trials=args.trials,
                            seed=args.seed + s)
        except NotKColorableError as exc:
            return None, exc.kind
        if not verify_coloring(graph, col):
            raise AssertionError("unverified coloring in bench")
        return col.colors_used, None
    if args.algo == "indset":
        return len(_run_indset(graph, float(args.k), args.trials, args.seed + s)), None
    raise UsageError(f"unknown algo {args.algo!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_input_args(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--input", help="DIMACS .col file")
    group.add_argument("--gen", help="generator spec name:key=val,... "
                                     "(planted:n=..,k=..,p=..,seed=.. or "
                                     "gnp:n=..,p=..,seed=..)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpcolor",
        description="approximate coloring toolkit: SDP vector colorings, "
                    "threshold rounding, independent-set extraction, and "
                    "probability-bound sweeps")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("color", help="color a graph with the combined algorithm")
    _add_input_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="result JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_color)

    p = subs.add_parser("indset", help="extract a large independent set")
    _add_input_args(p)
    p.add_argument("--alpha", type=finite, required=True)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_indset)

    p = subs.add_parser("verify", help="re-verify a result JSON against a graph")
    _add_input_args(p)
    p.add_argument("--result", required=True, help="JSON produced by color/indset")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("analyze", help="sweep the wedge-probability sandwich")
    p.add_argument("--beta", default="pi/12,pi/6,pi/4,pi/3")
    p.add_argument("--c", default="0.25:3:0.25")
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo samples per grid point (0 = skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("bench", help="scaling experiment over planted instances")
    p.add_argument("--algo", choices=("combined", "kms", "indset"),
                   default="combined")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=finite, default=0.3)
    p.add_argument("--sizes", required=True, help="comma list, e.g. 125,250,500")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--trials", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except RuntimeError as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
