import json
import os
import subprocess
import sys

import pytest

from sdpcolor.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    dump_json,
    main,
    parse_range,
)
from sdpcolor.graph import (
    Coloring,
    verify_coloring,
    verify_independent_set,
    write_dimacs,
)
from sdpcolor.testkit import (cycle_graph, fit_exponent, planted_k_colorable,
                              save_fixture)
import math


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def test_parse_range():
    assert parse_range("0.5:1.5:0.5") == [0.5, 1.0, 1.5]
    assert parse_range("pi/6,pi/4") == [math.pi / 6, math.pi / 4]
    assert parse_range("1.25") == [1.25]


def test_dump_json_refuses_nonfinite_numbers():
    with pytest.raises(ValueError):
        dump_json({"alpha": math.inf})


def test_color_planted_small(tmp_path):
    out = tmp_path / "res.json"
    code = run(["color", "--gen", "planted:n=40,k=4,p=0.4,seed=1",
                "--k", "4", "--trials", "8", "--seed", "2",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["schema"] == 2
    assert payload["colors_used"] >= 4
    inst = planted_k_colorable(40, 4, 0.4, seed=1)
    assert verify_coloring(inst.graph, Coloring(tuple(payload["coloring"])))
    # Metadata side-channel exists and the result itself has no timestamp.
    assert os.path.exists(str(out) + ".meta.json")
    assert "written" not in payload


def test_color_k222_exact(tmp_path):
    out = tmp_path / "res.json"
    code = run(["color", "--gen", "planted:n=6,k=3,p=1,seed=0", "--k", "3",
                "--out", str(out)])
    assert code == EXIT_OK
    assert read_json(out)["colors_used"] == 3


def test_color_large_k_exits_0(tmp_path):
    # alpha_k(2500) once recursed past the interpreter's limit: exit 2.
    out = tmp_path / "res.json"
    code = run(["color", "--gen", "planted:n=30,k=3,p=0.3,seed=0",
                "--k", "2500", "--out", str(out)])
    assert code == EXIT_OK
    assert read_json(out)["k"] == 2500


def test_color_missing_input_is_usage_error(tmp_path):
    code = run(["color", "--input", str(tmp_path / "missing.col"), "--k", "3"])
    assert code == EXIT_USAGE


def test_color_failure_exit_code(tmp_path):
    out = tmp_path / "res.json"
    code = run(["color", "--gen", "gnp:n=9,p=1.0,seed=0", "--k", "2",
                "--out", str(out)])
    assert code == EXIT_FAILURE
    assert read_json(out)["coloring"] is None


def test_indset_and_verify_round_trip(tmp_path):
    out = tmp_path / "set.json"
    code = run(["indset", "--gen", "planted:n=60,k=3,p=0.4,seed=2",
                "--alpha", "3", "--trials", "8", "--seed", "1",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    inst = planted_k_colorable(60, 3, 0.4, seed=2)
    assert verify_independent_set(inst.graph, set(payload["members"]))
    assert payload["size"] == len(payload["members"])

    col_file = tmp_path / "g"
    save_fixture(inst, str(col_file))
    code = run(["verify", "--input", str(col_file) + ".col",
                "--result", str(out)])
    assert code == EXIT_OK
    # Corrupt the set and the verifier must reject it.
    payload["members"] = payload["members"] + [
        next(v for v in range(60) if v not in payload["members"])]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    bad_codes = {run(["verify", "--input", str(col_file) + ".col",
                      "--result", str(bad)])}
    # Adding an arbitrary vertex may keep independence; force a failure with
    # a known dependent pair instead.
    u, v = inst.graph.edges[0]
    payload["members"] = [u, v]
    bad.write_text(json.dumps(payload))
    bad_codes.add(run(["verify", "--input", str(col_file) + ".col",
                       "--result", str(bad)]))
    assert EXIT_FAILURE in bad_codes


def test_verify_refuses_negative_member(tmp_path, capsys):
    graph_file = tmp_path / "c5.col"
    write_dimacs(cycle_graph(5), str(graph_file))
    result = tmp_path / "set.json"
    result.write_text(json.dumps({"members": [-1, 1]}))
    code = run(["verify", "--input", str(graph_file), "--result", str(result)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().out == "independent-set: INVALID\n"


def test_analyze_csv_sandwich(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["analyze", "--beta", "pi/6", "--c", "0.5:3:0.25",
                "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,c,exact,mc,se,lower,upper_claim,upper_general"
    assert len(lines) == 1 + 11
    for line in lines[1:]:
        fields = line.split(",")
        exact, lower, upper = float(fields[2]), float(fields[5]), float(fields[6])
        assert lower <= exact + 1e-10
        assert exact <= upper + 1e-10


def test_bench_fitted_exponent(tmp_path):
    out = tmp_path / "bench.json"
    code = run(["bench", "--algo", "indset", "--k", "3", "--p", "0.4",
                "--sizes", "30,60", "--seeds", "2", "--trials", "8",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["fitted_exponent"] is not None
    assert len(payload["cells"]) == 4


def test_bench_records_a_failed_cell_and_carries_on(tmp_path, capsys):
    # Planted k=3, n=60, seed 1 stalls the solver at a residual just above
    # eps: that cell is recorded as failed, every other cell still runs, the
    # fit uses the verified cells only, and the run exits 2.
    out = tmp_path / "bench.json"
    argv = ["bench", "--algo", "kms", "--k", "3", "--p", "0.15",
            "--seeds", "2", "--out", str(out)]
    assert run(argv + ["--sizes", "60"]) == EXIT_FAILURE
    cells = read_json(out)["cells"]
    assert [c["failure"] for c in cells] == [None, "solver"]
    assert cells[0]["value"] >= 3 and cells[1]["value"] is None
    assert "1 of 2 cells failed" in capsys.readouterr().err

    assert run(argv + ["--sizes", "30,60"]) == EXIT_FAILURE
    payload = read_json(out)
    verified = [c for c in payload["cells"] if c["value"] is not None]
    assert len(payload["cells"]) == 4 and len(verified) == 3
    assert payload["fitted_exponent"] == pytest.approx(fit_exponent(
        [c["n"] for c in verified], [c["value"] for c in verified]))


def test_bench_combined_records_colours_and_a_failed_cell(tmp_path, capsys):
    # The same planted k=3, n=60 seeds through combined_color: seed 0 is
    # coloured with 3 colours, seed 1 stalls the solver.
    out = tmp_path / "bench.json"
    assert run(["bench", "--algo", "combined", "--k", "3", "--p", "0.15",
                "--sizes", "60", "--seeds", "2", "--out", str(out)]) == EXIT_FAILURE
    payload = read_json(out)
    assert [(c["value"], c["failure"]) for c in payload["cells"]] == [
        (3, None), (None, "solver")]
    assert payload["fitted_exponent"] is None
    assert "1 of 2 cells failed" in capsys.readouterr().err


def test_bad_generator_spec():
    assert run(["color", "--gen", "mystery:n=5", "--k", "3"]) == EXIT_USAGE
    assert run(["color", "--gen", "planted:n=5", "--k", "3"]) == EXIT_USAGE
    assert run(["indset", "--gen", "planted:n=10,k=3", "--alpha", "0.5"]) == EXIT_USAGE


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SDPCOLOR_OUTDIR", str(tmp_path))
    code = run(["analyze", "--beta", "pi/6", "--c", "1.0", "--out", "sweep.csv"])
    assert code == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()


def test_determinism_repeated_runs(tmp_path):
    args_sets = [
        ["color", "--gen", "planted:n=36,k=4,p=0.4,seed=3", "--k", "4",
         "--trials", "8", "--seed", "5"],
        ["indset", "--gen", "planted:n=40,k=3,p=0.4,seed=1", "--alpha", "3",
         "--trials", "8", "--seed", "5"],
        ["analyze", "--beta", "pi/6,pi/4", "--c", "0.5,1.0", "--mc", "20000",
         "--seed", "3"],
    ]
    for i, argv in enumerate(args_sets):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "sdpcolor", "analyze", "--beta", "pi/6",
         "--c", "1.0", "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "x.csv").exists()


GEN10 = ["--gen", "planted:n=10,k=3,seed=0"]
USAGE_ERRORS = {
    "verify-missing-result": ["verify"] + GEN10 + ["--result", "{tmp}/missing.json"],
    "verify-malformed-result": ["verify"] + GEN10 + ["--result", "{tmp}/bad.json"],
    "gen-non-numeric-p": ["color", "--gen", "planted:n=20,k=3,p=x", "--k", "3"],
    "gen-n-below-k": ["color", "--gen", "planted:n=2,k=3", "--k", "3"],
    "gen-negative-n": ["color", "--gen", "gnp:n=-1,p=0.5", "--k", "3"],
    "color-zero-trials": ["color", "--gen", "planted:n=40,k=4,seed=0",
                          "--k", "4", "--trials", "0"],
    "analyze-non-numeric-c": ["analyze", "--c", "x"],
    "bench-non-integer-size": ["bench", "--k", "4", "--sizes", "30,x"],
    # These raised a library ValueError with a traceback.
    "bench-k-below-2": ["bench", "--k", "1", "--sizes", "20"],
    "bench-p-above-1": ["bench", "--k", "4", "--p", "1.5", "--sizes", "20"],
    "bench-size-below-k": ["bench", "--k", "4", "--sizes", "2"],
    "analyze-few-mc-samples": ["analyze", "--mc", "5"],
    "analyze-zero-beta": ["analyze", "--beta", "0"],
    "analyze-negative-c": ["analyze", "--c", "-1"],
    # Used to exit 0 with no cells.
    "bench-negative-seeds": ["bench", "--k", "4", "--sizes", "20",
                             "--seeds", "-1"],
    # No --repeats flag: a run is one attempt, so any value is refused.
    "color-repeats": ["color", "--gen", "planted:n=20,k=4,seed=0",
                      "--k", "4", "--repeats", "3"],
    "bench-repeats": ["bench", "--k", "4", "--sizes", "20", "--repeats", "3"],
    "color-negative-repeats": ["color", "--gen", "planted:n=20,k=4,seed=0",
                               "--k", "4", "--repeats", "-2"],
    "bench-zero-repeats": ["bench", "--k", "4", "--sizes", "20",
                           "--repeats", "0"],
    # These raised UnicodeDecodeError, IsADirectoryError or TypeError.
    "input-non-ascii": ["color", "--input", "{tmp}/non_ascii.col", "--k", "3"],
    "input-directory": ["color", "--input", "{tmp}", "--k", "3"],
    "verify-coloring-not-list": ["verify"] + GEN10
                                + ["--result", "{tmp}/coloring_int.json"],
    "verify-members-not-list": ["verify"] + GEN10
                               + ["--result", "{tmp}/members_int.json"],
    "verify-members-not-ints": ["verify"] + GEN10
                               + ["--result", "{tmp}/members_str.json"],
    # Used to exit 2 as an inconsistent solver output.
    "indset-nan-alpha": ["indset"] + GEN10 + ["--alpha", "nan"],
    # Used to exit 0: with "alpha":Infinity, which is not JSON, or with a
    # coloring from vectors gone nan.
    "indset-inf-alpha": ["indset"] + GEN10 + ["--alpha", "inf"],
    # Used to raise ValueError from normal_tail, or (a range to inf) never
    # to end.
    "analyze-inf-c": ["analyze", "--c", "inf"],
    "analyze-inf-range-stop": ["analyze", "--c", "0:inf:1"],
    # Used to grow a list until the process was killed: 3e12 points, and a
    # step that 1e17 + 1.0 == 1e17 never takes.
    "analyze-range-too-many-points": ["analyze", "--c", "0:3:1e-12"],
    "analyze-range-step-below-resolution": ["analyze", "--c", "1e17:1e17:1"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_1(case, tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "non_ascii.col").write_bytes(b"p edge 2 1\ne 1 2\nc caf\xc3\xa9\n")
    (tmp_path / "coloring_int.json").write_text('{"coloring": 5}')
    (tmp_path / "members_int.json").write_text('{"members": 3}')
    (tmp_path / "members_str.json").write_text('{"members": ["a"]}')
    argv = [a.format(tmp=tmp_path) for a in USAGE_ERRORS[case]]
    assert run(argv) == EXIT_USAGE
