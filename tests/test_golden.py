"""Golden CLI results: the exact bytes of ``--out`` for pinned seeds.

Each case reaches a different branch of the algorithm, so a refactor that
changes any decision changes a file. The ``.meta.json`` side file holds a
timestamp and is not compared. To capture the files (only when an output
change is intended):

    PYTHONPATH=src python tests/test_golden.py

The recapture fixes one BLAS thread before numpy loads, so the files it
writes do not depend on the machine's core count. It prints each case's
exit code and whether its file is new, unchanged or changed, so a
recapture states exactly which results moved.
"""

import os
import sys

if __name__ == "__main__":
    # Fixed before numpy loads, as tools/quality_sweep.py does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = "1"

import pytest  # noqa: E402

from sdpcolor.cli import EXIT_FAILURE, EXIT_OK, main  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> (argv without --out, expected exit code)
CASES = {
    # low-degree rounding, restricted rows, exact finish
    "color-k4-n96": (["color", "--gen", "planted:n=96,k=4,p=0.3,seed=1",
                      "--k", "4", "--trials", "16", "--seed", "1"], EXIT_OK),
    # SameColor merges
    "color-k4-n130-merges": (["color", "--gen", "planted:n=130,k=4,p=0.5,seed=2",
                              "--k", "4", "--trials", "16", "--seed", "2"],
                             EXIT_OK),
    # a bipartite probe returns its larger side
    "color-k4-n100-bipartite": (["color", "--gen",
                                 "planted:n=100,k=4,p=0.8,seed=1", "--k", "4",
                                 "--trials", "16", "--seed", "1"], EXIT_OK),
    # recursive k=4 probes
    "color-k6-n90-recursive": (["color", "--gen", "planted:n=90,k=6,p=0.8,seed=5",
                                "--k", "6", "--trials", "16", "--seed", "5"],
                               EXIT_OK),
    # recursive k=4 probes of adjacent pairs colour their common
    # neighbourhoods within the cutoff and return a colour class
    "color-k6-n120-adjacent-probe": (["color", "--gen",
                                      "planted:n=120,k=6,p=0.7,seed=3", "--k", "6",
                                      "--trials", "16", "--seed", "3"], EXIT_OK),
    # not 4-colourable (its greedy clique has 23 vertices): exit 2, one
    # contradiction failure
    "color-k4-gnp60-contradiction": (["color", "--gen", "gnp:n=60,p=0.9,seed=1",
                                      "--k", "4", "--trials", "16", "--seed", "1"],
                                     EXIT_FAILURE),
    "color-k3-n120": (["color", "--gen", "planted:n=120,k=3,p=0.17,seed=3",
                       "--k", "3", "--trials", "16", "--seed", "3"], EXIT_OK),
    "color-k2-n40": (["color", "--gen", "planted:n=40,k=2,p=0.3,seed=6",
                      "--k", "2", "--seed", "6"], EXIT_OK),
    "indset-a3-n100": (["indset", "--gen", "planted:n=100,k=3,p=0.3,seed=7",
                        "--alpha", "3", "--trials", "16", "--seed", "7"],
                       EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_result_matches_golden(name, tmp_path):
    argv, want_code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--out", str(out)]) == want_code
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (argv, want_code) in sorted(CASES.items()):
        path = os.path.join(GOLDEN, f"{name}.json")
        before = _read(path)
        code = main(argv + ["--out", path])
        os.remove(path + ".meta.json")
        if code != want_code:
            sys.exit(f"{name}: exit {code}, expected {want_code}")
        after = _read(path)
        drift = ("new" if before is None
                 else "unchanged" if after == before else "changed")
        print(f"{name}: exit {code}, {drift}")
