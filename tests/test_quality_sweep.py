"""The case lists of tools/quality_sweep.py, checked without running them."""

import importlib.util
import os

import pytest

from test_combined import STALL_CASES

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "quality_sweep.py")


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("quality_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quality_sweep_case_lists(sweep):
    assert len(sweep.grid_cases()) == 20
    cases = sweep.sweep_cases()
    assert len(cases) == 361
    assert [sum(c[0] == part for c in cases)
            for part in ("kms", "combined", "stall")] == [300, 54, len(STALL_CASES)]
    assert [c[1:] for c in cases if c[0] == "stall"] == STALL_CASES
    assert len(sweep.sparse_cases()) == 54
    indset = sweep.indset_cases()
    assert len(indset) == 100
    assert [n for n, _ in indset[:4]] == [100, 150, 100, 150]
    assert [s for _, s in indset] == list(range(960000, 960100))
