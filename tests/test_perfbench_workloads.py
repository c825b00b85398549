"""The benchmark's correctness check on all four workloads, in every test run.

perfbench/workloads.py is loaded from its file and only read: each
workload is built at three seeds, solved once, and its answer passed to
the workload's own reference check (for the search, a brute-force
saturation check of every witness class).
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name", ["verify-p4-n64", "verify-generic-n64", "search-p4-n6", "dnf-p4-n6"]
)
def test_verify_workload_passes_its_benchmark_check(workloads, name, seed):
    workload = workloads[name](seed)
    assert workload.check(workload.solve()) is None
