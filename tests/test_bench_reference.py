"""The benchmark's jobs at seed 0 still give the recorded answers.

Each workload of perfbench/workloads.py is built, run once in a temporary
directory, read back and verified: the paper's claims plus every referenced
output against perfbench/reference.json (rtol 1e-6).  A speedup that
quietly changes an answer fails here, not only in the benchmark.  The
benchmark files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["decay", "packets", "certify"])
def test_seed_0_matches_reference(workloads, name, tmp_path):
    work = workloads.build(name, 0)
    out = work.outputs(work.run(tmp_path), tmp_path)
    assert workloads.verify(work, out, workloads.load_reference(name, 0)) == []
