"""The benchmark's jobs still give the recorded answers, at every variant.

Each workload of perfbench/workloads.py is built at each of its
``N_VARIANTS`` input variants (seeds 0..7), run once in a temporary
directory, read back and verified: the paper's claims plus every referenced
output against perfbench/reference.json (rtol 1e-6).  A speedup that
quietly changes an answer fails here, not only in the benchmark.  The
benchmark files are only read.

Each benchmark set-up process runs a workload's *tiny* job first, so the
tiny jobs of every workload and variant are run here too and must satisfy
the paper's claims (they have no recorded reference values).
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


def check(workloads, name, seed, out_dir):
    work = workloads.build(name, seed)
    out = work.outputs(work.run(out_dir), out_dir)
    assert workloads.verify(work, out, workloads.load_reference(name, seed)) == []


@pytest.mark.parametrize("name", ["decay", "packets", "certify"])
def test_seed_0_matches_reference(workloads, name, tmp_path):
    check(workloads, name, 0, tmp_path)


@pytest.mark.parametrize("seed", range(1, 8))
@pytest.mark.parametrize("name", ["decay", "packets", "certify"])
def test_other_variants_match_reference(workloads, name, seed, tmp_path):
    assert workloads.N_VARIANTS == 8
    check(workloads, name, seed, tmp_path)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["decay", "packets", "certify"])
def test_tiny_jobs_keep_the_claims(workloads, name, seed, tmp_path):
    work = workloads.build(name, seed, tiny=True)
    out = work.outputs(work.run(tmp_path), tmp_path)
    assert work.claims(out) == []
