"""The benchmark's jobs still give the recorded answers, at every variant.

Each workload of perfbench/workloads.py is built at each of its
``N_VARIANTS`` input variants (seeds 0..7), run once in a temporary
directory, read back and verified: the paper's claims plus every referenced
output against perfbench/reference.json (rtol 1e-6).  A speedup that
quietly changes an answer fails here, not only in the benchmark.  The
benchmark files are only read.

Each benchmark set-up process runs a workload's *tiny* job first, so the
tiny jobs of every workload and variant are run here too and must satisfy
the paper's claims (they have no recorded reference values).  A traced
benchmark run wraps disspec's functions by name (perfbench/tracer.py), so
the tiny job of each workload also runs under that tracer here: a renamed
or re-bound function fails here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


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


@pytest.mark.parametrize("name", ["decay", "packets", "certify"])
def test_traced_tiny_job_keeps_the_claims(workloads, name, tmp_path):
    tracing = load("tracer")
    tracer = tracing.Tracer()
    work = workloads.build(name, 0, tiny=True)
    tracer.install()
    try:
        tracer.start_job()
        raw = work.run(tmp_path)
        spans = tracer.end_job()
    finally:
        tracer.uninstall()
    assert work.claims(work.outputs(raw, tmp_path)) == []
    tracing.job_metrics(spans)
    if name == "certify":
        names = {span[0] for span in spans}
        assert {"propagator.SymbolPropagator.operator_norms", "artifacts.write_csv"} <= names
