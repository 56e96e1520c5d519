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
or re-bound function fails here, not only in a traced benchmark run.  Every
disspec name that perfbench/*.py imports or reads off an imported disspec
module, and every name the tracer looks up, must still exist: the benchmark
runs the parent commit's perfbench/ against the current package.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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
    if name == "decay":
        # the per-|xi| eigen solve books to the spectral layer, as a child of
        # the propagator's construction
        assert any(span[0].startswith("spectral.") and span[3] >= 0
                   and spans[span[3]][0] == "propagator.SymbolPropagator.init"
                   for span in spans)
    if name == "certify":
        names = {span[0] for span in spans}
        assert {"propagator.SymbolPropagator.operator_norms", "artifacts.write_csv"} <= names


def submodule(module, name):
    """The disspec module that ``from module import name`` binds, or None
    when it binds any other object."""
    try:
        return importlib.import_module(f"{module}.{name}").__name__
    except ImportError:
        return None


def disspec_names(tree):
    """(module, name) of every name a parsed perfbench file imports from
    disspec, and of every attribute it reads off a disspec module that it
    imported (bindings are taken file-wide)."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "disspec":
                    # `import disspec.x` binds disspec, `import disspec.x as m` binds m
                    bound = alias.asname or "disspec"
                    modules[bound] = alias.name if alias.asname else "disspec"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "disspec":
            for alias in node.names:
                names.append((node.module, alias.name))
                target = submodule(node.module, alias.name)
                if target is not None:
                    modules[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


def test_benchmark_reads_only_existing_names():
    seen = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name in disspec_names(ast.parse(path.read_text())):
            seen.append(f"{path.name}: {module}.{name}")
            resolved = (hasattr(importlib.import_module(module), name)
                        or submodule(module, name) is not None)
            assert resolved, seen[-1]
    assert "selftest.py: disspec.core_model.build_matrices" in seen
    assert "workloads.py: disspec.core_model.build_symbol" in seen
    assert "workloads.py: disspec.cli.dispatch" in seen

    tracing = load("tracer")
    for mod_name, classes in tracing.CLASS_METHODS.items():
        mod = importlib.import_module(f"disspec.{mod_name}")
        for cls_name, methods in classes.items():
            # looked up with vars(cls)[name], so inherited names do not count
            assert set(methods) <= set(vars(getattr(mod, cls_name))), (cls_name, methods)
    from disspec.lyapunov import audit_inequality
    from disspec.spectral import GapCertificate
    # the tracer binds each audit call's arguments and reads n_random, and
    # reads the grid of each gap certificate
    assert "n_random" in inspect.signature(audit_inequality).parameters
    assert "grid" in {f.name for f in dataclasses.fields(GapCertificate)}
