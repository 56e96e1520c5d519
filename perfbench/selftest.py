"""Self-test of the benchmark harness, at tiny workload sizes.

    python3 perfbench/selftest.py

For each workload it runs a tiny job through the same ``execute`` path the
benchmark uses and checks that

* the job passes its claims and matches a reference made from its own outputs;
* a reference value perturbed by 100 x the stated tolerance fails the job;
* run with the calibration sampler, the job still passes, carries kernel
  samples and leaves the SIGALRM handler as it was;
* traced, the self times of all spans add up to the job's wall time within
  the measured tracing cost, and every self time is non-negative.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from run import PINNED

os.environ.update(PINNED)   # before numpy is imported

import calibrate
import tracer as tracing
import workloads
from worker import ROOT, import_disspec, execute


def span_cost_ns(tracer: tracing.Tracer, n: int = 5000, repeats: int = 7) -> float:
    """Cost of one span: a wrapped call minus a plain call (best of repeats)."""
    import disspec.core_model as cm
    params = cm.SystemParams(1, 1, 0.5, 1, 1)

    def timed() -> float:
        t0 = time.perf_counter_ns()
        for _ in range(n):
            cm.build_matrices(params)
        return (time.perf_counter_ns() - t0) / n

    plain, wrapped = [], []
    for _ in range(repeats):
        plain.append(timed())
        tracer.install()
        tracer.start_job()
        wrapped.append(timed())
        tracer.end_job()
        tracer.uninstall()
    return max(min(wrapped) - min(plain), 0.0)


def main() -> int:
    import_disspec()
    tracer = tracing.Tracer()
    cost = span_cost_ns(tracer)
    print(f"span cost {cost:.0f} ns")
    problems = []
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as tmp:
        job_dir = Path(tmp) / "job"
        for name in workloads.WORKLOADS:
            work = workloads.build(name, seed=1, tiny=True)
            first = execute(work, job_dir, ref=None)
            if not first["ok"]:
                problems.append(f"{name}: tiny job failed: {first['problems']}")
                continue
            ref = workloads.referenced(first["outputs"])
            again = execute(work, job_dir, ref)
            if not again["ok"]:
                problems.append(f"{name}: rerun does not match its own outputs: "
                                f"{again['problems']}")
            key = sorted(ref)[0]
            bad_ref = {**ref, key: ref[key] * (1 + 100 * workloads.REF_RTOL)
                       + 100 * workloads.REF_ATOL}
            perturbed = execute(work, job_dir, bad_ref)
            if perturbed["ok"]:
                problems.append(f"{name}: perturbed reference {key} was not a failure")

            handler = signal.getsignal(signal.SIGALRM)
            sampled = execute(work, job_dir, ref, sampler=calibrate.Sampler())
            samples = sampled["samples"] or []
            print(f"{name}: sampled {sampled['seconds']:.3f} s, {len(samples)} kernel "
                  f"samples, normalized {sampled['seconds'] * calibrate.speed_factor(samples):.3f} s"
                  if samples else f"{name}: no kernel samples")
            if not sampled["ok"]:
                problems.append(f"{name}: sampled job failed: {sampled['problems']}")
            if not samples or not sampled["seconds"] > 0:
                problems.append(f"{name}: sampled job has no kernel samples")
            if signal.getsignal(signal.SIGALRM) is not handler:
                problems.append(f"{name}: the sampler did not restore the SIGALRM handler")

            traced = execute(work, job_dir, ref, tracer)
            if not traced["ok"]:
                problems.append(f"{name}: traced job failed: {traced['problems']}")
                continue
            job = traced["spans"]
            selfs = tracing.self_times(job)
            wall_ns = traced["seconds"] * 1e9
            slack_ns = len(job) * cost * 3 + 1e6
            metrics = tracing.job_metrics(job)
            print(f"{name}: {traced['seconds']:.3f} s, {len(job)} spans, "
                  f"self sum {sum(selfs) * 1e-9:.6f} s, harness "
                  f"{metrics['layer.harness.self_s'] * 1e3:.3f} ms, "
                  f"eigen calls {metrics['spectral.eigenvalues.calls']:g}")
            if min(selfs) < 0:
                problems.append(f"{name}: negative self time")
            if abs(sum(selfs) - wall_ns) > slack_ns:
                problems.append(f"{name}: self times sum to {sum(selfs):.0f} ns, "
                                f"job took {wall_ns:.0f} ns (slack {slack_ns:.0f})")
            if metrics["layer.harness.self_s"] * 1e9 > slack_ns:
                problems.append(f"{name}: {metrics['layer.harness.self_s']:.4f} s of the "
                                "job lies outside every disspec span")
            if metrics["spectral.eigenvalues.calls"] == 0:
                problems.append(f"{name}: no eigenvalue spans recorded")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
