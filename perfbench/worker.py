"""One workload process: imports disspec, runs jobs, checks them.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads pinned
to 1, in one of two modes.

``--mode setup`` runs the workload's tiny job three times and exits: the
first run carries the import, lazy-import and first-call work, and its end
time (CLOCK_MONOTONIC, comparable with the parent's spawn time) and the two
warm runs let the parent derive set-up time.

``--mode jobs`` runs full jobs back to back until about ``--seconds`` have
been spent in them; the first is a warm-up and not a sample.  Untraced, each
job is sampled by ``calibrate.Sampler`` and reports its normalized time as
well as its wall time.  With ``--trace 1`` the warm jobs alternate untraced
and traced, without calibration samples, so one process yields both medians,
and their difference is the tracing overhead.

The last line of standard output is one JSON object with the job times,
failures, per-job traced metrics and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: warm runs of the tiny set-up probe after its first run
PROBE_REPEATS = 2


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_disspec():
    sys.path.insert(0, str(SRC))
    import disspec
    if Path(disspec.__file__).resolve().parent != SRC / "disspec":
        raise RuntimeError(f"disspec imported from {disspec.__file__}, not from {SRC}")
    return disspec


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def execute(work, job_dir: Path, ref, tracer=None, sampler=None) -> dict:
    """Run one job (timed), then check its outputs (untimed).

    Returns {"ok", "seconds", "end", "problems", "outputs", "bytes", "spans",
    "samples"}; "end" is the job's end on CLOCK_MONOTONIC.  With a sampler,
    "seconds" excludes the time of the calibration kernel and "samples" holds
    the kernel times.
    """
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    result = {"ok": False, "seconds": None, "end": None, "problems": [], "outputs": None,
              "bytes": 0, "spans": None, "samples": None}
    try:
        if tracer is not None:
            tracer.install()
            tracer.start_job()
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        try:
            raw = work.run(job_dir)
        finally:
            seconds = time.perf_counter() - t0
            result["end"] = _monotonic()
            if sampler is not None:
                spent, result["samples"] = sampler.stop()
                seconds -= spent
            if tracer is not None:
                result["spans"] = tracer.end_job()
                tracer.uninstall()
        result["seconds"] = seconds
        out = work.outputs(raw, job_dir)
        result["outputs"] = out
        result["bytes"] = _dir_bytes(job_dir)
        result["problems"] = workloads.verify(work, out, ref)
    except Exception:
        result["problems"].append(traceback.format_exc(limit=4))
    result["ok"] = not result["problems"]
    shutil.rmtree(job_dir, ignore_errors=True)
    return result


def setup_mode(args) -> dict:
    """Imports, then the tiny job three times: the parent's set-up probe."""
    import_disspec()
    # the tiny job takes every call and route of the full job, so its first
    # run pays imports, lazy imports and first-call work, and its short warm
    # runs keep the per-job jitter small in the subtraction
    probe = workloads.build(args.workload, args.seed, tiny=True)
    probes = [execute(probe, args.job_dir, ref=None) for _ in range(1 + PROBE_REPEATS)]
    failures = [f for res in probes if not res["ok"] for f in res["problems"]]
    return {
        "first_job_done": probes[0]["end"],
        "probe_warm_s": [p["seconds"] for p in probes[1:] if p["ok"]],
        "attempted": len(probes),
        "failed": sum(not res["ok"] for res in probes),
        "failures": failures[:5],
    }


def jobs_mode(args) -> dict:
    """Full jobs back to back for about ``--seconds``; the first is a warm-up."""
    disspec = import_disspec()
    import numpy as np
    import tracer as tracing

    work = workloads.build(args.workload, args.seed)
    ref = workloads.load_reference(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else calibrate.Sampler()
    warm, normalized, traced, failures, per_job, span_log = [], [], [], [], [], []
    attempted = failed = 0
    outputs = {}
    spent = last = 0.0

    def more() -> bool:
        # start another job while it is expected to end within half a job of
        # the time slice, so a run's measured time stays close to --seconds
        if spent + 0.5 * last < args.seconds:
            return True
        # a run reports at least one untraced and, traced, one traced job
        return not failed and (not warm or (tracer is not None and not traced))

    while more():
        # the first full-size job of a process pages in its arrays: it is
        # checked and counted against the slice, but it is not a sample
        warm_up = attempted == 0
        use_tracer = tracer if len(warm) > len(traced) and not warm_up else None
        res = execute(work, args.job_dir, ref, use_tracer,
                      sampler if use_tracer is None else None)
        attempted += 1
        if res["seconds"] is None:
            # the job raised before finishing: it would raise again
            failed += 1
            failures.extend(res["problems"])
            break
        spent += res["seconds"]
        last = res["seconds"]
        if not res["ok"]:
            failed += 1
            failures.extend(res["problems"])
            continue
        outputs = res["outputs"]
        if warm_up:
            continue
        if use_tracer is None:
            warm.append(res["seconds"])
            if res["samples"]:
                normalized.append(res["seconds"] * calibrate.speed_factor(res["samples"]))
        else:
            m = tracing.job_metrics(res["spans"])
            m["artifacts.bytes_written"] = float(res["bytes"])
            per_job.append(m)
            traced.append(res["seconds"])
            span_log.append(res["spans"])

    if args.spans_out is not None and span_log:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans_out, "w") as fh:
            for j, job in enumerate(span_log):
                for rec in job:
                    fh.write(json.dumps([j] + rec) + "\n")

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    import mpmath
    return {
        "warm_s": warm,
        "normalized_s": normalized,
        "traced_s": traced,
        "per_job": per_job,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "digest": workloads.digest(outputs) if outputs else None,
        "inputs": work.inputs(),
        "env": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "disspec": disspec.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "jobs"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--job-dir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)
    result = setup_mode(args) if args.mode == "setup" else jobs_mode(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
