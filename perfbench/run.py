"""The disspec benchmark.

    python3 perfbench/run.py --workload {decay,packets,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; disspec is imported from ``src/``.
Every workload process is a fresh interpreter with BLAS/OpenMP threads
pinned to 1, and they run one after another.

Untraced, a run first starts ``SETUPS`` set-up processes; each runs the
workload's tiny job (same calls and routes, small grids) three times and
exits.  Set-up time is the end of the first tiny job, measured from the
process spawn, minus the median of the two warm tiny jobs.  Then one jobs
process runs full jobs closed-loop for the rest of the ``S`` seconds; its
first full job is a warm-up and not a sample.  Every job's outputs are
checked against the paper's claims and against ``reference.json``.

Timings are normalized for the drift of the shared host's speed (see
``calibrate.py``): each job, and each set-up process, is scaled by the speed
that a fixed calibration kernel measured during it.  The wall times are
printed beside them.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
``job_s_p50``, ``jobs_per_s``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` there is no set-up phase; the warm jobs alternate untraced and
traced, and it reports the per-layer metrics of the traced jobs (medians
over jobs, wall times), each layer's share of the traced ``job_s_p50``, and
the tracing overhead.  Lines before it list every metric by name and unit,
the sample counts, the failure ratio, the output digest and the
environment; the same report is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)   # before calibrate imports numpy

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-up processes per untraced run; set-up time is their median
SETUPS = 5
#: the jobs process gets at least this share of --seconds
MIN_JOBS_SHARE = 0.6
#: a run must end within this many seconds
RUN_BUDGET_S = 170.0
#: ROADMAP "Recent" baseline (2-core machine, params (1,1,0.5,1,1)) that the
#: traced decay run is cross-checked against; reported, never tuned toward
BASELINE = {"spectral.eigenvalues.us_per_call": 240.0,
            "propagator.SymbolPropagator.init.total_s": 1.29,
            "propagator.r_many.self_s": 0.76}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_worker(args, mode: str, index: int, deadline: float,
                 seconds: float = 0.0) -> dict:
    """One fresh workload process; returns its result and its spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--job-dir", str(OUT / "jobs" / str(index))]
    if args.trace:
        cmd += ["--spans-out", str(OUT / f"spans-{args.workload}.jsonl")]
    env = {**os.environ, **PINNED}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} process {index} ran out of the run's time budget")
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{mode} process {index} exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["spawned"] = spawned
    return result


def setup_phase(args, deadline: float) -> list[dict]:
    """SETUPS set-up processes, each with the kernel's speed around it."""
    setups = []
    for i in range(SETUPS):
        before = calibrate.probe()
        res = spawn_worker(args, "setup", i, deadline)
        after = calibrate.probe()
        if res["first_job_done"] is None or not res["probe_warm_s"]:
            raise RuntimeError(f"set-up process {i}: tiny job failed: {res['failures']}")
        res["first_done_s"] = res["first_job_done"] - res["spawned"]
        res["setup_wall_s"] = res["first_done_s"] - statistics.median(res["probe_warm_s"])
        res["setup_s"] = res["setup_wall_s"] * calibrate.speed_factor(before + after)
        setups.append(res)
    return setups


def summarize(args, setups: list[dict], jobs: dict) -> tuple[dict, dict]:
    """(metrics, report) of one run."""
    warm = jobs["warm_s"]
    attempted = jobs["attempted"] + sum(r["attempted"] for r in setups)
    failed = jobs["failed"] + sum(r["failed"] for r in setups)
    job_p50 = statistics.median(warm)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": len(setups), "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted, "warm_jobs": len(warm),
        "job_wall_s": {"p50": job_p50, "min": min(warm), "max": max(warm), "n": len(warm)},
        "digest": jobs["digest"],
        "failures": ([f for r in setups for f in r["failures"]] + jobs["failures"])[:5],
        "inputs": jobs["inputs"],
        "environment": {**jobs["env"], "nproc": os.cpu_count(),
                        "machine": platform.machine(), "git_sha": git_sha(),
                        "pinned_env": PINNED},
        "waiting_time": "not applicable: one single-threaded process, no queue or lock",
    }
    if not args.trace:
        norm = jobs["normalized_s"]
        if not norm:
            raise RuntimeError("no job carried calibration samples")
        metrics = {
            "job_s_p50": statistics.median(norm),
            "jobs_per_s": len(norm) / sum(norm),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": jobs["peak_rss_mb"],
        }
        report["job_normalized_s"] = norm
        report["job_wall_s"]["all"] = warm
        report["wall"] = {"job_s_p50": job_p50, "jobs_per_s": len(warm) / sum(warm),
                          "setup_s": statistics.median(r["setup_wall_s"] for r in setups)}
        report["first_job_from_spawn_s"] = [r["first_done_s"] for r in setups]
        report["setup_s_by_process"] = [r["setup_s"] for r in setups]
        report["setup_wall_s_by_process"] = [r["setup_wall_s"] for r in setups]
        return {k: (metrics[k], u) for k, u in units("end_to_end").items()}, report

    per_job = jobs["per_job"]
    traced = jobs["traced_s"]
    med = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    traced_p50 = statistics.median(traced)
    metrics = dict(med)
    for key in list(med):
        if key.startswith("layer."):
            layer = key.split(".")[1]
            metrics[f"share.{layer}"] = 100.0 * med[key] / traced_p50
            del metrics[key]
    metrics["trace.job_s_p50"] = traced_p50
    metrics["trace.untraced_job_s_p50"] = job_p50
    metrics["trace.overhead_s"] = traced_p50 - job_p50
    report["traced_jobs"] = len(traced)
    if args.workload == "decay":
        report["baseline_cross_check"] = {
            k: {"measured": med[k], "baseline": v, "ratio": med[k] / v}
            for k, v in BASELINE.items()}
    missing = set(units("per_layer")) ^ set(metrics)
    if missing:
        raise RuntimeError(f"traced metrics differ from BENCHMARK.json: {sorted(missing)}")
    return {k: (metrics[k], u) for k, u in units("per_layer").items()}, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="disspec benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "disspec" / "__init__.py").is_file():
        print(f"error: no disspec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    try:
        setups = [] if args.trace else setup_phase(args, deadline)
        seconds = max(args.seconds - (time.monotonic() - started),
                      MIN_JOBS_SHARE * args.seconds)
        jobs = spawn_worker(args, "jobs", SETUPS, deadline, seconds)
        if not jobs["warm_s"]:
            raise RuntimeError("the jobs process completed no warm job: "
                               + "; ".join(jobs["failures"])[:2000])
        metrics, report = summarize(args, setups, jobs)
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['warm_jobs']} warm jobs, {report['attempted']} attempted, "
          f"{report['failed']} failed, fail_ratio {report['fail_ratio']:.3g}")
    wall = report["job_wall_s"]
    print(f"# job wall time p50 {wall['p50']:.4f} min {wall['min']:.4f} "
          f"max {wall['max']:.4f} n {wall['n']} s")
    for name, value in report.get("wall", {}).items():
        print(f"# wall (not normalized) {name} = {value:.6g}")
    print(f"# digest {report['digest']}; environment "
          + json.dumps(report["environment"], sort_keys=True))
    print(f"# waiting time: {report['waiting_time']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, row in report.get("baseline_cross_check", {}).items():
        print(f"# baseline {name}: measured {row['measured']:.4g}, "
              f"ROADMAP {row['baseline']:.4g}, ratio {row['ratio']:.3f}")
    for failure in report["failures"]:
        print("# failure: " + failure.replace("\n", " | "))
    failed = report["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": report["attempted"], "failed": failed,
        "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
