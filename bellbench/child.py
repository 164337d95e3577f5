"""One workload in one process: set up, run the job list, check every
outcome, and print one JSON line.

Started by ``bellbench/run.py`` with ``--t0`` set to the parent's monotonic
clock just before the start, so the reported setup time covers interpreter
start, ``import bellsim`` and input generation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time

from bellbench import layers, workloads
from bellbench.trace import Tracer
from bellbench.workloads import KNOWN_VIOLATION, OK


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's time.monotonic() just before this process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)


def run_pass(jobs, tally):
    """Run each job once; return (pass wall seconds, per-job seconds, violations)."""
    clock = time.perf_counter
    times = []
    violations = 0
    start = clock()
    for job in jobs:
        t = clock()
        try:
            outcome = job.run()
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            times.append(clock() - t)
            verdict = f"raised {type(exc).__name__}: {exc}"
        else:
            times.append(clock() - t)
            verdict = job.check(outcome)
        tally.attempted += 1
        if verdict == KNOWN_VIOLATION:
            violations += 1
        elif verdict != OK:
            tally.failed += 1
            if len(tally.failures) < 20:
                tally.failures.append(f"{job.name}: {verdict}")
    return clock() - start, times, violations


def environment() -> dict:
    import numpy
    import scipy

    import bellsim

    try:
        from bellsim import _kernels
        numba = bool(getattr(_kernels, "USING_NUMBA"))
    except (ImportError, AttributeError):
        import importlib.util
        numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bellsim": getattr(bellsim, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    jobs = workload.jobs()
    result = {"setup_s": setup_s, "environment": environment()}
    if not args.trace:
        walls, job_times, violations = [], [], 0
        start = time.perf_counter()
        while True:
            wall, times, v = run_pass(jobs, tally)
            walls.append(wall)
            job_times.extend(times)
            violations += v
            if time.perf_counter() - start >= args.seconds:
                break
        who = resource.RUSAGE_SELF if workload.rss_scope == "self" else resource.RUSAGE_CHILDREN
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "job_s_p50": statistics.median(job_times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        result.update(passes=len(walls), pass_walls=walls,
                      exit_code_violations=violations)
    else:
        run_pass(jobs, tally)  # keeps first-call costs out of the overhead comparison
        tracer = Tracer()
        traced_jobs = workload.jobs(tracer)
        layers.instrument(tracer)
        try:
            with tracer.span(layers.ROOT_SPAN):
                _, _, violations = run_pass(traced_jobs, tally)
        finally:
            tracer.restore()
        untraced, _, _ = run_pass(jobs, tally)
        tracer.counters["cli.exit_code_violations"] = violations
        extras = layers.import_seconds(dict(os.environ))
        if isinstance(workload, workloads.CliCold):
            extras["cli.main_s"] = workload.main_seconds(time.perf_counter)
        metrics = layers.layer_metrics(tracer, untraced, extras)
        result.update(metrics=metrics, exit_code_violations=violations,
                      self_time_gap_s=layers.self_time_sum(metrics) - metrics["trace.wall_s"])
        if args.spans_out:
            tracer.dump(args.spans_out)
    result.update(jobs_per_pass=len(jobs), attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
