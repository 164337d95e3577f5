#!/usr/bin/env python3
"""Run one bellsim benchmark workload and print its metrics.

    python3 bellbench/run.py --workload optimize-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child process that
imports bellsim from ``src/``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the environment and run details.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bellbench.layers import PER_LAYER  # noqa: E402  (stdlib-only module)

WORKLOADS = ("optimize-sweep", "oracle-dense", "lhv-montecarlo", "cli-cold")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_s_p50", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
SPANS_DIR = ".bench_out"


def child_env() -> dict:
    """Environment for every child: bellsim from src/ and one BLAS thread.

    One thread is within any nproc.  On a small shared machine a second BLAS
    thread made the dense jobs slower and their times depend on whether the
    other core was free; one job at a time on one core measures the code.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, extra, timeout) -> dict:
    cmd = [sys.executable, "-m", "bellbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload child printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def setup_probe(args, env) -> float:
    return run_child(args, env, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bellsim" / "__init__.py").is_file():
        print(f"no bellsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            (ROOT / SPANS_DIR).mkdir(exist_ok=True)
            spans = f"{SPANS_DIR}/spans-{args.workload}-seed{args.seed}.json"
            child = run_child(args, env, ["--spans-out", spans], CHILD_TIMEOUT_S)
            names = PER_LAYER
        else:
            # the first start may compile bytecode; users do not pay that per run
            run_child(args, env, ["--setup-only"], PROBE_TIMEOUT_S)
            setups = [setup_probe(args, env) for _ in range(SETUP_PROBES_BEFORE)]
            child = run_child(args, env, [], CHILD_TIMEOUT_S)
            setups.append(child["setup_s"])
            # probes on both sides of the timed region sample the machine's
            # speed over the whole run, not only its start
            setups += [setup_probe(args, env) for _ in range(SETUP_PROBES_AFTER)]
            child["metrics"]["setup_s"] = statistics.median(setups)
            child["setup_samples"] = setups
            names = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": child["metrics"][name], "unit": unit} for name, unit in names}
    detail = {k: v for k, v in child.items() if k != "metrics"}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
