"""Which public bellsim functions make up each layer, and the per-layer
metrics a traced pass yields.

Every layer is timed from outside: ``instrument`` swaps module attributes
for traced wrappers, which works because bellsim calls these functions
through their modules at call time.  The scenario evaluators and the
generic LHV model's callables are wrapped by the workloads themselves.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

from bellbench.trace import totals

PER_LAYER = (
    ("import.bellsim_s", "s"),
    ("import.scipy_optimize_s", "s"),
    ("cli.main_s", "s"),
    ("cli.process_s", "s"),
    ("cli.exit_code_violations", "count"),
    ("optimize.maximize_s", "s"),
    ("optimize.self_s", "s"),
    ("optimize.nelder_mead_s", "s"),
    ("optimize.nelder_mead_self_s", "s"),
    ("optimize.refine_evals", "count"),
    ("optimize.useful_restart_ratio", "ratio"),
    ("correlators.batch_eval_s", "s"),
    ("correlators.batch_points", "count"),
    ("correlators.scalar_eval_s", "s"),
    ("correlators.scalar_calls", "count"),
    ("states.build_s", "s"),
    ("observables.local_s", "s"),
    ("observables.operator_s", "s"),
    ("observables.operator_bytes", "bytes"),
    ("linalg.expectation_s", "s"),
    ("linalg.expectation_calls", "count"),
    ("lhv.estimate_s", "s"),
    ("lhv.self_s", "s"),
    ("lhv.kernel_s", "s"),
    ("lhv.sample_s", "s"),
    ("lhv.response_s", "s"),
    ("lhv.samples", "count"),
    ("lhv.dichotomy_failures", "count"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

ROOT_SPAN = "bench.pass"

# Span name -> metric carrying its self time.  These metrics partition the
# traced pass: they sum to trace.wall_s.
SELF_METRIC = {
    ROOT_SPAN: "harness.self_s",
    "cli.process": "cli.process_s",
    "optimize.maximize": "optimize.self_s",
    "optimize.nelder_mead": "optimize.nelder_mead_self_s",
    "correlators.batch_eval": "correlators.batch_eval_s",
    "correlators.scalar_eval": "correlators.scalar_eval_s",
    "states.build": "states.build_s",
    "observables.local": "observables.local_s",
    "observables.operator": "observables.operator_s",
    "linalg.expectation": "linalg.expectation_s",
    "lhv.estimate": "lhv.self_s",
    "lhv.kernel": "lhv.kernel_s",
    "lhv.sample": "lhv.sample_s",
    "lhv.response": "lhv.response_s",
}

# Span name -> metric carrying its inclusive time, for spans with children.
INCLUSIVE_METRIC = {
    ROOT_SPAN: "trace.wall_s",
    "optimize.maximize": "optimize.maximize_s",
    "optimize.nelder_mead": "optimize.nelder_mead_s",
    "lhv.estimate": "lhv.estimate_s",
}

COUNTERS = (
    "cli.exit_code_violations",
    "optimize.refine_evals",
    "correlators.batch_points",
    "correlators.scalar_calls",
    "observables.operator_bytes",
    "linalg.expectation_calls",
    "lhv.samples",
    "lhv.dichotomy_failures",
)

STATE_BUILDERS = ("bell_state", "gisin_family_state", "spin_singlet",
                  "entangled_coherent", "squeezed_state", "ghz_state")
OPERATOR_BUILDERS = ("chsh_operator", "mermin3_operator", "mermin4_operator")


def instrument(tracer) -> None:
    """Wrap each layer's public functions; undo with ``tracer.restore()``."""
    from bellsim import lhv, linalg, observables, optimize, states

    counters = tracer.counters
    restarts = []

    def refined(res):
        counters["optimize.refine_evals"] += int(res.nfev)
        restarts.append(-float(res.fun))

    def maximized(result):
        counters["optimize.restarts"] += len(restarts)
        counters["optimize.useful_restarts"] += sum(
            abs(v - result.best_value) <= linalg.ATOL_OPT for v in restarts)
        restarts.clear()

    def operator_built(op):
        counters["observables.operator_bytes"] += 16 * op.dim * op.dim

    def expected(_):
        counters["linalg.expectation_calls"] += 1

    def estimated(est):
        counters["lhv.samples"] += est.samples
        counters["lhv.dichotomy_failures"] += est.dichotomy_failures

    tracer.patch(optimize, "maximize_violation", "optimize.maximize", maximized)
    tracer.patch(optimize, "minimize", "optimize.nelder_mead", refined)
    for name in STATE_BUILDERS:
        tracer.patch(states, name, "states.build")
    tracer.patch(observables, "phase_flip_observable", "observables.local")
    for name in OPERATOR_BUILDERS:
        tracer.patch(observables, name, "observables.operator", operator_built)
    tracer.patch(linalg, "expectation", "linalg.expectation", expected)
    tracer.patch(lhv, "chsh_lhv", "lhv.estimate", estimated)
    tracer.patch(lhv, "estimate_E", "lhv.estimate", estimated)
    try:
        from bellsim import _kernels
    except ImportError:
        return
    for name in ("sign_chsh", "sign_products"):
        if hasattr(_kernels, name):
            tracer.patch(_kernels, name, "lhv.kernel")


def traced_evaluator(tracer, evaluator):
    """A scenario evaluator in spans: 2-D input is the scan, 1-D refinement."""

    def evaluate(points):
        if getattr(points, "ndim", 1) >= 2:
            tracer.counters["correlators.batch_points"] += points.shape[0]
            return tracer.call("correlators.batch_eval", evaluator, points)
        tracer.counters["correlators.scalar_calls"] += 1
        return tracer.call("correlators.scalar_eval", evaluator, points)

    return evaluate


def layer_metrics(tracer, untraced_wall_s: float, extras: dict) -> dict:
    """Value of every PER_LAYER metric, from a tracer that recorded one root span."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    inclusive, own = totals(tracer.spans)
    for span, seconds in own.items():
        values[SELF_METRIC[span]] += seconds
    for span, seconds in inclusive.items():
        if span in INCLUSIVE_METRIC:
            values[INCLUSIVE_METRIC[span]] += seconds
    for name in COUNTERS:
        values[name] = tracer.counters[name]
    restarts = tracer.counters["optimize.restarts"]
    values["optimize.useful_restart_ratio"] = (
        tracer.counters["optimize.useful_restarts"] / restarts if restarts else 0.0)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall_s
    values.update(extras)
    return values


def self_time_sum(values: dict) -> float:
    """Sum of the metrics that partition the traced pass by self time."""
    return sum(values[name] for name in set(SELF_METRIC.values()))


def import_seconds(env: dict) -> dict:
    """Cumulative import time of bellsim and of scipy.optimize within it,
    from ``-X importtime`` in fresh interpreters; medians of three."""
    samples = {"bellsim": [], "scipy.optimize": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bellsim"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")  # "import time: self | cumulative | name"
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {"import.bellsim_s": statistics.median(samples["bellsim"]),
            "import.scipy_optimize_s": statistics.median(samples["scipy.optimize"])}
