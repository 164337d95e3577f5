"""Tests of the benchmark itself: checkers, span arithmetic, layer wiring.

Run from the repository root:  PYTHONPATH=src python -m pytest bellbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bellsim import lhv, make_scenario, optimize, states
from bellsim.lhv import LhvEstimate

from bellbench import layers, references, run, workloads
from bellbench.trace import Tracer, self_times, totals
from bellbench.workloads import KNOWN_VIOLATION, OK

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _proc(returncode=0, stdout="", stderr=""):
    return subprocess.CompletedProcess([], returncode, stdout=stdout, stderr=stderr)


# ---------------------------------------------------------------------------
# checkers reject a perturbed value
# ---------------------------------------------------------------------------

def test_optimize_checker_rejects_perturbed_maximum():
    wl = workloads.OptimizeSweep(seed=0)
    for job, (_, _, expected) in zip(wl.jobs(), wl.cases):
        assert job.check(SimpleNamespace(best_value=expected)) == OK
        assert job.check(SimpleNamespace(best_value=expected - 1e-6)) != OK


def test_oracle_checker_rejects_perturbed_value():
    wl = workloads.OracleDense(seed=0)
    for job, case in zip(wl.jobs(), wl.cases):
        expected = case[-1]
        assert job.check(expected) == OK
        assert job.check(expected + 1e-6) != OK


def test_lhv_checker_rejects_perturbed_estimate():
    wl = workloads.LhvMonteCarlo(seed=0)
    jobs = wl.jobs()
    chsh_ref, e_ref = wl.cases[0][2], wl.cases[0][3]
    chsh, e = jobs[0], jobs[1]
    assert chsh.check(LhvEstimate(chsh_ref, 1e-3, 10 ** 6)) == OK
    assert chsh.check(LhvEstimate(chsh_ref + 1e-2, 1e-3, 10 ** 6)) != OK
    assert chsh.check(LhvEstimate(chsh_ref, 1e-3, 10 ** 6, dichotomy_failures=1)) != OK
    assert chsh.check(LhvEstimate(2.5, 1.0, 10 ** 6)) != OK
    assert e.check(LhvEstimate(e_ref, 1e-3, 10 ** 6)) == OK
    assert e.check(LhvEstimate(e_ref - 1e-2, 1e-3, 10 ** 6)) != OK


def test_cli_checker_accepts_real_output_and_rejects_perturbed_value():
    wl = workloads.CliCold(seed=0)
    value_jobs = [j for j in wl.jobs() if not j.name.startswith(("usage", "offender"))]
    assert value_jobs
    for job in value_jobs:
        proc = job.run()
        assert job.check(proc) == OK, job.name
        report = json.loads(proc.stdout)
        report["value"] += 1e-6 if job.name != "lhv" else 1.0
        assert job.check(_proc(stdout=json.dumps(report))) != OK, job.name
        assert job.check(_proc(1, stderr="Traceback (most recent call last):")) != OK


def test_cli_exit_code_slices():
    jobs = {j.name: j for j in workloads.CliCold(seed=0).jobs()}
    usage = [j for n, j in jobs.items() if n.startswith("usage")]
    offenders = [j for n, j in jobs.items() if n.startswith("offender")]
    assert len(offenders) == len(workloads.KNOWN_OFFENDERS) == 4
    tb = "Traceback (most recent call last):\nValueError: x"
    for job in usage:
        assert job.check(_proc(2, stderr="usage: bellsim")) == OK
        assert job.check(_proc(1, stderr=tb)) != OK
        assert job.check(_proc(0)) != OK
    for job in offenders:
        assert job.check(_proc(2, stderr="usage: bellsim")) == OK
        assert job.check(_proc(1, stderr=tb)) == KNOWN_VIOLATION
        assert job.check(_proc(2, stderr=tb)) not in (OK, KNOWN_VIOLATION)
        assert job.check(_proc(0)) not in (OK, KNOWN_VIOLATION)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_references_match_known_values():
    assert references.horodecki_chsh_max(states.bell_state(0).amplitudes) == \
        pytest.approx(2 * math.sqrt(2), abs=1e-12)
    product = np.kron([1.0, 0.0], [0.6, 0.8])
    assert references.horodecki_chsh_max(product) == pytest.approx(2.0, abs=1e-12)
    assert references.spin_chsh_max(1) == pytest.approx((2 / 3) * (1 + 2 * math.sqrt(2)))
    x, y = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    assert references.sign_model_E(x, x) == pytest.approx(-1.0)
    assert references.sign_model_E(x, y) == pytest.approx(0.0, abs=1e-15)
    angles = (0.0, np.pi / 2, -np.pi / 4, np.pi / 4)
    assert references.bipartite_chsh(references.bell_phi_plus(), angles) == \
        pytest.approx(2 * math.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_times_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    inclusive, own = totals(spans + [["b", 7.5, 8.0, 3]])
    assert inclusive["b"] == pytest.approx(1.5)
    assert own["c"] == pytest.approx(2.5)


def test_self_times_count_overlap_and_overhang_once():
    spans = [["p", 0.0, 10.0, None], ["x", 1.0, 5.0, 0], ["y", 3.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_only_inside_root_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    owner = SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    tracer.patch(owner, "f", "layer.f", on_result=lambda r: tracer.counters.update(["hits"]))
    assert owner.f(1) == 2 and tracer.spans == [] and tracer.counters["hits"] == 0
    with tracer.span("root"):
        assert owner.f(2) == 3
    tracer.restore()
    assert owner.f is original
    assert [s[0] for s in tracer.spans] == ["root", "layer.f"]
    assert tracer.spans[1][3] == 0
    assert tracer.counters["hits"] == 1


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for _, u in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_every_span_name_maps_to_a_self_time_metric():
    names = {n for n, _ in layers.PER_LAYER}
    assert set(layers.SELF_METRIC.values()) <= names
    assert set(layers.INCLUSIVE_METRIC.values()) <= names
    assert set(layers.COUNTERS) <= names


def test_traced_optimizer_fills_optimize_and_correlator_layers():
    tracer = Tracer()
    scenario = make_scenario("chsh-phase")
    traced = dataclasses.replace(
        scenario, evaluator=layers.traced_evaluator(tracer, scenario.evaluator))
    layers.instrument(tracer)
    try:
        with tracer.span(layers.ROOT_SPAN):
            result = optimize.maximize_violation(traced, restarts=2, seed=0)
    finally:
        tracer.restore()
    assert not hasattr(optimize.maximize_violation, "__wrapped__")
    m = layers.layer_metrics(tracer, 0.0, {})
    assert result.best_value == pytest.approx(2 * math.sqrt(2), abs=1e-8)
    assert m["correlators.batch_points"] == 8 ** 4
    assert m["correlators.scalar_calls"] > m["optimize.refine_evals"] > 0
    assert m["optimize.useful_restart_ratio"] == 1.0
    assert m["optimize.maximize_s"] >= m["optimize.nelder_mead_s"] > 0
    assert layers.self_time_sum(m) == pytest.approx(m["trace.wall_s"])


def test_traced_dense_and_lhv_jobs_fill_their_layers():
    tracer = Tracer()
    dense = workloads.OracleDense(seed=0)
    dense.cases = [c for c in dense.cases if c[0].startswith(("spin", "ghz-mermin3"))]
    mc = workloads.LhvMonteCarlo(seed=0)
    mc.samples = 1000
    jobs = dense.jobs(tracer) + mc.jobs(tracer)
    layers.instrument(tracer)
    try:
        with tracer.span(layers.ROOT_SPAN):
            verdicts = [job.check(job.run()) for job in jobs]
    finally:
        tracer.restore()
    assert verdicts == [OK] * len(jobs)
    m = layers.layer_metrics(tracer, 0.0, {})
    assert m["linalg.expectation_calls"] == 2
    assert m["observables.operator_bytes"] == 16 * (36 ** 2 + 8 ** 2)
    assert m["states.build_s"] > 0 and m["observables.local_s"] > 0
    assert m["lhv.samples"] == 1000 * len(mc.jobs())
    assert m["lhv.sample_s"] > 0 and m["lhv.response_s"] > 0
    assert not hasattr(lhv.chsh_lhv, "__wrapped__")


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bellbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_emits_every_per_layer_metric():
    proc = _run_bench(ROOT, "--workload", "lhv-montecarlo", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert detail["self_time_gap_s"] == pytest.approx(0.0, abs=1e-9)
    assert result["metrics"]["lhv.samples"]["value"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bellbench", tmp_path / "bellbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "cli-cold", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
