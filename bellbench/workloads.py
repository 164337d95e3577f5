"""The four workloads: inputs made from the seed, the fixed job list, and
each job's check against a reference that shares no code with its route.

A job's ``run`` does the measured work and returns its raw outcome; its
``check`` returns OK, KNOWN_VIOLATION or a failure reason.  ``jobs(tracer)``
builds the same list with the workload's own callables wrapped in spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np

from bellsim import correlators, lhv, linalg, observables, optimize, states
from bellsim.observables import PairingScheme

from bellbench import references as ref
from bellbench.layers import traced_evaluator

OK = "ok"
# A documented CLI exit-code defect reproduced exactly (exit 1 with a
# traceback where a usage error should exit 2).  Counted apart from failures.
KNOWN_VIOLATION = "known exit-code violation"


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    run: object
    check: object


def within(value: float, expected: float, tol: float) -> str:
    err = abs(float(value) - float(expected))
    if not err <= tol:
        return f"got {value!r}, expected {expected!r} within {tol:.1e} (off by {err:.3e})"
    return OK


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# optimize-sweep
# ---------------------------------------------------------------------------

class OptimizeSweep:
    """maximize_violation over seven scenarios; references are exact maxima."""

    name = "optimize-sweep"
    rss_scope = "self"
    restarts = 8
    tol = 1e-8

    def __init__(self, seed: int):
        self.seed = seed
        horodecki = ref.horodecki_chsh_max
        self.cases = [
            ("gisin-3", optimize.make_scenario("gisin", n=3),
             horodecki(states.gisin_family_state(3).amplitudes)),
            ("gisin-1000", optimize.make_scenario("gisin", n=1000),
             horodecki(states.gisin_family_state(1000).amplitudes)),
            ("chsh-polar", optimize.make_scenario("chsh-polar"),
             horodecki(states.bell_state(0).amplitudes)),
            ("spin-1.5", optimize.make_scenario("spin", j=1.5), ref.spin_chsh_max(1.5)),
            ("spin-2", optimize.make_scenario("spin", j=2), ref.spin_chsh_max(2)),
            ("mermin3", optimize.make_scenario("mermin3"), ref.MERMIN3_MAX),
            ("mermin4", optimize.make_scenario("mermin4"), ref.MERMIN4_MAX),
        ]

    def jobs(self, tracer=None):
        out = []
        for name, scenario, expected in self.cases:
            if tracer is not None:
                scenario = dataclasses.replace(
                    scenario, evaluator=traced_evaluator(tracer, scenario.evaluator))
            out.append(Job(name, self._runner(scenario), self._checker(expected)))
        return out

    def _runner(self, scenario):
        return lambda: optimize.maximize_violation(scenario, restarts=self.restarts,
                                                   seed=self.seed)

    def _checker(self, expected):
        return lambda result: within(result.best_value, expected, self.tol)


# ---------------------------------------------------------------------------
# oracle-dense
# ---------------------------------------------------------------------------

def _dense_value(psi, settings, scheme, build):
    obs = [observables.phase_flip_observable(s, scheme) for s in settings]
    return linalg.expectation(getattr(observables, build)(*obs), psi).real


class OracleDense:
    """The dense matrix route on seeded angles; references are closed forms."""

    name = "oracle-dense"
    rss_scope = "self"
    cutoffs = (20, 40, 60)
    spin_j = 2.5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def angles(k):
            return tuple(rng.uniform(0.0, 2.0 * np.pi, k).tolist())

        self.cases = []  # (name, state builder, args, settings, scheme, operator, reference)
        for cutoff in self.cutoffs:
            eta, sigma = rng.uniform(0.2, 1.0, 2).tolist()
            phi, a = float(rng.uniform(0.0, 2.0 * np.pi)), angles(4)
            self.cases.append((
                f"coherent-{cutoff}", "entangled_coherent", (eta, sigma, phi, cutoff), a,
                PairingScheme.even_odd(cutoff), "chsh_operator",
                float(correlators.chsh_coherent(eta, sigma, phi, *a))))
            lam, a = float(rng.uniform(0.1, 0.45)), angles(4)
            self.cases.append((
                f"squeezed-{cutoff}", "squeezed_state", (lam, cutoff), a,
                PairingScheme.even_odd(cutoff), "chsh_operator",
                float(correlators.chsh_squeezed(lam, *a))))
        scheme = PairingScheme.spin_reflection(self.spin_j)
        phases = rng.uniform(0.0, 2.0 * np.pi, (4, len(scheme.pairs)))
        self.cases.append((
            f"spin-{self.spin_j:g}", "spin_singlet", (self.spin_j,), tuple(phases), scheme,
            "chsh_operator", float(correlators.chsh_spin_j(self.spin_j, *phases))))
        a = angles(6)
        # the matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
        self.cases.append(("ghz-mermin3", "ghz_state", (3,), a, PairingScheme.qubit(),
                           "mermin3_operator", -float(correlators.mermin3_ghz(*a))))
        a = angles(8)
        self.cases.append(("ghz-mermin4", "ghz_state", (4,), a, PairingScheme.qubit(),
                           "mermin4_operator", float(correlators.mermin4_ghz(*a))))

    def jobs(self, tracer=None):
        return [Job(name, self._runner(builder, args, settings, scheme, build),
                    self._checker(expected))
                for name, builder, args, settings, scheme, build, expected in self.cases]

    @staticmethod
    def _runner(builder, args, settings, scheme, build):
        return lambda: _dense_value(getattr(states, builder)(*args), settings, scheme, build)

    @staticmethod
    def _checker(expected):
        return lambda value: within(value, expected, linalg.ATOL_ORACLE)


# ---------------------------------------------------------------------------
# lhv-montecarlo
# ---------------------------------------------------------------------------

def _sign_a(setting, lam):
    return np.where(lam @ np.asarray(setting, dtype=float) >= 0.0, 1, -1)


def _sign_b(setting, lam):
    return -_sign_a(setting, lam)


GENERIC_MODEL = "bench-sign-generic"


class LhvMonteCarlo:
    """chsh_lhv and estimate_E on the kernel path (SIGN_MODEL) and the generic
    path (the same responses registered without a kernel)."""

    name = "lhv-montecarlo"
    rss_scope = "self"
    samples = 1_000_000
    quadruples = 3
    sigmas = 6.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        lhv.register_model(lhv.LhvModel(name=GENERIC_MODEL, sample=lhv.uniform_sphere,
                                        response_a=_sign_a, response_b=_sign_b))
        self.cases = []
        for _ in range(self.quadruples):
            vecs = tuple(_unit(rng) for _ in range(4))
            self.cases.append((vecs, int(rng.integers(2 ** 31)),
                               ref.sign_model_chsh(*vecs), ref.sign_model_E(vecs[0], vecs[2])))

    def jobs(self, tracer=None):
        generic = lhv.get_model(GENERIC_MODEL)
        if tracer is not None:
            generic = dataclasses.replace(
                generic, sample=tracer.wrap("lhv.sample", generic.sample),
                response_a=tracer.wrap("lhv.response", generic.response_a),
                response_b=tracer.wrap("lhv.response", generic.response_b))
        out = []
        for q, (vecs, mc_seed, chsh_ref, e_ref) in enumerate(self.cases):
            for path, model in (("kernel", lhv.SIGN_MODEL), ("generic", generic)):
                out.append(Job(f"chsh-{path}-{q}", self._chsh(model, vecs, mc_seed),
                               self._check_chsh(chsh_ref)))
                out.append(Job(f"E-{path}-{q}", self._e(model, vecs, mc_seed),
                               self._check_e(e_ref)))
        return out

    def _chsh(self, model, vecs, mc_seed):
        return lambda: lhv.chsh_lhv(model, *vecs, n=self.samples, seed=mc_seed)

    def _e(self, model, vecs, mc_seed):
        return lambda: lhv.estimate_E(model, vecs[0], vecs[2], n=self.samples, seed=mc_seed)

    def _tol(self, est):
        return max(self.sigmas * est.std_error, 1e-12)

    def _check_chsh(self, expected):
        def check(est):
            if est.dichotomy_failures:
                return f"{est.dichotomy_failures} samples off {{-2, +2}}"
            if abs(est.mean) > 2.0:
                return f"mean {est.mean} breaks the classical bound 2"
            return within(est.mean, expected, self._tol(est))
        return check

    def _check_e(self, expected):
        return lambda est: within(est.mean, expected, self._tol(est))


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _report(proc):
    """(report, None) for a clean exit 0 with JSON on stdout, else (None, reason)."""
    if "Traceback" in proc.stderr:
        return None, f"traceback (exit {proc.returncode})"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError:
        return None, f"stdout is not JSON: {proc.stdout[:200]!r}"


def _check_value(expected, absolute=False):
    def check(proc):
        report, reason = _report(proc)
        if reason:
            return reason
        value = abs(report["value"]) if absolute else report["value"]
        return within(value, expected, linalg.ATOL_ORACLE)
    return check


def _check_lhv(expected, sigmas):
    def check(proc):
        report, reason = _report(proc)
        if reason:
            return reason
        return within(report["value"], expected, max(sigmas * report["std_error"], 1e-9))
    return check


def _check_usage(proc):
    if proc.returncode == 2 and "Traceback" not in proc.stderr:
        return OK
    return f"expected usage error exit 2 without traceback, got exit {proc.returncode}"


def _check_offender(proc):
    tb = "Traceback" in proc.stderr
    if proc.returncode == 2 and not tb:
        return OK
    if proc.returncode == 1 and tb:
        return KNOWN_VIOLATION
    return f"exit {proc.returncode}{' with traceback' if tb else ''}"


# Inputs that exit 1 with a traceback instead of a usage error (exit 2).
KNOWN_OFFENDERS = (
    ("chsh", "--optimize", "--restarts", "0"),
    ("lhv", "--samples", "0"),
    ("coherent", "--oracle", "--cutoff", "3"),
    ("chsh", "--precision", "-2"),
)


class CliCold:
    """Fresh ``python -m bellsim.cli`` processes, one at a time."""

    name = "cli-cold"
    rss_scope = "children"
    lhv_samples = 100_000
    timeout_s = 60

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def angles(k=4):
            return tuple(rng.uniform(0.0, 2.0 * np.pi, k).tolist())

        json_out = ("--format", "json", "--precision", "12")
        a1, a2 = angles(), angles()
        j = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0]))
        lam, a3 = float(rng.uniform(0.2, 0.8)), angles()
        eta, sigma = rng.uniform(0.2, 1.0, 2).tolist()
        phi, a4 = float(rng.uniform(0.0, 2.0 * np.pi)), angles()
        coherent = ref.bipartite_chsh(ref.entangled_coherent_matrix(eta, sigma, phi, 40), a4)
        coherent_args = ("coherent", "--eta", repr(eta), "--sigma", repr(sigma),
                         "--phi", repr(phi), f"--angles={_csv(a4)}")
        vecs = [_unit(rng) for _ in range(4)]
        lhv_seed = int(rng.integers(2 ** 31))
        self.cases = [
            ("chsh", ("chsh", f"--angles={_csv(a1)}") + json_out,
             _check_value(ref.bipartite_chsh(ref.bell_phi_plus(), a1))),
            ("chsh-oracle", ("chsh", "--oracle", f"--angles={_csv(a2)}") + json_out,
             _check_value(ref.bipartite_chsh(ref.bell_phi_plus(), a2))),
            ("mermin3-oracle", ("mermin", "--parties", "3", "--oracle") + json_out,
             _check_value(ref.MERMIN3_MAX, absolute=True)),
            ("mermin4-oracle", ("mermin", "--parties", "4", "--oracle") + json_out,
             _check_value(ref.MERMIN4_MAX, absolute=True)),
            ("spin", ("spin", "--j", repr(j)) + json_out,
             _check_value(ref.spin_chsh_max(j), absolute=True)),
            ("squeezed", ("squeezed", "--lambda", repr(lam), f"--angles={_csv(a3)}") + json_out,
             _check_value(ref.bipartite_chsh(ref.squeezed_matrix(lam, 100), a3))),
            ("coherent", coherent_args + json_out, _check_value(coherent)),
            ("coherent-oracle", coherent_args + ("--oracle",) + json_out, _check_value(coherent)),
            ("lhv", ("lhv", "--samples", str(self.lhv_samples), "--seed", str(lhv_seed),
                     "--vectors=" + ";".join(_csv(v) for v in vecs)) + json_out,
             _check_lhv(ref.sign_model_chsh(*vecs), LhvMonteCarlo.sigmas)),
            ("usage-angles", ("chsh", f"--angles={_csv(angles(3))}"), _check_usage),
            ("usage-spin", ("spin", "--j", repr(int(rng.integers(1, 4)) + 0.3)), _check_usage),
            ("usage-lambda", ("squeezed", "--lambda", repr(1.0 + float(rng.uniform(0.1, 1.0)))),
             _check_usage),
            ("usage-parties", ("mermin", "--parties", str(int(rng.choice([2, 5, 6])))),
             _check_usage),
            ("usage-command", ("no-such-command",), _check_usage),
        ] + [("offender-" + "-".join(argv).replace("--", ""), argv, _check_offender)
             for argv in KNOWN_OFFENDERS]

    def jobs(self, tracer=None):
        out = []
        for name, argv, check in self.cases:
            run = self._runner(argv)
            if tracer is not None:
                run = tracer.wrap("cli.process", run)
            out.append(Job(name, run, check))
        return out

    def _runner(self, argv):
        cmd = [sys.executable, "-m", "bellsim.cli", *argv]
        return lambda: subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=self.timeout_s)

    def main_seconds(self, clock) -> float:
        """Wall time of in-process ``bellsim.cli.main`` over the same argv list.

        Output is discarded.  Usage errors end in SystemExit and the known
        offenders raise today; either only ends its own call.
        """
        from bellsim import cli

        total = 0.0
        for _, argv, _ in self.cases:
            sink = io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main(list(argv))
                except (SystemExit, Exception):  # noqa: BLE001 - see docstring
                    pass
            total += clock() - start
        return total


WORKLOADS = {w.name: w for w in (OptimizeSweep, OracleDense, LhvMonteCarlo, CliCold)}
