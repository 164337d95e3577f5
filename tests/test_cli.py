import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bellsim
import reference_mp as ref
from bellsim import correlators, lhv, linalg, optimize
from bellsim.cli import build_parser, main, render_report
from bellsim.limits import SCENARIOS
from test_reference import BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


ANGLES = "0.3,1.2,-0.5,2.5"


@pytest.mark.parametrize("argv, scenario, params, value", [
    (["chsh"], "chsh-phase", {"bell_index": 0}, 2.82843),
    (["chsh", "--oracle"], "chsh-oracle", {"bell_index": 0}, 2.82843),
    (["chsh", "--bell-index", "2", "--angles", ANGLES, "--oracle"], "chsh-oracle",
     {"bell_index": 2}, 0.28814),
    # each Bell index on its own T literal, at its maximizing defaults
    (["chsh", "--bell-index", "2"], "chsh-phase", {"bell_index": 2}, -2.82843),
    (["chsh", "--bell-index", "3"], "chsh-phase", {"bell_index": 3}, 2.82843),
    (["chsh", "--bell-index", "2", "--optimize", "--restarts", "2"], "chsh-polar",
     {"bell_index": 2, "converged": True, "evaluations": 85, "restarts": 2, "seed": 0},
     2.82843),
    (["chsh", "--bell-index", "1", "--polar", "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2"],
     "chsh-polar", {"bell_index": 1}, -0.78797),
    (["chsh", "--polar", "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2"], "chsh-polar",
     {"bell_index": 0}, 0.53959),
    (["spin", "--j", "1.5"], "spin-1.5", {"j": 1.5}, -2.82843),
    (["coherent", "--oracle"], "coherent-oracle",
     {"cutoff": 40, "eta": 0.1, "phi": 3.14159, "sigma": 0.1}, 2.8284),
    (["squeezed", "--lambda", "0.6", "--oracle"], "squeezed-oracle",
     {"cutoff": 40, "lam": 0.6}, 2.49567),
    (["mermin", "--parties", "3", "--oracle"], "mermin3-oracle", {"parties": 3}, -4.0),
    (["coherent"], "coherent", {"eta": 0.1, "phi": 3.14159, "sigma": 0.1}, 2.8284),
    (["squeezed", "--lambda", "0.6"], "squeezed", {"lam": 0.6}, 2.49567),
    (["chsh", "--optimize", "--restarts", "2"], "chsh-polar",
     {"bell_index": 0, "converged": True, "evaluations": 85, "restarts": 2, "seed": 0},
     2.82843),
    (["spin", "--j", "2", "--optimize", "--restarts", "2"], "spin-2",
     {"converged": True, "evaluations": 125, "j": 2.0, "restarts": 2, "seed": 0}, 2.66274),
    (["mermin", "--parties", "4", "--optimize", "--restarts", "2"], "mermin4",
     {"converged": True, "evaluations": 125, "parties": 4, "restarts": 2, "seed": 0}, 5.65685),
    # spin_j_max(20): one restart of the exact ascent reaches it
    (["spin", "--j", "20", "--optimize", "--restarts", "1"], "spin-20",
     {"converged": True, "evaluations": 723, "j": 20.0, "restarts": 1, "seed": 0}, 2.80822),
    # spin_j_max(128): one restart, ascended on f alone, reaches it too
    (["spin", "--j", "128", "--optimize", "--restarts", "1"], "spin-128",
     {"converged": True, "evaluations": 4611, "j": 128.0, "restarts": 1, "seed": 0}, 2.8252),
    # the j the scenario computed, not the j as typed
    (["spin", "--j", "1.0000000001"], "spin-1", {"j": 1.0}, 2.55228),
])
def test_route_report_pinned(capsys, argv, scenario, params, value):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["scenario"], payload["params"], payload["value"]) == (scenario, params, value)


# each scenario subcommand, with the scenarios it evaluates, as the table declares them
_COMMANDS = {}
for _spec in SCENARIOS.values():
    if _spec.command:
        _COMMANDS.setdefault(_spec.command, []).append(_spec)
# the flags every scenario subcommand takes, whatever its scenario
_SHARED_FLAGS = {"-h", "--optimize", "--restarts", "--format", "--precision", "--seed", "--out"}


def _flags(command):
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in action.choices[command]._actions}


@pytest.mark.parametrize("command", _COMMANDS)
def test_scenario_subcommand_offers_the_table_flags(command):
    # build_parser writes each scenario subcommand from limits.SCENARIOS:
    # drift between the two would otherwise show only when a flag is used
    specs = _COMMANDS[command]
    spec = specs[0]
    flags = _flags(command)
    assert all(s.params == spec.params and s.oracle == spec.oracle for s in specs)
    offered = {"--parties": len(specs) > 1, "--angles": spec.angles, "--polar": spec.polar,
               "--cutoff": spec.truncated, "--oracle": spec.oracle}
    assert set(flags) == (_SHARED_FLAGS | {p.flag for p in spec.params}
                          | {flag for flag, on in offered.items() if on})
    # left out, a parameter reads as None: _check_scenario gives the
    # table's default, the one place defaults are applied
    for p in spec.params:
        action = flags[p.flag]
        assert (action.dest, action.default, action.required) == \
            (p.keyword, None, p.default is None)
    if spec.truncated:
        assert flags["--cutoff"].default is None
    if len(specs) > 1:
        assert flags["--parties"].choices == [s.parties for s in specs]
    assert spec.polar in {"", *SCENARIOS}


def test_optimize_offers_every_scenario_and_parameter():
    flags = _flags("optimize")
    assert flags["--scenario"].choices == list(SCENARIOS)
    params = {p.flag: p for s in SCENARIOS.values() for p in s.params}
    assert set(flags) == _SHARED_FLAGS - {"--optimize"} | {"--scenario", *params}
    # left out, a parameter takes the table's default in make_scenario
    assert all((flags[f].dest, flags[f].default) == (p.keyword, None) for f, p in params.items())


@pytest.mark.parametrize("argv", [
    ["chsh", "--optimize", "--restarts", "0"],
    ["lhv", "--samples", "0"],
    ["coherent", "--oracle", "--cutoff", "3"],
    ["chsh", "--precision", "-2"],
    ["lhv", "--vectors", "x,0,0;0,1,0;1,0,0;0,0,1"],
    ["spin", "--j", "inf"],
    # non-finite numbers, in every float flag and every list
    ["spin", "--j", "nan"],
    ["coherent", "--eta", "nan"],
    ["coherent", "--sigma", "-inf"],
    ["coherent", "--phi", "inf"],
    ["squeezed", "--lambda", "nan"],
    ["chsh", "--angles", "nan,0,0,0"],
    ["chsh", "--polar", "0,0,0,0,0,0,0,inf"],
    ["coherent", "--angles", "0,inf,0,0"],
    ["squeezed", "--lambda", "0.5", "--angles", "0,0,nan,0"],
    ["mermin", "--parties", "3", "--angles", "0,0,0,0,0,-inf"],
    ["gisin", "--n-list", "inf"],
    ["gisin", "--n-list", "3,nan"],
    ["lhv", "--vectors", "nan,0,0;0,1,0;1,0,0;0,0,1"],
    ["optimize", "--scenario", "r-state", "--r", "inf"],
    ["optimize", "--scenario", "r-state", "--r", "-inf"],
    ["optimize", "--scenario", "spin", "--j", "nan"],
    ["optimize", "--scenario", "squeezed", "--lambda", "nan"],
    ["optimize", "--scenario", "coherent", "--eta", "inf", "--sigma", "0.1", "--phi", "3"],
    ["optimize", "--scenario", "coherent", "--eta", "0.1", "--sigma", "nan", "--phi", "3"],
    ["optimize", "--scenario", "coherent", "--eta", "0.1", "--sigma", "0.1", "--phi", "-inf"],
    # an unwritable report path
    ["chsh", "--out", "{tmp}/missing-dir/report.json"],
    # --polar settings are only evaluated, on a scenario with no matrix route
    ["chsh", "--polar", "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2", "--optimize"],
    ["chsh", "--polar", "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2", "--oracle"],
    # two settings sources: the phases' length was checked against the polar's
    ["chsh", "--angles", "0,0,0,0", "--polar", "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2"],
    # --optimize searches its own settings on the closed form
    ["chsh", "--optimize", "--oracle"],
    ["chsh", "--optimize", "--angles", "0,0,0,0"],
    ["coherent", "--optimize", "--oracle"],
    ["coherent", "--optimize", "--angles", ANGLES],
    ["squeezed", "--lambda", "0.5", "--optimize", "--oracle"],
    ["squeezed", "--lambda", "0.5", "--optimize", "--angles", ANGLES],
    ["mermin", "--parties", "3", "--optimize", "--oracle"],
    ["mermin", "--parties", "3", "--optimize", "--angles", "0,0,0,0,0,0"],
    # sizes with a documented bound, and a seed numpy rejects
    ["spin", "--j", "1e308"],
    ["spin", "--j", "512.5"],
    ["coherent", "--oracle", "--cutoff", "1026"],
    ["squeezed", "--lambda", "0.5", "--cutoff", "100000000"],
    ["chsh", "--optimize", "--seed", "-1"],
    ["lhv", "--seed", "-1"],
    ["lhv", "--samples", "99999999999999999999"],
    # an empty list, and a precision past its bound, in every format
    ["gisin", "--n-list", ","],
    ["gisin", "--n-list", ",", "--format", "csv"],
    ["chsh", "--precision", "100000000000"],
    ["chsh", "--precision", "18", "--format", "csv"],
    ["chsh", "--precision", "100000000000", "--format", "json"],
    # an N past the float range, and parameters the scenario does not take
    ["optimize", "--scenario", "gisin", "--n", "1" + "0" * 400],
    ["optimize", "--scenario", "mermin3", "--lambda", "0.5"],
    ["optimize", "--scenario", "chsh-phase", "--n", "5"],
    # more restarts than MAX_RESTARTS
    ["chsh", "--optimize", "--restarts", "1000000000000"],
    ["gisin", "--n-list", "3", "--restarts", "1000000000000"],
])
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["optimize", "--scenario", "r-state", "--r", "-1e-3", "--restarts", "1"],
    ["coherent", "--phi", "-1e-3"],
    ["chsh", "--angles", "-0.5,0,0,0"],
    ["chsh", "--polar", "-0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2"],
    ["lhv", "--samples", "1000", "--vectors", "-1,0,0;0,1,0;0,0,1;0,-1,0"],
])
def test_negative_value_reads_as_its_equals_spelling(capsys, argv):
    # argparse alone reads only a bare -12 or -1.5 as a value, and these
    # as an unknown flag: "expected one argument"
    i = next(k for k, a in enumerate(argv) if re.match(r"-\.?\d", a))
    spaced = run_cli(capsys, *argv)
    assert spaced[0] == 0
    assert spaced == run_cli(capsys, *argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])


_FUZZ_ANGLES4 = ("0.3,1.2,-0.5,2.5", "0,0,0", "1,2,3,4,5")
_FUZZ_CUTOFFS = ("2", "8", "20", "3", "0", "-4", "1026", "100000000")
# value pools per subcommand flag; None marks a switch
_FUZZ_FLAGS = {
    "chsh": {"--bell-index": ("0", "2", "4", "-1"), "--angles": _FUZZ_ANGLES4,
             "--polar": ("0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2", "0,0,0,0"),
             "--oracle": None, "--optimize": None},
    "gisin": {"--n-list": ("3", "4,10", "2", "3.5", "1e9", ",")},
    "spin": {"--j": ("0.5", "1", "2", "0", "-1", "0.7", "512.5"), "--optimize": None},
    "coherent": {"--eta": ("0.1", "0.5", "7", "1e200"), "--sigma": ("0.1", "1.0", "-3"),
                 "--phi": ("3.14159", "0", "-1e9"), "--angles": _FUZZ_ANGLES4,
                 "--cutoff": _FUZZ_CUTOFFS, "--oracle": None, "--optimize": None},
    "squeezed": {"--lambda": ("0.1", "0.6", "0", "1", "-0.5"), "--angles": _FUZZ_ANGLES4,
                 "--cutoff": _FUZZ_CUTOFFS, "--oracle": None, "--optimize": None},
    "mermin": {"--parties": ("3", "4", "2", "5"),
               "--angles": ("0,0,0,0,0,0", "0,1,2,3,4,5,6,7", "0,0"),
               "--oracle": None, "--optimize": None},
    "lhv": {"--model": ("sign", "nope"), "--samples": ("1", "10", "1000", "0", "-3"),
            "--vectors": ("1,0,0;0,1,0;0,0,1;1,0,0", "1,0,0;0,1,0", "2,0,0;0,1,0;0,0,1;1,0,0")},
    "optimize": {"--scenario": ("chsh-phase", "chsh-polar", "gisin", "r-state", "spin",
                                "squeezed", "coherent", "mermin3", "nope"),
                 "--bell-index": ("0", "3", "4"),
                 "--n": ("3", "5", "2", "x", "1" + "0" * 400, "3.0", "1e9"),
                 "--r": ("0.5", "-2", "nan"), "--j": ("0.5", "1.5", "0"),
                 "--lambda": ("0.3", "2"), "--eta": ("0.2", "9"), "--sigma": ("0.2", "0"),
                 "--phi": ("1", "-7", "inf")},
}
_FUZZ_COMMON = {"--format": ("text", "json", "csv", "xml"),
                "--precision": ("0", "3", "-1", "18", "100000000000"),
                "--seed": ("0", "7", "-1"), "--restarts": ("1", "0", "-2", "1000000000000")}
_FUZZ_HOSTILE = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0", "", "x", "0x1p3",
                 "--oracle")


def _fuzz_argv(rng):
    command = str(rng.choice(list(_FUZZ_FLAGS)))
    # required flags and small sizes first: a drawn flag later on the line
    # overrides them
    argv = [command] + {"gisin": ["--n-list", "3"], "spin": ["--j", "1"],
                        "squeezed": ["--lambda", "0.6"], "mermin": ["--parties", "3"],
                        "lhv": ["--samples", "1000"],
                        "optimize": ["--scenario", "chsh-phase"]}.get(command, [])
    if command != "lhv":
        argv += ["--restarts", "1"]
    flags = dict(_FUZZ_FLAGS[command], **_FUZZ_COMMON)
    for flag in rng.permutation(list(flags)):
        if rng.random() > 0.25:
            continue
        pool = flags[flag]
        if pool is None:
            argv.append(flag)
        elif rng.random() < 0.05:
            argv.append(flag)  # its value goes missing
        else:
            argv += [flag, str(rng.choice(_FUZZ_HOSTILE if rng.random() < 0.15 else pool))]
    return argv


# a nan or inf in any report format: text and csv print nan/inf, json NaN/Infinity
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


# ten seeds: the first draws of an empty --n-list in text output (seeds 5
# and 9) come after the first over-bound --precision (seed 1)
@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_arguments_keep_the_exit_contract(capsys, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # what the CLI would print as a traceback
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 0:
            assert not _NON_FINITE.search(out), (argv, out)


def test_bellsim_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every scipy import raise
    code = ("import sys; sys.modules['scipy'] = None; from bellsim.cli import main; "
            "print(main(['chsh']), main(['mermin', '--parties', '3', '--optimize', "
            "'--restarts', '1']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bellsim.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "0 0"


def _python(*args, **kwargs):
    """A fresh interpreter that imports bellsim from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bellsim.__file__)))
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


# usage errors of the cold-start benchmark and a bad --vectors, each caught
# before numpy loads
@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["mermin", "--parties", "6"],
    ["spin", "--j", "1.3"],
    ["squeezed", "--lambda", "1.5"],
    ["chsh", "--angles=0,1,2"],
    ["coherent", "--oracle", "--cutoff", "3"],
    ["chsh", "--optimize", "--restarts", "0"],
    ["lhv", "--samples", "0"],
    ["chsh", "--precision", "-2"],
    ["lhv", "--vectors", "2,0,0;0,1,0;1,0,0;0,0,1"],
    # names and parameters checked against the scenario table
    ["optimize", "--scenario", "warp-drive"],
    ["optimize", "--scenario", "gisin"],
    ["optimize", "--scenario", "gisin", "--n", "2"],
    ["optimize", "--scenario", "mermin3", "--lambda", "0.5"],
    ["optimize", "--scenario", "mermin3", "--bell-index", "0"],
    # a route the selected scenario lacks
    ["chsh", "--polar", "0,0,0,0,0,0,0,0", "--oracle"],
    ["chsh", "--angles", "0,0,0,0", "--polar", "0,0,0,0,0,0,0,0"],
    # a model name checked against the built-in names
    ["lhv", "--model", "nope"],
])
def test_usage_error_never_imports_numpy(argv):
    # a None entry in sys.modules makes every numpy import raise
    code = ("import sys; sys.modules['numpy'] = None; from bellsim.cli import main; "
            f"sys.exit(main({argv!r}))")
    proc = _python("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert out == ""


def test_scenario_command_loads_neither_lhv_nor_numpy_random():
    code = ("import sys; from bellsim.cli import main; main(['chsh']); "
            "print('bellsim.lhv' in sys.modules, 'numpy.random' in sys.modules)")
    proc = _python("-c", code, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.splitlines()[-1] == "False False"


_expectation = linalg.expectation


@pytest.mark.parametrize("module, name, fake, argv", [
    (correlators, "chsh", lambda *args: 3.0, ["chsh"]),
    (linalg, "expectation", lambda op, psi: _expectation(op, psi) + 1e-9j, ["chsh", "--oracle"]),
    (optimize, "maximize_violation",
     lambda *args, **kwargs: optimize.OptimizationResult(3.0, (0.0,) * 8, 1, True),
     ["chsh", "--optimize"]),
    (optimize, "maximize_violation",
     lambda *args, **kwargs: optimize.OptimizationResult(3.0, (0.0,) * 8, 1, True),
     ["gisin", "--n-list", "3"]),
    (lhv, "chsh_lhv", lambda *args, **kwargs: lhv.LhvEstimate(-3.0, 0.0, 1), ["lhv"]),
], ids=["closed-form", "complex-oracle", "optimize", "gisin", "lhv"])
def test_value_no_quantum_state_reaches_is_a_guard_failure(capsys, monkeypatch,
                                                            module, name, fake, argv):
    monkeypatch.setattr(module, name, fake)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "numeric guard failure" in err
    assert "Traceback" not in err


def test_closed_stdout_exits_1_without_traceback():
    proc = _python("-m", "bellsim.cli", "chsh", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # long before the interpreter has started
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("argv", [["--format", "text"], ["--format", "json"],
                                  ["--out", "/dev/full"]], ids=["text", "json", "out"])
def test_full_stdout_exits_1_without_traceback(argv):
    # a full disk under --out too: the path opens, the write fails
    with open("/dev/full", "w") as full:
        proc = _python("-m", "bellsim.cli", "chsh", *argv, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith("cannot write the report: ")
    assert "Traceback" not in err and "Exception ignored" not in err


class TestChsh:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "chsh")
        assert code == 0
        assert "value: 2.82843" in out
        assert "violated: True" in out

    def test_json_matches_text_numbers(self, capsys):
        _, text_out, _ = run_cli(capsys, "chsh")
        _, json_out, _ = run_cli(capsys, "chsh", "--format", "json")
        payload = json.loads(json_out)
        assert f"value: {payload['value']:.5f}" in text_out

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "chsh", "--format", "json")
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")

    def test_all_bell_states_violate_maximally_when_optimized(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--optimize", "--precision", "4")
        assert code == 0
        assert "2.8284" in out

    def test_oracle_agrees_with_closed_form(self, capsys):
        _, closed, _ = run_cli(capsys, "chsh", "--precision", "10")
        _, oracle, _ = run_cli(capsys, "chsh", "--oracle", "--precision", "10")
        closed_v = [l for l in closed.splitlines() if l.startswith("value:")][0]
        oracle_v = [l for l in oracle.splitlines() if l.startswith("value:")][0]
        assert closed_v == oracle_v

    def test_angle_count_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", "--angles", "0.0,1.0"])
        assert exc.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scenario,")


class TestGisin:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "gisin", "--n-list", "4,10", "--format", "json")
        assert code == 0
        rows = {r["n"]: r for r in json.loads(out)["rows"]}
        assert rows[4]["value"] == pytest.approx(2.0, abs=1e-5)
        assert rows[4]["violated"] is False
        assert rows[10]["value"] == pytest.approx(2.10555, abs=1e-4)
        assert rows[10]["violated"] is True

    def test_rejects_bad_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gisin", "--n-list", "2,10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["3.0", "1e9"])
    def test_n_list_and_optimize_n_read_n_alike(self, capsys, text):
        # --n-list entries parse as optimize's --n does, each to its integer
        whole = str(int(float(text)))
        n_list = [run_cli(capsys, "gisin", "--n-list", n, "--restarts", "1") for n in (text, whole)]
        optimized = [run_cli(capsys, "optimize", "--scenario", "gisin", "--n", n, "--restarts", "1")
                     for n in (text, whole)]
        assert n_list[0] == n_list[1] and n_list[0][0] == 0
        assert optimized[0] == optimized[1] and optimized[0][0] == 0


class TestSpin:
    def test_spin1_default(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "--j", "1")
        assert code == 0
        assert "value: 2.55228" in out

    def test_bad_spin(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spin", "--j", "0.75"])
        assert exc.value.code == 2


class TestCoherent:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "coherent", "--eta", "0.1", "--sigma", "0.1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.8284, abs=5e-4)

    def test_oracle_guard_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "coherent", "--eta", "4.5", "--oracle")
        assert code == 1
        assert "guard" in err.lower()
        assert out == ""

    def test_closed_form_beyond_double_range_is_guard_failure(self, capsys):
        # the overlap series needs terms whose factorials overflow a float
        code, out, err = run_cli(capsys, "coherent", "--eta", "7")
        assert code == 1
        assert "guard" in err.lower()
        assert "Traceback" not in err
        assert out == ""

    def test_oracle_beyond_double_range_is_guard_failure(self, capsys):
        # the truncated state refuses the amplitude before squaring it
        code, out, err = run_cli(capsys, "coherent", "--oracle", "--eta", "1e200")
        assert code == 1
        assert "guard" in err.lower()
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("route, budget", [([], BUDGET["closed"]),
                                               (["--oracle"], BUDGET["oracle"])],
                             ids=["closed-form", "oracle"])
    @pytest.mark.parametrize("amplitude", ["1e-6", "1e-8", "3e-9"])
    def test_near_cancelling_branches_read_their_reference(self, capsys, route, budget,
                                                            amplitude):
        # at the default phi = pi, 1 + cos(phi) e^(-2s) once subtracted two
        # numbers near 1: the closed form read 1.6e-5 low at 1e-6 and 10 %
        # low at 1e-8, and both routes raised a false guard at 3e-9
        code, out, _ = run_cli(capsys, "coherent", *route, "--eta", amplitude,
                               "--sigma", amplitude, "--precision", "17", "--format", "json")
        assert code == 0
        z = float(amplitude)
        distance = ref.ulps(json.loads(out)["value"], ref.coherent_max(z, z, math.pi))
        assert abs(distance) <= budget

    @pytest.mark.parametrize("route", [["coherent"], ["coherent", "--optimize"],
                                       ["optimize", "--scenario", "coherent"]],
                             ids=["closed-form", "optimize-switch", "optimize-command"])
    def test_degenerate_state_is_guard_failure_on_the_closed_form(self, capsys, route):
        # at phi = pi and eta = sigma = 0 the two branches cancel, as --oracle reports
        code, out, err = run_cli(capsys, *route, "--phi", "3.141592653589793",
                                 "--eta", "0", "--sigma", "0", "--restarts", "1")
        assert code == 1
        assert "degenerate normalization" in err
        assert "Traceback" not in err
        assert out == ""


class TestSqueezed:
    def test_threshold_value(self, capsys):
        code, out, _ = run_cli(capsys, "squeezed", "--lambda", "0.41421356")
        assert code == 0
        assert "value: 2.00000" in out
        assert "violated: False" in out

    def test_violation_above_threshold(self, capsys):
        _, out, _ = run_cli(capsys, "squeezed", "--lambda", "0.6", "--format", "json")
        payload = json.loads(out)
        assert payload["violated"] is True

    def test_oracle_tail_guard(self, capsys):
        code, _, err = run_cli(capsys, "squeezed", "--lambda", "0.9", "--oracle")
        assert code == 1
        assert "tail" in err

    def test_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["squeezed", "--lambda", "1.5"])
        assert exc.value.code == 2


class TestMermin:
    def test_three_party_maximum(self, capsys):
        code, out, _ = run_cli(capsys, "mermin", "--parties", "3")
        assert code == 0
        assert "value: 4.00000" in out
        assert "violated: True" in out

    def test_four_party_maximum(self, capsys):
        _, out, _ = run_cli(capsys, "mermin", "--parties", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(4 * np.sqrt(2), abs=1e-5)
        assert payload["quantum_bound"] == pytest.approx(4 * np.sqrt(2), abs=1e-5)

    def test_handler_usage_error_names_the_subcommand(self, capsys):
        # an error the handler raises after parsing, as argparse's own do
        with pytest.raises(SystemExit) as exc:
            main(["mermin", "--parties", "3", "--angles", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bellsim mermin ")
        assert "bellsim mermin: error: --angles expects 6" in err

    def test_invalid_parties(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mermin", "--parties", "5"])
        assert exc.value.code == 2


class TestLhv:
    def test_default_settings_report(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--samples", "20000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"]) <= 2.0 + 1e-9
        assert payload["quantum_value"] == pytest.approx(-2 * np.sqrt(2), abs=1e-5)
        assert payload["violated"] is False

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "lhv", "--samples", "30000", "--seed", "3")
        _, out2, _ = run_cli(capsys, "lhv", "--samples", "30000", "--seed", "3")
        assert out1 == out2

    def test_non_unit_vector_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lhv", "--vectors", "2,0,0;0,1,0;1,0,0;0,0,1"])
        assert exc.value.code == 2

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lhv", "--model", "telepathy"])
        assert exc.value.code == 2


class TestOptimize:
    def test_unknown_scenario_rejected_before_compute(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--scenario", "warp-drive"])
        assert exc.value.code == 2

    def test_missing_parameter_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--scenario", "gisin"])
        assert exc.value.code == 2

    def test_squeezed_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--scenario", "squeezed",
                               "--lambda", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(4 * np.sqrt(2) * 0.5 / 1.25, abs=1e-5)

    def test_r_state_at_the_top_of_the_float_range(self, capsys):
        # 2r/(1 + r^2) would be inf/inf here; the maximum is 2 sqrt(1 + k^2), k ~ 2e-308
        code, out, _ = run_cli(capsys, "optimize", "--scenario", "r-state", "--r", "1e308",
                               "--restarts", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == 2.0

    def test_seed_determinism(self, capsys):
        args = ["optimize", "--scenario", "mermin3", "--seed", "5", "--format", "json"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestOutputFile:
    def test_json_extension_wins(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["chsh", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["value"] == pytest.approx(2.82843, abs=1e-5)

    def test_csv_extension(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main(["gisin", "--n-list", "4", "--out", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "n,value,violated"
        assert lines[1].startswith("4,")


class TestRendering:
    def test_text_and_json_values_agree_at_precision(self):
        report = {"scenario": "demo", "value": 1.23456789, "violated": False}
        text = render_report(report, "text", 5)
        payload = json.loads(render_report(report, "json", 5))
        assert "value: 1.23457" in text
        assert payload["value"] == 1.23457
