"""Command-line front door.

Each subcommand evaluates one named scenario with the closed-form route by
default (matrix route behind --oracle, parameter search behind --optimize)
and renders a uniform report: scenario, params, settings, value, bounds and
the violation verdict.  Exit codes: 0 success, 2 usage error, 1 numeric
guard failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import correlators as co
from . import lhv as lhvmod
from .linalg import NumericGuardError
from .observables import TSIRELSON_BOUND
from .optimize import (
    MAX_RESTARTS,
    SCENARIO_FACTORIES,
    make_scenario,
    maximize_violation,
    scenario_chsh_phase,
    table_gisin,
)
from .states import DEFAULT_CUTOFF

_DEFAULT_LHV_VECTORS = "1,0,0;0,1,0;0.70710678118654752,0.70710678118654752,0;0.70710678118654752,-0.70710678118654752,0"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _rounded(obj, precision: int):
    if isinstance(obj, float):
        return round(obj, precision)
    if isinstance(obj, dict):
        return {k: _rounded(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, precision) for v in obj]
    return obj


def _text_value(v, precision: int) -> str:
    if isinstance(v, float):
        return f"{v:.{precision}f}"
    if isinstance(v, (list, tuple)):
        return ", ".join(_text_value(x, precision) for x in v)
    if isinstance(v, dict):
        return " ".join(f"{k}={_text_value(x, precision)}" for k, x in v.items())
    return str(v)


def render_report(report: dict, fmt: str, precision: int) -> str:
    report = _rounded(report, precision)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if "rows" in report:
            cols = list(report["rows"][0])
            writer.writerow(cols)
            for row in report["rows"]:
                writer.writerow([_text_value(row[c], precision) for c in cols])
        else:
            cols = list(report)
            writer.writerow(cols)
            writer.writerow([_text_value(report[c], precision) for c in cols])
        return buf.getvalue().rstrip("\n")
    lines = []
    for key, val in report.items():
        if key == "rows":
            cols = list(val[0])
            lines.append("  ".join(f"{c:>12}" for c in cols))
            for row in val:
                lines.append("  ".join(f"{_text_value(row[c], precision):>12}" for c in cols))
        else:
            lines.append(f"{key}: {_text_value(val, precision)}")
    return "\n".join(lines)


def _emit(report: dict, args, parser) -> None:
    if not args.out:
        print(render_report(report, args.format, args.precision))
        return
    fmt = ("json" if args.out.endswith(".json") else
           "csv" if args.out.endswith(".csv") else args.format)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_report(report, fmt, args.precision) + "\n")
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")


def _single_report(scenario, params, settings, value,
                   classical=co.CHSH_CLASSICAL_BOUND, quantum=TSIRELSON_BOUND,
                   bound_guard=0.0):
    # closed-form paths classify strictly; optimizer paths pass a small guard
    # so the refinement's float noise cannot promote a threshold case
    return {
        "scenario": scenario,
        "params": params,
        "settings": [float(s) for s in settings],
        "value": float(value),
        "classical_bound": float(classical),
        "quantum_bound": float(quantum),
        "violated": bool(abs(value) > classical + bound_guard),
    }


_OPT_BOUND_GUARD = 1e-9
# a double carries at most 17 significant digits, and a huge precision would
# render strings of that many characters per number
MAX_PRECISION = 17


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: same message as nan or inf
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str):
    return [_finite(tok) for tok in text.split(",") if tok.strip() != ""]


def _unit_vectors(text: str):
    groups = [g for g in text.split(";") if g.strip()]
    if len(groups) != 4:
        raise argparse.ArgumentTypeError("expected four semicolon-separated 3-vectors")
    try:
        return [lhvmod._unit(_floats(g), label)
                for label, g in zip(("a", "a'", "b", "b'"), groups)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_between(low: int, high: int | None = None):
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return integer


def _expect_len(parser, values, n, flag):
    if values is not None and len(values) != n:
        parser.error(f"{flag} expects {n} comma-separated values in radians "
                     f"(got {len(values)})")
    return values


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text",
                     help="output rendering (default text)")
    sub.add_argument("--precision", type=_int_between(0, MAX_PRECISION), default=5,
                     help=f"decimal places in reports, 0 to {MAX_PRECISION} (default 5)")
    sub.add_argument("--seed", type=_int_between(0), default=0,
                     help="seed for any randomized step (default 0)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report to PATH (.json/.csv pick the format)")


def _add_search(sub, oracle: bool, optimize: bool = True):
    """--restarts for the parameter search, plus the --oracle and --optimize
    switches the subcommand offers; a switch it lacks reads as off, and
    --angles as absent."""
    if oracle:
        sub.add_argument("--oracle", action="store_true",
                         help="evaluate through the matrix route: each party's "
                              "observables applied to the state")
    if optimize:
        sub.add_argument("--optimize", action="store_true")
    sub.add_argument("--restarts", type=_int_between(1, MAX_RESTARTS), default=8,
                     help="seeded uniform starts of the search, each ascended "
                          f"on f, 1 to {MAX_RESTARTS} (default 8)")
    sub.set_defaults(oracle=False, optimize=False, angles=None)


# optimize's scenario parameters: destination -> (flag, type)
_SCENARIO_PARAMS = {"n": ("--n", int), "r": ("--r", _finite), "j": ("--j", _finite),
                    "lam": ("--lambda", _finite), "eta": ("--eta", _finite),
                    "sigma": ("--sigma", _finite), "phi": ("--phi", _finite)}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _scenario_report(args, parser, scenario, params, settings=None):
    """``scenario`` on the route the flags pick: the parameter search with
    --optimize, else ``settings`` (default --angles, else the scenario's
    maximizing defaults) on the closed form or, with --oracle, the matrix
    route."""
    if args.optimize:
        if args.oracle or args.angles is not None:
            parser.error("--optimize searches its own settings on the closed form: "
                         "drop --oracle and --angles")
        result = maximize_violation(scenario, restarts=args.restarts, seed=args.seed)
        params = dict(scenario.params, restarts=args.restarts, seed=args.seed,
                      evaluations=result.evaluations, converged=result.converged)
        return _single_report(scenario.name, params, result.best_settings,
                              result.best_value, scenario.classical_bound,
                              scenario.quantum_bound, bound_guard=_OPT_BOUND_GUARD)
    if settings is None:
        settings = list(scenario.defaults) if args.angles is None else args.angles
    if args.oracle:
        # oracle reports name the family: chsh-oracle, coherent-oracle, ...
        name = scenario.name.removesuffix("-phase") + "-oracle"
        value = scenario.oracle(settings)
    else:
        name = scenario.name
        value = scenario.evaluator(np.array(settings))
    return _single_report(name, params, settings, float(value),
                          scenario.classical_bound, scenario.quantum_bound)


def _build(parser, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with a rejected input a usage error."""
    try:
        return factory(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))


def cmd_chsh(args, parser):
    _expect_len(parser, args.angles, 4, "--angles")
    if args.optimize and args.bell_index != 0:
        parser.error("--optimize searches Bell index 0 only")
    if args.polar is not None:
        p = _expect_len(parser, args.polar, 8, "--polar")
        if args.bell_index != 0:
            parser.error("--polar settings are wired to Bell index 0")
        if args.optimize or args.oracle:
            parser.error("--polar settings are evaluated on the closed form only: "
                         "drop --optimize and --oracle")
        return _scenario_report(args, parser, make_scenario("chsh-polar"), {"bell_index": 0},
                                p)
    args.oracle |= args.bell_index != 0  # the closed form is Bell index 0's
    scenario = (make_scenario("chsh-polar") if args.optimize
                else scenario_chsh_phase(args.bell_index))
    return _scenario_report(args, parser, scenario, {"bell_index": args.bell_index})


def cmd_gisin(args, parser):
    if not args.n_list:
        parser.error("--n-list needs at least one entry")
    if any(abs(v - round(v)) > 0 or v < 3 for v in args.n_list):
        parser.error("--n-list entries must be integers >= 3")
    ns = [int(round(v)) for v in args.n_list]
    rows = [
        {"n": n, "value": float(v), "violated": bool(v > 2.0 + _OPT_BOUND_GUARD)}
        for n, v in table_gisin(ns, restarts=args.restarts, seed=args.seed)
    ]
    return {"scenario": "gisin", "params": {"restarts": args.restarts, "seed": args.seed},
            "rows": rows}


def cmd_spin(args, parser):
    # the j the scenario computed: spin 1 for --j 1.0000000001
    scenario = _build(parser, make_scenario, "spin", j=args.j)
    return _scenario_report(args, parser, scenario, scenario.params)


def cmd_fock(args, parser):
    """coherent and squeezed: Fock-space families truncated at --cutoff."""
    _expect_len(parser, args.angles, 4, "--angles")
    factory, required = SCENARIO_FACTORIES[args.command]
    scenario = _build(parser, factory, *(getattr(args, k) for k in required),
                      cutoff=args.cutoff)
    params = dict(scenario.params, cutoff=args.cutoff) if args.oracle else scenario.params
    return _scenario_report(args, parser, scenario, params)


def cmd_mermin(args, parser):
    scenario = make_scenario(f"mermin{args.parties}")
    _expect_len(parser, args.angles, scenario.ndim, "--angles")
    return _scenario_report(args, parser, scenario, {"parties": args.parties})


def cmd_lhv(args, parser):
    model = _build(parser, lhvmod.get_model, args.model)
    est = _build(parser, lhvmod.chsh_lhv, model, *args.vectors, n=args.samples,
                 seed=args.seed)
    report = _single_report("lhv", {"model": args.model, "samples": args.samples,
                                    "seed": args.seed},
                            np.concatenate(args.vectors), est.mean)
    report["std_error"] = est.std_error
    report["quantum_value"] = lhvmod.singlet_quantum_chsh(*args.vectors)
    return report


def cmd_optimize(args, parser):
    scenario = _build(parser, make_scenario, args.scenario,
                      **{k: getattr(args, k) for k in _SCENARIO_PARAMS})
    return _scenario_report(args, parser, scenario, scenario.params)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Bell-CHSH and Mermin correlators, violation maximization, "
                    "and local-hidden-variable Monte Carlo.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("chsh", help="CHSH correlator on a Bell state")
    p.add_argument("--bell-index", type=int, choices=(0, 1, 2, 3), default=0)
    p.add_argument("--angles", type=_floats, default=None,
                   help="alpha,alpha',beta,beta' in radians")
    p.add_argument("--polar", type=_floats, default=None,
                   help="theta,theta',omega,omega',alpha,alpha',beta,beta'")
    _add_search(p, oracle=True)
    _add_common(p)
    p.set_defaults(handler=cmd_chsh)

    p = subs.add_parser("gisin", help="maximal CHSH value of the N-family state")
    p.add_argument("--n-list", type=_floats, required=True,
                   help="comma-separated N values, each >= 3")
    _add_search(p, oracle=False, optimize=False)
    _add_common(p)
    p.set_defaults(handler=cmd_gisin)

    p = subs.add_parser("spin", help="CHSH on the spin-j singlet")
    p.add_argument("--j", type=_finite, required=True,
                   help="spin (integer or half-integer)")
    _add_search(p, oracle=False)
    _add_common(p)
    p.set_defaults(handler=cmd_spin)

    p = subs.add_parser("coherent", help="CHSH on the entangled coherent state")
    p.add_argument("--eta", type=_finite, default=0.1)
    p.add_argument("--sigma", type=_finite, default=0.1)
    p.add_argument("--phi", type=_finite, default=float(np.pi))
    p.add_argument("--angles", type=_floats, default=None,
                   help="alpha,alpha',beta,beta' (default: maximizing set for phi)")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    _add_search(p, oracle=True)
    _add_common(p)
    p.set_defaults(handler=cmd_fock)

    p = subs.add_parser("squeezed", help="CHSH on the two-mode squeezed state")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True,
                   help="squeezing parameter in (0, 1)")
    p.add_argument("--angles", type=_floats, default=None)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    _add_search(p, oracle=True)
    _add_common(p)
    p.set_defaults(handler=cmd_fock)

    p = subs.add_parser("mermin", help="Mermin correlator on a GHZ state")
    p.add_argument("--parties", type=int, choices=(3, 4), required=True)
    p.add_argument("--angles", type=_floats, default=None)
    _add_search(p, oracle=True)
    _add_common(p)
    p.set_defaults(handler=cmd_mermin)

    p = subs.add_parser("lhv", help="local-hidden-variable Monte Carlo CHSH")
    p.add_argument("--model", default="sign")
    p.add_argument("--samples", type=_int_between(1), default=lhvmod.DEFAULT_SAMPLES)
    p.add_argument("--vectors", type=_unit_vectors, default=_DEFAULT_LHV_VECTORS,
                   help="four unit 3-vectors a;a';b;b' as comma/semicolon lists")
    _add_common(p)
    p.set_defaults(handler=cmd_lhv)

    p = subs.add_parser("optimize", help="maximize |correlator| for a scenario")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIO_FACTORIES))
    for dest, (flag, kind) in _SCENARIO_PARAMS.items():
        p.add_argument(flag, dest=dest, type=kind, default=None)
    _add_search(p, oracle=False, optimize=False)
    _add_common(p)
    p.set_defaults(handler=cmd_optimize, optimize=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args, parser)
    except NumericGuardError as exc:
        print(f"numeric guard failure: {exc}", file=sys.stderr)
        return 1
    _emit(report, args, parser)
    return 0


if __name__ == "__main__":
    sys.exit(main())
