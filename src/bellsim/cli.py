"""Command-line front door.

Each subcommand evaluates one named scenario with the closed-form route by
default (matrix route behind --oracle, parameter search behind --optimize)
and renders a uniform report: scenario, params, settings, value, bounds and
the violation verdict.  Exit codes: 0 success, 2 usage error, 1 numeric
guard failure or a stdout closed before the report was written.

The parser checks every argument against the numpy-free rules of
``bellsim.limits``, and each handler checks the rest of its argv before it
imports the numeric modules it uses, so a usage error costs no numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from .limits import (CHSH_CLASSICAL_BOUND, DEFAULT_CUTOFF, DEFAULT_SAMPLES, MAX_RESTARTS,
                     MAX_SAMPLES, TSIRELSON_BOUND, NumericGuardError, _check_cutoff,
                     _check_spin, _check_squeezing, _check_unit)

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
                   classical=CHSH_CLASSICAL_BOUND, quantum=TSIRELSON_BOUND,
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
        return [_check_unit(_floats(g), label)
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


def _checked(parse, check):
    """A flag type: ``parse`` the text, then run the library's own ``check``
    on the value, so a value the library rejects is a usage error here."""
    def checked(text: str):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    checked.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return checked


_spin = _checked(_finite, _check_spin)
_squeezing = _checked(_finite, _check_squeezing)
_cutoff = _checked(int, _check_cutoff)


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
_SCENARIO_PARAMS = {"n": ("--n", int), "r": ("--r", _finite), "j": ("--j", _spin),
                    "lam": ("--lambda", _squeezing), "eta": ("--eta", _finite),
                    "sigma": ("--sigma", _finite), "phi": ("--phi", _finite)}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _check_search(args, parser):
    if args.optimize and (args.oracle or args.angles is not None):
        parser.error("--optimize searches its own settings on the closed form: "
                     "drop --oracle and --angles")


def _scenario_report(args, parser, scenario, params, settings=None):
    """``scenario`` on the route the flags pick: the parameter search with
    --optimize, else ``settings`` (default --angles, else the scenario's
    maximizing defaults) on the closed form or, with --oracle, the matrix
    route."""
    if args.optimize:
        from .optimize import maximize_violation
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
        import numpy as np
        name = scenario.name
        value = scenario.evaluator(np.array(settings))
    return _single_report(name, params, settings, float(value),
                          scenario.classical_bound, scenario.quantum_bound)


def _build(parser, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with a rejected input a usage error."""
    try:
        return factory(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        # a KeyError's str() quotes its message
        parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))


def cmd_chsh(args, parser):
    _expect_len(parser, args.angles, 4, "--angles")
    if args.optimize and args.bell_index != 0:
        parser.error("--optimize searches Bell index 0 only")
    if args.polar is not None:
        _expect_len(parser, args.polar, 8, "--polar")
        if args.bell_index != 0:
            parser.error("--polar settings are wired to Bell index 0")
        if args.optimize or args.oracle:
            parser.error("--polar settings are evaluated on the closed form only: "
                         "drop --optimize and --oracle")
    _check_search(args, parser)
    from .optimize import make_scenario, scenario_chsh_phase
    if args.polar is not None:
        return _scenario_report(args, parser, make_scenario("chsh-polar"), {"bell_index": 0},
                                args.polar)
    args.oracle |= args.bell_index != 0  # the closed form is Bell index 0's
    scenario = (make_scenario("chsh-polar") if args.optimize
                else scenario_chsh_phase(args.bell_index))
    return _scenario_report(args, parser, scenario, {"bell_index": args.bell_index})


def cmd_gisin(args, parser):
    if not args.n_list:
        parser.error("--n-list needs at least one entry")
    if any(abs(v - round(v)) > 0 or v < 3 for v in args.n_list):
        parser.error("--n-list entries must be integers >= 3")
    from .optimize import table_gisin
    ns = [int(round(v)) for v in args.n_list]
    rows = [
        {"n": n, "value": float(v), "violated": bool(v > 2.0 + _OPT_BOUND_GUARD)}
        for n, v in table_gisin(ns, restarts=args.restarts, seed=args.seed)
    ]
    return {"scenario": "gisin", "params": {"restarts": args.restarts, "seed": args.seed},
            "rows": rows}


def cmd_spin(args, parser):
    from .optimize import make_scenario
    # the j the scenario computed: spin 1 for --j 1.0000000001
    scenario = _build(parser, make_scenario, "spin", j=args.j)
    return _scenario_report(args, parser, scenario, scenario.params)


def cmd_fock(args, parser):
    """coherent and squeezed: Fock-space families truncated at --cutoff."""
    _expect_len(parser, args.angles, 4, "--angles")
    _check_search(args, parser)
    from .optimize import SCENARIO_FACTORIES
    factory, required = SCENARIO_FACTORIES[args.command]
    scenario = _build(parser, factory, *(getattr(args, k) for k in required),
                      cutoff=args.cutoff)
    params = dict(scenario.params, cutoff=args.cutoff) if args.oracle else scenario.params
    return _scenario_report(args, parser, scenario, params)


def cmd_mermin(args, parser):
    _expect_len(parser, args.angles, 2 * args.parties, "--angles")  # two per party
    _check_search(args, parser)
    from .optimize import make_scenario
    scenario = make_scenario(f"mermin{args.parties}")
    return _scenario_report(args, parser, scenario, {"parties": args.parties})


def cmd_lhv(args, parser):
    from . import lhv
    model = _build(parser, lhv.get_model, args.model)
    est = _build(parser, lhv.chsh_lhv, model, *args.vectors, n=args.samples,
                 seed=args.seed)
    report = _single_report("lhv", {"model": args.model, "samples": args.samples,
                                    "seed": args.seed},
                            [x for v in args.vectors for x in v], est.mean)
    report["std_error"] = est.std_error
    report["quantum_value"] = lhv.singlet_quantum_chsh(*args.vectors)
    return report


def cmd_optimize(args, parser):
    from .optimize import make_scenario
    scenario = _build(parser, make_scenario, args.scenario,
                      **{k: getattr(args, k) for k in _SCENARIO_PARAMS})
    return _scenario_report(args, parser, scenario, scenario.params)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads "-" before a digit or ".digit" as a value, so ``--r -1e-3`` and
    ``--angles -0.5,0,0,0`` parse like their ``=`` spellings; argparse's own
    pattern only takes a bare -12 or -1.5.  No bellsim option starts with a
    digit.  Subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--j", type=_spin, required=True,
                   help="spin (integer or half-integer)")
    _add_search(p, oracle=False)
    _add_common(p)
    p.set_defaults(handler=cmd_spin)

    p = subs.add_parser("coherent", help="CHSH on the entangled coherent state")
    p.add_argument("--eta", type=_finite, default=0.1)
    p.add_argument("--sigma", type=_finite, default=0.1)
    p.add_argument("--phi", type=_finite, default=math.pi)
    p.add_argument("--angles", type=_floats, default=None,
                   help="alpha,alpha',beta,beta' (default: maximizing set for phi)")
    p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF)
    _add_search(p, oracle=True)
    _add_common(p)
    p.set_defaults(handler=cmd_fock)

    p = subs.add_parser("squeezed", help="CHSH on the two-mode squeezed state")
    p.add_argument("--lambda", dest="lam", type=_squeezing, required=True,
                   help="squeezing parameter in (0, 1)")
    p.add_argument("--angles", type=_floats, default=None)
    p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF)
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
    p.add_argument("--samples", type=_int_between(1, MAX_SAMPLES), default=DEFAULT_SAMPLES,
                   help=f"Monte Carlo samples, 1 to {MAX_SAMPLES} "
                        f"(default {DEFAULT_SAMPLES})")
    p.add_argument("--vectors", type=_unit_vectors, default=_DEFAULT_LHV_VECTORS,
                   help="four unit 3-vectors a;a';b;b' as comma/semicolon lists")
    _add_common(p)
    p.set_defaults(handler=cmd_lhv)

    p = subs.add_parser("optimize", help="maximize |correlator| for a scenario")
    p.add_argument("--scenario", required=True,
                   help="a registered scenario such as gisin or spin; an unknown "
                        "name is a usage error that lists them all")
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
    try:
        _emit(report, args, parser)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # stdout closed before the report was written (bellsim chsh | true): devnull
        # takes its place, as Python's signal docs advise, so the final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
