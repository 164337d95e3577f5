"""Command-line front door.

Each subcommand evaluates one named scenario with the closed-form route by
default (matrix route behind --oracle, parameter search behind --optimize)
and renders a uniform report: scenario, params, settings, value, bounds and
the violation verdict of ``limits.classify``, which makes a value past its
quantum bound a numeric guard failure.  Exit codes: 0 success, 2 usage
error, 1 numeric guard failure or a stdout closed before the report was
written.

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

from .limits import (CHSH_CLASSICAL_BOUND, DEFAULT_CUTOFF, DEFAULT_SAMPLES, LHV_MODELS,
                     MAX_RESTARTS, MAX_SAMPLES, SCENARIOS, TSIRELSON_BOUND, NumericGuardError,
                     _check_cutoff, _check_family_n, _check_finite, _check_scenario,
                     _check_unit, classify)

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


def _single_report(scenario, params, settings, value, classical, quantum, bound_guard=0.0):
    # closed-form paths classify strictly; optimizer paths pass a small guard
    # so the refinement's float noise cannot promote a threshold case
    return {
        "scenario": scenario,
        "params": params,
        "settings": [float(s) for s in settings],
        "value": float(value),
        "classical_bound": float(classical),
        "quantum_bound": float(quantum),
        "violated": classify(value, classical, quantum, bound_guard),
    }


_OPT_BOUND_GUARD = 1e-9
# a double carries at most 17 significant digits, and a huge precision would
# render strings of that many characters per number
MAX_PRECISION = 17


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

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


_finite = _checked(float, _check_finite)
_cutoff = _checked(int, _check_cutoff)
_family_n = _checked(float, _check_family_n)


def _family_ns(text: str):
    """--n-list: comma-separated N-family parameters, at least one."""
    ns = [_family_n(tok) for tok in text.split(",") if tok.strip()]
    if not ns:
        raise argparse.ArgumentTypeError("expected at least one entry")
    return ns


def _expect_len(parser, values, n, flag):
    if values is not None and len(values) != n:
        parser.error(f"{flag} expects {n} comma-separated values in radians "
                     f"(got {len(values)})")
    return values


def _add_common(sub, handler):
    """The flags every subcommand takes, and its handler, which raises usage
    errors through ``sub`` so that they name the subcommand."""
    sub.set_defaults(handler=handler, parser=sub)
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


# every scenario parameter of the table, by keyword
_PARAMS = {p.keyword: p for spec in SCENARIOS.values() for p in spec.params}


def _add_params(sub, scenario=None, required=False, **defaults):
    """A flag for each parameter of ``scenario``, or of every scenario, typed
    by the parameter's check: required, or defaulting to ``defaults`` or None."""
    for p in SCENARIOS[scenario].params if scenario else _PARAMS.values():
        sub.add_argument(p.flag, dest=p.keyword, type=_checked(p.parse, p.check),
                         required=required, default=defaults.get(p.keyword), help=p.help)


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
        name = scenario.name
        value = scenario.value(settings)
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
    _expect_len(parser, args.angles, 2 * SCENARIOS["chsh-phase"].parties, "--angles")
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
    from .optimize import table_gisin
    spec = SCENARIOS["gisin"]
    rows = [
        {"n": n, "value": float(v),
         "violated": classify(v, spec.classical_bound, spec.quantum_bound, _OPT_BOUND_GUARD)}
        for n, v in table_gisin(args.n_list, restarts=args.restarts, seed=args.seed)
    ]
    return {"scenario": "gisin", "params": {"restarts": args.restarts, "seed": args.seed},
            "rows": rows}


def cmd_scenario(args, parser):
    """spin, coherent, squeezed and optimize: the scenario --scenario or else
    the subcommand names, from its flags; a flag the subcommand lacks is absent."""
    name = getattr(args, "scenario", args.command)
    _expect_len(parser, args.angles, 2 * SCENARIOS[name].parties, "--angles")
    _check_search(args, parser)
    params = _build(parser, _check_scenario, name,
                    {k: getattr(args, k, None) for k in (*_PARAMS, "cutoff")})
    from .optimize import make_scenario
    scenario = _build(parser, make_scenario, name, **params)
    # the parameters the scenario computed: spin 1 for --j 1.0000000001
    params = dict(scenario.params, cutoff=args.cutoff) if args.oracle else scenario.params
    return _scenario_report(args, parser, scenario, params)


def cmd_mermin(args, parser):
    name = f"mermin{args.parties}"
    _expect_len(parser, args.angles, 2 * SCENARIOS[name].parties, "--angles")
    _check_search(args, parser)
    from .optimize import make_scenario
    scenario = make_scenario(name)
    return _scenario_report(args, parser, scenario, {"parties": args.parties})


def cmd_lhv(args, parser):
    from . import lhv
    est = _build(parser, lhv.chsh_lhv, lhv.get_model(args.model), *args.vectors,
                 n=args.samples, seed=args.seed)
    report = _single_report("lhv", {"model": args.model, "samples": args.samples,
                                    "seed": args.seed},
                            [x for v in args.vectors for x in v], est.mean,
                            CHSH_CLASSICAL_BOUND, TSIRELSON_BOUND)
    report["std_error"] = est.std_error
    report["quantum_value"] = lhv.singlet_quantum_chsh(*args.vectors)
    return report


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
    _add_common(p, cmd_chsh)

    p = subs.add_parser("gisin", help="maximal CHSH value of the N-family state")
    p.add_argument("--n-list", type=_family_ns, required=True,
                   help="comma-separated N values, each an integer >= 3")
    _add_search(p, oracle=False, optimize=False)
    _add_common(p, cmd_gisin)

    p = subs.add_parser("spin", help="CHSH on the spin-j singlet")
    _add_params(p, "spin", required=True)
    _add_search(p, oracle=False)
    _add_common(p, cmd_scenario)

    p = subs.add_parser("coherent", help="CHSH on the entangled coherent state")
    _add_params(p, "coherent", eta=0.1, sigma=0.1, phi=math.pi)
    p.add_argument("--angles", type=_floats, default=None,
                   help="alpha,alpha',beta,beta' (default: maximizing set for phi)")
    p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF)
    _add_search(p, oracle=True)
    _add_common(p, cmd_scenario)

    p = subs.add_parser("squeezed", help="CHSH on the two-mode squeezed state")
    _add_params(p, "squeezed", required=True)
    p.add_argument("--angles", type=_floats, default=None)
    p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF)
    _add_search(p, oracle=True)
    _add_common(p, cmd_scenario)

    p = subs.add_parser("mermin", help="Mermin correlator on a GHZ state")
    p.add_argument("--parties", type=int, required=True,
                   choices=[s.parties for s in SCENARIOS.values() if s.parties > 2])
    p.add_argument("--angles", type=_floats, default=None)
    _add_search(p, oracle=True)
    _add_common(p, cmd_mermin)

    p = subs.add_parser("lhv", help="local-hidden-variable Monte Carlo CHSH")
    p.add_argument("--model", choices=LHV_MODELS, default="sign")
    p.add_argument("--samples", type=_int_between(1, MAX_SAMPLES), default=DEFAULT_SAMPLES,
                   help=f"Monte Carlo samples, 1 to {MAX_SAMPLES} "
                        f"(default {DEFAULT_SAMPLES})")
    p.add_argument("--vectors", type=_unit_vectors, default=_DEFAULT_LHV_VECTORS,
                   help="four unit 3-vectors a;a';b;b' as comma/semicolon lists")
    _add_common(p, cmd_lhv)

    p = subs.add_parser("optimize", help="maximize |correlator| for a scenario")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS),
                   help="a registered scenario; the flags below set its parameters")
    _add_params(p)
    _add_search(p, oracle=False, optimize=False)
    _add_common(p, cmd_scenario)
    p.set_defaults(optimize=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args, args.parser)
    except NumericGuardError as exc:
        print(f"numeric guard failure: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, args, args.parser)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # stdout closed before the report was written (bellsim chsh | true): devnull
        # takes its place, as Python's signal docs advise, so the final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
