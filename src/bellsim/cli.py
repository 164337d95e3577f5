"""Command-line front door.

Each scenario subcommand, its flags and their defaults come from
``limits.SCENARIOS``.  One handler serves them all and ``optimize``: it
builds the scenario the flags select and renders the report
``Scenario.report`` builds on the route they pick, the closed form by
default, the matrix route behind --oracle, the search behind --optimize.
``gisin`` and ``lhv`` have handlers of their own.  Exit codes: 0 success, 2
usage error (an --out path that cannot be opened among them), 1 numeric
guard failure or a report that could not be written.

The parser checks every argument against the numpy-free rules of
``bellsim.limits``, and each handler checks the rest of its argv before it
imports the numeric modules it uses, so a usage error costs no numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from .limits import (_CUTOFF, DEFAULT_SAMPLES, LHV_MODELS, MAX_RESTARTS, MAX_SAMPLES, SCENARIOS,
                     NumericGuardError, _check_finite, _check_scenario, _check_unit, report)

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
    """Print the report, or write it to --out: a path that cannot be opened
    is a usage error, a failed write raises OSError."""
    if not args.out:
        print(render_report(report, args.format, args.precision))
        return
    fmt = ("json" if args.out.endswith(".json") else
           "csv" if args.out.endswith(".csv") else args.format)
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    with fh:
        fh.write(render_report(report, fmt, args.precision) + "\n")


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


def _family_ns(text: str):
    """--n-list: comma-separated N-family parameters, each read as --n, at least one."""
    n = _PARAMS["n"]
    ns = [_checked(n.parse, n.check)(tok) for tok in text.split(",") if tok.strip()]
    if not ns:
        raise argparse.ArgumentTypeError("expected at least one entry")
    return ns


def _expect_len(parser, values, n, flag):
    if values is not None and len(values) != n:
        parser.error(f"{flag} expects {n} comma-separated values in radians "
                     f"(got {len(values)})")


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
    --angles and --polar as absent."""
    if oracle:
        sub.add_argument("--oracle", action="store_true",
                         help="evaluate through the matrix route: each party's "
                              "observables applied to the state")
    if optimize:
        sub.add_argument("--optimize", action="store_true")
    sub.add_argument("--restarts", type=_int_between(1, MAX_RESTARTS), default=8,
                     help="seeded uniform starts of the search, each ascended "
                          f"on f, 1 to {MAX_RESTARTS} (default 8)")
    sub.set_defaults(oracle=False, optimize=False, angles=None, polar=None)


# every scenario parameter of the table, by keyword
_PARAMS = {p.keyword: p for spec in SCENARIOS.values() for p in spec.params}


def _add_params(sub, params, required: bool):
    """A flag for each of ``params``, typed by the parameter's check and
    left out as None, which ``_check_scenario`` reads as the table's
    default; with ``required``, one without a default is required."""
    for p in params:
        sub.add_argument(p.flag, dest=p.keyword, type=_checked(p.parse, p.check), help=p.help,
                         required=required and p.default is None)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _build(parser, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with a rejected input a usage error."""
    try:
        return factory(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        # a KeyError's str() quotes its message
        parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))


def _selected(args) -> str:
    """The scenario the flags name: --scenario, else the subcommand's at
    --parties, or its ``polar`` one under --polar or --optimize."""
    if args.command == "optimize":
        return args.scenario
    name, spec = next((n, s) for n, s in SCENARIOS.items() if s.command == args.command
                      and s.parties == getattr(args, "parties", s.parties))
    return spec.polar or name if args.polar is not None or args.optimize else name


def cmd_scenario(args, parser):
    """Every scenario subcommand and ``optimize``: ``Scenario.report`` of the
    scenario the flags select, built from the parameter flags (one the
    subcommand lacks is absent), on the route the flags pick."""
    if args.angles is not None and args.polar is not None:
        parser.error("--angles and --polar each set the settings: give one")
    name = _selected(args)
    spec = SCENARIOS[name]
    _expect_len(parser, args.angles, 2 * spec.parties, "--angles")
    _expect_len(parser, args.polar, 4 * spec.parties, "--polar")
    if args.optimize and (args.oracle or args.angles is not None or args.polar is not None):
        parser.error("--optimize searches its own settings on the closed form: "
                     "drop --oracle, --angles and --polar")
    if args.oracle and not spec.oracle:
        parser.error(f"scenario {name} has no matrix route: drop --oracle")
    params = _build(parser, _check_scenario, name,
                    {k: getattr(args, k, None) for k in (*_PARAMS, "cutoff")})
    from .optimize import make_scenario
    scenario = make_scenario(name, **params)
    if args.optimize:
        return scenario.report(restarts=args.restarts, seed=args.seed)
    return scenario.report(args.angles if args.polar is None else args.polar, oracle=args.oracle)


def cmd_gisin(args, parser):
    from .optimize import make_scenario
    reports = [make_scenario("gisin", n=n).report(restarts=args.restarts, seed=args.seed)
               for n in args.n_list]
    rows = [{"n": r["params"]["n"], "value": r["value"], "violated": r["violated"]}
            for r in reports]
    return {"scenario": "gisin", "params": {"restarts": args.restarts, "seed": args.seed},
            "rows": rows}


def cmd_lhv(args, parser):
    from . import lhv
    est = _build(parser, lhv.chsh_lhv, lhv.get_model(args.model), *args.vectors,
                 n=args.samples, seed=args.seed)
    return report("lhv", {"model": args.model, "samples": args.samples, "seed": args.seed},
                  [x for v in args.vectors for x in v], est.mean, std_error=est.std_error,
                  quantum_value=lhv.singlet_quantum_chsh(*args.vectors))


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

    for command in dict.fromkeys(s.command for s in SCENARIOS.values() if s.command):
        spec, *more = [s for s in SCENARIOS.values() if s.command == command]
        p = subs.add_parser(command, help=spec.help)
        if more:
            p.add_argument("--parties", type=int, required=True,
                           choices=[s.parties for s in (spec, *more)])
        _add_params(p, spec.params, required=True)
        if spec.angles:
            p.add_argument("--angles", type=_floats, help="one phase per setting in radians")
        if spec.polar:
            p.add_argument("--polar", type=_floats,
                           help="theta,theta',omega,omega',alpha,alpha',beta,beta'")
        if spec.truncated:
            _add_params(p, (_CUTOFF,), required=False)
        _add_search(p, oracle=spec.oracle)
        _add_common(p, cmd_scenario)

    p = subs.add_parser("gisin", help="maximal CHSH value of the N-family state")
    p.add_argument("--n-list", type=_family_ns, required=True,
                   help="comma-separated N values, each an integer >= 3")
    _add_search(p, oracle=False, optimize=False)
    _add_common(p, cmd_gisin)

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
                   help="a registered scenario; the flags below set its parameters, "
                        "each left out taking the table's default")
    _add_params(p, _PARAMS.values(), required=False)
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
    except OSError as exc:  # a full disk: bellsim chsh > /dev/full
        print(f"cannot write the report: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
