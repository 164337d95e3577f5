"""Bounds, the violation verdict and the report around it, defaults, input
checks (the entangled coherent state's normalization among them), the
scenario table and the built-in LHV model names, none of which need numpy.

The command line reads these while it parses its arguments, before it loads
any numeric module; the numeric modules import what they use from here, so
each rule is written once.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

DEFAULT_CUTOFF = 40
# A two-mode state holds cutoff^2 amplitudes: 16 MiB at the largest cutoff.
MAX_CUTOFF = 1024
# Largest 2j: a spin party then has dimension 1025, close to MAX_CUTOFF.
MAX_TWOJ = 1024
# about 12 s of the four-setting N-family search at N = 3 (2-core x86_64)
MAX_RESTARTS = 10 ** 5
# the models ``lhv.MODELS`` holds before any ``register_model`` call
LHV_MODELS = ("sign",)
DEFAULT_SAMPLES = 1_000_000
# largest sample count one estimate takes: about 60 s of the sign model's CHSH
# at 10^6 samples per 0.057 s (2-core x86_64); every larger count is rejected,
# not run
MAX_SAMPLES = 10**9

CHSH_CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


class NumericGuardError(ValueError):
    """A numeric precondition failed (normalization, truncation tail, ...)."""


def classify(value, classical_bound, quantum_bound, guard=0.0) -> bool:
    """Whether a CHSH or Mermin ``value`` violates local realism: |value|
    above ``classical_bound + guard``, so a threshold value does not.
    Raises NumericGuardError when |value| exceeds ``quantum_bound``, which
    no quantum state does, by more than 1e-9, and for NaN."""
    if not abs(value) <= quantum_bound + 1e-9:
        raise NumericGuardError(f"|value| = {abs(value)} exceeds the quantum bound "
                                f"{quantum_bound}")
    return bool(abs(value) > classical_bound + guard)


# the guard of a searched value, so the search's float noise cannot promote a
# threshold case
SEARCH_GUARD = 1e-9


def report(scenario: str, params: dict, settings, value, classical_bound=CHSH_CLASSICAL_BOUND,
           quantum_bound=TSIRELSON_BOUND, guard=0.0, **fields) -> dict:
    """Every route's report: scenario, params, settings, value, bounds, the
    ``classify`` verdict under ``guard``, then ``fields`` in order."""
    return {
        "scenario": scenario,
        "params": params,
        "settings": [float(s) for s in settings],
        "value": float(value),
        "classical_bound": float(classical_bound),
        "quantum_bound": float(quantum_bound),
        "violated": classify(value, classical_bound, quantum_bound, guard),
        **fields,
    }


def _check_cutoff(cutoff: int) -> int:
    message = f"Fock cutoff must be a positive even integer up to {MAX_CUTOFF}, got {cutoff}"
    if not 2 <= cutoff <= MAX_CUTOFF:  # before int(): NaN and inf fail here
        raise ValueError(message)
    cutoff = int(cutoff)
    if cutoff % 2:
        raise ValueError(message)
    return cutoff


def _check_spin(j) -> int:
    """Validate j is a positive integer or half-integer with 2j at most
    MAX_TWOJ; return 2j as int."""
    message = (f"spin must be a positive integer or half-integer up to "
               f"{MAX_TWOJ / 2:g}, got {j}")
    if not 0 < 2 * j <= MAX_TWOJ:  # before round(): NaN and inf fail here
        raise ValueError(message)
    twoj = int(round(2 * j))
    if abs(2 * j - twoj) > 1e-9 or twoj < 1:
        raise ValueError(message)
    return twoj


def _check_family_n(n) -> int:
    """Validate the N-family parameter, an integer N >= 3 within float range
    (the amplitudes take sqrt(N - 3)); return it as int."""
    if not abs(n) <= sys.float_info.max:  # NaN fails here too
        raise ValueError(f"family parameter N must be finite and at most "
                         f"{sys.float_info.max:g}")
    if n != int(n):
        raise ValueError(f"family parameter N must be an integer, got {n!r}")
    n = int(n)
    if n < 3:
        raise ValueError(f"family parameter N must be >= 3, got {n}")
    return n


def _check_bell_index(k) -> int:
    """Validate a Bell state index, 0 to 3; return it as int."""
    if k not in (0, 1, 2, 3):  # NaN fails here too
        raise ValueError(f"Bell index must be in 0..3, got {k}")
    return int(k)


def _check_finite(x) -> float:
    """Validate a finite real number; return it as float."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def _check_squeezing(lam) -> float:
    """Validate the squeezing parameter 0 < lam < 1; return it as float."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:  # NaN fails here too
        raise ValueError(f"squeezing parameter must satisfy 0 < lam < 1, got {lam}")
    return lam


def _coherent_norm(eta, sigma, phi) -> float:
    """1 + cos(phi) e^(-2s), s = eta^2 + sigma^2: half the squared norm of
    |eta, sigma> + e^(i phi) |-eta, -sigma>.  Written as 2 cos^2(phi/2) +
    cos(phi) expm1(-2s), which subtracts no two numbers near 1, so it keeps
    its digits where cos(phi) is near -1 and s near 0.  Raises
    NumericGuardError where the branches are one vector and cancel: s = 0
    and cos(phi) = -1."""
    s, c = eta * eta + sigma * sigma, math.cos(phi)
    if s == 0.0 and c == -1.0:
        raise NumericGuardError("degenerate normalization: the two branches cancel "
                                f"exactly (eta={eta}, sigma={sigma}, phi={phi})")
    return 2.0 * math.cos(0.5 * phi) ** 2 + c * math.expm1(-2.0 * s)


def _check_unit(vec, label: str) -> list:
    """Validate a unit 3-vector, its norm within 1e-9 of 1; return its
    components as floats."""
    try:
        # a nested sequence or array is no component: it shortens v
        v = [float(x) for x in vec if not hasattr(x, "__len__")]
        ok = len(v) == len(vec) == 3 and abs(math.hypot(*v) - 1.0) <= 1e-9  # NaN fails
    except TypeError:  # a scalar, or an iterator without a length
        ok = False
    if not ok:
        raise ValueError(f"setting {label} must be a unit 3-vector, got {vec}")
    return v


class Param(NamedTuple):
    """A scenario parameter: factory keyword, flag, flag parse, value check,
    help, and its default, None for a required one."""

    keyword: str
    flag: str
    parse: type
    check: object
    help: str
    default: object = None


class ScenarioSpec(NamedTuple):
    """A scenario's parameters, party count, bounds and whether it has a
    matrix route (``oracle``), whose Fock ``cutoff`` the factory of a
    ``truncated`` one takes.  For the command line: its subcommand and help
    (scenarios that share one differ in party count, picked by --parties),
    whether it takes --angles, and ``polar``, the scenario on Bloch-vector
    settings that --polar evaluates and --optimize searches in its place."""

    params: tuple = ()
    parties: int = 2
    classical_bound: float = CHSH_CLASSICAL_BOUND
    quantum_bound: float = TSIRELSON_BOUND
    truncated: bool = False
    oracle: bool = False
    command: str = ""
    help: str = ""
    angles: bool = True
    polar: str = ""


_BELL_INDEX = Param("bell_index", "--bell-index", int, _check_bell_index,
                    "Bell state index, 0 to 3", 0)
_MERMIN = dict(classical_bound=2.0, oracle=True, command="mermin",
               help="Mermin correlator on a GHZ state")

# every registered scenario; ``optimize.scenario_<name>`` (- read as _) builds it
SCENARIOS = {
    "chsh-phase": ScenarioSpec((_BELL_INDEX,), oracle=True, command="chsh",
                               help="CHSH correlator on a Bell state",
                               polar="chsh-polar"),
    "chsh-polar": ScenarioSpec((_BELL_INDEX,)),
    "product-state": ScenarioSpec(),
    "gisin": ScenarioSpec((Param("n", "--n", int, _check_family_n,
                                 "N-family parameter, an integer >= 3"),)),
    "r-state": ScenarioSpec((Param("r", "--r", float, _check_finite,
                                   "weight r of |-+> against |+->"),)),
    # its phase count grows with j, so it takes no --angles
    "spin": ScenarioSpec((Param("j", "--j", float, _check_spin,
                                "spin (integer or half-integer)"),),
                         command="spin", help="CHSH on the spin-j singlet", angles=False),
    "squeezed": ScenarioSpec((Param("lam", "--lambda", float, _check_squeezing,
                                    "squeezing parameter in (0, 1)"),),
                             truncated=True, oracle=True, command="squeezed",
                             help="CHSH on the two-mode squeezed state"),
    "coherent": ScenarioSpec((Param("eta", "--eta", float, _check_finite,
                                    "coherent amplitude of mode A", 0.1),
                              Param("sigma", "--sigma", float, _check_finite,
                                    "coherent amplitude of mode B", 0.1),
                              Param("phi", "--phi", float, _check_finite,
                                    "phase between the two branches", math.pi)),
                             truncated=True, oracle=True, command="coherent",
                             help="CHSH on the entangled coherent state"),
    "mermin3": ScenarioSpec(parties=3, quantum_bound=4.0, **_MERMIN),
    "mermin4": ScenarioSpec(parties=4, quantum_bound=4.0 * math.sqrt(2.0), **_MERMIN),
}


def _check_scenario(name: str, params: dict) -> dict:
    """The entries of ``params`` that scenario ``name`` takes, None counting as
    absent, over the table's defaults; raises KeyError for an unknown name,
    and ValueError when a required parameter is missing or one the scenario
    does not take is given."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    spec = SCENARIOS[name]
    table = {p.keyword: p.default for p in spec.params}
    given = table | {k: v for k, v in params.items() if v is not None}
    missing = [k for k, v in given.items() if v is None]
    if missing:
        raise ValueError(f"scenario {name!r} requires parameters {missing}")
    unused = sorted(given.keys() - table.keys() - ({"cutoff"} if spec.truncated else set()))
    if unused:
        raise ValueError(f"scenario {name!r} does not take parameters {unused}")
    return given
