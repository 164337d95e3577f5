"""Maximize |correlator| over observable settings for a named scenario.

Every setting is a unit vector (see ``correlators``), a Bloch vector of
width 3 or a phase (cos t, sin t) of width 2, so a scenario's S settings
form arrays of shape (..., S, w).  The search draws ``restarts`` seeded
uniform starts and runs exact coordinate ascent on f from each, and on f
alone: negating one party's settings maps f to -f, and on integer spin j,
f = s(1 + C) with s = 2/(2j+1), the peak s(1 + max C) of f lies above the
peak s(max C - 1) of -f.  f is linear in each setting u with the others
fixed, f = c + v.u, so each step writes u = v/|v| (the see-saw step of
Werner and Wolf, QIC 1, 1 (2001)); no angle enters the loop.  The ascents of
up to ``START_BLOCK`` starts run in lockstep, one evaluator call per step for
all of them, and each ends where it would end on its own, bit for bit.
Angles are made only at the ends: ``Scenario.value`` reads them (the CLI's
``--angles``, a scenario's ``defaults``), and a report's settings leave as
``correlators.angles_of``.  The pipeline is deterministic given (scenario,
restarts, seed); the first starts do not depend on their count, so the best
value is monotone in restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from operator import add
from typing import NamedTuple

import numpy as np

from . import correlators as co
from . import linalg, observables, states
from .limits import (CHSH_CLASSICAL_BOUND, DEFAULT_CUTOFF, MAX_RESTARTS, SCENARIOS,
                     SEARCH_GUARD, TSIRELSON_BOUND, NumericGuardError, _check_bell_index,
                     _check_cutoff, _check_family_n, _check_scenario, _check_spin,
                     _check_squeezing, report)
from .observables import PairingScheme

# coordinate-ascent sweeps per start; a run stopped here is not converged
MAX_SWEEPS = 1000
# starts ascended together, one row each: an evaluator call costs about the
# same up to some 100 rows and grows with them past that, so larger blocks
# save few calls and only add memory
START_BLOCK = 64
# where a step evaluates a setting of width w, one row per point:
# u = +e1, -e1, +e2, then +e3 for a Bloch vector
PROBE = {2: np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
         3: np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])}


@dataclass(frozen=True)
class Scenario:
    """A state family with an observable family on ``settings`` unit vectors
    of ``width`` components each: 3 for a Bloch vector, 2 for a phase.

    ``evaluator`` maps an array of shape (..., settings, width) to
    correlator values of shape (...), multilinear in the settings.
    ``oracle``, when set, evaluates one angle vector through the matrix
    route (each party's observables applied to the state), sharing no code
    with ``evaluator``, its reports adding ``oracle_params`` (a Fock
    cutoff) to ``params``; ``defaults`` is the maximizing angle vector, when
    known.  Angles come one per phase, or as the polar angles theta of all
    settings followed by their azimuths alpha.
    """

    name: str
    evaluator: object
    settings: int
    width: int
    classical_bound: float = CHSH_CLASSICAL_BOUND
    quantum_bound: float = TSIRELSON_BOUND
    params: dict = field(default_factory=dict)
    oracle: object = None
    oracle_params: dict = field(default_factory=dict)
    defaults: tuple = ()

    def __post_init__(self):
        if self.settings < 1 or self.width not in PROBE:
            raise ValueError("scenario needs at least one setting of width 2 or 3")

    def value(self, angles):
        """The evaluator at settings given as angles."""
        return self.evaluator(co.settings_of(angles, self.width))

    def report(self, angles=None, oracle=False, restarts=None, seed=0) -> dict:
        """The ``limits.report`` of one route.  Given ``restarts``, the
        search's best, its params then restarts, seed, evaluations and
        converged, under ``SEARCH_GUARD``; else ``angles`` (default
        ``defaults``) on the closed form or, with ``oracle``, on the matrix
        route, named for the family (chsh-oracle, coherent-oracle, ...) and
        its params then ``oracle_params``."""
        bounds = self.classical_bound, self.quantum_bound
        if restarts is not None:
            result = maximize_violation(self, restarts=restarts, seed=seed)
            params = dict(self.params, restarts=restarts, seed=seed,
                          evaluations=result.evaluations, converged=result.converged)
            return report(self.name, params, result.best_settings, result.best_value,
                          *bounds, guard=SEARCH_GUARD)
        settings = self.defaults if angles is None else angles
        if not oracle:
            return report(self.name, dict(self.params), settings, self.value(settings), *bounds)
        if self.oracle is None:
            raise ValueError(f"scenario {self.name!r} has no matrix route")
        return report(self.name.removesuffix("-phase") + "-oracle",
                      self.params | self.oracle_params, settings, self.oracle(settings), *bounds)


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_settings: tuple
    evaluations: int
    converged: bool


def _normalized(x: np.ndarray) -> np.ndarray:
    """Each setting of x (..., w) divided by its length, its squares summed
    left to right as for one setting alone."""
    squares = x * x
    norm = np.sqrt(reduce(add, (squares[..., j] for j in range(x.shape[-1]))))
    return x / norm[..., None]


class Ascent(NamedTuple):
    """Where one ``minimize`` call's ascents ended.  Row r of ``x`` (k, S, w)
    is where ascent r stopped and ``success[r]`` whether it stopped on a
    sweep that gained nothing; ``fun`` is minus the largest value any row
    reached and ``nfev`` the evaluations all rows made together."""

    x: np.ndarray
    fun: float
    nfev: int
    success: np.ndarray


def minimize(fun, x0) -> Ascent:
    """Minimize -fun from each row of ``x0`` (k, S, w), S unit-vector
    settings of width w, by exact coordinate ascent on fun, all rows in
    lockstep.

    ``maximize_violation`` calls it through the module global, so the
    benchmark's layer timing can wrap ``optimize.minimize``.

    A sweep steps through the settings in order, each straight to its exact
    maximizer with the others fixed: fun at u = +e1, -e1, +e2 (and +e3) gives
    c = (f(+e1) + f(-e1))/2, v1 = (f(+e1) - f(-e1))/2 and vi = f(+ei) - c,
    and fun = c + v.u is largest, at c + |v|, where u = v/|v|.  A setting
    moves only on a strict gain, and a row's sweeps repeat until one moves
    none, or ``MAX_SWEEPS`` ran out.  After each sweep, its step is tried
    again, doubled while that gains, each setting renormalized.  Each step
    makes one ``fun`` call on an (m, w + 1, S, w) probe of the m rows still
    ascending, each doubling round one on an (m, S, w) batch, and |v| is
    taken per row with ``math``, so every row takes the steps it would take
    on its own.  ``nfev`` counts the points of these calls: 4 per Bloch step,
    3 per phase step and 1 per pattern-move trial of each row.
    """
    x = np.array(x0, dtype=float)
    k, count, width = x.shape
    probe_at = PROBE[width]
    best = np.array(fun(x), dtype=float)
    nfev = np.ones(k, dtype=np.int64)
    success = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    for _ in range(MAX_SWEEPS):
        # the rows still ascending, compacted for the sweep
        xa, besta = x[rows], best[rows]
        start = xa.copy()
        moved = np.zeros(rows.size, dtype=bool)
        nfev[rows] += count * (width + 1)
        for i in range(count):
            probe = np.repeat(xa[:, None], width + 1, axis=1)
            probe[:, :, i] = probe_at
            f = fun(probe)
            c = 0.5 * (f[:, 0] + f[:, 1])
            v = f[:, 1:] - c[:, None]
            v[:, 0] = 0.5 * (f[:, 0] - f[:, 1])
            norm = np.array(list(map(math.hypot, *v.T.tolist())))
            value = c + norm
            gain = value > besta
            xa[gain, i] = v[gain] / norm[gain, None]
            besta = np.where(gain, value, besta)
            moved |= gain
        x[rows], best[rows] = xa, besta
        success[rows[~moved]] = True
        rows, step = rows[moved], xa[moved] - start[moved]
        if not rows.size:
            break
        # pattern move: repeat the sweep's step, doubled while it gains; a
        # near-flat ridge (r-state near r = 1) costs single sweeps hundreds
        climbing = rows
        while climbing.size:
            trial = _normalized(x[climbing] + step)
            value = fun(trial)
            nfev[climbing] += 1
            gain = value > best[climbing]
            climbing, step = climbing[gain], 2.0 * step[gain]
            x[climbing], best[climbing] = trial[gain], value[gain]
    return Ascent(x, -float(best.max()), int(nfev.sum()), success)


def maximize_violation(scenario: Scenario, restarts: int = 8,
                       seed: int = 0) -> OptimizationResult:
    """Largest |correlator| over the scenario's settings.

    Draws ``restarts`` uniform unit-vector starts from ``seed``, a standard
    normal per setting normalized, and ascends f, not |f|, from each: from a
    start where f < 0, ascending |f| would climb the peak of -f, which is
    never the higher one (see the module docstring).  The starts are drawn
    and ascended ``START_BLOCK`` at a time, so memory does not grow with
    ``restarts``; consecutive draws give the rows of one (restarts, S, w)
    draw.  Ties between the ascents' optima break toward the
    lexicographically smallest angle vector.  A winning run that hit the
    sweep cap is flagged as not converged, never raised.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be between 1 and {MAX_RESTARTS}")
    evaluator = scenario.evaluator
    rng = np.random.default_rng(seed)
    evaluations = 0
    best = None  # (value, settings tuple, converged)
    for first in range(0, restarts, START_BLOCK):
        shape = (min(START_BLOCK, restarts - first), scenario.settings, scenario.width)
        res = minimize(evaluator, _normalized(rng.standard_normal(shape)))
        evaluations += int(res.nfev)
        values = np.abs(evaluator(res.x))
        # only the rows not below the block's best can win, so only they
        # are converted to angles (a NaN makes every row such a row)
        for r in np.flatnonzero(~(values < values.max())).tolist():
            value, settings = float(values[r]), tuple(co.angles_of(res.x[r]).tolist())
            if best is None or value > best[0] or (value == best[0] and settings < best[1]):
                best = (value, settings, bool(res.success[r]))
    return OptimizationResult(best_value=best[0], best_settings=best[1],
                              evaluations=evaluations, converged=best[2])


# ---------------------------------------------------------------------------
# Scenario factories
# ---------------------------------------------------------------------------

def _polar_scenario(name, t, params=None):
    # settings a, a', b, b' as Bloch vectors; angles theta, theta', omega,
    # omega', alpha, alpha', beta, beta'
    return Scenario(name, partial(co.chsh, t), 4, 3, params=params or {})


def _phase_scenario(name, evaluator, state, scheme, build_operator, defaults,
                    params=None, oracle_params=None) -> Scenario:
    """``SCENARIOS[name]`` on two phases per party: ``evaluator`` of them,
    and an oracle that applies ``build_operator`` to one phase-flip
    observable per setting on ``state()``.  The oracle builds the state per
    call, so a truncation guard fails the oracle route only and the closed
    form never pays for it; it raises NumericGuardError when the expectation
    of a Hermitian operator comes out with an imaginary part above 1e-10."""
    spec = SCENARIOS[name]

    def oracle(settings):
        psi = state()
        obs = [observables.phase_flip_observable(s, scheme) for s in settings]
        operator = build_operator(*obs)
        value = linalg.expectation(operator, psi)
        if operator.hermitian and abs(value.imag) > 1e-10:
            raise NumericGuardError(f"Hermitian expectation came out complex: {value}")
        return value.real

    return Scenario(name, evaluator, 2 * spec.parties, 2,
                    classical_bound=spec.classical_bound, quantum_bound=spec.quantum_bound,
                    params=params or {}, oracle=oracle, oracle_params=oracle_params or {},
                    defaults=defaults)


def scenario_chsh_phase(bell_index) -> Scenario:
    """Phase-flip CHSH on a Bell state: the closed form on its T literal, the
    oracle on its amplitudes."""
    k = _check_bell_index(bell_index)
    # indices 2 and 3 are of the cos(a - b) family, as coherent is past |phi| = pi/2
    return _phase_scenario("chsh-phase", partial(co.chsh, co.T_BELL_PHASE[k]),
                           partial(states.bell_state, k), PairingScheme.qubit(),
                           observables.chsh_operator,
                           co.STANDARD_CHSH_ANGLES_DIFF if k > 1 else co.STANDARD_CHSH_ANGLES,
                           params={"bell_index": k})


def scenario_chsh_polar(bell_index) -> Scenario:
    k = _check_bell_index(bell_index)
    return _polar_scenario("chsh-polar", co.T_BELL_POLAR[k], params={"bell_index": k})


def scenario_product_state() -> Scenario:
    # |+-> is the r-state at r = 0
    return _polar_scenario("product-state", co.rstate_correlation(0.0))


def scenario_gisin(n) -> Scenario:
    n = _check_family_n(n)
    return _polar_scenario("gisin", co.gisin_correlation(n), params={"n": n})


def scenario_r_state(r) -> Scenario:
    r = float(r)
    return _polar_scenario("r-state", co.rstate_correlation(r), params={"r": r})


def scenario_spin(j) -> Scenario:
    twoj = _check_spin(j)
    npairs = (twoj + 1) // 2

    def evaluator(x):
        # settings: the npairs phases of a, then of a', b and b'
        return co.spin_chsh(twoj, x.reshape(x.shape[:-2] + (4, 2 * npairs)))

    return Scenario(f"spin-{twoj / 2:g}", evaluator, 4 * npairs, 2, params={"j": twoj / 2.0},
                    defaults=tuple(np.repeat(co.STANDARD_CHSH_ANGLES_DIFF, npairs)))


def scenario_squeezed(lam, cutoff=DEFAULT_CUTOFF) -> Scenario:
    lam, cutoff = _check_squeezing(lam), _check_cutoff(cutoff)
    return _phase_scenario("squeezed", partial(co.chsh, co.squeezed_correlation(lam)),
                           partial(states.squeezed_state, lam, cutoff=cutoff),
                           PairingScheme.even_odd(cutoff), observables.chsh_operator,
                           co.STANDARD_CHSH_ANGLES, params={"lam": lam},
                           oracle_params={"cutoff": cutoff})


def scenario_coherent(eta, sigma, phi, cutoff=DEFAULT_CUTOFF) -> Scenario:
    eta, sigma, phi = float(eta), float(sigma), float(phi)
    cutoff = _check_cutoff(cutoff)
    # T on first use, so a guard failure of its series fails this route only
    t = cache(partial(co.coherent_correlation, eta, sigma, phi))
    return _phase_scenario(
        "coherent", lambda x: co.chsh(t(), x),
        partial(states.entangled_coherent, eta, sigma, phi, cutoff=cutoff),
        PairingScheme.even_odd(cutoff), observables.chsh_operator,
        co.STANDARD_CHSH_ANGLES_DIFF if np.cos(phi) < 0 else co.STANDARD_CHSH_ANGLES,
        params={"eta": eta, "sigma": sigma, "phi": phi}, oracle_params={"cutoff": cutoff})


def scenario_mermin3() -> Scenario:
    # the matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
    return _phase_scenario("mermin3", co.mabk, partial(states.ghz_state, 3),
                           PairingScheme.qubit(), observables.mermin3_operator,
                           co.STANDARD_MERMIN_ANGLES[3], params={"parties": 3})


def scenario_mermin4() -> Scenario:
    return _phase_scenario("mermin4", lambda x: -co.mabk(x), partial(states.ghz_state, 4),
                           PairingScheme.qubit(), observables.mermin4_operator,
                           co.STANDARD_MERMIN_ANGLES[4], params={"parties": 4})


def make_scenario(name: str, **params) -> Scenario:
    """Build a scenario of ``limits.SCENARIOS`` through its factory
    ``scenario_<name>``, with - read as _.  Raises KeyError for an unknown
    name and ValueError when a required parameter is missing or one it does
    not take is given; a parameter set to None counts as absent."""
    params = _check_scenario(name, params)
    return globals()[f"scenario_{name.replace('-', '_')}"](**params)
