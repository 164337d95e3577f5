"""Maximize |correlator| over observable parameters for a named scenario.

The search draws ``restarts`` seeded uniform starts and runs exact coordinate
ascent on f from each, and on f alone, since the peak of f is never below
the peak of -f.  A shift of one party's settings (theta + pi on Alice's
polar settings, pi on her phases) maps f to -f; on integer spin j,
f = s(1 + C) with s = 2/(2j+1), the same shift maps C to -C, and the peak
s(1 + max C) of f lies above the peak s(max C - 1) of -f.  Each step moves
one setting, a unit vector u, straight to its exact maximizer with the
others fixed: f = c + v.u, so u = v/|v| (the see-saw step of Werner and
Wolf, QIC 1, 1 (2001)).  The ascents of up to ``START_BLOCK`` starts run in lockstep,
one evaluator call per step for all of them, and each ends where it would
end on its own, bit for bit.  The whole pipeline is deterministic given
(scenario, restarts, seed); the first starts do not depend on their count,
so the best value is monotone in restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import correlators as co
from . import linalg, observables, states
from .limits import (CHSH_CLASSICAL_BOUND, DEFAULT_CUTOFF, MAX_RESTARTS, SCENARIOS,
                     TSIRELSON_BOUND, NumericGuardError, _check_cutoff, _check_family_n,
                     _check_scenario, _check_spin, _check_squeezing)
from .observables import PairingScheme

# coordinate-ascent sweeps per start; a run stopped here is not converged
MAX_SWEEPS = 1000
# starts ascended together, one row each: an evaluator call costs about the
# same up to some 100 rows and grows with them past that, so larger blocks
# save few calls and only add memory
START_BLOCK = 64
TWO_PI = 2.0 * np.pi
# where a step evaluates a setting, keyed by its angle count, one row per
# point: u = +e1, -e1, +e2, then +e3 for a Bloch vector
PROBE = {1: np.array([[0.0], [np.pi], [0.5 * np.pi]]),
         2: np.array([[0.0, 0.0], [np.pi, 0.0], [0.5 * np.pi, 0.0], [0.5 * np.pi, 0.5 * np.pi]])}

PHASE_DOMAIN = (0.0, TWO_PI)
POLAR_DOMAIN = (0.0, np.pi)


@dataclass(frozen=True)
class Scenario:
    """A state family with an observable family on ``ndim`` parameters.

    ``evaluator`` maps a parameter array of shape (..., ndim) to correlator
    values of shape (...).  ``polar_mate`` maps each polar angle theta to the
    phase alpha it pairs with in one Bloch vector, so canonicalizing
    theta -> 2 pi - theta can shift the mate by pi without changing the
    value; every other parameter is a phase.  ``oracle``, when set,
    evaluates one setting vector through the matrix route (each party's
    observables applied to the state), sharing no code with ``evaluator``;
    ``defaults`` is the maximizing setting vector, when known.
    """

    name: str
    evaluator: object
    ndim: int
    polar_mate: dict = field(default_factory=dict)
    classical_bound: float = CHSH_CLASSICAL_BOUND
    quantum_bound: float = TSIRELSON_BOUND
    params: dict = field(default_factory=dict)
    oracle: object = None
    defaults: tuple = ()

    def __post_init__(self):
        if self.ndim < 1:
            raise ValueError("scenario needs at least one parameter")

    @property
    def domain(self) -> tuple:
        """(lo, hi) per parameter: [0, pi] for a polar angle, [0, 2 pi] for a phase."""
        return tuple(POLAR_DOMAIN if i in self.polar_mate else PHASE_DOMAIN
                     for i in range(self.ndim))


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_settings: tuple
    evaluations: int
    converged: bool


def _canonicalize(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Wrap settings of shape (..., ndim) into their domains without changing
    the evaluator value: theta > pi folds to 2 pi - theta, its mate shifted
    by pi, before the phases wrap."""
    out = np.array(x, dtype=float)
    thetas, mates = list(scenario.polar_mate), list(scenario.polar_mate.values())
    theta = out[..., thetas] % TWO_PI
    flip = theta > np.pi
    out[..., thetas] = np.where(flip, TWO_PI - theta, theta)
    out[..., mates] += np.where(flip, np.pi, 0.0)
    return out % TWO_PI


class Ascent(NamedTuple):
    """Where one ``minimize`` call's ascents ended.  Row r of ``x`` (k, d) is
    where ascent r stopped and ``success[r]`` whether it stopped on a sweep
    that gained nothing; ``fun`` is minus the largest value any row reached
    and ``nfev`` the evaluations all rows made together."""

    x: np.ndarray
    fun: float
    nfev: int
    success: np.ndarray


def minimize(fun, x0, polar_mate) -> Ascent:
    """Minimize -fun from each row of ``x0`` by exact coordinate ascent on
    fun, all rows in lockstep.

    ``maximize_violation`` calls it through the module global, so the
    benchmark's layer timing can wrap ``optimize.minimize``.

    A sweep steps through the settings in parameter order, each straight to
    its exact maximizer with the others fixed.  A setting is a unit vector
    u: a polar pair (theta, alpha) = (i, polar_mate[i]) is (cos theta,
    sin theta cos alpha, sin theta sin alpha), any other parameter t is a
    phase, (cos t, sin t).  fun = c + v.u, and fun at u = +e1, -e1, +e2
    (and +e3) gives c = (f(+e1) + f(-e1))/2, v1 = (f(+e1) - f(-e1))/2 and
    vi = f(+ei) - c; fun is largest, at c + |v|, where u = v/|v|: the last
    angle, t or alpha, is atan2(vk, vk-1), and theta atan2(|(v2, v3)|, v1).
    A setting moves only on a strict gain, and a row's sweeps repeat until
    one moves none, or ``MAX_SWEEPS`` ran out.  After each sweep, its step
    is tried again, doubled while that gains.  Each step makes one ``fun``
    call on an (m, 4, d) or (m, 3, d) probe of the m rows still ascending,
    and each doubling round one on an (m, d) batch; the row updates run per
    row with ``math``, so every row takes the steps it would take on its own.
    ``nfev`` counts the points of these calls: 4 per polar step, 3 per phase
    step and 1 per pattern-move trial of each row.
    """
    x = np.array(x0, dtype=float)
    k, d = x.shape
    best = np.array(fun(x), dtype=float)
    nfev = np.ones(k, dtype=np.int64)
    success = np.zeros(k, dtype=bool)
    # one step per setting: a polar index with its mate, or a lone phase
    steps = [(i, polar_mate[i]) if i in polar_mate else (i,)
             for i in range(d) if i not in polar_mate.values()]
    rows = np.arange(k)
    for _ in range(MAX_SWEEPS):
        start = x[rows]
        moved = np.zeros(rows.size, dtype=bool)
        for cols in steps:
            probe_at = PROBE[len(cols)]
            probe = np.repeat(x[rows, None, :], len(probe_at), axis=1)
            probe[:, :, cols] = probe_at
            f = fun(probe)
            nfev[rows] += len(probe_at)
            c = 0.5 * (f[:, 0] + f[:, 1])
            v = [0.5 * (f[:, 0] - f[:, 1])] + [f[:, i] - c for i in range(2, len(probe_at))]
            # |v| as hypot(v2, ..., v1): hypot(vx, vy, vz) for a Bloch vector
            value = c + list(map(math.hypot, *(vi.tolist() for vi in v[1:] + v[:1])))
            gain = value > best[rows]
            v = [vi[gain].tolist() for vi in v]
            if len(cols) == 2:
                x[rows[gain], cols[0]] = list(map(math.atan2, map(math.hypot, *v[1:]), v[0]))
            x[rows[gain], cols[-1]] = list(map(math.atan2, v[-1], v[-2]))
            best[rows[gain]] = value[gain]
            moved |= gain
        success[rows[~moved]] = True
        rows, step = rows[moved], x[rows[moved]] - start[moved]
        if not rows.size:
            break
        # pattern move: repeat the sweep's step, doubled while it gains; a
        # near-flat ridge (r-state near r = 1) costs single sweeps hundreds.
        # Only whole multiples of the step are taken, so a 2 pi in it is inert.
        climbing = rows
        while climbing.size:
            trial = x[climbing] + step
            value = fun(trial)
            nfev[climbing] += 1
            gain = value > best[climbing]
            climbing, step = climbing[gain], 2.0 * step[gain]
            x[climbing], best[climbing] = trial[gain], value[gain]
    return Ascent(x, -float(best.max()), int(nfev.sum()), success)


def maximize_violation(scenario: Scenario, restarts: int = 8,
                       seed: int = 0) -> OptimizationResult:
    """Largest |correlator| over the scenario domain.

    Draws ``restarts`` uniform starts from ``seed`` and ascends f, not |f|,
    from each: from a start where f < 0, ascending |f| would climb the peak
    of -f, which is never the higher one (see the module docstring).  The
    starts are drawn and ascended ``START_BLOCK`` at a time, so memory does
    not grow with ``restarts``; consecutive draws give the rows of one
    (restarts, d) draw.
    Ties between the ascents' optima break toward the lexicographically
    smallest settings vector.  A winning run that hit the sweep cap is
    flagged as not converged, never raised.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be between 1 and {MAX_RESTARTS}")
    evaluator = scenario.evaluator
    lo, hi = np.array(scenario.domain).T
    rng = np.random.default_rng(seed)
    evaluations = 0
    best = None  # (value, settings tuple, converged)
    for first in range(0, restarts, START_BLOCK):
        starts = rng.uniform(lo, hi, size=(min(START_BLOCK, restarts - first), scenario.ndim))
        res = minimize(evaluator, starts, scenario.polar_mate)
        evaluations += int(res.nfev)
        canonical = _canonicalize(scenario, res.x)
        values = np.abs(evaluator(canonical)).tolist()
        for value, settings, success in zip(values, canonical.tolist(), res.success.tolist()):
            settings = tuple(settings)
            if best is None or value > best[0] or (value == best[0] and settings < best[1]):
                best = (value, settings, success)
    return OptimizationResult(best_value=best[0], best_settings=best[1],
                              evaluations=evaluations, converged=best[2])


def table_gisin(n_values, restarts: int = 8, seed: int = 0):
    """Maximal CHSH value of the N-family state for each N, as (N, max) rows."""
    rows = []
    for n in n_values:
        result = maximize_violation(make_scenario("gisin", n=n),
                                    restarts=restarts, seed=seed)
        rows.append((int(n), result.best_value))
    return rows


# ---------------------------------------------------------------------------
# Scenario factories
# ---------------------------------------------------------------------------

def _on_columns(form):
    """The evaluator form(p[..., 0], p[..., 1], ...): one argument per parameter."""
    return lambda p: form(*(p[..., i] for i in range(p.shape[-1])))


def _on_pairs(form, *args):
    """The evaluator form(*args, p[..., 0:2], p[..., 2:4], ...): each party's
    two settings as one slice of p, not copied."""
    return lambda p: form(*args, *(p[..., k:k + 2] for k in range(0, p.shape[-1], 2)))


def _polar8_scenario(name, pair_form, *args, params=None):
    # parameter order: theta, theta', omega, omega', alpha, alpha', beta, beta'
    return Scenario(name, _on_pairs(pair_form, *args), 8,
                    polar_mate={0: 4, 1: 5, 2: 6, 3: 7}, params=params or {})


def _phase_scenario(name, evaluator, state, scheme, build_operator, defaults,
                    params=None) -> Scenario:
    """``SCENARIOS[name]`` on two phases per party: ``evaluator`` of them,
    and an oracle that applies ``build_operator`` to one phase-flip
    observable per setting on ``state()``.  The oracle builds the state per
    call, so a truncation guard fails the oracle route only and the closed
    form never pays for it; it raises NumericGuardError when the expectation
    of a Hermitian operator comes out with an imaginary part above 1e-10."""
    spec = SCENARIOS[name]
    ndim = 2 * spec.parties

    def oracle(settings):
        psi = state()
        obs = [observables.phase_flip_observable(s, scheme) for s in settings]
        operator = build_operator(*obs)
        value = linalg.expectation(operator, psi)
        if operator.hermitian and abs(value.imag) > 1e-10:
            raise NumericGuardError(f"Hermitian expectation came out complex: {value}")
        return value.real

    return Scenario(name, evaluator, ndim,
                    classical_bound=spec.classical_bound, quantum_bound=spec.quantum_bound,
                    params=params or {}, oracle=oracle, defaults=defaults)


def scenario_chsh_phase(bell_index=0) -> Scenario:
    """Phase-flip CHSH on a Bell state.  The closed form is the one of Bell
    index 0; the oracle evaluates the indexed state."""
    return _phase_scenario("chsh-phase", _on_columns(co.chsh_phi0_phase),
                           partial(states.bell_state, bell_index), PairingScheme.qubit(),
                           observables.chsh_operator, co.STANDARD_CHSH_ANGLES)


def scenario_chsh_polar() -> Scenario:
    return _polar8_scenario("chsh-polar", co._chsh_phi0_polar_pairs)


def scenario_product_state() -> Scenario:
    # |+-> is the r-state at r = 0
    return _polar8_scenario("product-state", co._chsh_rstate_pairs, 0.0)


def scenario_gisin(n) -> Scenario:
    n = _check_family_n(n)
    return _polar8_scenario("gisin", co._chsh_gisin_pairs, n, params={"n": n})


def scenario_r_state(r) -> Scenario:
    r = float(r)
    return _polar8_scenario("r-state", co._chsh_rstate_pairs, r, params={"r": r})


def scenario_spin(j) -> Scenario:
    twoj = _check_spin(j)
    npairs = (twoj + 1) // 2

    def evaluator(p):
        return co.chsh_spin_j(
            twoj / 2.0,
            p[..., 0:npairs],
            p[..., npairs:2 * npairs],
            p[..., 2 * npairs:3 * npairs],
            p[..., 3 * npairs:4 * npairs],
        )

    return Scenario(f"spin-{twoj / 2:g}", evaluator, 4 * npairs, params={"j": twoj / 2.0},
                    defaults=tuple(np.repeat(co.STANDARD_CHSH_ANGLES_DIFF, npairs)))


def scenario_squeezed(lam, cutoff=DEFAULT_CUTOFF) -> Scenario:
    lam, cutoff = _check_squeezing(lam), _check_cutoff(cutoff)
    return _phase_scenario("squeezed", _on_columns(partial(co.chsh_squeezed, lam)),
                           partial(states.squeezed_state, lam, cutoff=cutoff),
                           PairingScheme.even_odd(cutoff), observables.chsh_operator,
                           co.STANDARD_CHSH_ANGLES, params={"lam": lam})


def scenario_coherent(eta, sigma, phi, cutoff=DEFAULT_CUTOFF) -> Scenario:
    eta, sigma, phi = float(eta), float(sigma), float(phi)
    cutoff = _check_cutoff(cutoff)
    return _phase_scenario(
        "coherent", _on_pairs(co._chsh_coherent_pairs, eta, sigma, phi),
        partial(states.entangled_coherent, eta, sigma, phi, cutoff=cutoff),
        PairingScheme.even_odd(cutoff), observables.chsh_operator,
        co.STANDARD_CHSH_ANGLES_DIFF if np.cos(phi) < 0 else co.STANDARD_CHSH_ANGLES,
        params={"eta": eta, "sigma": sigma, "phi": phi})


def scenario_mermin3() -> Scenario:
    # the matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
    return _phase_scenario("mermin3", _on_columns(co.mermin3_ghz), partial(states.ghz_state, 3),
                           PairingScheme.qubit(), observables.mermin3_operator,
                           co.STANDARD_MERMIN_ANGLES[3])


def scenario_mermin4() -> Scenario:
    return _phase_scenario("mermin4", _on_pairs(co._mermin4_ghz_pairs),
                           partial(states.ghz_state, 4), PairingScheme.qubit(),
                           observables.mermin4_operator, co.STANDARD_MERMIN_ANGLES[4])


def make_scenario(name: str, **params) -> Scenario:
    """Build a scenario of ``limits.SCENARIOS`` through its factory
    ``scenario_<name>``, with - read as _.  Raises KeyError for an unknown
    name and ValueError when a required parameter is missing or one it does
    not take is given; a parameter set to None counts as absent."""
    params = _check_scenario(name, params)
    return globals()[f"scenario_{name.replace('-', '_')}"](**params)
