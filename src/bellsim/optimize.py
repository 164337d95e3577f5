"""Maximize |correlator| over observable parameters for a named scenario.

The search draws ``restarts`` seeded uniform starts and runs exact coordinate
ascent on f from each, and on f alone, since the peak of f is never below
the peak of -f.  A shift of one party's settings (theta + pi on Alice's
polar settings, pi on her phases) maps f to -f; on integer spin j,
f = s(1 + C) with s = 2/(2j+1), the same shift maps C to -C, and the peak
s(1 + max C) of f lies above the peak s(max C - 1) of -f.  Each step moves
one setting straight to its exact maximizer with the others fixed.  A polar
setting is a Bloch vector n, f = c + v.n in it, and four evaluations
give c and v (the see-saw step of Werner and Wolf, QIC 1, 1 (2001)); every
evaluator is A cos t + B sin t + C in a phase t, and three evaluations give
A, B and C.  The ascents of up to ``START_BLOCK`` starts run in lockstep,
one evaluator call per step for all of them, and each ends where it would
end on its own, bit for bit.  The whole pipeline is deterministic given
(scenario, restarts, seed); the first starts do not depend on their count,
so the best value is monotone in restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import correlators as co
from . import linalg, observables, states
from .observables import PairingScheme, TSIRELSON_BOUND

# coordinate-ascent sweeps per start; a run stopped here is not converged
MAX_SWEEPS = 1000
# starts ascended together, one row each: an evaluator call costs about the
# same up to some 100 rows and grows with them past that, so larger blocks
# save few calls and only add memory
START_BLOCK = 64
# about 33 s of the 8-parameter N-family search at N = 3 (2-core x86_64)
MAX_RESTARTS = 10 ** 5
TWO_PI = 2.0 * np.pi
# where a phase step evaluates its parameter t, one row per point
PHASE_PROBE = np.array([[0.0], [0.5 * np.pi], [np.pi]])
# where a Bloch step evaluates its (theta, alpha): n = +z, -z, +x, +y
BLOCH_PROBE = np.array([[0.0, 0.0], [np.pi, 0.0],
                        [0.5 * np.pi, 0.0], [0.5 * np.pi, 0.5 * np.pi]])

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
    classical_bound: float = co.CHSH_CLASSICAL_BOUND
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
    """Wrap settings into their domains without changing the evaluator value."""
    out = np.array(x, dtype=float)
    for i in range(scenario.ndim):
        out[i] = out[i] % TWO_PI
        if i in scenario.polar_mate and out[i] > np.pi:
            out[i] = TWO_PI - out[i]
            mate = scenario.polar_mate[i]
            out[mate] = (out[mate] + np.pi) % TWO_PI
    return out


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
    its exact maximizer with the others fixed.  A polar setting, the pair
    (theta, alpha) = (i, polar_mate[i]), is one Bloch vector n = (sin theta
    cos alpha, sin theta sin alpha, cos theta), and fun = c + v.n in it;
    fun at n = +z, -z, +x and +y gives c and v, and fun is largest, at
    c + |v|, where n = v/|v|.  Any other parameter t is a phase, and
    fun = A cos t + B sin t + C in it; fun at t = 0, pi/2 and pi gives A, B
    and C, and fun is largest, at C + sqrt(A^2 + B^2), where
    t = atan2(B, A).  A setting moves only on a strict gain, and a row's
    sweeps repeat until one moves none, or ``MAX_SWEEPS`` ran out.  After
    each sweep, its step is tried again, doubled while that gains.  Each
    step makes one ``fun`` call on an (m, 4, d) or (m, 3, d) probe of the m
    rows still ascending, and each doubling round one on an (m, d) batch;
    the row updates run per row with ``math``, so every row takes the steps
    it would take on its own.
    ``nfev`` counts the points of these calls: 4 per Bloch step, 3 per phase
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
            bloch = len(cols) == 2
            probe_at = BLOCH_PROBE if bloch else PHASE_PROBE
            probe = np.repeat(x[rows, None, :], len(probe_at), axis=1)
            probe[:, :, cols] = probe_at
            f = fun(probe)
            nfev[rows] += len(probe_at)
            if bloch:
                c, vz = 0.5 * (f[:, 0] + f[:, 1]), 0.5 * (f[:, 0] - f[:, 1])
                vx, vy = f[:, 2] - c, f[:, 3] - c
                value = c + list(map(math.hypot, vx.tolist(), vy.tolist(), vz.tolist()))
                gain = value > best[rows]
                vx, vy, vz = vx[gain].tolist(), vy[gain].tolist(), vz[gain].tolist()
                x[rows[gain], cols[0]] = list(map(math.atan2, map(math.hypot, vx, vy), vz))
                x[rows[gain], cols[1]] = list(map(math.atan2, vy, vx))
            else:
                a, c = 0.5 * (f[:, 0] - f[:, 2]), 0.5 * (f[:, 0] + f[:, 2])
                b = f[:, 1] - c
                value = c + list(map(math.hypot, a.tolist(), b.tolist()))
                gain = value > best[rows]
                x[rows[gain], cols[0]] = list(map(math.atan2, b[gain].tolist(),
                                                  a[gain].tolist()))
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
        canonical = np.array([_canonicalize(scenario, x) for x in res.x])
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

def _polar8_scenario(name, evaluator, params=None):
    # parameter order: theta, theta', omega, omega', alpha, alpha', beta, beta'
    return Scenario(name, evaluator, 8, polar_mate={0: 4, 1: 5, 2: 6, 3: 7},
                    params=params or {})


def _matrix_route(psi, scheme, build_operator, settings):
    """<psi| O |psi>, O built from one phase-flip observable per setting.

    Oracles call this with a freshly built state, so a truncation guard
    fails the oracle route only and the closed form never pays for it.
    """
    obs = [observables.phase_flip_observable(s, scheme) for s in settings]
    return linalg.expectation(build_operator(*obs), psi).real


def scenario_chsh_phase(bell_index=0) -> Scenario:
    """Phase-flip CHSH on a Bell state.  The closed form is the one of Bell
    index 0; the oracle evaluates the indexed state."""
    return Scenario(
        "chsh-phase", lambda p: co.chsh_phi0_phase(*(p[..., i] for i in range(4))), 4,
        oracle=lambda s: _matrix_route(states.bell_state(bell_index), PairingScheme.qubit(),
                                       observables.chsh_operator, s),
        defaults=co.STANDARD_CHSH_ANGLES,
    )


def scenario_chsh_polar() -> Scenario:
    return _polar8_scenario(
        "chsh-polar", lambda p: co.chsh_phi0_polar(*(p[..., i] for i in range(8)))
    )


def scenario_product_state() -> Scenario:
    return _polar8_scenario(
        "product-state",
        lambda p: co.chsh_product_plusminus(*(p[..., i] for i in range(8))),
    )


def scenario_gisin(n) -> Scenario:
    n = states._check_family_n(n)
    return _polar8_scenario(
        "gisin",
        lambda p: co.chsh_gisin(n, *(p[..., i] for i in range(8))),
        params={"n": n},
    )


def scenario_r_state(r) -> Scenario:
    r = float(r)
    return _polar8_scenario(
        "r-state",
        lambda p: co.chsh_rstate(r, *(p[..., i] for i in range(8))),
        params={"r": r},
    )


def scenario_spin(j) -> Scenario:
    twoj = states._check_spin(j)
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


def scenario_squeezed(lam, cutoff=states.DEFAULT_CUTOFF) -> Scenario:
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("squeezing parameter must satisfy 0 < lam < 1")
    cutoff = states._check_cutoff(cutoff)
    return Scenario(
        "squeezed", lambda p: co.chsh_squeezed(lam, *(p[..., i] for i in range(4))), 4,
        params={"lam": lam},
        oracle=lambda s: _matrix_route(
            states.squeezed_state(lam, cutoff=cutoff), PairingScheme.even_odd(cutoff),
            observables.chsh_operator, s),
        defaults=co.STANDARD_CHSH_ANGLES,
    )


def scenario_coherent(eta, sigma, phi, cutoff=states.DEFAULT_CUTOFF) -> Scenario:
    eta, sigma, phi = float(eta), float(sigma), float(phi)
    cutoff = states._check_cutoff(cutoff)
    return Scenario(
        "coherent", lambda p: co.chsh_coherent(eta, sigma, phi, *(p[..., i] for i in range(4))),
        4,
        params={"eta": eta, "sigma": sigma, "phi": phi},
        oracle=lambda s: _matrix_route(
            states.entangled_coherent(eta, sigma, phi, cutoff=cutoff),
            PairingScheme.even_odd(cutoff), observables.chsh_operator, s),
        defaults=(co.STANDARD_CHSH_ANGLES_DIFF if np.cos(phi) < 0
                  else co.STANDARD_CHSH_ANGLES),
    )


def scenario_mermin3() -> Scenario:
    # the matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
    return Scenario(
        "mermin3", lambda p: co.mermin3_ghz(*(p[..., i] for i in range(6))), 6,
        classical_bound=co.MERMIN3_CLASSICAL_BOUND,
        quantum_bound=co.MERMIN3_QUANTUM_BOUND,
        oracle=lambda s: _matrix_route(states.ghz_state(3), PairingScheme.qubit(),
                                       observables.mermin3_operator, s),
        defaults=co.STANDARD_MERMIN3_ANGLES,
    )


def scenario_mermin4() -> Scenario:
    return Scenario(
        "mermin4", lambda p: co.mermin4_ghz(*(p[..., i] for i in range(8))), 8,
        classical_bound=co.MERMIN4_CLASSICAL_BOUND,
        quantum_bound=co.MERMIN4_QUANTUM_BOUND,
        oracle=lambda s: _matrix_route(states.ghz_state(4), PairingScheme.qubit(),
                                       observables.mermin4_operator, s),
        defaults=co.STANDARD_MERMIN4_ANGLES,
    )


SCENARIO_FACTORIES = {
    "chsh-phase": (scenario_chsh_phase, ()),
    "chsh-polar": (scenario_chsh_polar, ()),
    "product-state": (scenario_product_state, ()),
    "gisin": (scenario_gisin, ("n",)),
    "r-state": (scenario_r_state, ("r",)),
    "spin": (scenario_spin, ("j",)),
    "squeezed": (scenario_squeezed, ("lam",)),
    "coherent": (scenario_coherent, ("eta", "sigma", "phi")),
    "mermin3": (scenario_mermin3, ()),
    "mermin4": (scenario_mermin4, ()),
}


def make_scenario(name: str, **params) -> Scenario:
    """Build a registered scenario; raises KeyError for unknown names and
    ValueError when a required parameter is missing or one it does not take
    is given.  A parameter set to None counts as absent."""
    try:
        factory, required = SCENARIO_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_FACTORIES)}"
        ) from None
    missing = [k for k in required if params.get(k) is None]
    if missing:
        raise ValueError(f"scenario {name!r} requires parameters {missing}")
    unused = sorted(k for k, v in params.items() if v is not None and k not in required)
    if unused:
        raise ValueError(f"scenario {name!r} does not take parameters {unused}")
    return factory(**{k: params[k] for k in required})
