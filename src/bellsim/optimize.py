"""Maximize |correlator| over observable parameters for a named scenario.

The search is a coarse scan (a midpoint grid with 8 points per dimension, or
seeded uniform sampling once the full grid would exceed the evaluation cap)
followed by exact coordinate ascent started from the best scan points.  Every
scenario evaluator is A cos t + B sin t + C in each single parameter t, so
three evaluations give A, B and C and the parameter moves straight to its
exact 1-D maximizer of |f|.  The scan is evaluated in blocks of bounded size
with a running top-k, so its memory grows neither with the cap nor with the
parameter count.  The whole pipeline is deterministic given (scenario,
restarts, seed); restarts only ever add starting points, so the best value is
monotone in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import correlators as co
from . import linalg, observables, states
from .observables import PairingScheme, TSIRELSON_BOUND

GRID_POINTS_PER_DIM = 8
EVALUATION_CAP = 1_000_000
# coordinate-ascent sweeps per start; a run stopped here is not converged
MAX_SWEEPS = 1000
# scan rows evaluated at once: 65,536, or fewer once a block of float64
# settings would exceed 65,536 rows x 8 columns, so memory does not grow
# with the parameter count either
_SCAN_BLOCK = 1 << 16
_SCAN_BLOCK_BYTES = _SCAN_BLOCK * 8 * 8
TWO_PI = 2.0 * np.pi

PHASE_DOMAIN = (0.0, TWO_PI)
POLAR_DOMAIN = (0.0, np.pi)


@dataclass(frozen=True)
class Scenario:
    """A (state family, observable family, parameter domain) triple.

    ``evaluator`` maps a parameter array of shape (..., d) to correlator
    values of shape (...); ``kinds`` labels each parameter "phase" or
    "polar"; ``polar_mate`` maps a polar index to the phase index it pairs
    with, so canonicalizing theta -> 2 pi - theta can shift the mate by pi
    without changing the value.  ``oracle``, when set, evaluates one setting
    vector through the matrix route (each party's observables applied to the
    state), sharing no code with ``evaluator``; ``defaults`` is the
    maximizing setting vector, when known.
    """

    name: str
    evaluator: object
    domain: tuple
    kinds: tuple
    polar_mate: dict = field(default_factory=dict)
    classical_bound: float = co.CHSH_CLASSICAL_BOUND
    quantum_bound: float = TSIRELSON_BOUND
    params: dict = field(default_factory=dict)
    oracle: object = None
    defaults: tuple = ()

    def __post_init__(self):
        if not self.domain:
            raise ValueError("scenario needs a nonempty parameter domain")
        if len(self.kinds) != len(self.domain):
            raise ValueError("one kind label per parameter required")

    @property
    def ndim(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_settings: tuple
    evaluations: int
    converged: bool


def _canonicalize(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Wrap settings into their domains without changing the evaluator value."""
    out = np.array(x, dtype=float)
    for i, kind in enumerate(scenario.kinds):
        out[i] = out[i] % TWO_PI
        if kind == "polar" and out[i] > np.pi:
            out[i] = TWO_PI - out[i]
            mate = scenario.polar_mate.get(i)
            if mate is not None:
                out[mate] = (out[mate] + np.pi) % TWO_PI
    return out


class Ascent(NamedTuple):
    """Where one coordinate ascent ended: ``fun`` is -|f(x)|, ``nfev`` the
    evaluations it made and ``success`` whether it stopped on no gain."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def minimize(fun, x0) -> Ascent:
    """Minimize -|fun| from ``x0`` by exact coordinate ascent on |fun|.

    ``maximize_violation`` calls it through the module global, so the
    benchmark's layer timing can wrap ``optimize.minimize``.

    With the other parameters fixed, fun = A cos t + B sin t + C in
    parameter t; its values at t = 0, pi/2 and pi give A, B and C, and
    |fun| is largest, at |C| + sqrt(A^2 + B^2), where t = atan2(sB, sA)
    with s the sign of C.  A parameter moves only on a strict gain, and
    sweeps repeat until one moves none, or ``MAX_SWEEPS`` ran out.  After
    each sweep, its step is tried again, doubled while that gains.
    ``fun`` sees one 1-D point per call.
    """
    x = np.array(x0, dtype=float)
    best = abs(float(fun(x)))
    nfev = 1
    for _ in range(MAX_SWEEPS):
        start = x.copy()
        moved = False
        for i in range(x.size):
            f0, f1, f2 = (float(fun(np.concatenate([x[:i], [t], x[i + 1:]])))
                          for t in (0.0, 0.5 * np.pi, np.pi))
            nfev += 3
            a, c = 0.5 * (f0 - f2), 0.5 * (f0 + f2)
            b = f1 - c
            value = abs(c) + math.hypot(a, b)
            if value > best:
                s = math.copysign(1.0, c)
                x[i], best, moved = math.atan2(s * b, s * a), value, True
        if not moved:
            return Ascent(x, -best, nfev, True)
        # pattern move: repeat the sweep's step, doubled while it gains; a
        # near-flat ridge (r-state near r = 1) costs single sweeps hundreds.
        # Only whole multiples of the step are taken, so a 2 pi in it is inert.
        step = x - start
        while True:
            trial = x + step
            value = abs(float(fun(trial)))
            nfev += 1
            if not value > best:
                break
            x, best, step = trial, value, 2.0 * step
    return Ascent(x, -best, nfev, False)


def _scan_blocks(scenario: Scenario, rng: np.random.Generator):
    """The scan points as consecutive row blocks of at most
    ``_SCAN_BLOCK_BYTES`` and ``_SCAN_BLOCK`` rows: the midpoint grid in
    C order or, once the full grid would exceed the evaluation cap,
    ``EVALUATION_CAP`` uniform points drawn from ``rng``."""
    lo = np.array([d[0] for d in scenario.domain])
    hi = np.array([d[1] for d in scenario.domain])
    d = scenario.ndim
    rows = min(_SCAN_BLOCK, _SCAN_BLOCK_BYTES // (8 * d))
    total = GRID_POINTS_PER_DIM ** d
    if total <= EVALUATION_CAP:
        axes = [lo[i] + (np.arange(GRID_POINTS_PER_DIM) + 0.5)
                * (hi[i] - lo[i]) / GRID_POINTS_PER_DIM for i in range(d)]
        for start in range(0, total, rows):
            digits = np.unravel_index(np.arange(start, min(start + rows, total)),
                                      (GRID_POINTS_PER_DIM,) * d)
            yield np.stack([axis[k] for axis, k in zip(axes, digits)], axis=-1)
        return
    for start in range(0, EVALUATION_CAP, rows):
        # consecutive draws continue one stream: the same points as one big draw
        yield rng.uniform(lo, hi, size=(min(rows, EVALUATION_CAP - start), d))


def _scan_top(scenario: Scenario, rng: np.random.Generator, k: int):
    """The ``k`` scan points of largest |value|, ordered as a stable sort of
    the whole scan by descending |value| would order them (ties in scan
    order), and the number of points scanned."""
    top_key = np.empty(0)
    top_index = np.empty(0, dtype=np.intp)
    top_points = np.empty((0, scenario.ndim))
    scanned = 0
    for block in _scan_blocks(scenario, rng):
        key = -np.abs(np.asarray(scenario.evaluator(block), dtype=float))
        kth = min(k, key.size) - 1
        # keep every point tied with the block's k-th key, since an earlier
        # tie outranks a later one; NaN keys sort last and are kept as well
        keep = np.flatnonzero(~(key > np.partition(key, kth)[kth]))
        key = np.concatenate([top_key, key[keep]])
        index = np.concatenate([top_index, keep + scanned])
        points = np.concatenate([top_points, block[keep]])
        order = np.lexsort((index, key))[:k]
        top_key, top_index, top_points = key[order], index[order], points[order]
        scanned += len(block)
    return top_points, scanned


def maximize_violation(scenario: Scenario, restarts: int = 8,
                       seed: int = 0) -> OptimizationResult:
    """Largest |correlator| over the scenario domain.

    Refines the top ``restarts`` scan points by exact coordinate ascent;
    ties between refined optima break toward the lexicographically smallest
    settings vector.  A winning run that hit the sweep cap is flagged as not
    converged, never raised.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    starts, evaluations = _scan_top(scenario, np.random.default_rng(seed), restarts)
    best = None  # (value, settings tuple, converged)
    for x0 in starts:
        res = minimize(scenario.evaluator, x0)
        evaluations += int(res.nfev)
        settings = tuple(_canonicalize(scenario, res.x).tolist())
        value = abs(float(scenario.evaluator(np.array(settings))))
        cand = (value, settings, bool(res.success))
        if best is None or value > best[0] or (value == best[0] and settings < best[1]):
            best = cand
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

def _phase_scenario(name, evaluator, n_phases, classical=co.CHSH_CLASSICAL_BOUND,
                    quantum=TSIRELSON_BOUND, params=None, oracle=None, defaults=()):
    return Scenario(
        name=name,
        evaluator=evaluator,
        domain=(PHASE_DOMAIN,) * n_phases,
        kinds=("phase",) * n_phases,
        classical_bound=classical,
        quantum_bound=quantum,
        params=params or {},
        oracle=oracle,
        defaults=tuple(defaults),
    )


def _polar8_scenario(name, evaluator, params=None):
    # parameter order: theta, theta', omega, omega', alpha, alpha', beta, beta'
    return Scenario(
        name=name,
        evaluator=evaluator,
        domain=(POLAR_DOMAIN,) * 4 + (PHASE_DOMAIN,) * 4,
        kinds=("polar",) * 4 + ("phase",) * 4,
        polar_mate={0: 4, 1: 5, 2: 6, 3: 7},
        params=params or {},
    )


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
    return _phase_scenario(
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
    n = int(n)
    if n < 3:
        raise ValueError(f"family parameter N must be >= 3, got {n}")
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

    return _phase_scenario(f"spin-{twoj / 2:g}", evaluator, 4 * npairs,
                           params={"j": twoj / 2.0},
                           defaults=np.repeat(co.STANDARD_CHSH_ANGLES_DIFF, npairs))


def scenario_squeezed(lam, cutoff=states.DEFAULT_CUTOFF) -> Scenario:
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("squeezing parameter must satisfy 0 < lam < 1")
    cutoff = states._check_cutoff(cutoff)
    return _phase_scenario(
        "squeezed",
        lambda p: co.chsh_squeezed(lam, *(p[..., i] for i in range(4))),
        4,
        params={"lam": lam},
        oracle=lambda s: _matrix_route(
            states.squeezed_state(lam, cutoff=cutoff), PairingScheme.even_odd(cutoff),
            observables.chsh_operator, s),
        defaults=co.STANDARD_CHSH_ANGLES,
    )


def scenario_coherent(eta, sigma, phi, cutoff=states.DEFAULT_CUTOFF) -> Scenario:
    eta, sigma, phi = float(eta), float(sigma), float(phi)
    cutoff = states._check_cutoff(cutoff)
    return _phase_scenario(
        "coherent",
        lambda p: co.chsh_coherent(eta, sigma, phi, *(p[..., i] for i in range(4))),
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
    return _phase_scenario(
        "mermin3",
        lambda p: co.mermin3_ghz(*(p[..., i] for i in range(6))),
        6,
        classical=co.MERMIN3_CLASSICAL_BOUND,
        quantum=co.MERMIN3_QUANTUM_BOUND,
        oracle=lambda s: _matrix_route(states.ghz_state(3), PairingScheme.qubit(),
                                       observables.mermin3_operator, s),
        defaults=co.STANDARD_MERMIN3_ANGLES,
    )


def scenario_mermin4() -> Scenario:
    return _phase_scenario(
        "mermin4",
        lambda p: co.mermin4_ghz(*(p[..., i] for i in range(8))),
        8,
        classical=co.MERMIN4_CLASSICAL_BOUND,
        quantum=co.MERMIN4_QUANTUM_BOUND,
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
    ValueError when a required parameter is missing."""
    try:
        factory, required = SCENARIO_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_FACTORIES)}"
        ) from None
    missing = [k for k in required if params.get(k) is None]
    if missing:
        raise ValueError(f"scenario {name!r} requires parameters {missing}")
    return factory(**{k: params[k] for k in required})
