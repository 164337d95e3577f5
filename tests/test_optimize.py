import math
import tracemalloc

import numpy as np
import pytest

from bellsim import make_scenario, maximize_violation, optimize, table_gisin
from bellsim.correlators import coherent_omega, coherent_pair_series, spin_j_max
from bellsim.observables import TSIRELSON_BOUND
from bellsim.limits import SCENARIOS
from bellsim.linalg import ATOL_OPT, ATOL_ORACLE
from bellsim.optimize import Scenario, scenario_coherent, scenario_gisin, scenario_squeezed

SQRT2 = np.sqrt(2.0)


class TestScenarioRegistry:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_scenario("no-such-scenario")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("gisin")

    def test_unused_parameter_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            make_scenario("mermin3", lam=0.5)
        assert make_scenario("chsh-phase", n=None).name == "chsh-phase"

    def test_only_truncated_scenarios_take_a_cutoff(self):
        assert make_scenario("squeezed", lam=0.5, cutoff=20).params == {"lam": 0.5}
        with pytest.raises(ValueError, match="cutoff"):
            make_scenario("spin", j=1, cutoff=20)

    def test_gisin_factory_validates(self):
        for n in (2, 10 ** 400):  # a float cannot hold 10**400
            with pytest.raises(ValueError):
                scenario_gisin(n)

    @pytest.mark.parametrize("n", [3.7, 2.5])
    def test_non_integer_gisin_n_rejected(self, n):
        # not truncated to the N = 3 or N = 2 scenario
        with pytest.raises(ValueError, match="integer"):
            make_scenario("gisin", n=n)

    def test_scenario_sanity(self):
        s = make_scenario("chsh-polar")
        assert s.ndim == 8
        assert s.domain == ((0.0, np.pi),) * 4 + ((0.0, 2 * np.pi),) * 4

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", evaluator=lambda p: 0.0, ndim=0)


# every scenario with an oracle, with the oracle's sign relative to the closed form
ORACLE_SCENARIOS = [
    (make_scenario("chsh-phase"), 1.0),
    (scenario_coherent(0.4, 0.7, 2.0), 1.0),
    (scenario_squeezed(0.35), 1.0),
    # the matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
    (make_scenario("mermin3"), -1.0),
    (make_scenario("mermin4"), 1.0),
]


@pytest.mark.parametrize("scenario, sign", ORACLE_SCENARIOS,
                         ids=[s.name for s, _ in ORACLE_SCENARIOS])
def test_oracle_matches_closed_form(scenario, sign):
    rng = np.random.default_rng(21)
    for settings in rng.uniform(0.0, 2 * np.pi, (3, scenario.ndim)):
        closed = float(scenario.evaluator(settings))
        assert scenario.oracle(settings) == pytest.approx(sign * closed, abs=ATOL_ORACLE)


class TestMaximizeViolation:
    def test_phase_scenario_reaches_tsirelson(self):
        result = maximize_violation(make_scenario("chsh-phase"), restarts=4, seed=0)
        assert result.best_value == pytest.approx(TSIRELSON_BOUND, abs=1e-6)

    def test_spin_one(self):
        result = maximize_violation(make_scenario("spin", j=1), restarts=4, seed=0)
        assert result.best_value == pytest.approx(2.55228, abs=1e-4)

    def test_deterministic(self):
        a = maximize_violation(make_scenario("mermin3"), restarts=3, seed=42)
        b = maximize_violation(make_scenario("mermin3"), restarts=3, seed=42)
        assert a == b  # bit-identical dataclasses

    def test_monotone_in_restarts(self):
        scenario = make_scenario("spin", j=1)
        values = [maximize_violation(scenario, restarts=r, seed=7).best_value
                  for r in (1, 2, 4, 8)]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_best_value_reproducible_from_settings(self):
        for name, kw in [("chsh-phase", {}), ("squeezed", {"lam": 0.6}),
                         ("gisin", {"n": 5}), ("mermin4", {})]:
            scenario = make_scenario(name, **kw)
            result = maximize_violation(scenario, restarts=2, seed=3)
            again = abs(float(scenario.evaluator(np.array(result.best_settings))))
            assert again == pytest.approx(result.best_value, abs=1e-10)

    def test_settings_inside_domain(self):
        scenario = make_scenario("gisin", n=7)
        result = maximize_violation(scenario, restarts=2, seed=5)
        for value, (lo, hi) in zip(result.best_settings, scenario.domain):
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_never_exceeds_quantum_bound(self):
        for name, kw in [("chsh-phase", {}), ("chsh-polar", {}),
                         ("mermin3", {}), ("mermin4", {})]:
            scenario = make_scenario(name, **kw)
            result = maximize_violation(scenario, restarts=4, seed=11)
            assert result.best_value <= scenario.quantum_bound + 1e-9

    def test_restarts_validation(self):
        with pytest.raises(ValueError):
            maximize_violation(make_scenario("chsh-phase"), restarts=0)

    def test_restarts_above_bound_rejected(self):
        # rejected before any start is drawn, not a memory error
        with pytest.raises(ValueError, match=str(optimize.MAX_RESTARTS)):
            maximize_violation(make_scenario("chsh-phase"), restarts=optimize.MAX_RESTARTS + 1)
        with pytest.raises(ValueError):
            table_gisin([3], restarts=10 ** 12)


def _gisin_max(n):
    d = (np.sqrt(n - 3.0) - 1.0) / n
    return 2 * np.sqrt(1 + 4 * d * d)


def _r_state_max(r):
    k = 2 * r / (1 + r * r)
    return 2 * np.sqrt(1 + k * k)


def _coherent_max(eta, sigma, phi):
    # 4 Omega Delta times the CHSH maximum of the correlation matrix diag(1, -cos phi)
    delta = coherent_pair_series(eta) * coherent_pair_series(sigma)
    return 4 * coherent_omega(eta, sigma, phi) * delta * 2 * np.sqrt(1 + np.cos(phi) ** 2)


# scenarios with a closed-form maximum, and that maximum
EXACT_MAXIMA = [
    *((("spin", {"j": j}), spin_j_max(j)) for j in (1, 5, 10, 20, 64, 128)),
    (("gisin", {"n": 3}), _gisin_max(3)),
    (("gisin", {"n": 12}), _gisin_max(12)),
    (("r-state", {"r": 0.5}), _r_state_max(0.5)),
    # near r = 1 the maximum sits on a near-flat ridge that single
    # coordinate steps climb slowly
    (("r-state", {"r": 0.95}), _r_state_max(0.95)),
    (("chsh-phase", {}), TSIRELSON_BOUND),
    (("chsh-polar", {}), TSIRELSON_BOUND),
    (("squeezed", {"lam": 0.5}), 4 * SQRT2 * 0.5 / (1 + 0.5 ** 2)),
    (("mermin3", {}), 4.0),
    (("mermin4", {}), 4 * SQRT2),
    (("product-state", {}), 2.0),
    *((("coherent", dict(zip(("eta", "sigma", "phi"), p))), _coherent_max(*p))
      for p in ((0.4, 0.7, 2.0), (1.0, 0.5, 1.0))),
]


@pytest.mark.parametrize("case, exact", EXACT_MAXIMA,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for (n, kw), _ in EXACT_MAXIMA])
def test_one_restart_reaches_the_exact_maximum(case, exact):
    name, params = case
    result = maximize_violation(make_scenario(name, **params), restarts=1)
    assert result.converged
    assert result.best_value == pytest.approx(exact, abs=ATOL_OPT)


def test_ascent_on_f_reaches_the_integer_spin_maximum_from_every_start():
    # integer spin adds a constant to f, so its lower peak is the one of -f:
    # ascending |f| from a start where f < 0 would climb that one
    scenario = make_scenario("spin", j=2)
    for seed in range(20):
        result = maximize_violation(scenario, restarts=1, seed=seed)
        assert result.best_value == pytest.approx(spin_j_max(2), abs=ATOL_OPT), seed


# (theta, alpha) at n = +z, -z, +x and +y
BLOCH_POINTS = ((0.0, 0.0), (np.pi, 0.0), (0.5 * np.pi, 0.0), (0.5 * np.pi, 0.5 * np.pi))


def _one_point_ascent(fun, x0, polar_mate):
    # the search one start at a time, one 1-D point per call:
    # the reference the lockstep search must match bit for bit
    x = np.array(x0, dtype=float)
    best = float(fun(x))
    nfev = 1
    settings = [(i, polar_mate[i]) if i in polar_mate else (i,)
                for i in range(x.size) if i not in polar_mate.values()]
    for _ in range(optimize.MAX_SWEEPS):
        start = x.copy()
        moved = False
        for cols in settings:
            points = BLOCH_POINTS if len(cols) == 2 else ((0.0,), (0.5 * np.pi,), (np.pi,))
            f = []
            for point in points:
                y = x.copy()
                y[list(cols)] = point
                f.append(float(fun(y)))
            nfev += len(points)
            if len(cols) == 2:
                c, vz = 0.5 * (f[0] + f[1]), 0.5 * (f[0] - f[1])
                vx, vy = f[2] - c, f[3] - c
                value = c + math.hypot(vx, vy, vz)
                if value > best:
                    x[cols[0]] = math.atan2(math.hypot(vx, vy), vz)
                    x[cols[1]] = math.atan2(vy, vx)
                    best, moved = value, True
            else:
                a, c = 0.5 * (f[0] - f[2]), 0.5 * (f[0] + f[2])
                b = f[1] - c
                value = c + math.hypot(a, b)
                if value > best:
                    x[cols[0]], best, moved = math.atan2(b, a), value, True
        if not moved:
            return x, nfev, True
        step = x - start
        while True:
            trial = x + step
            value = float(fun(trial))
            nfev += 1
            if not value > best:
                break
            x, best, step = trial, value, 2.0 * step
    return x, nfev, False


def _one_start_at_a_time(scenario, restarts, seed):
    evaluator = scenario.evaluator
    lo, hi = np.array(scenario.domain).T
    starts = np.random.default_rng(seed).uniform(lo, hi, size=(restarts, scenario.ndim))
    evaluations, best = 0, None
    for x0 in starts:
        x, nfev, success = _one_point_ascent(evaluator, x0, scenario.polar_mate)
        evaluations += nfev
        settings = tuple(optimize._canonicalize(scenario, x).tolist())
        value = abs(float(evaluator(np.array(settings))))
        if best is None or value > best[0] or (value == best[0] and settings < best[1]):
            best = (value, settings, success)
    return best[0], best[1], evaluations, best[2]


# every exact-maximum configuration at three (restarts, seed) pairs, and more
# starts than one block holds
LOCKSTEP_CASES = [(case, restarts, seed) for case, _ in EXACT_MAXIMA
                  for restarts, seed in ((1, 0), (3, 7), (8, 1))]
LOCKSTEP_CASES.append((("chsh-phase", {}), 2 * optimize.START_BLOCK + 2, 4))


@pytest.mark.parametrize("case, restarts, seed", LOCKSTEP_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}-r{r}-s{s}"
                              for (n, kw), r, s in LOCKSTEP_CASES])
def test_lockstep_search_matches_one_start_at_a_time(case, restarts, seed):
    name, params = case
    scenario = make_scenario(name, **params)
    result = maximize_violation(scenario, restarts=restarts, seed=seed)
    value, settings, evaluations, converged = _one_start_at_a_time(scenario, restarts, seed)
    assert float.hex(result.best_value) == float.hex(value)
    assert [float.hex(v) for v in result.best_settings] == [float.hex(v) for v in settings]
    assert (result.evaluations, result.converged) == (evaluations, converged)


# one configuration of every registered scenario; spin 10 sums 10 pairs per row
BATCH_CASES = [("chsh-phase", {}), ("chsh-polar", {}), ("product-state", {}),
               ("gisin", {"n": 3}), ("gisin", {"n": 1000}), ("r-state", {"r": 0.5}),
               ("spin", {"j": 1.5}), ("spin", {"j": 2}), ("spin", {"j": 10}),
               ("squeezed", {"lam": 0.4}),
               ("coherent", {"eta": 0.4, "sigma": 0.7, "phi": 2.0}),
               ("mermin3", {}), ("mermin4", {})]


def test_batch_cases_cover_every_scenario():
    # so every evaluator is checked on the search's (rows, 3, d) and
    # (rows, 4, d) probes too
    assert {name for name, _ in BATCH_CASES} == set(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_carries_the_table_entry(name):
    spec = SCENARIOS[name]
    params = {case_name: kw for case_name, kw in BATCH_CASES}[name]
    assert set(params) == {p.keyword for p in spec.params}
    scenario = make_scenario(name, **params)
    assert (scenario.classical_bound, scenario.quantum_bound) == \
        (spec.classical_bound, spec.quantum_bound)
    if name.startswith("mermin"):
        assert scenario.ndim == 2 * spec.parties


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_batch_matches_one_point_calls_bit_for_bit(name, params):
    # the evaluator contract: a (rows, d) batch, and the search's C-ordered
    # (rows, 3, d) and (rows, 4, d) probes, give each point's 1-D value
    scenario = make_scenario(name, **params)
    lo, hi = np.array(scenario.domain).T
    rng = np.random.default_rng(5)
    for shape in ((64,), (16, 3), (16, 4)):
        batch = rng.uniform(lo, hi, size=(*shape, scenario.ndim))
        values = scenario.evaluator(batch)
        assert values.shape == shape
        one_by_one = np.array([float(scenario.evaluator(point.copy()))
                               for point in batch.reshape(-1, scenario.ndim)])
        np.testing.assert_array_equal(values.reshape(-1).view(np.int64),
                                      one_by_one.view(np.int64))


# every polar scenario: the N-family at three N, the r-state at two r
POLAR_CASES = [("chsh-polar", {}), ("product-state", {}), ("gisin", {"n": 3}),
               ("gisin", {"n": 12}), ("gisin", {"n": 1000}), ("r-state", {"r": 0.5}),
               ("r-state", {"r": 0.99})]


@pytest.mark.parametrize("name, params", POLAR_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in POLAR_CASES])
def test_polar_evaluator_is_affine_in_each_bloch_vector(name, params):
    # the Bloch step's premise: with the other settings fixed, f = c + v.n
    # in the Bloch vector n of each polar setting, so n = +z, -z, +x and +y
    # give c and v
    scenario = make_scenario(name, **params)
    lo, hi = np.array(scenario.domain).T
    x = np.random.default_rng(8).uniform(lo, hi, size=(64, scenario.ndim))
    assert len(scenario.polar_mate) == 4
    for theta, alpha in scenario.polar_mate.items():
        f = []
        for point in BLOCH_POINTS:
            y = x.copy()
            y[:, [theta, alpha]] = point
            f.append(scenario.evaluator(y))
        c, vz = (f[0] + f[1]) / 2, (f[0] - f[1]) / 2
        vx, vy = f[2] - c, f[3] - c
        t, a = x[:, theta], x[:, alpha]
        rebuilt = c + vx * np.sin(t) * np.cos(a) + vy * np.sin(t) * np.sin(a) + vz * np.cos(t)
        np.testing.assert_allclose(scenario.evaluator(x), rebuilt, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, params", POLAR_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in POLAR_CASES])
def test_canonicalize_folds_theta_into_zero_to_pi(name, params):
    # theta -> 2 pi - theta with its mate shifted by pi names the same Bloch
    # vector: theta = 4.0 and -0.5 fold, 7.0 only wraps
    scenario = make_scenario(name, **params)
    thetas, mates = list(scenario.polar_mate), list(scenario.polar_mate.values())
    x = np.random.default_rng(13).uniform(-2 * np.pi, 4 * np.pi, size=(3, scenario.ndim))
    x[:, thetas] = [[4.0], [-0.5], [7.0]]
    rows = np.array([optimize._canonicalize(scenario, row) for row in x])
    assert np.all((0.0 <= rows[:, thetas]) & (rows[:, thetas] <= np.pi))
    assert np.all((0.0 <= rows[:, mates]) & (rows[:, mates] < 2 * np.pi))
    np.testing.assert_allclose(rows[:, thetas[0]], [2 * np.pi - 4.0, 0.5, 7.0 - 2 * np.pi],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(scenario.evaluator(rows), scenario.evaluator(x),
                               rtol=0, atol=1e-14)
    # the search canonicalizes a whole (k, d) block of ascents at once
    np.testing.assert_array_equal(optimize._canonicalize(scenario, x).view(np.int64),
                                  rows.view(np.int64))


def _is_integer_spin(name, params):
    return name == "spin" and params["j"] % 1 == 0


def _alice_shift(scenario):
    # pi on party A's settings: theta and theta' of a polar scenario, alpha
    # and alpha' of every spin pair, the first two phases of the others
    shifted = scenario.ndim // 2 if scenario.name.startswith("spin") else 2
    return np.pi * (np.arange(scenario.ndim) < shifted)


NEGATED_CASES = [case for case in BATCH_CASES if not _is_integer_spin(*case)]


@pytest.mark.parametrize("name, params", NEGATED_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in NEGATED_CASES])
def test_declared_shift_negates_f(name, params):
    # so f and -f share their peak, and ascending f alone loses nothing
    scenario = make_scenario(name, **params)
    lo, hi = np.array(scenario.domain).T
    x = np.random.default_rng(9).uniform(lo, hi, size=(64, scenario.ndim))
    np.testing.assert_allclose(scenario.evaluator(x + _alice_shift(scenario)),
                               -scenario.evaluator(x), rtol=0, atol=1e-14)


def test_only_integer_spin_lacks_a_negating_shift():
    # integer j adds the constant s = 2/(2j+1) to f, so the shift that
    # negates half-integer spin leaves 2s over: f peaks 2s above -f
    for name, params in BATCH_CASES:
        if _is_integer_spin(name, params):
            scenario = make_scenario(name, **params)
            x = np.random.default_rng(10).uniform(0.0, 2 * np.pi, size=(64, scenario.ndim))
            np.testing.assert_allclose(
                scenario.evaluator(x + _alice_shift(scenario)) + scenario.evaluator(x),
                4 / (2 * params["j"] + 1), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_peak_of_minus_f_is_not_above_the_peak_of_f(name, params):
    # why the search ascends f alone: a shift of one party's settings
    # negates f, so both peaks agree, except on integer spin j, where
    # f = s(1 + C), s = 2/(2j+1), and -f peaks 2s lower
    scenario = make_scenario(name, **params)
    lo, hi = np.array(scenario.domain).T
    x0 = np.random.default_rng(9).uniform(lo, hi, size=(8, scenario.ndim))
    peak = -optimize.minimize(scenario.evaluator, x0, scenario.polar_mate).fun
    peak_of_minus_f = -optimize.minimize(lambda p: -scenario.evaluator(p), x0,
                                         scenario.polar_mate).fun
    if _is_integer_spin(name, params):
        assert peak_of_minus_f < peak
    else:
        assert peak_of_minus_f <= peak + ATOL_OPT


def test_r_state_near_one_reaches_its_maximum_from_every_start():
    # the near-flat ridge at r = 0.99 stopped 8 of these seeds at the sweep
    # cap while polar settings took one 1-D step per angle
    scenario = make_scenario("r-state", r=0.99)
    for seed in range(20):
        result = maximize_violation(scenario, restarts=1, seed=seed)
        assert result.converged, seed
        assert result.best_value == pytest.approx(_r_state_max(0.99), abs=ATOL_OPT), seed


@pytest.mark.xfail(strict=True, reason="at r = 0.999 the search stops 1.5e-9 short of "
                                       "2 sqrt(1 + k^2) and still reports converged")
def test_r_state_at_0_999_reports_converged_only_at_its_maximum():
    result = maximize_violation(make_scenario("r-state", r=0.999), restarts=1, seed=0)
    assert not result.converged or abs(result.best_value - _r_state_max(0.999)) <= ATOL_OPT


@pytest.mark.parametrize("name, params, width", [("gisin", {"n": 3}, 4), ("mermin3", {}, 3),
                                                  ("spin", {"j": 2}, 3)],
                         ids=["polar", "phase", "integer-spin"])
def test_evaluations_count_every_point_evaluated(name, params, width):
    # 4 points per Bloch step, 3 per phase step, 1 per pattern-move trial
    scenario = make_scenario(name, **params)
    shapes = []

    def counted(p):
        shapes.append(p.shape)
        return scenario.evaluator(p)

    lo, hi = np.array(scenario.domain).T
    x0 = np.random.default_rng(11).uniform(lo, hi, size=(5, scenario.ndim))
    res = optimize.minimize(counted, x0, scenario.polar_mate)
    assert {shape[1] for shape in shapes if len(shape) == 3} == {width}
    assert sum(math.prod(shape[:-1]) for shape in shapes) == res.nfev


def test_search_memory_does_not_grow_with_the_scan():
    # spin 5 has 20 parameters
    tracemalloc.start()
    try:
        maximize_violation(make_scenario("spin", j=5), restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("name, params, restarts", [("gisin", {"n": 3}, 8),
                                                    ("spin", {"j": 20}, 1)],
                         ids=["gisin-3-restarts-8", "spin-20-restarts-1"])
def test_search_memory_stays_under_one_mib(name, params, restarts):
    # the search holds one block of starts and its (rows, 4, d) probe, so
    # no batch of points grows with the restarts
    scenario = make_scenario(name, **params)
    tracemalloc.start()
    try:
        maximize_violation(scenario, restarts=restarts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_oracle_memory_does_not_grow_with_the_joint_matrix():
    # at cutoff 80 the joint CHSH matrix alone would take 655 MB
    scenario = scenario_coherent(0.5, 0.5, 1.0, cutoff=80)
    tracemalloc.start()
    try:
        value = scenario.oracle(scenario.defaults)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(float(scenario.evaluator(np.array(scenario.defaults))),
                                  abs=ATOL_ORACLE)
    assert peak < 64 * 2 ** 20


class TestFamilies:
    def test_r_state_always_violates(self):
        # every entangled member of the family crosses the classical bound
        for r in (0.1, 0.3, 0.5, 0.9):
            result = maximize_violation(make_scenario("r-state", r=r), restarts=4, seed=0)
            assert result.best_value == pytest.approx(_r_state_max(r), abs=1e-5)
            assert result.best_value > 2.0

    def test_product_state_capped_at_two(self):
        result = maximize_violation(make_scenario("product-state"), restarts=4, seed=0)
        assert result.best_value <= 2.0 + 1e-6

    def test_squeezed_maximum(self):
        result = maximize_violation(make_scenario("squeezed", lam=0.5), restarts=4, seed=0)
        assert result.best_value == pytest.approx(4 * SQRT2 * 0.5 / 1.25, abs=1e-6)

    def test_coherent_reference_point(self):
        result = maximize_violation(
            make_scenario("coherent", eta=0.1, sigma=0.1, phi=np.pi), restarts=4, seed=0)
        assert result.best_value == pytest.approx(2.8284, abs=5e-4)

    def test_spin_maxima(self):
        for j in (1.5, 2):
            result = maximize_violation(make_scenario("spin", j=j), restarts=6, seed=0)
            assert result.best_value == pytest.approx(spin_j_max(j), abs=1e-4)


class TestGisinTable:
    def test_small_members(self):
        rows = dict(table_gisin([4, 10], restarts=6, seed=0))
        assert rows[4] == pytest.approx(2.0, abs=1e-6)
        assert rows[10] == pytest.approx(2.1055545, abs=1e-5)

    def test_maximum_decays_toward_classical_bound(self):
        # the family maximum 2 sqrt(1 + 4 ((sqrt(N-3)-1)/N)^2) peaks at N=12
        # and decays to 2 from there; every finite member still violates
        rows = table_gisin([12, 20, 50, 200], restarts=6, seed=0)
        values = [v for _, v in rows]
        assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(values, values[1:]))
        assert all(v > 2.0 for v in values)
        # excess over the bound decays like 1/N: about 0.017 by N=200
        assert values[-1] - 2.0 < 2e-2

    def test_maximum_matches_exact_family_formula(self):
        for n, v in table_gisin([5, 8, 12, 20], restarts=6, seed=0):
            assert v == pytest.approx(_gisin_max(n), abs=1e-5)
