import math
import tracemalloc

import numpy as np
import pytest

from bellsim import correlators, make_scenario, maximize_violation, optimize, table_gisin
from bellsim.correlators import coherent_omega, coherent_pair_series, spin_j_max
from bellsim.observables import TSIRELSON_BOUND
from bellsim.limits import SCENARIOS
from bellsim.linalg import ATOL_OPT, ATOL_ORACLE
from bellsim.optimize import Scenario, scenario_coherent, scenario_gisin

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
        # (settings, width): four Bloch vectors, or two phases per party
        layouts = {("chsh-polar", ()): (4, 3), ("chsh-phase", ()): (4, 2),
                   ("spin", (("j", 1.5),)): (8, 2), ("mermin4", ()): (8, 2)}
        for (name, params), layout in layouts.items():
            s = make_scenario(name, **dict(params))
            assert (s.settings, s.width) == layout

    @pytest.mark.parametrize("settings, width", [(0, 2), (4, 1), (4, 4)])
    def test_empty_or_unknown_layout_rejected(self, settings, width):
        with pytest.raises(ValueError):
            Scenario(name="x", evaluator=lambda p: 0.0, settings=settings, width=width)


# one configuration of every registered scenario; spin 10 sums 10 pairs per row
BATCH_CASES = [("chsh-phase", {}), ("chsh-polar", {}), ("product-state", {}),
               ("gisin", {"n": 3}), ("gisin", {"n": 1000}), ("r-state", {"r": 0.5}),
               ("spin", {"j": 1.5}), ("spin", {"j": 2}), ("spin", {"j": 10}),
               ("squeezed", {"lam": 0.4}),
               ("coherent", {"eta": 0.4, "sigma": 0.7, "phi": 2.0}),
               ("mermin3", {}), ("mermin4", {})]
# one configuration per table name, the last one BATCH_CASES lists for it
TABLE_CASE = dict(BATCH_CASES)
# the scenarios built on two phase-flip settings per party
PHASE_FLIP = ("chsh-phase", "squeezed", "coherent", "mermin3", "mermin4")
# the oracle's sign relative to the closed form where it is not +1: the
# matrix route on (|+++> - |--->)/sqrt(2) is minus the closed form
ORACLE_SIGN = {"mermin3": -1.0}
# every scenario of the table with an oracle, with the oracle's sign
_BUILT = {name: make_scenario(name, **TABLE_CASE[name]) for name in SCENARIOS}
ORACLE_SCENARIOS = [(s, ORACLE_SIGN.get(name, 1.0)) for name, s in _BUILT.items()
                    if s.oracle is not None]


def test_every_pinned_oracle_sign_is_used():
    assert set(ORACLE_SIGN) <= {s.name for s, _ in ORACLE_SCENARIOS}


def test_factories_and_table_name_the_same_scenarios():
    # make_scenario finds scenario_<name> by name: drift between the two
    # would otherwise show only when the missing one is called
    factories = {name.removeprefix("scenario_") for name in vars(optimize)
                 if name.startswith("scenario_")}
    assert factories == {name.replace("-", "_") for name in SCENARIOS}


@pytest.mark.parametrize("scenario, sign", ORACLE_SCENARIOS,
                         ids=[s.name for s, _ in ORACLE_SCENARIOS])
def test_oracle_matches_closed_form(scenario, sign):
    rng = np.random.default_rng(21)
    for settings in rng.uniform(0.0, 2 * np.pi, (3, scenario.settings)):
        closed = float(scenario.value(settings))
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
            again = abs(float(scenario.value(result.best_settings)))
            assert again == pytest.approx(result.best_value, abs=1e-10)

    def test_settings_inside_their_ranges(self):
        # theta in [0, pi], azimuths in [0, 2 pi)
        scenario = make_scenario("gisin", n=7)
        result = maximize_violation(scenario, restarts=2, seed=5)
        thetas, alphas = np.split(np.array(result.best_settings), 2)
        assert np.all((0.0 <= thetas) & (thetas <= np.pi))
        assert np.all((0.0 <= alphas) & (alphas < 2 * np.pi))

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


# where a step probes a setting of width w: +e1, -e1, +e2 (and +e3)
UNIT_POINTS = {2: ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)),
               3: ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))}


def _unit(a):
    """Each setting (last axis) of ``a`` over its length, one at a time."""
    norms = [math.sqrt(sum(t * t for t in row)) for row in a.reshape(-1, a.shape[-1]).tolist()]
    return a / np.array(norms).reshape(a.shape[:-1] + (1,))


def _random_settings(scenario, rng, shape):
    return _unit(rng.standard_normal((*shape, scenario.settings, scenario.width)))


def _one_point_ascent(fun, x0):
    # the search one start at a time, one (S, w) point per call: the
    # reference the lockstep search must match bit for bit
    x = np.array(x0, dtype=float)
    best = float(fun(x))
    nfev = 1
    for _ in range(optimize.MAX_SWEEPS):
        start = x.copy()
        moved = False
        for i in range(x.shape[0]):
            f = []
            for point in UNIT_POINTS[x.shape[1]]:
                y = x.copy()
                y[i] = point
                f.append(float(fun(y)))
            nfev += len(f)
            c = 0.5 * (f[0] + f[1])
            v = [0.5 * (f[0] - f[1])] + [fi - c for fi in f[2:]]
            norm = math.hypot(*v)
            if c + norm > best:
                x[i] = [vi / norm for vi in v]
                best, moved = c + norm, True
        if not moved:
            return x, nfev, True
        step = x - start
        while True:
            trial = _unit(x + step)
            value = float(fun(trial))
            nfev += 1
            if not value > best:
                break
            x, best, step = trial, value, 2.0 * step
    return x, nfev, False


def _one_start_at_a_time(scenario, restarts, seed):
    evaluator = scenario.evaluator
    starts = _random_settings(scenario, np.random.default_rng(seed), (restarts,))
    evaluations, best = 0, None
    for x0 in starts:
        x, nfev, success = _one_point_ascent(evaluator, x0)
        evaluations += nfev
        settings = tuple(correlators.angles_of(x).tolist())
        value = abs(float(evaluator(x)))
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


def test_batch_cases_cover_every_scenario():
    # so every evaluator is checked on the search's (rows, 3, S, w) and
    # (rows, 4, S, w) probes too
    assert {name for name, _ in BATCH_CASES} == set(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_carries_the_table_entry(name):
    spec = SCENARIOS[name]
    params = TABLE_CASE[name]
    assert set(params) == {p.keyword for p in spec.params}
    scenario = make_scenario(name, **params)
    assert (scenario.classical_bound, scenario.quantum_bound) == \
        (spec.classical_bound, spec.quantum_bound)
    if name in PHASE_FLIP:
        assert (scenario.settings, scenario.width) == (2 * spec.parties, 2)


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_batch_matches_one_point_calls_bit_for_bit(name, params):
    # the evaluator contract: a (rows, S, w) batch, and the search's
    # C-ordered (rows, 3, S, w) and (rows, 4, S, w) probes, give each
    # point's (S, w) value
    scenario = make_scenario(name, **params)
    rng = np.random.default_rng(5)
    for shape in ((64,), (16, 3), (16, 4)):
        batch = _random_settings(scenario, rng, shape)
        values = scenario.evaluator(batch)
        assert values.shape == shape
        one_by_one = np.array([float(scenario.evaluator(point.copy()))
                               for point in batch.reshape(-1, *batch.shape[-2:])])
        np.testing.assert_array_equal(values.reshape(-1).view(np.int64),
                                      one_by_one.view(np.int64))


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_evaluator_is_affine_in_each_setting(name, params):
    # the see-saw step's premise: with the other settings fixed, f = c + v.u
    # in each setting u, so u = +e1, -e1, +e2 (and +e3) give c and v
    scenario = make_scenario(name, **params)
    x = _random_settings(scenario, np.random.default_rng(8), (64,))
    for i in range(scenario.settings):
        f = []
        for point in UNIT_POINTS[scenario.width]:
            y = x.copy()
            y[:, i] = point
            f.append(scenario.evaluator(y))
        c = (f[0] + f[1]) / 2
        v = [(f[0] - f[1]) / 2] + [fi - c for fi in f[2:]]
        rebuilt = c + sum(vk * x[:, i, k] for k, vk in enumerate(v))
        np.testing.assert_allclose(scenario.evaluator(x), rebuilt, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_reported_angles_name_the_same_settings(name, params):
    # a report's theta lies in [0, pi] and its phases in [0, 2 pi), and the
    # settings they rebuild take the value of the vectors they came from.
    # The edges: the poles, a -0.0 component, and a phase just below 0,
    # which wraps to 0 rather than to 2 pi itself
    scenario = make_scenario(name, **params)
    x = _random_settings(scenario, np.random.default_rng(13), (16,))
    edges = {3: [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, -0.0), (0.0, 1.0, -1e-300)],
             2: [(1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (1.0, -1e-300)]}[scenario.width]
    for row, edge in enumerate(edges):
        x[row, :] = edge
    angles = correlators.angles_of(x)
    assert angles.shape == (16, scenario.settings * (scenario.width - 1))
    thetas = angles[:, :scenario.settings] if scenario.width == 3 else angles[:, :0]
    phases = angles[:, thetas.shape[1]:]
    assert np.all((0.0 <= thetas) & (thetas <= np.pi))
    assert np.all((0.0 <= phases) & (phases < 2 * np.pi))
    np.testing.assert_allclose(scenario.value(angles), scenario.evaluator(x),
                               rtol=0, atol=1e-14)
    # the search converts a whole block of ascents at once
    for a, row in zip(angles, x):
        np.testing.assert_array_equal(correlators.angles_of(row), a)


def _is_integer_spin(name, params):
    return name == "spin" and params["j"] % 1 == 0


def _alice_negated(scenario, x):
    # minus party A's settings: a and a' of a CHSH scenario, of every spin
    # pair, the first party's two phases of a Mermin one
    alice = scenario.settings // 2 if scenario.name.startswith("spin") else 2
    return np.concatenate([-x[..., :alice, :], x[..., alice:, :]], axis=-2)


NEGATED_CASES = [case for case in BATCH_CASES if not _is_integer_spin(*case)]


@pytest.mark.parametrize("name, params", NEGATED_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in NEGATED_CASES])
def test_negating_one_party_negates_f(name, params):
    # so f and -f share their peak, and ascending f alone loses nothing
    scenario = make_scenario(name, **params)
    x = _random_settings(scenario, np.random.default_rng(9), (64,))
    np.testing.assert_allclose(scenario.evaluator(_alice_negated(scenario, x)),
                               -scenario.evaluator(x), rtol=0, atol=1e-14)


def test_only_integer_spin_lacks_a_negating_party():
    # integer j adds the constant s = 2/(2j+1) to f, so the negation that
    # negates half-integer spin leaves 2s over: f peaks 2s above -f
    for name, params in BATCH_CASES:
        if _is_integer_spin(name, params):
            scenario = make_scenario(name, **params)
            x = _random_settings(scenario, np.random.default_rng(10), (64,))
            np.testing.assert_allclose(
                scenario.evaluator(_alice_negated(scenario, x)) + scenario.evaluator(x),
                4 / (2 * params["j"] + 1), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in BATCH_CASES])
def test_peak_of_minus_f_is_not_above_the_peak_of_f(name, params):
    # why the search ascends f alone: negating one party's settings
    # negates f, so both peaks agree, except on integer spin j, where
    # f = s(1 + C), s = 2/(2j+1), and -f peaks 2s lower
    scenario = make_scenario(name, **params)
    x0 = _random_settings(scenario, np.random.default_rng(9), (8,))
    peak = -optimize.minimize(scenario.evaluator, x0).fun
    peak_of_minus_f = -optimize.minimize(lambda p: -scenario.evaluator(p), x0).fun
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

    x0 = _random_settings(scenario, np.random.default_rng(11), (5,))
    res = optimize.minimize(counted, x0)
    assert {shape[1] for shape in shapes if len(shape) == 4} == {width}
    assert sum(math.prod(shape[:-2]) for shape in shapes) == res.nfev


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
    # the search holds one block of starts and its (rows, 4, S, w) probe, so
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
    assert value == pytest.approx(float(scenario.value(scenario.defaults)), abs=ATOL_ORACLE)
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
