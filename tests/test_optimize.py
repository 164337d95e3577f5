import tracemalloc

import numpy as np
import pytest

from bellsim import make_scenario, maximize_violation, optimize, table_gisin
from bellsim.correlators import spin_j_max
from bellsim.observables import TSIRELSON_BOUND
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

    def test_gisin_factory_validates(self):
        with pytest.raises(ValueError):
            scenario_gisin(2)

    def test_scenario_sanity(self):
        s = make_scenario("chsh-polar")
        assert s.ndim == 8
        assert s.kinds[:4] == ("polar",) * 4

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", evaluator=lambda p: 0.0, domain=(), kinds=())


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


def _gisin_max(n):
    d = (np.sqrt(n - 3.0) - 1.0) / n
    return 2 * np.sqrt(1 + 4 * d * d)


def _r_state_max(r):
    k = 2 * r / (1 + r * r)
    return 2 * np.sqrt(1 + k * k)


# scenarios with a closed-form maximum, and that maximum
EXACT_MAXIMA = [
    *((("spin", {"j": j}), spin_j_max(j)) for j in (1, 5, 10, 20)),
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
]


@pytest.mark.parametrize("case, exact", EXACT_MAXIMA,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for (n, kw), _ in EXACT_MAXIMA])
def test_one_restart_reaches_the_exact_maximum(case, exact):
    name, params = case
    result = maximize_violation(make_scenario(name, **params), restarts=1)
    assert result.converged
    assert result.best_value == pytest.approx(exact, abs=ATOL_OPT)


def _whole_scan(scenario, rng):
    """The whole scan as one array, the reference for the streamed blocks:
    a meshgrid of the grid axes, or one uniform draw of the capped size."""
    lo = np.array([d[0] for d in scenario.domain])
    hi = np.array([d[1] for d in scenario.domain])
    g = optimize.GRID_POINTS_PER_DIM
    if g ** scenario.ndim <= optimize.EVALUATION_CAP:
        axes = [lo[i] + (np.arange(g) + 0.5) * (hi[i] - lo[i]) / g
                for i in range(scenario.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
    return rng.uniform(lo, hi, size=(optimize.EVALUATION_CAP, scenario.ndim))


# a cap of 8**6 keeps chsh-phase and mermin3 on the grid (heavy ties) and
# gisin on the random route, with a short last block for 1000-row blocks
@pytest.mark.parametrize("block", [1000, 4096, 8 ** 6 + 1])
@pytest.mark.parametrize("name, params", [("chsh-phase", {}), ("mermin3", {}),
                                          ("gisin", {"n": 5})])
def test_streamed_scan_keeps_whole_scan_order(monkeypatch, block, name, params):
    monkeypatch.setattr(optimize, "_SCAN_BLOCK", block)
    monkeypatch.setattr(optimize, "EVALUATION_CAP", 8 ** 6)
    scenario = make_scenario(name, **params)
    points = _whole_scan(scenario, np.random.default_rng(3))
    order = np.argsort(-np.abs(scenario.evaluator(points)), kind="stable")
    for k in (1, 3, 20):
        starts, scanned = optimize._scan_top(scenario, np.random.default_rng(3), k)
        assert scanned == len(points)
        np.testing.assert_array_equal(starts, points[order[:k]])


# one configuration of every registered scenario; spin 10 sums 10 pairs per
# row, where numpy's pairwise sum over a column-major block would add them in
# another order
SCAN_LAYOUT_CASES = [("chsh-phase", {}), ("chsh-polar", {}), ("product-state", {}),
                     ("gisin", {"n": 3}), ("gisin", {"n": 1000}), ("r-state", {"r": 0.5}),
                     ("spin", {"j": 1.5}), ("spin", {"j": 2}), ("spin", {"j": 10}),
                     ("squeezed", {"lam": 0.4}),
                     ("coherent", {"eta": 0.4, "sigma": 0.7, "phi": 2.0}),
                     ("mermin3", {}), ("mermin4", {})]


def test_scan_layout_cases_cover_every_scenario():
    assert {name for name, _ in SCAN_LAYOUT_CASES} == set(optimize.SCENARIO_FACTORIES)


@pytest.mark.parametrize("name, params", SCAN_LAYOUT_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw in SCAN_LAYOUT_CASES])
def test_scan_block_layout_keeps_every_bit(name, params):
    scenario = make_scenario(name, **params)
    block = next(optimize._scan_blocks(scenario, np.random.default_rng(5)))
    assert block.flags.f_contiguous
    values = scenario.evaluator(block).view(np.int64)
    c_ordered = scenario.evaluator(np.ascontiguousarray(block)).view(np.int64)
    np.testing.assert_array_equal(values, c_ordered)
    rows = np.arange(0, len(block), 16)
    one_by_one = np.array([float(scenario.evaluator(block[i].copy())) for i in rows])
    np.testing.assert_array_equal(values[rows], one_by_one.view(np.int64))


@pytest.mark.parametrize("name, params", [("gisin", {"n": 3}), ("chsh-polar", {}),
                                          ("mermin4", {}), ("spin", {"j": 2})])
def test_scan_memory_stays_under_the_wide_block_peak(name, params):
    # 65,536-row blocks peaked at 8.0 MiB of traced allocations on these
    # scans; an evaluator's cosine and sine tables are block-length arrays,
    # so the block rows bound them
    scenario = make_scenario(name, **params)
    tracemalloc.start()
    try:
        _, scanned = optimize._scan_top(scenario, np.random.default_rng(0), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scanned == optimize.EVALUATION_CAP
    assert peak <= 8 * 2 ** 20


def test_search_memory_does_not_grow_with_the_scan():
    # spin 5 scans 10**6 points of 20 parameters, 160 MB as one array
    tracemalloc.start()
    try:
        maximize_violation(make_scenario("spin", j=5), restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_scan_memory_does_not_grow_with_the_parameter_count(monkeypatch):
    # spin 20 has 80 parameters: 65,536-row blocks would hold 42 MB each, so
    # blocks are sized by bytes; three full blocks are enough to show it
    monkeypatch.setattr(optimize, "EVALUATION_CAP", 200_000)
    scenario = make_scenario("spin", j=20)
    tracemalloc.start()
    try:
        _, scanned = optimize._scan_top(scenario, np.random.default_rng(0), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scanned == 200_000
    assert peak < 16 * 2 ** 20


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
