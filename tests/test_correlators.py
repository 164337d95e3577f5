from functools import partial

import numpy as np
import pytest

from bellsim import (
    PairingScheme,
    bell_state,
    chsh_coherent,
    chsh_gisin,
    chsh_operator,
    chsh_phi0_phase,
    chsh_phi0_polar,
    chsh_rstate,
    chsh_spin_j,
    chsh_squeezed,
    classify,
    entangled_coherent,
    expectation,
    ghz_state,
    gisin_family_state,
    make_scenario,
    mermin3_ghz,
    mermin3_operator,
    mermin4_ghz,
    mermin4_operator,
    phase_flip_observable,
    polar_observable,
    r_state,
    spin_singlet,
    squeezed_state,
    tensor_state,
)
from bellsim import correlators, optimize
from bellsim.correlators import (
    STANDARD_CHSH_ANGLES,
    STANDARD_CHSH_ANGLES_DIFF,
    STANDARD_MERMIN_ANGLES,
    coherent_omega,
    coherent_pair_series,
    gisin_ab,
    spin_j_max,
)
from bellsim.limits import SCENARIOS
from bellsim.linalg import NumericGuardError
from bellsim.observables import PAULI_X, PAULI_Y, PAULI_Z, TSIRELSON_BOUND
from bellsim.states import DEFAULT_CUTOFF

SQRT2 = np.sqrt(2.0)
N_DRAWS = 200


def polar_chsh_oracle(psi, p):
    """Matrix-route CHSH with polar observables, parameter order
    (theta, theta', omega, omega', alpha, alpha', beta, beta')."""
    obs = [polar_observable(p[0], p[4]), polar_observable(p[1], p[5]),
           polar_observable(p[2], p[6]), polar_observable(p[3], p[7])]
    return expectation(chsh_operator(*obs), psi).real


def phase_chsh_oracle(psi, angles, scheme=None):
    scheme = scheme or PairingScheme.qubit()
    obs = [phase_flip_observable(a, scheme) for a in angles]
    return expectation(chsh_operator(*obs), psi).real


class TestChshPhi0Phase:
    def test_maximizing_angles(self):
        assert chsh_phi0_phase(*STANDARD_CHSH_ANGLES) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_all_zero_angles(self):
        assert chsh_phi0_phase(0, 0, 0, 0) == pytest.approx(2.0)

    def test_small_angle_violation(self):
        # alpha = 0, alpha' = pi/2, beta = -eps, beta' = eps gives
        # 2 cos(eps) + 2 sin(eps) > 2 for small positive eps
        for eps in (1e-3, 1e-2, 0.1):
            value = chsh_phi0_phase(0.0, np.pi / 2, -eps, eps)
            assert value == pytest.approx(2 * np.cos(eps) + 2 * np.sin(eps), abs=1e-12)
            assert value > 2.0

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(101)
        phi0 = bell_state(0)
        for _ in range(N_DRAWS):
            angles = rng.uniform(0, 2 * np.pi, 4)
            assert chsh_phi0_phase(*angles) == pytest.approx(
                phase_chsh_oracle(phi0, angles), abs=1e-10)

    def test_bounded_by_tsirelson(self):
        rng = np.random.default_rng(103)
        angles = rng.uniform(0, 2 * np.pi, (N_DRAWS, 4))
        values = chsh_phi0_phase(angles[:, 0], angles[:, 1], angles[:, 2], angles[:, 3])
        assert np.all(np.abs(values) <= TSIRELSON_BOUND + 1e-9)


class TestChshPhi0Polar:
    def test_reduces_to_phase_form_on_equator(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            a = rng.uniform(0, 2 * np.pi, 4)
            half = np.pi / 2
            lhs = chsh_phi0_polar(half, half, half, half, *a)
            assert lhs == pytest.approx(chsh_phi0_phase(*a), abs=1e-12)

    def test_all_z_settings_classical(self):
        assert abs(chsh_phi0_polar(0, 0, 0, 0, 0.3, 0.9, 1.2, 2.0)) <= 2.0 + 1e-12

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(109)
        phi0 = bell_state(0)
        for _ in range(N_DRAWS):
            p = np.concatenate([rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)])
            assert chsh_phi0_polar(*p) == pytest.approx(polar_chsh_oracle(phi0, p), abs=1e-10)


class TestChshGisin:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            chsh_gisin(2, *np.zeros(8))

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 100])
    def test_matches_matrix_route(self, n):
        rng = np.random.default_rng(113 + n)
        psi = gisin_family_state(n)
        for _ in range(40):
            p = np.concatenate([rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)])
            assert chsh_gisin(n, *p) == pytest.approx(polar_chsh_oracle(psi, p), abs=1e-10)


class TestChshRState:
    def test_matches_matrix_route(self):
        rng = np.random.default_rng(127)
        for _ in range(N_DRAWS):
            r = rng.uniform(-2.0, 2.0)
            psi = r_state(r)
            p = np.concatenate([rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)])
            assert chsh_rstate(r, *p) == pytest.approx(polar_chsh_oracle(psi, p), abs=1e-10)


class TestChshProduct:
    def test_matches_matrix_route(self):
        rng = np.random.default_rng(131)
        psi = r_state(0.0)  # |+->
        for _ in range(N_DRAWS):
            p = np.concatenate([rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)])
            assert chsh_rstate(0.0, *p) == pytest.approx(polar_chsh_oracle(psi, p), abs=1e-10)

    def test_never_violates(self):
        rng = np.random.default_rng(137)
        p = np.concatenate([rng.uniform(0, np.pi, (N_DRAWS, 4)),
                            rng.uniform(0, 2 * np.pi, (N_DRAWS, 4))], axis=1)
        values = chsh_rstate(0.0, *(p[:, i] for i in range(8)))
        assert np.all(np.abs(values) <= 2.0 + 1e-12)


class TestChshSpin:
    def test_spin1_maximum_value(self):
        value = float(chsh_spin_j(1, *(np.array([v]) for v in STANDARD_CHSH_ANGLES_DIFF)))
        assert value == pytest.approx((2.0 / 3.0) * (1 + 2 * SQRT2), abs=1e-12)
        assert value == pytest.approx(2.55228, abs=1e-5)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5])
    def test_matches_matrix_route(self, j):
        rng = np.random.default_rng(int(149 + 2 * j))
        scheme = PairingScheme.spin_reflection(j)
        npairs = len(scheme.pairs)
        psi = spin_singlet(j)
        for _ in range(40):
            phases = rng.uniform(0, 2 * np.pi, (4, npairs))
            obs = [phase_flip_observable(row, scheme) for row in phases]
            oracle = expectation(chsh_operator(*obs), psi).real
            closed = chsh_spin_j(j, *phases)
            assert float(closed) == pytest.approx(oracle, abs=1e-10)

    def test_maxima_formulas(self):
        assert spin_j_max(1.5) == pytest.approx(2 * SQRT2)
        assert spin_j_max(3.5) == pytest.approx(2 * SQRT2)
        assert spin_j_max(1) == pytest.approx((2.0 / 3.0) * (1 + 2 * SQRT2))
        assert spin_j_max(2) == pytest.approx(0.4 * (1 + 4 * SQRT2))
        assert spin_j_max(3) < 2 * SQRT2

    def test_wrong_phase_count(self):
        with pytest.raises(ValueError):
            chsh_spin_j(1.5, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("j", [1.3, 0, -0.5, float("nan"), 513])
    def test_invalid_spin_is_refused(self, j):
        # the error the CLI and scenario_spin give: 1.3 no longer reads as
        # 3/2, nor 0 and -0.5 as spins
        match = "positive integer or half-integer"
        with pytest.raises(ValueError, match=match):
            spin_j_max(j)
        with pytest.raises(ValueError, match=match):
            chsh_spin_j(j, *np.zeros((4, 1)))
        with pytest.raises(ValueError, match=match):
            make_scenario("spin", j=j)


class TestChshCoherent:
    def test_printed_reference_values(self):
        std = STANDARD_CHSH_ANGLES_DIFF
        assert chsh_coherent(0.1, 0.1, np.pi, *std) == pytest.approx(2.8284, abs=5e-4)
        assert chsh_coherent(1.0, 1.0, np.pi, *std) == pytest.approx(2.6678, abs=5e-4)
        assert chsh_coherent(0.7, 0.7, 0.0, *STANDARD_CHSH_ANGLES) == pytest.approx(
            2.0895, abs=5e-4)

    def test_leading_series_term(self):
        # truncating the pair series to n = m = 0 at the maximizing angles
        # leaves 4 sqrt(2) eta sigma / sinh(eta^2 + sigma^2)
        for eta, sigma in [(0.1, 0.1), (0.5, 0.3), (1.0, 1.0)]:
            lead = chsh_coherent(eta, sigma, np.pi, *STANDARD_CHSH_ANGLES_DIFF, max_terms=1)
            ref = 4 * SQRT2 * eta * sigma / np.sinh(eta**2 + sigma**2)
            assert lead == pytest.approx(ref, abs=1e-12)

    def test_series_factor_converges(self):
        assert coherent_pair_series(1.0, 60) == pytest.approx(
            coherent_pair_series(1.0, 10), abs=1e-12)

    @pytest.mark.parametrize("x", [7.0, -7.0, 1e200])
    def test_series_beyond_double_range_is_guard_failure(self, x):
        # terms past n = 50 need factorials no float can hold
        assert np.isfinite(coherent_pair_series(6.0))
        with pytest.raises(NumericGuardError):
            coherent_pair_series(x)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(151)
        cutoff = 16  # ample for |z| <= 0.8
        scheme = PairingScheme.even_odd(cutoff)
        for _ in range(N_DRAWS):
            eta, sigma = rng.uniform(0.05, 0.8, 2)
            phi = rng.uniform(0, 2 * np.pi)
            angles = rng.uniform(0, 2 * np.pi, 4)
            psi = entangled_coherent(eta, sigma, phi, cutoff)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(chsh_operator(*obs), psi).real
            assert chsh_coherent(eta, sigma, phi, *angles) == pytest.approx(oracle, abs=1e-5)

    def test_matches_matrix_route_at_default_cutoff(self):
        rng = np.random.default_rng(157)
        scheme = PairingScheme.even_odd(DEFAULT_CUTOFF)
        for _ in range(5):
            eta, sigma = rng.uniform(0.2, 1.2, 2)
            phi = rng.uniform(0, 2 * np.pi)
            angles = rng.uniform(0, 2 * np.pi, 4)
            psi = entangled_coherent(eta, sigma, phi, DEFAULT_CUTOFF)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(chsh_operator(*obs), psi).real
            assert chsh_coherent(eta, sigma, phi, *angles) == pytest.approx(oracle, abs=1e-5)

    def test_omega_factor(self):
        assert coherent_omega(0.0, 0.0, 0.0) == pytest.approx(0.5)


class TestChshSqueezed:
    def test_closed_form_at_maximizing_angles(self):
        for lam in np.linspace(0.05, 0.95, 19):
            value = chsh_squeezed(lam, *STANDARD_CHSH_ANGLES)
            assert value == pytest.approx(4 * SQRT2 * lam / (1 + lam * lam), abs=1e-12)

    def test_violation_threshold(self):
        lam_c = SQRT2 - 1.0
        assert chsh_squeezed(lam_c, *STANDARD_CHSH_ANGLES) == pytest.approx(2.0, abs=1e-12)
        assert chsh_squeezed(lam_c - 1e-6, *STANDARD_CHSH_ANGLES) < 2.0
        assert chsh_squeezed(lam_c + 1e-6, *STANDARD_CHSH_ANGLES) > 2.0

    def test_approaches_tsirelson(self):
        assert chsh_squeezed(0.99, *STANDARD_CHSH_ANGLES) == pytest.approx(2 * SQRT2, abs=2e-4)

    def test_half_squeezing_value(self):
        assert chsh_squeezed(0.5, *STANDARD_CHSH_ANGLES) == pytest.approx(
            4 * SQRT2 * 0.5 / 1.25, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_squeezed(1.0, 0, 0, 0, 0)

    def test_single_setting_correlator(self):
        # <A (x) B> = 2 lam/(1+lam^2) cos(a+b); read off via C(A,A,B,B) = 2 A(x)B
        lam, a, b = 0.5, 0.3, 0.4
        psi = squeezed_state(lam, DEFAULT_CUTOFF)
        scheme = PairingScheme.even_odd(DEFAULT_CUTOFF)
        oa, ob = phase_flip_observable(a, scheme), phase_flip_observable(b, scheme)
        value = expectation(chsh_operator(oa, oa, ob, ob), psi).real / 2.0
        assert value == pytest.approx(2 * lam / (1 + lam**2) * np.cos(a + b), abs=1e-10)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(163)
        cutoff = 16
        scheme = PairingScheme.even_odd(cutoff)
        for _ in range(N_DRAWS):
            lam = rng.uniform(0.05, 0.40)
            angles = rng.uniform(0, 2 * np.pi, 4)
            psi = squeezed_state(lam, cutoff)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(chsh_operator(*obs), psi).real
            assert chsh_squeezed(lam, *angles) == pytest.approx(oracle, abs=1e-8)

    def test_matches_matrix_route_at_default_cutoff(self):
        rng = np.random.default_rng(167)
        scheme = PairingScheme.even_odd(DEFAULT_CUTOFF)
        for _ in range(5):
            lam = rng.uniform(0.4, 0.7)
            angles = rng.uniform(0, 2 * np.pi, 4)
            psi = squeezed_state(lam, DEFAULT_CUTOFF)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(chsh_operator(*obs), psi).real
            assert chsh_squeezed(lam, *angles) == pytest.approx(oracle, abs=1e-8)


class TestMerminClosedForms:
    def test_maximizing_angles_give_four(self):
        assert mermin3_ghz(*STANDARD_MERMIN_ANGLES[3]) == pytest.approx(4.0, abs=1e-12)

    def test_zero_angles(self):
        assert mermin3_ghz(0, 0, 0, 0, 0, 0) == pytest.approx(2.0)

    def test_single_product_expectation_sign(self):
        # the matrix route on (|+++> - |--->)/sqrt(2) gives -cos(a+b+c)
        rng = np.random.default_rng(173)
        ghz = ghz_state(3)
        scheme = PairingScheme.qubit()
        for _ in range(20):
            a, b, c = rng.uniform(0, 2 * np.pi, 3)
            obs_a = phase_flip_observable(a, scheme)
            obs_b = phase_flip_observable(b, scheme)
            obs_c = phase_flip_observable(c, scheme)
            m = mermin3_operator(obs_a, obs_a, obs_b, obs_b, obs_c, obs_c)
            # degenerate Mermin operator is 2 ABC
            oracle = expectation(m, ghz).real / 2.0
            assert oracle == pytest.approx(-np.cos(a + b + c), abs=1e-10)

    def test_m3_closed_form_is_minus_oracle(self):
        rng = np.random.default_rng(179)
        ghz = ghz_state(3)
        scheme = PairingScheme.qubit()
        for _ in range(N_DRAWS):
            angles = rng.uniform(0, 2 * np.pi, 6)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(mermin3_operator(*obs), ghz).real
            assert mermin3_ghz(*angles) == pytest.approx(-oracle, abs=1e-10)

    def test_m4_closed_form_matches_oracle(self):
        rng = np.random.default_rng(181)
        ghz = ghz_state(4)
        scheme = PairingScheme.qubit()
        for _ in range(50):
            angles = rng.uniform(0, 2 * np.pi, 8)
            obs = [phase_flip_observable(a, scheme) for a in angles]
            oracle = expectation(mermin4_operator(*obs), ghz).real
            assert mermin4_ghz(*angles) == pytest.approx(oracle, abs=1e-10)

    def test_m4_maximizing_angles(self):
        assert mermin4_ghz(*STANDARD_MERMIN_ANGLES[4]) == pytest.approx(4 * SQRT2, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(191)
        a6 = rng.uniform(0, 2 * np.pi, (N_DRAWS, 6))
        v3 = mermin3_ghz(*(a6[:, i] for i in range(6)))
        assert np.all(np.abs(v3) <= SCENARIOS["mermin3"].quantum_bound + 1e-9)
        a8 = rng.uniform(0, 2 * np.pi, (N_DRAWS, 8))
        v4 = mermin4_ghz(*(a8[:, i] for i in range(8)))
        assert np.all(np.abs(v4) <= SCENARIOS["mermin4"].quantum_bound + 1e-9)


class TestClassify:
    """The verdict on matrix-route values: ``linalg.expectation`` of a CHSH
    operator, and the scenario oracles."""

    def test_product_state_never_violates(self):
        rng = np.random.default_rng(193)
        psi = r_state(0.0)
        for _ in range(50):
            p = np.concatenate([rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4)])
            obs = [polar_observable(p[i], p[4 + i]) for i in range(4)]
            value = expectation(chsh_operator(*obs), psi)
            assert abs(value.imag) <= 1e-10
            assert abs(value.real) <= 2.0 + 1e-12
            assert not classify(value.real, 2.0, TSIRELSON_BOUND)

    def test_bell_state_at_maximizing_angles(self):
        scenario = make_scenario("chsh-phase")
        value = scenario.oracle(STANDARD_CHSH_ANGLES)
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-10)
        assert classify(value, scenario.classical_bound, scenario.quantum_bound)

    def test_ghz4_optimal(self):
        scenario = make_scenario("mermin4")
        value = scenario.oracle(STANDARD_MERMIN_ANGLES[4])
        assert value == pytest.approx(4 * SQRT2, abs=1e-10)
        assert classify(value, scenario.classical_bound, scenario.quantum_bound)

    def test_threshold_is_not_a_violation(self):
        assert not classify(2.0, 2.0, TSIRELSON_BOUND)

    @pytest.mark.parametrize("value", [3.0, -TSIRELSON_BOUND - 2e-9, float("nan")])
    def test_quantum_bound_enforced(self, value):
        with pytest.raises(NumericGuardError):
            classify(value, 2.0, TSIRELSON_BOUND)

    def test_quantum_bound_holds_within_its_tolerance(self):
        assert classify(-TSIRELSON_BOUND - 1e-9, 2.0, TSIRELSON_BOUND)


class TestTensorConsistency:
    def test_two_qubit_product_state_expectation(self):
        # <+ -| A (x) B |+ -> = <+|A|+><-|B|->
        rng = np.random.default_rng(197)
        from bellsim import StateVector, tensor_op
        plus, minus = StateVector([1, 0]), StateVector([0, 1])
        psi = tensor_state(plus, minus)
        for _ in range(20):
            t1, t2 = rng.uniform(0, np.pi, 2)
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            ab = tensor_op(polar_observable(t1, a1), polar_observable(t2, a2))
            assert expectation(ab, psi).real == pytest.approx(
                np.cos(t1) * (-np.cos(t2)), abs=1e-12)


# ---------------------------------------------------------------------------
# The closed forms as they were written before they became correlation
# tensor contractions, one formula in the angles each: a further reference.
# ---------------------------------------------------------------------------

# sign of an order-4 Mermin product term by its number of primed settings
M4_SIGNS = (-1.0, 1.0, 1.0, -1.0, -1.0)


def _polar_terms(e):
    def chsh(t, tp, o, op, a, ap, b, bp):
        return e(t, o, a, b) + e(tp, o, ap, b) + e(t, op, a, bp) - e(tp, op, ap, bp)
    return chsh


def _phase_terms(e):
    def chsh(a, ap, b, bp):
        return e(a, b) + e(ap, b) + e(a, bp) - e(ap, bp)
    return chsh


def _angle_gisin_ab(n, theta, omega, alpha, beta):
    s3 = np.sqrt(n - 3.0)
    return (np.cos(theta) * np.cos(omega) * (n - 4.0)
            + 2.0 * np.cos(theta) * np.sin(omega) * (1.0 - s3) * np.cos(beta)
            + 2.0 * np.sin(theta) * np.cos(omega) * (1.0 - s3) * np.cos(alpha)
            + 2.0 * np.sin(theta) * np.sin(omega)
            * (s3 * np.cos(alpha + beta) + np.cos(alpha - beta))) / float(n)


def _angle_gisin(n, *p):
    return _polar_terms(partial(_angle_gisin_ab, n))(*p)


_angle_phi0_polar = _polar_terms(
    lambda t, o, a, b: np.cos(t) * np.cos(o) + np.sin(t) * np.sin(o) * np.cos(a + b))
_angle_phi0_phase = _phase_terms(lambda a, b: np.cos(a + b))


def _angle_rstate(r, *p):
    k = 2.0 * r / (1.0 + r * r)
    return _polar_terms(lambda t, o, a, b: k * np.sin(t) * np.sin(o) * np.cos(a - b)
                        - np.cos(t) * np.cos(o))(*p)


def _angle_squeezed(lam, *p):
    return 2.0 * lam / (1.0 + lam * lam) * _angle_phi0_phase(*p)


def _angle_coherent(eta, sigma, phi, *p):
    delta = coherent_pair_series(eta) * coherent_pair_series(sigma)
    cp = np.cos(phi)
    return 4.0 * coherent_omega(eta, sigma, phi) * delta * _phase_terms(
        lambda x, y: np.cos(x) * np.cos(y) - cp * np.sin(x) * np.sin(y))(*p)


def _angle_spin(j, a, ap, b, bp):
    combo = _phase_terms(lambda x, y: np.cos(x - y))(a, ap, b, bp).sum(axis=-1)
    s = 2.0 / (2 * j + 1.0)
    return s * (1.0 + combo) if j % 1 == 0 else -s * combo


def _angle_mermin3(a, ap, b, bp, c, cp):
    return (np.cos(ap + b + c) + np.cos(a + bp + c) + np.cos(a + b + cp)
            - np.cos(ap + bp + cp))


def _angle_mermin4(*angles):
    total = 0.0
    for bits in np.ndindex(2, 2, 2, 2):
        s = sum(angles[2 * party + bit] for party, bit in enumerate(bits))
        total = total + M4_SIGNS[sum(bits)] * np.cos(s)
    return -total / 2.0


# name: (public form, its angle form, angle count)
ANGLE_FORMS = {
    "chsh-phase": (chsh_phi0_phase, _angle_phi0_phase, 4),
    "chsh-polar": (chsh_phi0_polar, _angle_phi0_polar, 8),
    "gisin-3": (partial(chsh_gisin, 3), partial(_angle_gisin, 3), 8),
    "gisin-5": (partial(chsh_gisin, 5), partial(_angle_gisin, 5), 8),
    "gisin-1000": (partial(chsh_gisin, 1000), partial(_angle_gisin, 1000), 8),
    "r-state-0.5": (partial(chsh_rstate, 0.5), partial(_angle_rstate, 0.5), 8),
    "r-state--1.7": (partial(chsh_rstate, -1.7), partial(_angle_rstate, -1.7), 8),
    "product-state": (partial(chsh_rstate, 0.0), partial(_angle_rstate, 0.0), 8),
    "squeezed-0.35": (partial(chsh_squeezed, 0.35), partial(_angle_squeezed, 0.35), 4),
    "coherent": (partial(chsh_coherent, 0.4, 0.7, 2.0),
                 partial(_angle_coherent, 0.4, 0.7, 2.0), 4),
    "coherent-pi": (partial(chsh_coherent, 0.1, 0.1, np.pi),
                    partial(_angle_coherent, 0.1, 0.1, np.pi), 4),
    "mermin3": (mermin3_ghz, _angle_mermin3, 6),
    "mermin4": (mermin4_ghz, _angle_mermin4, 8),
}
# every scenario, and its angle form on the scenario's angles
SCENARIO_CASES = [
    (("chsh-phase", {}), _angle_phi0_phase),
    (("chsh-polar", {}), _angle_phi0_polar),
    (("gisin", {"n": 3}), partial(_angle_gisin, 3)),
    (("gisin", {"n": 1000}), partial(_angle_gisin, 1000)),
    (("r-state", {"r": 0.999}), partial(_angle_rstate, 0.999)),
    (("r-state", {"r": -1.7}), partial(_angle_rstate, -1.7)),
    (("product-state", {}), partial(_angle_rstate, 0.0)),
    (("spin", {"j": 1.5}), lambda *p: _angle_spin(1.5, *np.split(np.stack(p, -1), 4, -1))),
    (("spin", {"j": 2}), lambda *p: _angle_spin(2, *np.split(np.stack(p, -1), 4, -1))),
    (("squeezed", {"lam": 0.4}), partial(_angle_squeezed, 0.4)),
    (("coherent", {"eta": 0.4, "sigma": 0.7, "phi": 2.0}),
     partial(_angle_coherent, 0.4, 0.7, 2.0)),
    (("mermin3", {}), _angle_mermin3),
    (("mermin4", {}), _angle_mermin4),
]
# the largest |tensor form - angle form| over every test below: a few ulps
# of a value up to 4 sqrt(2)
ATOL_FORMS = 1e-14


class TestTensorFormsMatchAngleForms:
    # a column-major block of settings, each column one contiguous array,
    # with angles on both sides of zero
    BLOCK = np.asfortranarray(
        np.random.default_rng(4096).uniform(-2 * np.pi, 2 * np.pi, (4096, 8)))

    @pytest.mark.parametrize("name", ANGLE_FORMS)
    def test_public_form(self, name):
        form, reference, count = ANGLE_FORMS[name]
        p = [self.BLOCK[:, i] for i in range(count)]
        np.testing.assert_allclose(form(*p), reference(*p), rtol=0, atol=ATOL_FORMS)

    @pytest.mark.parametrize("n", [3, 5, 1000])
    def test_gisin_is_the_signed_sum_of_its_correlators(self, n):
        t, tp, o, op, a, ap, b, bp = (self.BLOCK[:, i] for i in range(8))
        signed = (gisin_ab(n, t, o, a, b) + gisin_ab(n, tp, o, ap, b)
                  + gisin_ab(n, t, op, a, bp) - gisin_ab(n, tp, op, ap, bp))
        np.testing.assert_allclose(chsh_gisin(n, t, tp, o, op, a, ap, b, bp), signed,
                                   rtol=0, atol=ATOL_FORMS)
        np.testing.assert_allclose(gisin_ab(n, t, o, a, b), _angle_gisin_ab(n, t, o, a, b),
                                   rtol=0, atol=ATOL_FORMS)

    def test_spin(self):
        for j, pairs in ((0.5, 1), (1, 1), (1.5, 2), (2, 2)):
            p = self.BLOCK[:1024].reshape(1024, 4, 2)[:, :, :pairs].transpose(1, 0, 2)
            np.testing.assert_allclose(chsh_spin_j(j, *p), _angle_spin(j, *p),
                                       rtol=0, atol=ATOL_FORMS)

    def test_mermin4_at_zero_angle_sums(self):
        for zeros in ([-0.0] * 8, [0.0] * 8, [np.pi, -np.pi] * 4):
            assert mermin4_ghz(*zeros) == pytest.approx(_angle_mermin4(*zeros), abs=ATOL_FORMS)

    @pytest.mark.parametrize("name", ["gisin-5", "chsh-polar", "r-state-0.5", "mermin4",
                                      "coherent"])
    def test_public_form_keeps_scalars_and_broadcasting(self, name):
        form, reference, count = ANGLE_FORMS[name]
        scalar = form(*np.linspace(0.1, 0.8, count))
        assert type(scalar) is np.float64
        assert scalar == pytest.approx(reference(*np.linspace(0.1, 0.8, count)),
                                       abs=ATOL_FORMS)
        rng = np.random.default_rng(31)
        # scalars, rows and columns mixed: the result takes their broadcast shape
        args = [0.3, rng.uniform(-4, 4, 5), -0.0, rng.uniform(-4, 4, (3, 1)),
                rng.uniform(-4, 4, (3, 5)), 1.0, rng.uniform(-4, 4, 5), np.float64(2.5)]
        value = form(*args[:count])
        assert value.shape == (3, 5)
        np.testing.assert_allclose(value, reference(*args[:count]), rtol=0, atol=ATOL_FORMS)

    @staticmethod
    def probes(scenario, rows=64):
        """The search's evaluator inputs: a (rows, S, w) batch of unit
        vectors, one (S, w) point, and (rows, w + 1, S, w) step probes with
        a first- and a second-party setting at +-e1, e2 (and e3)."""
        rng = np.random.default_rng(scenario.settings)
        x = rng.standard_normal((rows, scenario.settings, scenario.width))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        out = [x, x[0]]
        for i in (0, scenario.settings // 2 + 1):
            probe = np.repeat(x[:, None], scenario.width + 1, axis=1)
            probe[:, :, i] = optimize.PROBE[scenario.width]
            out.append(probe)
        return out

    @pytest.mark.parametrize("case, reference", SCENARIO_CASES,
                             ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                                  for (n, kw), _ in SCENARIO_CASES])
    def test_scenario_evaluator_on_the_search_probes(self, case, reference):
        name, params = case
        scenario = make_scenario(name, **params)
        for x in self.probes(scenario):
            angles = correlators.angles_of(x)
            expected = reference(*(angles[..., i] for i in range(angles.shape[-1])))
            np.testing.assert_allclose(scenario.evaluator(x), expected, rtol=0,
                                       atol=ATOL_FORMS)


# ---------------------------------------------------------------------------
# Each polar scenario's correlation matrix, read off its evaluator, against
# T_ij = <psi|s_i (x) s_j|psi> from the state's amplitudes: a third route
# that shares no formula with the closed form or the polar-observable oracle.
# ---------------------------------------------------------------------------

PAULI_ZXY = (PAULI_Z, PAULI_X, PAULI_Y)


def _amplitude_correlation(psi):
    v = psi.amplitudes
    return np.array([[np.vdot(v, np.kron(si, sj) @ v).real for sj in PAULI_ZXY]
                     for si in PAULI_ZXY])


def _evaluator_correlation(scenario):
    # a = e_i and b = e_j with a' = b' = 0 leave a.T(b + b') = T_ij
    t = np.zeros((3, 3))
    for i, j in np.ndindex(3, 3):
        x = np.zeros((4, 3))
        x[0, i] = x[2, j] = 1.0
        t[i, j] = scenario.evaluator(x)
    return t


CORRELATION_CASES = [
    ("chsh-polar", {}, bell_state(0)),
    ("product-state", {}, r_state(0.0)),
    *(("gisin", {"n": n}, gisin_family_state(n)) for n in (3, 4, 5, 12, 1000)),
    *(("r-state", {"r": r}, r_state(r)) for r in (0.0, 0.5, 0.999)),
]


@pytest.mark.parametrize("name, params, psi", CORRELATION_CASES,
                         ids=[f"{n}{''.join(f'-{v:g}' for v in kw.values())}"
                              for n, kw, _ in CORRELATION_CASES])
def test_polar_correlation_matrix_matches_the_amplitudes(name, params, psi):
    # the amplitudes are rounded once more when the state is normalized: at
    # r = 0.999 their T_xx sits 3 ulps below the literal, the rounded k
    scenario = make_scenario(name, **params)
    np.testing.assert_allclose(_evaluator_correlation(scenario), _amplitude_correlation(psi),
                               rtol=0, atol=3.4e-16)
