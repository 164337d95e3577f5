import numpy as np
import pytest

from bellsim import lhv
from bellsim.lhv import (
    LhvModel,
    SIGN_MODEL,
    chsh_lhv,
    estimate_E,
    get_model,
    register_model,
    singlet_quantum_E,
    singlet_quantum_chsh,
    uniform_sphere,
)

from helpers import random_unit

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def vec_at(theta):
    return np.array([np.cos(theta), np.sin(theta), 0.0])


class TestModelContract:
    def test_sign_model_registered(self):
        assert get_model("sign") is SIGN_MODEL

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("nope")

    def test_custom_model_roundtrip(self):
        # hidden variable limited to the z axis sign; still a valid local model
        def response(setting, lam):
            return np.where(lam @ np.asarray(setting) * np.sign(lam[:, 2:3]).ravel() >= 0, 1, -1)

        model = LhvModel(
            name="zflip",
            sample=uniform_sphere,
            response_a=response,
            response_b=lambda s, lam: -response(s, lam),
        )
        register_model(model)
        assert get_model("zflip") is model
        est = chsh_lhv(model, X, Y, vec_at(np.pi / 4), vec_at(-np.pi / 4),
                       n=20000, seed=5)
        assert abs(est.mean) <= 2.0 + 5 * est.std_error
        assert est.dichotomy_failures == 0

    def test_anticorrelation_enforced_at_construction(self):
        with pytest.raises(ValueError):
            LhvModel(
                name="broken",
                sample=uniform_sphere,
                response_a=lambda s, lam: np.where(lam @ np.asarray(s) >= 0, 1, -1),
                response_b=lambda s, lam: np.where(lam @ np.asarray(s) >= 0, 1, -1),
            )

    def test_nonbinary_responses_rejected(self):
        with pytest.raises(ValueError):
            LhvModel(
                name="broken2",
                sample=uniform_sphere,
                response_a=lambda s, lam: (lam @ np.asarray(s)),
                response_b=lambda s, lam: -(lam @ np.asarray(s)),
            )


class TestEstimateE:
    def test_same_setting_perfectly_anticorrelated(self):
        est = estimate_E(SIGN_MODEL, X, X, n=50_000, seed=0)
        assert est.mean == -1.0
        assert est.std_error == 0.0

    def test_perpendicular_settings_uncorrelated(self):
        est = estimate_E(SIGN_MODEL, X, Y, n=400_000, seed=1)
        assert abs(est.mean) <= 4 * est.std_error

    @pytest.mark.parametrize("theta", [0.25, np.pi / 4, 1.0, 2.0, 3.0])
    def test_linear_angle_law(self, theta):
        # analytic sign-model value: E(theta) = -1 + 2 theta / pi
        est = estimate_E(SIGN_MODEL, X, vec_at(theta), n=400_000, seed=2)
        assert est.mean == pytest.approx(-1 + 2 * theta / np.pi, abs=4 * est.std_error)

    def test_deterministic_given_seed(self):
        a = estimate_E(SIGN_MODEL, X, vec_at(1.0), n=123_457, seed=9)
        b = estimate_E(SIGN_MODEL, X, vec_at(1.0), n=123_457, seed=9)
        assert a == b

    def test_rejects_non_unit_setting(self):
        with pytest.raises(ValueError):
            estimate_E(SIGN_MODEL, 2 * X, X, n=10)
        with pytest.raises(ValueError):  # a NaN norm compares False against any tolerance
            estimate_E(SIGN_MODEL, X, np.array([np.nan, 0.0, 0.0]), n=10)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            estimate_E(SIGN_MODEL, X, Y, n=0)

    def test_rejects_samples_above_the_bound(self):
        with pytest.raises(ValueError):
            estimate_E(SIGN_MODEL, X, Y, n=lhv.MAX_SAMPLES + 1)


class TestChshLhv:
    def test_classical_bound_over_random_quadruples(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            vecs = [random_unit(rng) for _ in range(4)]
            est = chsh_lhv(SIGN_MODEL, *vecs, n=20_000, seed=100 + trial)
            assert abs(est.mean) <= 2.0 + 5 * est.std_error
            assert est.dichotomy_failures == 0

    def test_rejects_nan_setting(self):
        with pytest.raises(ValueError):
            chsh_lhv(SIGN_MODEL, X, Y, np.array([np.nan, 0.0, 0.0]), Z, n=10)

    def test_per_sample_combination_is_dichotomic(self):
        est = chsh_lhv(SIGN_MODEL, X, Y, vec_at(np.pi / 4), vec_at(-np.pi / 4),
                       n=200_000, seed=4)
        assert est.dichotomy_failures == 0

    def test_quantum_gap_at_optimal_settings(self):
        vecs = (X, Y, vec_at(np.pi / 4), vec_at(-np.pi / 4))
        quantum = singlet_quantum_chsh(*vecs)
        assert abs(quantum) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        est = chsh_lhv(SIGN_MODEL, *vecs, n=200_000, seed=6)
        assert abs(est.mean) <= 2.0 + 5 * est.std_error
        assert abs(quantum) - abs(est.mean) > 0.5  # the gap is macroscopic

    def test_sharding_rule_extends_streams(self):
        # growing the sample count only appends blocks: shared prefix sums agree
        short = chsh_lhv(SIGN_MODEL, X, Y, vec_at(0.5), vec_at(2.5),
                         n=1 << 16, seed=11)
        longer = chsh_lhv(SIGN_MODEL, X, Y, vec_at(0.5), vec_at(2.5),
                          n=(1 << 16) + 999, seed=11)
        assert short.samples == 1 << 16 and longer.samples == (1 << 16) + 999
        # means differ but both stay inside the classical window
        for est in (short, longer):
            assert abs(est.mean) <= 2.0 + 5 * est.std_error


class TestQuantumReference:
    def test_cosine_law(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_unit(rng), random_unit(rng)
            assert singlet_quantum_E(a, b) == pytest.approx(-np.dot(a, b), abs=1e-12)

    def test_detectably_differs_from_sign_model(self):
        theta = np.pi / 4
        quantum = singlet_quantum_E(X, vec_at(theta))
        lhv_line = -1 + 2 * theta / np.pi
        est = estimate_E(SIGN_MODEL, X, vec_at(theta), n=400_000, seed=8)
        assert abs(quantum - lhv_line) > 0.2
        assert abs(est.mean - lhv_line) < 0.01
        assert abs(est.mean - quantum) > 0.1


class TestPinnedStreams:
    # exact means of the seeded block streams; any change to the draws, the
    # responses or the integer accumulation moves them
    def test_chsh_mean(self):
        est = chsh_lhv(SIGN_MODEL, X, Y, vec_at(0.5), vec_at(2.5),
                       n=(1 << 16) + 999, seed=11)
        assert est.mean == 0.0022544525437739535

    def test_e_mean(self):
        est = estimate_E(SIGN_MODEL, X, vec_at(1.0), n=123_457, seed=9)
        assert est.mean == -0.368168674113254
