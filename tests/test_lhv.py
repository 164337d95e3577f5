import os
import signal
import sys
import threading
import time
import tracemalloc

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
from bellsim.limits import LHV_MODELS

from helpers import random_unit

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def vec_at(theta):
    return np.array([np.cos(theta), np.sin(theta), 0.0])


def _shifted_sign(setting, lam):
    # a threshold off zero makes the responses see the radius, so the
    # normalisation in uniform_sphere reaches the result
    return np.where(lam @ np.asarray(setting, dtype=float) >= 0.25, 1, -1)


SHIFTED_SPHERE = LhvModel(name="shifted-sphere", sample=uniform_sphere,
                          response_a=_shifted_sign,
                          response_b=lambda s, lam: -_shifted_sign(s, lam))


class TestModelContract:
    def test_sign_model_registered(self):
        assert get_model("sign") is SIGN_MODEL

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("nope")

    def test_builtin_names_are_the_cli_choices(self):
        # the command line offers these names before it loads numpy
        assert LHV_MODELS == tuple(lhv.MODELS)

    def test_custom_model_roundtrip(self, monkeypatch):
        monkeypatch.setattr(lhv, "MODELS", dict(lhv.MODELS))  # registers for this test only
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

    def test_sampler_shape_enforced_at_construction(self):
        with pytest.raises(ValueError, match="sampler"):
            LhvModel(
                name="flat",
                sample=lambda rng, n: rng.standard_normal((n, 2)),
                response_a=lambda s, lam: np.ones(len(lam)),
                response_b=lambda s, lam: -np.ones(len(lam)),
            )

    @pytest.mark.parametrize("sample", [SIGN_MODEL.sample, uniform_sphere],
                             ids=["sign", "sphere"])
    def test_chunked_draws_give_the_block_bits(self, sample):
        seed = np.random.SeedSequence(entropy=5, spawn_key=(3,))
        whole = sample(np.random.default_rng(seed), lhv.BLOCK_SIZE)
        rng = np.random.default_rng(seed)
        chunks = np.concatenate([sample(rng, lhv.BLOCK_SIZE // 8) for _ in range(8)])
        assert chunks.tobytes() == whole.tobytes()

    def test_column_wise_sampler_rejected(self):
        # each column drawn whole: two halves of n rows are not one draw of 2n
        def columns(rng, n):
            return np.column_stack([rng.standard_normal(n) for _ in range(3)])

        with pytest.raises(ValueError, match="sampler must draw its rows in sequence"):
            LhvModel(name="columns", sample=columns, response_a=_shifted_sign,
                     response_b=lambda s, lam: -_shifted_sign(s, lam))

    @pytest.mark.parametrize("mix", [
        lambda lam: lam - lam.mean(0),  # centred on the batch mean
        lambda lam: lam[::-1],  # answers row i from another row
    ], ids=["batch-mean", "reversed-rows"])
    def test_row_mixing_model_rejected(self, mix):
        def response(s, lam):
            return np.where(mix(lam) @ np.asarray(s) >= 0, 1, -1)

        with pytest.raises(ValueError, match="not local"):
            LhvModel(name="mixing", sample=uniform_sphere, response_a=response,
                     response_b=lambda s, lam: -response(s, lam))

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


def _gaussian(rng, n):
    return rng.standard_normal((n, 3))


def _block_draws(n, seed):
    # the documented stream: block k of BLOCK_SIZE rows from child seed k
    for block, start in enumerate(range(0, n, lhv.BLOCK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        yield rng.standard_normal((min(lhv.BLOCK_SIZE, n - start), 3))


def _silent_sign(setting, lam):
    # answers 0 where lam_x > 2.5, about 0.6 % of the draws and none of the
    # 64 rows of the construction probe
    r = np.where(lam @ np.asarray(setting) >= 0, 1, -1)
    r[lam[:, 0] > 2.5] = 0
    return r


SILENT = LhvModel(name="silent", sample=_gaussian, response_a=_silent_sign,
                  response_b=lambda s, lam: -_silent_sign(s, lam))


def _std_error(values):
    return values.std(ddof=1) / np.sqrt(values.size)


class TestDichotomyFailures:
    N = 3 * (1 << 16) + 8195  # crosses block and chunk boundaries

    def test_chsh_counts_every_silent_sample(self):
        seed = 21
        a, a_p, b, b_p = X, Y, vec_at(0.5), vec_at(2.5)
        expected, values = 0, []
        for lam in _block_draws(self.N, seed):
            A = lambda v: np.where(lam @ v >= 0, 1, -1)  # B(v) = -A(v)
            value = -A(a) * A(b) - A(a_p) * A(b) - A(a) * A(b_p) + A(a_p) * A(b_p)
            silent = lam[:, 0] > 2.5  # every response is 0, so the sample is 0
            value[silent] = 0
            expected += int(np.count_nonzero(silent))
            values.append(value)
        est = chsh_lhv(SILENT, a, a_p, b, b_p, n=self.N, seed=seed)
        assert 0 < expected < self.N // 100
        assert est.dichotomy_failures == expected
        # the silent samples square to 0, not 4: the variance must see them
        assert est.std_error == pytest.approx(_std_error(np.concatenate(values)), rel=1e-12)

    def test_e_counts_and_sums_independently(self):
        seed = 22
        b = vec_at(1.0)
        failures = total = 0
        values = []
        for lam in _block_draws(self.N, seed):
            silent = lam[:, 0] > 2.5
            failures += int(np.count_nonzero(silent))
            agree = (lam @ X >= 0) == (lam @ b >= 0)  # A(a) B(b) = -1
            total += int(np.count_nonzero(~agree & ~silent))
            total -= int(np.count_nonzero(agree & ~silent))
            values.append(np.where(silent, 0, np.where(agree, -1, 1)))
        est = estimate_E(SILENT, X, b, n=self.N, seed=seed)
        assert est.dichotomy_failures == failures > 0
        assert est.mean == total / self.N
        assert est.std_error == pytest.approx(_std_error(np.concatenate(values)), rel=1e-12)


class TestWorkingSet:
    # one block of lam is BLOCK_SIZE * 3 float64 = 1.5 MiB; the estimate draws
    # and answers one chunk at a time and releases its rows and responses
    # once spent, so it never holds a whole block of lam, whatever n is.
    # While they were kept through the next chunk, CHSH peaked at 771 KiB and
    # E at 514 KiB (sign) and 643 KiB (sphere); on one thread they now read
    # 463-519 and 334-391.  The threads of one estimate split one chunk of
    # rows among them, so the bounds hold at any worker count: a thread
    # answering 2048 rows peaks at 135 KiB at most, so four threads at their
    # peaks at once hold 540 KiB.  With the combination and its square both
    # kept through the next chunk, E read up to 599 KiB at four workers.
    @pytest.mark.parametrize("workers", [lhv._WORKERS, 4], ids=["host", "4-workers"])
    @pytest.mark.parametrize("model", [SIGN_MODEL, SHIFTED_SPHERE], ids=["sign", "sphere"])
    @pytest.mark.parametrize("estimate, limit_kib", [
        (lambda model, n: chsh_lhv(model, X, Y, vec_at(0.5), vec_at(2.5), n=n, seed=1), 700),
        (lambda model, n: estimate_E(model, X, vec_at(0.5), n=n, seed=1), 560),
    ], ids=["chsh", "E"])
    def test_traced_peak_stays_within_one_block(self, estimate, limit_kib, model, workers,
                                                monkeypatch):
        monkeypatch.setattr(lhv, "_WORKERS", workers)
        estimate(model, lhv.BLOCK_SIZE)  # warm any lazy caches
        tracemalloc.start()
        try:
            estimate(model, 4 * lhv.BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_kib * 1024


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


# (model, estimator, n) -> float.hex of mean and std_error, dichotomy_failures;
# n straddles the 8192-row chunk and the 65536-row block
GOLDEN = {
    ("sign", "chsh", 1): ("-0x1.0000000000000p+1", "0x0.0p+0", 0),
    ("sign", "E", 1): ("-0x1.0000000000000p+0", "0x0.0p+0", 0),
    ("sign", "chsh", 8191): ("-0x1.4c0a605302981p-6", "0x1.6a1074f42fbfep-6", 0),
    ("sign", "E", 8191): ("-0x1.7aabd55eaaf55p-2", "0x1.506a770e2c186p-7", 0),
    ("sign", "chsh", 8193): ("-0x1.4bf5a052fd681p-6", "0x1.6a0524db80b7bp-6", 0),
    ("sign", "E", 8193): ("-0x1.7a942b5ea50adp-2", "0x1.506347e95e64bp-7", 0),
    ("sign", "chsh", 65536): ("0x1.a000000000000p-10", "0x1.00007ab85d4e6p-7", 0),
    ("sign", "E", 65536): ("-0x1.75a0000000000p-2", "0x1.dcb4b8c4e53acp-9", 0),
    ("sign", "chsh", 65537): ("0x1.a7fe5801a7fe6p-10", "0x1.fffff50715d3cp-8", 0),
    ("sign", "E", 65537): ("-0x1.75a28a5d75a29p-2", "0x1.dcb34afaa78afp-9", 0),
    ("sign", "chsh", 300001): ("-0x1.465e41d67e074p-8", "0x1.de9b150df55e9p-9", 0),
    ("sign", "E", 300001): ("-0x1.755184feee476p-2", "0x1.bdaaf6ba25ab3p-10", 0),
    ("sphere", "chsh", 1): ("-0x1.0000000000000p+1", "0x0.0p+0", 0),
    ("sphere", "E", 1): ("-0x1.0000000000000p+0", "0x0.0p+0", 0),
    ("sphere", "chsh", 8191): ("-0x1.29894c4a62531p-3", "0x1.692056250bf3bp-6", 0),
    ("sphere", "E", 8191): ("-0x1.8c2c61630b186p-2", "0x1.4de2e379cd273p-7", 0),
    ("sphere", "chsh", 8193): ("-0x1.2876bc4a1daf1p-3", "0x1.6916d09fbbbf1p-6", 0),
    ("sphere", "E", 8193): ("-0x1.8c139f6304e7ep-2", "0x1.4ddc203f79a39p-7", 0),
    ("sphere", "chsh", 65536): ("-0x1.27c0000000000p-3", "0x1.feaae0f8671b4p-8", 0),
    ("sphere", "E", 65536): ("-0x1.85c0000000000p-2", "0x1.d9779807b3bf5p-9", 0),
    ("sphere", "chsh", 65537): ("-0x1.27aed85127aeep-3", "0x1.feaa095f4cc3cp-8", 0),
    ("sphere", "E", 65537): ("-0x1.85c27a3d85c28p-2", "0x1.d97628c4cf4d3p-9", 0),
    ("sphere", "chsh", 300001): ("-0x1.234afb36432ecp-3", "0x1.dd653c3aab454p-9", 0),
    ("sphere", "E", 300001): ("-0x1.890de430a12d5p-2", "0x1.b9f203721566fp-10", 0),
}


def _golden_estimate(key):
    name, estimator, n = key
    model = {"sign": SIGN_MODEL, "sphere": SHIFTED_SPHERE}[name]
    if estimator == "chsh":
        return chsh_lhv(model, X, Y, vec_at(0.5), vec_at(2.5), n=n, seed=11)
    return estimate_E(model, X, vec_at(1.0), n=n, seed=9)


class TestPinnedStreams:
    # exact results of the seeded block streams; any change to the draws, the
    # responses or the integer accumulation moves them
    @pytest.mark.parametrize("key", sorted(GOLDEN, key=str), ids=str)
    def test_golden_estimates(self, key):
        est = _golden_estimate(key)
        assert (est.mean.hex(), est.std_error.hex(), est.dichotomy_failures) == GOLDEN[key]
        assert est.samples == key[2]

    # more than one block: the blocks run on threads, whatever the host's cores
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("key", sorted((k for k in GOLDEN if k[2] > lhv.BLOCK_SIZE),
                                           key=str), ids=str)
    def test_worker_count_cannot_change_a_result(self, key, workers, monkeypatch):
        monkeypatch.setattr(lhv, "_WORKERS", workers)
        est = _golden_estimate(key)
        assert (est.mean.hex(), est.std_error.hex(), est.dichotomy_failures) == GOLDEN[key]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_sphere_bits(self, seed):
        n = 100_003
        got = uniform_sphere(np.random.default_rng(seed), n)
        g = np.random.default_rng(seed).standard_normal((n, 3))
        want = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        assert got.shape == (n, 3)
        assert got.tobytes() == want.tobytes()

    def test_chsh_mean(self):
        est = chsh_lhv(SIGN_MODEL, X, Y, vec_at(0.5), vec_at(2.5),
                       n=(1 << 16) + 999, seed=11)
        assert est.mean == 0.0022544525437739535

    def test_e_mean(self):
        est = estimate_E(SIGN_MODEL, X, vec_at(1.0), n=123_457, seed=9)
        assert est.mean == -0.368168674113254


class TestThreadedErrors:
    SEED = 31

    def _marked_model(self, block, act):
        # calls act() when asked to answer the first row of ``block``'s stream.
        # The construction probe draws 64 rows from its own seed, 0xBE11, and
        # never that row (asserted below), so the model is accepted; it also
        # counts the rows drawn, across every thread
        marker = np.random.default_rng(
            np.random.SeedSequence(entropy=self.SEED, spawn_key=(block,))).standard_normal(3)
        probe = _gaussian(np.random.default_rng(0xBE11), 64)
        assert not np.all(probe == marker, axis=1).any()
        drawn = []

        def sample(rng, n):
            drawn.append(n)
            return _gaussian(rng, n)

        def response(setting, lam):
            if np.all(lam == marker, axis=1).any():
                act()
            return np.where(lam @ np.asarray(setting) >= 0, 1, -1)

        model = LhvModel(name="marked", sample=sample, response_a=response,
                         response_b=lambda s, lam: -response(s, lam))
        drawn.clear()
        return model, drawn

    def _check_stopped_early(self, drawn, before):
        # every thread has ended, and none ran on through the 15,259 blocks
        # of MAX_SAMPLES after the error
        assert threading.active_count() == before
        assert sum(drawn) < 100 * lhv.BLOCK_SIZE

    # block 2 at 2 workers falls to the caller's thread, the others to a started one
    @pytest.mark.parametrize("workers, block", [(2, 1), (2, 2), (4, 3)])
    def test_response_error_is_raised_in_the_caller(self, workers, block, monkeypatch):
        monkeypatch.setattr(lhv, "_WORKERS", workers)

        def fail():
            raise ArithmeticError(f"no answer in block {block}")

        model, drawn = self._marked_model(block, fail)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^no answer in block {block}$"):
            chsh_lhv(model, X, Y, vec_at(0.5), vec_at(2.5), n=lhv.MAX_SAMPLES, seed=self.SEED)
        self._check_stopped_early(drawn, before)

    @pytest.mark.skipif(sys.platform == "win32", reason="SIGINT is not a POSIX signal there")
    @pytest.mark.skipif(threading.current_thread() is not threading.main_thread(),
                        reason="Python delivers SIGINT to the main thread only")
    @pytest.mark.parametrize("presses", [1, 2])
    def test_ctrl_c_stops_every_thread(self, presses, monkeypatch):
        monkeypatch.setattr(lhv, "_WORKERS", 2)
        # block 1 runs on the started thread, which presses Ctrl-C for the
        # caller's thread once, although both sides answer the marked row.
        # A second press comes when the caller has long been waiting for that
        # thread to stop, and must not cut the wait short.
        pressed = []

        def interrupt():
            if not pressed:
                pressed.append(os.kill(os.getpid(), signal.SIGINT))
                for _ in range(presses - 1):
                    time.sleep(0.5)
                    os.kill(os.getpid(), signal.SIGINT)

        model, drawn = self._marked_model(1, interrupt)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            estimate_E(model, X, vec_at(1.0), n=lhv.MAX_SAMPLES, seed=self.SEED)
        self._check_stopped_early(drawn, before)
