"""Monte-Carlo estimation of local-hidden-variable correlators.

A model is a hidden-variable distribution plus two deterministic +-1 response
functions, one per side; by interface shape the A response never sees the B
setting and vice versa.  Estimates are computed in fixed blocks of samples,
each block drawing from its own child seed, so sharding blocks across workers
cannot change the merged result.  All per-sample products are accumulated as
exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 1 << 16
DEFAULT_SAMPLES = 1_000_000
# largest sample count one estimate takes: about two minutes of the sign model
# at 10^6 samples per 0.12 s; every larger count is rejected, not run
MAX_SAMPLES = 10**9


@dataclass(frozen=True)
class LhvEstimate:
    """Monte-Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    samples: int
    dichotomy_failures: int = 0


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable sampler plus deterministic +-1 response functions.

    ``sample(rng, n)`` returns an (n, 3) array of hidden-variable vectors
    drawn from ``rng`` alone; ``response_a(setting, lam)`` /
    ``response_b(setting, lam)`` return +-1 integer arrays over the batch.
    Models must satisfy the anti-correlation constraint
    response_b(v, lam) = -response_a(v, lam); construction probes it on
    random draws.
    """

    name: str
    sample: object
    response_a: object
    response_b: object

    def __post_init__(self):
        probe = np.random.default_rng(0xBE11)
        lam = self.sample(probe, 64)
        if lam.shape != (64, 3):
            raise ValueError("sampler must return an (n, 3) array")
        for _ in range(4):
            v = _random_unit(probe)
            ra = np.asarray(self.response_a(v, lam))
            rb = np.asarray(self.response_b(v, lam))
            if not np.all(np.abs(ra) == 1) or not np.all(np.abs(rb) == 1):
                raise ValueError("responses must take values in {-1, +1}")
            if not np.array_equal(rb, -ra):
                raise ValueError(
                    "model violates the anti-correlation constraint "
                    "response_b(v, lam) = -response_a(v, lam)"
                )


def _random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def uniform_sphere(rng, n: int) -> np.ndarray:
    """n directions uniform on the unit sphere, via normalized Gaussians."""
    g = rng.standard_normal((n, 3))
    return g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)


def _sign_response(setting, lam):
    # sign(0) counts as +1; a measure-zero convention
    return np.where(lam @ np.asarray(setting, dtype=float) >= 0.0, 1, -1)


SIGN_MODEL = LhvModel(
    name="sign",
    # sign responses ignore the radius, so raw Gaussian rows stand in for
    # their uniform directions without the cost of normalizing
    sample=lambda rng, n: rng.standard_normal((n, 3)),
    response_a=_sign_response,
    response_b=lambda setting, lam: -_sign_response(setting, lam),
)

MODELS = {SIGN_MODEL.name: SIGN_MODEL}


def register_model(model: LhvModel) -> None:
    """Make a custom model available to lookup (and the command line)."""
    MODELS[model.name] = model


def get_model(name: str) -> LhvModel:
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(f"unknown LHV model {name!r}; known: {sorted(MODELS)}") from None


def _unit(vec, label: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"setting {label} must be a unit 3-vector, got {vec}")
    return v


def _estimate(model: LhvModel, side_a, side_b, combine, square: int, n: int,
              seed: int) -> LhvEstimate:
    """Monte-Carlo mean of ``combine(ra, rb)``, the per-sample combination of
    the +-1 responses to the settings of each side.  Every valid sample of it
    squares to ``square``, which the variance relies on; ``dichotomy_failures``
    counts the samples that did not.
    """
    side_a = [_unit(v, "a" + "'" * k) for k, v in enumerate(side_a)]
    side_b = [_unit(v, "b" + "'" * k) for k, v in enumerate(side_b)]
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in [1, {MAX_SAMPLES}], got {n}")
    total = 0
    bad = 0
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        # one child stream per fixed-size block; the merge over blocks is then
        # independent of how blocks are distributed across workers
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        lam = model.sample(rng, min(BLOCK_SIZE, n - start))
        c = combine([np.asarray(model.response_a(v, lam), dtype=np.int64) for v in side_a],
                    [np.asarray(model.response_b(v, lam), dtype=np.int64) for v in side_b])
        total += int(np.sum(c))
        bad += int(np.count_nonzero(c * c != square))
    mean = total / n
    var = (square * n - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return LhvEstimate(mean=mean, std_error=math.sqrt(max(var, 0.0) / n),
                       samples=n, dichotomy_failures=bad)


def estimate_E(model: LhvModel, a, b, n: int = DEFAULT_SAMPLES,
               seed: int = 0) -> LhvEstimate:
    """Monte-Carlo estimate of E(a, b) = <A(a, lam) B(b, lam)>."""
    return _estimate(model, [a], [b], lambda ra, rb: ra[0] * rb[0], 1, n, seed)


def chsh_lhv(model: LhvModel, a, a_p, b, b_p, n: int = DEFAULT_SAMPLES,
             seed: int = 0) -> LhvEstimate:
    """Monte-Carlo mean of the per-sample CHSH combination
    A(a)B(b) + A(a')B(b) + A(a)B(b') - A(a')B(b').

    Every draw evaluates the combination with one shared hidden variable, so
    each sample lands exactly on -2 or +2; ``dichotomy_failures`` counts the
    samples that did not (always zero for a valid model).
    """
    def combine(ra, rb):
        return ra[0] * rb[0] + ra[1] * rb[0] + ra[0] * rb[1] - ra[1] * rb[1]

    return _estimate(model, [a, a_p], [b, b_p], combine, 4, n, seed)


def singlet_quantum_E(a, b) -> float:
    """Quantum reference for the spin singlet: E(a, b) = -cos(theta_ab)."""
    return -float(np.dot(_unit(a, "a"), _unit(b, "b")))


def singlet_quantum_chsh(a, a_p, b, b_p) -> float:
    """Quantum CHSH value on the singlet at the given measurement directions."""
    return (singlet_quantum_E(a, b) + singlet_quantum_E(a_p, b)
            + singlet_quantum_E(a, b_p) - singlet_quantum_E(a_p, b_p))
