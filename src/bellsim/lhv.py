"""Monte-Carlo estimation of local-hidden-variable correlators.

A model is a hidden-variable distribution plus two deterministic +-1 response
functions, one per side; by interface shape the A response never sees the B
setting and vice versa, and a response to sample i sees only lam[i].
Estimates are computed in fixed blocks of BLOCK_SIZE samples, each block
drawing from its own child seed, so sharding blocks across workers cannot
change the merged result.  One call per block draws its lam and consumes it in
row chunks of 8192: the int64 responses of a chunk and their per-sample
combination stay near 64 KiB, inside the cache, and the block's arrays are
freed before the next block draws.  All per-sample combinations are summed as
exact integers, so neither the chunks nor the blocks can change a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import DEFAULT_SAMPLES, MAX_SAMPLES, _check_unit

BLOCK_SIZE = 1 << 16
# rows of lam per response call; divides BLOCK_SIZE
_CHUNK = 1 << 13


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
    Models must be local: the response to sample i depends on lam[i] alone,
    never on other rows, so a batch may be answered in any row chunks.  They
    must also satisfy the anti-correlation constraint
    response_b(v, lam) = -response_a(v, lam).  Construction probes all three
    rules on random draws.
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
            if not (np.array_equal(self.response_a(v, lam[:32]), ra[:32])
                    and np.array_equal(self.response_b(v, lam[:32]), rb[:32])):
                raise ValueError("model is not local: the response to sample i "
                                 "must depend on lam[i] alone")


def _random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def uniform_sphere(rng, n: int) -> np.ndarray:
    """n directions uniform on the unit sphere, via normalized Gaussians."""
    g = rng.standard_normal((n, 3))
    # x*x + y*y + z*z in the order np.linalg.norm sums them: the same bits
    norm = g[:, 0] * g[:, 0]
    norm += g[:, 1] * g[:, 1]
    norm += g[:, 2] * g[:, 2]
    np.sqrt(norm, out=norm)
    g /= np.maximum(norm, 1e-300, out=norm)[:, None]
    return g


def _sign_response(setting, lam):
    # sign(0) counts as +1; a measure-zero convention
    r = (lam @ np.asarray(setting, dtype=float) >= 0.0).astype(np.int64)
    r *= 2
    r -= 1
    return r


def _sign_response_b(setting, lam):
    r = _sign_response(setting, lam)
    return np.negative(r, out=r)


SIGN_MODEL = LhvModel(
    name="sign",
    # sign responses ignore the radius, so raw Gaussian rows stand in for
    # their uniform directions without the cost of normalizing
    sample=lambda rng, n: rng.standard_normal((n, 3)),
    response_a=_sign_response,
    response_b=_sign_response_b,
)

MODELS = {SIGN_MODEL.name: SIGN_MODEL}


def register_model(model: LhvModel) -> None:
    """Make a custom model available to lookup."""
    MODELS[model.name] = model


def get_model(name: str) -> LhvModel:
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(f"unknown LHV model {name!r}; known: {sorted(MODELS)}") from None


def _unit(vec, label: str) -> np.ndarray:
    return np.array(_check_unit(vec, label))


def _block(model: LhvModel, side_a, side_b, combine, square: int, seed: int,
           block: int, size: int) -> tuple[int, int]:
    """Exact sum of ``combine`` over one block of ``size`` samples, and the
    count of samples that do not square to ``square``."""
    # one child stream per fixed-size block; the merge over blocks is then
    # independent of how blocks are distributed across workers
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    lam = model.sample(rng, size)
    total = bad = 0
    for start in range(0, size, _CHUNK):
        rows = lam[start:start + _CHUNK]
        c = combine([np.asarray(model.response_a(v, rows), dtype=np.int64) for v in side_a],
                    [np.asarray(model.response_b(v, rows), dtype=np.int64) for v in side_b])
        total += int(c.sum())
        bad += int(np.count_nonzero(c * c != square))
    return total, bad


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
    total = bad = 0
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        block_total, block_bad = _block(model, side_a, side_b, combine, square, seed,
                                        block, min(BLOCK_SIZE, n - start))
        total += block_total
        bad += block_bad
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
        # the combination above, factored: exact in integers
        return (ra[0] + ra[1]) * rb[0] + (ra[0] - ra[1]) * rb[1]

    return _estimate(model, [a, a_p], [b, b_p], combine, 4, n, seed)


def singlet_quantum_E(a, b) -> float:
    """Quantum reference for the spin singlet: E(a, b) = -cos(theta_ab)."""
    return -float(np.dot(_unit(a, "a"), _unit(b, "b")))


def singlet_quantum_chsh(a, a_p, b, b_p) -> float:
    """Quantum CHSH value on the singlet at the given measurement directions."""
    return (singlet_quantum_E(a, b) + singlet_quantum_E(a_p, b)
            + singlet_quantum_E(a, b_p) - singlet_quantum_E(a_p, b_p))
