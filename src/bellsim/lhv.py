"""Monte-Carlo estimation of local-hidden-variable correlators.

A model is a hidden-variable distribution plus two deterministic +-1 response
functions, one per side; by interface shape the A response never sees the B
setting and vice versa, and a response to sample i sees only lam[i].
Estimates are computed in fixed blocks of BLOCK_SIZE samples, each block
drawing from its own child seed, and the blocks are sharded across up to
four threads (one per usable core, the caller's thread among them), so the
sharding cannot change the merged result.  A block is drawn and answered in
row chunks: each chunk draws its lam from the block's generator just before
its responses are asked for, and the threads split one chunk of 8192 rows
among them, so an estimate holds about one chunk (192 KiB of lam, and int64
responses near 64 KiB each) rather than a whole block.  Samplers draw their
rows in sequence, so the chunked draws give the rows of one draw of the
block, and all per-sample combinations are summed as exact integers: neither
the chunks, nor the blocks, nor the order in which threads finish them can
change a result.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .limits import DEFAULT_SAMPLES, MAX_SAMPLES, _check_unit

BLOCK_SIZE = 1 << 16
# rows of lam per response call, split among the threads of one estimate
_CHUNK = 1 << 13
# threads per estimate: one per usable core, at most four
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, 4)


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
    drawn from ``rng`` alone, in sequence: consecutive draws of k and m rows
    give the rows of one draw of k + m, so a block may be drawn in any row
    chunks.  ``response_a(setting, lam)`` / ``response_b(setting, lam)``
    return +-1 integer arrays over the batch.  Models must be local: the
    response to sample i depends on lam[i] alone, never on other rows, so a
    batch may be answered in any row chunks.  They must also satisfy the
    anti-correlation constraint response_b(v, lam) = -response_a(v, lam).
    Construction probes all four rules on random draws.  An estimate calls
    ``sample`` and the responses from several threads at once, so they must
    not change shared state.
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
        halves = np.random.default_rng(0xBE11)
        if not np.array_equal(np.concatenate([self.sample(halves, 32),
                                              self.sample(halves, 32)]), lam):
            raise ValueError("sampler must draw its rows in sequence: two draws of 32 "
                             "rows must equal one draw of 64 from the same seed")
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
           block: int, size: int, chunk: int) -> tuple[int, int, int]:
    """Exact sums of ``combine`` and of its square over one block of ``size``
    samples, answered ``chunk`` rows at a time, and the count of samples that
    do not square to ``square``."""
    # one child stream per fixed-size block; the merge over blocks is then
    # independent of how blocks are distributed across workers
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    total = total_sq = bad = 0
    for start in range(0, size, chunk):
        # the sampler draws in sequence, so chunked draws are the block's rows
        # whether or not the chunk divides the block
        rows = model.sample(rng, min(chunk, size - start))
        # the last chunk's c goes only once these rows are drawn: freed with
        # the rest of its chunk, it would let glibc trim the heap, and the
        # draw would fault it back in
        c = None
        ra = [np.asarray(model.response_a(v, rows), dtype=np.int64) for v in side_a]
        rb = [np.asarray(model.response_b(v, rows), dtype=np.int64) for v in side_b]
        # release the rows and the responses once spent, so the next chunk
        # never holds them beside its own
        del rows
        c = combine(ra, rb)
        del ra, rb
        total += int(c.sum())
        # squared in place, so a chunk holds no second array of its size
        np.multiply(c, c, out=c)
        total_sq += int(c.sum())
        bad += int(np.count_nonzero(c != square))
    return total, total_sq, bad


def _on_threads(run, workers: int) -> None:
    """Call ``run(w, stop)`` for each w below ``workers``: w = 0 in the
    caller's thread, every other w on a thread of its own, so one worker
    starts no thread.  ``run`` returns early once the Event ``stop`` is set.
    An error in any call, Ctrl-C in the caller's thread included, sets it,
    and is raised here with its own type once every thread has ended."""
    stop, go = threading.Event(), threading.Event()
    errors = []

    def work(w, ended):
        try:
            # no call starts before every start has returned, so no worker
            # can raise, or send Ctrl-C, while Thread.start waits: a start
            # cut short would leave its thread out of ``threads``
            go.wait()
            run(w, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()
        finally:
            ended.set()

    threads = []
    try:
        for w in range(1, workers):
            ended = threading.Event()
            thread = threading.Thread(target=work, args=(w, ended), daemon=True)
            thread.start()
            threads.append((thread, ended))
        go.set()
        run(0, stop)
        for _, ended in threads:
            ended.wait()
    finally:
        # reached once every thread has ended, or on an error here.  The wait
        # is on ``ended``, since a Ctrl-C inside Thread.join can mark a
        # running thread as stopped (Python 3.11); a second Ctrl-C is
        # absorbed, as the first is already on its way.
        stop.set()
        go.set()
        for thread, ended in threads:
            while not ended.is_set():
                try:
                    ended.wait()
                except KeyboardInterrupt:
                    pass
            thread.join()
    if errors:
        raise errors[0]


def _estimate(model: LhvModel, side_a, side_b, combine, square: int, n: int,
              seed: int) -> LhvEstimate:
    """Monte-Carlo mean of ``combine(ra, rb)``, the per-sample combination of
    the +-1 responses to the settings of each side.  Every valid sample of it
    squares to ``square``; ``dichotomy_failures`` counts the samples that did
    not.  The variance uses the exact sum of squares, so it stays the sample
    variance when some do not.
    """
    side_a = [_unit(v, "a" + "'" * k) for k, v in enumerate(side_a)]
    side_b = [_unit(v, "b" + "'" * k) for k, v in enumerate(side_b)]
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in [1, {MAX_SAMPLES}], got {n}")
    blocks = -(-n // BLOCK_SIZE)
    workers = min(_WORKERS, blocks)
    chunk = _CHUNK // workers
    # sums[w] holds worker w's exact totals over every workers-th block
    sums = [[0, 0, 0] for _ in range(workers)]

    def run(w, stop):
        for block in range(w, blocks, workers):
            if stop.is_set():
                return
            part = _block(model, side_a, side_b, combine, square, seed, block,
                          min(BLOCK_SIZE, n - block * BLOCK_SIZE), chunk)
            sums[w] = [s + p for s, p in zip(sums[w], part)]

    _on_threads(run, workers)
    total, total_sq, bad = (sum(column) for column in zip(*sums))
    mean = total / n
    # total_sq is square * n for a valid model, an exact integer either way
    var = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
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
