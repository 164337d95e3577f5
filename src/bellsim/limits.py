"""Bounds, defaults and input checks that need no numpy.

The command line reads these while it parses its arguments, before it loads
any numeric module; the numeric modules import them from here and re-export
them under the same names, so each rule is written once.
"""

from __future__ import annotations

import math

DEFAULT_CUTOFF = 40
# A two-mode state holds cutoff^2 amplitudes: 16 MiB at the largest cutoff.
MAX_CUTOFF = 1024
# Largest 2j: a spin party then has dimension 1025, close to MAX_CUTOFF.
MAX_TWOJ = 1024
# about 33 s of the 8-parameter N-family search at N = 3 (2-core x86_64)
MAX_RESTARTS = 10 ** 5
DEFAULT_SAMPLES = 1_000_000
# largest sample count one estimate takes: about 70 s of the sign model's CHSH
# at 10^6 samples per 0.07 s (2-core x86_64); every larger count is rejected,
# not run
MAX_SAMPLES = 10**9

CHSH_CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


class NumericGuardError(ValueError):
    """A numeric precondition failed (normalization, truncation tail, ...)."""


def _check_cutoff(cutoff: int) -> int:
    message = f"Fock cutoff must be a positive even integer up to {MAX_CUTOFF}, got {cutoff}"
    if not 2 <= cutoff <= MAX_CUTOFF:  # before int(): NaN and inf fail here
        raise ValueError(message)
    cutoff = int(cutoff)
    if cutoff % 2:
        raise ValueError(message)
    return cutoff


def _check_spin(j) -> int:
    """Validate j is a positive integer or half-integer with 2j at most
    MAX_TWOJ; return 2j as int."""
    message = (f"spin must be a positive integer or half-integer up to "
               f"{MAX_TWOJ / 2:g}, got {j}")
    if not 0 < 2 * j <= MAX_TWOJ:  # before round(): NaN and inf fail here
        raise ValueError(message)
    twoj = int(round(2 * j))
    if abs(2 * j - twoj) > 1e-9 or twoj < 1:
        raise ValueError(message)
    return twoj


def _check_squeezing(lam) -> float:
    """Validate the squeezing parameter 0 < lam < 1; return it as float."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:  # NaN fails here too
        raise ValueError(f"squeezing parameter must satisfy 0 < lam < 1, got {lam}")
    return lam


def _check_unit(vec, label: str) -> list:
    """Validate a unit 3-vector, its norm within 1e-9 of 1; return its
    components as floats."""
    try:
        # a nested sequence or array is no component: it shortens v
        v = [float(x) for x in vec if not hasattr(x, "__len__")]
        ok = len(v) == len(vec) == 3 and abs(math.hypot(*v) - 1.0) <= 1e-9  # NaN fails
    except TypeError:  # a scalar, or an iterator without a length
        ok = False
    if not ok:
        raise ValueError(f"setting {label} must be a unit 3-vector, got {vec}")
    return v
