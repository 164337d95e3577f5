"""Constructors for the state families under study, plus the product test.

Fock-space families live on a truncated basis of ``cutoff`` levels per mode
(levels 0..cutoff-1, cutoff even so even/odd pairs stay complete).  A tail
guard rejects parameters whose untruncated probability mass outside the kept
levels exceeds TAIL_TOL; surviving vectors are renormalized on the truncated
space so every invariant is exact there.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import (DEFAULT_CUTOFF, NumericGuardError, _check_bell_index, _check_cutoff,
                     _check_family_n, _check_spin, _check_squeezing, _coherent_norm)
from .linalg import StateVector

TAIL_TOL = 1e-10
SCHMIDT_TOL = 1e-10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def bell_state(alpha: int) -> StateVector:
    """The four maximally entangled two-qubit basis states, indexed 0..3."""
    amps = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 1, 0))[_check_bell_index(alpha)]
    return StateVector(np.array(amps, dtype=np.complex128) * _INV_SQRT2, (2, 2))


def gisin_family_state(n: int) -> StateVector:
    """Two-qubit family (1, 1, 1, sqrt(N-3))/sqrt(N); a product state at N=4."""
    n = _check_family_n(n)
    amps = np.array([1.0, 1.0, 1.0, np.sqrt(n - 3.0)]) / np.sqrt(n)
    return StateVector(amps, (2, 2))


def r_state(r: float) -> StateVector:
    """(|+->  + r |-+>)/sqrt(1+r^2)."""
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    return StateVector([0.0, 1.0, float(r), 0.0], (2, 2))


def spin_singlet(j) -> StateVector:
    """Total-spin-zero state of two spin-j systems.

    Amplitude (-1)^(j-m)/sqrt(2j+1) on |m> (x) |-m>, with basis index 0
    holding m = j (descending magnetic quantum number).
    """
    twoj = _check_spin(j)
    dim = twoj + 1
    amps = np.zeros(dim * dim)
    for k in range(dim):  # k indexes m = j - k; -m sits at index twoj - k
        amps[k * dim + (twoj - k)] = -1.0 if k % 2 else 1.0
    return StateVector(amps, (dim, dim))


def coherent_amplitudes(z: complex, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Raw truncated coherent amplitudes e^(-|z|^2/2) z^n/sqrt(n!), unnormalized.

    The squared norm of the result is the probability mass the truncation
    keeps; callers use 1 - that mass as the leaked tail.  A mean photon
    number |z|^2 at or above the cutoff leaves at least about half the mass
    outside, so it is refused up front, which also keeps every term finite.
    """
    cutoff = _check_cutoff(cutoff)
    if not abs(z) < math.sqrt(cutoff):
        raise NumericGuardError(
            f"coherent state z={z}: mean photon number |z|^2 is not below the "
            f"cutoff {cutoff}; increase the cutoff"
        )
    # a_n = a_(n-1) z / sqrt(n) on Python numbers.  numpy scalars divide by
    # sqrt(n) through its reciprocal, so for real z these are their bits; the
    # first zero is -0.0 where that multiply underflows, as numpy's is.
    w = complex(z) if isinstance(z, (complex, np.complexfloating)) else float(z)
    terms, a = [1.0], 1.0
    for n in range(1, cutoff):
        a = a * w * (1.0 / math.sqrt(n))
        if a == 0:
            terms.append((terms[-1] * w + 0.0) * (1.0 / math.sqrt(n)))
            break
        terms.append(a)
    terms += [0.0] * (cutoff - len(terms))
    return np.array(terms, dtype=np.complex128) * np.exp(-abs(z) ** 2 / 2.0)


def _reflected(amps: np.ndarray) -> np.ndarray:
    """The coherent amplitudes at -z from those at z: negating z negates
    every odd power exactly, so this is amps times (-1)^n.  Adding +0.0 turns
    the -0.0 imaginary parts the sign flip leaves into +0.0, so for real z
    the result is ``coherent_amplitudes(-z)`` byte for byte."""
    parity = np.ones(amps.size)
    parity[1::2] = -1.0
    return amps * parity + 0.0


def _guard_tail(amps: np.ndarray, what: str) -> None:
    leak = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if leak > TAIL_TOL:
        raise NumericGuardError(
            f"{what}: truncated tail mass {leak:.3e} exceeds {TAIL_TOL:.0e}; "
            "increase the cutoff"
        )


def entangled_coherent(eta: float, sigma: float, phi: float,
                       cutoff: int = DEFAULT_CUTOFF) -> StateVector:
    """Two-mode superposition of |eta,sigma> and e^(i phi)|-eta,-sigma>."""
    cutoff = _check_cutoff(cutoff)
    _coherent_norm(eta, sigma, phi)  # raises where the two branches cancel
    ce, cs = coherent_amplitudes(eta, cutoff), coherent_amplitudes(sigma, cutoff)
    _guard_tail(ce, f"coherent state z={eta}")
    _guard_tail(cs, f"coherent state z={sigma}")
    # e^(i phi) |-eta,-sigma> + |eta,sigma>, built in place: addition
    # commutes, so these are the bits of |eta,sigma> + e^(i phi) |-eta,-sigma>
    amps = np.multiply.outer(_reflected(ce), _reflected(cs)).ravel()
    amps *= np.exp(1j * phi)
    amps += np.multiply.outer(ce, cs).ravel()
    return StateVector(amps, (cutoff, cutoff))


def squeezed_state(lam: float, cutoff: int = DEFAULT_CUTOFF) -> StateVector:
    """Two-mode squeezed state: sum of lam^n |n,n>, 0 < lam < 1."""
    cutoff = _check_cutoff(cutoff)
    lam = _check_squeezing(lam)
    if lam ** (2 * cutoff) >= 1e-12:
        raise NumericGuardError(
            f"squeezed state at lam={lam}: tail {lam ** (2 * cutoff):.3e} exceeds "
            "1e-12 at this cutoff"
        )
    amps = np.zeros(cutoff * cutoff)
    amps[:: cutoff + 1] = lam ** np.arange(cutoff)
    return StateVector(amps, (cutoff, cutoff))


def ghz_state(n_parties: int) -> StateVector:
    """n-qubit (|+...+> - |-...->)/sqrt(2), 3 <= n <= 20 (2^n amplitudes)."""
    if not 3 <= n_parties <= 20:  # NaN fails here too
        raise ValueError(f"GHZ state needs 3 to 20 parties, got {n_parties!r}")
    n = int(n_parties)
    if n != n_parties:  # not truncated to the party count below it
        raise ValueError(f"GHZ state needs an integer party count, got {n_parties!r}")
    amps = np.zeros(2 ** n)
    amps[0] = _INV_SQRT2
    amps[-1] = -_INV_SQRT2
    return StateVector(amps, (2,) * n)


def is_product(psi: StateVector, tol: float = SCHMIDT_TOL):
    """Schmidt-rank test for a bipartite state.

    Reshapes the amplitudes into the (dA, dB) coefficient matrix and counts
    singular values above tol.  Returns (is_product, singular_values); the
    state is a product exactly when one singular value survives.  For two
    qubits this reduces to a vanishing 2x2 determinant.
    """
    if len(psi.shape) != 2:
        raise ValueError(f"product test needs a bipartite shape, got {psi.shape}")
    mat = psi.amplitudes.reshape(psi.shape)
    svals = np.linalg.svd(mat, compute_uv=False)
    return bool(np.count_nonzero(svals > tol) == 1), svals
