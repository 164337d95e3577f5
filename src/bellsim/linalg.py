"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

Everything here is a pure function over immutable values: state vectors and
operators expose read-only numpy arrays, so concurrent read-only use is safe.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import NumericGuardError

# Centralized tolerances.  Construction-time checks use ATOL_CONSTRUCT,
# numeric cross-checks between independent evaluation routes use ATOL_ORACLE,
# and a search result counts as the maximum within ATOL_OPT (the exact ascent
# itself runs until it gains nothing, with no tolerance).
ATOL_CONSTRUCT = 1e-12
ATOL_ORACLE = 1e-9
ATOL_OPT = 1e-10


class StateVector:
    """Normalized complex amplitude vector with a declared subsystem shape.

    ``shape`` is the tuple of tensor-factor dimensions; its product must equal
    the amplitude count.  Amplitude ordering is row-major with the leftmost
    factor most significant.  The vector is renormalized at construction.
    """

    __slots__ = ("amplitudes", "shape")

    def __init__(self, amplitudes, shape=None):
        amps = np.array(amplitudes, dtype=np.complex128).ravel()
        if amps.size == 0:
            raise ValueError("state vector needs at least one amplitude")
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(amps)
        if not math.isfinite(norm):  # a finite norm has finite amplitudes
            if not np.isfinite(amps).all():
                raise NumericGuardError("state amplitudes must be finite")
            # the squared norm overflowed: rescale by the largest part, with
            # a real division rounded once per part, and take it again
            parts = amps.view(np.float64)
            parts /= np.max(np.abs(parts))
            norm = np.linalg.norm(amps)
        if norm < 1e-150:
            raise NumericGuardError("cannot normalize a (numerically) zero vector")
        amps /= norm
        if shape is None:
            shape = (amps.size,)
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape) or math.prod(shape) != amps.size:
            raise ValueError(f"shape {shape} incompatible with dimension {amps.size}")
        amps.setflags(write=False)
        self.amplitudes = amps
        self.shape = shape

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in inner product")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim}, shape={self.shape})"


class DenseOperator:
    """Square complex matrix with a Hermitian flag computed at construction."""

    __slots__ = ("matrix", "hermitian")

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise NumericGuardError("operator entries must be finite")
        self.hermitian = bool(np.max(np.abs(mat - mat.conj().T)) < ATOL_CONSTRUCT)
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """O|vec> for a flat amplitude vector."""
        return self.matrix @ vec

    def apply_along(self, vec: np.ndarray, left: int) -> np.ndarray:
        """O applied to the tensor axis of the flat ``vec`` that has ``left``
        entries of the earlier axes before it; the result is flat like ``vec``."""
        return (self.matrix @ vec.reshape(left, self.dim, -1)).reshape(-1)

    def __add__(self, other):
        return DenseOperator(self.matrix + other.matrix)

    def __sub__(self, other):
        return DenseOperator(self.matrix - other.matrix)

    def __matmul__(self, other):
        return DenseOperator(self.matrix @ other.matrix)

    def __repr__(self):
        return f"DenseOperator(dim={self.dim}, hermitian={self.hermitian})"


def expectation(op, psi: StateVector) -> complex:
    """<psi|O|psi> through ``op.apply``, so an operator kept factored (such as
    a CHSH or Mermin sum) is never formed as a matrix.  Real up to roundoff
    whenever O is Hermitian."""
    if op.dim != psi.dim:
        raise ValueError(f"operator dim {op.dim} does not match state dim {psi.dim}")
    return complex(np.vdot(psi.amplitudes, op.apply(psi.amplitudes)))


def is_dichotomic(op: DenseOperator, tol: float = ATOL_CONSTRUCT) -> bool:
    """True when O is Hermitian and O^2 = 1 within tol (outcomes are +-1)."""
    if not op.hermitian:
        return False
    sq = op.matrix @ op.matrix
    return bool(np.max(np.abs(sq - np.eye(op.dim))) < tol)
