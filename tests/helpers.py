"""Shared test utilities: seeded random operators, states and settings, and
the dense operator algebra (Pauli and spin matrices, Kronecker products,
commutators, spectral norms) that the tests use to check paper claims."""

import numpy as np

from bellsim import (DenseOperator, PairingScheme, StateVector, phase_flip_observable,
                     polar_observable)
from bellsim.limits import _check_spin

SQRT2 = np.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two states; A's index is the most significant one."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.shape + b.shape)


def tensor_op(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """Kronecker product, consistent with tensor_state: (A@B)(x@y)=(Ax)@(By)."""
    return DenseOperator(np.kron(a.matrix, b.matrix))


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA."""
    if a.dim != b.dim:
        raise ValueError("commutator requires operators of equal dimension")
    return DenseOperator(a.matrix @ b.matrix - b.matrix @ a.matrix)


def operator_norm(op: DenseOperator) -> float:
    """Spectral norm: max |eigenvalue| for Hermitian input, else the largest
    singular value."""
    if op.hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
    return float(np.linalg.svd(op.matrix, compute_uv=False)[0])


def spin_matrices(j):
    """(Jx, Jy, Jz) for spin j from the ladder construction.

    Jz is diagonal with eigenvalues j..-j and <m+-1|J+-|m> =
    sqrt(j(j+1) - m(m+-1)), which guarantees [Ji, Jj] = i eps_ijk Jk.
    """
    twoj = _check_spin(j)
    dim = twoj + 1
    m = j - np.arange(dim)  # index k holds m = j - k
    jz = np.diag(m).astype(np.complex128)
    raised = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))  # <m+1|J+|m>, m = j-1..-j
    jplus = np.zeros((dim, dim), dtype=np.complex128)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = raised
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2j
    return DenseOperator(jx), DenseOperator(jy), DenseOperator(jz)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DenseOperator((m + m.conj().T) / 2.0)


def random_operator(rng, dim):
    return DenseOperator(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_qubit_observable(rng):
    """Haar-ish random dichotomic qubit observable n.sigma."""
    theta = np.arccos(rng.uniform(-1.0, 1.0))
    return polar_observable(theta, rng.uniform(0.0, 2 * np.pi))


def random_phase_observable(rng, scheme: PairingScheme):
    return phase_flip_observable(rng.uniform(0.0, 2 * np.pi, len(scheme.pairs)), scheme)


def schmidt_rank_bruteforce(psi, tol=1e-14):
    """Independent Schmidt-rank oracle: build the reduced density matrix of
    the first factor by explicit summation and count its eigenvalues above
    tol.  The eigenvalues are the squared Schmidt coefficients, and on a
    unit-trace matrix eigvalsh leaves roundoff of order 1e-16 in a zero one
    (1.9e-16 for a cat state times the vacuum), so the default counts the
    Schmidt coefficients above 1e-7 and clears that roundoff about 50-fold."""
    da, db = psi.shape
    amps = psi.amplitudes.reshape(da, db)
    rho = np.zeros((da, da), dtype=np.complex128)
    for i in range(da):
        for k in range(da):
            acc = 0.0 + 0.0j
            for j in range(db):
                acc += amps[i, j] * np.conj(amps[k, j])
            rho[i, k] = acc
    eigs = np.linalg.eigvalsh(rho)
    return int(np.count_nonzero(eigs > tol))
