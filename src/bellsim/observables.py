"""Dichotomic observable families and composite Bell / Mermin operators.

Phase conventions, fixed once so closed forms match matrix oracles sign for
sign: a phase-flip observable maps the first index of each pair p -> e^(i a) q
and q -> e^(-i a) p; basis index 0 of a qubit is spin-up; Fock pairs are
(even, odd); spin pairs are (m, -m) with positive m first and, for integer
spin, |0> left fixed with diagonal entry +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseOperator, is_dichotomic
from .states import _check_cutoff, _check_spin

SQRT2 = float(np.sqrt(2.0))
TSIRELSON_BOUND = 2.0 * SQRT2

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# Mermin order-4 sign by number of primed slots in the product term.
_M4_SIGNS = (-1.0, 1.0, 1.0, -1.0, -1.0)


@dataclass(frozen=True)
class PairingScheme:
    """Disjoint index pairs plus fixed points partitioning a basis."""

    pairs: tuple
    fixed_points: tuple = ()

    def __post_init__(self):
        seen = []
        for pq in self.pairs:
            if len(pq) != 2 or pq[0] == pq[1]:
                raise ValueError(f"malformed pair {pq}")
            seen.extend(pq)
        seen.extend(self.fixed_points)
        dim = 2 * len(self.pairs) + len(self.fixed_points)
        if sorted(seen) != list(range(dim)):
            raise ValueError(
                f"pairs {self.pairs} and fixed points {self.fixed_points} "
                f"do not partition 0..{dim - 1}"
            )

    @property
    def dim(self) -> int:
        return 2 * len(self.pairs) + len(self.fixed_points)

    @classmethod
    def qubit(cls) -> "PairingScheme":
        return cls(pairs=((0, 1),))

    @classmethod
    def even_odd(cls, dim: int) -> "PairingScheme":
        """Fock pairing (|2n>, |2n+1>); dim must be even."""
        dim = _check_cutoff(dim)
        return cls(pairs=tuple((n, n + 1) for n in range(0, dim, 2)))

    @classmethod
    def spin_reflection(cls, j) -> "PairingScheme":
        """Pair |m> with |-m>; integer spin leaves |0> fixed."""
        twoj = _check_spin(j)
        pairs = tuple((k, twoj - k) for k in range((twoj + 1) // 2))
        fixed = (twoj // 2,) if twoj % 2 == 0 else ()
        return cls(pairs=pairs, fixed_points=fixed)


def phase_flip_observable(phases, scheme: PairingScheme) -> DenseOperator:
    """Dichotomic operator flipping each pair with its own phase.

    ``phases`` is one angle applied to every pair or a sequence with one angle
    per pair.  Entry (q, p) gets e^(i a), (p, q) gets e^(-i a); fixed points
    get +1 on the diagonal.  The result is Hermitian and squares to identity.
    """
    npairs = len(scheme.pairs)
    al = np.broadcast_to(np.asarray(phases, dtype=float), (npairs,))
    mat = np.zeros((scheme.dim, scheme.dim), dtype=np.complex128)
    for (p, q), a in zip(scheme.pairs, al):
        mat[q, p] = np.exp(1j * a)
        mat[p, q] = np.exp(-1j * a)
    for f in scheme.fixed_points:
        mat[f, f] = 1.0
    return DenseOperator(mat)


def polar_observable(theta: float, alpha: float) -> DenseOperator:
    """Qubit observable n.sigma with n = (sin t cos a, sin t sin a, cos t)."""
    st, ct = np.sin(theta), np.cos(theta)
    return DenseOperator(
        [[ct, np.exp(-1j * alpha) * st], [np.exp(1j * alpha) * st, -ct]]
    )


def pseudospin_operators(cutoff: int):
    """Block sums of (sx, sy, sz) over Fock pairs (|2n>, |2n+1>).

    On each pair the blocks read sx = |2n+1><2n| + h.c.,
    sy = i(|2n><2n+1| - |2n+1><2n|), sz = |2n+1><2n+1| - |2n><2n|, which obey
    the Pauli algebra [sx, sy] = 2i sz exactly on the truncated space.
    """
    cutoff = _check_cutoff(cutoff)
    sx = np.zeros((cutoff, cutoff), dtype=np.complex128)
    sy = np.zeros((cutoff, cutoff), dtype=np.complex128)
    sz = np.zeros((cutoff, cutoff), dtype=np.complex128)
    for n in range(0, cutoff, 2):
        sx[n + 1, n] = sx[n, n + 1] = 1.0
        sy[n, n + 1] = 1j
        sy[n + 1, n] = -1j
        sz[n + 1, n + 1] = 1.0
        sz[n, n] = -1.0
    return DenseOperator(sx), DenseOperator(sy), DenseOperator(sz)


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


def _require_dichotomic(*ops: DenseOperator) -> None:
    for k, op in enumerate(ops):
        if not is_dichotomic(op):
            raise ValueError(f"operator #{k} is not dichotomic Hermitian")


def _signed_kron(signs, *settings: DenseOperator) -> DenseOperator:
    """Sum over setting choices x of signs[|x|] (x)_p X_p^(x_p).

    ``settings`` lists each party's unprimed and primed observable in turn;
    |x| counts the primed choices, so ``signs`` has one entry per count.
    """
    parties = list(zip(settings[0::2], settings[1::2]))
    for x, x_p in parties:
        if x.dim != x_p.dim:
            raise ValueError("settings of one party must share a dimension")
        _require_dichotomic(x, x_p)
    (x, x_p), *rest = [(x.matrix, x_p.matrix) for x, x_p in parties]
    # sums[s] expands the parties so far against the sign table shifted by s
    # primed choices; each later party consumes one shift, so the last one
    # enters through exactly two full-size kron products
    sums = [signs[s] * x + signs[s + 1] * x_p for s in range(len(parties))]
    for x, x_p in rest:
        sums = [np.kron(lo, x) + np.kron(hi, x_p) for lo, hi in zip(sums, sums[1:])]
    return DenseOperator(sums[0])


def chsh_operator(a: DenseOperator, a_p: DenseOperator,
                  b: DenseOperator, b_p: DenseOperator) -> DenseOperator:
    """(A + A') (x) B + (A - A') (x) B' on the joint space."""
    return _signed_kron((1, 1, -1), a, a_p, b, b_p)


def mermin3_operator(a, a_p, b, b_p, c, c_p) -> DenseOperator:
    """Order-3 Mermin operator A'BC + AB'C + ABC' - A'B'C'."""
    return _signed_kron((0, 1, 0, -1), a, a_p, b, b_p, c, c_p)


def mermin4_operator(a, a_p, b, b_p, c, c_p, d, d_p) -> DenseOperator:
    """Order-4 Mermin operator, half the signed sum of all sixteen products.

    A four-party product term with k primed slots enters with sign
    (-1, +1, +1, -1, -1)[k]; the global 1/2 keeps the violation window at
    2 < |<M4>| <= 4 sqrt(2).
    """
    return _signed_kron([s / 2.0 for s in _M4_SIGNS], a, a_p, b, b_p, c, c_p, d, d_p)
