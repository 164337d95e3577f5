"""Dichotomic observable families and composite Bell / Mermin operators.

Phase conventions, fixed once so closed forms match matrix oracles sign for
sign: a phase-flip observable maps the first index of each pair p -> e^(i a) q
and q -> e^(-i a) p; basis index 0 of a qubit is spin-up; Fock pairs are
(even, odd); spin pairs are (m, -m) with positive m first and, for integer
spin, |0> left fixed with diagonal entry +1.

A phase-flip observable is kept as its scheme's permutation times one phase
per basis index (``PhaseFlipObservable``), so a Bell or Mermin operator built
from them acts on a state in O(D) per term for joint dimension D and no d x d
matrix is formed unless ``.matrix`` is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .limits import TSIRELSON_BOUND, NumericGuardError, _check_cutoff, _check_spin
from .linalg import DenseOperator, is_dichotomic

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

    @cached_property
    def pair_indices(self) -> tuple:
        """(first, second): index arrays of each pair's p and of its q."""
        first, second = np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T
        return first, second

    @cached_property
    def permutation(self) -> np.ndarray:
        """perm[p] = q and perm[q] = p for each pair, perm[f] = f for each
        fixed point: row i of a phase-flip observable has its entry in column
        perm[i].  Built once per scheme and shared read-only."""
        first, second = self.pair_indices
        perm = np.arange(self.dim)
        perm[first], perm[second] = second, first
        perm.setflags(write=False)
        return perm


class PhaseFlipObservable:
    """Dichotomic observable held as a permutation times phases.

    Row i of the matrix has one entry, ``coef[i]`` in column ``perm[i]``, so
    the operator acts on one tensor axis as a gather by ``perm`` and a
    multiply by ``coef``.  ``perm`` is an involution and ``coef`` holds
    e^(i a) at q, e^(-i a) at p and 1 at each fixed point, which makes the
    operator Hermitian and dichotomic by construction.  ``matrix`` is built
    on first access, for operator identities on small spaces.  Built by
    ``phase_flip_observable``, which shares ``perm`` across its scheme.
    """

    __slots__ = ("perm", "coef", "_matrix")
    hermitian = True

    def __init__(self, perm: np.ndarray, coef: np.ndarray):
        coef.setflags(write=False)
        self.perm = perm
        self.coef = coef
        self._matrix = None

    @property
    def dim(self) -> int:
        return self.perm.size

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """O|vec> for a flat amplitude vector."""
        return self.apply_along(vec, 1)

    def apply_along(self, vec: np.ndarray, left: int) -> np.ndarray:
        """O applied to the tensor axis of the flat ``vec`` that has ``left``
        entries of the earlier axes before it; the result is flat like ``vec``.
        One gather by ``perm`` and one in-place multiply by ``coef``."""
        vec = np.asarray(vec, dtype=np.complex128)  # no copy when already complex
        out = vec.reshape(left, self.dim, -1).take(self.perm, axis=1)
        out *= self.coef[:, None]
        return out.reshape(-1)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
            mat[np.arange(self.dim), self.perm] = self.coef
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def __matmul__(self, other):
        return DenseOperator(self.matrix @ other.matrix)

    def __repr__(self):
        return f"PhaseFlipObservable(dim={self.dim})"


def phase_flip_observable(phases, scheme: PairingScheme) -> PhaseFlipObservable:
    """Dichotomic operator flipping each pair with its own phase.

    ``phases`` is one angle applied to every pair or a sequence with one angle
    per pair.  Entry (q, p) gets e^(i a), (p, q) gets e^(-i a); fixed points
    get +1 on the diagonal.  The result is Hermitian and squares to identity.
    It is kept as ``scheme.permutation`` times one phase per row, in O(d)
    memory; its d x d ``matrix`` is built only on first access.
    """
    al = np.asarray(phases, dtype=float)
    if al.ndim:  # one angle per pair; a single angle broadcasts in the assignments
        al = np.broadcast_to(al, (len(scheme.pairs),))
    if not np.isfinite(al).all():
        raise NumericGuardError("phase-flip phases must be finite")
    first, second = scheme.pair_indices
    coef = np.ones(scheme.dim, dtype=np.complex128)
    coef[second] = np.exp(1j * al)
    coef[first] = np.exp(-1j * al)
    return PhaseFlipObservable(scheme.permutation, coef)


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


def _require_dichotomic(*ops) -> None:
    for k, op in enumerate(ops):
        # a phase-flip observable is dichotomic by construction
        if not isinstance(op, PhaseFlipObservable) and not is_dichotomic(op):
            raise ValueError(f"operator #{k} is not dichotomic Hermitian")


# Largest joint dimension whose matrix ``SignedKronSum.matrix`` builds: a
# 2048 x 2048 complex matrix takes 64 MiB, and the build holds three of them.
MAX_DENSE_DIM = 2048


def _merge(x, lo: np.ndarray, x_p, hi: np.ndarray, left: int) -> np.ndarray:
    """X on ``lo`` plus X' on ``hi``, both along the axis after ``left``
    entries, summed in place so one temporary is alive at a time.  ``lo`` is
    released once applied, so a caller that passes its last reference holds
    no more than ``hi``, the sum and one temporary."""
    out = x.apply_along(lo, left)
    del lo
    out += x_p.apply_along(hi, left)
    return out


class SignedKronSum:
    """Sum over setting choices x of signs[|x|] (x)_p X_p^(x_p), kept factored.

    ``settings`` lists each party's unprimed and primed observable in turn;
    |x| counts the primed choices, so ``signs`` has one entry per count.
    The joint matrix is never needed to evaluate the sum on a state:
    ``apply`` acts with each party's observables through their
    ``apply_along``, each on its own tensor axis.
    ``matrix`` builds the joint matrix on first access, for operator
    identities on small spaces, and refuses above ``MAX_DENSE_DIM``.

    ``hermitian`` follows from checked facts: every factor is Hermitian (a
    phase flip by construction, any other by ``_require_dichotomic``) and
    every sign is real and finite, so each term is a real multiple of a
    Kronecker product of Hermitian matrices, and a real combination of
    Hermitian matrices is Hermitian.
    """

    __slots__ = ("signs", "parties", "hermitian", "_matrix")

    def __init__(self, signs, *settings):
        parties = tuple(zip(settings[0::2], settings[1::2]))
        for x, x_p in parties:
            if x.dim != x_p.dim:
                raise ValueError("settings of one party must share a dimension")
            _require_dichotomic(x, x_p)
        table = np.asarray(signs)
        if (table.shape != (len(parties) + 1,) or table.dtype.kind not in "biuf"
                or not np.isfinite(table).all()):
            raise ValueError(f"sign table must hold {len(parties) + 1} real finite "
                             f"numbers, got {signs!r}")
        self.signs = tuple(float(s) for s in table)
        self.parties = parties
        self.hermitian = all(op.hermitian for pair in parties for op in pair)
        self._matrix = None

    @property
    def dim(self) -> int:
        return math.prod(x.dim for x, _ in self.parties)

    def _first_party_shifts(self) -> list:
        """signs[s] X + signs[s+1] X' of the first party, for each sign shift s."""
        (x, x_p), signs = self.parties[0], self.signs
        return [signs[s] * x.matrix + signs[s + 1] * x_p.matrix
                for s in range(len(self.parties))]

    def _apply_first_party(self, vec: np.ndarray) -> list:
        """Each of ``_first_party_shifts`` applied to ``vec``.  Two phase flips
        on one permutation combine their coefficients, entry for entry as the
        dense sum does, and share one gather."""
        (x, x_p), signs = self.parties[0], self.signs
        if (isinstance(x, PhaseFlipObservable) and isinstance(x_p, PhaseFlipObservable)
                and (x.perm is x_p.perm or np.array_equal(x.perm, x_p.perm))):
            gathered = vec.reshape(x.dim, -1).take(x.perm, axis=0)
            last = len(self.parties) - 1
            # the last shift is formed in the gather's buffer, so the gather
            # is not held beside every shift
            return [np.multiply((signs[s] * x.coef + signs[s + 1] * x_p.coef)[:, None],
                                gathered, out=gathered if s == last else None).reshape(-1)
                    for s in range(last + 1)]
        return [(m @ vec.reshape(x.dim, -1)).reshape(-1) for m in self._first_party_shifts()]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The sum applied to a flat amplitude vector, in O(n^2 D d) for n
        parties of dimension d and joint dimension D, and O(n^2 D) when
        every party measures phase flips."""
        # partial[s] holds the parties so far against the sign table shifted
        # by s primed choices; each later party merges neighbouring shifts,
        # as kron(lo, x) + kron(hi, x_p) does in ``matrix``
        partial = self._apply_first_party(vec)
        left = self.parties[0][0].dim
        for x, x_p in self.parties[1:]:
            # each shift is popped into its last merge, so it is freed once
            # that merge has applied it, not when the whole level is done
            merged = []
            while len(partial) > 1:
                merged.append(_merge(x, partial.pop(0), x_p, partial[0], left))
            partial = merged
            left *= x.dim
        return partial[0]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.dim > MAX_DENSE_DIM:
                raise NumericGuardError(
                    f"refusing to build a {self.dim} x {self.dim} joint matrix "
                    f"(limit {MAX_DENSE_DIM}); evaluate the operator on a state instead")
            # the last party enters through exactly two full-size kron products
            sums = self._first_party_shifts()
            for x, x_p in self.parties[1:]:
                sums = [np.kron(lo, x.matrix) + np.kron(hi, x_p.matrix)
                        for lo, hi in zip(sums, sums[1:])]
            sums[0].setflags(write=False)
            self._matrix = sums[0]
        return self._matrix

    def __matmul__(self, other):
        return DenseOperator(self.matrix @ other.matrix)

    def __repr__(self):
        return f"SignedKronSum(dim={self.dim}, parties={len(self.parties)})"


def chsh_operator(a: DenseOperator, a_p: DenseOperator,
                  b: DenseOperator, b_p: DenseOperator) -> SignedKronSum:
    """(A + A') (x) B + (A - A') (x) B' on the joint space."""
    return SignedKronSum((1, 1, -1), a, a_p, b, b_p)


def mermin3_operator(a, a_p, b, b_p, c, c_p) -> SignedKronSum:
    """Order-3 Mermin operator A'BC + AB'C + ABC' - A'B'C'."""
    return SignedKronSum((0, 1, 0, -1), a, a_p, b, b_p, c, c_p)


def mermin4_operator(a, a_p, b, b_p, c, c_p, d, d_p) -> SignedKronSum:
    """Order-4 Mermin operator, half the signed sum of all sixteen products.

    A four-party product term with k primed slots enters with sign
    (-1, +1, +1, -1, -1)[k]; the global 1/2 keeps the violation window at
    2 < |<M4>| <= 4 sqrt(2).
    """
    return SignedKronSum([s / 2.0 for s in _M4_SIGNS], a, a_p, b, b_p, c, c_p, d, d_p)
