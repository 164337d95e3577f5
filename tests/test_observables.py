import tracemalloc

import numpy as np
import pytest

from bellsim import (
    DenseOperator,
    NumericGuardError,
    PairingScheme,
    StateVector,
    PhaseFlipObservable,
    chsh_operator,
    entangled_coherent,
    expectation,
    ghz_state,
    is_dichotomic,
    mermin3_operator,
    mermin4_operator,
    phase_flip_observable,
    polar_observable,
    pseudospin_operators,
)
from bellsim.correlators import STANDARD_CHSH_ANGLES
from bellsim.observables import (
    MAX_DENSE_DIM,
    TSIRELSON_BOUND,
    SignedKronSum,
)
from bellsim import observables

from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    commutator,
    operator_norm,
    random_phase_observable,
    random_qubit_observable,
    spin_matrices,
    tensor_op,
)

PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class TestPairingScheme:
    def test_qubit(self):
        s = PairingScheme.qubit()
        assert s.pairs == ((0, 1),) and s.dim == 2

    def test_even_odd(self):
        s = PairingScheme.even_odd(6)
        assert s.pairs == ((0, 1), (2, 3), (4, 5))

    def test_spin_reflection_integer_leaves_zero_fixed(self):
        s = PairingScheme.spin_reflection(1)
        assert s.pairs == ((0, 2),) and s.fixed_points == (1,)

    def test_spin_reflection_half_integer(self):
        s = PairingScheme.spin_reflection(1.5)
        assert s.pairs == ((0, 3), (1, 2)) and s.fixed_points == ()

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            PairingScheme(pairs=((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            PairingScheme(pairs=((0, 3),), fixed_points=(1,))
        with pytest.raises(ValueError, match="malformed"):
            PairingScheme(pairs=((0, 0),))


class TestPhaseFlip:
    def test_zero_phase_is_pauli_x(self):
        assert np.allclose(phase_flip_observable(0.0, PairingScheme.qubit()).matrix, PAULI_X)

    def test_spin_one_matrix(self):
        op = phase_flip_observable(0.7, PairingScheme.spin_reflection(1))
        expected = np.zeros((3, 3), complex)
        expected[2, 0] = np.exp(0.7j)
        expected[0, 2] = np.exp(-0.7j)
        expected[1, 1] = 1.0
        assert np.allclose(op.matrix, expected)

    def test_dichotomic_for_random_phases(self):
        rng = np.random.default_rng(2)
        for scheme in (PairingScheme.qubit(), PairingScheme.even_odd(8),
                       PairingScheme.spin_reflection(2.5)):
            for _ in range(20):
                op = random_phase_observable(rng, scheme)
                assert op.hermitian
                assert np.max(np.abs(op.matrix @ op.matrix - np.eye(scheme.dim))) < 1e-12

    def test_per_pair_phase_count_enforced(self):
        with pytest.raises(ValueError):
            phase_flip_observable([0.1, 0.2, 0.3], PairingScheme.even_odd(4))

    @pytest.mark.parametrize("phases", [np.inf, -np.inf, np.nan, [0.1, np.inf], [np.nan, 0.2]])
    def test_non_finite_phase_is_guard_error_without_warning(self, phases):
        # checked before np.exp, which would warn first; pytest turns any
        # warning into an error, so a warning fails this test
        with pytest.raises(NumericGuardError, match="finite"):
            phase_flip_observable(phases, PairingScheme.even_odd(4))


def _entrywise_matrix(phases, scheme):
    """The phase-flip matrix written entry by entry, as the dense form did."""
    al = np.broadcast_to(np.asarray(phases, dtype=float), (len(scheme.pairs),))
    mat = np.zeros((scheme.dim, scheme.dim), dtype=np.complex128)
    for (p, q), a in zip(scheme.pairs, al):
        mat[q, p] = np.exp(1j * a)
        mat[p, q] = np.exp(-1j * a)
    for f in scheme.fixed_points:
        mat[f, f] = 1.0
    return mat


# qubit, Fock pairs, spin with a fixed point (j = 3) and without (j = 5/2)
STRUCTURED_SCHEMES = [PairingScheme.qubit(),
                      *(PairingScheme.even_odd(c) for c in (4, 8, 16, 32, 64)),
                      PairingScheme.spin_reflection(3), PairingScheme.spin_reflection(2.5)]
SCHEME_IDS = ["qubit", *(f"fock-{c}" for c in (4, 8, 16, 32, 64)), "spin-3", "spin-2.5"]


class TestStructuredPhaseFlip:
    @pytest.mark.parametrize("scheme", STRUCTURED_SCHEMES, ids=SCHEME_IDS)
    def test_matrix_equals_entrywise_construction_bytes(self, scheme):
        rng = np.random.default_rng(61)
        for phases in (0.0, -0.0, -2.5, 1e3, 1e6, -1e6,
                       *rng.uniform(-10.0, 10.0, (20, len(scheme.pairs))),
                       *rng.uniform(-1e6, 1e6, (5, len(scheme.pairs)))):
            op = phase_flip_observable(phases, scheme)
            assert isinstance(op, PhaseFlipObservable) and op.dim == scheme.dim
            assert op.matrix.tobytes() == _entrywise_matrix(phases, scheme).tobytes()
            # Hermitian exactly: np.exp(-1j a) is conj(np.exp(1j a)) in value
            assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_negated_phase_is_conjugate_bitwise(self):
        a = np.random.default_rng(67).uniform(-1e3, 1e3, 100_000)
        assert np.exp(-1j * a).tobytes() == np.exp(1j * a).conj().tobytes()
        # but not at a = -0.0, where both exponentials are 1+0j; so the
        # builder keeps two exps, and the bytes test above takes a -0.0 phase

    @pytest.mark.parametrize("scheme", STRUCTURED_SCHEMES, ids=SCHEME_IDS)
    def test_permutation_is_a_cached_involution(self, scheme):
        perm = scheme.permutation
        assert perm is scheme.permutation and not perm.flags.writeable
        assert np.array_equal(perm[perm], np.arange(scheme.dim))
        assert [f for f in range(scheme.dim) if perm[f] == f] == list(scheme.fixed_points)
        assert phase_flip_observable(0.3, scheme).perm is perm

    @pytest.mark.parametrize("scheme", STRUCTURED_SCHEMES, ids=SCHEME_IDS)
    def test_apply_along_matches_the_matrix(self, scheme):
        rng = np.random.default_rng(71)
        op = random_phase_observable(rng, scheme)
        for left, right in ((1, 1), (1, 3), (2, 1), (3, 2)):
            vec = rng.standard_normal(left * op.dim * right)  # real input too
            dense = DenseOperator(op.matrix).apply_along(vec, left)
            assert np.max(np.abs(op.apply_along(vec, left) - dense)) < 1e-15
        vec = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.max(np.abs(op.apply(vec) - op.matrix @ vec)) < 1e-15

    def test_signed_sum_skips_the_square_for_phase_flips(self, monkeypatch):
        # dichotomic by construction: no O @ O check; dense factors still get one
        checked = []
        monkeypatch.setattr(observables, "is_dichotomic",
                            lambda op: checked.append(op) or True)
        scheme = PairingScheme.even_odd(4)
        chsh_operator(*(phase_flip_observable(a, scheme) for a in STANDARD_CHSH_ANGLES))
        assert checked == []
        polar = polar_observable(0.3, 0.2)
        chsh_operator(phase_flip_observable(0.1, PairingScheme.qubit()), polar, polar, polar)
        assert len(checked) == 3


def _dense_copy(op):
    """The same observable as a DenseOperator: the matrix route, applied by matmul."""
    return DenseOperator(op.matrix)


def _polar_draw(rng):
    return polar_observable(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))


@pytest.mark.parametrize("scheme, build, parties", [
    *((s, chsh_operator, 2) for s in STRUCTURED_SCHEMES),
    (PairingScheme.qubit(), mermin3_operator, 3),
    (PairingScheme.even_odd(4), mermin3_operator, 3),
    (PairingScheme.spin_reflection(1), mermin3_operator, 3),
    (PairingScheme.qubit(), mermin4_operator, 4),
    (PairingScheme.even_odd(4), mermin4_operator, 4),
], ids=[*(f"chsh-{i}" for i in SCHEME_IDS), "mermin3-qubit", "mermin3-fock-4",
        "mermin3-spin-1", "mermin4-qubit", "mermin4-fock-4"])
def test_structured_route_matches_dense_route(scheme, build, parties):
    rng = np.random.default_rng(73)
    for _ in range(5):
        obs = [random_phase_observable(rng, scheme) for _ in range(2 * parties)]
        op = build(*obs)
        psi = _random_state(rng, op.dim)
        value = expectation(op, psi)
        assert abs(value - expectation(build(*map(_dense_copy, obs)), psi)) < 1e-13
        if op.dim <= MAX_DENSE_DIM:
            assert abs(value - np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)) < 1e-13


@pytest.mark.parametrize("order", ["phase-then-polar", "polar-then-phase", "mixed-first"])
def test_chsh_with_polar_factors_matches_matrix(order):
    # polar (dense) factors beside phase flips: each party applies its own way
    rng = np.random.default_rng(79)
    scheme = PairingScheme.qubit()
    for _ in range(10):
        phase = [random_phase_observable(rng, scheme) for _ in range(2)]
        polar = [_polar_draw(rng) for _ in range(2)]
        settings = {"phase-then-polar": phase + polar, "polar-then-phase": polar + phase,
                    "mixed-first": [phase[0], polar[0], polar[1], phase[1]]}[order]
        op = chsh_operator(*settings)
        psi = _random_state(rng, 4)
        direct = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
        assert abs(expectation(op, psi) - direct) < 1e-13


class TestOracleMemory:
    """No accepted input allocates d^2 per setting on the oracle route."""

    def _peak_mib(self, build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_one_observable_at_cutoff_1024_under_one_mib(self):
        scheme = PairingScheme.even_odd(1024)  # the dense form peaked at 64 MiB
        assert self._peak_mib(lambda: phase_flip_observable(0.4, scheme)) < 1.0

    def test_chsh_expectation_at_cutoff_1024_within_six_vectors(self):
        # a joint amplitude vector at cutoff 1024 is 16 MiB; the dense route
        # peaked at 160 MiB
        scheme = PairingScheme.even_odd(1024)

        def run():
            obs = [phase_flip_observable(a, scheme) for a in STANDARD_CHSH_ANGLES]
            return expectation(chsh_operator(*obs), entangled_coherent(1.0, 0.8, 0.3, 1024))

        assert self._peak_mib(run) <= 96.0


class TestPolar:
    def test_north_pole_is_pauli_z(self):
        assert np.allclose(polar_observable(0.0, 0.0).matrix, PAULI_Z)

    def test_equator_is_pauli_x(self):
        assert np.allclose(polar_observable(np.pi / 2, 0.0).matrix, PAULI_X, atol=1e-12)

    def test_equator_matches_phase_flip(self):
        for alpha in (0.3, 1.0, 4.0):
            lhs = polar_observable(np.pi / 2, alpha).matrix
            rhs = phase_flip_observable(alpha, PairingScheme.qubit()).matrix
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dichotomic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            op = random_qubit_observable(rng)
            assert is_dichotomic(op)


class TestPauliAlgebra:
    def test_product_identity(self):
        # sigma_i sigma_j = delta_ij + i eps_ijk sigma_k, all nine pairs
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
        for i in range(3):
            for j in range(3):
                expected = (np.eye(2) if i == j else np.zeros((2, 2))).astype(complex)
                for k in range(3):
                    expected = expected + 1j * eps[i, j, k] * PAULIS[k]
                assert np.allclose(PAULIS[i] @ PAULIS[j], expected, atol=1e-12)


class TestPseudospin:
    def test_single_block_matches_pauli_up_to_pair_orientation(self):
        # the pseudospin blocks put the odd level in the up slot, so on the
        # first pair sx is Pauli-x while sy, sz pick up a sign
        sx, sy, sz = pseudospin_operators(2)
        assert np.allclose(sx.matrix, PAULI_X)
        assert np.allclose(sy.matrix, -PAULI_Y)
        assert np.allclose(sz.matrix, -PAULI_Z)

    def test_pauli_algebra_exact(self):
        sx, sy, sz = pseudospin_operators(12)
        assert np.max(np.abs(commutator(sx, sy).matrix - 2j * sz.matrix)) == 0.0
        assert np.max(np.abs(commutator(sy, sz).matrix - 2j * sx.matrix)) == 0.0
        assert np.max(np.abs(commutator(sz, sx).matrix - 2j * sy.matrix)) == 0.0

    def test_squares_to_identity(self):
        for comp in pseudospin_operators(10):
            assert np.allclose((comp @ comp).matrix, np.eye(10))

    def test_odd_cutoff_rejected(self):
        with pytest.raises(ValueError):
            pseudospin_operators(7)

    def test_phase_flip_as_pseudospin_combination(self):
        # the pair-flip observable with phase a equals cos(a) sx - sin(a) sy
        sx, sy, _ = pseudospin_operators(8)
        for a in (0.0, 0.4, 2.2):
            op = phase_flip_observable(a, PairingScheme.even_odd(8))
            combo = np.cos(a) * sx.matrix - np.sin(a) * sy.matrix
            assert np.allclose(op.matrix, combo, atol=1e-12)


class TestSpinMatrices:
    def test_half_spin_is_half_pauli(self):
        jx, jy, jz = spin_matrices(0.5)
        assert np.allclose(jx.matrix, PAULI_X / 2)
        assert np.allclose(jy.matrix, PAULI_Y / 2)
        assert np.allclose(jz.matrix, PAULI_Z / 2)

    def test_spin_one_known_entries(self):
        jx, jy, jz = spin_matrices(1)
        s = 1 / np.sqrt(2)
        assert np.allclose(jx.matrix, s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        assert np.allclose(jz.matrix, np.diag([1, 0, -1]))
        assert np.allclose(jy.matrix, s * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]))

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5])
    def test_commutation_relations(self, j):
        jx, jy, jz = spin_matrices(j)
        assert np.max(np.abs(commutator(jx, jy).matrix - 1j * jz.matrix)) < 1e-12
        assert np.max(np.abs(commutator(jy, jz).matrix - 1j * jx.matrix)) < 1e-12
        assert np.max(np.abs(commutator(jz, jx).matrix - 1j * jy.matrix)) < 1e-12

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            spin_matrices(0.3)


class TestChshOperator:
    def test_equal_settings_norm_two(self):
        rng = np.random.default_rng(5)
        a = random_qubit_observable(rng)
        b = random_qubit_observable(rng)
        c = chsh_operator(a, a, b, b)
        assert operator_norm(c) <= 2.0 + 1e-12

    def test_norm_at_maximizing_angles(self):
        scheme = PairingScheme.qubit()
        obs = [phase_flip_observable(v, scheme) for v in STANDARD_CHSH_ANGLES]
        assert operator_norm(chsh_operator(*obs)) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_square_identity(self):
        # C^2 = 4 - [A, A'] (x) [B, B']
        rng = np.random.default_rng(9)
        for _ in range(25):
            a, ap = random_qubit_observable(rng), random_qubit_observable(rng)
            b, bp = random_qubit_observable(rng), random_qubit_observable(rng)
            c = chsh_operator(a, ap, b, bp)
            rhs = 4 * np.eye(4) - np.kron(commutator(a, ap).matrix, commutator(b, bp).matrix)
            assert np.max(np.abs((c @ c).matrix - rhs)) < 1e-10

    def test_rejects_non_dichotomic(self):
        bad = DenseOperator(np.diag([1.0, 0.5]))
        good = DenseOperator(PAULI_X)
        with pytest.raises(ValueError):
            chsh_operator(bad, good, good, good)

    def test_two_kron_form_exact(self):
        # (A + A') (x) B + (A - A') (x) B', bit for bit, on qubit and Fock pairs
        rng = np.random.default_rng(37)
        for scheme in (PairingScheme.qubit(), PairingScheme.even_odd(6)):
            a, ap, b, bp = (random_phase_observable(rng, scheme) for _ in range(4))
            direct = (np.kron(a.matrix + ap.matrix, b.matrix)
                      + np.kron(a.matrix - ap.matrix, bp.matrix))
            assert np.array_equal(chsh_operator(a, ap, b, bp).matrix, direct)

    def test_rejects_parties_of_mixed_dimension(self):
        qubit = DenseOperator(PAULI_X)
        fock = phase_flip_observable(0.3, PairingScheme.even_odd(4))
        with pytest.raises(ValueError):
            chsh_operator(qubit, fock, qubit, qubit)

    def test_norm_bounded_over_random_settings(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            obs = [random_qubit_observable(rng) for _ in range(4)]
            assert operator_norm(chsh_operator(*obs)) <= TSIRELSON_BOUND + 1e-9

    def test_same_party_commutators(self):
        rng = np.random.default_rng(17)
        scheme = PairingScheme.qubit()
        # generic phases do not commute; the commutator norm caps at 2
        for _ in range(50):
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            c = commutator(phase_flip_observable(a1, scheme), phase_flip_observable(a2, scheme))
            norm = operator_norm(c)
            assert norm <= 2.0 + 1e-12
            if abs(np.sin(a1 - a2)) > 1e-3:
                assert norm > 1e-3
        # across parties everything commutes
        a = random_qubit_observable(rng)
        b = random_qubit_observable(rng)
        eye = DenseOperator(np.eye(2))
        cross = commutator(tensor_op(a, eye), tensor_op(eye, b))
        assert np.max(np.abs(cross.matrix)) < 1e-12


class TestMerminOperators:
    def test_degenerate_settings_collapse(self):
        rng = np.random.default_rng(19)
        a, b, c = (random_qubit_observable(rng) for _ in range(3))
        m3 = mermin3_operator(a, a, b, b, c, c)
        expected = 2 * np.kron(np.kron(a.matrix, b.matrix), c.matrix)
        assert np.allclose(m3.matrix, expected, atol=1e-12)
        assert operator_norm(m3) == pytest.approx(2.0, abs=1e-12)

    def test_square_identity(self):
        # M3^2 = 4 - [A,A'][B,B'] - [A,A'][C,C'] - [B,B'][C,C'] (slotwise)
        rng = np.random.default_rng(23)
        eye = np.eye(2)
        for _ in range(10):
            a, ap, b, bp, c, cp = (random_qubit_observable(rng) for _ in range(6))
            m3 = mermin3_operator(a, ap, b, bp, c, cp)
            caa = commutator(a, ap).matrix
            cbb = commutator(b, bp).matrix
            ccc = commutator(c, cp).matrix
            rhs = (4 * np.eye(8)
                   - np.kron(np.kron(caa, cbb), eye)
                   - np.kron(np.kron(caa, eye), ccc)
                   - np.kron(np.kron(eye, cbb), ccc))
            assert np.max(np.abs((m3 @ m3).matrix - rhs)) < 1e-10

    def test_m3_norm_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            obs = [random_qubit_observable(rng) for _ in range(6)]
            assert operator_norm(mermin3_operator(*obs)) <= 4.0 + 1e-9

    def test_m4_norm_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            obs = [random_qubit_observable(rng) for _ in range(8)]
            assert operator_norm(mermin4_operator(*obs)) <= 4 * np.sqrt(2) + 1e-9

    def test_m4_hermitian_and_ghz_value(self):
        scheme = PairingScheme.qubit()
        d = np.pi / 16
        obs = []
        for _ in range(4):
            obs.append(phase_flip_observable(d, scheme))
            obs.append(phase_flip_observable(d + np.pi / 2, scheme))
        m4 = mermin4_operator(*obs)
        assert m4.hermitian
        value = expectation(m4, ghz_state(4)).real
        assert value == pytest.approx(4 * np.sqrt(2), abs=1e-10)

    def test_rejects_non_dichotomic(self):
        good = DenseOperator(PAULI_X)
        bad = DenseOperator(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            mermin3_operator(good, good, good, good, bad, good)

    def test_signed_sums_of_products(self):
        # each term's sign depends only on how many of its settings are primed
        rng = np.random.default_rng(41)

        def product(*ops):
            out = np.eye(1)
            for op in ops:
                out = np.kron(out, op.matrix)
            return out

        a, ap, b, bp, c, cp, d, dp = (random_qubit_observable(rng) for _ in range(8))
        m3 = product(ap, b, c) + product(a, bp, c) + product(a, b, cp) - product(ap, bp, cp)
        assert np.max(np.abs(mermin3_operator(a, ap, b, bp, c, cp).matrix - m3)) < 1e-15
        parties = ((a, ap), (b, bp), (c, cp), (d, dp))
        signs = (-1, 1, 1, -1, -1)
        m4 = sum(signs[sum(bits)] * product(*(pair[bit] for pair, bit in zip(parties, bits)))
                 for bits in np.ndindex(2, 2, 2, 2)) / 2
        assert np.max(np.abs(mermin4_operator(a, ap, b, bp, c, cp, d, dp).matrix - m4)) < 1e-15


def _random_state(rng, dim):
    return StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _phase_draw(scheme):
    return lambda rng: random_phase_observable(rng, scheme)


@pytest.mark.parametrize("draw, build, parties", [
    (random_qubit_observable, chsh_operator, 2),
    *((_phase_draw(PairingScheme.even_odd(c)), chsh_operator, 2) for c in (2, 6, 20)),
    *((_phase_draw(PairingScheme.spin_reflection(j)), chsh_operator, 2)
      for j in (0.5, 1, 1.5, 2, 2.5, 3)),
    (random_qubit_observable, mermin3_operator, 3),
    (random_qubit_observable, mermin4_operator, 4),
], ids=["qubit", *(f"fock-{c}" for c in (2, 6, 20)),
        *(f"spin-{j:g}" for j in (0.5, 1, 1.5, 2, 2.5, 3)), "mermin3", "mermin4"])
def test_factored_expectation_matches_matrix(draw, build, parties):
    # the state-applied route against the materialized joint matrix
    rng = np.random.default_rng(43)
    for _ in range(5):
        op = build(*(draw(rng) for _ in range(2 * parties)))
        psi = _random_state(rng, op.dim)
        direct = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
        assert abs(expectation(op, psi) - direct) < 1e-14


class TestSignedKronSum:
    @pytest.mark.parametrize("signs", [(1, 1j, -1), (1, float("nan"), -1), (1, 1), "abc"])
    def test_rejects_bad_sign_table(self, signs):
        x = DenseOperator(PAULI_X)
        with pytest.raises(ValueError, match="sign table"):
            SignedKronSum(signs, x, x, x, x)

    def test_hermitian_and_dimension(self):
        scheme = PairingScheme.even_odd(4)
        rng = np.random.default_rng(47)
        op = chsh_operator(*(random_phase_observable(rng, scheme) for _ in range(4)))
        assert op.hermitian and op.dim == 16
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_matrix_above_dimension_limit_is_guard_error(self):
        # cutoff 80: a 6400 x 6400 joint matrix (655 MB) is refused before any
        # allocation, while expectation still works on the factors
        scheme = PairingScheme.even_odd(80)
        op = chsh_operator(*(phase_flip_observable(a, scheme) for a in STANDARD_CHSH_ANGLES))
        assert op.dim > MAX_DENSE_DIM
        with pytest.raises(NumericGuardError, match="joint matrix"):
            op.matrix
        psi = StateVector(np.eye(80).ravel())  # sum of |n, n>
        assert np.isfinite(expectation(op, psi))
