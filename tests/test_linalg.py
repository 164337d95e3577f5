import numpy as np
import pytest

from bellsim import (
    DenseOperator,
    NumericGuardError,
    StateVector,
    bell_state,
    chsh_operator,
    expectation,
    is_dichotomic,
    polar_observable,
)
from bellsim.correlators import STANDARD_CHSH_ANGLES
from bellsim.observables import PairingScheme, phase_flip_observable

from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    commutator,
    operator_norm,
    random_hermitian,
    random_operator,
    random_unit,
    tensor_op,
    tensor_state,
)

PLUS = StateVector([1, 0])
MINUS = StateVector([0, 1])
HADAMARD_STATE = StateVector([1, 1])


class TestStateVector:
    def test_normalizes_at_construction(self):
        psi = StateVector([3.0, 4.0])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(NumericGuardError):
            StateVector([0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericGuardError):
            StateVector([1.0, np.nan])

    @pytest.mark.parametrize("amps", [[1e200, np.inf], [complex(1, np.inf)], [np.inf, -np.inf]])
    def test_rejects_infinite_beside_any_norm(self, amps):
        with pytest.raises(NumericGuardError, match="finite"):
            StateVector(amps)

    @pytest.mark.parametrize("big", [1e155, 1e200, 1.7e308])
    def test_overflowing_norm_is_rescaled(self, big):
        # the squared norm overflows to inf, which divided every amplitude to 0
        assert np.array_equal(StateVector([big, big]).amplitudes, [1 / np.sqrt(2.0)] * 2)
        psi = StateVector([big * (1 + 1j), -big])
        assert psi.amplitudes.tobytes() == StateVector([1 + 1j, -1]).amplitudes.tobytes()

    def test_shape_must_match_dimension(self):
        with pytest.raises(ValueError):
            StateVector([1, 0, 0, 0], shape=(3, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            StateVector([])

    def test_inner_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            PLUS.inner(bell_state(0))

    def test_amplitudes_are_read_only(self):
        psi = StateVector([1, 0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestDenseOperator:
    def test_hermitian_flag(self):
        assert DenseOperator(PAULI_X).hermitian
        assert not DenseOperator([[0, 1], [0, 0]]).hermitian

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DenseOperator(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericGuardError):
            DenseOperator([[np.inf, 0], [0, 1]])

    def test_non_hermitian_involution_is_not_dichotomic(self):
        # it squares to the identity, but its eigenvectors are not orthogonal
        op = DenseOperator([[1.0, 1.0], [0.0, -1.0]])
        assert np.array_equal((op @ op).matrix, np.eye(2))
        assert not is_dichotomic(op)


class TestTensorProducts:
    def test_basis_products(self):
        assert np.allclose(tensor_state(PLUS, MINUS).amplitudes, [0, 1, 0, 0])
        assert np.allclose(tensor_state(PLUS, PLUS).amplitudes, [1, 0, 0, 0])

    def test_hadamard_square(self):
        psi = tensor_state(HADAMARD_STATE, HADAMARD_STATE)
        assert np.allclose(psi.amplitudes, [0.5, 0.5, 0.5, 0.5])
        assert psi.shape == (2, 2)

    def test_op_eigenvector(self):
        zz = tensor_op(DenseOperator(PAULI_Z), DenseOperator(np.eye(2)))
        out = zz.matrix @ np.array([0, 1, 0, 0])
        assert np.allclose(out, [0, 1, 0, 0])

    def test_identity_kron(self):
        eye2 = DenseOperator(np.eye(2))
        assert np.allclose(tensor_op(eye2, eye2).matrix, np.eye(4))

    def test_xx_fixes_first_bell_state(self):
        xx = tensor_op(DenseOperator(PAULI_X), DenseOperator(PAULI_X))
        phi0 = bell_state(0).amplitudes
        assert np.allclose(xx.matrix @ phi0, phi0)

    def test_factorized_action(self):
        rng = np.random.default_rng(7)
        a = random_operator(rng, 2)
        b = random_operator(rng, 3)
        x = StateVector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        y = StateVector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        lhs = tensor_op(a, b).matrix @ tensor_state(x, y).amplitudes
        rhs = np.kron(a.matrix @ x.amplitudes, b.matrix @ y.amplitudes)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestExpectation:
    def test_identity_expectation_is_one(self):
        phi0 = bell_state(0)
        assert expectation(DenseOperator(np.eye(4)), phi0) == pytest.approx(1.0)

    def test_phase_observables_at_zero(self):
        scheme = PairingScheme.qubit()
        ab = tensor_op(phase_flip_observable(0.0, scheme), phase_flip_observable(0.0, scheme))
        assert expectation(ab, bell_state(0)).real == pytest.approx(1.0, abs=1e-12)

    def test_singlet_anticorrelation_same_axis(self):
        # measuring the singlet along any common direction anti-correlates
        rng = np.random.default_rng(3)
        singlet = bell_state(2)
        for _ in range(10):
            n = random_unit(rng)
            theta = np.arccos(np.clip(n[2], -1, 1))
            alpha = np.arctan2(n[1], n[0])
            ab = tensor_op(polar_observable(theta, alpha), polar_observable(theta, alpha))
            assert expectation(ab, singlet).real == pytest.approx(-1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(DenseOperator(np.eye(2)), bell_state(0))

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            op = random_hermitian(rng, dim)
            psi = StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            assert abs(expectation(op, psi).imag) < 1e-10


class TestCommutator:
    def test_self_commutator_vanishes(self):
        x = DenseOperator(PAULI_X)
        assert np.allclose(commutator(x, x).matrix, 0.0)

    def test_pauli_commutator(self):
        lhs = commutator(DenseOperator(PAULI_X), DenseOperator(PAULI_Y)).matrix
        assert np.allclose(lhs, 2j * PAULI_Z, atol=1e-12)

    def test_disjoint_factors_commute(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        eye2, eye3 = DenseOperator(np.eye(2)), DenseOperator(np.eye(3))
        c = commutator(tensor_op(a, eye3), tensor_op(eye2, b))
        assert np.max(np.abs(c.matrix)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(DenseOperator(np.eye(2)), DenseOperator(np.eye(3)))


class TestOperatorNorm:
    def test_identity(self):
        for dim in (1, 2, 5, 17):
            assert operator_norm(DenseOperator(np.eye(dim))) == pytest.approx(1.0)

    def test_chsh_norm_at_maximizing_angles(self):
        scheme = PairingScheme.qubit()
        obs = [phase_flip_observable(a, scheme) for a in STANDARD_CHSH_ANGLES]
        assert operator_norm(chsh_operator(*obs)) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_chsh_square_norm_bounded_by_eight(self):
        rng = np.random.default_rng(23)
        scheme = PairingScheme.qubit()
        for _ in range(50):
            obs = [phase_flip_observable(a, scheme) for a in rng.uniform(0, 2 * np.pi, 4)]
            c = chsh_operator(*obs)
            assert operator_norm(c @ c) <= 8.0 + 1e-9


class TestNormProperties:
    """Spectral-norm identities on random operators."""

    def test_vector_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            op = random_hermitian(rng, dim)
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert np.linalg.norm(op.matrix @ x) <= operator_norm(op) * np.linalg.norm(x) + 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            d1, d2 = random_hermitian(rng, dim), random_hermitian(rng, dim)
            assert operator_norm(d1 + d2) <= operator_norm(d1) + operator_norm(d2) + 1e-9

    def test_submultiplicativity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            d1, d2 = random_operator(rng, dim), random_operator(rng, dim)
            assert operator_norm(d1 @ d2) <= operator_norm(d1) * operator_norm(d2) + 1e-9

    def test_tensor_factorization(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            t = random_operator(rng, int(rng.integers(2, 5)))
            tp = random_operator(rng, int(rng.integers(2, 5)))
            lhs = operator_norm(tensor_op(t, tp))
            assert lhs == pytest.approx(operator_norm(t) * operator_norm(tp), abs=1e-9)

    def test_hermitian_square(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            op = random_hermitian(rng, dim)
            assert operator_norm(op @ op) == pytest.approx(operator_norm(op) ** 2, abs=1e-9)
