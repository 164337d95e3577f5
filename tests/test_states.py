import math

import numpy as np
import pytest

from bellsim import (
    NumericGuardError,
    bell_state,
    cat_state_pair,
    cat_state_single,
    coherent_state,
    entangled_coherent,
    ghz_state,
    gisin_family_state,
    is_product,
    r_state,
    spin_matrices,
    spin_singlet,
    squeezed_state,
    symmetric_coherent,
    tensor_op,
)
from bellsim.linalg import DenseOperator
from bellsim.limits import MAX_CUTOFF, MAX_TWOJ, _check_cutoff, _check_spin
from bellsim.states import coherent_amplitudes

from helpers import schmidt_rank_bruteforce

SQRT2 = np.sqrt(2.0)


class TestBellStates:
    def test_explicit_amplitudes(self):
        assert np.allclose(bell_state(0).amplitudes, np.array([1, 0, 0, 1]) / SQRT2)
        assert np.allclose(bell_state(3).amplitudes, np.array([0, 1, 1, 0]) / SQRT2)

    def test_orthonormal_basis(self):
        gram = np.array([[bell_state(a).inner(bell_state(b)) for b in range(4)]
                         for a in range(4)])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            bell_state(4)

    def test_singlet_total_spin_zero(self):
        jx, jy, jz = spin_matrices(0.5)
        eye = DenseOperator(np.eye(2))
        singlet = bell_state(2)
        for j in (jx, jy, jz):
            total = tensor_op(j, eye).matrix + tensor_op(eye, j).matrix
            assert np.linalg.norm(total @ singlet.amplitudes) < 1e-10


class TestGisinFamily:
    def test_small_n(self):
        assert np.allclose(gisin_family_state(3).amplitudes, np.array([1, 1, 1, 0]) / np.sqrt(3))
        assert np.allclose(gisin_family_state(4).amplitudes, [0.5, 0.5, 0.5, 0.5])
        assert np.allclose(gisin_family_state(7).amplitudes, np.array([1, 1, 1, 2]) / np.sqrt(7))

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            gisin_family_state(2)

    @pytest.mark.parametrize("n", [10 ** 400, float("inf")])
    def test_n_beyond_float_range_rejected(self, n):
        with pytest.raises(ValueError):
            gisin_family_state(n)

    @pytest.mark.parametrize("n", [3.7, 2.5])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            gisin_family_state(n)

    def test_product_exactly_at_four(self):
        assert is_product(gisin_family_state(4))[0]
        for n in (3, 5, 6, 7, 8, 50):
            assert not is_product(gisin_family_state(n))[0]


class TestRState:
    def test_r_zero_is_product(self):
        psi = r_state(0.0)
        assert np.allclose(psi.amplitudes, [0, 1, 0, 0])
        assert is_product(psi)[0]

    def test_r_one_is_bell3(self):
        assert abs(abs(r_state(1.0).inner(bell_state(3))) - 1.0) < 1e-12

    def test_r_half(self):
        assert np.allclose(r_state(0.5).amplitudes, np.array([0, 1, 0.5, 0]) / np.sqrt(1.25))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            r_state(np.inf)


class TestSpinSinglet:
    def test_half_spin_matches_bell_singlet(self):
        psi = spin_singlet(0.5)
        assert np.allclose(psi.amplitudes, np.array([0, 1, -1, 0]) / SQRT2)

    def test_spin_one_antidiagonal(self):
        psi = spin_singlet(1)
        expected = np.zeros(9)
        expected[2], expected[4], expected[6] = 1, -1, 1
        assert np.allclose(psi.amplitudes, expected / np.sqrt(3))

    def test_spin_three_half_four_terms(self):
        psi = spin_singlet(1.5)
        nz = np.flatnonzero(np.abs(psi.amplitudes) > 1e-14)
        assert list(nz) == [3, 6, 9, 12]
        assert np.allclose(psi.amplitudes[nz], [0.5, -0.5, 0.5, -0.5])

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5])
    def test_annihilated_by_total_spin(self, j):
        dim = int(round(2 * j)) + 1
        eye = DenseOperator(np.eye(dim))
        psi = spin_singlet(j)
        for comp in spin_matrices(j):
            total = tensor_op(comp, eye).matrix + tensor_op(eye, comp).matrix
            assert np.linalg.norm(total @ psi.amplitudes) < 1e-10

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            spin_singlet(0.7)

    @pytest.mark.parametrize("j", [MAX_TWOJ / 2 + 0.5, 1e308, float("inf"), float("nan")])
    def test_spin_above_bound_rejected_before_rounding(self, j):
        # 2j is bounded before round(), so a huge j is a ValueError, not an
        # OverflowError, and no (2j+1)^2 state is allocated
        with pytest.raises(ValueError, match="up to 512"):
            spin_singlet(j)

    def test_spin_at_bound_accepted(self):
        assert _check_spin(MAX_TWOJ / 2) == MAX_TWOJ


class TestCoherent:
    def test_vacuum_at_zero(self):
        psi = coherent_state(0.0)
        assert psi.amplitudes[0] == pytest.approx(1.0)
        assert np.max(np.abs(psi.amplitudes[1:])) == 0.0

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.0, 0.5 + 0.5j])
    def test_annihilation_eigenstate(self, z):
        cutoff = 40
        psi = coherent_state(z, cutoff)
        lower = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
        assert np.linalg.norm(lower @ psi.amplitudes - z * psi.amplitudes) < 1e-8

    def test_normalized(self):
        for z in (0.2, 1.5, 1.0 + 0.7j):
            assert abs(np.linalg.norm(coherent_state(z).amplitudes) - 1.0) < 1e-12

    def test_tail_guard(self):
        with pytest.raises(NumericGuardError):
            coherent_state(6.0, 40)

    def test_resolution_of_unity_on_lower_levels(self):
        # polar-grid sum of (d^2 z / pi) |z><z|, radius 6 sampled on a
        # 200 x 200 midpoint grid.  Restricting the integral to a disc of
        # radius R leaves level n with a deficit of Pr(Poisson(R^2) <= n),
        # so radius 6 resolves levels below 19 at the 1e-3 scale while
        # level 19 carries an irreducible 1.42e-3 deficit that no grid
        # refinement can remove.
        cutoff = 40
        nr = nt = 200
        radius = 6.0
        dr, dt = radius / nr, 2 * np.pi / nt
        acc = np.zeros((cutoff, cutoff), dtype=np.complex128)
        for r in (np.arange(nr) + 0.5) * dr:
            zs = r * np.exp(1j * (np.arange(nt) + 0.5) * dt)
            vecs = np.array([coherent_amplitudes(z, cutoff) for z in zs])
            acc += (r * dr * dt / np.pi) * np.einsum("zm,zn->mn", vecs, vecs.conj())
        err = np.max(np.abs(acc[:19, :19] - np.eye(19)))
        assert err < 1e-3
        # the first level past the supported window sits on the analytic floor
        # Pr(Poisson(R^2) < 20), the regularized upper gamma function Q(20, R^2)
        floor = math.exp(-radius**2) * sum(radius ** (2 * k) / math.factorial(k)
                                           for k in range(20))
        assert abs(acc[19, 19] - 1.0) == pytest.approx(floor, abs=5e-5)


class TestEntangledCoherent:
    def test_vacuum_limit(self):
        psi = entangled_coherent(0.0, 0.0, 0.0)
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0)

    def test_degenerate_normalization(self):
        with pytest.raises(NumericGuardError):
            entangled_coherent(0.0, 0.0, np.pi)

    def test_closed_form_normalization(self):
        # the two-branch sum normalized by the closed-form factor has unit norm
        for eta, sigma, phi in [(0.4, 0.8, 0.9), (1.0, 0.2, np.pi), (0.7, 0.7, 0.0)]:
            cutoff = 40
            plus = np.kron(coherent_amplitudes(eta, cutoff), coherent_amplitudes(sigma, cutoff))
            minus = np.kron(coherent_amplitudes(-eta, cutoff), coherent_amplitudes(-sigma, cutoff))
            raw = plus + np.exp(1j * phi) * minus
            factor = 1.0 / np.sqrt(2.0 * (1.0 + np.cos(phi) * np.exp(-2 * (eta**2 + sigma**2))))
            assert abs(np.linalg.norm(factor * raw) - 1.0) < 1e-9

    def test_tail_guard(self):
        with pytest.raises(NumericGuardError):
            entangled_coherent(6.0, 0.1, 0.0, cutoff=40)

    @pytest.mark.parametrize("eta", [6.4, 1e200])
    def test_amplitude_beyond_cutoff_is_guard_error(self, eta):
        # |z|^2 >= cutoff is refused before any term is formed, so a huge
        # amplitude cannot overflow into an OverflowError or NaN amplitudes
        with pytest.raises(NumericGuardError, match="mean photon number"):
            entangled_coherent(eta, 0.1, 0.0, cutoff=40)


class TestSymmetricAndCats:
    def test_cat_minus_at_zero_is_degenerate(self):
        with pytest.raises(NumericGuardError):
            cat_state_single(0.0, -1)

    def test_cat_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="sign"):
            cat_state_single(0.5, 0)

    def test_symmetric_equal_amplitudes_with_pi_phase_is_degenerate(self):
        # |eta, eta> - |eta, eta> cancels exactly
        with pytest.raises(NumericGuardError, match="degenerate"):
            symmetric_coherent(0.5, 0.5, np.pi)

    def test_symmetric_equal_amplitudes_is_product(self):
        psi = symmetric_coherent(0.8, 0.8, 0.7)
        assert is_product(psi)[0]

    def test_symmetric_norm_against_overlap_formula(self):
        eta, sigma, phi = 1.0, 0.5, np.pi / 3
        cutoff = 40
        ce, cs = coherent_amplitudes(eta, cutoff), coherent_amplitudes(sigma, cutoff)
        raw = np.kron(ce, cs) + np.exp(1j * phi) * np.kron(cs, ce)
        norm_sq = 2.0 * (1.0 + np.cos(phi) * np.exp(-((eta - sigma) ** 2)))
        assert np.linalg.norm(raw) ** 2 == pytest.approx(norm_sq, abs=1e-9)
        assert abs(np.linalg.norm(symmetric_coherent(eta, sigma, phi).amplitudes) - 1) < 1e-12

    def test_cat_pair_constructs_normalized(self):
        psi = cat_state_pair(1.0, 0.5, np.pi / 3, +1)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        psi = cat_state_pair(1.0, 0.5, 0.0, -1)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_cat_pair_degenerate_branch_cancellation(self):
        # equal cats with a pi phase cancel exactly
        with pytest.raises(NumericGuardError):
            cat_state_pair(0.9, 0.9, np.pi, +1)


class TestSqueezed:
    def test_small_lambda_close_to_double_vacuum(self):
        psi = squeezed_state(1e-8, 40)
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0)

    def test_normalized(self):
        for lam in (0.1, 0.4, 0.7):
            assert abs(np.linalg.norm(squeezed_state(lam, 40).amplitudes) - 1.0) < 1e-12

    def test_diagonal_support(self):
        cutoff = 20
        psi = squeezed_state(0.3, cutoff).amplitudes.reshape(cutoff, cutoff)
        off = psi - np.diag(np.diag(psi))
        assert np.max(np.abs(off)) == 0.0

    def test_out_of_range(self):
        for lam in (-0.1, 0.0, 1.0, 1.2):
            with pytest.raises(ValueError):
                squeezed_state(lam, 40)

    def test_insufficient_cutoff(self):
        with pytest.raises(NumericGuardError):
            squeezed_state(0.9, 40)

    @pytest.mark.parametrize("cutoff", [MAX_CUTOFF + 2, 10 ** 9, float("inf")])
    def test_cutoff_above_bound_rejected(self, cutoff):
        # the state would hold cutoff^2 amplitudes; the check allocates none
        with pytest.raises(ValueError, match="up to 1024"):
            squeezed_state(0.5, cutoff)
        assert _check_cutoff(MAX_CUTOFF) == MAX_CUTOFF


class TestGhz:
    def test_three_party_amplitudes(self):
        psi = ghz_state(3)
        assert psi.amplitudes[0] == pytest.approx(1 / SQRT2)
        assert psi.amplitudes[7] == pytest.approx(-1 / SQRT2)
        assert np.max(np.abs(psi.amplitudes[1:7])) == 0.0

    def test_four_party_shape(self):
        psi = ghz_state(4)
        assert psi.shape == (2, 2, 2, 2)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_requires_three_parties(self):
        with pytest.raises(ValueError):
            ghz_state(2)

    @pytest.mark.parametrize("n", [21, float("inf"), float("nan"), 3.7, 19.5])
    def test_party_count_outside_3_to_20_or_non_integer_rejected(self, n):
        # 2^21 amplitudes and up are refused, inf and NaN before int() sees
        # them, and 3.7 is not truncated to the 3-party state
        with pytest.raises(ValueError):
            ghz_state(n)


class TestIsProduct:
    def test_requires_bipartite_shape(self):
        with pytest.raises(ValueError):
            is_product(ghz_state(3))

    def test_bell_state_determinant(self):
        flag, svals = is_product(bell_state(0))
        assert not flag
        # two equal Schmidt coefficients; |det| of the coefficient matrix is 1/2
        assert np.prod(svals) == pytest.approx(0.5, abs=1e-12)

    def test_catalog_against_bruteforce_oracle(self):
        catalog = [
            r_state(0.0),               # |+->
            bell_state(0), bell_state(1), bell_state(2), bell_state(3),
            gisin_family_state(4),
            gisin_family_state(5), gisin_family_state(6),
            gisin_family_state(7), gisin_family_state(8),
            r_state(0.5),
            spin_singlet(1),
            squeezed_state(0.4, 20),
            symmetric_coherent(0.8, 0.8, 0.7, 20),
        ]
        for psi in catalog:
            flag, _ = is_product(psi)
            assert flag == (schmidt_rank_bruteforce(psi) == 1)
