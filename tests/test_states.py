import math
import tracemalloc

import numpy as np
import pytest

from bellsim import (
    NumericGuardError,
    bell_state,
    entangled_coherent,
    ghz_state,
    gisin_family_state,
    is_product,
    r_state,
    spin_singlet,
    squeezed_state,
)
from bellsim.linalg import DenseOperator, StateVector
from bellsim.limits import MAX_CUTOFF, MAX_TWOJ, _check_cutoff, _check_spin
from bellsim.states import _guard_tail, _reflected, coherent_amplitudes

from helpers import schmidt_rank_bruteforce, spin_matrices, tensor_op

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

    @pytest.mark.parametrize("r", [1e155, 1e200])
    def test_huge_r_is_minus_plus(self, r):
        # 1 + r^2 overflows; the state is |-+> up to a 1/r amplitude on |+->
        assert np.allclose(r_state(r).amplitudes, [0, 0, 1, 0], rtol=0, atol=1e-150)
        assert r_state(r).amplitudes[2] == 1.0


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
    """The single-mode amplitudes and tail guard that ``entangled_coherent``
    builds its two branches from."""

    def test_vacuum_at_zero(self):
        amps = coherent_amplitudes(0.0)
        assert amps[0] == 1.0
        assert np.max(np.abs(amps[1:])) == 0.0

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.0, 0.5 + 0.5j])
    def test_annihilation_eigenstate(self, z):
        cutoff = 40
        amps = coherent_amplitudes(z, cutoff)
        lower = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
        assert np.linalg.norm(lower @ amps - z * amps) < 1e-8

    def test_normalized(self):
        # unnormalized by construction: the norm is the kept mass, which the
        # tail guard accepts within 1e-10 of 1
        for z in (0.2, 1.5, 1.0 + 0.7j):
            amps = coherent_amplitudes(z)
            _guard_tail(amps, "coherent state")
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_tail_guard(self):
        with pytest.raises(NumericGuardError, match="tail mass"):
            _guard_tail(coherent_amplitudes(6.0, 40), "coherent state")

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


class TestReflectedBranch:
    """The -z branch as the +z amplitudes times (-1)^n, not a second recurrence."""

    @pytest.mark.parametrize("cutoff", [2, 20, 64, 200])
    def test_parity_form_is_the_minus_z_recurrence_bytes(self, cutoff):
        rng = np.random.default_rng(cutoff)
        for z in (0.0, 0.3, -0.3, *rng.uniform(-0.9, 0.9, 20) * math.sqrt(cutoff)):
            expected = coherent_amplitudes(-z, cutoff)
            assert _reflected(coherent_amplitudes(z, cutoff)).tobytes() == expected.tobytes()

    def test_parity_form_equals_the_recurrence_for_complex_z(self):
        # equal values; only the sign of a zero may differ off the real axis
        for z in (0.5 + 0.5j, -1.2 + 0.3j, 2j):
            assert np.array_equal(_reflected(coherent_amplitudes(z, 40)),
                                  coherent_amplitudes(-z, 40))

    @pytest.mark.parametrize("eta, sigma, phi", [
        (0.4, 0.8, 0.9), (1.0, 0.2, np.pi), (0.7, 0.7, 0.0), (-0.6, 0.5, 0.0), (-1.1, -0.3, -6.5),
        *np.random.default_rng(113).uniform((-2.5, -2.5, -7.0), (2.5, 2.5, 7.0), (40, 3)).tolist()])
    def test_states_unchanged_bytes(self, eta, sigma, phi):
        # entangled_coherent sums e^(i phi) minus + plus in place; addition
        # commutes, so it holds the bits of the written plus + e^(i phi) minus
        cutoff = 40
        ce, cs = coherent_amplitudes(eta, cutoff), coherent_amplitudes(sigma, cutoff)
        ce_m, cs_m = coherent_amplitudes(-eta, cutoff), coherent_amplitudes(-sigma, cutoff)
        four_runs = np.kron(ce, cs) + np.exp(1j * phi) * np.kron(ce_m, cs_m)
        expected = StateVector(four_runs, (cutoff, cutoff)).amplitudes
        assert entangled_coherent(eta, sigma, phi, cutoff).amplitudes.tobytes() == expected.tobytes()


def _numpy_scalar_amplitudes(z, cutoff):
    """coherent_amplitudes written as a recurrence on numpy complex scalars:
    the reference the Python-number recurrence keeps the bits of."""
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[0] = 1.0
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * z / np.sqrt(n)
    return amps * np.exp(-abs(z) ** 2 / 2.0)


def _kron_entangled_coherent(eta, sigma, phi, cutoff):
    """entangled_coherent built from the numpy-scalar amplitudes with np.kron."""
    ce, cs = _numpy_scalar_amplitudes(eta, cutoff), _numpy_scalar_amplitudes(sigma, cutoff)
    amps = np.kron(_reflected(ce), _reflected(cs))
    amps *= np.exp(1j * phi)
    amps += np.kron(ce, cs)
    return StateVector(amps, (cutoff, cutoff)).amplitudes


class TestRecurrenceBytes:
    """For real z the Python-number recurrence and the outer-product build
    keep every bit of the numpy-scalar recurrence and the np.kron build,
    signed zeros included."""

    @pytest.mark.parametrize("cutoff", [2, 20, 40, 64, 200, 1024])
    def test_real_z(self, cutoff):
        root = math.sqrt(cutoff)
        # +-0, tails that underflow through the subnormals (1e-160 at level
        # 2, 0.038 near level 250), negative z, and z just below sqrt(cutoff)
        zs = [0.0, -0.0, 0, 1e-160, -1e-160, 1e-300, -1e-300, 0.038, -0.038,
              -0.0194, 0.999999 * root, -0.999999 * root,
              *np.random.default_rng(cutoff).uniform(-root, root, 24)]
        for z in zs:
            expected = _numpy_scalar_amplitudes(z, cutoff).tobytes()
            assert coherent_amplitudes(z, cutoff).tobytes() == expected, z

    @pytest.mark.parametrize("cutoff", [2, 20, 40, 64])
    def test_complex_z(self, cutoff):
        # complex z keeps the values, not the bits: the signs of zero parts
        # follow Python's complex arithmetic, not numpy's
        zs = [0j, complex(-0.0, -0.0), complex(-0.3, -0.0), 0.3 + 0j, 2j, 0.5 + 0.5j,
              -1.2 + 0.3j, 1e-300 - 1e-300j, -1e-160 + 1e-160j]
        for z in zs:
            if abs(z) < math.sqrt(cutoff):
                expected = _numpy_scalar_amplitudes(z, cutoff)
                assert np.array_equal(coherent_amplitudes(z, cutoff), expected), z

    @pytest.mark.parametrize("eta, sigma, phi, cutoff", [
        (0.0, 0.0, 0.3, 2), (-0.0, 0.5, 1.0, 20), (0.8, 0.0, 0.7, 20), (-0.038, 0.02, 2.0, 200),
        # a -0.0 on the first underflowed level of a negative branch reaches
        # these states' bytes: a +0.0 zero fill there changes them
        (-0.10256544920578836, -0.425840314886228, -1.6197594677943483, 200),
        (-0.05040830572256749, -0.047007142231249445, -1.909768983362504, 200),
        (-0.019448978930334482, -0.43843454679592964, -2.1055410182199727, 1024),
        *[(eta, sigma, phi, cutoff) for cutoff in (20, 40, 64) for eta, sigma, phi in
          np.random.default_rng(cutoff).uniform(-1, 1, (6, 3)) * (cutoff ** 0.5 / 3, cutoff ** 0.5 / 3, 7)]])
    def test_entangled_coherent(self, eta, sigma, phi, cutoff):
        expected = _kron_entangled_coherent(eta, sigma, phi, cutoff).tobytes()
        assert entangled_coherent(eta, sigma, phi, cutoff).amplitudes.tobytes() == expected


class TestEntangledCoherent:
    def test_vacuum_limit(self):
        psi = entangled_coherent(0.0, 0.0, 0.0)
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0)

    def test_degenerate_normalization(self):
        with pytest.raises(NumericGuardError):
            entangled_coherent(0.0, 0.0, np.pi)

    @pytest.mark.parametrize("phi", [np.pi, -np.pi, 3 * np.pi])
    def test_degenerate_guard_names_the_cancelling_branches(self, phi):
        # at the origin with cos(phi) = -1 the two branches are one vector
        with pytest.raises(NumericGuardError, match="branches cancel"):
            entangled_coherent(0.0, 0.0, phi)

    @pytest.mark.parametrize("amplitude", [1e-6, 1e-8, 3e-9])
    def test_near_pi_state_is_the_one_photon_superposition(self, amplitude):
        # |a,a> - |-a,-a> = 2a(|1,0> + |0,1>) + O(a^3): the branches nearly
        # cancel, yet the guard holds only at the origin and the state keeps
        # its two one-photon amplitudes
        psi = entangled_coherent(amplitude, amplitude, np.pi, 20)
        probs = np.abs(psi.amplitudes.reshape(psi.shape)) ** 2
        assert probs[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_normalization(self):
        # the two-branch sum normalized by the closed-form factor has unit norm
        for eta, sigma, phi in [(0.4, 0.8, 0.9), (1.0, 0.2, np.pi), (0.7, 0.7, 0.0)]:
            cutoff = 40
            plus = np.kron(coherent_amplitudes(eta, cutoff), coherent_amplitudes(sigma, cutoff))
            minus = np.kron(coherent_amplitudes(-eta, cutoff), coherent_amplitudes(-sigma, cutoff))
            raw = plus + np.exp(1j * phi) * minus
            factor = 1.0 / np.sqrt(2.0 * (1.0 + np.cos(phi) * np.exp(-2 * (eta**2 + sigma**2))))
            assert abs(np.linalg.norm(factor * raw) - 1.0) < 1e-9

    def test_traced_peak_at_cutoff_1024(self):
        # one joint vector at cutoff 1024 is 16 MiB; the build held four of
        # them (65 MiB) before it summed the branches in place (33.0 MiB), and
        # the bound leaves no room for a third joint-sized temporary
        entangled_coherent(1.0, 0.8, 0.3, 16)
        tracemalloc.start()
        try:
            entangled_coherent(1.0, 0.8, 0.3, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * 2 ** 20

    def test_tail_guard(self):
        with pytest.raises(NumericGuardError):
            entangled_coherent(6.0, 0.1, 0.0, cutoff=40)

    @pytest.mark.parametrize("eta", [6.4, 1e200])
    def test_amplitude_beyond_cutoff_is_guard_error(self, eta):
        # |z|^2 >= cutoff is refused before any term is formed, so a huge
        # amplitude cannot overflow into an OverflowError or NaN amplitudes
        with pytest.raises(NumericGuardError, match="mean photon number"):
            entangled_coherent(eta, 0.1, 0.0, cutoff=40)


class TestCatLimit:
    """With one amplitude zero, the entangled coherent state is a
    single-mode cat state (|z> + e^(i phi)|-z>) times the vacuum."""

    @pytest.mark.parametrize("eta, sigma", [(0.8, 0.0), (0.0, 0.8)])
    @pytest.mark.parametrize("phi", [0.7, np.pi])
    def test_cat_times_vacuum_is_product(self, eta, sigma, phi):
        cutoff = 20
        psi = entangled_coherent(eta, sigma, phi, cutoff)
        assert is_product(psi)[0]
        amps = coherent_amplitudes(eta + sigma, cutoff)
        cat = StateVector(amps + np.exp(1j * phi) * _reflected(amps)).amplitudes
        vacuum = np.eye(cutoff)[0]
        factors = (cat, vacuum) if sigma == 0.0 else (vacuum, cat)
        assert np.allclose(psi.amplitudes, np.kron(*factors), atol=1e-15)

    @pytest.mark.parametrize("phi, parity", [(0.0, 0), (np.pi, 1)])
    def test_even_and_odd_cats_keep_one_photon_parity(self, phi, parity):
        psi = entangled_coherent(1.2, 0.0, phi, 30)
        mode_a = psi.amplitudes.reshape(psi.shape)[:, 0]
        assert np.max(np.abs(mode_a[1 - parity::2])) < 1e-15
        assert np.linalg.norm(mode_a[parity::2]) == pytest.approx(1.0, abs=1e-12)


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
            entangled_coherent(0.8, 0.6, 0.7, 20),
            entangled_coherent(0.8, 0.0, 0.7, 20),  # a cat times the vacuum
        ]
        for psi in catalog:
            flag, _ = is_product(psi)
            assert flag == (schmidt_rank_bruteforce(psi) == 1)
