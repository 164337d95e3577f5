"""50-digit references for the values the golden corpus pins.

Every formula here is written again from the physics, in mpmath at 50
significant digits, and nothing is imported from bellsim: a wrong sign or
rounding in a closed form, an oracle or the search cannot move its own
reference.  Settings are taken as the exact doubles a report prints.

Two-qubit values come from the state's amplitudes: the correlation matrix
T_ij = <psi|s_i (x) s_j|psi> (i, j over x, y, z) gives E(a, b) = a.T b for
Bloch vectors a and b, and Horodecki's CHSH maximum 2 sqrt(t1^2 + t2^2) from
its two largest singular values (Horodecki^3, PLA 200, 340 (1995)).
"""

import functools
import math

from mpmath import mp, mpf

mp.dps = 50

_PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))  # x, y, z

# two-qubit amplitudes over |00>, |01>, |10>, |11>, basis index 0 spin-up
BELL = {0: (1, 0, 0, 1), 1: (1, 0, 0, -1), 2: (0, 1, -1, 0), 3: (0, 1, 1, 0)}


def bell_amplitudes(index):
    return [mpf(c) / mp.sqrt(2) for c in BELL[index]]


def gisin_amplitudes(n):
    return [c / mp.sqrt(n) for c in (1, 1, 1, mp.sqrt(mpf(n) - 3))]


def r_amplitudes(r):
    r = mpf(r)
    return [c / mp.sqrt(1 + r * r) for c in (0, 1, r, 0)]


def correlation_matrix(amplitudes):
    """T_ij = <psi|s_i (x) s_j|psi>, i and j over (x, y, z)."""
    psi = [mp.mpc(c) for c in amplitudes]
    t = mp.matrix(3, 3)
    for i, si in enumerate(_PAULI):
        for j, sj in enumerate(_PAULI):
            total = mp.mpc(0)
            for a in range(2):
                for b in range(2):
                    for a2 in range(2):
                        for b2 in range(2):
                            total += (mp.conj(psi[2 * a + b]) * si[a][a2] * sj[b][b2]
                                      * psi[2 * a2 + b2])
            t[i, j] = total.real
    return t


def polar_vector(theta, alpha):
    """Bloch vector (x, y, z) of the polar observable at (theta, alpha)."""
    st = mp.sin(mpf(theta))
    return [st * mp.cos(mpf(alpha)), st * mp.sin(mpf(alpha)), mp.cos(mpf(theta))]


def phase_vector(a):
    """Bloch vector of the qubit phase flip e^(-ia)|0><1| + e^(ia)|1><0|."""
    return [mp.cos(mpf(a)), mp.sin(mpf(a)), mpf(0)]


def _chsh(e, a, a_p, b, b_p):
    return e(a, b) + e(a_p, b) + e(a, b_p) - e(a_p, b_p)


def two_qubit_chsh(t, a, a_p, b, b_p):
    """CHSH of four Bloch vectors on the state with correlation matrix t."""
    def e(x, y):
        return mp.fsum(x[i] * t[i, j] * y[j] for i in range(3) for j in range(3))
    return _chsh(e, a, a_p, b, b_p)


def phase_chsh(t, alpha, alpha_p, beta, beta_p):
    return two_qubit_chsh(t, *(phase_vector(x) for x in (alpha, alpha_p, beta, beta_p)))


def polar_chsh(t, theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """Parameter order (theta, theta', omega, omega', alpha, alpha', beta, beta')."""
    return two_qubit_chsh(t, polar_vector(theta, alpha), polar_vector(theta_p, alpha_p),
                          polar_vector(omega, beta), polar_vector(omega_p, beta_p))


def horodecki_max(t):
    """2 sqrt(t1^2 + t2^2), t1 >= t2 the two largest singular values of t."""
    eigenvalues = sorted(mp.eigsy(t.T * t)[0], reverse=True)
    return 2 * mp.sqrt(eigenvalues[0] + eigenvalues[1])


# spin-j singlet, one phase per (m, -m) pair and party setting

def spin_scale(j):
    return 2 / (2 * mpf(j) + 1)


def spin_chsh(j, alphas, alphas_p, betas, betas_p):
    """Each pair adds s (cos(a-b) + cos(a'-b) + cos(a-b') - cos(a'-b')),
    s = 2/(2j+1), negated for half-integer j; integer j adds s for |0>."""
    s = spin_scale(j)
    combo = mp.fsum(_chsh(lambda x, y: mp.cos(mpf(x) - mpf(y)), *k)
                    for k in zip(alphas, alphas_p, betas, betas_p))
    if int(2 * j) % 2:
        return -s * combo
    return s * (1 + combo)


def spin_max(j):
    """2 sqrt(2) for half-integer j, s (1 + 2j sqrt(2)) for integer j."""
    if int(2 * j) % 2:
        return 2 * mp.sqrt(2)
    return spin_scale(j) * (1 + 2 * mpf(j) * mp.sqrt(2))


# entangled coherent and two-mode squeezed states, even/odd phase flips

def coherent_series(x):
    """Sum of x^(4n+1)/sqrt((2n)!(2n+1)!), to 50 digits."""
    x, total, n = mpf(x), mpf(0), 0
    while True:
        term = x ** (4 * n + 1) / mp.sqrt(mp.factorial(2 * n) * mp.factorial(2 * n + 1))
        total += term
        if abs(term) < mpf(10) ** -60 * max(abs(total), 1):
            return total
        n += 1


@functools.lru_cache
def coherent_weight(eta, sigma, phi):
    """4 Omega Delta, Omega = e^(-s)/(1 + cos(phi) e^(-2s)), s = eta^2 + sigma^2."""
    eta, sigma, phi = mpf(eta), mpf(sigma), mpf(phi)
    s = eta * eta + sigma * sigma
    omega = mp.exp(-s) / (1 + mp.cos(phi) * mp.exp(-2 * s))
    return 4 * omega * coherent_series(eta) * coherent_series(sigma)


def coherent_chsh(eta, sigma, phi, alpha, alpha_p, beta, beta_p):
    cp = mp.cos(mpf(phi))

    def e(x, y):
        x, y = mpf(x), mpf(y)
        return mp.cos(x) * mp.cos(y) - cp * mp.sin(x) * mp.sin(y)

    return coherent_weight(eta, sigma, phi) * _chsh(e, alpha, alpha_p, beta, beta_p)


def coherent_max(eta, sigma, phi):
    return coherent_weight(eta, sigma, phi) * 2 * mp.sqrt(1 + mp.cos(mpf(phi)) ** 2)


def squeezing_weight(lam):
    lam = mpf(lam)
    return 2 * lam / (1 + lam * lam)


def squeezed_chsh(lam, alpha, alpha_p, beta, beta_p):
    return squeezing_weight(lam) * _chsh(lambda x, y: mp.cos(mpf(x) + mpf(y)),
                                         alpha, alpha_p, beta, beta_p)


def squeezed_max(lam):
    return squeezing_weight(lam) * 2 * mp.sqrt(2)


# Mermin forms on GHZ states

def mermin3(a, a_p, b, b_p, c, c_p):
    """cos(a'+b+c) + cos(a+b'+c) + cos(a+b+c') - cos(a'+b'+c')."""
    a, a_p, b, b_p, c, c_p = map(mpf, (a, a_p, b, b_p, c, c_p))
    return (mp.cos(a_p + b + c) + mp.cos(a + b_p + c) + mp.cos(a + b + c_p)
            - mp.cos(a_p + b_p + c_p))


# sign of an order-4 product term by its number of primed settings
M4_SIGNS = (-1, 1, 1, -1, -1)


def mermin4(*angles):
    """Minus half the signed sum of cos(sum of one setting per party) over
    the 16 choices; angles in the order (a, a', b, b', c, c', d, d')."""
    total = mpf(0)
    for bits in range(16):
        primed = [(bits >> (3 - k)) & 1 for k in range(4)]
        total += M4_SIGNS[sum(primed)] * mp.cos(
            mp.fsum(mpf(angles[2 * k + p]) for k, p in enumerate(primed)))
    return -total / 2


def mermin_max(n):
    """2^((n+1)/2), the largest Mermin value on n qubits."""
    return mpf(2) ** (mpf(n + 1) / 2)


def ulps(value, reference):
    """(value - reference) in units of the double spacing at |reference|."""
    ref = float(reference)
    return float((mpf(value) - reference) / mpf(math.ulp(ref)))
