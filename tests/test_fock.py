import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from pomest import fock
from pomest.pom import GridSpec


def test_quadrature_commutator():
    x1, x2 = fock.quadratures(25)
    comm = x1.matrix @ x2.matrix - x2.matrix @ x1.matrix
    # truncation corrupts only the top corner
    assert np.abs(comm[:20, :20] - 0.5j * np.eye(25)[:20, :20]).max() < 1e-12


def test_coherent_ket_poisson_amplitudes():
    alpha = 1.3 - 0.4j
    ket = fock.coherent_ket(30, alpha)
    n = np.arange(30)
    ref = np.exp(-abs(alpha) ** 2 / 2) * alpha**n * np.exp(-0.5 * gammaln(n + 1))
    assert np.abs(ket.amplitudes - ref).max() < 1e-12


def test_displacement_matches_generator_exponential():
    # closed-form matrix elements against the spectral exponential of the
    # truncated generator, in the regime where the latter is faithful
    for alpha in (0.4 + 0.2j, 1.1, -0.8j):
        d_closed = fock.displacement(60, alpha)
        d_expm = fock.displacement_expm(60, alpha)
        assert np.abs(d_closed[:25, :25] - d_expm[:25, :25]).max() < 1e-12


def _displacement_loop(dim, alpha):
    """Reference: the Cahill-Glauber closed form filled one element at a time."""
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    if x == 0:
        return np.eye(dim, dtype=complex)
    D = np.empty((dim, dim), dtype=complex)
    loggam = gammaln(np.arange(dim) + 1)
    for m in range(dim):
        for n in range(dim):
            if m >= n:
                k, lo, al = m - n, n, alpha
            else:
                k, lo, al = n - m, m, -np.conjugate(alpha)
            pref = np.exp(0.5 * (loggam[lo] - loggam[lo + k]) - x / 2)
            D[m, n] = pref * al**k * eval_genlaguerre(lo, k, x)
    return D


@pytest.mark.parametrize("dim", [20, 40])
def test_displacements_stack_equals_single_matrices(dim):
    # alpha = 0, both axes, and a spread of 41^2-grid points (many of which
    # round |alpha|^2 differently under np.abs than under abs)
    axes = [0, 1.3, -0.7, 2.25j, -0.15j]
    alphas = np.concatenate([axes, GridSpec(0j, 6.0, 41).points()[0][::53]])
    stack = fock.displacements(dim, alphas)
    assert stack.shape == (alphas.size, dim, dim)
    assert np.array_equal(stack, [fock.displacement(dim, a) for a in alphas])
    assert np.array_equal(stack, [_displacement_loop(dim, a) for a in alphas])


def test_displacements_match_generator_exponential():
    alphas = [0.4 + 0.2j, 1.1, -0.8j, 0.0]
    stack = fock.displacements(60, alphas)
    for d_closed, alpha in zip(stack, alphas):
        d_expm = fock.displacement_expm(60, alpha)
        assert np.abs(d_closed[:25, :25] - d_expm[:25, :25]).max() < 1e-12


def test_displacement_column_zero_is_coherent():
    alpha = 2.0 + 1.0j
    d = fock.displacement(40, alpha)
    assert np.abs(d[:, 0] - fock.coherent_amplitudes(40, alpha)[0]).max() < 1e-12


def test_displaced_number_state():
    # D(alpha)|1> from the closed form equals the generator-exponential route
    alpha = 0.7 - 0.3j
    dim = 60
    one = np.zeros(dim)
    one[1] = 1.0
    via_closed = fock.displacement(dim, alpha) @ one
    via_expm = fock.displacement_expm(dim, alpha) @ one
    assert np.abs(via_closed[:25] - via_expm[:25]).max() < 1e-12


def test_thermal_state_mean_photon():
    rho = fock.thermal_state(200, 2.5)
    n_op = fock.number_operator(200)
    assert n_op.expectation(rho) == pytest.approx(2.5, abs=1e-8)


def test_oscillator_operators():
    h = fock.oscillator_hamiltonian(10, hbar=2.0, omega=1.5)
    assert h.matrix[0, 0] == pytest.approx(1.5)  # hbar*omega/2
    x = fock.position_operator(4)
    assert x.matrix[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)
