import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
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


def test_log_factorial_table_matches_gammaln():
    # log 2 < 1 enters an exponent, so its ulp is taken on the scale of 1
    ref = gammaln(np.arange(2000) + 1)
    table = fock._log_factorials(2000)
    assert np.array_equal(table[:2], [0.0, 0.0])
    assert np.all(np.abs(table - ref) <= 2 * np.spacing(np.maximum(ref, 1.0)))


def _coherent_reference(dim, alphas):
    """The closed form e^{-|a|^2/2} a^n / sqrt(n!) evaluated in long double.

    log n! is the double-precision table the kernel also reads; its
    rounding, about 1e-12 of the amplitude near n = 1600, is common to both
    sides and not what the comparison checks.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=complex)).astype(np.clongdouble)
    n = np.arange(dim)
    r = np.abs(a)
    unit = np.divide(a, r, out=np.zeros_like(a), where=r > 0)
    log_r = np.log(r, out=np.zeros_like(r), where=r > 0)
    log_fact = fock._log_factorials(dim).astype(np.longdouble)
    log_mag = -r[:, None] ** 2 / 2 + n * log_r[:, None] - log_fact / 2
    return np.exp(log_mag) * unit[:, None] ** n


@pytest.mark.parametrize("grid, dim", [(GridSpec(0j, 7.0, 160), 40), (GridSpec(0j, 9.0, 140), 60)])
def test_coherent_amplitudes_match_long_double_reference(grid, dim):
    alphas, _ = grid.points()
    err = np.abs(fock.coherent_amplitudes(dim, alphas) - _coherent_reference(dim, alphas))
    assert err.max() <= 1.5e-14


def test_coherent_amplitudes_zero_row_is_the_exact_vacuum():
    amp = fock.coherent_amplitudes(12, [0.5, 0j, -1j])
    assert np.array_equal(amp[1], fock.vacuum_ket(12).amplitudes)


@pytest.mark.parametrize("alpha", [40, 30 + 30j, -25j])
def test_coherent_amplitudes_far_from_the_origin(alpha):
    # e^{-|a|^2/2} underflows to 0 here, so a recurrence started from it fails
    dim = 1700
    amp = fock.coherent_amplitudes(dim, [alpha])[0]
    ref = _coherent_reference(dim, [alpha])[0]
    assert np.all(np.isfinite(amp))
    big = np.abs(ref) > 1e-8
    assert big.sum() > 200
    assert (np.abs(amp - ref)[big] / np.abs(ref[big])).max() <= 1e-12


def _coherent_one_expression(dim, alphas):
    """The kernel with its log-magnitudes formed in a single expression."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    n = np.arange(dim)
    mag = np.abs(alphas)
    nonzero = mag > 0
    amp = np.empty((alphas.size, dim), dtype=complex)
    amp[:, 0] = 1.0
    amp[:, 1:] = np.where(nonzero, np.exp(1j * np.angle(alphas)), 0)[:, None]
    np.cumprod(amp, axis=1, out=amp)
    logmag = np.log(mag, out=np.zeros_like(mag), where=nonzero)
    log_fact = fock._log_factorials(dim)
    amp *= np.exp(-0.5 * mag[:, None] ** 2 + n * logmag[:, None] - 0.5 * log_fact)
    return amp


@pytest.mark.parametrize("dim, alphas", [
    (40, GridSpec(0j, 7.0, 160).points()[0]),
    (60, GridSpec(0j, 9.0, 140).points()[0]),
    (1700, [40, 30 + 30j, -25j]),
    # K below one chunk of rows, a multiple of it, and with a remainder
    *((40, GridSpec(0j, 7.0, n).points()[0]) for n in (21, 64, 112)),
])
def test_coherent_log_magnitudes_in_place_are_bit_identical(dim, alphas):
    assert np.array_equal(fock.coherent_amplitudes(dim, alphas), _coherent_one_expression(dim, alphas))


@given(dim=st.integers(1, 80), r=st.floats(0, 12), theta=st.floats(-np.pi, np.pi))
@example(dim=2, r=2.2250738585e-313, theta=0.0)  # subnormal |alpha|: alpha / |alpha| is nan there
def test_coherent_amplitudes_property(dim, r, theta):
    alpha = r * complex(np.cos(theta), np.sin(theta))
    amp = fock.coherent_amplitudes(dim, [alpha])[0]
    assert np.abs(amp - _coherent_reference(dim, [alpha])[0]).max() <= 1.5e-14
    # the running phase product and the rounded log-magnitudes leave a
    # relative error of order n eps on |amp_n|^2, so the bound scales with dim
    assert np.sum(np.abs(amp) ** 2) <= 1 + 2 * dim * np.finfo(float).eps


def _displacement_expm(dim, alpha):
    """Displacement via the spectral exponential of the truncated generator.

    Only faithful while (|alpha| + 4)^2 stays below dim; a cross-check route
    for the closed-form matrix elements.
    """
    a = fock.annihilation(dim)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    vals, vecs = np.linalg.eigh(1j * gen)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def test_displacement_matches_generator_exponential():
    # closed-form matrix elements against the spectral exponential of the
    # truncated generator, in the regime where the latter is faithful
    for alpha in (0.4 + 0.2j, 1.1, -0.8j):
        d_closed = fock.displacement(60, alpha)
        d_expm = _displacement_expm(60, alpha)
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


def _displacement_mpmath(dim, alpha):
    """Reference: the closed form at 30 digits, with L_j^(k) from the
    three-term recurrence (j+1) L_{j+1} = (2j+1+k-x) L_j - (j+k) L_{j-1}."""
    with mpmath.workdps(30):
        a = mpmath.mpc(alpha.real, alpha.imag)
        x = a.real**2 + a.imag**2
        fac = [mpmath.factorial(i) for i in range(dim)]
        D = np.empty((dim, dim), dtype=complex)
        below = above = mpmath.exp(-x / 2)  # e^{-x/2} a^k and e^{-x/2} (-a*)^k
        for k in range(dim):
            lag = [mpmath.mpf(1), 1 + k - x]
            for j in range(1, dim - k - 1):
                lag.append(((2 * j + 1 + k - x) * lag[j] - (j + k) * lag[j - 1]) / (j + 1))
            for lo in range(dim - k):
                v = mpmath.sqrt(fac[lo] / fac[lo + k]) * lag[lo]
                D[lo + k, lo] = complex(v * below)
                D[lo, lo + k] = complex(v * above)
            below *= a
            above *= -mpmath.conj(a)
    return D


@pytest.mark.parametrize("dim", [20, 40])
def test_displacements_stack_equals_single_matrices(dim):
    # alpha = 0, both axes, and a spread of 41^2-grid points (many of which
    # round |alpha|^2 differently under np.abs than under abs)
    axes = [0, 1.3, -0.7, 2.25j, -0.15j]
    alphas = np.concatenate([axes, GridSpec(0j, 6.0, 41).points()[0][::53]])
    alphas = alphas[:: dim // 20]  # half of them at dim 40, where the references are slow
    stack = fock.displacement_columns(dim, alphas, dim)
    assert stack.shape == (alphas.size, dim, dim)
    assert np.array_equal(stack, [fock.displacement(dim, a) for a in alphas])
    ref = np.array([_displacement_mpmath(dim, complex(a)) for a in alphas])
    loop = np.array([_displacement_loop(dim, a) for a in alphas])
    assert np.abs(stack - ref).max() <= np.abs(loop - ref).max()


@pytest.mark.parametrize("dim", [20, 40])
def test_displacement_columns_are_the_leading_columns_bit_for_bit(dim):
    alphas = np.concatenate([[0, 1.3, -0.7, 2.25j], GridSpec(0j, 6.0, 41).points()[0][::37]])
    full = fock.displacement_columns(dim, alphas, dim)
    for columns in (1, 2, 3, dim // 2, dim):
        assert np.array_equal(fock.displacement_columns(dim, alphas, columns), full[:, :, :columns])


def _displacement_columns_power(dim, alphas, columns):
    """Reference: ``displacement_columns`` with a complex power a**k for every entry."""
    alphas = np.asarray(alphas, dtype=complex)[:, None, None]
    x = np.hypot(alphas.real, alphas.imag) ** 2
    m, n = np.indices((dim, columns))
    k, lo = np.abs(m - n), np.minimum(m, n)
    p = np.ones((alphas.shape[0], dim, columns))
    order = np.arange(dim)
    d = -x[:, 0] / (order + 1)
    for j in range(1, columns):
        p[:, :, j] = p[:, :, j - 1] + d
        d = -x[:, 0] / (j + order + 1) * p[:, :, j] + j / (j + order + 1) * d
    logf = fock._log_factorials(dim)
    al = np.where(m >= n, alphas, -np.conjugate(alphas))
    D = np.exp(0.5 * (logf[lo + k] - logf[lo]) - logf[k] - x / 2) * al**k * p[:, k, lo]
    D[x[:, 0, 0] == 0] = np.eye(dim, columns)
    return D


@given(dim=st.integers(2, 40), data=st.data(),
       polar=st.lists(st.tuples(st.floats(0, 10), st.floats(-np.pi, np.pi)), min_size=1, max_size=4))
def test_displacement_power_table_matches_the_power_per_entry(dim, data, polar):
    # the running products of a and -a* against a complex ** for every entry: the
    # Laguerre values are the same, so only the powers' rounding may differ; entries
    # below the normal range (tiny |a| to a high power) carry no relative accuracy
    columns = data.draw(st.integers(1, dim))
    alphas = [r * complex(np.cos(t), np.sin(t)) for r, t in polar]
    got = fock.displacement_columns(dim, alphas, columns)
    ref = _displacement_columns_power(dim, alphas, columns)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref) + np.finfo(float).tiny)


def test_displacements_match_generator_exponential():
    alphas = [0.4 + 0.2j, 1.1, -0.8j, 0.0]
    stack = fock.displacement_columns(60, alphas, 60)
    for d_closed, alpha in zip(stack, alphas):
        d_expm = _displacement_expm(60, alpha)
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
    via_expm = _displacement_expm(dim, alpha) @ one
    assert np.abs(via_closed[:25] - via_expm[:25]).max() < 1e-12


def test_thermal_state_mean_photon():
    rho = fock.thermal_state(200, 2.5)
    n_op = fock.number_operator(200)
    assert n_op.expectation(rho) == pytest.approx(2.5, abs=1e-8)


def test_thermal_state_at_zero_mean_is_the_vacuum():
    np.testing.assert_array_equal(fock.thermal_state(6, 0).matrix, fock.vacuum_ket(6).to_density().matrix)


def test_oscillator_operators():
    # units hbar = m = omega = 1: H = n + 1/2 and X = (a + a†)/sqrt(2)
    h = fock.oscillator_hamiltonian(10)
    assert h.matrix[0, 0] == 0.5
    np.testing.assert_array_equal(h.matrix, np.diag(np.arange(10) + 0.5))
    x = fock.position_operator(4)
    assert x.matrix[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    np.testing.assert_array_equal(x.matrix, (fock.annihilation(4) + fock.annihilation(4).T) * np.sqrt(0.5))
