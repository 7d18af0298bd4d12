"""Truncated Fock-space numerics for a single bosonic mode.

Conventions: quadratures X1 = (a + a†)/2, X2 = (a - a†)/2i, so
[X1, X2] = i/2 and the vacuum has Var X1 = Var X2 = 1/4.  Coherent kets and
displacement matrices are built from the exact infinite-dimensional matrix
elements truncated to the requested dimension; this stays faithful for
amplitudes well beyond where exponentiating the truncated generator breaks
down.

log n! is a table of ``math.lgamma(n + 1)``, within 2.5e-12 of the exact
value for n < 2000.  L_j^(k)(x) in the displacement elements is C(j+k, j) p_j
from the recurrence p_0 = 1, d_1 = -x/(k+1), p_j = p_{j-1} + d_j,
d_{j+1} = -x/(j+k+1) p_j + j/(j+k+1) d_j, run over every order k at once.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import DensityOperator, HermitianOperator, Ket

__all__ = [
    "annihilation",
    "number_operator",
    "quadratures",
    "vacuum_ket",
    "number_ket",
    "coherent_ket",
    "coherent_amplitudes",
    "displacement",
    "displacement_columns",
    "thermal_state",
    "oscillator_hamiltonian",
    "position_operator",
]


_ROW_CHUNK = 1024  # rows per chunk of a pass over (K, d) grid kets: bounds its temporaries to _ROW_CHUNK d


def _row_chunks(n: int):
    """Slices of ``_ROW_CHUNK`` consecutive rows covering n rows, in order."""
    return (slice(i, i + _ROW_CHUNK) for i in range(0, n, _ROW_CHUNK))


def _log_factorials(n: int) -> np.ndarray:
    """The table log k! for k = 0..n-1."""
    return np.array([math.lgamma(k + 1) for k in range(n)])


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def number_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.diag(np.arange(dim)).astype(complex))


def quadratures(dim: int) -> tuple[HermitianOperator, HermitianOperator]:
    """The pair (X1, X2) with commutator i/2."""
    a = annihilation(dim)
    x1 = HermitianOperator((a + a.conj().T) / 2)
    x2 = HermitianOperator((a - a.conj().T) / 2j)
    return x1, x2


def vacuum_ket(dim: int) -> Ket:
    return Ket.basis(dim, 0)


def number_ket(dim: int, n: int) -> Ket:
    if not 0 <= n < dim:
        raise ValueError(f"number state {n} does not fit in dimension {dim}")
    return Ket.basis(dim, n)


def coherent_amplitudes(dim: int, alphas) -> np.ndarray:
    """Truncated coherent-state amplitudes for an array of alphas, shape (K, dim).

    Row k holds e^{-|a|^2/2} a^n / sqrt(n!) for alpha = alphas[k].  The
    magnitude is exp(-|a|^2/2 + n log|a| - log(n!)/2), which neither
    overflows nor underflows where the amplitude is representable; the phase
    e^{i n arg a} is a running product along n, scaled by the magnitude in
    place, ``_ROW_CHUNK`` rows at a time.  The plain recurrence
    a_n = a_{n-1} a / sqrt(n) from e^{-|a|^2/2} is not used: its start
    underflows to 0 beyond |a| of about 37.6.  Rows with a = 0 come out as the
    exact vacuum.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    n = np.arange(dim)
    mag = np.abs(alphas)
    nonzero = mag > 0
    amp = np.empty((alphas.size, dim), dtype=complex)
    amp[:, 0] = 1.0
    amp[:, 1:] = np.where(nonzero, np.exp(1j * np.angle(alphas)), 0)[:, None]
    np.cumprod(amp, axis=1, out=amp)
    logmag = np.log(mag, out=np.zeros_like(mag), where=nonzero)
    half_logf = 0.5 * _log_factorials(dim)
    for c in _row_chunks(alphas.size):
        logamp = np.outer(logmag[c], n)
        logamp += -0.5 * mag[c, None] ** 2
        logamp -= half_logf
        amp[c] *= np.exp(logamp, out=logamp)
    return amp


def coherent_ket(dim: int, alpha: complex) -> Ket:
    return Ket(coherent_amplitudes(dim, alpha)[0])


def displacement_columns(dim: int, alphas, columns: int) -> np.ndarray:
    """Leading ``columns`` columns of truncated exact displacements, shape (K, dim, columns).

    Cahill-Glauber closed form: [m, n] = sqrt(n!/m!) e^{-|a|^2/2} a^(m-n) L_n^(m-n)(|a|^2)
    for m >= n, and the same with m, n swapped and -a* for a above the diagonal.
    Column n needs Laguerre degrees up to n only, so the recurrence stops there.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))[:, None, None]
    # hypot rounds |a| as Python's abs(complex) does; np.abs differs in the last bit
    x = np.hypot(alphas.real, alphas.imag) ** 2
    m, n = np.indices((dim, columns))
    k, lo = np.abs(m - n), np.minimum(m, n)
    p = np.ones((alphas.shape[0], dim, columns))  # p[:, k, j]; see the module docstring
    order = np.arange(dim)
    d = -x[:, 0] / (order + 1)
    for j in range(1, columns):
        p[:, :, j] = p[:, :, j - 1] + d
        d = -x[:, 0] / (j + order + 1) * p[:, :, j] + j / (j + order + 1) * d
    logf = _log_factorials(dim)
    # sqrt(lo!/(lo+k)!) C(lo+k, lo) = sqrt((lo+k)!/lo!) / k!
    pref = np.exp(0.5 * (logf[lo + k] - logf[lo]) - logf[k] - x / 2)
    powers = np.ones((alphas.shape[0], 2, dim), dtype=complex)  # a^k and (-a*)^k by running products
    powers[..., 1:] = np.concatenate([alphas, -np.conjugate(alphas)], axis=1)
    np.cumprod(powers, axis=-1, out=powers)
    D = pref * powers[:, (m < n).astype(int), k] * p[:, k, lo]
    D[x[:, 0, 0] == 0] = np.eye(dim, columns)
    return D


def displacement(dim: int, alpha: complex) -> np.ndarray:
    """Truncation of the exact displacement matrix D(alpha); see ``displacement_columns``."""
    return displacement_columns(dim, [alpha], dim)[0]


def thermal_state(dim: int, mean_n: float) -> DensityOperator:
    """Bose-Einstein diagonal state with the given mean photon number, built from its factor."""
    if mean_n < 0:
        raise ValueError("mean photon number must be nonnegative")
    if mean_n == 0:
        probs = np.zeros(dim)
        probs[0] = 1.0
    else:
        n = np.arange(dim)
        logp = n * np.log(mean_n / (1 + mean_n)) - np.log(1 + mean_n)
        probs = np.exp(logp)
        probs /= probs.sum()  # renormalize the truncated tail
    return DensityOperator.from_factor(np.diag(np.sqrt(probs))[:, probs > 0])


def oscillator_hamiltonian(dim: int) -> HermitianOperator:
    """H = n + 1/2, the oscillator energy in units hbar = omega = 1."""
    return HermitianOperator(np.diag(np.arange(dim) + 0.5).astype(complex))


def position_operator(dim: int) -> HermitianOperator:
    """X = (a + a†)/sqrt(2), the oscillator position in units hbar = m = omega = 1."""
    a = annihilation(dim)
    return HermitianOperator(np.sqrt(0.5) * (a + a.conj().T))
