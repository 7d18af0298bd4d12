"""Truncated Fock-space numerics for a single bosonic mode.

Conventions: quadratures X1 = (a + a†)/2, X2 = (a - a†)/2i, so
[X1, X2] = i/2 and the vacuum has Var X1 = Var X2 = 1/4.  Coherent kets and
displacement matrices are built from the exact infinite-dimensional matrix
elements truncated to the requested dimension; this stays faithful for
amplitudes well beyond where exponentiating the truncated generator breaks
down.
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .operators import DensityOperator, HermitianOperator, Ket

__all__ = [
    "annihilation",
    "number_operator",
    "quadratures",
    "vacuum_ket",
    "number_ket",
    "coherent_ket",
    "coherent_amplitudes",
    "fock_superposition",
    "displacement",
    "displacements",
    "displacement_expm",
    "thermal_state",
    "oscillator_hamiltonian",
    "position_operator",
]


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

    Row k holds e^{-|a|^2/2} a^n / sqrt(n!) for alpha = alphas[k].
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    n = np.arange(dim)
    mag = np.abs(alphas)
    # log-domain magnitudes; zero amplitudes patched in afterwards
    logmag = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), 0.0)
    log_amp = -0.5 * mag[:, None] ** 2 + n[None, :] * logmag[:, None] - 0.5 * gammaln(n + 1)[None, :]
    phase = np.exp(1j * n[None, :] * np.angle(alphas)[:, None])
    amp = np.exp(log_amp) * phase
    amp[mag == 0] = 0.0
    amp[mag == 0, 0] = 1.0
    return amp


def coherent_ket(dim: int, alpha: complex) -> Ket:
    return Ket(coherent_amplitudes(dim, alpha)[0])


def fock_superposition(dim: int, coefficients) -> Ket:
    """Normalized superposition of the lowest Fock states."""
    coeff = np.asarray(coefficients, dtype=complex)
    amp = np.zeros(dim, dtype=complex)
    amp[: coeff.size] = coeff
    return Ket(amp)


def displacements(dim: int, alphas) -> np.ndarray:
    """Truncated exact displacement matrices exp(a a† - a* a), shape (K, dim, dim).

    Cahill-Glauber closed form: [m, n] = sqrt(n!/m!) e^{-|a|^2/2} a^(m-n) L_n^(m-n)(|a|^2)
    for m >= n, and the same with m, n swapped and -a* for a above the diagonal.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))[:, None, None]
    # hypot rounds |a| as Python's abs(complex) does; np.abs differs in the last bit
    x = np.hypot(alphas.real, alphas.imag) ** 2
    m, n = np.indices((dim, dim))
    k, lo = np.abs(m - n), np.minimum(m, n)
    loggam = gammaln(np.arange(dim) + 1)
    al = np.where(m >= n, alphas, -np.conjugate(alphas))
    pref = np.exp(0.5 * (loggam[lo] - loggam[lo + k]) - x / 2)
    D = pref * al**k * eval_genlaguerre(lo, k, x)
    D[x[:, 0, 0] == 0] = np.eye(dim)
    return D


def displacement(dim: int, alpha: complex) -> np.ndarray:
    """Truncation of the exact displacement matrix D(alpha); see ``displacements``."""
    return displacements(dim, [alpha])[0]


def displacement_expm(dim: int, alpha: complex) -> np.ndarray:
    """Displacement via the spectral exponential of the truncated generator.

    Only faithful while (|alpha| + 4)^2 stays below dim; kept as a
    cross-check route for the closed-form matrix elements.
    """
    a = annihilation(dim)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    herm = 1j * gen
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def thermal_state(dim: int, mean_n: float) -> DensityOperator:
    """Bose-Einstein diagonal state with the given mean photon number."""
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
    return DensityOperator(np.diag(probs).astype(complex))


def oscillator_hamiltonian(dim: int, hbar=1.0, mass=1.0, omega=1.0) -> HermitianOperator:
    return HermitianOperator(np.diag(hbar * omega * (np.arange(dim) + 0.5)).astype(complex))


def position_operator(dim: int, hbar=1.0, mass=1.0, omega=1.0) -> HermitianOperator:
    a = annihilation(dim)
    return HermitianOperator(np.sqrt(hbar / (2 * mass * omega)) * (a + a.conj().T))
