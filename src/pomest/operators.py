"""Dense complex linear algebra over finite Hilbert spaces.

Kets, Hermitian operators and density operators are thin immutable wrappers
around numpy arrays, validated on construction.  All functions here are pure;
instances are safe to share between threads.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "HermiticityError",
    "Ket",
    "HermitianOperator",
    "DensityOperator",
    "tensor",
    "partial_trace_ancilla",
    "spectral_apply",
    "matrix_to_json",
    "matrix_from_json",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of incompatible dimension."""


class HermiticityError(ValueError):
    """Matrix is too far from Hermitian to be symmetrized silently."""


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _finite_square(matrix) -> np.ndarray:
    """The matrix as a complex array, rejected unless square with finite entries."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ValueError(f"matrix entry [{i}][{j}] is {mat[i, j]}, not finite")
    return mat


class Ket:
    """Normalized state vector on a finite-dimensional Hilbert space.

    The amplitudes are explicitly normalized on construction; a zero vector
    is rejected.
    """

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amp)
        if norm < 1e-300:
            raise ValueError("cannot normalize a zero vector")
        object.__setattr__(self, "dim", amp.size)
        object.__setattr__(self, "amplitudes", _freeze(amp / norm))

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    @classmethod
    def basis(cls, dim, index):
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "Ket") -> complex:
        _check_dims(self.dim, other.dim)
        return complex(self.amplitudes.conj() @ other.amplitudes)

    def __repr__(self):
        return f"Ket(dim={self.dim})"


class HermitianOperator:
    """Hermitian matrix representing an observable.

    The stored matrix is symmetrized as (A + A†)/2.  If the input deviates
    from Hermiticity by more than ``herm_tol`` (relative to the largest
    entry), construction fails: such deviations indicate a formula bug in
    the caller, not roundoff.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, herm_tol=1e-8):
        mat = _finite_square(matrix)
        scale = max(1.0, np.abs(mat).max())
        dev = np.abs(mat - mat.conj().T).max() / 2
        if dev > herm_tol * scale:
            raise HermiticityError(
                f"matrix deviates from Hermitian by {dev:.3e} (tol {herm_tol:.1e} x {scale:.3e})"
            )
        object.__setattr__(self, "dim", mat.shape[0])
        object.__setattr__(self, "matrix", _freeze((mat + mat.conj().T) / 2))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim, dtype=complex))

    def eigensystem(self):
        """Eigenvalues (ascending) and unitary of eigenvectors as columns."""
        return np.linalg.eigh(self.matrix)

    def expectation(self, rho: "DensityOperator") -> float:
        _check_dims(self.dim, rho.dim)
        return float(np.real(np.trace(rho.matrix @ self.matrix)))

    def variance(self, rho: "DensityOperator") -> float:
        _check_dims(self.dim, rho.dim)
        m = self.expectation(rho)
        m2 = float(np.real(np.trace(rho.matrix @ self.matrix @ self.matrix)))
        return max(m2 - m * m, 0.0)

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.abs(np.linalg.eigvalsh(self.matrix)).max())

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class DensityOperator:
    """Positive unit-trace matrix describing a (possibly mixed) state.

    Parameters
    ----------
    matrix : array_like
        Complex square matrix; must be Hermitian within 1e-12, have unit
        trace within ``trace_tol`` and smallest eigenvalue above
        ``-positivity_tol``.
    positivity_tol : float
        Slack allowed below zero for the smallest eigenvalue.  Grid
        discretized constructions accumulate quadrature error, hence the
        default 1e-10 rather than 0.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, trace_tol=1e-10, positivity_tol=1e-10):
        mat = _finite_square(matrix)
        scale = max(1.0, np.abs(mat).max())
        if np.abs(mat - mat.conj().T).max() / 2 > 1e-12 * scale:
            raise HermiticityError("density matrix is not Hermitian within 1e-12")
        mat = (mat + mat.conj().T) / 2
        tr = np.real(np.trace(mat))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace is {tr!r}, expected 1 within {trace_tol:.1e}")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < -positivity_tol:
            raise ValueError(f"smallest eigenvalue {lo:.3e} below -{positivity_tol:.1e}")
        object.__setattr__(self, "dim", mat.shape[0])
        object.__setattr__(self, "matrix", _freeze(mat))

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityOperator":
        return ket.to_density()

    @classmethod
    def maximally_mixed(cls, dim) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def _check_dims(*dims):
    if len(set(dims)) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def tensor(a, b):
    """Tensor product of two same-kind objects, first index major.

    ``(a ⊗ b)`` acts blockwise with the ``a`` index major, i.e. the product
    basis is ordered ``|i_a, j_b> -> i_a * dim_b + j_b``.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix))
    raise TypeError(f"tensor requires two operands of the same kind, got {type(a)} and {type(b)}")


def partial_trace_ancilla(op: HermitianOperator, sys_dim: int, anc_state: DensityOperator) -> HermitianOperator:
    """Ancilla-weighted partial trace sum_s' <s'| rho' op |s'> on the system.

    ``op`` lives on system (x) ancilla with the system index major; the result
    is a ``sys_dim`` operator.  For an extension built by ``naimark_extend``
    this recovers the weighted measurement operators from the projections.
    """
    anc_dim = anc_state.dim
    if op.dim != sys_dim * anc_dim:
        raise DimensionMismatchError(
            f"operator dim {op.dim} is not sys_dim*anc_dim = {sys_dim}*{anc_dim}"
        )
    blocks = op.matrix.reshape(sys_dim, anc_dim, sys_dim, anc_dim)
    # sum_{s,s'} rho'[s', s] op[(i,s),(j,s')]
    reduced = np.einsum("ts,isjt->ij", anc_state.matrix, blocks)
    return HermitianOperator(reduced)


def spectral_apply(op: HermitianOperator, fn) -> HermitianOperator:
    """Apply a real function to a Hermitian operator through its spectrum."""
    vals, vecs = op.eigensystem()
    mapped = np.asarray([float(fn(v)) for v in vals])
    return HermitianOperator((vecs * mapped) @ vecs.conj().T)


def matrix_to_json(mat) -> list:
    """Row-major nested list with [re, im] pairs per entry."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def matrix_from_json(data) -> np.ndarray:
    """Square matrix from rows of [re, im] pairs; a ValueError names the first bad row or entry."""
    if not isinstance(data, list) or not data:
        raise ValueError(f"matrix must be a non-empty list of rows, not {data!r}")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data):
            raise ValueError(f"matrix row {i} is not a list of {len(data)} entries: a matrix is square")
        for j, z in enumerate(row):
            # abs(x) <= max is False for nan and inf, and exact for integers beyond float range
            if not (isinstance(z, list) and len(z) == 2
                    and all(isinstance(x, (int, float)) and abs(x) <= sys.float_info.max for x in z)):
                raise ValueError(f"matrix entry [{i}][{j}] must be an [re, im] pair of finite numbers, "
                                 f"not {z!r}")
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)
