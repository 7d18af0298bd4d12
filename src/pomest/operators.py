"""Dense complex linear algebra over finite Hilbert spaces.

Kets, Hermitian operators and density operators are thin immutable wrappers
around numpy arrays, validated on construction.  An operator or a state may
also hold a (..., d, d) stack of matrices, validated matrix by matrix in one
pass; one matrix is the stack with no leading axis.  All functions here are
pure; instances are safe to share between threads.
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
    """The matrix, or the (..., d, d) stack of them, as a complex array, rejected unless square
    with finite entries; the first bad entry is named by its index."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        at = tuple(np.argwhere(~np.isfinite(mat))[0])
        raise ValueError(f"matrix entry {''.join(f'[{i}]' for i in at)} is {mat[at]}, not finite")
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

    def __repr__(self):
        return f"Ket(dim={self.dim})"


class HermitianOperator:
    """Hermitian matrix representing an observable.

    The stored matrix is symmetrized as (A + A†)/2.  If the input deviates
    from Hermiticity by more than 1e-8 (relative to its largest entry),
    construction fails: such deviations indicate a formula bug in the
    caller, not roundoff.  The error reads the worst matrix of a stack.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        mat = _finite_square(matrix)
        scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
        dev = np.abs(mat - mat.conj().mT).max(axis=(-2, -1)) / 2
        dev, scale = (x.flat[np.argmax(dev / scale)] for x in (dev, scale))  # the worst matrix
        if dev > 1e-8 * scale:
            raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e} (tol 1.0e-08 x {scale:.3e})")
        object.__setattr__(self, "dim", mat.shape[-1])
        object.__setattr__(self, "matrix", _freeze((mat + mat.conj().mT) / 2))

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
        _one_matrix("expectation", self, rho)
        return float(np.real(np.trace(rho.matrix @ self.matrix)))

    def variance(self, rho: "DensityOperator") -> float:
        _check_dims(self.dim, rho.dim)
        _one_matrix("variance", self, rho)
        m = self.expectation(rho)
        m2 = float(np.real(np.trace(rho.matrix @ self.matrix @ self.matrix)))
        return max(m2 - m * m, 0.0)

    def norm(self) -> float:
        """Spectral norm, matrix by matrix for a stack."""
        return np.abs(np.linalg.eigvalsh(self.matrix)).max(axis=-1)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class DensityOperator:
    """Positive unit-trace matrix describing a (possibly mixed) state: Hermitian within
    1e-12, trace 1 within 1e-10, and no eigenvalue below -1e-10, the slack that
    grid-discretized constructions accumulate.  Each matrix of a stack is judged
    alone, by one stacked ``eigvalsh``, and an error reads the worst of them."""

    __slots__ = ("dim", "matrix", "_factor")

    def __init__(self, matrix):
        mat = _finite_square(matrix)
        scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
        if np.any(np.abs(mat - mat.conj().mT).max(axis=(-2, -1)) / 2 > 1e-12 * scale):
            raise HermiticityError("density matrix is not Hermitian within 1e-12")
        mat = (mat + mat.conj().mT) / 2
        tr = np.real(np.trace(mat, axis1=-2, axis2=-1))
        tr = tr.flat[np.argmax(np.abs(tr - 1.0))]
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace is {tr!r}, expected 1 within 1.0e-10")
        lo = np.linalg.eigvalsh(mat)[..., 0].min()
        if lo < -1e-10:
            raise ValueError(f"smallest eigenvalue {lo:.3e} below -1.0e-10")
        object.__setattr__(self, "dim", mat.shape[-1])
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "_factor", None)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def factor(self) -> np.ndarray:
        """Columns C with matrix = C C†: the factor the state was built from, or
        else its pivoted Cholesky factor, formed on first read and kept.  A stack
        of states has a factor only if it was built from one."""
        if self._factor is None and self.matrix.ndim > 2:
            raise ValueError("a stack of states has a factor only when built by from_factor")
        if self._factor is None:
            object.__setattr__(self, "_factor", _freeze(_cholesky_factor(self.matrix)))
        return self._factor

    @classmethod
    def from_factor(cls, c) -> "DensityOperator":
        """The state C C†, validated as any matrix is, with C kept as its factor; a
        (..., d, m) stack of factors gives the stack of states."""
        rho = cls(np.asarray(c) @ np.conj(c).mT)
        object.__setattr__(rho, "_factor", _freeze(np.array(c, dtype=complex)))
        return rho

    @classmethod
    def maximally_mixed(cls, dim) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    def purity(self) -> float:
        _one_matrix("purity", self)
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def _cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Columns C with m = C C† for a positive semidefinite m, by pivoted Cholesky
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).

    Row i is live while its remaining Schur diagonal exceeds 1e-10 of its own
    m_ii; each step pivots the largest live diagonal, and the factor stops when
    no row is live, after at most dim steps.  This relative stop keeps the
    small populations of a thermal state's tail, which an absolute one drops,
    while a pure state still factors to one column.
    """
    d = len(m)
    c, diag, piv = np.zeros((d, d), complex), np.real(np.diagonal(m)).copy(), np.arange(d)
    floor = 1e-10 * diag
    for k in range(d):
        score = np.where(diag[k:] > floor[k:], diag[k:], -np.inf)
        j = k + int(np.argmax(score))  # the first of equal maxima
        if score[j - k] == -np.inf:  # no live row
            return c[np.argsort(piv), :k]
        if j != k:  # the pivot to row k; rows below k are not yet pivoted, nor past column k
            for x in (piv, diag, floor):
                x[k], x[j] = x[j], x[k]
            c[k, :k], c[j, :k] = c[j, :k].copy(), c[k, :k].copy()
        c[k, k] = ckk = np.sqrt(diag[k])
        col = c[k + 1:, k]
        col[:] = (m[piv[k + 1:], piv[k]] - c[k + 1:, :k] @ c[k, :k].conj()) / ckk
        diag[k + 1:] -= col.real**2 + col.imag**2
    return c[np.argsort(piv)]


def _check_dims(*dims):
    if len(set(dims)) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def _one_matrix(method, *operands):
    """Reject a stack where ``method`` reads one scalar per operand."""
    for op in operands:
        if op.matrix.ndim > 2:
            raise ValueError(f"{method} reads one matrix, not a stack of shape {op.matrix.shape}")


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
