"""Probability operator measures: generic, grid-discretized and named families.

A POM is a finite family of labeled positive operators M_k with quadrature
weights w_k such that sum_k w_k M_k = 1.  Discrete POMs carry unit weights;
POMs obtained by discretizing a continuous outcome set (phase-space grids)
carry the cell measure in the weight and are renormalized symmetrically,
M_k -> T^{-1/2} M_k T^{-1/2} with T = sum w_k M_k, which preserves positivity
exactly and makes completeness hold by construction.  The magnitude of that
correction is kept on the Pom for reporting.

Rank-one families (coherent-state grids, projective measurements) store the
kets only; outcome matrices are materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from . import fock
from .operators import (
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    Ket,
    matrix_from_json,
    matrix_to_json,
    spectral_apply,
)

__all__ = [
    "GridSpec",
    "Pom",
    "ValidationReport",
    "CompletenessError",
    "TruncationTailError",
    "CompletionError",
    "validate",
    "coherent_pom",
    "imageband_pom",
    "imageband_conjugate",
    "inefficient_photon_pom",
    "spin_pom",
    "projective_pom",
    "identity_pom",
    "trine_pom",
    "tetrahedral_pom",
    "NaimarkExtension",
    "naimark_extend",
    "pom_to_json",
    "pom_from_json",
]


_GRID_CHUNK = 256  # grid points per displacement batch: bounds imageband_pom's temporaries


class CompletenessError(ValueError):
    """Grid too small: the renormalization correction is no longer a correction."""


class TruncationTailError(ValueError):
    """Fock truncation too small for the requested outcome range."""


class CompletionError(RuntimeError):
    """Gram-Schmidt completion of the dilation isometry degenerated."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform square phase-space grid: center, half-width and points per axis."""

    center: complex = 0j
    radius: float = 6.0
    points_per_axis: int = 81

    def axes(self):
        xs = np.linspace(-self.radius, self.radius, self.points_per_axis)
        return xs + self.center.real, xs + self.center.imag

    def points(self):
        """Flattened grid points (first axis major) and the cell area."""
        ax1, ax2 = self.axes()
        step = ax1[1] - ax1[0]
        A1, A2 = np.meshgrid(ax1, ax2, indexing="ij")
        return (A1 + 1j * A2).ravel(), step * step

    @property
    def step(self) -> float:
        return 2 * self.radius / (self.points_per_axis - 1)

    def to_json(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "points_per_axis": self.points_per_axis,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridSpec":
        re, im = data["center"]
        return cls(complex(re, im), float(data["radius"]), int(data["points_per_axis"]))


class Pom:
    """Finite family of weighted positive operators summing to the identity.

    Either ``operators`` (K, d, d) or ``kets`` (K, d) must be given; a kets
    array means every outcome operator is the rank-one projector onto the
    (not necessarily normalized) ket.
    """

    def __init__(self, dim, values, weights, operators=None, kets=None, labels=None,
                 kind="generic", grid=None, renorm_correction=None, meta=None):
        if (operators is None) == (kets is None):
            raise ValueError("provide exactly one of operators or kets")
        self.dim = int(dim)
        self.values = list(values)
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("outcome weights must be positive")
        self._operators = None if operators is None else np.asarray(operators, dtype=complex)
        self._kets = None if kets is None else np.asarray(kets, dtype=complex)
        n = self.n_outcomes
        if labels is None:
            labels = [str(v) for v in self.values]
        self.labels = list(labels)
        if not (len(self.values) == len(self.labels) == self.weights.size == n):
            raise ValueError("values, labels and weights must match the outcome count")
        self.kind = kind
        self.grid = grid
        self.renorm_correction = renorm_correction
        self.meta = dict(meta or {})

    @property
    def n_outcomes(self) -> int:
        arr = self._operators if self._operators is not None else self._kets
        return arr.shape[0]

    @property
    def kets(self):
        """(K, d) array of rank-one kets, or None for general outcome operators."""
        return self._kets

    def operator(self, k: int) -> np.ndarray:
        if self._operators is not None:
            return self._operators[k]
        v = self._kets[k]
        return np.outer(v, v.conj())

    def operators(self):
        for k in range(self.n_outcomes):
            yield self.operator(k)

    def traces(self, x) -> np.ndarray:
        """tr[x M_k] for every outcome k (weights not applied), as complex numbers.

        With x = rho A this is tr[rho M_k] times the generalized weak value of
        A at outcome k, whose real part gives the optimal estimate.
        """
        if self._kets is not None:
            return np.einsum("kn,kn->k", self._kets.conj() @ x, self._kets)
        return np.einsum("kij,ji->k", self._operators, x)

    def weighted_sum(self, c) -> np.ndarray:
        """sum_k c_k M_k for per-outcome coefficients c."""
        if self._kets is not None:
            return (self._kets.T * c) @ self._kets.conj()
        return np.einsum("k,kij->ij", c, self._operators)

    def values_array(self, component=None) -> np.ndarray:
        """Outcome values as floats, selecting one component of pair values."""
        if component is None:
            return np.asarray([float(v) for v in self.values])
        return np.asarray([float(v[component]) for v in self.values])

    def completeness_operator(self) -> np.ndarray:
        """sum_k w_k M_k, which should be the identity."""
        return self.weighted_sum(self.weights)

    @classmethod
    def from_operators(cls, ops: Sequence, values=None, weights=None, labels=None, kind="generic"):
        ops = [np.asarray(op, dtype=complex) for op in ops]
        dim = ops[0].shape[0]
        if values is None:
            values = np.arange(len(ops), dtype=float)
        if weights is None:
            weights = np.ones(len(ops))
        return cls(dim, values, weights, operators=np.array(ops), labels=labels, kind=kind)

    def __repr__(self):
        return f"Pom(kind={self.kind!r}, dim={self.dim}, n_outcomes={self.n_outcomes})"


@dataclass
class ValidationReport:
    passed: bool
    min_eigenvalues: np.ndarray
    completeness_deviation: float
    positivity_tol: float
    completeness_tol: float
    renorm_correction: float | None = None

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "min_eigenvalue": float(self.min_eigenvalues.min()),
            "completeness_deviation": float(self.completeness_deviation),
            "positivity_tol": self.positivity_tol,
            "completeness_tol": self.completeness_tol,
            "renorm_correction": self.renorm_correction,
        }


def validate(pom: Pom, positivity_tol=1e-10, completeness_tol=1e-8) -> ValidationReport:
    """Diagnostic check: per-outcome positivity and completeness of the family."""
    if pom.kets is not None:
        # rank-one projectors have spectrum {|ket|^2, 0, ...}: trivially positive
        min_eigs = np.zeros(pom.n_outcomes)
    else:
        min_eigs = np.array([np.linalg.eigvalsh(op)[0] for op in pom.operators()])
    dev_mat = pom.completeness_operator() - np.eye(pom.dim)
    deviation = float(np.abs(np.linalg.eigvalsh((dev_mat + dev_mat.conj().T) / 2)).max())
    passed = bool(min_eigs.min() >= -positivity_tol and deviation <= completeness_tol)
    return ValidationReport(passed, min_eigs, deviation, positivity_tol, completeness_tol,
                            pom.renorm_correction)


def _inverse_sqrt(total, max_correction):
    """T^{-1/2} of the completeness operator T, with its mean and max eigenvalue corrections."""
    total = (total + total.conj().T) / 2
    vals, vecs = np.linalg.eigh(total)
    if vals.min() <= 0:
        raise CompletenessError(
            f"grid completeness operator is singular (min eigenvalue {vals.min():.3e})"
        )
    # Mean eigenvalue deficiency measures whether the grid covers the truncated
    # space; individual top Fock levels may sit near the coverage boundary.
    mean_corr = float(abs(vals.mean() - 1.0))
    max_corr = float(np.abs(vals - 1.0).max())
    if mean_corr > max_correction:
        raise CompletenessError(
            f"renormalization correction {mean_corr:.3f} exceeds {max_correction:.2f}; "
            "enlarge the grid or reduce the Fock dimension"
        )
    return (vecs * vals**-0.5) @ vecs.conj().T, mean_corr, max_corr


def _renormalize_kets(kets, weights, max_correction):
    inv_sqrt, mean_corr, max_corr = _inverse_sqrt((kets.T * weights) @ kets.conj(), max_correction)
    return kets @ inv_sqrt.T, mean_corr, max_corr


def coherent_pom(fock_dim: int, grid: GridSpec, max_renorm_correction=0.1) -> Pom:
    """Grid discretization of the coherent-state POM 1/pi |a><a| d^2a.

    Outcomes are labeled by the grid points with value pairs (Re a, Im a) and
    weight cell_area/pi; the kets are renormalized symmetrically so the
    family is complete on the truncated space.
    """
    alphas, cell = grid.points()
    weights = np.full(alphas.size, cell / np.pi)
    kets = fock.coherent_amplitudes(fock_dim, alphas)
    kets, mean_corr, max_corr = _renormalize_kets(kets, weights, max_renorm_correction)
    values = [(float(a.real), float(a.imag)) for a in alphas]
    labels = [f"a=({a.real:.6g},{a.imag:.6g})" for a in alphas]
    pom = Pom(fock_dim, values, weights, kets=kets, labels=labels,
              kind="coherent-grid", grid=grid, renorm_correction=mean_corr,
              meta={"max_renorm_correction": max_corr})
    return pom


def imageband_conjugate(imageband: DensityOperator) -> np.ndarray:
    """Number-basis conjugate rho'[m,n] = (-1)^(m+n) conj(rho[m,n])."""
    d = imageband.dim
    signs = (-1.0) ** np.arange(d)
    return signs[:, None] * signs[None, :] * np.conjugate(imageband.matrix)


def imageband_pom(fock_dim: int, grid: GridSpec, imageband: DensityOperator,
                  max_renorm_correction=0.1) -> Pom:
    """Heterodyne POM 1/pi D(a) rho' D(a)† for an arbitrary imageband state.

    With a vacuum imageband this coincides elementwise with ``coherent_pom``.
    """
    if imageband.dim > fock_dim:
        raise DimensionMismatchError("imageband state must fit in the signal Fock dimension")
    rho_c = np.zeros((fock_dim, fock_dim), dtype=complex)
    rho_c[: imageband.dim, : imageband.dim] = imageband_conjugate(imageband)
    alphas, cell = grid.points()
    weights = np.full(alphas.size, cell / np.pi)
    values = [(float(a.real), float(a.imag)) for a in alphas]
    labels = [f"a=({a.real:.6g},{a.imag:.6g})" for a in alphas]

    vals, vecs = np.linalg.eigh((rho_c + rho_c.conj().T) / 2)
    chunks = [slice(s, s + _GRID_CHUNK) for s in range(0, alphas.size, _GRID_CHUNK)]
    if int(np.sum(vals > 1e-12)) == 1:
        base = vecs[:, -1] * np.sqrt(vals[-1])
        kets = np.concatenate([fock.displacements(fock_dim, alphas[c]) @ base for c in chunks])
        kets, mean_corr, max_corr = _renormalize_kets(kets, weights, max_renorm_correction)
        return Pom(fock_dim, values, weights, kets=kets, labels=labels,
                   kind="imageband-grid", grid=grid, renorm_correction=mean_corr,
                   meta={"max_renorm_correction": max_corr})

    # one (K, d, d) stack, filled and renormalized in place chunk by chunk
    ops = np.empty((alphas.size, fock_dim, fock_dim), dtype=complex)
    for c in chunks:
        D = fock.displacements(fock_dim, alphas[c])
        np.matmul(D @ rho_c, D.conj().transpose(0, 2, 1), out=ops[c])
    inv_sqrt, mean_corr, max_corr = _inverse_sqrt(np.einsum("k,kij->ij", weights, ops),
                                                  max_renorm_correction)
    for c in chunks:
        np.matmul(inv_sqrt @ ops[c], inv_sqrt, out=ops[c])
    return Pom(fock_dim, values, weights, operators=ops, labels=labels,
               kind="imageband-grid", grid=grid, renorm_correction=mean_corr,
               meta={"max_renorm_correction": max_corr})


def inefficient_photon_pom(fock_dim: int, eta: float, max_faithful_outcome=None,
                           tail_tol=1e-10) -> Pom:
    """Photon counting with quantum efficiency eta.

    Outcome m carries the diagonal operator
    sum_r |m+r><m+r| C(m+r, r) eta^m (1-eta)^r, truncated at ``fock_dim``.
    All outcomes m = 0..fock_dim-1 are retained, so the family is exactly
    complete on the truncated space.  When ``max_faithful_outcome`` is given,
    the truncated binomial tail is checked for every m up to it: those
    outcomes then carry operators indistinguishable (relative ``tail_tol``)
    from their infinite-dimensional versions.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    n = np.arange(fock_dim)
    ops = np.zeros((fock_dim, fock_dim, fock_dim), dtype=complex)
    for m in range(fock_dim):
        r = n[n >= m] - m
        log_c = gammaln(m + r + 1) - gammaln(r + 1) - gammaln(m + 1)
        if eta < 1:
            diag = np.exp(log_c + m * np.log(eta) + r * np.log(1 - eta))
        else:
            diag = np.where(r == 0, 1.0, 0.0)
        ops[m, n >= m, n >= m] = diag
    if max_faithful_outcome is not None:
        if not 0 <= max_faithful_outcome < fock_dim:
            raise ValueError("max_faithful_outcome out of range")
        if eta < 1:
            # infinite-dim trace of each outcome operator is 1/eta
            traces = np.real(np.einsum("kii->k", ops))
            deficits = 1.0 - eta * traces[: max_faithful_outcome + 1]
            worst = float(deficits.max())
        else:
            worst = 0.0
        if worst > tail_tol:
            raise TruncationTailError(
                f"binomial tail {worst:.2e} beyond fock_dim={fock_dim} exceeds {tail_tol:.1e} "
                f"for outcomes up to {max_faithful_outcome}; increase fock_dim"
            )
    return Pom(fock_dim, values=n.astype(float), weights=np.ones(fock_dim),
               operators=ops, labels=[f"m={m}" for m in range(fock_dim)],
               kind="photon-counting", meta={"eta": eta})


def spin_pom(directions, probs) -> Pom:
    """Qubit POM q_m (1 + sigma . m) for Bloch vectors m and weights q.

    Requires sum_m q_m m = 0, |m| <= 1, q_m >= 0 and sum q_m = 1.
    """
    from .operators import PAULI_X, PAULI_Y, PAULI_Z

    dirs = np.asarray(directions, dtype=float)
    q = np.asarray(probs, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or dirs.shape[0] != q.size:
        raise ValueError("directions must be (K, 3) with matching probs")
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-10:
        raise ValueError("probs must be a probability distribution")
    if np.any(np.linalg.norm(dirs, axis=1) > 1 + 1e-10):
        raise ValueError("Bloch vectors must lie in the unit ball")
    bias = q @ dirs
    if np.linalg.norm(bias) > 1e-10:
        raise ValueError(f"sum_m q_m m = {bias} must vanish")
    ops = np.array([
        qk * (np.eye(2, dtype=complex) + mx * PAULI_X + my * PAULI_Y + mz * PAULI_Z)
        for qk, (mx, my, mz) in zip(q, dirs)
    ])
    values = [tuple(map(float, m)) for m in dirs]
    labels = [f"m=({m[0]:.4g},{m[1]:.4g},{m[2]:.4g})" for m in dirs]
    return Pom(2, values, np.ones(q.size), operators=ops, labels=labels, kind="spin",
               meta={"q": [float(x) for x in q]})


def trine_pom() -> Pom:
    """Three symmetric qubit outcomes, 120 degrees apart in the x-z plane."""
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    dirs = [(np.sin(t), 0.0, np.cos(t)) for t in angles]
    return spin_pom(dirs, [1 / 3] * 3)


def tetrahedral_pom() -> Pom:
    dirs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float) / np.sqrt(3)
    return spin_pom(dirs, [0.25] * 4)


def projective_pom(op: HermitianOperator, degeneracy_tol=1e-8) -> Pom:
    """Spectral POM of a Hermitian operator, grouping degenerate eigenvalues."""
    vals, vecs = op.eigensystem()
    scale = max(1.0, float(np.abs(vals).max()))
    groups: list[list[int]] = []
    for i, v in enumerate(vals):
        if groups and abs(v - vals[groups[-1][0]]) <= degeneracy_tol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    if all(len(g) == 1 for g in groups):
        kets = vecs.T.copy()
        return Pom(op.dim, values=[float(v) for v in vals], weights=np.ones(op.dim),
                   kets=kets, kind="projective")
    ops, values = [], []
    for g in groups:
        sub = vecs[:, g]
        ops.append(sub @ sub.conj().T)
        values.append(float(np.mean(vals[g])))
    return Pom.from_operators(ops, values=values, kind="projective")


def identity_pom(dim: int, value=0.0) -> Pom:
    """The trivial single-outcome measurement."""
    return Pom.from_operators([np.eye(dim, dtype=complex)], values=[value], kind="trivial")


@dataclass
class NaimarkExtension:
    """Product-space projective representation of a POM with a fixed ancilla."""

    sys_dim: int
    anc_dim: int
    ancilla_state: DensityOperator
    extended_operator: HermitianOperator
    projections: list
    unitary: np.ndarray


def _complete_isometry(columns: np.ndarray, total_dim: int) -> np.ndarray:
    """Column-pivoted Gram-Schmidt completion seeded with standard basis vectors."""
    basis = [columns[:, j].copy() for j in range(columns.shape[1])]
    for j, b in enumerate(basis):
        nb = np.linalg.norm(b)
        if nb < 1e-12:
            raise CompletionError("isometry columns are numerically rank-deficient")
        basis[j] = b / nb
    candidates = np.eye(total_dim, dtype=complex)
    while len(basis) < total_dim:
        B = np.array(basis).T
        resid = candidates - B @ (B.conj().T @ candidates)
        norms = np.linalg.norm(resid, axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-10:
            raise CompletionError("Gram-Schmidt completion degenerated")
        vec = resid[:, pick]
        # re-orthogonalize once for numerical hygiene
        vec = vec - B @ (B.conj().T @ vec)
        basis.append(vec / np.linalg.norm(vec))
    return np.array(basis).T


def naimark_extend(pom: Pom, verify_states=5, verify_tol=1e-10, seed=1234) -> NaimarkExtension:
    """Extend a discrete POM to commuting projections on system (x) ancilla.

    The ancilla has one level per outcome and starts in |0><0|.  The block
    isometry V|psi> = sum_k sqrt(w_k M_k)|psi> (x) |k> is completed to a
    unitary U; the projections are U† (1 (x) |k><k|) U.  Outcome statistics
    against random states are verified before returning.
    """
    from .sampling import make_rng, random_density

    d, K = pom.dim, pom.n_outcomes
    total = d * K
    V = np.zeros((total, d), dtype=complex)
    for k in range(K):
        block = pom.weights[k] * pom.operator(k)
        root = spectral_apply(HermitianOperator(block), lambda x: np.sqrt(max(x, 0.0))).matrix
        # system-major product index: row (i, k) = i*K + k
        V[k::K, :] = root
    W = _complete_isometry(V, total)
    # U maps |psi> (x) |0> to V|psi>: the isometry columns sit at ancilla-0
    # column positions, the completions fill the rest.
    U = np.zeros((total, total), dtype=complex)
    anc0 = [j * K for j in range(d)]
    rest = [c for c in range(total) if c % K != 0]
    U[:, anc0] = W[:, :d]
    U[:, rest] = W[:, d:]
    # M'_k = U† (1 (x) |k><k|) U assembled from the ancilla-k rows of U
    projections = [U[k::K, :].conj().T @ U[k::K, :] for k in range(K)]
    values = pom.values_array() if not isinstance(pom.values[0], tuple) else np.arange(K, dtype=float)
    extended = HermitianOperator(sum(v * p for v, p in zip(values, projections)))
    ancilla = DensityOperator.from_ket(Ket.basis(K, 0))

    rng = make_rng(seed)
    for _ in range(verify_states):
        rho = random_density(d, rng)
        big = np.kron(rho.matrix, ancilla.matrix)
        for k in range(K):
            lhs = pom.weights[k] * np.real(np.trace(rho.matrix @ pom.operator(k)))
            rhs = np.real(np.trace(big @ projections[k]))
            if abs(lhs - rhs) > verify_tol:
                raise CompletionError(
                    f"extension statistics mismatch {abs(lhs - rhs):.2e} at outcome {k}"
                )
    return NaimarkExtension(d, K, ancilla, extended, projections, U)


def pom_to_json(pom: Pom) -> dict:
    return {
        "dim": pom.dim,
        "kind": pom.kind,
        "outcomes": [
            {
                "label": pom.labels[k],
                "value": pom.values[k],
                "weight": float(pom.weights[k]),
                "matrix": matrix_to_json(pom.operator(k)),
            }
            for k in range(pom.n_outcomes)
        ],
    }


def pom_from_json(data: dict) -> Pom:
    ops = [matrix_from_json(o["matrix"]) for o in data["outcomes"]]
    values = [tuple(v) if isinstance(v, list) else v for v in (o["value"] for o in data["outcomes"])]
    weights = [o["weight"] for o in data["outcomes"]]
    labels = [o["label"] for o in data["outcomes"]]
    return Pom(data["dim"], values, weights, operators=np.array(ops), labels=labels,
               kind=data.get("kind", "generic"))
