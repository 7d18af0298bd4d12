"""Probability operator measures: generic, grid-discretized and named families.

A POM is a finite family of labeled positive operators M_k with quadrature
weights w_k such that sum_k w_k M_k = 1.  Discrete POMs carry unit weights;
POMs obtained by discretizing a continuous outcome set (phase-space grids)
carry the cell measure in the weight and are renormalized symmetrically,
M_k -> T^{-1/2} M_k T^{-1/2} with T = sum w_k M_k, which preserves positivity
exactly and makes completeness hold by construction.  The magnitude of that
correction is kept on the Pom for reporting.

Every outcome is stored as a factor, M_k = U_k U_k†, which each family
already knows (kets are rank one); outcome matrices are materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import fock
from .operators import (
    DensityOperator,
    DimensionMismatchError,
    HermiticityError,
    HermitianOperator,
    Ket,
    matrix_from_json,
    matrix_to_json,
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
    """The dilation isometry is rank-deficient or does not reproduce the POM's statistics."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform square phase-space grid: center, half-width and points per axis."""

    center: complex = 0j
    radius: float = 6.0
    points_per_axis: int = 81

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be finite and positive, not {self.radius!r}")
        if self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be at least 2, not {self.points_per_axis!r}")

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


class Pom:
    """Finite family of weighted positive operators summing to the identity.

    Outcome k is M_k = U_k U_k†, stored as ``amplitudes[k] = U_k^T`` of shape
    (K, r, d): M_k sums the projectors onto its r (unnormalized) ket rows, r = 1
    for kets, and zero rows pad an outcome of lower rank.  Each method applies
    the rank-one formula to the K r rows and sums each outcome's rows.
    """

    def __init__(self, dim, values, weights, amplitudes, labels=None,
                 kind="generic", grid=None, renorm_correction=None, meta=None):
        self.dim = int(dim)
        self._values = None if values is None else list(values)
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("outcome weights must be positive")
        self.amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
        if self.amplitudes.ndim != 3 or self.amplitudes.shape[2] != self.dim:
            raise ValueError(f"amplitudes must be (K, r, {self.dim}), not {self.amplitudes.shape}")
        self._labels = None if labels is None else list(labels)
        n_values = grid.points_per_axis**2 if values is None else len(self._values)
        n_labels = n_values if labels is None else len(self._labels)
        if not (n_values == n_labels == self.weights.size == self.n_outcomes):
            raise ValueError("values, labels and weights must match the outcome count")
        self.kind = kind
        self.grid = grid
        self.renorm_correction = renorm_correction
        self.meta = dict(meta or {})
        # U U† is positive; from_operators keeps the given matrices' own values
        self.min_eigenvalues, self._given_sum = np.zeros(self.n_outcomes), None

    @property
    def values(self) -> list:
        """Outcome values; left as None on a grid, formatted on first read as (Re a, Im a) pairs."""
        if self._values is None:
            alphas = self.grid.points()[0]
            self._values = list(zip(alphas.real.tolist(), alphas.imag.tolist()))
        return self._values

    @property
    def labels(self) -> list:
        """Outcome labels, by default formatted on first read: ``a=(x,y)`` on grids, else str(value)."""
        if self._labels is None:
            if self.grid is not None:
                self._labels = [f"a=({x:.6g},{y:.6g})" for x, y in self.values]
            else:
                self._labels = [str(v) for v in self.values]
        return self._labels

    @property
    def n_outcomes(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def kets(self):
        """(K, d) view of the kets when every outcome is rank one (r = 1), else None."""
        return self.amplitudes[:, 0] if self.amplitudes.shape[1] == 1 else None

    def operator(self, k: int) -> np.ndarray:
        u = self.amplitudes[k]
        return u.T @ u.conj()

    def operators(self):
        return map(self.operator, range(self.n_outcomes))

    def traces(self, x) -> np.ndarray:
        """tr[x M_k] for every outcome k (weights not applied), as complex numbers.

        With x = rho A this is tr[rho M_k] times the generalized weak value of
        A at outcome k, whose real part gives the optimal estimate.
        """
        rows = self.amplitudes.reshape(-1, self.dim)
        return np.vecdot(rows, rows @ x.T).reshape(self.n_outcomes, -1).sum(axis=1)

    def project(self, columns) -> np.ndarray:
        """(K, r, m) overlaps <c_j|u> = ``amplitudes[k, i] @ columns.conj()`` of every amplitude row
        with the (d, m) columns; only the small column stack is conjugated."""
        rows = self.amplitudes.reshape(-1, self.dim)
        return (rows @ np.conj(columns)).reshape(*self.amplitudes.shape[:2], -1)

    def weighted_sum(self, c) -> np.ndarray:
        """sum_k c_k M_k for per-outcome coefficients c."""
        rows = self.amplitudes.reshape(-1, self.dim)
        return (rows.T * np.repeat(c, self.amplitudes.shape[1])) @ rows.conj()

    def values_array(self, component=None) -> np.ndarray:
        """Outcome values as floats, selecting one component of tuple values."""
        if component is not None:
            return np.fromiter(map(itemgetter(component), self.values), float, self.n_outcomes)
        if isinstance(self.values[0], tuple):
            raise ValueError("outcome values are tuples; select one with component")
        return np.fromiter(self.values, float, self.n_outcomes)

    def completeness_operator(self) -> np.ndarray:
        """sum_k w_k M_k, which should be the identity; as given, for matrices given to from_operators."""
        return self.weighted_sum(self.weights) if self._given_sum is None else self._given_sum

    @classmethod
    def from_operators(cls, ops: Sequence, values=None, weights=None, labels=None, kind="generic"):
        """POM of the given Hermitian matrices, factored by one batched ``eigh``: U_k = V sqrt(lam),
        with the negative lam that no factor can hold clipped to 0.  ``validate`` judges the
        matrices as given, by the lowest lam and sum_k w_k M_k kept here."""
        ops = np.asarray(ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"outcome operators must be a (K, d, d) stack, not {ops.shape}")
        gap = np.abs(ops - ops.conj().mT).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(gap > 1e-10 * np.abs(ops).max(axis=(1, 2), initial=1.0))
        if bad.size:
            raise HermiticityError(f"outcome {bad[0]} matrix deviates from Hermitian by {gap[bad[0]]:.3e}")
        values = np.arange(len(ops), dtype=float) if values is None else values
        weights = np.ones(len(ops)) if weights is None else weights
        vals, vecs = np.linalg.eigh(ops)
        pom = cls(ops.shape[1], values, weights, (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None]).mT,
                  labels=labels, kind=kind)
        pom.min_eigenvalues, pom._given_sum = vals[:, 0], np.einsum("k,kij->ij", pom.weights, ops)
        return pom

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
    """Diagnostic check: per-outcome positivity and completeness of the family, of the
    matrices as given for a POM from ``Pom.from_operators`` (a factor U U† is positive)."""
    dev_mat = pom.completeness_operator() - np.eye(pom.dim)
    deviation = float(np.abs(np.linalg.eigvalsh((dev_mat + dev_mat.conj().T) / 2)).max())
    passed = bool(pom.min_eigenvalues.min() >= -positivity_tol and deviation <= completeness_tol)
    return ValidationReport(passed, pom.min_eigenvalues, deviation, positivity_tol, completeness_tol,
                            pom.renorm_correction)


def _renormalize_kets(kets, weight, max_correction):
    """Kets T^{-1/2}|k>, T = weight sum_k |k><k|, and T's mean and max eigenvalue corrections."""
    total = weight * (kets.T @ kets.conj())
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
    return kets @ ((vecs * vals**-0.5) @ vecs.conj().T).T, mean_corr, max_corr


def coherent_pom(fock_dim: int, grid: GridSpec, max_renorm_correction=0.1) -> Pom:
    """Grid discretization of the coherent-state POM 1/pi |a><a| d^2a.

    Outcomes are labeled by the grid points with value pairs (Re a, Im a) and
    weight cell_area/pi; the kets are renormalized symmetrically so the
    family is complete on the truncated space.
    """
    alphas, cell = grid.points()
    weights = np.full(alphas.size, cell / np.pi)
    kets = fock.coherent_amplitudes(fock_dim, alphas)
    kets, mean_corr, max_corr = _renormalize_kets(kets, cell / np.pi, max_renorm_correction)
    return Pom(fock_dim, None, weights, kets[:, None],
               kind="coherent-grid", grid=grid, renorm_correction=mean_corr,
               meta={"max_renorm_correction": max_corr})


def imageband_conjugate(imageband: DensityOperator) -> np.ndarray:
    """Number-basis conjugate rho'[m,n] = (-1)^(m+n) conj(rho[m,n])."""
    d = imageband.dim
    signs = (-1.0) ** np.arange(d)
    return signs[:, None] * signs[None, :] * np.conjugate(imageband.matrix)


def imageband_pom(fock_dim: int, grid: GridSpec, imageband: DensityOperator,
                  max_renorm_correction=0.1) -> Pom:
    """Heterodyne POM 1/pi D(a) rho' D(a)† for an arbitrary imageband state.

    rho' = B B† on its occupied Fock levels n < s, so outcome k is U U† with
    U = D(a_k)[:, :s] B, and the K r columns of the U are renormalized together
    like ``coherent_pom``'s kets.  B holds the eigenpairs above 1e-12, so a
    pure rho' gives kets (r = 1) and a rank-deficient one no roundoff column.
    With a vacuum imageband this coincides elementwise with ``coherent_pom``.
    """
    if imageband.dim > fock_dim:
        raise DimensionMismatchError("imageband state must fit in the signal Fock dimension")
    rho_c = imageband_conjugate(imageband)
    s = 1 + int(np.max(np.nonzero(rho_c)))
    vals, vecs = np.linalg.eigh((rho_c[:s, :s] + rho_c[:s, :s].conj().T) / 2)
    keep = vals > 1e-12
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    alphas, cell = grid.points()
    amps = np.empty((alphas.size, factor.shape[1], fock_dim), dtype=complex)  # amps[k] = U_k^T
    for c in (slice(i, i + _GRID_CHUNK) for i in range(0, alphas.size, _GRID_CHUNK)):
        amps[c] = (fock.displacement_columns(fock_dim, alphas[c], s) @ factor).mT
    rows, mean_corr, max_corr = _renormalize_kets(amps.reshape(-1, fock_dim), cell / np.pi,
                                                  max_renorm_correction)
    return Pom(fock_dim, None, np.full(alphas.size, cell / np.pi), rows.reshape(amps.shape),
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
    logf = fock._log_factorials(fock_dim)
    diag = np.eye(fock_dim)  # diag[m, n] = <n|M_m|n>; at eta = 1, M_m = |m><m|
    for m in range(fock_dim if eta < 1 else 0):
        r = n[m:] - m
        diag[m, m:] = np.exp(logf[m + r] - logf[r] - logf[m] + m * np.log(eta) + r * np.log(1 - eta))
    if max_faithful_outcome is not None:
        if not 0 <= max_faithful_outcome < fock_dim:
            raise ValueError("max_faithful_outcome out of range")
        # infinite-dim trace of each outcome operator is 1/eta
        worst = float((1.0 - eta * diag[: max_faithful_outcome + 1].sum(axis=1)).max())
        if worst > tail_tol:
            raise TruncationTailError(
                f"binomial tail {worst:.2e} beyond fock_dim={fock_dim} exceeds {tail_tol:.1e} "
                f"for outcomes up to {max_faithful_outcome}; increase fock_dim"
            )
    amps = np.zeros((fock_dim, fock_dim, fock_dim), dtype=complex)
    amps[:, n, n] = np.sqrt(diag)  # U_m = diag(sqrt <n|M_m|n>)
    return Pom(fock_dim, n.astype(float), np.ones(fock_dim), amps,
               labels=[f"m={m}" for m in range(fock_dim)], kind="photon-counting", meta={"eta": eta})


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
    pom = Pom.from_operators(ops, values, labels=labels, kind="spin")
    pom.meta["q"] = [float(x) for x in q]
    return pom


def trine_pom() -> Pom:
    """Three symmetric qubit outcomes, 120 degrees apart in the x-z plane."""
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    dirs = [(np.sin(t), 0.0, np.cos(t)) for t in angles]
    return spin_pom(dirs, [1 / 3] * 3)


def tetrahedral_pom() -> Pom:
    dirs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float) / np.sqrt(3)
    return spin_pom(dirs, [0.25] * 4)


def projective_pom(op: HermitianOperator, degeneracy_tol=1e-8) -> Pom:
    """Spectral POM of a Hermitian operator; each group of degenerate eigenvectors is
    one outcome's factor, padded with zero columns to the largest group."""
    vals, vecs = op.eigensystem()
    scale = max(1.0, float(np.abs(vals).max()))
    groups: list[list[int]] = []
    for i, v in enumerate(vals):
        if groups and abs(v - vals[groups[-1][0]]) <= degeneracy_tol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    amps = np.zeros((len(groups), max(map(len, groups)), op.dim), dtype=complex)
    for k, g in enumerate(groups):
        amps[k, :len(g)] = vecs[:, g].T
    return Pom(op.dim, [float(np.mean(vals[g])) for g in groups], np.ones(len(groups)), amps,
               kind="projective")


def identity_pom(dim: int, value=0.0) -> Pom:
    """The trivial single-outcome measurement."""
    return Pom(dim, [value], [1.0], np.eye(dim, dtype=complex)[None], kind="trivial")


@dataclass
class NaimarkExtension:
    """Product-space projective representation of a POM with a fixed ancilla."""

    sys_dim: int
    anc_dim: int
    ancilla_state: DensityOperator
    extended_operator: HermitianOperator
    projections: list
    unitary: np.ndarray


def naimark_extend(pom: Pom) -> NaimarkExtension:
    """Extend a discrete POM to commuting projections on system (x) ancilla.

    The ancilla has one level per outcome and starts in |0><0|.  Block k of
    the isometry V|psi> = sum_k K_k|psi> (x) |k> is the stored factor,
    K_k = sqrt(w_k) U_k† with zero rows past its rank, so K_k† K_k = w_k M_k.
    One complete QR of V completes it to a unitary U; the projections are
    U† (1 (x) |k><k|) U.  Outcome statistics against five random states are
    verified to 1e-10 before returning, which rejects an incomplete POM.
    """
    from .sampling import make_rng, random_density

    d, K = pom.dim, pom.n_outcomes
    total = d * K
    # V[i, k] is row i of K_k, at the system-major product row i*K + k
    V = np.zeros((d, K, d), dtype=complex)
    V[:pom.amplitudes.shape[1]] = np.sqrt(pom.weights)[:, None] * pom.amplitudes.conj().swapaxes(0, 1)
    Q, R = np.linalg.qr(V.reshape(total, d), mode="complete")
    r_diag = np.diagonal(R)
    if np.abs(r_diag).min() < 1e-12:
        raise CompletionError("isometry columns are numerically rank-deficient")
    # U maps |psi> (x) |0> to V|psi>: for an isometry V = Q[:, :d] diag(R_ii) with
    # |R_ii| = 1, so the ancilla-0 columns are Q[:, :d] times R's phases; Q's other
    # columns fill the rest
    U = np.empty((total, d, K), dtype=complex)
    U[:, :, 0] = Q[:, :d] * (r_diag / np.abs(r_diag))
    U[:, :, 1:] = Q[:, d:].reshape(total, d, K - 1)
    U = U.reshape(total, total)
    # M'_k = U† (1 (x) |k><k|) U assembled from the ancilla-k rows of U
    projections = [U[k::K, :].conj().T @ U[k::K, :] for k in range(K)]
    values = pom.values_array() if not isinstance(pom.values[0], tuple) else np.arange(K, dtype=float)
    extended = HermitianOperator(sum(v * p for v, p in zip(values, projections)))
    ancilla = DensityOperator.from_ket(Ket.basis(K, 0))

    rng = make_rng(1234)
    for _ in range(5):
        rho = random_density(d, rng)
        big = np.kron(rho.matrix, ancilla.matrix)
        gap = np.abs(pom.weights * np.real(pom.traces(rho.matrix))
                     - [np.real(np.trace(big @ proj)) for proj in projections])
        if gap.max() > 1e-10:
            raise CompletionError(f"extension statistics mismatch {gap.max():.2e} at outcome {gap.argmax()}")
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


def _fields(entry, keys, where: str) -> list:
    missing = [key for key in keys if not isinstance(entry, dict) or key not in entry]
    if missing:
        raise ValueError(f"{where} lacks {missing[0]!r}")
    return [entry[key] for key in keys]


def pom_from_json(data: dict) -> Pom:
    """POM of a ``pom_to_json`` descriptor; a ValueError names the missing key or the bad outcome."""
    dim, outcomes = _fields(data, ("dim", "outcomes"), "POM descriptor")
    ops, values, weights, labels = [], [], [], []
    for k, o in enumerate(outcomes):
        matrix, value, weight, label = _fields(o, ("matrix", "value", "weight", "label"), f"POM outcome {k}")
        try:
            ops.append(matrix_from_json(matrix))
            if len(ops[-1]) != dim:
                raise ValueError(f"matrix is {len(ops[-1])}x{len(ops[-1])}, not dim x dim = {dim}x{dim}")
        except ValueError as exc:
            raise ValueError(f"POM outcome {k} {exc}") from None
        values.append(tuple(value) if isinstance(value, list) else value)
        weights.append(weight)
        labels.append(label)
    return Pom.from_operators(ops, values, weights, labels, kind=data.get("kind", "generic"))
