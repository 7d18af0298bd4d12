"""Optimal estimation of observables from generalized measurements.

Given a measurement with weighted positive operators {(w_k, M_k)} and a state
rho, an estimator assigns a real value f_k to each outcome.  Its quality is
measured by the statistical deviation

    D^2 = sum_k w_k tr[(A - f_k) rho (A - f_k) M_k],

which the value choice f_k = tr[rho (M_k A + A M_k)] / (2 tr[rho M_k])
minimizes outcome by outcome.  With no state available, minimizing the
Hilbert-Schmidt-style distance d^2 = sum_k w_k tr[M_k (A - f_k)^2] gives
f_k = tr[A M_k]/tr[M_k] instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import (
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from .pom import Pom, projective_pom

__all__ = [
    "Estimator",
    "EstimateStats",
    "NotCorrectableError",
    "probabilities",
    "hs_distance",
    "optimal_estimate",
    "optimal_estimate_no_info",
    "unbiased_correction",
    "estimate_stats",
    "OptimalAnalysis",
    "optimal_analysis",
    "optimal_estimate_complete_pom",
    "repeatability_check",
    "measurement_estimator",
]

ZERO_PROB_TOL = 1e-14
BIAS_TOL = 1e-8  # on the bias operator sum_k w_k f_k M_k - A
OVERLAP_TOL = 1e-10
REPEATABILITY_TOL = 1e-10


class NotCorrectableError(ValueError):
    """Bias operator is neither scalar nor removable by a qubit-linear map."""


@dataclass
class Estimator:
    """Map from measurement outcome index to a real estimate."""

    pom: Pom
    values: np.ndarray
    meta: str = "custom"
    zero_probability: np.ndarray | None = None
    out_of_range: np.ndarray | None = None
    analysis: OptimalAnalysis | None = field(default=None, repr=False, compare=False)  # the one it came from

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.pom.n_outcomes:
            raise ValueError("one estimate value per outcome required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("estimate values must be finite")

    def to_json(self) -> dict:
        return {
            "pom_id": self.pom.kind,
            "values": [float(v) for v in self.values],
            "meta": self.meta,
        }


@dataclass
class EstimateStats:
    mean: float
    dispersion: float
    inaccuracy: float


def measurement_estimator(pom: Pom, component=None) -> Estimator:
    """The identity estimator: each outcome estimates its own value."""
    return Estimator(pom, pom.values_array(component), meta="measurement")


def probabilities(pom: Pom, rho: DensityOperator) -> np.ndarray:
    """Outcome probabilities p_k = w_k tr[rho M_k], clipped of -1e-10 roundoff."""
    return optimal_analysis((), pom, rho).p


def hs_distance(a: HermitianOperator, pom: Pom) -> float:
    """State-independent distance d^2 = sum_k w_k tr[M_k (A - m_k)^2].

    Uses the POM's own outcome values; proportional to the average of the
    squared statistical deviation over uniformly random pure states, and
    equal to dim times that deviation at the maximally mixed state.
    """
    mixed = DensityOperator.maximally_mixed(pom.dim)
    return float(np.sqrt(pom.dim) * estimate_stats(measurement_estimator(pom), a, mixed).inaccuracy)


def _out_of_range(values, a: HermitianOperator):
    spec = a.eigensystem()[0]
    return (values < spec[0] - 1e-12) | (values > spec[-1] + 1e-12)


def optimal_estimate(a: HermitianOperator, pom: Pom, rho: DensityOperator) -> Estimator:
    """Deviation-minimizing estimate f_k = tr[rho(M_k A + A M_k)] / (2 tr[rho M_k]).

    Outcomes with tr[rho M_k] below ``ZERO_PROB_TOL`` are flagged and assigned
    0; any finite value there yields identical statistics.
    """
    return optimal_analysis((a,), pom, rho).estimates[0]


def optimal_estimate_no_info(a: HermitianOperator, pom: Pom) -> Estimator:
    """Distance-minimizing estimate f_k = tr[A M_k]/tr[M_k] (no state needed).

    Coincides with ``optimal_estimate`` at the maximally mixed state.
    """
    if a.dim != pom.dim:
        raise DimensionMismatchError("operator and POM dimensions differ")
    f = _no_info_values(_outcome_traces(pom), np.real(pom.traces(a.matrix)))
    return Estimator(pom, f, meta="no-info", out_of_range=_out_of_range(f, a))


def _outcome_traces(pom: Pom) -> np.ndarray:
    """tr M_k for every outcome: the squared norms of its amplitude rows, with no identity product."""
    u = pom.amplitudes
    return np.real(np.vecdot(u, u)).sum(-1)


def _no_info_values(t: np.ndarray, ta: np.ndarray) -> np.ndarray:
    """No-information estimate f_k = ta_k / t_k from t = tr M_k, ta = Re tr[A M_k]."""
    if np.any(t <= 0):
        raise ValueError("POM has a zero-trace outcome; no-information estimate undefined")
    return ta / t


def _bias_operator(pom: Pom, f, a: HermitianOperator) -> np.ndarray:
    """sum_k w_k f_k M_k - A, which vanishes for a universally unbiased estimate."""
    return pom.weighted_sum(pom.weights * f) - a.matrix


def unbiased_correction(est: Estimator, a: HermitianOperator, subspace_dim=None) -> Estimator:
    """Trade distance for bias when the bias has removable structure.

    Handles two patterns: a scalar bias sum_k w_k f_k M_k = A + r (subtract
    r), and, for qubit POMs, a linear bias removable with the ansatz
    g_k = c + v . m_k in the Bloch parametrization M_k = q_k (1 + sigma . m_k).
    Anything else raises ``NotCorrectableError``; both patterns must hold to
    ``BIAS_TOL`` times max(1, max |A_ij|).  For POMs truncated from an
    infinite-dimensional family, ``subspace_dim`` restricts the pattern match
    to the leading block where the truncation is faithful.
    """
    pom = est.pom
    bias = _bias_operator(pom, est.values, a)
    if subspace_dim is not None:
        bias = bias[:subspace_dim, :subspace_dim]
    block = bias.shape[0]
    scale = max(1.0, float(np.abs(a.matrix).max()))
    r = np.real(np.trace(bias)) / block
    if np.abs(bias - r * np.eye(block)).max() <= BIAS_TOL * scale:
        return Estimator(pom, est.values - r, meta="unbiased-corrected",
                         zero_probability=est.zero_probability)
    if pom.dim == 2:
        corrected = _qubit_linear_correction(pom, a, scale)
        if corrected is not None:
            return Estimator(pom, corrected, meta="unbiased-corrected")
    raise NotCorrectableError("bias operator is neither scalar nor qubit-linear within tolerance")


def _qubit_linear_correction(pom: Pom, a: HermitianOperator, scale):
    """Solve sum_k w_k g_k M_k = A with g_k affine in the outcome Bloch vector."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    q = _outcome_traces(pom) / 2  # M_k = q_k (1 + sigma . m_k) holds for every Hermitian M_k
    if q.min() <= BIAS_TOL:
        return None
    m = np.real([pom.traces(s) for s in paulis]).T / (2 * q[:, None])
    basis = np.hstack([np.ones((pom.n_outcomes, 1)), m])  # g_k = basis_k . (c, v)
    coeffs = [np.real(np.trace(a.matrix @ s)) / 2 for s in (np.eye(2),) + paulis]
    try:
        sol = np.linalg.solve((basis.T * (pom.weights * q)) @ basis, coeffs)
    except np.linalg.LinAlgError:
        return None
    g = basis @ sol
    if np.abs(_bias_operator(pom, g, a)).max() > BIAS_TOL * scale:
        return None
    return g


def estimate_stats(est: Estimator, a: HermitianOperator, rho: DensityOperator) -> EstimateStats:
    """Mean, rms dispersion of the estimate distribution, and inaccuracy, the statistical deviation
    D with D^2 = sum_k w_k tr[(A - f_k) rho (A - f_k) M_k], from one analysis of A:
    the one ``est`` was made from if that saw these very POM, rho and A (each immutable)."""
    an = est.analysis
    j = next((j for j, b in enumerate(an.observables) if b is a), None) if an is not None else None
    if j is None or an.pom is not est.pom or an.rho is not rho:
        an, j = optimal_analysis((a,), est.pom, rho), 0
    return EstimateStats(float(an.p @ est.values), an.dispersion(est.values), an.deviation(j, est.values))


@dataclass
class OptimalAnalysis:
    """Optimal estimates of several observables from one set of outcome traces.

    ``t`` = tr[rho M_k], ``t_a[j]`` = tr[rho A_j M_k] (complex) and
    ``t_aa[j]`` = tr[A_j rho A_j M_k] give the estimates f_k = Re t_a / t and
    the deviation D^2 = sum_k w_k (t_aa - 2 f_k Re t_a + f_k^2 t) of any value
    vector f; dispersions are taken under the outcome probabilities p = w t,
    clipped of -1e-10 roundoff.  Moments of the state read its factor columns [C, A_1 C, ...].

    For a stack of instances every array carries the stack's leading axes B after
    the observable index: ``t`` and ``p`` are (*B, K), ``t_a``, ``t_aa`` and ``values``
    (J, *B, K), ``variances`` (J, *B) and ``commutator_bound`` B; a value vector f is
    (*B, K), and each statistic of it is B.  One instance is the stack with B = ().
    """

    observables: tuple
    pom: Pom
    rho: DensityOperator
    columns: np.ndarray
    t: np.ndarray
    t_a: np.ndarray
    t_aa: np.ndarray
    p: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.pom.weights * self.t
        if p.min() < -1e-10:
            raise ValueError(f"probability {p.min():.3e} below tolerance: POM or state invalid")
        self.p = np.clip(p, 0.0, None)

    # formed on first read: estimate_stats needs none of them
    @cached_property
    def values(self) -> np.ndarray:
        """(J, *B, K) optimal values f_k = Re t_a / t, set to 0 where t < ``ZERO_PROB_TOL``."""
        zero = self.t < ZERO_PROB_TOL
        return np.where(zero, 0.0, np.real(self.t_a) / np.where(zero, 1.0, self.t))

    @property  # not cached: each Estimator refers back to this analysis, and a cycle waits for the GC
    def estimates(self) -> list:
        """``values`` as Estimators, with their zero-probability and out-of-range flags and this analysis."""
        if self.t.ndim > 1:
            raise ValueError(f"estimates are per instance, not for a stack of shape {self.t.shape}")
        return [Estimator(self.pom, f, meta="optimal-with-state", zero_probability=self.t < ZERO_PROB_TOL,
                          out_of_range=_out_of_range(f, a), analysis=self)
                for a, f in zip(self.observables, self.values)]

    @cached_property
    def dispersions(self) -> tuple:
        return tuple(self.dispersion(f) for f in self.values)

    @cached_property
    def inaccuracies(self) -> tuple:
        return tuple(self.deviation(j, f) for j, f in enumerate(self.values))

    @cached_property
    def variances(self) -> np.ndarray:
        """Var A_j = ||A_j C||^2 - (Re tr C† A_j C)^2, clipped at 0."""
        cols = self.columns
        rows = np.swapaxes(cols, -3, -2).reshape(*cols.shape[:-3], cols.shape[-2], -1)  # C, A_1 C, ... flat
        # the means by one BLAS gemv per instance; a vecdot sums them in another order
        mean = np.real(rows[..., 1:, :] @ rows[..., 0, :, None].conj())[..., 0]
        var = np.real(np.vecdot(rows[..., 1:, :], rows[..., 1:, :])) - mean**2
        return np.moveaxis(np.maximum(var, 0), -1, 0)

    @cached_property
    def commutator_bound(self) -> np.ndarray:
        """|<[A_0, A_1]>|/2 = |Im tr[(A_0 C)† A_1 C]|."""
        a0_c, a1_c = (self.columns[..., j, :].reshape(*self.columns.shape[:-3], -1) for j in (1, 2))
        return np.abs(np.imag(np.vecdot(a0_c, a1_c)))

    def deviation(self, j: int, f) -> np.ndarray:
        """Statistical deviation of observable j estimated by the values f; a D^2
        below -1e-9 signals a positivity bug upstream and raises."""
        f = np.asarray(f, float)
        d2 = np.vecdot(self.pom.weights, self.t_aa[j] - 2 * f * np.real(self.t_a[j]) + f * f * self.t)
        if (d2 < -1e-9).any():
            raise ValueError(f"statistical deviation squared is {np.min(d2):.3e}: positivity bug")
        return np.sqrt(np.maximum(d2, 0.0))

    def dispersion(self, f) -> np.ndarray:
        """Rms dispersion of the values f under the outcome probabilities."""
        f = np.asarray(f, float)
        mean = np.vecdot(self.p, f)
        return np.sqrt(np.maximum(np.vecdot(self.p, f**2) - mean * mean, 0.0))


def optimal_analysis(observables, pom: Pom, rho: DensityOperator) -> OptimalAnalysis:
    """``optimal_estimate`` and ``estimate_stats`` of each observable, and the
    outcome probabilities, from one (K, r, (1 + J) m) projection of the POM's
    amplitude rows onto the (d, 1 + J, m) columns [C, A_1 C, A_2 C, ...] of the
    state's factor rho = C C†, summed over each outcome's r rows.  Equal stacks
    of observables, states and POMs (the same leading axes) are analysed
    instance by instance in the same one projection."""
    observables = tuple(observables)
    if any(a.dim != pom.dim for a in observables) or rho.dim != pom.dim:
        raise DimensionMismatchError("operator, state and POM dimensions differ")
    c = rho.factor
    columns = np.stack([c] + [a.matrix @ c for a in observables], axis=-2)
    amps = pom.project(columns.reshape(*columns.shape[:-2], -1))
    # blocks <C|u>, <A_1 C|u>, ...; sum conj(<A c|u>) <c|u> is conj(tr[rho A M_k]): conjugate the sum
    n = amps.ndim  # (*B, K, r, (1 + J) m) -> blocks (1 + J, *B, K, r, m)
    blocks = amps.reshape(*amps.shape[:-1], -1, c.shape[-1]).transpose(n - 1, *range(n - 1), n)
    amp, amp_a = blocks[0], blocks[1:]
    return OptimalAnalysis(observables, pom, rho, columns, np.real(np.vecdot(amp, amp)).sum(-1),
                           np.conj(np.vecdot(amp_a, amp).sum(-1)), np.real(np.vecdot(amp_a, amp_a)).sum(-1))


def optimal_estimate_complete_pom(a_pom: Pom, m_pom: Pom, rho: DensityOperator) -> Estimator:
    """Optimal estimate of one complete (rank-one projective) POM from another.

    With Abar = sum_a a |a><a| built from the estimated POM, the value at
    outcome m is <m| rho Abar + Abar rho |m> / (2 <m| rho |m>), the optimal
    estimate of Abar read from one ``optimal_analysis`` of the measured POM.
    Requires that no ket of one family is orthogonal or proportional to a ket
    of the other, up to ``OVERLAP_TOL`` in the overlap modulus.
    """
    for name, pom in (("estimated", a_pom), ("measured", m_pom)):
        if pom.kets is None:
            raise ValueError(f"{name} POM must be complete (rank-one projective)")
        norms = np.sum(np.abs(pom.kets) ** 2, axis=1)
        if np.abs(norms - 1).max() > 1e-8 or pom.n_outcomes != pom.dim:
            raise ValueError(f"{name} POM is not an orthonormal rank-one family")
    if a_pom.dim != m_pom.dim or a_pom.dim != rho.dim:
        raise DimensionMismatchError("POMs and state must share one dimension")
    overlaps = np.abs(a_pom.kets.conj() @ m_pom.kets.T)
    if np.any(overlaps < OVERLAP_TOL) or np.any(np.abs(overlaps - 1) < OVERLAP_TOL):
        raise ValueError("kets of the two complete POMs are orthogonal or proportional")
    abar = (a_pom.kets.T * a_pom.values_array()) @ a_pom.kets.conj()
    return optimal_analysis((HermitianOperator(abar),), m_pom, rho).estimates[0]


def repeatability_check(a: HermitianOperator, m: HermitianOperator, rho: DensityOperator) -> bool:
    """Optimal estimates agree, to ``REPEATABILITY_TOL``, on rho and on the post-measurement ensemble.

    Requires [A, M] = 0; the measurement is the projective POM of M and the
    post-measurement state is sum_k M_k rho M_k.
    """
    comm = a.matrix @ m.matrix - m.matrix @ a.matrix
    if np.abs(comm).max() > 1e-10 * max(1.0, np.abs(a.matrix).max() * np.abs(m.matrix).max()):
        raise ValueError("A and M do not commute; repeatability undefined")
    pom = projective_pom(m)
    rho_bar = DensityOperator(sum(op @ rho.matrix @ op for op in pom.operators()))
    f_before = optimal_estimate(a, pom, rho)
    f_after = optimal_estimate(a, pom, rho_bar)
    keep = ~(f_before.zero_probability | f_after.zero_probability)
    return bool(np.abs(f_before.values[keep] - f_after.values[keep]).max() <= REPEATABILITY_TOL)
