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

from dataclasses import dataclass

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
    "statistical_deviation",
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
    probabilities: np.ndarray | None = None  # under the state it was made for, when already computed

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
    state: DensityOperator


def measurement_estimator(pom: Pom, component=None) -> Estimator:
    """The identity estimator: each outcome estimates its own value."""
    return Estimator(pom, pom.values_array(component), meta="measurement")


def probabilities(pom: Pom, rho: DensityOperator) -> np.ndarray:
    """Outcome probabilities p_k = w_k tr[rho M_k], clipped of -1e-10 roundoff."""
    if pom.dim != rho.dim:
        raise DimensionMismatchError(f"POM dim {pom.dim} vs state dim {rho.dim}")
    p = pom.weights * np.real(pom.traces(rho.matrix))
    if p.min() < -1e-10:
        raise ValueError(f"probability {p.min():.3e} below tolerance: POM or state invalid")
    return np.clip(p, 0.0, None)


def statistical_deviation(a: HermitianOperator, est: Estimator, rho: DensityOperator) -> float:
    """Root of D^2 = sum_k w_k tr[(A - f_k) rho (A - f_k) M_k].

    Accumulated per outcome in a manifestly nonnegative form; a total below
    -1e-9 signals a positivity bug upstream and raises.
    """
    pom = est.pom
    if not (a.dim == rho.dim == pom.dim):
        raise DimensionMismatchError("operator, state and POM dimensions differ")
    f = est.values
    if pom.kets is not None:
        amp, (amp_a,), lam = _projection(pom, rho, (a,))
        return _deviation_from_projection(pom.weights, amp_a, amp, f, lam)
    rho_m = rho.matrix
    a_rho_a = a.matrix @ rho_m @ a.matrix
    sym = a.matrix @ rho_m + rho_m @ a.matrix
    t0, t1, t2 = (np.real(pom.traces(x)) for x in (a_rho_a, sym, rho_m))
    d2 = float(pom.weights @ (t0 - f * t1 + f * f * t2))
    if d2 < -1e-9:
        raise ValueError(f"statistical deviation squared is {d2:.3e}: positivity bug")
    return float(np.sqrt(max(d2, 0.0)))


def _projection(pom: Pom, rho: DensityOperator, observables):
    """One projection of the kets onto [V, A_1 V, A_2 V, ...] for rho = V diag(lam) V†.

    Returns the (K, r) overlaps <a_k|V>, the list of (K, r) overlaps
    <a_k|A_j V>, and the eigenvalues lam > 1e-16.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-16
    cols, lam = vecs[:, keep], vals[keep]
    amps = pom.project(np.hstack([cols] + [a.matrix @ cols for a in observables]))
    r = lam.size
    return amps[:, :r], [amps[:, j * r:(j + 1) * r] for j in range(1, len(observables) + 1)], lam


def _deviation_from_projection(weights, amp_a, amp, f, lam) -> float:
    """Root of D^2 = sum_k w_k sum_n lam_n |<a_k|A|v_n> - f_k <a_k|v_n>|^2.

    ``amp_a`` and ``amp`` are the (K, r) projections of the kets onto A V and
    V for rho = V diag(lam) V†; each outcome's term is manifestly nonnegative.
    """
    d2 = float(weights @ (np.abs(amp_a - f[:, None] * amp) ** 2 @ lam))
    return float(np.sqrt(max(d2, 0.0)))


def hs_distance(a: HermitianOperator, pom: Pom) -> float:
    """State-independent distance d^2 = sum_k w_k tr[M_k (A - m_k)^2].

    Uses the POM's own outcome values; proportional to the average of the
    squared statistical deviation over uniformly random pure states, and
    equal to dim times that deviation at the maximally mixed state.
    """
    if a.dim != pom.dim:
        raise DimensionMismatchError("operator and POM dimensions differ")
    mixed = DensityOperator.maximally_mixed(pom.dim)
    return float(np.sqrt(pom.dim) * statistical_deviation(a, measurement_estimator(pom), mixed))


def _out_of_range(values, a: HermitianOperator):
    spec = np.linalg.eigvalsh(a.matrix)
    return (values < spec[0] - 1e-12) | (values > spec[-1] + 1e-12)


def optimal_estimate(a: HermitianOperator, pom: Pom, rho: DensityOperator,
                     zero_tol=ZERO_PROB_TOL) -> Estimator:
    """Deviation-minimizing estimate f_k = tr[rho(M_k A + A M_k)] / (2 tr[rho M_k]).

    Outcomes with tr[rho M_k] below ``zero_tol`` are flagged and assigned 0;
    any finite value there yields identical statistics.
    """
    if not (a.dim == rho.dim == pom.dim):
        raise DimensionMismatchError("operator, state and POM dimensions differ")
    return _estimate_from_traces(a, pom, np.real(pom.traces(rho.matrix)),
                                 np.real(pom.traces(rho.matrix @ a.matrix)), zero_tol)


def _estimate_from_traces(a: HermitianOperator, pom: Pom, t: np.ndarray, ta: np.ndarray,
                          zero_tol=ZERO_PROB_TOL) -> Estimator:
    """Optimal estimate f_k = ta_k / t_k from t = tr[rho M_k], ta = Re tr[rho A M_k]."""
    zero = t < zero_tol
    f = np.where(zero, 0.0, ta / np.where(zero, 1.0, t))
    return Estimator(pom, f, meta="optimal-with-state", zero_probability=zero,
                     out_of_range=_out_of_range(f, a))


def optimal_estimate_no_info(a: HermitianOperator, pom: Pom) -> Estimator:
    """Distance-minimizing estimate f_k = tr[A M_k]/tr[M_k] (no state needed).

    Coincides with ``optimal_estimate`` at the maximally mixed state.
    """
    if a.dim != pom.dim:
        raise DimensionMismatchError("operator and POM dimensions differ")
    f = _no_info_values(_outcome_traces(pom), np.real(pom.traces(a.matrix)))
    return Estimator(pom, f, meta="no-info", out_of_range=_out_of_range(f, a))


def _outcome_traces(pom: Pom) -> np.ndarray:
    """tr M_k for every outcome; on a kets POM the squared ket norms, with no identity product."""
    k = pom.kets
    return np.real(pom.traces(np.eye(pom.dim)) if k is None else np.vecdot(k, k))


def _no_info_values(t: np.ndarray, ta: np.ndarray) -> np.ndarray:
    """No-information estimate f_k = ta_k / t_k from t = tr M_k, ta = Re tr[A M_k]."""
    if np.any(t <= 0):
        raise ValueError("POM has a zero-trace outcome; no-information estimate undefined")
    return ta / t


def _bias_operator(est: Estimator, a: HermitianOperator) -> np.ndarray:
    """sum_k w_k f_k M_k - A, which vanishes for a universally unbiased estimate."""
    return est.pom.weighted_sum(est.pom.weights * est.values) - a.matrix


def unbiased_correction(est: Estimator, a: HermitianOperator, tol=1e-8,
                        subspace_dim=None) -> Estimator:
    """Trade distance for bias when the bias has removable structure.

    Handles two patterns: a scalar bias sum_k w_k f_k M_k = A + r (subtract
    r), and, for qubit POMs, a linear bias removable with the ansatz
    g_k = c + v . m_k in the Bloch parametrization M_k = q_k (1 + sigma . m_k).
    Anything else raises ``NotCorrectableError``.  For POMs truncated from an
    infinite-dimensional family, ``subspace_dim`` restricts the pattern match
    to the leading block where the truncation is faithful.
    """
    pom = est.pom
    bias = _bias_operator(est, a)
    if subspace_dim is not None:
        bias = bias[:subspace_dim, :subspace_dim]
    block = bias.shape[0]
    scale = max(1.0, float(np.abs(a.matrix).max()))
    r = np.real(np.trace(bias)) / block
    if np.abs(bias - r * np.eye(block)).max() <= tol * scale:
        return Estimator(pom, est.values - r, meta="unbiased-corrected",
                         zero_probability=est.zero_probability)
    if pom.dim == 2:
        corrected = _qubit_linear_correction(pom, a, tol, scale)
        if corrected is not None:
            return Estimator(pom, corrected, meta="unbiased-corrected")
    raise NotCorrectableError("bias operator is neither scalar nor qubit-linear within tolerance")


def _qubit_linear_correction(pom: Pom, a: HermitianOperator, tol, scale):
    """Solve sum_k w_k g_k M_k = A with g_k affine in the outcome Bloch vector."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    q = np.empty(pom.n_outcomes)
    m = np.empty((pom.n_outcomes, 3))
    for k, op in enumerate(pom.operators()):
        q[k] = np.real(np.trace(op)) / 2
        if q[k] <= tol:
            return None
        m[k] = [np.real(np.trace(op @ s)) / (2 * q[k]) for s in paulis]
        model = q[k] * (np.eye(2) + sum(c * s for c, s in zip(m[k], paulis)))
        if np.abs(model - op).max() > tol * scale:
            return None
    wq = pom.weights * q
    a0 = np.real(np.trace(a.matrix)) / 2
    avec = np.array([np.real(np.trace(a.matrix @ s)) / 2 for s in paulis])
    u = wq @ m
    lam = (m.T * wq) @ m
    system = np.zeros((4, 4))
    system[0, 0] = wq.sum()
    system[0, 1:] = u
    system[1:, 0] = u
    system[1:, 1:] = lam
    try:
        sol = np.linalg.solve(system, np.concatenate([[a0], avec]))
    except np.linalg.LinAlgError:
        return None
    g = sol[0] + m @ sol[1:]
    if np.abs(_bias_operator(Estimator(pom, g), a)).max() > tol * scale:
        return None
    return g


def estimate_stats(est: Estimator, a: HermitianOperator, rho: DensityOperator,
                   p: np.ndarray | None = None) -> EstimateStats:
    """Mean, rms dispersion of the estimate distribution, and inaccuracy.

    ``p`` takes the outcome probabilities of ``rho`` when the caller already
    holds them; by default they are computed here.
    """
    if p is None:
        p = probabilities(est.pom, rho)
    mean, dispersion = _mean_and_dispersion(p, est.values)
    return EstimateStats(mean, dispersion, statistical_deviation(a, est, rho), rho)


def _mean_and_dispersion(p: np.ndarray, values: np.ndarray):
    """Mean and rms dispersion of the values under the outcome probabilities p."""
    mean = float(p @ values)
    return mean, float(np.sqrt(max(float(p @ values**2) - mean * mean, 0.0)))


@dataclass
class OptimalAnalysis:
    """Per observable: optimal estimate, its dispersion and inaccuracy, no-information dispersion."""

    estimates: list
    dispersions: tuple
    inaccuracies: tuple
    noinfo_dispersions: tuple


def optimal_analysis(observables, pom: Pom, rho: DensityOperator,
                     p: np.ndarray) -> OptimalAnalysis:
    """``optimal_estimate``, ``estimate_stats`` and the no-information
    dispersion of each observable, from one projection of the kets onto
    [V, A_1 V, A_2 V, ...] for rho = V diag(lam) V† and one tr M_k.

    ``p`` holds the outcome probabilities ``probabilities(pom, rho)``.
    """
    if pom.kets is None:
        raise ValueError("optimal_analysis needs a POM of rank-one kets")
    if any(a.dim != pom.dim for a in observables) or rho.dim != pom.dim:
        raise DimensionMismatchError("operator, state and POM dimensions differ")
    amp, amp_as, lam = _projection(pom, rho, observables)
    t = np.abs(amp) ** 2 @ lam
    t_id = _outcome_traces(pom)
    estimates, dispersions, inaccuracies, noinfo = [], [], [], []
    for a, amp_a in zip(observables, amp_as):
        est = _estimate_from_traces(a, pom, t, np.real(amp * amp_a.conj()) @ lam)
        estimates.append(est)
        dispersions.append(_mean_and_dispersion(p, est.values)[1])
        inaccuracies.append(_deviation_from_projection(pom.weights, amp_a, amp, est.values, lam))
        f_ni = _no_info_values(t_id, np.real(pom.traces(a.matrix)))
        noinfo.append(_mean_and_dispersion(p, f_ni)[1])
    return OptimalAnalysis(estimates, tuple(dispersions), tuple(inaccuracies), tuple(noinfo))


def optimal_estimate_complete_pom(a_pom: Pom, m_pom: Pom, rho: DensityOperator,
                                  overlap_tol=1e-10) -> Estimator:
    """Optimal estimate of one complete (rank-one projective) POM from another.

    With Abar = sum_a a |a><a| built from the estimated POM, the value at
    outcome m is <m| rho Abar + Abar rho |m> / (2 <m| rho |m>).  Requires
    that no ket of one family is proportional to a ket of the other.
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
    if np.any(overlaps < overlap_tol) or np.any(np.abs(overlaps - 1) < overlap_tol):
        raise ValueError("kets of the two complete POMs are orthogonal or proportional")
    avals = a_pom.values_array()
    abar = (a_pom.kets.T * avals) @ a_pom.kets.conj()
    sym = rho.matrix @ abar + abar @ rho.matrix
    return _estimate_from_traces(HermitianOperator(abar), m_pom, np.real(m_pom.traces(rho.matrix)),
                                 np.real(m_pom.traces(sym)) / 2)


def repeatability_check(a: HermitianOperator, m: HermitianOperator, rho: DensityOperator,
                        tol=1e-10) -> bool:
    """Optimal estimates agree on rho and on the post-measurement ensemble.

    Requires [A, M] = 0; the measurement is the projective POM of M and the
    post-measurement state is sum_k M_k rho M_k.
    """
    comm = a.matrix @ m.matrix - m.matrix @ a.matrix
    if np.abs(comm).max() > 1e-10 * max(1.0, np.abs(a.matrix).max() * np.abs(m.matrix).max()):
        raise ValueError("A and M do not commute; repeatability undefined")
    pom = projective_pom(m)
    post = np.zeros_like(rho.matrix)
    for op in pom.operators():
        post += op @ rho.matrix @ op
    rho_bar = DensityOperator(post)
    f_before = optimal_estimate(a, pom, rho)
    f_after = optimal_estimate(a, pom, rho_bar)
    keep = ~(f_before.zero_probability | f_after.zero_probability)
    return bool(np.abs(f_before.values[keep] - f_after.values[keep]).max() <= tol)
