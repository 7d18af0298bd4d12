"""Numerical verifiers for the uncertainty relations obeyed by estimates.

Every checker returns a RelationReport holding the two sides of the
inequality, the slack and a saturation flag.  Reports are oriented so that
the theorem reads lhs >= rhs; for the one upper bound (``tracefish``) the
bound itself is stored as lhs so that a passing report always has
``slack = lhs - rhs >= -numeric_tol``.  Equality-type relations
(``varsum``, ``fishident``, the CLI's ``thermalgap`` and ``completeness``)
are judged on |slack|.  ``report`` builds every RelationReport and
``RelationReport.to_json`` is the one row serializer.

The exact finite-dimensional checkers read one ``OptimalAnalysis`` of A
(observable 0) and B (observable 1), which takes an instance's per-outcome
traces once; ``check_ungen`` and ``check_uni`` judge any value vectors f, g.
An analysis of a stack of instances is checked in one pass over its arrays
and gives a list of reports, one per instance in stack order; an analysis of
one instance gives its report.  ``check_uncanon`` likewise reads one
``heterodyne_analysis`` result.

Exact finite-dimensional checks use saturation tolerance 1e-6;
grid-quadrature checks (``heterodyne_analysis``) use 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .estimation import (
    BIAS_TOL,
    ZERO_PROB_TOL,
    OptimalAnalysis,
    _bias_operator,
    _no_info_values,
    _outcome_traces,
    optimal_analysis,
)
from .operators import DensityOperator
from .pom import Pom

__all__ = [
    "RelationReport",
    "report",
    "GridResolutionError",
    "UnbiasednessError",
    "check_geom",
    "check_accbound",
    "check_ungen",
    "check_uni",
    "check_varsum",
    "check_uncanon",
    "HeterodyneAnalysis",
    "heterodyne_analysis",
    "SATURATION_TOL_EXACT",
    "SATURATION_TOL_GRID",
    "NUMERIC_TOL",
]

SATURATION_TOL_EXACT = 1e-6
SATURATION_TOL_GRID = 1e-3
NUMERIC_TOL = 1e-9

EQUALITY_RELATIONS = {"varsum", "fishident", "thermalgap", "completeness"}


class GridResolutionError(RuntimeError):
    """Grid too coarse for the requested quadrature or cross-check."""


class UnbiasednessError(ValueError):
    """Estimator fails the universal-unbiasedness hypothesis of the relation."""


@dataclass
class RelationReport:
    """One verified relation: lhs >= rhs with slack = lhs - rhs.

    ``saturated`` flags |slack| < saturation_tol; ``passed`` means
    slack >= -numeric_tol (or |slack| <= numeric precision for
    equality-type relations).
    """

    relation_id: str
    lhs: float
    rhs: float
    slack: float
    saturated: bool
    passed: bool
    saturation_tol: float
    numeric_tol: float
    inputs_digest: dict = field(default_factory=dict)

    @property
    def pass_tolerance(self) -> float:
        """The tolerance ``passed`` is judged at: on |slack| for an equality, on -slack otherwise."""
        if self.relation_id in EQUALITY_RELATIONS:
            return max(self.saturation_tol, self.numeric_tol)
        return self.numeric_tol

    def to_json(self, scenario: str) -> dict:
        """One report row; ``tolerance`` is the saturation tolerance and
        ``pass_tolerance`` the one ``passed`` was judged at."""
        return {
            "scenario": scenario,
            "relation_id": self.relation_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "saturated": self.saturated,
            "tolerance": self.saturation_tol,
            "pass_tolerance": self.pass_tolerance,
            "passed": self.passed,
            "inputs_digest": self.inputs_digest,
        }


def report(relation_id, lhs, rhs, saturation_tol, numeric_tol, digest=None):
    """The RelationReport for lhs >= rhs, or lhs = rhs for an equality relation."""
    slack = lhs - rhs
    rep = RelationReport(relation_id, float(lhs), float(rhs), float(slack),
                         bool(abs(slack) < saturation_tol), False,
                         saturation_tol, numeric_tol, digest or {})
    judged = abs(slack) if relation_id in EQUALITY_RELATIONS else -slack
    rep.passed = bool(judged <= rep.pass_tolerance)
    return rep


def _reports(relation_id, lhs, rhs, saturation_tol, numeric_tol, **digest):
    """``report`` for each instance of the stack the sides are arrays over: one RelationReport
    for scalar sides, else a list in stack order; each digest entry is an array like the sides."""
    columns = [np.ravel(x).tolist() for x in np.broadcast_arrays(lhs, rhs, *digest.values())]
    reps = [report(relation_id, lo, hi, saturation_tol, numeric_tol, dict(zip(digest, values)))
            for lo, hi, *values in zip(*columns)]
    return reps if np.ndim(lhs) else reps[0]


def _square(x):
    """x**2 rounded as libm ``pow`` rounds it, like a Python float's ** 2; numpy's ** 2 is x*x,
    whose last bit differs for about one input in 1,200."""
    return np.float_power(x, 2)


def check_geom(an: OptimalAnalysis) -> RelationReport | list:
    """Geometric relation for the optimal estimates of observables 0 and 1 of ``an``.

    lhs = sqrt(disp_A^2 + eps_A^2) * sqrt(disp_B^2 + eps_B^2), which equals
    DeltaA * DeltaB by the dispersion-inaccuracy Pythagorean identity; the
    observed gap between the two evaluations is recorded in the digest.
    """
    disp, eps = an.dispersions, an.inaccuracies
    lhs = np.sqrt(_square(disp[0]) + _square(eps[0])) * np.sqrt(_square(disp[1]) + _square(eps[1]))
    direct = np.sqrt(an.variances[0] * an.variances[1])
    return _reports("geom", lhs, an.commutator_bound, SATURATION_TOL_EXACT, NUMERIC_TOL,
                    delta_a_delta_b=direct, pythagoras_gap=np.abs(lhs - direct))


def check_accbound(an: OptimalAnalysis) -> RelationReport | list:
    """Incompatibility lower bound on the inaccuracy of observable 0's optimal estimate.

    lhs = eps(A_opt)^2; rhs sums |tr[rho [A, E_k]]|^2 / (4 tr[rho E_k]) over
    the effective elements E_k = w_k M_k, skipping zero-probability outcomes.
    Since tr[rho [A, E_k]] = 2i w_k Im tr[rho A M_k], the rhs reads Im t_a.
    Saturates for pure states measured by a complete (rank-one) family.
    """
    w, t = an.pom.weights, an.t
    keep = w * t > 1e-14
    terms = np.divide(w * np.imag(an.t_a[0]) ** 2, t, out=np.zeros(t.shape), where=keep)
    return _reports("accbound", _square(an.inaccuracies[0]), terms.sum(axis=-1), SATURATION_TOL_EXACT,
                    NUMERIC_TOL, n_outcomes_kept=keep.sum(axis=-1))


def check_ungen(an: OptimalAnalysis, f, g) -> RelationReport | list:
    """Universal joint-measurement relation for arbitrary estimates f, g of
    observables 0 and 1 of ``an``, given as one value per outcome.

    lhs = disp_A eps_B + eps_A disp_B + eps_A eps_B >= |<[A,B]>|/2 = rhs.
    """
    disp_a, disp_b = an.dispersion(f), an.dispersion(g)
    eps_a, eps_b = an.deviation(0, f), an.deviation(1, g)
    lhs = disp_a * eps_b + eps_a * disp_b + eps_a * eps_b
    return _reports("ungen", lhs, an.commutator_bound, SATURATION_TOL_EXACT, NUMERIC_TOL,
                    disp_a=disp_a, eps_a=eps_a, disp_b=disp_b, eps_b=eps_b)


def check_uni(an: OptimalAnalysis, f, g, subspace_dim=None) -> RelationReport | list:
    """Product relation eps_A eps_B >= |<[A,B]>|/2 for universally unbiased
    estimates f, g of observables 0 and 1 of ``an``.

    The hypothesis sum_k w_k f_k M_k = A (and likewise for B) is verified up
    to ``BIAS_TOL`` before checking; for POMs truncated from continuous
    families pass ``subspace_dim`` to verify it on the faithful leading block.
    """
    gap_a, gap_b = (np.abs(_bias_operator(an.pom, v, op)[..., :subspace_dim, :subspace_dim]).max((-2, -1))
                    for v, op in zip((f, g), an.observables))
    if np.any(np.maximum(gap_a, gap_b) > BIAS_TOL):
        raise UnbiasednessError(
            f"estimates are not universally unbiased (gaps {np.max(gap_a):.2e}, {np.max(gap_b):.2e})"
        )
    eps_a, eps_b = an.deviation(0, f), an.deviation(1, g)
    return _reports("uni", eps_a * eps_b, an.commutator_bound, SATURATION_TOL_EXACT, NUMERIC_TOL,
                    eps_a=eps_a, eps_b=eps_b, unbiased_gap=np.maximum(gap_a, gap_b))


def check_varsum(an: OptimalAnalysis) -> RelationReport | list:
    """Pythagorean identity Var A = disp^2 + eps^2 for observable 0's optimal estimate."""
    return _reports("varsum", an.variances[0], _square(an.dispersions[0]) + _square(an.inaccuracies[0]),
                    1e-10, 1e-10)


@dataclass
class HeterodyneAnalysis:
    """Full diagnostics of a phase-space grid measurement on one state: the one ``OptimalAnalysis``
    of X1, X2 (POM, state, p, estimates and their statistics) and what ``heterodyne_analysis`` adds."""

    optimal: OptimalAnalysis
    noinfo_disp: tuple
    fisher: np.ndarray
    fisher_marginal: tuple
    cov_q: np.ndarray
    crosscheck_rms: float
    mat_identity_gap: float
    reports: list

    @property
    def trace_fisher(self) -> float:
        return float(self.fisher[0, 0] + self.fisher[1, 1])


def _cov(p, v):
    """Covariance matrix of the stacked value rows v under the probabilities p."""
    m = v @ p
    return (v * p) @ v.T - np.outer(m, m)


def _spectral_gradient(q, step):
    """Derivative of q along each axis of its square grid by FFT, the grid taken as one
    period: spectrally accurate for a q that has decayed at the edges (Trefethen and
    Weideman, SIAM Rev. 56, 385 (2014)), and independent of the estimates."""
    n = q.shape[0]
    ik = 2j * np.pi * np.fft.rfftfreq(n, step)
    return np.stack([np.fft.irfft(ik[:, None] * np.fft.rfft(q, axis=0), n, axis=0),
                     np.fft.irfft(ik * np.fft.rfft(q, axis=1), n, axis=1)])


def _annihilation_traces(kets: np.ndarray) -> np.ndarray:
    """tr[a M_k] = <u_k|a|u_k> for (K, d) kets, with a|u>_n = sqrt(n+1) u_{n+1} read from each ket
    shifted by one level, ``fock._ROW_CHUNK`` rows at a time.  The sum runs over all d levels, the
    top one a zero, as ``Pom.traces(fock.annihilation(d))`` sums it: the two agree bit for bit."""
    sqrt_n, traces = np.sqrt(np.arange(1, kets.shape[-1])), np.empty(len(kets), dtype=complex)
    shifted = np.zeros((fock._ROW_CHUNK, kets.shape[-1]), dtype=complex)
    for c in fock._row_chunks(len(kets)):
        u = kets[c]
        a_u = shifted[: len(u)]
        np.multiply(u[:, 1:], sqrt_n, out=a_u[:, :-1])
        traces[c] = np.vecdot(u, a_u)
    return traces


def heterodyne_analysis(rho: DensityOperator, pom: Pom) -> HeterodyneAnalysis:
    """Optimal quadrature estimates on a grid POM, kept as one ``OptimalAnalysis``, and their Fisher data.

    The optimal estimates are the paper's f_j = alpha_j + (1/4) dlog Q/dalpha_j,
    so dQ/dalpha_j = 4 Q d_j with d = f - alpha is exact at every grid point, and
    so are F = 16 sum_k p_k d_k d_k^T and the marginals
    16 sum_i (sum_j p d)^2 / sum_j p, rows i and columns j of the grid.
    At an exact zero of Q every <alpha|c> vanishes, <alpha|X_j c> is <alpha|a c>/2
    up to a phase, and |grad Q|^2 / Q tends to (4/pi) sum_c |<alpha|a c>|^2; each
    diagonal entry takes half of that cell's limit, 8 w tr[X_j rho X_j M_k], and the
    off-diagonal entries nothing.  The formula is checked against an independent
    spectral derivative of Q: an rms gap under p, on the points where
    Q > 1e-6 max Q, beyond the grid tolerance raises GridResolutionError: the grid
    is too coarse, or the state has population near the Fock cut, where the
    truncated kets are no longer coherent states.
    """
    if pom.kind != "coherent-grid" or pom.grid is None:
        raise ValueError("heterodyne analysis requires a vacuum-imageband (coherent) grid POM")
    n, h, w = pom.grid.points_per_axis, pom.grid.step, pom.weights
    opt = optimal_analysis(fock.quadratures(pom.dim), pom, rho)
    p = opt.p
    disp, eps2 = opt.dispersions, tuple(e**2 for e in opt.inaccuracies)
    # tr[a M_k] = tr[X1 M_k] + i tr[X2 M_k]: both no-information traces from one pass
    t_id, t_a = _outcome_traces(pom), _annihilation_traces(pom.kets)
    noinfo_disp = tuple(opt.dispersion(_no_info_values(t_id, t)) for t in (t_a.real, t_a.imag))

    alphas = pom.grid.points()[0]
    a, f = np.stack([alphas.real, alphas.imag]), opt.values
    d = f - a
    pd = d * p
    F = 16 * pd @ d.T
    cov_q = _cov(p, a)
    # Cov f under p and the grid sum F both leave out the zero cells
    mat_gap = float(np.abs(_cov(p, f) - (cov_q + F / 16 - np.eye(2) / 2)).max())
    zero_fisher = 8 * opt.t_aa @ np.where(opt.t < ZERO_PROB_TOL, w, 0.0)
    F += np.diag(zero_fisher)
    # marginal Fisher informations for the Cramer-Rao step: quadrature j's sums the other axis
    pm, pdm = p.reshape(n, n), pd.reshape(2, n, n)
    fisher_marginal = tuple(16 * float(np.divide(m**2, s, out=np.zeros(n), where=s > 0).sum())
                            for m, s in ((pdm[0].sum(1), pm.sum(1)), (pdm[1].sum(0), pm.sum(0))))

    q = p / w / np.pi  # Q at the grid points
    check = q > 1e-6 * q.max()
    dq = _spectral_gradient(q.reshape(n, n), h).reshape(2, -1)[:, check]
    gap = a[:, check] + 0.25 * dq / q[check] - f[:, check]
    cc_rms = float(np.sqrt(p[check] @ (gap**2).sum(axis=0)))
    if cc_rms > SATURATION_TOL_GRID:
        raise GridResolutionError(
            f"direct and spectral log-gradient estimates differ by {cc_rms:.2e} rms "
            f"(tol {SATURATION_TOL_GRID:.1e}): the grid is too coarse, or the state has "
            f"population near the Fock cut fock_dim = {pom.dim}"
        )

    # marginal Cramer-Rao rests on the grid's first moments sum_k w alpha_k M_k = X_j,
    # so a violation beyond quadrature slack means the grid lies
    cr_slack = SATURATION_TOL_GRID * max(1.0, F[0, 0], F[1, 1])
    for j in (0, 1):
        if fisher_marginal[j] < 1 / cov_q[j, j] - cr_slack:
            raise GridResolutionError("marginal Fisher information violates Cramer-Rao on this grid")

    eps_sum = eps2[0] + eps2[1]
    tr_f = F[0, 0] + F[1, 1]
    digest = {"state_purity": rho.purity(), "grid": pom.grid.to_json(),
              "crosscheck_rms": cc_rms, "zero_cell_fisher": float(zero_fisher.sum())}
    # quadrature relations pass at the grid tolerance, not at exact arithmetic
    tol = SATURATION_TOL_GRID
    reports = [
        report("unbest", disp[0] * disp[1], 0.125, tol, tol, digest),
        report("accbest", eps_sum, 0.25, tol, tol, digest),
        report("fishbound", eps2[0], F[1, 1] / 16, tol, tol, dict(digest, quadrature=1)),
        report("fishbound", eps2[1], F[0, 0] / 16, tol, tol, dict(digest, quadrature=2)),
        report("tracefish", 4.0, tr_f, tol, tol, digest),
        report("fishident", eps_sum, 0.5 - tr_f / 16, tol, tol, digest),
    ]
    return HeterodyneAnalysis(opt, noinfo_disp, F, fisher_marginal, cov_q, cc_rms, mat_gap, reports)


def check_uncanon(analysis: HeterodyneAnalysis, hbar) -> RelationReport:
    """Canonical joint measurement mapped from the quadrature pair.

    The quadrature pair has commutator i/2; rescaling both outcomes by
    sqrt(2 hbar) produces a canonically conjugate pair, so the product of
    the optimal-estimate dispersions maps to 2 hbar times the quadrature
    value, bounded below by hbar/4.  The digest records the ratio to the
    universally-unbiased bound hbar.  Reads the dispersions of an existing
    ``heterodyne_analysis`` result.
    """
    product = 2 * hbar * analysis.optimal.dispersions[0] * analysis.optimal.dispersions[1]
    noinfo = 2 * hbar * analysis.noinfo_disp[0] * analysis.noinfo_disp[1]
    return report("uncanon", product, hbar / 4, SATURATION_TOL_GRID, SATURATION_TOL_GRID,
                  digest={"hbar": hbar, "unbiased_bound": hbar,
                          "ratio_to_unbiased_bound": product / hbar,
                          "noinfo_product": noinfo})
