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
``check_uncanon`` likewise reads one ``heterodyne_analysis`` result.

Exact finite-dimensional checks use saturation tolerance 1e-6;
grid-quadrature checks (``heterodyne_analysis``) use 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .estimation import (
    BIAS_TOL,
    Estimator,
    OptimalAnalysis,
    _bias_operator,
    _no_info_values,
    _outcome_traces,
    optimal_analysis,
    probabilities,
)
from .operators import DensityOperator, HermitianOperator
from .pom import Pom

__all__ = [
    "RelationReport",
    "report",
    "GridResolutionError",
    "UnbiasednessError",
    "commutator_bound",
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


def report(relation_id, lhs, rhs, saturation_tol, numeric_tol=NUMERIC_TOL, digest=None):
    """The RelationReport for lhs >= rhs, or lhs = rhs for an equality relation."""
    slack = lhs - rhs
    rep = RelationReport(relation_id, float(lhs), float(rhs), float(slack),
                         bool(abs(slack) < saturation_tol), False,
                         saturation_tol, numeric_tol, digest or {})
    judged = abs(slack) if relation_id in EQUALITY_RELATIONS else -slack
    rep.passed = bool(judged <= rep.pass_tolerance)
    return rep


def commutator_bound(a: HermitianOperator, b: HermitianOperator, rho: DensityOperator) -> float:
    """|<[A, B]>|/2; the commutator of Hermitian operators is anti-Hermitian."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(abs(np.trace(rho.matrix @ comm))) / 2


def check_geom(an: OptimalAnalysis) -> RelationReport:
    """Geometric relation for the optimal estimates of observables 0 and 1 of ``an``.

    lhs = sqrt(disp_A^2 + eps_A^2) * sqrt(disp_B^2 + eps_B^2), which equals
    DeltaA * DeltaB by the dispersion-inaccuracy Pythagorean identity; the
    observed gap between the two evaluations is recorded in the digest.
    """
    (a, b), rho = an.observables[:2], an.rho
    disp, eps = an.dispersions, an.inaccuracies
    lhs = float(np.sqrt(disp[0]**2 + eps[0]**2) * np.sqrt(disp[1]**2 + eps[1]**2))
    direct = float(np.sqrt(a.variance(rho) * b.variance(rho)))
    return report("geom", lhs, commutator_bound(a, b, rho), SATURATION_TOL_EXACT, NUMERIC_TOL,
                  {"delta_a_delta_b": direct, "pythagoras_gap": abs(lhs - direct)})


def check_accbound(an: OptimalAnalysis) -> RelationReport:
    """Incompatibility lower bound on the inaccuracy of observable 0's optimal estimate.

    lhs = eps(A_opt)^2; rhs sums |tr[rho [A, E_k]]|^2 / (4 tr[rho E_k]) over
    the effective elements E_k = w_k M_k, skipping zero-probability outcomes.
    Since tr[rho [A, E_k]] = 2i w_k Im tr[rho A M_k], the rhs reads Im t_a.
    Saturates for pure states measured by a complete (rank-one) family.
    """
    w, t = an.pom.weights, an.t
    keep = w * t > 1e-14
    rhs = float(np.sum(w[keep] * np.imag(an.t_a[0][keep]) ** 2 / t[keep]))
    return report("accbound", an.inaccuracies[0]**2, rhs, SATURATION_TOL_EXACT, NUMERIC_TOL,
                  {"n_outcomes_kept": int(keep.sum())})


def check_ungen(an: OptimalAnalysis, f, g) -> RelationReport:
    """Universal joint-measurement relation for arbitrary estimates f, g of
    observables 0 and 1 of ``an``, given as one value per outcome.

    lhs = disp_A eps_B + eps_A disp_B + eps_A eps_B >= |<[A,B]>|/2 = rhs.
    """
    disp_a, disp_b = an.dispersion(f), an.dispersion(g)
    eps_a, eps_b = an.deviation(0, f), an.deviation(1, g)
    lhs = disp_a * eps_b + eps_a * disp_b + eps_a * eps_b
    return report("ungen", lhs, commutator_bound(*an.observables[:2], an.rho),
                  SATURATION_TOL_EXACT, NUMERIC_TOL,
                  {"disp_a": disp_a, "eps_a": eps_a, "disp_b": disp_b, "eps_b": eps_b})


def check_uni(an: OptimalAnalysis, f, g, subspace_dim=None) -> RelationReport:
    """Product relation eps_A eps_B >= |<[A,B]>|/2 for universally unbiased
    estimates f, g of observables 0 and 1 of ``an``.

    The hypothesis sum_k w_k f_k M_k = A (and likewise for B) is verified up
    to ``BIAS_TOL`` before checking; for POMs truncated from continuous
    families pass ``subspace_dim`` to verify it on the faithful leading block.
    """
    a, b = an.observables[:2]
    gap_a, gap_b = (float(np.abs(_bias_operator(an.pom, v, op)[:subspace_dim, :subspace_dim]).max())
                    for v, op in ((f, a), (g, b)))
    if max(gap_a, gap_b) > BIAS_TOL:
        raise UnbiasednessError(
            f"estimates are not universally unbiased (gaps {gap_a:.2e}, {gap_b:.2e})"
        )
    eps_a, eps_b = an.deviation(0, f), an.deviation(1, g)
    return report("uni", eps_a * eps_b, commutator_bound(a, b, an.rho), SATURATION_TOL_EXACT,
                  NUMERIC_TOL, {"eps_a": eps_a, "eps_b": eps_b, "unbiased_gap": max(gap_a, gap_b)})


def check_varsum(an: OptimalAnalysis) -> RelationReport:
    """Pythagorean identity Var A = disp^2 + eps^2 for observable 0's optimal estimate."""
    a = an.observables[0]
    return report("varsum", a.variance(an.rho), an.dispersions[0]**2 + an.inaccuracies[0]**2,
                  1e-10, 1e-10)


@dataclass
class HeterodyneAnalysis:
    """Full diagnostics of a phase-space grid measurement on one state."""

    pom: Pom
    rho: DensityOperator
    p: np.ndarray
    est_1: Estimator
    est_2: Estimator
    disp: tuple
    eps2: tuple
    noinfo_disp: tuple
    fisher: np.ndarray
    fisher_marginal: tuple
    cov_q: np.ndarray
    excluded_mass: float
    crosscheck_max: float
    crosscheck_points: int
    mat_identity_gap: float
    reports: list

    @property
    def trace_fisher(self) -> float:
        return float(self.fisher[0, 0] + self.fisher[1, 1])


def _fisher(q, step):
    """Fisher matrix step^ndim sum (d_i q)(d_j q)/q of a sampled density q.

    Central differences over the interior points where q > 0; the boundary
    ring and the zeros of q carry weight 0.  Returns the gradient (ndim
    stacked arrays of q's shape), the matrix and the mask of weighted points.
    """
    g = np.reshape(np.gradient(q, step), (q.ndim, -1))
    interior = (slice(1, -1),) * q.ndim
    mask = np.zeros(q.shape, dtype=bool)
    mask[interior] = q[interior] > 0
    w = np.divide(1.0, q, out=np.zeros(q.shape), where=mask).ravel()
    return g.reshape(q.ndim, *q.shape), step**q.ndim * ((g * w) @ g.T), mask


def _extrapolated_fisher(q, step):
    """``_fisher`` with one step-doubling Richardson pass, (4 F_h - F_2h) / 3
    on every second point; it removes the clean O(step^2) error at zeros of q."""
    g, f_h, mask = _fisher(q, step)
    f_2h = _fisher(q[(slice(None, None, 2),) * q.ndim], 2 * step)[1]
    return g, (4 * f_h - f_2h) / 3, mask


def _cov(p, v):
    """Covariance matrix of the stacked value rows v under the probabilities p."""
    m = v @ p
    return (v * p) @ v.T - np.outer(m, m)


def _crosscheck(q, a, f, dq, step):
    """Largest gap between the direct estimates f and the log-gradient form
    a + dq/(4q), and the number of points where it is certified.

    A point is certified on the interior, where q and its four neighbours
    along each axis are resolved and a step-halving (Richardson) error
    estimate of the central difference dq is below half the grid tolerance.
    """
    qmax = q.max()
    check = np.zeros(q.shape, dtype=bool)
    check[2:-2, 2:-2] = q[2:-2, 2:-2] > 1e-6 * qmax
    for shift in (1, 2, -1, -2):
        for ax in (0, 1):
            check &= np.roll(q, shift, axis=ax) > 1e-14 * qmax
    d2q = np.zeros_like(dq)
    d2q[0, 2:-2] = (q[4:] - q[:-4]) / (4 * step)
    d2q[1, :, 2:-2] = (q[:, 4:] - q[:, :-4]) / (4 * step)
    with np.errstate(divide="ignore", invalid="ignore"):
        rich = np.abs(dq - d2q) / np.where(q > 0, q, 1.0) / 3 * 0.25
        gap = np.abs(a + 0.25 * dq / q - f)
    certified = check & (rich < 0.5 * SATURATION_TOL_GRID).all(axis=0)
    return float(gap[:, certified].max(initial=0.0)), int(certified.sum())


def heterodyne_analysis(rho: DensityOperator, pom: Pom) -> HeterodyneAnalysis:
    """Estimates, dispersions, inaccuracies and Fisher data for a grid POM.

    The two quadratures are estimated twice: directly from the state and the
    outcome operators, and from the gradient of log Q as
    alpha_j + (1/4) d_j log Q.  The two routes are compared on interior
    points where a step-halving (Richardson) error estimate certifies the
    finite difference; disagreement beyond the grid tolerance raises
    GridResolutionError.  The Fisher matrix is integrated as (dQ)(dQ)/Q on
    interior points with the boundary ring excluded and its probability mass
    reported.
    """
    if pom.kind != "coherent-grid" or pom.grid is None:
        raise ValueError("heterodyne analysis requires a vacuum-imageband (coherent) grid POM")
    n, h = pom.grid.points_per_axis, pom.grid.step
    p = probabilities(pom, rho)
    Q = (p / pom.weights / np.pi).reshape(n, n)

    quads = fock.quadratures(pom.dim)
    opt = optimal_analysis(quads, pom, rho, p)
    est_1, est_2 = opt.estimates
    disp, eps2 = opt.dispersions, tuple(e**2 for e in opt.inaccuracies)
    t_id = _outcome_traces(pom)
    noinfo_disp = tuple(opt.dispersion(_no_info_values(t_id, np.real(pom.traces(x.matrix))))
                        for x in quads)

    dQ, F, fmask = _extrapolated_fisher(Q, h)
    pm = p.reshape(n, n)
    excluded_mass = float(pm.sum() - pm[fmask].sum())
    # marginal Fisher informations for the Cramer-Rao intermediate step
    fisher_marginal = tuple(float(_extrapolated_fisher(Q.sum(axis=ax) * h, h)[1][0, 0])
                            for ax in (1, 0))

    a = np.stack([pom.values_array(0), pom.values_array(1)])
    f = np.stack([est_1.values, est_2.values])
    cov_q = _cov(p, a)
    mat_gap = float(np.abs(_cov(p, f) - (cov_q + F / 16 - np.eye(2) / 2)).max())

    cc_max, cc_pts = _crosscheck(Q, a.reshape(2, n, n), f.reshape(2, n, n), dQ, h)
    if cc_max > SATURATION_TOL_GRID:
        raise GridResolutionError(
            f"direct and log-gradient estimates disagree by {cc_max:.2e} "
            f"on {cc_pts} certified points (tol {SATURATION_TOL_GRID:.1e})"
        )

    # Cramer-Rao intermediates are theorems; violations beyond quadrature
    # slack mean the grid lies
    cr_slack = SATURATION_TOL_GRID * max(1.0, F[0, 0], F[1, 1])
    for j in (0, 1):
        if fisher_marginal[j] < 1 / cov_q[j, j] - cr_slack:
            raise GridResolutionError("marginal Fisher information violates Cramer-Rao on this grid")
        if F[j, j] < fisher_marginal[j] - cr_slack:
            raise GridResolutionError("joint Fisher information fell below its marginal")

    eps_sum = eps2[0] + eps2[1]
    tr_f = F[0, 0] + F[1, 1]
    digest = {"state_purity": rho.purity(), "grid": pom.grid.to_json(),
              "excluded_mass": excluded_mass}
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
    return HeterodyneAnalysis(pom, rho, p, est_1, est_2, disp, eps2, noinfo_disp,
                              F, fisher_marginal, cov_q, excluded_mass, cc_max, cc_pts,
                              mat_gap, reports)


def check_uncanon(analysis: HeterodyneAnalysis, hbar=1.0) -> RelationReport:
    """Canonical joint measurement mapped from the quadrature pair.

    The quadrature pair has commutator i/2; rescaling both outcomes by
    sqrt(2 hbar) produces a canonically conjugate pair, so the product of
    the optimal-estimate dispersions maps to 2 hbar times the quadrature
    value, bounded below by hbar/4.  The digest records the ratio to the
    universally-unbiased bound hbar.  Reads the dispersions of an existing
    ``heterodyne_analysis`` result.
    """
    product = 2 * hbar * analysis.disp[0] * analysis.disp[1]
    noinfo = 2 * hbar * analysis.noinfo_disp[0] * analysis.noinfo_disp[1]
    return report("uncanon", product, hbar / 4, SATURATION_TOL_GRID, SATURATION_TOL_GRID,
                  digest={"hbar": hbar, "unbiased_bound": hbar,
                          "ratio_to_unbiased_bound": product / hbar,
                          "noinfo_product": noinfo})
