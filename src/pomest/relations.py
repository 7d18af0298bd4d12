"""Numerical verifiers for the uncertainty relations obeyed by estimates.

Every checker returns a RelationReport holding the two sides of the
inequality, the slack and a saturation flag.  Reports are oriented so that
the theorem reads lhs >= rhs; for the one upper bound (``tracefish``) the
bound itself is stored as lhs so that a passing report always has
``slack = lhs - rhs >= -numeric_tol``.  Equality-type relations
(``varsum``, ``fishident``, the CLI's ``thermalgap`` and ``completeness``)
are judged on |slack|.  ``report`` builds every RelationReport and
``RelationReport.to_json`` is the one row serializer.

Exact finite-dimensional checks default to saturation tolerance 1e-6;
grid-quadrature checks (``heterodyne_analysis``) use 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    Estimator,
    _bias_operator,
    _estimate_from_traces,
    estimate_stats,
    optimal_analysis,
    optimal_estimate,
    probabilities,
    statistical_deviation,
)
from .operators import DensityOperator, DimensionMismatchError, HermitianOperator
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


def check_geom(a: HermitianOperator, b: HermitianOperator, pom: Pom, rho: DensityOperator,
               saturation_tol=SATURATION_TOL_EXACT, numeric_tol=NUMERIC_TOL) -> RelationReport:
    """Geometric relation for optimal estimates of two observables.

    lhs = sqrt(disp_A^2 + eps_A^2) * sqrt(disp_B^2 + eps_B^2), which equals
    DeltaA * DeltaB by the dispersion-inaccuracy Pythagorean identity; the
    observed gap between the two evaluations is recorded in the digest.
    """
    p = probabilities(pom, rho)
    sa = estimate_stats(optimal_estimate(a, pom, rho), a, rho, p)
    sb = estimate_stats(optimal_estimate(b, pom, rho), b, rho, p)
    lhs = float(np.sqrt(sa.dispersion**2 + sa.inaccuracy**2) * np.sqrt(sb.dispersion**2 + sb.inaccuracy**2))
    rhs = commutator_bound(a, b, rho)
    direct = float(np.sqrt(a.variance(rho) * b.variance(rho)))
    return report("geom", lhs, rhs, saturation_tol, numeric_tol,
                  {"delta_a_delta_b": direct, "pythagoras_gap": abs(lhs - direct)})


def check_accbound(a: HermitianOperator, pom: Pom, rho: DensityOperator,
                   saturation_tol=SATURATION_TOL_EXACT, numeric_tol=NUMERIC_TOL) -> RelationReport:
    """Incompatibility lower bound on the optimal estimate's inaccuracy.

    lhs = eps(A_opt)^2; rhs sums |tr[rho [A, E_k]]|^2 / (4 tr[rho E_k]) over
    the effective elements E_k = w_k M_k, skipping zero-probability outcomes.
    Saturates for pure states measured by a complete (rank-one) family.
    """
    if not (a.dim == rho.dim == pom.dim):
        raise DimensionMismatchError("operator, state and POM dimensions differ")
    # tr[rho [A, E_k]] = 2i w_k Im tr[rho A M_k]: one trace serves both sides
    t = np.real(pom.traces(rho.matrix))
    t_ra = pom.traces(rho.matrix @ a.matrix)
    eps = statistical_deviation(a, _estimate_from_traces(a, pom, t, np.real(t_ra)), rho)
    keep = pom.weights * t > 1e-14
    rhs = float(np.sum(pom.weights[keep] * np.imag(t_ra[keep]) ** 2 / t[keep]))
    return report("accbound", eps**2, rhs, saturation_tol, numeric_tol,
                  {"n_outcomes_kept": int(keep.sum())})


def check_ungen(a: HermitianOperator, b: HermitianOperator, est_a: Estimator,
                est_b: Estimator, rho: DensityOperator,
                saturation_tol=SATURATION_TOL_EXACT, numeric_tol=NUMERIC_TOL) -> RelationReport:
    """Universal joint-measurement relation for arbitrary estimates f, g.

    lhs = disp_A eps_B + eps_A disp_B + eps_A eps_B >= |<[A,B]>|/2 = rhs.
    Both estimators must read out the same measurement.
    """
    if est_a.pom is not est_b.pom:
        raise ValueError("both estimates must be functions of one measurement")
    p = probabilities(est_a.pom, rho)
    sa = estimate_stats(est_a, a, rho, p)
    sb = estimate_stats(est_b, b, rho, p)
    lhs = sa.dispersion * sb.inaccuracy + sa.inaccuracy * sb.dispersion + sa.inaccuracy * sb.inaccuracy
    rhs = commutator_bound(a, b, rho)
    return report("ungen", lhs, rhs, saturation_tol, numeric_tol,
                  {"disp_a": sa.dispersion, "eps_a": sa.inaccuracy,
                   "disp_b": sb.dispersion, "eps_b": sb.inaccuracy})


def check_uni(a: HermitianOperator, b: HermitianOperator, est_a: Estimator, est_b: Estimator,
              rho: DensityOperator, unbiased_tol=1e-8, subspace_dim=None,
              saturation_tol=SATURATION_TOL_EXACT, numeric_tol=NUMERIC_TOL) -> RelationReport:
    """Product relation eps_A eps_B >= |<[A,B]>|/2 for universally unbiased estimates.

    The hypothesis sum_k w_k f_k M_k = A (and likewise for B) is verified up
    to ``unbiased_tol`` before checking; for POMs truncated from continuous
    families pass ``subspace_dim`` to verify it on the faithful leading block.
    """
    gap_a, gap_b = (float(np.abs(_bias_operator(est, op)[:subspace_dim, :subspace_dim]).max())
                    for est, op in ((est_a, a), (est_b, b)))
    if max(gap_a, gap_b) > unbiased_tol:
        raise UnbiasednessError(
            f"estimates are not universally unbiased (gaps {gap_a:.2e}, {gap_b:.2e})"
        )
    eps_a = statistical_deviation(a, est_a, rho)
    eps_b = statistical_deviation(b, est_b, rho)
    rhs = commutator_bound(a, b, rho)
    return report("uni", eps_a * eps_b, rhs, saturation_tol, numeric_tol,
                  {"eps_a": eps_a, "eps_b": eps_b, "unbiased_gap": max(gap_a, gap_b)})


def check_varsum(a: HermitianOperator, pom: Pom, rho: DensityOperator) -> RelationReport:
    """Pythagorean identity Var A = disp^2 + eps^2 for the optimal estimate."""
    stats = estimate_stats(optimal_estimate(a, pom, rho), a, rho)
    return report("varsum", a.variance(rho), stats.dispersion**2 + stats.inaccuracy**2,
                  1e-10, 1e-10)


@dataclass
class HeterodyneAnalysis:
    """Full diagnostics of a phase-space grid measurement on one state."""

    pom: Pom
    rho: DensityOperator
    p: np.ndarray
    q_values: np.ndarray
    est_1: Estimator
    est_2: Estimator
    disp: tuple
    eps2: tuple
    noinfo_disp: tuple
    fisher: np.ndarray
    fisher_marginal: tuple
    cov_q: np.ndarray
    cov_opt: np.ndarray
    excluded_mass: float
    crosscheck_max: float
    crosscheck_points: int
    mat_identity_gap: float
    reports: list

    @property
    def trace_fisher(self) -> float:
        return float(self.fisher[0, 0] + self.fisher[1, 1])


def _grid_shape(pom: Pom):
    if pom.grid is None:
        raise ValueError("POM carries no grid; heterodyne analysis needs a phase-space grid")
    n = pom.grid.points_per_axis
    return n, pom.grid.step


def heterodyne_analysis(rho: DensityOperator, pom: Pom, crosscheck_tol=SATURATION_TOL_GRID,
                        q_floor=1e-14, saturation_tol=SATURATION_TOL_GRID) -> HeterodyneAnalysis:
    """Estimates, dispersions, inaccuracies and Fisher data for a grid POM.

    The two quadratures are estimated twice: directly from the state and the
    outcome operators, and from the gradient of log Q as
    alpha_j + (1/4) d_j log Q.  The two routes are compared on interior
    points where a step-halving (Richardson) error estimate certifies the
    finite difference; disagreement beyond ``crosscheck_tol`` raises
    GridResolutionError.  The Fisher matrix is integrated as (dQ)(dQ)/Q on
    interior points with the boundary ring excluded and its probability mass
    reported.
    """
    if pom.kind not in ("coherent-grid",):
        raise ValueError("heterodyne analysis requires a vacuum-imageband (coherent) grid POM")
    from . import fock

    n, h = _grid_shape(pom)
    x1, x2 = fock.quadratures(pom.dim)
    p = probabilities(pom, rho)
    Q = (p / pom.weights / np.pi).reshape(n, n)

    opt = optimal_analysis((x1, x2), pom, rho, p)
    est_1, est_2 = opt.estimates
    disp = opt.dispersions
    eps2 = tuple(e**2 for e in opt.inaccuracies)
    noinfo_disp = opt.noinfo_dispersions

    a1 = pom.values_array(0).reshape(n, n)
    a2 = pom.values_array(1).reshape(n, n)
    pm = p.reshape(n, n)

    # central-difference gradient of Q on interior points
    def _gradient_fisher(q, step):
        g1 = np.zeros_like(q)
        g2 = np.zeros_like(q)
        g1[1:-1, :] = (q[2:, :] - q[:-2, :]) / (2 * step)
        g2[:, 1:-1] = (q[:, 2:] - q[:, :-2]) / (2 * step)
        mask = np.zeros_like(q, dtype=bool)
        mask[1:-1, 1:-1] = True
        mask &= q > 0
        mat = np.zeros((2, 2))
        for (i, gi) in ((0, g1), (1, g2)):
            for (j, gj) in ((0, g1), (1, g2)):
                mat[i, j] = step * step * np.sum(
                    np.where(mask, gi * gj / np.where(mask, q, 1.0), 0.0)
                )
        return g1, g2, mat, mask

    dQ1, dQ2, F_h, fmask = _gradient_fisher(Q, h)
    # the quadrature error at zeros of Q is clean O(h^2): one step-doubling
    # Richardson pass removes it
    _, _, F_2h, _ = _gradient_fisher(Q[::2, ::2], 2 * h)
    F = (4 * F_h - F_2h) / 3
    excluded_mass = float(pm.sum() - pm[fmask].sum())

    # marginal Fisher informations for the Cramer-Rao intermediate step,
    # extrapolated the same way as the joint matrix
    def _marginal_fisher(qm, step):
        dm = np.zeros_like(qm)
        dm[1:-1] = (qm[2:] - qm[:-2]) / (2 * step)
        ok = qm > 0
        ok[0] = ok[-1] = False
        return float(step * np.sum(dm[ok] ** 2 / qm[ok]))

    marg = []
    for axis in (1, 0):
        qm = Q.sum(axis=axis) * h
        marg.append((4 * _marginal_fisher(qm, h) - _marginal_fisher(qm[::2], 2 * h)) / 3)
    fisher_marginal = (marg[0], marg[1])

    # covariances of the outcome pair and of the optimal estimates
    def _cov(v1, v2):
        m1 = float((pm * v1).sum())
        m2 = float((pm * v2).sum())
        c = np.empty((2, 2))
        c[0, 0] = float((pm * v1 * v1).sum()) - m1 * m1
        c[1, 1] = float((pm * v2 * v2).sum()) - m2 * m2
        c[0, 1] = c[1, 0] = float((pm * v1 * v2).sum()) - m1 * m2
        return c

    cov_q = _cov(a1, a2)
    f1 = est_1.values.reshape(n, n)
    f2 = est_2.values.reshape(n, n)
    cov_opt = _cov(f1, f2)
    mat_gap = float(np.abs(cov_opt - (cov_q + F / 16 - np.eye(2) / 2)).max())

    # gradient-form estimates and the certified cross-check
    qmax = Q.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = a1 + 0.25 * dQ1 / Q
        g2 = a2 + 0.25 * dQ2 / Q
    # step-halving error estimate: compare the h and 2h central differences
    check = np.zeros_like(Q, dtype=bool)
    check[2:-2, 2:-2] = True
    check &= Q > 1e-6 * qmax
    for shift in (1, 2):
        for ax in (0, 1):
            check &= np.roll(Q, shift, axis=ax) > q_floor * qmax
            check &= np.roll(Q, -shift, axis=ax) > q_floor * qmax
    cc_max = 0.0
    cc_pts = 0
    if check.any():
        d2Q1 = np.zeros_like(Q)
        d2Q2 = np.zeros_like(Q)
        d2Q1[2:-2, :] = (Q[4:, :] - Q[:-4, :]) / (4 * h)
        d2Q2[:, 2:-2] = (Q[:, 4:] - Q[:, :-4]) / (4 * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            rich1 = np.abs(dQ1 - d2Q1) / np.where(Q > 0, Q, 1.0) / 3 * 0.25
            rich2 = np.abs(dQ2 - d2Q2) / np.where(Q > 0, Q, 1.0) / 3 * 0.25
        certified = check & (rich1 < 0.5 * crosscheck_tol) & (rich2 < 0.5 * crosscheck_tol)
        if certified.any():
            cc_max = float(max(np.abs(g1 - f1)[certified].max(),
                               np.abs(g2 - f2)[certified].max()))
            cc_pts = int(certified.sum())
    if cc_pts and cc_max > crosscheck_tol:
        raise GridResolutionError(
            f"direct and log-gradient estimates disagree by {cc_max:.2e} "
            f"on {cc_pts} certified points (tol {crosscheck_tol:.1e})"
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
    reports = [
        report("unbest", disp[0] * disp[1], 0.125, saturation_tol, saturation_tol, digest),
        report("accbest", eps_sum, 0.25, saturation_tol, saturation_tol, digest),
        report("fishbound", eps2[0], F[1, 1] / 16, saturation_tol, saturation_tol,
               dict(digest, quadrature=1)),
        report("fishbound", eps2[1], F[0, 0] / 16, saturation_tol, saturation_tol,
               dict(digest, quadrature=2)),
        report("tracefish", 4.0, tr_f, saturation_tol, saturation_tol, digest),
        report("fishident", eps_sum, 0.5 - tr_f / 16, saturation_tol, saturation_tol, digest),
    ]
    return HeterodyneAnalysis(pom, rho, p, Q.ravel(), est_1, est_2, disp, eps2,
                              noinfo_disp, F, fisher_marginal, cov_q, cov_opt,
                              excluded_mass, cc_max, cc_pts, mat_gap, reports)


def check_uncanon(analysis: HeterodyneAnalysis, hbar=1.0,
                  saturation_tol=SATURATION_TOL_GRID) -> RelationReport:
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
    return report("uncanon", product, hbar / 4, saturation_tol, saturation_tol,
                  digest={"hbar": hbar, "unbiased_bound": hbar,
                          "ratio_to_unbiased_bound": product / hbar,
                          "noinfo_product": noinfo})
