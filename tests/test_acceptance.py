"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v`; the status lines bypass
output capture.  Criterion 11 checks the squeezing trade-off against its
closed form.  At the matched ratio DeltaX'/DeltaP' = DeltaX/DeltaP both
auxiliary noise-to-prior ratios equal x = hbar/(2 DeltaX DeltaP), so the
joint-uncertainty cost is J_matched = DeltaX DeltaP (2 sqrt(x) + x)/(1 + x),
while the degenerate endpoint costs J_end = DeltaX DeltaP.  J_matched < J_end
exactly when DeltaX DeltaP > 2 hbar, at every asymmetry: the endpoint is the
minimizer below that prior product and the matched interior ratio above it.
"""

import math
import time

import numpy as np
import pytest

from pomest import fock
from pomest.estimation import (
    Estimator,
    estimate_stats,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_no_info,
    probabilities,
    statistical_deviation,
    unbiased_correction,
)
from pomest.operators import (
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    tensor,
)
from pomest.pom import (
    GridSpec,
    coherent_pom,
    inefficient_photon_pom,
    naimark_extend,
    projective_pom,
    tetrahedral_pom,
    trine_pom,
)
from pomest.relations import check_ungen, heterodyne_analysis
from pomest.sampling import make_rng, random_density, random_hermitian, random_pom
from pomest.scenarios import (
    EprParams,
    epr_closed_form,
    epr_numeric,
    optimize_squeezing,
    recommended_epr_points,
    thermal_energy_estimate,
)
from pomest.scenarios import _thermal_state

SEED = 20260811


def _line(capsys, n, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion-{n:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def fine_grid_states():
    """dim-40 coherent grid at quadrature resolution plus the five pure states."""
    dim = 40
    pom = coherent_pom(dim, GridSpec(0j, 7.0, 250))
    rng = make_rng(SEED)
    states = {
        "vacuum": fock.vacuum_ket(dim),
        "one": fock.number_ket(dim, 1),
        "coherent": fock.coherent_ket(dim, 1.0),
        "sup-a": fock.fock_superposition(dim, rng.normal(size=5) + 1j * rng.normal(size=5)),
        "sup-b": fock.fock_superposition(dim, rng.normal(size=5) + 1j * rng.normal(size=5)),
    }
    analyses = {name: heterodyne_analysis(ket.to_density(), pom) for name, ket in states.items()}
    return pom, analyses


def test_criterion_01_heterodyne_coherent_products(capsys):
    t0 = time.perf_counter()
    dim = 40
    worst_opt = worst_ni = 0.0
    for beta in (1.2 + 0.5j, 1.5, 0.3 - 0.9j):
        assert abs(beta) <= 1.5
        pom = coherent_pom(dim, GridSpec(0j, abs(beta) + 6.0, 81))
        rho = fock.coherent_ket(dim, beta).to_density()
        x1, x2 = fock.quadratures(dim)
        s1 = estimate_stats(optimal_estimate(x1, pom, rho), x1, rho)
        s2 = estimate_stats(optimal_estimate(x2, pom, rho), x2, rho)
        worst_opt = max(worst_opt, abs(s1.dispersion * s2.dispersion - 0.125))
        n1 = estimate_stats(optimal_estimate_no_info(x1, pom), x1, rho)
        n2 = estimate_stats(optimal_estimate_no_info(x2, pom), x2, rho)
        worst_ni = max(worst_ni, abs(n1.dispersion * n2.dispersion - 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst_opt < 1e-3 and worst_ni < 1e-3 and elapsed <= 60.0
    _line(capsys, 1, ok,
          f"|disp-product - 1/8| = {worst_opt:.2e}, |no-info - 1/2| = {worst_ni:.2e}, "
          f"runtime {elapsed:.1f}s (Fock 40, radius |b|+6, 81x81)")


def test_criterion_02_accuracy_bound_saturation(capsys, fine_grid_states):
    _, analyses = fine_grid_states
    worst = max(abs(an.eps2[0] + an.eps2[1] - 0.25) for an in analyses.values())
    _line(capsys, 2, worst < 1e-3,
          f"max |eps1^2 + eps2^2 - 1/4| = {worst:.2e} over 5 pure states")


def test_criterion_03_fisher_identities(capsys, fine_grid_states):
    _, analyses = fine_grid_states
    worst_ident = max(
        abs(an.eps2[0] + an.eps2[1] - (0.5 - an.trace_fisher / 16)) for an in analyses.values()
    )
    worst_trace = max(an.trace_fisher - 4.0 for an in analyses.values())
    ok = worst_ident < 1e-3 and worst_trace <= 1e-3
    _line(capsys, 3, ok,
          f"max identity gap = {worst_ident:.2e}, max (trF - 4) = {worst_trace:+.2e}")


def test_criterion_04_pythagoras(capsys):
    t0 = time.perf_counter()
    rng = make_rng(SEED + 4)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        a = random_hermitian(dim, rng)
        pom = random_pom(dim, int(rng.integers(2, 7)), rng)
        rho = random_density(dim, rng)
        stats = estimate_stats(optimal_estimate(a, pom, rho), a, rho)
        worst = max(worst, abs(a.variance(rho) - stats.dispersion**2 - stats.inaccuracy**2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed <= 5.0
    _line(capsys, 4, ok,
          f"max |Var A - disp^2 - eps^2| = {worst:.2e} over 200 instances, {elapsed:.2f}s")


def _deviation_by_definition(a, pom, rho, k, grid):
    """sum_j w_j tr[(A - f_j) rho (A - f_j) M_j] at a sweep of values for outcome k.

    Independent of the library implementation: evaluates the defining trace
    at every grid value (other outcomes held at zero, which only shifts the
    objective by a constant in the swept coordinate).
    """
    terms = np.zeros_like(grid)
    eye = np.eye(a.dim)
    for j in range(pom.n_outcomes):
        mj = pom.operator(j)
        if j != k:
            terms += pom.weights[j] * np.real(np.trace(a.matrix @ rho.matrix @ a.matrix @ mj))
            continue
        shifted = a.matrix[None, :, :] - grid[:, None, None] * eye[None, :, :]
        vals = np.einsum("vij,jl,vlm,mi->v", shifted, rho.matrix, shifted, mj)
        terms += pom.weights[j] * np.real(vals)
    return terms


def test_criterion_05_brute_force_optimality(capsys):
    rng = make_rng(SEED + 5)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        a = random_hermitian(dim, rng)
        pom = random_pom(dim, int(rng.integers(2, 5)), rng)
        rho = random_density(dim, rng)
        est = optimal_estimate(a, pom, rho)
        scale = 3 * a.norm()
        grid = np.linspace(-scale, scale, 10_000)
        for k in range(pom.n_outcomes):
            scans = _deviation_by_definition(a, pom, rho, k, grid)
            j = int(np.clip(np.argmin(scans), 1, grid.size - 2))
            y0, y1, y2 = scans[j - 1], scans[j], scans[j + 1]
            denom = y0 - 2 * y1 + y2
            vertex = grid[j] if abs(denom) < 1e-30 else (
                grid[j] + 0.5 * (y0 - y2) / denom * (grid[j] - grid[j - 1])
            )
            worst = max(worst, abs(est.values[k] - vertex))
    _line(capsys, 5, worst < 1e-6,
          f"max |formula - grid argmin| = {worst:.2e} over 50 instances")


def test_criterion_06_universal_relation(capsys):
    rng = make_rng(SEED + 6)
    worst = np.inf
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        pom = random_pom(dim, int(rng.integers(2, 7)), rng)
        rho = random_density(dim, rng)
        f = rng.normal(size=pom.n_outcomes) * 2
        g = rng.normal(size=pom.n_outcomes) * 2
        rep = check_ungen(optimal_analysis((a, b), pom, rho, probabilities(pom, rho)), f, g)
        worst = min(worst, rep.slack)
    _line(capsys, 6, worst >= -1e-9,
          f"min slack = {worst:+.2e} over 500 random estimate pairs")


def test_criterion_07_epr(capsys):
    params = EprParams(sigma=0.1, tau=0.1, a=0.0, p0=1.0, hbar=1.0)
    closed = epr_closed_form(params)
    exact = abs(closed.ungen_lhs - 0.5)
    points, length = recommended_epr_points(params)
    rep = epr_numeric(params, points, length)
    t0 = time.perf_counter()
    small = epr_numeric(params, 256, validate=False)
    elapsed_256 = time.perf_counter() - t0
    worst = max(rep.rel_err_disp_x, rep.rel_err_disp_p, rep.rel_err_eps_p)
    ok = exact < 1e-14 and worst < 1e-3 and elapsed_256 <= 120.0
    _line(capsys, 7, ok,
          f"closed-form lhs gap = {exact:.1e}; grid {points}^2 rel errs "
          f"(disp_x {rep.rel_err_disp_x:.1e}, disp_p {rep.rel_err_disp_p:.1e}, "
          f"eps_p {rep.rel_err_eps_p:.1e}); 256^2 run {elapsed_256:.2f}s "
          f"(256^2 eps_p rel err {small.rel_err_eps_p:.1e})")


def test_criterion_08_thermal_oscillator(capsys):
    worst = 0.0
    for beta, dim in ((0.5, 140), (1.0, 100), (2.0, 70)):
        # e^{-beta E_max} well below 1e-14 at these truncations
        assert beta * (dim - 0.5) > 14 * np.log(10)
        h = fock.oscillator_hamiltonian(dim)
        pom = projective_pom(fock.position_operator(dim))
        est = thermal_energy_estimate(h, pom, beta)
        xs = pom.values_array()
        at = 0.5 / np.tanh(beta)
        bt = 0.5 / np.cosh(beta / 2) ** 2
        p = probabilities(pom, _thermal_state(h, beta))
        keep = p > 1e-12
        worst = max(worst, float(np.abs(est.values[keep] - (at + bt * xs[keep] ** 2)).max()))
    h = fock.oscillator_hamiltonian(40)
    pom = projective_pom(fock.position_operator(40))
    est = thermal_energy_estimate(h, pom, 50.0)
    keep = ~est.zero_probability
    zero_t = float(np.abs(est.values[keep] - 0.5).max())
    ok = worst < 1e-6 and zero_t < 1e-8
    _line(capsys, 8, ok,
          f"max |numeric - quadratic closed form| = {worst:.2e} (beta 0.5/1/2), "
          f"beta=50 gap to ground energy = {zero_t:.2e}")


def test_criterion_09_naimark(capsys):
    rng = make_rng(SEED + 9)
    poms = [trine_pom()] + [
        random_pom(int(rng.integers(2, 4)), int(rng.integers(2, 5)), rng) for _ in range(5)
    ]
    worst_stat = worst_dev = 0.0
    for pom in poms:
        ext = naimark_extend(pom)
        eye_anc = HermitianOperator.identity(ext.anc_dim)
        for _ in range(10):
            rho = random_density(pom.dim, rng)
            big = tensor(rho, ext.ancilla_state)
            a = random_hermitian(pom.dim, rng)
            est = Estimator(pom, rng.normal(size=pom.n_outcomes))
            for k in range(pom.n_outcomes):
                direct = pom.weights[k] * np.real(np.trace(rho.matrix @ pom.operator(k)))
                lifted = np.real(np.trace(big.matrix @ ext.projections[k]))
                worst_stat = max(worst_stat, abs(direct - lifted))
            f_ext = sum(v * p for v, p in zip(est.values, ext.projections))
            a_ext = tensor(a, eye_anc).matrix
            diff = a_ext - f_ext
            lifted_dev = np.real(np.trace(big.matrix @ diff @ diff))
            direct_dev = statistical_deviation(a, est, rho) ** 2
            worst_dev = max(worst_dev, abs(lifted_dev - direct_dev))
    ok = worst_stat < 1e-10 and worst_dev < 1e-10
    _line(capsys, 9, ok,
          f"max statistics gap = {worst_stat:.2e}, max deviation gap = {worst_dev:.2e} "
          f"(trine + 5 random POMs, 10 states each)")


def test_criterion_10_bias_corrections(capsys):
    rng = make_rng(SEED + 10)
    pom = tetrahedral_pom()
    worst_spin = 0.0
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        s = HermitianOperator(sigma / 2)
        corrected = unbiased_correction(optimal_estimate_no_info(s, pom), s)
        for _ in range(20):
            rho = random_density(2, rng)
            p = probabilities(pom, rho)
            worst_spin = max(worst_spin, abs(p @ corrected.values - s.expectation(rho)))
    dim, eta = 120, 0.6
    photon = inefficient_photon_pom(dim, eta, max_faithful_outcome=25)
    h = fock.number_operator(dim)  # hbar*omega = 1
    corrected = unbiased_correction(optimal_estimate_no_info(h, photon), h, subspace_dim=40)
    m = np.arange(26)
    worst_photon = float(np.abs(corrected.values[:26] - m / eta).max())
    ok = worst_spin < 1e-10 and worst_photon < 1e-10
    _line(capsys, 10, ok,
          f"tetrahedral bias gap = {worst_spin:.2e}, photon-counting gap to m/eta = "
          f"{worst_photon:.2e}")


def test_criterion_11_squeezing_regimes(capsys):
    # expected regimes come from the closed form in the module docstring
    hbar = 1.0
    failures = []
    cases = [(g, 1.7) for g in (0.5, 1.0, 1.9)] + [(g, 1.3) for g in (2.5, 3.0)]
    for g, asym in cases:
        vx, vp = g * asym, g / asym  # asymmetric prior with DX*DP = g*hbar
        rep = optimize_squeezing(vx, vp, hbar)
        j_end = math.sqrt(vx * vp)
        x = hbar / (2 * j_end)
        j_matched = j_end * (2 * math.sqrt(x) + x) / (1 + x)
        expected = "interior" if j_matched < j_end else "endpoint"
        if rep.regime != expected:
            failures.append(
                f"product {g}hbar: expected {expected} (closed form J_matched = {j_matched:.6f}, "
                f"J_end = {j_end:.6f}), got {rep.regime}"
            )
        elif expected == "endpoint":
            if not (math.isclose(rep.j_min, j_end, rel_tol=1e-12)
                    and math.isclose(rep.j_matched, j_matched, rel_tol=1e-12)
                    and rep.j_matched > rep.j_endpoint):
                failures.append(
                    f"product {g}hbar: endpoint J_min = {rep.j_min:.12g} (DX*DP = {j_end:.12g}), "
                    f"J_matched = {rep.j_matched:.12g} (closed form {j_matched:.12g})"
                )
        else:
            matched_ratio = math.sqrt(vx / vp)  # DeltaX / DeltaP
            if abs(rep.ratio - matched_ratio) > 1e-6 * matched_ratio:
                failures.append(
                    f"product {g}hbar: interior ratio {rep.ratio:.8f}, matched ratio "
                    f"{matched_ratio:.8f}"
                )
            if not math.isclose(rep.j_min, j_matched, rel_tol=1e-12):
                failures.append(
                    f"product {g}hbar: interior J_min = {rep.j_min:.12g}, closed form "
                    f"J_matched = {j_matched:.12g}"
                )
    rep_mu = optimize_squeezing(hbar / 2, hbar / 2, hbar)
    gap = abs(rep_mu.disp_product_matched - hbar / 4)
    if gap > 1e-9:
        failures.append(f"minimum-uncertainty prior dispersion product off by {gap:.2e}")
    _line(capsys, 11, not failures, "; ".join(failures) or
          "endpoint below and matched interior above DX*DP = 2hbar as the closed form "
          f"gives; hbar/4 dispersion product gap = {gap:.2e}")
