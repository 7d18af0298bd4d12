import dataclasses
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from pomest import fock, scenarios
from pomest.estimation import optimal_estimate, probabilities
from pomest.operators import HermitianOperator, Ket
from pomest.pom import projective_pom
from pomest.relations import GridResolutionError
from pomest.scenarios import (
    EprParams,
    GridWavefunction,
    LinearEstimateInputs,
    epr_closed_form,
    epr_numeric,
    golden_section,
    linear_estimate,
    log_partition_estimate,
    optimize_squeezing,
    quantum_potential_estimate,
    recommended_epr_points,
    thermal_energy_estimate,
)


def oscillator_position_pom(dim):
    return projective_pom(fock.position_operator(dim))


def thermal_closed_form(beta, xs, hbar=1.0, mass=1.0, omega=1.0):
    at = 0.5 * hbar * omega / np.tanh(beta * hbar * omega)
    bt = 0.5 * mass * omega**2 / np.cosh(beta * hbar * omega / 2) ** 2
    return at + bt * xs**2


# ---------------------------------------------------------------------------
# thermal oscillator


@pytest.mark.parametrize("beta,dim", [(0.5, 120), (1.0, 90), (2.0, 60)])
def test_thermal_estimate_matches_closed_form(beta, dim):
    h = fock.oscillator_hamiltonian(dim)
    pom = oscillator_position_pom(dim)
    est = thermal_energy_estimate(h, pom, beta)
    rho_probs = probabilities(pom, _thermal_state_for_test(h, beta))
    keep = rho_probs > 1e-12
    xs = pom.values_array()
    gap = np.abs(est.values[keep] - thermal_closed_form(beta, xs[keep])).max()
    assert gap < 1e-6


def _thermal_state_for_test(h, beta):
    from pomest.scenarios import _thermal_state

    return _thermal_state(h, beta)


def test_thermal_zero_temperature_limit():
    dim = 40
    h = fock.oscillator_hamiltonian(dim)
    pom = oscillator_position_pom(dim)
    est = thermal_energy_estimate(h, pom, 50.0)
    keep = ~est.zero_probability  # far tails underflow at this temperature
    assert keep.sum() > dim // 2
    assert np.abs(est.values[keep] - 0.5).max() < 1e-8


def test_thermal_own_projectors_returns_eigenvalue():
    dim = 30
    h = fock.oscillator_hamiltonian(dim)
    pom = projective_pom(h)
    est = thermal_energy_estimate(h, pom, 1.0)
    assert np.abs(est.values - pom.values_array()).max() < 1e-10


def test_thermal_cross_check_route_agrees():
    dim = 80
    h = fock.oscillator_hamiltonian(dim)
    pom = oscillator_position_pom(dim)
    beta = 1.0
    est = thermal_energy_estimate(h, pom, beta)
    ref = log_partition_estimate(h, pom, beta)
    p = probabilities(pom, _thermal_state_for_test(h, beta))
    keep = (p > 1e-10) & np.isfinite(ref)
    assert np.abs(est.values[keep] - ref[keep]).max() < 1e-6


def test_thermal_crosscheck_skips_outcomes_of_zero_probability():
    # beta 0.05 at 800 levels: the outcomes at x = +-33.5 carry about 1e-12 of
    # the largest probability, but tr[rho M_k] < ZERO_PROB_TOL sets their
    # estimate to 0, against about 571 from the log-partition route
    dim = 800
    h = fock.oscillator_hamiltonian(dim)
    est = thermal_energy_estimate(h, oscillator_position_pom(dim), 0.05)
    p = est.analysis.p
    assert np.any(est.zero_probability & (p > 1e-12 * p.max()))


def test_thermal_overflow_guard():
    dim = 30
    h = fock.oscillator_hamiltonian(dim)
    pom = projective_pom(h)
    with pytest.raises(OverflowError):
        thermal_energy_estimate(h, pom, math.inf)
    with pytest.raises(ValueError):
        thermal_energy_estimate(h, pom, -1.0)
    # deep in the zero-temperature regime the ground level dominates cleanly
    est = thermal_energy_estimate(h, pom, 40.0)
    assert est.values[0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# quantum potential


def _oscillator_ground(n, length, hbar=1.0, mass=1.0, omega=1.0):
    h = 2 * length / n
    x = -length + h * np.arange(n)
    psi = (mass * omega / (np.pi * hbar)) ** 0.25 * np.exp(-mass * omega * x**2 / (2 * hbar))
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * h)
    return x, h, psi


def test_quantum_potential_oscillator_ground_state():
    x, h, psi = _oscillator_ground(400, 8.0)
    wf = GridWavefunction(h, psi)
    v = 0.5 * x**2
    result = quantum_potential_estimate(wf, v)
    # the h^2 error constant grows as x^4 in the Gaussian tail
    interior = ~result.flagged & (np.abs(x) < 2.5)
    assert np.abs(result.values[interior] - 0.5).max() < 1e-3


def test_quantum_potential_second_order_convergence():
    errs = []
    for n in (200, 400):
        x, h, psi = _oscillator_ground(n, 8.0)
        wf = GridWavefunction(h, psi)
        result = quantum_potential_estimate(wf, 0.5 * x**2)
        interior = ~result.flagged & (np.abs(x) < 4.0)
        errs.append(np.abs(result.values[interior] - 0.5).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_quantum_potential_plane_wave_kinetic_term():
    n, length, p0 = 600, 30.0, 1.3
    h = 2 * length / n
    x = -length + h * np.arange(n)
    envelope = np.exp(-(x**2) / (2 * 36.0))
    psi = envelope * np.exp(1j * p0 * x)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * h)
    wf = GridWavefunction(h, psi)
    result = quantum_potential_estimate(wf, np.zeros_like(x))
    core = ~result.flagged & (np.abs(x) < 2.0)
    # analytic R, S: kinetic term p0^2/2 plus the envelope curvature term
    sig2 = 36.0
    expect = p0**2 / 2 + 1 / (2 * sig2) - x**2 / (2 * sig2**2)
    assert np.abs((result.values - expect)[core]).max() < 1e-4
    assert result.values[core].mean() == pytest.approx(p0**2 / 2, abs=2e-2)


def test_quantum_potential_real_wavefunction_no_kinetic_term():
    x, h, psi = _oscillator_ground(300, 8.0)
    wf = GridWavefunction(h, psi)
    v = 1.7 * np.ones_like(x)
    result = quantum_potential_estimate(wf, v)
    interior = ~result.flagged & (np.abs(x) < 4.0)
    # S = 0: the estimate is exactly V + Q
    r = np.abs(psi)
    lap = np.zeros_like(r)
    lap[1:-1] = (r[2:] - 2 * r[1:-1] + r[:-2]) / h**2
    expect = v - 0.5 * lap / r
    assert np.abs(result.values[interior] - expect[interior]).max() < 1e-12


def test_quantum_potential_cross_check_against_discrete_hamiltonian():
    # independent route: optimal estimate of the finite-difference Hamiltonian
    # from the position-projector readout
    n, length = 220, 8.0
    x, h, psi = _oscillator_ground(n, length)
    wf = GridWavefunction(h, psi)
    v = 0.5 * x**2
    result = quantum_potential_estimate(wf, v)

    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[:-1] + 1, idx[:-1]] = 1.0
    h_op = HermitianOperator(-0.5 * lap / h**2 + np.diag(v))
    pom = projective_pom(HermitianOperator(np.diag(x)), degeneracy_tol=1e-13)
    est = optimal_estimate(h_op, pom, Ket(psi).to_density())
    order = np.argsort(pom.values_array())
    est_sorted = est.values[order]
    interior = ~result.flagged & (np.abs(x) < 4.0)
    assert np.abs(est_sorted[interior] - result.values[interior]).max() < 1e-9


def test_quantum_potential_flags_nodes():
    n, length = 200, 8.0
    h = 2 * length / n
    x = -length + h * np.arange(n)
    psi = x * np.exp(-(x**2) / 2)  # first excited state: node at the origin
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * h)
    wf = GridWavefunction(h, psi)
    result = quantum_potential_estimate(wf, 0.5 * x**2)
    assert result.flagged[np.argmin(np.abs(x))]


def _isotropic_ground(ndim, n, h, k=()):
    """Oscillator ground state on an n^ndim grid of spacing h, times exp(i k.x)."""
    x = (np.arange(n) - (n - 1) / 2) * h
    axes = np.meshgrid(*(x,) * ndim, indexing="ij")
    r2 = sum(a**2 for a in axes)
    psi = np.exp(-r2 / 2 + 1j * sum(kj * a for kj, a in zip(k, axes)))
    return axes, r2, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * h**ndim)


@pytest.mark.parametrize("ndim, k", [(2, ()), (3, ()), (2, (3.0, -2.0)), (3, (3.0, -2.0, 2.5))],
                         ids=["2d", "3d", "2d-wrapping-phase", "3d-wrapping-phase"])
def test_quantum_potential_isotropic_ground_state_in_any_dimension(ndim, k):
    # the local energy is d/2 + |k|^2/2 everywhere; the phase wraps along every axis, and
    # its central differences are exact.  Per axis the error is the 1-D test's h^2 error
    # (1e-3 at h = 0.04), so the bound is ndim times that at h = 0.05
    h = 0.05
    axes, r2, psi = _isotropic_ground(ndim, 61, h, k)
    result = quantum_potential_estimate(GridWavefunction(h, psi), r2 / 2)
    exact = ndim / 2 + sum(kj**2 for kj in k) / 2
    assert result.flagged.sum() == 61**ndim - 59**ndim  # the boundary ring, and no node
    assert np.abs(result.values[~result.flagged] - exact).max() < ndim * 1e-3 * (h / 0.04) ** 2


def test_quantum_potential_2d_cross_check_against_discrete_hamiltonian():
    # as in 1-D: the optimal estimate of the finite-difference Hamiltonian, kron of the
    # 1-D Laplacians, from a readout of each grid point
    n, h = 30, 0.25
    (x, y), r2, psi = _isotropic_ground(2, n, h)
    v = r2 / 2
    result = quantum_potential_estimate(GridWavefunction(h, psi), v)

    lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2
    eye = np.eye(n)
    h_op = HermitianOperator(-0.5 * (np.kron(lap, eye) + np.kron(eye, lap)) + np.diag(v.ravel()))
    pom = projective_pom(HermitianOperator(np.diag(np.arange(n * n, dtype=float))))
    est = optimal_estimate(h_op, pom, Ket(psi.ravel()).to_density())
    interior = ~result.flagged & (np.abs(x) < 2) & (np.abs(y) < 2)
    assert np.abs(est.values.reshape(n, n) - result.values)[interior].max() < 1e-12


# ---------------------------------------------------------------------------
# EPR


def test_epr_closed_form_lhs_exactly_half_hbar():
    for sigma, tau, hbar in [(0.1, 0.1, 1.0), (0.03, 0.2, 1.0), (0.1, 0.05, 2.0)]:
        rep = epr_closed_form(EprParams(sigma=sigma, tau=tau, hbar=hbar))
        assert rep.ungen_lhs == pytest.approx(hbar / 2, abs=1e-14)
        assert rep.ungen_rhs == pytest.approx(hbar / 2, abs=1e-14)


def test_epr_closed_form_reference_values():
    rep = epr_closed_form(EprParams(sigma=0.1, tau=0.1, hbar=1.0))
    # sqrt(1.0001)/0.2 and 0.9999/(0.2 sqrt(1.0001)) and 0.1/sqrt(1.0001)
    assert rep.disp_x == pytest.approx(5.0002499937503, abs=1e-10)
    assert rep.disp_p == pytest.approx(4.9992500437459, abs=1e-10)
    assert rep.eps_p == pytest.approx(0.0999950003750, abs=1e-10)
    assert rep.eps_x == 0.0


def test_epr_closed_form_narrow_limits():
    # sigma = tau -> 0: disp_p ~ hbar/(2 sigma), eps_p ~ tau
    s = 1e-3
    rep = epr_closed_form(EprParams(sigma=s, tau=s))
    assert rep.disp_p == pytest.approx(1 / (2 * s), rel=1e-5)
    assert rep.eps_p == pytest.approx(s, rel=1e-5)


def test_epr_numeric_matches_closed_form():
    params = EprParams()
    points, _ = recommended_epr_points(params)
    rep = epr_numeric(params, points)
    assert rep.rel_err_disp_x < 1e-3
    assert rep.rel_err_disp_p < 1e-3
    assert rep.rel_err_eps_p < 1e-3
    # the exact momentum derivative leaves eps_p well inside the grid tolerance
    assert rep.rel_err_eps_p < 1e-5
    assert rep.numeric.eps_x == pytest.approx(0.0, abs=1e-10)
    # slack of the universal relation stays nonnegative at grid tolerance
    assert rep.numeric.ungen_lhs - rep.numeric.ungen_rhs >= -1e-3
    assert rep.numeric.ungen_lhs == pytest.approx(0.5, abs=1e-3)
    # the momentum estimate is affine in the partner readout
    c0, c1 = rep.numeric.p_estimate_coeff
    assert c0 == pytest.approx(rep.closed.p_estimate_coeff[0], abs=1e-3)
    assert c1 == pytest.approx(rep.closed.p_estimate_coeff[1], abs=1e-3)


def test_recommended_epr_grid_reaches_its_half_length():
    # arithmetic only: epr_numeric balances the half-length n h_bal / 2 against the momentum window
    for sigma, tau, p0, hbar in itertools.product([0.05, 0.3, 1.0, 10.0], [0.05, 0.3, 1.0, 10.0],
                                                  [0.0, -1.0, 2.0, 30.0], [0.5, 1.0, 2.0, 1e4]):
        params = EprParams(sigma=sigma, tau=tau, p0=p0, hbar=hbar)
        n, length = recommended_epr_points(params)
        p_half = abs(p0) / 2
        h_bal = (-p_half + math.sqrt(p_half**2 + 2 * n * math.pi * hbar)) / n
        assert n * h_bal / 2 >= length


def test_recommended_epr_points_keep_the_default_grid():
    # 4 points per sigma: 2 * 27.5 / (0.1 / 4) = 2200, rounded up to 2^8 3^2
    for a, p0 in itertools.product([-0.5, 0.0, 0.5], [0.0, 1.0, 2.0]):
        assert recommended_epr_points(EprParams(a=a, p0=p0))[0] == 2304


def test_recommended_epr_points_hold_the_closed_form_across_the_sweep():
    # the 96-point sweep's grids of at most 2304 points, p0 in {0, 2}: the spacing sets
    # the size at sigma = tau = 0.1, the reach at tau = 0.05 and sigma >= 0.3
    worst = 0.0
    for sigma, tau, p0, hbar in itertools.product([0.1, 0.3, 1.0, 3.0], [0.05, 0.1, 0.3, 1.0],
                                                  [0.0, 2.0], [1.0, 2.0]):
        params = EprParams(sigma=sigma, tau=tau, p0=p0, hbar=hbar)
        points, _ = recommended_epr_points(params)
        if points <= 2304:
            rep = epr_numeric(params, points)
            worst = max(worst, rep.rel_err_disp_x, rep.rel_err_disp_p, rep.rel_err_eps_p)
    assert worst < 1e-4


def test_epr_numeric_on_the_recommended_grid_of_a_wide_partner():
    # the spacing alone asks for 486 points, whose balanced half-length 27.4 cuts the 55.1 reach
    params = EprParams(sigma=1.0, tau=0.05)
    points, _ = recommended_epr_points(params)
    rep = epr_numeric(params, points)  # raises beyond 1e-3 relative
    assert max(rep.rel_err_disp_x, rep.rel_err_disp_p, rep.rel_err_eps_p) < 1e-3


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_epr_numeric_strips_cover_the_grid(monkeypatch):
    # 1000 rows end in a partial strip; a single strip over the whole grid is the reference
    assert 1000 % scenarios._EPR_STRIP
    strips = epr_numeric(EprParams(), 1000, validate=False)
    monkeypatch.setattr(scenarios, "_EPR_STRIP", 1000)
    whole = epr_numeric(EprParams(), 1000, validate=False)
    assert _leaves(dataclasses.astuple(strips)) == pytest.approx(
        _leaves(dataclasses.astuple(whole)), rel=1e-12, abs=1e-12)


def test_epr_numeric_holds_no_full_grid():
    n = 2304
    tracemalloc.start()
    try:
        epr_numeric(EprParams(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(complex).itemsize


@pytest.mark.parametrize("validate", [True, False])
def test_epr_numeric_state_beyond_the_grid_raises(validate):
    with pytest.raises(GridResolutionError, match="beyond the grid's reach"):
        epr_numeric(EprParams(a=100), 512, validate=validate)


def _count_ffts(monkeypatch):
    calls = []

    def spy(*args, _original=np.fft.fft, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    return calls


def test_epr_numeric_one_pass_takes_two_ffts_per_strip(monkeypatch):
    params = EprParams()
    points, _ = recommended_epr_points(params)
    calls = _count_ffts(monkeypatch)
    epr_numeric(params, points)
    assert len(calls) == 2 * math.ceil(points / scenarios._EPR_STRIP)


def test_epr_numeric_reruns_when_a_later_strip_peaks_higher(monkeypatch):
    n = 1000
    strips = math.ceil(n / scenarios._EPR_STRIP)
    normal = epr_numeric(EprParams(a=0.4), n, validate=False)
    calls = _count_ffts(monkeypatch)
    # an edge strip first: its peak is far below the global one, so the pass reruns
    monkeypatch.setattr(scenarios, "_nearest_row", lambda x, v: 0)
    rerun = epr_numeric(EprParams(a=0.4), n, validate=False)
    assert len(calls) == 4 * strips
    assert _leaves(dataclasses.astuple(rerun)) == pytest.approx(
        _leaves(dataclasses.astuple(normal)), rel=1e-12, abs=1e-12)


def test_epr_numeric_mode_row_clipped_to_the_grid_edge(monkeypatch):
    # a/2 lies beyond the last row; the weight sits in the grid's top rows
    n, length, params = 256, 4.0, EprParams(a=8.3)
    rows = []

    def nearest(x, v, _original=scenarios._nearest_row):
        rows.append(_original(x, v))
        return rows[-1]

    monkeypatch.setattr(scenarios, "_nearest_row", nearest)
    calls = _count_ffts(monkeypatch)
    clipped = epr_numeric(params, n, length=length, validate=False)
    assert rows == [n - 1]
    assert len(calls) == 2 * math.ceil(n / scenarios._EPR_STRIP)
    monkeypatch.setattr(scenarios, "_EPR_STRIP", n)
    whole = epr_numeric(params, n, length=length, validate=False)
    assert _leaves(dataclasses.astuple(clipped)) == pytest.approx(
        _leaves(dataclasses.astuple(whole)), rel=1e-12, abs=1e-12)



@pytest.mark.parametrize("mode_row", ["nearest", "edge"])
def test_epr_numeric_is_the_same_on_one_thread(monkeypatch, mode_row):
    # the edge row first forces the rerun with the global peak
    if mode_row == "edge":
        monkeypatch.setattr(scenarios, "_nearest_row", lambda x, v: 0)
    params = EprParams()
    points, _ = recommended_epr_points(params)
    pooled = epr_numeric(params, points, validate=False)
    monkeypatch.setattr(scenarios, "_EPR_THREADS", 1)
    assert dataclasses.astuple(epr_numeric(params, points, validate=False)) == dataclasses.astuple(pooled)


def test_epr_numeric_leaves_no_thread_running():
    before = threading.active_count()
    epr_numeric(EprParams(), 512, validate=False)
    assert threading.active_count() == before
    with pytest.raises(GridResolutionError):
        epr_numeric(EprParams(a=100), 512)
    assert threading.active_count() == before

def test_epr_numeric_rejects_hopeless_grid():
    with pytest.raises(GridResolutionError):
        epr_numeric(EprParams(), 64, length=4.0)


# ---------------------------------------------------------------------------
# linear estimates and squeezing


def test_linear_estimate_equal_signal_and_noise():
    inputs = LinearEstimateInputs(0.0, 1.0, 0.0, 1.0, 1.0, 0.25 / 1.0)
    rep = linear_estimate(inputs)
    assert rep.x.lam == pytest.approx(0.5)
    assert rep.x.eps_lin**2 == pytest.approx(0.5)


def test_linear_estimate_perfect_and_useless_limits():
    perfect = linear_estimate(LinearEstimateInputs(0.0, 2.0, 0.0, 2.0, 0.0, math.inf))
    assert perfect.x.lam == 1.0
    assert perfect.x.eps_lin == 0.0
    assert perfect.x.disp_lin == pytest.approx(math.sqrt(2.0))
    assert perfect.p.lam == 0.0
    assert perfect.p.disp_lin == 0.0
    assert perfect.p.eps_lin == pytest.approx(math.sqrt(2.0))


def test_linear_estimate_identities(rng):
    for _ in range(25):
        s = float(rng.uniform(0.2, 3.0))
        n = float(rng.uniform(0.05, 2.0))
        inputs = LinearEstimateInputs(0.0, s, 0.0, 1.0, n, 0.25 / n)
        rep = linear_estimate(inputs)
        assert rep.x.eps_lin < rep.x.eps_raw
        assert rep.x.eps_lin**2 == pytest.approx(s * n / (s + n), abs=1e-12)
        assert rep.x.disp_lin == pytest.approx(rep.x.disp_raw / (1 + n / s), abs=1e-12)


def test_linear_estimate_monte_carlo_oracle(rng):
    # brute-force lambda scan on Gaussian ensembles
    s, n = 1.3, 0.6
    signal = rng.normal(0.0, math.sqrt(s), size=1_000_000)
    noise = rng.normal(0.0, math.sqrt(n), size=1_000_000)
    m = signal + noise
    lams = np.linspace(0.0, 1.0, 201)
    mse = [np.mean((lam * m - signal) ** 2) for lam in lams]
    best = lams[int(np.argmin(mse))]
    rep = linear_estimate(LinearEstimateInputs(0.0, s, 0.0, 1.0, n, 0.25 / n))
    assert rep.x.lam == pytest.approx(best, abs=1e-2)
    assert rep.x.eps_lin**2 == pytest.approx(min(mse), abs=1e-2)


def test_golden_section_quadratic():
    # derivative-free search bottoms out near sqrt(machine eps)
    x, fx = golden_section(lambda t: (t - 1.234) ** 2 + 5.0, -4.0, 4.0)
    assert x == pytest.approx(1.234, abs=1e-7)
    assert fx == pytest.approx(5.0, abs=1e-12)


def test_squeezing_cost_never_below_universal_bound(rng):
    for _ in range(20):
        vx = float(rng.uniform(0.3, 4.0))
        vp = float(rng.uniform(0.3, 4.0))
        rep = optimize_squeezing(vx, vp)
        assert rep.j_min >= 0.5 - 1e-9


def test_squeezing_interior_regime_above_threshold():
    # above the threshold product the matched interior ratio wins
    for vx, vp in [(2.5 * 2.0, 2.5 / 2.0), (3.0 * 0.5, 3.0 / 0.5)]:
        rep = optimize_squeezing(vx, vp)
        assert rep.regime == "interior"
        assert rep.ratio == pytest.approx(rep.matched_ratio, rel=1e-6)
        assert rep.j_min == pytest.approx(rep.j_matched, rel=1e-12)
        assert rep.j_min < rep.j_endpoint


def test_squeezing_endpoint_regime_below_threshold():
    # below the threshold product no interior ratio beats abandoning the
    # joint measurement
    for vx, vp in [(0.5, 0.5), (1.0 * 2.0, 1.0 / 2.0), (1.9 * 0.7, 1.9 / 0.7)]:
        rep = optimize_squeezing(vx, vp)
        assert rep.regime == "endpoint"
        assert rep.j_min == pytest.approx(rep.j_endpoint)
        assert rep.j_matched > rep.j_endpoint


def test_squeezing_boundary_product_candidates_tie():
    rep = optimize_squeezing(2.0, 2.0)
    assert rep.j_matched == pytest.approx(rep.j_endpoint, rel=1e-9)


def test_squeezing_minimum_uncertainty_prior_dispersion_product():
    # ratio-matched configuration at the minimum-uncertainty prior gives hbar/4
    rep = optimize_squeezing(0.5, 0.5, hbar=1.0)
    assert rep.disp_product_matched == pytest.approx(0.25, abs=1e-9)
    assert rep.j_matched == pytest.approx(0.75, abs=1e-12)
    assert rep.j_min == pytest.approx(0.5, abs=1e-12)
