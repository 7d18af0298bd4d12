import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pomest import fock, operators
from pomest.estimation import (
    Estimator,
    NotCorrectableError,
    estimate_stats,
    hs_distance,
    measurement_estimator,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_complete_pom,
    optimal_estimate_no_info,
    probabilities,
    repeatability_check,
    unbiased_correction,
)
from pomest.operators import DensityOperator, HermitianOperator, Ket, PAULI_X, PAULI_Z, _cholesky_factor
from pomest.pom import (
    GridSpec,
    Pom,
    coherent_pom,
    identity_pom,
    imageband_pom,
    inefficient_photon_pom,
    naimark_extend,
    projective_pom,
    spin_pom,
    tetrahedral_pom,
    trine_pom,
    validate,
)
from pomest.relations import check_accbound
from pomest.sampling import (
    complex_normal,
    hermitian_part,
    make_rng,
    normalized_density,
    pom_normal,
    random_density,
    random_hermitian,
    random_pom,
    random_pure_ket,
    whitened_pom,
)
from pomest.scenarios import _thermal_state, log_partition_estimate


def brute_force_optimal_values(a, pom, rho, n_grid=10_000):
    """Per-outcome grid minimization of the statistical deviation.

    The deviation is an exactly quadratic decoupled function of each value,
    so after the scan the vertex of the parabola through the best bracket is
    exact; the scan only locates the bracket.
    """
    scale = 3 * a.norm()
    grid = np.linspace(-scale, scale, n_grid)
    out = np.zeros(pom.n_outcomes)
    for k in range(pom.n_outcomes):
        def dev2(v):
            values = np.array(out)  # other coordinates are irrelevant: decoupled
            values[k] = v
            return estimate_stats(Estimator(pom, values), a, rho).inaccuracy ** 2
        scans = np.array([dev2(v) for v in grid])
        j = int(np.argmin(scans))
        j = min(max(j, 1), n_grid - 2)
        x0, x1, x2 = grid[j - 1], grid[j], grid[j + 1]
        y0, y1, y2 = scans[j - 1], scans[j], scans[j + 1]
        denom = (y0 - 2 * y1 + y2)
        if abs(denom) < 1e-30:
            out[k] = x1
        else:
            out[k] = x1 + 0.5 * (y0 - y2) / denom * (x1 - x0)
    return out


def test_probabilities_projective_eigenstate(rng):
    a = random_hermitian(4, rng)
    vals, vecs = a.eigensystem()
    pom = projective_pom(a)
    rho = Ket(vecs[:, 2]).to_density()
    p = probabilities(pom, rho)
    expect = np.zeros(4)
    expect[np.argmin(np.abs(pom.values_array() - vals[2]))] = 1.0
    assert np.abs(p - expect).max() < 1e-10


def test_probabilities_maximally_mixed(rng):
    pom = random_pom(3, 5, rng)
    rho = DensityOperator.maximally_mixed(3)
    p = probabilities(pom, rho)
    expect = np.array([w * np.real(np.trace(op)) / 3 for w, op in zip(pom.weights, pom.operators())])
    assert np.abs(p - expect).max() < 1e-12


def test_statistical_deviation_perfect_measurement(rng):
    a = random_hermitian(3, rng)
    pom = projective_pom(a)
    est = measurement_estimator(pom)
    rho = random_density(3, rng)
    assert estimate_stats(est, a, rho).inaccuracy < 1e-7


def test_statistical_deviation_trivial_pom(rng):
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    pom = identity_pom(3)
    est = Estimator(pom, [0.0])
    expect = np.sqrt(np.real(np.trace(rho.matrix @ a.matrix @ a.matrix)))
    assert estimate_stats(est, a, rho).inaccuracy == pytest.approx(expect, abs=1e-12)


def test_statistical_deviation_projective_reduces_to_operator_form(rng):
    # for a projective readout, D^2 equals tr[rho (A - f(M))^2]
    a = random_hermitian(4, rng)
    m = random_hermitian(4, rng)
    pom = projective_pom(m)
    rho = random_density(4, rng)
    f = rng.normal(size=4)
    est = Estimator(pom, f)
    f_of_m = (pom.kets.T * f) @ pom.kets.conj()
    diff = a.matrix - f_of_m
    expect = np.real(np.trace(rho.matrix @ diff @ diff))
    assert estimate_stats(est, a, rho).inaccuracy ** 2 == pytest.approx(expect, abs=1e-12)


def test_statistical_deviation_matches_algebraic_expansion(rng):
    # oracle: <A^2> + sum w f^2 tr[rho M] - sum w f tr[rho(AM + MA)]
    for _ in range(10):
        a = random_hermitian(2, rng)
        pom = random_pom(2, 4, rng)
        rho = random_density(2, rng)
        f = rng.normal(size=4)
        est = Estimator(pom, f)
        a2 = np.real(np.trace(rho.matrix @ a.matrix @ a.matrix))
        total = a2
        for k, op in enumerate(pom.operators()):
            total += pom.weights[k] * f[k] ** 2 * np.real(np.trace(rho.matrix @ op))
            total -= pom.weights[k] * f[k] * np.real(
                np.trace(rho.matrix @ (a.matrix @ op + op @ a.matrix))
            )
        assert estimate_stats(est, a, rho).inaccuracy ** 2 == pytest.approx(total, abs=1e-12)


def test_hs_distance_own_projectors(rng):
    a = random_hermitian(4, rng)
    assert hs_distance(a, projective_pom(a)) < 1e-7


def test_hs_distance_trivial_pom(rng):
    a = random_hermitian(4, rng)
    assert hs_distance(a, identity_pom(4)) == pytest.approx(
        np.sqrt(np.real(np.trace(a.matrix @ a.matrix))), abs=1e-12
    )


def test_hs_distance_is_dim_times_average_deviation(rng):
    # Monte Carlo over uniformly random pure states
    dim = 3
    a = random_hermitian(dim, rng)
    pom = random_pom(dim, 4, rng)
    est = measurement_estimator(pom)
    samples = []
    for _ in range(4000):
        rho = random_pure_ket(dim, rng).to_density()
        samples.append(estimate_stats(est, a, rho).inaccuracy ** 2)
    mc = dim * np.mean(samples)
    se = dim * np.std(samples) / np.sqrt(len(samples))
    assert abs(hs_distance(a, pom) ** 2 - mc) < 5 * se + 1e-3


def test_optimal_estimate_pure_state_formula(rng):
    # Re <m|A|psi>/<m|psi> for a projective measurement on a pure state
    a = random_hermitian(3, rng)
    m = random_hermitian(3, rng)
    pom = projective_pom(m)
    psi = random_pure_ket(3, rng)
    est = optimal_estimate(a, pom, psi.to_density())
    for k in range(3):
        ket_m = pom.kets[k]
        expect = np.real(ket_m.conj() @ a.matrix @ psi.amplitudes / (ket_m.conj() @ psi.amplitudes))
        assert est.values[k] == pytest.approx(expect, abs=1e-10)


def test_optimal_estimate_on_eigenstate_is_constant(rng):
    a = random_hermitian(3, rng)
    vals, vecs = a.eigensystem()
    rho = Ket(vecs[:, 1]).to_density()
    pom = random_pom(3, 5, rng)
    est = optimal_estimate(a, pom, rho)
    keep = ~est.zero_probability
    assert np.abs(est.values[keep] - vals[1]).max() < 1e-8


def test_optimal_estimate_matches_brute_force(rng):
    a = random_hermitian(2, rng)
    pom = trine_pom()
    rho = random_density(2, rng)
    est = optimal_estimate(a, pom, rho)
    oracle = brute_force_optimal_values(a, pom, rho)
    assert np.abs(est.values - oracle).max() < 1e-6


def test_optimal_estimate_beats_perturbations(rng):
    a = random_hermitian(3, rng)
    pom = random_pom(3, 4, rng)
    rho = random_density(3, rng)
    est = optimal_estimate(a, pom, rho)
    base = estimate_stats(est, a, rho).inaccuracy
    for _ in range(100):
        noise = rng.normal(size=4) * 0.3
        worse = estimate_stats(Estimator(pom, est.values + noise), a, rho).inaccuracy
        assert worse >= base - 1e-12


def test_optimal_estimate_linearity(rng):
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    lam = 0.7321
    pom = random_pom(3, 5, rng)
    rho = random_density(3, rng)
    lhs = optimal_estimate(HermitianOperator(a.matrix + lam * b.matrix), pom, rho).values
    rhs = optimal_estimate(a, pom, rho).values + lam * optimal_estimate(b, pom, rho).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_no_info_equals_maximally_mixed(rng):
    a = random_hermitian(4, rng)
    pom = random_pom(4, 6, rng)
    ni = optimal_estimate_no_info(a, pom)
    mm = optimal_estimate(a, pom, DensityOperator.maximally_mixed(4))
    assert np.abs(ni.values - mm.values).max() < 1e-10


def test_no_info_coherent_pom_reads_quadrature():
    dim = 40
    pom = coherent_pom(dim, GridSpec(0j, 7.0, 61))
    x1, _ = fock.quadratures(dim)
    est = optimal_estimate_no_info(x1, pom)
    a1 = pom.values_array(0)
    # faithful away from the truncation shell
    core = np.abs(a1 + 1j * pom.values_array(1)) < 3.0
    assert np.abs(est.values[core] - a1[core]).max() < 1e-6


def test_no_info_spin_pom_reads_direction():
    pom = tetrahedral_pom()
    sz = HermitianOperator(PAULI_Z / 2)  # hbar = 1
    est = optimal_estimate_no_info(sz, pom)
    mz = np.array([m[2] for m in pom.values])
    assert np.abs(est.values - mz / 2).max() < 1e-12


def test_no_info_on_kets_traces_no_identity(monkeypatch):
    pom = coherent_pom(8, GridSpec(0j, 4.0, 21))
    x1, _ = fock.quadratures(8)
    expect = optimal_estimate_no_info(x1, Pom.from_operators(list(pom.operators()), pom.values))
    traced = []

    def spy(self, x, _original=Pom.traces):
        traced.append(np.array(x))
        return _original(self, x)

    monkeypatch.setattr(Pom, "traces", spy)
    est = optimal_estimate_no_info(x1, pom)
    assert len(traced) == 1 and np.array_equal(traced[0], x1.matrix)
    np.testing.assert_allclose(est.values, expect.values, rtol=0, atol=1e-12)


def test_optimal_estimate_and_stats_project_once_each(monkeypatch):
    pom = coherent_pom(8, GridSpec(0j, 4.0, 21))
    rho = fock.thermal_state(8, 0.4)
    x1, _ = fock.quadratures(8)
    counts = {"traces": 0, "project": 0}
    for name in counts:
        def spy(self, x, _original=getattr(Pom, name), _name=name):
            counts[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(Pom, name, spy)
    # the statistics read the analysis the estimate was made from
    estimate_stats(optimal_estimate(x1, pom, rho), x1, rho)
    assert counts == {"traces": 0, "project": 1}
    # an equal but distinct state is not the one the estimate saw: it projects afresh
    counts["project"] = 0
    estimate_stats(optimal_estimate(x1, pom, rho), x1, DensityOperator(rho.matrix))
    assert counts == {"traces": 0, "project": 2}


def _fresh_stats(est, a, rho):
    an = optimal_analysis((a,), est.pom, rho)
    return float(an.p @ est.values), an.dispersion(est.values), an.deviation(0, est.values)


def test_statistics_project_afresh_unless_they_see_the_estimates_own_objects(rng):
    pom, rho, a = random_pom(4, 7, rng), random_density(4, rng), random_hermitian(4, rng)
    est = optimal_estimate(a, pom, rho)
    copy = Pom.from_operators(list(pom.operators()), pom.values)
    moved = dataclasses.replace(est, pom=copy)  # carries the analysis, of another POM
    cases = [(est, DensityOperator(rho.matrix), a), (est, rho, HermitianOperator(a.matrix)),
             (measurement_estimator(pom), rho, a), (moved, rho, a)]
    project = Pom.project
    for case_est, case_rho, case_a in cases:
        projected = []
        with mock.patch.object(Pom, "project", autospec=True,
                               side_effect=lambda self, c: projected.append(self) or project(self, c)):
            stats = estimate_stats(case_est, case_a, case_rho)
            deviation = estimate_stats(case_est, case_a, case_rho).inaccuracy
        assert projected == [case_est.pom] * 2
        assert (stats.mean, stats.dispersion, stats.inaccuracy) == _fresh_stats(case_est, case_a, case_rho)
        assert deviation == stats.inaccuracy


def test_an_optimal_estimate_is_freed_by_reference_counting(rng):
    # the estimate refers to its analysis, and the analysis must not refer back:
    # a cycle would hold both until the cyclic collector runs
    pom, rho, a = random_pom(3, 5, rng), random_density(3, rng), random_hermitian(3, rng)
    enabled = gc.isenabled()
    gc.disable()
    try:
        est = optimal_estimate(a, pom, rho)
        refs = weakref.ref(est), weakref.ref(est.analysis)
        del est
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_imageband_statistics_through_the_carried_analysis_equal_a_fresh_one_bit_for_bit(rng):
    # a rank-2 imageband (r = 2 rows per outcome) on a coherent and a thermal probe
    dim = 10
    pom = imageband_pom(dim, GridSpec(0j, 5.0, 21), random_density(3, rng, rank=2))
    for rho in (fock.coherent_ket(dim, 0.6 - 0.4j).to_density(), fock.thermal_state(dim, 0.5)):
        for a in fock.quadratures(dim):
            est = optimal_estimate(a, pom, rho)
            stats = estimate_stats(est, a, rho)
            assert (stats.mean, stats.dispersion, stats.inaccuracy) == _fresh_stats(est, a, rho)



def test_estimates_of_a_stack_name_its_shape(rng):
    # three instances of dim 2 and 4 outcomes analysed as one stack
    an = optimal_analysis((hermitian_part(complex_normal(rng, 3, 2, 2)),),
                          whitened_pom(np.stack([pom_normal(rng, 4, 2) for _ in range(3)])),
                          normalized_density(complex_normal(rng, 3, 2, 1)))
    assert an.values.shape == (1, 3, 4)
    with pytest.raises(ValueError, match=r"estimates are per instance, not for a stack of shape \(3, 4\)"):
        an.estimates

def test_optimal_analysis_matches_separate_calls(rng):
    d, n_kets = 5, 9
    kets = rng.normal(size=(n_kets, d)) + 1j * rng.normal(size=(n_kets, d))
    pom = Pom(d, np.arange(n_kets, dtype=float), rng.uniform(0.5, 1.5, n_kets), kets[:, None])
    obs = (random_hermitian(d, rng), random_hermitian(d, rng))
    rho = DensityOperator(0.7 * random_pure_ket(d, rng).to_density().matrix
                          + 0.3 * random_pure_ket(d, rng).to_density().matrix)
    # the kets POM and a POM of outcome operators, against traces taken one
    # outcome operator at a time
    for pom in (pom, random_pom(d, 4, rng)):
        ops, r = list(pom.operators()), rho.matrix
        p = pom.weights * np.real([np.trace(r @ m) for m in ops])
        an = optimal_analysis(obs, pom, rho)
        np.testing.assert_allclose(an.p, p, rtol=1e-14, atol=0)
        f = rng.normal(size=pom.n_outcomes)
        for j, a in enumerate(obs):
            def deviation(g):
                shifted = [a.matrix - gk * np.eye(d) for gk in g]
                return np.sqrt(sum(w * np.real(np.trace(s @ r @ s @ m))
                                   for w, s, m in zip(pom.weights, shifted, ops)))

            ref = np.real([np.trace(r @ a.matrix @ m) for m in ops]) * pom.weights / p
            mean = p @ ref
            dispersion = np.sqrt(max(p @ ref**2 - mean**2, 0.0))  # the kets POM is not complete
            est = optimal_estimate(a, pom, rho)
            stats = estimate_stats(est, a, rho)
            for values in (an.estimates[j].values, est.values):
                np.testing.assert_allclose(values, ref, rtol=0, atol=1e-12)
            for got in (an.dispersions[j], stats.dispersion):
                assert got == pytest.approx(dispersion, rel=0, abs=1e-12)
            for got in (an.inaccuracies[j], stats.inaccuracy):
                assert got == pytest.approx(deviation(ref), rel=0, abs=1e-12)
            assert stats.mean == pytest.approx(mean, rel=0, abs=1e-12)
            for got in (an.deviation(j, f), estimate_stats(Estimator(pom, f), a, rho).inaccuracy):
                assert got == pytest.approx(deviation(f), rel=0, abs=1e-12)
    # a zero ket has tr M_k = 0: the no-information estimate is undefined, and
    # the analysis flags the outcome as one of zero probability
    kets[3] = 0
    pom = Pom(d, np.arange(n_kets, dtype=float), np.ones(n_kets), kets[:, None])
    with pytest.raises(ValueError, match="zero-trace"):
        optimal_estimate_no_info(obs[0], pom)
    an = optimal_analysis(obs, pom, rho)
    assert an.estimates[0].zero_probability[3] and an.estimates[0].values[3] == 0


@st.composite
def density_operators(draw):
    """Pure (rank 1), rank-deficient and full-rank states of dims 2-6."""
    dim = draw(st.integers(2, 6))
    rank = draw(st.integers(1, dim))
    return random_density(dim, make_rng(draw(st.integers(0, 2**32 - 1))), rank=rank)


@given(rho=density_operators())
@example(rho=fock.thermal_state(20, 0.5))  # full rank: each diagonal entry is pivoted once
def test_cholesky_factor_reconstructs_the_state(rho):
    c = _cholesky_factor(rho.matrix)
    assert c.shape[0] == rho.dim and c.shape[1] <= rho.dim
    assert np.abs(c @ c.conj().T - rho.matrix).max() <= 1e-14


@given(shape=st.integers(2, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_factor_has_the_rank_of_the_state(shape, seed):
    dim, rank = shape
    assert _cholesky_factor(random_density(dim, make_rng(seed), rank=rank).matrix).shape[1] == rank


@given(dim=st.sampled_from([12, 40]), r=st.floats(0, 1.5), phase=st.floats(0, 2 * np.pi))
def test_cholesky_factor_of_a_coherent_state_is_one_column(dim, r, phase):
    # the heterodyne benchmark's states; its cost grows with the factor's rank
    rho = fock.coherent_ket(dim, r * np.exp(1j * phase)).to_density()
    assert _cholesky_factor(rho.matrix).shape[1] == 1


def test_cholesky_factor_keeps_a_thermal_tail():
    # every level is populated, down to e^{-70}; a factor that drops the
    # populations below 1e-16 (68 of 140) moves p by 2.5e-5 relative on
    # outcomes above 1e-12 p_max, and the estimates by 3.4e-5
    dim, beta = 140, 0.5
    h = fock.oscillator_hamiltonian(dim)
    pom = projective_pom(fock.position_operator(dim))
    rho = _thermal_state(h, beta)
    assert _cholesky_factor(rho.matrix).shape[1] == dim
    an = optimal_analysis((h,), pom, rho)
    kets = pom.kets.astype(np.clongdouble)
    t_ref = np.real(np.sum(kets.conj() * (kets @ rho.matrix.astype(np.clongdouble).T), axis=1))
    p_ref = pom.weights * t_ref
    keep = an.p > 1e-12 * an.p.max()
    assert float(np.max(np.abs(an.p[keep] - p_ref[keep]) / p_ref[keep])) <= 1e-13
    # criterion 8's closed form a_T + b_T x^2 and bound
    xs = pom.values_array()
    closed = 0.5 / np.tanh(beta) + 0.5 / np.cosh(beta / 2) ** 2 * xs**2
    keep = an.p > 1e-12
    assert float(np.abs(an.estimates[0].values[keep] - closed[keep]).max()) < 1e-6


@st.composite
def states_and_observable_pairs(draw):
    """A state of dims 2-5 and rank 1..dim drawn by ``random_density``, its rank, and two observables."""
    dim = draw(st.integers(2, 5))
    rank = draw(st.integers(1, dim))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    return random_density(dim, rng, rank=rank), rank, random_hermitian(dim, rng), random_hermitian(dim, rng)


@given(case=states_and_observable_pairs())
def test_moments_from_the_factor_columns_match_the_dense_products(case):
    rho, _, a, b = case
    an = optimal_analysis((a, b), random_pom(rho.dim, rho.dim + 1, make_rng(0)), rho)
    for var, op in zip(an.variances, (a, b)):
        assert abs(var - op.variance(rho)) <= 1e-12 * max(1.0, op.norm() ** 2)
    dense = abs(np.trace(rho.matrix @ (a.matrix @ b.matrix - b.matrix @ a.matrix))) / 2  # |<[A, B]>|/2
    assert abs(an.commutator_bound - dense) <= 1e-12 * max(1.0, a.norm() * b.norm())


@given(case=states_and_observable_pairs())
def test_random_density_keeps_its_draw_as_the_factor(case):
    rho, rank, _, _ = case
    assert rho.factor.shape == (rho.dim, rank)
    assert np.abs(rho.factor @ rho.factor.conj().T - rho.matrix).max() <= 1e-15


def test_a_state_is_factored_once_however_often_it_is_analysed(monkeypatch, rng):
    calls = []
    factor = operators._cholesky_factor
    monkeypatch.setattr(operators, "_cholesky_factor", lambda m: calls.append(m) or factor(m))
    pom, a = random_pom(4, 6, rng), random_hermitian(4, rng)
    sampled = random_density(4, rng)
    rho = DensityOperator(sampled.matrix)  # built from its matrix: factored on first read
    for state in (sampled, rho):
        for _ in range(3):
            estimate_stats(optimal_estimate(a, pom, state), a, state)
            optimal_analysis((a, a), pom, state).variances
    # the sampled state carries its draw as the factor; the other is factored once
    assert len(calls) == 1 and calls[0] is rho.matrix


@st.composite
def poms_states_and_observables(draw):
    """A POM on dims 2-6: whitened random outcomes of rank r = 1..dim (``random_pom``
    at r = dim), or the projective POM of an operator whose eigenvalues fall into
    ragged degenerate groups (r = 0); a pure, rank-deficient or full-rank state,
    an observable, and a generator."""
    dim = draw(st.integers(2, 6))
    rank = draw(st.integers(1, dim))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n_out = draw(st.integers(dim, 2 * dim))
    r = draw(st.integers(0, dim))
    if r == dim:
        pom = random_pom(dim, n_out, rng)
    elif r > 0:
        raw = (rng.normal(size=(n_out, r, dim)) + 1j * rng.normal(size=(n_out, r, dim))).reshape(-1, dim)
        vals, vecs = np.linalg.eigh(raw.T @ raw.conj())
        pom = Pom(dim, np.arange(n_out, dtype=float), np.ones(n_out),
                  (raw @ ((vecs * vals**-0.5) @ vecs.conj().T).T).reshape(n_out, r, dim))
    else:
        cuts = np.sort(rng.choice(np.arange(1, dim), draw(st.integers(0, dim - 2)), replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [dim]]))  # fewer groups than levels
        basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        levels = np.repeat(rng.normal(size=sizes.size), sizes)
        pom = projective_pom(HermitianOperator((basis * levels) @ basis.conj().T))
        assert pom.n_outcomes == sizes.size
    return pom, random_density(dim, rng, rank=rank), random_hermitian(dim, rng), rng


@given(case=poms_states_and_observables())
def test_optimal_estimate_is_the_per_outcome_formula_and_never_beaten(case):
    pom, rho, a, rng = case
    est = optimal_estimate(a, pom, rho)
    r = rho.matrix
    for k, m in enumerate(pom.operators()):
        t = np.real(np.trace(r @ m))
        if t > 1e-8:  # roundoff in f_k grows as 1/t_k, so compare f_k t_k = Re tr[rho A M_k]
            assert abs(est.values[k] * t - np.real(np.trace(r @ a.matrix @ m))) <= 1e-14
    # D'^2 = D^2 + sum_k w_k tr[rho M_k] (f'_k - f_k)^2 for any other values f'
    base = estimate_stats(est, a, rho).inaccuracy ** 2
    for scale in (1e-6, 1e-3, 1.0):
        moved = Estimator(pom, est.values + scale * rng.normal(size=pom.n_outcomes))
        assert estimate_stats(moved, a, rho).inaccuracy ** 2 >= base - 1e-12


def _one_outcome_case(seed):
    """The projective POM of U U† ~ 1 for a random unitary U: one outcome, of zero dispersion."""
    g = make_rng(seed)
    u = np.linalg.qr(g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))[0]
    return (projective_pom(HermitianOperator(u @ u.conj().T)), random_density(2, make_rng(seed)),
            HermitianOperator(PAULI_X), make_rng(0))


@given(case=poms_states_and_observables())
@example(case=_one_outcome_case(8))  # unsquared, the dispersions read 0 and 7.5e-9
def test_a_pom_and_its_refactored_copy_agree(case):
    # the copy holds the eigh factor of each outcome matrix, r = dim rows per
    # outcome, where the original holds 1..dim rows or a padded eigenvector group
    pom, rho, a, rng = case
    copy = Pom.from_operators(list(pom.operators()), pom.values)
    b = random_hermitian(pom.dim, rng)
    an, an_copy = (optimal_analysis((a, b), p, rho) for p in (pom, copy))
    np.testing.assert_allclose(an_copy.p, an.p, rtol=0, atol=1e-12)
    keep = an.p > 1e-8 * an.p.max()
    for est, est_copy in zip(an.estimates, an_copy.estimates):
        np.testing.assert_allclose(est_copy.values[keep], est.values[keep], rtol=0, atol=1e-12)
    f = rng.normal(size=pom.n_outcomes)
    for j in range(2):
        assert an_copy.deviation(j, f) == pytest.approx(an.deviation(j, f), rel=0, abs=1e-12)
    # squared: sqrt(E f^2 - (E f)^2) reads a 1e-16 move of p as 1e-8 where the
    # dispersion is zero, as on a POM of one outcome
    assert an_copy.dispersion(f) ** 2 == pytest.approx(an.dispersion(f) ** 2, rel=0, abs=1e-12)
    assert validate(copy).passed == validate(pom).passed


@given(case=poms_states_and_observables())
def test_statistics_through_the_carried_analysis_equal_a_fresh_one_bit_for_bit(case):
    # observable 0 of a one-observable analysis, and observable 1 of a two-observable one
    # as heterodyne_analysis builds; the carried analysis projects nothing
    pom, rho, a, rng = case
    b = random_hermitian(pom.dim, rng)
    pair = optimal_analysis((a, b), pom, rho)
    for est, obs in ((optimal_estimate(a, pom, rho), a), (pair.estimates[1], b)):
        with mock.patch.object(Pom, "project", side_effect=AssertionError("projected afresh")):
            stats = estimate_stats(est, obs, rho)
            deviation = estimate_stats(est, obs, rho).inaccuracy
        assert deviation == stats.inaccuracy
        fresh = _fresh_stats(est, obs, rho)
        if obs is a:
            assert (stats.mean, stats.dispersion, stats.inaccuracy) == fresh
            continue
        # the fresh analysis of the same pair; one of b alone projects b's columns at
        # another position of the BLAS product, which moves the last bits of tr[rho B M_k]
        again = optimal_analysis((a, b), pom, rho)
        assert (stats.mean, stats.dispersion, stats.inaccuracy) == (
            float(again.p @ est.values), again.dispersion(est.values), again.deviation(1, est.values))
        assert stats.mean == pytest.approx(fresh[0], rel=0, abs=1e-12)
        for got, want in zip((stats.dispersion, stats.inaccuracy), fresh[1:]):
            assert got**2 == pytest.approx(want**2, rel=0, abs=1e-12)


@pytest.mark.parametrize("beta", [0.8 - 0.5j, -1.1 + 0.9j])
def test_kets_route_matches_a_long_double_reference(beta):
    # the CLI heterodyne grid; the reference takes the same kets and rho as exact
    # inputs and forms <a_k|rho|a_k> and <a_k|rho X_j|a_k> in extended precision
    dim = 40
    pom = coherent_pom(dim, GridSpec(0j, 7.0, 160))
    rho = fock.coherent_ket(dim, beta).to_density()
    quads = fock.quadratures(dim)
    an = optimal_analysis(quads, pom, rho)
    keep = an.p > 1e-8
    kets = pom.kets[keep].astype(np.clongdouble)
    r = rho.matrix.astype(np.clongdouble)
    t_ref = [np.real(np.sum(kets.conj() * (kets @ x.T), axis=1))
             for x in [r] + [r @ q.matrix.astype(np.clongdouble) for q in quads]]
    p_ref = pom.weights[keep] * t_ref[0]
    for p in (an.p, probabilities(pom, rho)):
        assert float(np.max(np.abs(p[keep] - p_ref) / p_ref)) <= 1e-12
    for est, t_a in zip(an.estimates, t_ref[1:]):
        assert float(np.max(np.abs(est.values[keep] - t_a / t_ref[0]))) <= 1e-12


def test_unbiased_correction_noop_when_unbiased(rng):
    a = random_hermitian(3, rng)
    pom = projective_pom(a)
    est = optimal_estimate_no_info(a, pom)
    corrected = unbiased_correction(est, a)
    assert np.abs(corrected.values - est.values).max() < 1e-10


def test_unbiased_correction_photon_counting():
    # no-information energy estimate (m+1)/eta - 1 corrects to m/eta (hbar omega = 1)
    dim, eta = 120, 0.6
    pom = inefficient_photon_pom(dim, eta, max_faithful_outcome=25)
    h = fock.number_operator(dim)
    est = optimal_estimate_no_info(h, pom)
    m = np.arange(26)
    assert np.abs(est.values[:26] - ((m + 1) / eta - 1)).max() < 1e-8
    corrected = unbiased_correction(est, h, subspace_dim=40)
    assert np.abs(corrected.values[:26] - m / eta).max() < 1e-10


def test_unbiased_correction_of_a_qubit_pom_with_a_zero_outcome_is_not_correctable():
    # the Bloch form M_k = q_k (1 + sigma . m_k) has no m_k where q_k = 0, so the qubit fit
    # declines before it divides by q
    amps = np.zeros((3, 1, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 0, 1] = 1.0
    pom = Pom(2, [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], amps)
    with pytest.raises(NotCorrectableError):
        unbiased_correction(Estimator(pom, np.array([0.0, 1.0, 5.0])), HermitianOperator(PAULI_Z))


def test_unbiased_correction_tetrahedral_componentwise(rng):
    pom = tetrahedral_pom()
    dirs = np.array(pom.values)
    for j, sigma in enumerate((PAULI_X, PAULI_Z)):
        s = HermitianOperator(sigma / 2)
        est = optimal_estimate_no_info(s, pom)
        corrected = unbiased_correction(est, s)
        # Lambda = I/3 so the corrected values are 3 m_j / 2
        assert np.abs(corrected.values - 1.5 * dirs[:, [0, 2][j]]).max() < 1e-10
        for _ in range(20):
            rho = random_density(2, rng)
            p = probabilities(pom, rho)
            assert p @ corrected.values == pytest.approx(s.expectation(rho), abs=1e-10)


def test_unbiased_correction_rejects_hopeless_case(rng):
    # two-outcome qubit POM cannot resolve three spin components
    pom = spin_pom([(0, 0, 1), (0, 0, -1)], [0.5, 0.5])
    sx = HermitianOperator(PAULI_X)
    est = optimal_estimate_no_info(sx, pom)
    with pytest.raises(NotCorrectableError):
        unbiased_correction(est, sx)


def test_estimate_stats_unbiased_and_pythagorean(rng):
    a = random_hermitian(4, rng)
    pom = random_pom(4, 5, rng)
    rho = random_density(4, rng)
    est = optimal_estimate(a, pom, rho)
    stats = estimate_stats(est, a, rho)
    assert stats.mean == pytest.approx(a.expectation(rho), abs=1e-10)
    assert a.variance(rho) == pytest.approx(
        stats.dispersion**2 + stats.inaccuracy**2, abs=1e-10
    )
    # minimum deviation identity: D^2 = <A^2> - <est^2>
    p = probabilities(pom, rho)
    a2 = np.real(np.trace(rho.matrix @ a.matrix @ a.matrix))
    est2 = p @ est.values**2
    assert stats.inaccuracy**2 == pytest.approx(a2 - est2, abs=1e-10)


def test_estimate_stats_poles(rng):
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    own = estimate_stats(optimal_estimate(a, projective_pom(a), rho), a, rho)
    assert own.inaccuracy < 1e-7
    assert own.dispersion == pytest.approx(np.sqrt(a.variance(rho)), abs=1e-7)
    trivial = estimate_stats(optimal_estimate(a, identity_pom(3), rho), a, rho)
    assert trivial.dispersion < 1e-12
    assert trivial.inaccuracy == pytest.approx(np.sqrt(a.variance(rho)), abs=1e-10)


def test_complete_pom_reduces_to_hermitian_case(rng):
    a = random_hermitian(3, rng)
    m = random_hermitian(3, rng)
    a_pom = projective_pom(a)
    m_pom = projective_pom(m)
    rho = random_density(3, rng)
    f_gen = optimal_estimate_complete_pom(a_pom, m_pom, rho)
    f_std = optimal_estimate(a, m_pom, rho)
    assert np.abs(f_gen.values - f_std.values).max() < 1e-10


def test_complete_pom_mutually_unbiased_bases():
    z_pom = projective_pom(HermitianOperator(PAULI_Z))
    x_pom = projective_pom(HermitianOperator(PAULI_X))
    plus = Ket(np.array([1.0, 1.0]) / np.sqrt(2))
    est = optimal_estimate_complete_pom(z_pom, x_pom, plus.to_density())
    keep = ~est.zero_probability
    assert np.abs(est.values[keep]).max() < 1e-12


def test_complete_pom_matches_quadratic_form_minimization(rng):
    # oracle: minimize tr[rho(A2bar + sum f^2 |m><m| - Abar Mbar - Mbar Abar)]
    dim = 3
    a = random_hermitian(dim, rng)
    m = random_hermitian(dim, rng)
    a_pom, m_pom = projective_pom(a), projective_pom(m)
    rho = random_density(dim, rng)
    est = optimal_estimate_complete_pom(a_pom, m_pom, rho)
    avals = a_pom.values_array()
    abar = (a_pom.kets.T * avals) @ a_pom.kets.conj()
    a2bar = (a_pom.kets.T * avals**2) @ a_pom.kets.conj()
    # the optimal estimate of Abar from the measured POM, bit for bit
    assert np.array_equal(est.values, optimal_estimate(HermitianOperator(abar), m_pom, rho).values)
    # the closed form <m| rho Abar + Abar rho |m> / (2 <m| rho |m>), up to rounding
    t = np.real(m_pom.traces(rho.matrix))
    ta = np.real(m_pom.traces(rho.matrix @ abar + abar @ rho.matrix)) / 2
    zero = t < 1e-14
    closed = np.where(zero, 0.0, ta / np.where(zero, 1.0, t))
    assert np.abs(est.values - closed).max() <= 1e-12 * max(1.0, np.abs(closed).max())
    assert np.array_equal(est.zero_probability, zero)
    # weak values outside Abar's spectrum are flagged, not altered
    assert np.array_equal(est.out_of_range,
                          (est.values < avals.min() - 1e-12) | (est.values > avals.max() + 1e-12))

    def gen_dev2(f):
        mbar = (m_pom.kets.T * f) @ m_pom.kets.conj()
        m2bar = (m_pom.kets.T * f**2) @ m_pom.kets.conj()
        mat = a2bar + m2bar - abar @ mbar - mbar @ abar
        return np.real(np.trace(rho.matrix @ mat))

    grid = np.linspace(-3 * a.norm(), 3 * a.norm(), 2001)
    for k in range(dim):
        scans = []
        for v in grid:
            f = est.values.copy()
            f[k] = v
            scans.append(gen_dev2(f))
        j = int(np.argmin(scans))
        j = min(max(j, 1), grid.size - 2)
        y0, y1, y2 = scans[j - 1], scans[j], scans[j + 1]
        vertex = grid[j] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (grid[j] - grid[j - 1])
        assert est.values[k] == pytest.approx(vertex, abs=1e-6)


def test_factor_consumers_build_no_outcome_matrix(monkeypatch, rng):
    counts = {"operator": 0, "project": 0, "traces": 0}

    def spy(name):
        original = getattr(Pom, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(Pom, name, wrapped)

    for name in counts:
        spy(name)
    naimark_extend(trine_pom())
    s = HermitianOperator(PAULI_X / 2)
    tetra = tetrahedral_pom()
    assert unbiased_correction(optimal_estimate_no_info(s, tetra), s).meta == "unbiased-corrected"
    assert counts["operator"] == 0
    a, m = random_hermitian(3, rng), random_hermitian(3, rng)
    counts.update(project=0, traces=0)
    optimal_estimate_complete_pom(projective_pom(a), projective_pom(m), random_density(3, rng))
    assert counts == {"operator": 0, "project": 1, "traces": 0}


def test_complete_pom_rejects_proportional_kets():
    z_pom = projective_pom(HermitianOperator(PAULI_Z))
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        optimal_estimate_complete_pom(z_pom, z_pom, rho)


def test_repeatability(rng):
    m = random_hermitian(4, rng)
    rho = random_density(4, rng)
    assert repeatability_check(m, m, rho)
    m2 = HermitianOperator(m.matrix @ m.matrix)
    assert repeatability_check(m2, m, rho)
    # diagonal pair in a common basis
    d1 = HermitianOperator(np.diag([1.0, -2.0, 0.5, 3.0]))
    d2 = HermitianOperator(np.diag([0.3, 1.1, -0.7, 2.0]))
    assert repeatability_check(d1, d2, rho)
    with pytest.raises(ValueError):
        repeatability_check(random_hermitian(4, rng), m, rho)


def test_kets_and_operator_twins_agree(rng):
    # one complete rank-one POM made twice: from its kets, and by from_operators
    # from their projectors, which it factors again
    d, n_out = 4, 9
    raw = rng.normal(size=(n_out, d)) + 1j * rng.normal(size=(n_out, d))
    weights = rng.uniform(0.5, 2.0, n_out)
    vals, vecs = np.linalg.eigh((raw.T * weights) @ raw.conj())
    kets = raw @ ((vecs * vals**-0.5) @ vecs.conj().T).T
    values = rng.normal(size=n_out)
    twin_kets = Pom(d, values, weights, kets[:, None])
    twin_ops = Pom.from_operators(np.einsum("ki,kj->kij", kets, kets.conj()), values, weights)
    assert np.abs(twin_kets.completeness_operator() - np.eye(d)).max() < 1e-12
    rho = random_density(d, rng)
    a = random_hermitian(d, rng)
    f = rng.normal(size=n_out)
    b = random_hermitian(d, rng)

    def both(fn):
        return fn(twin_kets), fn(twin_ops)

    def analysis(pom):
        return optimal_analysis((a, b), pom, rho)

    pairs = {
        "probabilities": both(lambda pom: probabilities(pom, rho)),
        "optimal_estimate_no_info": both(lambda pom: optimal_estimate_no_info(a, pom).values),
        "hs_distance": both(lambda pom: hs_distance(a, pom)),
        "analysis estimates": both(lambda pom: [e.values for e in analysis(pom).estimates]),
        "analysis dispersions": both(lambda pom: analysis(pom).dispersions),
        "analysis inaccuracies": both(lambda pom: analysis(pom).inaccuracies),
        "analysis deviation(0, f)": both(lambda pom: analysis(pom).deviation(0, f)),
        "check_accbound rhs": both(lambda pom: check_accbound(analysis(pom)).rhs),
        # a coarse beta step: the default 1e-5 amplifies the paths' last-bit
        # differences in tr[e^{-beta A} M_k] by 1/(2 beta rel_step) ~ 7e4
        "log_partition_estimate": both(lambda pom: log_partition_estimate(a, pom, 0.7,
                                                                          rel_step=1e-2)),
    }
    for name, (on_kets, on_ops) in pairs.items():
        np.testing.assert_allclose(on_kets, on_ops, rtol=0, atol=1e-12, err_msg=name)
    # the analysis's single-observable readers, on both twins, against traces
    # taken one outcome operator at a time
    r, ops = rho.matrix, list(twin_ops.operators())
    shifted = [a.matrix - fk * np.eye(d) for fk in f]
    references = {
        "optimal_estimate": (lambda pom: optimal_estimate(a, pom, rho).values,
                             [np.real(np.trace(r @ a.matrix @ m) / np.trace(r @ m)) for m in ops]),
        "estimate_stats inaccuracy": (lambda pom: estimate_stats(Estimator(pom, f), a, rho).inaccuracy,
                                      np.sqrt(sum(w * np.real(np.trace(s @ r @ s @ m))
                                                  for w, s, m in zip(weights, shifted, ops)))),
    }
    for name, (fn, ref) in references.items():
        for pom in (twin_kets, twin_ops):
            np.testing.assert_allclose(fn(pom), ref, rtol=0, atol=1e-12, err_msg=name)
