import numpy as np
import pytest

from pomest import fock
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
    statistical_deviation,
    unbiased_correction,
)
from pomest.operators import DensityOperator, HermitianOperator, Ket, PAULI_X, PAULI_Z
from pomest.pom import (
    GridSpec,
    Pom,
    coherent_pom,
    identity_pom,
    inefficient_photon_pom,
    projective_pom,
    spin_pom,
    tetrahedral_pom,
    trine_pom,
)
from pomest.relations import check_accbound
from pomest.sampling import random_density, random_hermitian, random_pom, random_pure_ket
from pomest.scenarios import log_partition_estimate


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
            return statistical_deviation(a, Estimator(pom, values), rho) ** 2
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
    assert statistical_deviation(a, est, rho) < 1e-7


def test_statistical_deviation_trivial_pom(rng):
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    pom = identity_pom(3)
    est = Estimator(pom, [0.0])
    expect = np.sqrt(np.real(np.trace(rho.matrix @ a.matrix @ a.matrix)))
    assert statistical_deviation(a, est, rho) == pytest.approx(expect, abs=1e-12)


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
    assert statistical_deviation(a, est, rho) ** 2 == pytest.approx(expect, abs=1e-12)


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
        assert statistical_deviation(a, est, rho) ** 2 == pytest.approx(total, abs=1e-12)


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
        samples.append(statistical_deviation(a, est, rho) ** 2)
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
    base = statistical_deviation(a, est, rho)
    for _ in range(100):
        noise = rng.normal(size=4) * 0.3
        worse = statistical_deviation(a, Estimator(pom, est.values + noise), rho)
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


def test_optimal_analysis_matches_separate_calls(rng):
    d, n_kets = 5, 9
    kets = rng.normal(size=(n_kets, d)) + 1j * rng.normal(size=(n_kets, d))
    pom = Pom(d, np.arange(n_kets, dtype=float), rng.uniform(0.5, 1.5, n_kets), kets=kets)
    obs = (random_hermitian(d, rng), random_hermitian(d, rng))
    rho = DensityOperator(0.7 * random_pure_ket(d, rng).to_density().matrix
                          + 0.3 * random_pure_ket(d, rng).to_density().matrix)
    # the kets POM and a POM of outcome operators
    for pom in (pom, random_pom(d, 4, rng)):
        p = probabilities(pom, rho)
        an = optimal_analysis(obs, pom, rho, p)
        f = rng.normal(size=pom.n_outcomes)
        for j, a in enumerate(obs):
            est = optimal_estimate(a, pom, rho)
            stats = estimate_stats(est, a, rho, p)
            np.testing.assert_allclose(an.estimates[j].values, est.values, rtol=0, atol=1e-12)
            assert an.dispersions[j] == pytest.approx(stats.dispersion, rel=0, abs=1e-12)
            assert an.inaccuracies[j] == pytest.approx(stats.inaccuracy, rel=0, abs=1e-12)
            assert an.deviation(j, f) == pytest.approx(
                statistical_deviation(a, Estimator(pom, f), rho), rel=0, abs=1e-12)
    # a zero ket has tr M_k = 0: the no-information estimate is undefined, and
    # the analysis flags the outcome as one of zero probability
    kets[3] = 0
    pom = Pom(d, np.arange(n_kets, dtype=float), np.ones(n_kets), kets=kets)
    with pytest.raises(ValueError, match="zero-trace"):
        optimal_estimate_no_info(obs[0], pom)
    an = optimal_analysis(obs, pom, rho, probabilities(pom, rho))
    assert an.estimates[0].zero_probability[3] and an.estimates[0].values[3] == 0


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
    # the closed form <m| rho Abar + Abar rho |m> / (2 <m| rho |m>), bit for bit
    t = np.real(m_pom.traces(rho.matrix))
    ta = np.real(m_pom.traces(rho.matrix @ abar + abar @ rho.matrix)) / 2
    zero = t < 1e-14
    assert np.array_equal(est.values, np.where(zero, 0.0, ta / np.where(zero, 1.0, t)))
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
    # one complete rank-one POM stored twice: as kets and as their projectors
    d, n_out = 4, 9
    raw = rng.normal(size=(n_out, d)) + 1j * rng.normal(size=(n_out, d))
    weights = rng.uniform(0.5, 2.0, n_out)
    vals, vecs = np.linalg.eigh((raw.T * weights) @ raw.conj())
    kets = raw @ ((vecs * vals**-0.5) @ vecs.conj().T).T
    values = rng.normal(size=n_out)
    twin_kets = Pom(d, values, weights, kets=kets)
    twin_ops = Pom(d, values, weights, operators=np.einsum("ki,kj->kij", kets, kets.conj()))
    assert np.abs(twin_kets.completeness_operator() - np.eye(d)).max() < 1e-12
    rho = random_density(d, rng)
    a = random_hermitian(d, rng)
    f = rng.normal(size=n_out)
    b = random_hermitian(d, rng)

    def both(fn):
        return fn(twin_kets), fn(twin_ops)

    def analysis(pom):
        return optimal_analysis((a, b), pom, rho, probabilities(pom, rho))

    pairs = {
        "probabilities": both(lambda pom: probabilities(pom, rho)),
        "optimal_estimate": both(lambda pom: optimal_estimate(a, pom, rho).values),
        "optimal_estimate_no_info": both(lambda pom: optimal_estimate_no_info(a, pom).values),
        "statistical_deviation": both(lambda pom: statistical_deviation(a, Estimator(pom, f), rho)),
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
