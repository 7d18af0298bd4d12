import numpy as np
import pytest

from pomest import fock
from pomest.estimation import (
    estimate_stats,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_no_info,
    probabilities,
)
from pomest.operators import DensityOperator, HermitianOperator, Ket, PAULI_X, PAULI_Y
from pomest.pom import GridSpec, Pom, coherent_pom, projective_pom, trine_pom
from pomest.relations import (
    UnbiasednessError,
    _extrapolated_fisher,
    _fisher,
    check_accbound,
    check_geom,
    check_uncanon,
    check_ungen,
    check_uni,
    commutator_bound,
    heterodyne_analysis,
)
from pomest.sampling import random_density, random_hermitian, random_pom, random_pure_ket

DIM40_GRID = GridSpec(0j, 7.0, 240)


def _analysis(pom, rho, *observables):
    return optimal_analysis(observables, pom, rho, probabilities(pom, rho))


@pytest.fixture(scope="module")
def het_pom():
    return coherent_pom(40, DIM40_GRID)


def test_geom_zero_bound_passes(rng):
    a = HermitianOperator(PAULI_X)
    b = HermitianOperator(PAULI_Y)
    rho = DensityOperator.maximally_mixed(2)
    rep = check_geom(_analysis(trine_pom(), rho, a, b))
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert rep.passed


def test_geom_saturated_for_minimum_uncertainty_state(rng):
    # an eigenstate of sigma_z saturates the x-y pair
    a = HermitianOperator(PAULI_X)
    b = HermitianOperator(PAULI_Y)
    rho = Ket.basis(2, 0).to_density()
    rep = check_geom(_analysis(trine_pom(), rho, a, b))
    assert rep.saturated
    assert rep.inputs_digest["pythagoras_gap"] < 1e-10


def test_geom_random_instances(rng):
    for _ in range(100):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        pom = random_pom(4, 5, rng)
        rho = random_density(4, rng)
        rep = check_geom(_analysis(pom, rho, a, b))
        assert rep.slack >= -1e-10
        assert rep.inputs_digest["pythagoras_gap"] < 1e-10


def test_accbound_compatible_case(rng):
    a = HermitianOperator(np.diag([1.0, -1.0, 0.5]))
    pom = projective_pom(HermitianOperator(np.diag([0.0, 1.0, 2.0])))
    rho = random_density(3, rng)
    rep = check_accbound(_analysis(pom, rho, a))
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_accbound_saturated_pure_complete(rng):
    a = random_hermitian(3, rng)
    pom = projective_pom(random_hermitian(3, rng))
    rho = random_pure_ket(3, rng).to_density()
    rep = check_accbound(_analysis(pom, rho, a))
    assert rep.saturated
    assert abs(rep.slack) < 1e-10


def test_accbound_strict_for_mixed_state(rng):
    a = random_hermitian(2, rng)
    rho = random_density(2, rng)
    rep = check_accbound(_analysis(trine_pom(), rho, a))
    assert rep.slack >= -1e-10
    # mixed full-rank states generically sit strictly above the bound
    assert rep.slack > 1e-6


def test_ungen_trivial_estimates(rng):
    from pomest.pom import identity_pom

    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    rho = random_density(2, rng)
    pom = identity_pom(2)
    zero = np.zeros(1)
    rep = check_ungen(_analysis(pom, rho, a, b), zero, zero)
    # no measurement: dispersions vanish, product of inaccuracies carries the bound
    assert rep.inputs_digest["disp_a"] < 1e-12
    assert rep.lhs == pytest.approx(
        rep.inputs_digest["eps_a"] * rep.inputs_digest["eps_b"], abs=1e-12
    )
    assert rep.passed


def test_ungen_position_measurement_grid():
    # measuring position perfectly forces disp_x * eps_p >= hbar/2
    n, hbar = 96, 1.0
    length = 14.0
    h = 2 * length / n
    x = -length + h * np.arange(n)
    f = np.fft.fft(np.eye(n), norm="ortho")
    p_vals = 2 * np.pi * hbar * np.fft.fftfreq(n, d=h)
    p_mat = f.conj().T @ (p_vals[:, None] * f)
    x_op = HermitianOperator(np.diag(x).astype(complex))
    p_op = HermitianOperator(p_mat)
    psi = np.exp(-(x**2) / 4 + 0.7j * x)
    rho = Ket(psi).to_density()
    pom = projective_pom(x_op, degeneracy_tol=1e-12)
    an = _analysis(pom, rho, x_op, p_op)
    rep = check_ungen(an, an.estimates[0].values, an.estimates[1].values)
    assert rep.inputs_digest["eps_a"] < 1e-6
    assert rep.rhs == pytest.approx(hbar / 2, abs=1e-6)
    assert rep.slack >= -1e-9


def test_ungen_random_suite(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        pom = random_pom(dim, int(rng.integers(2, 7)), rng)
        rho = random_density(dim, rng)
        f = rng.normal(size=pom.n_outcomes)
        g = rng.normal(size=pom.n_outcomes)
        rep = check_ungen(_analysis(pom, rho, a, b), f, g)
        assert rep.slack >= -1e-9


def test_uni_requires_unbiasedness(rng):
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    rho = random_density(2, rng)
    pom = trine_pom()
    biased = np.array([1.0, 2.0, 3.0])
    with pytest.raises(UnbiasednessError):
        check_uni(_analysis(pom, rho, a, b), biased, biased)


def test_uni_commuting_pair(rng):
    a = HermitianOperator(np.diag([1.0, -1.0]))
    b = HermitianOperator(np.diag([0.5, 2.0]))
    pom = projective_pom(HermitianOperator(np.diag([0.0, 1.0])))
    est_a = optimal_estimate_no_info(a, pom)
    est_b = optimal_estimate_no_info(b, pom)
    rho = random_density(2, rng)
    rep = check_uni(_analysis(pom, rho, a, b), est_a.values, est_b.values)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert rep.passed


def test_uni_heterodyne_saturation(rng):
    # the raw quadrature readouts are universally unbiased with eps^2 = 1/4 each;
    # the Fock margin beyond the verified block keeps the truncated family faithful
    dim = 64
    pom = coherent_pom(dim, GridSpec(0j, 9.0, 140))
    x1, x2 = fock.quadratures(dim)
    est_1 = optimal_estimate_no_info(x1, pom)
    est_2 = optimal_estimate_no_info(x2, pom)
    rho = fock.coherent_ket(dim, 0.8 - 0.3j).to_density()
    rep = check_uni(_analysis(pom, rho, x1, x2), est_1.values, est_2.values, subspace_dim=12)
    assert rep.rhs == pytest.approx(0.25, abs=1e-9)
    assert rep.lhs == pytest.approx(0.25, abs=1e-9)
    assert rep.saturated
    vac = fock.vacuum_ket(dim).to_density()
    rep_v = check_uni(_analysis(pom, vac, x1, x2), est_1.values, est_2.values, subspace_dim=12)
    assert rep_v.inputs_digest["eps_a"] ** 2 == pytest.approx(0.25, abs=1e-9)


def test_uni_joint_quadrature_dispersion_bound(het_pom):
    # dispersion^2 = Var + eps^2 lifts the product to the unbiased-readout level
    dim = het_pom.dim
    x1, x2 = fock.quadratures(dim)
    vac = fock.vacuum_ket(dim).to_density()
    from pomest.estimation import estimate_stats

    s1 = estimate_stats(optimal_estimate_no_info(x1, het_pom), x1, vac)
    s2 = estimate_stats(optimal_estimate_no_info(x2, het_pom), x2, vac)
    assert s1.dispersion**2 == pytest.approx(x1.variance(vac) + s1.inaccuracy**2, abs=1e-6)
    # canonical mapping hbar <-> 1/2: disp product 1/2 maps to hbar at hbar = 1
    assert 2 * s1.dispersion * s2.dispersion == pytest.approx(1.0, abs=1e-4)


def test_heterodyne_coherent_state(het_pom):
    dim = het_pom.dim
    beta = 1.2 + 0.5j
    rho = fock.coherent_ket(dim, beta).to_density()
    an = heterodyne_analysis(rho, het_pom)
    # estimates are (alpha + beta)/2
    n = DIM40_GRID.points_per_axis
    a1 = het_pom.values_array(0)
    core = np.abs(a1 + 1j * het_pom.values_array(1) - beta) < 3.0
    assert np.abs(an.est_1.values[core] - (a1[core] + beta.real) / 2).max() < 1e-6
    assert an.disp[0] * an.disp[1] == pytest.approx(0.125, abs=1e-6)
    assert an.noinfo_disp[0] * an.noinfo_disp[1] == pytest.approx(0.5, abs=1e-5)
    by_id = {r.relation_id: r for r in an.reports}
    assert by_id["unbest"].saturated
    assert by_id["accbest"].passed
    assert by_id["fishident"].passed
    assert an.crosscheck_points > 0
    assert an.crosscheck_max < 1e-3


def test_heterodyne_number_state(het_pom):
    dim = het_pom.dim
    rho = fock.number_ket(dim, 1).to_density()
    an = heterodyne_analysis(rho, het_pom)
    # estimate is alpha(1 + n/|alpha|^2)/2 for |n> with n = 1
    a1 = het_pom.values_array(0)
    a2 = het_pom.values_array(1)
    alpha = a1 + 1j * a2
    ring = (np.abs(alpha) > 1.0) & (np.abs(alpha) < 3.0)
    expect = 0.5 * alpha * (1 + 1 / np.abs(alpha) ** 2)
    assert np.abs(an.est_1.values[ring] - expect.real[ring]).max() < 1e-6
    assert np.abs(an.est_2.values[ring] - expect.imag[ring]).max() < 1e-6
    by_id = {r.relation_id: r for r in an.reports}
    assert by_id["accbest"].saturated  # pure state
    assert not by_id["unbest"].saturated  # only coherent states saturate
    assert by_id["unbest"].lhs == pytest.approx(0.625, abs=1e-4)


def test_heterodyne_mixed_state(het_pom):
    rho = fock.thermal_state(het_pom.dim, 0.8)
    an = heterodyne_analysis(rho, het_pom)
    by_id = {r.relation_id: r for r in an.reports}
    for rep in an.reports:
        assert rep.passed, rep.relation_id
    assert not by_id["accbest"].saturated
    assert an.mat_identity_gap < 1e-3


def test_heterodyne_fisher_identities(het_pom):
    for rho in (
        fock.vacuum_ket(het_pom.dim).to_density(),
        fock.number_ket(het_pom.dim, 1).to_density(),
    ):
        an = heterodyne_analysis(rho, het_pom)
        eps_sum = an.eps2[0] + an.eps2[1]
        assert eps_sum == pytest.approx(0.5 - an.trace_fisher / 16, abs=1e-3)
        assert an.trace_fisher <= 4 + 1e-3
        assert abs(an.eps2[0] - an.fisher[1, 1] / 16) < 1e-3
        assert abs(an.eps2[1] - an.fisher[0, 0] / 16) < 1e-3
        # marginal Cramer-Rao chain (quadrature slack)
        for j in (0, 1):
            assert an.fisher_marginal[j] >= 1 / an.cov_q[j, j] - 1e-4
            assert an.fisher[j, j] >= an.fisher_marginal[j] - 1e-4


def test_heterodyne_rejects_non_grid_pom(rng):
    rho = random_density(2, rng)
    with pytest.raises(ValueError):
        heterodyne_analysis(rho, trine_pom())


def test_uncanon_levels(het_pom):
    dim = het_pom.dim
    coh = fock.coherent_ket(dim, 0.9).to_density()
    rep = check_uncanon(heterodyne_analysis(coh, het_pom), hbar=1.0)
    assert rep.lhs == pytest.approx(0.25, abs=1e-4)
    assert rep.saturated
    assert rep.inputs_digest["ratio_to_unbiased_bound"] == pytest.approx(0.25, abs=1e-3)
    # without prior information the product sits at the unbiased bound hbar
    assert rep.inputs_digest["noinfo_product"] == pytest.approx(1.0, abs=1e-3)
    thermal = fock.thermal_state(dim, 0.5)
    rep_t = check_uncanon(heterodyne_analysis(thermal, het_pom), hbar=1.0)
    assert rep_t.lhs >= 0.25 - 1e-9


def test_commutator_bound_quadratures():
    x1, x2 = fock.quadratures(30)
    vac = fock.vacuum_ket(30).to_density()
    assert commutator_bound(x1, x2, vac) == pytest.approx(0.25, abs=1e-12)


def test_heterodyne_analysis_matches_reference_route(monkeypatch):
    dim = 12
    pom = coherent_pom(dim, GridSpec(0j, 6.5, 101))
    coherent = fock.coherent_ket(dim, 0.7 - 0.4j).to_density()
    mixed = DensityOperator(0.6 * coherent.matrix + 0.4 * fock.number_ket(dim, 1).to_density().matrix)
    operands = []
    for name in ("traces", "project"):
        def spy(self, x, _original=getattr(Pom, name), _name=name):
            operands.append((_name, np.array(x)))
            return _original(self, x)
        monkeypatch.setattr(Pom, name, spy)
    for rho in (coherent, mixed):
        operands.clear()
        an = heterodyne_analysis(rho, pom)
        # one projection of the kets, and no operand traced twice
        assert [name for name, _ in operands].count("project") == 1
        traced = [x for name, x in operands if name == "traces"]
        for i, x in enumerate(traced):
            assert not any(y.shape == x.shape and np.array_equal(x, y) for y in traced[i + 1:])
        # the reference route: separate estimate, statistics and no-information calls
        p = probabilities(pom, rho)
        keep = p > 1e-8
        for j, x in enumerate(fock.quadratures(dim)):
            est = optimal_estimate(x, pom, rho)
            stats = estimate_stats(est, x, rho, p)
            noinfo = estimate_stats(optimal_estimate_no_info(x, pom), x, rho, p)
            got = (an.est_1, an.est_2)[j]
            np.testing.assert_allclose(got.values[keep], est.values[keep], rtol=0, atol=1e-12)
            assert an.disp[j] == pytest.approx(stats.dispersion, rel=0, abs=1e-12)
            assert an.eps2[j] == pytest.approx(stats.inaccuracy**2, rel=0, abs=1e-12)
            assert an.noinfo_disp[j] == pytest.approx(noinfo.dispersion, rel=0, abs=1e-12)


def test_heterodyne_analysis_traces_rho_and_the_quadratures_only(monkeypatch):
    pom = coherent_pom(12, GridSpec(0j, 6.5, 101))
    rho = fock.coherent_ket(12, 0.7 - 0.4j).to_density()
    traced = []

    def spy(self, x, _original=Pom.traces):
        traced.append(np.array(x))
        return _original(self, x)

    monkeypatch.setattr(Pom, "traces", spy)
    heterodyne_analysis(rho, pom)
    x1, x2 = fock.quadratures(12)
    assert len(traced) == 3
    for x, expect in zip(traced, (rho.matrix, x1.matrix, x2.matrix)):
        assert np.array_equal(x, expect)
    assert not any(np.array_equal(x, np.eye(12)) for x in traced)


def _reference_gradient_fisher(q, step):
    # the joint Fisher matrix as a 2x2 double loop over masked central differences
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


def _reference_marginal_fisher(qm, step):
    dm = np.zeros_like(qm)
    dm[1:-1] = (qm[2:] - qm[:-2]) / (2 * step)
    ok = qm > 0
    ok[0] = ok[-1] = False
    return float(step * np.sum(dm[ok] ** 2 / qm[ok]))


@pytest.mark.parametrize("state", ["coherent", "thermal"])
def test_fisher_kernel_matches_reference_loops(state):
    dim = 12
    grid = GridSpec(0j, 6.5, 101)
    pom = coherent_pom(dim, grid)
    rho = (fock.coherent_ket(dim, 0.7 - 0.4j).to_density() if state == "coherent"
           else fock.thermal_state(dim, 0.8))
    n, h = grid.points_per_axis, grid.step
    q = (probabilities(pom, rho) / pom.weights / np.pi).reshape(n, n)
    g1, g2, ref, ref_mask = _reference_gradient_fisher(q, h)
    g, mat, mask = _fisher(q, h)
    # relative to the matrix scale: the off-diagonal of a symmetric Q cancels to ~1e-9
    np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert np.array_equal(mask, ref_mask)
    # the interior gradient is the same central difference, bit for bit
    assert np.array_equal(g[0][1:-1], g1[1:-1]) and np.array_equal(g[1][:, 1:-1], g2[:, 1:-1])
    for ax in (1, 0):
        qm = q.sum(axis=ax) * h
        (marginal,), = _fisher(qm, h)[1]
        assert marginal == pytest.approx(_reference_marginal_fisher(qm, h), rel=1e-13, abs=0)


def test_extrapolated_fisher_removes_the_step_squared_error():
    # a density with a double zero between grid points, F = 3; on a plain Gaussian
    # the central-difference error is sinh(h^2)/h^2 - 1 = O(h^4), with nothing to extrapolate
    h = 0.1
    x = h * (np.arange(-90, 91) + 0.37)
    q = x**2 * np.exp(-x**2 / 2) / np.sqrt(2 * np.pi)
    plain = _fisher(q, h)[1][0, 0]
    extrapolated = _extrapolated_fisher(q, h)[1][0, 0]
    assert abs(extrapolated - 3) < abs(plain - 3) / 10
