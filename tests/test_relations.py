import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pomest import fock
from pomest.estimation import (
    _no_info_values,
    _outcome_traces,
    estimate_stats,
    optimal_analysis,
    optimal_estimate_no_info,
)
from pomest.operators import DensityOperator, HermitianOperator, Ket, PAULI_X, PAULI_Y
from pomest.pom import GridSpec, Pom, coherent_pom, projective_pom, trine_pom
from pomest.relations import (
    GridResolutionError,
    UnbiasednessError,
    _annihilation_traces,
    check_accbound,
    check_geom,
    check_uncanon,
    check_ungen,
    check_uni,
    check_varsum,
    heterodyne_analysis,
)
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

DIM40_GRID = GridSpec(0j, 7.0, 240)


def _analysis(pom, rho, *observables):
    return optimal_analysis(observables, pom, rho)

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


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_accbound_saturates_with_a_rare_outcome(eps):
    # |0> measured in {eps|0> + sqrt(1 - eps^2)|1>, its complement}, A = sigma_y: the rare outcome has
    # probability eps^2 (1e-6, 1e-10) and an rhs term of about 1, which only the 1e-14 cut keeps
    c = np.sqrt(1 - eps**2)
    pom = Pom(2, [0.0, 1.0], np.ones(2), np.array([[[eps, c]], [[c, -eps]]], complex), kind="projective")
    rep = check_accbound(_analysis(pom, Ket(np.array([1.0, 0.0])).to_density(), HermitianOperator(PAULI_Y)))
    assert rep.inputs_digest["n_outcomes_kept"] == 2
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.saturated


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
    # one value off by 1e-5 leaves a bias operator far above BIAS_TOL = 1e-8
    with pytest.raises(UnbiasednessError):
        check_uni(_analysis(pom, rho, a, b), est_a.values + np.array([1e-5, 0.0]), est_b.values)


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
    assert np.abs(an.optimal.estimates[0].values[core] - (a1[core] + beta.real) / 2).max() < 1e-6
    assert an.optimal.dispersions[0] * an.optimal.dispersions[1] == pytest.approx(0.125, abs=1e-6)
    assert an.noinfo_disp[0] * an.noinfo_disp[1] == pytest.approx(0.5, abs=1e-5)
    by_id = {r.relation_id: r for r in an.reports}
    assert by_id["unbest"].saturated
    assert by_id["accbest"].passed
    assert by_id["fishident"].passed
    assert an.crosscheck_rms < 1e-10


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
    est_1, est_2 = an.optimal.estimates
    assert np.abs(est_1.values[ring] - expect.real[ring]).max() < 1e-6
    assert np.abs(est_2.values[ring] - expect.imag[ring]).max() < 1e-6
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
        eps2 = [e**2 for e in an.optimal.inaccuracies]
        eps_sum = eps2[0] + eps2[1]
        assert eps_sum == pytest.approx(0.5 - an.trace_fisher / 16, abs=1e-3)
        assert an.trace_fisher <= 4 + 1e-3
        assert abs(eps2[0] - an.fisher[1, 1] / 16) < 1e-3
        assert abs(eps2[1] - an.fisher[0, 0] / 16) < 1e-3
        # marginal Cramer-Rao chain (quadrature slack)
        for j in (0, 1):
            assert an.fisher_marginal[j] >= 1 / an.cov_q[j, j] - 1e-4
            assert an.fisher[j, j] >= an.fisher_marginal[j] - 1e-4


@pytest.mark.parametrize("rho, fisher", [
    (fock.vacuum_ket(40).to_density(), 2.0),
    (fock.coherent_ket(40, 0.8 - 0.5j).to_density(), 2.0),
    (fock.thermal_state(40, 0.5), 2 / 1.5),
    (fock.thermal_state(40, 0.8), 2 / 1.8),
], ids=["vacuum", "coherent", "thermal-0.5", "thermal-0.8"])
def test_heterodyne_fisher_matches_the_gaussian_closed_form(rho, fisher):
    # Q of a displaced thermal state is a Gaussian of variance (n + 1)/2 per quadrature,
    # so F = 2/(n + 1) I, and each marginal carries the same diagonal
    an = heterodyne_analysis(rho, coherent_pom(40, GridSpec(0j, 7.0, 160)))
    np.testing.assert_allclose(an.fisher, fisher * np.eye(2), rtol=0, atol=1e-10)
    assert an.fisher_marginal == pytest.approx((fisher, fisher), rel=0, abs=1e-10)


def test_heterodyne_rejects_non_grid_pom(rng):
    rho = random_density(2, rng)
    with pytest.raises(ValueError):
        heterodyne_analysis(rho, trine_pom())


def test_heterodyne_grid_that_cuts_q_fails_marginal_cramer_rao():
    # radius 2.7 cuts the vacuum's Q at 7e-4 of its peak, so the grid's first moments
    # sum_k w alpha_k M_k miss X_j; the 12^2 grid still passes the spectral cross-check
    # (rms 5.2e-4 against 1e-3), and 1/Var alpha_j exceeds the marginal by 1.28 times the slack
    with pytest.raises(GridResolutionError, match="Cramer-Rao"):
        heterodyne_analysis(fock.vacuum_ket(4).to_density(), coherent_pom(4, GridSpec(0j, 2.7, 12)))


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
    dense = abs(np.trace(vac.matrix @ (x1.matrix @ x2.matrix - x2.matrix @ x1.matrix))) / 2  # |<[X1, X2]>|/2
    assert dense == pytest.approx(0.25, abs=1e-12)
    assert _analysis(projective_pom(x1), vac, x1, x2).commutator_bound == pytest.approx(0.25, abs=1e-12)


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
        # the reference: traces taken one outcome operator at a time
        ops = np.array([pom.operator(k) for k in range(pom.n_outcomes)])

        def traces(x):
            return np.real(np.einsum("ij,kji->k", x, ops))

        r, t = rho.matrix, traces(rho.matrix)
        p = pom.weights * t
        keep = p > 1e-8
        noinfo_t = traces(np.eye(dim))

        def dispersion(f):
            return np.sqrt(max(p @ f**2 - (p @ f) ** 2, 0.0))

        for j, x in enumerate(fock.quadratures(dim)):
            x = x.matrix
            f = np.where(t < 1e-14, 0.0, traces(r @ x) / t)
            got = an.optimal.estimates[j]
            np.testing.assert_allclose(got.values[keep], f[keep], rtol=0, atol=1e-12)
            assert an.optimal.dispersions[j] == pytest.approx(dispersion(f), rel=0, abs=1e-12)
            eps2 = pom.weights @ (traces(x @ r @ x) - 2 * f * traces(r @ x) + f * f * t)
            assert an.optimal.inaccuracies[j] ** 2 == pytest.approx(eps2, rel=0, abs=1e-12)
            assert an.noinfo_disp[j] == pytest.approx(dispersion(traces(x) / noinfo_t), rel=0, abs=1e-12)


def test_heterodyne_analysis_traces_rho_and_the_quadratures_only(monkeypatch):
    rho = fock.coherent_ket(12, 0.7 - 0.4j).to_density()
    for n in (100, 101):  # an even and an odd grid, each past one chunk of kets with a remainder
        pom = coherent_pom(12, GridSpec(0j, 6.5, n))
        traced = []

        def spy(self, x, _original=Pom.traces):
            traced.append(np.array(x))
            return _original(self, x)

        with monkeypatch.context() as patch:
            patch.setattr(Pom, "traces", spy)
            an = heterodyne_analysis(rho, pom)
        # rho reaches the kets through one projection; both quadratures' no-information traces
        # come from tr[a M_k] = tr[X1 M_k] + i tr[X2 M_k], read from the kets shifted by one level
        assert traced == []
        t_a = pom.traces(fock.annihilation(12))
        assert np.array_equal(_annihilation_traces(pom.kets), t_a)
        t_id = _outcome_traces(pom)
        noinfo = (_no_info_values(t_id, t) for t in (t_a.real, t_a.imag))
        assert an.noinfo_disp == tuple(map(an.optimal.dispersion, noinfo))


@st.composite
def relation_stacks(draw):
    """N instances of one (dim, K) and state rank, as the draws ``relations`` gathers for a stack."""
    dim = draw(st.integers(2, 6))
    n_out, rank, n = draw(st.integers(2, 2 * dim + 1)), draw(st.integers(1, dim)), draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    return [(pom_normal(rng, n_out, dim), complex_normal(rng, dim, rank), complex_normal(rng, dim, dim),
             complex_normal(rng, dim, dim), rng.normal(size=n_out)) for _ in range(n)]


def _stack_analysis(g_pom, g_rho, g_a, g_b):
    return optimal_analysis((hermitian_part(g_a), hermitian_part(g_b)), whitened_pom(g_pom),
                            normalized_density(g_rho))


def _stack_rows(an, noise):
    f, g = an.values
    return [check_geom(an), check_accbound(an), check_varsum(an), check_ungen(an, f + noise, g)]


@given(draws=relation_stacks())
def test_a_stack_is_checked_bit_for_bit_as_its_instances_one_by_one(draws):
    stack = [np.stack(x) for x in zip(*draws)]
    an = _stack_analysis(*stack[:4])
    rows = _stack_rows(an, stack[4])
    for n, (*instance, noise) in enumerate(draws):
        one = _stack_analysis(*instance)
        for name in ("t", "t_a", "t_aa"):
            assert getattr(an, name)[..., n, :].tobytes() == getattr(one, name).tobytes(), name
        assert an.values[:, n].tobytes() == one.values.tobytes()
        for name in ("dispersions", "inaccuracies"):
            assert [x[n] for x in getattr(an, name)] == list(getattr(one, name)), name
        assert an.variances[:, n].tobytes() == one.variances.tobytes()
        assert an.commutator_bound[n] == one.commutator_bound
        # lhs, rhs, flags and digest of every row
        assert [reps[n] for reps in rows] == _stack_rows(one, noise)


@given(draws=relation_stacks())
def test_zero_outcomes_padding_a_stack_change_no_flag_and_no_number_beyond_rounding(draws):
    # `relations` pads each POM draw with zero outcomes to 2 dim + 1 and checks a dimension as one stack
    g_pom, *g_ops, noise = (np.stack(x) for x in zip(*draws))
    n, n_out, dim = g_pom.shape[:3]
    padded_pom, padded_noise = np.zeros((n, 2 * dim + 1, dim, dim), complex), np.zeros((n, 2 * dim + 1))
    padded_pom[:, :n_out], padded_noise[:, :n_out] = g_pom, noise
    an, padded = _stack_analysis(g_pom, *g_ops), _stack_analysis(padded_pom, *g_ops)
    for name in ("t", "t_a", "t_aa"):
        x, y = getattr(an, name), getattr(padded, name)
        assert y[..., :n_out].tobytes() == x.tobytes(), name
        assert not y[..., n_out:].any(), name
    for reps, padded_reps in zip(_stack_rows(an, noise), _stack_rows(padded, padded_noise)):
        for rep, pad in zip(reps, padded_reps):
            assert (rep.passed, rep.saturated) == (pad.passed, pad.saturated)
            assert rep.inputs_digest.keys() == pad.inputs_digest.keys()
            assert rep.inputs_digest.get("n_outcomes_kept") == pad.inputs_digest.get("n_outcomes_kept")
            for x, y in zip([rep.lhs, rep.rhs, rep.slack, *rep.inputs_digest.values()],
                            [pad.lhs, pad.rhs, pad.slack, *pad.inputs_digest.values()]):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
