import math
import tracemalloc

import numpy as np
import pytest

from pomest import fock
from pomest.estimation import probabilities
from pomest.operators import DensityOperator, HermitianOperator, partial_trace_ancilla, tensor
from pomest.pom import (
    _GRID_CHUNK,
    CompletenessError,
    CompletionError,
    GridSpec,
    Pom,
    TruncationTailError,
    coherent_pom,
    imageband_conjugate,
    imageband_pom,
    identity_pom,
    inefficient_photon_pom,
    naimark_extend,
    pom_from_json,
    pom_to_json,
    projective_pom,
    spin_pom,
    tetrahedral_pom,
    trine_pom,
    validate,
)
from pomest.sampling import random_density, random_hermitian, random_pom


GRID = GridSpec(0j, 6.0, 61)


def test_validate_projective_pass(rng):
    pom = projective_pom(random_hermitian(4, rng))
    report = validate(pom)
    assert report.passed
    assert report.completeness_deviation < 1e-12


def test_validate_two_halves():
    half = np.eye(2, dtype=complex) / 2
    from pomest.pom import Pom

    pom = Pom.from_operators([half, half], values=[0.0, 1.0])
    assert validate(pom).passed


def test_coherent_grid_pom_valid_after_renormalization():
    pom = coherent_pom(30, GRID)
    report = validate(pom)
    assert report.passed
    assert pom.renorm_correction < 0.1


def test_coherent_pom_rejects_tiny_grid():
    with pytest.raises(CompletenessError):
        coherent_pom(30, GridSpec(0j, 1.5, 21))


def test_coherent_pom_vacuum_q_function():
    # outcome probabilities over the cell measure reproduce e^{-|a|^2}/pi
    pom = coherent_pom(30, GRID)
    vac = fock.vacuum_ket(30).to_density()
    p = probabilities(pom, vac)
    cell = GRID.step**2
    alphas = pom.values_array(0) + 1j * pom.values_array(1)
    q_ref = np.exp(-np.abs(alphas) ** 2) / np.pi
    assert np.abs(p / cell - q_ref).max() < 1e-6
    assert p.sum() == pytest.approx(1.0, abs=1e-8)


def test_coherent_pom_probabilities_normalized_random_state(rng):
    pom = coherent_pom(16, GridSpec(0j, 5.5, 61))
    rho = random_density(16, rng, rank=3)
    p = probabilities(pom, rho)
    assert p.min() >= -1e-10
    assert p.sum() == pytest.approx(1.0, abs=1e-8)


def test_coherent_pom_mean_tracks_displacement():
    beta = 0.9 + 0.4j
    pom = coherent_pom(30, GRID)
    rho = fock.coherent_ket(30, beta).to_density()
    p = probabilities(pom, rho)
    mean1 = p @ pom.values_array(0)
    mean2 = p @ pom.values_array(1)
    assert mean1 == pytest.approx(beta.real, abs=1e-6)
    assert mean2 == pytest.approx(beta.imag, abs=1e-6)


def test_imageband_vacuum_reduces_to_coherent():
    vac = fock.vacuum_ket(12).to_density()
    pom_i = imageband_pom(12, GridSpec(0j, 4.5, 31), vac)
    pom_c = coherent_pom(12, GridSpec(0j, 4.5, 31))
    assert pom_i.kets is not None
    assert np.abs(pom_i.kets - pom_c.kets).max() < 1e-12


def test_imageband_conjugate_number_state():
    one = fock.number_ket(6, 1).to_density()
    conj = imageband_conjugate(one)
    assert np.abs(conj - one.matrix).max() < 1e-14


def _displacement_expm(dim, alpha):
    """D(alpha) as the spectral exponential of the truncated generator."""
    a = fock.annihilation(dim)
    vals, vecs = np.linalg.eigh(1j * (alpha * a.conj().T - np.conjugate(alpha) * a))
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def test_imageband_number_state_outcomes_are_displaced_number_states():
    dim = 30
    one = fock.number_ket(dim, 1).to_density()
    grid = GridSpec(0j, 6.5, 33)
    pom = imageband_pom(dim, grid, one)
    alphas, _ = grid.points()
    k = 18 * 33 + 18  # alpha = 0.8125 + 0.8125j, well inside the truncation
    ref = _displacement_expm(dim, alphas[k])[:, 1]
    ket = pom.kets[k]
    # renormalization only touches the top Fock rows
    assert np.abs(ket[:12] - ref[:12]).max() < 1e-10


def test_imageband_vacuum_signal_radially_symmetric():
    dim = 30
    one = fock.number_ket(dim, 1).to_density()
    grid = GridSpec(0j, 5.5, 41)
    pom = imageband_pom(dim, grid, one)
    vac = fock.vacuum_ket(dim).to_density()
    p = probabilities(pom, vac).reshape(41, 41)
    # quarter-turn symmetry of the grid maps the distribution onto itself
    assert np.abs(p - np.rot90(p)).max() < 1e-10


def _imageband_reference(dim, grid, imageband):
    """Per-point T^{-1/2} D rho' D† T^{-1/2} and the (mean, max) eigenvalue corrections of T."""
    rho_c = np.zeros((dim, dim), dtype=complex)
    rho_c[: imageband.dim, : imageband.dim] = imageband_conjugate(imageband)
    alphas, cell = grid.points()
    ops = []
    for a in alphas:
        d = fock.displacement(dim, a)
        ops.append(d @ rho_c @ d.conj().T)
    total = cell / np.pi * np.sum(ops, axis=0)
    vals, vecs = np.linalg.eigh((total + total.conj().T) / 2)
    inv_sqrt = (vecs * vals**-0.5) @ vecs.conj().T
    return [inv_sqrt @ op @ inv_sqrt for op in ops], abs(vals.mean() - 1), np.abs(vals - 1).max()


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])  # K below, equal to, not a multiple of the chunk
def test_imageband_chunks_match_per_point_reference(rank, offset, rng):
    side = math.isqrt(_GRID_CHUNK)
    assert side * side == _GRID_CHUNK
    grid = GridSpec(0.3 - 0.2j, 5.0, side + offset)
    imageband = random_density(3, rng, rank=rank)
    pom = imageband_pom(8, grid, imageband)
    ref, mean_corr, max_corr = _imageband_reference(8, grid, imageband)
    assert (pom.kets is not None) == (rank == 1)
    got = np.array(list(pom.operators()))
    assert got.shape[0] == (side + offset) ** 2
    assert np.abs(got - ref).max() < 1e-12
    assert pom.renorm_correction == pytest.approx(mean_corr, abs=1e-12)
    assert pom.meta["max_renorm_correction"] == pytest.approx(max_corr, abs=1e-12)


def test_imageband_builds_only_the_occupied_columns(monkeypatch):
    # |1> occupies Fock levels 0 and 1 only: two columns of each D(a), and kets, no (K, d, d) stack
    dim, grid = 12, GridSpec(0.3 - 0.2j, 5.0, 33)
    one = fock.number_ket(dim, 1).to_density()
    ref, mean_corr, max_corr = _imageband_reference(dim, grid, one)
    columns = []

    def spy(dim, alphas, n_columns, _original=fock.displacement_columns):
        columns.append(n_columns)
        return _original(dim, alphas, n_columns)

    monkeypatch.setattr(fock, "displacement_columns", spy)
    tracemalloc.start()
    try:
        pom = imageband_pom(dim, grid, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns == [2] * math.ceil(grid.points_per_axis**2 / _GRID_CHUNK)
    assert pom.kets is not None
    assert peak < pom.n_outcomes * dim * dim * np.dtype(complex).itemsize
    assert np.abs(np.array(list(pom.operators())) - ref).max() < 1e-12
    assert pom.renorm_correction == pytest.approx(mean_corr, abs=1e-12)
    assert pom.meta["max_renorm_correction"] == pytest.approx(max_corr, abs=1e-12)


def test_inefficient_photon_pom_eta_one_projective():
    pom = inefficient_photon_pom(12, 1.0)
    for m, op in enumerate(pom.operators()):
        expect = np.zeros((12, 12))
        expect[m, m] = 1.0
        assert np.abs(op - expect).max() == 0.0


def test_inefficient_photon_pom_complete():
    pom = inefficient_photon_pom(25, 0.6)
    assert validate(pom).passed


def test_inefficient_photon_pom_tail_guard():
    with pytest.raises(TruncationTailError):
        inefficient_photon_pom(20, 0.3, max_faithful_outcome=15)
    inefficient_photon_pom(120, 0.6, max_faithful_outcome=20)


def test_spin_pom_projective_case():
    pom = spin_pom([(0, 0, 1), (0, 0, -1)], [0.5, 0.5])
    ops = list(pom.operators())
    assert np.allclose(ops[0], np.diag([1.0, 0.0]))
    assert np.allclose(ops[1], np.diag([0.0, 1.0]))


def test_spin_pom_rejects_biased_directions():
    with pytest.raises(ValueError):
        spin_pom([(0, 0, 1), (0, 0, 0.5)], [0.5, 0.5])


@pytest.mark.parametrize("factory", [tetrahedral_pom, trine_pom])
def test_named_spin_poms_valid(factory):
    assert validate(factory()).passed


def test_tetrahedral_direction_second_moment():
    pom = tetrahedral_pom()
    dirs = np.array(pom.values)
    lam = sum(0.25 * np.outer(m, m) for m in dirs)
    assert np.abs(lam - np.eye(3) / 3).max() < 1e-12


def test_axes_pom_second_moment():
    dirs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    pom = spin_pom(dirs, [1 / 6] * 6)
    assert validate(pom).passed
    lam = sum(q * np.outer(m, m) for q, m in zip([1 / 6] * 6, dirs))
    assert np.abs(lam - np.eye(3) / 3).max() < 1e-12


def test_naimark_projective_pom_exact(rng):
    pom = projective_pom(random_hermitian(3, rng))
    ext = naimark_extend(pom)
    rho = random_density(3, rng)
    big = tensor(rho, ext.ancilla_state)
    for k in range(pom.n_outcomes):
        direct = pom.weights[k] * np.real(np.trace(rho.matrix @ pom.operator(k)))
        lifted = np.real(np.trace(big.matrix @ ext.projections[k]))
        assert direct == pytest.approx(lifted, abs=1e-12)


def test_naimark_trine_statistics(rng):
    pom = trine_pom()
    ext = naimark_extend(pom)
    for proj in ext.projections:
        assert np.abs(proj @ proj - proj).max() < 1e-10
    for i in range(len(ext.projections)):
        for j in range(i):
            assert np.abs(ext.projections[i] @ ext.projections[j]).max() < 1e-10
    total = sum(ext.projections)
    assert np.abs(total - np.eye(6)).max() < 1e-10
    for _ in range(10):
        rho = random_density(2, rng)
        big = tensor(rho, ext.ancilla_state)
        for k in range(3):
            direct = np.real(np.trace(rho.matrix @ pom.operator(k)))
            lifted = np.real(np.trace(big.matrix @ ext.projections[k]))
            assert direct == pytest.approx(lifted, abs=1e-10)


def test_naimark_unitary_is_unitary(rng):
    pom = random_pom(3, 4, rng)
    ext = naimark_extend(pom)
    u = ext.unitary
    assert np.abs(u.conj().T @ u - np.eye(12)).max() < 1e-10


@pytest.mark.parametrize("pom", [
    projective_pom(HermitianOperator(np.diag([1.0, 1.0, 2.0, 3.0, 3.0]))),
    identity_pom(3),
    inefficient_photon_pom(8, 0.6),
    imageband_pom(3, GridSpec(0j, 3.0, 5), DensityOperator(np.diag([0.7, 0.3]))),
], ids=["degenerate-projective", "identity", "photon-counting", "rank-2-imageband"])
def test_naimark_reads_padded_and_ragged_factors(pom, rng):
    ext = naimark_extend(pom)
    total = pom.dim * pom.n_outcomes
    assert np.abs(ext.unitary.conj().T @ ext.unitary - np.eye(total)).max() < 1e-10
    for _ in range(3):
        rho = random_density(pom.dim, rng)
        big = tensor(rho, ext.ancilla_state).matrix
        lifted = [np.real(np.trace(big @ proj)) for proj in ext.projections]
        assert np.abs(probabilities(pom, rho) - lifted).max() < 1e-10
    for k, proj in enumerate(ext.projections):
        recovered = partial_trace_ancilla(HermitianOperator(proj), pom.dim, ext.ancilla_state)
        assert np.abs(recovered.matrix - pom.weights[k] * pom.operator(k)).max() < 1e-10


def test_naimark_rejects_an_incomplete_or_rank_deficient_pom():
    with pytest.raises(CompletionError, match=r"extension statistics mismatch 7\.64e-02"):
        naimark_extend(Pom.from_operators([np.diag([0.9, 0.0]), np.diag([0.0, 0.9])]))
    with pytest.raises(CompletionError, match="rank-deficient"):
        naimark_extend(Pom.from_operators([np.diag([1.0, 0.0])]))


def test_pom_json_roundtrip(rng):
    pom = random_pom(2, 3, rng)
    again = pom_from_json(pom_to_json(pom))
    assert again.dim == pom.dim
    for k in range(pom.n_outcomes):
        assert np.abs(again.operator(k) - pom.operator(k)).max() < 1e-15
    assert validate(again).passed


def test_identity_pom():
    pom = identity_pom(4)
    assert validate(pom).passed
    assert pom.n_outcomes == 1


def test_probability_normalization_across_families(rng):
    families = [
        trine_pom(),
        tetrahedral_pom(),
        inefficient_photon_pom(20, 0.7),
        coherent_pom(16, GridSpec(0j, 5.5, 51)),
        random_pom(3, 5, rng),
    ]
    for pom in families:
        for _ in range(3):
            rho = random_density(pom.dim, rng)
            p = probabilities(pom, rho)
            assert p.min() >= -1e-10
            assert abs(p.sum() - 1.0) < 1e-8


def test_traces_and_project_match_their_definitions(rng):
    d, n_kets = 5, 7
    x = random_density(d, rng).matrix @ random_hermitian(d, rng).matrix  # rho A: not Hermitian
    kets = rng.normal(size=(n_kets, d)) + 1j * rng.normal(size=(n_kets, d))
    cols = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    on_kets = Pom(d, np.arange(n_kets, dtype=float), np.ones(n_kets), kets[:, None])
    on_ops = random_pom(d, 6, rng)  # rank d: r = d amplitude rows per outcome
    for pom in (on_kets, on_ops):
        expect = [np.trace(x @ pom.operator(k)) for k in range(pom.n_outcomes)]
        np.testing.assert_allclose(pom.traces(x), expect, rtol=0, atol=1e-12)
        expect = [[cols.conj().T @ u for u in rows] for rows in pom.amplitudes]  # <c_j|u>
        np.testing.assert_allclose(pom.project(cols), expect, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(on_kets.project(cols)[:, 0], kets @ np.conj(cols))


def test_grid_labels_and_values_from_the_grid_points():
    grid = GridSpec(0.25 - 0.5j, 2.0, 5)
    alphas, _ = grid.points()
    ib = fock.coherent_ket(4, 0.3).to_density()
    for pom in (coherent_pom(4, grid), imageband_pom(4, grid, ib)):
        assert pom.values == [(float(a.real), float(a.imag)) for a in alphas]
        assert pom.labels == [f"a=({a.real:.6g},{a.imag:.6g})" for a in alphas]
    off_grid = projective_pom(fock.quadratures(3)[0])
    assert off_grid.labels == [str(v) for v in off_grid.values]


@pytest.mark.parametrize("pom", [
    Pom(2, [0, 1.5, np.float32(0.1), np.int64(-3), True], np.ones(5), np.ones((5, 1, 2))),
    coherent_pom(4, GridSpec(0.25 - 0.5j, 2.0, 5)),
    tetrahedral_pom(),
], ids=["scalar", "pair", "triple"])
def test_values_array_equals_the_float_loop(pom):
    if isinstance(pom.values[0], tuple):
        for c in range(len(pom.values[0])):
            assert np.array_equal(pom.values_array(c), [float(v[c]) for v in pom.values])
        with pytest.raises(ValueError, match="component"):
            pom.values_array()
    else:
        assert np.array_equal(pom.values_array(), [float(v) for v in pom.values])
