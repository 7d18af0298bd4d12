import numpy as np
import pytest

from pomest.operators import (
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    HermiticityError,
    Ket,
    matrix_from_json,
    matrix_to_json,
    partial_trace_ancilla,
    spectral_apply,
    tensor,
)
from pomest.sampling import random_density, random_hermitian


def test_ket_normalizes():
    k = Ket([3.0, 4.0])
    assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        Ket([0.0, 0.0])


def test_hermitian_symmetrized_and_rejects_garbage():
    mat = np.array([[1.0, 1.0 + 1e-10j], [1.0 - 1e-10j, 2.0]])
    op = HermitianOperator(mat)
    assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0
    with pytest.raises(HermiticityError):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("cls", [DensityOperator, HermitianOperator])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_rejected_naming_the_entry(cls, bad):
    with pytest.raises(ValueError, match=r"matrix entry \[0\]\[0\] is .* not finite"):
        cls([[bad, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match=r"matrix entry \[1\]\[0\]"):
        cls([[0.5, 0.0], [complex(0.0, bad), 0.5]])


def test_density_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))
    rho = DensityOperator(np.diag([0.25, 0.75]))
    assert rho.purity() == pytest.approx(0.625)


def test_tensor_identity_case():
    eye6 = tensor(HermitianOperator.identity(2), HermitianOperator.identity(3))
    assert np.allclose(eye6.matrix, np.eye(6))


def test_tensor_basis_bookkeeping():
    # |0> (x) |1> on qubits is basis index 1 of the 4-dimensional space
    k = tensor(Ket.basis(2, 0), Ket.basis(2, 1))
    expect = np.zeros(4)
    expect[1] = 1.0
    assert np.allclose(k.amplitudes, expect)


def test_tensor_associative_and_trace_multiplicative(rng):
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    c = random_hermitian(2, rng)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.abs(left.matrix - right.matrix).max() < 1e-12
    tr = np.trace(tensor(a, b).matrix)
    assert tr == pytest.approx(np.trace(a.matrix) * np.trace(b.matrix), abs=1e-12)


def test_partial_trace_identity_and_projector():
    rho_anc = DensityOperator(np.diag([0.3, 0.7]))
    eye = HermitianOperator.identity(6)
    out = partial_trace_ancilla(eye, 3, rho_anc)
    assert np.allclose(out.matrix, np.eye(3), atol=1e-12)

    a = HermitianOperator(np.array([[1.0, 2.0], [2.0, -1.0]]))
    proj0 = DensityOperator(np.diag([1.0, 0.0]))
    op = tensor(a, HermitianOperator(np.diag([1.0, 0.0])))
    out = partial_trace_ancilla(op, 2, proj0)
    assert np.allclose(out.matrix, a.matrix, atol=1e-12)


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace_ancilla(HermitianOperator.identity(5), 2, DensityOperator.maximally_mixed(2))


def test_spectral_apply_identity_and_exp():
    op = HermitianOperator(np.diag([0.0, np.log(2.0)]))
    assert np.allclose(spectral_apply(op, lambda x: x).matrix, op.matrix, atol=1e-12)
    assert np.allclose(spectral_apply(op, np.exp).matrix, np.diag([1.0, 2.0]), atol=1e-12)


def test_spectral_sqrt_squares_back(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = HermitianOperator(g @ g.conj().T)
    root = spectral_apply(psd, lambda x: np.sqrt(max(x, 0.0)))
    assert np.abs(root.matrix @ root.matrix - psd.matrix).max() < 1e-10


def test_spectral_apply_commuting_structure(rng):
    m = random_hermitian(5, rng)
    f = spectral_apply(m, np.exp)
    g = spectral_apply(m, np.tanh)
    assert np.abs(f.matrix @ g.matrix - g.matrix @ f.matrix).max() < 1e-10


def test_matrix_json_roundtrip(rng):
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    again = matrix_from_json(matrix_to_json(mat))
    assert np.abs(again - mat).max() < 1e-15


def test_tensor_statistics_match_dilation(rng):
    # probabilities of a random 3-outcome qubit POM survive the product-space move
    from pomest.pom import naimark_extend
    from pomest.sampling import random_pom

    pom = random_pom(2, 3, rng)
    ext = naimark_extend(pom)
    for _ in range(5):
        rho = random_density(2, rng)
        big = tensor(rho, ext.ancilla_state)
        for k in range(pom.n_outcomes):
            direct = pom.weights[k] * np.real(np.trace(rho.matrix @ pom.operator(k)))
            lifted = np.real(np.trace(big.matrix @ ext.projections[k]))
            assert direct == pytest.approx(lifted, abs=1e-10)
