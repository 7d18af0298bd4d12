import sys
import threading

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


def test_from_factor_validates_and_keeps_its_factor():
    c = np.array([[0.6, 0.0], [0.0, 0.8j]])
    rho = DensityOperator.from_factor(c)
    assert np.abs(rho.matrix - np.diag([0.36, 0.64])).max() <= 1e-15
    assert np.array_equal(rho.factor, c) and not rho.factor.flags.writeable
    c[0, 0] = 1.0  # the state holds its own copy
    assert rho.factor[0, 0] == 0.6
    with pytest.raises(ValueError, match="trace"):
        DensityOperator.from_factor(2 * c)
    with pytest.raises(AttributeError):
        rho.factor = c


def test_factor_of_a_matrix_is_its_pivoted_cholesky_formed_once():
    rho = Ket([1.0, 1j, 0.0]).to_density()
    assert rho.factor.shape == (3, 1) and rho.factor is rho.factor
    assert np.abs(rho.factor @ rho.factor.conj().T - rho.matrix).max() <= 1e-15


def test_a_stack_is_validated_matrix_by_matrix():
    good = np.stack([np.diag([0.25, 0.75]), np.full((2, 2), 0.5)])
    assert DensityOperator(good).dim == 2 and HermitianOperator(good).matrix.shape == (2, 2, 2)
    assert HermitianOperator(good).norm().tolist() == [0.75, 1.0]
    # the worst matrix relative to its own largest entry: 3/3 beats 0.5/1 and 5/30
    with pytest.raises(HermiticityError, match=r"by 3\.000e\+00 \(tol 1\.0e-08 x 3\.000e\+00\)"):
        HermitianOperator([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 3.0], [-3.0, 0.0]],
                           [[0.0, 30.0], [20.0, 0.0]]])
    with pytest.raises(ValueError, match=r"matrix entry \[1\]\[0\]\[1\] is"):
        DensityOperator([good[0], [[0.5, np.nan], [0.0, 0.5]]])
    with pytest.raises(ValueError, match=r"trace is np.float64\(1.4\)"):
        DensityOperator([good[0], np.diag([0.6, 0.6]), np.diag([0.7, 0.7]), good[1]])
    with pytest.raises(ValueError, match="smallest eigenvalue -5.000e-01"):
        DensityOperator([np.diag([1.2, -0.2]), good[0], np.diag([1.5, -0.5])])
    with pytest.raises(ValueError, match="from_factor"):
        DensityOperator(good).factor
    stacked = DensityOperator.from_factor(np.stack([np.diag([0.6, 0.8j]), np.diag([0.8, 0.6])]))
    assert stacked.factor.shape == (2, 2, 2)
    assert np.abs(stacked.matrix[1] - np.diag([0.64, 0.36])).max() <= 1e-15



_STACK = np.stack([np.diag([0.25, 0.75]), np.full((2, 2), 0.5), np.eye(2) / 2])


@pytest.mark.parametrize("stacked", ["operator", "state"])
def test_expectation_of_a_stack_names_its_shape(stacked):
    a = HermitianOperator(_STACK if stacked == "operator" else np.diag([1.0, -1.0]))
    rho = DensityOperator(_STACK if stacked == "state" else np.eye(2) / 2)
    with pytest.raises(ValueError, match=r"expectation reads one matrix, not a stack of shape \(3, 2, 2\)"):
        a.expectation(rho)


def test_variance_of_a_stack_names_its_shape():
    with pytest.raises(ValueError, match=r"variance reads one matrix, not a stack of shape \(3, 2, 2\)"):
        HermitianOperator(_STACK).variance(DensityOperator(np.eye(2) / 2))


def test_purity_of_a_stack_names_its_shape():
    with pytest.raises(ValueError, match=r"purity reads one matrix, not a stack of shape \(3, 2, 2\)"):
        DensityOperator(_STACK).purity()

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


def test_eigensystem_is_formed_once_kept_read_only_and_squares_back(rng, monkeypatch):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = HermitianOperator(g @ g.conj().T)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    vals, vecs = psd.eigensystem()
    again = psd.eigensystem()
    assert again[0] is vals and again[1] is vecs and len(calls) == 1
    assert not vals.flags.writeable and not vecs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        vals[0] = 0.0
    # the norm reads the kept spectrum too
    assert psd.norm() == np.abs(vals).max() and len(calls) == 1
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    assert np.abs(root @ root - psd.matrix).max() < 1e-10
    # a stack keeps one spectrum per matrix
    stack = HermitianOperator(_STACK)
    assert stack.eigensystem()[0].shape == (3, 2) and stack.norm().tolist() == [0.75, 1.0, 0.5]


def test_threads_that_first_read_a_spectrum_together_see_the_same_one(rng):
    # the kept spectrum takes no lock: threads racing to the first read may each compute it,
    # and every one must see the same values, equal to those finally kept
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            op = random_hermitian(30, rng)
            seen = []
            threads = [threading.Thread(target=lambda: seen.append(op.eigensystem())) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and len(seen) == 8
            kept = op.eigensystem()
            assert all(np.array_equal(v, kept[0]) and np.array_equal(w, kept[1]) for v, w in seen)
    finally:
        sys.setswitchinterval(interval)


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
