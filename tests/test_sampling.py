import numpy as np
import pytest

from pomest.pom import Pom
from pomest.sampling import complex_normal, make_rng, pom_normal, random_pom


def _random_pom_loop(dim, n_outcomes, rng):
    """Reference: one complex Gaussian matrix g_k drawn per outcome, and the
    factor W g_k whitened by W = (sum_k g_k g_k†)^{-1/2} built per outcome."""
    gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_outcomes)]
    flat = np.hstack(gs)
    vals, vecs = np.linalg.eigh(flat @ flat.conj().T)
    whiten = (vecs * vals**-0.5) @ vecs.conj().T
    return Pom(dim, np.arange(n_outcomes, dtype=float), np.ones(n_outcomes),
               [(whiten @ g).T for g in gs], kind="random")


@pytest.mark.parametrize("dim, n_outcomes", [(1, 1), (2, 3), (3, 1), (4, 6), (5, 11)])
def test_random_pom_equals_the_per_outcome_loop(dim, n_outcomes):
    for seed in range(20):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        pom, ref = random_pom(dim, n_outcomes, rng), _random_pom_loop(dim, n_outcomes, ref_rng)
        assert np.array_equal(list(pom.operators()), list(ref.operators()))
        assert pom.values == ref.values and pom.kind == ref.kind
        # the same stream was consumed: the generators' next draws agree
        assert rng.normal() == ref_rng.normal()


@pytest.mark.parametrize("ungen", [True, False], ids=["with-ungen", "without-ungen"])
def test_one_pom_normal_draws_a_relations_instance_as_the_pom_and_three_matrices(ungen):
    # `relations` draws an instance's POM, rho, A and B as one pom_normal of K + 3 slabs
    rng, ref = make_rng(29), make_rng(29)
    for dim, n_out in [(2, 2), (2, 5), (3, 4), (5, 11), (4, 2), (7, 15), (3, 7)]:
        assert rng.integers(4) == ref.integers(4)  # the instance's dimension and K
        assert rng.integers(2, 2 * dim + 2) == ref.integers(2, 2 * dim + 2)
        g = pom_normal(rng, n_out + 3, dim)
        expect = [pom_normal(ref, n_out, dim), *(complex_normal(ref, dim, dim) for _ in range(3))]
        assert g[:n_out].tobytes() == expect[0].tobytes()
        assert [x.tobytes() for x in g[n_out:]] == [x.tobytes() for x in expect[1:]]
        if ungen:  # the perturbation of ungen's estimates
            assert rng.normal(size=n_out).tobytes() == ref.normal(size=n_out).tobytes()
    assert rng.integers(4) == ref.integers(4)
