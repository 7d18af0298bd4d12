import numpy as np
import pytest

from pomest.pom import Pom
from pomest.sampling import make_rng, random_pom


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
