"""Seeded random instances for the randomized property suites."""

from __future__ import annotations

import numpy as np

from .operators import DensityOperator, HermitianOperator, Ket

GENERATOR_NAME = "pcg64"

__all__ = [
    "GENERATOR_NAME",
    "make_rng",
    "random_hermitian",
    "random_pure_ket",
    "random_density",
    "random_pom",
]


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(dim: int, rng, scale: float = 1.0) -> HermitianOperator:
    g = _complex_normal(rng, dim, dim)
    return HermitianOperator(scale * (g + g.conj().T) / 2)


def random_pure_ket(dim: int, rng) -> Ket:
    return Ket(_complex_normal(rng, dim))


def random_density(dim: int, rng, rank: int | None = None) -> DensityOperator:
    """The state c c† of a complex Gaussian (dim, rank) draw c scaled to unit
    Frobenius norm; c is kept as the state's factor."""
    g = _complex_normal(rng, dim, dim if rank is None else rank)
    return DensityOperator.from_factor(g / np.linalg.norm(g))


def random_pom(dim: int, n_outcomes: int, rng):
    """Random full-rank POM: outcome k is (W g_k)(W g_k)† for complex Gaussian
    g_k and the whitening W = (sum_k g_k g_k†)^{-1/2}."""
    from .pom import Pom  # local import to avoid a cycle

    g = rng.normal(size=(n_outcomes, 2, dim, dim))  # per outcome: real, then imaginary part
    g = g[:, 0] + 1j * g[:, 1]
    flat = g.transpose(1, 0, 2).reshape(dim, -1)  # [g_1, g_2, ...]
    vals, vecs = np.linalg.eigh(flat @ flat.conj().T)
    whiten = (vecs * vals**-0.5) @ vecs.conj().T
    return Pom(dim, np.arange(n_outcomes, dtype=float), np.ones(n_outcomes), (whiten @ g).mT, kind="random")
