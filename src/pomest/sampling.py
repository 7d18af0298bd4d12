"""Seeded random instances for the randomized property suites.

Each ``random_*`` draws its normals and builds the object from them; the
builders also take a stack of draws, built and validated in one pass.
"""

from __future__ import annotations

import numpy as np

from .operators import DensityOperator, HermitianOperator, Ket

GENERATOR_NAME = "pcg64"

__all__ = [
    "GENERATOR_NAME",
    "make_rng",
    "complex_normal",
    "pom_normal",
    "hermitian_part",
    "normalized_density",
    "whitened_pom",
    "random_hermitian",
    "random_pure_ket",
    "random_density",
    "random_pom",
]


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def complex_normal(rng, *shape):
    """Complex Gaussian draws: every real part, then every imaginary part."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def pom_normal(rng, n_outcomes: int, dim: int):
    """The (K, d, d) complex Gaussian draws of ``random_pom``: the real, then the imaginary
    part of each outcome in turn."""
    g = rng.normal(size=(n_outcomes, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def hermitian_part(g) -> HermitianOperator:
    """The operator (g + g†)/2 of the (..., d, d) draws g."""
    return HermitianOperator((g + g.conj().mT) / 2)


def normalized_density(g) -> DensityOperator:
    """The state c c† of the (..., d, m) draws g scaled to unit Frobenius norm, c = g/||g||;
    c is kept as the state's factor."""
    re, im = (x.reshape(*g.shape[:-2], -1) for x in (g.real, g.imag))
    norm = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))  # np.linalg.norm's sum, matrix by matrix
    return DensityOperator.from_factor(g / norm[..., None, None])


def whitened_pom(g):
    """Full-rank POM of the (..., K, d, d) draws g: outcome k is (W g_k)(W g_k)† with the
    whitening W = (sum_k g_k g_k†)^{-1/2}, from one stacked ``eigh``."""
    from .pom import Pom  # local import to avoid a cycle

    n_outcomes, dim = g.shape[-3], g.shape[-1]
    flat = np.moveaxis(g, -3, -2).reshape(*g.shape[:-3], dim, -1)  # [g_1, g_2, ...]
    vals, vecs = np.linalg.eigh(flat @ flat.conj().mT)
    whiten = (vecs * vals[..., None, :]**-0.5) @ vecs.conj().mT
    return Pom(dim, np.arange(n_outcomes, dtype=float), np.ones(n_outcomes),
               (whiten[..., None, :, :] @ g).mT, kind="random")


def random_hermitian(dim: int, rng) -> HermitianOperator:
    return hermitian_part(complex_normal(rng, dim, dim))


def random_pure_ket(dim: int, rng) -> Ket:
    return Ket(complex_normal(rng, dim))


def random_density(dim: int, rng, rank: int | None = None) -> DensityOperator:
    """The state c c† of a complex Gaussian (dim, rank) draw c scaled to unit
    Frobenius norm; c is kept as the state's factor."""
    return normalized_density(complex_normal(rng, dim, dim if rank is None else rank))


def random_pom(dim: int, n_outcomes: int, rng):
    """Random full-rank POM: outcome k is (W g_k)(W g_k)† for complex Gaussian
    g_k and the whitening W = (sum_k g_k g_k†)^{-1/2}."""
    return whitened_pom(pom_normal(rng, n_outcomes, dim))
