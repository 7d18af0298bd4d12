"""Walkthrough: representing a POM as commuting projections on a larger space.

Any finite measurement can be traded for a projective one on system (x)
ancilla with a fixed ancilla state.  The construction used here stacks each
outcome's stored factor, sqrt(w_k) U_k† for M_k = U_k U_k†, into a block
isometry and completes it to a unitary by one QR; the resulting projections reproduce the statistics exactly and preserve the
statistical deviation of every estimate, which is what makes product-space
proofs of the uncertainty relations legitimate.
"""

import numpy as np

from pomest import (
    HermitianOperator,
    naimark_extend,
    partial_trace_ancilla,
    statistical_deviation,
    tensor,
    trine_pom,
)
from pomest.estimation import Estimator
from pomest.sampling import make_rng, random_density, random_hermitian

rng = make_rng(7)
pom = trine_pom()
ext = naimark_extend(pom)
print(f"system dim {ext.sys_dim}, ancilla dim {ext.anc_dim}")

p0 = ext.projections[0]
print("projection idempotency gap:", np.abs(p0 @ p0 - p0).max())
print("projections sum to identity gap:",
      np.abs(sum(ext.projections) - np.eye(ext.sys_dim * ext.anc_dim)).max())

rho = random_density(2, rng)
big = tensor(rho, ext.ancilla_state)
for k in range(pom.n_outcomes):
    direct = pom.weights[k] * np.real(np.trace(rho.matrix @ pom.operator(k)))
    lifted = np.real(np.trace(big.matrix @ ext.projections[k]))
    print(f"outcome {k}: p_direct = {direct:.10f}  p_lifted = {lifted:.10f}")

# the weighted outcome operators come back through the ancilla-averaged trace
recovered = partial_trace_ancilla(HermitianOperator(ext.projections[1]), 2, ext.ancilla_state)
print("partial-trace recovery gap:",
      np.abs(recovered.matrix - pom.weights[1] * pom.operator(1)).max())

# deviation preservation for an arbitrary estimate
a = random_hermitian(2, rng)
est = Estimator(pom, rng.normal(size=3))
f_ext = sum(v * p for v, p in zip(est.values, ext.projections))
a_ext = tensor(a, HermitianOperator.identity(3)).matrix
diff = a_ext - f_ext
lifted_dev = np.real(np.trace(big.matrix @ diff @ diff))
print(f"deviation on product space = {lifted_dev:.10f}")
print(f"deviation from the formula = {statistical_deviation(a, est, rho)**2:.10f}")
