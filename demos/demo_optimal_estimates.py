"""Walkthrough: optimal estimates of a qubit observable from a trine readout.

A measurement with three symmetric outcomes cannot reproduce an arbitrary
observable, but given the state one can assign each outcome the value that
minimizes the statistical deviation.  The resulting estimate is unbiased,
its dispersion and inaccuracy square-sum to the observable's variance, and
no other value assignment does better.
"""

import numpy as np

from pomest import (
    HermitianOperator,
    estimate_stats,
    optimal_estimate,
    optimal_estimate_no_info,
    probabilities,
    trine_pom,
)
from pomest.estimation import Estimator
from pomest.operators import PAULI_X, PAULI_Z
from pomest.sampling import make_rng, random_density

rng = make_rng(1)
pom = trine_pom()
a = HermitianOperator(0.8 * PAULI_Z + 0.3 * PAULI_X)
rho = random_density(2, rng)

est = optimal_estimate(a, pom, rho)
print("outcome values:", np.round(est.values, 4))
print("outcome probabilities:", np.round(probabilities(pom, rho), 4))

stats = estimate_stats(est, a, rho)
print(f"mean        = {stats.mean:+.6f}  (= <A> = {a.expectation(rho):+.6f})")
print(f"dispersion  = {stats.dispersion:.6f}")
print(f"inaccuracy  = {stats.inaccuracy:.6f}")
print(f"Var A       = {a.variance(rho):.6f}")
print(f"disp^2 + eps^2 = {stats.dispersion**2 + stats.inaccuracy**2:.6f}  (right triangle)")

# any perturbation of the values can only increase the deviation
for scale in (0.01, 0.1, 1.0):
    noisy = Estimator(pom, est.values + scale * rng.normal(size=3))
    print(f"deviation with noise {scale:>4}: {estimate_stats(noisy, a, rho).inaccuracy:.6f} "
          f">= {stats.inaccuracy:.6f}")

# without the state, the best one can do is the distance-minimizing assignment
ni = optimal_estimate_no_info(a, pom)
print("no-information values:", np.round(ni.values, 4))
