"""Walkthrough: joint quadrature estimation from a coherent-state grid readout.

The vacuum-imageband heterodyne measurement samples the Husimi distribution
of the signal.  Reading the outcome directly gives unbiased quadrature
estimates with dispersion product 1/2; folding in the known state shifts
each estimate halfway toward the state's amplitude and the product drops to
1/8, four times below the unbiased floor.  The inaccuracies obey
eps1^2 + eps2^2 = 1/2 - tr(F)/16 with F the Fisher matrix of the outcome
distribution, saturating eps1^2 + eps2^2 = 1/4 for every pure state.
"""

from pomest import GridSpec, coherent_pom, heterodyne_analysis
from pomest import fock

dim = 40
pom = coherent_pom(dim, GridSpec(0j, 7.0, 200))
print(f"grid: {pom.grid.points_per_axis}^2 points, renormalization correction "
      f"{pom.renorm_correction:.2e}")

for label, ket in (
    ("vacuum", fock.vacuum_ket(dim)),
    ("|1>", fock.number_ket(dim, 1)),
    ("coherent b=1.2+0.5i", fock.coherent_ket(dim, 1.2 + 0.5j)),
):
    an = heterodyne_analysis(ket.to_density(), pom)
    disp, eps = an.optimal.dispersions, an.optimal.inaccuracies
    print(f"\nstate {label}:")
    print(f"  dispersion product (with state) = {disp[0] * disp[1]:.6f}")
    print(f"  dispersion product (no info)    = {an.noinfo_disp[0] * an.noinfo_disp[1]:.6f}")
    print(f"  eps1^2 + eps2^2                 = {eps[0] ** 2 + eps[1] ** 2:.6f}")
    print(f"  tr Fisher                        = {an.trace_fisher:.6f}  (<= 4)")
    print(f"  spectral log-gradient check      = {an.crosscheck_rms:.2e} rms under p")
    for rep in an.reports:
        tag = "saturated" if rep.saturated else f"slack {rep.slack:+.3e}"
        print(f"    {rep.relation_id:<9} lhs {rep.lhs:.6f}  rhs {rep.rhs:.6f}  ({tag})")
