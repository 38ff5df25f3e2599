"""Single-photon structure probes of the dressed ground state.

Three quantitative probes of how photons dress the electron:
  * the soft-photon bound shape: annihilation norms scale like
    sqrt(alpha w)/|k|^(3/2) with a stable constant across modes and scales,
  * the pull-through identity relating the annihilated ground state to a
    shifted-Hamiltonian resolvent, exact up to occupation-cap truncation,
  * the energy-slope constant governing how fast the ground energy can drop
    under a momentum transfer, which tends to the free-theory value below
    1/3 as the coupling vanishes.
"""

from fqed.cascade import run_cascade
from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams
from fqed.modes import build_grid
from fqed.observables import (energy_lipschitz_probe, pull_through_summary,
                              soft_photon_probe)

params = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                     rho_plus=0.16, p_total=[0.2, 0.0, 0.0], n_scales=3)
grid = build_grid(params.cutoffs, 1, "octahedral6")
basis = enumerate_basis(grid.n_modes, 2, 2)
state = run_cascade(params, grid, basis)

print("soft-photon constants (max over modes of scaled ||b_m psi||):")
for rec in state.records[1:]:
    rep = soft_photon_probe(FiberFamily(params, grid, basis, rec.j), rec)
    print(f"  scale {rec.j}: C = {rep.empirical_c:.4f} over "
          f"{len(rep.mode_index)} active modes")

print("\npull-through residuals (aggregate over active modes):")
for n_max in (2, 3):
    small = ModelParams(alpha=5e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                        rho_plus=0.16, p_total=[0.1, 0.0, 0.0], n_scales=1)
    g1 = build_grid(small.cutoffs, 1, "octahedral6")
    b1 = enumerate_basis(g1.n_modes, n_max, n_max)
    rec = run_cascade(small, g1, b1).records[-1]
    agg, per_mode = pull_through_summary(FiberFamily(small, g1, b1, 1), rec)
    print(f"  occupation cap {n_max}: residual = {agg:.4f} "
          f"(per-mode max {per_mode.max():.4f})")
print("  the residual falls as the cap rises: it is pure truncation")

print("\nenergy-slope constant near the momentum-ball boundary:")
for alpha in (0.0, 1e-4, 1e-3):
    probe = ModelParams(alpha=alpha, epsilon=0.3, mu=0.15, rho_minus=0.14,
                        rho_plus=0.16, p_total=[0.33, 0.0, 0.0], n_scales=3)
    rec = run_cascade(probe, grid, basis).records[-1]
    c_emp, table = energy_lipschitz_probe(FiberFamily(probe, grid, basis, 3),
                                          rec)
    print(f"  alpha = {alpha:7.0e}: C = {c_emp:.5f} "
          f"(over {len(table)} momentum transfers; free limit <= 1/3)")
