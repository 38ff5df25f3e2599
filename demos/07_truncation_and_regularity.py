"""Truncation convergence and momentum regularity, reported not asserted.

Two diagnostics the test suite deliberately leaves as reports: the
monotone shrinking of the ground-energy change under occupation-cap
refinement (an empirical convergence check of the Fock truncation), and
the difference quotients of the curvature across a momentum grid, the raw
material behind any regularity statement for the limiting dispersion.
"""

import numpy as np

from fqed.cascade import sector_ground
from fqed.fock import enumerate_basis
from fqed.hamiltonian import ModelParams
from fqed.modes import build_grid
from fqed.observables import curvature_momentum_quotients

params = ModelParams(alpha=5e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                     rho_plus=0.16, p_total=[0.2, 0.0, 0.0], n_scales=1)
grid = build_grid(params.cutoffs, 1, "octahedral6")

print("ground energy under occupation-cap refinement:")
energies = {}
for n_max in (1, 2, 3, 4):
    basis = enumerate_basis(grid.n_modes, n_max, n_max)
    e, _, _ = sector_ground(params, grid, basis, 1)
    energies[n_max] = e
    line = f"  cap {n_max}: E = {e:.12f} ({basis.size} states)"
    if n_max > 1:
        line += f"   change {energies[n_max] - energies[n_max - 1]:+.3e}"
    print(line)
steps = [abs(energies[n + 1] - energies[n]) for n in (1, 2, 3)]
print(f"  successive changes {steps[0]:.2e} > {steps[1]:.2e} > "
      f"{steps[2]:.2e}: monotone refinement "
      f"({'holds' if steps[0] > steps[1] > steps[2] else 'VIOLATED'})")

print("\ncurvature difference quotients across a momentum grid:")
params2 = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                      rho_plus=0.16, p_total=[0.1, 0.0, 0.0], n_scales=2)
grid2 = build_grid(params2.cutoffs, 1, "octahedral6")
basis2 = enumerate_basis(grid2.n_modes, 2, 2)
ps, curvs, quotients = curvature_momentum_quotients(
    params2, grid2, basis2, 2, np.linspace(0.02, 0.3, 8))
for i, p in enumerate(ps):
    line = f"  P = {p:.3f}: d2E = {curvs[i]:.8f}"
    if i > 0:
        line += f"   quotient {quotients[i - 1]:.4e}"
    print(line)
print("  quotients are reported as-is; no regularity exponent is asserted")
