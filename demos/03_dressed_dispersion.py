"""Dressed dispersion and the effective mass.

Sweeps the total momentum along an axis at fixed coupling, prints the
ground-energy curve with its gradient, and extracts the effective mass from
the curvature at a few couplings: the deviation from the bare mass grows
linearly in the coupling, the headline physics of the laboratory.
"""

import dataclasses

import numpy as np

from fqed.cascade import run_cascade, sector_ground
from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams
from fqed.modes import build_grid
from fqed.observables import (dispersion_curvature_displaced,
                              displaced_frame_ground)

base = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                   rho_plus=0.16, p_total=[0.1, 0.0, 0.0], n_scales=2)
grid = build_grid(base.cutoffs, 1, "octahedral6")
basis = enumerate_basis(grid.n_modes, 2, 2)
j = base.n_scales

print("dispersion at alpha = 1e-3 (energy relative to P = 0):")
e_origin, _, _ = sector_ground(base, grid, basis, j, p=np.zeros(3))
print("   P        E(P) - E(0)     dE/dP (expectation)")
for pmag in np.linspace(0.0, 0.3, 7):
    params = dataclasses.replace(base, p_total=[pmag, 0.0, 0.0])
    e, psi, _ = sector_ground(params, grid, basis, j)
    grad = FiberFamily(params, grid, basis, j).gradient(psi, params.p_total)
    print(f"  {pmag:.2f}   {e - e_origin:+.8f}    {grad[0]:+.6f}")

print("\neffective mass vs coupling at P = 0.1 (curvature inverse):")
# the cascade's first contour must enclose an energy shift of order
# 6 * alpha, so the sweep runs on a wide-contour corner of the admissible
# parameter region
wide = dataclasses.replace(base, epsilon=0.32, mu=0.6, rho_minus=0.59,
                           rho_plus=0.62)
wide_grid = build_grid(wide.cutoffs, 1, "octahedral6")
wide_basis = enumerate_basis(wide_grid.n_modes, 2, 2)
for alpha in (1e-4, 1e-3, 5e-3, 1e-2):
    params = dataclasses.replace(wide, alpha=alpha)
    rec = run_cascade(params, wide_grid, wide_basis).records[-1]
    frame = displaced_frame_ground(
        FiberFamily(params, wide_grid, wide_basis, rec.j), rec)
    d2, _, _ = dispersion_curvature_displaced(frame)
    m_r = 1.0 / d2
    print(f"  alpha = {alpha:7.0e}:  d2E = {d2:.8f}   m_r = {m_r:.8f}   "
          f"(m_r - 1)/alpha = {(m_r - 1.0) / alpha:.3f}")
print("the normalized shift stabilizing confirms the linear-response slope")
