"""The decoupled electron as an exactness baseline.

With the coupling off, the fiber ground energy is |P|^2/2 with the photon
vacuum as eigenvector, the gradient equals P, and every curvature route
returns exactly 1.  Any deviation beyond rounding would flag an assembly
bug, so this is the first thing to run after touching operator code.
"""

import numpy as np

from fqed.cascade import run_cascade
from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams
from fqed.modes import build_grid
from fqed.observables import (dispersion_curvature_direct,
                              dispersion_curvature_displaced,
                              dispersion_curvature_fd, displaced_frame_ground)

params = ModelParams(alpha=0.0, epsilon=0.3, mu=0.15, rho_minus=0.14,
                     rho_plus=0.16, p_total=[0.2, 0.0, 0.0], n_scales=3)
grid = build_grid(params.cutoffs, 1, "octahedral6")
basis = enumerate_basis(grid.n_modes, 2, 2)
print(f"grid: {grid.n_modes} modes, basis: {basis.size} states")

state = run_cascade(params, grid, basis)
print("\n j  sigma     E - P^2/2      |gradE - P|    step norm")
for rec in state.records:
    step = rec.step_norm if np.isfinite(rec.step_norm) else 0.0
    print(f"  {rec.j}  {rec.sigma:.4f}  {rec.energy - 0.02:+.3e}  "
          f"{np.linalg.norm(rec.grad_energy - params.p_total):.3e}  "
          f"{step:.3e}")

family = FiberFamily(params, grid, basis, 3)
d2_fd = dispersion_curvature_fd(family)
d2_h = dispersion_curvature_direct(family)
frame = displaced_frame_ground(family, params.p_total)
d2_k, d2_kr, _ = dispersion_curvature_displaced(frame)
print("\ncurvature routes at the final scale:")
print(f"  finite differences : {d2_fd:.14f}")
print(f"  direct resolvent   : {d2_h:.14f}")
print(f"  displaced frame    : {d2_k:.14f}  (reduced {d2_kr:.14f})")
print("all four must equal 1 to ~1e-10 in the free theory")
