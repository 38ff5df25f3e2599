"""Frame invariance of the dispersion curvature.

The same second derivative of the ground energy is computed three ways:
finite differences over the momentum, the resolvent contour formula in the
bare frame, and the contour formula in the Weyl-displaced canonical frame,
where the momentum derivative is replaced by the mean-zero observable and
the mixed contour terms drop out.  The displaced route additionally admits
a single-resolvent reduction.  Their agreement, scale by scale, is the
laboratory's headline identity check.
"""

from fqed.cascade import run_cascade
from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams
from fqed.modes import build_grid
from fqed.observables import scale_routes

params = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                     rho_plus=0.16, p_total=[0.2, 0.0, 0.0], n_scales=3)
grid = build_grid(params.cutoffs, 1, "octahedral6")
basis = enumerate_basis(grid.n_modes, 2, 2)
state = run_cascade(params, grid, basis)

print(" j   FD route        bare route      displaced route  "
      "|bare-displ|  cross term")
for rec in state.records:
    d2_fd, d2_h, d2_k, d2_kr, cross = scale_routes(
        FiberFamily(params, grid, basis, rec.j), rec)
    print(f"  {rec.j}  {d2_fd:.10f}  {d2_h:.10f}  {d2_k:.10f}   "
          f"{abs(d2_h - d2_k):.2e}     {cross:.2e}")
    assert abs(d2_k - d2_kr) < 1e-8   # single-resolvent reduction

print("\nthe bare and displaced frames agree to the occupation-cap "
      "truncation level;\nthe cross terms vanish to quadrature precision "
      "because the displaced\nobservable has zero ground-state expectation")
