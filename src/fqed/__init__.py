"""Numerical laboratory for infrared-cutoff cascades on truncated photon
Fock spaces: fiber Hamiltonians at fixed total momentum, Weyl-displaced
canonical frames, contour-integral spectral projectors, and effective-mass
extraction."""

from .modes import (CutoffSequence, ModeGrid, ParameterError, build_grid,
                    direction_weights, polarization_frame)
from .fock import (FockBasis, ResourceError, enumerate_basis, ladder,
                   linear_field)
from .hamiltonian import (FiberFamily, FrameFamily, ModelParams,
                          assemble_field, assemble_h_fiber,
                          assemble_displaced_hamiltonian,
                          assemble_intermediate_hamiltonian,
                          assemble_slice_interaction, delta_k_interaction,
                          slice_marginal_ops)
from .spectral import (Contour, ContourError, GroundStateRecord,
                       ResolventSolver, SolverError, contour_project,
                       contour_project_checked, contour_sum, dense_spectrum,
                       ground_state, idempotence_defect, neumann_project,
                       resolvent_sandwich)
from .bogoliubov import (centered_momentum_vectors, combined_displacement,
                         displaced_momentum_ops, displacement_coeffs,
                         weyl_apply, weyl_vacuum_expectation)
from .cascade import (CascadeError, CascadeState, ScaleRecord,
                      convergence_report, run_cascade, sector_ground,
                      trace_csv, validate_params)
from .observables import (MassScanRow, cross_term_probe,
                          dispersion_curvature_direct,
                          dispersion_curvature_displaced,
                          dispersion_curvature_fd, displaced_frame_ground,
                          energy_gradient_fd, energy_lipschitz_probe,
                          mass_scan, pull_through_summary,
                          resolvent_bound_probes, scan_csv,
                          soft_photon_probe)

__version__ = "0.1.0"
