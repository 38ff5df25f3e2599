"""Numerical laboratory for infrared-cutoff cascades on truncated photon
Fock spaces: fiber Hamiltonians at fixed total momentum, Weyl-displaced
canonical frames, contour-integral spectral projectors, and effective-mass
extraction."""

from .modes import (CutoffSequence, ModeGrid, ParameterError, build_grid,
                    direction_weights, polarization_frame)
from .fock import FockBasis, ResourceError, enumerate_basis
from .hamiltonian import (FactorOp, FiberFamily, ModelParams,
                          assemble_intermediate_hamiltonian)
from .spectral import (Contour, ContourError, GroundStateRecord,
                       ResolventSolver, SolverError, contour_project,
                       contour_project_checked, ground_state)
from .bogoliubov import (combined_displacement, displacement_coeffs,
                         weyl_apply, weyl_vacuum_expectation)
from .cascade import (CascadeError, CascadeState, ScaleRecord,
                      cascade_scales, convergence_report, open_cascade,
                      run_cascade, sector_ground, trace_csv, validate_params)
from .observables import (MassScanRow, cross_term_probe,
                          dispersion_curvature_direct,
                          dispersion_curvature_displaced,
                          dispersion_curvature_fd, displaced_frame_ground,
                          energy_gradient_fd, energy_lipschitz_probe,
                          mass_scan, pull_through_summary,
                          resolvent_bound_probes, scan_csv,
                          soft_photon_probe)

__version__ = "0.1.0"
