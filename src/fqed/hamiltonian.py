"""Operator assembly for the momentum-fiber model at each cascade scale.

The fiber Hamiltonian at total momentum P and infrared scale j is

    H = (1/2) (P - Pf + sqrt(alpha) A)^2 + Hf,

where Pf and Hf are the photon momentum and free field energy (number-type
sums over all grid modes) and A is the transverse field coupling restricted
to shells above the scale-j cutoff.  Under the discretization contract the
coupling coefficient per mode is sqrt(w/|k|) and number sums carry no
weight, which makes the scale-step identity

    H(j+1) = H(j) + slice interaction

hold entrywise on the truncated basis (the slice interaction is assembled
with symmetrized operator products; the orderings agree because the summed
commutator vanishes by transversality).

The displaced (canonical) frame is assembled in closed form: conjugating the
field momentum beta = Pf - sqrt(alpha) A by the Weyl displacement fitted to
a gradient vector g shifts each active ladder operator by a scalar, so the
transformed Hamiltonian takes the form

    K = (1/2) Gamma^2 + sum_m |k_m| (1 - khat_m . g) n_m + offset,

with Gamma a mean-zero vector operator.  No numerical exponentials enter
operator assembly; the exponentials appear only when transporting state
vectors (see bogoliubov.weyl_apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, linear_field, number_diagonal
from .modes import CutoffSequence, ModeGrid, ParameterError, direction_weights


@dataclass(frozen=True)
class ModelParams:
    """Physical and cascade parameters.

    ``rho_minus``, ``mu``, ``rho_plus`` are gap/contour fractions of the
    running cutoff; ``c_alpha`` is the assumed energy-slope constant and
    ``ir_floor_c`` the constant in the infrared floor ``epsilon >
    ir_floor_c * sqrt(alpha)``.  Constraint checking lives in
    cascade.validate_params; assembly itself only needs sane ranges.
    """

    lambda_uv: float = 1.0
    alpha: float = 0.0
    epsilon: float = 0.3
    mu: float = 0.2
    rho_minus: float = 0.1
    rho_plus: float = 0.4
    c_alpha: float = 0.35
    ir_floor_c: float = 2.5
    p_total: np.ndarray = field(default_factory=lambda: np.zeros(3))
    n_scales: int = 2

    def __post_init__(self):
        object.__setattr__(self, "p_total",
                           np.asarray(self.p_total, dtype=float).reshape(3))
        if self.alpha < 0.0:
            raise ParameterError(f"coupling must be >= 0, got {self.alpha}")

    @property
    def cutoffs(self) -> CutoffSequence:
        return CutoffSequence(self.lambda_uv, self.epsilon, self.n_scales)

    def with_momentum(self, p) -> "ModelParams":
        return replace(self, p_total=np.asarray(p, dtype=float))


def _coupling_coeff(grid: ModeGrid, mask: np.ndarray) -> np.ndarray:
    """Per-mode field coefficients sqrt(w/|k|), zeroed outside ``mask``."""
    c = np.sqrt(grid.weight / grid.knorm)
    return np.where(mask, c, 0.0)


def assemble_field(grid: ModeGrid, basis: FockBasis,
                   shells) -> list[sp.csr_matrix]:
    """Transverse field components A_i over the given shells.

    A_i = sum_m sqrt(w_m/|k_m|) eps_m^i (create_m + annihilate_m); the
    sqrt(w) factor carries the continuum measure.  An empty shell range
    yields the zero operator.
    """
    mask = grid.shell_mask(shells)
    c = _coupling_coeff(grid, mask)
    return [linear_field(basis, c * grid.eps_vec[:, i]) for i in range(3)]


def photon_momentum_diag(grid: ModeGrid, basis: FockBasis) -> np.ndarray:
    """Diagonals of the photon momentum components Pf_i, shape (3, size)."""
    return np.stack([number_diagonal(basis, grid.k[:, i]) for i in range(3)])


def field_momentum_ops(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                       j: int) -> list[sp.csr_matrix]:
    """beta_i = Pf_i - sqrt(alpha) A_i with the scale-j interaction support."""
    pf = photon_momentum_diag(grid, basis)
    a = assemble_field(grid, basis, range(j))
    root = np.sqrt(params.alpha)
    return [(sp.diags(pf[i]) - root * a[i]).tocsr() for i in range(3)]


def dispersion_gradient_ops(params: ModelParams, grid: ModeGrid,
                            basis: FockBasis, j: int,
                            p=None) -> list[sp.csr_matrix]:
    """Momentum derivatives of the fiber Hamiltonian, P_i - beta_i."""
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    beta = field_momentum_ops(params, grid, basis, j)
    eye = sp.identity(basis.size, format="csr")
    return [(p[i] * eye - beta[i]).tocsr() for i in range(3)]


def _symmetrize(op: sp.spmatrix) -> sp.csr_matrix:
    return (0.5 * (op + op.T)).tocsr()


def assemble_h_fiber(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                     j: int, p=None) -> sp.csr_matrix:
    """Fiber Hamiltonian at scale j (interaction on shells 0..j-1).

    At j = 0 the interaction support is empty and the operator is diagonal
    with ground energy |P|^2/2 on the vacuum.
    """
    if j > params.n_scales:
        raise ParameterError(f"scale {j} exceeds n_scales={params.n_scales}")
    if basis.n_modes != grid.n_modes:
        raise ParameterError("basis and grid mode counts differ")
    grad = dispersion_gradient_ops(params, grid, basis, j, p=p)
    hf = sp.diags(number_diagonal(basis, grid.knorm))
    h = 0.5 * sum(m @ m for m in grad) + hf
    return _symmetrize(h)


def assemble_slice_interaction(params: ModelParams, grid: ModeGrid,
                               basis: FockBasis, j: int) -> sp.csr_matrix:
    """Interaction picked up when the cutoff drops from scale j to j+1.

    sqrt(alpha) * sym(grad_P H . a) + (alpha/2) a^2 with ``a`` the shell-j
    field; satisfies H(j+1) = H(j) + slice entrywise on the common basis.
    """
    if j + 1 > params.n_scales:
        raise ParameterError(f"slice {j}->{j + 1} exceeds the cutoff sequence")
    x = dispersion_gradient_ops(params, grid, basis, j)
    a = assemble_field(grid, basis, [j])
    root = np.sqrt(params.alpha)
    cross = sum(x[i] @ a[i] + a[i] @ x[i] for i in range(3))
    square = sum(ai @ ai for ai in a)
    return _symmetrize(0.5 * root * cross + 0.5 * params.alpha * square)


def frame_energy_offset(params: ModelParams, grid: ModeGrid, j: int,
                        grad_energy: np.ndarray, p=None) -> float:
    """Scalar offset of the displaced-frame Hamiltonian at scale j.

    |P|^2/2 - |P - g|^2/2 - sum_active |k| delta f^2, with f the Weyl
    displacement amplitudes; the mode sum matches the operator assembly
    exactly, keeping the canonical form self-consistent at the discrete
    level.
    """
    from .bogoliubov import displacement_coeffs

    p = params.p_total if p is None else np.asarray(p, dtype=float)
    g = np.asarray(grad_energy, dtype=float)
    f = displacement_coeffs(g, grid, range(j), params.alpha).amplitudes
    delta = direction_weights(grid, g)
    return float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
                 - np.sum(grid.knorm * delta * f ** 2))


def assemble_displaced_hamiltonian(
        params: ModelParams, grid: ModeGrid, basis: FockBasis, j: int,
        grad_energy: np.ndarray, gamma_shift: np.ndarray,
        p=None) -> tuple[sp.csr_matrix, float]:
    """Canonical-form Hamiltonian K at scale j, plus its scalar offset.

    K = (1/2) sum_i (Pi_i - gamma_shift_i)^2 + sum_m |k_m| delta_m n_m
        + offset,

    built in closed form from the displaced momentum observable Pi.  The
    caller chooses ``gamma_shift``; with the ground-state expectation of Pi
    the quadratic part becomes the mean-zero operator Gamma.
    """
    from .bogoliubov import displaced_momentum_ops

    g = np.asarray(grad_energy, dtype=float)
    if np.linalg.norm(g) >= 1.0:
        raise ParameterError(
            f"|grad E| = {np.linalg.norm(g)} >= 1: dispersion factor "
            "may vanish")
    gamma_shift = np.asarray(gamma_shift, dtype=float).reshape(3)
    pi = displaced_momentum_ops(params, grid, basis, j, g)
    eye = sp.identity(basis.size, format="csr")
    gam = [pi[i] - gamma_shift[i] * eye for i in range(3)]
    delta = direction_weights(grid, g)
    if np.any(delta <= 0.0):
        raise ParameterError("dispersion factor vanished on a grid mode")
    number = sp.diags(number_diagonal(basis, grid.knorm * delta))
    offset = frame_energy_offset(params, grid, j, g, p=p)
    k_op = 0.5 * sum(gi @ gi for gi in gam) + number + offset * eye
    return _symmetrize(k_op), offset


def slice_marginal_coeffs(params: ModelParams, grid: ModeGrid,
                          slice_shell: int,
                          grad_energy: np.ndarray) -> np.ndarray:
    """Per-mode coefficients of the linear slice operators, shape (3, M).

    Component i combines the bare field coupling on the slice with the
    momentum-weighted dressing term:

        -sqrt(alpha) sqrt(w/|k|) eps^i - k^i f,

    where f are the displacement amplitudes evaluated with ``grad_energy``.
    """
    from .bogoliubov import displacement_coeffs

    g = np.asarray(grad_energy, dtype=float)
    mask = grid.shell == slice_shell
    c = _coupling_coeff(grid, mask)
    f = displacement_coeffs(g, grid, [slice_shell], params.alpha).amplitudes
    root = np.sqrt(params.alpha)
    return np.stack([-root * c * grid.eps_vec[:, i] - grid.k[:, i] * f
                     for i in range(3)])


def slice_marginal_ops(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                       slice_shell: int,
                       grad_energy: np.ndarray) -> list[sp.csr_matrix]:
    """Linear slice operators L_i = sum_m coeff_m^i (create_m + annihilate_m)."""
    coeffs = slice_marginal_coeffs(params, grid, slice_shell, grad_energy)
    return [linear_field(basis, coeffs[i]) for i in range(3)]


def slice_scalar_shift(params: ModelParams, grid: ModeGrid, slice_shell: int,
                       grad_energy: np.ndarray) -> np.ndarray:
    """C-number vector accompanying the slice operators in the frame bridge.

    I_i = sum_{m in slice} k_m^i f_m^2
          + 2 sqrt(alpha) sum_{m in slice} sqrt(w_m/|k_m|) eps_m^i f_m.
    """
    from .bogoliubov import displacement_coeffs

    g = np.asarray(grad_energy, dtype=float)
    mask = grid.shell == slice_shell
    c = _coupling_coeff(grid, mask)
    f = displacement_coeffs(g, grid, [slice_shell], params.alpha).amplitudes
    root = np.sqrt(params.alpha)
    return np.array([
        np.sum(grid.k[:, i] * f ** 2) + 2.0 * root
        * np.sum(c * grid.eps_vec[:, i] * f)
        for i in range(3)
    ])


def assemble_intermediate_hamiltonian(
        params: ModelParams, grid: ModeGrid, basis: FockBasis, j: int,
        grad_energy_prev: np.ndarray, gamma_shift_prev: np.ndarray,
        p=None) -> tuple[sp.csr_matrix, float]:
    """Scale-j Hamiltonian seen through the scale-(j-1) displacement.

    Khat(j) = (1/2) sum_i (Gamma_i + L_i + I_i)^2
              + sum_m |k_m| delta^(j-1)_m n_m + offset_hat,

    where Gamma, the slice operators L and the scalar shift I are all
    evaluated with the previous scale's gradient.  At alpha = 0 every slice
    term vanishes and Khat(j) equals K(j-1) entrywise.
    """
    from .bogoliubov import displaced_momentum_ops, displacement_coeffs

    if j < 1:
        raise ParameterError("intermediate frame needs j >= 1")
    g = np.asarray(grad_energy_prev, dtype=float)
    gamma_shift_prev = np.asarray(gamma_shift_prev, dtype=float).reshape(3)
    p = params.p_total if p is None else np.asarray(p, dtype=float)

    pi_prev = displaced_momentum_ops(params, grid, basis, j - 1, g)
    eye = sp.identity(basis.size, format="csr")
    lam = slice_marginal_ops(params, grid, basis, j - 1, g)
    ivec = slice_scalar_shift(params, grid, j - 1, g)

    delta = direction_weights(grid, g)
    f_hat = displacement_coeffs(g, grid, range(j), params.alpha).amplitudes
    offset = float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
                   - np.sum(grid.knorm * delta * f_hat ** 2))

    total = [pi_prev[i] - gamma_shift_prev[i] * eye + lam[i] + ivec[i] * eye
             for i in range(3)]
    number = sp.diags(number_diagonal(basis, grid.knorm * delta))
    k_hat = 0.5 * sum(t @ t for t in total) + number + offset * eye
    return _symmetrize(k_hat), offset


def delta_k_interaction(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                        j: int, gamma_prev_ops: list[sp.spmatrix],
                        grad_energy_prev: np.ndarray) -> sp.csr_matrix:
    """Frame-bridge perturbation between scales j-1 and j.

    (1/2) sym(Gamma . (L + I)) + (1/2) (L + I)^2, assembled with the same
    Gamma operators used for K(j-1) so that

        Khat(j) = K(j-1) + delta_k + (offset_hat - offset_{j-1})

    holds entrywise.
    """
    g = np.asarray(grad_energy_prev, dtype=float)
    lam = slice_marginal_ops(params, grid, basis, j - 1, g)
    ivec = slice_scalar_shift(params, grid, j - 1, g)
    eye = sp.identity(basis.size, format="csr")
    li = [lam[i] + ivec[i] * eye for i in range(3)]
    cross = sum(gamma_prev_ops[i] @ li[i] + li[i] @ gamma_prev_ops[i]
                for i in range(3))
    square = sum(l @ l for l in li)
    return _symmetrize(0.5 * cross + 0.5 * square)
