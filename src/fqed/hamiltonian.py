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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .bogoliubov import (displaced_momentum_ops, displacement_coeffs,
                         weyl_vacuum_expectation)
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


def _symmetrize(op: sp.spmatrix) -> sp.csr_matrix:
    return (0.5 * (op + op.T)).tocsr()


def _canonical(op: sp.csr_matrix) -> sp.csr_matrix:
    """``op`` with its column indices sorted in place.  The linear updates
    of a family add canonical operators to it, which scipy then merges
    row by row into canonical results, sector slices included."""
    op.sum_duplicates()
    return op


class FiberFamily:
    """The scale-j fiber Hamiltonians at every total momentum P:

        H(P) = H(0) + |P|^2/2 - P . beta,      dH/dP_i = P_i - beta_i,

    with beta_i = Pf_i - sqrt(alpha) A_i (interaction on shells 0..j-1).
    All pieces are exactly symmetric, so every H(P) is too.
    """

    def __init__(self, params: ModelParams, grid: ModeGrid,
                 basis: FockBasis, j: int):
        if j > params.n_scales:
            raise ParameterError(
                f"scale {j} exceeds n_scales={params.n_scales}")
        if basis.n_modes != grid.n_modes:
            raise ParameterError("basis and grid mode counts differ")
        self.params, self.grid, self.basis, self.j = params, grid, basis, j
        a = assemble_field(grid, basis, range(j))
        self.beta = [(sp.diags(number_diagonal(basis, grid.k[:, i]))
                      - np.sqrt(params.alpha) * a[i]).tocsr()
                     for i in range(3)]
        self.eye = sp.identity(basis.size, format="csr")
        self.hf = sp.diags(number_diagonal(basis, grid.knorm))
        self._frames: dict[bytes, FrameFamily] = {}

    @cached_property
    def h0(self) -> sp.csr_matrix:
        # built on first use: a cascade step needs beta for its bridge
        # operator before it needs any H(P)
        return _canonical(
            _symmetrize(0.5 * sum(b @ b for b in self.beta) + self.hf))

    def h(self, p) -> sp.csr_matrix:
        return _linear_update(self.h0, self.beta, p, self.eye)

    def x(self, p) -> list[sp.csr_matrix]:
        p = np.asarray(p, dtype=float)
        return [(p[i] * self.eye - self.beta[i]).tocsr() for i in range(3)]

    def gradient(self, psi: np.ndarray, p) -> np.ndarray:
        """P - <beta>_psi: the energy gradient of an eigenvector of H(P)."""
        psi = np.asarray(psi, dtype=float)
        nrm2 = float(psi @ psi)
        if nrm2 <= 0.0:
            raise ParameterError("gradient of an empty state")
        p = np.asarray(p, dtype=float)
        return np.array([p[i] - psi @ (self.beta[i] @ psi) / nrm2
                         for i in range(3)])

    def frame(self, grad_energy: np.ndarray,
              keep: bool = True) -> "FrameFamily":
        """Displaced-frame Hamiltonians for the gradient g at the family's
        momentum P.  A kept frame is built once per gradient: the cascade's
        centring, the frame polish and the resolvent-bound probe of a
        record share it.  ``keep=False`` builds a frame the family does not
        hold, as the cascade's one-use bridge frame is."""
        g = np.asarray(grad_energy, dtype=float)
        key = g.tobytes()
        if key in self._frames:
            return self._frames[key]
        # the offset |P|^2/2 - |P - g|^2/2 - sum_active |k| delta f^2 takes
        # the Weyl amplitudes f of Pi, keeping the canonical form
        # self-consistent
        grid, p = self.grid, self.params.p_total
        delta = direction_weights(grid, g)
        f = displacement_coeffs(g, grid, range(self.j), self.params.alpha)
        frame = FrameFamily(
            pi=displaced_momentum_ops(self, g),
            number=sp.diags(number_diagonal(self.basis, grid.knorm * delta)),
            offset=float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
                         - np.sum(grid.knorm * delta * f ** 2)),
            eye=self.eye)
        if keep:
            self._frames[key] = frame
        return frame


@dataclass(frozen=True)
class FrameFamily:
    """Displaced-frame Hamiltonians at one scale, gradient and momentum:

        K(gamma) = K(0) - gamma . Pi + |gamma|^2/2,

    with K(0) the product form (1/2) Pi^2 + ``number`` + ``offset``, built
    on first use; ``number`` is sum_m |k_m| delta_m n_m.  The frame holds
    its pieces, not its family.
    """

    pi: list = field(repr=False)
    number: sp.spmatrix = field(repr=False)
    offset: float
    eye: sp.csr_matrix = field(repr=False)

    @cached_property
    def k0(self) -> sp.csr_matrix:
        return _canonical(_frame_product_form(self, np.zeros(3)))

    def k(self, gamma_shift) -> sp.csr_matrix:
        return _linear_update(self.k0, self.pi, gamma_shift, self.eye)


def _linear_update(op0, ops, v, eye) -> sp.csr_matrix:
    """op0 + |v|^2/2 - v . ops: (1/2) sum_i (ops_i - v_i)^2 + rest, from
    its value op0 at v = 0."""
    v = np.asarray(v, dtype=float).reshape(3)
    out = op0 + (0.5 * float(v @ v)) * eye
    for i in np.flatnonzero(v):
        out = out - v[i] * ops[i]
    return out.tocsr()


def assemble_h_fiber(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                     j: int, p=None) -> sp.csr_matrix:
    """Fiber Hamiltonian at scale j in product form, the reference for
    ``FiberFamily.h``."""
    family = FiberFamily(params, grid, basis, j)
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    grad = [(p[i] * family.eye - family.beta[i]).tocsr() for i in range(3)]
    return _symmetrize(0.5 * sum(m @ m for m in grad) + family.hf)


def assemble_slice_interaction(params: ModelParams, grid: ModeGrid,
                               basis: FockBasis, j: int) -> sp.csr_matrix:
    """Interaction picked up when the cutoff drops from scale j to j+1.

    sqrt(alpha) * sym(grad_P H . a) + (alpha/2) a^2 with ``a`` the shell-j
    field; satisfies H(j+1) = H(j) + slice entrywise on the common basis.
    """
    if j + 1 > params.n_scales:
        raise ParameterError(f"slice {j}->{j + 1} exceeds the cutoff sequence")
    x = FiberFamily(params, grid, basis, j).x(params.p_total)
    a = assemble_field(grid, basis, [j])
    root = np.sqrt(params.alpha)
    cross = sum(x[i] @ a[i] + a[i] @ x[i] for i in range(3))
    square = sum(ai @ ai for ai in a)
    return _symmetrize(0.5 * root * cross + 0.5 * params.alpha * square)


def _frame_product_form(frame: FrameFamily, gamma_shift) -> sp.csr_matrix:
    """K = (1/2) sum_i (Pi_i - gamma_shift_i)^2 + number + offset of the
    frame, in product form."""
    gamma_shift = np.asarray(gamma_shift, dtype=float).reshape(3)
    gam = [frame.pi[i] - gamma_shift[i] * frame.eye for i in range(3)]
    return _symmetrize(0.5 * sum(gi @ gi for gi in gam) + frame.number
                       + frame.offset * frame.eye)


def assemble_displaced_hamiltonian(
        params: ModelParams, grid: ModeGrid, basis: FockBasis, j: int,
        grad_energy: np.ndarray,
        gamma_shift: np.ndarray) -> tuple[sp.csr_matrix, float]:
    """Canonical-form Hamiltonian K at scale j, plus its scalar offset.

    K = (1/2) sum_i (Pi_i - gamma_shift_i)^2 + sum_m |k_m| delta_m n_m
        + offset in product form, the reference for ``FrameFamily.k``; with
    the ground-state expectation of Pi as shift, Pi - shift is Gamma.
    """
    frame = FiberFamily(params, grid, basis, j).frame(grad_energy)
    return _frame_product_form(frame, gamma_shift), frame.offset


def slice_marginal_coeffs(params: ModelParams, grid: ModeGrid,
                          slice_shell: int,
                          grad_energy: np.ndarray) -> np.ndarray:
    """Per-mode coefficients of the linear slice operators, shape (3, M).

    Component i combines the bare field coupling on the slice with the
    momentum-weighted dressing term:

        -sqrt(alpha) sqrt(w/|k|) eps^i - k^i f,

    where f are the displacement amplitudes evaluated with ``grad_energy``.
    """
    g = np.asarray(grad_energy, dtype=float)
    mask = grid.shell == slice_shell
    c = _coupling_coeff(grid, mask)
    f = displacement_coeffs(g, grid, [slice_shell], params.alpha)
    root = np.sqrt(params.alpha)
    return np.stack([-root * c * grid.eps_vec[:, i] - grid.k[:, i] * f
                     for i in range(3)])


def slice_marginal_ops(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                       slice_shell: int,
                       grad_energy: np.ndarray) -> list[sp.csr_matrix]:
    """Linear slice operators L_i = sum_m coeff_m^i (create_m + annihilate_m)."""
    coeffs = slice_marginal_coeffs(params, grid, slice_shell, grad_energy)
    return [linear_field(basis, coeffs[i]) for i in range(3)]


def assemble_intermediate_hamiltonian(
        family: FiberFamily, grad_energy_prev: np.ndarray,
        gamma_shift_prev: np.ndarray) -> tuple[sp.csr_matrix, float]:
    """Scale-j Hamiltonian (j = ``family.j``) seen through the scale-(j-1)
    displacement.

    Khat(j) = (1/2) sum_i (Gamma_i + L_i + I_i)^2
              + sum_m |k_m| delta^(j-1)_m n_m + offset_hat,

    with Gamma, the slice operators L and the scalar shift I evaluated with
    the previous gradient g.  Gamma + L is the scale-j Pi(g) less the
    previous shift, so Khat(j) is ``family.frame(g).k(gamma_prev - I)``,
    on a frame the family does not keep: it serves this one operator.
    Returns (Khat, offset_hat).
    """
    if family.j < 1:
        raise ParameterError("intermediate frame needs j >= 1")
    ivec = weyl_vacuum_expectation(family.params, family.grid,
                                   [family.j - 1], grad_energy_prev)
    frame = family.frame(grad_energy_prev, keep=False)
    return frame.k(np.asarray(gamma_shift_prev) - ivec), frame.offset


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
    ivec = weyl_vacuum_expectation(params, grid, [j - 1], g)
    eye = sp.identity(basis.size, format="csr")
    li = [lam[i] + ivec[i] * eye for i in range(3)]
    cross = sum(gamma_prev_ops[i] @ li[i] + li[i] @ gamma_prev_ops[i]
                for i in range(3))
    square = sum(l @ l for l in li)
    return _symmetrize(0.5 * cross + 0.5 * square)
