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

Both H(P) and K(gamma) are squares, (1/2) sum_i (F_i - c_i)^2 + diag(d) +
s, with F = beta, c = P or F = Pi, c = gamma.  Neither is assembled: a
``FactorOp`` applies one from its stacked factors, and each family
restricts its factors to a photon-content sector once.  Every scale-j
factor maps sectors j and j + 1 into themselves, so the restriction of
the square is the square of the restricted factors.  ``FactorOp.tocsr``
assembles the product form for the solves that need the matrix itself;
``assemble_h_fiber`` and ``assemble_displaced_hamiltonian`` build it
independently, as the references the tests compare against.
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


class _Factors:
    """The pieces of (1/2) sum_i (F_i - c_i)^2 + diag(d) + s that do not
    depend on c or s: the three symmetric factors F_i stacked into one
    (3n, n) CSR and half its transpose, the diagonal d, and the diagonals
    of each F_i and of its off-diagonal square, from which ``FactorOp``
    reads its own diagonal.  ``sector(idx)`` restricts them once per index
    set.
    """

    def __init__(self, stacked: sp.csr_matrix, d: np.ndarray):
        n = len(d)
        stacked.sum_duplicates()
        self.size, self.stacked, self.d = n, stacked, d
        # halving is exact, so (1/2) F^T (F x) rounds as F^T (F x) does
        self.half_t = (0.5 * stacked.T).tocsr()
        coo = stacked.tocoo()
        on = coo.col == coo.row % n
        diag_f = np.zeros(3 * n)
        diag_f[coo.row[on]] = coo.data[on]
        self.diag_f = diag_f.reshape(3, n)
        self.off_sq = np.bincount(coo.row[~on], weights=coo.data[~on] ** 2,
                                  minlength=3 * n).reshape(3, n)
        self._sectors: dict[bytes, _Factors] = {}

    def sector(self, idx: np.ndarray) -> "_Factors":
        """The factors restricted to the states ``idx`` (ascending).  The
        restriction of the square is the square of the restrictions when
        every F_i maps the span of ``idx`` into itself, as each scale-j
        factor does on sectors j and j + 1.  The whole basis is ``self``."""
        idx = np.asarray(idx)
        if len(idx) == self.size and np.array_equal(idx,
                                                    np.arange(self.size)):
            return self
        key = idx.tobytes()
        if key not in self._sectors:
            rows = np.concatenate([idx + i * self.size for i in range(3)])
            self._sectors[key] = _Factors(self.stacked[rows][:, idx],
                                          self.d[idx])
        return self._sectors[key]


class FactorOp:
    """The operator (1/2) sum_i (F_i - c_i)^2 + diag(d) + s, applied from
    its factors: one application, to a vector or an (n, k) block, is two
    sparse products with the stacked factors.  ``tocsr()`` assembles the
    product form, for the solves that need the matrix itself.
    """

    def __init__(self, factors: _Factors, c, s: float = 0.0):
        self.factors = factors
        self.c = np.asarray(c, dtype=float).reshape(3)
        self.s = float(s)
        self.shape = (factors.size, factors.size)
        self._scalar = factors.d + (self.s + 0.5 * float(self.c @ self.c))

    def __matmul__(self, x):
        # (1/2) sum_i F_i (F_i x) - sum_i c_i F_i x + (|c|^2/2 + d + s) x
        f = self.factors
        x = np.asarray(x)
        z = f.stacked @ x
        out = f.half_t @ z
        out -= (self.c @ z.reshape(3, -1)).reshape(x.shape)
        out += self._scalar.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        return out

    def diagonal(self) -> np.ndarray:
        f = self.factors
        return (0.5 * np.sum(f.off_sq + (f.diag_f - self.c[:, None]) ** 2,
                             axis=0) + f.d + self.s)

    def sector(self, idx: np.ndarray) -> "FactorOp":
        """The operator on the states ``idx``, a sector its factors map
        into itself."""
        return FactorOp(self.factors.sector(idx), self.c, self.s)

    def tocsr(self) -> sp.csr_matrix:
        f = self.factors
        g = f.stacked - sp.vstack([ci * sp.identity(f.size, format="csr")
                                   for ci in self.c], format="csr")
        return _symmetrize(0.5 * (g.T @ g) + sp.diags(f.d + self.s))


class FiberFamily:
    """The scale-j fiber Hamiltonians at every total momentum P:

        H(P) = (1/2) sum_i (P_i - beta_i)^2 + Hf,   dH/dP_i = P_i - beta_i,

    with beta_i = Pf_i - sqrt(alpha) A_i (interaction on shells 0..j-1),
    each H(P) a ``FactorOp`` on the family's stacked beta.  Every beta_i is
    exactly symmetric, so every H(P) is too.
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
        self.hf = number_diagonal(basis, grid.knorm)
        self._frames: dict[bytes, FrameFamily] = {}

    @cached_property
    def _factors(self) -> _Factors:
        # built on first use: a cascade step needs beta for its bridge
        # operator before it needs any H(P)
        return _Factors(sp.vstack(self.beta, format="csr"), self.hf)

    def h(self, p) -> FactorOp:
        return FactorOp(self._factors, p)

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
            number=number_diagonal(self.basis, grid.knorm * delta),
            offset=float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
                         - np.sum(grid.knorm * delta * f ** 2)))
        if keep:
            self._frames[key] = frame
        return frame


@dataclass(frozen=True)
class FrameFamily:
    """Displaced-frame Hamiltonians at one scale, gradient and momentum:

        K(gamma) = (1/2) sum_i (Pi_i - gamma_i)^2 + number + offset,

    each a ``FactorOp`` on the stacked Pi, built on first use; ``number``
    is the diagonal of sum_m |k_m| delta_m n_m.  The frame holds its
    pieces, not its family.
    """

    pi: list = field(repr=False)
    number: np.ndarray = field(repr=False)
    offset: float

    @cached_property
    def _factors(self) -> _Factors:
        return _Factors(sp.vstack(self.pi, format="csr"), self.number)

    def k(self, gamma_shift) -> FactorOp:
        return FactorOp(self._factors, gamma_shift, self.offset)


def assemble_h_fiber(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                     j: int, p=None) -> sp.csr_matrix:
    """Fiber Hamiltonian at scale j in product form, the reference for
    ``FiberFamily.h``."""
    family = FiberFamily(params, grid, basis, j)
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    grad = [(p[i] * family.eye - family.beta[i]).tocsr() for i in range(3)]
    return _symmetrize(0.5 * sum(m @ m for m in grad)
                       + sp.diags(family.hf))


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
    gamma_shift = np.asarray(gamma_shift, dtype=float).reshape(3)
    eye = sp.identity(basis.size, format="csr")
    gam = [frame.pi[i] - gamma_shift[i] * eye for i in range(3)]
    return _symmetrize(0.5 * sum(gi @ gi for gi in gam)
                       + sp.diags(frame.number) + frame.offset * eye), \
        frame.offset


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
        gamma_shift_prev: np.ndarray) -> tuple[FactorOp, float]:
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
