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
s, with F = beta, c = P or F = Pi, c = gamma.  Each factor is field-linear,
F_i = diag(D_i) + sum_m C_im (create_m + annihilate_m): D = Pf for both,
C = -sqrt(alpha) sqrt(w/|k|) eps on the shells below j for beta, less
k f for Pi.  A ``_Factors`` of (D, C, d, s) is one ``csr.CSR`` build
over the basis's raise table, on the whole basis or on a sector: a
family's factors are beta's, its ``frame(g)`` those of Pi(g), and each
first moment (<beta> in P - <beta>, <Pi> in Pi - <Pi>) is ``center``.
Every scale-j factor maps sectors j and j + 1 into themselves, so the
restriction of the square is the square of the restricted factors.
Neither square is assembled: a ``FactorOp`` applies one from its factors.
``FactorOp.tocsr`` assembles the product form for the oracles;
``assemble_h_fiber`` and ``assemble_displaced_hamiltonian`` build it
independently, from ``assemble_field``, as the references the tests
compare against.  The oracles are ``scipy.sparse`` matrices, and each
imports ``scipy.sparse`` where it runs, so that no command loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bogoliubov import (displaced_momentum_ops, displacement_coeffs,
                         weyl_vacuum_expectation)
from .csr import CSR
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


def assemble_field(grid: ModeGrid, basis: FockBasis, shells) -> list:
    """Transverse field components A_i over the given shells, as
    ``scipy.sparse`` matrices; an oracle.

    A_i = sum_m sqrt(w_m/|k_m|) eps_m^i (create_m + annihilate_m); the
    sqrt(w) factor carries the continuum measure.  An empty shell range
    yields the zero operator.
    """
    mask = grid.shell_mask(shells)
    c = _coupling_coeff(grid, mask)
    return [linear_field(basis, c * grid.eps_vec[:, i]) for i in range(3)]


def _symmetrize(op):
    """(op + op.T) / 2 of a ``scipy.sparse`` matrix, as CSR."""
    return (0.5 * (op + op.T)).tocsr()


class _Factors:
    """The pieces of (1/2) sum_i (F_i - c_i)^2 + diag(d) + s that do not
    depend on c, for the field-linear factors

        F_i = diag(D_i) + sum_m C_im (create_m + annihilate_m)

    on the states ``idx`` of ``basis`` (all of them when ``idx`` is None):
    the three F_i stacked into one (3n, n) CSR and half its transpose, the
    diagonal d, the scalar s, and the diagonals of each F_i (D itself) and
    of its off-diagonal square, from which ``FactorOp`` reads its own
    diagonal.

    One ``CSR`` over the basis's raise table holds each: the entries are
    the raises into each state, the diagonal and the raises out of it, the
    zero ones dropped.  Each F_i is symmetric, so the transpose is the same
    entries with row and column swapped back.  ``sector(idx)`` builds the
    factors of a set of states once.
    """

    def __init__(self, basis: FockBasis, diag: np.ndarray,
                 coeffs: np.ndarray, d: np.ndarray, s: float = 0.0,
                 idx=None):
        src, dst, mode = basis.raise_src, basis.raise_dst, basis.raise_mode
        amp = basis.raise_amp
        if idx is not None:
            pos = np.full(basis.size, -1)
            pos[idx] = np.arange(len(idx))
            keep = (pos[src] >= 0) & (pos[dst] >= 0)
            src, dst = pos[src[keep]], pos[dst[keep]]
            mode, amp = mode[keep], amp[keep]
        n = len(d)
        self.basis, self.idx, self.coeffs = basis, idx, coeffs
        self.size, self.d, self.s, self.diag_f = n, d, float(s), diag
        index = np.int32 if 3 * (n + 2 * len(src)) < 2 ** 31 else np.int64
        line_rows = np.concatenate([dst, np.arange(n), src]).astype(index)
        line_cols = np.concatenate([src, np.arange(n), dst]).astype(index)
        self.off_sq = np.empty((3, n))
        parts = []
        for i in range(3):
            off = coeffs[i, mode] * amp
            # a row's off-diagonal squares, summed in its column order
            self.off_sq[i] = np.bincount(
                np.concatenate([dst, src]),
                weights=np.concatenate([off, off]) ** 2, minlength=n)
            vals = np.concatenate([off, diag[i], off])
            kept = vals != 0.0
            parts.append((vals[kept], line_rows[kept], line_cols[kept]))
        data, rows, cols = (np.concatenate(q) for q in zip(*parts))
        block = np.repeat(np.arange(3, dtype=index) * n,
                          [len(q[0]) for q in parts])
        self.stacked = CSR(data, rows + block, cols, (3 * n, n))
        # row s of the transpose holds row s of F_0, F_1, F_2 in turn, at
        # columns shifted by 0, n, 2n; halving is exact, so (1/2) F^T (F x)
        # rounds as F^T (F x) does
        self.half_t = CSR(0.5 * data, rows, cols + block, (n, 3 * n))
        self._sectors: dict[bytes, _Factors] = {}

    def apply(self, v: np.ndarray) -> np.ndarray:
        """F v, the (3, n) array of rows F_i v: one product with the stack."""
        return (self.stacked @ v).reshape(3, -1)

    def center(self, v: np.ndarray) -> tuple:
        """(F v - <F> v, <F>, orth) from one product: <F_i> = <v, F_i v> /
        <v, v>, and orth_i = <v, row i> / <v, v> is zero to rounding."""
        v = np.asarray(v, dtype=float)
        nrm2 = float(v @ v)
        if nrm2 <= 0.0:
            raise ParameterError("cannot center on a zero vector")
        fv = self.apply(v)
        mean = np.array([float(v @ row) for row in fv]) / nrm2
        centred = np.array([row - m * v for row, m in zip(fv, mean)])
        orth = np.array([float(v @ row) for row in centred]) / nrm2
        return centred, mean, orth

    def sector(self, idx: np.ndarray) -> "_Factors":
        """The factors on the states ``idx`` (ascending, of these
        factors' states).  The restriction of the square is the square of
        the restrictions when every F_i maps the span of ``idx`` into
        itself, as each scale-j factor does on sectors j and j + 1.  The
        whole set of states is ``self``."""
        idx = np.asarray(idx)
        if len(idx) == self.size and np.array_equal(idx,
                                                    np.arange(self.size)):
            return self
        key = idx.tobytes()
        if key not in self._sectors:
            self._sectors[key] = _Factors(
                self.basis, self.diag_f[:, idx], self.coeffs, self.d[idx],
                self.s, idx if self.idx is None else self.idx[idx])
        return self._sectors[key]


class FactorOp:
    """The operator (1/2) sum_i (F_i - c_i)^2 + diag(d) + s of ``factors``
    at the shift c: one application, to a vector or an (n, k) block, is
    two sparse products with the stacked factors.  ``tocsr()`` assembles the
    product form, for the oracles and the benchmark's tracer.
    """

    def __init__(self, factors: _Factors, c):
        self.factors = factors
        self.c = np.asarray(c, dtype=float).reshape(3)
        self.shape = (factors.size, factors.size)
        self._scalar = factors.d + (factors.s + 0.5 * float(self.c @ self.c))

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
                             axis=0) + f.d + f.s)

    def sector(self, idx: np.ndarray) -> "FactorOp":
        """The operator on the states ``idx``, a sector its factors map
        into itself."""
        return FactorOp(self.factors.sector(idx), self.c)

    def tocsr(self):
        """The product form as a ``scipy.sparse`` matrix."""
        import scipy.sparse as sp

        f = self.factors
        eye = sp.identity(f.size, format="csr")
        g = f.stacked.tocsr() - sp.vstack([ci * eye for ci in self.c],
                                          format="csr")
        return _symmetrize(0.5 * (g.T @ g) + sp.diags(f.d + f.s))


class FiberFamily:
    """The scale-j fiber Hamiltonians at every total momentum P:

        H(P) = (1/2) sum_i (P_i - beta_i)^2 + Hf,   dH/dP_i = P_i - beta_i,

    with beta_i = Pf_i - sqrt(alpha) A_i (interaction on shells 0..j-1),
    each H(P) a ``FactorOp`` on ``factors``, those of beta: diagonal Pf
    and coefficients -sqrt(alpha) sqrt(w_m/|k_m|) eps_m on the shells
    below j, with d = Hf.  Every beta_i is exactly symmetric, so every H(P)
    is too.
    """

    def __init__(self, params: ModelParams, grid: ModeGrid,
                 basis: FockBasis, j: int):
        if j > params.n_scales:
            raise ParameterError(
                f"scale {j} exceeds n_scales={params.n_scales}")
        if basis.n_modes != grid.n_modes:
            raise ParameterError("basis and grid mode counts differ")
        self.params, self.grid, self.basis, self.j = params, grid, basis, j
        self.pf = np.stack([number_diagonal(basis, grid.k[:, i])
                            for i in range(3)])
        self.coeffs = (-np.sqrt(params.alpha)
                       * _coupling_coeff(grid, grid.shell_mask(range(j)))
                       * grid.eps_vec.T)
        self.hf = number_diagonal(basis, grid.knorm)
        self._frames: dict[bytes, _Factors] = {}

    @cached_property
    def factors(self) -> _Factors:
        return _Factors(self.basis, self.pf, self.coeffs, self.hf)

    def h(self, p) -> FactorOp:
        return FactorOp(self.factors, p)

    def gradient(self, psi: np.ndarray) -> np.ndarray:
        """P - <beta>_psi: dE/dP at an eigenvector psi of the family's H(P)."""
        return self.params.p_total - self.factors.center(psi)[1]

    def frame(self, grad_energy: np.ndarray) -> _Factors:
        """The displaced frame for the gradient g at the family's momentum
        P, as the factors of its K(gamma) = ``FactorOp(frame, gamma)``,
        built once per gradient: the cascade's centring, the frame polish
        and the resolvent-bound probe of a record share it."""
        g = np.asarray(grad_energy, dtype=float)
        key = g.tobytes()
        if key not in self._frames:
            self._frames[key] = _frame_factors(self, g)
        return self._frames[key]


def _frame_factors(family: FiberFamily, g: np.ndarray) -> _Factors:
    """The factors of K(gamma) = (1/2) sum_i (Pi_i - gamma_i)^2 + sum_m |k_m|
    delta_m n_m + offset, the frame of ``family`` at the gradient g: Pi's
    coefficients are beta's less k_m f_m, and the offset
    |P|^2/2 - |P - g|^2/2 - sum_active |k| delta f^2 takes the same Weyl
    amplitudes f, keeping the canonical form self-consistent."""
    grid, p = family.grid, family.params.p_total
    delta = direction_weights(grid, g)
    f = displacement_coeffs(g, grid, range(family.j), family.params.alpha)
    return _Factors(
        family.basis, family.pf, family.coeffs - grid.k.T * f,
        number_diagonal(family.basis, grid.knorm * delta),
        float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
              - np.sum(grid.knorm * delta * f ** 2)))


def _field_momentum(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                    j: int) -> list:
    """beta_i = Pf_i - sqrt(alpha) A_i from the ladder algebra
    (``assemble_field``), independent of the one-pass factors."""
    import scipy.sparse as sp

    a = assemble_field(grid, basis, range(j))
    return [(sp.diags(number_diagonal(basis, grid.k[:, i]))
             - np.sqrt(params.alpha) * a[i]).tocsr() for i in range(3)]


def assemble_h_fiber(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                     j: int, p=None):
    """Fiber Hamiltonian at scale j in product form, the reference for
    ``FiberFamily.h``."""
    import scipy.sparse as sp

    p = params.p_total if p is None else np.asarray(p, dtype=float)
    eye = sp.identity(basis.size, format="csr")
    grad = [(p[i] * eye - beta).tocsr()
            for i, beta in enumerate(_field_momentum(params, grid, basis, j))]
    return _symmetrize(0.5 * sum(m @ m for m in grad)
                       + sp.diags(number_diagonal(basis, grid.knorm)))


def assemble_slice_interaction(params: ModelParams, grid: ModeGrid,
                               basis: FockBasis, j: int):
    """Interaction picked up when the cutoff drops from scale j to j+1.

    sqrt(alpha) * sym(grad_P H . a) + (alpha/2) a^2 with ``a`` the shell-j
    field; satisfies H(j+1) = H(j) + slice entrywise on the common basis.
    """
    import scipy.sparse as sp

    if j + 1 > params.n_scales:
        raise ParameterError(f"slice {j}->{j + 1} exceeds the cutoff sequence")
    eye = sp.identity(basis.size, format="csr")
    x = [params.p_total[i] * eye - beta
         for i, beta in enumerate(_field_momentum(params, grid, basis, j))]
    a = assemble_field(grid, basis, [j])
    root = np.sqrt(params.alpha)
    cross = sum(x[i] @ a[i] + a[i] @ x[i] for i in range(3))
    square = sum(ai @ ai for ai in a)
    return _symmetrize(0.5 * root * cross + 0.5 * params.alpha * square)


def assemble_displaced_hamiltonian(
        params: ModelParams, grid: ModeGrid, basis: FockBasis, j: int,
        grad_energy: np.ndarray,
        gamma_shift: np.ndarray) -> tuple:
    """Canonical-form Hamiltonian K at scale j, plus its scalar offset.

    K = (1/2) sum_i (Pi_i - gamma_shift_i)^2 + sum_m |k_m| delta_m n_m
        + offset in product form, the reference for ``FactorOp`` on
    ``FiberFamily.frame``, built without its factors: Pi from
    ``displaced_momentum_ops``, the number diagonal and the offset in
    closed form; with the ground-state expectation of Pi as shift,
    Pi - shift is Gamma.
    """
    import scipy.sparse as sp

    g = np.asarray(grad_energy, dtype=float)
    gamma_shift = np.asarray(gamma_shift, dtype=float).reshape(3)
    eye = sp.identity(basis.size, format="csr")
    pi = displaced_momentum_ops(FiberFamily(params, grid, basis, j), g)
    gam = [pi[i] - gamma_shift[i] * eye for i in range(3)]
    p, delta = params.p_total, direction_weights(grid, g)
    f = displacement_coeffs(g, grid, range(j), params.alpha)
    offset = float(p @ p / 2.0 - (p - g) @ (p - g) / 2.0
                   - np.sum(grid.knorm * delta * f ** 2))
    return _symmetrize(0.5 * sum(gi @ gi for gi in gam)
                       + sp.diags(number_diagonal(basis, grid.knorm * delta))
                       + offset * eye), offset


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
                       grad_energy: np.ndarray) -> list:
    """Linear slice operators L_i = sum_m coeff_m^i (create_m + annihilate_m)
    as ``scipy.sparse`` matrices; an oracle."""
    coeffs = slice_marginal_coeffs(params, grid, slice_shell, grad_energy)
    return [linear_field(basis, coeffs[i]) for i in range(3)]


def assemble_intermediate_hamiltonian(
        family: FiberFamily, grad_energy_prev: np.ndarray,
        gamma_shift_prev: np.ndarray) -> FactorOp:
    """Scale-j Hamiltonian (j = ``family.j``) seen through the scale-(j-1)
    displacement.

    Khat(j) = (1/2) sum_i (Gamma_i + L_i + I_i)^2
              + sum_m |k_m| delta^(j-1)_m n_m + offset_hat,

    with Gamma, the slice operators L and the scalar shift I evaluated with
    the previous gradient g.  Gamma + L is the scale-j Pi(g) less the
    previous shift, so Khat(j) is K(gamma_prev - I) on the frame of g, built
    without the family's cache: it serves this one operator.  Its offset
    offset_hat is the operator's ``factors.s``.
    """
    if family.j < 1:
        raise ParameterError("intermediate frame needs j >= 1")
    ivec = weyl_vacuum_expectation(family.params, family.grid,
                                   [family.j - 1], grad_energy_prev)
    frame = _frame_factors(family, np.asarray(grad_energy_prev, dtype=float))
    return FactorOp(frame, np.asarray(gamma_shift_prev) - ivec)


def delta_k_interaction(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                        j: int, gamma_prev_ops: list,
                        grad_energy_prev: np.ndarray):
    """Frame-bridge perturbation between scales j-1 and j.

    (1/2) sym(Gamma . (L + I)) + (1/2) (L + I)^2, assembled with the same
    Gamma operators used for K(j-1) so that

        Khat(j) = K(j-1) + delta_k + (offset_hat - offset_{j-1})

    holds entrywise.
    """
    import scipy.sparse as sp

    g = np.asarray(grad_energy_prev, dtype=float)
    lam = slice_marginal_ops(params, grid, basis, j - 1, g)
    ivec = weyl_vacuum_expectation(params, grid, [j - 1], g)
    eye = sp.identity(basis.size, format="csr")
    li = [lam[i] + ivec[i] * eye for i in range(3)]
    cross = sum(gamma_prev_ops[i] @ li[i] + li[i] @ gamma_prev_ops[i]
                for i in range(3))
    square = sum(l @ l for l in li)
    return _symmetrize(0.5 * cross + 0.5 * square)
