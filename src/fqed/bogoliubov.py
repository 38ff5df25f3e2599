"""Weyl displacements and the displaced momentum observables.

The infrared dressing of a fixed-momentum ground state is removed by a Weyl
(displacement) operator W = exp(G) with generator

    G = sum_m f_m (create_m - annihilate_m),
    f_m = sqrt(alpha) sqrt(w_m) (g . eps_m) / (|k_m|^(3/2) delta_m),

where g is the energy gradient at the current scale and delta_m the
directional dispersion factor.  Two pathways coexist on purpose:

* operators are conjugated in closed form (W b W* = b - f exactly in the
  untruncated algebra), so assembled observables carry no exponential error;
* state vectors are transported numerically with a deterministic
  scaled-Taylor expansion of exp(G), whose truncated generator is exactly
  antisymmetric, making the transport orthogonal on the truncated basis.
"""

from __future__ import annotations

import numpy as np

from .csr import CSR
from .fock import FockBasis, linear_field
from .modes import ModeGrid, ParameterError, direction_weights

#: A transport step sums Taylor terms until one falls to this share of the
#: step's norm plus 1, or up to this many terms.
_TAYLOR_TOL = 1e-15
_TAYLOR_TERMS = 60


def displacement_coeffs(grad_energy: np.ndarray, grid: ModeGrid, shells,
                        alpha: float) -> np.ndarray:
    """Displacement amplitudes removing the infrared dressing on ``shells``:
    one real amplitude per mode, zero outside ``shells``.

    f_m = sqrt(alpha * w_m) (g . eps_m) / (|k_m|^(3/2) (1 - khat_m . g)).
    Transversality makes f vanish for modes whose wave direction is parallel
    to g, and the dispersion factor amplifies nearly-parallel directions.
    """
    g = np.asarray(grad_energy, dtype=float)
    if np.linalg.norm(g) >= 1.0:
        raise ParameterError(
            f"|grad E| = {np.linalg.norm(g)} >= 1 admits a vanishing "
            "dispersion factor")
    delta = direction_weights(grid, g)
    if np.any(delta <= 0.0):
        raise ParameterError("dispersion factor vanished on a grid mode")
    return np.where(
        grid.shell_mask(shells),
        np.sqrt(alpha * grid.weight) * (grid.eps_vec @ g)
        / (grid.knorm ** 1.5 * delta),
        0.0)


def displacement_generator(f: np.ndarray, basis: FockBasis) -> CSR:
    """Antisymmetric generator sum_m f_m (create_m - annihilate_m): the
    entries +-f_m sqrt(n_m + 1) of each raise and its transpose, the zero
    ones dropped, as scipy's c - c.T drops them."""
    v = np.asarray(f, dtype=float)[basis.raise_mode] * basis.raise_amp
    kept = v != 0.0
    src, dst = basis.raise_src[kept], basis.raise_dst[kept]
    return CSR(np.concatenate([v[kept], -v[kept]]),
               np.concatenate([dst, src]), np.concatenate([src, dst]),
               (basis.size, basis.size))


def _one_norm(gen: CSR) -> float:
    """The 1-norm of ``gen``, its largest absolute column sum, each column
    summed over its entries in row order, as
    ``scipy.sparse.linalg.norm(gen, 1)`` sums it."""
    return np.bincount(gen.indices, weights=np.abs(gen.data),
                       minlength=gen.shape[1]).max()


def _expm_apply(gen: CSR, v: np.ndarray) -> np.ndarray:
    """Deterministic exp(gen) @ v by scaled Taylor summation.

    The generator norm is halved until the series converges quickly; the
    step count and term count depend only on the inputs, so repeated runs
    are bit-identical.
    """
    nrm = _one_norm(gen)
    steps = max(1, int(np.ceil(nrm / 0.5)))
    out = np.array(v, dtype=float, copy=True)
    for _ in range(steps):
        term = out.copy()
        acc = out.copy()
        scale = np.linalg.norm(acc) + 1.0
        for n in range(1, _TAYLOR_TERMS + 1):
            term = gen @ term / (n * steps)
            acc += term
            if np.linalg.norm(term) <= _TAYLOR_TOL * scale:
                break
        out = acc
    return out


def weyl_apply(f: np.ndarray, basis: FockBasis,
               v: np.ndarray) -> tuple[np.ndarray, float]:
    """Transport a state vector with the Weyl displacement exp(G) of the
    amplitudes f.

    Returns (W v, norm defect).  The truncated generator is exactly
    antisymmetric, so the transport is orthogonal and the reported defect
    ||v|| - ||W v|| stays at rounding level; it is still checked against
    1e-6 as a guard on the series evaluation.  The inverse transport is
    the displacement by the negated amplitudes -f.
    """
    out = _expm_apply(displacement_generator(f, basis),
                      np.asarray(v, dtype=float))
    defect = float(np.linalg.norm(v) - np.linalg.norm(out))
    if abs(defect) > 1e-6:
        raise ArithmeticError(
            f"Weyl transport lost norm {defect:.3e}; raise the occupation "
            "caps or shrink the displacement")
    return out, defect


def combined_displacement(grad_new: np.ndarray, grad_old: np.ndarray,
                          grid: ModeGrid, shells,
                          alpha: float) -> np.ndarray:
    """Single displacement equivalent to W(grad_new) W(grad_old)^{-1}.

    Mode-wise generators commute, so amplitudes subtract exactly; applying
    one combined displacement instead of two halves the transport error on
    the truncated basis.
    """
    return (displacement_coeffs(grad_new, grid, shells, alpha)
            - displacement_coeffs(grad_old, grid, shells, alpha))


def weyl_vacuum_expectation(params, grid: ModeGrid, shells,
                            grad_energy: np.ndarray) -> np.ndarray:
    """Vacuum expectation of the conjugated field momentum, a 3-vector.

    <W beta W*>_vacuum = sum_m k_m f_m^2
                         + 2 sqrt(alpha) sum_m sqrt(w_m/|k_m|) eps_m f_m,

    summed over ``shells``.  Over the active shells range(j), together with
    the ground-state expectation of the displaced momentum observable, this
    reconstructs P - grad E (the Feynman-Hellmann chain); over the single
    slice shell it is the scalar shift of the frame bridge.
    """
    f = displacement_coeffs(grad_energy, grid, shells, params.alpha)
    coupling = np.sqrt(grid.weight / grid.knorm)
    root = np.sqrt(params.alpha)
    return np.array([
        np.sum(grid.k[:, i] * f ** 2)
        + 2.0 * root * np.sum(coupling * grid.eps_vec[:, i] * f)
        for i in range(3)
    ])


def displaced_momentum_ops(family, grad_energy: np.ndarray) -> list:
    """Closed form of the conjugated, vacuum-centered field momentum Pi.

    Conjugation shifts each active ladder operator by its displacement
    amplitude, and the resulting c-number cancels against the subtracted
    vacuum expectation:

        Pi_i = beta_i - sum_{m active} k_m^i f_m (create_m + annihilate_m),

    with beta from the ladder algebra at the scale of the ``FiberFamily``
    ``family``, not from its factors: an oracle for ``family.frame``, as
    ``scipy.sparse`` matrices.  The vacuum expectation of every Pi_i
    vanishes identically; centring Pi on a state phi, Pi - <Pi>_phi, is
    ``family.frame(g).center(phi)``.
    """
    from .hamiltonian import _field_momentum   # hamiltonian imports us
    grid = family.grid
    f = displacement_coeffs(grad_energy, grid, range(family.j),
                            family.params.alpha)
    beta = _field_momentum(family.params, grid, family.basis, family.j)
    return [(b - linear_field(family.basis, grid.k[:, i] * f)).tocsr()
            for i, b in enumerate(beta)]

