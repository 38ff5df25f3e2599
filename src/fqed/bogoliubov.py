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
import scipy.sparse as sp

from .fock import FockBasis, creation_sum, linear_field
from .modes import ModeGrid, ParameterError, direction_weights


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


def displacement_generator(f: np.ndarray,
                           basis: FockBasis) -> sp.csr_matrix:
    """Antisymmetric generator sum_m f_m (create_m - annihilate_m)."""
    c = creation_sum(basis, f)
    return (c - c.T).tocsr()


def _expm_apply(gen: sp.spmatrix, v: np.ndarray, tol: float = 1e-15,
                max_terms: int = 60) -> np.ndarray:
    """Deterministic exp(gen) @ v by scaled Taylor summation.

    The generator norm is halved until the series converges quickly; the
    step count and term count depend only on the inputs, so repeated runs
    are bit-identical.
    """
    nrm = sp.linalg.norm(gen, 1) if gen.nnz else 0.0
    steps = max(1, int(np.ceil(nrm / 0.5)))
    out = np.array(v, dtype=float, copy=True)
    for _ in range(steps):
        term = out.copy()
        acc = out.copy()
        scale = np.linalg.norm(acc) + 1.0
        for n in range(1, max_terms + 1):
            term = gen @ term / (n * steps)
            acc += term
            if np.linalg.norm(term) <= tol * scale:
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


def displaced_momentum_ops(family, grad_energy: np.ndarray
                           ) -> list[sp.csr_matrix]:
    """Closed form of the conjugated, vacuum-centered field momentum Pi.

    Conjugation shifts each active ladder operator by its displacement
    amplitude, and the resulting c-number cancels against the subtracted
    vacuum expectation:

        Pi_i = beta_i - sum_{m active} k_m^i f_m (create_m + annihilate_m),

    with beta taken from the scale's ``hamiltonian.FiberFamily``.  The vacuum
    expectation of every Pi_i vanishes identically.
    """
    grid = family.grid
    f = displacement_coeffs(grad_energy, grid, range(family.j),
                            family.params.alpha)
    return [(beta - linear_field(family.basis, grid.k[:, i] * f)).tocsr()
            for i, beta in enumerate(family.beta)]


def centered_momentum_vectors(pi_ops: list[sp.spmatrix], phi: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma phi for the mean-zero Gamma = Pi - shift, as vectors.

    Returns (gamma_phi, shift, orth): shift_i = <phi, Pi_i phi> / <phi,
    phi>, row i of gamma_phi is Pi_i phi - shift_i phi, and orth_i = <phi,
    gamma_phi_i> / <phi, phi>, zero up to the centering's rounding.
    """
    phi = np.asarray(phi, dtype=float)
    nrm2 = float(phi @ phi)
    if nrm2 <= 0.0:
        raise ParameterError("cannot center on a zero vector")
    pi_phi = [pi @ phi for pi in pi_ops]
    shift = np.array([float(phi @ v) for v in pi_phi]) / nrm2
    gamma_phi = np.array([v - s * phi for v, s in zip(pi_phi, shift)])
    orth = np.array([float(phi @ g) for g in gamma_phi]) / nrm2
    return gamma_phi, shift, orth
