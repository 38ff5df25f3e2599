"""Momentum-space discretization for photons in a spherical shell cascade.

The photon momenta live in a ball of radius ``lambda_uv`` (the ultraviolet
cutoff).  An infrared cascade splits the ball into geometric shells bounded
by the cutoffs ``sigma_j = lambda_uv * epsilon**j``; shell ``j`` covers the
annulus ``sigma_{j+1} < |k| <= sigma_j``.  Each shell is discretized by a
midpoint rule on a geometric radial subdivision crossed with a fixed weighted
angular point set, and every spatial point carries two transverse
polarization modes.

Discretization contract: a discrete mode keeps exact ladder-operator algebra
([b, b*] = 1 on the uncapped sectors) and the continuum measure is absorbed
into coupling coefficients through sqrt(weight) factors.  Number-type
integrals therefore discretize without any weight factor, while field-type
couplings pick up sqrt(w).  All downstream operator assembly relies on this
split.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

_POLE_SWITCH = 1e-6

#: Golden ratio, used by the icosahedral angular set.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0

#: Names of the built-in angular point sets.
ANGULAR_SETS = ("octahedral6", "icosahedral12")


class ParameterError(ValueError):
    """Invalid model or discretization parameter."""


class ResourceError(RuntimeError):
    """Requested grid or basis exceeds its hard size limit."""


#: Bytes ``build_grid`` holds per mode at its peak: 149 MiB under
#: ``tracemalloc`` for 1,200,024 modes, 104 of them the 13 stored numbers.
MODE_BYTES = 149 * 2**20 / 1_200_024

#: Largest grid built: about 1 GiB, the budget of ``fock.ENTRY_LIMIT``.
MODE_LIMIT = int(2**30 / MODE_BYTES)


@dataclass(frozen=True)
class CutoffSequence:
    """Geometric sequence of infrared cutoffs below a fixed UV cutoff.

    ``sigma(j) = lambda_uv * epsilon**j`` for ``j = 0 .. n_scales``.
    """

    lambda_uv: float
    epsilon: float
    n_scales: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(
                f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if self.n_scales <= 0:
            raise ParameterError(
                f"scale count must be positive, got {self.n_scales}")
        if self.lambda_uv <= 0.0:
            raise ParameterError(
                f"UV cutoff must be positive, got {self.lambda_uv}")

    def sigma(self, j: int) -> float:
        """Cutoff at scale ``j`` (``sigma(0)`` is the UV cutoff)."""
        return self.lambda_uv * self.epsilon ** j

    @property
    def sigmas(self) -> np.ndarray:
        return self.lambda_uv * self.epsilon ** np.arange(self.n_scales + 1)


def polarization_frame(khat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic transverse frame (eps1, eps2) with eps1 x eps2 = khat.

    Away from the z-axis the frame is seeded by the cross product z x khat;
    within 1e-6 of the pole the x-axis seeds the frame instead (projected
    onto the transverse plane) so the map stays defined.  Both vectors are
    real unit vectors orthogonal to khat.
    """
    khat = np.asarray(khat, dtype=float)
    nrm = np.linalg.norm(khat)
    if nrm == 0.0:
        raise ParameterError("polarization frame undefined for zero vector")
    if abs(nrm - 1.0) > 1e-12:
        raise ParameterError(f"khat must be unit length, |khat| = {nrm!r}")
    zhat = np.array([0.0, 0.0, 1.0])
    cross = np.cross(zhat, khat)
    cn = np.linalg.norm(cross)
    if cn < _POLE_SWITCH:
        xhat = np.array([1.0, 0.0, 0.0])
        eps1 = xhat - (xhat @ khat) * khat
        eps1 /= np.linalg.norm(eps1)
    else:
        eps1 = cross / cn
    eps2 = np.cross(khat, eps1)
    return eps1, eps2


def _angular_points(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors and weights (summing to 4*pi) of a built-in point set."""
    if name == "octahedral6":
        pts = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        ])
    elif name == "icosahedral12":
        raw = []
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                raw.append([0.0, s1, s2 * _PHI])
                raw.append([s1, s2 * _PHI, 0.0])
                raw.append([s1 * _PHI, 0.0, s2])
        pts = np.array(raw) / np.sqrt(1.0 + _PHI ** 2)
    else:
        raise ParameterError(
            f"unknown angular set {name!r}; "
            f"available: {', '.join(ANGULAR_SETS)}")
    weights = np.full(len(pts), 4.0 * np.pi / len(pts))
    return pts, weights


@dataclass(frozen=True)
class ModeGrid:
    """Immutable discrete photon-mode set organized by cascade shell.

    Arrays are aligned per mode index.  The deterministic ordering is
    (shell, radial cell, angular point, polarization), all ascending.
    """

    cutoffs: CutoffSequence
    n_radial: int
    k: np.ndarray = field(repr=False)          # (M, 3)
    knorm: np.ndarray = field(repr=False)      # (M,)
    khat: np.ndarray = field(repr=False)       # (M, 3)
    shell: np.ndarray = field(repr=False)      # (M,) int
    weight: np.ndarray = field(repr=False)     # (M,)
    lam: np.ndarray = field(repr=False)        # (M,) int, 1 or 2
    eps_vec: np.ndarray = field(repr=False)    # (M, 3)

    @property
    def n_modes(self) -> int:
        return len(self.knorm)

    def shell_mask(self, shells) -> np.ndarray:
        """Boolean mask selecting modes whose shell index is in ``shells``."""
        return np.isin(self.shell, np.fromiter(shells, dtype=int))

    def active_mask(self, j: int) -> np.ndarray:
        """Modes above the scale-``j`` cutoff, i.e. shells ``0 .. j-1``."""
        return self.shell < j

    def shell_volume_error_bound(self, j: int) -> float:
        """Analytic midpoint-rule bound on the shell-j weight-sum defect.

        The radial integrand r**2 has second derivative 2, so each radial
        cell contributes at most (dr**3)/12 per unit solid angle.
        """
        lo = self.cutoffs.sigma(j + 1)
        hi = self.cutoffs.sigma(j)
        edges = lo * (hi / lo) ** (np.arange(self.n_radial + 1) / self.n_radial)
        dr = np.diff(edges)
        return float(4.0 * np.pi * np.sum(dr ** 3) / 12.0)

    def dump_csv(self) -> str:
        """Grid table: index, j, kx, ky, kz, knorm, weight, lambda, ex, ey, ez."""
        buf = io.StringIO()
        buf.write("index,j,kx,ky,kz,knorm,weight,lambda,ex,ey,ez\n")
        for m in range(self.n_modes):
            cells = [str(m), str(int(self.shell[m]))]
            cells += [repr(float(v)) for v in self.k[m]]
            cells += [repr(float(self.knorm[m])), repr(float(self.weight[m]))]
            cells.append(str(int(self.lam[m])))
            cells += [repr(float(v)) for v in self.eps_vec[m]]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def check_mode_count(n_scales: int, n_radial: int, angular_set: str) -> int:
    """J x n_radial x angular points x 2, the modes ``build_grid`` makes;
    raises ResourceError above ``MODE_LIMIT`` without allocating."""
    if n_radial < 1:
        raise ParameterError(f"n_radial must be >= 1, got {n_radial}")
    n_modes = n_scales * n_radial * len(_angular_points(angular_set)[1]) * 2
    if n_modes > MODE_LIMIT:
        raise ResourceError(
            f"grid would hold {n_modes} modes, above limit {MODE_LIMIT}")
    return n_modes


def build_grid(cutoffs: CutoffSequence, n_radial: int = 1,
               angular_set: str = "octahedral6") -> ModeGrid:
    """Discretize the momentum ball into shell-aligned quadrature modes.

    Each (radial cell x angular point) yields two modes, one per transverse
    polarization.  Weights are radial midpoint-cell weights (r_c**2 * dr)
    times angular weights, so the sum over one shell approximates its volume
    (4*pi/3)(sigma_j**3 - sigma_{j+1}**3) with an error that shrinks as
    ``n_radial`` grows.  The size is checked before anything is allocated,
    and every array is one broadcast over (shell, radial cell, angular
    point, polarization).
    """
    n_modes = check_mode_count(cutoffs.n_scales, n_radial, angular_set)
    pts, aw = _angular_points(angular_set)
    sig = [cutoffs.sigma(j) for j in range(cutoffs.n_scales + 1)]
    edges = np.array([lo * (hi / lo) ** (np.arange(n_radial + 1) / n_radial)
                      for hi, lo in zip(sig, sig[1:])])
    r_c = 0.5 * (edges[:, :-1] + edges[:, 1:])[:, :, None, None]
    w_rad = r_c ** 2 * np.diff(edges)[:, :, None, None]
    shape = (cutoffs.n_scales, n_radial, len(pts), 2)

    def per_mode(values, tail=()):
        return np.array(np.broadcast_to(values, shape + tail)).reshape(
            (n_modes,) + tail)

    return ModeGrid(
        cutoffs=cutoffs, n_radial=n_radial, knorm=per_mode(r_c),
        k=per_mode(r_c[..., None] * pts[:, None], (3,)),
        khat=per_mode(pts[:, None], (3,)),
        shell=per_mode(np.arange(cutoffs.n_scales)[:, None, None, None]),
        weight=per_mode(w_rad * aw[:, None]), lam=per_mode(np.array([1, 2])),
        eps_vec=per_mode(np.array([polarization_frame(p) for p in pts]),
                         (3,)))


def direction_weights(grid: ModeGrid, grad_energy: np.ndarray) -> np.ndarray:
    """Per-mode dispersion factors 1 - khat . grad_energy.

    Positive for every mode as long as |grad_energy| < 1; the Weyl
    displacement amplitudes and the displaced-frame number operator both
    divide by these factors.
    """
    g = np.asarray(grad_energy, dtype=float)
    return 1.0 - grid.khat @ g
