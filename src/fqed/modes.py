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


class ParameterError(ValueError):
    """Invalid model or discretization parameter."""


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
            "available: octahedral6, icosahedral12")
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
    angular_set: str
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
        shells = np.atleast_1d(np.asarray(list(shells), dtype=int)) \
            if not isinstance(shells, np.ndarray) else shells
        return np.isin(self.shell, shells)

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


def build_grid(cutoffs: CutoffSequence, n_radial: int = 1,
               angular_set: str = "octahedral6") -> ModeGrid:
    """Discretize the momentum ball into shell-aligned quadrature modes.

    Each (radial cell x angular point) yields two modes, one per transverse
    polarization.  Weights are radial midpoint-cell weights (r_c**2 * dr)
    times angular weights, so the sum over one shell approximates its volume
    (4*pi/3)(sigma_j**3 - sigma_{j+1}**3) with an error that shrinks as
    ``n_radial`` grows.
    """
    if n_radial < 1:
        raise ParameterError(f"n_radial must be >= 1, got {n_radial}")
    pts, aw = _angular_points(angular_set)

    ks, knorms, khats, shells, weights, lams, epss = [], [], [], [], [], [], []
    for j in range(cutoffs.n_scales):
        hi = cutoffs.sigma(j)
        lo = cutoffs.sigma(j + 1)
        edges = lo * (hi / lo) ** (np.arange(n_radial + 1) / n_radial)
        for i in range(n_radial):
            r_lo, r_hi = edges[i], edges[i + 1]
            r_c = 0.5 * (r_lo + r_hi)
            w_rad = r_c ** 2 * (r_hi - r_lo)
            for q in range(len(pts)):
                khat = pts[q]
                eps1, eps2 = polarization_frame(khat)
                for lam, ev in ((1, eps1), (2, eps2)):
                    ks.append(r_c * khat)
                    knorms.append(r_c)
                    khats.append(khat)
                    shells.append(j)
                    weights.append(w_rad * aw[q])
                    lams.append(lam)
                    epss.append(ev)

    return ModeGrid(
        cutoffs=cutoffs, n_radial=n_radial, angular_set=angular_set,
        k=np.array(ks), knorm=np.array(knorms), khat=np.array(khats),
        shell=np.array(shells, dtype=int), weight=np.array(weights),
        lam=np.array(lams, dtype=int), eps_vec=np.array(epss),
    )


def direction_weights(grid: ModeGrid, grad_energy: np.ndarray) -> np.ndarray:
    """Per-mode dispersion factors 1 - khat . grad_energy.

    Positive for every mode as long as |grad_energy| < 1; the Weyl
    displacement amplitudes and the displaced-frame number operator both
    divide by these factors.
    """
    g = np.asarray(grad_energy, dtype=float)
    return 1.0 - grid.khat @ g
