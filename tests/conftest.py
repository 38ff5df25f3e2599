import dataclasses

import numpy as np
import pytest

from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams
from fqed.modes import CutoffSequence, ModeGrid, build_grid, \
    polarization_frame


def custom_grid(k_list, weights, shells, lams=None, eps_list=None,
                cutoffs=None):
    """Hand-built mode grid for oracle tests (one entry per mode)."""
    k = np.array(k_list, dtype=float)
    knorm = np.linalg.norm(k, axis=1)
    khat = k / knorm[:, None]
    n = len(k)
    if eps_list is None:
        eps_list = [polarization_frame(khat[m])[0] for m in range(n)]
    if lams is None:
        lams = [1] * n
    if cutoffs is None:
        cutoffs = CutoffSequence(1.0, 0.25, max(shells) + 1)
    return ModeGrid(
        cutoffs=cutoffs, n_radial=1, angular_set="custom",
        k=k, knorm=knorm, khat=khat,
        shell=np.array(shells, dtype=int), weight=np.array(weights),
        lam=np.array(lams, dtype=int), eps_vec=np.array(eps_list))


@pytest.fixture
def family_builds(monkeypatch):
    """Scales of the ``FiberFamily`` instances built during the test."""
    builds = []
    init = FiberFamily.__init__

    def counted(self, params, grid, basis, j):
        builds.append(j)
        init(self, params, grid, basis, j)

    monkeypatch.setattr(FiberFamily, "__init__", counted)
    return builds


@pytest.fixture(scope="session")
def small_setup():
    """J=2 octahedral grid (24 modes) with the default caps: dim 325."""
    params = ModelParams(alpha=1e-3, epsilon=0.25, mu=0.2, rho_minus=0.16,
                         rho_plus=0.4, n_scales=2, p_total=[0.1, 0.0, 0.0])
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    return params, grid, basis


@pytest.fixture(scope="session")
def tiny_setup():
    """J=1 octahedral grid (12 modes), dim 91; cheap dense oracles."""
    params = ModelParams(alpha=1e-2, epsilon=0.25, mu=0.2, rho_minus=0.16,
                         rho_plus=0.4, n_scales=1, p_total=[0.1, 0.0, 0.0])
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    return params, grid, basis


@pytest.fixture(scope="session")
def tiny_record(tiny_setup):
    """The tiny box at alpha = 1e-3, where its cascade runs (at 1e-2 the
    first step's contour misses the shifted energy), with the record of
    its last scale: (params, grid, basis, record)."""
    from fqed.cascade import run_cascade

    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=1e-3)
    return params, grid, basis, run_cascade(params, grid, basis).records[-1]
