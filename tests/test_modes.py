import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqed.modes import (ANGULAR_SETS, CutoffSequence, ParameterError,
                        build_grid, direction_weights, polarization_frame)


def test_cutoff_sequence_values():
    cut = CutoffSequence(1.0, 0.25, 3)
    assert cut.sigma(0) == 1.0
    sig = cut.sigmas
    assert np.all(np.diff(sig) < 0)
    ratios = sig[1:] / sig[:-1]
    assert np.allclose(ratios, 0.25, rtol=0, atol=1e-15)


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.7, -0.1])
def test_cutoff_sequence_rejects_bad_ratio(eps):
    with pytest.raises(ParameterError):
        CutoffSequence(1.0, eps, 2)


def test_cutoff_sequence_rejects_bad_scale_count():
    with pytest.raises(ParameterError):
        CutoffSequence(1.0, 0.25, 0)


def test_grid_counts_one_shell():
    cut = CutoffSequence(1.0, 0.25, 1)
    grid = build_grid(cut, 1, "octahedral6")
    assert grid.n_modes == 12
    assert np.all(grid.knorm > 0.25) and np.all(grid.knorm <= 1.0)


def test_grid_counts_two_shells():
    cut = CutoffSequence(1.0, 0.25, 2)
    grid = build_grid(cut, 1, "octahedral6")
    assert grid.n_modes == 24
    assert sorted(set(grid.shell)) == [0, 1]
    assert np.sum(grid.shell == 0) == 12


def test_grid_icosahedral_count():
    cut = CutoffSequence(1.0, 0.25, 1)
    grid = build_grid(cut, 1, "icosahedral12")
    assert grid.n_modes == 24
    # unit directions, transversality
    assert np.allclose(np.linalg.norm(grid.khat, axis=1), 1.0, atol=1e-14)


def test_shell_volume_within_documented_bound():
    cut = CutoffSequence(1.0, 0.25, 2)
    grid = build_grid(cut, 1, "octahedral6")
    exact = 4.0 * np.pi / 3.0 * (1.0 - 0.25 ** 3)
    assert abs(exact - 4.1233) < 1e-3   # the analytic shell volume
    # each helicity carries the full momentum-cell measure, so the
    # volume identity is per polarization
    sel = (grid.shell == 0) & (grid.lam == 1)
    measured = grid.weight[sel].sum()
    # the r^2 integrand has constant curvature, so the midpoint defect
    # saturates the bound exactly; allow rounding headroom only
    assert abs(measured - exact) <= grid.shell_volume_error_bound(0) + 1e-12


def test_shell_volume_error_decreases_with_radial_refinement():
    cut = CutoffSequence(1.0, 0.25, 1)
    exact = 4.0 * np.pi / 3.0 * (1.0 - 0.25 ** 3)
    errs = []
    for n_radial in (1, 2, 4, 8):
        grid = build_grid(cut, n_radial, "octahedral6")
        errs.append(abs(grid.weight[grid.lam == 1].sum() - exact))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_polarization_pole_convention():
    eps1, eps2 = polarization_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(eps1, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(eps2, [0.0, 1.0, 0.0], atol=1e-15)


def test_polarization_x_axis():
    eps1, eps2 = polarization_frame(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(eps1, [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(eps2, [0.0, 0.0, 1.0], atol=1e-15)


def test_polarization_rejects_zero_vector():
    with pytest.raises(ParameterError):
        polarization_frame(np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_polarization_orthonormal_triad(costheta, phi):
    s = np.sqrt(1.0 - costheta ** 2)
    khat = np.array([s * np.cos(phi), s * np.sin(phi), costheta])
    khat /= np.linalg.norm(khat)
    eps1, eps2 = polarization_frame(khat)
    assert abs(eps1 @ khat) < 1e-12
    assert abs(eps2 @ khat) < 1e-12
    assert abs(eps1 @ eps2) < 1e-12
    assert abs(np.linalg.norm(eps1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(eps2) - 1.0) < 1e-12
    assert np.allclose(np.cross(eps1, eps2), khat, atol=1e-12)


def test_grid_transversality_and_unit_norms():
    cut = CutoffSequence(1.0, 0.3, 3)
    for angular in ("octahedral6", "icosahedral12"):
        grid = build_grid(cut, 2, angular)
        dots = np.abs(np.sum(grid.eps_vec * grid.khat, axis=1))
        assert dots.max() < 1e-12
        norms = np.linalg.norm(grid.eps_vec, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        # the two modes at one spatial point carry orthogonal polarizations
        for m in range(0, grid.n_modes, 2):
            assert abs(grid.eps_vec[m] @ grid.eps_vec[m + 1]) < 1e-12


def test_grid_determinism_bitwise():
    cut = CutoffSequence(1.0, 0.3, 2)
    g1 = build_grid(cut, 2, "icosahedral12")
    g2 = build_grid(cut, 2, "icosahedral12")
    for name in ("k", "knorm", "khat", "shell", "weight", "lam", "eps_vec"):
        a, b = getattr(g1, name), getattr(g2, name)
        assert a.tobytes() == b.tobytes()


def test_grid_mode_ordering_and_masks():
    cut = CutoffSequence(1.0, 0.25, 2)
    grid = build_grid(cut, 1, "octahedral6")
    assert np.all(np.diff(grid.shell) >= 0)
    assert grid.active_mask(0).sum() == 0
    assert grid.active_mask(1).sum() == 12
    assert grid.shell_mask([1]).sum() == 12


@pytest.mark.parametrize("n_radial", [1, 2, 3])
@pytest.mark.parametrize("angular_set", ANGULAR_SETS)
def test_polarizations_of_one_momentum_are_adjacent_modes(angular_set,
                                                          n_radial):
    # the probes group modes by photon momentum as the pairs (2i, 2i + 1):
    # polarizations 1 and 2 of one k, bit for bit, and no other pair has it
    grid = build_grid(CutoffSequence(1.0, 0.25, 3), n_radial, angular_set)
    first, second = np.arange(grid.n_modes).reshape(-1, 2).T
    assert np.all(grid.lam[first] == 1) and np.all(grid.lam[second] == 2)
    assert grid.k[first].tobytes() == grid.k[second].tobytes()
    assert len(np.unique(grid.k[first], axis=0)) == len(first)


def test_grid_csv_dump():
    cut = CutoffSequence(1.0, 0.25, 1)
    grid = build_grid(cut, 1, "octahedral6")
    text = grid.dump_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "index,j,kx,ky,kz,knorm,weight,lambda,ex,ey,ez"
    assert len(lines) == 1 + grid.n_modes
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    assert float(cells[5]) == grid.knorm[0]


def test_unknown_angular_set_rejected():
    cut = CutoffSequence(1.0, 0.25, 1)
    with pytest.raises(ParameterError):
        build_grid(cut, 1, "nope")


def test_direction_weights_example():
    cut = CutoffSequence(1.0, 0.25, 1)
    grid = build_grid(cut, 1, "octahedral6")
    delta = direction_weights(grid, np.array([0.1, 0.0, 0.0]))
    xplus = np.nonzero(grid.khat[:, 0] > 0.99)[0]
    assert np.allclose(delta[xplus], 0.9, atol=1e-15)
    g = np.array([0.2, 0.1, 0.0])
    delta = direction_weights(grid, g)
    bound = np.linalg.norm(g)
    assert np.all(delta >= 1.0 - bound - 1e-15)
    assert np.all(delta <= 1.0 + bound + 1e-15)
