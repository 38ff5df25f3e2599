import numpy as np
import pytest
import scipy.linalg as sla

from conftest import custom_grid
from fqed.bogoliubov import (combined_displacement, displaced_momentum_ops,
                             displacement_coeffs, displacement_generator,
                             weyl_apply, weyl_vacuum_expectation)
from fqed.fock import enumerate_basis
from fqed.hamiltonian import FiberFamily, ModelParams, _field_momentum
from fqed.modes import ParameterError


def inverse(f):
    """The inverse displacement: negated amplitudes, generator exactly -G."""
    return -f


def test_zero_gradient_zero_field(small_setup):
    params, grid, basis = small_setup
    field = displacement_coeffs(np.zeros(3), grid, range(2), params.alpha)
    assert np.linalg.norm(field) == 0.0


def test_transversality_zeros(small_setup):
    # modes whose wave direction is parallel to the gradient cannot couple
    params, grid, basis = small_setup
    g = np.array([0.2, 0.0, 0.0])
    field = displacement_coeffs(g, grid, range(2), params.alpha)
    along = np.abs(np.abs(grid.khat[:, 0]) - 1.0) < 1e-12
    assert np.all(field[along] == 0.0)
    assert np.linalg.norm(field) > 0.0


def test_all_axis_grid_gives_zero_field():
    grid = custom_grid([[0.5, 0.0, 0.0], [-0.4, 0.0, 0.0]], [0.1, 0.1],
                       [0, 0])
    field = displacement_coeffs(np.array([0.3, 0.0, 0.0]), grid, [0], 0.01)
    assert np.linalg.norm(field) == 0.0


def test_amplitude_formula_and_dispersion_amplification():
    # one mode at khat = z with polarization x; gradient in the x-z plane
    grid = custom_grid([[0.0, 0.0, 0.5]], [0.2], [0],
                       eps_list=[[1.0, 0.0, 0.0]])
    alpha = 0.01
    for gx, gz in ((0.1, 0.0), (0.1, 0.5), (0.1, -0.5)):
        g = np.array([gx, 0.0, gz])
        f = displacement_coeffs(g, grid, [0], alpha)[0]
        delta = 1.0 - gz
        expected = np.sqrt(alpha * 0.2) * gx / (0.5 ** 1.5 * delta)
        assert f == pytest.approx(expected, rel=1e-14)
    # amplification between aligned and orthogonal directions is 1/delta
    f_par = displacement_coeffs(np.array([0.1, 0, 0.5]), grid, [0],
                                alpha)[0]
    f_perp = displacement_coeffs(np.array([0.1, 0, 0.0]), grid, [0],
                                 alpha)[0]
    assert f_par / f_perp == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-14)


def test_gradient_norm_guard(small_setup):
    params, grid, basis = small_setup
    with pytest.raises(ParameterError):
        displacement_coeffs(np.array([1.0, 0.0, 0.0]), grid, range(2),
                            params.alpha)


def test_weyl_zero_field_identity(small_setup):
    params, grid, basis = small_setup
    field = displacement_coeffs(np.zeros(3), grid, range(2), params.alpha)
    v = np.sin(np.arange(basis.size) + 1.0)
    out, defect = weyl_apply(field, basis, v)
    assert np.array_equal(out, v)
    assert defect == 0.0


def test_weyl_coherent_amplitude_ratio():
    grid = custom_grid([[0.0, 0.0, 0.5]], [0.2], [0])
    basis = enumerate_basis(1, 8, 8)
    f = 0.2
    out, _ = weyl_apply(np.array([f]), basis, basis.vacuum())
    assert out[1] / out[0] == pytest.approx(f, abs=1e-12)
    # truncated-coherent-state shape down the ladder
    assert out[2] / out[0] == pytest.approx(f ** 2 / np.sqrt(2.0),
                                            abs=1e-12)


def test_weyl_round_trip(small_setup):
    params, grid, basis = small_setup
    g = np.array([0.25, 0.0, 0.1])
    field = displacement_coeffs(g, grid, range(2), 0.05)
    v = np.cos(np.arange(basis.size) * 0.7)
    fwd, d1 = weyl_apply(field, basis, v)
    back, d2 = weyl_apply(inverse(field), basis, fwd)
    assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)
    assert abs(d1) < 1e-12 and abs(d2) < 1e-12


def test_weyl_matches_dense_expm_oracle(tiny_setup):
    params, grid, basis = tiny_setup
    g = np.array([0.15, 0.05, 0.0])
    field = displacement_coeffs(g, grid, range(1), params.alpha)
    gen = displacement_generator(field, basis).tocsr().toarray()
    v = np.sin(np.arange(basis.size) * 0.3 + 0.1)
    expected = sla.expm(gen) @ v
    out, _ = weyl_apply(field, basis, v)
    assert np.linalg.norm(out - expected) < 1e-12


@pytest.mark.parametrize("g", [[0.15, 0.05, 0.0], [0.3, 0.0, 0.0],
                               [0.0, 0.0, 0.0]])
def test_one_norm_is_scipys_bit_for_bit(small_setup, g):
    # the Taylor step count reads the 1-norm, so the transport is the same
    # bits as with scipy's sparse norm
    from scipy.sparse.linalg import norm

    from fqed.bogoliubov import _one_norm

    params, grid, basis = small_setup
    field = displacement_coeffs(np.array(g), grid, range(2), params.alpha)
    gen = displacement_generator(field, basis)
    want = norm(gen.tocsr(), 1)
    assert np.float64(_one_norm(gen)).tobytes() == np.float64(want).tobytes()


def test_weyl_transport_is_orthogonal(small_setup):
    params, grid, basis = small_setup
    field = displacement_coeffs(np.array([0.3, 0, 0]), grid, range(2), 0.05)
    v = np.sin(np.arange(basis.size))
    out, defect = weyl_apply(field, basis, v)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12


def test_combined_displacement_composition(small_setup):
    params, grid, basis = small_setup
    g_old = np.array([0.1, 0.0, 0.0])
    g_new = np.array([0.12, 0.03, 0.0])
    v = np.cos(np.arange(basis.size) * 0.2)
    f_old = displacement_coeffs(g_old, grid, range(2), params.alpha)
    f_new = displacement_coeffs(g_new, grid, range(2), params.alpha)
    bridge = combined_displacement(g_new, g_old, grid, range(2),
                                   params.alpha)
    assert np.allclose(bridge, f_new - f_old, atol=1e-18)
    undone, _ = weyl_apply(inverse(f_old), basis, v)
    redone, _ = weyl_apply(f_new, basis, undone)
    direct, _ = weyl_apply(bridge, basis, v)
    # generators commute mode-wise only in the untruncated algebra, so the
    # two-step composition differs from the single bridge by a product of
    # the two field strengths on the cap boundary
    fmax = np.abs(f_old).max() * np.abs(f_new).max()
    assert np.linalg.norm(redone - direct) < \
        100.0 * fmax * np.linalg.norm(v)
    # on a vacuum-dominated state (the cascade's regime) the agreement is
    # far tighter
    vac_state = basis.vacuum() + 0.02 * v / np.linalg.norm(v)
    undone, _ = weyl_apply(inverse(f_old), basis, vac_state)
    redone, _ = weyl_apply(f_new, basis, undone)
    direct, _ = weyl_apply(bridge, basis, vac_state)
    assert np.linalg.norm(redone - direct) < 5e-7


def test_pi_reduces_to_field_momentum_at_zero_gradient(small_setup):
    # the oracle's Pi(0) is the ladder algebra's beta, and the frame of the
    # zero gradient has the family's own factors
    params, grid, basis = small_setup
    family = FiberFamily(params, grid, basis, 2)
    pi = displaced_momentum_ops(family, np.zeros(3))
    beta = _field_momentum(params, grid, basis, 2)
    for i in range(3):
        assert abs(pi[i] - beta[i]).max() == 0.0
    frame = family.frame(np.zeros(3))
    assert abs(frame.stacked.tocsr()
               - family.factors.stacked.tocsr()).max() == 0.0


def test_pi_oracle_does_not_read_the_factors(small_setup):
    # the oracle is built from the ladder algebra, so it cannot follow a
    # change to the factors it is compared with
    params, grid, basis = small_setup
    g = np.array([0.1, 0.05, 0.0])
    family = FiberFamily(params, grid, basis, 2)
    family.factors.stacked.data *= 2.0
    pi = displaced_momentum_ops(family, g)
    want = displaced_momentum_ops(FiberFamily(params, grid, basis, 2), g)
    for got, ref in zip(pi, want):
        assert abs(got - ref).max() == 0.0


def test_pi_vacuum_expectation_vanishes(small_setup):
    params, grid, basis = small_setup
    pi = displaced_momentum_ops(FiberFamily(params, grid, basis, 2),
                                np.array([0.1, 0.05, 0.0]))
    v = basis.vacuum()
    for i in range(3):
        assert abs(v @ (pi[i] @ v)) < 1e-14


def test_pi_matches_numerical_conjugation_oracle(tiny_setup):
    # closed-form shift algebra against dense W beta W^T conjugation
    params, grid, basis = tiny_setup
    g = np.array([0.12, 0.0, 0.04])
    field = displacement_coeffs(g, grid, range(1), params.alpha)
    w = sla.expm(displacement_generator(field, basis).tocsr().toarray())
    beta = _field_momentum(params, grid, basis, 1)
    pi = displaced_momentum_ops(FiberFamily(params, grid, basis, 1), g)
    vac = basis.vacuum()
    fmax = np.abs(field).max()
    one_photon = basis.totals == 1
    for i in range(3):
        conj = w @ beta[i].toarray() @ w.T
        conj -= (vac @ conj @ vac) * np.eye(basis.size)
        diff = np.abs(conj - pi[i].toarray())
        # the ladder-shift identity fails only through cap-saturated
        # states, at first order in the field strength
        assert diff.max() < 3.0 * fmax * max(1.0, np.abs(conj).max())
        # the uncapped vacuum/one-photon block agrees to third order
        assert diff[one_photon, 0].max() < 100.0 * fmax ** 3


def test_center_operators_examples(small_setup, monkeypatch):
    # the centering returns Gamma phi = Pi phi - shift phi as arrays from
    # the frame's one product Pi phi and builds no sparse matrix: no
    # identity, no Pi - shift I
    import scipy.sparse._base as sparse_base

    params, grid, basis = small_setup
    g = np.array([0.08, 0.0, 0.0])
    frame0 = FiberFamily(params, grid, basis, 0).frame(params.p_total)
    frame = FiberFamily(params, grid, basis, 2).frame(g)
    pi = displaced_momentum_ops(FiberFamily(params, grid, basis, 2), g)
    built = []
    init = sparse_base._spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse_base._spbase, "__init__", counted)
    vac = basis.vacuum()
    gamma_phi, shift, orth = frame0.center(vac)
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(basis.size)
    gamma_phi2, shift2, orth2 = frame.center(phi)
    assert built == []
    monkeypatch.undo()

    # at scale 0 nothing is displaced: Gamma is the free field momentum
    assert np.allclose(shift, 0.0, atol=1e-15)
    pf = _field_momentum(
        ModelParams(alpha=0.0, epsilon=params.epsilon,
                    n_scales=params.n_scales, p_total=params.p_total),
        grid, basis, 0)
    for out in (gamma_phi, shift, orth, gamma_phi2, shift2, orth2):
        assert type(out) is np.ndarray
    assert gamma_phi.shape == gamma_phi2.shape == (3, basis.size)
    for i in range(3):
        assert np.array_equal(gamma_phi[i], pf[i] @ vac)

    # elsewhere it is the dense Gamma = Pi - shift I applied to phi, and
    # orth is read through it: zero to rounding
    eye = np.eye(basis.size)
    for i in range(3):
        assert shift2[i] == pytest.approx(
            phi @ pi[i].toarray() @ phi / (phi @ phi), rel=1e-12)
        dense = (pi[i].toarray() - shift2[i] * eye) @ phi
        assert np.max(np.abs(gamma_phi2[i] - dense)) <= 1e-12
        assert orth2[i] == (phi @ gamma_phi2[i]) / (phi @ phi)
        assert abs(orth2[i]) < 1e-12


def test_center_operators_rejects_zero_vector(small_setup):
    params, grid, basis = small_setup
    with pytest.raises(ParameterError):
        FiberFamily(params, grid, basis, 2).frame(np.zeros(3)).center(
            np.zeros(basis.size))


def test_weyl_vacuum_expectation_closed_form(small_setup):
    params, grid, basis = small_setup
    g = np.array([0.1, 0.02, 0.0])
    expect = weyl_vacuum_expectation(params, grid, range(2), g)
    f = displacement_coeffs(g, grid, range(2), params.alpha)
    coup = np.sqrt(grid.weight / grid.knorm)
    manual = np.array([
        np.sum(grid.k[:, i] * f ** 2)
        + 2.0 * np.sqrt(params.alpha)
        * np.sum(coup * grid.eps_vec[:, i] * f) for i in range(3)])
    assert np.allclose(expect, manual, atol=1e-18)
    # direct dense oracle on the tiny basis
    field = displacement_coeffs(g, grid, range(2), params.alpha)
    w = sla.expm(displacement_generator(field, basis).tocsr().toarray())
    beta = _field_momentum(params, grid, basis, 2)
    vac = basis.vacuum()
    dense = np.array([vac @ (w @ beta[i].toarray() @ w.T) @ vac
                      for i in range(3)])
    assert np.allclose(expect, dense, atol=1e-4)
