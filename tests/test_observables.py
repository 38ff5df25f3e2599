import dataclasses

import numpy as np
import pytest

from conftest import custom_grid
from fqed.cascade import SolverOptions, run_cascade, sector_ground
from fqed.fock import enumerate_basis
from fqed.hamiltonian import ModelParams, assemble_h_fiber
from fqed.modes import ParameterError, build_grid
from fqed.observables import (cross_term_probe, dispersion_curvature_direct,
                              dispersion_curvature_displaced,
                              dispersion_curvature_fd, displaced_frame_ground,
                              energy_gradient_fd, energy_gradient_fh,
                              energy_lipschitz_probe, mass_scan,
                              momentum_axis, pull_through_probe,
                              pull_through_summary, resolvent_bound_probes,
                              scan_csv, soft_photon_probe)
from fqed.spectral import ResolventSolver, dense_spectrum


def make_box(alpha, p, n_scales=2, eps=0.25, n_max=2):
    params = ModelParams(alpha=alpha, epsilon=eps, mu=0.2, rho_minus=0.16,
                         rho_plus=0.4, n_scales=n_scales,
                         p_total=np.asarray(p, dtype=float))
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, n_max, n_max)
    return params, grid, basis


def test_momentum_axis():
    assert momentum_axis(np.array([0.0, 0.0, 0.0])) == 0
    assert momentum_axis(np.array([0.0, 0.3, 0.0])) == 1
    with pytest.raises(ParameterError):
        momentum_axis(np.array([0.1, 0.1, 0.0]))


def test_gradient_free_theory():
    params, grid, basis = make_box(0.0, [0.2, 0.0, 0.0])
    e, psi, _ = sector_ground(params, grid, basis, 2)
    grad = energy_gradient_fh(psi, params, grid, basis, 2)
    assert np.allclose(grad, [0.2, 0.0, 0.0], atol=1e-14)


def test_gradient_fd_richardson_ratio():
    # halving the step shrinks the finite-difference defect fourfold
    for alpha, p in ((1e-3, 0.1), (5e-3, 0.2)):
        params, grid, basis = make_box(alpha, [p, 0.0, 0.0])
        e, psi, _ = sector_ground(params, grid, basis, 2)
        fh = energy_gradient_fh(psi, params, grid, basis, 2)
        d_coarse = np.linalg.norm(
            energy_gradient_fd(params, grid, basis, 2, step=2e-3) - fh)
        d_fine = np.linalg.norm(
            energy_gradient_fd(params, grid, basis, 2, step=1e-3) - fh)
        assert 3.5 < d_coarse / d_fine < 4.5


def test_gradient_stale_input_check():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    bad = np.ones(basis.size)
    with pytest.raises(ParameterError):
        energy_gradient_fh(bad, params, grid, basis, 2, residual_tol=1e-8)


def test_gradient_norm_below_one_on_box():
    params, grid, basis = make_box(5e-3, [0.2, 0.0, 0.0])
    _, psi, _ = sector_ground(params, grid, basis, 2)
    grad = energy_gradient_fh(psi, params, grid, basis, 2)
    assert np.linalg.norm(grad) < 1.0


def test_curvature_free_theory_all_routes():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    d2_fd = dispersion_curvature_fd(params, grid, basis, 2)
    d2_h = dispersion_curvature_direct(params, grid, basis, 2)
    frame = displaced_frame_ground(params, grid, basis, 2,
                                   np.array([0.1, 0.0, 0.0]))
    d2_k, d2_kr = dispersion_curvature_displaced(params, grid, basis, 2,
                                                 frame=frame)
    for val in (d2_fd, d2_h, d2_k, d2_kr):
        assert abs(val - 1.0) <= 1e-10


def test_curvature_scale0_is_unity():
    params, grid, basis = make_box(5e-3, [0.2, 0.0, 0.0])
    d2_h = dispersion_curvature_direct(params, grid, basis, 0)
    assert abs(d2_h - 1.0) <= 1e-10
    e, psi, _ = sector_ground(params, grid, basis, 0)
    grad = energy_gradient_fh(psi, params, grid, basis, 0)
    frame = displaced_frame_ground(params, grid, basis, 0, grad)
    d2_k, d2_kr = dispersion_curvature_displaced(params, grid, basis, 0,
                                                 frame=frame)
    assert abs(d2_k - 1.0) <= 1e-10
    assert abs(d2_kr - 1.0) <= 1e-10


@pytest.fixture(scope="module")
def coupled_frame():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    e, psi, gap = sector_ground(params, grid, basis, 2)
    grad = energy_gradient_fh(psi, params, grid, basis, 2)
    frame = displaced_frame_ground(params, grid, basis, 2, grad)
    return params, grid, basis, e, psi, gap, grad, frame


def test_three_route_agreement(coupled_frame):
    params, grid, basis, e, psi, gap, grad, frame = coupled_frame
    d2_h = dispersion_curvature_direct(params, grid, basis, 2, psi=psi,
                                       energy=e, gap=gap)
    d2_k, d2_kr = dispersion_curvature_displaced(params, grid, basis, 2,
                                                 frame=frame)
    d2_fd = dispersion_curvature_fd(params, grid, basis, 2)
    assert abs(d2_h - d2_k) <= 1e-5
    assert abs(d2_h - d2_fd) <= 1e-4
    assert abs(d2_k - d2_kr) <= 1e-8   # the single-resolvent reduction


def test_frame_self_consistency(coupled_frame):
    params, grid, basis, e, psi, gap, grad, frame = coupled_frame
    assert np.max(np.abs(frame.orth)) < 1e-13
    assert abs(frame.energy - e) < 1e-6


def test_cross_term_probe_vanishes(coupled_frame):
    params, grid, basis, e, psi, gap, grad, frame = coupled_frame
    value = cross_term_probe(params, grid, basis, 2, frame, grad[0])
    assert value <= 1e-8


def test_displaced_route_rejects_broken_centering(coupled_frame):
    params, grid, basis, e, psi, gap, grad, frame = coupled_frame
    broken = dataclasses.replace(frame, orth=np.array([1e-3, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        dispersion_curvature_displaced(params, grid, basis, 2, frame=broken)


def test_mass_scan_free_row():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    rows, states = mass_scan(params, grid, basis, [0.0],
                             [[0.1, 0.0, 0.0]], fd_gradient=False)
    assert len(rows) == 3
    for row in rows:
        assert row.error == ""
        assert row.m_r == pytest.approx(1.0, abs=1e-10)
        assert row.energy == pytest.approx(0.005, abs=1e-12)
    text = scan_csv(rows)
    assert text.splitlines()[0].startswith("alpha,j,sigma,Px")


def test_mass_scan_deviation_grows_with_coupling():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    rows, _ = mass_scan(params, grid, basis, [1e-4, 1e-3],
                        [[0.1, 0.0, 0.0]], route_scales=[2],
                        fd_gradient=False)
    devs = [abs(r.m_r - 1.0) for r in rows]
    assert devs[1] > devs[0] > 0.0
    for r in rows:
        assert r.delta_hk <= 1e-5
        assert r.delta_hf <= 1e-4


def test_mass_scan_annotates_failed_rows():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    bad = dataclasses.replace(params, ir_floor_c=1e4)
    rows, _ = mass_scan(bad, grid, basis, [1e-3], [[0.1, 0.0, 0.0]])
    assert len(rows) == 1
    assert "infrared floor" in rows[0].error


def test_soft_photon_free_theory():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    _, psi, _ = sector_ground(params, grid, basis, 2)
    rep = soft_photon_probe(psi, params, grid, basis, 2)
    assert np.all(rep.b_norm == 0.0)
    assert rep.empirical_c == 0.0


def test_soft_photon_single_mode_perturbative_oracle():
    # one mode coupled to the ground state: the annihilation norm matches
    # the first-order amplitude of the dressed state
    alpha = 1e-5
    grid = custom_grid([[0.0, 0.5, 0.0]], [0.3], [0],
                       eps_list=[[1.0, 0.0, 0.0]])
    basis = enumerate_basis(1, 2, 2)
    params = ModelParams(alpha=alpha, epsilon=0.25, n_scales=1,
                         p_total=[0.2, 0.0, 0.0])
    h = assemble_h_fiber(params, grid, basis, 1)
    vals, vecs = dense_spectrum(h)
    psi = vecs[:, 0]
    rep = soft_photon_probe(psi, params, grid, basis, 1)
    coupling = np.sqrt(alpha * 0.3 / 0.5)
    first_order = coupling * 0.2 / (vals[1] - vals[0])
    assert rep.b_norm[0] == pytest.approx(first_order, rel=2e-2)


def test_soft_photon_stability_across_scales():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0], n_scales=3,
                                   eps=0.3)
    state = run_cascade(params, grid, basis,
                        SolverOptions(allow_invalid=True))
    consts = []
    for rec in state.records[1:]:
        rep = soft_photon_probe(rec.psi, params, grid, basis, rec.j)
        consts.append(rep.empirical_c)
    assert max(consts) / min(consts) <= 2.0


def test_pull_through_free_theory():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    e, psi, _ = sector_ground(params, grid, basis, 1)
    assert pull_through_probe(psi, e, params, grid, basis, 1, 0) == 0.0


def test_pull_through_rejects_inactive_mode():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    e, psi, _ = sector_ground(params, grid, basis, 1)
    inactive = int(np.nonzero(grid.shell == 1)[0][0])
    with pytest.raises(ParameterError):
        pull_through_probe(psi, e, params, grid, basis, 1, inactive)


def test_pull_through_residual_shrinks_with_caps():
    aggregates = {}
    for n_max in (2, 3):
        params, grid, basis = make_box(5e-3, [0.1, 0.0, 0.0], n_scales=1,
                                       n_max=n_max)
        agg, per_mode = pull_through_summary(params, grid, basis, 1)
        aggregates[n_max] = agg
        assert np.all(per_mode[np.isfinite(per_mode)] >= 0.0)
    assert aggregates[3] < aggregates[2]
    assert aggregates[3] <= 0.05


def test_energy_slope_free_theory_analytic():
    params, grid, basis = make_box(0.0, [0.33, 0.0, 0.0], n_scales=2,
                                   eps=0.3)
    c_emp, table = energy_lipschitz_probe(params, grid, basis, 2)
    # on-grid analytic value of the free dispersion slope
    p = params.p_total
    expected = max((p @ p / 2 - (p - grid.k[m]) @ (p - grid.k[m]) / 2)
                   / grid.knorm[m] for m in range(grid.n_modes))
    assert c_emp == pytest.approx(expected, abs=1e-10)
    assert c_emp <= 1.0 / 3.0 + 1e-10


def test_bounds_probe_reports():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    state = run_cascade(params, grid, basis)
    rep = resolvent_bound_probes(state)
    assert not rep.skipped
    assert rep.scales == [0, 1]
    # j = 0 observable annihilates the vacuum: trivially fulfilled, the
    # ratios are vacuous there
    assert rep.resolvent_sq_expectation[0] == pytest.approx(0.0, abs=1e-20)
    assert np.isnan(rep.c3[0]) and np.isnan(rep.c5[0])
    for family in (rep.c3, rep.c4, rep.c5):
        finite = [x for x in family if np.isfinite(x)]
        assert finite and all(x >= 1.0 - 1e-12 for x in finite)
    assert "C3" in rep.table()


def test_bounds_probe_skips_above_dense_limit():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    state = run_cascade(params, grid, basis)
    rep = resolvent_bound_probes(state, dense_limit=10)
    assert rep.skipped


def test_rotation_spot_check():
    # coordinate permutations map the octahedral grid onto itself, so the
    # ground energy only depends on |P| along mapped directions
    params, grid, basis = make_box(2e-3, [0.15, 0.0, 0.0])
    energies = []
    for p in ([0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.0, 0.0, 0.15]):
        e, _, _ = sector_ground(params, grid, basis, 2, p=np.array(p))
        energies.append(e)
    assert max(energies) - min(energies) < 1e-12


def test_curvature_momentum_quotients_reported():
    from fqed.observables import curvature_momentum_quotients
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    ps, curvs, quotients = curvature_momentum_quotients(
        params, grid, basis, 2, [0.05, 0.1, 0.15])
    assert len(ps) == 3 and len(quotients) == 2
    assert np.all(np.isfinite(quotients))
    assert np.all(curvs < 1.0)   # coupling softens the dispersion


def test_each_route_solves_only_what_it_returns(tiny_setup, monkeypatch):
    # dense solver, 16 nodes: 9 node evaluations on the upper half circle
    params, grid, basis = tiny_setup
    opts = SolverOptions(route_nodes=16)
    energy, psi, gap = sector_ground(params, grid, basis, 1, opts)
    grad = energy_gradient_fh(psi, params, grid, basis, 1)
    frame = displaced_frame_ground(params, grid, basis, 1, grad, opts)
    calls = []
    solve = ResolventSolver.solve

    def counted(self, z, b):
        calls.append(self.dense)
        return solve(self, z, b)

    monkeypatch.setattr(ResolventSolver, "solve", counted)
    routes = {
        "direct": lambda: dispersion_curvature_direct(
            params, grid, basis, 1, psi=psi, energy=energy, gap=gap,
            opts=opts),
        "displaced": lambda: dispersion_curvature_displaced(
            params, grid, basis, 1, frame=frame, opts=opts),
        "cross": lambda: cross_term_probe(params, grid, basis, 1, frame,
                                          grad[0], opts),
    }
    counts = {}
    for name, route in routes.items():
        calls.clear()
        route()
        assert all(calls)
        counts[name] = len(calls)
    assert counts == {"direct": 18, "displaced": 27, "cross": 27}
