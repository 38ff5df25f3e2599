import dataclasses
import functools

import numpy as np
import pytest

from conftest import custom_grid
from fqed.cascade import (cascade_scales, open_cascade, run_cascade,
                          sector_ground)
from fqed.fock import creation_sum, enumerate_basis, ladder
from fqed.bogoliubov import displaced_momentum_ops
from fqed.hamiltonian import (FiberFamily, ModelParams,
                              assemble_displaced_hamiltonian,
                              assemble_h_fiber, slice_marginal_coeffs)
from fqed.modes import ParameterError, build_grid
from fqed.observables import (cross_term_probe, dispersion_curvature_direct,
                              dispersion_curvature_displaced,
                              dispersion_curvature_fd, displaced_frame_ground,
                              energy_gradient_fd, energy_lipschitz_probe,
                              mass_scan, momentum_axis, pull_through_summary,
                              resolvent_bound_probes, scale_routes, scan_csv,
                              soft_photon_probe)
from fqed.spectral import ResolventSolver, dense_spectrum, ground_state


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
    grad = FiberFamily(params, grid, basis, 2).gradient(psi, params.p_total)
    assert np.allclose(grad, [0.2, 0.0, 0.0], atol=1e-14)


def test_gradient_fd_richardson_ratio():
    # halving the step shrinks the finite-difference defect fourfold
    for alpha, p in ((1e-3, 0.1), (5e-3, 0.2)):
        params, grid, basis = make_box(alpha, [p, 0.0, 0.0])
        family = FiberFamily(params, grid, basis, 2)
        rec = run_cascade(params, grid, basis).records[2]
        fh = rec.grad_energy
        d_coarse = np.linalg.norm(energy_gradient_fd(family, rec, 2e-3) - fh)
        d_fine = np.linalg.norm(energy_gradient_fd(family, rec, 1e-3) - fh)
        assert 3.5 < d_coarse / d_fine < 4.5


def test_gradient_norm_below_one_on_box():
    params, grid, basis = make_box(5e-3, [0.2, 0.0, 0.0])
    _, psi, _ = sector_ground(params, grid, basis, 2)
    grad = FiberFamily(params, grid, basis, 2).gradient(psi, params.p_total)
    assert np.linalg.norm(grad) < 1.0


def test_curvature_free_theory_all_routes():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    rec = run_cascade(params, grid, basis).records[2]
    d2_fd, d2_h, d2_k, d2_kr, _ = scale_routes(
        FiberFamily(params, grid, basis, 2), rec)
    for val in (d2_fd, d2_h, d2_k, d2_kr):
        assert abs(val - 1.0) <= 1e-10


def test_curvature_scale0_is_unity():
    params, grid, basis = make_box(5e-3, [0.2, 0.0, 0.0])
    family = FiberFamily(params, grid, basis, 0)
    rec = run_cascade(params, grid, basis).records[0]
    d2_h = dispersion_curvature_direct(family, rec)
    assert abs(d2_h - 1.0) <= 1e-10
    frame = displaced_frame_ground(family, rec)
    d2_k, d2_kr, _ = dispersion_curvature_displaced(frame)
    assert abs(d2_k - 1.0) <= 1e-10
    assert abs(d2_kr - 1.0) <= 1e-10


@pytest.fixture(scope="module")
def coupled_frame():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    family = FiberFamily(params, grid, basis, 2)
    rec = run_cascade(params, grid, basis).records[2]
    return family, rec, displaced_frame_ground(family, rec)


def test_three_route_agreement(coupled_frame):
    family, rec, frame = coupled_frame
    d2_h = dispersion_curvature_direct(family, rec)
    d2_k, d2_kr, _ = dispersion_curvature_displaced(frame)
    d2_fd = dispersion_curvature_fd(family, rec)
    assert abs(d2_h - d2_k) <= 1e-5
    assert abs(d2_h - d2_fd) <= 1e-4
    assert abs(d2_k - d2_kr) <= 1e-8   # the single-resolvent reduction


def test_frame_self_consistency(coupled_frame):
    family, rec, frame = coupled_frame
    assert np.max(np.abs(frame.orth)) < 1e-13
    assert abs(frame.energy - rec.energy) < 1e-6


def test_cross_term_probe_vanishes(coupled_frame):
    family, rec, frame = coupled_frame
    value = cross_term_probe(frame)
    assert value <= 1e-8


def test_displaced_route_rejects_broken_centering(coupled_frame):
    family, rec, frame = coupled_frame
    broken = dataclasses.replace(frame, orth=np.array([1e-3, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        dispersion_curvature_displaced(broken)


def test_mass_scan_free_row():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    rows = mass_scan(params, grid, basis, [0.0], [[0.1, 0.0, 0.0]])
    assert len(rows) == 3
    for row in rows:
        assert row.error == ""
        assert row.m_r == pytest.approx(1.0, abs=1e-10)
        assert row.energy == pytest.approx(0.005, abs=1e-12)
    text = scan_csv(rows)
    assert text.splitlines()[0].startswith("alpha,j,sigma,Px")


def test_mass_scan_deviation_grows_with_coupling():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    rows = mass_scan(params, grid, basis, [1e-4, 1e-3], [[0.1, 0.0, 0.0]])
    rows = [r for r in rows if r.j == 2]
    devs = [abs(r.m_r - 1.0) for r in rows]
    assert devs[1] > devs[0] > 0.0
    for r in rows:
        assert r.delta_hk <= 1e-5
        assert r.delta_hf <= 1e-4


def test_mass_scan_builds_one_family_per_record(tiny_setup, family_builds):
    # the three routes and the FD gradient share the family the cascade
    # step built
    params, grid, basis = tiny_setup
    rows = mass_scan(params, grid, basis, [1e-3], [params.p_total])
    assert [(r.j, r.error) for r in rows] == [(0, ""), (1, "")]
    assert family_builds == [0, 1]


def test_mass_scan_drops_the_rows_of_a_job_whose_cascade_fails(
        monkeypatch):
    # demo 03's box: the second job's first Weyl transport, at scale 1,
    # loses norm after its scale 0's routes have run; the job gives only
    # its error row
    import fqed.cascade as cascade

    transport, calls = cascade.weyl_apply, []

    def lossy(f, basis, v):
        calls.append(len(f))
        if len(calls) == 3:   # a J = 2 job transports at scales 1 and 2
            raise ArithmeticError("Weyl transport lost norm 1.000e-03")
        return transport(f, basis, v)

    monkeypatch.setattr(cascade, "weyl_apply", lossy)
    params = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                         rho_plus=0.16, p_total=[0.1, 0.0, 0.0], n_scales=2)
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    rows = mass_scan(params, grid, basis, [1e-3, 5e-3], [params.p_total])
    assert [(r.alpha, r.j) for r in rows] \
        == [(1e-3, 0), (1e-3, 1), (1e-3, 2), (5e-3, -1)]
    assert [r.error for r in rows[:3]] == ["", "", ""]
    assert rows[3].error == "scale 1: Weyl transport lost norm 1.000e-03"
    assert len(calls) == 3


def test_handed_off_family_carries_no_cascade_state(tiny_setup):
    # the routes and the FD gradient read the cascade's family bit for bit
    # as they read a fresh one
    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=1e-3)
    state = open_cascade(params, grid, basis)
    for family, rec in cascade_scales(state):
        fresh = FiberFamily(params, grid, basis, rec.j)
        assert scale_routes(family, rec) == scale_routes(fresh, rec)
        assert np.array_equal(energy_gradient_fd(family, rec),
                              energy_gradient_fd(fresh, rec))
    assert [rec.j for rec in state.records] == [0, 1]


@pytest.mark.parametrize("route", [
    energy_gradient_fd, dispersion_curvature_fd, dispersion_curvature_direct,
    displaced_frame_ground, scale_routes, soft_photon_probe,
    pull_through_summary, energy_lipschitz_probe, resolvent_bound_probes,
], ids=lambda route: route.__name__)
def test_scale_functions_reject_another_scales_family(tiny_record, route):
    params, grid, basis, rec = tiny_record
    with pytest.raises(ParameterError,
                       match="scale 0 given for the record of scale 1"):
        route(FiberFamily(params, grid, basis, 0), rec)


def test_mass_scan_starts_every_observable_solve(tiny_setup, monkeypatch):
    # every ground state a route or the FD gradient solves starts from the
    # cascade's vectors
    import fqed.observables as observables

    starts = []
    sector_ground_ = observables.sector_ground

    def counted(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return sector_ground_(*args, **kwargs)

    monkeypatch.setattr(observables, "sector_ground", counted)
    params, grid, basis = tiny_setup
    rows = mass_scan(params, grid, basis, [1e-3], [params.p_total])
    assert [(r.j, r.error) for r in rows] == [(0, ""), (1, "")]
    assert starts and all(start is not None for start in starts)


def test_mass_scan_annotates_failed_rows():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    bad = dataclasses.replace(params, ir_floor_c=1e4)
    rows = mass_scan(bad, grid, basis, [1e-3], [[0.1, 0.0, 0.0]])
    assert len(rows) == 1
    assert "infrared floor" in rows[0].error


def test_soft_photon_free_theory():
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    rec = run_cascade(params, grid, basis).records[2]
    rep = soft_photon_probe(FiberFamily(params, grid, basis, 2), rec)
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
    rec = run_cascade(params, grid, basis, allow_invalid=True).records[1]
    rep = soft_photon_probe(FiberFamily(params, grid, basis, 1),
                            dataclasses.replace(rec, psi=vecs[:, 0]))
    coupling = np.sqrt(alpha * 0.3 / 0.5)
    first_order = coupling * 0.2 / (vals[1] - vals[0])
    assert rep.b_norm[0] == pytest.approx(first_order, rel=2e-2)


def test_soft_photon_stability_across_scales():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0], n_scales=3,
                                   eps=0.3)
    state = run_cascade(params, grid, basis, allow_invalid=True)
    consts = []
    for rec in state.records[1:]:
        rep = soft_photon_probe(FiberFamily(params, grid, basis, rec.j), rec)
        consts.append(rep.empirical_c)
    assert max(consts) / min(consts) <= 2.0


def test_pull_through_free_theory():
    # both sides vanish on every mode; a nonzero right-hand side against
    # b_m psi = 0 would read inf
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0])
    rec = run_cascade(params, grid, basis).records[1]
    agg, per_mode = pull_through_summary(FiberFamily(params, grid, basis, 1),
                                         rec)
    assert len(per_mode) == np.count_nonzero(grid.shell < 1)
    assert agg == 0.0 and np.all(per_mode == 0.0)


def test_pull_through_zero_coupling_reads_zero_for_a_lanczos_state():
    # a Lanczos ground state of the free box carries photon components at
    # rounding level against a right-hand side that is exactly 0
    params, grid, basis = make_box(0.0, [0.1, 0.0, 0.0], n_scales=1)
    family = FiberFamily(params, grid, basis, 1)
    idx = basis.sector_indices(grid, 1)
    pair = ground_state(family.h(params.p_total).sector(idx),
                        dense_cutoff=10)
    assert pair.method == "lanczos"
    psi = np.zeros(basis.size)
    psi[idx] = pair.vector
    rec = run_cascade(params, grid, basis).records[1]
    agg, per_mode = pull_through_summary(
        family, dataclasses.replace(rec, psi=psi, energy=pair.energy))
    assert agg == 0.0 and np.all(per_mode == 0.0)


def test_pull_through_residual_shrinks_with_caps():
    aggregates = {}
    for n_max in (2, 3):
        params, grid, basis = make_box(5e-3, [0.1, 0.0, 0.0], n_scales=1,
                                       n_max=n_max)
        rec = run_cascade(params, grid, basis).records[1]
        agg, per_mode = pull_through_summary(
            FiberFamily(params, grid, basis, 1), rec)
        aggregates[n_max] = agg
        assert np.all(per_mode[np.isfinite(per_mode)] >= 0.0)
    assert aggregates[3] < aggregates[2]
    assert aggregates[3] <= 0.05


def test_energy_slope_free_theory_analytic():
    params, grid, basis = make_box(0.0, [0.33, 0.0, 0.0], n_scales=2,
                                   eps=0.3)
    rec = run_cascade(params, grid, basis, allow_invalid=True).records[2]
    c_emp, table = energy_lipschitz_probe(FiberFamily(params, grid, basis, 2),
                                          rec)
    # on-grid analytic value of the free dispersion slope
    p = params.p_total
    expected = max((p @ p / 2 - (p - grid.k[m]) @ (p - grid.k[m]) / 2)
                   / grid.knorm[m] for m in range(grid.n_modes))
    assert c_emp == pytest.approx(expected, abs=1e-10)
    assert c_emp <= 1.0 / 3.0 + 1e-10


def test_bounds_probe_reports():
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0])
    state = run_cascade(params, grid, basis)
    rec0, rec1 = state.records[:2]
    # j = 0 observable annihilates the vacuum: trivially fulfilled, the
    # ratios are vacuous there
    assert all(np.isnan(c) for c in resolvent_bound_probes(
        FiberFamily(params, grid, basis, 0), rec0))
    consts = resolvent_bound_probes(FiberFamily(params, grid, basis, 1), rec1)
    assert all(np.isfinite(c) and c >= 1.0 - 1e-12 for c in consts)
    with pytest.raises(ParameterError):
        resolvent_bound_probes(FiberFamily(params, grid, basis, 0), rec1)


def dense_centering(pi, phi):
    """(shift, Gamma) with Gamma = Pi - shift I as dense matrices: the
    centering built as operators, independent of the library's vectors."""
    shift = np.array([phi @ (p @ phi) for p in pi]) / (phi @ phi)
    eye = np.eye(len(phi))
    return shift, [p.toarray() - s * eye for p, s in zip(pi, shift)]


def dense_bound_constants(family, rec):
    """(C3, C4, C5) from the full eigendecomposition of K(shift): each sum
    over the eigenpairs with a_n = |<v_n, w>|^2."""
    params = family.params
    axis = momentum_axis(params.p_total)
    shift, gamma = dense_centering(
        displaced_momentum_ops(family, rec.grad_energy), rec.phi)
    vals, vecs = dense_spectrum(assemble_displaced_hamiltonian(
        params, family.grid, family.basis, family.j, rec.grad_energy,
        shift)[0])
    w3 = gamma[axis] @ rec.phi
    lam_coeff = slice_marginal_coeffs(params, family.grid, rec.j,
                                      rec.grad_energy)
    w4 = creation_sum(family.basis, lam_coeff[axis]) @ w3
    radius = params.mu * params.cutoffs.sigma(rec.j + 1)
    points = [rec.energy + radius * np.exp(1j * angle)
              for angle in (0.0, 0.5 * np.pi, np.pi)]
    consts = []
    for w, p in ((w3, 1), (w4, 1), (w3, 2)):
        a = (vecs.T @ w) ** 2
        consts.append(max(np.sum(a / np.abs(vals - z) ** p)
                          / abs(np.sum(a / (vals - z) ** p)) for z in points))
    return consts


def test_bounds_probe_matches_the_dense_oracle():
    # the Gauss rule of each vector's Lanczos space integrates the same
    # spectral sums as the full eigendecomposition
    params, grid, basis = make_box(1e-3, [0.1, 0.0, 0.0], n_scales=3)
    state = run_cascade(params, grid, basis)
    rec0 = state.records[0]
    assert all(np.isnan(c) for c in resolvent_bound_probes(
        FiberFamily(params, grid, basis, 0), rec0))
    for rec in state.records[1:-1]:
        family = FiberFamily(params, grid, basis, rec.j)
        assert resolvent_bound_probes(family, rec) == pytest.approx(
            dense_bound_constants(family, rec), rel=1e-12, abs=0)


def test_rotation_spot_check():
    # coordinate permutations map the octahedral grid onto itself, so the
    # ground energy only depends on |P| along mapped directions
    params, grid, basis = make_box(2e-3, [0.15, 0.0, 0.0])
    energies = []
    for p in ([0.15, 0.0, 0.0], [0.0, 0.15, 0.0], [0.0, 0.0, 0.15]):
        e, _, _ = sector_ground(params, grid, basis, 2, p=np.array(p))
        energies.append(e)
    assert max(energies) - min(energies) < 1e-12


def test_each_route_solves_only_what_it_returns(tiny_record, monkeypatch):
    # 16 nodes: 9 on the upper half circle, all answered by one solve.
    # Each route takes R psi = psi / (E - z), so it starts a Lanczos space
    # only for its target and solves once for all nodes; the direct route
    # reads its sandwich from coefficient 0 of the target's Lanczos space,
    # and the displaced route lifts its integral once for the cross term.
    import fqed.observables as observables

    params, grid, basis, rec = tiny_record
    monkeypatch.setattr(observables, "ROUTE_NODES", 16)
    family = FiberFamily(params, grid, basis, 1)
    frame = displaced_frame_ground(family, rec)
    calls = []
    moves = []

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(self, *args):
            if name == "solve":
                calls.append(np.shape(args[0]))
            else:
                moves.append(name)
            return method(self, *args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("solve", "__init__", "lift"):
        counted(ResolventSolver, name)
    routes = {
        "direct": lambda: dispersion_curvature_direct(family, rec),
        "displaced": lambda: dispersion_curvature_displaced(frame),
        "cross": lambda: cross_term_probe(frame),
    }
    counts = {}
    applications = {}
    for name, route in routes.items():
        calls.clear()
        moves.clear()
        route()
        counts[name] = list(calls)
        applications[name] = sorted(moves)
    # one solve per route, of all 9 nodes
    assert counts == {"direct": [(9,)], "displaced": [(9,)], "cross": [(9,)]}
    assert applications == {"direct": ["__init__"],
                            "displaced": ["__init__", "lift"],
                            "cross": ["__init__", "lift"]}


def test_cross_term_probe_reads_an_off_eigenvector_phi(tiny_record):
    # the probe sees how far phi is from the frame's eigenvector: the route
    # takes R phi = phi / (E - z), but its <R Gamma R phi, phi> term reads
    # the lifted integral against phi itself, so moved off the eigenvector
    # by 1e-3 the probe reads far above a06's 1e-8
    params, grid, basis, rec = tiny_record
    frame = displaced_frame_ground(FiberFamily(params, grid, basis, 1), rec)
    exact = cross_term_probe(frame)
    rng = np.random.default_rng(3)
    kick = rng.standard_normal(len(frame.phi))
    kick -= frame.phi * (frame.phi @ kick) / (frame.phi @ frame.phi)
    kick *= 1e-3 * np.linalg.norm(frame.phi) / np.linalg.norm(kick)
    moved = dataclasses.replace(frame, phi=frame.phi + kick)
    off = cross_term_probe(moved)
    assert exact <= 1e-8
    assert off >= 1e-6


@pytest.mark.parametrize("cutoff", [600, 10], ids=["dense", "lanczos"])
def test_warm_polished_frame_keeps_its_gap_and_centering(small_setup,
                                                         monkeypatch,
                                                         cutoff):
    # the polish ends on a one-pair solve, which gives the frame its
    # energy: the dense sector ground energy of its K; the gap the route
    # contour reads is the record's sector gap
    import fqed.cascade as cascade

    monkeypatch.setattr(cascade, "ground_state",
                        functools.partial(ground_state, dense_cutoff=cutoff))
    params, grid, basis = small_setup
    rec = run_cascade(params, grid, basis).records[-1]
    frame = displaced_frame_ground(FiberFamily(params, grid, basis, rec.j),
                                   rec)
    idx = basis.sector_indices(grid, rec.j)
    vals, _ = dense_spectrum(frame.k_op.sector(idx))
    assert np.isfinite(frame.gap) and frame.gap == rec.gap_sector
    assert abs(frame.energy - vals[0]) <= 1e-12
    assert float(np.max(np.abs(frame.orth))) <= 1e-10


def test_only_scale_0_sectors_assemble_their_operator(small_setup,
                                                     monkeypatch):
    # the cascade and every route apply H(P) and K(gamma) from their
    # factors: even the dense cold solves of scale 0's one-state sector
    # apply the operator, and no product form is assembled
    from fqed import hamiltonian

    shapes = []
    tocsr = hamiltonian.FactorOp.tocsr

    def counted(op):
        shapes.append(op.shape)
        return tocsr(op)

    monkeypatch.setattr(hamiltonian.FactorOp, "tocsr", counted)
    params, grid, basis = small_setup
    assert len(basis.sector_indices(grid, 0)) == 1
    for family, rec in cascade_scales(open_cascade(params, grid, basis)):
        scale_routes(family, rec)
        energy_gradient_fd(family, rec)
    assert shapes == []


def test_frame_polish_takes_only_started_one_pair_solves(small_setup,
                                                         monkeypatch):
    # every solve of the polish is a one-pair solve started from the
    # previous vector, the first from the record's phi
    import fqed.observables as observables

    params, grid, basis = small_setup
    rec = run_cascade(params, grid, basis).records[-1]
    calls = []
    sector_ground_ = observables.sector_ground

    def counted(*args, **kwargs):
        out = sector_ground_(*args, **kwargs)
        calls.append((kwargs["pairs"], kwargs["start"], out[1]))
        return out

    monkeypatch.setattr(observables, "sector_ground", counted)
    frame = displaced_frame_ground(FiberFamily(params, grid, basis, rec.j),
                                   rec)
    assert 1 <= len(calls) <= 5
    assert all(pairs == 1 for pairs, _, _ in calls)
    starts = [start for _, start, _ in calls]
    assert starts[0] is rec.phi
    assert all(start is prev for start, (_, _, prev)
               in zip(starts[1:], calls))
    assert frame.phi is calls[-1][2]


def test_fd_curvature_takes_its_center_from_the_cascade(small_setup,
                                                        monkeypatch):
    # the cascade energy is the stencil's center, so only the four
    # off-center points are solved, each started from the cascade's psi
    import fqed.observables as observables

    params, grid, basis = small_setup
    rec = run_cascade(params, grid, basis).records[-1]
    calls = []
    sector_ground_ = observables.sector_ground

    def counted(*args, **kwargs):
        calls.append((tuple(kwargs["p"]), kwargs["start"]))
        return sector_ground_(*args, **kwargs)

    monkeypatch.setattr(observables, "sector_ground", counted)
    dispersion_curvature_fd(FiberFamily(params, grid, basis, rec.j), rec)
    assert len(calls) == 4
    assert tuple(params.p_total) not in [p for p, _ in calls]
    assert all(start is rec.psi for _, start in calls)


def test_pull_through_one_solver_per_photon_momentum(tiny_record,
                                                     monkeypatch):
    # the two polarizations of each k share one H(P - k) operator, and each
    # per-mode residual matches an independent dense solve of
    # (H(P - k) + |k| - E) x = (eps_m . dH/dP) psi, with H(P - k) in product
    # form and dH/dP its central difference at unit step (exact, since H is
    # quadratic in P)
    params, grid, basis, rec = tiny_record
    energy, psi = rec.energy, rec.psi
    built = []
    h = FiberFamily.h

    def counted(self, p):
        built.append(tuple(params.p_total - p))
        return h(self, p)

    monkeypatch.setattr(FiberFamily, "h", counted)
    _, per_mode = pull_through_summary(FiberFamily(params, grid, basis, 1),
                                       rec)
    active = np.nonzero(grid.shell < 1)[0]
    momenta = {tuple(grid.k[m]) for m in active}
    assert len(built) == len(set(built)) == len(momenta) == len(active) // 2
    assert all(np.allclose(k, grid.k[m]) for k, m in zip(built, active[::2]))
    p = params.p_total
    dh_psi = [(assemble_h_fiber(params, grid, basis, 1, p=p + e)
               - assemble_h_fiber(params, grid, basis, 1, p=p - e)) @ psi / 2
              for e in np.eye(3)]
    for i, m in enumerate(active):
        knorm = grid.knorm[m]
        h = assemble_h_fiber(params, grid, basis, 1, p=p - grid.k[m])
        x = np.linalg.solve(h.toarray() + (knorm - energy) * np.eye(len(psi)),
                            grid.eps_vec[m] @ dh_psi)
        rhs = -np.sqrt(params.alpha * grid.weight[m] / knorm) * x
        lhs = ladder(basis, int(m))[0] @ psi
        expected = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        assert per_mode[i] == pytest.approx(expected, rel=1e-12)


def test_pull_through_work_is_a_few_products_per_mode(tiny_record,
                                                     monkeypatch):
    # each mode is one preconditioned CG solve at a shift below the
    # spectrum, a handful of operator products (8 per mode here); a
    # Lanczos space per mode would take several times that
    from fqed.hamiltonian import FactorOp

    params, grid, basis, rec = tiny_record
    columns = []
    matmul = FactorOp.__matmul__

    def counted(self, x):
        columns.append(1 if np.ndim(x) == 1 else np.shape(x)[1])
        return matmul(self, x)

    monkeypatch.setattr(FactorOp, "__matmul__", counted)
    _, per_mode = pull_through_summary(FiberFamily(params, grid, basis, 1),
                                       rec)
    assert len(per_mode) == 12
    assert sum(columns) <= 12 * len(per_mode)


def dense_displaced_route(frame):
    """The displaced route's (double form, reduced form, cross term) with
    both resolvents applied as dense solves at every node and Gamma built
    as a dense matrix, assuming nothing of phi."""
    import fqed.observables as observables

    params = frame.family.params
    axis = momentum_axis(params.p_total)
    phi = frame.phi / np.linalg.norm(frame.phi)
    _, gammas = dense_centering(
        displaced_momentum_ops(frame.family, frame.grad_energy), phi)
    gamma = gammas[axis]
    target = gamma @ phi
    energy = frame.energy
    # the product-form oracle of the frame operator, at the shift of k_op
    k = assemble_displaced_hamiltonian(
        params, frame.family.grid, frame.family.basis, frame.family.j,
        frame.grad_energy, frame.k_op.c)[0].toarray()

    def node(z):
        # g = R Gamma phi, a = R phi, y = R Gamma a; R is complex symmetric,
        # so <R^2 phi, phi> = a.a and <R^2 phi, Gamma phi> = g.a
        shifted = k - z * np.eye(len(phi))
        g, a = np.linalg.solve(shifted, np.stack([target, phi], axis=1)).T
        y = np.linalg.solve(shifted, gamma @ a)
        return [*y, (target @ g) / (energy - z), a @ a, g @ a]

    contour = observables._route_contour(params, frame.family.j, energy,
                                         frame.gap)
    # solved node by node, stacked one column per node
    integral = contour.integrate(
        np.array([node(z) for z in contour.upper]).T)
    acc, (reduced, aa, ga) = integral[:-3], integral[-3:]
    s = float(frame.grad_energy[axis])
    cross = s ** 2 * aa.real - s * ga.real - s * np.real(acc @ phi)
    return (1.0 - 2.0 * float(np.real(acc.conj() @ target)),
            1.0 - 2.0 * float(reduced.real), float(abs(2.0 * cross)))


def test_displaced_route_builds_one_krylov_space(tiny_record, monkeypatch):
    # the route starts a space only for Gamma phi and reads its cross term
    # from the same integral: one Lanczos space per call, and the same three
    # values as the dense double resolvent
    params, grid, basis, rec = tiny_record
    frame = displaced_frame_ground(FiberFamily(params, grid, basis, 1), rec)
    dense = dense_displaced_route(frame)
    spaces = []
    init = ResolventSolver.__init__

    def counted(self, op, b):
        spaces.append(len(b))
        init(self, op, b)

    monkeypatch.setattr(ResolventSolver, "__init__", counted)
    d2_k, d2_kr, cross = dispersion_curvature_displaced(frame)
    assert spaces == [basis.size]
    assert cross <= 1e-8 and dense[2] <= 1e-8
    assert abs(d2_k - dense[0]) <= 1e-8 and abs(d2_kr - dense[1]) <= 1e-8
