import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from fqed.bogoliubov import displaced_momentum_ops, weyl_vacuum_expectation
from fqed.cascade import (CascadeError, convergence_report, read_vector_file,
                          run_cascade, trace_csv, validate_params,
                          write_vector_file)
from fqed.hamiltonian import (FiberFamily, ModelParams,
                              assemble_displaced_hamiltonian,
                              assemble_intermediate_hamiltonian,
                              delta_k_interaction)
from fqed.modes import ParameterError
from fqed.observables import displaced_frame_ground
from fqed.spectral import Contour, contour_project


def box(**kw):
    base = dict(alpha=1e-3, epsilon=0.25, mu=0.2, rho_minus=0.16,
                rho_plus=0.4, c_alpha=0.35, ir_floor_c=10.0,
                p_total=[0.1, 0.0, 0.0], n_scales=2)
    base.update(kw)
    return ModelParams(**base)


def test_validate_flags_triple_product():
    params = box(epsilon=0.2, rho_minus=0.1, alpha=1e-4)
    report = validate_params(params)
    names = [c.name for c in report.checks]
    assert not report.passed
    failing = report.first_failure()
    assert failing.name == "triple product"
    assert names.index("triple product") == 3
    # every other constraint passes: 0.1<0.2<0.4<0.65, 0.2<0.25, 0.2>0.1
    assert sum(not c.passed for c in report.checks) == 1


def test_validate_passes_with_smaller_ratio():
    params = box(epsilon=0.15, rho_minus=0.1, alpha=1e-4)
    report = validate_params(params)
    assert report.passed


def test_validate_flags_ratio_window():
    params = box(epsilon=0.6)
    report = validate_params(params)
    assert not report.passed
    assert report.first_failure().name == "scale-ratio window"


def test_validate_momentum_ball():
    report = validate_params(box(alpha=1e-4, p_total=[0.4, 0.0, 0.0]))
    assert not report.passed
    assert report.first_failure().name == "momentum ball"


def test_cascade_refuses_invalid_params(small_setup):
    _, grid, basis = small_setup
    params = box(epsilon=0.25, rho_minus=0.1)   # triple product fails
    with pytest.raises(ParameterError):
        run_cascade(params, grid, basis)
    state = run_cascade(params, grid, basis, allow_invalid=True)
    assert len(state.records) == 3


def test_free_theory_cascade(small_setup):
    _, grid, basis = small_setup
    params = box(alpha=0.0, p_total=[0.2, 0.0, 0.0])
    state = run_cascade(params, grid, basis)
    for rec in state.records:
        assert rec.energy == pytest.approx(0.02, abs=1e-12)
        assert np.allclose(rec.grad_energy, [0.2, 0, 0], atol=1e-12)
        assert rec.phi_norm == pytest.approx(1.0, abs=1e-12)
    for rec in state.records[1:]:
        assert rec.step_norm <= 1e-12
        assert abs(rec.energy_shift) <= 1e-14


@pytest.fixture(scope="module")
def cascade_state(small_setup):
    params, grid, basis = small_setup
    return params, grid, basis, run_cascade(params, grid, basis)


def test_cascade_centering_holds_at_every_scale(cascade_state):
    _, _, _, state = cascade_state
    for rec in state.records:
        assert np.max(np.abs(rec.gamma_orth)) <= 1e-10


def test_cascade_measures_centering_through_gamma(cascade_state):
    # the recorded centering is <phi, Gamma phi> / <phi, phi> read through
    # the vector Gamma phi = Pi phi - shift phi, so it shows the rounding of
    # the centering instead of the exact zero of <phi, Pi phi>/n - shift
    params, grid, basis, state = cascade_state
    measured = []
    for rec in state.records:
        pi = displaced_momentum_ops(FiberFamily(params, grid, basis, rec.j),
                                    rec.grad_energy)
        phi = rec.phi
        nrm2 = float(phi @ phi)
        orth = [float(phi @ (pi[i] @ phi - rec.gamma_shift[i] * phi)) / nrm2
                for i in range(3)]
        assert np.array_equal(rec.gamma_orth, orth)
        measured += orth
    assert np.any(np.array(measured) != 0.0)


def test_cascade_norm_lower_bound(cascade_state):
    _, _, _, state = cascade_state
    for rec in state.records:
        assert rec.phi_norm ** 2 > 2.0 / 3.0
        assert rec.phi_norm <= 1.0 + 1e-12


def test_cascade_energy_agrees_across_frames(cascade_state):
    # the displaced frame's ground energy tracks the bare frame's within
    # occupation-cap truncation
    params, grid, basis, state = cascade_state
    for rec in state.records[1:]:
        frame = displaced_frame_ground(
            FiberFamily(params, grid, basis, rec.j), rec)
        assert abs(frame.energy - rec.energy) < 1e-6


def test_cascade_monotone_energy_and_gradient_bound(cascade_state):
    _, _, _, state = cascade_state
    energies = [r.energy for r in state.records]
    assert all(e2 >= e1 - 1e-12 for e1, e2 in zip(energies, energies[1:]))
    for rec in state.records:
        assert np.linalg.norm(rec.grad_energy) < 1.0


def test_cascade_shift_matches_closed_chain(cascade_state):
    # measured centering scalar agrees with P - gradE - <W beta W*>_vac up
    # to transport truncation
    params, grid, basis, state = cascade_state
    for rec in state.records[1:]:
        chain = params.p_total - rec.grad_energy - weyl_vacuum_expectation(
            params, grid, range(rec.j), rec.grad_energy)
        assert np.max(np.abs(rec.gamma_shift - chain)) < 1e-6


def test_cascade_projector_diagnostics(cascade_state):
    _, _, _, state = cascade_state
    for rec in state.records[1:]:
        assert rec.projector_defect <= 1e-8
        assert rec.projector_nodes >= 64
        assert abs(rec.weyl_defect) <= 1e-9


def test_displaced_projection_paths_agree(small_setup):
    # series around the previous frame operator vs direct projection with
    # the bridged operator
    params, grid, basis = small_setup
    params = dataclasses.replace(params, alpha=5e-3)
    state = run_cascade(params, grid, basis)
    rec = state.records[1]
    k_prev, off_prev = assemble_displaced_hamiltonian(
        params, grid, basis, 1, rec.grad_energy, rec.gamma_shift)
    k_hat, off_hat = assemble_intermediate_hamiltonian(
        FiberFamily(params, grid, basis, 2), rec.grad_energy,
        rec.gamma_shift)
    contour = Contour(rec.energy, params.mu * params.cutoffs.sigma(2), 64)
    pi = displaced_momentum_ops(FiberFamily(params, grid, basis, 1),
                                rec.grad_energy)
    eye = sp.identity(basis.size, format="csr")
    gam = [pi[i] - rec.gamma_shift[i] * eye for i in range(3)]
    dk = delta_k_interaction(params, grid, basis, 2, gam, rec.grad_energy)
    # entrywise bridge identity ties the two operators together
    assert abs(k_hat.tocsr() - (k_prev + dk + (off_hat - off_prev) * eye)
               ).max() < 1e-12
    from fqed.spectral import neumann_project
    series, norms = neumann_project(k_prev, dk, contour, rec.phi,
                                    n_terms=4)
    direct = contour_project(k_prev + dk, contour, rec.phi)
    assert np.linalg.norm(series - direct) <= 1e-6
    assert norms[3] / norms[2] < 0.5


def test_convergence_report_fields(cascade_state):
    params, _, _, _ = cascade_state
    params3 = dataclasses.replace(params, n_scales=3, epsilon=0.25)
    from fqed.fock import enumerate_basis
    from fqed.modes import build_grid
    grid = build_grid(params3.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    state = run_cascade(params3, grid, basis, allow_invalid=True)
    rep = convergence_report(state)
    assert rep.step_exponent > 0.0
    assert len(rep.scales) == 3
    # shifts decay between the quadratic and linear envelopes of the
    # running cutoff
    ratios = rep.energy_ratio[1:]
    eps = params3.epsilon
    assert np.all(ratios > eps ** 2 / 3.0)
    assert np.all(ratios < 3.0 * eps)
    assert "step-norm decay exponent" in rep.table()


def test_convergence_report_free_theory():
    params = box(alpha=0.0, n_scales=3)
    from fqed.fock import enumerate_basis
    from fqed.modes import build_grid
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    state = run_cascade(params, grid, basis, allow_invalid=True)
    rep = convergence_report(state)
    assert rep.step_exponent == np.inf


def test_convergence_report_needs_three_scales(small_setup):
    params, grid, basis = small_setup
    params1 = dataclasses.replace(params, n_scales=1)
    state = run_cascade(params1, grid, basis)
    with pytest.raises(ParameterError):
        convergence_report(state)


def test_trace_csv_shape_and_determinism(cascade_state):
    params, grid, basis, state = cascade_state
    text = trace_csv(state)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(state.records)
    assert lines[0].startswith("j,sigma,E,")
    state2 = run_cascade(params, grid, basis)
    assert trace_csv(state2) == text


def test_vector_sidecar_roundtrip(tmp_path):
    vec = np.sin(np.arange(37) * 0.1)
    path = tmp_path / "phi.fqed"
    write_vector_file(path, vec)
    data = path.read_bytes()
    assert data[:4] == b"FQED"
    back = read_vector_file(path)
    assert np.array_equal(back, vec)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.fqed"
        bad.write_bytes(b"NOPE" + data[4:])
        read_vector_file(bad)


def test_cascade_refuses_degenerate_ground_state(small_setup, monkeypatch):
    import fqed.cascade as cascade

    sector_ground = cascade.sector_ground

    def closed_gap(*args, **kwargs):
        energy, vec, _ = sector_ground(*args, **kwargs)
        return energy, vec, 0.0

    monkeypatch.setattr(cascade, "sector_ground", closed_gap)
    params, grid, basis = small_setup
    with pytest.raises(CascadeError,
                       match="scale 0: degenerate ground state, gap 0.0"):
        run_cascade(params, grid, basis)


def test_cascade_stops_at_first_level_on_empty_enclosure(tiny_setup,
                                                         monkeypatch):
    # the tiny box's step contour encloses none of the running vector's
    # spectrum: re-projection keeps 2e-4 of Pv, which more nodes cannot
    # change, so the cascade stops after the first node level
    import fqed.spectral as spectral

    params, grid, basis = tiny_setup
    calls = []
    project = spectral.contour_project

    def counted(op, contour, v):
        calls.append(contour.nodes)
        return project(op, contour, v)

    monkeypatch.setattr(spectral, "contour_project", counted)
    with pytest.raises(CascadeError, match="encloses none"):
        run_cascade(params, grid, basis, allow_invalid=True)
    assert calls == [64, 64]


def test_cascade_chains_its_ground_state_solves(small_setup, monkeypatch):
    # past scale 0's one-state sector every solve is a Davidson solve: scale
    # j's next-sector solve starts from its psi, and scale j + 1's sector
    # solve from that solve's vector; no cold solve runs after the first
    import scipy.sparse.linalg

    import fqed.cascade as cascade
    import fqed.spectral as spectral

    params, grid, basis = small_setup
    solves, methods, dense = [], [], []
    sector_ground, ground_state = cascade.sector_ground, cascade.ground_state
    to_dense = spectral._dense

    def recorded(params, grid, basis, j, **kwargs):
        out = sector_ground(params, grid, basis, j, **kwargs)
        solves.append((j, kwargs.get("start"), out[1]))
        return out

    def method(op, **kwargs):
        rec = ground_state(op, **kwargs)
        methods.append((op.shape[0], kwargs.get("start") is not None,
                        rec.method))
        return rec

    def no_eigsh(*args, **kwargs):
        raise AssertionError("cold ARPACK solve in the cascade")

    def counted(op, *args, **kwargs):
        dense.append(op.shape[0])
        return to_dense(op, *args, **kwargs)

    monkeypatch.setattr(cascade, "sector_ground", recorded)
    monkeypatch.setattr(cascade, "ground_state", method)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_eigsh)
    # every dense solve, production or oracle, makes the operator dense
    monkeypatch.setattr(spectral, "_dense", counted)
    state = run_cascade(params, grid, basis)

    assert [j for j, _, _ in solves] == [0, 1, 1, 2, 2]
    assert methods == [(1, False, "dense"), (91, True, "davidson"),
                       (91, True, "davidson"), (325, True, "davidson"),
                       (325, True, "davidson")]
    assert dense == [1]
    assert solves[0][1] is None
    for rec, (_, start, _) in zip(state.records, solves[1::2]):
        assert start is rec.psi
    for (_, _, vec), (_, start, _) in zip(solves[1::2], solves[2::2]):
        assert start is vec


@pytest.fixture(scope="module")
def desk_box():
    """demos/desk.cfg's box: J=3, 36 modes, caps 2/2, dim 703."""
    from fqed.fock import enumerate_basis
    from fqed.modes import build_grid

    params = box(epsilon=0.3, mu=0.15, rho_minus=0.14, rho_plus=0.16,
                 ir_floor_c=2.5, n_scales=3)
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    return params, grid, enumerate_basis(grid.n_modes, 2, 2)


@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 5e-3])
@pytest.mark.parametrize("px", [0.05, 0.2])
def test_warm_cascade_matches_cold_sector_solves(desk_box, alpha, px):
    # the rows where an unguarded Davidson once missed a degenerate second
    # level: every warm energy and gap equals a cold 3-pair solve
    from fqed.cascade import sector_ground

    params, grid, basis = desk_box
    params = dataclasses.replace(params, alpha=alpha,
                                 p_total=np.array([px, 0.0, 0.0]))
    for rec in run_cascade(params, grid, basis).records:
        h = FiberFamily(params, grid, basis, rec.j).h(params.p_total)
        energy, _, gap = sector_ground(params, grid, basis, rec.j, h_op=h)
        gap_next = sector_ground(params, grid, basis, rec.j + 1,
                                 h_op=h)[2] if rec.j < params.n_scales \
            else np.nan
        np.testing.assert_allclose(
            [rec.energy, rec.gap_sector, rec.gap_next_sector],
            [energy, gap, gap_next], rtol=0, atol=1e-12)
