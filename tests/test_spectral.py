import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import custom_grid
from fqed.cascade import sector_ground
from fqed.fock import enumerate_basis, number_diagonal
from fqed.hamiltonian import FiberFamily, ModelParams, assemble_h_fiber, \
    assemble_slice_interaction
from fqed.modes import ParameterError, build_grid
from fqed.spectral import (Contour, ContourError, ResolventSolver,
                           SolverError, contour_project,
                           contour_project_checked, dense_spectrum,
                           ground_state, idempotence_defect, neumann_project,
                           resolvent_sandwich)


def seeded_symmetric(n, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return sp.csr_matrix(scale * (a + a.T) / 2 + shift * np.eye(n))


def full_solve(solver, z, b):
    """(op - z)^{-1} b through b's Lanczos space."""
    space = solver.reduce(b)
    return space.lift(solver.solve(z, space))


def test_contour_invariants():
    with pytest.raises(ParameterError):
        Contour(0.0, -1.0)
    with pytest.raises(ParameterError):
        Contour(0.0, 1.0, nodes=7)
    with pytest.raises(ParameterError):
        Contour(0.0, 1.0, nodes=6)
    c = Contour(1.0, 0.5, nodes=8)
    assert len(c.points) == 8
    assert np.allclose(np.abs(c.points - 1.0), 0.5)


def test_dense_spectrum_field_energies():
    grid = custom_grid([[0.0, 0.0, 0.5], [0.3, 0.0, 0.0]], [0.1, 0.1],
                       [0, 0])
    basis = enumerate_basis(2, 1, 1)
    hf = sp.diags(number_diagonal(basis, grid.knorm))
    vals, _ = dense_spectrum(hf)
    assert np.allclose(sorted(vals), [0.0, 0.3, 0.5], atol=1e-15)


def test_ground_state_identity_degenerate():
    op = sp.identity(40, format="csr")
    rec = ground_state(op)
    assert rec.energy == pytest.approx(1.0, abs=1e-14)
    assert rec.degenerate
    assert rec.gap == pytest.approx(0.0, abs=1e-14)


def test_ground_state_one_state_has_no_gap():
    # a 1 x 1 operator has no second eigenvalue, so no gap to call
    # degenerate
    rec = ground_state(sp.identity(1, format="csr"))
    assert rec.energy == 1.0 and rec.vector.tolist() == [1.0]
    assert np.isnan(rec.gap) and not rec.degenerate


def test_ground_state_free_theory(small_setup):
    params, grid, basis = small_setup
    free = ModelParams(alpha=0.0, epsilon=params.epsilon,
                       n_scales=params.n_scales, p_total=params.p_total)
    h = assemble_h_fiber(free, grid, basis, 2)
    rec = ground_state(h)
    assert rec.energy == pytest.approx(0.005, abs=1e-13)
    assert abs(rec.vector[0]) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_matches_dense_oracle():
    op = seeded_symmetric(900, seed=7, scale=1.0, shift=0.0)
    # separate the lowest eigenvalue so the pair is well conditioned
    d = np.zeros(900)
    d[0] = -2.0
    op = op + sp.diags(d)
    rec = ground_state(op, dense_cutoff=10)    # force the Lanczos path
    assert rec.method == "lanczos"
    vals, vecs = dense_spectrum(op)
    assert abs(rec.energy - vals[0]) < 1e-10
    angle = np.arccos(min(1.0, abs(rec.vector @ vecs[:, 0])))
    assert angle < 1e-8


def test_ground_state_deterministic():
    op = seeded_symmetric(700, seed=3) + sp.diags(np.linspace(0, 2, 700))
    r1 = ground_state(op, dense_cutoff=10)
    r2 = ground_state(op, dense_cutoff=10)
    assert r1.energy == r2.energy
    assert r1.vector.tobytes() == r2.vector.tobytes()


def test_lanczos_restarts_are_seeded():
    # the scale-3 sector of the desk box at P = 0 (703 states, a Lanczos
    # solve) meets a degenerate cluster, where ARPACK restarts from a
    # random vector: the gap must come back bit-identical every time
    params = ModelParams(alpha=1e-4, epsilon=0.3, mu=0.15, rho_minus=0.14,
                         rho_plus=0.16, n_scales=3)
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    h = FiberFamily(params, grid, basis, 3).h(params.p_total)
    assert len(basis.sector_indices(grid, 3)) == basis.size == 703
    recs = [ground_state(h) for _ in range(4)]
    assert all(r.method == "lanczos" for r in recs)
    assert len({r.gap for r in recs}) == 1


def _shifted_sector(small_setup, dp: float):
    """Scale-2 sector of H(P + dp x) on the small box, dim 325, in factor
    form."""
    params, grid, basis = small_setup
    idx = basis.sector_indices(grid, 2)
    h = FiberFamily(params, grid, basis, 2).h(
        params.p_total + np.array([dp, 0.0, 0.0]))
    return h.sector(idx)


@pytest.mark.parametrize("cutoff", [600, 10], ids=["dense", "lanczos"])
def test_one_pair_solve_matches_the_three_pair_energy(small_setup, cutoff):
    # an energy-only solve asks for the lowest pair alone, started from the
    # ground state at a nearby momentum, as the FD stencil does
    start = ground_state(_shifted_sector(small_setup, 0.0)).vector
    op = _shifted_sector(small_setup, 5e-3)
    full = ground_state(op, dense_cutoff=cutoff)
    one = ground_state(op, dense_cutoff=cutoff, pairs=1, start=start)
    assert one.method == "davidson"
    assert abs(one.energy - full.energy) \
        <= 1e-14 * max(1.0, abs(full.energy))
    assert abs(abs(one.vector @ full.vector) - 1.0) < 1e-12
    assert np.isnan(one.gap) and not one.degenerate


def test_started_solves_are_deterministic(small_setup):
    start = ground_state(_shifted_sector(small_setup, 0.0)).vector
    op = _shifted_sector(small_setup, 5e-3)
    r1, r2 = (ground_state(op, dense_cutoff=10, pairs=1, start=start)
              for _ in range(2))
    assert r1.method == "davidson"
    assert r1.energy == r2.energy
    assert r1.vector.tobytes() == r2.vector.tobytes()
    # a two-pair solve started from its own ground vector still finds the
    # second pair: the gap is the dense one
    vals, _ = dense_spectrum(op)
    g1, g2 = (ground_state(op, dense_cutoff=10, pairs=2,
                           start=r1.vector).gap for _ in range(2))
    assert g1 == g2
    assert abs(g1 - (vals[1] - vals[0])) <= 1e-10


def test_started_solve_skips_arpack_and_a_cold_one_keeps_its_seed(
        small_setup, monkeypatch):
    # a started solve refines its start by Davidson, which draws no random
    # numbers; a cold Lanczos solve still hands ARPACK the seeded generator
    import fqed.spectral as spectral

    states = []
    eigsh = spectral.spla.eigsh

    def spy(*args, **kwargs):
        states.append(kwargs["rng"].bit_generator.state)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", spy)
    op = _shifted_sector(small_setup, 5e-3)
    start = np.ones(op.shape[0])
    assert ground_state(op, dense_cutoff=10, pairs=1,
                        start=start).method == "davidson"
    assert states == []
    assert ground_state(op, dense_cutoff=10, pairs=1).method == "lanczos"
    assert states == [np.random.default_rng(0).bit_generator.state]


@pytest.mark.parametrize("pairs", [1, 2])
def test_started_solve_recovers_from_a_start_orthogonal_to_the_ground(
        small_setup, pairs):
    # the dense second eigenvector is an exact eigenvector with no weight on
    # the ground state; the search space must still find the lowest pair
    op = _shifted_sector(small_setup, 5e-3)
    vals, vecs = dense_spectrum(op)
    rec = ground_state(op, pairs=pairs, start=vecs[:, 1])
    assert rec.method == "davidson"
    assert abs(rec.energy - vals[0]) <= 1e-14 * max(1.0, abs(vals[0]))
    assert abs(abs(rec.vector @ vecs[:, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("j", [1, 2])
def test_started_two_pair_solve_finds_a_degenerate_second_level(small_setup,
                                                                 j):
    # with P along x the +-y and +-z soft-photon states are degenerate, and
    # a start with the ground state's symmetry has no weight on half of
    # them: the gap must still be the dense one
    params, grid, basis = small_setup
    idx = basis.sector_indices(grid, j)
    op = FiberFamily(params, grid, basis, j).h(params.p_total).sector(idx)
    vals, _ = dense_spectrum(op)
    assert vals[2] - vals[1] < 1e-12 < vals[1] - vals[0]
    start = ground_state(op).vector
    rec = ground_state(op, pairs=2, start=start)
    assert rec.method == "davidson"
    assert abs(rec.gap - (vals[1] - vals[0])) <= 1e-10


def test_davidson_thick_restart_keeps_the_lowest_pairs(small_setup,
                                                      monkeypatch):
    # a search space capped at 8 columns restarts every few steps from its
    # lowest Ritz vectors and still converges to the dense pairs
    import fqed.spectral as spectral

    op = _shifted_sector(small_setup, 5e-3)
    vals, vecs = dense_spectrum(op)
    monkeypatch.setattr(spectral, "DAVIDSON_MAX_DIM", 8)
    rec = ground_state(op, pairs=2, start=np.ones(op.shape[0]))
    assert abs(rec.energy - vals[0]) <= 1e-14 * max(1.0, abs(vals[0]))
    assert abs(rec.gap - (vals[1] - vals[0])) <= 1e-10
    assert abs(abs(rec.vector @ vecs[:, 0]) - 1.0) <= 1e-12


def test_davidson_iteration_cap_raises_with_the_residual(small_setup,
                                                         monkeypatch):
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "DAVIDSON_MAX_ITER", 1)
    op = _shifted_sector(small_setup, 5e-3)
    with pytest.raises(SolverError, match=r"Davidson stopped at residual "
                                          r"\d\.\d{3}e-\d+") as exc:
        ground_state(op, pairs=1, start=np.ones(op.shape[0]))
    assert exc.value.best_residual > 1e-13
    assert str(exc.value).endswith("after 1 iterations")


@pytest.mark.parametrize("n", [1, 2, 7, 44, 45, 62])
def test_davidson_eigen_step_equals_scipy_eigh(n):
    # the Rayleigh-Ritz step calls dsyevr with the workspace eigh passes,
    # so its pairs are eigh's bit for bit (other sizes differ from 45 on)
    from scipy.linalg import eigh

    import fqed.spectral as spectral

    a = seeded_symmetric(n, seed=n).toarray()
    w, v = spectral._eigh(a.copy())
    w_ref, v_ref = eigh(a)
    assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    a[0, 0] = np.nan
    with pytest.raises(SolverError, match="not finite"):
        spectral._eigh(a)


class _Unconvertible(sp.csr_matrix):
    """A sparse matrix that refuses to be converted."""

    def tocsr(self, copy=False):
        raise AssertionError("sparse operator converted to CSR")

    def toarray(self, order=None, out=None):
        raise AssertionError("sparse operator converted to an array")


def test_factored_operator_is_never_assembled(small_setup, monkeypatch):
    # every path applies the operator it is given: the dense one to identity
    # columns, in blocks of 256 (two at dim 325), a started Davidson solve,
    # a cold Lanczos solve and a contour projection; a factored operator is
    # never assembled and a sparse matrix never converted
    import fqed.spectral as spectral
    from fqed.hamiltonian import FactorOp

    factored = _shifted_sector(small_setup, 5e-3)
    ref = factored.tocsr().toarray()
    matrix = _Unconvertible(factored.tocsr())
    monkeypatch.setattr(FactorOp, "tocsr", None)
    vals, vecs = dense_spectrum(ref)
    contour = Contour(vals[0], 0.5 * (vals[1] - vals[0]))
    v = np.ones(len(ref))
    for op in (factored, matrix):
        dense = spectral._dense(op)
        assert np.array_equal(dense, dense.T)
        assert np.max(np.abs(dense - ref)) <= 1e-14
        for rec in (ground_state(op), ground_state(op, dense_cutoff=10),
                    ground_state(op, start=v)):
            assert abs(rec.energy - vals[0]) <= 1e-12
            assert abs(rec.gap - (vals[1] - vals[0])) <= 1e-10
        pv = contour_project(ResolventSolver(op), contour, v)
        assert np.max(np.abs(pv - vecs[:, 0] * (vecs[:, 0] @ v))) <= 1e-10
    # an exactly symmetric matrix applied to identity columns is its array
    assert np.array_equal(spectral._dense(matrix), ref)


def test_dense_size_guard_raises_before_allocating():
    import fqed.spectral as spectral
    from fqed.modes import ResourceError

    limit = spectral.DENSE_LIMIT + 1

    class ShapeOnly:
        shape = (limit, limit)

    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=f"limited to {limit - 1}"):
            dense_spectrum(ShapeOnly())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sector_start_without_sector_weight_is_no_start(small_setup,
                                                        monkeypatch):
    # a start that vanishes on the sector falls back to the deterministic
    # start, bit for bit; the Lanczos branch is the one that reads it
    import fqed.cascade as cascade

    monkeypatch.setattr(cascade, "ground_state",
                        functools.partial(ground_state, dense_cutoff=10))
    params, grid, basis = small_setup
    idx = basis.sector_indices(grid, 1)
    outside = np.ones(basis.size)
    outside[idx] = 0.0
    h = FiberFamily(params, grid, basis, 1).h(params.p_total)
    plain = sector_ground(params, grid, basis, 1, h_op=h, pairs=1)
    started = sector_ground(params, grid, basis, 1, h_op=h, pairs=1,
                            start=outside)
    assert started[0] == plain[0]
    assert started[1].tobytes() == plain[1].tobytes()
    assert np.isnan(started[2])


def _arpack_stops_with(monkeypatch, vals, vecs):
    """Make the Lanczos solver give up with the given partial pairs."""
    import fqed.spectral as spectral

    def stopped(*args, **kwargs):
        raise spectral.spla.ArpackNoConvergence("stopped", vals, vecs)

    monkeypatch.setattr(spectral.spla, "eigsh", stopped)


def test_ground_state_lanczos_no_pairs_raises(monkeypatch):
    op = seeded_symmetric(40, seed=2)
    _arpack_stops_with(monkeypatch, np.zeros(0), np.zeros((40, 0)))
    with pytest.raises(SolverError, match="did not converge"):
        ground_state(op, dense_cutoff=10)


def test_ground_state_lanczos_partial_pair(monkeypatch):
    # one converged pair comes back with an unknown gap; a pair that fails
    # the residual check is refused
    op = seeded_symmetric(40, seed=2)
    vals, vecs = dense_spectrum(op)
    _arpack_stops_with(monkeypatch, vals[:1], vecs[:, :1])
    rec = ground_state(op, dense_cutoff=10)
    assert rec.method == "lanczos"
    assert rec.energy == vals[0]
    assert np.isnan(rec.gap) and not rec.degenerate
    assert rec.residual < 1e-12
    _arpack_stops_with(monkeypatch, vals[:1], vecs[:, 1:2])
    with pytest.raises(SolverError, match="residual") as exc:
        ground_state(op, dense_cutoff=10)
    assert exc.value.best_residual > 1e-3


def test_invariant_krylov_space_solves_a_small_right_hand_side():
    # b is an eigenvector up to a 5e-15 admixture, scaled to norm 1e-3:
    # the space ends as invariant after one step with beta ~ 5e-15, whose
    # shifted residual near the eigenvalue (~5e-13 relative) is rounding,
    # not a failure, however small b is
    import fqed.spectral as spectral

    op = sp.diags([0.0, 1.0, 2.0, 3.0, 4.0]).tocsr()
    b = 1e-3 * (np.eye(5)[1] + 5e-15 * np.eye(5)[3])
    space = ResolventSolver(op).reduce(b)
    z = 1.01
    coeffs = space.solve(z)
    assert space.steps == 1 and space.exhausted
    assert space.beta[0] * abs(coeffs[0]) > spectral.KRYLOV_TOL * space.b0
    x = space.lift(coeffs)
    exact = b / (op.diagonal() - z)
    assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_resolvent_diagonal_oracle():
    d = np.array([0.0, 0.5, 2.0, 5.0])
    op = sp.diags(d).tocsr()
    v = np.array([1.0, 2.0, -1.0, 0.5])
    x = full_solve(ResolventSolver(op), -1.0, v)
    assert np.allclose(x.real, v / (d + 1.0), atol=1e-13)


def test_resolvent_defining_property_and_dense_inverse():
    op = seeded_symmetric(80, seed=11) + sp.diags(np.linspace(0, 3, 80))
    v = np.cos(np.arange(80.0))
    z = 1.5 + 0.25j
    x = full_solve(ResolventSolver(op), z, v)
    assert np.linalg.norm(op @ x - z * x - v) / np.linalg.norm(v) < 1e-10
    dense = np.linalg.solve(op.toarray() - z * np.eye(80), v)
    assert np.linalg.norm(x - dense) / np.linalg.norm(dense) < 1e-10


def test_krylov_path_matches_dense_path():
    op = seeded_symmetric(300, seed=5) + sp.diags(np.linspace(0.0, 4.0, 300))
    v = np.sin(np.arange(300.0))
    z = 0.3 + 0.1j
    dense = np.linalg.solve(op.toarray() - z * np.eye(300), v)
    krylov = full_solve(ResolventSolver(op), z, v)
    assert np.linalg.norm(dense - krylov) / np.linalg.norm(dense) < 1e-8


def test_contour_nodes_converging_at_different_sizes(monkeypatch):
    # with small growth blocks the first node converges in a smaller space
    # than the later ones; its coefficients, zero-padded to the space's
    # largest size, still add exactly in the one integral
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "KRYLOV_BLOCK", 8)
    op = seeded_symmetric(300, seed=5) + sp.diags(np.linspace(0.0, 4.0, 300))
    vals, vecs = dense_spectrum(op)
    contour = Contour(vals[-1], 0.5 * (vals[-1] - vals[-2]))
    v = np.sin(np.arange(300.0))
    sizes = []
    solve = spectral._KrylovSpace.solve

    def counted(self, z):
        out = solve(self, z)
        assert len(out) == self.max_dim and not np.any(out[self.steps:])
        sizes.append(self.steps)
        return out

    monkeypatch.setattr(spectral._KrylovSpace, "solve", counted)
    projected = contour_project(ResolventSolver(op), contour, v)
    exact = vecs[:, -1] * (vecs[:, -1] @ v)
    assert sizes[0] < sizes[-1]
    assert np.linalg.norm(projected - exact) <= 1e-12 * np.linalg.norm(exact)


def test_contour_project_two_level():
    op = sp.diags([0.0, 1.0]).tocsr()
    v = np.array([1.0, 1.0])
    out = contour_project(ResolventSolver(op), Contour(0.0, 0.4, 64), v)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_contour_projector_idempotent_and_matches_dense(small_setup):
    params, grid, basis = small_setup
    h = assemble_h_fiber(params, grid, basis, 2)
    idx = basis.sector_indices(grid, 2)
    sub = h[idx][:, idx]
    vals, vecs = dense_spectrum(sub)
    # cascade-step geometry: circle around the previous-scale energy
    h_prev = assemble_h_fiber(params, grid, basis, 1)[idx][:, idx]
    vals_prev, _ = dense_spectrum(h_prev)
    contour = Contour(vals_prev[0],
                      params.mu * params.cutoffs.sigma(2), 64)
    assert np.sum(np.abs(vals - contour.center) < contour.radius) == 1
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(idx))
    solver = ResolventSolver(sub)
    projected = contour_project(solver, contour, v)
    exact = vecs[:, 0] * (vecs[:, 0] @ v)
    assert np.linalg.norm(projected - exact) <= 1e-8 * np.linalg.norm(v)
    assert idempotence_defect(solver, contour, v) <= 2e-8
    assert v @ projected >= -1e-10


def test_contour_project_checked_doubles_nodes():
    # eigenvalue close to the circle: 8 nodes cannot resolve it, doubling can
    op = sp.diags([0.0, 0.3, 5.0]).tocsr()
    v = np.ones(3)
    contour = Contour(0.0, 0.25, 8)
    out, nodes, defect = contour_project_checked(ResolventSolver(op), contour,
                                                 v, defect_tol=1e-8,
                                                 max_nodes=1024)
    assert nodes > 8
    assert defect <= 1e-8
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-7)


def test_contour_project_checked_raises_on_enclosure_failure():
    op = sp.diags([0.0, 1e-9, 5.0]).tocsr()   # two states inside any circle
    v = np.array([1.0, 1.0, 0.3])
    with pytest.raises(ContourError):
        # projector onto a 2-dim eigenspace is idempotent, so use a circle
        # that CUTS the spectrum instead
        contour_project_checked(ResolventSolver(op),
                                Contour(0.5, 0.5 + 1e-12, 16), v,
                                defect_tol=1e-10, max_nodes=32)


def test_contour_project_checked_stops_on_a_nan_projection(monkeypatch):
    # a NaN defect fails every comparison, so only an explicit finiteness
    # check keeps the node doubling from running to max_nodes
    import fqed.spectral as spectral

    calls = []

    def nan_projection(solver, contour, v):
        calls.append(contour.nodes)
        return np.full(len(v), np.nan)

    monkeypatch.setattr(spectral, "contour_project", nan_projection)
    op = sp.diags([0.0, 0.3, 5.0]).tocsr()
    with pytest.raises(ContourError, match="not finite at 8 nodes"):
        contour_project_checked(ResolventSolver(op), Contour(0.0, 0.25, 8),
                                np.ones(3))
    assert calls == [8, 8]


def test_neumann_zero_perturbation(small_setup):
    params, grid, basis = small_setup
    h = assemble_h_fiber(params, grid, basis, 1)
    idx = basis.sector_indices(grid, 1)
    sub = h[idx][:, idx]
    rec = ground_state(sub)
    contour = Contour(rec.energy, 0.3 * rec.gap, 16)
    v = np.full(len(idx), 1.0 / np.sqrt(len(idx)))
    zero = sp.csr_matrix(sub.shape)
    series, norms = neumann_project(sub, zero, contour, v, n_terms=3)
    direct = contour_project(ResolventSolver(sub), contour, v)
    assert np.linalg.norm(series - direct) < 1e-12
    assert np.all(norms[1:] < 1e-14)


def test_neumann_matches_direct_projection(small_setup):
    params, grid, basis = small_setup
    import dataclasses
    params = dataclasses.replace(params, alpha=5e-3)
    h1 = assemble_h_fiber(params, grid, basis, 1)
    dh = assemble_slice_interaction(params, grid, basis, 1)
    rec1 = ground_state(h1[basis.sector_indices(grid, 1)]
                        [:, basis.sector_indices(grid, 1)])
    contour = Contour(rec1.energy, params.mu * params.cutoffs.sigma(2), 64)
    psi1 = np.zeros(basis.size)
    psi1[basis.sector_indices(grid, 1)] = rec1.vector
    series, norms = neumann_project(h1, dh, contour, psi1, n_terms=4)
    direct = contour_project(ResolventSolver(h1 + dh), contour, psi1)
    assert np.linalg.norm(series - direct) <= 1e-6
    ratios = norms[1:] / norms[:-1]
    assert ratios[2] < 0.5
    # term-size scale: first correction comparable to the perturbation-to-
    # distance quotient (order of magnitude only)
    from scipy.sparse.linalg import norm as spnorm
    bound = spnorm(dh) / (0.2 * params.cutoffs.sigma(2))
    assert norms[1] / norms[0] < 10 * bound


def test_neumann_warns_on_divergence():
    op = sp.diags([0.0, 1.0, 2.0]).tocsr()
    big = sp.diags([0.0, 5.0, -3.0]).tocsr()
    contour = Contour(0.0, 0.4, 16)
    v = np.array([1.0, 0.5, 0.5])
    with pytest.warns(RuntimeWarning):
        neumann_project(op, big, contour, v, n_terms=4)


def test_resolvent_sandwich_spectral_oracle():
    op = seeded_symmetric(60, seed=21) + sp.diags(np.linspace(0, 3, 60))
    vals, vecs = dense_spectrum(op)
    rng = np.random.default_rng(1)
    x_dense = rng.standard_normal((60, 60))
    x_op = sp.csr_matrix((x_dense + x_dense.T) / 2)
    psi = vecs[:, 0]
    contour = Contour(vals[0], 0.4 * (vals[1] - vals[0]), 64)
    s = resolvent_sandwich(ResolventSolver(op), contour, x_op @ psi)
    elements = vecs.T @ (x_op @ psi)
    oracle = np.sum(elements[1:] ** 2 / (vals[1:] - vals[0]))
    assert abs(s - oracle) < 1e-10 * max(1.0, abs(oracle))


@pytest.fixture
def tiny_solver(tiny_setup):
    """H(P) of the tiny box (dim 91) with its solver."""
    params, grid, basis = tiny_setup
    h = assemble_h_fiber(params, grid, basis, 1)
    return h, ResolventSolver(h)


def test_lift_inverts_reduce(tiny_solver):
    # b is ||b|| e1 in its own space, once a solve has built the space
    h, solver = tiny_solver
    b = np.cos(np.arange(h.shape[0]))
    space = solver.reduce(b)
    coeffs = solver.solve(-1.0, space)
    e1 = np.zeros(len(coeffs))
    e1[0] = 1.0
    assert np.max(np.abs(space.lift(space.b0 * e1) - b)) <= 1e-14


def test_krylov_solver_rejects_complex_data(tiny_setup):
    # a Lanczos space is built for one real starting vector
    params, grid, basis = tiny_setup
    solver = ResolventSolver(assemble_h_fiber(params, grid, basis, 1))
    b = np.cos(np.arange(basis.size)) + 1j * np.sin(np.arange(basis.size))
    with pytest.raises(ValueError, match="real vectors only"):
        solver.reduce(b)


def test_reduced_solve_satisfies_the_shifted_equation(tiny_solver):
    h, solver = tiny_solver
    vals, _ = dense_spectrum(h)
    b = np.cos(np.arange(h.shape[0]))
    for z in (vals[0] + 0.3j, 0.5 * (vals[0] + vals[1]),
              vals[0] - 0.1 + 0.05j):
        x = full_solve(solver, z, b)
        assert np.linalg.norm(h @ x - z * x - b) <= 1e-12 * np.linalg.norm(b)


def test_reduced_projector_matches_eigenprojector(tiny_solver):
    h, solver = tiny_solver
    vals, vecs = dense_spectrum(h)
    contour = Contour(vals[0], 0.4 * (vals[1] - vals[0]), 64)
    b = np.cos(np.arange(h.shape[0]))
    projected = contour_project(solver, contour, b)
    exact = vecs[:, 0] * (vecs[:, 0] @ b)
    assert np.linalg.norm(projected - exact) <= 1e-12 * np.linalg.norm(b)
    assert not np.any(contour_project(solver, contour, 0.0 * b))


def test_checked_projection_moves_vectors_once_per_integral(tiny_solver,
                                                            monkeypatch):
    # a projection and its re-projection reduce and lift once each, at any
    # node count
    import fqed.spectral as spectral

    h, solver = tiny_solver
    vals, _ = dense_spectrum(h)
    b = np.cos(np.arange(h.shape[0]))
    moves = []
    for owner, name in ((ResolventSolver, "reduce"),
                        (spectral._KrylovSpace, "lift")):
        method = getattr(owner, name)

        def counted(self, y, _method=method, _name=name):
            moves.append(_name)
            return _method(self, y)
        monkeypatch.setattr(owner, name, counted)
    counts = {}
    for nodes in (16, 64):
        moves.clear()
        contour = Contour(vals[0], 0.1 * (vals[1] - vals[0]), nodes)
        _, used, _ = contour_project_checked(solver, contour, b)
        assert used == nodes
        counts[nodes] = sorted(moves)
    assert counts[16] == counts[64] == ["lift"] * 2 + ["reduce"] * 2
