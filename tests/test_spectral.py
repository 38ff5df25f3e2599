import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import custom_grid
from fqed.cascade import sector_ground
from fqed.fock import enumerate_basis, number_diagonal
from fqed.hamiltonian import FiberFamily, ModelParams, \
    assemble_displaced_hamiltonian, assemble_h_fiber, \
    assemble_slice_interaction
from fqed.modes import ParameterError, build_grid
from fqed.spectral import (Contour, ConditioningError, ContourError,
                           ResolventSolver, SolverError, contour_project,
                           contour_project_checked, dense_spectrum,
                           ground_state, idempotence_defect, neumann_project,
                           shifted_solve)


def seeded_symmetric(n, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return sp.csr_matrix(scale * (a + a.T) / 2 + shift * np.eye(n))


def full_solve(op, z, b):
    """(op - z)^{-1} b through b's Lanczos space, lifted as real and
    imaginary parts."""
    space = ResolventSolver(op, b)
    c = space.solve(z)
    return space.lift(c.real) + 1j * space.lift(c.imag)


def test_contour_invariants():
    with pytest.raises(ParameterError):
        Contour(0.0, -1.0)
    with pytest.raises(ParameterError):
        Contour(0.0, 1.0, nodes=7)
    with pytest.raises(ParameterError):
        Contour(0.0, 1.0, nodes=6)
    c = Contour(1.0, 0.5, nodes=8)
    # M/2 + 1 nodes on the upper half circle, counterclockwise from c + r
    # to c - r
    assert len(c.upper) == 5
    assert np.allclose(np.abs(c.upper - 1.0), 0.5)
    assert np.all(c.upper.imag >= 0.0)
    assert np.all(np.diff(np.angle(c.upper - 1.0)) > 0.0)
    assert np.allclose(c.upper[[0, -1]], [1.5, 0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize("nodes", [8, 16, 64])
def test_integrate_matches_the_full_circle_trapezoid_rule(nodes):
    # a conjugate-symmetric f, known on the upper half circle, gives the
    # sum over all M nodes of c_q f(z_q), c_q = -(r/M) exp(i theta_q)
    contour = Contour(0.3, 0.7, nodes)
    levels = np.array([-0.2, 0.1, 0.5, 1.5, 2.0])
    weights = np.linspace(1.0, 2.0, len(levels))

    def f(z):
        return np.array([*(weights / (levels - z)),
                         np.sum(weights / (levels - z) ** 2),
                         z ** 3 - 2.0 * z])

    full = np.zeros(len(levels) + 2, dtype=complex)
    for q in range(nodes):
        phase = np.exp(2j * np.pi * q / nodes)
        full += -(contour.radius / nodes) * phase \
            * f(contour.center + contour.radius * phase)
    half = contour.integrate(
        np.array([f(z) for z in contour.upper]).T)
    assert half.shape == full.shape
    assert np.linalg.norm(half - full) <= 1e-15 * np.linalg.norm(full)


def test_array_solve_matches_scalar_solves_at_its_size():
    # one solve answers every shift at one size; a scalar solve at that
    # size gives the same column
    op = seeded_symmetric(300, seed=5) + sp.diags(np.linspace(0.0, 4.0, 300))
    space = ResolventSolver(op, np.sin(np.arange(300.0)))
    z = Contour(5.0, 0.5, 16).upper.reshape(3, 3)
    block = space.solve(z)
    k = space.steps
    assert block.shape == (k, 3, 3)
    for idx in np.ndindex(z.shape):
        col = space.solve(z[idx])
        assert space.steps == k and col.shape == (k,)
        assert np.linalg.norm(block[(slice(None), *idx)] - col) \
            <= 1e-14 * np.linalg.norm(col)
    # b = 0 answers zeros that read at coefficient 0
    zero = ResolventSolver(op, np.zeros(300)).solve(z)
    assert zero.shape == (1, 3, 3) and not np.any(zero)


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
    assert rec.gap < 1e-12
    assert rec.gap == pytest.approx(0.0, abs=1e-14)


def test_ground_state_one_state_has_no_gap():
    # a 1 x 1 operator has no second eigenvalue, so no gap
    rec = ground_state(sp.identity(1, format="csr"))
    assert rec.energy == 1.0 and rec.vector.tolist() == [1.0]
    assert np.isnan(rec.gap) and not rec.gap < 1e-12


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
    assert np.isnan(one.gap) and not one.gap < 1e-12


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
    import scipy.sparse.linalg

    states = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        states.append(kwargs["rng"].bit_generator.state)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
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


@pytest.mark.parametrize("start", [1.0, -2.5, 3e-7])
@pytest.mark.parametrize("pairs", [1, 3])
def test_one_state_davidson_is_the_loops_first_step(small_setup, start,
                                                   pairs):
    # the j = 0 sector is the vacuum alone: the early return must give the
    # bits of the loop's one step, where the start is normalized, its image
    # taken as a (1, 1) block and Rayleigh-Ritz solved by eigh, and whose
    # residual is zero
    params, grid, basis = small_setup
    idx = basis.sector_indices(grid, 0)
    op = FiberFamily(params, grid, basis, 0).h(params.p_total).sector(idx)
    assert op.shape == (1, 1)
    b = np.array([start]) / np.linalg.norm([start])
    image = (op @ b[None, :].T).T
    ritz = b[None, :] @ image.T
    theta, coef = np.linalg.eigh(ritz)
    vec = b[:, None] @ coef
    assert np.all(image.T @ coef - vec * theta == 0.0)
    rec = ground_state(op, pairs=pairs, start=np.array([start]))
    assert rec.method == "davidson" and np.isnan(rec.gap)
    assert np.float64(rec.energy).tobytes() == theta[0].tobytes()
    assert rec.vector.tobytes() == np.abs(vec[:, 0]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 44, 45, 62])
def test_davidson_eigen_step_equals_scipy_eigh(n):
    # every production eigensolve is numpy.linalg.eigh behind a finiteness
    # check, bit for bit
    import fqed.spectral as spectral

    a = seeded_symmetric(n, seed=n).toarray()
    w, v = spectral._eigh(a.copy())
    w_ref, v_ref = np.linalg.eigh(a)
    assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    a[0, 0] = np.nan
    with pytest.raises(SolverError, match="not finite"):
        spectral._eigh(a)


def _oracle_operators():
    """The four operators of acceptance criterion 2, each with its basis:
    three fiber Hamiltonians and one displaced-frame Hamiltonian."""
    p2 = ModelParams(alpha=1e-3, epsilon=0.25, mu=0.2, rho_minus=0.16,
                     rho_plus=0.4, ir_floor_c=2.5, p_total=[0.1, 0, 0],
                     n_scales=2)
    p3 = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.15, rho_minus=0.14,
                     rho_plus=0.16, c_alpha=0.35, ir_floor_c=2.5,
                     p_total=[0.1, 0, 0], n_scales=3)
    p4 = ModelParams(alpha=1e-3, epsilon=0.3, mu=0.2, rho_minus=0.1,
                     rho_plus=0.4, c_alpha=0.35, ir_floor_c=2.5,
                     p_total=[0.2, 0, 0], n_scales=4)
    boxes = []
    for params in (p2, p3, p4):
        grid = build_grid(params.cutoffs, 1, "octahedral6")
        boxes.append((params, grid, enumerate_basis(grid.n_modes, 2, 2)))
    ops = [(assemble_h_fiber(params, grid, basis, params.n_scales), basis)
           for params, grid, basis in boxes]
    _, grid3, basis3 = boxes[1]
    k_op, _ = assemble_displaced_hamiltonian(
        p3, grid3, basis3, 3, np.array([0.09, 0, 0]), np.array([0.01, 0, 0]))
    return ops + [(k_op, basis3)]


def test_started_davidson_matches_the_dense_oracle_on_criterion_2():
    # criterion 2 checks the cold ARPACK path; every solve a command makes
    # is a started Davidson solve, here from the vacuum with the pair
    # counts commands ask for.  The angle is 2 arcsin(|v - d| / 2) with
    # the signs aligned: arccos of an overlap cannot resolve angles below
    # 1.49e-8, the arccos of the largest double below 1
    for op, basis in _oracle_operators():
        vals, vecs = dense_spectrum(op)
        for pairs in (1, 2):
            rec = ground_state(op, pairs=pairs, start=basis.vacuum())
            assert rec.method == "davidson"
            assert abs(rec.energy - vals[0]) <= 1e-10
            d = vecs[:, 0] if rec.vector @ vecs[:, 0] >= 0 else -vecs[:, 0]
            angle = 2 * np.arcsin(np.linalg.norm(rec.vector - d) / 2)
            assert angle <= 1e-8


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
        pv = contour_project(op, contour, v)
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
    import scipy.sparse.linalg

    def stopped(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stopped", vals, vecs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stopped)


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
    assert np.isnan(rec.gap) and not rec.gap < 1e-12
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
    space = ResolventSolver(op, b)
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
    x = full_solve(op, -1.0, v)
    assert np.allclose(x.real, v / (d + 1.0), atol=1e-13)


def test_resolvent_defining_property_and_dense_inverse():
    op = seeded_symmetric(80, seed=11) + sp.diags(np.linspace(0, 3, 80))
    v = np.cos(np.arange(80.0))
    z = 1.5 + 0.25j
    x = full_solve(op, z, v)
    assert np.linalg.norm(op @ x - z * x - v) / np.linalg.norm(v) < 1e-10
    dense = np.linalg.solve(op.toarray() - z * np.eye(80), v)
    assert np.linalg.norm(x - dense) / np.linalg.norm(dense) < 1e-10


def test_krylov_path_matches_dense_path():
    op = seeded_symmetric(300, seed=5) + sp.diags(np.linspace(0.0, 4.0, 300))
    v = np.sin(np.arange(300.0))
    z = 0.3 + 0.1j
    dense = np.linalg.solve(op.toarray() - z * np.eye(300), v)
    krylov = full_solve(op, z, v)
    assert np.linalg.norm(dense - krylov) / np.linalg.norm(dense) < 1e-8


def coupled_diagonal(n=120):
    """A diagonal from 1 to 5 plus a dense symmetric coupling of norm about
    0.1, as an array: H's free part plus a weak interaction."""
    return np.diag(np.linspace(1.0, 5.0, n)) \
        + seeded_symmetric(n, seed=3, scale=0.05).toarray()


def _check_shifted_solve(op, dense, shift, b):
    import fqed.spectral as spectral

    x = shifted_solve(op, shift, b)
    assert x.shape == b.shape
    shifted = dense - shift * np.eye(len(dense))
    expected = np.linalg.solve(shifted, b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.linalg.norm(shifted @ x - b) \
        <= 2 * spectral.KRYLOV_TOL * np.linalg.norm(b)


def test_shifted_solve_matches_a_dense_solve_on_a_factor_operator(
        small_setup):
    # the shift sits below the lowest eigenvalue as E - |k| does in the
    # pull-through probe
    op = _shifted_sector(small_setup, 5e-3)
    dense = op.tocsr().toarray()
    low = np.linalg.eigvalsh(dense)[0]
    n = op.shape[0]
    for b in (np.cos(np.arange(n)), np.sin(np.arange(n)) ** 3):
        _check_shifted_solve(op, dense, low - 0.3, b)


def test_shifted_solve_matches_a_dense_solve_on_an_array():
    a = coupled_diagonal()
    assert np.linalg.eigvalsh(a)[0] > 0.5
    _check_shifted_solve(a, a, 0.5, np.cos(np.arange(len(a))))


def test_shifted_solve_of_zero_is_exactly_zero():
    # CG starts from x = 0, where a zero b leaves it
    a = coupled_diagonal()
    x = shifted_solve(a, 0.5, np.zeros(len(a)))
    assert x.shape == (len(a),) and not np.any(x)
    _check_shifted_solve(a, a, 0.5, np.ones(len(a)))


def test_shifted_solve_inside_the_spectrum_raises():
    # every diagonal entry lies above the shift, but the uniform direction
    # is pulled 2 below it: CG meets a negative curvature
    n = 40
    a = np.diag(np.linspace(1.0, 2.0, n)) - 0.05 * np.ones((n, n))
    assert np.linalg.eigvalsh(a)[0] < 0.0 < np.min(np.diag(a))
    with pytest.raises(ConditioningError,
                       match=r"shift 0\.0 is not below the spectrum: CG "
                             r"met curvature"):
        shifted_solve(a, 0.0, np.ones(n))


@pytest.mark.parametrize("shift", [1.0, 1.5])
def test_shifted_solve_with_a_diagonal_entry_at_the_shift_raises(shift):
    a = coupled_diagonal()
    np.fill_diagonal(a, np.linspace(1.0, 5.0, len(a)))
    with pytest.raises(ConditioningError,
                       match=f"shift {shift} is not below the spectrum: the "
                             "shifted operator has diagonal entry"):
        shifted_solve(a, shift, np.cos(np.arange(len(a))))


def test_shifted_solve_product_cap_raises_with_the_residual(monkeypatch):
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "KRYLOV_MAX", 2)
    a = coupled_diagonal()
    with pytest.raises(SolverError, match="after 2 products") as exc:
        shifted_solve(a, 0.5, np.cos(np.arange(len(a))))
    assert spectral.KRYLOV_TOL < exc.value.best_residual < 1.0


@pytest.mark.parametrize("projected", [False, True],
                         ids=["below-spectrum", "on-complement"])
def test_shifted_solve_leaves_b_unchanged(projected):
    # CG updates its residual in place, from a copy of b, with or without
    # the projection
    a = coupled_diagonal()
    vals, vecs = np.linalg.eigh(a)
    kwargs = dict(psi=vecs[:, 0], gap=vals[1] - vals[0]) if projected else {}
    shift = vals[0] if projected else 0.5
    b = np.stack([np.cos(np.arange(len(a))), np.sin(np.arange(len(a)))],
                 axis=1)
    # the columns of a C-ordered block are strided, a Fortran-ordered
    # block's are not
    assert not b[:, 0].flags.c_contiguous
    for rhs in (*b.T, *np.asfortranarray(b).T):
        before = rhs.copy()
        x = shifted_solve(a, shift, rhs, **kwargs)
        assert np.any(x)
        assert np.array_equal(rhs, before)


def test_projected_shifted_solve_matches_the_reduced_resolvent():
    # on the complement of the ground vector, at the ground energy: the
    # solve is (a - E)^{-1} Q b, orthogonal to psi
    a = coupled_diagonal()
    vals, vecs = np.linalg.eigh(a)
    psi = vecs[:, 0]
    kwargs = dict(psi=psi, gap=vals[1] - vals[0])
    b = np.cos(np.arange(len(a)))
    x = shifted_solve(a, vals[0], b, **kwargs)
    reduced = vecs[:, 1:] @ np.diag(1.0 / (vals[1:] - vals[0])) \
        @ vecs[:, 1:].T
    expected = reduced @ b
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert abs(x @ psi) <= 1e-14 * np.linalg.norm(expected)
    # b = psi projects to rounding, not to exact zero
    assert np.linalg.norm(shifted_solve(a, vals[0], psi, **kwargs)) <= 1e-12


def test_projected_solve_on_one_state_is_zero_before_the_gap_is_read():
    # a one-state sector has no second level, so its gap is NaN; Q b is
    # exactly zero there, and the solve returns zeros without a
    # preconditioner, whose floor at a NaN gap would refuse it
    a = np.array([[0.7]])
    x = shifted_solve(a, 0.7, np.array([2.5]), psi=np.array([1.0]),
                      gap=np.nan)
    assert np.array_equal(x, [0.0])
    b = np.cos(np.arange(3.0))
    a3 = np.diag([0.7, 1.0, 1.5])
    with pytest.raises(ConditioningError, match="diagonal entry nan"):
        shifted_solve(a3, 0.7, b, psi=np.eye(3)[0], gap=np.nan)


def test_contour_nodes_converging_at_different_sizes(monkeypatch):
    # with small growth blocks the first node alone converges in a smaller
    # space than the whole contour; one integral makes one solve, which
    # answers every node at the one size where all have converged
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "KRYLOV_BLOCK", 8)
    op = seeded_symmetric(300, seed=5) + sp.diags(np.linspace(0.0, 4.0, 300))
    vals, vecs = dense_spectrum(op)
    contour = Contour(vals[-1], 0.5 * (vals[-1] - vals[-2]))
    v = np.sin(np.arange(300.0))
    first = ResolventSolver(op, v)
    first.solve(contour.upper[0])
    solves = []
    solve = ResolventSolver.solve

    def counted(self, z):
        out = solve(self, z)
        solves.append((np.shape(z), out.shape, self.steps))
        return out

    monkeypatch.setattr(ResolventSolver, "solve", counted)
    projected = contour_project(op, contour, v)
    exact = vecs[:, -1] * (vecs[:, -1] @ v)
    [(shape, out_shape, size)] = solves
    assert shape == (contour.nodes // 2 + 1,)
    assert out_shape == (size,) + shape
    assert first.steps < size
    assert np.linalg.norm(projected - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("k", [1, 2, 8, 64])
@pytest.mark.parametrize("z", [2.0 + 0.5j, 1.5 - 0.25j, -0.5, 4.5],
                         ids=["upper", "lower", "axis-below", "axis-above"])
def test_ritz_solve_matches_a_dense_tridiagonal_solve(k, z):
    # grown to all k vectors of a diagonal operator with k distinct levels,
    # the space's Ritz solve S (b0 S^T e1 / (theta - z)) is (T - z)^{-1}
    # b0 e1 of its tridiagonal T, off the real axis and on it
    op = sp.diags(np.linspace(0.0, 4.0, k)).tocsr()
    space = ResolventSolver(op, np.cos(np.arange(k)) + 2.0)
    space._grow(k)
    coeffs = space.solve(z)
    assert space.steps == k
    t = (np.diag(space.alpha[:k]) + np.diag(space.beta[:k - 1], 1)
         + np.diag(space.beta[:k - 1], -1))
    rhs = np.zeros(k)
    rhs[0] = space.b0
    exact = np.linalg.solve(t - z * np.eye(k), rhs)
    assert np.linalg.norm(coeffs[:k] - exact) <= 1e-13 * np.linalg.norm(exact)


def test_ritz_solve_on_a_ritz_value_raises():
    # e1 is an eigenvector of diag(1, 5): its space is the one Ritz value
    # 1.0, exactly the real-axis node c + r of this contour
    from fqed.spectral import ConditioningError

    op = sp.diags([1.0, 5.0]).tocsr()
    with pytest.raises(ConditioningError, match="singular"):
        contour_project(op, Contour(0.5, 0.5, 8), np.array([1.0, 0.0]))


def test_unit_weight_contour_filter_has_its_closed_form():
    # on M nodes the trapezoid rule weights eigenvalue theta of the
    # projected operator by 1 / (1 - ((theta - c) / r)^M), 1 deep inside
    # the circle and small far outside
    levels = np.array([-0.7, -0.2, 0.5, 1.2, 1.5, 2.5])
    contour = Contour(0.1, 1.0, 8)
    v = np.linspace(1.0, 2.0, len(levels))
    pv = contour_project(sp.diags(levels).tocsr(), contour, v)
    filt = 1.0 / (1.0 - ((levels - contour.center) / contour.radius) ** 8)
    assert np.max(np.abs(pv - filt * v)) <= 1e-13 * np.max(np.abs(v))


def test_space_grown_to_its_cap_decomposes_a_bounded_number_of_times(
        monkeypatch):
    # a shift 1e-6 off the real axis inside a dense spectrum never
    # converges, so the space grows to its cap: 8 vectors at a time to
    # KRYLOV_LINEAR_MAX, then doubling, one eigendecomposition per size
    # (at KRYLOV_MAX = 1200: 16 sizes to 128, then 256, 512, 1024 and 1200;
    # the cap is lowered here to keep the test fast)
    import fqed.spectral as spectral

    sizes = []
    eigh = spectral._eigh

    def counted(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(spectral, "_eigh", counted)
    monkeypatch.setattr(spectral, "KRYLOV_MAX", 600)
    n = 601
    space = ResolventSolver(sp.diags(np.linspace(0.0, 1.0, n)).tocsr(),
                            np.ones(n))
    with pytest.raises(spectral.ConditioningError, match="size 600"):
        space.solve(0.5 + 1e-6j)
    assert sizes == [*range(8, 129, 8), 256, 512, 600]
    # the full space is decomposed once for all its shifts
    with pytest.raises(spectral.ConditioningError):
        space.solve(0.5 + 1e-6j)
    assert len(sizes) == 19


def _with_poisoned_empty(monkeypatch, run):
    """run() while ``numpy.empty`` fills every float array with NaN, so
    that a read of a workspace row the solver never wrote shows in its
    result."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", poisoned)
        return run()


def _restarting_davidson():
    # a random coupling over a narrow diagonal: the preconditioner helps
    # little, and the space restarts past DAVIDSON_MAX_DIM
    import fqed.spectral as spectral

    n = 200
    op = seeded_symmetric(n, seed=7) + sp.diags(np.linspace(0.0, 1.0, n))
    return spectral._davidson(op, 3, np.ones(n))


def _lanczos_past_the_linear_phase():
    # a real shift 0.01 below a dense spectrum converges past
    # KRYLOV_LINEAR_MAX vectors: the space doubles once, to 256
    import fqed.spectral as spectral

    n = 600
    space = ResolventSolver(sp.diags(np.linspace(0.0, 1.0, n)).tocsr(),
                            np.ones(n))
    coeffs = space.solve(np.array([-0.01, 0.5 + 0.6j]))
    assert space.steps > spectral.KRYLOV_LINEAR_MAX
    return tuple(space.lift(part[:, i]) for i in range(2)
                 for part in (coeffs.real, coeffs.imag))


def _vacuum_projection(small_setup):
    params, grid, basis = small_setup
    h = assemble_h_fiber(params, grid, basis, 2)
    rec = ground_state(h)
    contour = Contour(rec.energy, 0.5 * rec.gap, 64)
    return (contour_project(h, contour, basis.vacuum()),)


def test_solvers_never_read_an_unwritten_workspace_row(small_setup,
                                                       monkeypatch):
    # the Davidson and Lanczos workspaces are never zero-filled: results
    # with NaN in every unwritten row are the results themselves, bit for
    # bit
    import fqed.spectral as spectral

    sizes = []
    eigh = spectral._eigh

    def counted(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(spectral, "_eigh", counted)
    cases = [_restarting_davidson, _lanczos_past_the_linear_phase,
             functools.partial(_vacuum_projection, small_setup)]
    for case in cases:
        sizes.clear()
        clean = case()
        if case is _restarting_davidson:
            assert any(b < a for a, b in zip(sizes, sizes[1:]))
        poisoned = _with_poisoned_empty(monkeypatch, case)
        assert [a.tobytes() for a in poisoned] == [a.tobytes() for a in clean]
        assert all(np.isfinite(a).all() for a in clean)


def test_zero_right_hand_side_projects_and_lifts_to_exact_zeros(
        monkeypatch):
    # b = 0 makes no Lanczos step: lift multiplies the written zero row 0
    # by the zero coefficient, whatever the buffer held
    n = 50
    op = sp.diags(np.linspace(0.0, 1.0, n)).tocsr()
    contour = Contour(0.25, 0.1, 16)

    def zero_results():
        space = ResolventSolver(op, np.zeros(n))
        coeffs = space.solve(contour.upper)
        return (contour_project(op, contour, np.zeros(n)),
                space.lift(coeffs.real[:, 0]), space.lift(coeffs.imag[:, 0]))

    for out in _with_poisoned_empty(monkeypatch, zero_results):
        assert out.shape == (n,) and not np.any(out)


def test_space_grown_to_the_linear_phase_holds_one_buffer():
    # the basis is one buffer of KRYLOV_LINEAR_MAX + 1 rows; growing to
    # that many vectors allocates it once and copies no row, adding only a
    # few vector temporaries
    import fqed.spectral as spectral

    n = 2000
    op = sp.diags(np.linspace(0.0, 1.0, n)).tocsr()
    b = np.ones(n)
    tracemalloc.start()
    try:
        space = ResolventSolver(op, b)
        space._grow(spectral.KRYLOV_LINEAR_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.steps == spectral.KRYLOV_LINEAR_MAX
    assert peak <= (spectral.KRYLOV_LINEAR_MAX + 9) * n * 8


def test_contour_project_two_level():
    op = sp.diags([0.0, 1.0]).tocsr()
    v = np.array([1.0, 1.0])
    out = contour_project(op, Contour(0.0, 0.4, 64), v)
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
    projected = contour_project(sub, contour, v)
    exact = vecs[:, 0] * (vecs[:, 0] @ v)
    assert np.linalg.norm(projected - exact) <= 1e-8 * np.linalg.norm(v)
    assert idempotence_defect(sub, contour, v) <= 2e-8
    assert v @ projected >= -1e-10


def test_contour_project_checked_doubles_nodes(monkeypatch):
    # eigenvalue close to the circle: 8 nodes cannot resolve it, doubling can
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "PROJECTOR_TOL", 1e-8)
    monkeypatch.setattr(spectral, "MAX_NODES", 1024)
    op = sp.diags([0.0, 0.3, 5.0]).tocsr()
    v = np.ones(3)
    contour = Contour(0.0, 0.25, 8)
    out, nodes, defect = contour_project_checked(op, contour, v)
    assert nodes > 8
    assert defect <= 1e-8
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-7)


def test_contour_project_checked_raises_on_enclosure_failure(monkeypatch):
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "PROJECTOR_TOL", 1e-10)
    monkeypatch.setattr(spectral, "MAX_NODES", 32)
    op = sp.diags([0.0, 1e-9, 5.0]).tocsr()   # two states inside any circle
    v = np.array([1.0, 1.0, 0.3])
    with pytest.raises(ContourError):
        # projector onto a 2-dim eigenspace is idempotent, so use a circle
        # that CUTS the spectrum instead
        contour_project_checked(op, Contour(0.5, 0.5 + 1e-12, 16), v)


def test_contour_project_checked_stops_on_a_nan_projection(monkeypatch):
    # a NaN defect fails every comparison, so only an explicit finiteness
    # check keeps the node doubling from running to MAX_NODES
    import fqed.spectral as spectral

    calls = []

    def nan_projection(op, contour, v):
        calls.append(contour.nodes)
        return np.full(len(v), np.nan)

    monkeypatch.setattr(spectral, "contour_project", nan_projection)
    op = sp.diags([0.0, 0.3, 5.0]).tocsr()
    with pytest.raises(ContourError, match="not finite at 8 nodes"):
        contour_project_checked(op, Contour(0.0, 0.25, 8), np.ones(3))
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
    direct = contour_project(sub, contour, v)
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
    direct = contour_project(h1 + dh, contour, psi1)
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
    # <(H - E)^{-1} Q X psi, X psi> by the projected solve is the
    # reduced-resolvent sum of second-order perturbation theory
    op = seeded_symmetric(60, seed=21) + sp.diags(np.linspace(0, 3, 60))
    vals, vecs = dense_spectrum(op)
    rng = np.random.default_rng(1)
    x_dense = rng.standard_normal((60, 60))
    x_op = sp.csr_matrix((x_dense + x_dense.T) / 2)
    psi = vecs[:, 0]
    x_psi = x_op @ psi
    s = shifted_solve(op, vals[0], x_psi, psi=psi,
                      gap=vals[1] - vals[0]) @ x_psi
    elements = vecs.T @ x_psi
    oracle = np.sum(elements[1:] ** 2 / (vals[1:] - vals[0]))
    assert abs(s - oracle) < 1e-10 * max(1.0, abs(oracle))


@pytest.fixture
def tiny_h(tiny_setup):
    """H(P) of the tiny box (dim 91)."""
    params, grid, basis = tiny_setup
    return assemble_h_fiber(params, grid, basis, 1)


def test_lift_inverts_reduce(tiny_h):
    # b is ||b|| e1 in its own space, once a solve has built the space
    h = tiny_h
    b = np.cos(np.arange(h.shape[0]))
    space = ResolventSolver(h, b)
    coeffs = space.solve(-1.0)
    e1 = np.zeros(len(coeffs))
    e1[0] = 1.0
    assert np.max(np.abs(space.lift(space.b0 * e1) - b)) <= 1e-14


def test_krylov_solver_rejects_complex_data(tiny_setup):
    # a Lanczos space is built for one real starting vector
    params, grid, basis = tiny_setup
    h = assemble_h_fiber(params, grid, basis, 1)
    b = np.cos(np.arange(basis.size)) + 1j * np.sin(np.arange(basis.size))
    with pytest.raises(ValueError, match="real vectors only"):
        ResolventSolver(h, b)


def test_reduced_solve_satisfies_the_shifted_equation(tiny_h):
    h = tiny_h
    vals, _ = dense_spectrum(h)
    b = np.cos(np.arange(h.shape[0]))
    for z in (vals[0] + 0.3j, 0.5 * (vals[0] + vals[1]),
              vals[0] - 0.1 + 0.05j):
        x = full_solve(h, z, b)
        assert np.linalg.norm(h @ x - z * x - b) <= 1e-12 * np.linalg.norm(b)


def test_reduced_projector_matches_eigenprojector(tiny_h):
    h = tiny_h
    vals, vecs = dense_spectrum(h)
    contour = Contour(vals[0], 0.4 * (vals[1] - vals[0]), 64)
    b = np.cos(np.arange(h.shape[0]))
    projected = contour_project(h, contour, b)
    exact = vecs[:, 0] * (vecs[:, 0] @ b)
    assert np.linalg.norm(projected - exact) <= 1e-12 * np.linalg.norm(b)
    assert not np.any(contour_project(h, contour, 0.0 * b))


def test_checked_projection_moves_vectors_once_per_integral(tiny_h,
                                                            monkeypatch):
    # a projection and its re-projection start one Lanczos space and lift
    # once each, at any node count
    h = tiny_h
    vals, _ = dense_spectrum(h)
    b = np.cos(np.arange(h.shape[0]))
    moves = []
    for name in ("__init__", "lift"):
        method = getattr(ResolventSolver, name)

        def counted(self, *args, _method=method, _name=name):
            moves.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(ResolventSolver, name, counted)
    counts = {}
    for nodes in (16, 64):
        moves.clear()
        contour = Contour(vals[0], 0.1 * (vals[1] - vals[0]), nodes)
        _, used, _ = contour_project_checked(h, contour, b)
        assert used == nodes
        counts[nodes] = sorted(moves)
    assert counts[16] == counts[64] == ["__init__"] * 2 + ["lift"] * 2
