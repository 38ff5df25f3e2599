import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import custom_grid
from fqed.bogoliubov import (displaced_momentum_ops, displacement_coeffs,
                             weyl_vacuum_expectation)
from fqed.fock import enumerate_basis
from fqed.hamiltonian import (FactorOp, FiberFamily, ModelParams,
                              _field_momentum,
                              assemble_displaced_hamiltonian,
                              assemble_field, assemble_h_fiber,
                              assemble_intermediate_hamiltonian,
                              assemble_slice_interaction, delta_k_interaction,
                              slice_marginal_ops)
from fqed.modes import build_grid, direction_weights
from fqed.spectral import dense_spectrum


# ---------------------------------------------------------------------------
# independent dense reference: ladder matrices built by explicit occupation
# arithmetic, no reuse of the package's assembly helpers
# ---------------------------------------------------------------------------

def ref_ladders(occupations, c_max):
    occ = [tuple(r) for r in occupations]
    index = {s: i for i, s in enumerate(occ)}
    n_modes = len(occ[0])
    n_max = max(sum(s) for s in occ)
    size = len(occ)
    creators = []
    for m in range(n_modes):
        c = np.zeros((size, size))
        for i, s in enumerate(occ):
            if sum(s) < n_max and s[m] < c_max:
                t = list(s)
                t[m] += 1
                c[index[tuple(t)], i] = np.sqrt(s[m] + 1.0)
        creators.append(c)
    return creators


def ref_h_fiber(params, grid, basis, j, p=None):
    p = params.p_total if p is None else np.asarray(p, float)
    creators = ref_ladders(basis.occupations, basis.c_max)
    size = basis.size
    pf = [np.zeros((size, size)) for _ in range(3)]
    hf = np.zeros((size, size))
    a = [np.zeros((size, size)) for _ in range(3)]
    for m in range(grid.n_modes):
        n_op = creators[m] @ creators[m].T
        hf += grid.knorm[m] * n_op
        for i in range(3):
            pf[i] += grid.k[m, i] * n_op
            if grid.shell[m] < j:
                coup = np.sqrt(grid.weight[m] / grid.knorm[m]) \
                    * grid.eps_vec[m, i]
                a[i] += coup * (creators[m] + creators[m].T)
    h = hf.copy()
    for i in range(3):
        x = p[i] * np.eye(size) - pf[i] + np.sqrt(params.alpha) * a[i]
        h += 0.5 * x @ x
    return h


def test_field_empty_shell_range_is_zero(tiny_setup):
    params, grid, basis = tiny_setup
    a = assemble_field(grid, basis, range(0))
    assert all(ai.nnz == 0 for ai in a)


def test_field_single_mode_matrix_element():
    grid = custom_grid([[0.0, 0.0, 0.5]], [0.37], [0])
    basis = enumerate_basis(1, 1, 1)
    a = assemble_field(grid, basis, [0])
    coup = np.sqrt(0.37 / 0.5)
    one = basis.index_of((1,))
    for i in range(3):
        assert a[i][one, 0] == pytest.approx(coup * grid.eps_vec[0, i],
                                             abs=1e-15)


def test_field_vacuum_square_expectation(small_setup):
    params, grid, basis = small_setup
    a = assemble_field(grid, basis, range(2))
    v = basis.vacuum()
    measured = sum(v @ (ai @ (ai @ v)) for ai in a)
    expected = np.sum(grid.weight / grid.knorm)   # explicit mode sum
    assert measured == pytest.approx(expected, rel=1e-12)


def test_h_fiber_free_theory(small_setup):
    params, grid, basis = small_setup
    free = ModelParams(alpha=0.0, epsilon=params.epsilon,
                       n_scales=params.n_scales, p_total=[0.2, 0.0, 0.0])
    h = assemble_h_fiber(free, grid, basis, 2)
    vals, vecs = dense_spectrum(h)
    assert vals[0] == pytest.approx(0.02, abs=1e-13)
    assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_h_fiber_scale0_equals_free_theory(small_setup):
    params, grid, basis = small_setup
    h0 = assemble_h_fiber(params, grid, basis, 0)
    free = ModelParams(alpha=0.0, epsilon=params.epsilon,
                       n_scales=params.n_scales, p_total=params.p_total)
    h_free = assemble_h_fiber(free, grid, basis, 2)
    assert abs(h0 - h_free).max() == 0.0


def test_h_fiber_against_independent_dense_reference():
    grid = custom_grid(
        [[0.6, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 0.55, 0.0],
         [0.0, 0.55, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]],
        [0.8, 0.8, 0.7, 0.7, 0.9, 0.9], [0] * 6,
        lams=[1, 2, 1, 2, 1, 2],
        eps_list=[[0, 1, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0],
                  [1, 0, 0], [0, 1, 0]])
    basis = enumerate_basis(6, 2, 2)
    params = ModelParams(alpha=0.01, epsilon=0.25, n_scales=1,
                         p_total=[0.1, 0.0, 0.0])
    h = assemble_h_fiber(params, grid, basis, 1).toarray()
    ref = ref_h_fiber(params, grid, basis, 1)
    assert np.abs(h - ref).max() < 1e-13
    vals, _ = dense_spectrum(h)
    ref_vals = np.linalg.eigvalsh(ref)
    assert abs(vals[0] - ref_vals[0]) < 1e-10


def test_slice_interaction_zero_at_free_coupling(small_setup):
    params, grid, basis = small_setup
    free = ModelParams(alpha=0.0, epsilon=params.epsilon,
                       n_scales=params.n_scales, p_total=params.p_total)
    dh = assemble_slice_interaction(free, grid, basis, 0)
    assert abs(dh).max() == 0.0


@pytest.mark.parametrize("j", [0, 1])
def test_slice_interaction_telescopes(small_setup, j):
    params, grid, basis = small_setup
    h_j = assemble_h_fiber(params, grid, basis, j)
    h_next = assemble_h_fiber(params, grid, basis, j + 1)
    dh = assemble_slice_interaction(params, grid, basis, j)
    assert abs(h_next - h_j - dh).max() < 1e-12


def test_slice_interaction_vacuum_expectation(small_setup):
    params, grid, basis = small_setup
    dh = assemble_slice_interaction(params, grid, basis, 0)
    v = basis.vacuum()
    sl = grid.shell == 0
    expected = 0.5 * params.alpha * np.sum(
        grid.weight[sl] / grid.knorm[sl])   # brute-force sum over the slice
    assert v @ (dh @ v) == pytest.approx(expected, rel=1e-12)


def test_displaced_free_form_at_scale0(small_setup):
    # at scale 0 the displacement support is empty, the gradient equals the
    # total momentum, and the frame reduces to the free form with ground
    # energy |P|^2/2
    params, grid, basis = small_setup
    import scipy.sparse as sp
    from fqed.fock import number_diagonal
    g = params.p_total.copy()
    k_op, offset = assemble_displaced_hamiltonian(
        params, grid, basis, 0, g, np.zeros(3))
    pf = [sp.diags(number_diagonal(basis, grid.k[:, i])) for i in range(3)]
    delta = direction_weights(grid, g)
    number = sp.diags(number_diagonal(basis, grid.knorm * delta))
    p2 = params.p_total @ params.p_total / 2.0
    ref = 0.5 * sum(pfi @ pfi for pfi in pf) + number \
        + p2 * sp.identity(basis.size)
    assert offset == pytest.approx(p2, abs=1e-15)
    assert abs(k_op - ref).max() < 1e-13
    vals, _ = dense_spectrum(k_op)
    assert vals[0] == pytest.approx(p2, abs=1e-13)


def test_displaced_ground_energy_matches_bare_frame():
    # unitary equivalence up to occupation-cap truncation
    params = ModelParams(alpha=5e-3, epsilon=0.25, n_scales=1,
                         p_total=[0.2, 0.0, 0.0])
    grid = build_grid(params.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 3, 3)
    h = assemble_h_fiber(params, grid, basis, 1)
    vals_h, vecs_h = dense_spectrum(h)
    psi = vecs_h[:, 0]
    beta = _field_momentum(params, grid, basis, 1)
    grad = np.array([params.p_total[i] - psi @ (beta[i] @ psi)
                     for i in range(3)])
    gamma = params.p_total - grad - weyl_vacuum_expectation(
        params, grid, range(1), grad)
    k_op, _ = assemble_displaced_hamiltonian(params, grid, basis, 1, grad,
                                             gamma)
    vals_k, _ = dense_spectrum(k_op)
    assert abs(vals_k[0] - vals_h[0]) < 1e-6


def test_intermediate_equals_displaced_at_free_coupling(small_setup):
    params, grid, basis = small_setup
    free = ModelParams(alpha=0.0, epsilon=params.epsilon,
                       n_scales=params.n_scales, p_total=params.p_total)
    g = np.array([0.07, 0.0, 0.02])
    gamma = np.array([0.01, 0.0, 0.0])
    k_prev, _ = assemble_displaced_hamiltonian(free, grid, basis, 1, g,
                                               gamma)
    k_hat, _ = assemble_intermediate_hamiltonian(
        FiberFamily(free, grid, basis, 2), g, gamma)
    assert np.abs(k_hat.tocsr() - k_prev).max() < 1e-14


def test_frame_bridge_identity(small_setup):
    # Khat(j) == K(j-1) + delta_k + (offset_hat - offset) entrywise, with a
    # common gamma in both assemblies
    params, grid, basis = small_setup
    import scipy.sparse as sp
    g = np.array([0.09, 0.01, 0.0])
    gamma = np.array([0.005, 0.0, -0.002])
    k_prev, off_prev = assemble_displaced_hamiltonian(
        params, grid, basis, 1, g, gamma)
    k_hat, off_hat = assemble_intermediate_hamiltonian(
        FiberFamily(params, grid, basis, 2), g, gamma)
    pi = __import__("fqed.bogoliubov", fromlist=["displaced_momentum_ops"]) \
        .displaced_momentum_ops(FiberFamily(params, grid, basis, 1), g)
    eye = sp.identity(basis.size, format="csr")
    gamma_ops = [pi[i] - gamma[i] * eye for i in range(3)]
    dk = delta_k_interaction(params, grid, basis, 2, gamma_ops, g)
    lhs = k_hat.tocsr() - off_hat * eye + off_prev * eye - k_prev
    assert abs(lhs - dk).max() < 1e-12


def test_gradient_bridge_identity(small_setup):
    # conjugating the scale-j observable back through the previous scale's
    # displacement reproduces the previous observable plus the slice terms
    # and the gradient shift, entrywise
    params, grid, basis = small_setup
    import scipy.sparse as sp
    from fqed.bogoliubov import displaced_momentum_ops
    from fqed.fock import linear_field

    g_prev = np.array([0.08, 0.0, 0.03])
    g_new = np.array([0.1, 0.02, 0.0])
    j = 2
    alpha = params.alpha
    p = params.p_total

    # chain-consistent centering scalars
    gamma_prev = p - g_prev - weyl_vacuum_expectation(
        params, grid, range(j - 1), g_prev)
    gamma_new = p - g_new - weyl_vacuum_expectation(params, grid, range(j),
                                                    g_new)

    pi_prev = displaced_momentum_ops(FiberFamily(params, grid, basis, j - 1),
                                     g_prev)
    pi_new = displaced_momentum_ops(FiberFamily(params, grid, basis, j),
                                    g_new)
    eye = sp.identity(basis.size, format="csr")

    # left side: conjugate Pi(j) by the bridge displacement in closed form;
    # the ladder shift b -> b - df also leaves a c-number behind
    f_hat = displacement_coeffs(g_prev, grid, range(j), alpha)
    f_new = displacement_coeffs(g_new, grid, range(j), alpha)
    df = f_hat - f_new
    coupling = np.sqrt(grid.weight / grid.knorm)
    lhs = []
    for i in range(3):
        shift_op = linear_field(basis, grid.k[:, i] * df)
        q_i = (np.sum(grid.k[:, i] * df ** 2)
               + 2.0 * np.sqrt(alpha)
               * np.sum(coupling * grid.eps_vec[:, i] * df)
               + 2.0 * np.sum(grid.k[:, i] * f_new * df))
        conj = pi_new[i] - shift_op + q_i * eye
        lhs.append(conj - gamma_new[i] * eye)

    lam = slice_marginal_ops(params, grid, basis, j - 1, g_prev)
    ivec = weyl_vacuum_expectation(params, grid, [j - 1], g_prev)
    rhs = [pi_prev[i] - gamma_prev[i] * eye
           + (g_new[i] - g_prev[i]) * eye + lam[i] + ivec[i] * eye
           for i in range(3)]
    for i in range(3):
        assert abs(lhs[i] - rhs[i]).max() < 1e-12


def test_weyl_vacuum_expectation_on_slice_shell(small_setup):
    # the frame bridge's scalar shift is the vacuum expectation summed over
    # the slice shell alone
    params, grid, basis = small_setup
    g = np.array([0.1, 0.0, 0.0])
    ivec = weyl_vacuum_expectation(params, grid, [1], g)
    f = displacement_coeffs(g, grid, [1], params.alpha)
    coup = np.sqrt(grid.weight / grid.knorm)
    expected = np.array([
        np.sum(grid.k[:, i] * f ** 2)
        + 2.0 * np.sqrt(params.alpha) * np.sum(coup * grid.eps_vec[:, i] * f)
        for i in range(3)])
    assert np.allclose(ivec, expected, atol=1e-16)


def test_frame_energy_offset_consistency(small_setup):
    params, grid, basis = small_setup
    g = np.array([0.1, 0.02, 0.0])
    off = FiberFamily(params, grid, basis, 2).frame(g).s
    f = displacement_coeffs(g, grid, range(2), params.alpha)
    delta = direction_weights(grid, g)
    p = params.p_total
    expected = p @ p / 2 - (p - g) @ (p - g) / 2 \
        - np.sum(grid.knorm * delta * f ** 2)
    assert off == pytest.approx(expected, abs=1e-16)


def test_assembled_operators_are_symmetric(small_setup):
    params, grid, basis = small_setup
    from fqed.fock import symmetry_defect
    h = assemble_h_fiber(params, grid, basis, 2)
    assert symmetry_defect(h) == 0.0
    k_op, _ = assemble_displaced_hamiltonian(
        params, grid, basis, 2, np.array([0.1, 0, 0]), np.zeros(3))
    assert symmetry_defect(k_op) == 0.0
    vals, _ = dense_spectrum(h)
    assert vals[0] > -1e-12   # nonnegative up to rounding


def test_family_x_vacuum_expectation(small_setup):
    params, grid, basis = small_setup
    v = basis.vacuum()
    # X_i v = P_i v - beta_i v; photon momentum annihilates the vacuum and
    # the field part is off-diagonal, so only the scalar survives
    x_v = (params.p_total[:, None] * v
           - FiberFamily(params, grid, basis, 1).factors.apply(v))
    for i in range(3):
        assert v @ x_v[i] == pytest.approx(params.p_total[i], abs=1e-14)


# ---------------------------------------------------------------------------
# exact identities of the operator families on random (alpha, P, j)
# ---------------------------------------------------------------------------

ALPHAS = st.floats(0.0, 1e-2)
# each component below 0.19 keeps |P| < 1/3
MOMENTA = st.tuples(*[st.floats(-0.19, 0.19)] * 3).map(np.array)
GRADIENTS = st.tuples(*[st.floats(-0.28, 0.28)] * 3).map(np.array)
SHIFTS = st.tuples(*[st.floats(-0.1, 0.1)] * 3).map(np.array)


def tiny_family(tiny_setup, alpha, p, j):
    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=alpha, p_total=p)
    return params, FiberFamily(params, grid, basis, j)


def assert_factor_form_matches(op, ref):
    """The FactorOp ``op`` against the product form ``ref``: its action on
    a vector and on an (n, 4) block, and its diagonal, agree to 1e-14
    relative, and its own product form agrees entrywise to 1e-14."""
    block = np.random.default_rng(7).standard_normal((ref.shape[0], 4))
    for x in (block[:, 0], block):
        scale = np.max(abs(ref) @ np.abs(x))
        assert np.max(np.abs(op @ x - ref @ x)) <= 1e-14 * scale
    diag = ref.diagonal()
    assert np.max(np.abs(op.diagonal() - diag)) \
        <= 1e-14 * np.max(np.abs(diag))
    assert abs(op.tocsr() - ref).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(ALPHAS, MOMENTA, st.integers(0, 1))
def test_family_h_equals_product_form(tiny_setup, alpha, p, j):
    # (1/2) sum_i (beta_i - P_i)^2 + Hf applied from its factors
    # == sym((1/2) sum_i (P_i - beta_i)^2 + Hf)
    params, family = tiny_family(tiny_setup, alpha, p, j)
    ref = assemble_h_fiber(params, family.grid, family.basis, j, p=p)
    assert_factor_form_matches(family.h(p), ref)


@settings(max_examples=15, deadline=None)
@given(ALPHAS, MOMENTA, st.integers(0, 1))
def test_family_gradient_matches_finite_differences(tiny_setup, tiny_record,
                                                    alpha, p, j):
    # the stencil's solves start from the box's own ground state, which no
    # cascade of the tiny grid produces at every drawn alpha and P
    from fqed.cascade import sector_ground
    from fqed.observables import energy_gradient_fd

    params, family = tiny_family(tiny_setup, alpha, p, j)
    grid, basis = family.grid, family.basis
    e, psi, _ = sector_ground(params, grid, basis, j, p=p, h_op=family.h(p))
    fd = energy_gradient_fd(family, dataclasses.replace(
        tiny_record[3], j=j, energy=e, psi=psi))
    assert np.abs(family.gradient(psi, p) - fd).max() <= 1e-7


@settings(max_examples=40, deadline=None)
@given(ALPHAS, MOMENTA, st.integers(0, 1), GRADIENTS, SHIFTS)
def test_frame_family_k_equals_product_form(tiny_setup, alpha, p, j, g,
                                            gamma):
    # (1/2) sum_i (Pi_i - gamma_i)^2 + number + offset applied from its
    # factors == the assembled canonical form
    params, family = tiny_family(tiny_setup, alpha, p, j)
    frame = family.frame(g)
    ref, offset = assemble_displaced_hamiltonian(
        params, family.grid, family.basis, j, g, gamma)
    assert frame.s == offset
    assert_factor_form_matches(FactorOp(frame, gamma), ref)


def test_k_reference_does_not_read_the_frame_factors(tiny_setup,
                                                      monkeypatch):
    # the product-form reference for K(gamma) builds Pi, the number
    # diagonal and the offset itself, not from the factors it checks
    import fqed.hamiltonian as hamiltonian

    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=5e-3,
                                 p_total=np.array([0.2, 0.0, 0.1]))
    g = np.array([0.15, 0.05, 0.0])
    frame = FiberFamily(params, grid, basis, 1).frame(g)

    def no_factors(*args, **kwargs):
        raise AssertionError("reference read the frame's factors")

    monkeypatch.setattr(hamiltonian, "_frame_factors", no_factors)
    ref, offset = assemble_displaced_hamiltonian(params, grid, basis, 1, g,
                                                 np.zeros(3))
    assert offset == frame.s
    assert_factor_form_matches(FactorOp(frame, np.zeros(3)), ref)


@settings(max_examples=40, deadline=None)
@given(ALPHAS, MOMENTA)
def test_slice_telescoping_on_random_boxes(tiny_setup, alpha, p):
    # H(1) == H(0) + slice(0) entrywise
    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=alpha, p_total=p)
    h1 = assemble_h_fiber(params, grid, basis, 1)
    h0 = assemble_h_fiber(params, grid, basis, 0)
    dh = assemble_slice_interaction(params, grid, basis, 0)
    assert abs(h1 - h0 - dh).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(ALPHAS, MOMENTA, GRADIENTS, SHIFTS)
def test_frame_bridge_on_random_boxes(tiny_setup, alpha, p, g, gamma):
    # Khat(1) == K(0) + delta_k + (offset_hat - offset) entrywise, with the
    # scale-0 Gamma = Pi - gamma in delta_k
    params, grid, basis = tiny_setup
    params = dataclasses.replace(params, alpha=alpha, p_total=p)
    family = FiberFamily(params, grid, basis, 0)
    k_prev, off_prev = assemble_displaced_hamiltonian(
        params, grid, basis, 0, g, gamma)
    k_hat, off_hat = assemble_intermediate_hamiltonian(
        FiberFamily(params, grid, basis, 1), g, gamma)
    pi = displaced_momentum_ops(family, g)
    eye = sp.identity(basis.size, format="csr")
    gamma_ops = [pi[i] - gamma[i] * eye for i in range(3)]
    dk = delta_k_interaction(params, grid, basis, 1, gamma_ops, g)
    bridge = k_prev + dk + (off_hat - off_prev) * eye
    assert abs(k_hat.tocsr() - bridge).max() <= 1e-12


def ladder_factors(params, grid, basis, j, g=None):
    """beta_i, or Pi_i at the gradient g, summed mode by mode from
    ``fock.ladder`` pairs, explicit zeros removed."""
    from fqed.fock import ladder, number_diagonal

    f = np.zeros(grid.n_modes) if g is None else displacement_coeffs(
        g, grid, range(j), params.alpha)
    coupling = np.sqrt(grid.weight / grid.knorm)
    ops = [sp.diags(number_diagonal(basis, grid.k[:, i])).tocsr()
           for i in range(3)]
    for m in range(grid.n_modes):
        ann, cre = ladder(basis, m)
        for i in range(3):
            c = -grid.k[m, i] * f[m]
            if grid.shell[m] < j:
                c -= np.sqrt(params.alpha) * coupling[m] * grid.eps_vec[m, i]
            ops[i] = ops[i] + c * (ann + cre)
    for op in ops:
        op.eliminate_zeros()
    return ops


@settings(max_examples=12, deadline=None)
@given(ALPHAS, st.integers(0, 2), GRADIENTS)
def test_one_pass_factors_match_the_ladder_algebra(small_setup, alpha, j,
                                                   g):
    # beta and Pi, on the whole basis and on sectors j and j + 1: the same
    # entries as the ladder sums, each within 1e-15 relative, and no
    # stored zero (alpha = 0 zeroes every field coefficient)
    params, grid, basis = small_setup
    params = dataclasses.replace(params, alpha=alpha)
    family = FiberFamily(params, grid, basis, j)
    for ref, factors in ((ladder_factors(params, grid, basis, j),
                          family.factors),
                         (ladder_factors(params, grid, basis, j, g),
                          family.frame(g))):
        for s in range(j, min(j + 1, params.n_scales) + 1):
            idx = basis.sector_indices(grid, s)
            for got, ops in ((factors.stacked, ref),
                             (factors.sector(idx).stacked,
                              [op[idx][:, idx] for op in ref])):
                # the stack is F_0, F_1, F_2 one under the other
                want = sp.vstack(ops, format="csr")
                assert np.all(got.data != 0.0)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.all(np.abs(got.data - want.data)
                              <= 1e-15 * np.abs(want.data))


def test_scale_factors_map_sectors_j_and_j_plus_1_into_themselves(
        small_setup):
    # the restriction of a square is the square of the restrictions only
    # if no factor leaks out of the sector: every entry of beta_i and Pi_i
    # between a sector-j or sector-(j + 1) state and a state outside is 0
    params, grid, basis = small_setup
    g = np.array([0.09, 0.01, 0.0])
    for j in range(params.n_scales + 1):
        family = FiberFamily(params, grid, basis, j)
        for s in range(j, min(j + 1, params.n_scales) + 1):
            inside = np.zeros(basis.size, dtype=bool)
            inside[basis.sector_indices(grid, s)] = True
            # row r of every F_i is a row of the stack
            rows = np.tile(inside, 3)
            for op in (family.factors.stacked, family.frame(g).stacked):
                assert op[~rows][:, inside].count_nonzero() == 0
                assert op[rows][:, ~inside].count_nonzero() == 0


def test_family_sectors_are_built_once(small_setup, monkeypatch):
    # every H(P) of a family shares one set of sector factors per sector,
    # and so does every K(gamma) of a frame; the whole basis is the
    # family's own factors, not a copy, and a frame's factors are built
    # when the frame is
    from fqed import hamiltonian

    builds = []
    init = hamiltonian._Factors.__init__

    def counted(self, basis, diag, coeffs, d, s=0.0, idx=None):
        builds.append(len(d))
        init(self, basis, diag, coeffs, d, s, idx)

    monkeypatch.setattr(hamiltonian._Factors, "__init__", counted)
    params, grid, basis = small_setup
    family = FiberFamily(params, grid, basis, 1)
    frame = family.frame(np.array([0.09, 0.01, 0.0]))
    idx = {s: basis.sector_indices(grid, s) for s in (1, 2)}
    assert len(idx[2]) == basis.size > len(idx[1])
    zero = np.zeros(3)
    for _ in range(2):
        hs = [family.h(p).sector(idx[s]) for p in (params.p_total, zero)
              for s in (1, 2)]
        ks = [FactorOp(frame, gamma).sector(idx[1])
              for gamma in (zero, np.array([0.002, 0.0, -0.001]))]
    assert builds == [basis.size, basis.size, len(idx[1]), len(idx[1])]
    assert hs[0].factors is hs[2].factors is not family.h(zero).factors
    assert hs[1].factors is hs[3].factors is family.h(zero).factors
    assert ks[0].factors is ks[1].factors
    # the sector operator is the full one on the sector's states
    v = np.zeros(basis.size)
    v[idx[1]] = np.random.default_rng(3).standard_normal(len(idx[1]))
    for op in (family.h(params.p_total), FactorOp(frame, [0.01, 0, 0])):
        full = op @ v
        assert np.max(np.abs(full[idx[1]] - op.sector(idx[1]) @ v[idx[1]])) \
            <= 1e-15 * np.max(np.abs(full))
        assert np.all(np.delete(full, idx[1]) == 0.0)
