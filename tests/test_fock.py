import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from fqed.fock import (ResourceError, _raise_count, annihilate, basis_size,
                       enumerate_basis, ladder, linear_field, number_diagonal,
                       symmetry_defect)
from fqed.modes import CutoffSequence, ParameterError, build_grid


def brute_force_count(n_modes, n_max, c_max):
    """Independent enumeration oracle by filtering the full product set."""
    return sum(1 for occ in itertools.product(range(c_max + 1),
                                              repeat=n_modes)
               if sum(occ) <= n_max)


def test_enumeration_m2_n1():
    basis = enumerate_basis(2, 1, 1)
    states = [tuple(row) for row in basis.occupations]
    assert states == [(0, 0), (1, 0), (0, 1)]


def test_enumeration_m2_n2():
    basis = enumerate_basis(2, 2, 2)
    assert basis.size == 6
    states = [tuple(row) for row in basis.occupations]
    assert states[0] == (0, 0)
    assert states == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumeration_count_oracle_m12():
    expected = brute_force_count(12, 2, 2)
    assert expected == 91
    basis = enumerate_basis(12, 2, 2)
    assert basis.size == 91
    assert basis_size(12, 2, 2) == 91


@pytest.mark.parametrize("m,n,c", [(3, 3, 2), (4, 2, 1), (5, 3, 3)])
def test_basis_size_matches_brute_force(m, n, c):
    assert basis_size(m, n, c) == brute_force_count(m, n, c)
    basis = enumerate_basis(m, n, c)
    assert basis.size == basis_size(m, n, c)
    # every admissible vector exactly once
    seen = {tuple(r) for r in basis.occupations}
    assert len(seen) == basis.size
    assert np.all(basis.occupations.sum(axis=1) <= n)
    assert np.all(basis.occupations <= c)


def test_graded_ordering():
    basis = enumerate_basis(3, 2, 2)
    totals = basis.totals
    assert np.all(np.diff(totals) >= 0)
    assert totals[0] == 0


@pytest.mark.parametrize("m,n,c", [
    (0, 2, 1), (1, 0, 3), (1, 4, 2), (2, 1, 1), (3, 7, 2), (4, 3, 2),
    (4, 3, 5), (5, 2, 2), (6, 4, 1), (8, 3, 3)])
def test_enumeration_order_matches_product_oracle(m, n, c):
    # graded by total, reverse-lexicographic within a level: a sort of the
    # product set, which shares nothing with the closed-form ranks
    oracle = sorted((occ for occ in itertools.product(range(c + 1),
                                                      repeat=m)
                     if sum(occ) <= n),
                    key=lambda occ: (sum(occ), [-k for k in occ]))
    basis = enumerate_basis(m, n, c)
    assert [tuple(row) for row in basis.occupations] == oracle


def test_enumeration_of_many_modes():
    # a recursion one level deep per mode would exceed the interpreter's
    # recursion limit
    basis = enumerate_basis(1200, 1, 1)
    assert basis.size == 1201
    assert np.array_equal(basis.occupations[1:], np.eye(1200, dtype=np.int16))


def test_size_limit_enforced():
    with pytest.raises(ResourceError):
        enumerate_basis(30, 4, 4, size_limit=1000)


def test_check_basis_size_refuses_on_the_compositions_bound(monkeypatch):
    # every composition of 1,999,999 quanta over 12 modes fits the caps, so
    # the 8.551e66 states are refused without counting them
    import fqed.fock as fock

    def no_count(*args):
        raise AssertionError("basis_size was called")

    monkeypatch.setattr(fock, "basis_size", no_count)
    with pytest.raises(ResourceError, match="at least 5.131e61 states"):
        fock.check_basis_size(12, 1999999, 1999999)


def test_check_basis_size_refuses_a_raise_table_over_budget(monkeypatch):
    # 67.0M occupation entries are under ENTRY_LIMIT, but the 44.6M raises
    # would take about 3 GiB; refused before anything is built
    import fqed.fock as fock

    def no_build(*args):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(fock, "_build_levels", no_build)
    assert 14 * fock.basis_size(14, 28, 2) < fock.ENTRY_LIMIT
    with pytest.raises(ResourceError, match="44641044 raises"):
        fock.enumerate_basis(14, 28, 2, size_limit=5_000_000)


@pytest.mark.parametrize("m,n,c", [(36, 3, 3), (300, 2, 1)])
def test_enumeration_budget_bounds_the_peak(m, n, c):
    # the bytes check_basis_size charges are at least what the build holds
    import fqed.fock as fock

    charged = (fock.ENTRY_BYTES * basis_size(m, n, c) * m
               + fock.RAISE_BYTES * _raise_count(m, n, c)
               + fock.BLOCK_BYTES)
    tracemalloc.start()
    try:
        enumerate_basis(m, n, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charged


def loop_raise_table(basis):
    """The raise table by a double loop over states and modes, each target
    looked up by its occupation: the reference for the closed-form ranks."""
    occ = basis.occupations.copy()
    index = {row.tobytes(): i for i, row in enumerate(occ)}
    src, dst, mode, amp = [], [], [], []
    for s, total in enumerate(occ.sum(axis=1)):
        if total >= basis.n_max:
            continue
        row = occ[s]
        for m in range(basis.n_modes):
            if row[m] >= basis.c_max:
                continue
            row[m] += 1
            dst.append(index[row.tobytes()])
            row[m] -= 1
            src.append(s)
            mode.append(m)
            amp.append(np.sqrt(row[m] + 1.0))
    return (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
            np.asarray(mode, dtype=np.int64), np.asarray(amp, dtype=float))


@pytest.mark.parametrize("m,n,c", [
    (0, 2, 1), (1, 0, 3), (1, 4, 2), (2, 1, 1), (3, 7, 2), (4, 3, 5),
    (5, 2, 2), (6, 4, 1), (8, 3, 3), (12, 2, 2), (36, 3, 3)])
def test_raise_table_matches_the_loop_oracle(m, n, c):
    # caps above, at and below the reachable total, one and many modes;
    # the arrays are byte-identical, dtypes included
    basis = enumerate_basis(m, n, c)
    got = (basis.raise_src, basis.raise_dst, basis.raise_mode,
           basis.raise_amp)
    for ref, arr in zip(loop_raise_table(basis), got):
        assert arr.dtype == ref.dtype
        assert arr.tobytes() == ref.tobytes()
    assert len(basis.raise_src) == _raise_count(m, n, c)


@pytest.mark.parametrize("block", [7, 12, 40])
def test_basis_over_blocks_of_states(monkeypatch, block):
    # a level goes through in blocks: a block of 7 occupation entries
    # holds one state, the smallest block, and at 12 and 40 entries the
    # 15 states of level 2 take eight and two blocks
    import fqed.fock as fock

    ref = enumerate_basis(5, 3, 2)
    monkeypatch.setattr(fock, "_RAISE_BLOCK", block)
    basis = enumerate_basis(5, 3, 2)
    for name in ("occupations", "raise_src", "raise_dst", "raise_mode",
                 "raise_amp"):
        assert getattr(basis, name).tobytes() == getattr(ref, name).tobytes()


def test_annihilate_from_the_raise_table_matches_ladder():
    basis = enumerate_basis(4, 3, 2)
    v = np.random.default_rng(5).standard_normal(basis.size)
    for m in range(4):
        assert np.array_equal(annihilate(basis, m, v), ladder(basis, m)[0] @ v)


def test_index_of_refuses_a_state_outside_the_basis():
    basis = enumerate_basis(2, 2, 1)
    assert basis.index_of((1, 1)) == 3
    with pytest.raises(KeyError):
        basis.index_of((2, 0))


def test_bad_caps_rejected():
    with pytest.raises(ParameterError):
        enumerate_basis(2, 1, 0)


def test_create_on_vacuum():
    basis = enumerate_basis(1, 2, 2)
    ann, cre = ladder(basis, 0)
    v = basis.vacuum()
    out = cre @ v
    assert out[basis.index_of((1,))] == pytest.approx(1.0)
    assert np.count_nonzero(out) == 1


def test_number_operator_eigenvalue():
    basis = enumerate_basis(1, 2, 2)
    ann, cre = ladder(basis, 0)
    two = np.zeros(basis.size)
    two[basis.index_of((2,))] = 1.0
    out = (cre @ (ann @ two))
    assert out[basis.index_of((2,))] == pytest.approx(2.0)


def test_annihilate_is_exact_transpose():
    basis = enumerate_basis(4, 2, 2)
    for m in range(4):
        ann, cre = ladder(basis, m)
        assert (ann - cre.T).nnz == 0


def test_ccr_on_uncapped_subspace():
    basis = enumerate_basis(3, 2, 2)
    ops = [ladder(basis, m) for m in range(3)]
    uncapped = basis.totals < basis.n_max
    for m in range(3):
        for mp in range(3):
            ann_m, cre_m = ops[m]
            ann_p, cre_p = ops[mp]
            comm = (ann_m @ cre_p - cre_p @ ann_m).toarray()
            expected = np.eye(basis.size) if m == mp else \
                np.zeros((basis.size, basis.size))
            # columns whose state saturates no cap obey the exact algebra
            cols = uncapped & (basis.occupations[:, mp] < basis.c_max)
            assert np.allclose(comm[:, cols], expected[:, cols], atol=1e-14)
            lower = (ann_m @ ann_p - ann_p @ ann_m)
            assert lower.nnz == 0


def test_linear_field_symmetric_and_matches_ladders():
    basis = enumerate_basis(3, 2, 2)
    coeff = np.array([0.5, -0.25, 1.5])
    field = linear_field(basis, coeff)
    assert symmetry_defect(field) == 0.0
    ref = sum(c * (ladder(basis, m)[0] + ladder(basis, m)[1])
              for m, c in enumerate(coeff))
    assert abs(field - ref).max() < 1e-15


def test_sector_restriction():
    cut = CutoffSequence(1.0, 0.25, 2)
    grid = build_grid(cut, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    idx0 = basis.sector_indices(grid, 0)
    assert list(idx0) == [0]
    idx1 = basis.sector_indices(grid, 1)
    occ = basis.occupations[idx1]
    assert np.all(occ[:, grid.shell >= 1] == 0)
    assert len(idx1) == basis_size(12, 2, 2)


def test_sector_indices_are_found_once_and_read_only():
    # one array per scale and active-mode set, shared by every caller, so
    # no caller may write to it; a grid of the same mode count with other
    # active modes at the same scale gets its own sector
    cut = CutoffSequence(1.0, 0.25, 2)
    grid = build_grid(cut, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    for j in range(3):
        idx = basis.sector_indices(grid, j)
        want = np.flatnonzero(
            basis.occupations[:, grid.shell >= j].sum(axis=1) == 0)
        assert np.array_equal(idx, want)
        assert basis.sector_indices(grid, j) is idx
        with pytest.raises(ValueError):
            idx[0] = 1
    flipped = dataclasses.replace(grid, shell=grid.shell[::-1].copy())
    idx = basis.sector_indices(flipped, 1)
    want = np.flatnonzero(
        basis.occupations[:, flipped.shell >= 1].sum(axis=1) == 0)
    assert np.array_equal(idx, want)
    assert not np.array_equal(idx, basis.sector_indices(grid, 1))


def test_number_diagonal():
    basis = enumerate_basis(2, 2, 2)
    d = number_diagonal(basis, np.array([2.0, 3.0]))
    assert d[basis.index_of((1, 1))] == pytest.approx(5.0)
    assert d[basis.index_of((2, 0))] == pytest.approx(4.0)
    grid = build_grid(CutoffSequence(1.0, 0.25, 1), 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    assert number_diagonal(basis, grid.knorm)[0] == 0.0
    assert np.array_equal(number_diagonal(basis, np.ones(grid.n_modes)),
                          basis.totals)

