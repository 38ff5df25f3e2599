import itertools

import numpy as np
import pytest

from fqed.fock import (ResourceError, basis_size, enumerate_basis, ladder,
                       linear_field, number_diagonal, symmetry_defect)
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


def test_enumeration_order_matches_product_oracle():
    # graded by total, reverse-lexicographic within a level
    n_modes, n_max, c_max = 4, 3, 2
    oracle = sorted((occ for occ in itertools.product(range(c_max + 1),
                                                      repeat=n_modes)
                     if sum(occ) <= n_max),
                    key=lambda occ: (sum(occ), [-n for n in occ]))
    basis = enumerate_basis(n_modes, n_max, c_max)
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

