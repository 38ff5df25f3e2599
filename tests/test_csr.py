import importlib.machinery
import importlib.util

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from fqed import csr
from fqed.bogoliubov import displacement_coeffs, displacement_generator
from fqed.csr import CSR
from fqed.fock import creation_sum
from fqed.hamiltonian import FiberFamily

GRADIENT = np.array([0.09, 0.01, 0.0])


def _triplets(m):
    """A CSR's entries as (data, rows, cols) in a shuffled order."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    order = np.random.default_rng(1).permutation(len(m.data))
    return m.data[order], rows[order], m.indices[order]


def _operators(setup):
    """name -> (the package's CSR, scipy's matrix for it built without
    ``CSR``)."""
    params, grid, basis = setup
    family = FiberFamily(params, grid, basis, 2)
    factors = {"full": family.factors,
               "sector": family.factors.sector(
                   basis.sector_indices(grid, 1)),
               "frame": family.frame(GRADIENT)}
    ops = {}
    for name, f in factors.items():
        for part in ("stacked", "half_t"):
            m = getattr(f, part)
            data, rows, cols = _triplets(m)
            ops[f"{name}.{part}"] = m, sp.csr_matrix((data, (rows, cols)),
                                                     shape=m.shape)
    coeff = np.sin(np.arange(grid.n_modes) + 0.5)
    coeff[::5] = 0.0   # zero entries are kept
    c = sp.coo_matrix(
        (coeff[basis.raise_mode] * basis.raise_amp,
         (basis.raise_dst, basis.raise_src)),
        shape=(basis.size, basis.size)).tocsr()
    ops["creation_sum"] = creation_sum(basis, coeff), c
    f = displacement_coeffs(GRADIENT, grid, range(2), params.alpha)
    c = creation_sum(basis, f).tocsr()
    ops["weyl"] = displacement_generator(f, basis), (c - c.T).tocsr()
    return ops


NAMES = [f"{f}.{p}" for f in ("full", "sector", "frame")
         for p in ("stacked", "half_t")] + ["creation_sum", "weyl"]


@pytest.mark.parametrize("name", NAMES)
def test_csr_products_are_scipys_bit_for_bit(small_setup, name):
    # the same arrays as scipy's matrix, also when built from its entries
    # in a shuffled order, and the same bits from every product: a vector,
    # an (n, 3) block, its transposed and Fortran-ordered views, and an
    # (n, 1) column
    got, want = _operators(small_setup)[name]
    rng = np.random.default_rng(7)
    n = want.shape[1]
    block = rng.standard_normal((n, 3))
    for m in (got, CSR(*_triplets(want), want.shape)):
        assert m.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(m, part), getattr(want, part))
        for x in (block[:, 0].copy(), block, rng.standard_normal((3, n)).T,
                  np.asfortranarray(block), block[:, :1]):
            out, ref = m @ x, want @ x
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()


def test_weyl_generator_drops_its_zero_entries(small_setup):
    # scipy's c - c.T drops the entries of modes with f_m = 0 (every mode
    # outside the shells), and the generator keeps none of them either
    params, grid, basis = small_setup
    f = displacement_coeffs(GRADIENT, grid, range(1), params.alpha)
    assert np.any(f == 0.0) and np.any(f != 0.0)
    gen = displacement_generator(f, basis)
    assert np.all(gen.data != 0.0)
    assert 0 < len(gen.data) < 2 * len(basis.raise_src)


def test_csr_tocsr_shares_the_arrays():
    m = CSR([2.0, -1.0, 3.0], [1, 0, 1], [2, 1, 0], (2, 3))
    assert m.indptr.tolist() == [0, 1, 3]
    assert m.indices.tolist() == [1, 0, 2]
    assert m.data.tolist() == [-1.0, 3.0, 2.0]
    s = m.tocsr()
    assert np.shares_memory(s.data, m.data)
    assert np.array_equal(s.toarray(), [[0.0, -1.0, 0.0], [3.0, 0.0, 2.0]])


def test_csr_refuses_bad_triplets():
    with pytest.raises(ValueError, match="duplicate"):
        CSR([1.0, 2.0], [0, 0], [1, 1], (2, 2))
    for rows, cols in (([0, 2], [0, 0]), ([0, -1], [0, 0]),
                       ([0, 0], [0, 2]), ([0, 2 ** 32], [0, 1])):
        with pytest.raises(ValueError, match="outside the 2 x 2 shape"):
            CSR([1.0, 2.0], rows, cols, (2, 2))
    with pytest.raises(ValueError, match="one length"):
        CSR([1.0, 2.0], [0], [0, 1], (2, 2))


def test_csr_refuses_complex_and_misshapen_operands():
    m = CSR([1.0], [0], [0], (2, 2))
    with pytest.raises(TypeError, match="real operands"):
        m @ np.ones(2, dtype=complex)
    with pytest.raises(ValueError, match="2 x 2 CSR"):
        m @ np.ones(3)
    with pytest.raises(ValueError, match="2 x 2 CSR"):
        m @ np.ones((2, 2, 2))


def test_missing_kernel_names_scipys_version_and_the_directory(
        tmp_path, monkeypatch):
    # the kernel is never replaced by another path: without the extension
    # file the load fails, saying which scipy and where it looked
    find_spec = importlib.util.find_spec

    def fake_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.setattr(importlib.util, "find_spec", fake_scipy)
    with pytest.raises(ImportError) as exc:
        csr._load_sparsetools()
    assert f"scipy {scipy.__version__}" in str(exc.value)
    assert str(tmp_path / "sparse") in str(exc.value)

    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        csr._load_sparsetools()
