"""Compressed sparse rows, applied by scipy's compiled CSR kernels.

Every sparse operator a command applies is a ``CSR``: the arrays that
``scipy.sparse.csr_matrix((data, (rows, cols)), shape)`` builds from
duplicate-free triplets, with rows ascending and columns ascending within
a row.  Its products call scipy's ``csr_matvec`` and ``csr_matvecs`` into
zeroed output, as ``scipy.sparse`` itself does for a vector and for an
(n, k) block, so every product is bit-identical to the scipy matrix's.

The kernels live in the extension ``scipy/sparse/_sparsetools``, which is
loaded here from its file, so that no command pays for the ``scipy.sparse``
package initializer: its array-API shim clones numpy, which loads
``numpy.f2py`` and ``numpy.testing``, about 0.17 s and 20 MiB per process.
``tocsr()`` returns the scipy matrix, importing ``scipy.sparse`` there, for
the oracles and the tests.  The extension is private to scipy; the tests
compare every product with scipy's bit for bit, so a scipy whose kernel
changes fails them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np


def _load_sparsetools():
    """scipy's ``sparse/_sparsetools`` extension, loaded from its file:
    ``find_spec`` locates scipy without importing it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed: its compiled CSR kernels "
                          "apply every sparse operator")
    where = Path(spec.submodule_search_locations[0]) / "sparse"
    finder = importlib.machinery.FileFinder(
        str(where), (importlib.machinery.ExtensionFileLoader,
                     importlib.machinery.EXTENSION_SUFFIXES))
    found = finder.find_spec("scipy.sparse._sparsetools")
    if found is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no _sparsetools "
                          f"extension in {where}")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


class CSR:
    """A real sparse matrix in compressed sparse rows, built from
    duplicate-free triplets (``data[e]`` at ``rows[e]``, ``cols[e]``) in
    any order.

    ``data``, ``indices`` and ``indptr`` are scipy's arrays for the same
    triplets, explicit zeros kept, with 32-bit indices where they fit.
    ``@`` takes a vector, an (n, 1) column or an (n, k) block, as scipy's
    ``@`` does.
    """

    def __init__(self, data, rows, cols, shape: tuple[int, int]):
        n_rows, n_cols = self.shape = (int(shape[0]), int(shape[1]))
        data, rows, cols = (np.asarray(data, dtype=float), np.asarray(rows),
                            np.asarray(cols))
        nnz = len(data)
        # the kernel writes where the indices point: check them first
        if not data.ndim == rows.ndim == cols.ndim == 1 or not (
                len(rows) == len(cols) == nnz):
            raise ValueError("CSR triplets must be three 1-d arrays of one "
                             "length")
        if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= n_rows
                    or cols.max() >= n_cols):
            raise ValueError(f"CSR triplet index outside the {n_rows} x "
                             f"{n_cols} shape")
        index = (np.int32 if max(nnz, n_rows, n_cols) < 2 ** 31
                 else np.int64)
        self.data = np.empty(nnz)
        self.indices = np.empty(nnz, dtype=index)
        self.indptr = np.empty(n_rows + 1, dtype=index)
        # scipy's own conversion: a counting sort by row, then the columns
        # of each row sorted where they are not already ascending
        _sparsetools.coo_tocsr(n_rows, n_cols, nnz,
                               np.asarray(rows, dtype=index),
                               np.asarray(cols, dtype=index), data,
                               self.indptr, self.indices, self.data)
        if not self._canonical():
            _sparsetools.csr_sort_indices(n_rows, self.indptr, self.indices,
                                          self.data)
            if not self._canonical():
                raise ValueError("CSR triplets hold a duplicate entry")

    def _canonical(self) -> bool:
        """Whether every row's columns strictly ascend."""
        return bool(_sparsetools.csr_has_canonical_format(
            self.shape[0], self.indptr, self.indices))

    def __matmul__(self, x):
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise TypeError("a CSR product takes real operands only")
        x = np.ascontiguousarray(x, dtype=float)
        m, n = self.shape
        if x.shape == (n,):
            out = np.zeros(m)
            _sparsetools.csr_matvec(m, n, self.indptr, self.indices,
                                    self.data, x, out)
            return out
        if x.shape == (n, 1):
            return (self @ x.reshape(n)).reshape(m, 1)
        if x.ndim == 2 and x.shape[0] == n:
            out = np.zeros((m, x.shape[1]))
            _sparsetools.csr_matvecs(m, n, x.shape[1], self.indptr,
                                     self.indices, self.data, x.reshape(-1),
                                     out.reshape(-1))
            return out
        raise ValueError(f"matmul: a {m} x {n} CSR cannot take an operand "
                         f"of shape {x.shape}")

    def tocsr(self):
        """The same matrix as a ``scipy.sparse.csr_matrix``, sharing these
        arrays."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=self.shape)
