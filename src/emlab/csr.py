"""Compressed sparse row matrices over scipy's compiled sparse kernels.

A ``CSR`` holds the ``data``, ``indices``, ``indptr`` and ``shape`` of a
sparse matrix.  Each operation is one call of a kernel of scipy's
``sparse._sparsetools`` extension, with the arguments ``scipy.sparse``
passes it: the bits and the layout of the ``scipy.sparse`` expression it
names, without the import of ``scipy.sparse``, which loads about 300 modules
that no operation needs.  Indices are int32, as scipy's below 2**31.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np

INDEX = np.int32


def _load_sparsetools():
    """The ``sparse._sparsetools`` extension of the installed scipy, loaded
    from its file under its own name, which imports no scipy package and
    leaves in ``sys.modules`` the one module object that a later ``import
    scipy.sparse`` reads; imported from ``scipy.sparse`` where no such file
    exists."""
    name = "scipy.sparse._sparsetools"
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "sparse", "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_sparsetools = _load_sparsetools()


class CSR:
    """A sparse matrix of ``shape`` in compressed sparse row form; with
    ``format`` "csc", the transpose view of one, which reads its arrays
    column by column, as scipy's ``.T`` of a CSR matrix does."""

    def __init__(self, data, indices, indptr, shape, format="csr"):
        self.nnz = int(indptr[-1])
        self.data, self.indices, self.indptr = data[:self.nnz], indices[:self.nnz], indptr
        self.shape, self.format = tuple(shape), format

    @classmethod
    def from_coo(cls, data, rows, cols, shape):
        """The matrix with ``data[k]`` at ``(rows[k], cols[k])``, duplicates
        summed: ``scipy.sparse.csr_matrix((data, (rows, cols)), shape)``."""
        nnz = len(data)
        if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= shape[0]
                    or cols.max() >= shape[1]):
            raise ValueError("a COO index lies outside the shape")
        indptr, indices, values = (np.empty(shape[0] + 1, INDEX), np.empty(nnz, INDEX),
                                   np.empty_like(data))
        _sparsetools.coo_tocsr(*shape, nnz, rows.astype(INDEX), cols.astype(INDEX), data,
                               indptr, indices, values)
        M = cls(values, indices, indptr, shape)
        M.sum_duplicates()
        return M

    @property
    def T(self):
        return CSR(self.data, self.indices, self.indptr, self.shape[::-1],
                   "csc" if self.format == "csr" else "csr")

    def tocsr(self):
        """This matrix in CSR form: itself, or for a transpose view the
        transpose of its arrays' matrix, its columns sorted in each row."""
        if self.format == "csr":
            return self
        M, N = self.shape
        indptr, indices, data = (np.empty(M + 1, INDEX), np.empty(self.nnz, INDEX),
                                 np.empty(self.nnz))
        _sparsetools.csr_tocsc(N, M, self.indptr, self.indices, self.data, indptr, indices, data)
        return CSR(data, indices, indptr, self.shape)

    def sum_duplicates(self):
        """Sort the columns of unsorted rows and sum duplicate entries, in
        place, as scipy's ``sum_duplicates``: the canonical layout."""
        n = self.shape[0]
        if _sparsetools.csr_has_canonical_format(n, self.indptr, self.indices):
            return
        if not _sparsetools.csr_has_sorted_indices(n, self.indptr, self.indices):
            _sparsetools.csr_sort_indices(n, self.indptr, self.indices, self.data)
        _sparsetools.csr_sum_duplicates(*self.shape, self.indptr, self.indices, self.data)
        self.nnz = int(self.indptr[-1])
        self.data, self.indices = self.data[:self.nnz], self.indices[:self.nnz]

    def matvec(self, v, out):
        """``out = self @ v`` in the bits of ``self @ v``: ``out`` must be a
        C-contiguous float array of its own, or the kernel writes a copy."""
        out.fill(0.0)
        getattr(_sparsetools, self.format + "_matvec")(*self.shape, self.indptr, self.indices,
                                                       self.data, v, out)
        return out

    def __matmul__(self, other):
        """The product with a vector, or with a CSR matrix (both in CSR
        form), whose exact zeros the kernel drops and whose columns it
        leaves in each row in the order it first reached them, reversed."""
        if not isinstance(other, CSR):
            if np.shape(other) != self.shape[1:]:
                raise ValueError(f"cannot multiply {self.shape} by {np.shape(other)}")
            return self.matvec(other, np.empty(self.shape[0]))
        _check_csr(self, other, self.shape[1] == other.shape[0])
        M, N = self.shape[0], other.shape[1]
        nnz = _sparsetools.csr_matmat_maxnnz(M, N, self.indptr, self.indices,
                                             other.indptr, other.indices)
        indptr, indices, data = np.empty(M + 1, INDEX), np.empty(nnz, INDEX), np.empty(nnz)
        _sparsetools.csr_matmat(M, N, self.indptr, self.indices, self.data,
                                other.indptr, other.indices, other.data, indptr, indices, data)
        return CSR(data, indices, indptr, (M, N))

    def __sub__(self, other):
        _check_csr(self, other, self.shape == other.shape)
        nnz = self.nnz + other.nnz
        indptr, indices, data = np.empty_like(self.indptr), np.empty(nnz, INDEX), np.empty(nnz)
        _sparsetools.csr_minus_csr(*self.shape, self.indptr, self.indices, self.data,
                                   other.indptr, other.indices, other.data, indptr, indices, data)
        return CSR(data, indices, indptr, self.shape)

    def __abs__(self):
        """Entrywise absolute values (scipy's ``abs`` first sums duplicates)."""
        return CSR(np.abs(self.data), self.indices, self.indptr, self.shape, self.format)

    def diagonal(self):
        shape = self.shape if self.format == "csr" else self.shape[::-1]
        y = np.empty(min(shape))
        _sparsetools.csr_diagonal(0, *shape, self.indptr, self.indices, self.data, y)
        return y

    def toarray(self):
        M = self.tocsr()
        out = np.zeros(M.shape)
        _sparsetools.csr_todense(*M.shape, M.indptr, M.indices, M.data, out)
        return out


def _check_csr(A, B, shapes_fit):
    if not (A.format == B.format == "csr" and shapes_fit):
        raise ValueError(f"not two CSR operands that fit: {A.shape}, {B.shape}")


def diags(d):
    """The diagonal matrix of the vector ``d``, its zero entries left out,
    as ``scipy.sparse.diags(d)`` turns into CSR for a product: so
    ``diags(w * d) @ M`` is ``w * scipy.sparse.diags(d) @ M``, each entry
    ``(w d_i) M_ij``."""
    keep = d != 0.0
    indptr = np.zeros(len(d) + 1, INDEX)
    np.cumsum(keep, out=indptr[1:])
    return CSR(d[keep], np.flatnonzero(keep).astype(INDEX), indptr, (len(d), len(d)))
