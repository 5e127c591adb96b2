"""``emlab.csr`` against ``scipy.sparse``, bit for bit: values, index arrays,
their dtypes and the layout each operation leaves."""

import importlib.machinery

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from emlab import csr, solver
from emlab.csr import CSR, diags
from emlab.geometry import build_domain, make_shape
from emlab.solver import _assemble, _conductances
from conftest import scipy_csr

SHAPES = [("disc", [1.0]), ("annulus", [0.3, 1.0]), ("ellipse", [1.0, 0.6]),
          ("rectangle", [1.0, 0.7])]


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.dtype == np.float64 else a


def assert_same(M, S):
    """The emlab matrix ``M`` has the shape, the arrays and their dtypes of
    the scipy matrix ``S``, values compared as bits."""
    assert M.shape == S.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(M, name), getattr(S, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(_bits(a), _bits(b)), name


def assert_same_vector(x, y):
    assert x.dtype == y.dtype and np.array_equal(_bits(x), _bits(y))


def _random_coo(rng, shape, nnz):
    """COO triplets in random order with duplicates, every third row empty."""
    rows = rng.choice(np.arange(0, shape[0], 3) + 1, nnz) % shape[0]
    cols = rng.integers(0, shape[1], nnz)
    rows, cols = np.concatenate([rows, rows[:nnz // 4]]), np.concatenate([cols, cols[:nnz // 4]])
    data = rng.standard_normal(len(rows))
    return data, rows, cols


def _pair(rng, shape, nnz):
    data, rows, cols = _random_coo(rng, shape, nnz)
    return (CSR.from_coo(data, rows, cols, shape),
            sparse.csr_matrix((data, (rows, cols)), shape=shape))


@pytest.fixture
def rng():
    return np.random.default_rng(20261017)


class TestOperations:
    def test_from_coo(self, rng):
        for shape, nnz in (((40, 30), 300), ((1, 5), 4), ((7, 7), 0)):
            M, S = _pair(rng, shape, nnz)
            assert_same(M, S)

    def test_sum_duplicates_of_sorted_and_unsorted_rows(self):
        # row 0 sorted with a duplicate, row 1 unsorted with one, row 2 canonical
        indptr = np.array([0, 3, 6, 7], dtype=np.int32)
        for indices in ([0, 0, 2, 3, 1, 3], [1, 1, 2, 2, 0, 2]):
            indices = np.array(indices + [1], dtype=np.int32)
            data = np.arange(1.0, 8.0) / 3.0
            M = CSR(data.copy(), indices.copy(), indptr.copy(), (3, 4))
            S = sparse.csr_matrix((data, indices, indptr), shape=(3, 4))
            M.sum_duplicates()
            S.sum_duplicates()
            assert_same(M, S)

    def test_products_and_views(self, rng):
        (A, SA), (B, SB), (C, SC) = (_pair(rng, s, n) for s, n in
                                     (((50, 40), 400), ((40, 60), 500), ((60, 35), 300)))
        AB, SAB = A @ B, SA @ SB  # unsorted rows, as a product leaves them
        assert_same(AB, SAB)
        assert not SAB.has_sorted_indices
        assert_same(AB @ C, SAB @ SC)
        assert_same(AB.T.tocsr(), SAB.T.tocsr())
        assert_same(AB.T.tocsr() @ AB, SAB.T.tocsr() @ SAB)
        v, w = rng.standard_normal(60), rng.standard_normal(50)
        assert_same_vector(AB @ v, SAB @ v)
        assert_same_vector(AB.T @ w, SAB.T @ w)
        assert AB.T.format == SAB.T.format == "csc"
        assert all(np.shares_memory(getattr(AB.T, name), getattr(AB, name))
                   for name in ("data", "indices", "indptr"))

    def test_difference_diagonal_dense_and_abs(self, rng):
        M, S = _pair(rng, (45, 45), 500)
        N, SN = _pair(rng, (45, 45), 300)
        unsorted, s_unsorted = M @ N, S @ SN
        for (X, SX), (Y, SY) in (((M, S), (N, SN)), ((unsorted, s_unsorted), (N, SN)),
                                 ((N, SN), (unsorted, s_unsorted))):
            assert_same(X - Y, SX - SY)
        for X, SX in ((M, S), (unsorted, s_unsorted)):
            assert_same_vector(X.diagonal(), SX.diagonal())
            assert_same_vector(X.T.diagonal(), SX.T.diagonal())
            assert_same_vector(X.toarray(), SX.toarray())
            assert_same_vector(X.T.toarray(), SX.T.toarray())
        # scipy's abs sums duplicates in place first
        absolute = abs(s_unsorted)
        unsorted.sum_duplicates()
        assert_same(unsorted, s_unsorted)
        assert_same(abs(unsorted), absolute)

    def test_exact_cancellation_is_dropped(self):
        A = CSR(np.array([1.0, 1.0, 2.0]), np.array([0, 1, 1], dtype=np.int32),
                np.array([0, 2, 3], dtype=np.int32), (2, 2))
        B = CSR(np.array([0.1, 3.0, -0.1]), np.array([0, 1, 0], dtype=np.int32),
                np.array([0, 2, 3], dtype=np.int32), (2, 2))
        SA, SB = scipy_csr(A), scipy_csr(B)
        assert_same(A @ B, SA @ SB)
        # row 0 is (0.1 - 0.1, 3): of the 3 structural entries, 2 stay
        assert (A @ B).nnz == 2 and np.all((A @ B).data)

    def test_damped_diagonal_product(self, rng):
        # omega * diags(d) @ M: omega scales the diagonal before the product
        M, S = _pair(rng, (40, 40), 300)
        M = M @ M
        S = S @ S
        d = rng.standard_normal(40)
        d[[3, 17]] = 0.0  # left out of the diagonal, their rows empty
        d[5] = np.inf
        omega = solver.MG_PROLONG_OMEGA
        with np.errstate(invalid="ignore"):
            assert_same(diags(omega * d) @ M, omega * sparse.diags(d) @ S)

    def test_operand_checks(self, rng):
        M, _ = _pair(rng, (5, 4), 10)
        with pytest.raises(ValueError):
            M @ np.ones(5)
        with pytest.raises(ValueError):
            M @ M
        with pytest.raises(ValueError):
            M - M.T
        for rows, cols in (([0, 3], [1, 1]), ([0, 1], [-1, 1]), ([0, 1], [1, 3])):
            with pytest.raises(ValueError):
                CSR.from_coo(np.ones(2), np.array(rows), np.array(cols), (3, 3))


class TestLoader:
    def test_one_module_object(self):
        assert csr._sparsetools is _sparsetools

    def test_fallback_imports_scipy_sparse(self, rng, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        kernels = csr._load_sparsetools()
        assert kernels is _sparsetools
        monkeypatch.setattr(csr, "_sparsetools", kernels)
        (A, SA), (B, SB) = _pair(rng, (30, 20), 200), _pair(rng, (20, 25), 200)
        assert_same(A @ B, SA @ SB)
        assert_same((A @ B).T.tocsr(), (SA @ SB).T.tocsr())


def _scipy_multigrid(A, index):
    """Reference: the levels ``(A, MG_SMOOTH_OMEGA D^-1, P)`` of
    ``solver._multigrid`` and its coarsest operator, by the scipy.sparse
    expressions it was first written with."""
    levels = []
    while A.shape[0] > solver.MG_COARSEST:
        T, coarse = solver._tentative_prolongator(index)
        T = scipy_csr(T)
        with np.errstate(all="ignore"):
            dinv = 1.0 / A.diagonal()
            dinv *= 2.0 / np.max(np.abs(dinv) * (abs(A) @ np.ones(A.shape[0])))
        if len(levels) < solver.MG_SMOOTHED_LEVELS:
            P = (T - solver.MG_PROLONG_OMEGA * sparse.diags(dinv) @ (A @ T)).tocsr()
        else:
            P = T
        levels.append((A, solver.MG_SMOOTH_OMEGA * dinv, P))
        A, index = (P.T.tocsr() @ (A @ P)).tocsr(), coarse
    return levels, A


class TestHierarchy:
    @pytest.mark.parametrize("kind,params,h", [(kind, params, 1 / 32) for kind, params in SHAPES]
                             + [("disc", [1.0], 1 / 128)])
    def test_levels_equal_the_scipy_reference(self, kind, params, h, monkeypatch):
        # at h = 1/128 the disc's fourth level prolongs by the tentative one
        dom = build_domain(make_shape(kind, params), h)
        A = _assemble(dom, _conductances(dom, 1.0))
        ref_levels, ref_coarsest = _scipy_multigrid(scipy_csr(A), dom.interior_index)
        seen = []
        real = solver.splu
        monkeypatch.setattr(solver, "splu", lambda M: seen.append(M) or real(M))
        levels, _ = solver._multigrid(A, dom.interior_index).args
        assert len(levels) == len(ref_levels) >= 1
        for (A, wdinv, P, Pt, *_), (ref_A, ref_wdinv, ref_P) in zip(levels, ref_levels):
            assert_same(A, ref_A)
            assert_same_vector(wdinv, ref_wdinv)
            assert_same(P, ref_P)
            assert Pt.format == "csc" and np.shares_memory(Pt.data, P.data)
        assert_same(seen[0], ref_coarsest)

    def test_both_orders_are_load_bearing(self):
        # the bits above depend on omega scaling the diagonal first and on
        # each Galerkin product being sorted before its matvecs: the other
        # order of either differs on the disc at h = 1/32
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        A = _assemble(dom, _conductances(dom, 1.0))
        T, _ = solver._tentative_prolongator(dom.interior_index)
        dinv = 1.0 / A.diagonal()
        AT = A @ T
        first = diags(solver.MG_PROLONG_OMEGA * dinv) @ AT
        after = diags(dinv) @ AT  # omega times (dinv_i (A T)_ij), the same layout
        assert np.array_equal(first.indices, after.indices)
        assert not np.array_equal(_bits(first.data), _bits(solver.MG_PROLONG_OMEGA * after.data))
        P = T - first
        galerkin = P.T.tocsr() @ (A @ P)
        assert not _sparsetools.csr_has_sorted_indices(galerkin.shape[0], galerkin.indptr,
                                                       galerkin.indices)
        v = np.random.default_rng(8).standard_normal(galerkin.shape[1])
        unsorted = galerkin @ v
        galerkin.sum_duplicates()
        assert not np.array_equal(_bits(unsorted), _bits(galerkin @ v))
