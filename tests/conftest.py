"""Shared solves; session-scoped so expensive fields are computed once."""

import math

import numpy as np
import pytest
from scipy import sparse

from emlab.geometry import build_domain, make_shape
from emlab.lagrangian import eval_jet, make_model
from emlab.solver import solve_euler_lagrange, solve_radial

H64 = 1.0 / 64

# closed-form annular torsion profile u = r^2/4 + A ln r + B, u(a) = u(b) = 0
ANNULUS_A, ANNULUS_B = 0.3, 1.0
ANN_LOG_COEF = -(ANNULUS_B**2 - ANNULUS_A**2) / (4.0 * math.log(ANNULUS_B / ANNULUS_A))
ANN_CONST = -ANNULUS_A**2 / 4.0 - ANN_LOG_COEF * math.log(ANNULUS_A)


def annulus_exact_u(r):
    return r**2 / 4.0 + ANN_LOG_COEF * np.log(r) + ANN_CONST


def annulus_exact_du(r):
    return r / 2.0 + ANN_LOG_COEF / r


def scipy_csr(M):
    """The ``scipy.sparse.csr_matrix`` of copies of the arrays of the emlab
    matrix ``M``: scipy may sort a matrix's columns in place."""
    return sparse.csr_matrix((M.data.copy(), M.indices.copy(), M.indptr.copy()),
                             shape=M.shape)


def lambda1_radial(model, profile, radii, n):
    """lambda1 along a radial profile; constant when n = 1 (the divergence-
    free tensor is scalar there, so its derivative vanishes)."""
    r = np.linspace(radii[0], radii[1], 2048)
    p = np.abs(profile.du_at(r))
    jet = eval_jet(model, p, profile.u_at(r))
    return p * jet.F_p - jet.F


@pytest.fixture(scope="session")
def torsion_model():
    return make_model("dirichlet_affine", [0.5, 1.0])


@pytest.fixture(scope="session")
def shifted_model():
    return make_model("dirichlet_affine", [-0.2, 1.0])


@pytest.fixture(scope="session")
def laplace_model():
    return make_model("dirichlet_affine", [1.0, 0.0])  # F = p^2/2 + 1, source-free


@pytest.fixture(scope="session")
def exp_model():
    return make_model("dirichlet_exponential", [1.0, 1.0])


@pytest.fixture(scope="session")
def minsurf_model():
    return make_model("minimal_surface", [2.0, 1.0])


@pytest.fixture(scope="session")
def disc64(
):
    return build_domain(make_shape("disc", [1.0]), H64)


@pytest.fixture(scope="session")
def annulus64():
    return build_domain(make_shape("annulus", [ANNULUS_A, ANNULUS_B]), H64)


@pytest.fixture(scope="session")
def torsion_result(torsion_model, disc64):
    return solve_euler_lagrange(torsion_model, disc64)


@pytest.fixture(scope="session")
def shifted_result(shifted_model, disc64):
    return solve_euler_lagrange(shifted_model, disc64)


@pytest.fixture(scope="session")
def laplace_result(laplace_model, disc64):
    return solve_euler_lagrange(laplace_model, disc64)


@pytest.fixture(scope="session")
def exp_result(exp_model, disc64):
    return solve_euler_lagrange(exp_model, disc64)


@pytest.fixture(scope="session")
def annulus_result(torsion_model, annulus64):
    return solve_euler_lagrange(torsion_model, annulus64)


@pytest.fixture(scope="session")
def torsion_radial(torsion_model):
    return solve_radial(torsion_model, (0.0, 1.0), n=2)


@pytest.fixture(scope="session")
def exp_radial(exp_model):
    return solve_radial(exp_model, (0.0, 1.0), n=2)
