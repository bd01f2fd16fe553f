"""The shared conservative-flux stencil: tilt conjugation, ordering, conservation."""

import numpy as np
import pytest
import scipy.sparse as sp

from rdfronts.coefficients import CoefficientSet, CoefficientSpec
from rdfronts.errors import ValidationError
from rdfronts.stencil import flux_stencil


def make_set(sigma):
    c = CoefficientSpec.constant
    return CoefficientSet(period=1.0, sigma=sigma, r_u=c(1.0), r_v=c(1.0),
                          kappa_u=c(1.0), kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))


SETS = {
    "cosine": make_set(CoefficientSpec.cosine(1.0, 0.3, 0.4, harmonics=[(0.1, 2, 1.0)])),
    "piecewise": make_set(CoefficientSpec.piecewise([0.0, 0.3, 0.65], [1.0, 0.6, 1.4])),
}


def dense(triplets, n):
    rows, cols, data = triplets
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).toarray()


def dirichlet_nodes(n=40, R=2.0):
    h = 2.0 * R / (n + 1)
    return -R + h * np.arange(1, n + 1), h


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["dirichlet", "dirichlet_zero"])
@pytest.mark.parametrize("lam", [1.5, -1.5])
def test_tilt_is_conjugation_by_exponential(name, boundary, lam):
    nodes, h = dirichlet_nodes()
    n = len(nodes)
    d0 = dense(flux_stencil(SETS[name], nodes, h, boundary), n)
    tilted = dense(flux_stencil(SETS[name], nodes, h, boundary, lam), n)
    expected = np.exp(lam * nodes)[:, None] * d0 * np.exp(-lam * nodes)[None, :]
    np.testing.assert_allclose(tilted, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet", "dirichlet_zero"])
def test_diagonal_triplets_come_first(name, boundary):
    nodes, h = dirichlet_nodes()
    n = len(nodes)
    rows, cols, data = flux_stencil(SETS[name], nodes, h, boundary, 1.5)
    assert np.array_equal(rows[:n], np.arange(n))
    assert np.array_equal(cols[:n], np.arange(n))
    assert not np.any(rows[n:] == cols[n:])
    assert np.all(data[:n] < 0) and np.all(data[n:] > 0)
    # then the couplings to node i+1, then those to node i-1 (eigen.tilt_slope relies on it)
    m = (len(rows) - n) // 2
    assert np.all((cols[n:n + m] - rows[n:n + m]) % n == 1)
    assert np.all((rows[n + m:] - cols[n + m:]) % n == 1)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
def test_untilted_rows_sum_to_zero(name, boundary):
    # Periodic rows telescope over one period; zero-flux rows conserve mass,
    # which is what makes the implicit pde diffusion step conservative.
    n = 256
    h = 1.0 / n
    nodes = h * np.arange(n)
    rows, cols, data = flux_stencil(SETS[name], nodes, h, boundary)
    row_sums = np.bincount(rows, weights=data, minlength=n)
    assert np.max(np.abs(row_sums)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(data))


def test_unknown_boundary_rejected():
    nodes, h = dirichlet_nodes()
    with pytest.raises(ValidationError):
        flux_stencil(SETS["cosine"], nodes, h, "absorbing")
