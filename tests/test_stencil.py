"""The shared conservative-flux stencil: tilt conjugation, ordering, conservation."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from rdfronts.coefficients import CoefficientSet, CoefficientSpec, constant_set
from rdfronts.errors import ValidationError
from rdfronts.stencil import coo_pattern, face_sigma, flux_parts, tilted_couplings


def make_set(sigma):
    c = CoefficientSpec.constant
    return CoefficientSet(period=1.0, sigma=sigma, r_u=c(1.0), r_v=c(1.0),
                          kappa_u=c(1.0), kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))


SETS = {
    "cosine": make_set(CoefficientSpec.cosine(1.0, 0.3, 0.4, harmonics=[(0.1, 2, 1.0)])),
    "piecewise": make_set(CoefficientSpec.piecewise([0.0, 0.3, 0.65], [1.0, 0.6, 1.4])),
}


def triplets(cs, nodes, h, boundary, lam=0.0):
    """COO (rows, cols, data) of the stencil tilted by lam, from its parts."""
    diag, up, down = flux_parts(cs, nodes, h, boundary)
    return (*coo_pattern(len(nodes), boundary),
            np.concatenate([diag, *tilted_couplings(up, down, h, lam)]))


def dense(triplets, n):
    rows, cols, data = triplets
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).toarray()


# The zero-ghost ends, under the test id of the Dirichlet boundary.
DIRICHLET = pytest.param("dirichlet_zero", id="dirichlet")


def dirichlet_nodes(n=40, R=2.0):
    h = 2.0 * R / (n + 1)
    return -R + h * np.arange(1, n + 1), h


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["dirichlet_zero"])
@pytest.mark.parametrize("lam", [1.5, -1.5])
def test_tilt_is_conjugation_by_exponential(name, boundary, lam):
    nodes, h = dirichlet_nodes()
    n = len(nodes)
    d0 = dense(triplets(SETS[name], nodes, h, boundary), n)
    tilted = dense(triplets(SETS[name], nodes, h, boundary, lam), n)
    expected = np.exp(lam * nodes)[:, None] * d0 * np.exp(-lam * nodes)[None, :]
    np.testing.assert_allclose(tilted, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet_zero"])
def test_diagonal_triplets_come_first(name, boundary):
    nodes, h = dirichlet_nodes()
    n = len(nodes)
    rows, cols, data = triplets(SETS[name], nodes, h, boundary, 1.5)
    assert np.array_equal(rows[:n], np.arange(n))
    assert np.array_equal(cols[:n], np.arange(n))
    assert not np.any(rows[n:] == cols[n:])
    assert np.all(data[:n] < 0) and np.all(data[n:] > 0)
    # then the couplings to node i+1, then those to node i-1 (diag, up and down in that order)
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
    rows, cols, data = triplets(SETS[name], nodes, h, boundary)
    row_sums = np.bincount(rows, weights=data, minlength=n)
    assert np.max(np.abs(row_sums)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(data))


def test_unknown_boundary_rejected():
    nodes, h = dirichlet_nodes()
    with pytest.raises(ValidationError):
        flux_parts(SETS["cosine"], nodes, h, "absorbing")


@pytest.mark.parametrize("h", [1e-300, 1e300, np.float64(1e-200), np.float64(1e200)])
@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
def test_spacing_without_a_finite_nonzero_square_rejected(h, boundary):
    # h**2 would underflow to 0 or overflow; rejected before any division,
    # so no RuntimeWarning either
    with pytest.raises(ValidationError, match="grid spacing"):
        flux_parts(SETS["cosine"], h * np.arange(16), h, boundary)


@pytest.mark.parametrize("sigma", [1e305, 1.7e308])
@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET, "neumann"])
def test_diagonal_that_is_not_finite_rejected(sigma, boundary):
    # sigma / h**2 overflows at h = 1/64 (the face sum too at 1.7e308);
    # rejected without a RuntimeWarning
    h = 1.0 / 64
    with pytest.raises(ValidationError, match="not finite"):
        flux_parts(constant_set(sigma=sigma), h * np.arange(64), h, boundary)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("boundary", ["neumann", "dirichlet_zero"])
def test_untilted_matrix_is_exactly_symmetric(name, boundary):
    # one sigma per face, shared by the two nodes beside it
    nodes, h = dirichlet_nodes()
    d0 = dense(triplets(SETS[name], nodes, h, boundary), len(nodes))
    assert np.array_equal(d0, d0.T)


def test_smooth_sigma_is_sampled_at_face_midpoints():
    nodes, h = dirichlet_nodes()
    sigma = SETS["cosine"].sigma
    faces = np.append(nodes - 0.5 * h, nodes[-1] + 0.5 * h)
    np.testing.assert_allclose(face_sigma(SETS["cosine"], nodes, h, "dirichlet_zero"),
                               sigma(faces), rtol=1e-14)
    np.testing.assert_allclose(face_sigma(SETS["cosine"], nodes, h, "periodic"),
                               sigma(nodes + 0.5 * h), rtol=0.0, atol=0.0)


def harmonic_by_quadrature(spec, a, h):
    """((1/h) int_a^{a+h} 1/spec)^-1 by adaptive quadrature split at the jumps."""
    L = spec.period
    jumps = [b + j * L for j in range(int(np.floor(a / L)), int(np.ceil((a + h) / L)) + 1)
             for b in spec.breakpoints]
    cuts = [a] + sorted(x for x in jumps if a < x < a + h) + [a + h]
    total = sum(quad(lambda x: 1.0 / spec(x), lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    return h / total


@pytest.mark.parametrize("left, h", [
    (0.28, 0.05),          # straddles the jump at 0.3
    (0.4, 0.05),           # inside one piece
    (0.98, 0.05),          # wraps around the period, across the jump at 0 = 1
    (-1.72, 0.05),         # straddles 0.3 two periods to the left
    (0.25, 0.45),          # spans a whole piece
    (0.1, 2.5),            # longer than the period
])
def test_piecewise_face_is_the_harmonic_cell_mean(left, h):
    cs = SETS["piecewise"]
    face, = face_sigma(cs, np.array([left]), h, "periodic")
    assert face == pytest.approx(harmonic_by_quadrature(cs.sigma, left, h), abs=1e-12)


def test_piecewise_face_inside_one_piece_is_its_value():
    cs = SETS["piecewise"]
    nodes = np.array([0.05, 0.35, 0.7, 3.4])
    assert np.array_equal(face_sigma(cs, nodes, 0.1, "periodic"), [1.0, 0.6, 1.4, 0.6])
