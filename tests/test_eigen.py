"""Discrete operator assembly and principal eigenpair computation."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from rdfronts import eigen, pde, util
from rdfronts.coefficients import CoefficientSpec, CoefficientSet, constant_set
from rdfronts.eigen import (
    GridSpec,
    _operator,
    _ShiftedBand,
    _skeleton,
    build_operator,
    dirichlet_eigenvalue,
    k_curve,
    k_of_lambda,
    principal_eigenpair,
    tilt_derivative,
    tilt_slope,
)
from rdfronts.errors import NumericalError, ValidationError
from rdfronts.speeds import spreading_speeds
from rdfronts.stencil import coo_pattern, flux_parts, tilted_couplings
from test_acceptance import criterion_4_set
from test_properties import assert_perron_pair


def cosine_set(**overrides):
    c = CoefficientSpec.constant
    specs = dict(sigma=c(1.0), r_u=c(1.0), r_v=c(1.0), kappa_u=c(1.0),
                 kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))
    specs.update(overrides)
    return CoefficientSet(period=1.0, **specs)


HOMOG = constant_set(sigma=1.0, r_u=1.0, r_v=1.0, mu_u=0.5, mu_v=0.5)  # lambda_A = 1


# -- operator assembly ----------------------------------------------------------

def test_rows_sum_to_growth_rate_for_equal_mutation():
    # flux telescopes and the mutation exchange cancels, leaving r on constants
    cs = constant_set(r_u=1.3, r_v=0.7, mu_u=0.4, mu_v=0.4)
    op = build_operator(cs, 0.0, GridSpec(n_cells=64))
    action = op.matrix @ np.ones(op.dimension)
    assert action[:64] == pytest.approx(np.full(64, 1.3), abs=1e-10)
    assert action[64:] == pytest.approx(np.full(64, 0.7), abs=1e-10)


def test_general_row_sums_on_constants():
    cs = constant_set(r_u=1.3, r_v=0.7, mu_u=0.4, mu_v=0.9)
    op = build_operator(cs, 0.0, GridSpec(n_cells=64))
    action = op.matrix @ np.ones(op.dimension)
    assert action[:64] == pytest.approx(np.full(64, 1.3 - 0.4 + 0.9), abs=1e-10)
    assert action[64:] == pytest.approx(np.full(64, 0.7 - 0.9 + 0.4), abs=1e-10)


def test_tilted_action_on_constants():
    # continuum limit of the u-row on (1,1) is sigma*lambda^2 + r_u - mu_u + mu_v
    cs = constant_set(sigma=1.0, r_u=1.0, r_v=0.5, mu_u=0.3, mu_v=0.6)
    n = 1024
    op = build_operator(cs, 1.0, GridSpec(n_cells=n), refine=False)
    action = op.matrix @ np.ones(op.dimension)
    expected = 1.0 + 1.0 - 0.3 + 0.6
    assert action[:n] == pytest.approx(np.full(n, expected), abs=1e-5)


def test_operator_action_second_order_consistent():
    # Richardson-style refinement oracle: action error on a smooth vector
    # shrinks by ~4x per grid doubling
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.4, 0.5))
    lam = 0.5

    def action(n):
        op = build_operator(cs, lam, GridSpec(n_cells=n), refine=False)
        return (op.matrix @ np.ones(2 * n))[:n]

    a1, a2, a4 = action(256), action(512), action(1024)
    err1 = np.max(np.abs(a1 - a4[::4]))
    err2 = np.max(np.abs(a2 - a4[::2]))
    ratio = err1 / err2
    assert 2.5 < ratio < 6.0


def test_offdiagonals_nonnegative_for_large_lambda():
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.5))
    op = build_operator(cs, 8.0, GridSpec(n_cells=32))
    coo = op.matrix.tocoo()
    assert np.min(coo.data[coo.row != coo.col]) >= 0.0


def test_peclet_refinement_kicks_in():
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.9))  # sigma in [0.1, 1.9]
    op = build_operator(cs, 10.0, GridSpec(n_cells=16))
    assert op.n > 16
    assert op.h * 10.0 * cs.sigma_max <= cs.sigma_min + 1e-12


def test_dirichlet_requires_half_width():
    # the Dirichlet operator needs a positive half-width R and is posed at lambda = 0
    for lam, half_width in [(0.0, 0.0), (0.0, -1.0), (0.5, 2.0)]:
        with pytest.raises(ValidationError):
            build_operator(HOMOG, lam, GridSpec(n_cells=64), half_width=half_width)


def test_half_width_alone_selects_dirichlet():
    op = build_operator(HOMOG, 0.0, GridSpec(n_cells=64), half_width=2.0)
    assert op.boundary == "dirichlet_zero" and op.n == 64
    assert op.h == pytest.approx(4.0 / 65) and op.nodes[0] == pytest.approx(-2.0 + 4.0 / 65)


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(n_cells=8)
    with pytest.raises(TypeError):
        GridSpec(n_cells=64, boundary="dirichlet")


# -- operator skeletons ------------------------------------------------------------

README_SET = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                        r_v=CoefficientSpec.cosine(1.0, 0.4, 1.1))

SKELETON_SETS = {
    "readme": README_SET,
    "piecewise_sigma": cosine_set(sigma=CoefficientSpec.piecewise([0.0, 0.3, 0.65],
                                                                  [1.0, 0.6, 1.4]),
                                  r_u=CoefficientSpec.cosine(1.0, 0.35, 0.7),
                                  mu_u=CoefficientSpec.cosine(0.6, 0.4, 2.0)),
}


def fresh_assembly(cs, lam, n, half_width=None):
    """The coupled operator built straight from the stencil's triplets: reaction
    on copies of the diagonal, mutation couplings appended, one COO -> CSR."""
    if half_width is None:
        h, boundary = cs.period / n, "periodic"
        nodes = h * np.arange(n)
    else:
        h, boundary = 2.0 * half_width / (n + 1), "dirichlet_zero"
        nodes = -half_width + h * np.arange(1, n + 1)
    diag, up, down = flux_parts(cs, nodes, h, boundary)
    rows, cols = coo_pattern(n, boundary)
    off = np.concatenate(tilted_couplings(up, down, h, lam))
    mu, mv = cs.mu_u(nodes), cs.mu_v(nodes)
    i = np.arange(n)
    data = np.concatenate([diag + (cs.r_u(nodes) - mu), off,
                           diag + (cs.r_v(nodes) - mv), off, mv, mu])
    rows = np.concatenate([rows, rows + n, i, n + i])
    cols = np.concatenate([cols, cols + n, n + i, i])
    return sp.coo_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)       # bitwise: exact float equality


# A Dirichlet grid has ceil(n_cells * 2R / L) cells, so any count from 16 up.
@pytest.mark.parametrize("n", [16, 64, 512, 17, 33, 100])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_skeleton_operators_are_bitwise_fresh_builds(name, n):
    cs = SKELETON_SETS[name]
    skeleton = _skeleton(cs, n)                  # one skeleton for every lambda
    for lam in (0.0, 1.5, -1.5, 3.0, -3.0):
        assert_same_csr(_operator(skeleton, lam).matrix, fresh_assembly(cs, lam, n))
    dirichlet = build_operator(cs, 0.0, GridSpec(n_cells=n), half_width=2.0)
    assert_same_csr(dirichlet.matrix, fresh_assembly(cs, 0.0, n, half_width=2.0))


def test_grid_layouts_are_shared_read_only_and_bounded():
    # a grid's layout depends on its kind and node count alone: skeletons of
    # one count share it, whatever the coefficient set or R, its index arrays
    # are read-only, and the last PATTERN_CACHE layouts are kept
    eigen._layout.cache_clear()
    for n in (16, 17, 64, 100, 512, 33, 64):
        for half_widths, kind in (((None,), eigen._Ring), ((2.0, 3.5), eigen._Interval)):
            grids = [(name, half_width, _skeleton(SKELETON_SETS[name], n, half_width))
                     for name in sorted(SKELETON_SETS) for half_width in half_widths]
            layout = grids[0][2].layout
            assert type(layout) is kind and layout.n == n
            assert all(skeleton.layout is layout for _, _, skeleton in grids)
            # the ring's band order is built on its first band, and kept read-only
            _ShiftedBand(_operator(grids[0][2], 0.0))
            arrays = [layout.indices, layout.indptr]
            if kind is eigen._Ring:
                arrays += [layout.source, *layout._band_index]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
            assert layout.indices.dtype == layout.indptr.dtype == np.int32
            for name, half_width, skeleton in grids:
                assert_same_csr(_operator(skeleton, 0.0).matrix,
                                fresh_assembly(SKELETON_SETS[name], 0.0, n, half_width))
            assert eigen._layout.cache_info().currsize <= eigen.PATTERN_CACHE
    assert eigen._layout.cache_info().currsize == eigen.PATTERN_CACHE == 4


@pytest.mark.parametrize("lam", [-1.5, 1.5])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_tilt_derivative_matches_flux_stencil(name, lam):
    # M' scales the couplings to node i+1 by -h and those to node i-1 by +h
    cs, n = SKELETON_SETS[name], 64
    op = build_operator(cs, lam, GridSpec(n_cells=n), refine=False)
    _, up, down = flux_parts(cs, op.nodes, op.h, "periodic")
    rows, cols = (index[n:] for index in coo_pattern(n, "periodic"))
    rate = op.h * np.concatenate(tilted_couplings(up, down, op.h, lam))
    rate[:n] *= -1.0
    expected = sp.coo_matrix((np.concatenate([rate, rate]),
                              (np.concatenate([rows, rows + n]),
                               np.concatenate([cols, cols + n]))), shape=(2 * n, 2 * n))
    assert np.array_equal(tilt_derivative(op).matrix.toarray(), expected.toarray())
    # the same weights on (-R, R), where node 0 has no down and node n-1 no up
    # coupling
    op = _operator(_skeleton(cs, n, 2.0), lam)
    _, up, down = flux_parts(cs, op.nodes, op.h, "dirichlet_zero")
    rows, cols = (index[n:] for index in coo_pattern(n, "dirichlet_zero"))
    rate = op.h * np.concatenate(tilted_couplings(up, down, op.h, lam))
    rate[:n - 1] *= -1.0
    expected = sp.coo_matrix((np.concatenate([rate, rate]),
                              (np.concatenate([rows, rows + n]),
                               np.concatenate([cols, cols + n]))), shape=(2 * n, 2 * n))
    assert np.array_equal(tilt_derivative(op).matrix.toarray(), expected.toarray())


@pytest.fixture
def built(monkeypatch):
    """The cell counts of the skeletons built, in order."""
    counts = []

    def counted(cs, n, *args):
        counts.append(n)
        return _skeleton(cs, n, *args)
    monkeypatch.setattr(eigen, "_skeleton", counted)
    return counts


def test_chain_reuses_skeletons_of_a_nearby_solve(built):
    store = {}
    first = k_of_lambda(README_SET, 0.5, skeletons=store)
    count = len(built)
    second = k_of_lambda(README_SET, 0.6, warm=first.vector, skeletons=store)
    assert first.n_cells == second.n_cells and len(built) == count


def test_skeleton_store_keeps_every_level_built(built):
    # a warm start from 1024 cells begins at 256, past the cold solve's coarse
    # levels; a later cold solve still finds them in the store
    store = {}
    cold = k_of_lambda(README_SET, 0.5, skeletons=store)
    warm = k_of_lambda(README_SET, 0.5, warm=np.ones(2 * 1024), skeletons=store)
    assert warm.n_cells >> (warm.levels - 1) == 256
    count = len(built)
    again = k_of_lambda(README_SET, 0.5, skeletons=store)
    assert len(built) == count and again.value == cold.value
    assert sorted(store) == sorted(built)


def test_speed_searches_and_curve_share_one_skeleton_store(built):
    # the right and left chains of spreading_speeds and a curve on the same
    # store build each grid level once
    store = {}
    spreading_speeds(README_SET, skeletons=store)
    assert sorted(built) == sorted(store)
    count = len(built)
    k_curve(README_SET, [-1.0, -0.5, 0.0, 0.5, 1.0], skeletons=store)
    assert len(built) == count


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_direct_kernel_products_are_bitwise_the_sparse_products(name, half_width):
    # the Perron steps and the slope call scipy's compiled CSR kernel on the
    # skeleton's pattern and the operator's data, which must give the bits of
    # matrix @ w and of matrix.T @ w, on the ring and on (-R, R)
    op = build_operator(SKELETON_SETS[name], 0.0 if half_width else 1.5, GridSpec(n_cells=100),
                        half_width=half_width, refine=False)
    w = np.random.default_rng(5).random(op.dimension)
    for operator in (op, tilt_derivative(op)):
        matrix = operator.matrix
        assert np.array_equal(eigen._matvec(operator, w), matrix @ w)
        assert np.array_equal(eigen._matvec(operator, w, transpose=True), matrix.T @ w)
    with pytest.raises(ValueError):          # the kernel itself would read past its end
        eigen._matvec(op, w[:-1])


def test_interior_curve_points_start_on_a_chord(monkeypatch):
    # a curve solves both ends, then middle points, each from the lower end of
    # its pair; on README_SET every point starts refining at 64 cells, so each
    # interior point's first level starts on the chord, plus its margin, of
    # the nearest roots kept below and above it, and no chord lies below
    refine, shifts = eigen._refine_to_tolerance, []

    def recorded(make_op, n, tol, warm, label, first_shift=None):
        shifts.append((n, first_shift))
        return refine(make_op, n, tol, warm, label, first_shift)
    monkeypatch.setattr(eigen, "_refine_to_tolerance", recorded)
    lams = np.linspace(-1.0, 1.0, 9)
    store = {}
    curve = k_curve(README_SET, lams, skeletons=store)
    assert [res.lam for res in curve] == list(lams)
    roots = store[64].roots
    assert [lam for lam, _ in roots] == list(lams[[0, 8, 4, 2, 1, 3, 6, 5, 7]])
    assert [n for n, _ in shifts] == [64] * 9 and shifts[0][1] is shifts[1][1] is None
    for i in range(2, 9):
        chord = eigen._chord_shift(roots[:i], roots[i][0])
        assert chord is not None and shifts[i][1] == chord and chord > roots[i][1]
    assert sum(res.restarts for res in curve) == 0
    # the values are those of one chain in grid order, each solve warm-started
    # from the one before it on one store, to well below tolerance
    chain_store, previous = {}, None
    for lam, res in zip(lams, curve):
        previous = k_of_lambda(README_SET, float(lam), skeletons=chain_store,
                               warm=None if previous is None else previous.vector)
        assert res.value == pytest.approx(previous.value, rel=1e-10, abs=0.0)


# -- banded shift-invert solves ----------------------------------------------------

def band_order(band):
    """(perm, order) of a _ShiftedBand's band order, read off its layout's
    vector orders: from_band(x), raveled, is x[perm] and to_band(w) is
    w[order]."""
    index = np.arange(len(band._stored))
    return np.ravel(band.layout.from_band(index)), band.layout.to_band(index)


def dgbtrs_solve(band, w, trans=0):
    """-(sI - M)^-1 w, or with the transpose, by dgbtrs on the band's factors,
    gathered through its order and perm: what _ShiftedBand.solve must give
    to the bit."""
    perm, order = band_order(band)
    x, info = dgbtrs(band._work, band.layout.kl, band.layout.ku, w[order], band._pivots,
                     trans=trans)
    assert info == 0
    return -x[perm]


@pytest.fixture
def triangle_solves(monkeypatch):
    """The band width k of each dtbsv call the solves made, in order."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return dtbsv(*args, **kwargs)
    monkeypatch.setattr(eigen, "dtbsv", counted)
    return calls


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("n", [33, 64])
def test_banded_solve_matches_dense(n, half_width, transpose, triangle_solves):
    # transpose: the trans=1 solve on the same factors, against (sI - M)^T.
    # Pivoted factors and trans=1 solves take dgbtrs; unpivoted ones take the
    # two triangle solves; either way the bits are dgbtrs'
    cs = SKELETON_SETS["piecewise_sigma"]
    op = build_operator(cs, 0.0 if half_width else 1.5, GridSpec(n_cells=n),
                        half_width=half_width, refine=False)
    dense = op.matrix.toarray()
    band = _ShiftedBand(op)
    assert (band.layout.kl, band.layout.ku) == ((2, 2) if half_width else (4, 4))
    k = float(np.max(np.linalg.eigvals(dense).real))
    rhs = np.random.default_rng(n).random(2 * n)
    # 0.1 above k, partial pivoting swaps rows of the Dirichlet operators; the
    # periodic ones are too ill-conditioned there for a 1e-12 comparison
    near = (k + 0.1,) if half_width else ()
    for shift in (band.far_shift, k + 1.0) + near:
        band.factor(shift)
        shifted = shift * np.eye(2 * n) - dense
        exact = np.linalg.solve(shifted.T if transpose else shifted, rhs)
        triangle_solves.clear()
        solved = band.solve(rhs, trans=int(transpose))
        assert band.shift == shift
        assert np.max(np.abs(solved - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.array_equal(solved, dgbtrs_solve(band, rhs, int(transpose)))
        assert len(triangle_solves) == (2 if band.unpivoted and not transpose else 0)
    if near:
        assert np.any(band._pivots != np.arange(2 * n)) and not band.unpivoted


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("n", [16, 17, 33, 64, 100, 4096])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_unpivoted_solve_is_bitwise_dgbtrs(name, n, half_width, triangle_solves):
    # the triangle solves, on the ring's zig-zag gathers or the strided
    # interleave of (-R, R), at the far shift and midway down to the root;
    # dgbtrs_solve gathers through the plain interleave on (-R, R)
    op = build_operator(SKELETON_SETS[name], 0.0 if half_width else 1.5, GridSpec(n_cells=n),
                        half_width=half_width, refine=False)
    band = _ShiftedBand(op)
    assert (band.layout.kl, band.layout.ku) == ((2, 2) if half_width else (4, 4))
    assert type(band.layout) is (eigen._Interval if half_width else eigen._Ring)
    root = principal_eigenpair(op).value
    w = np.random.default_rng(n).random(2 * n)
    for shift in (band.far_shift, 0.5 * (band.far_shift + root)):
        band.factor(shift)
        assert band.unpivoted and np.array_equal(band._pivots, np.arange(2 * n))
        triangle_solves.clear()
        assert np.array_equal(band.solve(w), dgbtrs_solve(band, w))
        assert triangle_solves == [band.layout.kl, band.layout.ku]


@pytest.mark.parametrize("half_width", [None, 2.0])
def test_unpivoted_u_solve_reads_no_fill_in(half_width, triangle_solves):
    # without row interchanges dgbtrf leaves the kl fill-in rows zero, and the
    # U solve reads only the ku superdiagonals below them: NaN in the fill-in
    # rows leaves the solve's bits, which are dgbtrs', alone
    n = 4096
    op = build_operator(SKELETON_SETS["piecewise_sigma"], 0.0 if half_width else 1.5,
                        GridSpec(n_cells=n), half_width=half_width, refine=False)
    band = _ShiftedBand(op)
    kl = band.layout.kl
    w = np.random.default_rng(n).random(2 * n)
    band.factor(band.far_shift)
    assert band.unpivoted and not band._work[:kl].any()
    solved = band.solve(w)
    assert np.array_equal(solved, dgbtrs_solve(band, w))
    band._work[:kl] = np.nan
    assert np.array_equal(band.solve(w), solved)
    assert triangle_solves == [kl, band.layout.ku] * 2


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("n", [24, 2 ** 16])       # 2n(2n-1)/2 past 2^32 wraps the int32 sum
def test_pivot_sum_detects_row_interchanges(n, half_width):
    # random cooperative bands on the operator's pattern, factored at their
    # far shift and at shifts among their diagonal entries, where partial
    # pivoting swaps rows
    op = build_operator(HOMOG, 0.0, GridSpec(n_cells=n), half_width=half_width, refine=False)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(4):
        band = _ShiftedBand(replace(op, data=rng.random(len(op.data))))
        for shift in (band.far_shift, rng.uniform(0.0, 1.0)):
            band.factor(shift)
            assert band.unpivoted == np.array_equal(band._pivots, np.arange(2 * n))
            seen.add(band.unpivoted)
    assert seen == {True, False}


def scattered_band(op):
    """The operator in LAPACK band storage as laid out entry by entry: the
    (2 kl + ku + 1) x 2n band of the zig-zag, species-interleaved order, zero
    but for each entry (r, c) at flat slot perm[c] depth + kl + ku + perm[r] -
    perm[c] of its transpose; with that order's perm, kl, ku and depth, and
    far shift and norm from the row sums of the off-diagonal entries in CSR
    order."""
    n = op.n
    visit = np.arange(n)
    if op.boundary == "periodic":
        visit = np.ravel(np.column_stack([np.arange(n), n - 1 - np.arange(n)]))[:n]
    node_pos = np.argsort(visit)
    perm = np.concatenate([2 * node_pos, 2 * node_pos + 1])
    matrix = op.matrix
    rows = np.repeat(np.arange(2 * n), np.diff(matrix.indptr))
    cols = matrix.indices
    below = perm[rows] - perm[cols]
    kl, ku = int(below.max()), int(-below.min())
    depth = 2 * kl + ku + 1
    flat = np.zeros(2 * n * depth)
    flat[perm[cols] * depth + kl + ku + perm[rows] - perm[cols]] = matrix.data
    off = np.where(rows == cols, 0.0, matrix.data)
    off_sums = np.bincount(rows, weights=off, minlength=2 * n)
    diag = matrix.data[rows == cols]
    far_shift = max(float(np.max(off_sums + diag)), 0.0) + 1.0
    norm = float(np.max(np.abs(diag) + off_sums))
    return flat.reshape(2 * n, depth).T, perm, kl, ku, far_shift, norm


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("n", [16, 17, 33, 64, 100])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_band_is_bitwise_the_entry_by_entry_scatter(name, n, half_width):
    # the band is laid out once per operator, from the entries by kind, and
    # each factor copies it; both must give the scatter's band and factors
    op = build_operator(SKELETON_SETS[name], 0.0 if half_width else 1.5, GridSpec(n_cells=n),
                        half_width=half_width, refine=False)
    full, perm, kl, ku, far_shift, norm = scattered_band(op)
    band = _ShiftedBand(op)
    assert (band.layout.kl, band.layout.ku) == (kl, ku)
    assert np.array_equal(band_order(band)[0], perm)
    assert np.array_equal(band_order(band)[1], np.argsort(perm))
    assert (band.far_shift, band.norm) == (far_shift, norm)
    assert np.array_equal(band._stored.T, full[kl:]) and not full[:kl].any()
    for shift in (band.far_shift, 0.5 * band.far_shift + 0.25):
        band.factor(shift)
        shifted = full.copy()
        shifted[kl + ku] -= shift
        factored, pivots, info = dgbtrf(shifted, kl, ku)
        assert info == 0
        assert np.array_equal(band._work, factored) and np.array_equal(band._pivots, pivots)


@pytest.mark.parametrize("name, n, half_width", [
    pytest.param(name, n, half_width, id=f"{name}-{n}" + ("" if half_width else "-ring"))
    for half_width in (2.0, None) for name in sorted(SKELETON_SETS)
    for n in (16, 17, 33, 100, 4096)])
def test_dirichlet_strided_layout_is_bitwise_the_fresh_assembly(name, n, half_width):
    # The CSR arrays, the band and the row sums, written by strides on
    # (-R, R) and through the band places of the CSR pattern on the ring
    # (at lambda 1.5), with no slot arrays: against the COO -> CSR build, its
    # band scattered entry by entry and its row sums in CSR order; then the
    # same on random entries, which tell every kind of entry apart, and with
    # the entries of one end or middle row of each species 1000x larger, so
    # that the far shift and the norm are that row's
    cs, lam = SKELETON_SETS[name], 0.0 if half_width else 1.5
    op = build_operator(cs, lam, GridSpec(n_cells=n), half_width=half_width, refine=False)
    assert type(op.skeleton.layout) is (eigen._Interval if half_width else eigen._Ring)
    fresh = fresh_assembly(cs, lam, n, half_width=half_width)
    assert_same_csr(op.matrix, fresh)
    random = np.random.default_rng(n).random(len(fresh.data))
    datas = [fresh.data]
    for row in (None, 0, n // 2, n - 1, n, n + n // 2, 2 * n - 1):
        data = random.copy()
        if row is not None:
            data[fresh.indptr[row]:fresh.indptr[row + 1]] *= 1e3
        datas.append(data)
    for data in datas:
        on_pattern = replace(op, data=data)
        full, _, kl, _, far_shift, norm = scattered_band(on_pattern)
        band = _ShiftedBand(on_pattern)
        assert np.array_equal(band._stored.T, full[kl:])
        assert (band.far_shift, band.norm) == (far_shift, norm)


@pytest.mark.parametrize("half_width", [None, 2.0])
def test_row_sums_are_added_in_csr_order(half_width):
    # off-diagonal entries 1 but the middle one of each end row 2^53: in CSR
    # order (1 + 2^53) + 1 rounds to 2^53 twice, where (1 + 1) + 2^53 keeps
    # the 2, so the far shift and the norm see the order of every end row
    op = build_operator(HOMOG, 0.0, GridSpec(n_cells=32), half_width=half_width, refine=False)
    matrix = op.matrix
    rows = np.repeat(np.arange(64), np.diff(matrix.indptr))
    data = np.where(rows == matrix.indices, 0.0, 1.0)
    for row in (0, 31, 32, 63):
        off = np.flatnonzero((rows == row) & (rows != matrix.indices))
        data[off[len(off) // 2]] = 2.0 ** 53
    op = replace(op, data=data)
    _, _, _, _, far_shift, norm = scattered_band(op)
    band = _ShiftedBand(op)
    assert (band.far_shift, band.norm) == (far_shift, norm)


@pytest.mark.parametrize("half_width", [None, 2.0])
def test_refactoring_a_shift_is_bitwise_a_fresh_factorization(half_width):
    # a factorization leaves fill-in in the band's top kl rows; the next
    # shift's copy and dgbtrf must not depend on it
    op = build_operator(SKELETON_SETS["piecewise_sigma"], 0.0 if half_width else 1.5,
                        GridSpec(n_cells=64), half_width=half_width, refine=False)
    band = _ShiftedBand(op)
    s1 = band.far_shift
    s2 = principal_eigenpair(op).value + 0.1
    for shift in (s1, s2, s1):
        band.factor(shift)
        assert band.shift == shift
    fresh = _ShiftedBand(op)
    fresh.factor(s1)
    assert np.array_equal(band._work, fresh._work)
    assert np.array_equal(band._pivots, fresh._pivots)


def test_singular_band_factor_raises():
    # zero couplings and diagonal entries 0, 1, ..., 31 on the operator's
    # pattern: 5I - M has a zero pivot in row 5
    op = build_operator(HOMOG, 0.0, GridSpec(n_cells=16))
    matrix = op.matrix
    rows = np.repeat(np.arange(32), np.diff(matrix.indptr))
    band = _ShiftedBand(replace(op, data=np.where(rows == matrix.indices, rows, 0.0)))
    band.factor(40.0)
    assert band.unpivoted
    with pytest.raises(NumericalError, match="singular"):
        band.factor(5.0)
    assert band.shift is None and not band.unpivoted     # no flag left from the last factors


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("n", [16, 33, 64])
def test_left_pair_is_the_perron_pair_of_the_transpose(n, half_width):
    # solved on the factors the right solve left on the operator's band
    op = build_operator(SKELETON_SETS["piecewise_sigma"], 0.0 if half_width else 1.5,
                        GridSpec(n_cells=n), half_width=half_width, refine=False)
    right = principal_eigenpair(op)
    left = principal_eigenpair(op, warm=right.vector, left=True)
    dense = op.matrix.toarray().T
    y = left.vector
    assert np.all(y > 0)
    assert np.max(np.abs(dense @ y - left.value * y)) <= 1e-9
    assert_perron_pair(dense, left)


@pytest.mark.parametrize("half_width", [None, 2.0])
@pytest.mark.parametrize("m, n", [(64, 128), (256, 512), (100, 200),      # refining
                                  (256, 64), (1024, 256), (400, 100),     # coarsening
                                  (100, 64), (64, 100), (33, 47),         # non-dyadic
                                  # non-dyadic pairs that public calls reach: a
                                  # k_curve(constant_set(), [0, 100], GridSpec(16))
                                  # first level, and the first levels after R = 1 of
                                  # dirichlet_sweep(README_SET, [1, 1.5, 2.5, 3])
                                  (32, 128), (1024, 192), (768, 320), (1280, 384)])
def test_warm_start_is_bitwise_numpy_interp(m, n, half_width):
    # The warm start decides every later iterate, so the strided path and
    # np.interp itself must both give np.interp(period=1)'s bits, or
    # artifacts would move.
    op = _operator(_skeleton(README_SET, n, half_width), 0.0)
    warm = np.random.default_rng(m + n).random((2, m)) + 1e-3
    x_old, x_new = (np.linspace(0.0, 1.0, k, endpoint=False) for k in (m, n))
    w = np.concatenate([np.interp(x_new, x_old, f, period=1.0) for f in warm])
    assert np.array_equal(eigen._start_vector(op, tuple(warm)), w / np.max(w))
    # n = 2m and m = 2^k n (here 4n) go by strides
    assert eigen._dyadic(m, n) == (n == 2 * m or m == 4 * n)


# (m, n): every m from 16 to 299 and dyadic and other m up to 16384, each
# onto n from m/4 to 4m
INTERP_PAIRS = sorted(
    {(m, n) for m in range(16, 300)
     for n in (m // 4, m // 2 + 1, m - 1, m + 3, 2 * m, 3 * m - 1, 4 * m)}
    | {(2 ** a, 2 ** b) for a in range(4, 15) for b in range(a - 2, a + 3)}
    | {(m, n) for m in (1000, 5000, 12345, 16384)
       for n in (m // 4, m // 3, m - 1, m + 1, 2 * m + 1, 4 * m)})


def test_strided_warm_starts_are_bitwise_numpy_interp():
    # every dyadic pair, refining by 2 or coarsening by 2^k, from 16 to 65536
    # points, through the strided path
    rng = np.random.default_rng(4)
    dyadic = [(m, n) for m, n in INTERP_PAIRS if eigen._dyadic(m, n)]
    assert len(dyadic) > 300 and {m // n for m, n in dyadic if m > n} == {2, 4}
    for m, n in dyadic:
        f = rng.random((2, m))
        x_old, x_new = (np.linspace(0.0, 1.0, k, endpoint=False) for k in (m, n))
        expected = np.stack([np.interp(x_new, x_old, g, period=1.0) for g in f])
        assert np.array_equal(eigen._strided_interp(f, n), expected), (m, n)
    # the midpoint weights are kept read-only for the last 8 grids
    dx, t = eigen._midpoint_weights(16)
    assert not dx.flags.writeable and not t.flags.writeable
    assert eigen._midpoint_weights.cache_info().currsize == 8


def test_factorizations_are_counted(monkeypatch):
    op = build_operator(README_SET, 1.0, GridSpec(n_cells=256), refine=False)
    res = principal_eigenpair(op)
    assert 1 <= res.factorizations <= res.iterations
    refined = k_of_lambda(README_SET, 1.0)
    assert refined.levels <= refined.factorizations <= refined.iterations
    # pivoted counts the factorizations that swapped rows, over every level
    # and the slope's left solve
    swapped = []
    factor = _ShiftedBand.factor

    def counted(band, shift):
        factor(band, shift)
        swapped.append(not band.unpivoted)
    monkeypatch.setattr(_ShiftedBand, "factor", counted)
    for solve in (lambda: dirichlet_eigenvalue(README_SET, 4.0),
                  lambda: k_of_lambda(README_SET, 1.0, slope=True)):
        swapped.clear()
        res = solve()
        assert (res.factorizations, res.pivoted) == (len(swapped), sum(swapped))
    assert dirichlet_eigenvalue(README_SET, 4.0).pivoted > 0


# -- principal eigenpair ----------------------------------------------------------

def test_homogeneous_tilted_eigenvalue():
    # lambda = 1: value = sigma + lambda_A = 2 with a constant eigenvector
    op = build_operator(HOMOG, 1.0, GridSpec(n_cells=2048), refine=False)
    res = principal_eigenpair(op)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    phi, psi = res.vector.reshape(2, -1)
    assert np.ptp(phi) < 1e-9 and np.ptp(psi) < 1e-9


def test_two_by_two_characteristic_polynomial_case():
    # r_u=2, mu_u=1, r_v=0, mu_v=1: largest eigenvalue of the coupling matrix
    # is sqrt(2); flux telescopes exactly at lambda = 0
    cs = constant_set(r_u=2.0, r_v=0.0, mu_u=1.0, mu_v=1.0)
    op = build_operator(cs, 0.0, GridSpec(n_cells=128))
    res = principal_eigenpair(op)
    assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_dense_eigendecomposition_oracle():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.3))
    op = build_operator(cs, 0.0, GridSpec(n_cells=256), refine=False)
    res = principal_eigenpair(op)
    dense = np.linalg.eigvals(op.matrix.toarray())
    assert res.value == pytest.approx(float(np.max(dense.real)), abs=1e-8)


@pytest.mark.parametrize("lam", [1.0, -2.5])
def test_tilted_dense_eigendecomposition_oracle(lam):
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3, 0.4),
                    r_u=CoefficientSpec.cosine(1.0, 0.4, 0.9))
    op = build_operator(cs, lam, GridSpec(n_cells=64), refine=False)
    res = principal_eigenpair(op)
    dense = np.linalg.eigvals(op.matrix.toarray())
    assert res.value == pytest.approx(float(np.max(dense.real)), abs=1e-10)


def test_large_dirichlet_operator_converges_in_few_iterations():
    # R = 32 on 16384 cells: the spectral gap is O(R^-2), which a fixed
    # far shift pays for in hundreds of iterations
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.6))
    op = build_operator(cs, 0.0, GridSpec(n_cells=16384), half_width=32.0)
    res = principal_eigenpair(op)
    assert res.iterations <= 15
    sigma = float(np.max(op.matrix.sum(axis=1))) + 1.0
    ref = spla.eigs(op.matrix.tocsc(), k=1, sigma=sigma, which="LM",
                    return_eigenvectors=False)
    assert res.value == pytest.approx(float(ref[0].real), abs=1e-9)
    w = res.vector
    ratios = (op.matrix @ w) / w
    assert np.min(ratios) <= res.value <= np.max(ratios)


# A stall on the far shift used to stay there, at its rate of about
# 1 - gap/s_far per step.  In this matrix the cold 16384-cell piecewise_sigma
# operators then took 9108 steps at lambda = 1.5 and did not converge in
# MAX_ITERATIONS at -1.5; every other case took at most 29.  The shift rule
# takes one far step per stall, and the worst case takes 12.
SHIFT_RULE_SETS = {
    "readme": README_SET,
    # the speed benchmark's seed-101 piecewise_sigma set
    "piecewise_sigma": cosine_set(sigma=CoefficientSpec.piecewise([0.0, 0.3], [1.0, 0.9]),
                                  r_u=CoefficientSpec.cosine(1.0, 0.3841, 5.1406),
                                  r_v=CoefficientSpec.cosine(1.0, 0.3667, 2.9568)),
}
SHIFT_RULE_CAP = 12


def shift_rule_operator(name, kind, param, n):
    cs = SHIFT_RULE_SETS[name]
    if kind == "dirichlet":
        return _operator(_skeleton(cs, n, param), 0.0)
    return _operator(_skeleton(cs, n), param)


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("n", [64, 1024, 4096, 16384])
@pytest.mark.parametrize("kind, param", [*(("periodic", lam) for lam in (0.0, 1.5, -1.5, 3.0, -3.0)),
                                         ("dirichlet", 0.5), ("dirichlet", 4.0)])
@pytest.mark.parametrize("name", sorted(SHIFT_RULE_SETS))
def test_perron_solves_converge_in_few_steps(name, kind, param, n, start):
    warm = None
    if start == "warm":
        coarse = principal_eigenpair(shift_rule_operator(name, kind, param, n // 2))
        warm = coarse.vector
    res = principal_eigenpair(shift_rule_operator(name, kind, param, n), warm=warm)
    assert res.iterations <= SHIFT_RULE_CAP
    assert res.residual < max(eigen.RESIDUAL_TOL, res.rounding)


@pytest.mark.parametrize("lam", [1.5, -1.5])
def test_warm_piecewise_sigma_step_to_2048_cells(lam):
    # 1024 -> 2048 cells warm took 20 and 33 steps when a far-shift stall
    # stayed on the far shift, and takes 5 now
    coarse = principal_eigenpair(shift_rule_operator("piecewise_sigma", "periodic", lam, 1024))
    res = principal_eigenpair(shift_rule_operator("piecewise_sigma", "periodic", lam, 2048),
                              warm=coarse.vector)
    assert res.iterations <= SHIFT_RULE_CAP


def test_eigenresult_invariants():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.9))
    op = build_operator(cs, 0.7, GridSpec(n_cells=256), refine=False)
    res = principal_eigenpair(op)
    w = res.vector
    phi, psi = w.reshape(2, -1)
    assert np.min(phi) > 0 and np.min(psi) > 0
    assert np.max(np.abs(w)) == pytest.approx(1.0)
    assert res.residual <= 1e-9
    check = np.max(np.abs(op.matrix @ w - res.value * w)) / np.max(np.abs(w))
    assert check == pytest.approx(res.residual, rel=1e-6)


@pytest.mark.parametrize("kind, param", [("periodic", 0.0), ("periodic", 1.5),
                                         ("periodic", -3.0), ("dirichlet", 2.0)])
@pytest.mark.parametrize("name", sorted(SKELETON_SETS))
def test_collatz_wielandt_bracket_holds_the_dense_perron_root(name, kind, param):
    # for any positive w, min(Mw/w) <= k <= max(Mw/w), for M and for M^T
    half_width = param if kind == "dirichlet" else None
    op = build_operator(SKELETON_SETS[name], 0.0 if half_width else param, GridSpec(n_cells=64),
                        half_width=half_width, refine=False)
    dense = op.matrix.toarray()
    root = float(np.max(np.linalg.eigvals(dense).real))
    right = principal_eigenpair(op)
    left = principal_eigenpair(op, warm=right.vector, left=True)
    for res, matrix in ((right, dense), (left, dense.T)):
        low, high = res.bracket
        assert low - res.rounding <= root <= high + res.rounding
        ratios = (matrix @ res.vector) / res.vector
        assert (low, high) == pytest.approx((ratios.min(), ratios.max()), abs=res.rounding)


def test_value_outside_its_collatz_wielandt_bracket_raises(monkeypatch):
    # a Rayleigh quotient pushed off the root converges all the same, and only
    # the bracket check can tell
    rayleigh = eigen._rayleigh_and_residual

    def shifted(matrix, w):
        value, residual, mw = rayleigh(matrix, w)
        return value + 1e-3, residual, mw
    monkeypatch.setattr(eigen, "_rayleigh_and_residual", shifted)
    op = build_operator(README_SET, 0.5, GridSpec(n_cells=64), refine=False)
    with pytest.raises(NumericalError, match="Collatz-Wielandt bracket"):
        principal_eigenpair(op)


def test_data_that_does_not_fill_the_pattern_is_rejected_before_any_kernel_runs(monkeypatch):
    # the kernels read an operator's data through its skeleton's indptr, so
    # data one entry short or over, or not one value per entry, is refused
    # when the operator is made, on the ring and on (-R, R), and neither the
    # products nor the band factorization ever see it
    calls = []
    for kernel in ("csr_matvec", "csc_matvec", "dgbtrf"):
        monkeypatch.setattr(eigen, kernel, lambda *args, kernel=kernel: calls.append(kernel))
    for lam, half_width in ((0.5, None), (0.0, 2.0)):
        op = build_operator(HOMOG, lam, GridSpec(n_cells=32), half_width=half_width,
                            refine=False)
        for data in (op.data[:-1], np.append(op.data, 1.0), op.data.reshape(-1, 2), op.data[0]):
            with pytest.raises(ValidationError, match="pattern"):
                principal_eigenpair(replace(op, data=data))
    assert calls == []


def test_non_cooperative_operator_rejected():
    # one negative off-diagonal entry, of any kind, in an end or a middle row
    # of either species, on the ring and on (-R, R)
    for half_width in (None, 2.0):
        op = build_operator(HOMOG, 0.0, GridSpec(n_cells=32), half_width=half_width)
        rows = np.repeat(np.arange(64), np.diff(op.matrix.indptr))
        for row in (0, 15, 31, 32, 47, 63):
            for entry in np.flatnonzero((rows == row) & (rows != op.matrix.indices)):
                data = op.data.copy()
                data[entry] = -1.0
                with pytest.raises(ValidationError, match="not cooperative"):
                    principal_eigenpair(replace(op, data=data))


# -- k(lambda) curve ----------------------------------------------------------------

# Unequal, out-of-phase mutation rates make the left and right Perron
# vectors differ.
SLOPE_SETS = {
    "cosine": cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3, 0.4),
                         r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                         mu_u=CoefficientSpec.cosine(0.6, 0.4, 2.0),
                         mu_v=CoefficientSpec.constant(0.3)),
    "piecewise_sigma": cosine_set(sigma=CoefficientSpec.piecewise([0.0, 0.3, 0.65],
                                                                  [1.0, 0.6, 1.4]),
                                  r_v=CoefficientSpec.cosine(0.8, 0.3, 1.1),
                                  mu_u=CoefficientSpec.constant(0.7),
                                  mu_v=CoefficientSpec.constant(0.2)),
}


@pytest.mark.parametrize("lam", [-1.5, 1.5])
@pytest.mark.parametrize("name", sorted(SLOPE_SETS))
def test_tilt_slope_matches_centred_difference(name, lam):
    cs, grid, d = SLOPE_SETS[name], GridSpec(n_cells=128), 1e-3
    k = lambda l: principal_eigenpair(build_operator(cs, l, grid, refine=False)).value
    op = build_operator(cs, lam, grid, refine=False)
    right = principal_eigenpair(op)
    slope, left = tilt_slope(op, right)
    assert left.value == pytest.approx(right.value, abs=1e-9)
    assert np.max(np.abs(left.vector - right.vector)) > 1e-3
    assert slope == pytest.approx((k(lam + d) - k(lam - d)) / (2 * d), abs=1e-6)


def test_tilt_slope_rejects_disagreeing_roots():
    op = build_operator(SLOPE_SETS["cosine"], 1.5, GridSpec(n_cells=128), refine=False)
    right = principal_eigenpair(op)
    with pytest.raises(NumericalError, match="left and right Perron roots"):
        tilt_slope(op, replace(right, value=right.value + 1e-6))


def test_k_of_lambda_slope_matches_centred_difference(monkeypatch):
    cs, d = SLOPE_SETS["cosine"], 1e-3
    tilt, pairs = eigen.tilt_slope, []
    monkeypatch.setattr(eigen, "tilt_slope", lambda *args: pairs.append(tilt(*args)) or pairs[-1])
    res = k_of_lambda(cs, 1.0, slope=True)
    assert k_of_lambda(cs, 1.0).slope is None
    centred = (k_of_lambda(cs, 1.0 + d).value - k_of_lambda(cs, 1.0 - d).value) / (2 * d)
    assert res.slope == pytest.approx(centred, abs=1e-5)
    (slope, left), = pairs                        # the left pair behind the slope
    assert slope == res.slope
    phi, psi = left.vector.reshape(2, -1)
    assert np.all(phi > 0) and np.all(psi > 0)


@pytest.mark.parametrize("name", sorted(SLOPE_SETS))
def test_left_solves_reuse_the_right_factors(name, monkeypatch):
    # a left solve starts on the shift the right solve left factored, so most
    # take no factorization of their own
    solve, lefts = eigen.principal_eigenpair, []

    def kept(*args, **kwargs):
        res = solve(*args, **kwargs)
        if kwargs.get("left"):
            lefts.append(res)
        return res
    monkeypatch.setattr(eigen, "principal_eigenpair", kept)
    spreading_speeds(SLOPE_SETS[name])
    assert lefts and sum(res.factorizations for res in lefts) < len(lefts)


# -- the first shift of a refined level ---------------------------------------------

@pytest.mark.parametrize("offset", [5.0, 1e-6, 0.0])
@pytest.mark.parametrize("half_width", [None, 4.0])
def test_first_shift_at_or_below_the_root_restarts_bitwise(half_width, offset):
    # a level warm-started from the one below, as the refinement loop solves
    # it, with a first shift at or below its root: one restart on the far
    # shift, and then the bits of the solve without a first shift
    cs, lam = ((criterion_4_set(), 0.0) if half_width
               else (SKELETON_SETS["piecewise_sigma"], 1.5))

    def level(n):
        return build_operator(cs, lam, GridSpec(n_cells=n), half_width=half_width, refine=False)
    coarse = principal_eigenpair(level(64))
    warm = coarse.vector
    plain = principal_eigenpair(level(128), warm=warm)
    hinted = principal_eigenpair(level(128), warm=warm, first_shift=plain.value - offset)
    assert (plain.restarts, hinted.restarts) == (0, 1)
    assert (hinted.value, hinted.residual, hinted.bracket) == (plain.value, plain.residual,
                                                               plain.bracket)
    assert np.array_equal(hinted.vector, plain.vector)
    assert ((hinted.iterations, hinted.factorizations)
            == (plain.iterations + 1, plain.factorizations + 1))
    # a first shift at or past the far shift is not taken
    far = principal_eigenpair(level(128), warm=warm, first_shift=np.inf)
    assert far.restarts == 0 and far.iterations == plain.iterations
    assert np.array_equal(far.vector, plain.vector)


@pytest.mark.parametrize("name", ["readme", "piecewise_sigma"])
def test_chord_margin_keeps_root_searches_from_restarting(name):
    # the speed searches narrow their brackets until chord and root agree to
    # rounding; the chord's margin, about the rounding level, keeps every
    # chord first shift above its root there (without it, one solve of each
    # of these runs restarts)
    cs = README_SET if name == "readme" else SLOPE_SETS[name]
    report = spreading_speeds(cs)
    assert sum(res.restarts for solves in report.solves.values() for res in solves) == 0


@pytest.fixture
def first_steps(monkeypatch):
    """The Perron solves of each grid refinement, a left solve after its
    right ones: whether left, the far shift, the shift held on entry, the
    factorizations and solve steps in order, each as (kind, shift), and the
    raw value returned."""
    refinements, current = [], []
    refine, perron = eigen._refine_to_tolerance, eigen.principal_eigenpair
    factor, solve = _ShiftedBand.factor, _ShiftedBand.solve

    def refining(*args, **kwargs):
        refinements.append([])
        return refine(*args, **kwargs)

    def perron_solve(op, *args, **kwargs):
        record = dict(left=kwargs.get("left", False), far=op.shifted.far_shift,
                      held=op.shifted.shift, events=[])
        refinements[-1].append(record)
        current.append(record)
        res = perron(op, *args, **kwargs)
        current.pop()
        record["value"] = res.value
        return res

    def factoring(band, shift):
        current[-1]["events"].append(("factor", shift))
        factor(band, shift)

    def stepping(band, w, trans=0):
        current[-1]["events"].append(("step", band.shift))
        return solve(band, w, trans)
    monkeypatch.setattr(eigen, "_refine_to_tolerance", refining)
    monkeypatch.setattr(eigen, "principal_eigenpair", perron_solve)
    monkeypatch.setattr(_ShiftedBand, "factor", factoring)
    monkeypatch.setattr(_ShiftedBand, "solve", stepping)
    return refinements


SWEEP_RADII = [1.0, 2.0, 4.0, 8.0]           # L .. 8L of criterion_4_set


def slope_chain():
    """Slope solves at 0.5 and then 1.0, warm-started from the first, on one store."""
    store = {}
    first = k_of_lambda(SLOPE_SETS["cosine"], 0.5, slope=True, skeletons=store)
    return [first, k_of_lambda(SLOPE_SETS["cosine"], 1.0, warm=first.vector, slope=True,
                               skeletons=store)]


SHIFT_RUNS = {
    "dirichlet_sweep": lambda: eigen.dirichlet_sweep(criterion_4_set(), SWEEP_RADII,
                                                     None, eigen.K_GRID_TOL),
    "k_curve": lambda: k_curve(SKELETON_SETS["piecewise_sigma"], [-1.5, -0.5, 0.0, 0.5, 1.5]),
    "slope": slope_chain,
}


@pytest.mark.parametrize("run", sorted(SHIFT_RUNS))
def test_refined_levels_start_on_the_coarser_root(first_steps, run):
    # the first level of every refinement, warm or cold, factors and steps on
    # the far shift first, but in a Dirichlet sweep past two smaller radii
    # (4L and 8L here) on the first-level root that r(R) = a - b/R^2 through
    # the last two radii's first-level roots predicts, plus 1% of the
    # predicted rise, a shift that lies above the root; each finer level on
    # the raw root of the level below it; a left solve steps on the shift its
    # right solve left held
    SHIFT_RUNS[run]()
    assert first_steps
    roots = []                     # (R, first-level root) of the sweep's radii
    for solves in first_steps:
        levels = [s for s in solves if not s["left"]]
        assert len(levels) >= 2
        first = levels[0]["far"]
        if run == "dirichlet_sweep":
            R = SWEEP_RADII[len(roots)]
            if R >= 4.0:
                (R1, r1), (R2, r2) = roots[-2:]
                b = (r2 - r1) / (R1 ** -2 - R2 ** -2)
                p = r2 + b * (R2 ** -2 - R ** -2)
                first = p + (p - r2) / 100.0
                assert r2 < p < levels[0]["value"] < first < levels[0]["far"]
            roots.append((R, levels[0]["value"]))
        for coarse, finer in zip([None, *levels], levels):
            start = first if coarse is None else coarse["value"]
            assert start <= finer["far"]
            assert finer["events"][:2] == [("factor", start), ("step", start)]
        for left in solves[len(levels):]:
            assert left["left"] and left["held"] is not None
            assert left["events"][0] == ("step", left["held"])
    assert any(s["left"] for solves in first_steps for s in solves) == (run == "slope")
    assert len(roots) == (len(SWEEP_RADII) if run == "dirichlet_sweep" else 0)


@pytest.mark.parametrize("offset", [0.5, 1e-6])
def test_dirichlet_first_shift_below_the_root_gives_the_unhinted_bits(offset):
    # a radius warm-started from the one before it, as a sweep solves it,
    # with its first level's first shift below that level's root: one
    # restart, and then the bits of the call without a first shift
    cs = criterion_4_set()
    before = dirichlet_eigenvalue(cs, 2.0)
    warm = before.vector
    plain = dirichlet_eigenvalue(cs, 4.0, warm=warm)
    hinted = dirichlet_eigenvalue(cs, 4.0, warm=warm, first_shift=plain.first_root - offset)
    assert (plain.restarts, hinted.restarts) == (0, 1)
    for key in ("value", "residual", "bracket", "first_root", "levels", "n_cells"):
        assert getattr(hinted, key) == getattr(plain, key), key
    assert np.array_equal(hinted.vector, plain.vector)
    assert ((hinted.iterations, hinted.factorizations)
            == (plain.iterations + 1, plain.factorizations + 1))


@pytest.mark.parametrize("radii", [[1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0],
                                   [0.5, 1.0, 2.0, 4.0, 8.0], [8.0, 4.0, 2.0, 1.0]])
def test_predicted_first_shifts_keep_the_sweep_values(radii):
    # a sweep with predicted first shifts against the same warm-started chain
    # with every first level on the far shift: the values agree to 1e-10
    # (relative), and a sweep that never grows past two smaller radii takes
    # no prediction and gives the same bits
    cs = criterion_4_set()
    expected = []
    for R in radii:
        warm = expected[-1].vector if expected else None
        expected.append(dirichlet_eigenvalue(cs, float(R), warm=warm))
    swept = eigen.dirichlet_sweep(cs, radii, None, eigen.K_GRID_TOL)
    for res, ref in zip(swept, expected):
        assert res.value == pytest.approx(ref.value, rel=1e-10, abs=0.0)
    if radii[0] > radii[-1]:
        assert [res.value for res in swept] == [ref.value for ref in expected]
        assert [res.iterations for res in swept] == [ref.iterations for ref in expected]


def test_no_solve_writes_to_a_vector_it_handed_on(monkeypatch):
    # a result's vector is the only copy of its Perron pair, and the solves
    # after it start from it (the left solve behind a slope from its right
    # one): copied as each solve returns, every vector keeps its bits through
    # a 3-point chain, a 5-point curve and a 3-radius sweep
    returned = []

    def spy(solve):
        def kept(*args, **kwargs):
            res = solve(*args, **kwargs)
            returned.append((res, res.vector.copy()))
            return res
        return kept
    monkeypatch.setattr(eigen, "k_of_lambda", spy(eigen.k_of_lambda))
    monkeypatch.setattr(eigen, "dirichlet_eigenvalue", spy(eigen.dirichlet_eigenvalue))
    store, results = {}, []
    for lam in (0.5, 0.6, 0.7):
        warm = results[-1].vector if results else None
        results.append(eigen.k_of_lambda(README_SET, lam, warm=warm, slope=True, skeletons=store))
    results += k_curve(README_SET, np.linspace(-1.0, 1.0, 5))
    results += eigen.dirichlet_sweep(README_SET, [1.0, 2.0, 4.0], None, eigen.K_GRID_TOL)
    assert sorted(id(res) for res, _ in returned) == sorted(map(id, results))
    for res, copy in returned:
        assert np.array_equal(res.vector, copy)
    # and the snapshots of one simulate run keep arrays of their own
    run = pde.simulate(README_SET, pde.DomainSpec(-10.0, 20.0, 256),
                       pde.InitialData(kind="compact_bump", amplitude=0.5, center=5.0, width=2.0),
                       T=1.0, dt=0.01, record_every=0.1, snapshot_every=0.25)
    arrays = [array for snap in run.snapshots for array in (snap.u, snap.v)]
    assert len(run.snapshots) == 4
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_restarts_are_summed_over_levels_and_the_left_solve(monkeypatch):
    # k(0) of a constant medium is the same on every grid, so each finer
    # level's first shift is its own root, and it restarts
    perron, restarts = eigen.principal_eigenpair, []

    def kept(*args, **kwargs):
        res = perron(*args, **kwargs)
        restarts.append(res.restarts)
        return res
    monkeypatch.setattr(eigen, "principal_eigenpair", kept)
    summed = []
    for solve in (lambda: k_of_lambda(HOMOG, 0.0, slope=True),
                  lambda: dirichlet_eigenvalue(HOMOG, 4.0)):
        restarts.clear()
        summed.append(solve().restarts)
        assert summed[-1] == sum(restarts)
    assert summed[0] > 0


def test_k_zero_is_periodic_eigenvalue():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.3))
    res = k_of_lambda(cs, 0.0)
    op = build_operator(cs, 0.0, GridSpec(n_cells=res.n_cells), refine=False)
    direct = principal_eigenpair(op)
    assert res.value == pytest.approx(direct.value, abs=1e-7)


def test_homogeneous_k_matches_dispersion():
    for lam in (-2.0, -0.5, 1.0, 3.0):
        res = k_of_lambda(HOMOG, lam)
        assert res.value == pytest.approx(lam * lam + 1.0, abs=1e-7)


def test_homogeneous_evenness_exact():
    a = k_of_lambda(HOMOG, 1.3)
    b = k_of_lambda(HOMOG, -1.3)
    assert abs(a.value - b.value) < 1e-9


def test_equal_mutation_rates_make_k_even():
    # non-even r_u, but mu_u = mu_v: the tilted operators at +/-lambda are
    # transposes of each other
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.7))
    a = k_of_lambda(cs, 1.0)
    b = k_of_lambda(cs, -1.0)
    assert abs(a.value - b.value) < 1e-7


def test_even_coefficients_make_k_even():
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3),
                    r_u=CoefficientSpec.cosine(1.0, 0.4),
                    mu_u=CoefficientSpec.constant(0.3),
                    mu_v=CoefficientSpec.constant(0.6))
    a = k_of_lambda(cs, 0.8)
    b = k_of_lambda(cs, -0.8)
    assert abs(a.value - b.value) < 1e-7


def test_quadratic_bounds_and_convexity():
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3, 0.4),
                    r_u=CoefficientSpec.cosine(1.0, 0.5, 1.3),
                    r_v=CoefficientSpec.cosine(0.8, 0.3, 0.2))
    lams = np.round(np.arange(-2.0, 2.001, 0.25), 10)
    ks = np.array([r.value for r in k_curve(cs, lams, tol=1e-7)])
    lo = cs.sigma_min * lams ** 2 + cs.r_min
    hi = cs.sigma_max * lams ** 2 + cs.r_max
    assert np.all(ks >= lo - 1e-6)
    assert np.all(ks <= hi + 1e-6)
    second = ks[2:] - 2 * ks[1:-1] + ks[:-2]
    assert np.min(second) >= -1e-7


def test_grid_convergence_second_order():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3))
    lam = 1.0
    vals = []
    for n in (64, 128, 256):
        op = build_operator(cs, lam, GridSpec(n_cells=n), refine=False)
        vals.append(principal_eigenpair(op).value)
    gap1 = abs(vals[1] - vals[0])
    gap2 = abs(vals[2] - vals[1])
    assert gap1 / gap2 >= 3.0


def fixed_grid_richardson(cs, lam, n=2048):
    """k_2n + (k_2n - k_n)/3 on fixed n- and 2n-cell grids, no refinement."""
    coarse = principal_eigenpair(build_operator(cs, lam, GridSpec(n_cells=n), refine=False))
    fine = principal_eigenpair(build_operator(cs, lam, GridSpec(n_cells=2 * n), refine=False),
                               warm=coarse.vector)
    return fine.value + (fine.value - coarse.value) / 3.0


@pytest.mark.parametrize("lam", [0.0, 1.5, -1.5])
def test_refined_k_on_piecewise_sigma_matches_fine_grids(lam):
    # sigma jumps from 1 to 0.9 at x = 0.3, between the nodes of every dyadic
    # grid; with midpoint faces the inter-level gaps swing with the jump's
    # position in its cell, and refinement stopped 1.7e-3 from this value
    cs = cosine_set(sigma=CoefficientSpec.piecewise([0.0, 0.3], [1.0, 0.9]),
                    r_u=CoefficientSpec.cosine(1.0, 0.35, 0.7),
                    r_v=CoefficientSpec.cosine(1.0, 0.35, 2.1))
    assert k_of_lambda(cs, lam).value == pytest.approx(fixed_grid_richardson(cs, lam),
                                                       abs=1e-6)


@pytest.mark.parametrize("lam", [3.0, -3.0])
def test_refinement_stops_once_the_richardson_value_settles(lam):
    # The raw gap |k_n - k_2n| < 1e-7 alone needs 8192-16384 cells here,
    # where rounding noise makes the extrapolated value worse.
    res = k_of_lambda(README_SET, lam)
    assert res.n_cells <= 512
    assert 3 <= res.levels <= 4
    assert res.value == pytest.approx(fixed_grid_richardson(README_SET, lam), abs=1e-8)


def test_single_solve_reports_its_rounding_level():
    op = build_operator(README_SET, 1.0, GridSpec(n_cells=256), refine=False)
    res = principal_eigenpair(op)
    norm = np.max(np.abs(op.matrix).sum(axis=1))
    assert res.levels == 1
    assert res.rounding == pytest.approx(8.0 * np.finfo(float).eps * norm, rel=1e-12)


# -- Dirichlet eigenvalue -------------------------------------------------------------

def test_dirichlet_sine_mode():
    # mu_u = mu_v and r_u = r_v decouple the symmetric mode: the scalar
    # problem has principal value r - sigma*(pi/(2R))^2
    R = 2.0
    res = dirichlet_eigenvalue(HOMOG, R)
    assert res.value == pytest.approx(1.0 - (np.pi / (2 * R)) ** 2, abs=1e-4)


def test_dirichlet_monotone_in_R():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.6))
    a = dirichlet_eigenvalue(cs, 1.0)
    b = dirichlet_eigenvalue(cs, 2.0)
    assert b.value > a.value


def test_dirichlet_below_periodic():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.6))
    k0 = k_of_lambda(cs, 0.0).value
    for R in (0.5, 1.0, 4.0):
        assert dirichlet_eigenvalue(cs, R).value < k0


def test_dirichlet_eigenvector_positive_interior():
    res = dirichlet_eigenvalue(HOMOG, 1.0)
    phi, psi = res.vector.reshape(2, -1)
    assert np.min(phi) > 0 and np.min(psi) > 0


def test_dirichlet_starting_level_past_the_cap_raises_before_building(monkeypatch):
    # R = 1e4 starts at ceil(64 * 2R / L) = 1.28e6 cells, past REFINE_CAP = 2^20
    def no_skeleton(*args, **kwargs):
        raise AssertionError("an operator was built past the refinement cap")

    monkeypatch.setattr(eigen, "_skeleton", no_skeleton)
    with pytest.raises(ValidationError, match=r"R=10000 needs 1\.28e\+06 cells"):
        dirichlet_eigenvalue(HOMOG, 1e4)


def test_soft_cell_cap_stops_refinement_before_the_refinement_cap():
    # a first level is at most REFINE_CAP // 2 cells and refinement stops at the
    # first level of SOFT_CELL_CAP cells or more, so no level passes REFINE_CAP
    assert eigen.SOFT_CELL_CAP <= util.REFINE_CAP // 2


def test_k_starting_level_past_the_cap_raises_before_building(monkeypatch):
    # a warm vector of 2048 cells starts k(lambda) at 512 cells, past a cap of 256
    def no_skeleton(*args, **kwargs):
        raise AssertionError("an operator was built past the refinement cap")

    monkeypatch.setattr(eigen, "REFINE_CAP", 256)
    monkeypatch.setattr(eigen, "_skeleton", no_skeleton)
    with pytest.raises(ValidationError, match="starting level of 512 cells"):
        k_of_lambda(HOMOG, 0.0, warm=np.ones(2 * 2048))
