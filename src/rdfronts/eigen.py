"""Principal eigenvalues of the linearized two-species operator.

The linearization at (0,0) couples the two densities through the mutation
rates, giving a cooperative elliptic system.  Three principal-eigenvalue
notions are computed on a conservative-flux finite-difference grid:

  * periodic         -- growth rate of small L-periodic data,
  * exponent-tilted  -- k(lambda), the Perron eigenvalue of the operator
                        conjugated by exp(lambda x), periodic eigenvector,
  * Dirichlet        -- on (-R, R) with zero boundary values.

The diffusion part is the stencil of ``stencil.flux_parts`` and
``stencil.tilted_couplings``, as in the pde module, conjugated as
exp(lambda x_i) * D[exp(-lambda x) w]_i: the off-diagonal flux entries are
multiplied by exp(-lambda h) and exp(+lambda h).  Off-diagonals
therefore stay positive for every lambda and h, and the matrix is Metzler and
irreducible, so the Perron root and a componentwise positive eigenvector
exist on the discrete level exactly as in the continuous theory.  The slope
k'(lambda) follows from the right and left Perron vectors (``tilt_slope``).

Only those flux couplings depend on lambda.  An ``OperatorSkeleton`` holds
the rest of the operator and its grid's layout, a ``_Ring`` or an
``_Interval`` shared by every skeleton of that kind and cell count, which
writes the CSR pattern, an operator's data on it and its LAPACK band.
``_operator`` tilts a skeleton into an operator, its CSR data on that
pattern; a scipy matrix is built only when a caller asks for one.  The
Perron iteration (``principal_eigenpair``) solves shifted systems with the
banded LU of ``_ShiftedBand``.  Every grid refinement starts on the level
that ``first_level`` picks and checks before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .coefficients import CoefficientSet
from .errors import NumericalError, PreconditionError, ValidationError
from .stencil import check_spacing, flux_parts, tilted_couplings
from .util import REFINE_CAP

RESIDUAL_TOL = 1e-9
MAX_ITERATIONS = 10 ** 4      # shift-invert steps before a Perron solve gives up
RAYLEIGH_TOL = 1e-12
K_GRID_TOL = 1e-7             # target of |R_2n - R_n| or |k_2n - k_n| in refinement
LEFT_RIGHT_TOL = 1e-9         # relative floor on |left root - right root|
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GridSpec:
    """Cell count of the eigenvalue discretization."""

    n_cells: int = 64

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValidationError("n_cells must be at least 16")


def _interleave_blocks(flat: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, list]:
    """A CSR array (data or indices) on (-R, R) with n nodes as two (n-1, 4)
    blocks, u rows and v rows, that hold each kind of entry in one column,
    and the positions of the four entries outside them.  A u row holds
    [down, diag, up, mutation] and a v row [mutation, down, diag, up], but
    node 0 has no down and node n-1 no up coupling, so flat is

      diag u0 | up ui, mutation ui, down ui+1, diag ui+1 (i < n-1) | mutation un-1 |
      mutation v0 | diag v0 | up vi, mutation vi+1, down vi+1, diag vi+1 (i < n-1)"""
    return (flat[1:4 * n - 3].reshape(n - 1, 4), flat[4 * n:].reshape(n - 1, 4),
            [0, 4 * n - 3, 4 * n - 2, 4 * n - 1])


def _interleave(out: np.ndarray, diag, up, down, mutation) -> np.ndarray:
    """out with the entries of each kind written into _interleave_blocks'
    columns and the four entries outside them: diag and mutation by species
    and node, and (u, v) pairs of up on nodes 0..n-2 and down on 1..n-1."""
    u, v, ends = _interleave_blocks(out, len(diag[0]))
    u[:, 0], u[:, 1], u[:, 2], u[:, 3] = up[0], mutation[0][:-1], down[0], diag[0][1:]
    v[:, 0], v[:, 1], v[:, 2], v[:, 3] = up[1], mutation[1][1:], down[1], diag[1][1:]
    out[ends] = diag[0][0], mutation[0][-1], mutation[1][0], diag[1][0]
    return out


def _ring_rows(out: np.ndarray, diag, up, down, mutation) -> np.ndarray:
    """out, a CSR array of the ring, with its rows of 4 entries written in
    column order: [down, diag, up, mutation] in a u row and [mutation, down,
    diag, up] in a v row, the wrap-around coupling sorting to the other side
    in the end rows, [diag, up, down] at node 0 and [up, down, diag] at n-1.
    diag and mutation are by species and node, up and down (u, v) pairs."""
    rows = out.reshape(2, -1, 4)
    rows[0, :, 3], rows[1, :, 0] = mutation
    for s, within in enumerate((rows[0, :, :3], rows[1, :, 1:])):
        within[:, 0], within[:, 1], within[:, 2] = down[s], diag[s], up[s]
        within[0] = diag[s][0], up[s][0], down[s][0]
        within[-1] = up[s][-1], down[s][-1], diag[s][-1]
    return out


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Ring:
    """The layout on a ring of n >= 3 nodes (_layout).  _ring_rows writes
    the read-only int32 indices, on column numbers, and the source index, on
    places in [diag, mutation, up, down], through which entries gathers an
    operator's data.  The band order interleaves the species node by node
    on a zig-zag visit of the ring (0, n-1, 1, n-2, ...), which keeps ring
    neighbours, the wrap-around included, at most two nodes apart, so
    kl = ku = 4.  perm[j] is the band position of unknown j and order its
    inverse.  Entry (r, c) goes to row ku + perm[r] - perm[c] of band
    column perm[c]; places is that position of each CSR entry as a flat
    index into the transposed band, and diagonal the CSR positions of the
    diagonal.  These index arrays are built on the first Perron solve.
    """

    boundary = "periodic"
    kl = ku = 4
    depth = 2 * kl + ku + 1

    def __init__(self, n: int):
        self.n = n
        self.indptr = np.arange(0, 8 * n + 1, 4, dtype=np.int32)
        own = np.arange(2 * n, dtype=np.int32).reshape(2, n)     # column of (species, node)
        self.indices = _ring_rows(np.empty(8 * n, dtype=np.int32), own, np.roll(own, -1, axis=1),
                                  np.roll(own, 1, axis=1), own[::-1])
        place = np.arange(6 * n, dtype=np.int32).reshape(6, n)   # in [diag, mutation, up, down]
        self.source = _ring_rows(np.empty(8 * n, dtype=np.intp), place[:2], (place[4], place[4]),
                                 (place[5], place[5]), place[2:4])
        _read_only(self.indices, self.indptr, self.source)

    def entries(self, diag, up, down, mutation) -> np.ndarray:
        # indexing, as take would copy the read-only source
        return np.concatenate([diag.ravel(), mutation.ravel(), up, down])[self.source]

    @cached_property
    def _band_index(self) -> Tuple[np.ndarray, ...]:
        """(perm, order, places, diagonal).  The zig-zag visit reaches node
        i at step 2i from the front or 2(n-1-i) + 1 from the back, whichever
        comes first; places and diagonal are read off the pattern."""
        i = np.arange(self.n)
        node_pos = np.minimum(2 * i, 2 * (self.n - 1 - i) + 1)
        perm = np.concatenate([2 * node_pos, 2 * node_pos + 1])
        col = perm[self.indices]                  # band position of each entry's column
        below = perm.repeat(4) - col              # and its row's, less the column's
        return _read_only(perm, np.argsort(perm), col * (self.kl + self.ku + 1) + self.ku + below,
                          np.flatnonzero(below == 0))

    def band(self, data: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The data scattered to its band places.  Each row sum adds the
        row's 4 entries left to right with the diagonal read as 0, which for
        nonnegative off-diagonals is bitwise their sum in CSR order."""
        _, _, places, diagonal = self._band_index
        stored = np.zeros((2 * self.n, self.kl + self.ku + 1))
        stored.reshape(-1)[places] = data
        rows = data.reshape(-1, 4).copy()
        rows.reshape(-1)[diagonal] = 0.0
        off = rows[:, 0] + rows[:, 1]
        off += rows[:, 2]
        off += rows[:, 3]
        return stored, data[diagonal], off

    def to_band(self, w: np.ndarray) -> np.ndarray:
        return w[self._band_index[1]]

    def from_band(self, x: np.ndarray) -> np.ndarray:
        return x[self._band_index[0]]


class _Interval:
    """The layout on n interior nodes of (-R, R) (_layout), all by strides.
    _interleave writes the read-only int32 indices and each operator's data.
    The band order is the plain interleave, unknown (species, node) at
    2 node + species, with kl = ku = 2, and each kind of entry has one band
    row in its own node's column or a neighbour's: diag in row 2, the
    coupling to node i+1 in row 0, to node i-1 in row 4, mutation in row 1
    of v's column or row 3 of u's.  So the band and the vector orders need
    no index array.
    """

    boundary = "dirichlet_zero"
    kl = ku = 2
    depth = 2 * kl + ku + 1

    def __init__(self, n: int):
        self.n = n
        self.indptr = np.arange(0, 8 * n + 1, 4, dtype=np.int32)
        for row in (0, n - 1, n, 2 * n - 1):      # each 3-entry row shifts the rows after it
            self.indptr[row + 1:] -= 1
        own = np.arange(2 * n, dtype=np.int32).reshape(2, n)     # column of (species, node)
        self.indices = _interleave(np.empty(8 * n - 4, dtype=np.int32),
                                   own, own[:, 1:], own[:, :-1], own[::-1])
        _read_only(self.indices, self.indptr)

    def entries(self, diag, up, down, mutation) -> np.ndarray:
        return _interleave(np.empty(len(self.indices)), diag, (up, up), (down, down), mutation)

    def band(self, data: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The band copied by strides from the columns of _interleave_blocks,
        row 2 node + species of the (2n, 5) transposed band being that
        unknown's column; the row sums by species and node are read back
        from it in CSR order, (down + up) + mutation in a u row and
        (mutation + down) + up in a v row, a missing coupling read as the
        zero of the node past the end."""
        n = self.n
        u, v, ends = _interleave_blocks(data, n)
        padded = np.zeros((n + 2, 10))            # the band rows of u's column, then v's,
        by_node = padded[1:-1]                    # with a zero node past either end
        # one column at a time: numpy copies a 2-column block row by row
        by_node[1:, 0], by_node[1:, 2] = u[:, 0], u[:, 3]     # up ui, diag ui+1: column ui+1
        by_node[:-1, 6], by_node[:-1, 4] = u[:, 1], u[:, 2]   # mutation ui: vi; down ui+1: ui
        by_node[1:, 5], by_node[1:, 7] = v[:, 0], v[:, 3]     # up vi, diag vi+1: column vi+1
        by_node[1:, 3], by_node[:-1, 9] = v[:, 1], v[:, 2]    # mutation vi+1: ui+1; down vi+1: vi
        by_node[0, 2], by_node[-1, 6], by_node[0, 3], by_node[0, 7] = data[ends]
        off = np.empty((2, n))
        np.add(padded[:-2, 4], padded[2:, 0], out=off[0])      # down + up
        off[0] += by_node[:, 6]                                # + mutation
        np.add(by_node[:, 3], padded[:-2, 9], out=off[1])      # mutation + down
        off[1] += padded[2:, 5]                                # + up
        return by_node.reshape(2 * n, 5), by_node[:, 2::5].T, off

    def to_band(self, w: np.ndarray) -> np.ndarray:
        b = np.empty_like(w)
        b[0::2], b[1::2] = w[:self.n], w[self.n:]
        return b

    def from_band(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n, 2).T


PATTERN_CACHE = 4             # grid layouts kept, by kind and cell count


@lru_cache(maxsize=PATTERN_CACHE)
def _layout(kind: type, n: int) -> _Ring | _Interval:
    """The _Ring or _Interval of n nodes, which every skeleton of that kind
    and count shares read-only; the last PATTERN_CACHE are kept, as the
    levels of a solve are mostly those of the solve before it.  Both have
    the CSR indices and indptr; entries(diag, up, down, mutation), an
    operator's CSR data from diag and mutation by species and node and the
    couplings to node i+1 and to node i-1; band(data), the transposed band
    below the fill-in with the diagonal and the off-diagonal row sums; kl,
    ku and depth; and to_band and from_band, the vector orders of a solve
    (from_band may give a view whose C-ordered ravel is the vector)."""
    return kind(n)


def _dyadic(m: int, n: int) -> bool:
    """n = 2m, or m = 2^k n with k >= 1: the pairs _strided_interp takes."""
    q, r = divmod(m, n)
    return n == 2 * m or (q > 1 and r == 0 and q & (q - 1) == 0)


@lru_cache(maxsize=8)
def _midpoint_weights(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only widths dx and offsets t of np.interp(period=1) from m
    points of linspace(0, 1, m, endpoint=False) onto the odd points of 2m:
    point 2k + 1 lies t[k] past old point k, in an interval of width dx[k].
    They depend on m alone, and the last 8 m are kept, since k chains and
    sweeps refine through the same few grids."""
    x_old = np.linspace(0.0, 1.0, m, endpoint=False)
    x_new = np.linspace(0.0, 1.0, 2 * m, endpoint=False)
    dx = np.append(np.diff(x_old), 1.0 - x_old[-1])    # np.interp pads x_old with x_old[0] + 1
    t = x_new[1::2] - x_old
    dx.flags.writeable = t.flags.writeable = False
    return dx, t


def _strided_interp(old: np.ndarray, n: int) -> np.ndarray:
    """np.interp(period=1) of each row of old, m points of linspace(0, 1, m,
    endpoint=False), onto n points of the same kind, by strides, for a
    _dyadic pair.  Both linspaces are i times their step, and a step 1/m
    is 2^k times the step 1/(2^k m) to the bit, so every other new point of
    n = 2m, and every 2^k-th old point of m = 2^k n, is an old point, where
    np.interp returns f.  The odd points of n = 2m lie inside the interval
    of old points k and k + 1 (wrapped), whose width dx and offset t come
    from the linspaces, and get np.interp's own (f[k+1] - f[k]) / dx * t +
    f[k] (_midpoint_weights)."""
    m = old.shape[1]
    if m > n:
        return old[:, ::m // n]
    dx, t = _midpoint_weights(m)
    new = np.empty((len(old), n))
    new[:, 0::2] = old
    odd = new[:, 1::2]
    np.subtract(old[:, 1:], old[:, :-1], out=odd[:, :-1])
    np.subtract(old[:, 0], old[:, -1], out=odd[:, -1])
    odd /= dx
    odd *= t
    odd += old
    return new


@dataclass(frozen=True)
class OperatorSkeleton:
    """The grid, layout (_layout) and lambda-independent values of the
    coupled operator on one grid; an operator is CSR data on the layout's
    pattern.  diag and mutation hold the coefficient samples of their entries by
    species and node (the diffusion diagonal plus reaction minus mutation;
    mu_v in the u rows, mu_u in the v rows), and up_sigma and down_sigma the
    face sigma of the couplings to node i+1 and to node i-1 (n of each on
    the ring, n-1 on (-R, R)).  Only the couplings depend on lambda, through
    exp(-+lambda h), so _operator tilts a skeleton into any operator on its
    grid.  The M' weights are built on first use, and roots holds the
    first-level roots of the k solves that started on the grid.
    """

    n: int
    h: float
    nodes: np.ndarray
    layout: _Ring | _Interval
    diag: np.ndarray              # (2, n)
    mutation: np.ndarray          # (2, n)
    up_sigma: np.ndarray          # face sigma of the i -> i+1 couplings
    down_sigma: np.ndarray        # face sigma of the i -> i-1 couplings

    boundary = property(lambda self: self.layout.boundary)

    @cached_property
    def roots(self) -> list:
        """(lambda, raw Perron root) of each k solve whose first level was
        this grid, in the order solved (k_of_lambda)."""
        return []

    @cached_property
    def slope_weights(self) -> np.ndarray:
        """M'.data / M.data: -h on the couplings to node i+1, +h on those to
        node i-1, 0 elsewhere."""
        zero, h = np.zeros((2, self.n)), np.full(len(self.up_sigma), self.h)
        return self.layout.entries(zero, -h, h, zero)


def _skeleton(cs: CoefficientSet, n: int,
              half_width: Optional[float] = None) -> OperatorSkeleton:
    """Skeleton on n cells of one period, or on n interior nodes of (-R, R)
    given half_width=R, each species block being flux_parts' diagonal (plus
    reaction minus mutation), up and down couplings, on the layout of its
    kind and count."""
    if half_width is None:
        h, kind = cs.period / n, _Ring
        nodes = h * np.arange(n)
    else:
        h, kind = 2.0 * half_width / (n + 1), _Interval
        nodes = -half_width + h * np.arange(1, n + 1)
    diag, up, down = flux_parts(cs, nodes, h, kind.boundary)
    mu, mv = cs.mu_u(nodes), cs.mu_v(nodes)
    return OperatorSkeleton(n, h, nodes, _layout(kind, n),
                            np.stack([diag + (cs.r_u(nodes) - mu), diag + (cs.r_v(nodes) - mv)]),
                            np.stack([mv, mu]), up, down)


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled 2n x 2n coupled operator (u unknowns first, then v): its CSR
    data on its skeleton's pattern.  The kernels read data through the
    pattern's indptr, so data of another shape is a ValidationError."""

    data: np.ndarray
    lam: float
    skeleton: OperatorSkeleton

    def __post_init__(self):
        if np.shape(self.data) != self.skeleton.layout.indices.shape:
            raise ValidationError("operator data does not fill its grid's CSR pattern")

    n = property(lambda self: self.skeleton.n)
    h = property(lambda self: self.skeleton.h)
    boundary = property(lambda self: self.skeleton.boundary)
    nodes = property(lambda self: self.skeleton.nodes)

    @property
    def dimension(self) -> int:
        return 2 * self.n

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The scipy CSR matrix, built on request; the solvers never ask."""
        layout = self.skeleton.layout
        return sp.csr_matrix((self.data, layout.indices, layout.indptr),
                             shape=(self.dimension,) * 2)

    @cached_property
    def shifted(self) -> _ShiftedBand:
        """The banded LU of its Perron solves, built on first use.  It holds
        the last shift factored, for the left solve that follows the right
        one; it lives as long as the operator, which a refinement loop drops
        level by level."""
        return _ShiftedBand(self)


@dataclass
class EigenResult:
    """Principal eigenvalue with its positive discrete Perron vector, the
    solve's last iterate: the only copy of the pair, which later solves start
    from and never write.  A k_of_lambda(slope=True) result counts the left
    solve behind its slope in its iterations and factorizations.  bracket is
    that of the discrete root of the (finest) operator solved, which
    k_of_lambda and dirichlet_eigenvalue replace by their Richardson value."""

    value: float
    vector: np.ndarray                       # u block, then v block; largest entry 1
    lam: float
    iterations: int
    residual: float
    n_cells: int
    h: float
    rounding: float                          # 8 eps ||M||, the floor under the residual
    bracket: Tuple[float, float]             # [min, max] of Mw/w: Collatz-Wielandt bounds
    levels: int = 1                          # grid levels solved (1 for a single operator)
    factorizations: int = 0                  # banded LU factorizations, summed like iterations
    pivoted: int = 0                         # those that swapped rows, summed alike
    restarts: int = 0                        # solves restarted off their first shift, alike
    slope: Optional[float] = None            # d value / d lambda, from k_of_lambda(slope=True)
    first_root: Optional[float] = None       # raw Perron root of a refinement's first level


def first_level(cs: CoefficientSet, grid: Optional[GridSpec], lam: float = 0.0,
                R: Optional[float] = None, warm=None) -> int:
    """Cell count of the first level of every grid refinement: n_cells doubled
    until h*|lam|*sigma_max <= sigma_min on a period, n_cells per period (at
    least n_cells) on (-R, R), and at least n // 4 for a warm vector of 2n.
    ValidationError when REFINE_CAP cannot double it or its spacing (a period's
    n_cells spacing first) has no finite nonzero square."""
    n = (grid or GridSpec()).n_cells
    if R is None:
        check_spacing(cs.period / n)
        while n <= REFINE_CAP // 2 and cs.period / n * abs(lam) * cs.sigma_max > cs.sigma_min:
            n *= 2
    elif not (R > 0):
        raise PreconditionError("Dirichlet half-width R must be positive")
    else:
        n = max(n, n * 2.0 * R / cs.period)
    n = max(n, 0 if warm is None else np.size(warm) // 8)
    if not 2 * n <= REFINE_CAP:
        where = f"lambda={lam:.6g}" if R is None else f"R={R:.6g}"
        raise ValidationError(f"{where} needs {n:.3g} cells on its first level; the refinement "
                              f"cap {REFINE_CAP} cannot double a starting level of {n:.3g} cells")
    n = int(np.ceil(n))
    check_spacing(cs.period / n if R is None else 2.0 * R / (n + 1))
    return n


def _operator(skeleton: OperatorSkeleton, lam: float) -> DiscreteOperator:
    """The skeleton's operator at lambda, the couplings tilted by
    exp(-+lambda h).  The entries are bitwise those of a COO -> CSR build of
    the stencil's triplets."""
    up, down = tilted_couplings(skeleton.up_sigma, skeleton.down_sigma, skeleton.h, lam)
    data = skeleton.layout.entries(skeleton.diag, up, down, skeleton.mutation)
    return DiscreteOperator(data, lam, skeleton)


def build_operator(cs: CoefficientSet, lam: float, grid: GridSpec,
                   half_width: Optional[float] = None,
                   refine: bool = True) -> DiscreteOperator:
    """Assemble the coupled discrete operator on the requested grid.

    Without half_width the grid discretizes one period with n_cells nodes.
    half_width=R selects the Dirichlet operator instead: n_cells interior
    nodes on (-R, R), the eigenvector being extended by zero at the
    endpoints.  At lambda=0 the periodic operator reduces to the plain
    linearized one.
    """
    if half_width is not None:
        if not (half_width > 0):
            raise ValidationError("the Dirichlet half-width R must be positive")
        if lam != 0.0:
            raise ValidationError("the Dirichlet eigenproblem is posed at lambda=0")
        return _operator(_skeleton(cs, grid.n_cells, half_width), 0.0)
    n = first_level(cs, grid, lam) if refine else grid.n_cells
    return _operator(_skeleton(cs, n), lam)


# -- Perron iteration --------------------------------------------------------

def _start_vector(op: DiscreteOperator, warm) -> np.ndarray:
    """The warm vector, read through a (2, m) view, interpolated onto the
    operator's grid when m differs, as a new vector scaled to max 1; ones when
    there is no warm vector or it is not positive.  The interpolation gives
    the bits of np.interp(period=1) from linspace(0, 1, m, endpoint=False)
    onto the n points of the same kind: it copies by strides where the nodes
    coincide (_dyadic: n = 2m, m = 2^k n) and calls np.interp itself for any
    other pair."""
    if warm is not None:
        old = np.reshape(warm, (2, -1))           # (2, m): u block, then v block
        m, n = old.shape[1], op.n
        if _dyadic(m, n):
            old = _strided_interp(old, n)
        elif m != n:
            x_old, x_new = (np.linspace(0.0, 1.0, k, endpoint=False) for k in (m, n))
            old = np.stack([np.interp(x_new, x_old, f, period=1.0) for f in old])
        w = old.ravel()
        if np.all(w > 0):
            return w / np.max(w)
    return np.ones(op.dimension)


def _matvec(op: DiscreteOperator, w: np.ndarray, transpose: bool = False) -> np.ndarray:
    """M w, or M^T w, by the compiled kernel of scipy's own product
    (_compressed._matmul_vector): csr_matvec on the skeleton's pattern and
    the data, or csc_matvec on them, the CSC arrays of the transpose, adding
    into zeros.  The bits are those of op.matrix @ w, without the matrix or
    its operator dispatch, which costs about as much as the kernel on the
    grids of a k chain.  A w of another length is a ValueError."""
    size = op.dimension
    if w.shape != (size,):
        raise ValueError(f"cannot multiply a {size} x {size} operator by a {w.shape} vector")
    mw, layout = np.zeros(size), op.skeleton.layout
    (csc_matvec if transpose else csr_matvec)(size, size, layout.indptr, layout.indices,
                                              op.data, w, mw)
    return mw


def _rayleigh_and_residual(product: Callable[[np.ndarray], np.ndarray],
                           w) -> Tuple[float, float, np.ndarray]:
    """Rayleigh quotient, sup-norm residual and M w = product(w) of an
    iterate w whose largest entry is 1, so the residual needs no scaling."""
    mw = product(w)
    value = float(w @ mw) / float(w @ w)
    r = value * w
    residual = float(np.abs(np.subtract(mw, r, out=r), out=r).max())
    return value, residual, mw


class _ShiftedBand:
    """(sI - M)^-1 of a cooperative operator by a banded LU, one shift at a time.

    The operator's data must have nonnegative off-diagonals (ValidationError
    otherwise).  Its layout lays it into LAPACK band storage once and puts
    each solve's vectors into and out of the band order.  far_shift is max
    row sum + 1 and norm max_i sum_j |M_ij|, with the off-diagonals of each
    row added in its CSR order.  factor(s) copies the band below the kl rows of fill-in,
    subtracts s from its diagonal row (the only row that depends on s),
    factors M - sI by dgbtrf (NumericalError on a zero pivot) and keeps s as
    shift.  dgbtrf zeroes the fill-in it uses, so the fill-in rows need no
    reset between shifts.  factor also records whether dgbtrf swapped rows
    (unpivoted, False until a factorization succeeds).

    solve negates its solution: rounding is symmetric, so that is bitwise the
    solution with sI - M, or with its transpose given trans=1.  The band
    order P needs no change for the transpose, as (P A P^T)^T = P A^T P^T.
    On unpivoted factors a trans=0 solve is dtbsv on the unit-lower L, read
    through a view of the band from its diagonal row, then dtbsv on U, read
    from the row below the fill-in with its ku superdiagonals: without row
    interchanges dgbtrf leaves the fill-in zero, and dgbtrs' U solve over
    kl + ku superdiagonals only adds those zeros, so the bits are the same,
    without dgbtrs' BLAS call per column.  Pivoted factors, whose row swaps
    fall between L's columns, and trans=1 solves, whose transposed L sweep
    dtbsv would sum in another order, take dgbtrs.
    """

    def __init__(self, op: DiscreteOperator):
        layout = self.layout = op.skeleton.layout
        self._stored, diag, off = layout.band(op.data)
        negative = self._stored < 0
        negative[:, layout.ku] = False            # the diagonal
        if negative.any():
            raise ValidationError("operator is not cooperative: negative off-diagonal entry")
        self.far_shift = max(float(np.max(off + diag)), 0.0) + 1.0
        self.norm = float(np.max(np.abs(diag) + off))
        del diag, off                             # before the work array is allocated
        # The (depth, 2n) column-major array dgbtrf factors in place; it sets
        # the fill-in of the top kl rows before using it.  _lower reads the
        # same buffer from the diagonal row on, and _upper from the row below
        # the fill-in, both with the same leading dimension: each column of
        # _lower holds the unit-lower factor's multipliers below its first
        # entry, and each of _upper the ku superdiagonals of U above its last.
        # The buffer has kl + ku entries more, so that their last columns
        # stay inside.
        size = op.dimension * layout.depth
        buffer = np.zeros(size + layout.kl + layout.ku)
        self._work = buffer[:size].reshape(op.dimension, layout.depth).T
        self._lower = buffer[layout.kl + layout.ku:].reshape(op.dimension, layout.depth).T
        self._upper = buffer[layout.kl:size + layout.kl].reshape(op.dimension, layout.depth).T
        self._pivots = self.shift = None
        self.unpivoted = False

    def factor(self, shift: float) -> None:
        kl, ku = self.layout.kl, self.layout.ku
        self.shift, self.unpivoted = None, False  # until the new factors are in place
        self._work[kl:] = self._stored.T
        self._work[kl + ku] -= shift
        _, self._pivots, info = dgbtrf(self._work, kl, ku, overwrite_ab=1)
        if info != 0:
            raise NumericalError(f"shifted operator is singular at s={shift:.17g}: "
                                 f"dgbtrf info {info}")
        # LAPACK's pivots satisfy j <= ipiv[j] <= j + kl, so they sum to
        # N(N-1)/2 only when no row was interchanged.  Summed in their own
        # int32, the sum needs no 64 kB cast buffer, and it may wrap: the
        # excess over N(N-1)/2 is below 2^32, so it is 0 modulo 2^32 only if 0.
        size = len(self._pivots)
        excess = int(self._pivots.sum(dtype=self._pivots.dtype)) - size * (size - 1) // 2
        self.unpivoted = excess % 2 ** 32 == 0
        self.shift = shift

    def solve(self, w: np.ndarray, trans: int = 0) -> np.ndarray:
        layout = self.layout
        b = layout.to_band(w)
        if self.unpivoted and not trans:          # L y = b, then U x = y
            b = dtbsv(layout.kl, self._lower, b, lower=1, diag=1, overwrite_x=1)
            x = dtbsv(layout.ku, self._upper, b, overwrite_x=1)
        else:
            x, _ = dgbtrs(self._work, layout.kl, layout.ku, b, self._pivots,
                          trans=trans, overwrite_b=1)
        return np.negative(layout.from_band(x), order="C").ravel()


def principal_eigenpair(op: DiscreteOperator, warm=None, left: bool = False,
                        first_shift: Optional[float] = None) -> EigenResult:
    """Perron eigenpair of a cooperative discrete operator by shift-invert iteration.

    Each step solves (sI - M) y = w and normalizes y.  For every shift s above
    the Perron root k, sI - M is an irreducible nonsingular M-matrix, so its
    inverse is entrywise positive and keeps the iterate positive.  The
    solves use the banded LU of _ShiftedBand, one factorization held at a
    time; the result counts the factorizations that swapped rows as pivoted.
    Three shifts are used:

      * the far shift s_far = max row sum + 1, whose rate (s_far-k)/(s_far-k2)
        is enough for warm-started solves and damps rounding noise in the
        high-frequency modes;
      * the Collatz-Wielandt upper bound s = max(Mw/w) >= k (Noda's iteration,
        superlinear), taken whenever a step shrinks the residual by less than
        4x while it is still 100x above its tolerance;
      * first_shift, for the first step only, when given and below s_far: a
        refinement level passes the Perron root of the level below it
        (_refine_to_tolerance), the first level of a k solve whose lambda
        lies between two earlier roots on its grid their chord plus a margin
        (k_of_lambda), and a Dirichlet sweep's first level a root predicted
        from the radii before it (dirichlet_sweep).  A shift just above k
        damps every other mode of the start vector by (s-k)/(s-k_j) in one
        step.

    Only the chord is proven to lie above k, and only up to the rounding of
    the roots it passes through.  The first iterate y proves it of any shift
    when y > 0 and max(My/y) < s: then My < sy, and the Collatz-Wielandt
    bound puts k below s.  In exact arithmetic y > 0 alone would prove it,
    but with s within rounding of k rounding picks the sign of y, so the
    bound is checked too.  Without that proof the iteration restarts on s_far
    from the same start vector, built once, as if no first shift had been
    given, so a restarted solve gives the bits of one without; the result
    counts the restart, and the failed step and its factorization.

    A step that stalls on a Collatz-Wielandt shift within 100x of the
    tolerance takes one step on s_far, since a near-singular shift leaves
    noise above the rounding floor and one far step damps it.  A stall on
    s_far goes back to the Collatz-Wielandt shift: staying on s_far would
    crawl at its rate, thousands of steps on some operators.  Convergence
    requires a Rayleigh-quotient change below RAYLEIGH_TOL (relative) and a
    sup-norm residual of M w - value w below RESIDUAL_TOL.  That residual
    cannot drop below machine epsilon times the operator norm (the flux
    entries scale like 1/h^2), so the tolerance is floored there on fine grids.
    At convergence the result carries the Collatz-Wielandt bracket
    [min(Mw/w), max(Mw/w)], which holds the Perron root of M for any positive
    w, and a value outside it by more than the rounding level 8 eps ||M|| is
    a NumericalError.

    With left=True the pair is that of M^T, the left Perron pair of M: the
    steps solve with the transposed factors of the operator's band (always
    by dgbtrs trans=1), and the first one uses the shift a previous solve on
    the operator left factored, if any, in place of first_shift.  A solve
    with neither starts on s_far.
    """
    def product(w: np.ndarray) -> np.ndarray:
        return _matvec(op, w, transpose=left)
    band = op.shifted
    rounding = 8.0 * EPS * band.norm
    residual_tol = max(RESIDUAL_TOL, rounding)

    w = start = _start_vector(op, warm)
    value, residual, _ = _rayleigh_and_residual(product, w)
    shift = band.shift if left else None
    hinted = shift is None and first_shift is not None and first_shift < band.far_shift
    next_shift = first_shift if hinted else band.far_shift if shift is None else shift
    factorizations = pivoted = restarts = 0
    for it in range(1, MAX_ITERATIONS + 1):
        if next_shift != shift:
            shift = next_shift
            band.factor(shift)
            factorizations += 1
            pivoted += not band.unpivoted
        w = band.solve(w, trans=int(left))
        positive = bool((w > 0).all())
        if positive:
            w /= w.max()
            new_value, new_residual, mw = _rayleigh_and_residual(product, w)
        if hinted and it == 1 and not (positive and float((mw / w).max()) < shift):
            w, next_shift, restarts = start, band.far_shift, 1
            continue                              # s is not shown to lie above the root
        if not positive:
            raise NumericalError(f"shift-invert step at s={shift:.17g} produced a "
                                 f"non-positive iterate (min {np.min(w):.3e})")
        ray_tol = max(RAYLEIGH_TOL * max(1.0, abs(new_value)), 0.01 * residual_tol)
        if abs(new_value - value) < ray_tol and new_residual < residual_tol:
            if np.min(w) <= 0:                    # an entry underflowed in w / w.max()
                raise NumericalError("Perron iteration produced a non-positive eigenvector "
                                     f"(min component {np.min(w):.3e})")
            ratios = mw / w
            low, high = float(ratios.min()), float(ratios.max())
            if not low - rounding <= new_value <= high + rounding:
                raise NumericalError(f"Perron value {new_value:.17g} lies outside its "
                                     f"Collatz-Wielandt bracket [{low:.17g}, {high:.17g}]")
            return EigenResult(value=new_value, vector=w, lam=op.lam, iterations=it,
                               residual=new_residual, n_cells=op.n, h=op.h, rounding=rounding,
                               bracket=(low, high), factorizations=factorizations,
                               pivoted=pivoted, restarts=restarts)
        if new_residual > 0.25 * residual:
            if new_residual < 100.0 * residual_tol and shift != band.far_shift:
                next_shift = band.far_shift
            else:
                next_shift = min(float((mw / w).max()), band.far_shift)
        value, residual = new_value, new_residual
        del mw                                    # before the next solve allocates
    raise NumericalError(f"shift-invert iteration did not converge in {MAX_ITERATIONS} "
                         f"iterations (last residual {residual:.3e})")


def tilt_derivative(op: DiscreteOperator) -> DiscreteOperator:
    """M'(lambda) = dM/dlambda, an operator on op's pattern for products.

    Only the flux couplings depend on lambda, so M' is M rescaled by the
    skeleton's weights: -h on the couplings towards node i+1, +h on those
    towards node i-1, in both species blocks, and 0 elsewhere.
    """
    return DiscreteOperator(op.skeleton.slope_weights * op.data, op.lam, op.skeleton)


def tilt_slope(op: DiscreteOperator, right: EigenResult) -> Tuple[float, EigenResult]:
    """dk/dlambda of the Perron root of a tilted operator, and its left eigenpair.

    Hellmann-Feynman: k' = y^T M'(lambda) x / y^T x, where x is the Perron
    vector of `right`, solved on op, and y the left one, solved from x on the
    factorization op's band still holds (principal_eigenpair with left=True),
    and M' comes from tilt_derivative.  Each Perron root is accurate to about
    its residual, which is floored at rounding level on fine grids, so the
    two roots must agree to within the sum of the residuals plus
    LEFT_RIGHT_TOL (relative); otherwise NumericalError.
    """
    left = principal_eigenpair(op, warm=right.vector, left=True)
    gap = abs(left.value - right.value)
    if gap > LEFT_RIGHT_TOL * max(1.0, abs(right.value)) + right.residual + left.residual:
        raise NumericalError(f"left and right Perron roots differ by {gap:.2e} on the "
                             f"{op.n}-cell grid at lambda={op.lam}")
    x, y = right.vector, left.vector
    return float(y @ _matvec(tilt_derivative(op), x) / (y @ x)), left


# -- eigenvalue curves with grid refinement ----------------------------------

SOFT_CELL_CAP = 2 ** 18       # past this the rounding floor always dominates
NOISE_MULTIPLE = 100.0        # a gap this close to the rounding level is noise
SUMMED_COUNTS = ("iterations", "factorizations", "pivoted", "restarts")   # over solves


def _add_counts(total: EigenResult, part: EigenResult, keys=SUMMED_COUNTS) -> None:
    """Add part's counts to total's, for a result that sums several solves."""
    for key in keys:
        setattr(total, key, getattr(total, key) + getattr(part, key))


def _refine_to_tolerance(make_op, n: int, tol: float, warm, label: str,
                         first_shift: Optional[float] = None
                         ) -> Tuple[EigenResult, DiscreteOperator, float]:
    """Double the grid until the Richardson value is settled; return it.

    Level 2n gives the Richardson value R_2n = k_2n + (k_2n - k_n)/3, which
    cancels the h^2 term of the second-order stencil.  Refinement stops at
    the first level where either
      * two successive Richardson values agree, |R_2n - R_n| < tol
        (Romberg's test; it needs three levels), or
      * the raw gap already does, |k_2n - k_n| < tol (two levels suffice).
    It also stops at the noise floor: a gap within NOISE_MULTIPLE of the
    finer level's rounding level 8 eps ||M||, where the 1/h^2 flux scale
    leaves nothing for further refinement to resolve.  A gap that stops
    shrinking is not taken for noise: on a discontinuous sigma the gaps can
    swing between levels far above the rounding level.  Returns the finest
    level's eigenpair (with the Perron iterations, factorizations, restarts
    and levels of the whole loop), its operator and R_2n.

    Each level above the first starts from the level below: its vector,
    interpolated, and its raw root as principal_eigenpair's first_shift.
    The first level starts from warm's vector and from first_shift when
    given (k_of_lambda's chord, dirichlet_sweep's prediction), the far shift
    otherwise; its raw root is returned as the result's first_root.  The root
    of the level below is meant to lie just above the finer root, where one step
    leaves little but the Perron mode.  On a constant medium it does: the
    three-point stencil's eigenvalues of d^2/dx^2, -4 sin^2(theta h/2)/h^2
    for wave number theta, lie above -theta^2 and fall towards it as h
    halves, and the tilted couplings give 4 sinh^2(lambda h/2)/h^2 >=
    lambda^2.  With varying coefficients that is measured, not proven: it
    held on every level of the benchmark's jobs but those whose roots agree
    to rounding, and on all but under 1% of the test suite's levels.  On a
    level where it does not, the solve restarts on the far shift.
    """
    coarse = principal_eigenpair(make_op(n), warm=warm, first_shift=first_shift)
    first_root, prev_extrapolated = coarse.value, None
    while True:
        n *= 2
        op = make_op(n)
        finer = principal_eigenpair(op, warm=coarse.vector, first_shift=coarse.value)
        _add_counts(finer, coarse, SUMMED_COUNTS + ("levels",))   # every level so far
        gap = abs(finer.value - coarse.value)
        extrapolated = finer.value + (finer.value - coarse.value) / 3.0
        settled = prev_extrapolated is not None and abs(extrapolated - prev_extrapolated) < tol
        at_noise_floor = gap < NOISE_MULTIPLE * finer.rounding
        past_soft_cap = n >= SOFT_CELL_CAP
        if past_soft_cap and gap > 1e-4 * max(1.0, abs(finer.value)):
            raise NumericalError(f"eigenvalue gap {gap:.2e} still large at the "
                                 f"{SOFT_CELL_CAP}-cell level for {label}")
        if gap < tol or settled or at_noise_floor or past_soft_cap:
            finer.first_root = first_root
            return finer, op, extrapolated
        coarse, prev_extrapolated = finer, extrapolated
        del op                                    # before the finer level is built


CHORD_MARGIN = 1e-10          # relative pad of a chord first shift: about its level's rounding


def _chord_shift(roots: list, lam: float) -> Optional[float]:
    """A first shift for lambda from the (lambda, root) pairs solved before
    on one periodic grid, or None when none lie on one side of lambda: the
    chord through the nearest below and the nearest above, plus CHORD_MARGIN
    times the larger of its size and 1.

    On a fixed grid only the couplings depend on lambda, through
    exp(-+lambda h), so for c large M + cI is nonnegative with log-convex
    entries, and its Perron root is log-convex in lambda (J. F. C. Kingman,
    "A convexity property of positive matrices", Quart. J. Math. 12, 1961).
    The root r(lambda) is therefore convex and lies at or below the chord.
    Each root is exact only to about the rounding level 8 eps ||M||, and in
    the narrow brackets of a root search chord and root agree to rounding,
    so the margin keeps the shift above the root there."""
    below = max((pair for pair in roots if pair[0] < lam), default=None)
    above = min((pair for pair in roots if pair[0] > lam), default=None)
    if below is None or above is None:
        return None
    (a, ra), (b, rb) = below, above
    chord = ra + (rb - ra) * (lam - a) / (b - a)
    return chord + CHORD_MARGIN * max(1.0, abs(chord))


def k_of_lambda(cs: CoefficientSet, lam: float, grid: Optional[GridSpec] = None,
                tol: float = K_GRID_TOL, warm=None, slope: bool = False,
                skeletons: Optional[dict] = None) -> EigenResult:
    """Exponent-tilted principal eigenvalue k(lambda) with automatic refinement.

    The returned value is the Richardson extrapolation of the two finest
    levels (the flux stencil is second order, so this cancels the leading h^2
    term).  The grid is doubled until two successive Richardson values, or
    two successive eigenvalues, differ by less than tol, or until the gap
    reaches the rounding floor; see _refine_to_tolerance.  k(0) is the
    periodic principal eigenvalue.  The first level is first_level's, which
    warm, the vector of a previous result, raises to a quarter of its cell
    count n: n/4, n/2 and n are the three levels the Richardson test needs to
    stop where the previous solve did, and the grid can still coarsen by one.

    With slope=True the result also carries k'(lambda) from tilt_slope on the
    finest level, and its iterations and factorizations include that left
    solve's.

    skeletons maps cell counts to operator skeletons of cs.  A chain passes
    one dict to all its solves: each solve takes the skeletons of its levels
    from it and adds the ones it builds.  The first level's skeleton keeps
    the solve's raw first-level root in its roots, and a solve whose lambda
    lies between two roots kept there starts its first level on their chord
    (_chord_shift), which lies above the root, and on the far shift
    otherwise.
    """
    n = first_level(cs, grid, lam, warm=warm)
    held = {} if skeletons is None else skeletons

    def skeleton(m: int) -> OperatorSkeleton:
        if m not in held:
            held[m] = _skeleton(cs, m)
        return held[m]
    roots = skeleton(n).roots
    res, op, value = _refine_to_tolerance(lambda m: _operator(skeleton(m), lam), n, tol,
                                          warm, f"lambda={lam}", _chord_shift(roots, lam))
    roots.append((lam, res.first_root))
    if slope:
        res.slope, left = tilt_slope(op, res)
        _add_counts(res, left)
    res.value = value
    return res


def dirichlet_eigenvalue(cs: CoefficientSet, R: float,
                         grid: Optional[GridSpec] = None,
                         tol: float = K_GRID_TOL, warm=None,
                         first_shift: Optional[float] = None) -> EigenResult:
    """Principal eigenvalue on (-R, R) with zero boundary values.

    Same refinement-plus-extrapolation contract as k_of_lambda, from the level
    of first_level: n_cells per period, so the coefficients stay resolved.
    first_shift is the first level's (principal_eigenpair): dirichlet_sweep
    passes one predicted from the radii before R.
    """
    n = first_level(cs, grid, R=R)
    res, _, value = _refine_to_tolerance(lambda m: _operator(_skeleton(cs, m, R), 0.0),
                                         n, tol, warm, f"R={R}", first_shift)
    res.value = value
    return res


# -- warm-started chains ------------------------------------------------------

# Each solve starts from the vector of a result before it.  The solvers are
# looked up by their module-global names at every call, so wrappers installed
# on eigen.k_of_lambda / eigen.dirichlet_eigenvalue see each solve.

def k_curve(cs: CoefficientSet, lambdas: Sequence[float],
            grid: Optional[GridSpec] = None, tol: float = K_GRID_TOL,
            skeletons: Optional[dict] = None) -> list:
    """k(lambda) over a lambda grid, returned in grid order and solved in
    bisection order: both ends, then the middle point between each two solved
    ones, recursively.  Every interior point is then solved between two
    solved points, whose roots give its first level a chord first shift when
    they are on its grid (k_of_lambda).  Each point is warm-started from the
    vector of its nearest solved neighbour: the first end from nothing, the
    last end from the first, and a middle point from the lower end of its
    pair, which is never the farther one.  All of them keep their skeletons
    and roots in `skeletons` when given."""
    held = {} if skeletons is None else skeletons
    results = [None] * len(lambdas)

    def solve(i: int, warm: Optional[np.ndarray]) -> None:
        results[i] = k_of_lambda(cs, float(lambdas[i]), grid, tol, warm=warm, skeletons=held)

    def between(lo: int, hi: int) -> None:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            solve(mid, results[lo].vector)
            between(lo, mid)
            between(mid, hi)
    last = len(lambdas) - 1
    if last >= 0:
        solve(0, None)
    if last > 0:
        solve(last, results[0].vector)
        between(0, last)
    return results


def _predicted_shift(roots: list, R: float) -> Optional[float]:
    """A first shift for radius R from the (radius, first-level root) pairs
    solved before it, or None.  When the last two radii R1 < R2 are below R,
    r(R) = a - b/R^2 through (R1, r1) and (R2, r2) predicts the root
    p = r2 + b (R2^-2 - R^-2), and the shift is p + (p - r2)/100."""
    if len(roots) < 2:
        return None
    (R1, r1), (R2, r2) = roots[-2:]
    if not R1 < R2 < R:
        return None
    b = (r2 - r1) / (R1 ** -2 - R2 ** -2)
    p = r2 + b * (R2 ** -2 - R ** -2)
    return p + (p - r2) / 100.0


def dirichlet_sweep(cs: CoefficientSet, radii: Sequence[float],
                    grid: Optional[GridSpec], tol: float) -> list:
    """Dirichlet principal eigenvalues over the radii, in order, each radius
    warm-started from the vector of the result before it; every radius's
    first_level is checked before any solve.

    The first level of a radius past two increasing radii before it starts
    on the shift _predicted_shift gives, from their first-level roots.
    lambda_1(R) rises to min k like R^-2 (the effective-mass rate), and a
    first level has n_cells per period at every radius, so its raw root
    follows the same law.  The 1% margin puts the shift above the root: on
    the benchmark's dirichlet jobs the prediction fell short of the root by
    at most 0.4% of the predicted rise.  That is measured, not proven; a
    shift not shown to lie above the root restarts on the far shift, with
    the bits of the solve without it (principal_eigenpair).  Every other
    first level starts on the far shift."""
    radii = [float(R) for R in radii]
    for R in radii:
        first_level(cs, grid, R=R)
    results = []
    for R in radii:
        roots = [(radius, res.first_root) for radius, res in zip(radii, results)]
        results.append(dirichlet_eigenvalue(cs, R, grid, tol,
                                            warm=results[-1].vector if results else None,
                                            first_shift=_predicted_shift(roots, R)))
    return results
