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
the grid's CSR pattern and the rest of the operator, and ``_operator`` tilts
it into an operator on that pattern.  A warm chain keeps every skeleton it
built.  The Perron iteration solves shifted systems with a banded LU (LAPACK
dgbtrf/dgbtrs) in an order that interleaves the species and visits the
periodic ring zig-zag, which keeps the band at 4 sub- and superdiagonals (2
on Dirichlet operators).  An operator holds its band, so the left Perron
vector is solved with the transposed factors (dgbtrs trans=1) of the right
solve's last shift.  Every grid refinement starts on the level that
``first_level`` picks and checks before anything is built.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .coefficients import CoefficientSet
from .errors import NumericalError, PreconditionError, ValidationError
from .stencil import check_spacing, flux_parts, tilted_couplings
from .util import REFINE_CAP

RESIDUAL_TOL = 1e-9
MAX_ITERATIONS = 10 ** 4      # shift-invert steps before a Perron solve gives up
RAYLEIGH_TOL = 1e-12
K_GRID_TOL = 1e-7             # target of |R_2n - R_n| or |k_2n - k_n| in refinement
LEFT_RIGHT_TOL = 1e-9         # relative floor on |left root - right root|


@dataclass(frozen=True)
class GridSpec:
    """Cell count of the eigenvalue discretization."""

    n_cells: int = 64

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValidationError("n_cells must be at least 16")


class _BandPattern:
    """Where the stored entries of a 2n x 2n matrix go in LAPACK band storage.

    The unknowns are put in band order: the two species interleaved, node by
    node, and a periodic ring visited zig-zag (0, n-1, 1, n-2, ...), so that
    ring neighbours, the wrap-around included, are at most two nodes apart.
    perm[j] is the band position of unknown j and order its inverse.  An
    entry (r, c) of a matrix with kl sub- and ku superdiagonals in this order
    goes to row kl + ku + perm[r] - perm[c], column perm[c] of the
    (2 kl + ku + 1) x 2n array dgbtrf factors; slots holds that position for
    each entry, as a flat index into the transposed (C-ordered) array, and
    diag_slots the entries on the diagonal, one per row and in row order.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int, boundary: str):
        visit = np.arange(n, dtype=np.int32)
        if boundary == "periodic":
            visit[0::2], visit[1::2] = np.arange((n + 1) // 2), n - 1 - np.arange(n // 2)
        node_pos = np.empty(n, dtype=np.int32)
        node_pos[visit] = np.arange(n)
        self.perm = np.concatenate([2 * node_pos, 2 * node_pos + 1])
        self.order = np.argsort(self.perm).astype(np.int32)
        self.rows = rows
        self.diag_slots = np.flatnonzero(rows == cols).astype(np.int32)
        below = self.perm[rows] - self.perm[cols]
        self.kl, self.ku = int(below.max(initial=0)), int(-below.min(initial=0))
        self.depth = 2 * self.kl + self.ku + 1
        self.slots = self.perm[cols] * self.depth + (self.kl + self.ku) + below


@dataclass(frozen=True)
class OperatorSkeleton:
    """The grid, CSR pattern and lambda-independent values of the coupled
    operator on one grid.

    data holds the coefficient samples (diffusion diagonal plus reaction,
    mutation; zero on the flux couplings), up_slots and down_slots the slots
    of the couplings to node i+1 and to node i-1, for u and for v, and
    up_sigma and down_sigma their face sigma.  Only the couplings depend on
    lambda, through exp(-+lambda h), so _operator tilts a skeleton into any
    operator on its grid.  The band pattern of the Perron solves and the M'
    weights are built on first use, and so are the plans that interpolate a
    warm start onto a periodic grid.
    """

    n: int
    h: float
    boundary: str
    nodes: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    up_slots: np.ndarray          # (2, m)
    down_slots: np.ndarray
    data: np.ndarray
    up_sigma: np.ndarray          # face sigma of the i -> i+1 couplings
    down_sigma: np.ndarray        # face sigma of the i -> i-1 couplings

    def csr(self, values: np.ndarray) -> sp.csr_matrix:
        """The 2n x 2n matrix with these values in the pattern's slots: a
        shallow copy of the pattern's own matrix, which shares its indices
        and indptr, with its data replaced.  This skips the checks of the CSR
        constructor, which the pattern passed once."""
        matrix = copy.copy(self._pattern)
        matrix.data = values
        return matrix

    @cached_property
    def _pattern(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(2 * self.n,) * 2)

    @cached_property
    def _interp_plans(self) -> dict:
        return {}

    def interp_plan(self, m: int) -> Tuple[np.ndarray, ...]:
        """np.interp(x_new, x_old, f, period=1.0) from the m points x_old of
        linspace(0, 1, m, endpoint=False) onto the n points x_new of the same
        kind, as the plan (lo, hi, dx, t): x_new[i] lies t[i] past
        x_old[lo[i]], in an interval of width dx[i] that ends at x_old[hi[i]],
        the indices wrapped around the period.  np.interp pads x_old with its
        last point minus the period and its first plus the period, finds the
        interval by binary search and returns (f[hi] - f[lo]) / dx * t + f[lo];
        the plan keeps the same operands, so applying it gives np.interp's bits.

        A periodic skeleton keeps its plans per m, since a k chain reuses the
        skeleton over many solves.  A Dirichlet grid depends on R and serves
        one solve, so its plan is not kept past it."""
        plan = self._interp_plans.get(m)
        if plan is None:
            x_old = np.linspace(0.0, 1.0, m, endpoint=False)
            x_new = np.linspace(0.0, 1.0, self.n, endpoint=False)
            padded = np.concatenate([x_old[-1:] - 1.0, x_old, x_old[:1] + 1.0])
            j = np.searchsorted(padded, x_new, side="right") - 1
            plan = (((j - 1) % m).astype(np.int32), (j % m).astype(np.int32),
                    padded[j + 1] - padded[j], x_new - padded[j])
            if self.boundary == "periodic":
                self._interp_plans[m] = plan
        return plan

    @cached_property
    def band(self) -> _BandPattern:
        rows = np.repeat(np.arange(2 * self.n, dtype=np.int32), np.diff(self.indptr))
        return _BandPattern(rows, self.indices, self.n, self.boundary)

    @cached_property
    def slope_weights(self) -> np.ndarray:
        """M'.data / M.data: -h on the couplings to node i+1, +h on those to
        node i-1, 0 elsewhere."""
        weights = np.zeros(len(self.indices))
        weights[self.up_slots], weights[self.down_slots] = -self.h, self.h
        return weights


def _skeleton(cs: CoefficientSet, n: int,
              half_width: Optional[float] = None) -> OperatorSkeleton:
    """Skeleton on n cells of one period, or on n interior nodes of (-R, R)
    given half_width=R.  The CSR layout is that of the COO -> CSR build of
    [u block, v block, u<-v, v<-u], each stencil block being flux_parts'
    diagonal (plus reaction minus mutation), up and down couplings."""
    if half_width is None:
        h = cs.period / n
        nodes = h * np.arange(n)
        boundary = "periodic"
    else:
        h = 2.0 * half_width / (n + 1)
        nodes = -half_width + h * np.arange(1, n + 1)
        boundary = "dirichlet_zero"
    rows, cols, diag, up, down = flux_parts(cs, nodes, h, boundary)
    m, i = len(up), np.arange(n)
    nnz = 2 * len(rows) + 2 * n
    tags = sp.coo_matrix((np.arange(nnz, dtype=np.int32),
                          (np.concatenate([rows, rows + n, i, n + i], dtype=np.int32),
                           np.concatenate([cols, cols + n, n + i, i], dtype=np.int32))),
                         shape=(2 * n, 2 * n)).tocsr()
    source = tags.data                            # the COO entry behind each CSR slot
    slot = np.empty_like(source)
    slot[source] = np.arange(nnz, dtype=np.int32)
    block = n + 2 * m                             # COO entries of one species block
    mu, mv = cs.mu_u(nodes), cs.mu_v(nodes)
    couplings = np.zeros(2 * m)
    values = np.concatenate([diag + (cs.r_u(nodes) - mu), couplings,
                             diag + (cs.r_v(nodes) - mv), couplings, mv, mu])
    return OperatorSkeleton(n, h, boundary, nodes, tags.indices, tags.indptr,
                            np.stack([slot[n:n + m], slot[block + n:block + n + m]]),
                            np.stack([slot[n + m:block], slot[block + n + m:2 * block]]),
                            values[source], up, down)


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled 2n x 2n coupled operator (u unknowns first, then v), whose
    matrix is on its skeleton's CSR pattern."""

    matrix: sp.csr_matrix
    lam: float
    skeleton: OperatorSkeleton

    n = property(lambda self: self.skeleton.n)
    h = property(lambda self: self.skeleton.h)
    boundary = property(lambda self: self.skeleton.boundary)
    nodes = property(lambda self: self.skeleton.nodes)

    @property
    def dimension(self) -> int:
        return 2 * self.n

    @cached_property
    def shifted(self) -> _ShiftedBand:
        """The banded LU of its Perron solves, built on first use.  It holds
        the last shift factored, for the left solve that follows the right
        one; it lives as long as the operator, which a refinement loop drops
        level by level."""
        return _ShiftedBand(self)


@dataclass
class EigenResult:
    """Principal eigenvalue with its positive discrete eigenvector pair.  A
    k_of_lambda(slope=True) result counts the left solve behind its slope in
    its iterations and factorizations."""

    value: float
    phi: np.ndarray
    psi: np.ndarray
    lam: float
    iterations: int
    residual: float
    n_cells: int
    h: float
    rounding: float                          # 8 eps ||M||, the floor under the residual
    levels: int = 1                          # grid levels solved (1 for a single operator)
    factorizations: int = 0                  # banded LU factorizations, summed like iterations
    slope: Optional[float] = None            # d value / d lambda, from k_of_lambda(slope=True)

    def eigenvector(self) -> np.ndarray:
        return np.concatenate([self.phi, self.psi])


def first_level(cs: CoefficientSet, grid: Optional[GridSpec], lam: float = 0.0,
                R: Optional[float] = None, warm=None) -> int:
    """Cell count of the first level of every grid refinement: n_cells doubled
    until h*|lam|*sigma_max <= sigma_min on a period, n_cells per period (at
    least n_cells) on (-R, R), and at least n // 4 for a warm pair of n cells.
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
    n = max(n, len(warm[0]) // 4 if warm is not None else 0)
    if not 2 * n <= REFINE_CAP:
        where = f"lambda={lam:.6g}" if R is None else f"R={R:.6g}"
        raise ValidationError(f"{where} needs {n:.3g} cells on its first level; the refinement "
                              f"cap {REFINE_CAP} cannot double a starting level of {n:.3g} cells")
    n = int(np.ceil(n))
    check_spacing(cs.period / n if R is None else 2.0 * R / (n + 1))
    return n


def _operator(skeleton: OperatorSkeleton, lam: float) -> DiscreteOperator:
    """The skeleton's operator at lambda: its couplings tilted by exp(-+lambda h)
    and written into a copy of its data, on its CSR pattern.  The entries are
    bitwise those of a COO -> CSR build of the stencil's triplets."""
    data = skeleton.data.copy()
    data[skeleton.up_slots], data[skeleton.down_slots] = tilted_couplings(
        skeleton.up_sigma, skeleton.down_sigma, skeleton.h, lam)
    return DiscreteOperator(skeleton.csr(data), lam, skeleton)


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
    """The warm pair, interpolated onto the operator's grid by the skeleton's
    plan when its length differs, scaled to max 1; ones when there is no warm
    pair or it is not positive."""
    if warm is not None:
        old = np.stack(warm)                      # (2, m): phi, then psi
        if old.shape[1] != op.n:
            lo, hi, dx, t = op.skeleton.interp_plan(old.shape[1])
            start = old.take(lo, axis=1)
            old = old.take(hi, axis=1)
            old -= start                          # (f[hi] - f[lo]) / dx * t + f[lo]
            old /= dx
            old *= t
            old += start
        w = old.ravel()
        if np.all(w > 0):
            return w / np.max(w)
    return np.ones(op.dimension)


def _rayleigh_and_residual(matrix, w) -> Tuple[float, float, np.ndarray]:
    """Rayleigh quotient, sup-norm residual and M w of an iterate w whose
    largest entry is 1, so the residual needs no scaling."""
    mw = matrix @ w
    value = float(w @ mw) / float(w @ w)
    residual = float(np.abs(mw - value * w).max())
    return value, residual, mw


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b are one array, as on the skeleton's own matrices, or equal."""
    return a is b or np.array_equal(a, b)


class _ShiftedBand:
    """(sI - M)^-1 of a cooperative operator by a banded LU, one shift at a time.

    The matrix must be on its skeleton's CSR pattern, whose band pattern
    places the entries, with nonnegative off-diagonals (ValidationError
    otherwise).  far_shift is max row sum + 1 and norm max_i sum_j |M_ij|.
    factor(s) factors M - sI by dgbtrf (NumericalError on a zero pivot) and
    keeps s as shift.  solve negates its solution: rounding is symmetric, so
    that is bitwise the solution with sI - M, or with its transpose given
    trans=1.  The band order P needs no change for the transpose, as
    (P A P^T)^T = P A^T P^T.
    """

    def __init__(self, op: DiscreteOperator):
        matrix, grid = op.matrix, op.skeleton
        if not (matrix.format == "csr" and _same(matrix.indptr, grid.indptr)
                and _same(matrix.indices, grid.indices)):
            raise ValidationError("operator matrix is not on its grid's CSR pattern")
        band, data = grid.band, matrix.data
        off = np.array(data, dtype=float)
        off[band.diag_slots] = 0.0
        if np.any(off < 0):
            raise ValidationError("operator is not cooperative: negative off-diagonal entry")
        diag = data[band.diag_slots]
        off_sums = np.bincount(band.rows, weights=off, minlength=op.dimension)
        self.far_shift = max(float(np.max(off_sums + diag)), 0.0) + 1.0
        self.norm = float(np.max(np.abs(diag) + off_sums))
        del off                                   # before the band is allocated
        self.band, self._data = band, data
        # The (depth, 2n) column-major array dgbtrf factors in place, and
        # the flat view that the slots index.
        self._flat = np.empty(op.dimension * band.depth)
        self._work = self._flat.reshape(op.dimension, band.depth).T
        self._pivots = self.shift = None

    def factor(self, shift: float) -> None:
        band = self.band
        self.shift = None                         # until the new factors are in place
        self._flat.fill(0.0)
        self._flat[band.slots] = self._data
        self._work[band.kl + band.ku] -= shift
        _, self._pivots, info = dgbtrf(self._work, band.kl, band.ku, overwrite_ab=1)
        if info != 0:
            raise NumericalError(f"shifted operator is singular at s={shift:.17g}: "
                                 f"dgbtrf info {info}")
        self.shift = shift

    def solve(self, w: np.ndarray, trans: int = 0) -> np.ndarray:
        band = self.band
        x, _ = dgbtrs(self._work, band.kl, band.ku, w[band.order], self._pivots,
                      trans=trans, overwrite_b=1)
        return np.negative(x[band.perm], out=x)


def principal_eigenpair(op: DiscreteOperator, warm=None, left: bool = False) -> EigenResult:
    """Perron eigenpair of a cooperative discrete operator by shift-invert iteration.

    Each step solves (sI - M) y = w and normalizes y.  For every shift s above
    the Perron root k, sI - M is an irreducible nonsingular M-matrix, so its
    inverse is entrywise positive and keeps the iterate positive.  The
    solves use the banded LU of _ShiftedBand; a new shift refills the band
    and refactors it, and one factorization is held at a time.  Two shifts
    are used:

      * the far shift s_far = max row sum + 1, whose rate (s_far-k)/(s_far-k2)
        is enough for warm-started solves and damps rounding noise in the
        high-frequency modes;
      * the Collatz-Wielandt upper bound s = max(Mw/w) >= k (Noda's iteration,
        superlinear), taken whenever a step shrinks the residual by less than
        4x while it is still 100x above its tolerance.

    A step that stalls on a Collatz-Wielandt shift within 100x of the
    tolerance takes one step on s_far, since a near-singular shift leaves
    noise above the rounding floor and one far step damps it.  A stall on
    s_far goes back to the Collatz-Wielandt shift: staying on s_far would
    crawl at its rate, thousands of steps on some operators.  Convergence
    requires a Rayleigh-quotient change below RAYLEIGH_TOL (relative) and a
    sup-norm residual of M w - value w below RESIDUAL_TOL.  That residual
    cannot drop below machine epsilon times the operator norm (the flux
    entries scale like 1/h^2), so the tolerance is floored there on fine grids.

    With left=True the pair is that of M^T, the left Perron pair of M: the
    steps solve with the transposed factors of the operator's band, and the
    first one uses the shift a previous solve on the operator left factored,
    if any.  A solve without a held shift starts on s_far.
    """
    matrix = op.matrix.T if left else op.matrix
    band = op.shifted
    rounding = 8.0 * np.finfo(float).eps * band.norm
    residual_tol = max(RESIDUAL_TOL, rounding)

    w = _start_vector(op, warm)
    value, residual, mw = _rayleigh_and_residual(matrix, w)
    shift = band.shift if left else None
    next_shift = band.far_shift if shift is None else shift
    factorizations = 0
    for it in range(1, MAX_ITERATIONS + 1):
        if next_shift != shift:
            shift = next_shift
            band.factor(shift)
            factorizations += 1
        w = band.solve(w, trans=int(left))
        if not (w > 0).all():
            raise NumericalError(f"shift-invert step at s={shift:.17g} produced a "
                                 f"non-positive iterate (min {np.min(w):.3e})")
        w /= w.max()
        new_value, new_residual, mw = _rayleigh_and_residual(matrix, w)
        ray_tol = max(RAYLEIGH_TOL * max(1.0, abs(new_value)), 0.01 * residual_tol)
        if abs(new_value - value) < ray_tol and new_residual < residual_tol:
            if np.min(w) <= 0:                    # an entry underflowed in w / w.max()
                raise NumericalError("Perron iteration produced a non-positive eigenvector "
                                     f"(min component {np.min(w):.3e})")
            return EigenResult(value=new_value, phi=w[:op.n].copy(), psi=w[op.n:].copy(),
                               lam=op.lam, iterations=it, residual=new_residual,
                               n_cells=op.n, h=op.h, rounding=rounding,
                               factorizations=factorizations)
        if new_residual > 0.25 * residual:
            if new_residual < 100.0 * residual_tol and shift != band.far_shift:
                next_shift = band.far_shift
            else:
                next_shift = min(float((mw / w).max()), band.far_shift)
        value, residual = new_value, new_residual
    raise NumericalError(f"shift-invert iteration did not converge in {MAX_ITERATIONS} "
                         f"iterations (last residual {residual:.3e})")


def tilt_derivative(op: DiscreteOperator) -> sp.csr_matrix:
    """M'(lambda) = dM/dlambda of an operator on its grid's CSR pattern.

    Only the flux couplings depend on lambda, so M' is M rescaled by the
    skeleton's weights: -h on the couplings towards node i+1, +h on those
    towards node i-1, in both species blocks, and 0 elsewhere.
    """
    return op.skeleton.csr(op.skeleton.slope_weights * op.matrix.data)


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
    left = principal_eigenpair(op, warm=(right.phi, right.psi), left=True)
    gap = abs(left.value - right.value)
    if gap > LEFT_RIGHT_TOL * max(1.0, abs(right.value)) + right.residual + left.residual:
        raise NumericalError(f"left and right Perron roots differ by {gap:.2e} on the "
                             f"{op.n}-cell grid at lambda={op.lam}")
    x, y = right.eigenvector(), left.eigenvector()
    return float(y @ (tilt_derivative(op) @ x) / (y @ x)), left


# -- eigenvalue curves with grid refinement ----------------------------------

SOFT_CELL_CAP = 2 ** 18       # past this the rounding floor always dominates
NOISE_MULTIPLE = 100.0        # a gap this close to the rounding level is noise


def _refine_to_tolerance(make_op, n: int, tol: float, warm,
                         label: str) -> Tuple[EigenResult, DiscreteOperator, float]:
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
    level's eigenpair (with the Perron iterations, factorizations and levels
    of the whole loop), its operator and R_2n.
    """
    coarse = principal_eigenpair(make_op(n), warm=warm)
    total_iter, total_lu, levels = coarse.iterations, coarse.factorizations, 1
    prev_extrapolated = None
    while True:
        n *= 2
        op = make_op(n)
        finer = principal_eigenpair(op, warm=(coarse.phi, coarse.psi))
        total_iter += finer.iterations
        total_lu += finer.factorizations
        levels += 1
        gap = abs(finer.value - coarse.value)
        extrapolated = finer.value + (finer.value - coarse.value) / 3.0
        settled = prev_extrapolated is not None and abs(extrapolated - prev_extrapolated) < tol
        at_noise_floor = gap < NOISE_MULTIPLE * finer.rounding
        past_soft_cap = n >= SOFT_CELL_CAP
        if past_soft_cap and gap > 1e-4 * max(1.0, abs(finer.value)):
            raise NumericalError(f"eigenvalue gap {gap:.2e} still large at the "
                                 f"{SOFT_CELL_CAP}-cell level for {label}")
        if gap < tol or settled or at_noise_floor or past_soft_cap:
            finer.iterations, finer.factorizations, finer.levels = total_iter, total_lu, levels
            return finer, op, extrapolated
        coarse, prev_extrapolated = finer, extrapolated
        del op                                    # before the finer level is built


def k_of_lambda(cs: CoefficientSet, lam: float, grid: Optional[GridSpec] = None,
                tol: float = K_GRID_TOL, warm=None, slope: bool = False,
                skeletons: Optional[dict] = None) -> EigenResult:
    """Exponent-tilted principal eigenvalue k(lambda) with automatic refinement.

    The returned value is the Richardson extrapolation of the two finest
    levels (the flux stencil is second order, so this cancels the leading h^2
    term).  The grid is doubled until two successive Richardson values, or
    two successive eigenvalues, differ by less than tol, or until the gap
    reaches the rounding floor; see _refine_to_tolerance.  k(0) is the
    periodic principal eigenvalue.  The first level is first_level's, which a
    warm start (phi, psi) from a previous solve raises to a quarter of its cell
    count n: n/4, n/2 and n are the three levels the Richardson test needs to
    stop where the previous solve did, and the grid can still coarsen by one.

    With slope=True the result also carries k'(lambda) from tilt_slope on the
    finest level, and its iterations and factorizations include that left
    solve's.

    skeletons maps cell counts to operator skeletons of cs.  A chain passes
    one dict to all its solves: each solve takes the skeletons of its levels
    from it and adds the ones it builds.
    """
    n = first_level(cs, grid, lam, warm=warm)
    held = {} if skeletons is None else skeletons

    def make_op(m: int) -> DiscreteOperator:
        if m not in held:
            held[m] = _skeleton(cs, m)
        return _operator(held[m], lam)
    res, op, value = _refine_to_tolerance(make_op, n, tol, warm, f"lambda={lam}")
    if slope:
        res.slope, left = tilt_slope(op, res)
        res.iterations += left.iterations
        res.factorizations += left.factorizations
    res.value = value
    return res


def dirichlet_eigenvalue(cs: CoefficientSet, R: float,
                         grid: Optional[GridSpec] = None,
                         tol: float = K_GRID_TOL, warm=None) -> EigenResult:
    """Principal eigenvalue on (-R, R) with zero boundary values.

    Same refinement-plus-extrapolation contract as k_of_lambda, from the level
    of first_level: n_cells per period, so the coefficients stay resolved.
    """
    n = first_level(cs, grid, R=R)
    res, _, value = _refine_to_tolerance(lambda m: _operator(_skeleton(cs, m, R), 0.0),
                                         n, tol, warm, f"R={R}")
    res.value = value
    return res


# -- warm-started chains ------------------------------------------------------

# The solvers are looked up by their module-global names at every call, so
# wrappers installed on eigen.k_of_lambda / eigen.dirichlet_eigenvalue see
# each solve.

def _warm_chain(solve: Callable[..., EigenResult],
                start: Optional[EigenResult] = None) -> Callable[[float], EigenResult]:
    """solve(param, warm) as a one-argument function that starts each solve
    from the eigenvector of the previous solve, the first one from `start`
    when given.  This is the only place that carries an eigenvector from one
    k(lambda) or Dirichlet solve to the next; a left Perron solve starts from
    its own right vector."""
    warm = None if start is None else (start.phi, start.psi)

    def step(param: float) -> EigenResult:
        nonlocal warm
        res = solve(float(param), warm)
        warm = (res.phi, res.psi)
        return res
    return step


def k_chain(cs: CoefficientSet, grid: Optional[GridSpec], tol: float,
            slope: bool = False,
            start: Optional[EigenResult] = None) -> Callable[[float], EigenResult]:
    """lambda -> k_of_lambda(cs, lambda, grid, tol, slope=slope), warm-started
    along the calls, the first one from `start` when given.  The chain keeps
    every operator skeleton its solves built, and the next solve, near the
    last in lambda, mostly reuses them."""
    skeletons = {}
    return _warm_chain(lambda lam, warm: k_of_lambda(cs, lam, grid, tol, warm=warm,
                                                     slope=slope, skeletons=skeletons), start)


def k_curve(cs: CoefficientSet, lambdas: Sequence[float],
            grid: Optional[GridSpec] = None, tol: float = K_GRID_TOL) -> list:
    """k(lambda) over a lambda grid, one warm-started chain in grid order."""
    return list(map(k_chain(cs, grid, tol), lambdas))


def dirichlet_sweep(cs: CoefficientSet, radii: Sequence[float],
                    grid: Optional[GridSpec], tol: float) -> list:
    """Dirichlet principal eigenvalues over the radii, one warm-started chain;
    every radius's first_level is checked before any solve."""
    for R in radii:
        first_level(cs, grid, R=R)
    return list(map(_warm_chain(lambda R, warm: dirichlet_eigenvalue(cs, R, grid, tol,
                                                                     warm=warm)), radii))
