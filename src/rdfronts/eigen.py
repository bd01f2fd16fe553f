"""Principal eigenvalues of the linearized two-species operator.

The linearization at (0,0) couples the two densities through the mutation
rates, giving a cooperative elliptic system.  Three principal-eigenvalue
notions are computed on a conservative-flux finite-difference grid:

  * periodic         -- growth rate of small L-periodic data,
  * exponent-tilted  -- k(lambda), the Perron eigenvalue of the operator
                        conjugated by exp(lambda x), periodic eigenvector,
  * Dirichlet        -- on (-R, R) with zero boundary values.

The diffusion part is ``stencil.flux_stencil``, shared with the pde module,
conjugated as exp(lambda x_i) * D[exp(-lambda x) w]_i: the off-diagonal flux
entries are multiplied by exp(-lambda h) and exp(+lambda h).  Off-diagonals
therefore stay positive for every lambda and h, and the matrix is Metzler and
irreducible, so the Perron root and a componentwise positive eigenvector
exist on the discrete level exactly as in the continuous theory.  The slope
k'(lambda) follows from the right and left Perron vectors (``tilt_slope``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientSet
from .errors import NumericalError, PreconditionError, ValidationError
from .stencil import flux_stencil
from .util import write_csv

REFINE_CAP = 2 ** 20          # hard cap on cells per period / interval
RESIDUAL_TOL = 1e-9
RAYLEIGH_TOL = 1e-12
K_GRID_TOL = 1e-7             # |k_n - k_2n| refinement target
LEFT_RIGHT_TOL = 1e-9         # relative floor on |left root - right root|


@dataclass(frozen=True)
class GridSpec:
    """Cell count of the eigenvalue discretization."""

    n_cells: int = 64

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValidationError("n_cells must be at least 16")


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled 2n x 2n coupled operator (u unknowns first, then v)."""

    matrix: sp.csr_matrix
    n: int
    h: float
    lam: float
    boundary: str
    nodes: np.ndarray
    cs: CoefficientSet

    @property
    def dimension(self) -> int:
        return 2 * self.n


@dataclass
class EigenResult:
    """Principal eigenvalue with its positive discrete eigenvector pair."""

    value: float
    phi: np.ndarray
    psi: np.ndarray
    lam: float
    iterations: int
    residual: float
    n_cells: int
    h: float
    slope: Optional[float] = None            # d value / d lambda, from k_of_lambda(slope=True)
    left: Optional[Tuple[np.ndarray, np.ndarray]] = None   # left Perron pair behind slope

    def eigenvector(self) -> np.ndarray:
        return np.concatenate([self.phi, self.psi])


def peclet_cells(cs: CoefficientSet, lam: float, n_cells: int, length: float) -> int:
    """Smallest power-of-two refinement of n_cells with h*|lam|*sigma_max <= sigma_min."""
    n = n_cells
    while n <= REFINE_CAP:
        h = length / n
        if h * abs(lam) * cs.sigma_max <= cs.sigma_min:
            return n
        n *= 2
    raise NumericalError(f"grid refinement cap {REFINE_CAP} exceeded while enforcing "
                         f"the advection admissibility bound at lambda={lam}")


def _operator(cs: CoefficientSet, lam: float, n: int,
              half_width: Optional[float] = None) -> DiscreteOperator:
    """Coupled operator on n cells of one period, or on n interior nodes of
    (-R, R) given half_width=R.  Reaction goes onto copies of the stencil's
    diagonal and the mutation couplings are appended: one COO -> CSR build."""
    if half_width is None:
        h = cs.period / n
        nodes = h * np.arange(n)
        boundary = "periodic"
    else:
        h = 2.0 * half_width / (n + 1)
        nodes = -half_width + h * np.arange(1, n + 1)
        boundary = "dirichlet"
    rows, cols, data = flux_stencil(cs, nodes, h, boundary, lam)
    diag, off = data[:n], data[n:]
    mu, mv = cs.mu_u(nodes), cs.mu_v(nodes)
    i = np.arange(n)
    data = np.concatenate([diag + (cs.r_u(nodes) - mu), off,
                           diag + (cs.r_v(nodes) - mv), off, mv, mu])
    rows = np.concatenate([rows, rows + n, i, n + i])     # u block, v block, u<-v, v<-u
    cols = np.concatenate([cols, cols + n, n + i, i])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()
    return DiscreteOperator(matrix, n, h, lam, boundary, nodes, cs)


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
        return _operator(cs, 0.0, grid.n_cells, half_width)
    n = peclet_cells(cs, lam, grid.n_cells, cs.period) if refine else grid.n_cells
    return _operator(cs, lam, n)


# -- Perron iteration --------------------------------------------------------

def _start_vector(op: DiscreteOperator, warm) -> np.ndarray:
    if warm is not None:
        phi, psi = warm
        if len(phi) != op.n:
            xs_old = np.linspace(0.0, 1.0, len(phi), endpoint=False)
            xs_new = np.linspace(0.0, 1.0, op.n, endpoint=False)
            phi = np.interp(xs_new, xs_old, phi, period=1.0)
            psi = np.interp(xs_new, xs_old, psi, period=1.0)
        w = np.concatenate([phi, psi])
        if np.all(w > 0):
            return w / np.max(w)
    return np.ones(op.dimension)


def _finalize(op: DiscreteOperator, w: np.ndarray, value: float, residual: float,
              iterations: int) -> EigenResult:
    w = w / np.max(np.abs(w))
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    if np.min(w) <= 0:
        raise NumericalError("Perron iteration produced a non-positive eigenvector "
                             f"(min component {np.min(w):.3e})")
    return EigenResult(value=float(value), phi=w[:op.n].copy(), psi=w[op.n:].copy(),
                       lam=op.lam, iterations=iterations, residual=float(residual),
                       n_cells=op.n, h=op.h)


def _rayleigh_and_residual(matrix, w) -> Tuple[float, float, np.ndarray]:
    mw = matrix @ w
    value = float(w @ mw) / float(w @ w)
    residual = float(np.max(np.abs(mw - value * w))) / float(np.max(np.abs(w)))
    return value, residual, mw


def _negated_csc(matrix) -> Tuple[sp.csc_matrix, np.ndarray]:
    """-M in canonical CSC form with every diagonal entry stored, and the
    positions of the diagonal entries (column by column) in its data array."""
    neg = (-matrix).tocsc()
    neg.sum_duplicates()

    def diagonal_positions():
        cols = np.repeat(np.arange(neg.shape[1], dtype=neg.indices.dtype), np.diff(neg.indptr))
        return np.flatnonzero(neg.indices == cols)

    diag_pos = diagonal_positions()
    if diag_pos.size < neg.shape[0]:
        neg.setdiag(neg.diagonal())              # store missing diagonal entries as zeros
        diag_pos = diagonal_positions()
    return neg, diag_pos


def principal_eigenpair(op: DiscreteOperator, warm=None,
                        residual_tol: float = RESIDUAL_TOL,
                        max_iterations: int = 10 ** 4) -> EigenResult:
    """Perron eigenpair of a cooperative discrete operator by shift-invert iteration.

    Each step solves (sI - M) y = w and normalizes y.  For every shift s above
    the Perron root k, sI - M is an irreducible nonsingular M-matrix, so its
    inverse is entrywise positive and keeps the iterate positive; one sparse
    LU is reused until the shift changes.  Two shifts are used:

      * the far shift s_far = max row sum + 1, whose rate (s_far-k)/(s_far-k2)
        is enough for warm-started solves and damps rounding noise in the
        high-frequency modes;
      * the Collatz-Wielandt upper bound s = max(Mw/w) >= k (Noda's iteration,
        superlinear), taken whenever a step shrinks the residual by less than
        4x while it is still 100x above its tolerance.

    A step that stalls within 100x of the tolerance returns to s_far, since a
    near-singular shift leaves noise above the rounding floor.  Convergence
    requires a Rayleigh-quotient change below RAYLEIGH_TOL (relative) and a
    sup-norm residual of M w - value w below residual_tol.  That residual
    cannot drop below machine epsilon times the operator norm (the flux
    entries scale like 1/h^2), so the tolerance is floored there on fine grids.
    """
    matrix = op.matrix
    neg, diag_pos = _negated_csc(matrix)
    neg_diag = neg.data[diag_pos].copy()         # -M_jj, indexed by row as well
    neg.data[diag_pos] = 0.0                     # refilled with s - M_jj per shift
    if np.any(neg.data > 0):
        raise ValidationError("operator is not cooperative: negative off-diagonal entry")
    off_sums = np.bincount(neg.indices, weights=neg.data, minlength=op.dimension)
    far_shift = max(float(np.max(-off_sums - neg_diag)), 0.0) + 1.0   # max row sum + 1
    op_norm = float(np.max(np.abs(neg_diag) - off_sums))
    residual_tol = max(residual_tol, 8.0 * np.finfo(float).eps * op_norm)

    w = _start_vector(op, warm)
    value, residual, mw = _rayleigh_and_residual(matrix, w)
    shift = solver = None
    next_shift = far_shift
    for it in range(1, max_iterations + 1):
        if next_shift != shift:
            shift, solver = next_shift, None     # hold one factorization at a time
            neg.data[diag_pos] = neg_diag + shift
            try:
                # One-column panels: the stencil has no dense column blocks to
                # exploit, and the default ten-column panel workspace more than
                # doubles the resident memory of a factorization.
                solver = spla.splu(neg, panel_size=1)
            except RuntimeError as exc:
                raise NumericalError(f"shifted operator is singular at s={shift:.17g}: {exc}")
        w = solver.solve(w)
        if not np.all(w > 0):
            raise NumericalError(f"shift-invert step at s={shift:.17g} produced a "
                                 f"non-positive iterate (min {np.min(w):.3e})")
        w /= np.max(w)
        new_value, new_residual, mw = _rayleigh_and_residual(matrix, w)
        ray_tol = max(RAYLEIGH_TOL * max(1.0, abs(new_value)), 0.01 * residual_tol)
        if abs(new_value - value) < ray_tol and new_residual < residual_tol:
            return _finalize(op, w, new_value, new_residual, it)
        if new_residual > 0.25 * residual:
            if new_residual < 100.0 * residual_tol:
                next_shift = far_shift
            else:
                next_shift = min(float(np.max(mw / w)), far_shift)
        value, residual = new_value, new_residual
    raise NumericalError(f"shift-invert iteration did not converge in {max_iterations} "
                         f"iterations (last residual {residual:.3e})")


def tilt_slope(op: DiscreteOperator, right: EigenResult,
               left_warm=None) -> Tuple[float, EigenResult]:
    """dk/dlambda of the Perron root of a tilted operator, and its left eigenpair.

    Hellmann-Feynman: k' = y^T M'(lambda) x / y^T x, where x is the Perron
    vector of `right` and y the left one, the Perron vector of the transposed
    operator (solved warm from left_warm, else from x).  M' only rescales the
    off-diagonals of stencil.flux_stencil, by -h towards node i+1 and +h
    towards node i-1, in both species blocks; reaction and mutation do not
    depend on lambda.  Each Perron root is accurate to about its residual,
    which is floored at rounding level on fine grids, so the two roots must
    agree to within the sum of the residuals plus LEFT_RIGHT_TOL (relative);
    otherwise NumericalError.
    """
    left = principal_eigenpair(replace(op, matrix=op.matrix.T),
                               warm=left_warm or (right.phi, right.psi))
    gap = abs(left.value - right.value)
    if gap > LEFT_RIGHT_TOL * max(1.0, abs(right.value)) + right.residual + left.residual:
        raise NumericalError(f"left and right Perron roots differ by {gap:.2e} on the "
                             f"{op.n}-cell grid at lambda={op.lam}")
    x, y = right.eigenvector(), left.eigenvector()
    rows, cols, data = flux_stencil(op.cs, op.nodes, op.h, op.boundary, op.lam)
    n = op.n
    rows, cols, rate = rows[n:], cols[n:], op.h * data[n:]   # off-diagonals only
    rate[:len(rate) // 2] *= -1.0            # the i -> i+1 couplings come first
    form = rate @ (y[rows] * x[cols]) + rate @ (y[rows + n] * x[cols + n])
    return float(form / (y @ x)), left


# -- eigenvalue curves with grid refinement ----------------------------------

SOFT_CELL_CAP = 2 ** 18       # past this the rounding floor always dominates


def _refine_to_tolerance(make_op, n: int, tol: float, warm,
                         label: str) -> Tuple[EigenResult, DiscreteOperator, float]:
    """Double the grid until |k_n - k_2n| < tol, then Richardson-extrapolate.

    The inter-level gap of the second-order stencil shrinks 4x per doubling
    until rounding noise (machine epsilon times the 1/h^2 flux scale) takes
    over, after which refining cannot help; the loop therefore also stops
    when a small gap stops shrinking, returning the best achievable value.
    Returns the finest level's eigenpair, its operator and the extrapolated
    eigenvalue.
    """
    result = principal_eigenpair(make_op(n), warm=warm)
    total_iter = result.iterations
    prev_gap = np.inf
    while True:
        n *= 2
        if n > REFINE_CAP:
            raise NumericalError(f"grid refinement cap {REFINE_CAP} exceeded before "
                                 f"the eigenvalue gap fell below {tol} at {label}")
        op = make_op(n)
        finer = principal_eigenpair(op, warm=(result.phi, result.psi))
        total_iter += finer.iterations
        gap = abs(finer.value - result.value)
        scale = max(1.0, abs(finer.value))
        at_noise_floor = gap > 0.6 * prev_gap and prev_gap < 1e-2 * scale
        past_soft_cap = n >= SOFT_CELL_CAP
        if past_soft_cap and gap > 1e-4 * scale:
            raise NumericalError(f"eigenvalue gap {gap:.2e} still large at the "
                                 f"{SOFT_CELL_CAP}-cell level for {label}")
        if gap < tol or at_noise_floor or past_soft_cap:
            finer.iterations = total_iter
            return finer, op, finer.value + (finer.value - result.value) / 3.0
        result = finer
        prev_gap = gap


def k_of_lambda(cs: CoefficientSet, lam: float, grid: Optional[GridSpec] = None,
                tol: float = K_GRID_TOL, warm=None, slope: bool = False,
                left_warm=None) -> EigenResult:
    """Exponent-tilted principal eigenvalue k(lambda) with automatic refinement.

    The grid is doubled until successive eigenvalues differ by less than tol;
    the returned value is the Richardson extrapolation of the last two levels
    (the flux stencil is second order, so this cancels the leading h^2 term).
    k(0) is the periodic principal eigenvalue.  A warm start (phi, psi) from
    a previous solve also starts the refinement at a quarter of its cell
    count, which still lets the grid coarsen by one level.

    With slope=True the result also carries k'(lambda) from tilt_slope on the
    finest level, and the left Perron pair behind it (warm-started from
    left_warm).
    """
    grid = grid or GridSpec()
    n = peclet_cells(cs, lam, grid.n_cells, cs.period)
    if warm is not None:
        n = max(n, len(warm[0]) // 4)
    res, op, value = _refine_to_tolerance(lambda m: _operator(cs, lam, m), n, tol, warm,
                                          f"lambda={lam}")
    if slope:
        res.slope, left = tilt_slope(op, res, left_warm)
        res.left = (left.phi, left.psi)
    res.value = value
    return res


def dirichlet_eigenvalue(cs: CoefficientSet, R: float,
                         grid: Optional[GridSpec] = None,
                         tol: float = K_GRID_TOL, warm=None) -> EigenResult:
    """Principal eigenvalue on (-R, R) with zero boundary values.

    Same refinement-plus-extrapolation contract as k_of_lambda; the initial
    cell count is scaled with the interval so the coefficients stay resolved.
    """
    if not (R > 0):
        raise PreconditionError("Dirichlet half-width R must be positive")
    grid = grid or GridSpec()
    per_period = max(grid.n_cells, 16)
    n = max(per_period, int(np.ceil(per_period * 2.0 * R / cs.period)))
    res, _, value = _refine_to_tolerance(lambda m: _operator(cs, 0.0, m, R), n, tol, warm,
                                         f"R={R}")
    res.value = value
    return res


def minimax_check(cs: CoefficientSet, lam: float, grid: GridSpec,
                  test_pair: Tuple[np.ndarray, np.ndarray]) -> float:
    """Collatz-Wielandt upper estimate of k(lambda) from a positive test pair.

    Returns sup over grid nodes of max(L1[phi,psi]/phi, L2[phi,psi]/psi) for
    the discrete tilted operator.  The value is always >= the discrete
    k(lambda), with equality exactly at the principal eigenvector.
    """
    phi, psi = np.asarray(test_pair[0], dtype=float), np.asarray(test_pair[1], dtype=float)
    if np.min(phi) <= 0 or np.min(psi) <= 0:
        raise ValidationError("minimax test pair must be strictly positive")
    op = build_operator(cs, lam, grid, refine=False)
    if len(phi) != op.n or len(psi) != op.n:
        raise ValidationError(f"test pair length {len(phi)} does not match grid n_cells={op.n}")
    w = np.concatenate([phi, psi])
    return float(np.max((op.matrix @ w) / w))


# -- warm-started chains ------------------------------------------------------

# The solvers are looked up by their module-global names at every call, so
# wrappers installed on eigen.k_of_lambda / eigen.dirichlet_eigenvalue see
# each solve.

def _warm_chain(solve: Callable[..., EigenResult]) -> Callable[[float], EigenResult]:
    """solve(param, warm, left_warm) as a one-argument function that starts
    each solve from the eigenvector, and the left Perron pair if it has one,
    of the previous solve.  This is the only place that carries an
    eigenvector from one k(lambda) or Dirichlet solve to the next."""
    warm = left = None

    def step(param: float) -> EigenResult:
        nonlocal warm, left
        res = solve(float(param), warm, left)
        warm, left = (res.phi, res.psi), res.left
        return res
    return step


def k_chain(cs: CoefficientSet, grid: Optional[GridSpec], tol: float,
            slope: bool = False) -> Callable[[float], EigenResult]:
    """lambda -> k_of_lambda(cs, lambda, grid, tol, slope=slope), warm-started
    along the calls."""
    return _warm_chain(lambda lam, warm, left: k_of_lambda(cs, lam, grid, tol, warm=warm,
                                                           slope=slope, left_warm=left))


def k_curve(cs: CoefficientSet, lambdas: Sequence[float],
            grid: Optional[GridSpec] = None, tol: float = K_GRID_TOL) -> list:
    """k(lambda) over a lambda grid, one warm-started chain in grid order."""
    return list(map(k_chain(cs, grid, tol), lambdas))


def dirichlet_sweep(cs: CoefficientSet, radii: Sequence[float],
                    grid: Optional[GridSpec], tol: float) -> list:
    """Dirichlet principal eigenvalues over the radii, one warm-started chain."""
    return list(map(_warm_chain(lambda R, warm, _: dirichlet_eigenvalue(cs, R, grid, tol,
                                                                        warm=warm)), radii))


def write_k_curve_csv(path, lambdas: Sequence[float], results: Sequence[EigenResult],
                      comments: Sequence[str] = ()) -> None:
    rows = [(lam, r.value, r.residual, str(r.n_cells))
            for lam, r in zip(lambdas, results)]
    write_csv(path, ("lambda", "k", "residual", "n_cells"), rows, comments)


def write_dirichlet_csv(path, radii: Sequence[float], results: Sequence[EigenResult],
                        comments: Sequence[str] = ()) -> None:
    rows = [(R, r.value) for R, r in zip(radii, results)]
    write_csv(path, ("R", "lambda1R"), rows, comments)
