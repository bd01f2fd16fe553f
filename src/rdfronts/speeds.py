"""Spreading speeds from the tilted eigenvalue curve.

The right spreading speed is the minimum over lambda > 0 of k(lambda)/lambda
(mirrored for the left one).  k is convex, so the minimizer is the tangency
point where g(lambda) = lambda k'(lambda) - k(lambda), an increasing
function, changes sign, and min k is the root of the increasing k'.  Both
roots are found by a safeguarded secant search on the exact slope k' that
``eigen.k_of_lambda(slope=True)`` returns.  Each search logs its k(lambda)
solves in ``SpeedReport.solves`` and starts each solve from the Perron
vector of the last one in its own log: the right and left searches from
k(0) first, min k from the right search's last solve, all on one store of
operator skeletons.  The module also evaluates the analytic speed bounds and
the speed of the homogenized medium.  The sign of min k is the report's
hair-trigger indicator; the CLI's dirichlet, eigen and speed artifacts carry
the three equivalent ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from . import eigen
from .coefficients import CoefficientSet, HomogenizedSet, periodic_mean
from .eigen import K_GRID_TOL, EigenResult, GridSpec
from .errors import NumericalError, PreconditionError
from .ode import HomParams, lambda_A

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_TOL = 1e-6
SIGN_BAND = 1e-4            # indeterminacy band for sign decisions near zero
MAX_ROOT_STEPS = 60         # cap on the secant or bisection steps of one root search


def golden_min(f: Callable[[float], float], a: float, b: float,
               tol: float = LAMBDA_TOL) -> Tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (argmin, min).

    The speed search does not use it; it is the reference minimizer for
    checks that compare against an independent method."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, min(fc, fd)


@dataclass
class SpeedReport:
    """Right/left spreading speeds, their minimizers, and analytic envelopes."""

    c_right: float
    c_left: float
    argmin_lambda_right: float
    argmin_lambda_left: float
    k_min: float
    bound_low: Optional[float]
    bound_high: float
    hair_trigger: Optional[bool]
    # Not an artifact field: the k(lambda) solves of each search ("right",
    # k(0) first, "left", "k_min") in the order they were made; each solve
    # started from the vector of the one before it in its list.
    solves: Dict[str, List[EigenResult]] = field(default_factory=dict, repr=False,
                                                 compare=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solves"}


def speed_bounds(cs: CoefficientSet) -> Tuple[Optional[float], float]:
    """(2 sqrt(sigma_min r_min) if r_min > 0 else None, 2 sqrt(sigma_max r_max))."""
    high = 2.0 * math.sqrt(cs.sigma_max * cs.r_max)
    low = 2.0 * math.sqrt(cs.sigma_min * cs.r_min) if cs.r_min > 0 else None
    return low, high


def _increasing_root(f: Callable[[float], Tuple[float, EigenResult]], x0: float,
                     x1: float, tol: float, lo: float = -math.inf,
                     at_x0: Optional[Tuple[float, EigenResult]] = None
                     ) -> Tuple[float, EigenResult]:
    """Root of an increasing function by secant steps kept inside a sign bracket.

    f(x) returns (value, result).  The bracket [lo, hi] has f(lo) < 0 < f(hi);
    an end no evaluation has reached is open (infinite), and lo may be given
    without evaluating f there.  A secant step that leaves the bracket becomes
    a bisection, or, towards an open end, a step twice the last one past the
    bracket.  at_x0 is f(x0) when the caller already has it.  Stops when a
    step is shorter than tol; returns the last evaluated x and its result.
    """
    hi = math.inf
    f0, _ = at_x0 if at_x0 is not None else f(x0)
    f1, result = f(x1)
    for _ in range(MAX_ROOT_STEPS):
        for x, fx in ((x0, f0), (x1, f1)):
            if fx < 0:
                lo = max(lo, x)
            elif fx > 0:
                hi = min(hi, x)
        if f1 == 0:
            return x1, result
        # The secant step from the point with the smaller |f| has the least
        # cancellation: a root within rounding of x0 stays inside the bracket.
        xa, fa = (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
        x2 = xa - fa * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if not lo < x2 < hi:                     # also catches nan
            width = abs(x1 - x0)
            if math.isinf(hi):
                x2 = lo + 2.0 * width
            elif math.isinf(lo):
                x2 = hi - 2.0 * width
            else:
                x2 = 0.5 * (lo + hi)
        if abs(x2 - x1) < tol:
            return x1, result
        x0, f0 = x1, f1
        x1 = x2
        f1, result = f(x1)
    raise NumericalError(f"root search hit its cap of {MAX_ROOT_STEPS} steps; "
                         f"bracket [{lo:.6g}, {hi:.6g}]")


def tangency_search(k: Callable[[float], EigenResult], lam0: float, tol: float,
                    side: float = 1.0) -> Tuple[float, EigenResult]:
    """Minimizer of k(side lambda)/lambda over lambda > 0 for a k that returns slopes.

    It is the root of g(lambda) = lambda k'(side lambda) side - k(side lambda),
    which is increasing for convex k and equals -k(0) < 0 at 0, searched from
    lam0 and 1.02 lam0.  Returns (lambda, k(side lambda)).
    """
    def g(lam: float) -> Tuple[float, EigenResult]:
        res = k(side * lam)
        return lam * side * res.slope - res.value, res
    return _increasing_root(g, lam0, 1.02 * lam0, tol, lo=0.0)


def _k_min_search(k: Callable[[float], EigenResult], k0: EigenResult,
                  tol: float) -> EigenResult:
    """min k as the root of the increasing slope k', searched from lambda = 0
    (k0, already solved) and 0.1; returns k there."""
    def slope(lam: float) -> Tuple[float, EigenResult]:
        res = k(lam)
        return res.slope, res
    return _increasing_root(slope, 0.0, 0.1, tol, at_x0=(k0.slope, k0))[1]


def spreading_speeds(cs: CoefficientSet, grid: Optional[GridSpec] = None,
                     lam_tol: float = LAMBDA_TOL, k_tol: float = K_GRID_TOL,
                     skeletons: Optional[dict] = None) -> SpeedReport:
    """Right and left spreading speeds of the propagation problem.

    Requires the periodic principal eigenvalue k(0) to be positive (otherwise
    front-like data does not spread and the quotient formula degenerates).
    Each search logs its solves in the report's `solves` and starts each
    from the vector of the last one logged.  The right and left searches
    start from k(0)'s, so mirroring the set swaps the speeds to rounding, and
    at sqrt(k(0) / mean sigma), the tangency point of a constant medium,
    where k = k(0) + sigma lambda^2; min k goes on from the right search's
    last solve.  Each stops when a step moves lambda by less than lam_tol.
    hair_trigger is the sign of min k, None within SIGN_BAND.  All solves
    keep their operator skeletons in one dict, `skeletons` when given, so a
    caller can share them with its own solves on cs.
    """
    skeletons = {} if skeletons is None else skeletons

    def solve(lam: float, warm) -> EigenResult:
        return eigen.k_of_lambda(cs, float(lam), grid, k_tol, warm=warm, slope=True,
                                 skeletons=skeletons)
    k0 = solve(0.0, None)
    if k0.value <= 0:
        raise PreconditionError(
            f"spreading-speed formula needs a positive periodic principal "
            f"eigenvalue; got k(0) = {k0.value:.6g}")
    lam0 = math.sqrt(k0.value / periodic_mean(cs.sigma))
    solves = {"right": [k0], "left": [], "k_min": []}

    def chain(search: str, before: EigenResult) -> Callable[[float], EigenResult]:
        log = solves[search]

        def step(lam: float) -> EigenResult:
            log.append(solve(lam, (log[-1] if log else before).vector))
            return log[-1]
        return step

    lam_right, res_right = tangency_search(chain("right", k0), lam0, lam_tol)
    lam_left, res_left = tangency_search(chain("left", k0), lam0, lam_tol, side=-1.0)
    res_min = _k_min_search(chain("k_min", solves["right"][-1]), k0, lam_tol)
    low, high = speed_bounds(cs)
    k_min = res_min.value
    return SpeedReport(c_right=res_right.value / lam_right, c_left=res_left.value / lam_left,
                       argmin_lambda_right=float(lam_right),
                       argmin_lambda_left=float(-lam_left),
                       k_min=k_min, bound_low=low, bound_high=high,
                       hair_trigger=k_min > 0 if abs(k_min) > SIGN_BAND else None, solves=solves)


def homogenized_speed(h: HomogenizedSet) -> float:
    """Spreading speed 2 sqrt(sigma_H lambda_A) of the averaged medium."""
    p = HomParams(sigma=h.sigma_H, r_u=h.mean_r_u, r_v=h.mean_r_v,
                  kappa_u=h.mean_kappa_u, kappa_v=h.mean_kappa_v,
                  mu_u=h.mean_mu_u, mu_v=h.mean_mu_v)
    lam = lambda_A(p)
    if lam <= 0:
        raise PreconditionError(f"homogenized medium does not spread: lambda_A = {lam:.6g}")
    return 2.0 * math.sqrt(h.sigma_H * lam)
