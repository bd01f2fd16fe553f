"""Spreading speeds from the tilted eigenvalue curve.

The right spreading speed is the minimum over lambda > 0 of k(lambda)/lambda
(mirrored for the left one); with k convex and k(0) > 0 that quotient is
unimodal, so a golden-section search finds the minimizer.  Every k(lambda)
comes from ``eigen.k_chain``, the warm-started chain that also produces the
curve dumps: one chain for k(0), the right search and min k, and a second
one for the left search.  The module also evaluates the analytic speed
bounds, the three equivalent persistence indicators behind the hair-trigger
effect, which reuse one speed search, and the speed of the homogenized
medium.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple

from .coefficients import CoefficientSet, HomogenizedSet
from .eigen import EigenResult, GridSpec, dirichlet_sweep, k_chain
from .errors import NumericalError, PreconditionError
from .ode import HomParams, lambda_A

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_TOL = 1e-6
SIGN_BAND = 1e-4            # indeterminacy band for sign decisions near zero
MAX_BRACKET_EXPANSIONS = 40


def golden_min(f: Callable[[float], float], a: float, b: float,
               tol: float = LAMBDA_TOL) -> Tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (argmin, min)."""
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

    def to_dict(self) -> dict:
        return asdict(self)


def speed_bounds(cs: CoefficientSet) -> Tuple[Optional[float], float]:
    """(2 sqrt(sigma_min r_min) if r_min > 0 else None, 2 sqrt(sigma_max r_max))."""
    high = 2.0 * math.sqrt(cs.sigma_max * cs.r_max)
    low = 2.0 * math.sqrt(cs.sigma_min * cs.r_min) if cs.r_min > 0 else None
    return low, high


def _expanding_min(f: Callable[[float], float], lam_hi: float, tol: float,
                   two_sided: bool) -> Tuple[float, float]:
    """Golden-section minimum of f over (0, lam_hi], or over [-lam_hi, lam_hi]
    when two_sided, doubling lam_hi while the minimizer sits at its edge."""
    for _ in range(MAX_BRACKET_EXPANSIONS):
        lam_star, f_min = golden_min(f, -lam_hi if two_sided else 1e-4, lam_hi, tol)
        if abs(lam_star) < lam_hi - 10.0 * tol:
            return lam_star, f_min
        lam_hi *= 2.0
    raise NumericalError("bracket expansion cap reached; the minimizer keeps "
                         "moving outwards")


def _k_minimum(k: Callable[[float], EigenResult], cs: CoefficientSet,
               tol: float) -> Tuple[float, float]:
    """Global minimum of the convex curve k over an interior-guaranteed bracket."""
    lam_hi = 2.0 * math.sqrt(max(cs.r_max - cs.r_min, 1.0) / cs.sigma_min) + 1.0
    return _expanding_min(lambda lam: k(lam).value, lam_hi, tol, two_sided=True)


def spreading_speeds(cs: CoefficientSet, grid: Optional[GridSpec] = None,
                     lam_tol: float = LAMBDA_TOL, k_tol: float = 1e-7) -> SpeedReport:
    """Right and left spreading speeds of the propagation problem.

    Requires the periodic principal eigenvalue k(0) to be positive (otherwise
    front-like data does not spread and the quotient formula degenerates).
    """
    k = k_chain(cs, grid, k_tol)
    k0 = k(0.0).value
    if k0 <= 0:
        raise PreconditionError(
            f"spreading-speed formula needs a positive periodic principal "
            f"eigenvalue; got k(0) = {k0:.6g}")
    return _speed_search(k, cs, grid, lam_tol, k_tol)


def _speed_search(k: Callable[[float], EigenResult], cs: CoefficientSet,
                  grid: Optional[GridSpec], lam_tol: float, k_tol: float) -> SpeedReport:
    """The speeds and min k once k(0) > 0 is known: the right search on the
    chain k, the left search on a fresh chain, then min k on k again."""
    lam_hi = 2.0 * math.sqrt(cs.r_max / cs.sigma_min) + 1.0

    lam_right, c_right = _expanding_min(lambda lam: k(lam).value / lam, lam_hi, lam_tol,
                                        two_sided=False)
    k_neg = k_chain(cs, grid, k_tol)
    lam_left_pos, c_left = _expanding_min(lambda lam: k_neg(-lam).value / lam, lam_hi,
                                          lam_tol, two_sided=False)

    _, k_min = _k_minimum(k, cs, lam_tol)
    low, high = speed_bounds(cs)
    return SpeedReport(c_right=float(c_right), c_left=float(c_left),
                       argmin_lambda_right=float(lam_right),
                       argmin_lambda_left=float(-lam_left_pos),
                       k_min=float(k_min), bound_low=low, bound_high=high,
                       hair_trigger=_sign_or_none(k_min))


@dataclass
class HairTriggerReport:
    """The three persistence indicators; None marks an indeterminate one."""

    via_dirichlet: Optional[bool]
    via_k_min: Optional[bool]
    via_speeds: Optional[bool]
    dirichlet_max: float
    k_min: float
    c_right: Optional[float]
    c_left: Optional[float]

    def consistent(self) -> bool:
        decided = {b for b in (self.via_dirichlet, self.via_k_min, self.via_speeds)
                   if b is not None}
        return len(decided) <= 1


def _sign_or_none(x: float) -> Optional[bool]:
    if x > SIGN_BAND:
        return True
    if x < -SIGN_BAND:
        return False
    return None


def hair_trigger_check(cs: CoefficientSet, grid: Optional[GridSpec] = None,
                       k_tol: float = 1e-7) -> HairTriggerReport:
    """Evaluate the three equivalent hair-trigger conditions.

    (a) some Dirichlet eigenvalue over the geometric sweep {L, 2L, ..., 64L}
    is positive, (b) min over lambda of k(lambda) is positive, (c) both
    spreading speeds are positive.  (b) and (c) come from one speed search,
    as in spreading_speeds.  Outside a +/-1e-4 band around zero the three
    answers must agree; inside it they are reported as indeterminate.
    """
    L = cs.period
    radii = [L * 2 ** j for j in range(7)]          # L .. 64 L
    best = max(res.value for res in dirichlet_sweep(cs, radii, grid, k_tol))
    via_a = _sign_or_none(best)

    k = k_chain(cs, grid, k_tol)
    c_right = c_left = None
    via_c: Optional[bool] = None
    if k(0.0).value > SIGN_BAND:
        report = _speed_search(k, cs, grid, LAMBDA_TOL, k_tol)
        c_right, c_left, k_min = report.c_right, report.c_left, report.k_min
        via_c = _sign_or_none(min(c_right, c_left))
    else:
        # k(0) > 0 fails or is indeterminate: the speed indicator is not available
        _, k_min = _k_minimum(k, cs, LAMBDA_TOL)
    return HairTriggerReport(via_dirichlet=via_a, via_k_min=_sign_or_none(k_min),
                             via_speeds=via_c, dirichlet_max=float(best),
                             k_min=float(k_min), c_right=c_right, c_left=c_left)


def homogenized_speed(h: HomogenizedSet) -> float:
    """Spreading speed 2 sqrt(sigma_H lambda_A) of the averaged medium."""
    p = HomParams(sigma=h.sigma_H, r_u=h.mean_r_u, r_v=h.mean_r_v,
                  kappa_u=h.mean_kappa_u, kappa_v=h.mean_kappa_v,
                  mu_u=h.mean_mu_u, mu_v=h.mean_mu_v)
    lam = lambda_A(p)
    if lam <= 0:
        raise PreconditionError(f"homogenized medium does not spread: lambda_A = {lam:.6g}")
    return 2.0 * math.sqrt(h.sigma_H * lam)
