"""Spatially homogeneous analysis: the kinetic system without diffusion.

With constant coefficients the dynamics of spatially uniform states reduces
to a planar ODE.  The largest eigenvalue of the mutation-growth matrix at
the origin decides extinction versus persistence; when it is positive there
is a unique positive equilibrium, computed here in closed form through the
substitution S = u+v, Q = u/v, together with a linear-stability certificate
and a logarithmic Lyapunov weight.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NumericalError, PreconditionError, ValidationError
from .util import step_count

EQUILIBRIUM_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class HomParams:
    """Constant coefficients: positive sigma, kappas and mus, r of any sign."""

    sigma: float
    r_u: float
    r_v: float
    kappa_u: float
    kappa_v: float
    mu_u: float
    mu_v: float

    def __post_init__(self):
        for name in ("sigma", "r_u", "r_v", "kappa_u", "kappa_v", "mu_u", "mu_v"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("sigma", "kappa_u", "kappa_v", "mu_u", "mu_v"):
            if not (getattr(self, name) > 0):
                raise ValidationError(f"{name} must be strictly positive")


def lambda_A(p: HomParams) -> float:
    """Largest eigenvalue of [[r_u-mu_u, mu_v], [mu_u, r_v-mu_v]].

    Equals ((a+d) + sqrt((a-d)^2 + 4 mu_u mu_v))/2 with a = r_u - mu_u,
    d = r_v - mu_v; both eigenvalues are real because the off-diagonal
    product is positive.
    """
    a = p.r_u - p.mu_u
    d = p.r_v - p.mu_v
    return 0.5 * (a + d + np.sqrt((a - d) ** 2 + 4.0 * p.mu_u * p.mu_v))


def rhs(p: HomParams, u: float, v: float) -> Tuple[float, float]:
    """Kinetic right-hand side (growth/competition plus mutation exchange)."""
    s = u + v
    du = (p.r_u - p.kappa_u * s) * u + p.mu_v * v - p.mu_u * u
    dv = (p.r_v - p.kappa_v * s) * v + p.mu_u * u - p.mu_v * v
    return du, dv


def equilibrium(p: HomParams) -> Tuple[float, float]:
    """The unique positive equilibrium, via the (S, Q) = (u+v, u/v) variables.

    Q solves a quadratic with exactly one positive root; S follows linearly.
    Requires lambda_A > 0 (otherwise every nonnegative orbit dies out and no
    positive equilibrium exists).
    """
    if lambda_A(p) <= 0:
        raise PreconditionError("no positive equilibrium: lambda_A <= 0 "
                                "(the origin is stable and attracts all orbits)")
    ratio = p.kappa_u / p.kappa_v
    disc = p.r_u - p.mu_u - ratio * (p.r_v - p.mu_v)
    Q = (p.kappa_v / (2.0 * p.mu_u * p.kappa_u)) * (
        disc + np.sqrt(disc ** 2 + 4.0 * ratio * p.mu_u * p.mu_v))
    S = (p.r_v + p.mu_u * Q - p.mu_v) / p.kappa_v
    u_star = S * Q / (1.0 + Q)
    v_star = S / (1.0 + Q)
    du, dv = rhs(p, u_star, v_star)
    if max(abs(du), abs(dv)) >= EQUILIBRIUM_RESIDUAL_TOL * max(1.0, u_star + v_star):
        raise NumericalError(f"equilibrium residual too large: ({du:.2e}, {dv:.2e})")
    return float(u_star), float(v_star)


def jacobian(p: HomParams, u: float, v: float) -> Tuple[float, float, float, float]:
    """Entries (a, b, c, d) of the kinetic Jacobian at (u, v)."""
    a = p.r_u - p.mu_u - p.kappa_u * (2.0 * u + v)
    b = p.mu_v - p.kappa_u * u
    c = p.mu_u - p.kappa_v * v
    d = p.r_v - p.mu_v - p.kappa_v * (u + 2.0 * v)
    return a, b, c, d


def lyapunov_K(p: HomParams) -> float:
    """Weight K > 0 making F_u(u) + K F_v(v) a Lyapunov function.

    Writing A=kappa_u, B=kappa_u - mu_v/u*, C=kappa_v - mu_u/v*, D=kappa_v,
    the dissipation quadratic is definite whenever
    P(K) = -C^2 K^2 + (4AD - 2BC) K - B^2 > 0; that requires BC < AD.  We
    return the vertex of P (or, for C = 0 where P degenerates to a line, the
    point where P = 1).

    BC < AD is guaranteed when both r_u - mu_u and r_v - mu_v are positive,
    but in the mixed-sign corner (one species mutation-dominated while
    0 < r - mu < the other mutation rate) BC >= AD does occur and no
    quadratic-certificate weight exists; an internal-contradiction error is
    raised there.
    """
    if lambda_A(p) <= 0 or max(p.r_u - p.mu_u, p.r_v - p.mu_v) <= 0:
        raise PreconditionError("Lyapunov weight requires lambda_A > 0 and "
                                "max(r_u - mu_u, r_v - mu_v) > 0")
    u_star, v_star = equilibrium(p)
    A, D = p.kappa_u, p.kappa_v
    B = p.kappa_u - p.mu_v / u_star
    C = p.kappa_v - p.mu_u / v_star
    if B * C >= A * D:
        raise NumericalError(
            f"no quadratic-form Lyapunov weight exists: BC = {B * C:.6g} >= "
            f"AD = {A * D:.6g} for these parameters")
    slope = 4.0 * A * D - 2.0 * B * C
    if C == 0.0:
        K = (B ** 2 + 1.0) / slope
    else:
        K = slope / (2.0 * C ** 2)
    P = -C ** 2 * K ** 2 + slope * K - B ** 2
    if not (K > 0 and P > 0):
        raise NumericalError(f"dissipation quadratic not positive at K={K} (P={P})")
    return float(K)


def lyapunov_value(u, v, u_star: float, v_star: float, K: float):
    """F_u(u) + K F_v(v) with F_w(w) = w - w* - w* log(w/w*); zero only at the
    equilibrium.  u and v may be scalars (a float comes back) or arrays."""
    if np.min(u) <= 0 or np.min(v) <= 0:
        raise ValidationError("the Lyapunov function is defined for positive (u, v) only")
    f_u = u - u_star - u_star * np.log(u / u_star)
    f_v = v - v_star - v_star * np.log(v / v_star)
    value = f_u + K * f_v
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class OdeAnalysis:
    """Bundle of the closed-form quantities for one parameter set."""

    lambda_A: float
    equilibrium: Optional[Tuple[float, float]]
    jacobian: Optional[Tuple[float, float, float, float]]
    lyapunov_K: Optional[float]


LAMBDA_A_ZERO_BAND = 1e-12


def analyze(p: HomParams) -> OdeAnalysis:
    """lambda_A plus, when the origin is unstable, equilibrium/Jacobian/K.

    lyapunov_K stays None both when the weight's hypothesis fails and in the
    mixed-sign corner where no quadratic-certificate weight exists.
    """
    lam = lambda_A(p)
    if lam <= LAMBDA_A_ZERO_BAND:
        return OdeAnalysis(lam, None, None, None)
    eq = equilibrium(p)
    jac = jacobian(p, *eq)
    K = None
    if max(p.r_u - p.mu_u, p.r_v - p.mu_v) > 0:
        try:
            K = lyapunov_K(p)
        except NumericalError:
            K = None
    return OdeAnalysis(lam, eq, jac, K)


@dataclass
class Trajectory:
    """Sampled kinetic orbit; clipped flags any negative undershoot reset to 0,
    and computed_steps counts the RK4 steps taken (the rows after a fixed
    point of the map are copied, not computed)."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    clipped: bool
    computed_steps: int

    def endpoint(self) -> Tuple[float, float]:
        return float(self.u[-1]), float(self.v[-1])


BLOWUP_LIMIT = 1e6
CLIP_FLOOR = 1e-14
_state_bits = struct.Struct("dd").pack


def integrate(p: HomParams, u0: float, v0: float, T: float, dt: float = 1e-3) -> Trajectory:
    """Classical fixed-step fourth-order integration of the kinetic system.

    Negative undershoots below the 1e-14 rounding floor are clipped to zero
    and flagged; amplitudes beyond 1e6 abort (theory bounds every orbit, so
    reaching that is a solver failure).

    The loop stops at the first step that returns the state it started from,
    bit for bit (-0.0 and 0.0 differ, and no tolerance applies).  The map is
    deterministic, so every later step would return that state too: the
    remaining rows are filled with it, and t and clipped are what the full
    loop gives.
    """
    if u0 < 0 or v0 < 0:
        raise ValidationError("initial data must be nonnegative")
    if not (dt > 0) or not (T > 0):
        raise ValidationError("T and dt must be positive")
    n_steps = step_count(T, dt)
    t = np.arange(n_steps + 1, dtype=float)
    t *= dt                                   # i * dt, bit for bit
    u = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    u[0], v[0] = u0, v0
    clipped = False
    cu, cv = float(u0), float(v0)
    # rhs inlined, with its operations in the same order, so the orbit is
    # bitwise the one an RK4 loop calling rhs gives; 0.5 * dt * k groups as
    # (0.5 * dt) * k, so half_dt changes no bit either.
    r_u, r_v, ka_u, ka_v, mu_u, mu_v = p.r_u, p.r_v, p.kappa_u, p.kappa_v, p.mu_u, p.mu_v
    half_dt = 0.5 * dt
    computed_steps = n_steps
    for i in range(1, n_steps + 1):
        pu, pv = cu, cv
        s = cu + cv
        k1u = (r_u - ka_u * s) * cu + mu_v * cv - mu_u * cu
        k1v = (r_v - ka_v * s) * cv + mu_u * cu - mu_v * cv
        su, sv = cu + half_dt * k1u, cv + half_dt * k1v
        s = su + sv
        k2u = (r_u - ka_u * s) * su + mu_v * sv - mu_u * su
        k2v = (r_v - ka_v * s) * sv + mu_u * su - mu_v * sv
        su, sv = cu + half_dt * k2u, cv + half_dt * k2v
        s = su + sv
        k3u = (r_u - ka_u * s) * su + mu_v * sv - mu_u * su
        k3v = (r_v - ka_v * s) * sv + mu_u * su - mu_v * sv
        su, sv = cu + dt * k3u, cv + dt * k3v
        s = su + sv
        k4u = (r_u - ka_u * s) * su + mu_v * sv - mu_u * su
        k4v = (r_v - ka_v * s) * sv + mu_u * su - mu_v * sv
        cu += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        cv += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if cu < 0:
            if cu < -CLIP_FLOOR:
                clipped = True
            cu = 0.0
        if cv < 0:
            if cv < -CLIP_FLOOR:
                clipped = True
            cv = 0.0
        if abs(cu) + abs(cv) > BLOWUP_LIMIT:
            raise NumericalError(f"kinetic orbit blew up at t={i * dt} "
                                 f"(|u|+|v| > {BLOWUP_LIMIT:g})")
        u[i], v[i] = cu, cv
        # == first, so the bit comparison runs only where the values agree
        if cu == pu and cv == pv and _state_bits(cu, cv) == _state_bits(pu, pv):
            u[i + 1:], v[i + 1:] = cu, cv
            computed_steps = i
            break
    return Trajectory(t=t, u=u, v=v, clipped=clipped, computed_steps=computed_steps)
