"""Nonlinear front simulation on a truncated line.

Time stepping is IMEX: the conservative-flux diffusion, built by
``stencil.flux_stencil`` exactly as in the eigen module, is advanced by
backward Euler (one banded LU factorization, reused every step), the
reaction and mutation terms explicitly.  The implicit diffusion matrix is an
M-matrix whose rows sum to one under no-flux boundaries, so each step is a
sup-norm contraction and the discrete solution inherits the comparison bound
u+v <= max(r_max/kappa_min, initial sup) up to rounding.

Front positions are the outermost grid nodes where both species exceed a
threshold; their least-squares drift over a late time window gives the
empirical spreading speed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientSet
from .errors import InvariantBreachError, NumericalError, PreconditionError, ValidationError
from .stencil import flux_stencil
from .util import write_csv

BOUND_SLACK = 1e-8
CLIP_DIAGNOSTIC = 1e-10
TRUST_MARGIN = 0.10          # outer fraction of the domain where fronts are unreliable
REACTION_CFL = 0.25
STATIONARY_DT = 0.05         # pseudo-time step of the stationary-profile iteration


@dataclass(frozen=True)
class DomainSpec:
    """Truncated spatial domain with grid resolution and boundary kind."""

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "neumann"

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValidationError("x_min and x_max must be finite")
        if self.x_max <= self.x_min:
            raise ValidationError("x_max must exceed x_min")
        if self.n_points < 256:
            raise ValidationError("domains need at least 256 points")
        if self.boundary not in ("neumann", "dirichlet_zero"):
            raise ValidationError(f"unknown boundary kind {self.boundary!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n_points)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min


INITIAL_KINDS = ("right_front_like", "left_front_like", "compact_bump",
                 "periodic_pair", "constant_pair")


@dataclass(frozen=True)
class InitialData:
    """Canonical initial data classes for propagation experiments.

    right_front_like: plateau of height amplitude for x <= x_on, smooth taper
    to exactly zero for x >= x_off (left_front_like mirrored);
    compact_bump: amplitude * cos^2 bump of half-width `width` around
    `center`; periodic_pair / constant_pair: positive everywhere.
    """

    kind: str
    amplitude: float
    x_on: float = 0.0
    x_off: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValidationError(f"unknown initial-data kind {self.kind!r}")
        for name in ("amplitude", "x_on", "x_off", "center", "width"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"initial {name} must be finite")
        if not (self.amplitude > 0):
            raise ValidationError("initial amplitude must be positive")
        if self.kind in ("right_front_like", "left_front_like") and self.x_off <= self.x_on:
            raise ValidationError("front-like data needs x_on < x_off")
        if self.kind == "compact_bump" and not (self.width > 0):
            raise ValidationError("compact bump needs a positive width")


def build_initial(init: InitialData, nodes: np.ndarray,
                  period: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the initial pair (u0, v0) on the grid; both species identical."""
    x = nodes
    if init.kind == "right_front_like":
        ramp = np.clip((init.x_off - x) / (init.x_off - init.x_on), 0.0, 1.0)
        prof = init.amplitude * np.sin(0.5 * np.pi * ramp) ** 2
    elif init.kind == "left_front_like":
        ramp = np.clip((x - init.x_on) / (init.x_off - init.x_on), 0.0, 1.0)
        prof = init.amplitude * np.sin(0.5 * np.pi * ramp) ** 2
    elif init.kind == "compact_bump":
        arg = (x - init.center) / init.width
        prof = np.where(np.abs(arg) < 1.0,
                        init.amplitude * np.cos(0.5 * np.pi * arg) ** 2, 0.0)
    elif init.kind == "periodic_pair":
        prof = init.amplitude * (0.75 + 0.25 * np.cos(2.0 * np.pi * x / period))
    else:
        prof = np.full_like(x, init.amplitude)
    return prof.copy(), prof.copy()


@dataclass
class FieldState:
    """Discrete (u, v) fields at time t with the running sup of u+v."""

    t: float
    u: np.ndarray
    v: np.ndarray
    mass_max: float


@dataclass
class FrontTrace:
    """Sampled outermost threshold crossings of min(u, v)."""

    t: np.ndarray
    x_right: np.ndarray
    x_left: np.ndarray
    theta: float


def front_positions(u: np.ndarray, v: np.ndarray, nodes: np.ndarray,
                    theta: float) -> Tuple[float, float]:
    """(x_right, x_left): outermost nodes with min(u, v) >= theta, NaN if none."""
    mask = np.minimum(u, v) >= theta
    if not mask.any():
        return np.nan, np.nan
    idx = np.nonzero(mask)[0]
    return float(nodes[idx[-1]]), float(nodes[idx[0]])


class Stepper:
    """IMEX integrator bound to one coefficient set, grid and step size.

    The requested dt is split into equal substeps until the explicit reaction
    satisfies dt * Lipschitz <= 0.25; the backward-Euler diffusion factor is
    built once.
    """

    def __init__(self, cs: CoefficientSet, nodes: np.ndarray, h: float,
                 boundary: str, dt: float, amplitude_bound: float):
        if not (dt > 0):
            raise ValidationError("dt must be positive")
        self.boundary = boundary
        self.ru = cs.r_u(nodes)
        self.rv = cs.r_v(nodes)
        self.ku = cs.kappa_u(nodes)
        self.kv = cs.kappa_v(nodes)
        self.mu = cs.mu_u(nodes)
        self.mv = cs.mu_v(nodes)
        r_abs = max(abs(float(np.max(self.ru))), abs(float(np.min(self.ru))),
                    abs(float(np.max(self.rv))), abs(float(np.min(self.rv))))
        kappa_max = max(float(np.max(self.ku)), float(np.max(self.kv)))
        mu_max = max(float(np.max(self.mu)), float(np.max(self.mv)))
        lipschitz = r_abs + 2.0 * mu_max + 3.0 * kappa_max * max(amplitude_bound, 0.0)
        self.substeps = max(1, int(np.ceil(dt * lipschitz / REACTION_CFL)))
        self.dt = dt
        self.dt_sub = dt / self.substeps
        n = len(nodes)
        rows, cols, data = flux_stencil(cs, nodes, h, boundary)
        flux = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        system = (sp.identity(n, format="csc") - self.dt_sub * flux).tocsc()
        self.solver = spla.splu(system)
        self.max_clip = 0.0

    def advance(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One full dt step (reaction explicit, diffusion implicit, clip at 0)."""
        for _ in range(self.substeps):
            s = u + v
            ru = u + self.dt_sub * ((self.ru - self.ku * s) * u + self.mv * v - self.mu * u)
            rv = v + self.dt_sub * ((self.rv - self.kv * s) * v + self.mu * u - self.mv * v)
            out = self.solver.solve(np.column_stack([ru, rv]))
            u, v = out[:, 0], out[:, 1]
            low = min(float(u.min()), float(v.min()))
            if low < 0.0:
                self.max_clip = max(self.max_clip, -low)
                np.clip(u, 0.0, None, out=u)
                np.clip(v, 0.0, None, out=v)
            if self.boundary == "dirichlet_zero":
                u[0] = u[-1] = 0.0
                v[0] = v[-1] = 0.0
        return u, v


def step(cs: CoefficientSet, state: FieldState, dt: float, domain: DomainSpec,
         bound: Optional[float] = None) -> FieldState:
    """Single IMEX step of the full nonlinear system.

    Convenience wrapper building a one-shot Stepper; long runs should use
    ``simulate`` which reuses the factorization.  Raises InvariantBreachError
    if sup(u+v) exceeds max(K_bar, initial sup) beyond rounding slack.
    """
    nodes = domain.nodes()
    if bound is None:
        bound = max(cs.k_bar, float(np.max(state.u + state.v)))
    stepper = Stepper(cs, nodes, domain.h, domain.boundary, dt, bound)
    u, v = stepper.advance(state.u.copy(), state.v.copy())
    mass = float(np.max(u + v))
    if mass > bound + BOUND_SLACK:
        raise InvariantBreachError(f"u+v reached {mass}, above the comparison "
                                   f"bound {bound}")
    return FieldState(t=state.t + dt, u=u, v=v,
                      mass_max=max(state.mass_max, mass))


@dataclass
class SimulationResult:
    """Final state, front trace, optional snapshots and trust diagnostics."""

    state: FieldState
    trace: FrontTrace
    snapshots: List[FieldState]
    nodes: np.ndarray
    theta: float
    trusted_until_right: float
    trusted_until_left: float
    max_clip: float


def default_threshold(cs: CoefficientSet, u0: np.ndarray, v0: np.ndarray) -> float:
    """0.01 * K_bar, falling back to the initial amplitude when K_bar <= 0."""
    scale = cs.k_bar if cs.k_bar > 0 else float(np.max(u0 + v0))
    return 0.01 * scale


def simulate(cs: CoefficientSet, domain: DomainSpec, init: InitialData,
             T: float, dt: float, record_every: float,
             theta: Optional[float] = None,
             snapshot_every: Optional[float] = None) -> SimulationResult:
    """Advance the system to time T, tracking fronts along the way.

    Front positions are recorded every record_every time units; a warning is
    issued the first time either front enters the outer 10% of the domain
    (positions after that time are contaminated by the truncation).  Raises
    InvariantBreachError if sup(u+v) exceeds max(K_bar, initial sup) beyond
    rounding slack.
    """
    if domain.width < 20.0 * cs.period:
        raise ValidationError(f"domain width {domain.width} is below 20 periods; "
                              "fronts would immediately feel the truncation")
    if not (T > 0 and record_every > 0):
        raise ValidationError("T and record_every must be positive")
    nodes = domain.nodes()
    u, v = build_initial(init, nodes, cs.period)
    if theta is None:
        theta = default_threshold(cs, u, v)
    initial_sup = float(np.max(u + v))
    bound = max(cs.k_bar, initial_sup)
    stepper = Stepper(cs, nodes, domain.h, domain.boundary, dt, bound)

    margin = TRUST_MARGIN * domain.width
    right_limit = domain.x_max - margin
    left_limit = domain.x_min + margin
    trusted_right = np.inf
    trusted_left = np.inf

    times, rights, lefts = [], [], []
    snapshots: List[FieldState] = []
    mass_max = initial_sup

    n_steps = int(round(T / dt))
    record_stride = max(1, int(round(record_every / dt)))
    snap_stride = None
    if snapshot_every is not None:
        snap_stride = max(1, int(round(snapshot_every / dt)))

    def record(t: float) -> None:
        nonlocal trusted_right, trusted_left
        xr, xl = front_positions(u, v, nodes, theta)
        times.append(t)
        rights.append(xr)
        lefts.append(xl)
        if np.isfinite(xr) and xr > right_limit and trusted_right == np.inf:
            trusted_right = t
            warnings.warn(f"right front entered the outer {TRUST_MARGIN:.0%} of the "
                          f"domain at t={t:g}; later positions are untrusted")
        if np.isfinite(xl) and xl < left_limit and trusted_left == np.inf:
            trusted_left = t
            warnings.warn(f"left front entered the outer {TRUST_MARGIN:.0%} of the "
                          f"domain at t={t:g}; later positions are untrusted")

    record(0.0)
    for i in range(1, n_steps + 1):
        u, v = stepper.advance(u, v)
        t = i * dt
        mass = float(np.max(u + v))
        mass_max = max(mass_max, mass)
        if mass > bound + BOUND_SLACK:
            raise InvariantBreachError(f"u+v reached {mass} at t={t}, above the "
                                       f"comparison bound {bound}")
        if i % record_stride == 0:
            record(t)
        if snap_stride is not None and i % snap_stride == 0:
            snapshots.append(FieldState(t=t, u=u.copy(), v=v.copy(), mass_max=mass_max))

    state = FieldState(t=n_steps * dt, u=u, v=v, mass_max=mass_max)
    if not snapshots or snapshots[-1].t != state.t:
        snapshots.append(FieldState(t=state.t, u=u.copy(), v=v.copy(), mass_max=mass_max))
    trace = FrontTrace(t=np.asarray(times), x_right=np.asarray(rights),
                       x_left=np.asarray(lefts), theta=theta)
    return SimulationResult(state=state, trace=trace, snapshots=snapshots,
                            nodes=nodes, theta=theta,
                            trusted_until_right=trusted_right,
                            trusted_until_left=trusted_left,
                            max_clip=stepper.max_clip)


# -- speed measurement --------------------------------------------------------

@dataclass
class SpeedMeasurement:
    """Late-window least-squares front speeds with fit quality."""

    c_right: Optional[float]
    c_left: Optional[float]
    r_squared_right: float
    r_squared_left: float
    right_reliable: bool
    left_reliable: bool


BURN_IN_FRACTION = 0.3
MIN_FIT_SAMPLES = 20
R2_THRESHOLD = 0.999


def _fit_speed(t: np.ndarray, x: np.ndarray) -> Tuple[Optional[float], float, bool]:
    keep = np.isfinite(x)
    t, x = t[keep], x[keep]
    if len(t) < MIN_FIT_SAMPLES:
        return None, 0.0, False
    slope, intercept = np.polyfit(t, x, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((x - fitted) ** 2))
    ss_tot = float(np.sum((x - np.mean(x)) ** 2))
    if ss_tot < 1e-24:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), r2, r2 > R2_THRESHOLD


def measure_speed(trace: FrontTrace, window: float = 0.5) -> SpeedMeasurement:
    """Front speeds from the last `window` fraction of the post-burn-in trace.

    The first 30% of the samples are discarded (transient relaxation toward
    the asymptotic front), then a least-squares line is fitted to x_right and
    to -x_left over the final window; a speed is only declared reliable when
    the fit explains the data with r^2 > 0.999 on at least 20 samples.
    """
    if not (0 < window <= 1):
        raise ValidationError("window must be a fraction in (0, 1]")
    t = trace.t
    if len(t) < 2:
        raise ValidationError("trace too short to measure a speed")
    t0 = t[0] + BURN_IN_FRACTION * (t[-1] - t[0])
    t1 = t[-1] - window * (t[-1] - t0)
    keep = t >= max(t0, t1)
    tt = t[keep]
    c_r, r2_r, ok_r = _fit_speed(tt, trace.x_right[keep])
    c_l_raw, r2_l, ok_l = _fit_speed(tt, trace.x_left[keep])
    c_l = None if c_l_raw is None else -c_l_raw
    return SpeedMeasurement(c_right=c_r, c_left=c_l,
                            r_squared_right=r2_r, r_squared_left=r2_l,
                            right_reliable=ok_r, left_reliable=ok_l)


# -- stationary profiles and convergence behind the front ---------------------

def stationary_profile(cs: CoefficientSet, n_cells: int = 512, tol: float = 1e-9,
                       t_max: float = 4000.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive stationary pair on one period cell with periodic boundary.

    Integrates from the constant pair (K_bar/2, K_bar/2) until the discrete
    time derivative drops below tol.  The IMEX fixed point solves the
    discrete stationary system exactly, so the result does not depend on the
    time step STATIONARY_DT.  Returns (nodes, u_profile, v_profile).
    """
    if n_cells < 16:
        raise ValidationError("n_cells must be at least 16")
    if cs.k_bar <= 0:
        raise PreconditionError("no positive stationary state expected: K_bar <= 0")
    L = cs.period
    h = L / n_cells
    nodes = h * np.arange(n_cells)
    amp = 0.5 * cs.k_bar
    u = np.full(n_cells, amp)
    v = np.full(n_cells, amp)
    dt = STATIONARY_DT
    stepper = Stepper(cs, nodes, h, "periodic", dt, cs.k_bar)
    t = 0.0
    while t < t_max:
        un, vn = stepper.advance(u.copy(), v.copy())
        rate = max(float(np.max(np.abs(un - u))), float(np.max(np.abs(vn - v)))) / dt
        u, v = un, vn
        t += dt
        if rate < tol:
            return nodes, u, v
    raise NumericalError(f"stationary profile did not settle below {tol} by t={t_max}")


def profile_on_domain(cell_nodes: np.ndarray, profile: np.ndarray, period: float,
                      nodes: np.ndarray) -> np.ndarray:
    """Tile a periodic cell profile onto an arbitrary grid by periodic interpolation."""
    return np.interp(np.mod(nodes, period), cell_nodes, profile, period=period)


@dataclass
class ConvergenceHistory:
    """Sup-distance to the stationary state inside an expanding cone |x| <= c t."""

    t: np.ndarray
    sup_distance: np.ndarray

    def final(self) -> float:
        return float(self.sup_distance[-1])


def convergence_behind_front(cs: CoefficientSet, domain: DomainSpec,
                             init: InitialData, c_probe: float,
                             T: float, dt: float, sample_every: float,
                             target: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
                             ) -> ConvergenceHistory:
    """Track max over |x| <= c_probe*t of the distance to the stationary pair.

    target may be a precomputed (cell_nodes, u_prof, v_prof) triple; otherwise
    the periodic stationary profile is computed first, on 512 cells.
    """
    if not (c_probe > 0):
        raise PreconditionError("c_probe must be positive (and below the spreading speed)")
    if target is None:
        target = stationary_profile(cs)
    cell_nodes, u_prof, v_prof = target
    nodes = domain.nodes()
    tu = profile_on_domain(cell_nodes, u_prof, cs.period, nodes)
    tv = profile_on_domain(cell_nodes, v_prof, cs.period, nodes)

    u, v = build_initial(init, nodes, cs.period)
    bound = max(cs.k_bar, float(np.max(u + v)))
    stepper = Stepper(cs, nodes, domain.h, domain.boundary, dt, bound)
    n_steps = int(round(T / dt))
    stride = max(1, int(round(sample_every / dt)))
    times, sups = [], []
    for i in range(1, n_steps + 1):
        u, v = stepper.advance(u, v)
        if i % stride == 0:
            t = i * dt
            cone = np.abs(nodes) <= c_probe * t
            if cone.any():
                d = max(float(np.max(np.abs(u[cone] - tu[cone]))),
                        float(np.max(np.abs(v[cone] - tv[cone]))))
                times.append(t)
                sups.append(d)
    return ConvergenceHistory(t=np.asarray(times), sup_distance=np.asarray(sups))


# -- profile morphology -------------------------------------------------------

def detect_hump(profile: np.ndarray, nodes: np.ndarray, x_front: float,
                plateau_margin: float = 1.05) -> bool:
    """True if the profile has an interior local maximum above its rear plateau.

    The rear plateau level is taken far behind the front (first fifth of the
    region behind it); a hump must be a strict interior local max exceeding
    that level by plateau_margin and lying ahead of the plateau zone.
    """
    behind = nodes <= x_front
    if behind.sum() < 16:
        return False
    idx = np.nonzero(behind)[0]
    rear = idx[: max(4, len(idx) // 5)]
    plateau = float(np.median(profile[rear]))
    peak_idx = idx[np.argmax(profile[idx])]
    peak = float(profile[peak_idx])
    interior = rear[-1] < peak_idx < len(nodes) - 1
    local_max = (interior and profile[peak_idx] >= profile[peak_idx - 1]
                 and profile[peak_idx] >= profile[peak_idx + 1])
    return bool(local_max and peak > plateau_margin * plateau)


def profile_is_monotone(profile: np.ndarray, nodes: np.ndarray, x_front: float,
                        slack_fraction: float = 0.01) -> bool:
    """True if the profile is nonincreasing in x up to the front (small slack).

    slack is relative to the profile amplitude, absorbing grid-level wiggles.
    """
    region = nodes <= x_front
    p = profile[region]
    if len(p) < 2:
        return True
    slack = slack_fraction * float(np.max(p))
    return bool(np.all(np.diff(p) <= slack))


# -- CSV output ---------------------------------------------------------------

def write_snapshot_csv(path, nodes: np.ndarray, state: FieldState,
                       comments: Sequence[str] = ()) -> None:
    """Snapshot CSV x,u,v preceded by a t=<value> header comment."""
    all_comments = list(comments) + [f"t={state.t!r}"]
    write_csv(path, ("x", "u", "v"), zip(nodes, state.u, state.v), all_comments)


def write_front_trace_csv(path, trace: FrontTrace, comments: Sequence[str] = ()) -> None:
    write_csv(path, ("t", "x_right", "x_left"),
              zip(trace.t, trace.x_right, trace.x_left), comments)
