"""Nonlinear front simulation on a truncated line.

Time stepping is IMEX: the conservative-flux diffusion, built from
``stencil.flux_parts`` and ``stencil.tilted_couplings`` as in the eigen
module, is advanced by backward Euler, the reaction and mutation terms
explicitly.  The pair (u, v) is held as one (n, 2) array, so one solve serves
both species.  The implicit matrix I - dt D is factored once per run: on the
line (neumann and dirichlet_zero ends) it is symmetric positive definite and
tridiagonal, and is factored as L D L^T by LAPACK ``dpttrf``/``dpttrs``; on
the periodic stationary cell it keeps a sparse LU.  It is an M-matrix whose
rows sum to one under no-flux boundaries, so each step is a sup-norm
contraction and the discrete solution inherits the comparison bound
u+v <= max(r_max/kappa_min, initial sup) up to rounding.  Every driver steps
through ``Stepper.run``, which checks that bound after each step.

Front positions are the outermost grid nodes where both species exceed a
threshold; their least-squares drift over a late time window gives the
empirical spreading speed.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .coefficients import CoefficientSet
from .errors import InvariantBreachError, NumericalError, PreconditionError, ValidationError
from .stencil import coo_pattern, flux_parts, tilted_couplings
from .util import REFINE_CAP, STEP_CAP, step_count

BOUND_SLACK = 1e-8
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
        if self.n_points > REFINE_CAP:
            raise ValidationError(f"domains take at most {REFINE_CAP} points")
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


def _ldlt_solve(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Every column of rhs solved against the L D L^T factor (diag, upper) that
    ``dpttrf`` returned, into a new array."""
    x, info = dpttrs(diag, upper, rhs)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed (dpttrs info={info})")
    return x


class Stepper:
    """IMEX integrator bound to one coefficient set, grid and step size.

    The requested dt is split into equal substeps until the explicit reaction
    satisfies dt * Lipschitz <= 0.25.  The state is one Fortran-ordered (n, 2)
    array w = [u, v]; the reaction is formed from per-stepper coefficient
    columns into preallocated buffers, and both species are then solved
    together against the backward-Euler matrix I - dt_sub * D, factored once
    here.  For the neumann and dirichlet_zero ends that matrix is symmetric
    positive definite and tridiagonal (``stencil.face_sigma`` shares one
    sigma per face), so it is factored as L D L^T by LAPACK ``dpttrf`` and
    solved by ``dpttrs``; the periodic cell, whose matrix has corner entries,
    keeps a sparse LU (``splu``), its entries placed by ``coo_pattern``.  The
    choice is made here, once: ``solve(rhs)`` returns the solution for an
    (n, 2) rhs as a new array.
    amplitude_bound is the comparison bound max(K_bar, sup(u0+v0)) of the
    run: it enters the Lipschitz estimate, and ``run`` checks it.  steps
    counts the full steps ``run`` took, max_clip the largest negative part
    clipped.
    """

    def __init__(self, cs: CoefficientSet, nodes: np.ndarray, h: float,
                 boundary: str, dt: float, amplitude_bound: float):
        if not (dt > 0):
            raise ValidationError("dt must be positive")
        self.boundary = boundary
        self.bound = amplitude_bound
        ru, rv = cs.r_u(nodes), cs.r_v(nodes)
        ku, kv = cs.kappa_u(nodes), cs.kappa_v(nodes)
        mu, mv = cs.mu_u(nodes), cs.mu_v(nodes)
        r_abs = max(abs(float(np.max(ru))), abs(float(np.min(ru))),
                    abs(float(np.max(rv))), abs(float(np.min(rv))))
        kappa_max = max(float(np.max(ku)), float(np.max(kv)))
        mu_max = max(float(np.max(mu)), float(np.max(mv)))
        lipschitz = r_abs + 2.0 * mu_max + 3.0 * kappa_max * max(amplitude_bound, 0.0)
        substeps = np.ceil(dt * lipschitz / REACTION_CFL)
        # a count past STEP_CAP (inf and nan too) stays a float, and run rejects it
        self.substeps = max(1, int(substeps)) if substeps <= STEP_CAP else float(substeps)
        self.dt = dt
        self.dt_sub = dt / self.substeps
        n = len(nodes)

        # Reaction of w = [u, v], with dt_sub folded into the coefficients:
        # w + (dt_sub (r - m_out) - dt_sub kappa s) w + dt_sub m_in w_swapped,
        # where s = u + v, m_out = [mu_u, mu_v] and m_in = [mu_v, mu_u].
        def columns(a, b):
            return np.asfortranarray(np.column_stack([a, b]))

        self._growth = self.dt_sub * columns(ru - mu, rv - mv)
        self._kappa = self.dt_sub * columns(ku, kv)
        self._inflow = self.dt_sub * columns(mv, mu)
        self._sum = np.empty(n)
        self._buf = np.empty((n, 2), order="F")
        self._swap_buf = np.empty((n, 2), order="F")

        diag, up, down = flux_parts(cs, nodes, h, boundary)
        upper, lower = tilted_couplings(up, down, h, 0.0)
        if boundary == "periodic":
            entries = np.concatenate([1.0 - self.dt_sub * diag, -self.dt_sub * upper,
                                      -self.dt_sub * lower])
            system = sp.coo_matrix((entries, coo_pattern(n, boundary)), shape=(n, n)).tocsc()
            self.solve = spla.splu(system).solve   # by name: perfbench's tracer wraps it
        else:
            diag, upper, info = dpttrf(1.0 - self.dt_sub * diag, -self.dt_sub * upper)
            if info != 0:
                raise NumericalError(f"I - dt*D is not positive definite (dpttrf info={info})")
            self.solve = functools.partial(_ldlt_solve, diag, upper)
        self.steps = 0
        self.max_clip = 0.0

    def advance(self, w: np.ndarray) -> np.ndarray:
        """One full dt step of the (n, 2) state w = [u, v] (reaction explicit,
        diffusion implicit, clip at 0).

        Returns a new array and never writes to w."""
        s, buf, swap = self._sum, self._buf, self._swap_buf
        for _ in range(self.substeps):
            np.add(w[:, 0], w[:, 1], out=s)
            np.multiply(self._kappa, s[:, None], out=buf)
            np.subtract(self._growth, buf, out=buf)
            np.multiply(buf, w, out=buf)
            np.multiply(self._inflow, w[:, ::-1], out=swap)
            np.add(buf, swap, out=buf)
            np.add(buf, w, out=buf)
            w = self.solve(buf)
            low = float(w.min())
            if low < 0.0:
                self.max_clip = max(self.max_clip, -low)
                np.maximum(w, 0.0, out=w)
            if self.boundary == "dirichlet_zero":
                w[[0, -1]] = 0.0
        return w

    def run(self, u: np.ndarray, v: np.ndarray,
            n_steps: float) -> Iterator[Tuple[int, np.ndarray, np.ndarray, float]]:
        """Advance n_steps full steps, yielding (i, u, v, sup(u+v)) after step i.

        This is the only caller of ``advance``.  Each yielded u, v are the
        columns of a new state array, so a caller may keep them across steps.
        A run of more than STEP_CAP substeps in all is rejected before its
        first step; n_steps may then be a float count, inf included.
        Raises InvariantBreachError when sup(u+v) passes the comparison bound
        by more than BOUND_SLACK, or is NaN.
        """
        total = n_steps * self.substeps
        if not total <= STEP_CAP:                 # inf and nan fail too
            raise ValidationError(f"the run takes {total:.3g} reaction substeps ({n_steps:.3g} "
                                  f"steps of {self.substeps:.3g}), more than {STEP_CAP}")
        w = np.asfortranarray(np.column_stack([u, v]))
        for i in range(1, int(n_steps) + 1):
            w = self.advance(w)
            self.steps += 1
            u, v = w[:, 0], w[:, 1]
            mass = float(np.add(u, v, out=self._sum).max())
            if not mass <= self.bound + BOUND_SLACK:      # NaN fails too
                raise InvariantBreachError(f"u+v reached {mass} at t={i * self.dt}, above "
                                           f"the comparison bound {self.bound}")
            yield i, u, v, mass

    def counts(self) -> dict:
        """Full steps and substeps taken by ``run`` so far, and the largest clip."""
        return {"steps": self.steps, "substeps": self.steps * self.substeps,
                "max_clip": self.max_clip}


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
    counts: dict                 # Stepper.counts(): steps, substeps, max_clip


def default_threshold(cs: CoefficientSet, u0: np.ndarray, v0: np.ndarray) -> float:
    """0.01 * K_bar, falling back to the initial amplitude when K_bar <= 0."""
    scale = cs.k_bar if cs.k_bar > 0 else float(np.max(u0 + v0))
    return 0.01 * scale


def _stride(every: float, dt: float, n_steps: int) -> int:
    """Steps between samples taken every `every` time units; an interval longer
    than the run, even one whose quotient overflows, gives n_steps + 1."""
    return max(1, int(round(min(every / dt, n_steps + 1))))


def simulate(cs: CoefficientSet, domain: DomainSpec, init: InitialData,
             T: float, dt: float, record_every: float,
             theta: Optional[float] = None,
             snapshot_every: Optional[float] = None) -> SimulationResult:
    """Advance the system to time T, tracking fronts along the way.

    Front positions are recorded every record_every time units.  A warning is
    issued the first time a front that was recorded inside the trusted region
    enters the outer 10% of the domain (its positions after that time are
    contaminated by the truncation); a front that starts in the margin, such
    as the left edge of a plateau touching x_min, is never trusted and never
    warned about.  Raises InvariantBreachError if sup(u+v) exceeds
    max(K_bar, initial sup) beyond rounding slack.
    """
    if domain.width < 20.0 * cs.period:
        raise ValidationError(f"domain width {domain.width} is below 20 periods; "
                              "fronts would immediately feel the truncation")
    if not (T > 0 and dt > 0 and record_every > 0):
        raise ValidationError("T, dt and record_every must be positive")
    n_steps = step_count(T, dt)
    record_stride = _stride(record_every, dt, n_steps)
    if n_steps < record_stride:         # the speed fit needs two recorded positions
        raise ValidationError(f"record_every={record_every} leaves fewer than two "
                              f"recorded front positions by T={T}")
    nodes = domain.nodes()
    u, v = build_initial(init, nodes, cs.period)
    mass_max = float(np.max(u + v))
    stepper = Stepper(cs, nodes, domain.h, domain.boundary, dt, max(cs.k_bar, mass_max))
    if theta is None:
        theta = default_threshold(cs, u, v)

    # Right and left fronts: outward sign, trusted-region edge in outward
    # coordinates, whether the front was seen inside it, and the time it
    # then entered the margin.
    margin = TRUST_MARGIN * domain.width
    outward, edges = (1.0, -1.0), (domain.x_max - margin, -(domain.x_min + margin))
    seen_inside, trusted = [False, False], [np.inf, np.inf]

    times, fronts = [], ([], [])
    snapshots: List[FieldState] = []

    snap_stride = None
    if snapshot_every is not None:
        snap_stride = _stride(snapshot_every, dt, n_steps)

    def record(t: float, u: np.ndarray, v: np.ndarray) -> None:
        times.append(t)
        for k, x in enumerate(front_positions(u, v, nodes, theta)):
            fronts[k].append(x)
            if not np.isfinite(x) or trusted[k] != np.inf:
                continue
            if outward[k] * x <= edges[k]:
                seen_inside[k] = True
            elif seen_inside[k]:
                trusted[k] = t
                warnings.warn(f"{('right', 'left')[k]} front entered the outer "
                              f"{TRUST_MARGIN:.0%} of the domain at t={t:g}; "
                              "later positions are untrusted")

    record(0.0, u, v)
    for i, u, v, mass in stepper.run(u, v, n_steps):
        t = i * dt
        mass_max = max(mass_max, mass)
        if i % record_stride == 0:
            record(t, u, v)
        if snap_stride is not None and i % snap_stride == 0:
            snapshots.append(FieldState(t=t, u=u.copy(), v=v.copy(), mass_max=mass_max))

    state = FieldState(t=n_steps * dt, u=u, v=v, mass_max=mass_max)
    if not snapshots or snapshots[-1].t != state.t:
        snapshots.append(FieldState(t=state.t, u=u.copy(), v=v.copy(), mass_max=mass_max))
    trace = FrontTrace(t=np.asarray(times), x_right=np.asarray(fronts[0]),
                       x_left=np.asarray(fronts[1]), theta=theta)
    return SimulationResult(state=state, trace=trace, snapshots=snapshots,
                            nodes=nodes, theta=theta,
                            trusted_until_right=trusted[0],
                            trusted_until_left=trusted[1],
                            counts=stepper.counts())


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


# -- stationary profiles ------------------------------------------------------

def stationary_profile(cs: CoefficientSet, n_cells: int = 512, tol: float = 1e-9,
                       t_max: float = 4000.0, counts: Optional[dict] = None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive stationary pair on one period cell with periodic boundary.

    Integrates from the constant pair (K_bar/2, K_bar/2) until the discrete
    time derivative drops below tol.  The IMEX fixed point solves the
    discrete stationary system exactly, so the result does not depend on the
    time step STATIONARY_DT.  Returns (nodes, u_profile, v_profile); a dict
    passed as counts receives ``Stepper.counts()`` of the iteration.
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
    for _, un, vn, _ in stepper.run(u, v, np.ceil(t_max / dt)):
        rate = max(float(np.max(np.abs(un - u))), float(np.max(np.abs(vn - v)))) / dt
        u, v = un, vn
        if rate < tol:
            if counts is not None:
                counts.update(stepper.counts())
            return nodes, u, v
    raise NumericalError(f"stationary profile did not settle below {tol} by t={t_max}")
