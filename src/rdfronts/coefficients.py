"""Periodic coefficient sets for the two-species reaction-diffusion system.

A model instance is described by seven L-periodic functions: a diffusivity
sigma, two growth rates r_u, r_v, two competition intensities kappa_u,
kappa_v and two mutation rates mu_u, mu_v.  Each one is a small declarative
``CoefficientSpec`` (constant, cosine series, piecewise constant, or sampled
table) so that sets can be serialized, rescaled to a fast-oscillation period
and averaged exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .util import REQUIRED, list_of, number, read_object, string

KINDS = ("constant", "cosine", "piecewise_constant", "table")

PROBE_POINTS = 8192          # uniform probe grid per period for extrema
POSITIVITY_FLOOR = 1e-12


def _check_harmonics(harmonics) -> None:
    """Each harmonic must be an (amplitude, multiple, phase) triple whose
    multiple is a positive integer, which keeps the series L-periodic."""
    for trip in harmonics:
        try:
            ok = len(trip) == 3 and int(trip[1]) == trip[1] and trip[1] >= 1
        except (TypeError, ValueError, OverflowError):     # non-numeric, NaN, inf
            ok = False
        if not ok:
            raise ValidationError("each harmonic must be an (amplitude, positive "
                                  "integer multiple, phase) triple")


@dataclass(frozen=True)
class CoefficientSpec:
    """One L-periodic scalar coefficient.

    kind selects the parameter block that applies:
      constant            -- value
      cosine              -- mean + amplitude*cos(2 pi x/L + phase)
                             + sum_j a_j*cos(2 pi n_j x/L + p_j) for the
                             harmonics triples (a_j, n_j, p_j), n_j integer
      piecewise_constant  -- left-closed pieces [b_i, b_{i+1}) on [0, L)
      table               -- uniform samples over one period, periodic
                             linear interpolation
    """

    kind: str
    period: float = 1.0
    value: float = 0.0
    mean: float = 0.0
    amplitude: float = 0.0
    phase: float = 0.0
    harmonics: Tuple[Tuple[float, int, float], ...] = ()
    breakpoints: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()
    samples: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown coefficient kind {self.kind!r}")
        if not (self.period > 0) or not np.isfinite(self.period):
            raise ValidationError("coefficient period must be positive and finite")
        if self.kind == "cosine":
            _check_harmonics(self.harmonics)
        elif self.kind == "piecewise_constant":
            b, v = self.breakpoints, self.values
            if len(b) == 0 or len(b) != len(v):
                raise ValidationError("piecewise spec needs matching nonempty breakpoints and values")
            if b[0] != 0.0:
                raise ValidationError("first breakpoint must be 0")
            if any(b[i] >= b[i + 1] for i in range(len(b) - 1)) or b[-1] >= self.period:
                raise ValidationError("breakpoints must be strictly increasing within [0, period)")
        elif self.kind == "table":
            if len(self.samples) == 0:
                raise ValidationError("table spec needs at least one sample")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float, period: float = 1.0) -> "CoefficientSpec":
        return CoefficientSpec(kind="constant", period=period, value=float(value))

    @staticmethod
    def cosine(mean: float, amplitude: float, phase: float = 0.0, period: float = 1.0,
               harmonics: Sequence[Tuple[float, int, float]] = ()) -> "CoefficientSpec":
        _check_harmonics(harmonics)
        return CoefficientSpec(kind="cosine", period=period, mean=float(mean),
                               amplitude=float(amplitude), phase=float(phase),
                               harmonics=tuple((float(a), int(n), float(p)) for a, n, p in harmonics))

    @staticmethod
    def piecewise(breakpoints: Sequence[float], values: Sequence[float],
                  period: float = 1.0) -> "CoefficientSpec":
        return CoefficientSpec(kind="piecewise_constant", period=period,
                               breakpoints=tuple(float(b) for b in breakpoints),
                               values=tuple(float(v) for v in values))

    @staticmethod
    def table(samples: Sequence[float], period: float = 1.0) -> "CoefficientSpec":
        return CoefficientSpec(kind="table", period=period,
                               samples=tuple(float(s) for s in samples))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Periodic evaluation at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        L = self.period
        if self.kind == "constant":
            out = np.full_like(x, self.value, dtype=float)
        elif self.kind == "cosine":
            w = 2.0 * np.pi / L
            out = self.mean + self.amplitude * np.cos(w * x + self.phase)
            for a, n, p in self.harmonics:
                out = out + a * np.cos(w * n * x + p)
        elif self.kind == "piecewise_constant":
            y = np.mod(x, L)
            idx = np.searchsorted(np.asarray(self.breakpoints), y, side="right") - 1
            out = np.asarray(self.values, dtype=float)[idx]
        else:  # table
            m = len(self.samples)
            y = np.mod(x, L) / L * m
            i0 = np.floor(y).astype(int) % m
            frac = y - np.floor(y)
            s = np.asarray(self.samples, dtype=float)
            out = s[i0] * (1.0 - frac) + s[(i0 + 1) % m] * frac
        return float(out) if out.ndim == 0 else out


def mirror(spec: CoefficientSpec) -> CoefficientSpec:
    """The reflected coefficient x -> spec(-x), again L-periodic.

    Piecewise-constant specs stay left-closed, so values exactly at the
    breakpoints move to the other side of the jump (a measure-zero set).
    """
    if spec.kind == "constant":
        return spec
    if spec.kind == "cosine":
        return replace(spec, phase=-spec.phase,
                       harmonics=tuple((a, n, -p) for a, n, p in spec.harmonics))
    if spec.kind == "piecewise_constant":
        L = spec.period
        b, v = spec.breakpoints, spec.values
        # piece [b_i, b_{i+1}) maps to [L-b_{i+1}, L-b_i); re-anchor at 0
        new_b = [0.0] + [L - x for x in reversed(b[1:])]
        new_v = [v[-1]] + list(reversed(v[:-1]))
        return CoefficientSpec.piecewise(new_b, new_v, period=L)
    m = len(spec.samples)
    s = list(spec.samples)
    return replace(spec, samples=tuple(s[(-i) % m] for i in range(m)))


def rescale_spec(spec: CoefficientSpec, eps: float) -> CoefficientSpec:
    """The rescaled coefficient x -> spec(x/eps), with period eps*L."""
    if not (eps > 0):
        raise ValidationError("rescaling factor eps must be positive")
    new_period = eps * spec.period
    if spec.kind == "piecewise_constant":
        return replace(spec, period=new_period,
                       breakpoints=tuple(eps * b for b in spec.breakpoints))
    return replace(spec, period=new_period)


# -- coefficient sets -------------------------------------------------------

COEFFICIENT_NAMES = ("sigma", "r_u", "r_v", "kappa_u", "kappa_v", "mu_u", "mu_v")


@dataclass(frozen=True)
class CoefficientSet:
    """The seven L-periodic coefficients plus probe-grid extrema.

    Immutable after construction; derived scalars (sigma_min, r_max, ...)
    are computed once on a uniform probe grid and cached on the instance.
    """

    period: float
    sigma: CoefficientSpec
    r_u: CoefficientSpec
    r_v: CoefficientSpec
    kappa_u: CoefficientSpec
    kappa_v: CoefficientSpec
    mu_u: CoefficientSpec
    mu_v: CoefficientSpec
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)
    r_min: float = field(init=False)
    r_max: float = field(init=False)
    kappa_min: float = field(init=False)

    def __post_init__(self):
        if not (self.period > 0):
            raise ValidationError("period must be positive")
        for name in COEFFICIENT_NAMES:
            spec = getattr(self, name)
            if spec.period != self.period:
                raise ValidationError(f"{name} has period {spec.period}, set expects {self.period}")
        xs = np.arange(PROBE_POINTS) * (self.period / PROBE_POINTS)
        probes = {name: getattr(self, name)(xs) for name in COEFFICIENT_NAMES}
        for name, arr in probes.items():
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"coefficient {name} must be finite on its probe grid")
            if name not in ("r_u", "r_v") and np.min(arr) <= POSITIVITY_FLOOR:
                raise ValidationError(f"coefficient {name} must be strictly positive "
                                      f"(probe minimum {np.min(arr):.3e})")
        sig, ru, rv, ku, kv = (probes[n] for n in ("sigma", "r_u", "r_v", "kappa_u", "kappa_v"))
        object.__setattr__(self, "sigma_min", float(np.min(sig)))
        object.__setattr__(self, "sigma_max", float(np.max(sig)))
        object.__setattr__(self, "r_min", float(min(np.min(ru), np.min(rv))))
        object.__setattr__(self, "r_max", float(max(np.max(ru), np.max(rv))))
        object.__setattr__(self, "kappa_min", float(min(np.min(ku), np.min(kv))))

    @property
    def k_bar(self) -> float:
        """Carrying-capacity scale r_max / kappa_min bounding u+v in long time."""
        return self.r_max / self.kappa_min


def constant_set(sigma=1.0, r_u=1.0, r_v=1.0, kappa_u=1.0, kappa_v=1.0,
                 mu_u=0.5, mu_v=0.5, period=1.0) -> CoefficientSet:
    """Convenience builder for spatially homogeneous sets."""
    c = lambda v: CoefficientSpec.constant(v, period=period)
    return CoefficientSet(period=period, sigma=c(sigma), r_u=c(r_u), r_v=c(r_v),
                          kappa_u=c(kappa_u), kappa_v=c(kappa_v),
                          mu_u=c(mu_u), mu_v=c(mu_v))


def mirror_set(cs: CoefficientSet) -> CoefficientSet:
    """Reflect every coefficient about x=0."""
    return CoefficientSet(period=cs.period,
                          **{n: mirror(getattr(cs, n)) for n in COEFFICIENT_NAMES})


def rescale_epsilon(cs: CoefficientSet, eps: float) -> CoefficientSet:
    """Fast-oscillation rescaling: every coefficient becomes x -> f(x/eps).

    Expects a unit-period set; the result has period eps.
    """
    if not (0 < eps <= 1):
        raise ValidationError("eps must lie in (0, 1]")
    if abs(cs.period - 1.0) > 1e-12:
        raise ValidationError("rescale_epsilon expects a set with period 1")
    return CoefficientSet(period=eps * cs.period,
                          **{n: rescale_spec(getattr(cs, n), eps) for n in COEFFICIENT_NAMES})


# -- homogenization ---------------------------------------------------------

@dataclass(frozen=True)
class HomogenizedSet:
    """Period means of the reaction coefficients and the harmonic diffusivity mean."""

    mean_r_u: float
    mean_r_v: float
    mean_kappa_u: float
    mean_kappa_v: float
    mean_mu_u: float
    mean_mu_v: float
    sigma_H: float

    def to_dict(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


QUAD_START = 4096
QUAD_CAP = 2 ** 22
QUAD_RTOL = 1e-10


def _piecewise_mean(spec: CoefficientSpec, reciprocal: bool = False) -> float:
    b = list(spec.breakpoints) + [spec.period]
    total = 0.0
    for i, v in enumerate(spec.values):
        val = 1.0 / v if reciprocal else v
        total += val * (b[i + 1] - b[i])
    return total / spec.period


def periodic_mean(spec: CoefficientSpec, reciprocal: bool = False) -> float:
    """Mean of spec (or of 1/spec) over one period.

    Piecewise-constant specs integrate in closed form; smooth kinds use the
    composite trapezoid rule with node doubling until the relative change
    drops below 1e-10 (on a periodic grid the rule is spectrally accurate).
    """
    if spec.kind == "piecewise_constant":
        return _piecewise_mean(spec, reciprocal)
    L = spec.period
    n = QUAD_START
    if spec.kind == "table":
        m = len(spec.samples)
        n = m * max(1, -(-QUAD_START // m))  # multiple of the sample count: nodes hit every knot
    prev = None
    while n <= QUAD_CAP:
        xs = np.arange(n) * (L / n)
        vals = spec(xs)
        if reciprocal:
            vals = 1.0 / vals
        cur = float(np.mean(vals))
        if prev is not None:
            scale = max(abs(cur), abs(prev), 1e-300)
            if abs(cur - prev) <= QUAD_RTOL * scale:
                return cur
        prev = cur
        n *= 2
    raise NumericalError(f"periodic quadrature did not converge below rtol={QUAD_RTOL} "
                         f"by n={QUAD_CAP} nodes (last value {prev})")


def homogenize(cs: CoefficientSet) -> HomogenizedSet:
    """Arithmetic means of the reaction coefficients, harmonic mean of sigma."""
    means = {f"mean_{n}": periodic_mean(getattr(cs, n)) for n in COEFFICIENT_NAMES[1:]}
    return HomogenizedSet(sigma_H=1.0 / periodic_mean(cs.sigma, reciprocal=True), **means)


# -- JSON (de)serialization -------------------------------------------------
# Key names are part of the file-format contract: kind, period, value, mean,
# amplitude, phase, harmonics, breakpoints, values, samples; a set uses
# period plus the seven coefficient names.

_numbers = list_of(number)

# kind -> (constructor, schema of the keys besides kind and period)
_SPEC_SCHEMAS = {
    "constant": (CoefficientSpec.constant, {"value": (number, REQUIRED)}),
    "cosine": (CoefficientSpec.cosine, {"mean": (number, REQUIRED),
                                        "amplitude": (number, REQUIRED),
                                        "phase": (number, 0.0),
                                        "harmonics": (list_of(_numbers), ())}),
    "piecewise_constant": (CoefficientSpec.piecewise, {"breakpoints": (_numbers, REQUIRED),
                                                       "values": (_numbers, REQUIRED)}),
    "table": (CoefficientSpec.table, {"samples": (_numbers, REQUIRED)}),
}

# The specs are read once the set's period, their default period, is known.
_SET_SCHEMA = {"period": (number, 1.0),
               **{name: (lambda val, _: val, REQUIRED) for name in COEFFICIENT_NAMES}}


def _as_json(val):
    """Tuples, nested ones too, as the JSON lists they were read from."""
    return [_as_json(v) for v in val] if isinstance(val, tuple) else val


def spec_to_dict(spec: CoefficientSpec) -> dict:
    return {"kind": spec.kind, "period": spec.period,
            **{key: _as_json(getattr(spec, key)) for key in _SPEC_SCHEMAS[spec.kind][1]}}


def spec_from_dict(d: dict, period: float = 1.0,
                   context: str = "coefficient spec") -> CoefficientSpec:
    """The spec of a JSON object; its period defaults to `period`."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError(f"{context} must be an object with a 'kind' key")
    kind = string(d["kind"], f"{context}.kind")
    if kind not in _SPEC_SCHEMAS:
        raise ValidationError(f"unknown coefficient kind {kind!r} in {context}.kind")
    build, schema = _SPEC_SCHEMAS[kind]
    values = read_object(d, context, {"kind": (string, REQUIRED),
                                      "period": (number, period), **schema})
    del values["kind"]
    return build(**values)


def set_from_dict(d: dict) -> CoefficientSet:
    values = read_object(d, "coefficient set", _SET_SCHEMA)
    period = values.pop("period")
    return CoefficientSet(period=period, **{
        name: spec_from_dict(spec, period, f"coefficient set.{name}")
        for name, spec in values.items()})
