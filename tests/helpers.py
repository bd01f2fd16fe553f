"""Oracles that only the tests use: the mirror image of a coefficient set,
a spec written back as its JSON object, and criterion 10's profile
morphology checks."""

from dataclasses import replace

import numpy as np

from rdfronts.coefficients import (COEFFICIENT_NAMES, _SPEC_SCHEMAS, CoefficientSet,
                                   CoefficientSpec)


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


def mirror_set(cs: CoefficientSet) -> CoefficientSet:
    """Reflect every coefficient about x=0."""
    return CoefficientSet(period=cs.period,
                          **{n: mirror(getattr(cs, n)) for n in COEFFICIENT_NAMES})


def _as_json(val):
    """Tuples, nested ones too, as the JSON lists they were read from."""
    return [_as_json(v) for v in val] if isinstance(val, tuple) else val


def spec_to_dict(spec: CoefficientSpec) -> dict:
    return {"kind": spec.kind, "period": spec.period,
            **{key: _as_json(getattr(spec, key)) for key in _SPEC_SCHEMAS[spec.kind][1]}}


# -- profile morphology -------------------------------------------------------

PLATEAU_MARGIN = 1.05        # a hump peaks this factor above the rear plateau
MONOTONE_SLACK = 0.01        # rise allowed per node, relative to the profile's maximum


def detect_hump(profile: np.ndarray, nodes: np.ndarray, x_front: float) -> bool:
    """True if the profile has an interior local maximum above its rear plateau.

    The rear plateau level is taken far behind the front (first fifth of the
    region behind it); a hump must be a strict interior local max exceeding
    that level by PLATEAU_MARGIN and lying ahead of the plateau zone.
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
    return bool(local_max and peak > PLATEAU_MARGIN * plateau)


def profile_is_monotone(profile: np.ndarray, nodes: np.ndarray, x_front: float) -> bool:
    """True if the profile is nonincreasing in x up to the front (small slack).

    slack is relative to the profile amplitude, absorbing grid-level wiggles.
    """
    region = nodes <= x_front
    p = profile[region]
    if len(p) < 2:
        return True
    slack = MONOTONE_SLACK * float(np.max(p))
    return bool(np.all(np.diff(p) <= slack))
