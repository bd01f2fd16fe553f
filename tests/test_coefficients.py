"""Coefficient specs: evaluation, transforms, homogenization, serialization."""

import json

import numpy as np
import pytest

from rdfronts.coefficients import (
    COEFFICIENT_NAMES,
    CoefficientSet,
    CoefficientSpec,
    homogenize,
    mirror,
    mirror_set,
    periodic_mean,
    rescale_epsilon,
    set_from_dict,
    spec_from_dict,
    spec_to_dict,
)
from rdfronts.errors import ValidationError


def set_dict(cs):
    """The JSON object of a set, as a config writes it: its period and its specs."""
    return {"period": cs.period,
            **{name: spec_to_dict(getattr(cs, name)) for name in COEFFICIENT_NAMES}}


def make_set(**overrides):
    c = CoefficientSpec.constant
    specs = dict(sigma=c(1.0), r_u=c(1.0), r_v=c(1.0), kappa_u=c(1.0),
                 kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))
    specs.update(overrides)
    return CoefficientSet(period=1.0, **specs)


ALL_KINDS = [
    CoefficientSpec.constant(2.0),
    CoefficientSpec.cosine(1.0, 0.5, 0.3, harmonics=[(0.2, 3, 1.1)]),
    CoefficientSpec.piecewise([0.0, 0.3, 0.7], [1.0, 2.0, 0.5]),
    CoefficientSpec.table([1.0, 2.0, 1.5, 0.7]),
]


# -- evaluation -----------------------------------------------------------------

def test_constant_evaluation():
    assert CoefficientSpec.constant(2.0)(17.3) == 2.0


def test_cosine_at_zero():
    assert CoefficientSpec.cosine(1.0, 0.5)(0.0) == pytest.approx(1.5, abs=1e-15)


def test_piecewise_periodic_lookup():
    spec = CoefficientSpec.piecewise([0.0, 0.5], [1.0, 4.0])
    assert spec(1.25) == 1.0
    assert spec(0.5) == 4.0          # left-closed pieces
    assert spec(-0.25) == 4.0


def test_table_linear_interpolation_wraps():
    spec = CoefficientSpec.table([1.0, 3.0])
    assert spec(0.25) == pytest.approx(2.0)
    assert spec(0.75) == pytest.approx(2.0)   # wraps back toward samples[0]


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_periodicity(spec):
    xs = np.linspace(-2.3, 3.1, 257)
    assert np.max(np.abs(spec(xs + spec.period) - spec(xs))) < 1e-12


def test_vectorized_matches_scalar():
    spec = CoefficientSpec.cosine(1.0, 0.4, 0.2)
    xs = np.array([0.1, 0.7, 2.3])
    assert spec(xs) == pytest.approx([spec(float(x)) for x in xs])


# -- validation -----------------------------------------------------------------

def test_empty_table_rejected():
    with pytest.raises(ValidationError):
        CoefficientSpec.table([])


def test_non_increasing_breakpoints_rejected():
    with pytest.raises(ValidationError):
        CoefficientSpec.piecewise([0.0, 0.5, 0.4], [1, 2, 3])


def test_breakpoints_must_start_at_zero():
    with pytest.raises(ValidationError):
        CoefficientSpec.piecewise([0.1, 0.5], [1, 2])


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        CoefficientSpec(kind="spline")


@pytest.mark.parametrize("multiple", [1.5, float("inf"), float("nan")])
def test_fractional_harmonic_rejected(multiple):
    with pytest.raises(ValidationError, match="positive integer multiple"):
        CoefficientSpec.cosine(1.0, 0.1, harmonics=[(0.1, multiple, 0.0)])
    with pytest.raises(ValidationError, match="positive integer multiple"):
        CoefficientSpec(kind="cosine", mean=1.0, harmonics=((0.1, multiple, 0.0),))


def test_negative_sigma_rejected():
    with pytest.raises(ValidationError):
        make_set(sigma=CoefficientSpec.constant(-1.0))


def test_sign_changing_kappa_rejected():
    with pytest.raises(ValidationError):
        make_set(kappa_u=CoefficientSpec.cosine(0.2, 0.5))


@pytest.mark.parametrize("name, spec", [
    ("sigma", CoefficientSpec.constant(float("nan"))),
    ("r_u", CoefficientSpec.constant(float("inf"))),
    ("r_v", CoefficientSpec.cosine(1.0, 0.5, float("nan"))),
    ("kappa_u", CoefficientSpec.piecewise([0.0, 0.5], [1.0, float("inf")])),
    ("mu_v", CoefficientSpec.table([0.5, float("nan")])),
])
def test_non_finite_coefficient_rejected(name, spec):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        make_set(**{name: spec})


def test_negative_growth_allowed():
    cs = make_set(r_u=CoefficientSpec.constant(-2.0))
    assert cs.r_min == -2.0


# -- derived scalars ------------------------------------------------------------

def test_probe_extrema():
    cs = make_set(sigma=CoefficientSpec.cosine(2.0, 1.0),
                  r_u=CoefficientSpec.cosine(1.0, 0.5),
                  r_v=CoefficientSpec.constant(0.2))
    assert cs.sigma_min == pytest.approx(1.0, abs=1e-6)
    assert cs.sigma_max == pytest.approx(3.0, abs=1e-6)
    assert cs.r_min == pytest.approx(0.2)
    assert cs.r_max == pytest.approx(1.5, abs=1e-6)
    assert cs.k_bar == pytest.approx(cs.r_max / cs.kappa_min)


# -- epsilon rescaling ------------------------------------------------------------

def test_rescale_identity():
    cs = make_set(r_u=CoefficientSpec.cosine(1.0, 0.5, 0.2))
    out = rescale_epsilon(cs, 1.0)
    xs = np.linspace(-1, 2, 101)
    assert out.r_u(xs) == pytest.approx(cs.r_u(xs))


def test_rescale_substitution():
    cs = make_set(r_u=CoefficientSpec.cosine(1.0, 0.5, 0.2))
    out = rescale_epsilon(cs, 0.5)
    assert out.period == 0.5
    assert out.r_u(0.25) == pytest.approx(cs.r_u(0.5), abs=1e-14)


def test_rescale_preserves_extrema():
    cs = make_set(sigma=CoefficientSpec.cosine(2.0, 1.0),
                  r_u=CoefficientSpec.piecewise([0.0, 0.5], [1.0, -0.5]))
    out = rescale_epsilon(cs, 0.1)
    assert out.sigma_min == pytest.approx(cs.sigma_min, abs=1e-9)
    assert out.sigma_max == pytest.approx(cs.sigma_max, abs=1e-9)
    assert out.r_min == pytest.approx(cs.r_min, abs=1e-9)


def test_rescale_invalid_eps():
    cs = make_set()
    with pytest.raises(ValidationError):
        rescale_epsilon(cs, 0.0)
    with pytest.raises(ValidationError):
        rescale_epsilon(cs, 1.5)


# -- homogenization ----------------------------------------------------------------

def test_homogenize_constants():
    h = homogenize(make_set())
    assert h.mean_r_u == pytest.approx(1.0, abs=1e-12)
    assert h.sigma_H == pytest.approx(1.0, abs=1e-12)


def test_two_value_harmonic_mean():
    cs = make_set(sigma=CoefficientSpec.piecewise([0.0, 0.5], [1.0, 4.0]))
    h = homogenize(cs)
    assert h.sigma_H == pytest.approx(1.6, abs=1e-12)
    # strict arithmetic-harmonic inequality for a non-constant sigma
    assert h.sigma_H < periodic_mean(cs.sigma) - 0.5


def test_cosine_mean_is_the_mean():
    cs = make_set(r_u=CoefficientSpec.cosine(1.0, 0.5))
    assert homogenize(cs).mean_r_u == pytest.approx(1.0, abs=1e-10)


def test_am_hm_equality_for_constants():
    h = homogenize(make_set(sigma=CoefficientSpec.constant(2.5)))
    assert h.sigma_H == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.2])
def test_homogenize_invariant_under_rescaling(eps):
    cs = make_set(sigma=CoefficientSpec.cosine(2.0, 0.8, 0.4),
                  r_u=CoefficientSpec.cosine(1.0, 0.5, 1.2))
    h0 = homogenize(cs)
    h1 = homogenize(rescale_epsilon(cs, eps))
    for key, val in h0.to_dict().items():
        assert h1.to_dict()[key] == pytest.approx(val, abs=1e-9), key


# -- mirroring ---------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_KINDS)
def test_mirror_reflects(spec):
    # offset grid avoids piecewise breakpoints, where the left-closed
    # convention moves the jump value to the other side
    xs = np.linspace(-1.5, 1.5, 211) + 1e-4
    assert mirror(spec)(xs) == pytest.approx(spec(-xs), abs=1e-12)


def test_mirror_set_roundtrip():
    cs = make_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.7))
    back = mirror_set(mirror_set(cs))
    xs = np.linspace(0, 1, 50)
    assert back.r_u(xs) == pytest.approx(cs.r_u(xs), abs=1e-14)


# -- JSON round trips ---------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_KINDS)
def test_spec_json_round_trip(spec):
    blob = json.dumps(spec_to_dict(spec))
    back = spec_from_dict(json.loads(blob))
    assert back == spec


def test_set_json_round_trip_binary_rationals():
    cs = make_set(sigma=CoefficientSpec.piecewise([0.0, 0.5], [1.25, 4.0]),
                  r_u=CoefficientSpec.cosine(1.5, 0.375, 0.0))
    back = set_from_dict(json.loads(json.dumps(set_dict(cs))))
    assert back.sigma == cs.sigma
    assert back.r_u == cs.r_u
    xs = np.linspace(0, 1, 33)
    assert back.r_u(xs) == pytest.approx(cs.r_u(xs), abs=0.0)


def test_set_from_dict_rejects_unknown_keys():
    d = set_dict(make_set())
    d["sigma_extra"] = 1.0
    with pytest.raises(ValidationError):
        set_from_dict(d)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "constant", "value": 1.0, "vaule": 2.0})


def test_spec_from_dict_rejects_missing_keys():
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "cosine", "mean": 1.0})
