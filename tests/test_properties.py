"""Property tests on seeded random inputs: the comparison bound of the IMEX
stepper, the exact JSON round trip of coefficient specs, and the positive
Perron vector inside its Collatz-Wielandt bracket.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfronts.coefficients import CoefficientSet, CoefficientSpec, spec_from_dict, spec_to_dict
from rdfronts.eigen import GridSpec, build_operator, principal_eigenpair
from rdfronts.pde import BOUND_SLACK, DomainSpec, InitialData, Stepper, build_initial

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# -- comparison bound ---------------------------------------------------------

POSITIVE = ("sigma", "kappa_u", "kappa_v", "mu_u", "mu_v")


@st.composite
def coefficient_sets(draw):
    """Constant or cosine coefficients of period 1: the positive ones keep a
    mean in [0.2, 2] and an amplitude below 0.9 of it; r_u, r_v may change sign."""
    specs = {}
    for name in POSITIVE + ("r_u", "r_v"):
        lo = 0.2 if name in POSITIVE else -0.5
        mean = draw(st.floats(lo, 2.0))
        cap = 0.9 * mean if name in POSITIVE else 1.0
        amplitude = draw(st.one_of(st.just(0.0), st.floats(0.0, cap)))
        if amplitude == 0.0:
            specs[name] = CoefficientSpec.constant(mean)
        else:
            specs[name] = CoefficientSpec.cosine(mean, amplitude, draw(st.floats(0.0, 6.3)))
    return CoefficientSet(period=1.0, **specs)


@SETTINGS
@given(cs=coefficient_sets(),
       amplitude=st.floats(0.05, 4.0), center=st.floats(-10.0, 10.0),
       width=st.floats(0.5, 8.0), dt=st.floats(0.005, 0.2),
       boundary=st.sampled_from(["neumann", "dirichlet_zero"]))
def test_stepper_keeps_the_comparison_bound(cs, amplitude, center, width, dt, boundary):
    dom = DomainSpec(-20.0, 20.0, 256, boundary)
    nodes = dom.nodes()
    u, v = build_initial(InitialData("compact_bump", amplitude, center=center, width=width),
                         nodes)
    bound = max(cs.k_bar, float(np.max(u + v)))
    stepper = Stepper(cs, nodes, dom.h, boundary, dt, bound)
    masses = [mass for _, _, _, mass in stepper.run(u, v, 40)]
    assert len(masses) == 40
    assert max(masses) <= bound + BOUND_SLACK


# -- spec round trip ----------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
periods = st.floats(1e-3, 1e3)


@st.composite
def specs(draw):
    period = draw(periods)
    kind = draw(st.sampled_from(["constant", "cosine", "piecewise_constant", "table"]))
    if kind == "constant":
        return CoefficientSpec.constant(draw(finite), period=period)
    if kind == "cosine":
        harmonics = draw(st.lists(st.tuples(finite, st.integers(1, 50), finite), max_size=3))
        return CoefficientSpec.cosine(draw(finite), draw(finite), draw(finite),
                                      period=period, harmonics=harmonics)
    if kind == "piecewise_constant":
        inner = draw(st.lists(st.floats(0.0, period, exclude_min=True, exclude_max=True),
                              unique=True, max_size=5))
        breakpoints = [0.0] + sorted(inner)
        values = draw(st.lists(finite, min_size=len(breakpoints), max_size=len(breakpoints)))
        return CoefficientSpec.piecewise(breakpoints, values, period=period)
    return CoefficientSpec.table(draw(st.lists(finite, min_size=1, max_size=8)), period=period)


@SETTINGS
@given(spec=specs())
def test_spec_round_trips_exactly(spec):
    d = spec_to_dict(spec)
    assert spec_from_dict(d) == spec
    assert spec_from_dict(json.loads(json.dumps(d))) == spec


# -- Perron eigenpairs --------------------------------------------------------

def assert_perron_pair(op):
    """A positive eigenvector w, whose ratios Mw/w bracket k within twice the
    residual over min(w) (their Collatz-Wielandt bracket), and a k that the
    row sums, the ratios of the constant vector, bracket as well."""
    res = principal_eigenpair(op)
    w = res.eigenvector()
    assert np.min(w) > 0
    slack = (res.residual + res.rounding) / np.min(w)
    ratios = (op.matrix @ w) / w
    assert np.min(ratios) - slack <= res.value <= np.max(ratios) + slack
    assert np.max(ratios) - np.min(ratios) <= 2.0 * slack
    row_sums = op.matrix @ np.ones(op.dimension)
    assert np.min(row_sums) - slack <= res.value <= np.max(row_sums) + slack


cells = st.integers(16, 128)


@SETTINGS
@given(cs=coefficient_sets(), lam=st.floats(-3.0, 3.0), n=cells)
def test_tilted_perron_vector_is_positive_and_bracketed(cs, lam, n):
    assert_perron_pair(build_operator(cs, lam, GridSpec(n_cells=n), refine=False))


@SETTINGS
@given(cs=coefficient_sets(), half_width=st.floats(0.25, 8.0), n=cells)
def test_dirichlet_perron_vector_is_positive_and_bracketed(cs, half_width, n):
    assert_perron_pair(build_operator(cs, 0.0, GridSpec(n_cells=n), half_width=half_width))
