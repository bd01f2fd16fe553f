"""Property tests on seeded random inputs: the comparison bound of the IMEX
stepper, the exact JSON round trip of coefficient specs, the positive
Perron vector inside its Collatz-Wielandt bracket, the convex k(lambda)
inside its quadratic envelopes, and the speeds that mirroring swaps.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import dataclasses
import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdfronts.coefficients import CoefficientSet, CoefficientSpec, spec_from_dict
from rdfronts.eigen import (K_GRID_TOL, GridSpec, build_operator, k_curve, k_of_lambda,
                            principal_eigenpair)
from rdfronts.pde import BOUND_SLACK, DomainSpec, InitialData, Stepper, build_initial
from rdfronts.speeds import spreading_speeds
from helpers import mirror_set, spec_to_dict

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

def assert_perron_pair(matrix, res):
    """res holds a positive eigenvector w of the matrix M, whose ratios Mw/w
    bracket k within twice the residual over min(w) (their Collatz-Wielandt
    bracket), and a k that the row sums, the ratios of the constant vector,
    bracket as well.  A positive vector that is not an eigenvector, w
    perturbed by up to 5%, still has max(Mx/x) >= k: the Collatz-Wielandt
    upper bound."""
    w = res.eigenvector()
    assert np.min(w) > 0
    slack = (res.residual + res.rounding) / np.min(w)
    ratios = (matrix @ w) / w
    assert np.min(ratios) - slack <= res.value <= np.max(ratios) + slack
    assert np.max(ratios) - np.min(ratios) <= 2.0 * slack
    row_sums = matrix @ np.ones(len(w))
    assert np.min(row_sums) - slack <= res.value <= np.max(row_sums) + slack
    noisy = w * (1.0 + 0.05 * np.random.default_rng(7).random(len(w)))
    assert np.max((matrix @ noisy) / noisy) >= res.value - slack


cells = st.integers(16, 128)


@SETTINGS
@given(cs=coefficient_sets(), lam=st.floats(-3.0, 3.0), n=cells)
def test_tilted_perron_vector_is_positive_and_bracketed(cs, lam, n):
    op = build_operator(cs, lam, GridSpec(n_cells=n), refine=False)
    assert_perron_pair(op.matrix, principal_eigenpair(op))


@SETTINGS
@given(cs=coefficient_sets(), half_width=st.floats(0.25, 8.0), n=cells)
def test_dirichlet_perron_vector_is_positive_and_bracketed(cs, half_width, n):
    op = build_operator(cs, 0.0, GridSpec(n_cells=n), half_width=half_width)
    assert_perron_pair(op.matrix, principal_eigenpair(op))


# -- k(lambda) and mirror symmetry ----------------------------------------------

@st.composite
def k_sets(draw):
    """coefficient_sets, in half the draws with sigma a two-piece piecewise
    constant that jumps at a drawn position."""
    cs = draw(coefficient_sets())
    if draw(st.booleans()):
        jump = draw(st.floats(0.1, 0.9))
        values = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
        cs = dataclasses.replace(cs, sigma=CoefficientSpec.piecewise([0.0, jump], values))
    return cs


LAMBDAS = np.arange(-3.0, 3.01, 0.5)


@SETTINGS
@given(cs=k_sets())
def test_k_is_convex_inside_its_quadratic_envelopes(cs):
    # sigma_min lam^2 + r_min <= k(lam) <= sigma_max lam^2 + r_max; each k is
    # solved to K_GRID_TOL, and a constant set meets both envelopes exactly
    k = np.array([res.value for res in k_curve(cs, LAMBDAS, GridSpec(32))])
    assert np.all(k[2:] - 2.0 * k[1:-1] + k[:-2] >= -K_GRID_TOL)
    assert np.all(k >= cs.sigma_min * LAMBDAS ** 2 + cs.r_min - K_GRID_TOL)
    assert np.all(k <= cs.sigma_max * LAMBDAS ** 2 + cs.r_max + K_GRID_TOL)


@settings(SETTINGS, max_examples=30)
@given(cs=k_sets())
def test_mirror_set_swaps_the_spreading_speeds(cs):
    assume(k_of_lambda(cs, 0.0).value > 1e-2)      # the speeds need k(0) > 0
    speeds = spreading_speeds(cs, GridSpec(32))
    mirrored = spreading_speeds(mirror_set(cs), GridSpec(32))
    assert abs(mirrored.c_right - speeds.c_left) <= 1e-9
    assert abs(mirrored.c_left - speeds.c_right) <= 1e-9
