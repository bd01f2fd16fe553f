"""Nonlinear simulator: conservation structure, fronts, stationary profiles."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rdfronts import pde
from rdfronts.coefficients import (
    CoefficientSpec,
    CoefficientSet,
    constant_set,
    mirror_set,
    rescale_epsilon,
)
from rdfronts.errors import InvariantBreachError, ValidationError
from rdfronts.ode import HomParams, equilibrium
from rdfronts.pde import (
    DomainSpec,
    FrontTrace,
    InitialData,
    Stepper,
    build_initial,
    detect_hump,
    front_positions,
    measure_speed,
    profile_is_monotone,
    simulate,
    stationary_profile,
)
from rdfronts.stencil import coo_pattern, flux_parts, tilted_couplings

HOMOG = constant_set(sigma=1.0, r_u=1.0, r_v=1.0, mu_u=0.5, mu_v=0.5)


def cosine_set(**overrides):
    c = CoefficientSpec.constant
    specs = dict(sigma=c(1.0), r_u=c(1.0), r_v=c(1.0), kappa_u=c(1.0),
                 kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))
    specs.update(overrides)
    return CoefficientSet(period=1.0, **specs)


# -- domain and initial data -----------------------------------------------------

def test_domain_validation():
    with pytest.raises(ValidationError):
        DomainSpec(0.0, -1.0, 512)
    with pytest.raises(ValidationError):
        DomainSpec(0.0, 10.0, 100)
    with pytest.raises(ValidationError):
        DomainSpec(0.0, 10.0, 512, boundary="absorbing")


@pytest.mark.parametrize("x_min, x_max", [(float("nan"), 10.0), (0.0, float("nan")),
                                          (float("-inf"), 10.0), (0.0, float("inf"))])
def test_domain_rejects_non_finite_bounds(x_min, x_max):
    with pytest.raises(ValidationError, match="finite"):
        DomainSpec(x_min, x_max, 512)


def test_domain_must_cover_twenty_periods():
    dom = DomainSpec(0.0, 10.0, 512)     # only 10 periods
    init = InitialData(kind="constant_pair", amplitude=0.1)
    with pytest.raises(ValidationError):
        simulate(HOMOG, dom, init, T=1.0, dt=0.01, record_every=0.5)


def test_right_front_like_shape():
    init = InitialData(kind="right_front_like", amplitude=0.4, x_on=-3.0, x_off=1.0)
    nodes = np.linspace(-10, 10, 401)
    u, v = build_initial(init, nodes)
    plateau = nodes <= -3.0
    assert np.min(np.minimum(u, v)[plateau]) >= 0.4 - 1e-12
    assert np.all(u[nodes >= 1.0] == 0.0)
    assert np.all(v[nodes >= 1.0] == 0.0)


def test_compact_bump_support():
    init = InitialData(kind="compact_bump", amplitude=0.2, center=1.0, width=2.0)
    nodes = np.linspace(-10, 10, 801)
    u, _ = build_initial(init, nodes)
    assert np.all(u[np.abs(nodes - 1.0) >= 2.0] == 0.0)
    assert u.max() == pytest.approx(0.2, abs=1e-3)
    assert np.all(u >= 0.0)


def test_initial_data_validation():
    with pytest.raises(ValidationError):
        InitialData(kind="wavefront", amplitude=0.1)
    with pytest.raises(ValidationError):
        InitialData(kind="compact_bump", amplitude=-0.1)
    with pytest.raises(ValidationError):
        InitialData(kind="right_front_like", amplitude=0.1, x_on=1.0, x_off=0.0)


@pytest.mark.parametrize("field", ["amplitude", "x_on", "x_off", "center", "width"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_initial_data_rejects_non_finite_fields(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        InitialData(**{"kind": "compact_bump", "amplitude": 0.1, field: value})


# -- single step -------------------------------------------------------------------

def one_step(cs, u, v, dt, dom, bound):
    """(u, v, sup(u+v)) after one Stepper.run step on the domain's grid."""
    stepper = Stepper(cs, dom.nodes(), dom.h, dom.boundary, dt, bound)
    (_, u, v, mass), = stepper.run(u, v, 1)
    return u, v, mass


def test_zero_state_is_invariant():
    dom = DomainSpec(-20, 20, 256)
    u, v, mass = one_step(HOMOG, np.zeros(256), np.zeros(256), 0.01, dom, HOMOG.k_bar)
    assert np.all(u == 0.0) and np.all(v == 0.0) and mass == 0.0


def test_constant_equilibrium_is_stationary():
    us, vs = equilibrium(HomParams(1, 1, 1, 1, 1, 0.5, 0.5))
    dom = DomainSpec(-20, 20, 256)
    u, v, _ = one_step(HOMOG, np.full(256, us), np.full(256, vs), 0.01, dom,
                       max(HOMOG.k_bar, us + vs))
    assert np.max(np.abs(u - us)) < 1e-10
    assert np.max(np.abs(v - vs)) < 1e-10


def test_symmetric_reduction_matches_scalar_reference():
    # mu_u=mu_v, r_u=r_v, kappa_u=kappa_v with identical data: u stays equal
    # to v and each solves the one-species logistic equation; reference is an
    # independently coded scalar IMEX integrator on the same grid
    cs = constant_set(sigma=1.0, r_u=1.0, r_v=1.0, kappa_u=1.0, kappa_v=1.0,
                      mu_u=0.5, mu_v=0.5)
    dom = DomainSpec(-30, 30, 512)
    init = InitialData(kind="compact_bump", amplitude=0.3, center=0.0, width=3.0)
    dt, T = 0.01, 2.0

    res = simulate(cs, dom, init, T=T, dt=dt, record_every=1.0)
    assert np.max(np.abs(res.state.u - res.state.v)) < 1e-12

    # scalar reference: w_t = w_xx + (1 - 2 w) w, backward Euler diffusion
    n = 512
    h = dom.h
    w, _ = build_initial(init, dom.nodes())
    main = np.full(n, 1.0 + 2.0 * dt / h ** 2)
    main[0] = main[-1] = 1.0 + dt / h ** 2
    band = np.zeros((3, n))
    band[0, 1:] = -dt / h ** 2
    band[1, :] = main
    band[2, :-1] = -dt / h ** 2
    for _ in range(int(round(T / dt))):
        w = w + dt * (1.0 - 2.0 * w) * w
        w = scipy.linalg.solve_banded((1, 1), band, w)
        w = np.clip(w, 0.0, None)
    assert np.max(np.abs(res.state.u - w)) < 1e-8


def test_bound_breach_raises():
    # a stepper built with an inconsistent bound sees the data breach it
    dom = DomainSpec(-20, 20, 256)
    with pytest.raises(InvariantBreachError):
        one_step(HOMOG, np.full(256, 3.0), np.full(256, 3.0), 0.01, dom, 0.1)


def test_every_driver_checks_the_comparison_bound(monkeypatch):
    # with the slack pushed far below zero every step breaches the bound, so
    # each IMEX driver must raise on its first step
    monkeypatch.setattr(pde, "BOUND_SLACK", -1e6)
    dom = DomainSpec(-20, 20, 256)
    init = InitialData(kind="compact_bump", amplitude=0.3, center=0, width=3)
    with pytest.raises(InvariantBreachError):
        simulate(HOMOG, dom, init, T=1.0, dt=0.01, record_every=0.5)
    with pytest.raises(InvariantBreachError):
        stationary_profile(HOMOG, n_cells=64)


def test_nan_state_breaches_the_bound():
    dom = DomainSpec(-20, 20, 256)
    u = np.full(256, 0.1)
    u[100] = np.nan
    with pytest.raises(InvariantBreachError):
        one_step(HOMOG, u, np.full(256, 0.1), 0.01, dom, HOMOG.k_bar)


# -- the factored diffusion solve ---------------------------------------------------

SIGMAS = {
    "cosine": CoefficientSpec.cosine(1.0, 0.3, 0.7),
    "piecewise_constant": CoefficientSpec.piecewise([0.0, 0.3], [1.0, 0.4]),
}


def grid(boundary):
    """(nodes, h) of a 256-node line, or of a 200-cell periodic cell."""
    if boundary == "periodic":
        return np.arange(200) / 200.0, 1.0 / 200.0
    dom = DomainSpec(-10.0, 10.0, 256, boundary)
    return dom.nodes(), dom.h


def stepper_set(sigma):
    return cosine_set(sigma=SIGMAS[sigma], r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                      mu_v=CoefficientSpec.cosine(0.5, 0.2, 1.1))


def stencil_triplets(cs, nodes, h, boundary):
    """COO (rows, cols, data) of the untilted stencil, from its parts."""
    diag, up, down = flux_parts(cs, nodes, h, boundary)
    return (*coo_pattern(len(nodes), boundary),
            np.concatenate([diag, *tilted_couplings(up, down, h, 0.0)]))


class SpluStepper:
    """Reference IMEX loop: the reaction one species at a time, then both
    species solved against a SuperLU factor of I - dt_sub * D."""

    def __init__(self, cs, nodes, h, boundary, dt_sub, substeps):
        n = len(nodes)
        rows, cols, data = stencil_triplets(cs, nodes, h, boundary)
        flux = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        self.lu = spla.splu((sp.identity(n, format="csc") - dt_sub * flux).tocsc())
        self.coef = [f(nodes) for f in (cs.r_u, cs.r_v, cs.kappa_u, cs.kappa_v,
                                        cs.mu_u, cs.mu_v)]
        self.boundary, self.dt, self.substeps = boundary, dt_sub, substeps

    def step(self, u, v):
        ru, rv, ku, kv, mu, mv = self.coef
        for _ in range(self.substeps):
            s = u + v
            a = u + self.dt * ((ru - ku * s) * u + mv * v - mu * u)
            b = v + self.dt * ((rv - kv * s) * v + mu * u - mv * v)
            out = np.clip(self.lu.solve(np.column_stack([a, b])), 0.0, None)
            if self.boundary == "dirichlet_zero":
                out[[0, -1]] = 0.0
            u, v = out[:, 0], out[:, 1]
        return u, v


@pytest.mark.parametrize("sigma", sorted(SIGMAS))
@pytest.mark.parametrize("boundary", ["neumann", "dirichlet_zero", "periodic"])
def test_factored_solve_matches_dense_solve(boundary, sigma):
    cs = stepper_set(sigma)
    nodes, h = grid(boundary)
    n = len(nodes)
    stepper = Stepper(cs, nodes, h, boundary, 0.05, 1.0)
    rows, cols, data = stencil_triplets(cs, nodes, h, boundary)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), data)
    rhs = np.asfortranarray(np.random.default_rng(7).uniform(-1.0, 1.0, (n, 2)))
    expected = np.linalg.solve(np.eye(n) - stepper.dt_sub * dense, rhs)
    got = stepper.solve(rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dt", [0.01, 0.2])
@pytest.mark.parametrize("boundary", ["neumann", "dirichlet_zero", "periodic"])
def test_stepper_matches_splu_reference(boundary, dt):
    cs = stepper_set("cosine")
    nodes, h = grid(boundary)
    u, v = build_initial(InitialData("compact_bump", 1.2, center=nodes[len(nodes) // 2],
                                     width=0.3 * (nodes[-1] - nodes[0])), nodes)
    stepper = Stepper(cs, nodes, h, boundary, dt, max(cs.k_bar, float(np.max(u + v))))
    assert dt < 0.2 or stepper.substeps > 1
    reference = SpluStepper(cs, nodes, h, boundary, stepper.dt_sub, stepper.substeps)
    ru, rv = u, v
    for _, u, v, _ in stepper.run(u, v, 200):
        ru, rv = reference.step(ru, rv)
    assert max(np.max(np.abs(u - ru)), np.max(np.abs(v - rv))) <= 1e-12


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_stepper_hands_out_fresh_arrays(boundary):
    cs = stepper_set("cosine")
    nodes, h = grid(boundary)
    u, v = build_initial(InitialData("periodic_pair", 0.4), nodes)
    stepper = Stepper(cs, nodes, h, boundary, 0.05, cs.k_bar)
    steps = list(stepper.run(u, v, 3))
    for (_, u0, v0, _), (_, u1, v1, _) in zip(steps, steps[1:]):
        assert not any(np.shares_memory(a, b) for a in (u0, v0) for b in (u1, v1))
    w = np.asfortranarray(np.column_stack([u, v]))
    before = w.copy()
    out = stepper.advance(w)
    assert np.array_equal(w, before) and not np.shares_memory(out, w)
    assert stepper.counts() == {"steps": 3, "substeps": 3 * stepper.substeps,
                                "max_clip": 0.0}


# -- front measurement ----------------------------------------------------------------

def test_front_positions_thresholding():
    nodes = np.linspace(0, 10, 101)
    u = np.where(nodes <= 4.0, 1.0, 0.0)
    v = np.where(nodes <= 6.0, 1.0, 0.0)
    xr, xl = front_positions(u, v, nodes, 0.5)
    assert xr == 4.0 and xl == 0.0
    xr, xl = front_positions(u * 0, v, nodes, 0.5)
    assert np.isnan(xr) and np.isnan(xl)


def test_measure_speed_synthetic_line():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 50, 200)
    trace = FrontTrace(t=t, x_right=2.0 * t + 1e-6 * rng.standard_normal(200),
                       x_left=-1.5 * t, theta=0.01)
    m = measure_speed(trace)
    assert m.c_right == pytest.approx(2.0, abs=1e-4)
    assert m.c_left == pytest.approx(1.5, abs=1e-9)
    assert m.right_reliable and m.left_reliable


def test_measure_speed_stationary_trace():
    t = np.linspace(0, 50, 120)
    trace = FrontTrace(t=t, x_right=np.full(120, 5.0), x_left=np.full(120, -5.0),
                       theta=0.01)
    m = measure_speed(trace)
    assert m.c_right == pytest.approx(0.0, abs=1e-12)
    assert m.r_squared_right == 1.0


def test_measure_speed_insufficient_samples():
    t = np.linspace(0, 5, 10)
    trace = FrontTrace(t=t, x_right=2 * t, x_left=-2 * t, theta=0.01)
    m = measure_speed(trace)
    assert m.c_right is None and not m.right_reliable


# -- full simulations --------------------------------------------------------------------

def test_measured_speed_amplitude_independent():
    # linear determinacy: x10 amplitude change moves the speed by < 1%
    dom = DomainSpec(-40, 140, 2048)
    speeds = []
    for amp in (0.09, 0.9):
        init = InitialData(kind="right_front_like", amplitude=amp, x_on=-10, x_off=0)
        res = simulate(HOMOG, dom, init, T=45.0, dt=0.02, record_every=0.5)
        m = measure_speed(res.trace)
        assert m.right_reliable
        speeds.append(m.c_right)
    assert abs(speeds[1] - speeds[0]) / speeds[0] < 0.01


def test_measured_speed_grid_and_step_convergence():
    coarse = DomainSpec(-40, 120, 1024)
    fine = DomainSpec(-40, 120, 2048)
    init = InitialData(kind="right_front_like", amplitude=0.5, x_on=-10, x_off=0)
    cs = HOMOG
    m1 = measure_speed(simulate(cs, coarse, init, T=40.0, dt=0.02, record_every=0.5).trace)
    m2 = measure_speed(simulate(cs, fine, init, T=40.0, dt=0.01, record_every=0.5).trace)
    assert abs(m2.c_right - m1.c_right) / m2.c_right < 0.01


def test_mirrored_coefficients_swap_speeds():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.9),
                    mu_u=CoefficientSpec.constant(0.4),
                    mu_v=CoefficientSpec.constant(0.7))
    dom = DomainSpec(-30, 90, 1024)
    init = InitialData(kind="right_front_like", amplitude=0.5, x_on=-10, x_off=0)
    right = measure_speed(simulate(cs, dom, init, T=30.0, dt=0.02, record_every=0.5).trace)

    mdom = DomainSpec(-90, 30, 1024)
    minit = InitialData(kind="left_front_like", amplitude=0.5, x_on=0, x_off=10)
    mres = simulate(mirror_set(cs), mdom, minit, T=30.0, dt=0.02, record_every=0.5)
    left = measure_speed(mres.trace)
    assert right.right_reliable and left.left_reliable
    assert abs(left.c_left - right.c_right) < 1e-3


def test_decay_ahead_of_front():
    # in a frame moving 20% faster than the spreading speed the solution dies
    dom = DomainSpec(-40, 160, 2048)
    init = InitialData(kind="right_front_like", amplitude=0.5, x_on=-10, x_off=0)
    res = simulate(HOMOG, dom, init, T=50.0, dt=0.02, record_every=0.5,
                   snapshot_every=5.0)
    c_star = 2.0
    values = []
    for snap in res.snapshots:
        x_probe = 1.2 * c_star * snap.t
        if snap.t == 0.0 or x_probe >= dom.x_max:
            continue
        vals = np.interp(x_probe, res.nodes, np.maximum(snap.u, snap.v))
        values.append(float(vals))
    assert values[-1] < 1e-4
    assert values[-1] < values[0]


def test_interval_longer_than_the_run_samples_no_step():
    # every / dt overflows to inf here: the stride is one past the run
    # instead of an OverflowError, so only the final state is a snapshot
    assert pde._stride(1.7e308, 0.5, 2) == 3
    assert pde._stride(2.4, 1.0, 2) == 2 and pde._stride(2.6, 1.0, 2) == 3
    dom = DomainSpec(-20, 20, 256)
    init = InitialData(kind="compact_bump", amplitude=0.2, center=0, width=2)
    res = simulate(HOMOG, dom, init, T=1.0, dt=0.5, record_every=0.5, snapshot_every=1.7e308)
    assert [snap.t for snap in res.snapshots] == [1.0]
    with pytest.raises(ValidationError, match="record_every"):
        simulate(HOMOG, dom, init, T=1.0, dt=0.5, record_every=1.7e308)


def test_no_trust_warning_for_plateau_touching_the_boundary():
    # the left edge of right_front_like data sits at x_min from t = 0: that
    # front never was trusted, so it raises no warning
    dom = DomainSpec(-30, 30, 512)
    init = InitialData(kind="right_front_like", amplitude=0.5, x_on=-10, x_off=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = simulate(HOMOG, dom, init, T=1.0, dt=0.01, record_every=0.25)
    assert res.trace.x_left[0] == dom.x_min
    assert res.trusted_until_left == np.inf and res.trusted_until_right == np.inf
    assert not caught


def test_trust_warning_when_front_hits_margin():
    dom = DomainSpec(-30, 30, 512)
    init = InitialData(kind="compact_bump", amplitude=0.5, center=0, width=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = simulate(HOMOG, dom, init, T=16.0, dt=0.01, record_every=0.25)
    assert np.isfinite(res.trusted_until_right)
    assert any("untrusted" in str(w.message) for w in caught)


@pytest.mark.filterwarnings("ignore:.*front entered the outer")   # the bump reaches the margin
def test_boundedness_under_oversized_data():
    init = InitialData(kind="compact_bump", amplitude=10.0 * HOMOG.k_bar,
                       center=0, width=5)
    dom = DomainSpec(-40, 40, 1024)
    res = simulate(HOMOG, dom, init, T=20.0, dt=0.005, record_every=0.5)
    u0, v0 = build_initial(init, dom.nodes())
    cap = max(HOMOG.k_bar, float(np.max(u0 + v0)))
    assert res.state.mass_max <= cap + 1e-8
    assert float(np.max(res.state.u + res.state.v)) <= 1.02 * HOMOG.k_bar


# -- stationary profiles -------------------------------------------------------------------

def test_stationary_profile_matches_kinetic_equilibrium():
    us, vs = equilibrium(HomParams(1, 1, 1, 1, 1, 0.5, 0.5))
    nodes, up, vp = stationary_profile(HOMOG, n_cells=256, tol=1e-10)
    assert np.max(np.abs(up - us)) < 1e-6
    assert np.max(np.abs(vp - vs)) < 1e-6


def test_stationary_profile_is_cell_periodic():
    base = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                      r_v=CoefficientSpec.cosine(1.0, 0.4, 1.1))
    cse = rescale_epsilon(base, 0.25)
    nodes, up, vp = stationary_profile(cse, n_cells=512, tol=1e-10)
    # the profile lives on one cell; tiling it across a wider window must agree
    # with evaluating the coefficients' periodicity: shift by one full cell
    L = cse.period
    shifted = np.interp(np.mod(nodes + L, L), nodes, up, period=L)
    assert np.max(np.abs(shifted - up)) < 1e-8


def test_stationary_profile_approaches_homogenized_limit():
    base = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                      r_v=CoefficientSpec.cosine(1.0, 0.4, 1.1))
    us, vs = equilibrium(HomParams(1, 1, 1, 1, 1, 0.5, 0.5))
    dists = []
    for eps in (1.0, 0.125):
        nodes, up, vp = stationary_profile(rescale_epsilon(base, eps), n_cells=512)
        dists.append(max(float(np.max(np.abs(up - us))), float(np.max(np.abs(vp - vs)))))
    assert dists[1] < dists[0]


def test_periodic_pair_initial_data_positive():
    init = InitialData(kind="periodic_pair", amplitude=0.4)
    nodes = np.linspace(-10, 10, 513)
    u, v = build_initial(init, nodes, period=1.0)
    assert np.min(u) > 0 and np.min(v) > 0
    assert np.max(u) <= 0.4 + 1e-12


# -- morphology helpers -----------------------------------------------------------------------

def test_hump_detection_on_synthetic_profiles():
    nodes = np.linspace(0, 100, 1001)
    plateau = np.where(nodes < 80, 0.1, 0.0)
    assert not detect_hump(plateau, nodes, 80.0)
    humped = plateau + np.exp(-0.05 * (nodes - 70.0) ** 2)
    assert detect_hump(humped, nodes, 80.0)


def test_monotone_detection():
    nodes = np.linspace(0, 10, 101)
    falling = 1.0 / (1.0 + np.exp(nodes - 5.0))
    assert profile_is_monotone(falling, nodes, 9.0)
    assert not profile_is_monotone(falling + 0.5 * np.exp(-2 * (nodes - 5) ** 2), nodes, 9.0)
