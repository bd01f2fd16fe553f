"""Closed-form kinetic analysis and the fixed-step integrator."""

from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rdfronts.errors import NumericalError, PreconditionError, ValidationError
from rdfronts.ode import (
    EQUILIBRIUM_RESIDUAL_TOL,
    SUM_CONDITION_CAP,
    HomParams,
    analyze,
    equilibrium,
    integrate,
    jacobian,
    lambda_A,
    lyapunov_K,
    lyapunov_value,
    rhs,
)

EPS = float(np.finfo(float).eps)
SYMMETRIC = HomParams(sigma=1, r_u=1, r_v=1, kappa_u=1, kappa_v=1, mu_u=0.25, mu_v=0.25)


def random_params(rng):
    return HomParams(sigma=rng.uniform(0.5, 2.0),
                     r_u=rng.uniform(-1.0, 2.0), r_v=rng.uniform(-1.0, 2.0),
                     kappa_u=rng.uniform(0.3, 2.0), kappa_v=rng.uniform(0.3, 2.0),
                     mu_u=rng.uniform(0.05, 1.5), mu_v=rng.uniform(0.05, 1.5))


@pytest.mark.parametrize("field", ["sigma", "r_u", "r_v", "kappa_u", "kappa_v",
                                   "mu_u", "mu_v"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hom_params_reject_non_finite_fields(field, value):
    fields = dict(sigma=1, r_u=1, r_v=1, kappa_u=1, kappa_v=1, mu_u=0.25, mu_v=0.25)
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        HomParams(**dict(fields, **{field: value}))


# -- lambda_A ---------------------------------------------------------------------

def test_lambda_A_equal_growth():
    assert lambda_A(HomParams(1, 0.7, 0.7, 1, 1, 0.3, 0.3)) == pytest.approx(0.7, abs=1e-14)


def test_lambda_A_characteristic_polynomial():
    # (r_u-mu_u, r_v-mu_v) = (0.5, -0.5), mu_u mu_v = 0.25
    p = HomParams(1, 1.0, 0.0, 1, 1, 0.5, 0.5)
    assert lambda_A(p) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_lambda_A_small_mutation_limit():
    p = HomParams(1, 1.0, -1.0, 1, 1, 1e-8, 1e-8)
    assert lambda_A(p) == pytest.approx(1.0, abs=1e-6)


def test_lambda_A_matches_dense_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_params(rng)
        A = np.array([[p.r_u - p.mu_u, p.mu_v], [p.mu_u, p.r_v - p.mu_v]])
        assert lambda_A(p) == pytest.approx(float(np.max(np.linalg.eigvals(A).real)),
                                            abs=1e-12)


def test_lambda_A_monotone_in_growth_rates():
    base = HomParams(1, 0.2, -0.3, 1, 1, 0.4, 0.6)
    for r_grid, mk in ((np.linspace(-1, 2, 13), lambda r: HomParams(1, r, -0.3, 1, 1, 0.4, 0.6)),
                       (np.linspace(-1, 2, 13), lambda r: HomParams(1, 0.2, r, 1, 1, 0.4, 0.6))):
        vals = [lambda_A(mk(r)) for r in r_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    assert lambda_A(HomParams(1, 0.0, 0.0, 1, 1, 0.4, 0.6)) == pytest.approx(0.0, abs=1e-14)


def test_lambda_A_mutation_scaling_limits():
    # fixed ratio mu_u = mu, mu_v = alpha mu: decreasing in mu, with the
    # max(r_u, r_v) limit at 0 and the weighted mean limit at infinity
    r_u, r_v, alpha = 1.0, -0.6, 2.0
    mus = np.logspace(-6, 6, 25)
    vals = [lambda_A(HomParams(1, r_u, r_v, 1, 1, m, alpha * m)) for m in mus]
    assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(max(r_u, r_v), abs=1e-4)
    weighted = (alpha * r_u + r_v) / (1.0 + alpha)   # mu_v r_u + mu_u r_v over the sum
    assert vals[-1] == pytest.approx(weighted, abs=1e-4)


# -- equilibrium --------------------------------------------------------------------

def test_symmetric_equilibrium():
    u, v = equilibrium(SYMMETRIC)
    assert (u, v) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_equilibrium_residual_is_tiny():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_params(rng)
        if lambda_A(p) <= 0:
            continue
        u, v = equilibrium(p)
        du, dv = rhs(p, u, v)
        assert max(abs(du), abs(dv)) < 1e-10
        assert u > 0 and v > 0


def test_equilibrium_box_bound_diffusive_branch():
    # r_u - mu_u <= 0 forces u* below mu_v / kappa_u
    p = HomParams(1, 0.2, 1.0, 1.0, 1.0, 0.5, 0.3)
    u, v = equilibrium(p)
    assert 0 < u < 0.3


def test_equilibrium_box_bound_growth_branch():
    # r_u - mu_u > 0: u* lies between min and max of (mu_v, r_u - mu_u)/kappa_u
    p = HomParams(1, 1.5, 0.8, 1.0, 1.0, 0.4, 0.3)
    u, v = equilibrium(p)
    lo = min(p.mu_v, p.r_u - p.mu_u) / p.kappa_u
    hi = max(p.mu_v, p.r_u - p.mu_u) / p.kappa_u
    assert lo <= u <= hi


def test_equilibrium_matches_long_time_integration():
    p = HomParams(1, 1.5, 0.5, 2.0, 1.0, 0.3, 0.4)
    u, v = equilibrium(p)
    traj = integrate(p, 0.1, 0.1, 200.0)
    assert traj.endpoint() == pytest.approx((u, v), abs=1e-8)


def test_equilibrium_requires_instability():
    with pytest.raises(PreconditionError):
        equilibrium(HomParams(1, -0.5, -0.5, 1, 1, 0.5, 0.5))


def numpy_closed_forms(p):
    """lambda_A and (u*, v*) by the same formulas, with np.sqrt's numpy
    scalars carried through the arithmetic after it."""
    a, d = p.r_u - p.mu_u, p.r_v - p.mu_v
    lam = 0.5 * (a + d + np.sqrt((a - d) ** 2 + 4.0 * p.mu_u * p.mu_v))
    Q = numpy_quotient(p)
    (v_terms, v_sum), (u_terms, u_sum) = species_sums(p, Q)
    S = v_sum / p.kappa_v
    if v_terms > SUM_CONDITION_CAP * abs(v_sum) and u_terms * abs(v_sum) < v_terms * abs(u_sum):
        S = u_sum / p.kappa_u
    return lam, (float(S * Q / (1.0 + Q)), float(S / (1.0 + Q)))


def numpy_quotient(p):
    """Q = u*/v*, the quadratic's positive root, on numpy scalars."""
    ratio = p.kappa_u / p.kappa_v
    disc = p.r_u - p.mu_u - ratio * (p.r_v - p.mu_v)
    root = np.sqrt(disc ** 2 + 4.0 * ratio * p.mu_u * p.mu_v)
    if disc < 0:
        return 2.0 * p.mu_v / (root - disc)
    return (p.kappa_v / (2.0 * p.mu_u * p.kappa_u)) * (disc + root)


def species_sums(p, Q):
    """(sum of |terms|, sum) of S kappa_v = r_v - mu_v + mu_u Q, from the v
    equation, and of S kappa_u = r_u - mu_u + mu_v / Q, from the u equation."""
    return ((abs(p.r_v - p.mu_v) + p.mu_u * Q, p.r_v + p.mu_u * Q - p.mu_v),
            (abs(p.r_u - p.mu_u) + p.mu_v / Q, p.r_u - p.mu_u + p.mu_v / Q))


def test_closed_forms_keep_the_bits_of_numpy_scalars():
    # the overflow checks take Python floats through the arithmetic; every
    # finite result keeps the bits of the formulas on numpy scalars, over
    # mutation rates and kappas spread across four decades
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(400):
        p = random_params(rng)
        p = replace(p, **{name: getattr(p, name) * 10.0 ** rng.uniform(-2, 2)
                          for name in ("kappa_u", "kappa_v", "mu_u", "mu_v")})
        lam, eq = numpy_closed_forms(p)
        assert lambda_A(p) == lam
        if lam > 0:
            assert equilibrium(p) == eq
            solved += 1
    assert solved > 200


def test_equilibrium_keeps_its_root_where_disc_is_negative():
    # disc < 0, with mutation rates and kappas spread over twelve decades,
    # where disc + sqrt(disc^2 + 4 ratio mu_u mu_v) would cancel.  The
    # conjugate form adds two positive terms, so Q = u*/v* moves with disc's
    # own rounding alone: d log Q / d disc = -1/sqrt(...) is at most 1/|disc|,
    # and disc carries about eps (|r_u - mu_u| + |ratio (r_v - mu_v)|).  Q
    # must match the 60-digit root of the same floats to 8 eps times that
    # over |disc|.
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(400):
        p = random_params(rng)
        p = replace(p, **{name: getattr(p, name) * 10.0 ** rng.uniform(-6, 6)
                          for name in ("kappa_u", "kappa_v", "mu_u", "mu_v")})
        ratio = p.kappa_u / p.kappa_v
        disc = p.r_u - p.mu_u - ratio * (p.r_v - p.mu_v)
        if not (lambda_A(p) > 0 and disc < 0):
            continue
        u, v = equilibrium(p)
        condition = (abs(p.r_u - p.mu_u) + abs(ratio * (p.r_v - p.mu_v))) / abs(disc)
        with localcontext() as digits:
            digits.prec = 60
            x = {name: Decimal(getattr(p, name)) for name in ("r_u", "r_v", "kappa_u",
                                                              "kappa_v", "mu_u", "mu_v")}
            x_ratio = x["kappa_u"] / x["kappa_v"]
            x_disc = x["r_u"] - x["mu_u"] - x_ratio * (x["r_v"] - x["mu_v"])
            q = 2 * x["mu_v"] / ((x_disc ** 2 + 4 * x_ratio * x["mu_u"] * x["mu_v"]).sqrt()
                                 - x_disc)
            assert abs(float(Decimal(u) / Decimal(v) / q - 1)) <= 8 * EPS * condition
        checked += 1
    assert checked > 100


def test_equilibrium_takes_S_from_the_better_conditioned_sum():
    # sets with lambda_A > 0 and kappas and mutation rates over twelve
    # decades whose S from the v equation alone fails the residual check:
    # there the v equation's sum cancels past SUM_CONDITION_CAP, and wherever
    # the u equation's sum is conditioned within the cap, the equilibrium
    # passes its own check.  Where both sums cancel past it, neither form is
    # claimed to pass.
    rng = np.random.default_rng(7)
    solved = []
    for _ in range(3000):
        r_u, r_v = rng.uniform(-1.0, 2.0, 2)
        kappa_u, kappa_v, mu_u, mu_v = 10.0 ** rng.uniform(-6.0, 6.0, 4)
        p = HomParams(1.0, r_u, r_v, kappa_u, kappa_v, mu_u, mu_v)
        if not lambda_A(p) > 0:
            continue
        Q = numpy_quotient(p)
        (v_terms, v_sum), (u_terms, u_sum) = species_sums(p, Q)
        S = v_sum / p.kappa_v                         # the v equation's form alone
        du, dv = rhs(p, S * Q / (1.0 + Q), S / (1.0 + Q))
        if max(abs(du), abs(dv)) < EQUILIBRIUM_RESIDUAL_TOL * max(1.0, S):
            continue
        assert v_terms > SUM_CONDITION_CAP * abs(v_sum)
        if u_terms <= SUM_CONDITION_CAP * abs(u_sum):
            solved.append(equilibrium(p))
    assert len(solved) > 100


def test_equilibrium_unique_under_multistart_newton():
    p = HomParams(1, 1.2, 0.6, 1.5, 0.8, 0.35, 0.6)
    u_star, v_star = equilibrium(p)
    rng = np.random.default_rng(3)
    k_bar = max(p.r_u, p.r_v) / min(p.kappa_u, p.kappa_v)
    found = []
    for _ in range(100):
        u, v = rng.uniform(1e-3, 2 * k_bar, size=2)
        for _ in range(200):
            f = np.array(rhs(p, u, v))
            a, b, c, d = jacobian(p, u, v)
            J = np.array([[a, b], [c, d]])
            try:
                delta = np.linalg.solve(J, -f)
            except np.linalg.LinAlgError:
                break
            step = 1.0
            norm0 = np.linalg.norm(f)
            while step > 1e-6:
                un, vn = u + step * delta[0], v + step * delta[1]
                if un > 0 and vn > 0 and np.linalg.norm(rhs(p, un, vn)) < norm0:
                    break
                step *= 0.5
            else:
                break
            u, v = u + step * delta[0], v + step * delta[1]
            if np.linalg.norm(rhs(p, u, v)) < 1e-12:
                found.append((u, v))
                break
    assert found, "Newton never converged"
    for u, v in found:
        assert (u, v) == pytest.approx((u_star, v_star), abs=1e-7)


def test_cooperative_zone_membership():
    # both species mutation-dominated: the equilibrium sits strictly inside
    # the cooperative zone kappa_u u < mu_v, kappa_v v < mu_u
    p = HomParams(1, 0.3, 0.2, 1.0, 1.0, 0.5, 0.4)
    assert lambda_A(p) > 0
    assert p.r_u - p.mu_u <= 0 and p.r_v - p.mu_v <= 0
    u, v = equilibrium(p)
    assert p.kappa_u * u < p.mu_v
    assert p.kappa_v * v < p.mu_u


# -- Jacobian certificate --------------------------------------------------------------

def test_jacobian_at_origin_is_coupling_matrix():
    p = HomParams(1, 1.1, 0.4, 1.3, 0.7, 0.2, 0.9)
    a, b, c, d = jacobian(p, 0.0, 0.0)
    assert (a, b, c, d) == (p.r_u - p.mu_u, p.mu_v, p.mu_u, p.r_v - p.mu_v)


def test_jacobian_diagonal_identity_at_equilibrium():
    # a = -(kappa_u u* + mu_v v*/u*) via the equilibrium relations
    u, v = equilibrium(SYMMETRIC)
    a, b, c, d = jacobian(SYMMETRIC, u, v)
    assert a == pytest.approx(-(SYMMETRIC.kappa_u * u + SYMMETRIC.mu_v * v / u), abs=1e-12)
    assert a == pytest.approx(-0.75, abs=1e-12)
    assert d == pytest.approx(-0.75, abs=1e-12)


def test_stability_certificate_random_sweep():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        if lambda_A(p) <= 1e-6:
            continue
        u, v = equilibrium(p)
        a, b, c, d = jacobian(p, u, v)
        assert a < 0 and d < 0
        assert a + d < 0
        assert a * d - b * c > 0
        checked += 1


# -- Lyapunov function ------------------------------------------------------------------

def test_lyapunov_weight_symmetric_example():
    # A=D=1, B=C=0.5: vertex K = (4-0.5)/0.5 = 7 with P(7) = 12 > 0
    K = lyapunov_K(SYMMETRIC)
    assert K == pytest.approx(7.0, abs=1e-10)
    P = -0.25 * K ** 2 + 3.5 * K - 0.25
    assert P == pytest.approx(12.0, abs=1e-9)


def test_lyapunov_bc_below_ad_in_doubly_supercritical_region():
    # both species net-growing: B and C are positive and below kappa, so the
    # certificate always exists there
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 50:
        p = random_params(rng)
        if min(p.r_u - p.mu_u, p.r_v - p.mu_v) <= 1e-3:
            continue
        u, v = equilibrium(p)
        B = p.kappa_u - p.mu_v / u
        C = p.kappa_v - p.mu_u / v
        assert B * C < p.kappa_u * p.kappa_v
        lyapunov_K(p)     # must not raise
        checked += 1


def test_lyapunov_certificate_gap_in_mixed_corner():
    # one species mutation-dominated while the other has 0 < r - mu < mu of
    # the first: here BC >= AD, the dissipation quadratic is never positive
    # and no quadratic-form weight exists, even though the orbit still
    # converges and the unweighted function still decreases empirically
    p = HomParams(1.0, 0.1, 0.6, 1.0, 1.0, 1.0, 0.1)
    assert lambda_A(p) > 0 and max(p.r_u - p.mu_u, p.r_v - p.mu_v) > 0
    u, v = equilibrium(p)
    B = p.kappa_u - p.mu_v / u
    C = p.kappa_v - p.mu_u / v
    assert B * C > p.kappa_u * p.kappa_v
    with pytest.raises(NumericalError):
        lyapunov_K(p)
    assert analyze(p).lyapunov_K is None
    traj = integrate(p, 2.0, 2.0, 120.0)
    assert traj.endpoint() == pytest.approx((u, v), abs=1e-8)
    F = (traj.u - u - u * np.log(traj.u / u)
         + (traj.v - v - v * np.log(traj.v / v)))
    assert np.all(np.diff(F) <= 1e-12)


def test_dissipation_quadratic_positive_on_samples():
    p = SYMMETRIC
    u, v = equilibrium(p)
    K = lyapunov_K(p)
    A, D = p.kappa_u, p.kappa_v
    B = p.kappa_u - p.mu_v / u
    C = p.kappa_v - p.mu_u / v
    rng = np.random.default_rng(29)
    U, V = rng.normal(size=(2, 10_000))
    Q = A * U ** 2 + (B + K * C) * U * V + K * D * V ** 2
    nonzero = (U != 0) | (V != 0)
    assert np.all(Q[nonzero] > 0)


def test_lyapunov_value_examples():
    assert lyapunov_value(0.5, 0.5, 0.5, 0.5, 7.0) == 0.0
    expected = 0.5 - 0.5 * np.log(2.0)
    assert lyapunov_value(1.0, 0.5, 0.5, 0.5, 3.0) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValidationError):
        lyapunov_value(0.0, 0.5, 0.5, 0.5, 1.0)


def test_lyapunov_decreases_along_trajectory():
    p = SYMMETRIC
    u_star, v_star = equilibrium(p)
    K = lyapunov_K(p)
    traj = integrate(p, 0.9, 0.1, 40.0, dt=1e-3)
    values = (traj.u - u_star - u_star * np.log(traj.u / u_star)
              + K * (traj.v - v_star - v_star * np.log(traj.v / v_star)))
    assert np.all(np.diff(values) <= 1e-12)


# -- integrator ---------------------------------------------------------------------------

def test_convergence_to_equilibrium():
    traj = integrate(SYMMETRIC, 0.1, 0.1, 200.0)
    assert traj.endpoint() == pytest.approx((0.5, 0.5), abs=1e-6)


def test_convergence_to_extinction():
    p = HomParams(1, -0.2, -0.2, 1, 1, 0.5, 0.5)
    traj = integrate(p, 0.3, 0.4, 100.0)
    u, v = traj.endpoint()
    assert max(u, v) < 1e-6


def test_neutral_case_norm_decreases():
    # r_u = r_v = 0 with equal mutation rates: the eigenvector at the origin
    # is (1,1), so max(u, v) is the cooperative comparison norm
    p = HomParams(1, 0.0, 0.0, 1, 1, 0.5, 0.5)
    traj = integrate(p, 0.3, 0.4, 50.0)
    norms = np.maximum(traj.u, traj.v)
    assert norms[-1] < norms[0]
    assert np.all(np.diff(norms) <= 1e-12)


def rk4_reference(p, u0, v0, n_steps, dt):
    """integrate's loop as first written: rhs called at each stage."""
    t, u, v = [0.0], [u0], [v0]
    clipped = False
    cu, cv = float(u0), float(v0)
    for i in range(1, n_steps + 1):
        k1u, k1v = rhs(p, cu, cv)
        k2u, k2v = rhs(p, cu + 0.5 * dt * k1u, cv + 0.5 * dt * k1v)
        k3u, k3v = rhs(p, cu + 0.5 * dt * k2u, cv + 0.5 * dt * k2v)
        k4u, k4v = rhs(p, cu + dt * k3u, cv + dt * k3v)
        cu += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        cv += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if cu < 0:
            clipped = clipped or cu < -1e-14
            cu = 0.0
        if cv < 0:
            clipped = clipped or cv < -1e-14
            cv = 0.0
        t.append(i * dt)
        u.append(cu)
        v.append(cv)
    return np.array(t), np.array(u), np.array(v), clipped


def first_fixed_point(u, v):
    """First step whose (u, v) has the bits of the row before it, else the
    number of steps."""
    bits = np.stack([u, v]).view(np.int64)
    same = np.flatnonzero(np.all(bits[:, 1:] == bits[:, :-1], axis=0))
    return int(same[0]) + 1 if len(same) else len(u) - 1


@pytest.mark.parametrize("p, u0, v0, dt, clips, settles", [
    (HomParams(1.0, 1.1, 0.9, 1.05, 0.95, 0.4, 0.6), 0.2, 0.3, 1e-3, False, False),
    # stiff competition from a large v0 at a coarse step undershoots u below
    # 0, then reaches a fixed point of the RK4 map (step 182)
    (HomParams(1, 1, 1, 5, 1, 0.01, 0.01), 0.5, 10.0, 0.2, True, True),
    # the first orbit at a coarser step settles (step 679) without clipping
    (HomParams(1.0, 1.1, 0.9, 1.05, 0.95, 0.4, 0.6), 0.2, 0.3, 0.05, False, True),
    # lambda_A < 0: the orbit decays and underflows to (0, 0) (step 850)
    (HomParams(1, -3.0, -2.0, 1, 1, 0.3, 0.3), 0.5, 0.5, 0.4, False, True),
    # -0.0 steps to 0.0, which has other bits, and only then to itself
    (HomParams(1, 1, 1, 1, 1, 0.5, 0.5), -0.0, 0.0, 0.01, False, True),
])
def test_integrate_is_bitwise_the_rhs_loop(p, u0, v0, dt, clips, settles):
    traj = integrate(p, u0, v0, 2000 * dt, dt)
    t, u, v, clipped = rk4_reference(p, u0, v0, 2000, dt)
    assert traj.clipped == clipped == clips
    for got, want in ((traj.t, t), (traj.u, u), (traj.v, v)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the loop stops at the first step that repeats its state bit for bit
    assert traj.computed_steps == first_fixed_point(u, v)
    assert (traj.computed_steps < 2000) == settles


def test_integrator_validation():
    with pytest.raises(ValidationError):
        integrate(SYMMETRIC, -0.1, 0.1, 1.0)
    with pytest.raises(ValidationError):
        integrate(SYMMETRIC, 0.1, 0.1, 1.0, dt=0.0)


def test_analyze_bundles_everything():
    out = analyze(SYMMETRIC)
    assert out.lambda_A == pytest.approx(1.0)
    assert out.equilibrium == pytest.approx((0.5, 0.5))
    assert out.lyapunov_K == pytest.approx(7.0)
    a, b, c, d = out.jacobian
    assert a < 0 and d < 0

    dead = analyze(HomParams(1, -1, -1, 1, 1, 0.5, 0.5))
    assert dead.equilibrium is None and dead.lyapunov_K is None
