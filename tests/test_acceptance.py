"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Tolerances are pinned here exactly as stated; nothing is recalibrated at run
time.
"""

import numpy as np
import pytest

from rdfronts.coefficients import (
    CoefficientSpec,
    CoefficientSet,
    constant_set,
    homogenize,
    rescale_epsilon,
)
from rdfronts.eigen import (K_GRID_TOL, dirichlet_eigenvalue, dirichlet_sweep, k_curve,
                            k_of_lambda)
from rdfronts.ode import HomParams, equilibrium, integrate, jacobian, lambda_A, lyapunov_K
from rdfronts.pde import (
    STATIONARY_DT,
    DomainSpec,
    InitialData,
    Stepper,
    build_initial,
    front_positions,
    measure_speed,
    simulate,
    stationary_profile,
)
from rdfronts.speeds import homogenized_speed, spreading_speeds
from helpers import detect_hump, profile_is_monotone

# Criterion 9's fronts do reach the outer margin; that warning is expected there.
pytestmark = pytest.mark.filterwarnings("ignore:.*front entered the outer")

HOMOG = constant_set(sigma=1.0, r_u=1.0, r_v=1.0, kappa_u=1.0, kappa_v=1.0,
                     mu_u=0.5, mu_v=0.5)          # lambda_A = 1, c* = 2


def check(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid} failed: {detail}"


def cosine(mean, amp, phase=0.0):
    return CoefficientSpec.cosine(mean, amp, phase)


def build_set(**overrides):
    c = CoefficientSpec.constant
    specs = dict(sigma=c(1.0), r_u=c(1.0), r_v=c(1.0), kappa_u=c(1.0),
                 kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))
    specs.update(overrides)
    return CoefficientSet(period=1.0, **specs)


def test_criterion_1_homogeneous_speed_reproduction():
    report = spreading_speeds(HOMOG)
    err_r = abs(report.c_right - 2.0)
    err_l = abs(report.c_left - 2.0)
    check("1a", err_r <= 1e-4 and err_l <= 1e-4,
          f"eigen-based speeds {report.c_right:.6f}/{report.c_left:.6f}, "
          f"errors {err_r:.2e}/{err_l:.2e} vs tol 1e-4")

    domain = DomainSpec(-50.0, 250.0, 4096)
    init = InitialData(kind="right_front_like", amplitude=0.5, x_on=-10.0, x_off=0.0)
    result = simulate(HOMOG, domain, init, T=100.0, dt=0.01, record_every=0.25)
    measured = measure_speed(result.trace)
    rel = abs(measured.c_right - 2.0) / 2.0
    check("1b", measured.right_reliable and rel <= 0.05,
          f"measured front speed {measured.c_right:.4f}, relative error "
          f"{rel:.3%} vs tol 5%, r^2={measured.r_squared_right:.6f}")


def test_criterion_2_eigencurve_identity():
    worst = 0.0
    for lam in range(-3, 4):
        res = k_of_lambda(HOMOG, float(lam))
        worst = max(worst, abs(res.value - (lam * lam + 1.0)))
    check("2", worst <= 1e-7,
          f"max |k(lambda) - (sigma lambda^2 + lambda_A)| = {worst:.2e} vs tol 1e-7")


def test_criterion_3_quadratic_bounds_and_convexity():
    rng = np.random.default_rng(2024)
    lams = np.round(np.arange(-5.0, 5.001, 0.1), 10)
    worst_low = worst_high = np.inf
    worst_second = np.inf
    for _ in range(5):
        def perturbed(lo, hi):
            mean = rng.uniform(lo, hi)
            return cosine(mean, rng.uniform(0.0, 0.5) * mean, rng.uniform(0, 2 * np.pi))
        cs = build_set(sigma=perturbed(0.5, 2.0), r_u=perturbed(0.5, 1.5),
                       r_v=perturbed(0.5, 1.5), kappa_u=perturbed(0.5, 1.5),
                       kappa_v=perturbed(0.5, 1.5), mu_u=perturbed(0.2, 1.0),
                       mu_v=perturbed(0.2, 1.0))
        ks = np.array([r.value for r in k_curve(cs, lams, tol=1e-6)])
        low = cs.sigma_min * lams ** 2 + cs.r_min
        high = cs.sigma_max * lams ** 2 + cs.r_max
        worst_low = min(worst_low, float(np.min(ks - low)))
        worst_high = min(worst_high, float(np.min(high - ks)))
        second = ks[2:] - 2.0 * ks[1:-1] + ks[:-2]
        worst_second = min(worst_second, float(np.min(second)))
    ok = worst_low >= -1e-6 and worst_high >= -1e-6 and worst_second >= -1e-7
    check("3", ok,
          f"5 randomized sets on [-5,5]: min slack to lower bound {worst_low:.2e}, "
          f"to upper bound {worst_high:.2e}, min second difference {worst_second:.2e}")


def criterion_4_set():
    return build_set(sigma=cosine(1.0, 0.3, 0.4), r_u=cosine(1.0, 0.4, 0.7),
                     r_v=cosine(0.9, 0.3, 1.9),
                     mu_u=CoefficientSpec.constant(0.4),
                     mu_v=CoefficientSpec.constant(0.7))


def test_criterion_4_dirichlet_limit():
    cs = criterion_4_set()
    radii = [cs.period * 2 ** j for j in range(7)]   # L .. 64 L
    values = []
    warm = None
    for R in radii:
        res = dirichlet_eigenvalue(cs, R, warm=warm)
        warm = (res.phi, res.psi)
        values.append(res.value)
    increasing = all(b > a for a, b in zip(values, values[1:]))
    k_min = spreading_speeds(cs).k_min
    gap = abs(values[-1] - k_min)
    check("4", increasing and gap <= 1e-2,
          f"lambda_1^R strictly increasing over 7 doublings: {increasing}; "
          f"|lambda_1^(64L) - min k| = {gap:.2e} vs tol 1e-2")


def test_dirichlet_limit_closes_at_the_effective_mass_rate():
    # Near its minimum k(lambda* + i theta) = k_min - k'' theta^2 / 2
    # + k'''' theta^4 / 24 - ..., and the ground state on (-R, R) has
    # theta = pi / (2R), so
    #   g(R) = R^2 (k_min - lambda_1(R)) = C + a / R^2 + O(R^-4),
    #   C = pi^2 k''(lambda*) / 8,  a = -pi^4 k''''(lambda*) / 384
    # (exact, a = 0, for sigma u'' + r u).  The derivatives come from five
    # k(lambda) solves 0.1 apart, not from the Dirichlet values.  Each g(R)
    # must lie within twice the next term, 2 |a| / R^2 (the terms after it
    # are smaller by a further R^-2), plus R^2 times the grid tolerances of
    # lambda_1(R) and k_min.
    cs = criterion_4_set()
    tol_dirichlet, tol_k, step = 1e-9, 1e-10, 0.1
    lam_star = min(spreading_speeds(cs).solves["k_min"], key=lambda res: res.value).lam
    k = [k_of_lambda(cs, lam_star + j * step, tol=tol_k).value for j in (-2, -1, 0, 1, 2)]
    k2 = (-k[0] + 16.0 * k[1] - 30.0 * k[2] + 16.0 * k[3] - k[4]) / (12.0 * step ** 2)
    k4 = (k[0] - 4.0 * k[1] + 6.0 * k[2] - 4.0 * k[3] + k[4]) / step ** 4
    C, a, k_min = np.pi ** 2 * k2 / 8.0, -np.pi ** 4 * k4 / 384.0, k[2]
    radii = np.array([cs.period * 2.0 ** j for j in range(7)])      # L .. 64 L
    values = np.array([res.value for res in dirichlet_sweep(cs, radii, None, tol_dirichlet)])
    g = radii ** 2 * (k_min - values)
    bound = 2.0 * abs(a) / radii ** 2 + radii ** 2 * (tol_dirichlet + tol_k)
    check("4-rate", bool(np.all(np.abs(g - C) <= bound)),
          f"R^2 (k_min - lambda_1) - pi^2 k''/8 = {np.array2string(g - C, precision=2)} "
          f"for R = L .. 64 L, bounds {np.array2string(bound, precision=2)}; "
          f"pi^2 k''/8 = {C:.6f}, a = {a:.3e}")


def test_criterion_5_symmetry():
    cs = build_set(r_u=cosine(1.0, 0.4, 0.7))       # non-even r_u, mu_u = mu_v
    k_plus = k_of_lambda(cs, 1.0).value
    k_minus = k_of_lambda(cs, -1.0).value
    k_gap = abs(k_plus - k_minus)
    report = spreading_speeds(cs)
    c_gap = abs(report.c_right - report.c_left)
    check("5", k_gap < 1e-7 and c_gap < 1e-5,
          f"|k(1)-k(-1)| = {k_gap:.2e} vs 1e-7; |c_R - c_L| = {c_gap:.2e} vs 1e-5")


def test_criterion_6_ode_convergence_and_certificates():
    sym = HomParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.25, 0.25)
    traj = integrate(sym, 0.1, 0.1, 200.0)
    end_err = max(abs(traj.u[-1] - 0.5), abs(traj.v[-1] - 0.5))

    dead = HomParams(1.0, -0.2, -0.2, 1.0, 1.0, 0.5, 0.5)
    dead_traj = integrate(dead, 0.3, 0.4, 200.0)
    dead_err = max(dead_traj.u[-1], dead_traj.v[-1])

    u_star, v_star = equilibrium(sym)
    K = lyapunov_K(sym)
    mono_traj = integrate(sym, 0.9, 0.1, 60.0)
    F = (mono_traj.u - u_star - u_star * np.log(mono_traj.u / u_star)
         + K * (mono_traj.v - v_star - v_star * np.log(mono_traj.v / v_star)))
    lyapunov_ok = bool(np.all(np.diff(F) <= 1e-12))

    rng = np.random.default_rng(99)
    certified = 0
    jac_ok = True
    while certified < 100:
        p = HomParams(sigma=rng.uniform(0.5, 2.0),
                      r_u=rng.uniform(-1.0, 2.0), r_v=rng.uniform(-1.0, 2.0),
                      kappa_u=rng.uniform(0.3, 2.0), kappa_v=rng.uniform(0.3, 2.0),
                      mu_u=rng.uniform(0.05, 1.5), mu_v=rng.uniform(0.05, 1.5))
        if lambda_A(p) <= 1e-6:
            continue
        a, b, c, d = jacobian(p, *equilibrium(p))
        jac_ok = jac_ok and a < 0 and d < 0 and a + d < 0 and a * d - b * c > 0
        certified += 1

    ok = end_err <= 1e-6 and dead_err <= 1e-6 and lyapunov_ok and jac_ok
    check("6", ok,
          f"equilibrium error {end_err:.2e} vs 1e-6; extinction error {dead_err:.2e}; "
          f"Lyapunov nonincreasing: {lyapunov_ok}; 100-point Jacobian certificate: {jac_ok}")


def test_criterion_7_hair_trigger():
    domain = DomainSpec(-80.0, 80.0, 2048)
    bump = InitialData(kind="compact_bump", amplitude=1e-3, center=0.0, width=2.0)
    result = simulate(HOMOG, domain, bump, T=30.0, dt=0.01, record_every=0.5,
                      snapshot_every=0.5)
    center = int(np.argmin(np.abs(result.nodes)))
    late = [min(s.u[center], s.v[center]) for s in result.snapshots if s.t >= 22.5]
    persistent = all(val >= result.theta for val in late)

    dying = constant_set(sigma=1.0, r_u=-0.5, r_v=-0.5, mu_u=0.5, mu_v=0.5)
    dom2 = DomainSpec(-20.0, 20.0, 512)
    decay = simulate(dying, dom2, bump, T=20.0, dt=0.01, record_every=0.5)
    sup = float(np.max(np.maximum(decay.state.u, decay.state.v)))
    check("7", persistent and sup < 1e-6,
          f"min(u,v)(t,0) >= theta={result.theta:g} on the last quarter: {persistent}; "
          f"decaying-medium sup norm {sup:.2e} vs 1e-6")


def criterion_8_set():
    return build_set(r_u=cosine(1.0, 0.4, 0.3), r_v=cosine(1.0, 0.4, 1.1))


def test_criterion_8_homogenization_sweep():
    base = criterion_8_set()
    target = homogenized_speed(homogenize(base))
    hom = homogenize(base)
    p_hom = HomParams(hom.sigma_H, hom.mean_r_u, hom.mean_r_v, hom.mean_kappa_u,
                      hom.mean_kappa_v, hom.mean_mu_u, hom.mean_mu_v)
    u_star, v_star = equilibrium(p_hom)

    gaps, dists = [], []
    for eps in (1.0, 0.5, 0.25, 0.125):
        cse = rescale_epsilon(base, eps)
        gaps.append(abs(spreading_speeds(cse).c_right - target))
        _, up, vp = stationary_profile(cse, n_cells=512, tol=1e-9)
        dists.append(max(float(np.max(np.abs(up - u_star))),
                         float(np.max(np.abs(vp - v_star)))))
    gaps_dec = all(b < a for a, b in zip(gaps, gaps[1:]))
    dists_dec = all(b < a for a, b in zip(dists, dists[1:]))
    final_rel = gaps[-1] / target
    check("8", gaps_dec and dists_dec and final_rel < 0.03,
          f"speed gaps {['%.2e' % g for g in gaps]} strictly decreasing: {gaps_dec}, "
          f"final relative gap {final_rel:.2%} vs 3%; stationary-profile distances "
          f"{['%.2e' % d for d in dists]} decreasing: {dists_dec}")


def test_homogenization_gap_closes_at_the_two_scale_rate():
    # Criterion 8's set: sigma = 1, mu_u = mu_v = 1/2 and
    # r_i = 1 + a cos(2 pi x / eps + phi_i), so lambda_A = 1 and c_H = 2.  In
    # Fourier modes of the eps-cell the +-1 harmonics of the Perron vector are
    # O(eps^2) and the +-2 ones O(eps^4); eliminating them gives
    #   k_eps(lambda) = (1 - b eps^4) lambda^2 + 1 + A eps^2 + d eps^4 + O(eps^6),
    #   A = a^2 / (8 pi^2),  b = a^2 / (8 pi^4),
    #   d = a^2 (cos(phi_v - phi_u) - 1) / (64 pi^4);
    # the first-order corrector averages out, so no eps^3 term.  As
    # min k / lambda = 2 sqrt(S T) for k = S lambda^2 + T,
    #   g(eps) = c*(eps) - c_H = A eps^2 (1 + beta eps^2 + O(eps^4)),
    #   beta = (d - b - A^2 / 4) / A,
    # and the ratio of successive gaps is g(eps) / g(eps/2)
    # = 4 (1 + 3 beta eps^2 / 4 + O(eps^4)).  |ratio / 4 - 1| and
    # |g / (A eps^2) - 1| must stay within twice their next terms,
    # 3 |beta| eps^2 / 4 and |beta| eps^2 (the terms after carry a further
    # eps^2), plus what an error of K_GRID_TOL in each speed moves them by
    # (c* = k / lambda at lambda* = 1).  eps = 1 .. 1/16 keeps the smallest
    # gap, 8e-6, 80x above K_GRID_TOL.
    cs = criterion_8_set()
    a, dphi = cs.r_u.amplitude, cs.r_v.phase - cs.r_u.phase
    A, b = a ** 2 / (8 * np.pi ** 2), a ** 2 / (8 * np.pi ** 4)
    d = a ** 2 * (np.cos(dphi) - 1.0) / (64 * np.pi ** 4)
    beta = (d - b - A ** 2 / 4) / A
    eps = 2.0 ** -np.arange(5)
    gaps = np.array([spreading_speeds(rescale_epsilon(cs, e)).c_right
                     for e in eps]) - homogenized_speed(homogenize(cs))
    ratios = gaps[:-1] / gaps[1:]
    ratio_bound = 1.5 * abs(beta) * eps[:-1] ** 2 + K_GRID_TOL * (1 / gaps[:-1] + 1 / gaps[1:])
    gap_bound = 2.0 * abs(beta) * eps ** 2 + K_GRID_TOL / gaps
    check("8-rate", bool(np.all(np.abs(ratios / 4 - 1) <= ratio_bound)
                         and np.all(np.abs(gaps / (A * eps ** 2) - 1) <= gap_bound)),
          f"gap ratios {np.array2string(ratios, precision=4)} for eps = 1 .. 1/8, "
          f"|ratio / 4 - 1| bounds {np.array2string(ratio_bound, precision=2)}; "
          f"gap / (A eps^2) - 1 = {np.array2string(gaps / (A * eps ** 2) - 1, precision=2)}, "
          f"bounds {np.array2string(gap_bound, precision=2)}; A = {A:.4e}, beta = {beta:.4f}")


def test_stationary_profile_is_reached_from_other_starts():
    # Uniqueness of the positive periodic stationary pair: on criterion 8's
    # cell at eps = 1 and 1/8, Stepper.run from three other starts (the sine
    # with the cell's period) settles onto stationary_profile's result.  Each
    # run steps as stationary_profile does (dt = STATIONARY_DT, 512 cells)
    # and stops by its rule: the step
    # d_n = max(|u_n - u_n-1|, |v_n - v_n-1|) below tol dt.  Near a stable
    # fixed point the steps shrink by the contraction q of the IMEX map, so
    # the rest of the run moves the state by at most
    # d_n (q + q^2 + ...) = d_n q / (1 - q) < tol dt q / (1 - q).  That holds
    # for the reference and for each run, and both settle at the same fixed
    # point, whose linearization gives both the same q, so their distance is
    # at most 2 tol dt q / (1 - q).  q is the run's own measure: the largest
    # ratio d_k / d_k-1 over its last 10 steps.  Settling onto another fixed
    # point would leave an O(1) distance.
    tol, n_cells = 1e-9, 512
    for eps in (1.0, 0.125):
        cs = rescale_epsilon(criterion_8_set(), eps)
        nodes, u_ref, v_ref = stationary_profile(cs, n_cells=n_cells, tol=tol)
        ones = np.ones(n_cells)
        starts = {"u = v = 1e-3": (1e-3 * ones, 1e-3 * ones),
                  "(3 K_bar, 0.1)": (3.0 * cs.k_bar * ones, 0.1 * ones),
                  "u = 0.5 + 0.4 sin, v = 1e-6":
                      (0.5 + 0.4 * np.sin(2.0 * np.pi * nodes / cs.period), 1e-6 * ones)}
        for name, (u, v) in starts.items():
            stepper = Stepper(cs, nodes, cs.period / n_cells, "periodic", STATIONARY_DT,
                              max(cs.k_bar, float(np.max(u + v))))
            steps = []
            for _, un, vn, _ in stepper.run(u, v, np.ceil(4000.0 / STATIONARY_DT)):
                steps.append(max(float(np.max(np.abs(un - u))), float(np.max(np.abs(vn - v)))))
                u, v = un, vn
                if steps[-1] / STATIONARY_DT < tol:
                    break
            assert steps[-1] / STATIONARY_DT < tol, f"eps={eps}, {name}: did not settle"
            q = max(b / a for a, b in zip(steps[-11:-1], steps[-10:]))
            bound = 2.0 * tol * STATIONARY_DT * q / (1.0 - q)
            distance = max(float(np.max(np.abs(u - u_ref))), float(np.max(np.abs(v - v_ref))))
            check("8-unique", q < 1.0 and distance <= bound,
                  f"eps={eps}, start {name}: {len(steps)} steps, contraction {q:.5f}, "
                  f"distance {distance:.3e} to stationary_profile vs bound {bound:.3e}")


def test_criterion_9_boundedness_invariant():
    init = InitialData(kind="compact_bump", amplitude=10.0 * HOMOG.k_bar,
                       center=0.0, width=5.0)
    domain = DomainSpec(-40.0, 40.0, 1024)
    u0, v0 = build_initial(init, domain.nodes())
    cap = max(HOMOG.k_bar, float(np.max(u0 + v0)))
    result = simulate(HOMOG, domain, init, T=20.0, dt=0.005, record_every=0.5)
    final_sup = float(np.max(result.state.u + result.state.v))
    ok = result.state.mass_max <= cap + 1e-8 and final_sup <= 1.02 * HOMOG.k_bar
    check("9", ok,
          f"running sup {result.state.mass_max:.6f} vs cap {cap:g}+1e-8; "
          f"final sup {final_sup:.6f} vs 1.02 K_bar = {1.02 * HOMOG.k_bar:g}")


def test_criterion_10_profile_morphology():
    domain = DomainSpec(-50.0, 150.0, 2048)

    def late_profiles(mu):
        cs = constant_set(sigma=1.0, r_u=1.0, r_v=1.0, kappa_u=1.0, kappa_v=3.0,
                          mu_u=mu, mu_v=mu)
        u_star, v_star = equilibrium(HomParams(1.0, 1.0, 1.0, 1.0, 3.0, mu, mu))
        init = InitialData(kind="right_front_like", amplitude=0.4 * cs.k_bar,
                           x_on=-10.0, x_off=0.0)
        res = simulate(cs, domain, init, T=42.0, dt=0.02, record_every=1.0,
                       theta=0.3 * min(u_star, v_star))
        x_front, _ = front_positions(res.state.u, res.state.v, res.nodes, res.theta)
        return res, x_front

    big, x_big = late_profiles(1.5)
    mono_u = profile_is_monotone(big.state.u, big.nodes, x_big)
    mono_v = profile_is_monotone(big.state.v, big.nodes, x_big)
    no_hump = not detect_hump(big.state.v, big.nodes, x_big)

    small, x_small = late_profiles(0.01)
    hump = detect_hump(small.state.v, small.nodes, x_small)

    ok = mono_u and mono_v and no_hump and hump
    check("10", ok,
          f"large-mutation fronts monotone (u: {mono_u}, v: {mono_v}, no hump: "
          f"{no_hump}); small-mutation v-profile shows a hump: {hump}")
