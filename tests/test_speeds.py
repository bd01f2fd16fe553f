"""Spreading-speed computation, bounds, search cost and the homogenized speed."""

import numpy as np
import pytest

from rdfronts import eigen, speeds
from rdfronts.coefficients import (
    CoefficientSpec,
    CoefficientSet,
    constant_set,
    homogenize,
    periodic_mean,
)
from rdfronts.eigen import principal_eigenpair, tilt_slope
from rdfronts.errors import PreconditionError
from rdfronts.speeds import (
    HomogenizedSet,
    golden_min,
    homogenized_speed,
    speed_bounds,
    spreading_speeds,
    tangency_search,
)
from helpers import mirror_set


def cosine_set(**overrides):
    c = CoefficientSpec.constant
    specs = dict(sigma=c(1.0), r_u=c(1.0), r_v=c(1.0), kappa_u=c(1.0),
                 kappa_v=c(1.0), mu_u=c(0.5), mu_v=c(0.5))
    specs.update(overrides)
    return CoefficientSet(period=1.0, **specs)


def test_golden_min_on_parabola():
    x, val = golden_min(lambda t: (t - 2.0) ** 2 + 3.0, 0.0, 5.0, tol=1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert val == pytest.approx(3.0, abs=1e-12)


# -- spreading speeds -----------------------------------------------------------

def test_homogeneous_speed_is_two():
    rep = spreading_speeds(constant_set(sigma=1, r_u=1, r_v=1, mu_u=0.5, mu_v=0.5))
    assert rep.c_right == pytest.approx(2.0, abs=1e-4)
    assert rep.c_left == pytest.approx(2.0, abs=1e-4)
    assert rep.argmin_lambda_right == pytest.approx(1.0, abs=1e-3)
    assert rep.argmin_lambda_left == pytest.approx(-1.0, abs=1e-3)
    assert rep.k_min == pytest.approx(1.0, abs=1e-6)   # attained at lambda = 0
    assert rep.hair_trigger is True


def test_homogeneous_speed_to_rounding_level():
    # k(lambda) = 1 + lambda^2 is resolved by the Richardson value of the
    # first levels; refining on towards the raw-gap target only adds noise
    rep = spreading_speeds(constant_set())
    assert abs(rep.c_right - 2.0) <= 1e-10
    assert abs(rep.c_left - 2.0) <= 1e-10
    solves = [res for results in rep.solves.values() for res in results]
    assert max(res.n_cells for res in solves) <= 512
    assert all(res.levels >= 2 for res in solves)


def test_speed_from_two_by_two_oracle():
    # lambda_A from the 2x2 eigenproblem, then c = 2 sqrt(sigma lambda_A)
    cs = constant_set(sigma=2.0, r_u=2.0, r_v=0.0, mu_u=1.0, mu_v=1.0)
    lam_A = float(np.max(np.linalg.eigvals(np.array([[1.0, 1.0], [1.0, -1.0]])).real))
    rep = spreading_speeds(cs)
    assert rep.c_right == pytest.approx(2.0 * np.sqrt(2.0 * lam_A), abs=1e-6)


def test_equal_mutation_speeds_coincide():
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.7), r_v=CoefficientSpec.constant(0.8))
    rep = spreading_speeds(cs)
    assert abs(rep.c_right - rep.c_left) < 1e-6


def test_speed_requires_positive_periodic_eigenvalue():
    cs = constant_set(r_u=-0.5, r_v=-0.5, mu_u=0.5, mu_v=0.5)
    with pytest.raises(PreconditionError):
        spreading_speeds(cs)


def test_speeds_within_analytic_bounds():
    cs = cosine_set(sigma=CoefficientSpec.cosine(1.5, 0.5),
                    r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                    r_v=CoefficientSpec.cosine(0.9, 0.3, 1.0))
    rep = spreading_speeds(cs)
    assert rep.bound_low - 1e-6 <= rep.c_right <= rep.bound_high + 1e-6
    assert rep.bound_low - 1e-6 <= rep.c_left <= rep.bound_high + 1e-6


def test_secant_step_next_to_an_evaluated_root_stays_in_the_bracket():
    # k'(0) of an even k is zero up to rounding.  The secant step taken from
    # the far point cancels to exactly 0.0, the open bracket's end, which
    # cost a bisection and a third k(lambda) solve; from the near point it
    # lands inside and the search stops after one more solve.
    f0, f1 = -1.3724940500583663e-18, 0.19995947908799433
    slope = (f1 - f0) / 0.1
    calls = []

    def f(x):
        calls.append(x)
        return slope * x + f0, x
    x, _ = speeds._increasing_root(f, 0.0, 0.1, 1e-6, at_x0=(f0, 0.0))
    assert len(calls) == 2 and 0.0 < x < 1e-15


def test_tangency_search_matches_dense_scan():
    # independent optimizer oracle: exhaustive lambda scan at step 1e-3 on a
    # fixed discretization, compared with the tangency search on the same
    # fixed-grid eigenvalue function and its exact fixed-grid slope; the
    # operators are tilts of one skeleton, bitwise build_operator's
    rng = np.random.default_rng(123)
    for trial in range(5):
        specs = {}
        for name, mean_rng in (("sigma", (0.6, 1.6)), ("r_u", (0.6, 1.4)),
                               ("r_v", (0.6, 1.4))):
            mean = rng.uniform(*mean_rng)
            amp = rng.uniform(0.0, 0.5) * mean
            specs[name] = CoefficientSpec.cosine(mean, amp, rng.uniform(0, 2 * np.pi))
        cs = cosine_set(**specs)
        skeleton = eigen._skeleton(cs, 96)
        warm = {"vec": None}

        def k_fixed(lam, slope=False):
            op = eigen._operator(skeleton, lam)
            res = principal_eigenpair(op, warm=warm["vec"])
            warm["vec"] = res.vector
            if slope:
                res.slope, _ = tilt_slope(op, res)
            return res

        lam_hi = 2.0 * np.sqrt(cs.r_max / cs.sigma_min) + 1.0
        lams = np.arange(1e-3, lam_hi, 1e-3)
        scan = np.array([k_fixed(lam).value / lam for lam in lams])
        c_scan = float(np.min(scan))
        warm["vec"] = None
        lam0 = np.sqrt(k_fixed(0.0).value / periodic_mean(cs.sigma))
        lam_star, res = tangency_search(lambda lam: k_fixed(lam, slope=True), lam0, 1e-6)
        assert res.value / lam_star == pytest.approx(c_scan, abs=1e-4), f"trial {trial}"


# Sigma, growth and mutation rates out of phase, with unequal mutation means,
# so that k(lambda) is not even and c_R != c_L.
ASYMMETRIC = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3, 0.4, harmonics=[(0.1, 2, 1.0)]),
                        r_u=CoefficientSpec.cosine(1.2, 0.6, 0.3),
                        r_v=CoefficientSpec.cosine(0.6, 0.3, 2.1),
                        mu_u=CoefficientSpec.cosine(0.6, 0.4, 2.0),
                        mu_v=CoefficientSpec.cosine(0.3, 0.2, 0.5))


def test_mirror_set_swaps_speeds():
    rep = spreading_speeds(ASYMMETRIC)
    mirrored = spreading_speeds(mirror_set(ASYMMETRIC))
    assert abs(rep.c_right - rep.c_left) > 1e-5       # the swap is visible
    assert mirrored.c_right == pytest.approx(rep.c_left, abs=1e-8)
    assert mirrored.c_left == pytest.approx(rep.c_right, abs=1e-8)
    assert mirrored.argmin_lambda_right == pytest.approx(-rep.argmin_lambda_left, abs=1e-6)
    assert mirrored.argmin_lambda_left == pytest.approx(-rep.argmin_lambda_right, abs=1e-6)
    assert mirrored.k_min == pytest.approx(rep.k_min, abs=1e-8)


# -- analytic bounds -------------------------------------------------------------

def test_bounds_constant_case_coincide():
    low, high = speed_bounds(constant_set(sigma=1, r_u=1, r_v=1))
    assert low == pytest.approx(2.0)
    assert high == pytest.approx(2.0)


def test_bounds_from_coefficient_ranges():
    cs = cosine_set(sigma=CoefficientSpec.cosine(2.5, 1.5),
                    r_u=CoefficientSpec.cosine(1.25, 0.75),
                    r_v=CoefficientSpec.cosine(1.25, 0.75))
    low, high = speed_bounds(cs)
    assert low == pytest.approx(np.sqrt(2.0), abs=1e-5)       # 2 sqrt(1 * 0.5)
    assert high == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-5)  # 2 sqrt(4 * 2)


def test_lower_bound_absent_for_sign_changing_growth():
    cs = cosine_set(r_u=CoefficientSpec.constant(-0.1))
    low, high = speed_bounds(cs)
    assert low is None
    assert np.isfinite(high)


# -- speed search cost -------------------------------------------------------------

def test_speed_search_makes_few_k_solves(monkeypatch):
    # README example set: k(0), then the right, left and k_min root searches
    cs = cosine_set(r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                    r_v=CoefficientSpec.cosine(1.0, 0.4, 1.1))
    solve, calls = eigen.k_of_lambda, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "k_of_lambda", counted)
    report = spreading_speeds(cs)
    assert len(calls) <= 25
    # the solves each search logged, in the order they were made; k(0) first,
    # under the right search, whose chain solved it
    logged = [res.lam for search in ("right", "left", "k_min")
              for res in report.solves[search]]
    assert calls == logged and logged[0] == 0.0
    assert "solves" not in report.to_dict()


# The coefficients of CI's asymmetric speed config: unequal, out-of-phase
# mutation rates, where the left and right Perron vectors differ.
CI_ASYMMETRIC = cosine_set(sigma=CoefficientSpec.cosine(1.0, 0.3, 0.4),
                           r_u=CoefficientSpec.cosine(1.0, 0.4, 0.3),
                           mu_u=CoefficientSpec.cosine(0.6, 0.4, 2.0),
                           mu_v=CoefficientSpec.constant(0.3))


def test_each_search_starts_from_the_last_solve_of_its_own_log(monkeypatch):
    # k(0) is cold; the right and left searches start from k(0)'s vector and
    # min k from the right search's last, and every later solve of a search
    # from the solve before it in that search
    solve, calls = eigen.k_of_lambda, []

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs["warm"], res))
        return res

    monkeypatch.setattr(eigen, "k_of_lambda", recorded)
    report = spreading_speeds(CI_ASYMMETRIC)
    assert report.c_right - report.c_left == pytest.approx(-3.8e-4, abs=0.5e-4)
    right, left, k_min = (report.solves[search] for search in ("right", "left", "k_min"))
    solved = right + left + k_min
    before = [None, *right[:-1], right[0], *left[:-1], right[-1], *k_min[:-1]]
    assert len(calls) == len(solved) == len(before) and len(left) > 1 and len(k_min) > 1
    for (warm, res), res_logged, previous in zip(calls, solved, before):
        assert res is res_logged
        assert warm is (None if previous is None else previous.vector)


# -- homogenized speed ---------------------------------------------------------------

def test_homogenized_speed_closed_form():
    h = HomogenizedSet(mean_r_u=1.0, mean_r_v=1.0, mean_kappa_u=1.0,
                       mean_kappa_v=1.0, mean_mu_u=0.5, mean_mu_v=0.5, sigma_H=1.6)
    assert homogenized_speed(h) == pytest.approx(2.0 * np.sqrt(1.6), abs=1e-12)


def test_homogenized_speed_of_constant_medium_matches_solver():
    cs = constant_set(sigma=1.3, r_u=0.9, r_v=0.9, mu_u=0.4, mu_v=0.4)
    h = homogenize(cs)
    rep = spreading_speeds(cs)
    assert homogenized_speed(h) == pytest.approx(rep.c_right, abs=1e-5)


def test_equal_mean_growth_rates_pin_lambda_A():
    # mean r_u = mean r_v = 1 forces lambda_A = 1 whatever the mu means are
    for mu_u, mu_v in ((0.1, 0.9), (0.5, 0.5), (2.0, 0.3)):
        h = HomogenizedSet(mean_r_u=1.0, mean_r_v=1.0, mean_kappa_u=1.0,
                           mean_kappa_v=1.0, mean_mu_u=mu_u, mean_mu_v=mu_v,
                           sigma_H=1.0)
        assert homogenized_speed(h) == pytest.approx(2.0, abs=1e-12)


def test_homogenized_speed_requires_persistence():
    h = HomogenizedSet(mean_r_u=-1.0, mean_r_v=-1.0, mean_kappa_u=1.0,
                       mean_kappa_v=1.0, mean_mu_u=0.5, mean_mu_v=0.5, sigma_H=1.0)
    with pytest.raises(PreconditionError):
        homogenized_speed(h)
