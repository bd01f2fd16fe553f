"""Seeded job lists for the three benchmark workloads.

A job is one ``rdfronts`` subcommand with its JSON config.  Every value that
varies is drawn from ``numpy.random.default_rng(seed)``, so a seed fixes the
inputs; the program only ever sees the generated configs.  Parameter ranges
are kept narrow on purpose: the run-to-run spread of the end-to-end times
across seeds must stay well inside the benchmark's bounds, so seeds move
phases and amplitudes, not the size or the stiffness of the problem.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("speed", "dirichlet", "front")

# The README example; the traced run reproduces its solver counts exactly.
README_SET = {
    "period": 1.0,
    "sigma": {"kind": "constant", "value": 1.0},
    "r_u": {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 0.3},
    "r_v": {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 1.1},
    "kappa_u": {"kind": "constant", "value": 1.0},
    "kappa_v": {"kind": "constant", "value": 1.0},
    "mu_u": {"kind": "constant", "value": 0.5},
    "mu_v": {"kind": "constant", "value": 0.5},
}

# sigma = r = kappa = 1, mu = 1/2: lambda_A = 1, so c* = 2 exactly.
UNIT_SET = {
    "period": 1.0,
    "sigma": {"kind": "constant", "value": 1.0},
    "r_u": {"kind": "constant", "value": 1.0},
    "r_v": {"kind": "constant", "value": 1.0},
    "kappa_u": {"kind": "constant", "value": 1.0},
    "kappa_v": {"kind": "constant", "value": 1.0},
    "mu_u": {"kind": "constant", "value": 0.5},
    "mu_v": {"kind": "constant", "value": 0.5},
}

# Radii L..32L.  R = 64L alone costs about 30 s per set, while the 32L value
# is already within a few 1e-3 of min k.
DIRICHLET_RADII = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

FRONT_DOMAIN = {"x_min": -50.0, "x_max": 250.0, "n_points": 4096}
FRONT_INITIAL = {"kind": "right_front_like", "amplitude": 0.5,
                 "x_on": -10.0, "x_off": 0.0}


class _Draw:
    """Rounded draws, so configs are short and round-trip exactly."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return round(float(self.rng.uniform(lo, hi)), 4)

    def cosine(self, mean: float, amp_lo: float, amp_hi: float,
               harmonic: bool = False) -> dict:
        spec = {"kind": "cosine", "mean": mean, "amplitude": self.uniform(amp_lo, amp_hi),
                "phase": self.uniform(0.0, 2.0 * math.pi)}
        if harmonic:
            spec["harmonics"] = [[self.uniform(0.05, 0.1), 2,
                                  self.uniform(0.0, 2.0 * math.pi)]]
        return spec


# Seeds draw amplitudes and phases around fixed means.  The means of sigma
# and r set the spectral gaps, hence the Perron iteration counts, and would
# make the cost of a job vary by a third between seeds.
def _smooth_set(d: _Draw, harmonic: bool) -> dict:
    return dict(README_SET,
                sigma=d.cosine(1.0, 0.2, 0.3, harmonic),
                r_u=d.cosine(1.0, 0.3, 0.4, harmonic),
                r_v=d.cosine(1.0, 0.3, 0.4, harmonic))


def _piecewise_sigma_set(d: _Draw) -> dict:
    # sigma is fixed (a jump from 1 to 0.9 at x = 0.3, off the nodes of
    # the dyadic eigen grids) and only the growth rates are seeded: the
    # contrast and position of the jump set how far k(lambda) refines and
    # how long the resolvent iteration stalls, and would make the cost of
    # this one job vary twofold between seeds.
    return dict(README_SET,
                sigma={"kind": "piecewise_constant", "breakpoints": [0.0, 0.3],
                       "values": [1.0, 0.9]},
                r_u=d.cosine(1.0, 0.3, 0.4),
                r_v=d.cosine(1.0, 0.3, 0.4))


def _job(label: str, command: str, config: dict) -> dict:
    return {"label": label, "command": command, "config": dict(config, command=command)}


# A 17-point curve dump for the seeded sets: enough for the convexity,
# envelope and quotient checks, at a third of the cost of the default
# 61-point dump that the README job keeps.
SHORT_DUMP = {"lambda_min": -2.0, "lambda_max": 2.0, "lambda_step": 0.25}


def speed_jobs(d: _Draw) -> list:
    return [
        _job("readme", "speed", {"coefficients": README_SET}),
        _job("homogeneous", "speed", dict(SHORT_DUMP, coefficients=UNIT_SET)),
        _job("cosine_a", "speed", dict(SHORT_DUMP, coefficients=_smooth_set(d, True))),
        _job("cosine_b", "speed", dict(SHORT_DUMP, coefficients=_smooth_set(d, True))),
        _job("piecewise_sigma", "speed",
             dict(SHORT_DUMP, coefficients=_piecewise_sigma_set(d))),
    ]


def dirichlet_jobs(d: _Draw) -> list:
    return [_job(f"smooth_{i}", "dirichlet",
                 {"coefficients": _smooth_set(d, harmonic=False),
                  "radii": DIRICHLET_RADII})
            for i in range(2)]


def front_jobs(d: _Draw) -> list:
    periodic = _smooth_set(d, harmonic=False)
    ode_params = {name: d.uniform(lo, hi) for name, lo, hi in (
        ("r_u", 0.8, 1.2), ("r_v", 0.8, 1.2), ("kappa_u", 0.8, 1.2),
        ("kappa_v", 0.8, 1.2), ("mu_u", 0.3, 0.7), ("mu_v", 0.3, 0.7))}
    ode_params["sigma"] = 1.0
    simulate = {"domain": FRONT_DOMAIN, "initial": FRONT_INITIAL,
                "T": 100.0, "dt": 0.01, "record_every": 0.25, "snapshot_every": 5.0}
    return [
        _job("simulate_homogeneous", "simulate", dict(simulate, coefficients=UNIT_SET)),
        _job("simulate_periodic", "simulate", dict(simulate, coefficients=periodic)),
        _job("stationary_periodic", "stationary", {"coefficients": periodic}),
        _job("ode", "ode", {"params": ode_params,
                            "u0": d.uniform(0.05, 0.5), "v0": d.uniform(0.05, 0.5),
                            "T": 200.0, "dt": 1e-3}),
    ]


def generate(workload: str, seed: int) -> list:
    """The job list of one workload for one seed."""
    makers = {"speed": speed_jobs, "dirichlet": dirichlet_jobs, "front": front_jobs}
    return makers[workload](_Draw(seed))
