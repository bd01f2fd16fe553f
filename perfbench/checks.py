"""Output checks, one list of named results per job.

Each check reads the artifacts a job wrote and compares them with theory or
with a reference computed here, outside the timed passes.  References are
computed once per run and reused for every pass, since the same seed gives
the same configs.  A job fails when any of its checks fails.

KNOWN_FAILURES names the checks that fail on the code this benchmark was
written against, with the reason.  They are still run and still count as
failed jobs; they are listed so that a run is only reported incorrect when
some other check fails.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.sparse.linalg as spla

KNOWN_FAILURES = {
    ("speed", "piecewise_sigma", "fixed_grid_k_right"):
        "k(lambda) refinement stops at its rounding-noise test at 256-512 cells on a "
        "discontinuous sigma, 1e-4 to 1e-3 away from the 8192-cell value",
    ("speed", "piecewise_sigma", "fixed_grid_k_left"):
        "same early stop as fixed_grid_k_right, mirrored",
}

FIXED_GRID_CELLS = 8192


def _read_csv(path: str) -> dict:
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    cols = list(zip(*reader))
    return {name: np.array([float(v) for v in col]) for name, col in zip(header, cols)}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class References:
    """Untimed reference values, memoized for the life of one run."""

    def __init__(self):
        from rdfronts import coefficients, eigen, ode, pde, speeds
        self.co, self.eigen, self.ode, self.pde, self.speeds = (
            coefficients, eigen, ode, pde, speeds)
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @staticmethod
    def _set_key(config: dict) -> str:
        return json.dumps(config["coefficients"], sort_keys=True)

    def coefficient_set(self, config: dict):
        return self._cached(("set", self._set_key(config)),
                            lambda: self.co.set_from_dict(config["coefficients"]))

    def fixed_grid_k(self, config: dict, lam: float) -> float:
        """k(lambda) on a fixed 8192-cell grid, no refinement.

        Solved by shift-invert Arnoldi, independently of the package's
        Perron iteration.  The shift is the largest row sum of the Metzler
        operator, which bounds its Perron root k from above; for any real
        shift at or above k, k is the unique eigenvalue nearest the shift.
        """
        cs = self.coefficient_set(config)

        def solve():
            op = self.eigen.build_operator(cs, lam, self.eigen.GridSpec(FIXED_GRID_CELLS),
                                           refine=False)
            m = op.matrix.tocsc()
            shift = float(m.sum(axis=1).max()) + 1e-3
            value = spla.eigs(m, k=1, sigma=shift, which="LM",
                              return_eigenvectors=False)[0]
            return float(value.real)
        return self._cached(("k", self._set_key(config), lam), solve)

    def k_min(self, config: dict) -> float:
        """min over lambda of k, by golden section on the convex curve."""
        cs = self.coefficient_set(config)

        def solve():
            lam_hi = 2.0 * math.sqrt(max(cs.r_max - cs.r_min, 1.0) / cs.sigma_min) + 1.0
            k = lambda lam: self.eigen.k_of_lambda(cs, lam).value
            return self.speeds.golden_min(k, -lam_hi, lam_hi, 1e-5)[1]
        return self._cached(("kmin", self._set_key(config)), solve)

    def homogeneous_speed(self, config: dict) -> float:
        """2 sqrt(sigma lambda_A) for a set of constants."""
        c = {name: spec["value"] for name, spec in config["coefficients"].items()
             if isinstance(spec, dict)}
        p = self.ode.HomParams(**c)
        return 2.0 * math.sqrt(c["sigma"] * self.ode.lambda_A(p))

    def speed_envelope(self, config: dict) -> tuple:
        low, high = self.speeds.speed_bounds(self.coefficient_set(config))
        return (0.0 if low is None else low), high

    def initial_sup(self, config: dict) -> float:
        d = config["domain"]
        dom = self.pde.DomainSpec(d["x_min"], d["x_max"], d["n_points"])
        u0, v0 = self.pde.build_initial(self.pde.InitialData(**config["initial"]),
                                        dom.nodes())
        return float(np.max(u0 + v0))

    def equilibrium(self, config: dict) -> tuple:
        return self.ode.equilibrium(self.ode.HomParams(**config["params"]))


def _check_speed(job: dict, ref: References) -> list:
    cfg, out = job["config"], job["out"]
    report = _read_json(f"{out}_speed.json")
    curve = _read_csv(f"{out}_kcurve.csv")
    cs = ref.coefficient_set(cfg)
    low, high = ref.speed_envelope(cfg)
    c_r, c_l = report["c_right"], report["c_left"]
    lam, k = curve["lambda"], curve["k"]
    second = k[2:] - 2.0 * k[1:-1] + k[:-2]
    env_low = k - (cs.sigma_min * lam ** 2 + cs.r_min)
    env_high = (cs.sigma_max * lam ** 2 + cs.r_max) - k
    pos, neg = lam > 0, lam < 0
    best_r = float(np.min(k[pos] / lam[pos]))
    best_l = float(np.min(k[neg] / -lam[neg]))
    checks = [
        ("speeds_in_envelope",
         low - 1e-6 <= min(c_r, c_l) and max(c_r, c_l) <= high + 1e-6,
         f"c_R={c_r:.9f} c_L={c_l:.9f} in [{low:.9f}, {high:.9f}] +/- 1e-6"),
        ("curve_convex", float(second.min()) >= -1e-7,
         f"min second difference {second.min():.2e} vs -1e-7"),
        ("curve_in_quadratic_envelopes",
         min(env_low.min(), env_high.min()) >= -1e-6,
         f"slack {env_low.min():.2e} / {env_high.min():.2e} vs -1e-6"),
        ("c_right_below_dumped_quotients", c_r <= best_r + 1e-6,
         f"c_R={c_r:.8f} vs min k/lambda={best_r:.8f}"),
        ("c_left_below_dumped_quotients", c_l <= best_l + 1e-6,
         f"c_L={c_l:.8f} vs min k/-lambda={best_l:.8f}"),
    ]
    if job["label"] == "homogeneous":
        target = ref.homogeneous_speed(cfg)
        err = max(abs(c_r - target), abs(c_l - target))
        checks.append(("homogeneous_closed_form", err <= 1e-4,
                       f"max |c - 2 sqrt(sigma lambda_A)| = {err:.2e} vs 1e-4"))
    for side, c, lam_star in (("right", c_r, report["argmin_lambda_right"]),
                              ("left", c_l, report["argmin_lambda_left"])):
        k_star = c * abs(lam_star)
        fixed = ref.fixed_grid_k(cfg, lam_star)
        checks.append((f"fixed_grid_k_{side}", abs(k_star - fixed) <= 1e-4,
                       f"|k(argmin) - k_{FIXED_GRID_CELLS}| = {abs(k_star - fixed):.2e} "
                       "vs 1e-4"))
    return checks


def _check_dirichlet(job: dict, ref: References) -> list:
    values = _read_csv(f"{job['out']}_dirichlet.csv")["lambda1R"]
    gap = abs(float(values[-1]) - ref.k_min(job["config"]))
    return [
        ("increasing_in_R", bool(np.all(np.diff(values) > 0)),
         "lambda_1^R = " + ", ".join(f"{v:.6f}" for v in values)),
        ("limit_is_k_min", gap <= 1e-2,
         f"|lambda_1^(32L) - min k| = {gap:.2e} vs 1e-2"),
    ]


def _check_simulate(job: dict, ref: References) -> list:
    cfg = job["config"]
    report = _read_json(f"{job['out']}_speeds.json")
    cs = ref.coefficient_set(cfg)
    cap = max(cs.k_bar, ref.initial_sup(cfg))
    checks = [("comparison_bound", report["mass_max"] <= cap + 1e-8,
               f"mass_max={report['mass_max']:.10f} vs cap {cap:.10f} + 1e-8")]
    c = report["c_right"]
    if job["label"] == "simulate_homogeneous":
        rel = abs(c - 2.0) / 2.0 if c is not None else math.inf
        checks.append(("front_speed_near_2", report["right_reliable"] and rel <= 0.05,
                       f"c_right={c}, reliable={report['right_reliable']}, "
                       f"relative error {rel:.3%} vs 5%"))
    else:
        low, high = ref.speed_envelope(cfg)
        checks.append(("front_speed_in_envelope", c is not None and low <= c <= high,
                       f"c_right={c} in [{low:.6f}, {high:.6f}]"))
    return checks


def _check_stationary(job: dict, ref: References) -> list:
    prof = _read_csv(f"{job['out']}_stationary.csv")
    low = float(min(prof["u"].min(), prof["v"].min()))
    return [("profile_positive", low > 0, f"min(u, v) = {low:.6e}")]


def _check_ode(job: dict, ref: References) -> list:
    end = _read_json(f"{job['out']}_ode.json")["endpoint"]
    eq = ref.equilibrium(job["config"])
    err = max(abs(end[0] - eq[0]), abs(end[1] - eq[1]))
    return [("endpoint_at_equilibrium", err <= 1e-6,
             f"max |endpoint - equilibrium| = {err:.2e} vs 1e-6")]


CHECKERS = {"speed": _check_speed, "dirichlet": _check_dirichlet,
            "simulate": _check_simulate, "stationary": _check_stationary,
            "ode": _check_ode}


def check_job(job: dict, ref: References) -> list:
    """[(check name, passed, detail)] for one finished job's artifacts."""
    try:
        return CHECKERS[job["command"]](job, ref)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [("outputs_readable", False, f"{type(exc).__name__}: {exc}")]
