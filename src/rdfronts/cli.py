"""Command-line entry point: JSON configs in, CSV/JSON artifacts out.

Every subcommand reads one strict JSON config (unknown keys are rejected so
a typo cannot silently fall back to a default), validates it completely
before touching the filesystem, and writes deterministic files whose headers
embed a hash of the config.  Exit codes: 0 success, 2 config/validation
error, 3 numerical error; errors are reported as one JSON object on stderr.

`main` is the one job path: it loads the config, checks its keys against the
COMMANDS table, hashes it and calls the handler, which returns the paths it
wrote and its solver counts; `--verbose` prints the counts as one JSON line.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
from typing import Optional

import numpy as np

from . import coefficients as coeffs
from . import eigen, ode, pde, speeds
from .errors import NumericalError, ValidationError
from .util import config_hash, write_csv


def _check_keys(obj: dict, context: str, required: set, optional: set) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{context} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {context}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)} in {context}")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _number(obj: dict, key: str, context: str, default=None, positive=False):
    if key not in obj:
        return default
    val = obj[key]
    if not _is_number(val):
        raise ValidationError(f"{context}.{key} must be a number")
    if positive and not (val > 0):
        raise ValidationError(f"{context}.{key} must be positive")
    return float(val)


def _integer(obj: dict, key: str, context: Optional[str], default=None):
    """obj[key] as an int (default when absent); context=None for top-level keys."""
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        name = key if context is None else f"{context}.{key}"
        raise ValidationError(f"{name} must be an integer")
    return val


def _lambda_grid(config: dict, context: str) -> np.ndarray:
    lo = _number(config, "lambda_min", context, -3.0)
    hi = _number(config, "lambda_max", context, 3.0)
    step = _number(config, "lambda_step", context, 0.1, positive=True)
    if hi < lo:
        raise ValidationError(f"{context}: lambda_max must be >= lambda_min")
    count = int(math.floor((hi - lo) / step + 0.5)) + 1
    return lo + step * np.arange(count)


def _grid_spec(config: dict) -> Optional[eigen.GridSpec]:
    n = _integer(config, "n_cells", None)
    return None if n is None else eigen.GridSpec(n_cells=n)


def _coefficient_set(config: dict) -> coeffs.CoefficientSet:
    if "coefficients" not in config:
        raise ValidationError("config needs a 'coefficients' object")
    return coeffs.set_from_dict(config["coefficients"])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_counts(command: str, counts: dict) -> None:
    """One JSON line of solver counts on stderr (--verbose); no timings, and
    never part of an artifact."""
    json.dump(dict(command=command, **counts), sys.stderr)
    sys.stderr.write("\n")


def _eigen_counts(results) -> dict:
    """Perron iterations, LU factorizations and grid levels summed over the
    eigenvalue solves, and the finest cell count among them."""
    return {"iterations": sum(r.iterations for r in results),
            "factorizations": sum(r.factorizations for r in results),
            "levels": sum(r.levels for r in results),
            "finest_cells": max(r.n_cells for r in results)}


def _search_counts(searches: dict) -> dict:
    """{"k_evals": {search: solves}, "levels": {search: ...}, ...} over searches."""
    per = {name: dict(_eigen_counts(results), k_evals=len(results))
           for name, results in searches.items()}
    return {key: {name: c[key] for name, c in per.items()}
            for key in ("k_evals", "levels", "factorizations", "finest_cells")}


# -- subcommand handlers: (config, out, tag) -> (paths written, solver counts) ---

def run_eigen(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    grid = _grid_spec(config)
    tol = _number(config, "tolerance", "eigen config", eigen.K_GRID_TOL, positive=True)
    lams = _lambda_grid(config, "eigen config")
    profile_lams = config.get("profile_lambdas", [0.0])
    if not isinstance(profile_lams, list) or not all(map(_is_number, profile_lams)):
        raise ValidationError("profile_lambdas must be a list of numbers")

    results = eigen.k_curve(cs, lams, grid, tol)
    profiles = [eigen.k_of_lambda(cs, float(lam), grid, tol) for lam in profile_lams]
    paths = [f"{out}_kcurve.csv"]
    eigen.write_k_curve_csv(paths[0], lams, results, [f"config_hash={tag}"])
    for i, (lam, res) in enumerate(zip(profile_lams, profiles)):
        path = f"{out}_profile_{i}.csv"
        write_csv(path, ("x", "phi", "psi"),
                  (res.h * np.arange(res.n_cells), res.phi, res.psi),
                  [f"config_hash={tag}", f"lambda={lam!r}", f"k={res.value!r}"])
        paths.append(path)
    return paths, _eigen_counts(results + profiles)


def run_dirichlet(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    grid = _grid_spec(config)
    tol = _number(config, "tolerance", "dirichlet config", eigen.K_GRID_TOL, positive=True)
    radii = config["radii"]
    if (not isinstance(radii, list) or not radii
            or any(not _is_number(R) or R <= 0 for R in radii)):
        raise ValidationError("radii must be a nonempty list of positive numbers")
    results = eigen.dirichlet_sweep(cs, radii, grid, tol)
    path = f"{out}_dirichlet.csv"
    eigen.write_dirichlet_csv(path, radii, results, [f"config_hash={tag}"])
    return [path], _eigen_counts(results)


def run_speed(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    grid = _grid_spec(config)
    lam_tol = _number(config, "lambda_tolerance", "speed config",
                      speeds.LAMBDA_TOL, positive=True)
    k_tol = _number(config, "k_tolerance", "speed config", eigen.K_GRID_TOL,
                    positive=True)
    lams = _lambda_grid(config, "speed config")

    report = speeds.spreading_speeds(cs, grid, lam_tol, k_tol)
    curve = eigen.k_curve(cs, lams, grid, k_tol)
    payload = report.to_dict()
    payload["config_hash"] = tag
    paths = [f"{out}_speed.json", f"{out}_kcurve.csv"]
    _write_json(paths[0], payload)
    k = [res.value for res in curve]
    over = [kv / lam if lam != 0 else float("nan") for lam, kv in zip(lams, k)]
    write_csv(paths[1], ("lambda", "k", "k_over_lambda"), (lams, k, over),
              [f"config_hash={tag}"])
    return paths, _search_counts(dict(report.solves, curve=curve))


def _hom_params(config: dict) -> ode.HomParams:
    if "params" not in config:
        raise ValidationError("config needs a 'params' object")
    p = config["params"]
    names = ("sigma", "r_u", "r_v", "kappa_u", "kappa_v", "mu_u", "mu_v")
    _check_keys(p, "params", set(names), set())
    return ode.HomParams(**{name: _number(p, name, "params") for name in names})


def run_ode(config: dict, out: str, tag: str):
    p = _hom_params(config)
    u0 = _number(config, "u0", "ode config")
    v0 = _number(config, "v0", "ode config")
    T = _number(config, "T", "ode config", positive=True)
    dt = _number(config, "dt", "ode config", 1e-3, positive=True)
    if u0 < 0 or v0 < 0:
        raise ValidationError("u0 and v0 must be nonnegative")

    analysis = ode.analyze(p)
    traj = ode.integrate(p, u0, v0, T, dt)
    lyap = None
    if analysis.lyapunov_K is not None and np.all(traj.u > 0) and np.all(traj.v > 0):
        lyap = ode.lyapunov_value(traj.u, traj.v, *analysis.equilibrium, analysis.lyapunov_K)
    payload = {
        "config_hash": tag,
        "lambda_A": analysis.lambda_A,
        "equilibrium": list(analysis.equilibrium) if analysis.equilibrium else None,
        "jacobian": list(analysis.jacobian) if analysis.jacobian else None,
        "lyapunov_K": analysis.lyapunov_K,
        "endpoint": list(traj.endpoint()),
        "clipped": traj.clipped,
    }
    paths = [f"{out}_ode.json", f"{out}_trajectory.csv"]
    _write_json(paths[0], payload)
    ode.write_trajectory_csv(paths[1], traj, lyap, [f"config_hash={tag}"])
    return paths, {"steps": len(traj.t) - 1}


def _domain_spec(config: dict) -> pde.DomainSpec:
    if "domain" not in config:
        raise ValidationError("config needs a 'domain' object")
    d = config["domain"]
    _check_keys(d, "domain", {"x_min", "x_max", "n_points"}, {"boundary"})
    return pde.DomainSpec(n_points=_integer(d, "n_points", "domain"),
                          x_min=_number(d, "x_min", "domain"),
                          x_max=_number(d, "x_max", "domain"),
                          boundary=d.get("boundary", "neumann"))


def _initial_data(config: dict) -> pde.InitialData:
    if "initial" not in config:
        raise ValidationError("config needs an 'initial' object")
    d = config["initial"]
    _check_keys(d, "initial", {"kind", "amplitude"},
                {"x_on", "x_off", "center", "width"})
    kwargs = {"kind": d["kind"],
              "amplitude": _number(d, "amplitude", "initial", positive=True)}
    for key in ("x_on", "x_off", "center", "width"):
        if key in d:
            kwargs[key] = _number(d, key, "initial")
    return pde.InitialData(**kwargs)


def run_simulate(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    domain = _domain_spec(config)
    init = _initial_data(config)
    T = _number(config, "T", "simulate config", positive=True)
    dt = _number(config, "dt", "simulate config", positive=True)
    record_every = _number(config, "record_every", "simulate config", positive=True)
    theta = _number(config, "theta", "simulate config")
    snapshot_every = _number(config, "snapshot_every", "simulate config")
    window = _number(config, "window", "simulate config", 0.5, positive=True)

    result = pde.simulate(cs, domain, init, T, dt, record_every,
                          theta=theta, snapshot_every=snapshot_every)
    measurement = pde.measure_speed(result.trace, window)
    paths = []
    for i, snap in enumerate(result.snapshots):
        path = f"{out}_snapshot_{i}.csv"
        pde.write_snapshot_csv(path, result.nodes, snap, [f"config_hash={tag}"])
        paths.append(path)
    front_path = f"{out}_front.csv"
    pde.write_front_trace_csv(front_path, result.trace, [f"config_hash={tag}"])
    paths.append(front_path)
    payload = {
        "config_hash": tag,
        "theta": result.theta,
        "c_right": measurement.c_right,
        "c_left": measurement.c_left,
        "r_squared_right": measurement.r_squared_right,
        "r_squared_left": measurement.r_squared_left,
        "right_reliable": measurement.right_reliable,
        "left_reliable": measurement.left_reliable,
        "trusted_until_right": _json_float(result.trusted_until_right),
        "trusted_until_left": _json_float(result.trusted_until_left),
        "boundary_trust_warning": (result.trusted_until_right != np.inf
                                   or result.trusted_until_left != np.inf),
        "mass_max": result.state.mass_max,
        "max_clip": result.counts["max_clip"],
    }
    report_path = f"{out}_speeds.json"
    _write_json(report_path, payload)
    paths.append(report_path)
    return paths, result.counts


def _json_float(x: float):
    return None if not np.isfinite(x) else float(x)


def run_stationary(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    n_cells = _integer(config, "n_cells", None, 512)
    tol = _number(config, "tolerance", "stationary config", 1e-9, positive=True)
    t_max = _number(config, "t_max", "stationary config", 4000.0, positive=True)
    counts = {}
    nodes, u, v = pde.stationary_profile(cs, n_cells=n_cells, tol=tol, t_max=t_max,
                                         counts=counts)
    path = f"{out}_stationary.csv"
    write_csv(path, ("x", "u", "v"), (nodes, u, v), [f"config_hash={tag}"])
    return [path], counts


def run_homogenize(config: dict, out: str, tag: str):
    cs = _coefficient_set(config)
    h = coeffs.homogenize(cs)
    payload = h.to_dict()
    payload["config_hash"] = tag
    try:
        payload["homogenized_speed"] = speeds.homogenized_speed(h)
    except ValidationError:
        payload["homogenized_speed"] = None
    path = f"{out}_homogenized.json"
    _write_json(path, payload)
    return [path], {}


def _sweep_row(args) -> dict:
    """One epsilon row; k_evals counts the k(lambda) solves of its speed
    searches, so the count travels back from a worker process with the row."""
    set_dict, eps, k_tol = args
    row = {"epsilon": eps, "c_right": "", "c_left": "", "error": "", "k_evals": 0}
    try:
        base = coeffs.set_from_dict(set_dict)
        cse = coeffs.rescale_epsilon(base, eps)
        report = speeds.spreading_speeds(cse, k_tol=k_tol)
        row["c_right"] = report.c_right
        row["c_left"] = report.c_left
        row["k_evals"] = sum(map(len, report.solves.values()))
    except (ValidationError, NumericalError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(config: dict, out: str, tag: str, jobs: int):
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    cs = _coefficient_set(config)
    k_tol = _number(config, "k_tolerance", "sweep config", eigen.K_GRID_TOL,
                    positive=True)
    eps_list = config["epsilons"]
    if (not isinstance(eps_list, list) or not eps_list
            or any(not _is_number(e) or not (0 < e <= 1) for e in eps_list)):
        raise ValidationError("epsilons must be a nonempty list of values in (0, 1]")

    h = coeffs.homogenize(cs)
    target = speeds.homogenized_speed(h)
    set_dict = coeffs.set_to_dict(cs)
    tasks = [(set_dict, float(e), k_tol) for e in eps_list]
    workers = min(jobs, len(tasks))    # the pool starts all its workers up front
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows_raw = list(pool.map(_sweep_row, tasks))
    else:
        rows_raw = [_sweep_row(t) for t in tasks]

    rows = []
    for raw in rows_raw:
        if raw["error"]:
            rows.append((raw["epsilon"], "", "", target, "", "", raw["error"]))
        else:
            gap_r = abs(raw["c_right"] - target)
            gap_l = abs(raw["c_left"] - target)
            rows.append((raw["epsilon"], raw["c_right"], raw["c_left"],
                         target, gap_r, gap_l, ""))
    path = f"{out}_sweep.csv"
    write_csv(path, ("epsilon", "c_right", "c_left", "target",
                     "gap_right", "gap_left", "error"),
              list(zip(*rows)), [f"config_hash={tag}"])
    return [path], {"k_evals": sum(raw["k_evals"] for raw in rows_raw)}


# command -> (handler, required config keys, optional config keys besides "command")
COMMANDS = {
    "eigen": (run_eigen, {"coefficients"},
              {"lambda_min", "lambda_max", "lambda_step", "n_cells", "tolerance",
               "profile_lambdas"}),
    "dirichlet": (run_dirichlet, {"coefficients", "radii"}, {"n_cells", "tolerance"}),
    "speed": (run_speed, {"coefficients"},
              {"n_cells", "lambda_tolerance", "k_tolerance", "lambda_min", "lambda_max",
               "lambda_step"}),
    "ode": (run_ode, {"params", "u0", "v0", "T"}, {"dt"}),
    "simulate": (run_simulate,
                 {"coefficients", "domain", "initial", "T", "dt", "record_every"},
                 {"theta", "snapshot_every", "window"}),
    "stationary": (run_stationary, {"coefficients"}, {"n_cells", "tolerance", "t_max"}),
    "homogenize": (run_homogenize, {"coefficients"}, set()),
    "sweep": (run_sweep, {"coefficients", "epsilons"}, {"k_tolerance"}),
}


def _reject_non_finite(text: str):
    raise ValidationError(f"config contains the non-finite number {text}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):           # an overflowing literal such as 1e999
        _reject_non_finite(text)
    return value


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_float=_finite_float,
                               parse_constant=_reject_non_finite)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    declared = config.get("command")
    if declared is not None and declared != command:
        raise ValidationError(f"config declares command {declared!r} but "
                              f"{command!r} was invoked")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdfronts",
        description="Experiments on two-species reaction-diffusion fronts "
                    "in periodic media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output path prefix")
        p.add_argument("--verbose", action="store_true",
                       help="print solver counts as one JSON line on stderr")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the epsilon rows")
    args = parser.parse_args(argv)
    handler, required, optional = COMMANDS[args.command]
    extra = {"jobs": args.jobs} if args.command == "sweep" else {}

    try:
        config = _load_config(args.config, args.command)
        _check_keys(config, f"{args.command} config", required, optional | {"command"})
        paths, counts = handler(config, args.out, config_hash(config), **extra)
    except ValidationError as exc:
        json.dump({"error": "validation", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericalError as exc:
        json.dump({"error": "numerical", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    if args.verbose:
        _print_counts(args.command, counts)
    for path in paths:
        print(path)
    return 0
