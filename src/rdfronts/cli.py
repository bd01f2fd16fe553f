"""Command-line entry point: JSON configs in, CSV/JSON artifacts out.

Every subcommand reads one strict JSON config (unknown keys are rejected so
a typo cannot silently fall back to a default), validates it completely
before touching the filesystem, and writes deterministic files whose headers
embed a hash of the config.  Exit codes: 0 success, 2 config/validation
error, 3 numerical error; errors are reported as one JSON object on stderr.

`main` is the one job path: it loads the config, reads every value through
the command's schema in the COMMANDS table, hashes the config and calls the
handler with the values read; the handler returns the paths it wrote and its
solver counts, and `--verbose` prints the counts as one JSON line.  The
handlers write every artifact themselves, so this module alone knows the
file formats.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys

import numpy as np

from . import coefficients as coeffs
from . import eigen, ode, pde, speeds
from .errors import NumericalError, ValidationError
from .util import (REQUIRED, config_hash, fraction, integer, list_of, number, positive,
                   read_dataclass, read_object, string, write_csv)


def _cells(val, name: str) -> int:
    """A cell count.  No grid finer than eigen.REFINE_CAP is ever built, so a
    larger count is rejected before anything is allocated."""
    val = integer(val, name)
    if val > eigen.REFINE_CAP:
        raise ValidationError(f"{name} must be at most {eigen.REFINE_CAP}")
    return val


def _lambda_grid(cfg: dict, context: str) -> np.ndarray:
    lo, hi, step = cfg["lambda_min"], cfg["lambda_max"], cfg["lambda_step"]
    if hi < lo:
        raise ValidationError(f"{context}: lambda_max must be >= lambda_min")
    span = (hi - lo) / step
    if not span < eigen.REFINE_CAP:          # an overflowing span too
        raise ValidationError(f"{context}: the lambda grid has more than "
                              f"{eigen.REFINE_CAP} steps")
    count = int(math.floor(span + 0.5)) + 1
    return lo + step * np.arange(count)


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


# -- subcommand handlers: (values, out, tag) -> (paths written, solver counts) ---
# `values` holds every key of the command's schema, read and checked.

def run_eigen(cfg: dict, out: str, tag: str):
    lams = _lambda_grid(cfg, "eigen config")
    cs, grid, tol = cfg["coefficients"], cfg["n_cells"], cfg["tolerance"]
    profile_lams = cfg["profile_lambdas"]
    results = eigen.k_curve(cs, lams, grid, tol)
    profiles = [eigen.k_of_lambda(cs, float(lam), grid, tol) for lam in profile_lams]
    paths = [f"{out}_kcurve.csv"]
    write_csv(paths[0], ("lambda", "k", "residual", "n_cells"),
              (lams, [r.value for r in results], [r.residual for r in results],
               [str(r.n_cells) for r in results]), [f"config_hash={tag}"])
    for i, (lam, res) in enumerate(zip(profile_lams, profiles)):
        path = f"{out}_profile_{i}.csv"
        write_csv(path, ("x", "phi", "psi"),
                  (res.h * np.arange(res.n_cells), res.phi, res.psi),
                  [f"config_hash={tag}", f"lambda={lam!r}", f"k={res.value!r}"])
        paths.append(path)
    return paths, _eigen_counts(results + profiles)


def run_dirichlet(cfg: dict, out: str, tag: str):
    radii = cfg["radii"]
    results = eigen.dirichlet_sweep(cfg["coefficients"], radii, cfg["n_cells"], cfg["tolerance"])
    path = f"{out}_dirichlet.csv"
    write_csv(path, ("R", "lambda1R"), (radii, [r.value for r in results]),
              [f"config_hash={tag}"])
    return [path], _eigen_counts(results)


def run_speed(cfg: dict, out: str, tag: str):
    lams = _lambda_grid(cfg, "speed config")
    cs, grid, k_tol = cfg["coefficients"], cfg["n_cells"], cfg["k_tolerance"]

    report = speeds.spreading_speeds(cs, grid, cfg["lambda_tolerance"], k_tol)
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


def run_ode(cfg: dict, out: str, tag: str):
    p, u0, v0, T, dt = (cfg[key] for key in ("params", "u0", "v0", "T", "dt"))
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
    header, columns = ("t", "u", "v"), (traj.t, traj.u, traj.v)
    if lyap is not None:
        header, columns = header + ("lyapunov",), columns + (lyap,)
    write_csv(paths[1], header, columns, [f"config_hash={tag}"])
    return paths, {"steps": len(traj.t) - 1}


def run_simulate(cfg: dict, out: str, tag: str):
    result = pde.simulate(cfg["coefficients"], cfg["domain"], cfg["initial"], cfg["T"],
                          cfg["dt"], cfg["record_every"], theta=cfg["theta"],
                          snapshot_every=cfg["snapshot_every"])
    measurement = pde.measure_speed(result.trace, cfg["window"])
    paths = []
    for i, snap in enumerate(result.snapshots):
        path = f"{out}_snapshot_{i}.csv"
        write_csv(path, ("x", "u", "v"), (result.nodes, snap.u, snap.v),
                  [f"config_hash={tag}", f"t={snap.t!r}"])
        paths.append(path)
    trace = result.trace
    front_path = f"{out}_front.csv"
    write_csv(front_path, ("t", "x_right", "x_left"), (trace.t, trace.x_right, trace.x_left),
              [f"config_hash={tag}"])
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


def run_stationary(cfg: dict, out: str, tag: str):
    counts = {}
    nodes, u, v = pde.stationary_profile(cfg["coefficients"], n_cells=cfg["n_cells"],
                                         tol=cfg["tolerance"], t_max=cfg["t_max"],
                                         counts=counts)
    path = f"{out}_stationary.csv"
    write_csv(path, ("x", "u", "v"), (nodes, u, v), [f"config_hash={tag}"])
    return [path], counts


def run_homogenize(cfg: dict, out: str, tag: str):
    h = coeffs.homogenize(cfg["coefficients"])
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
    cs, eps, k_tol = args
    row = {"epsilon": eps, "c_right": "", "c_left": "", "error": "", "k_evals": 0}
    try:
        cse = coeffs.rescale_epsilon(cs, eps)
        report = speeds.spreading_speeds(cse, k_tol=k_tol)
        row["c_right"] = report.c_right
        row["c_left"] = report.c_left
        row["k_evals"] = sum(map(len, report.solves.values()))
    except (ValidationError, NumericalError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(cfg: dict, out: str, tag: str, jobs: int):
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    cs, k_tol, eps_list = cfg["coefficients"], cfg["k_tolerance"], cfg["epsilons"]
    h = coeffs.homogenize(cs)
    target = speeds.homogenized_speed(h)
    tasks = [(cs, float(e), k_tol) for e in eps_list]
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


_COEFFICIENTS = {"coefficients": (lambda val, _: coeffs.set_from_dict(val), REQUIRED)}
_GRID = {"n_cells": (lambda val, name: eigen.GridSpec(_cells(val, name)), None)}
_LAMBDA_GRID = {"lambda_min": (number, -3.0), "lambda_max": (number, 3.0),
                "lambda_step": (positive, 0.1)}

# command -> (handler, schema of its config keys besides "command")
COMMANDS = {
    "eigen": (run_eigen, {**_COEFFICIENTS, **_LAMBDA_GRID, **_GRID,
                          "tolerance": (positive, eigen.K_GRID_TOL),
                          "profile_lambdas": (list_of(number), [0.0])}),
    "dirichlet": (run_dirichlet, {**_COEFFICIENTS,
                                  "radii": (list_of(positive, nonempty=True), REQUIRED),
                                  **_GRID, "tolerance": (positive, eigen.K_GRID_TOL)}),
    "speed": (run_speed, {**_COEFFICIENTS, **_GRID,
                          "lambda_tolerance": (positive, speeds.LAMBDA_TOL),
                          "k_tolerance": (positive, eigen.K_GRID_TOL), **_LAMBDA_GRID}),
    "ode": (run_ode, {"params": (read_dataclass(ode.HomParams, "params"), REQUIRED),
                      "u0": (number, REQUIRED), "v0": (number, REQUIRED),
                      "T": (positive, REQUIRED), "dt": (positive, 1e-3)}),
    "simulate": (run_simulate, {**_COEFFICIENTS,
                                "domain": (read_dataclass(pde.DomainSpec, "domain"), REQUIRED),
                                "initial": (read_dataclass(pde.InitialData, "initial"),
                                            REQUIRED),
                                "T": (positive, REQUIRED), "dt": (positive, REQUIRED),
                                "record_every": (positive, REQUIRED), "theta": (positive, None),
                                "snapshot_every": (positive, None), "window": (fraction, 0.5)}),
    "stationary": (run_stationary, {**_COEFFICIENTS, "n_cells": (_cells, 512),
                                    "tolerance": (positive, 1e-9),
                                    "t_max": (positive, 4000.0)}),
    "homogenize": (run_homogenize, _COEFFICIENTS),
    "sweep": (run_sweep, {**_COEFFICIENTS,
                          "epsilons": (list_of(fraction, nonempty=True), REQUIRED),
                          "k_tolerance": (positive, eigen.K_GRID_TOL)}),
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
    handler, schema = COMMANDS[args.command]
    extra = {"jobs": args.jobs} if args.command == "sweep" else {}

    try:
        config = _load_config(args.config, args.command)
        values = read_object(config, f"{args.command} config",
                             {**schema, "command": (string, None)})
        paths, counts = handler(values, args.out, config_hash(config), **extra)
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
