"""Command-line entry point: JSON configs in, CSV/JSON artifacts out.

Every subcommand reads one strict JSON config (unknown keys are rejected so
a typo cannot silently fall back to a default), validates it completely
before touching the filesystem, and writes deterministic files whose headers
embed a hash of the config.  Exit codes: 0 success, 2 config/validation
error, 3 numerical error; errors are reported as one JSON object on stderr.

`main` is the one job path: it loads the config, reads every value through
the command's schema in the COMMANDS table and builds the run's `Artifacts`
from --out and the config hash.  A handler computes everything first, hands
each artifact to that writer by name and returns its solver counts, which
`--verbose` prints as one JSON line.  The writer alone names, hash-tags and
lists the files; `main` prints the path of every file written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import coefficients as coeffs
from . import eigen, ode, pde, speeds
from .errors import NumericalError, ValidationError
from .util import (REFINE_CAP, REQUIRED, config_hash, fmt, fraction, integer, list_of,
                   number, positive, read_dataclass, read_object, string, write_csv)


def _cells(val, name: str) -> int:
    """A cell count of at least 16, the fewest an eigen or stationary grid
    takes.  No grid finer than REFINE_CAP is ever built, so a larger count is
    rejected before anything is allocated."""
    val = integer(val, name)
    if not 16 <= val <= REFINE_CAP:
        raise ValidationError(f"{name} must lie in [16, {REFINE_CAP}]")
    return val


def _lambda_grid(cfg: dict, context: str) -> np.ndarray:
    """lambda_min, lambda_min + lambda_step, ... up to lambda_max and never a
    step past it; a quotient short of a whole step count by rounding alone
    (1e-9 steps) still reaches lambda_max."""
    lo, hi, step = cfg["lambda_min"], cfg["lambda_max"], cfg["lambda_step"]
    if hi < lo:
        raise ValidationError(f"{context}: lambda_max must be >= lambda_min")
    span = (hi - lo) / step
    if not span < REFINE_CAP:                # an overflowing span too
        raise ValidationError(f"{context}: the lambda grid has more than "
                              f"{REFINE_CAP} steps")
    return lo + step * np.arange(int(span + 1e-9) + 1)       # span >= 0: int floors


class Artifacts:
    """The files of one run: artifact `name` is written to `{out}_{name}`
    with the config hash `tag` in it, and its path is kept in `paths`."""

    def __init__(self, out: str, tag: str):
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValidationError(f"--out {out!r}: its directory does not exist")
        self.out, self.tag, self.paths = out, tag, []

    def _write(self, name: str, write, *args) -> None:
        """write(path, *args) to `{out}_{name}`, then keep the path.  An OSError,
        such as a directory in the file's place, is a ValidationError."""
        path = f"{self.out}_{name}"
        try:
            write(path, *args)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from None
        self.paths.append(path)

    def csv(self, name: str, header, columns, *comments: str) -> None:
        """A CSV file whose first comment line is config_hash=<tag>.
        write_csv is looked up when called, so a replacement of
        cli.write_csv sees every CSV artifact."""
        self._write(name, write_csv, header, columns, [f"config_hash={self.tag}", *comments])

    def json(self, name: str, payload: dict) -> None:
        """A JSON report: the payload and its config_hash key, keys sorted."""
        self._write(name, _write_json, dict(payload, config_hash=self.tag))


def _write_json(path: str, payload: dict) -> None:
    """The payload as strict JSON: a NaN or infinity, which JSON has no
    literal for, is a NumericalError, raised before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _print_counts(command: str, counts: dict) -> None:
    """One JSON line of solver counts on stderr (--verbose); no timings, and
    never part of an artifact."""
    json.dump(dict(command=command, **counts), sys.stderr)
    sys.stderr.write("\n")


def _eigen_counts(results) -> dict:
    """Perron iterations, LU factorizations and grid levels summed over the
    eigenvalue solves, the finest cell count among them, the factorizations
    that swapped rows, whose solves take dgbtrs, the largest residual and
    Collatz-Wielandt bracket width among them, and the solves that restarted
    on the far shift because their first shift was not above the root."""
    return {"iterations": sum(r.iterations for r in results),
            "factorizations": sum(r.factorizations for r in results),
            "levels": sum(r.levels for r in results),
            "finest_cells": max(r.n_cells for r in results),
            "pivoted": sum(r.pivoted for r in results),
            "residual": max(r.residual for r in results),
            "bracket_width": max(r.bracket[1] - r.bracket[0] for r in results),
            "restarts": sum(r.restarts for r in results)}


def _search_counts(searches: dict) -> dict:
    """{"k_evals": {search: solves}, "iterations": {search: ...}, ...} over searches."""
    per = {name: dict(_eigen_counts(results), k_evals=len(results))
           for name, results in searches.items()}
    return {key: {name: c[key] for name, c in per.items()}
            for key in ("k_evals", "iterations", "levels", "factorizations", "finest_cells",
                        "pivoted", "residual", "bracket_width", "restarts")}


# -- subcommand handlers: (values, artifacts) -> solver counts ---------------------
# `values` holds every key of the command's schema, read and checked.

def run_eigen(cfg: dict, artifacts: Artifacts) -> dict:
    lams = _lambda_grid(cfg, "eigen config")
    cs, grid, tol = cfg["coefficients"], cfg["n_cells"], cfg["tolerance"]
    profile_lams = cfg["profile_lambdas"]
    eigen.first_level(cs, grid, max([*lams, *profile_lams], key=abs))
    results = eigen.k_curve(cs, lams, grid, tol)
    profiles = [eigen.k_of_lambda(cs, float(lam), grid, tol) for lam in profile_lams]
    artifacts.csv("kcurve.csv", ("lambda", "k", "residual", "n_cells"),
                  (lams, [r.value for r in results], [r.residual for r in results],
                   [str(r.n_cells) for r in results]))
    for i, (lam, res) in enumerate(zip(profile_lams, profiles)):
        artifacts.csv(f"profile_{i}.csv", ("x", "phi", "psi"),
                      (res.h * np.arange(res.n_cells), *res.vector.reshape(2, -1)),
                      f"lambda={lam!r}", f"k={res.value!r}")
    return _eigen_counts(results + profiles)


def run_dirichlet(cfg: dict, artifacts: Artifacts) -> dict:
    radii = cfg["radii"]
    results = eigen.dirichlet_sweep(cfg["coefficients"], radii, cfg["n_cells"], cfg["tolerance"])
    artifacts.csv("dirichlet.csv", ("R", "lambda1R"), (radii, [r.value for r in results]))
    return _eigen_counts(results)


def run_speed(cfg: dict, artifacts: Artifacts) -> dict:
    lams = _lambda_grid(cfg, "speed config")
    cs, grid, k_tol = cfg["coefficients"], cfg["n_cells"], cfg["k_tolerance"]
    eigen.first_level(cs, grid, max(lams, key=abs))
    skeletons = {}        # skeletons and first-level roots for the searches and the curve
    report = speeds.spreading_speeds(cs, grid, cfg["lambda_tolerance"], k_tol, skeletons)
    curve = eigen.k_curve(cs, lams, grid, k_tol, skeletons)
    k = [res.value for res in curve]
    over = [kv / lam if lam != 0 else float("nan") for lam, kv in zip(lams, k)]
    artifacts.json("speed.json", report.to_dict())
    artifacts.csv("kcurve.csv", ("lambda", "k", "k_over_lambda"), (lams, k, over))
    return _search_counts(dict(report.solves, curve=curve))


def run_ode(cfg: dict, artifacts: Artifacts) -> dict:
    p, u0, v0, T, dt = (cfg[key] for key in ("params", "u0", "v0", "T", "dt"))
    if u0 < 0 or v0 < 0:
        raise ValidationError("u0 and v0 must be nonnegative")

    analysis = ode.analyze(p)
    traj = ode.integrate(p, u0, v0, T, dt)
    header, columns = ("t", "u", "v"), (traj.t, traj.u, traj.v)
    if analysis.lyapunov_K is not None and np.all(traj.u > 0) and np.all(traj.v > 0):
        header += ("lyapunov",)
        columns += (ode.lyapunov_value(traj.u, traj.v, *analysis.equilibrium,
                                       analysis.lyapunov_K),)
    artifacts.json("ode.json", {
        "lambda_A": analysis.lambda_A,
        "equilibrium": list(analysis.equilibrium) if analysis.equilibrium else None,
        "jacobian": list(analysis.jacobian) if analysis.jacobian else None,
        "lyapunov_K": analysis.lyapunov_K,
        "endpoint": list(traj.endpoint()),
        "clipped": traj.clipped,
    })
    artifacts.csv("trajectory.csv", header, columns)
    return {"steps": len(traj.t) - 1, "computed_steps": traj.computed_steps}


def run_simulate(cfg: dict, artifacts: Artifacts) -> dict:
    result = pde.simulate(cfg["coefficients"], cfg["domain"], cfg["initial"], cfg["T"],
                          cfg["dt"], cfg["record_every"], theta=cfg["theta"],
                          snapshot_every=cfg["snapshot_every"])
    measurement = pde.measure_speed(result.trace, cfg["window"])
    x = list(map(fmt, result.nodes))             # formatted once for every snapshot
    for i, snap in enumerate(result.snapshots):
        artifacts.csv(f"snapshot_{i}.csv", ("x", "u", "v"), (x, snap.u, snap.v),
                      f"t={snap.t!r}")
    trace = result.trace
    artifacts.csv("front.csv", ("t", "x_right", "x_left"), (trace.t, trace.x_right, trace.x_left))
    artifacts.json("speeds.json", {
        **dataclasses.asdict(measurement),
        "theta": result.theta,
        "trusted_until_right": _json_float(result.trusted_until_right),
        "trusted_until_left": _json_float(result.trusted_until_left),
        "boundary_trust_warning": (result.trusted_until_right != np.inf
                                   or result.trusted_until_left != np.inf),
        "mass_max": result.state.mass_max,
        "max_clip": result.counts["max_clip"],
    })
    return result.counts


def _json_float(x: float):
    return None if not np.isfinite(x) else float(x)


def run_stationary(cfg: dict, artifacts: Artifacts) -> dict:
    counts = {}
    nodes, u, v = pde.stationary_profile(cfg["coefficients"], n_cells=cfg["n_cells"],
                                         tol=cfg["tolerance"], t_max=cfg["t_max"],
                                         counts=counts)
    artifacts.csv("stationary.csv", ("x", "u", "v"), (nodes, u, v))
    return counts


def run_homogenize(cfg: dict, artifacts: Artifacts) -> dict:
    h = coeffs.homogenize(cfg["coefficients"])
    try:
        speed = speeds.homogenized_speed(h)
    except ValidationError:
        speed = None
    artifacts.json("homogenized.json", dict(h.to_dict(), homogenized_speed=speed))
    return {}


def _sweep_row(args) -> tuple:
    """One finished row of the sweep CSV, gaps to `target` included, and the
    k(lambda) solves of its speed searches, so that the count travels back
    from a worker process with the row.  A failed row carries its error."""
    cs, eps, k_tol, target = args
    try:
        report = speeds.spreading_speeds(coeffs.rescale_epsilon(cs, eps), k_tol=k_tol)
    except (ValidationError, NumericalError) as exc:
        return (eps, "", "", target, "", "", f"{type(exc).__name__}: {exc}"), 0
    c_r, c_l = report.c_right, report.c_left
    return ((eps, c_r, c_l, target, abs(c_r - target), abs(c_l - target), ""),
            sum(map(len, report.solves.values())))


def run_sweep(cfg: dict, artifacts: Artifacts, jobs: int) -> dict:
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    cs, k_tol, eps_list = cfg["coefficients"], cfg["k_tolerance"], cfg["epsilons"]
    target = speeds.homogenized_speed(coeffs.homogenize(cs))
    tasks = [(cs, float(e), k_tol, target) for e in eps_list]
    # the pool starts all its workers up front: no more than rows or usable CPUs
    workers = min(jobs, len(tasks), len(os.sched_getaffinity(0)))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows, k_evals = zip(*pool.map(_sweep_row, tasks))
    else:
        rows, k_evals = zip(*map(_sweep_row, tasks))
    artifacts.csv("sweep.csv", ("epsilon", "c_right", "c_left", "target",
                                "gap_right", "gap_left", "error"), list(zip(*rows)))
    return {"k_evals": sum(k_evals)}


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
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_float=_finite_float,
                               parse_constant=_reject_non_finite)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, an integer past Python's digit
        # limit, nesting deeper than the decoder's recursion limit
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    declared = config.get("command")
    if declared is not None and declared != command:
        raise ValidationError(f"config declares command {declared!r} but "
                              f"{command!r} was invoked")
    return config


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of main and reused:
    building its eight subparsers costs more than reading a config."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, schema = COMMANDS[args.command]
    extra = {"jobs": args.jobs} if args.command == "sweep" else {}

    try:
        config = _load_config(args.config, args.command)
        values = read_object(config, f"{args.command} config",
                             {**schema, "command": (string, None)})
        artifacts = Artifacts(args.out, config_hash(config))
        counts = handler(values, artifacts, **extra)
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
    for path in artifacts.paths:
        print(path)
    return 0
