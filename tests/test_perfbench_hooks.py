"""The benchmark's hooks into the package see what the package reports.

``perfbench/worker.py`` ends a process's set-up time at its first call into a
fixed list of solver entry points (``_mark_first_solver_call``).  A command
whose first solve went around those names would count solver time as set-up.
Each command runs here on a tiny config with the worker's set-up-only hook
installed, the worker file imported as it is; the hook must fire before any
Perron solve or IMEX step.

``perfbench/tracer.py`` counts Perron iterations and IMEX steps from spans
around the package's functions.  Its counts must equal the ones that
``--verbose`` prints, or a refactor that moves a call around a wrapped name
would change the benchmark's layer figures without a trace.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdfronts import cli, coefficients, eigen, ode, pde, speeds

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TRACER = WORKER.with_name("tracer.py")

COEFFS = {"period": 1.0, **{name: {"kind": "constant", "value": value} for name, value in (
    ("sigma", 1.0), ("r_u", 1.0), ("r_v", 1.0), ("kappa_u", 1.0), ("kappa_v", 1.0),
    ("mu_u", 0.5), ("mu_v", 0.5))}}

CONFIGS = {
    "eigen": {"coefficients": COEFFS},
    "dirichlet": {"coefficients": COEFFS, "radii": [1.0]},
    "speed": {"coefficients": COEFFS},
    "ode": {"params": {"sigma": 1.0, "r_u": 1.0, "r_v": 1.0, "kappa_u": 1.0,
                       "kappa_v": 1.0, "mu_u": 0.5, "mu_v": 0.5},
            "u0": 0.5, "v0": 0.5, "T": 1.0},
    "simulate": {"coefficients": COEFFS,
                 "domain": {"x_min": -10.0, "x_max": 20.0, "n_points": 256},
                 "initial": {"kind": "compact_bump", "amplitude": 0.5,
                             "center": 5.0, "width": 2.0},
                 "T": 1.0, "dt": 0.01, "record_every": 0.1},
    "stationary": {"coefficients": COEFFS},
    "homogenize": {"coefficients": COEFFS},
    "sweep": {"coefficients": COEFFS, "epsilons": [1.0]},
}


@pytest.fixture
def worker(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The hook restores the solver names when it fires; should it not fire,
    # monkeypatch puts back the names recorded here.
    for m in (coefficients, eigen, ode, pde, speeds):
        for name, value in list(vars(m).items()):
            if callable(value):
                monkeypatch.setattr(m, name, value)
    return module


def test_every_command_has_a_config():
    assert sorted(CONFIGS) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_setup_ends_at_first_solver_call(tmp_path, monkeypatch, worker, command):
    def solver_ran(*args, **kwargs):
        raise AssertionError(f"{command} solved before the set-up hook fired")

    monkeypatch.setattr(eigen, "principal_eigenpair", solver_ran)
    monkeypatch.setattr(pde.Stepper, "advance", solver_ran)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[command]))
    worker._mark_first_solver_call(setup_only=True)
    with pytest.raises(worker._SetupDone):
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not list(tmp_path.glob("out*"))


# Run in a child process, since install() rewraps the package's functions for
# good: per command, the tracer's layer figures and the --verbose line.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
spans = tracer.Tracer()
tracer.install(spans)
from rdfronts import cli
report = {}
for command in sys.argv[3:]:
    spans.spans.clear()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main([command, "--config", f"{sys.argv[2]}/{command}.json",
                         "--out", f"{sys.argv[2]}/{command}", "--verbose"]) == 0
    report[command] = (tracer.layer_metrics(spans.spans)[0], json.loads(err.getvalue()))
print(json.dumps(report))
"""


# A cosine r_u, so that Perron solves take more than one iteration each, and a
# step long enough to be split.
COSINE_COEFFS = dict(COEFFS, r_u={"kind": "cosine", "mean": 1.0, "amplitude": 0.4,
                                  "phase": 0.3})
TRACED_CONFIGS = {
    "eigen": {"coefficients": COSINE_COEFFS, "lambda_min": -1.0, "lambda_max": 1.0,
              "lambda_step": 0.5},
    "dirichlet": {"coefficients": COSINE_COEFFS, "radii": [1.0, 2.0]},
    "speed": {"coefficients": COSINE_COEFFS, "lambda_min": -1.0, "lambda_max": 1.0,
              "lambda_step": 0.5},
    "simulate": dict(CONFIGS["simulate"], dt=0.1),           # two substeps a step
    # the periodic cell, whose I - dt D is factored by spla.splu
    "stationary": {"coefficients": COSINE_COEFFS, "n_cells": 64},
}


def test_tracer_counts_match_verbose(tmp_path):
    commands = tuple(TRACED_CONFIGS)
    for command, payload in TRACED_CONFIGS.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(payload))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER), str(tmp_path),
                           *commands], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])     # after the CLI's file list
    for command in ("eigen", "dirichlet"):
        metrics, verbose = report[command]
        assert verbose["iterations"] > verbose["levels"] > 0
        assert metrics["eigen.perron_iterations"] == verbose["iterations"]
    # per search, k(0) and tilt_slope's left solves included
    metrics, verbose = report["speed"]
    assert sum(verbose["iterations"].values()) > sum(verbose["k_evals"].values()) > 0
    assert metrics["eigen.perron_iterations"] == sum(verbose["iterations"].values())
    assert metrics["eigen.k_evals"] == sum(verbose["k_evals"].values())
    metrics, verbose = report["simulate"]
    assert verbose["substeps"] > verbose["steps"] > 0
    assert (metrics["pde.steps"], metrics["pde.substeps"]) == (verbose["steps"],
                                                               verbose["substeps"])
    metrics, verbose = report["stationary"]
    assert verbose["substeps"] > verbose["steps"] > 0
    assert (metrics["pde.steps"], metrics["pde.substeps"],
            metrics["pde.stationary_steps"]) == (verbose["steps"], verbose["substeps"],
                                                 verbose["steps"])
    # a factorization that went around spla.splu would leave both at 0
    assert metrics["pde.lu_factor_s"] > 0 and metrics["pde.solve_s"] > 0
