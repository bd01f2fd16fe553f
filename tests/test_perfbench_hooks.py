"""The benchmark's set-up clock stops at the first solver call of every command.

``perfbench/worker.py`` ends a process's set-up time at its first call into a
fixed list of solver entry points (``_mark_first_solver_call``).  A command
whose first solve went around those names would count solver time as set-up.
Each command runs here on a tiny config with the worker's set-up-only hook
installed, the worker file imported as it is; the hook must fire before any
Perron solve or IMEX step.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rdfronts import cli, coefficients, eigen, ode, pde, speeds

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

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
