"""End-to-end CLI: configs, exit codes, determinism, file formats."""

import concurrent.futures
import copy
import dataclasses
import functools
import inspect
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import rdfronts
from rdfronts import coefficients, eigen, pde, speeds
from rdfronts.cli import COMMANDS, _lambda_grid, main
from rdfronts.errors import ValidationError
from rdfronts.util import REQUIRED, config_hash, number, string

HOMOG_COEFFS = {
    "period": 1.0,
    "sigma": {"kind": "constant", "value": 1.0},
    "r_u": {"kind": "constant", "value": 1.0},
    "r_v": {"kind": "constant", "value": 1.0},
    "kappa_u": {"kind": "constant", "value": 1.0},
    "kappa_v": {"kind": "constant", "value": 1.0},
    "mu_u": {"kind": "constant", "value": 0.5},
    "mu_v": {"kind": "constant", "value": 0.5},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, out="out", **flags):
    cfg = write_config(tmp_path, payload, f"{command}.json")
    argv = [command, "--config", cfg, "--out", str(tmp_path / out)]
    for key, val in flags.items():
        argv += [f"--{key}"] if val is True else [f"--{key}", str(val)]
    return main(argv)


# -- eigen ------------------------------------------------------------------------

def test_eigen_row_count_and_identity(tmp_path):
    payload = {"coefficients": HOMOG_COEFFS,
               "lambda_min": -3.0, "lambda_max": 3.0, "lambda_step": 0.1}
    assert run(tmp_path, "eigen", payload) == 0
    lines = (tmp_path / "out_kcurve.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 61
    for cells in rows:
        lam, k = float(cells[0]), float(cells[1])
        assert abs(k - (lam * lam + 1.0)) < 1e-7
    profile = (tmp_path / "out_profile_0.csv").read_text().splitlines()
    assert profile[1] == "# lambda=0.0"


DETERMINISM_PAYLOADS = {
    "eigen": {"coefficients": HOMOG_COEFFS, "lambda_min": -1.0,
              "lambda_max": 1.0, "lambda_step": 0.5},
    "dirichlet": {"coefficients": HOMOG_COEFFS, "radii": [1.0, 2.0]},
    "speed": {"coefficients": HOMOG_COEFFS, "lambda_min": -1.0,
              "lambda_max": 1.0, "lambda_step": 0.5},
    "simulate": {"coefficients": HOMOG_COEFFS,
                 "domain": {"x_min": -10.0, "x_max": 20.0, "n_points": 256},
                 "initial": {"kind": "compact_bump", "amplitude": 0.5,
                             "center": 5.0, "width": 2.0},
                 "T": 1.0, "dt": 0.01, "record_every": 0.1, "snapshot_every": 0.5},
    "stationary": {"coefficients": HOMOG_COEFFS, "n_cells": 64},
    "ode": {"params": {"sigma": 1.0, "r_u": 1.0, "r_v": 1.0, "kappa_u": 1.0,
                       "kappa_v": 1.0, "mu_u": 0.25, "mu_v": 0.25},
            "u0": 0.9, "v0": 0.1, "T": 1.0, "dt": 0.001},
    "homogenize": {"coefficients": HOMOG_COEFFS},
    "sweep": {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 0.5]},
}


@pytest.mark.parametrize("command", sorted(DETERMINISM_PAYLOADS))
def test_deterministic_outputs(tmp_path, capsys, command):
    # eigen and dirichlet build on the shared flux stencil through the
    # eigen module, simulate through the pde Stepper; speed runs the speed
    # search and the curve dump on warm-started chains, sweep one
    # speed search per epsilon.  The second run is verbose: it prints one
    # JSON line of counts on stderr, and the counts never reach the files.
    payload = DETERMINISM_PAYLOADS[command]
    assert run(tmp_path, command, payload, out="a") == 0
    assert capsys.readouterr().err == ""
    assert run(tmp_path, command, payload, out="b", verbose=True) == 0
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["command"] == command
    a_files = sorted(p.name[2:] for p in tmp_path.glob("a_*"))
    assert a_files and a_files == sorted(p.name[2:] for p in tmp_path.glob("b_*"))
    if command == "speed":
        assert a_files == ["kcurve.csv", "speed.json"]
    if command == "eigen":
        assert a_files == ["kcurve.csv", "profile_0.csv"]
    for suffix in a_files:
        assert (tmp_path / f"a_{suffix}").read_bytes() == (tmp_path / f"b_{suffix}").read_bytes()


@pytest.mark.parametrize("command, jobs", [*((c, 1) for c in sorted(DETERMINISM_PAYLOADS)),
                                            ("sweep", 2)])
def test_stdout_lists_exactly_the_files_written(tmp_path, capsys, command, jobs):
    flags = {"jobs": jobs} if command == "sweep" else {}
    assert run(tmp_path, command, DETERMINISM_PAYLOADS[command], **flags) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == sorted(str(path) for path in tmp_path.glob("out_*"))


@pytest.mark.parametrize("lo, hi, step, count", [
    (-3.0, 3.0, 0.1, 61), (-2.0, 2.0, 0.25, 17), (-1.0, 1.0, 0.5, 5), (0.5, 1.5, 0.5, 3),
    # (hi - lo) / step rounds up to 2 and to 3 here; the grid must stop a step short
    (0.0, 1.0, 0.6, 2), (0.0, 1.0, 0.4, 3),
])
def test_lambda_grid_never_passes_lambda_max(lo, hi, step, count):
    grid = _lambda_grid({"lambda_min": lo, "lambda_max": hi, "lambda_step": step}, "eigen config")
    assert grid.tobytes() == (lo + step * np.arange(count)).tobytes()
    assert grid[-1] <= hi


# -- file formats ---------------------------------------------------------------

ODE_NO_WEIGHT = {"params": {"sigma": 1.0, "r_u": -0.5, "r_v": -0.5, "kappa_u": 1.0,
                            "kappa_v": 1.0, "mu_u": 0.5, "mu_v": 0.5},
                 "u0": 0.3, "v0": 0.4, "T": 1.0}

# case -> {artifact: (comment keys after config_hash, CSV header, data rows)}
# on DETERMINISM_PAYLOADS[command] (ODE_NO_WEIGHT for "ode-no-weight"); a
# JSON report (None) carries the hash in its config_hash field instead.
ARTIFACTS = {
    "eigen": {"kcurve.csv": ((), "lambda,k,residual,n_cells", 5),
              "profile_0.csv": (("lambda", "k"), "x,phi,psi", 128)},
    "dirichlet": {"dirichlet.csv": ((), "R,lambda1R", 2)},
    "speed": {"kcurve.csv": ((), "lambda,k,k_over_lambda", 5), "speed.json": None},
    "ode": {"trajectory.csv": ((), "t,u,v,lyapunov", 1001), "ode.json": None},
    "ode-no-weight": {"trajectory.csv": ((), "t,u,v", 1001), "ode.json": None},
    "simulate": {"snapshot_0.csv": (("t",), "x,u,v", 256),
                 "snapshot_1.csv": (("t",), "x,u,v", 256),
                 "front.csv": ((), "t,x_right,x_left", 11), "speeds.json": None},
    "stationary": {"stationary.csv": ((), "x,u,v", 64)},
    "homogenize": {"homogenized.json": None},
    "sweep": {"sweep.csv": ((), "epsilon,c_right,c_left,target,gap_right,gap_left,error", 2)},
}


@pytest.mark.parametrize("case", sorted(ARTIFACTS))
def test_artifact_comments_and_headers(tmp_path, case):
    payload = ODE_NO_WEIGHT if case == "ode-no-weight" else DETERMINISM_PAYLOADS[case]
    assert run(tmp_path, case.split("-")[0], payload) == 0
    tag = config_hash(payload)
    files = {path.name[len("out_"):]: path for path in tmp_path.glob("out_*")}
    assert sorted(files) == sorted(ARTIFACTS[case])
    for name, layout in ARTIFACTS[case].items():
        text = files[name].read_text()
        if layout is None:
            assert json.loads(text)["config_hash"] == tag
            continue
        keys, header, rows = layout
        lines = text.splitlines()
        comments, body = lines[:1 + len(keys)], lines[1 + len(keys):]
        assert comments[0] == f"# config_hash={tag}"
        for key, line in zip(keys, comments[1:]):
            assert line.startswith(f"# {key}=")
            float(line.split("=", 1)[1])
        assert body[0] == header
        assert len(body) == 1 + rows
        assert {line.count(",") for line in body} == {header.count(",")}


def readme_output_headers() -> dict:
    """artifact -> the CSV headers README's "Output file formats" list names
    for it: the backquoted comma lists after its `*_<artifact>.csv` token."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Output file formats\n", 1)[1].split("\n## ", 1)[0]
    headers, artifact = {}, None
    for token in re.findall(r"`([^`]+)`", section):
        named = re.fullmatch(r"\*_(\w+?)(?:_<i>)?\.(csv|json)", token)
        if named:
            artifact = named[1] if named[2] == "csv" else None
            headers.setdefault(artifact, set())
        elif artifact and "," in token:
            headers[artifact].add(token)
    headers.pop(None, None)
    return headers


def test_readme_output_formats_match_the_artifacts():
    carried = {}
    for layouts in ARTIFACTS.values():
        for name, layout in layouts.items():
            if layout is not None:
                artifact = re.sub(r"_\d+$", "", name[:-len(".csv")])
                carried.setdefault(artifact, set()).add(layout[1])
    assert readme_output_headers() == carried


def test_invalid_sigma_exits_2_without_files(tmp_path, capsys):
    coeffs = dict(HOMOG_COEFFS)
    coeffs["sigma"] = {"kind": "constant", "value": -1.0}
    payload = {"coefficients": coeffs}
    assert run(tmp_path, "eigen", payload, out="bad") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_exits_2_without_files(tmp_path, capsys, literal):
    cfg = tmp_path / "speed.json"
    text = json.dumps({"coefficients": HOMOG_COEFFS})
    cfg.write_text(text.replace('"value": 1.0}', f'"value": {literal}}}', 1))
    assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert literal in err["message"]
    assert not list(tmp_path.glob("bad*"))


def readme_config_table() -> dict:
    """command -> (required keys, optional keys), as README's "Config payloads
    per command" table lists them in backquotes."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config payloads per command\n", 1)[1]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, required, optional = line.strip("|").split("|")
            table[command.strip().strip("`")] = (set(re.findall(r"`([^`]+)`", required)),
                                                 set(re.findall(r"`([^`]+)`", optional)))
        elif table:
            break
    return table


def test_readme_config_table_matches_the_schemas():
    schemas = {command: ({key for key, (_, default) in schema.items() if default is REQUIRED},
                         {key for key, (_, default) in schema.items() if default is not REQUIRED})
               for command, (_, schema) in COMMANDS.items()}
    assert readme_config_table() == schemas


def test_command_mismatch_rejected(tmp_path):
    payload = {"command": "speed", "coefficients": HOMOG_COEFFS}
    assert run(tmp_path, "eigen", payload) == 2


def test_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["eigen", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", [
    pytest.param(b'{"coefficients": ' + b"1" * 4301 + b"}", id="integer-of-4301-digits"),
    pytest.param(b'{"coefficients": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 id="nested-100000-deep"),
    pytest.param(b'{"coefficients": "\xff"}', id="not-utf-8"),
])
def test_undecodable_config_exits_2_without_files(tmp_path, capsys, text):
    cfg = tmp_path / "homogenize.json"
    cfg.write_bytes(text)
    assert main(["homogenize", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "validation"
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("command", ["homogenize", "speed"])
def test_out_prefix_in_a_missing_directory_exits_2_before_solving(tmp_path, capsys,
                                                                  monkeypatch, command):
    def solved(*args, **kwargs):
        raise AssertionError("a speed was computed")

    monkeypatch.setattr(speeds, "spreading_speeds", solved)
    monkeypatch.setattr(speeds, "homogenized_speed", solved)
    assert run(tmp_path, command, DETERMINISM_PAYLOADS[command], out="missing/run") == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation" and "--out" in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == [f"{command}.json"]


@pytest.mark.parametrize("command, blocked, kept", [
    ("homogenize", "homogenized.json", []), ("ode", "trajectory.csv", ["ode.json"])],
    ids=["json", "csv"])
def test_artifact_path_taken_by_a_directory_exits_2(tmp_path, capsys, command, blocked, kept):
    # the JSON and the CSV writer both turn the OSError into a validation
    # error; a file written before the failing one stays
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / f"run_{blocked}").mkdir()
    assert run(tmp_path, command, DETERMINISM_PAYLOADS[command], out="d/run") == 2
    captured = capsys.readouterr()
    line, = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation"
    assert err["message"].startswith(f"cannot write {tmp_path / 'd' / 'run'}_{blocked}: ")
    assert captured.out == ""
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(
        f"run_{name}" for name in [blocked, *kept])


# -- dirichlet -----------------------------------------------------------------------

def test_dirichlet_sweep(tmp_path):
    payload = {"coefficients": HOMOG_COEFFS, "radii": [1.0, 2.0, 4.0]}
    assert run(tmp_path, "dirichlet", payload) == 0
    lines = (tmp_path / "out_dirichlet.csv").read_text().splitlines()
    assert lines[1] == "R,lambda1R"
    vals = [float(line.split(",")[1]) for line in lines[2:]]
    assert vals == sorted(vals)
    assert len(vals) == 3


@pytest.mark.parametrize("radii", [[1.0, 1e4], [1e300], [1.0, 1.7e308]],
                         ids=["1e4", "1e300", "overflow"])
def test_dirichlet_radius_past_the_refinement_cap_exits_2_before_solving(tmp_path, capsys,
                                                                        monkeypatch, radii):
    # R = 1e4 needs 1.28e6 cells on its first level, past the 2^20 cap; R = 1e300
    # needs a count with 300 digits, which the message must not print, and the
    # count of R = 1.7e308 overflows to inf
    def no_solve(*args, **kwargs):
        raise AssertionError("a radius was solved before every radius was checked")

    monkeypatch.setattr(eigen, "dirichlet_eigenvalue", no_solve)
    payload = {"coefficients": HOMOG_COEFFS, "radii": radii}
    assert run(tmp_path, "dirichlet", payload, out="big") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "refinement cap" in err["message"] and len(err["message"]) < 200
    assert not list(tmp_path.glob("big*"))


def test_dirichlet_radius_with_a_vanishing_spacing_exits_2_before_any_solve(tmp_path, capsys,
                                                                           monkeypatch):
    # R = 32 is fine and comes first; R = 1e-170 has a spacing of about 3e-172,
    # whose square underflows to 0, and must be rejected before R = 32 is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("a Perron solve ran before every radius was checked")

    monkeypatch.setattr(eigen, "principal_eigenpair", no_solve)
    payload = {"coefficients": HOMOG_COEFFS, "radii": [32.0, 1e-170]}
    assert run(tmp_path, "dirichlet", payload, out="tiny") == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation" and "grid spacing" in err["message"]
    assert not list(tmp_path.glob("tiny*"))


BEYOND_PECLET_CAP = {
    "grid": {"lambda_min": 0.0, "lambda_max": 1e9, "lambda_step": 1e9},
    "negative": {"lambda_min": -1.7e308, "lambda_max": 0.0, "lambda_step": 1e308},
    "profile": {"lambda_min": 0.0, "lambda_max": 0.0, "profile_lambdas": [0.5, 1e9]},
}


@pytest.mark.parametrize("command, case", [("eigen", "grid"), ("eigen", "negative"),
                                           ("eigen", "profile"), ("speed", "grid"),
                                           ("speed", "negative")])
def test_lambda_past_the_peclet_cap_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                                          command, case):
    # lambda = 1e9 needs about 1e9 cells for h |lambda| sigma_max <= sigma_min,
    # past the 2^20 cap; lambda = 0 comes first in the grid and must not be solved
    def no_solve(*args, **kwargs):
        raise AssertionError("a lambda was solved before every lambda was checked")

    monkeypatch.setattr(eigen, "k_of_lambda", no_solve)
    payload = dict(BEYOND_PECLET_CAP[case], coefficients=HOMOG_COEFFS)
    assert run(tmp_path, command, payload, out="big") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    err = json.loads(err)
    assert err["error"] == "validation"
    assert "refinement cap" in err["message"] and len(err["message"]) < 200
    assert not list(tmp_path.glob("big*"))


FIRST_LEVEL_PAST_HALF_CAP = {
    "eigen": {"n_cells": 786432, "lambda_min": 0.0, "lambda_max": 0.0},
    "dirichlet": {"radii": [5000.0]},                 # 640 000 cells on its first level
}


@pytest.mark.parametrize("command", sorted(FIRST_LEVEL_PAST_HALF_CAP))
def test_first_level_the_cap_cannot_double_exits_2_before_solving(tmp_path, capsys,
                                                                  monkeypatch, command):
    # refinement solves the first level and then its double, so a first level
    # above REFINE_CAP // 2 = 524 288 cells could only end in a NumericalError
    def no_solve(*args, **kwargs):
        raise AssertionError("a Perron solve ran on a level the cap cannot double")

    monkeypatch.setattr(eigen, "principal_eigenpair", no_solve)
    payload = dict(FIRST_LEVEL_PAST_HALF_CAP[command], coefficients=HOMOG_COEFFS)
    assert run(tmp_path, command, payload, out="big") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200
    err = json.loads(err)
    assert err["error"] == "validation" and "refinement cap" in err["message"]
    assert not list(tmp_path.glob("big*"))


# -- speed --------------------------------------------------------------------------

def test_speed_report_and_curve(tmp_path):
    payload = {"coefficients": HOMOG_COEFFS,
               "lambda_min": 0.5, "lambda_max": 1.5, "lambda_step": 0.5}
    assert run(tmp_path, "speed", payload) == 0
    report = json.loads((tmp_path / "out_speed.json").read_text())
    assert abs(report["c_right"] - 2.0) < 1e-4
    assert abs(report["c_left"] - 2.0) < 1e-4
    assert report["hair_trigger"] is True
    assert "config_hash" in report
    lines = (tmp_path / "out_kcurve.csv").read_text().splitlines()
    assert lines[1] == "lambda,k,k_over_lambda"
    lam, k, q = (float(x) for x in lines[2].split(","))
    assert q == pytest.approx(k / lam)


def test_speed_verbose_reports_k_evals_on_stderr(tmp_path, capsys, monkeypatch):
    payload = {"coefficients": HOMOG_COEFFS,
               "lambda_min": 0.5, "lambda_max": 1.5, "lambda_step": 0.5}
    cfg = write_config(tmp_path, payload)
    assert main(["speed", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().err == ""
    solves = {}
    spreading_speeds, k_curve = speeds.spreading_speeds, eigen.k_curve

    def keep_searches(*args, **kwargs):
        report = spreading_speeds(*args, **kwargs)
        solves.update(report.solves)
        return report

    def keep_curve(*args, **kwargs):
        solves["curve"] = k_curve(*args, **kwargs)
        return solves["curve"]

    monkeypatch.setattr(speeds, "spreading_speeds", keep_searches)
    monkeypatch.setattr(eigen, "k_curve", keep_curve)
    assert main(["speed", "--config", cfg, "--out", str(tmp_path / "loud"), "--verbose"]) == 0
    line, = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["command"] == "speed"
    assert sorted(record["k_evals"]) == ["curve", "k_min", "left", "right"]
    assert record["k_evals"]["curve"] == 3
    assert all(n > 0 for n in record["k_evals"].values())
    searches = sorted(record["k_evals"])
    assert list(record)[-1] == "restarts"
    assert sorted(record) == ["bracket_width", "command", "factorizations", "finest_cells",
                              "iterations", "k_evals", "levels", "pivoted", "residual",
                              "restarts"]
    assert (sorted(record["iterations"]) == sorted(record["levels"])
            == sorted(record["factorizations"]) == sorted(record["finest_cells"])
            == sorted(record["pivoted"]) == sorted(record["residual"])
            == sorted(record["bracket_width"]) == sorted(record["restarts"]) == sorted(solves)
            == searches)
    for search in searches:
        # the Perron solves of each search, tilt_slope's left ones included
        assert record["iterations"][search] == sum(r.iterations for r in solves[search])
        assert record["k_evals"][search] == len(solves[search])
        # every k(lambda) solve takes at least two grid levels
        assert record["levels"][search] >= 2 * record["k_evals"][search]
        assert record["factorizations"][search] >= record["levels"][search]
        assert record["pivoted"][search] == sum(r.pivoted for r in solves[search])
        assert record["restarts"][search] == sum(r.restarts for r in solves[search])
        assert record["finest_cells"][search] >= 128
        # the largest residual and Collatz-Wielandt bracket width of the search
        assert record["residual"][search] == max(r.residual for r in solves[search]) > 0
        assert record["bracket_width"][search] == max(r.bracket[1] - r.bracket[0]
                                                      for r in solves[search]) >= 0
    for suffix in ("speed.json", "kcurve.csv"):
        assert ((tmp_path / f"loud_{suffix}").read_bytes()
                == (tmp_path / f"quiet_{suffix}").read_bytes())


@pytest.mark.parametrize("command", ["eigen", "dirichlet"])
def test_verbose_reports_eigen_solver_counts_on_stderr(tmp_path, capsys, monkeypatch,
                                                       command):
    payload = DETERMINISM_PAYLOADS[command]
    assert run(tmp_path, command, payload, out="quiet") == 0
    assert capsys.readouterr().err == ""
    results = []

    def kept(solve):
        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]
        return spy
    for name in ("k_of_lambda", "dirichlet_eigenvalue"):
        monkeypatch.setattr(eigen, name, kept(getattr(eigen, name)))
    assert run(tmp_path, command, payload, out="loud", verbose=True) == 0
    line, = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record.pop("command") == command
    assert sorted(record) == ["bracket_width", "factorizations", "finest_cells", "iterations",
                              "levels", "pivoted", "residual", "restarts"]
    assert list(record)[-1] == "restarts"
    solves = 5 + 1 if command == "eigen" else 2       # curve and profile, or radii
    # every solve takes at least two grid levels, each at least one factorization
    assert record["levels"] >= 2 * solves
    assert record["iterations"] >= record["factorizations"] >= record["levels"]
    assert record["factorizations"] >= record["pivoted"] >= 0
    # at most one restart per level above a solve's first
    assert record["levels"] - solves >= record["restarts"] >= 0
    assert record["finest_cells"] >= 128
    # the largest residual and Collatz-Wielandt bracket width of the solves
    assert len(results) == solves
    assert record["residual"] == max(r.residual for r in results) > 0
    assert record["bracket_width"] == max(r.bracket[1] - r.bracket[0] for r in results) >= 0
    for quiet in tmp_path.glob("quiet_*"):
        loud = tmp_path / quiet.name.replace("quiet_", "loud_")
        assert loud.read_bytes() == quiet.read_bytes()


@pytest.mark.parametrize("command, steps", [("simulate", 100), ("stationary", 1),
                                            ("ode", 1000)])
def test_verbose_reports_step_counts_on_stderr(tmp_path, capsys, command, steps):
    payload = DETERMINISM_PAYLOADS[command]
    assert run(tmp_path, command, payload, out="quiet") == 0
    assert capsys.readouterr().err == ""
    assert run(tmp_path, command, payload, out="loud", verbose=True) == 0
    line, = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record.pop("command") == command
    if command == "ode":
        # this orbit does not reach a fixed point of the RK4 map in 1000 steps
        assert record == {"steps": steps, "computed_steps": steps}
    else:
        # the homogeneous set needs one substep per step at these dt
        assert record == {"steps": steps, "substeps": steps, "max_clip": 0.0}


def test_speed_on_decaying_medium_is_validation_error(tmp_path):
    coeffs = dict(HOMOG_COEFFS)
    coeffs["r_u"] = {"kind": "constant", "value": -0.5}
    coeffs["r_v"] = {"kind": "constant", "value": -0.5}
    assert run(tmp_path, "speed", {"coefficients": coeffs}) == 2


DYING_COEFFS = dict(HOMOG_COEFFS, r_u={"kind": "constant", "value": -0.5},
                    r_v={"kind": "constant", "value": -0.5})


@pytest.mark.parametrize("coeffs, spreads", [(HOMOG_COEFFS, True), (DYING_COEFFS, False)],
                         ids=["spreading", "dying"])
def test_hair_trigger_indicators_agree_on_the_artifacts(tmp_path, capsys, coeffs, spreads):
    # The three equivalent hair-trigger indicators, each read from an artifact:
    # the largest Dirichlet eigenvalue over the radii L..64L, min k (the speed
    # report's k_min, which the eigen curve's minimum matches on these sets), and
    # the two spreading speeds, which exist only when k(0) > 0.
    radii = [2.0 ** j for j in range(7)]                  # period 1
    assert run(tmp_path, "dirichlet", {"coefficients": coeffs, "radii": radii}) == 0
    rows = (tmp_path / "out_dirichlet.csv").read_text().splitlines()[2:]
    dirichlet_max = max(float(row.split(",")[1]) for row in rows)
    assert run(tmp_path, "eigen", {"coefficients": coeffs}) == 0
    rows = (tmp_path / "out_kcurve.csv").read_text().splitlines()[2:]
    curve_min = min(float(row.split(",")[1]) for row in rows)
    capsys.readouterr()
    status = run(tmp_path, "speed", {"coefficients": coeffs}, out="sp")
    if spreads:
        assert dirichlet_max > 1e-4
        assert status == 0
        report = json.loads((tmp_path / "sp_speed.json").read_text())
        assert report["hair_trigger"] is True
        assert min(report["c_right"], report["c_left"]) > 1e-4
        assert report["k_min"] == pytest.approx(1.0, abs=1e-5)
        assert report["k_min"] == pytest.approx(curve_min, abs=1e-5)
    else:
        assert dirichlet_max < -1e-4
        assert status == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"
        assert not list(tmp_path.glob("sp_*"))
        assert curve_min == pytest.approx(-0.5, abs=1e-5)


# -- ode ----------------------------------------------------------------------------

def test_ode_run_with_lyapunov_column(tmp_path):
    payload = {"params": {"sigma": 1.0, "r_u": 1.0, "r_v": 1.0, "kappa_u": 1.0,
                          "kappa_v": 1.0, "mu_u": 0.25, "mu_v": 0.25},
               "u0": 0.9, "v0": 0.1, "T": 5.0, "dt": 0.001}
    assert run(tmp_path, "ode", payload) == 0
    report = json.loads((tmp_path / "out_ode.json").read_text())
    assert report["lambda_A"] == pytest.approx(1.0)
    assert report["equilibrium"] == pytest.approx([0.5, 0.5])
    assert report["lyapunov_K"] == pytest.approx(7.0)
    lines = (tmp_path / "out_trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,u,v,lyapunov"
    lyap = np.array([float(line.split(",")[3]) for line in lines[2:]])
    assert np.all(np.diff(lyap) <= 1e-12)


def test_ode_extinction_has_no_lyapunov_column(tmp_path):
    payload = {"params": {"sigma": 1.0, "r_u": -0.5, "r_v": -0.5, "kappa_u": 1.0,
                          "kappa_v": 1.0, "mu_u": 0.5, "mu_v": 0.5},
               "u0": 0.3, "v0": 0.4, "T": 2.0}
    assert run(tmp_path, "ode", payload) == 0
    lines = (tmp_path / "out_trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,u,v"
    report = json.loads((tmp_path / "out_ode.json").read_text())
    assert report["equilibrium"] is None


# -- simulate ---------------------------------------------------------------------------

def test_simulate_outputs(tmp_path):
    payload = {"coefficients": HOMOG_COEFFS,
               "domain": {"x_min": -30.0, "x_max": 90.0, "n_points": 1024},
               "initial": {"kind": "right_front_like", "amplitude": 0.5,
                           "x_on": -10.0, "x_off": 0.0},
               "T": 25.0, "dt": 0.02, "record_every": 0.25, "snapshot_every": 12.5}
    assert run(tmp_path, "simulate", payload) == 0
    report = json.loads((tmp_path / "out_speeds.json").read_text())
    assert report["right_reliable"] is True
    assert abs(report["c_right"] - 2.0) < 0.2
    assert report["theta"] == pytest.approx(0.01)
    front = (tmp_path / "out_front.csv").read_text().splitlines()
    assert front[1] == "t,x_right,x_left"
    snaps = sorted(tmp_path.glob("out_snapshot_*.csv"))
    assert len(snaps) == 2
    first = snaps[0].read_text().splitlines()
    assert first[1] == "# t=12.5"
    assert first[2] == "x,u,v"


@pytest.mark.parametrize("option, value", [("window", 2.0), ("snapshot_every", 0),
                                           ("snapshot_every", -1), ("theta", -1.0),
                                           ("record_every", 1.5)])
def test_simulate_run_option_out_of_range_exits_2_before_stepping(tmp_path, capsys,
                                                                 monkeypatch, option, value):
    # the payload runs 100 steps of 0.01 to T = 1
    def stepped(*args, **kwargs):
        raise AssertionError("an IMEX step ran")

    monkeypatch.setattr(pde.Stepper, "advance", stepped)
    payload = dict(DETERMINISM_PAYLOADS["simulate"], **{option: value})
    assert run(tmp_path, "simulate", payload, out="bad") == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation" and option in err["message"]
    assert not list(tmp_path.glob("bad*"))


# -- stationary / homogenize --------------------------------------------------------------

def test_stationary_profile_command(tmp_path):
    payload = {"coefficients": HOMOG_COEFFS, "n_cells": 256}
    assert run(tmp_path, "stationary", payload) == 0
    lines = (tmp_path / "out_stationary.csv").read_text().splitlines()
    assert lines[1] == "x,u,v"
    u = np.array([float(line.split(",")[1]) for line in lines[2:]])
    assert np.max(np.abs(u - 0.5)) < 1e-6


@pytest.mark.parametrize("n_cells", [0, -4])
def test_stationary_too_few_cells_exits_2_without_files(tmp_path, capsys, n_cells):
    payload = {"coefficients": HOMOG_COEFFS, "n_cells": n_cells}
    assert run(tmp_path, "stationary", payload, out="bad") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "n_cells" in err["message"]
    assert not list(tmp_path.glob("bad*"))


# -- convergence behind the front, read from the artifacts -------------------------------
# Behind the front every positive solution converges to the positive stationary
# pair: `stationary` writes that pair on one cell, `simulate` the states, and the
# distance between them is taken over the cone |x| <= t of each snapshot.

def csv_columns(path) -> np.ndarray:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]]).T


def distances_behind_front(tmp_path, coeffs, n_cells, payload) -> np.ndarray:
    """sup over |x| <= t of |(u, v) - stationary pair| at each snapshot of a
    `simulate` run, the pair tiled from a `stationary` run on n_cells."""
    assert run(tmp_path, "stationary", {"coefficients": coeffs, "n_cells": n_cells}) == 0
    cell_x, cell_u, cell_v = csv_columns(tmp_path / "out_stationary.csv")
    assert run(tmp_path, "simulate", dict(payload, coefficients=coeffs)) == 0
    L, sups = coeffs["period"], []
    for i in range(len(list(tmp_path.glob("out_snapshot_*.csv")))):
        path = tmp_path / f"out_snapshot_{i}.csv"
        t = float(path.read_text().splitlines()[1].removeprefix("# t="))
        x, u, v = csv_columns(path)
        cone = np.abs(x) <= t
        cell = np.mod(x[cone], L)
        sups.append(max(np.max(np.abs(u[cone] - np.interp(cell, cell_x, cell_u, period=L))),
                        np.max(np.abs(v[cone] - np.interp(cell, cell_x, cell_v, period=L)))))
    return np.array(sups)


def test_convergence_from_stationary_data_is_noise(tmp_path):
    assert run(tmp_path, "stationary", {"coefficients": HOMOG_COEFFS, "n_cells": 256}) == 0
    u_star = csv_columns(tmp_path / "out_stationary.csv")[1][0]
    payload = {"domain": {"x_min": -30.0, "x_max": 30.0, "n_points": 512},
               "initial": {"kind": "constant_pair", "amplitude": u_star},
               "T": 5.0, "dt": 0.01, "record_every": 1.0, "snapshot_every": 1.0}
    sups = distances_behind_front(tmp_path, HOMOG_COEFFS, 256, payload)
    assert sups[-1] < 1e-8


BUMP_RUN = {"domain": {"x_min": -80.0, "x_max": 80.0, "n_points": 1024},
            "initial": {"kind": "compact_bump", "amplitude": 0.3, "center": 0.0, "width": 3.0},
            "T": 30.0, "dt": 0.02, "record_every": 2.0, "snapshot_every": 2.0}


def test_convergence_behind_front_decreases(tmp_path):
    sups = distances_behind_front(tmp_path, HOMOG_COEFFS, 512, BUMP_RUN)
    assert sups[-1] < 0.02 * coefficients.set_from_dict(HOMOG_COEFFS).k_bar
    assert sups[-1] < sups[2]


def test_convergence_behind_front_oscillating_medium(tmp_path):
    # the cosine growth rates of period 1, rescaled to period 1/4
    coeffs = dict(HOMOG_COEFFS, period=0.25,
                  r_u={"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 0.3},
                  r_v={"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 1.1})
    sups = distances_behind_front(tmp_path, coeffs, 512, BUMP_RUN)
    assert sups[-1] < 0.02 * coefficients.set_from_dict(coeffs).k_bar
    assert sups[-1] < sups[2]


# -- hostile configs, run in one child process ------------------------------------------
# Every config of this section runs the CLI in one child process with a 3 GiB
# address space, so that a size or a step count that got past the checks fails
# fast instead of exhausting memory.  Never run them without that limit.  The
# child imports rdfronts.cli once and runs each config through cli.main under a
# 30 s alarm of its own.

ADDRESS_SPACE = 3 * 2 ** 30
CONFIG_SECONDS = 30

# argv: address space, seconds per config, the cases file, the report file.
# A case is (argv, --out prefix, whether to run it as python -m rdfronts); its
# run is reported as the exit status, the stderr lines and the files written.
CHILD = """
import contextlib, glob, io, json, resource, runpy, signal, sys, traceback, warnings

limit, seconds, cases_path, report_path = int(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:]
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import rdfronts.cli

report = {"scipy.optimize": "scipy.optimize" in sys.modules,
          "RLIMIT_AS": resource.getrlimit(resource.RLIMIT_AS), "runs": []}


class Timeout(BaseException):
    pass


def on_alarm(signum, frame):
    raise Timeout


signal.signal(signal.SIGALRM, on_alarm)
with open(cases_path) as fh:
    cases = json.load(fh)
for argv, out, as_module in cases:
    stderr = io.StringIO()
    signal.alarm(seconds)
    try:
        # catch_warnings forgets which warnings were shown, so each config
        # prints its own as a child of its own would
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \\
                warnings.catch_warnings():
            try:
                if as_module:                    # python -m rdfronts, which exits
                    sys.argv = ["rdfronts", *argv]
                    runpy.run_module("rdfronts", run_name="__main__")
                else:
                    status = rdfronts.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                traceback.print_exc()
                status = 1
    except Timeout:
        status = "timeout"
    finally:
        signal.alarm(0)
    report["runs"].append({"status": status, "stderr": stderr.getvalue().splitlines(),
                           "files": sorted(glob.glob(glob.escape(out) + "*"))})
with open(report_path, "w") as fh:
    json.dump(report, fh)
"""


def constant(value):
    return {"kind": "constant", "value": value}


HUGE_PERIOD = {key: dict(spec, period=1e300) if isinstance(spec, dict) else 1e300
               for key, spec in HOMOG_COEFFS.items()}
HUGE_SIGMA = dict(HOMOG_COEFFS, sigma=constant(1e305))


def ode_with(**params):
    """DETERMINISM_PAYLOADS' ode config with these parameters changed."""
    payload = DETERMINISM_PAYLOADS["ode"]
    return dict(payload, params=dict(payload["params"], **params))


# case -> (command, payload, word the validation message names)
HUGE = {
    "stationary-n_cells": ("stationary", {"coefficients": HOMOG_COEFFS, "n_cells": 10 ** 9},
                           "n_cells"),
    "simulate-n_points": ("simulate", dict(DETERMINISM_PAYLOADS["simulate"], domain={
        "x_min": -10.0, "x_max": 20.0, "n_points": 10 ** 9}), "points"),
    "eigen-lambda_step": ("eigen", {"coefficients": HOMOG_COEFFS, "lambda_step": 1e-12},
                          "lambda grid"),
    # step counts past util.STEP_CAP: T / dt overflows, or asks for 1e12 steps
    "simulate-T-overflow": ("simulate", dict(DETERMINISM_PAYLOADS["simulate"], T=1e300,
                                             dt=1e-10), "steps"),
    "simulate-T-1e9": ("simulate", dict(DETERMINISM_PAYLOADS["simulate"], T=1e9, dt=1e-3),
                       "steps"),
    "ode-T-overflow": ("ode", dict(DETERMINISM_PAYLOADS["ode"], T=1e300), "steps"),
    "ode-T-1e9": ("ode", dict(DETERMINISM_PAYLOADS["ode"], T=1e9, dt=1e-3), "steps"),
    # grid spacings whose square overflows or underflows
    "speed-period": ("speed", {"coefficients": HUGE_PERIOD}, "grid spacing"),
    "dirichlet-radius": ("dirichlet", {"coefficients": HOMOG_COEFFS, "radii": [1e-300]},
                         "grid spacing"),
    # sigma / h**2 overflows in the stencil's diagonal
    "speed-sigma": ("speed", {"coefficients": HUGE_SIGMA}, "not finite"),
    "dirichlet-sigma": ("dirichlet", {"coefficients": HUGE_SIGMA, "radii": [1.0]},
                        "not finite"),
    "stationary-sigma": ("stationary", {"coefficients": HUGE_SIGMA}, "not finite"),
    # a square in the closed forms of lambda_A and of the equilibrium overflows
    "ode-r_u": ("ode", ode_with(r_u=1e160), "overflows"),
    "ode-kappa_u": ("ode", ode_with(kappa_u=1e300), "overflows"),
    # ... and of the Lyapunov weight; a product in the equilibrium, a
    # radicand of lambda_A, and a divisor 2 mu_u kappa_u that underflows to 0
    "ode-kappa_v": ("ode", ode_with(kappa_v=1e300), "overflows"),
    "ode-kappa_u-tiny": ("ode", ode_with(kappa_u=1e-300), "overflows"),
    "ode-mu": ("ode", ode_with(mu_u=1e200, mu_v=1e200), "overflows"),
    "ode-mu_u-kappa_u-tiny": ("ode", ode_with(mu_u=1e-200, kappa_u=1e-200), "overflows"),
    "sweep-r_u": ("sweep", {"coefficients": dict(HOMOG_COEFFS, r_u=constant(1e300)),
                            "epsilons": [1.0]}, "overflows"),
}

# Kinetic data whose first RK4 steps overflow to inf - inf = NaN, which the
# blow-up guard must catch as it catches a large finite state.
ODE_NAN = {
    "u0-1e100": dict(DETERMINISM_PAYLOADS["ode"], u0=1e100),
    "u0-1e300": dict(DETERMINISM_PAYLOADS["ode"], u0=1e300),
    "v0-1e100": dict(DETERMINISM_PAYLOADS["ode"], v0=1e100),
    "kappa_v-1e200": ode_with(kappa_v=1e200),
}

# disc about 2.7e10, where the v equation's sum for S, r_v - mu_v + mu_u Q,
# cancels (condition number 1.8e11), so S comes from the u equation; dt
# keeps RK4 stable against mu_v = 4.76e5
CANCELLING_V_SUM = dict(ode_with(sigma=1.28, r_u=0.292, r_v=0.76, kappa_u=352.0,
                                 kappa_v=0.00627, mu_u=4.82e-7, mu_v=4.76e5), T=0.01, dt=2e-6)

# Reaction substeps past util.STEP_CAP in all: a step of dt takes
# dt * Lipschitz / 0.25 of them, and stationary takes up to 80 000 steps.
# The step count of stationary-t_max-overflow and the Lipschitz bound of
# simulate-overflow pass the float range.
SIMULATE = DETERMINISM_PAYLOADS["simulate"]
SUBSTEPS = {
    "stationary-r_u": ("stationary", {"coefficients": dict(HOMOG_COEFFS, r_u=constant(1e300))}),
    "stationary-r_u-1e6": ("stationary", {"coefficients": dict(HOMOG_COEFFS,
                                                                r_u=constant(1e6))}),
    "stationary-t_max-overflow": ("stationary", {"coefficients": HOMOG_COEFFS, "t_max": 1e308}),
    "simulate-amplitude": ("simulate", dict(SIMULATE, initial=dict(SIMULATE["initial"],
                                                                   amplitude=1e300))),
    **{f"simulate-{key}": ("simulate", dict(SIMULATE, coefficients=dict(
        HOMOG_COEFFS, **{key: constant(1e300)}))) for key in ("r_u", "mu_u", "kappa_u")},
    "simulate-dt": ("simulate", dict(SIMULATE, dt=1e300, T=1e301)),
    "simulate-overflow": ("simulate", dict(SIMULATE, coefficients=dict(
        HOMOG_COEFFS, r_u=constant(1e300), kappa_u=constant(1e300)))),
}

# -- the rejection table, read from the command schemas
# Each ill-typed value goes, one at a time, into every key of every command
# (optional keys inserted), every field of every read_dataclass object, and
# every key of the coefficient set and of each coefficient kind, wherever
# that key's own reader rejects it.  The integer stands where a list, an
# object or a string is due, the list of a string where a number or a list
# of numbers is.
ILL_TYPED = {"list": [], "dict": {}, "str": "x", "true": True, "null": None,
             "past-float-range": 10 ** 400, "int": 5, "str-list": ["x"]}

# Every command that takes a coefficient set reads it by one reader, so the
# set's own keys are walked through this command alone.
COEFFICIENT_COMMAND = "eigen"
READ_SET = COMMANDS[COEFFICIENT_COMMAND][1]["coefficients"][0]


def _read_spec(val, name):
    return coefficients.spec_from_dict(val, 1.0, name)


# set_from_dict reads the period first, then each coefficient by spec_from_dict
SET_SCHEMA = {**coefficients._SET_SCHEMA,
              **{name: (_read_spec, REQUIRED) for name in coefficients.COEFFICIENT_NAMES}}
# spec_from_dict reads kind and period, then the keys of the kind.  A missing
# kind has a message of its own: the {} case of each coefficient name.
SPEC_KEYS = {"kind": (string, None), "period": (number, 1.0)}
# a valid spec of each kind, put in place of sigma
SPECS = {"constant": constant(1.0),
         "cosine": {"kind": "cosine", "mean": 1.0, "amplitude": 0.1},
         "piecewise_constant": {"kind": "piecewise_constant", "breakpoints": [0.0],
                                "values": [1.0]},
         "table": {"kind": "table", "samples": [1.0]}}
SIGMA = ("coefficients", "sigma")


def _object_reader(read):
    """(context, schema) of a reader that reads a JSON object key by key, else None."""
    if read is READ_SET:
        return "coefficient set", SET_SCHEMA
    found = inspect.getclosurevars(read).nonlocals
    if dataclasses.is_dataclass(found.get("cls")):       # util.read_dataclass
        return found["context"], found["schema"]
    return None


def _rejects(read, value, name) -> bool:
    try:
        read(value, name)
    except ValidationError:
        return True
    return False


REMOVED = object()


def _edited(payload, path, value=REMOVED):
    """A copy of payload with `value` at path, a tuple of keys, or without that key."""
    payload = copy.deepcopy(payload)
    *parents, key = path
    obj = functools.reduce(operator.getitem, parents, payload)
    if value is REMOVED:
        del obj[key]
    else:
        obj[key] = value
    return payload


class Case(NamedTuple):
    what: str            # "ill-typed", "unknown" or "missing"
    command: str
    path: tuple          # keys down to the value, or to the object of an unknown key
    payload: dict
    expected: str        # what the message names, or the whole message of a key case
    tag: str = ""        # the ILL_TYPED value


def _walk(command, payload, path, context, schema):
    """The cases of the object at path, read by `schema` under `context`,
    and of the objects inside it."""
    last = list(schema)[-1]
    typo = last + last[-1]
    yield Case("unknown", command, path, _edited(payload, (*path, typo), 0.0),
               f"unknown keys ['{typo}'] in {context}")
    for key, (read, default) in schema.items():
        if default is REQUIRED:
            yield Case("missing", command, (*path, key), _edited(payload, (*path, key)),
                       f"missing keys ['{key}'] in {context}")
        inner = _object_reader(read)
        name = inner[0] if inner else f"{context}.{key}"
        for tag, value in ILL_TYPED.items():
            if _rejects(read, value, name):
                yield Case("ill-typed", command, (*path, key),
                           _edited(payload, (*path, key), value), name, tag)
        if inner and (read is not READ_SET or command == COEFFICIENT_COMMAND):
            yield from _walk(command, payload, (*path, key), *inner)


def _schema_cases():
    for command, (_, schema) in COMMANDS.items():
        yield from _walk(command, DETERMINISM_PAYLOADS[command], (), f"{command} config", schema)
    for kind, (_, schema) in coefficients._SPEC_SCHEMAS.items():
        payload = _edited(DETERMINISM_PAYLOADS[COEFFICIENT_COMMAND], SIGMA, SPECS[kind])
        common = SPEC_KEYS if kind == "constant" else {}
        yield from _walk(COEFFICIENT_COMMAND, payload, SIGMA, "coefficient set.sigma",
                         {**common, **schema})


def _coefficient_label(path) -> str:
    """set-period, a coefficient name, spec-kind, spec-period or a key of a kind."""
    parent, key = path[-2:]
    if parent == "coefficients":
        return "set-period" if key == "period" else key
    return f"spec-{key}" if key in SPEC_KEYS else key


SCHEMA_CASES = list(_schema_cases())
ILL_TYPED_WALK = [case for case in SCHEMA_CASES if case.what == "ill-typed"]


def _in_the_set(path) -> bool:
    return len(path) > 1 and path[0] == "coefficients"


ILL_TYPED_CASES = {f"{c.command}-{'.'.join(c.path)}-{c.tag}": c
                   for c in ILL_TYPED_WALK if not _in_the_set(c.path)}
# the coefficient set's own keys, walked through COEFFICIENT_COMMAND
COEFFICIENT_CASES = {f"{_coefficient_label(c.path)}-{c.tag}": c
                     for c in ILL_TYPED_WALK if _in_the_set(c.path)}
# "unknown" | "missing" -> command -> {path: case}
KEY_CASES = {what: {command: {".".join(c.path) or "config": c for c in SCHEMA_CASES
                              if c.what == what and c.command == command}
                    for command in COMMANDS}
             for what in ("unknown", "missing")}

CHILD_CONFIGS = {
    **{f"huge/{case}": (command, payload, ()) for case, (command, payload, _) in HUGE.items()},
    **{f"substeps/{case}": (command, payload, ()) for case, (command, payload) in SUBSTEPS.items()},
    **{f"ode-nan/{case}": ("ode", payload, ()) for case, payload in ODE_NAN.items()},
    "ode/cancelling-v-sum": ("ode", CANCELLING_V_SUM, ()),
    # epsilon = 1e-300 squeezes the period until h**2 underflows
    "sweep/vanishing": ("sweep", {"coefficients": HOMOG_COEFFS, "epsilons": [1e-300]},
                        ("--verbose",)),
    **{f"ill-typed/{key}": (c.command, c.payload, ()) for key, c in ILL_TYPED_CASES.items()},
    **{f"coefficients/{key}": (c.command, c.payload, ()) for key, c in COEFFICIENT_CASES.items()},
    **{f"{what}/{command}/{path}": (c.command, c.payload, ())
       for what, commands in KEY_CASES.items() for command, cases in commands.items()
       for path, c in cases.items()},
}
MODULE_RUN = "huge/stationary-n_cells"          # run as python -m rdfronts


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """The child's report: {"scipy.optimize": whether importing rdfronts.cli
    loaded it, "RLIMIT_AS": its limits, "runs": {config: run}}."""
    root = tmp_path_factory.mktemp("hostile")
    cases = []
    for i, (key, (command, payload, flags)) in enumerate(CHILD_CONFIGS.items()):
        config, out = root / f"{i}.json", str(root / f"{i}_out")
        config.write_text(json.dumps(payload))
        cases.append(([command, "--config", str(config), "--out", out, *flags], out,
                      key == MODULE_RUN))
    (root / "cases.json").write_text(json.dumps(cases))
    src = str(Path(rdfronts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(CONFIG_SECONDS),
                           str(root / "cases.json"), str(root / "report.json")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((root / "report.json").read_text())
    assert report["RLIMIT_AS"] == [ADDRESS_SPACE, ADDRESS_SPACE]
    report["runs"] = dict(zip(CHILD_CONFIGS, report["runs"]))
    return report


def validation_message(run) -> str:
    """The message of a run that exited 2 with one JSON line on stderr and wrote no file."""
    assert run["status"] == 2, run
    line, = run["stderr"]
    err = json.loads(line)
    assert sorted(err) == ["error", "message"] and err["error"] == "validation"
    assert run["files"] == []
    return err["message"]


@pytest.mark.parametrize("case", HUGE)
def test_huge_size_exits_2_before_allocating(child, case):
    assert HUGE[case][2] in validation_message(child["runs"][f"huge/{case}"])


@pytest.mark.parametrize("case", SUBSTEPS)
def test_substeps_past_the_step_cap_exit_2_before_stepping(child, case):
    message = validation_message(child["runs"][f"substeps/{case}"])
    assert "substeps" in message and len(message) < 200


@pytest.mark.parametrize("case", ODE_NAN)
def test_ode_orbit_that_turns_nan_exits_3_without_files(child, case):
    run = child["runs"][f"ode-nan/{case}"]
    assert run["status"] == 3, run
    line, = run["stderr"]
    err = json.loads(line)
    assert err["error"] == "numerical" and "blew up" in err["message"]
    assert run["files"] == []


def test_sweep_row_with_a_vanishing_grid_spacing_carries_the_error(child):
    # the row fails alone, and stderr holds the --verbose line and nothing else
    run = child["runs"]["sweep/vanishing"]
    assert run["status"] == 0, run["stderr"]
    line, = run["stderr"]
    assert json.loads(line) == {"command": "sweep", "k_evals": 0}
    path, = run["files"]
    row = Path(path).read_text().splitlines()[2].split(",")
    assert row[0] == "1e-300" and row[6].startswith("ValidationError: grid spacing")


def test_cli_import_leaves_scipy_optimize_out(child):
    # importing scipy.optimize adds about a quarter second to every CLI start
    assert child["scipy.optimize"] is False


@pytest.mark.parametrize("case", ILL_TYPED_CASES)
def test_ill_typed_value_exits_2_without_files(child, case):
    assert ILL_TYPED_CASES[case].expected in validation_message(
        child["runs"][f"ill-typed/{case}"])


@pytest.mark.parametrize("case", COEFFICIENT_CASES)
def test_malformed_coefficient_value_exits_2_without_files(child, case):
    assert COEFFICIENT_CASES[case].expected in validation_message(
        child["runs"][f"coefficients/{case}"])


def assert_key_cases(child, what, command):
    cases = KEY_CASES[what][command]
    messages = {path: validation_message(child["runs"][f"{what}/{command}/{path}"])
                for path in cases}
    assert messages == {path: c.expected for path, c in cases.items()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_key_rejected(child, command):
    # a typo key in the config and in each object inside it
    assert_key_cases(child, "unknown", command)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_missing_required_key_rejected(child, command):
    # each required key of the config and of each object inside it, removed once
    assert_key_cases(child, "missing", command)


def _reads_an_object(read) -> bool:
    try:
        read({"not_a_key": 0.0}, "probe")
    except ValidationError as exc:
        return str(exc).startswith("unknown keys")
    return True


def test_the_walk_reaches_every_reader():
    # A nested object added to a schema fails here until _object_reader
    # descends into it.
    assert len(ILL_TYPED_CASES) + len(COEFFICIENT_CASES) == len(ILL_TYPED_WALK)   # ids unique
    reached = {(c.command, c.path) for c in ILL_TYPED_WALK}
    walked = {(c.command, c.path) for c in SCHEMA_CASES if c.what == "unknown"}
    for command, (_, schema) in COMMANDS.items():
        for key, (read, _) in schema.items():
            assert (command, (key,)) in reached
            if not _reads_an_object(read) or (read is READ_SET
                                              and command != COEFFICIENT_COMMAND):
                continue
            assert (command, (key,)) in walked
            if read is not READ_SET:                     # a read_dataclass target
                cls = inspect.getclosurevars(read).nonlocals["cls"]
                assert {(command, (key, f.name)) for f in dataclasses.fields(cls)} <= reached
    for name in SET_SCHEMA:
        assert (COEFFICIENT_COMMAND, ("coefficients", name)) in reached
    for kind, (_, schema) in coefficients._SPEC_SCHEMAS.items():
        for key in schema:
            assert any(c.path == (*SIGMA, key) and c.payload[SIGMA[0]][SIGMA[1]]["kind"] == kind
                       for c in ILL_TYPED_WALK)


def test_ode_equilibrium_from_a_cancelling_v_sum_is_written(child):
    run = child["runs"]["ode/cancelling-v-sum"]
    assert run["status"] == 0 and run["stderr"] == [], run
    path, = (path for path in run["files"] if path.endswith("_ode.json"))

    def reject(token):
        raise ValueError(token)
    report = json.loads(Path(path).read_text(), parse_constant=reject)
    u_star, v_star = report["equilibrium"]
    assert u_star > 0 and v_star > 0


def test_stationary_numerical_error_exits_3(tmp_path, capsys):
    payload = {"coefficients": HOMOG_COEFFS, "t_max": 0.2, "tolerance": 1e-14}
    assert run(tmp_path, "stationary", payload) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


def test_ode_equilibrium_underflowing_to_zero_exits_3(tmp_path, capsys):
    # mu_v = 1e-200 and kappa_u = 1e150: Q = u*/v* is about 1e-350, which
    # underflows to 0, so u* = 0, which the Lyapunov weight would divide by
    assert run(tmp_path, "ode", ode_with(mu_v=1e-200, kappa_u=1e150)) == 3
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "numerical"
    assert not list(tmp_path.glob("out_*"))


# disc about -6.9e6: disc + sqrt(disc^2 + 4 ratio mu_u mu_v) cancels, and u*
# is about 1.6e-8
NEGATIVE_DISC = {"sigma": 0.629, "r_u": 0.685, "r_v": 1.89, "kappa_u": 292.0,
                 "kappa_v": 7.95e-5, "mu_u": 0.0557, "mu_v": 4.76e-6}


@pytest.mark.parametrize("params", [NEGATIVE_DISC, {"mu_v": 1e-300}])
def test_ode_equilibrium_with_a_negative_disc_is_written(tmp_path, params):
    # the conjugate root keeps u* > 0 where disc < 0, down to mu_v = 1e-300
    assert run(tmp_path, "ode", ode_with(**params)) == 0
    report = json.loads((tmp_path / "out_ode.json").read_text())
    u_star, v_star = report["equilibrium"]
    assert 0 < u_star < 1e-7 and v_star > 0


def test_homogenize_with_an_overflowing_lambda_A_has_no_speed(tmp_path):
    coeffs = dict(HOMOG_COEFFS, r_u=constant(1e300))
    assert run(tmp_path, "homogenize", {"coefficients": coeffs}) == 0
    report = json.loads((tmp_path / "out_homogenized.json").read_text())
    assert report["homogenized_speed"] is None


def test_homogenize_command(tmp_path):
    coeffs = dict(HOMOG_COEFFS)
    coeffs["sigma"] = {"kind": "piecewise_constant",
                       "breakpoints": [0.0, 0.5], "values": [1.0, 4.0]}
    assert run(tmp_path, "homogenize", {"coefficients": coeffs}) == 0
    report = json.loads((tmp_path / "out_homogenized.json").read_text())
    assert report["sigma_H"] == pytest.approx(1.6)
    assert report["homogenized_speed"] == pytest.approx(2.0 * np.sqrt(1.6))


# -- sweep ----------------------------------------------------------------------------------

def test_single_element_sweep_matches_speed_run(tmp_path):
    cosine_coeffs = dict(HOMOG_COEFFS)
    cosine_coeffs["r_u"] = {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 0.3}
    assert run(tmp_path, "sweep", {"coefficients": cosine_coeffs,
                                   "epsilons": [1.0]}, out="sw") == 0
    assert run(tmp_path, "speed", {"coefficients": cosine_coeffs}, out="sp") == 0
    row = (tmp_path / "sw_sweep.csv").read_text().splitlines()[2].split(",")
    report = json.loads((tmp_path / "sp_speed.json").read_text())
    assert float(row[1]) == pytest.approx(report["c_right"], abs=1e-12)
    assert float(row[2]) == pytest.approx(report["c_left"], abs=1e-12)


def test_sweep_gap_decreases_and_target_constant(tmp_path):
    cosine_coeffs = dict(HOMOG_COEFFS)
    cosine_coeffs["r_u"] = {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 0.3}
    cosine_coeffs["r_v"] = {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 1.1}
    payload = {"coefficients": cosine_coeffs, "epsilons": [1.0, 0.5, 0.25]}
    assert run(tmp_path, "sweep", payload, jobs=2) == 0
    lines = (tmp_path / "out_sweep.csv").read_text().splitlines()
    assert lines[1] == "epsilon,c_right,c_left,target,gap_right,gap_left,error"
    rows = [line.split(",") for line in lines[2:]]
    targets = {row[3] for row in rows}
    assert len(targets) == 1
    gaps = [float(row[4]) for row in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert all(row[6] == "" for row in rows)


def test_sweep_with_two_workers_writes_the_bytes_of_one(tmp_path):
    # the rows carry the coefficient set itself to the worker processes, and
    # come back finished: three speed rows and, at epsilon 1e-300, an error row
    cosine_coeffs = dict(HOMOG_COEFFS)
    cosine_coeffs["r_u"] = {"kind": "cosine", "mean": 1.0, "amplitude": 0.4, "phase": 0.3}
    payload = {"coefficients": cosine_coeffs, "epsilons": [1.0, 0.5, 0.25, 1e-300]}
    assert run(tmp_path, "sweep", payload, out="one", jobs=1) == 0
    assert run(tmp_path, "sweep", payload, out="two", jobs=2) == 0
    one = (tmp_path / "one_sweep.csv").read_bytes()
    assert one == (tmp_path / "two_sweep.csv").read_bytes()
    lines = one.decode().splitlines()
    assert len(lines) == 2 + 4
    errors = [line.split(",")[6].split(":")[0] for line in lines[2:]]
    assert errors == ["", "", "", "ValidationError"]


def test_sweep_invalid_epsilon_rejected(tmp_path):
    assert run(tmp_path, "sweep", {"coefficients": HOMOG_COEFFS,
                                   "epsilons": [2.0]}) == 2


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, workers", [(1, []), (2, [2]), (8, [2])])
def test_sweep_starts_no_more_workers_than_rows(tmp_path, monkeypatch, jobs, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 0.5]}
    assert run(tmp_path, "sweep", payload, jobs=jobs) == 0
    assert RecordingPool.created == workers
    assert len((tmp_path / "out_sweep.csv").read_text().splitlines()) == 2 + 2


def test_sweep_starts_no_more_workers_than_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 0.5, 0.25]}
    assert run(tmp_path, "sweep", payload, jobs=64) == 0
    assert RecordingPool.created == [2]
    assert len((tmp_path / "out_sweep.csv").read_text().splitlines()) == 2 + 3


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 0.5]}
    assert run(tmp_path, "sweep", payload, out="bad", jobs=jobs) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "--jobs" in err["message"]
    assert RecordingPool.created == []
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("command", sorted(set(DETERMINISM_PAYLOADS) - {"sweep"}))
def test_jobs_is_a_sweep_option_only(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, DETERMINISM_PAYLOADS[command], jobs=2)
    assert exc.value.code == 2


def test_sweep_verbose_sums_the_k_solves_of_its_rows(tmp_path, capsys):
    # each row at epsilon 1 is the speed search of the unscaled set; two
    # workers carry their rows' counts back with the rows
    assert run(tmp_path, "speed", {"coefficients": HOMOG_COEFFS}, out="sp", verbose=True) == 0
    speed = json.loads(capsys.readouterr().err)
    per_row = sum(n for search, n in speed["k_evals"].items() if search != "curve")
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 1.0]}
    assert run(tmp_path, "sweep", payload, out="sw", verbose=True, jobs=2) == 0
    assert json.loads(capsys.readouterr().err) == {"command": "sweep",
                                                   "k_evals": 2 * per_row}


def test_homogenize_verbose_prints_its_command(tmp_path, capsys):
    assert run(tmp_path, "homogenize", {"coefficients": HOMOG_COEFFS}, verbose=True) == 0
    assert json.loads(capsys.readouterr().err) == {"command": "homogenize"}
