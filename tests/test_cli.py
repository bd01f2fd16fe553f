"""End-to-end CLI: configs, exit codes, determinism, file formats."""

import concurrent.futures
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdfronts
from rdfronts import eigen, pde, speeds
from rdfronts.cli import COMMANDS, _lambda_grid, main
from rdfronts.util import REQUIRED, config_hash

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
    # search and the curve dump on eigen's warm-started chains, sweep one
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


@pytest.mark.parametrize("command", sorted(DETERMINISM_PAYLOADS))
def test_unknown_key_rejected(tmp_path, capsys, command):
    payload = dict(DETERMINISM_PAYLOADS[command], lambda_stepp=0.1)
    assert run(tmp_path, command, payload, out="bad") == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation",
                   "message": f"unknown keys ['lambda_stepp'] in {command} config"}
    assert not list(tmp_path.glob("bad*"))


REQUIRED_KEY = {"eigen": "coefficients", "dirichlet": "radii", "speed": "coefficients",
                "ode": "u0", "simulate": "record_every", "stationary": "coefficients",
                "homogenize": "coefficients", "sweep": "epsilons"}


@pytest.mark.parametrize("command", sorted(REQUIRED_KEY))
def test_missing_required_key_rejected(tmp_path, capsys, command):
    key = REQUIRED_KEY[command]
    payload = {k: v for k, v in DETERMINISM_PAYLOADS[command].items() if k != key}
    assert run(tmp_path, command, payload, out="bad") == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation",
                   "message": f"missing keys ['{key}'] in {command} config"}
    assert not list(tmp_path.glob("bad*"))


COSINE = {"kind": "cosine", "mean": 1.0, "amplitude": 0.1}


@pytest.mark.parametrize("override, name", [
    pytest.param({"sigma": {"kind": "constant", "value": "abc"}}, "sigma.value", id="value-str"),
    pytest.param({"sigma": {"kind": "constant", "value": [1]}}, "sigma.value", id="value-list"),
    pytest.param({"sigma": {"kind": "constant", "value": None}}, "sigma.value", id="value-null"),
    pytest.param({"sigma": {"kind": "constant", "value": True}}, "sigma.value", id="value-true"),
    pytest.param({"sigma": {"kind": "constant", "value": 10 ** 400}}, "sigma.value",
                 id="value-past-float-range"),
    pytest.param({"sigma": {"kind": "piecewise_constant", "breakpoints": 5, "values": [1.0]}},
                 "sigma.breakpoints", id="breakpoints-int"),
    pytest.param({"sigma": {"kind": "table", "samples": ["a"]}}, "sigma.samples[0]",
                 id="samples-str"),
    pytest.param({"r_u": dict(COSINE, harmonics=5)}, "r_u.harmonics", id="harmonics-int"),
    pytest.param({"r_u": dict(COSINE, phase="p")}, "r_u.phase", id="phase-str"),
    pytest.param({"sigma": {"kind": "constant", "value": 1.0, "period": "x"}}, "sigma.period",
                 id="spec-period-str"),
    pytest.param({"sigma": "abc"}, "sigma", id="spec-str"),
    pytest.param({"period": "a"}, "coefficient set.period", id="set-period-str"),
])
def test_malformed_coefficient_value_exits_2_without_files(tmp_path, capsys, override, name):
    payload = {"coefficients": dict(HOMOG_COEFFS, **override)}
    assert run(tmp_path, "eigen", payload, out="bad") == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation" and name in err["message"]
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
    assert (sorted(record["iterations"]) == sorted(record["levels"])
            == sorted(record["factorizations"]) == sorted(record["finest_cells"])
            == sorted(solves) == searches)
    for search in searches:
        # the right Perron solves of each search; tilt_slope's left ones are not counted
        assert record["iterations"][search] == sum(r.iterations for r in solves[search])
        assert record["k_evals"][search] == len(solves[search])
        # every k(lambda) solve takes at least two grid levels
        assert record["levels"][search] >= 2 * record["k_evals"][search]
        assert record["factorizations"][search] >= record["levels"][search]
        assert record["finest_cells"][search] >= 128
    for suffix in ("speed.json", "kcurve.csv"):
        assert ((tmp_path / f"loud_{suffix}").read_bytes()
                == (tmp_path / f"quiet_{suffix}").read_bytes())


@pytest.mark.parametrize("command", ["eigen", "dirichlet"])
def test_verbose_reports_eigen_solver_counts_on_stderr(tmp_path, capsys, command):
    payload = DETERMINISM_PAYLOADS[command]
    assert run(tmp_path, command, payload, out="quiet") == 0
    assert capsys.readouterr().err == ""
    assert run(tmp_path, command, payload, out="loud", verbose=True) == 0
    line, = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record.pop("command") == command
    assert sorted(record) == ["factorizations", "finest_cells", "iterations", "levels"]
    solves = 5 + 1 if command == "eigen" else 2       # curve and profile, or radii
    # every solve takes at least two grid levels, each at least one factorization
    assert record["levels"] >= 2 * solves
    assert record["iterations"] >= record["factorizations"] >= record["levels"]
    assert record["finest_cells"] >= 128
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


def test_cli_import_leaves_scipy_optimize_out():
    # importing scipy.optimize adds about a quarter second to every CLI start
    src = str(Path(rdfronts.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, rdfronts.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))


def run_limited(tmp_path, command, payload, *flags):
    """The CLI in a child process with a 3 GiB address space and a 30 s
    timeout, so that a size or a step count that got past the checks fails
    fast instead of exhausting memory.  Never run the hostile configs below
    without these limits."""
    cfg = write_config(tmp_path, payload)
    src = str(Path(rdfronts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rdfronts", command, "--config", cfg,
                           "--out", str(tmp_path / "big"), *flags], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_limit_address_space)


HUGE_PERIOD = {key: dict(spec, period=1e300) if isinstance(spec, dict) else 1e300
               for key, spec in HOMOG_COEFFS.items()}
HUGE_SIGMA = dict(HOMOG_COEFFS, sigma={"kind": "constant", "value": 1e305})


@pytest.mark.parametrize("command, payload, word", [
    pytest.param("stationary", {"coefficients": HOMOG_COEFFS, "n_cells": 10 ** 9}, "n_cells",
                 id="stationary-n_cells"),
    pytest.param("simulate", dict(DETERMINISM_PAYLOADS["simulate"], domain={
        "x_min": -10.0, "x_max": 20.0, "n_points": 10 ** 9}), "points", id="simulate-n_points"),
    pytest.param("eigen", {"coefficients": HOMOG_COEFFS, "lambda_step": 1e-12}, "lambda grid",
                 id="eigen-lambda_step"),
    # step counts past util.STEP_CAP: T / dt overflows, or asks for 1e12 steps
    pytest.param("simulate", dict(DETERMINISM_PAYLOADS["simulate"], T=1e300, dt=1e-10),
                 "steps", id="simulate-T-overflow"),
    pytest.param("simulate", dict(DETERMINISM_PAYLOADS["simulate"], T=1e9, dt=1e-3),
                 "steps", id="simulate-T-1e9"),
    pytest.param("ode", dict(DETERMINISM_PAYLOADS["ode"], T=1e300), "steps",
                 id="ode-T-overflow"),
    pytest.param("ode", dict(DETERMINISM_PAYLOADS["ode"], T=1e9, dt=1e-3), "steps",
                 id="ode-T-1e9"),
    # grid spacings whose square overflows or underflows
    pytest.param("speed", {"coefficients": HUGE_PERIOD}, "grid spacing", id="speed-period"),
    pytest.param("dirichlet", {"coefficients": HOMOG_COEFFS, "radii": [1e-300]},
                 "grid spacing", id="dirichlet-radius"),
    # sigma / h**2 overflows in the stencil's diagonal
    pytest.param("speed", {"coefficients": HUGE_SIGMA}, "not finite", id="speed-sigma"),
    pytest.param("dirichlet", {"coefficients": HUGE_SIGMA, "radii": [1.0]}, "not finite",
                 id="dirichlet-sigma"),
    pytest.param("stationary", {"coefficients": HUGE_SIGMA}, "not finite",
                 id="stationary-sigma"),
])
def test_huge_size_exits_2_before_allocating(tmp_path, command, payload, word):
    proc = run_limited(tmp_path, command, payload)
    assert proc.returncode == 2, proc.stderr
    line, = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "validation" and word in err["message"]
    assert not list(tmp_path.glob("big*"))


def test_sweep_row_with_a_vanishing_grid_spacing_carries_the_error(tmp_path):
    # epsilon = 1e-300 squeezes the period until h**2 underflows; the row
    # fails alone, and stderr holds the --verbose line and nothing else
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1e-300]}
    proc = run_limited(tmp_path, "sweep", payload, "--verbose")
    assert proc.returncode == 0, proc.stderr
    line, = proc.stderr.splitlines()
    assert json.loads(line) == {"command": "sweep", "k_evals": 0}
    path, = tmp_path.glob("big*")
    row = path.read_text().splitlines()[2].split(",")
    assert row[0] == "1e-300" and row[6].startswith("ValidationError: grid spacing")


def test_stationary_numerical_error_exits_3(tmp_path, capsys):
    payload = {"coefficients": HOMOG_COEFFS, "t_max": 0.2, "tolerance": 1e-14}
    assert run(tmp_path, "stationary", payload) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


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
    payload = {"coefficients": HOMOG_COEFFS, "epsilons": [1.0, 0.5]}
    assert run(tmp_path, "sweep", payload, jobs=jobs) == 0
    assert RecordingPool.created == workers
    assert len((tmp_path / "out_sweep.csv").read_text().splitlines()) == 2 + 2


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
