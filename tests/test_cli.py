"""End-to-end command-line runs, in process via ``main(argv)``."""

import csv
import hashlib
import json

import numpy as np
import pytest

from duores.cli import main
from duores.core import num_states
from duores.io import measure_from_csv


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_MODEL = {"lam": 1.0, "mu": 1.0, "nu": 2.0, "K": 2}


# ------------------------------------------------------------
# simulate
# ------------------------------------------------------------

def test_simulate_single_replica(tmp_path, capsys):
    cfg = {
        "model": _MODEL,
        "sim": {"N": 10, "M": 10, "T": 1.0, "sample_times": [0.0, 0.5, 1.0],
                "seed": 4, "audit": True},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["simulate", _write_cfg(tmp_path, "sim.json", cfg)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    assert (out / "empirical.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [4]
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert manifest["config_sha256"] == hashlib.sha256(canon.encode()).hexdigest()
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "station", "w", "x", "y", "z"]
    assert len(rows) == 1 + 3 * 10  # three snapshots, ten stations


def test_simulate_replicas_and_seed_override(tmp_path):
    cfg = {
        "model": _MODEL,
        "sim": {"N": 5, "M": 5, "T": 0.5, "sample_times": [0.5],
                "seed": 1, "replicas": 2},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["simulate", _write_cfg(tmp_path, "sim.json", cfg),
               "--seed", "99"])
    assert rc == 0
    out = tmp_path / "out"
    for r in range(2):
        assert (out / f"trajectory_r{r}.csv").exists()
        assert (out / f"empirical_r{r}.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [[99, 0], [99, 1]]


def test_simulate_empirical_rows_are_valid_measures(tmp_path):
    cfg = {
        "model": _MODEL,
        "sim": {"N": 8, "M": 8, "T": 1.0, "sample_times": [1.0], "seed": 2},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["simulate", _write_cfg(tmp_path, "s.json", cfg)]) == 0
    with open(tmp_path / "out" / "empirical.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "w", "x", "y", "z", "prob"]
    probs = np.array([float(r[5]) for r in rows[1:]])
    assert len(probs) == num_states(2)
    assert abs(probs.sum() - 1.0) < 1e-12


# ------------------------------------------------------------
# meanfield
# ------------------------------------------------------------

def test_meanfield_from_equilibrium_is_stationary(tmp_path):
    cfg = {
        "model": {"lam": 1.0, "mu": 1.0, "nu": 2.0, "K": 3},
        "meanfield": {"initial": {"equilibrium": {"s": 1.5}},
                      "T": 2.0, "dt": 0.05, "output_every": 10},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["mean_fill"] - 1.5) < 1e-9
    assert summary["stationarity_residual"] < 1e-10
    with open(tmp_path / "out" / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    times = sorted({float(r[0]) for r in rows[1:]})
    assert times[0] == 0.0 and times[-1] == 2.0


def test_meanfield_point_initial_and_override_dir(tmp_path):
    cfg = {
        "model": _MODEL,
        "meanfield": {"initial": {"point": [0, 0, 1, 0]}, "T": 0.5, "dt": 0.05},
    }
    dest = tmp_path / "alt"
    rc = main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg),
               "--output-dir", str(dest)])
    assert rc == 0
    assert (dest / "summary.json").exists()


def test_meanfield_csv_initial_roundtrip(tmp_path):
    # feed the equilibrium measure exported by one command into another
    eq_cfg = {
        "model": _MODEL,
        "equilibrium": {"s": 1.0},
        "output_dir": str(tmp_path / "eq"),
    }
    assert main(["equilibrium", _write_cfg(tmp_path, "eq.json", eq_cfg)]) == 0
    mf_cfg = {
        "model": _MODEL,
        "meanfield": {"initial": {"csv": str(tmp_path / "eq" / "equilibrium_measure.csv")},
                      "T": 1.0, "dt": 0.05},
        "output_dir": str(tmp_path / "mf"),
    }
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", mf_cfg)]) == 0
    summary = json.loads((tmp_path / "mf" / "summary.json").read_text())
    assert summary["stationarity_residual"] < 1e-10


# ------------------------------------------------------------
# equilibrium
# ------------------------------------------------------------

def test_equilibrium_solves_capacity_one_closed_form(tmp_path, capsys):
    cfg = {
        "model": {"lam": 2.0, "mu": 1.0, "nu": 1e8, "K": 1},
        "equilibrium": {"s": 0.75},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["equilibrium", _write_cfg(tmp_path, "eq.json", cfg)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "rho1=" in captured and "max_residual=" in captured
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert abs(report["ratios"]["rho1"] - 1.0) < 1e-6
    assert abs(report["ratios"]["rho2"] - 2.0) < 1e-6
    assert report["max_residual"] < 1e-10
    m = measure_from_csv(tmp_path / "out" / "equilibrium_measure.csv")
    assert m.K == 1


def test_equilibrium_rejects_unreachable_fill(tmp_path):
    cfg = {
        "model": _MODEL,
        "equilibrium": {"s": 2.5},  # outside (0, K)
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["equilibrium", _write_cfg(tmp_path, "eq.json", cfg)]) == 2


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------

def test_verify_passing_checks(tmp_path, capsys):
    cfg = {
        "checks": ["enumeration", "step2_identity"],
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["verify", _write_cfg(tmp_path, "v.json", cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("PASS enumeration")
    assert lines[1].startswith("PASS step2_identity")
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 2


def test_verify_fails_on_impossible_tolerance(tmp_path, capsys):
    cfg = {
        "checks": ["step2_identity"],
        "overrides": {"step2_identity": {"tol": 1e-300}},
    }
    rc = main(["verify", _write_cfg(tmp_path, "v.json", cfg)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL step2_identity")


def test_verify_runs_experiments(tmp_path, capsys):
    cfg = {
        "experiments": {
            "attraction": {"model": {"lam": 1.0, "mu": 1.0, "nu": 10.0, "K": 2},
                           "s": 1.0, "perturbation_size": 0.05, "T": 20.0},
        },
    }
    rc = main(["verify", _write_cfg(tmp_path, "v.json", cfg)])
    assert rc == 0
    assert "PASS experiment:attraction" in capsys.readouterr().out


def test_verify_empty_config_passes(tmp_path):
    assert main(["verify", _write_cfg(tmp_path, "v.json", {})]) == 0


# ------------------------------------------------------------
# config errors -> exit code 2
# ------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["meanfield", str(path)]) == 2


@pytest.mark.parametrize("cfg", [
    {"model": {**_MODEL, "bogus": 1},
     "sim": {"N": 1, "M": 0, "T": 0.0, "sample_times": [0.0], "seed": 1}},
    {"model": _MODEL,
     "sim": {"N": 1, "M": 0, "T": 0.0, "sample_times": [0.0], "seed": 1},
     "extra_section": {}},
    {"model": _MODEL, "sim": {"N": 1, "M": 0, "T": 0.0, "seed": 1}},
    {"model": {"lam": -1.0, "mu": 1.0, "nu": 1.0, "K": 2},
     "sim": {"N": 1, "M": 0, "T": 0.0, "sample_times": [0.0], "seed": 1}},
    {"model": _MODEL,
     "sim": {"N": 2, "M": 9, "T": 0.0, "sample_times": [0.0], "seed": 1}},
])
def test_simulate_config_errors(tmp_path, cfg, capsys):
    assert main(["simulate", _write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, where", [
    ("model", "K", "bad model parameters"),
    ("sim", "N", "bad sim config"),
    ("sim", "M", "bad sim config"),
])
def test_simulate_rejects_non_integral_sizes(tmp_path, capsys, section, key, where):
    cfg = {"model": dict(_MODEL),
           "sim": {"N": 2, "M": 2, "T": 0.0, "sample_times": [0.0], "seed": 1},
           "output_dir": str(tmp_path / "out")}
    cfg[section][key] = 2.5  # was cast to 2 and run
    assert main(["simulate", _write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert f"{where}: {key} must be an integer, got 2.5" in capsys.readouterr().err


def test_verify_rejects_unknown_check_and_experiment(tmp_path):
    cfg = {"checks": ["does_not_exist"]}
    assert main(["verify", _write_cfg(tmp_path, "v1.json", cfg)]) == 2
    cfg = {"experiments": {"does_not_exist": {}}}
    assert main(["verify", _write_cfg(tmp_path, "v2.json", cfg)]) == 2
    cfg = {"overrides": {"step2_identity": 5}}
    assert main(["verify", _write_cfg(tmp_path, "v3.json", cfg)]) == 2


def test_meanfield_rejects_unstable_step(tmp_path):
    cfg = {
        "model": {"lam": 1.0, "mu": 1.0, "nu": 1.0, "K": 10},
        "meanfield": {"T": 1.0, "dt": 0.1},  # dt * rate bound > 0.5
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)]) == 2
