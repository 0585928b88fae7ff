"""End-to-end command-line runs, in process via ``main(argv)``."""

import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duores import cli, equilibrium, experiments, meanfield, simulate, verify
from duores.cli import main
from duores.core import Measure, ModelParams, num_states
from duores.equilibrium import MultipleEquilibriaError
from duores.io import measure_from_csv, measure_to_csv, write_timed_measure_csv
from duores.meanfield import integrate
from duores.simulate import SimInvariantError


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


def test_meanfield_trajectory_is_the_full_flow_thinned(tmp_path):
    # T = 1.03 is 51 whole steps of 0.02 and a short one; 5 does not divide 52
    model = {"lam": 1.0, "mu": 1.0, "nu": 2.0, "K": 3}
    cfg = {"model": model, "meanfield": {"T": 1.03, "dt": 0.02, "output_every": 5},
           "output_dir": str(tmp_path / "out")}
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)]) == 0
    traj = integrate(Measure.uniform(3), ModelParams(**model), 1.03, 0.02)
    assert len(traj) == 53
    kept = traj[::5] + [traj[-1]]
    write_timed_measure_csv([t for t, _ in kept], [m for _, m in kept], tmp_path / "ref.csv")
    assert (tmp_path / "out" / "trajectory.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


def test_meanfield_memory_holds_only_the_kept_rows(tmp_path):
    # Every step's Measure was kept and then sliced: the peak grew with T.
    def peak(T, every):
        cfg = {"model": {"lam": 1.0, "mu": 1.0, "nu": 2.0, "K": 6},
               "meanfield": {"T": T, "dt": 0.01, "output_every": every},
               "output_dir": str(tmp_path / f"out{T}")}
        path = _write_cfg(tmp_path, f"mf{T}.json", cfg)
        tracemalloc.start()
        try:
            assert main(["meanfield", path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0, 25)  # builds the per-capacity caches
    assert peak(16.0, 400) <= 1.25 * peak(4.0, 100)


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


@pytest.mark.parametrize("text, named", [
    ("", "has no header: the file is empty"),  # was a StopIteration traceback
    ("w,x,y,z,prob\n0,0,0,0,nan\n0,0,0,1,0\n0,0,1,0,0.5\n0,1,0,0,0.5\n1,0,0,0,0\n",
     "non-finite mass nan at rank 0"),  # was accepted
])
def test_meanfield_unreadable_initial_csv_is_a_config_error(tmp_path, capsys, text, named):
    init = tmp_path / "initial.csv"
    init.write_text(text)
    cfg = {"model": {**_MODEL, "K": 1},
           "meanfield": {"initial": {"csv": str(init)}, "T": 0.1, "dt": 0.05},
           "output_dir": str(tmp_path / "out")}
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read initial measure: ") and named in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("fill_tol", [1e-6, "x"])
def test_equilibrium_refuses_a_fill_tolerance_by_name(tmp_path, capsys, fill_tol):
    # the bisection's tolerance is the solver's constant, not a setting
    cfg = {"model": _MODEL, "equilibrium": {"s": 1.0, "fill_tol": fill_tol},
           "output_dir": str(tmp_path / "out")}
    assert main(["equilibrium", _write_cfg(tmp_path, "eq.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: unknown key(s) ['fill_tol'] in 'equilibrium'; "
                            "allowed: ['s']\n")
    assert not (tmp_path / "out").exists()


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
    assert [item["name"] for item in report["items"]] == ["enumeration", "step2_identity"]


def test_verify_fails_on_impossible_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(verify._TRIALS, "step2_identity", (100, 20260818, 1e-300))
    cfg = {"checks": ["step2_identity"]}
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
    assert capsys.readouterr().out.startswith("PASS attraction (initial_tv=")


def test_verify_empty_config_passes(tmp_path):
    assert main(["verify", _write_cfg(tmp_path, "v.json", {})]) == 0


_LARGE_K = {"checks": ["fixed_point_large_K"]}


@pytest.mark.parametrize("grid, cfg, failed", [
    # the named refusal of a fill out of reach: was a config error
    (((40,), (0.95,), (0.1,)), _LARGE_K, "FAIL fixed_point_large_K (worst=inf"),
    # the generic fill bisection failure: was a traceback
    (((20, 40), (0.8, 0.9), (0.01, 1.0)), _LARGE_K, "FAIL fixed_point_large_K (worst=inf"),
    # the experiment's start solve meets the same failure: was a traceback
    (None, {"experiments": {"attraction": {"model": {"lam": 1.0, "mu": 1.0, "nu": 0.01, "K": 20},
                                           "s": 18.0, "perturbation_size": 0.1, "T": 1.0}}},
     "FAIL: fill bisection at K=20"),
])
def test_verify_reports_a_failed_solve_as_a_failure(tmp_path, capsys, monkeypatch, grid, cfg,
                                                    failed):
    if grid is not None:  # the grid of fixed_point_large_K
        for name, value in zip(("_LARGE_KS", "_LARGE_K_FRACS", "_LARGE_K_NU_OVER_MU"), grid):
            monkeypatch.setattr(verify, name, value)
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert failed in captured.out + captured.err
    assert "Traceback" not in captured.err and "config error" not in captured.err


# ------------------------------------------------------------
# config errors -> exit code 2
# ------------------------------------------------------------

def test_a_config_root_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["verify", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: config must be an object\n"
    assert not (tmp_path / "out").exists()


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
    cfg = {"experiments": {"attraction": 5}}
    assert main(["verify", _write_cfg(tmp_path, "v3.json", cfg)]) == 2


def test_meanfield_rejects_unstable_step(tmp_path):
    cfg = {
        "model": {"lam": 1.0, "mu": 1.0, "nu": 1.0, "K": 10},
        "meanfield": {"T": 1.0, "dt": 0.1},  # dt * rate bound > 0.5
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)]) == 2


_SIM = {"N": 2, "M": 2, "T": 0.0, "sample_times": [0.0], "seed": 1}
_STUDY = {"model": _MODEL, "s": 1.0, "N_list": [5, 10], "replicas": 1, "T": 0.5,
          "sample_times": [0.5], "seed0": 1}
_ATTRACTION = {"model": {**_MODEL, "nu": 10.0}, "s": 1.0, "perturbation_size": 0.05,
               "T": 20.0}


@pytest.mark.parametrize("command, cfg, named", [
    ("simulate", {"model": _MODEL, "sim": {**_SIM, "replicas": "two"}},
     "'sim.replicas' must be an integer"),
    ("equilibrium", {"model": _MODEL, "equilibrium": {"s": "1.0"}},
     "'equilibrium.s' must be a number"),
    ("verify", {"experiments": {"convergence": {**_STUDY, "N_list": 3}}},
     "'experiments.convergence.N_list' must be a list of integers"),
    ("verify", {"experiments": {"chaos": {**_STUDY, "sample_times": 0.5}}},
     "'experiments.chaos.sample_times' must be a list of numbers"),
    ("verify", {"experiments": {"attraction": {**_ATTRACTION, "bogus": 1}}},
     "unknown key(s) ['bogus'] in 'experiments.attraction'"),
    ("verify", {"experiments": {"attraction": {**_ATTRACTION, "T": "x"}}},
     "'experiments.attraction.T' must be a number"),
    ("meanfield", {"model": _MODEL, "meanfield": {"T": 0.1, "dt": 0.05, "output_every": 2.5}},
     "'meanfield.output_every' must be an integer"),  # was run as 2
    ("simulate", {"model": _MODEL, "sim": {**_SIM, "audit": "no"}},
     "'sim.audit' must be true or false"),  # was run audited
    ("simulate", {"model": "abc", "sim": _SIM}, "'model' must be an object"),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, command, cfg, named):
    path = _write_cfg(tmp_path, "c.json", cfg)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert "Traceback" not in err


_INITIAL = {"model": _MODEL, "meanfield": {"T": 0.1, "dt": 0.05}}


@pytest.mark.parametrize("command, cfg, named", [
    ("simulate", {"sim": _SIM}, "missing 'model' section"),
    ("meanfield", {**_INITIAL, "meanfield": {**_INITIAL["meanfield"], "initial": "bogus"}},
     "unrecognized 'meanfield.initial': 'bogus'"),
    ("meanfield", {**_INITIAL, "meanfield": {**_INITIAL["meanfield"], "initial": {
        "point": [0, 0, 0, 1], "equilibrium": {"s": 1.0}}}},
     "'meanfield.initial' must pick exactly one form"),
    ("meanfield", {**_INITIAL, "meanfield": {**_INITIAL["meanfield"],
                                             "initial": {"point": [0, 0, 0, 3]}}},
     "bad initial point: (0,0,0,3) is not an admissible state for capacity K=2"),
    ("meanfield", {**_INITIAL, "meanfield": {**_INITIAL["meanfield"],
                                             "initial": {"csv": "K1.csv"}}},
     "initial measure capacity 1 != model capacity 2"),
])
def test_unusable_sections_are_named_config_errors_that_write_nothing(
        tmp_path, capsys, monkeypatch, command, cfg, named):
    monkeypatch.chdir(tmp_path)
    measure_to_csv(Measure.uniform(1), "K1.csv")
    assert main([command, _write_cfg(tmp_path, "c.json", cfg), "--output-dir", "out"]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"model": {**_MODEL, "K": 200}, "sim": _SIM}),
    ("meanfield", {"model": {**_MODEL, "K": 200}, "meanfield": {"T": 1e-4, "dt": 1e-4}}),
    ("equilibrium", {"model": {**_MODEL, "K": 171}, "equilibrium": {"s": 85.5}}),
    ("verify", {"experiments": {"attraction": {"model": {**_MODEL, "K": 171}, "s": 85.5,
                                               "perturbation_size": 0.1, "T": 1.0}}}),
])
def test_capacities_above_the_state_budget_are_config_errors(tmp_path, capsys, command, cfg):
    path = _write_cfg(tmp_path, "c.json", cfg)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
    assert "above the state budget" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, named", [
    ("verify", {"checks": "all", "output_dir": 5}, "'output_dir' must be a string"),
    ("verify", {"checks": [["enumeration"]]}, "'checks' must be a list of check names"),
    ("meanfield", {"model": _MODEL, "meanfield": {"initial": {"csv": 5}, "T": 0.1,
                                                  "dt": 0.05}},
     "'meanfield.initial.csv' must be a string"),  # was opened as file descriptor 5
])
def test_pass_through_values_are_checked_by_kind(tmp_path, capsys, command, cfg, named):
    assert main([command, _write_cfg(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


_UNREACHABLE = {"model": {"lam": 1.0, "mu": 1.0, "nu": 1.0, "K": 10}}


@pytest.mark.parametrize("command, section", [
    ("equilibrium", {"equilibrium": {"s": 9.999}}),
    ("meanfield", {"meanfield": {"initial": {"equilibrium": {"s": 9.999}},
                                 "T": 0.01, "dt": 0.01}}),
])
def test_fills_beyond_double_precision_are_config_errors(tmp_path, capsys, command, section):
    cfg = {**_UNREACHABLE, **section}
    assert main([command, _write_cfg(tmp_path, "c.json", cfg),
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fill s=9.999 at K=10 is out of reach")


def test_meanfield_reports_a_failed_start_solve(tmp_path, capsys, monkeypatch):
    def several(p, s):
        raise MultipleEquilibriaError(p.K, s, p.nu / p.mu, ((0.5, 1.5), (0.75, 1.25)))

    monkeypatch.setattr(cli, "solve_equilibrium", several)
    cfg = {"model": _MODEL, "meanfield": {"initial": {"equilibrium": {"s": 1.0}},
                                          "T": 0.1, "dt": 0.05},
           "output_dir": str(tmp_path / "out")}
    assert main(["meanfield", _write_cfg(tmp_path, "mf.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: fill at K=2, s=1.0, nu/mu=2.0 decreases")
    assert not (tmp_path / "out").exists()


def test_simulate_reports_a_failed_audit(tmp_path, capsys, monkeypatch):
    def corrupted(p, config, audit):
        assert audit
        raise SimInvariantError("car total 7 != 6 at t=0.25")

    monkeypatch.setattr(cli, "run", corrupted)
    cfg = {"model": _MODEL,
           "sim": {"N": 3, "M": 6, "T": 1.0, "sample_times": [1.0], "seed": 1, "audit": True},
           "output_dir": str(tmp_path / "out")}
    assert main(["simulate", _write_cfg(tmp_path, "sim.json", cfg)]) == 1
    assert capsys.readouterr().err == "FAIL: car total 7 != 6 at t=0.25\n"
    assert not (tmp_path / "out").exists()


def test_simulate_writes_no_replica_when_a_later_one_fails(tmp_path, capsys, monkeypatch):
    # The first replica's two CSVs were written before the second ran,
    # and stayed with no manifest.json.
    real_run, calls = cli.run, []

    def second_fails(p, config, audit):
        calls.append(config.seed)
        if len(calls) == 2:
            raise SimInvariantError("car total 7 != 6 at t=0.25")
        return real_run(p, config, audit=audit)

    monkeypatch.setattr(cli, "run", second_fails)
    cfg = {"model": _MODEL,
           "sim": {"N": 3, "M": 6, "T": 1.0, "sample_times": [1.0], "seed": 1,
                   "replicas": 2, "audit": True},
           "output_dir": str(tmp_path / "out")}
    assert main(["simulate", _write_cfg(tmp_path, "sim.json", cfg)]) == 1
    assert capsys.readouterr().err == "FAIL: car total 7 != 6 at t=0.25\n"
    assert len(calls) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg", [
    ("equilibrium", {**_UNREACHABLE, "equilibrium": {"s": 9.999}}),
    ("simulate", {"model": _MODEL,
                  "sim": {"N": 2, "M": 2, "T": -1, "sample_times": [0.0], "seed": 1}}),
])
def test_config_errors_leave_no_output_directory(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    assert main([command, _write_cfg(tmp_path, "c.json", {**cfg, "output_dir": str(out)})]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_equilibrium_checks_the_state_budget_before_the_solve(tmp_path, capsys, monkeypatch):
    def unexpected(p, s):
        raise AssertionError("solved a capacity whose measure file is refused")

    monkeypatch.setattr(cli, "solve_equilibrium", unexpected)
    cfg = {"model": {**_MODEL, "K": 200}, "equilibrium": {"s": 100.0},
           "output_dir": str(tmp_path / "out")}
    assert main(["equilibrium", _write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "above the state budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------
# one exit policy and one run record for the four commands
# ------------------------------------------------------------

# Each command's config and the module-level name of its library call.
_COMMANDS = {
    "simulate": ({"model": _MODEL, "sim": {"N": 3, "M": 3, "T": 0.5, "sample_times": [0.5],
                                           "seed": 1}}, "run"),
    "meanfield": ({"model": _MODEL, "meanfield": {"T": 0.1, "dt": 0.05}}, "_stream"),
    "equilibrium": ({"model": _MODEL, "equilibrium": {"s": 1.0}}, "solve_equilibrium"),
    "verify": ({"checks": ["enumeration"], "experiments": {"attraction": _ATTRACTION}},
               "solve_equilibrium"),
}


@pytest.mark.parametrize("error, code, first_line", [
    (ValueError("x"), 2, "config error: x"),
    (RuntimeError("y"), 1, "FAIL: y"),
], ids=["ValueError", "RuntimeError"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_maps_library_errors_to_one_exit_policy(
        tmp_path, capsys, monkeypatch, command, error, code, first_line):
    cfg, call = _COMMANDS[command]

    def raises(*args, **kwargs):
        raise error

    monkeypatch.setattr(experiments if command == "verify" else cli, call, raises)
    out = tmp_path / "out"
    assert main([command, _write_cfg(tmp_path, "c.json", cfg), "--output-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert err.splitlines()[0] == first_line
    assert "Traceback" not in err
    if command == "verify" and code == 1:  # a raised experiment is reported with the rest
        assert [p.name for p in out.iterdir()] == ["verify_report.json"]
    else:
        assert not out.exists()


def test_every_run_record_starts_with_the_command_and_the_hashed_config(tmp_path):
    records = {"simulate": "manifest.json", "meanfield": "summary.json",
               "equilibrium": "solve_report.json", "verify": "verify_report.json"}
    for command, name in records.items():
        cfg = {**_COMMANDS[command][0], "output_dir": str(tmp_path / command)}
        assert main([command, _write_cfg(tmp_path, f"{command}.json", cfg)]) == 0
        record = json.loads((tmp_path / command / name).read_text())
        assert list(record)[:3] == ["command", "config", "config_sha256"]
        assert record["command"] == command and record["config"] == cfg
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert record["config_sha256"] == hashlib.sha256(canon.encode()).hexdigest()


def test_verify_reports_every_item_when_an_experiment_raises(tmp_path, capsys):
    # Every finished result was dropped: one stderr line and no output directory.
    cfg = {"checks": ["enumeration"],
           "experiments": {"attraction": {"model": {"lam": 1.0, "mu": 1.0, "nu": 0.01, "K": 20},
                                          "s": 18.0, "perturbation_size": 0.1, "T": 1.0}},
           "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    message = captured.err.splitlines()[0].removeprefix("FAIL: ")
    assert message.startswith("fill bisection at K=20")
    lines = captured.out.splitlines()
    assert lines[0].startswith("PASS enumeration (") and lines[1] == "FAIL attraction"
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert [item["name"] for item in report["items"]] == ["enumeration", "attraction"]
    assert report["items"][1] == {"name": "attraction", "passed": False, "error": message}
    assert report["passed"] is False


def test_verify_refuses_a_fill_out_of_reach_before_any_item_runs(tmp_path, capsys):
    # PASS enumeration was printed, then the config error, and no report
    # was written: the refusal came from the attraction item's work
    cfg = {"checks": ["enumeration"],
           "experiments": {"attraction": {"model": {"lam": 1, "mu": 1, "nu": 0.1, "K": 40},
                                          "s": 38.0, "perturbation_size": 0.1, "T": 0.01}},
           "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: fill s=38.0 at K=40 is out of reach")
    assert not (tmp_path / "out").exists()


def test_verify_reports_a_failed_start_solve_and_runs_every_other_item(tmp_path, capsys,
                                                                       monkeypatch):
    def fails(*args, **kwargs):
        raise RuntimeError("start solve failed")

    monkeypatch.setattr(experiments, "solve_equilibrium", fails)
    cfg = {"checks": ["enumeration", "step2_identity", "monotonicity"],
           "experiments": {"attraction": _ATTRACTION}, "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL: start solve failed\n"
    assert [line.split(" (")[0] for line in captured.out.splitlines()] == [
        "PASS enumeration", "PASS step2_identity", "PASS monotonicity", "FAIL attraction"]
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["items"][3] == {"name": "attraction", "passed": False,
                                  "error": "start solve failed"}
    assert [(item["name"], item["passed"]) for item in report["items"]] == [
        ("enumeration", True), ("step2_identity", True), ("monotonicity", True),
        ("attraction", False)]


_STUDY_OK = {**_STUDY, "N_list": [2, 3]}


@pytest.mark.parametrize("name, sec, named", [
    # "non-finite mass nan at rank 0"
    ("convergence", {**_STUDY_OK, "replicas": 0}, "replicas must be >= 1, got 0"),
    # reported marginal_err_max = 0.0 from a division by N(N-1) = 0
    ("chaos", {**_STUDY_OK, "N_list": [1, 4]}, "every N in N_list must be >= 2, got 1"),
])
def test_degenerate_experiment_inputs_are_named_config_errors(tmp_path, capsys, name, sec,
                                                               named):
    cfg = {"experiments": {name: sec}, "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, named", [
    # an override of a suite not in checks was dropped: exit 0, and nothing ran
    ({"overrides": {"step2_identity": {"trials": 500}}}, "unknown key(s) ['overrides'] in config"),
    ({"checks": ["step2_identity"], "overrides": {"step2_identity": {"tol": 1e-300}}},
     "unknown key(s) ['overrides'] in config"),
    ({"experiments": {"monotonicity": {}}}, "'experiments' names no item 'monotonicity'"),
    # PASS attraction at a final TV of 0.0993, judged against 1e300
    ({"experiments": {"attraction": {"model": {"lam": 1, "mu": 1, "nu": 10, "K": 3}, "s": 1.5,
                                     "perturbation_size": 0.1, "T": 0.01,
                                     "final_tv_tol": 1e300}}},
     "unknown key(s) ['final_tv_tol'] in 'experiments.attraction'"),
    ({"experiments": {"convergence": {**_STUDY, "slope_range": [-9, 9]}}},
     "unknown key(s) ['slope_range'] in 'experiments.convergence'"),
    ({"experiments": {"chaos": {**_STUDY, "marginal_tol": 1.0}}},
     "unknown key(s) ['marginal_tol'] in 'experiments.chaos'"),
    ({"experiments": {"attraction": {**_ATTRACTION, "fill_drift_tol": 1.0}}},
     "unknown key(s) ['fill_drift_tol'] in 'experiments.attraction'"),
    ({"checks": ["monotonicity"], "experiments": {"monotonicity": {"n_curve": 2}}},
     "'experiments' names no item 'monotonicity'"),
    # the studies integrate at the one default step
    ({"experiments": {"convergence": {**_STUDY, "dt_max": 0.01}}},
     "unknown key(s) ['dt_max'] in 'experiments.convergence'"),
    ({"experiments": {"chaos": {**_STUDY, "dt_max": 0.01}}},
     "unknown key(s) ['dt_max'] in 'experiments.chaos'"),
    ({"experiments": {"attraction": {**_ATTRACTION, "dt": 0.01}}},
     "unknown key(s) ['dt'] in 'experiments.attraction'"),
])
def test_verify_refuses_a_removed_setting_by_name(tmp_path, capsys, cfg, named):
    # checks ask fixed questions against fixed bounds: a setting that moved a
    # bound or a grid, or ran the scan as an experiment, is refused, not ignored
    out = tmp_path / "out"
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg), "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {named}")
    assert not out.exists()


def _items_run(monkeypatch) -> list:
    """The names of the verify items that run, in order; each study keeps
    its ``.refuse``."""
    ran = []
    for name, item in verify.ITEMS.items():
        def spy(*args, _name=name, _item=item, **kwargs):
            ran.append(_name)
            return _item(*args, **kwargs)

        if hasattr(item, "refuse"):
            spy.refuse = item.refuse
        monkeypatch.setitem(verify.ITEMS, name, spy)
    return ran


def test_verify_refuses_a_degenerate_experiment_before_any_suite_runs(tmp_path, capsys,
                                                                       monkeypatch):
    # Every suite ran, and its result was dropped, before the refusal.
    ran = _items_run(monkeypatch)
    cfg = {"checks": "all", "experiments": {"convergence": {**_STUDY_OK, "replicas": 0}},
           "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err == "config error: replicas must be >= 1, got 0\n"
    assert ran == []
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------
# verify: every item refused before any item runs
# ------------------------------------------------------------

@pytest.fixture
def work_calls(monkeypatch):
    """Calls of the entries every item's work goes through, counted at each
    module that binds them."""
    calls = dict.fromkeys(("solve_equilibrium", "run", "_stream", "_curve_point"), 0)
    for mod in (equilibrium, simulate, meanfield, experiments, verify, cli):
        for name in calls:
            if hasattr(mod, name):
                def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    return calls


_GOOD = {"attraction": _ATTRACTION, "convergence": _STUDY_OK}


def _after_good_items(name, sec):
    """A verify config that names two fixed checks and a good study before
    the study ``name`` read from ``sec``."""
    study = "convergence" if name == "attraction" else "attraction"
    return {"checks": ["fixed_point_large_K", "monotonicity"],
            "experiments": {study: _GOOD[study], name: sec}}


_OVERFLOW = {"lam": 1e308, "mu": 1e308, "nu": 1e308, "K": 3}
_NO_STEP = ("the rate bound lam + nu K + mu K at lam=1e+308, nu=1e+308, mu=1e+308, K=3 is "
            "not finite, and the step would be 0")
_NOTHING_MOVES = ("s={s} puts round(N s) = {cars} cars on N=5 stations of capacity K=2; "
                  "with no car or no free space nothing moves, so the study has nothing "
                  "to converge")


@pytest.mark.parametrize("name, sec, message", [
    ("convergence", {**_STUDY, "N_list": [5]},
     "N_list must hold at least two sizes to judge a decrease in N, got 1"),
    # PASS lines, then init_uniform's refusal as a config error, and no report
    ("convergence", {**_STUDY, "s": 3.0},
     "s=3.0 puts round(N s) cars on N=5 stations of capacity K=2, more than N K = 10"),
    ("chaos", {**_STUDY, "sample_times": [0.75]},
     "sample_times must lie within [0, T] = [0, 0.5], got 0.75"),
    ("attraction", {**_ATTRACTION, "s": 2.0}, "s must lie in (0, K) = (0, 2), got 2.0"),
    # each other argument of the three studies
    ("convergence", {**_STUDY, "N_list": [0, 4]}, "every N in N_list must be >= 1, got 0"),
    ("convergence", {**_STUDY, "sample_times": [-0.1]},
     "sample_times[0] must be finite and >= 0, got -0.1"),
    ("convergence", {**_STUDY, "sample_times": [0.75]},
     "sample_times must lie within [0, T] = [0, 0.5], got 0.75"),
    ("convergence", {**_STUDY, "T": -1.0}, "T must be finite and >= 0, got -1.0"),
    ("convergence", {**_STUDY, "sample_times": []},
     "sample_times must hold at least one time, got ()"),
    ("convergence", {**_STUDY, "sample_times": [0.5, 0.25]},
     "sample_times must be nondecreasing"),
    ("convergence", {**_STUDY, "seed0": -1}, "seed0 must be >= 0, got -1"),
    ("convergence", {**_STUDY, "s": -1.0}, "s must be finite and >= 0, got -1.0"),
    # a rate bound that overflows: the default step 0.25 / inf would be 0
    ("convergence", {**_STUDY, "model": _OVERFLOW}, _NO_STEP),
    ("chaos", {**_STUDY, "N_list": []}, "N_list must hold at least one network size, got ()"),
    ("chaos", {**_STUDY, "N_list": [0, 4]}, "every N in N_list must be >= 2, got 0"),
    ("chaos", {**_STUDY, "replicas": 0}, "replicas must be >= 1, got 0"),
    ("chaos", {**_STUDY, "s": -1.0}, "s must be finite and >= 0, got -1.0"),
    ("chaos", {**_STUDY, "s": 3.0},
     "s=3.0 puts round(N s) cars on N=5 stations of capacity K=2, more than N K = 10"),
    ("chaos", {**_STUDY, "model": _OVERFLOW}, _NO_STEP),
    # a fill with nothing to converge: no car, every space taken, and a
    # small s that puts no car on N = 5 (0.05 N = 0.25)
    ("convergence", {**_STUDY, "s": 0.0}, _NOTHING_MOVES.format(s=0.0, cars=0)),
    ("chaos", {**_STUDY, "s": 2.0}, _NOTHING_MOVES.format(s=2.0, cars=10)),
    ("convergence", {**_STUDY, "s": 0.05}, _NOTHING_MOVES.format(s=0.05, cars=0)),
    ("attraction", {**_ATTRACTION, "perturbation_size": -0.1},
     "perturbation_size must be >= 0, got -0.1"),
    ("attraction", {**_ATTRACTION, "T": -1.0}, "T must be finite and >= 0, got -1.0"),
    ("attraction", {**_ATTRACTION, "s": 0.0}, "s must be finite and > 0, got 0.0"),
    ("attraction", {**_ATTRACTION, "model": _OVERFLOW}, _NO_STEP),
    # sizes out of order, whose verdict read the rows in the order given
    ("convergence", {**_STUDY, "N_list": [10, 5]},
     "N_list must be strictly increasing, got [10, 5]"),
    ("chaos", {**_STUDY, "N_list": [5, 5]}, "N_list must be strictly increasing, got [5, 5]"),
    # verdicts over nothing: chaos passed with one size, and at lam = 0 on
    # the placement alone; convergence fit its slope to distances of 0
    ("chaos", {**_STUDY, "N_list": [5]},
     "N_list must hold at least two sizes to judge a decrease in N, got 1"),
    *((name, {**_STUDY, "model": {**_MODEL, "lam": 0.0}},
       "lam=0.0 requests no trip: nothing moves, so the study has nothing to converge")
      for name in ("convergence", "chaos")),
    *((name, {**_STUDY, "sample_times": [0.0]},
       "sample_times end at 0, before any event: nothing moves, so the study has nothing "
       "to converge") for name in ("convergence", "chaos")),
])
def test_verify_refuses_a_bad_argument_of_any_item_before_any_item_runs(
        tmp_path, capsys, work_calls, name, sec, message):
    # At the parent a suite's grid cells and every experiment's arguments
    # were refused only as that item ran, after the items before it.
    cfg = {**_after_good_items(name, sec), "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {message}\n"
    # no item's work ran; a good attraction item read before a bad study
    # has made its start solve, which is part of its own refusal
    solves = int(name != "attraction")
    assert work_calls["run"] == work_calls["_stream"] == 0
    assert work_calls["solve_equilibrium"] == solves
    assert bool(work_calls["_curve_point"]) == bool(solves)
    assert not (tmp_path / "out").exists()
    # the item's own .refuse, on the arguments as the library takes them
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in sec.items()}
    kw["p"] = ModelParams(**kw.pop("model"))
    with pytest.raises(ValueError) as refused:
        verify.ITEMS[name].refuse(**kw)
    assert str(refused.value) == message


def test_verify_refuses_a_second_experiment_before_the_first_runs(tmp_path, capsys, work_calls):
    # The first experiment ran in full before the second's empty N_list was
    # refused.
    cfg = {"experiments": {"chaos": _STUDY_OK, "convergence": {**_STUDY, "N_list": []}}}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err == ("config error: N_list must hold at least two sizes "
                                       "to judge a decrease in N, got 0\n")
    assert work_calls["run"] == 0


def test_verify_makes_each_attraction_start_solve_once(tmp_path, capsys, monkeypatch):
    # .refuse made the start solve, and the item's run made it again
    solves = []

    def counted(*args, _solve=experiments.solve_equilibrium, **kwargs):
        solves.append(args)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_equilibrium", counted)
    cfg = {"checks": "all", "experiments": {"convergence": _STUDY_OK, "chaos": _STUDY_OK,
                                            "attraction": _ATTRACTION}}
    main(["verify", _write_cfg(tmp_path, "v.json", cfg)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0].split()[1] for line in lines] == list(verify.ITEMS)
    assert len(solves) == 1


def test_verify_reports_a_raising_suite_and_runs_every_other_item(tmp_path, capsys,
                                                                  monkeypatch):
    # A suite's RuntimeError ended the command: no item was printed or recorded.
    def raises(K):
        raise RuntimeError("count arrays failed")

    monkeypatch.setattr(verify, "count_arrays", raises)
    cfg = {"checks": ["enumeration", "step2_identity"],
           "experiments": {"attraction": _ATTRACTION}, "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL: count arrays failed\n"
    lines = captured.out.splitlines()
    assert lines[0] == "FAIL enumeration"
    assert lines[1].startswith("PASS step2_identity (worst=") and lines[1].endswith("; tol=1e-13)")
    assert lines[2].startswith("PASS attraction (initial_tv=")
    assert len(lines) == 3
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["items"][0] == {"name": "enumeration", "passed": False,
                                  "error": "count arrays failed"}
    assert [(item["name"], item["passed"]) for item in report["items"][1:]] == [
        ("step2_identity", True), ("attraction", True)]
    assert report["passed"] is False


def test_readme_command_line_configs_run(tmp_path):
    # the first JSON block under each command's heading of README's "Command line"
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## File formats")]
    configs = re.findall(r"^### (\w+)\n.*?^```json\n(.*?)^```", section, re.S | re.M)
    assert [command for command, _ in configs] == ["simulate", "meanfield", "equilibrium",
                                                   "verify"]
    for command, block in configs:
        path = tmp_path / f"{command}.json"
        path.write_text(block)
        assert main([command, str(path), "--output-dir", str(tmp_path / command)]) == 0, command
