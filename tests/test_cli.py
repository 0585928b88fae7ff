"""End-to-end command-line runs, in process via ``main(argv)``."""

import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from duores import cli, equilibrium, experiments, meanfield, simulate, verify
from duores.cli import main
from duores.core import Measure, ModelParams, num_states
from duores.equilibrium import MultipleEquilibriaError
from duores.io import measure_from_csv, write_timed_measure_csv
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
    assert capsys.readouterr().out.startswith("PASS attraction (initial_tv=")


def test_verify_empty_config_passes(tmp_path):
    assert main(["verify", _write_cfg(tmp_path, "v.json", {})]) == 0


def _large_K_grid(K_list, s_fracs, nu_over_mu):
    return {"checks": ["fixed_point_large_K"],
            "overrides": {"fixed_point_large_K": {"K_list": K_list, "s_fracs": s_fracs,
                                                  "nu_over_mu": nu_over_mu}}}


@pytest.mark.parametrize("cfg, failed", [
    # the named refusal of a fill out of reach: was a config error
    (_large_K_grid([40], [0.95], [0.1]), "FAIL fixed_point_large_K (worst=inf"),
    # the generic fill bisection failure: was a traceback
    (_large_K_grid([20, 40], [0.8, 0.9], [0.01, 1.0]), "FAIL fixed_point_large_K (worst=inf"),
    # the experiment's start solve meets the same failure: was a traceback
    ({"experiments": {"attraction": {"model": {"lam": 1.0, "mu": 1.0, "nu": 0.01, "K": 20},
                                     "s": 18.0, "perturbation_size": 0.1, "T": 1.0}}},
     "FAIL: fill bisection at K=20"),
])
def test_verify_reports_a_failed_solve_as_a_failure(tmp_path, capsys, cfg, failed):
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert failed in captured.out + captured.err
    assert "Traceback" not in captured.err and "config error" not in captured.err


@pytest.mark.parametrize("cfg", [
    _large_K_grid([10], [1.0], [1.0]),
    {"checks": ["fixed_point"], "overrides": {"fixed_point": {"s_fracs": [0.5, -0.2]}}},
    {"checks": ["fixed_point"], "overrides": {"fixed_point": {"lam_list": [-1.0]}}},
])
def test_verify_grids_a_suite_rejects_before_solving_are_config_errors(tmp_path, capsys, cfg):
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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


_SIM = {"N": 2, "M": 2, "T": 0.0, "sample_times": [0.0], "seed": 1}
_STUDY = {"model": _MODEL, "s": 1.0, "N_list": [5, 10], "replicas": 1, "T": 0.5,
          "sample_times": [0.5], "seed0": 1}


@pytest.mark.parametrize("command, cfg, named", [
    ("simulate", {"model": _MODEL, "sim": {**_SIM, "replicas": "two"}},
     "'sim.replicas' must be an integer"),
    ("equilibrium", {"model": _MODEL, "equilibrium": {"s": 1.0, "fill_tol": "x"}},
     "'equilibrium.fill_tol' must be a number"),
    ("verify", {"experiments": {"monotonicity": {"K_list": 3}}},
     "'experiments.monotonicity.K_list' must be a list of integers"),
    ("verify", {"experiments": {"convergence": {**_STUDY, "slope_range": 5}}},
     "'experiments.convergence.slope_range' must be a list of numbers"),
    ("verify", {"checks": ["enumeration"], "overrides": {"enumeration": {"bogus": 1}}},
     "unknown key(s) ['bogus'] in 'overrides.enumeration'"),
    ("verify", {"checks": ["enumeration"], "overrides": {"enumeration": {"K_max": "x"}}},
     "'overrides.enumeration.K_max' must be an integer"),
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
    ("verify", {"checks": [["enumeration"]]}, "'checks' must be a list of suite names"),
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

_ATTRACTION = {"model": {**_MODEL, "nu": 10.0}, "s": 1.0, "perturbation_size": 0.05,
               "T": 20.0}

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
    cfg = {"checks": ["enumeration", "step2_identity"],
           "experiments": {"attraction": _ATTRACTION,
                           "monotonicity": {"a_list": [1.0], "K_list": [1], "n_curve": 2,
                                            "xy_max": 0.2}},
           "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL: start solve failed\n"
    assert [line.split(" (")[0] for line in captured.out.splitlines()] == [
        "PASS enumeration", "PASS step2_identity", "FAIL attraction", "PASS monotonicity"]
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["items"][2] == {"name": "attraction", "passed": False,
                                  "error": "start solve failed"}
    assert [(item["name"], item["passed"]) for item in report["items"]] == [
        ("enumeration", True), ("step2_identity", True), ("attraction", False),
        ("monotonicity", True)]


_STUDY_OK = {**_STUDY, "N_list": [2, 3]}


@pytest.mark.parametrize("name, sec, named", [
    # "non-finite mass nan at rank 0"
    ("convergence", {**_STUDY_OK, "replicas": 0}, "replicas must be >= 1, got 0"),
    # reported marginal_err_max = 0.0 from a division by N(N-1) = 0
    ("chaos", {**_STUDY_OK, "N_list": [1, 4]}, "every N in N_list must be >= 2, got 1"),
    # a ZeroDivisionError traceback
    ("monotonicity", {"grid_step": 0}, "grid_step must be > 0, got 0.0"),
])
def test_degenerate_experiment_inputs_are_named_config_errors(tmp_path, capsys, name, sec,
                                                               named):
    cfg = {"experiments": {name: sec}, "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "out").exists()


def _items_run(monkeypatch) -> list:
    """The names of the verify items that run, in order; each keeps its
    ``.refuse``."""
    ran = []
    for name, item in verify.ITEMS.items():
        def spy(*args, _name=name, _item=item, **kwargs):
            ran.append(_name)
            return _item(*args, **kwargs)

        spy.refuse = item.refuse
        monkeypatch.setitem(verify.ITEMS, name, spy)
    return ran


@pytest.mark.parametrize("override, message", [
    ({"product_form_stationarity": {"K_list": []}}, "K_list must hold at least one value, got ()"),
    ({"step2_identity": {"K_max": 0}}, "K_max must be >= 1, got 0"),
    ({"fill_identity": {"trials": 0}}, "trials must be >= 1, got 0"),
    ({"enumeration": {"K_max": -3, "roundtrip_K_max": -3}}, "K_max must be >= 0, got -3"),
    ({"product_form_stationarity": {"K_list": [0]}}, "every entry of K_list must be >= 1, got 0"),
    ({"step2_identity": {"seed": -1}},
     "seed must be None, an integer >= 0 or a sequence of them, got -1"),
    ({"fixed_point": {"closed_form_tol": float("nan")}},
     "closed_form_tol must be finite and > 0, got nan"),
    ({"fixed_point": {"K_list": [0]}}, "every entry of K_list must be >= 1, got 0"),
    ({"fixed_point_large_K": {"K_list": [3, 0]}}, "every entry of K_list must be >= 1, got 0"),
])
def test_verify_refuses_a_suite_override_with_nothing_to_check_before_any_work(
        tmp_path, capsys, monkeypatch, override, message):
    # K_list=[] and K_max=0 ended in a ZeroDivisionError traceback after
    # the experiments had run; the others passed with nothing checked
    ran = _items_run(monkeypatch)
    cfg = {"checks": ["enumeration"], "overrides": override,
           "experiments": {"monotonicity": {}}, "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert ran == []
    assert not (tmp_path / "out").exists()


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


_GOOD = {"fixed_point_large_K": {"K_list": [3], "s_fracs": [0.5], "nu_over_mu": [1.0]},
         "fixed_point": {"lam_list": [1.0], "nu_list": [1.0], "K_list": [2], "s_fracs": [0.5]},
         "attraction": _ATTRACTION,
         "monotonicity": {"a_list": [1.0], "K_list": [1], "n_curve": 2, "xy_max": 0.2}}


def _after_good_items(name, sec):
    """A verify config that runs a good suite and a good experiment before
    the item ``name`` read from ``sec``."""
    suite = "fixed_point" if name == "fixed_point_large_K" else "fixed_point_large_K"
    experiment = "monotonicity" if name == "attraction" else "attraction"
    items = {suite: _GOOD[suite], experiment: _GOOD[experiment], name: sec}
    experiments = ("convergence", "chaos", "attraction", "monotonicity")
    return {"checks": [n for n in items if n not in experiments],
            "overrides": {n: s for n, s in items.items() if n not in experiments},
            "experiments": {n: s for n, s in items.items() if n in experiments}}


@pytest.mark.parametrize("name, sec, message", [
    ("enumeration", {"roundtrip_K_max": -1}, "roundtrip_K_max must be >= 0, got -1"),
    ("product_form_stationarity", {"K_list": [0]}, "every entry of K_list must be >= 1, got 0"),
    ("step2_identity", {"seed": -1},
     "seed must be None, an integer >= 0 or a sequence of them, got -1"),
    ("aggregation_identity", {"trials": 0}, "trials must be >= 1, got 0"),
    ("fill_identity", {"tol": 0.0}, "tol must be finite and > 0, got 0.0"),
    ("fixed_point", {"closed_form_tol": -1.0}, "closed_form_tol must be finite and > 0, got -1.0"),
    ("fixed_point", {"s_fracs": [0.5, 1.5]},
     "every entry of s_fracs must be finite and > 0 and < 1, got 1.5"),
    ("fixed_point_large_K", {"K_list": [3, 0]}, "every entry of K_list must be >= 1, got 0"),
    ("convergence", {**_STUDY, "slope_range": [0.5, -0.5]},
     "slope_range must be two finite numbers lo <= hi, got (0.5, -0.5)"),
    ("chaos", {**_STUDY, "marginal_tol": -1.0}, "marginal_tol must be finite and >= 0, got -1.0"),
    ("attraction", {**_ATTRACTION, "fill_drift_tol": -1.0},
     "fill_drift_tol must be finite and >= 0, got -1.0"),
    ("monotonicity", {"n_curve": 1}, "n_curve must be >= 2, got 1"),
])
def test_verify_refuses_a_bad_argument_of_any_item_before_any_item_runs(
        tmp_path, capsys, work_calls, name, sec, message):
    # At the parent a suite's grid cells and every experiment's arguments
    # were refused only as that item ran, after the items before it.
    cfg = {**_after_good_items(name, sec), "output_dir": str(tmp_path / "out")}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # no item's work ran; a good attraction item read before a bad experiment
    # has made its start solve, which is part of its own refusal
    solves = int(name in cfg["experiments"] and name != "attraction")
    assert work_calls["run"] == work_calls["_stream"] == 0
    assert work_calls["solve_equilibrium"] == solves
    assert bool(work_calls["_curve_point"]) == bool(solves)
    assert not (tmp_path / "out").exists()
    # the item's own .refuse, on the arguments as the library takes them
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in sec.items()}
    if "model" in kw:
        kw["p"] = ModelParams(**kw.pop("model"))
    with pytest.raises(ValueError) as refused:
        verify.ITEMS[name].refuse(**kw)
    assert str(refused.value) == message


def test_verify_refuses_a_second_experiment_before_the_first_runs(tmp_path, capsys, work_calls):
    # The monotonicity scan ran in full before convergence's empty N_list
    # was refused.
    cfg = {"experiments": {"monotonicity": _GOOD["monotonicity"],
                           "convergence": {**_STUDY, "N_list": []}}}
    assert main(["verify", _write_cfg(tmp_path, "v.json", cfg)]) == 2
    assert capsys.readouterr().err == ("config error: N_list must hold at least two sizes "
                                       "to fit a slope, got 0\n")
    assert work_calls["_curve_point"] == 0


def test_verify_makes_each_attraction_start_solve_once(tmp_path, capsys, monkeypatch):
    # .refuse made the start solve, and the item's run made it again
    solves = []

    def counted(*args, _solve=experiments.solve_equilibrium, **kwargs):
        solves.append(args)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_equilibrium", counted)
    cfg = {"checks": "all", "experiments": {"convergence": _STUDY_OK, "chaos": _STUDY_OK,
                                            "attraction": _ATTRACTION,
                                            "monotonicity": _GOOD["monotonicity"]}}
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
