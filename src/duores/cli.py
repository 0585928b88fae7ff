"""Command-line front end.

Four subcommands, each driven by a JSON config file::

    duores simulate   cfg.json    event-driven finite-network runs
    duores meanfield  cfg.json    integrate the mean-field flow
    duores equilibrium cfg.json   solve the fixed point, export the measure
    duores verify     cfg.json    run verification suites and experiments

Flags override individual file keys; unknown config keys are rejected.
Exit codes: 0 success, 1 a threshold or check failed, 2 the config was
unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .core import Measure, ModelParams, mean_fill, prob_no_available, prob_saturated
from .equilibrium import MultipleEquilibriaError, product_form, solve_equilibrium
from .experiments import (
    attraction_experiment,
    chaos_experiment,
    convergence_experiment,
    monotonicity_scan,
)
from .io import (
    measure_from_csv,
    measure_to_csv,
    write_json,
    write_station_trajectory_csv,
    write_timed_measure_csv,
)
from .meanfield import integrate, stationarity_residual
from .simulate import SimConfig, empirical_measure, run
from .verify import CHECKS, run_checks

__all__ = ["main"]


class ConfigError(Exception):
    """The config file cannot be used as given."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}"
        )


def _need(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def _model_params(cfg: dict) -> ModelParams:
    if "model" not in cfg:
        raise ConfigError("missing 'model' section")
    sec = cfg["model"]
    _reject_unknown(sec, {"lam", "mu", "nu", "K"}, "'model'")
    _need(sec, ["lam", "mu", "nu", "K"], "'model'")
    try:
        return ModelParams(lam=float(sec["lam"]), mu=float(sec["mu"]),
                           nu=float(sec["nu"]), K=sec["K"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad model parameters: {e}")


def _out_dir(cfg: dict, override: str | None) -> Path:
    out = Path(override if override is not None else cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------
# simulate
# ------------------------------------------------------------

def _cmd_simulate(cfg: dict, args) -> int:
    _reject_unknown(cfg, {"model", "sim", "output_dir"}, "config")
    p = _model_params(cfg)
    if "sim" not in cfg:
        raise ConfigError("missing 'sim' section")
    sec = dict(cfg["sim"])
    _reject_unknown(
        sec, {"N", "M", "T", "sample_times", "seed", "replicas", "audit"}, "'sim'"
    )
    _need(sec, ["N", "M", "T", "sample_times", "seed"], "'sim'")
    if args.seed is not None:
        sec["seed"] = args.seed
    replicas = int(sec.get("replicas", 1))
    audit = bool(sec.get("audit", False))
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    out = _out_dir(cfg, args.output_dir)
    try:
        base = SimConfig(N=sec["N"], M=sec["M"], T=float(sec["T"]),
                         sample_times=tuple(sec["sample_times"]),
                         seed=int(sec["seed"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad sim config: {e}")
    seeds = []
    for r in range(replicas):
        seed = base.seed if replicas == 1 else (base.seed, r)
        seeds.append(seed)
        cfg_r = SimConfig(N=base.N, M=base.M, T=base.T,
                          sample_times=base.sample_times, seed=seed)
        try:
            traj = run(p, cfg_r, audit=audit)
        except ValueError as e:
            raise ConfigError(str(e))
        suffix = "" if replicas == 1 else f"_r{r}"
        write_station_trajectory_csv(traj, out / f"trajectory{suffix}.csv")
        times = [t for t, _ in traj]
        measures = [empirical_measure(c, p.K) for _, c in traj]
        write_timed_measure_csv(times, measures, out / f"empirical{suffix}.csv")
    manifest = {
        "command": "simulate",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "seeds": [list(s) if isinstance(s, tuple) else s for s in seeds],
        "replicas": replicas,
        "audit": audit,
    }
    write_json(manifest, out / "manifest.json")
    print(f"wrote {replicas} replica(s) to {out}")
    return 0


# ------------------------------------------------------------
# meanfield
# ------------------------------------------------------------

def _initial_measure(sec: dict, p: ModelParams) -> Measure:
    init = sec.get("initial", "uniform")
    if init == "uniform":
        return Measure.uniform(p.K)
    if isinstance(init, dict):
        _reject_unknown(init, {"point", "csv", "equilibrium"},
                        "'meanfield.initial'")
        if len(init) != 1:
            raise ConfigError("'meanfield.initial' must pick exactly one form")
        if "point" in init:
            state = init["point"]
            try:
                return Measure.point(tuple(int(v) for v in state), p.K)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad initial point: {e}")
        if "csv" in init:
            try:
                m = measure_from_csv(init["csv"])
            except (OSError, ValueError) as e:
                raise ConfigError(f"cannot read initial measure: {e}")
            if m.K != p.K:
                raise ConfigError(
                    f"initial measure capacity {m.K} != model capacity {p.K}"
                )
            return m
        spec_eq = init["equilibrium"]
        _reject_unknown(spec_eq, {"s"}, "'meanfield.initial.equilibrium'")
        _need(spec_eq, ["s"], "'meanfield.initial.equilibrium'")
        try:
            report = solve_equilibrium(p, float(spec_eq["s"]))
        except ValueError as e:
            raise ConfigError(str(e))
        return product_form(report.rho, p.K)
    raise ConfigError(f"unrecognized 'meanfield.initial': {init!r}")


def _cmd_meanfield(cfg: dict, args) -> int:
    _reject_unknown(cfg, {"model", "meanfield", "output_dir"}, "config")
    p = _model_params(cfg)
    if "meanfield" not in cfg:
        raise ConfigError("missing 'meanfield' section")
    sec = cfg["meanfield"]
    _reject_unknown(sec, {"initial", "T", "dt", "output_every"}, "'meanfield'")
    _need(sec, ["T", "dt"], "'meanfield'")
    every = int(sec.get("output_every", 1))
    if every < 1:
        raise ConfigError("output_every must be >= 1")
    m0 = _initial_measure(sec, p)
    out = _out_dir(cfg, args.output_dir)
    try:
        traj = integrate(m0, p, float(sec["T"]), float(sec["dt"]))
    except ValueError as e:
        raise ConfigError(str(e))
    kept = traj[::every]
    if kept[-1][0] != traj[-1][0]:
        kept.append(traj[-1])
    write_timed_measure_csv([t for t, _ in kept], [m for _, m in kept],
                            out / "trajectory.csv")
    final = traj[-1][1]
    summary = {
        "command": "meanfield",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "T": traj[-1][0],
        "p_available": 1.0 - prob_no_available(final),
        "p_free": 1.0 - prob_saturated(final),
        "mean_fill": mean_fill(final),
        "stationarity_residual": stationarity_residual(final, p),
    }
    write_json(summary, out / "summary.json")
    print(
        f"integrated to T={traj[-1][0]}: mean_fill={summary['mean_fill']:.6g}, "
        f"residual={summary['stationarity_residual']:.3g}"
    )
    return 0


# ------------------------------------------------------------
# equilibrium
# ------------------------------------------------------------

def _cmd_equilibrium(cfg: dict, args) -> int:
    _reject_unknown(cfg, {"model", "equilibrium", "output_dir"}, "config")
    p = _model_params(cfg)
    if "equilibrium" not in cfg:
        raise ConfigError("missing 'equilibrium' section")
    sec = cfg["equilibrium"]
    _reject_unknown(sec, {"s", "fill_tol"}, "'equilibrium'")
    _need(sec, ["s"], "'equilibrium'")
    out = _out_dir(cfg, args.output_dir)
    kwargs = {}
    if "fill_tol" in sec:
        kwargs["fill_tol"] = float(sec["fill_tol"])
    try:
        report = solve_equilibrium(p, float(sec["s"]), **kwargs)
    except ValueError as e:
        raise ConfigError(str(e))
    except MultipleEquilibriaError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    doc = report.to_dict()
    doc["config"] = cfg
    doc["config_sha256"] = _config_hash(cfg)
    write_json(doc, out / "solve_report.json")
    measure_to_csv(product_form(report.rho, p.K), out / "equilibrium_measure.csv")
    r = report.rho
    print(
        f"eta1={r.eta1:.10g} rho1={r.rho1:.10g} rho2={r.rho2:.10g} "
        f"eta2={r.eta2:.10g} max_residual={report.max_residual:.3g} "
        f"monotone_ok={report.monotone_ok}"
    )
    return 0


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "convergence": {"model", "s", "N_list", "replicas", "T", "sample_times",
                    "seed0", "audit", "dt_max", "slope_range"},
    "chaos": {"model", "s", "N_list", "replicas", "T", "sample_times",
              "seed0", "audit", "dt_max", "marginal_tol"},
    "attraction": {"model", "s", "perturbation_size", "T", "dt",
                   "final_tv_tol", "fill_drift_tol"},
    "monotonicity": {"a_list", "K_list", "grid_step", "xy_max", "n_curve",
                     "enforce_nu_over_mu", "probe_nu_over_mu"},
}


def _run_experiment(name: str, sec: dict):
    _reject_unknown(sec, _EXPERIMENT_KEYS[name], f"'experiments.{name}'")
    sec = dict(sec)
    if name == "monotonicity":
        kwargs = {k: v for k, v in sec.items()}
        for key in ("a_list", "K_list", "enforce_nu_over_mu", "probe_nu_over_mu"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return monotonicity_scan(**kwargs)
    if "model" not in sec:
        raise ConfigError(f"missing 'model' in 'experiments.{name}'")
    p = _model_params({"model": sec.pop("model")})
    if name == "attraction":
        _need(sec, ["s", "perturbation_size", "T"], "'experiments.attraction'")
        return attraction_experiment(
            p, float(sec.pop("perturbation_size")), float(sec.pop("T")),
            s=float(sec.pop("s")),
            **{k: v for k, v in sec.items()},
        )
    _need(sec, ["s", "N_list", "replicas", "T", "sample_times", "seed0"],
          f"'experiments.{name}'")
    fn = convergence_experiment if name == "convergence" else chaos_experiment
    extra = {k: v for k, v in sec.items()
             if k in ("audit", "dt_max", "marginal_tol")}
    if "slope_range" in sec:
        extra["slope_range"] = tuple(sec["slope_range"])
    return fn(
        p, list(sec["N_list"]), int(sec["replicas"]), float(sec["T"]),
        tuple(sec["sample_times"]), int(sec["seed0"]), s=float(sec["s"]),
        **extra,
    )


def _cmd_verify(cfg: dict, args) -> int:
    _reject_unknown(cfg, {"checks", "overrides", "experiments", "output_dir"},
                    "config")
    checks = cfg.get("checks", [])
    if checks == "all":
        checks = list(CHECKS)
    if not isinstance(checks, list):
        raise ConfigError("'checks' must be a list of suite names or \"all\"")
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'overrides' must be an object")
    for name, kw in overrides.items():
        if name not in CHECKS:
            raise ConfigError(f"override for unknown check {name!r}")
        if not isinstance(kw, dict):
            raise ConfigError(f"override for {name!r} must be an object")
    experiments = cfg.get("experiments", {})
    if not isinstance(experiments, dict):
        raise ConfigError("'experiments' must be an object")
    for name in experiments:
        if name not in _EXPERIMENT_KEYS:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {sorted(_EXPERIMENT_KEYS)}"
            )
    try:
        results = run_checks(checks, overrides)
    except KeyError as e:
        raise ConfigError(str(e))
    reports = []
    for name, sec in experiments.items():
        if not isinstance(sec, dict):
            raise ConfigError(f"experiment {name!r} config must be an object")
        reports.append(_run_experiment(name, sec))

    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{status} {res.name} (worst={res.worst:.3g}, tol={res.tol:.3g})")
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        all_ok = all_ok and rep.passed
        keys = ", ".join(f"{k}={v:.4g}" for k, v in rep.metrics.items()
                         if isinstance(v, (int, float)) and not isinstance(v, bool))
        print(f"{status} experiment:{rep.name} ({keys})")
    if args.output_dir is not None or "output_dir" in cfg:
        out = _out_dir(cfg, args.output_dir)
        write_json({
            "command": "verify",
            "config": cfg,
            "config_sha256": _config_hash(cfg),
            "checks": [r.to_dict() for r in results],
            "experiments": [r.to_dict() for r in reports],
            "passed": all_ok,
        }, out / "verify_report.json")
    return 0 if all_ok else 1


# ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="duores",
        description="Simulate, integrate, and solve closed double-reservation "
                    "station networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("simulate", _cmd_simulate),
        ("meanfield", _cmd_meanfield),
        ("equilibrium", _cmd_equilibrium),
        ("verify", _cmd_verify),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a JSON config file")
        sp.add_argument("--output-dir", default=None,
                        help="override the config's output_dir")
        if name == "simulate":
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config's sim.seed")
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
