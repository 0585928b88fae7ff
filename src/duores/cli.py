"""Command-line front end.

Four subcommands, each driven by a JSON config file::

    duores simulate   cfg.json    event-driven finite-network runs
    duores meanfield  cfg.json    integrate the mean-field flow
    duores equilibrium cfg.json   solve the fixed point, export the measure
    duores verify     cfg.json    run verification suites and experiments

Flags override individual file keys.  Every config section is read against
one schema table, which rejects unknown keys and values of the wrong kind.
``verify`` runs the items of ``verify.ITEMS`` it names: under ``checks``
the eight that take no arguments, by name alone, and under
``experiments`` the three studies, each section read from the study's
signature and declaration.  It calls each study's ``.refuse`` before any
item runs, then runs every item in one loop and prints one line per item.

One exit policy, in :func:`main`, holds for all four: 0 on success; 2 and a
``config error: <message>`` line on stderr when the config is unusable (a
``ConfigError``, or any ``ValueError`` the library raises for an input); 1
and a ``FAIL: <message>`` line when a run fails (any ``RuntimeError``: a
failed solve, ``MultipleEquilibriaError``, an unstable step, an audit's
``SimInvariantError``) or a check or threshold fails.  Output directories
are created only after the work they hold succeeds.  ``verify`` alone
catches a ``RuntimeError`` per item, so the other items are still
reported.  Each command writes one JSON run record (``manifest.json``,
``summary.json``, ``solve_report.json`` or ``verify_report.json``) whose
keys start ``command``, ``config``, ``config_sha256``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import (Measure, ModelParams, _budgeted_states, _count, _gate, mean_fill,
                   prob_no_available, prob_saturated)
from .equilibrium import product_form, solve_equilibrium
from .io import (
    measure_from_csv,
    measure_to_csv,
    write_json,
    write_station_trajectory_csv,
    write_timed_measure_csv,
)
from .meanfield import _budgeted_block, _flows_at, _grid_plan, stationarity_residual
from .simulate import SimConfig, empirical_measure, run
from .verify import _FIXED, ITEMS

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
    return cfg


# ------------------------------------------------------------
# config schema
# ------------------------------------------------------------

# Value kinds: what a value of each must be.  Numbers are read as
# floats and lists as tuples; "any" values pass on as given, to code
# that checks them.
_WHAT = {"num": "a number", "int": "an integer", "bool": "true or false",
         "nums": "a list of numbers", "ints": "a list of integers",
         "obj": "an object", "str": "a string"}

# Section name -> (required keys, optional keys), each mapping a key to
# its value kind or to the section it is read as; section keys come
# first.  A "duores ..." section is a command's whole config.  K, N and
# M are "any": ModelParams and SimConfig check them; so are "checks" and
# "initial", which _cmd_verify and _initial_measure check.  The verify
# studies' sections are read from their signatures below.
_SCHEMA = {
    "duores simulate": ({"model": "model", "sim": "sim"}, {"output_dir": "str"}),
    "duores meanfield": ({"model": "model", "meanfield": "meanfield"},
                         {"output_dir": "str"}),
    "duores equilibrium": ({"model": "model", "equilibrium": "equilibrium"},
                           {"output_dir": "str"}),
    "duores verify": ({}, {"checks": "any", "experiments": "obj", "output_dir": "str"}),
    "model": ({"lam": "num", "mu": "num", "nu": "num", "K": "any"}, {}),
    "sim": ({"N": "any", "M": "any", "T": "num", "sample_times": "nums", "seed": "int"},
            {"replicas": "int", "audit": "bool"}),
    "meanfield": ({"T": "num", "dt": "num"}, {"initial": "any", "output_every": "int"}),
    "meanfield.initial": ({}, {"point": "ints", "csv": "str",
                               "equilibrium": "meanfield.initial.equilibrium"}),
    "meanfield.initial.equilibrium": ({"s": "num"}, {}),
    "equilibrium": ({"s": "num"}, {}),
}


def _kind_of(default) -> str:
    return {bool: "bool", int: "int", float: "num"}[type(default)]


def _section(item) -> tuple[dict, dict]:
    """A verify study's section, read from its signature and declaration:
    ``p`` is the ``model`` section, a declared rule gives its kind, else the
    default does; a parameter with no default is required."""
    required, optional = {}, {}
    for k, prm in inspect.signature(item).parameters.items():
        rule = item.__domain__.get(k)
        into = required if prm.default is prm.empty else optional
        if k == "p":
            into["model"] = "model"
        else:
            into[k] = rule.kind if rule is not None else _kind_of(prm.default)
    return required, optional


_SCHEMA.update({f"experiments.{name}": _section(item)
                for name, item in ITEMS.items() if name not in _FIXED})


def _convert(v, kind: str):
    """``v`` read as ``kind``; a ``ValueError`` if it is not one."""
    if kind in _SCHEMA:
        return _read(v, kind)
    if kind == "any" or (kind, type(v)) in (("bool", bool), ("obj", dict), ("str", str)):
        return v
    if kind in ("nums", "ints") and isinstance(v, list):
        return tuple(_convert(x, kind[:-1]) for x in v)
    if kind == "num" and type(v) in (int, float):
        return float(v)
    if kind == "int" and (type(v) is int or type(v) is float and v.is_integer()):
        return int(v)
    raise ValueError(kind)


def _read(sec, name: str) -> dict:
    """``sec`` read against ``_SCHEMA[name]``: a new dict of its keys in
    schema order, each value converted to its kind."""
    root = name.startswith("duores ")
    where = "config" if root else f"'{name}'"
    if not isinstance(sec, dict):
        raise ConfigError(f"{where} must be an object")
    required, optional = _SCHEMA[name]
    allowed = {**required, **optional}
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")
    missing = [k for k in required if k not in sec]
    if missing and required[missing[0]] in _SCHEMA:
        raise ConfigError(f"missing '{missing[0]}' section" if root
                          else f"missing '{missing[0]}' in {where}")
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")
    out = {}
    for k, kind in allowed.items():
        if k in sec:
            try:
                out[k] = _convert(sec[k], kind)
            except (ValueError, OverflowError):
                raise ConfigError(
                    f"'{k if root else f'{name}.{k}'}' must be {_WHAT[kind]}")
    return out


def _model_params(sec: dict) -> ModelParams:
    try:
        return ModelParams(**sec)
    except ValueError as e:
        raise ConfigError(f"bad model parameters: {e}")


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.output_dir if args.output_dir is not None else cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_record(cfg: dict, args, name: str, fields: dict) -> Path:
    """Write the run record ``name`` to the output directory: the command,
    the config as given and its hash, then the command's own ``fields``."""
    out = _out_dir(cfg, args)
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    write_json({"command": args.command, "config": cfg,
                "config_sha256": hashlib.sha256(canon.encode()).hexdigest(), **fields},
               out / name)
    return out


# ------------------------------------------------------------
# simulate
# ------------------------------------------------------------

def _cmd_simulate(cfg: dict, conf: dict, args) -> int:
    p = _model_params(conf["model"])
    sec = conf["sim"]
    if args.seed is not None:
        sec["seed"] = args.seed
    replicas = _count(1).check("replicas", sec.pop("replicas", 1))
    audit = sec.pop("audit", False)
    try:
        base = SimConfig(**sec)
    except ValueError as e:
        raise ConfigError(f"bad sim config: {e}")
    seeds = [base.seed] if replicas == 1 else [[base.seed, r] for r in range(replicas)]
    trajs = [run(p, replace(base, seed=seed), audit=audit) for seed in seeds]
    out = _out_dir(cfg, args)
    for r, traj in enumerate(trajs):
        suffix = "" if replicas == 1 else f"_r{r}"
        write_station_trajectory_csv(traj, out / f"trajectory{suffix}.csv")
        write_timed_measure_csv([t for t, _ in traj],
                                [empirical_measure(c, p.K) for _, c in traj],
                                out / f"empirical{suffix}.csv")
    _write_record(cfg, args, "manifest.json",
                  {"seeds": seeds, "replicas": replicas, "audit": audit})
    print(f"wrote {replicas} replica(s) to {out}")
    return 0


# ------------------------------------------------------------
# meanfield
# ------------------------------------------------------------

def _initial_measure(init, p: ModelParams) -> Measure:
    if init == "uniform":
        return Measure.uniform(p.K)
    if not isinstance(init, dict):
        raise ConfigError(f"unrecognized 'meanfield.initial': {init!r}")
    init = _read(init, "meanfield.initial")
    if len(init) != 1:
        raise ConfigError("'meanfield.initial' must pick exactly one form")
    if "point" in init:
        try:
            return Measure.point(init["point"], p.K)
        except ValueError as e:
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
    report = solve_equilibrium(p, init["equilibrium"]["s"])
    return product_form(report.rho, p.K)


def _cmd_meanfield(cfg: dict, conf: dict, args) -> int:
    p = _model_params(conf["model"])
    sec = conf["meanfield"]
    every = _count(1).check("output_every", sec.get("output_every", 1))
    m0 = _initial_measure(sec.get("initial", "uniform"), p)
    plan, n = _grid_plan(p, sec["T"], sec["dt"])
    _gate(*_budgeted_block(p, -(-n // every), sec["T"], sec["dt"], ("T", "dt")))
    kept = [(0.0, m0), *((t, m) for t, (m,) in _flows_at([m0], p, plan, n, every))]
    out = _out_dir(cfg, args)
    write_timed_measure_csv([t for t, _ in kept], [m for _, m in kept],
                            out / "trajectory.csv")
    t_end, final = kept[-1]
    summary = {
        "T": t_end,
        "p_available": 1.0 - prob_no_available(final),
        "p_free": 1.0 - prob_saturated(final),
        "mean_fill": mean_fill(final),
        "stationarity_residual": stationarity_residual(final, p),
    }
    _write_record(cfg, args, "summary.json", summary)
    print(
        f"integrated to T={t_end}: mean_fill={summary['mean_fill']:.6g}, "
        f"residual={summary['stationarity_residual']:.3g}"
    )
    return 0


# ------------------------------------------------------------
# equilibrium
# ------------------------------------------------------------

def _cmd_equilibrium(cfg: dict, conf: dict, args) -> int:
    p = _model_params(conf["model"])
    _budgeted_states(p.K)  # the measure file has one row per state
    report = solve_equilibrium(p, **conf["equilibrium"])
    out = _write_record(cfg, args, "solve_report.json", report.to_dict())
    measure_to_csv(product_form(report.rho, p.K), out / "equilibrium_measure.csv")
    r = report.rho
    print(
        f"eta1={r.eta1:.10g} rho1={r.rho1:.10g} rho2={r.rho2:.10g} "
        f"eta2={r.eta2:.10g} max_residual={report.max_residual:.3g}"
    )
    return 0


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------

def _numbers(d: dict) -> str:
    return ", ".join(f"{k}={v:.4g}" for k, v in d.items()
                     if isinstance(v, (int, float)) and not isinstance(v, bool))


def _cmd_verify(cfg: dict, conf: dict, args) -> int:
    checks = conf.get("checks", [])
    if checks == "all":
        checks = list(_FIXED)
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("'checks' must be a list of check names or \"all\"")
    for name in checks:
        if name not in _FIXED:
            raise ConfigError(f"unknown check {name!r}; known: {sorted(_FIXED)}")
    items = [(name, ITEMS[name]) for name in checks]
    for name, sec in conf.get("experiments", {}).items():  # each refused before any item runs
        if f"experiments.{name}" not in _SCHEMA:
            raise ConfigError(f"'experiments' names no item {name!r}; known: "
                              f"{sorted(n for n in ITEMS if n not in _FIXED)}")
        kw = _read(sec, f"experiments.{name}")
        kw["p"] = _model_params(kw.pop("model"))
        items.append((name, ITEMS[name].refuse(**kw)))

    records = []
    for name, work in items:
        try:
            rec = work().to_dict()
        except RuntimeError as e:  # a failed solve: reported, and the other items still are
            print(f"FAIL: {e}", file=sys.stderr)
            rec = {"name": name, "passed": False, "error": str(e)}
        shown = "; ".join(filter(None, (_numbers(rec.get("metrics", {})),
                                        _numbers(rec.get("thresholds", {})))))
        print(f"{'PASS' if rec['passed'] else 'FAIL'} {name}" + (f" ({shown})" if shown else ""))
        records.append(rec)
    passed = all(rec["passed"] for rec in records)
    if args.output_dir is not None or "output_dir" in cfg:
        _write_record(cfg, args, "verify_report.json", {"items": records, "passed": passed})
    return 0 if passed else 1


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
        return args.fn(cfg, _read(cfg, f"duores {args.command}"), args)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:  # a failed solve or step, MultipleEquilibriaError, SimInvariantError
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
