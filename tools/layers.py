"""Per-layer measurements of duores, one subject at a time.

Run from the repository root:

    python3 tools/layers.py SUBJECT --label NAME [--repeats R] [--out FILE]

The package is imported from the ``src/`` next to this directory.  The
subjects, each with its default ``FILE`` at the repository root:

* ``flow`` (``BENCH_flow_layers.json``, R = 15): CPU milliseconds of the
  benchmark's ``flow`` path at K = 15, lam = mu = 1, nu = 2, fill 7.5, a
  perturbation of size 0.1, T = 5 at dt = 0.25 / (lam + nu K + mu K),
  and the trajectory thinned to 11 measures.  The layers are ``write``
  (``io.write_timed_measure_csv`` of the thinned trajectory),
  ``perturb`` (``experiments.fill_preserving_perturbation`` of the fixed
  point) and ``integrate`` (``meanfield.integrate`` from the perturbed
  start).
* ``simulate`` (``BENCH_simulate_layers.json``, R = 9): events per CPU
  second.  ``run_N{N}`` and ``run_N{N}_audit`` are ``simulate.run`` on
  the benchmark's ``network`` study, K = 3, lam = mu = 1, nu = 2, fill
  s = 1.5 (M = 1.5 N cars), T = 5 with snapshots every 0.5, at N in
  {250, 1000, 4000}, plain and audited.  The initial placement is drawn
  once per N and passed as ``initial``, so only the events and the
  snapshots are timed; the events a run fires are counted by a ``step``
  replay on the same stream, outside the timed part.  ``step_cycle`` is
  the loop of the tiny-network test: one station of capacity 2 holding
  one car, lam = 2, nu = 4, mu = 1, so the chain cycles through three
  states; one sample is ``STEP_EVENTS`` calls of ``step``.
* ``state_space`` (``BENCH_state_space.json``, R = 7): CPU milliseconds
  and memory of the state space and the solver, with solves of
  ``solve_equilibrium`` at lam = mu = 1, nu = 2 and fill K/2.  The layers
  are ``count_arrays`` (``core.count_arrays(K)`` at K in {20, 40, 80},
  with every cache in ``core`` cleared before each build),
  ``first_solve`` (one solve in each of R fresh interpreters, the import
  not timed, at K in {20, 40, 80, 200, 1000}), ``warm_solve`` (the same
  solve repeated in this process) and ``peak_kib`` (the ``tracemalloc``
  peak of one warm solve).
* ``solver_outcomes`` (``BENCH_solver_outcomes.json``, no repeats): the
  outcome counts of ``verify.solve_grid`` at lam = mu = 1 on the grid
  K in {1, 2, 3, 5, 10, 20, 40, 80}, nu/mu = 10^k for k = -4..3, and s/K
  at 50 evenly spaced points from 0.01 to 0.99, then 0.995 and 0.999:
  3328 solves, each counted under one of ``verify.OUTCOMES`` with the
  residual bound 1e-10.  The counts per ``(K, nu/mu)`` cell and in total
  are deterministic; the CPU time of the whole grid is recorded too.
* ``contract`` (``BENCH_contract.json``, no repeats): each row of
  ``CONTRACT``, a public entry called on one input, ends in an answer, in
  a ``ValueError`` whose message names the row's argument, or otherwise
  (any other exception, or a ``ValueError`` that names something else).
  ``json_read_back`` stands for ``io.write_json`` followed by a strict
  JSON read of the file it wrote.
  The counts per entry and in total are deterministic.  A row is due a
  refusal that names its argument, or an answer where it names none (a
  domain edge); the rows that end otherwise are listed.

Each time is taken ``R`` times on ``time.process_time``, after one
untimed warm-up call unless the layer clears the caches before each
sample; medians and quartiles are over the ``R`` samples.  The record,
with the Python, numpy and duores versions and the core count, is merged
into ``FILE`` under ``NAME``, so two checkouts can record into one file.
Times are raw CPU times, not scaled to a reference speed, so compare
only runs taken back to back on one machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import duores  # noqa: E402
from duores import core, equilibrium, experiments, meanfield, simulate, verify  # noqa: E402
from duores import io as dio  # noqa: E402


def _cpu_s(fn, repeats: int, before=None) -> list:
    """CPU seconds of ``repeats`` calls of ``fn``; ``before`` runs untimed
    ahead of each call, and without it one warm-up call comes first."""
    if before is None:
        fn()
    samples = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.process_time()
        fn()
        samples.append(time.process_time() - t0)
    return samples


def _summary(samples: list, unit: str, ndigits: int | None, **extra) -> dict:
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return {f"median_{unit}": round(med, ndigits), f"q1_{unit}": round(q1, ndigits),
            f"q3_{unit}": round(q3, ndigits), **extra, "n": len(samples)}


def _ms(samples: list) -> dict:
    return _summary([1e3 * t for t in samples], "ms", 3)


# ------------------------------------------------------------ flow

def flow(repeats: int) -> dict:
    p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    dt = 0.25 / p.rate_bound
    pi = equilibrium.product_form(equilibrium.solve_equilibrium(p, 7.5).rho, p.K)
    start = experiments.fill_preserving_perturbation(pi, 0.1)
    traj = meanfield.integrate(start, p, 5.0, dt)
    every = max(1, (len(traj) - 1) // 10)
    kept = traj[::every]
    if kept[-1][0] != traj[-1][0]:
        kept.append(traj[-1])
    times, measures = [t for t, _ in kept], [m for _, m in kept]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trajectory.csv"
        return {"layers": {
            "write": _ms(_cpu_s(lambda: dio.write_timed_measure_csv(times, measures, out),
                                repeats)),
            "perturb": _ms(_cpu_s(lambda: experiments.fill_preserving_perturbation(pi, 0.1),
                                  repeats)),
            "integrate": _ms(_cpu_s(lambda: meanfield.integrate(start, p, 5.0, dt), repeats)),
        }}


# ------------------------------------------------------------ simulate

RUN_N = (250, 1000, 4000)
S, T = 1.5, 5.0
SAMPLE_TIMES = tuple(0.5 * k for k in range(11))
STEP_EVENTS = 20_000


def _rates(fn, events: int, repeats: int) -> dict:
    return _summary([events / t for t in _cpu_s(fn, repeats)], "per_s", None, events=events)


def _events_by_T(p, cfg, initial) -> int:
    """Events ``run(p, cfg, initial)`` fires on ``[0, T]``, by a ``step``
    replay on the same generator stream."""
    st = initial.copy()
    rng = np.random.default_rng(cfg.seed)
    n = 0
    while st.total_rate(p) > 0.0:
        simulate.step(st, p, rng)
        if st.t > cfg.T:
            break
        n += 1
    return n


def simulate_events(repeats: int) -> dict:
    p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    layers = {}
    for N in RUN_N:
        M = round(S * N)
        initial = simulate.init_uniform(N, M, p.K, seed=N)
        cfg = simulate.SimConfig(N=N, M=M, T=T, sample_times=SAMPLE_TIMES, seed=N + 1)
        events = _events_by_T(p, cfg, initial)
        for audit in (False, True):
            name = f"run_N{N}" + ("_audit" if audit else "")
            layers[name] = _rates(lambda: simulate.run(p, cfg, initial=initial, audit=audit),
                                  events, repeats)

    cycle = core.ModelParams(lam=2.0, mu=1.0, nu=4.0, K=2)
    zero = np.zeros(1, dtype=np.int64)
    start = simulate.SimState(zero.copy(), zero.copy(), np.ones(1, dtype=np.int64),
                              zero.copy())

    def steps():
        st, rng = start.copy(), np.random.default_rng(777)
        for _ in range(STEP_EVENTS):
            simulate.step(st, cycle, rng)

    layers["step_cycle"] = _rates(steps, STEP_EVENTS, repeats)
    return {"layers": layers}


# ------------------------------------------------------------ state_space

ARRAY_K = (20, 40, 80)
SOLVE_K = (20, 40, 80, 200, 1000)


def _solve(K: int):
    return equilibrium.solve_equilibrium(core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), K / 2)


def _clear_core_caches() -> None:
    for obj in vars(core).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _first_solve_ms(K: int, repeats: int) -> dict:
    cmd = [sys.executable, __file__, "state_space", "--first-solve", str(K)]
    return _summary([float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
                     for _ in range(repeats)], "ms", 3)


def _peak_kib(K: int) -> int:
    tracemalloc.start()
    try:
        _solve(K)
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()


def state_space(repeats: int) -> dict:
    layers = {
        "count_arrays": {K: _ms(_cpu_s(lambda: core.count_arrays(K), repeats,
                                       before=_clear_core_caches)) for K in ARRAY_K},
        "first_solve": {K: _first_solve_ms(K, repeats) for K in SOLVE_K},
        "warm_solve": {},
        "peak_kib": {},
    }
    for K in SOLVE_K:
        layers["warm_solve"][K] = _ms(_cpu_s(lambda: _solve(K), repeats))
        layers["peak_kib"][K] = _peak_kib(K)
        _clear_core_caches()  # drop the per-state tables of a large K before the next
    return {"layers": layers}


# ------------------------------------------------------------ solver_outcomes

K_VALUES = (1, 2, 3, 5, 10, 20, 40, 80)
NU_OVER_MU = tuple(10.0 ** k for k in range(-4, 4))
FILLS = tuple(np.linspace(0.01, 0.99, 50).tolist()) + (0.995, 0.999)
RESIDUAL_TOL = 1e-10


def solver_outcomes(repeats: int) -> dict:
    cells, totals = {}, dict.fromkeys(verify.OUTCOMES, 0)
    t0 = time.process_time()
    for K in K_VALUES:
        for nu in NU_OVER_MU:
            p = core.ModelParams(lam=1.0, mu=1.0, nu=nu, K=K)
            _, counts = verify.solve_grid([(p, f) for f in FILLS], RESIDUAL_TOL)
            cells[f"K={K} nu/mu={nu!r}"] = counts
            for name, n in counts.items():
                totals[name] += n
    return {
        "grid": {"K": list(K_VALUES), "nu_over_mu": list(NU_OVER_MU),
                 "s_over_K": list(FILLS), "residual_tol": RESIDUAL_TOL},
        "cpu_s": round(time.process_time() - t0, 3),
        "totals": totals,
        "cells": cells,
    }


# ------------------------------------------------------------ contract

NAN, INF = math.nan, math.inf
_P2 = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
_P3 = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
_STUDY = (_P2, [4, 8], 1, 1.0, (1.0,), 5)  # p, N_list, replicas, T, sample_times, seed0
_RUN = (_P2, simulate.SimConfig(3, 3, 1.0, (1.0,), 1))  # N = 3 stations holding M = 3 cars


def _start(w=(0, 0, 0), y=(0, 0, 0), z=(0, 0, 0)) -> simulate.SimState:
    """A start state for ``_RUN`` with no cars driving or pickups listed."""
    zero = np.zeros(3, dtype=np.int64)
    return simulate.SimState(np.array(w), zero.copy(), np.array(y), np.array(z))


def _not_json(token: str):
    raise ValueError(f"{token} is not JSON")


def _json_read_back(value):
    """``value`` written by ``io.write_json`` and read back by a parser that
    refuses JSON's non-standard constants (``Infinity``, ``NaN``)."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "value.json"
        dio.write_json({"value": value}, path)
        return json.loads(path.read_text(), parse_constant=_not_json)


_LOCAL = {"json_read_back": _json_read_back}  # contract entries not in duores

CONTRACT = (
    # (entry in duores or _LOCAL, args, kwargs, the argument its refusal
    # names, or None where the input lies in the domain or on its edge and
    # has an answer)
    ("g_mean", (NAN, 1.0, 3), {}, "x"),
    ("g_mean", (1.0, INF, 3), {}, "y"),
    ("g_mean", (1.0, 1.0, -1), {}, "K"),
    ("g_mean", (1.0, 1.0, 2.5), {}, "K"),
    ("f_simple", (NAN, 1.0, 2.0, 3), {}, "x"),
    ("f_simple", (-1.0, 1.0, 2.0, 3), {}, "x"),
    ("equilibrium.simple_form", (NAN, 1.0, 3), {}, "x"),
    ("equilibrium.simple_form", (1.0, NAN, 3), {}, "y"),
    ("solve_phi", (0.5, 1.0, 2.5), {}, "K"),
    ("solve_phi", (0.5, 1.0, 0), {}, "K"),
    ("solve_phi", (0.5, INF, 3), {}, "a"),
    ("product_form", (equilibrium.RateRatios(1.0, 1.0, 1.0, 1.0), 2.5), {}, "K"),
    ("RateRatios", (NAN, 1.0, 1.0, 1.0), {}, "eta1"),
    ("num_states", (2.5,), {}, "K"),
    ("num_states", (-1,), {}, "K"),
    ("Measure.uniform", (2.5,), {}, "K"),
    ("index_of", ((0, 0, 0, 0), 2.5), {}, "K"),
    ("state_of", (2.5, 2), {}, "rank"),
    ("solve_equilibrium", (_P3, 1.5), {"fill_tol": NAN}, "fill_tol"),
    ("solve_equilibrium", (_P3, 1.5), {"fill_tol": 0.0}, "fill_tol"),
    ("solve_equilibrium", (_P3, 1.5), {"fill_tol": -1.0}, "fill_tol"),
    ("solve_equilibrium", (_P3, 3.0), {}, "s"),
    ("verify.solve_grid", ([(_P3, NAN)], 1e-10), {}, "cells"),
    ("init_uniform", (0, 0, 3, 1), {}, "N"),
    ("init_uniform", (3, -1, 3, 1), {}, "M"),
    ("init_uniform", (3, 10, 3, 1), {}, "M"),
    ("SimConfig", (2, 1, 1.0, (2.0,), 0), {}, "sample_times"),
    ("empirical_measure", (np.zeros((0, 4), dtype=np.int64), 2), {}, "counts"),
    ("chaos_experiment", (_P2, [1, 8], *_STUDY[2:]), {"s": 1.0}, "N_list"),
    ("integrate", (core.Measure.uniform(2), _P2, -1.0, 0.1), {}, "T"),
    ("integrate", (core.Measure.uniform(2), _P2, 1.0, 1.0), {}, "dt"),
    ("integrate_at", (core.Measure.uniform(2), _P2, [0.5], 1.0), {}, "dt_max"),
    ("convergence_experiment", _STUDY, {"s": NAN}, "s"),
    ("convergence_experiment", (*_STUDY[:2], 1.5, *_STUDY[3:]), {"s": 1.0}, "replicas"),
    ("convergence_experiment", _STUDY, {"s": 1.0, "dt_max": NAN}, "dt_max"),
    ("convergence_experiment", (*_STUDY[:4], (2.0,), 5), {"s": 1.0}, "sample_times"),
    ("chaos_experiment", _STUDY, {"s": 1.0, "marginal_tol": NAN}, "marginal_tol"),
    ("chaos_experiment", (*_STUDY[:3], NAN, *_STUDY[4:]), {"s": 1.0}, "T"),
    ("experiments.derive_seed", (2.5, 4, 1), {}, "seed0"),
    ("attraction_experiment", (_P2, NAN, 1.0), {"s": 1.0}, "perturbation_size"),
    ("attraction_experiment", (_P2, 0.1, 1.0), {"s": 1.0, "dt": NAN}, "dt"),
    ("attraction_experiment", (_P2, 0.1, 1.0), {"s": 2.0}, "s"),
    ("index_of", ((0.5, 0, 0, 0), 2), {}, "state"),
    ("core.ranks_of", ([0.5], [0], [0], [0], 2), {}, "state"),
    ("SimConfig", (2, 1, 1.0, (0.5,), 2.5), {}, "seed"),
    ("SimConfig", (2, 1, 1.0, (0.5,), -1), {}, "seed"),
    ("init_uniform", (2, 1, 2, 2.5), {}, "seed"),
    ("init_uniform", (2, 1, 2, -1), {}, "seed"),
    ("verify.check_enumeration", (-3, -3), {}, "K_max"),
    ("verify.check_product_form_stationarity", (), {"K_list": []}, "K_list"),
    ("verify.check_step2_identity", (), {"K_max": 0}, "K_max"),
    ("verify.check_aggregation_identity", (), {"trials": 0}, "trials"),
    ("verify.check_fixed_point", (), {"lam_list": []}, "lam_list"),
    ("verify.check_fixed_point_large_K", (), {"K_list": []}, "K_list"),
    ("run", _RUN, {"initial": _start(y=(-1, 2, 2))}, "initial"),
    ("run", _RUN, {"initial": _start(y=(3, 0, 0))}, "initial"),
    ("run", _RUN, {"initial": _start(w=(0, 1, 0), y=(0, 1, 1), z=(1, 0, 0))}, "initial"),
    ("json_read_back", (np.float64(INF),), {}, None),
    ("json_read_back", (np.bool_(True),), {}, None),
    ("verify.check_step2_identity", (), {"tol": NAN}, "tol"),
    ("verify.check_step2_identity", (), {"seed": -1}, "seed"),
    ("verify.check_product_form_stationarity", (), {"K_list": [0]}, "K_list"),
    ("verify.check_fixed_point", (), {"closed_form_tol": NAN}, "closed_form_tol"),
    ("solve_equilibrium", (_P3, "1.5"), {}, "s"),
    ("solve_phi", ("0.5", 2.0, 3), {}, "x"),
    ("solve_phi", (0.5, "2.0", 3), {}, "a"),
    ("verify.check_fixed_point", (), {"K_list": [0]}, "K_list"),
    ("verify.check_fixed_point_large_K", (), {"K_list": [0]}, "K_list"),
    ("convergence_experiment", _STUDY, {"s": 1.0, "slope_range": (-0.7,)}, "slope_range"),
    ("convergence_experiment", _STUDY, {"s": 1.0, "slope_range": (0.5, -0.5)}, "slope_range"),
    ("ModelParams", (0.0, 1.0, 1.0, 1), {}, None),
    ("num_states", (0,), {}, None),
    ("init_uniform", (1, 0, 1, 0), {}, None),
    ("fill_preserving_perturbation", (core.Measure.uniform(2), INF), {}, None),
    ("convergence_experiment", (_P2, 5, *_STUDY[2:]), {"s": 1.0}, "N_list"),
    ("chaos_experiment", (_P2, 5, *_STUDY[2:]), {"s": 1.0}, "N_list"),
    ("convergence_experiment", (*_STUDY[:4], 0.5, 5), {"s": 1.0}, "sample_times"),
    ("chaos_experiment", (*_STUDY[:4], 0.5, 5), {"s": 1.0}, "sample_times"),
    ("SimConfig", (2, 1, 1.0, 0.5, 0), {}, "sample_times"),
    ("integrate_at", (core.Measure.uniform(2), _P2, 0.5, 0.01), {}, "times"),
)
CONTRACT_OUTCOMES = ("answer", "named_value_error", "other")


def contract_id(row) -> str:
    """``entry(args, key=value)``, an object argument shown by its type."""
    entry, args, kwargs, _ = row
    shown = [repr(a) if isinstance(a, (int, float, str, tuple, list)) else type(a).__name__
             for a in args]
    return f"{entry}({', '.join(shown + [f'{k}={v!r}' for k, v in kwargs.items()])})"


def contract_outcome(entry, args, kwargs, named) -> tuple[str, str]:
    """How the call of ``entry`` ends, one of ``CONTRACT_OUTCOMES``, and its
    error message (empty for an answer)."""
    fn = _LOCAL.get(entry) or functools.reduce(getattr, entry.split("."), duores)
    try:
        fn(*args, **kwargs)
    except ValueError as e:
        names = named is not None and re.search(rf"(?<!\w){re.escape(named)}(?!\w)", str(e))
        return ("named_value_error" if names else "other"), f"ValueError: {e}"
    except Exception as e:  # any other ending is counted, not raised
        return "other", f"{type(e).__name__}: {e}"
    return "answer", ""


def contract(repeats: int) -> dict:
    entries, totals, unexpected = {}, dict.fromkeys(CONTRACT_OUTCOMES, 0), []
    for row in CONTRACT:
        outcome, _ = contract_outcome(*row)
        entries.setdefault(row[0], dict.fromkeys(CONTRACT_OUTCOMES, 0))[outcome] += 1
        totals[outcome] += 1
        if outcome != ("answer" if row[3] is None else "named_value_error"):
            unexpected.append(contract_id(row))
    return {"rows": len(CONTRACT), "totals": totals, "entries": entries,
            "unexpected": unexpected}


# ------------------------------------------------------------

SUBJECTS = {  # name: (measure, default repeats, default --out)
    "flow": (flow, 15, "BENCH_flow_layers.json"),
    "simulate": (simulate_events, 9, "BENCH_simulate_layers.json"),
    "state_space": (state_space, 7, "BENCH_state_space.json"),
    "solver_outcomes": (solver_outcomes, None, "BENCH_solver_outcomes.json"),
    "contract": (contract, None, "BENCH_contract.json"),
}


def _show(prefix: str, row) -> None:
    if isinstance(row, dict) and "n" not in row:
        for key, value in row.items():
            _show(f"{prefix} {key}", value)
    else:
        print(f"{prefix}: {row}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("subject", choices=SUBJECTS)
    ap.add_argument("--label")
    ap.add_argument("--repeats", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--first-solve", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    measure, repeats, out = SUBJECTS[args.subject]
    if args.first_solve is not None:  # one state_space solve in this fresh interpreter
        t0 = time.process_time()
        _solve(args.first_solve)
        print(1e3 * (time.process_time() - t0))
        return 0
    if args.label is None:
        ap.error("--label is required")
    if args.repeats is not None:
        if repeats is None:
            ap.error(f"{args.subject} takes no --repeats")
        if args.repeats < 2:
            ap.error("--repeats must be >= 2")
        repeats = args.repeats
    out = args.out or ROOT / out

    record = {"python": platform.python_version(), "numpy": np.__version__,
              "duores": duores.__version__, "nproc": os.cpu_count(), **measure(repeats)}
    data = json.loads(out.read_text()) if out.is_file() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    _show(args.label, record.get("layers")
          or {k: record[k] for k in ("cpu_s", "totals", "unexpected") if k in record})
    return 0


if __name__ == "__main__":
    sys.exit(main())
