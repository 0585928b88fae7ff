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
  start, with its 920 steps as ``steps_per_s`` at the median, and as
  ``minflt_per_call`` the median minor page faults of one call, read
  from this process's own ``resource.getrusage`` over R calls after the
  timed ones).  The ``drift_K{K}`` layers, at K in {3, 6, 10, 15, 20}
  and the same rates, are CPU microseconds per drift evaluation: one
  sample is ``DRIFT_EVALS`` calls of ``meanfield._drift_raw`` on the
  uniform measure, in one workspace and into one aligned vector, as the
  integrator calls it.  The ``study_flows_K{K}_single`` and
  ``study_flows_K{K}_block`` layers, at the same K, are CPU milliseconds
  of a replica study's flows: ``STUDY_STARTS`` seeded random starts
  through ``STUDY_ENTRIES`` plan entries of ``STUDY_STEPS`` steps of
  dt = 0.25 / (lam + nu K + mu K), each start by ``meanfield._rk4``
  alone, then all as one ``(STUDY_STARTS, n)`` group, whatever
  ``meanfield._GROUP_MASSES`` would choose; the two alternate, sample by
  sample, and the block row gives its median over the single one as
  ``vs_single``.
* ``simulate`` (``BENCH_simulate_layers.json``, R = 31): events, cars
  or snapshots per CPU second.  ``run_N{N}`` and ``run_N{N}_audit`` are
  ``simulate.run`` on the benchmark's ``network`` study, K = 3,
  lam = mu = 1, nu = 2, fill s = 1.5 (M = 1.5 N cars), T = 5 with
  snapshots every 0.5, at N in {250, 1000, 4000}, plain and audited.
  The initial placement is drawn once per N and passed as ``initial``,
  so only the events and the snapshots are timed; the events a run
  fires are counted by a ``step`` replay on the same stream, outside the
  timed part.  ``place_N{N}`` is ``simulate.init_uniform`` of the same
  M = 1.5 N cars at the same N, in cars per CPU second, and
  ``rank_counts_N{N}`` is ``simulate._rank_counts`` of the 11 snapshots
  of the plain run, in snapshots per CPU second: one sample ranks them
  ``RANK_ROUNDS`` times.
  ``step_cycle`` is the loop of the tiny-network test: one station of
  capacity 2 holding one car, lam = 2, nu = 4, mu = 1, so the chain
  cycles through three states; one sample is ``STEP_EVENTS`` calls of
  ``step``.
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
  are deterministic; the CPU time of each K's row of cells
  (``cpu_s_by_K``) and of the whole grid is recorded too.
* ``contract`` (``BENCH_contract.json``, no repeats): a seeded sweep of
  every declared argument of every entry of ``BASE`` (README, "Input
  domains"), and each row of ``CONTRACT``, an input no declaration
  states, called once.  Each call ends in an answer, a ``ValueError``
  whose message names the drawn (the row's) argument, a named
  ``RuntimeError`` subclass, or otherwise.  ``json_read_back`` stands for
  ``io.write_json`` followed by a strict JSON read of the file it wrote.
  The counts per entry and in total are deterministic; the draws and
  rows that end otherwise than due are listed.
* ``positivity`` (``BENCH_positivity.json``, no repeats): the least mass
  of any state of the mean-field flows from point masses over [0, 1],
  per cell of K in {1, 2, 3, 4, 6, 8, 10, 15} and mu = 1, nu in {0.01,
  1, 100}, lam in {0.2, 1, 5}, at the steps 0.5, 0.75 and 1 times ``1 /
  q_max`` (``q_max = 2 lam + max(nu, mu) K``, ``meanfield._exit_bound``).
  The starts are every point mass up to K = 10 and ``POSITIVITY_DRAWS``
  seeded ones above, stepped by ``meanfield._rk4`` in groups as the flow
  loop groups them, and every step's states are read.  The least masses
  are deterministic; the cells whose least mass is below 0 are counted
  per fraction, and the CPU time of the grid is recorded too.

Each time is taken ``R`` times on ``time.process_time``, after one
untimed warm-up call unless the layer clears the caches before each
sample; medians and quartiles are over the ``R`` samples.  The fixed
kernel of ``bench/reference.py`` runs ahead of each sample, and the
record keeps its median CPU time as ``reference_s``; next to each raw
median it gives ``median_ms_at_ref`` (``t * REF_S / reference_s``) or
``median_per_s_at_ref`` (a rate scaled the other way), the figure on a
CPU that runs the kernel in ``REF_S``, as ``bench/run.py`` scales its
times.  A shared virtual machine's speed can drift by up to 2x between
processes minutes apart, so compare checkouts recorded in separate
processes by the scaled medians.  The record, with the Python, numpy and duores versions
and the core count, is merged into ``FILE`` under ``NAME``, so two
checkouts can record into one file.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zlib
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

_SPEC = importlib.util.spec_from_file_location("reference", ROOT / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)
_KERNEL_S: list = []  # CPU seconds of the reference kernel, one run ahead of each sample


def _cpu_s(fn, repeats: int, before=None) -> list:
    """CPU seconds of ``repeats`` calls of ``fn``; ``before`` runs untimed
    ahead of each call, and without it one warm-up call comes first.  The
    reference kernel runs ahead of each sample."""
    if before is None:
        fn()
    samples = []
    for _ in range(repeats):
        _KERNEL_S.append(reference.kernel())
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

DRIFT_K = (3, 6, 10, 15, 20)
DRIFT_EVALS = 1000


def _drift_us(p, repeats: int) -> dict:
    st = meanfield._stencils(p.K)
    ws, out = meanfield._workspace(st, p), meanfield._aligned(st.n)
    v = core.Measure.uniform(p.K).probs

    def evals():
        for _ in range(DRIFT_EVALS):
            meanfield._drift_raw(v, st, ws, out)

    return _summary([1e6 * t / DRIFT_EVALS for t in _cpu_s(evals, repeats)], "us", 3)


STUDY_STARTS, STUDY_ENTRIES, STUDY_STEPS = 3, 4, 10


def _study_flows(p, repeats: int) -> dict:
    st = meanfield._stencils(p.K)
    dt = 0.25 / p.rate_bound
    plan = [((k + 1) * STUDY_STEPS * dt, STUDY_STEPS, dt) for k in range(STUDY_ENTRIES)]
    block = np.random.default_rng(p.K).dirichlet(np.ones(st.n), STUDY_STARTS)
    runs = {"single": lambda: [list(meanfield._rk4(v, p, st, plan, None)) for v in block],
            "block": lambda: list(meanfield._rk4(block, p, st, plan, None))}
    samples = {name: [] for name in runs}
    for fn in runs.values():
        fn()  # warm-up
    for _ in range(repeats):
        for name, fn in runs.items():
            _KERNEL_S.append(reference.kernel())
            t0 = time.process_time()
            fn()
            samples[name].append(time.process_time() - t0)
    single, block = _ms(samples["single"]), _ms(samples["block"])
    block["vs_single"] = round(block["median_ms"] / single["median_ms"], 3)
    return {f"study_flows_K{p.K}_single": single, f"study_flows_K{p.K}_block": block}


def _minflt(fn, repeats: int) -> float:
    """Median minor page faults of one call of ``fn`` over ``repeats`` calls,
    from this process's own ``resource.getrusage``."""
    faults = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(faults)


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
        layers = {
            "write": _ms(_cpu_s(lambda: dio.write_timed_measure_csv(times, measures, out),
                                repeats)),
            "perturb": _ms(_cpu_s(lambda: experiments.fill_preserving_perturbation(pi, 0.1),
                                  repeats)),
            "integrate": _ms(_cpu_s(lambda: meanfield.integrate(start, p, 5.0, dt), repeats)),
        }
    integrate = layers["integrate"]
    integrate["steps_per_s"] = round(1e3 * (len(traj) - 1) / integrate["median_ms"], 1)
    integrate["minflt_per_call"] = _minflt(lambda: meanfield.integrate(start, p, 5.0, dt), repeats)
    for K in DRIFT_K:
        layers[f"drift_K{K}"] = _drift_us(core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), repeats)
    for K in DRIFT_K:
        layers.update(_study_flows(core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), repeats))
    return {"layers": layers}


# ------------------------------------------------------------ simulate

RUN_N = (250, 1000, 4000)
S, T = 1.5, 5.0
SAMPLE_TIMES = tuple(0.5 * k for k in range(11))
STEP_EVENTS = 20_000
RANK_ROUNDS = 20


def _rates(fn, count: int, repeats: int, what: str = "events") -> dict:
    return _summary([count / t for t in _cpu_s(fn, repeats)], "per_s", None, **{what: count})


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
        layers[f"place_N{N}"] = _rates(lambda: simulate.init_uniform(N, M, p.K, seed=N), M,
                                       repeats, "cars")
        snapshots = [counts for _, counts in simulate.run(p, cfg, initial=initial)]
        n = core.num_states(p.K)

        def rank_counts():
            for _ in range(RANK_ROUNDS):
                for counts in snapshots:
                    simulate._rank_counts(counts, p.K, n)

        layers[f"rank_counts_N{N}"] = _rates(rank_counts, RANK_ROUNDS * len(snapshots), repeats,
                                             "snapshots")

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
    samples = []
    for _ in range(repeats):
        _KERNEL_S.append(reference.kernel())
        samples.append(float(subprocess.run(cmd, check=True, capture_output=True,
                                            text=True).stdout))
    return _summary(samples, "ms", 3)


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


def solver_outcomes(repeats: int) -> dict:
    cells, totals, cpu_by_K = {}, dict.fromkeys(verify.OUTCOMES, 0), {}
    for K in K_VALUES:
        t0 = time.process_time()
        for nu in NU_OVER_MU:
            p = core.ModelParams(lam=1.0, mu=1.0, nu=nu, K=K)
            _, counts = verify.solve_grid([(p, f) for f in FILLS])
            cells[f"K={K} nu/mu={nu!r}"] = counts
            for name, n in counts.items():
                totals[name] += n
        cpu_by_K[K] = time.process_time() - t0
    return {
        "grid": {"K": list(K_VALUES), "nu_over_mu": list(NU_OVER_MU),
                 "s_over_K": list(FILLS), "residual_tol": verify._RESIDUAL_TOL},
        "cpu_s": round(sum(cpu_by_K.values()), 3),
        "cpu_s_by_K": {K: round(t, 3) for K, t in cpu_by_K.items()},
        "totals": totals,
        "cells": cells,
    }


# ------------------------------------------------------------ positivity

POSITIVITY_K = (1, 2, 3, 4, 6, 8, 10, 15)
POSITIVITY_RATES = tuple((lam, nu) for lam in (0.2, 1.0, 5.0) for nu in (0.01, 1.0, 100.0))
POSITIVITY_FRACTIONS = (0.5, 0.75, 1.0)  # of 1 / q_max
POSITIVITY_T = 1.0
POSITIVITY_ALL_TO_K, POSITIVITY_DRAWS = 10, 150  # every point mass to that K, else draws


def _least_mass(p, ranks, dt: float) -> float:
    """Least mass of every state of the flows from the point masses at
    ``ranks``, each step of ``dt`` over [0, ``POSITIVITY_T``] read."""
    st = meanfield._stencils(p.K)
    plan = list(meanfield._grid_plan(p, POSITIVITY_T, dt)[0])
    G = max(1, meanfield._GROUP_MASSES // st.n)
    lo = math.inf
    for g in range(0, len(ranks), G):
        block = np.zeros((len(ranks[g:g + G]), st.n))
        block[np.arange(len(block)), ranks[g:g + G]] = 1.0
        for _, V in meanfield._rk4(block if len(block) > 1 else block[0], p, st, plan, None):
            lo = min(lo, float(V.min()))
    return lo


def positivity(repeats: int) -> dict:
    cells, below = {}, dict.fromkeys(map(str, POSITIVITY_FRACTIONS), 0)
    t0 = time.process_time()
    for K in POSITIVITY_K:
        n = core.num_states(K)
        ranks = (np.arange(n) if K <= POSITIVITY_ALL_TO_K else
                 np.sort(np.random.default_rng(K).choice(n, POSITIVITY_DRAWS, replace=False)))
        for lam, nu in POSITIVITY_RATES:
            p = core.ModelParams(lam=lam, mu=1.0, nu=nu, K=K)
            q_max = meanfield._exit_bound(p)
            cell = {str(f): _least_mass(p, ranks, f / q_max) for f in POSITIVITY_FRACTIONS}
            cells[f"K={K} lam={lam!r} nu={nu!r}"] = cell
            for f, lo in cell.items():
                below[f] += lo < 0.0
    return {
        "grid": {"K": list(POSITIVITY_K), "lam_nu": [list(r) for r in POSITIVITY_RATES],
                 "mu": 1.0, "T": POSITIVITY_T, "fractions": list(POSITIVITY_FRACTIONS),
                 "all_point_masses_to_K": POSITIVITY_ALL_TO_K, "draws": POSITIVITY_DRAWS},
        "cpu_s": round(time.process_time() - t0, 3),
        "cells_below_zero": below,
        "least": {f: min(cell[f] for cell in cells.values()) for f in below},
        "cells": cells,
    }


# ------------------------------------------------------------ contract

NAN, INF = math.nan, math.inf
_P2 = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
_P3 = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
_STUDY = dict(p=_P2, N_list=[4, 8], replicas=1, T=1.0, sample_times=(1.0,), seed0=5, s=1.0)
_ONES = dict(eta1=1.0, rho1=1.0, rho2=1.0, eta2=1.0)

BASE = {  # declared entry: keyword arguments of one cheap valid call, the defaults aside
    "ModelParams": dict(lam=1.0, mu=1.0, nu=2.0, K=3), "Measure": dict(probs=[0.2] * 5, K=1),
    "Measure.point": dict(state=(0, 0, 0, 1), K=1), "Measure.uniform": dict(K=1),
    **dict.fromkeys(["num_states", "enumerate_states", "core.count_arrays"], dict(K=2)),
    "index_of": dict(state=(0, 0, 1, 0), K=2), "state_of": dict(rank=3, K=2),
    "core.ranks_of": dict(w=[0], x=[0], y=[1], z=[0], K=2), "RateRatios": _ONES,
    "product_form": dict(rho=equilibrium.RateRatios(**_ONES), K=2),
    "solve_equilibrium": dict(p=_P3, s=1.5),
    "integrate": dict(m0=core.Measure.uniform(2), p=_P2, T=0.1, dt=0.01),
    "integrate_at": dict(m0=core.Measure.uniform(2), p=_P2, times=[0.05, 0.1], dt_max=0.01),
    "SimConfig": dict(N=3, M=3, T=1.0, sample_times=(0.5, 1.0), seed=1),
    "init_uniform": dict(N=3, M=3, K=2, seed=1),
    "empirical_measure": dict(counts=[[0, 0, 1, 0], [0, 1, 0, 0]], K=2),
    "experiments.derive_seed": dict(seed0=5, condition=4, replica=1),
    "fill_preserving_perturbation": dict(m=core.Measure.point((0, 0, 2, 0), 2), size=0.1),
    "convergence_experiment": _STUDY, "chaos_experiment": _STUDY,
    "attraction_experiment": dict(p=_P2, perturbation_size=0.1, T=1.0, s=1.0),
    "verify.solve_grid": dict(cells=[(_P3, 0.5)]),
}
THEN = {"ModelParams": lambda p: equilibrium.solve_equilibrium(p, p.K / 2)}  # on the answer
KNOWN_OTHER = {
    # (entry, argument, draw): accepted inputs that end in the generic fill
    # RuntimeError (ROADMAP item 3)
    ("ModelParams", "lam", "huge"), ("ModelParams", "mu", "tiny"),
}
HAND_GUARDED = {"num_states", "Measure"}  # data-declared
SWEEP_SEED = 20261019
OUTCOMES = ("answer", "named_value_error", "named_runtime_error", "other")
# at and just outside each bound in use: counts >= 0, 1 or 2, reals >= 0 or
# > 0; then the magnitudes, and sequences a rule may refuse as a whole
# (decreasing times, a lone number, a pair with a negative entry)
EDGES = (-1, math.nextafter(0.0, -1.0), 0.5, 1, 1.5, 2, 2.5, 0, NAN, INF, -INF, 1e-300, 1e300)
SEQUENCES = ((1.0, 0.5), (-0.7,), (0.5, -0.5))
# The sizes, by name in every entry, and the magnitude at which each is
# large, not drawn: a size makes tables or runs that large.  Times and steps
# are drawn at every magnitude, since the step and event budgets refuse the
# large ones by name.
SIZES = ("K", "N", "M", "N_list", "replicas")
NOT_DRAWN_LARGE = dict.fromkeys(SIZES, 1e300)


def value_class(v) -> str:
    """The class of one drawn number, or ``string``."""
    if isinstance(v, str):
        return "string"
    for name, hit in (("nan", math.isnan(v)), ("inf", v == INF), ("-inf", v == -INF),
                      ("zero", v == 0), ("negative", v < 0), ("huge", v >= 1e300),
                      ("tiny", v <= 1e-300), ("integer", float(v).is_integer())):
        if hit:
            return name
    return "fraction"


def _draws(base, large, rng) -> list:
    """``(label, value)`` draws of one argument whose valid value is
    ``base``: ``EDGES`` (less ``large``, the magnitude at which it sets
    the work), two seeded numpy draws, a string, and for a sequence
    ``SEQUENCES``, a non-sequence and an empty sequence.  For a sequence
    argument each number replaces its first entry."""
    numbers = [v for v in EDGES if v != large] + [float(rng.uniform(-4.0, 4.0)),
                                                 int(rng.integers(-2, 4))]
    if not isinstance(base, (list, tuple)):
        return [(value_class(v), v) for v in numbers] + [("string", "1.5"), ("empty", [])]
    return ([(f"entry {value_class(v)}", [v, *base[1:]]) for v in numbers]
            + [(f"edge {e!r}", e) for e in SEQUENCES]
            + [("string", "1.5"), ("non-sequence", 2), ("empty", [])])


def _entry(name: str):
    return functools.reduce(getattr, name.split("."), duores)


def _ending(call, named) -> tuple[str, str]:
    """How ``call()`` ends, one of ``OUTCOMES`` (a ``ValueError`` is named
    when its message names ``named``), and its error message."""
    try:
        call()
    except ValueError as e:
        names = named is not None and re.search(rf"(?<!\w){re.escape(named)}(?!\w)", str(e))
        return ("named_value_error" if names else "other"), f"ValueError: {e}"
    except Exception as e:  # any other ending is counted, not raised
        subclass = isinstance(e, RuntimeError) and type(e) is not RuntimeError
        return ("named_runtime_error" if subclass else "other"), f"{type(e).__name__}: {e}"
    return "answer", ""


def sweep_outcome(entry: str, arg: str, value) -> tuple[str, str]:
    """How the base call of ``entry`` (a staged one through ``.refuse``)
    ends with ``arg`` drawn as ``value``."""
    fn = _entry(entry)
    call = getattr(fn, "refuse", fn)
    then = THEN.get(entry, lambda out: out)
    return _ending(lambda: then(call(**{**BASE[entry], arg: value})), arg)


def sweep() -> list:
    """Every draw of every declared argument of every entry of ``BASE``:
    ``(entry, argument, label, refused by the declaration, outcome,
    message)``."""
    rows = []
    for entry, base in BASE.items():
        fn = _entry(entry)
        full = {k: p.default for k, p in inspect.signature(fn).parameters.items()} | base
        for arg, rule in fn.__domain__.items():
            rng = np.random.default_rng((SWEEP_SEED, zlib.crc32(f"{entry} {arg}".encode())))
            for label, value in _draws(full[arg], NOT_DRAWN_LARGE.get(arg), rng):
                try:
                    rule.check(arg, value)
                    refused = False
                except ValueError:
                    refused = True
                rows.append((entry, arg, label, refused, *sweep_outcome(entry, arg, value)))
    return rows


def sweep_unexpected(row) -> bool:
    """A draw the declaration refuses that does not end in a refusal naming
    it; a draw it accepts that a hand-written guard refuses as out of the
    argument's own domain (``<arg> must be ...``); or any draw that ends
    otherwise, less ``KNOWN_OTHER``."""
    entry, arg, label, refused, outcome, message = row
    if refused:
        return outcome != "named_value_error"
    if entry in HAND_GUARDED and message.startswith(f"ValueError: {arg} must be"):
        return True
    return outcome == "other" and (entry, arg, label) not in KNOWN_OTHER


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
_RUN = (_P2, simulate.SimConfig(3, 3, 1.0, (1.0,), 1))  # N = 3 stations holding M = 3 cars
_U2 = core.Measure.uniform(2)
_HUGE, _OVER = core.ModelParams(1e308, 1.0, 1.0, 3), core.ModelParams(1e308, 1e308, 1e308, 3)
_NEAR = core.ModelParams(1e307, 1e307, 1e307, 3)  # a finite rate bound, a subnormal step
_STILL, _P20 = core.ModelParams(0.0, 1.0, 2.0, 2), core.ModelParams(1.0, 1.0, 2.0, 20)

CONTRACT = (
    # The inputs no declaration states: (entry in duores or _LOCAL, args,
    # kwargs, the argument its refusal names, or None where the input lies
    # in the domain or on its edge and has an answer).  Rules across
    # arguments:
    ("solve_equilibrium", (_P3, 3.0), {}, "s"),
    ("verify.solve_grid", ([(_P3, NAN)],), {}, "cells"),
    ("init_uniform", (3, 10, 3, 1), {}, "M"),
    ("SimConfig", (2, 1, 1.0, (2.0,), 0), {}, "sample_times"),
    ("integrate", (_U2, _P2, 1.0, 1.0), {}, "dt"),
    ("integrate_at", (_U2, _P2, [0.5], 1.0), {}, "dt_max"),
    ("convergence_experiment", (_P2, [4, 8], 1, 1.0, (2.0,), 5), {"s": 1.0}, "sample_times"),
    ("chaos_experiment", (_P2, [8, 4], 1, 1.0, (1.0,), 5), {"s": 1.0}, "N_list"),
    ("attraction_experiment", (_P2, 0.1, 1.0), {"s": 2.0}, "s"),
    ("core.ranks_of", ([0.5], [0], [0], [0], 2), {}, "state"),
    ("run", (_HUGE, simulate.SimConfig(2, 1, 1.0, (1.0,), 0)), {}, "lam"),
    ("step", (simulate.init_uniform(2, 1, 3, 0), _HUGE, np.random.default_rng(0)), {}, "lam"),
    ("convergence_experiment", (_OVER, [4, 8], 1, 1.0, (1.0,), 5), {"s": 1.5}, "lam"),
    ("chaos_experiment", (_OVER, [4, 8], 1, 1.0, (1.0,), 5), {"s": 1.5}, "lam"),
    ("attraction_experiment", (_OVER, 0.1, 1.0), {"s": 1.5}, "lam"),
    # replica-study verdicts over nothing: one size, or nothing that moves
    ("chaos_experiment", (_P2, [4], 1, 1.0, (1.0,), 5), {"s": 1.0}, "N_list"),
    ("convergence_experiment", (_STILL, [4, 8], 1, 1.0, (1.0,), 5), {"s": 1.0}, "lam"),
    ("chaos_experiment", (_STILL, [4, 8], 1, 1.0, (1.0,), 5), {"s": 1.0}, "lam"),
    ("convergence_experiment", (_P2, [4, 8], 1, 1.0, (0.0,), 5), {"s": 1.0}, "sample_times"),
    # the budgets of steps, kept states, events and the solver's capacity; the
    # two kept blocks (53 GB and 11 GB) are more than an 8 GB machine maps
    ("integrate", (core.Measure.uniform(20), _P20, 5000.0, 0.008), {}, "T"),
    ("integrate_at", (core.Measure.uniform(40), core.ModelParams(1.0, 1.0, 2.0, 40),
                      np.linspace(1e-4, 1.0, 10_000), 0.004), {}, "times"),
    ("attraction_experiment", (), dict(p=_NEAR, perturbation_size=0.1, T=1.0, s=1.5), "T"),
    ("integrate_at", (core.Measure.uniform(3), _NEAR, [1.0], 0.25 / _NEAR.rate_bound), {},
     "dt_max"),
    ("run", (core.ModelParams(1e300, 1.0, 1.0, 3),),
     {"config": simulate.SimConfig(2, 1, 1.0, (1.0,), 0)}, "lam"),
    ("solve_equilibrium", (core.ModelParams(1.0, 1.0, 2.0, 10**300), 1.5), {}, "K"),
    # ranks whose int64 arithmetic overflows, and the counts a run, a
    # placement or the chaos study keeps (640 GB, 320 GB and 10.9 GB): past
    # each budget the first allocation is more than an 8 GB machine maps,
    # or, for chaos, the event budget refuses its sizes' runs
    ("core.ranks_of", ([0], [0], [1], [0], 90_000), {}, "K"),
    ("index_of", ((0.0, 0, 1, 0), 130_000), {}, "K"),
    ("run", (_P3,), {"config": simulate.SimConfig(10**10, 0, 0.0, (0.0,), 0)}, "N"),
    ("init_uniform", (10**10, 0, 1, 0), {}, "N"),
    ("chaos_experiment", (core.ModelParams(1.0, 1.0, 2.0, 11), [10**10, 2 * 10**10], 1000, 1.0,
                          np.linspace(1e-3, 1.0, 1000), 5), {"s": 5.0}, "replicas"),
    # a start state that does not fit the run
    ("run", _RUN, {"initial": _start(y=(-1, 2, 2))}, "initial"),
    ("run", _RUN, {"initial": _start(y=(3, 0, 0))}, "initial"),
    ("run", _RUN, {"initial": _start(w=(0, 1, 0), y=(0, 1, 1), z=(1, 0, 0))}, "initial"),
    # what a report holds must read back as JSON
    ("json_read_back", (np.float64(INF),), {}, None),
    ("json_read_back", (np.bool_(True),), {}, None),
    # domain edges that must answer
    ("ModelParams", (0.0, 1.0, 1.0, 1), {}, None),
    ("num_states", (0,), {}, None),
    ("init_uniform", (1, 0, 1, 0), {}, None),
    ("fill_preserving_perturbation", (_U2, INF), {}, None),
)


def contract_id(row) -> str:
    """``entry(args, key=value)``, an object argument shown by its type."""
    entry, args, kwargs, _ = row
    shown = [repr(a) if isinstance(a, (int, float, str, tuple, list)) else type(a).__name__
             for a in args]
    return f"{entry}({', '.join(shown + [f'{k}={v!r}' for k, v in kwargs.items()])})"


def contract_outcome(entry, args, kwargs, named) -> tuple[str, str]:
    """How the call of ``entry`` ends, one of ``OUTCOMES``, and its error
    message (empty for an answer)."""
    fn = _LOCAL.get(entry) or _entry(entry)
    return _ending(lambda: fn(*args, **kwargs), named)


def _counts(keys, outcomes) -> tuple[dict, dict]:
    """Outcome counts per key and in total."""
    per, totals = {}, dict.fromkeys(OUTCOMES, 0)
    for key, outcome in zip(keys, outcomes):
        per.setdefault(key, dict.fromkeys(OUTCOMES, 0))[outcome] += 1
        totals[outcome] += 1
    return per, totals


def contract(repeats: int) -> dict:
    rows = sweep()
    entries, totals = _counts([r[0] for r in rows], [r[4] for r in rows])
    kept = [contract_outcome(*row)[0] for row in CONTRACT]
    kept_entries, kept_totals = _counts([r[0] for r in CONTRACT], kept)
    large = {e: {a: NOT_DRAWN_LARGE[a] for a in _entry(e).__domain__ if a in NOT_DRAWN_LARGE}
             for e in BASE}
    return {
        "sweep": {"draws": len(rows), "seed": SWEEP_SEED, "totals": totals, "entries": entries,
                  "not_drawn_large": {e: a for e, a in large.items() if a},
                  "known_other": [" ".join(k) for k in sorted(KNOWN_OTHER)],
                  "unexpected": [f"{r[0]} {r[1]}={r[2]}: {r[5]}" for r in rows
                                 if sweep_unexpected(r)]},
        "rows": len(CONTRACT), "kept": [contract_id(row) for row in CONTRACT],
        "totals": kept_totals, "entries": kept_entries,
        "unexpected": [contract_id(row) for row, outcome in zip(CONTRACT, kept)
                       if outcome != ("answer" if row[3] is None else "named_value_error")],
    }


# ------------------------------------------------------------

SUBJECTS = {  # name: (measure, default repeats, default --out)
    "flow": (flow, 15, "BENCH_flow_layers.json"),
    "simulate": (simulate_events, 31, "BENCH_simulate_layers.json"),
    "state_space": (state_space, 7, "BENCH_state_space.json"),
    "solver_outcomes": (solver_outcomes, None, "BENCH_solver_outcomes.json"),
    "contract": (contract, None, "BENCH_contract.json"),
    "positivity": (positivity, None, "BENCH_positivity.json"),
}


def _at_reference(row, k: float) -> None:
    """Next to each median in ``row``, the median on a CPU that runs the
    reference kernel in ``REF_S``: a time scaled by ``REF_S / k``, a rate
    by ``k / REF_S``."""
    if isinstance(row, dict):
        for key in list(row):
            _at_reference(row[key], k)
        for unit, scale in (("ms", reference.REF_S / k), ("us", reference.REF_S / k),
                            ("per_s", k / reference.REF_S)):
            if f"median_{unit}" in row:
                row[f"median_{unit}_at_ref"] = round(row[f"median_{unit}"] * scale, 3)


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
    _KERNEL_S.clear()
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
    if _KERNEL_S:
        record["reference_s"] = round(statistics.median(_KERNEL_S), 5)
        _at_reference(record.get("layers"), record["reference_s"])
    data = json.loads(out.read_text()) if out.is_file() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2) + "\n")
    _show(args.label, record.get("layers")
          or {k: record[k] for k in ("cpu_s", "cpu_s_by_K", "totals", "unexpected",
                                    "cells_below_zero", "least")
              if k in record})
    return 0


if __name__ == "__main__":
    sys.exit(main())
