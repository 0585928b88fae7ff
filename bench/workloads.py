"""The three workloads: ``network``, ``flow`` and ``sweep``.

Each workload is built from its seed in ``__init__`` (the set-up the
benchmark times as ``setup_s``) and then runs passes, each on the same
inputs, so every operation is repeated and its fastest run can be
taken.  Each operation has a key, unique within the workload, under
which its outcome and CPU times are kept.  Before an operation a pass
calls ``pace``, which runs the reference kernel when one is due and
returns the index of its latest run (see ``reference.py``).  A pass calls the
package only through
public module attributes, such as
``duores.experiments.convergence_experiment``, so that a traced pass
can wrap exactly the names the workload reaches.  Output checks run
after the timed part of a pass and outside the traced region.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path

import numpy as np

from duores import core, equilibrium, experiments, meanfield, simulate
from duores import io as dio

from tracing import patch

EVENT_KINDS = ("arrival", "blocked", "pickup", "return")
RESIDUAL_TOL = 1e-10  # bound of the fixed-point residual check in duores.verify


@dataclass
class PassResult:
    """Timing and counts of one pass.

    ``wall_s`` is elapsed time, ``cpu_s`` the CPU time of the same
    interval and ``op_s`` the ``(key, CPU time, kernel run index)`` of
    each operation, failed ones included.  ``tick`` is the kernel run
    before the pass, which scales the part of ``cpu_s`` outside the
    operations.  ``complete`` is false for a pass cut short at its
    deadline.
    On a shared virtual machine CPU time leaves out the time the
    hypervisor gave the core to other guests; the workloads are
    single-threaded and CPU-bound, so otherwise the two agree.
    ``stats`` holds the pass's per-layer counts.
    """

    wall_s: float
    cpu_s: float
    op_s: list
    tick: int
    stats: Counter = field(default_factory=Counter)
    info: dict = field(default_factory=dict)
    replay: list = field(default_factory=list)
    complete: bool = True


def cpu_time() -> float:
    """CPU seconds of this process's threads and of its child processes
    that have ended, so work moved into a worker pool still counts."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), cpu_time()


def _installed(tracer, targets):
    return tracer.installed(targets) if tracer is not None else nullcontext()


def _operation(tracer):
    return tracer.operation() if tracer is not None else nullcontext()


def rk4_steps_integrate(T: float, dt: float) -> int:
    """Steps ``meanfield.integrate`` takes: whole steps of ``dt`` plus a
    shortened last one when ``T`` is not a multiple of ``dt``."""
    n_full = int(np.floor(T / dt + 1e-9))
    return n_full + (1 if T - n_full * dt > 1e-9 * max(1.0, T) else 0)


def rk4_steps_at(times, dt_max: float) -> int:
    """Steps ``meanfield.integrate_at`` takes: each segment between
    output times is cut into equal steps no longer than ``dt_max``."""
    steps, prev = 0, 0.0
    for t in times:
        if t > prev:
            steps += max(1, int(np.ceil((t - prev) / dt_max - 1e-12)))
        prev = t
    return steps


class _Calls:
    """Keeps the bound arguments, result, CPU time and kernel run index
    of every call of ``owner.attr`` that returns while the block is
    active; ``pace`` runs before each call, outside its time."""

    def __init__(self, owner, attr: str, pace):
        self.owner, self.attr, self.pace = owner, attr, pace
        self.records: list = []

    def __enter__(self):
        def make(fn):
            sig = inspect.signature(fn)

            @wraps(fn)
            def wrapper(*args, **kwargs):
                tick = self.pace()
                t0 = cpu_time()
                out = fn(*args, **kwargs)
                elapsed = cpu_time() - t0
                self.records.append((sig.bind(*args, **kwargs).arguments, out, elapsed, tick))
                return out
            return wrapper

        self._restore = patch(self.owner, self.attr, make)
        return self

    def __exit__(self, *exc) -> None:
        self._restore()


def check_snapshots(snapshots, sample_times, M: int, K: int) -> str | None:
    """Every snapshot holds ``M`` cars, no negative count and no station
    above capacity ``K``; ``None`` when all hold."""
    if [t for t, _ in snapshots] != list(sample_times):
        return "snapshot times differ from the configured sample times"
    for t, counts in snapshots:
        if int(counts.min()) < 0:
            return f"negative count at t={t}"
        if int(counts.sum(axis=1).max()) > K:
            return f"station above capacity {K} at t={t}"
        cars = int(counts[:, 1:].sum())
        if cars != M:
            return f"{cars} cars at t={t}, expected {M}"
    return None


def replay_events(p, cfg, initial, snapshots):
    """Re-run one simulation event by event through the public ``step``.

    Returns the event counts up to the last sample time and a mismatch
    message, or ``None`` when at every sample time the replay's counts
    match the snapshots ``run`` produced: arrivals - pickups is the
    change in reserved cars (sum of z) and pickups - returns the change
    in cars on the road (sum of x).
    """
    state = initial.copy()
    state.t = 0.0
    rng = np.random.default_rng(cfg.seed)
    z0, x0 = int(state.z.sum()), int(state.x.sum())
    n = dict.fromkeys(EVENT_KINDS, 0)
    times = cfg.sample_times
    at: list = []  # (arrivals, pickups, returns) as seen at each sample time
    while len(at) < len(times):
        if state.total_rate(p) <= 0.0:
            at += [(n["arrival"], n["pickup"], n["return"])] * (len(times) - len(at))
            break
        before = (n["arrival"], n["pickup"], n["return"])
        _, _, tag = simulate.step(state, p, rng)
        while len(at) < len(times) and times[len(at)] < state.t:
            at.append(before)
        if len(at) < len(times):
            n[tag] += 1
    for (t, counts), (arr, pick, ret) in zip(snapshots, at):
        dz = int(counts[:, 3].sum()) - z0
        dx = int(counts[:, 1].sum()) - x0
        if arr - pick != dz or pick - ret != dx:
            return n, (f"step replay of seed {cfg.seed} disagrees with run at t={t}: "
                       f"arrivals-pickups={arr - pick} vs dz={dz}, "
                       f"pickups-returns={pick - ret} vs dx={dx}")
    return n, None


def _digest(h, snapshots) -> None:
    for t, counts in snapshots:
        h.update(np.float64(t).tobytes())
        h.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())


class Network:
    """The paper's headline study: empirical measures of finite networks
    against the mean-field flow over N spanning 1.2 decades, then one
    audited run as acceptance criterion 08 makes.

    An operation is one simulator run: a replica inside the study or
    the audited run.
    """

    name = "network"
    S = 1.5
    N_LIST = (250, 1000, 4000)
    REPLICAS = 4
    T = 5.0
    SAMPLE_TIMES = tuple(0.5 * k for k in range(11))
    AUDIT_N = 500
    AUDIT_T = 10.0

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
        M = round(self.AUDIT_N * self.S)
        self.audit_init = simulate.init_uniform(
            self.AUDIT_N, M, self.p.K, seed=experiments.derive_seed(seed, self.AUDIT_N, 0))
        self.audit_cfg = simulate.SimConfig(
            N=self.AUDIT_N, M=M, T=self.AUDIT_T,
            sample_times=tuple(0.5 * k for k in range(21)),
            seed=experiments.derive_seed(seed, self.AUDIT_N, 1))
        meanfield.drift(core.Measure.uniform(self.p.K), self.p)  # first stencil build
        self.digest: str | None = None

    @staticmethod
    def targets():
        return [
            (experiments, "convergence_experiment", "experiments", False),
            (experiments, "run", "simulate.run", False),
            (experiments, "init_uniform", "simulate.init", False),
            (experiments, "empirical_measure", "simulate.empirical", False),
            (experiments, "integrate_at", "meanfield.integrate_at", False),
            (experiments, "tv_distance", "core.functionals", False),
            (simulate, "run", "simulate.run_audit", False),
            (core.Measure, "__post_init__", "core.measure_new", False),
        ]

    def run_pass(self, tally, pace, tracer=None, deadline=None) -> PassResult:
        report = audited = None
        tick = pace()
        kernel_s = pace.spent
        with _Calls(experiments, "run", pace) as calls, _installed(tracer, self.targets()):
            w0, c0 = _clocks()
            try:
                report = experiments.convergence_experiment(
                    self.p, self.N_LIST, self.REPLICAS, self.T, self.SAMPLE_TIMES,
                    self.seed, s=self.S)
            except Exception as exc:  # counted as a failed operation
                tally.raised("study", exc)
            audit_tick = pace()
            c1 = cpu_time()
            try:
                audited = simulate.run(self.p, self.audit_cfg,
                                       initial=self.audit_init, audit=True)
            except Exception as exc:  # SimInvariantError included
                tally.raised("audit", exc)
            w2, c2 = _clocks()
        kernel_s = pace.spent - kernel_s  # kernel runs inside the pass

        h = hashlib.sha256()
        runs = []
        op_s = []
        for args, out, sec, op_tick in calls.records:
            cfg = args["config"]
            runs.append((cfg, args["initial"], out, False))
            op_s.append((("run", cfg.N, cfg.seed), sec, op_tick))
        if audited is not None:
            runs.append((self.audit_cfg, self.audit_init, audited, True))
            op_s.append((("audit",), c2 - c1, audit_tick))
        for (key, _, _), (cfg, _, out, _) in zip(op_s, runs):
            msg = check_snapshots(out, cfg.sample_times, cfg.M, self.p.K)
            if msg is None:
                tally.ok(key)
            else:
                tally.check_failed(key, f"network seed {cfg.seed}: {msg}")
            _digest(h, out)
        digest = h.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            tally.incorrect("network: snapshots differ from the first pass's "
                            "for the same seeds")

        result = PassResult(
            wall_s=w2 - w0,
            cpu_s=c2 - c0 - kernel_s,
            op_s=op_s,
            tick=tick,
            replay=runs if tracer is not None else [],
        )
        if report is not None:
            result.info = {"passed": report.passed, "slope": report.metrics["slope"],
                           "tv_final": report.metrics["tv_final"]}
            steps = len(self.N_LIST) * rk4_steps_at(self.SAMPLE_TIMES, report.config["dt_max"])
            n_states = core.num_states(self.p.K)
            result.stats.update({
                "meanfield.rk4_steps": steps,
                "meanfield.kept_bytes": len(self.N_LIST) * len(self.SAMPLE_TIMES) * n_states * 8,
            })
        return result

    def replay(self, result: PassResult, tally) -> dict:
        """Event counts of one pass, split into plain and audited runs,
        from replaying every run through ``step``."""
        events = {False: Counter(), True: Counter()}
        for cfg, initial, out, audit in result.replay:
            counts, mismatch = replay_events(self.p, cfg, initial, out)
            events[audit].update(counts)
            if mismatch:
                tally.incorrect(mismatch)
        return {"plain": events[False], "audit": events[True]}


class Flow:
    """The ``meanfield`` command's path at large capacity: solve the fixed
    point, perturb it without changing the fill, integrate back, thin
    and write the trajectory, summarize.  Deterministic: the seed is
    recorded but draws nothing.

    The operation is the whole path; its latency is the integration.
    """

    name = "flow"
    S = 7.5
    T = 5.0
    PERTURBATION = 0.1
    KEPT = 10  # intervals the written trajectory is thinned to

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
        self.dt = 0.25 / self.p.rate_bound  # the experiments' default step
        self.out = workdir / "trajectory.csv"
        meanfield.drift(core.Measure.uniform(self.p.K), self.p)  # first stencil build
        core.enumerate_states(self.p.K)  # enumeration the writer uses

    @staticmethod
    def targets():
        return [
            (equilibrium, "solve_equilibrium", "equilibrium.solve", False),
            (equilibrium, "product_form", "equilibrium.product_form", False),
            (equilibrium, "solve_phi", "equilibrium.solve_phi", True),
            (equilibrium, "f_simple", "equilibrium.f_simple", True),
            (experiments, "fill_preserving_perturbation", "experiments", False),
            (meanfield, "integrate", "meanfield.integrate", False),
            (meanfield, "stationarity_residual", "meanfield.residual", False),
            (dio, "write_timed_measure_csv", "io.write", False),
            (core, "mean_fill", "core.functionals", False),
            (core, "prob_no_available", "core.functionals", False),
            (core, "prob_saturated", "core.functionals", False),
            (core, "tv_distance", "core.functionals", False),
            (core.Measure, "__post_init__", "core.measure_new", False),
        ]

    def run_pass(self, tally, pace, tracer=None, deadline=None) -> PassResult:
        p, K = self.p, self.p.K
        self.out.parent.mkdir(parents=True, exist_ok=True)
        tick = pace()
        with _installed(tracer, self.targets()), _operation(tracer):
            w0, c0 = _clocks()
            try:
                rep = equilibrium.solve_equilibrium(p, self.S)
                pi = equilibrium.product_form(rep.rho, K)
                start = experiments.fill_preserving_perturbation(pi, self.PERTURBATION)
                ci = cpu_time()
                traj = meanfield.integrate(start, p, self.T, self.dt)
                integrate_s = cpu_time() - ci
                every = max(1, (len(traj) - 1) // self.KEPT)
                kept = traj[::every]
                if kept[-1][0] != traj[-1][0]:
                    kept.append(traj[-1])
                dio.write_timed_measure_csv([t for t, _ in kept], [m for _, m in kept],
                                            self.out)
                final = traj[-1][1]
                summary = {
                    "p_available": 1.0 - core.prob_no_available(final),
                    "p_free": 1.0 - core.prob_saturated(final),
                    "mean_fill": core.mean_fill(final),
                    "tv_start": core.tv_distance(start, pi),
                    "tv_final": core.tv_distance(final, pi),
                    "stationarity_residual": meanfield.stationarity_residual(final, p),
                }
            except Exception as exc:  # counted as a failed operation
                tally.raised("flow", exc)
                w1, c1 = _clocks()
                return PassResult(wall_s=w1 - w0, cpu_s=c1 - c0,
                                  op_s=[("flow", c1 - c0, tick)], tick=tick)
            w1, c1 = _clocks()

        msg = self._check(traj, kept, start, summary)
        if msg is None:
            tally.ok("flow")
        else:
            tally.check_failed("flow", f"flow: {msg}")
        n_states = core.num_states(K)
        stats = Counter({
            "meanfield.rk4_steps": rk4_steps_integrate(self.T, self.dt),
            "meanfield.kept_bytes": len(traj) * n_states * 8,
            "io.bytes_written": self.out.stat().st_size,
            "equilibrium.outer_iterations": rep.outer_iterations,
            "equilibrium.fill_evaluations": rep.fill_evaluations,
            "equilibrium.ok": int(rep.max_residual <= RESIDUAL_TOL),
        })
        return PassResult(wall_s=w1 - w0, cpu_s=c1 - c0, op_s=[("flow", integrate_s, tick)],
                          tick=tick, stats=stats, info=summary)

    def _check(self, traj, kept, start, summary) -> str | None:
        n_states = core.num_states(self.p.K)
        for t, m in kept:
            probs = m.probs
            if probs.shape != (n_states,) or probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-12:
                return f"kept measure at t={t} is not a probability vector"
        f0 = core.mean_fill(start)
        drift = max(abs(core.mean_fill(m) - f0) for _, m in traj)
        if drift > 1e-9:
            return f"mean fill drifted by {drift:.3g} along the trajectory"
        if not summary["tv_final"] < summary["tv_start"]:
            return (f"final TV {summary['tv_final']:.3g} is not below "
                    f"the start {summary['tv_start']:.3g}")
        return None


class Sweep:
    """Seeded fixed-point solves across capacity, fill and reservation
    speed, lam = mu = 1.

    Each solve takes K from {3, 6, 10, 15, 20}, s/K from (0.1, 0.9) and
    log10(nu/mu) from (-1, 2).  The draws form a jittered grid: the fill
    and speed ranges are cut into seven bins each, and a pass takes, for
    every K, one uniform point in the middle ``JITTER`` of each of the 49
    bin pairs.  Every seed thus sees the same mix of easy and hard
    regions, the K >= 6 cells where the solver does not converge
    included, and few draws change side of the border between them from
    seed to seed.  An operation is one solve.
    """

    name = "sweep"
    K_VALUES = (3, 6, 10, 15, 20)
    STRATA = 7
    JITTER = 0.25  # share of a bin's width, around its centre, a draw falls in

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.draws = self.make_draws(seed)
        for K in self.K_VALUES:  # factorial and enumeration caches
            equilibrium.product_form(equilibrium.RateRatios(1.0, 1.0, 1.0, 1.0), K)

    @classmethod
    def make_draws(cls, seed: int) -> list:
        """``(K, s, nu)`` of every solve of a pass."""
        rng = np.random.default_rng(seed)
        out = []
        for K in cls.K_VALUES:
            for i in range(cls.STRATA):
                for j in range(cls.STRATA):
                    u_fill, u_speed = 0.5 + cls.JITTER * (rng.random(2) - 0.5)
                    s_over_K = 0.1 + 0.8 * (i + u_fill) / cls.STRATA
                    log_nu = -1.0 + 3.0 * (j + u_speed) / cls.STRATA
                    out.append((K, s_over_K * K, 10.0 ** log_nu))
        return out

    @staticmethod
    def targets():
        return [
            (equilibrium, "solve_equilibrium", "equilibrium.solve", False),
            (equilibrium, "solve_phi", "equilibrium.solve_phi", True),
            (equilibrium, "f_simple", "equilibrium.f_simple", True),
        ]

    def run_pass(self, tally, pace, tracer=None, deadline=None) -> PassResult:
        """Solve every draw in turn; with a ``deadline`` (elapsed clock),
        stop taking new draws once it has passed.  The pass's CPU time
        is that of its solves, which leaves out the kernel runs between
        them."""
        done, op_s = [], []
        with _installed(tracer, self.targets()):
            w0 = time.perf_counter()
            for K, s, nu in self.draws:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                p = core.ModelParams(lam=1.0, mu=1.0, nu=nu, K=K)
                tick = pace()
                cs = cpu_time()
                try:
                    with _operation(tracer):
                        outcome = equilibrium.solve_equilibrium(p, s)
                except Exception as exc:  # judged below with the answers
                    outcome = exc
                op_s.append(((K, s, nu), cpu_time() - cs, tick))
                done.append(outcome)
            w1 = time.perf_counter()

        stats = Counter()
        for ((K, s, nu), _, _), outcome in zip(op_s, done):
            key = (K, s, nu)
            if isinstance(outcome, equilibrium.MultipleEquilibriaError):
                tally.ok(key)  # a named, valid outcome
            elif isinstance(outcome, Exception):
                tally.raised(key, outcome)
            elif outcome.max_residual <= RESIDUAL_TOL:
                tally.ok(key)
                stats["equilibrium.ok"] += 1
                stats["equilibrium.outer_iterations"] += outcome.outer_iterations
                stats["equilibrium.fill_evaluations"] += outcome.fill_evaluations
            else:
                tally.check_failed(key, f"sweep K={K} s={s!r} nu={nu!r}: max residual "
                                        f"{outcome.max_residual:.3g} > {RESIDUAL_TOL}")
        return PassResult(wall_s=w1 - w0, cpu_s=sum(sec for _, sec, _ in op_s), op_s=op_s,
                          tick=op_s[0][2] if op_s else pace(), stats=stats,
                          complete=len(done) == len(self.draws))


WORKLOADS = {w.name: w for w in (Network, Flow, Sweep)}
