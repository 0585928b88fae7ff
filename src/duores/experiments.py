"""Reproducible experiments tying simulator, flow, and fixed point.

Each experiment returns an :class:`ExperimentReport` carrying its full
configuration, per-condition rows, aggregate metrics, the thresholds it
was judged against, and the verdict.  Reports are plain data and
serialize to JSON unchanged, so reruns with the same seed root are
byte-identical.  The three studies (convergence, chaos, attraction) take
a model and a run shape; the bounds they are judged against are module
constants.  The checks that take no arguments, the monotonicity scan
among them, live in :mod:`duores.verify`.  The studies integrate at one
step, ``meanfield._default_dt``: ``0.5 / (2 lam + max(nu, mu) K)``, half
RK4's positivity threshold for the flow, kept as ``config["dt_max"]`` or
``config["dt"]``.  Each study checks every argument before any run, its
plans against the budgets through ``core._gate`` included, and has
``.refuse(*args, **kwargs)`` (``core._staged``), which runs those checks
alone; ``duores verify`` calls it on every study's config before any
item runs.

Seeds derive from a root by position: condition ``N`` and replica ``r``
use the numpy seed-sequence entropy ``(seed0, N, r)``, with ``r = 0``
reserved for the shared initial placement.  Replicas are therefore
independent of execution order.  A replica study makes every size's
placement first, then integrates the flows from all their empirical
measures in one run of the flow loop (``meanfield._flows_at``), which
keeps their states in one block, then runs each size's replicas, so its
checks count the placements and the block of flows it holds through the
runs.  A size's flow can differ from :func:`integrate_at` of the same
start in the last bit, since a group of starts sums in another order.
The attraction study streams its flow through the same loop and keeps
only the rows of its report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .core import (
    _CACHED_CAPACITIES,
    _NONNEG,
    _POSITIVE,
    _SIZE1,
    Measure,
    ModelParams,
    _budgeted_pairs,
    _count,
    _domain,
    _each,
    _gate,
    _real,
    _staged,
    _times,
    _within,
    count_arrays,
    mean_fill,
    num_states,
    tv_distance,
)
from .equilibrium import _check_solvable, product_form, solve_equilibrium
from .meanfield import _default_dt, _flows_at, _grid_plan, _row_bytes, _times_plan
from .meanfield import integrate_at  # noqa: F401  kept: the benchmark's traced pass wraps it
from .simulate import (_COUNT_BYTES, SimConfig, _budgeted_counts, _check_run, _rank_counts,
                       empirical_measure, init_uniform, run)

__all__ = [
    "ExperimentReport",
    "derive_seed",
    "fill_preserving_perturbation",
    "convergence_experiment",
    "chaos_experiment",
    "attraction_experiment",
]


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: rows per condition, aggregate
    metrics, thresholds, verdict."""

    name: str
    config: dict
    rows: list
    metrics: dict
    thresholds: dict
    passed: bool
    notes: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


_SEED0 = _count(0)
_SIZE2 = _count(2)  # pair statistics divide by N (N - 1)


@_domain(seed0=_SEED0, condition=_SEED0, replica=_SEED0)
def derive_seed(seed0: int, condition: int, replica: int) -> tuple:
    """Seed-sequence entropy for one replica of one condition.

    Replica 0 is reserved for the shared initial placement of the
    condition; dynamics replicas count from 1.
    """
    return seed0, condition, replica


# ============================================================
# Convergence of empirical measures to the flow
# ============================================================

def _replica_study(name, key, series, criterion, p, N_list, replicas, T, sample_times, seed0,
                   s, audit, with_pairs):
    """The one judge of the convergence and chaos experiments: it checks
    their arguments, then returns the work of the report ``name``.

    The arguments come declared (:data:`_STUDY`).  The rules across them
    are refused here, before any run: two sizes at least, strictly
    increasing, since the verdict is a strict decrease over the rows in
    ``N_list`` order; sample times within ``T``; ``round(N s)`` cars that
    ``N`` stations of capacity ``K`` can hold; something that moves
    (``lam > 0``, a last sample time above 0 and, for every ``N``, some
    but not all of the ``N K`` spaces holding a car), else the verdict
    would judge the placement alone, or distances of 0; a nonzero step;
    and through the budget gate the plans of one flow, as
    :func:`integrate_at` makes it, of the pair tables and every replica's
    rank counts (``with_pairs``), of the placements held with the block
    of every size's flow, and of every placement and run, as
    :func:`init_uniform` and :func:`run` from a given state make them.

    ``series(avg, pairs, flow)`` maps one ``N``'s replica-averaged
    measures, pair averages (:func:`_averaged_pairs`, or ``None``) and
    flow at the sample times to its distance at each time and any further
    row fields.  A row holds ``{N, M, seeds}``, the series as ``key``
    (``[t, value]`` pairs), its last value as ``key_final``, then those
    fields.  ``criterion(finals, rows, verdict)`` returns the study's
    metrics with the verdict ``{"strictly_decreasing": ...}`` placed among
    them, its thresholds, and whether its second criterion holds."""
    if len(N_list) < 2:
        raise ValueError(f"N_list must hold at least two sizes to judge a decrease in N, "
                         f"got {len(N_list)}")
    _within(sample_times, T)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list!r}")
    for N in N_list:
        if N * s > N * p.K + 1 or round(N * s) > N * p.K:  # the first test also takes N s = inf
            raise ValueError(f"s={s} puts round(N s) cars on N={N} stations of capacity "
                             f"K={p.K}, more than N K = {N * p.K}")
    for N in N_list:  # nothing moves: the verdict would judge the placement, or zeros
        cars = round(N * s)
        still = (f"lam={p.lam} requests no trip:" if p.lam == 0 else
                 "sample_times end at 0, before any event:" if sample_times[-1] == 0 else
                 f"s={s} puts round(N s) = {cars} cars on N={N} stations of capacity "
                 f"K={p.K}; with no car or no free space" if cars in (0, N * p.K) else None)
        if still:
            raise ValueError(f"{still} nothing moves, so the study has nothing to converge")
    dt = _default_dt(p)
    plan = _times_plan(p, sample_times, dt, ("sample_times", "dt_max"))
    n, kept = num_states(p.K), len(N_list) * len(sample_times)
    if with_pairs:
        _budgeted_pairs(p.K, "pair statistics")
        _gate(("MAX_KEPT_BYTES", 8 * replicas * len(sample_times) * n, lambda: (
            f"replicas={replicas} and {len(sample_times)} sample_times keep rank counts over "
            f"{n} states at K={p.K}")))
    _gate(("MAX_KEPT_BYTES", kept * _row_bytes(n) + _COUNT_BYTES * sum(N_list), lambda: (
        f"N_list={list(N_list)!r} holds its placements of {sum(N_list)} stations and its "
        f"flows' {kept} states of {n} masses")))
    for N in N_list:
        _gate(_budgeted_counts(N))
        _check_run(p, N, round(N * s), sample_times, audit, places=False)
    config = {
        "params": asdict(p),
        "s": s, "N_list": list(N_list), "replicas": replicas, "T": T,
        "sample_times": list(sample_times), "seed0": seed0,
        "dt_max": dt, "audit": audit,
    }

    def work() -> ExperimentReport:
        inits = [init_uniform(N, round(N * s), p.K, seed=derive_seed(seed0, N, 0))
                 for N in N_list]
        starts = [empirical_measure(init.counts(), p.K) for init in inits]
        flows = zip(*(ms for _, ms in _flows_at(starts, p, plan, len(plan), keep=True)))
        rows = []
        for N, init, flow in zip(N_list, inits, flows):
            M = round(N * s)
            acc = [np.zeros(n) for _ in sample_times]
            hists = [[] for _ in sample_times]  # rank counts per time, in replica order
            seeds = []
            for rep in range(1, replicas + 1):
                seed = derive_seed(seed0, N, rep)
                seeds.append(list(seed))
                cfg = SimConfig(N=N, M=M, T=T, sample_times=sample_times, seed=seed)
                traj = run(p, cfg, initial=init, audit=audit)
                for k, (_, counts) in enumerate(traj):
                    c = _rank_counts(counts, p.K, n)  # c / N: empirical_measure's masses
                    acc[k] += c / N
                    if with_pairs:
                        hists[k].append(c)
            avg = [Measure(a / replicas, p.K) for a in acc]
            pairs = _averaged_pairs(hists, N, n) if with_pairs else None
            values, fields = series(avg, pairs, flow)
            rows.append({"N": N, "M": M, "seeds": seeds,
                         key: [[t, v] for t, v in zip(config["sample_times"], values)],
                         f"{key}_final": values[-1], **fields})
        finals = [row[f"{key}_final"] for row in rows]
        verdict = {"strictly_decreasing": all(b < a for a, b in zip(finals, finals[1:]))}
        metrics, thresholds, holds = criterion(finals, rows, verdict)
        return ExperimentReport(name=name, config=config, rows=rows,
                                metrics={f"{key}_final": finals, **metrics},
                                thresholds={"strictly_decreasing": True, **thresholds},
                                passed=verdict["strictly_decreasing"] and holds)
    return work


def _pair_table(c: np.ndarray, N: int) -> np.ndarray:
    """Joint law of the states of an ordered station pair ``(i, j)``,
    ``i != j``, drawn uniformly from a snapshot of ``N >= 2`` stations
    with rank counts ``c``, as one ``(n, n)`` array over rank pairs.
    Both marginals equal the one-station empirical measure ``c / N``."""
    c = c.astype(np.float64)
    joint = np.outer(c, c)
    joint.flat[::len(c) + 1] -= c
    joint /= N * (N - 1)
    return joint


def _averaged_pairs(hists, N, n):
    """Yield, one sample time at a time, the replica-averaged pair table
    of :func:`_pair_table` and the worst difference between a replica's
    pair marginals and its one-station empirical measure.  ``hists[k]``
    holds each replica's counts over the ``n`` state ranks at sample time
    ``k``; the tables are built and summed in replica order, so one
    sample time's tables are held at a time, never one per time."""
    for per_replica in hists:
        acc = np.zeros((n, n))
        worst = 0.0
        for c in per_replica:
            pair = _pair_table(c, N)
            emp = c / N
            worst = max(worst, float(np.abs(pair.sum(axis=1) - emp).max()),
                        float(np.abs(pair.sum(axis=0) - emp).max()))
            acc += pair
        acc /= len(per_replica)
        yield acc, worst


_STUDY = dict(replicas=_SIZE1, T=_NONNEG, sample_times=_times(1), seed0=_SEED0, s=_NONNEG)
"""The rules of the replica studies' shared arguments, after ``N_list``."""


_SLOPE_RANGE = (-0.7, -0.3)  # the log-log slope of N^-1/2 convergence, with room for noise


@_staged
@_domain(N_list=_each(_SIZE1, "every N in {}", what="network size"), **_STUDY)
def convergence_experiment(
    p: ModelParams,
    N_list,
    replicas: int,
    T: float,
    sample_times,
    seed0: int,
    *,
    s: float,
    audit: bool = False,
) -> ExperimentReport:
    """Distance between replica-averaged empirical measures and the
    integrated flow, across network sizes.

    For each ``N``, ``M = round(N s)`` cars are placed once (shared
    initial state); the flow is integrated from that state's own
    empirical measure, so the distance at time zero is exactly zero.
    Passing requires the distance at the final sample time to decrease
    strictly in ``N`` with a log-log slope in ``[-0.7, -0.3]``.  The
    inputs a verdict would be vacuous on, one size or nothing that
    moves, are refused before any run (:func:`_replica_study`).
    """
    def tv(avg, pairs, flow):
        return [tv_distance(a, f) for a, f in zip(avg, flow)], {}

    def slope(finals, rows, verdict):
        fit = float(np.polyfit(np.log(np.asarray(N_list, dtype=float)),
                               np.log(np.asarray(finals)), 1)[0])
        return ({"slope": fit, **verdict}, {"slope_range": list(_SLOPE_RANGE)},
                _SLOPE_RANGE[0] <= fit <= _SLOPE_RANGE[1])

    return _replica_study("convergence", "tv", tv, slope, p, N_list, replicas, T,
                          sample_times, seed0, s, audit, with_pairs=False)


_MARGINAL_TOL = 1e-12  # pair marginals against the one-station measure: equal up to rounding


@_staged
@_domain(N_list=_each(_SIZE2, "every N in {}", 1, "network size"), **_STUDY)
def chaos_experiment(
    p: ModelParams,
    N_list,
    replicas: int,
    T: float,
    sample_times,
    seed0: int,
    *,
    s: float,
    audit: bool = False,
) -> ExperimentReport:
    """Decay of pairwise dependence: distance between the averaged
    two-station joint law and the product of the flow with itself.

    Same replica layout and refusals as :func:`convergence_experiment`,
    two sizes at least included.  Passing requires the final-time pair
    distance to decrease strictly in ``N`` and every pair measure's
    marginals to match the one-station empirical within 1e-12.  Its pair
    tables and rank counts are budgeted before any run too.
    """
    def pair_tv(avg, pairs, flow):
        tv2, marg = [], 0.0
        for (avg_pair, err), f in zip(pairs, flow):
            tv2.append(0.5 * float(np.abs(avg_pair - np.outer(f.probs, f.probs)).sum()))
            marg = max(marg, err)
        return tv2, {"marginal_err": marg}

    def marginals(finals, rows, verdict):
        worst = max(row["marginal_err"] for row in rows)
        return ({**verdict, "marginal_err_max": worst}, {"marginal_tol": _MARGINAL_TOL},
                worst <= _MARGINAL_TOL)

    return _replica_study("chaos", "pair_tv", pair_tv, marginals, p, N_list, replicas, T,
                          sample_times, seed0, s, audit, with_pairs=True)


# ============================================================
# Attraction of the flow to the fixed point
# ============================================================

@lru_cache(maxsize=_CACHED_CAPACITIES)
def _shift_permutation(K: int) -> np.ndarray:
    """Read-only rank permutation that rotates each class of equal
    ``(w, z, x + y)`` by one place: ``perm[cls[i]] = cls[i - 1]`` for
    every class ``cls`` in enumeration order.  Redistribution within a
    class moves mass only between states with the same car count and
    the same reservation counts, so the mean fill and the two
    reservation means are all preserved."""
    w, x, y, z = count_arrays(K)
    classes: dict = {}
    for r, key in enumerate(zip(w.tolist(), z.tolist(), (x + y).tolist())):
        classes.setdefault(key, []).append(r)
    perm = np.arange(len(w))
    for cls in classes.values():
        perm[cls] = np.roll(cls, 1)
    perm.setflags(write=False)
    return perm


@_domain(size=_real(0, finite=False))
def fill_preserving_perturbation(m: Measure, size: float) -> Measure:
    """Displace ``m`` by total-variation ``size`` without changing the
    mean fill or either reservation mean.

    Mass is rotated cyclically within each class of states sharing
    ``(w, z, x + y)``; the result is the convex combination of ``m``
    and its rotation that lands at the requested distance (or the full
    rotation, if the requested distance is out of reach).  A ``size``
    that is not ``>= 0``, NaN included, is refused.
    """
    shifted = m.probs[_shift_permutation(m.K)]
    full = 0.5 * float(np.abs(shifted - m.probs).sum())
    if full == 0.0 or size == 0.0:
        return m
    kappa = min(1.0, size / full)
    return Measure((1.0 - kappa) * m.probs + kappa * shifted, m.K)


_REPORT_POINTS = 200  # rows an attraction report thins its trajectory to
_FINAL_TV_TOL = 1e-4  # distance to the fixed point at T
_FILL_DRIFT_TOL = 1e-9  # the flow conserves the mean fill: a drift is rounding


@_staged
@_domain(perturbation_size=_real(0, finite=False), T=_NONNEG, s=_POSITIVE)
def attraction_experiment(
    p: ModelParams,
    perturbation_size: float,
    T: float,
    *,
    s: float,
) -> ExperimentReport:
    """Integrate from a fill-preserving perturbation of the fixed point,
    solved once every number is checked, and watch the flow return.
    The solve belongs to the checks: ``.refuse`` makes it too, and so
    refuses a fill out of reach (a ``ValueError``); any other failure
    of the solve (a ``RuntimeError``) is raised by the work.

    Passing requires the final distance to the fixed point below 1e-4
    and the mean fill constant along the whole trajectory within 1e-9.  The fill drift is taken over
    every step, but only the strided rows and the last one are kept.
    """
    n = _grid_plan(p, T, _default_dt(p))[1]  # the plan is lazy: each work builds its own
    _check_solvable(p, s)
    try:
        report, failed = solve_equilibrium(p, s), None
    except RuntimeError as e:
        report, failed = None, e

    def work() -> ExperimentReport:
        if failed is not None:
            raise failed
        plan, _ = _grid_plan(p, T, _default_dt(p))
        pi = product_form(report.rho, p.K)
        start = fill_preserving_perturbation(pi, perturbation_size)
        actual_size = tv_distance(start, pi)
        stride = max(1, (n + 1) // _REPORT_POINTS)
        fill0, fill_drift, final_tv = mean_fill(start), 0.0, actual_size
        rows = [{"t": 0.0, "tv": final_tv, "fill": fill0}]
        for k, (t, (m,)) in enumerate(_flows_at([start], p, plan, n), 1):
            fill = mean_fill(m)
            fill_drift = max(fill_drift, abs(fill - fill0))
            if k % stride == 0 or k == n:
                final_tv = tv_distance(m, pi)
                rows.append({"t": t, "tv": final_tv, "fill": fill})
        return ExperimentReport(
            name="attraction",
            config={
                "params": asdict(p),
                "s": s, "perturbation_size": perturbation_size, "T": T, "dt": _default_dt(p),
            },
            rows=rows,
            metrics={
                "initial_tv": actual_size,
                "final_tv": final_tv,
                "fill_drift": fill_drift,
                "solver_max_residual": report.max_residual,
            },
            thresholds={"final_tv": _FINAL_TV_TOL, "fill_drift": _FILL_DRIFT_TOL},
            passed=final_tv < _FINAL_TV_TOL and fill_drift <= _FILL_DRIFT_TOL,
            notes=(() if actual_size >= perturbation_size - 1e-12 else
                   (f"requested displacement {perturbation_size} unreachable; "
                    f"used {actual_size}",)),
        )
    return work
