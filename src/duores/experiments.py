"""Reproducible experiments tying simulator, flow, and fixed point.

Each experiment returns an :class:`ExperimentReport` carrying its full
configuration, per-condition rows, aggregate metrics, the thresholds it
was judged against, and the verdict.  Reports are plain data and
serialize to JSON unchanged, so reruns with the same seed root are
byte-identical.  The three studies (convergence, chaos, attraction) take
a model and a run shape; the bounds they are judged against are module
constants, as are the grids and bounds of :func:`monotonicity_scan`,
which takes no arguments.  The studies integrate at one step,
``meanfield._default_dt``, kept as ``config["dt_max"]`` or
``config["dt"]``.  Each study checks every argument before any run, its
flow against the step budget ``meanfield.MAX_STEPS`` and each replica
study's runs against the event budget ``simulate.MAX_EVENTS`` included,
and has ``.refuse(*args, **kwargs)`` (``core._staged``), which runs those
checks alone; ``duores verify`` calls it on every study's config before
any item runs.

Seeds derive from a root by position: condition ``N`` and replica ``r``
use the numpy seed-sequence entropy ``(seed0, N, r)``, with ``r = 0``
reserved for the shared initial placement.  Replicas are therefore
independent of execution order.
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
    _real,
    _staged,
    _times,
    _within,
    count_arrays,
    mean_fill,
    tv_distance,
)
from .equilibrium import (
    _car_weight,
    _check_solvable,
    _curve_point,
    _simple_mean,
    _sums_mean,
    product_form,
    solve_equilibrium,
)
from .meanfield import _check_step, _default_dt, _grid_plan, _stream, integrate_at
from .simulate import (SimConfig, _check_events, _rank_counts, empirical_measure, init_uniform,
                       run)

__all__ = [
    "ExperimentReport",
    "derive_seed",
    "fill_preserving_perturbation",
    "convergence_experiment",
    "chaos_experiment",
    "attraction_experiment",
    "monotonicity_scan",
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

def _replica_study(p, N_list, replicas, T, sample_times, seed0, s, audit, with_pairs):
    """The replica study behind the convergence and chaos experiments:
    the report's ``config`` and an iterator that yields, one ``N`` at a
    time, the row head ``{N, M, seeds}``, the replica-averaged measures,
    the pair averages of :func:`_averaged_pairs` (``None`` without
    ``with_pairs``) and the flow at the sample times.  Its arguments come
    declared (:data:`_STUDY`); the rules across them (sizes strictly
    increasing, since a report judges its rows in ``N_list`` order;
    sample times within ``T``, ``round(N s)`` cars that ``N`` stations
    of capacity ``K`` can hold, some but not all of ``N K``, pair tables
    within the state budget, a nonzero step, a flow within the step
    budget and every run within the event budget) are refused here,
    before any run.  With no car, or with every space taken, no trip can
    start: the network never moves, and the study would fit its slope to
    distances of 0."""
    _within(sample_times, T)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list!r}")
    for N in N_list:
        if N * s > N * p.K + 1 or round(N * s) > N * p.K:  # the first test also takes N s = inf
            raise ValueError(f"s={s} puts round(N s) cars on N={N} stations of capacity "
                             f"K={p.K}, more than N K = {N * p.K}")
    for N in N_list:
        if round(N * s) in (0, N * p.K):
            raise ValueError(f"s={s} puts round(N s) = {round(N * s)} cars on N={N} stations "
                             f"of capacity K={p.K}; with no car or no free space nothing "
                             f"moves, so the study has nothing to converge")
    if with_pairs:
        _budgeted_pairs(p.K, "pair statistics")
    dt = _default_dt(p)
    _check_step(p, sample_times[-1], dt, ("sample_times", "dt_max"))
    for N in N_list:
        _check_events(p, N, round(N * s), sample_times[-1])
    config = {
        "params": asdict(p),
        "s": s, "N_list": list(N_list), "replicas": replicas, "T": T,
        "sample_times": list(sample_times), "seed0": seed0,
        "dt_max": dt, "audit": audit,
    }

    def conditions():
        for N in N_list:
            M = round(N * s)
            init = init_uniform(N, M, p.K, seed=derive_seed(seed0, N, 0))
            init_measure = empirical_measure(init.counts(), p.K)
            n = init_measure.probs.size
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
            flow = integrate_at(init_measure, p, sample_times, dt)
            yield {"N": N, "M": M, "seeds": seeds}, avg, pairs, flow

    return config, conditions()


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
    strictly in ``N`` with a log-log slope in ``[-0.7, -0.3]``, so
    ``N_list`` must hold at least two sizes.
    """
    if len(N_list) < 2:
        raise ValueError(f"N_list must hold at least two sizes to fit a slope, got {len(N_list)}")
    config, study = _replica_study(p, N_list, replicas, T, sample_times, seed0, s,
                                   audit, with_pairs=False)

    def work() -> ExperimentReport:
        rows = []
        for row, avg, _, flow in study:
            tv_series = [tv_distance(a, f) for a, f in zip(avg, flow)]
            row["tv"] = [[t, v] for t, v in zip(config["sample_times"], tv_series)]
            row["tv_final"] = tv_series[-1]
            rows.append(row)
        finals = [row["tv_final"] for row in rows]
        logs = np.log(np.asarray(finals))
        slope = float(np.polyfit(np.log(np.asarray(N_list, dtype=float)), logs, 1)[0])
        decreasing = all(b < a for a, b in zip(finals, finals[1:]))
        return ExperimentReport(
            name="convergence",
            config=config,
            rows=rows,
            metrics={"tv_final": finals, "slope": slope,
                     "strictly_decreasing": decreasing},
            thresholds={"strictly_decreasing": True, "slope_range": list(_SLOPE_RANGE)},
            passed=decreasing and _SLOPE_RANGE[0] <= slope <= _SLOPE_RANGE[1],
        )
    return work


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

    Same replica layout as :func:`convergence_experiment`.  Passing
    requires the final-time pair distance to decrease strictly in ``N``
    and every pair measure's marginals to match the one-station
    empirical within 1e-12.  A pair table above the state
    budget is refused before any run.
    """
    config, study = _replica_study(p, N_list, replicas, T, sample_times, seed0, s,
                                   audit, with_pairs=True)

    def work() -> ExperimentReport:
        rows = []
        for row, _, pairs, flow in study:
            tv2, marg = [], 0.0
            for (avg_pair, err), f in zip(pairs, flow):
                tv2.append(0.5 * float(np.abs(avg_pair - np.outer(f.probs, f.probs)).sum()))
                marg = max(marg, err)
            row["pair_tv"] = [[t, v] for t, v in zip(config["sample_times"], tv2)]
            row["pair_tv_final"] = tv2[-1]
            row["marginal_err"] = marg
            rows.append(row)
        finals = [row["pair_tv_final"] for row in rows]
        worst_marginal = max((row["marginal_err"] for row in rows), default=0.0)
        decreasing = all(b < a for a, b in zip(finals, finals[1:]))
        return ExperimentReport(
            name="chaos",
            config=config,
            rows=rows,
            metrics={"pair_tv_final": finals, "strictly_decreasing": decreasing,
                     "marginal_err_max": worst_marginal},
            thresholds={"strictly_decreasing": True, "marginal_tol": _MARGINAL_TOL},
            passed=decreasing and worst_marginal <= _MARGINAL_TOL,
        )
    return work


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
    plan, n = _grid_plan(p, T, _default_dt(p))
    _check_solvable(p, s)
    try:
        report, failed = solve_equilibrium(p, s), None
    except RuntimeError as e:
        report, failed = None, e

    def work() -> ExperimentReport:
        if failed is not None:
            raise failed
        pi = product_form(report.rho, p.K)
        start = fill_preserving_perturbation(pi, perturbation_size)
        actual_size = tv_distance(start, pi)
        stride = max(1, (n + 1) // _REPORT_POINTS)
        fill0, fill_drift, final_tv = mean_fill(start), 0.0, actual_size
        rows = [{"t": 0.0, "tv": final_tv, "fill": fill0}]
        for k, (t, m) in enumerate(_stream(start, p, plan, n), 1):
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


# ============================================================
# Monotonicity scans
# ============================================================

_SCAN_A = (0.5, 1.0, 2.0, 5.0)  # the aggregate ratios a of the phi curves
_SCAN_K = (1, 2, 3, 4, 5, 6)
_GRID_STEP, _XY_MAX = 0.1, 5.0  # the car-density grid: 50 points a side
_N_CURVE = 200  # interior points of each phi curve
_ENFORCED_NU_OVER_MU = (10.0, 1e8)  # fast reservations: each fill curve must increase
_PROBED_NU_OVER_MU = (1.0, 0.1)  # slow reservations: only reported


def monotonicity_scan() -> ExperimentReport:
    """Grid checks of the monotone structure the solver relies on.

    Enforced (failures fail the report): the reduced car density
    ``E[i + j]`` (rows ``"g_mean"``) increases in both intensities on a
    square grid; the acceptance curve ``phi`` increases along its
    domain; the fill along the curve increases when reservations are
    fast (``nu >= 10 mu``).  Slow-reservation fill curves are scanned
    too but only reported: whether they can lose monotonicity is an open
    question, not a defect.
    """
    grid = np.arange(_GRID_STEP, _XY_MAX + _GRID_STEP / 2, _GRID_STEP)
    rows = []
    passed = True
    notes = []

    # E[i + j]: forward differences in both arguments on the square grid, one
    # pass per point.
    for K in _SCAN_K:
        g = np.array([[_simple_mean(float(xx), float(yy), K, 1.0) for yy in grid]
                      for xx in grid])
        dx_min = float((g[1:, :] - g[:-1, :]).min())
        dy_min = float((g[:, 1:] - g[:, :-1]).min())
        ok = dx_min > 0.0 and dy_min > 0.0
        passed = passed and ok
        rows.append({"check": "g_mean", "K": K, "min_diff_x": dx_min,
                     "min_diff_y": dy_min, "ok": ok})

    # phi: strict increase along interior grids, one solve per curve point,
    # which also gives the sums every fill row reads there.
    curves = []
    for K in _SCAN_K:
        for a in _SCAN_A:
            ts = [a * k / (_N_CURVE + 1) for k in range(1, _N_CURVE + 1)]
            points = [_curve_point(t, a, K) for t in ts]
            curves.append((K, a, ts, points))
            diffs = np.diff([y for y, _ in points])
            ok = bool(diffs.min() > 0.0)
            passed = passed and ok
            rows.append({"check": "phi", "K": K, "a": a,
                         "min_diff": float(diffs.min()), "ok": ok})

    # Fill along the same curves, per reservation-speed regime.
    for ratio, enforced in ([(q, True) for q in _ENFORCED_NU_OVER_MU]
                            + [(q, False) for q in _PROBED_NU_OVER_MU]):
        c = _car_weight(1.0 / ratio)  # r = mu / nu
        for K, a, ts, points in curves:
            diffs = np.diff([_sums_mean(t, y, sums, c) for t, (y, sums) in zip(ts, points)])
            ok = bool(diffs.min() > 0.0)
            rows.append({
                "check": "fill_curve", "K": K, "a": a,
                "nu_over_mu": ratio, "enforced": enforced,
                "min_diff": float(diffs.min()), "ok": ok,
            })
            if enforced:
                passed = passed and ok
            elif not ok:
                notes.append(
                    f"fill curve not monotone at nu/mu={ratio}, K={K}, "
                    f"a={a} (reported, not enforced)"
                )
    return ExperimentReport(
        name="monotonicity",
        config={
            "a_list": list(_SCAN_A), "K_list": list(_SCAN_K),
            "grid_step": _GRID_STEP, "xy_max": _XY_MAX, "n_curve": _N_CURVE,
            "enforce_nu_over_mu": list(_ENFORCED_NU_OVER_MU),
            "probe_nu_over_mu": list(_PROBED_NU_OVER_MU),
        },
        rows=rows,
        metrics={"n_checks": len(rows),
                 "n_failed_enforced": sum(1 for r_ in rows
                                          if not r_["ok"] and r_.get("enforced", True))},
        thresholds={"all_enforced_strictly_increasing": True},
        passed=passed,
        notes=tuple(notes),
    )
