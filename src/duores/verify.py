"""Self-contained verification suites, and the one registry of what
``duores verify`` runs.

Each suite pits two independent computation paths against each other
(closed form vs. explicit generator, four-coordinate vs. reduced
family, solver output vs. residual evaluation).  It returns an
:class:`~duores.experiments.ExperimentReport`: its arguments as
``config``, its worst discrepancy as ``metrics["worst"]`` next to any
other number it computes, and its tolerances as ``thresholds``.  Each
suite declares its arguments (``core._domain``) and refuses a bad one
before any work, so that no suite passes with nothing checked: a count
below one, an empty grid list, a tolerance that is not finite and
positive, a seed numpy does not take, and in the fixed-point suites a
grid cell the solver would refuse.

:data:`ITEMS` holds the seven suites and the four experiments of
:mod:`duores.experiments`.  Each item has ``.refuse(**kwargs)``, its
checks alone, so the CLI refuses every item's config before any item
runs; the test suite pins the suites at fixed tolerances.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    _POSITIVE,
    _SEED,
    _SIZE0,
    _SIZE1,
    ModelParams,
    _budgeted_pairs,
    _domain,
    _each,
    _listed,
    _real,
    _Rule,
    _staged,
    count_arrays,
    enumerate_states,
    index_of,
    mean_fill,
    num_states,
    state_of,
)
from .equilibrium import (
    MultipleEquilibriaError,
    RateRatios,
    _check_solvable,
    _simple_mean,
    product_form,
    simple_form,
    solve_equilibrium,
)
from .experiments import (
    ExperimentReport,
    attraction_experiment,
    chaos_experiment,
    convergence_experiment,
    monotonicity_scan,
)

__all__ = [
    "tandem_generator",
    "check_enumeration",
    "check_product_form_stationarity",
    "check_step2_identity",
    "check_aggregation_identity",
    "check_fill_identity",
    "check_fixed_point",
    "check_fixed_point_large_K",
    "OUTCOMES",
    "solve_grid",
    "ITEMS",
]


_K_LIST = _each(_SIZE1, least=1)
_NONEMPTY = _each(_POSITIVE, least=1)
_FRACTIONS = _each(_real(0, strict=True, hi=1), least=1)  # fill fractions s / K


@_domain(eta1=_POSITIVE, rho1=_POSITIVE, rho2=_POSITIVE, eta2=_POSITIVE, K=_SIZE0)
def tandem_generator(eta1: float, rho1: float, rho2: float, eta2: float,
                     K: int) -> np.ndarray:
    """Dense generator of the four-queue cycle with the given traffic
    intensities, truncated at total occupancy ``K``.

    Built by looping over states and applying the queueing rules
    directly (arrivals blocked at capacity, single server on the
    available-car queue, unit arrival rate, service rates equal to the
    arrival rate over each intensity).  Scaled by its largest diagonal
    so the stationarity residual is scale-free.  This path shares no
    code with the product form it is used to validate.  Its ``n^2``
    entries must fit the state budget, :data:`~duores.core.MAX_STATES`
    (``K <= 11``); above it a ``ValueError`` is raised before any table
    is built.
    """
    n = _budgeted_pairs(K, "dense tandem generators")
    states = enumerate_states(K)
    Q = np.zeros((n, n))

    def add(r, st, rate):
        c = index_of(st, K)
        Q[r, c] += rate
        Q[r, r] -= rate

    for r, (w, x, y, z) in enumerate(states):
        if w + x + y + z < K:
            add(r, (w + 1, x, y, z), 1.0)
        if w > 0:
            add(r, (w - 1, x + 1, y, z), w / eta1)
        if x > 0:
            add(r, (w, x - 1, y + 1, z), x / rho1)
        if y > 0:
            add(r, (w, x, y - 1, z + 1), 1.0 / rho2)
        if z > 0:
            add(r, (w, x, y, z - 1), z / eta2)
    scale = float(np.abs(np.diag(Q)).max())
    return Q / scale if scale > 0 else Q


def _draws(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` draws from ``(0, 3)``, a zero draw redrawn."""
    out = []
    while len(out) < n:
        v = float(rng.uniform(0.0, 3.0))
        if v != 0.0:
            out.append(v)
    return out


def _worst_of_trials(name: str, trial, trials: int, seed: int, tol: float, **config):
    """The work of a suite of seeded trials: the worst ``trial(rng, i)`` over
    ``i < trials`` on one generator seeded with ``seed``; passes below ``tol``."""
    def work() -> ExperimentReport:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for i in range(trials):
            worst = max(worst, float(trial(rng, i)))
        return ExperimentReport(name, {"trials": trials, **config, "seed": seed}, [],
                                {"worst": worst}, {"tol": tol}, worst < tol)
    return work


@_staged
@_domain(K_max=_SIZE0, roundtrip_K_max=_SIZE0)
def check_enumeration(K_max: int = 10, roundtrip_K_max: int = 6) -> ExperimentReport:
    """Closed-form state counts, the count arrays against their defining
    nested loop over ``(w, x, y, z)`` in lexicographic order, and the
    rank/state bijection; ``worst`` counts the mismatches."""
    def work() -> ExperimentReport:
        mismatches = 0
        for K in range(max(K_max, roundtrip_K_max) + 1):
            states = [(w, x, y, z) for w in range(K + 1) for x in range(K + 1 - w)
                      for y in range(K + 1 - w - x) for z in range(K + 1 - w - x - y)]
            if not num_states(K) == math.comb(K + 4, 4) == len(states):
                mismatches += 1
            arrays = np.stack(count_arrays(K), axis=1)
            if arrays.shape != (len(states), 4):
                mismatches += 1
            else:
                mismatches += int((arrays != np.array(states)).any(axis=1).sum())
            if K <= roundtrip_K_max:
                for rank, st in enumerate(states):
                    if index_of(st, K) != rank or state_of(rank, K) != st:
                        mismatches += 1
        config = {"K_max": K_max, "roundtrip_K_max": roundtrip_K_max}
        return ExperimentReport("enumeration", config, [], {"worst": float(mismatches)},
                                {"tol": 0.0}, mismatches == 0)
    return work


@_staged
@_domain(trials=_SIZE1, K_list=_K_LIST, seed=_SEED, tol=_POSITIVE)
def check_product_form_stationarity(
    trials: int = 50,
    K_list=(1, 2, 3, 4, 5),
    seed: int = 20260817,
    tol: float = 1e-10,
) -> ExperimentReport:
    """Product form against the independent dense tandem generator, each
    ``K`` of ``K_list`` refused before any trial if that generator is above
    the state budget."""
    for K in K_list:
        _budgeted_pairs(K, "dense tandem generators")

    def trial(rng, i):
        K = K_list[i % len(K_list)]
        eta, rho1, rho2 = _draws(rng, 3)
        pi = product_form(RateRatios(eta, rho1, rho2, eta), K).probs
        return np.abs(pi @ tandem_generator(eta, rho1, rho2, eta, K)).max()

    return _worst_of_trials("product_form_stationarity", trial, trials, seed, tol,
                            K_list=list(K_list))


@_staged
@_domain(trials=_SIZE1, K_max=_SIZE1, seed=_SEED, tol=_POSITIVE)
def check_step2_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260818,
    tol: float = 1e-13,
) -> ExperimentReport:
    """Balance identity of the reduced family:
    ``rho2 (1 - P[saturated]) = 1 - P[no available car]`` for every
    ``(x, rho2)``, both masses read from the reference array
    ``simple_form``; the solver asserts this instead of solving it."""
    def trial(rng, i):
        K = 1 + i % K_max
        x, y = _draws(rng, 2)
        p = simple_form(x, y, K)
        return abs(y * (1.0 - np.fliplr(p).trace()) - (1.0 - p[:, 0].sum()))

    return _worst_of_trials("step2_identity", trial, trials, seed, tol, K_max=K_max)


@_staged
@_domain(trials=_SIZE1, K_max=_SIZE1, seed=_SEED, tol=_POSITIVE)
def check_aggregation_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260819,
    tol: float = 1e-13,
) -> ExperimentReport:
    """Pushing the four-coordinate product form through
    ``(w, x, y, z) -> (w + x + z, y)`` lands exactly on the reduced
    family at aggregated intensity ``eta1 + rho1 + eta2``."""
    def trial(rng, i):
        K = 1 + i % K_max
        rho = RateRatios(*_draws(rng, 4))
        w, x, y, z = count_arrays(K)
        pushed = np.zeros((K + 1, K + 1))
        np.add.at(pushed, (w + x + z, y), product_form(rho, K).probs)
        return np.abs(pushed - simple_form(rho.rho1_tilde, rho.rho2, K)).max()

    return _worst_of_trials("aggregation_identity", trial, trials, seed, tol, K_max=K_max)


@_staged
@_domain(trials=_SIZE1, K_max=_SIZE1, seed=_SEED, tol=_POSITIVE)
def check_fill_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260820,
    tol: float = 1e-13,
) -> ExperimentReport:
    """Car density agrees between the four-coordinate form and the
    weighted mean of the reduced family, with the aggregated coordinate
    weighted by the car fraction ``(rho1 + eta) / (rho1 + 2 eta)``; the
    reduced mean is the one the solver's O(K) pass gives."""
    def trial(rng, i):
        K = 1 + i % K_max
        eta, rho1, rho2 = _draws(rng, 3)
        rho = RateRatios(eta, rho1, rho2, eta)
        c = (rho1 + eta) / (rho1 + 2.0 * eta)
        return abs(mean_fill(product_form(rho, K)) - _simple_mean(rho.rho1_tilde, rho2, K, c))

    return _worst_of_trials("fill_identity", trial, trials, seed, tol, K_max=K_max)


OUTCOMES = ("solved", "solved_above_tol", "value_error", "runtime_error",
            "multiple_equilibria", "assertion_error")
"""How a fixed-point solve ends: a report with ``max_residual <= tol``
or above it; the named ``ValueError`` of a fill out of reach; the
generic ``RuntimeError`` of a fill bisection that stopped short;
:class:`MultipleEquilibriaError`; the ``rho2`` identity assertion."""


def _outcome(p: ModelParams, s: float, tol: float) -> tuple[str, float]:
    try:
        rep = solve_equilibrium(p, s)
    except MultipleEquilibriaError:  # a RuntimeError; tested first
        return "multiple_equilibria", 0.0
    except ValueError:
        return "value_error", math.inf
    except RuntimeError:
        return "runtime_error", math.inf
    except AssertionError:
        return "assertion_error", math.inf
    return ("solved" if rep.max_residual <= tol else "solved_above_tol"), rep.max_residual


def _checked_cells(name: str, cells) -> list:
    """``cells`` as a list, each ``(p, frac)`` refused as the solver's own
    domain check refuses ``solve_equilibrium(p, frac * p.K)``: a rule
    across each cell's model and fraction."""
    cells = _listed(name, cells, "(p, frac) cells")
    for i, cell in enumerate(cells):
        try:
            p, frac = cell
            _check_solvable(p, frac * p.K)
        except (TypeError, ValueError, AttributeError) as e:  # not a (p, frac) pair, or off
            raise ValueError(f"cells[{i}]: a fixed-point grid needs fill fractions in (0, 1) "
                             f"and lam > 0; {e}") from None
    return cells


@_domain(cells=_Rule(_checked_cells, "a sequence of `(p, frac)` pairs"), tol=_POSITIVE)
def solve_grid(cells, tol: float) -> tuple[float, dict]:
    """Solve ``solve_equilibrium(p, frac * p.K)`` on each ``(p, frac)``
    cell: the one judge of a fixed-point grid.

    Returns the worst residual and the count of each of :data:`OUTCOMES`.
    A solve that raises scores an infinite residual, except the refusal
    :class:`MultipleEquilibriaError`, which is only counted.  A cell the
    solver's own domain check refuses (a fraction outside ``(0, 1)`` or
    ``lam <= 0``) raises ``ValueError`` before any solve.
    """
    return _solve_checked(cells, tol)


def _solve_checked(cells: list, tol: float) -> tuple[float, dict]:
    """:func:`solve_grid` on cells already checked."""
    worst = 0.0
    counts = dict.fromkeys(OUTCOMES, 0)
    for p, frac in cells:
        outcome, residual = _outcome(p, frac * p.K, tol)
        counts[outcome] += 1
        worst = max(worst, residual)
    return worst, counts


@_staged
@_domain(lam_list=_NONEMPTY, mu=_POSITIVE, nu_list=_NONEMPTY, K_list=_K_LIST, s_fracs=_FRACTIONS,
         tol=_POSITIVE, closed_form_tol=_POSITIVE)
def check_fixed_point(
    lam_list=(0.5, 1.0, 2.0),
    mu: float = 1.0,
    nu_list=(1.0, 10.0, 100.0),
    K_list=(2, 3, 5),
    s_fracs=(0.2, 0.5, 0.8),
    tol: float = 1e-10,
    closed_form_tol: float = 1e-6,
) -> ExperimentReport:
    """Fixed-point residuals across a parameter grid (:func:`solve_grid`),
    plus the capacity-one closed form in the fast-reservation limit.

    At ``K = 1``, ``lam = 2``, ``mu = 1`` the aggregate ratio is 2 and
    the fill 3/4 is attained exactly at intensities ``(1, 2)``.
    """
    cells = _checked_cells("cells", ((ModelParams(lam=lam, mu=mu, nu=nu, K=K), frac)
                                     for lam in lam_list for nu in nu_list for K in K_list
                                     for frac in s_fracs))

    def work() -> ExperimentReport:
        worst, counts = _solve_checked(cells, tol)
        rep1 = solve_equilibrium(ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1), 0.75)
        closed_err = max(abs(rep1.rho.rho1 - 1.0), abs(rep1.rho.rho2 - 2.0))
        return ExperimentReport(
            "fixed_point",
            {"lam_list": list(lam_list), "mu": mu, "nu_list": list(nu_list),
             "K_list": list(K_list), "s_fracs": list(s_fracs)}, [],
            {"worst": worst, "n_solves": len(cells), "closed_form_err": closed_err,
             "outcomes": counts},
            {"tol": tol, "closed_form_tol": closed_form_tol},
            worst < tol and closed_err < closed_form_tol)
    return work


@_staged
@_domain(K_list=_K_LIST, s_fracs=_FRACTIONS, nu_over_mu=_NONEMPTY, tol=_POSITIVE)
def check_fixed_point_large_K(
    K_list=(3, 5, 10, 20, 30, 40, 80, 200),
    s_fracs=(0.2, 0.5, 0.8),
    nu_over_mu=(0.1, 1.0, 10.0, 1e8),
    tol: float = 1e-10,
) -> ExperimentReport:
    """Fixed-point residuals (:func:`solve_grid`) up to capacity 200 at
    ``lam = mu = 1``, slow to near-instant reservations.  This covers the
    steep-fill regime of large ``K`` that :func:`check_fixed_point` does
    not reach."""
    cells = _checked_cells("cells", ((ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), frac)
                                     for K in K_list for frac in s_fracs for nu in nu_over_mu))

    def work() -> ExperimentReport:
        worst, counts = _solve_checked(cells, tol)
        return ExperimentReport(
            "fixed_point_large_K",
            {"K_list": list(K_list), "s_fracs": list(s_fracs), "nu_over_mu": list(nu_over_mu)},
            [], {"worst": worst, "n_solves": len(cells), "outcomes": counts}, {"tol": tol},
            worst < tol)
    return work


_SUITES = {
    "enumeration": check_enumeration,
    "product_form_stationarity": check_product_form_stationarity,
    "step2_identity": check_step2_identity,
    "aggregation_identity": check_aggregation_identity,
    "fill_identity": check_fill_identity,
    "fixed_point": check_fixed_point,
    "fixed_point_large_K": check_fixed_point_large_K,
}
"""The items that are suites, whose arguments all have defaults: what the
CLI's ``checks`` names and ``overrides`` configures."""

ITEMS = {
    **_SUITES,
    "convergence": convergence_experiment,
    "chaos": chaos_experiment,
    "attraction": attraction_experiment,
    "monotonicity": monotonicity_scan,
}
"""Every item ``duores verify`` runs, by name: the seven suites, then the
four experiments.  Each returns an :class:`ExperimentReport` and has
``.refuse(**kwargs)``, which runs the item's checks alone and returns its
work unrun."""
