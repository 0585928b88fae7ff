"""Self-contained verification suites, and the one registry of what
``duores verify`` runs.

Each suite pits two independent computation paths against each other
(closed form vs. explicit generator, four-coordinate vs. reduced family,
solver output vs. residual evaluation).  A suite takes no arguments: its
grid, trial count, seed and tolerances are module constants beside it, as
is the bound :func:`solve_grid` labels each solve against, so a verdict is
always reached against the same bounds, and any change to one is a change
to the check.  It returns an :class:`~duores.experiments.ExperimentReport`:
those constants as ``config`` and ``thresholds``, and its worst discrepancy
as ``metrics["worst"]`` next to any other number it computes.

:data:`ITEMS` holds the seven suites, the monotonicity scan and the three
studies of :mod:`duores.experiments`.  Only the studies take arguments (a
model and a run shape); each has ``.refuse(*args, **kwargs)``, its checks
alone, so the CLI refuses every study's config before any item runs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    _POSITIVE,
    _SIZE0,
    ModelParams,
    _budgeted_pairs,
    _domain,
    _listed,
    _Rule,
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
    _simple_form,
    _simple_mean,
    product_form,
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
    """``n`` draws from ``[0, 3)``; no suite's fixed seed draws a 0."""
    return rng.uniform(0.0, 3.0, n).tolist()


_TRIALS = {  # each suite of seeded trials: (trials, seed, tol)
    "product_form_stationarity": (50, 20260817, 1e-10),
    "step2_identity": (100, 20260818, 1e-13),
    "aggregation_identity": (100, 20260819, 1e-13),
    "fill_identity": (100, 20260820, 1e-13),
}


def _worst_of_trials(name: str, trial, **config) -> ExperimentReport:
    """The report of the suite ``name`` of seeded trials: the worst
    ``trial(rng, i)`` over ``i < trials`` on one generator seeded with
    ``seed``, where ``_TRIALS[name]`` is ``(trials, seed, tol)``; it passes
    below ``tol``."""
    trials, seed, tol = _TRIALS[name]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        worst = max(worst, float(trial(rng, i)))
    return ExperimentReport(name, {"trials": trials, **config, "seed": seed}, [],
                            {"worst": worst}, {"tol": tol}, worst < tol)


_ENUMERATION_K_MAX, _ROUNDTRIP_K_MAX = 10, 6  # the round trip at the smaller capacities


def check_enumeration() -> ExperimentReport:
    """Closed-form state counts, the count arrays against their defining
    nested loop over ``(w, x, y, z)`` in lexicographic order, for every
    ``K <= 10``, and the rank/state bijection for ``K <= 6``; ``worst``
    counts the mismatches."""
    mismatches = 0
    for K in range(_ENUMERATION_K_MAX + 1):
        states = [(w, x, y, z) for w in range(K + 1) for x in range(K + 1 - w)
                  for y in range(K + 1 - w - x) for z in range(K + 1 - w - x - y)]
        if not num_states(K) == math.comb(K + 4, 4) == len(states):
            mismatches += 1
        arrays = np.stack(count_arrays(K), axis=1)
        if arrays.shape != (len(states), 4):
            mismatches += 1
        else:
            mismatches += int((arrays != np.array(states)).any(axis=1).sum())
        if K <= _ROUNDTRIP_K_MAX:
            for rank, st in enumerate(states):
                if index_of(st, K) != rank or state_of(rank, K) != st:
                    mismatches += 1
    config = {"K_max": _ENUMERATION_K_MAX, "roundtrip_K_max": _ROUNDTRIP_K_MAX}
    return ExperimentReport("enumeration", config, [], {"worst": float(mismatches)},
                            {"tol": 0.0}, mismatches == 0)


_STATIONARITY_K_LIST = (1, 2, 3, 4, 5)  # each with n^2 within the state budget (K <= 11)


def check_product_form_stationarity() -> ExperimentReport:
    """Product form against the independent dense tandem generator, ``K``
    cycling through 1 to 5."""
    def trial(rng, i):
        K = _STATIONARITY_K_LIST[i % len(_STATIONARITY_K_LIST)]
        eta, rho1, rho2 = _draws(rng, 3)
        pi = product_form(RateRatios(eta, rho1, rho2, eta), K).probs
        return np.abs(pi @ tandem_generator(eta, rho1, rho2, eta, K)).max()

    return _worst_of_trials("product_form_stationarity", trial,
                            K_list=list(_STATIONARITY_K_LIST))


_IDENTITY_K_MAX = 6  # the identity suites cycle K through 1..6


def check_step2_identity() -> ExperimentReport:
    """Balance identity of the reduced family:
    ``rho2 (1 - P[saturated]) = 1 - P[no available car]`` for every
    ``(x, rho2)``, both masses read from the reference array
    ``_simple_form``; the solver asserts this instead of solving it."""
    def trial(rng, i):
        K = 1 + i % _IDENTITY_K_MAX
        x, y = _draws(rng, 2)
        p = _simple_form(x, y, K)
        return abs(y * (1.0 - np.fliplr(p).trace()) - (1.0 - p[:, 0].sum()))

    return _worst_of_trials("step2_identity", trial, K_max=_IDENTITY_K_MAX)


def check_aggregation_identity() -> ExperimentReport:
    """Pushing the four-coordinate product form through
    ``(w, x, y, z) -> (w + x + z, y)`` lands exactly on the reduced
    family at aggregated intensity ``eta1 + rho1 + eta2``."""
    def trial(rng, i):
        K = 1 + i % _IDENTITY_K_MAX
        rho = RateRatios(*_draws(rng, 4))
        w, x, y, z = count_arrays(K)
        pushed = np.zeros((K + 1, K + 1))
        np.add.at(pushed, (w + x + z, y), product_form(rho, K).probs)
        return np.abs(pushed - _simple_form(rho.rho1_tilde, rho.rho2, K)).max()

    return _worst_of_trials("aggregation_identity", trial, K_max=_IDENTITY_K_MAX)


def check_fill_identity() -> ExperimentReport:
    """Car density agrees between the four-coordinate form and the
    weighted mean of the reduced family, with the aggregated coordinate
    weighted by the car fraction ``(rho1 + eta) / (rho1 + 2 eta)``; the
    reduced mean is the one the solver's O(K) pass gives."""
    def trial(rng, i):
        K = 1 + i % _IDENTITY_K_MAX
        eta, rho1, rho2 = _draws(rng, 3)
        rho = RateRatios(eta, rho1, rho2, eta)
        c = (rho1 + eta) / (rho1 + 2.0 * eta)
        return abs(mean_fill(product_form(rho, K)) - _simple_mean(rho.rho1_tilde, rho2, K, c))

    return _worst_of_trials("fill_identity", trial, K_max=_IDENTITY_K_MAX)


OUTCOMES = ("solved", "solved_above_tol", "value_error", "runtime_error",
            "multiple_equilibria", "assertion_error")
"""How a fixed-point solve ends: a report within ``_RESIDUAL_TOL`` or
above it; the named ``ValueError`` of a fill out of reach; the
generic ``RuntimeError`` of a fill bisection that stopped short;
:class:`MultipleEquilibriaError`; the ``rho2`` identity assertion."""


def _outcome(p: ModelParams, s: float) -> tuple[str, float]:
    try:
        residual = solve_equilibrium(p, s).max_residual
    except MultipleEquilibriaError:  # a RuntimeError; tested first
        return "multiple_equilibria", 0.0
    except ValueError:
        return "value_error", math.inf
    except RuntimeError:
        return "runtime_error", math.inf
    except AssertionError:
        return "assertion_error", math.inf
    return ("solved" if residual <= _RESIDUAL_TOL else "solved_above_tol"), residual


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
            raise ValueError(f"cells[{i}]: a fixed-point grid needs fill fractions in (0, 1), "
                             f"lam > 0 and K <= MAX_SOLVE_K; {e}") from None
    return cells


@_domain(cells=_Rule(_checked_cells, "a sequence of `(p, frac)` pairs"))
def solve_grid(cells) -> tuple[float, dict]:
    """Solve ``solve_equilibrium(p, frac * p.K)`` on each ``(p, frac)``
    cell: the one judge of a fixed-point grid.

    Returns the worst residual and the count of each of :data:`OUTCOMES`
    at ``_RESIDUAL_TOL``.  A solve that raises scores an infinite
    residual, except the refusal :class:`MultipleEquilibriaError`, which
    is only counted.  A cell the solver's own domain check refuses (a
    fraction outside ``(0, 1)``, ``lam <= 0`` or ``K`` above
    :data:`~duores.equilibrium.MAX_SOLVE_K`) raises ``ValueError`` before
    any solve.
    """
    worst = 0.0
    counts = dict.fromkeys(OUTCOMES, 0)
    for p, frac in cells:
        outcome, residual = _outcome(p, frac * p.K)
        counts[outcome] += 1
        worst = max(worst, residual)
    return worst, counts


_RESIDUAL_TOL = 1e-10  # a grid's bound on each solve's residual, and on its worst
_FIXED_POINT_LAMS, _FIXED_POINT_MU = (0.5, 1.0, 2.0), 1.0
_FIXED_POINT_NUS, _FIXED_POINT_KS = (1.0, 10.0, 100.0), (2, 3, 5)
_FIXED_POINT_FRACS = (0.2, 0.5, 0.8)
_CLOSED_FORM_TOL = 1e-6


def check_fixed_point() -> ExperimentReport:
    """Fixed-point residuals across a parameter grid (:func:`solve_grid`),
    plus the capacity-one closed form in the fast-reservation limit.

    At ``K = 1``, ``lam = 2``, ``mu = 1`` the aggregate ratio is 2 and
    the fill 3/4 is attained exactly at intensities ``(1, 2)``.
    """
    cells = [(ModelParams(lam=lam, mu=_FIXED_POINT_MU, nu=nu, K=K), frac)
             for lam in _FIXED_POINT_LAMS for nu in _FIXED_POINT_NUS
             for K in _FIXED_POINT_KS for frac in _FIXED_POINT_FRACS]
    worst, counts = solve_grid(cells)
    rep1 = solve_equilibrium(ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1), 0.75)
    closed_err = max(abs(rep1.rho.rho1 - 1.0), abs(rep1.rho.rho2 - 2.0))
    return ExperimentReport(
        "fixed_point",
        {"lam_list": list(_FIXED_POINT_LAMS), "mu": _FIXED_POINT_MU,
         "nu_list": list(_FIXED_POINT_NUS), "K_list": list(_FIXED_POINT_KS),
         "s_fracs": list(_FIXED_POINT_FRACS)}, [],
        {"worst": worst, "n_solves": len(cells), "closed_form_err": closed_err,
         "outcomes": counts},
        {"tol": _RESIDUAL_TOL, "closed_form_tol": _CLOSED_FORM_TOL},
        worst < _RESIDUAL_TOL and closed_err < _CLOSED_FORM_TOL)


_LARGE_KS = (3, 5, 10, 20, 30, 40, 80, 200)
_LARGE_K_FRACS = (0.2, 0.5, 0.8)
_LARGE_K_NU_OVER_MU = (0.1, 1.0, 10.0, 1e8)


def check_fixed_point_large_K() -> ExperimentReport:
    """Fixed-point residuals (:func:`solve_grid`) up to capacity 200 at
    ``lam = mu = 1``, slow to near-instant reservations.  This covers the
    steep-fill regime of large ``K`` that :func:`check_fixed_point` does
    not reach."""
    cells = [(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), frac)
             for K in _LARGE_KS for frac in _LARGE_K_FRACS for nu in _LARGE_K_NU_OVER_MU]
    worst, counts = solve_grid(cells)
    return ExperimentReport(
        "fixed_point_large_K",
        {"K_list": list(_LARGE_KS), "s_fracs": list(_LARGE_K_FRACS),
         "nu_over_mu": list(_LARGE_K_NU_OVER_MU)},
        [], {"worst": worst, "n_solves": len(cells), "outcomes": counts},
        {"tol": _RESIDUAL_TOL}, worst < _RESIDUAL_TOL)


_FIXED = {
    "enumeration": check_enumeration,
    "product_form_stationarity": check_product_form_stationarity,
    "step2_identity": check_step2_identity,
    "aggregation_identity": check_aggregation_identity,
    "fill_identity": check_fill_identity,
    "fixed_point": check_fixed_point,
    "fixed_point_large_K": check_fixed_point_large_K,
    "monotonicity": monotonicity_scan,
}
"""The items that take no arguments, the seven suites and the monotonicity
scan: what the CLI's ``checks`` names."""

ITEMS = {
    **_FIXED,
    "convergence": convergence_experiment,
    "chaos": chaos_experiment,
    "attraction": attraction_experiment,
}
"""Every item ``duores verify`` runs, by name: the eight of :data:`_FIXED`,
then the three studies.  Each returns an :class:`ExperimentReport`; a study
has ``.refuse(*args, **kwargs)``, which runs its checks alone and returns
its work unrun."""
