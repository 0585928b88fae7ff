"""Self-contained verification suites.

Each check pits two independent computation paths against each other
(closed form vs. explicit generator, four-coordinate vs. reduced
family, solver output vs. residual evaluation) and reports the worst
discrepancy against a tolerance.  The CLI ``verify`` command runs the
suites named in its config; the test suite pins them at fixed
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ModelParams,
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
    _simple_mean,
    product_form,
    simple_form,
    simple_no_available,
    simple_saturated,
    solve_equilibrium,
)

__all__ = [
    "CheckResult",
    "tandem_generator",
    "check_enumeration",
    "check_product_form_stationarity",
    "check_step2_identity",
    "check_aggregation_identity",
    "check_fill_identity",
    "check_fixed_point",
    "check_fixed_point_large_K",
    "CHECKS",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    """One suite's verdict: worst observed discrepancy vs. tolerance."""

    name: str
    passed: bool
    worst: float
    tol: float
    details: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tol": self.tol,
            "details": dict(self.details),
        }


def tandem_generator(eta1: float, rho1: float, rho2: float, eta2: float,
                     K: int) -> np.ndarray:
    """Dense generator of the four-queue cycle with the given traffic
    intensities, truncated at total occupancy ``K``.

    Built by looping over states and applying the queueing rules
    directly (arrivals blocked at capacity, single server on the
    available-car queue, unit arrival rate, service rates equal to the
    arrival rate over each intensity).  Scaled by its largest diagonal
    so the stationarity residual is scale-free.  This path shares no
    code with the product form it is used to validate.
    """
    states = enumerate_states(K)
    n = len(states)
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


def _positive_uniform(rng: np.random.Generator, high: float) -> float:
    v = 0.0
    while v == 0.0:
        v = float(rng.uniform(0.0, high))
    return v


def check_enumeration(K_max: int = 10, roundtrip_K_max: int = 6) -> CheckResult:
    """Closed-form state counts and the rank/state bijection."""
    mismatches = 0
    for K in range(K_max + 1):
        if num_states(K) != math.comb(K + 4, 4):
            mismatches += 1
    for K in range(roundtrip_K_max + 1):
        states = enumerate_states(K)
        if len(states) != num_states(K):
            mismatches += 1
        for rank, st in enumerate(states):
            if index_of(st, K) != rank or state_of(rank, K) != st:
                mismatches += 1
    return CheckResult(
        name="enumeration",
        passed=mismatches == 0,
        worst=float(mismatches),
        tol=0.0,
        details={"K_max": K_max, "roundtrip_K_max": roundtrip_K_max},
    )


def check_product_form_stationarity(
    trials: int = 50,
    K_list=(1, 2, 3, 4, 5),
    seed: int = 20260817,
    tol: float = 1e-10,
) -> CheckResult:
    """Product form against the independent dense tandem generator."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        K = K_list[i % len(K_list)]
        eta = _positive_uniform(rng, 3.0)
        rho1 = _positive_uniform(rng, 3.0)
        rho2 = _positive_uniform(rng, 3.0)
        pi = product_form(RateRatios(eta, rho1, rho2, eta), K).probs
        Q = tandem_generator(eta, rho1, rho2, eta, K)
        worst = max(worst, float(np.abs(pi @ Q).max()))
    return CheckResult(
        name="product_form_stationarity",
        passed=worst < tol,
        worst=worst,
        tol=tol,
        details={"trials": trials, "K_list": list(K_list), "seed": seed},
    )


def check_step2_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260818,
    tol: float = 1e-13,
) -> CheckResult:
    """Balance identity of the reduced family:
    ``rho2 (1 - P[saturated]) = 1 - P[no available car]`` for every
    ``(x, rho2)``; the solver asserts this instead of solving it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        K = 1 + i % K_max
        x = _positive_uniform(rng, 3.0)
        y = _positive_uniform(rng, 3.0)
        lhs = y * (1.0 - simple_saturated(x, y, K))
        rhs = 1.0 - simple_no_available(x, y, K)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="step2_identity",
        passed=worst < tol,
        worst=worst,
        tol=tol,
        details={"trials": trials, "K_max": K_max, "seed": seed},
    )


def check_aggregation_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260819,
    tol: float = 1e-13,
) -> CheckResult:
    """Pushing the four-coordinate product form through
    ``(w, x, y, z) -> (w + x + z, y)`` lands exactly on the reduced
    family at aggregated intensity ``eta1 + rho1 + eta2``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        K = 1 + i % K_max
        rho = RateRatios(
            _positive_uniform(rng, 3.0),
            _positive_uniform(rng, 3.0),
            _positive_uniform(rng, 3.0),
            _positive_uniform(rng, 3.0),
        )
        probs = product_form(rho, K).probs
        w, x, y, z = count_arrays(K)
        pushed = np.zeros((K + 1, K + 1))
        np.add.at(pushed, (w + x + z, y), probs)
        reduced = simple_form(rho.rho1_tilde, rho.rho2, K)
        worst = max(worst, float(np.abs(pushed - reduced).max()))
    return CheckResult(
        name="aggregation_identity",
        passed=worst < tol,
        worst=worst,
        tol=tol,
        details={"trials": trials, "K_max": K_max, "seed": seed},
    )


def check_fill_identity(
    trials: int = 100, K_max: int = 6, seed: int = 20260820,
    tol: float = 1e-13,
) -> CheckResult:
    """Car density agrees between the four-coordinate form and the
    weighted mean of the reduced family, with the aggregated coordinate
    weighted by the car fraction ``(rho1 + eta) / (rho1 + 2 eta)``; the
    reduced mean is the one the solver's O(K) pass gives."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        K = 1 + i % K_max
        eta = _positive_uniform(rng, 3.0)
        rho1 = _positive_uniform(rng, 3.0)
        rho2 = _positive_uniform(rng, 3.0)
        rho = RateRatios(eta, rho1, rho2, eta)
        full = mean_fill(product_form(rho, K))
        c = (rho1 + eta) / (rho1 + 2.0 * eta)
        reduced = _simple_mean(rho.rho1_tilde, rho2, K, c)
        worst = max(worst, abs(full - reduced))
    return CheckResult(
        name="fill_identity",
        passed=worst < tol,
        worst=worst,
        tol=tol,
        details={"trials": trials, "K_max": K_max, "seed": seed},
    )


def check_fixed_point(
    lam_list=(0.5, 1.0, 2.0),
    mu: float = 1.0,
    nu_list=(1.0, 10.0, 100.0),
    K_list=(2, 3, 5),
    s_fracs=(0.2, 0.5, 0.8),
    tol: float = 1e-10,
    closed_form_tol: float = 1e-6,
) -> CheckResult:
    """Fixed-point residuals across a parameter grid, plus the
    capacity-one closed form in the fast-reservation limit.

    At ``K = 1``, ``lam = 2``, ``mu = 1`` the aggregate ratio is 2 and
    the fill 3/4 is attained exactly at intensities ``(1, 2)``.
    """
    worst = 0.0
    n_solves = 0
    for lam in lam_list:
        for nu in nu_list:
            for K in K_list:
                for frac in s_fracs:
                    p = ModelParams(lam=lam, mu=mu, nu=nu, K=K)
                    rep = solve_equilibrium(p, frac * K)
                    worst = max(worst, rep.max_residual)
                    n_solves += 1
    p1 = ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1)
    rep1 = solve_equilibrium(p1, 0.75)
    closed_err = max(abs(rep1.rho.rho1 - 1.0), abs(rep1.rho.rho2 - 2.0))
    passed = worst < tol and closed_err < closed_form_tol
    return CheckResult(
        name="fixed_point",
        passed=passed,
        worst=worst,
        tol=tol,
        details={
            "n_solves": n_solves,
            "closed_form_err": closed_err,
            "closed_form_tol": closed_form_tol,
        },
    )


def check_fixed_point_large_K(
    K_list=(3, 5, 10, 20, 30, 40),
    s_fracs=(0.2, 0.5, 0.8),
    nu_over_mu=(0.1, 1.0, 10.0, 1e8),
    tol: float = 1e-10,
) -> CheckResult:
    """Fixed-point residuals up to capacity 40 at ``lam = mu = 1``,
    slow to near-instant reservations.

    Each solve must meet ``tol`` or raise
    :class:`MultipleEquilibriaError`, the solver's one named refusal;
    any other exception propagates.  This covers the steep-fill regime
    of large ``K`` that :func:`check_fixed_point` does not reach.
    """
    worst = 0.0
    n_solves = 0
    n_multiple = 0
    for K in K_list:
        for frac in s_fracs:
            for nu in nu_over_mu:
                p = ModelParams(lam=1.0, mu=1.0, nu=nu, K=K)
                n_solves += 1
                try:
                    rep = solve_equilibrium(p, frac * K)
                except MultipleEquilibriaError:
                    n_multiple += 1
                    continue
                worst = max(worst, rep.max_residual)
    return CheckResult(
        name="fixed_point_large_K",
        passed=worst < tol,
        worst=worst,
        tol=tol,
        details={"n_solves": n_solves, "n_multiple_equilibria": n_multiple},
    )


CHECKS = {
    "enumeration": check_enumeration,
    "product_form_stationarity": check_product_form_stationarity,
    "step2_identity": check_step2_identity,
    "aggregation_identity": check_aggregation_identity,
    "fill_identity": check_fill_identity,
    "fixed_point": check_fixed_point,
    "fixed_point_large_K": check_fixed_point_large_K,
}


def run_checks(names, overrides: dict | None = None) -> list[CheckResult]:
    """Run the named suites in order with optional keyword overrides
    per suite (e.g. ``{"step2_identity": {"tol": 1e-15}}``)."""
    overrides = overrides or {}
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        kwargs = overrides.get(name, {})
        results.append(CHECKS[name](**kwargs))
    return results
