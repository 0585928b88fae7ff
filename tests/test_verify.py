"""The verification suites themselves: generator structure and the
item registry."""

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

import duores.verify as verify
from duores.core import MAX_STATES, ModelParams, count_arrays, enumerate_states, num_states
from duores.equilibrium import RateRatios, product_form
from duores.experiments import ExperimentReport
from duores.verify import (
    ITEMS,
    OUTCOMES,
    check_enumeration,
    check_fixed_point_large_K,
    check_product_form_stationarity,
    check_step2_identity,
    solve_grid,
    tandem_generator,
)


def test_tandem_generator_is_a_generator_matrix():
    Q = tandem_generator(0.7, 1.2, 0.9, 0.7, 3)
    n = num_states(3)
    assert Q.shape == (n, n)
    off = Q - np.diag(np.diag(Q))
    assert off.min() >= 0.0
    assert np.max(np.abs(Q.sum(axis=1))) < 1e-12
    assert np.diag(Q).max() <= 0.0


def test_tandem_generator_blocks_arrivals_at_saturation():
    K = 2
    Q = tandem_generator(1.0, 1.0, 1.0, 1.0, K)
    states = enumerate_states(K)
    for r, s in enumerate(states):
        if s.total == K:
            for r2, s2 in enumerate(states):
                if s2.w == s.w + 1 and (s2.x, s2.y, s2.z) == (s.x, s.y, s.z):
                    assert Q[r, r2] == 0.0


def test_tandem_generator_above_the_state_budget_is_refused_before_allocation():
    # K = 20 has 10626 states; the dense generator would take 0.9 GB
    n = num_states(20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"K=20 need n\^2={n * n} entries, above "
                                             rf"the state budget MAX_STATES={MAX_STATES}"):
            tandem_generator(1.0, 1.0, 1.0, 1.0, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_product_form_stationarity_refuses_a_capacity_above_the_budget_before_any_trial():
    # the default capacities fit: K <= 11 is the largest with n^2 within the budget
    assert num_states(11) ** 2 <= MAX_STATES < num_states(12) ** 2
    assert max(inspect.signature(check_product_form_stationarity).parameters["K_list"].default) <= 11
    with pytest.raises(ValueError, match=r"K=12 need n\^2="):
        check_product_form_stationarity.refuse(K_list=[1, 12])


def test_product_form_is_in_the_generator_null_space():
    rho = RateRatios(0.5, 1.5, 0.8, 0.5)
    K = 3
    Q = tandem_generator(rho.eta1, rho.rho1, rho.rho2, rho.eta2, K)
    pi = product_form(rho, K).probs
    assert np.max(np.abs(pi @ Q)) < 1e-12


def test_item_registry_and_overrides():
    assert list(ITEMS) == [
        "enumeration", "product_form_stationarity", "step2_identity",
        "aggregation_identity", "fill_identity", "fixed_point",
        "fixed_point_large_K", "convergence", "chaos", "attraction", "monotonicity",
    ]
    assert all(callable(item.refuse) for item in ITEMS.values())
    res = ITEMS["step2_identity"](trials=10)
    assert isinstance(res, ExperimentReport)
    assert res.passed and res.config["trials"] == 10


def test_checks_report_worst_below_tolerance():
    res = check_enumeration()
    assert res.passed and res.metrics["worst"] == 0.0
    res = check_step2_identity(trials=20)
    assert res.passed and res.metrics["worst"] < res.thresholds["tol"]


def test_enumeration_check_catches_count_arrays_out_of_order(monkeypatch):
    def swapped(K):
        cols = [c.copy() for c in count_arrays(K)]
        if K == 3:
            for c in cols:
                c[[5, 6]] = c[[6, 5]]
        return tuple(cols)

    monkeypatch.setattr(verify, "count_arrays", swapped)
    res = check_enumeration()
    assert not res.passed and res.metrics["worst"] == 2.0


def test_fixed_point_large_K_meets_tolerance_on_every_solve():
    res = check_fixed_point_large_K()
    assert res.metrics["n_solves"] == 96
    assert res.metrics["outcomes"] == {**dict.fromkeys(OUTCOMES, 0), "solved": 96}
    assert res.passed and res.metrics["worst"] < res.thresholds["tol"]


# Every suite at its defaults, as computed before the suites shared the
# seeded trials loop and the solve-grid loop.  The fixed-point suites
# have since added their outcome counts, and step2_identity reads its
# two masses from ``simple_form``, not the O(K) pass (its worst was
# 3.3306690738754696e-16).  Each suite now reports as an
# ``ExperimentReport``: its arguments as ``config``, its tolerances as
# ``thresholds`` and what it computes as ``metrics``, where
# ``n_multiple_equilibria`` is gone as ``outcomes["multiple_equilibria"]``.
_PINNED = [
    {"name": "enumeration", "config": {"K_max": 10, "roundtrip_K_max": 6}, "rows": [],
     "metrics": {"worst": 0.0}, "thresholds": {"tol": 0.0}, "passed": True, "notes": []},
    {"name": "product_form_stationarity",
     "config": {"trials": 50, "K_list": [1, 2, 3, 4, 5], "seed": 20260817}, "rows": [],
     "metrics": {"worst": 2.7755575615628914e-17}, "thresholds": {"tol": 1e-10},
     "passed": True, "notes": []},
    {"name": "step2_identity", "config": {"trials": 100, "K_max": 6, "seed": 20260818},
     "rows": [], "metrics": {"worst": 4.440892098500626e-16}, "thresholds": {"tol": 1e-13},
     "passed": True, "notes": []},
    {"name": "aggregation_identity", "config": {"trials": 100, "K_max": 6, "seed": 20260819},
     "rows": [], "metrics": {"worst": 2.7755575615628914e-16}, "thresholds": {"tol": 1e-13},
     "passed": True, "notes": []},
    {"name": "fill_identity", "config": {"trials": 100, "K_max": 6, "seed": 20260820},
     "rows": [], "metrics": {"worst": 1.7763568394002505e-15}, "thresholds": {"tol": 1e-13},
     "passed": True, "notes": []},
    {"name": "fixed_point",
     "config": {"lam_list": [0.5, 1.0, 2.0], "mu": 1.0, "nu_list": [1.0, 10.0, 100.0],
                "K_list": [2, 3, 5], "s_fracs": [0.2, 0.5, 0.8]}, "rows": [],
     "metrics": {"worst": 9.697798120100742e-12, "n_solves": 81,
                 "closed_form_err": 1.999999987845058e-08},
     "thresholds": {"tol": 1e-10, "closed_form_tol": 1e-06}, "passed": True, "notes": []},
    {"name": "fixed_point_large_K",
     "config": {"K_list": [3, 5, 10, 20, 30, 40, 80, 200], "s_fracs": [0.2, 0.5, 0.8],
                "nu_over_mu": [0.1, 1.0, 10.0, 1e8]}, "rows": [],
     "metrics": {"worst": 9.825917857142485e-12, "n_solves": 96},
     "thresholds": {"tol": 1e-10}, "passed": True, "notes": []},
]


@pytest.mark.parametrize("pinned", _PINNED, ids=[p["name"] for p in _PINNED])
def test_suites_at_their_defaults_are_pinned(pinned):
    got = ITEMS[pinned["name"]]().to_dict()
    if pinned["name"].startswith("fixed_point"):
        outcomes = got["metrics"].pop("outcomes")
        assert outcomes == {**dict.fromkeys(OUTCOMES, 0), "solved": got["metrics"]["n_solves"]}
    assert json.dumps(got) == json.dumps(pinned)  # key order too


def _one_cell(K, s_over_K, nu_over_mu):
    return [(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K), s_over_K)]


@pytest.mark.parametrize("cell, outcome", [
    ((40, 0.95, 0.1), "value_error"),  # the named refusal of a fill out of reach
    ((20, 0.9, 0.01), "runtime_error"),  # the generic fill bisection failure
])
def test_a_failed_solve_scores_an_infinite_residual(cell, outcome):
    worst, counts = solve_grid(_one_cell(*cell), 1e-10)
    assert worst == math.inf
    assert counts == {**dict.fromkeys(OUTCOMES, 0), outcome: 1}
    K, s_over_K, nu = cell
    res = check_fixed_point_large_K(K_list=(K,), s_fracs=(s_over_K,), nu_over_mu=(nu,))
    assert not res.passed and res.metrics["worst"] == math.inf
    assert res.metrics["outcomes"][outcome] == 1


def test_a_refused_fixed_point_is_counted_but_does_not_fail(monkeypatch):
    def refuse(p, s):
        raise verify.MultipleEquilibriaError(p.K, s, p.nu / p.mu, ((1.0, 2.0), (1.5, 1.9)))

    monkeypatch.setattr(verify, "solve_equilibrium", refuse)
    worst, counts = solve_grid(_one_cell(3, 0.5, 1.0), 1e-10)
    assert worst == 0.0 and counts["multiple_equilibria"] == 1


def test_solved_label_and_verdict_keep_their_comparisons():
    cells = _one_cell(3, 0.5, 1.0)
    residual, _ = solve_grid(cells, 1e-10)
    worst, counts = solve_grid(cells, residual)  # the label is <= tol
    assert worst == residual and counts["solved"] == 1
    res = check_fixed_point_large_K(K_list=(3,), s_fracs=(0.5,), nu_over_mu=(1.0,),
                                    tol=residual)  # the verdict is worst < tol
    assert not res.passed and res.metrics["outcomes"]["solved"] == 1


def test_a_fixed_point_suite_checks_each_cell_once(monkeypatch):
    # the work's solve_grid checked every cell the stage had checked, a second time
    checked = []
    monkeypatch.setattr(verify, "_check_solvable", lambda p, s: checked.append((p.K, s)))
    check_fixed_point_large_K(K_list=(3, 5), s_fracs=(0.5,), nu_over_mu=(1.0,))
    assert checked == [(3, 1.5), (5, 2.5)]


@pytest.mark.parametrize("s_over_K", [0.0, 1.0, -0.5, 1.5])
def test_fill_fractions_outside_the_unit_interval_are_refused_before_solving(s_over_K):
    with pytest.raises(ValueError, match="fill fractions in"):
        solve_grid(_one_cell(3, 0.5, 1.0) + _one_cell(3, s_over_K, 1.0), 1e-10)


@pytest.mark.parametrize("name, kw, named", [
    ("product_form_stationarity", dict(K_list=[]),
     r"K_list must hold at least one value, got \[\]"),
    ("step2_identity", dict(K_max=0), "K_max must be >= 1, got 0"),
    ("aggregation_identity", dict(trials=0), "trials must be >= 1, got 0"),
    ("fill_identity", dict(trials=2.5), "trials must be an integer, got 2.5"),
    ("fixed_point", dict(lam_list=[]), "lam_list must hold at least one value"),
    ("fixed_point_large_K", dict(K_list=[]), r"K_list must hold at least one value, got \[\]"),
    ("enumeration", dict(K_max=-3, roundtrip_K_max=-3), "K_max must be >= 0, got -3"),
    ("step2_identity", dict(tol=math.nan), "tol must be finite and > 0, got nan"),
    ("step2_identity", dict(seed=-1),
     "seed must be None, an integer >= 0 or a sequence of them, got -1"),
    ("product_form_stationarity", dict(K_list=[0]), "every entry of K_list must be >= 1, got 0"),
    ("fixed_point", dict(closed_form_tol=math.nan), "closed_form_tol must be finite and > 0"),
    ("fixed_point", dict(s_fracs=[0.5, 1.5]), r"every entry of s_fracs must be .* < 1, got 1\.5"),
    ("fixed_point_large_K", dict(s_fracs=[1.0]), r"every entry of s_fracs must be .* < 1, got 1\.0"),
])
def test_suites_with_nothing_to_check_are_refused_before_any_work(monkeypatch, name, kw,
                                                                   named):
    # K_list=[] and K_max=0 were a ZeroDivisionError, seed=-1 numpy's
    # unnamed ValueError; the others passed with nothing checked, or
    # failed on a NaN tolerance.  A grid cell outside the solver's domain
    # was refused by solve_grid as the suite ran, not by .refuse.
    def no_work(*args, **kwargs):
        raise AssertionError("a suite worked before its arguments were refused")

    for work in ("product_form", "simple_form", "solve_grid", "count_arrays"):
        monkeypatch.setattr(verify, work, no_work)
    with pytest.raises(ValueError, match=named):
        ITEMS[name](**kw)
    with pytest.raises(ValueError, match=named):
        ITEMS[name].refuse(**kw)


def test_suite_counts_given_as_integral_floats_are_converted():
    res = check_step2_identity(trials=4.0, K_max=2.0)
    assert res.config["trials"] == 4 and type(res.config["K_max"]) is int
    assert res.to_dict() == check_step2_identity(trials=4, K_max=2).to_dict()
