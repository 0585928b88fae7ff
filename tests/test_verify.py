"""The verification suites themselves: generator structure, the item
registry and the monotonicity scan."""

import hashlib
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

import duores.equilibrium as equilibrium
import duores.experiments as experiments
import duores.verify as verify
from duores.core import MAX_STATES, ModelParams, count_arrays, enumerate_states, num_states
from duores.equilibrium import RateRatios, product_form
from duores.experiments import ExperimentReport
from duores.verify import ITEMS, OUTCOMES, solve_grid


def test_tandem_generator_is_a_generator_matrix():
    Q = verify._tandem_generator(0.7, 1.2, 0.9, 0.7, 3)
    n = num_states(3)
    assert Q.shape == (n, n)
    off = Q - np.diag(np.diag(Q))
    assert off.min() >= 0.0
    assert np.max(np.abs(Q.sum(axis=1))) < 1e-12
    assert np.diag(Q).max() <= 0.0


def test_tandem_generator_blocks_arrivals_at_saturation():
    K = 2
    Q = verify._tandem_generator(1.0, 1.0, 1.0, 1.0, K)
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
            verify._tandem_generator(1.0, 1.0, 1.0, 1.0, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_product_form_stationarity_meets_a_capacity_above_the_budget_with_a_named_refusal(
        monkeypatch):
    # the fixed capacities fit: K <= 11 is the largest with n^2 within the budget
    assert num_states(11) ** 2 <= MAX_STATES < num_states(12) ** 2
    assert max(verify._STATIONARITY_K_LIST) <= 11
    monkeypatch.setattr(verify, "_STATIONARITY_K_LIST", (1, 12))
    with pytest.raises(ValueError, match=r"K=12 need n\^2="):
        ITEMS["product_form_stationarity"]()


def test_product_form_is_in_the_generator_null_space():
    rho = RateRatios(0.5, 1.5, 0.8, 0.5)
    K = 3
    Q = verify._tandem_generator(rho.eta1, rho.rho1, rho.rho2, rho.eta2, K)
    pi = product_form(rho, K).probs
    assert np.max(np.abs(pi @ Q)) < 1e-12


def test_item_registry():
    assert list(ITEMS) == [
        "enumeration", "product_form_stationarity", "step2_identity",
        "aggregation_identity", "fill_identity", "fixed_point",
        "fixed_point_large_K", "monotonicity", "convergence", "chaos", "attraction",
    ]
    assert list(verify._FIXED) == list(ITEMS)[:8]
    for name, item in ITEMS.items():  # the fixed items ask fixed questions: no arguments
        assert hasattr(item, "refuse") == (name not in verify._FIXED), name
        assert (not inspect.signature(item).parameters) == (name in verify._FIXED), name
    res = ITEMS["step2_identity"]()
    assert isinstance(res, ExperimentReport)
    assert res.passed and res.config["trials"] == 100


def test_checks_report_worst_below_tolerance():
    res = ITEMS["enumeration"]()
    assert res.passed and res.metrics["worst"] == 0.0
    res = ITEMS["step2_identity"]()
    assert res.passed and res.metrics["worst"] < res.thresholds["tol"]


def test_enumeration_check_catches_count_arrays_out_of_order(monkeypatch):
    def swapped(K):
        cols = [c.copy() for c in count_arrays(K)]
        if K == 3:
            for c in cols:
                c[[5, 6]] = c[[6, 5]]
        return tuple(cols)

    monkeypatch.setattr(verify, "count_arrays", swapped)
    res = ITEMS["enumeration"]()
    assert not res.passed and res.metrics["worst"] == 2.0


def test_fixed_point_large_K_meets_tolerance_on_every_solve():
    res = ITEMS["fixed_point_large_K"]()
    assert res.metrics["n_solves"] == 96
    assert res.metrics["outcomes"] == {**dict.fromkeys(OUTCOMES, 0), "solved": 96}
    assert res.passed and res.metrics["worst"] < res.thresholds["tol"]


# Every suite at its defaults, as computed before the suites shared the
# seeded trials loop and the solve-grid loop.  The fixed-point suites
# have since added their outcome counts, and step2_identity reads its
# two masses from ``_simple_form``, not the O(K) pass (its worst was
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


# Each argument a fixed item once took, with its old default.  The value is
# now a module constant, which the report lists as config or thresholds.
_FIXED_SETTINGS = [
    ("enumeration", "K_max", 10), ("enumeration", "roundtrip_K_max", 6),
    ("product_form_stationarity", "trials", 50),
    ("product_form_stationarity", "K_list", [1, 2, 3, 4, 5]),
    ("product_form_stationarity", "seed", 20260817),
    ("product_form_stationarity", "tol", 1e-10),
    ("step2_identity", "trials", 100), ("step2_identity", "K_max", 6),
    ("step2_identity", "seed", 20260818), ("step2_identity", "tol", 1e-13),
    ("aggregation_identity", "trials", 100), ("aggregation_identity", "K_max", 6),
    ("aggregation_identity", "seed", 20260819), ("aggregation_identity", "tol", 1e-13),
    ("fill_identity", "trials", 100), ("fill_identity", "K_max", 6),
    ("fill_identity", "seed", 20260820), ("fill_identity", "tol", 1e-13),
    ("fixed_point", "lam_list", [0.5, 1.0, 2.0]), ("fixed_point", "mu", 1.0),
    ("fixed_point", "nu_list", [1.0, 10.0, 100.0]), ("fixed_point", "K_list", [2, 3, 5]),
    ("fixed_point", "s_fracs", [0.2, 0.5, 0.8]), ("fixed_point", "tol", 1e-10),
    ("fixed_point", "closed_form_tol", 1e-6),
    ("fixed_point_large_K", "K_list", [3, 5, 10, 20, 30, 40, 80, 200]),
    ("fixed_point_large_K", "s_fracs", [0.2, 0.5, 0.8]),
    ("fixed_point_large_K", "nu_over_mu", [0.1, 1.0, 10.0, 1e8]),
    ("fixed_point_large_K", "tol", 1e-10),
    ("monotonicity", "a_list", [0.5, 1.0, 2.0, 5.0]),
    ("monotonicity", "K_list", [1, 2, 3, 4, 5, 6]), ("monotonicity", "grid_step", 0.1),
    ("monotonicity", "xy_max", 5.0), ("monotonicity", "n_curve", 200),
    ("monotonicity", "enforce_nu_over_mu", [10.0, 1e8]),
    ("monotonicity", "probe_nu_over_mu", [1.0, 0.1]),
]


@pytest.fixture(scope="module")
def fixed_reports():
    """Each fixed item's report, config and thresholds in one dict."""
    return {name: {**rep.config, **rep.thresholds}
            for name, rep in ((n, ITEMS[n]()) for n in verify._FIXED)}


@pytest.mark.parametrize("name, key, old", _FIXED_SETTINGS)
def test_a_removed_argument_is_refused_by_name_and_reported_at_its_old_default(
        fixed_reports, name, key, old):
    with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'"):
        ITEMS[name](**{key: old})
    assert fixed_reports[name][key] == old


_STUDY_P = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
_STUDY_ARGS = {
    "convergence": dict(p=_STUDY_P, N_list=(4, 8), replicas=1, T=0.5, sample_times=(0.5,),
                        seed0=1, s=1.0),
    "attraction": dict(p=_STUDY_P, perturbation_size=0.1, T=1.0, s=1.0),
}
_STUDY_ARGS["chaos"] = _STUDY_ARGS["convergence"]


@pytest.mark.parametrize("name, key, constant, old", [
    ("convergence", "slope_range", "_SLOPE_RANGE", (-0.7, -0.3)),
    ("chaos", "marginal_tol", "_MARGINAL_TOL", 1e-12),
    ("attraction", "final_tv_tol", "_FINAL_TV_TOL", 1e-4),
    ("attraction", "fill_drift_tol", "_FILL_DRIFT_TOL", 1e-9),
])
def test_a_removed_pass_bound_of_a_study_is_refused_by_name(name, key, constant, old):
    # the study and its checks alone refuse the bound; it stays at its old default
    kwargs = {**_STUDY_ARGS[name], key: old}
    for entry in (ITEMS[name], ITEMS[name].refuse):
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'"):
            entry(**kwargs)
    assert getattr(experiments, constant) == old


def _one_cell(K, s_over_K, nu_over_mu):
    return [(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K), s_over_K)]


def _large_K_grid(monkeypatch, K_list, s_fracs, nu_over_mu):
    """Set the grid of the ``fixed_point_large_K`` check."""
    for name, value in (("_LARGE_KS", K_list), ("_LARGE_K_FRACS", s_fracs),
                        ("_LARGE_K_NU_OVER_MU", nu_over_mu)):
        monkeypatch.setattr(verify, name, value)


@pytest.mark.parametrize("cell, outcome", [
    ((40, 0.95, 0.1), "value_error"),  # the named refusal of a fill out of reach
    ((20, 0.9, 0.01), "runtime_error"),  # the generic fill bisection failure
])
def test_a_failed_solve_scores_an_infinite_residual(monkeypatch, cell, outcome):
    worst, counts = solve_grid(_one_cell(*cell))
    assert worst == math.inf
    assert counts == {**dict.fromkeys(OUTCOMES, 0), outcome: 1}
    K, s_over_K, nu = cell
    _large_K_grid(monkeypatch, (K,), (s_over_K,), (nu,))
    res = ITEMS["fixed_point_large_K"]()
    assert not res.passed and res.metrics["worst"] == math.inf
    assert res.metrics["outcomes"][outcome] == 1


def test_a_refused_fixed_point_is_counted_but_does_not_fail(monkeypatch):
    def refuse(p, s):
        raise verify.MultipleEquilibriaError(p.K, s, p.nu / p.mu, ((1.0, 2.0), (1.5, 1.9)))

    monkeypatch.setattr(verify, "solve_equilibrium", refuse)
    worst, counts = solve_grid(_one_cell(3, 0.5, 1.0))
    assert worst == 0.0 and counts["multiple_equilibria"] == 1


def test_solved_label_and_verdict_keep_their_comparisons(monkeypatch):
    cells = _one_cell(3, 0.5, 1.0)
    residual, _ = solve_grid(cells)
    monkeypatch.setattr(verify, "_RESIDUAL_TOL", residual)
    worst, counts = solve_grid(cells)  # the label is <= tol
    assert worst == residual and counts["solved"] == 1
    monkeypatch.setattr(verify, "_RESIDUAL_TOL", math.nextafter(residual, 0.0))
    assert solve_grid(cells)[1]["solved_above_tol"] == 1
    monkeypatch.setattr(verify, "_RESIDUAL_TOL", residual)
    _large_K_grid(monkeypatch, (3,), (0.5,), (1.0,))
    res = ITEMS["fixed_point_large_K"]()  # the verdict is worst < tol
    assert not res.passed and res.metrics["outcomes"]["solved"] == 1


def test_a_grid_is_judged_at_the_constant_residual_bound():
    # solve_grid took the bound as tol, which every caller set to 1e-10
    assert verify._RESIDUAL_TOL == 1e-10
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        solve_grid(_one_cell(3, 0.5, 1.0), tol=1e-10)
    with pytest.raises(TypeError, match="positional argument"):
        solve_grid(_one_cell(3, 0.5, 1.0), 1e-10)


def test_a_fixed_point_suite_checks_each_cell_once(monkeypatch):
    # the work's solve_grid checked every cell the stage had checked, a second time
    checked = []
    monkeypatch.setattr(verify, "_check_solvable", lambda p, s: checked.append((p.K, s)))
    _large_K_grid(monkeypatch, (3, 5), (0.5,), (1.0,))
    ITEMS["fixed_point_large_K"]()
    assert checked == [(3, 1.5), (5, 2.5)]


@pytest.mark.parametrize("s_over_K", [0.0, 1.0, -0.5, 1.5])
def test_fill_fractions_outside_the_unit_interval_are_refused_before_solving(s_over_K):
    with pytest.raises(ValueError, match="fill fractions in"):
        solve_grid(_one_cell(3, 0.5, 1.0) + _one_cell(3, s_over_K, 1.0))


def test_a_cell_above_the_solver_ceiling_is_refused_before_solving():
    cells = _one_cell(3, 0.5, 1.0) + [(ModelParams(lam=1.0, mu=1.0, nu=1.0, K=10**5), 0.5)]
    with pytest.raises(ValueError, match=r"^cells\[1\]: .* K <= MAX_SOLVE_K; K=100000 is above "
                       r"the solver's capacity ceiling MAX_SOLVE_K=10000$"):
        solve_grid(cells)


def test_the_trial_draws_are_one_vector_draw_with_no_zero():
    # _draws redrew a zero one scalar at a time; numpy draws a vector as the
    # same successive scalars, and no suite's seed draws a zero
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    assert verify._draws(a, 1000) == [float(b.uniform(0.0, 3.0)) for _ in range(1000)]
    assert a.random() == b.random()
    for trials, seed, _ in verify._TRIALS.values():  # at most four draws a trial
        assert min(verify._draws(np.random.default_rng(seed), 4 * trials)) > 0.0


def test_monotonicity_toy_scan_passes(monkeypatch):
    for name, value in (("_SCAN_A", (1.0, 2.0)), ("_SCAN_K", (1, 2)), ("_GRID_STEP", 0.5),
                        ("_XY_MAX", 2.0), ("_N_CURVE", 25)):
        monkeypatch.setattr(verify, name, value)
    rep = ITEMS["monotonicity"]()
    assert rep.passed and rep.config["n_curve"] == 25
    assert rep.metrics["n_checks"] > 0
    json.dumps(rep.to_dict())


def test_monotonicity_scan_solves_each_curve_point_once(monkeypatch):
    # The fill rows re-solved every phi once per nu/mu regime: 24000
    # solve_phi calls at the defaults, where the 4800 curve points suffice.
    calls = []
    point = equilibrium._curve_point
    for module in (equilibrium, verify):
        monkeypatch.setattr(module, "_curve_point", lambda *a: calls.append(a) or point(*a))
    rep = ITEMS["monotonicity"]()
    K_list, a_list, n_curve = (rep.config[k] for k in ("K_list", "a_list", "n_curve"))
    assert len(calls) == len(set(calls)) == len(K_list) * len(a_list) * n_curve == 4800


def test_monotonicity_scan_matches_its_golden_digest():
    # sha-256 of ``json.dumps(to_dict(), sort_keys=True)`` at the defaults,
    # taken at commit cc8a089, before the scan walked each curve once.
    blob = json.dumps(ITEMS["monotonicity"]().to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "c3a8867117c5dc41068218b87d582365e91cb9e558c154b3a9c2ea086bf09bbd")
