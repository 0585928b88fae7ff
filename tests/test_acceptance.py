"""Acceptance gate: ten end-to-end criteria with fixed tolerances.

Each test prints exactly one ``acceptance NN PASS/FAIL`` line straight
to the terminal (bypassing capture), then asserts.  Every criterion
carries a wall-clock budget; blowing the budget fails the criterion.
"""

import time

import numpy as np

from duores.core import Measure, ModelParams, tv_distance
from duores.equilibrium import RateRatios, product_form, solve_equilibrium
from duores.experiments import attraction_experiment, chaos_experiment, convergence_experiment
from duores.meanfield import integrate
from duores.simulate import SimConfig, run
from duores.verify import ITEMS

# Shared reference parameters: moderate load, occupancy 1.5 of 3.
_P_REF = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
_S_REF = 1.5


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} {label} ({detail})",
              flush=True)


def test_criterion_01_state_space_enumeration(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        res = ITEMS["enumeration"]()
        elapsed = time.monotonic() - t0
        ok = res.passed and elapsed < 1.0
        detail = f"mismatches={int(res.metrics['worst'])}, {elapsed:.2f}s of 1s"
    finally:
        _report(capsys, 1, "state enumeration and ranking", ok, detail)
    assert ok, detail


def test_criterion_02_product_form_stationarity(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        res = ITEMS["product_form_stationarity"]()

        # Independent literal check: the capacity-one chain is a plain
        # five-state cycle whose generator fits on screen.
        eta1, rho1, rho2, eta2 = 0.7, 1.3, 0.9, 0.7
        # rank order: (0,0,0,0) (0,0,0,1) (0,0,1,0) (0,1,0,0) (1,0,0,0)
        Q = np.zeros((5, 5))
        Q[0, 4] = 1.0          # reserve a space, car inbound elsewhere
        Q[4, 3] = 1.0 / eta1   # reserved space claimed by a pickup
        Q[3, 2] = 1.0 / rho1   # driving car arrives, becomes available
        Q[2, 1] = 1.0 / rho2   # available car gets reserved
        Q[1, 0] = 1.0 / eta2   # reserved car departs
        np.fill_diagonal(Q, -Q.sum(axis=1))
        pi = product_form(RateRatios(eta1, rho1, rho2, eta2), 1).probs
        literal_resid = float(np.abs(pi @ Q).max())
        recip = np.array([1.0, eta2, rho2, rho1, eta1])
        recip /= recip.sum()
        literal_gap = float(np.abs(pi - recip).max())

        elapsed = time.monotonic() - t0
        ok = (res.passed and literal_resid < 1e-12 and literal_gap < 1e-15
              and elapsed < 30.0)
        detail = (f"worst={res.metrics['worst']:.2e} tol={res.thresholds['tol']:.0e}, "
                  f"literal={literal_resid:.1e}, {elapsed:.2f}s of 30s")
    finally:
        _report(capsys, 2, "product form is stationary", ok, detail)
    assert ok, detail


def test_criterion_03_reduction_identities(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        results = [
            ITEMS["step2_identity"](),
            ITEMS["aggregation_identity"](),
            ITEMS["fill_identity"](),
        ]
        elapsed = time.monotonic() - t0
        worst = max(r.metrics["worst"] for r in results)
        ok = all(r.passed for r in results) and elapsed < 10.0
        detail = f"worst={worst:.2e} tol=1e-13, {elapsed:.2f}s of 10s"
    finally:
        _report(capsys, 3, "aggregation and balance identities", ok, detail)
    assert ok, detail


def test_criterion_04_fixed_point_solver(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        res = ITEMS["fixed_point"]()
        elapsed = time.monotonic() - t0
        ok = res.passed and elapsed < 60.0
        detail = (f"worst={res.metrics['worst']:.2e} tol={res.thresholds['tol']:.0e}, "
                  f"closed_form_err={res.metrics['closed_form_err']:.1e}, "
                  f"{res.metrics['n_solves']} solves, {elapsed:.1f}s of 60s")
    finally:
        _report(capsys, 4, "fixed-point residuals on a parameter grid", ok, detail)
    assert ok, detail


def test_criterion_05_flow_integration(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        # (a) the solved fixed point stays put under the flow
        rep = solve_equilibrium(_P_REF, _S_REF)
        pi = product_form(rep.rho, _P_REF.K)
        traj = integrate(pi, _P_REF, T=10.0, dt=0.02)
        drift_tv = max(tv_distance(m, pi) for _, m in traj)

        # (b) classical fourth-order step-size convergence
        m0 = Measure.uniform(_P_REF.K)
        ref = integrate(m0, _P_REF, T=1.0, dt=0.00625)[-1][1].probs
        dts = (0.05, 0.025, 0.0125)
        errs = [
            float(np.max(np.abs(integrate(m0, _P_REF, T=1.0, dt=dt)[-1][1].probs - ref)))
            for dt in dts
        ]
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

        elapsed = time.monotonic() - t0
        ok = drift_tv < 1e-6 and order >= 3.5 and elapsed < 60.0
        detail = (f"stationary_drift={drift_tv:.1e} tol=1e-6, "
                  f"order={order:.2f} min=3.5, {elapsed:.1f}s of 60s")
    finally:
        _report(capsys, 5, "flow integration accuracy", ok, detail)
    assert ok, detail


def test_criterion_06_convergence_in_network_size(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        rep = convergence_experiment(
            _P_REF, N_list=(10, 50, 250), replicas=32, T=5.0,
            sample_times=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), seed0=2026,
            s=_S_REF, audit=True,
        )
        elapsed = time.monotonic() - t0
        finals = ", ".join(f"{v:.3g}" for v in rep.metrics["tv_final"])
        ok = rep.passed and elapsed < 300.0
        detail = (f"tv_final=[{finals}], slope={rep.metrics['slope']:.2f} "
                  f"in [-0.7,-0.3], {elapsed:.1f}s of 300s")
    finally:
        _report(capsys, 6, "empirical law converges to the flow", ok, detail)
    assert ok, detail


def test_criterion_07_pair_decorrelation(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        rep = chaos_experiment(
            _P_REF, N_list=(10, 50, 250), replicas=32, T=5.0,
            sample_times=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), seed0=2026,
            s=_S_REF, audit=True,
        )
        elapsed = time.monotonic() - t0
        finals = ", ".join(f"{v:.3g}" for v in rep.metrics["pair_tv_final"])
        ok = rep.passed and elapsed < 300.0
        detail = (f"pair_tv_final=[{finals}], "
                  f"marginal_err={rep.metrics['marginal_err_max']:.1e}, "
                  f"{elapsed:.1f}s of 300s")
    finally:
        _report(capsys, 7, "station pairs decorrelate", ok, detail)
    assert ok, detail


def test_criterion_08_runtime_invariants(capsys):
    # criteria 6 and 7 already run fully audited; this is a dedicated
    # audited run with deep list reconciliation at every snapshot
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        cfg = SimConfig(N=200, M=300, T=5.0,
                        sample_times=tuple(0.5 * k for k in range(11)), seed=1)
        out = run(_P_REF, cfg, audit=True)
        elapsed = time.monotonic() - t0
        final = out[-1][1]
        ok = (len(out) == 11 and final[:, 1:].sum() == 300
              and final.sum(axis=1).max() <= 3 and final.min() >= 0
              and elapsed < 60.0)
        detail = f"0 violations in {len(out)} audited snapshots, {elapsed:.1f}s of 60s"
    finally:
        _report(capsys, 8, "simulator invariants hold under audit", ok, detail)
    assert ok, detail


def test_criterion_09_monotone_structure(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        rep = ITEMS["monotonicity"]()
        elapsed = time.monotonic() - t0
        ok = rep.passed and elapsed < 60.0
        detail = (f"{rep.metrics['n_checks']} checks, "
                  f"{len(rep.notes)} probe note(s), {elapsed:.1f}s of 60s")
    finally:
        _report(capsys, 9, "solver monotonicity assumptions", ok, detail)
    assert ok, detail


def test_criterion_10_equilibrium_attraction(capsys):
    ok, detail = False, "crashed"
    t0 = time.monotonic()
    try:
        p = ModelParams(lam=1.0, mu=1.0, nu=10.0, K=3)
        rep = attraction_experiment(p, perturbation_size=0.1, T=50.0, s=_S_REF)
        elapsed = time.monotonic() - t0
        ok = rep.passed and elapsed < 30.0
        detail = (f"final_tv={rep.metrics['final_tv']:.1e} tol=1e-4, "
                  f"fill_drift={rep.metrics['fill_drift']:.1e} tol=1e-9, "
                  f"{elapsed:.1f}s of 30s")
    finally:
        _report(capsys, 10, "fill-preserving perturbations relax back", ok, detail)
    assert ok, detail
