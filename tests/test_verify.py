"""The verification suites themselves: generator structure and the
check registry."""

import numpy as np
import pytest

import duores.verify as verify
from duores.core import count_arrays, enumerate_states, num_states
from duores.equilibrium import RateRatios, product_form
from duores.verify import (
    CHECKS,
    check_enumeration,
    check_fixed_point_large_K,
    check_step2_identity,
    run_checks,
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


def test_product_form_is_in_the_generator_null_space():
    rho = RateRatios(0.5, 1.5, 0.8, 0.5)
    K = 3
    Q = tandem_generator(rho.eta1, rho.rho1, rho.rho2, rho.eta2, K)
    pi = product_form(rho, K).probs
    assert np.max(np.abs(pi @ Q)) < 1e-12


def test_check_registry_and_overrides():
    assert set(CHECKS) == {
        "enumeration", "product_form_stationarity", "step2_identity",
        "aggregation_identity", "fill_identity", "fixed_point",
        "fixed_point_large_K",
    }
    res = run_checks(["step2_identity"], {"step2_identity": {"trials": 10}})
    assert len(res) == 1
    assert res[0].passed
    assert res[0].details["trials"] == 10
    with pytest.raises(KeyError):
        run_checks(["nope"])


def test_checks_report_worst_below_tolerance():
    res = check_enumeration()
    assert res.passed and res.worst == 0.0
    res = check_step2_identity(trials=20)
    assert res.passed and res.worst < res.tol


def test_enumeration_check_catches_count_arrays_out_of_order(monkeypatch):
    def swapped(K):
        cols = [c.copy() for c in count_arrays(K)]
        if K == 3:
            for c in cols:
                c[[5, 6]] = c[[6, 5]]
        return tuple(cols)

    monkeypatch.setattr(verify, "count_arrays", swapped)
    res = check_enumeration()
    assert not res.passed and res.worst == 2.0


def test_fixed_point_large_K_meets_tolerance_on_every_solve():
    res = check_fixed_point_large_K()
    assert res.details["n_solves"] == 96
    assert res.passed and res.worst < res.tol
