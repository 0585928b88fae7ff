"""Product form, the reduced two-coordinate family, and the solvers.

Oracles here are deliberately independent of the implementation: raw
weights recomputed with ``math.factorial`` / ``math.lgamma`` loops, the
capacity-one closed forms, and pushforward aggregation done with a
dictionary.
"""

import hashlib
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import duores.equilibrium as equilibrium
from duores.core import (
    MAX_STATES,
    ModelParams,
    enumerate_states,
    mean_fill,
    num_states,
)
from duores.equilibrium import (
    MultipleEquilibriaError,
    RateRatios,
    f_simple,
    fill_along_curve,
    g_mean,
    product_form,
    simple_form,
    simple_no_available,
    simple_partition,
    simple_saturated,
    solve_equilibrium,
    solve_phi,
)


def _oracle_weights(rho, K):
    """Raw stationary weights recomputed from scratch in log space."""
    out = []
    for w, x, y, z in enumerate_states(K):
        lw = 0.0
        for count, r in ((w, rho.eta1), (x, rho.rho1), (y, rho.rho2), (z, rho.eta2)):
            if count:
                if r == 0.0:
                    lw = -math.inf
                    break
                lw += count * math.log(r)
        if lw > -math.inf:
            lw -= math.lgamma(w + 1) + math.lgamma(x + 1) + math.lgamma(z + 1)
        out.append(lw)
    lw = np.array(out)
    m = lw.max()
    p = np.exp(lw - m)
    return p / p.sum()


def test_rate_ratios_validation():
    r = RateRatios(0.5, 1.0, 2.0, 0.5)
    assert r.rho1_tilde == 2.0
    with pytest.raises(ValueError):
        RateRatios(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RateRatios(1.0, math.inf, 1.0, 1.0)


def test_product_form_capacity_one_frozen():
    m = product_form(RateRatios(1, 1, 1, 1), 1)
    assert np.allclose(m.probs, 0.2, rtol=0, atol=1e-15)
    m2 = product_form(RateRatios(2, 0, 0, 0), 1)
    assert abs(m2[(0, 0, 0, 0)] - 1.0 / 3.0) < 1e-15
    assert abs(m2[(1, 0, 0, 0)] - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("K", [1, 2, 4])
def test_product_form_matches_logspace_oracle(K):
    rng = np.random.default_rng(300 + K)
    for _ in range(10):
        rho = RateRatios(*np.exp(rng.uniform(-3, 3, size=4)))
        m = product_form(rho, K)
        oracle = _oracle_weights(rho, K)
        assert np.max(np.abs(m.probs - oracle)) < 1e-13


def test_product_form_survives_weight_overflow():
    # eta1^K alone overflows a double; the normalized measure must not.
    rho = RateRatios(1e80, 1.0, 1.0, 1.0)
    K = 5
    m = product_form(rho, K)
    oracle = _oracle_weights(rho, K)
    assert np.max(np.abs(m.probs - oracle)) < 1e-13


# ------------------------------------------------------------
# Reduced two-coordinate family
# ------------------------------------------------------------

def _oracle_pushforward(rho, K):
    """Aggregate the four-coordinate law to (w + x + z, y) with a dict."""
    m = product_form(rho, K)
    agg = np.zeros((K + 1, K + 1))
    for rank, (w, x, y, z) in enumerate(enumerate_states(K)):
        agg[w + x + z, y] += m.probs[rank]
    return agg


@pytest.mark.parametrize("K", [1, 3, 5])
def test_simple_form_is_the_aggregated_product_form(K):
    rng = np.random.default_rng(400 + K)
    for _ in range(5):
        eta1, rho1, rho2, eta2 = np.exp(rng.uniform(-2, 2, size=4))
        rho = RateRatios(eta1, rho1, rho2, eta2)
        p2 = simple_form(rho.rho1_tilde, rho2, K)
        assert p2.shape == (K + 1, K + 1)
        assert np.max(np.abs(p2 - _oracle_pushforward(rho, K))) < 1e-13


def test_simple_partition_frozen_values():
    # K=1 states (0,0), (1,0), (0,1)
    assert simple_partition(1.0, 1.0, 1) == 3.0
    assert simple_partition(2.0, 3.0, 1) == 6.0
    # K=2 adds (2,0), (1,1), (0,2): 1 + x + y + x^2/2 + xy + y^2
    assert simple_partition(2.0, 1.0, 2) == 1 + 2 + 1 + 2 + 2 + 1


def test_simple_marginals_capacity_one():
    x, y = 0.7, 1.3
    Z = 1 + x + y
    assert abs(simple_no_available(x, y, 1) - (1 + x) / Z) < 1e-15
    assert abs(simple_saturated(x, y, 1) - (x + y) / Z) < 1e-15


def test_simple_form_survives_large_intensities():
    p2 = simple_form(1e80, 1e80, 4)
    assert np.isfinite(p2).all()
    assert abs(p2.sum() - 1.0) < 1e-12
    # all mass on the saturated anti-diagonal in this limit
    assert np.fliplr(p2).trace() > 1.0 - 1e-12


def _exact_reduced_moments(x, y, K, cs):
    """Exact ``(F Z, F)``, ``P[j=0]``, ``P[i+j=K]`` and the list of
    ``E[c i + j]`` for ``c`` in ``cs`` of the reduced family at float
    inputs, each ratio rounded once.

    Each weight ``x^i/i! y^j`` is multiplied by ``F = K! dx^K dy^K``,
    with ``dx``, ``dy`` the floats' power-of-two denominators, which
    makes it an integer; sums are taken column by column (``i`` fixed),
    not by the Horner recursion over capacity.  Python's integer
    division rounds correctly, so each ratio is the double nearest the
    exact one.
    """
    (X, dx), (Y, dy) = x.as_integer_ratio(), y.as_integer_ratio()
    xi = [X**i * dx ** (K - i) * (math.factorial(K) // math.factorial(i))
          for i in range(K + 1)]
    yj = [Y**j * dy ** (K - j) for j in range(K + 1)]
    G = [sum(yj[: n + 1]) for n in range(K + 1)]  # column sums of w
    H = [sum(j * yj[j] for j in range(n + 1)) for n in range(K + 1)]  # of j w
    Z = sum(xi[i] * G[K - i] for i in range(K + 1))
    P0 = sum(xi) * yj[0]
    Psat = sum(xi[i] * yj[K - i] for i in range(K + 1))
    SI = sum(xi[i] * i * G[K - i] for i in range(K + 1))
    SJ = sum(xi[i] * H[K - i] for i in range(K + 1))
    F = math.factorial(K) * dx**K * dy**K
    means = []
    for C, dc in (c.as_integer_ratio() for c in cs):
        means.append((C * SI + dc * SJ) / (dc * Z))
    return (Z, F), P0 / Z, Psat / Z, means


_EXTREMES = (0.0, 1e-300, 1e-10, 0.3, 2.5, 1e10, 1e80, 1e300)


@pytest.mark.parametrize("K", [1, 3, 10, 40])
def test_reduced_pass_matches_exact_rationals(K):
    # Ratios within 1e-14 relative; a ratio below the smallest normal
    # double may underflow, so the comparison has that absolute floor.
    rescaled = 0
    for x in _EXTREMES:
        for y in _EXTREMES:
            rescaled += equilibrium._reduced_sums(x, y, K)[-1] != 0
            cs = (1.0, 0.6)
            (Z, F), p0, psat, means = _exact_reduced_moments(x, y, K, cs)
            pairs = [(simple_no_available(x, y, K), p0),
                     (simple_saturated(x, y, K), psat)]
            pairs += [(equilibrium._simple_mean(x, y, K, c), m) for c, m in zip(cs, means)]
            for got, exact in pairs:
                assert math.isclose(got, exact, rel_tol=1e-14,
                                    abs_tol=sys.float_info.min), (x, y, got, exact)
            if Z <= F * int(sys.float_info.max):
                assert math.isclose(simple_partition(x, y, K), Z / F, rel_tol=1e-14)
            else:
                assert simple_partition(x, y, K) == math.inf
    assert rescaled > 0


def test_reduced_pass_at_intensities_beyond_the_plain_sums():
    # x^K/K! and y^K overflow a double here
    assert g_mean(1e80, 1e80, 4) == pytest.approx(4.0, rel=1e-15)
    assert simple_no_available(1e300, 1.0, 4) == 1.0
    assert simple_saturated(1e80, 1e80, 4) == 1.0


def test_f_simple_capacity_one_closed_form():
    a = 2.0
    for x in (0.25, 0.5, 1.0, 1.5):
        for y in (0.1, 1.0, 4.0):
            expect = (a - x) * (1 + x + y) - a * (1 + x)
            assert abs(f_simple(x, y, a, 1) - expect) < 1e-12


def test_f_simple_at_zero_reservations():
    # f(0, y) = a * (sum_{j<=K} y^j - 1)
    a, y, K = 3.0, 0.8, 4
    expect = a * sum(y**j for j in range(1, K + 1))
    assert abs(f_simple(0.0, y, a, K) - expect) < 1e-12


def test_f_simple_signs_bracket_the_root():
    # increasing in y; the root separates negative from positive values
    a, K = 2.0, 3
    for x in (0.5, 1.0, 1.9):
        phi = solve_phi(x, a, K)
        assert f_simple(x, 0.5 * phi, a, K) < 0
        assert f_simple(x, 2.0 * phi + 1e-9, a, K) > 0


def test_solve_phi_capacity_one_frozen():
    # closed form at K=1: phi(x) = x (1 + x) / (a - x)
    a = 2.0
    assert abs(solve_phi(1.0, a, 1) - 2.0) < 1e-10
    assert abs(solve_phi(0.5, a, 1) - 0.5) < 1e-10
    for x in (0.1, 0.7, 1.3, 1.9):
        expect = x * (1 + x) / (a - x)
        assert abs(solve_phi(x, a, 1) - expect) < 1e-9 * max(1.0, expect)


def test_solve_phi_residual_is_small():
    for a, K in ((0.5, 2), (2.0, 3), (10.0, 5)):
        for frac in (0.1, 0.5, 0.9):
            x = frac * a
            y = solve_phi(x, a, K)
            bound = 1e-12 * a * simple_partition(x, y, K)
            assert abs(f_simple(x, y, a, K)) <= bound


def _exact_f_sign(x, y, a, K):
    """Sign of f_simple in exact rational arithmetic at float inputs."""
    x, y, a = Fraction(x), Fraction(y), Fraction(a)
    term = E = Z = Fraction(1)
    for n in range(1, K + 1):
        term *= x / n
        E += term
        Z = E + y * Z
    f = (a - x) * Z - a * E
    return (f > 0) - (f < 0)


def test_solve_phi_is_machine_precise():
    # The exact root lies within 1e-14 relative of the returned value,
    # which leaves room for rounding in f; a stop on |f| <= 1e-12 a Z
    # leaves relative errors near 1e-12.
    for a, K in ((2.0, 3), (3.0, 30), (21.0, 40)):
        for frac in (0.1, 0.5, 0.9, 0.999):
            x = frac * a
            y = solve_phi(x, a, K)
            d = 1e-14 * y
            assert _exact_f_sign(x, y - d, a, K) < 0 < _exact_f_sign(x, y + d, a, K)


def test_solve_phi_is_increasing():
    a, K = 3.0, 4
    xs = np.linspace(0.05, 0.95, 19) * a
    ys = [solve_phi(x, a, K) for x in xs]
    assert all(b > c for c, b in zip(ys, ys[1:]))


def test_solve_phi_domain_errors():
    with pytest.raises(ValueError):
        solve_phi(0.0, 2.0, 1)
    with pytest.raises(ValueError):
        solve_phi(2.0, 2.0, 1)
    with pytest.raises(ValueError):
        solve_phi(3.0, 2.0, 1)


def test_g_mean_frozen_values():
    assert g_mean(0.0, 0.0, 3) == 0.0
    # K=1, weights 1, x, y on counts 0, 1, 1
    assert abs(g_mean(1.0, 2.0, 1) - 3.0 / 4.0) < 1e-15
    assert abs(g_mean(1.0, 1e12, 4) - 4.0) < 1e-9


def test_fill_along_curve_capacity_one_closed_form():
    a = 2.0
    for c in (1.0, 0.6):
        for t in (0.3, 1.0, 1.7):
            y = t * (1 + t) / (a - t)
            expect = (c * t + y) / (1 + t + y)
            assert abs(fill_along_curve(t, a, c, 1) - expect) < 1e-9


# ------------------------------------------------------------
# Fixed-point solvers
# ------------------------------------------------------------

def test_solver_capacity_one_closed_form():
    p = ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1)
    rep = solve_equilibrium(p, 0.75)
    assert abs(rep.rho.rho1 - 1.0) < 1e-6
    assert abs(rep.rho.rho2 - 2.0) < 1e-6
    assert rep.max_residual < 1e-10
    assert rep.monotone_ok


def test_solver_residuals_across_parameters():
    for lam, mu, nu, K, s in (
        (1.0, 1.0, 2.0, 3, 1.5),
        (0.5, 2.0, 10.0, 2, 0.4),
        (3.0, 0.5, 1.0, 4, 3.2),
    ):
        rep = solve_equilibrium(ModelParams(lam=lam, mu=mu, nu=nu, K=K), s)
        assert rep.max_residual < 1e-10
        assert abs(mean_fill(product_form(rep.rho, K)) - s) < 1e-10


@pytest.mark.parametrize("K, s", [
    (12, 6.0), (12, 9.6), (15, 12.0), (20, 10.0), (20, 16.0),
    (25, 12.5), (30, 6.0), (30, 15.0), (40, 20.0),
])
def test_solver_converges_where_the_fill_is_steep(K, s):
    # Large K makes fill(t) steep near the root; an inexact inner solve
    # puts more noise on the fill than fill_tol allows.
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), s)
    assert rep.max_residual <= 1e-10


def test_fill_bisection_stops_on_an_exhausted_bracket():
    # No double meets a 1e-16 fill tolerance at K = 40: the bisection
    # must stop once the bracket ends are adjacent doubles, well before
    # its step limit, and say where it stopped.
    with pytest.raises(RuntimeError, match=r"K=40, s=20\.0 .*bracket \[.*gap") as err:
        solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=40), 20.0,
                          fill_tol=1e-16)
    n_evals = int(re.search(r"after (\d+) evaluations", str(err.value)).group(1))
    assert n_evals <= 60


@pytest.mark.parametrize("K, nu, s, largest", [
    (10, 1.0, 9.999, r"9\.9606\d*"),
    (40, 0.01, 38.0, r"36\.1656\d*"),
])
def test_fills_beyond_double_precision_are_refused_by_name(K, nu, s, largest):
    # The curve ends at t = a, which is never evaluated; s is above the
    # fill at the largest double below a, so the bracket closes on a.
    with pytest.raises(ValueError, match=rf"fill s={s} at K={K} is out of reach .* "
                                         rf"is {largest} \(nu/mu={nu}\)"):
        solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), s)


def test_solve_builds_the_product_form_once(monkeypatch):
    calls = []
    build = equilibrium._normalized_weights

    def counted(rho, K):
        calls.append(K)
        return build(rho, K)

    monkeypatch.setattr(equilibrium, "_normalized_weights", counted)
    solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=5), 2.5)
    assert calls == [5]


def test_solver_reservation_ratios_are_equal():
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3), 1.5)
    assert rep.rho.eta1 == rep.rho.eta2


def test_solver_input_validation():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    with pytest.raises(ValueError):
        solve_equilibrium(p, 0.0)
    with pytest.raises(ValueError):
        solve_equilibrium(p, 2.0)
    with pytest.raises(ValueError):
        solve_equilibrium(ModelParams(lam=0.0, mu=1.0, nu=1.0, K=2), 1.0)


def test_fast_reservations_approach_the_simple_variant():
    # As nu -> infinity the full fixed point tends to the
    # instantaneous-reservation one, (t, rho2) with a = lam/mu:
    # t = a (1 - P[j=0]), rho2 (1 - P[i+j=K]) = 1 - P[j=0], g_mean = s.
    lam, mu = 1.5, 1.0
    a = lam / mu
    for K, s in ((2, 1.0), (3, 2.1)):
        rho = solve_equilibrium(ModelParams(lam=lam, mu=mu, nu=1e8, K=K), s).rho
        t, r = rho.rho1_tilde, rho.rho2
        no_car = simple_no_available(t, r, K)
        residuals = (
            t - a * (1.0 - no_car),
            r * (1.0 - simple_saturated(t, r, K)) - (1.0 - no_car),
            s - g_mean(t, r, K),
        )
        assert max(abs(v) for v in residuals) < 1e-6


def test_multiple_equilibria_error_carries_roots():
    err = MultipleEquilibriaError([0.5, 1.5], 1.0)
    assert err.roots == [0.5, 1.5]
    assert err.s == 1.0
    assert "2 distinct" in str(err)


def test_solve_report_serializes():
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2), 1.0)
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["s_target"] == 1.0
    assert set(data["residuals"]) == {"eta1", "rho1", "rho2", "eta2", "fill"}


# ------------------------------------------------------------
# Non-monotone fill traces (synthetic curves)
# ------------------------------------------------------------

def _piecewise_fill(monkeypatch, knots):
    ts, fills = zip(*knots)
    monkeypatch.setattr(equilibrium, "fill_along_curve",
                        lambda t, a, c, K: float(np.interp(t, ts, fills)))


def test_single_root_found_by_the_scan_replaces_the_bisections(monkeypatch):
    # The fill rises to 1.2, dips to 0.9 and rises again: the bisection
    # evaluates on both sides of the dip, but s = 0.6 is met only once,
    # at t = 0.15.
    _piecewise_fill(monkeypatch, [(0.0, 0.0), (0.3, 1.2), (0.5, 0.9), (1.0, 2.0)])
    t_star, _, n_evals, monotone, roots = equilibrium._solve_fill(1.0, 1.0, 2, 0.6, 1e-11)
    assert not monotone
    assert len(roots) == 1 and t_star == roots[0]
    assert abs(t_star - 0.15) < 1e-11
    assert n_evals > 0


def test_several_roots_raise_multiple_equilibria(monkeypatch):
    # s = 0.6 is crossed three times: rising, falling, rising again
    _piecewise_fill(monkeypatch, [(0.0, 0.0), (0.2, 1.5), (0.35, 0.3), (0.6, 1.0),
                                  (1.0, 2.0)])
    with pytest.raises(MultipleEquilibriaError) as err:
        equilibrium._solve_fill(1.0, 1.0, 2, 0.6, 1e-11)
    assert err.value.s == 0.6
    expected = [0.08, 0.2 + 0.15 * 0.9 / 1.2, 0.35 + 0.25 * 0.3 / 0.7]
    assert len(err.value.roots) == 3
    assert np.allclose(err.value.roots, expected, rtol=0.0, atol=1e-10)


# ------------------------------------------------------------
# State budget
# ------------------------------------------------------------

@pytest.mark.parametrize("K", [171, 200])
def test_solve_above_the_state_budget_raises_before_building_states(K):
    n = num_states(K)
    assert n > MAX_STATES >= num_states(80)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=rf"K={K} has {n} station states, above the state "
                                 rf"budget MAX_STATES={MAX_STATES}"):
            solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), K / 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing of one entry per state was allocated


# ------------------------------------------------------------
# Golden solves
# ------------------------------------------------------------

# sha-256 of ``json.dumps(report.to_dict(), sort_keys=True)``, lam = mu = 1,
# taken at commit 67d531f, before the fill solve and its root scan shared
# one bisection.
_GOLDEN_SOLVES = {
    (3, 0.2, 0.1): "fea11d46194054c35570b636937e487c78e1e18e04a0e020740fce6926ecffd5",
    (3, 0.2, 10.0): "3131f0983a5c1e60f1828e9f0b00eb4b97520d22d1343c350a6099922530f6a7",
    (3, 0.5, 0.1): "390fcd7dc513d8ec8443f6672d4b044cef580eaf591f6be2d935822ae0e4e1a2",
    (3, 0.5, 10.0): "325ca158766a8c50b027727c576746523025e11c4f7b3223ddf19c3ba6a85320",
    (3, 0.8, 0.1): "6b93a4646656d761e326c1136804381aa51dca6277fded4585de4c635289a4cd",
    (3, 0.8, 10.0): "c012334754eba4ec6ba04a63c2b6b9933b9aeaf4bca5bf94750df2743c07d03c",
    (10, 0.2, 0.1): "55cd2a5dbd532775f135afe8895b38cefa971b1686e33b108307d8d6cfa3dc33",
    (10, 0.2, 10.0): "c15a7a3749be94918bf561d14d012bea1db16a5e0aafda2d74ac3000587f141d",
    (10, 0.5, 0.1): "ce75917c7c169a029a77de9e572faa70a360f69527f843be5d7ba360b6d97d8e",
    (10, 0.5, 10.0): "d44490e5216cd21399fff276e34ce4ec83ee75a7efc0f85f100badfa1950c816",
    (10, 0.8, 0.1): "748c6eddedcbdada7064ba7028025104c632a09d70ee3368892d583a1ee7e2b4",
    (10, 0.8, 10.0): "f21d7bdb002b184f356a0a0f1fc52eb46605d1c0de61094f018b1943df33fc53",
    (20, 0.2, 0.1): "732bc14a42886c11cd86acde14c93d96856497dd25b0880e589f1ca9b57663af",
    (20, 0.2, 10.0): "861152c5d7fb134886ad5796f20d9cf553a8ae42ef8d7edf0b6d904232fb2059",
    (20, 0.5, 0.1): "3f7898e43ff0520a8286407795566cea7f466e57e0a783724403a7be86fbb5cc",
    (20, 0.5, 10.0): "7742dadcf236544049e793b94ad2213399317ca702874098962a1a95322859e6",
    (20, 0.8, 0.1): "49c5ba9fb61eaf0e995d94856c3f7bd0b5f28aa548eabf21a4f1dff4294f771b",
    (20, 0.8, 10.0): "7783e1f3a8d22b6aac04049f93e1bece3c3d1ca4f2638463f1decb3392ce0449",
}


@pytest.mark.parametrize("K, s_over_K, nu_over_mu", sorted(_GOLDEN_SOLVES))
def test_solve_reports_match_their_golden_digests(K, s_over_K, nu_over_mu):
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K), s_over_K * K)
    blob = json.dumps(rep.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_SOLVES[K, s_over_K, nu_over_mu]
