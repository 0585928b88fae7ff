"""Product form, the reduced two-coordinate family, and the solvers.

Oracles here are deliberately independent of the implementation: raw
weights recomputed with ``math.factorial`` / ``math.lgamma`` loops, the
capacity-one closed forms, and pushforward aggregation done with a
dictionary.
"""

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
