"""Product form, the reduced two-coordinate family, and the solvers.

Oracles here are deliberately independent of the implementation: raw
weights recomputed with ``math.factorial`` / ``math.lgamma`` loops, the
capacity-one closed forms, and pushforward aggregation done with a
dictionary.
"""

import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import duores.equilibrium as equilibrium
from duores import core
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


def test_solve_builds_no_per_state_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a solve built a per-state table")

    monkeypatch.setattr(equilibrium, "_normalized_weights", refuse)
    monkeypatch.setattr(equilibrium, "count_arrays", refuse)
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=5), 2.5)
    assert rep.max_residual < 1e-10


@pytest.mark.parametrize("K", [1, 3, 8, 20])
def test_state_sums_match_the_per_state_sums_of_the_product_form(K):
    w, x, y, z = core.count_arrays(K)
    for ratios in itertools.product((0.05, 1.0, 20.0), repeat=4):
        rho = RateRatios(*ratios)
        m = product_form(rho, K)
        expected = (m.probs[y > 0].sum(), m.probs[w + x + y + z < K].sum(), mean_fill(m))
        got = equilibrium._state_sums(rho, K)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0), ratios


@pytest.mark.parametrize("ratios", [
    (1e12, 0.5, 2.0, 1e12), (1e12, 1e12, 1e-12, 1e12), (1e-3, 1e-3, 1e15, 1e-3),
    (3e4, 3e4, 3e4, 3e4),
])
def test_state_sums_survive_intensities_far_beyond_the_capacity(ratios):
    # Scaled by their own maxima alone, the weight vectors of these cases
    # underflow to nothing or lose every digit; the tilt keeps them.
    K = 30
    w, x, y, z = core.count_arrays(K)
    m = product_form(RateRatios(*ratios), K)
    expected = (m.probs[y > 0].sum(), m.probs[w + x + y + z < K].sum(), mean_fill(m))
    got = equilibrium._state_sums(RateRatios(*ratios), K)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s_over_K", [0.991, 0.995])
def test_rho2_identity_holds_near_saturation(s_over_K):
    # Taken as one minus the saturated mass, 1 - P[saturated] cancels here
    # and the identity read 4.9e-9 and -1.3e-8; summed directly it holds.
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=0.01, K=3), s_over_K * 3)
    assert abs(rep.residuals["rho2"]) <= 1e-12 * max(1.0, rep.rho.rho2)
    assert rep.max_residual <= 1e-10


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
# Capacities above the state budget
# ------------------------------------------------------------

@pytest.mark.parametrize("K", [200, 1000])
def test_large_capacities_solve_within_a_small_traced_peak(K):
    assert num_states(K) > MAX_STATES
    tracemalloc.start()
    try:
        rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), K / 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.max_residual <= 1e-10
    assert peak < 1 << 20  # nothing of one entry per state was allocated


@pytest.mark.parametrize("s_over_K", [0.2, 0.5])
@pytest.mark.parametrize("nu_over_mu", [0.1, 1.0, 10.0, 1e8])
def test_capacity_1000_solves_meet_the_residual_bound(s_over_K, nu_over_mu):
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=1000),
                            s_over_K * 1000)
    assert rep.max_residual <= 1e-10


# ------------------------------------------------------------
# Golden solves
# ------------------------------------------------------------

# Per cell, lam = mu = 1, both taken at commit 363e21a, where the residuals
# were the functionals of the per-state product form: the sha-256 of
# ``json.dumps(to_dict(), sort_keys=True)`` without "residuals" and
# "max_residual", and the residuals (eta1, rho1, rho2, eta2, fill).  The
# convolution residuals round differently, so they are held within 1e-13 of
# those values instead of bit for bit.
_GOLDEN_SOLVES = {
    (3, 0.2, 0.1): ("595fb2aa318aceb52e6bb05c9fc65bab4ecc0e555f0932619191887367868cab",
                    (0.0, 0.0, -1.1796119636642288e-16, 0.0, 1.0089706847793423e-12)),
    (3, 0.2, 10.0): ("4b37b0eefa372da59e319c87beca6af9400644a1f3d54436fc0234563d97ef1d",
                     (-1.0408340855860843e-17, -1.1102230246251565e-16,
                      -1.1102230246251565e-16, -1.0408340855860843e-17,
                      -3.623767952376511e-13)),
    (3, 0.5, 0.1): ("25cbe52c8048279b36cbdfbcd88fd28384ec33e8dfbbda2964bc6d026e3074d5",
                    (8.881784197001252e-16, 1.1102230246251565e-16, -1.1102230246251565e-16,
                     8.881784197001252e-16, 3.992584041156988e-12)),
    (3, 0.5, 10.0): ("72779e833c2b6ef87fceb13bb7e8a77bc11d1bab0174f34b71685ee52ae437c5",
                     (0.0, 0.0, 1.1102230246251565e-16, 0.0, 6.849854017332291e-12)),
    (3, 0.8, 0.1): ("6a03789dc1b948ef80eedc43bb9add12e0ae1ed80967f02d7498de2f88e2e1ec",
                    (0.0, 0.0, -3.197442310920451e-14, 0.0, 6.3016258877723885e-12)),
    (3, 0.8, 10.0): ("d61595e5171d249b50f1866ab6594870d77195900049b9ff2a5897fe15abbb68",
                     (0.0, 0.0, -4.440892098500626e-16, 0.0, 1.20525811553307e-12)),
    (10, 0.2, 0.1): ("7f9d0690408ceb8e7e62cf9f726601f8cb8b75b7b9e8efb371e6986fb2d2c847",
                     (1.1102230246251565e-15, 1.1102230246251565e-16, 8.326672684688674e-17,
                      1.1102230246251565e-15, -2.2146728895222623e-12)),
    (10, 0.2, 10.0): ("aa88995ac7888b1a8bd59dbdde085dae4044aa45c96a64feea2c1c1c76839662",
                      (1.3877787807814457e-17, 1.1102230246251565e-16,
                       1.1102230246251565e-16, 1.3877787807814457e-17,
                       -5.499156685573325e-12)),
    (10, 0.5, 0.1): ("569067d27968b0a856bd733a25ea8bee2c8e57301f8e36713a4327ef69527659",
                     (0.0, 0.0, 1.1102230246251565e-16, 0.0, -2.2426505097428162e-12)),
    (10, 0.5, 10.0): ("4c960bf864a8658dfd07376b5b893a0dde206ea1e1eab952d94bcd5705ed449d",
                      (0.0, 0.0, -1.1102230246251565e-16, 0.0, -8.945733043219661e-12)),
    (10, 0.8, 0.1): ("8909c59b3f31adb0649fc604a4ab14f8ae5b470ff7df807d2ad81cf035f942f1",
                     (0.0, 0.0, -4.440892098500626e-15, 0.0, 8.93152218850446e-12)),
    (10, 0.8, 10.0): ("4501a0d29265d57fff228c6675d526a77997c73f1f0056f9d7d90fa102ba98c9",
                      (0.0, 0.0, 2.220446049250313e-16, 0.0, -4.058975378029572e-12)),
    (20, 0.2, 0.1): ("5d6fc2346a60763b399a41a6034127bef7495ef1fc62444be83b5e1378c14f31",
                     (8.881784197001252e-16, 1.1102230246251565e-16, 1.6653345369377348e-16,
                      8.881784197001252e-16, -4.774847184307873e-12)),
    (20, 0.2, 10.0): ("3e03544fc3027b989daaca03970d86dfb844b94e94595de5a9cb3000165a5c29",
                      (0.0, 0.0, -1.1102230246251565e-16, 0.0, 3.1374902675906924e-12)),
    (20, 0.5, 0.1): ("452b59fe1629e4bfc9f2d87f0baf18a9decc9efcf746376c261fcd0a6523e723",
                     (1.7763568394002505e-15, 2.220446049250313e-16, 0.0,
                      1.7763568394002505e-15, -1.3837819778927951e-12)),
    (20, 0.5, 10.0): ("cfa1b7f1b78843bb95eff85b071f92ad45cafffffceac0657d4870abdd74e61d",
                      (-1.3877787807814457e-17, -1.1102230246251565e-16,
                       -1.1102230246251565e-16, -1.3877787807814457e-17,
                       6.036060540282051e-12)),
    (20, 0.8, 0.1): ("a94f6c2438afe73a0392cd6666b1f0a26f7c7b7a761e2150ec040bccebe34f01",
                     (0.0, 0.0, 8.881784197001252e-16, 0.0, 8.197886813832156e-12)),
    (20, 0.8, 10.0): ("0a5b419ff0aa1e18361435d3b2e8d586d259dca22133c9312622ef0ce47afdee",
                      (0.0, 0.0, 0.0, 0.0, -2.547295707699959e-12)),
}


def _golden_solve(K, s_over_K, nu_over_mu) -> dict:
    return solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K),
                             s_over_K * K).to_dict()


@pytest.mark.parametrize("K, s_over_K, nu_over_mu", sorted(_GOLDEN_SOLVES))
def test_solve_reports_match_their_golden_digests(K, s_over_K, nu_over_mu):
    doc = _golden_solve(K, s_over_K, nu_over_mu)
    del doc["residuals"], doc["max_residual"]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_SOLVES[K, s_over_K, nu_over_mu][0]


@pytest.mark.parametrize("K, s_over_K, nu_over_mu", sorted(_GOLDEN_SOLVES))
def test_solve_residuals_match_their_golden_values(K, s_over_K, nu_over_mu):
    residuals = _golden_solve(K, s_over_K, nu_over_mu)["residuals"]
    golden = _GOLDEN_SOLVES[K, s_over_K, nu_over_mu][1]
    for name, value in zip(("eta1", "rho1", "rho2", "eta2", "fill"), golden):
        assert abs(residuals[name] - value) <= 1e-13, name
        assert abs(residuals[name]) <= 1e-10, name
