"""Product form, the reduced two-coordinate family, and the solvers.

Oracles here are deliberately independent of the implementation: raw
weights recomputed with ``math.factorial`` / ``math.lgamma`` loops, the
capacity-one closed forms, and pushforward aggregation done with a
dictionary.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
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
    _simple_form,
    _simple_mean,
    f_simple,
    product_form,
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
        p2 = _simple_form(rho.rho1_tilde, rho2, K)
        assert p2.shape == (K + 1, K + 1)
        assert np.max(np.abs(p2 - _oracle_pushforward(rho, K))) < 1e-13


def _partition(x, y, K):
    """The reduced normalizing constant from the O(K) pass, unscaled."""
    Z, _, _, _, e = equilibrium._reduced_sums(x, y, K)
    return equilibrium._unscale(Z, e)


def _no_available(x, y, K):
    """``P[j = 0] = E / Z`` from the O(K) pass."""
    Z, _, E, _, _ = equilibrium._reduced_sums(x, y, K)
    return E / Z


def test_reduced_partition_frozen_values():
    # K=1 states (0,0), (1,0), (0,1)
    assert _partition(1.0, 1.0, 1) == 3.0
    assert _partition(2.0, 3.0, 1) == 6.0
    # K=2 adds (2,0), (1,1), (0,2): 1 + x + y + x^2/2 + xy + y^2
    assert _partition(2.0, 1.0, 2) == 1 + 2 + 1 + 2 + 2 + 1


def test_simple_marginals_capacity_one():
    x, y = 0.7, 1.3
    Z = 1 + x + y
    p2 = _simple_form(x, y, 1)
    assert abs(p2[:, 0].sum() - (1 + x) / Z) < 1e-15
    assert abs(np.fliplr(p2).trace() - (x + y) / Z) < 1e-15


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_simple_form_moments_are_the_reduced_pass(K):
    # the reference array and the O(K) pass agree on the no-car mass and
    # the weighted means at every capacity the balance-identity suite uses
    i, j = np.indices((K + 1, K + 1))
    for x in (1e-3, 0.4, 2.5, 30.0):
        for y in (1e-3, 0.7, 3.0, 40.0):
            p2 = _simple_form(x, y, K)
            assert math.isclose(p2[:, 0].sum(), _no_available(x, y, K), rel_tol=1e-12)
            for c in (1.0, 0.6):
                assert math.isclose((p2 * (c * i + j)).sum(), _simple_mean(x, y, K, c),
                                    rel_tol=1e-12), (x, y, c)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_a_curve_point_meets_the_acceptance_relation_of_the_reference_array(K):
    # f(x, phi(x)) = 0 is x = a (1 - P[j = 0]), read here from the array
    for a in (0.5, 2.0, 9.0):
        for frac in (0.1, 0.5, 0.9):
            x = frac * a
            no_car = _simple_form(x, solve_phi(x, a, K), K)[:, 0].sum()
            assert math.isclose(a * (1.0 - no_car), x, rel_tol=1e-12), (a, x)


def test_simple_form_survives_large_intensities():
    p2 = _simple_form(1e80, 1e80, 4)
    assert np.isfinite(p2).all()
    assert abs(p2.sum() - 1.0) < 1e-12
    # all mass on the saturated anti-diagonal in this limit
    assert np.fliplr(p2).trace() > 1.0 - 1e-12


def _exact_reduced_moments(x, y, K, cs):
    """Exact ``(F Z, F)``, ``P[j=0]`` and the list of
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
    SI = sum(xi[i] * i * G[K - i] for i in range(K + 1))
    SJ = sum(xi[i] * H[K - i] for i in range(K + 1))
    F = math.factorial(K) * dx**K * dy**K
    means = []
    for C, dc in (c.as_integer_ratio() for c in cs):
        means.append((C * SI + dc * SJ) / (dc * Z))
    return (Z, F), P0 / Z, means


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
            (Z, F), p0, means = _exact_reduced_moments(x, y, K, cs)
            pairs = [(_no_available(x, y, K), p0)]
            pairs += [(equilibrium._simple_mean(x, y, K, c), m) for c, m in zip(cs, means)]
            for got, exact in pairs:
                assert math.isclose(got, exact, rel_tol=1e-14,
                                    abs_tol=sys.float_info.min), (x, y, got, exact)
            if Z <= F * int(sys.float_info.max):
                assert math.isclose(_partition(x, y, K), Z / F, rel_tol=1e-14)
            else:
                assert _partition(x, y, K) == math.inf
    assert rescaled > 0


def test_reduced_pass_at_intensities_beyond_the_plain_sums():
    # x^K/K! and y^K overflow a double here
    assert _simple_mean(1e80, 1e80, 4, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert _no_available(1e300, 1.0, 4) == 1.0
    assert np.fliplr(_simple_form(1e80, 1e80, 4)).trace() == 1.0


def _spy_full_passes(monkeypatch):
    """Route ``_reduced_sums`` through a spy; the list records, per call,
    whether its scaled ``E`` underflowed to 0."""
    full = equilibrium._reduced_sums
    underflows = []

    def spy(*args):
        sums = full(*args)
        underflows.append(sums[2] == 0.0)
        return sums

    monkeypatch.setattr(equilibrium, "_reduced_sums", spy)
    return underflows


@pytest.mark.parametrize("K", [1, 3, 10, 40, 1000, 2000])
def test_curve_point_sums_are_the_scaled_pass_bit_for_bit(monkeypatch, K):
    # A curve point runs only the Horner stage in y at each step and
    # returns the sums at its own y; the full pass runs where it rescales.
    full = equilibrium._reduced_sums
    underflows = _spy_full_passes(monkeypatch)
    if K == 2000:  # a curve point whose scaled E underflows to 0
        cells = [(2.99853515625, 3.0)]
    else:
        rng = np.random.default_rng(2200 + K)
        # the pass rescales at small K only for x near 1e100; at K = 1000, E
        # overflows from x near 700, and each step above 1e12 costs a full pass
        xs = 10.0 ** rng.uniform(-12, 200 if K < 1000 else 12, 60)
        cells = list(zip(xs, xs * (1.0 + 10.0 ** rng.uniform(-12, 12, 60))))
    branches = set()
    for x, a in cells:
        x, a = float(x), float(a)
        underflows.clear()
        y, sums = equilibrium._curve_point(x, a, K)
        Z, dZ, _, Z1, _ = full(x, y, K)
        assert repr(sums) == repr((Z, dZ, Z1)), (x, a)
        assert solve_phi(x, a, K) == y
        branches.add(bool(underflows))
        if K == 2000:
            assert any(underflows)
    assert branches == ({True} if K == 2000 else {False, True})


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
            bound = 1e-12 * a * _partition(x, y, K)
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


def _spy_curve_points(monkeypatch):
    """Route ``_curve_point`` through a spy; the list records, per call,
    its arguments and what it returned."""
    point = equilibrium._curve_point
    calls = []

    def spy(*args):
        calls.append((args, point(*args)))
        return calls[-1][1]

    monkeypatch.setattr(equilibrium, "_curve_point", spy)
    return calls


def test_each_curve_point_builds_the_partial_exponentials_once(monkeypatch):
    # a solve builds them once per curve point it solves, warm or cold
    build = equilibrium._partial_exponentials
    calls = []
    monkeypatch.setattr(equilibrium, "_partial_exponentials",
                        lambda x, K: calls.append((x, K)) or build(x, K))
    points = _spy_curve_points(monkeypatch)
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=10), 5.0)
    assert calls == [(args[0], 10) for args, _ in points]
    assert rep.fill_evaluations < len(points) <= 2 * rep.fill_evaluations
    calls.clear()
    solve_phi(1.5, 2.0, 10)
    assert calls == [(1.5, 10)]


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 1000])
def test_a_curve_point_from_any_start_is_the_cold_point(K):
    # Bracketed by (0, 2e6 y): from below the root Newton's first step
    # overshoots it; from the root, or from far above it, Newton closes in
    # from above.  Each ends within a few ulps of the cold point and meets
    # the acceptance relation of the array.  At K = 1, a = 9, x = 0.9 the
    # rounding of h makes Newton's last steps jump several ulps, so both
    # searches end on two adjacent doubles they evaluated, and each takes
    # the one with the smaller |h|: the cold point, with its sums, bit for
    # bit, from every start.
    cells = [(2.0, 0.5)] if K == 1000 else itertools.product((0.5, 2.0, 9.0), (0.1, 0.5, 0.9))
    for a, frac in cells:
        x = frac * a
        y = solve_phi(x, a, K)
        for y0 in (0.5 * y, y, 1e6 * y):
            point = equilibrium._curve_point(x, a, K, (y0, 0.0, 2e6 * y))
            if (K, a, frac) == (1, 9.0, 0.1):
                assert point == equilibrium._curve_point(x, a, K), y0
            got = point[0]
            assert abs(got - y) <= 16 * math.ulp(y), (a, x, y0)
            no_car = _simple_form(x, got, K)[:, 0].sum()
            assert math.isclose(a * (1.0 - no_car), x, rel_tol=1e-12), (a, x, y0)


def test_solve_phi_steps_over_an_underflowed_partial_exponential(monkeypatch):
    # At K = 2000 the scaled pass's E underflows to 0 at the larger y of
    # the bracket; log(b Z / (a E)) then divided by zero.
    underflows = _spy_full_passes(monkeypatch)
    x, a, K = 2.99853515625, 3.0, 2000
    y = solve_phi(x, a, K)
    assert any(underflows)
    assert abs(f_simple(x, y, a, K)) <= 1e-12 * a * _partition(x, y, K)


def test_solve_phi_is_increasing():
    a, K = 3.0, 4
    xs = np.linspace(0.05, 0.95, 19) * a
    ys = [solve_phi(x, a, K) for x in xs]
    assert all(b > c for c, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("call, named", [
    (lambda: solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3), "1.5"), "s"),
    (lambda: RateRatios("0.5", 1.0, 2.0, 0.5), "eta1"),
    (lambda: RateRatios(0.5, "1.0", 2.0, 0.5), "rho1"),
    (lambda: RateRatios(0.5, 1.0, "2.0", 0.5), "rho2"),
    (lambda: RateRatios(0.5, 1.0, 2.0, "0.5"), "eta2"),
    (lambda: product_form(RateRatios(0.5, 1.0, 2.0, 0.5), "3"), "K"),
])
def test_a_string_argument_is_refused_by_name(call, named):
    # a string is refused by the entry's declaration, not by a bare
    # TypeError from a comparison inside it
    with pytest.raises(ValueError, match=f"^{named} must"):
        call()


def test_g_mean_frozen_values():
    # the reduced car density E[i + j]
    assert _simple_mean(0.0, 0.0, 3, 1.0) == 0.0
    # K=1, weights 1, x, y on counts 0, 1, 1
    assert abs(_simple_mean(1.0, 2.0, 1, 1.0) - 3.0 / 4.0) < 1e-15
    assert abs(_simple_mean(1.0, 1e12, 4, 1.0) - 4.0) < 1e-9


def test_fill_along_curve_capacity_one_closed_form():
    a = 2.0
    for c in (1.0, 0.6):
        for t in (0.3, 1.0, 1.7):
            y = t * (1 + t) / (a - t)
            expect = (c * t + y) / (1 + t + y)
            assert abs(_simple_mean(t, solve_phi(t, a, 1), 1, c) - expect) < 1e-9


# ------------------------------------------------------------
# Fixed-point solvers
# ------------------------------------------------------------

def test_solver_capacity_one_closed_form():
    p = ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1)
    rep = solve_equilibrium(p, 0.75)
    assert abs(rep.rho.rho1 - 1.0) < 1e-6
    assert abs(rep.rho.rho2 - 2.0) < 1e-6
    assert rep.max_residual < 1e-10


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
    # puts more noise on the fill than the fill tolerance allows.
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), s)
    assert rep.max_residual <= 1e-10


def test_fill_bisection_stops_on_an_exhausted_bracket(monkeypatch):
    # No double meets a 1e-16 fill tolerance at K = 40: the bisection
    # must stop once the bracket ends are adjacent doubles, well before
    # its step limit, and say where it stopped.
    monkeypatch.setattr(equilibrium, "_FILL_TOL", 1e-16)
    with pytest.raises(RuntimeError, match=r"K=40, s=20\.0 .*bracket \[.*gap.*1e-16") as err:
        solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=40), 20.0)
    n_evals = int(re.search(r"after (\d+) evaluations", str(err.value)).group(1))
    assert n_evals <= 60


def test_the_fill_tolerance_is_the_solvers_constant():
    # it was the argument fill_tol, which no caller outside the tests set
    assert equilibrium._FILL_TOL == 1e-11
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'fill_tol'"):
        solve_equilibrium(p, 1.5, fill_tol=1e-11)
    with pytest.raises(TypeError, match="positional argument"):
        solve_equilibrium(p, 1.5, 1e-11)
    assert abs(solve_equilibrium(p, 1.5).residuals["fill"]) < equilibrium._FILL_TOL


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
        p2 = _simple_form(t, r, K)
        no_car = p2[:, 0].sum()
        residuals = (
            t - a * (1.0 - no_car),
            r * (1.0 - np.fliplr(p2).trace()) - (1.0 - no_car),
            s - _simple_mean(t, r, K, 1.0),
        )
        assert max(abs(v) for v in residuals) < 1e-6


def _large_K_limits(sigma):
    """``(K (1 - pV), K (1 - pF), K log rho2)`` as ``K -> inf`` at fill
    fraction ``sigma``: ``theta / (e^theta - 1)``, ``theta e^theta /
    (e^theta - 1)`` and ``theta``, where ``theta`` solves
    ``1 / (1 - e^-theta) - 1 / theta = sigma``, the mean of a truncated
    exponential on [0, 1] (``theta = 0`` at ``sigma = 1/2``)."""
    if sigma == 0.5:
        return 1.0, 1.0, 0.0
    lo, hi = (-60.0, -1e-9) if sigma < 0.5 else (1e-9, 60.0)
    while (theta := 0.5 * (lo + hi)) not in (lo, hi):
        if 1.0 / -math.expm1(-theta) - 1.0 / theta < sigma:
            lo = theta
        else:
            hi = theta
    return theta / math.expm1(theta), theta / -math.expm1(-theta), theta


@pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8])
def test_large_capacities_approach_the_truncated_exponential_limit(sigma):
    # Each gap to the limit keeps its sign and shrinks from K = 80 to
    # K = 320 by more than the factor 2 of a K^-1/2 law (2.58 and above;
    # the gaps shrink about as 1/K).
    limits = _large_K_limits(sigma)
    for nu in (0.1, 2.0, 10.0):
        gaps = []
        for K in (80, 160, 320):
            rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), sigma * K)
            pV, pF, _ = equilibrium._state_sums(rep.rho, K)
            got = (K * (1.0 - pV), K * (1.0 - pF), K * math.log(rep.rho.rho2))
            gaps.append([g - lim for g, lim in zip(got, limits)])
        for g80, g160, g320 in zip(*gaps):
            assert g80 * g160 > 0.0 and g80 * g320 > 0.0, (nu, gaps)
            assert abs(g80) > 2.0 * abs(g320), (nu, gaps)


def _parking_only(K, s, lam=1.0, mu=1.0):
    """``(rho2, pV, pF)`` of the parking-only model at fill ``s``, the
    fast-pickup limit: cars inbound (``x``) and parked (``y``) with
    weights ``rho1^x / x! rho2^y`` on ``x + y <= K``, ``rho1 = (lam/mu)
    pV`` and ``E[x + y] = s``.  A dense (K+1, K+1) table, a bisection in
    ``rho1`` for the fixed point at each ``rho2``, and one in ``log
    rho2`` on the fill, each run to adjacent doubles."""
    n = np.arange(K + 1)
    total = n[:, None] + n[None, :]
    log_fact = np.array([math.lgamma(k + 1) for k in n])

    def law(log_rho2):
        lo, hi = 0.0, lam / mu
        while (rho1 := 0.5 * (lo + hi)) not in (lo, hi):
            lw = n[:, None] * math.log(rho1) - log_fact[:, None] + n[None, :] * log_rho2
            w = np.exp(np.where(total <= K, lw, -np.inf) - lw[total <= K].max())
            p = w / w.sum()
            if rho1 < (lam / mu) * p[:, 1:].sum():
                lo = rho1
            else:
                hi = rho1
        return p

    lo, hi = -60.0, 60.0
    while (log_rho2 := 0.5 * (lo + hi)) not in (lo, hi):
        p = law(log_rho2)
        if (p * total).sum() < s:
            lo = log_rho2
        else:
            hi = log_rho2
    return math.exp(log_rho2), p[:, 1:].sum(), p[total < K].sum()


@pytest.mark.parametrize("K", [1, 2, 3, 10])
def test_fast_pickups_approach_the_parking_only_model_at_first_order(K):
    # The parking-only model balances its parked cars identically, as the
    # reduced family does; and pV, pF tend to its values with gaps of first
    # order in 1/nu, so nu times each gap is the same at nu/mu = 1e4 and
    # 1e6 (gaps up to 0.17, differences up to 1.5e-5).
    for s_over_K in (0.1, 0.5, 0.9):
        rho2, pV, pF = _parking_only(K, s_over_K * K)
        assert rho2 == pytest.approx(pV / pF, rel=1e-12, abs=0.0)
        scaled = []
        for nu in (1e4, 1e6):
            rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), s_over_K * K)
            got_V, got_F, _ = equilibrium._state_sums(rep.rho, K)
            scaled.append((nu * (got_V - pV), nu * (got_F - pF)))
        (v4, f4), (v6, f6) = scaled
        assert abs(v4 - v6) <= 1e-3 and abs(f4 - f6) <= 1e-3, (s_over_K, scaled)


def test_multiple_equilibria_error_names_the_decreasing_pair():
    err = MultipleEquilibriaError(4, 1.0, 0.5, ((0.25, 1.5), (0.375, 0.75)))
    assert err.s == 1.0
    assert err.pair == ((0.25, 1.5), (0.375, 0.75))
    assert str(err) == (
        "fill at K=4, s=1.0, nu/mu=0.5 decreases along the fixed-point curve, "
        "from 1.5 at t=0.25 to 0.75 at t=0.375: uniqueness of the equilibrium is "
        "not established here, so no root is picked (see the monotonicity check of "
        "duores verify)"
    )


def test_solve_report_serializes():
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2), 1.0)
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert set(data) == {"params", "s_target", "ratios", "residuals", "max_residual",
                         "iterations"}
    assert data["s_target"] == 1.0
    assert set(data["residuals"]) == {"eta1", "rho1", "rho2", "eta2", "fill"}


def test_solve_report_stores_one_iteration_counter():
    # the outer bisection takes one step per fill evaluation, so the two
    # counters were always equal; only fill_evaluations is stored
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3), 1.5)
    assert [f.name for f in dataclasses.fields(rep)] == [
        "params", "s_target", "rho", "residuals", "fill_evaluations"]
    assert rep.outer_iterations == rep.fill_evaluations > 0
    assert rep.to_dict()["iterations"] == {"outer": rep.fill_evaluations,
                                           "fill_evaluations": rep.fill_evaluations}


@pytest.mark.parametrize("K", [3, 10, 40])
def test_a_solve_solves_each_fill_evaluation_warm_and_its_decisions_cold(monkeypatch, K):
    # Until the bisection has an upper end, each fill evaluation is one
    # cold curve point, from y = 1.  After, it is a point bracketed by phi
    # at the bracket's two ends and started strictly between them.  Where
    # that search returns nothing, or its fill is within the band of s,
    # the point is solved cold, once, and that point decides.  rho2 is
    # the last cold y.
    points = _spy_curve_points(monkeypatch)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    s = K / 2
    rep = solve_equilibrium(p, s)
    r = p.mu / p.nu
    a = (p.lam / p.mu) * (1.0 + 2.0 * r)
    c = equilibrium._car_weight(r)
    near = equilibrium._FILL_TOL + equilibrium._warm_band(K)
    calls = iter(points)
    y_lo, y_hi, bounded, evaluations, cold = 0.0, None, 0, 0, []
    for args, point in calls:
        t = args[0]
        evaluations += 1
        if y_hi is not None:
            start, lo, hi = args[3]
            assert args[:3] == (t, a, K) and (lo, hi) == (y_lo, y_hi) and lo < start < hi
            bounded += 1
            if point and abs(equilibrium._sums_mean(t, *point, c) - s) >= near:
                args = None
            else:
                args, point = next(calls)
        if args is not None:
            assert args == (t, a, K)
            cold.append(t)
        y, sums = point
        if equilibrium._sums_mean(t, y, sums, c) >= s:
            y_hi = y
        else:
            y_lo = y
    assert evaluations == rep.fill_evaluations and bounded > evaluations / 2
    assert max(Counter(args[0] for args, _ in points).values()) <= 2
    assert cold and len(set(cold)) == len(cold)
    assert rep.rho.rho2 == points[-1][1][0] and points[-1][0] == (cold[-1], a, K)


def _ending(p, s):
    """A solve's ``to_dict()`` as JSON, or the type of its error and its
    message without the fills it quotes."""
    try:
        return json.dumps(solve_equilibrium(p, s).to_dict(), sort_keys=True)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, re.sub(r"fills \[.*?\]|, is \S+", "", str(e))


_WARM_CELLS = [(K, f, nu) for K in (1, 3, 10, 40, 80) for f in (0.2, 0.61, 0.9)
               for nu in (0.01, 1.0, 100.0)] + [
    (10, 0.95, 0.01), (20, 0.93, 0.1),  # errors whose quoted fills differ warm and cold
    (1000, 0.5, 1.0), (1000, 0.8, 1.0), (2000, 0.61, 0.01), (5000, 0.2, 0.01),
    (5000, 0.5, 1.0), (10_000, 0.01, 2.0)]


@pytest.mark.parametrize("K, s_over_K, nu_over_mu", _WARM_CELLS)
def test_a_warm_solve_ends_as_the_cold_solve_byte_for_byte(monkeypatch, K, s_over_K,
                                                          nu_over_mu):
    # The reference drives the fill bisection by a curve that solves every
    # point from the cold start y = 1.  A warm fill and a cold one differ by
    # up to about 2e-17 K^2, so where the warm one decides nothing, only the
    # fills an error quotes may differ, in their last digits.
    p = ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K)
    warm = _ending(p, s_over_K * K)
    point = equilibrium._curve_point
    monkeypatch.setattr(equilibrium, "_curve_point",
                        lambda x, a, K, bracket=None: point(x, a, K))
    assert _ending(p, s_over_K * K) == warm


def _stage_ys(monkeypatch):
    """The ``y`` of every Horner stage a curve point runs, in order.

    ``E_1`` is replaced by a float that records what is added to it: in
    the first step of each stage that is ``y * Z_0 = y``."""
    ys = []

    class E1(float):
        def __add__(self, other):
            ys.append(other)
            return float(self) + other

    build = equilibrium._partial_exponentials

    def recording(x, K):
        Es = build(x, K)
        return [E1(Es[0])] + Es[1:]

    monkeypatch.setattr(equilibrium, "_partial_exponentials", recording)
    return ys


def _bisection_cells():
    """``(x, a, K, lo, hi)``: a point midway in ``t`` between two curve
    points ``0.1 a`` apart, and phi at those two."""
    for K, a, f in itertools.product((1, 3, 20, 200), (0.5, 3.0, 20.0), (0.1, 0.5, 0.9)):
        lo, hi = (equilibrium._curve_point((f + d) * a, a, K)[0] for d in (-0.05, 0.05))
        yield f * a, a, K, lo, hi


@pytest.mark.parametrize("start", ["lo", "middle", "hi"])
def test_a_warm_point_between_two_ends_never_brackets_by_doubling(monkeypatch, start):
    # From any start within its bounds, every stage of a bounded search
    # lies within them, and it ends within a few ulps of the cold point,
    # on the point it evaluated last, with that point's own sums.
    ys = _stage_ys(monkeypatch)
    for x, a, K, lo, hi in _bisection_cells():
        y0 = {"lo": lo, "middle": math.sqrt(lo * hi), "hi": hi}[start]
        y = equilibrium._curve_point(x, a, K)[0]
        ys.clear()
        got, sums = equilibrium._curve_point(x, a, K, (y0, lo, hi))
        assert all(lo <= v <= hi for v in ys), (x, a, K, ys)
        assert ys[-1] == got and abs(got - y) <= 16 * math.ulp(y), (x, a, K)
        Z, dZ, _, Z1, e = equilibrium._reduced_sums(x, got, K)
        assert e == 0 and sums == (Z, dZ, Z1)


def test_a_curve_point_whose_bounds_exclude_the_root_returns_nothing(monkeypatch):
    # Bounds are phi at other values of t, never an answer: a search
    # started between bounds that are swapped, or lie below or above the
    # root, closes on them and returns None, as does a search that runs
    # out of steps, where the cold search raises; its caller then solves
    # the point cold.
    for x, a, K, lo, hi in _bisection_cells():
        y = equilibrium._curve_point(x, a, K)[0]
        for bracket in ((math.sqrt(lo * hi), hi, lo), (0.75 * lo, 0.5 * lo, lo),
                        (0.25 * y, 0.0, 0.5 * y), (1.5 * hi, hi, 2.0 * hi)):
            assert equilibrium._curve_point(x, a, K, bracket) is None, (x, a, K, bracket)
    monkeypatch.setattr(equilibrium, "_PHI_MAX_ITER", 1)
    assert equilibrium._curve_point(x, a, K, (lo, lo, hi)) is None
    with pytest.raises(RuntimeError, match="no convergence after 1 steps"):
        equilibrium._curve_point(x, a, K)


@pytest.mark.parametrize("corrupt", ["swapped", "below the root", "raising"])
def test_a_solve_fed_corrupted_bounds_ends_as_the_all_cold_solve(monkeypatch, corrupt):
    # Whatever a bracketed search is given, a solve ends as the one that
    # solves every point cold: a search that finds no root at its own t
    # is followed by exactly one cold search there, and one that does
    # returns a point it evaluated there.  No point is solved cold twice.
    # The last case lets every bracketed search run out of steps, as a
    # search from lo = 0 could.
    point = equilibrium._curve_point
    cells = [(K, f, nu) for K in (3, 10, 40) for f in (0.2, 0.61, 0.9) for nu in (0.01, 1.0, 100.0)]
    cold = {}
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_curve_point", lambda x, a, K, bracket=None: point(x, a, K))
        for K, f, nu in cells:
            cold[K, f, nu] = _ending(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), f * K)
    calls = []  # per call: its t, and "cold", or "found" or "failed" for a bracketed one

    def corrupted(x, a, K, bracket=None):
        if bracket is None:
            calls.append((x, "cold"))
            return point(x, a, K)
        y0, lo, hi = bracket
        if corrupt == "swapped":
            got = point(x, a, K, (y0, hi, lo))
        elif corrupt == "below the root":
            got = point(x, a, K, (y0, 0.5 * lo, lo))
        else:
            with monkeypatch.context() as m:
                m.setattr(equilibrium, "_PHI_MAX_ITER", 0)
                got = point(x, a, K, bracket)
        calls.append((x, "found" if got else "failed"))
        return got

    monkeypatch.setattr(equilibrium, "_curve_point", corrupted)
    kinds = Counter()
    for K, f, nu in cells:
        calls.clear()
        assert _ending(ModelParams(lam=1.0, mu=1.0, nu=nu, K=K), f * K) == cold[K, f, nu]
        colds = [x for x, kind in calls if kind == "cold"]
        assert len(set(colds)) == len(colds), (K, f, nu)
        for (x, kind), after in zip(calls, calls[1:] + [(None, None)]):
            if kind == "failed":
                assert after == (x, "cold"), (K, f, nu)
        kinds.update(kind for _, kind in calls)
    assert kinds["failed"] > 0 and (kinds["found"] == 0) == (corrupt == "raising")


def test_warm_and_cold_solves_agree_byte_for_byte_over_a_jittered_grid(monkeypatch):
    # 245 solves over a jittered grid: K in {3, 6, 10, 15, 20}, seven bins
    # of s/K in (0.1, 0.9) by seven of log10(nu/mu) in (-1, 2), one draw in
    # the middle half of each bin pair.  No bracketed search gives nothing
    # there: each closes on a point it evaluated.
    rng = np.random.default_rng(2026)
    cells = []
    for K in (3, 6, 10, 15, 20):
        for i, j in itertools.product(range(7), repeat=2):
            u, v = 0.5 + 0.25 * (rng.random(2) - 0.5)
            cells.append((ModelParams(lam=1.0, mu=1.0, nu=10.0 ** (-1.0 + 3.0 * (j + v) / 7), K=K),
                          (0.1 + 0.8 * (i + u) / 7) * K))
    point = equilibrium._curve_point
    with monkeypatch.context() as m:
        points = _spy_curve_points(m)
        warm = [_ending(p, s) for p, s in cells]
    bracketed = [found for args, found in points if len(args) == 4]
    assert len(bracketed) > len(cells) and all(bracketed)
    monkeypatch.setattr(equilibrium, "_curve_point",
                        lambda x, a, K, bracket=None: point(x, a, K))
    assert [_ending(p, s) for p, s in cells] == warm


def test_an_ordinary_solve_runs_no_full_pass(monkeypatch):
    # the fill of each curve point ran one full pass after solve_phi
    passes = _spy_full_passes(monkeypatch)
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=10), 5.0)
    assert rep.fill_evaluations > 0
    assert passes == []


# ------------------------------------------------------------
# Non-monotone fill traces (synthetic curves)
# ------------------------------------------------------------

def _piecewise_fill(knots):
    """A curve whose fill is the linear interpolation of ``knots``, and
    the list that records every evaluation."""
    ts, fills = zip(*knots)
    calls = []

    def curve(t, lo, hi):
        calls.append(t)
        return 1.0, float(np.interp(t, ts, fills))

    return curve, calls


def test_the_fill_bisection_hands_its_bracket_to_every_curve_point():
    # The fill is 2 t on (0, 1), so s = 1.7 is met at t = 0.85, and the
    # first upper end is the third evaluation.  Each point's phi is its
    # call count, so an end carries the phi its own evaluation returned.
    seen = []

    def curve(t, lo, hi):
        seen.append((t, lo, hi))
        return float(len(seen)), 2.0 * t

    t_star, y, n = equilibrium._solve_fill(curve, 1.0, 2, 1.7, 1.5)
    assert abs(2.0 * t_star - 1.7) < equilibrium._FILL_TOL
    assert (y, n) == (float(len(seen)), len(seen))
    lo, hi = (0.0, 0.0), (1.0, None)
    for i, (t, *ends) in enumerate(seen, 1):
        assert t == 0.5 * (lo[0] + hi[0]) and ends == [lo, hi]
        if 2.0 * t < 1.7:
            lo = t, float(i)
        else:
            hi = t, float(i)
    assert [h[1] for _, _, h in seen[:4]] == [None, None, None, 3.0]


def test_a_decreasing_trace_with_one_root_is_refused():
    # The fill rises to 1.2, dips to 0.9 and rises again: s = 0.6 is met
    # only once, at t = 0.15, but the bisection evaluates on both sides of
    # the dip, and a decreasing trace is refused, never resolved by a
    # search for roots.
    curve, calls = _piecewise_fill([(0.0, 0.0), (0.3, 1.2), (0.5, 0.9), (1.0, 2.0)])
    with pytest.raises(MultipleEquilibriaError, match=r"K=2, s=0\.6, nu/mu=1\.5 decreases") as err:
        equilibrium._solve_fill(curve, 1.0, 2, 0.6, 1.5)
    (t0, f0), (t1, f1) = err.value.pair
    assert t0 < t1 and f1 < f0
    assert t0 < 0.5 and t1 > 0.3  # the fill falls only on (0.3, 0.5)
    assert 0 < len(calls) <= equilibrium._MAX_OUTER  # the bisection's, no scan


def test_several_roots_are_refused_without_a_scan():
    # s = 0.6 is crossed three times: rising, falling, rising again
    curve, calls = _piecewise_fill([(0.0, 0.0), (0.2, 1.5), (0.35, 0.3), (0.6, 1.0),
                                    (1.0, 2.0)])
    with pytest.raises(MultipleEquilibriaError) as err:
        equilibrium._solve_fill(curve, 1.0, 2, 0.6, 1.5)
    assert err.value.s == 0.6
    (t0, f0), (t1, f1) = err.value.pair
    assert t0 < 0.35 and t1 > 0.2 and f1 < f0  # the fill falls only on (0.2, 0.35)
    assert 0 < len(calls) <= equilibrium._MAX_OUTER


@pytest.mark.parametrize("K", [3, 10, 40])
@pytest.mark.parametrize("nu_over_mu", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("s_over_K", [0.3, 0.6])
def test_ordinary_cells_are_solved_not_refused(K, nu_over_mu, s_over_K):
    rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K), s_over_K * K)
    assert rep.max_residual <= 1e-10


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

# Per cell, lam = mu = 1: the sha-256 of ``json.dumps(to_dict(),
# sort_keys=True)`` without "residuals" and "max_residual", taken at commit
# d73f569 with its "monotone_ok" and "fallback_roots" keys removed too; and
# the residuals (eta1, rho1, rho2, eta2, fill), taken at commit 363e21a,
# where they were the functionals of the per-state product form.  The
# convolution residuals round differently, so they are held within 1e-13 of
# those values instead of bit for bit.
_GOLDEN_SOLVES = {
    (3, 0.2, 0.1): ("ad185821df349c2fab8642113ff9486aaa2ff25cb47c7667e81e6d9d6e4d0e23",
                    (0.0, 0.0, -1.1796119636642288e-16, 0.0, 1.0089706847793423e-12)),
    (3, 0.2, 10.0): ("ec5a221281328e3a2e7ad5125cdd7c04c1ae3e535a3f40135447aa64855ab6c1",
                     (-1.0408340855860843e-17, -1.1102230246251565e-16,
                      -1.1102230246251565e-16, -1.0408340855860843e-17,
                      -3.623767952376511e-13)),
    (3, 0.5, 0.1): ("8da01e5dd0d19f19fbb20460397eeabefb805febdcb5a428c95679a17dcabafc",
                    (8.881784197001252e-16, 1.1102230246251565e-16, -1.1102230246251565e-16,
                     8.881784197001252e-16, 3.992584041156988e-12)),
    (3, 0.5, 10.0): ("2ba66a2a7594d08c4bab9f3e6c008b4cc94b7891892a07bab4ae49ff42301711",
                     (0.0, 0.0, 1.1102230246251565e-16, 0.0, 6.849854017332291e-12)),
    (3, 0.8, 0.1): ("a24db6588dc13cd9bc35936b825f1f1595340e9db3eb05894875e9930570ed11",
                    (0.0, 0.0, -3.197442310920451e-14, 0.0, 6.3016258877723885e-12)),
    (3, 0.8, 10.0): ("3689eac89bbead7ce1da01a6681e6ce859037c292e6c7dcb61fbb9300210a672",
                     (0.0, 0.0, -4.440892098500626e-16, 0.0, 1.20525811553307e-12)),
    (10, 0.2, 0.1): ("7e596b8380c74952e6c2fb44a32a6f1ffeebc7222a386cf541ae348317a0a9bc",
                     (1.1102230246251565e-15, 1.1102230246251565e-16, 8.326672684688674e-17,
                      1.1102230246251565e-15, -2.2146728895222623e-12)),
    (10, 0.2, 10.0): ("2aa7f3da5ef979fafff62bbd39a998ab433b88bf662f7c044d7786740900cf5c",
                      (1.3877787807814457e-17, 1.1102230246251565e-16,
                       1.1102230246251565e-16, 1.3877787807814457e-17,
                       -5.499156685573325e-12)),
    (10, 0.5, 0.1): ("3eccf9d6b5c2e383f66f4c753724f2b7fac7860bfde1221e7765591162ad7ba0",
                     (0.0, 0.0, 1.1102230246251565e-16, 0.0, -2.2426505097428162e-12)),
    (10, 0.5, 10.0): ("1123b80b752845ae382c8c592bb72095bdd8264120f48143d0154bb20794ad31",
                      (0.0, 0.0, -1.1102230246251565e-16, 0.0, -8.945733043219661e-12)),
    (10, 0.8, 0.1): ("709f3770f95a4b574bda42d90b305c1cea8ae29131d618e8a435c483b602fca4",
                     (0.0, 0.0, -4.440892098500626e-15, 0.0, 8.93152218850446e-12)),
    (10, 0.8, 10.0): ("550a133ef148316a26538da8fea4289f67b04992294a626d2ef2621316263554",
                      (0.0, 0.0, 2.220446049250313e-16, 0.0, -4.058975378029572e-12)),
    (20, 0.2, 0.1): ("19ec963b508381b594f8739dedb7d8adc40809008fe56b7349886b7a35662da0",
                     (8.881784197001252e-16, 1.1102230246251565e-16, 1.6653345369377348e-16,
                      8.881784197001252e-16, -4.774847184307873e-12)),
    (20, 0.2, 10.0): ("d1f36a2599542c97fed575b595d3492188ff036c7249915e59a73814ad288d33",
                      (0.0, 0.0, -1.1102230246251565e-16, 0.0, 3.1374902675906924e-12)),
    (20, 0.5, 0.1): ("2e581c24da5638c4b448820e3f1a61f14f290f5ef913bb81f92f5aa1d89d9219",
                     (1.7763568394002505e-15, 2.220446049250313e-16, 0.0,
                      1.7763568394002505e-15, -1.3837819778927951e-12)),
    (20, 0.5, 10.0): ("cb10d851c42e51cb35690db1863b5f213aa6b0908f45e99a728b350170b85c54",
                      (-1.3877787807814457e-17, -1.1102230246251565e-16,
                       -1.1102230246251565e-16, -1.3877787807814457e-17,
                       6.036060540282051e-12)),
    (20, 0.8, 0.1): ("39033b7774627d81b141f1466e2b8122ca08342c4d53ab0a81d534b0f65300a4",
                     (0.0, 0.0, 8.881784197001252e-16, 0.0, 8.197886813832156e-12)),
    (20, 0.8, 10.0): ("84b97bf26a6d724a51eb7c45174f3674b46ccbdc51e3a38a5d87089063bae4b5",
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


# Per cell (K, s, nu/mu), lam = mu = 1: the sha-256 of ``json.dumps(to_dict(),
# sort_keys=True)``, residuals included, taken at commit eaffeda; and whether
# the solve meets a full pass whose scaled E underflows to 0.  The cells
# above have K <= 20 and never leave the Horner stage; here the K = 1000
# solve takes the scaled pass where it rescales, and the K = 2000 one also
# steps over an underflowed E.
_GOLDEN_FULL_PASS_SOLVES = {
    (1000, 500.0, 1.0): ("7ca490461855a05d7ea1538f126b2266b1827774987d24187a0a89beb3c47c59",
                         False),
    (2000, 1220.0, 0.01): ("c40b2bded6b43c834a2cda1d463028981cc9a8108845729305156cb878ac7821",
                           True),
}


@pytest.mark.parametrize("K, s, nu_over_mu", sorted(_GOLDEN_FULL_PASS_SOLVES))
def test_solves_through_the_scaled_pass_match_their_golden_digests(monkeypatch, K, s,
                                                                   nu_over_mu):
    underflows = _spy_full_passes(monkeypatch)
    doc = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K), s).to_dict()
    digest, underflowed = _GOLDEN_FULL_PASS_SOLVES[K, s, nu_over_mu]
    assert underflows and any(underflows) == underflowed
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_a_capacity_above_the_solver_ceiling_is_refused_by_name():
    # K = 10**300 ran its O(K) pass without end; K = 2000 (the golden solve) stays
    assert equilibrium.MAX_SOLVE_K == 10_000
    for K in (equilibrium.MAX_SOLVE_K + 1, 10**300):
        message = f"K={K} is above the solver's capacity ceiling MAX_SOLVE_K=10000"
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), 1.5)
    equilibrium._check_solvable(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=10_000), 5000.0)
