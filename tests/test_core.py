"""State enumeration, ranking, and measure functionals."""

import math
import re

import numpy as np
import pytest

from duores.core import (
    Measure,
    ModelParams,
    StationState,
    count_arrays,
    enumerate_states,
    fill_vector,
    index_of,
    mean_fill,
    num_states,
    occupancy_vector,
    prob_no_available,
    prob_saturated,
    ranks_of,
    state_of,
    tv_distance,
)
from duores.equilibrium import solve_equilibrium


def test_state_counts_match_simplex_formula():
    for K in range(11):
        assert num_states(K) == math.comb(K + 4, 4)
        assert len(enumerate_states(K)) == num_states(K)


def test_capacity_one_enumeration_is_frozen():
    assert enumerate_states(1) == [
        StationState(0, 0, 0, 0),
        StationState(0, 0, 0, 1),
        StationState(0, 0, 1, 0),
        StationState(0, 1, 0, 0),
        StationState(1, 0, 0, 0),
    ]


def test_rank_spot_values():
    assert index_of((0, 0, 0, 0), 0) == 0
    assert index_of((0, 0, 0, 0), 7) == 0
    assert index_of((0, 0, 0, 1), 1) == 1
    assert index_of((1, 0, 0, 0), 1) == 4


def test_rank_state_roundtrip_exhaustive():
    for K in range(7):
        for rank, st in enumerate(enumerate_states(K)):
            assert index_of(st, K) == rank
            assert state_of(rank, K) == st


def test_vectorized_ranks_agree_with_scalar():
    for K in (1, 3, 6):
        w, x, y, z = count_arrays(K)
        assert np.array_equal(ranks_of(w, x, y, z, K), np.arange(num_states(K)))


def test_inadmissible_states_are_rejected():
    with pytest.raises(ValueError):
        index_of((0, 0, 0, 2), 1)
    with pytest.raises(ValueError):
        index_of((-1, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        state_of(num_states(2), 2)
    with pytest.raises(ValueError):
        ranks_of(np.array([0]), np.array([0]), np.array([0]), np.array([2]), 1)


def test_count_vectors():
    # fill counts cars (x + y + z); occupancy counts every taken space.
    K = 3
    r = index_of((1, 1, 1, 0), K)
    assert fill_vector(K)[r] == 2
    assert occupancy_vector(K)[r] == 3


# ------------------------------------------------------------
# Measure construction
# ------------------------------------------------------------

def test_measure_validates_shape_and_simplex():
    with pytest.raises(ValueError):
        Measure(np.ones(4) / 4, 1)  # wrong length for K=1
    bad = np.zeros(5)
    bad[0] = 1.0 + 1e-9
    with pytest.raises(ValueError):
        Measure(bad, 1)
    neg = np.full(5, 0.25)
    neg[0] = -0.25
    with pytest.raises(ValueError):
        Measure(neg, 1)


def test_measure_never_renormalizes():
    p = np.full(5, 0.2)
    m = Measure(p, 1)
    assert np.array_equal(m.probs, p)
    with pytest.raises(ValueError):
        Measure(p * 1.001, 1)


def test_measure_is_immutable():
    m = Measure.uniform(2)
    with pytest.raises(ValueError):
        m.probs[0] = 0.5


def test_point_and_uniform_constructors():
    d = Measure.point((0, 0, 1, 0), 2)
    assert d[(0, 0, 1, 0)] == 1.0
    assert d.probs.sum() == 1.0
    u = Measure.uniform(3)
    assert np.allclose(u.probs, 1.0 / 35)


# ------------------------------------------------------------
# Functionals
# ------------------------------------------------------------

def test_tv_distance_frozen_values():
    u = Measure.uniform(1)
    d0 = Measure.point((0, 0, 0, 0), 1)
    d1 = Measure.point((0, 0, 1, 0), 1)
    assert tv_distance(u, u) == 0.0
    assert tv_distance(d0, d1) == 1.0
    assert abs(tv_distance(u, d0) - 4.0 / 5.0) < 1e-15


def test_tv_distance_metric_axioms():
    rng = np.random.default_rng(7)
    K = 2
    n = num_states(K)
    ms = []
    for _ in range(6):
        p = rng.dirichlet(np.ones(n))
        p = p / p.sum()
        ms.append(Measure(p, K))
    for a in ms:
        for b in ms:
            d = tv_distance(a, b)
            assert 0.0 <= d <= 1.0
            assert abs(d - tv_distance(b, a)) < 1e-15
            for c in ms:
                assert d <= tv_distance(a, c) + tv_distance(c, b) + 1e-15


def test_tv_distance_rejects_mixed_capacities():
    with pytest.raises(ValueError):
        tv_distance(Measure.uniform(1), Measure.uniform(2))


def test_mean_fill_frozen_values():
    assert mean_fill(Measure.point((0, 0, 0, 0), 2)) == 0.0
    assert mean_fill(Measure.point((1, 1, 1, 0), 3)) == 2.0
    assert abs(mean_fill(Measure.uniform(1)) - 3.0 / 5.0) < 1e-15


def test_mean_fill_is_affine_in_the_measure():
    rng = np.random.default_rng(11)
    K = 3
    n = num_states(K)
    a = Measure(rng.dirichlet(np.ones(n)), K)
    b = Measure(rng.dirichlet(np.ones(n)), K)
    for lam in (0.0, 0.3, 1.0):
        mix = Measure(lam * a.probs + (1 - lam) * b.probs, K)
        expect = lam * mean_fill(a) + (1 - lam) * mean_fill(b)
        assert abs(mean_fill(mix) - expect) < 1e-12


def test_occupancy_functionals_frozen_values():
    d0 = Measure.point((0, 0, 0, 0), 1)
    assert prob_no_available(d0) == 1.0
    assert prob_saturated(d0) == 0.0
    assert prob_no_available(Measure.point((0, 0, 1, 0), 1)) == 0.0
    assert prob_saturated(Measure.point((0, 0, 0, 1), 1)) == 1.0
    u = Measure.uniform(1)
    assert abs(prob_no_available(u) - 4.0 / 5.0) < 1e-15
    assert abs(prob_saturated(u) - 4.0 / 5.0) < 1e-15


def test_model_params_validation():
    ModelParams(lam=0.0, mu=1.0, nu=1.0, K=1)  # lam may be zero
    with pytest.raises(ValueError):
        ModelParams(lam=-1.0, mu=1.0, nu=1.0, K=1)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, mu=0.0, nu=1.0, K=1)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, mu=1.0, nu=-2.0, K=1)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, mu=1.0, nu=1.0, K=0)


@pytest.mark.parametrize("name", ["lam", "mu", "nu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_params_reject_non_finite_rates(name, value):
    rates = {"lam": 1.0, "mu": 1.0, "nu": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        ModelParams(K=2, **rates)


@pytest.mark.parametrize("K", [2.5, math.nan, math.inf, "3"])
def test_model_params_reject_non_integral_capacity(K):
    with pytest.raises(ValueError, match=f"^K must be an integer, got {re.escape(repr(K))}$"):
        ModelParams(lam=1.0, mu=1.0, nu=1.0, K=K)


@pytest.mark.parametrize("K", [3.0, np.int64(3), np.float64(3.0)])
def test_model_params_convert_integral_capacity(K):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    assert p.K == 3 and type(p.K) is int
    assert solve_equilibrium(p, 1.5).max_residual < 1e-10


def test_model_params_keep_their_sign_messages():
    with pytest.raises(ValueError, match=r"^lam must be >= 0, got -1\.0$"):
        ModelParams(lam=-1.0, mu=1.0, nu=1.0, K=1)
    for mu, nu in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="^mu and nu must be > 0$"):
            ModelParams(lam=1.0, mu=mu, nu=nu, K=1)
