"""State enumeration, ranking, and measure functionals."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from duores import core, equilibrium, experiments, meanfield
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


@pytest.mark.parametrize("K", [20, 40, 80])
def test_count_arrays_are_in_rank_order_at_large_capacity(K):
    try:
        w, x, y, z = count_arrays(K)
        assert np.array_equal(ranks_of(w, x, y, z, K), np.arange(num_states(K)))
    finally:
        core.count_arrays.cache_clear()  # K = 80 holds 62 MB


def _touch_capacity(K):
    """Fill every per-capacity cache at ``K``: the drift's stencils, the
    functionals' masks and weights, the perturbation's permutation, the
    solver's log factorials."""
    m = Measure.uniform(K)
    meanfield.drift(m, ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K))
    mean_fill(m), prob_no_available(m), prob_saturated(m)
    experiments._shift_permutation(K)
    equilibrium._log_factorials(K)


def test_per_capacity_caches_drop_a_large_capacity():
    caches = [core.count_arrays, core.fill_vector,
              core.no_available_mask, core.saturated_mask, meanfield._stencils,
              experiments._shift_permutation, equilibrium._log_factorials]
    assert {c.cache_info().maxsize for c in caches} == {core._CACHED_CAPACITIES}
    small = range(1, core._CACHED_CAPACITIES + 1)
    for K in small:  # evicts whatever earlier tests left cached
        _touch_capacity(K)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _touch_capacity(40)
        held, _ = tracemalloc.get_traced_memory()
        for K in small:
            _touch_capacity(K)
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - start > 10 * 2**20
    assert end - start < 2**20


def test_inadmissible_states_are_rejected():
    with pytest.raises(ValueError):
        index_of((0, 0, 0, 2), 1)
    with pytest.raises(ValueError):
        index_of((-1, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        state_of(num_states(2), 2)
    with pytest.raises(ValueError):
        ranks_of(np.array([0]), np.array([0]), np.array([0]), np.array([2]), 1)


@pytest.mark.parametrize("state", [(0.5, 0, 0, 0), (0, 0, 0, math.nan), (0, 1.25, 0, 0),
                                   (np.float64(0.5), 0, 0, 0)])
def test_fractional_state_entries_are_refused_by_state(state):
    # index_of((0.5, 0, 0, 0), 2) was 7.0; ranks_of truncated 0.5 to rank 0
    named = re.escape(repr(tuple(float(c) for c in state)))
    with pytest.raises(ValueError, match=named):
        index_of(state, 2)
    with pytest.raises(ValueError, match=named):
        ranks_of(*([c] for c in state), 2)


@pytest.mark.parametrize("w, named", [(["a"], r"\('a', '0', '0', '0'\) is not an admissible state"),
                                      ([0, 0], r"w, x, y and z must be count arrays of one shape")])
def test_ranks_of_refuses_a_string_entry_or_unequal_shapes_by_name(w, named):
    # a string entry was numpy's unnamed UFuncNoLoopError; unequal shapes
    # were np.stack's "all input arrays must have the same shape"
    with pytest.raises(ValueError, match=named):
        ranks_of(w, [0], [0], [0], 2)


def test_integral_float_state_entries_rank_as_ints():
    for st in enumerate_states(3):
        rank = index_of(st, 3)
        as_float = index_of(tuple(map(float, st)), 3)
        assert as_float == rank and type(as_float) is int
        assert type(index_of(tuple(map(np.int64, st)), 3)) is int
    w, x, y, z = count_arrays(3)
    ranks = ranks_of(w.astype(float), x, y, z.astype(np.int32), 3)
    assert ranks.dtype == np.int64 and np.array_equal(ranks, np.arange(num_states(3)))


@pytest.mark.parametrize("K", [171, 200])
def test_state_tables_refuse_capacities_above_the_budget(K):
    # counting stays exact; building anything with one entry per state is refused
    assert num_states(K) == math.comb(K + 4, 4) > core.MAX_STATES
    msg = rf"K={K} has {num_states(K)} station states, above the state budget"
    for build in (enumerate_states, count_arrays, Measure.uniform,
                  lambda K: Measure.point((0, 0, 0, 0), K)):
        with pytest.raises(ValueError, match=msg):
            build(K)


def test_count_vectors():
    # fill counts cars (x + y + z); occupancy counts every taken space.
    K = 3
    r = index_of((1, 1, 1, 0), K)
    assert fill_vector(K)[r] == 2
    assert sum(int(c[r]) for c in count_arrays(K)) == 3
    assert core.saturated_mask(K)[r]


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


@pytest.mark.parametrize("probs, named", [
    ([math.nan, 0.0, 0.0, 0.0, 1.0], "nan at rank 0"),
    ([0.0, 0.0, math.nan, 0.0, 1.0], "nan at rank 2"),
    ([1.0, 0.0, 0.0, 0.0, math.nan], "nan at rank 4"),
    ([0.0, math.inf, math.nan, 0.0, 0.0], "inf at rank 1"),  # the first of two
])
def test_measure_names_the_first_non_finite_rank(probs, named):
    # NaN fails neither "min < 0" nor "|sum - 1| > tol", so it was accepted.
    with pytest.raises(ValueError, match=rf"non-finite mass {named}$"):
        Measure(probs, 1)


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


def test_mean_fill_reads_a_read_only_float_fill_vector():
    # float64 changes the product's loop, not its value
    w = fill_vector(4)
    assert w is fill_vector(4) and w.dtype == np.float64
    _, x, y, z = count_arrays(4)
    assert np.array_equal(w, x + y + z)
    with pytest.raises(ValueError):
        w[0] = 1.0
    rng = np.random.default_rng(31)
    for K in (1, 3, 15, 20):
        _, x, y, z = count_arrays(K)
        for _ in range(20):
            m = Measure(rng.dirichlet(np.ones(num_states(K)) * rng.uniform(0.05, 5)), K)
            assert mean_fill(m) == float(m.probs @ (x + y + z))


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
    # "mu and nu must be > 0" named neither rate alone
    for mu, nu, named in ((0.0, 1.0, r"^mu must be > 0, got 0\.0$"),
                          (1.0, -2.0, r"^nu must be > 0, got -2\.0$"),
                          (1.0, 0.0, r"^nu must be > 0, got 0\.0$")):
        with pytest.raises(ValueError, match=named):
            ModelParams(lam=1.0, mu=mu, nu=nu, K=1)
