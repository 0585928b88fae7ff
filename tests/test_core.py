"""State enumeration, ranking, and measure functionals."""

import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duores import core, equilibrium, experiments, meanfield, simulate
from duores.core import (
    Measure,
    ModelParams,
    StationState,
    count_arrays,
    enumerate_states,
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
    caches = [core.count_arrays, core._per_rank, meanfield._stencils,
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


@pytest.mark.parametrize("K", [80_000, 86_247, 86_248, 90_000, 130_000])
def test_ranks_of_answers_the_int_rank_or_refuses_K_by_name(K):
    # int64 ranks overflowed with a RuntimeWarning from K = 86 248:
    # ranks_of([0], [0], [1], [0], 90_000) was 4611686018427477905, and
    # K = 130 000 ended in an unnamed OverflowError
    assert index_of((0, 0, 1, 0), K) == K + 1  # after the K + 1 states (0, 0, 0, z)
    states = [(0, 0, 1, 0), (0, 0, 0, K), (1, 2, 3, K - 6)]
    calls = [lambda st: int(ranks_of(*([c] for c in st), K)[0]),
             lambda st: index_of(tuple(map(float, st)), K),
             lambda st: index_of(np.array(st), K)]
    for call in calls:
        for st in states:
            if K < 86_248:
                assert call(st) == index_of(st, K)
            else:
                with pytest.raises(ValueError, match=rf"^capacity K={K} has ranks whose int64 "
                                   r"arithmetic overflows: 4 C\(K \+ 4, 4\) is above "):
                    call(st)


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


def test_only_the_gate_compares_a_use_with_a_budget():
    # ten helpers in four modules compared their uses with the MAX_* bounds
    # and worded the refusals themselves; every bound is now one of the
    # gate's budgets, read from the module that keeps it
    src = Path(core.__file__).parent
    bounds, strays = {}, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        bounds.update({t.id: path.stem for node in tree.body if isinstance(node, ast.Assign)
                       for t in node.targets if re.match("MAX_", getattr(t, "id", ""))})
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def owner(node):
            while not isinstance(node, (ast.FunctionDef, ast.Assign, ast.Module)):
                node = parents[node]
            return getattr(node, "name", None) or ast.unparse(node).split(" =")[0]

        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    re.match("MAX_", getattr(n, "id", getattr(n, "attr", "")))
                    for n in ast.walk(node)):
                strays.append((path.stem, owner(node), ast.unparse(node)))
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and not isinstance(parents[node], ast.Expr)  # a docstring
                    and re.search(r"above the .*(budget|ceiling)", node.value)
                    and (path.stem, owner(node)) != ("core", "_BUDGETS")):
                strays.append((path.stem, owner(node), node.value))
    assert strays == []
    assert bounds == {name: module for name, (module, _) in core._BUDGETS.items()}


def test_the_quoted_largest_uses_are_the_plans():
    # README and the kept-state budget's docstring quote the benchmark's
    # largest run and kept block; the plans that the gate checks give them
    readme = " ".join((Path(core.__file__).parents[2] / "README.md").read_text().split())
    after = Path(core.__file__).read_text().split("MAX_KEPT_BYTES = 1 << 30", 1)[1]
    doc = " ".join(after.split('"""')[1].split())
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)  # the benchmark's network
    run_plan = simulate._check_run(p, 4000, 6000, tuple(0.5 * k for k in range(11)),
                                   places=False)  # the study gives each run its placement
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)  # and its flow: T = 5 at dt = 0.25 / 46
    dt = 0.25 / p.rate_bound
    steps = core._gate(meanfield._check_step(p, 5.0, dt, ("T", "dt"), 5.0 / dt))
    block = core._gate(*meanfield._budgeted_block(p, 920, 5.0, dt, ("T", "dt")))
    assert (run_plan["MAX_EVENTS"], round(steps["MAX_STEPS"])) == (80_000, 920)
    assert "the benchmark's N = 4000 run asks for 80 000" in readme
    for text in (readme, doc):
        assert f"{run_plan['MAX_KEPT_BYTES'] / 1e6:.1f} MB for a run" in text
        assert f"{block['MAX_KEPT_BYTES'] / 1e6:.1f} MB of states (920 at K = 15)" in text


def test_count_vectors():
    # fill counts cars (x + y + z); occupancy counts every taken space.
    K = 3
    r = index_of((1, 1, 1, 0), K)
    fill, no_available, saturated = core._per_rank(K)
    assert fill[r] == 2
    assert sum(int(c[r]) for c in count_arrays(K)) == 3
    assert saturated[r] and not no_available[r]


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
    tables = core._per_rank(4)
    fill, no_available, saturated = tables
    assert tables is core._per_rank(4) and fill.dtype == np.float64
    w, x, y, z = count_arrays(4)
    assert np.array_equal(fill, x + y + z)
    assert np.array_equal(no_available, y == 0) and np.array_equal(saturated, w + x + y + z == 4)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1
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


def _per_entry_times(name, times, least):
    """The rule for a sequence of times as one check per entry: the
    reference that the whole-array check must answer as."""
    ts = tuple(float(core._NONNEG.check(f"{name}[{k}]", t))
               for k, t in enumerate(core._listed(name, times, "times")))
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"{name} must be nondecreasing")
    return core._least(name, ts, times, least, "time")


def _ending(check, *args):
    try:
        out = check(*args)
    except Exception as e:  # the refusal's type and text are compared
        return type(e), str(e)
    return type(out), repr(out)


_ODD_TIMES = [0, 1, 2.5, -0.0, -1, -1e-300, math.nan, math.inf, -math.inf, True, False,
              np.float64(1.5), np.float64(math.nan), np.float64(-2.0), np.float32(2.0),
              np.int64(3), np.int64(-3), "1.0", "x", None, 1j, 10**400, -10**400, 2**60 + 1,
              1e308, [1.0]]


def test_times_are_accepted_and_refused_as_by_the_per_entry_rule():
    rng = np.random.default_rng(3)
    cases = [[], (), 5, None, "abc", np.array([]), np.linspace(0.0, 1.0, 7),
             np.array([2.0, 1.0]), np.arange(4), {1.0: 0}]
    cases += [[v] for v in _ODD_TIMES] + [(0, v) for v in _ODD_TIMES]
    cases += [[v, 3.0] for v in _ODD_TIMES]
    cases += [[_ODD_TIMES[k] for k in rng.integers(len(_ODD_TIMES), size=rng.integers(5))]
              for _ in range(400)]
    cases += [sorted(rng.uniform(0.0, 10.0, size=rng.integers(6)).tolist()) for _ in range(50)]
    for least in (0, 1):
        check = core._times(least).check
        for times in cases:
            assert _ending(check, "times", times) == _ending(_per_entry_times, "times", times,
                                                             least), (least, times)
