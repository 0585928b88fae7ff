"""Event-level simulator checks: hand-traced events via a fake RNG,
frozen degenerate networks, and a tiny ergodic chain with a known
stationary law."""

import hashlib
import math
import re
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from duores import core, simulate
from duores.core import ModelParams
from duores.simulate import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    SimConfig,
    SimInvariantError,
    SimState,
    _init_with_rng,
    _stations,
    empirical_measure,
    init_uniform,
    run,
    step,
)


class FakeRng:
    """Replays scripted uniform draws; enforces the 4-draw contract."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.used = 0

    def random(self, n):
        assert n == 4, "each event must consume exactly four draws"
        row = self.rows[self.used]
        self.used += 1
        return row


def _two_station_state():
    z = np.zeros(2, dtype=np.int64)
    return SimState(z.copy(), z.copy(), np.array([1, 1], dtype=np.int64), z.copy())


# ------------------------------------------------------------
# Scripted event traces
# ------------------------------------------------------------

def test_arrival_event_hand_trace():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = _two_station_state()
    rng = FakeRng([[0.5, 0.0, 0.0, 0.0]])  # arrival, i = 0, j = 0
    _, dt, tag = step(st, p, rng)
    assert tag == "arrival"
    assert dt == -math.log1p(-0.5) / 2.0  # rate = lam * N = 2
    assert list(st.w) == [1, 0]
    assert list(st.y) == [0, 1]
    assert list(st.z) == [1, 0]
    assert st.pickups == [(0, 0)]
    assert rng.used == 1


def test_arrival_blocked_without_available_car():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = _two_station_state()
    st.y[0] = 0  # station 0 has nothing to reserve
    before = st.counts().copy()
    _, _, tag = step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.9]]))
    assert tag == "blocked"
    assert np.array_equal(st.counts(), before)
    assert st.pickups == []


def test_arrival_blocked_at_full_destination():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    st = _two_station_state()
    before = st.counts().copy()
    # i = 0 has a car, but j = 1 is at capacity (occupancy 1 = K)
    _, _, tag = step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.9]]))
    assert tag == "blocked"
    assert np.array_equal(st.counts(), before)


def test_self_trip_impossible_at_capacity_one():
    # reserving a space at the origin itself needs occupancy < K there,
    # which the reserved car already contradicts when K = 1
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    z = np.zeros(1, dtype=np.int64)
    st = SimState(z.copy(), z.copy(), np.array([1], dtype=np.int64), z.copy())
    _, _, tag = step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.0]]))
    assert tag == "blocked"


def test_pickup_and_return_hand_trace():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = _two_station_state()
    step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.0]]))  # arrival (0, 0)
    # rate = 2 lam + 1 nu = 3; u[1] = 2.5/3 selects the pickup block
    _, _, tag = step(st, p, FakeRng([[0.2, 2.5 / 3.0, 0.77, 0.0]]))
    assert tag == "pickup"
    assert st.pickups == []
    assert st.driving == [0]
    assert list(st.w) == [0, 0]
    assert list(st.x) == [1, 0]
    # rate = 2 lam + 1 mu = 3; u[1] = 2.5/3 now selects the return block
    _, _, tag = step(st, p, FakeRng([[0.2, 2.5 / 3.0, 0.5, 0.5]]))
    assert tag == "return"
    assert st.driving == []
    assert list(st.y) == [1, 1]
    assert np.array_equal(st.counts(), _two_station_state().counts())


def test_station_draw_uses_inclusive_upper_guard():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = _two_station_state()
    # u = 0.999... must map to the last station, never index N
    _, _, tag = step(st, p, FakeRng([[0.5, 0.0, 0.999999, 0.999999]]))
    assert tag == "arrival"
    assert st.pickups == [(1, 1)]


_LAST_BELOW_ONE = 1.0 - 2.0**-53


def _with_neighbours(us):
    """``us`` and their adjacent doubles, kept inside ``[0, 1)``."""
    near = {v for u in us for v in (np.nextafter(u, -1.0), u, np.nextafter(u, 2.0))}
    return sorted(float(v) for v in near if 0.0 <= v < 1.0)


@pytest.mark.parametrize("N", [1, 2, 3, 4000, 2**20 + 1])
def test_block_stations_equal_the_scalar_clamp(N):
    # run takes a block's arrival stations from numpy, step from the
    # scalar rule; the two must agree on every draw
    us = _with_neighbours([0.0, 0.5, _LAST_BELOW_ONE])
    assert len(us) == 7
    expected = [min(int(u * N), N - 1) for u in us]
    assert _stations(np.array(us), N).tolist() == expected
    assert _stations(np.array([us, us]).T, N).T.tolist() == [expected, expected]


class _ScriptedGenerator:
    """Generator whose first draw row is ``first``; every later row has
    a holding-time draw just below one, so no second event fires soon."""

    def __init__(self, first):
        self.first = first

    def random(self, shape):
        block = np.full(shape, 0.5)
        block[:, 0] = _LAST_BELOW_ONE
        block[0] = self.first
        return block


@pytest.mark.parametrize("N", [1, 3, 4000])
def test_run_station_draw_uses_inclusive_upper_guard(monkeypatch, N):
    # run's twin of the step test above: u2 = u3 = 1 - 2^-53 reserve at
    # the last station, never past it
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    z = np.zeros(N, dtype=np.int64)
    initial = SimState(z.copy(), z.copy(), np.ones(N, dtype=np.int64), z.copy())
    rng = _ScriptedGenerator([0.5, 0.0, _LAST_BELOW_ONE, _LAST_BELOW_ONE])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    # the first event fires at log(2) / N, the second about 36 / (N + 1) later
    cfg = SimConfig(N=N, M=N, T=1.0 / N, sample_times=(1.0 / N,), seed=0)
    (_, counts), = run(p, cfg, initial=initial)
    expected = np.zeros((N, 4), dtype=np.int64)
    expected[:, 2] = 1
    expected[N - 1] = (1, 0, 0, 1)
    assert np.array_equal(counts, expected)


def test_step_requires_active_transitions():
    p = ModelParams(lam=0.0, mu=1.0, nu=1.0, K=1)
    z = np.zeros(1, dtype=np.int64)
    st = SimState(z.copy(), z.copy(), np.array([1], dtype=np.int64), z.copy())
    with pytest.raises(ValueError, match=r"^the total rate .* must be finite and > 0, got 0\.0 "):
        step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("lam, nu, mu, N, M", [
    (1e308, 1.0, 1.0, 2, 1),  # lam N overflows
    (1.0, 1e308, 1.0, 1, 3),  # three pending pickups could: max(nu, mu) M
    (1.0, 1.0, 1e308, 1, 3),  # three driving cars could
])
def test_run_refuses_a_rate_bound_that_overflows_before_any_draw(monkeypatch, lam, nu, mu,
                                                                  N, M):
    # lam = 1e308 ended in an IndexError at driving[k]: u1 * inf failed
    # both rate tests, and the return branch drew from an empty list
    def no_generator(seed):
        raise AssertionError("a generator was made before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    p = ModelParams(lam=lam, mu=mu, nu=nu, K=3)
    cfg = SimConfig(N=N, M=M, T=1.0, sample_times=(1.0,), seed=0)
    message = (f"the rate bound lam N + max(nu, mu) M at lam={lam!r}, nu={nu!r}, mu={mu!r}, "
               f"N={N}, M={M} is not finite")
    for audit in (False, True):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(p, cfg, audit=audit)


def test_step_refuses_a_total_rate_that_overflows_before_any_draw():
    p = ModelParams(lam=1e308, mu=1.0, nu=1.0, K=3)
    st = init_uniform(2, 1, 3, 0)
    rng = FakeRng([])  # any draw fails
    message = ("the total rate lam N + nu P + mu D must be finite and > 0, got inf at "
               "lam=1e+308, nu=1.0, mu=1.0, N=2, P=0, D=0")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        step(st, p, rng)
    assert rng.used == 0 and st.t == 0.0 and st.car_total == 1
    # a finite rate with a pending pickup at nu = 1e308 steps
    z = np.zeros(2, dtype=np.int64)
    st = SimState(np.array([0, 1]), z.copy(), z.copy(), np.array([1, 0]), pickups=[(0, 1)])
    _, _, tag = step(st, ModelParams(lam=1.0, mu=1.0, nu=1e308, K=3),
                     FakeRng([[0.5, 0.9, 0.0, 0.0]]))
    assert tag == "pickup" and st.driving == [1]


# ------------------------------------------------------------
# Initial placement
# ------------------------------------------------------------

def test_init_uniform_structure():
    st = init_uniform(N=7, M=12, K=3, seed=42)
    assert int(st.y.sum()) == 12
    assert int(st.y.max()) <= 3
    assert int(st.w.sum()) == int(st.x.sum()) == int(st.z.sum()) == 0
    assert st.pickups == [] and st.driving == []


def test_init_uniform_is_deterministic_in_the_seed():
    a = init_uniform(N=20, M=30, K=2, seed=9)
    b = init_uniform(N=20, M=30, K=2, seed=9)
    c = init_uniform(N=20, M=30, K=2, seed=10)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_init_uniform_reaches_every_station():
    seen = set()
    for seed in range(50):
        st = init_uniform(N=2, M=1, K=1, seed=seed)
        seen.add(int(np.argmax(st.y)))
    assert seen == {0, 1}


@pytest.mark.parametrize("seed", [2.5, -1, (1, -2), "7"])
def test_seeds_numpy_refuses_are_refused_by_name(seed):
    # 2.5 was accepted by SimConfig and ended in numpy's TypeError in run
    with pytest.raises(ValueError, match=r"seed must be .*, got " + re.escape(repr(seed))):
        SimConfig(N=2, M=1, T=1.0, sample_times=(0.5,), seed=seed)
    with pytest.raises(ValueError, match=r"seed must be"):
        init_uniform(N=2, M=1, K=2, seed=seed)


@pytest.mark.parametrize("seed", [None, 0, 2**70, (3, 4), [5, 6], np.int64(7)])
def test_accepted_seeds_are_kept_as_given(seed):
    assert SimConfig(N=2, M=1, T=1.0, sample_times=(0.5,), seed=seed).seed is seed
    init_uniform(N=2, M=1, K=2, seed=seed)


def test_init_uniform_rejects_overfull_network():
    with pytest.raises(ValueError):
        init_uniform(N=2, M=3, K=1, seed=0)


def test_full_network_has_no_eligible_slots_left():
    st = init_uniform(N=3, M=6, K=2, seed=1)
    assert list(st.y) == [2, 2, 2]


# ------------------------------------------------------------
# Full runs
# ------------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(N=0, M=0, T=1.0, sample_times=(0.5,), seed=1)
    with pytest.raises(ValueError):
        SimConfig(N=1, M=0, T=1.0, sample_times=(2.0,), seed=1)
    with pytest.raises(ValueError):
        SimConfig(N=1, M=0, T=1.0, sample_times=(0.5, 0.2), seed=1)
    cfg = SimConfig(N=1, M=0, T=1.0, sample_times=[0, 1], seed=(1, 2, 3))
    assert cfg.sample_times == (0.0, 1.0)


@pytest.mark.parametrize("name, value", [
    ("N", 2.5), ("N", math.inf), ("N", "4"),
    ("M", 2.5), ("M", math.nan), ("M", -math.inf),
])
def test_sim_config_rejects_non_integral_sizes(name, value):
    sizes = {"N": 4, "M": 3, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        SimConfig(T=1.0, sample_times=(1.0,), seed=0, **sizes)


def test_sim_config_converts_integral_sizes():
    cfg = SimConfig(N=4.0, M=np.float64(3.0), T=1.0, sample_times=(1.0,), seed=0)
    assert (cfg.N, cfg.M) == (4, 3)
    assert type(cfg.N) is int and type(cfg.M) is int
    (_, counts), = run(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2), cfg)
    assert counts.shape == (4, 4)


@pytest.mark.parametrize("T, times, message", [
    (math.nan, (), "T must be finite and >= 0, got nan"),
    (math.inf, (0.5,), "T must be finite and >= 0, got inf"),
    (-1.0, (), "T must be finite and >= 0, got -1.0"),
    # a NaN sample time used to pass every comparison and hang run
    (1.0, (math.nan,), "sample_times[0] must be finite and >= 0, got nan"),
    (1.0, (0.5, math.inf), "sample_times[1] must be finite and >= 0, got inf"),
    (1.0, (0.0, -0.5), "sample_times[1] must be finite and >= 0, got -0.5"),
])
def test_sim_config_rejects_non_finite_times(T, times, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimConfig(N=2, M=1, T=T, sample_times=times, seed=0)


def test_run_at_time_zero_returns_the_initial_state():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    init = init_uniform(N=5, M=6, K=2, seed=3)
    out = run(p, SimConfig(N=5, M=6, T=0.0, sample_times=(0.0,), seed=3), initial=init)
    assert len(out) == 1
    assert out[0][0] == 0.0
    assert np.array_equal(out[0][1], init.counts())


@pytest.mark.parametrize("audit", [False, True])
def test_run_with_no_sample_times_returns_no_snapshot(audit):
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    assert run(p, SimConfig(N=5, M=6, T=1.0, sample_times=(), seed=3), audit=audit) == []


def test_run_with_zero_rate_freezes():
    p = ModelParams(lam=0.0, mu=1.0, nu=1.0, K=1)
    cfg = SimConfig(N=4, M=3, T=10.0, sample_times=(0.0, 5.0, 10.0), seed=11)
    out = run(p, cfg, audit=True)
    assert len(out) == 3
    assert all(np.array_equal(c, out[0][1]) for _, c in out)


def test_run_is_deterministic_in_the_seed():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    cfg = SimConfig(N=50, M=50, T=2.0, sample_times=(1.0, 2.0), seed=77)
    a = run(p, cfg)
    b = run(p, cfg)
    c = run(p, SimConfig(N=50, M=50, T=2.0, sample_times=(1.0, 2.0), seed=78))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))


def _snapshot_digest(out):
    h = hashlib.sha256()
    for t, counts in out:
        h.update(np.float64(t).tobytes())
        h.update(counts.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("audit", [False, True])
def test_run_trajectory_is_pinned_byte_for_byte(audit):
    # digest of a run of about 14k events (56k draws, many blocks),
    # placement included; any change to the draw order or the
    # transition rules changes it
    p = ModelParams(lam=1, mu=1, nu=2, K=3)
    cfg = SimConfig(N=200, M=300, T=20.0, sample_times=tuple(range(0, 21, 2)), seed=2024)
    out = run(p, cfg, audit=audit)
    for _, counts in out:
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
    assert _snapshot_digest(out) == (
        "b4680b8cbe4ae94ee53880213e0a196a48fed302c59c9802a650dd2ea05489a9")


@pytest.mark.parametrize("audit", [False, True])
def test_large_run_trajectory_is_pinned_byte_for_byte(audit):
    # the network study's size and shape at N = 4000 (about 34k events);
    # the digest was computed with the per-event kernel that preceded the
    # block loop, not recorded from it
    p = ModelParams(lam=1, mu=1, nu=2, K=3)
    cfg = SimConfig(N=4000, M=6000, T=5.0, sample_times=(0.0, 1.0, 2.5, 4.0, 5.0), seed=4000)
    assert _snapshot_digest(run(p, cfg, audit=audit)) == (
        "5bc84a8b8d426d4ca4008ba6f51c2c4c46fd595cf2ae879adf6054d53410552c")


def _block_end(n):
    """Number of the last event in ``run``'s draw block holding event ``n``."""
    block, end = _FIRST_BLOCK, _FIRST_BLOCK
    while end < n:
        block = min(2 * block, _MAX_BLOCK)
        end += block
    return end


def _step_snapshots(p, times, st, rng):
    """Snapshots at ``times`` of a ``step`` loop from ``st`` on ``rng``, and
    the number of events it fired, the first past the last time included."""
    expected, n_events = [], 0
    while len(expected) < len(times):
        before = st.counts()
        step(st, p, rng)
        n_events += 1
        # right-continuous paths: a sample before this event sees the
        # state it left
        while len(expected) < len(times) and times[len(expected)] < st.t:
            expected.append((times[len(expected)], before))
    return expected, n_events


def test_run_equals_a_step_loop_on_the_same_stream():
    p = ModelParams(lam=1.0, mu=1.5, nu=2.0, K=2)
    times = (0.0, 0.0, 1.0, 4.2, 12.7)
    cfg = SimConfig(N=150, M=200, T=12.7, sample_times=times, seed=606)
    # the generator places the cars first, then drives the events
    rng = np.random.default_rng(cfg.seed)
    expected, n_events = _step_snapshots(p, times, _init_with_rng(cfg.N, cfg.M, p.K, rng), rng)
    # run draws for the first event past T too, and that draw ends
    # inside a block, after several full-size ones
    assert n_events > 2 * _MAX_BLOCK and _block_end(n_events) != n_events
    out = run(p, cfg)
    assert [t for t, _ in out] == list(times)
    assert _snapshot_digest(out) == _snapshot_digest(expected)


def _full_station_start():
    """Two stations of capacity 256, the first holding 256 available cars:
    a count no byte holds."""
    z = np.zeros(2, dtype=np.int64)
    return SimState(z.copy(), z.copy(), np.array([256, 100], dtype=np.int64), z.copy())


def test_counts_beyond_a_byte_give_the_step_loop_snapshots():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=256)
    times = (0.0, 0.5, 1.0, 2.0, 3.0)
    cfg = SimConfig(N=2, M=356, T=3.0, sample_times=times, seed=12)
    rng = np.random.default_rng(cfg.seed)
    expected, _ = _step_snapshots(p, times, _full_station_start(), rng)
    # the start converts element by element, later states through bytes
    assert expected[0][1].max() == 256 and expected[-1][1].max() < 256
    plain = run(p, cfg, initial=_full_station_start())
    audited = run(p, cfg, initial=_full_station_start(), audit=True)
    assert _snapshot_digest(plain) == _snapshot_digest(audited) == _snapshot_digest(expected)


@pytest.mark.parametrize("audit", [False, True])
@pytest.mark.parametrize("K", [3, 256])
def test_every_snapshot_is_a_c_contiguous_int64_array(K, audit):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    if K == 3:
        initial, cfg = None, SimConfig(N=7, M=10, T=2.0, sample_times=(0.0, 1.0, 2.0), seed=4)
    else:
        initial, cfg = _full_station_start(), SimConfig(N=2, M=356, T=2.0,
                                                        sample_times=(0.0, 1.0, 2.0), seed=4)
    for _, counts in run(p, cfg, initial=initial, audit=audit):
        assert counts.shape == (cfg.N, 4)
        assert counts.dtype == np.int64 and counts.flags.c_contiguous


def test_audit_checks_every_event():
    # the counts hold one reservation (origin 0, destination 1) that the
    # pickups list lacks; the whole-state check of a given initial state
    # refuses it before any draw, audited or not (a plain run used to
    # return a snapshot, an audited one to raise after the first event)
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = SimState(np.array([0, 1, 0], dtype=np.int64), np.zeros(3, dtype=np.int64),
                  np.array([0, 1, 1], dtype=np.int64), np.array([1, 0, 0], dtype=np.int64))
    cfg = SimConfig(N=3, M=3, T=5.0, sample_times=(5.0,), seed=8)
    for audit in (True, False):
        with pytest.raises(ValueError, match="^initial .*pending-pickup count mismatch at t=0.0"):
            run(p, cfg, initial=st, audit=audit)


@pytest.mark.parametrize("w, y, z, pickups, message", [
    ((0, 0, 0), (-1, 2, 2), (0, 0, 0), [], "negative count"),
    ((0, 0, 0), (3, 0, 0), (0, 0, 0), [], "station over capacity"),
    ((0, 1, 0), (0, 1, 1), (1, 0, 0), [(-1, 1)], "pickups holds an entry"),
    # 12 counts read as 3 stations of 4 would pass; the run would index y[2]
    ((0, 0, 0), (1, 1), (1, 0, 0, 0), [], r"its counts hold \[3, 3, 2, 4\] stations"),
])
def test_run_refuses_an_inconsistent_initial_state_before_any_draw(w, y, z, pickups,
                                                                   message):
    # the first two ran without a word when not audited: snapshots with
    # a negative count, a station holding 3 cars at K=2
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = SimState(*(np.array(c, dtype=np.int64) for c in (w, (0, 0, 0), y, z)),
                  pickups=pickups)
    cfg = SimConfig(N=3, M=3, T=5.0, sample_times=(5.0,), seed=8)
    with pytest.raises(ValueError, match=f"^initial .*{message}"):
        run(p, cfg, initial=st)


def test_each_event_writes_only_the_stations_of_its_reservation():
    # an event writes the stations of one list entry and no other: the
    # origin and destination an arrival appends to the pickup list or a
    # pickup removes from it, or the destination a return removes from
    # the driving list
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    rng = np.random.default_rng(4242)
    tags, n_events = set(), 0
    for _ in range(60):
        N = int(rng.integers(1, 7))
        st = _init_with_rng(N, int(rng.integers(0, N * p.K + 1)), p.K, rng)
        for _ in range(int(rng.integers(0, 40))):
            before, pickups, driving = st.counts(), list(st.pickups), list(st.driving)
            _, _, tag = step(st, p, rng)
            changed = set(np.flatnonzero((st.counts() != before).any(axis=1)).tolist())
            if tag == "arrival":
                named = set(st.pickups[-1])
            elif tag == "pickup":
                (pair,) = Counter(pickups) - Counter(st.pickups)
                named = set(pair)
            elif tag == "return":
                named = set(Counter(driving) - Counter(st.driving))
            else:
                named = set()
            assert changed == named, (tag, pickups, driving)
            tags.add(tag)
            n_events += 1
    assert n_events > 600
    assert tags == {"arrival", "blocked", "pickup", "return"}


def _shift(src, dst):
    """Corruption moving one unit between two counts of a station:
    occupancy and car total unchanged, one count sum off by one."""
    def corrupt(counts, s, K):
        if counts[src][s] == 0:
            return False
        counts[src][s] -= 1
        counts[dst][s] += 1
        return True
    return corrupt


def _set_negative(counts, s, K):
    counts[0][s] = -1
    return True


def _overfill(counts, s, K):
    counts[2][s] += K + 1
    return True


def _add_car(counts, s, K):
    if sum(c[s] for c in counts) == K:
        return False
    counts[2][s] += 1
    return True


def _touched(tag, changed, N):
    """A station the event wrote, or ``None`` for a blocked arrival."""
    return changed[-1] if changed else None


def _untouched(tag, changed, N):
    return next(s for s in range(N) if s not in changed)


def _corrupting_advance(after, pick, corrupt, K, every_pass=True):
    """``_advance`` that fires its rows one event at a time and applies
    ``corrupt`` to the station ``pick`` chooses, from the event's tag and
    the stations it wrote, after the first event from number ``after`` on
    where it can.  That event is then known by its time: with
    ``every_pass`` the same corruption follows it each time it fires
    again, as it does in a replay of its block.  ``calls`` records its
    number ``at``, its time ``t`` and the passes ``applied``."""
    real = simulate._advance
    calls = {"n": 0, "at": None, "t": None, "station": None, "applied": 0}

    def advance(w, x, y, z, pickups, driving, K_, lam_N, nu, mu, t, rows, t_next=math.inf,
                take=None):
        counts = (w, x, y, z)
        result = (t, t_next, None, None)
        for row in rows:
            before = [list(c) for c in counts]
            result = real(w, x, y, z, pickups, driving, K_, lam_N, nu, mu, t, (row,), t_next,
                          take)
            t, t_next, tag, _ = result
            if t_next is None:  # the last snapshot is taken, the row not fired
                return result
            if calls["t"] is None:
                calls["n"] += 1
                changed = [s for s in range(len(w))
                           if any(c[s] != b[s] for c, b in zip(counts, before))]
                s = pick(tag, changed, len(w)) if calls["n"] >= after else None
                if s is not None and corrupt(counts, s, K):
                    calls.update(at=calls["n"], t=t, station=s, applied=1)
            elif every_pass and t == calls["t"]:
                assert corrupt(counts, calls["station"], K)
                calls["applied"] += 1
        return result
    return advance, calls


def _event_time(p, cfg, initial, n):
    """Time of event number ``n`` of ``run(p, cfg, initial)``, by a
    ``step`` loop on the same stream."""
    rng = np.random.default_rng(cfg.seed)
    st = initial.copy()
    for _ in range(n):
        step(st, p, rng)
    return st.t


_AUDIT_P = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
_AUDIT_CFG = SimConfig(N=40, M=60, T=6.0, sample_times=(2.0, 4.0, 6.0), seed=91)


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_set_negative, "negative count", id="negative"),
    pytest.param(_overfill, "station over capacity", id="capacity"),
    pytest.param(_add_car, "car total 61 != 60", id="car-total"),
    pytest.param(_shift(2, 3), "pending-pickup count mismatch", id="pending-pickup"),
    pytest.param(_shift(2, 1), "driving count mismatch", id="driving"),
])
def test_audit_raises_at_the_event_that_corrupts_a_touched_station(
        monkeypatch, corrupt, message):
    p, cfg = _AUDIT_P, _AUDIT_CFG
    init = init_uniform(cfg.N, cfg.M, p.K, seed=5)
    advance, calls = _corrupting_advance(30, _touched, corrupt, p.K)
    monkeypatch.setattr(simulate, "_advance", advance)
    with pytest.raises(SimInvariantError) as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    assert calls["at"] is not None
    assert calls["applied"] == 2  # seen at the block's end, named by its replay
    t = _event_time(p, cfg, init, calls["at"])
    assert t < cfg.sample_times[0]  # raised before the first snapshot
    assert str(err.value) == f"{message} at t={t}"


def test_audit_catches_an_untouched_station_by_the_next_snapshot(monkeypatch):
    p, cfg = _AUDIT_P, _AUDIT_CFG
    init = init_uniform(cfg.N, cfg.M, p.K, seed=5)
    advance, calls = _corrupting_advance(30, _untouched, _shift(2, 1), p.K)
    monkeypatch.setattr(simulate, "_advance", advance)
    with pytest.raises(SimInvariantError, match="driving count mismatch") as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    raised_at = float(re.search(r"at t=(\S+)$", str(err.value)).group(1))
    t = _event_time(p, cfg, init, calls["at"])
    next_sample = min(tau for tau in cfg.sample_times if tau >= t)
    assert t <= raised_at <= next_sample
    assert raised_at == t  # the replay names the event itself


def test_audit_names_a_corruption_after_a_snapshot_in_the_same_block(monkeypatch):
    # the replay restores the snapshots taken and the next sample time
    # of the block's start, takes the snapshot again and fails after it
    p, cfg = _AUDIT_P, _AUDIT_CFG
    init = init_uniform(cfg.N, cfg.M, p.K, seed=5)
    rng, st, n = np.random.default_rng(cfg.seed), init.copy(), 0
    while st.t <= cfg.sample_times[0]:
        step(st, p, rng)
        n += 1
    # event n is the first after the snapshot; corrupt from event n + 2 on
    advance, calls = _corrupting_advance(n + 2, _touched, _add_car, p.K)
    monkeypatch.setattr(simulate, "_advance", advance)
    with pytest.raises(SimInvariantError) as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    assert _block_end(n) == _block_end(calls["at"])  # snapshot and corruption share a block
    t = _event_time(p, cfg, init, calls["at"])
    assert cfg.sample_times[0] < t < cfg.sample_times[1]
    assert str(err.value) == f"car total 61 != 60 at t={t}"


def test_audit_raises_the_block_end_error_when_the_replay_does_not_fail(monkeypatch):
    # a corruption made once, in the first pass only: the replay from
    # the block's start runs clean, and the block's end check stands
    p, cfg = _AUDIT_P, _AUDIT_CFG
    init = init_uniform(cfg.N, cfg.M, p.K, seed=5)
    advance, calls = _corrupting_advance(30, _touched, _shift(2, 1), p.K, every_pass=False)
    monkeypatch.setattr(simulate, "_advance", advance)
    with pytest.raises(SimInvariantError) as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    assert calls["applied"] == 1
    end = _event_time(p, cfg, init, _block_end(calls["at"]))
    assert end < cfg.sample_times[0]
    assert str(err.value) == f"driving count mismatch at t={end}"


def test_audited_run_checks_the_whole_state_at_each_block_end_and_snapshot(monkeypatch):
    p, cfg = _AUDIT_P, _AUDIT_CFG
    whole, blocks = [], []  # deep flag of each check; checks made before and in each block
    check = simulate._check_counts
    monkeypatch.setattr(simulate, "_check_counts",
                        lambda *args, deep=False: whole.append(deep) or check(*args, deep=deep))
    advance = simulate._advance

    def counted(*args):
        start = len(whole)
        result = advance(*args)
        blocks.append((start, len(whole)))
        return result

    monkeypatch.setattr(simulate, "_advance", counted)
    for initial in (None, init_uniform(cfg.N, cfg.M, p.K, seed=5)):
        whole.clear()
        blocks.clear()
        out = run(p, cfg, initial=initial, audit=True)
        assert len(out) == len(cfg.sample_times)
        assert len(blocks) > 3
        # a given start gets one deep check before any draw, a drawn one
        # holds the invariants by construction
        assert whole[:blocks[0][0]] == [True] * (initial is not None)
        # each block: a deep check per snapshot taken in it, then one
        # check of the whole state at its end, except after the last
        # snapshot, which ends the run
        for k, (start, end) in enumerate(blocks):
            assert whole[start:end] == [True] * (end - start)
            if k + 1 < len(blocks):
                assert whole[end] is False and blocks[k + 1][0] == end + 1
        assert blocks[-1][1] == len(whole)
        assert whole.count(True) == len(cfg.sample_times) + (initial is not None)
    # a plain run checks a given start only
    whole.clear()
    run(p, cfg, initial=init_uniform(cfg.N, cfg.M, p.K, seed=5))
    assert whole == [True]


def _stepped_state(N, M, K, seed):
    """A reachable state with reservations pending and cars driving."""
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=K)
    rng = np.random.default_rng(seed)
    st = _init_with_rng(N, M, K, rng)
    for _ in range(8 * N):
        step(st, p, rng)
    return st


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [1, 6])
@pytest.mark.parametrize("lam", [0.0, 1.0])  # lam = 0 freezes the network
@pytest.mark.parametrize("given", [False, True])
def test_audited_and_plain_runs_give_identical_snapshots(K, N, lam, given):
    p = ModelParams(lam=lam, mu=1.0, nu=2.0, K=K)
    M = (N * K + 1) // 2
    # a sample at time 0 and repeated sample times
    cfg = SimConfig(N=N, M=M, T=4.0, sample_times=(0.0, 0.0, 0.7, 2.0, 2.0, 4.0),
                    seed=K + 10 * N)
    initial = _stepped_state(N, M, K, seed=N + K) if given else None
    plain = run(p, cfg, initial=initial)
    audited = run(p, cfg, initial=initial, audit=True)
    assert [t for t, _ in audited] == list(cfg.sample_times)
    assert [t for t, _ in plain] == list(cfg.sample_times)
    assert _snapshot_digest(audited) == _snapshot_digest(plain)


def test_run_rejects_mismatched_initial_state():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    init = init_uniform(N=3, M=2, K=1, seed=0)
    with pytest.raises(ValueError):
        run(p, SimConfig(N=4, M=2, T=1.0, sample_times=(1.0,), seed=0), initial=init)
    with pytest.raises(ValueError):
        run(p, SimConfig(N=3, M=1, T=1.0, sample_times=(1.0,), seed=0), initial=init)


def test_run_conserves_cars_and_capacity():
    p = ModelParams(lam=2.0, mu=1.0, nu=3.0, K=3)
    cfg = SimConfig(N=40, M=70, T=5.0, sample_times=(2.5, 5.0), seed=5)
    for _, counts in run(p, cfg, audit=True):
        occ = counts.sum(axis=1)
        assert occ.max() <= 3
        assert counts[:, 1:].sum() == 70
        assert counts.min() >= 0


def test_audit_catches_corrupted_state():
    st = init_uniform(N=3, M=2, K=1, seed=0)
    st.y[0] += 1  # break car conservation
    with pytest.raises(SimInvariantError):
        st.check_invariants(K=1, M=2)


def test_deep_audit_reconciles_lists():
    # counts say the reserved space is at station 1, the pair says 0
    z = np.zeros(2, dtype=np.int64)
    st = SimState(np.array([0, 1], dtype=np.int64), z.copy(),
                  np.array([0, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64),
                  pickups=[(0, 0)], driving=[])
    st.check_invariants(K=2, M=2)  # cheap sums cannot see this
    with pytest.raises(SimInvariantError):
        st.check_invariants(K=2, M=2, deep=True)
    st2 = SimState(np.array([0, 1], dtype=np.int64), z.copy(),
                   np.array([0, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64),
                   pickups=[(0, 1)], driving=[])
    st2.check_invariants(K=2, M=2, deep=True)


@pytest.mark.parametrize("pickups, driving, named", [
    ([(-1, 1)], [0], "pickups"),
    ([(0, 2)], [0], "pickups"),
    ([(0.5, 1)], [0], "pickups"),
    ([(0, 1, 1)], [0], "pickups"),
    ([(0, 1)], [-1], "driving"),
    ([(0, 1)], [2], "driving"),
    ([(0, 1)], [1.0], "driving"),
    ([(0, 10**20)], [0], "pickups"),
    ([(0, 1)], [10**20], "driving"),
])
def test_deep_audit_names_a_list_entry_that_is_not_a_station(pickups, driving, named):
    # a negative station ended in numpy's unnamed ValueError from bincount
    st = SimState(np.array([0, 1]), np.array([1, 0]), np.array([0, 0]), np.array([1, 0]),
                  pickups=pickups, driving=driving)
    with pytest.raises(SimInvariantError, match=f"^{named} holds an entry that is not"):
        st.check_invariants(K=2, M=2, deep=True)


# ------------------------------------------------------------
# Initial placement
# ------------------------------------------------------------

def _scalar_placement(N, M, K, rng):
    """The placement as one ``rng.integers`` call per car among the
    stations still below ``K``: the reference the chunked draws replay."""
    y = np.zeros(N, dtype=np.int64)
    eligible = list(range(N))
    for _ in range(M):
        slot = int(rng.integers(len(eligible)))
        i = eligible[slot]
        y[i] += 1
        if y[i] == K:
            eligible[slot] = eligible[-1]
            eligible.pop()
    return y


@pytest.mark.parametrize("K", [1, 2, 3, 7])
@pytest.mark.parametrize("N", [1, 2, 5, 37, 400])
def test_placement_equals_one_integers_call_per_car(N, K):
    # every M from none to every space taken, the full case ending with
    # one eligible station that takes its cars without a draw
    for M in sorted({0, 1, N * K // 2, N * K - 1, N * K}):
        for seed in (0, 1):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = _scalar_placement(N, M, K, ref)
            st = _init_with_rng(N, M, K, rng)
            assert np.array_equal(st.y, expected), (N, M, K, seed)
            assert rng.bit_generator.state == ref.bit_generator.state, (N, M, K, seed)
            assert st.y.dtype == np.int64 and st.car_total == M
            assert not (st.w.any() or st.x.any() or st.z.any() or st.pickups or st.driving)


@pytest.mark.parametrize("n", [3, 2**31 - 1, 2**31 + 12_345, 2**32 - 5])
def test_bounded_draws_equal_integers_where_rejections_are_frequent(n):
    # at n = 2**31 + 12345 about half of all words are rejected, so the
    # rejections span chunk boundaries; no station fills at this K
    ref, rng = np.random.default_rng(n), np.random.default_rng(n)
    cars = 3 * simulate._CHUNK
    expected = Counter(int(ref.integers(n)) for _ in range(cars))
    y = defaultdict(int)
    simulate._place(y, range(n), cars, 10**9, rng)
    assert y == expected
    assert rng.bit_generator.state == ref.bit_generator.state


# ------------------------------------------------------------
# Empirical measures
# ------------------------------------------------------------

def test_empirical_measure_small_case():
    counts = np.array([[0, 0, 1, 0], [0, 0, 0, 0]], dtype=np.int64)
    m = empirical_measure(counts, 1)
    assert m[(0, 0, 1, 0)] == 0.5
    assert m[(0, 0, 0, 0)] == 0.5


@pytest.mark.parametrize("K", [1, 2, 3, 6, 15])
def test_tabulated_rank_counts_equal_the_checked_ranks(K):
    rng = np.random.default_rng(K)
    n = core.num_states(K)
    states = np.stack(core.count_arrays(K), axis=1).astype(np.int64)
    snapshots = [states, states[::-1].copy()] + [states[rng.integers(n, size=N)]
                                                 for N in (1, 7, 500)]
    for counts in snapshots:
        expected = np.bincount(core.ranks_of(*counts.T, K), minlength=n)
        assert np.array_equal(simulate._rank_counts(counts, K, n), expected)


# ------------------------------------------------------------
# Long-run law on degenerate networks
# ------------------------------------------------------------

def test_single_station_capacity_one_is_frozen():
    # one station, one car, K = 1: every arrival self-targets a full
    # station, so the chain never leaves its initial state
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    cfg = SimConfig(N=1, M=1, T=100.0, sample_times=tuple(float(t) for t in range(101)),
                    seed=2)
    out = run(p, cfg, audit=True)
    first = out[0][1]
    assert all(np.array_equal(c, first) for _, c in out)
    assert list(first[0]) == [0, 0, 1, 0]


def _station_zero(st):
    """Counts ``(w, x, y, z)`` of station 0 as plain ints."""
    return int(st.w[0]), int(st.x[0]), int(st.y[0]), int(st.z[0])


def test_single_station_three_cycle_time_average():
    # one station, one car, K = 2: the chain cycles through exactly
    # three states at unit rates, so each gets time fraction 1/3
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    z = np.zeros(1, dtype=np.int64)
    st = SimState(z.copy(), z.copy(), np.array([1], dtype=np.int64), z.copy())
    rng = np.random.default_rng(12345)
    occupation = {}
    T = 1e5
    while st.t < T:
        pre = _station_zero(st)
        _, dt, _ = step(st, p, rng)
        occupation[pre] = occupation.get(pre, 0.0) + dt
    total = sum(occupation.values())
    fracs = {k: v / total for k, v in occupation.items()}
    assert set(fracs) == {(0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0)}
    worst = max(abs(f - 1.0 / 3.0) for f in fracs.values())
    assert worst < 1e-2


def test_time_average_matches_product_form_on_tiny_network():
    # the empirical long-run law of the 3-cycle equals the normalized
    # reciprocal-rate weights; recheck with asymmetric rates
    p = ModelParams(lam=2.0, mu=1.0, nu=4.0, K=2)
    z = np.zeros(1, dtype=np.int64)
    st = SimState(z.copy(), z.copy(), np.array([1], dtype=np.int64), z.copy())
    rng = np.random.default_rng(777)
    occupation = {(0, 0, 1, 0): 0.0, (1, 0, 0, 1): 0.0, (0, 1, 0, 0): 0.0}
    T = 1e5
    while st.t < T:
        pre = _station_zero(st)
        _, dt, _ = step(st, p, rng)
        occupation[pre] += dt
    total = sum(occupation.values())
    # expected time fractions are inverse exit rates: 1/lam, 1/nu, 1/mu
    raw = {(0, 0, 1, 0): 1 / p.lam, (1, 0, 0, 1): 1 / p.nu, (0, 1, 0, 0): 1 / p.mu}
    norm = sum(raw.values())
    worst = max(abs(occupation[k] / total - raw[k] / norm) for k in raw)
    assert worst < 1e-2


def test_run_refuses_a_run_above_the_event_budget_before_any_draw(monkeypatch):
    # [0, 1] at lam = 1e300 holds about 2e300 events: the run never ended
    def no_generator(seed):
        raise AssertionError("a generator was made before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    p = ModelParams(lam=1e300, mu=1.0, nu=1.0, K=3)
    cfg = SimConfig(N=2, M=1, T=1.0, sample_times=(1.0,), seed=0)
    message = ("the rate bound lam N + max(nu, mu) M at lam=1e+300, nu=1.0, mu=1.0, N=2, M=1 "
               "allows 2e+300 events by the last sample time 1.0, above the event budget "
               "MAX_EVENTS=100000000")
    for audit in (False, True):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(p, cfg, audit=audit)


def test_the_event_budget_counts_the_rate_bound_to_the_last_sample_time(monkeypatch):
    # the run ends at its last sample time, so a longer horizon T adds no work
    monkeypatch.setattr(simulate, "MAX_EVENTS", 100)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)  # N = 10, M = 15: rate bound 40
    assert len(run(p, SimConfig(N=10, M=15, T=1e300, sample_times=(2.5,), seed=0))) == 1
    assert run(p, SimConfig(N=10, M=15, T=1e300, sample_times=(), seed=0)) == []
    with pytest.raises(ValueError, match=r"allows 120 events by the last sample time 3\.0, "
                       r"above the event budget MAX_EVENTS=100$"):
        run(p, SimConfig(N=10, M=15, T=3.0, sample_times=(1.0, 3.0), seed=0))


def test_a_run_or_placement_above_the_kept_budget_is_refused_before_any_draw(monkeypatch):
    # 100 000 snapshots of 4000 stations expect 0.016 events, within
    # MAX_EVENTS, and kept 12.8 GB of counts; a placement of 10**8
    # stations asked for 11.2 GB: each ended in an unnamed MemoryError
    for name in ("_advance", "_init_with_rng"):
        monkeypatch.setattr(simulate, name, lambda *a, **k: pytest.fail("a draw came first"))
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a generator came first"))
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    cfg = SimConfig(N=4000, M=6000, T=1.0, sample_times=np.linspace(0.0, 1e-6, 100_000), seed=0)
    for audit, size in ((False, 12824091136), (True, 12824411136)):
        with pytest.raises(ValueError, match=rf"^N=4000 stations, M=6000 cars and 100000 "
                           rf"sample_times keep their counts, {size} bytes, above the "
                           r"kept-state budget MAX_KEPT_BYTES=1073741824$"):
            run(p, cfg, audit=audit)
    with pytest.raises(ValueError, match=r"^N=100000000 stations keep their counts, 11200049152 "
                       r"bytes, above the kept-state budget MAX_KEPT_BYTES=1073741824$"):
        init_uniform(10**8, 0, 1, 0)


def test_the_kept_budget_counts_the_state_and_each_snapshot(monkeypatch):
    # 112 bytes a placed station and 49 152 of raw words, 425 984 for the
    # block of draws, 128 a car on the move, and 32 a station and 224 more
    # in each snapshot: 10 stations, 15 cars and 2 snapshots keep 479 264
    # bytes; an audit adds 44 a station and 24 a car
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 479_264)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    cfg = SimConfig(N=10, M=15, T=1.0, sample_times=(0.5, 1.0), seed=0)
    assert len(run(p, cfg)) == 2
    assert init_uniform(3840, 15, 3, 0).N == 3840
    with pytest.raises(ValueError, match=r"^N=10 stations, M=15 cars and 2 sample_times keep "
                       r"their counts, 480064 bytes, above the kept-state budget "
                       r"MAX_KEPT_BYTES=479264$"):
        run(p, cfg, audit=True)
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 479_263)
    with pytest.raises(ValueError, match=r"^N=10 stations, M=15 cars and 2 sample_times keep "
                       r"their counts, 479264 bytes, above the kept-state budget "
                       r"MAX_KEPT_BYTES=479263$"):
        run(p, cfg)
    with pytest.raises(ValueError, match=r"^N=3841 stations keep their counts, 479344 bytes"):
        init_uniform(3841, 15, 3, 0)


_RESERVING = ModelParams(lam=8.0, mu=1.0, nu=1e-3, K=12)  # pickups slow: cars wait reserved
_RESERVED = SimConfig(N=3000, M=12_000, T=1.0, sample_times=(1.0,), seed=0)


@pytest.mark.parametrize("p, cfg, audit", [
    pytest.param(_RESERVING, _RESERVED, False, id="False"),
    pytest.param(_RESERVING, _RESERVED, True, id="True"),
    pytest.param(ModelParams(lam=20_000.0, mu=1.0, nu=1e-4, K=24_000),
                 SimConfig(N=1, M=12_000, T=1.0, sample_times=np.linspace(0.0, 1.0, 7000), seed=0),
                 False, id="snapshots"),
])
def test_a_run_holds_no_more_than_the_budget_counts(p, cfg, audit):
    # uncounted, the pending pickups took a run at N = 20 000 to 4.33 MB
    # against 2.93 MB counted, and the snapshots' tuples, times and array
    # headers took the one at N = 1 to 2.58 MB against 1.81 MB; each case
    # outgrows its plan without the cars, the snapshot case without the
    # snapshots' headers; the audit adds more to the plain run's peak
    # than either of its two figures counts alone, so each is needed
    def peak_of(audit):
        tracemalloc.start()
        try:
            counts = run(p, cfg, audit=audit)[-1][1]
            return counts, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def plan_of(audit):
        return simulate._check_run(p, cfg.N, cfg.M, cfg.sample_times, audit)["MAX_KEPT_BYTES"]

    counts, peak = peak_of(audit)
    assert counts[:, 3].sum() > 0.8 * cfg.M  # most cars wait reserved, each a pending pickup
    assert peak <= plan_of(audit)
    if audit:
        assert peak - peak_of(False)[1] <= plan_of(True) - plan_of(False)


def test_a_long_run_of_a_small_network_holds_no_more_than_its_block_of_draws_counts():
    # 10 stations and 15 cars over 4000 events: the block of draws, at
    # _MAX_BLOCK events, outweighs the rest of the plan eightfold
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    cfg = SimConfig(N=10, M=15, T=250.0, sample_times=(250.0,), seed=0)
    tracemalloc.start()
    try:
        run(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(cfg.seed)
    st, n_events = _init_with_rng(cfg.N, cfg.M, p.K, rng), 0
    while st.t <= cfg.T:  # the same stream as the run's
        step(st, p, rng)
        n_events += 1
    assert n_events > 3 * _MAX_BLOCK
    assert peak <= simulate._check_run(p, cfg.N, cfg.M, cfg.sample_times)["MAX_KEPT_BYTES"]


def test_a_state_without_stations_passes_its_check():
    # zero stations ended in numpy's unnamed error from min() of nothing
    z = np.zeros(0, dtype=np.int64)
    SimState(z, z, z, z).check_invariants(K=1, M=0, deep=True)


@pytest.mark.parametrize("N, M, K", [(10**6, 0, 1), (100, 30_000, 300)])
def test_a_placement_holds_no_more_than_the_budget_counts(N, M, K):
    # the list of eligible stations went uncounted: init_uniform(10**6, 0,
    # 1, 0) peaked at 80.8 MB against 32 MB counted; above K = 256 every
    # count is an int object of its own
    tracemalloc.start()
    try:
        init_uniform(N, M, K, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulate._STATION_BYTES * N + simulate._CHUNK_BYTES
