"""Event-level simulator checks: hand-traced events via a fake RNG,
frozen degenerate networks, and a tiny ergodic chain with a known
stationary law."""

import hashlib
import math
import re

import numpy as np
import pytest

from duores import simulate
from duores.core import ModelParams, index_of
from duores.simulate import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    SimConfig,
    SimInvariantError,
    SimState,
    _fire,
    _init_with_rng,
    empirical_measure,
    init_uniform,
    pair_empirical,
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


def test_step_requires_active_transitions():
    p = ModelParams(lam=0.0, mu=1.0, nu=1.0, K=1)
    z = np.zeros(1, dtype=np.int64)
    st = SimState(z.copy(), z.copy(), np.array([1], dtype=np.int64), z.copy())
    with pytest.raises(ValueError):
        step(st, p, FakeRng([[0.5, 0.0, 0.0, 0.0]]))


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


def _events_ending_a_block(n_events):
    """Whether ``run``'s last event is the last one of a draw block."""
    block, end = _FIRST_BLOCK, _FIRST_BLOCK
    while end < n_events:
        block = min(2 * block, _MAX_BLOCK)
        end += block
    return end == n_events


def test_run_equals_a_step_loop_on_the_same_stream():
    p = ModelParams(lam=1.0, mu=1.5, nu=2.0, K=2)
    times = (0.0, 0.0, 1.0, 4.2, 12.7)
    cfg = SimConfig(N=150, M=200, T=12.7, sample_times=times, seed=606)
    # the generator places the cars first, then drives the events
    rng = np.random.default_rng(cfg.seed)
    st = _init_with_rng(cfg.N, cfg.M, p.K, rng)
    expected, n_events = [], 0
    while len(expected) < len(times):
        before = st.counts()
        step(st, p, rng)
        n_events += 1
        # right-continuous paths: a sample before this event sees the
        # state it left
        while len(expected) < len(times) and times[len(expected)] < st.t:
            expected.append((times[len(expected)], before))
    # run draws for the first event past T too, and that draw ends
    # inside a block, after several full-size ones
    assert n_events > 2 * _MAX_BLOCK and not _events_ending_a_block(n_events)
    out = run(p, cfg)
    assert [t for t, _ in out] == list(times)
    assert _snapshot_digest(out) == _snapshot_digest(expected)


def test_audit_checks_every_event():
    # the counts hold one reservation (origin 0, destination 1) that the
    # pickups list lacks; only the per-event audit can see it before
    # the single snapshot at T
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2)
    st = SimState(np.array([0, 1, 0], dtype=np.int64), np.zeros(3, dtype=np.int64),
                  np.array([0, 1, 1], dtype=np.int64), np.array([1, 0, 0], dtype=np.int64))
    cfg = SimConfig(N=3, M=3, T=5.0, sample_times=(5.0,), seed=8)
    first = st.copy()
    step(first, p, np.random.default_rng(cfg.seed))
    with pytest.raises(SimInvariantError, match="pending-pickup") as err:
        run(p, cfg, initial=st, audit=True)
    # raised right after the first event, not at the snapshot
    assert f"at t={first.t}" in str(err.value)
    assert first.t < cfg.T
    assert len(run(p, cfg, initial=st, audit=False)) == 1


def test_kernel_writes_only_the_stations_it_reports():
    # the per-event audit looks only at the stations _fire reports, so
    # it is as strong as a whole-state check only while this holds
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    rng = np.random.default_rng(4242)
    tags = set()
    for _ in range(60):
        N = int(rng.integers(1, 7))
        st = _init_with_rng(N, int(rng.integers(0, N * p.K + 1)), p.K, rng)
        for _ in range(int(rng.integers(0, 25))):
            step(st, p, rng)
        for _ in range(10):
            counts = [a.tolist() for a in (st.w, st.x, st.y, st.z)]
            before = [list(c) for c in counts]
            u1, u2, u3 = rng.random(3).tolist()
            tag, i, j = _fire(*counts, list(st.pickups), list(st.driving),
                              N, p.K, p.lam * N, p.nu, u1 * st.total_rate(p), u2, u3)
            changed = {s for s in range(N) if any(a[s] != b[s] for a, b in zip(counts, before))}
            assert changed == (set() if tag == "blocked" else {i, j}), (tag, i, j)
            tags.add(tag)
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


def _corrupting_fire(after, pick, corrupt, K):
    """``_fire`` that applies ``corrupt`` once, to the station ``pick``
    chooses, at the first event from number ``after`` on where it can;
    ``calls`` records that event's number."""
    calls = {"n": 0, "at": None}

    def fire(w, x, y, z, *rest):
        event = _fire(w, x, y, z, *rest)
        calls["n"] += 1
        if calls["at"] is None and calls["n"] >= after:
            s = pick(event, len(w))
            if s is not None and corrupt([w, x, y, z], s, K):
                calls["at"] = calls["n"]
        return event
    return fire, calls


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
    # corrupt the destination, which every non-blocked event writes
    fire, calls = _corrupting_fire(30, lambda ev, N: ev[2] if ev[0] != "blocked" else None,
                                   corrupt, p.K)
    monkeypatch.setattr(simulate, "_fire", fire)
    with pytest.raises(SimInvariantError) as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    assert calls["at"] is not None
    t = _event_time(p, cfg, init, calls["at"])
    assert t < cfg.sample_times[0]  # raised by the per-event audit
    assert str(err.value) == f"{message} at t={t}"


def test_audit_catches_an_untouched_station_by_the_next_snapshot(monkeypatch):
    p, cfg = _AUDIT_P, _AUDIT_CFG
    init = init_uniform(cfg.N, cfg.M, p.K, seed=5)

    def untouched(event, N):
        _, i, j = event
        return next(s for s in range(N) if s not in (i, j))

    fire, calls = _corrupting_fire(30, untouched, _shift(2, 1), p.K)
    monkeypatch.setattr(simulate, "_fire", fire)
    with pytest.raises(SimInvariantError, match="driving count mismatch") as err:
        run(p, cfg, initial=init, audit=True)
    monkeypatch.undo()
    raised_at = float(re.search(r"at t=(\S+)$", str(err.value)).group(1))
    t = _event_time(p, cfg, init, calls["at"])
    next_sample = min(tau for tau in cfg.sample_times if tau >= t)
    assert t <= raised_at <= next_sample


def test_audited_run_checks_the_whole_state_once_plus_per_snapshot(monkeypatch):
    p, cfg = _AUDIT_P, _AUDIT_CFG
    whole, events = [], []
    check = SimState.check_invariants
    monkeypatch.setattr(SimState, "check_invariants",
                        lambda st, K, M, deep=False: whole.append(deep) or check(st, K, M, deep))
    monkeypatch.setattr(simulate, "_fire", lambda *a: events.append(1) or _fire(*a))
    out = run(p, cfg, audit=True)
    assert len(out) == len(cfg.sample_times)
    assert len(events) > 100
    # one cheap check after the first event, one deep check per snapshot
    assert whole == [False] + [True] * len(cfg.sample_times)


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


# ------------------------------------------------------------
# Empirical measures
# ------------------------------------------------------------

def test_empirical_measure_small_case():
    counts = np.array([[0, 0, 1, 0], [0, 0, 0, 0]], dtype=np.int64)
    m = empirical_measure(counts, 1)
    assert m[(0, 0, 1, 0)] == 0.5
    assert m[(0, 0, 0, 0)] == 0.5


def test_pair_empirical_two_distinct_stations():
    counts = np.array([[0, 0, 1, 0], [0, 0, 0, 0]], dtype=np.int64)
    joint = pair_empirical(counts, 1)
    a = index_of((0, 0, 1, 0), 1)
    b = index_of((0, 0, 0, 0), 1)
    assert joint[a, b] == 0.5 and joint[b, a] == 0.5
    assert joint[a, a] == 0.0 and joint[b, b] == 0.0


def test_pair_empirical_two_equal_stations():
    counts = np.array([[0, 0, 1, 0], [0, 0, 1, 0]], dtype=np.int64)
    joint = pair_empirical(counts, 1)
    r = index_of((0, 0, 1, 0), 1)
    assert joint[r, r] == 1.0
    assert joint.sum() == 1.0


def test_pair_empirical_marginals_match_exactly():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    cfg = SimConfig(N=60, M=60, T=3.0, sample_times=(3.0,), seed=21)
    (_, counts), = run(p, cfg)
    joint = pair_empirical(counts, 2)
    emp = empirical_measure(counts, 2).probs
    assert np.max(np.abs(joint.sum(axis=0) - emp)) < 1e-14
    assert np.max(np.abs(joint.sum(axis=1) - emp)) < 1e-14
    assert np.max(np.abs(joint - joint.T)) == 0.0
    assert abs(joint.sum() - 1.0) < 1e-12


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
