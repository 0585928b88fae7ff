"""Mean-field drift and Runge-Kutta integration.

Two drift oracles share nothing with the gather kernel: a from-scratch
dictionary walk over the five transition families, and the per-family
``bincount`` scatter that the kernel replaced, kept here as the
reference at large capacity.  A third, the kernel that gathered all five
families, is the reference for the kernel's bits.
"""

import importlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duores import cli, core, experiments, meanfield
from duores.core import (
    Measure,
    ModelParams,
    count_arrays,
    enumerate_states,
    index_of,
    mean_fill,
    num_states,
    ranks_of,
    tv_distance,
)
from duores.equilibrium import product_form, solve_equilibrium
from duores.meanfield import (
    drift,
    integrate,
    integrate_at,
    stationarity_residual,
)


def _oracle_drift(v: np.ndarray, p: ModelParams) -> np.ndarray:
    """Drift of the raw vector ``v`` recomputed state by state with a
    dictionary."""
    K = p.K
    states = enumerate_states(K)
    pV = sum(v[r] for r, s in enumerate(states) if s.y > 0)
    pF = sum(v[r] for r, s in enumerate(states) if s.total < K)
    out = np.zeros(num_states(K))
    for r, (w, x, y, z) in enumerate(states):
        moves = []
        if w + x + y + z < K:
            moves.append(((w + 1, x, y, z), p.lam * pV))
        if w > 0:
            moves.append(((w - 1, x + 1, y, z), p.nu * w))
        if x > 0:
            moves.append(((w, x - 1, y + 1, z), p.mu * x))
        if y > 0:
            moves.append(((w, x, y - 1, z + 1), p.lam * pF))
        if z > 0:
            moves.append(((w, x, y, z - 1), p.nu * z))
        for dst, rate in moves:
            flow = v[r] * rate
            out[r] -= flow
            out[index_of(dst, K)] += flow
    return out


def _bincount_families(K: int) -> list:
    """Per-family ``(src, dst, weight)`` triples over ranks."""
    w, x, y, z = count_arrays(K)
    occ = w + x + y + z
    idx = np.arange(num_states(K))

    def fam(mask, dw, dx, dy, dz, weight):
        dst = ranks_of(w[mask] + dw, x[mask] + dx, y[mask] + dy, z[mask] + dz, K)
        return idx[mask], dst, np.asarray(weight[mask], dtype=np.float64)

    ones = np.ones(len(idx))
    return [
        fam(occ < K, +1, 0, 0, 0, ones),
        fam(w > 0, -1, +1, 0, 0, w.astype(np.float64)),
        fam(x > 0, 0, -1, +1, 0, x.astype(np.float64)),
        fam(y > 0, 0, 0, -1, +1, ones),
        fam(z > 0, 0, 0, 0, -1, z.astype(np.float64)),
    ]


def _bincount_drift(v: np.ndarray, p: ModelParams, families: list) -> np.ndarray:
    """Drift as one weighted scatter in and one out per family."""
    w, x, y, z = count_arrays(p.K)
    p_avail = float(v @ (y > 0))
    p_free = float(v @ (w + x + y + z < p.K))
    coeffs = (p.lam * p_avail, p.nu, p.mu, p.lam * p_free, p.nu)
    n = len(v)
    out = np.zeros(n)
    for coeff, (src, dst, wgt) in zip(coeffs, families):
        flux = coeff * wgt * v[src]
        out += np.bincount(dst, weights=flux, minlength=n)
        out -= np.bincount(src, weights=flux, minlength=n)
    return out


def _random_measure(K, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_states(K)))
    return Measure(p / p.sum(), K)


# (nu, mu): the reference rates, then nu/mu = 1e-3 and 1e3
_RATES = [(2.1, 0.7), (1e-3, 1.0), (1e3, 1.0)]


def _rate_cases(capacities):
    """``(K, nu, mu)`` cases; those at the reference rates are named by K."""
    return [pytest.param(K, nu, mu,
                         id=str(K) if (nu, mu) == _RATES[0] else f"{K}-nu/mu={nu / mu:g}")
            for nu, mu in _RATES for K in capacities]


@pytest.mark.parametrize("K,nu,mu", _rate_cases([1, 2, 3, 6, 10]))
def test_drift_matches_dictionary_oracle(K, nu, mu):
    p = ModelParams(lam=1.3, mu=mu, nu=nu, K=K)
    for seed in range(5):
        m = _random_measure(K, 500 + 10 * K + seed)
        d = drift(m, p)
        ref = _oracle_drift(m.probs, p)
        # absolute 1e-13 at the reference rates, relative beyond them
        scale = max(1.0, nu / 2.1, mu / 0.7)
        assert np.max(np.abs(d - ref)) < 1e-13 * scale


@pytest.mark.parametrize("K,nu,mu", _rate_cases([1, 3, 6]))
def test_drift_of_off_simplex_vectors_matches_oracle(K, nu, mu):
    # Runge-Kutta stages leave the simplex by roundoff: entries slightly
    # below zero and a total slightly off one
    p = ModelParams(lam=1.3, mu=mu, nu=nu, K=K)
    st = meanfield._stencils(K)
    rng = np.random.default_rng(900 + K)
    for seed in range(3):
        v = _random_measure(K, 910 + 10 * K + seed).probs.copy()
        v[rng.choice(len(v), size=max(1, len(v) // 4), replace=False)] = -1e-13
        v *= 1.0 + 1e-12
        assert v.min() == -1e-13 * (1.0 + 1e-12)
        got = meanfield._drift_raw(v, st, meanfield._workspace(st, p), np.empty(st.n))
        scale = max(1.0, nu / 2.1, mu / 0.7)
        assert np.max(np.abs(got - _oracle_drift(v, p))) < 1e-13 * scale


@pytest.mark.parametrize("K", [15, 20])
def test_drift_matches_bincount_oracle_at_large_capacity(K):
    families = _bincount_families(K)
    st = meanfield._stencils(K)
    out = np.empty(st.n)
    for nu, mu in _RATES:
        p = ModelParams(lam=1.3, mu=mu, nu=nu, K=K)
        ws = meanfield._workspace(st, p)
        for seed in range(3):
            v = _random_measure(K, 950 + K + seed).probs
            ref = _bincount_drift(v, p, families)
            got = meanfield._drift_raw(v, st, ws, out)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _five_row_drift(v: np.ndarray, p: ModelParams) -> np.ndarray:
    """The drift kernel that gathers all five families, family 4 included,
    into one aligned ``(5, n)`` buffer: the form the slice replaced, kept
    as the oracle of its bits."""
    st = meanfield._stencils(p.K)
    buf = meanfield._aligned((5, st.n))
    gather = meanfield._aligned((5, st.n), np.intp, fill=st.gather)
    loss, out = meanfield._aligned(st.n), meanfield._aligned(st.n)
    c = np.array((p.lam * float(v @ st.avail_f), p.nu, p.mu,
                  p.lam * float(v @ st.notfull_f), p.nu))
    v.take(gather, out=buf, mode="clip")
    buf *= st.w_in
    np.matmul(c, buf, out=out)
    np.matmul(c, st.w_out, out=loss)
    loss *= v
    out -= loss
    return out


@pytest.mark.parametrize("K,nu,mu", _rate_cases([1, 2, 3, 6, 15, 20]))
def test_drift_is_bit_equal_to_the_five_row_gather(K, nu, mu):
    # family 4 read by slice gives the same products in the same sum
    p = ModelParams(lam=1.3, mu=mu, nu=nu, K=K)
    st = meanfield._stencils(K)
    ws, out = meanfield._workspace(st, p), meanfield._aligned(st.n)
    rng = np.random.default_rng(1700 + K)
    for seed in range(3):
        v = _random_measure(K, 1710 + 10 * K + seed).probs
        off = v.copy()  # off the simplex, as inside Runge-Kutta stages
        off[rng.choice(len(v), size=max(1, len(v) // 4), replace=False)] = -1e-13
        off *= 1.0 + 1e-12
        for u in (v, off):
            assert np.array_equal(meanfield._drift_raw(u, st, ws, out), _five_row_drift(u, p))


@pytest.mark.parametrize("K", [1, 2, 3, 6, 15, 20])
def test_family_4_moves_each_state_into_the_rank_before_it(K):
    # z -> z - 1 always lands on the previous rank, so the drift reads its
    # inflow as v[1:]; the last rank has no family-4 source
    w, x, y, z = count_arrays(K)
    src = np.flatnonzero(z > 0)
    dst = ranks_of(w[src], x[src], y[src], z[src] - 1, K)
    assert np.array_equal(dst, src - 1)
    st = meanfield._stencils(K)
    assert np.array_equal(st.gather[4, dst], dst + 1)
    has_source = np.zeros(st.n, dtype=bool)
    has_source[dst] = True
    assert not has_source[-1]
    assert not st.w_in[4, ~has_source].any()


def test_trajectory_matches_bincount_oracle_at_K15():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    dt = 0.25 / p.rate_bound
    families = _bincount_families(p.K)
    traj = integrate(Measure.uniform(p.K), p, T=5.0, dt=dt)
    assert len(traj) == 921  # 920 whole steps, no shortened one
    v = Measure.uniform(p.K).probs
    worst = 0.0
    for _, m in traj[1:]:
        k1 = _bincount_drift(v, p, families)
        k2 = _bincount_drift(v + 0.5 * dt * k1, p, families)
        k3 = _bincount_drift(v + 0.5 * dt * k2, p, families)
        k4 = _bincount_drift(v + dt * k3, p, families)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        worst = max(worst, float(np.max(np.abs(m.probs - np.clip(v, 0.0, None)))))
    assert worst <= 1e-14


def _textbook_rk4(v, p, plan):
    """The integrator's states recomputed with fresh arrays in the
    textbook expression form, over the same ``(t, steps, h)`` plan."""
    st = meanfield._stencils(p.K)

    def f(u):
        return meanfield._drift_raw(u, st, meanfield._workspace(st, p), np.empty(st.n))

    out = []
    for t, steps, h in plan:
        for _ in range(steps):
            k1 = f(v)
            k2 = f(v + 0.5 * h * k1)
            k3 = f(v + 0.5 * h * k2)
            k4 = f(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append((t, np.clip(v, 0.0, None)))
    return out


@pytest.mark.parametrize("K", [3, 15])
def test_integrate_is_bit_equal_to_the_textbook_form(K):
    p = ModelParams(lam=1.3, mu=0.7, nu=2.1, K=K)
    dt = 0.25 / p.rate_bound
    T = 40.5 * dt  # 40 whole steps and a shortened last one
    m0 = _random_measure(K, 1000 + K)
    plan = [((k + 1) * dt, 1, dt) for k in range(40)] + [(T, 1, T - 40 * dt)]
    traj = integrate(m0, p, T=T, dt=dt)
    assert len(traj) == 42
    for (t, m), (s, ref) in zip(traj[1:], _textbook_rk4(m0.probs, p, plan)):
        assert t == s
        assert np.array_equal(m.probs, ref)


@pytest.mark.parametrize("K", [3, 15])
def test_integrate_at_is_bit_equal_to_the_textbook_form(K):
    p = ModelParams(lam=1.3, mu=0.7, nu=2.1, K=K)
    dt_max = 0.25 / p.rate_bound
    times = [0.0, 0.3, 0.3, 0.7, 1.0]
    m0 = _random_measure(K, 1100 + K)
    plan, prev = [], 0.0
    for t in times:
        n = max(1, math.ceil((t - prev) / dt_max - 1e-12)) if t > prev else 0
        plan.append((t, n, (t - prev) / n if n else 0.0))
        prev = t
    outs = integrate_at(m0, p, times, dt_max=dt_max)
    assert len(outs) == len(times)
    for m, (_, ref) in zip(outs, _textbook_rk4(m0.probs, p, plan)):
        assert np.array_equal(m.probs, ref)


def test_a_state_just_below_zero_is_clamped_in_a_new_vector_and_stepped_unclamped(monkeypatch):
    # the 2nd state gets one mass at -1e-13, inside the tolerance: its Measure
    # reads 0 there, and the 3rd state is the textbook step from the unclamped one
    rk4 = meanfield._rk4
    seen = []

    def nudged(v, *args):
        def states():
            for i, (t, u) in enumerate(rk4(v, *args), 1):
                if i == 2:  # before any Measure holds it; the sum stays 1
                    u[0] += u[7] + 1e-13
                    u[7] = -1e-13
                seen.append(u)
                yield t, u
        return states()

    monkeypatch.setattr(meanfield, "_rk4", nudged)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    dt = 0.25 / p.rate_bound
    m0 = _random_measure(p.K, 1400)
    plan, n = meanfield._grid_plan(p, 3 * dt, dt)
    traj = [(t, m) for t, (m,) in meanfield._flows_at([m0], p, plan, n)]
    assert seen[1][7] == -1e-13  # the run's own state stays unclamped
    assert traj[1][1].probs[7] == 0.0
    assert not np.shares_memory(traj[1][1].probs, seen[1])
    assert np.array_equal(np.delete(traj[1][1].probs, 7), np.delete(seen[1], 7))
    (_, after), = _textbook_rk4(seen[1], p, [(3 * dt, 1, dt)])
    assert np.array_equal(traj[2][1].probs, after)


def _recording_aligned(monkeypatch) -> list:
    """Every array ``meanfield._aligned`` makes from here on, in order."""
    arrays, aligned = [], meanfield._aligned

    def recorded(*args, **kwargs):
        arrays.append(aligned(*args, **kwargs))
        return arrays[-1]

    monkeypatch.setattr(meanfield, "_aligned", recorded)
    return arrays


def _bases(a: np.ndarray) -> list:
    """``a`` and every array it views, down to the one that owns the memory."""
    chain = [a]
    while chain[-1].base is not None:
        chain.append(chain[-1].base)
    return chain


def test_emitted_states_are_read_only_and_share_no_memory(monkeypatch):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    n = num_states(p.K)
    dt = 0.25 / p.rate_bound
    meanfield._stencils(p.K)  # cached before recording
    arrays = _recording_aligned(monkeypatch)
    traj = integrate(_random_measure(p.K, 1500), p, T=12 * dt, dt=dt)
    # the block of 12 kept states, rows padded to 40 masses (5 cache lines);
    # the workspace's buf, gather and loss; then k1 to k4, stage and the two
    # inner-state vectors
    assert [a.shape for a in arrays] == [(12, 40), (5, n), (4, n)] + [(n,)] * 8
    block, run = arrays[0], arrays[1:]
    for i, (_, m) in enumerate(traj):
        assert not m.probs.flags.writeable
        assert i == 0 or np.shares_memory(m.probs, block)
        assert not any(np.shares_memory(m.probs, a) for a in run)
        assert not any(np.shares_memory(m.probs, other.probs) for _, other in traj[:i])


@pytest.mark.parametrize("K", [1, 3, 15])
def test_every_array_of_a_step_starts_on_a_cache_line(K, monkeypatch):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    st = meanfield._stencils(K)
    ws = meanfield._workspace(st, p)
    arrays = _recording_aligned(monkeypatch)
    next(meanfield._rk4(Measure.uniform(K).probs, p, st, [(0.0, 0, 0.0)], None))
    # the run's workspace, then k1 to k4, stage and the two inner-state vectors
    assert len(arrays) == 3 + 7
    tables = [st.w_out, st.gather, st.w_in, st.avail_f, st.notfull_f, ws.buf, ws.gather,
              ws.loss, ws.head, ws.w_head]
    assert all(a.ctypes.data % 64 == 0 for a in tables + arrays)


@pytest.mark.parametrize("K", [1, 3, 15])
def test_kept_states_are_cache_aligned_rows_of_one_block_read_only_to_its_owner(K):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    dt = 0.25 / p.rate_bound
    m0 = _random_measure(K, 1550 + K)
    for outs in ([m for _, m in integrate(m0, p, T=9.5 * dt, dt=dt)[1:]],
                 integrate_at(m0, p, [0.0, 3 * dt, 3 * dt, 10 * dt], dt_max=dt)):
        owner = _bases(outs[0].probs)[-1]
        for i, m in enumerate(outs):
            assert m.probs.ctypes.data % 64 == 0
            assert not m.probs.flags.writeable
            chain = _bases(m.probs)
            assert chain[-1] is owner
            assert not any(a.flags.writeable for a in chain)
            assert not any(np.shares_memory(m.probs, other.probs) for other in outs[:i])
            with pytest.raises(ValueError):  # a view of a read-only owner stays read-only
                m.probs.setflags(write=True)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps", [1, 200], ids=["integrate step", "integrate_at segment"])
def test_a_kept_run_allocates_nothing_once_its_block_exists(steps):
    # an entry's last state goes into its row of the block, and the inner
    # states of a segment alternate between two workspace vectors
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    dt = 0.25 / p.rate_bound
    plan = [(dt, 1, dt), ((steps + 1) * dt, steps, dt)]
    run = meanfield._flows_at([_random_measure(p.K, 1210)], p, plan, len(plan), keep=True)
    next(run)  # allocates the block and the run's workspace
    assert _traced_peak(lambda: next(run)) <= 4096


def test_a_streamed_run_keeps_no_block_and_its_memory_does_not_grow(monkeypatch):
    # the attraction study's kind of run: 2000 single steps, each measure
    # dropped as the next arrives
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=6)
    n = num_states(p.K)
    dt = 0.25 / p.rate_bound
    m0 = _random_measure(p.K, 1230)
    meanfield._stencils(p.K)
    arrays = _recording_aligned(monkeypatch)

    def stream(steps):
        for _ in meanfield._flows_at([m0], p, *meanfield._grid_plan(p, steps * dt, dt)):
            pass

    short, long = _traced_peak(lambda: stream(20)), _traced_peak(lambda: stream(2000))
    assert all(a.shape in ((5, n), (4, n), (n,)) for a in arrays)  # no block
    assert long <= short + 4096


def test_an_integrator_step_allocates_only_its_state_and_measure():
    # a streamed run: the stages live in the run's workspace; a step
    # allocates the new state, and the emitted Measure adopts that vector
    # instead of copying it
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    st = meanfield._stencils(p.K)
    dt = 0.25 / p.rate_bound
    steps = meanfield._flows_at([_random_measure(p.K, 1200)], p,
                                [(dt, 1, dt), (2 * dt, 1, dt)], 2)
    next(steps)  # allocates the run's workspace
    # one n-vector plus the small objects around it, below a second
    assert _traced_peak(lambda: next(steps)) <= st.n * 8 + 4096


def test_a_negative_state_aborts_the_run_even_when_it_is_not_emitted(monkeypatch):
    # every=10 emits the 10th and 20th states; the 3rd is only checked
    rk4 = meanfield._rk4

    def corrupted(*args):
        for i, (t, v) in enumerate(rk4(*args), 1):
            if i == 3:
                v = v.copy()
                v[0] = -1e-9
            yield t, v

    monkeypatch.setattr(meanfield, "_rk4", corrupted)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    dt = 0.25 / p.rate_bound
    m0 = _random_measure(p.K, 1300)
    plan, n = meanfield._grid_plan(p, 20 * dt, dt)
    emitted = []
    with pytest.raises(RuntimeError, match=rf"mass -1e-09 at t={3 * dt}; the step is unstable"):
        emitted.extend(meanfield._flows_at([m0], p, plan, n, every=10))
    assert emitted == []


def test_cached_stencils_are_read_only():
    st = meanfield._stencils(3)
    for a in (st.avail_f, st.notfull_f, st.w_out, st.gather, st.w_in):
        with pytest.raises(ValueError):
            a[0] = 1


def test_drift_allocates_at_most_four_vectors():
    # a (5, n) temporary per call crosses glibc's mmap threshold at
    # K = 15 and faults in fresh pages on every evaluation; the result
    # and the outflow vector are 2n, while a buffered or read-only-index
    # take adds 5n and the unfused form c @ (w_in * v[gather]) 10n
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    st = meanfield._stencils(p.K)
    v = _random_measure(p.K, 990).probs
    ws = meanfield._workspace(st, p)
    out = np.empty(st.n)
    meanfield._drift_raw(v, st, ws, out)
    tracemalloc.start()
    try:
        meanfield._drift_raw(v, st, ws, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * st.n * 8


def test_drift_sums_to_zero():
    p = ModelParams(lam=2.0, mu=1.0, nu=3.0, K=3)
    for seed in range(10):
        m = _random_measure(3, 600 + seed)
        assert abs(float(drift(m, p).sum())) < 1e-12


def test_drift_vanishes_on_the_empty_network():
    # no cars anywhere: reservations cannot start, nothing moves
    p = ModelParams(lam=5.0, mu=1.0, nu=1.0, K=2)
    d = drift(Measure.point((0, 0, 0, 0), 2), p)
    assert stationarity_residual(Measure.point((0, 0, 0, 0), 2), p) == 0.0
    assert not d.any()
    traj = integrate(Measure.point((0, 0, 0, 0), 2), p, T=1.0, dt=0.05)
    assert tv_distance(traj[-1][1], traj[0][1]) == 0.0


def test_fill_rate_is_reservation_flux_difference():
    # d/dt E[fill] = nu * (E[w] - E[z]); cars are conserved in law when
    # ahead-reservations and reserved cars balance
    p = ModelParams(lam=1.0, mu=2.0, nu=3.0, K=3)
    w_counts = np.array([s.w for s in enumerate_states(3)], dtype=float)
    z_counts = np.array([s.z for s in enumerate_states(3)], dtype=float)
    _, x, y, z = count_arrays(3)
    for seed in range(5):
        m = _random_measure(3, 700 + seed)
        lhs = float((x + y + z) @ drift(m, p))
        rhs = p.nu * float((w_counts - z_counts) @ m.probs)
        assert abs(lhs - rhs) < 1e-12


def test_drift_vector_rejects_nonzero_sum(monkeypatch):
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    m = Measure.uniform(1)
    d = drift(m, p)
    assert d.dtype == np.float64 and not d.flags.writeable
    # a kernel that leaks mass must be caught, at the scaled tolerance
    kernel = meanfield._drift_raw

    def leaky(v, st, ws, out):
        out = kernel(v, st, ws, out)
        out[0] += 1e-3
        return out

    monkeypatch.setattr(meanfield, "_drift_raw", leaky)
    with pytest.raises(RuntimeError, match="sum to"):
        drift(m, p)


def test_fixed_point_is_stationary_for_the_flow():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    rep = solve_equilibrium(p, 1.5)
    pi = product_form(rep.rho, p.K)
    assert stationarity_residual(pi, p) < 1e-12


# ------------------------------------------------------------
# Integration
# ------------------------------------------------------------

def test_integrate_grid_and_endpoint():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    m0 = Measure.uniform(1)
    traj = integrate(m0, p, T=0.25, dt=0.1)
    assert [t for t, _ in traj] == [0.0, 0.1, 0.2, 0.25]
    assert traj[0][1] is m0
    traj0 = integrate(m0, p, T=0.0, dt=0.1)
    assert len(traj0) == 1 and traj0[0][0] == 0.0


def test_integrate_step_guard():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=10)  # exit-rate bound 12
    with pytest.raises(ValueError):
        integrate(Measure.uniform(10), p, T=1.0, dt=0.1)  # 1.2 > 1


_POSITIVITY_RATES = [(0.2, 1.0, 1.0), (1.0, 1.0, 10.0), (1.0, 10.0, 1.0), (5.0, 1.0, 2.0)]


@pytest.mark.parametrize("lam, mu, nu", _POSITIVITY_RATES)
def test_every_point_mass_keeps_every_mass_nonnegative_at_the_default_step(lam, mu, nu):
    # at the threshold 1 / q_max itself such starts reach -6.2e-6 at K = 6,
    # and the loop's -1e-12 check aborts the run (tools/layers.py positivity)
    for K in range(1, 7):
        p = ModelParams(lam=lam, mu=mu, nu=nu, K=K)
        st, n = meanfield._stencils(K), num_states(K)
        plan = list(meanfield._grid_plan(p, 1.0, meanfield._default_dt(p))[0])
        for _, V in meanfield._rk4(np.eye(n), p, st, plan, None):
            assert V.min() >= 0.0, (K, V.min())


@pytest.mark.parametrize("lam, mu, nu", [(1.0, 1.0, 2.0), (0.2, 1.0, 10.0), (5.0, 100.0, 0.01),
                                         (1e-3, 1e3, 1.0), (0.0, 1.0, 1.0)])
@pytest.mark.parametrize("K", [1, 3, 15, 200])
def test_the_guard_admits_the_positivity_threshold_and_nothing_above(lam, mu, nu, K):
    # the next double above 1 / q_max can round back to 1 in the product
    p = ModelParams(lam=lam, mu=mu, nu=nu, K=K)
    q_max = 2 * lam + max(nu, mu) * K
    assert meanfield._exit_bound(p) == q_max
    meanfield._grid_plan(p, 0.0, 1.0 / q_max)
    with pytest.raises(ValueError, match=r"^dt \* \(2 lam \+ max\(nu, mu\) K\) = "
                       r"1\.00000000000\d+ exceeds the positivity bound 1; shrink dt$"):
        meanfield._grid_plan(p, 0.0, (1.0 + 1e-12) / q_max)
    with pytest.raises(ValueError, match=r"^dt_max \* \(2 lam \+ max\(nu, mu\) K\) = \S+ "
                       r"exceeds the positivity bound 1; shrink dt_max$"):
        meanfield._times_plan(p, (1.0,), 2.0 / q_max)


def test_the_guard_accepts_every_step_the_earlier_guard_accepted():
    # dt (lam + nu K + mu K) <= 0.5 was the guard: 1 / q_max is never below
    # its largest step
    grid = 10.0 ** np.arange(-6.0, 6.5, 0.5)
    for lam in [0.0, *grid]:
        for nu in grid:
            for mu in grid:
                for K in (1, 2, 3, 7, 20, 150, 10_000):
                    p = ModelParams(lam=lam, mu=mu, nu=nu, K=K)
                    assert 1.0 / meanfield._exit_bound(p) >= 0.5 / p.rate_bound, p


def test_integrate_matches_exponential_relaxation():
    # lam = 0 with a single inbound car: the only active family is the
    # arrival of that car, a linear pure-death flow with explicit law
    mu = 1.7
    p = ModelParams(lam=0.0, mu=mu, nu=1.0, K=1)
    m0 = Measure.point((0, 1, 0, 0), 1)
    T = 1.0
    traj = integrate(m0, p, T=T, dt=0.01)
    final = traj[-1][1]
    expect = math.exp(-mu * T)
    assert abs(final[(0, 1, 0, 0)] - expect) < 1e-9
    assert abs(final[(0, 0, 1, 0)] - (1 - expect)) < 1e-9


def test_integrate_conserves_fill():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    m0 = Measure.uniform(2)
    traj = integrate(m0, p, T=5.0, dt=0.02)
    f0 = mean_fill(m0)
    assert max(abs(mean_fill(m) - f0) for _, m in traj) < 1e-12


def test_integrate_converges_at_fourth_order():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=1)
    m0 = Measure.uniform(1)
    T = 0.5
    ref = integrate(m0, p, T=T, dt=0.003125)[-1][1].probs
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        errs.append(np.max(np.abs(integrate(m0, p, T=T, dt=dt)[-1][1].probs - ref)))
    order = np.polyfit(np.log([0.05, 0.025, 0.0125]), np.log(errs), 1)[0]
    assert order > 3.5


def test_integrate_at_agrees_with_integrate():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    m0 = _random_measure(2, 800)
    traj = dict(integrate(m0, p, T=1.0, dt=0.05))
    outs = integrate_at(m0, p, [0.3, 0.7, 1.0], dt_max=0.05)
    for t, m in zip([0.3, 0.7, 1.0], outs):
        grid_m = traj[min(traj, key=lambda s: abs(s - t))]
        assert np.max(np.abs(m.probs - grid_m.probs)) < 1e-12


def test_integrators_refuse_a_measure_of_another_capacity():
    # at K = 80 each plan below breaks the kept-state or the step budget, and
    # that refusal came first: a 14.9 GB block, not the capacity, was named
    p, big = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=2), ModelParams(1.0, 1.0, 2.0, K=80)
    dt = 0.25 / big.rate_bound
    cases = [(p, 1, lambda m, q: integrate(m, q, T=0.1, dt=0.01)),
             (p, 1, lambda m, q: integrate_at(m, q, [0.1], dt_max=0.01)),
             (big, 3, lambda m, q: integrate(m, q, T=1.0, dt=dt)),
             (big, 3, lambda m, q: integrate(m, q, T=1e4, dt=dt)),
             (big, 3, lambda m, q: integrate_at(m, q, [k / 1999 for k in range(1, 2000)], dt)),
             (big, 3, lambda m, q: integrate_at(m, q, [1e4], dt))]
    for q, K, call in cases:
        with pytest.raises(ValueError, match=rf"^measure capacity {K} != model capacity {q.K}$"):
            call(Measure.uniform(K), q)


def test_integrate_at_validates_order():
    p = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
    with pytest.raises(ValueError):
        integrate_at(Measure.uniform(1), p, [0.5, 0.2], dt_max=0.1)


_P1 = ModelParams(lam=1.0, mu=1.0, nu=1.0, K=1)
_INF = float("inf")
_NAN = float("nan")


@pytest.mark.parametrize("T,dt,match", [
    (_NAN, 0.1, r"T must be finite and >= 0, got nan"),
    (_INF, 0.1, r"T must be finite and >= 0, got inf"),
    (1.0, _NAN, r"dt must be finite and > 0, got nan"),
    (1.0, _INF, r"dt must be finite and > 0, got inf"),
])
def test_integrate_rejects_non_finite_inputs(T, dt, match):
    with pytest.raises(ValueError, match=match):
        integrate(Measure.uniform(1), _P1, T=T, dt=dt)


@pytest.mark.parametrize("times,dt_max,match", [
    ([_NAN], 0.1, r"times\[0\] must be finite and >= 0, got nan"),
    ([0.5, _INF], 0.1, r"times\[1\] must be finite and >= 0, got inf"),
    ([-0.5, 0.2], 0.1, r"times\[0\] must be finite and >= 0, got -0.5"),
    ([0.5], _NAN, r"dt_max must be finite and > 0, got nan"),
    ([0.5], _INF, r"dt_max must be finite and > 0, got inf"),
])
def test_integrate_at_rejects_non_finite_inputs(times, dt_max, match):
    with pytest.raises(ValueError, match=match):
        integrate_at(Measure.uniform(1), _P1, times, dt_max=dt_max)


def test_step_rules_match_the_benchmark_step_counts(monkeypatch):
    # the benchmark derives its step counts from these rules
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    calls = [0]
    kernel = meanfield._drift_raw

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(meanfield, "_drift_raw", counted)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    m0 = Measure.uniform(p.K)
    flow_dt = 0.25 / p.rate_bound
    # (T, dt, steps, last output time): 0.47 / 0.01 = 46.99999999999999,
    # so the 1e-9 slack takes 47 whole steps and ends on 47 * 0.01, not on
    # T; a remainder of 1e-12 takes no extra step; 0.255 ends on a short one
    cases = [(0.0, 0.01, 0, 0.0), (0.47, 0.01, 47, 47 * 0.01),
             (0.25 + 1e-12, 0.01, 25, 25 * 0.01), (0.255, 0.01, 26, 0.255),
             (5.0, flow_dt, 200, 200 * flow_dt)]
    for T, dt, steps, t_last in cases:
        calls[0] = 0
        traj = integrate(m0, p, T=T, dt=dt)
        assert workloads.rk4_steps_integrate(T, dt) == steps
        assert calls[0] == 4 * steps
        assert len(traj) == steps + 1 and traj[-1][0] == t_last
    cases = [([0.0, 0.3, 0.3, 0.7, 1.0], 20), ([0.04], 1), ([0.0], 0), ([], 0),
             ([0.1, 0.25, 2.0, 2.0001], 41)]
    for times, steps in cases:
        calls[0] = 0
        outs = integrate_at(m0, p, times, dt_max=0.05)
        assert workloads.rk4_steps_at(times, 0.05) == steps
        assert calls[0] == 4 * steps
        assert len(outs) == len(times)


_NEAR = ModelParams(lam=1e307, mu=1e307, nu=1e307, K=3)  # rate bound 7e307: a subnormal step


def test_a_plan_above_the_step_budget_is_refused_by_name_before_any_step(monkeypatch):
    # T / dt = 1e302 and 1 / 3.6e-309 = inf ended in an OverflowError when
    # the step count was cast to an int
    monkeypatch.setattr(meanfield, "_rk4", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=r"^T / dt = 1e\+300 / 0\.01 asks for 1e\+302 steps, "
                       r"above the step budget MAX_STEPS=1000000$"):
        integrate(Measure.uniform(2), ModelParams(1.0, 1.0, 2.0, K=2), T=1e300, dt=0.01)
    dt_max = 0.25 / _NEAR.rate_bound
    assert 0.0 < dt_max < 2.3e-308
    with pytest.raises(ValueError, match=rf"^times / dt_max = 1\.0 / {dt_max!r} asks for inf "
                       r"steps, above the step budget MAX_STEPS=1000000$"):
        integrate_at(Measure.uniform(3), _NEAR, [1.0], dt_max)


def test_the_step_budget_counts_the_horizon_over_the_step(monkeypatch):
    monkeypatch.setattr(meanfield, "MAX_STEPS", 10)
    p, m0 = ModelParams(1.0, 1.0, 1.0, K=1), Measure.uniform(1)
    assert len(integrate(m0, p, T=0.1, dt=0.01)) == 11
    assert len(integrate_at(m0, p, [0.05, 0.1], dt_max=0.01)) == 2
    with pytest.raises(ValueError, match=r"^T / dt = 0\.11 / 0\.01 asks for 11 steps"):
        integrate(m0, p, T=0.11, dt=0.01)
    with pytest.raises(ValueError, match=r"^times / dt_max = 0\.11 / 0\.01 asks for 11 steps"):
        integrate_at(m0, p, [0.05, 0.11], dt_max=0.01)


def test_a_kept_block_above_the_budget_is_refused_by_name_before_any_allocation(monkeypatch):
    # 625 000 steps are within MAX_STEPS, and integrate asked for its whole
    # 49.5 GiB block up front: an unnamed MemoryError.  100 000 times passed
    # integrate_at's budget as 125 steps, then asked for 7.9 GiB.
    for name in ("_rk4", "_aligned_rows"):
        monkeypatch.setattr(meanfield, name, lambda *a: pytest.fail("a step or a block came first"))
    p, m0 = ModelParams(1.0, 1.0, 2.0, K=20), Measure.uniform(20)
    with pytest.raises(ValueError, match=r"^T / dt = 5000 / 0\.008 keeps 625000 states of 10626 "
                       r"masses, 53160000000 bytes, above the kept-state budget "
                       r"MAX_KEPT_BYTES=1073741824$"):
        integrate(m0, p, T=5000, dt=0.008)
    with pytest.raises(ValueError, match=r"^times / dt_max = 1\.0 / 0\.008 keeps 100000 states of "
                       r"10626 masses, 8505600000 bytes, above the kept-state budget "
                       r"MAX_KEPT_BYTES=1073741824$"):
        integrate_at(m0, p, [k / 100_000 for k in range(1, 100_001)], dt_max=0.008)


def test_the_kept_budget_counts_rows_padded_to_cache_lines(monkeypatch):
    # K = 1 has 5 states, a row of 8 masses: 10 kept states take 640 bytes
    p, m0 = ModelParams(1.0, 1.0, 1.0, K=1), Measure.uniform(1)
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 640)
    assert len(integrate(m0, p, T=0.1, dt=0.01)) == 11
    assert len(integrate_at(m0, p, [0.01 * k for k in range(1, 11)], dt_max=0.01)) == 10
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 639)
    with pytest.raises(ValueError, match=r"^T / dt = 0\.1 / 0\.01 keeps 10 states of 5 masses, "
                       r"640 bytes, above the kept-state budget MAX_KEPT_BYTES=639$"):
        integrate(m0, p, T=0.1, dt=0.01)
    with pytest.raises(ValueError, match=r"^times / dt_max = 0\.1 / 0\.01 keeps 10 states"):
        integrate_at(m0, p, [0.01 * k for k in range(1, 11)], dt_max=0.01)


def test_integrate_at_counts_the_steps_its_segments_take(monkeypatch):
    # the budget read times[-1] / dt_max: 11 one-step segments passed as 1.1 steps
    monkeypatch.setattr(meanfield, "MAX_STEPS", 10)
    monkeypatch.setattr(meanfield, "_rk4", lambda *a: pytest.fail("a step ran"))
    p, m0 = ModelParams(1.0, 1.0, 1.0, K=1), Measure.uniform(1)
    times = [0.001 * k for k in range(1, 12)]
    with pytest.raises(ValueError, match=r"^times / dt_max = 0\.011 / 0\.01 asks for 11 steps, "
                       r"above the step budget MAX_STEPS=10$"):
        integrate_at(m0, p, times, dt_max=0.01)
    monkeypatch.undo()
    monkeypatch.setattr(meanfield, "MAX_STEPS", 10)
    assert len(integrate_at(m0, p, times[:10], dt_max=0.01)) == 10


# ------------------------------------------------------------
# The block run of a replica study's flows
# ------------------------------------------------------------

def _block_flows(K, B, seed):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    dt = 0.25 / p.rate_bound
    times = (0.0, 3 * dt, 0.5, 1.0)
    starts = [_random_measure(K, seed + b) for b in range(B)]
    plan = meanfield._times_plan(p, times, dt)
    run = meanfield._flows_at(starts, p, plan, len(plan), keep=True)
    flows = [list(flow) for flow in zip(*(ms for _, ms in run))]
    return flows, [integrate_at(m0, p, times, dt) for m0 in starts]


@pytest.mark.parametrize("B", [2, 3])
@pytest.mark.parametrize("K", [2, 3, 6])
def test_each_flow_of_a_block_run_matches_integrate_at_of_its_start(K, B):
    # one group steps every row: its sums are contracted in another order
    # than a single run's, so a mass may differ in its last bits
    assert meanfield._GROUP_MASSES // num_states(K) >= B
    flows, singles = _block_flows(K, B, 1700 + 10 * K)
    for i, (flow, ref) in enumerate(zip(flows, singles)):
        assert len(flow) == len(ref) == 4
        for m, r in zip(flow, ref):
            assert np.abs(m.probs - r.probs).max() <= 1e-15
            assert not m.probs.flags.writeable and m.probs.ctypes.data % 64 == 0
            assert not any(np.shares_memory(m.probs, o.probs) for other in flows[:i]
                           for o in other)


@pytest.mark.parametrize("K, B, G", [(15, 2, 1), (10, 5, 4)],
                         ids=["groups of one", "a last group of one"])
def test_a_group_of_one_row_is_integrate_at_bit_for_bit(K, B, G, monkeypatch):
    # with groups of G rows: at K = 15 each row steps alone; at K = 10 four
    # rows step together and the fifth alone
    monkeypatch.setattr(meanfield, "_GROUP_MASSES", G * num_states(K))
    flows, singles = _block_flows(K, B, 1800 + K)
    for b in range(B):
        bits = [np.array_equal(m.probs, r.probs) for m, r in zip(flows[b], singles[b])]
        assert all(bits) if G == 1 or b == B - 1 else not all(bits[1:])


def test_an_unstable_row_of_a_block_aborts_the_run():
    # a step past the stability guard, which _times_plan would refuse,
    # taken from three starts in one group
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    starts = [_random_measure(p.K, 1900), Measure.point((0, 0, 3, 0), 3), Measure.uniform(3)]
    with pytest.raises(RuntimeError, match=r"^integration produced mass -\d\S* at t=0\.4; "
                       r"the step is unstable$"):
        list(meanfield._flows_at(starts, p, [(0.4, 1, 0.4)], 1, keep=True))


# ------------------------------------------------------------
# One loop for every flow
# ------------------------------------------------------------

def test_every_flow_steps_through_the_one_emitting_loop(tmp_path, monkeypatch):
    # the kept and streamed runs looped over _rk4 in _stream, the replica
    # study's block run in _flows_at
    rk4, callers = meanfield._rk4, {}

    def spied(*args):
        callers.setdefault(entry, set()).add(sys._getframe(1).f_code.co_name)
        return rk4(*args)

    monkeypatch.setattr(meanfield, "_rk4", spied)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"lam": 1.0, "mu": 1.0, "nu": 2.0, "K": 2},
                               "meanfield": {"T": 0.1, "dt": 0.05, "output_every": 2},
                               "output_dir": str(tmp_path / "out")}))
    entries = {
        "integrate": lambda: integrate(Measure.uniform(2), p, T=0.1, dt=0.05),
        "integrate_at": lambda: integrate_at(Measure.uniform(2), p, [0.05, 0.1], dt_max=0.05),
        "duores meanfield": lambda: cli.main(["meanfield", str(cfg)]),
        "attraction_experiment": lambda: experiments.attraction_experiment(p, 0.1, 0.1, s=1.0),
        "convergence_experiment": lambda: experiments.convergence_experiment(
            p, [4, 8], 1, 0.1, (0.1,), 5, s=1.0),
    }
    for entry, call in entries.items():
        call()
    assert callers == dict.fromkeys(entries, {"_flows_at"})
