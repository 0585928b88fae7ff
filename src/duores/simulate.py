"""Event-driven simulation of the closed finite network.

``N`` stations with ``K`` spaces each share ``M`` cars.  A reservation
request arrives at each station at rate ``lam`` and draws a uniform
destination (possibly the origin).  The request succeeds only if the
origin has an available car and the destination has a free space; it
then reserves both at once: origin ``y -> z``, destination ``w += 1``.
Each pending reservation is picked up at rate ``nu`` (origin ``z -= 1``,
destination ``w -> x``), and each driving car parks at rate ``mu``
(destination ``x -> y``).

Event times are exponential races simulated by inversion.  Every event
consumes exactly four uniform draws from the generator, in a fixed
order, whether or not each draw ends up used:

1. holding time,
2. event class (arrival vs pickup vs return),
3. origin station (used by arrivals only),
4. destination station, or the index into the pending-pickup or
   driving list.

Keeping the draw count fixed makes trajectories reproducible byte for
byte across refactorings of the branch logic.  ``run`` takes its draws
from the generator in blocks of many events, which leaves the stream
and the per-event draw order unchanged (``k`` calls of
``rng.random(4)`` yield exactly ``rng.random(4 * k)``): for a fixed seed
its trajectories are byte-identical to those of a ``step`` loop.

One loop, ``_advance``, holds the transition rules for both ``step``
and ``run``: it fires a block of draw rows, with no Python call per
event on a plain run.  ``run`` feeds it each block it draws, and
``step`` feeds it a single row.  A block's arrival stations come from
one numpy expression, ``min(int(u * N), N - 1)`` over the third and
fourth columns; that is exact, since ``u * N`` is the same IEEE double
product as Python's and the cast truncates toward zero as ``int()``
does.  ``step`` takes its one row's stations by the same rule in
scalars, where numpy's per-call cost would outweigh the work.  The
holding time ``-log1p(-u0) / rate`` stays a per-event ``math.log1p``:
numpy's ``log1p`` differs from it in the last bit on some inputs, which
would change every trajectory.

``run`` keeps the counts in Python lists, where an event costs a few
list operations.  Whatever reads the whole state copies the four lists
into one ``(4, N)`` array first, in C where every count fits a byte:
each snapshot, and on an audited run each whole-state check.  An
audited run fires its events as a plain one does and runs the one
whole-state check, ``check_invariants``, at the end of every block of
draws (at most ``_MAX_BLOCK`` events) and, with the deep list
reconciliation, at every snapshot.  On a failure it restores the
block's start and replays the block one event at a time with the check
after each, so the error names the first event that breaks an
invariant and its time.  A violation undone within one block, between
two checks, is not seen.  A given ``initial`` gets the deep check
before any draw, audited or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, log1p

import numpy as np

from .core import (_NONNEG, _SEED, _SIZE0, _SIZE1, Measure, ModelParams, _budgeted_states,
                   _domain, _Rule, _times, _within, ranks_of)

__all__ = [
    "SimConfig",
    "SimState",
    "SimInvariantError",
    "init_uniform",
    "step",
    "run",
    "empirical_measure",
]


class SimInvariantError(RuntimeError):
    """A structural invariant of the simulated state was violated."""


@dataclass(frozen=True)
@_domain(N=_SIZE1, M=_SIZE0, T=_NONNEG, sample_times=_times(), seed=_SEED)
class SimConfig:
    """Run shape: network size, car count, horizon, snapshot times.

    ``N`` and ``M`` must be integers; integral floats are converted.
    ``seed`` must be entropy ``np.random.SeedSequence`` takes; it is kept
    as given."""

    N: int
    M: int
    T: float
    sample_times: tuple
    seed: int

    def __post_init__(self) -> None:
        _within(self.sample_times, self.T)


@dataclass
class SimState:
    """Mutable network state.

    Arrays hold per-station counts; ``pickups`` lists pending
    reservations as ``(origin, destination)`` pairs and ``driving``
    lists destinations of cars on the road.  List lengths are the
    event-rate multiplicities.
    """

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    pickups: list = field(default_factory=list)
    driving: list = field(default_factory=list)
    t: float = 0.0

    @property
    def N(self) -> int:
        return len(self.w)

    @property
    def car_total(self) -> int:
        return int(self.x.sum() + self.y.sum() + self.z.sum())

    def copy(self) -> "SimState":
        return SimState(
            self.w.copy(), self.x.copy(), self.y.copy(), self.z.copy(),
            list(self.pickups), list(self.driving), self.t,
        )

    def counts(self) -> np.ndarray:
        """Snapshot of per-station counts, shape ``(N, 4)``."""
        return np.stack([self.w, self.x, self.y, self.z], axis=1)

    def total_rate(self, p: ModelParams) -> float:
        return p.lam * self.N + p.nu * len(self.pickups) + p.mu * len(self.driving)

    def check_invariants(self, K: int, M: int, deep: bool = False) -> None:
        """Raise :class:`SimInvariantError` on any structural violation.

        The cheap checks (nonnegativity, capacity, car conservation,
        list lengths vs count sums) cover every station; an audited
        ``run`` makes them at the end of every block of events.
        ``deep=True`` additionally checks that every list entry is a
        station in ``[0, N)`` and reconciles the lists against the
        per-station counts.
        """
        arrs = (self.w, self.x, self.y, self.z)
        if min(int(a.min()) for a in arrs) < 0:
            raise SimInvariantError(f"negative count at t={self.t}")
        occ = self.w + self.x + self.y + self.z
        if int(occ.max()) > K:
            raise SimInvariantError(f"station over capacity at t={self.t}")
        if self.car_total != M:
            raise SimInvariantError(
                f"car total {self.car_total} != {M} at t={self.t}"
            )
        P = len(self.pickups)
        if P != int(self.z.sum()) or P != int(self.w.sum()):
            raise SimInvariantError(f"pending-pickup count mismatch at t={self.t}")
        if len(self.driving) != int(self.x.sum()):
            raise SimInvariantError(f"driving count mismatch at t={self.t}")
        if deep:
            N = self.N
            columns = []
            for name, entries, width, what in (("pickups", self.pickups, 2, "a pair of stations"),
                                               ("driving", self.driving, 1, "a station")):
                try:
                    a = np.asarray(entries).reshape(len(entries), width)
                    ok = not len(a) or (a.dtype.kind in "iu" and a.min() >= 0 and a.max() < N)
                except ValueError:  # ragged, or not ``width`` stations an entry
                    ok = False
                if not ok:
                    raise SimInvariantError(
                        f"{name} holds an entry that is not {what} in [0, {N}) at t={self.t}")
                columns.extend(a.astype(np.int64, copy=False).T)
            orig, dest, drv = (np.bincount(c, minlength=N) for c in columns)
            if not (np.array_equal(orig, self.z) and np.array_equal(dest, self.w)
                    and np.array_equal(drv, self.x)):
                raise SimInvariantError(f"list/count reconciliation failed at t={self.t}")


# Events drawn per generator call in ``run``: the first call draws for
# a few events, so short runs stay cheap, and each later one doubles up
# to the cap.
_FIRST_BLOCK, _MAX_BLOCK = 16, 1024


def _init_with_rng(N: int, M: int, K: int, rng: np.random.Generator) -> SimState:
    if M > N * K:
        raise ValueError(f"cannot place M={M} cars on N={N} stations of capacity K={K}")
    y = np.zeros(N, dtype=np.int64)
    eligible = list(range(N))
    for _ in range(M):
        slot = int(rng.integers(len(eligible)))
        i = eligible[slot]
        y[i] += 1
        if y[i] == K:
            eligible[slot] = eligible[-1]
            eligible.pop()
    zeros = np.zeros(N, dtype=np.int64)
    return SimState(zeros.copy(), zeros.copy(), y, zeros.copy())


@_domain(N=_SIZE1, M=_SIZE0, K=_SIZE1, seed=_SEED)
def init_uniform(N: int, M: int, K: int, seed: int) -> SimState:
    """Place ``M`` available cars one at a time, uniformly among the
    stations still below capacity.  No reservations are pending."""
    return _init_with_rng(N, M, K, np.random.default_rng(seed))


def _stations(u: np.ndarray, N: int) -> np.ndarray:
    """Stations ``min(int(v * N), N - 1)`` for the draws ``v`` of ``u``.

    Exactly the scalar rule: ``u * N`` is the same IEEE double product
    as Python's ``v * N``, and the cast truncates toward zero as
    ``int()`` does.  The clamp guards a product that rounds up to ``N``.
    """
    return np.minimum((u * N).astype(np.int64), N - 1)


def _advance(w, x, y, z, pickups, driving, K, lam_N, nu, mu, t, rows, t_next=inf, take=None):
    """Fire the events of ``rows`` in order: the one copy of the
    transition rules, for both ``step`` and ``run``.

    ``w, x, y, z`` are the counts (lists or arrays) and ``pickups``,
    ``driving`` the lists, all changed in place.  Each row is
    ``(u0, u1, i, j, u3)``: the holding-time and event-class draws, the
    arrival's origin and destination stations (the third and fourth
    draws through :func:`_stations`), and the fourth draw again, which
    picks a pending pickup or a driving car.

    Before an event past the sample time ``t_next`` fires,
    ``take(t_next)`` records the state and returns the next sample time,
    or ``None`` after the last one, which ends the advance before that
    event fires.  A network with no active transition never fires
    again: its next event lies at infinity.

    Returns ``(t, t_next, tag, dt)``: the time and tag of the last event
    fired, the next sample time (``None`` once all are taken) and the
    last holding time computed.  ``t + dt`` is the same double as
    ``t - log1p(-u0) / rate``.
    """
    P, D = len(pickups), len(driving)
    tag = dt = None
    for u0, u1, i, j, u3 in rows:
        rate = lam_N + nu * P + mu * D
        if rate > 0.0:
            dt = -log1p(-u0) / rate
            t_event = t + dt
        else:
            t_event = inf
        while t_next < t_event:
            t_next = take(t_next)
            if t_next is None:
                return t, None, tag, dt
        t = t_event
        r = u1 * rate
        if r < lam_N:
            if y[i] > 0 and w[j] + x[j] + y[j] + z[j] < K:
                y[i] -= 1
                z[i] += 1
                w[j] += 1
                pickups.append((i, j))
                P += 1
                tag = "arrival"
            else:
                tag = "blocked"
        elif r < lam_N + nu * P:
            # an index draw picks one of n items as int(u3 * n), clamped
            # to n - 1 as min() would, at a fraction of a min() call's cost
            k = int(u3 * P)
            if k >= P:
                k = P - 1
            i, j = pickups[k]
            pickups[k] = pickups[-1]
            pickups.pop()
            z[i] -= 1
            w[j] -= 1
            x[j] += 1
            driving.append(j)
            P -= 1
            D += 1
            tag = "pickup"
        else:
            k = int(u3 * D)
            if k >= D:
                k = D - 1
            i = j = driving[k]
            driving[k] = driving[-1]
            driving.pop()
            x[j] -= 1
            y[j] += 1
            D -= 1
            tag = "return"
    return t, t_next, tag, dt


def step(state: SimState, p: ModelParams, rng: np.random.Generator):
    """Advance by one event, mutating ``state`` in place.

    Returns ``(state, holding_time, tag)`` with ``tag`` one of
    ``"arrival"``, ``"blocked"``, ``"pickup"``, ``"return"``.  Blocked
    arrivals consume time and draws but change nothing.  Requires a
    total rate that is finite and positive (some transition active).
    """
    N = len(state.w)
    rate = state.total_rate(p)  # mu and nu are positive, lam nonnegative
    if not 0.0 < rate < inf:
        raise ValueError(f"the total rate lam N + nu P + mu D must be finite and > 0, got "
                         f"{rate!r} at lam={p.lam!r}, nu={p.nu!r}, mu={p.mu!r}, N={N}, "
                         f"P={len(state.pickups)}, D={len(state.driving)}")
    u0, u1, u2, u3 = rng.random(4).tolist()
    # the scalar form of _stations: one row does not pay numpy's overhead
    i = int(u2 * N)
    if i >= N:
        i = N - 1
    j = int(u3 * N)
    if j >= N:
        j = N - 1
    state.t, _, tag, dt = _advance(state.w, state.x, state.y, state.z, state.pickups,
                                   state.driving, p.K, p.lam * N, p.nu, p.mu, state.t,
                                   ((u0, u1, i, j, u3),))
    return state, dt, tag


def _count_array(counts: list, N: int) -> np.ndarray:
    """The four count lists ``w, x, y, z`` as one ``(4, N)`` array.

    ``bytearray`` copies each list in C, one byte per count; on CPython
    3.11 it takes about 0.6 of the time ``bytes`` takes for lists of 4000
    counts.  It raises ``ValueError`` on a count outside 0..255, as at
    ``K > 255`` or in a corrupt state, and the lists are then converted
    element by element.
    """
    try:
        return np.frombuffer(b"".join(map(bytearray, counts)), np.uint8).reshape(4, N)
    except ValueError:
        return np.array(counts)


def run(
    p: ModelParams,
    config: SimConfig,
    initial: SimState | None = None,
    audit: bool = False,
) -> list[tuple[float, np.ndarray]]:
    """Simulate on ``[0, T]`` and snapshot at the configured times.

    Returns ``(time, counts)`` pairs where ``counts`` is a C-contiguous
    int64 array of shape ``(N, 4)``.  Paths are right-continuous: a
    snapshot exactly at an event time sees the post-event state.  The
    generator is seeded from ``config.seed`` and used first for initial
    placement (skipped when ``initial`` is given), then for events.  A
    given ``initial`` must have ``N`` stations and pass
    ``check_invariants(deep=True)`` for ``K`` and ``M``, and the bound on
    the total rate, ``lam N + max(nu, mu) M``, must be finite; each is
    checked before any draw, audited or not: a ``ValueError`` names it.

    With ``audit=True`` the run checks the model's invariants: cars are
    conserved, no station holds more than ``K``, and the pending-pickup
    and driving lists match the counts.  It runs ``check_invariants`` on
    the whole state at the end of every block of at most ``_MAX_BLOCK``
    events, and ``check_invariants(deep=True)``, which also reconciles
    the lists against the per-station counts, at every snapshot.  When a
    check fails, the block is replayed from its start one event at a
    time with the check after each, and the error names the first event
    that fails and its time; if the replay does not fail, the first
    error is raised as it was.  A violation that is undone before the
    next check is not seen.  Audited and plain runs give byte-identical
    snapshots.
    """
    if not isfinite(p.lam * config.N + max(p.nu, p.mu) * config.M):
        raise ValueError(f"the rate bound lam N + max(nu, mu) M at lam={p.lam!r}, nu={p.nu!r}, "
                         f"mu={p.mu!r}, N={config.N}, M={config.M} is not finite")
    rng = np.random.default_rng(config.seed)
    if initial is None:
        state = _init_with_rng(config.N, config.M, p.K, rng)
    else:
        if initial.N != config.N:
            raise ValueError(f"initial has {initial.N} stations, config N={config.N}")
        state = initial.copy()
        state.t = 0.0
        try:
            state.check_invariants(p.K, config.M, deep=True)
        except SimInvariantError as e:
            raise ValueError(f"initial is not a consistent state: {e}") from None
    out: list[tuple[float, np.ndarray]] = []
    samples = config.sample_times
    if not samples:
        return out
    N, K, M, lam_N = config.N, p.K, config.M, p.lam * config.N
    counts = [a.tolist() for a in (state.w, state.x, state.y, state.z)]
    pickups, driving = state.pickups, state.driving

    def check(t: float, array: np.ndarray, deep: bool = False) -> None:
        state.t = t
        state.w, state.x, state.y, state.z = array.astype(np.int64)
        state.check_invariants(K, M, deep=deep)

    def take(tau: float) -> float | None:
        array = _count_array(counts, N)
        out.append((tau, array.T.astype(np.int64, order="C")))
        if audit:
            check(tau, array, deep=True)
        return samples[len(out)] if len(out) < len(samples) else None

    def advance(t: float, rows, t_next: float) -> tuple:
        return _advance(*counts, pickups, driving, K, lam_N, p.nu, p.mu, t, rows, t_next,
                        take)[:2]

    def replay(start: tuple, rows) -> None:
        """Restore a block's ``start`` and fire its ``rows`` one event at a
        time, checking the whole state after each."""
        lists, t, taken, t_next = start
        for c, saved in zip((*counts, pickups, driving), lists):
            c[:] = saved
        del out[taken:]
        for row in rows:
            t, t_next = advance(t, (row,), t_next)
            if t_next is None:
                return
            check(t, _count_array(counts, N))

    t, t_next, block = 0.0, samples[0], _FIRST_BLOCK
    while t_next is not None:
        # rows of four draws in stream order: one block equals that many
        # successive rng.random(4) calls
        u = rng.random((block, 4))
        u0, u1, _, u3 = u.T.tolist()
        i, j = _stations(u[:, 2:], N).T.tolist()
        if not audit:
            t, t_next = advance(t, zip(u0, u1, i, j, u3), t_next)
        else:
            start = ([c.copy() for c in (*counts, pickups, driving)], t, len(out), t_next)
            try:
                t, t_next = advance(t, zip(u0, u1, i, j, u3), t_next)
                if t_next is not None:  # else the last snapshot has just been checked
                    check(t, _count_array(counts, N))
            except SimInvariantError:
                replay(start, zip(u0, u1, i, j, u3))
                raise
        block = min(2 * block, _MAX_BLOCK)
    return out


def _rank_counts(counts: np.ndarray, K: int, n: int) -> np.ndarray:
    """Number of stations of a snapshot in each of the ``n`` state ranks."""
    ranks = ranks_of(counts[:, 0], counts[:, 1], counts[:, 2], counts[:, 3], K)
    return np.bincount(ranks, minlength=n)


def _snapshot(name: str, counts) -> np.ndarray:
    """``counts`` as an array of shape ``(N, 4)`` with ``N >= 1``; else a
    ValueError naming it."""
    try:
        counts = np.asarray(counts)
    except ValueError:  # ragged rows
        counts = np.empty(0)
    if counts.ndim != 2 or counts.shape[1] != 4 or not counts.shape[0]:
        raise ValueError(f"{name} must have shape (N, 4) with N >= 1, got {counts.shape}")
    return counts


@_domain(counts=_Rule(_snapshot, "an array of shape `(N, 4)`, `N >= 1`"), K=_SIZE0)
def empirical_measure(counts: np.ndarray, K: int) -> Measure:
    """Empirical station-state distribution of a snapshot."""
    return Measure(_rank_counts(counts, K, _budgeted_states(K)) / counts.shape[0], K)
