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

The initial placement draws before any event: each car takes one raw
32-bit word of the stream, accepted as ``Generator.integers`` accepts it
(a rejected word takes one more), and no word is drawn while one station
is eligible.  The words are drawn in chunks and the rule applied to each
in Python, which leaves the placement and the generator's state as one
``rng.integers(n)`` call per car among the ``n`` eligible stations would.

One loop, ``_advance``, holds the transition rules for both ``step``
and ``run``: it fires a block of draw rows, with no Python call per
event on a plain run.  ``run`` feeds it each block it draws, and
``step`` feeds it a single row.  ``run`` draws a block of ``b`` events
as a ``(b, 4)`` array and transposes it into one copy, so that each of
the four draws is a contiguous row of ``b``: the first, second and
fourth become lists by one ``tolist`` each, and the arrival stations
come from one numpy expression, ``min(int(u * N), N - 1)`` over the
third and fourth rows, clamped in place.  That is exact, since ``u *
N`` is the same IEEE double product as Python's and the cast truncates
toward zero as ``int()`` does, and the rows hold the same draws, bit
for bit.  ``step`` takes its one row's stations by the same rule in
scalars, where numpy's per-call cost would outweigh the work.  The
holding time ``-log1p(-u0) / rate`` stays a per-event ``math.log1p``:
numpy's ``log1p`` differs from it in the last bit on some inputs, which
would change every trajectory.

``run`` keeps the counts in Python lists, where an event costs a few
list operations, and reads a given ``initial`` into them.  Whatever
reads the whole state copies the four lists into one ``(4, N)`` array
first, in C where every count fits a byte: each snapshot, and on an
audited run the one whole-state check, ``_check_counts``, which
``SimState.check_invariants`` runs too.  An audited run fires its
events as a plain one does and runs the check at the end of every block
of draws (at most ``_MAX_BLOCK`` events) and, with the deep list
reconciliation, at every snapshot.  On a failure it restores the
block's start and replays the block one event at a time with the check
after each, so the error names the first event that breaks an
invariant and its time.  A violation undone within one block, between
two checks, is not seen.  A given ``initial`` gets the deep check
before any draw, audited or not, and so does the run's plan, through
the budget gate ``core._gate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, log1p
from operator import index

import numpy as np

from .core import (_NONNEG, _SEED, _SIZE0, _SIZE1, Measure, ModelParams, _budgeted_states,
                   _domain, _first_ranks, _gate, _Rule, _times, _within, ranks_of)

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
    """Mutable network state; ``run`` reads one and leaves it as it was.

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
        """:func:`_check_counts` of the four count arrays and the lists."""
        _check_counts(np.stack((self.w, self.x, self.y, self.z)), self.pickups, self.driving,
                      K, M, self.t, deep)


def _check_counts(c, pickups, driving, K, M, t, deep=False) -> None:
    """The one whole-state check of the counts ``w, x, y, z``, the rows of
    the ``(4, N)`` integer array ``c``, and of the lists, at time ``t``: a
    :class:`SimInvariantError` names the first violation, counts that are
    not integers (a float array, say) first.  The cheap checks
    (nonnegativity, capacity, car conservation, list lengths vs count
    sums) sum in int64, so a byte array needs no copy.  ``deep=True``
    also reads each list's stations into int64 columns, refusing an entry
    that is not an int (``operator.index``), a pickup that is not a pair
    or a station outside ``[0, N)``, and reconciles the columns' counts
    with ``c`` one at a time."""
    if c.dtype.kind not in "biu":
        raise SimInvariantError(f"counts of dtype {c.dtype} are not integers at t={t}")
    if c.min(initial=0) < 0:
        raise SimInvariantError(f"negative count at t={t}")
    if c.sum(axis=0, dtype=np.int64).max(initial=0) > K:
        raise SimInvariantError(f"station over capacity at t={t}")
    w, x, y, z = c.sum(axis=1, dtype=np.int64).tolist()
    if x + y + z != M:
        raise SimInvariantError(f"car total {x + y + z} != {M} at t={t}")
    P = len(pickups)
    if P != z or P != w:
        raise SimInvariantError(f"pending-pickup count mismatch at t={t}")
    if len(driving) != x:
        raise SimInvariantError(f"driving count mismatch at t={t}")
    if deep:
        N = c.shape[1]
        columns = []
        for name, what, n, entries in (
                ("pickups", "a pair of stations", P, (i for i, _ in pickups)),
                ("pickups", "a pair of stations", P, (j for _, j in pickups)),
                ("driving", "a station", len(driving), driving)):
            try:
                a = np.fromiter(map(index, entries), np.int64, n)
                ok = not n or (a.min() >= 0 and a.max() < N)
            except (TypeError, ValueError, OverflowError):  # not an int64, or not a pair
                ok = False
            if not ok:
                raise SimInvariantError(
                    f"{name} holds an entry that is not {what} in [0, {N}) at t={t}")
            columns.append(a)
        if not all(np.array_equal(np.bincount(a, minlength=N), c[row])
                   for a, row in zip(columns, (3, 0, 1))):
            raise SimInvariantError(f"list/count reconciliation failed at t={t}")


# Events drawn per generator call in ``run``: the first call draws for
# a few events, so short runs stay cheap, and each later one doubles up
# to the cap.
_FIRST_BLOCK, _MAX_BLOCK = 16, 1024


# Raw 32-bit words drawn per generator call in a placement.
_CHUNK = 1024

_STATION_BYTES = 112
"""Bytes a station takes while it is placed: its entries in the list of
eligible stations and in the list of counts, each a pointer and an int
object (8 + 32 bytes), and its four int64 counts (32 bytes)."""

_CHUNK_BYTES = 48 * _CHUNK
"""Bytes a chunk of raw words takes: each word as a uint32 and as an int
in a list (4 + 8 + 32 bytes), rounded up to cover the two headers."""

_COUNT_BYTES = 32
"""Bytes of a station's four counts as int64s, in a snapshot or a held
:class:`SimState`, or as slots in a run's four count lists (below ``K =
257``, where every count is a cached small int)."""

_CAR_BYTES, _BLOCK_BYTES, _SNAPSHOT_BYTES = 128, 2 * 208 * _MAX_BLOCK, 224
"""Bytes a run keeps beyond its placement, at most.  A car on the move: a
pending reservation is a tuple of its two stations (56), the two ints (32
each above the small-int cache) and a slot in the list of pickups (8); a
driving car takes a slot and an int.  The block of draws: per event its
four float64 draws (32), three as floats in lists (3 x 32) and its two
stations as ints in lists (2 x 40), twice, as a block is drawn while the
last is still held.  A snapshot besides its counts: the tuple of its time
and array (56), the time (24), the array's object with its shape and
strides (128) and a slot in the list of snapshots (16, as it grows)."""

_AUDIT_BYTES, _AUDIT_CAR_BYTES = 44, 24
"""Bytes an audited run takes beyond a plain one, at most.  A station: the
block-start copies of its four counts (32), the bytes of its counts a check
reads, which a plain run builds at snapshots only (4), and the int64
occupancy or one int64 count of a list column (8).  A car: a slot in the
copy of its list (8) and its stations in a deep check's int64 columns (16)."""


def _place(y, eligible, M: int, K: int, rng: np.random.Generator) -> None:
    """Add ``M`` cars to the counts ``y``, which hold 0 at every station
    of ``eligible``, each car at a station drawn uniformly from those
    still below ``K``; a station that reaches ``K`` leaves ``eligible``.
    Both are changed in place.

    Each car draws as ``rng.integers(n)`` draws among ``n < 2**32``
    eligible stations: a raw 32-bit word ``u`` gives ``m = u n``, which is
    rejected while ``m mod 2**32 < (2**32 - n) mod n``, and the slot is
    ``m >> 32`` (Lemire's multiply-shift).  No word is drawn while one
    station is eligible.  The words come in chunks of at most
    :data:`_CHUNK`, and a chunk holds no more words than the cars still
    certainly use: every car placed while two or more stations are
    eligible uses one at least, and the last eligible station can take at
    most ``K``, so ``min(left, free - K)`` cars use one, with ``left``
    cars still to place and ``free`` spaces free.  Every word of a chunk
    is thus used, and none is drawn that ``rng.integers`` would not draw."""
    n, left = len(eligible), M
    spare = n * K - M  # spaces still free once every car is placed
    while left:
        if n == 1:
            y[eligible[0]] += left
            return
        size = max(1, min(left, spare + left - K, _CHUNK))
        reject = (1 << 32) % n  # (2**32 - n) mod n
        for word in rng.integers(0, 1 << 32, size=size, dtype=np.uint32).tolist():
            m = word * n
            if m & 0xFFFFFFFF < reject:
                continue
            slot = m >> 32
            i = eligible[slot]
            c = y[i] + 1
            y[i] = c
            left -= 1
            if c == K:
                eligible[slot] = eligible[-1]
                eligible.pop()
                n -= 1
                reject = (1 << 32) % n


def _init_with_rng(N: int, M: int, K: int, rng: np.random.Generator) -> SimState:
    if M > N * K:
        raise ValueError(f"cannot place M={M} cars on N={N} stations of capacity K={K}")
    y = [0] * N
    _place(y, list(range(N)), M, K, rng)
    zeros = np.zeros(N, dtype=np.int64)
    return SimState(zeros.copy(), zeros.copy(), np.array(y, dtype=np.int64), zeros)


def _budgeted_counts(N: int, times: int = 0, M: int = 0, run: int = 0,
                     places: bool = True) -> tuple:
    """The kept bytes of ``N`` stations as a placement holds them and a
    chunk of its raw words (if it ``places`` them), and ``run`` bytes more
    of a run of ``M`` cars and ``times`` snapshots."""
    placed = _STATION_BYTES * N + _CHUNK_BYTES if places else 0
    return "MAX_KEPT_BYTES", placed + run, lambda: (
        f"N={N} stations{f', M={M} cars' if M else ''}"
        f"{f' and {times} sample_times' if times else ''} keep their counts")


@_domain(N=_SIZE1, M=_SIZE0, K=_SIZE1, seed=_SEED)
def init_uniform(N: int, M: int, K: int, seed: int) -> SimState:
    """Place ``M`` available cars one at a time, uniformly among the
    stations still below capacity.  No reservations are pending.

    Each car takes one raw 32-bit word of the generator's stream,
    accepted as ``Generator.integers`` accepts it (a rare rejected word
    takes one more), and none while one station is eligible, as one
    ``rng.integers(n)`` call per car among the ``n`` eligible stations.
    A placement holds 112 bytes a station and 48 kB of raw words; above
    the kept-state budget it is refused before any draw or
    allocation."""
    _gate(_budgeted_counts(N))
    return _init_with_rng(N, M, K, np.random.default_rng(seed))


def _stations(u: np.ndarray, N: int) -> np.ndarray:
    """Stations ``min(int(v * N), N - 1)`` for the draws ``v`` of ``u``.

    Exactly the scalar rule: ``u * N`` is the same IEEE double product
    as Python's ``v * N``, and the cast truncates toward zero as
    ``int()`` does.  The clamp guards a product that rounds up to ``N``;
    it is made in place, in the array of the cast.
    """
    s = (u * N).astype(np.int64)
    return np.minimum(s, N - 1, out=s)


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
    ``K > 255`` or in a corrupt state, and ``TypeError`` on one that is not
    an int, as in a given state of float counts; the lists are then
    converted element by element, for the check to name.
    """
    try:
        return np.frombuffer(b"".join(map(bytearray, counts)), np.uint8).reshape(4, N)
    except (ValueError, TypeError):
        return np.array(counts)


MAX_EVENTS = 100_000_000
"""Largest event count a run may ask for: the rate bound ``lam N + max(nu,
mu) M`` times the last sample time, where the run ends.  A plain run
fires about 1e6 events per CPU second."""


def _check_run(p: ModelParams, N: int, M: int, sample_times: tuple,
               audit: bool = False, places: bool = True) -> dict:
    """The run's plan, through the gate once its rate bound ``lam N +
    max(nu, mu) M`` is finite: the events that bound allows by the last
    sample time, where the run ends, and the bytes the run keeps.  A run
    that ``places`` its cars counts the placement, which outweighs the
    lists it then reads the counts into; a run from a given state counts
    those lists alone, :data:`_COUNT_BYTES` a station, and five times
    that above ``K = 256``, where each count may be an int object of its
    own (32 bytes)."""
    horizon, times = (sample_times[-1] if sample_times else 0.0), len(sample_times)
    bound = p.lam * N + max(p.nu, p.mu) * M

    def at() -> str:
        return (f"the rate bound lam N + max(nu, mu) M at lam={p.lam!r}, nu={p.nu!r}, "
                f"mu={p.mu!r}, N={N}, M={M}")

    if not isfinite(bound):
        raise ValueError(f"{at()} is not finite")
    run = (_BLOCK_BYTES + _CAR_BYTES * M + (_COUNT_BYTES * N + _SNAPSHOT_BYTES) * times
           + (_AUDIT_BYTES * N + _AUDIT_CAR_BYTES * M if audit else 0)
           + (0 if places else (1 if p.K <= 256 else 5) * _COUNT_BYTES * N))
    return _gate(("MAX_EVENTS", bound * horizon, lambda: f"{at()} allows {bound * horizon:.3g} "
                  f"events by the last sample time {horizon!r}"),
                 _budgeted_counts(N, times, M, run, places))


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
    the total rate, ``lam N + max(nu, mu) M``, must be finite, and times
    the last sample time, where the run ends, at most :data:`MAX_EVENTS`;
    what the run keeps (:func:`_check_run`) must fit
    :data:`~duores.core.MAX_KEPT_BYTES`.  Each is checked before any draw
    or allocation: a ``ValueError`` names it.

    With ``audit=True`` the run checks the model's invariants: cars are
    conserved, no station holds more than ``K``, and the pending-pickup
    and driving lists match the counts.  It runs the check of
    ``check_invariants`` at the end of every block of at most
    ``_MAX_BLOCK`` events, and the deep one, which also reconciles the
    lists against the per-station counts, at every snapshot.  When a
    check fails, the block is replayed from its start one event at a
    time with the check after each, and the error names the first event
    that fails and its time; if the replay does not fail, the first
    error is raised as it was.  A violation that is undone before the
    next check is not seen.  Audited and plain runs give byte-identical
    snapshots.
    """
    _check_run(p, config.N, config.M, config.sample_times, audit, initial is None)
    rng = np.random.default_rng(config.seed)
    N, K, M, lam_N = config.N, p.K, config.M, p.lam * config.N
    if initial is not None and initial.N != N:
        raise ValueError(f"initial has {initial.N} stations, config N={N}")
    state = _init_with_rng(N, M, K, rng) if initial is None else initial
    counts = [a.tolist() for a in (state.w, state.x, state.y, state.z)]
    pickups, driving = list(state.pickups), list(state.driving)
    if initial is not None:
        try:
            if {len(c) for c in counts} != {N}:
                raise SimInvariantError(f"its counts hold {[len(c) for c in counts]} stations")
            _check_counts(_count_array(counts, N), pickups, driving, K, M, 0.0, deep=True)
        except SimInvariantError as e:
            raise ValueError(f"initial is not a consistent state: {e}") from None
    out, samples = [], config.sample_times
    if not samples:
        return out

    def take(tau: float) -> float | None:
        array = _count_array(counts, N)
        out.append((tau, array.T.astype(np.int64, order="C")))
        if audit:
            _check_counts(array, pickups, driving, K, M, tau, deep=True)
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
            _check_counts(_count_array(counts, N), pickups, driving, K, M, t)

    t, t_next, block = 0.0, samples[0], _FIRST_BLOCK
    while t_next is not None:
        # rows of four draws in stream order: one block equals that many
        # successive rng.random(4) calls; one copy makes each draw a row
        u = rng.random((block, 4)).T.copy()
        u0, u1, u3 = u[0].tolist(), u[1].tolist(), u[3].tolist()
        i, j = _stations(u[2:], N).tolist()
        if not audit:
            t, t_next = advance(t, zip(u0, u1, i, j, u3), t_next)
        else:
            start = ([c.copy() for c in (*counts, pickups, driving)], t, len(out), t_next)
            try:
                t, t_next = advance(t, zip(u0, u1, i, j, u3), t_next)
                if t_next is not None:  # else the last snapshot has just been checked
                    _check_counts(_count_array(counts, N), pickups, driving, K, M, t)
            except SimInvariantError:
                replay(start, zip(u0, u1, i, j, u3))
                raise
        block = min(2 * block, _MAX_BLOCK)
    return out


def _rank_counts(counts: np.ndarray, K: int, n: int) -> np.ndarray:
    """Number of stations of a snapshot that :func:`run` took in each of
    the ``n`` state ranks: the rank of ``(w, x, y, z)`` is the first rank
    of its prefix ``(w, x, y)`` plus ``z``.  Its states are admissible by
    construction and not checked again; :func:`empirical_measure` checks
    any other snapshot."""
    w, x, y, z = counts.T
    return np.bincount(_first_ranks(K)[np.ravel_multi_index((w, x, y), (K + 1,) * 3)] + z,
                       minlength=n)


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
    n = _budgeted_states(K)
    return Measure(np.bincount(ranks_of(*counts.T, K), minlength=n) / counts.shape[0], K)
