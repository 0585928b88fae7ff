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

One kernel, ``_fire``, holds the transition rules for both ``step`` and
``run``, and reports the two stations an event read; it writes no
other.  ``run`` keeps the counts in Python lists, where an event costs
a few list operations, audited or not.  An audited run checks after
each event only the stations the kernel reported: nonnegative counts,
occupancy at most ``K``, and running totals of ``w, x, y, z`` against
the car count and the pending-pickup and driving list lengths, O(1) per
event.  The whole-state ``check_invariants`` runs after the first event
and, with the deep list reconciliation, at every snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Measure, ModelParams, _integral, num_states, ranks_of

__all__ = [
    "SimConfig",
    "SimState",
    "SimInvariantError",
    "init_uniform",
    "step",
    "run",
    "empirical_measure",
    "pair_empirical",
]


class SimInvariantError(RuntimeError):
    """A structural invariant of the simulated state was violated."""


@dataclass(frozen=True)
class SimConfig:
    """Run shape: network size, car count, horizon, snapshot times.

    ``N`` and ``M`` must be integers; integral floats are converted."""

    N: int
    M: int
    T: float
    sample_times: tuple
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integral("N", self.N))
        object.__setattr__(self, "M", _integral("M", self.M))
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"T must be finite and >= 0, got {self.T!r}")
        ts = tuple(float(t) for t in self.sample_times)
        for k, t in enumerate(ts):
            if not (math.isfinite(t) and t >= 0):
                raise ValueError(f"sample_times[{k}] must be finite and >= 0, got {t!r}")
        if any(t > self.T for t in ts):
            raise ValueError("sample times must lie within [0, T]")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("sample times must be nondecreasing")
        object.__setattr__(self, "sample_times", ts)


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
        ``run`` makes them after its first event and then keeps them up
        over the stations each event touches.  ``deep=True``
        additionally reconciles the lists against the per-station
        counts.
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
            orig = np.bincount([i for i, _ in self.pickups], minlength=N)
            dest = np.bincount([j for _, j in self.pickups], minlength=N)
            drv = np.bincount(self.driving, minlength=N)
            if not (np.array_equal(orig, self.z) and np.array_equal(dest, self.w)
                    and np.array_equal(drv, self.x)):
                raise SimInvariantError(f"list/count reconciliation failed at t={self.t}")


# Events drawn per generator call in ``run``: the first call draws for
# a few events, so short runs stay cheap, and each later one doubles up
# to the cap.
_FIRST_BLOCK, _MAX_BLOCK = 16, 1024


def _init_with_rng(N: int, M: int, K: int, rng: np.random.Generator) -> SimState:
    if M > N * K:
        raise ValueError(f"cannot place {M} cars on {N} stations of capacity {K}")
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


def init_uniform(N: int, M: int, K: int, seed: int) -> SimState:
    """Place ``M`` available cars one at a time, uniformly among the
    stations still below capacity.  No reservations are pending."""
    return _init_with_rng(N, M, K, np.random.default_rng(seed))


def _fire(w, x, y, z, pickups, driving, N, K, lam_N, nu, r, u2, u3):
    """Apply one event to the counts ``w, x, y, z`` (lists or arrays)
    and the ``pickups``/``driving`` lists.

    Returns ``(tag, i, j)``: the event's tag and the stations it read,
    the origin ``i`` and destination ``j`` (``i == j`` for a return).
    No other station's counts change, which is what lets the audit of
    ``run`` check only these two.

    ``r`` is the event-class draw scaled by the total rate, ``u2`` and
    ``u3`` are the last two draws.  ``lam_N`` and the list lengths must
    be those the total rate was computed from, so nothing may change
    the state between the draws and this call.
    """
    # each draw u picks one of n items as int(u * n), clamped to n - 1
    # as min() would, at a fraction of a min() call's cost
    if r < lam_N:
        i = int(u2 * N)
        if i >= N:
            i = N - 1
        j = int(u3 * N)
        if j >= N:
            j = N - 1
        if y[i] > 0 and w[j] + x[j] + y[j] + z[j] < K:
            y[i] -= 1
            z[i] += 1
            w[j] += 1
            pickups.append((i, j))
            return "arrival", i, j
        return "blocked", i, j
    P = len(pickups)
    if r < lam_N + nu * P:
        idx = int(u3 * P)
        if idx >= P:
            idx = P - 1
        i, j = pickups[idx]
        pickups[idx] = pickups[-1]
        pickups.pop()
        z[i] -= 1
        w[j] -= 1
        x[j] += 1
        driving.append(j)
        return "pickup", i, j
    D = len(driving)
    idx = int(u3 * D)
    if idx >= D:
        idx = D - 1
    j = driving[idx]
    driving[idx] = driving[-1]
    driving.pop()
    x[j] -= 1
    y[j] += 1
    return "return", j, j


def step(state: SimState, p: ModelParams, rng: np.random.Generator):
    """Advance by one event, mutating ``state`` in place.

    Returns ``(state, holding_time, tag)`` with ``tag`` one of
    ``"arrival"``, ``"blocked"``, ``"pickup"``, ``"return"``.  Blocked
    arrivals consume time and draws but change nothing.  Requires at
    least one active transition (``total_rate > 0``).
    """
    rate = state.total_rate(p)
    if rate <= 0.0:
        raise ValueError("no active transitions: total rate is zero")
    u0, u1, u2, u3 = rng.random(4).tolist()
    dt = -math.log1p(-u0) / rate
    state.t += dt
    N = state.N
    tag, _, _ = _fire(state.w, state.x, state.y, state.z, state.pickups, state.driving,
                      N, p.K, p.lam * N, p.nu, u1 * rate, u2, u3)
    return state, dt, tag


class _Audit:
    """Invariant checks of an audited ``run`` over its list counts.

    ``whole`` copies the counts into the ``SimState`` and runs
    ``check_invariants`` on all of it.  ``event`` runs after every
    event: its first call is ``whole``; each later one checks only the
    two stations ``_fire`` reports, and running totals of ``w, x, y, z``
    moved by each such station's change since its last check, in O(1).
    """

    def __init__(self, state: SimState, counts: list, K: int, M: int):
        self.state, self.counts, self.K, self.M = state, counts, K, M
        self.seen: list | None = None  # per-station counts at the last check
        self.totals = (0, 0, 0, 0)

    def whole(self, deep: bool) -> None:
        st = self.state
        st.w[:], st.x[:], st.y[:], st.z[:] = self.counts
        st.check_invariants(self.K, self.M, deep=deep)

    def event(self, t: float, event: tuple) -> None:
        st = self.state
        st.t = t
        if self.seen is None:
            self.whole(deep=False)
            self.seen = list(zip(*self.counts))
            self.totals = tuple(sum(a) for a in self.counts)
            return
        _, i, j = event
        w, x, y, z = self.counts
        a = (w[i], x[i], y[i], z[i])
        b = (w[j], x[j], y[j], z[j])
        if min(a) < 0 or min(b) < 0:
            raise SimInvariantError(f"negative count at t={t}")
        if sum(a) > self.K or sum(b) > self.K:
            raise SimInvariantError(f"station over capacity at t={t}")
        # when i == j the second pair of lines reads back ``a`` and
        # adds nothing, so the station counts once
        seen = self.seen
        pa, seen[i] = seen[i], a
        pb, seen[j] = seen[j], b
        sw, sx, sy, sz = self.totals
        sw += a[0] - pa[0] + b[0] - pb[0]
        sx += a[1] - pa[1] + b[1] - pb[1]
        sy += a[2] - pa[2] + b[2] - pb[2]
        sz += a[3] - pa[3] + b[3] - pb[3]
        self.totals = sw, sx, sy, sz
        cars = sx + sy + sz
        if cars != self.M:
            raise SimInvariantError(f"car total {cars} != {self.M} at t={t}")
        P = len(st.pickups)
        if P != sz or P != sw:
            raise SimInvariantError(f"pending-pickup count mismatch at t={t}")
        if len(st.driving) != sx:
            raise SimInvariantError(f"driving count mismatch at t={t}")


def run(
    p: ModelParams,
    config: SimConfig,
    initial: SimState | None = None,
    audit: bool = False,
) -> list[tuple[float, np.ndarray]]:
    """Simulate on ``[0, T]`` and snapshot at the configured times.

    Returns ``(time, counts)`` pairs where ``counts`` has shape
    ``(N, 4)``.  Paths are right-continuous: a snapshot exactly at an
    event time sees the post-event state.  The generator is seeded from
    ``config.seed`` and used first for initial placement (skipped when
    ``initial`` is given), then for events.

    With ``audit=True`` the run checks the model's invariants: cars are
    conserved, no station holds more than ``K``, and the pending-pickup
    and driving lists match the counts.  After each event it checks
    only the stations the event touched, in O(1): each is nonnegative
    and within capacity, and running totals of ``w, x, y, z`` match
    ``M`` and the list lengths (the first event gets the whole-state
    ``check_invariants``, so a bad ``initial`` raises there).  At every
    snapshot it runs ``check_invariants(deep=True)`` on the whole state,
    which also reconciles the lists against the per-station counts.
    Audited and plain runs give byte-identical snapshots.
    """
    if config.M > config.N * p.K:
        raise ValueError(
            f"cannot place {config.M} cars on {config.N} stations of capacity {p.K}"
        )
    rng = np.random.default_rng(config.seed)
    if initial is None:
        state = _init_with_rng(config.N, config.M, p.K, rng)
    else:
        if initial.N != config.N or initial.car_total != config.M:
            raise ValueError("initial state does not match config shape")
        state = initial.copy()
        state.t = 0.0
    out: list[tuple[float, np.ndarray]] = []
    samples = config.sample_times
    if not samples:
        return out
    N, K, M = config.N, p.K, config.M
    lam_N, nu, mu = p.lam * N, p.nu, p.mu
    pickups, driving = state.pickups, state.driving
    counts = [a.tolist() for a in (state.w, state.x, state.y, state.z)]
    w, x, y, z = counts
    check = _Audit(state, counts, K, M) if audit else None

    def snapshot(tau: float) -> None:
        out.append((tau, np.array(counts, dtype=np.int64).T.copy()))
        if audit:
            check.whole(deep=True)

    ptr, n_samples, t = 0, len(samples), 0.0
    t_next, log1p = samples[0], math.log1p
    block = _FIRST_BLOCK
    while True:
        # rows of four draws in stream order: one block equals that many
        # successive rng.random(4) calls
        for u0, u1, u2, u3 in rng.random((block, 4)).tolist():
            rate = lam_N + nu * len(pickups) + mu * len(driving)
            if rate <= 0.0:
                # Frozen network: nothing can ever fire again.
                for tau in samples[ptr:]:
                    snapshot(tau)
                return out
            t_event = t - log1p(-u0) / rate
            while t_next < t_event:
                snapshot(t_next)
                ptr += 1
                if ptr == n_samples:
                    return out
                t_next = samples[ptr]
            t = t_event
            event = _fire(w, x, y, z, pickups, driving, N, K, lam_N, nu, u1 * rate, u2, u3)
            if audit:
                check.event(t, event)
        block = min(2 * block, _MAX_BLOCK)


def empirical_measure(counts: np.ndarray, K: int) -> Measure:
    """Empirical station-state distribution of a snapshot."""
    counts = np.asarray(counts)
    ranks = ranks_of(counts[:, 0], counts[:, 1], counts[:, 2], counts[:, 3], K)
    N = counts.shape[0]
    return Measure(np.bincount(ranks, minlength=num_states(K)) / N, K)


def pair_empirical(counts: np.ndarray, K: int) -> np.ndarray:
    """Joint distribution of the states of an ordered station pair
    ``(i, j)``, ``i != j``, drawn uniformly.

    Returns an ``(n, n)`` array over rank pairs.  Both marginals equal
    the one-station empirical measure exactly.
    """
    counts = np.asarray(counts)
    N = counts.shape[0]
    if N < 2:
        raise ValueError("pair statistics need at least two stations")
    ranks = ranks_of(counts[:, 0], counts[:, 1], counts[:, 2], counts[:, 3], K)
    c = np.bincount(ranks, minlength=num_states(K)).astype(np.float64)
    joint = np.outer(c, c) - np.diag(c)
    return joint / (N * (N - 1))
