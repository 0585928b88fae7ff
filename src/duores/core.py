"""Core types for station networks with double reservation.

A station with ``K`` parking spaces is described by four occupancy
counts ``(w, x, y, z)``:

* ``w`` spaces reserved by users who have not yet picked up a car,
* ``x`` spaces reserved by users currently driving toward them,
* ``y`` cars parked and available,
* ``z`` cars parked but reserved for pickup.

Every one of the four counts occupies or earmarks a parking space, so a
state is admissible iff all counts are nonnegative and
``w + x + y + z <= K``.  The admissible states form the finite set
``states(K)`` enumerated here in lexicographic order; ranks into that
order index probability vectors over station states.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "StationState",
    "ModelParams",
    "Measure",
    "num_states",
    "enumerate_states",
    "index_of",
    "state_of",
    "ranks_of",
    "count_arrays",
    "fill_vector",
    "no_available_mask",
    "saturated_mask",
    "tv_distance",
    "mean_fill",
    "prob_no_available",
    "prob_saturated",
]


class StationState(NamedTuple):
    """Occupancy counts of a single station."""

    w: int
    x: int
    y: int
    z: int

    @property
    def total(self) -> int:
        """Number of parking spaces that are occupied or reserved."""
        return self.w + self.x + self.y + self.z


# ============================================================
# Input domains: each public entry checks its numbers with these first
# ============================================================

def _real(name: str, value, lo=None, strict: bool = False, finite: bool = True):
    """``value`` if it is a real, finite unless ``finite`` is false, and ``>= lo``
    (``> lo`` if ``strict``) unless ``lo`` is ``None``; else a ValueError naming it."""
    if not (isinstance(value, numbers.Real) and (math.isfinite(value) or not finite)
            and (lo is None or (value > lo if strict else value >= lo))):
        need = ["finite"] * finite + [f"{'>' if strict else '>='} {lo}"] * (lo is not None)
        raise ValueError(f"{name} must be {' and '.join(need)}, got {value!r}")
    return value


def _count(name: str, value, lo: int) -> int:
    """``value`` as an ``int >= lo``; an integral float (``3.0``) counts."""
    if not (isinstance(value, numbers.Integral) or isinstance(value, numbers.Real)
            and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _real(name, int(value), lo, finite=False)


def _seed(seed):
    """``seed`` if ``np.random.SeedSequence`` takes it; else a ValueError naming it."""
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise ValueError("seed must be None, an integer >= 0 or a sequence of them, "
                         f"got {seed!r}") from None
    return seed


def _listed(name: str, values, what: str) -> list:
    """``values`` as a list; a ValueError naming it if it is not a sequence."""
    try:
        return list(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {what}, got {values!r}") from None


def _times(name: str, times, T=None) -> tuple:
    """``times`` as floats, each finite and ``>= 0``, nondecreasing, and at most ``T`` if given."""
    ts = tuple(float(_real(f"{name}[{k}]", t, 0))
               for k, t in enumerate(_listed(name, times, "times")))
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"{name} must be nondecreasing")
    if T is not None and ts and ts[-1] > T:
        raise ValueError(f"{name} must lie within [0, T] = [0, {T}], got {ts[-1]!r}")
    return ts


def _staged(stage):
    """Entry decorator for a ``stage`` that checks its arguments and returns
    its work as a zero-argument callable.  The entry runs both, and
    ``entry.refuse(*args, **kwargs)`` runs the checks alone (returning the
    work unrun), so that a caller holding several entries can refuse every
    bad argument before any of them works.  Arguments pass through as
    given: no signature is bound per call."""
    @wraps(stage)
    def entry(*args, **kwargs):
        return stage(*args, **kwargs)()

    entry.refuse = stage
    return entry


# ============================================================
# Enumeration and ranking
# ============================================================

def num_states(K: int) -> int:
    """Number of admissible station states for capacity ``K``.

    Equals the number of 4-part weak compositions of at most ``K``,
    i.e. ``C(K + 4, 4)``.
    """
    if type(K) is not int or K < 0:  # every Measure calls this: an int costs a sign test
        K = _count("K", K, 0)
    return math.comb(K + 4, 4)


MAX_STATES = 2_000_000
"""Largest state count for which a per-state table is built: the count
arrays and everything derived from them, the measures allocated here and
in ``simulate``, the mean-field drift, the CSV writers and the measure
file of the CLI's ``equilibrium`` command.  It admits capacities up to
``K = 80`` (1 929 501 states).  Above it a ``ValueError`` is raised
before anything of that size is allocated.  The fixed-point solver
builds no per-state table and is not bound by it."""


def _budgeted_states(K: int) -> int:
    """:func:`num_states`, refused above :data:`MAX_STATES`."""
    n = num_states(K)
    if n > MAX_STATES:
        raise ValueError(
            f"capacity K={K} has {n} station states, above the state budget "
            f"MAX_STATES={MAX_STATES}"
        )
    return n


_CACHED_CAPACITIES = 8
"""Number of capacities that each per-capacity table cache (here, in
``equilibrium``, ``meanfield`` and ``experiments``) keeps.  Beyond it the least
recently used capacity is dropped, so a process that touches many
capacities does not hold all their tables until it exits."""


def enumerate_states(K: int) -> list[StationState]:
    """All admissible states for capacity ``K`` in lexicographic order.

    The order is lexicographic in ``(w, x, y, z)``; position in this
    list is the rank used throughout for indexing measures.  Built from
    :func:`count_arrays` on each call.
    """
    return list(map(StationState, *(c.tolist() for c in count_arrays(K))))


def _simplex(n, d: int):
    """``C(n + d, d)``, the number of ``d``-tuples of counts with sum at
    most ``n``, as an integer polynomial: each partial product
    ``C(n + k, k)`` divides exactly."""
    out = n + 1
    for k in range(2, d + 1):
        out = out * (n + k) // k
    return out


def _rank(w, x, y, z, K: int):
    """Rank of ``(w, x, y, z)`` in the lexicographic enumeration for
    ``K``: counts the states that sort strictly before it, block by
    block, with simplex-count prefix sums.  Integer polynomials only, so
    the same code runs on Python ints and on int64 arrays."""
    r0 = K - w          # capacity left after fixing w
    r1 = r0 - x
    r2 = r1 - y
    return (_simplex(K, 4) - _simplex(r0, 4) + _simplex(r0, 3) - _simplex(r1, 3)
            + _simplex(r1, 2) - _simplex(r2, 2) + z)


def index_of(state: Iterable[int], K: int) -> int:
    """Rank of ``state`` in the lexicographic enumeration for ``K``; an
    integral float entry counts as its int."""
    w, x, y, z = state
    K = _count("K", K, 0)
    if not type(w) is type(x) is type(y) is type(z) is int:  # numpy or float entries
        return int(ranks_of(w, x, y, z, K))
    if min(w, x, y, z) < 0 or w + x + y + z > K:
        raise ValueError(f"({w},{x},{y},{z}) is not an admissible state for capacity {K}")
    return _rank(w, x, y, z, K)


def state_of(rank: int, K: int) -> StationState:
    """Inverse of :func:`index_of`."""
    rank, n = _count("rank", rank, 0), num_states(K)
    if not 0 <= rank < n:
        raise ValueError(f"rank {rank} out of range [0, {n}) for capacity {K}")
    return StationState(*(int(c[rank]) for c in count_arrays(K)))


def ranks_of(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, K: int
) -> np.ndarray:
    """Vectorized :func:`index_of` over parallel count arrays."""
    K = _count("K", K, 0)
    c = np.stack([np.asarray(v) for v in (w, x, y, z)])
    flat = c.reshape(4, -1)
    ok = (flat >= 0).all(axis=0) & (flat.sum(axis=0) <= K)
    if c.dtype.kind not in "iu":  # an integral float counts as its int
        ok &= (np.isfinite(flat) & (flat == np.trunc(flat))).all(axis=0)
    if not ok.all():
        state = tuple(flat[:, np.argmin(ok)].tolist())
        raise ValueError(f"{state!r} is not an admissible state for capacity {K}")
    return _rank(*c.astype(np.int64, copy=False), K)


@lru_cache(maxsize=_CACHED_CAPACITIES)
def count_arrays(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays ``(w, x, y, z)`` over ranks, each of length
    ``num_states(K)``; a ``ValueError`` above :data:`MAX_STATES`.

    Built one vectorized level per count: every prefix with capacity
    ``r`` left expands into ``r + 1`` children, the next count running
    ``0..r``."""
    _budgeted_states(K)
    left = np.array([K], dtype=np.int64)  # capacity left after each prefix
    cols: list[np.ndarray] = []
    for _ in range(4):
        reps = left + 1
        child = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols] + [child]
        left = np.repeat(left, reps) - child
    for c in cols:
        c.setflags(write=False)
    return tuple(cols)


@lru_cache(maxsize=_CACHED_CAPACITIES)
def fill_vector(K: int) -> np.ndarray:
    """Cars attributed to the station per rank: ``x + y + z``.

    Counts cars driving toward the station plus cars parked there
    (available or reserved).  Summed over stations this is the constant
    car total, so its mean is the conserved quantity.  Read-only
    float64, exact for these small integers, so that
    :func:`mean_fill`'s product takes the float dot kernel instead of a
    mixed-type loop.
    """
    _, x, y, z = count_arrays(K)
    v = (x + y + z).astype(np.float64)
    v.setflags(write=False)
    return v


@lru_cache(maxsize=_CACHED_CAPACITIES)
def no_available_mask(K: int) -> np.ndarray:
    """Boolean mask over ranks of states with no available car (y = 0)."""
    _, _, y, _ = count_arrays(K)
    m = y == 0
    m.setflags(write=False)
    return m


@lru_cache(maxsize=_CACHED_CAPACITIES)
def saturated_mask(K: int) -> np.ndarray:
    """Boolean mask over ranks of states with every space taken."""
    w, x, y, z = count_arrays(K)
    m = w + x + y + z == K
    m.setflags(write=False)
    return m


# ============================================================
# Model parameters
# ============================================================

@dataclass(frozen=True)
class ModelParams:
    """Rates and capacity of the symmetric network.

    Parameters
    ----------
    lam : float
        Reservation request rate per station (each request also draws a
        uniform destination).  May be zero, which freezes a network
        with no pending trips.
    mu : float
        Trip completion rate per driving car.
    nu : float
        Reservation holding rate; governs both pickup of a reserved car
        and confirmation of a reserved destination space.
    K : int
        Parking spaces per station; an integral float is converted.
    """

    lam: float
    mu: float
    nu: float
    K: int

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "nu"):
            _real(name, getattr(self, name))
        _real("lam", self.lam, 0, finite=False)
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError("mu and nu must be > 0")
        object.__setattr__(self, "K", _count("K", self.K, 1))

    @property
    def rate_bound(self) -> float:
        """Upper bound on total per-station outflow rate, used by the
        integrator stability guard."""
        return self.lam + self.nu * self.K + self.mu * self.K


# ============================================================
# Probability measures over station states
# ============================================================

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Measure:
    """Probability measure over the station states of capacity ``K``.

    ``probs[r]`` is the mass of ``state_of(r, K)``.  Construction
    validates the simplex constraints and fails loudly instead of
    renormalizing: entries must be nonnegative and sum to 1 within
    1e-12.
    """

    probs: np.ndarray
    K: int

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=np.float64, copy=True)
        if p.ndim != 1 or p.shape[0] != num_states(self.K):
            raise ValueError(
                f"expected {num_states(self.K)} entries for capacity {self.K}, "
                f"got shape {p.shape}"
            )
        # NaN fails both comparisons; the offending rank is looked for
        # only on the way out, so a valid measure costs one min and one sum.
        low, total = p.min(), float(p.sum())
        if not (low >= 0.0 and abs(total - 1.0) <= _SUM_TOL):
            bad = np.flatnonzero(~np.isfinite(p))
            if bad.size:
                r = int(bad[0])
                raise ValueError(f"non-finite mass {float(p[r])!r} at rank {r}")
            if low < 0.0:
                raise ValueError(f"negative mass {float(low)!r} at rank {int(p.argmin())}")
            raise ValueError(f"mass sums to {total!r}, not 1 within {_SUM_TOL}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def point(state: Iterable[int], K: int) -> "Measure":
        """Point mass at ``state``."""
        p = np.zeros(_budgeted_states(K))
        p[index_of(tuple(state), K)] = 1.0
        return Measure(p, K)

    @staticmethod
    def uniform(K: int) -> "Measure":
        """Uniform measure over all admissible states."""
        n = _budgeted_states(K)
        return Measure(np.full(n, 1.0 / n), K)

    # ---- conveniences --------------------------------------------------

    def __getitem__(self, state: Iterable[int]) -> float:
        return float(self.probs[index_of(tuple(state), self.K)])


def _check_same_space(m1: Measure, m2: Measure) -> None:
    if m1.K != m2.K:
        raise ValueError(f"measures live on different capacities: {m1.K} != {m2.K}")


def tv_distance(m1: Measure, m2: Measure) -> float:
    """Total-variation distance, i.e. half the L1 distance."""
    _check_same_space(m1, m2)
    return 0.5 * float(np.abs(m1.probs - m2.probs).sum())


def mean_fill(m: Measure) -> float:
    """Expected number of cars attributed to a station (inbound,
    parked, or reserved): ``E[x + y + z]``.

    This is the conserved car density; a closed network with ``M`` cars
    on ``N`` stations keeps its empirical version at exactly ``M / N``.
    """
    return float(m.probs @ fill_vector(m.K))


def prob_no_available(m: Measure) -> float:
    """Mass of states with no available car (y = 0)."""
    return float(m.probs[no_available_mask(m.K)].sum())


def prob_saturated(m: Measure) -> float:
    """Mass of states with all ``K`` spaces occupied or reserved."""
    return float(m.probs[saturated_mask(m.K)].sum())
