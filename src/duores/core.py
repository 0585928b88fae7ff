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
from functools import lru_cache
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
    "occupancy_vector",
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
# Enumeration and ranking
# ============================================================

def num_states(K: int) -> int:
    """Number of admissible station states for capacity ``K``.

    Equals the number of 4-part weak compositions of at most ``K``,
    i.e. ``C(K + 4, 4)``.
    """
    if K < 0:
        raise ValueError(f"capacity must be >= 0, got {K}")
    return math.comb(K + 4, 4)


@lru_cache(maxsize=None)
def _enumerate(K: int) -> tuple[StationState, ...]:
    out = []
    for w in range(K + 1):
        for x in range(K + 1 - w):
            for y in range(K + 1 - w - x):
                for z in range(K + 1 - w - x - y):
                    out.append(StationState(w, x, y, z))
    return tuple(out)


def enumerate_states(K: int) -> list[StationState]:
    """All admissible states for capacity ``K`` in lexicographic order.

    The order is lexicographic in ``(w, x, y, z)``; position in this
    list is the rank used throughout for indexing measures.
    """
    if K < 0:
        raise ValueError(f"capacity must be >= 0, got {K}")
    return list(_enumerate(K))


def _check_state(w: int, x: int, y: int, z: int, K: int) -> None:
    if min(w, x, y, z) < 0 or w + x + y + z > K:
        raise ValueError(
            f"({w},{x},{y},{z}) is not an admissible state for capacity {K}"
        )


def index_of(state: Iterable[int], K: int) -> int:
    """Rank of ``state`` in the lexicographic enumeration for ``K``.

    Closed form: counts the states that sort strictly before ``state``,
    block by block, using simplex-count prefix sums.
    """
    w, x, y, z = state
    _check_state(w, x, y, z, K)
    r0 = K - w          # capacity left after fixing w
    r1 = r0 - x
    r2 = r1 - y
    rank = math.comb(K + 4, 4) - math.comb(r0 + 4, 4)
    rank += math.comb(r0 + 3, 3) - math.comb(r1 + 3, 3)
    rank += math.comb(r1 + 2, 2) - math.comb(r2 + 2, 2)
    return rank + z


def state_of(rank: int, K: int) -> StationState:
    """Inverse of :func:`index_of`."""
    n = num_states(K)
    if not 0 <= rank < n:
        raise ValueError(f"rank {rank} out of range [0, {n}) for capacity {K}")
    return _enumerate(K)[rank]


def ranks_of(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, K: int
) -> np.ndarray:
    """Vectorized :func:`index_of` over parallel count arrays."""
    w = np.asarray(w, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)

    def t4(n):  # C(n+4, 4)
        return (n + 1) * (n + 2) * (n + 3) * (n + 4) // 24

    def t3(n):  # C(n+3, 3)
        return (n + 1) * (n + 2) * (n + 3) // 6

    def t2(n):  # C(n+2, 2)
        return (n + 1) * (n + 2) // 2

    r0 = K - w
    r1 = r0 - x
    r2 = r1 - y
    if np.min(np.stack([w, x, y, z])) < 0 or np.any(r2 - z < 0):
        raise ValueError("inadmissible state in rank query")
    return t4(K) - t4(r0) + t3(r0) - t3(r1) + t2(r1) - t2(r2) + z


@lru_cache(maxsize=None)
def _count_arrays(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    states = _enumerate(K)
    arr = np.array(states, dtype=np.int64).reshape(len(states), 4)
    arr.setflags(write=False)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def count_arrays(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays ``(w, x, y, z)`` over ranks, each of length
    ``num_states(K)``."""
    return _count_arrays(K)


@lru_cache(maxsize=None)
def occupancy_vector(K: int) -> np.ndarray:
    """Occupied-or-reserved space count ``w + x + y + z`` per rank."""
    w, x, y, z = _count_arrays(K)
    v = w + x + y + z
    v.setflags(write=False)
    return v


@lru_cache(maxsize=None)
def fill_vector(K: int) -> np.ndarray:
    """Cars attributed to the station per rank: ``x + y + z``.

    Counts cars driving toward the station plus cars parked there
    (available or reserved).  Summed over stations this is the constant
    car total, so its mean is the conserved quantity.
    """
    _, x, y, z = _count_arrays(K)
    v = x + y + z
    v.setflags(write=False)
    return v


@lru_cache(maxsize=None)
def no_available_mask(K: int) -> np.ndarray:
    """Boolean mask over ranks of states with no available car (y = 0)."""
    _, _, y, _ = _count_arrays(K)
    m = y == 0
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def saturated_mask(K: int) -> np.ndarray:
    """Boolean mask over ranks of states with every space taken."""
    m = occupancy_vector(K) == K
    m.setflags(write=False)
    return m


# ============================================================
# Model parameters
# ============================================================

def _integral(name: str, value) -> int:
    """``value`` as an ``int``.  Integers pass and integral floats
    (``3.0``) are converted; anything else raises a ``ValueError``
    naming ``name``."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
            rate = getattr(self, name)
            if not math.isfinite(rate):
                raise ValueError(f"{name} must be finite, got {rate!r}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError("mu and nu must be > 0")
        object.__setattr__(self, "K", _integral("K", self.K))
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")

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
        if p.min() < 0.0:
            raise ValueError(f"negative mass {p.min()!r} at rank {int(p.argmin())}")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"mass sums to {total!r}, not 1 within {_SUM_TOL}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def point(state: Iterable[int], K: int) -> "Measure":
        """Point mass at ``state``."""
        p = np.zeros(num_states(K))
        p[index_of(tuple(state), K)] = 1.0
        return Measure(p, K)

    @staticmethod
    def uniform(K: int) -> "Measure":
        """Uniform measure over all admissible states."""
        n = num_states(K)
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
