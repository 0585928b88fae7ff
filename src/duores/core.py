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
import sys
from dataclasses import dataclass
import inspect
from functools import lru_cache, wraps
from typing import Callable, Iterable, NamedTuple

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
# Input domains: the rules of each public entry's one declaration
# ============================================================

class _Rule(NamedTuple):
    """The domain of one argument.  ``check(name, value)`` returns the
    value as the entry takes it (an integral float as its int, a sequence
    as a list) or raises a ``ValueError`` naming ``name``.  ``text`` is its
    wording in README's table and ``kind`` its value kind in the CLI's
    config (``None``: the default's)."""

    check: Callable
    text: str
    kind: str | None = None


def _real(lo=None, strict=False, finite=True) -> _Rule:
    """A real, finite unless ``finite`` is false, ``>= lo`` (``> lo`` if
    ``strict``) unless ``lo`` is ``None``."""
    bound = [f"{'>' if strict else '>='} {lo}"] * (lo is not None)

    def check(name, value):
        if not (isinstance(value, numbers.Real) and (math.isfinite(value) or not finite)
                and (lo is None or (value > lo if strict else value >= lo))):
            raise ValueError(f"{name} must be {' and '.join(['finite'] * finite + bound)}, "
                             f"got {value!r}")
        return value

    return _Rule(check, " ".join(["finite"] * finite + [f"`{b}`" for b in bound]), "num")


def _count(lo: int) -> _Rule:
    """An integer ``>= lo``; an integral float (``3.0``) counts as its int."""
    at_least = _real(lo, finite=False).check

    def check(name, value):
        if not (isinstance(value, numbers.Integral) or isinstance(value, numbers.Real)
                and math.isfinite(value) and value == int(value)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return at_least(name, int(value))

    return _Rule(check, f"integer `>= {lo}`", "int")


def _seed(name, seed):
    """``seed`` if ``np.random.SeedSequence`` takes it; else a ValueError naming it."""
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise ValueError("seed must be None, an integer >= 0 or a sequence of them, "
                         f"got {seed!r}") from None
    return seed


_SEED = _Rule(_seed, "what `np.random.SeedSequence` takes")
_POSITIVE, _NONNEG = _real(0, strict=True), _real(0)
_SIZE0, _SIZE1 = _count(0), _count(1)


def _listed(name: str, values, what: str) -> list:
    """``values`` as a list; a ValueError naming it if it is not a sequence."""
    try:
        return list(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {what}, got {values!r}") from None


def _least(name: str, values, got, least: int, what: str):
    """``values``, refused when it holds fewer than ``least`` (0 or 1) entries."""
    if len(values) < least:
        raise ValueError(f"{name} must hold at least one {what}, got {got!r}")
    return values


def _each(rule: _Rule, entry="every entry of {}", least=0, what="value") -> _Rule:
    """A sequence of at least ``least`` entries, each meeting ``rule`` under
    the name ``entry.format(name)``."""
    def check(name, values):
        vs = _least(name, _listed(name, values, what + "s"), values, least, what)
        return [rule.check(entry.format(name), v) for v in vs]

    text = f"a {'non-empty ' * least}sequence, each entry {rule.text}"
    return _Rule(check, text, {"int": "ints", "num": "nums"}[rule.kind])


def _times(least=0) -> _Rule:
    """At least ``least`` times, as floats, each finite and ``>= 0``, checked
    one entry at a time so that a refusal names its entry, and nondecreasing."""
    def check(name, times):
        vs = _listed(name, times, "times")
        ts = tuple(float(_NONNEG.check(f"{name}[{k}]", t)) for k, t in enumerate(vs))
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"{name} must be nondecreasing")
        return _least(name, ts, times, least, "time")

    return _Rule(check, f"a {'non-empty ' * least}sequence of times, each finite `>= 0`, "
                 "nondecreasing", "nums")


def _within(sample_times: tuple, T: float) -> None:
    """The rule across ``sample_times`` and a horizon ``T``: none beyond it."""
    if sample_times and sample_times[-1] > T:
        raise ValueError(f"sample_times must lie within [0, T] = [0, {T}], "
                         f"got {sample_times[-1]!r}")


def _chain(*rules: _Rule) -> _Rule:
    """Every rule of ``rules`` in turn, the first refusal its message."""
    def check(name, value):
        for rule in rules:
            value = rule.check(name, value)
        return value

    words = dict.fromkeys(w for r in rules for w in r.text.split())
    return _Rule(check, " ".join(sorted(words, key=lambda w: w != "finite")), rules[-1].kind)


def _domain(**rules: _Rule):
    """Entry decorator: the one declaration of an entry's input domain.

    Every argument named in ``rules``, given or default, is checked by
    its rule, in declaration order, before the entry runs, and passed on
    as the rule returns it.  On a dataclass (write ``@dataclass`` over
    ``@_domain``) the fields are checked after ``__init__``, ahead of its
    own ``__post_init__``.  The rules stay on the entry as ``__domain__``;
    under ``@_staged`` they make ``.refuse`` check them too."""
    def declare(fn):
        if isinstance(fn, type):
            post = getattr(fn, "__post_init__", None)

            def __post_init__(self):
                for name, rule in rules.items():
                    object.__setattr__(self, name, rule.check(name, getattr(self, name)))
                if post is not None:
                    post(self)

            fn.__post_init__, fn.__domain__ = __post_init__, rules
            return fn
        # each rule's argument: its position (past any, if keyword-only) and
        # default; no signature is bound per call
        params = inspect.signature(fn).parameters
        at = {k: i for i, (k, p) in enumerate(params.items()) if p.kind is p.POSITIONAL_OR_KEYWORD}
        slots = [(name, at.get(name, len(params)), params[name].default, rule)
                 for name, rule in rules.items()]

        @wraps(fn)
        def entry(*args, **kwargs):
            args = list(args)
            for name, i, default, rule in slots:
                if i < len(args):
                    args[i] = rule.check(name, args[i])
                elif name in kwargs:
                    kwargs[name] = rule.check(name, kwargs[name])
                elif default is not inspect.Parameter.empty:  # else fn raises TypeError
                    kwargs[name] = rule.check(name, default)
            return fn(*args, **kwargs)

        entry.__domain__ = rules
        for cache in ("cache_info", "cache_clear"):  # of an lru_cache below
            if hasattr(fn, cache):
                setattr(entry, cache, getattr(fn, cache))
        return entry
    return declare


def _staged(stage):
    """Entry decorator for a ``stage`` that checks its arguments and returns
    its work as a zero-argument callable.  The entry runs both, and
    ``entry.refuse(*args, **kwargs)`` runs the checks alone (returning the
    work unrun), so that a caller holding several entries can refuse every
    bad argument before any of them works."""
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
        K = _SIZE0.check("K", K)
    return math.comb(K + 4, 4)


# Entries that run once per state or per measure keep hand-written guards,
# which refuse what their declarations, attached as data, state; a sweep
# of the domains checks that they do.
num_states.__domain__ = dict(K=_SIZE0)


MAX_STATES = 2_000_000
"""Largest station-state count of a per-state table, so ``K <= 80``
(1 929 501 states), and entry count ``n^2`` of a table over state pairs,
so ``K <= 11``.  The fixed-point solver builds no per-state table."""


MAX_KEPT_BYTES = 1 << 30
"""Largest block one call keeps, in bytes: an integration's kept states,
a placement, a run, or the chaos study's rank counts.  The largest in the
demos, README configs and benchmark are 28.6 MB of states (920 at
K = 15), 2.7 MB for a run (the benchmark's N = 4000, M = 6000 with 11
snapshots, from its placement) and 53.8 kB of chaos rank counts."""


_BUDGETS = {  # each budget: the module that keeps its bound, the words of a refusal
    "MAX_STATES": ("core", ", above the state budget"),
    "MAX_KEPT_BYTES": ("core", ", {} bytes, above the kept-state budget"),
    "MAX_STEPS": ("meanfield", ", above the step budget"),
    "MAX_EVENTS": ("simulate", ", above the event budget"),
    "MAX_SOLVE_K": ("equilibrium", " is above the solver's capacity ceiling"),
}


def _gate(*uses: tuple[str, float, Callable[[], str]]) -> dict[str, float]:
    """The one budget gate: each use ``(name, planned, what)`` in turn, its
    bound read from its module now, refused by the first ``planned`` not
    at most its bound with ``ValueError("<what()>, above the <budget>
    NAME=bound")`` (kept bytes: ``"<what()>, <planned> bytes, above ..."``);
    ``what`` is called only then.  Returns the plan."""
    for name, planned, what in uses:
        module, words = _BUDGETS[name]
        bound = getattr(sys.modules[f"{__package__}.{module}"], name)
        if not planned <= bound:
            raise ValueError(f"{what()}{words.format(planned)} {name}={bound}")
    return {name: planned for name, planned, _ in uses}


def _states(K: int) -> tuple:
    """The planned use of a per-state table at capacity ``K``: its states."""
    n = num_states(K)
    return "MAX_STATES", n, lambda: f"capacity K={K} has {n} station states"


def _budgeted_states(K: int) -> int:
    """:func:`num_states`, refused above :data:`MAX_STATES`."""
    return _gate(_states(K))["MAX_STATES"]


def _budgeted_pairs(K: int, what: str) -> int:
    """:func:`num_states` ``n``, refused when ``what``, a table over state
    pairs, would hold ``n^2`` entries above :data:`MAX_STATES`."""
    n = num_states(K)
    _gate(("MAX_STATES", n * n, lambda: f"{what} at capacity K={K} need n^2={n * n} entries"))
    return n


_CACHED_CAPACITIES = 8
"""Number of capacities that each per-capacity table cache (here, in
``equilibrium``, ``meanfield`` and ``experiments``) keeps.  Beyond it the least
recently used capacity is dropped, so a process that touches many
capacities does not hold all their tables until it exits."""


@_domain(K=_SIZE0)
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


def _state(name: str, state) -> tuple:
    """``state`` as four entries ``(w, x, y, z)``; a ValueError naming it if
    it is not a sequence of four."""
    try:
        w, x, y, z = state
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be four counts (w, x, y, z), got {state!r}") from None
    return w, x, y, z


_STATE = _Rule(_state, "four counts `(w, x, y, z)`")


@_domain(state=_STATE, K=_SIZE0)
def index_of(state: Iterable[int], K: int) -> int:
    """Rank of ``state`` in the lexicographic enumeration for ``K``; an
    integral float entry counts as its int."""
    w, x, y, z = state
    if not type(w) is type(x) is type(y) is type(z) is int:  # numpy or float entries
        return int(ranks_of(w, x, y, z, K))
    if min(w, x, y, z) < 0 or w + x + y + z > K:
        raise ValueError(f"({w},{x},{y},{z}) is not an admissible state for capacity K={K}")
    return _rank(w, x, y, z, K)


@_domain(rank=_count(0), K=_SIZE0)
def state_of(rank: int, K: int) -> StationState:
    """Inverse of :func:`index_of`."""
    n = num_states(K)
    if not rank < n:
        raise ValueError(f"rank {rank} out of range [0, {n}) for capacity K={K}")
    return StationState(*(int(c[rank]) for c in count_arrays(K)))


@_domain(K=_SIZE0)
def ranks_of(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, K: int
) -> np.ndarray:
    """Vectorized :func:`index_of` over parallel count arrays of one shape.
    The ranks are int64, whose arithmetic reaches ``4 C(K + 4, 4)``: a
    ``K`` where that passes ``2**63 - 1`` (``K >= 86 248``) is refused
    before any of it; :func:`index_of` ranks int counts at any ``K``."""
    if 4 * math.comb(K + 4, 4) >= 1 << 63:
        raise ValueError(f"capacity K={K} has ranks whose int64 arithmetic overflows: "
                         "4 C(K + 4, 4) is above 2**63 - 1")
    arrays = [np.asarray(v) for v in (w, x, y, z)]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError("w, x, y and z must be count arrays of one shape, got shapes "
                         f"{[a.shape for a in arrays]}")
    c = np.stack(arrays)
    flat = c.reshape(4, -1)
    ok = np.zeros(flat.shape[1], dtype=bool)  # a string or object entry is no count
    if c.dtype.kind in "biuf":
        ok = (flat >= 0).all(axis=0) & (flat.sum(axis=0) <= K)
    if c.dtype.kind == "f":  # an integral float counts as its int
        ok &= (np.isfinite(flat) & (flat == np.trunc(flat))).all(axis=0)
    if not ok.all():
        state = tuple(flat[:, np.argmin(ok)].tolist())
        raise ValueError(f"{state!r} is not an admissible state for capacity K={K}")
    return _rank(*c.astype(np.int64, copy=False), K)


@_domain(K=_SIZE0)
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
def _per_rank(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables over ranks: the cars attributed to the station,
    ``x + y + z`` (cars driving toward it plus cars parked there), as
    float64, exact for these small integers, so that :func:`mean_fill`'s
    product takes the float dot kernel; the mask of states with no
    available car (``y = 0``); the mask of states with every space taken."""
    w, x, y, z = count_arrays(K)
    tables = ((x + y + z).astype(np.float64), y == 0, w + x + y + z == K)
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=_CACHED_CAPACITIES)
def _first_ranks(K: int) -> np.ndarray:
    """Read-only int64 table over the prefixes ``(w, x, y)``, flattened by
    ``np.ravel_multi_index`` over ``(K + 1,) * 3``: the rank of ``(w, x,
    y, 0)``, the first state with that prefix, so that the rank of ``(w,
    x, y, z)`` is its entry plus ``z``.  Prefixes above ``K`` hold 0."""
    w, x, y, z = count_arrays(K)
    first = np.flatnonzero(z == 0)
    table = np.zeros((K + 1) ** 3, dtype=np.int64)
    table[np.ravel_multi_index((w[first], x[first], y[first]), (K + 1,) * 3)] = first
    table.setflags(write=False)
    return table


# ============================================================
# Model parameters
# ============================================================

_RATE = _chain(_real(), _real(0, strict=True, finite=False))


@dataclass(frozen=True)
@_domain(lam=_chain(_real(), _real(0, finite=False)), mu=_RATE, nu=_RATE, K=_SIZE1)
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

    @property
    def rate_bound(self) -> float:
        """``lam + nu K + mu K``, the rate scale of a station.  It does not
        bound a state's exit rate, whose arrivals alone reach ``2 lam``: the
        integrator's guard reads ``2 lam + max(nu, mu) K``
        (``meanfield._exit_bound``)."""
        return self.lam + self.nu * self.K + self.mu * self.K


# ============================================================
# Probability measures over station states
# ============================================================

_SUM_TOL = 1e-12


def _masses(name: str, probs, K=None, *, adopt: bool = False, low=None) -> np.ndarray:
    """``probs`` as a new read-only float64 vector of masses, each finite and
    ``>= 0``, summing to 1 within 1e-12, and ``num_states(K)`` of them if
    ``K`` is given; else a ValueError naming it.  It fails loudly instead of
    renormalizing.  With ``adopt``, ``probs`` is a float64 vector its caller
    hands over and never writes again: it is checked and frozen, not copied.
    A given ``low`` is the caller's own ``probs.min()``, or a positive
    least mass over states that hold ``probs``, and is not taken again."""
    try:
        p = probs if adopt else np.array(probs, dtype=np.float64, copy=True)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a vector of masses, got {probs!r}") from None
    if p.ndim != 1 or not p.size or K is not None and p.size != num_states(K):
        need = "one or more masses" if K is None else f"{num_states(K)} masses for capacity K={K}"
        raise ValueError(f"{name} must hold {need}, got shape {p.shape}")
    # NaN fails both comparisons; the offending rank is looked for
    # only on the way out, so a valid measure costs one min and one sum.
    low, total = p.min() if low is None else low, float(p.sum())
    if not (low >= 0.0 and abs(total - 1.0) <= _SUM_TOL):
        bad = np.flatnonzero(~np.isfinite(p))
        if bad.size:
            r = int(bad[0])
            raise ValueError(f"{name} holds non-finite mass {float(p[r])!r} at rank {r}")
        if low < 0.0:
            raise ValueError(f"{name} holds negative mass {float(low)!r} at rank {int(p.argmin())}")
        raise ValueError(f"{name} sums to {total!r}, not 1 within {_SUM_TOL}")
    p.setflags(write=False)
    return p


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

    def __post_init__(self, adopt: bool = False, low=None) -> None:
        object.__setattr__(self, "probs",
                           _masses("probs", self.probs, self.K, adopt=adopt, low=low))

    @classmethod
    def _adopt(cls, probs: np.ndarray, K: int, low=None) -> "Measure":
        """The measure whose masses are the float64 vector ``probs`` itself,
        after the checks every measure gets; ``probs`` is made read-only, and
        the caller must not keep a writable view of it.  A given ``low`` is
        the caller's own ``probs.min()``, or a positive lower bound of it."""
        m = object.__new__(cls)
        object.__setattr__(m, "probs", probs)
        object.__setattr__(m, "K", K)
        m.__post_init__(adopt=True, low=low)
        return m

    # ---- constructors -------------------------------------------------

    @staticmethod
    @_domain(state=_STATE, K=_SIZE0)
    def point(state: Iterable[int], K: int) -> "Measure":
        """Point mass at ``state``."""
        p = np.zeros(_budgeted_states(K))
        p[index_of(state, K)] = 1.0
        return Measure(p, K)

    @staticmethod
    @_domain(K=_SIZE0)
    def uniform(K: int) -> "Measure":
        """Uniform measure over all admissible states."""
        n = _budgeted_states(K)
        return Measure(np.full(n, 1.0 / n), K)

    # ---- conveniences --------------------------------------------------

    def __getitem__(self, state: Iterable[int]) -> float:
        return float(self.probs[index_of(tuple(state), self.K)])


Measure.__domain__ = dict(probs=_Rule(_masses, "finite masses `>= 0` summing to 1 within 1e-12"),
                          K=_SIZE0)


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
    return float(m.probs @ _per_rank(m.K)[0])


def prob_no_available(m: Measure) -> float:
    """Mass of states with no available car (y = 0)."""
    return float(m.probs[_per_rank(m.K)[1]].sum())


def prob_saturated(m: Measure) -> float:
    """Mass of states with all ``K`` spaces occupied or reserved."""
    return float(m.probs[_per_rank(m.K)[2]].sum())
