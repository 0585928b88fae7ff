"""Mean-field dynamics of the station-state distribution.

As the number of stations grows with car density held fixed, the
empirical distribution of station states follows a deterministic flow
on the probability simplex.  Five transition families drive it; writing
``pV`` for the mass of states with an available car and ``pF`` for the
mass of unsaturated states, a station in state ``(w, x, y, z)``:

1. gains a reservation for an inbound trip, ``w -> w + 1``, at rate
   ``lam * pV`` if a space is free (the trip starts wherever a car is
   available);
2. converts a reserved space into an inbound car, ``(w, x) ->
   (w - 1, x + 1)``, at rate ``nu * w``;
3. parks an inbound car, ``(x, y) -> (x - 1, y + 1)``, at rate
   ``mu * x``;
4. has an available car reserved for departure, ``(y, z) ->
   (y - 1, z + 1)``, at rate ``lam * pF`` if ``y > 0`` (the trip ends
   wherever a space is free);
5. sends a reserved car away, ``z -> z - 1``, at rate ``nu * z``.

The flow is nonlinear only through the scalars ``pV`` and ``pF``.  With
``c = (lam pV, nu, mu, lam pF, nu)`` the family rates are ``c[f]`` times
a count factor of the state.  Each family moves a state to at most one
destination and no two states to the same one, so the inflow into every
state is a gather: one source rank per family and destination (rank 0,
with weight 0, where there is none).  Family 5 (``z -> z - 1``) always
moves a state into the rank just before it, so its inflow is the slice
``v[1:]`` times its weights, and no state moves into the last rank by
it.  One drift evaluation is then two dot products for ``pV`` and
``pF``, one ``take`` of the other four families into a ``(4, n)`` block
of a ``(5, n)`` workspace, two in-place products with the inflow
weights (the block, and the slice into the last row) and two length-5
contractions, for the inflow and the total outflow rate.

A drift evaluation allocates no n-vector.  The caller owns the
workspace and the output vector: the workspace holds the ``(5, n)``
buffer, a writable copy of the four families' gather indices, the rate
vector ``c`` (only ``c[0]`` and ``c[3]`` change per call), the outflow
vector and the views of the buffer and the weights that each call
reads, and ``take`` writes into the buffer with ``mode="clip"``.
``take`` copies a read-only index array, and in its default mode it
buffers its output, so either would add a hidden temporary per call.
At K = 15 a ``(5, n)`` array is 155 KB, above glibc's mmap threshold:
allocating one per call maps and faults in fresh pages every time,
which costs more than the arithmetic it holds.

A step allocates nothing either.  The integrator allocates one
workspace, the four stage derivatives, one stage vector and two
inner-state vectors per call and reuses them for every step: inside a
plan entry of several steps the states alternate between the two inner
vectors.  :func:`integrate` and :func:`integrate_at` keep every state
they emit, so each run writes its emitted states into the rows of one
block allocated up front, rows padded to whole cache lines, and makes
the block read-only when it ends.  A run that streams its states and
drops them (the CLI, the attraction study) writes each into a new
vector instead, so its memory is bounded by what its caller keeps.

Every array a step reads or writes in bulk, the stencil tables, the
workspace, the stage vectors and the rows of the block, starts on a
64-byte boundary.  Where the heap happens to put them otherwise decides
whether numpy's vector loops split cache lines, and that alone moved
the step time by about 6% between runs of the same code.  An emitted
state is not copied: no state is written after it is made, so the
:class:`Measure` adopts it as its read-only masses, checked against the
minimum the run takes anyway.  Only a state with a mass at or below 0
is clamped into a new vector first, which keeps the clamp's bits, -0.0
to 0.0 included.

Integration is fixed-step classical Runge-Kutta; the step must satisfy
``dt * (lam + nu K + mu K) <= 0.5``.  One loop checks every state but
builds a :class:`Measure` only of those its caller keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    _CACHED_CAPACITIES,
    _NONNEG,
    _POSITIVE,
    Measure,
    ModelParams,
    _domain,
    _times,
    count_arrays,
    no_available_mask,
    num_states,
    ranks_of,
    saturated_mask,
)

__all__ = ["drift", "integrate", "integrate_at", "stationarity_residual"]


@dataclass(frozen=True)
class _Stencils:
    """Per-capacity drift tables, all read-only since they are cached.

    ``w_out[f, r]`` is the count factor of family ``f`` at rank ``r``
    (the indicator of the family's condition for families 1 and 4, the
    count ``w``, ``x`` or ``z`` otherwise), so family ``f`` carries mass
    out of ``r`` at rate ``c[f] * w_out[f, r]``.  ``gather[f, d]`` is the
    rank family ``f`` moves into ``d`` and ``w_in[f, d]`` its count
    factor; both are 0 where no state moves into ``d``.  ``avail_f`` and
    ``notfull_f`` are the rows of ``w_out`` that ``pV`` and ``pF`` sum.
    """

    n: int
    avail_f: np.ndarray    # 1.0 where y > 0
    notfull_f: np.ndarray  # 1.0 where occupancy < K
    w_out: np.ndarray      # (5, n) outflow count factors
    gather: np.ndarray     # (5, n) source rank of each inflow
    w_in: np.ndarray       # (5, n) count factor of that source


# (dw, dx, dy, dz) of each family, in the order of ``c``
_MOVES = ((+1, 0, 0, 0), (-1, +1, 0, 0), (0, -1, +1, 0), (0, 0, -1, +1), (0, 0, 0, -1))

_ALIGN = 64  # bytes: one cache line, and one AVX-512 vector


def _aligned(shape, dtype=np.float64, fill=None) -> np.ndarray:
    """A C-contiguous array of ``shape`` whose data starts on a 64-byte
    boundary, holding ``fill`` (broadcast) if given, uninitialised if not."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    a = raw[start:start + size].view(dtype).reshape(shape)
    if fill is not None:
        a[...] = fill
    return a


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """An uninitialised ``(rows, n)`` float64 array whose rows are padded to
    whole cache lines, so that each row starts on a 64-byte boundary."""
    return _aligned((rows, n - n % -(_ALIGN // 8)))[:, :n]


@lru_cache(maxsize=_CACHED_CAPACITIES)
def _stencils(K: int) -> _Stencils:
    w, x, y, z = count_arrays(K)
    n = num_states(K)
    notfull = ~saturated_mask(K)
    avail = ~no_available_mask(K)
    # each row of w_out, and with it the pV and pF vectors, starts on a
    # cache line without a second copy
    w_out = _aligned_rows(5, n)
    w_out[...] = np.stack([notfull, w, x, avail, z])
    gather = _aligned((5, n), np.intp, fill=0)
    w_in = _aligned((5, n), fill=0.0)
    for f, (dw, dx, dy, dz) in enumerate(_MOVES):
        src = np.flatnonzero(w_out[f])
        dst = ranks_of(w[src] + dw, x[src] + dx, y[src] + dy, z[src] + dz, K)
        gather[f, dst] = src
        w_in[f, dst] = w_out[f, src]
    for a in (w_out, gather, w_in):
        a.setflags(write=False)
    return _Stencils(n=n, avail_f=w_out[3], notfull_f=w_out[0], w_out=w_out,
                     gather=gather, w_in=w_in)


class _Workspace(NamedTuple):
    """Working state of :func:`_drift_raw` at one capacity and one set
    of rates; every call overwrites it.  The views are built once here."""

    lam: float
    c: np.ndarray       # (5,) family rates; c[1], c[2], c[4] are fixed
    buf: np.ndarray     # (5, n) inflow per family
    gather: np.ndarray  # (4, n) private writable copy of families 0-3's gather
    loss: np.ndarray    # (n,) outflow
    head: np.ndarray    # buf[:4], the gathered families
    w_head: np.ndarray  # w_in[:4], their weights
    tail: np.ndarray    # buf[4, :-1], the inflow of z -> z - 1, from the next rank
    w_tail: np.ndarray  # w_in[4, :-1], its weights


def _workspace(st: _Stencils, p: ModelParams) -> _Workspace:
    """Workspace for drift evaluations at rates ``p``, its arrays aligned.
    The gather indices are copied once here because ``take`` would copy the
    read-only cached ones on every call.  No state moves into the last rank
    by ``z -> z - 1``, so ``buf[4, -1]`` is set to 0 once."""
    buf = _aligned((5, st.n))
    buf[4, -1] = 0.0
    return _Workspace(lam=p.lam, c=np.array((0.0, p.nu, p.mu, 0.0, p.nu)), buf=buf,
                      gather=_aligned((4, st.n), np.intp, fill=st.gather[:4]),
                      loss=_aligned(st.n), head=buf[:4], w_head=st.w_in[:4],
                      tail=buf[4, :-1], w_tail=st.w_in[4, :-1])


def _drift_raw(v: np.ndarray, st: _Stencils, ws: _Workspace,
               out: np.ndarray) -> np.ndarray:
    """Write the drift of a raw vector into ``out`` and return it; also
    accepts the slightly off-simplex vectors that appear inside
    Runge-Kutta stages.  ``out`` must not share memory with ``v``.
    """
    lam, c, buf, gather, loss, head, w_head, tail, w_tail = ws
    c[0] = lam * float(v @ st.avail_f)
    c[3] = lam * float(v @ st.notfull_f)
    v.take(gather, out=head, mode="clip")
    head *= w_head
    np.multiply(v[1:], w_tail, out=tail)
    np.matmul(c, buf, out=out)
    np.matmul(c, st.w_out, out=loss)
    loss *= v
    out -= loss
    return out


def drift(m: Measure, p: ModelParams) -> np.ndarray:
    """Instantaneous drift of ``m`` under the five transition families,
    as a read-only vector over ranks.

    Its entries sum to zero, since the flow conserves mass.  That is
    checked against a tolerance scaled by the total flow magnitude: at
    unit rates it is the plain 1e-12, at large rates the same relative
    accuracy is required.
    """
    if m.K != p.K:
        raise ValueError(f"measure capacity {m.K} != model capacity {p.K}")
    st = _stencils(p.K)
    d = _drift_raw(m.probs, st, _workspace(st, p), np.empty(st.n))
    if abs(float(d.sum())) > 1e-12 * max(1.0, float(np.abs(d).sum())):
        raise RuntimeError(f"drift entries sum to {d.sum()!r}, not 0")
    d.setflags(write=False)
    return d


def stationarity_residual(m: Measure, p: ModelParams) -> float:
    """Largest absolute drift entry; zero exactly at fixed points."""
    return float(np.abs(drift(m, p)).max())


def _check_step(p: ModelParams, dt: float, name: str) -> None:
    """The step guard, across arguments: ``dt (lam + nu K + mu K) <= 0.5``."""
    guard = dt * p.rate_bound
    if guard > 0.5:
        raise ValueError(
            f"{name} * (lam + nu K + mu K) = {guard:.3g} exceeds the stability "
            f"bound 0.5; shrink {name}"
        )


def _default_dt(p: ModelParams) -> float:
    """The studies' step ``0.25 / (lam + nu K + mu K)``, half the guard's bound."""
    if not np.isfinite(p.rate_bound):
        raise ValueError(f"the rate bound lam + nu K + mu K at lam={p.lam!r}, nu={p.nu!r}, "
                         f"mu={p.mu!r}, K={p.K} is not finite, and the step would be 0")
    return 0.25 / p.rate_bound


def _rk4(
    v: np.ndarray, p: ModelParams, st: _Stencils,
    plan: Iterable[tuple[float, int, float]], rows: np.ndarray | None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Run ``plan``: for each ``(t, steps, h)`` take ``steps`` classical
    Runge-Kutta steps of length ``h`` from ``v``, then yield ``(t, v)``.

    The drift workspace, the four stage derivatives, the stage vector
    and two inner-state vectors of the whole run are allocated here,
    64-byte aligned.  Inside a plan entry the states alternate between
    the two inner vectors; each entry's last state goes into its row of
    ``rows`` if given (a zero-step entry copies its state there), else
    into a new vector, so a step allocates at most that vector.  The
    in-place updates evaluate the textbook expressions ``v + 0.5 h k1``
    and ``v + h/6 (k1 + 2 k2 + 2 k3 + k4)`` operation by operation in
    the same order, so the states are bit-identical to that form.  No
    yielded state is written after it is made: the caller's vector may
    be passed, and a yielded state is shared with nothing the run writes.
    """
    ws = _workspace(st, p)
    k1, k2, k3, k4, stage, inner, other = (_aligned(st.n) for _ in range(7))
    for i, (t, steps, h) in enumerate(plan):
        row = None if rows is None else rows[i]
        for j in range(steps):
            _drift_raw(v, st, ws, k1)
            np.multiply(0.5 * h, k1, out=stage)
            stage += v
            _drift_raw(stage, st, ws, k2)
            np.multiply(0.5 * h, k2, out=stage)
            stage += v
            _drift_raw(stage, st, ws, k3)
            np.multiply(h, k3, out=stage)
            stage += v
            _drift_raw(stage, st, ws, k4)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= h / 6.0
            if j < steps - 1:
                inner, other = other, inner
                v = np.add(v, k2, out=inner)
            else:
                v = np.add(v, k2, out=row)
        if not steps and row is not None:
            row[...] = v
            v = row
        yield t, v


@_domain(T=_NONNEG, dt=_POSITIVE)  # then the step guard
def _grid_plan(p: ModelParams, T: float, dt: float) -> tuple[Iterator, int]:
    """:func:`integrate`'s lazy plan and step count: a step of ``dt`` to each
    ``(k + 1) dt``, then a shortened one onto ``T`` if it is off that grid.
    Its declaration is :func:`integrate`'s, checked here for every caller."""
    _check_step(p, dt, "dt")
    n_full = int(np.floor(T / dt + 1e-9))
    t = n_full * dt
    tail = [(T, 1, T - t)] if T - t > 1e-9 * max(1.0, T) else []
    return chain((((k + 1) * dt, 1, dt) for k in range(n_full)), tail), n_full + len(tail)


def _frozen(a: np.ndarray) -> None:
    """Make ``a`` and every array it views read-only, down to its owner."""
    while a is not None:
        a.setflags(write=False)
        a = a.base


def _stream(m0: Measure, p: ModelParams, plan: Iterable, n: int,
            every: int = 1, keep: bool = False) -> Iterator[tuple[float, Measure]]:
    """Run the ``n`` entries of ``plan`` from ``m0``, checking every state (a
    mass below -1e-12 aborts the run), and yield ``(t, Measure)`` at every
    ``every``-th entry and the last.  A state whose masses are all positive
    becomes the measure's read-only masses itself.  Any other is clamped to
    ``>= 0`` (a -0.0 to 0.0 too), without renormalizing, into a new vector
    that the measure adopts; the run reads the unclamped state for its next
    step.

    With ``keep`` (and ``every`` 1), for a caller that keeps every measure,
    the states are the rows of one block of :func:`_aligned_rows`, made
    read-only once the run ends."""
    if m0.K != p.K:
        raise ValueError(f"measure capacity {m0.K} != model capacity {p.K}")
    st = _stencils(p.K)
    rows = _aligned_rows(n, st.n) if keep else None
    for i, (t, v) in enumerate(_rk4(m0.probs, p, st, plan, rows), 1):
        lo = float(v.min())
        if lo < -1e-12:
            raise RuntimeError(
                f"integration produced mass {lo!r} at t={t}; the step is unstable"
            )
        if i % every == 0 or i == n:
            yield t, (Measure._adopt(v, p.K, lo) if lo > 0.0 else
                      Measure._adopt(np.clip(v, 0.0, None), p.K))
    if keep:
        _frozen(rows)


def integrate(
    m0: Measure, p: ModelParams, T: float, dt: float
) -> list[tuple[float, Measure]]:
    """Integrate the mean-field flow from ``m0`` over ``[0, T]``.

    Classical fixed-step fourth-order Runge-Kutta on the grid
    ``{0, dt, 2 dt, ..., T}``; if ``T`` is not an integer multiple of
    ``dt`` the final step is shortened to land exactly on ``T``.  Every
    output is validated as a probability measure and holds its own step's
    state: a mass in ``[-1e-12, 0)`` reads 0.  The returned measures after
    ``m0`` hold rows of one read-only block (all but a clamped state, which
    has its own vector), so keeping one of them keeps the whole block.
    """
    return [(0.0, m0), *_stream(m0, p, *_grid_plan(p, T, dt), keep=True)]


integrate.__domain__ = _grid_plan.__domain__  # which _grid_plan checks


@_domain(times=_times(), dt_max=_POSITIVE)
def integrate_at(
    m0: Measure, p: ModelParams, times: Sequence[float], dt_max: float
) -> list[Measure]:
    """Measures at the given increasing ``times``, starting from ``m0``
    at time 0.

    Each segment between consecutive output times is covered by equal
    steps no longer than ``dt_max``, so outputs land exactly on the
    requested instants.  Every time must be finite and ``>= 0``.  As in
    :func:`integrate`, the measures hold rows of one read-only block.
    """
    _check_step(p, dt_max, "dt_max")
    plan, prev = [], 0.0
    for t in times:
        span = t - prev
        n = max(1, int(np.ceil(span / dt_max - 1e-12))) if span > 0 else 0
        plan.append((t, n, span / n if n else 0.0))
        prev = t
    return [m for _, m in _stream(m0, p, plan, len(plan), keep=True)]
