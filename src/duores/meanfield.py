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
vectors.

Every flow runs through one loop, ``_flows_at``, which steps one or
more starts through the same plan, checks every state and emits a
:class:`Measure` per start.  A run that keeps every state
(:func:`integrate`, :func:`integrate_at`, a replica study's flows from
each of its sizes' placements) writes them into the rows of one block
allocated up front, a row per plan entry and start, rows padded to
whole cache lines, and makes the block read-only when it ends.  A run
that streams its states and drops them (the CLI, the attraction study)
writes each into a new vector instead, so its memory is bounded by what
its caller keeps.  The starts go in groups of ``G = max(1,
_GROUP_MASSES // n)`` rows: 351 at K = 3, 12 at K = 10, 3 at K = 15 and
one from K = 18.  A group of one row is a single run, stepped by
``_drift_raw``, bit for bit.  A larger group steps its ``(G, n)`` block
of states through the same steps with ``_drift_block``, which makes the
products of ``_drift_raw`` in four calls for the whole group: one
``(G, n) @ (n, 2)`` product for every row's ``pV`` and ``pF``; one
``take`` along axis 1 that gathers all five families into a ``(G, 5,
n)`` buffer (the fifth by its gather row, not by a slice), weighted in
place; one batched ``(G, 1, 5) @ (G, 5, n)`` product that sums each
row's five inflows; and one ``(G, 5) @ (5, n)`` product for the outflow
rates, times the masses.  Only the order in which the products sum
their terms differs from a single run, so a row of a group can differ
from the single run of its start in the last bits.  Above
``_GROUP_MASSES`` masses a group's buffers leave the cache, and one row
at a time is faster.

Every array a step reads or writes in bulk, the stencil tables, the
workspace, the stage vectors and the rows of the block, starts on a
64-byte boundary.  Where the heap happens to put them otherwise decides
whether numpy's vector loops split cache lines, and that alone moved
the step time by about 6% between runs of the same code.  An emitted
state is not copied: no state is written after it is made, so the
:class:`Measure` adopts it as its read-only masses, checked against the
least mass of its plan entry's states, which the loop takes anyway.
Only where that least mass is at or below 0 are the entry's states
clamped into new vectors first, which keeps the clamp's bits, -0.0 to
0.0 included.

Integration is fixed-step classical Runge-Kutta.  The step must satisfy
``dt * q_max <= 1``, where ``q_max = 2 lam + max(nu, mu) K`` bounds every
state's exit rate (RK4's positivity threshold, :func:`_check_step`), and
the plan's steps and kept block pass the budget gate, ``core._gate``.
The studies step at half that bound, ``0.5 / q_max``
(:func:`_default_dt`).  The one loop checks every state but builds a
:class:`Measure` only of those its caller keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, tee
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    _CACHED_CAPACITIES,
    _NONNEG,
    _POSITIVE,
    Measure,
    ModelParams,
    _domain,
    _gate,
    _per_rank,
    _states,
    _times,
    count_arrays,
    num_states,
    ranks_of,
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
    _, empty, full = _per_rank(K)
    notfull, avail = ~full, ~empty
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


class _BlockWorkspace(NamedTuple):
    """Working state of :func:`_drift_block` at one capacity, one set of
    rates and one group of ``G`` rows; every call overwrites it."""

    lam: float
    c: np.ndarray       # (G, 5) family rates per row; columns 1, 2, 4 are fixed
    rates: np.ndarray   # c[:, ::3], the columns lam pV and lam pF
    pq: np.ndarray      # (G, 2) pV and pF per row
    cols: np.ndarray    # (n, 2) avail_f and notfull_f as columns
    buf: np.ndarray     # (G, 5, n) inflow per row and family
    gather: np.ndarray  # (5, n) private writable copy of every family's gather
    loss: np.ndarray    # (G, n) outflow


def _block_workspace(st: _Stencils, p: ModelParams, G: int) -> _BlockWorkspace:
    """Workspace for drift evaluations of ``G`` rows at rates ``p``, its
    arrays aligned.  The fifth family is gathered with the other four:
    its index row moves each rank's inflow from the next rank, and the last
    rank's weight is 0."""
    c = _aligned((G, 5), fill=(0.0, p.nu, p.mu, 0.0, p.nu))
    cols = _aligned((st.n, 2), fill=np.stack((st.avail_f, st.notfull_f), axis=1))
    cols.setflags(write=False)
    return _BlockWorkspace(lam=p.lam, c=c, rates=c[:, ::3], pq=_aligned((G, 2)), cols=cols,
                           buf=_aligned((G, 5, st.n)),
                           gather=_aligned((5, st.n), np.intp, fill=st.gather),
                           loss=_aligned((G, st.n)))


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


def _drift_block(V: np.ndarray, st: _Stencils, ws: _BlockWorkspace,
                 out: np.ndarray) -> np.ndarray:
    """:func:`_drift_raw` of each row of the ``(G, n)`` block ``V``, written
    into the rows of ``out``, which must not share memory with ``V``: the
    same products, contracted in the order the module docstring gives."""
    lam, c, rates, pq, cols, buf, gather, loss = ws
    np.matmul(V, cols, out=pq)
    np.multiply(lam, pq, out=rates)
    V.take(gather, axis=1, out=buf, mode="clip")
    buf *= st.w_in
    np.matmul(c[:, None, :], buf, out=out[:, None, :])
    np.matmul(c, st.w_out, out=loss)
    loss *= V
    out -= loss
    return out


def _fits(m: Measure, p: ModelParams) -> None:
    """Refuse a measure of another capacity than the model's."""
    if m.K != p.K:
        raise ValueError(f"measure capacity {m.K} != model capacity {p.K}")


def drift(m: Measure, p: ModelParams) -> np.ndarray:
    """Instantaneous drift of ``m`` under the five transition families,
    as a read-only vector over ranks.

    Its entries sum to zero, since the flow conserves mass.  That is
    checked against a tolerance scaled by the total flow magnitude: at
    unit rates it is the plain 1e-12, at large rates the same relative
    accuracy is required.
    """
    _fits(m, p)
    st = _stencils(p.K)
    d = _drift_raw(m.probs, st, _workspace(st, p), np.empty(st.n))
    if abs(float(d.sum())) > 1e-12 * max(1.0, float(np.abs(d).sum())):
        raise RuntimeError(f"drift entries sum to {d.sum()!r}, not 0")
    d.setflags(write=False)
    return d


def stationarity_residual(m: Measure, p: ModelParams) -> float:
    """Largest absolute drift entry; zero exactly at fixed points."""
    return float(np.abs(drift(m, p)).max())


MAX_STEPS = 1_000_000
"""Largest step count of one integration plan, ``T / dt`` or the steps of
:func:`integrate_at`'s segments.  A step of :func:`integrate` at K = 3
took about 38 us of CPU on a 2-core Xeon VM (Python 3.11, numpy 2.4, one
BLAS thread; the median of 31 calls of 2000 steps), so the budget is
about 40 s of steps there."""


def _exit_bound(p: ModelParams) -> float:
    """``q_max = 2 lam + max(nu, mu) K``, a bound on every state's exit rate
    ``lam pV + lam pF + nu (w + z) + mu x``, as ``w + x + z <= K``."""
    return 2.0 * p.lam + max(p.nu, p.mu) * p.K


def _check_step(p: ModelParams, span: float, dt: float, names: tuple[str, str],
                steps: float) -> tuple:
    """The guard ``dt q_max <= 1`` (:func:`_exit_bound`) of a plan of
    ``steps`` steps of at most ``dt`` over ``span``, checked here, then its
    use of :data:`MAX_STEPS` for the gate; ``names`` are those of ``span``
    and ``dt``.

    The guard is RK4's positivity threshold.  With ``pV`` and ``pF``
    frozen the flow is linear, ``v' = v A``, with ``A = q_max (B - I)``
    and ``B = I + A / q_max`` nonnegative.  A step multiplies ``v`` by
    ``R(h A)``, where ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.  Expanded
    about ``-r = -h q_max``, ``R(h A)`` is the sum over ``k`` of ``R^(k)(-r)
    (r B)^k / k!``, and every derivative of ``R`` is ``>= 0`` on ``[-1,
    0]`` (on no longer interval: the third vanishes at -1).  So a step with
    ``r <= 1`` maps nonnegative masses to nonnegative masses: RK4's
    threshold factor is 1 (Kraaijevanger, "Contractivity of Runge-Kutta
    methods", BIT 1991).  The argument does not cover ``pV`` and ``pF``
    changing between a step's stages; :func:`_flows_at`'s check of every
    mass catches what it misses.  As ``q_max <= 2 (lam + nu K + mu K)``,
    the guard accepts every step that ``dt (lam + nu K + mu K) <= 0.5``
    accepts."""
    guard = dt * _exit_bound(p)
    if guard > 1.0:
        raise ValueError(
            f"{names[1]} * (2 lam + max(nu, mu) K) = {guard!r} exceeds the positivity "
            f"bound 1; shrink {names[1]}"
        )
    return "MAX_STEPS", steps, lambda: (f"{names[0]} / {names[1]} = {span!r} / {dt!r} asks "
                                        f"for {steps:.3g} steps")


def _budgeted_block(p: ModelParams, rows: int, span: float, dt: float,
                    names: tuple[str, str]) -> tuple:
    """The planned uses of a kept block of ``rows`` states at capacity
    ``p.K``: its states, then its bytes, each row padded to whole cache
    lines.  ``names`` are those of ``span`` and ``dt``."""
    n = num_states(p.K)
    return _states(p.K), ("MAX_KEPT_BYTES", rows * _row_bytes(n), lambda: (
        f"{names[0]} / {names[1]} = {span!r} / {dt!r} keeps {rows} states of {n} masses"))


def _row_bytes(n: int) -> int:
    """Bytes of a kept state of ``n`` masses, padded to whole cache lines."""
    return 8 * (n - n % -(_ALIGN // 8))


def _default_dt(p: ModelParams) -> float:
    """The studies' step ``0.5 / q_max``, half the guard's bound.  At the
    bound itself, ``1 / q_max``, flows from point masses went below zero in
    21 of 72 cells of K <= 15 and nine rate sets, down to -2.2e-5, and at
    0.5 and 0.75 times it in none (``tools/layers.py positivity``)."""
    q_max = _exit_bound(p)
    if not np.isfinite(q_max):
        raise ValueError(f"the exit-rate bound 2 lam + max(nu, mu) K at lam={p.lam!r}, "
                         f"nu={p.nu!r}, mu={p.mu!r}, K={p.K} is not finite, and the step "
                         f"would be 0")
    return 0.5 / q_max


def _rk4(
    v: np.ndarray, p: ModelParams, st: _Stencils,
    plan: Iterable[tuple[float, int, float]], rows: np.ndarray | None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Run ``plan``: for each ``(t, steps, h)`` take ``steps`` classical
    Runge-Kutta steps of length ``h`` from ``v``, then yield ``(t, v)``.
    ``v`` is one state, stepped by :func:`_drift_raw`, or a ``(G, n)``
    group of states, stepped together by :func:`_drift_block`.

    The drift workspace, the four stage derivatives, the stage vector
    and two inner-state vectors of the whole run are allocated here,
    64-byte aligned, each of ``v``'s shape.  Inside a plan entry the
    states alternate between the two inner vectors; each entry's last
    state goes into its row of ``rows`` if given (a zero-step entry
    copies its state there), else into a new vector, so a step allocates
    at most that vector.  The
    in-place updates evaluate the textbook expressions ``v + 0.5 h k1``
    and ``v + h/6 (k1 + 2 k2 + 2 k3 + k4)`` operation by operation in
    the same order, so the states are bit-identical to that form.  No
    yielded state is written after it is made: the caller's vector may
    be passed, and a yielded state is shared with nothing the run writes.
    """
    kernel, ws = ((_drift_raw, _workspace(st, p)) if v.ndim == 1 else
                  (_drift_block, _block_workspace(st, p, len(v))))
    k1, k2, k3, k4, stage, inner, other = (_aligned(v.shape) for _ in range(7))
    for i, (t, steps, h) in enumerate(plan):
        row = None if rows is None else rows[i]
        for j in range(steps):
            kernel(v, st, ws, k1)
            np.multiply(0.5 * h, k1, out=stage)
            stage += v
            kernel(stage, st, ws, k2)
            np.multiply(0.5 * h, k2, out=stage)
            stage += v
            kernel(stage, st, ws, k3)
            np.multiply(h, k3, out=stage)
            stage += v
            kernel(stage, st, ws, k4)
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
    Its declaration is :func:`integrate`'s, checked here for every caller,
    and so are the step rules."""
    _gate(_check_step(p, T, dt, ("T", "dt"), T / dt))
    n_full = int(np.floor(T / dt + 1e-9))
    t = n_full * dt
    tail = [(T, 1, T - t)] if T - t > 1e-9 * max(1.0, T) else []
    return chain((((k + 1) * dt, 1, dt) for k in range(n_full)), tail), n_full + len(tail)


def _frozen(a: np.ndarray) -> None:
    """Make ``a`` and every array it views read-only, down to its owner."""
    while a is not None:
        a.setflags(write=False)
        a = a.base


_GROUP_MASSES = 12_288
"""Masses of one group of :func:`_flows_at`'s run of several starts:
``max(1, _GROUP_MASSES // n)`` states of ``n`` masses step together.
Three flows stepped as one group took 0.44x the CPU of three single runs
at K = 3, 0.71x at K = 10 and 0.91x to 0.93x at K = 15 (11 628 masses),
and 1.07x to 1.15x at K = 20 (31 878 masses), where a group's arrays,
about 112 bytes a mass, outgrow a core's 2 MB L2 cache (``tools/layers.py
flow``, the ``study_flows_K{K}`` rows).  The bound keeps every group
within the largest size measured to gain."""


def _flows_at(starts: Sequence[Measure], p: ModelParams, plan: Iterable, n: int,
              every: int = 1, keep: bool = False) -> Iterator[tuple[float, list[Measure]]]:
    """Run the ``n`` entries of ``plan`` from each of ``starts``, which are
    of capacity ``p.K``, checking every state (a mass below -1e-12 aborts
    the run), and yield ``(t, [a Measure per start])`` at every
    ``every``-th entry and the last.  Where every mass of an entry's
    states is positive, each state becomes its measure's read-only masses
    itself, checked against the entry's least mass.  Else each is clamped
    to ``>= 0`` (a -0.0 to 0.0 too), without renormalizing, into a new
    vector that the measure adopts; the run reads the unclamped states
    for its next step.

    The starts go in groups of at most :data:`_GROUP_MASSES` masses (one
    row at least), each a :func:`_rk4` run of its own, all advanced one
    plan entry at a time (a lazy plan is shared through ``tee``, which
    holds at most one entry).  A group of one row is a single run; a
    larger group contracts its sums in another order, so its states can
    differ from the single runs of its starts in the last bit.  With
    ``keep`` (and ``every`` 1), for a caller that keeps every measure, the
    states are the rows of one block of :func:`_aligned_rows`, a row per
    entry and start, made read-only once the run ends; without it each
    state is a new array."""
    st = _stencils(p.K)
    B, G = len(starts), max(1, _GROUP_MASSES // st.n)
    rows = _aligned_rows(n * B, st.n).reshape(n, B, st.n) if keep else None
    firsts = range(0, B, G)
    runs = []
    for g, part in zip(firsts, tee(plan, len(firsts)) if len(firsts) > 1 else (plan,)):
        group = [m.probs for m in starts[g:g + G]]
        v, at = (group[0], g) if len(group) == 1 else (np.stack(group), slice(g, g + G))
        runs.append(_rk4(v, p, st, part, None if rows is None else rows[:, at]))
    for i, entries in enumerate(zip(*runs), 1):
        lo = np.inf
        for t, V in entries:  # every run is at the same t
            lo = min(lo, float(V.min()))
        if lo < -1e-12:
            raise RuntimeError(f"integration produced mass {lo!r} at t={t}; the step is unstable")
        if i % every == 0 or i == n:
            yield t, [Measure._adopt(v, p.K, lo) if lo > 0.0 else
                      Measure._adopt(np.clip(v, 0.0, None), p.K)
                      for _, V in entries for v in (V if V.ndim > 1 else (V,))]
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
    has its own vector), so keeping one of them keeps the whole block; a
    block above :data:`~duores.core.MAX_KEPT_BYTES` is refused before any step,
    and a measure of another capacity than ``p``'s before any budget.
    """
    _fits(m0, p)
    plan, n = _grid_plan(p, T, dt)
    _gate(*_budgeted_block(p, n, T, dt, ("T", "dt")))
    return [(0.0, m0), *((t, m) for t, (m,) in _flows_at([m0], p, plan, n, keep=True))]


integrate.__domain__ = _grid_plan.__domain__  # which _grid_plan checks


def _times_plan(p: ModelParams, times: tuple, dt_max: float,
                names: tuple[str, str] = ("times", "dt_max")) -> list:
    """:func:`integrate_at`'s plan: each segment between consecutive times
    in ``max(1, ceil(span / dt_max))`` equal steps, none for an empty one.
    The step rules count the plan's own steps, and its kept block, a row
    per time, is budgeted; ``names`` are those of ``times`` and ``dt_max``."""
    spans = np.diff(times, prepend=0.0)
    with np.errstate(over="ignore"):  # a subnormal step asks for inf steps, refused next
        steps = np.where(spans > 0, np.maximum(1.0, np.ceil(spans / dt_max - 1e-12)), 0.0)
    span = times[-1] if times else 0.0
    _gate(_check_step(p, span, dt_max, names, float(steps.sum())),
          *_budgeted_block(p, len(times), span, dt_max, names))
    return list(zip(times, steps.astype(np.int64).tolist(),
                    (spans / np.maximum(steps, 1.0)).tolist()))


@_domain(times=_times(), dt_max=_POSITIVE)
def integrate_at(
    m0: Measure, p: ModelParams, times: Sequence[float], dt_max: float
) -> list[Measure]:
    """Measures at the given increasing ``times``, starting from ``m0``
    at time 0.

    Each segment between consecutive output times is covered by equal
    steps no longer than ``dt_max``, so outputs land exactly on the
    requested instants.  Every time must be finite and ``>= 0``.  As in
    :func:`integrate`, the measures hold rows of one read-only block, and
    a plan of more than :data:`MAX_STEPS` steps or a block above
    :data:`~duores.core.MAX_KEPT_BYTES` is refused before any step, and a
    measure of another capacity than ``p``'s before any budget.
    """
    _fits(m0, p)
    plan = _times_plan(p, times, dt_max)
    return [m for _, (m,) in _flows_at([m0], p, plan, len(plan), keep=True)]
