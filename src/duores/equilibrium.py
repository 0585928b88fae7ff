"""Product-form equilibrium and fixed-point solver.

The stationary one-station law of the symmetric network is the
truncated product form of a four-queue cycle, one queue per station
role: spaces reserved ahead of a trip (``w``, infinite-server rate
``nu``), cars inbound (``x``, infinite-server rate ``mu``), cars parked
and available (``y``, single-server), and parked cars reserved for
departure (``z``, infinite-server rate ``nu``), truncated to total
occupancy at most ``K``.  With traffic intensities
``(eta1, rho1, rho2, eta2)`` the unnormalized weight of state
``(w, x, y, z)`` is::

    eta1^w / w!  *  rho1^x / x!  *  rho2^y  *  eta2^z / z!

The self-consistent intensities solve a fixed point: each of
``eta1 = eta2 = (lam/nu) (1 - P[no available car])`` and
``rho1 = (lam/mu) (1 - P[no available car])`` ties the inflow seen by a
queue to the acceptance probability, ``rho2`` balances the available
queue against saturation, and the car density must hit the prescribed
fill ``s``.

Solving goes through a two-variable reduction.  Aggregating the three
infinite-server roles (valid exactly when ``eta1 = eta2 = (mu/nu)
rho1``) collapses the state to ``(i, j) = (w + x + z, y)`` with weights
``t^i / i! * r^j`` where ``t = (1 + 2 mu/nu) rho1``.  On that family,
with ``a = (lam/mu)(1 + 2 mu/nu)``, the first fixed-point equation
``(a - t) Z(t, r) = a sum_{i<=K} t^i/i!`` has a unique root ``r = phi(t)``
per ``t`` in ``(0, a)``, and the car density along that curve is a
weighted mean that must equal ``s``, which an outer bisection on ``t``
enforces within ``_FILL_TOL``.  Every step is O(K), and the solve takes
``K`` up to :data:`MAX_SOLVE_K`.  The family is private: its kernels
serve the solver and two checks of :mod:`duores.verify`, the
monotonicity scan and the balance-identity suite.

Every reduced-family quantity comes from one O(K) pass,
``_reduced_sums(x, y, K)``, which returns the normalizing constant
``Z``, its derivative ``dZ/dy``, the partial exponential ``E`` (the
weight of ``j = 0``) and ``Z_{K-1}`` (the constant one capacity lower),
all scaled by one power of two so that no step overflows.  The weighted
mean ``E[c i + j] = (c x Z_{K-1} + y dZ/dy) / Z`` is ``_sums_mean``: the
car density at ``c = 1`` and the fill at ``c = _car_weight(mu/nu)``.

Each curve point is one call of the kernel ``_curve_point``, which
returns ``phi(t)`` and the pass's sums there: the bisection reads its
fill and the solver ``rho2`` from that call, as the monotonicity scan
reads its phi rows and the fill rows of every reservation speed.
The pass has two factors, ``Z = sum_n E_n(x) y^(K-n)``; a curve point
holds ``x`` fixed, so
``_curve_point`` builds the partial exponentials ``E_n`` once and runs
only the Horner stage in ``y`` at each step, which gives the pass's own
doubles; at a ``y`` where the pass would rescale, the full pass runs.
The remaining balance equation for ``rho2`` holds identically on the
curve and is asserted, never solved.

The bisection hands each curve point the bracket, ``(t, phi)`` at both
ends, and the point is solved in one of two ways: cold, from ``y = 1``,
or warm, inside the bracket.  ``phi`` increases along the curve, so once
the bracket has an upper end, ``phi(t)`` lies between ``phi`` at its two
ends (0 at ``t = 0``): the point starts between them, geometrically
interpolated in ``t`` (linearly while the lower end is ``t = 0``), and
Newton's method runs within them as bounds.  Both searches close by one
rule: at two adjacent doubles, they take the one where ``|log((a - t) Z
/ (a E))|`` is smaller.  Bounds are phi at other values of ``t``, never
evaluated at this one, so a search that would take one, or runs out of
steps, returns nothing, and the point is solved cold, as every point is
before an upper end exists.  On a ``sweep`` pass of the benchmark (seed
1, 9424 fill evaluations) none of the 8489 bracketed searches returns
nothing, and the pass runs 26 902 Horner stages, against 67 135 from the
cold start alone.  A warm point ends on another double than the cold
one, a few ulps away, and its fill differs by up to about ``2e-17 K^2``
(measured up to K = 2000).  So where the warm fill lies within
``_FILL_TOL + _warm_band(K)`` of ``s``, where that gap could flip a
decision, the point is solved cold, and the cold point decides: every
step, the stop and the returned ``rho2`` are those of an all-cold
bisection, bit for bit.  No point is solved cold twice.  Only the fills
an error message quotes may differ, in their last digits.

The residuals are not read from the reduced family: ``_state_sums``
takes them from O(K^2) convolutions of the four one-coordinate weight
vectors, a path that shares no code with the pass, so the residuals
cross-check it.  A solve builds nothing with one entry per station
state.  ``product_form`` builds the four-coordinate measure in log
space for callers that need it, and ``_simple_form`` is the (K+1, K+1)
reference array of the reduced family, from which the balance-identity
suite reads its saturated and no-car masses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .core import (_CACHED_CAPACITIES, _NONNEG, _POSITIVE, _SIZE0, Measure, ModelParams, _domain,
                   _gate, count_arrays)

__all__ = [
    "RateRatios",
    "SolveReport",
    "MultipleEquilibriaError",
    "product_form",
    "solve_equilibrium",
]


# ============================================================
# Rate ratios and the truncated product form
# ============================================================

@dataclass(frozen=True)
@_domain(eta1=_NONNEG, rho1=_NONNEG, rho2=_NONNEG, eta2=_NONNEG)
class RateRatios:
    """Traffic intensities ``(eta1, rho1, rho2, eta2)`` of the four
    station roles, ordered to match ``StationState`` as
    ``(w, x, y, z)``."""

    eta1: float
    rho1: float
    rho2: float
    eta2: float

    @property
    def rho1_tilde(self) -> float:
        """Aggregated intensity of the three infinite-server roles,
        ``eta1 + rho1 + eta2`` (equals ``(1 + 2 mu/nu) rho1`` on
        consistent ratios)."""
        return self.eta1 + self.rho1 + self.eta2


@lru_cache(maxsize=_CACHED_CAPACITIES)
def _log_factorials(K: int) -> np.ndarray:
    f = np.array([math.lgamma(n + 1) for n in range(K + 1)], dtype=np.float64)
    f.setflags(write=False)
    return f


def _xlogr(counts: np.ndarray, r: float) -> np.ndarray:
    """``counts * log(r)``, with ``0 * log(0) = 0``."""
    if r > 0.0:
        return counts * math.log(r)
    return np.where(counts == 0, 0.0, -np.inf)


def _normalized_weights(rho: RateRatios, K: int) -> np.ndarray:
    """Product-form probabilities, built in log space so that no weight
    over- or underflows before normalization."""
    w, x, y, z = count_arrays(K)
    lf = _log_factorials(K)
    logw = (
        _xlogr(w, rho.eta1) + _xlogr(x, rho.rho1)
        + _xlogr(y, rho.rho2) + _xlogr(z, rho.eta2)
        - lf[w] - lf[x] - lf[z]
    )
    logw -= logw.max()
    e = np.exp(logw)
    return e / e.sum()


@_domain(K=_SIZE0)
def product_form(rho: RateRatios, K: int) -> Measure:
    """Truncated product-form measure with intensities ``rho``."""
    return Measure(_normalized_weights(rho, K), K)


def _state_sums(rho: RateRatios, K: int) -> tuple[float, float, float]:
    """``(P[y > 0], P[w + x + y + z < K], E[x + y + z])`` under the
    truncated product form, from O(K^2) convolutions over the total
    occupancy ``n``; nothing with one entry per state is built.

    The weight vectors ``eta1^k/k!``, ``rho1^k/k!``, ``rho2^k`` and
    ``eta2^k/k!`` over ``k = 0..K`` are built in log space, tilted by
    ``theta^-k`` with ``theta = max(1, rho2, (eta1 + rho1 + eta2)/K)``,
    and each scaled by its max.  The sums over ``n`` are then weighted by
    ``theta^(n - K) <= 1``, which undoes the tilt.  The tilt moves the
    state made of the four modes inside the truncation, so every state
    weighs at most its tilted weight, at most 1, and the heaviest state
    weighs within a small factor of 1: the entries that underflow to 0
    are negligible, and nothing overflows.  Both probabilities are
    summed directly over their states, never taken as one minus the
    rest, so each keeps its relative accuracy when small: the
    unsaturated mass near saturation, the acceptance at slow
    reservations.
    """
    intensities = (rho.eta1, rho.rho1, rho.rho2, rho.eta2)
    log_theta = math.log(max(1.0, rho.rho2, rho.rho1_tilde / K))
    k = np.arange(K + 1)
    lv = np.zeros((4, K + 1))
    lv[:, 1:] = np.multiply.outer(
        [math.log(r) - log_theta if r > 0.0 else -math.inf for r in intensities], k[1:])
    lf = _log_factorials(K)
    lv -= lf
    lv[2] += lf  # rho2^k has no factorial
    w, x, y, z = np.exp(lv - lv.max(axis=1, keepdims=True))  # weights of each count
    n = K + 1
    y[0] = 0.0  # y then weighs only the states with an available car
    xz = np.convolve(x, z)[:n]  # cars, none available
    with_y = np.convolve(xz, y)[:n]  # cars, some available
    untilt = np.exp((k - K) * log_theta)
    available = np.convolve(w, with_y)[:n]
    total = np.convolve(w, xz)[:n] + available
    Z = untilt @ total
    unsaturated = untilt[:K] @ total[:K]
    fill = untilt @ np.convolve(w, k * (xz + with_y))[:n]
    return float(untilt @ available / Z), float(unsaturated / Z), float(fill / Z)


# ============================================================
# Two-variable reduction (aggregated infinite-server roles)
# ============================================================

def _reduced_sums(x: float, y: float, K: int) -> tuple[float, float, float, float, int]:
    """One O(K) pass over the reduced family, returning
    ``(Z, dZ/dy, E, Z_{K-1}, e)``.

    ``Z = sum_{i+j<=K} x^i/i! y^j = sum_i x^i/i! G_{K-i}(y)`` with the
    geometric sums ``G_n = 1 + y G_{n-1}``, and ``E = sum_{i<=K} x^i/i!``
    is the partial exponential.  The sum is taken in Horner form over the
    capacity, ``Z_n = E_n + y Z_{n-1}``: the states with an available car
    at capacity ``n`` are those of capacity ``n - 1`` with one more.

    The four sums are returned scaled by ``2^-e``.  Whenever ``Z``
    passes ``1e300 / max(1, x, y)`` every carried value is multiplied by
    the power of two that brings ``Z`` below 1, so no step overflows and
    ratios of the sums are exact; ``e = 0`` when no rescale happened.
    """
    big = 1e300 / max(1.0, x, y)
    term = 1.0  # x^n / n!
    E = 1.0
    Z = 1.0
    dZ = 0.0
    Z1 = 0.0  # Z_{n-1}
    e = 0
    for n in range(1, K + 1):
        term *= x / n
        E += term
        dZ = Z + y * dZ
        Z1 = Z
        Z = E + y * Z
        if Z > big:
            k = math.frexp(Z)[1]
            f = math.ldexp(1.0, -k)
            term *= f
            E *= f
            dZ *= f
            Z1 *= f
            Z *= f
            e += k
    return Z, dZ, E, Z1, e


def _partial_exponentials(x: float, K: int) -> list[float]:
    """``[E_1, ..., E_K]``, ``E_n = sum_{i<=n} x^i/i!``, by the operations
    of :func:`_reduced_sums` before any rescale: the x-only factor of the
    pass, built once for all the ``y`` of one ``x``."""
    term = 1.0
    E = 1.0
    Es = []
    for n in range(1, K + 1):
        term *= x / n
        E += term
        Es.append(E)
    return Es


def _unscale(v: float, e: int) -> float:
    """``v * 2^e``, infinite where that overflows a double."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def _simple_form(x: float, y: float, K: int) -> np.ndarray:
    """Normalized reduced measure as a (K+1, K+1) array over
    ``(i, j) = (aggregated reservations, available cars)``, built in log
    space.  The solver reads the reduced family through the O(K) pass;
    this array is the reference that checks the pass and the
    aggregation of the four-coordinate form."""
    i = np.arange(K + 1)
    lw = (_xlogr(i, x) - _log_factorials(K))[:, None] + _xlogr(i, y)[None, :]
    lw[i[:, None] + i[None, :] > K] = -np.inf
    p = np.exp(lw - lw.max())
    return p / p.sum()


# Unexported: bench/workloads.py counts calls of f_simple and solve_phi by name.
def f_simple(x: float, y: float, a: float, K: int) -> float:
    """Fixed-point function of the reduced family.

    ``f(x, y) = (a - x) Z(x, y) - a sum_{i<=K} x^i/i!`` with ``Z`` the
    reduced normalizing constant.  For ``0 < x < a`` it is strictly
    increasing in ``y`` and crosses zero exactly once; the zero ties the
    aggregated intensity ``x`` to the acceptance probability.
    """
    Z, _, E, _, e = _reduced_sums(x, y, K)
    return _unscale((a - x) * Z - a * E, e)


_PHI_MAX_ITER = 400  # Newton and bisection steps of one curve point


def _curve_point(x: float, a: float, K: int,
                 bracket: tuple[float, float, float] | None = None
                 ) -> tuple[float, tuple[float, float, float]] | None:
    """``y = phi(x)``, the zero in ``y`` of ``f(x, y) = (a - x) Z - a E``,
    and the pass's sums ``(Z, dZ/dy, Z_{K-1})`` at that ``y``, as
    :func:`_reduced_sums` returns them: one curve point, solved in one of
    two ways.

    Cold, without ``bracket``, the search starts at ``y = 1`` and
    brackets the root by doubling (``f(x, 0) < 0`` and ``f`` grows like
    ``y^K``), then runs Newton's method on ``h(u) = log((a - x) Z / (a
    E))`` with ``u = log y``, which has the sign of ``f`` and is convex
    and increasing, so its steps close in from above; a step that would
    leave the sign bracket is replaced by a bisection.  It stops when a
    Newton step moves ``y`` by at most 2 ulp.  With ``bracket = (y0, lo,
    hi)``, ``lo`` and ``hi`` phi at the ends of the fill bisection's
    bracket, the search starts at ``y0`` between them, never leaves them
    and doubles nothing, and it stops at its first Newton step of at most
    2 ulp on the point it has just evaluated, with that point's sums.

    Both close by one rule: at two adjacent sign-bracket ends they take
    the one with the smaller ``|h|``.  A bound handed in is phi at
    another ``x`` and carries no ``h`` (taken as 0, which no evaluated
    end has): a bracketed search that would take one, or that runs out
    of steps, returns ``None``, and the caller solves the point cold.
    Every answer is a point evaluated at ``x``.  Where the scaled ``E``
    underflows to 0 (at large ``K``), ``h`` is taken as ``+inf``.

    The partial exponentials ``E_1..E_K`` are built once, and every
    evaluation (bracket, Newton steps, returned ``y``) runs only the
    Horner stage in ``y``.  The computed ``Z_n`` are nondecreasing in
    ``n`` (the ``E_n`` are, ``Z_1 >= Z_0 = 1``, and rounding is
    monotone), so the pass rescales exactly where the last ``Z`` is above
    its threshold or NaN; only there does the scaled pass run, and
    elsewhere every sum is the pass's own double.  A returned ``y`` that
    is not the last point evaluated (a cold Newton step, or the end with
    the smaller ``|h|``) is evaluated once more.  Cold, a
    ``RuntimeError`` ends a root that cannot be bracketed in doubles or
    a stop not reached in ``_PHI_MAX_ITER`` steps.  Nothing is checked
    here: every caller passes ``0 < x < a < inf`` and an integer ``K >= 1``.
    """
    b = a - x
    Es = _partial_exponentials(x, K)
    top = max(1.0, x)
    y, lo, hi = bracket or (1.0, 0.0, math.inf)  # hi infinite until the root is bracketed
    h_lo, h_hi = (0.0, 0.0) if bracket else (math.log(b / a), math.inf)  # 0: a bound handed in
    steps = 0
    final = False  # y is the answer; only its sums are wanted
    while True:
        Z, dZ, Z1 = 1.0, 0.0, 0.0
        for En in Es:
            dZ = Z + y * dZ
            Z1 = Z
            Z = En + y * Z
        E = Es[-1]
        if not Z <= 1e300 / max(top, y):
            Z, dZ, E, Z1, _ = _reduced_sums(x, y, K)
        if final:
            return y, (Z, dZ, Z1)
        h = math.log(b * Z / (a * E)) if E else math.inf
        slope = y * dZ / Z
        if h < 0.0:
            lo, h_lo = y, h
            if hi == math.inf:  # bracketing by doubling
                y *= 2.0
                if y == math.inf:
                    raise RuntimeError("failed to bracket the root")
                continue
        else:
            hi, h_hi = y, h
        if steps == _PHI_MAX_ITER:
            if bracket:
                return None
            raise RuntimeError(f"no convergence after {_PHI_MAX_ITER} steps at x={x}")
        steps += 1
        if h == 0.0:
            return y, (Z, dZ, Z1)
        try:  # a step beyond the doubles leaves the bracket, as a NaN does
            cand = y * math.exp(-h / slope) if math.isfinite(slope) else math.nan
        except (OverflowError, ZeroDivisionError):
            cand = math.nan
        if lo <= cand <= hi and abs(cand - y) <= 2.0 * math.ulp(y):
            if bracket:
                return y, (Z, dZ, Z1)
            final = True
        elif not lo < cand < hi:
            cand = 0.5 * (lo + hi)
            if cand == lo or cand == hi:
                cand, h = (lo, h_lo) if abs(h_lo) < abs(h_hi) else (hi, h_hi)
                if h == 0.0:  # a bound handed in, never evaluated at x
                    return None
                final = True
        if final and cand == y:
            return y, (Z, dZ, Z1)
        y = cand


def solve_phi(x: float, a: float, K: int) -> float:
    """``y = phi(x)``, the zero of :func:`f_simple` in ``y``, as :func:`_curve_point` finds it."""
    return _curve_point(x, a, K)[0]


def _sums_mean(x: float, y: float, sums: tuple[float, float, float], ci: float) -> float:
    """Weighted mean ``E[ci * i + j]`` under the reduced family from the
    pass's ``sums = (Z, dZ/dy, Z_{K-1})`` at ``(x, y)``,
    ``(ci x Z_{K-1} + y dZ/dy) / Z``: ``x Z_{K-1}`` sums ``i`` times the
    weights and ``y dZ/dy`` sums ``j`` times them."""
    Z, dZ, Z1 = sums
    return (ci * x * Z1 + y * dZ) / Z


def _simple_mean(x: float, y: float, K: int, ci: float) -> float:
    """:func:`_sums_mean` from one full pass at ``(x, y)``."""
    Z, dZ, _, Z1, _ = _reduced_sums(x, y, K)
    return _sums_mean(x, y, (Z, dZ, Z1), ci)


def _car_weight(r: float) -> float:
    """Cars per aggregated reservation, ``(1 + r) / (1 + 2 r)`` at ``r = mu/nu``:
    inbound and reserved cars count, spaces reserved ahead do not."""
    return (1.0 + r) / (1.0 + 2.0 * r)


# ============================================================
# Fixed-point solvers
# ============================================================

_MAX_OUTER, _FILL_TOL = 200, 1e-11  # the outer fill bisection: its steps, its stop on |fill - s|


def _warm_band(K: int) -> float:
    """Bound on the gap between the fills of one curve point solved warm
    and solved cold: ``1e-13 + 1e-15 K^2``, at least 20 times the largest
    gap met along the cold bisections of about 4600 solves (2.1e-14 at
    K <= 20, 1.6e-13 at K = 80, 7.3e-11 at K = 2000).  The gap grows as
    ``K^2``: a band of ``_FILL_TOL`` alone turned the golden solve at
    K = 2000 into a ``RuntimeError``."""
    return 1e-13 + 1e-15 * K * K


class MultipleEquilibriaError(RuntimeError):
    """The fill along the fixed-point curve decreased between two
    evaluations of the fill bisection, so the fill equation may have
    several roots; the solver refuses instead of picking one.  ``s`` is
    the fill target and ``pair`` the first decreasing pair of
    ``(t, fill)`` evaluations in ``t`` order."""

    def __init__(self, K: int, s: float, nu_over_mu: float, pair):
        self.s = s
        self.pair = pair
        (t0, f0), (t1, f1) = pair
        super().__init__(
            f"fill at K={K}, s={s!r}, nu/mu={nu_over_mu!r} decreases along the "
            f"fixed-point curve, from {f0!r} at t={t0!r} to {f1!r} at t={t1!r}: "
            "uniqueness of the equilibrium is not established here, so no root "
            "is picked (see the monotonicity check of duores verify)"
        )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the full fixed-point solve."""

    params: ModelParams
    s_target: float
    rho: RateRatios
    residuals: dict
    fill_evaluations: int

    @property
    def outer_iterations(self) -> int:
        """Steps of the outer fill bisection: one per fill evaluation."""
        return self.fill_evaluations

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "s_target": self.s_target,
            "ratios": {
                "eta1": self.rho.eta1,
                "rho1": self.rho.rho1,
                "rho2": self.rho.rho2,
                "eta2": self.rho.eta2,
                "rho1_tilde": self.rho.rho1_tilde,
            },
            "residuals": dict(self.residuals),
            "max_residual": self.max_residual,
            "iterations": {
                "outer": self.outer_iterations,
                "fill_evaluations": self.fill_evaluations,
            },
        }


def _solve_fill(curve, a: float, K: int, s: float,
                nu_over_mu: float) -> tuple[float, float, int]:
    """Root ``t`` of ``fill(t) = s`` along ``curve(t, lo, hi) = (y, fill)``,
    the ``y`` there and the number of fill evaluations.

    Bisects on (0, a), whose virtual end values are 0 and K; the ends
    are never evaluated.  Each end is a pair ``(t, phi)``, handed to
    every evaluation, which then moves one end to its ``(t, y)``: ``lo``
    starts at ``(0.0, 0.0)`` and ``hi`` at ``(a, None)``, phi unknown
    until an upper end is evaluated.  Stops at
    ``|fill - s| < _FILL_TOL``, at adjacent doubles or after
    ``_MAX_OUTER`` steps.  A root is returned only if the evaluations,
    in ``t`` order, never decrease by more than ``1e-12 max(1, K)``.

    Raises
    ------
    ValueError
        If the bracket closes on ``a``: ``s`` is above the fill at the
        largest double below ``a``, the largest fill doubles reach.
    RuntimeError
        If the bisection stops anywhere else.
    MultipleEquilibriaError
        If the bisection met ``_FILL_TOL`` but its evaluations decrease
        somewhere; no other root is searched for.
    """
    lo, hi = (0.0, 0.0), (a, None)
    evals = []
    for _ in range(_MAX_OUTER):
        t = 0.5 * (lo[0] + hi[0])
        if t == lo[0] or t == hi[0]:
            break
        y, fill = curve(t, lo, hi)
        evals.append((t, fill))
        if abs(fill - s) < _FILL_TOL:
            ordered = sorted(evals)
            slack = 1e-12 * max(1.0, float(K))
            for (t0, f0), (t1, f1) in zip(ordered, ordered[1:]):
                if not f1 >= f0 - slack:
                    raise MultipleEquilibriaError(K, s, nu_over_mu, ((t0, f0), (t1, f1)))
            return t, y, len(evals)
        if fill < s:
            lo = t, y
        else:
            hi = t, y
    fills = dict(evals)
    (lo, _), (hi, _) = lo, hi
    if hi == a:  # closed on the unevaluated top end: lo is a's lower neighbour
        raise ValueError(
            f"fill s={s!r} at K={K} is out of reach in double precision: "
            f"the largest fill reached, at t={lo!r} just below a={a!r}, "
            f"is {fills.get(lo, 0.0)!r} (nu/mu={nu_over_mu!r})"
        )
    fill_lo, fill_hi = fills.get(lo, 0.0), fills[hi]
    raise RuntimeError(
        f"fill bisection at K={K}, s={s!r} stopped after {len(evals)} "
        f"evaluations on the bracket [{lo!r}, {hi!r}] with fills "
        f"[{fill_lo!r}, {fill_hi!r}]: gap {fill_hi - fill_lo:.3g}, "
        f"fill tolerance {_FILL_TOL:.3g}"
    )


MAX_SOLVE_K = 10_000
"""Largest capacity the fixed-point solve takes: each fill evaluation is
O(K), and ``K = 10**300`` never finished.  A solve at the ceiling ends
within about 0.5 s of CPU (0.15 to 0.48 s over s/K from 0.001 to 0.99
and nu/mu from 0.01 to 100, on a 2-core x86-64 VM under Python 3.11)."""


def _check_solvable(p: ModelParams, s: float) -> None:
    """The fixed point's domain across arguments: ``K`` at most
    :data:`MAX_SOLVE_K`, ``lam > 0`` and a fill ``s`` in ``(0, K)``."""
    _gate(("MAX_SOLVE_K", p.K, lambda: f"K={p.K}"))
    _POSITIVE.check("lam", p.lam)
    if not (isinstance(s, numbers.Real) and 0.0 < s < p.K):
        raise ValueError(f"s must lie in (0, K) = (0, {p.K}), got {s!r}")


@_domain(s=_POSITIVE)
def solve_equilibrium(p: ModelParams, s: float) -> SolveReport:
    """Solve the full fixed point at car density ``s``.

    Bisects the fill equation along the one-parameter curve of
    solutions to the acceptance equation, then reconstructs the four
    intensities and evaluates all five fixed-point residuals against
    the truncated four-coordinate product form, through the O(K^2)
    convolutions of ``_state_sums``.  Memory is O(K): no per-state
    table is built, so :data:`~duores.core.MAX_STATES` does not bound
    ``K`` here; :data:`MAX_SOLVE_K` (10 000) does.

    Raises
    ------
    ValueError
        If ``K`` is above :data:`MAX_SOLVE_K`, when the message names K
        and the ceiling; if ``s`` is outside ``(0, K)`` or ``lam`` is
        zero; or if ``s`` is above the largest fill doubles reach, when
        the message names K, s, nu/mu and that fill.
    RuntimeError
        If the fill bisection stops before the fill is within
        ``_FILL_TOL`` (1e-11) of ``s``.
    MultipleEquilibriaError
        If the bisection's fill evaluations are not increasing in ``t``:
        uniqueness is not established there, and no root is picked.  The
        message names K, s, nu/mu and the first decreasing pair.
    """
    _check_solvable(p, s)
    r = p.mu / p.nu
    a = (p.lam / p.mu) * (1.0 + 2.0 * r)
    c = _car_weight(r)

    near = _FILL_TOL + _warm_band(p.K)

    def curve(t: float, lo: tuple, hi: tuple) -> tuple[float, float]:
        (t_lo, y_lo), (t_hi, y_hi) = lo, hi
        if y_hi is not None:  # phi(t) lies between phi at the two ends
            w = (t - t_lo) / (t_hi - t_lo)
            start = y_lo ** (1.0 - w) * y_hi ** w if y_lo else w * y_hi
            point = _curve_point(t, a, p.K, (start, y_lo, y_hi))
            if point:
                y, sums = point
                fill = _sums_mean(t, y, sums, c)
                if abs(fill - s) >= near:  # no decision the warm fill could flip
                    return y, fill
        y, sums = _curve_point(t, a, p.K)
        return y, _sums_mean(t, y, sums, c)

    t_star, rho2, n_evals = _solve_fill(curve, a, p.K, s, p.nu / p.mu)
    rho1 = t_star / (1.0 + 2.0 * r)
    eta = r * rho1
    rho = RateRatios(eta, rho1, rho2, eta)

    accept, unsaturated, fill = _state_sums(rho, p.K)
    residuals = {
        "eta1": rho.eta1 - (p.lam / p.nu) * accept,
        "rho1": rho.rho1 - (p.lam / p.mu) * accept,
        "rho2": rho.rho2 - accept / unsaturated,
        "eta2": rho.eta2 - (p.lam / p.nu) * accept,
        "fill": s - fill,
    }
    # The rho2 balance holds identically on the curve; it is asserted,
    # never solved for.
    if abs(residuals["rho2"]) > 1e-12 * max(1.0, rho2):
        raise AssertionError(
            f"identity residual for rho2 is {residuals['rho2']!r}; "
            "the reduced and full forms disagree"
        )
    return SolveReport(
        params=p,
        s_target=s,
        rho=rho,
        residuals=residuals,
        fill_evaluations=n_evals,
    )

