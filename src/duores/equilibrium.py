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
``t^i / i! * r^j`` where ``t = (1 + 2 mu/nu) rho1``.  On that family:

* ``f_simple(t, r, a, K) = 0`` encodes the first fixed-point equation,
  with ``a = (lam/mu)(1 + 2 mu/nu)``;
* ``solve_phi`` inverts it, giving the unique ``r = phi(t)`` per ``t``;
* the car density along the curve is a weighted mean that must equal
  ``s``, which an outer bisection on ``t`` enforces.

The remaining balance equation for ``rho2`` holds identically on the
curve and is asserted, never solved.

Every reduced-family quantity the solver uses comes from one O(K) pass,
``_reduced_sums(x, y, K)``, which returns the normalizing constant
``Z``, its derivative ``dZ/dy``, the partial exponential ``E`` (the
weight of ``j = 0``), ``Z_{K-1}`` (the constant one capacity lower) and
the saturated-diagonal sum ``S``, all scaled by one power of two so that
no step overflows.  From them:

* ``P[j = 0] = E / Z`` (``simple_no_available``);
* ``P[i + j = K] = S / Z`` (``simple_saturated``);
* ``E[c i + j] = (c x Z_{K-1} + y dZ/dy) / Z`` (``g_mean`` at ``c = 1``,
  ``fill_along_curve``);
* ``f_simple`` and ``solve_phi`` read ``Z``, ``dZ/dy`` and ``E``.

The four-coordinate product form is built in log space, once per solve,
and the residuals are the ``core`` functionals of that one measure.
``simple_form`` is the (K+1, K+1) reference array of the reduced family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Measure,
    ModelParams,
    count_arrays,
    mean_fill,
    prob_no_available,
    prob_saturated,
)

__all__ = [
    "RateRatios",
    "SolveReport",
    "SimpleSolveReport",
    "MultipleEquilibriaError",
    "product_form",
    "simple_partition",
    "simple_form",
    "simple_no_available",
    "simple_saturated",
    "f_simple",
    "solve_phi",
    "g_mean",
    "fill_along_curve",
    "solve_equilibrium",
    "solve_simple_reservation",
]


# ============================================================
# Rate ratios and the truncated product form
# ============================================================

@dataclass(frozen=True)
class RateRatios:
    """Traffic intensities ``(eta1, rho1, rho2, eta2)`` of the four
    station roles, ordered to match ``StationState`` as
    ``(w, x, y, z)``."""

    eta1: float
    rho1: float
    rho2: float
    eta2: float

    def __post_init__(self) -> None:
        vals = (self.eta1, self.rho1, self.rho2, self.eta2)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError(f"ratios must be finite and >= 0, got {vals}")

    @property
    def rho1_tilde(self) -> float:
        """Aggregated intensity of the three infinite-server roles,
        ``eta1 + rho1 + eta2`` (equals ``(1 + 2 mu/nu) rho1`` on
        consistent ratios)."""
        return self.eta1 + self.rho1 + self.eta2


@lru_cache(maxsize=None)
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


def product_form(rho: RateRatios, K: int) -> Measure:
    """Truncated product-form measure with intensities ``rho``."""
    return Measure(_normalized_weights(rho, K), K)


# ============================================================
# Two-variable reduction (aggregated infinite-server roles)
# ============================================================

def _check_intensities(x: float, y: float) -> None:
    if x < 0 or y < 0:
        raise ValueError("intensities must be >= 0")


def _reduced_sums(x: float, y: float, K: int) -> tuple[float, float, float, float, float, int]:
    """One O(K) pass over the reduced family, returning
    ``(Z, dZ/dy, E, Z_{K-1}, S, e)``.

    ``Z = sum_{i+j<=K} x^i/i! y^j = sum_i x^i/i! G_{K-i}(y)`` with the
    geometric sums ``G_n = 1 + y G_{n-1}``, and ``E = sum_{i<=K} x^i/i!``
    is the partial exponential.  The sum is taken in Horner form over the
    capacity, ``Z_n = E_n + y Z_{n-1}``: the states with an available car
    at capacity ``n`` are those of capacity ``n - 1`` with one more.
    ``S = sum_{i+j=K} x^i/i! y^j`` is the saturated diagonal, carried as
    ``S_n = x^n/n! + y S_{n-1}``.

    The five sums are returned scaled by ``2^-e``.  Whenever ``Z``
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
    S = 1.0
    e = 0
    for n in range(1, K + 1):
        term *= x / n
        E += term
        S = term + y * S
        dZ = Z + y * dZ
        Z1 = Z
        Z = E + y * Z
        if Z > big:
            k = math.frexp(Z)[1]
            f = math.ldexp(1.0, -k)
            term *= f
            E *= f
            S *= f
            dZ *= f
            Z1 *= f
            Z *= f
            e += k
    return Z, dZ, E, Z1, S, e


def _unscale(v: float, e: int) -> float:
    """``v * 2^e``, infinite where that overflows a double."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def simple_partition(x: float, y: float, K: int) -> float:
    """Normalizing constant ``sum_{i+j<=K} x^i/i! y^j`` of the reduced
    two-coordinate family; ``inf`` where it overflows a double."""
    _check_intensities(x, y)
    Z, _, _, _, _, e = _reduced_sums(x, y, K)
    return _unscale(Z, e)


def simple_form(x: float, y: float, K: int) -> np.ndarray:
    """Normalized reduced measure as a (K+1, K+1) array over
    ``(i, j) = (aggregated reservations, available cars)``, built in log
    space.  The solver reads the reduced family through the O(K) pass;
    this array is the reference that checks the pass and the
    aggregation of the four-coordinate form."""
    _check_intensities(x, y)
    i = np.arange(K + 1)
    lw = (_xlogr(i, x) - _log_factorials(K))[:, None] + _xlogr(i, y)[None, :]
    lw[i[:, None] + i[None, :] > K] = -np.inf
    p = np.exp(lw - lw.max())
    return p / p.sum()


def simple_no_available(x: float, y: float, K: int) -> float:
    """Reduced-family mass of ``j = 0`` (no available car), ``E / Z``."""
    _check_intensities(x, y)
    Z, _, E, _, _, _ = _reduced_sums(x, y, K)
    return E / Z


def simple_saturated(x: float, y: float, K: int) -> float:
    """Reduced-family mass of the full diagonal ``i + j = K``,
    ``S / Z``."""
    _check_intensities(x, y)
    Z, _, _, _, S, _ = _reduced_sums(x, y, K)
    return S / Z


def f_simple(x: float, y: float, a: float, K: int) -> float:
    """Fixed-point function of the reduced family.

    ``f(x, y) = (a - x) Z(x, y) - a sum_{i<=K} x^i/i!`` with ``Z`` the
    reduced normalizing constant.  For ``0 < x < a`` it is strictly
    increasing in ``y`` and crosses zero exactly once; the zero ties the
    aggregated intensity ``x`` to the acceptance probability.
    """
    Z, _, E, _, _, e = _reduced_sums(x, y, K)
    return _unscale((a - x) * Z - a * E, e)


def solve_phi(x: float, a: float, K: int, max_iter: int = 400) -> float:
    """Solve ``f_simple(x, y, a, K) = 0`` for ``y`` at fixed ``x``.

    Requires ``0 < x < a``.  Brackets the root by doubling
    (``f(x, 0) < 0`` and ``f`` grows like ``y^K``), then runs Newton's
    method on ``h(u) = log((a - x) Z / (a E))`` with ``u = log y``,
    which has the sign of ``f``.  ``h`` is convex and increasing in
    ``u``, so Newton steps from the upper end of the bracket close in
    from above; a step that would leave the sign bracket is replaced by
    a bisection.  The solve runs to machine precision: it stops when a
    Newton step moves ``y`` by at most 2 ulp, or when the bracket ends
    are adjacent doubles, and then returns the end with the smaller
    ``|h|``.

    Raises
    ------
    RuntimeError
        If the root cannot be bracketed in double precision, or the
        stop is not reached within ``max_iter`` steps.
    """
    if not 0.0 < x < a:
        raise ValueError(f"x must lie in (0, a) = (0, {a}), got {x}")
    b = a - x

    def h_and_slope(y: float) -> tuple[float, float]:
        Z, dZ, E, _, _, _ = _reduced_sums(x, y, K)
        return math.log(b * Z / (a * E)), y * dZ / Z

    lo, h_lo = 0.0, math.log(b / a)
    hi = 1.0
    h_hi, slope = h_and_slope(hi)
    while h_hi < 0.0:
        lo, h_lo = hi, h_hi
        hi *= 2.0
        if hi == math.inf:
            raise RuntimeError("failed to bracket the root")
        h_hi, slope = h_and_slope(hi)
    y, h = hi, h_hi
    for _ in range(max_iter):
        if h == 0.0:
            return y
        cand = y * math.exp(-h / slope) if math.isfinite(slope) else math.nan
        if lo <= cand <= hi and abs(cand - y) <= 2.0 * math.ulp(y):
            return cand
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
            if cand == lo or cand == hi:
                return lo if abs(h_lo) < abs(h_hi) else hi
        y = cand
        h, slope = h_and_slope(y)
        if h < 0.0:
            lo, h_lo = y, h
        else:
            hi, h_hi = y, h
    raise RuntimeError(f"no convergence after {max_iter} steps at x={x}")


def _simple_mean(x: float, y: float, K: int, ci: float) -> float:
    """Weighted mean ``E[ci * i + j]`` under the reduced family,
    ``(ci x Z_{K-1} + y dZ/dy) / Z``: ``x Z_{K-1}`` sums ``i`` times the
    weights and ``y dZ/dy`` sums ``j`` times them."""
    Z, dZ, _, Z1, _, _ = _reduced_sums(x, y, K)
    return (ci * x * Z1 + y * dZ) / Z


def g_mean(x: float, y: float, K: int) -> float:
    """Mean total count ``E[i + j]`` under the reduced family.

    This is the car density of the instantaneous-reservation variant;
    it increases strictly in both intensities and tends to ``K`` as
    ``y`` grows."""
    _check_intensities(x, y)
    return _simple_mean(x, y, K, 1.0)


def fill_along_curve(t: float, a: float, c: float, K: int) -> float:
    """Car density at aggregated intensity ``t`` on the fixed-point
    curve ``y = phi(t)``, with inbound/parked split weight ``c``.

    ``c = (1 + mu/nu) / (1 + 2 mu/nu)`` converts aggregated
    reservations into cars: of the three aggregated roles, inbound and
    reserved cars count, spaces reserved ahead do not.
    """
    y = solve_phi(t, a, K)
    return _simple_mean(t, y, K, c)


# ============================================================
# Fixed-point solvers
# ============================================================

class MultipleEquilibriaError(RuntimeError):
    """The fill equation admits several roots; refusing to pick one."""

    def __init__(self, roots: list[float], s: float):
        self.roots = list(roots)
        self.s = s
        super().__init__(
            f"fill target {s} is attained at {len(roots)} distinct "
            f"aggregated intensities: {roots}"
        )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the full fixed-point solve."""

    params: ModelParams
    s_target: float
    rho: RateRatios
    residuals: dict
    outer_iterations: int
    fill_evaluations: int
    monotone_ok: bool
    fallback_roots: tuple = ()

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "params": {
                "lam": self.params.lam,
                "mu": self.params.mu,
                "nu": self.params.nu,
                "K": self.params.K,
            },
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
            "monotone_ok": self.monotone_ok,
            "fallback_roots": list(self.fallback_roots),
        }


@dataclass(frozen=True)
class SimpleSolveReport:
    """Outcome of the instantaneous-reservation solve."""

    lam: float
    mu: float
    s_target: float
    K: int
    rho1: float
    rho2: float
    residuals: dict
    outer_iterations: int
    monotone_ok: bool

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())


def _bisect_fill(a: float, c: float, K: int, s: float, fill_tol: float,
                 max_outer: int):
    """Outer bisection of the fill equation on t in (0, a).

    The virtual endpoint values are 0 and K, so the sign bracket
    ``fill(lo) < s < fill(hi)`` is maintained without evaluating at the
    endpoints.  Returns the root, every (t, fill) evaluation made, and
    whether those evaluations were increasing in t.

    Raises
    ------
    RuntimeError
        If the bracket shrinks to adjacent doubles, or ``max_outer``
        steps pass, before the fill is within ``fill_tol`` of ``s``.
    """
    evals = []
    lo, hi = 0.0, a
    fill_lo, fill_hi = 0.0, float(K)
    t_star = None
    outer = 0
    for outer in range(1, max_outer + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = fill_along_curve(mid, a, c, K)
        evals.append((mid, val))
        if abs(val - s) < fill_tol:
            t_star = mid
            break
        if val < s:
            lo, fill_lo = mid, val
        else:
            hi, fill_hi = mid, val
    if t_star is None:
        raise RuntimeError(
            f"fill bisection at K={K}, s={s!r} stopped after {len(evals)} "
            f"evaluations on the bracket [{lo!r}, {hi!r}] with fills "
            f"[{fill_lo!r}, {fill_hi!r}]: gap {fill_hi - fill_lo:.3g}, "
            f"fill_tol {fill_tol:.3g}"
        )
    ordered = sorted(evals)
    slack = 1e-12 * max(1.0, float(K))
    monotone = all(b[1] >= a_[1] - slack for a_, b in zip(ordered, ordered[1:]))
    return t_star, outer, evals, monotone


def _scan_fill_roots(a: float, c: float, K: int, s: float, fill_tol: float,
                     n_grid: int = 4096) -> list[float]:
    """Grid scan + local bisection, reporting every root of
    ``fill(t) = s``.  Used when the bisection trace was not monotone."""
    ts = [a * k / (n_grid + 1) for k in range(1, n_grid + 1)]
    vals = [fill_along_curve(t, a, c, K) - s for t in ts]
    roots = []
    for (t0, v0), (t1, v1) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        if v0 == 0.0:
            roots.append(t0)
            continue
        if v0 * v1 < 0.0:
            lo, hi = t0, t1
            vlo = v0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                vm = fill_along_curve(mid, a, c, K) - s
                if abs(vm) < fill_tol:
                    roots.append(mid)
                    break
                if (vm < 0.0) == (vlo < 0.0):
                    lo, vlo = mid, vm
                else:
                    hi = mid
            else:
                roots.append(0.5 * (lo + hi))
    if vals and vals[-1] == 0.0:
        roots.append(ts[-1])
    return roots


def _solve_fill(a: float, c: float, K: int, s: float, fill_tol: float,
                max_outer: int):
    """Root ``t`` of ``fill(t) = s`` on the fixed-point curve.

    Bisects; when that trace is not monotone, a grid scan looks for
    every root and the single one found replaces the bisection's.
    Returns the root, the outer step count, the number of bisection
    evaluations, the monotonicity flag and the scan's roots (empty when
    no scan ran).

    Raises
    ------
    MultipleEquilibriaError
        If the scan finds more than one root.
    """
    t_star, outer, evals, monotone = _bisect_fill(a, c, K, s, fill_tol, max_outer)
    roots: list[float] = []
    if not monotone:
        roots = _scan_fill_roots(a, c, K, s, fill_tol)
        if len(roots) > 1:
            raise MultipleEquilibriaError(roots, s)
        if roots:
            t_star = roots[0]
    return t_star, outer, len(evals), monotone, tuple(roots)


def solve_equilibrium(p: ModelParams, s: float, fill_tol: float = 1e-11,
                      max_outer: int = 200) -> SolveReport:
    """Solve the full fixed point at car density ``s``.

    Bisects the fill equation along the one-parameter curve of
    solutions to the acceptance equation, then reconstructs the four
    intensities and evaluates all five fixed-point residuals against
    the untruncated four-coordinate product form.

    Raises
    ------
    ValueError
        If ``s`` is outside ``(0, K)`` or ``lam`` is zero.
    MultipleEquilibriaError
        If the evaluations were not monotone and a grid scan finds more
        than one root of the fill equation.
    """
    if p.lam <= 0:
        raise ValueError("lam must be > 0 to solve the fixed point")
    if not 0.0 < s < p.K:
        raise ValueError(f"target fill must lie in (0, {p.K}), got {s}")
    r = p.mu / p.nu
    a = (p.lam / p.mu) * (1.0 + 2.0 * r)
    c = (1.0 + r) / (1.0 + 2.0 * r)

    t_star, outer, n_evals, monotone, fallback_roots = _solve_fill(
        a, c, p.K, s, fill_tol, max_outer)
    rho2 = solve_phi(t_star, a, p.K)
    rho1 = t_star / (1.0 + 2.0 * r)
    eta = r * rho1
    rho = RateRatios(eta, rho1, rho2, eta)

    m = product_form(rho, p.K)
    psat = prob_saturated(m)
    accept = 1.0 - prob_no_available(m)
    residuals = {
        "eta1": rho.eta1 - (p.lam / p.nu) * accept,
        "rho1": rho.rho1 - (p.lam / p.mu) * accept,
        "rho2": rho.rho2 - accept / (1.0 - psat),
        "eta2": rho.eta2 - (p.lam / p.nu) * accept,
        "fill": s - mean_fill(m),
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
        outer_iterations=outer,
        fill_evaluations=n_evals,
        monotone_ok=monotone,
        fallback_roots=fallback_roots,
    )


def solve_simple_reservation(lam: float, mu: float, s: float, K: int,
                             fill_tol: float = 1e-11,
                             max_outer: int = 200) -> SimpleSolveReport:
    """Solve the instantaneous-reservation fixed point (the limit of
    vanishing reservation holding time).

    Same bisection scheme as :func:`solve_equilibrium` with the
    aggregated intensity equal to ``rho1`` itself and unit car weight.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be > 0")
    if not 0.0 < s < K:
        raise ValueError(f"target fill must lie in (0, {K}), got {s}")
    a = lam / mu
    t_star, outer, _, monotone, _ = _solve_fill(a, 1.0, K, s, fill_tol, max_outer)
    rho2 = solve_phi(t_star, a, K)
    residuals = {
        "rho1": t_star - a * (1.0 - simple_no_available(t_star, rho2, K)),
        "rho2": rho2 * (1.0 - simple_saturated(t_star, rho2, K))
        - (1.0 - simple_no_available(t_star, rho2, K)),
        "fill": s - g_mean(t_star, rho2, K),
    }
    return SimpleSolveReport(
        lam=lam,
        mu=mu,
        s_target=s,
        K=K,
        rho1=t_star,
        rho2=rho2,
        residuals=residuals,
        outer_iterations=outer,
        monotone_ok=monotone,
    )
