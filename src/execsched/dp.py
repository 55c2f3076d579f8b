"""Backward-induction solvers for optimal execution schedules.

Two cost conventions appear throughout.  The trade-weighted ("simple") stage
cost prices each interval's conditional premium on the shares executed in
that interval; the residual-weighted ("complex") cost prices it on all
shares still outstanding.  Under the arithmetic laws of motion both reduce
to compositions of the truncated-normal kernel sigma*psi(mu/sigma), which
keeps every stage objective smooth and lets the grid recursion carry exact
value derivatives (envelope slopes) instead of differencing them.

Where the optimum is proven linear (trade-weighted arithmetic laws) the
solvers return the closed form; everywhere else the grid recursion in
:func:`approximate_recursion` solves every free stage at every node, and the
reported schedule re-solves each stage at its exact residual.  Both run one
stage minimizer, the safeguarded Newton of :func:`_vec_newton` on the
first-order condition, which stops at that condition's rounding floor: a
Newton step under ``_NEWTON_RTOL`` of its bracket is the last.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

# bench/tracing.py wraps ``mills_psi_prime`` and ``_mills_psi_second`` under
# this module's name, so they stay importable from it though unused here.
from execsched.kernels import (  # noqa: F401
    _mills_psi_second,
    mills_psi,
    mills_psi_derivs,
    mills_psi_prime,
)
from execsched.models import (
    Ar1Extra,
    Benchmark,
    MarketState,
    SolverError,
    Spread,
    _certainty_equivalent_path,
    _premium_convex,
)

__all__ = [
    "Horizon",
    "Schedule",
    "ClosedLinearPolicy",
    "NumericalPolicy",
    "PolicyTable",
    "RecursionConfig",
    "MillsRecursionProblem",
    "SolverError",
    "InfeasibleLiquidityError",
    "ConfigError",
    "ConvexityWarning",
    "ResolutionWarning",
    "approximate_recursion",
    "solve_benchmark_simple",
    "solve_benchmark_complex",
    "solve_ar1_simple",
    "solve_ar1_complex",
]

# Points of the scan that brackets the re-solve of a stage at an exact
# residual; the stage objective need not be convex there.
_RESOLVE_POINTS = 2001
# Lowest published residual as a fraction of the order: the policy bends
# hardest at small residuals, so the grid is log-spaced down to here.
_GRID_LO_FRAC = 1e-3
# Log steps per gap of the published grid in this module's recursions.
_REFINE = 8
# A Newton step of at most this fraction of its element's bracket is the
# last one (see _vec_newton): the error it leaves is about its square.
_NEWTON_RTOL = 2.0**-40
# Cap on the Newton iterations of every stage solve (see _vec_newton).
_NEWTON_ITERS = 100

# Tolerance scale for Schedule bookkeeping identities (relative to S-bar).
SCHEDULE_REL_TOL = 1e-9
# Relaxed no-sales floor: trades may carry this much negative float dust.
TRADE_FLOOR = -1e-12


class InfeasibleLiquidityError(SolverError):
    """The volume bound leaves no feasible trade interval."""


class ConfigError(ValueError):
    """A solver configuration value is unusable for the requested problem."""


class ConvexityWarning(UserWarning):
    """Stage objectives are not certified convex; optima may be local."""


class ResolutionWarning(UserWarning):
    """Doubling the quadrature order moved the result more than tolerated."""


@dataclass(frozen=True)
class Horizon:
    """Trading horizon: T unit intervals to execute total_shares."""

    T: int
    total_shares: float

    def __post_init__(self) -> None:
        if not isinstance(self.T, int) or isinstance(self.T, bool) or self.T < 1:
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        if not (math.isfinite(self.total_shares) and self.total_shares > 0.0):
            raise ValueError(f"total_shares must be finite and > 0, got {self.total_shares}")


@dataclass(frozen=True)
class Schedule:
    """An execution schedule S_1..S_T with its residual ladder W_1..W_{T+1}.

    The ladder satisfies W_1 = total, W_{T+1} = 0 and W_t - W_{t+1} = S_t,
    all within 1e-9 of the total; trades may dip to -1e-12 (float dust from
    the relaxed no-sales constraint) but no further.
    """

    trades: tuple[float, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        T = len(self.trades)
        if T < 1 or len(self.residuals) != T + 1:
            raise ValueError("need T >= 1 trades and T+1 residuals")
        total = self.residuals[0]
        if not (math.isfinite(total) and total > 0.0):
            raise ValueError(f"W_1 must be finite and > 0, got {total}")
        tol = SCHEDULE_REL_TOL * max(1.0, abs(total))
        if abs(math.fsum(self.trades) - total) > tol:
            raise ValueError("trades do not sum to the total within tolerance")
        if abs(self.residuals[-1]) > tol:
            raise ValueError(f"W_(T+1) must be 0, got {self.residuals[-1]}")
        for t in range(T):
            if self.trades[t] < TRADE_FLOOR:
                raise ValueError(f"trade S_{t + 1} = {self.trades[t]} below the no-sales floor")
            gap = self.residuals[t] - self.residuals[t + 1] - self.trades[t]
            if abs(gap) > tol:
                raise ValueError(f"residual identity broken at t={t + 1} by {gap}")

    @classmethod
    def from_trades(cls, trades, total_shares: float) -> "Schedule":
        """Build the ladder from trades, absorbing float residue into S_T."""
        trades = [float(s) for s in trades]
        residuals = [float(total_shares)]
        for s in trades[:-1]:
            residuals.append(residuals[-1] - s)
        trades[-1] = residuals[-1]
        residuals.append(0.0)
        return cls(tuple(trades), tuple(residuals))

    @property
    def total_shares(self) -> float:
        return self.residuals[0]


def _max(a, b):
    """Elementwise Python ``max(a, b)``: keeps ``a`` on ties, so signed zeros
    come out as the scalar builtin gives them (``np.maximum`` does not)."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Elementwise Python ``min(a, b)``, with the builtin's tie-breaking."""
    return np.where(b < a, b, a)


@dataclass(frozen=True)
class ClosedLinearPolicy:
    """Trade a fixed fraction of the outstanding residual."""

    fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")

    def trade(self, w):
        """Trade for residual w, a float or an array of residuals."""
        s = self.fraction * _max(w, 0.0)
        return float(s) if np.ndim(s) == 0 else s


@dataclass(frozen=True)
class NumericalPolicy:
    """Optimal trade sampled on a residual grid, interpolated monotone-cubic.

    The interpolant is :func:`_pchip`, whose slopes and coefficients repeat
    scipy's ``PchipInterpolator`` bit for bit; above the highest node it
    holds that node's trade.  Below the lowest node the policy extends
    linearly through the origin at the lowest node's trade fraction;
    everywhere the result is clipped to [0, w].  Grid and trades must be
    finite.
    """

    grid: np.ndarray
    trades: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        trades = np.asarray(self.trades, dtype=float)
        if grid.ndim != 1 or grid.shape != trades.shape or grid.size < 2:
            raise ValueError("grid and trades must be equal-length 1-d arrays (>= 2 nodes)")
        if not (np.all(np.diff(grid) > 0.0) and grid[0] > 0.0):
            raise ValueError("grid must be strictly increasing and positive")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(trades))):
            raise ValueError("grid and policy values must be finite at every node")
        tol = 1e-9 * grid
        if np.any(trades < -tol) or np.any(trades > grid + tol):
            raise ValueError("policy values must lie in [0, W] at every node")
        trades = np.clip(trades, 0.0, grid)
        grid.setflags(write=False)
        trades.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "trades", trades)

    @cached_property
    def _interp(self) -> _SplineCont:
        return _pchip(self.grid, self.trades)

    def trade(self, w):
        """Trade for residual w, a float or an array of residuals (one PCHIP call)."""
        w = np.asarray(w, dtype=float)
        inner = np.clip(self._interp.value(_min(w, self.grid[-1]), 0), 0.0, w)
        below = float(self.trades[0] / self.grid[0]) * w
        out = np.where(w <= 0.0, 0.0, np.where(w < self.grid[0], below, inner))
        return float(out) if out.ndim == 0 else out


StagePolicy = ClosedLinearPolicy | NumericalPolicy


@dataclass(frozen=True)
class PolicyTable:
    """Per-stage policies plus value-function samples and provenance tags.

    ``stages[t-1]`` maps the stage-t residual to the stage-t trade;
    ``value_samples[t-1]`` is an (n, 2) array of (W, V_t(W)) pairs.
    ``metadata`` carries at least ``model`` and ``formulation`` tags.
    """

    stages: tuple[StagePolicy, ...]
    value_samples: tuple[np.ndarray, ...]
    metadata: dict

    def __post_init__(self) -> None:
        if len(self.stages) < 1 or len(self.stages) != len(self.value_samples):
            raise ValueError("stages and value_samples must align and be nonempty")
        frozen = []
        for t, samples in enumerate(self.value_samples, start=1):
            arr = np.asarray(samples, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"value_samples for stage {t} must be an (n, 2) array")
            if np.any(arr[:, 1] < 0.0):
                raise ValueError(f"stage {t} has negative value samples")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "value_samples", tuple(frozen))
        for key in ("model", "formulation"):
            if key not in self.metadata:
                raise ValueError(f"metadata must carry a '{key}' tag")

    @property
    def horizon_length(self) -> int:
        return len(self.stages)

    def trade_at(self, t: int, w):
        """Stage-t trade for residual w, clipped to the feasible [0, w].

        ``w`` may be an array of residuals; the trades come back aligned.
        """
        if not 1 <= t <= len(self.stages):
            raise ValueError(f"stage index {t} outside 1..{len(self.stages)}")
        s = _min(_max(self.stages[t - 1].trade(w), 0.0), _max(w, 0.0))
        return float(s) if np.ndim(s) == 0 else s


@dataclass(frozen=True)
class RecursionConfig:
    """Knobs for the grid recursion; defaults match the published accuracy.

    grid_nodes: published residual nodes per stage (at least 8).
    quad_order: Gauss-Hermite order of the gbm premium.  For the liquidity
        stage T-1 it caps the volume Gauss-Hermite order, which the solver
        sizes by the slope of its volume lines.
    """

    grid_nodes: int = 64
    quad_order: int = 40

    def __post_init__(self) -> None:
        if self.grid_nodes < 8:
            raise ConfigError(
                f"grid_nodes={self.grid_nodes} is too small to resolve a value "
                "function over the horizon; need at least 8"
            )
        if not 1 <= self.quad_order <= 128:
            raise ConfigError(f"quad_order must lie in [1, 128], got {self.quad_order}")


# ---------------------------------------------------------------------------
# Stage-cost families.  Every arithmetic-law stage premium is
#   E[D | D > 0] = beta * psi((theta*S + alpha) / beta)
# for a stage-specific (theta, alpha, beta); the two formulations differ
# only in the share weighting of that premium.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MillsStage:
    """Stage cost of one (theta, alpha, beta) triple.

    ``alpha`` is a float, or an array with one premium shift per column of a
    batched recursion; the methods then take ``col``, the column of each
    element (an int or an int array aligned with ``s``).
    """

    theta: float
    alpha: float | np.ndarray
    beta: float
    weight_by_residual: bool

    def _u(self, s, col=None):
        alpha = self.alpha if col is None else self.alpha[col]
        return (self.theta * s + alpha) / self.beta

    def value(self, s, w, col=None):
        weight = w if self.weight_by_residual else s
        return weight * self.beta * mills_psi(self._u(s, col))

    def ds_dss(self, s, w, col=None):
        """The cost's first two s-derivatives from one Mills kernel evaluation."""
        p0, p1, p2 = mills_psi_derivs(self._u(s, col), with_psi=not self.weight_by_residual)
        curv_scale = self.theta * self.theta / self.beta
        if self.weight_by_residual:
            return w * self.theta * p1, w * (curv_scale * p2)
        return (
            self.beta * p0 + s * self.theta * p1,
            2.0 * self.theta * p1 + s * (curv_scale * p2),
        )

    def dw(self, s, w, col=None):
        if self.weight_by_residual:
            return self.beta * mills_psi(self._u(s, col))
        return np.zeros_like(np.asarray(s, dtype=float))

    def slope_at_origin(self, cont_slope_at_origin):
        """V_t'(0) per column given V_{t+1}'(0); tiny residuals pin the trade."""
        premium_slope = self.beta * mills_psi(self.alpha / self.beta)
        if self.weight_by_residual:
            return premium_slope
        return _min(premium_slope, cont_slope_at_origin)


class _TerminalMills:
    """Exact terminal value V_T(r) = r * beta * psi((theta*r + alpha)/beta) and derivatives.

    The forced last stage trades the whole residual r, so V_T is the
    trade-weighted :class:`_MillsStage` cost at s = w = r and this class only
    views it.  It is also the continuation of the stage before the forced
    last one.  ``alpha`` may hold one value per column, as in
    :class:`_MillsStage`.
    """

    def __init__(self, theta: float, alpha, beta: float):
        self.stage = _MillsStage(theta, alpha, beta, False)
        self.slope_at_origin = self.d_dd(0.0)[0]

    def value(self, r, col=None):
        return self.stage.value(r, r, col)

    def d_dd(self, r, col=None):
        """The value's first two r-derivatives from one Mills kernel evaluation."""
        return self.stage.ds_dss(r, r, col)


class _SplineCont:
    """Cubic Hermite interpolants of one or more columns on shared abscissae.

    ``c`` holds the piecewise-polynomial coefficients, highest power first,
    shaped (4, n-1, columns) as scipy's ``CubicHermiteSpline`` lays them out.
    Every method takes the column of each point in ``col``, so one call
    evaluates each column at its own points.  Coefficients, interval search
    and evaluation order repeat scipy's ``PPoly`` (and its ``.derivative()``
    objects) operation for operation, so values agree with scipy's bit for
    bit; :func:`_pchip` builds one whose PCHIP slopes repeat scipy's.  Scipy
    starts each sum from +0.0, which turns an exact -0.0 constant term into
    +0.0; the constant terms here get the same +0.0 once, up front.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    @classmethod
    def from_slopes(cls, x, y, dydx) -> "_SplineCont":
        """Interpolate values ``y`` and slopes ``dydx``, shaped (n,) or (n, columns)."""
        y = np.asarray(y, dtype=float).reshape(len(x), -1)
        dydx = np.asarray(dydx, dtype=float).reshape(len(x), -1)
        dx = np.diff(x)[:, None]
        slope = np.diff(y, axis=0) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])))

    @property
    def slope_at_origin(self) -> np.ndarray:
        return self.c[2, 0]

    @cached_property
    def _c0(self):
        c0, c1, c2, c3 = self.c
        return c0, c1, c2, c3 + 0.0

    @cached_property
    def _c1(self):
        return self.c[0] * 3.0, self.c[1] * 2.0, self.c[2] * 1.0 + 0.0

    @cached_property
    def _c2(self):
        d0, d1, _ = self._c1
        return d0 * 2.0, d1 * 1.0 + 0.0

    def _locate(self, r):
        # the piece index clipped to [0, n-2], so the end pieces extend outward
        i = np.searchsorted(self.x[1:-1], r, side="right")
        s = r - self.x[i]
        return i, s, s * s

    def value(self, r, col):
        i, s, s2 = self._locate(r)
        c0, c1, c2, c3 = (k[i, col] for k in self._c0)
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    def d_dd(self, r, col):
        i, s, s2 = self._locate(r)
        d0, d1, d2 = (k[i, col] for k in self._c1)
        e0, e1 = (k[i, col] for k in self._c2)
        return (d2 + d1 * s) + d0 * s2, e1 + e0 * s


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(cap, 3.0 * m0, d))


def _pchip(x, y) -> _SplineCont:
    """Monotone cubic (PCHIP) interpolant of ``y``, shaped (n,) or (n, columns).

    Interior slopes are the weighted harmonic means of the neighbouring secants
    (Fritsch & Carlson 1980), zero where the secants change sign or one is
    flat; the end slopes follow Moler, *Numerical Computing with MATLAB*,
    section 3.6; two nodes give the straight line.  The expressions are those
    of scipy's ``PchipInterpolator._find_derivatives`` and ``_edge_case``, so
    the coefficients are scipy's bit for bit.  ``x`` must be strictly
    increasing; non-finite ``y`` raises ValueError.
    """
    y = np.asarray(y, dtype=float).reshape(len(x), -1)
    if not np.all(np.isfinite(y)):
        raise ValueError("PCHIP values must be finite at every node")
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        return _SplineCont.from_slopes(x, y, np.vstack((m, m)))
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d = np.vstack(
        (
            _pchip_end_slope(h[0], h[1], m[0], m[1]),
            inner,
            _pchip_end_slope(h[-1], h[-2], m[-1], m[-2]),
        )
    )
    return _SplineCont.from_slopes(x, y, d)


# ---------------------------------------------------------------------------
# Mesh construction and the vectorized stage minimizers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Mesh:
    official: np.ndarray  # published nodes
    fine: np.ndarray  # official + sub-grid padding + refinement
    nodes: np.ndarray  # [0] + fine, the spline abscissae
    official_idx: np.ndarray  # positions of official inside fine


def _build_mesh(total: float, curvature_scale: float, grid_nodes: int, refine: int) -> _Mesh:
    """The published grid, padded below and cut into ``refine`` (>= 2) log steps per gap."""
    official = np.geomspace(total * _GRID_LO_FRAC, total, grid_nodes)
    ratio = official[1] / official[0]
    # Continuation arguments W - S* fall below the lowest published node, and
    # the value function's curvature transition lives near W ~ beta/theta; pad
    # the grid down to well inside that scale (capped at 20 octaves) so the
    # bottom spline segments actually resolve it.
    target = max(min(official[0], 0.01 * curvature_scale), official[0] * 2.0**-20)
    n_pad = 0
    if target < official[0]:
        n_pad = int(math.ceil(math.log(official[0] / target) / math.log(ratio)))
    pad = official[0] / ratio ** np.arange(n_pad, 0, -1)
    coarse = np.concatenate([pad, official])
    expo = np.arange(refine, dtype=float) / refine
    base = coarse[:-1, None] * (coarse[1:] / coarse[:-1])[:, None] ** expo[None, :]
    fine = np.append(base.ravel(), coarse[-1])
    # x**0.0 is exactly 1, so the published nodes sit in ``fine`` unrounded
    official_idx = (n_pad + np.arange(grid_nodes)) * refine
    nodes = np.concatenate([[0.0], fine])
    return _Mesh(official=official, fine=fine, nodes=nodes, official_idx=official_idx)


class _NewtonReport(NamedTuple):
    """Per-element outcome of :func:`_vec_newton`."""

    iterations: np.ndarray  # Newton steps taken (0 for pinned elements)
    foc: np.ndarray  # f at the returned point (nan for pinned elements)
    pinned: np.ndarray  # monotone on [lo, hi]: returned an endpoint
    curvature: np.ndarray  # f' at the returned point (nan for pinned elements)
    settled: np.ndarray  # False only for elements still moving at the cap
    carried: tuple  # f_and_fp's outputs after f and f' at the returned point


def _vec_newton(
    f_and_fp: Callable, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, _NewtonReport]:
    """Bisection-safeguarded Newton on f (increasing through its root).

    ``f_and_fp(x, idx)`` returns f and f' at points ``x`` of the elements
    ``idx`` (flat indices into ``lo``/``hi``), optionally followed by more
    per-element outputs of the same evaluation.  Elements whose objective is
    monotone on [lo, hi] are pinned to the matching endpoint via the sign of
    f there; ``hi`` is evaluated only where ``lo`` does not pin.  A step
    that leaves the bracket falls back to bisection, except when the step is
    defined (f' > 0) and does not move the iterate: that iterate is the root
    to rounding (f is 0, or the step is under half an ulp) and is kept.

    A free element leaves the loop by one of two rules.  An iteration that
    returns its iterate unchanged ends it there.  A Newton step (f' > 0, not
    the bisection) of at most ``_NEWTON_RTOL`` of the element's bracket
    ``hi - lo`` is taken and ends it at the next evaluation: converging
    quadratically, that iterate is off the root by about the step squared,
    while f near the root is rounding noise whose sign changes would
    otherwise be bisected down to the last ulp.  ``_NEWTON_ITERS`` caps
    the iterations; an element still moving at the cap is evaluated once more
    and reported unsettled (``settled`` False), unless its last step was
    such a small step.

    The report carries the extra outputs of the evaluation at each returned
    point, so a caller never evaluates there again: a settled element's last
    iteration, a pinned element's bracket end, and for an element at the
    cap its evaluation after the loop.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    f_lo, _, *carried = f_and_fp(lo, np.arange(lo.size))
    carried = [np.array(c) for c in carried]
    at_lo = f_lo >= 0.0
    at_hi = np.zeros(lo.size, dtype=bool)
    up = np.flatnonzero(~at_lo)
    if up.size:
        f_hi, _, *carry_hi = f_and_fp(hi[up], up)
        at_hi[up] = f_hi <= 0.0
        for c, e in zip(carried, carry_hi):
            c[up] = e
    pinned = at_lo | at_hi
    tol = _NEWTON_RTOL * (hi - lo)
    out = 0.5 * (lo + hi)
    foc = np.full(lo.size, np.nan)
    curv = np.full(lo.size, np.nan)
    used = np.zeros(lo.size, dtype=int)
    settled = np.ones(lo.size, dtype=bool)
    idx = np.flatnonzero(~pinned)
    a, b, x = lo[idx], hi[idx], out[idx]
    last = np.zeros(idx.size, dtype=bool)
    for k in range(1, _NEWTON_ITERS + 1):
        if idx.size == 0:
            break
        f, fp, *extra = f_and_fp(x, idx)
        a = np.where(f < 0.0, x, a)
        b = np.where(f >= 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp > 0.0, -f / np.where(fp > 0.0, fp, 1.0), 0.0)
        xn = x + step
        bad = (xn <= a) | (xn >= b) | ~np.isfinite(xn)
        bad &= (xn != x) | (fp <= 0.0)
        xn = np.where(bad, 0.5 * (a + b), xn)
        stop = last | (xn.view(np.uint64) == x.view(np.uint64))
        done = idx[stop]
        out[done], foc[done], curv[done], used[done] = x[stop], f[stop], fp[stop], k
        for c, e in zip(carried, extra):
            c[done] = e[stop]
        last = ~bad & (fp > 0.0) & (np.abs(step) <= tol[idx])
        go = ~stop
        idx, a, b, x, last = idx[go], a[go], b[go], xn[go], last[go]
    if idx.size:
        out[idx], used[idx], settled[idx] = x, _NEWTON_ITERS, last
        foc[idx], curv[idx], *extra = f_and_fp(x, idx)
        for c, e in zip(carried, extra):
            c[idx] = e
    out = np.where(at_lo, lo, out)
    report = _NewtonReport(used, foc, pinned, curv, settled, tuple(carried))
    return np.where(at_hi, hi, out), report


def _scan_newton(
    objective: Callable, derivs: Callable, ub: np.ndarray, points: int
) -> tuple[np.ndarray, np.ndarray, _NewtonReport]:
    """Global minimum of a smooth objective over [0, ub] at every element.

    ``objective(s, idx)`` and ``derivs(s, idx)`` (the first two
    s-derivatives) take trades ``s`` of the elements ``idx``, flat indices
    into ``ub``.  The objective need not be unimodal, so a scan of
    ``points`` equally spaced trades brackets the best scan point by its
    neighbours, :func:`_vec_newton` finishes on the first-order condition
    inside that bracket, and the best scan point, no worse than both
    interval ends, competes with the result.  Returns the trades, their
    objective values and the Newton report.

    ``derivs`` may also return the objective value third, then further
    outputs; Newton carries them (see :func:`_vec_newton`), so the value at
    its result is not evaluated again.  The report's ``carried`` then holds
    the value and the further outputs at the returned trades: where a scan
    point beats Newton, its value is the scan's, and ``derivs`` runs once
    more, on those elements only, for the rest.  Without a carried value
    ``objective`` evaluates Newton's result once.
    """
    ub = np.asarray(ub, dtype=float)
    rows = np.arange(ub.size)
    grid = ub[:, None] * np.linspace(0.0, 1.0, points)
    j = objective(grid.ravel(), np.repeat(rows, points)).reshape(grid.shape)
    best = np.argmin(j, axis=1)
    lo = grid[rows, np.maximum(best - 1, 0)]
    hi = grid[rows, np.minimum(best + 1, points - 1)]
    s, report = _vec_newton(derivs, lo, hi)
    v, *more = report.carried or (objective(s, rows),)
    scan = j[rows, best] < v
    s = np.where(scan, grid[rows, best], s)
    v = np.where(scan, j[rows, best], v)
    won = np.flatnonzero(scan)
    if more and won.size:
        for m, fresh in zip(more, derivs(s[won], won)[3:]):
            m[won] = fresh
    return s, v, report._replace(carried=(v, *more) if report.carried else ())


def _stage_foc(fam: _MillsStage, cont, s, w, col):
    """First-order condition of c(s, w) + V_{t+1}(w - s) and its s-derivative,
    then the two slopes it subtracts: dc/ds and V_{t+1}'(w - s)."""
    ds, dss = fam.ds_dss(s, w, col)
    d, dd = cont.d_dd(w - s, col)
    return ds - d, dss + dd, ds, d


def _whole_residual(s, ub, w):
    """Where trade ``s`` sits on an upper bound ``ub`` that is the whole
    residual ``w`` (to 1e-12 relative): nothing is left to continue with."""
    return (s >= ub) & (ub >= w * (1.0 - 1e-12))


def _stage_minimize(fam: _MillsStage, cont, w: np.ndarray, ub: np.ndarray, col: np.ndarray):
    """Minimize c(s, w) + V_{t+1}(w - s) over s in [0, ub] at every element.

    ``w``, ``ub`` and ``col`` are flat arrays: element e is residual w[e] of
    column col[e].
    """
    s, report = _vec_newton(
        lambda s, idx: _stage_foc(fam, cont, s, w[idx], col[idx]), np.zeros_like(w), ub
    )
    ds, d = report.carried
    v = fam.value(s, w, col) + cont.value(w - s, col)
    # Envelope slope from the slopes Newton carried; when the whole residual
    # trades the continuation argument is pinned at 0, so dV/dw picks up the
    # stage cost's s-derivative instead of the continuation slope.
    vd = fam.dw(s, w, col) + np.where(_whole_residual(s, ub, w), ds, d)
    return s, v, vd, report


def _newton_diagnostics(report: _NewtonReport, stage: int, columns: int = 1) -> list[dict]:
    """Per-column summary of the grid Newton solve of ``stage`` over the fine mesh.

    ``convex`` says whether the objective's second derivative is positive at
    every free element's solution; ``unsettled_nodes`` counts the elements
    Newton left still moving at the iteration cap, and any such element
    raises SolverError, so a published summary always reads 0 there.
    """
    unsettled = int((~report.settled).sum())
    if unsettled:
        raise SolverError(
            f"stage {stage} grid solve did not converge within {report.iterations.max()} "
            f"Newton iterations at {unsettled} nodes"
        )
    iters, foc, pinned, curv, settled = (a.reshape(columns, -1) for a in report[:5])
    out = []
    for j in range(columns):
        free = ~pinned[j]
        out.append(
            {
                "newton_iterations": int(iters[j][free].max(initial=0)),
                "max_abs_foc": float(np.abs(foc[j][free]).max(initial=0.0)),
                "pinned_nodes": int(pinned[j].sum()),
                "unsettled_nodes": int((~settled[j]).sum()),
                "convex": bool(np.all(curv[j][free] > 0.0)),
            }
        )
    return out


def _resolve_stage(
    objective: Callable, derivs: Callable, ub: float, points: int
) -> tuple[float, float, int]:
    """Re-solve one stage at an exact residual by :func:`_scan_newton` on one element.

    Returns the trade, its objective value and the Newton iterations (0 when
    the objective is monotone on Newton's bracket); raises SolverError when
    Newton has not settled within ``_NEWTON_ITERS``.  Two ``points`` scan
    only the interval ends, so Newton runs on all of [0, ub].
    """
    s, v, report = _scan_newton(objective, derivs, np.array([ub]), points)
    if not report.settled[0]:
        raise SolverError(
            f"stage solve did not converge within {_NEWTON_ITERS} Newton iterations",
            bracket=(0.0, ub),
            residual=float(report.foc[0]),
        )
    return float(s[0]), float(v[0]), int(report.iterations[0])


def _quadrature_drift(value: float, doubled: float, stage, order: int, doubled_to: int) -> float:
    """Relative change of a stage objective re-evaluated at doubled quadrature.

    Above 1e-6 it raises ResolutionWarning: the objective at ``order`` is
    not resolved to the accuracy the solvers publish.  Solvers call it
    directly, so the warning names the line that called the solver.
    """
    rel = abs(doubled - value) / max(abs(value), 1e-300)
    if rel > 1e-6:
        warnings.warn(
            f"stage {stage} objective moved {rel:.3e} relative under quadrature "
            f"order doubling ({order}->{doubled_to}); increase quad_order",
            ResolutionWarning,
            stacklevel=3,
        )
    return rel


def _scalar_stage_solve(
    fam: _MillsStage, cont, w: float, ub: float, col: int = 0
) -> tuple[float, int]:
    """The global minimum over [0, min(ub, w)], convex or not, and its Newton iterations.

    ``col`` picks the column of ``fam`` and ``cont``.
    """
    ub = min(ub, w)
    if w <= 0.0 or ub <= 0.0:
        return 0.0, 0
    s, _, iters = _resolve_stage(
        lambda s, idx: fam.value(s, w, col) + cont.value(w - s, col),
        lambda s, idx: _stage_foc(fam, cont, s, w, col)[:2],
        ub,
        _RESOLVE_POINTS,
    )
    return s, iters


# ---------------------------------------------------------------------------
# The grid recursion proper.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MillsRecursionProblem:
    """Stage machinery for recursions whose premium is beta*psi((theta*S+alpha)/beta).

    ``thetas``, ``alphas`` and ``betas`` give the stage-t kernel parameters
    for t = 1..T; ``weight_by_residual`` selects the cost convention (False:
    trade-weighted, True: residual-weighted); ``trade_caps`` optionally caps
    the stage-t trade (volume bounds).
    """

    horizon: Horizon
    thetas: tuple[float, ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    weight_by_residual: bool = False
    trade_caps: tuple[float, ...] | None = None
    model_tag: str = "custom"

    def __post_init__(self) -> None:
        T = self.horizon.T
        if not (len(self.thetas) == len(self.alphas) == len(self.betas) == T):
            raise ValueError("need one (theta, alpha, beta) triple per stage")
        for name, vals in (("theta", self.thetas), ("beta", self.betas)):
            for v in vals:
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"every stage {name} must be finite and > 0, got {v}")
        for a in self.alphas:
            if not math.isfinite(a):
                raise ValueError(f"every stage alpha must be finite, got {a}")
        if self.trade_caps is not None and len(self.trade_caps) != T:
            raise ValueError("need one trade cap per stage when caps are given")

    @classmethod
    def uniform(
        cls,
        horizon: Horizon,
        theta: float,
        beta: float,
        alphas: tuple[float, ...] | None = None,
        **kwargs,
    ) -> "MillsRecursionProblem":
        """One (theta, beta) for all stages; alphas default to zero."""
        T = horizon.T
        return cls(
            horizon=horizon,
            thetas=(theta,) * T,
            alphas=(0.0,) * T if alphas is None else tuple(alphas),
            betas=(beta,) * T,
            **kwargs,
        )

    @property
    def curvature_scale(self) -> float:
        """Smallest beta/theta across stages: where psi'' concentrates in W."""
        return min(b / t for b, t in zip(self.betas, self.thetas))

    def family(self, t: int) -> _MillsStage:
        """Stage t's cost as a one-column family."""
        return _MillsStage(
            self.thetas[t - 1],
            np.array([self.alphas[t - 1]]),
            self.betas[t - 1],
            self.weight_by_residual,
        )

    def terminal(self) -> _TerminalMills:
        """The forced last stage's value as a one-column continuation."""
        return _TerminalMills(self.thetas[-1], np.array([self.alphas[-1]]), self.betas[-1])


@dataclass
class _RecursionResult:
    trades: dict[int, np.ndarray]  # stage -> S* at official nodes, one row per column
    values: dict[int, np.ndarray]  # stage -> V_t at official nodes, one row per column
    conts: dict[int, object]  # stage -> continuation V_{t+1} solved against
    diagnostics: dict[int, list[dict]]  # stage -> grid Newton summary per column


def _backward_pass(
    families: dict[int, _MillsStage],
    cont,
    mesh: _Mesh,
    caps: Sequence[float] | None = None,
) -> _RecursionResult:
    """Grid recursion over stages max(families)..1, all columns in one solve.

    ``families[t]`` carries one alpha per column that stage t solves; those
    are the first ``len(alpha)`` columns of its continuation, so columns
    only drop out as t falls.  ``cont`` is the continuation of the first
    stage solved; ``caps`` optionally caps the stage-t trade.
    """
    fine, oi = mesh.fine, mesh.official_idx
    m = fine.size
    res = _RecursionResult({}, {}, {}, {})
    for t in sorted(families, reverse=True):
        fam = families[t]
        k = len(fam.alpha)
        w = np.tile(fine, k)
        col = np.repeat(np.arange(k), m)
        ub = w if caps is None else np.minimum(w, max(caps[t - 1], 0.0))
        s, v, vd, report = _stage_minimize(fam, cont, w, ub, col)
        res.conts[t] = cont
        res.trades[t] = s.reshape(k, m)[:, oi]
        res.values[t] = v.reshape(k, m)[:, oi]
        res.diagnostics[t] = _newton_diagnostics(report, t, k)
        if t > 1:
            slope0 = fam.slope_at_origin(cont.slope_at_origin[:k])
            cont = _SplineCont.from_slopes(
                mesh.nodes,
                np.vstack([np.zeros(k), v.reshape(k, m).T]),
                np.vstack([slope0, vd.reshape(k, m).T]),
            )
    return res


def approximate_recursion(
    problem: MillsRecursionProblem, config: RecursionConfig | None = None
) -> PolicyTable:
    """Value iteration on a log-spaced residual grid.

    Each stage minimizes cost + interpolated continuation with a safeguarded
    Newton solve at every node; the continuation is a cubic Hermite spline
    fed exact envelope slopes, so published policies at the 64 default nodes
    track the closed forms to well under 1e-6 relative where those exist.
    """
    cfg = config or RecursionConfig()
    T = problem.horizon.T
    mesh = _build_mesh(
        problem.horizon.total_shares, problem.curvature_scale, cfg.grid_nodes, _REFINE
    )
    families = {t: problem.family(t) for t in range(T - 1, 0, -1)}
    res = _backward_pass(families, problem.terminal(), mesh, problem.trade_caps)
    metadata = {
        "model": problem.model_tag,
        "formulation": "complex" if problem.weight_by_residual else "simple",
        "method": "grid-recursion",
        "grid_nodes": cfg.grid_nodes,
        "diagnostics": [{"stage": t, **res.diagnostics[t][0]} for t in range(1, T)],
    }
    return _grid_table(
        mesh.official,
        [res.trades[t][0] for t in range(1, T)],
        [*(res.values[t][0] for t in range(1, T)), problem.terminal().value(mesh.official, 0)],
        metadata,
    )


def _grid_table(grid: np.ndarray, trades, values, metadata: dict) -> PolicyTable:
    """Policy table on one residual grid.

    ``trades`` holds the optimal trades of stages 1..T-1 at the grid nodes
    and ``values`` the value functions V_1..V_T there; the last stage trades
    the whole residual.
    """
    stages = [NumericalPolicy(grid=grid, trades=s) for s in trades]
    stages.append(ClosedLinearPolicy(1.0))
    samples = tuple(np.column_stack([grid, v]) for v in values)
    return PolicyTable(stages=tuple(stages), value_samples=samples, metadata=metadata)


# ---------------------------------------------------------------------------
# The arithmetic laws.  The benchmark walk and the AR(1)/spread law both price
# stage t as beta*psi((theta*S + alpha_t)/beta); the benchmark is the
# zero-shift case.  One driver solves either law in either formulation.
# ---------------------------------------------------------------------------


def _premium_law(params: Benchmark | Ar1Extra, T: int, x0: float):
    """(theta, beta, alphas) of the law's stage premiums over T stages.

    Each stage reads the law's ``move`` at its certainty-equivalent state,
    the observed aux x0 walked forward at zero noise.  The arithmetic moves
    depend neither on the price level nor on the trades, so the walk starts
    at price 0 and trades nothing.
    """
    # The zero-noise law simulates fine but has no premium kernel to solve.
    if params.sigma_eps <= 0.0:
        raise ValueError(
            f"sigma_eps must be > 0 for the solver, got {params.sigma_eps}; "
            "the noise-free law is simulation-only"
        )
    path = _certainty_equivalent_path(params, MarketState(price=0.0, aux=x0), 0.0, T - 1)
    (theta, *_), alphas, (beta, *_) = zip(*(params.move(s.price, s.aux) for s in path))
    if not all(map(math.isfinite, (beta, *alphas))):
        raise ValueError(f"x0 = {x0} gives a non-finite premium shift or noise scale")
    return theta, beta, alphas


def _solve_residual_weighted(
    theta: float,
    beta: float,
    alphas: tuple[float, ...],
    horizon: Horizon,
    cfg: RecursionConfig,
    metadata: dict,
) -> tuple[Schedule, PolicyTable]:
    """Drive the grid recursion for a residual-weighted cost with one theta and beta.

    The stage-t premium shift alpha_t is held at its stage-t value for the
    whole remaining horizon (the closed forms rest on that convention), so
    stage t's policy is the first stage of a uniform (T-t+1)-stage recursion
    in alpha_t.  Those recursions differ only in alpha, so one backward pass
    runs them all, one column per distinct alpha: at stage t every column
    sits at depth T-t+1, and stage t reads the column of alpha_t.  The
    reported schedule re-solves each stage at the exact certainty-equivalent
    residual by :func:`_scalar_stage_solve`, which finds the global minimum
    whether or not ``metadata["convexity_ok"]`` certifies the stage convex.
    """
    T, total = horizon.T, horizon.total_shares
    mesh = _build_mesh(total, beta / theta, cfg.grid_nodes, _REFINE)
    # columns numbered by the first stage that uses them, so the columns
    # stage t needs are a prefix
    columns = list(dict.fromkeys(alphas[: T - 1]))
    column = [columns.index(a) for a in alphas[: T - 1]]
    families = {
        t: _MillsStage(theta, np.array(columns[: max(column[:t]) + 1]), beta, True)
        for t in range(1, T)
    }
    res = _backward_pass(families, _TerminalMills(theta, np.array(columns), beta), mesh)

    trades: list[float] = []
    diagnostics: list[dict] = []
    w, convex = total, metadata["convexity_ok"]
    for t in range(1, T):
        j = column[t - 1]
        s, iters = _scalar_stage_solve(families[t], res.conts[t], w, w, j)
        diagnostics.append(
            {"stage": t, **res.diagnostics[t][j], "convex": convex, "schedule_iterations": iters}
        )
        trades.append(s)
        w -= s
    trades.append(w)
    metadata["diagnostics"] = diagnostics
    table = _grid_table(
        mesh.official,
        [res.trades[t][j] for t, j in enumerate(column, start=1)],
        [
            *(res.values[t][j] for t, j in enumerate(column, start=1)),
            _TerminalMills(theta, np.array([alphas[-1]]), beta).value(mesh.official, 0),
        ],
        metadata,
    )
    return Schedule.from_trades(trades, total), table


def _solve_arithmetic(
    params: Benchmark | Ar1Extra,
    horizon: Horizon,
    x0: float | None,
    formulation: str,
    config: RecursionConfig | None,
) -> tuple[Schedule, PolicyTable]:
    """Solve an arithmetic law; ``x0`` is None for the benchmark walk.

    The trade-weighted ("simple") optimum is the closed-form equal split,
    with values W*beta*psi((theta*W + n*alpha_t)/(n*beta)) at n stages to
    go; the residual-weighted ("complex") one runs the grid recursion.
    """
    cfg = config or RecursionConfig()
    T, total = horizon.T, horizon.total_shares
    theta, beta, alphas = _premium_law(params, T, 0.0 if x0 is None else x0)
    residual_weighted = formulation == "complex"
    # policy.json writes the metadata in this key order
    metadata = {
        "model": "benchmark" if x0 is None else "spread" if isinstance(params, Spread) else "ar1",
        "formulation": formulation,
        "method": "foc-grid-recursion" if residual_weighted else "closed-linear",
        **({"grid_nodes": cfg.grid_nodes} if residual_weighted else {}),
        **({} if x0 is None else {"x0": x0}),
        "convexity_ok": _premium_convex(theta, beta),
    }
    if not metadata["convexity_ok"]:
        warnings.warn(
            f"stage costs are not certified convex (theta={theta} against noise scale "
            f"{beta}); reported optima may be local",
            ConvexityWarning,
            stacklevel=3,
        )
    if residual_weighted:
        return _solve_residual_weighted(theta, beta, alphas, horizon, cfg, metadata)
    # trading 1/n of the residual with n stages to go composes to the equal split
    w = _build_mesh(total, beta / theta, cfg.grid_nodes, _REFINE).official
    to_go = range(T, 0, -1)
    values = [
        w * beta * mills_psi((theta * w + n * a) / (n * beta)) for a, n in zip(alphas, to_go)
    ]
    table = PolicyTable(
        stages=tuple(ClosedLinearPolicy(1.0 / n) for n in to_go),
        value_samples=tuple(np.column_stack([w, v]) for v in values),
        metadata=metadata,
    )
    return Schedule.from_trades([total / T] * T, total), table


def solve_benchmark_simple(
    params: Benchmark, horizon: Horizon, config: RecursionConfig | None = None
) -> tuple[Schedule, PolicyTable]:
    """Equal-split optimum for the trade-weighted arithmetic walk.

    With n stages to go the optimal trade is W/n, independent of theta and
    sigma; values come from the closed form sigma*W*psi(theta*W/(n*sigma)).
    """
    return _solve_arithmetic(params, horizon, None, "simple", config)


def solve_ar1_simple(
    params: Ar1Extra,
    horizon: Horizon,
    x0: float,
    config: RecursionConfig | None = None,
) -> tuple[Schedule, PolicyTable]:
    """Equal-split optimum when an AR(1) information state shifts the premium.

    The stage-t premium shift is alpha_t = gamma*rho^t*x0 (the observed state
    propagated at its conditional mean) and the composite noise scale is
    beta = sqrt(gamma^2*sigma_eta^2 + sigma_eps^2); the linear trading rule
    is unchanged by the state, only the value moves.
    """
    return _solve_arithmetic(params, horizon, x0, "simple", config)


def solve_benchmark_complex(
    params: Benchmark, horizon: Horizon, config: RecursionConfig | None = None
) -> tuple[Schedule, PolicyTable]:
    """Residual-weighted cost on the arithmetic walk.

    Every free stage runs the grid recursion; the last one continues on the
    exact terminal value, so it solves the first-order condition
    W*theta*psi'(u) - sigma*psi(v) - (W-S)*theta*psi'(v) = 0 by safeguarded
    Newton (monotone objectives pin to the matching boundary).  The reported
    schedule is the certainty-equivalent composition (all noise at its
    mean), each stage re-solved at its exact residual.
    """
    return _solve_arithmetic(params, horizon, None, "complex", config)


def solve_ar1_complex(
    params: Ar1Extra,
    horizon: Horizon,
    x0: float,
    config: RecursionConfig | None = None,
) -> tuple[Schedule, PolicyTable]:
    """Residual-weighted cost with the AR(1) premium shift.

    Stage-t premiums use alpha_t = gamma*rho^t*x0 held constant over the
    remaining horizon (the convention under which the closed forms hold) and
    beta = sqrt(gamma^2*sigma_eta^2 + sigma_eps^2); gamma = 0 collapses to
    :func:`solve_benchmark_complex` exactly.
    """
    return _solve_arithmetic(params, horizon, x0, "complex", config)
