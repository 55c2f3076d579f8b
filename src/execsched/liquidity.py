"""Backward induction under the volume-constrained liquidity law.

The law couples own trading to an AR(1) traded-volume process:

    O' = rho*O + eta,                            eta ~ N(0, sigma_eta^2)
    P' = P*(alpha + 1 + beta*S - gamma*O') + eps,  eps ~ N(0, sigma_eps^2)

with beta = theta + gamma and the interval constraint S <= O'.  Conditional
on the decision state (P, O) the one-step premium P' - P is Gaussian, so each
stage cost takes the same Mills-ratio form the other solvers use, with the
triple of the law's ``move``:

    theta_hat = P*beta,
    alpha_hat = P*(alpha - gamma*rho*O),
    beta_hat  = sqrt(gamma^2 P^2 sigma_eta^2 + sigma_eps^2).

The terminal stage trades the whole residual, so V_T is the closed form
W * beta_hat * psi((theta_hat*W + alpha_hat)/beta_hat) at the realized state.
Stage T-1 takes the exact expectation of that form over (eta, eps): after
conditioning on P' (itself Gaussian) the volume innovation is Gaussian again,
so the double integral becomes a Gauss-Hermite rule in the conditional volume
crossed with panelled Gauss-Legendre in P'.  At each price node the volume
rule integrates the smooth psi along a line u = base + c_k*z in its nodes z,
so its order is sized by the largest |c_k|: the smallest order of a fixed
ladder that resolves psi to rounding on such a line, with ``quad_order`` as
the cap.  The panels are graded toward
P' = 0, where the terminal scale hypot(gamma*P'*sigma_eta, sigma_eps) has a
kink that a raw tensor Hermite rule resolves poorly.  How many points a panel
needs is measured before the grid pass: a probe evaluates the objective at a
few dozen trades, the pass's own scan points and those whose mean next price
sits near the kink, on a ladder of orders, and the pass takes the first order
that agrees with the next to 1e-14.  The reported trade is re-solved at the
exact residual on the pass's own machinery, and checked once at twice its
panel points and volume order.  The price mesh spans
10 s_P beyond the centers A0(S) of every trade the stage can make, but one
trade's Gaussian weight falls below 3e-18 of its peak past 9 s_P.  So each
evaluated block of trades works on a window: the contiguous run of the
sorted price nodes within ``_WINDOW_SIGMAS`` = 9 s_P of some trade's center,
found by binary search.  Blocks are sized by their window, so
``_BLOCK_ELEMS`` still bounds the tensor, and they run one after another on
the calling thread.  Each block allocates its own Mills arguments and
kernel arrays, so the memory a call holds is one block's, whatever its
number of elements.  The stage T-1 objective
is smooth in the trade S: the price-node weights are Gaussian in an affine
function of S and every Mills argument shifts linearly with S, so its first
and second S-derivatives come in closed form from psi, psi' and psi'' on the
same tensor.  The same volume-node sums of psi and psi' also give the
objective and the expected terminal slope dV_T/dW, so one pass returns all
four.  It need not be unimodal (it can rise from S = 0 over a hump),
so a coarse scan brackets the best scan point and the shared safeguarded
Newton finishes on the first-order condition, carrying the objective and the
slope out of its last evaluation: the stage values and the envelope slopes
that seed the continuation spline cost no further pass over the tensor, except
at nodes where a scan point beats Newton.  Stages before T-1 run the
shared residual-grid recursion at certainty-equivalent states, every search
interval capped by the volume bound.

Schedules report the certainty-equivalent path (the law's ``step`` at zero
noise under an equal provisional split, so the volume is propagated by rho and
clamped at zero); the PolicyTable carries the full state-contingent rules.
Solvers treat O' as Gaussian without the clamp, in line with the closed forms;
the clamp belongs to simulated paths, and the metadata's
``volume_clamp_probability`` says how often it fires from each
certainty-equivalent state.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dp import (
    Horizon,
    InfeasibleLiquidityError,
    MillsRecursionProblem,
    PolicyTable,
    RecursionConfig,
    Schedule,
    SolverError,
    _backward_pass,
    _build_mesh,
    _grid_table,
    _MillsStage,
    _newton_diagnostics,
    _quadrature_drift,
    _resolve_stage,
    _scalar_stage_solve,
    _scan_newton,
    _SplineCont,
    _whole_residual,
)

# bench/tracing.py wraps ``mills_psi_prime`` under this module's name, so it
# stays importable from it though unused here.
from .kernels import (  # noqa: F401
    GH_MAX_ORDER,
    gauss_hermite,
    mills_psi,
    mills_psi_derivs,
    mills_psi_prime,
)
from .models import Liquidity, MarketState, _certainty_equivalent_path

__all__ = ["solve_liquidity"]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Elements of one evaluated block of the stage T-1 tensor: it bounds the
# memory a block holds, so that memory does not grow with the node count.
_BLOCK_ELEMS = 1 << 16
# Log steps per gap of the published grid.  Stage T-1 on the full refined
# mesh is a dense (nodes x price x volume) tensor per scan point and Newton
# step; two steps keep that affordable while the Hermite slopes preserve the
# continuation's accuracy.
_REFINE = 2
# Points of the coarse scan of the stage T-1 objective that brackets Newton.
_SCAN_POINTS = 9
# Gauss-Legendre points per price panel on the grid pass: the first rung
# whose objective at the probe's trades agrees within _PANEL_TOL relative
# with the next rung's (see _panel_order), else the last.  The order is
# measured, not predicted: Gauss-Legendre converges at a rate set by the
# integrand's nearest complex singularities, here those the kink of the
# terminal scale at P' = 0 pulls toward the real axis, and no closed function
# of the law (s_P against the kink, A0 against s_P, the volume slope) told
# the laws that 10 points resolve from those that need 48.  The re-solve of
# the reported trade runs on the grid pass's panels.
_PANEL_LADDER = (8, 10, 12, 16, 24, 32, 48, 64)
_PANEL_TOL = 1e-14
# Residuals spread over the grid at which the panel probe also evaluates the
# trades whose mean next price A0 sits at P' = 0 and one s_P either side:
# the quadrature error peaks where A0 is within a few s_P of the kink.
_KINK_PROBES = 9
# Reach of the price mesh around its Gaussian center, in units of s_P.
_PRICE_SPAN = 10.0
# Half-width, in units of s_P, of the price-node window an evaluated block
# keeps around its elements' centers A0(S): past 9 s_P a node's Gaussian
# weight is below 3e-18 of the peak (e^{-40.5}).
_WINDOW_SIGMAS = 9.0
# Volume nodes a run budgets per (element, price node) pair, at least: so a
# block's arrays stay small under a sized rule of 4 or 8 nodes too.  At 4
# nodes its 3-D arrays are within 4096 x 4 elements (128 KiB), which malloc
# serves from the heap the process already holds.  With no floor they take
# fresh pages in every block: a bench liquidity solve faulted about 5k pages
# instead of none and ran about 15% slower, and its policy changed bits.
_MIN_RUN_NODES = 16
# The volume Gauss-Hermite ladder: (order n, largest slope c).  The n-node
# rule's error in the z-sums of psi(b + c*z) (relative) and psi'(b + c*z)
# (absolute) over every base b grows like c^p, p rising toward 2n as c
# falls; measured at 1e-11 and 1e-12 and extrapolated at that p, it is below
# 1e-15 up to each limit.  It peaks at bases b of about 1 to 2, below the
# poles of phi/Phi nearest the real line, at 1.92 +- 2.82i.
_VOLUME_LADDER = ((4, 0.032), (8, 0.21), (16, 0.54), (32, 0.94))


def _volume_order(slope: float, cap: int) -> int:
    """The smallest ``_VOLUME_LADDER`` order below ``cap`` whose rule resolves
    a volume line of ``slope``, else ``cap``: never smaller at a larger slope."""
    return next((n for n, limit in _VOLUME_LADDER if n < cap and slope <= limit), cap)


@lru_cache(maxsize=16)
def _leggauss_cached(order: int):
    """The ``order``-point Gauss-Legendre rule on [-1, 1], read-only."""
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _price_mesh(lo: float, hi: float, s_p: float, kink_scale: float, order: int):
    """Gauss-Legendre panels on [lo, hi], graded toward the kink at zero.

    Panel widths are capped at s_p; around P' = 0 the breakpoints follow a
    geometric ladder at the scale where the two noise arms cross.
    """
    pts = {lo, hi}
    if lo < 0.0 < hi:
        pts.add(0.0)
        step = kink_scale
        limit = max(hi, -lo)
        while step < limit:
            if lo < step < hi:
                pts.add(step)
            if lo < -step < hi:
                pts.add(-step)
            step *= 3.0
    bks = sorted(pts)
    edges = []
    for a, b in zip(bks[:-1], bks[1:]):
        nsub = max(1, math.ceil((b - a) / s_p))
        edges.extend(a + (b - a) * k / nsub for k in range(nsub))
    edges.append(bks[-1])
    edges = np.asarray(edges, dtype=float)
    xg, wg = _leggauss_cached(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


@dataclass(frozen=True)
class _Penultimate:
    """Stage T-1 expectation machinery at a fixed decision state (P, O).

    Every method takes flat arrays of trades and residuals and evaluates
    the (element, price node, volume node) tensor in blocks of about
    ``_BLOCK_ELEMS`` elements, each on its window of price nodes and in
    arrays of its own, so memory stays flat in the number of elements.
    """

    params: Liquidity
    price: float
    volume: float
    cap: float
    x: np.ndarray  # P' abscissae, ascending
    w: np.ndarray  # bare Gauss-Legendre weights
    z_nodes: np.ndarray
    z_weights: np.ndarray

    @cached_property
    def stage(self) -> _MillsStage:
        """The stage cost of the law's move from (P, O)."""
        return _MillsStage(*self.params.move(self.price, self.volume), False)

    @property
    def s_p(self) -> float:
        return self.stage.beta

    @cached_property
    def s_next(self) -> np.ndarray:
        """Terminal noise scale s(P') at every price node (it does not depend on O')."""
        return self.params.move(self.x, 0.0)[2]

    @cached_property
    def slope(self) -> np.ndarray:
        """c_k at every price node: the step of the terminal Mills argument
        per volume node, -gamma*rho*sqrt(2)*sigma_c * P'/s(P') with sigma_c =
        sigma_eta*sigma_eps/s_P.  The volume rule integrates psi along these
        lines (see :meth:`_tensor`)."""
        p = self.params
        sig_c = p.sigma_eta * p.sigma_eps / self.s_p
        return -(p.gamma * p.rho * _SQRT2 * sig_c) * self.x / self.s_next

    @property
    def volume_slope(self) -> float:
        """The largest |c_k|, which sizes the volume rule (``_volume_order``)."""
        return float(np.abs(self.slope).max())

    def _mean(self, trades):
        """A0(S) = P + theta_hat*S + alpha_hat, the mean of P' given S."""
        return self.price + (self.stage.theta * trades + self.stage.alpha)

    def _runs(self, trades, resids) -> list[tuple]:
        """The (trades, resids, nodes) runs a call's tensor is evaluated in.

        ``nodes`` is the run's window: the contiguous slice of the sorted price
        nodes within ``_WINDOW_SIGMAS`` s_P of some element's A0(S).  A run
        grows while its elements times its window's price nodes times the
        volume nodes, at least ``_MIN_RUN_NODES``, stay within
        ``_BLOCK_ELEMS``.
        """
        trades, resids = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (trades, resids))
        )
        a0 = self._mean(trades)
        reach = _WINDOW_SIGMAS * self.s_p
        lo = np.searchsorted(self.x, a0 - reach, side="left")
        hi = np.searchsorted(self.x, a0 + reach, side="right")
        per_node = max(self.z_nodes.size, _MIN_RUN_NODES)
        # a window of one node or more fits at most this many elements
        most = max(1, _BLOCK_ELEMS // per_node)
        runs = []
        i = 0
        while i < trades.size:
            # window bounds and tensor size of the runs i..i+k-1, k = 1, 2, ...
            first = np.minimum.accumulate(lo[i : i + most])
            last = np.maximum.accumulate(hi[i : i + most])
            size = np.arange(1, first.size + 1) * (last - first) * per_node
            k = max(1, int(np.searchsorted(size, _BLOCK_ELEMS, side="right")))
            runs.append((trades[i : i + k], resids[i : i + k], slice(first[k - 1], last[k - 1])))
            i += k
        return runs

    def _blocked(self, block, trades, resids):
        """``block(trades, resids, nodes)`` over the :meth:`_runs` of a call,
        joined in run order."""
        parts = [block(s, r, nodes) for s, r, nodes in self._runs(trades, resids)]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(col) for col in zip(*parts))
        return np.concatenate(parts)

    def _tensor(self, trades, resids, nodes):
        """(zscore, gauss_w, u) for a block on the price ``nodes``: their
        z-scores and weights under P' ~ N(A0(S), s_P^2), and the terminal
        Mills arguments.

        Conditioning on P', whose mean is A0(S), leaves eta | P' Gaussian with
        mean -gamma*P*sigma_eta^2*(P' - A0)/s_P^2 and standard deviation
        sigma_eta*sigma_eps/s_P.
        """
        p, s_p = self.params, self.s_p
        x, s_next = self.x[nodes], self.s_next[nodes]
        zscore = (x[None, :] - self._mean(trades)[:, None]) / s_p
        gauss_w = self.w[nodes][None, :] * np.exp(-0.5 * zscore**2) / (s_p * _SQRT_2PI)
        mu_c = -(p.gamma * self.price * p.sigma_eta**2) * zscore / s_p
        # u = (theta'*W + alpha') / s(P') from the move at (P', O') is affine
        # in the volume node: O' = rho*O + mu_c + sqrt(2)*sig_c*z_j, so
        # u = base[n, k] + slope[k] * z_j without an O' tensor.
        theta_next, alpha_next, _ = p.move(x, p.rho * self.volume + mu_c)
        base = (theta_next * resids[:, None] + alpha_next) / s_next
        u = base[:, :, None] + self.slope[nodes][:, None] * self.z_nodes
        return zscore, gauss_w, u

    def _terminal(self, resids, nodes, gauss_w, psi, dpsi=None):
        """E over (eta, eps) of V_T at residuals ``resids`` from the volume-node
        sums of psi(u), or of dV_T/dW when those of psi'(u) come too."""
        s_next = self.s_next[nodes]
        if dpsi is None:
            over_z = resids[:, None] * s_next[None, :] * psi
        else:
            over_z = s_next[None, :] * psi + (
                resids[:, None] * self.x[nodes][None, :] * self.params.beta
            ) * dpsi
        return np.einsum("nk,nk->n", over_z / _SQRT_PI, gauss_w)

    def _objective_block(self, trades, resids, nodes):
        r = resids - trades
        _, gauss_w, u = self._tensor(trades, r, nodes)
        psi = mills_psi(u) @ self.z_weights
        return self.stage.value(trades, trades) + self._terminal(r, nodes, gauss_w, psi)

    def objective(self, trades, resids) -> np.ndarray:
        """The stage cost of ``trades`` plus the expectation over (eta, eps)
        of V_T at the residuals ``resids - trades`` they leave."""
        return self._blocked(self._objective_block, trades, resids)

    def _derivs_block(self, trades, resids, nodes):
        p, s_p = self.params, self.s_p
        r = resids - trades
        zscore, gauss_w, u = self._tensor(trades, r, nodes)
        psi, d1, d2 = (k @ self.z_weights for k in mills_psi_derivs(u))
        # A0 moves by P*beta per share: the z-scores fall at that rate over
        # s_P, and u moves through the residual and the conditional mean of
        # eta, by the same amount at every volume node
        rate = self.stage.theta / s_p
        du = -(p.beta + p.gamma * p.rho * (p.gamma * self.price * p.sigma_eta**2 / s_p) * rate) * (
            self.x[nodes] / self.s_next[nodes]
        )
        dw = gauss_w * zscore * rate
        ddw = gauss_w * (zscore * zscore - 1.0) * (rate * rate)
        # per price node, s(P') times the z-sum of r*psi(u) and its two
        # derivatives in S
        rr = r[:, None]
        f0 = rr * psi
        f1 = rr * du * d1 - psi
        f2 = du * (rr * du * d2 - 2.0 * d1)
        scale = self.s_next[nodes] / _SQRT_PI
        e1 = (dw * f0 + gauss_w * f1) @ scale
        e2 = (ddw * f0 + 2.0 * dw * f1 + gauss_w * f2) @ scale
        c1, c2 = self.stage.ds_dss(trades, resids)
        j = self.stage.value(trades, trades) + self._terminal(r, nodes, gauss_w, psi)
        return c1 + e1, c2 + e2, j, self._terminal(r, nodes, gauss_w, psi, d1)

    def objective_derivs(self, trades, resids) -> tuple[np.ndarray, ...]:
        """(dJ/dS, d2J/dS2, J, dV_T/dW) at residuals ``resids``: the first two
        S-derivatives of :meth:`objective`, its value, and the slope of the
        expected terminal value in the residual left after the trade, all
        from one pass over the tensor."""
        return self._blocked(self._derivs_block, trades, resids)


def _make_penultimate(
    params: Liquidity,
    price: float,
    volume: float,
    cap: float,
    s_max: float,
    panel_order: int,
    z_order: int,
) -> _Penultimate:
    theta_hat, alpha_hat, s_p = params.move(price, volume)
    a0_lo = price + alpha_hat
    a0_hi = a0_lo + theta_hat * s_max
    kink = params.sigma_eps / (params.gamma * params.sigma_eta)
    x, w = _price_mesh(
        a0_lo - _PRICE_SPAN * s_p, a0_hi + _PRICE_SPAN * s_p, s_p, kink, panel_order
    )
    rule = gauss_hermite(z_order)
    return _Penultimate(
        params=params,
        price=price,
        volume=volume,
        cap=cap,
        x=x,
        w=w,
        z_nodes=rule.nodes,
        z_weights=rule.weights,
    )


def _probe_points(pen: _Penultimate, w_nodes: np.ndarray):
    """(trades, resids) at which :func:`_panel_order` compares rungs.

    The grid pass's own ``_SCAN_POINTS`` scan trades at the bottom, middle
    and top residuals of ``w_nodes``; and at ``_KINK_PROBES`` residuals
    spread over them, the trades whose A0(S) is -s_P, 0 and s_P, each held
    to [0, min(W, cap)]; each (trade, residual) pair once.
    """
    ends = w_nodes[[0, w_nodes.size // 2, -1]]
    scan = np.minimum(ends, pen.cap)[:, None] * np.linspace(0.0, 1.0, _SCAN_POINTS)
    spread = np.linspace(0, w_nodes.size - 1, _KINK_PROBES).round().astype(int)
    spread = w_nodes[np.unique(spread)]
    # A0(S) = price + theta_hat*S + alpha_hat, with theta_hat = P*beta > 0
    at_a0 = np.array([-1.0, 0.0, 1.0]) * pen.s_p
    at_kink = (at_a0 - pen.price - pen.stage.alpha) / pen.stage.theta
    kink = np.clip(at_kink, 0.0, np.minimum(spread, pen.cap)[:, None])
    # held trades often repeat (at S = 0 on the bench law), so each pair once
    trades, resids = np.unique(
        [
            np.concatenate([scan.ravel(), kink.ravel()]),
            np.concatenate([np.repeat(ends, _SCAN_POINTS), np.repeat(spread, at_kink.size)]),
        ],
        axis=1,
    )
    return trades, resids


def _panel_order(make: Callable[[int], _Penultimate], w_nodes: np.ndarray):
    """(order, machinery): the grid pass's price-panel order over residuals
    ``w_nodes`` and ``make(order)``, its stage T-1 machinery.

    The probe evaluates the objective at :func:`_probe_points` on each rung
    of ``_PANEL_LADDER`` in turn; the order is the first rung whose values
    all lie within ``_PANEL_TOL`` relative of the next rung's, else the last
    rung.  It depends on the law, the state and the residuals only.
    """
    order, *finer = _PANEL_LADDER
    pen = make(order)
    trades, resids = _probe_points(pen, w_nodes)
    value = pen.objective(trades, resids)
    for next_order in finer:
        next_pen = make(next_order)
        next_value = next_pen.objective(trades, resids)
        if np.all(np.abs(value - next_value) <= _PANEL_TOL * np.abs(next_value)):
            break
        order, pen, value = next_order, next_pen, next_value
    return order, pen


def _penultimate_pass(
    pen: _Penultimate, w_nodes: np.ndarray, cfg: RecursionConfig, stage: int
):
    """The minimum of the exact stage T-1 objective (``stage``) at every node.

    Returns trades, values, the envelope slopes dV_{T-1}/dW used to seed the
    continuation spline for earlier stages, the slope at the origin and the
    Newton diagnostics.  Values and slopes are the ones the search carried
    out of its evaluations at the returned trades.
    """
    w_nodes = np.asarray(w_nodes, dtype=float)
    ub = np.minimum(w_nodes, pen.cap)
    s, v, report = _scan_newton(
        lambda x, idx: pen.objective(x, w_nodes[idx]),
        lambda x, idx: pen.objective_derivs(x, w_nodes[idx]),
        ub,
        _SCAN_POINTS,
        cfg.newton_iters,
    )
    # dV/dW is the expected terminal slope Newton carried, except where the
    # whole residual trades: then it is the stage cost's s-derivative
    vd = np.where(
        _whole_residual(s, ub, w_nodes), pen.stage.ds_dss(s, w_nodes)[0], report.carried[1]
    )
    # at the origin the terminal slope comes out of the same pass as J
    slope0 = pen.stage.slope_at_origin(float(pen.objective_derivs(0.0, 0.0)[3][0]))
    return s, v, vd, slope0, _newton_diagnostics(report, stage)[0]


def solve_liquidity(
    params: Liquidity,
    horizon: Horizon,
    state: MarketState,
    config: RecursionConfig | None = None,
) -> tuple[Schedule, PolicyTable]:
    """Optimal schedule when each trade is capped by AR(1) interval volume.

    ``state.price`` is the current price P and ``state.aux`` the volume O of
    the interval just ended.  The terminal stage uses the closed Mills form,
    stage T-1 the exact (eta, eps) expectation of it under quadrature, and
    earlier stages the shared grid recursion at certainty-equivalent states.
    Every stage's search interval is [0, min(W, volume bound)]; a bound that
    is not positive makes the remaining program infeasible and raises
    InfeasibleLiquidityError, as does a certainty-equivalent terminal
    residual above the last bound.
    """
    cfg = config or RecursionConfig()
    if state.price <= 0.0:
        raise ValueError(f"liquidity law needs price > 0, got {state.price}")
    T = horizon.T
    total = horizon.total_shares
    tol = 1e-9 * total

    # certainty-equivalent states under an equal provisional split: stage t
    # decides at path[t-1], and its volume bound is the mean volume path[t].aux
    path = _certainty_equivalent_path(params, state, total / T, T)
    bounds = [s.aux for s in path[1:]]
    for t, bound in enumerate(bounds, start=1):
        if bound <= 0.0:
            raise InfeasibleLiquidityError(
                f"stage {t}: certainty-equivalent volume bound {bound} is not "
                "positive, the search interval is empty"
            )
    for t, s in enumerate(path[:-1], start=1):
        if s.price <= 0.0:
            raise SolverError(
                f"stage {t}: certainty-equivalent price {s.price} is not positive; "
                "the liquidity stage machinery needs P > 0"
            )

    metadata = {
        "model": "liquidity",
        "formulation": "simple",
        "method": "quadrature-recursion",
        "grid_nodes": cfg.grid_nodes,
        "price": state.price,
        "volume": state.aux,
        "volume_bounds": tuple(bounds),
        "volume_clamp_probability": tuple(params.clamp_probability(s.aux) for s in path[:-1]),
    }

    thetas, alphas, betas = zip(*(params.move(s.price, s.aux) for s in path[:-1]))
    problem = MillsRecursionProblem(
        horizon=horizon,
        thetas=thetas,
        alphas=alphas,
        betas=betas,
        weight_by_residual=False,
        trade_caps=tuple(bounds),
        model_tag="liquidity",
    )
    mesh = _build_mesh(total, problem.curvature_scale, cfg.grid_nodes, _REFINE)

    grid_trades: list[np.ndarray] = []
    grid_values: list[np.ndarray] = []
    trades: list[float] = []
    diagnostics: list[dict] = []
    w = total
    if T > 1:
        pen_nodes = mesh.official if T == 2 else mesh.fine
        make = partial(
            _make_penultimate,
            params,
            path[T - 2].price,
            path[T - 2].aux,
            bounds[T - 2],
            float(min(total, bounds[T - 2])),
        )
        # quad_order caps the volume rule, sized here, before any block
        # is planned, by the largest slope of the densest price mesh the
        # panel probe may try.  Then the probe sizes the price panels.
        densest = make(_PANEL_LADDER[-1], cfg.quad_order)
        z_order = _volume_order(densest.volume_slope, cfg.quad_order)
        panel_order, pen = _panel_order(partial(make, z_order=z_order), pen_nodes)
        s_pen, v_pen, vd_pen, slope0, pen_diag = _penultimate_pass(pen, pen_nodes, cfg, T - 1)
        if T > 2:
            cont = _SplineCont.from_slopes(
                mesh.nodes,
                np.concatenate([[0.0], v_pen]),
                np.concatenate([[slope0], vd_pen]),
            )
            families = {t: problem.family(t) for t in range(T - 2, 0, -1)}
            res = _backward_pass(families, cont, mesh, cfg, problem.trade_caps)
            for t in range(1, T - 1):
                grid_trades.append(res.trades[t][0])
                grid_values.append(res.values[t][0])
                s, iters = _scalar_stage_solve(families[t], res.conts[t], w, bounds[t - 1], cfg)
                diagnostics.append(
                    {"stage": t, **res.diagnostics[t][0], "schedule_iterations": iters}
                )
                trades.append(s)
                w -= s
            s_pen, v_pen = s_pen[mesh.official_idx], v_pen[mesh.official_idx]
        grid_trades.append(s_pen)
        grid_values.append(v_pen)

        # the reported trade at the exact residual, on the grid pass's
        # machinery (its mesh spans min(total, cap) >= min(w, cap)), then
        # checked at twice the panel points and the volume order doubled
        s, j_star, iters = _resolve_stage(
            lambda x, idx: pen.objective(x, w),
            lambda x, idx: pen.objective_derivs(x, w),
            min(w, bounds[T - 2]),
            _SCAN_POINTS,
            cfg,
        )
        doubled_z = min(2 * z_order, GH_MAX_ORDER)
        j_doubled = float(make(2 * panel_order, doubled_z).objective(s, w)[0])
        drift = _quadrature_drift(j_star, j_doubled, "T-1", z_order, doubled_z)
        diagnostics.append({
            "stage": T - 1,
            **pen_diag,
            "schedule_iterations": iters,
            "panel_order": panel_order,
            "volume_order": z_order,
            "quadrature_drift": drift,
        })
        trades.append(s)
        w -= s

    if w > bounds[T - 1] + tol:
        raise InfeasibleLiquidityError(
            f"terminal residual {w} exceeds the stage {T} volume bound {bounds[T - 1]}"
        )
    trades.append(w)
    grid_values.append(problem.terminal().value(mesh.official, 0))
    metadata["diagnostics"] = diagnostics
    table = _grid_table(mesh.official, grid_trades, grid_values, metadata)
    return Schedule.from_trades(trades, total), table
