"""Schedule solver for the geometric no-impact price with percentage impact.

The observed price is P_t = P~_t(1 + theta*S_t + gamma*X_t) around a
log-normal no-impact price P~_t = P~_{t-1}e^{B_t}, so each stage premium is
a conditional expectation of e^X*Y + k (normal log-normal mixture) rather
than a plain truncated normal.  Value functions are linear in P~, which lets
the recursion work per unit of no-impact price with the price ratio
r_t = P_{t-1}/P~_{t-1} frozen along the certainty-equivalent trajectory.

The auxiliary state X survives into the continuation, so E[V_{t+1}] is
approximated by least-squares polynomial fits in X on stratified samples of
the X-marginal (the usual regression treatment of a conditioning variable in
simulation-based recursions), with the fitted basis integrated against the
AR(1) innovation in closed form.

The premium depends on the trade only through the mean of Y, so its first
two trade derivatives come in closed form from the same Gauss-Hermite pieces
as its value, and every stage, on the grid and in the certainty-equivalent
re-solve, runs the shared safeguarded Newton on the first-order condition.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import ndtri

from execsched.dp import (
    Horizon,
    PolicyTable,
    RecursionConfig,
    Schedule,
    _build_mesh,
    _grid_table,
    _newton_diagnostics,
    _pchip,
    _resolve_stage,
    _SplineCont,
    _vec_newton,
)
from execsched.kernels import (
    MixtureRegimeError,
    _lognormal_shift_conditional,
    _lognormal_shift_derivs,
    _mixture_derivs_gh,
    _mixture_expectation_gh,
)
from execsched.models import LinearPercentage, MarketState

__all__ = ["solve_gbm_simple"]

# Grid refinement is capped for this model: every Newton step costs a
# Gauss-Hermite pass over the mixture, and the spline payoff from refine=8
# is far below the regression error in X.
_GBM_MAX_REFINE = 2


def _premium_mean(params: LinearPercentage, s, x):
    """Mean of Y, 1 + theta*s + gamma*rho*x; the premium's only s-dependence."""
    s = np.asarray(s, dtype=float)
    return 1.0 + params.theta * s + params.gamma * params.rho * np.asarray(x, dtype=float)


def _stage_premium(params: LinearPercentage, s, x, ratio: float, order: int):
    """Per-share, per-unit-P~ premium E[D | D > 0] for a stage trade s at state x.

    D/P~ = e^B * Y - ratio with Y ~ N(1 + theta*s + gamma*rho*x, (gamma*sigma_eta)^2).
    """
    mu_y = _premium_mean(params, s, x)
    if params.gamma == 0.0:
        return _lognormal_shift_conditional(params.mu_B, params.sigma_B, mu_y, -ratio)
    return _mixture_expectation_gh(
        params.mu_B,
        params.sigma_B,
        mu_y,
        params.gamma * params.sigma_eta,
        -ratio,
        order=order,
    )


def _stage_premium_derivs(params: LinearPercentage, s, x, ratio: float, order: int):
    """The stage premium and its first two s-derivatives (d mu_Y/ds = theta)."""
    mu_y = _premium_mean(params, s, x)
    if params.gamma == 0.0:
        prem, d1, d2 = _lognormal_shift_derivs(params.mu_B, params.sigma_B, mu_y, -ratio)
    else:
        prem, d1, d2 = _mixture_derivs_gh(
            params.mu_B, params.sigma_B, mu_y, params.gamma * params.sigma_eta, -ratio, order
        )
    return prem, params.theta * d1, params.theta * params.theta * d2


def _x_samples(params: LinearPercentage, x0: float, t: int, m: int) -> np.ndarray:
    """Stratified quantile samples of the X_{t-1} marginal (atom x0 at t=1)."""
    if t == 1 or params.gamma == 0.0:
        return np.array([x0 if t == 1 else params.rho ** (t - 1) * x0])
    mean = params.rho ** (t - 1) * x0
    var = params.sigma_eta**2 * sum(params.rho ** (2 * j) for j in range(t - 1))
    z = ndtri((np.arange(m) + 0.5) / m)
    return mean + math.sqrt(var) * z


def _eta_moments(m, sigma: float, degree: int) -> list:
    """Raw moments E[(m + eta)^d] for eta ~ N(0, sigma^2), d = 0..degree."""
    m = np.asarray(m, dtype=float)
    v = sigma * sigma
    out = [np.ones_like(m), m, m * m + v]
    if degree >= 3:
        out.append(m**3 + 3.0 * m * v)
    if degree >= 4:
        out.append(m**4 + 6.0 * m * m * v + 3.0 * v * v)
    return out[: degree + 1]


def _fit_continuation(
    params: LinearPercentage,
    nodes: np.ndarray,
    v_grid: np.ndarray,
    x_next: np.ndarray,
    x_now: np.ndarray,
    degree: int,
) -> _SplineCont:
    """Monotone cubic (PCHIP) splines of w -> E_eta[v_{t+1}(w, rho*x + eta)].

    One column per current sample x.  ``v_grid`` holds v_{t+1} at (node,
    x_next-sample); the X dependence is fitted per node with a least-squares
    polynomial and the AR(1) innovation integrated against the basis in
    closed form.
    """
    if x_next.size == 1:
        g = np.tile(v_grid[:, 0][:, None], (1, x_now.size))
    else:
        deg = min(degree, x_next.size - 1)
        # polynomial.polyfit returns coefficients per column, low order first
        coeffs = np.polynomial.polynomial.polyfit(x_next, v_grid.T, deg)
        moments = _eta_moments(params.rho * x_now, params.sigma_eta, deg)
        g = np.zeros((nodes.size, x_now.size))
        for d in range(deg + 1):
            g += coeffs[d][:, None] * moments[d][None, :]
    g = np.maximum(g, 0.0)
    g[0, :] = 0.0  # v(0, x) = 0 exactly
    return _pchip(nodes, g)


def _stage_objective(
    params: LinearPercentage,
    w: np.ndarray,
    x: np.ndarray,
    col: np.ndarray,
    ratio: float,
    cont: _SplineCont,
    e_fac: float,
    cfg: RecursionConfig,
):
    """(objective, foc) of s*premium + E[e^B]*cont(w - s) over s in [0, w].

    Element e is residual w[e] at state x[e], continued by column col[e] of
    ``cont``; both take trades ``s`` of the elements ``idx``.  ``foc`` gives
    the first-order condition and its s-derivative in closed form.
    """

    def resid(s, idx):
        return np.minimum(np.clip(w[idx] - s, 0.0, None), cont.x[-1])

    def objective(s, idx):
        prem = _stage_premium(params, s, x[idx], ratio, cfg.quad_order)
        return s * prem + e_fac * cont.value(resid(s, idx), col[idx])

    def foc(s, idx):
        prem, d1, d2 = _stage_premium_derivs(params, s, x[idx], ratio, cfg.quad_order)
        d, dd = cont.d_dd(resid(s, idx), col[idx])
        return prem + s * d1 - e_fac * d, 2.0 * d1 + s * d2 + e_fac * dd

    return objective, foc


def _minimize_stage(
    params: LinearPercentage,
    w: np.ndarray,
    x: np.ndarray,
    ratio: float,
    cont: _SplineCont | None,
    e_fac: float,
    cfg: RecursionConfig,
    stage: int,
):
    """The solve of ``stage`` at every (w, x) pair; ``cont`` has one column per x.

    Returns (s*, value) per pair and the Newton diagnostics.
    """
    W, X = np.meshgrid(w, x, indexing="ij")
    w_flat, x_flat = W.ravel(), X.ravel()
    if cont is None:
        s_flat = w_flat.copy()
        v_flat = s_flat * _stage_premium(params, s_flat, x_flat, ratio, cfg.quad_order)
        return s_flat.reshape(W.shape), v_flat.reshape(W.shape), {}

    col = np.repeat(np.arange(x.size)[None, :], w.size, axis=0).ravel()
    objective, foc = _stage_objective(params, w_flat, x_flat, col, ratio, cont, e_fac, cfg)
    s_flat, report = _vec_newton(foc, np.zeros_like(w_flat), w_flat, cfg.newton_iters)
    v_flat = objective(s_flat, np.arange(s_flat.size))
    return s_flat.reshape(W.shape), v_flat.reshape(W.shape), _newton_diagnostics(report, stage)[0]


def solve_gbm_simple(
    params: LinearPercentage,
    horizon: Horizon,
    state: MarketState,
    config: RecursionConfig | None = None,
) -> tuple[Schedule, PolicyTable]:
    """Trade-weighted cost under the linear-percentage law of motion.

    The terminal stage prices the forced trade with the normal log-normal
    mixture kernel; earlier stages run the regression recursion described in
    the module docstring.  Published policies and value samples are taken on
    the certainty-equivalent trajectory (B at its mean, X propagated by rho);
    value samples are in currency (per-unit values scaled by the CE no-impact
    price entering each stage).
    """
    cfg = config or RecursionConfig()
    if state.no_impact_price is None:
        raise ValueError("solve_gbm_simple needs state.no_impact_price (the P~ level)")
    T, total = horizon.T, horizon.total_shares
    x0 = state.aux
    e_fac = math.exp(params.mu_B + 0.5 * params.sigma_B**2)

    # CE price ratios r_t = P_{t-1}/P~_{t-1}: observed at t=1, then frozen
    # along a provisional equal split.
    ratios = [state.price / state.no_impact_price]
    for t in range(2, T + 1):
        ratios.append(
            1.0 + params.theta * (total / T) + params.gamma * params.rho ** (t - 1) * x0
        )
    for t, r in enumerate(ratios, start=1):
        if r <= 0.0:
            raise MixtureRegimeError(
                f"stage {t}: certainty-equivalent price ratio {r} is not positive; "
                "the conditional premium kernel needs k = -ratio < 0"
            )

    if cfg.refine > _GBM_MAX_REFINE:
        cfg = dataclasses.replace(cfg, refine=_GBM_MAX_REFINE)
    scale = math.hypot(params.sigma_B, params.gamma * params.sigma_eta) / params.theta
    mesh = _build_mesh(total, scale, cfg)
    fine, nodes, oi = mesh.fine, mesh.nodes, mesh.official_idx

    metadata = {
        "model": "linear_percentage",
        "formulation": "simple",
        "method": "regression-recursion",
        "grid_nodes": cfg.grid_nodes,
        "x0": x0,
        "price_ratio": ratios[0],
    }

    m = cfg.regression_samples if cfg.regression_samples % 2 == 1 else cfg.regression_samples + 1
    stage_x = {t: _x_samples(params, x0, t, m) for t in range(1, T + 1)}
    ce_idx = {t: stage_x[t].size // 2 for t in range(1, T + 1)}

    # Terminal stage on the fine grid, then fit and walk backward.
    policies: dict[int, np.ndarray] = {}
    values: dict[int, np.ndarray] = {}
    stage_conts: dict[int, _SplineCont] = {}
    grid_diags: dict[int, dict] = {}

    _, v_fine, _ = _minimize_stage(params, fine, stage_x[T], ratios[T - 1], None, e_fac, cfg, T)
    values[T] = v_fine[oi, ce_idx[T]]

    v_with_zero = np.vstack([np.zeros((1, stage_x[T].size)), v_fine])
    for t in range(T - 1, 0, -1):
        cont = _fit_continuation(
            params, nodes, v_with_zero, stage_x[t + 1], stage_x[t], cfg.regression_degree
        )
        stage_conts[t] = cont
        s_fine, v_fine, grid_diags[t] = _minimize_stage(
            params, fine, stage_x[t], ratios[t - 1], cont, e_fac, cfg, t
        )
        policies[t] = s_fine[oi, ce_idx[t]]
        values[t] = v_fine[oi, ce_idx[t]]
        v_with_zero = np.vstack([np.zeros((1, stage_x[t].size)), v_fine])

    # Forward certainty-equivalent pass at the exact residuals, Newton on [0, w].
    trades: list[float] = []
    diagnostics: list[dict] = []
    w = total
    for t in range(1, T):
        j = ce_idx[t]
        objective, foc = _stage_objective(
            params, np.array([w]), stage_x[t][j : j + 1], np.array([j]),
            ratios[t - 1], stage_conts[t], e_fac, cfg,
        )
        s, _, iters = _resolve_stage(objective, foc, w, 2, cfg)
        diagnostics.append({"stage": t, **grid_diags[t], "schedule_iterations": iters})
        trades.append(s)
        w -= s
    trades.append(w)
    metadata["diagnostics"] = diagnostics

    # value samples in currency: scaled by the CE no-impact price entering stage t
    table = _grid_table(
        mesh.official,
        [policies[t] for t in range(1, T)],
        [
            state.no_impact_price * math.exp((t - 1) * params.mu_B) * values[t]
            for t in range(1, T + 1)
        ],
        metadata,
    )
    return Schedule.from_trades(trades, total), table
