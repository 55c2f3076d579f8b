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

Y = theta*S + alpha + beta*Z is the law's ``move``, and the price ratios
come from its ``step`` at zero noise.  The premium depends on the trade only
through the mean of Y, so its first two trade derivatives come in closed form
from the same Gauss-Hermite pieces as its value, and every stage, on the grid
and in the certainty-equivalent re-solve, runs the shared safeguarded Newton
on the first-order condition.  That derivative pass is the only premium
evaluator: it also returns the stage objective, which Newton carries out of
its last evaluation, so no stage point is evaluated twice, and the re-solve's
scan, the doubled-order check and the forced last stage read their values
from it.  It runs the premium once per distinct mean of Y, so
at the S = 0 end of every bracket once per X sample rather than once per
grid node.
The Gauss-Hermite premium is under-resolved
when gamma*sigma_eta is small next to sigma_B, so each re-solve evaluates its
objective at the chosen trade again at doubled order and reports the relative
change as ``quadrature_drift``, warning above 1e-6.
"""
from __future__ import annotations

import math
from dataclasses import replace

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
    _quadrature_drift,
    _resolve_stage,
    _SplineCont,
    _vec_newton,
)
# bench/tracing.py wraps ``_mixture_expectation_gh`` and
# ``_lognormal_shift_conditional`` under this module's name, so they stay
# importable from it though unused here.
from execsched.kernels import (  # noqa: F401
    GH_MAX_ORDER,
    MixtureRegimeError,
    _lognormal_shift_conditional,
    _lognormal_shift_derivs,
    _mixture_derivs_gh,
    _mixture_expectation_gh,
)
from execsched.models import LinearPercentage, MarketState, _certainty_equivalent_path

__all__ = ["solve_gbm_simple"]

# Log steps per gap of the published grid, against dp's 8: every Newton
# step costs a Gauss-Hermite pass over the mixture, and a finer spline pays
# off far below the regression error in X.
_REFINE = 2
# Stratified X samples per stage; odd, so the middle one is the
# certainty-equivalent state.
_X_SAMPLES = 15


def _stage_premium_derivs(params: LinearPercentage, s, x, ratio: float, order: int):
    """The stage premium and its first two s-derivatives (d mu_Y/ds = theta).

    The kernels are elementwise in mu_Y, so they run once per distinct mean
    (told apart by its bits, so -0.0 and +0.0 stay apart) and the results are
    scattered back: at s = 0 every residual of a state shares one mean.
    """
    theta, alpha, sig_y = params.move(ratio, x)
    mu_y = theta * np.asarray(s, dtype=float) + alpha
    keys, inverse = np.unique(np.ravel(mu_y).view(np.uint64), return_inverse=True)
    if keys.size == 1:
        # numpy sums one column over the nodes pairwise but several in node
        # order, so a lone mean runs as two to keep the batch's bits
        keys = np.repeat(keys, 2)
    means = keys.view(float)
    if sig_y == 0.0:
        parts = _lognormal_shift_derivs(params.mu_B, params.sigma_B, means, -ratio)
    else:
        parts = _mixture_derivs_gh(params.mu_B, params.sigma_B, means, sig_y, -ratio, order)
    prem, d1, d2 = (p[inverse].reshape(np.shape(mu_y)) for p in parts)
    return prem, theta * d1, theta * theta * d2


def _x_samples(params: LinearPercentage, x0: float, t: int) -> np.ndarray:
    """Stratified quantile samples of the X_{t-1} marginal (atom x0 at t=1)."""
    if t == 1 or params.gamma == 0.0:
        return np.array([x0 if t == 1 else params.rho ** (t - 1) * x0])
    mean = params.rho ** (t - 1) * x0
    var = params.sigma_eta**2 * sum(params.rho ** (2 * j) for j in range(t - 1))
    z = ndtri((np.arange(_X_SAMPLES) + 0.5) / _X_SAMPLES)
    return mean + math.sqrt(var) * z


def _eta_moments(m, sigma: float) -> list:
    """Raw moments E[(m + eta)^d] for eta ~ N(0, sigma^2), d = 0..3."""
    m = np.asarray(m, dtype=float)
    v = sigma * sigma
    return [np.ones_like(m), m, m * m + v, m**3 + 3.0 * m * v]


def _fit_continuation(
    params: LinearPercentage,
    nodes: np.ndarray,
    v_grid: np.ndarray,
    x_next: np.ndarray,
    x_now: np.ndarray,
) -> _SplineCont:
    """Monotone cubic (PCHIP) splines of w -> E_eta[v_{t+1}(w, rho*x + eta)].

    One column per current sample x.  ``v_grid`` holds v_{t+1} at (node,
    x_next-sample); the X dependence is fitted per node with a least-squares
    cubic and the AR(1) innovation integrated against the basis in closed
    form.
    """
    if x_next.size == 1:
        g = np.tile(v_grid[:, 0][:, None], (1, x_now.size))
    else:
        # polynomial.polyfit returns coefficients per column, low order first
        coeffs = np.polynomial.polynomial.polyfit(x_next, v_grid.T, 3)
        g = np.zeros((nodes.size, x_now.size))
        for c, moment in zip(coeffs, _eta_moments(params.rho * x_now, params.sigma_eta)):
            g += c[:, None] * moment[None, :]
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
    """First-order condition of s*premium + E[e^B]*cont(w - s) over s in [0, w].

    Element e is residual w[e] at state x[e], continued by column col[e] of
    ``cont``; the returned callable takes trades ``s`` of the elements
    ``idx`` and gives the objective's first two s-derivatives in closed form,
    then the objective value, all from one premium evaluation.
    """

    def foc(s, idx):
        prem, d1, d2 = _stage_premium_derivs(params, s, x[idx], ratio, cfg.quad_order)
        r = np.minimum(np.clip(w[idx] - s, 0.0, None), cont.x[-1])
        d, dd = cont.d_dd(r, col[idx])
        value = s * prem + e_fac * cont.value(r, col[idx])
        return prem + s * d1 - e_fac * d, 2.0 * d1 + s * d2 + e_fac * dd, value

    return foc


def _minimize_stage(
    params: LinearPercentage,
    w: np.ndarray,
    x: np.ndarray,
    ratio: float,
    cont: _SplineCont,
    e_fac: float,
    cfg: RecursionConfig,
    stage: int,
):
    """The solve of ``stage`` at every (w, x) pair; ``cont`` has one column per x.

    Returns (s*, value) per pair and the Newton diagnostics; the values are
    the ones Newton's last evaluation at s* computed.
    """
    W, X = np.meshgrid(w, x, indexing="ij")
    w_flat, x_flat = W.ravel(), X.ravel()
    col = np.repeat(np.arange(x.size)[None, :], w.size, axis=0).ravel()
    foc = _stage_objective(params, w_flat, x_flat, col, ratio, cont, e_fac, cfg)
    s_flat, report = _vec_newton(foc, np.zeros_like(w_flat), w_flat, cfg.newton_iters)
    v_flat = report.carried[0]
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
    path = _certainty_equivalent_path(params, state, total / T, T - 1)
    ratios = [s.price / s.no_impact_price for s in path]
    for t, r in enumerate(ratios, start=1):
        if r <= 0.0:
            raise MixtureRegimeError(
                f"stage {t}: certainty-equivalent price ratio {r} is not positive; "
                "the conditional premium kernel needs k = -ratio < 0"
            )

    scale = math.hypot(params.sigma_B, params.gamma * params.sigma_eta) / params.theta
    mesh = _build_mesh(total, scale, cfg.grid_nodes, _REFINE)
    fine, nodes, oi = mesh.fine, mesh.nodes, mesh.official_idx

    metadata = {
        "model": "linear_percentage",
        "formulation": "simple",
        "method": "regression-recursion",
        "grid_nodes": cfg.grid_nodes,
        "x0": x0,
        "price_ratio": ratios[0],
    }

    stage_x = {t: _x_samples(params, x0, t) for t in range(1, T + 1)}
    ce_idx = {t: stage_x[t].size // 2 for t in range(1, T + 1)}

    # Terminal stage on the fine grid, then fit and walk backward.
    policies: dict[int, np.ndarray] = {}
    values: dict[int, np.ndarray] = {}
    stage_conts: dict[int, _SplineCont] = {}
    grid_diags: dict[int, dict] = {}

    # the last stage trades the whole residual
    W, X = np.meshgrid(fine, stage_x[T], indexing="ij")
    v_fine = W * _stage_premium_derivs(params, W, X, ratios[T - 1], cfg.quad_order)[0]
    values[T] = v_fine[oi, ce_idx[T]]

    v_with_zero = np.vstack([np.zeros((1, stage_x[T].size)), v_fine])
    for t in range(T - 1, 0, -1):
        cont = _fit_continuation(params, nodes, v_with_zero, stage_x[t + 1], stage_x[t])
        stage_conts[t] = cont
        s_fine, v_fine, grid_diags[t] = _minimize_stage(
            params, fine, stage_x[t], ratios[t - 1], cont, e_fac, cfg, t
        )
        policies[t] = s_fine[oi, ce_idx[t]]
        values[t] = v_fine[oi, ce_idx[t]]
        v_with_zero = np.vstack([np.zeros((1, stage_x[t].size)), v_fine])

    # Forward certainty-equivalent pass at the exact residuals, Newton on [0, w];
    # the objective at the chosen trade is evaluated again at doubled order.
    doubled_cfg = replace(cfg, quad_order=min(2 * cfg.quad_order, GH_MAX_ORDER))
    trades: list[float] = []
    diagnostics: list[dict] = []
    w = total
    for t in range(1, T):
        j = ce_idx[t]
        args = (params, np.array([w]), stage_x[t][j : j + 1], np.array([j]), ratios[t - 1],
                stage_conts[t], e_fac)
        foc = _stage_objective(*args, cfg)
        s, v, iters = _resolve_stage(lambda s, idx: foc(s, idx)[2], foc, w, 2, cfg)
        doubled = _stage_objective(*args, doubled_cfg)
        v_doubled = float(doubled(np.array([s]), np.array([0]))[2][0])
        drift = _quadrature_drift(v, v_doubled, t, cfg.quad_order, doubled_cfg.quad_order)
        diagnostics.append(
            {"stage": t, **grid_diags[t], "schedule_iterations": iters, "quadrature_drift": drift}
        )
        trades.append(s)
        w -= s
    trades.append(w)
    metadata["diagnostics"] = diagnostics

    # value samples in currency: scaled by the CE no-impact price entering stage t
    table = _grid_table(
        mesh.official,
        [policies[t] for t in range(1, T)],
        [s.no_impact_price * values[t] for t, s in enumerate(path, start=1)],
        metadata,
    )
    return Schedule.from_trades(trades, total), table
