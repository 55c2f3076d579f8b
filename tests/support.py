"""Helpers shared by the tests: finite-difference checks, bench configs,
markets and reference values, a cap on the exact-residual stage re-solves, a
traced memory peak, and oracles that the package does not need: the
truncated-normal mean, the plain expressions of psi', psi'', the
Gauss-Hermite mixture ratio and the lognormal-shift ratio, the liquidity
stage T-1 terminal slope on its own pass, and the enumerated-schedule
search."""
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from execsched import cli, dp, gbm, liquidity, simulate
from execsched.attribution import _check_formulation, _residual_ladder
from execsched.dp import ConfigError, Schedule, _MillsStage
from execsched.kernels import (
    Gaussian,
    _hermgauss_cached,
    _lognormal_shift_conditional,
    _mills_g,
    _mixture_expectation_gh,
    _mixture_pieces,
    mills_psi,
)
from execsched.models import Ar1Extra, Benchmark

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)
    return inputs


def balanced_market(n_buyers: int, n_sellers: int, T: int, seed: int = 0):
    """The bench's balanced market (fills CSV text, context document): every
    participant trades at every interval, so it holds n_buyers + n_sellers
    orders and (n_buyers + n_sellers) * T fills."""
    rng = np.random.default_rng(seed)
    return _bench_inputs().balanced_market(rng, n_buyers, n_sellers, T)


def traced_peak(fn, *args):
    """``fn(*args)`` and the bytes it held at its peak beyond what was alive
    before, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def bench_solve_config(model: str, value: float) -> dict:
    """The benchmark's solve config for one model, validated as the CLI reads it."""
    return cli.validate_config(_bench_inputs().solve_config(model, value))


def bench_reference(model: str) -> dict:
    """The benchmark's recorded top-node value of each solve variant of one model."""
    inputs = _bench_inputs()
    return dict(zip(inputs.VARIANTS[model], inputs.load_reference()[model]))


_RESOLVE_STAGE = dp._resolve_stage


def cap_resolves(monkeypatch, newton_iters: int) -> None:
    """Cap the exact-residual stage re-solves of every solver family, and only
    them, at ``newton_iters`` Newton iterations; the grid stages keep theirs."""

    def capped(objective, derivs, ub, points):
        with monkeypatch.context() as patch:
            patch.setattr(dp, "_NEWTON_ITERS", newton_iters)
            return _RESOLVE_STAGE(objective, derivs, ub, points)

    for module in (dp, gbm, liquidity):
        monkeypatch.setattr(module, "_resolve_stage", capped)


def central_differences(f, x: float, h: float, H: float, noise: float):
    """Central differences of a scalar f at x, each with a bound on its error.

    Returns (d1, tol1, d2, tol2) for d1 = (f(x+h) - f(x-h))/(2h) and
    d2 = (f(x+h) - 2f(x) + f(x-h))/h^2.  Truncation is h^2/6 * |f^(3)| and
    h^2/12 * |f^(4)|; both derivatives are bounded from differences of f at
    the wider step H, with 4x headroom for their variation over the stencil.
    ``noise`` bounds the rounding error of one value of f, which the
    differences amplify by 1/h and 4/h^2.
    """
    m2, m1, c0, p1, p2 = (f(x + k * H) for k in (-2, -1, 0, 1, 2))
    d4 = (abs(p2 - 4.0 * p1 + 6.0 * c0 - 4.0 * m1 + m2) + 16.0 * noise) / H**4
    d3 = (abs(p2 - 2.0 * p1 + 2.0 * m1 - m2) + 6.0 * noise) / (2.0 * H**3) + 2.0 * H * d4
    lo, hi = f(x - h), f(x + h)
    return (
        (hi - lo) / (2.0 * h),
        h * h / 6.0 * 4.0 * d3 + noise / h,
        (hi - 2.0 * c0 + lo) / (h * h),
        h * h / 12.0 * 4.0 * d4 + 4.0 * noise / (h * h),
    )


def truncated_mean_positive(y: Gaussian) -> float:
    """E[Y | Y > 0] = sigma * psi(mu/sigma) for Y ~ N(mu, sigma^2).

    For mu >= 0 it is formed as mu + sigma * G(mu/sigma), which keeps it at or
    above mu: sigma * (mu/sigma) can round below mu.
    """
    u = y.mu / y.sigma
    if u >= 0.0:
        return y.mu + y.sigma * _mills_g(u)
    return y.sigma * mills_psi(u)


# The plain expressions of the quantities that the kernels write once, in
# their derivative kernels, with in-place buffers and shared sums.  Each is
# operation for operation what the kernel does, so the kernel's output is
# bit for bit theirs.


def psi_prime_oracle(u):
    """psi'(u) = 1 - u*G - G^2 with G = phi/Phi."""
    u = np.asarray(u, dtype=float)
    g = _mills_g(u)
    out = 1.0 - u * g - g * g
    return out if np.ndim(out) else float(out)


def psi_second_oracle(u):
    """psi''(u) = -G - u*G' - 2*G*G' with G' = -G(u + G)."""
    u = np.asarray(u, dtype=float)
    g = _mills_g(u)
    gp = -g * (u + g)
    out = -g - u * gp - 2.0 * g * gp
    return out if np.ndim(out) else float(out)


def mixture_ratio_oracle(mu_x, sig_x, mu_y, sig_y, k, order: int = 64):
    """E[e^X Y + k | e^X Y + k > 0] as the quotient of two Gauss-Hermite sums
    over X, of the numerator and the conditioning probability."""
    nodes, weights = _hermgauss_cached(int(order))
    xv = mu_x + sig_x * np.sqrt(2.0) * nodes
    mu_y, sig_y, k = np.broadcast_arrays(
        np.asarray(mu_y, dtype=float), np.asarray(sig_y, dtype=float), np.asarray(k, dtype=float)
    )
    n, q = _mixture_pieces(
        xv.reshape((-1,) + (1,) * mu_y.ndim), mu_y[None], sig_y[None], k[None]
    )[:2]
    w = weights.reshape((-1,) + (1,) * mu_y.ndim) / np.sqrt(np.pi)
    return (w * n).sum(axis=0) / (w * q).sum(axis=0)


def lognormal_shift_oracle(mu_x, sig_x, c, k):
    """E[c e^X + k | c e^X + k > 0] in closed form: the event is {X > log(-k/c)}."""
    c = np.asarray(c, dtype=float)
    k = np.asarray(k, dtype=float)
    z = (mu_x - np.log(-k / c)) / sig_x
    pr = ndtr(z)
    out = (c * np.exp(mu_x + 0.5 * sig_x * sig_x) * ndtr(z + sig_x) + k * pr) / pr
    return out if out.ndim else float(out)


def percentage_stage_objective(params, s, w, x, col, ratio, cont, e_fac, order):
    """The percentage-law stage objective s*premium + E[e^B]*cont(w - s), written
    plainly on the value-only premium kernels.

    D/P~ = e^B * Y - ratio with Y = theta*s + alpha + beta*Z from the law's
    move at the price ratio and state ``x``; the residual w - s is clipped to
    the continuation spline's reach, column ``col`` of ``cont``.
    """
    theta, alpha, sig_y = params.move(ratio, x)
    mu_y = theta * np.asarray(s, dtype=float) + alpha
    if sig_y == 0.0:
        prem = _lognormal_shift_conditional(params.mu_B, params.sigma_B, mu_y, -ratio)
    else:
        prem = _mixture_expectation_gh(
            params.mu_B, params.sigma_B, mu_y, sig_y, -ratio, order=order
        )
    resid = np.minimum(np.clip(w - s, 0.0, None), cont.x[-1])
    return s * prem + e_fac * cont.value(resid, col)


def expected_terminal_slope(pen, trades, resids) -> np.ndarray:
    """E over (eta, eps) of dV_T/dW at the terminal residuals ``resids`` left
    after ``trades``, for a liquidity stage T-1 ``pen`` (``liquidity._Penultimate``).

    Its own pass over the blocked tensor: the volume-node sums of psi(u) and
    psi'(u), psi' from its plain expression, through ``pen._terminal``.  The
    solver takes the slope from the derivative pass instead.
    """

    def block(s, r, nodes):
        _, gauss_w, u = pen._tensor(s, r, nodes)
        psi = mills_psi(u) @ pen.z_weights
        return pen._terminal(r, nodes, gauss_w, psi, psi_prime_oracle(u) @ pen.z_weights)

    return pen._blocked(block, trades, resids)


#: Candidate-count ceiling for the enumerated oracle's closed objective.
BRUTE_FORCE_BUDGET = 200_000

#: Candidate*path ceiling for the enumerated oracle's Monte Carlo objective.
BRUTE_FORCE_MC_BUDGET = 20_000_000


def _compositions(units: int, parts: int):
    """All tuples of nonnegative ints with the given length summing to units."""
    if parts == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _compositions(units - first, parts - 1):
            yield (first, *rest)


def _closed_objective(model, x0: float, trades: np.ndarray, total: float, formulation: str):
    """Exact conditional-premium objective for the arithmetic laws, from the
    law's move at each certainty-equivalent state (``dp._premium_law``)."""
    T = trades.shape[1]
    theta, beta, alphas = dp._premium_law(model, T, x0)
    residuals = _residual_ladder(trades, np.asarray(total))
    stage = _MillsStage(theta, np.array(alphas), beta, formulation == "complex")
    return stage.value(trades, residuals, np.arange(T)).sum(axis=1)


def brute_force_schedule(
    config,
    grid_per_stage: int,
    formulation: str = "simple",
    *,
    method: str | None = None,
) -> Schedule:
    """Enumerate per-stage fraction schedules and return the cheapest.

    Fractions live on the simplex grid {0, 1/g, ..., 1} summing to one.
    The arithmetic laws default to the exact conditional-premium objective
    ("closed"); the multiplicative laws default to the Monte Carlo estimate
    ("mc") with common random numbers across candidates.  The budget guards
    keep the enumeration honest about its own cost.
    """
    _check_formulation(formulation)
    if (
        not isinstance(grid_per_stage, int)
        or isinstance(grid_per_stage, bool)
        or grid_per_stage < 1
    ):
        raise ValueError(f"grid_per_stage must be an integer >= 1, got {grid_per_stage!r}")
    T = config.horizon.T
    total = config.horizon.total_shares
    closed_ok = isinstance(config.model, (Benchmark, Ar1Extra))
    if method is None:
        method = "closed" if closed_ok else "mc"
    if method not in ("closed", "mc"):
        raise ValueError(f"method must be 'closed' or 'mc', got {method!r}")
    if method == "closed" and not closed_ok:
        raise ValueError(
            f"the closed objective covers the arithmetic laws only, not "
            f"{type(config.model).__name__}"
        )
    n_candidates = math.comb(grid_per_stage + T - 1, T - 1)
    if method == "closed" and n_candidates > BRUTE_FORCE_BUDGET:
        raise ConfigError(
            f"{n_candidates} candidate schedules exceed the enumeration budget "
            f"{BRUTE_FORCE_BUDGET}; lower grid_per_stage or T"
        )
    if method == "mc" and n_candidates * config.n_paths > BRUTE_FORCE_MC_BUDGET:
        raise ConfigError(
            f"{n_candidates} candidates x {config.n_paths} paths exceed the Monte "
            f"Carlo budget {BRUTE_FORCE_MC_BUDGET}; lower grid_per_stage, T, or n_paths"
        )

    fractions = np.array(list(_compositions(grid_per_stage, T)), dtype=float)
    candidates = fractions / grid_per_stage * total
    if method == "closed":
        objective = _closed_objective(
            config.model, config.initial_state.aux, candidates, total, formulation
        )
    else:
        # common random numbers: every candidate runs on the same shocks
        z = simulate._draw_shocks(config.seed, 0, config.n_paths, T)
        objective = np.empty(len(candidates))
        for j, cand in enumerate(candidates):
            sched = Schedule.from_trades(cand, total)
            prices, trades, feasible, counters = simulate._run_paths(config, sched, z)
            simulate._warn_degenerate(counters)
            if not feasible.any():
                objective[j] = np.inf
                continue
            objective[j], _ = simulate._rejection_objective(
                prices[feasible], trades[feasible], "buy", formulation
            )
    best = int(np.argmin(objective))
    if not np.isfinite(objective[best]):
        raise ValueError("no candidate schedule was feasible on any path")
    return Schedule.from_trades(candidates[best], total)
