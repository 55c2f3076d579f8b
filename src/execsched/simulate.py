"""Seeded Monte Carlo over the laws of motion: policy evaluation, cost
distributions, and the enumerated-schedule oracle.

Determinism contract: every path owns a counter-based Philox stream keyed
by (seed, path index) and draws its shocks in one fixed order (a (T, 2)
standard-normal block, price shock first, auxiliary shock second).  One
bit generator is reset to each path's key and a zero counter in turn.
Path results therefore depend only on the path index, never on evaluation
order, so chunked or parallel runs assemble bit-identical arrays.  All
reductions over paths happen on the index-ordered assembly.

Paths advance in blocks of at most ``BLOCK_PATHS``: each stage is one
batched call of :func:`execsched.models.step`, the single owner of the
transition laws, and one array evaluation of the policy.  The terminal
trade is always forced to the outstanding residual; float-dust negative
trades that a :class:`Schedule` admits execute as zero.  Paths on which
the liquidity law cannot absorb a prescribed trade are excluded from the
samples and counted, never clamped, since clamping would silently bias the
cost distribution.  Per-stage counters (infeasible paths, volume clamps,
nonpositive prices) are summed over chunks, and DegeneratePathWarning
fires once per affected stage with its path count.

:func:`simulate_paths` runs one pass; its :class:`SimulatedPaths` can feed
both ``evaluate_policy`` and ``estimate_objective`` in place of a policy,
which is how ``execsched simulate`` gets its distribution and objective
from the same paths.

The realized per-path costs (``evaluate_policy``) are the attribution
module's shortfall/impact/timing applied to each simulated path.  The
solver objective is a different functional: the sum of conditional stage
premiums, which ``estimate_objective`` estimates per stage from the paths
where the adverse move actually happened (a rejection estimate of
E[dP * weight | dP > 0]); its mean matches the closed forms, while the
mean realized impact is smaller by each stage's adverse-move probability.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .attribution import FORMULATIONS, path_costs
from .dp import ConfigError, Horizon, PolicyTable, Schedule, _MillsStage
from .models import (
    Ar1Extra,
    Benchmark,
    DegeneratePathWarning,
    LinearPercentage,
    Liquidity,
    MarketBatch,
    MarketState,
    ModelParams,
    step,
)

__all__ = [
    "SimConfig",
    "CostDistribution",
    "SimulatedPaths",
    "simulate_paths",
    "BucketThresholds",
    "MOMENTUM_LABELS",
    "VOLATILITY_LABELS",
    "evaluate_policy",
    "estimate_objective",
    "brute_force_schedule",
    "momentum_volatility_buckets",
]

#: Momentum buckets of the side-adjusted fractional return, adverse negative.
MOMENTUM_LABELS = (
    "significant_adverse",
    "adverse",
    "neutral",
    "favorable",
    "significant_favorable",
)

#: Volatility buckets of the price coefficient of variation.
VOLATILITY_LABELS = ("no", "low", "moderate", "high")

#: Candidate-count ceiling for the enumerated oracle's closed objective.
BRUTE_FORCE_BUDGET = 200_000

#: Candidate*path ceiling for the enumerated oracle's Monte Carlo objective.
BRUTE_FORCE_MC_BUDGET = 20_000_000

#: Paths advanced together; bounds the per-block shock and state arrays.
BLOCK_PATHS = 4096

#: Per-stage event counters of a simulation pass.
COUNTERS = ("infeasible", "volume_clamps", "nonpositive_prices")

_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run: law, horizon, path count, seed."""

    model: ModelParams
    horizon: Horizon
    n_paths: int
    seed: int
    initial_state: MarketState

    def __post_init__(self) -> None:
        _require(
            isinstance(self.model, (Benchmark, Ar1Extra, LinearPercentage, Liquidity)),
            f"model must be a law-of-motion parameter set, got {type(self.model).__name__}",
        )
        if (
            not isinstance(self.n_paths, int)
            or isinstance(self.n_paths, bool)
            or self.n_paths < 1
        ):
            raise ValueError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or not 0 <= self.seed < 2**63
        ):
            raise ValueError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")
        _require(
            self.initial_state.price > 0.0,
            f"initial price must be > 0, got {self.initial_state.price}",
        )
        if isinstance(self.model, LinearPercentage):
            _require(
                self.initial_state.no_impact_price is not None,
                "the linear-percentage law needs initial_state.no_impact_price",
            )


def _metric_summary(arr: np.ndarray) -> dict:
    if arr.size == 0:
        return {"count": 0, "mean": None, "std": None, "quantiles": None}
    q = np.quantile(arr, _QUANTILES)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "quantiles": {f"q{int(100 * p):02d}": float(v) for p, v in zip(_QUANTILES, q)},
    }


@dataclass(frozen=True, eq=False)
class CostDistribution:
    """Per-path cost samples for the feasible paths of one run.

    Arrays are aligned with ``path_index`` (ascending original indices);
    ``n_infeasible`` counts the excluded paths, so sample count plus the
    exclusions equals ``n_paths``.  ``summary()`` recomputes its statistics
    from the samples each call.
    """

    shortfall: np.ndarray
    impact: np.ndarray
    timing: np.ndarray
    side_adjusted_return: np.ndarray
    price_cov: np.ndarray
    path_index: np.ndarray
    n_paths: int
    n_infeasible: int
    formulation: str
    side: str
    seed: int

    def __post_init__(self) -> None:
        n = self.path_index.size
        for name in ("shortfall", "impact", "timing", "side_adjusted_return", "price_cov"):
            arr = getattr(self, name)
            _require(arr.shape == (n,), f"{name} must align with path_index")
            arr.setflags(write=False)
        self.path_index.setflags(write=False)
        _require(
            n + self.n_infeasible == self.n_paths,
            "feasible samples plus exclusions must equal n_paths",
        )

    def summary(self) -> dict:
        return {
            name: _metric_summary(getattr(self, name))
            for name in ("shortfall", "impact", "timing")
        }


# ---------------------------------------------------------------------------
# Path generation.
# ---------------------------------------------------------------------------


def _check_policy(config: SimConfig, policy) -> None:
    T = config.horizon.T
    if isinstance(policy, Schedule):
        if len(policy.trades) != T:
            raise ValueError(
                f"schedule has {len(policy.trades)} stages but the horizon has {T}"
            )
        total = config.horizon.total_shares
        if abs(policy.total_shares - total) > 1e-9 * total:
            raise ValueError(
                f"schedule executes {policy.total_shares} shares but the horizon "
                f"holds {total}"
            )
    elif isinstance(policy, PolicyTable):
        if policy.horizon_length != T:
            raise ValueError(
                f"policy table has {policy.horizon_length} stages but the horizon has {T}"
            )
    else:
        raise TypeError(f"policy must be a Schedule or PolicyTable, got {type(policy).__name__}")


def _draw_shocks(seed: int, start: int, stop: int, T: int) -> np.ndarray:
    """The (stop - start, T, 2) shocks of paths [start, stop).

    Path i reads a (T, 2) standard-normal block, price shock first, from
    ``Philox(key=[seed, i])`` at counter zero.  One bit generator is re-keyed
    per path; constructing one per path would also seed (and discard) a
    SeedSequence from OS entropy every time.  Seeds stay below 2**63
    (:class:`SimConfig` checks it), so numpy reads the key as exact 64-bit
    integers; larger ones would pass through float64 and collide.
    """
    bits = np.random.Philox(key=[seed, start])
    gen = np.random.Generator(bits)
    fresh = bits.state  # zero counter, empty buffer
    key = fresh["state"]["key"]
    z = np.empty((stop - start, T, 2))
    for k, i in enumerate(range(start, stop)):
        key[1] = i
        bits.state = fresh
        gen.standard_normal(out=z[k])
    return z


def _zero_counters(T: int) -> dict[str, np.ndarray]:
    return {name: np.zeros(T, dtype=np.int64) for name in COUNTERS}


def _run_paths(config: SimConfig, policy, z: np.ndarray):
    """Advance the paths whose shocks are ``z`` (m, T, 2) through all T stages.

    Returns (prices (m, T+1), trades (m, T), feasible (m,), counters).  A
    path leaves the batch at the stage where it turns infeasible, and its
    rows come back all NaN.
    """
    m, T = z.shape[0], config.horizon.T
    prices = np.full((m, T + 1), np.nan)
    trades = np.full((m, T), np.nan)
    feasible = np.ones(m, dtype=bool)
    counters = _zero_counters(T)
    fixed = policy.trades if isinstance(policy, Schedule) else None
    rows = np.arange(m)
    state = MarketBatch.broadcast(config.initial_state, m)
    w = np.full(m, config.horizon.total_shares)
    prices[:, 0] = config.initial_state.price
    for t in range(1, T + 1):
        if t == T:
            s = w
        elif fixed is not None:
            s = np.where(w < fixed[t - 1], w, fixed[t - 1])
        else:
            s = policy.trade_at(t, w)
        # schedules may carry trades down to -1e-12 of float dust; they execute as nothing
        s = np.where(s < 0.0, 0.0, s)
        state, events = step(config.model, state, s, z[:, t - 1])
        counters["volume_clamps"][t - 1] += events.clamps
        counters["nonpositive_prices"][t - 1] += np.count_nonzero(events.nonpositive)
        if events.violated.any():
            dead = rows[events.violated]
            counters["infeasible"][t - 1] += dead.size
            feasible[dead] = False
            prices[dead] = np.nan
            trades[dead] = np.nan
            keep = ~events.violated
            rows, state, s, w, z = rows[keep], state.take(keep), s[keep], w[keep], z[keep]
        trades[rows, t - 1] = s
        prices[rows, t] = state.price
        w = w - s
    return prices, trades, feasible, counters


def _simulate_chunk(config: SimConfig, policy, start: int, stop: int):
    """Simulate paths [start, stop) in blocks of at most BLOCK_PATHS.

    Returns (prices (m, T+1), trades (m, T), feasible (m,), counters);
    infeasible rows come back as NaN.
    """
    T = config.horizon.T
    m = stop - start
    prices = np.empty((m, T + 1))
    trades = np.empty((m, T))
    feasible = np.empty(m, dtype=bool)
    counters = _zero_counters(T)
    for lo in range(0, m, BLOCK_PATHS):
        hi = min(lo + BLOCK_PATHS, m)
        z = _draw_shocks(config.seed, start + lo, start + hi, T)
        prices[lo:hi], trades[lo:hi], feasible[lo:hi], block = _run_paths(config, policy, z)
        for name in COUNTERS:
            counters[name] += block[name]
    return prices, trades, feasible, counters


def _warn_degenerate(counters: dict[str, np.ndarray]) -> None:
    for t, n in enumerate(counters["nonpositive_prices"], start=1):
        if n:
            warnings.warn(
                f"{n} liquidity price paths reached a nonpositive price at t={t}",
                DegeneratePathWarning,
                stacklevel=3,
            )


@dataclass(frozen=True, eq=False)
class SimulatedPaths:
    """One pass of path generation for a policy under ``config``.

    ``prices`` (n, T+1) and ``trades`` (n, T) are index-ordered with NaN rows
    for the infeasible paths, which ``feasible`` marks False.  ``counters``
    holds per-stage event counts (entry t-1 for stage t): ``infeasible``
    paths, ``volume_clamps`` and ``nonpositive_prices``.  Pass it to
    :func:`evaluate_policy` and :func:`estimate_objective` in place of the
    policy to draw both from the same paths.
    """

    config: SimConfig
    prices: np.ndarray
    trades: np.ndarray
    feasible: np.ndarray
    counters: dict[str, np.ndarray]


def _simulate(config: SimConfig, policy, workers: int) -> SimulatedPaths:
    """Chunked, optionally parallel path generation; index-ordered output.

    Counters are summed over chunks and DegeneratePathWarning is raised here,
    once per stage, so both are the same at any worker count.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    n = config.n_paths
    w = min(workers, n)
    if w == 1:
        parts = [_simulate_chunk(config, policy, 0, n)]
    else:
        bounds = np.linspace(0, n, w + 1).astype(int)
        with ProcessPoolExecutor(max_workers=w) as pool:
            parts = list(
                pool.map(
                    _simulate_chunk, repeat(config), repeat(policy), bounds[:-1], bounds[1:]
                )
            )
    counters = {name: sum(c[name] for *_, c in parts) for name in COUNTERS}
    _warn_degenerate(counters)
    return SimulatedPaths(
        config=config,
        prices=np.concatenate([p for p, _, _, _ in parts], axis=0),
        trades=np.concatenate([t for _, t, _, _ in parts], axis=0),
        feasible=np.concatenate([f for _, _, f, _ in parts], axis=0),
        counters=counters,
    )


def simulate_paths(config: SimConfig, policy, *, workers: int = 1) -> SimulatedPaths:
    """Generate every path of ``config`` under a Schedule or PolicyTable.

    Fixed ``config`` gives bit-identical paths for any ``workers``.
    """
    _check_policy(config, policy)
    return _simulate(config, policy, workers)


def _paths_for(config: SimConfig, policy, workers: int) -> SimulatedPaths:
    if isinstance(policy, SimulatedPaths):
        if policy.config != config:
            raise ValueError("the simulated paths were generated under a different config")
        return policy
    return simulate_paths(config, policy, workers=workers)


# ---------------------------------------------------------------------------
# Policy evaluation.
# ---------------------------------------------------------------------------


def evaluate_policy(
    config: SimConfig,
    policy,
    formulation: str = "simple",
    *,
    side: str = "buy",
    workers: int = 1,
) -> CostDistribution:
    """Simulate the policy and attribute every feasible path's cost.

    The law of motion prices the schedule owner's trades; ``side="sell"``
    reattributes the same fills from the counterparty's perspective (their
    impact counts the opposite price moves and their shortfall flips sign).
    Fixed ``config`` gives bit-identical samples for any ``workers``.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    paths = _paths_for(config, policy, workers)
    idx = np.nonzero(paths.feasible)[0]
    fp, ft = paths.prices[idx], paths.trades[idx]

    sf, imp, tim = path_costs(fp, ft, side, formulation)
    p0 = config.initial_state.price
    sign = -1.0 if side == "buy" else 1.0
    ret = sign * (fp[:, -1] - p0) / p0
    mean = fp.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = np.where(mean > 0.0, fp.std(axis=1) / mean, np.inf)
    return CostDistribution(
        shortfall=sf,
        impact=imp,
        timing=tim,
        side_adjusted_return=ret,
        price_cov=cov,
        path_index=idx,
        n_paths=config.n_paths,
        n_infeasible=config.n_paths - idx.size,
        formulation=formulation,
        side=side,
        seed=config.seed,
    )


def _rejection_objective(prices: np.ndarray, trades: np.ndarray, side: str, formulation: str):
    """Conditional stage-premium estimate from simulated paths.

    Stage t contributes the mean of (adverse step * weight) over the paths
    where the step was adverse; stages with no adverse sample contribute
    zero.  Returns (value, standard error), the latter combining per-stage
    sampling variances (cross-stage covariance is ignored).
    """
    sign = 1.0 if side == "buy" else -1.0
    steps = sign * np.diff(prices, axis=1)
    if formulation == "simple":
        weights = trades
    else:
        totals = trades.sum(axis=1, keepdims=True)
        weights = totals - np.cumsum(trades, axis=1) + trades
    value_terms, var_terms = [], []
    for t in range(steps.shape[1]):
        hit = steps[:, t] > 0.0
        samples = steps[hit, t] * weights[hit, t]
        if samples.size == 0:
            continue
        value_terms.append(samples.mean())
        if samples.size > 1:
            var_terms.append(samples.var(ddof=1) / samples.size)
    return float(math.fsum(value_terms)), math.sqrt(math.fsum(var_terms))


def estimate_objective(
    config: SimConfig,
    policy,
    formulation: str = "simple",
    *,
    side: str = "buy",
    workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the solver objective for a policy.

    Returns (value, standard error).  This is the conditional-premium
    functional the solvers minimize, so it is the right comparison against
    their closed-form values; it is not the mean realized impact.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    if side not in ("buy", "sell"):
        raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")
    paths = _paths_for(config, policy, workers)
    ok = paths.feasible
    if not ok.any():
        raise ValueError("every simulated path was infeasible; nothing to estimate")
    return _rejection_objective(paths.prices[ok], paths.trades[ok], side, formulation)


# ---------------------------------------------------------------------------
# Enumerated-schedule oracle.
# ---------------------------------------------------------------------------


def _compositions(units: int, parts: int):
    """All tuples of nonnegative ints with the given length summing to units."""
    if parts == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _compositions(units - first, parts - 1):
            yield (first, *rest)


def _closed_objective(
    model: ModelParams, x0: float, trades: np.ndarray, total: float, formulation: str
) -> np.ndarray:
    """Exact conditional-premium objective for the arithmetic laws."""
    T = trades.shape[1]
    if isinstance(model, Ar1Extra):
        scale = math.hypot(model.gamma * model.sigma_eta, model.sigma_eps)
        alphas = np.array([model.gamma * model.rho**t * x0 for t in range(1, T + 1)])
    else:
        scale = model.sigma_eps
        alphas = np.zeros(T)
    if scale <= 0.0:
        raise ValueError("the closed objective needs a positive noise scale")
    residuals = total - np.cumsum(trades, axis=1) + trades
    stage = _MillsStage(model.theta, alphas, scale, formulation == "complex")
    return stage.value(trades, residuals, np.arange(T)).sum(axis=1)


def brute_force_schedule(
    config: SimConfig,
    grid_per_stage: int,
    formulation: str = "simple",
    *,
    method: str | None = None,
) -> Schedule:
    """Enumerate per-stage fraction schedules and return the cheapest.

    Fractions live on the simplex grid {0, 1/g, ..., 1} summing to one.
    The arithmetic laws default to the exact conditional-premium objective
    ("closed"); the multiplicative laws default to the Monte Carlo estimate
    ("mc") with common random numbers across candidates.  Test oracle only;
    the budget guards keep the enumeration honest about its own cost.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
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
        z = _draw_shocks(config.seed, 0, config.n_paths, T)
        objective = np.empty(len(candidates))
        for j, cand in enumerate(candidates):
            sched = Schedule.from_trades(cand, total)
            prices, trades, feasible, counters = _run_paths(config, sched, z)
            _warn_degenerate(counters)
            if not feasible.any():
                objective[j] = np.inf
                continue
            objective[j], _ = _rejection_objective(
                prices[feasible], trades[feasible], "buy", formulation
            )
    best = int(np.argmin(objective))
    if not np.isfinite(objective[best]):
        raise ValueError("no candidate schedule was feasible on any path")
    return Schedule.from_trades(candidates[best], total)


# ---------------------------------------------------------------------------
# Momentum/volatility bucketing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketThresholds:
    """Bucket edges: momentum in fractional return, volatility in CoV.

    Momentum boundaries belong to the inner buckets (the neutral band is
    closed, the significant tails are open); volatility boundaries belong
    to the lower bucket, so the no-volatility cutoff is inclusive.
    """

    momentum: tuple[float, float, float, float] = (-0.02, -1.0 / 300.0, 1.0 / 300.0, 0.02)
    volatility: tuple[float, float, float] = (1e-15, 0.0010, 0.0050)

    def __post_init__(self) -> None:
        m = tuple(float(v) for v in self.momentum)
        v = tuple(float(x) for x in self.volatility)
        object.__setattr__(self, "momentum", m)
        object.__setattr__(self, "volatility", v)
        _require(len(m) == 4, f"momentum needs 4 ascending edges, got {len(m)}")
        _require(len(v) == 3, f"volatility needs 3 ascending edges, got {len(v)}")
        for edges, name in ((m, "momentum"), (v, "volatility")):
            _require(
                all(math.isfinite(e) for e in edges) and all(a < b for a, b in zip(edges, edges[1:])),
                f"{name} edges must be finite and strictly ascending, got {edges}",
            )


def _momentum_index(r: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    m0, m1, m2, m3 = edges
    idx = np.full(r.shape, 2, dtype=int)
    idx[r < m0] = 0
    idx[(r >= m0) & (r < m1)] = 1
    idx[(r > m2) & (r <= m3)] = 3
    idx[r > m3] = 4
    return idx


def momentum_volatility_buckets(
    dist: CostDistribution, thresholds: BucketThresholds | None = None
) -> dict:
    """Summarize costs on the 5x4 momentum-by-volatility grid.

    Every cell is present; empty ones report count 0 with no statistics.
    """
    th = thresholds or BucketThresholds()
    m_idx = _momentum_index(dist.side_adjusted_return, th.momentum)
    v_idx = np.digitize(dist.price_cov, th.volatility, right=True)
    out = {}
    for mi, m_label in enumerate(MOMENTUM_LABELS):
        row = {}
        for vi, v_label in enumerate(VOLATILITY_LABELS):
            mask = (m_idx == mi) & (v_idx == vi)
            n = int(mask.sum())
            cell = {"count": n}
            for name in ("shortfall", "impact", "timing"):
                arr = getattr(dist, name)[mask]
                cell[name] = (
                    {
                        "mean": float(arr.mean()),
                        "std": float(arr.std(ddof=1)) if n > 1 else 0.0,
                    }
                    if n
                    else None
                )
            row[v_label] = cell
        out[m_label] = row
    return out
