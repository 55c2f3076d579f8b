"""Seeded Monte Carlo over the laws of motion: policy evaluation and cost
distributions.

Determinism contract: the shocks are random stream v2 (``STREAM_VERSION``),
one counter-based Philox stream keyed by the seed in which every path owns
its own counters (:func:`_draw_shocks`) and reads a (T, 2) standard-normal
block, price shock first.  A path's shocks therefore depend only on (seed,
path index), never on block size.
All reductions over paths happen on the index-ordered assembly.

Paths advance in blocks of at most ``BLOCK_PATHS``: each stage is one
batched call of :func:`execsched.models.step`, the single owner of the
transition laws, and one array evaluation of the policy.  The terminal
trade is always forced to the outstanding residual; float-dust negative
trades that a :class:`Schedule` admits execute as zero.  Paths on which
the liquidity law cannot absorb a prescribed trade are excluded from the
samples and counted, never clamped, since clamping would silently bias the
cost distribution.  Per-stage counters (infeasible paths, volume clamps,
nonpositive prices) are summed over blocks, and DegeneratePathWarning
fires once per affected stage with its path count.

:func:`simulate_paths` runs one pass; its :class:`SimulatedPaths` can feed
both ``evaluate_policy`` and ``estimate_objective`` in place of a policy,
which is how ``execsched simulate`` gets its distribution and objective
from the same paths.

The realized per-path costs (``evaluate_policy``) are the attribution
module's shortfall/impact/timing applied to each simulated path.  The
solver objective is a different functional: the sum of stage premiums,
which ``estimate_objective`` estimates per stage from the paths where the
adverse move actually happened (a rejection estimate of
E[dP * weight | dP > 0]).  It matches the closed forms for the benchmark
walk; with an auxiliary state it estimates the unconditional per-stage
premium.  The mean realized impact is smaller by each stage's adverse-move
probability.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .attribution import (
    _adverse_moves,
    _check_formulation,
    _check_side,
    _require,
    _weights,
    path_costs,
)
from .dp import Horizon, PolicyTable, Schedule
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
    "MOMENTUM_LABELS",
    "VOLATILITY_LABELS",
    "evaluate_policy",
    "estimate_objective",
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

#: Paths advanced together; bounds the per-block shock and state arrays.
BLOCK_PATHS = 4096

#: Version of the shock stream; part of the simulate run identity.
STREAM_VERSION = 2

#: Per-stage event counters of a simulation pass.
COUNTERS = ("infeasible", "volume_clamps", "nonpositive_prices")

_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


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
    """The (stop - start, T, 2) shocks of paths [start, stop), stream v2.

    Under key ``seed``, path i reads the first 2T of the 4K words after
    counter iK (K = ceil(2T/4)), so a block is one ``random_raw`` call.  A
    word's top 52 bits give the midpoint of one of 2**52 equal cells of
    (0, 1), exact and symmetric about 1/2, and ``ndtri`` maps it to a
    finite standard normal.  Seeds below 2**63 make exact keys.
    """
    K = -(-2 * T // 4)
    m = stop - start
    words = np.random.Philox(key=seed, counter=[start * K, 0, 0, 0]).random_raw(4 * K * m)
    r = words.reshape(m, 4 * K)[:, : 2 * T]
    return ndtri(((r >> 12) + 0.5) * 2.0**-52).reshape(m, T, 2)


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


def _simulate(config: SimConfig, policy) -> SimulatedPaths:
    """Path generation in blocks of BLOCK_PATHS paths; index-ordered output.

    Counters are summed over blocks and DegeneratePathWarning is raised
    here, once per stage.
    """
    n, T = config.n_paths, config.horizon.T
    prices, trades = np.empty((n, T + 1)), np.empty((n, T))
    feasible = np.empty(n, dtype=bool)
    counters = _zero_counters(T)
    for a in range(0, n, BLOCK_PATHS):
        b = min(a + BLOCK_PATHS, n)
        z = _draw_shocks(config.seed, a, b, T)
        prices[a:b], trades[a:b], feasible[a:b], c = _run_paths(config, policy, z)
        for name in COUNTERS:
            counters[name] += c[name]
    _warn_degenerate(counters)
    return SimulatedPaths(config, prices, trades, feasible, counters)


def simulate_paths(config: SimConfig, policy) -> SimulatedPaths:
    """Generate every path of ``config`` under a Schedule or PolicyTable."""
    _check_policy(config, policy)
    return _simulate(config, policy)


def _paths_for(config: SimConfig, policy) -> SimulatedPaths:
    if isinstance(policy, SimulatedPaths):
        if policy.config != config:
            raise ValueError("the simulated paths were generated under a different config")
        return policy
    return simulate_paths(config, policy)


# ---------------------------------------------------------------------------
# Policy evaluation.
# ---------------------------------------------------------------------------


def evaluate_policy(
    config: SimConfig,
    policy,
    formulation: str = "simple",
    *,
    side: str = "buy",
) -> CostDistribution:
    """Simulate the policy and attribute every feasible path's cost.

    The law of motion prices the schedule owner's trades; ``side="sell"``
    reattributes the same fills from the counterparty's perspective (their
    impact counts the opposite price moves and their shortfall flips sign).
    """
    _check_formulation(formulation)
    _check_side(side)  # before any path is generated
    paths = _paths_for(config, policy)
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
    steps = _adverse_moves(prices, _check_side(side))
    weights = _weights(trades, trades.sum(axis=1), formulation)
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
) -> tuple[float, float]:
    """Monte Carlo estimate of the solver objective for a policy.

    Returns (value, standard error).  For the benchmark walk this is the
    conditional-premium functional the solvers minimize, so it matches
    their closed-form values; with an auxiliary state it estimates the
    unconditional per-stage premium instead.  It is not the mean realized
    impact.
    """
    _check_formulation(formulation)
    _check_side(side)  # before any path is generated
    paths = _paths_for(config, policy)
    ok = paths.feasible
    if not ok.any():
        raise ValueError("every simulated path was infeasible; nothing to estimate")
    return _rejection_objective(paths.prices[ok], paths.trades[ok], side, formulation)


# ---------------------------------------------------------------------------
# Momentum/volatility bucketing.
# ---------------------------------------------------------------------------


# Bucket edges: momentum in side-adjusted fractional return, volatility in
# price CoV.  Momentum boundaries belong to the inner buckets (the neutral
# band is closed, the significant tails are open); volatility boundaries
# belong to the lower bucket, so the no-volatility cutoff is inclusive.
_MOMENTUM_EDGES = (-0.02, -1.0 / 300.0, 1.0 / 300.0, 0.02)
_VOLATILITY_EDGES = (1e-15, 0.0010, 0.0050)


def _momentum_index(r: np.ndarray) -> np.ndarray:
    m0, m1, m2, m3 = _MOMENTUM_EDGES
    idx = np.full(r.shape, 2, dtype=int)
    idx[r < m0] = 0
    idx[(r >= m0) & (r < m1)] = 1
    idx[(r > m2) & (r <= m3)] = 3
    idx[r > m3] = 4
    return idx


def momentum_volatility_buckets(dist: CostDistribution) -> dict:
    """Summarize costs on the 5x4 momentum-by-volatility grid.

    Every cell is present; empty ones report count 0 with no statistics.
    """
    m_idx = _momentum_index(dist.side_adjusted_return)
    v_idx = np.digitize(dist.price_cov, _VOLATILITY_EDGES, right=True)
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
