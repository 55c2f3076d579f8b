"""Simulation harness tests.

Statistical assertions run against closed-form or previously frozen
rejection Monte Carlo oracles at 3 combined standard errors; determinism
assertions are bitwise.  The closed forms: the arithmetic-walk stage value
sigma*S*psi(theta*S/sigma), and for the AR(1) spec example the
unconditional stage premium s*b_t*psi(mu_t/b_t) summed over the stages,
where mu_t and b_t are the mean and standard deviation of the price step
with the auxiliary state integrated out.  The frozen oracle: the
single-stage percentage-law value 89.22900329170106 +/- 0.0300076657180387
(1e7 rejection draws).  Stream oracles draw each path's shocks of random
stream v2 on their own, one Philox call per path.
"""
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from execsched import simulate as simulate_module
from execsched.cli import main
from execsched.dp import ConfigError, Horizon, Schedule
from execsched.kernels import mills_psi
from execsched.models import (
    Ar1Extra,
    Benchmark,
    DegeneratePathWarning,
    LinearPercentage,
    Liquidity,
    LiquidityViolationError,
    MarketState,
    Spread,
    ar1_volume_update,
    step,
)
from execsched.simulate import (
    CostDistribution,
    MOMENTUM_LABELS,
    SimConfig,
    VOLATILITY_LABELS,
    estimate_objective,
    evaluate_policy,
    momentum_volatility_buckets,
    simulate_paths,
)
from execsched.dp import solve_ar1_complex, solve_benchmark_complex, solve_benchmark_simple
from support import brute_force_schedule


def _bench_config(theta=2.0, sigma=2.0, T=3, total=10.0, n_paths=500, seed=99):
    return SimConfig(
        model=Benchmark(theta=theta, sigma_eps=sigma),
        horizon=Horizon(T, total),
        n_paths=n_paths,
        seed=seed,
        initial_state=MarketState(price=100.0),
    )


def _equal_schedule(T, total):
    return Schedule.from_trades([total / T] * T, total)


class TestDeterminism:
    def test_identical_config_identical_samples(self):
        cfg = _bench_config()
        sched = _equal_schedule(3, 10.0)
        a = evaluate_policy(cfg, sched, "simple")
        b = evaluate_policy(cfg, sched, "simple")
        assert np.array_equal(a.shortfall, b.shortfall)
        assert np.array_equal(a.impact, b.impact)
        assert np.array_equal(a.timing, b.timing)
        assert np.array_equal(a.path_index, b.path_index)

    def test_different_seeds_differ(self):
        sched = _equal_schedule(3, 10.0)
        a = evaluate_policy(_bench_config(seed=1, n_paths=50), sched)
        b = evaluate_policy(_bench_config(seed=2, n_paths=50), sched)
        assert not np.array_equal(a.shortfall, b.shortfall)

    def test_largest_seed_keys_philox_exactly(self):
        seed = 2**63 - 1
        z = simulate_module._draw_shocks(seed, 3, 6, 4)
        for k, i in enumerate(range(3, 6)):
            assert np.array_equal(z[k], _v2_path_shocks(seed, i, 4))


class TestShockStream:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), T=st.integers(1, 12), data=st.data())
    def test_any_block_is_rows_of_the_whole_draw(self, seed, T, data):
        n = data.draw(st.integers(1, 300), label="n")
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(a + 1, n), label="b")
        whole = simulate_module._draw_shocks(seed, 0, n, T)
        block = simulate_module._draw_shocks(seed, a, b, T)
        assert block.shape == (b - a, T, 2)
        assert block.tobytes() == whole[a:b].tobytes()
        assert np.isfinite(whole).all()

    def test_large_seeds_are_distinct_keys(self):
        # float(top) == float(top - 2**8): a key read through float64 merges them
        top = 2**63 - 1
        for other in (top - 2**11, top - 2**8):
            a = simulate_module._draw_shocks(top, 0, 4, 3)
            b = simulate_module._draw_shocks(other, 0, 4, 3)
            assert not np.array_equal(a, b)

    def test_moments_of_a_large_draw(self):
        z = simulate_module._draw_shocks(20260814, 0, 200_000, 4).ravel()
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)


class TestEvaluatePolicy:
    def test_noise_free_law_collapses_the_distribution(self):
        cfg = SimConfig(
            model=Benchmark(theta=0.1, sigma_eps=0.0),
            horizon=Horizon(4, 8.0),
            n_paths=50,
            seed=3,
            initial_state=MarketState(price=100.0),
        )
        dist = evaluate_policy(cfg, _equal_schedule(4, 8.0), "simple")
        assert np.all(dist.shortfall == dist.shortfall[0])
        assert dist.summary()["shortfall"]["std"] == 0.0
        assert dist.summary()["impact"]["std"] == 0.0

    def test_decomposition_holds_per_path(self):
        cfg = _bench_config(n_paths=200)
        dist = evaluate_policy(cfg, _equal_schedule(3, 10.0), "complex")
        assert np.array_equal(dist.timing, dist.shortfall - dist.impact)
        assert np.all(dist.impact >= 0.0)

    def test_monotone_forced_paths_have_no_complex_timing(self):
        # theta*S = 15 against sigma = 0.01: every step is adverse, so the
        # residual-weighted impact telescopes to the whole shortfall.
        cfg = _bench_config(theta=5.0, sigma=0.01, T=3, total=9.0, n_paths=300)
        dist = evaluate_policy(cfg, _equal_schedule(3, 9.0), "complex")
        scale = float(np.mean(dist.shortfall))
        assert scale > 0.0
        assert np.max(np.abs(dist.timing)) <= 1e-9 * scale

    def test_balanced_buyer_and_seller_cancel_per_path(self):
        cfg = _bench_config(n_paths=150)
        sched = _equal_schedule(3, 10.0)
        for formulation in ("simple", "complex"):
            buy = evaluate_policy(cfg, sched, formulation, side="buy")
            sell = evaluate_policy(cfg, sched, formulation, side="sell")
            assert np.all(buy.shortfall + sell.shortfall == 0.0)
            total = buy.impact + buy.timing + sell.impact + sell.timing
            assert np.max(np.abs(total)) <= 1e-9 * 10.0 * 100.0

    def test_side_adjusted_return_flips_sign(self):
        cfg = _bench_config(n_paths=60)
        sched = _equal_schedule(3, 10.0)
        buy = evaluate_policy(cfg, sched, side="buy")
        sell = evaluate_policy(cfg, sched, side="sell")
        assert np.array_equal(buy.side_adjusted_return, -sell.side_adjusted_return)
        assert np.all(buy.price_cov >= 0.0)

    def test_policy_table_matches_its_schedule(self):
        sched, table = solve_benchmark_simple(Benchmark(2.0, 2.0), Horizon(4, 10.0))
        cfg = _bench_config(T=4, n_paths=120)
        from_sched = evaluate_policy(cfg, sched, "simple")
        from_table = evaluate_policy(cfg, table, "simple")
        assert from_table.shortfall == pytest.approx(from_sched.shortfall, rel=1e-9)

    def test_liquidity_infeasible_paths_excluded_and_counted(self):
        params = Liquidity(
            alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(2, 40.0),
            n_paths=400,
            seed=21,
            initial_state=MarketState(price=100.0, aux=50.0),
        )
        dist = evaluate_policy(cfg, _equal_schedule(2, 40.0), "simple")
        assert 0 < dist.n_infeasible < 400
        assert dist.shortfall.size + dist.n_infeasible == 400
        assert np.all(np.diff(dist.path_index) > 0)

    def test_summary_recomputes_from_samples(self):
        cfg = _bench_config(n_paths=400)
        dist = evaluate_policy(cfg, _equal_schedule(3, 10.0), "simple")
        s = dist.summary()["shortfall"]
        assert s["count"] == 400
        assert s["mean"] == pytest.approx(float(dist.shortfall.mean()), rel=1e-15)
        assert s["std"] == pytest.approx(float(dist.shortfall.std(ddof=1)), rel=1e-15)
        assert s["quantiles"]["q50"] == pytest.approx(
            float(np.quantile(dist.shortfall, 0.5)), rel=1e-15
        )
        assert s["quantiles"]["q05"] <= s["quantiles"]["q95"]


class TestEstimateObjective:
    def test_benchmark_matches_closed_form(self):
        theta, sigma, T, total = 2.0, 2.0, 3, 10.0
        cfg = _bench_config(theta, sigma, T, total, n_paths=40_000, seed=12)
        est, se = estimate_objective(cfg, _equal_schedule(T, total), "simple")
        s = total / T
        closed = T * s * sigma * mills_psi(theta * s / sigma)
        assert se > 0.0
        assert abs(est - closed) <= 3.0 * se

    def test_ar1_matches_frozen_true_law_value(self):
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        cfg = SimConfig(
            model=params,
            horizon=Horizon(2, 1.0),
            n_paths=30_000,
            seed=77,
            initial_state=MarketState(price=100.0, aux=1.0),
        )
        est, se = estimate_objective(cfg, _equal_schedule(2, 1.0), "simple")
        # The estimator averages over the auxiliary state: the price step of
        # stage t is normal with mean theta*s + gamma*rho**t*x0 and variance
        # sigma_eps**2 + gamma**2 * sigma_eta**2 * (1 + ... + rho**(2(t-1))).
        b1, b2 = math.hypot(0.5, 1.0), math.sqrt(1.4525)
        closed = 0.5 * (b1 * mills_psi(0.95 / b1) + b2 * mills_psi(0.905 / b2))
        assert se > 0.0
        assert abs(est - closed) <= 3.0 * se

    def test_percentage_law_matches_frozen_value(self):
        params = LinearPercentage(
            mu_B=0.0, sigma_B=0.1, theta=0.001, gamma=0.0, rho=0.0, sigma_eta=1.0
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(1, 10.0),
            n_paths=40_000,
            seed=13,
            initial_state=MarketState(price=100.0, no_impact_price=100.0),
        )
        est, se = estimate_objective(cfg, Schedule.from_trades([10.0], 10.0))
        assert abs(est - 89.22900329170106) <= 3.0 * (se + 0.0300076657180387)

    def test_all_paths_infeasible_raises(self):
        params = Liquidity(
            alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=0.01
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(2, 10.0),
            n_paths=20,
            seed=4,
            initial_state=MarketState(price=100.0, aux=1.0),
        )
        with pytest.raises(ValueError, match="infeasible"):
            estimate_objective(cfg, _equal_schedule(2, 10.0))


class TestBruteForce:
    def test_benchmark_simple_splits_evenly(self):
        cfg = _bench_config(T=2, total=10.0)
        sched = brute_force_schedule(cfg, 16, "simple")
        assert sched.trades[0] == pytest.approx(5.0, abs=10.0 / 16.0)

    def test_benchmark_complex_interior_matches_solver(self):
        from execsched.dp import solve_benchmark_complex

        cfg = _bench_config(theta=5.0, sigma=1.0, T=2, total=1.0)
        sched = brute_force_schedule(cfg, 64, "complex")
        solved, _ = solve_benchmark_complex(Benchmark(5.0, 1.0), Horizon(2, 1.0))
        assert abs(sched.trades[0] - solved.trades[0]) <= 1.0 / 64.0

    def test_benchmark_complex_boundary_case(self):
        cfg = _bench_config(theta=1.0, sigma=1.0, T=2, total=1.0)
        sched = brute_force_schedule(cfg, 32, "complex")
        assert sched.trades[0] >= 1.0 - 1.0 / 32.0

    def test_ar1_equal_thirds(self):
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        cfg = SimConfig(
            model=params,
            horizon=Horizon(3, 9.0),
            n_paths=10,
            seed=1,
            initial_state=MarketState(price=100.0, aux=1.0),
        )
        sched = brute_force_schedule(cfg, 12, "simple")
        for s in sched.trades:
            assert s == pytest.approx(3.0, abs=9.0 / 12.0)

    def test_monte_carlo_method_runs_on_percentage_law(self):
        params = LinearPercentage(
            mu_B=0.0005, sigma_B=0.05, theta=0.001, gamma=0.0, rho=0.0, sigma_eta=1.0
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(2, 10.0),
            n_paths=800,
            seed=8,
            initial_state=MarketState(price=100.0, no_impact_price=100.0),
        )
        sched = brute_force_schedule(cfg, 8, "simple")
        assert math.fsum(sched.trades) == pytest.approx(10.0, rel=1e-12)

    def test_monte_carlo_choice_matches_per_candidate_estimates(self):
        params = LinearPercentage(
            mu_B=0.0005, sigma_B=0.05, theta=0.001, gamma=0.0, rho=0.0, sigma_eta=1.0
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(3, 10.0),
            n_paths=300,
            seed=8,
            initial_state=MarketState(price=100.0, no_impact_price=100.0),
        )
        candidates = [
            Schedule.from_trades([a * 10.0 / 6, b * 10.0 / 6, (6 - a - b) * 10.0 / 6], 10.0)
            for a in range(7) for b in range(7 - a)
        ]
        values = [estimate_objective(cfg, c, "complex")[0] for c in candidates]
        best = candidates[int(np.argmin(values))]
        assert brute_force_schedule(cfg, 6, "complex").trades == best.trades

    # Front-loaded candidates can push the liquidity law to a nonpositive
    # price; that warns and keeps going rather than aborting the search.
    @pytest.mark.filterwarnings("ignore::execsched.models.DegeneratePathWarning")
    def test_monte_carlo_skips_infeasible_candidates(self):
        params = Liquidity(
            alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
        )
        cfg = SimConfig(
            model=params,
            horizon=Horizon(2, 40.0),
            n_paths=200,
            seed=9,
            initial_state=MarketState(price=100.0, aux=50.0),
        )
        sched = brute_force_schedule(cfg, 8, "simple")
        assert math.fsum(sched.trades) == pytest.approx(40.0, rel=1e-12)

    def test_budget_guards(self):
        cfg = SimConfig(
            model=Benchmark(theta=1.0, sigma_eps=1.0),
            horizon=Horizon(4, 10.0),
            n_paths=10,
            seed=1,
            initial_state=MarketState(price=100.0),
        )
        with pytest.raises(ConfigError, match="budget"):
            brute_force_schedule(cfg, 200, "simple")
        gbm = SimConfig(
            model=LinearPercentage(0.0, 0.05, 0.001, 0.0, 0.0, 1.0),
            horizon=Horizon(2, 10.0),
            n_paths=3_000_000,
            seed=1,
            initial_state=MarketState(price=100.0, no_impact_price=100.0),
        )
        with pytest.raises(ConfigError, match="budget"):
            brute_force_schedule(gbm, 8, "simple")

    def test_method_validation(self):
        gbm = SimConfig(
            model=LinearPercentage(0.0, 0.05, 0.001, 0.0, 0.0, 1.0),
            horizon=Horizon(2, 10.0),
            n_paths=100,
            seed=1,
            initial_state=MarketState(price=100.0, no_impact_price=100.0),
        )
        with pytest.raises(ValueError, match="arithmetic laws"):
            brute_force_schedule(gbm, 8, "simple", method="closed")
        with pytest.raises(ValueError, match="method"):
            brute_force_schedule(gbm, 8, "simple", method="grid")


class TestValidation:
    def test_sim_config_rejects_bad_fields(self):
        model = Benchmark(theta=1.0, sigma_eps=1.0)
        state = MarketState(price=100.0)
        good = dict(
            model=model, horizon=Horizon(2, 10.0), n_paths=10, seed=1, initial_state=state
        )
        for bad in (
            dict(good, n_paths=0),
            dict(good, n_paths=True),
            dict(good, seed=-1),
            dict(good, seed=2**64),
            dict(good, seed=2**63),
            dict(good, seed=True),
            dict(good, model={"theta": 1.0}),
            dict(good, initial_state=MarketState(price=-5.0)),
        ):
            with pytest.raises(ValueError):
                SimConfig(**bad)

    def test_percentage_law_needs_reference_price(self):
        with pytest.raises(ValueError, match="no_impact_price"):
            SimConfig(
                model=LinearPercentage(0.0, 0.1, 0.001, 0.0, 0.0, 1.0),
                horizon=Horizon(1, 10.0),
                n_paths=10,
                seed=1,
                initial_state=MarketState(price=100.0),
            )

    def test_policy_horizon_must_match(self):
        cfg = _bench_config(T=3)
        with pytest.raises(ValueError, match="stages"):
            evaluate_policy(cfg, _equal_schedule(2, 10.0))
        with pytest.raises(ValueError, match="shares"):
            evaluate_policy(cfg, _equal_schedule(3, 12.0))
        _, table = solve_benchmark_simple(Benchmark(2.0, 2.0), Horizon(4, 10.0))
        with pytest.raises(ValueError, match="stages"):
            evaluate_policy(cfg, table)
        with pytest.raises(TypeError, match="Schedule or PolicyTable"):
            evaluate_policy(cfg, [5.0, 5.0])

    def test_bad_side_raises_before_any_path(self, monkeypatch):
        def no_paths(*args):
            raise AssertionError("paths were generated for a bad side")

        monkeypatch.setattr(simulate_module, "_simulate", no_paths)
        cfg, sched = _bench_config(n_paths=10), _equal_schedule(3, 10.0)
        for estimator in (evaluate_policy, estimate_objective):
            with pytest.raises(ValueError, match="side must be 'buy' or 'sell', got 'hold'"):
                estimator(cfg, sched, side="hold")

    def test_bad_formulation(self):
        cfg = _bench_config(n_paths=10)
        sched = _equal_schedule(3, 10.0)
        with pytest.raises(ValueError, match="formulation"):
            evaluate_policy(cfg, sched, "net")


def _handmade_distribution(returns, covs):
    n = len(returns)
    ones = np.ones(n)
    return CostDistribution(
        shortfall=2.0 * ones,
        impact=ones.copy(),
        timing=ones.copy(),
        side_adjusted_return=np.asarray(returns, dtype=float),
        price_cov=np.asarray(covs, dtype=float),
        path_index=np.arange(n),
        n_paths=n,
        n_infeasible=0,
        formulation="simple",
        side="buy",
        seed=0,
    )


class TestBuckets:
    def test_grid_is_complete_and_counts_land(self):
        dist = _handmade_distribution(
            returns=[-0.03, -0.01, 0.0, 0.01, 0.03],
            covs=[0.0, 5e-4, 2e-3, 8e-3, 1e-16],
        )
        table = momentum_volatility_buckets(dist)
        assert set(table) == set(MOMENTUM_LABELS)
        for row in table.values():
            assert set(row) == set(VOLATILITY_LABELS)
        assert table["significant_adverse"]["no"]["count"] == 1
        assert table["adverse"]["low"]["count"] == 1
        assert table["neutral"]["moderate"]["count"] == 1
        assert table["favorable"]["high"]["count"] == 1
        assert table["significant_favorable"]["no"]["count"] == 1
        assert table["neutral"]["no"]["count"] == 0
        assert table["neutral"]["no"]["shortfall"] is None
        assert table["neutral"]["moderate"]["shortfall"]["mean"] == 2.0

    def test_boundaries_belong_to_inner_buckets(self):
        dist = _handmade_distribution(
            returns=[-0.02, -1.0 / 300.0, 1.0 / 300.0, 0.02],
            covs=[1e-15, 0.0010, 0.0050, 0.01],
        )
        table = momentum_volatility_buckets(dist)
        assert table["adverse"]["no"]["count"] == 1
        assert table["neutral"]["low"]["count"] == 1
        assert table["neutral"]["moderate"]["count"] == 1
        assert table["favorable"]["high"]["count"] == 1

    def test_infinite_cov_is_high_volatility(self):
        dist = _handmade_distribution(returns=[0.0], covs=[math.inf])
        table = momentum_volatility_buckets(dist)
        assert table["neutral"]["high"]["count"] == 1


# ---------------------------------------------------------------------------
# The batched simulator against the path-by-path reference.
# ---------------------------------------------------------------------------


def _v2_path_shocks(seed, i, T):
    """Path i's (T, 2) shocks of random stream v2, drawn on their own.

    Under key ``seed`` path i reads the first 2T words after counter
    i*ceil(2T/4); the top 52 bits of a word are the midpoint of one of 2**52
    cells of (0, 1), which the inverse normal CDF maps to a shock.
    """
    K = math.ceil(2 * T / 4)
    words = np.random.Philox(key=seed, counter=i * K).random_raw(2 * T).tolist()
    u = [((w >> 12) + 0.5) / 2**52 for w in words]
    return ndtri(np.array(u)).reshape(T, 2)


def _reference_paths(config, policy):
    """Path by path and stage by stage through the scalar step.

    Returns prices, trades, feasible and the per-stage counters the batched
    simulator reports.
    """
    T = config.horizon.T
    n = config.n_paths
    prices = np.full((n, T + 1), np.nan)
    trades = np.full((n, T), np.nan)
    feasible = np.zeros(n, dtype=bool)
    counters = {name: np.zeros(T, dtype=np.int64) for name in simulate_module.COUNTERS}
    fixed = policy.trades if isinstance(policy, Schedule) else None
    for i in range(n):
        z = _v2_path_shocks(config.seed, i, T)
        state, w = config.initial_state, config.horizon.total_shares
        row_p, row_s = [state.price], []
        for t in range(1, T + 1):
            if t == T:
                s = w
            elif fixed is not None:
                s = min(fixed[t - 1], w)
            else:
                s = policy.trade_at(t, w)
            s = 0.0 if s < 0.0 else s
            if isinstance(config.model, Liquidity):
                counters["volume_clamps"][t - 1] += ar1_volume_update(
                    config.model, state.aux, z[t - 1, 1])[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DegeneratePathWarning)
                try:
                    state = step(config.model, state, s, (z[t - 1, 0], z[t - 1, 1]))
                except LiquidityViolationError:
                    counters["infeasible"][t - 1] += 1
                    break
            counters["nonpositive_prices"][t - 1] += len(caught)
            row_p.append(state.price)
            row_s.append(s)
            w -= s
        else:
            feasible[i] = True
            prices[i], trades[i] = row_p, row_s
    return prices, trades, feasible, counters


def _liquidity_config(n_paths=60):
    # volumes near the trades: paths go infeasible, clamp and turn nonpositive
    return SimConfig(
        model=Liquidity(alpha=0.01, theta=0.01, gamma=0.02, rho=0.6,
                        sigma_eps=0.5, sigma_eta=25.0),
        horizon=Horizon(4, 20.0),
        n_paths=n_paths,
        seed=5,
        initial_state=MarketState(price=100.0, aux=40.0),
    )


def _law_case(name):
    if name == "benchmark":
        return _bench_config(T=4, n_paths=60), _equal_schedule(4, 10.0)
    if name == "benchmark-table":
        _, table = solve_benchmark_complex(Benchmark(2.0, 2.0), Horizon(4, 10.0))
        return _bench_config(T=4, n_paths=60), table
    if name in ("ar1-table", "spread"):
        law = Ar1Extra if name == "ar1-table" else Spread
        params = law(theta=1.5, gamma=0.3, rho=0.6, sigma_eps=1.0, sigma_eta=0.5)
        cfg = SimConfig(model=params, horizon=Horizon(4, 10.0), n_paths=60, seed=6,
                        initial_state=MarketState(price=100.0, aux=0.5))
        if law is Spread:
            return cfg, Schedule.from_trades([1.0, 2.0, 3.0, 4.0], 10.0)
        return cfg, solve_ar1_complex(params, Horizon(4, 10.0), 0.5)[1]
    if name == "linear_percentage":
        params = LinearPercentage(mu_B=0.0, sigma_B=0.05, theta=0.001, gamma=0.002,
                                  rho=0.5, sigma_eta=1.0)
        cfg = SimConfig(model=params, horizon=Horizon(4, 10.0), n_paths=60, seed=7,
                        initial_state=MarketState(price=100.0, aux=0.1, no_impact_price=100.0))
        return cfg, Schedule.from_trades([4.0, 3.0, 2.0, 1.0], 10.0)
    return _liquidity_config(), Schedule.from_trades([2.0, 3.0, 5.0, 10.0], 20.0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBatchedSimulator:
    @pytest.mark.parametrize("law", [
        "benchmark", "benchmark-table", "ar1-table", "spread", "linear_percentage", "liquidity",
    ])
    @pytest.mark.filterwarnings("ignore::execsched.models.DegeneratePathWarning")
    def test_matches_path_by_path_reference(self, law, monkeypatch):
        # a block size that does not divide n_paths puts block edges mid-run
        monkeypatch.setattr(simulate_module, "BLOCK_PATHS", 7)
        cfg, policy = _law_case(law)
        prices, trades, feasible, counters = _reference_paths(cfg, policy)
        paths = simulate_paths(cfg, policy)
        assert np.array_equal(paths.feasible, feasible)
        assert _digest(paths.prices, paths.trades) == _digest(prices, trades)
        for name, ref in counters.items():
            assert paths.counters[name].tolist() == ref.tolist(), name
        if law == "liquidity":
            assert all(counters[name].sum() > 0 for name in counters)

    def test_degenerate_paths_warn_once_per_stage(self):
        cfg, sched = _law_case("liquidity")
        with pytest.warns(DegeneratePathWarning) as record:
            paths = simulate_paths(cfg, sched)
        assert paths.counters["infeasible"].sum() == (~paths.feasible).sum()
        counts = paths.counters["nonpositive_prices"]
        assert len(record) == np.count_nonzero(counts)
        stages = [t for t, c in enumerate(counts, start=1) if c]
        for rec, t in zip(record, stages):
            assert str(rec.message).startswith(f"{counts[t - 1]} liquidity price paths")
            assert str(rec.message).endswith(f"t={t}")

    def test_paths_feed_both_estimators(self):
        cfg = _bench_config(n_paths=300)
        sched = _equal_schedule(3, 10.0)
        paths = simulate_paths(cfg, sched)
        a = evaluate_policy(cfg, paths, "complex", side="sell")
        b = evaluate_policy(cfg, sched, "complex", side="sell")
        assert np.array_equal(a.shortfall, b.shortfall)
        assert estimate_objective(cfg, paths) == estimate_objective(cfg, sched)
        with pytest.raises(ValueError, match="different config"):
            evaluate_policy(_bench_config(n_paths=300, seed=1), paths)

    def test_dust_negative_trades_execute_as_nothing(self):
        sched = Schedule.from_trades([5.0, -5e-13, 5.0000000000005], 10.0)
        cfg = _bench_config(n_paths=50)
        paths = simulate_paths(cfg, sched)
        assert np.all(paths.trades[:, 1] == 0.0)
        assert np.all(paths.trades.sum(axis=1) == 10.0)
        assert evaluate_policy(cfg, sched).n_infeasible == 0

    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    def test_policy_tables_and_percentage_law_pinned(self):
        # digests of evaluate_policy output on random stream v2 with the
        # one-formula Mills kernel, the tables solved by the Newton that stops
        # at the rounding floor of its first-order condition
        bench = Benchmark(theta=2.5, sigma_eps=2.0)
        _, table = solve_benchmark_complex(bench, Horizon(4, 10.0))
        cfg = SimConfig(model=bench, horizon=Horizon(4, 10.0), n_paths=1500, seed=31,
                        initial_state=MarketState(price=100.0))
        ar1 = Ar1Extra(theta=0.4, gamma=0.3, rho=0.6, sigma_eps=1.0, sigma_eta=0.5)
        _, ar1_table = solve_ar1_complex(ar1, Horizon(4, 10.0), 0.5)
        ar1_cfg = SimConfig(model=ar1, horizon=Horizon(4, 10.0), n_paths=1500, seed=32,
                            initial_state=MarketState(price=100.0, aux=0.5))
        pct = LinearPercentage(mu_B=0.0, sigma_B=0.02, theta=0.001, gamma=0.002, rho=0.5,
                               sigma_eta=1.0)
        pct_cfg = SimConfig(
            model=pct, horizon=Horizon(4, 10.0), n_paths=1500, seed=33,
            initial_state=MarketState(price=100.0, aux=0.1, no_impact_price=100.0))
        runs = {
            "a87131183ff0c321389fe25e3a643368b3b0b71131b3efe11ea79bfe4980df02":
                evaluate_policy(cfg, table, "complex"),
            "9db7876b64a4ecbcedc1a9d4a3ae6666a43670314cac9d6b2788f04ef0b1df86":
                evaluate_policy(ar1_cfg, ar1_table, "complex"),
            "5832836c262bc09f6d08455f2e657b65598b328c958535dfc8c65580898da8da":
                evaluate_policy(pct_cfg, Schedule.from_trades([1.0, 2.0, 3.0, 4.0], 10.0)),
        }
        for pinned, d in runs.items():
            assert _digest(d.shortfall, d.impact, d.timing, d.side_adjusted_return,
                           d.price_cov, d.path_index) == pinned


# Configs whose simulate outputs were recorded on random stream v2:
# (config, sha256 of paths.csv, sha256 of distribution.json re-serialized
# with sorted keys and without its counters block).
_PINNED_RUNS = {
    "benchmark": (
        {
            "model": "benchmark", "formulation": "complex",
            "params": {"theta": 2.5, "sigma_eps": 2.0},
            "horizon": {"periods": 4, "total_shares": 10.0},
            "initial_state": {"price": 100.0},
            "solver": {"grid_nodes": 24},
            "simulation": {"n_paths": 1500, "seed": 4242, "workers": 1},
        },
        "e2cd7699ae7c1614526ef5e9983c0818a3c2a44bbb4a9b6456ee85f4ff133c4b",
        "744ccfa5e756fe1b37eee3b181d596c56835a3058701a3743c4a04520f611972",
    ),
    "ar1": (
        {
            "model": "ar1", "formulation": "simple",
            "params": {"theta": 0.4, "gamma": 0.3, "rho": 0.6, "sigma_eps": 1.0,
                       "sigma_eta": 0.5},
            "horizon": {"periods": 5, "total_shares": 20.0},
            "initial_state": {"price": 50.0, "aux": 0.5},
            "simulation": {"n_paths": 1500, "seed": 77, "workers": 1, "side": "sell"},
        },
        "ecdeefa1d75ace91394f3f1900ad36a744aa00788dc364349df98e67f9626117",
        "ac6d8639332ceb037ffea65ab94261bf87ffdd02a011940effbb4a172110a90f",
    ),
    "liquidity": (
        {
            "model": "liquidity", "formulation": "simple",
            "params": {"alpha": 0.015, "theta": 0.0005, "gamma": 0.0002,
                       "rho": 0.95, "sigma_eps": 0.5, "sigma_eta": 18.0},
            "horizon": {"periods": 8, "total_shares": 190.0},
            "initial_state": {"price": 100.0, "aux": 100.0},
            "schedule": [5.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0],
            "simulation": {"n_paths": 1500, "seed": 9001, "workers": 1},
        },
        "dc4f6db82115f7aaadc36623a08273c8ee4fefbda11e8de972599b125a34efec",
        "05ec615419f5bd90e1fa208140c6cc4c1bf4d16a169e44e528c748490d18a631",
    ),
}


class TestSimulateCommand:
    @pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    def test_outputs_match_pinned_digests(self, name, tmp_path):
        doc, paths_sha, dist_sha = _PINNED_RUNS[name]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == paths_sha
        dist = json.loads((tmp_path / "distribution.json").read_text(encoding="utf-8"))
        counters = dist.pop("counters")
        assert sum(counters["infeasible"]) == dist["n_infeasible"]
        assert all(len(v) == doc["horizon"]["periods"] for v in counters.values())
        text = json.dumps(dist, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == dist_sha

    def test_paths_are_generated_once(self, tmp_path, monkeypatch):
        calls = []
        generate = simulate_module._simulate

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(simulate_module, "_simulate", counted)
        doc = _PINNED_RUNS["benchmark"][0]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(cfg), "--paths", "200", "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
