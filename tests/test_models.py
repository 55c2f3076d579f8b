"""Unit tests for the price-motion laws and their parameter validation."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execsched import gbm
from execsched.dp import Horizon, RecursionConfig
from execsched.gbm import solve_gbm_simple
from execsched.liquidity import solve_liquidity
from execsched.kernels import mills_psi
from execsched.models import (
    Ar1Extra,
    Benchmark,
    DegeneratePathWarning,
    LinearPercentage,
    Liquidity,
    LiquidityViolationError,
    MarketBatch,
    MarketState,
    Spread,
    ar1_volume_update,
    convexity_check,
    step,
)

NO_NOISE = (0.0, 0.0)


def make_liquidity(**overrides):
    base = dict(alpha=0.01, theta=0.001, gamma=0.0005, rho=0.9, sigma_eps=0.5, sigma_eta=5.0)
    base.update(overrides)
    return Liquidity(**base)


class TestBenchmarkStep:
    def test_worked_example(self):
        params = Benchmark(theta=0.1, sigma_eps=1.0)
        state = MarketState(price=100.0)
        nxt = step(params, state, trade=10.0, noise=NO_NOISE)
        assert nxt.price == 101.0
        assert nxt.time_index == 1

    def test_noise_scaling(self):
        params = Benchmark(theta=0.1, sigma_eps=2.0)
        nxt = step(params, MarketState(price=100.0), trade=0.0, noise=(1.5, 0.0))
        assert nxt.price == 103.0

    def test_identity_with_zero_trade_and_noise(self):
        params = Benchmark(theta=0.3, sigma_eps=1.0)
        state = MarketState(price=55.25)
        assert step(params, state, 0.0, NO_NOISE).price == state.price

    def test_rejects_negative_trade(self):
        with pytest.raises(ValueError):
            step(Benchmark(1.0, 1.0), MarketState(price=10.0), -1.0, NO_NOISE)


class TestAr1Step:
    def test_worked_example(self):
        params = Ar1Extra(theta=0.1, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        state = MarketState(price=100.0, aux=2.0)
        nxt = step(params, state, trade=0.0, noise=NO_NOISE)
        assert nxt.aux == pytest.approx(1.8, abs=1e-15)
        assert nxt.price == pytest.approx(100.9, abs=1e-12)

    def test_impact_and_state_noise(self):
        params = Ar1Extra(theta=0.1, gamma=0.5, rho=0.5, sigma_eps=1.0, sigma_eta=2.0)
        nxt = step(params, MarketState(price=100.0, aux=1.0), trade=10.0, noise=(1.0, 0.5))
        # X' = 0.5 + 1.0 = 1.5; P' = 100 + 1 + 0.75 + 1
        assert nxt.aux == pytest.approx(1.5)
        assert nxt.price == pytest.approx(102.75)

    def test_identity_with_zero_state(self):
        params = Ar1Extra(theta=0.1, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        state = MarketState(price=72.0, aux=0.0)
        assert step(params, state, 0.0, NO_NOISE).price == state.price


class TestSpreadAlias:
    def test_is_one_code_path(self):
        spread = Spread(theta=0.1, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        assert isinstance(spread, Ar1Extra)
        twin = Ar1Extra(theta=0.1, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        state = MarketState(price=100.0, aux=2.0)
        a = step(spread, state, 5.0, (0.3, -0.2))
        b = step(twin, state, 5.0, (0.3, -0.2))
        assert a.price == b.price
        assert a.aux == b.aux


class TestLinearPercentageStep:
    def test_worked_example(self):
        params = LinearPercentage(mu_B=0.0, sigma_B=0.2, theta=0.001, gamma=0.0, rho=0.5, sigma_eta=1.0)
        state = MarketState(price=100.0, no_impact_price=100.0)
        nxt = step(params, state, trade=10.0, noise=NO_NOISE)
        assert nxt.no_impact_price == pytest.approx(100.0)
        assert nxt.price == pytest.approx(101.0)

    def test_no_impact_price_stays_positive(self):
        params = LinearPercentage(mu_B=-0.1, sigma_B=0.5, theta=0.001, gamma=0.2, rho=0.5, sigma_eta=1.0)
        state = MarketState(price=100.0, no_impact_price=100.0)
        for z in (-8.0, -3.0, 0.0, 3.0):
            nxt = step(params, state, 0.0, (z, 0.0))
            assert nxt.no_impact_price > 0.0
            state = nxt

    def test_requires_no_impact_price(self):
        params = LinearPercentage(mu_B=0.0, sigma_B=0.2, theta=0.001, gamma=0.0, rho=0.5, sigma_eta=1.0)
        with pytest.raises(ValueError, match="no_impact_price"):
            step(params, MarketState(price=100.0), 1.0, NO_NOISE)


class TestLiquidityStep:
    def test_direct_substitution(self):
        params = make_liquidity()
        state = MarketState(price=100.0, aux=100.0)
        nxt = step(params, state, trade=10.0, noise=NO_NOISE)
        # O' = 90; P' = 100*(0.01 + 1 + 0.01 - 0.0005*80) = 98
        assert nxt.aux == pytest.approx(90.0)
        assert nxt.price == pytest.approx(98.0)

    def test_trade_above_volume_raises(self):
        params = make_liquidity()
        state = MarketState(price=100.0, aux=100.0)
        with pytest.raises(LiquidityViolationError):
            step(params, state, trade=90.1, noise=NO_NOISE)

    def test_volume_clamped_at_zero(self):
        params = make_liquidity()
        vol, clamped = ar1_volume_update(params, 1.0, -5.0)
        assert vol == 0.0
        assert clamped
        vol, clamped = ar1_volume_update(params, 100.0, 0.1)
        assert vol == pytest.approx(90.5)
        assert not clamped

    def test_nonpositive_price_warns_but_returns(self):
        params = make_liquidity(gamma=0.5)
        state = MarketState(price=100.0, aux=100.0)
        with pytest.warns(DegeneratePathWarning):
            nxt = step(params, state, trade=0.0, noise=NO_NOISE)
        assert nxt.price < 0.0

    def test_beta_is_theta_plus_gamma(self):
        params = make_liquidity(theta=0.2, gamma=0.1)
        assert params.beta == params.theta + params.gamma


class TestStepPurity:
    def test_bit_identical_repeats(self):
        params = Ar1Extra(theta=0.37, gamma=0.11, rho=-0.4, sigma_eps=0.9, sigma_eta=1.7)
        state = MarketState(price=250.125, aux=-3.5, time_index=4)
        a = step(params, state, 12.75, (0.123456, -1.654321))
        b = step(params, state, 12.75, (0.123456, -1.654321))
        assert (a.price, a.aux, a.time_index) == (b.price, b.aux, b.time_index)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(theta=0.0, sigma_eps=1.0),
            dict(theta=-1.0, sigma_eps=1.0),
            dict(theta=1.0, sigma_eps=-0.5),
            dict(theta=math.inf, sigma_eps=1.0),
        ],
    )
    def test_benchmark_rejects(self, bad):
        with pytest.raises(ValueError):
            Benchmark(**bad)

    def test_benchmark_allows_noise_free_law(self):
        params = Benchmark(theta=1.0, sigma_eps=0.0)
        state = MarketState(price=100.0)
        assert step(params, state, 5.0, (1.7, 0.0)).price == 105.0

    def test_ar1_rejects_unit_root(self):
        with pytest.raises(ValueError):
            Ar1Extra(theta=1.0, gamma=0.5, rho=1.0, sigma_eps=1.0, sigma_eta=1.0)

    def test_liquidity_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            make_liquidity(gamma=0.0)

    def test_state_rejects_nonpositive_no_impact_price(self):
        with pytest.raises(ValueError):
            MarketState(price=100.0, no_impact_price=0.0)

    def test_state_rejects_negative_time_index(self):
        with pytest.raises(ValueError):
            MarketState(price=100.0, time_index=-1)


class TestConvexityCheck:
    def test_holds_above_threshold(self):
        assert convexity_check(Benchmark(theta=1.0, sigma_eps=1.0)) is True

    def test_boundary_excluded(self):
        assert convexity_check(Benchmark(theta=0.75, sigma_eps=1.0)) is False

    def test_fails_below_threshold(self):
        assert convexity_check(Benchmark(theta=0.1, sigma_eps=1.0)) is False

    def test_non_benchmark_unsupported(self):
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        with pytest.raises(ValueError):
            convexity_check(params)


def _reference_step(params, price, aux, nip, trade, z_price, z_aux):
    """The laws one path at a time in plain floats: (price, aux, nip, violated, clamped)."""
    if isinstance(params, Benchmark):
        return price + params.theta * trade + params.sigma_eps * z_price, aux, None, False, False
    if isinstance(params, Ar1Extra):
        x = params.rho * aux + params.sigma_eta * z_aux
        p = price + params.theta * trade + params.gamma * x + params.sigma_eps * z_price
        return p, x, None, False, False
    if isinstance(params, LinearPercentage):
        p_tilde = nip * math.exp(params.mu_B + params.sigma_B * z_price)
        x = params.rho * aux + params.sigma_eta * z_aux
        return p_tilde * (1.0 + params.theta * trade + params.gamma * x), x, p_tilde, False, False
    raw = params.rho * aux + params.sigma_eta * z_aux
    volume = 0.0 if raw < 0.0 else raw
    p = (
        price * (params.alpha + 1.0 + params.theta * trade - params.gamma * (volume - trade))
        + params.sigma_eps * z_price
    )
    return p, volume, None, trade > volume, raw < 0.0


_unit = st.floats(0.01, 0.99)
_LAWS = st.one_of(
    st.builds(Benchmark, theta=_unit, sigma_eps=st.floats(0.0, 3.0)),
    st.builds(Ar1Extra, theta=_unit, gamma=st.floats(-1.0, 1.0), rho=st.floats(-0.95, 0.95),
              sigma_eps=_unit, sigma_eta=_unit),
    st.builds(Spread, theta=_unit, gamma=st.floats(-1.0, 1.0), rho=st.floats(-0.95, 0.95),
              sigma_eps=_unit, sigma_eta=_unit),
    st.builds(LinearPercentage, mu_B=st.floats(-0.1, 0.1), sigma_B=st.floats(0.01, 0.5),
              theta=st.floats(1e-4, 0.01), gamma=st.floats(-0.01, 0.01),
              rho=st.floats(-0.95, 0.95), sigma_eta=_unit),
    # volumes near zero, wide volume shocks and large gamma reach the clamp,
    # the violation and the nonpositive-price branches
    st.builds(Liquidity, alpha=st.floats(-0.05, 0.05), theta=st.floats(1e-4, 0.1),
              gamma=st.floats(1e-4, 0.1), rho=st.floats(-0.95, 0.95),
              sigma_eps=_unit, sigma_eta=st.floats(0.5, 30.0)),
)
_PATH = st.tuples(
    st.floats(0.5, 200.0),  # price
    st.floats(0.0, 40.0),  # aux
    st.floats(0.5, 200.0),  # no-impact price
    st.floats(0.0, 60.0),  # trade
    st.floats(-4.0, 4.0),  # price shock
    st.floats(-4.0, 4.0),  # auxiliary shock
)


def _bits(x) -> str:
    return float(x).hex()


class TestBatchedStep:
    @settings(max_examples=150, deadline=None)
    @given(params=_LAWS, paths=st.lists(_PATH, min_size=1, max_size=12))
    def test_batch_matches_the_scalar_laws_bit_for_bit(self, params, paths):
        price, aux, nip, trade, zp, za = (np.array(c) for c in zip(*paths))
        pct = isinstance(params, LinearPercentage)
        batch = MarketBatch(price, aux, nip if pct else None, time_index=3)
        new, events = step(params, batch, trade, np.column_stack([zp, za]))
        clamps = 0
        for i, path in enumerate(paths):
            p, x, n, violated, clamped = _reference_step(params, *path)
            clamps += clamped
            assert bool(events.violated[i]) == violated
            state = MarketState(price=path[0], aux=path[1],
                                no_impact_price=path[2] if pct else None, time_index=3)
            if violated:
                with pytest.raises(LiquidityViolationError):
                    step(params, state, path[3], path[4:])
                continue
            assert bool(events.nonpositive[i]) == (isinstance(params, Liquidity) and p <= 0.0)
            assert (_bits(new.price[i]), _bits(new.aux[i])) == (_bits(p), _bits(x))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                one = step(params, state, path[3], path[4:])
            assert len(caught) == int(bool(events.nonpositive[i]))
            assert (_bits(one.price), _bits(one.aux), one.time_index) == (_bits(p), _bits(x), 4)
            if pct:
                assert _bits(new.no_impact_price[i]) == _bits(n) == _bits(one.no_impact_price)
        assert events.clamps == clamps
        assert new.time_index == 4

    def test_volume_update_counts_clamps_on_arrays(self):
        params = make_liquidity()
        vol, clamps = ar1_volume_update(params, np.array([1.0, 100.0, 2.0]), np.array([-5.0, 0.1, -1.0]))
        assert vol.tolist() == [0.0, pytest.approx(90.5), 0.0]
        assert clamps == 2 and type(clamps) is int

    def test_batch_rejects_negative_trades(self):
        batch = MarketBatch.broadcast(MarketState(price=10.0), 2)
        with pytest.raises(ValueError):
            step(Benchmark(1.0, 1.0), batch, np.array([1.0, -1.0]), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Each law's move against its simulator.  Seeded batches of ``step`` give the
# conditional premium E[dP | dP > 0] at a drawn state and trade; it must lie
# within 4 standard errors of the premium the solvers minimize, unless the
# diagnostics a run reports flag the state: the clamp probability of the
# liquidity volume (the solvers integrate O' unclamped) or the quadrature
# drift of the percentage-law premium at doubled Gauss-Hermite order.
# ---------------------------------------------------------------------------

_MC_DRAWS = 100_000
# a diagnostic above this flags a state whose premium the solvers get wrong
_FLAG = 1e-6
# the pinned percentage law of the simulate tests, whose premium the order-40
# rule under-resolves, and one it resolves
_PCT_COARSE = LinearPercentage(mu_B=0.0, sigma_B=0.02, theta=0.001, gamma=0.002, rho=0.5,
                               sigma_eta=1.0)
_PCT_FINE = LinearPercentage(mu_B=0.0, sigma_B=0.1, theta=0.001, gamma=0.07, rho=0.5,
                             sigma_eta=1.0)
_SPEC_LIQUIDITY = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5,
                            sigma_eta=10.0)
_GAUSSIAN_LAWS = {
    "benchmark": (Benchmark(theta=0.5, sigma_eps=2.0), st.just(0.0)),
    "ar1": (Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0),
            st.floats(-3.0, 3.0)),
    "spread": (Spread(theta=0.4, gamma=0.3, rho=0.6, sigma_eps=1.0, sigma_eta=0.5),
               st.floats(-3.0, 3.0)),
    # the volume clamp fires with probability above 1e-6 below O ~ 95
    "liquidity": (_SPEC_LIQUIDITY, st.floats(0.0, 250.0)),
}
_SEEDS = st.integers(0, 2**32 - 1)


def _simulated_premium(law, state: MarketState, trade: float, seed: int):
    """E[dP | dP > 0] and its standard error from one seeded batch of ``step``."""
    z = np.random.default_rng(seed).standard_normal((_MC_DRAWS, 2))
    batch = MarketBatch.broadcast(state, _MC_DRAWS)
    new, _ = step(law, batch, np.full(_MC_DRAWS, trade), z)
    up = new.price - state.price
    up = up[up > 0.0]
    return float(up.mean()), float(up.std() / math.sqrt(up.size))


def _gaussian_premium(law, price, aux, trade):
    """The solver's premium beta*psi((theta*S + alpha)/beta) and whether the
    volume clamp probability flags the state."""
    theta, alpha, beta = law.move(price, aux)
    flagged = isinstance(law, Liquidity) and law.clamp_probability(aux) > _FLAG
    return float(beta * mills_psi((theta * trade + alpha) / beta)), flagged


def _percentage_premium(law, ratio, aux, trade):
    """The solver's premium P~ * gbm._stage_premium_derivs(...)[0] (P~ = 100) and
    whether its drift under quadrature order doubling flags the state."""
    order = RecursionConfig().quad_order
    prem, doubled = (
        gbm._stage_premium_derivs(law, trade, aux, ratio, q)[0] for q in (order, 2 * order)
    )
    return 100.0 * float(prem), abs(doubled - prem) / prem > _FLAG


class TestMoveMatchesSimulator:
    @pytest.mark.parametrize("name", sorted(_GAUSSIAN_LAWS))
    def test_gaussian_laws(self, name):
        law, aux_range = _GAUSSIAN_LAWS[name]

        @settings(max_examples=20, derandomize=True, deadline=None, database=None)
        @given(price=st.floats(50.0, 150.0), aux=aux_range, u=st.floats(-1.0, 2.5), seed=_SEEDS)
        def check(price, aux, u, seed):
            # the trade that puts the premium's argument at u, or 0
            theta, alpha, beta = law.move(price, aux)
            trade = max((u * beta - alpha) / theta, 0.0)
            solver, flagged = _gaussian_premium(law, price, aux, trade)
            mc, se = _simulated_premium(law, MarketState(price=price, aux=aux), trade, seed)
            assert abs(mc - solver) <= 4.0 * se or flagged, (mc, se, solver)

        check()

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(
        law=st.sampled_from([_PCT_COARSE, _PCT_FINE, replace(_PCT_FINE, gamma=0.0)]),
        ratio=st.floats(0.98, 1.02),
        aux=st.floats(-1.0, 1.0),
        trade=st.floats(0.0, 10.0),
        seed=_SEEDS,
    )
    def test_percentage_law(self, law, ratio, aux, trade, seed):
        solver, flagged = _percentage_premium(law, ratio, aux, trade)
        state = MarketState(price=100.0 * ratio, aux=aux, no_impact_price=100.0)
        mc, se = _simulated_premium(law, state, trade, seed)
        assert abs(mc - solver) <= 4.0 * se or flagged, (mc, se, solver)

    @pytest.mark.filterwarnings("ignore::execsched.dp.ResolutionWarning")
    def test_known_gaps_are_seen_and_flagged_by_the_run(self):
        # the liquidity clamp at O = 10: the solver's 17.92 against about 11.3
        # on simulated paths, flagged by the solve's clamp probability
        state = MarketState(price=100.0, aux=10.0)
        solver, flagged = _gaussian_premium(_SPEC_LIQUIDITY, 100.0, 10.0, 2.0)
        mc, se = _simulated_premium(_SPEC_LIQUIDITY, state, 2.0, 1)
        assert solver == pytest.approx(17.92, abs=0.01)
        assert flagged and mc < solver - 100.0 * se
        _, table = solve_liquidity(
            _SPEC_LIQUIDITY, Horizon(2, 4.0), state, RecursionConfig(grid_nodes=8)
        )
        assert table.metadata["volume_clamp_probability"][0] > _FLAG
        # the order-40 premium of the simulate tests' percentage law at S = 3,
        # flagged by the solve's quadrature drift
        state = MarketState(price=100.0, aux=0.1, no_impact_price=100.0)
        solver, flagged = _percentage_premium(_PCT_COARSE, 1.0, 0.1, 3.0)
        mc, se = _simulated_premium(_PCT_COARSE, state, 3.0, 1)
        assert solver == pytest.approx(1.831, abs=1e-3)
        assert flagged and mc < solver - 10.0 * se
        _, table = solve_gbm_simple(_PCT_COARSE, Horizon(4, 10.0), state)
        assert table.metadata["diagnostics"][0]["quadrature_drift"] > _FLAG
