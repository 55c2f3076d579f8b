"""Tests for the schedule solvers and the grid recursion.

Expected values marked "frozen" were produced before assertions were written:
closed Mills forms evaluated by hand against the kernel oracles, 1e5-point
grid brute forces of the two-stage objectives, and a seeded 1e6-path
rejection Monte Carlo for the policy-evaluation check.
"""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from execsched import cli, dp
from execsched.dp import (
    ClosedLinearPolicy,
    ConfigError,
    ConvexityWarning,
    Horizon,
    MillsRecursionProblem,
    NumericalPolicy,
    PolicyTable,
    RecursionConfig,
    Schedule,
    SolverError,
    approximate_recursion,
    solve_ar1_complex,
    solve_ar1_simple,
    solve_benchmark_complex,
    solve_benchmark_simple,
)
from execsched.gbm import solve_gbm_simple
from execsched.kernels import mills_psi
from execsched.liquidity import solve_liquidity
from execsched.models import Ar1Extra, Benchmark, Liquidity, MarketState, Spread, convexity_check
from support import bench_solve_config, cap_resolves, central_differences


class TestHorizon:
    def test_accepts_basic(self):
        h = Horizon(3, 90.0)
        assert h.T == 3
        assert h.total_shares == 90.0

    @pytest.mark.parametrize("T", [0, -1, 2.0, True])
    def test_rejects_bad_stage_count(self, T):
        with pytest.raises(ValueError):
            Horizon(T, 10.0)

    @pytest.mark.parametrize("total", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_bad_total(self, total):
        with pytest.raises(ValueError):
            Horizon(2, total)


class TestSchedule:
    def test_from_trades_builds_residual_ladder(self):
        s = Schedule.from_trades([4.0, 3.0, 3.0], 10.0)
        assert s.trades == (4.0, 3.0, 3.0)
        assert s.residuals == (10.0, 6.0, 3.0, 0.0)

    def test_from_trades_absorbs_rounding_residue(self):
        third = 10.0 / 3.0
        s = Schedule.from_trades([third, third, third], 10.0)
        assert math.fsum(s.trades) == pytest.approx(10.0, abs=1e-12)
        assert s.residuals[-1] == 0.0

    def test_rejects_trades_that_do_not_sum(self):
        with pytest.raises(ValueError):
            Schedule(trades=(4.0, 4.0), residuals=(10.0, 6.0, 2.0))

    def test_rejects_negative_trade(self):
        with pytest.raises(ValueError):
            Schedule.from_trades([12.0, -2.0], 10.0)

    def test_total_shares_property(self):
        s = Schedule.from_trades([1.0, 1.0], 2.0)
        assert s.total_shares == 2.0


class TestPolicies:
    def test_closed_linear_fraction(self):
        p = ClosedLinearPolicy(0.25)
        assert p.trade(8.0) == 2.0
        assert p.trade(-1.0) == 0.0

    def test_closed_linear_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ClosedLinearPolicy(1.5)

    def test_numerical_policy_interpolates_and_clips(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        pol = NumericalPolicy(grid=grid, trades=np.array([0.5, 1.0, 2.0, 4.0]))
        assert pol.trade(2.0) == pytest.approx(1.0)
        assert pol.trade(3.0) == pytest.approx(1.5, rel=1e-6)
        # below the grid the rule is linear through the origin
        assert pol.trade(0.5) == pytest.approx(0.25)
        assert pol.trade(0.0) == 0.0
        # above the grid the trade is held at the top sample, capped by w
        assert pol.trade(100.0) == pytest.approx(4.0)

    def test_numerical_policy_never_exceeds_residual(self):
        grid = np.array([1.0, 2.0])
        pol = NumericalPolicy(grid=grid, trades=np.array([1.0, 2.0]))
        w = 1.5
        assert pol.trade(w) <= w

    def test_numerical_policy_rejects_trade_above_grid(self):
        with pytest.raises(ValueError):
            NumericalPolicy(grid=np.array([1.0, 2.0]), trades=np.array([0.5, 2.5]))

    @pytest.mark.parametrize(
        "grid, trades",
        [
            ([1.0, 2.0, 4.0], [0.5, math.nan, 1.0]),
            ([1.0, 2.0, 4.0], [math.nan, 1.0, 2.0]),
            ([1.0, 2.0, math.inf], [0.5, 1.0, 2.0]),
        ],
    )
    def test_numerical_policy_rejects_non_finite_nodes(self, grid, trades):
        # NaN fails every comparison of the [0, W] check, so it needs its own
        with pytest.raises(ValueError, match="finite at every node"):
            NumericalPolicy(grid=np.array(grid), trades=np.array(trades))

    def test_policy_table_requires_metadata_keys(self):
        grid = np.array([1.0, 2.0])
        samples = (np.column_stack([grid, [1.0, 2.0]]),)
        with pytest.raises(ValueError):
            PolicyTable(
                stages=(ClosedLinearPolicy(1.0),),
                value_samples=samples,
                metadata={"model": "benchmark"},
            )

    def test_policy_table_trade_at_clips(self):
        grid = np.array([1.0, 2.0])
        table = PolicyTable(
            stages=(ClosedLinearPolicy(1.0),),
            value_samples=(np.column_stack([grid, [1.0, 2.0]]),),
            metadata={"model": "benchmark", "formulation": "simple"},
        )
        assert table.trade_at(1, -3.0) == 0.0
        assert table.horizon_length == 1


class TestRecursionConfig:
    def test_grid_too_small_for_horizon(self):
        with pytest.raises(ConfigError):
            RecursionConfig(grid_nodes=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"quad_order": 0}, id="kwargs4"),
            pytest.param({"quad_order": 1000}, id="kwargs5"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            RecursionConfig(**kwargs)


class TestBenchmarkSimple:
    def test_two_stage_split(self):
        sched, _ = solve_benchmark_simple(Benchmark(theta=7.0, sigma_eps=7.0), Horizon(2, 100.0))
        assert sched.trades == (50.0, 50.0)

    def test_four_stage_split(self):
        sched, _ = solve_benchmark_simple(Benchmark(theta=0.2, sigma_eps=0.1), Horizon(4, 100.0))
        assert sched.trades == (25.0, 25.0, 25.0, 25.0)

    def test_single_stage_value(self):
        # frozen: 7*psi(7) = 49 + 7*phi(7)/Phi(7) = 49.00000000006394
        _, table = solve_benchmark_simple(Benchmark(theta=1.0, sigma_eps=1.0), Horizon(1, 7.0))
        assert table.value_samples[0][-1, 1] == pytest.approx(49.00000000006394, rel=1e-13)
        assert table.stages[0].trade(7.0) == 7.0

    def test_value_matches_closed_form_at_every_stage(self):
        theta, sigma, total, T = 2.0, 2.0, 10.0, 5
        _, table = solve_benchmark_simple(Benchmark(theta=theta, sigma_eps=sigma), Horizon(T, total))
        for t in range(1, T + 1):
            n = T - t + 1
            grid, values = table.value_samples[t - 1].T
            expect = grid * sigma * mills_psi(theta * grid / (n * sigma))
            np.testing.assert_allclose(values, expect, rtol=1e-13)

    def test_policy_fractions_follow_equal_split(self):
        _, table = solve_benchmark_simple(Benchmark(theta=1.0, sigma_eps=1.0), Horizon(4, 8.0))
        w = 6.0
        for t, n in [(1, 4), (2, 3), (3, 2), (4, 1)]:
            assert table.trade_at(t, w) == pytest.approx(w / n, rel=1e-15)

    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    @given(
        theta=st.floats(0.1, 50.0),
        sigma=st.floats(0.1, 50.0),
        total=st.floats(0.5, 1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_doubling_doubles_value(self, theta, sigma, total):
        # (theta, sigma) -> (2*theta, 2*sigma) leaves psi's argument alone and
        # doubles the premium scale, so every value sample doubles exactly.
        h = Horizon(3, total)
        _, t1 = solve_benchmark_simple(Benchmark(theta=theta, sigma_eps=sigma), h)
        _, t2 = solve_benchmark_simple(Benchmark(theta=2 * theta, sigma_eps=2 * sigma), h)
        for a, b in zip(t1.value_samples, t2.value_samples):
            np.testing.assert_allclose(2.0 * a[:, 1], b[:, 1], rtol=1e-12)

    def test_metadata(self):
        _, table = solve_benchmark_simple(Benchmark(theta=1.0, sigma_eps=1.0), Horizon(2, 1.0))
        assert table.metadata["model"] == "benchmark"
        assert table.metadata["formulation"] == "simple"


class TestAr1Simple:
    params = Ar1Extra(theta=1.0, sigma_eps=1.0, gamma=0.5, rho=0.9, sigma_eta=1.0)

    def test_equal_split_regardless_of_x0(self):
        for x0 in (-2.0, 0.0, 5.0):
            sched, _ = solve_ar1_simple(self.params, Horizon(3, 90.0), x0=x0)
            assert sched.trades == (30.0, 30.0, 30.0)

    def test_first_stage_value_frozen(self):
        # frozen: W*beta*psi((theta*W + n*alpha)/(n*beta)) at W=1, n=2,
        # alpha = gamma*rho*x0 = 0.45, beta = sqrt(1.25)
        _, table = solve_ar1_simple(self.params, Horizon(2, 1.0), x0=1.0)
        assert table.value_samples[0][-1, 1] == pytest.approx(1.3375002329805414, rel=1e-12)

    def test_first_stage_value_vs_policy_evaluation_mc(self):
        # frozen rejection MC (seed 425, 1e6 paths/stage) of the (1/2, 1/2)
        # schedule with the auxiliary state held at x0 for both stages:
        # 1.3372811010551942 +/- 0.0006748509283721568
        _, table = solve_ar1_simple(self.params, Horizon(2, 1.0), x0=1.0)
        v = table.value_samples[0][-1, 1]
        assert abs(v - 1.3372811010551942) <= 3.0 * 0.0006748509283721568

    def test_later_stage_uses_propagated_state(self):
        x0, T = 1.0, 3
        _, table = solve_ar1_simple(self.params, Horizon(T, 1.0), x0=x0)
        beta = math.hypot(0.5, 1.0)
        for t in range(1, T + 1):
            alpha_t = 0.5 * 0.9**t * x0
            n = T - t + 1
            grid, values = table.value_samples[t - 1].T
            expect = grid * beta * mills_psi((grid + n * alpha_t) / (n * beta))
            np.testing.assert_allclose(values, expect, rtol=1e-12)

    def test_gamma_zero_collapses_to_benchmark(self):
        a = Ar1Extra(theta=1.3, sigma_eps=0.7, gamma=0.0, rho=0.5, sigma_eta=9.0)
        b = Benchmark(theta=1.3, sigma_eps=0.7)
        sa, ta = solve_ar1_simple(a, Horizon(3, 5.0), x0=4.0)
        sb, tb = solve_benchmark_simple(b, Horizon(3, 5.0))
        assert sa.trades == sb.trades
        for va, vb in zip(ta.value_samples, tb.value_samples):
            np.testing.assert_allclose(va, vb, rtol=1e-15)

    def test_spread_params_share_the_law(self):
        q = Spread(theta=1.0, sigma_eps=1.0, gamma=0.5, rho=0.9, sigma_eta=1.0)
        ss, ts = solve_ar1_simple(q, Horizon(2, 1.0), x0=1.0)
        sa, ta = solve_ar1_simple(self.params, Horizon(2, 1.0), x0=1.0)
        assert ss.trades == sa.trades
        np.testing.assert_allclose(ts.value_samples[0], ta.value_samples[0], rtol=1e-15)
        assert ts.metadata["model"] == "spread"
        assert ta.metadata["model"] == "ar1"


class TestBenchmarkComplex:
    def test_single_stage_forced(self):
        sched, table = solve_benchmark_complex(Benchmark(theta=2.0, sigma_eps=1.0), Horizon(1, 3.0))
        assert sched.trades == (3.0,)
        assert table.stages[0].trade(3.0) == 3.0

    def test_two_stage_matches_grid_brute_force(self):
        # frozen 1e5-point brute force of psi(5s) + (1-s)*psi(5(1-s)):
        # argmin = 0.50987
        sched, table = solve_benchmark_complex(Benchmark(theta=5.0, sigma_eps=1.0), Horizon(2, 1.0))
        assert sched.trades[0] == pytest.approx(0.50987, abs=1e-4)
        assert table.value_samples[0][-1, 1] == pytest.approx(3.7758231351718425, rel=1e-10)

    def test_two_stage_foc_residual(self):
        theta, sigma = 5.0, 1.0
        sched, _ = solve_benchmark_complex(Benchmark(theta=theta, sigma_eps=sigma), Horizon(2, 1.0))
        s = sched.trades[0]
        from execsched.dp import _MillsStage, _TerminalMills

        fam = _MillsStage(theta, 0.0, sigma, True)
        term = _TerminalMills(theta, 0.0, sigma)
        residual = fam.ds_dss(s, 1.0)[0] - term.d_dd(1.0 - s)[0]
        scale = abs(fam.ds_dss(0.0, 1.0)[0]) + abs(term.d_dd(1.0)[0])
        assert abs(residual) <= 1e-8 * scale

    def test_unit_theta_sits_on_the_boundary(self):
        # At theta = sigma = 1 the objective decreases all the way to s = 1;
        # the whole order goes in the first interval and the equal-split rule
        # does not carry over from the simple formulation.
        sched, table = solve_benchmark_complex(Benchmark(theta=1.0, sigma_eps=1.0), Horizon(2, 1.0))
        assert sched.trades[0] == pytest.approx(1.0, abs=1e-9)
        assert sched.trades[0] != pytest.approx(0.5, abs=1e-3)
        # frozen: value collapses to the stage premium psi(1)
        assert table.value_samples[0][-1, 1] == pytest.approx(1.2875999709391784, rel=1e-12)

    def test_warns_below_convexity_threshold(self):
        with pytest.warns(ConvexityWarning):
            _, table = solve_benchmark_complex(Benchmark(theta=0.3, sigma_eps=1.0), Horizon(2, 1.0))
        assert table.metadata["convexity_ok"] is False

    def test_no_warning_above_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, table = solve_benchmark_complex(Benchmark(theta=2.0, sigma_eps=1.0), Horizon(2, 1.0))
        assert table.metadata["convexity_ok"] is True

    def test_warning_points_at_the_caller(self):
        with pytest.warns(ConvexityWarning) as record:
            solve_benchmark_complex(Benchmark(theta=0.3, sigma_eps=1.0), Horizon(2, 1.0))
        assert record[0].filename == __file__

    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    @given(
        sigma=st.floats(0.05, 20.0),
        ratio=st.one_of(st.just(0.75), st.floats(0.05, 3.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_convexity_flag_is_the_models_certificate(self, sigma, ratio):
        # ratio 0.75 puts theta exactly on the threshold, which is not convex
        params = Benchmark(theta=ratio * sigma, sigma_eps=sigma)
        _, table = solve_benchmark_complex(params, Horizon(2, 1.0), RecursionConfig(grid_nodes=8))
        assert table.metadata["convexity_ok"] is convexity_check(params)
        # each stage's diagnostics carry the same certificate
        assert [d["convex"] for d in table.metadata["diagnostics"]] == [convexity_check(params)]

    def test_nonconvex_forward_matches_brute_force(self):
        theta, sigma = 0.3, 1.0
        with pytest.warns(ConvexityWarning):
            sched, _ = solve_benchmark_complex(Benchmark(theta=theta, sigma_eps=sigma), Horizon(2, 1.0))
        grid = np.linspace(0.0, 1.0, 100_001)
        j = mills_psi(theta * grid / sigma) + (1.0 - grid) * mills_psi(theta * (1.0 - grid) / sigma)
        assert sched.trades[0] == pytest.approx(grid[np.argmin(j)], abs=1e-4)

    def test_three_stage_schedule_sums_and_orders(self):
        sched, table = solve_benchmark_complex(Benchmark(theta=5.0, sigma_eps=1.0), Horizon(3, 1.0))
        assert math.fsum(sched.trades) == pytest.approx(1.0, abs=1e-12)
        assert all(s >= 0.0 for s in sched.trades)
        assert table.metadata["formulation"] == "complex"


class TestAr1Complex:
    params = Ar1Extra(theta=1.0, sigma_eps=1.0, gamma=0.5, rho=0.9, sigma_eta=1.0)

    def test_single_stage_forced(self):
        sched, _ = solve_ar1_complex(self.params, Horizon(1, 2.0), x0=0.3)
        assert sched.trades == (2.0,)

    def test_two_stage_matches_grid_brute_force(self):
        # frozen 1e5-point brute force of the two-stage objective with the
        # auxiliary premium alpha = gamma*rho*x0 = 0.225 held over the
        # horizon: the objective decreases through s = 1 (boundary argmin),
        # J* = 1.5084478974265696
        sched, table = solve_ar1_complex(self.params, Horizon(2, 1.0), x0=0.5)
        assert sched.trades[0] == pytest.approx(1.0, abs=1e-4)
        assert table.value_samples[0][-1, 1] == pytest.approx(1.5084478974265696, rel=1e-10)

    def test_two_stage_interior_matches_grid_brute_force(self):
        # steeper impact makes deferral worthwhile and pulls the optimum
        # inside; frozen 1e5-point brute force with alpha = 0.225 held over
        # the horizon gives argmin 0.52929
        a = Ar1Extra(theta=5.0, sigma_eps=1.0, gamma=0.5, rho=0.9, sigma_eta=1.0)
        x0 = 0.5
        alpha = a.gamma * a.rho * x0
        beta = math.hypot(a.gamma * a.sigma_eta, a.sigma_eps)
        grid = np.linspace(0.0, 1.0, 100_001)
        j = beta * mills_psi((5.0 * grid + alpha) / beta) + (1.0 - grid) * beta * mills_psi(
            (5.0 * (1.0 - grid) + alpha) / beta
        )
        sched, _ = solve_ar1_complex(a, Horizon(2, 1.0), x0=x0)
        assert 0.0 < sched.trades[0] < 1.0
        assert sched.trades[0] == pytest.approx(grid[np.argmin(j)], abs=1e-4)

    def test_gamma_zero_matches_benchmark_complex(self):
        # gamma = 0 gives beta = sigma_eps and zero shifts: the benchmark solve, bit for bit
        a = Ar1Extra(theta=5.0, sigma_eps=1.0, gamma=0.0, rho=0.5, sigma_eta=2.0)
        for T, x0 in itertools.product((2, 5), (3.0, -1.5)):
            sa, ta = solve_ar1_complex(a, Horizon(T, 1.0), x0=x0)
            sb, tb = solve_benchmark_complex(Benchmark(theta=5.0, sigma_eps=1.0), Horizon(T, 1.0))
            assert sa == sb
            for pa, pb in zip(ta.stages, tb.stages, strict=True):
                if isinstance(pb, NumericalPolicy):
                    assert np.array_equal(pa.grid, pb.grid)
                    assert np.array_equal(pa.trades, pb.trades)
                else:
                    assert pa == pb
            for va, vb in zip(ta.value_samples, tb.value_samples, strict=True):
                assert np.array_equal(va, vb)

    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    @given(
        theta=st.floats(0.05, 5.0),
        gamma=st.floats(0.0, 2.0),
        sigma_eps=st.floats(0.05, 3.0),
        sigma_eta=st.floats(0.05, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_convexity_flag_uses_the_composite_scale(self, theta, gamma, sigma_eps, sigma_eta):
        a = Ar1Extra(theta=theta, gamma=gamma, rho=0.5, sigma_eps=sigma_eps, sigma_eta=sigma_eta)
        _, table = solve_ar1_complex(a, Horizon(2, 1.0), 0.4, RecursionConfig(grid_nodes=8))
        expected = theta > 0.75 * math.hypot(gamma * sigma_eta, sigma_eps)
        assert table.metadata["convexity_ok"] is expected

    def test_schedule_is_deterministic(self):
        s1, _ = solve_ar1_complex(self.params, Horizon(3, 2.0), x0=0.5)
        s2, _ = solve_ar1_complex(self.params, Horizon(3, 2.0), x0=0.5)
        assert s1.trades == s2.trades


class TestTerminalMills:
    # V_T(r) = r*beta*psi((theta*r + alpha)/beta), the forced last stage's
    # trade-weighted cost, with one alpha or one per column
    @given(
        theta=st.floats(0.1, 5.0),
        beta=st.floats(0.3, 3.0),
        alpha=st.one_of(
            st.floats(-2.0, 2.0),
            st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(np.array),
        ),
        r=st.floats(0.05, 10.0),
        pick=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_value_derivatives_and_origin_slope(self, theta, beta, alpha, r, pick):
        from execsched.dp import _TerminalMills

        term = _TerminalMills(theta, alpha, beta)
        rs = np.linspace(0.0, r, 9)
        if np.ndim(alpha):
            cols = np.arange(rs.size) % alpha.size
            col, a = pick % alpha.size, alpha[pick % alpha.size]
            expected = rs * beta * mills_psi((theta * rs + alpha[cols]) / beta)
        else:
            cols = col = None
            a = alpha
            expected = rs * beta * mills_psi((theta * rs + alpha) / beta)
        assert np.array_equal(_bits(term.value(rs, cols)), _bits(expected))
        assert term.value(0.0, col) == 0.0
        assert np.array_equal(_bits(term.slope_at_origin), _bits(beta * mills_psi(alpha / beta)))

        def f(x):
            return float(term.value(x, col))

        # psi's scale in r is beta/theta; one value of f rounds its argument
        # on the scale theta*r + |alpha| and psi = u + G differences two
        # magnitudes near |u| in the left tail
        h = 1e-3 * beta / theta
        hi = r + 20.0 * h
        psi_hi = mills_psi((theta * hi + a) / beta)
        noise = 8.0 * np.finfo(float).eps * hi * (theta * hi + abs(a) + beta * (psi_hi + 1.0))
        d1, tol1, d2, tol2 = central_differences(f, r, h, 10.0 * h, noise)
        got1, got2 = term.d_dd(r, col)
        assert abs(got1 - d1) <= tol1
        assert abs(got2 - d2) <= tol2


class TestApproximateRecursion:
    def test_tracks_linear_law_across_horizon(self):
        # trade-weighted uniform stages admit the exact equal-split optimum
        # S_t = W/(T-t+1); the grid recursion must reproduce it at every
        # published node to well under 1e-6 relative.
        T = 10
        prob = MillsRecursionProblem.uniform(Horizon(T, 10.0), 2.0, 1.0)
        table = approximate_recursion(prob)
        worst = 0.0
        for t in range(1, T):
            grid = table.value_samples[t - 1][:, 0]
            lin = grid / (T - t + 1)
            pol = np.array([table.trade_at(t, w) for w in grid])
            worst = max(worst, float(np.max(np.abs(pol - lin) / lin)))
        assert worst < 1e-6

    def test_terminal_stage_trades_everything(self):
        prob = MillsRecursionProblem.uniform(Horizon(3, 4.0), 1.0, 1.0)
        table = approximate_recursion(prob)
        assert table.trade_at(3, 2.5) == 2.5

    def test_values_decrease_with_more_stages_remaining(self):
        # more stages to work with can only cheapen the program
        prob = MillsRecursionProblem.uniform(Horizon(4, 6.0), 1.5, 1.0)
        table = approximate_recursion(prob)
        stacked = np.stack([s[:, 1] for s in table.value_samples])
        assert np.all(np.diff(stacked, axis=0) >= -1e-9 * stacked[1:])

    def test_trade_caps_bind(self):
        h = Horizon(3, 9.0)
        prob = MillsRecursionProblem.uniform(h, 2.0, 1.0, trade_caps=(2.0, 4.0, 9.0))
        table = approximate_recursion(prob)
        grid = table.value_samples[0][:, 0]
        for t, cap in [(1, 2.0), (2, 4.0)]:
            pol = np.array([table.trade_at(t, w) for w in grid])
            assert np.all(pol <= cap + 1e-12)
        # the cap actually binds at the top of the grid
        assert table.trade_at(1, 9.0) == pytest.approx(2.0, rel=1e-9)

    def test_value_samples_are_nonnegative_and_increasing(self):
        prob = MillsRecursionProblem.uniform(Horizon(3, 5.0), 1.0, 2.0)
        table = approximate_recursion(prob)
        for samp in table.value_samples:
            assert np.all(samp[:, 1] >= 0.0)
            assert np.all(np.diff(samp[:, 1]) > 0.0)

    def test_per_stage_parameters_are_honored(self):
        # stage 1 sees its own (theta, alpha, beta) triple; a problem with a
        # huge first-stage premium should defer almost everything
        h = Horizon(2, 1.0)
        cheap_first = MillsRecursionProblem(
            horizon=h, thetas=(0.1, 5.0), alphas=(0.0, 0.0), betas=(1.0, 1.0)
        )
        dear_first = MillsRecursionProblem(
            horizon=h, thetas=(5.0, 0.1), alphas=(0.0, 0.0), betas=(1.0, 1.0)
        )
        t_cheap = approximate_recursion(cheap_first)
        t_dear = approximate_recursion(dear_first)
        assert t_cheap.trade_at(1, 1.0) > t_dear.trade_at(1, 1.0)

    def test_grid_nodes_config_is_respected(self):
        prob = MillsRecursionProblem.uniform(Horizon(2, 1.0), 2.0, 1.0)
        table = approximate_recursion(prob, RecursionConfig(grid_nodes=16))
        assert table.value_samples[0].shape == (16, 2)


# ---------------------------------------------------------------------------
# Stage-solve machinery: Hermite evaluator, early-stopping Newton, batched
# AR(1) recursion, diagnostics.
# ---------------------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def _hermite_case(draw):
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    vals = st.floats(-50.0, 50.0)
    y = np.array(draw(st.lists(vals, min_size=n * k, max_size=n * k))).reshape(n, k)
    dydx = np.array(draw(st.lists(vals, min_size=n * k, max_size=n * k))).reshape(n, k)
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    r = np.concatenate([[0.0, x[-1]], x, x[-1] * np.array(inner)])
    return x, y, dydx, r


class TestHermiteEvaluator:
    @given(_hermite_case())
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_and_its_derivatives_bit_for_bit(self, case):
        from scipy.interpolate import CubicHermiteSpline

        from execsched.dp import _SplineCont

        x, y, dydx, r = case
        cont = _SplineCont.from_slopes(x, y, dydx)
        assert np.array_equal(_bits(cont.slope_at_origin), _bits(dydx[0]))
        for j in range(y.shape[1]):
            h = CubicHermiteSpline(x, y[:, j], dydx[:, j])
            hd = h.derivative()
            hdd = hd.derivative()
            col = np.full(r.shape, j)
            d, dd = cont.d_dd(r, col)
            assert np.array_equal(_bits(cont.value(r, col)), _bits(h(r)))
            assert np.array_equal(_bits(d), _bits(hd(r)))
            assert np.array_equal(_bits(dd), _bits(hdd(r)))
            # a scalar point and a scalar column, as the schedule re-solve uses
            assert _bits(cont.d_dd(np.float64(x[-1]), j)[0]) == _bits(hd(x[-1]))

    def test_negative_zero_knot_value_matches_scipy(self):
        from scipy.interpolate import CubicHermiteSpline

        from execsched.dp import _SplineCont

        # on [1, 2.5] every coefficient is negative, so each term at s = 0 is -0.0
        x = np.array([0.0, 1.0, 2.5])
        y = np.array([0.0, -0.0, -4.0])
        dydx = np.array([0.0, -0.0, -6.0])
        cont = _SplineCont.from_slopes(x, y, dydx)
        h = CubicHermiteSpline(x, y, dydx)
        r = np.array([1.0])
        col = np.zeros(1, dtype=int)
        assert _bits(cont.value(r, col)) == _bits(h(r))
        d, dd = cont.d_dd(r, col)
        assert _bits(d) == _bits(h.derivative()(r))
        assert _bits(dd) == _bits(h.derivative(2)(r))

    def test_each_point_reads_its_own_column(self):
        from execsched.dp import _SplineCont

        x = np.array([0.0, 1.0, 2.0])
        y = np.array([[0.0, 0.0], [1.0, 10.0], [4.0, 40.0]])
        cont = _SplineCont.from_slopes(x, y, 2.0 * x[:, None] * np.array([1.0, 10.0]))
        got = cont.value(np.array([1.5, 1.5, 2.0]), np.array([0, 1, 1]))
        np.testing.assert_allclose(got, [2.25, 22.5, 40.0], rtol=1e-15)


# Node values from a small integer set give flat segments and sign changes.
_PCHIP_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-50.0, 50.0))


@st.composite
def _pchip_case(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    y = np.array(draw(st.lists(_PCHIP_VALUES, min_size=n * k, max_size=n * k))).reshape(n, k)
    if draw(st.booleans()):
        y = np.cumsum(np.abs(y), axis=0)  # monotone data
    if k == 1 and draw(st.booleans()):
        y = y[:, 0]
    frac = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=12)))
    return x, y, np.concatenate([x, x[0] + (x[-1] - x[0]) * frac])


@st.composite
def _policy_case(draw):
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
    grid = draw(st.floats(1e-3, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    fracs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    trades = grid * np.array(draw(st.lists(fracs, min_size=n, max_size=n)))
    scale = np.array(draw(st.lists(st.floats(-0.2, 1.5), min_size=1, max_size=12)))
    return grid, trades, np.concatenate([grid, [0.0, -1.0], grid[-1] * scale])


def _scipy_pchip(x, y, **kwargs):
    """scipy's PchipInterpolator, the oracle of the tests below.

    Its slope formula divides by zero and overflows on flat or steep data
    and then handles the result; those warnings are its own, so building it
    silences them, and nothing else.
    """
    from scipy.interpolate import PchipInterpolator

    with np.errstate(divide="ignore", over="ignore"):
        return PchipInterpolator(x, y, **kwargs)


class TestPchip:
    @given(_pchip_case())
    @example((np.array([0.0, 1.5]), np.array([1.0, -2.0]), np.array([-1.0, 0.5, 1.5, 4.0])))
    @example(
        (
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            np.array([[0.0, 1.0], [0.0, -1.0], [2.0, 1.0], [2.0, -1.0], [1.0, 1.0]]),
            np.array([-1.0, 0.5, 1.5, 2.5, 3.5, 5.0]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_pchip_bit_for_bit(self, case):
        from execsched.dp import _pchip

        x, y, r = case
        cont = _pchip(x, y)
        k = cont.c.shape[2]
        for extrapolate in (True, False):
            ref = _scipy_pchip(x, y, extrapolate=extrapolate)
            assert np.array_equal(_bits(cont.c), _bits(ref.c.reshape(cont.c.shape)))
        got = np.column_stack([cont.value(r, j) for j in range(k)])
        want = _scipy_pchip(x, y, extrapolate=True)(r).reshape(r.size, k)
        assert np.array_equal(_bits(got), _bits(want))

    @given(_policy_case())
    @settings(max_examples=200, deadline=None)
    def test_policy_trade_matches_a_scipy_built_policy(self, case):
        grid, trades, w = case
        inner = np.clip(_scipy_pchip(grid, trades)(np.minimum(w, grid[-1])), 0.0, w)
        below = float(trades[0] / grid[0]) * w
        want = np.where(w <= 0.0, 0.0, np.where(w < grid[0], below, inner))
        pol = NumericalPolicy(grid=grid, trades=trades)
        assert np.array_equal(_bits(pol.trade(w)), _bits(want))
        assert np.array_equal(_bits([pol.trade(float(v)) for v in w]), _bits(want))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        from execsched.dp import _pchip

        y = np.array([[0.0, 1.0], [1.0, bad], [2.0, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            _pchip(np.array([0.0, 1.0, 2.0]), y)


def _reference_newton(f_and_fp, lo, hi, iters):
    """The fixed-length loop the early-stopping Newton replaced, with its exit
    rule: a defined step that does not move the iterate keeps it.  Returns the
    result and, per element, the first iteration that left its iterate
    unchanged (``iters`` where none did)."""
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    f_lo, _ = f_and_fp(a)
    f_hi, _ = f_and_fp(b)
    at_lo = f_lo >= 0.0
    at_hi = f_hi <= 0.0
    x = 0.5 * (a + b)
    still = np.full(x.shape, iters)
    for k in range(1, iters + 1):
        f, fp = f_and_fp(x)
        a = np.where(f < 0.0, x, a)
        b = np.where(f >= 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp > 0.0, -f / np.where(fp > 0.0, fp, 1.0), 0.0)
        xn = x + step
        bad = (xn <= a) | (xn >= b) | ~np.isfinite(xn)
        bad &= (xn != x) | (fp <= 0.0)
        xn = np.where(bad, 0.5 * (a + b), xn)
        still = np.where((xn == x) & (still == iters), k, still)
        x = xn
    x = np.where(at_lo, lo, x)
    return np.where(at_hi & ~at_lo, hi, x), still


class TestEarlyStoppingNewton:
    @given(
        st.floats(0.8, 6.0),
        st.floats(0.3, 3.0),
        st.floats(-1.0, 1.0),
        st.floats(0.5, 200.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_fixed_length_loop_within_the_stopping_tolerance(
        self, theta, sigma, alpha, total
    ):
        from execsched.dp import _NEWTON_RTOL, _MillsStage, _TerminalMills, _vec_newton

        fam = _MillsStage(theta, alpha, sigma, True)
        term = _TerminalMills(theta, alpha, sigma)
        w = np.geomspace(total * 1e-4, total, 300)

        def f_and_fp(s, idx=slice(None)):
            ds, dss = fam.ds_dss(s, w[idx])
            d, dd = term.d_dd(w[idx] - s)
            return ds - d, dss + dd

        ref, ref_iters = _reference_newton(f_and_fp, np.zeros_like(w), w, 100)
        got, report = _vec_newton(f_and_fp, np.zeros_like(w), w)
        # the bracket of element e is [0, w[e]]
        assert np.all(np.abs(got - ref) <= _NEWTON_RTOL * w)
        free = ~report.pinned
        assert np.all(report.iterations[free] <= ref_iters[free])
        assert np.all(report.iterations[~free] == 0)
        assert report.settled.all()

    def test_cap_limits_iterations_and_reports_the_residual(self, monkeypatch):
        from execsched.dp import _vec_newton

        # f' = 0 everywhere: every step is a bisection, which needs far more
        # than 5 halvings to settle
        def f_and_fp(x, idx):
            return x - 0.3, np.zeros_like(x)

        monkeypatch.setattr(dp, "_NEWTON_ITERS", 5)
        x, report = _vec_newton(f_and_fp, np.zeros(2), np.ones(2))
        ref, _ = _reference_newton(lambda x: f_and_fp(x, None), np.zeros(2), np.ones(2), 5)
        assert np.array_equal(_bits(x), _bits(ref))
        assert report.iterations.tolist() == [5, 5]
        assert report.settled.tolist() == [False, False]
        np.testing.assert_array_equal(report.foc, x - 0.3)

    def test_settling_on_the_last_allowed_iteration_counts_as_settled(self, monkeypatch):
        from execsched.dp import _resolve_stage, _vec_newton

        def objective(s, idx):
            return (s - 0.3) ** 2

        # with the exact slope 2 Newton lands on the root and the next
        # iteration leaves it unchanged; with 2.02 it closes in by 1e-2 a
        # step, and a step under 2**-40 of the bracket is its last, taken on
        # the cap when the cap falls there
        for slope in (2.0, 2.02):

            def derivs(s, idx):
                return 2.0 * (s - 0.3), np.full_like(s, slope)

            x, report = _vec_newton(derivs, np.zeros(1), np.ones(1))
            k = int(report.iterations[0])
            assert k > 1 and report.settled[0]
            need = k if slope == 2.0 else k - 1
            with monkeypatch.context() as patch:
                patch.setattr(dp, "_NEWTON_ITERS", need)
                at_cap, capped = _vec_newton(derivs, np.zeros(1), np.ones(1))
                assert capped.iterations[0] == need and capped.settled[0]
                assert np.array_equal(_bits(at_cap), _bits(x)) and capped.foc[0] == report.foc[0]
                # 2 scan points leave Newton the whole of [0, 1]
                s, v, iters = _resolve_stage(objective, derivs, 1.0, 2)
                assert (iters, v) == (need, objective(s, None))
                patch.setattr(dp, "_NEWTON_ITERS", need - 1)
                assert not _vec_newton(derivs, np.zeros(1), np.ones(1))[1].settled[0]
                with pytest.raises(SolverError) as err:
                    _resolve_stage(objective, derivs, 1.0, 2)
                assert err.value.bracket == (0.0, 1.0)


class TestNewtonCarry:
    # f = x - c[e], increasing; element kinds by where c sits in [0, 1], and
    # f' = 0 (bisection only) for the elements meant to hit the cap
    C = np.array([-0.5, 1.5, 0.3, 0.7, 0.3, 0.6])
    KINDS = ["pinned_low", "pinned_high", "settled", "settled", "capped", "capped"]

    def f_and_fp(self, x, idx):
        capped = np.array([self.KINDS[i] == "capped" for i in idx])
        f = x - self.C[idx]
        return f, np.where(capped, 0.0, 1.0), np.sin(x) + idx, x * x

    def test_carries_the_evaluation_at_each_returned_point(self, monkeypatch):
        from execsched.dp import _vec_newton

        n = self.C.size
        monkeypatch.setattr(dp, "_NEWTON_ITERS", 5)
        x, report = _vec_newton(self.f_and_fp, np.zeros(n), np.ones(n))
        kinds = np.array(self.KINDS)
        assert report.pinned.tolist() == list(np.isin(kinds, ["pinned_low", "pinned_high"]))
        assert report.settled.tolist() == list(kinds != "capped")
        assert x[0] == 0.0 and x[1] == 1.0
        fresh = self.f_and_fp(x, np.arange(n))[2:]
        assert len(report.carried) == 2
        for got, want in zip(report.carried, fresh):
            assert np.array_equal(_bits(got), _bits(want))
        # the cap's own evaluation, not the last iteration inside the loop
        free = ~report.pinned
        np.testing.assert_array_equal(report.foc[free], x[free] - self.C[free])

    def test_without_extras_carries_nothing(self, monkeypatch):
        from execsched.dp import _vec_newton

        def f_and_fp(x, idx):
            return self.f_and_fp(x, idx)[:2]

        monkeypatch.setattr(dp, "_NEWTON_ITERS", 5)
        _, report = _vec_newton(f_and_fp, np.zeros(6), np.ones(6))
        assert report.carried == ()


class TestScanNewton:
    # objective and its first two derivatives, about a center c
    OBJECTIVES = {
        "convex": lambda s, c: ((s - c) ** 2, 2.0 * (s - c), np.full_like(s, 2.0)),
        "concave": lambda s, c: (-((s - c) ** 2), -2.0 * (s - c), np.full_like(s, -2.0)),
        # exact in floating point, so strictly monotone between any two floats
        "increasing": lambda s, c: (s, np.ones_like(s), np.zeros_like(s)),
        "decreasing": lambda s, c: (-s, -np.ones_like(s), np.zeros_like(s)),
    }

    @given(
        st.sampled_from(sorted(OBJECTIVES)),
        st.lists(
            st.tuples(st.floats(1e-6, 100.0), st.floats(-0.5, 1.5)),
            min_size=1,
            max_size=6,
        ),
        st.integers(2, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_returns_its_value_and_beats_both_ends(self, shape, brackets, points):
        from execsched.dp import _scan_newton

        ub = np.array([b[0] for b in brackets])
        center = np.array([b[1] for b in brackets]) * ub

        def objective(s, idx):
            return self.OBJECTIVES[shape](s, center[idx])[0]

        def derivs(s, idx):
            return self.OBJECTIVES[shape](s, center[idx])[1:]

        rows = np.arange(ub.size)
        s, value, _ = _scan_newton(objective, derivs, ub, points)
        assert np.array_equal(_bits(value), _bits(objective(s, rows)))
        assert np.all(value <= objective(np.zeros_like(ub), rows))
        assert np.all(value <= objective(ub, rows))
        assert np.all((0.0 <= s) & (s <= ub))
        if shape == "increasing":
            assert np.array_equal(_bits(s), _bits(np.zeros_like(ub)))
        if shape == "decreasing":
            assert np.array_equal(_bits(s), _bits(ub))

    @given(
        st.sampled_from(sorted(OBJECTIVES)),
        st.lists(
            st.tuples(st.floats(1e-6, 100.0), st.floats(-0.5, 1.5)),
            min_size=1,
            max_size=6,
        ),
        st.integers(2, 40),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_carries_value_and_extras_at_the_returned_trades(
        self, shape, brackets, points, lowered_scan
    ):
        from execsched.dp import _scan_newton

        ub = np.array([b[0] for b in brackets])
        center = np.array([b[1] for b in brackets]) * ub
        rows = np.arange(ub.size)
        # a scan that reads far below the carried values makes every scan
        # point win, so the extras come from the re-evaluation at the scan
        # points
        shift = 1e300 if lowered_scan else 0.0

        def objective(s, idx):
            return self.OBJECTIVES[shape](s, center[idx])[0] - shift

        def derivs(s, idx):
            j, d, dd = self.OBJECTIVES[shape](s, center[idx])
            return d, dd, j, 3.0 * s + idx

        s, value, report = _scan_newton(objective, derivs, ub, points)
        carried_value, extra = report.carried
        assert np.array_equal(_bits(carried_value), _bits(value))
        assert np.array_equal(_bits(value), _bits(objective(s, rows)))
        assert np.array_equal(_bits(extra), _bits(3.0 * s + rows))


def _digests(schedule, table):
    import hashlib

    parts = {
        "stages": [
            a
            for stage in table.stages
            for a in (
                (stage.grid, stage.trades)
                if isinstance(stage, NumericalPolicy)
                else (np.float64(stage.fraction),)
            )
        ],
        "schedule": [np.asarray(schedule.trades), np.asarray(schedule.residuals)],
        "value_samples": list(table.value_samples),
    }
    out = {}
    for name, arrs in parts.items():
        h = hashlib.sha256()
        for a in arrs:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        out[name] = h.hexdigest()
    return out


class TestComplexSolvesPinned:
    # sha256 of the solver output, recorded with every stage solve on one
    # Newton that stops at the rounding floor of its first-order condition
    # (a step under 2**-40 of the bracket is the last; the benchmark's top
    # value is its closed form 16500 and its schedule the equal split to
    # 6.2e-13), the one-formula Mills kernel, and the AR(1) shifts read from
    # the law's move along the zero-noise walk; the liquidity ones with the
    # volume rule sized by its slope (stage T-1 values within 2.3e-15 of
    # order 80 at every published node) and the grid pass's price panels
    # sized by the probe (10 and 16 points; stage T-1 values within 1.3e-15
    # of 64-point panels), and the percentage law's one-element premium
    # calls on the batch's node-order sums.  Any change that moves a bit of
    # it shows here
    def test_benchmark_complex(self):
        params = Benchmark(theta=3.0, sigma_eps=1.0)
        got = _digests(*solve_benchmark_complex(params, Horizon(10, 100.0)))
        assert got == {
            "stages": "86a17061051c46c08236caf7fc53498b41442bd1fc0913cc39dfb82d90ad305a",
            "schedule": "da33a34bf5c4dc7fcd7ed17e4b9b33be2dd158ea83298ea474f615bf0e36a15d",
            "value_samples": "e4eae098e6516ba8c86e470d98bbfbc7aded946058eafc3c5d15783c3cb11a48",
        }

    def test_ar1_complex(self):
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        got = _digests(*solve_ar1_complex(params, Horizon(10, 10.0), 0.5))
        assert got == {
            "stages": "1269fae56ad92e430b2cd238b4d5d00d4c543fa1a95697c35603c421faef5ee4",
            "schedule": "c4be3f06016aa30a5b20fda7951c71faaf15c1f42509a5ff06ac9f4db1cd8118",
            "value_samples": "f82af08dd936b300f22dff3b97016e070e245be84e5e913e331d2a75ba25c381",
        }

    @pytest.mark.parametrize(
        "case, pins",
        [
            ("liquidity", (
                "35afd788d65e557187d0cdb217c259fb5185c0b90d72ce98a070422896530ec1",
                "10e8536c7a34270205d82cb6db5ad92fa04a6c0acfc643889cef3c9e01bdbc70",
                "b75850470553c76bb288cc5aa46a6b61c4bebd38a182f25b1f09a2c93910dc43",
            )),
            ("liquidity_three_stage", (
                "f81a950dd35436408db53620148553691dc47e9e11b812ce2c1d211e33b98cf6",
                "127e1fadd2f624607c4a57833f7b9b470197511c2d312bb40e8b8de9433b7b8c",
                "458d3d2ab15f62a46448e98882aa5fe2cf33003191e30afeacd3cc8c3625401c",
            )),
            ("linear_percentage", (
                "c128a80b22e6c1d020bf18d2a166323b2c63f0fe4458e88f55a192b987d84369",
                "b309857f7547bea8bdf21824d2a14002020a72a08b90f2dc8866f7ecbdecdc1d",
                "a9600d0b83665b0919ecc9b1bfeeb1f0ee9a32f00f1018cc65945d0a651f6907",
            )),
        ],
    )
    def test_quadrature_solves(self, case, pins):
        # the bench configs, and liquidity stage T-1 on the fine mesh followed
        # by the grid recursion
        if case == "liquidity_three_stage":
            params = Liquidity(
                alpha=0.01, theta=0.05, gamma=0.02, rho=0.9, sigma_eps=0.5, sigma_eta=10.0
            )
            args = (params, Horizon(3, 20.0), MarketState(price=100.0, aux=50.0))
            cfg = RecursionConfig(grid_nodes=16)
        else:
            bench = bench_solve_config(case, 0.05 if case == "linear_percentage" else 20.0)
            args = cli.build_model(bench), cli.build_horizon(bench), cli.build_state(bench)
            cfg = RecursionConfig(**(bench["solver"] or {}))
        solve = solve_gbm_simple if case == "linear_percentage" else solve_liquidity
        got = _digests(*solve(*args, cfg))
        assert got == dict(zip(("stages", "schedule", "value_samples"), pins))

    def test_ar1_complex_runs_one_grid_solve_per_stage(self, monkeypatch):
        calls = []
        newton = dp._vec_newton

        def counted(f_and_fp, lo, hi):
            calls.append(lo.size)
            return newton(f_and_fp, lo, hi)

        monkeypatch.setattr(dp, "_vec_newton", counted)
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        sched, _ = solve_ar1_complex(params, Horizon(10, 10.0), 0.5)
        # T-1 grid solves; stage t holds the columns of alpha_1..alpha_t,
        # each at depth T-t+1; then a one-element re-solve of every schedule
        # stage with shares left to trade
        m = calls[8]
        resolves = sum(w > 0.0 for w in sched.residuals[:9])
        assert resolves > 0
        assert calls == [m * t for t in range(9, 0, -1)] + [1] * resolves


class TestSolverDiagnostics:
    def _check_newton(self, diag):
        assert 0 < diag["newton_iterations"] < dp._NEWTON_ITERS
        assert 0.0 <= diag["max_abs_foc"] < 1e-9
        assert isinstance(diag["pinned_nodes"], int)
        assert diag["unsettled_nodes"] == 0
        assert diag["convex"] is True

    def test_complex_solvers_report_each_free_stage(self):
        params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
        for _, table in (
            solve_benchmark_complex(Benchmark(theta=3.0, sigma_eps=1.0), Horizon(5, 100.0)),
            solve_ar1_complex(params, Horizon(5, 10.0), 0.5),
        ):
            diags = table.metadata["diagnostics"]
            assert [d["stage"] for d in diags] == [1, 2, 3, 4]
            for d in diags:
                self._check_newton(d)
                assert 0 < d["schedule_iterations"] < dp._NEWTON_ITERS

    def test_grid_recursion_reports_each_free_stage(self):
        table = approximate_recursion(MillsRecursionProblem.uniform(Horizon(4, 6.0), 1.5, 1.0))
        diags = table.metadata["diagnostics"]
        assert [d["stage"] for d in diags] == [1, 2, 3]
        for d in diags:
            self._check_newton(d)

    def test_grid_recursion_counts_unsettled_nodes(self, monkeypatch):
        # a grid stage with nodes still moving at the cap raises rather than
        # publish a policy that interpolates unconverged trades
        problem = MillsRecursionProblem.uniform(Horizon(4, 6.0), 1.5, 1.0)
        stage2 = r"stage 2 grid solve did not converge within 2 Newton iterations at \d+ nodes"
        with monkeypatch.context() as patch:
            patch.setattr(dp, "_NEWTON_ITERS", 2)
            with pytest.raises(SolverError, match=stage2):
                approximate_recursion(problem)
        settled = approximate_recursion(problem)
        assert all(d["unsettled_nodes"] == 0 for d in settled.metadata["diagnostics"])

    def test_diagnostics_are_deterministic(self):
        runs = [
            solve_benchmark_complex(Benchmark(theta=2.0, sigma_eps=1.0), Horizon(4, 10.0))[1]
            for _ in range(2)
        ]
        assert runs[0].metadata["diagnostics"] == runs[1].metadata["diagnostics"]

    def test_forced_single_stage_has_none(self):
        _, table = solve_benchmark_complex(Benchmark(theta=2.0, sigma_eps=1.0), Horizon(1, 3.0))
        assert table.metadata["diagnostics"] == []


# Solves whose stage objectives are not certified convex at the exact-residual
# re-solve, with the number of stages each re-solves that way
_NONCONVEX_RESOLVES = {
    "benchmark-theta-0.3": (
        lambda: solve_benchmark_complex(Benchmark(theta=0.3, sigma_eps=1.0), Horizon(4, 100.0)),
        3,
    ),
    "benchmark-theta-0.5": (
        lambda: solve_benchmark_complex(Benchmark(theta=0.5, sigma_eps=1.0), Horizon(4, 100.0)),
        3,
    ),
    "ar1": (
        lambda: solve_ar1_complex(
            Ar1Extra(theta=0.4, gamma=0.3, rho=0.6, sigma_eps=1.0, sigma_eta=0.5),
            Horizon(4, 10.0),
            0.5,
        ),
        3,
    ),
    "liquidity-T3": (
        lambda: solve_liquidity(
            Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.9, sigma_eps=0.5, sigma_eta=10.0),
            Horizon(3, 20.0),
            MarketState(price=100.0, aux=50.0),
            RecursionConfig(grid_nodes=16),
        ),
        1,
    ),
    "liquidity-T4": (
        lambda: solve_liquidity(
            Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.95, sigma_eps=0.5, sigma_eta=10.0),
            Horizon(4, 30.0),
            MarketState(price=100.0, aux=60.0),
            RecursionConfig(quad_order=40),
        ),
        2,
    ),
}


class TestExactResidualResolve:
    @pytest.mark.parametrize("name", sorted(_NONCONVEX_RESOLVES))
    @pytest.mark.filterwarnings("ignore::execsched.dp.ConvexityWarning")
    def test_nonconvex_resolve_finds_the_global_minimum(self, name, monkeypatch):
        import execsched.liquidity as liquidity

        solve = dp._scalar_stage_solve
        seen = []

        def recorded(fam, cont, w, ub, col=0):
            s, iters = solve(fam, cont, w, ub, col)
            seen.append((lambda x: fam.value(x, w, col) + cont.value(w - x, col), min(ub, w), s))
            return s, iters

        monkeypatch.setattr(dp, "_scalar_stage_solve", recorded)
        monkeypatch.setattr(liquidity, "_scalar_stage_solve", recorded)
        run, stages = _NONCONVEX_RESOLVES[name]
        run()
        assert len(seen) == stages
        for objective, ub, s in seen:
            scan = objective(np.linspace(0.0, ub, 20001)).min()
            assert objective(np.array([s]))[0] <= scan * (1.0 + 1e-12)

    def test_unsettled_resolve_raises_solver_error(self, monkeypatch):
        # the grid stages settle; one iteration of the exact-residual re-solve
        # cannot show that Newton settled, whatever it reached
        cap_resolves(monkeypatch, 1)
        with pytest.raises(SolverError) as err:
            solve_benchmark_complex(Benchmark(theta=3.0, sigma_eps=1.0), Horizon(4, 100.0))
        assert err.value.bracket == (0.0, 100.0)
        assert math.isfinite(err.value.residual)

    @pytest.mark.parametrize("newton_iters", [1, 2])
    @pytest.mark.parametrize("model, value", [("liquidity", 20.0), ("linear_percentage", 0.05)])
    def test_every_family_raises_on_an_unsettled_resolve(
        self, model, value, newton_iters, monkeypatch
    ):
        # the bench liquidity T=2 and percentage-law solves: capped short of
        # settling, their schedule re-solves raise like the grid recursion's
        cfg = bench_solve_config(model, value)
        params, horizon, state = cli.build_model(cfg), cli.build_horizon(cfg), cli.build_state(cfg)
        rc = RecursionConfig(**(cfg["solver"] or {}))
        cap_resolves(monkeypatch, newton_iters)
        solve = solve_liquidity if model == "liquidity" else solve_gbm_simple
        with pytest.raises(SolverError, match="did not converge") as err:
            solve(params, horizon, state, rc)
        assert err.value.bracket == (0.0, horizon.total_shares)
        assert math.isfinite(err.value.residual)
