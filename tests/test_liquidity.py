"""Tests for the volume-constrained liquidity solver.

Frozen oracle values: the terminal closed form was checked against seeded
2e6-draw rejection Monte Carlo of the conditional premium (seed 411:
1820.294890211295 +/- 0.282815996813938 vs closed 1820.0051336242236, 1.0 SE;
seed 412: 960.4454339441547 +/- 0.054322059695999986 vs closed
960.4000000000001, 0.8 SE).  The two-stage trade was checked against the
1000-point-grid x 1e5-path simulation brute force run inside the test.
"""
import dataclasses
import functools
import itertools
import math
import sys
import threading
import warnings
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execsched import cli, liquidity
from execsched.dp import (
    Horizon,
    InfeasibleLiquidityError,
    RecursionConfig,
    ResolutionWarning,
    Schedule,
    SolverError,
)
from execsched.kernels import mills_psi
from execsched.dp import _TerminalMills, _whole_residual
from execsched.liquidity import (
    _NODE_PANEL_ORDER,
    _make_penultimate,
    solve_liquidity,
)
from execsched.models import Liquidity, MarketState
from execsched.simulate import SimConfig, simulate_paths
from support import (
    bench_reference,
    bench_solve_config,
    central_differences,
    expected_terminal_slope,
)

SPEC_PARAMS = Liquidity(
    alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
)
SPEC_STATE = MarketState(price=100.0, aux=50.0)
NEWTON_KEYS = {
    "stage", "newton_iterations", "max_abs_foc", "pinned_nodes", "unsettled_nodes", "convex",
}


@pytest.fixture(scope="module")
def spec_solution():
    return solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)


def _terminal_value(params, price, volume, resid):
    """The closed-form V_T at residual ``resid`` and decision state (price, volume)."""
    return float(_TerminalMills(*params.move(price, volume)).value(resid))


class TestTerminalForm:
    def test_closed_form_frozen(self):
        assert _terminal_value(SPEC_PARAMS, 100.0, 50.0, 20.0) == pytest.approx(
            1820.0051336242236, rel=1e-12
        )

    def test_closed_form_vs_rejection_mc(self):
        # frozen MC header values; the draw is reproduced here so the oracle
        # stays independent of the closed form under test
        cases = [
            (411, SPEC_PARAMS, 100.0, 50.0, 20.0),
            (412, Liquidity(alpha=-0.002, theta=0.01, gamma=0.005, rho=0.3,
                            sigma_eps=1.5, sigma_eta=4.0), 80.0, 120.0, 35.0),
        ]
        for seed, p, price, vol, resid in cases:
            rng = np.random.default_rng(seed)
            eta = rng.normal(0.0, p.sigma_eta, 2_000_000)
            eps = rng.normal(0.0, p.sigma_eps, 2_000_000)
            nxt = price * (p.alpha + 1.0 + p.beta * resid - p.gamma * (p.rho * vol + eta)) + eps
            prem = nxt - price
            kept = prem[prem > 0.0] * resid
            se = kept.std(ddof=1) / np.sqrt(kept.size)
            assert abs(_terminal_value(p, price, vol, resid) - kept.mean()) <= 3.0 * se

    def test_gamma_collapse_to_single_noise_arm(self):
        # with gamma ~ 0 and alpha = 0 the scale loses the volume arm and the
        # form reduces to sigma_eps * W * psi(theta*W*P/sigma_eps)
        p = Liquidity(alpha=0.0, theta=0.05, gamma=1e-12, rho=0.5, sigma_eps=0.5, sigma_eta=10.0)
        got = _terminal_value(p, 100.0, 50.0, 20.0)
        want = 0.5 * 20.0 * float(mills_psi(0.05 * 20.0 * 100.0 / 0.5))
        assert got == pytest.approx(want, rel=1e-7)


class TestSingleStage:
    def test_forced_trade_when_volume_permits(self):
        sched, table = solve_liquidity(SPEC_PARAMS, Horizon(1, 20.0), SPEC_STATE)
        assert sched.trades == (20.0,)
        # certainty-equivalent bound is rho*O = 25 >= 20
        assert table.metadata["volume_bounds"] == (25.0,)
        assert table.value_samples[0][-1, 1] == pytest.approx(1820.0051336242236, rel=1e-12)

    def test_infeasible_when_order_exceeds_volume(self):
        with pytest.raises(InfeasibleLiquidityError):
            solve_liquidity(SPEC_PARAMS, Horizon(1, 26.0), SPEC_STATE)

    def test_infeasible_when_bound_not_positive(self):
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=-0.5, sigma_eps=0.5, sigma_eta=10.0)
        with pytest.raises(InfeasibleLiquidityError, match="stage 1"):
            solve_liquidity(p, Horizon(1, 5.0), SPEC_STATE)


class TestTwoStage:
    def test_first_trade_frozen(self, spec_solution):
        sched, table = spec_solution
        assert sched.trades[0] == pytest.approx(11.37638239225765, abs=1e-6)
        assert math.fsum(sched.trades) == pytest.approx(20.0, abs=1e-12)
        assert table.value_samples[0][-1, 1] == pytest.approx(826.3037125347257, rel=1e-9)

    def test_first_trade_inside_simulation_brute_force_neighborhood(self, spec_solution):
        # the spec-sized oracle: 1000-point S grid, 1e5 paths with common
        # random numbers, stage cost by rejection mean, continuation by the
        # terminal closed form at the realized (P', O'); the reported trade
        # must sit where the sampled objective is within 3 SE of its minimum
        p, total = SPEC_PARAMS, 20.0
        rng = np.random.default_rng(413)
        eta = rng.normal(0.0, p.sigma_eta, 100_000)
        eps = rng.normal(0.0, p.sigma_eps, 100_000)
        o2 = p.rho * 50.0 + eta
        sgrid = np.linspace(0.0, total, 1000)
        means = np.empty(sgrid.size)
        ses = np.empty(sgrid.size)
        for i, s in enumerate(sgrid):
            p2 = 100.0 * (p.alpha + 1.0 + p.beta * s - p.gamma * o2) + eps
            prem = p2 - 100.0
            kept = prem[prem > 0.0]
            cost = s * kept.mean()
            cost_se = s * kept.std(ddof=1) / np.sqrt(kept.size)
            resid = total - s
            scale = np.hypot(p.gamma * p2 * p.sigma_eta, p.sigma_eps)
            u = p2 * (p.alpha + p.beta * resid - p.gamma * p.rho * o2) / scale
            vt = resid * scale * mills_psi(u)
            means[i] = cost + vt.mean()
            ses[i] = math.hypot(cost_se, vt.std(ddof=1) / np.sqrt(vt.size))
        best = int(np.argmin(means))
        inside = sgrid[means <= means[best] + 3.0 * ses[best]]
        sched, _ = spec_solution
        assert inside.min() <= sched.trades[0] <= inside.max()

    def test_policy_agrees_with_schedule_at_top_node(self, spec_solution):
        sched, table = spec_solution
        assert table.stages[0].trade(20.0) == pytest.approx(sched.trades[0], abs=1e-6)

    def test_objective_stable_under_order_doubling(self):
        pen40 = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 40, 40)
        pen80 = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 80, 80)
        s = np.array([11.38])
        w = np.array([20.0])
        j40 = float(pen40.objective(s, w)[0])
        j80 = float(pen80.objective(s, w)[0])
        assert abs(j80 - j40) <= 1e-6 * abs(j40)

    def test_resolution_warning_on_coarse_quadrature(self):
        with pytest.warns(ResolutionWarning):
            solve_liquidity(
                SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, RecursionConfig(quad_order=1)
            )

    def test_resolution_warning_points_at_the_caller(self):
        coarse = RecursionConfig(quad_order=1)
        with pytest.warns(ResolutionWarning) as record:
            solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, coarse)
            line = sys._getframe().f_lineno - 1
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_no_resolution_warning_at_default_order(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionWarning)
            solve_liquidity(
                SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, RecursionConfig(grid_nodes=8)
            )

    def test_infeasible_terminal_residual(self):
        # rho = 0.2 leaves bound_2 = 2 while at least half the order must
        # wait for stage 2 under bound_1 = 10
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.2, sigma_eps=0.5, sigma_eta=10.0)
        with pytest.raises(InfeasibleLiquidityError, match="terminal residual"):
            solve_liquidity(p, Horizon(2, 20.0), SPEC_STATE, RecursionConfig(grid_nodes=8))


class TestNonUnimodalStage:
    def test_trade_is_the_global_minimum_not_the_origin(self, spec_solution):
        # At the spec state J rises from S = 0 (J'(0) > 0) up to S ~ 1.45 and
        # only then falls to its minimum near 11.4, so a derivative
        # root-finder started from the origin would stop at S = 0.
        sched, _ = spec_solution
        pen = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 40, 40)
        grid = np.linspace(0.0, 20.0, 401)
        j = pen.objective(grid, np.full_like(grid, 20.0))
        assert j[1] > j[0]
        assert np.argmax(j[: grid.size // 4]) > 1
        i = int(np.argmin(j))
        # vertex of the parabola through the grid minimum and its neighbours
        h = grid[1] - grid[0]
        vertex = grid[i] + 0.5 * h * (j[i - 1] - j[i + 1]) / (j[i - 1] - 2.0 * j[i] + j[i + 1])
        assert sched.trades[0] == pytest.approx(vertex, abs=1e-3)
        solved = float(pen.objective(np.array([sched.trades[0]]), np.array([20.0]))[0])
        assert solved < j[0]
        assert solved <= j[i]


class TestStageDerivatives:
    @given(
        price=st.floats(70.0, 130.0),
        volume=st.floats(30.0, 80.0),
        alpha=st.floats(-0.005, 0.02),
        theta=st.floats(0.02, 0.08),
        gamma=st.floats(0.01, 0.03),
        rho=st.floats(0.3, 0.9),
        sigma_eps=st.floats(0.3, 1.5),
        sigma_eta=st.floats(5.0, 15.0),
        resid=st.floats(4.0, 25.0),
        frac=st.floats(0.1, 0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_central_differences(
        self, price, volume, alpha, theta, gamma, rho, sigma_eps, sigma_eta, resid, frac
    ):
        p = Liquidity(alpha=alpha, theta=theta, gamma=gamma, rho=rho,
                      sigma_eps=sigma_eps, sigma_eta=sigma_eta)
        pen = _make_penultimate(p, price, volume, rho * volume, resid, 16, 40)
        w = np.array([resid])

        def j(s):
            return float(pen.objective(np.array([s]), w)[0])

        s = frac * resid
        # rounding: a sum of n positive terms carries at most n*eps relative;
        # J changes by far less than 2x over the stencil
        noise = 2.0 * pen.x.size * pen.z_nodes.size * np.finfo(float).eps * j(s)
        d1, tol1, d2, tol2 = central_differences(j, s, 1e-3, 0.1, noise)
        got1, got2 = (float(a[0]) for a in pen.objective_derivs(np.array([s]), w)[:2])
        assert abs(got1 - d1) <= tol1
        assert abs(got2 - d2) <= tol2


class TestPriceNodeWindow:
    @given(
        price=st.floats(70.0, 130.0),
        volume=st.floats(30.0, 80.0),
        alpha=st.floats(-0.005, 0.02),
        theta=st.floats(0.02, 0.08),
        gamma=st.floats(0.01, 0.03),
        rho=st.floats(0.3, 0.9),
        sigma_eps=st.floats(0.3, 1.5),
        sigma_eta=st.floats(5.0, 15.0),
        pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 30.0)), min_size=1, max_size=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_agrees_with_the_full_mesh(
        self, price, volume, alpha, theta, gamma, rho, sigma_eps, sigma_eta, pairs
    ):
        p = Liquidity(alpha=alpha, theta=theta, gamma=gamma, rho=rho,
                      sigma_eps=sigma_eps, sigma_eta=sigma_eta)
        cap = rho * volume
        pen = _make_penultimate(p, price, volume, cap, cap, _NODE_PANEL_ORDER, 40)
        frac, extra = np.array(pairs).T
        trades = frac * cap
        resids = trades + extra

        def evaluate():
            return (
                pen.objective(trades, resids),
                *pen.objective_derivs(trades, resids),
                expected_terminal_slope(pen, trades, extra),
            )

        windowed = evaluate()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(liquidity, "_WINDOW_SIGMAS", math.inf)
            full = evaluate()
        # J's two S-derivatives are a stage-cost part plus an expectation part
        # that cancel near a stationary point, so they are compared relative
        # to the size of the parts; J and dV_T/dW come twice, carried by the
        # derivative pass and evaluated alone
        c1, c2 = pen.stage.ds_dss(trades, resids)
        scales = (
            np.abs(full[0]),
            np.abs(c1) + np.abs(full[1] - c1),
            np.abs(c2) + np.abs(full[2] - c2),
            np.abs(full[3]),
            np.abs(full[4]),
            np.abs(full[5]),
        )
        assert len(windowed) == len(full) == len(scales)
        for got, want, scale in zip(windowed, full, scales):
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_blocks_cover_each_window_within_the_element_budget(self, monkeypatch):
        # a scan-shaped call: 9 trades in [0, min(w, cap)] at each of 64 residuals
        pen = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 16, 40)
        w = np.repeat(np.geomspace(0.02, 20.0, 64), 9)
        trades = np.minimum(w, 25.0) * np.tile(np.linspace(0.0, 1.0, 9), 64)
        blocks = []
        tensor = liquidity._Penultimate._tensor

        def recorded(self, s, r, nodes):
            blocks.append((s, nodes))
            return tensor(self, s, r, nodes)

        monkeypatch.setattr(liquidity._Penultimate, "_tensor", recorded)
        pen.objective(trades, w)
        assert np.array_equal(np.concatenate([s for s, _ in blocks]), trades)
        reach = 9.0 * pen.s_p
        for s, nodes in blocks:
            assert s.size * (nodes.stop - nodes.start) * pen.z_nodes.size <= liquidity._BLOCK_ELEMS
            near = np.abs(pen.x[:, None] - pen._mean(s)[None, :]) <= reach
            (inside,) = np.nonzero(near.any(axis=1))
            assert (nodes.start, nodes.stop) == (inside[0], inside[-1] + 1)
        # the small residuals trade little, so their windows are narrow and
        # their blocks hold more elements than a full-mesh block would
        assert blocks[0][1].stop - blocks[0][1].start < 0.75 * pen.x.size
        assert blocks[0][0].size > liquidity._BLOCK_ELEMS // (pen.x.size * pen.z_nodes.size)

    @pytest.mark.parametrize("total", [16.0, 18.0, 20.0, 22.0])
    def test_bench_variants_keep_their_recorded_top_values(self, total):
        cfg = bench_solve_config("liquidity", total)
        assert cfg["solver"]["quad_order"] == 40
        _, table = solve_liquidity(
            cli.build_model(cfg),
            cli.build_horizon(cfg),
            cli.build_state(cfg),
            cli.build_recursion_config(cfg),
        )
        w_top, v_top = table.value_samples[0][-1]
        assert w_top == total
        ref = bench_reference("liquidity")[total]
        assert abs(v_top - ref) <= 1e-12 * abs(ref)


class TestGlobalMinimum:
    def test_every_official_node_beats_a_dense_scan(self):
        # the bench liquidity config: T = 2, so the published stage-1 values
        # are the stage T-1 minima on the official nodes
        cfg = bench_solve_config("liquidity", 20.0)
        params, horizon = cli.build_model(cfg), cli.build_horizon(cfg)
        state, rc = cli.build_state(cfg), cli.build_recursion_config(cfg)
        assert horizon.T == 2
        _, table = solve_liquidity(params, horizon, state, rc)
        cap = params.rho * state.aux
        total = horizon.total_shares
        pen = _make_penultimate(
            params, state.price, state.aux, cap, min(total, cap), _NODE_PANEL_ORDER, rc.quad_order
        )
        nodes, solved = table.value_samples[0].T
        frac = np.linspace(0.0, 1.0, 401)
        for w, v in zip(nodes, solved):
            scan = pen.objective(min(w, cap) * frac, np.full(frac.size, w))
            assert v <= scan.min() * (1.0 + 1e-12)


class TestDiagnostics:
    def test_two_stage_reports_newton_iterations(self, spec_solution):
        _, table = spec_solution
        cfg = RecursionConfig()
        (diag,) = table.metadata["diagnostics"]
        assert set(diag) == NEWTON_KEYS | {"schedule_iterations", "quadrature_drift"}
        assert diag["stage"] == 1
        assert 0 < diag["newton_iterations"] < cfg.newton_iters
        assert math.isfinite(diag["max_abs_foc"])
        assert 0 < diag["schedule_iterations"] < cfg.newton_iters
        assert diag["unsettled_nodes"] == 0
        # the objective is not convex near S = 0, but it is at every solution
        assert diag["convex"] is True

    def test_clamp_probability_matches_the_simulated_clamps(self):
        # the solver integrates O' unclamped; the metadata says how often the
        # simulated law clamps it, Phi(-rho*O/sigma_eta) at each CE state
        state = MarketState(price=100.0, aux=10.0)
        horizon = Horizon(2, 4.0)
        _, table = solve_liquidity(SPEC_PARAMS, horizon, state, RecursionConfig(grid_nodes=8))
        keys = list(table.metadata)
        assert keys[keys.index("volume_bounds") + 1] == "volume_clamp_probability"
        p1, p2 = table.metadata["volume_clamp_probability"]
        clamp = SPEC_PARAMS.clamp_probability
        assert (p1, p2) == (clamp(10.0), clamp(5.0))
        assert p1 == pytest.approx(0.3085, abs=1e-4)
        cfg = SimConfig(model=SPEC_PARAMS, horizon=horizon, n_paths=20_000, seed=5,
                        initial_state=state)
        paths = simulate_paths(cfg, Schedule.from_trades([2.0, 2.0], 4.0))
        rate = paths.counters["volume_clamps"][0] / cfg.n_paths
        assert abs(rate - p1) <= 4.0 * math.sqrt(p1 * (1.0 - p1) / cfg.n_paths)

    def test_stage_t_minus_1_records_quadrature_drift(self, spec_solution):
        (diag,) = spec_solution[1].metadata["diagnostics"]
        assert 0.0 <= diag["quadrature_drift"] <= 1e-6
        with pytest.warns(ResolutionWarning) as record:
            _, coarse = solve_liquidity(
                SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, RecursionConfig(quad_order=1)
            )
        (diag,) = coarse.metadata["diagnostics"]
        assert diag["quadrature_drift"] > 1e-6
        assert f"moved {diag['quadrature_drift']:.3e} relative" in str(record[0].message)

    def test_three_stage_reports_newton_for_the_grid_stage(self):
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.9, sigma_eps=0.5, sigma_eta=10.0)
        cfg = RecursionConfig(grid_nodes=16)
        _, table = solve_liquidity(p, Horizon(3, 20.0), SPEC_STATE, cfg)
        first, second = table.metadata["diagnostics"]
        assert (first["stage"], second["stage"]) == (1, 2)
        assert set(first) == NEWTON_KEYS | {"schedule_iterations"}
        assert set(second) == NEWTON_KEYS | {"schedule_iterations", "quadrature_drift"}
        for diag in (first, second):
            assert 0 < diag["newton_iterations"] < cfg.newton_iters
            assert math.isfinite(diag["max_abs_foc"])
            assert diag["unsettled_nodes"] == 0


class TestLongerHorizons:
    def test_three_stage_respects_bounds_and_sums(self):
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.9, sigma_eps=0.5, sigma_eta=10.0)
        sched, table = solve_liquidity(p, Horizon(3, 20.0), SPEC_STATE, RecursionConfig(grid_nodes=16))
        bounds = table.metadata["volume_bounds"]
        assert math.fsum(sched.trades) == pytest.approx(20.0, abs=1e-9)
        for s, b in zip(sched.trades, bounds):
            assert 0.0 <= s <= b + 1e-9
        assert len(table.stages) == 3

    def test_three_stage_deterministic(self):
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.9, sigma_eps=0.5, sigma_eta=10.0)
        cfg = RecursionConfig(grid_nodes=16)
        s1, _ = solve_liquidity(p, Horizon(3, 20.0), SPEC_STATE, cfg)
        s2, _ = solve_liquidity(p, Horizon(3, 20.0), SPEC_STATE, cfg)
        assert s1.trades == s2.trades

    def test_non_convex_resolve_checks_its_bracket_ends(self):
        # the stage-1 grid scan lands on S = 0; the refining search then
        # returns that end exactly instead of a midpoint 7e-13 above it
        p = Liquidity(alpha=0.01, theta=0.05, gamma=0.02, rho=0.95, sigma_eps=0.5, sigma_eta=10.0)
        sched, _ = solve_liquidity(
            p,
            Horizon(4, 30.0),
            MarketState(price=100.0, aux=60.0),
            RecursionConfig(grid_nodes=16, quad_order=40),
        )
        assert sched.trades[0] == 0.0


class TestValidation:
    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError, match="price"):
            solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), MarketState(price=-1.0, aux=50.0))

    def test_degenerate_ce_price_raises_solver_error(self):
        # a strongly negative drift drives the certainty-equivalent price
        # through zero before the horizon ends
        p = Liquidity(alpha=-2.0, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0)
        with pytest.raises(SolverError, match="price"):
            solve_liquidity(p, Horizon(2, 20.0), SPEC_STATE)

    def test_metadata_describes_the_run(self, spec_solution):
        _, table = spec_solution
        md = table.metadata
        assert md["model"] == "liquidity"
        assert md["formulation"] == "simple"
        assert md["method"] == "quadrature-recursion"
        assert md["volume"] == 50.0
        assert md["volume_bounds"] == (25.0, 12.5)


class TestEvaluateOnce:
    # the stage T-1 machinery of the spec two-stage solve, on a residual mesh
    W = np.geomspace(0.02, 20.0, 64)

    @staticmethod
    def _pen():
        return _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, _NODE_PANEL_ORDER, 40)

    @staticmethod
    def _close(got, want):
        return np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_newton_carries_value_and_slope_at_its_result(self):
        from execsched.dp import _vec_newton

        pen, w = self._pen(), self.W
        ub = np.minimum(w, pen.cap)
        # brackets that pin some elements low, some high, and leave the rest free
        lo, hi = 0.3 * ub, 0.9 * ub
        s, report = _vec_newton(lambda x, idx: pen.objective_derivs(x, w[idx]), lo, hi, 60)
        assert report.settled.all() and report.pinned.any() and not report.pinned.all()
        value, slope = report.carried
        assert self._close(value, pen.objective(s, w))
        assert self._close(slope, expected_terminal_slope(pen, s, w - s))

    def test_stage_pass_values_and_slopes_match_fresh_evaluations(self):
        pen, w = self._pen(), self.W
        s, v, vd, _, _ = liquidity._penultimate_pass(pen, w, RecursionConfig(), 1)
        assert self._close(v, pen.objective(s, w))
        free = ~_whole_residual(s, np.minimum(w, pen.cap), w)
        assert free.any()
        assert self._close(vd[free], expected_terminal_slope(pen, s, w - s)[free])

    def test_scan_wins_take_the_slope_of_one_more_evaluation(self):
        from execsched.dp import _scan_newton

        pen, w = self._pen(), self.W
        ub = np.minimum(w, pen.cap)
        calls = []

        def derivs(x, idx):
            calls.append(idx.size)
            return pen.objective_derivs(x, w[idx])

        # a scan that reads far below every carried value wins at every element
        s, v, report = _scan_newton(
            lambda x, idx: pen.objective(x, w[idx]) - 1e300, derivs, ub, 9, 60
        )
        assert np.all(v == -1e300)
        assert calls[-1] == w.size
        _, slope = report.carried
        assert self._close(slope, expected_terminal_slope(pen, s, w - s))


def _widths(monkeypatch, width):
    """Make the solver's block pool ``width`` threads wide."""
    monkeypatch.setattr(liquidity, "_pool_width", lambda: width)


class TestBlockPool:
    """Stage T-1 blocks mapped over a thread pool give the sequential bits."""

    @staticmethod
    def _calls(pen, trades, resids):
        return (
            pen.objective(trades, resids),
            *pen.objective_derivs(trades, resids),
            pen.expected_terminal(trades, resids - trades),
            expected_terminal_slope(pen, trades, resids - trades),
        )

    @given(
        price=st.floats(90.0, 110.0),
        volume=st.floats(40.0, 60.0),
        frac=st.floats(0.0, 1.0),
        offset=st.integers(-1, 2),
        width=st.integers(2, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_pool_map_gives_the_builtin_bits(self, price, volume, frac, offset, width):
        cap = SPEC_PARAMS.rho * volume
        pen = _make_penultimate(SPEC_PARAMS, price, volume, cap, cap, _NODE_PANEL_ORDER, 40)
        # a scan-shaped call; its first run ends after ``split`` elements, so
        # its first ``split + offset`` elements make one run or two, and more
        # elements make more runs than threads
        w = np.repeat(np.geomspace(0.02, cap, 64), 9)
        trades = np.minimum(w, cap) * np.tile(np.linspace(0.0, 1.0, 9), 64) * frac
        split = pen._runs(trades, w)[0][0].size
        n = max(1, split + offset)
        assert len(pen._runs(trades[:n], w[:n])) == (1 if n <= split else 2)
        for count in (n, min(w.size, 4 * split + offset)):
            want = self._calls(pen, trades[:count], w[:count])
            with ThreadPoolExecutor(width) as pool:
                got = self._calls(dataclasses.replace(pen, map=pool.map), trades[:count], w[:count])
            assert len(got) == len(want) == 7
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_bits_hold_with_more_threads_than_cores(self):
        # four threads switching every microsecond on fresh machinery, whose
        # cached stage and price-node scales are first computed inside the call
        def fresh(**kw):
            return _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 16, 40, **kw)

        w = np.repeat(np.geomspace(0.02, 20.0, 32), 9)
        trades = np.minimum(w, 25.0) * np.tile(np.linspace(0.0, 1.0, 9), 32)
        want = self._calls(fresh(), trades, w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = self._calls(
                    fresh(block_map=functools.partial(pool.map, timeout=120)), trades, w
                )
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_a_call_of_one_run_submits_nothing(self):
        pen = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, _NODE_PANEL_ORDER, 40)
        mapped = []

        def counting_map(fn, runs):
            runs = list(runs)
            mapped.append(len(runs))
            return map(fn, runs)

        pen = dataclasses.replace(pen, map=counting_map)
        pen.objective(np.array([5.0]), np.array([20.0]))
        expected_terminal_slope(pen, 0.0, 0.0)
        assert mapped == []
        w = np.repeat(np.geomspace(0.02, 20.0, 64), 9)
        trades = np.minimum(w, 25.0) * np.tile(np.linspace(0.0, 1.0, 9), 64)
        pen.objective_derivs(trades, w)
        assert mapped == [len(pen._runs(trades, w))] and mapped[0] > 1

    @pytest.mark.parametrize("width", [2, 3])
    def test_solve_at_order_80_is_width_invariant(self, monkeypatch, width):
        cfg = RecursionConfig(quad_order=80)
        _widths(monkeypatch, 1)
        sched1, table1 = solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, cfg)
        _widths(monkeypatch, width)
        sched, table = solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE, cfg)
        assert sched.trades == sched1.trades
        assert table.metadata == table1.metadata
        for a, b in zip(table.value_samples, table1.value_samples):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(table.stages[:-1], table1.stages[:-1]):
            assert a.trades.tobytes() == b.trades.tobytes()

    def test_no_pool_outlives_a_solve(self, monkeypatch):
        _widths(monkeypatch, 3)
        before = threading.active_count()
        solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)
        assert threading.active_count() == before
        assert not any(isinstance(v, Executor) for v in vars(liquidity).values())

    @pytest.mark.parametrize("width", [1, 3])
    def test_an_error_in_one_block_leaves_the_solve(self, monkeypatch, width):
        _widths(monkeypatch, width)
        tensor = liquidity._Penultimate._tensor
        calls = itertools.count()

        def failing(self, s, r, nodes):
            if next(calls) == 40:
                raise SolverError("block 40 failed")
            return tensor(self, s, r, nodes)

        monkeypatch.setattr(liquidity._Penultimate, "_tensor", failing)
        before = threading.active_count()
        with pytest.raises(SolverError) as err:
            solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)
        assert type(err.value) is SolverError and str(err.value) == "block 40 failed"
        assert threading.active_count() == before
