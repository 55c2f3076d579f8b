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
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from execsched.kernels import gauss_hermite, mills_psi, mills_psi_derivs
from execsched.dp import _NEWTON_ITERS, _resolve_stage, _TerminalMills, _whole_residual
from execsched.liquidity import (
    _PANEL_LADDER,
    _VOLUME_LADDER,
    _make_penultimate,
    _volume_order,
    solve_liquidity,
)
from execsched.models import Liquidity, MarketState, _certainty_equivalent_path
from execsched.simulate import SimConfig, simulate_paths
from support import (
    bench_reference,
    bench_solve_config,
    central_differences,
    expected_terminal_slope,
    traced_peak,
)

SPEC_PARAMS = Liquidity(
    alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
)
SPEC_STATE = MarketState(price=100.0, aux=50.0)
NEWTON_KEYS = {
    "stage", "newton_iterations", "max_abs_foc", "pinned_nodes", "unsettled_nodes", "convex",
}
# and what the stage T-1 entry adds
T1_KEYS = {"schedule_iterations", "panel_order", "volume_order", "quadrature_drift"}


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
        pen = _make_penultimate(p, price, volume, cap, cap, 16, 40)
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
        w = np.repeat(np.geomspace(0.02, 20.0, 64), 9)
        trades = np.minimum(w, 25.0) * np.tile(np.linspace(0.0, 1.0, 9), 64)
        tensor = liquidity._Penultimate._tensor

        def recorded(self, s, r, nodes):
            blocks.append((s, nodes))
            return tensor(self, s, r, nodes)

        monkeypatch.setattr(liquidity._Penultimate, "_tensor", recorded)
        # the configured order, and the order the bench law's rule is sized to,
        # whose runs budget _MIN_RUN_NODES volume nodes per (trade, price node)
        for z_order in (40, 4):
            pen = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 16, z_order)
            per_node = max(z_order, liquidity._MIN_RUN_NODES)
            blocks = []
            pen.objective(trades, w)
            assert np.array_equal(np.concatenate([s for s, _ in blocks]), trades)
            reach = 9.0 * pen.s_p
            for s, nodes in blocks:
                assert s.size * (nodes.stop - nodes.start) * per_node <= liquidity._BLOCK_ELEMS
                near = np.abs(pen.x[:, None] - pen._mean(s)[None, :]) <= reach
                (inside,) = np.nonzero(near.any(axis=1))
                assert (nodes.start, nodes.stop) == (inside[0], inside[-1] + 1)
            # the small residuals trade little, so their windows are narrow
            # and their blocks hold more elements than a full-mesh block would
            assert blocks[0][1].stop - blocks[0][1].start < 0.75 * pen.x.size
            assert blocks[0][0].size > liquidity._BLOCK_ELEMS // (pen.x.size * per_node)

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
        # the price panels and the volume rule the grid pass was sized to
        diag = table.metadata["diagnostics"][0]
        pen = _make_penultimate(
            params, state.price, state.aux, cap, min(total, cap), diag["panel_order"],
            diag["volume_order"],
        )
        nodes, solved = table.value_samples[0].T
        frac = np.linspace(0.0, 1.0, 401)
        for w, v in zip(nodes, solved):
            scan = pen.objective(min(w, cap) * frac, np.full(frac.size, w))
            assert v <= scan.min() * (1.0 + 1e-12)


class TestDiagnostics:
    def test_two_stage_reports_newton_iterations(self, spec_solution):
        _, table = spec_solution
        (diag,) = table.metadata["diagnostics"]
        assert set(diag) == NEWTON_KEYS | T1_KEYS
        assert diag["stage"] == 1
        assert 0 < diag["newton_iterations"] < _NEWTON_ITERS
        assert math.isfinite(diag["max_abs_foc"])
        assert 0 < diag["schedule_iterations"] < _NEWTON_ITERS
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
        assert set(second) == NEWTON_KEYS | T1_KEYS
        for diag in (first, second):
            assert 0 < diag["newton_iterations"] < _NEWTON_ITERS
            assert math.isfinite(diag["max_abs_foc"])
            assert diag["unsettled_nodes"] == 0


# Two-stage laws named by the slope of their volume lines: (law, price,
# volume, total).  The bench law (slope 0.0177), rho 0.9 (0.032), a steep
# small-price law (0.093) and the simulate replay law (0.67).
NAMED_LAWS = {
    "bench": (SPEC_PARAMS, 100.0, 50.0, 20.0),
    "rho-0.9": (dataclasses.replace(SPEC_PARAMS, rho=0.9), 100.0, 50.0, 20.0),
    "steep": (
        Liquidity(alpha=0.01, theta=0.05, gamma=0.05, rho=0.5, sigma_eps=2.0, sigma_eta=30.0),
        10.0, 50.0, 20.0,
    ),
    "replay": (
        Liquidity(alpha=0.015, theta=0.0005, gamma=0.0002, rho=0.95, sigma_eps=0.5,
                  sigma_eta=18.0),
        100.0, 100.0, 40.0,
    ),
}


def _two_stage(law, cfg=RecursionConfig(grid_nodes=8)):
    """The two-stage solve of ``law`` and its stage T-1 machinery at ``cfg``'s
    cap, on the densest price mesh the panel probe tries, by whose slope the
    solver sizes its volume rule."""
    params, price, volume, total = law
    sched, table = solve_liquidity(params, Horizon(2, total), MarketState(price, volume), cfg)
    cap = table.metadata["volume_bounds"][0]
    pen = _make_penultimate(
        params, price, volume, cap, min(total, cap), _PANEL_LADDER[-1], cfg.quad_order
    )
    return sched, table, pen


@functools.cache
def _named_order(name):
    """(largest slope, volume order recorded) of a named law's solve."""
    _, table, pen = _two_stage(NAMED_LAWS[name])
    return pen.volume_slope, table.metadata["diagnostics"][0]["volume_order"]


@st.composite
def _laws(draw):
    """Two-stage laws whose volume lines have slopes of about 0.01 to 0.7."""
    volume = draw(st.floats(20.0, 80.0))
    gamma = draw(st.floats(2e-4, 0.03))
    rho = draw(st.floats(0.3, 0.95))
    # keep the certainty-equivalent prices well above zero
    assume(gamma * rho * volume <= 0.3)
    params = Liquidity(
        alpha=draw(st.floats(0.0, 0.02)),
        theta=draw(st.floats(0.01, 0.06)),
        gamma=gamma,
        rho=rho,
        sigma_eps=draw(st.floats(0.3, 2.0)),
        sigma_eta=draw(st.floats(4.0, 30.0)),
    )
    price = draw(st.floats(20.0, 120.0))
    total = rho**2 * volume * draw(st.floats(0.3, 0.8))
    cap = rho * volume
    slope = _make_penultimate(
        params, price, volume, cap, min(total, cap), _PANEL_LADDER[-1], 40
    ).volume_slope
    assume(0.01 <= slope <= 0.7)
    return params, price, volume, total


class TestVolumeOrder:
    """Stage T-1 sizes its volume Gauss-Hermite rule by the largest slope of
    its volume lines, under the ``quad_order`` cap."""

    @staticmethod
    def _error(order, slope):
        """Worst error of the ``order``-node rule on lines of ``slope``: the
        z-sums of psi (relative) and psi' (absolute) over bases b in [-6, 6],
        against order 128."""
        b = np.linspace(-6.0, 6.0, 601)

        def sums(n):
            rule = gauss_hermite(n)
            psi, d1, _ = mills_psi_derivs(b[:, None] + slope * rule.nodes)
            return psi @ rule.weights, d1 @ rule.weights

        (psi, d1), (psi_ref, d1_ref) = sums(order), sums(128)
        d1_error = np.max(np.abs(d1 - d1_ref)) / math.sqrt(math.pi)
        return max(np.max(np.abs(psi / psi_ref - 1.0)), d1_error)

    def _slope_at(self, order, error):
        """The slope at which the ``order``-node rule's error reaches ``error``."""
        lo, hi = 1e-3, 2.0
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if self._error(order, mid) > error else (mid, hi)
        return lo

    @pytest.mark.parametrize("order, limit", _VOLUME_LADDER)
    def test_each_rung_resolves_its_slopes_below_rounding(self, order, limit):
        # the error grows like slope^p, p rising toward 2n as the slope falls;
        # p from the slopes where it reads 1e-11 and 1e-12 carries it from
        # 1e-12 below 1e-15 by the rung's limit
        c12, c11 = self._slope_at(order, 1e-12), self._slope_at(order, 1e-11)
        p = math.log(10.0) / math.log(c11 / c12)
        assert p <= 2 * order
        assert limit <= c12 * 1e-3 ** (1.0 / p)
        # at the limit the rule reads the kernel's rounding against order 128
        assert self._error(order, limit) <= 2e-14

    @given(
        slopes=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2).map(sorted),
        cap=st.integers(1, 128),
    )
    def test_order_never_falls_as_the_slope_rises(self, slopes, cap):
        low, high = (_volume_order(c, cap) for c in slopes)
        assert low <= high <= cap
        assert low in {n for n, _ in _VOLUME_LADDER} | {cap}

    def test_bench_law_records_a_small_order(self, spec_solution):
        (diag,) = spec_solution[1].metadata["diagnostics"]
        assert diag["volume_order"] == 4
        assert diag["quadrature_drift"] <= 1e-15

    def test_replay_law_records_a_larger_order(self):
        slope, order = _named_order("replay")
        assert slope == pytest.approx(0.67, abs=0.01)
        assert order == 32 > _named_order("bench")[1]

    @given(law=_laws())
    @example(law=NAMED_LAWS["bench"])
    @example(law=NAMED_LAWS["rho-0.9"])
    @example(law=NAMED_LAWS["steep"])
    @example(law=NAMED_LAWS["replay"])
    @settings(max_examples=8, deadline=None)
    def test_sized_solve_matches_order_80(self, law):
        params, price, volume, total = law
        _, table, pen = _two_stage(law)
        # the stage-1 top value against a fixed order-80 evaluation at its trade
        full = _make_penultimate(params, price, volume, pen.cap, min(total, pen.cap), 80, 80)
        solved = table.value_samples[0][-1, 1]
        oracle = full.objective(table.stages[0].trades[-1:], np.array([total]))[0]
        assert abs(solved - oracle) <= 1e-13 * abs(oracle)
        # the order is the one its largest slope sizes, and it never falls
        # below a named law's at a larger slope, nor rises above one at a
        # smaller slope
        slope, order = pen.volume_slope, table.metadata["diagnostics"][0]["volume_order"]
        assert order == _volume_order(slope, 40)
        for name in NAMED_LAWS:
            other_slope, other_order = _named_order(name)
            if other_slope <= slope:
                assert other_order <= order
            if other_slope >= slope:
                assert other_order >= order

    @pytest.mark.parametrize(
        "law, cap, order, doubled",
        [
            (NAMED_LAWS["bench"], 40, 4, 8),
            # at price 1 the far price nodes see the volume arm dominate their
            # scale while s_P does not, so the slope passes every rung and the
            # cap of 100 is the order; its double is capped at 128 nodes
            ((dataclasses.replace(SPEC_PARAMS, rho=0.95), 1.0, 5.0, 4.0), 100, 100, 128),
        ],
    )
    def test_resolve_and_drift_run_the_sized_order(self, monkeypatch, law, cap, order, doubled):
        made, drifts = [], []
        make, drift = liquidity._make_penultimate, liquidity._quadrature_drift

        def recorded_make(*args, **kw):
            pen = make(*args, **kw)
            made.append(pen.z_nodes.size)
            return pen

        def recorded_drift(*args):
            drifts.append(args[3:])
            return drift(*args)

        monkeypatch.setattr(liquidity, "_make_penultimate", recorded_make)
        monkeypatch.setattr(liquidity, "_quadrature_drift", recorded_drift)
        _, table, _ = _two_stage(law, RecursionConfig(grid_nodes=8, quad_order=cap))
        assert table.metadata["diagnostics"][0]["volume_order"] == order
        # the densest mesh's machinery at the cap, before the rule is sized;
        # the panel probe's machineries, the last of which runs the grid
        # pass and the re-solve; the re-solve's doubled check
        probe = made[1:-1]
        assert made == [cap, *probe, doubled]
        assert probe and set(probe) == {order}
        assert drifts == [(order, doubled)]


# The law on which 16 price-panel points fall furthest short: against 64-point
# panels its published stage T-1 values read 9.7e-10 at 16 points, 4.0e-13 at
# 24 and 1.8e-14 at 32.
WORST_PANEL_LAW = (
    Liquidity(alpha=0.019, theta=0.0245, gamma=0.0111, rho=0.82, sigma_eps=0.32, sigma_eta=4.5),
    134.4, 94.7, 27.45,
)


def _fixed_panels(monkeypatch, order):
    """Make the grid pass run ``order`` price-panel points, unprobed."""
    monkeypatch.setattr(liquidity, "_panel_order", lambda make, w_nodes: (order, make(order)))


def _stage_gap(table, full):
    """Worst relative gap of the published stage T-1 values and worst
    absolute gap of the table trades, against ``full``."""
    (_, v), (_, v_full) = table.value_samples[-2].T, full.value_samples[-2].T
    trades, trades_full = table.stages[-2].trades, full.stages[-2].trades
    return np.max(np.abs(v - v_full) / np.abs(v_full)), np.max(np.abs(trades - trades_full))


@st.composite
def _criterion_06_laws(draw):
    """Two-stage laws from the ranges of test_criterion_06's order check."""
    rho = draw(st.floats(0.5, 0.9))
    volume = draw(st.floats(40.0, 120.0))
    params = Liquidity(
        alpha=draw(st.floats(0.0, 0.02)),
        theta=draw(st.floats(0.02, 0.06)),
        gamma=draw(st.floats(0.005, 0.02)),
        rho=rho,
        sigma_eps=draw(st.floats(0.3, 1.5)),
        sigma_eta=draw(st.floats(4.0, 12.0)),
    )
    price = draw(st.floats(60.0, 140.0))
    return params, price, volume, rho**2 * volume * draw(st.floats(0.3, 0.8))


class TestPanelOrder:
    """Stage T-1 sizes the grid pass's price panels by a probe: the first
    rung of the ladder whose objective at the probe points agrees with the
    next rung's within 1e-14 relative."""

    @staticmethod
    def _probed(law, w_nodes, z_order):
        """The probe's choice, restated from its rule."""
        params, price, volume, total = law
        cap = params.rho * volume

        def machinery(order):
            return _make_penultimate(params, price, volume, cap, min(total, cap), order, z_order)

        points = liquidity._probe_points(machinery(_PANEL_LADDER[0]), w_nodes)
        values = [machinery(order).objective(*points) for order in _PANEL_LADDER]
        for order, value, finer in zip(_PANEL_LADDER, values, values[1:]):
            if np.all(np.abs(value - finer) <= 1e-14 * np.abs(finer)):
                return order
        return _PANEL_LADDER[-1]

    def test_legendre_rule_is_cached_and_read_only(self):
        nodes, weights = liquidity._leggauss_cached(10)
        assert liquidity._leggauss_cached(10)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("total", [16.0, 18.0, 20.0, 22.0])
    def test_bench_variants_take_at_most_10_points(self, total):
        cfg = bench_solve_config("liquidity", total)
        _, table = solve_liquidity(
            cli.build_model(cfg),
            cli.build_horizon(cfg),
            cli.build_state(cfg),
            cli.build_recursion_config(cfg),
        )
        assert table.metadata["diagnostics"][0]["panel_order"] <= 10

    def test_worst_law_reads_rounding_against_64_points(self, monkeypatch):
        cfg = RecursionConfig(quad_order=40)
        _, sized, _ = _two_stage(WORST_PANEL_LAW, cfg)
        _fixed_panels(monkeypatch, 64)
        _, full, _ = _two_stage(WORST_PANEL_LAW, cfg)
        _fixed_panels(monkeypatch, 16)
        _, sixteen, _ = _two_stage(WORST_PANEL_LAW, cfg)
        # 24 points read 4.0e-13, so the probe climbs past them
        assert sized.metadata["diagnostics"][0]["panel_order"] == 32
        assert _stage_gap(sized, full)[0] <= 5e-14
        assert _stage_gap(sixteen, full)[0] > 1e-10

    @given(law=_criterion_06_laws())
    @example(law=NAMED_LAWS["bench"])
    @example(law=NAMED_LAWS["rho-0.9"])
    @example(law=NAMED_LAWS["steep"])
    @example(law=NAMED_LAWS["replay"])
    @example(law=WORST_PANEL_LAW)
    # the scan trades alone read the first law at 12 points (1.5e-11): its
    # hard trades sit where A0 is near P' = 0; the second law needs 48
    # points (32 read 5.1e-13)
    @example(law=(
        Liquidity(alpha=0.0169, theta=0.0482, gamma=0.0153, rho=0.852, sigma_eps=1.414,
                  sigma_eta=6.3),
        126.7, 117.2, 30.63,
    ))
    @example(law=(
        Liquidity(alpha=0.006, theta=0.0593, gamma=0.00877, rho=0.846, sigma_eps=0.5455,
                  sigma_eta=10.15),
        115.9, 119.5, 54.25,
    ))
    # the top residual alone reads these two laws at 8 points; a 1e-12
    # agreement takes 12 points on the third
    @example(law=(
        Liquidity(alpha=0.0079, theta=0.0241, gamma=0.0156, rho=0.842, sigma_eps=0.412,
                  sigma_eta=8.0),
        79.6, 62.8, 29.98,
    ))
    @example(law=(
        Liquidity(alpha=0.0088, theta=0.0504, gamma=0.0153, rho=0.896, sigma_eps=0.766,
                  sigma_eta=9.08),
        66.7, 49.0, 16.8,
    ))
    @example(law=(
        Liquidity(alpha=0.0037, theta=0.0317, gamma=0.0158, rho=0.63, sigma_eps=1.13,
                  sigma_eta=8.02),
        95.9, 117.4, 17.85,
    ))
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    def test_sized_pass_matches_64_points(self, law):
        _, table, _ = _two_stage(law)
        with pytest.MonkeyPatch.context() as mp:
            _fixed_panels(mp, 64)
            _, full, _ = _two_stage(law)
        values_gap, trades_gap = _stage_gap(table, full)
        assert values_gap <= 5e-14
        assert trades_gap <= 1e-10
        diag = table.metadata["diagnostics"][0]
        w_nodes = table.value_samples[0][:, 0]
        assert diag["panel_order"] == self._probed(law, w_nodes, diag["volume_order"])

    @pytest.mark.parametrize(
        "law, T, grid",
        [
            *((law, 2, 8) for law in NAMED_LAWS.values()),
            (WORST_PANEL_LAW, 2, 8),
            (NAMED_LAWS["rho-0.9"], 3, 16),
            ((dataclasses.replace(SPEC_PARAMS, rho=0.95), 100.0, 60.0, 30.0), 4, 16),
        ],
        ids=[*NAMED_LAWS, "worst-panel", "rho-0.9-T3", "rho-0.95-T4"],
    )
    def test_reported_trade_matches_a_96_point_resolve(self, law, T, grid):
        # the reported stage T-1 trade is re-solved on the grid pass's sized
        # machinery; an oracle re-solves it at the same residual on 96-point
        # panels and 96 volume nodes
        params, price, volume, total = law
        state = MarketState(price, volume)
        cfg = RecursionConfig(grid_nodes=grid)
        sched, table = solve_liquidity(params, Horizon(T, total), state, cfg)
        decide = _certainty_equivalent_path(params, state, total / T, T)[T - 2]
        cap = table.metadata["volume_bounds"][T - 2]
        w = sched.residuals[T - 2]
        ub = min(w, cap)
        oracle = _make_penultimate(params, decide.price, decide.aux, cap, ub, 96, 96)
        s, _, _ = _resolve_stage(
            lambda x, idx: oracle.objective(x, w),
            lambda x, idx: oracle.objective_derivs(x, w),
            ub,
            liquidity._SCAN_POINTS,
        )
        assert abs(sched.trades[T - 2] - s) <= 2e-12


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

    @pytest.mark.xfail(
        strict=True,
        raises=InfeasibleLiquidityError,
        reason="ROADMAP item 1: no stage search takes the lower bound W minus the "
        "later volume bounds, so the terminal residual exceeds the stage 3 bound",
    )
    def test_an_order_within_the_summed_bounds_solves(self):
        # the certainty-equivalent bounds (25, 12.5, 6.25) sum to 43.75 > 30
        sched, table = solve_liquidity(SPEC_PARAMS, Horizon(3, 30.0), SPEC_STATE)
        bounds = table.metadata["volume_bounds"]
        assert bounds == (25.0, 12.5, 6.25)
        assert math.fsum(sched.trades) == pytest.approx(30.0, abs=1e-9)
        for s, b in zip(sched.trades, bounds):
            assert 0.0 <= s <= b + 1e-9


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
        return _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 16, 40)

    @staticmethod
    def _close(got, want):
        return np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_newton_carries_value_and_slope_at_its_result(self):
        from execsched.dp import _vec_newton

        pen, w = self._pen(), self.W
        ub = np.minimum(w, pen.cap)
        # brackets that pin some elements low, some high, and leave the rest free
        lo, hi = 0.3 * ub, 0.9 * ub
        s, report = _vec_newton(lambda x, idx: pen.objective_derivs(x, w[idx]), lo, hi)
        assert report.settled.all() and report.pinned.any() and not report.pinned.all()
        value, slope = report.carried
        assert self._close(value, pen.objective(s, w))
        assert self._close(slope, expected_terminal_slope(pen, s, w - s))

    def test_stage_pass_values_and_slopes_match_fresh_evaluations(self):
        pen, w = self._pen(), self.W
        s, v, vd, _, _ = liquidity._penultimate_pass(pen, w, 1)
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
            lambda x, idx: pen.objective(x, w[idx]) - 1e300, derivs, ub, 9
        )
        assert np.all(v == -1e300)
        assert calls[-1] == w.size
        _, slope = report.carried
        assert self._close(slope, expected_terminal_slope(pen, s, w - s))


def _solve_bits(*args):
    """A liquidity solve's trades, metadata, value samples and stage trades,
    as comparable values."""
    sched, table = solve_liquidity(*args)
    return (
        repr(sched.trades),
        repr(table.metadata),
        [v.tobytes() for v in table.value_samples],
        [stage.trades.tobytes() for stage in table.stages[:-1]],
    )


class TestBlockPool:
    """A solve runs its stage T-1 blocks one after another on its own thread,
    so ``width`` solves started at once each give the bits of the solve run
    alone."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_solve_at_order_80_is_width_invariant(self, width):
        # under the cap of 80 the spec law sizes its volume rule to 4 nodes;
        # at price 1 the volume lines are steep enough to take all 80
        cfg = RecursionConfig(quad_order=80)
        steep = (dataclasses.replace(SPEC_PARAMS, rho=0.95), Horizon(2, 4.0),
                 MarketState(price=1.0, aux=5.0))
        for args, order in (((SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE), 4), (steep, 80)):
            _, table = solve_liquidity(*args, cfg)
            assert table.metadata["diagnostics"][0]["volume_order"] == order
            alone = _solve_bits(*args, cfg)
            with ThreadPoolExecutor(width) as pool:
                at_once = list(pool.map(lambda a: _solve_bits(*a, cfg), [args] * width))
            assert at_once == [alone] * width

    def test_a_solve_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        before = threading.active_count()
        solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)
        assert started == [] and threading.active_count() == before

    @pytest.mark.parametrize("width", [1, 3])
    def test_an_error_in_one_block_leaves_the_solve(self, monkeypatch, width):
        # of ``width`` solves at once, the one that evaluates the 41st block
        # raises its error; the others finish with the bits of a lone solve
        args = (SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)
        alone = _solve_bits(*args)
        tensor = liquidity._Penultimate._tensor
        calls = itertools.count()

        def failing(self, s, r, nodes):
            if next(calls) == 40:
                raise SolverError("block 40 failed")
            return tensor(self, s, r, nodes)

        def solve(_):
            try:
                return _solve_bits(*args)
            except SolverError as err:
                return err

        monkeypatch.setattr(liquidity._Penultimate, "_tensor", failing)
        with ThreadPoolExecutor(width) as pool:
            results = list(pool.map(solve, range(width)))
        errors = [r for r in results if isinstance(r, Exception)]
        assert len(errors) == 1
        assert type(errors[0]) is SolverError and str(errors[0]) == "block 40 failed"
        assert [r for r in results if r is not errors[0]] == [alone] * (width - 1)

    def test_two_solves_at_once_give_the_sequential_bits(self):
        cfg = RecursionConfig(grid_nodes=16)

        def solve(horizon):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                sched, table = solve_liquidity(SPEC_PARAMS, horizon, SPEC_STATE, cfg)
            return (
                repr(sched.trades),
                repr(table.metadata),
                [v.tobytes() for v in table.value_samples],
                [stage.trades.tobytes() for stage in table.stages[:-1]],
            )

        horizons = (Horizon(2, 20.0), Horizon(3, 18.0))
        sequential = [solve(h) for h in horizons]
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(solve, horizons)) == sequential


class TestWorkspaces:
    """Stage T-1 blocks allocate their own arrays: the memory a call holds is
    one block's, bounded by ``_BLOCK_ELEMS`` whatever the call's size, and
    none of it outlives the solve."""

    @staticmethod
    def _multi_run_call(pen):
        w = np.repeat(np.geomspace(0.02, 20.0, 64), 9)
        trades = np.minimum(w, 25.0) * np.tile(np.linspace(0.0, 1.0, 9), 64)
        runs = pen._runs(trades, w)
        largest = max(s.size * (nodes.stop - nodes.start) for s, _, nodes in runs)
        # each block allocates several arrays of over half a block
        assert len(runs) > 1 and largest * pen.z_nodes.size > liquidity._BLOCK_ELEMS // 2
        return trades, w

    @pytest.mark.parametrize("method", ["objective", "objective_derivs"])
    def test_a_4x_call_peaks_within_a_block_more(self, method):
        pen = _make_penultimate(SPEC_PARAMS, 100.0, 50.0, 25.0, 20.0, 16, 40)
        trades, w = self._multi_run_call(pen)
        call = getattr(pen, method)
        call(trades, w)
        _, once = traced_peak(call, trades, w)
        _, four = traced_peak(call, np.tile(trades, 4), np.tile(w, 4))
        assert four - once < 6 * liquidity._BLOCK_ELEMS * 8

    def test_no_block_memory_outlives_a_solve(self):
        tracemalloc.start()
        try:
            solve_liquidity(SPEC_PARAMS, Horizon(2, 20.0), SPEC_STATE)
            traces = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        assert max((t.size for t in traces), default=0) < liquidity._BLOCK_ELEMS * 8
