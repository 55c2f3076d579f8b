"""Tests for the geometric-percentage-impact solver.

Frozen oracle values: single-stage costs were checked against a seeded
1e7-draw rejection Monte Carlo of the conditional premium (seed 20260814);
sigma_B=0.1 gave 89.22900329170106 +/- 0.0300076657180387 and sigma_B=0.3
gave 297.8329810025543 +/- 0.11544708565927511 against solver values
89.24077849911055 and 297.8825316783164 (0.39 and 0.43 standard errors).
"""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execsched import cli, gbm
from execsched.dp import _NEWTON_ITERS, Horizon, RecursionConfig, ResolutionWarning
from execsched.gbm import _stage_premium_derivs, solve_gbm_simple
from execsched.kernels import (
    MixtureRegimeError,
    _lognormal_shift_conditional,
    _lognormal_shift_derivs,
    _mixture_derivs_gh,
    _mixture_expectation_gh,
)
from execsched.models import LinearPercentage, MarketState
from support import (
    bench_solve_config,
    central_differences,
    lognormal_shift_oracle,
    mixture_ratio_oracle,
    percentage_stage_objective,
)

EPS = np.finfo(float).eps


def _params(**kw):
    base = dict(mu_B=0.0, sigma_B=0.1, theta=0.001, gamma=0.0, rho=0.0, sigma_eta=1.0)
    base.update(kw)
    return LinearPercentage(**base)


def _state(price=100.0, ref=100.0, aux=0.0):
    return MarketState(price=price, aux=aux, no_impact_price=ref)


class TestSingleStage:
    def test_forced_trade(self):
        sched, table = solve_gbm_simple(_params(), Horizon(1, 10.0), _state())
        assert sched.trades == (10.0,)
        assert table.stages[0].trade(10.0) == 10.0

    def test_value_matches_rejection_mc_low_vol(self):
        _, table = solve_gbm_simple(_params(sigma_B=0.1), Horizon(1, 10.0), _state())
        v = table.value_samples[0][-1, 1]
        assert v == pytest.approx(89.24077849911055, rel=1e-12)
        assert abs(v - 89.22900329170106) <= 3.0 * 0.0300076657180387

    def test_value_matches_rejection_mc_high_vol(self):
        _, table = solve_gbm_simple(_params(sigma_B=0.3), Horizon(1, 10.0), _state())
        v = table.value_samples[0][-1, 1]
        assert v == pytest.approx(297.8825316783164, rel=1e-12)
        assert abs(v - 297.8329810025543) <= 3.0 * 0.11544708565927511

    def test_degenerate_collapse(self):
        # vanishing volatility, impact, and drift pin the premium at zero;
        # the only residue is the sigma_B*phi/Phi floor of the Mills form
        p = _params(sigma_B=1e-9, theta=1e-12)
        _, table = solve_gbm_simple(p, Horizon(1, 10.0), _state())
        assert table.value_samples[0][-1, 1] == pytest.approx(0.0, abs=1e-5)

    def test_price_below_reference_discounts_cost(self):
        # P < P~ means part of the premium is already paid back by the gap
        _, rich = solve_gbm_simple(_params(), Horizon(1, 10.0), _state(price=100.0))
        _, cheap = solve_gbm_simple(_params(), Horizon(1, 10.0), _state(price=101.0))
        assert cheap.value_samples[0][-1, 1] < rich.value_samples[0][-1, 1]


class TestMultiStage:
    def test_two_stage_matches_frozen_model_brute_force(self):
        # frozen scalar minimization of the solver's own objective (stage
        # premium at ratio 1 plus e-factor-discounted continuation at the
        # provisional ratio): argmin 3.8898 at mu_B=5e-4; the sampled
        # regression objective lands within 2e-3 of it
        p = _params(mu_B=5e-4, sigma_B=0.05)
        sched, _ = solve_gbm_simple(p, Horizon(2, 10.0), _state())
        assert sched.trades[0] == pytest.approx(3.8898, abs=5e-3)
        assert math.fsum(sched.trades) == pytest.approx(10.0, abs=1e-9)

    def test_policy_agrees_with_schedule_at_the_top_node(self):
        p = _params(mu_B=5e-4, sigma_B=0.05)
        sched, table = solve_gbm_simple(p, Horizon(2, 10.0), _state())
        assert table.stages[0].trade(10.0) == pytest.approx(sched.trades[0], rel=1e-9)

    def test_three_stage_sums_and_stays_positive(self):
        sched, table = solve_gbm_simple(_params(sigma_B=0.05), Horizon(3, 10.0), _state())
        assert math.fsum(sched.trades) == pytest.approx(10.0, abs=1e-9)
        assert all(s >= 0.0 for s in sched.trades)
        assert table.horizon_length == 3

    def test_deterministic_across_runs(self):
        p = _params(sigma_B=0.05, gamma=0.002, rho=0.4, sigma_eta=0.5)
        s1, t1 = solve_gbm_simple(p, Horizon(3, 10.0), _state())
        s2, t2 = solve_gbm_simple(p, Horizon(3, 10.0), _state())
        assert s1.trades == s2.trades
        for a, b in zip(t1.value_samples, t2.value_samples):
            np.testing.assert_array_equal(a, b)

    def test_auxiliary_state_matters_when_gamma_set(self):
        p = _params(sigma_B=0.05, gamma=0.01, rho=0.5, sigma_eta=0.5)
        hot, _ = solve_gbm_simple(p, Horizon(2, 10.0), _state(aux=2.0))
        cold, _ = solve_gbm_simple(p, Horizon(2, 10.0), _state(aux=-2.0))
        assert hot.trades[0] != pytest.approx(cold.trades[0], rel=1e-6)

    def test_value_samples_nonnegative(self):
        p = _params(sigma_B=0.05, gamma=0.002, rho=0.4, sigma_eta=0.5)
        _, table = solve_gbm_simple(p, Horizon(3, 10.0), _state())
        for samp in table.value_samples:
            assert np.all(samp[:, 1] >= 0.0)

    @pytest.mark.parametrize("gamma, x0", [(0.05, 0.0), (-0.05, 0.5)])
    def test_mirrored_state_solves_the_same_law(self, gamma, x0):
        # the price reads X only through gamma*X, and eta is symmetric, so
        # (gamma, X) -> (-gamma, -X) leaves the law unchanged; a negative
        # gamma must solve like its mirror
        horizon = Horizon(3, 10.0)
        solved = [
            solve_gbm_simple(_params(gamma=g, rho=0.5), horizon, _state(aux=x))
            for g, x in ((gamma, x0), (-gamma, -x0))
        ]
        (sched, table), (mirror, mirror_table) = solved
        gap = np.abs(np.subtract(sched.trades, mirror.trades))
        assert gap.max() <= 1e-9 * horizon.total_shares
        v, v_mirror = table.value_samples[0][:, 1], mirror_table.value_samples[0][:, 1]
        np.testing.assert_allclose(v, v_mirror, rtol=1e-12, atol=0.0)


class TestValidation:
    def test_requires_no_impact_price(self):
        with pytest.raises(ValueError):
            solve_gbm_simple(_params(), Horizon(1, 10.0), MarketState(price=100.0))

    def test_nonpositive_ratio_raises_mixture_error(self):
        # a nonpositive price ratio breaks the conditional-premium regime
        # (the premium would be positive almost surely); the failure carries
        # the stage that produced it
        with pytest.raises(MixtureRegimeError, match="stage"):
            solve_gbm_simple(
                _params(), Horizon(1, 10.0), MarketState(price=-100.0, no_impact_price=100.0)
            )

    def test_non_finite_continuation_fails_loudly(self):
        nodes = np.array([0.0, 1.0, 2.0, 4.0])
        v_grid = np.array([[0.0], [0.5], [math.nan], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            gbm._fit_continuation(
                _params(), nodes, v_grid, np.array([0.0]), np.array([0.0, 0.1])
            )

    def test_metadata_describes_the_run(self):
        _, table = solve_gbm_simple(_params(), Horizon(2, 10.0), _state())
        md = table.metadata
        assert md["model"] == "linear_percentage"
        assert md["formulation"] == "simple"
        assert md["method"] == "regression-recursion"
        assert md["price_ratio"] == pytest.approx(1.0)

    def test_respects_grid_config(self):
        _, table = solve_gbm_simple(
            _params(sigma_B=0.05), Horizon(2, 10.0), _state(), RecursionConfig(grid_nodes=16)
        )
        assert table.value_samples[0].shape == (16, 2)

    def test_diagnostics_report_newton_iterations_per_stage(self):
        cfg = RecursionConfig(grid_nodes=16)
        _, table = solve_gbm_simple(_params(), Horizon(3, 10.0), _state(aux=0.2), cfg)
        diags = table.metadata["diagnostics"]
        assert [d["stage"] for d in diags] == [1, 2]
        for d in diags:
            assert set(d) == {
                "stage", "newton_iterations", "max_abs_foc", "pinned_nodes", "unsettled_nodes",
                "convex", "schedule_iterations", "quadrature_drift",
            }
            # gamma = 0: the premium is the closed lognormal form, whatever the order
            assert d["quadrature_drift"] == 0.0
            assert d["unsettled_nodes"] == 0
            assert 0 < d["newton_iterations"] < _NEWTON_ITERS
            assert math.isfinite(d["max_abs_foc"])
            assert 0 < d["schedule_iterations"] < _NEWTON_ITERS
            assert d["convex"] is True


class TestQuadratureDrift:
    # The order-40 Gauss-Hermite premium is under-resolved when gamma*sigma_eta
    # is small next to sigma_B; the re-solve reports the drift of its
    # objective at doubled order and warns above 1e-6.
    def test_under_resolved_premium_is_flagged(self):
        pct = LinearPercentage(mu_B=0.0, sigma_B=0.02, theta=0.001, gamma=0.002, rho=0.5,
                               sigma_eta=1.0)
        with pytest.warns(ResolutionWarning) as record:
            _, table = solve_gbm_simple(pct, Horizon(4, 10.0), _state(aux=0.1))
        drifts = [d["quadrature_drift"] for d in table.metadata["diagnostics"]]
        assert len(drifts) == 3 and min(drifts) > 1e-6
        assert [str(w.message) for w in record] == [
            f"stage {t} objective moved {d:.3e} relative under quadrature order doubling "
            "(40->80); increase quad_order"
            for t, d in enumerate(drifts, start=1)
        ]

    def test_warning_points_at_the_caller(self):
        pct = _params(sigma_B=0.02, gamma=0.002, rho=0.5)
        cfg = RecursionConfig(grid_nodes=16)
        with pytest.warns(ResolutionWarning) as record:
            solve_gbm_simple(pct, Horizon(2, 10.0), _state(aux=0.1), cfg)
            line = sys._getframe().f_lineno - 1
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_resolved_premium_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionWarning)
            _, table = solve_gbm_simple(
                _params(gamma=0.07, rho=0.5), Horizon(3, 10.0), _state(),
                RecursionConfig(grid_nodes=16),
            )
        assert all(0.0 <= d["quadrature_drift"] <= 1e-9 for d in table.metadata["diagnostics"])

    def test_doubled_order_is_capped_at_the_largest_rule(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionWarning)
            _, table = solve_gbm_simple(
                _params(gamma=0.002, sigma_B=0.02, rho=0.5), Horizon(2, 10.0), _state(),
                RecursionConfig(grid_nodes=16, quad_order=128),
            )
        assert table.metadata["diagnostics"][0]["quadrature_drift"] == 0.0


class TestPremiumDerivatives:
    # Domain: the price ratio k stays near -1 and mu_Y >= 1, so wherever
    # X > 0.02 the cut c = -k*e^-X lies below mu_Y and P(Y > c) >= 1/2; X
    # exceeds 0.02 with probability >= Phi(-1.5) > 0.06, so the conditioning
    # probability (the denominator) stays above 0.03.
    @given(
        mu_x=st.floats(-0.01, 0.01),
        sig_x=st.floats(0.02, 0.3),
        mu_y=st.floats(1.0, 1.1),
        sig_y=st.floats(0.001, 0.1),
        k=st.floats(-1.02, -0.98),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixture_branch_matches_central_differences(self, mu_x, sig_x, mu_y, sig_y, k):
        order = 64
        value, d1, d2 = _mixture_derivs_gh(mu_x, sig_x, mu_y, sig_y, k, order)
        assert value == mixture_ratio_oracle(mu_x, sig_x, mu_y, sig_y, k, order)
        assert _mixture_expectation_gh(mu_x, sig_x, mu_y, sig_y, k, order) == value

        def f(m):
            return float(mixture_ratio_oracle(mu_x, sig_x, m, sig_y, k, order))

        def f1(m):
            return float(_mixture_derivs_gh(mu_x, sig_x, m, sig_y, k, order)[1])

        # rounding: the numerator sums `order` terms no larger than
        # E[e^X](|mu_Y| + sig_Y) + |k|, the derivative's sums also terms up
        # to phi(0)/sig_Y, and each quotient divides by a denominator above
        # 0.03; every node's P(Y > c) turns over on the scale sig_Y in mu_Y
        scale = math.exp(mu_x + 0.5 * sig_x**2 + 3.0 * sig_x) * (mu_y + sig_y) + abs(k)
        noise = 4.0 * order * EPS * scale / 0.03
        noise1 = 4.0 * order * EPS * scale * (1.0 + 0.4 / sig_y) / 0.03**2
        h = 1e-2 * sig_y
        fd1, tol1, _, _ = central_differences(f, mu_y, h, 10.0 * h, noise)
        fd2, tol2, _, _ = central_differences(f1, mu_y, h, 10.0 * h, noise1)
        assert abs(d1 - fd1) <= tol1
        assert abs(d2 - fd2) <= tol2

    @given(
        mu_x=st.floats(-0.01, 0.01),
        sig_x=st.floats(0.02, 0.3),
        c=st.floats(1.0, 1.1),
        k=st.floats(-1.02, -0.98),
    )
    @settings(max_examples=60, deadline=None)
    def test_gamma_zero_branch_matches_central_differences(self, mu_x, sig_x, c, k):
        value, d1, d2 = _lognormal_shift_derivs(mu_x, sig_x, c, k)
        assert value == lognormal_shift_oracle(mu_x, sig_x, c, k)
        assert _lognormal_shift_conditional(mu_x, sig_x, c, k) == value

        def f(m):
            return float(lognormal_shift_oracle(mu_x, sig_x, m, k))

        def f1(m):
            return float(_lognormal_shift_derivs(mu_x, sig_x, m, k)[1])

        # a handful of operations on terms of size E[e^X]*c + |k| (and
        # phi(0)/(c*sig_X) in the derivative) over a probability above 0.06:
        # the event {X > log(-k/c)} contains X > 0.02; the conditional turns
        # over on the scale c*sig_X in c
        scale = math.exp(mu_x + 0.5 * sig_x**2) * c + abs(k)
        noise = 16.0 * EPS * scale / 0.06
        noise1 = 16.0 * EPS * scale * (1.0 + 0.4 / sig_x) / 0.06**2
        h = 1e-2 * sig_x
        fd1, tol1, _, _ = central_differences(f, c, h, 10.0 * h, noise)
        fd2, tol2, _, _ = central_differences(f1, c, h, 10.0 * h, noise1)
        assert abs(d1 - fd1) <= tol1
        assert abs(d2 - fd2) <= tol2


class TestGlobalMinimum:
    def test_every_official_node_beats_a_dense_scan(self, monkeypatch):
        # the bench linear_percentage config; every stage's grid solve is
        # recorded and, at the official nodes and every X sample, its value
        # must not exceed the minimum of a 401-point scan of its objective
        cfg = bench_solve_config("linear_percentage", 0.05)
        params, horizon = cli.build_model(cfg), cli.build_horizon(cfg)
        state, rc = cli.build_state(cfg), cli.build_recursion_config(cfg) or RecursionConfig()
        calls = []
        minimize = gbm._minimize_stage

        def recorded(*args):
            out = minimize(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(gbm, "_minimize_stage", recorded)
        _, table = solve_gbm_simple(params, horizon, state, rc)
        official = table.value_samples[0][:, 0]
        # the forced last stage is no grid solve
        assert len(calls) == horizon.T - 1
        frac = np.linspace(0.0, 1.0, 401)
        for (_, w, x, ratio, cont, e_fac, _, _), (_, v, _) in calls:
            at = np.flatnonzero(np.isin(w, official))
            assert at.size == official.size and x.size == cont.c.shape[-1]
            # (node, X sample) pairs, X fastest, as v[at] ravels
            w_at, x_at = (a.ravel() for a in np.meshgrid(w[at], x, indexing="ij"))
            col = np.tile(np.arange(x.size), at.size)
            s = w_at[:, None] * frac
            r = np.minimum(np.clip(w_at[:, None] - s, 0.0, None), cont.x[-1])
            prem = _stage_premium_derivs(params, s, x_at[:, None], ratio, rc.quad_order)[0]
            scan = s * prem + e_fac * cont.value(r, col[:, None])
            assert np.all(v[at].ravel() <= scan.min(axis=1) * (1.0 + 1e-12))


def _grid_stage_calls(monkeypatch, cfg):
    """Solve ``cfg`` and return the arguments and results of its grid stages."""
    params, horizon = cli.build_model(cfg), cli.build_horizon(cfg)
    state, rc = cli.build_state(cfg), cli.build_recursion_config(cfg) or RecursionConfig()
    calls = []
    minimize = gbm._minimize_stage

    def recorded(*args):
        out = minimize(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(gbm, "_minimize_stage", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        solve_gbm_simple(params, horizon, state, rc)
    return calls


def _flat_stage(args):
    """A grid stage's flat (w, x, col) pairs and _stage_objective's callable over them."""
    params, w, x, ratio, cont, e_fac, order, _ = args
    w_flat, x_flat = (a.ravel() for a in np.meshgrid(w, x, indexing="ij"))
    col = np.tile(np.arange(x.size), w.size)
    foc = gbm._stage_objective(params, w_flat, x_flat, col, ratio, cont, e_fac, order)
    return w_flat, x_flat, col, foc


class TestEvaluateOnce:
    @pytest.mark.parametrize("gamma", [0.05, 0.0])
    def test_newton_carries_the_objective_bit_for_bit(self, monkeypatch, gamma):
        from execsched.dp import _vec_newton

        cfg = bench_solve_config("linear_percentage", 0.05)
        cfg["params"]["gamma"] = gamma
        calls = _grid_stage_calls(monkeypatch, cfg)
        assert calls
        for args, (s_grid, v_grid, _) in calls:
            params, _, _, ratio, cont, e_fac, order, _ = args
            w_flat, x_flat, col, foc = _flat_stage(args)
            s, report = _vec_newton(foc, np.zeros_like(w_flat), w_flat)
            assert np.array_equal(s, s_grid.ravel())
            (value,) = report.carried
            plain = percentage_stage_objective(
                params, s, w_flat, x_flat, col, ratio, cont, e_fac, order
            )
            assert np.array_equal(value.view(np.uint64), plain.view(np.uint64))
            assert np.array_equal(v_grid.ravel().view(np.uint64), value.view(np.uint64))

    def test_grid_stages_stop_at_the_rounding_floor(self, monkeypatch):
        # each grid stage of the bench law evaluates its first-order condition
        # at most 12 times, bracket ends included; stopping only on an
        # unchanged iterate took 18 to 23 here, bisecting the noise of f
        counts = []
        newton = gbm._vec_newton

        def counted(f_and_fp, lo, hi):
            calls = []

            def f(x, idx):
                calls.append(idx.size)
                return f_and_fp(x, idx)

            out = newton(f, lo, hi)
            counts.append(len(calls))
            return out

        monkeypatch.setattr(gbm, "_vec_newton", counted)
        _grid_stage_calls(monkeypatch, bench_solve_config("linear_percentage", 0.05))
        assert len(counts) == 4 and max(counts) <= 12

    def test_s_zero_end_runs_the_mixture_once_per_state(self, monkeypatch):
        import execsched.kernels as kernels

        calls = _grid_stage_calls(monkeypatch, bench_solve_config("linear_percentage", 0.05))
        pieces = kernels._mixture_pieces
        for args, _ in calls:
            x, order = args[2], args[6]
            w_flat, _, _, foc = _flat_stage(args)
            sizes = []

            def counted(xv, mu_y, sig_y, k, **kwargs):
                sizes.append(np.broadcast(xv, mu_y, sig_y, k).size)
                return pieces(xv, mu_y, sig_y, k, **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(kernels, "_mixture_pieces", counted)
                foc(np.zeros_like(w_flat), np.arange(w_flat.size))
            assert w_flat.size > x.size
            # one mean per X sample; a lone one runs as two (see the kernel call)
            assert sum(sizes) == max(x.size, 2) * order

    @pytest.mark.parametrize(
        "sig_y, s, x",
        [
            # move() below hands back alpha = x, so mu_Y = theta*s + x repeats
            # where (s, x) does; -0.0 + -0.0 is the one sum that gives -0.0
            (
                0.04,
                [-0.0, 0.0, -0.0, 2.0, 2.0, 0.0, 5.0, -0.0],
                [-0.0, -0.0, 0.0, 0.9, 0.9, 1.1, 0.9, -0.0],
            ),
            (0.04, [0.0] * 5, [0.9] * 5),  # one distinct mean
            (0.04, [3.0], [0.9]),
            # the lognormal limit needs mu_Y > 0
            (0.0, [0.0, 2.0, 2.0, 0.0, 5.0, 0.0], [1.0, 0.9, 0.9, 1.0, 0.9, 1.1]),
            (0.0, [1.0] * 3, [1.0] * 3),
        ],
    )
    def test_distinct_means_match_the_whole_array_bit_for_bit(self, sig_y, s, x):
        from types import SimpleNamespace

        law = SimpleNamespace(mu_B=0.0, sigma_B=0.1, move=lambda ratio, x: (0.01, x, sig_y))
        s, x = np.array(s), np.array(x)
        got = gbm._stage_premium_derivs(law, s, x, 0.98, 40)
        # the kernel's batch bits: numpy sums a lone column pairwise, so a
        # one-element call is held to the same mean run twice
        mu_y = np.resize(0.01 * s + x, max(s.size, 2))
        if sig_y:
            prem, d1, d2 = _mixture_derivs_gh(0.0, 0.1, mu_y, sig_y, -0.98, 40)
        else:
            prem, d1, d2 = _lognormal_shift_derivs(0.0, 0.1, mu_y, -0.98)
        prem, d1, d2 = (a[: s.size] for a in (prem, d1, d2))
        for a, b in zip(got, (prem, 0.01 * d1, 0.01 * 0.01 * d2)):
            assert a.shape == s.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
