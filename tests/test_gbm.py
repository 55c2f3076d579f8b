"""Tests for the geometric-percentage-impact solver.

Frozen oracle values: single-stage costs were checked against a seeded
1e7-draw rejection Monte Carlo of the conditional premium (seed 20260814);
sigma_B=0.1 gave 89.22900329170106 +/- 0.0300076657180387 and sigma_B=0.3
gave 297.8329810025543 +/- 0.11544708565927511 against solver values
89.24077849911055 and 297.8825316783164 (0.39 and 0.43 standard errors).
"""
import math
import warnings

import numpy as np
import pytest

from execsched.dp import Horizon, RecursionConfig
from execsched.gbm import solve_gbm_simple
from execsched.kernels import MixtureRegimeError
from execsched.models import LinearPercentage, MarketState


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

    def test_diagnostics_report_golden_iterations_per_stage(self):
        cfg = RecursionConfig(grid_nodes=16)
        _, table = solve_gbm_simple(_params(), Horizon(3, 10.0), _state(aux=0.2), cfg)
        diags = table.metadata["diagnostics"]
        assert [d["stage"] for d in diags] == [1, 2]
        for d in diags:
            assert 0 < d["golden_iterations"] < cfg.golden_iters
            assert 0 < d["schedule_iterations"] < cfg.golden_iters
