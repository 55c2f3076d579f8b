"""Attribution tests.

Worked examples use integer-valued prices and quantities so every product
and sum is exact in binary floating point; the telescoping identities then
hold bitwise, not just to tolerance.  Randomized balanced fill sets check
the zero-sum property against the audit's own notional-scaled tolerance.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execsched import attribution
from execsched.attribution import (
    FORMULATIONS,
    AttributionReport,
    Fill,
    OrderContext,
    UnbalancedIntervalError,
    ZeroSumAudit,
    _adverse_moves,
    _FillColumns,
    _order_sums,
    _residual_ladder,
    attribute,
    impact_complex,
    impact_simple,
    path_costs,
    shortfall,
    timing,
    zero_sum_audit,
)
from execsched.fills import _parse_fills
from support import balanced_market, traced_peak


def _buy(t, price, qty, who="self"):
    return Fill(t=t, price=price, qty=qty, side="buy", participant=who)


def _sell(t, price, qty, who="other"):
    return Fill(t=t, price=price, qty=qty, side="sell", participant=who)


def _ctx(path, total=None):
    path = tuple(float(p) for p in path)
    if total is None:
        total = 10.0
    return OrderContext(
        arrival_price=path[0],
        total_shares=float(total),
        horizon=len(path) - 1,
        price_path=path,
    )


class TestShortfall:
    def test_single_fill_one_point_move(self):
        ctx = _ctx([100.0, 101.0])
        assert shortfall(ctx, [_buy(1, 101.0, 10.0)]) == 10.0

    def test_all_fills_at_arrival(self):
        ctx = _ctx([100.0, 100.0, 100.0])
        fills = [_buy(1, 100.0, 4.0), _buy(2, 100.0, 6.0)]
        assert shortfall(ctx, fills) == 0.0

    def test_symmetric_cancellation(self):
        ctx = _ctx([100.0, 101.0, 99.0], total=100.0)
        fills = [_buy(1, 101.0, 50.0), _buy(2, 99.0, 50.0)]
        assert shortfall(ctx, fills) == 0.0

    def test_sell_is_sign_flipped(self):
        ctx = _ctx([100.0, 99.0, 97.0])
        fills = [_sell(1, 99.0, 4.0), _sell(2, 97.0, 6.0)]
        assert shortfall(ctx, fills) == 22.0

    def test_matches_per_interval_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = int(rng.integers(1, 7))
            path = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, T + 1)))
            path[0] = 100.0
            qty = rng.uniform(0.5, 5.0, T)
            fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(T)]
            ctx = _ctx(path, total=float(qty.sum()))
            expanded = math.fsum(q * (p - 100.0) for q, p in zip(qty, path[1:]))
            assert shortfall(ctx, fills) == pytest.approx(expanded, rel=1e-12, abs=1e-12)

    def test_quantity_mismatch_rejected(self):
        ctx = _ctx([100.0, 101.0])
        with pytest.raises(ValueError, match="order total"):
            shortfall(ctx, [_buy(1, 101.0, 9.0)])

    def test_fill_uses_its_own_price(self):
        # Fill away from the path moves shortfall but not the path steps.
        ctx = _ctx([100.0, 101.0])
        assert shortfall(ctx, [_buy(1, 101.5, 10.0)]) == 15.0
        assert impact_simple(ctx, [_buy(1, 101.5, 10.0)]) == 10.0


class TestImpactSimple:
    def test_up_then_down(self):
        ctx = _ctx([100.0, 101.0, 100.5], total=20.0)
        fills = [_buy(1, 101.0, 10.0), _buy(2, 100.5, 10.0)]
        assert impact_simple(ctx, fills) == 10.0

    def test_monotone_up(self):
        ctx = _ctx([100.0, 101.0, 102.0], total=20.0)
        fills = [_buy(1, 101.0, 10.0), _buy(2, 102.0, 10.0)]
        assert impact_simple(ctx, fills) == 20.0

    def test_flat_path(self):
        ctx = _ctx([100.0, 100.0, 100.0])
        fills = [_buy(1, 100.0, 5.0), _buy(2, 100.0, 5.0)]
        assert impact_simple(ctx, fills) == 0.0

    def test_sell_counts_down_steps(self):
        ctx = _ctx([100.0, 99.0, 97.0])
        fills = [_sell(1, 99.0, 4.0), _sell(2, 97.0, 6.0)]
        assert impact_simple(ctx, fills) == 4.0 + 12.0

    def test_monotone_timing_expansion(self):
        # On an all-up path: timing = sum over t>=2 of S_t * (P_{t-1} - P_0).
        path = [100.0, 101.0, 103.0, 106.0]
        qty = [2.0, 3.0, 5.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(3)]
        expected = 3.0 * (101.0 - 100.0) + 5.0 * (103.0 - 100.0)
        assert timing(ctx, fills, "simple") == expected


class TestImpactComplex:
    def test_monotone_up_timing_is_exactly_zero(self):
        path = [100.0, 101.0, 103.0, 106.0]
        qty = [2.0, 3.0, 5.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(3)]
        assert impact_complex(ctx, fills) == 41.0
        assert timing(ctx, fills, "complex") == 0.0

    def test_single_interval_equals_simple(self):
        ctx = _ctx([100.0, 101.0])
        fills = [_buy(1, 101.0, 10.0)]
        assert impact_complex(ctx, fills) == impact_simple(ctx, fills) == 10.0

    def test_dip_case_timing_identity(self):
        # Up, two down-steps, then up: timing collects the residual-weighted
        # down-steps W_2*(P_2-P_1) + W_3*(P_3-P_2).
        path = [100.0, 103.0, 101.0, 99.0, 104.0]
        qty = [4.0, 3.0, 2.0, 1.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(4)]
        w2, w3 = 6.0, 3.0
        expected = w2 * (101.0 - 103.0) + w3 * (99.0 - 101.0)
        assert abs(timing(ctx, fills, "complex") - expected) <= 1e-12
        assert timing(ctx, fills, "complex") == -18.0

    def test_charges_intervals_with_no_fill(self):
        # Nothing trades at t=2 but W_2 > 0, so the up-step there still costs.
        path = [100.0, 101.0, 102.0, 103.0]
        ctx = _ctx(path)
        fills = [_buy(1, 101.0, 6.0), _buy(3, 103.0, 4.0)]
        assert impact_complex(ctx, fills) == 10.0 * 1.0 + 4.0 * 1.0 + 4.0 * 1.0

    def test_residual_weight_exceeds_trade_weight_early(self):
        path = [100.0, 102.0, 101.0, 103.0]
        qty = [2.0, 5.0, 3.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(3)]
        assert impact_complex(ctx, fills) >= impact_simple(ctx, fills)


class TestPathCosts:
    def test_matches_record_level_for_path_priced_fills(self):
        path = [100.0, 103.0, 101.0, 99.0, 104.0]
        qty = [4.0, 3.0, 2.0, 1.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t]) for t in range(4)]
        for formulation in ("simple", "complex"):
            sf, imp, tim = path_costs(path, qty, "buy", formulation)
            assert sf == shortfall(ctx, fills)
            if formulation == "simple":
                assert imp == impact_simple(ctx, fills)
            else:
                assert imp == impact_complex(ctx, fills)
            assert tim == timing(ctx, fills, formulation)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(11)
        paths = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (6, 5)), axis=1))
        paths = np.concatenate([np.full((6, 1), 100.0), paths], axis=1)
        trades = rng.uniform(0.0, 3.0, (6, 5))
        sf, imp, tim = path_costs(paths, trades, "buy", "complex")
        for i in range(6):
            row = path_costs(paths[i], trades[i], "buy", "complex")
            assert (sf[i], imp[i], tim[i]) == row

    def test_zero_trade_rows_cost_nothing_simple(self):
        paths = np.array([[100.0, 101.0, 99.0]])
        trades = np.zeros((1, 2))
        sf, imp, tim = path_costs(paths, trades, "buy", "simple")
        assert sf[0] == imp[0] == tim[0] == 0.0

    def test_rejects_negative_trades_and_bad_shapes(self):
        with pytest.raises(ValueError, match=">= 0"):
            path_costs([100.0, 101.0], [-1.0])
        with pytest.raises(ValueError, match="one more column"):
            path_costs([100.0, 101.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="side"):
            path_costs([100.0, 101.0], [1.0], side="short")
        with pytest.raises(ValueError, match="formulation"):
            path_costs([100.0, 101.0], [1.0], formulation="both")
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="price_path must be finite"):
                path_costs([100.0, bad], [1.0])
            with pytest.raises(ValueError, match="trades must be finite"):
                path_costs([100.0, 101.0], [bad])
        # liquidity paths can reach zero or below; those prices stay legal
        assert path_costs([100.0, 0.0, -5.0], [1.0, 1.0]) == (-205.0, 0.0, -205.0)

    @given(
        st.lists(st.floats(90.0, 110.0), min_size=2, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_impact_nonnegative_and_decomposition_exact(self, prices, seed):
        path = np.asarray(prices)
        T = path.size - 1
        qty = np.random.default_rng(seed).uniform(0.0, 4.0, T)
        for formulation in ("simple", "complex"):
            costs = {side: path_costs(path, qty, side, formulation) for side in ("buy", "sell")}
            for sf, imp, tim in costs.values():
                assert imp >= 0.0
                assert tim == sf - imp
            # the two sides of the same trades cancel: shortfalls exactly, and
            # impact plus timing up to the rounding of each timing subtraction
            (buy_sf, buy_imp, buy_tim), (sell_sf, sell_imp, sell_tim) = costs.values()
            assert buy_sf == -sell_sf
            net = buy_imp + buy_tim + sell_imp + sell_tim
            assert abs(net) <= 1e-12 * path[0] * qty.sum()


class TestAttribute:
    def test_report_fields(self):
        path = [100.0, 103.0, 101.0, 99.0, 104.0]
        qty = [4.0, 3.0, 2.0, 1.0]
        ctx = _ctx(path)
        fills = [_buy(t + 1, path[t + 1], qty[t], who="desk-a") for t in range(4)]
        report = attribute(ctx, fills, "complex")
        assert report.participant == "desk-a"
        assert report.side == "buy"
        assert report.formulation == "complex"
        assert report.shortfall == 17.0
        assert report.impact == 35.0
        assert report.timing == -18.0
        assert report.reference_value == 1000.0
        assert report.shortfall_bps == pytest.approx(1e4 * 17.0 / 1000.0, rel=1e-15)
        assert report.impact_bps == pytest.approx(1e4 * 35.0 / 1000.0, rel=1e-15)
        assert report.timing_bps == pytest.approx(-1e4 * 18.0 / 1000.0, rel=1e-15)

    def test_report_rejects_broken_identity(self):
        with pytest.raises(ValueError, match="exactly"):
            AttributionReport(
                participant="x",
                side="buy",
                formulation="simple",
                shortfall=10.0,
                impact=4.0,
                timing=5.0,
                shortfall_bps=1.0,
                impact_bps=0.4,
                timing_bps=0.5,
                reference_value=1e5,
            )


class TestValidation:
    def test_fill_rejects_bad_fields(self):
        for kwargs in (
            dict(t=0, price=100.0, qty=1.0, side="buy"),
            dict(t=True, price=100.0, qty=1.0, side="buy"),
            dict(t=1, price=0.0, qty=1.0, side="buy"),
            dict(t=1, price=100.0, qty=0.0, side="buy"),
            dict(t=1, price=100.0, qty=1.0, side="hold"),
            dict(t=1, price=100.0, qty=1.0, side="buy", participant=""),
        ):
            with pytest.raises(ValueError):
                Fill(**kwargs)

    def test_context_rejects_bad_paths(self):
        with pytest.raises(ValueError, match="P_0..P_T"):
            OrderContext(100.0, 10.0, 2, (100.0, 101.0))
        with pytest.raises(ValueError, match="arrival_price"):
            OrderContext(100.0, 10.0, 1, (101.0, 102.0))
        with pytest.raises(ValueError, match="finite and > 0"):
            OrderContext(100.0, 10.0, 1, (100.0, -1.0))
        with pytest.raises(ValueError, match="horizon"):
            OrderContext(100.0, 10.0, 0, (100.0,))

    def test_fill_outside_horizon(self):
        ctx = _ctx([100.0, 101.0])
        with pytest.raises(ValueError, match="outside the horizon"):
            shortfall(ctx, [_buy(2, 101.0, 10.0)])

    def test_mixed_sides_rejected(self):
        ctx = _ctx([100.0, 101.0])
        with pytest.raises(ValueError, match="one order at a time"):
            shortfall(ctx, [_buy(1, 101.0, 5.0), _sell(1, 101.0, 5.0, who="self")])

    def test_empty_fills_rejected(self):
        ctx = _ctx([100.0, 101.0])
        with pytest.raises(ValueError, match="at least one fill"):
            shortfall(ctx, [])

    def test_order_sums_beyond_the_float_range_name_the_order(self):
        buys = [_buy(1, 100.0, 1e308, who="b")] * 2
        sells = [_sell(1, 100.0, 1e308, who="s")] * 2
        message = r"order \('b', 'buy'\): fill quantities or values sum beyond"
        with pytest.raises(ValueError, match=message):
            zero_sum_audit(buys + sells, [100.0, 101.0])
        with pytest.raises(ValueError, match=message):
            attribute(OrderContext(100.0, 1e308, 1, (100.0, 101.0)), buys)

    def test_timing_rejects_unknown_formulation(self):
        ctx = _ctx([100.0, 101.0])
        with pytest.raises(ValueError, match="formulation"):
            timing(ctx, [_buy(1, 101.0, 10.0)], "net")


class TestZeroSumAudit:
    def test_single_interval_buyer_and_seller_up(self):
        fills = [_buy(1, 101.0, 10.0, who="b"), _sell(1, 101.0, 10.0, who="s")]
        audit = zero_sum_audit(fills, [100.0, 101.0], "simple")
        by_name = {r.participant: r for r in audit.reports}
        assert by_name["b"].impact == 10.0 and by_name["b"].timing == 0.0
        assert by_name["s"].impact == 0.0 and by_name["s"].timing == -10.0
        assert audit.residual == 0.0
        assert audit.passed

    def test_single_interval_price_down_mirrored(self):
        fills = [_buy(1, 99.0, 10.0, who="b"), _sell(1, 99.0, 10.0, who="s")]
        audit = zero_sum_audit(fills, [100.0, 99.0], "simple")
        by_name = {r.participant: r for r in audit.reports}
        assert by_name["b"].impact == 0.0 and by_name["b"].timing == -10.0
        assert by_name["s"].impact == 10.0 and by_name["s"].timing == 0.0
        assert audit.residual == 0.0
        assert audit.passed

    def test_unbalanced_interval_named(self):
        fills = [_buy(1, 101.0, 10.0, who="b"), _sell(1, 101.0, 9.0, who="s")]
        with pytest.raises(UnbalancedIntervalError, match="interval 1") as err:
            zero_sum_audit(fills, [100.0, 101.0])
        assert err.value.interval == 1

    def test_mismatched_fill_prices_fail_the_audit(self):
        # Quantities balance but the buyer paid off-path: totals no longer
        # cancel and the verdict says so rather than raising.
        fills = [_buy(1, 102.0, 10.0, who="b"), _sell(1, 101.0, 10.0, who="s")]
        audit = zero_sum_audit(fills, [100.0, 101.0])
        assert not audit.passed
        assert audit.residual == pytest.approx(10.0)

    @pytest.mark.parametrize("formulation", ["simple", "complex"])
    def test_randomized_balanced_sets(self, formulation):
        rng = np.random.default_rng(20260814)
        for _ in range(300):
            T = int(rng.integers(1, 7))
            path = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, T + 1)))
            path[0] = 100.0
            n_buyers = int(rng.integers(1, 3))
            n_sellers = int(rng.integers(1, 3))
            fills = []
            for t in range(1, T + 1):
                qty = float(rng.uniform(1.0, 50.0))
                buy_split = rng.dirichlet(np.ones(n_buyers)) * qty
                sell_split = rng.dirichlet(np.ones(n_sellers)) * qty
                for i, q in enumerate(buy_split):
                    if q > 0.0:
                        fills.append(_buy(t, float(path[t]), float(q), who=f"b{i}"))
                for i, q in enumerate(sell_split):
                    if q > 0.0:
                        fills.append(_sell(t, float(path[t]), float(q), who=f"s{i}"))
            audit = zero_sum_audit(fills, path, formulation)
            assert audit.passed
            assert abs(audit.residual) <= audit.tolerance

    def test_same_participant_both_sides_is_two_orders(self):
        fills = [
            _buy(1, 101.0, 10.0, who="desk"),
            _sell(1, 101.0, 10.0, who="desk"),
        ]
        audit = zero_sum_audit(fills, [100.0, 101.0])
        assert len(audit.reports) == 2
        assert {(r.participant, r.side) for r in audit.reports} == {
            ("desk", "buy"),
            ("desk", "sell"),
        }


# ---------------------------------------------------------------------------
# The row loop that the columnar audit replaced, kept as the oracle.
# ---------------------------------------------------------------------------


def _oracle_order_arrays(ctx, fills):
    if not fills:
        raise ValueError("need at least one fill")
    participant, side = fills[0].participant, fills[0].side
    qty = np.zeros(ctx.horizon)
    notional = []
    for f in fills:
        if f.participant != participant or f.side != side:
            raise ValueError(
                f"fills mix ({f.participant!r}, {f.side!r}) with "
                f"({participant!r}, {side!r}); attribute one order at a time"
            )
        if f.t > ctx.horizon:
            raise ValueError(
                f"fill at t={f.t} is outside the horizon T={ctx.horizon}; "
                "no price step exists for it"
            )
        qty[f.t - 1] += f.qty
        notional.append(f.qty * f.price)
    executed_qty = math.fsum(f.qty for f in fills)
    tol = 1e-9 * ctx.total_shares
    if abs(executed_qty - ctx.total_shares) > tol:
        raise ValueError(
            f"fill quantities sum to {executed_qty}, not the order total "
            f"{ctx.total_shares} (tolerance {tol})"
        )
    return participant, side, qty, math.fsum(notional)


def _oracle_attribute(ctx, fills, formulation):
    participant, side, qty, executed = _oracle_order_arrays(ctx, fills)
    sign = 1.0 if side == "buy" else -1.0
    sf = sign * (executed - ctx.total_shares * ctx.arrival_price)
    adverse = _adverse_moves(np.asarray(ctx.price_path), sign)
    if formulation == "simple":
        weights = qty
    else:
        weights = _residual_ladder(qty, np.asarray(ctx.total_shares))
    imp = float(adverse @ weights)
    reference = ctx.arrival_price * ctx.total_shares
    return AttributionReport(
        participant=participant,
        side=side,
        formulation=formulation,
        shortfall=sf,
        impact=imp,
        timing=sf - imp,
        shortfall_bps=1e4 * sf / reference,
        impact_bps=1e4 * imp / reference,
        timing_bps=1e4 * (sf - imp) / reference,
        reference_value=reference,
    )


def _oracle_audit(fills, price_path, formulation):
    path = tuple(float(p) for p in price_path)
    horizon = len(path) - 1
    bought = [0.0] * (horizon + 1)
    sold = [0.0] * (horizon + 1)
    orders = {}
    for f in fills:
        if f.t > horizon:
            raise ValueError(
                f"fill at t={f.t} is outside the horizon T={horizon}; "
                "no price step exists for it"
            )
        (bought if f.side == "buy" else sold)[f.t] += f.qty
        orders.setdefault((f.participant, f.side), []).append(f)
    for t in range(1, horizon + 1):
        gap = abs(bought[t] - sold[t])
        if gap > 1e-9 * max(bought[t], sold[t]):
            raise UnbalancedIntervalError(t, bought[t], sold[t])
    reports = []
    for group in orders.values():
        total = math.fsum(f.qty for f in group)
        ctx = OrderContext(path[0], total, horizon, path)
        reports.append(_oracle_attribute(ctx, group, formulation))
    total_impact = math.fsum(r.impact for r in reports)
    total_timing = math.fsum(r.timing for r in reports)
    residual = total_impact + total_timing
    tolerance = 1e-9 * math.fsum(r.reference_value for r in reports)
    return ZeroSumAudit(
        reports=tuple(reports),
        total_impact=total_impact,
        total_timing=total_timing,
        residual=residual,
        tolerance=tolerance,
        passed=abs(residual) <= tolerance,
        formulation=formulation,
    )


@st.composite
def _markets(draw):
    """Fills of a market over one path, in shuffled row order.

    Buyers and sellers come from one small name pool, so a participant can
    trade on both sides; several fills can share an (order, interval).  The
    sells of each interval split its bought total, so quantities balance up
    to rounding unless ``unbalance`` scales one interval's sells.
    """
    T = draw(st.integers(1, 5))
    path = draw(st.lists(st.floats(50.0, 150.0), min_size=T + 1, max_size=T + 1))
    names = st.sampled_from(["a", "b", "c"])
    buyers = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    sellers = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    qty = st.integers(1, 60).map(float) if draw(st.booleans()) else st.floats(0.01, 60.0)
    unbalance = draw(st.integers(0, T))
    fills = []
    for t in range(1, T + 1):
        price = st.sampled_from([path[t], path[t], path[t] * 1.001])
        buys = draw(st.lists(st.tuples(st.sampled_from(buyers), qty), min_size=1, max_size=4))
        total = math.fsum(q for _, q in buys)
        shares = draw(
            st.lists(st.tuples(st.sampled_from(sellers), st.floats(0.1, 1.0)),
                     min_size=1, max_size=4)
        )
        scale = (1.5 if t == unbalance else 1.0) * total / math.fsum(w for _, w in shares)
        fills += [Fill(t, draw(price), q, "buy", who) for who, q in buys]
        fills += [Fill(t, draw(price), w * scale, "sell", who) for who, w in shares]
    return draw(st.permutations(fills)), path


class TestColumnarParity:
    """The columnar core against the row loop it replaced, bit for bit."""

    @given(_markets(), st.sampled_from(FORMULATIONS))
    @settings(max_examples=200, deadline=None)
    def test_audit_matches_the_row_loop(self, market, formulation):
        fills, path = market
        try:
            expected = _oracle_audit(fills, path, formulation)
        except UnbalancedIntervalError as oracle:
            with pytest.raises(UnbalancedIntervalError) as err:
                zero_sum_audit(fills, path, formulation)
            got = err.value
            assert (got.interval, got.bought, got.sold) == (
                oracle.interval, oracle.bought, oracle.sold
            )
            assert type(got.bought) is float and type(got.sold) is float
            assert str(got) == str(oracle)
            return
        # repr spells every float exactly, signed zeros included
        assert repr(zero_sum_audit(fills, path, formulation)) == repr(expected)

    @given(_markets(), st.sampled_from(FORMULATIONS))
    @settings(max_examples=100, deadline=None)
    def test_attribute_matches_the_row_loop(self, market, formulation):
        fills, path = market
        orders = {}
        for f in fills:
            orders.setdefault((f.participant, f.side), []).append(f)
        for group in orders.values():
            ctx = _ctx(path, total=math.fsum(f.qty for f in group))
            expected = _oracle_attribute(ctx, group, formulation)
            assert repr(attribute(ctx, group, formulation)) == repr(expected)
            impact = impact_simple if formulation == "simple" else impact_complex
            assert repr(shortfall(ctx, group)) == repr(expected.shortfall)
            assert repr(impact(ctx, group)) == repr(expected.impact)
            assert repr(timing(ctx, group, formulation)) == repr(expected.timing)
        # one order per call: the mix and horizon checks name the same fill
        short = _ctx(path[:-1] if len(path) > 2 else path)
        for ctx in (_ctx(path), short):
            with pytest.raises(ValueError) as oracle:
                _oracle_attribute(ctx, fills, formulation)
            with pytest.raises(ValueError) as err:
                attribute(ctx, fills, formulation)
            assert str(err.value) == str(oracle.value)

    def test_t_beyond_int64_is_outside_the_horizon(self):
        fills = [_buy(1, 101.0, 5.0, who="b"), _sell(10**30, 101.0, 5.0, who="s")]
        with pytest.raises(ValueError, match=f"t={10**30} is outside the horizon T=1"):
            zero_sum_audit(fills, [100.0, 101.0])
        with pytest.raises(ValueError, match=f"t={10**30} is outside the horizon T=1"):
            attribute(_ctx([100.0, 101.0], total=5.0), [_buy(10**30, 101.0, 5.0)])


class TestOrderSumRuns:
    """``_order_sums`` makes Python floats for a run of orders at a time; the
    runs change neither a bit of its sums nor which order an error names."""

    @staticmethod
    def _columns(overflowing=()):
        rng = np.random.default_rng(7)
        names = [(f"b{i}", "buy") for i in range(5)] + [(f"s{i}", "sell") for i in range(5)]
        fills = []
        for t in range(1, 5):
            for who, side in names:
                for _ in range(int(rng.integers(1, 4))):
                    price, qty = rng.uniform(100.0, 101.0), rng.uniform(0.1, 9.0)
                    qty = 1e308 if (who, side) in overflowing else qty
                    fills.append(Fill(t, float(price), float(qty), side, who))
        return _FillColumns.of([fills[i] for i in rng.permutation(len(fills))])

    @staticmethod
    def _sums(monkeypatch, run, cols):
        monkeypatch.setattr(attribution, "_ORDERS_PER_RUN", run)
        qty, totals, values = _order_sums(cols, 4)
        return qty.tobytes(), repr(totals), repr(values)

    @pytest.mark.parametrize("run", [1, 3])
    def test_sums_match_one_pass_bit_for_bit(self, monkeypatch, run):
        cols = self._columns()
        assert len(cols.orders) > 3 * run
        assert self._sums(monkeypatch, run, cols) == self._sums(monkeypatch, 10**9, cols)

    @pytest.mark.parametrize("run", [1, 3, 10**9])
    def test_first_overflowing_order_is_named(self, monkeypatch, run):
        overflowing = (("b2", "buy"), ("s4", "sell"))
        cols = self._columns(overflowing)
        # they come 9th and 4th, so in runs of 3 the first run sums cleanly
        # and the second holds the first of them
        assert [cols.orders.index(o) for o in overflowing] == [8, 3]
        monkeypatch.setattr(attribution, "_ORDERS_PER_RUN", run)
        message = r"order \('s4', 'sell'\): fill quantities or values sum beyond"
        with pytest.raises(ValueError, match=message):
            _order_sums(cols, 4)


def test_audit_holds_under_48_bytes_per_fill():
    # 600 orders: several runs of _ORDERS_PER_RUN
    text, ctx = balanced_market(300, 300, 40)
    cols = _parse_fills(text.encode())
    assert len(cols.orders) > 2 * attribution._ORDERS_PER_RUN
    peak = traced_peak(zero_sum_audit, cols, ctx["price_path"], "complex")[1]
    assert peak <= 48 * len(cols)


@pytest.mark.parametrize("run", [1, 3, 10**9])
def test_weight_rows_are_the_plain_ladder_bit_for_bit(monkeypatch, run):
    rng = np.random.default_rng(5)
    qty = np.where(rng.random((10, 6)) < 0.4, 0.0, rng.uniform(0.1, 3.0, (10, 6)))
    totals = (qty.sum(axis=1) + rng.uniform(0.0, 1.0, 10)).tolist()
    plain = np.array(totals)[:, None] - np.cumsum(qty, axis=-1) + qty
    monkeypatch.setattr(attribution, "_ORDERS_PER_RUN", run)
    complex_rows = list(attribution._weight_rows(qty, totals, "complex"))
    assert np.array(complex_rows).tobytes() == plain.tobytes()
    assert np.array(list(attribution._weight_rows(qty, totals, "simple"))).tobytes() == qty.tobytes()


def test_complex_reports_hold_under_13_bytes_per_fill():
    # one run of orders' residual ladder at a time, in one buffer; the whole
    # ladder in three temporaries read 19.0 B per fill (simple: 8.5)
    text, ctx = balanced_market(300, 300, 40)
    cols = _parse_fills(text.encode())
    qty, totals, executed = _order_sums(cols, 40)
    path = ctx["price_path"]
    order_ctx = OrderContext(path[0], totals[0], 40, path)
    args = (cols.orders, qty, totals, executed, order_ctx)
    peak = traced_peak(attribution._reports, *args, "complex")[1]
    assert len(cols.orders) > 2 * attribution._ORDERS_PER_RUN
    assert peak <= 13 * len(cols)
