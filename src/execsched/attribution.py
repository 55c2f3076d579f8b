"""Implementation-shortfall attribution over realized execution records.

Shortfall is the realized acquisition cost against the arrival price,
``sum(S_t * P_t) - S_bar * P_0`` for a buy order (sign-flipped for sells).
It splits into Market Impact, the adverse price steps a participant paid
for, and Market Timing, defined as the remainder so the decomposition is
exact by construction.  Impact comes in two weightings: the simple form
charges each adverse step to the shares executed at that interval, the
complex form charges it to the whole unexecuted residual, so a step taken
early in the order costs more under the complex form.

Steps are always read off the order-level price path (one price per
interval); executed value is read off the fills themselves, so records
whose fill prices disagree with the path still decompose exactly but will
show the disagreement in the zero-sum audit.  Across participants whose
interval quantities balance, total impact plus total timing cancels: each
participant's timing is their shortfall minus their impact, and balanced
shortfalls sum to zero.

``path_costs`` is the array core shared by the record-level functions and
the simulation harness; it accepts stacked paths and vectorizes row-wise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Fill",
    "OrderContext",
    "AttributionReport",
    "ZeroSumAudit",
    "UnbalancedIntervalError",
    "FORMULATIONS",
    "SIDES",
    "path_costs",
    "shortfall",
    "impact_simple",
    "impact_complex",
    "timing",
    "attribute",
    "zero_sum_audit",
]

FORMULATIONS = ("simple", "complex")
SIDES = ("buy", "sell")

#: Relative slack for "fill quantities sum to the order total".
QUANTITY_REL_TOL = 1e-9

#: Relative slack (against arrival notional) for the zero-sum audit.
AUDIT_REL_TOL = 1e-9


class UnbalancedIntervalError(ValueError):
    """Buy and sell quantities disagree within an interval of the audit."""

    def __init__(self, interval: int, bought: float, sold: float):
        self.interval = interval
        self.bought = bought
        self.sold = sold
        super().__init__(
            f"interval {interval}: bought {bought} but sold {sold}; "
            "the audit needs balanced quantities per interval"
        )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_side(side: str) -> float:
    """Return the adverse-direction sign: +1 for buys, -1 for sells."""
    if side == "buy":
        return 1.0
    if side == "sell":
        return -1.0
    raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")


def _check_formulation(formulation: str) -> str:
    if formulation not in FORMULATIONS:
        raise ValueError(
            f"formulation must be one of {FORMULATIONS}, got {formulation!r}"
        )
    return formulation


@dataclass(frozen=True)
class Fill:
    """One execution record: qty shares at price during interval t.

    ``t`` is 1-based; interval t spans the move from P_{t-1} to P_t on the
    order's price path.
    """

    t: int
    price: float
    qty: float
    side: str
    participant: str = "self"

    def __post_init__(self) -> None:
        if not isinstance(self.t, int) or isinstance(self.t, bool) or self.t < 1:
            raise ValueError(f"t must be an integer >= 1, got {self.t!r}")
        _require(
            math.isfinite(self.price) and self.price > 0.0,
            f"price must be finite and > 0, got {self.price}",
        )
        _require(
            math.isfinite(self.qty) and self.qty > 0.0,
            f"qty must be finite and > 0, got {self.qty}",
        )
        _check_side(self.side)
        _require(
            isinstance(self.participant, str) and len(self.participant) > 0,
            f"participant must be a nonempty string, got {self.participant!r}",
        )


@dataclass(frozen=True)
class OrderContext:
    """The order being attributed: arrival price, size, and realized path.

    ``price_path`` holds P_0..P_T (one price per interval boundary), so its
    length is horizon + 1 and its first entry is the arrival price.
    """

    arrival_price: float
    total_shares: float
    horizon: int
    price_path: tuple[float, ...]

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.arrival_price) and self.arrival_price > 0.0,
            f"arrival_price must be finite and > 0, got {self.arrival_price}",
        )
        _require(
            math.isfinite(self.total_shares) and self.total_shares > 0.0,
            f"total_shares must be finite and > 0, got {self.total_shares}",
        )
        if (
            not isinstance(self.horizon, int)
            or isinstance(self.horizon, bool)
            or self.horizon < 1
        ):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        path = tuple(float(p) for p in self.price_path)
        object.__setattr__(self, "price_path", path)
        _require(
            len(path) == self.horizon + 1,
            f"price_path must hold P_0..P_T ({self.horizon + 1} entries), got {len(path)}",
        )
        for t, p in enumerate(path):
            _require(
                math.isfinite(p) and p > 0.0,
                f"price_path[{t}] must be finite and > 0, got {p}",
            )
        _require(
            math.isclose(path[0], self.arrival_price, rel_tol=1e-12, abs_tol=0.0),
            f"price_path[0] = {path[0]} does not match arrival_price = {self.arrival_price}",
        )


@dataclass(frozen=True)
class AttributionReport:
    """One participant's decomposition: shortfall = impact + timing.

    Basis-point fields are scaled by the arrival notional P_0 * S_bar,
    carried in ``reference_value`` so they stay recomputable.
    """

    participant: str
    side: str
    formulation: str
    shortfall: float
    impact: float
    timing: float
    shortfall_bps: float
    impact_bps: float
    timing_bps: float
    reference_value: float

    def __post_init__(self) -> None:
        _check_side(self.side)
        _check_formulation(self.formulation)
        _require(
            self.timing == self.shortfall - self.impact,
            "timing must equal shortfall - impact exactly",
        )
        _require(
            math.isfinite(self.reference_value) and self.reference_value > 0.0,
            f"reference_value must be finite and > 0, got {self.reference_value}",
        )


@dataclass(frozen=True)
class ZeroSumAudit:
    """Totals across participants and the pass/fail verdict against them."""

    reports: tuple[AttributionReport, ...]
    total_impact: float
    total_timing: float
    residual: float
    tolerance: float
    passed: bool
    formulation: str


# ---------------------------------------------------------------------------
# Array core.
# ---------------------------------------------------------------------------


def _adverse_moves(path: np.ndarray, sign: float, new_levels_only: bool) -> np.ndarray:
    """Per-interval adverse price moves, (..., T) from a (..., T+1) path.

    With ``new_levels_only`` an adverse step counts only the excess over the
    worst level already seen, so a retracement that recovers old ground is
    free and the total telescopes to the net adverse move.
    """
    adj = sign * path
    if new_levels_only:
        prior = np.maximum.accumulate(adj[..., :-1], axis=-1)
    else:
        prior = adj[..., :-1]
    return np.maximum(adj[..., 1:] - prior, 0.0)


def _residual_ladder(qty: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Pre-trade residuals W_t = S_bar - sum(S_u, u < t), shaped like qty."""
    return total[..., None] - np.cumsum(qty, axis=-1) + qty


def path_costs(
    price_path,
    trades,
    side: str = "buy",
    formulation: str = "simple",
    *,
    new_levels_only: bool = False,
):
    """Shortfall, impact, and timing for orders executed along price paths.

    ``price_path`` has shape (..., T+1) holding P_0..P_T and ``trades`` has
    shape (..., T) with zeros at intervals the order skipped; rows are
    independent orders.  Executions are valued at the path prices.  Returns
    (shortfall, impact, timing) with the leading shape (python floats for
    1-d inputs); timing is computed as the exact difference.
    """
    sign = _check_side(side)
    _check_formulation(formulation)
    path = np.asarray(price_path, dtype=float)
    qty = np.asarray(trades, dtype=float)
    if path.ndim < 1 or qty.ndim < 1 or path.shape[-1] != qty.shape[-1] + 1:
        raise ValueError(
            f"price_path must have one more column than trades, got "
            f"{path.shape} and {qty.shape}"
        )
    if qty.shape[-1] < 1:
        raise ValueError("need at least one interval")
    if np.any(qty < 0.0):
        raise ValueError("trades must be >= 0")

    total = qty.sum(axis=-1)
    executed = (qty * path[..., 1:]).sum(axis=-1)
    sf = sign * (executed - total * path[..., 0])

    adverse = _adverse_moves(path, sign, new_levels_only)
    if formulation == "simple":
        weights = qty
    else:
        weights = _residual_ladder(qty, total)
    imp = (adverse * weights).sum(axis=-1)

    if path.ndim == 1:
        sf, imp = float(sf), float(imp)
    return sf, imp, sf - imp


# ---------------------------------------------------------------------------
# Record-level functions.
# ---------------------------------------------------------------------------


def _order_arrays(ctx: OrderContext, fills: list[Fill]) -> tuple[str, str, np.ndarray, float]:
    """Validate one order's fills and aggregate them per interval.

    Returns (participant, side, per-interval quantities length T, executed
    value from the fill prices).  All fills must share one participant and
    one side, land inside the horizon, and sum to the order total.
    """
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
    tol = QUANTITY_REL_TOL * ctx.total_shares
    if abs(executed_qty - ctx.total_shares) > tol:
        raise ValueError(
            f"fill quantities sum to {executed_qty}, not the order total "
            f"{ctx.total_shares} (tolerance {tol})"
        )
    return participant, side, qty, math.fsum(notional)


def _shortfall(ctx: OrderContext, side: str, executed: float) -> float:
    return _check_side(side) * (executed - ctx.total_shares * ctx.arrival_price)


def _impact(
    ctx: OrderContext, side: str, qty: np.ndarray, formulation: str, new_levels_only: bool
) -> float:
    path = np.asarray(ctx.price_path)
    adverse = _adverse_moves(path, _check_side(side), new_levels_only)
    if formulation == "simple":
        weights = qty
    else:
        weights = _residual_ladder(qty, np.asarray(ctx.total_shares))
    return float(adverse @ weights)


def shortfall(ctx: OrderContext, fills: list[Fill]) -> float:
    """Realized execution value against the arrival notional.

    Buys pay sum(qty * price) - S_bar * P_0; sells receive it, so their
    shortfall is the negation.  Executions are valued at the fill prices.
    """
    _, side, _, executed = _order_arrays(ctx, fills)
    return _shortfall(ctx, side, executed)


def impact_simple(
    ctx: OrderContext, fills: list[Fill], *, new_levels_only: bool = False
) -> float:
    """Adverse path steps weighted by the shares executed at each interval."""
    _, side, qty, _ = _order_arrays(ctx, fills)
    return _impact(ctx, side, qty, "simple", new_levels_only)


def impact_complex(
    ctx: OrderContext, fills: list[Fill], *, new_levels_only: bool = False
) -> float:
    """Adverse path steps weighted by the pre-trade unexecuted residual.

    Every interval contributes while shares remain outstanding, traded or
    not; once the order completes the residual weight is zero.
    """
    _, side, qty, _ = _order_arrays(ctx, fills)
    return _impact(ctx, side, qty, "complex", new_levels_only)


def timing(ctx: OrderContext, fills: list[Fill], formulation: str = "simple") -> float:
    """Shortfall minus impact under the chosen formulation; exact remainder."""
    return attribute(ctx, fills, formulation).timing


def attribute(
    ctx: OrderContext, fills: list[Fill], formulation: str = "simple"
) -> AttributionReport:
    """Full decomposition for one order, with basis points vs P_0 * S_bar."""
    _check_formulation(formulation)
    participant, side, qty, executed = _order_arrays(ctx, fills)
    sf = _shortfall(ctx, side, executed)
    imp = _impact(ctx, side, qty, formulation, False)
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


def zero_sum_audit(
    fills: list[Fill], price_path, formulation: str = "simple"
) -> ZeroSumAudit:
    """Attribute every participant and check that costs cancel in total.

    Quantities must balance per interval (total bought equals total sold,
    else :class:`UnbalancedIntervalError` names the interval).  Each
    (participant, side) pair is attributed as one order against the common
    path and arrival price; the verdict tests |sum(impact) + sum(timing)|
    against ``AUDIT_REL_TOL`` times the combined arrival notional.
    """
    _check_formulation(formulation)
    if not fills:
        raise ValueError("need at least one fill")
    path = tuple(float(p) for p in price_path)
    horizon = len(path) - 1

    bought = [0.0] * (horizon + 1)
    sold = [0.0] * (horizon + 1)
    orders: dict[tuple[str, str], list[Fill]] = {}
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
        if gap > AUDIT_REL_TOL * max(bought[t], sold[t]):
            raise UnbalancedIntervalError(t, bought[t], sold[t])

    reports = []
    for group in orders.values():
        total = math.fsum(f.qty for f in group)
        ctx = OrderContext(
            arrival_price=path[0],
            total_shares=total,
            horizon=horizon,
            price_path=path,
        )
        reports.append(attribute(ctx, group, formulation))

    total_impact = math.fsum(r.impact for r in reports)
    total_timing = math.fsum(r.timing for r in reports)
    residual = total_impact + total_timing
    scale = math.fsum(r.reference_value for r in reports)
    tolerance = AUDIT_REL_TOL * scale
    return ZeroSumAudit(
        reports=tuple(reports),
        total_impact=total_impact,
        total_timing=total_timing,
        residual=residual,
        tolerance=tolerance,
        passed=abs(residual) <= tolerance,
        formulation=formulation,
    )
