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

``path_costs`` is the array core of the simulation harness; it accepts
stacked paths and vectorizes row-wise.  It values executions at the path
prices instead of fill prices, and otherwise shares its two rules with the
record-level functions: the adverse moves (``_adverse_moves``) and the
shares they are charged to (``_weights``).  Every record-level function
builds its reports in ``_reports``.
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


def _require_positive(name: str, value: float) -> None:
    _require(
        math.isfinite(value) and value > 0.0, f"{name} must be finite and > 0, got {value}"
    )


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
        _require_positive("price", self.price)
        _require_positive("qty", self.qty)
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
        _require_positive("arrival_price", self.arrival_price)
        _require_positive("total_shares", self.total_shares)
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
            _require_positive(f"price_path[{t}]", p)
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
        _require_positive("reference_value", self.reference_value)


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


def _adverse_moves(path: np.ndarray, sign: float) -> np.ndarray:
    """Per-interval adverse price moves, (..., T) from a (..., T+1) path."""
    adj = sign * path
    return np.maximum(adj[..., 1:] - adj[..., :-1], 0.0)


def _residual_ladder(qty: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Pre-trade residuals W_t = S_bar - sum(S_u, u < t), shaped like qty:
    S_bar less the running sum, plus S_t, in the running sum's buffer."""
    ladder = np.cumsum(qty, axis=-1)
    np.subtract(total[..., None], ladder, out=ladder)
    ladder += qty
    return ladder


def _weights(qty: np.ndarray, total: np.ndarray, formulation: str) -> np.ndarray:
    """Shares each adverse move is charged to: the traded shares (simple) or
    the pre-trade residual (complex)."""
    return qty if formulation == "simple" else _residual_ladder(qty, total)


def path_costs(price_path, trades, side: str = "buy", formulation: str = "simple"):
    """Shortfall, impact, and timing for orders executed along price paths.

    ``price_path`` has shape (..., T+1) holding P_0..P_T and ``trades`` has
    shape (..., T) with zeros at intervals the order skipped; rows are
    independent orders.  Executions are valued at the path prices.  Prices
    and trades must be finite; prices may be zero or negative.  Returns
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
    if not np.isfinite(path).all():
        raise ValueError("price_path must be finite")
    if not np.isfinite(qty).all():
        raise ValueError("trades must be finite")
    if np.any(qty < 0.0):
        raise ValueError("trades must be >= 0")

    total = qty.sum(axis=-1)
    executed = (qty * path[..., 1:]).sum(axis=-1)
    sf = sign * (executed - total * path[..., 0])
    imp = (_adverse_moves(path, sign) * _weights(qty, total, formulation)).sum(axis=-1)

    if path.ndim == 1:
        sf, imp = float(sf), float(imp)
    return sf, imp, sf - imp


# ---------------------------------------------------------------------------
# Record-level functions.
# ---------------------------------------------------------------------------


def _int_column(values) -> np.ndarray:
    """``int()`` of each value as int64, or as Python ints (dtype object) when
    one does not fit; such a value is outside every horizon."""
    try:
        return np.fromiter(map(int, values), np.int64, len(values))
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


@dataclass(frozen=True, eq=False)
class _FillColumns:
    """Fills as columns, the form every record-level function works on.

    ``t`` comes from :func:`_int_column`, ``qty`` and ``price`` are float64,
    and ``order[i]`` indexes fill i's (participant, side) pair in ``orders``,
    which lists the pairs in order of first appearance.  ``len()`` is the
    number of fills.
    """

    t: np.ndarray
    qty: np.ndarray
    price: np.ndarray
    order: np.ndarray
    orders: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def of(cls, fills) -> "_FillColumns":
        """``fills`` itself if it is columns already, else the columns of a list of Fill."""
        if isinstance(fills, cls):
            return fills
        codes: dict[tuple[str, str], int] = {}
        order = [codes.setdefault((f.participant, f.side), len(codes)) for f in fills]
        return cls(
            t=_int_column([f.t for f in fills]),
            qty=np.array([f.qty for f in fills], dtype=float),
            price=np.array([f.price for f in fills], dtype=float),
            order=np.array(order, dtype=np.intp),
            orders=tuple(codes),
        )


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _outside_horizon_error(t, horizon: int) -> ValueError:
    return ValueError(
        f"fill at t={t} is outside the horizon T={horizon}; no price step exists for it"
    )


#: Orders that ``_order_sums`` turns into Python floats, and ``_weight_rows``
#: weights, at a time: the floats or residual ladder of a hundred or so
#: orders, not of every fill or order, are alive at once.
_ORDERS_PER_RUN = 128


def _order_sums(cols: _FillColumns, horizon: int) -> tuple[np.ndarray, list, list]:
    """Per order: quantity per interval, quantity total and executed value.

    Returns a (orders, horizon) array and two lists in the order of
    ``cols.orders``.  Every sum takes the order's fills in file order:
    ``np.bincount`` adds in index order and the stable sort keeps each order's
    fills as they came, so the floats are those of a loop over the fills.
    The totals are ``math.fsum`` over Python floats, made for a run of
    ``_ORDERS_PER_RUN`` orders at a time.  Every ``t`` must lie in
    1..horizon.  An order whose quantities or fill values sum beyond the
    float range raises ValueError naming the order.
    """
    n_orders = len(cols.orders)
    cell = cols.order * horizon  # in place from here: one index array per fill
    cell += cols.t
    cell -= 1
    with np.errstate(over="ignore"):  # overflow to inf, silently, as Python floats do
        qty = np.bincount(cell, weights=cols.qty, minlength=n_orders * horizon)
    del cell
    by_order = np.argsort(cols.order, kind="stable")
    ends = np.cumsum(np.bincount(cols.order, minlength=n_orders)).tolist()
    starts = [0, *ends[:-1]]
    totals, values = [], []
    for lo in range(0, n_orders, _ORDERS_PER_RUN):
        hi = min(lo + _ORDERS_PER_RUN, n_orders)
        run = by_order[starts[lo]:ends[hi - 1]]
        fill_qty = cols.qty[run]
        with np.errstate(over="ignore"):
            notional = (fill_qty * cols.price[run]).tolist()
        fill_qty = fill_qty.tolist()
        for k in range(lo, hi):
            a, b = starts[k] - starts[lo], ends[k] - starts[lo]
            try:
                totals.append(math.fsum(fill_qty[a:b]))
                values.append(math.fsum(notional[a:b]))
            except OverflowError:
                participant, side = cols.orders[k]
                raise ValueError(
                    f"order ({participant!r}, {side!r}): fill quantities or values "
                    "sum beyond the float range"
                ) from None
    return qty.reshape(n_orders, horizon), totals, values


def _weight_rows(qty: np.ndarray, totals, formulation: str):
    """The rows of :func:`_weights` for orders with quantity rows ``qty`` and
    share totals ``totals``, made for ``_ORDERS_PER_RUN`` orders at a time, so
    that one run's residual ladder is alive, not every order's."""
    for lo in range(0, len(qty), _ORDERS_PER_RUN):
        run = slice(lo, lo + _ORDERS_PER_RUN)
        yield from _weights(qty[run], np.array(totals[run]), formulation)


def _reports(
    orders, qty: np.ndarray, totals, executed, ctx: OrderContext, formulation: str
) -> list[AttributionReport]:
    """One report per (participant, side) order on the path of ``ctx``.

    Row i of ``qty`` holds order i's quantity per interval, and ``totals[i]``
    and ``executed[i]`` its share total and executed value; the arrival price
    and path come from ``ctx`` (its ``total_shares`` is not read).
    """
    path = np.asarray(ctx.price_path)
    arrival = ctx.arrival_price
    adverse = {side: _adverse_moves(path, _check_side(side)) for side in SIDES}
    reports = []
    weights = _weight_rows(qty, totals, formulation)
    for (participant, side), total, value, w in zip(orders, totals, executed, weights):
        _require_positive("total_shares", total)
        sf = _check_side(side) * (value - total * arrival)
        imp = float(adverse[side] @ w)
        reference = arrival * total
        report = AttributionReport(
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
        reports.append(report)
    return reports


def shortfall(ctx: OrderContext, fills: list[Fill]) -> float:
    """Realized execution value against the arrival notional.

    Buys pay sum(qty * price) - S_bar * P_0; sells receive it, so their
    shortfall is the negation.  Executions are valued at the fill prices.
    """
    return attribute(ctx, fills).shortfall


def impact_simple(ctx: OrderContext, fills: list[Fill]) -> float:
    """Adverse path steps weighted by the shares executed at each interval."""
    return attribute(ctx, fills, "simple").impact


def impact_complex(ctx: OrderContext, fills: list[Fill]) -> float:
    """Adverse path steps weighted by the pre-trade unexecuted residual.

    Every interval contributes while shares remain outstanding, traded or
    not; once the order completes the residual weight is zero.
    """
    return attribute(ctx, fills, "complex").impact


def timing(ctx: OrderContext, fills: list[Fill], formulation: str = "simple") -> float:
    """Shortfall minus impact under the chosen formulation; exact remainder."""
    return attribute(ctx, fills, formulation).timing


def attribute(
    ctx: OrderContext, fills: list[Fill], formulation: str = "simple"
) -> AttributionReport:
    """Full decomposition for one order, with basis points vs P_0 * S_bar.

    All fills must share one participant and one side, land inside the
    horizon, and sum to the order total.
    """
    _check_formulation(formulation)
    cols = _FillColumns.of(fills)
    if not len(cols):
        raise ValueError("need at least one fill")
    participant, side = cols.orders[cols.order[0]]
    mixed = _first(cols.order != cols.order[0])
    outside = _first(cols.t > ctx.horizon)
    if mixed is not None and (outside is None or mixed <= outside):
        other, other_side = cols.orders[cols.order[mixed]]
        raise ValueError(
            f"fills mix ({other!r}, {other_side!r}) with "
            f"({participant!r}, {side!r}); attribute one order at a time"
        )
    if outside is not None:
        raise _outside_horizon_error(cols.t[outside], ctx.horizon)
    qty, (executed_qty,), executed = _order_sums(cols, ctx.horizon)
    tol = QUANTITY_REL_TOL * ctx.total_shares
    if abs(executed_qty - ctx.total_shares) > tol:
        raise ValueError(
            f"fill quantities sum to {executed_qty}, not the order total "
            f"{ctx.total_shares} (tolerance {tol})"
        )
    (report,) = _reports(cols.orders, qty, [ctx.total_shares], executed, ctx, formulation)
    return report


def zero_sum_audit(
    fills: list[Fill], price_path, formulation: str = "simple"
) -> ZeroSumAudit:
    """Attribute every participant and check that costs cancel in total.

    Quantities must balance per interval (total bought equals total sold,
    else :class:`UnbalancedIntervalError` names the interval).  Each
    (participant, side) pair is attributed as one order against the common
    path and arrival price, in order of first appearance; the verdict tests
    |sum(impact) + sum(timing)| against ``AUDIT_REL_TOL`` times the combined
    arrival notional.
    """
    _check_formulation(formulation)
    cols = _FillColumns.of(fills)
    if not len(cols):
        raise ValueError("need at least one fill")
    path = tuple(float(p) for p in price_path)
    horizon = len(path) - 1
    outside = _first(cols.t > horizon)
    if outside is not None:
        raise _outside_horizon_error(cols.t[outside], horizon)
    t = cols.t.astype(np.intp, copy=False)

    # bincount adds in index order, as a loop over the fills would; sums
    # overflow to inf and compare as Python floats do, without warnings
    buy = np.array([side == "buy" for _, side in cols.orders], dtype=bool)[cols.order]
    with np.errstate(over="ignore", invalid="ignore"):
        bought = np.bincount(t[buy], weights=cols.qty[buy], minlength=horizon + 1)
        sold = np.bincount(t[~buy], weights=cols.qty[~buy], minlength=horizon + 1)
        gap = np.abs(bought - sold) > AUDIT_REL_TOL * np.maximum(bought, sold)
    unbalanced = _first(gap)
    if unbalanced is not None:
        raise UnbalancedIntervalError(
            unbalanced, float(bought[unbalanced]), float(sold[unbalanced])
        )

    qty, totals, executed = _order_sums(cols, horizon)
    # the path is checked once, against the first order's total
    ctx = OrderContext(
        arrival_price=path[0], total_shares=totals[0], horizon=horizon, price_path=path
    )
    reports = _reports(cols.orders, qty, totals, executed, ctx, formulation)

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
