"""Parameter sets and one-step transitions for the five laws of price motion.

Each law class owns its law of motion through two array-native methods.
``advance(state, trade, z_price, z_aux)`` moves a :class:`MarketBatch` one
stage on given standard-normal draws; :func:`step` checks its inputs and
calls it.  ``move(price, aux)`` returns ``(theta, alpha, beta)``, the
Gaussian part ``theta*S + alpha + beta*Z`` of the next move from the
decision state (P, aux) for a trade S, each broadcasting against ``price``
and ``aux``: the price change P' - P, or under LinearPercentage the premium
ratio Y.  The solvers read a law only through ``move`` and through
:func:`_certainty_equivalent_path`, the walk of ``step`` at zero noise.

Transitions are pure: noise enters as externally supplied standard-normal
draws, so the simulator is the single owner of randomness and identical
inputs always produce bit-identical successor states.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Benchmark",
    "Ar1Extra",
    "LinearPercentage",
    "Liquidity",
    "Spread",
    "ModelParams",
    "MarketState",
    "MarketBatch",
    "StepEvents",
    "LiquidityViolationError",
    "DegeneratePathWarning",
    "SolverError",
    "step",
    "convexity_check",
    "ar1_volume_update",
]


class LiquidityViolationError(ValueError):
    """A trade larger than the volume available in the interval was requested."""


class DegeneratePathWarning(UserWarning):
    """A liquidity-law price path was driven to a nonpositive price."""


# Raised by the solvers in dp, gbm and liquidity; defined here, with numpy
# alone, so the command line maps it to its exit code without loading them.
class SolverError(RuntimeError):
    """A numerical stage solve failed; carries the bracket and residual."""

    def __init__(self, message: str, *, bracket=None, residual=None):
        super().__init__(message)
        self.bracket = bracket
        self.residual = residual


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_finite(**named: float) -> None:
    for name, value in named.items():
        _require(math.isfinite(value), f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Benchmark:
    """Arithmetic walk with additive linear impact: P' = P + theta*S + eps."""

    theta: float
    sigma_eps: float

    def __post_init__(self) -> None:
        _require_finite(theta=self.theta, sigma_eps=self.sigma_eps)
        _require(self.theta > 0.0, f"theta must be > 0, got {self.theta}")
        # sigma_eps = 0 is a legal (deterministic) law for simulation; the
        # solvers reject it themselves since their premium kernel needs a
        # positive noise scale.
        _require(self.sigma_eps >= 0.0, f"sigma_eps must be >= 0, got {self.sigma_eps}")

    def move(self, price, aux):
        """dP = theta*S + sigma_eps*Z: no shift."""
        return self.theta, 0.0, self.sigma_eps

    def advance(self, state, trade, z_price, z_aux):
        price = state.price + self.theta * trade + self.sigma_eps * z_price
        t = state.time_index + 1
        return MarketBatch(price=price, aux=state.aux, time_index=t), _quiet(trade)


@dataclass(frozen=True)
class Ar1Extra:
    """Benchmark walk plus a gamma-weighted AR(1) information state X.

    X' = rho*X + eta,  P' = P + theta*S + gamma*X' + eps.
    """

    theta: float
    gamma: float
    rho: float
    sigma_eps: float
    sigma_eta: float

    def __post_init__(self) -> None:
        _require_finite(
            theta=self.theta,
            gamma=self.gamma,
            rho=self.rho,
            sigma_eps=self.sigma_eps,
            sigma_eta=self.sigma_eta,
        )
        _require(self.theta > 0.0, f"theta must be > 0, got {self.theta}")
        _require(abs(self.rho) < 1.0, f"rho must satisfy |rho| < 1, got {self.rho}")
        _require(self.sigma_eps > 0.0, f"sigma_eps must be > 0, got {self.sigma_eps}")
        _require(self.sigma_eta > 0.0, f"sigma_eta must be > 0, got {self.sigma_eta}")

    def move(self, price, aux):
        """dP = theta*S + gamma*rho*X + hypot(gamma*sigma_eta, sigma_eps)*Z."""
        return (
            self.theta,
            self.gamma * self.rho * aux,
            math.hypot(self.gamma * self.sigma_eta, self.sigma_eps),
        )

    def advance(self, state, trade, z_price, z_aux):
        x_new = self.rho * state.aux + self.sigma_eta * z_aux
        price = state.price + self.theta * trade + self.gamma * x_new + self.sigma_eps * z_price
        t = state.time_index + 1
        return MarketBatch(price=price, aux=x_new, time_index=t), _quiet(trade)


@dataclass(frozen=True)
class LinearPercentage:
    """Geometric no-impact price with a percentage impact overlay.

    P~' = P~ * e^B with B ~ N(mu_B, sigma_B^2), X' = rho*X + eta, and the
    observed price carries the fractional premium: P' = P~' * (1 + theta*S
    + gamma*X').
    """

    mu_B: float
    sigma_B: float
    theta: float
    gamma: float
    rho: float
    sigma_eta: float

    def __post_init__(self) -> None:
        _require_finite(
            mu_B=self.mu_B,
            sigma_B=self.sigma_B,
            theta=self.theta,
            gamma=self.gamma,
            rho=self.rho,
            sigma_eta=self.sigma_eta,
        )
        _require(self.theta > 0.0, f"theta must be > 0, got {self.theta}")
        _require(abs(self.rho) < 1.0, f"rho must satisfy |rho| < 1, got {self.rho}")
        _require(self.sigma_B > 0.0, f"sigma_B must be > 0, got {self.sigma_B}")
        _require(self.sigma_eta > 0.0, f"sigma_eta must be > 0, got {self.sigma_eta}")

    def move(self, price, aux):
        """Y = P'/P~' = theta*S + (1 + gamma*rho*X) + |gamma|*sigma_eta*Z, whatever
        the price (Z is symmetric, so the noise scale carries no sign);
        ``beta == 0`` (gamma = 0) means Y has no noise."""
        return self.theta, 1.0 + self.gamma * self.rho * aux, abs(self.gamma) * self.sigma_eta

    def advance(self, state, trade, z_price, z_aux):
        if state.no_impact_price is None:
            raise ValueError("LinearPercentage requires state.no_impact_price")
        b = self.mu_B + self.sigma_B * z_price
        # math.exp per element: np.exp differs from it in the last bit on a
        # few percent of inputs, which would move every seeded path.
        growth = np.fromiter(map(math.exp, b.tolist()), dtype=float, count=b.size)
        p_tilde = state.no_impact_price * growth
        x_new = self.rho * state.aux + self.sigma_eta * z_aux
        price = p_tilde * (1.0 + self.theta * trade + self.gamma * x_new)
        t = state.time_index + 1
        batch = MarketBatch(price=price, aux=x_new, no_impact_price=p_tilde, time_index=t)
        return batch, _quiet(trade)


@dataclass(frozen=True)
class Liquidity:
    """Multiplicative walk where untraded volume depresses the price.

    O' = max(rho*O + eta, 0),
    P' = (alpha + 1)*P + theta*S*P - gamma*(O' - S)*P + eps,
    subject to the interval volume constraint S <= O'.  ``beta`` is the
    derived coefficient theta + gamma that multiplies own trading once the
    law is rearranged around total volume.
    """

    alpha: float
    theta: float
    gamma: float
    rho: float
    sigma_eps: float
    sigma_eta: float
    beta: float = field(init=False)

    def __post_init__(self) -> None:
        _require_finite(
            alpha=self.alpha,
            theta=self.theta,
            gamma=self.gamma,
            rho=self.rho,
            sigma_eps=self.sigma_eps,
            sigma_eta=self.sigma_eta,
        )
        _require(self.theta > 0.0, f"theta must be > 0, got {self.theta}")
        _require(self.gamma > 0.0, f"gamma must be > 0, got {self.gamma}")
        _require(abs(self.rho) < 1.0, f"rho must satisfy |rho| < 1, got {self.rho}")
        _require(self.sigma_eps > 0.0, f"sigma_eps must be > 0, got {self.sigma_eps}")
        _require(self.sigma_eta > 0.0, f"sigma_eta must be > 0, got {self.sigma_eta}")
        object.__setattr__(self, "beta", self.theta + self.gamma)

    def move(self, price, aux):
        """dP = P*beta*S + P*(alpha - gamma*rho*O) + hypot(gamma*P*sigma_eta, sigma_eps)*Z,
        with O' unclamped; :meth:`clamp_probability` says how often the clamp fires."""
        return (
            price * self.beta,
            price * (self.alpha - self.gamma * self.rho * aux),
            np.hypot(self.gamma * price * self.sigma_eta, self.sigma_eps),
        )

    def clamp_probability(self, volume: float) -> float:
        """P(rho*O + eta < 0) = Phi(-rho*O/sigma_eta): how often the next
        volume update clamps at zero from O = ``volume``."""
        return 0.5 * math.erfc(self.rho * volume / (self.sigma_eta * math.sqrt(2.0)))

    def advance(self, state, trade, z_price, z_aux):
        volume, clamps = ar1_volume_update(self, state.aux, z_aux)
        violated = trade > volume
        price = (
            state.price
            * (self.alpha + 1.0 + self.theta * trade - self.gamma * (volume - trade))
            + self.sigma_eps * z_price
        )
        events = StepEvents(violated, (price <= 0.0) & ~violated, clamps)
        return MarketBatch(price=price, aux=volume, time_index=state.time_index + 1), events


@dataclass(frozen=True)
class Spread(Ar1Extra):
    """Spread-state variant: identical law with aux read as the quoted spread Q."""


ModelParams = Benchmark | Ar1Extra | LinearPercentage | Liquidity


@dataclass(frozen=True)
class MarketState:
    """Point-in-time market state.

    ``aux`` is the variant's second coordinate: the information state X, the
    interval volume O, or the spread Q.  ``no_impact_price`` is only
    meaningful under LinearPercentage.
    """

    price: float
    aux: float = 0.0
    no_impact_price: float | None = None
    time_index: int = 0

    def __post_init__(self) -> None:
        _require_finite(price=self.price, aux=self.aux)
        if self.no_impact_price is not None:
            _require(
                math.isfinite(self.no_impact_price) and self.no_impact_price > 0.0,
                f"no_impact_price must be > 0, got {self.no_impact_price}",
            )
        _require(
            isinstance(self.time_index, int) and self.time_index >= 0,
            f"time_index must be a nonnegative integer, got {self.time_index!r}",
        )


def ar1_volume_update(params: Liquidity, volume, z):
    """One AR(1) volume update, clamped at zero.

    Scalars return the new volume and whether the clamp fired; arrays return
    the new volumes and how many of them the clamp fired on.  Callers that
    track path diagnostics count the clamps, everything else discards them.
    """
    raw = params.rho * np.asarray(volume, dtype=float) + params.sigma_eta * np.asarray(z)
    clamped = raw < 0.0
    new = np.where(clamped, 0.0, raw)
    if new.ndim == 0:
        return float(new), bool(clamped)
    return new, int(np.count_nonzero(clamped))


@dataclass(frozen=True, eq=False)
class MarketBatch:
    """Market states of a block of paths at one stage: the array form of
    :class:`MarketState`, with aligned 1-d ``price`` and ``aux`` arrays and a
    ``no_impact_price`` array under LinearPercentage (None otherwise)."""

    price: np.ndarray
    aux: np.ndarray
    no_impact_price: np.ndarray | None = None
    time_index: int = 0

    @classmethod
    def broadcast(cls, state: MarketState, m: int) -> "MarketBatch":
        """``m`` paths that all start from ``state``."""
        nip = state.no_impact_price
        return cls(
            price=np.full(m, state.price),
            aux=np.full(m, state.aux),
            no_impact_price=None if nip is None else np.full(m, nip),
            time_index=state.time_index,
        )

    def state(self, i: int) -> MarketState:
        """Path ``i`` as a :class:`MarketState`."""
        nip = self.no_impact_price
        return MarketState(
            float(self.price[i]),
            float(self.aux[i]),
            None if nip is None else float(nip[i]),
            self.time_index,
        )

    def take(self, rows: np.ndarray) -> "MarketBatch":
        """The paths selected by an index or boolean array."""
        nip = self.no_impact_price
        return MarketBatch(
            price=self.price[rows],
            aux=self.aux[rows],
            no_impact_price=None if nip is None else nip[rows],
            time_index=self.time_index,
        )


@dataclass(frozen=True, eq=False)
class StepEvents:
    """What a batched :func:`step` saw besides the new states.

    ``violated`` marks paths whose trade exceeded the updated interval volume
    and ``nonpositive`` the other paths whose price reached zero or below;
    ``clamps`` counts volume updates clamped at zero on all paths.  Only the
    liquidity law raises any of them.
    """

    violated: np.ndarray
    nonpositive: np.ndarray
    clamps: int = 0


def _quiet(trade: np.ndarray) -> StepEvents:
    """The events of a stage on which nothing but the move happened."""
    quiet = np.zeros(trade.shape, dtype=bool)
    return StepEvents(quiet, quiet)


def step(params: ModelParams, state, trade, noise):
    """Advance the market one stage under the variant's law of motion.

    The law works on a batch of paths; a single :class:`MarketState` is a
    batch of one.

    Parameters
    ----------
    params : ModelParams
        Variant parameters.
    state : MarketState or MarketBatch
        State(s) entering the stage.
    trade : float, or array aligned with the batch
        Shares executed this stage; must be >= 0.
    noise : (float, float), or (m, 2) array for a batch
        Standard-normal draws.  The first drives the price shock (eps, or
        the log-return B under LinearPercentage), the second the auxiliary
        state shock eta; each is scaled by its sigma here.

    Returns
    -------
    MarketState for a MarketState, else (MarketBatch, StepEvents).

    Raises
    ------
    LiquidityViolationError
        For a MarketState under Liquidity, when the trade exceeds the
        interval volume after its AR(1) update.  A batch reports such paths
        in ``StepEvents.violated`` instead; their new states are meaningless.
    """
    if isinstance(state, MarketBatch):
        trade = np.asarray(trade, dtype=float)
        if not np.all(np.isfinite(trade) & (trade >= 0.0)):
            raise ValueError("trades must be finite and >= 0")
        noise = np.asarray(noise, dtype=float)
        batch, events = params.advance(state, trade, noise[:, 0], noise[:, 1])
        if not (np.all(np.isfinite(batch.price)) and np.all(np.isfinite(batch.aux))):
            raise ValueError(f"a path reached a non-finite state at t={batch.time_index}")
        return batch, events

    if not math.isfinite(trade) or trade < 0.0:
        raise ValueError(f"trade must be finite and >= 0, got {trade}")
    batch, events = params.advance(
        MarketBatch.broadcast(state, 1),
        np.array([float(trade)]),
        np.array([float(noise[0])]),
        np.array([float(noise[1])]),
    )
    t = batch.time_index
    if events.violated[0]:
        raise LiquidityViolationError(
            f"trade {trade} exceeds interval volume {float(batch.aux[0])} at t={t}"
        )
    if events.nonpositive[0]:
        warnings.warn(
            f"liquidity price path reached nonpositive price {float(batch.price[0])} at t={t}",
            DegeneratePathWarning,
            stacklevel=2,
        )
    return batch.state(0)


def _certainty_equivalent_path(
    params: ModelParams, state: MarketState, trade: float, stages: int
) -> list[MarketState]:
    """The states entering stages 1..stages+1 when every shock sits at its
    mean, zero, and every stage trades ``trade``: one batched :func:`step`
    per stage, so the path repeats the simulated law's arithmetic, volume
    clamp included.  Events are not checked; the callers check the states.
    """
    batch, path = MarketBatch.broadcast(state, 1), [state]
    for _ in range(stages):
        batch, _ = step(params, batch, np.array([trade]), np.zeros((1, 2)))
        path.append(batch.state(0))
    return path


def _premium_convex(theta: float, beta: float) -> bool:
    """The convexity certificate of the premium beta*psi((theta*S + alpha)/beta)."""
    return theta > 0.75 * beta


def convexity_check(params: ModelParams) -> bool:
    """Whether the one-stage expected cost is convex: theta > (3/4)*sigma_eps.

    Defined for the Benchmark variant only; solvers warn (and proceed) when
    this returns False, since optima found by local methods are then not
    guaranteed global.
    """
    if not isinstance(params, Benchmark):
        raise ValueError(
            f"convexity_check is defined for Benchmark only, got {type(params).__name__}"
        )
    return _premium_convex(params.theta, params.sigma_eps)
