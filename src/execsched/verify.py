"""The oracle checks of ``execsched verify``.

Each suite re-derives a fixed battery of values from an independent route
(deep-tail kernel values, quadrature moments, closed form against
quadrature, first-order-condition residuals, randomized balanced markets)
and yields one check record per value as it finishes.  ``execsched verify``
imports this module only when it runs, so the other commands never load it.
"""
import math
from collections.abc import Iterator

import numpy as np
from scipy.special import ndtr

from execsched.attribution import FORMULATIONS, Fill, OrderContext, attribute, zero_sum_audit
from execsched.dp import (
    Horizon,
    MillsRecursionProblem,
    RecursionConfig,
    approximate_recursion,
    solve_ar1_simple,
    solve_benchmark_complex,
)
from execsched.kernels import (
    Gaussian,
    gauss_hermite,
    mills_psi,
    mills_psi_prime,
    nln_mixture_expectation,
)
from execsched.liquidity import solve_liquidity
from execsched.models import Ar1Extra, Benchmark, Liquidity, MarketState


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _verify_kernels() -> Iterator[dict]:
    v = mills_psi(-30.0)
    yield _check(
        "psi-deep-tail",
        abs(v / 0.03325966743367704 - 1.0) < 1e-12,
        f"psi(-30) = {v}",
    )
    v = 7.0 * mills_psi(7.0)
    yield _check(
        "psi-near-linear-tail",
        abs(v / 49.00000000006394 - 1.0) < 1e-13,
        f"7*psi(7) = {v}",
    )
    # E[exp(0.3 Z)] for the quadrature rule against the exact moment
    moment = gauss_hermite(48).expect(lambda z: np.exp(0.3 * z))
    yield _check(
        "gauss-hermite-moment",
        abs(moment / math.exp(0.045) - 1.0) < 1e-12,
        f"E[exp(0.3 Z)] = {moment}",
    )
    # mixture kernel against the closed form of its nearly-degenerate-Y limit
    mu_x, sig_x, mu_y, k = 0.0, 0.1, 1010.0, -1000.0
    mix = nln_mixture_expectation(Gaussian(mu_x, sig_x), Gaussian(mu_y, 1e-6), k)
    z = (math.log(-k / mu_y) - mu_x) / sig_x
    p = ndtr(-z)
    closed = (mu_y * math.exp(mu_x + sig_x**2 / 2) * ndtr(sig_x - z) + k * p) / p
    yield _check(
        "mixture-degenerate-limit",
        abs(mix / closed - 1.0) < 1e-6,
        f"mixture {mix} vs closed {closed}",
    )


def _verify_solvers() -> Iterator[dict]:
    from scipy.integrate import quad  # here, so importing this module leaves scipy.integrate out

    T = 6
    table = approximate_recursion(MillsRecursionProblem.uniform(Horizon(T, 10.0), 2.0, 1.0))
    worst = 0.0
    for t in range(1, T):
        grid = table.value_samples[t - 1][:, 0]
        lin = grid / (T - t + 1)
        pol = np.array([table.trade_at(t, w) for w in grid])
        worst = max(worst, float(np.max(np.abs(pol - lin) / lin)))
    yield _check(
        "linear-law-equal-split",
        worst < 1e-6,
        f"worst relative policy error {worst}",
    )

    params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
    _, table = solve_ar1_simple(params, Horizon(2, 1.0), 1.0)
    closed = float(table.value_samples[0][-1, 1])
    beta = math.hypot(0.5 * 1.0, 1.0)
    mu = 1.0 * (1.0 / 2) + 0.5 * 0.9 * 1.0
    dens = lambda y: math.exp(-0.5 * ((y - mu) / beta) ** 2)  # noqa: E731
    num, _ = quad(lambda y: y * dens(y), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    den, _ = quad(dens, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    v_quad = 1.0 * num / den
    rel = abs(closed / v_quad - 1.0)
    yield _check(
        "ar1-closed-vs-quadrature",
        rel < 1e-8,
        f"closed {closed} vs quadrature {v_quad} (rel {rel})",
    )

    theta, sigma, W = 5.0, 1.0, 1.0
    sched, _ = solve_benchmark_complex(Benchmark(theta, sigma), Horizon(2, W))
    s = sched.trades[0]
    u1, u2 = theta * s / sigma, theta * (W - s) / sigma
    terms = (
        W * theta * mills_psi_prime(u1),
        -sigma * mills_psi(u2),
        -theta * (W - s) * mills_psi_prime(u2),
    )
    resid = math.fsum(terms)
    scale = max(1.0, *(abs(t) for t in terms))
    yield _check(
        "penultimate-foc-residual",
        abs(resid) <= 1e-8 * scale,
        f"FOC residual {resid} at S_1 = {s} (scale {scale})",
    )

    lparams = Liquidity(
        alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
    )
    lstate = MarketState(price=100.0, aux=50.0)
    values = []
    for order in (40, 80):
        _, lt = solve_liquidity(
            lparams, Horizon(2, 20.0), lstate, config=RecursionConfig(quad_order=order)
        )
        values.append(float(lt.value_samples[0][-1, 1]))
    rel = abs(values[0] / values[1] - 1.0)
    yield _check(
        "liquidity-quadrature-stability",
        rel < 1e-6,
        f"order 40 {values[0]} vs order 80 {values[1]} (rel {rel})",
    )


def _verify_attribution() -> Iterator[dict]:
    up = OrderContext(
        arrival_price=100.0,
        total_shares=10.0,
        horizon=4,
        price_path=(100.0, 101.0, 103.0, 106.0, 110.0),
    )
    fills = [
        Fill(t=t, price=p, qty=q, side="buy")
        for t, p, q in zip((1, 2, 3, 4), up.price_path[1:], (4.0, 3.0, 2.0, 1.0))
    ]
    rep = attribute(up, fills, "complex")
    yield _check(
        "monotone-up-timing-vanishes",
        rep.timing == 0.0,
        f"complex timing {rep.timing} on a monotone adverse path",
    )
    dip = OrderContext(
        arrival_price=100.0,
        total_shares=10.0,
        horizon=4,
        price_path=(100.0, 103.0, 101.0, 99.0, 104.0),
    )
    fills = [
        Fill(t=t, price=p, qty=q, side="buy")
        for t, p, q in zip((1, 2, 3, 4), dip.price_path[1:], (4.0, 3.0, 2.0, 1.0))
    ]
    rep = attribute(dip, fills, "complex")
    yield _check(
        "dip-timing-is-residual-weighted-drop",
        rep.timing == -18.0,
        f"complex timing {rep.timing}, expected -18.0",
    )


def _verify_zero_sum() -> Iterator[dict]:
    rng = np.random.default_rng(np.random.Philox(20260814))
    all_passed = True
    worst = 0.0
    for _ in range(50):
        T = int(rng.integers(1, 6))
        steps = rng.normal(0.0, 0.02, T)
        path = (100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))).tolist()
        fills = []
        for t in range(1, T + 1):
            qty = float(rng.uniform(1.0, 10.0))
            price = path[t]
            for prefix, n in (("b", int(rng.integers(1, 3))), ("s", int(rng.integers(1, 3)))):
                side = "buy" if prefix == "b" else "sell"
                for i, frac in enumerate(rng.dirichlet(np.ones(n))):
                    if frac > 0.0:
                        fills.append(
                            Fill(
                                t=t,
                                price=price,
                                qty=qty * float(frac),
                                side=side,
                                participant=f"{prefix}{i}",
                            )
                        )
        for formulation in FORMULATIONS:
            audit = zero_sum_audit(fills, path, formulation)
            all_passed = all_passed and audit.passed
            worst = max(worst, abs(audit.residual) / audit.tolerance)
    yield _check(
        "randomized-balanced-markets",
        all_passed,
        f"50 markets x both formulations; worst |residual|/tolerance {worst}",
    )


_SUITES = {
    "kernels": _verify_kernels,
    "solvers": _verify_solvers,
    "attribution": _verify_attribution,
    "zero-sum": _verify_zero_sum,
}
