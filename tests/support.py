"""Helpers shared by the solver tests: finite-difference checks, bench configs
and reference values, and a cap on the exact-residual stage re-solves."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

from execsched import cli, dp, gbm, liquidity

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)
    return inputs


def bench_solve_config(model: str, value: float) -> dict:
    """The benchmark's solve config for one model, validated as the CLI reads it."""
    return cli.validate_config(_bench_inputs().solve_config(model, value))


def bench_reference(model: str) -> dict:
    """The benchmark's recorded top-node value of each solve variant of one model."""
    inputs = _bench_inputs()
    return dict(zip(inputs.VARIANTS[model], inputs.load_reference()[model]))


_RESOLVE_STAGE = dp._resolve_stage


def cap_resolves(monkeypatch, newton_iters: int) -> None:
    """Cap the exact-residual stage re-solves of every solver family, and only
    them, at ``newton_iters`` Newton iterations; the grid stages keep theirs."""

    def capped(objective, derivs, ub, points, cfg):
        cfg = dataclasses.replace(cfg, newton_iters=newton_iters)
        return _RESOLVE_STAGE(objective, derivs, ub, points, cfg)

    for module in (dp, gbm, liquidity):
        monkeypatch.setattr(module, "_resolve_stage", capped)


def central_differences(f, x: float, h: float, H: float, noise: float):
    """Central differences of a scalar f at x, each with a bound on its error.

    Returns (d1, tol1, d2, tol2) for d1 = (f(x+h) - f(x-h))/(2h) and
    d2 = (f(x+h) - 2f(x) + f(x-h))/h^2.  Truncation is h^2/6 * |f^(3)| and
    h^2/12 * |f^(4)|; both derivatives are bounded from differences of f at
    the wider step H, with 4x headroom for their variation over the stencil.
    ``noise`` bounds the rounding error of one value of f, which the
    differences amplify by 1/h and 4/h^2.
    """
    m2, m1, c0, p1, p2 = (f(x + k * H) for k in (-2, -1, 0, 1, 2))
    d4 = (abs(p2 - 4.0 * p1 + 6.0 * c0 - 4.0 * m1 + m2) + 16.0 * noise) / H**4
    d3 = (abs(p2 - 2.0 * p1 + 2.0 * m1 - m2) + 6.0 * noise) / (2.0 * H**3) + 2.0 * H * d4
    lo, hi = f(x - h), f(x + h)
    return (
        (hi - lo) / (2.0 * h),
        h * h / 6.0 * 4.0 * d3 + noise / h,
        (hi - 2.0 * c0 + lo) / (h * h),
        h * h / 12.0 * 4.0 * d4 + 4.0 * noise / (h * h),
    )
