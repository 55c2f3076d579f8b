"""Optimal trade-execution scheduling and trading-cost attribution.

The public names load their modules on first use (PEP 562), so importing
the package loads none of them, and the attribution, which needs numpy
alone, never loads the solvers or scipy.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AttributionReport", "Fill", "OrderContext", "UnbalancedIntervalError",
        "ZeroSumAudit", "attribute", "impact_complex", "impact_simple", "path_costs",
        "shortfall", "timing", "zero_sum_audit",
    ), "attribution"),
    **dict.fromkeys((
        "ClosedLinearPolicy", "ConfigError", "ConvexityWarning", "Horizon",
        "InfeasibleLiquidityError", "MillsRecursionProblem", "NumericalPolicy",
        "PolicyTable", "RecursionConfig", "ResolutionWarning", "Schedule",
        "approximate_recursion", "solve_ar1_complex", "solve_ar1_simple",
        "solve_benchmark_complex", "solve_benchmark_simple",
    ), "dp"),
    "solve_gbm_simple": "gbm",
    **dict.fromkeys((
        "Gaussian", "MixtureRegimeError", "QuadratureRule", "gauss_hermite", "mills_psi",
        "mills_psi_prime", "nln_mixture_expectation",
    ), "kernels"),
    "solve_liquidity": "liquidity",
    **dict.fromkeys((
        "Ar1Extra", "Benchmark", "DegeneratePathWarning", "LinearPercentage", "Liquidity",
        "LiquidityViolationError", "MarketBatch", "MarketState", "SolverError", "Spread",
        "StepEvents", "ar1_volume_update", "convexity_check",
    ), "models"),
    **dict.fromkeys((
        "MOMENTUM_LABELS", "VOLATILITY_LABELS", "BucketThresholds", "CostDistribution",
        "SimConfig", "SimulatedPaths", "estimate_objective", "evaluate_policy",
        "momentum_volatility_buckets", "simulate_paths",
    ), "simulate"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
