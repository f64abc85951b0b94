"""Monte Carlo American option pricing with Malliavin-weight continuation
estimators, closed-form conditioning, and optimal quotient sample splits."""

from .kernels import (
    DiagonalKernelParams,
    conditioned_continuation,
    denominator_closed_form,
    kernel_h,
    kernel_second_moment,
)
from .market_model import AssetPaths, TimeGrid, TriangularVol, build_vol, simulate_paths
from .pricer import (
    Payoff,
    PriceEstimate,
    conditional_expectation_check,
    evaluate_payoff,
    geometric_equivalent_1d,
    lognormal_conditional_put,
    price_mcm,
    price_tree_1d,
    tree_american_put,
)
from .ratio import (
    QuotientPlan,
    QuotientStats,
    optimal_plan,
    sigma1_of_lambda,
    sigma2_of_lambda,
)
from .rng import replication_seed, splitmix64, stream_normals
from .weights import (
    compute_pi,
    compute_pi_covariance,
    gamma_bruteforce,
    gamma_recursive,
    path_weights,
    raw_continuation,
)

__version__ = "0.1.0"

# The harness and CLI load on first use: ``python -m mcmpricer.bench`` then
# finds the module unimported, and runpy runs it without a warning.
_BENCH_NAMES = ("PriceTable", "RunConfig", "run", "scaling_report", "sweep")


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AssetPaths",
    "DiagonalKernelParams",
    "Payoff",
    "PriceEstimate",
    "PriceTable",
    "QuotientPlan",
    "QuotientStats",
    "RunConfig",
    "TimeGrid",
    "TriangularVol",
    "build_vol",
    "compute_pi",
    "compute_pi_covariance",
    "conditional_expectation_check",
    "conditioned_continuation",
    "denominator_closed_form",
    "evaluate_payoff",
    "gamma_bruteforce",
    "gamma_recursive",
    "geometric_equivalent_1d",
    "kernel_h",
    "kernel_second_moment",
    "lognormal_conditional_put",
    "optimal_plan",
    "path_weights",
    "price_mcm",
    "price_tree_1d",
    "raw_continuation",
    "replication_seed",
    "run",
    "scaling_report",
    "sigma1_of_lambda",
    "sigma2_of_lambda",
    "simulate_paths",
    "splitmix64",
    "stream_normals",
    "sweep",
    "tree_american_put",
]
