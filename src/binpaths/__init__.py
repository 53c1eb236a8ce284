"""Valuation of path-dependent payoffs on recombinant binomial trees.

Exact expected values by merged lattice states or by path enumeration
(serial or partitioned across workers), a closed-form leaf evaluation
for European payoffs, and three Monte Carlo estimators (basic,
partitioned, shared-sample) with variance estimates, plus a
benchmarking harness and a CLI.
"""

from .errors import (
    EnumerationGuard,
    InfeasibleAllocation,
    InvalidInput,
    InvalidWorkerCount,
    LengthMismatch,
    NonConstantProbs,
    NonFiniteValue,
    PathDependentPayoff,
    PricingError,
    ProbabilityOutOfRange,
    RankOutOfRange,
)
from .model import (
    MAX_DEPTH,
    MarketInputs,
    TreeParams,
    asset_path,
    derive_crr,
    leaf_prices,
    with_custom_probs,
)
from .paths import (
    BernoulliPath,
    PathPartition,
    block_code_ranges,
    block_probability,
    iter_block,
    make_partition,
    path_probability,
)
from .payoffs import PayoffKind, parse_payoff, payoff, payoff_batch
from .exact import (
    LARGE_DEPTH,
    ValuationRequest,
    value_exact_parallel,
    value_exact_serial,
    value_leaf_formula,
)
from .mc import (
    Estimate,
    McConfig,
    RepetitionSummary,
    allocate_strata,
    estimate_basic,
    estimate_partitioned,
    estimate_partitioned_equal,
    estimate_shared,
    mc_stream,
    run_repetitions,
    sample_path,
)
from .bench import BenchRecord, records_to_csv, records_to_tables, run_bench

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BernoulliPath",
    "EnumerationGuard",
    "Estimate",
    "InfeasibleAllocation",
    "InvalidInput",
    "InvalidWorkerCount",
    "LARGE_DEPTH",
    "LengthMismatch",
    "MAX_DEPTH",
    "MarketInputs",
    "McConfig",
    "NonConstantProbs",
    "NonFiniteValue",
    "PathDependentPayoff",
    "PathPartition",
    "PayoffKind",
    "PricingError",
    "ProbabilityOutOfRange",
    "RankOutOfRange",
    "RepetitionSummary",
    "TreeParams",
    "ValuationRequest",
    "allocate_strata",
    "asset_path",
    "block_code_ranges",
    "block_probability",
    "derive_crr",
    "estimate_basic",
    "estimate_partitioned",
    "estimate_partitioned_equal",
    "estimate_shared",
    "iter_block",
    "leaf_prices",
    "make_partition",
    "mc_stream",
    "parse_payoff",
    "path_probability",
    "payoff",
    "payoff_batch",
    "records_to_csv",
    "records_to_tables",
    "run_bench",
    "run_repetitions",
    "sample_path",
    "value_exact_parallel",
    "value_exact_serial",
    "value_leaf_formula",
    "with_custom_probs",
]
