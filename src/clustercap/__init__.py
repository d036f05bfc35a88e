"""Exact capacity and storage/repair-bandwidth tradeoff analysis for
clustered storage systems with separate nodes."""

from .capacity import (
    ComparisonVerdict,
    Outcome,
    TradeoffPoint,
    TradeoffResult,
    UnsupportedE,
    Unstorable,
    Variant,
    WeightSequence,
    capacity_achiever,
    compare_separate,
    min_alpha,
    mincut_by_location,
    system_capacity,
    tradeoff_curve,
    weight_sequence,
)
from .mincut import CutReport, mincut, part_incoming_weights, relative_location
from .model import (
    BandwidthOrder,
    BudgetExceeded,
    ClusterOrder,
    ConfigError,
    DCRange,
    DInvalid,
    Infeasible,
    KRange,
    NodeCount,
    NodeParams,
    Rational,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
    enumerate_distributions,
    enumerate_orders,
    format_rational,
    parse_rational,
    validate_config,
)
from .sequencing import (
    SeparatePositions,
    horizontal_selection,
    optimal_order_with_separate_at,
    vertical_order,
)

__version__ = "0.1.0"

# The verification oracle is loaded on first use: the CLI's capacity,
# tradeoff and compare commands never need it, and each CLI call is a
# fresh process that pays for every module it imports.
_ORACLE_NAMES = frozenset({
    "BruteForceResult",
    "FlowGraph",
    "VerificationReport",
    "brute_force_capacity",
    "build_ifg",
    "ifg_mincut",
    "lattice_capacity",
    "verify_claims",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # lists the lazy oracle names too, without loading the oracle
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "BandwidthOrder",
    "BruteForceResult",
    "BudgetExceeded",
    "ClusterOrder",
    "ComparisonVerdict",
    "ConfigError",
    "CutReport",
    "DCRange",
    "DInvalid",
    "FlowGraph",
    "Infeasible",
    "KRange",
    "NodeCount",
    "NodeParams",
    "Outcome",
    "Rational",
    "RepairParams",
    "SelectedNodeDistribution",
    "SeparatePositions",
    "SystemConfig",
    "TradeoffPoint",
    "TradeoffResult",
    "UnsupportedE",
    "Unstorable",
    "Variant",
    "VerificationReport",
    "WeightSequence",
    "brute_force_capacity",
    "build_ifg",
    "capacity_achiever",
    "compare_separate",
    "enumerate_distributions",
    "enumerate_orders",
    "format_rational",
    "horizontal_selection",
    "ifg_mincut",
    "lattice_capacity",
    "min_alpha",
    "mincut",
    "mincut_by_location",
    "optimal_order_with_separate_at",
    "parse_rational",
    "part_incoming_weights",
    "relative_location",
    "system_capacity",
    "tradeoff_curve",
    "validate_config",
    "verify_claims",
    "vertical_order",
    "weight_sequence",
]
