"""symfair: symmetrically envy-free-up-to-one-good partitions of indivisible goods.

Verification predicates, closed-form constructions, an exact coloring-based
sufficient condition, a greedy builder, complete search and enumeration, a
maximum-Nash-welfare oracle, and a Monte-Carlo incidence study.
"""

__version__ = "0.1.0"

from .constructive import GroupStructure, agent_round_robin, detect_groups, grouped_allocation
from .core import (
    Assignment,
    BudgetExceededError,
    Instance,
    ParseError,
    Partition,
    SearchLimits,
    bundle_value,
    first_ef1_violation,
    first_symef1_violation,
    first_symefx_violation,
    format_partition,
    is_balanced,
    is_ef1_satisfied,
    is_symef1,
    is_symefx,
    items_distinct,
    max_item_value,
    nash_welfare,
    parse_instance,
    parse_partition,
    validate_partition,
)
from .exact import (
    ExactOutcome,
    ExactStatus,
    canonical_partition,
    enumerate_symef1,
    exact_symef1,
    export_ip,
    max_nash_welfare,
    naive_enumerate_symef1,
)
from .heuristic import (
    HeuristicResult,
    HeuristicStats,
    extend_allocation,
    greedy_symef1,
    order_items,
)
from .tuples import (
    ItemGraph,
    build_item_graph,
    coloring_to_partition,
    components,
    count_lower_bound,
    graph_to_dot,
    indexed_tuples,
    k_color,
    ranking,
    separates_tuples,
)

__all__ = [
    "Assignment",
    "BudgetExceededError",
    "ExactOutcome",
    "ExactStatus",
    "GroupStructure",
    "HeuristicResult",
    "HeuristicStats",
    "Instance",
    "ItemGraph",
    "ParseError",
    "Partition",
    "SearchLimits",
    "SimConfig",
    "SimReport",
    "agent_round_robin",
    "build_item_graph",
    "bundle_value",
    "canonical_partition",
    "coloring_to_partition",
    "components",
    "count_lower_bound",
    "detect_groups",
    "emit_csv",
    "enumerate_symef1",
    "exact_symef1",
    "export_ip",
    "extend_allocation",
    "first_ef1_violation",
    "first_symef1_violation",
    "first_symefx_violation",
    "format_partition",
    "graph_to_dot",
    "greedy_symef1",
    "grouped_allocation",
    "indexed_tuples",
    "is_balanced",
    "is_ef1_satisfied",
    "is_symef1",
    "is_symefx",
    "items_distinct",
    "k_color",
    "max_item_value",
    "max_nash_welfare",
    "naive_enumerate_symef1",
    "nash_welfare",
    "order_items",
    "parse_instance",
    "parse_partition",
    "random_instance",
    "ranking",
    "replication_seed",
    "run_simulation",
    "separates_tuples",
    "validate_partition",
]

# The simulation layer needs numpy, which costs more to import than the rest of
# the package together; load it on first use so the CLI and the library's
# checks start without it.
_SIM_NAMES = frozenset(
    ("SimConfig", "SimReport", "emit_csv", "random_instance", "replication_seed", "run_simulation")
)


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
