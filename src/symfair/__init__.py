"""symfair: symmetrically envy-free-up-to-one-good partitions of indivisible goods.

Verification predicates, closed-form constructions, an exact coloring-based
sufficient condition, a greedy builder, complete search and enumeration, a
maximum-Nash-welfare oracle, and a Monte-Carlo incidence study.
"""

import sys

__version__ = "0.1.0"

# Every public name, and the submodule that defines it; ``cli`` looks up each
# engine name here on its first use, so this is the one such table. A name, or a submodule
# as an attribute of the package, is imported on first access, so
# ``symfair.cli check`` loads only ``core``, and nothing loads ``sim`` until a
# simulation name is used. Even then numpy (slower to import than the rest of
# the package together) waits for the first draw, and the process pool for a
# run with more than one worker.
_HOME = {
    name: module
    for module, names in (
        ("constructive", ("agent_round_robin", "detect_groups", "grouped_allocation",
                          "two_agent_partition")),
        ("core", ("Assignment", "BudgetExceededError", "Instance", "ParseError", "Partition",
                  "SearchLimits", "bundle_value", "first_ef1_violation",
                  "first_symef1_violation", "first_symefx_violation", "format_partition",
                  "is_balanced", "is_ef1_satisfied", "is_symef1", "is_symefx",
                  "items_distinct", "max_item_value", "nash_welfare", "order_items",
                  "parse_instance", "parse_partition", "ranking", "validate_partition")),
        ("exact", ("ExactOutcome", "ExactStatus", "canonical_partition", "enumerate_symef1",
                   "exact_symef1", "export_ip", "max_nash_welfare", "naive_enumerate_symef1")),
        ("heuristic", ("HeuristicResult", "HeuristicStats", "extend_allocation",
                       "greedy_symef1")),
        ("sim", ("SimConfig", "SimReport", "emit_csv", "random_instance", "replication_seed",
                 "run_simulation")),
        ("tuples", ("ItemGraph", "build_item_graph", "coloring_to_partition", "components",
                    "count_lower_bound", "graph_to_dot", "indexed_tuples", "k_color",
                    "separates_tuples")),
    )
    for name in names
}

_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME)


def _submodule(name: str):
    # Through ``__import__``, which ``python -X importtime`` logs, where
    # ``importlib.import_module`` would load the module without a log line.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
