"""Spans around calls into symfair's public functions, and per-layer metrics.

The tracer replaces a function at the name its caller looks up (for example
``symfair.sim.greedy_symef1``, which ``run_simulation`` resolves at call time)
with a wrapper that records one span per call: name, start, end, parent span,
the operation it belongs to, and counts taken from the returned value. Nothing
under ``src/`` changes; ``uninstall`` puts every original back. Span times are
process CPU time, the clock the in-process operations are timed with.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# Counts come from the returned objects: HeuristicStats, ExactOutcome.nodes,
# the k-coloring (or None), the group structure (or None), the exit code.


def _greedy_attrs(result):
    s = result.stats
    return {"found": result.found, "c1": s.placed_case1, "c2": s.placed_case2,
            "c3": s.placed_case3}


def _exact_attrs(outcome):
    return {"status": outcome.status.value, "nodes": outcome.nodes}


def _some(result):
    return {"some": result is not None}


def _code(result):
    return {"code": result}


TRACE_POINTS = (
    # span name,                 module,            attribute,                annotate
    ("sim.run_simulation",        "symfair.sim",     "run_simulation",         None),
    ("sim.random_instance",       "symfair.sim",     "random_instance",        None),
    ("heuristic.greedy_symef1",   "symfair.sim",     "greedy_symef1",          _greedy_attrs),
    ("heuristic.greedy_symef1",   "symfair.cli",     "greedy_symef1",          _greedy_attrs),
    ("exact.exact_symef1",        "symfair.sim",     "exact_symef1",           _exact_attrs),
    ("exact.exact_symef1",        "symfair.cli",     "exact_symef1",           _exact_attrs),
    ("exact.exact_symef1",        "symfair.exact",   "exact_symef1",           _exact_attrs),
    ("tuples.build_item_graph",   "symfair.cli",     "build_item_graph",       None),
    ("tuples.k_color",            "symfair.cli",     "k_color",                _some),
    ("constructive.detect_groups", "symfair.cli",    "detect_groups",          _some),
    ("core.parse_instance",       "symfair.cli",     "parse_instance",         None),
    ("core.is_symef1",            "symfair.exact",   "is_symef1",              None),
    ("core.is_symef1",            "symfair.cli",     "first_symef1_violation", None),
    ("core.is_symef1",            "symfair.cli",     "first_symefx_violation", None),
    ("core.is_symef1",            "symfair.cli",     "first_ef1_violation",    None),
    ("cli.main",                  "symfair.cli",     "main",                   _code),
)


class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, op id, attrs dict].
        # Parent indices refer to the same pass's list.
        self.passes: list[list[list]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def install(self) -> None:
        import importlib

        for name, module_name, attr, annotate in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, annotate))
            self._patches.append((module, attr, original))

    def new_pass(self) -> list[list]:
        self.spans = []
        self.passes.append(self.spans)
        return self.spans

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, annotate):
        stack = self._stack
        clock = time.process_time

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, {}]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "passes": self.passes}, fh)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(spans: list[list], scale: dict[int, float]) -> dict[str, float]:
    """Per-layer numbers for one pass of spans.

    ``scale`` maps an op id to the factor that converts its wall time to
    reference-speed time (see ``run.SpeedProbe``); every span of an op gets it.
    Times are seconds unless the name says ms; counts are exact integers.
    """
    durations = []
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        d = (end - start) * scale.get(op, 1.0)
        durations.append(d)
        if parent >= 0:
            child_time[parent] += d

    def spans_named(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def busy(name):
        return sum(durations[i] for i, _ in spans_named(name))

    def self_time(name):
        return sum(durations[i] - child_time[i] for i, _ in spans_named(name))

    m: dict[str, float] = {}
    m["sim.random_instance_s"] = busy("sim.random_instance")
    m["sim.self_s"] = self_time("sim.run_simulation")

    greedy = spans_named("heuristic.greedy_symef1")
    g_ok = [(i, s) for i, s in greedy if "error" not in s[5]]
    g_ms = [durations[i] * 1000 for i, _ in greedy]
    m["heuristic.calls"] = len(greedy)
    m["heuristic.busy_s"] = sum(durations[i] for i, _ in greedy)
    m["heuristic.ms_p50"] = percentile(g_ms, 50)
    m["heuristic.ms_p99"] = percentile(g_ms, 99)
    found = sum(1 for _, s in g_ok if s[5]["found"])
    m["heuristic.found_ratio"] = found / len(greedy) if greedy else 0.0
    m["heuristic.failed_busy_s"] = sum(
        durations[i] for i, s in greedy if not s[5].get("found", False))
    for case in ("1", "2", "3"):
        m[f"heuristic.case{case}"] = sum(s[5]["c" + case] for _, s in g_ok)

    exact = spans_named("exact.exact_symef1")
    e_ok = [(i, s) for i, s in exact if "error" not in s[5]]
    nodes = [s[5]["nodes"] for _, s in e_ok]
    e_busy = sum(durations[i] for i, _ in exact)
    m["exact.calls"] = len(exact)
    m["exact.busy_s"] = e_busy
    m["exact.nodes_total"] = sum(nodes)
    m["exact.nodes_p50"] = percentile(nodes, 50)
    m["exact.nodes_p99"] = percentile(nodes, 99)
    m["exact.nodes_max"] = max(nodes, default=0)
    m["exact.nodes_per_s"] = sum(nodes) / e_busy if e_busy > 0 else 0.0
    m["exact.found_ms_p50"] = percentile(
        [durations[i] * 1000 for i, s in e_ok if s[5]["status"] == "found"], 50)
    m["exact.infeasible_ms_p50"] = percentile(
        [durations[i] * 1000 for i, s in e_ok if s[5]["status"] == "proved_infeasible"], 50)
    m["exact.budget_exceeded"] = sum(1 for _, s in e_ok if s[5]["status"] == "budget_exceeded")

    colorings = spans_named("tuples.k_color")
    c_done = [s for _, s in colorings if "error" not in s[5]]
    m["tuples.build_item_graph_s"] = busy("tuples.build_item_graph")
    m["tuples.k_color_s"] = busy("tuples.k_color")
    m["tuples.k_color_calls"] = len(colorings)
    m["tuples.k_color_colored_ratio"] = (
        sum(1 for s in c_done if s[5]["some"]) / len(c_done) if c_done else 0.0)
    m["tuples.k_color_errors"] = len(colorings) - len(c_done)

    groups = spans_named("constructive.detect_groups")
    m["constructive.detect_groups_s"] = busy("constructive.detect_groups")
    m["constructive.applicable_ratio"] = (
        sum(1 for _, s in groups if s[5].get("some")) / len(groups) if groups else 0.0)

    m["core.parse_instance_s"] = busy("core.parse_instance")
    m["core.is_symef1_s"] = busy("core.is_symef1")
    m["core.is_symef1_calls"] = len(spans_named("core.is_symef1"))
    m["cli.self_s"] = self_time("cli.main")
    return m


# Metrics that count work; they must repeat exactly across passes and runs.
COUNT_METRICS = (
    "heuristic.calls", "heuristic.case1", "heuristic.case2", "heuristic.case3",
    "heuristic.found_ratio", "exact.calls", "exact.nodes_total", "exact.nodes_p50",
    "exact.nodes_p99", "exact.nodes_max", "exact.budget_exceeded",
    "tuples.k_color_calls", "tuples.k_color_colored_ratio", "tuples.k_color_errors",
    "constructive.applicable_ratio", "core.is_symef1_calls",
)
