"""A/B check and CPU timing of two versions of the exact search.

    PYTHONPATH=src python scripts/exact_ab.py OLD_SRC NEW_SRC [--passes N]

OLD_SRC and NEW_SRC are source trees that hold ``symfair/exact.py`` (for
example a checkout's ``src``). Each tree's ``exact.py`` is loaded as a module
of the ``symfair`` package found on the path, so both run against one
``core``, and only the search differs.

The instances are drawn from seeds, not imported from perfbench:

- frontier: the 21-instance pool of ``exact_frontier.py`` (beside this
  script; the perfbench frontier pool), searched under a 40 000-node budget
  and no time limit;
- grid: the acceptance grid's cells at 1/40 of their replications (master
  seed 42), each replication the greedy builder fails, searched under a
  10^7-node budget and no time limit.

First it prints each side's CPU to build the search kernels (``_kernel``,
one per agent count) that these instances use, so no timed pass includes a
build; a tree whose ``exact.py`` has no kernels prints "-". Both sides must
return the same (status, nodes, partition) on every instance; the script
exits 1 at the first difference. It then runs N passes
per side (default 5), alternating which side goes first, times each group of
a pass with ``time.process_time`` and prints each side's minimum and median
CPU per group.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

from symfair import Instance, SearchLimits
from symfair.heuristic import greedy_symef1
from symfair.sim import random_instance, replication_seed

FRONTIER_LIMITS = SearchLimits(node_budget=40_000, time_budget=math.inf)
GRID_CELLS = (  # (n, m, M, replications) at 1/40 of the acceptance grid's
    [(3, m, 10**4, 50) for m in (5, 6, 7, 8, 9, 10, 15)]
    + [(4, m, 10**4, 50) for m in (5, 6, 8, 15)]
    + [(5, m, 10**4, 25) for m in (6, 10, 15)]
    + [(4, 6, 10, 50)]
)
GRID_MASTER_SEED = 42
GRID_LIMITS = SearchLimits(node_budget=10**7, time_budget=math.inf)


def load(path: Path, name: str):
    """The Python file at ``path`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_exact(src: str, tag: str):
    """``<src>/symfair/exact.py`` as the module ``symfair._exact_<tag>``."""
    return load(Path(src) / "symfair" / "exact.py", f"symfair._exact_{tag}")


def grid_fallbacks() -> list[Instance]:
    out = []
    for n, m, M, reps in GRID_CELLS:
        for r in range(reps):
            inst = random_instance(n, m, M, replication_seed(GRID_MASTER_SEED, n, m, M, r))
            if not greedy_symef1(inst).found:
                out.append(inst)
    return out


def build_kernels(exact, sizes) -> str:
    """CPU milliseconds to build ``exact``'s kernels for these agent counts, or "-"."""
    kernel = getattr(exact, "_kernel", None)
    if kernel is None:
        return "-"
    t0 = time.process_time()
    for n in sizes:
        kernel(n)
    return f"{1e3 * (time.process_time() - t0):.1f}"


def run(exact, instances, limits) -> list[tuple]:
    results = []
    for inst in instances:
        outcome = exact.exact_symef1(inst, limits)
        results.append((outcome.status.value, outcome.nodes, outcome.partition))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sides = {"old": load_exact(args.old_src, "old"), "new": load_exact(args.new_src, "new")}
    frontier = load(Path(__file__).with_name("exact_frontier.py"), "exact_frontier")
    pool = [inst for label, inst in frontier.instances() if label.startswith("pool")]
    groups = {
        "frontier": (pool, FRONTIER_LIMITS),
        "grid": (grid_fallbacks(), GRID_LIMITS),
    }
    sizes = sorted({inst.n for instances, _ in groups.values() for inst in instances})
    built = {side: build_kernels(exact, sizes) for side, exact in sides.items()}
    print(f"kernel build CPU ms, n = {', '.join(map(str, sizes))}: "
          f"old {built['old']}, new {built['new']}")
    for group, (instances, limits) in groups.items():
        want = run(sides["old"], instances, limits)
        got = run(sides["new"], instances, limits)
        for r, (a, b) in enumerate(zip(want, got)):
            if a != b:
                what = "partitions" if a[:2] == b[:2] else f"outcomes {a[:2]} and {b[:2]}"
                print(f"{group} #{r}: old and new {what} differ")
                return 1
        decided = sum(status != "budget_exceeded" for status, _, _ in want)
        print(f"{group}: {len(instances)} instances, {decided} decided, "
              f"{sum(nodes for _, nodes, _ in want)} nodes; old and new agree on every "
              "(status, nodes, partition)")
    cpu = {(group, side): [] for group in groups for side in sides}
    for p in range(args.passes):
        for side in (("old", "new") if p % 2 == 0 else ("new", "old")):
            for group, (instances, limits) in groups.items():
                t0 = time.process_time()
                run(sides[side], instances, limits)
                cpu[group, side].append(1e3 * (time.process_time() - t0))
    print(f"\nCPU ms per pass over {args.passes} passes per side, sides alternating first")
    print("| group | side | min | median |")
    print("|---|---|---|---|")
    for (group, side), times in cpu.items():
        print(f"| {group} | {side} | {min(times):.1f} | {statistics.median(times):.1f} |")
    for group in groups:
        ratio = statistics.median(cpu[group, "new"]) / statistics.median(cpu[group, "old"])
        print(f"{group}: new / old median CPU x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
