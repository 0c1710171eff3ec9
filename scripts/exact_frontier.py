"""Verdict, nodes and CPU time of `exact_symef1` on the instances at its frontier.

Runs the exact search under a node budget alone (5 x 10^6 nodes, no time
limit) on the perfbench frontier pool, 3 uniform instances each at (n, m) =
(5,10), (5,15), (6,12), (6,15), (6,18), (7,14), (7,21), and on fresh uniform
draws past it: 8 at 7x21, 4 at 8x16 and 6 at 8x24. It prints the budget, a
Markdown table, one instance a row, and how many instances the search decided
within the budget. Verdicts and node counts are the same on any host.

    PYTHONPATH=src python scripts/exact_frontier.py

Values are 0..10^4, drawn row by row. Pool instance r at (n, m) comes from
random.Random("frontier:<n>:<m>:<r>"), fresh draw r from
random.Random("rm:<n>:<m>:<r>").
"""

from __future__ import annotations

import math
import random
import time

from symfair import ExactStatus, Instance, SearchLimits, exact_symef1

POOL = ((5, 10), (5, 15), (6, 12), (6, 15), (6, 18), (7, 14), (7, 21))
POOL_DRAWS = 3
FRESH = ((7, 21, 8), (8, 16, 4), (8, 24, 6))  # (n, m, draws)
MAX_VALUE = 10**4
LIMITS = SearchLimits(node_budget=5 * 10**6, time_budget=math.inf)


def draw(tag: str, n: int, m: int) -> Instance:
    rng = random.Random(tag)
    return Instance.from_rows([[rng.randint(0, MAX_VALUE) for _ in range(m)] for _ in range(n)])


def instances():
    """(label, instance) for the pool, then for the fresh draws."""
    for n, m in POOL:
        for r in range(POOL_DRAWS):
            yield f"pool {n}x{m} #{r}", draw(f"frontier:{n}:{m}:{r}", n, m)
    for n, m, draws in FRESH:
        for r in range(draws):
            yield f"fresh {n}x{m} #{r}", draw(f"rm:{n}:{m}:{r}", n, m)


def main() -> None:
    print(f"node budget {LIMITS.node_budget}, no time limit\n")
    print("| instance | verdict | nodes | CPU ms |")
    print("|---|---|---|---|")
    decided = total = 0
    for label, inst in instances():
        t0 = time.process_time()
        outcome = exact_symef1(inst, LIMITS)
        ms = 1e3 * (time.process_time() - t0)
        total += 1
        decided += outcome.status is not ExactStatus.BUDGET_EXCEEDED
        print(f"| {label} | {outcome.status.value} | {outcome.nodes} | {ms:.0f} |", flush=True)
    print(f"\ndecided {decided} of {total}")


if __name__ == "__main__":
    main()
