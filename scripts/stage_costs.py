"""CPU cost of each `symfair solve --strategy=auto` stage, and of two stage orders.

For n = 2..8 it draws uniform (values 0..10^4) and binary (0/1) instances at a
small and a large item count, runs every stage of `solve` on each instance
with the default budgets, and prints a Markdown table. A row gives, for each
order, which stage decides; the CPU milliseconds of each stage, summed over
the row's instances; and those of `solve` under each order, which runs the
stages up to the one that decides. The orders are the one `auto` uses,
constructive -> heuristic -> exact ("auto"), and constructive -> exact
("exact first").

    PYTHONPATH=src python scripts/stage_costs.py

Instance r of a row is drawn from random.Random("stage:<rows>:<n>:<m>:<r>").
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import Counter

import symfair
from symfair import Instance, SearchLimits
from symfair.cli import AUTO_STAGES, _solve_stage

REPS = 3  # instances per row
M_PER_N = (3, 50)  # the small and the large m, as multiples of n
N = range(2, 9)

ORDERS = {"auto": AUTO_STAGES, "exact first": ("constructive", "exact")}
ANSWERED = "answered"
SHORT = {"constructive": "constr.", "heuristic": "greedy", "exact": "exact",
         "INFEASIBLE": "infeasible", "BUDGET_EXCEEDED": "budget"}


def draw(rows: str, n: int, m: int, r: int) -> Instance:
    rng = random.Random(f"stage:{rows}:{n}:{m}:{r}")
    top = 10**4 if rows == "uniform" else 1
    return Instance.from_rows([[rng.randint(0, top) for _ in range(m)] for _ in range(n)])


def run_stages(inst: Instance) -> dict[str, tuple[float, str]]:
    """(CPU seconds, ANSWERED or the status token) of each stage some order runs."""
    out: dict[str, tuple[float, str]] = {}
    for stage in AUTO_STAGES:
        t0 = time.process_time()
        with contextlib.redirect_stderr(io.StringIO()):
            partition, token = _solve_stage(inst, stage, SearchLimits())
        out[stage] = (time.process_time() - t0, token if partition is None else ANSWERED)
        if stage == "constructive" and partition is not None:
            break
    return out


def under(order, stages) -> tuple[str, float]:
    """(the stage that answers, or the exact stage's token; CPU seconds to it)."""
    total = 0.0
    for stage in order:
        seconds, outcome = stages[stage]
        total += seconds
        if outcome == ANSWERED:
            return stage, total
    return outcome, total


def main() -> None:
    for module in ("constructive", "heuristic", "exact"):
        getattr(symfair, module)  # import the engines now, so no stage's time includes it
    columns = ["rows", "n", "m", "decided by (auto / exact first)",
               *(SHORT[s] for s in AUTO_STAGES), *ORDERS]
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for rows in ("uniform", "binary"):
        for n in N:
            for m in (k * n for k in M_PER_N):
                per_stage = dict.fromkeys(AUTO_STAGES, 0.0)
                totals = dict.fromkeys(ORDERS, 0.0)
                verdicts: dict[str, list[str]] = {name: [] for name in ORDERS}
                for r in range(REPS):
                    stages = run_stages(draw(rows, n, m, r))
                    for stage, (seconds, _) in stages.items():
                        per_stage[stage] += seconds
                    for name, order in ORDERS.items():
                        verdict, seconds = under(order, stages)
                        verdicts[name].append(verdict)
                        totals[name] += seconds
                cells = [f"{1e3 * per_stage[s]:.1f}" for s in AUTO_STAGES]
                cells += [f"{1e3 * totals[name]:.1f}" for name in ORDERS]
                tally = " / ".join(_tally(verdicts[name]) for name in ORDERS)
                print(f"| {rows} | {n} | {m} | {tally} | " + " | ".join(cells) + " |",
                      flush=True)


def _tally(verdicts: list[str]) -> str:
    counts = Counter(SHORT[v] for v in verdicts)
    return ", ".join(f"{c} {name}" for name, c in counts.items())


if __name__ == "__main__":
    main()
