#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the values the benchmark checks against.

    python3 perfbench/record.py [--part grid|frontier|large-m ...]

- grid: the statistics columns of every cell (acceptance master seed).
- frontier: the true verdict of each pool instance, from a search with a far
  larger node budget than the benchmark's ("unknown" if even that runs out).
- large-m: the exit code of `symfair solve` per pool instance. Two-agent
  instances always have a symEF1 partition, so their code is 0 whatever the
  current code does; a crash is recorded as null and accepted as no verdict.

Only parts named with --part are recomputed; the rest are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import symfair  # noqa: E402
import workloads  # noqa: E402
from symfair.cli import main as cli_main  # noqa: E402

TRUTH_NODE_BUDGET = 5_000_000


def record_grid(expected: dict) -> None:
    for n, m, M, reps in workloads.grid_cells():
        cfg = symfair.SimConfig((n,), (m,), (M,), reps, workloads.GRID_MASTER_SEED)
        (report,) = symfair.run_simulation(cfg, workers=1)
        expected["grid"][f"{n},{m},{M}"] = workloads.grid_stats(report)
        print(f"grid {n}x{m} M={M}: {expected['grid'][f'{n},{m},{M}']}",
              file=sys.stderr, flush=True)


def record_frontier(expected: dict) -> None:
    limits = symfair.SearchLimits(node_budget=TRUTH_NODE_BUDGET, time_budget=10**6)
    for (n, m, r), rows in workloads.frontier_pool():
        outcome = symfair.exact_symef1(symfair.Instance.from_rows(rows), limits)
        status = outcome.status.value
        verdict = "unknown" if status == "budget_exceeded" else status
        expected["frontier"][f"{n},{m},{r}"] = verdict
        print(f"frontier {n}x{m}#{r}: {verdict} ({outcome.nodes} nodes)",
              file=sys.stderr, flush=True)


def record_large_m(expected: dict) -> None:
    workdir = HERE / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    for (n, m, r), rows in workloads.large_m_pool():
        path = workdir / f"{n}-{m}-{r}.txt"
        path.write_text(workloads._instance_text(rows), encoding="utf-8")
        if n == 2:
            code = 0
        else:
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main(["solve", str(path)])
            except RecursionError:
                code = None
        expected["large-m"][f"{n},{m},{r}"] = code
        print(f"large-m {n}x{m}#{r}: {code}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--part", action="append", choices=["grid", "frontier", "large-m"])
    args = parser.parse_args()
    parts = args.part or ["grid", "frontier", "large-m"]
    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for part in parts:
        expected[part] = {}
        {"grid": record_grid, "frontier": record_frontier, "large-m": record_large_m}[part](expected)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
