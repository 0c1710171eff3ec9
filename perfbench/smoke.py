#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload on small inputs:
- an untraced and a traced run finish, with every output check passing and
  exactly the metric names BENCHMARK.json lists;
- the work counts of the traced run (nodes, greedy cases, verdicts) repeat
  exactly between two runs of one seed and between two different seeds, since
  a seed only relabels the same instances;
- a directory that holds only BENCHMARK.json and perfbench/ makes the
  benchmark exit non-zero without printing a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny(name: str, seed: int, workdir: Path):
    if name == "grid":
        return workloads.Grid(seed, workdir, divisor=400)
    if name == "frontier":
        return workloads.Frontier(seed, workdir, sizes=((4, 6), (5, 7)), per_size=2,
                                  node_budget=500)
    if name == "large-m":
        return workloads.LargeM(seed, workdir, sizes=((2, 40), (2, 1200), (3, 30)))
    return workloads.Cli(seed, workdir)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run_tiny(name: str, seed: int, trace: bool) -> tuple[run.Verdicts, dict]:
    workdir = run.OUT / f"smoke-{name}-{seed}"
    try:
        workload = tiny(name, seed, workdir)
        args = argparse.Namespace(seed=seed, seconds=0.2)
        fn = run.traced if trace else run.end_to_end
        verdicts, metrics, _ = fn(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(not verdicts.wrong, f"{name} seed {seed}: output checks failed: {verdicts.wrong[:3]}")
    want = PER_LAYER if trace else END_TO_END
    check(set(metrics) == want, f"{name}: metric names {sorted(set(metrics) ^ want)} differ")
    return verdicts, metrics


def main() -> int:
    for name in workloads.WORKLOADS:
        verdicts, plain = run_tiny(name, 1, trace=False)
        check(all(v > 0 for v, _ in plain.values()), f"{name}: an end-to-end metric is 0")
        counts = []
        for seed in (1, 1, 2):
            _, layer = run_tiny(name, seed, trace=True)
            counts.append({k: layer[k][0] for k in COUNT_METRICS})
        check(counts[0] == counts[1], f"{name}: counts differ between runs of one seed")
        check(counts[0] == counts[2], f"{name}: counts differ between seeds 1 and 2")
        if name == "large-m":
            check(verdicts.failed > 0, "large-m: the 2x1200 k_color crash was not counted")
        print(f"ok {name}: attempted={verdicts.attempted} failed={verdicts.failed}")

    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "grid",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("ok bare directory exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
