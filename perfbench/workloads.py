"""The four workloads: their inputs, one operation each, and the output checks.

Every workload is a fixed list of operations built from ``--seed`` before
timing starts. ``run`` executes one operation and returns an ``Outcome``:
``failed`` for an exception, a ``BUDGET_EXCEEDED`` or an unexpected exit code,
``wrong`` for an output that contradicts a check (a returned partition that is
not symEF1, or a verdict or statistic that differs from the recorded one).

``frontier``, ``large-m`` and ``cli`` draw a fixed pool of uniform instances and
let the seed relabel it: agents or items are permuted and all values are
multiplied by one positive integer. symEF1 is invariant under all three and the
search, greedy and coloring code visit the same states (each workload permutes
only what its code's tie-breaks and early exits do not read), so every seed
costs the same work and the recorded verdicts apply to every seed. ``grid`` always simulates the
acceptance master seed; its ``--seed`` shuffles the order of the cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import symfair
from symfair import cli as sf_cli
from symfair import exact as sf_exact
from symfair import sim as sf_sim

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
M4 = 10**4


@dataclass
class Op:
    label: str          # size and kind, enough to replay with the seed
    weight: int         # operations it counts for in ops_per_s (replications for grid)
    payload: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failed: int = 0     # of op.weight
    wrong: list[str] = field(default_factory=list)
    signature: object = None   # must repeat exactly across passes and runs
    detail: str = ""


# ---------------------------------------------------------------- relabeling


def _uniform_rows(tag: str, n: int, m: int, M: int = M4) -> list[list[int]]:
    rng = random.Random(tag)
    return [[rng.randint(0, M) for _ in range(m)] for _ in range(n)]


def _relabel(rows, rng: random.Random, permute_agents: bool, permute_items: bool):
    """(rows, agent_perm, item_perm) for a seeded relabeling and rescaling.

    New row a is old row agent_perm[a]; old item j becomes item item_perm[j].
    Items with equal column totals keep their relative order, so the exact
    search, which orders items by (total, index), visits the same nodes.
    """
    n, m = len(rows), len(rows[0])
    agent_perm = list(range(n))
    if permute_agents:
        rng.shuffle(agent_perm)
    item_perm = list(range(m))
    if permute_items:
        rng.shuffle(item_perm)
        totals = [sum(r[j] for r in rows) for j in range(m)]
        ties: dict[int, list[int]] = {}
        for j in range(m):
            ties.setdefault(totals[j], []).append(j)
        for group in ties.values():
            for j, new in zip(group, sorted(item_perm[j] for j in group)):
                item_perm[j] = new
    scale = rng.randint(1, 5)
    new_rows = [[0] * m for _ in range(n)]
    for a in range(n):
        old = rows[agent_perm[a]]
        for j in range(m):
            new_rows[a][item_perm[j]] = old[j] * scale
    return new_rows, agent_perm, item_perm


def _instance_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows)


def _check_partition(inst, partition, wrong: list[str]) -> None:
    if not symfair.is_symef1(inst, partition):
        wrong.append("returned partition is not symEF1")


# ---------------------------------------------------------------- grid

# The acceptance incidence grid (tests/test_acceptance.py) at 1/GRID_DIVISOR
# of its replications, always with the acceptance master seed. At these
# replication counts a fresh master seed moves a pass's work by up to 2x (the
# 5x15 cell's exact fallbacks are heavy-tailed), so ``--seed`` only shuffles
# the cell order and every run simulates the same replications.
GRID_MASTER_SEED = 42
GRID_DIVISOR = 40
GRID_CELLS = (
    [(3, m, M4, 2000) for m in (5, 6, 7, 8, 9, 10, 15)]
    + [(4, m, M4, 2000) for m in (5, 6, 8, 15)]
    + [(5, m, M4, 1000) for m in (6, 10, 15)]
    + [(4, 6, 10, 2000)]
)


def grid_stats(report) -> list[float]:
    """The statistics columns of the simulate CSV (all but wall_seconds)."""
    return [round(report.pct_symef1, 3), round(report.pct_case1, 3),
            round(report.pct_case2, 3), round(report.pct_case3, 3),
            round(report.pct_exact_fallback, 3), report.excluded]


def grid_cells(divisor: int = GRID_DIVISOR):
    return [(n, m, M, reps // divisor) for n, m, M, reps in GRID_CELLS]


class Grid:
    name = "grid"
    tail_pct = 75
    probe_interval = 0.02

    def __init__(self, seed: int, workdir: Path, divisor: int = GRID_DIVISOR):
        cells = grid_cells(divisor)
        random.Random(f"seed:{seed}:grid").shuffle(cells)
        self.expected = EXPECTED["grid"] if divisor == GRID_DIVISOR else {}
        self.ops = [Op(f"n={n} m={m} M={M} reps={reps}", reps, {"cell": (n, m, M)})
                    for n, m, M, reps in cells]

    def run(self, op: Op) -> Outcome:
        n, m, M = op.payload["cell"]
        cfg = sf_sim.SimConfig((n,), (m,), (M,), op.weight, GRID_MASTER_SEED)
        try:
            (report,) = sf_sim.run_simulation(cfg, workers=1)
        except Exception as exc:  # every replication of the cell is lost
            return Outcome(failed=op.weight, signature=type(exc).__name__,
                           detail=f"{type(exc).__name__}: {exc}")
        stats = grid_stats(report)
        out = Outcome(failed=report.excluded, signature=stats)
        want = self.expected.get(f"{n},{m},{M}")
        if want is not None and want != stats:
            out.wrong.append(f"statistics {stats} differ from recorded {want}")
        return out


# ---------------------------------------------------------------- frontier

# Exact search on its own, at a node budget small enough that one pass over
# the pool fits in a run. The time budget is far beyond any pass, so only the
# node budget can stop a search and verdicts do not depend on the machine.
FRONTIER_SIZES = ((5, 10), (5, 15), (6, 12), (6, 15), (6, 18), (7, 14), (7, 21))
FRONTIER_PER_SIZE = 3
FRONTIER_NODE_BUDGET = 40_000
FRONTIER_TIME_BUDGET = 3600.0


def frontier_pool(sizes=FRONTIER_SIZES, per_size=FRONTIER_PER_SIZE):
    return [((n, m, r), _uniform_rows(f"frontier:{n}:{m}:{r}", n, m))
            for n, m in sizes for r in range(per_size)]


class Frontier:
    name = "frontier"
    tail_pct = 75
    probe_interval = 0.02

    def __init__(self, seed: int, workdir: Path, sizes=FRONTIER_SIZES,
                 per_size=FRONTIER_PER_SIZE, node_budget=FRONTIER_NODE_BUDGET):
        self.limits = symfair.SearchLimits(node_budget=node_budget,
                                           time_budget=FRONTIER_TIME_BUDGET)
        self.truth = EXPECTED["frontier"]
        self.ops = []
        for (n, m, r), rows in frontier_pool(sizes, per_size):
            rng = random.Random(f"seed:{seed}:frontier:{n}:{m}:{r}")
            # Agents keep their order: the search's per-node check stops at
            # the first agent that fails, so agent order changes its cost.
            new_rows, *_ = _relabel(rows, rng, permute_agents=False, permute_items=True)
            self.ops.append(Op(f"n={n} m={m} pool={r}", 1, {
                "key": f"{n},{m},{r}", "inst": symfair.Instance.from_rows(new_rows)}))

    def run(self, op: Op) -> Outcome:
        inst = op.payload["inst"]
        try:
            outcome = sf_exact.exact_symef1(inst, self.limits)
        except Exception as exc:
            return Outcome(failed=1, signature=type(exc).__name__,
                           detail=f"{type(exc).__name__}: {exc}")
        status = outcome.status.value
        out = Outcome(signature=[status, outcome.nodes])
        if outcome.status is symfair.ExactStatus.BUDGET_EXCEEDED:
            out.failed = 1
            out.detail = f"BUDGET_EXCEEDED after {outcome.nodes} nodes"
            return out
        if outcome.found:
            _check_partition(inst, outcome.partition, out.wrong)
        truth = self.truth.get(op.payload["key"], "unknown")
        if truth != "unknown" and truth != status:
            out.wrong.append(f"verdict {status} differs from recorded {truth}")
        return out


# ---------------------------------------------------------------- large-m

# One in-process `symfair solve FILE` (auto strategy) per instance. Two agents
# straddle the recursion limit of k_color (about m = 1000 with the default
# limit); three agents stop at m = 300 because k_color has no bound beyond it.
LARGE_M_SIZES = ((2, 200), (2, 400), (2, 600), (2, 800), (2, 1200), (2, 1500),
                 (3, 100), (3, 150), (3, 200), (3, 250), (3, 300))
LARGE_M_PER_SIZE = 1


def large_m_pool(sizes=LARGE_M_SIZES, per_size=LARGE_M_PER_SIZE):
    return [((n, m, r), _uniform_rows(f"large-m:{n}:{m}:{r}", n, m))
            for n, m in sizes for r in range(per_size)]


class LargeM:
    name = "large-m"
    tail_pct = 75
    # No timer samples: a signal handler at k_color's recursion depth could
    # itself raise RecursionError and move where the crash happens.
    probe_interval = 0.0

    def __init__(self, seed: int, workdir: Path, sizes=LARGE_M_SIZES,
                 per_size=LARGE_M_PER_SIZE):
        self.expected = EXPECTED["large-m"]
        self.ops = []
        workdir.mkdir(parents=True, exist_ok=True)
        for idx, ((n, m, r), rows) in enumerate(large_m_pool(sizes, per_size)):
            rng = random.Random(f"seed:{seed}:large-m:{n}:{m}:{r}")
            # Item labels stay: greedy order and coloring tie-breaks read them.
            new_rows, *_ = _relabel(rows, rng, permute_agents=True, permute_items=False)
            path = workdir / f"large-m-{idx}.txt"
            path.write_text(_instance_text(new_rows), encoding="utf-8")
            self.ops.append(Op(f"n={n} m={m} pool={r}", 1, {
                "key": f"{n},{m},{r}", "path": str(path),
                "inst": symfair.Instance.from_rows(new_rows)}))

    def run(self, op: Op) -> Outcome:
        inst = op.payload["inst"]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = sf_cli.main(["solve", op.payload["path"]])
        except Exception as exc:
            return Outcome(failed=1, signature=type(exc).__name__,
                           detail=f"{type(exc).__name__}: {str(exc)[:80]}")
        out = Outcome(signature=code)
        want = self.expected.get(op.payload["key"])
        if code == 0:
            try:
                partition = symfair.parse_partition(stdout.getvalue(), n=inst.n, m=inst.m)
            except ValueError as exc:
                out.wrong.append(f"unparsable partition: {exc}")
                return out
            _check_partition(inst, partition, out.wrong)
        elif code == 3:
            out.failed = 1
            out.detail = "BUDGET_EXCEEDED"
            return out
        if want is not None and code != want:
            out.failed = 1
            out.wrong.append(f"exit code {code} differs from recorded {want}")
        return out


# ---------------------------------------------------------------- cli

# The worked examples of tests/helpers.py and tests/test_cli.py.
BLOCKER = [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]
CLIQUE = [[1, 2, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 4, 5, 3, 6]]
WELFARE = [[1, 2, 3, 4, 5, 6], [3, 1, 3, 1, 3, 1]]
IDENTICAL = [[6, 5, 4, 3, 2, 1]] * 3
UNIQUE = [[100, 50, 51], [100, 51, 50]]
SWAP_TRAP = [[40, 40, 40, 36, 33, 33, 33, 33, 32], [33, 33, 33, 33, 36, 40, 40, 40, 32]]
SYMEFX_GAP = [[100, 50, 50], [100, 50, 50]]

# (instance, partition as 1-based bundles or None for solve, mode, exit code)
CLI_CASES = (
    (CLIQUE, [[1, 6], [3, 5], [2, 4]], "symef1", 0),
    (BLOCKER, [[1, 2], [3], [4]], "symef1", 1),
    (WELFARE, [[1, 3, 5], [2, 4, 6]], "balanced", 0),
    (WELFARE, [[1], [2, 3, 4, 5, 6]], "balanced", 1),
    (WELFARE, [[2, 4, 6], [1, 3, 5]], "ef1", 0),
    (WELFARE, [[1, 3, 5], [2, 4, 6]], "ef1", 1),
    (SYMEFX_GAP, [[2], [1, 3]], "symef1", 0),
    (SYMEFX_GAP, [[2], [1, 3]], "symefx", 1),
    (BLOCKER, None, "solve", 1),
    (CLIQUE, None, "solve", 0),
    (WELFARE, None, "solve", 0),
    (IDENTICAL, None, "solve", 0),
    (UNIQUE, None, "solve", 0),
    (SWAP_TRAP, None, "solve", 0),
)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(symfair.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"
    tail_pct = 75
    probe_interval = 0.0

    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = cli_env()
        self.ops = []
        for idx, (rows, bundles, mode, code) in enumerate(CLI_CASES):
            rng = random.Random(f"seed:{seed}:cli:{idx}")
            new_rows, agent_perm, item_perm = _relabel(rows, rng, permute_agents=True,
                                                       permute_items=True)
            inst_path = workdir / f"cli-{idx}.txt"
            inst_path.write_text(_instance_text(new_rows), encoding="utf-8")
            if bundles is None:
                argv = ["solve", str(inst_path)]
            else:
                # Bundle order follows the agent order, so ef1's "agent k gets
                # bundle k" pairs the same agent and bundle as before.
                moved = [sorted(item_perm[j - 1] + 1 for j in bundles[agent_perm[a]])
                         for a in range(len(new_rows))]
                part_path = workdir / f"cli-{idx}.part"
                part_path.write_text("".join(" ".join(map(str, b)) + "\n" for b in moved),
                                     encoding="utf-8")
                argv = ["check", str(inst_path), str(part_path), f"--mode={mode}"]
            self.ops.append(Op(f"{argv[0]} {mode} case={idx}", 1, {
                "argv": argv, "code": code, "mode": mode,
                "inst": symfair.Instance.from_rows(new_rows)}))

    def command(self, op: Op) -> list[str]:
        return [sys.executable, "-m", "symfair.cli", *op.payload["argv"]]

    def run(self, op: Op) -> Outcome:
        proc = subprocess.run(self.command(op), env=self.env, capture_output=True,
                              text=True, timeout=120)
        return self.judge(op, proc.returncode, proc.stdout)

    def run_in_process(self, op: Op) -> Outcome:
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = sf_cli.main(op.payload["argv"])
        except Exception as exc:
            return Outcome(failed=1, signature=type(exc).__name__,
                           detail=f"{type(exc).__name__}: {exc}")
        return self.judge(op, code, stdout.getvalue())

    def judge(self, op: Op, code: int, stdout: str) -> Outcome:
        want = op.payload["code"]
        out = Outcome(signature=code)
        if code != want:
            out.failed = 1
            out.wrong.append(f"exit code {code}, expected {want}")
            out.detail = stdout.strip()[-200:]
            return out
        inst = op.payload["inst"]
        token = stdout.split()[0] if stdout.split() else ""
        if op.payload["mode"] == "solve":
            if code == 0:
                try:
                    partition = symfair.parse_partition(stdout, n=inst.n, m=inst.m)
                except ValueError as exc:
                    out.wrong.append(f"unparsable partition: {exc}")
                else:
                    _check_partition(inst, partition, out.wrong)
            elif token != "INFEASIBLE":
                out.wrong.append(f"stdout {token!r}, expected INFEASIBLE")
        elif token != ("SATISFIED" if want == 0 else "VIOLATED"):
            out.wrong.append(f"stdout {token!r} does not match exit code {code}")
        return out


WORKLOADS = {w.name: w for w in (Grid, Frontier, LargeM, Cli)}
