"""Monte-Carlo study of how often random instances admit symEF1 partitions.

For each (n, m, M) cell the runner draws valuation matrices with i.i.d.
uniform integer entries in {0..M}, tries the greedy builder first and falls
back to the complete search only when the greedy pass fails, mirroring how the
expensive decision procedure is best used in practice. Each replication's
generator is seeded by hashing (master_seed, n, m, M, r), so results do not
depend on worker count or execution order.

Importing this module loads neither numpy nor the process pool. numpy loads
at the first draw (``random_instance``), and ``concurrent.futures`` only when
``run_simulation`` starts a pool for more than one worker.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from functools import partial
from itertools import product
from typing import Callable, Sequence

from .core import Instance, SearchLimits, _Record, _set
from .exact import ExactStatus, exact_symef1
from .heuristic import greedy_symef1

# numpy draws the entries as int64, so M can be at most the int64 maximum.
_MAX_M = 2**63 - 1


class SimConfig(_Record):
    """The cells (the product of the n, m and M lists), the replications per
    cell, the master seed and the complete search's budgets."""

    __slots__ = ("n_list", "m_list", "M_list", "replications", "master_seed", "limits")

    def __init__(
        self,
        n_list: tuple[int, ...],
        m_list: tuple[int, ...],
        M_list: tuple[int, ...],
        replications: int,
        master_seed: int,
        limits: SearchLimits = SearchLimits(),
    ) -> None:
        if not (n_list and m_list and M_list):
            raise ValueError("n, m, and M lists must be nonempty")
        if any(v < 1 for v in n_list + m_list) or any(v < 0 for v in M_list):
            raise ValueError("n and m must be positive, M nonnegative")
        if any(v > _MAX_M for v in M_list):
            raise ValueError(f"M must be at most 2^63 - 1 = {_MAX_M}")
        if replications < 1:
            raise ValueError("need at least one replication")
        if master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        _set(self, "n_list", n_list)
        _set(self, "m_list", m_list)
        _set(self, "M_list", M_list)
        _set(self, "replications", replications)
        _set(self, "master_seed", master_seed)
        _set(self, "limits", limits)


class SimReport(_Record):
    """One CSV row; ``excluded`` counts budget-exceeded replications, which are
    reported through ``progress`` and left out of every percentage."""

    __slots__ = ("n", "m", "M", "replications", "pct_symef1", "pct_case1", "pct_case2",
                 "pct_case3", "pct_exact_fallback", "wall_seconds", "excluded")

    def __init__(
        self,
        n: int,
        m: int,
        M: int,
        replications: int,
        pct_symef1: float,
        pct_case1: float,
        pct_case2: float,
        pct_case3: float,
        pct_exact_fallback: float,
        wall_seconds: float,
        excluded: int = 0,
    ) -> None:
        for name, value in zip(self.__slots__, (n, m, M, replications, pct_symef1, pct_case1,
                                                pct_case2, pct_case3, pct_exact_fallback,
                                                wall_seconds, excluded)):
            _set(self, name, value)


def replication_seed(master_seed: int, n: int, m: int, M: int, r: int) -> list[int]:
    """Entropy pool mixing the cell coordinates into the master seed."""
    return [master_seed, n, m, M, r]


def random_instance(n: int, m: int, M: int, seed) -> Instance:
    """Uniform i.i.d. integer matrix in {0..M}; deterministic in the seed."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    if M > _MAX_M:
        raise ValueError(f"M must be at most 2^63 - 1 = {_MAX_M}")
    # The first draw pays numpy's import; a process that never draws never loads it.
    import numpy as np

    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, M + 1, size=(n, m))
    return Instance.from_rows(matrix.tolist())


def _run_replication(args) -> tuple[int, int, int, int, int, int]:
    """Replication r of one cell as (found, excluded, greedy success, case1,
    case2, case3); the complete search runs only where the greedy builder fails."""
    n, m, M, master_seed, r, limits = args
    inst = random_instance(n, m, M, replication_seed(master_seed, n, m, M, r))
    result = greedy_symef1(inst)
    if result.found:
        stats = result.stats
        return 1, 0, 1, stats.placed_case1, stats.placed_case2, stats.placed_case3
    status = exact_symef1(inst, limits).status
    return int(status is ExactStatus.FOUND), int(status is ExactStatus.BUDGET_EXCEEDED), 0, 0, 0, 0


def run_simulation(
    cfg: SimConfig,
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[SimReport]:
    """One report per (n, m, M) cell, in cross-product order.

    Each task is one replication; the pool hands them out in chunks, a few per
    worker. The counters are integer sums, so the aggregate is identical for
    any worker count or chunk size. ``workers`` defaults to the CPU count; a
    value below 1 raises ValueError. No more processes start than there are
    CPUs or replications. Each cell's summary, and a warning for a cell with
    budget-exceeded replications, go to ``progress``.
    """
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    reports = []
    # The pool forks all its workers at once; past the CPUs or replications they only wait.
    workers = min(workers, cpus, cfg.replications)
    # A few chunks per worker keeps the pool busy when replication runtimes differ.
    chunksize = -(-cfg.replications // (4 * workers))
    if workers > 1:
        # numpy loads here, before the pool forks, so its workers inherit it
        # rather than each importing it at its first draw.
        import numpy  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor
    # One pool serves every cell, so its start-up is paid once per run.
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = partial(pool.map, chunksize=chunksize) if pool else map
        for n, m, M in product(cfg.n_list, cfg.m_list, cfg.M_list):
            t0 = time.perf_counter()
            args = [(n, m, M, cfg.master_seed, r, cfg.limits) for r in range(cfg.replications)]
            found, excluded, successes, case1, case2, case3 = (
                sum(col) for col in zip(*run(_run_replication, args))
            )
            wall = time.perf_counter() - t0
            completed = cfg.replications - excluded
            placed = m * successes
            report = SimReport(
                n=n,
                m=m,
                M=M,
                replications=cfg.replications,
                pct_symef1=_pct(found, completed),
                pct_case1=_pct(case1, placed),
                pct_case2=_pct(case2, placed),
                pct_case3=_pct(case3, placed),
                pct_exact_fallback=_pct(completed - successes, completed),
                wall_seconds=wall,
                excluded=excluded,
            )
            reports.append(report)
            if progress is not None:
                progress(
                    f"n={n} m={m} M={M}: symEF1 {report.pct_symef1:.3f}% "
                    f"fallback {report.pct_exact_fallback:.3f}% "
                    f"excluded {excluded} ({wall:.1f}s)"
                )
                if excluded:
                    progress(
                        f"warning: n={n} m={m} M={M}: {excluded} replications "
                        "exceeded the search budget and were excluded"
                    )
    return reports


def emit_csv(reports: Sequence[SimReport]) -> str:
    header = (
        "n,m,M,replications,pct_symef1,pct_case1,pct_case2,pct_case3,"
        "pct_exact_fallback,wall_seconds"
    )
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.n},{r.m},{r.M},{r.replications},{r.pct_symef1:.3f},"
            f"{r.pct_case1:.3f},{r.pct_case2:.3f},{r.pct_case3:.3f},"
            f"{r.pct_exact_fallback:.3f},{r.wall_seconds:.3f}"
        )
    return "\n".join(lines) + "\n"


def _pct(count: int, denom: int) -> float:
    return 100.0 * count / denom if denom else 0.0

