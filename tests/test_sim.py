import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import symfair as sf
from symfair.sim import SimConfig, emit_csv, run_simulation

M4 = 10**4


def test_random_instance_zero_max_value():
    inst = sf.random_instance(3, 4, 0, seed=1)
    assert all(v == 0 for row in inst.values for v in row)
    assert sf.is_symef1(inst, sf.Partition.of({0, 1, 2, 3}, set(), set()))
    with pytest.raises(ValueError, match="nonnegative"):
        sf.random_instance(3, 4, -1, seed=1)


def test_random_instance_deterministic_in_seed():
    a = sf.random_instance(3, 5, M4, sf.replication_seed(42, 3, 5, M4, 7))
    b = sf.random_instance(3, 5, M4, sf.replication_seed(42, 3, 5, M4, 7))
    c = sf.random_instance(3, 5, M4, sf.replication_seed(42, 3, 5, M4, 8))
    assert a == b
    assert a != c


def test_random_instance_max_value_fits_int64():
    top = 2**63 - 1
    inst = sf.random_instance(2, 3, top, seed=1)
    assert all(0 <= v <= top for row in inst.values for v in row)
    with pytest.raises(ValueError, match="2\\^63"):
        sf.random_instance(2, 3, top + 1, seed=1)


def test_random_instance_mean_matches_uniform_model():
    total = count = 0
    for r in range(2000):
        inst = sf.random_instance(3, 5, M4, sf.replication_seed(0, 3, 5, M4, r))
        total += sum(sum(row) for row in inst.values)
        count += 15
    mean = total / count
    assert abs(mean - M4 / 2) / (M4 / 2) < 0.02


def test_two_agent_cells_are_always_satisfiable():
    cfg = SimConfig(n_list=(2,), m_list=(4, 9), M_list=(M4,), replications=120, master_seed=5)
    for report in run_simulation(cfg, workers=1):
        assert report.pct_symef1 == 100.0
        assert report.excluded == 0


def test_reports_are_worker_count_invariant(monkeypatch):
    # Pin the CPU count so two workers start anywhere.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # Two workers take chunks of ceil(reps / 8): 80 splits evenly, 81 into
    # seven chunks of 11 and a short last one of 4.
    for replications in (80, 81):
        cfg = SimConfig(n_list=(3,), m_list=(5,), M_list=(100,), replications=replications,
                        master_seed=9)
        serial = run_simulation(cfg, workers=1)[0]
        parallel = run_simulation(cfg, workers=2)[0]
        for field in (
            "n",
            "m",
            "M",
            "replications",
            "pct_symef1",
            "pct_case1",
            "pct_case2",
            "pct_case3",
            "pct_exact_fallback",
            "excluded",
        ):
            assert getattr(serial, field) == getattr(parallel, field)
    # wall_seconds is a timing and is intentionally left uncompared.


def test_statistics_columns_pinned_for_seed_42():
    # Every column but wall_seconds, as the mutate/check/undo greedy builder
    # produced them; a faster builder or search must reproduce them exactly.
    pinned = {
        (3, 8, M4): (100.0, 75.51020408163265, 23.46938775510204, 1.0204081632653061, 2.0),
        (4, 6, 10): (44.0, 83.33333333333333, 16.666666666666668, 0.0, 68.0),
        (4, 8, M4): (92.0, 72.5, 27.5, 0.0, 80.0),
        (5, 10, M4): (72.0, 0.0, 0.0, 0.0, 100.0),
        (3, 15, M4): (100.0, 73.75886524822695, 25.24822695035461, 0.9929078014184397, 6.0),
    }
    for (n, m, M), expected in pinned.items():
        cfg = SimConfig(n_list=(n,), m_list=(m,), M_list=(M,), replications=50, master_seed=42)
        (report,) = run_simulation(cfg, workers=1)
        assert (report.n, report.m, report.M, report.excluded) == (n, m, M, 0)
        assert (
            report.pct_symef1,
            report.pct_case1,
            report.pct_case2,
            report.pct_case3,
            report.pct_exact_fallback,
        ) == expected


def test_case_percentages_sum_over_heuristic_successes():
    cfg = SimConfig(n_list=(3,), m_list=(6,), M_list=(M4,), replications=150, master_seed=11)
    report = run_simulation(cfg, workers=1)[0]
    assert math.isclose(
        report.pct_case1 + report.pct_case2 + report.pct_case3, 100.0, abs_tol=1e-9
    )
    assert 0.0 <= report.pct_exact_fallback <= 100.0


def test_incidence_rises_with_item_count():
    reps = 250
    cfg = SimConfig(n_list=(3,), m_list=(5, 6, 7, 8), M_list=(M4,), replications=reps, master_seed=13)
    reports = run_simulation(cfg, workers=2)
    for lo, hi in zip(reports, reports[1:]):
        p = lo.pct_symef1 / 100.0
        sigma = math.sqrt(max(p * (1 - p), 1e-9) / reps)
        assert hi.pct_symef1 >= lo.pct_symef1 - 2 * 100 * sigma


def test_emit_csv_formatting():
    assert emit_csv([]) == (
        "n,m,M,replications,pct_symef1,pct_case1,pct_case2,pct_case3,"
        "pct_exact_fallback,wall_seconds\n"
    )
    report = sf.SimReport(
        n=3, m=5, M=M4, replications=10, pct_symef1=78.5, pct_case1=83.25,
        pct_case2=16.75, pct_case3=0.0, pct_exact_fallback=36.0, wall_seconds=1.5,
    )
    text = emit_csv([report])
    assert text.splitlines() == [
        "n,m,M,replications,pct_symef1,pct_case1,pct_case2,pct_case3,"
        "pct_exact_fallback,wall_seconds",
        "3,5,10000,10,78.500,83.250,16.750,0.000,36.000,1.500",
    ]


def test_emit_csv_row_per_grid_cell():
    # The published grid shape: two full 7-item rows of m plus a shorter block
    # for five agents gives 20 data rows.
    reports = []
    for n, m_list, reps in ((3, (5, 6, 7, 8, 9, 10, 15), 4), (4, (5, 6, 7, 8, 9, 10, 15), 4), (5, (6, 7, 8, 9, 10, 15), 2)):
        for m in m_list:
            reports.append(
                sf.SimReport(n=n, m=m, M=M4, replications=reps, pct_symef1=0.0,
                             pct_case1=0.0, pct_case2=0.0, pct_case3=0.0,
                             pct_exact_fallback=0.0, wall_seconds=0.0)
            )
    lines = emit_csv(reports).splitlines()
    assert len(lines) == 1 + 20


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_list=(), m_list=(5,), M_list=(10,), replications=1, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_list=(2,), m_list=(5,), M_list=(10,), replications=0, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_list=(2,), m_list=(0,), M_list=(10,), replications=1, master_seed=0)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n_list=(2,), m_list=(5,), M_list=(10,), replications=1, master_seed=-1)


def test_one_pool_serves_every_cell(monkeypatch):
    # The pool is capped at the CPU count; pin it so two workers start anywhere.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    cfg = SimConfig(n_list=(2, 3), m_list=(4, 5), M_list=(100,), replications=12, master_seed=3)
    serial = run_simulation(cfg, workers=1)
    assert opened == []
    parallel = run_simulation(cfg, workers=2)
    assert opened == [{"max_workers": 2}]
    stats = lambda r: (r.n, r.m, r.M, r.pct_symef1, r.pct_case1, r.pct_case2,
                       r.pct_case3, r.pct_exact_fallback, r.excluded)
    assert [stats(r) for r in serial] == [stats(r) for r in parallel]


@pytest.fixture
def opened(monkeypatch):
    """max_workers of every pool run_simulation opens; the pools run in-process."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return opened


_POOL_PROBE = """
import concurrent.futures, os, sys
import symfair.sim as sim
built = []
class RecordingPool:  # notes whether numpy is loaded when it is built; runs in-process
    def __init__(self, max_workers):
        built.append("numpy" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, args, chunksize=1):
        return map(fn, args)
if {workers} > 1:
    concurrent.futures.ProcessPoolExecutor = RecordingPool
os.cpu_count = lambda: 2
cfg = sim.SimConfig(n_list=(3,), m_list=(5,), M_list=(10,), replications=4, master_seed=3)
sim.run_simulation(cfg, workers={workers})
print(built, "concurrent.futures.process" in sys.modules)
"""


@pytest.mark.parametrize("workers, printed", [(2, "[True] False"), (1, "[] False")])
def test_pool_loads_numpy_before_it_forks_and_a_serial_run_starts_none(workers, printed):
    # A fresh interpreter, so that numpy and the pool module are not loaded yet.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE.format(workers=workers)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == printed


def _pool_stats(r):
    return (r.pct_symef1, r.pct_case1, r.pct_case2, r.pct_case3,
            r.pct_exact_fallback, r.excluded)


def test_pool_has_no_more_workers_than_replications(opened, monkeypatch):
    # Pin the CPU count above the replications, so the replication cap shows.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = SimConfig(n_list=(3,), m_list=(5,), M_list=(10,), replications=3, master_seed=3)
    (pooled,) = run_simulation(cfg, workers=64)
    assert opened == [3]
    (serial,) = run_simulation(cfg, workers=1)
    assert _pool_stats(pooled) == _pool_stats(serial)
    single = SimConfig(n_list=(3,), m_list=(5,), M_list=(10,), replications=1, master_seed=3)
    run_simulation(single, workers=64)
    assert opened == [3]


def test_pool_has_no_more_workers_than_cpus(opened, monkeypatch):
    cfg = SimConfig(n_list=(3,), m_list=(5,), M_list=(10,), replications=40, master_seed=3)
    (serial,) = run_simulation(cfg, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    (capped,) = run_simulation(cfg, workers=2000)
    assert opened == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    (default,) = run_simulation(cfg)
    assert opened == [2, 3]
    # An unknown CPU count means one: no pool at all.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    (unknown,) = run_simulation(cfg, workers=2000)
    assert opened == [2, 3]
    assert _pool_stats(capped) == _pool_stats(default) == _pool_stats(unknown) == _pool_stats(serial)


def test_exclusion_warning_goes_to_progress_only(capsys):
    cfg = SimConfig(n_list=(3,), m_list=(4,), M_list=(10,), replications=20, master_seed=42,
                    limits=sf.SearchLimits(node_budget=1))
    (report,) = run_simulation(cfg, workers=1)
    assert report.excluded == 8
    # Every completed replication was a greedy success; the excluded ones are not counted.
    assert report.pct_exact_fallback == 0.0
    assert capsys.readouterr() == ("", "")
    progress = []
    run_simulation(cfg, workers=1, progress=progress.append)
    assert progress[1] == ("warning: n=3 m=4 M=10: 8 replications exceeded the search "
                           "budget and were excluded")
    assert len(progress) == 2


def test_exact_fallback_share_counts_completed_replications_only():
    # 40 replications: 15 run out of the node budget, 8 of the other 25 are
    # greedy successes, so 17 of 25 completed ones fell back to the search.
    cfg = SimConfig(n_list=(4,), m_list=(8,), M_list=(10**4,), replications=40,
                    master_seed=42, limits=sf.SearchLimits(node_budget=20))
    (report,) = run_simulation(cfg, workers=1)
    assert report.excluded == 15
    assert round(report.pct_exact_fallback, 3) == 68.0
    assert report.pct_symef1 == 100.0


def test_run_simulation_rejects_workers_below_one():
    cfg = SimConfig(n_list=(2,), m_list=(3,), M_list=(10,), replications=1, master_seed=0)
    progress = []
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            run_simulation(cfg, workers=workers, progress=progress.append)
    assert progress == []

