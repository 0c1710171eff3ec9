"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``. The simulation-backed
criteria (10, 11, 14) share one grid computed in a module fixture; everything
else is self-contained. Stated runtime ceilings are asserted alongside the
functional checks.
"""

import functools
import math
import random
import time

import pytest

import symfair as sf
from symfair.cli import main as cli_main
from symfair.sim import SimConfig, run_simulation
from helpers import (
    lab,
    no_symefx_instance,
    partition_of,
    rand_instance,
    single_swap_trap,
    three_agent_blocker,
    unique_partition_instance,
    welfare_vs_symmetry,
)

M4 = 10**4
MASTER_SEED = 42


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num:02d} {name}: FAIL")
                raise
            print(f"CRITERION {num:02d} {name}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def incidence_grid():
    """Reports for every simulated cell the criteria consult, plus wall time."""
    t0 = time.perf_counter()
    configs = [
        SimConfig(n_list=(3,), m_list=(5, 6, 7, 8, 9, 10, 15), M_list=(M4,),
                  replications=2000, master_seed=MASTER_SEED),
        SimConfig(n_list=(4,), m_list=(5, 8, 15), M_list=(M4,),
                  replications=2000, master_seed=MASTER_SEED),
        SimConfig(n_list=(5,), m_list=(6, 10, 15), M_list=(M4,),
                  replications=1000, master_seed=MASTER_SEED),
        SimConfig(n_list=(4,), m_list=(6,), M_list=(10, M4),
                  replications=2000, master_seed=MASTER_SEED),
    ]
    reports = {}
    for cfg in configs:
        for report in run_simulation(cfg, workers=2):
            reports[(report.n, report.m, report.M)] = report
    return reports, time.perf_counter() - t0


@criterion(1, "nonexistence-is-proved")
def test_unsatisfiable_three_agent_instance(tmp_path, capsys):
    t0 = time.perf_counter()
    inst = three_agent_blocker()
    outcome = sf.exact_symef1(inst)
    assert outcome.status is sf.ExactStatus.PROVED_INFEASIBLE
    assert sf.naive_enumerate_symef1(inst) == set()  # all 3^4 maps agree
    path = tmp_path / "blocker.txt"
    path.write_text("3 4\n1 1 1 0\n1 1 0 1\n1 0 1 1\n")
    assert cli_main(["solve", str(path), "--strategy=exact"]) == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE"
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "colorability-sufficient-not-necessary")
def test_five_clique_instance_still_solvable(tmp_path, capsys):
    t0 = time.perf_counter()
    inst = sf.Instance.from_rows([[1, 2, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 4, 5, 3, 6]])
    g = sf.build_item_graph(inst)
    assert sf.k_color(g, 3) is None
    assert sf.k_color(g, 4) is None
    coloring = sf.k_color(g, 5)
    assert coloring is not None
    for u, v in g.edges:
        assert coloring[u] != coloring[v]
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text("3 6\n1 2 3 4 5 6\n1 2 4 3 5 6\n1 2 4 5 3 6\n")
    part_path = tmp_path / "part.txt"
    part_path.write_text("1 6\n3 5\n2 4\n")
    assert cli_main(["check", str(inst_path), str(part_path), "--mode=symef1"]) == 0
    capsys.readouterr()
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "two-agents-always-solvable-by-coloring")
def test_two_agent_coloring_route_never_fails():
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    for trial in range(10_000):
        m = rng.randint(2, 20)
        inst = rand_instance(rng, 2, m, M4)
        g = sf.build_item_graph(inst)
        coloring = sf.k_color(g, 2)
        assert coloring is not None, f"trial {trial}: graph not 2-colorable"
        p = sf.coloring_to_partition(coloring, 2)
        assert sf.is_symef1(inst, p)
        assert sf.is_balanced(p)
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "unique-partition-instance")
def test_enumeration_finds_exactly_one():
    t0 = time.perf_counter()
    parts = sf.enumerate_symef1(unique_partition_instance())
    assert parts == {sf.Partition.of({0}, {1, 2})}
    assert time.perf_counter() - t0 < 1.0


@criterion(5, "two-agents-four-items-never-unique")
def test_at_least_two_partitions_for_distinct_items():
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED + 1)
    tested = 0
    while tested < 1000:
        inst = rand_instance(rng, 2, 4, M4)
        if not sf.items_distinct(inst):
            continue
        tested += 1
        assert len(sf.enumerate_symef1(inst)) >= 2, inst
    assert time.perf_counter() - t0 < 10.0


@criterion(6, "component-count-lower-bound")
def test_identical_agents_meet_exponential_bound():
    t0 = time.perf_counter()
    inst = sf.Instance.from_rows([[90, 80, 70, 60, 50, 40, 30, 20, 10]] * 3)
    g = sf.build_item_graph(inst)
    count, _ = sf.components(g)
    assert count == 3
    assert sf.k_color(g, 3) is not None
    assert sf.count_lower_bound(g, 3) == 36
    assert len(sf.enumerate_symef1(inst)) >= 36
    assert time.perf_counter() - t0 < 10.0


@criterion(7, "round-robin-and-separation-properties")
def test_round_robin_separation_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED + 2)
    separated_seen = 0
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        m = rng.randint(n, 12)
        inst = rand_instance(rng, n, m, 100)
        for i in range(n):
            rr = sf.agent_round_robin(inst, i)
            for k in range(n):
                assert sf.is_ef1_satisfied(inst, i, k, rr)
        coloring = sf.k_color(sf.build_item_graph(inst), n)
        if coloring is None:
            continue
        p = sf.coloring_to_partition(coloring, n)
        if not sf.separates_tuples(p, sf.indexed_tuples(inst)):
            continue
        separated_seen += 1
        assert sf.is_symef1(inst, p)
        assert set(p.sizes()) <= {m // n, -(-m // n)}
        if m % n == 0:
            for i in range(n):
                floor_min = min(inst.values[i])
                vals = [sf.bundle_value(inst, i, b) for b in p.bundles]
                maxes = [sf.max_item_value(inst, i, b) for b in p.bundles]
                for k in range(n):
                    for l in range(n):
                        assert vals[k] - floor_min >= vals[l] - maxes[l]
    assert separated_seen > 100
    assert time.perf_counter() - t0 < 60.0


@criterion(8, "greedy-repairs-are-incomplete")
def test_single_swap_trap_needs_full_search():
    t0 = time.perf_counter()
    trap = single_swap_trap()
    partial = [lab("abcd", "abcdefghj"), lab("efgh", "abcdefghj")]
    result = sf.extend_allocation(trap, partial, [8])
    assert not result.found and result.stats.placed_total() == 0
    outcome = sf.exact_symef1(trap)
    assert outcome.found
    witness = sf.Partition((lab("acef", "abcdefghj"), lab("bdghj", "abcdefghj")))
    assert sf.is_symef1(trap, witness)
    assert time.perf_counter() - t0 < 1.0


@criterion(9, "search-agrees-with-naive-enumeration")
def test_oracle_equivalence_500_instances():
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED + 3)
    caps = {2: 16, 3: 10, 4: 8}  # keeps n^m at or below 1e5
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        m = rng.randint(1, caps[n])
        inst = rand_instance(rng, n, m, rng.choice([2, 10, 1000]))
        assert n**m <= 10**5
        reference = sf.naive_enumerate_symef1(inst)
        assert sf.enumerate_symef1(inst) == reference
        outcome = sf.exact_symef1(inst)
        assert outcome.found == bool(reference)
        if outcome.found:
            assert sf.canonical_partition(outcome.partition) in reference
    assert time.perf_counter() - t0 < 120.0


@criterion(10, "random-incidence-matches-published-grid")
def test_incidence_grid(incidence_grid):
    reports, elapsed = incidence_grid
    published = {
        (3, 5): 78.503,
        (3, 6): 98.619,
        (4, 5): 23.053,
        (4, 8): 90.863,
        (5, 6): 5.87,
        (5, 10): 70.99,
    }
    for (n, m), expected in published.items():
        report = reports[(n, m, M4)]
        assert report.excluded == 0
        assert abs(report.pct_symef1 - expected) <= 3.0, (n, m, report.pct_symef1)
    for n, m, reps in ((3, 9, 2000), (3, 10, 2000), (3, 15, 2000), (4, 15, 2000), (5, 15, 1000)):
        report = reports[(n, m, M4)]
        assert report.excluded == 0
        assert report.pct_symef1 >= 100.0 * (reps - 1) / reps, (n, m, report.pct_symef1)
    assert elapsed < 1800.0


@criterion(11, "greedy-case-mix-matches-published-average")
def test_case_mix_average(incidence_grid):
    reports, _ = incidence_grid
    cells = [reports[(3, m, M4)] for m in (5, 6, 7, 8, 9, 10, 15)]
    mean_case1 = sum(r.pct_case1 for r in cells) / len(cells)
    assert abs(mean_case1 - 77.4) <= 5.0, mean_case1
    for r in cells:
        assert math.isclose(r.pct_case1 + r.pct_case2 + r.pct_case3, 100.0, abs_tol=1e-9)


@criterion(12, "welfare-maximum-is-not-symmetric")
def test_mnw_separation():
    t0 = time.perf_counter()
    plain = welfare_vs_symmetry()
    assignment = sf.max_nash_welfare(plain)
    assert sf.nash_welfare(plain, assignment) == 108
    assert assignment.partition == partition_of("bdf", "ace")
    scaled = welfare_vs_symmetry(eps_hundredths=1)
    perturbed = sf.max_nash_welfare(scaled)
    assert not sf.is_symef1(scaled, perturbed.partition)
    assert sf.is_symef1(scaled, partition_of("cdf", "abe"))
    assert time.perf_counter() - t0 < 1.0


@criterion(13, "symefx-can-be-unsatisfiable-while-symef1-holds")
def test_symefx_gap():
    t0 = time.perf_counter()
    inst = no_symefx_instance(3)
    for assignment in range(3**4):
        bundles = [set() for _ in range(3)]
        a = assignment
        for j in range(4):
            bundles[a % 3].add(j)
            a //= 3
        assert not sf.is_symefx(inst, sf.Partition(tuple(frozenset(b) for b in bundles)))
    assert sf.exact_symef1(inst).found
    assert time.perf_counter() - t0 < 1.0


@criterion(14, "coarse-valuations-are-easier")
def test_granularity_effect(incidence_grid):
    reports, _ = incidence_grid
    coarse = reports[(4, 6, 10)]
    fine = reports[(4, 6, M4)]
    n1 = coarse.replications - coarse.excluded
    n2 = fine.replications - fine.excluded
    p1 = coarse.pct_symef1 / 100.0
    p2 = fine.pct_symef1 / 100.0
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    z = (p1 - p2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    assert z > 1.645, (p1, p2, z)  # one-sided 95% confidence
