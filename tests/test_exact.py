import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

import symfair as sf
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

# ---------------------------------------------------------------------------
# existence search
# ---------------------------------------------------------------------------


def test_blocker_is_proved_infeasible():
    outcome = sf.exact_symef1(three_agent_blocker())
    assert outcome.status is sf.ExactStatus.PROVED_INFEASIBLE
    assert outcome.partition is None
    assert sf.naive_enumerate_symef1(three_agent_blocker()) == set()


def test_two_agents_always_found():
    rng = random.Random(30)
    for _ in range(60):
        inst = rand_instance(rng, 2, rng.randint(0, 12), 100)
        outcome = sf.exact_symef1(inst)
        assert outcome.found
        assert sf.is_symef1(inst, outcome.partition)


def test_trap_instance_found_with_known_witness():
    outcome = sf.exact_symef1(single_swap_trap())
    assert outcome.found
    witness = sf.Partition((lab("acef", "abcdefghj"), lab("bdghj", "abcdefghj")))
    assert sf.is_symef1(single_swap_trap(), witness)


def test_empty_and_tiny_instances():
    empty = sf.Instance.from_rows([[], []])
    outcome = sf.exact_symef1(empty)
    assert outcome.found and outcome.partition.bundles == (frozenset(), frozenset())
    single = sf.Instance.from_rows([[7]])
    assert sf.exact_symef1(single).found


def test_node_budget_reports_exhaustion():
    inst = rand_instance(random.Random(31), 4, 10, 1000)
    outcome = sf.exact_symef1(inst, sf.SearchLimits(node_budget=3, time_budget=60.0))
    assert outcome.status is sf.ExactStatus.BUDGET_EXCEEDED
    # The search stops at the first node past the budget.
    assert outcome.nodes == 4


def test_two_agents_out_of_budget_fall_back_to_coloring():
    # The search runs out on this instance even at the default budget; two-agent
    # conflict graphs are bipartite, so their closed-form 2-coloring answers instead.
    inst = rand_instance(random.Random(6), 2, 600, 10**4)
    limits = sf.SearchLimits(node_budget=20_000, time_budget=60.0)
    with pytest.raises(sf.BudgetExceededError):
        next(sf.exact._Searcher(inst, limits).leaves())
    outcome = sf.exact_symef1(inst, limits)
    assert outcome.status is sf.ExactStatus.FOUND
    assert outcome.nodes == 20_001
    assert outcome.partition == sf.two_agent_partition(inst)
    assert sf.is_symef1(inst, outcome.partition)
    # Three agents still report the budget (this one needs 33 nodes).
    three = rand_instance(random.Random(6), 3, 30, 10**4)
    outcome = sf.exact_symef1(three, sf.SearchLimits(node_budget=20))
    assert outcome.status is sf.ExactStatus.BUDGET_EXCEEDED


def test_large_m_ends_in_budget_not_recursion_error():
    rng = random.Random(36)
    limits = sf.SearchLimits(node_budget=20_000, time_budget=60.0)
    inst = rand_instance(rng, 2, 1200, 10**4)
    outcome = sf.exact_symef1(inst, limits)
    assert isinstance(outcome, sf.ExactOutcome)
    if outcome.found:
        assert sf.is_symef1(inst, outcome.partition)
    with pytest.raises(sf.BudgetExceededError):
        sf.enumerate_symef1(rand_instance(rng, 2, 1200, 10**4), limits, force=True)


def test_witness_check_failure_raises(monkeypatch):
    monkeypatch.setattr("symfair.exact.is_symef1", lambda inst, partition: False)
    with pytest.raises(RuntimeError, match="n=2, m=3"):
        sf.exact_symef1(sf.Instance.from_rows([[5, 3, 2], [1, 4, 4]]))


def test_witness_check_survives_optimized_mode():
    script = (
        "import symfair, symfair.exact as e\n"
        "e.is_symef1 = lambda inst, partition: False\n"
        "try:\n"
        "    e.exact_symef1(symfair.Instance.from_rows([[5, 3, 2], [1, 4, 4]]))\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert result.returncode == 0


def test_search_limits_validation():
    with pytest.raises(ValueError):
        sf.SearchLimits(node_budget=0)
    with pytest.raises(ValueError):
        sf.SearchLimits(time_budget=0.0)
    with pytest.raises(ValueError):
        sf.SearchLimits(time_budget=float("nan"))


# ---------------------------------------------------------------------------
# search engine against its reference
# ---------------------------------------------------------------------------


class _ReferenceSearcher(sf.exact._Searcher):
    """The loop that places every child, tests it, and undoes it if it fails.

    The engine scores children at their parent and places only the ones that
    survive, and it carries the item counts from node to node; it must count
    the same nodes, cut the same children, stop at the same child and yield
    the same leaves in the same order as this loop, which tests each placed
    child from scratch. It also keeps the mean-share test (worst_i above
    floor(total_i / n)) that the engine leaves to the deficit test, so the
    match shows that the engine's two tests cut the same children. It runs
    the cover test at every node, before placing the node's children, as the
    engine does when it enters a node.
    """

    item_count = True  # run the item-count test after the per-agent tests
    cover = True  # in it, count two items for a bundle no single later item fills

    def leaves(self):
        n, m = self.n, self.m
        if m == 0:
            yield self.current_partition()
            return
        cols, remaining, assign = self.cols, self.remaining, self.assign
        agents = range(n)
        # cap[i]: the mean share floor(total_i / n), which no final minimum bundle exceeds.
        cap = [r // n for r in remaining[0]]
        # tops[d][i]: agent i's largest value among the items at depths >= d.
        tops = [[max((cols[e][i] for e in range(d, m)), default=0) for i in agents]
                for d in range(m + 1)]
        node_budget = self.limits.node_budget
        deadline = time.monotonic() + self.limits.time_budget
        # sums[i][k], maxes[i][k]: agent i's value of bundle k and of its best item.
        sums = [[0] * n for _ in agents]
        maxes = [[0] * n for _ in agents]
        # worst[i] = max_k (sums[i][k] - maxes[i][k]), a lower bound on its final value.
        worst = [0] * n
        sizes = [0] * n
        saved_max = [[0] * n for _ in range(m)]
        saved_worst = [[0] * n for _ in range(m)]
        children: list[list[int]] = [[] for _ in range(m)]
        pos = [0] * m
        used = [0] * m  # bundles 0..used[d]-1 are nonempty before depth d
        # uncovered[d]: the bundles that, at the node at depth d, are short for
        # some agent while no item at a depth after d is worth the gap to every
        # agent they are short for; a child that puts item d elsewhere needs two
        # more items there.
        uncovered: list[set[int]] = [set() for _ in range(m)]
        children[0] = [0]
        nodes = 0
        d = 0
        undo = 0  # agents whose state the placement at depth d changed
        while True:
            if undo:
                k = assign[d]
                col = cols[d]
                sm = saved_max[d]
                sw = saved_worst[d]
                for i in range(undo):
                    sums[i][k] -= col[i]
                    maxes[i][k] = sm[i]
                    worst[i] = sw[i]
                sizes[k] -= 1
                undo = 0
            kids = children[d]
            p = pos[d]
            if p == len(kids):
                if d == 0:
                    self.nodes = nodes
                    return
                d -= 1
                undo = n
                continue
            pos[d] = p + 1
            k = kids[p]
            nodes += 1
            if nodes > node_budget:
                self.nodes = nodes
                raise sf.BudgetExceededError(f"node budget {node_budget} exhausted")
            if nodes % 4096 == 0 and time.monotonic() > deadline:
                self.nodes = nodes
                raise sf.BudgetExceededError(f"time budget {self.limits.time_budget}s exhausted")
            assign[d] = k
            sizes[k] += 1
            col = cols[d]
            sm = saved_max[d]
            sw = saved_worst[d]
            rem = remaining[d + 1]
            for i in agents:
                srow = sums[i]
                v = col[i]
                s = srow[k] + v
                srow[k] = s
                mrow = maxes[i]
                mx = mrow[k]
                sm[i] = mx
                if v > mx:
                    mrow[k] = mx = v
                w = worst[i]
                sw[i] = w
                if s - mx > w:
                    worst[i] = w = s - mx
                if w > cap[i]:
                    undo = i + 1
                    break
                slack = rem[i]
                for x in srow:
                    if x < w:
                        slack -= w - x
                        if slack < 0:
                            break
                if slack < 0:
                    undo = i + 1
                    break
            if not undo and self.item_count:
                # Bundle b needs max_i ceil((worst_i - v_i(A_b)) / top_i) more
                # items, from scratch; an agent with no value left needs more
                # than every count.
                left = m - d - 1
                up = tops[d + 1]
                needed = 0
                for b in range(n):
                    gaps = [
                        -((sums[i][b] - worst[i]) // up[i]) if up[i] else left + 1
                        for i in agents
                        if sums[i][b] < worst[i]
                    ]
                    if self.cover and b != k and b in uncovered[d]:
                        gaps.append(2)
                    needed += max(gaps, default=0)
                if needed > left:
                    undo = n
            if undo:
                continue
            if d + 1 == m:
                self.nodes = nodes
                yield self.current_partition()
                undo = n
                continue
            u = used[d]
            d += 1
            u = used[d] = u + 1 if k == u else u
            # Emptiest bundle first, ties by index (sorted is stable); only the
            # first empty bundle may open, so each unordered partition shows once.
            children[d] = sorted(range(u + 1 if u < n else n), key=sizes.__getitem__)
            pos[d] = 0
            uncovered[d] = set()
            for b in range(n):
                gaps = [(i, worst[i] - sums[i][b]) for i in agents if sums[i][b] < worst[i]]
                if gaps and not any(
                    all(cols[e][i] >= g for i, g in gaps) for e in range(d + 1, m)
                ):
                    uncovered[d].add(b)


class _NoCover(_ReferenceSearcher):
    cover = False


def _walk(searcher_cls, inst, limits, first_only):
    """(how the walk ended, [(leaf, nodes when it was yielded)], final nodes)."""
    searcher = searcher_cls(inst, limits)
    found = []
    end = "exhausted"
    try:
        for leaf in searcher.leaves():
            found.append((leaf, searcher.nodes))
            if first_only:
                end = "found"
                break
    except sf.BudgetExceededError:
        end = "budget"
    return end, found, searcher.nodes


def _same_walks(inst, limits, first_only):
    new = _walk(sf.exact._Searcher, inst, limits, first_only)
    assert new == _walk(_ReferenceSearcher, inst, limits, first_only)
    return new


def test_search_matches_reference_engine():
    rng = random.Random(62)
    ends = Counter()
    for _ in range(3000):
        n = rng.randint(1, 6)
        m = rng.randint(0, 12)
        inst = rand_instance(rng, n, m, rng.choice((1, 3, 100, 10**4)))
        budget = rng.choice((1, 2, 5, 17, 100, 1000, None))
        limits = sf.SearchLimits(
            node_budget=budget or sf.SearchLimits().node_budget, time_budget=3600.0
        )
        first_only = n**m > 10**5 or rng.random() < 0.5
        end, found, nodes = _same_walks(inst, limits, first_only)
        ends[end, first_only] += 1
        if end == "exhausted":
            assert sf.enumerate_symef1(inst, limits, force=True) == {
                sf.canonical_partition(leaf) for leaf, _ in found
            }
    assert len(ends) == 5 and min(ends.values()) >= 50, ends

    # The perfbench frontier pool at its node budget, and six uniform 8x24
    # draws: the instances where most children are cut.
    limits = sf.SearchLimits(node_budget=40_000, time_budget=3600.0)
    pool = [
        (f"frontier:{n}:{m}:{r}", n, m)
        for n, m in ((5, 10), (5, 15), (6, 12), (6, 15), (6, 18), (7, 14), (7, 21))
        for r in range(3)
    ]
    pool += [(f"rm:8:24:{r}", 8, 24) for r in range(6)]
    timed_out = 0
    for tag, n, m in pool:
        pool_rng = random.Random(tag)
        rows = [[pool_rng.randint(0, 10**4) for _ in range(m)] for _ in range(n)]
        inst = sf.Instance.from_rows(rows)
        _same_walks(inst, limits, True)
        # A deadline already past stops the walk at node 4096.
        end, _, nodes = _same_walks(inst, sf.SearchLimits(time_budget=1e-9), True)
        assert (end, nodes) == ("budget", 4096) or nodes < 4096
        timed_out += end == "budget"
    assert timed_out >= 10


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_unique_partition():
    parts = sf.enumerate_symef1(unique_partition_instance())
    assert parts == {sf.Partition.of({0}, {1, 2})}


def test_enumerate_blocker_is_empty():
    assert sf.enumerate_symef1(three_agent_blocker()) == set()


def test_enumerate_identical_agents_meets_lower_bound():
    inst = sf.Instance.from_rows([[90, 80, 70, 60, 50, 40, 30, 20, 10]] * 3)
    bound = sf.count_lower_bound(sf.build_item_graph(inst), 3)
    assert bound == 36
    assert len(sf.enumerate_symef1(inst)) >= bound


def test_enumerate_guard_refuses_huge_spaces():
    inst = sf.Instance.from_rows([list(range(18))] * 3)  # 3^18 > 1e8
    with pytest.raises(sf.ParseError, match="guard"):
        sf.enumerate_symef1(inst)
    with pytest.raises(sf.ParseError, match="guard"):
        sf.max_nash_welfare(inst)


def test_enumerate_budget_exhaustion_raises():
    inst = rand_instance(random.Random(32), 3, 9, 50)
    with pytest.raises(sf.BudgetExceededError):
        sf.enumerate_symef1(inst, sf.SearchLimits(node_budget=5, time_budget=60.0))


def test_canonical_partition_sorts_bundles():
    p = sf.Partition.of(set(), {3, 4}, {0, 2}, {1})
    canon = sf.canonical_partition(p)
    assert canon.bundles == (frozenset({0, 2}), frozenset({1}), frozenset({3, 4}), frozenset())


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(33)
    cases = []
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        m = rng.randint(0, {2: 10, 3: 7, 4: 5}[n])
        cases.append(rand_instance(rng, n, m, rng.choice([1, 3, 50])))
    # Rows of 0..1 and 0..2 often leave an agent no value among the items left
    # while a bundle is still short for it, which the item-count test handles
    # without a division.
    for _ in range(150):
        n = rng.choice([3, 4])
        cases.append(rand_instance(rng, n, rng.randint(3, {3: 8, 4: 6}[n]), rng.choice([1, 2])))
    # Rows of 0..3 and 0..10 with m about 2n often leave a bundle short for two
    # agents that no single remaining item fills, where the cover test cuts.
    # On binary rows, and at n = 5 or 6 with m <= 7, it almost never does.
    uncovered = []
    for n, m, count in ((3, 9, 12), (4, 7, 16), (5, 7, 2)):
        for _ in range(count):
            uncovered.append(rand_instance(rng, n, m, rng.choice([3, 10])))
    for inst in cases + uncovered:
        reference = sf.naive_enumerate_symef1(inst)
        assert sf.enumerate_symef1(inst) == reference
        outcome = sf.exact_symef1(inst)
        assert outcome.found == bool(reference)
        if outcome.found:
            assert sf.canonical_partition(outcome.partition) in reference
    limits = sf.SearchLimits()
    cut = sum(
        _walk(sf.exact._Searcher, inst, limits, False) != _walk(_NoCover, inst, limits, False)
        for inst in uncovered
    )
    assert cut >= 5, cut


def test_item_count_cuts_a_child_the_value_test_passes():
    # The search orders the items c, d, a, b, e. Placing b next to a, after c
    # and d went to bundles of their own, gives the first agent the bundles
    # {c}, {d} and {a, b}, worth 5, 5 and 20, so its worst is 20 - 10 = 10.
    # The two short bundles lack 10 in all, and e is worth 10: the value test
    # passes. But each lacks at least one item, and e is the only item left.
    inst = sf.Instance.from_rows([[10, 10, 5, 5, 10], [0, 0, 6, 6, 0], [0, 0, 6, 6, 0]])

    class ValueTestsOnly(_ReferenceSearcher):
        item_count = False

    limits = sf.SearchLimits()
    end, found, nodes = _same_walks(inst, limits, False)
    value_end, value_found, value_nodes = _walk(ValueTestsOnly, inst, limits, False)
    assert end == value_end == "exhausted"
    # The cut child would have had three children (e in each bundle), all cut.
    assert (nodes, value_nodes) == (33, 36)
    assert [leaf for leaf, _ in found] == [leaf for leaf, _ in value_found]
    assert {sf.canonical_partition(leaf) for leaf, _ in found} == sf.naive_enumerate_symef1(inst)


def test_cover_cuts_a_child_the_item_count_test_passes():
    # The search orders the items d, b, e, a, c. With d and b in the first
    # bundle, the first agent's worst is 4 - 2 = 2 and the second's 4 - 3 = 1.
    # Putting e in the second bundle leaves that bundle 2 short for the first
    # agent, and the empty third bundle 2 short for the first agent and 1 for
    # the second. a and c are left, worth 3 and 1 to the first agent and 0 and
    # 1 to the second: the value deficits fit (4 of 4 and 1 of 1), and each
    # short bundle needs one more item, two in all. But neither item fills the
    # third bundle for both agents, so it needs both, and the second gets none.
    inst = sf.Instance.from_rows([[3, 2, 1, 2, 0], [0, 1, 1, 3, 3], [0, 1, 0, 0, 1]])
    limits = sf.SearchLimits()
    end, found, nodes = _same_walks(inst, limits, False)
    plain_end, plain_found, plain_nodes = _walk(_NoCover, inst, limits, False)
    assert end == plain_end == "exhausted"
    # The cut child would have had three children (a in each bundle), all cut.
    assert (nodes, plain_nodes) == (14, 17)
    assert [leaf for leaf, _ in found] == [leaf for leaf, _ in plain_found]
    assert {sf.canonical_partition(leaf) for leaf, _ in found} == sf.naive_enumerate_symef1(inst)


def test_pairs_guaranteed_for_two_agents_four_distinct_items():
    rng = random.Random(34)
    tested = 0
    while tested < 150:
        inst = rand_instance(rng, 2, 4, 10**4)
        if not sf.items_distinct(inst):
            continue
        tested += 1
        assert len(sf.enumerate_symef1(inst)) >= 2


# ---------------------------------------------------------------------------
# maximum Nash welfare
# ---------------------------------------------------------------------------


def test_mnw_plain_instance():
    inst = welfare_vs_symmetry()
    assignment = sf.max_nash_welfare(inst)
    assert assignment.partition == partition_of("bdf", "ace")
    assert assignment.owner == (0, 1)
    assert sf.nash_welfare(inst, assignment) == 108


def test_mnw_is_not_symef1_under_perturbation():
    inst = welfare_vs_symmetry(eps_hundredths=1)
    assignment = sf.max_nash_welfare(inst)
    assert not sf.is_symef1(inst, assignment.partition)
    assert sf.is_symef1(inst, partition_of("cdf", "abe"))
    # Brute reference over all 2^6 splits, independent of the search code.
    best = 0
    for mask in range(2**6):
        a1 = [j for j in range(6) if mask >> j & 1]
        a2 = [j for j in range(6) if not mask >> j & 1]
        best = max(best, sf.bundle_value(inst, 0, a1) * sf.bundle_value(inst, 1, a2))
    assert sf.nash_welfare(inst, assignment) == best == 1_080_000


def test_mnw_single_agent_takes_everything():
    inst = sf.Instance.from_rows([[4, 0, 2]])
    assignment = sf.max_nash_welfare(inst)
    assert assignment.partition.bundles == (frozenset({0, 1, 2}),)


def test_mnw_prefers_serving_more_agents():
    inst = sf.Instance.from_rows([[5], [3]])
    assignment = sf.max_nash_welfare(inst)
    assert assignment.partition.bundles == (frozenset({0}), frozenset())


def test_mnw_node_budget_checked_at_every_leaf():
    inst = rand_instance(random.Random(37), 3, 6, 20)  # 729 leaves
    with pytest.raises(sf.BudgetExceededError):
        sf.max_nash_welfare(inst, sf.SearchLimits(node_budget=5, time_budget=60.0))


def test_every_engine_names_the_node_budget_it_ran_out_of(monkeypatch):
    # Budgets mean the same thing in every engine, and each says which one ran out.
    rng = random.Random(38)
    inst = rand_instance(rng, 3, 4, 20)
    limits = sf.SearchLimits(node_budget=1)
    for search in (
        lambda: sf.enumerate_symef1(inst, limits),
        lambda: sf.max_nash_welfare(inst, limits),
        lambda: sf.k_color(sf.build_item_graph(inst), 3, limits),
    ):
        with pytest.raises(sf.BudgetExceededError, match="^node budget 1 exhausted$"):
            search()
    # A clock one second on at each reading has passed a 0.5 s deadline by the
    # first time check, at node 4096; each search below has more nodes than that.
    identical = sf.Instance.from_rows(rand_instance(rng, 1, 12, 20).values * 3)
    path = sf.ItemGraph(5000, tuple((v, v + 1) for v in range(4999)))
    limits = sf.SearchLimits(time_budget=0.5)
    for module, search in (
        ("symfair.exact", lambda: sf.enumerate_symef1(identical, limits)),
        ("symfair.exact", lambda: sf.max_nash_welfare(rand_instance(rng, 2, 12, 20), limits)),
        ("symfair.tuples", lambda: sf.k_color(path, 2, limits)),
    ):
        monkeypatch.setattr(f"{module}.time", SimpleNamespace(monotonic=count().__next__))
        with pytest.raises(sf.BudgetExceededError, match=r"^time budget 0\.5s exhausted$"):
            search()
    # The existence search reports the stop in its outcome; this pool instance
    # (frontier 6x15 #1) is proved infeasible at 82 469 nodes.
    pool = rand_instance(random.Random("frontier:6:15:1"), 6, 15, 10**4)
    monkeypatch.setattr("symfair.exact.time", SimpleNamespace(monotonic=count().__next__))
    outcome = sf.exact_symef1(pool, limits)
    assert (outcome.status, outcome.nodes) == (sf.ExactStatus.BUDGET_EXCEEDED, 4096)


def test_mnw_tie_breaks_lexicographically():
    inst = sf.Instance.from_rows([[1, 1], [1, 1]])
    assignment = sf.max_nash_welfare(inst)
    # (agent of item 1, agent of item 2) = (1, 2) beats (2, 1) lexicographically.
    assert assignment.partition.bundles == (frozenset({0}), frozenset({1}))


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------


def _count_rows(text: str, prefix: str) -> int:
    return sum(line.strip().startswith(prefix) for line in text.splitlines())


def test_export_ip_tiny_dimensions():
    text = sf.export_ip(sf.Instance.from_rows([[3], [4]]))
    binaries = text.split("Binary")[1]
    assert sum(tok.startswith("x_") for tok in binaries.split()) == 2
    assert sum(tok.startswith("y_") for tok in binaries.split()) == 4
    assert _count_rows(text, "assign_") == 1
    assert _count_rows(text, "cap_") == 4
    assert _count_rows(text, "link_") == 4
    # One row per agent and ordered bundle pair (k, l), k != l: 2 * 2 * 1.
    assert _count_rows(text, "ef1_") == 4
    assert text.startswith("Minimize\n obj: 0 x_1_1\n")
    assert text.rstrip().endswith("End")
    # With no items there are no variables and no rows.
    for n in (1, 2, 3):
        assert sf.export_ip(sf.Instance(n, 0, ((),) * n)) == "Minimize\n obj:\nSubject To\nEnd\n"


def test_export_ip_blocker_variable_counts():
    text = sf.export_ip(three_agent_blocker())
    binaries = text.split("Binary")[1]
    assert sum(tok.startswith("x_") for tok in binaries.split()) == 12
    assert sum(tok.startswith("y_") for tok in binaries.split()) == 36


def test_export_ip_generic_dimensions():
    rng = random.Random(35)
    for _ in range(10):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = rand_instance(rng, n, m, 9)
        text = sf.export_ip(inst)
        binaries = text.split("Binary")[1].split()
        assert len([t for t in binaries if t.startswith(("x_", "y_"))]) == n * m + n * n * m
        assert _count_rows(text, "assign_") == m
        assert _count_rows(text, "ef1_") == n * n * (n - 1)


# The rows every 2 x 2 export shares, and its Binary section.
_LP_2X2_HEAD = """\
Minimize
 obj: 0 x_1_1
Subject To
 assign_1: x_1_1 + x_2_1 = 1
 assign_2: x_1_2 + x_2_2 = 1
 cap_1_1: y_1_1_1 + y_1_2_1 <= 1
 cap_1_2: y_1_1_2 + y_1_2_2 <= 1
 cap_2_1: y_2_1_1 + y_2_2_1 <= 1
 cap_2_2: y_2_1_2 + y_2_2_2 <= 1
 link_1_1_1: y_1_1_1 - x_1_1 <= 0
 link_1_1_2: y_1_1_2 - x_2_1 <= 0
 link_1_2_1: y_1_2_1 - x_1_2 <= 0
 link_1_2_2: y_1_2_2 - x_2_2 <= 0
 link_2_1_1: y_2_1_1 - x_1_1 <= 0
 link_2_1_2: y_2_1_2 - x_2_1 <= 0
 link_2_2_1: y_2_2_1 - x_1_2 <= 0
 link_2_2_2: y_2_2_2 - x_2_2 <= 0
"""
_LP_2X2_TAIL = """\
Binary
 x_1_1
 x_1_2
 x_2_1
 x_2_2
 y_1_1_1
 y_1_1_2
 y_1_2_1
 y_1_2_2
 y_2_1_1
 y_2_1_2
 y_2_2_1
 y_2_2_2
End
"""


def test_export_ip_names_are_one_based():
    text = sf.export_ip(sf.Instance.from_rows([[3, 1], [1, 3]]))
    assert " x_2_2" in text and " y_2_2_2" in text
    assert "x_0_" not in text and "y_0_" not in text
    assert text == _LP_2X2_HEAD + """\
 ef1_1_1_2: 3 x_1_1 - 3 x_2_1 + 3 y_1_1_2 + 1 x_1_2 - 1 x_2_2 + 1 y_1_2_2 >= 0
 ef1_1_2_1: 3 x_2_1 - 3 x_1_1 + 3 y_1_1_1 + 1 x_2_2 - 1 x_1_2 + 1 y_1_2_1 >= 0
 ef1_2_1_2: 1 x_1_1 - 1 x_2_1 + 1 y_2_1_2 + 3 x_1_2 - 3 x_2_2 + 3 y_2_2_2 >= 0
 ef1_2_2_1: 1 x_2_1 - 1 x_1_1 + 1 y_2_1_1 + 3 x_2_2 - 3 x_1_2 + 3 y_2_2_1 >= 0
""" + _LP_2X2_TAIL


def test_export_ip_zero_row_keeps_rows_parseable():
    text = sf.export_ip(sf.Instance.from_rows([[0, 0], [1, 2]]))
    for line in text.splitlines():
        if line.strip().startswith("ef1_1_"):
            assert ">= 0" in line and "x_" in line
    assert text == _LP_2X2_HEAD + """\
 ef1_1_1_2: 0 x_1_1 >= 0
 ef1_1_2_1: 0 x_2_1 >= 0
 ef1_2_1_2: 1 x_1_1 - 1 x_2_1 + 1 y_2_1_2 + 2 x_1_2 - 2 x_2_2 + 2 y_2_2_2 >= 0
 ef1_2_2_1: 1 x_2_1 - 1 x_1_1 + 1 y_2_1_1 + 2 x_2_2 - 2 x_1_2 + 2 y_2_2_1 >= 0
""" + _LP_2X2_TAIL


def _lp_rows(text: str) -> list[tuple[str, list[tuple[int, str]], str, int]]:
    """The constraint rows of an exported file as (name, terms, sense, rhs)."""
    parsed = []
    for line in text.splitlines():
        line = line.strip()
        if ":" not in line or line.startswith("obj:"):
            continue
        name, body = line.split(":", 1)
        for sense in ("<=", ">=", "="):
            if sense in body:
                lhs, rhs = body.split(sense)
                break
        # Coefficient defaults to 1 after a bare sign token.
        terms = []
        sign = 1
        pending = None
        for tok in lhs.split():
            if tok in "+-":
                sign = 1 if tok == "+" else -1
                pending = None
            elif tok.lstrip("+-").isdigit():
                pending = sign * int(tok)
            else:
                terms.append((pending if pending is not None else sign, tok))
                sign = 1
                pending = None
        parsed.append((name.strip(), terms, sense, int(rhs)))
    return parsed


def _lp_feasible(text: str, n: int, m: int) -> bool:
    """Decide feasibility of an exported file by reading it back literally.

    Walks every item-to-bundle map against the parsed rows; the y variables
    appear with nonnegative coefficients and are capped at one per (agent,
    bundle) row, so picking the single best allowed y per row is optimal.
    """
    parsed = _lp_rows(text)

    def satisfied(xvals) -> bool:
        for name, terms, sense, rhs in parsed:
            if name.startswith(("assign_",)):
                total = sum(c * xvals[v] for c, v in terms)
                if not (total == rhs if sense == "=" else total <= rhs):
                    return False
            elif name.startswith("ef1_"):
                fixed = sum(c * xvals[v] for c, v in terms if v.startswith("x_"))
                bundle_l = name.split("_")[3]
                best_y = 0
                for c, v in terms:
                    if v.startswith("y_"):
                        _, _, j, l = v.split("_")
                        assert l == bundle_l
                        if xvals[f"x_{l}_{j}"]:
                            best_y = max(best_y, c)
                if fixed + best_y < rhs:
                    return False
            # cap_ and link_ rows hold by construction of the best-y choice
        return True

    for code in range(n**m):
        xvals = {f"x_{k}_{j}": 0 for k in range(1, n + 1) for j in range(1, m + 1)}
        c = code
        for j in range(1, m + 1):
            xvals[f"x_{c % n + 1}_{j}"] = 1
            c //= n
        if satisfied(xvals):
            return True
    return False


def test_export_ip_feasibility_matches_search():
    cases = [
        three_agent_blocker(),  # infeasible
        sf.Instance.from_rows([[5, 3, 2], [1, 4, 4]]),
        sf.Instance.from_rows([[2, 2, 1, 0], [0, 1, 2, 2]]),
        sf.Instance.from_rows([[100 if i == j else 1 for j in range(4)] for i in range(3)]),
    ]
    for inst in cases:
        text = sf.export_ip(inst)
        assert _lp_feasible(text, inst.n, inst.m) == sf.exact_symef1(inst).found


def _highs_feasible(text: str) -> bool:
    """Solve an exported file with scipy's HiGHS MILP solver, all rows as written."""
    import numpy as np
    from scipy import optimize

    names = text.split("Binary")[1].split("End")[0].split()
    column = {name: c for c, name in enumerate(names)}
    rows = _lp_rows(text)
    matrix = np.zeros((len(rows), len(names)))
    lower = np.full(len(rows), -np.inf)
    upper = np.full(len(rows), np.inf)
    for r, (_, terms, sense, rhs) in enumerate(rows):
        for coef, var in terms:
            matrix[r, column[var]] += coef
        if sense in ("=", ">="):
            lower[r] = rhs
        if sense in ("=", "<="):
            upper[r] = rhs
    result = optimize.milp(
        c=np.zeros(len(names)),
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(len(names)),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.status in (0, 2), result.message  # 0 optimal, 2 infeasible
    return result.status == 0


def test_export_ip_matches_highs_milp():
    pytest.importorskip("scipy")
    rng = random.Random(36)
    cases = [three_agent_blocker()]
    for _ in range(30):
        n = rng.randint(1, 4)
        cases.append(rand_instance(rng, n, rng.randint(1, 8), rng.choice((1, 2, 10))))
    verdicts = [sf.exact_symef1(inst).found for inst in cases]
    assert [_highs_feasible(sf.export_ip(inst)) for inst in cases] == verdicts
    assert verdicts.count(False) >= 2


# ---------------------------------------------------------------------------
# symEFX vs symEF1 separation
# ---------------------------------------------------------------------------


def test_no_symefx_but_symef1_exists():
    inst = no_symefx_instance(3)
    # Exhaustive reference loop over all 3^4 maps.
    any_symefx = False
    for assignment in range(3**4):
        bundles = [set() for _ in range(3)]
        a = assignment
        for j in range(4):
            bundles[a % 3].add(j)
            a //= 3
        if sf.is_symefx(inst, sf.Partition(tuple(frozenset(b) for b in bundles))):
            any_symefx = True
    assert not any_symefx
    assert sf.exact_symef1(inst).found
