import inspect
import math
import os
import random
import re
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from itertools import count, zip_longest
from types import ModuleType, SimpleNamespace

import pytest

import symfair as sf
from helpers import (
    ROOT,
    lab,
    load_script,
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
    # The search finds a partition of this instance at node 702, so it runs out
    # at 500; two-agent conflict graphs are bipartite, so their closed-form
    # 2-coloring answers instead.
    inst = rand_instance(random.Random(6), 2, 600, 10**4)
    assert sf.exact_symef1(inst).nodes == 702
    limits = sf.SearchLimits(node_budget=500, time_budget=60.0)
    with pytest.raises(sf.BudgetExceededError):
        next(sf.exact._Searcher(inst, limits).leaves())
    outcome = sf.exact_symef1(inst, limits)
    assert outcome.status is sf.ExactStatus.FOUND
    assert outcome.nodes == 501
    assert outcome.partition == sf.two_agent_partition(inst)
    assert sf.is_symef1(inst, outcome.partition)
    # Three agents still report the budget (this one needs 57 nodes).
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


def test_readme_frontier_table_matches_the_search():
    # README's frontier table is one run of scripts/exact_frontier.py. Its
    # verdicts and node counts do not depend on the host, so the cheap rows
    # (5x10, 5x15 and 6x12, at most 1 391 nodes each) are re-run here.
    script = load_script("exact_frontier")
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        rows = {
            label: (verdict, int(nodes.replace(" ", "")))
            for label, verdict, nodes in re.findall(
                r"^\| ((?:pool|fresh) \S+ #\d+) \| (\w+) \| ([\d ]+) \|", f.read(), re.M
            )
        }
    cheap = [(label, inst) for label, inst in script.instances()
             if label.split()[1] in ("5x10", "5x15", "6x12")]
    assert len(cheap) == 9
    for label, inst in cheap:
        outcome = sf.exact_symef1(inst, script.LIMITS)
        assert (outcome.status.value, outcome.nodes) == rows[label], label


def test_one_search_leaves_no_state_for_the_next():
    # Every table a search fills (cover tables, child lists by bundle sizes)
    # and every per-depth frame belongs to that search, not to the kernel
    # that runs it. So each search of the frontier pool and of rows for
    # n = 3..8, interleaved, gives the same outcome when run again after
    # other searches, each kernel serving several instances; the rows of
    # 0..10, each searched after a binary row of its n, give the reference's
    # outcome; and enumeration after an existence search lists what a fresh
    # enumeration listed.
    limits = sf.SearchLimits(node_budget=40_000, time_budget=math.inf)
    rng = random.Random("no-state")
    binary = [sf.Instance.from_rows([[rng.randint(0, 1) for _ in range(m)] for _ in range(n)])
              for n, m in ((3, 9), (4, 10), (5, 10), (6, 12), (7, 12), (8, 13))]
    # Rows of 0..10 with m = 2n often leave a bundle short for agents that no
    # single later item fills, where the cover test cuts.
    small = [rand_instance(rng, n, 2 * n, 10) for n in range(3, 9)]
    pool = [inst for label, inst in load_script("exact_frontier").instances()
            if label.startswith("pool")]
    assert len(pool) == 21
    rows = [inst for pair in zip(binary, small) for inst in pair]
    mixed = [inst for pair in zip_longest(pool, rows) for inst in pair if inst is not None]

    def outcome(inst):
        o = sf.exact_symef1(inst, limits)
        return o.status, o.nodes, o.partition

    first = [outcome(inst) for inst in mixed]
    kernels = {n: sf.exact._kernel(n) for n in range(3, 9)}
    # In reverse, each search follows another one than the first time.
    again = [outcome(inst) for inst in reversed(mixed)]
    assert first == again[::-1]
    assert all(sf.exact._kernel(n) is kernel for n, kernel in kernels.items())
    assert sum(status is sf.ExactStatus.BUDGET_EXCEEDED for status, _, _ in first) == 2
    statuses = {"found": sf.ExactStatus.FOUND, "exhausted": sf.ExactStatus.PROVED_INFEASIBLE,
                "budget": sf.ExactStatus.BUDGET_EXCEEDED}
    for inst in small:
        end, found, nodes = _walk(_ReferenceSearcher, inst, limits, True)
        assert first[mixed.index(inst)] == (statuses[end], nodes, found[0][0] if found else None)
    for inst in binary + pool[:3]:
        fresh = sf.enumerate_symef1(inst, limits, force=True)
        sf.exact_symef1(inst, limits)
        assert sf.enumerate_symef1(inst, limits, force=True) == fresh


def test_exact_ab_requires_equal_outcomes(tmp_path, capsys):
    # scripts/exact_ab.py times two trees' exact.py only where both return the
    # same (status, nodes, partition) on every instance: the tree against
    # itself passes, and a tree whose waiting children go largest deficit
    # first is refused.
    script = load_script("exact_ab")
    src = os.path.dirname(os.path.dirname(sf.exact.__file__))
    assert script.main([src, src, "--passes", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^frontier: 21 instances, .* old and new agree", out, re.M)
    assert re.search(r"^grid: 318 instances, .* old and new agree", out, re.M)
    source = inspect.getsource(sf.exact)
    old = "late.sort(key=itemgetter(0))"
    assert source.count(old) == 1
    (tmp_path / "symfair").mkdir()
    (tmp_path / "symfair" / "exact.py").write_text(
        source.replace(old, "late.sort(key=itemgetter(0), reverse=True)"), encoding="utf-8")
    assert script.main([src, str(tmp_path)]) == 1
    assert "differ" in capsys.readouterr().out


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
    # The time budget is an int or a float, infinity included; nothing else.
    for bad in (True, "5", None):
        with pytest.raises(ValueError, match="the time budget must be a number"):
            sf.SearchLimits(time_budget=bad)
    assert sf.SearchLimits(time_budget=3).time_budget == 3
    assert sf.SearchLimits(time_budget=float("inf")).time_budget == float("inf")


# ---------------------------------------------------------------------------
# search engine against its reference
# ---------------------------------------------------------------------------


class _ReferenceSearcher(sf.exact._Searcher):
    """The loop that places every child, tests it, and undoes it if it fails.

    The engine scores children at their parent and places only the ones that
    survive, and it carries the deficits and item counts from node to node; it
    must count the same nodes, cut the same children, stop at the same child
    and yield the same leaves in the same order as this loop, which tests each
    placed child from scratch. It also keeps the mean-share test (worst_i above
    floor(total_i / n)) that the engine leaves to the deficit test, so the
    match shows that the engine's two tests cut the same children. It runs
    the cover test at every node, before placing the node's children, as the
    engine does when it enters a node.

    A node tests its children emptiest bundle first, ties by index. A
    survivor whose deficit sum_i sum_k max(0, worst_i - v_i(A_k)) is 0 is
    entered at once. The others are undone, and once the last child is
    tested they are placed again and entered by ascending deficit, ties in
    the order they were tested; placing one again counts no node.
    """

    item_count = True  # run the item-count test after the per-agent tests
    cover = True  # in it, count two items for a bundle no single later item fills
    by_deficit = True  # enter the survivors by deficit, not in the order they were tested

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
        # later[d]: (deficit, test position, bundle) of the node's survivors
        # with a positive deficit, not entered yet.
        later: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
        used = [0] * m  # bundles 0..used[d]-1 are nonempty before depth d
        # uncovered[d]: the bundles that, at the node at depth d, are short for
        # some agent while no item at a depth after d is worth the gap to every
        # agent they are short for; a child that puts item d elsewhere needs two
        # more items there.
        uncovered: list[set[int]] = [set() for _ in range(m)]

        def place(d, k):
            assign[d] = k
            sizes[k] += 1
            col = cols[d]
            for i in agents:
                v = col[i]
                sums[i][k] += v
                saved_max[d][i] = maxes[i][k]
                maxes[i][k] = max(maxes[i][k], v)
                saved_worst[d][i] = worst[i]
                worst[i] = max(worst[i], sums[i][k] - maxes[i][k])

        def undo(d):
            k = assign[d]
            sizes[k] -= 1
            for i in agents:
                sums[i][k] -= cols[d][i]
                maxes[i][k] = saved_max[d][i]
                worst[i] = saved_worst[d][i]

        def deficit(d):
            """The placed child's deficit, or None if it fails a test."""
            rem = remaining[d + 1]
            total = 0
            for i in agents:
                w = worst[i]
                lack = sum(w - x for x in sums[i] if x < w)
                if w > cap[i] or lack > rem[i]:
                    return None
                total += lack
            if self.item_count:
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
                    if self.cover and b != assign[d] and b in uncovered[d]:
                        gaps.append(2)
                    needed += max(gaps, default=0)
                if needed > left:
                    return None
            return total

        children[0] = [0]
        nodes = 0
        d = 0
        while True:
            kids = children[d]
            p = pos[d]
            if p < len(kids):
                pos[d] = p + 1
                k = kids[p]
                nodes += 1
                if nodes > node_budget:
                    self.nodes = nodes
                    raise sf.BudgetExceededError(f"node budget {node_budget} exhausted")
                if nodes % 4096 == 0 and time.monotonic() > deadline:
                    self.nodes = nodes
                    raise sf.BudgetExceededError(f"time budget {self.limits.time_budget}s exhausted")
                place(d, k)
                lack = deficit(d)
                if lack is None:
                    undo(d)
                    continue
                if lack and self.by_deficit:
                    later[d].append((lack, p, k))
                    undo(d)
                    continue
            elif later[d]:
                entry = min(later[d])
                later[d].remove(entry)
                place(d, entry[2])
            else:
                if d == 0:
                    self.nodes = nodes
                    return
                d -= 1
                undo(d)
                continue
            if d + 1 == m:
                self.nodes = nodes
                yield self.current_partition()
                undo(d)
                continue
            u = used[d]
            k = assign[d]
            d += 1
            u = used[d] = u + 1 if k == u else u
            # Emptiest bundle first, ties by index (sorted is stable); only the
            # first empty bundle may open, so each unordered partition shows once.
            children[d] = sorted(range(u + 1 if u < n else n), key=sizes.__getitem__)
            pos[d] = 0
            later[d] = []
            uncovered[d] = set()
            for b in range(n):
                gaps = [(i, worst[i] - sums[i][b]) for i in agents if sums[i][b] < worst[i]]
                if gaps and not any(
                    all(cols[e][i] >= g for i, g in gaps) for e in range(d + 1, m)
                ):
                    uncovered[d].add(b)


class _NoCover(_ReferenceSearcher):
    cover = False


class _ScoringOrder(_ReferenceSearcher):
    by_deficit = False  # the order before the deficit order: emptiest bundle first


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
        n = rng.randint(1, 10)
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
    # One 40-agent instance, node for node and by its enumeration set.
    inst = rand_instance(rng, 40, 4, 10)
    end, found, nodes = _same_walks(inst, sf.SearchLimits(), False)
    assert end == "exhausted" and found
    assert sf.enumerate_symef1(inst) == {sf.canonical_partition(leaf) for leaf, _ in found}

    # The perfbench frontier pool at its node budget, and seven uniform 8x24
    # draws: the instances where most children are cut.
    limits = sf.SearchLimits(node_budget=40_000, time_budget=3600.0)
    pool = [
        (f"frontier:{n}:{m}:{r}", n, m)
        for n, m in ((5, 10), (5, 15), (6, 12), (6, 15), (6, 18), (7, 14), (7, 21))
        for r in range(3)
    ]
    pool += [(f"rm:8:24:{r}", 8, 24) for r in range(7)]
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


def test_kernels_for_one_and_sixty_four_agents_match_the_reference():
    # Each agent count gets its own kernel, every per-agent step written out
    # for each agent: one agent unpacks each per-agent list into one name.
    # A search at either width matches the reference node for node.
    assert "    c0, = cols[d]\n" in sf.exact._expand(sf.exact._LEAVES, 1)
    rng = random.Random("widths")
    limits = sf.SearchLimits()
    for n, m in ((1, 0), (1, 1), (1, 7), (64, 0), (64, 1), (64, 5)):
        inst = rand_instance(rng, n, m, 10)
        end, found, nodes = _same_walks(inst, limits, False)
        assert end == "exhausted"
        assert sf.enumerate_symef1(inst, force=True) == {sf.canonical_partition(leaf) for leaf, _ in found}
    # n + 6 items of 0..10^4: one agent takes them all; 64 agents need a
    # proof of 2 144 nodes that none of their partitions is symEF1.
    for n, end in ((1, "found"), (64, "exhausted")):
        inst = rand_instance(rng, n, n + 6, 10**4)
        assert _same_walks(inst, limits, True)[0] == end


def test_children_go_by_deficit_so_the_first_witness_moves():
    # The search orders the items b, a, d, c, and puts b and a in bundles of
    # their own. Both children of d survive. d next to b raises the second
    # agent's worst to 5 - 3 = 2 and leaves a's bundle 1 short for it, which c
    # can fill; d next to a leaves no bundle short for anyone. The emptiest-
    # first order tries d next to b first (equal sizes, lower index) and finds
    # {b, d}, {a, c}; the deficit order enters the child with deficit 0 at
    # once and finds {b, c}, {a, d}.
    inst = sf.Instance.from_rows([[1, 1, 0, 0], [1, 3, 1, 2]])
    limits = sf.SearchLimits()
    witness, old_witness = sf.Partition.of({1, 2}, {0, 3}), sf.Partition.of({1, 3}, {0, 2})
    assert _same_walks(inst, limits, True) == ("found", [(witness, 5)], 5)
    outcome = sf.exact_symef1(inst)
    assert (outcome.partition, outcome.nodes) == (witness, 5)
    assert _walk(_ScoringOrder, inst, limits, True) == ("found", [(old_witness, 4)], 4)
    assert sf.is_symef1(inst, witness) and sf.is_symef1(inst, old_witness)
    # The order moves leaves but cuts nothing: both full walks score the same
    # 9 children and list the same three partitions.
    end, every, nodes = _same_walks(inst, limits, False)
    old_end, old_every, old_nodes = _walk(_ScoringOrder, inst, limits, False)
    assert (end, nodes) == (old_end, old_nodes) == ("exhausted", 9)
    assert [leaf for leaf, _ in every] == [witness, sf.Partition.of({1}, {0, 2, 3}), old_witness]
    assert {leaf for leaf, _ in every} == {leaf for leaf, _ in old_every}


def _mutant_searcher(old: str, new: str):
    """``exact._Searcher`` with one line of its source replaced, built in memory."""
    source = inspect.getsource(sf.exact)
    assert source.count(old) == 1
    module = ModuleType("symfair._mutant_exact")
    module.__package__ = "symfair"
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    return module._Searcher


def test_reference_comparison_catches_a_descending_order():
    # An engine that enters the survivors with a positive deficit largest
    # first still cuts the same children and lists the same leaves, so only
    # the node-for-node comparison with the reference tells it apart.
    mutant = _mutant_searcher(
        "late.sort(key=itemgetter(0))", "late.sort(key=itemgetter(0), reverse=True)"
    )
    rng = random.Random(62)
    limits = sf.SearchLimits()
    caught = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        inst = rand_instance(rng, n, rng.randint(n, 3 * n), 10**4)
        caught += _walk(mutant, inst, limits, True) != _walk(_ReferenceSearcher, inst, limits, True)
    assert caught >= 20, caught


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


def test_cover_tables_built_once_per_search(monkeypatch):
    # A search builds every agent's cover table once, with its setup, before
    # the walk starts, whether or not it runs a cover query: on the instance
    # above, enumeration's cover queries find only the first two agents
    # short, and the existence search finds a witness before any query.
    built = []
    cover_table = sf.exact._Searcher.cover_table

    def recording(self, i):
        built.append(i)
        return cover_table(self, i)

    monkeypatch.setattr(sf.exact._Searcher, "cover_table", recording)
    inst = sf.Instance.from_rows([[3, 2, 1, 2, 0], [0, 1, 1, 3, 3], [0, 1, 0, 0, 1]])
    assert len(sf.enumerate_symef1(inst)) == 3
    assert built == [0, 1, 2]
    built.clear()
    assert sf.exact_symef1(inst).nodes == 7
    assert built == [0, 1, 2]


def test_cover_table_lists_the_items_worth_each_gap():
    # masks[bisect_right(negs, -g)], restricted to the depths after d, holds
    # exactly the depths e > d whose item is worth at least g to the agent.
    # Values 0..5 tie often, so an item worth exactly g must count.
    rng = random.Random("cover-table")
    ties = 0
    for n in range(1, 7):
        for m in range(15):
            for _ in range(3):
                inst = rand_instance(rng, n, m, 5)
                searcher = sf.exact._Searcher(inst, sf.SearchLimits())
                for i in range(n):
                    row = [col[i] for col in searcher.cols]
                    ties += len(set(row)) < m
                    negs, masks = searcher.cover_table(i)
                    for d in range(m):
                        later = (1 << (m - 1 - d)) - 1
                        for g in range(7):
                            want = sum(1 << (m - 1 - e) for e in range(d + 1, m) if row[e] >= g)
                            assert masks[bisect_right(negs, -g)] & later == want, (row, d, g)
    assert ties > 500, ties


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
    # The oracle stops at leaf node_budget + 1: all 729 leaves fit a budget of
    # 729, and the 729th is one too many for 728.
    sf.max_nash_welfare(inst, sf.SearchLimits(node_budget=729, time_budget=60.0))
    with pytest.raises(sf.BudgetExceededError, match="^node budget 728 exhausted$"):
        sf.max_nash_welfare(inst, sf.SearchLimits(node_budget=728, time_budget=60.0))


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
    # first time check, at node 4096; each search below has at least that many
    # nodes. The budget rule reads the one clock in symfair.core: at the start
    # and at node 4096, and not before, so a node budget of 4095 stops first.
    identical = sf.Instance.from_rows(rand_instance(rng, 1, 12, 20).values * 3)
    two = rand_instance(rng, 2, 12, 20)  # 4096 leaves
    path = sf.ItemGraph(5000, tuple((v, v + 1) for v in range(4999)))
    for search in (
        lambda limits: sf.enumerate_symef1(identical, limits),
        lambda limits: sf.max_nash_welfare(two, limits),
        lambda limits: sf.k_color(path, 2, limits),
    ):
        for node_budget, reads, message in (
            (10_000_000, 2, r"^time budget 0\.5s exhausted$"),
            (4095, 1, "^node budget 4095 exhausted$"),
        ):
            clock = count()
            monkeypatch.setattr("symfair.core.time", SimpleNamespace(monotonic=clock.__next__))
            with pytest.raises(sf.BudgetExceededError, match=message):
                search(sf.SearchLimits(node_budget, time_budget=0.5))
            assert next(clock) == reads
    # The existence search reports the stop in its outcome; this pool instance
    # (frontier 6x15 #1) is proved infeasible at 82 469 nodes.
    pool = rand_instance(random.Random("frontier:6:15:1"), 6, 15, 10**4)
    clock = count()
    monkeypatch.setattr("symfair.core.time", SimpleNamespace(monotonic=clock.__next__))
    outcome = sf.exact_symef1(pool, sf.SearchLimits(time_budget=0.5))
    assert (outcome.status, outcome.nodes) == (sf.ExactStatus.BUDGET_EXCEEDED, 4096)
    assert next(clock) == 2


def test_every_engine_stops_at_an_int_node_budget_only():
    # The engines test the node count for equality with the next count to
    # test at, which a budget such as 100.5 never meets; SearchLimits refuses
    # every node budget that is not an int, bools and whole floats included.
    for bad in (100.5, 100.0, True, "100", None):
        with pytest.raises(ValueError, match="^the node budget must be an integer, got "):
            sf.SearchLimits(node_budget=bad)
    # frontier 6x15 #1 is proved infeasible at 82 469 nodes, and a 200-vertex
    # path takes 200 at k = 2; at budget 100 each engine stops at node 101.
    pool = rand_instance(random.Random("frontier:6:15:1"), 6, 15, 10**4)
    path = sf.ItemGraph(200, tuple((v, v + 1) for v in range(199)))
    limits = sf.SearchLimits(node_budget=100)
    outcome = sf.exact_symef1(pool, limits)
    assert (outcome.status, outcome.nodes) == (sf.ExactStatus.BUDGET_EXCEEDED, 101)
    for search in (
        lambda: sf.max_nash_welfare(pool, limits, force=True),
        lambda: sf.k_color(path, 2, limits),
    ):
        with pytest.raises(sf.BudgetExceededError, match="^node budget 100 exhausted$"):
            search()


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
