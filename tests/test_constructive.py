import random

import pytest

import symfair as sf
from helpers import lab, partition_of, rand_instance, three_agent_blocker, welfare_vs_symmetry


def test_round_robin_two_agents():
    p = sf.agent_round_robin(welfare_vs_symmetry(), 0)
    assert p == partition_of("bdf", "ace")


def test_round_robin_few_items_gives_singletons():
    inst = sf.Instance.from_rows([[1, 9], [5, 5], [2, 3]])
    p = sf.agent_round_robin(inst, 0)
    assert p == sf.Partition.of({1}, {0}, set())


def test_round_robin_identical_agents_agree():
    inst = sf.Instance.from_rows([[7, 3, 9, 1]] * 3)
    partitions = {sf.agent_round_robin(inst, i) for i in range(3)}
    assert len(partitions) == 1


def test_round_robin_owner_accepts_every_bundle():
    # Any bundle of an agent's own round robin is EF1-acceptable to that agent,
    # and consecutive bundles weakly decrease in the agent's value.
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(0, 12)
        inst = rand_instance(rng, n, m, 50)
        for i in range(n):
            p = sf.agent_round_robin(inst, i)
            for k in range(n):
                assert sf.is_ef1_satisfied(inst, i, k, p)
            values = [sf.bundle_value(inst, i, b) for b in p.bundles]
            assert all(a >= b for a, b in zip(values, values[1:]))
            tuples_i = sf.indexed_tuples(inst)[i]
            assert sf.separates_tuples(p, (tuples_i,))


def test_detect_groups_identical_pair():
    inst = sf.Instance.from_rows([[1, 2, 3], [1, 2, 3]])
    assert sf.detect_groups(inst) == ((0, 1),)


def test_detect_groups_block_diagonal():
    inst = sf.Instance.from_rows(
        [
            [5, 3, 0, 0],
            [0, 0, 2, 9],
        ]
    )
    assert sf.detect_groups(inst) == ((0,), (1,))


def test_detect_groups_rejects_overlap():
    assert sf.detect_groups(three_agent_blocker()) is None


def _reference_detect_groups(inst):
    """Full-support grouping that ``detect_groups`` must match."""
    row_to_agents = {}
    for i in range(inst.n):
        row_to_agents.setdefault(inst.values[i], []).append(i)
    groups = []
    claimed = set()
    for row, agents in row_to_agents.items():
        support = frozenset(j for j in range(inst.m) if row[j] > 0)
        if support & claimed:
            return None
        claimed.update(support)
        groups.append(tuple(agents))
    return tuple(groups)


def _reference_grouped_allocation(inst, groups):
    """The grouped round robin from scratch: each group's representative ranks
    its positive items, labelled by rank mod n; unvalued items go to bundle 1."""
    labels = {j: 0 for j in range(inst.m)}
    for agents in groups:
        row = inst.values[agents[0]]
        positive = sorted((j for j in range(inst.m) if row[j] > 0), key=lambda j: (-row[j], j))
        for rank, j in enumerate(positive):
            labels[j] = rank % inst.n
    return sf.Partition.from_labels(labels.items(), inst.n)


def test_detect_groups_matches_reference():
    # Identical rows, all-zero rows, disjoint supports (with and without
    # unvalued items) and supports that overlap on one or many items.
    rng = random.Random(13)
    kinds = {"None": 0, "groups": 0}
    for trial in range(2000):
        n, m = rng.randint(1, 5), rng.randint(0, 12)
        shape = trial % 4
        if shape == 0:  # identical rows, some all zero
            base = [rng.randint(0, 9) for _ in range(m)]
            rows = [base if rng.random() < 0.7 else [0] * m for _ in range(n)]
        elif shape == 1:  # disjoint supports; an owner of -1 leaves the item unvalued
            owner = [rng.randrange(-1, n) for _ in range(m)]
            rows = [[rng.randint(1, 9) if owner[j] == i else 0 for j in range(m)]
                    for i in range(n)]
            if rng.random() < 0.3:
                rows = [rows[rng.randrange(n)] for _ in range(n)]
        elif shape == 2:  # disjoint supports plus one shared item
            owner = [rng.randrange(n) for _ in range(m)]
            rows = [[rng.randint(1, 9) if owner[j] == i else 0 for j in range(m)]
                    for i in range(n)]
            if m and n > 1:
                j = rng.randrange(m)
                for i in rng.sample(range(n), 2):
                    rows[i][j] = rng.randint(1, 9)
        else:  # random sparse rows, overlapping in many places
            rows = [[rng.choice([0, 0, rng.randint(1, 9)]) for _ in range(m)]
                    for _ in range(n)]
        inst = sf.Instance.from_rows(rows) if m else sf.Instance(n, 0, ((),) * n)
        want = _reference_detect_groups(inst)
        assert sf.detect_groups(inst) == want, rows
        kinds["None" if want is None else "groups"] += 1
        if want is None:
            with pytest.raises(ValueError):
                sf.grouped_allocation(inst)
        else:
            assert sf.grouped_allocation(inst) == _reference_grouped_allocation(inst, want), rows
    assert min(kinds.values()) >= 300, kinds


def test_grouped_allocation_single_group_matches_round_robin():
    inst = sf.Instance.from_rows([[9, 4, 7, 2]] * 3)
    assert sf.grouped_allocation(inst) == sf.agent_round_robin(inst, 0)


def test_grouped_allocation_zero_items_go_to_first_bundle():
    inst = sf.Instance.from_rows([[9, 0, 7, 0], [9, 0, 7, 0]])
    p = sf.grouped_allocation(inst)
    assert 1 in p.bundles[0] and 3 in p.bundles[0]
    assert sf.is_symef1(inst, p)


def test_grouped_allocation_block_instance_is_symef1():
    inst = sf.Instance.from_rows(
        [
            [5, 3, 1, 0, 0, 0],
            [5, 3, 1, 0, 0, 0],
            [0, 0, 0, 4, 4, 2],
        ]
    )
    assert sf.detect_groups(inst) is not None
    p = sf.grouped_allocation(inst)
    assert sf.is_symef1(inst, p)
    assert p.items == frozenset(range(6))


def test_grouped_allocation_random_group_structures():
    rng = random.Random(11)
    for _ in range(150):
        n_groups = rng.randint(1, 3)
        group_sizes = [rng.randint(1, 2) for _ in range(n_groups)]
        n = sum(group_sizes)
        m = rng.randint(0, 10)
        # Assign each item to one group's support (or to nobody).
        owner = [rng.randrange(n_groups + 1) for _ in range(m)]
        rows = []
        group_rows = []
        for g in range(n_groups):
            row = [rng.randint(1, 30) if owner[j] == g else 0 for j in range(m)]
            group_rows.append(row)
        for g, size in enumerate(group_sizes):
            rows.extend([group_rows[g]] * size)
        inst = sf.Instance.from_rows(rows)
        if sf.detect_groups(inst) is None:
            # Two groups drew identical all-zero rows or equal rows; then they
            # merged, never overlapped, so detection cannot return None here.
            raise AssertionError("disjoint construction must be detected")
        p = sf.grouped_allocation(inst)
        assert sf.is_symef1(inst, p)


def test_two_agent_binary_pipeline():
    # Binary valuations, two agents: the grouped construction applies only in
    # corner cases, but the coloring route always finishes the job.
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 12)
        inst = rand_instance(rng, 2, m, 1)
        if sf.detect_groups(inst) is not None:
            p = sf.grouped_allocation(inst)
        else:
            coloring = sf.k_color(sf.build_item_graph(inst), 2)
            assert coloring is not None
            p = sf.coloring_to_partition(coloring, 2)
        assert sf.is_symef1(inst, p)


def test_grouped_allocation_refuses_overlapping_rows():
    with pytest.raises(ValueError, match="does not apply"):
        sf.grouped_allocation(sf.Instance.from_rows([[1, 2], [2, 1]]))


def test_grouped_allocation_on_groups_in_first_appearance_order():
    inst = sf.Instance.from_rows([[5, 3, 0, 0], [0, 0, 4, 2], [5, 3, 0, 0]])
    assert sf.detect_groups(inst) == ((0, 2), (1,))
    assert sf.is_symef1(inst, sf.grouped_allocation(inst))


def test_two_agent_partition_separates_both_agents_pairs():
    # Odd and even m, zeros and ties: the 2-coloring puts the two items of
    # every conflict edge (each agent's consecutive rank pair) apart.
    rng = random.Random(16)
    for m in list(range(61)) * 3:
        top = rng.choice((1, 2, 5, 10**4))
        inst = rand_instance(rng, 2, m, top)
        p = sf.two_agent_partition(inst)
        assert sf.is_symef1(inst, p)
        owner = {j: k for k, bundle in enumerate(p.bundles) for j in bundle}
        assert all(owner[u] != owner[v] for u, v in sf.build_item_graph(inst).edges)


def _reference_two_agent_partition(inst):
    """The stack walk over both agents' rank pairs that ``two_agent_partition``
    must match: components in order of their lowest-index item, which gets
    bundle 1."""
    m = inst.m
    partners = [[] for _ in range(m)]
    for i in (0, 1):
        order = sf.ranking(inst, i)
        for a, b in zip(order[0::2], order[1::2]):
            partners[a].append(b)
            partners[b].append(a)
    color = [-1] * m
    for start in range(m):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in partners[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
    return sf.Partition.from_labels(enumerate(color), 2)


def test_two_agent_partition_matches_the_stack_walk():
    # Bundle order matters too: solve prints the bundles in order. Small value
    # ranges give many ties, so long paths and cycles of equal items.
    rng = random.Random(2423)
    for m in range(301):
        for top in (1, 3, 10**4):
            inst = rand_instance(rng, 2, m, top)
            want = _reference_two_agent_partition(inst).bundles
            assert sf.two_agent_partition(inst).bundles == want, inst


def test_two_agent_partition_needs_two_agents():
    for rows in ([[1, 2, 3]], [[1, 2], [2, 1], [1, 1]]):
        with pytest.raises(ValueError, match="2 agents"):
            sf.two_agent_partition(sf.Instance.from_rows(rows))
