import heapq
import random
from itertools import combinations

import pytest

import symfair as sf
from helpers import (
    clique_but_solvable,
    distinct_row,
    lab,
    partition_of,
    rand_instance,
    single_swap_trap,
    welfare_vs_symmetry,
)

# Two agents, four items, both pairing {a,b} and {c,d}: two isolated edges.
PAIRED = sf.Instance.from_rows([[4, 3, 2, 1], [3, 4, 1, 2]])
# Agent 2 pairs {a,c} and {b,d} instead: a single 4-cycle.
CROSSED = sf.Instance.from_rows([[4, 3, 2, 1], [4, 2, 3, 1]])


def test_ranking_descending_with_index_ties():
    assert sf.ranking(welfare_vs_symmetry(), 0) == (5, 4, 3, 2, 1, 0)
    flat = sf.Instance.from_rows([[7, 7, 7, 7]])
    assert sf.ranking(flat, 0) == (0, 1, 2, 3)
    assert sf.ranking(single_swap_trap(), 0)[:4] == (0, 1, 2, 3)


def test_ranking_matches_the_explicit_index_tie_key():
    # ranking sorts in reverse by value alone; a reverse sort is stable, so it
    # must equal the sort keyed (-value, index) on rows made mostly of ties.
    rng = random.Random(16)
    for top in (1, 2, 5):
        for m in range(61):
            row = [rng.randint(0, top) for _ in range(m)]
            inst = sf.Instance.from_rows([row])
            assert sf.ranking(inst, 0) == tuple(sorted(range(m), key=lambda j: (-row[j], j)))


def test_indexed_tuples_blocks_of_n():
    blocks = sf.indexed_tuples(clique_but_solvable())
    assert blocks[0] == (lab("def"), lab("abc"))
    assert blocks[1] == (lab("cef"), lab("abd"))
    assert blocks[2] == (lab("cdf"), lab("abe"))


def test_indexed_tuples_single_block_when_m_at_most_n():
    inst = sf.Instance.from_rows([[3, 1], [2, 2], [1, 3]])
    assert sf.indexed_tuples(inst) == ((lab("ab"),), (lab("ab"),), (lab("ab"),))


def test_indexed_tuples_trailing_remainder():
    inst = sf.Instance.from_rows([[5, 4, 3, 2, 1], [5, 4, 3, 2, 1]])
    sizes = [len(b) for b in sf.indexed_tuples(inst)[0]]
    assert sizes == [2, 2, 1]


def test_tuples_partition_the_items():
    rng = random.Random(0)
    for _ in range(50):
        inst = rand_instance(rng, rng.randint(1, 5), rng.randint(0, 12), 20)
        for i, blocks in enumerate(sf.indexed_tuples(inst)):
            seen = [j for block in blocks for j in block]
            assert sorted(seen) == list(range(inst.m))
            # every item in block t is worth at least every item in block t+1
            row = inst.values[i]
            for earlier, later in zip(blocks, blocks[1:]):
                assert min(row[j] for j in earlier) >= max(row[j] for j in later)


def test_item_graph_contains_five_clique():
    g = sf.build_item_graph(clique_but_solvable())
    assert g.num_vertices == 6
    assert len(g.edges) == 13
    clique = sorted(lab("abcde"))
    for u, v in combinations(clique, 2):
        assert (u, v) in g.edges


def test_item_graph_identical_two_agents_is_matching():
    inst = sf.Instance.from_rows([[6, 5, 4, 3, 2, 1]] * 2)
    g = sf.build_item_graph(inst)
    assert g.edges == ((0, 1), (2, 3), (4, 5))
    assert sf.components(g)[0] == 3


def test_item_graph_complete_when_m_at_most_n():
    inst = sf.Instance.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    g = sf.build_item_graph(inst)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_components_paired_and_crossed():
    assert sf.components(sf.build_item_graph(PAIRED))[0] == 2
    assert sf.components(sf.build_item_graph(CROSSED))[0] == 1
    edgeless = sf.ItemGraph(5, ())
    count, labels = sf.components(edgeless)
    assert count == 5 and labels == (0, 1, 2, 3, 4)


def _assert_proper(g: sf.ItemGraph, coloring, k):
    assert coloring is not None
    assert len(coloring) == g.num_vertices
    assert all(1 <= c <= k for c in coloring)
    for u, v in g.edges:
        assert coloring[u] != coloring[v]


def test_k_color_clique_instance():
    g = sf.build_item_graph(clique_but_solvable())
    assert sf.k_color(g, 3) is None
    assert sf.k_color(g, 4) is None
    _assert_proper(g, sf.k_color(g, 5), 5)


def test_k_color_complete_graph():
    g = sf.ItemGraph(4, tuple(combinations(range(4), 2)))
    assert sf.k_color(g, 3) is None
    _assert_proper(g, sf.k_color(g, 4), 4)


# ---------------------------------------------------------------------------
# Reference for the equivalence test: the scan-based k_color, which finds each
# vertex to color by scanning all m vertices for the largest
# (saturation, degree, -index). The heap pick must choose the same vertex at
# every step, so both return the same coloring or both return None.
# ---------------------------------------------------------------------------


def _reference_k_color(g: sf.ItemGraph, k: int) -> tuple[int, ...] | None:
    m = g.num_vertices
    if m == 0:
        return ()
    adj = g.adjacency()
    degree = [len(a) for a in adj]
    colors = [0] * m
    neighbor_colors: list[set[int]] = [set() for _ in range(m)]

    def pick() -> int:
        best = -1
        best_key = (-1, -1, 0)
        for v in range(m):
            if colors[v] == 0:
                key = (len(neighbor_colors[v]), degree[v], -v)
                if key > best_key:
                    best_key = key
                    best = v
        return best

    stack = [[pick(), 0, 0, []]]
    while stack:
        frame = stack[-1]
        v, used, c, touched = frame
        if c:
            for u in touched:
                neighbor_colors[u].discard(c)
            colors[v] = 0
        limit = min(used + 1, k)
        c += 1
        while c <= limit and c in neighbor_colors[v]:
            c += 1
        if c > limit:
            stack.pop()
            continue
        colors[v] = c
        touched = [u for u in adj[v] if colors[u] == 0 and c not in neighbor_colors[u]]
        for u in touched:
            neighbor_colors[u].add(c)
        frame[2] = c
        frame[3] = touched
        if len(stack) == m:
            return tuple(colors)
        stack.append([pick(), max(used, c), 0, []])
    return None


def test_k_color_matches_scan_reference(monkeypatch):
    # Small value ranges make saturation and degree ties common, and k below
    # the chromatic number makes the search backtrack.
    rng = random.Random(25)
    cases = []
    for _ in range(2000):
        n = rng.randint(1, 5)
        inst = rand_instance(rng, n, rng.randint(0, 26), rng.choice((1, 3, 100)))
        cases.append((sf.build_item_graph(inst), rng.randint(1, n + 1)))
    # n + 1 colors on 3- and 4-agent graphs: mostly colorable, some only after
    # backtracking, where the next pick depends on re-pushed vertices.
    for _ in range(400):
        n = rng.randint(3, 4)
        inst = rand_instance(rng, n, rng.randint(12, 30), rng.choice((1, 3, 100)))
        cases.append((sf.build_item_graph(inst), n + 1))
    cases += [(sf.build_item_graph(clique_but_solvable()), k) for k in range(1, 7)]
    cases += [(sf.ItemGraph(m, tuple(combinations(range(m), 2))), k)
              for m in (1, 4, 6) for k in range(1, m + 2)]
    outcomes = [sf.k_color(g, k) for g, k in cases]
    assert outcomes == [_reference_k_color(g, k) for g, k in cases]
    assert sum(c is None for c in outcomes) > 300

    # Uniform 3x60 graphs are not 3-colorable: the search backtracks long
    # enough for the heap to outgrow 4m entries and be rebuilt.
    heapify_calls = 0

    def counting_heapify(heap):
        nonlocal heapify_calls
        heapify_calls += 1
        heapq.heapify(heap)

    monkeypatch.setattr("symfair.tuples.heapify", counting_heapify)
    rng = random.Random(60)
    graphs = [sf.build_item_graph(rand_instance(rng, 3, 60, 10**4)) for _ in range(6)]
    for g in graphs:
        assert sf.k_color(g, 3) is None
        assert _reference_k_color(g, 3) is None
        assert sf.k_color(g, 4) == _reference_k_color(g, 4)
    # One heapify per k_color call builds the heap; any beyond that is a rebuild.
    assert heapify_calls > 2 * len(graphs)


def test_k_color_budget():
    # One node per color assignment: a path takes exactly m of them at k = 2.
    path = sf.ItemGraph(40, tuple((v, v + 1) for v in range(39)))
    _assert_proper(path, sf.k_color(path, 2, sf.SearchLimits(node_budget=40)), 2)
    with pytest.raises(sf.BudgetExceededError, match="node budget 39"):
        sf.k_color(path, 2, sf.SearchLimits(node_budget=39))
    # A uniform 3x60 graph is not 3-colorable; proving it takes more than 10 nodes.
    g = sf.build_item_graph(rand_instance(random.Random(60), 3, 60, 10**4))
    assert sf.k_color(g, 3) is None
    with pytest.raises(sf.BudgetExceededError):
        sf.k_color(g, 3, sf.SearchLimits(node_budget=10))


def test_k_color_rejects_bad_k():
    with pytest.raises(ValueError):
        sf.k_color(sf.ItemGraph(1, ()), 0)


def test_two_agent_graphs_always_bipartite():
    rng = random.Random(1)
    for _ in range(200):
        inst = rand_instance(rng, 2, rng.randint(1, 14), 50)
        g = sf.build_item_graph(inst)
        _assert_proper(g, sf.k_color(g, 2), 2)


def test_coloring_to_partition_color_classes():
    g = sf.build_item_graph(clique_but_solvable())
    coloring = sf.k_color(g, 5)
    p = sf.coloring_to_partition(coloring, 5)
    for item, color in enumerate(coloring):
        assert item in p.bundles[color - 1]
    assert len(p.bundles) == 5


def test_coloring_to_partition_paired_graph():
    g = sf.build_item_graph(PAIRED)
    p = sf.coloring_to_partition(sf.k_color(g, 2), 2)
    assert p in (partition_of("ac", "bd"), partition_of("ad", "bc"))


def test_coloring_to_partition_edgeless_single_color():
    p = sf.coloring_to_partition((1, 1, 1), 2)
    assert p == sf.Partition.of({0, 1, 2}, set())
    with pytest.raises(ValueError):
        sf.coloring_to_partition((1, 2, 3), 2)


def test_coloring_to_partition_refuses_colors_below_one():
    # Colors are 1-based; without a range check 0 and -1 index the last bundles.
    for coloring in ((0, 1), (-1, 1)):
        with pytest.raises(ValueError):
            sf.coloring_to_partition(coloring, 2)


def test_separation_examples():
    inst = clique_but_solvable()
    tuples_ = sf.indexed_tuples(inst)
    assert not sf.separates_tuples(partition_of("af", "ce", "bd"), tuples_)
    # A bundle swallowing a whole block can never separate.
    assert not sf.separates_tuples(partition_of("abc", "de", "f"), tuples_)
    # Each agent's own round robin separates that agent's blocks.
    for i in range(inst.n):
        rr = sf.agent_round_robin(inst, i)
        assert sf.separates_tuples(rr, (tuples_[i],))


def test_separation_refuses_a_partition_missing_block_items():
    tuples_ = sf.indexed_tuples(clique_but_solvable())
    with pytest.raises(ValueError, match="no bundle"):
        sf.separates_tuples(partition_of("af", "ce", "b"), tuples_)


def test_count_lower_bound():
    ident = sf.Instance.from_rows([[90, 80, 70, 60, 50, 40, 30, 20, 10]] * 3)
    g = sf.build_item_graph(ident)
    assert sf.components(g)[0] == 3
    assert sf.count_lower_bound(g, 3) == 36
    small = sf.Instance.from_rows([[3, 2, 1]] * 3)
    assert sf.count_lower_bound(sf.build_item_graph(small), 3) == 1
    assert sf.count_lower_bound(sf.build_item_graph(clique_but_solvable()), 3) is None


def test_count_lower_bound_counts_only_the_colors_a_component_uses():
    # Blocks {a,b,c} and {d}: the lone item has 3 bundles to go to, not 3!
    # colorings, so 3 partitions, which is exactly how many are symEF1.
    inst = sf.Instance.from_rows([[4, 3, 2, 1]] * 3)
    assert sf.count_lower_bound(sf.build_item_graph(inst), 3) == 3
    assert len(sf.enumerate_symef1(inst)) == 3
    rng = random.Random(12)
    for n, m in [(2, 5), (2, 7), (3, 5), (3, 7), (3, 8), (4, 6), (4, 7)]:
        inst = sf.Instance.from_rows([distinct_row(rng, m, 100)] * n)
        bound = sf.count_lower_bound(sf.build_item_graph(inst), n)
        assert bound is not None
        assert bound <= len(sf.enumerate_symef1(inst))


def test_count_lower_bound_uses_exact_arithmetic():
    # 20 identical agents, 40 items: (20!)^1 overflows 64-bit integers.
    inst = sf.Instance.from_rows([list(range(40, 0, -1))] * 20)
    g = sf.build_item_graph(inst)
    import math

    assert sf.count_lower_bound(g, 20) == math.factorial(20)


def test_graph_to_dot():
    empty2 = sf.ItemGraph(2, ())
    assert " ".join(sf.graph_to_dot(empty2).split()) == "graph G { 1; 2; }"
    single = sf.graph_to_dot(sf.ItemGraph(2, ((0, 1),)))
    assert "1 -- 2" in single
    fig = sf.graph_to_dot(sf.build_item_graph(clique_but_solvable()))
    lines = fig.strip().splitlines()
    assert sum("--" in line for line in lines) == 13
    assert sum(line.strip().endswith(";") and "--" not in line for line in lines) == 6


# ---------------------------------------------------------------------------
# structural properties over random instances
# ---------------------------------------------------------------------------


def test_coloring_route_soundness_chain():
    rng = random.Random(2)
    colorable = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        m = rng.randint(n, 12)
        inst = rand_instance(rng, n, m, 40)
        g = sf.build_item_graph(inst)
        coloring = sf.k_color(g, n)
        if coloring is None:
            continue
        colorable += 1
        p = sf.coloring_to_partition(coloring, n)
        tuples_ = sf.indexed_tuples(inst)
        assert sf.separates_tuples(p, tuples_)
        assert sf.is_symef1(inst, p)
        assert sf.is_balanced(p)
        assert set(p.sizes()) <= {m // n, -(-m // n)}
    assert colorable > 20  # the chain must actually get exercised


def test_strengthened_bound_when_n_divides_m():
    rng = random.Random(3)
    exercised = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        m = n * rng.randint(1, 3)
        inst = rand_instance(rng, n, m, 30)
        coloring = sf.k_color(sf.build_item_graph(inst), n)
        if coloring is None:
            continue
        p = sf.coloring_to_partition(coloring, n)
        if not sf.separates_tuples(p, sf.indexed_tuples(inst)):
            continue
        exercised += 1
        for i in range(n):
            floor_min = min(inst.values[i])
            vals = [sf.bundle_value(inst, i, b) for b in p.bundles]
            maxes = [sf.max_item_value(inst, i, b) for b in p.bundles]
            for k in range(n):
                for l in range(n):
                    assert vals[k] - floor_min >= vals[l] - maxes[l]
    assert exercised > 20


def test_graph_invariance_under_tuple_preserving_transforms():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = n * rng.randint(1, 3)  # reversal preserves blocks only when n | m
        rows = [random.Random(rng.random()).sample(range(1, 200), m) for _ in range(n)]
        inst = sf.Instance.from_rows(rows)
        base = sf.build_item_graph(inst).edges

        perm = rng.sample(range(n), n)
        permuted = sf.Instance.from_rows([rows[i] for i in perm])
        assert sf.build_item_graph(permuted).edges == base

        top = max(max(r) for r in rows) + 1
        reversed_ = sf.Instance.from_rows([[top - v for v in r] for r in rows])
        assert sf.build_item_graph(reversed_).edges == base

        # Shuffle values within each block, keeping the block sets intact.
        reshuffled = []
        for i in range(n):
            blocks = sf.indexed_tuples(inst)[i]
            new_row = [0] * m
            for t, block in enumerate(blocks):
                members = sorted(block)
                rng.shuffle(members)
                base_value = (len(blocks) - t) * (n + 1)
                for offset, j in enumerate(members):
                    new_row[j] = base_value + offset
            reshuffled.append(new_row)
        assert sf.build_item_graph(sf.Instance.from_rows(reshuffled)).edges == base


def test_colorability_is_not_necessary():
    inst = clique_but_solvable()
    assert sf.k_color(sf.build_item_graph(inst), 3) is None
    assert sf.is_symef1(inst, partition_of("af", "ce", "bd"))
