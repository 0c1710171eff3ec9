"""Same-round item blocks of the agents' rankings, and the conflict graph they induce.

Each agent's items are sorted by descending value (``core.ranking``) and cut
into consecutive blocks of size n (the last block may be shorter). A partition
*separates* these blocks when no bundle holds two items from the same block of
any agent. Separation is sufficient for symEF1, so an exact n-coloring of the
conflict graph (one vertex per item, one edge per same-block pair) certifies
existence and directly yields a witness partition. The converse does not hold:
some instances are symEF1-solvable with a graph that is not n-colorable.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

from .core import Instance, Partition, SearchLimits, _Record, _set, ranking

IndexedTuples = tuple[tuple[frozenset[int], ...], ...]


class ItemGraph(_Record):
    """Simple undirected graph on the m items; edges are same-block conflicts."""

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...]) -> None:
        for u, v in edges:
            if not 0 <= u < v < num_vertices:
                raise ValueError(f"bad edge ({u}, {v}) for {num_vertices} vertices")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        _set(self, "num_vertices", num_vertices)
        _set(self, "edges", edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        return adj


def indexed_tuples(inst: Instance) -> IndexedTuples:
    """Per agent, the ceil(m/n) consecutive blocks of the agent's ranking.

    Block t holds the items the agent would grab in round t if it picked for
    all n bundles itself; every block except possibly the last has n items.
    """
    n = inst.n
    per_agent = []
    for i in range(inst.n):
        order = ranking(inst, i)
        blocks = tuple(frozenset(order[t : t + n]) for t in range(0, inst.m, n))
        per_agent.append(blocks)
    return tuple(per_agent)


def build_item_graph(inst: Instance) -> ItemGraph:
    """Union over agents of all within-block item pairs, deduplicated."""
    edges: set[tuple[int, int]] = set()
    for blocks in indexed_tuples(inst):
        for block in blocks:
            members = sorted(block)
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    edges.add((members[a], members[b]))
    return ItemGraph(inst.m, tuple(sorted(edges)))


def components(g: ItemGraph) -> tuple[int, tuple[int, ...]]:
    """Connected components: (count, per-vertex 0-based label)."""
    adj = g.adjacency()
    labels = [-1] * g.num_vertices
    count = 0
    for start in range(g.num_vertices):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = count
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = count
                    stack.append(v)
        count += 1
    return count, tuple(labels)


def k_color(
    g: ItemGraph, k: int, limits: SearchLimits | None = None
) -> tuple[int, ...] | None:
    """Exact k-coloring via backtracking, or None once the search space is exhausted.

    Vertices are picked by maximum saturation (distinct neighbor colors), ties
    by degree then lowest index. Color symmetry is broken by never opening
    color c+1 while color c is unused, so the first vertex colored always gets
    color 1. Colors are 1-based in the result.

    The pick reads a lazy min-heap keyed (-saturation, -degree, vertex): every
    change of a vertex's saturation, and every uncoloring on backtrack, pushes
    a fresh entry, and a pop skips entries whose vertex is colored or whose
    saturation is out of date. The heap is rebuilt from the uncolored vertices
    once it holds more than 4m entries, so a pick costs amortised O(log m) per
    entry pushed (a coloring step pushes at most one per neighbor) rather than
    a scan of all m vertices.

    Each color assignment is one node of ``limits`` (default
    :class:`SearchLimits`, which states the rule).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = g.num_vertices
    if m == 0:
        return ()
    budget = (limits or SearchLimits()).start()
    nodes, check = 0, budget(0)
    adj = g.adjacency()
    degree = [len(a) for a in adj]
    colors = [0] * m
    neighbor_colors: list[set[int]] = [set() for _ in range(m)]
    heap = [(0, -degree[v], v) for v in range(m)]
    heapify(heap)

    def push(v: int) -> None:
        heappush(heap, (-len(neighbor_colors[v]), -degree[v], v))

    def pick() -> int:
        # Every uncolored vertex has an entry with its current saturation;
        # every vertex on the frame stack is colored when this runs.
        if len(heap) > 4 * m:
            heap[:] = [
                (-len(neighbor_colors[v]), -degree[v], v) for v in range(m) if not colors[v]
            ]
            heapify(heap)
        while True:
            neg_saturation, _, v = heappop(heap)
            if not colors[v] and -neg_saturation == len(neighbor_colors[v]):
                return v

    # One frame per colored vertex: [vertex, colors used before it, its color,
    # the uncolored neighbors that color was added to]. Color 0 means none yet.
    stack = [[pick(), 0, 0, []]]
    while stack:
        frame = stack[-1]
        v, used, c, touched = frame
        if c:
            for u in touched:
                neighbor_colors[u].discard(c)
                push(u)
            colors[v] = 0
        limit = min(used + 1, k)
        c += 1
        while c <= limit and c in neighbor_colors[v]:
            c += 1
        if c > limit:
            stack.pop()
            push(v)
            continue
        nodes += 1
        if nodes == check:
            check = budget(nodes)
        colors[v] = c
        touched = [u for u in adj[v] if colors[u] == 0 and c not in neighbor_colors[u]]
        for u in touched:
            neighbor_colors[u].add(c)
            push(u)
        frame[2] = c
        frame[3] = touched
        if len(stack) == m:
            return tuple(colors)
        stack.append([pick(), max(used, c), 0, []])
    return None


def coloring_to_partition(coloring: tuple[int, ...], n: int) -> Partition:
    """Bundle l = color class l; colors beyond the used ones give empty bundles.

    Colors are 1-based, so a color outside 1..n raises ValueError.
    """
    return Partition.from_labels(((item, c - 1) for item, c in enumerate(coloring)), n)


def separates_tuples(partition: Partition, tuples_: IndexedTuples) -> bool:
    """True iff no bundle holds two items from the same block of any agent.

    Raises ValueError when some block item is in no bundle.
    """
    owner = {j: k for k, bundle in enumerate(partition.bundles) for j in bundle}
    for blocks in tuples_:
        for block in blocks:
            if not block <= owner.keys():
                raise ValueError(f"items {sorted(block - owner.keys())} are in no bundle")
            if len({owner[j] for j in block}) < len(block):
                return False
    return True


def count_lower_bound(g: ItemGraph, n: int) -> int | None:
    """ceil(prod_i n!/(n - c_i)! / n!) distinct symEF1 partitions once the graph is n-colorable.

    c_i is the number of colors the found n-coloring uses on component i.
    Mapping each component's c_i colors into the n colors by its own injection
    keeps the coloring proper, hence separating and symEF1, and each unordered
    partition comes from at most n! of these colorings. Returns None when no
    n-coloring exists (the bound then says nothing), and raises
    :class:`BudgetExceededError` when ``k_color`` runs out of its default
    budget first. Exact integer arithmetic throughout.
    """
    coloring = k_color(g, n)
    if coloring is None:
        return None
    count, labels = components(g)
    used: list[set[int]] = [set() for _ in range(count)]
    for c, color in zip(labels, coloring):
        used[c].add(color)
    colorings = math.prod(math.perm(n, len(colors)) for colors in used)
    return -(-colorings // math.factorial(n))


def graph_to_dot(g: ItemGraph) -> str:
    """DOT text with 1-based vertex labels, one statement per line."""
    lines = ["graph G {"]
    lines.extend(f"  {v + 1};" for v in range(g.num_vertices))
    lines.extend(f"  {u + 1} -- {v + 1};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
