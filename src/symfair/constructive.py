"""Closed-form symEF1 constructions for structured valuations.

Three constructions are exact and fast: a single agent's round-robin partition
(every agent accepts any bundle of their own round-robin split), the
blockwise union of per-group round robins when agents split into groups with
identical rows and pairwise disjoint supports, and, for any two agents, a
2-coloring of the union of both agents' rank pairs.
"""

from __future__ import annotations

from itertools import compress

from .core import Instance, Partition, ranking


def agent_round_robin(inst: Instance, i: int) -> Partition:
    """Partition from agent i picking for all n bundles in turn.

    Bundle l receives agent i's l-th favourite item of every round, so bundle
    indices are ordered from best to worst in agent i's eyes.
    """
    n = inst.n
    return Partition.from_labels(((j, rank % n) for rank, j in enumerate(ranking(inst, i))), n)


def detect_groups(inst: Instance) -> tuple[tuple[int, ...], ...] | None:
    """Agents grouped by exact row equality, in order of first appearance.

    None unless the groups' supports are disjoint: disjointness fails exactly
    when two agents with different rows both place nonzero value on a common
    item, in which case the grouped construction does not apply.
    """
    row_to_agents: dict[tuple[int, ...], list[int]] = {}
    for i in range(inst.n):
        row_to_agents.setdefault(inst.values[i], []).append(i)
    # Values are nonnegative, so bool(v) is v > 0.
    for column in zip(*row_to_agents):
        if sum(map(bool, column)) > 1:
            return None
    return tuple(tuple(agents) for agents in row_to_agents.values())


def grouped_allocation(inst: Instance) -> Partition:
    """Index-wise union of each group's round robin over its own support.

    A group's support is its positive items, which lead its ranking. Items no
    group values go to bundle 1; they change no inequality, and a fixed rule
    keeps the output deterministic. Raises ValueError when
    ``detect_groups(inst)`` is None.
    """
    groups = detect_groups(inst)
    if groups is None:
        raise ValueError("the grouped construction does not apply: distinct rows share an item")
    n = inst.n
    labels = [0] * inst.m
    for agents in groups:
        row = inst.values[agents[0]]
        for rank, item in enumerate(ranking(inst, agents[0])[: sum(map(bool, row))]):
            labels[item] = rank % n
    return Partition.from_labels(enumerate(labels), n)


def two_agent_partition(inst: Instance) -> Partition:
    """A symEF1 partition of any two-agent instance, in O(m log m).

    Each agent's ranking is cut into consecutive pairs (a lone last item is in
    no pair); these pairs are the agent's blocks of the conflict graph. Every
    item is in at most one pair per agent, so the union of both agents' pairs
    is a graph of paths and cycles whose edges alternate between the agents.
    Every cycle is even and the graph is bipartite, so alternating two colors
    along each component separates every pair, which is sufficient for symEF1.
    Each component gets its coloring from its lowest-index item, which goes to
    bundle 1: that item fixes the component's 2-coloring, so the order of the
    walk does not matter. Raises ValueError unless the instance has exactly two
    agents.
    """
    if inst.n != 2:
        raise ValueError(f"two_agent_partition needs 2 agents, not {inst.n}")
    m = inst.m
    # mates[i][j] is the other item of agent i's pair holding j, or None.
    mates = []
    for i in (0, 1):
        order = ranking(inst, i)
        mate: list[int | None] = [None] * m
        for a, b in zip(order[0::2], order[1::2]):
            mate[a] = b
            mate[b] = a
        mates.append(mate)
    # side[j] is 1 or 2 for bundle 1 or 2, and 0 while item j is uncolored.
    side = bytearray(m)
    start = side.find(0)
    while start >= 0:
        side[start] = 1
        # Out along agent 0's pair, then along agent 1's. The edges alternate
        # between the agents and the sides alternate with them. On a cycle the
        # first direction comes back to start and colors the whole cycle.
        for out, back in (mates, mates[::-1]):
            u = start
            while True:
                u = out[u]
                if u is None or side[u]:
                    break
                side[u] = 2
                u = back[u]
                if u is None or side[u]:
                    break
                side[u] = 1
        start = side.find(0, start + 1)
    return Partition(
        (
            frozenset(compress(range(m), side.replace(b"\x02", b"\x00"))),
            frozenset(compress(range(m), side.replace(b"\x01", b"\x00"))),
        )
    )
