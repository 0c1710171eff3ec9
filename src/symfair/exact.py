"""Complete decision procedures: existence search, enumeration, MNW, LP export.

The existence search assigns items to bundles depth first, visiting each
unordered partition at most once (an item may only open the first empty
bundle). It is exact: with the node and time budgets left at their defaults it
either returns a witness partition or proves that none exists.

Soundness of the prune. For agent i let worst_i = max_l (v_i(A_l) - max_i(A_l)),
the largest value of a bundle less its best item, and R_i the agent's value of
the unassigned items. Values are nonnegative, so adding items S to A_l raises
v_i(A_l) by v_i(S) and max_i(A_l) by at most max_i(S) <= v_i(S): the current
v_i(A_l) - max_i(A_l) lower-bounds the final one, and every final bundle must
reach worst_i. Hence no completion is symEF1 when

    sum_k max(0, worst_i - v_i(A_k)) > R_i        (the bundles below worst_i
                                                   need more than is left).

Placing an item changes only its bundle's term, which never decreases, so
worst_i updates in O(1). With no items left the test is exactly the symEF1
check. It implies the mean-share cut worst_i > floor(total_i / n): then
n * worst_i > total_i, and the deficit is at least
n * worst_i - (total_i - R_i) > R_i. A child that leaves worst_i where it is
and puts its item in a bundle that stays below worst_i passes the test, as
its node did (the root trivially): the deficit falls by the item's value v,
to at most R_i - v, which is what is left at the child. So the search does
not test it there.

The second test counts items. Let left be the number of unassigned items and
top_i agent i's largest value among them. A bundle below worst_i gains at
most top_i per item it receives, so it needs at least
need_b = max_i ceil((worst_i - v_i(A_b)) / top_i) more items, over the agents
with v_i(A_b) < worst_i and top_i > 0. An agent with top_i = 0 has R_i = 0,
so the first test already cuts every state that leaves a bundle below its
worst_i, and it needs no term. The bundles receive disjoint sets of the
remaining items, so no completion is symEF1 when

    sum_b need_b > left.

The bound holds below the node too: worst_i never falls, no remaining item is
worth more than top_i, and top_i never rises. It tests the child's state
alone, not the path to it.

The third test, the cover test, prices a bundle that is one item short for
several agents at once. Take a node at depth d and a bundle b with
need_b = 1, short for the agents i with gaps g_i = worst_i - v_i(A_b) > 0.
If no item at a depth after d is worth at least g_i to every one of them,
b needs two more items in every child that puts item d elsewhere: b keeps
its value there, and only the items after d are left to fill it. So those
children count need_b = 2. The count stays valid below such a child until b
gains an item, when its entry is recomputed: the gaps only grow, the agents
b is short for only join, and the items after the depth only leave. One
short agent never fails the test while its top_i > 0, as the item worth
top_i >= g_i fills b; an agent with top_i = 0 can fail it, but its deficit
test cuts every child that leaves b short for it anyway. For the same
reason, a node's test fails wherever an ancestor's failed for a bundle that
has gained no item since.

The prune only cuts subtrees, so the accepted leaves come in the order of a
walk without it, and each unordered partition is a leaf at most once. When
the enumerated set equals the naive oracle's, no symEF1 partition was cut,
so both walks accept the same leaves in the same order and return the same
first witness.

Cost model. A node scores each child when the walk is back at the node, so
from the node's own bundle sums and maxima. It holds, per agent, the deficit
D_i = sum_k max(0, worst_i - v_i(A_k)) that its parent computed. A child that
puts the item in bundle k and leaves worst_i where it is changes only bundle
k's term, in O(1); one that raises worst_i to W rescans the n bundle values
once (bundle k's own term is 0 before and after, as W is at most its old
value). Agents are tested in order and a child is cut at the first one that
fails. Only the surviving children are placed and later undone, and each
passes its deficits down as its own D_i, so no node recomputes them.

Each node also holds the need_b of its bundles, which its parent computed.
top[d] (top over the items at depths >= d) and drops[d] (the agents whose top
falls from depth d to d + 1) are built once per search, with the suffix sums;
depths where no top falls share one list. A node at depth d scores children
that see top[d + 1], so on entry it merges the terms of the drops[d] agents
into its counts by maximum: their top falls, so their terms only rise. An
agent whose top falls to 0 is skipped: a child that leaves one of its
bundles short fails its deficit test, and a child that fills its one short
bundle k gets entry k recomputed. A child's entry k is the maximum over the
agents whose worst_i stays of ceil((worst_i - s) / top_i). The child is cut
as soon as that entry pushes the sum past left, and before any test when
the other entries already do.
The agents whose worst_i rises already rescan their row; their terms enter
the child's counts only once the child has passed every per-agent test
(their bundle k term is 0). Each child counts as one node when it is scored,
cut or not, and the budgets are tested there, so node counts and budget stops
are those of a walk that places each child and tests it from scratch.

A node with an entry at 1 runs the cover test on entry, after the drops
merge and before it scores any child, for all its bundles at once, and
raises the failed entries to 2 in its own counts. A child that puts item d
into a raised bundle k recomputes entry k, so its bound room + need[k],
taken after the raise, is exactly that the child's counts fit in the items
left. A query costs one binary search and one AND per short agent. An
agent's table, built on its first query in a search, lists its values
sorted with prefix bitmasks of their depths, so the items worth at least g_i
to it are one prefix mask; b fails when the AND of these masks over its
short agents and the mask of the depths after d is 0.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from enum import Enum
from itertools import accumulate
from operator import neg, or_
from typing import Iterator

from .core import (
    Assignment,
    BudgetExceededError,
    Instance,
    ParseError,
    Partition,
    SearchLimits,
    _Record,
    _set,
    is_symef1,
    order_items,
)


class ExactStatus(Enum):
    FOUND = "found"
    PROVED_INFEASIBLE = "proved_infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


class ExactOutcome(_Record):
    __slots__ = ("status", "partition", "nodes")

    def __init__(self, status: ExactStatus, partition: Partition | None, nodes: int) -> None:
        _set(self, "status", status)
        _set(self, "partition", partition)
        _set(self, "nodes", nodes)

    @property
    def found(self) -> bool:
        return self.status is ExactStatus.FOUND


# Refuse blind full enumerations beyond this many raw item-to-bundle maps.
ENUMERATION_GUARD = 10**8


def _check_guard(inst: Instance, force: bool) -> None:
    """Raise ParseError when n^m exceeds the guard and ``force`` is not set."""
    if not force and inst.n**inst.m > ENUMERATION_GUARD:
        raise ParseError(
            f"n^m = {inst.n}^{inst.m} exceeds the enumeration guard; "
            "pass force=True (--force on the command line)"
        )


class _Searcher:
    """Iterative depth-first engine shared by the existence search and the enumerator.

    Depth d places the item ``order[d]``. Per-depth arrays hold the children
    still to try and what a placement overwrote, so undoing it is O(n) and the
    Python stack stays flat at any m. ``leaves`` yields every accepted leaf in
    DFS order, so the first one is the existence witness.
    """

    def __init__(self, inst: Instance, limits: SearchLimits):
        self.n = inst.n
        self.m = inst.m
        self.limits = limits
        # High-impact items first: descending total value, ties by index.
        self.order = order_items(inst, "desc-total-value")
        # cols[d][i]: agent i's value for the item assigned at depth d.
        self.cols = [[inst.values[i][j] for i in range(inst.n)] for j in self.order]
        # remaining[d][i]: agent i's value for the items at depths >= d;
        # top[d][i]: agent i's largest value among them (0 if none);
        # drops[d]: the agents whose top falls from depth d to d + 1. Depths
        # where no agent's top falls share one top list.
        agents = range(self.n)
        self.remaining = remaining = [[0] * self.n] * (self.m + 1)
        self.top = top = [[0] * self.n] * (self.m + 1)
        self.drops = drops = [()] * self.m
        for d in range(self.m - 1, -1, -1):
            col = self.cols[d]
            remaining[d] = [r + v for r, v in zip(remaining[d + 1], col)]
            below = top[d + 1]
            fell = [i for i in agents if col[i] > below[i]]
            if fell:
                top[d] = [v if v > u else u for u, v in zip(below, col)]
                drops[d] = fell
            else:
                top[d] = below
        self.assign = [0] * self.m
        self.nodes = 0

    def cover_table(self, i: int) -> tuple[list[int], list[int]]:
        """Agent i's values negated and sorted, and prefix masks of their depths.

        masks[t] has bit m - 1 - e set for the depths e of the agent's t most
        valued items, so ``masks[bisect_right(negs, -g)]`` holds the depths of
        the items worth at least g to it.
        """
        m = self.m
        row = [col[i] for col in self.cols]
        ranked = sorted(range(m), key=row.__getitem__, reverse=True)
        bits = [1 << (m - 1 - e) for e in ranked]
        return sorted(map(neg, row)), list(accumulate(bits, or_, initial=0))

    def current_partition(self) -> Partition:
        return Partition.from_labels(zip(self.order, self.assign), self.n)

    def leaves(self) -> Iterator[Partition]:
        """Every symEF1 leaf in DFS order; raises BudgetExceededError mid-walk."""
        n, m = self.n, self.m
        if m == 0:
            yield self.current_partition()
            return
        cols, remaining, assign = self.cols, self.remaining, self.assign
        top, drops = self.top, self.drops
        agents = range(n)
        node_budget = self.limits.node_budget
        time_budget = self.limits.time_budget
        deadline = time.monotonic() + time_budget
        # sums[i][k], maxes[i][k]: agent i's value of bundle k and of its best item.
        sums = [[0] * n for _ in agents]
        maxes = [[0] * n for _ in agents]
        # worst[i] = max_k (sums[i][k] - maxes[i][k]), a lower bound on its final value.
        worst = [0] * n
        sizes = [0] * n
        saved_max = [[0] * n for _ in range(m)]
        saved_worst = [[0] * n for _ in range(m)]
        used = [0] * m  # bundles 0..used[d]-1 are nonempty before depth d
        # plans[d] yields the surviving children of the node at depth d, in order,
        # as (bundle, the child's per-agent deficits, its per-bundle item counts),
        # closed by (-1, None, None). It counts every child it scores in nodes.
        plans: list = [None] * m

        tables = [None] * n  # cover_table(i), built on agent i's first cover query

        def raise_uncovered(d: int, need: list[int]) -> None:
            """Set need[b] = 2 where the cover test fails."""
            later = (1 << (m - 1 - d)) - 1  # the depths after d
            b = 0
            for c in need:
                if c == 1:
                    free = later
                    for i in agents:
                        y = sums[i][b]
                        w = worst[i]
                        if y < w:
                            table = tables[i]
                            if table is None:
                                table = tables[i] = self.cover_table(i)
                            negs, masks = table
                            free &= masks[bisect_right(negs, y - w)]
                            if not free:
                                need[b] = 2
                                break
                b += 1

        def score(d: int, kids: list[int], base: list[int], need: list[int]) -> Iterator:
            """Cut the node's children that fail a test; yield the rest in order.

            ``base[i]`` is the node's deficit sum_k max(0, worst_i - v_i(A_k)),
            and ``need[b]`` bundle b's item count max_i ceil((worst_i -
            v_i(A_b)) / top_i) at the node's own depth, or 2 where the cover
            test failed above. The node owns ``need``: before it scores the
            first child, it merges the drops into it and raises the entries
            that fail the cover test here.

            Each child is one node, counted and budget-tested before its
            tests, so a child that is cut counts as one that is placed.
            """
            nonlocal nodes, check
            col = cols[d]
            rem = remaining[d + 1]
            up = top[d + 1]
            for i in drops[d]:
                # Agent i's top falls for the children, so its terms only rise;
                # with no value left (u = 0) its deficit test cuts instead.
                w = worst[i]
                u = up[i]
                if w and u:
                    b = 0
                    for y in sums[i]:
                        if y < w:
                            q = -((y - w) // u)
                            if q > need[b]:
                                need[b] = q
                        b += 1
            if 1 in need:
                raise_uncovered(d, need)
            # A child in bundle k is cut once it needs more than room + need[k]
            # items there: the other bundles' entries only rise.
            room = m - d - 1 - sum(need)
            for k in kids:
                nodes += 1
                if nodes == check:
                    self.nodes = nodes
                    if nodes > node_budget:
                        raise BudgetExceededError(f"node budget {node_budget} exhausted")
                    if time.monotonic() > deadline:
                        raise BudgetExceededError(f"time budget {time_budget}s exhausted")
                    check = min(nodes + 4096, node_budget + 1)
                most = room + need[k]
                if most < 0:
                    continue
                deficits = []
                rising = None
                nk = 0
                for i in agents:
                    srow = sums[i]
                    x = srow[k]
                    v = col[i]
                    s = x + v
                    mx = maxes[i][k]
                    t = s - (v if v > mx else mx)
                    w = worst[i]
                    if t > w:
                        # worst_i rises to t, so every term changes: rescan.
                        # Bundle k adds nothing, before or after: t <= x <= s.
                        r = rem[i]
                        deficit = 0
                        for y in srow:
                            if y < t:
                                deficit += t - y
                                if deficit > r:
                                    break
                        if deficit > r:
                            break
                        if rising:
                            rising.append((i, t))
                        else:
                            rising = [(i, t)]
                    else:
                        # Only bundle k's term changes: max(0, w - x) becomes
                        # max(0, w - s).
                        deficit = base[i]
                        if s < w:
                            deficit -= v
                            # The deficit is positive and at most rem[i], so top_i > 0.
                            q = -((s - w) // up[i])
                            if q > nk:
                                nk = q
                                if q > most:
                                    break
                        else:
                            if x < w:
                                deficit -= w - x
                            if deficit > rem[i]:
                                break
                    deficits.append(deficit)
                else:
                    child = need.copy()
                    child[k] = nk
                    if rising:
                        # Merge the rising agents' terms last, once the child
                        # has passed every per-agent test (their bundle k term is 0).
                        over = nk - most
                        for i, t in rising:
                            u = up[i]
                            b = 0
                            for y in sums[i]:
                                if y < t:
                                    q = -((y - t) // u)
                                    if q > child[b]:
                                        over += q - child[b]
                                        child[b] = q
                                b += 1
                        if over > 0:
                            continue
                    yield k, deficits, child
            yield -1, None, None

        # check: the next count at which a budget can run out, the first past the
        # node budget or a multiple of 4096, where the clock is read.
        nodes = 0
        check = min(4096, node_budget + 1)
        plans[0] = score(0, [0], [0] * n, [0] * n)
        d = 0
        while True:
            k, deficits, need = next(plans[d])
            if k < 0:
                if d == 0:
                    self.nodes = nodes
                    return
                d -= 1
                k = assign[d]
                col = cols[d]
                sm = saved_max[d]
                sw = saved_worst[d]
                for i in agents:
                    sums[i][k] -= col[i]
                    maxes[i][k] = sm[i]
                    worst[i] = sw[i]
                sizes[k] -= 1
                continue
            assign[d] = k
            if d + 1 == m:
                self.nodes = nodes
                yield self.current_partition()
                continue
            col = cols[d]
            sm = saved_max[d]
            sw = saved_worst[d]
            for i in agents:
                v = col[i]
                srow = sums[i]
                s = srow[k] + v
                srow[k] = s
                mrow = maxes[i]
                mx = sm[i] = mrow[k]
                if v > mx:
                    mrow[k] = mx = v
                w = sw[i] = worst[i]
                if s - mx > w:
                    worst[i] = s - mx
            sizes[k] += 1
            u = used[d]
            d += 1
            u = used[d] = u + 1 if k == u else u
            # Emptiest bundle first, ties by index (sorted is stable); only the
            # first empty bundle may open, so each unordered partition shows once.
            kids = sorted(range(u + 1 if u < n else n), key=sizes.__getitem__)
            plans[d] = score(d, kids, deficits, need)


def exact_symef1(inst: Instance, limits: SearchLimits | None = None) -> ExactOutcome:
    """Decide symEF1 existence; complete within the given budgets.

    Two agents always have a symEF1 partition: when the search runs out of
    budget for n = 2, the answer is ``two_agent_partition(inst)``, the
    2-coloring of the conflict graph (a union of two matchings, so bipartite),
    and ``nodes`` is the search's count.
    """
    searcher = _Searcher(inst, limits or SearchLimits())
    try:
        partition = next(searcher.leaves(), None)
    except BudgetExceededError:
        if inst.n != 2:
            return ExactOutcome(ExactStatus.BUDGET_EXCEEDED, None, searcher.nodes)
        from .constructive import two_agent_partition

        partition = two_agent_partition(inst)
    if partition is None:
        return ExactOutcome(ExactStatus.PROVED_INFEASIBLE, None, searcher.nodes)
    if not is_symef1(inst, partition):
        raise RuntimeError(
            f"search returned a partition that is not symEF1 (n={inst.n}, m={inst.m})"
        )
    return ExactOutcome(ExactStatus.FOUND, partition, searcher.nodes)


def enumerate_symef1(
    inst: Instance, limits: SearchLimits | None = None, force: bool = False
) -> set[Partition]:
    """All symEF1 partitions as canonical forms; exhaustive or an exception.

    Refuses instances with n^m beyond the guard unless ``force`` is set;
    raises :class:`BudgetExceededError` when a budget runs out mid-search.
    """
    _check_guard(inst, force)
    searcher = _Searcher(inst, limits or SearchLimits())
    return {canonical_partition(p) for p in searcher.leaves()}


def canonical_partition(partition: Partition) -> Partition:
    """Order-free form: bundles sorted by smallest element, empty bundles last."""
    nonempty = sorted((b for b in partition.bundles if b), key=min)
    empties = len(partition.bundles) - len(nonempty)
    return Partition(tuple(nonempty) + (frozenset(),) * empties)


def naive_enumerate_symef1(inst: Instance) -> set[Partition]:
    """Independent oracle: walk every item-to-bundle map, no pruning or symmetry.

    Kept deliberately separate from the search engine so the two can check
    each other; only the canonical form helper is shared.
    """
    n, m = inst.n, inst.m
    values = inst.values
    out: set[Partition] = set()
    assignment = [0] * m
    sums = [[0] * n for _ in range(n)]
    maxes = [[0] * n for _ in range(n)]
    # saved[j][i]: maxes[i][assignment[j]] before item j went in.
    saved = [[0] * n for _ in range(m)]

    def leaf_ok() -> bool:
        for i in range(n):
            row = sums[i]
            mrow = maxes[i]
            worst = max(row[l] - mrow[l] for l in range(n))
            if min(row) < worst:
                return False
        return True

    def place(j: int, k: int) -> None:
        assignment[j] = k
        for i in range(n):
            v = values[i][j]
            sums[i][k] += v
            saved[j][i] = maxes[i][k]
            if v > maxes[i][k]:
                maxes[i][k] = v

    def unplace(j: int) -> None:
        k = assignment[j]
        for i in range(n):
            sums[i][k] -= values[i][j]
            maxes[i][k] = saved[j][i]

    # Odometer over item-to-bundle maps; items leave in reverse order of
    # entry, so each restores the bundle maxima it found.
    for j in range(m):
        place(j, 0)
    while True:
        if leaf_ok():
            bundles = [set() for _ in range(n)]
            for item, k in enumerate(assignment):
                bundles[k].add(item)
            out.add(canonical_partition(Partition(tuple(frozenset(b) for b in bundles))))
        j = m - 1
        while j >= 0 and assignment[j] == n - 1:
            unplace(j)
            j -= 1
        if j < 0:
            return out
        unplace(j)
        place(j, assignment[j] + 1)
        for t in range(j + 1, m):
            place(t, 0)


def max_nash_welfare(
    inst: Instance, limits: SearchLimits | None = None, force: bool = False
) -> Assignment:
    """Exhaustive maximum Nash welfare over item-to-agent assignments.

    Primary objective is the number of agents with positive value, secondary
    the product over those agents, so giving everything to one agent never
    beats serving two. Ties go to the lexicographically smallest assignment
    vector (agent index per item, items in natural order).
    """
    _check_guard(inst, force)
    n, m = inst.n, inst.m
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.time_budget
    values = inst.values
    # Odometer over assignment vectors in lexicographic order, from all zeros.
    assignment = [0] * m
    totals = [0] * n
    totals[0] = sum(values[0])
    # Every key is at least (0, 1), so the first leaf replaces this start.
    best_key = (-1, 0)
    best_assignment: list[int] = []
    leaves = 0
    while True:
        leaves += 1
        if leaves > limits.node_budget:
            raise BudgetExceededError(f"node budget {limits.node_budget} exhausted")
        if leaves % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError(f"time budget {limits.time_budget}s exhausted")
        served = sum(1 for t in totals if t > 0)
        product = math.prod(t for t in totals if t > 0)
        key = (served, product)
        if key > best_key:
            best_key = key
            best_assignment = assignment.copy()
        j = m - 1
        while j >= 0 and assignment[j] == n - 1:
            totals[n - 1] -= values[n - 1][j]
            totals[0] += values[0][j]
            assignment[j] = 0
            j -= 1
        if j < 0:
            break
        a = assignment[j]
        totals[a] -= values[a][j]
        totals[a + 1] += values[a + 1][j]
        assignment[j] = a + 1
    partition = Partition.from_labels(enumerate(best_assignment), n)
    return Assignment(partition, tuple(range(n)))


def export_ip(inst: Instance) -> str:
    """CPLEX-LP text of the symEF1 feasibility program.

    Binary x_<k>_<j> puts item j in bundle k; binary y_<i>_<j>_<l> lets agent i
    discount item j when eyeing bundle l. Rows: each item in exactly one
    bundle; at most one discounted item per (agent, bundle); discounts only on
    present items; and for every agent and ordered bundle pair k != l, bundle k
    must be worth at least bundle l minus the discounted item. Indices are
    1-based. The objective is the constant 0: any feasible point is an answer.
    """
    n, m = inst.n, inst.m
    agents, items = range(1, n + 1), range(1, m + 1)
    lines = ["Minimize", " obj: 0 x_1_1" if m else " obj:", "Subject To"]
    if m:
        for j in items:
            terms = " + ".join(f"x_{k}_{j}" for k in agents)
            lines.append(f" assign_{j}: {terms} = 1")
        for i in agents:
            for l in agents:
                terms = " + ".join(f"y_{i}_{j}_{l}" for j in items)
                lines.append(f" cap_{i}_{l}: {terms} <= 1")
        for i in agents:
            for j in items:
                for l in agents:
                    lines.append(f" link_{i}_{j}_{l}: y_{i}_{j}_{l} - x_{l}_{j} <= 0")
        for i, row in zip(agents, inst.values):
            for k in agents:
                for l in agents:
                    if k == l:
                        continue
                    # An agent who values nothing still gets a row with a term.
                    body = " ".join(
                        f"+ {v} x_{k}_{j} - {v} x_{l}_{j} + {v} y_{i}_{j}_{l}"
                        for j, v in zip(items, row)
                        if v
                    ) or f"+ 0 x_{k}_1"
                    lines.append(f" ef1_{i}_{k}_{l}: {body.lstrip('+ ')} >= 0")
        lines.append("Binary")
        lines.extend(f" x_{k}_{j}" for k in agents for j in items)
        lines.extend(f" y_{i}_{j}_{l}" for i in agents for j in items for l in agents)
    lines.append("End")
    return "\n".join(lines) + "\n"
