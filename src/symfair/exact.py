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

Child order. A node scores its children emptiest bundle first, ties by
index, and tries the survivors by ascending deficit sum_i D_i (D_i below),
ties in that scoring order: the child closest to symEF1 goes first, the
succeed-first value order of constraint-satisfaction backtracking. The
deficit is a function of the child's state, which the per-agent tests
compute anyway, so the order costs one sum per survivor and one sort per
node. It cuts nothing: the tests see the child's state alone, not the path
to it, so every child is scored and cut as in any other order, a proof of
infeasibility scores the same children, and enumeration lists the same
set. What moves is the order of the accepted leaves, and so the first
witness. A survivor with deficit 0 goes at once, before its later siblings
are scored: deficits are nonnegative, so it comes first anyway. The others
wait for the node's last child. Were the zero-deficit ones to wait too,
every node on the path to the first witness would score all its children
before it descends; going at once keeps the time to the first witness, and
what small budgets decide, close to the scoring order's. A leaf survives
only with deficit 0, so it is yielded as soon as it is scored.

The prune only cuts subtrees, and each unordered partition is a leaf at
most once. The order puts the surviving children of a node in a fixed
order of their states, so cutting a child that has no accepted leaf below
it leaves the others' order as it was: the accepted leaves come in the
order of a walk without the prune. When the enumerated set equals the
naive oracle's, no symEF1 partition was cut, so both walks accept the same
leaves in the same order and return the same first witness.

Cost model. A node's children are the nonempty bundles and the first empty
one, emptiest first, ties by index: a list that depends on the bundle sizes
alone. On entry a node takes it from a per-search table keyed by its sizes,
which sorts it at the first node of each shape; a search meets few shapes
(at most 498 in a frontier-pool search, 2 485 in the first 10^6 nodes of a
uniform 8x80 draw). It
scores each child when the walk is back at the node, so from the node's own
bundle sums and maxima. It holds, per agent, worst_i and the deficit
D_i = sum_k max(0, worst_i - v_i(A_k)) that its parent computed. A child that
puts the item in bundle k and leaves worst_i where it is changes only bundle
k's term, in O(1); one that raises worst_i to W rescans the n bundle values
once (bundle k's own term is 0 before and after, as W is at most its old
value). Agents are tested in order and a child is cut at the first one that
fails. Only the surviving children are placed and later undone, and each
passes its deficits down as its own D_i, so no node recomputes them. A
survivor that raises some worst_i gets its own copy of the list with those
entries raised; the others share their node's, and no list changes once
made, so undoing a child restores only its bundle's sums and maxima.

Each node also holds the need_b of its bundles, which its parent computed.
top[d] (top over the items at depths >= d) and drops[d] (the agents whose top
falls from depth d to d + 1) are built once per search, with the suffix sums.
A node at depth d scores children that see top[d + 1], so on entry it merges
the terms of the drops[d] agents into its counts by maximum: their top
falls, so their terms only rise. An agent whose top falls to 0 is skipped:
a child that leaves one of its bundles short fails its deficit test, and a
child that fills its one short bundle k gets entry k recomputed. A child's
entry k is the maximum over the agents whose worst_i stays of
ceil((worst_i - s) / top_i). The child is cut as soon as that entry pushes
the sum past left, and before any test when the other entries already do.
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
left. A query costs one binary search and one AND per short agent. Every
agent's table, built once per search with top and drops, lists its values
sorted with prefix bitmasks of their depths, so the items worth at least g_i
to it are one prefix mask; b fails when the AND of these masks over its
short agents and the mask of the depths after d is 0.

The search runs one kernel per agent count: ``_kernel(n)`` writes out the
template ``_LEAVES`` (the walk and ``score``) for agents 0..n-1, compiles it
at the first search with n agents and keeps it for the process. Each
per-agent step is written once per agent: the child test (the rise and its
rescan, the deficit, the item count, the cut), placing and undoing a child,
and the cover query. A node unpacks its item's values, worst_i, its
deficits, R_i and top_i into locals on entry, and a search binds each
agent's sums and maxima rows and its cover table to names, so no per-agent
step indexes a per-agent list and a survivor builds its deficit list once.
The loops over bundles stay loops: the rescans, the drops merge and the
rising merge. The agents' blocks follow one another, never nest, so every n
compiles. A build takes about 2-7 ms of CPU for n <= 10, 42 ms at n = 100
and 0.38 s (132 MB peak RSS) at n = 1000 (Python 3.11).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from enum import Enum
from functools import cache
from itertools import accumulate
from operator import itemgetter, or_
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
    DFS order, each node's children in the child order, so the first one is
    the existence witness.
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
        # drops[d]: the agents whose top falls from depth d to d + 1.
        agents = range(self.n)
        self.remaining = remaining = [[0] * self.n] * (self.m + 1)
        self.top = top = [[0] * self.n] * (self.m + 1)
        self.drops = drops = [()] * self.m
        for d in range(self.m - 1, -1, -1):
            col = self.cols[d]
            remaining[d] = [r + v for r, v in zip(remaining[d + 1], col)]
            below = top[d + 1]
            drops[d] = [i for i in agents if col[i] > below[i]]
            top[d] = [v if v > u else u for u, v in zip(below, col)]
        # tables[i]: agent i's cover_table.
        self.tables = [self.cover_table(i) for i in agents]
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
        return [-row[e] for e in ranked], list(accumulate(bits, or_, initial=0))

    def current_partition(self) -> Partition:
        return Partition.from_labels(zip(self.order, self.assign), self.n)

    def leaves(self) -> Iterator[Partition]:
        """Every symEF1 leaf in DFS order; raises BudgetExceededError mid-walk.

        The walk is this n's search kernel (``_kernel``), built from ``_LEAVES``.
        """
        return _kernel(self.n)(self)


# The source of _Searcher.leaves, the walk and its node scorer ``score``, for
# any agent count. ``_expand`` writes the lines between "# for each agent {i}:"
# and "# end for each agent" once per agent, and each ``$(...)`` as a list of
# its text for every agent, ``{i}`` the agent's index in both. Agent i's
# values live in locals: S{i} and M{i} are its rows of sums and maxes; in
# ``score``, c{i} is its value of the node's item, w{i}, b{i}, r{i} and u{i}
# its worst_i, deficit, R_i and top_i as the children see them, and e{i}
# a child's deficit; in the walk, p{i} is the best value an undo restores.
_LEAVES = '''
def leaves(self):
    n, m = self.n, self.m
    if m == 0:
        yield self.current_partition()
        return
    cols, remaining, assign = self.cols, self.remaining, self.assign
    top, drops = self.top, self.drops
    budget = self.limits.start()
    # sums[i][k] = S{i}[k], M{i}[k]: agent i's value of bundle k and of its best item.
    sums = [[0] * n for _ in range(n)]
    $(S{i}) = sums
    $(M{i}) = [[0] * n for _ in range(n)]
    sizes = [0] * n
    # saved_max[d]: each agent's best value in the bundle that item d entered, before it.
    saved_max = [None] * m
    # plans[d] yields the surviving children of the node at depth d, in the
    # child order (module docstring), as (bundle, the child's worst_i, its
    # per-agent deficits, its per-bundle item counts).
    plans: list = [None] * m
    # shapes[tuple(sizes)]: the child list of every node with those bundle sizes.
    shapes: dict = {}
    # negs{i}, masks{i}: agent i's cover table.
    # for each agent {i}:
    negs{i}, masks{i} = self.tables[{i}]
    # end for each agent

    def score(d, worst, base, need):
        """Cut the node's children that fail a test; yield the rest by deficit.

        ``worst[i]`` is the node's worst_i = max_k (v_i(A_k) - max_i(A_k)),
        in a list that its parent and siblings may share, so no node
        changes it; ``base[i]`` is its deficit sum_k max(0, worst_i -
        v_i(A_k)), and ``need[b]`` bundle b's item count max_i
        ceil((worst_i - v_i(A_b)) / top_i) at the node's own depth, or 2
        where the cover test failed above. On entry the node
        takes its child list from ``shapes``, keyed by ``sizes``: the
        nonempty bundles and the first empty one, emptiest first, ties by
        index, sorted at the first node of that shape. It owns ``need``:
        before it scores the first child, it merges the drops into it and
        raises the entries that fail the cover test here.

        Each child is one node, counted and budget-tested before its
        tests, so a child that is cut counts as one that is placed. A
        survivor whose deficits are all 0 is yielded at once; the others
        wait for the last child and go by ascending deficit sum, ties in
        the order they were scored.
        """
        nonlocal nodes, check
        shape = tuple(sizes)
        kids = shapes.get(shape)
        if kids is None:
            u = n - sizes.count(0)  # bundles open in index order; sorted is stable
            kids = sorted(range(u + 1 if u < n else n), key=sizes.__getitem__)
            shapes[shape] = kids
        $(c{i}) = cols[d]
        $(w{i}) = worst
        $(b{i}) = base
        $(r{i}) = remaining[d + 1]
        up = top[d + 1]
        $(u{i}) = up
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
            # The cover test (module docstring): need[b] = 2 where it fails.
            later = (1 << (m - 1 - d)) - 1  # the depths after d
            b = 0
            for c in need:
                if c == 1:
                    free = later
                    # for each agent {i}:
                    if free and (y := S{i}[b]) < w{i}:
                        free &= masks{i}[bisect_right(negs{i}, y - w{i})]
                    # end for each agent
                    if not free:
                        need[b] = 2
                b += 1
        # A child in bundle k is cut once it needs more than room + need[k]
        # items there: the other bundles' entries only rise.
        room = m - d - 1 - sum(need)
        late = []
        for k in kids:
            nodes += 1
            if nodes == check:
                self.nodes = nodes
                check = budget(nodes)
            most = room + need[k]
            if most < 0:
                continue
            rising = None
            nk = 0
            # Each agent's tests in turn, where "continue" cuts the child. If
            # worst_i rises to t, every term changes: rescan (bundle k adds
            # nothing, before or after: t <= x <= s). Otherwise only bundle
            # k's term changes, max(0, w - x) becomes max(0, w - s), and a
            # deficit that stays positive is at most r{i}, so u{i} > 0.
            # for each agent {i}:
            x = S{i}[k]
            s = x + c{i}
            mx = M{i}[k]
            t = s - (c{i} if c{i} > mx else mx)
            if t > w{i}:
                e{i} = 0
                for y in S{i}:
                    if y < t:
                        e{i} += t - y
                        if e{i} > r{i}:
                            break
                if e{i} > r{i}:
                    continue
                if rising:
                    rising.append(({i}, t))
                else:
                    rising = [({i}, t)]
            else:
                e{i} = b{i}
                if s < w{i}:
                    e{i} -= c{i}
                    q = -((s - w{i}) // u{i})
                    if q > nk:
                        if q > most:
                            continue
                        nk = q
                else:
                    if x < w{i}:
                        e{i} -= w{i} - x
                    if e{i} > r{i}:
                        continue
            # end for each agent
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
                raised = worst.copy()
                for i, t in rising:
                    raised[i] = t
            else:
                raised = worst
            deficits = [$(e{i})]
            total = sum(deficits)
            if total:
                late.append((total, k, raised, deficits, child))
            else:
                yield k, raised, deficits, child
        if len(late) > 1:
            late.sort(key=itemgetter(0))  # stable: ties keep the scoring order
        for _, k, raised, deficits, child in late:
            yield k, raised, deficits, child

    nodes, check = 0, budget(0)  # check: the next count to test the budgets at
    plans[0] = score(0, [0] * n, [0] * n, [0] * n)
    d = 0
    while True:
        step = next(plans[d], None)
        if step is None:
            if d == 0:
                self.nodes = nodes
                return
            d -= 1
            k = assign[d]
            $(c{i}) = cols[d]
            $(p{i}) = saved_max[d]
            # for each agent {i}:
            S{i}[k] -= c{i}
            M{i}[k] = p{i}
            # end for each agent
            sizes[k] -= 1
            continue
        k, worst, deficits, need = step
        assign[d] = k
        if d + 1 == m:
            self.nodes = nodes
            yield self.current_partition()
            continue
        $(c{i}) = cols[d]
        saved_max[d] = $(M{i}[k])
        # for each agent {i}:
        S{i}[k] += c{i}
        if c{i} > M{i}[k]:
            M{i}[k] = c{i}
        # end for each agent
        sizes[k] += 1
        d += 1
        plans[d] = score(d, worst, deficits, need)
'''


def _expand(template: str, n: int) -> str:
    """``template`` with its per-agent parts written out for agents 0..n-1.

    A ``$(...)`` list ends in a comma, so one agent gives a one-name unpack.
    """
    agents = [str(i) for i in range(n)]
    out: list[str] = []
    block = None
    for line in template.splitlines():
        marker = line.strip()
        if marker == "# for each agent {i}:":
            block = []
        elif marker == "# end for each agent":
            out += [part.replace("{i}", i) for i in agents for part in block]
            block = None
        elif block is not None:
            block.append(line)
        else:
            out.append(re.sub(r"\$\((.*?)\)",
                              lambda g: ", ".join(g[1].replace("{i}", i) for i in agents) + ",",
                              line))
    return "\n".join(out) + "\n"


@cache
def _kernel(n: int):
    """_Searcher.leaves for n agents, compiled at the first search with n agents.

    The kernel reads this module's globals (``bisect_right``, ``itemgetter``).
    """
    scope: dict = {}
    exec(compile(_expand(_LEAVES, n), f"<exact kernel n={n}>", "exec"), globals(), scope)
    return scope["leaves"]


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
    vector (agent index per item, items in natural order). Each leaf is one
    node of ``limits`` (default :class:`SearchLimits`, which states the rule).
    """
    _check_guard(inst, force)
    n, m = inst.n, inst.m
    budget = (limits or SearchLimits()).start()
    values = inst.values
    # Odometer over assignment vectors in lexicographic order, from all zeros.
    assignment = [0] * m
    totals = [0] * n
    totals[0] = sum(values[0])
    # Every key is at least (0, 1), so the first leaf replaces this start.
    best_key = (-1, 0)
    best_assignment: list[int] = []
    leaves, check = 0, budget(0)
    while True:
        leaves += 1
        if leaves == check:
            check = budget(leaves)
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
