"""Greedy construction of symEF1 partitions by guarded local moves.

Items are offered one at a time to a partial partition that is kept symEF1
over the allocated items after every accepted move. For each item three
escalating repairs are tried, committing the first that keeps the invariant:

  case 1  insert the item into some bundle;
  case 2  relocate one allocated item to another bundle, then insert;
  case 3  swap two allocated items across bundles, then insert.

Pending items wait in one queue: a rejected item goes to the back, so it is
retried once the partition has changed. The procedure is incomplete: some
reachable states admit no single-swap repair even though a symEF1 completion
exists, and then the result reports failure rather than an answer.

Bundles, donor/recipient pairs, and swap candidates are scanned in ascending
index order, so runs are reproducible for a fixed item order.

Cost model. The partial partition lives in a ``_Table`` that keeps, for every
(agent, bundle), the bundle's sum and its two largest item values (as a
multiset, so a tied best item appears twice). A move touches at most two
bundles k and l, so whether it keeps symEF1 depends, per agent, only on the
new sums and maxima of k and l and on two numbers over the other bundles: the
smallest sum and the largest (sum - best item). Those two are computed once
per bundle pair and state, and every candidate insert, relocation or swap is
then scored in O(1) per agent without touching the table, stopping at the
first agent it fails. Only the accepted move is applied: an insert costs
O(n), and a removal rescans a bundle for one agent only when the removed item
was one of that agent's two largest in it. The run stops after a full round
of the queue places nothing: every pending item then failed all three repairs
in the current state, which would reject it again.

Pair bound. A relocation or swap for item j between bundles k and l scans
|A_k| * |A_l| candidates (|A_l| = 1 for a relocation), and on large bundles
most pairs reject them all. Fix an agent; s, best and W = s - best are its
values of the bundles now, lo its smallest sum over the other bundles and v
its value of j. An accepted move leaves both new W's at most lo, so their sum
is at most 2 lo. The two new sums add up to s_k + s_l + v. Bundle l's new
best item is at most big = max(best_k, best_l). Bundle k's is at most
max(top, v), with top = best_k for a relocation (k only loses an item besides
gaining j) and top = big for a swap. So the two new W's sum to at least
s_k + s_l + v - max(top, v) - big, and with slack = s_k + s_l - big - 2 lo,
every candidate of the pair fails once max(top, v) - v < slack, that is, once
slack > 0 and v > top - slack. An agent with slack > 0 thus gives the pair a
gate (row, top - slack), and the pair is skipped for j when row[j] exceeds
one of its gates. The gates are built once per pair and state, with the
pair's other constants, and cost one comparison each per item. With two
agents there is no other bundle (lo is infinite), so there are no gates. The
bound skips only pairs with no accepted candidate, so the first accepted move
is the one a full scan finds.

Relabeled moves. Whether a move is accepted depends only on the bundles it
leaves, as a multiset: the test is the smallest sum against the largest W
over all of them. So a move that leaves the same bundles as a move already
rejected for j in the same state is rejected too. In four classes of bundle
pairs (k, l) every move is such a repeat, and the exchange loop skips them
before it builds the pair (a_k is the item of a one-item bundle k):

  relocation, |A_k| = |A_l| = 1, l < k: leaves {j}, {a_k, a_l}, as the
      relocation of the pair (l, k) did earlier in the scan;
  swap, |A_k| = |A_l| = 1: leaves {j, a_l}, {a_k}, as the insert of j into l;
  swap, |A_k| = 1, A_l = {x, y}: swapping a_k with x leaves {j, x}, {a_k, y},
      as relocating y from l to k and putting j into l;
  swap, |A_k| = |A_l| = 2, l < k: leaves what the swap of the pair (l, k)
      with the partner items exchanged did earlier in the scan.

The swap classes repeat moves of cases 1 and 2, so ``try_swap`` may skip
them only once ``try_insert`` and ``try_relocate`` have rejected j in this
state, the order ``extend_allocation`` tries them in. Case 1 rejecting j also
means that no bundle is empty when an exchange runs, since an empty bundle
accepts any insert; with an empty bundle, relocating a one-item bundle's item
into it would repeat an insert too, a fifth class that never arises. A test
on random states of 2-5 nonempty bundles finds that every move of the four
classes repeats one scanned before it and that no other move does, so the
first accepted move is the one a full scan finds.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import product
from typing import Iterable, Sequence

from .core import Instance, Partition, _first_violation, _Record, _set

_INF = float("inf")


class HeuristicStats(_Record):
    """How many items each repair placed; ``HeuristicResult.found`` says whether all were."""

    __slots__ = ("placed_case1", "placed_case2", "placed_case3")

    def __init__(
        self, placed_case1: int = 0, placed_case2: int = 0, placed_case3: int = 0
    ) -> None:
        _set(self, "placed_case1", placed_case1)
        _set(self, "placed_case2", placed_case2)
        _set(self, "placed_case3", placed_case3)

    def placed_total(self) -> int:
        return self.placed_case1 + self.placed_case2 + self.placed_case3


class HeuristicResult(_Record):
    __slots__ = ("partition", "stats")

    def __init__(self, partition: Partition | None, stats: HeuristicStats) -> None:
        _set(self, "partition", partition)
        _set(self, "stats", stats)

    @property
    def found(self) -> bool:
        return self.partition is not None


class _Table:
    """Partial symEF1 partition with per-(agent, bundle) sum, best and second-best value.

    ``bundles[k]`` lists bundle k's items in ascending order, the order the
    exchange loop scans them in. ``sums[i][k]``, ``best[i][k]`` and
    ``second[i][k]`` describe bundle k as agent i values it; an empty bundle
    has all three 0. The ``try_*`` methods score every candidate of one repair
    case in scan order and commit the first that keeps the partition symEF1,
    or leave the table unchanged.

    Scoring assumes the table is symEF1 before the move, which every accepted
    move preserves; the conditions that this invariant already guarantees
    (for instance that a bundle gaining an item still covers every other
    bundle's sum minus its best item) are not re-tested. With W = sum - best,
    the state after a move is symEF1 iff, for every agent, the smallest sum is
    at least the largest W, over the touched bundles and the untouched rest.

    Each row ends in a phantom item m that every agent values at 0, so a
    relocation is scored as a swap whose partner is the phantom, and one
    exchange loop serves cases 2 and 3; the phantom never enters a bundle.
    """

    __slots__ = (
        "rows", "n", "m", "bundles", "sums", "best", "second", "_ext", "_pairs",
    )

    def __init__(self, inst: Instance, bundles: Sequence[Iterable[int]]):
        self.rows = [row + (0,) for row in inst.values]
        self.n = n = inst.n
        self.m = inst.m
        self.bundles = [sorted(b) for b in bundles]
        if len(self.bundles) != n:
            raise ValueError("need exactly one bundle per agent")
        self.sums = [[0] * n for _ in range(n)]
        self.best = [[0] * n for _ in range(n)]
        self.second = [[0] * n for _ in range(n)]
        # An empty bundle's row entries are already 0; the greedy builder
        # starts with every bundle empty.
        for k, bundle in enumerate(self.bundles):
            if bundle:
                for i in range(n):
                    self._rescan(i, k)
        self._ext: list[tuple] | None = None
        self._pairs: dict[tuple[int, int], tuple] = {}

    def _rescan(self, i: int, k: int) -> None:
        row = self.rows[i]
        total = b1 = b2 = 0
        for j in self.bundles[k]:
            v = row[j]
            total += v
            if v > b1:
                b1, b2 = v, b1
            elif v > b2:
                b2 = v
        self.sums[i][k] = total
        self.best[i][k] = b1
        self.second[i][k] = b2

    def to_partition(self) -> Partition:
        return Partition.of(*self.bundles)

    # -- committing ---------------------------------------------------------

    def _add(self, k: int, j: int) -> None:
        insort(self.bundles[k], j)
        for i in range(self.n):
            v = self.rows[i][j]
            self.sums[i][k] += v
            best, second = self.best[i], self.second[i]
            if v > best[k]:
                second[k] = best[k]
                best[k] = v
            elif v > second[k]:
                second[k] = v

    def _remove(self, k: int, j: int) -> None:
        self.bundles[k].remove(j)
        for i in range(self.n):
            v = self.rows[i][j]
            if v >= self.second[i][k]:
                self._rescan(i, k)
            else:
                self.sums[i][k] -= v

    def _commit(self, k: int, j: int, moves: Sequence[tuple[int, int, int]] = ()) -> None:
        """Apply ``moves`` as (item, from bundle, to bundle), then insert j into k."""
        for item, src, dst in moves:
            self._remove(src, item)
        for item, src, dst in moves:
            self._add(dst, item)
        self._add(k, j)
        self._ext = None
        self._pairs.clear()

    # -- per-state constants ------------------------------------------------

    def _extremes(self) -> list[tuple]:
        """Per agent: (row, sums, best, (sum, bundle) ascending, (W, bundle) descending).

        Each list ends in a sentinel, (infinity, -1) or (0, -1), so a scan that
        skips the touched bundles always stops within three entries."""
        if self._ext is None:
            bundles = range(self.n)
            self._ext = [
                (
                    row, s, b,
                    sorted(zip(s, bundles)) + [(_INF, -1)],
                    sorted(zip([x - y for x, y in zip(s, b)], bundles), reverse=True) + [(0, -1)],
                )
                for row, s, b in zip(self.rows, self.sums, self.best)
            ]
        return self._ext

    def _pair(self, k: int, l: int) -> tuple[list[tuple], tuple[list[tuple], list[tuple]]]:
        """(consts, (relocation gates, swap gates)) of the bundle pair (k, l) in this state.

        consts holds per agent (row, sum_k, best_k, second_k, sum_l, best_l,
        second_l, lo, hi), where lo is the smallest sum and hi the largest W
        over the bundles other than k and l (infinity and 0 when there are
        none; W is never negative). A gate (row, t) rules out every candidate
        of the pair for an item j with row[j] > t (module docstring).
        """
        cached = self._pairs.get((k, l))
        if cached is None:
            consts: list[tuple] = []
            relocate: list[tuple] = []
            swap: list[tuple] = []
            for (row, s, b, lows, highs), c in zip(self._extremes(), self.second):
                for lo, x in lows:
                    if x != k and x != l:
                        break
                for hi, x in highs:
                    if x != k and x != l:
                        break
                sk, bk, sl, bl = s[k], b[k], s[l], b[l]
                consts.append((row, sk, bk, c[k], sl, bl, c[l], lo, hi))
                big = bk if bk > bl else bl
                slack = sk + sl - big - 2 * lo
                if slack > 0:
                    relocate.append((row, bk - slack))
                    swap.append((row, big - slack))
            cached = self._pairs[k, l] = (consts, (relocate, swap))
        return cached

    # -- the three repairs --------------------------------------------------

    def try_insert(self, j: int) -> bool:
        """Case 1: put j into the first bundle that stays symEF1."""
        cols = [(row[j], s, b, min(s)) for row, s, b in zip(self.rows, self.sums, self.best)]
        for k in range(self.n):
            for v, s, b, lo in cols:
                top = b[k]
                # Only bundle k changes. Its new W is at most its old sum, so it
                # fits under every new sum iff it fits under the old smallest.
                if s[k] + v - (v if v > top else top) > lo:
                    break
            else:
                self._commit(k, j)
                return True
        return False

    def try_relocate(self, j: int) -> bool:
        """Case 2: move one item of bundle k to bundle l, then put j into k."""
        return self._exchange(j, False)

    def try_swap(self, j: int) -> bool:
        """Case 3: swap an item of bundle k with one of bundle l, then put j into k.

        Call it only after ``try_insert`` and ``try_relocate`` rejected j in
        this state: it skips the swaps that give the bundles of their moves.
        """
        return self._exchange(j, True)

    def _exchange(self, j: int, swap: bool) -> bool:
        """Move jk from bundle k to l and jl from l to k, then put j into k.

        jl is an item of bundle l for a swap and the phantom for a relocation.
        Assumes that case 1, and for a swap case 2, already rejected j in this
        state: the pairs whose every move gives the bundles of such a move, or
        of one earlier in this scan, are skipped (module docstring).
        """
        n = self.n
        phantom = (self.m,)
        sizes = [len(b) for b in self.bundles]
        for k in range(n):
            items_k = self.bundles[k]
            size_k = sizes[k]
            for l in range(n):
                if l == k:
                    continue
                size_l = sizes[l]
                # Every move of these pairs leaves the bundles of one already
                # rejected (module docstring, relabeled moves).
                if swap and size_k == 1 and size_l <= 2 or size_k == size_l == 1 + swap and l < k:
                    continue
                items_l = self.bundles[l] if swap else phantom
                consts, gates = self._pair(k, l)
                # An item above one of the pair's gates fails every candidate.
                for row, t in gates[swap]:
                    if row[j] > t:
                        break
                else:
                    for jk in items_k:
                        for jl in items_l:
                            for row, sk, b1k, b2k, sl, b1l, b2l, lo, hi in consts:
                                v = row[j]
                                a = row[jk]
                                b = row[jl]
                                sk2 = sk - a + v + b
                                top = b2k if a == b1k else b1k
                                if v > top:
                                    top = v
                                wk = sk2 - (b if b > top else top)
                                sl2 = sl - b + a
                                top = b2l if b == b1l else b1l
                                wl = sl2 - (a if a > top else top)
                                if (sk2 < wl or sk2 < hi or sl2 < wk or sl2 < hi
                                        or lo < wk or lo < wl):
                                    break
                            else:
                                moves = ((jk, k, l),) if jl == self.m else ((jk, k, l), (jl, l, k))
                                self._commit(k, j, moves)
                                return True
        return False


def extend_allocation(
    inst: Instance,
    bundles: Sequence[Iterable[int]],
    pending: Sequence[int],
) -> HeuristicResult:
    """Run the repair loop from a given partial state.

    The starting bundles must already be symEF1 over their items; ``pending``
    lists the unallocated items in the order they will be offered. Stats count
    only items placed here.
    """
    bundles = [list(b) for b in bundles]
    pending = list(pending)
    if sorted([j for b in bundles for j in b] + pending) != list(range(inst.m)):
        raise ValueError("bundles plus pending must partition the item set")
    table = _Table(inst, bundles)
    # Empty bundles are trivially symEF1, so a start from scratch skips the scan.
    pairs = product(range(inst.n), repeat=2)
    if any(bundles) and _first_violation(inst.values, table.bundles, max, pairs) is not None:
        raise ValueError("starting bundles are not symEF1 over their items")

    case1 = case2 = case3 = 0
    queue = deque(pending)
    misses = 0  # items rejected since the last placement
    while misses < len(queue):
        j = queue.popleft()
        if table.try_insert(j):
            case1 += 1
        elif table.try_relocate(j):
            case2 += 1
        elif table.try_swap(j):
            case3 += 1
        else:
            queue.append(j)
            misses += 1
            continue
        misses = 0

    stats = HeuristicStats(case1, case2, case3)
    return HeuristicResult(None if queue else table.to_partition(), stats)


def greedy_symef1(inst: Instance, item_order: Sequence[int] | None = None) -> HeuristicResult:
    """Build a symEF1 partition greedily from scratch, or report failure.

    ``item_order`` (by index when None) must be a permutation of the items;
    ``extend_allocation`` raises ValueError otherwise.
    """
    order = range(inst.m) if item_order is None else item_order
    return extend_allocation(inst, [()] * inst.n, order)
