import random
from typing import Iterable, Sequence

import pytest

import symfair as sf
from symfair import sim
from symfair.core import Instance, Partition
from symfair.heuristic import HeuristicStats, _Table
from helpers import lab, rand_instance, single_swap_trap, three_agent_blocker

TRAP = single_swap_trap()
TRAP_PARTIAL = [lab("abcd", "abcdefghj"), lab("efgh", "abcdefghj")]
REPAIRS = (_Table.try_insert, _Table.try_relocate, _Table.try_swap)


# ---------------------------------------------------------------------------
# Reference builder for the equivalence test: the straightforward
# mutate/check/undo implementation, which applies every candidate move, runs
# the O(n^2) symEF1 test and undoes the move. ``_Table`` must accept the same
# first move in every state.
# ---------------------------------------------------------------------------


class _State:
    """Partial partition with per-agent bundle sums and maxima kept incrementally.

    The symEF1 test over allocated items then costs O(n^2); add is O(n) and
    remove is O(n * bundle size) because a removed maximum forces a rescan.
    """

    __slots__ = ("values", "n", "bundles", "sums", "maxes")

    def __init__(self, inst: Instance, bundles: Sequence[Iterable[int]]):
        self.values = inst.values
        self.n = inst.n
        self.bundles = [set(b) for b in bundles]
        if len(self.bundles) != inst.n:
            raise ValueError("need exactly one bundle per agent")
        self.sums = [[0] * inst.n for _ in range(inst.n)]
        self.maxes = [[0] * inst.n for _ in range(inst.n)]
        for k, bundle in enumerate(self.bundles):
            for i in range(inst.n):
                row = self.values[i]
                self.sums[i][k] = sum(row[j] for j in bundle)
                self.maxes[i][k] = max((row[j] for j in bundle), default=0)

    def add(self, k: int, j: int) -> None:
        self.bundles[k].add(j)
        for i in range(self.n):
            v = self.values[i][j]
            self.sums[i][k] += v
            if v > self.maxes[i][k]:
                self.maxes[i][k] = v

    def remove(self, k: int, j: int) -> None:
        self.bundles[k].discard(j)
        for i in range(self.n):
            row = self.values[i]
            v = row[j]
            self.sums[i][k] -= v
            if v == self.maxes[i][k]:
                self.maxes[i][k] = max((row[u] for u in self.bundles[k]), default=0)

    def symef1_now(self) -> bool:
        for i in range(self.n):
            sums = self.sums[i]
            maxes = self.maxes[i]
            worst = max(sums[l] - maxes[l] for l in range(self.n))
            if min(sums) < worst:
                return False
        return True

    def to_partition(self) -> Partition:
        return Partition(tuple(frozenset(b) for b in self.bundles))


def _try_case1(state: _State, j: int) -> bool:
    for k in range(state.n):
        state.add(k, j)
        if state.symef1_now():
            return True
        state.remove(k, j)
    return False


def _ordered_pairs(n: int):
    return [(k, l) for k in range(n) for l in range(n) if l != k]


def _relocate_within(state: _State, j: int, k: int, l: int) -> bool:
    """Some relocation from bundle k to l, then j into k, is symEF1 (left applied)."""
    for jk in sorted(state.bundles[k]):
        state.remove(k, jk)
        state.add(k, j)
        state.add(l, jk)
        if state.symef1_now():
            return True
        state.remove(l, jk)
        state.remove(k, j)
        state.add(k, jk)
    return False


def _swap_within(state: _State, j: int, k: int, l: int) -> bool:
    """Some swap between bundles k and l, then j into k, is symEF1 (left applied)."""
    for jk in sorted(state.bundles[k]):
        for jl in sorted(state.bundles[l]):
            state.remove(k, jk)
            state.remove(l, jl)
            state.add(k, j)
            state.add(k, jl)
            state.add(l, jk)
            if state.symef1_now():
                return True
            state.remove(l, jk)
            state.remove(k, jl)
            state.remove(k, j)
            state.add(l, jl)
            state.add(k, jk)
    return False


def _try_case2(state: _State, j: int) -> bool:
    return any(_relocate_within(state, j, k, l) for k, l in _ordered_pairs(state.n))


def _try_case3(state: _State, j: int) -> bool:
    return any(_swap_within(state, j, k, l) for k, l in _ordered_pairs(state.n))


def reference_extend(inst, bundles, pending):
    """``extend_allocation``'s pass loop over ``_State``: (partition or None, stats)."""
    state = _State(inst, bundles)
    pending = list(pending)
    case1 = case2 = case3 = 0
    progress = True
    while pending and progress:
        progress = False
        for j in list(pending):
            if _try_case1(state, j):
                case1 += 1
            elif _try_case2(state, j):
                case2 += 1
            elif _try_case3(state, j):
                case3 += 1
            else:
                continue
            pending.remove(j)
            progress = True
    stats = HeuristicStats(case1, case2, case3)
    if pending:
        return None, stats
    return state.to_partition(), stats


def snapshot(table):
    """Everything a move may change, copied."""
    return (
        [list(b) for b in table.bundles],
        [list(r) for r in table.sums],
        [list(r) for r in table.best],
        [list(r) for r in table.second],
    )


def consistent(inst, table):
    """The table's bundles (kept ascending), sums and top-two values equal a rebuild."""
    return snapshot(table) == snapshot(_Table(inst, table.bundles))


def partial_symef1(inst, bundles):
    """symEF1 over the allocated items, by the reference's from-scratch check."""
    return _State(inst, bundles).symef1_now()


def test_all_items_fit_when_m_at_most_n():
    inst = sf.Instance.from_rows([[9, 1], [1, 9], [5, 5]])
    result = sf.greedy_symef1(inst)
    assert result.found
    assert result.stats.placed_case1 == 2
    assert result.stats.placed_case2 == result.stats.placed_case3 == 0


def test_trap_state_rejects_every_repair():
    result = sf.extend_allocation(TRAP, TRAP_PARTIAL, [8])
    assert not result.found
    assert result.stats.placed_total() == 0


def test_trap_state_each_case_fails_and_restores():
    table = _Table(TRAP, TRAP_PARTIAL)
    snap = snapshot(table)
    for attempt in REPAIRS:
        assert not attempt(table, 8)
        assert snapshot(table) == snap


def test_trap_completion_exists_anyway():
    outcome = sf.exact_symef1(TRAP)
    assert outcome.found
    witness = sf.Partition(
        (lab("acef", "abcdefghj"), lab("bdghj", "abcdefghj"))
    )
    assert sf.is_symef1(TRAP, witness)


def test_trap_from_scratch_reports_consistently():
    result = sf.greedy_symef1(TRAP)
    if result.found:
        assert sf.is_symef1(TRAP, result.partition)
    assert result.stats.placed_total() == (9 if result.found else result.stats.placed_total())


def test_random_runs_success_implies_valid_partition():
    rng = random.Random(20)
    found = failed = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(0, 10)
        inst = rand_instance(rng, n, m, 25)
        result = sf.greedy_symef1(inst)
        if result.found:
            found += 1
            assert sf.is_symef1(inst, result.partition)
            assert result.partition.items == frozenset(range(m))
            assert result.stats.placed_total() == m
        else:
            failed += 1
    assert found > 150  # most uniform instances admit a greedy solution
    assert failed > 0  # and some do not, else the fallback is never exercised


def test_failed_attempts_always_restore_state():
    rng = random.Random(21)
    checked = accepted = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        m = rng.randint(2, 9)
        inst = rand_instance(rng, n, m, 10)
        items = list(range(m))
        rng.shuffle(items)
        keep = items[: rng.randint(1, m - 1)]
        pending = [j for j in items if j not in keep]
        bundles = [set() for _ in range(n)]
        for j in keep:
            bundles[rng.randrange(n)].add(j)
        if not partial_symef1(inst, bundles):
            continue
        j = pending[0]
        for attempt in REPAIRS:
            table = _Table(inst, bundles)
            snap = snapshot(table)
            if attempt(table, j):
                # Accepted moves keep the partial symEF1, add exactly j, and
                # leave the table equal to a rebuild from its bundles.
                accepted += 1
                assert partial_symef1(inst, table.bundles)
                assert set().union(*table.bundles) == set(keep) | {j}
                assert consistent(inst, table)
            else:
                checked += 1
                assert snapshot(table) == snap
    assert checked > 50
    assert accepted > 50


def test_partial_state_stays_symef1_after_each_placement():
    rng = random.Random(22)
    for _ in range(60):
        inst = rand_instance(rng, 3, 8, 15)
        table = _Table(inst, [set(), set(), set()])
        for j in range(8):
            if table.try_insert(j) or table.try_relocate(j) or table.try_swap(j):
                assert partial_symef1(inst, table.bundles)
                assert consistent(inst, table)


def test_extend_allocation_validates_inputs():
    inst = sf.Instance.from_rows([[5, 1], [1, 5]])
    with pytest.raises(ValueError, match="partition the item set"):
        sf.extend_allocation(inst, [{0}, set()], [0, 1])
    with pytest.raises(ValueError, match="one bundle per agent"):
        sf.extend_allocation(inst, [set()], [0, 1])
    repeated = sf.Instance.from_rows([[0, 4, 10, 10, 9], [4, 10, 3, 8, 8]])
    with pytest.raises(ValueError, match="partition the item set"):
        sf.extend_allocation(repeated, [set(), set()], [0, 1, 3, 2, 3, 4])
    imbalanced = sf.Instance.from_rows([[10, 10, 1], [10, 10, 1]])
    with pytest.raises(ValueError, match="not symEF1"):
        sf.extend_allocation(imbalanced, [{0, 1}, set()], [2])
    # greedy_symef1 leaves its item order to extend_allocation's one check.
    for order in ([0, 0], [0, 0, 1], [1]):
        with pytest.raises(ValueError, match="partition the item set"):
            sf.greedy_symef1(inst, order)
        with pytest.raises(ValueError, match="partition the item set"):
            sf.extend_allocation(inst, [set(), set()], order)


def test_empty_start_skips_the_start_scan(monkeypatch):
    # Empty bundles are trivially symEF1: a build from scratch runs no scan.
    def scan(*args):
        raise AssertionError("the empty start was scanned")

    monkeypatch.setattr("symfair.heuristic._first_violation", scan)
    inst = sf.Instance.from_rows([[5, 1, 3], [1, 5, 3]])
    assert sf.greedy_symef1(inst).found
    assert sf.extend_allocation(inst, [set(), set()], [2, 1, 0]).found


def test_item_orders():
    inst = sf.Instance.from_rows([[1, 5, 3], [2, 5, 1]])
    assert sf.order_items(inst, "index") == (0, 1, 2)
    # Totals are 3, 10, 4: descending with index tie-break.
    assert sf.order_items(inst, "desc-total-value") == (1, 2, 0)
    tie = sf.Instance.from_rows([[2, 2, 2]])
    assert sf.order_items(tie, "desc-total-value") == (0, 1, 2)
    a = sf.order_items(inst, "random", seed=9)
    b = sf.order_items(inst, "random", seed=9)
    assert a == b and sorted(a) == [0, 1, 2]
    with pytest.raises(ValueError):
        sf.order_items(inst, "fancy")


@pytest.mark.parametrize("top", [1, 3])
def test_desc_total_value_order_breaks_ties_by_index(top):
    # Rows full of equal totals: the order must be the plain (-total, index) sort.
    rng = random.Random(f"order-ties:{top}")
    for m in range(41):
        for n in (1, 2, 3, 5):
            inst = sf.Instance.from_rows([[rng.randint(0, top) for _ in range(m)]
                                          for _ in range(n)])
            totals = [sum(row[j] for row in inst.values) for j in range(m)]
            want = tuple(sorted(range(m), key=lambda j: (-totals[j], j)))
            assert sf.order_items(inst, "desc-total-value") == want


def test_rescan_picks_up_previously_rejected_items():
    # Force an order where some item is unplaceable at first sight but fits
    # after later items reshape the bundles; the outer loop must retry it.
    rng = random.Random(23)
    rescued = 0
    for _ in range(400):
        inst = rand_instance(rng, 3, 7, 12)
        order = list(range(7))
        rng.shuffle(order)
        result = sf.greedy_symef1(inst, order)
        if not result.found:
            continue
        # Count a run as a rescue when some case-2/3 placement happened, which
        # only occurs after a plain insertion failed for that item.
        if result.stats.placed_case2 + result.stats.placed_case3 > 0:
            rescued += 1
    assert rescued > 30


def test_kernel_matches_reference_builder():
    # Same partition and the same per-case counts as the mutate/check/undo
    # reference, from scratch and from random symEF1 partial states; a partial
    # state the reference finds not symEF1 must be refused at the start. Small
    # value ranges make ties between items and between bundles common. m stops
    # at 12 for n >= 5, where the reference's failed runs cost the most. The
    # last draws have larger bundles and rows of 0..1 or 0..3, where the pair
    # gates fire most, so the first accepted exchange is compared on states
    # where gates skip pairs. The grid-like draws at the end (n 4..6,
    # m n+1..2n, rows 0..10^4, from scratch) mostly get stuck with one item in
    # every bundle, where the exchanges skip the most relabeled moves.
    rng = random.Random(24)

    def draws():
        for _ in range(2000):
            n = rng.randint(1, 6)
            m = rng.randint(0, 16 if n <= 4 else 12)
            yield "mixed", n, m, rng.choice((1, 2, 3, 10, 100, 10**4))
        for _ in range(300):
            yield "large", rng.randint(3, 4), rng.randint(17, 40), rng.choice((1, 3))
        for _ in range(150):
            n = rng.randint(4, 6)
            yield "grid", n, rng.randint(n + 1, 2 * n), 10**4

    partial_starts = refused = failures = large_exchanges = stuck_singletons = 0
    for kind, n, m, M in draws():
        inst = sf.Instance.from_rows([[rng.randint(0, M) for _ in range(m)] for _ in range(n)])
        order = list(range(m))
        rng.shuffle(order)
        keep = [] if kind == "grid" else order[: rng.randint(0, min(m, 2 * n))]
        bundles = [set() for _ in range(n)]
        for j in keep:
            bundles[rng.randrange(n)].add(j)
        if keep and partial_symef1(inst, bundles):
            partial_starts += 1
            pending = order[len(keep):]
            result = sf.extend_allocation(inst, bundles, pending)
        else:
            if keep:
                refused += 1
                with pytest.raises(ValueError, match="not symEF1"):
                    sf.extend_allocation(inst, bundles, order[len(keep):])
            bundles = [set() for _ in range(n)]
            pending = order
            result = sf.greedy_symef1(inst, order)
        expected = reference_extend(inst, bundles, pending)
        assert (result.partition, result.stats) == expected
        failures += not result.found
        if kind == "large":
            large_exchanges += result.stats.placed_case2 + result.stats.placed_case3
        if kind == "grid" and not result.found:
            # A failed run has no empty bundle, so n items means one per bundle.
            stuck_singletons += result.stats.placed_total() == n
    assert partial_starts > 500
    assert refused > 200, refused
    assert failures > 200
    assert large_exchanges > 800, large_exchanges
    assert stuck_singletons >= 100, stuck_singletons


def test_pair_gates_rule_out_only_pairs_without_an_accepted_exchange():
    # On symEF1 partial states with bundles of up to about 40 items, built by
    # the table's own repairs, no relocation (or swap) of an item between a
    # bundle pair whose gate the item exceeds is accepted by the
    # mutate/check/undo reference. The gates must fire often enough to matter.
    rng = random.Random(25)
    fired = {False: 0, True: 0}
    for _ in range(40):
        n = rng.randint(3, 6)
        m = rng.randint(2 * n, 120)
        M = rng.choice((1, 3, 10**4))
        inst = sf.Instance.from_rows([[rng.randint(0, M) for _ in range(m)] for _ in range(n)])
        order = list(range(m))
        rng.shuffle(order)
        table = _Table(inst, [()] * n)
        for j in order[1:]:
            table.try_insert(j) or table.try_relocate(j) or table.try_swap(j)
        assert partial_symef1(inst, table.bundles)
        # The held-out item, then up to two items the repairs could not place.
        placed = set().union(*table.bundles)
        for j in [order[0]] + [j for j in order if j not in placed][:2]:
            for k, l in _ordered_pairs(n):
                _, gates = table._pair(k, l)
                for swap, within in ((False, _relocate_within), (True, _swap_within)):
                    if any(row[j] > t for row, t in gates[swap]):
                        fired[swap] += 1
                        assert not within(_State(inst, table.bundles), j, k, l), (j, k, l, swap)
    assert fired[False] > 800 and fired[True] > 800, fired


def count_pair_visits(monkeypatch, stub=None):
    """The (k, l) of every ``_Table._pair`` call from now on, in call order."""
    visits = []
    pair = _Table._pair if stub is None else stub

    def counted(self, k, l):
        visits.append((k, l))
        return pair(self, k, l)

    monkeypatch.setattr(_Table, "_pair", counted)
    return visits


def test_exchanges_skip_relabeled_moves_with_one_item_per_bundle(monkeypatch):
    # Every repair rejects item 3 here. A swap of two one-item bundles leaves
    # the bundles of an insert, and the relocations of (k, l) and (l, k)
    # leave the same bundles, so only the relocations with k < l build a pair
    # (the full scan visits 6 pairs for each exchange).
    visits = count_pair_visits(monkeypatch)
    table = _Table(three_agent_blocker(), [{0}, {1}, {2}])
    seen = []
    for attempt in REPAIRS:
        del visits[:]
        assert not attempt(table, 3)
        seen.append(list(visits))
    assert seen == [[], [(0, 1), (0, 2), (1, 2)], []]


def test_greedy_pair_visits_on_grid_draws(monkeypatch):
    # A cost gate that does not depend on the machine, like the search's node
    # gates: the first 50 draws of the acceptance grid's 5 x 10 cell build at
    # most 2 743 pairs (10 164 when every pair is scanned).
    visits = count_pair_visits(monkeypatch)
    for r in range(50):
        seed = sim.replication_seed(42, 5, 10, 10**4, r)
        sf.greedy_symef1(sim.random_instance(5, 10, 10**4, seed))
    assert len(visits) <= 2743, len(visits)


def _moves(bundles, j):
    """(kind, k, l, the bundles it leaves) for each move of item j, in scan order."""
    n = len(bundles)

    def leaves(k, new_k, l=None, new_l=None):
        after = [frozenset(b) for b in bundles]
        after[k] = frozenset(new_k)
        if l is not None:
            after[l] = frozenset(new_l)
        return frozenset(after)

    for k in range(n):
        yield "insert", k, None, leaves(k, bundles[k] | {j})
    for kind in ("relocate", "swap"):
        for k, l in _ordered_pairs(n):
            for jk in sorted(bundles[k]):
                for jl in sorted(bundles[l]) if kind == "swap" else [None]:
                    back = set() if jl is None else {jl}
                    yield kind, k, l, leaves(
                        k, bundles[k] - {jk} | back | {j}, l, bundles[l] - back | {jk}
                    )


def test_exchanges_skip_exactly_the_pairs_whose_moves_repeat_earlier_ones(monkeypatch):
    # No values are involved. Acceptance reads only the bundles a move leaves,
    # so a move that leaves the bundles of one scanned before it (inserts,
    # then relocations, then swaps, each in pair order) cannot be the first
    # accepted. On random states of nonempty bundles, every move of a skipped
    # pair repeats an earlier one, and no move of a visited pair does. A stub
    # pair whose gates every item exceeds makes each visited pair reject.
    def reject_all(self, k, l):
        gates = [(self.rows[0], -1)]
        return [], (gates, gates)

    visits = count_pair_visits(monkeypatch, reject_all)
    rng = random.Random(27)
    skipped = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        items = list(range(sum(sizes) + 1))
        rng.shuffle(items)
        j = items.pop()
        bundles = []
        for size in sizes:
            bundles.append(set(items[:size]))
            del items[:size]
        table = _Table(sf.Instance.from_rows([[0] * (sum(sizes) + 1)] * n), bundles)
        earlier = set()
        repeats: dict[tuple, list[bool]] = {}
        for kind, k, l, left in _moves(bundles, j):
            if kind != "insert":
                repeats.setdefault((kind == "swap", k, l), []).append(left in earlier)
            earlier.add(left)
        for swap, attempt in ((False, _Table.try_relocate), (True, _Table.try_swap)):
            del visits[:]
            assert not attempt(table, j)
            for k, l in _ordered_pairs(n):
                flags = repeats[swap, k, l]
                assert set(flags) == {(k, l) not in visits}, (bundles, j, swap, k, l, flags)
                if (k, l) not in visits:
                    skipped.add((swap, len(bundles[k]), len(bundles[l]), l < k))
    # The four classes: relocations of one-item bundles with l < k; swaps of
    # a one-item bundle with a bundle of one or two items; swaps of two-item
    # bundles with l < k.
    assert skipped == {
        (False, 1, 1, True),
        (True, 1, 1, False), (True, 1, 1, True), (True, 1, 2, False), (True, 1, 2, True),
        (True, 2, 2, True),
    }, skipped
