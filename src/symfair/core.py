"""Exact integer model of fair-division instances and the fairness predicates.

An instance is an n x m matrix of nonnegative integer valuations. A partition
splits the items into n bundles without naming owners; the symmetric fairness
checks ask whether every agent would accept every bundle, so no assignment
enters the definitions. All arithmetic is exact (Python integers), which keeps
every verdict free of rounding ties.

Items and agents are 0-based in code. The text file formats are 1-based.
"""

from __future__ import annotations

import math
import time
from itertools import chain, product
from typing import Callable, Collection, Iterable, Sequence


class ParseError(ValueError):
    """Malformed input: instance or partition text, a command-line value, or an
    instance past the n^m guard of the full enumerations."""


class BudgetExceededError(RuntimeError):
    """Search stopped by the node or time budget before finishing."""


_set = object.__setattr__


class _Record:
    """Base of the package's record classes: a ``__slots__`` class whose slots
    are its fields, in constructor order.

    It behaves as a frozen ``dataclasses.dataclass`` would: equality compares
    the field values of two records of one class (``NotImplemented`` across
    classes), the hash is the hash of those values, ``repr`` is
    ``Name(field=value, ...)``, and assigning or deleting a field raises
    ``AttributeError``. ``__reduce__`` rebuilds a record through its
    constructor, so pickle and copy work and re-run its checks. The records sit
    on the CLI's start-up path, where importing ``dataclasses`` (and with it
    ``inspect``) would cost more than a small ``check`` does.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class SearchLimits(_Record):
    """Node and time budget of one call to a backtracking search.

    The exact search, enumeration, the MNW oracle and ``k_color`` share one
    rule, which :meth:`start` owns. A node is one child scored, one leaf or
    one color assignment. A search stops at node ``node_budget + 1`` and reads
    the clock at every 4096th node; either stop raises :class:`BudgetExceededError`.
    With ``budget = limits.start()``, a search counts from ``nodes, check = 0,
    budget(0)`` and at each node runs ``nodes += 1; if nodes == check: check = budget(nodes)``.
    """

    __slots__ = ("node_budget", "time_budget")

    def __init__(self, node_budget: int = 10_000_000, time_budget: float = 10.0) -> None:
        if isinstance(node_budget, bool) or not isinstance(node_budget, int):
            raise ValueError(f"the node budget must be an integer, got {node_budget!r}")
        if isinstance(time_budget, bool) or not isinstance(time_budget, (int, float)):
            raise ValueError(f"the time budget must be a number, got {time_budget!r}")
        # "not > 0" also refuses a NaN time budget, which compares false.
        if node_budget < 1 or not time_budget > 0:
            raise ValueError("budgets must be positive")
        _set(self, "node_budget", node_budget)
        _set(self, "time_budget", time_budget)

    def start(self) -> Callable[[int], int]:
        """Start the clock and return the budget test, which reads no clock at count 0."""
        deadline = time.monotonic() + self.time_budget

        def budget(nodes: int) -> int:
            if nodes > self.node_budget:
                raise BudgetExceededError(f"node budget {self.node_budget} exhausted")
            if nodes and time.monotonic() > deadline:
                raise BudgetExceededError(f"time budget {self.time_budget}s exhausted")
            return min(nodes + 4096, self.node_budget + 1)

        return budget


class Instance(_Record):
    """n agents, m items, and an n x m matrix of nonnegative integer values."""

    __slots__ = ("n", "m", "values")

    def __init__(self, n: int, m: int, values: tuple[tuple[int, ...], ...]) -> None:
        if n < 1:
            raise ValueError("an instance needs at least one agent")
        if m < 0:
            raise ValueError("item count cannot be negative")
        if len(values) != n:
            raise ValueError(f"expected {n} value rows, got {len(values)}")
        # The whole matrix at once; the per-value loop runs only to name the
        # first bad length or value in row order. A matrix with no values, or
        # with an int subclass (not bool) among them, passes that loop too.
        if not (
            set(map(len, values)) == {m}
            and set(map(type, chain.from_iterable(values))) == {int}
            and min(map(min, values)) >= 0
        ):
            for row in values:
                if len(row) != m:
                    raise ValueError(f"expected {m} columns, got {len(row)}")
                for v in row:
                    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                        raise ValueError(f"values must be nonnegative integers, got {v!r}")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "values", values)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Instance":
        values = tuple(tuple(row) for row in rows)
        n = len(values)
        m = len(values[0]) if values else 0
        return cls(n, m, values)


class Partition(_Record):
    """n disjoint bundles of item indices. Empty bundles are allowed.

    ``bundles`` is stored as a tuple of frozensets, whatever collections of items
    were passed, so a partition is hashable and its bundles cannot change after
    the disjointness check. Bundle order is significant for equality; use
    ``exact.canonical_partition`` when partitions should compare as unordered
    families.
    """

    __slots__ = ("bundles",)

    def __init__(self, bundles: Iterable[Collection[int]]) -> None:
        bundles = tuple(bundles)  # the same object for a tuple
        seen: set[int] = set()
        total = 0
        for b in bundles:
            for j in b:
                if isinstance(j, bool) or not isinstance(j, int) or j < 0:
                    raise ValueError(f"item indices must be nonnegative integers, got {j!r}")
            total += len(b)
            seen.update(b)
        if len(seen) != total:
            raise ValueError("bundles are not pairwise disjoint")
        _set(self, "bundles", tuple(map(frozenset, bundles)))

    @classmethod
    def of(cls, *bundles: Iterable[int]) -> "Partition":
        return cls(tuple(frozenset(b) for b in bundles))

    @classmethod
    def from_labels(cls, pairs: Iterable[tuple[int, int]], n: int) -> "Partition":
        """n bundles from (item, bundle) pairs; a bundle index must lie in 0..n-1."""
        bundles: list[list[int]] = [[] for _ in range(n)]
        for item, k in pairs:
            if not 0 <= k < n:
                raise ValueError(f"bundle index {k} is outside 0..{n - 1}")
            bundles[k].append(item)
        return cls.of(*bundles)

    @property
    def items(self) -> frozenset[int]:
        return frozenset().union(*self.bundles) if self.bundles else frozenset()

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bundles)


class Assignment(_Record):
    """A partition plus an owner for each bundle: ``owner[k]`` is an agent index."""

    __slots__ = ("partition", "owner")

    def __init__(self, partition: Partition, owner: tuple[int, ...]) -> None:
        n = len(partition.bundles)
        if sorted(owner) != list(range(n)):
            raise ValueError("owner must be a permutation of the bundle indices")
        _set(self, "partition", partition)
        _set(self, "owner", owner)


def ranking(inst: Instance, i: int) -> tuple[int, ...]:
    """Agent i's items sorted by descending value, ties by ascending index."""
    row = inst.values[i]
    # A reverse sort is stable too, so equal values keep ascending index.
    return tuple(sorted(range(inst.m), key=row.__getitem__, reverse=True))


def order_items(inst: Instance, mode: str = "index", seed: int | None = None) -> tuple[int, ...]:
    """Item orders exposed on the command line; success can depend on order."""
    if mode == "index":
        return tuple(range(inst.m))
    if mode == "desc-total-value":
        totals = [sum(column) for column in zip(*inst.values)]
        # A reverse sort is stable too, so equal totals keep ascending index.
        return tuple(sorted(range(inst.m), key=totals.__getitem__, reverse=True))
    if mode == "random":
        import random  # here, so that loading core does not load it

        order = list(range(inst.m))
        random.Random(seed).shuffle(order)
        return tuple(order)
    raise ValueError(f"unknown item order {mode!r}")


def bundle_value(inst: Instance, i: int, items: Iterable[int]) -> int:
    """Agent i's additive value for a set of items (0 for the empty set)."""
    row = inst.values[_check_agent(inst, i)]
    total = 0
    for j in items:
        _check_item(inst, j)
        total += row[j]
    return total


def max_item_value(inst: Instance, i: int, items: Iterable[int]) -> int:
    """Largest single-item value in the set for agent i; 0 for the empty set."""
    row = inst.values[_check_agent(inst, i)]
    return max((row[_check_item(inst, j)] for j in items), default=0)


def is_ef1_satisfied(inst: Instance, i: int, k: int, partition: Partition) -> bool:
    """Would agent i accept bundle k? True iff for every other bundle, i's envy
    disappears after removing i's best item from that bundle."""
    _check_agent(inst, i)
    validate_partition(inst, partition)
    if not 0 <= k < len(partition.bundles):
        raise IndexError(f"bundle index {k} out of range")
    return _first_violation(inst.values, partition.bundles, max, [(i, k)]) is None


def first_symef1_violation(
    inst: Instance, partition: Partition
) -> tuple[int, int, int, int, int] | None:
    """First (i, k, l, lhs, rhs) with v_i(A_k) < v_i(A_l) - max item of A_l, or None.

    Scan order is ascending i, then k, then l, so the witness is deterministic.
    """
    validate_partition(inst, partition)
    pairs = product(range(inst.n), repeat=2)
    return _first_violation(inst.values, partition.bundles, max, pairs)


def first_symefx_violation(
    inst: Instance, partition: Partition
) -> tuple[int, int, int, int, int] | None:
    """Like :func:`first_symef1_violation` but removing the *worst* item instead."""
    validate_partition(inst, partition)
    pairs = product(range(inst.n), repeat=2)
    return _first_violation(inst.values, partition.bundles, min, pairs)


def first_ef1_violation(
    inst: Instance, partition: Partition
) -> tuple[int, int, int, int, int] | None:
    """EF1 check for the diagonal assignment (agent k receives bundle k)."""
    validate_partition(inst, partition)
    pairs = [(i, i) for i in range(inst.n)]
    return _first_violation(inst.values, partition.bundles, max, pairs)


def _first_violation(
    rows: Sequence[Sequence[int]],
    bundles: Sequence[Iterable[int]],
    discount: Callable[..., int],
    pairs: Iterable[tuple[int, int]],
) -> tuple[int, int, int, int, int] | None:
    """First (i, k, l, lhs, rhs) with v_i(A_k) < v_i(A_l) - discount of A_l, or None.

    Scans the (agent i, bundle k) ``pairs`` in order, then l ascending. The
    discount is the item of A_l that ``discount`` (``max`` for EF1, ``min`` for
    EFX) picks from i's values, 0 for an empty bundle. The bundles need not
    cover every item. A pair whose v_i(A_k) reaches i's largest cut has no
    violating l, so it skips the l scan.
    """
    agent = None
    for i, k in pairs:
        if i != agent:  # one pass over the bundles per run of equal i
            agent, row = i, rows[i]
            vals = [[row[j] for j in b] for b in bundles]
            sums = [sum(v) for v in vals]
            cuts = [s - discount(v, default=0) for s, v in zip(sums, vals)]
            top = max(cuts)
        lhs = sums[k]
        if lhs >= top:
            continue
        for l, rhs in enumerate(cuts):
            if lhs < rhs:
                return (i, k, l, lhs, rhs)
    return None


def is_symef1(inst: Instance, partition: Partition) -> bool:
    """True iff every agent is EF1-satisfied with every bundle."""
    return first_symef1_violation(inst, partition) is None


def is_symefx(inst: Instance, partition: Partition) -> bool:
    """True iff every agent accepts every bundle even after removing only the
    envied bundle's least-valued item."""
    return first_symefx_violation(inst, partition) is None


def is_balanced(partition: Partition) -> bool:
    """True iff bundle cardinalities differ by at most one."""
    sizes = partition.sizes()
    return not sizes or max(sizes) - min(sizes) <= 1


def nash_welfare(inst: Instance, assignment: Assignment) -> int:
    """Product over bundles of the owning agent's value for that bundle."""
    validate_partition(inst, assignment.partition)
    return math.prod(
        bundle_value(inst, assignment.owner[k], b)
        for k, b in enumerate(assignment.partition.bundles)
    )


def items_distinct(inst: Instance) -> bool:
    """True iff every item is valued by someone and no two items have identical
    value columns."""
    cols = [tuple(inst.values[i][j] for i in range(inst.n)) for j in range(inst.m)]
    if any(not any(c) for c in cols):
        return False
    return len(set(cols)) == inst.m


def validate_partition(inst: Instance, partition: Partition) -> None:
    """Raise ValueError unless the partition has n bundles covering {0..m-1}."""
    if len(partition.bundles) != inst.n:
        raise ValueError(
            f"partition has {len(partition.bundles)} bundles, instance has {inst.n} agents"
        )
    # The bundles are disjoint sets of nonnegative ints (``Partition`` checks
    # that), so they cover 0..m-1 exactly when their sizes sum to m and none
    # holds an index of m or more.
    m = inst.m
    bundles = partition.bundles
    if sum(map(len, bundles)) != m or max(map(max, filter(None, bundles)), default=-1) >= m:
        raise ValueError("partition does not cover the instance's items exactly")


def _check_agent(inst: Instance, i: int) -> int:
    if not 0 <= i < inst.n:
        raise IndexError(f"agent index {i} out of range")
    return i


def _check_item(inst: Instance, j: int) -> int:
    if not 0 <= j < inst.m:
        raise IndexError(f"item index {j} out of range")
    return j


# ---------------------------------------------------------------------------
# Text formats.
#
# Instance file: first non-comment line is "n m", followed by n rows of m
# nonnegative integers. Lines starting with '#' and blank lines are ignored.
#
# Partition file: exactly n lines; line k holds the 1-based item indices of
# bundle k, and an empty line is an empty bundle.
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    header: tuple[int, int] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            n = _parse_int(tokens[0], lineno)
            m = _parse_int(tokens[1], lineno)
            if n < 1:
                raise ParseError(f"line {lineno}: agent count must be at least 1")
            if m < 0:
                raise ParseError(f"line {lineno}: item count cannot be negative")
            header = (n, m)
            continue
        n, m = header
        if len(rows) >= n:
            raise ParseError(f"line {lineno}: more than {n} value rows")
        if len(tokens) != m:
            raise ParseError(f"line {lineno}: expected {m} values, got {len(tokens)}")
        # Convert the whole row at once; only a bad row takes the per-token
        # path, which names its first bad token in line order.
        try:
            row = tuple(map(int, tokens))
        except ValueError:
            row = None
        if row is None or min(row) < 0:
            row = _parse_values(tokens, lineno)
        rows.append(row)
    if header is None:
        raise ParseError("empty instance file")
    n, m = header
    if m == 0 and not rows:
        rows = [()] * n  # zero-column rows are blank lines, which get skipped
    if len(rows) != n:
        raise ParseError(f"expected {n} value rows, found {len(rows)}")
    return Instance(n, m, tuple(rows))


def parse_partition(text: str, n: int | None = None, m: int | None = None) -> Partition:
    """Parse a partition file; validate bundle count and item range when given."""
    lines = text.splitlines()
    if n is not None and len(lines) != n:
        raise ParseError(f"expected {n} bundle lines, found {len(lines)}")
    bundles = []
    seen: set[int] = set()  # the items of the lines so far
    for lineno, line in enumerate(lines, start=1):
        # Convert and check the whole line at once; only a bad line takes the
        # per-token path, which names its first bad token in line order.
        tokens = line.split()
        try:
            bundle = frozenset([j - 1 for j in map(int, tokens)])
        except ValueError:
            bundle = None
        if (
            bundle is None
            or len(bundle) != len(tokens)
            or not seen.isdisjoint(bundle)
            or (bundle and (min(bundle) < 0 or (m is not None and max(bundle) >= m)))
        ):
            bundle = _parse_bundle(tokens, lineno, seen, m)
        seen |= bundle
        bundles.append(bundle)
    # The items lie in 0..m-1 and are distinct, so a count decides the cover.
    if m is not None and len(seen) < m:
        missing = sorted(set(range(m)) - seen)
        raise ParseError(f"partition does not cover items: missing {[j + 1 for j in missing]}")
    return Partition(tuple(bundles))


def format_partition(partition: Partition) -> str:
    """Render a partition in the n-line, 1-based file format."""
    lines = [" ".join(str(j + 1) for j in sorted(b)) for b in partition.bundles]
    return "\n".join(lines) + "\n"


def _parse_values(tokens: Sequence[str], lineno: int) -> tuple[int, ...]:
    """One value row token by token; raises at the first bad token in line order."""
    row = []
    for tok in tokens:
        v = _parse_int(tok, lineno)
        if v < 0:
            raise ParseError(f"line {lineno}: negative value {v}")
        row.append(v)
    return tuple(row)


def _parse_bundle(
    tokens: Sequence[str], lineno: int, seen: set[int], m: int | None
) -> frozenset[int]:
    """One bundle line token by token; raises at the first bad token in line
    order. ``seen`` holds the (0-based) items of the earlier lines."""
    bundle: set[int] = set()
    for tok in tokens:
        j = _parse_int(tok, lineno)
        if j < 1:
            raise ParseError(f"line {lineno}: item indices are 1-based, got {j}")
        if m is not None and j > m:
            raise ParseError(f"line {lineno}: item index {j} exceeds item count {m}")
        if j - 1 in seen or j - 1 in bundle:
            raise ParseError(f"line {lineno}: item {j} appears twice")
        bundle.add(j - 1)
    return frozenset(bundle)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: not an integer: {token!r}") from None
