"""The record classes against dataclass twins.

Each twin below is the ``dataclasses.dataclass`` the record class would be,
with the same fields, defaults and checks. Building a record and its twin from
the same arguments must fail the same way, or give objects with the same
``repr``, equality and hash, and refusing assignment as a frozen dataclass does.
"""

import copy
import dataclasses
import pickle
import re
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

import symfair as sf


@dataclass(frozen=True)
class RefSearchLimits:
    node_budget: int = 10_000_000
    time_budget: float = 10.0

    def __post_init__(self) -> None:
        if isinstance(self.node_budget, bool) or not isinstance(self.node_budget, int):
            raise ValueError(f"the node budget must be an integer, got {self.node_budget!r}")
        if isinstance(self.time_budget, bool) or not isinstance(self.time_budget, (int, float)):
            raise ValueError(f"the time budget must be a number, got {self.time_budget!r}")
        if self.node_budget < 1 or not self.time_budget > 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class RefInstance:
    n: int
    m: int
    values: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("an instance needs at least one agent")
        if self.m < 0:
            raise ValueError("item count cannot be negative")
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} value rows, got {len(self.values)}")
        for row in self.values:
            if len(row) != self.m:
                raise ValueError(f"expected {self.m} columns, got {len(row)}")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise ValueError(f"values must be nonnegative integers, got {v!r}")


@dataclass(frozen=True)
class RefPartition:
    bundles: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(self.bundles))
        seen = set()
        total = 0
        for b in self.bundles:
            for j in b:
                if isinstance(j, bool) or not isinstance(j, int) or j < 0:
                    raise ValueError(f"item indices must be nonnegative integers, got {j!r}")
            total += len(b)
            seen.update(b)
        if len(seen) != total:
            raise ValueError("bundles are not pairwise disjoint")
        object.__setattr__(self, "bundles", tuple(map(frozenset, self.bundles)))


@dataclass(frozen=True)
class RefAssignment:
    partition: RefPartition
    owner: tuple

    def __post_init__(self) -> None:
        n = len(self.partition.bundles)
        if sorted(self.owner) != list(range(n)):
            raise ValueError("owner must be a permutation of the bundle indices")


@dataclass(frozen=True)
class RefItemGraph:
    num_vertices: int
    edges: tuple

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not 0 <= u < v < self.num_vertices:
                raise ValueError(f"bad edge ({u}, {v}) for {self.num_vertices} vertices")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")


@dataclass(frozen=True)
class RefExactOutcome:
    status: sf.ExactStatus
    partition: RefPartition | None
    nodes: int


@dataclass(frozen=True)
class RefHeuristicStats:
    placed_case1: int = 0
    placed_case2: int = 0
    placed_case3: int = 0


@dataclass(frozen=True)
class RefHeuristicResult:
    partition: RefPartition | None
    stats: RefHeuristicStats


@dataclass(frozen=True)
class RefSimConfig:
    n_list: tuple
    m_list: tuple
    M_list: tuple
    replications: int
    master_seed: int
    limits: sf.SearchLimits = dataclasses.field(default_factory=sf.SearchLimits)

    def __post_init__(self) -> None:
        if not (self.n_list and self.m_list and self.M_list):
            raise ValueError("n, m, and M lists must be nonempty")
        if any(v < 1 for v in self.n_list + self.m_list) or any(v < 0 for v in self.M_list):
            raise ValueError("n and m must be positive, M nonnegative")
        if any(v > 2**63 - 1 for v in self.M_list):
            raise ValueError(f"M must be at most 2^63 - 1 = {2**63 - 1}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")


@dataclass(frozen=True)
class RefSimReport:
    n: int
    m: int
    M: int
    replications: int
    pct_symef1: float
    pct_case1: float
    pct_case2: float
    pct_case3: float
    pct_exact_fallback: float
    wall_seconds: float
    excluded: int = 0


NAMES = ("SearchLimits", "Instance", "Partition", "Assignment", "ItemGraph", "ExactOutcome",
         "HeuristicStats", "HeuristicResult", "SimConfig", "SimReport")
NEW = SimpleNamespace(**{name: getattr(sf, name) for name in NAMES})
REF = SimpleNamespace(**{name: globals()["Ref" + name] for name in NAMES})

P = (frozenset({0, 2}), frozenset({1}))
FOUND = sf.ExactStatus.FOUND

# Each case builds one record from the classes in C: NEW or REF.
CASES = {
    "limits-defaults": lambda C: C.SearchLimits(),
    "limits-positional": lambda C: C.SearchLimits(5, 1.5),
    "limits-keyword": lambda C: C.SearchLimits(time_budget=2.0),
    "limits-zero-nodes": lambda C: C.SearchLimits(0),
    "limits-nan-time": lambda C: C.SearchLimits(time_budget=float("nan")),
    # The engines test the node count for equality, so the node budget is an int.
    "limits-float-nodes": lambda C: C.SearchLimits(100.5),
    "limits-whole-float-nodes": lambda C: C.SearchLimits(node_budget=100.0),
    "limits-bool-nodes": lambda C: C.SearchLimits(True),
    "limits-float-nodes-nan-time": lambda C: C.SearchLimits(0.5, float("nan")),
    # The time budget is an int or a float, not a bool: start() adds it to the clock.
    "limits-bool-time": lambda C: C.SearchLimits(time_budget=True),
    "limits-str-time": lambda C: C.SearchLimits(time_budget="5"),
    "limits-none-time": lambda C: C.SearchLimits(time_budget=None),
    "limits-unknown-keyword": lambda C: C.SearchLimits(nodes=5),
    "limits-too-many": lambda C: C.SearchLimits(1, 2.0, 3),
    "instance": lambda C: C.Instance(2, 3, ((1, 2, 3), (4, 5, 6))),
    "instance-keywords": lambda C: C.Instance(values=((7,),), m=1, n=1),
    "instance-empty-rows": lambda C: C.Instance(2, 0, ((), ())),
    "instance-no-agents": lambda C: C.Instance(0, 1, ()),
    "instance-negative-m": lambda C: C.Instance(1, -1, ((),)),
    "instance-row-count": lambda C: C.Instance(2, 1, ((1,),)),
    "instance-row-length": lambda C: C.Instance(1, 2, ((1,),)),
    "instance-bool": lambda C: C.Instance(1, 2, ((1, True),)),
    "instance-float": lambda C: C.Instance(1, 2, ((1, 2.0),)),
    "instance-negative": lambda C: C.Instance(1, 2, ((-1, 2),)),
    "instance-missing": lambda C: C.Instance(1, 1),
    "partition": lambda C: C.Partition(P),
    "partition-keyword": lambda C: C.Partition(bundles=(frozenset(),)),
    "partition-none": lambda C: C.Partition(()),
    "partition-bool": lambda C: C.Partition((frozenset({False}),)),
    "partition-str": lambda C: C.Partition((frozenset({"1"}),)),
    "partition-negative": lambda C: C.Partition((frozenset({-1}),)),
    "partition-overlap": lambda C: C.Partition((frozenset({0, 1}), frozenset({1}))),
    # Bundles are stored as a tuple of frozensets, whatever collections were passed.
    "partition-sets": lambda C: C.Partition([{0, 1}, {2}]),
    "partition-lists": lambda C: C.Partition(([2, 0], [], [1])),
    "partition-list-repeats": lambda C: C.Partition(([0, 0],)),
    "partition-generator": lambda C: C.Partition({j} for j in range(3)),
    "assignment": lambda C: C.Assignment(C.Partition(P), (1, 0)),
    "assignment-keyword": lambda C: C.Assignment(owner=(0, 1), partition=C.Partition(P)),
    "assignment-bad-owner": lambda C: C.Assignment(C.Partition(P), (1, 1)),
    "graph": lambda C: C.ItemGraph(3, ((0, 1), (1, 2))),
    "graph-bad-edge": lambda C: C.ItemGraph(3, ((1, 0),)),
    "graph-duplicate": lambda C: C.ItemGraph(3, ((0, 1), (0, 1))),
    "outcome-found": lambda C: C.ExactOutcome(FOUND, C.Partition(P), 12),
    "outcome-none": lambda C: C.ExactOutcome(sf.ExactStatus.BUDGET_EXCEEDED, None, nodes=3),
    "stats-defaults": lambda C: C.HeuristicStats(),
    "stats-positional": lambda C: C.HeuristicStats(1, 2, 3),
    "stats-keyword": lambda C: C.HeuristicStats(placed_case3=4),
    "result": lambda C: C.HeuristicResult(C.Partition(P), C.HeuristicStats(2, 1, 0)),
    "result-none": lambda C: C.HeuristicResult(None, stats=C.HeuristicStats()),
    # SimConfig's limits are a SearchLimits in both classes, so the twins compare.
    "config-defaults": lambda C: C.SimConfig((2, 3), (5,), (10,), 4, 7),
    "config-keywords": lambda C: C.SimConfig(
        master_seed=0, replications=1, M_list=(0,), m_list=(1,), n_list=(1,),
        limits=sf.SearchLimits(5, 1.5)),
    "config-empty-list": lambda C: C.SimConfig((2,), (), (10,), 1, 0),
    "config-zero-m": lambda C: C.SimConfig((2,), (0,), (10,), 1, 0),
    "config-negative-M": lambda C: C.SimConfig((2,), (5,), (-1,), 1, 0),
    "config-huge-M": lambda C: C.SimConfig((2,), (5,), (2**63,), 1, 0),
    "config-no-replications": lambda C: C.SimConfig((2,), (5,), (10,), 0, 0),
    "config-negative-seed": lambda C: C.SimConfig((2,), (5,), (10,), 1, -1),
    # The first failing check names the error: an empty list before a bad seed.
    "config-two-errors": lambda C: C.SimConfig((), (5,), (-1,), 0, -1),
    "config-missing": lambda C: C.SimConfig((2,), (5,), (10,), 1),
    "report": lambda C: C.SimReport(3, 5, 10, 4, 75.0, 80.0, 15.0, 5.0, 25.0, 0.125),
    "report-keywords": lambda C: C.SimReport(
        n=3, m=5, M=10, replications=4, pct_symef1=100.0, pct_case1=60.0, pct_case2=40.0,
        pct_case3=0.0, pct_exact_fallback=0.0, wall_seconds=0.5, excluded=2),
    "report-too-many": lambda C: C.SimReport(3, 5, 10, 4, 75.0, 80.0, 15.0, 5.0, 25.0, 0.1, 0, 1),
}


def _plain(text):
    return text.replace("Ref", "")


def _hash(record):
    try:
        return _plain(str(hash(record)))
    except TypeError as exc:
        return _plain(str(exc))


@pytest.mark.parametrize("case", CASES)
def test_record_matches_dataclass_twin(case):
    build = CASES[case]
    try:
        ref = build(REF)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(_plain(str(exc)))):
            build(NEW)
        return
    record, again = build(NEW), build(NEW)
    assert repr(record) == _plain(repr(ref))
    assert record == again and not record != again
    assert record.__eq__(ref) is NotImplemented and record != ref
    assert _hash(record) == _hash(ref)
    fields = [f.name for f in dataclasses.fields(ref)]
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record)
    assert ref.__dataclass_params__.frozen
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == again


def test_partition_freezes_its_bundles():
    items = [{0, 1}, {2}]
    p = sf.Partition(items)
    assert p.bundles == (frozenset({0, 1}), frozenset({2}))
    assert hash(p) == hash(sf.Partition.of({0, 1}, {2}))
    # Changing the caller's sets, or the stored bundles, cannot undo the
    # disjointness check.
    items[0].add(2)
    assert p.bundles[0] == {0, 1}
    with pytest.raises(AttributeError):
        p.bundles[0].add(2)
    # Frozen bundles are kept as the same objects.
    frozen = (frozenset({0}), frozenset())
    assert all(a is b for a, b in zip(sf.Partition(frozen).bundles, frozen))
