import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfair as sf
from helpers import (
    clique_but_solvable,
    lab,
    partition_of,
    single_swap_trap,
    three_agent_blocker,
    welfare_vs_symmetry,
)

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_instance_echoes_matrix():
    inst = sf.parse_instance("3 4\n1 1 1 0\n1 1 0 1\n1 0 1 1")
    assert inst == three_agent_blocker()


def test_parse_instance_degenerate_empty():
    inst = sf.parse_instance("1 0\n")
    assert (inst.n, inst.m, inst.values) == (1, 0, ((),))


def test_parse_instance_two_by_two():
    assert sf.parse_instance("2 2\n5 3\n3 5").values == ((5, 3), (3, 5))


def test_parse_instance_comments_and_blanks():
    text = "# demo\n\n2 2\n# row one\n5 3\n\n3 5\n"
    assert sf.parse_instance(text).values == ((5, 3), (3, 5))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("2\n1 2\n", "line 1"),
        ("2 2\n1 2 3\n1 2\n", "line 2"),
        ("2 2\n1 -2\n1 2\n", "line 2"),
        ("2 2\n1 x\n1 2\n", "line 2"),
        ("2 2\n1 1.5\n1 2\n", "line 2"),
        ("2 2\n1 2\n", "expected 2 value rows"),
        ("2 2\n1 2\n3 4\n5 6\n", "line 4"),
        # The first bad token in line order names the error.
        ("2 2\n-1 x\n1 2\n", "line 2: negative value -1"),
        ("2 2\nx -1\n1 2\n", "line 2: not an integer: 'x'"),
    ],
)
def test_parse_instance_errors_name_lines(text, fragment):
    with pytest.raises(sf.ParseError, match=fragment):
        sf.parse_instance(text)


def _reference_parse_instance(text):
    """The token-by-token instance parser that ``parse_instance`` must match."""

    def parse_int(token, lineno):
        try:
            return int(token)
        except ValueError:
            raise sf.ParseError(f"line {lineno}: not an integer: {token!r}") from None

    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise sf.ParseError(f"line {lineno}: expected header 'n m'")
            n = parse_int(tokens[0], lineno)
            m = parse_int(tokens[1], lineno)
            if n < 1:
                raise sf.ParseError(f"line {lineno}: agent count must be at least 1")
            if m < 0:
                raise sf.ParseError(f"line {lineno}: item count cannot be negative")
            header = (n, m)
            continue
        n, m = header
        if len(rows) >= n:
            raise sf.ParseError(f"line {lineno}: more than {n} value rows")
        if len(tokens) != m:
            raise sf.ParseError(f"line {lineno}: expected {m} values, got {len(tokens)}")
        row = []
        for tok in tokens:
            v = parse_int(tok, lineno)
            if v < 0:
                raise sf.ParseError(f"line {lineno}: negative value {v}")
            row.append(v)
        rows.append(tuple(row))
    if header is None:
        raise sf.ParseError("empty instance file")
    n, m = header
    if m == 0 and not rows:
        rows = [()] * n
    if len(rows) != n:
        raise sf.ParseError(f"expected {n} value rows, found {len(rows)}")
    return sf.Instance(n, m, tuple(rows))


def _outcome(parse, text):
    try:
        return parse(text)
    except sf.ParseError as exc:
        return f"ParseError: {exc}"


def test_parse_instance_matches_reference_parser():
    # Mostly valid values, with the tokens int() treats specially (a sign, an
    # underscore, -0) and bad ones (negative, non-integer) at random positions,
    # under a header that now and then has no agents or a negative item count.
    odd = ["+5", "1_0", "-0", "-1", "-3", "x", "1.5"]
    rng = random.Random(2406)
    outcomes = []
    for _ in range(3000):
        n, m = rng.randint(1, 3), rng.randint(0, 5)
        bad_share = rng.choice([0.0, 0.05, 0.2, 0.5])
        lines = [rng.choice([f"0 {m}", f"{n} -1"]) if rng.random() < 0.1 else f"{n} {m}"]
        for _ in range(n + rng.choice([0, 0, 0, -1, 1])):
            width = m if rng.random() < 0.9 else m + rng.choice([-1, 1])
            tokens = [
                rng.choice(odd) if rng.random() < bad_share else str(rng.randint(0, 99))
                for _ in range(max(width, 0))
            ]
            lines.append(" ".join(tokens))
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "# comment"]))
        text = "\n".join(lines) + "\n"
        want = _outcome(_reference_parse_instance, text)
        assert _outcome(sf.parse_instance, text) == want, text
        outcomes.append(want if isinstance(want, str) else "Instance")
    for kind in ("Instance", "negative value -3", "not an integer: 'x'", "not an integer: '1.5'",
                 "agent count must be at least 1", "item count cannot be negative"):
        assert sum(kind in outcome for outcome in outcomes) >= 100, kind


def test_partition_round_trip_through_file_format():
    p = partition_of("af", "ce", "bd")
    text = sf.format_partition(p)
    assert text == "1 6\n3 5\n2 4\n"
    assert sf.parse_partition(text, n=3, m=6) == p


def test_parse_partition_empty_bundle_line():
    p = sf.parse_partition("1 2\n\n", n=2, m=2)
    assert p.bundles == (frozenset({0, 1}), frozenset())


def test_parse_partition_rejects_duplicates_and_bad_indices():
    with pytest.raises(sf.ParseError, match="twice"):
        sf.parse_partition("1 2\n2\n")
    with pytest.raises(sf.ParseError, match="1-based"):
        sf.parse_partition("0 1\n2\n")
    with pytest.raises(sf.ParseError, match="exceeds"):
        sf.parse_partition("1 2\n3\n", n=2, m=2)
    with pytest.raises(sf.ParseError, match="missing"):
        sf.parse_partition("1\n\n", n=2, m=2)
    with pytest.raises(sf.ParseError, match="bundle lines"):
        sf.parse_partition("1\n2\n", n=3, m=2)


def _reference_parse_partition(text, n=None, m=None):
    """The token-by-token partition parser that ``parse_partition`` must match."""
    lines = text.splitlines()
    if n is not None and len(lines) != n:
        raise sf.ParseError(f"expected {n} bundle lines, found {len(lines)}")
    bundles = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        bundle = set()
        for tok in line.split():
            try:
                j = int(tok)
            except ValueError:
                raise sf.ParseError(f"line {lineno}: not an integer: {tok!r}") from None
            if j < 1:
                raise sf.ParseError(f"line {lineno}: item indices are 1-based, got {j}")
            if m is not None and j > m:
                raise sf.ParseError(f"line {lineno}: item index {j} exceeds item count {m}")
            if j - 1 in seen:
                raise sf.ParseError(f"line {lineno}: item {j} appears twice")
            seen.add(j - 1)
            bundle.add(j - 1)
        bundles.append(frozenset(bundle))
    if m is not None and seen != set(range(m)):
        missing = sorted(set(range(m)) - seen)
        raise sf.ParseError(f"partition does not cover items: missing {[j + 1 for j in missing]}")
    return sf.Partition(tuple(bundles))


def test_parse_partition_matches_reference_parser():
    # Partition files of random valid partitions, then damaged: odd tokens
    # (int() accepts a sign, a leading zero and an underscore), duplicates,
    # out-of-range and missing items, and a line too many or too few.
    odd = ["0", "-1", "x", "1.5", "+2", "07", "3_0"]
    rng = random.Random(2421)
    outcomes = []
    for _ in range(12_000):
        n = rng.randint(1, 4)
        m = rng.choice([rng.randint(0, 9), rng.randint(28, 32)])
        lines = [[] for _ in range(n)]
        for j in range(1, m + 1):
            lines[rng.randrange(n)].append(str(j))
        damage = rng.choice([0, 0, 1, 2, 3])
        for _ in range(damage):
            line = rng.choice(lines)
            kind = rng.randrange(6)
            if kind == 0:
                line.insert(rng.randint(0, len(line)), rng.choice(odd))
            elif kind == 1 and m:
                rng.choice(lines).append(str(rng.randint(1, m)))
            elif kind == 2:
                line.insert(rng.randint(0, len(line)), str(m + rng.randint(1, 3)))
            elif kind == 3 and line:
                line.pop(rng.randrange(len(line)))
            elif kind == 4:
                lines.insert(rng.randint(0, len(lines)), [])
            elif kind == 5 and len(lines) > 1:
                lines.pop(rng.randrange(len(lines)))
        for line in lines:
            rng.shuffle(line)
        text = "\n".join(rng.choice([" ", "  ", "\t"]).join(line) for line in lines) + "\n"
        kwargs = {"n": rng.choice([n, None]), "m": rng.choice([m, m, None])}
        want = _outcome(lambda t: _reference_parse_partition(t, **kwargs), text)
        assert _outcome(lambda t: sf.parse_partition(t, **kwargs), text) == want, (text, kwargs)
        outcomes.append(want if isinstance(want, str) else "Partition")
    for kind in ("Partition", "bundle lines", "not an integer: 'x'", "not an integer: '1.5'",
                 "1-based, got 0", "1-based, got -1", "exceeds item count", "appears twice",
                 "missing"):
        assert sum(kind in outcome for outcome in outcomes) >= 100, kind


# ---------------------------------------------------------------------------
# instance and partition invariants
# ---------------------------------------------------------------------------


def test_instance_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        sf.Instance(0, 1, ())
    with pytest.raises(ValueError):
        sf.Instance(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        sf.Instance(1, 2, ((1, -2),))
    with pytest.raises(ValueError):
        sf.Instance(1, 2, ((1, 2.5),))


class _Int(int):
    pass


def _reference_instance_check(n, m, values):
    """The per-value loop ``Instance`` ran on every matrix before its whole-matrix test."""
    if len(values) != n:
        raise ValueError(f"expected {n} value rows, got {len(values)}")
    for row in values:
        if len(row) != m:
            raise ValueError(f"expected {m} columns, got {len(row)}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"values must be nonnegative integers, got {v!r}")


def _instance_error(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_instance_matches_the_per_value_loop():
    # Seeded matrices, some with planted bad values (bool, float, str, a
    # negative) or an accepted int subclass, and some with a long row.
    rng = random.Random(2201)
    planted = [True, False, 1.0, 2.5, "3", -1, -7, _Int(4), _Int(0)]
    verdicts = []
    for _ in range(4000):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            if m:
                rows[rng.randrange(n)][rng.randrange(m)] = rng.choice(planted)
        if rng.random() < 0.1:
            rows[rng.randrange(n)].append(1)
        values = tuple(map(tuple, rows))
        want = _instance_error(_reference_instance_check, n, m, values)
        assert _instance_error(sf.Instance, n, m, values) == want, values
        if want is None:
            assert sf.Instance(n, m, values).values is values
        verdicts.append(want)
    assert verdicts.count(None) >= 1000
    for fragment in ("got True", "got False", "got 1.0", "got '3'", "got -1", "columns"):
        assert any(fragment in str(v) for v in verdicts), fragment
    assert sf.Instance(1, 2, ((_Int(1), 2),)).values == ((1, 2),)


def test_partition_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        sf.Partition.of({0, 1}, {1, 2})


def test_partition_from_labels():
    p = sf.Partition.from_labels([(0, 1), (2, 1), (1, 0)], 3)
    assert p == sf.Partition.of({1}, {0, 2}, set())
    assert sf.Partition.from_labels([], 2) == sf.Partition.of(set(), set())
    for label in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            sf.Partition.from_labels([(0, 0), (1, label)], 3)
    with pytest.raises(ValueError, match="disjoint"):
        sf.Partition.from_labels([(0, 0), (0, 1)], 2)


def test_validate_partition_needs_full_cover():
    inst = sf.Instance.from_rows([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="bundles"):
        sf.validate_partition(inst, sf.Partition.of({0, 1}))
    with pytest.raises(ValueError, match="cover"):
        sf.validate_partition(inst, sf.Partition.of({0}, set()))


def _reference_validate_partition(inst, partition):
    if len(partition.bundles) != inst.n:
        raise ValueError(
            f"partition has {len(partition.bundles)} bundles, instance has {inst.n} agents"
        )
    if partition.items != frozenset(range(inst.m)):
        raise ValueError("partition does not cover the instance's items exactly")


def test_validate_partition_matches_the_set_comparison():
    # Random disjoint bundles drawn from 0..m+1 with items left out, so some
    # cover exactly, some miss items, some hold m or m+1, and some have both.
    rng = random.Random(2422)
    verdicts = []
    for _ in range(3000):
        n, m = rng.randint(1, 4), rng.randint(0, 8)
        inst = sf.Instance(n, m, ((0,) * m,) * n)
        k = rng.choice([n, n, n, n + 1, max(n - 1, 1)])
        pool = [j for j in range(m + 2) if rng.random() < 0.9]
        pool = [j for j in pool if j < m or rng.random() < 0.3]
        labels = [(j, rng.randrange(k)) for j in pool]
        partition = sf.Partition.from_labels(labels, k)
        want = _validation_error(_reference_validate_partition, inst, partition)
        assert _validation_error(sf.validate_partition, inst, partition) == want, (m, partition)
        verdicts.append(want)
    assert verdicts.count(None) >= 300
    assert sum("cover" in str(v) for v in verdicts) >= 300
    assert sum("bundles" in str(v) for v in verdicts) >= 300


def _validation_error(validate, inst, partition):
    try:
        validate(inst, partition)
    except ValueError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# bundle arithmetic
# ---------------------------------------------------------------------------


def test_bundle_value_blocker_row():
    assert sf.bundle_value(three_agent_blocker(), 0, lab("abc")) == 3


def test_bundle_value_empty_set():
    assert sf.bundle_value(three_agent_blocker(), 2, frozenset()) == 0


def test_bundle_value_trap_first_four():
    assert sf.bundle_value(single_swap_trap(), 0, lab("abcd", "abcdefghj")) == 156


def test_bundle_value_range_check():
    with pytest.raises(IndexError):
        sf.bundle_value(three_agent_blocker(), 0, {7})
    with pytest.raises(IndexError):
        sf.bundle_value(three_agent_blocker(), 5, {0})


# ---------------------------------------------------------------------------
# EF1 / symEF1 / symEFX
# ---------------------------------------------------------------------------


def test_ef1_rejects_empty_handed_agent():
    # Agent 1 holding {d} (worth 0 to it) still envies {a,b} after one removal.
    inst = three_agent_blocker()
    p = partition_of("ab", "c", "d")
    assert not sf.is_ef1_satisfied(inst, 0, 2, p)


def test_ef1_single_bundle_trivial():
    inst = sf.Instance.from_rows([[3, 1]])
    assert sf.is_ef1_satisfied(inst, 0, 0, sf.Partition.of({0, 1}))


def test_ef1_on_trap_partial_state():
    # First eight items of the trap instance: 132 >= 156 - 40 holds.
    trap = single_swap_trap()
    first8 = sf.Instance.from_rows([row[:8] for row in trap.values])
    p = partition_of("abcd", "efgh", alphabet="abcdefgh")
    assert sf.is_ef1_satisfied(first8, 0, 1, p)


def test_symef1_clique_instance_witness():
    assert sf.is_symef1(clique_but_solvable(), partition_of("af", "ce", "bd"))


def test_symef1_identical_singletons():
    inst = sf.Instance.from_rows([[5, 5, 5]] * 3)
    assert sf.is_symef1(inst, sf.Partition.of({0}, {1}, {2}))


def test_symef1_rejects_welfare_optimal_split():
    inst = welfare_vs_symmetry(eps_hundredths=1)
    assert not sf.is_symef1(inst, partition_of("bdf", "ace"))
    assert sf.is_symef1(inst, partition_of("cdf", "abe"))


def test_symef1_dimension_mismatch():
    with pytest.raises(ValueError):
        sf.is_symef1(three_agent_blocker(), partition_of("ab", "cd"))


def test_first_violation_witness_is_deterministic():
    # Ascending (i, k, l) scan: agent 1 receiving {d} (worth 0) envies {a,b}
    # even after dropping one item, so the first witness is (0, 2, 0, 0, 1).
    witness = sf.first_symef1_violation(three_agent_blocker(), partition_of("ab", "c", "d"))
    assert witness == (0, 2, 0, 0, 1)


def test_symefx_diagonal_blocker():
    # Near-identity matrix: some bundle has two items; its owner-to-be values
    # every other bundle too little even after dropping the cheapest item.
    inst = sf.Instance.from_rows([[100 if i == j else 1 for j in range(4)] for i in range(3)])
    for assignment in range(3**4):
        bundles = [set() for _ in range(3)]
        digits = assignment
        for j in range(4):
            bundles[digits % 3].add(j)
            digits //= 3
        assert not sf.is_symefx(inst, sf.Partition(tuple(frozenset(b) for b in bundles)))


def test_symefx_single_agent_trivial():
    inst = sf.Instance.from_rows([[2, 3]])
    assert sf.is_symefx(inst, sf.Partition.of({0, 1}))


def test_symef1_without_symefx():
    inst = sf.Instance.from_rows([[100, 50, 50], [100, 50, 50]])
    p = sf.Partition.of({1}, {0, 2})
    assert sf.is_symef1(inst, p)
    assert not sf.is_symefx(inst, p)


# The four scans core had before they became one; the reference for the test
# below. They rebuild every value and discount list per agent.


def _reference_min_item_value(inst, i, items):
    row = inst.values[i]
    return min((row[j] for j in items), default=0)


def _reference_is_ef1_satisfied(inst, i, k, partition):
    sf.core._check_agent(inst, i)
    sf.validate_partition(inst, partition)
    if not 0 <= k < len(partition.bundles):
        raise IndexError(f"bundle index {k} out of range")
    vals = [sf.bundle_value(inst, i, b) for b in partition.bundles]
    maxes = [sf.max_item_value(inst, i, b) for b in partition.bundles]
    return all(vals[k] >= vals[l] - maxes[l] for l in range(len(vals)))


def _reference_first_symef1_violation(inst, partition):
    sf.validate_partition(inst, partition)
    n = len(partition.bundles)
    for i in range(inst.n):
        vals = [sf.bundle_value(inst, i, b) for b in partition.bundles]
        maxes = [sf.max_item_value(inst, i, b) for b in partition.bundles]
        for k in range(n):
            for l in range(n):
                rhs = vals[l] - maxes[l]
                if vals[k] < rhs:
                    return (i, k, l, vals[k], rhs)
    return None


def _reference_first_symefx_violation(inst, partition):
    sf.validate_partition(inst, partition)
    n = len(partition.bundles)
    for i in range(inst.n):
        vals = [sf.bundle_value(inst, i, b) for b in partition.bundles]
        mins = [_reference_min_item_value(inst, i, b) for b in partition.bundles]
        for k in range(n):
            for l in range(n):
                rhs = vals[l] - mins[l]
                if vals[k] < rhs:
                    return (i, k, l, vals[k], rhs)
    return None


def _reference_first_ef1_violation(inst, partition):
    sf.validate_partition(inst, partition)
    for i in range(inst.n):
        vals = [sf.bundle_value(inst, i, b) for b in partition.bundles]
        maxes = [sf.max_item_value(inst, i, b) for b in partition.bundles]
        for l in range(len(vals)):
            rhs = vals[l] - maxes[l]
            if vals[i] < rhs:
                return (i, i, l, vals[i], rhs)
    return None


def _raised(fn, *args):
    """The call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_checks_match_reference_scans():
    # Witness tuples, verdicts and exception types equal the old per-check
    # scans. Value ranges from 0..1 up make zero values and ties between items
    # and between bundles common; some bundles are forced empty.
    pairs = (
        (sf.first_symef1_violation, _reference_first_symef1_violation),
        (sf.first_symefx_violation, _reference_first_symefx_violation),
        (sf.first_ef1_violation, _reference_first_ef1_violation),
    )
    rng = random.Random(25)
    seen = {fn: 0 for fn, _ in pairs}
    for _ in range(3000):
        n = rng.randint(1, 5)
        m = rng.randint(0, 12)
        M = rng.choice((1, 2, 3, 10, 1000))
        inst = sf.Instance.from_rows([[rng.randint(0, M) for _ in range(m)] for _ in range(n)])
        used = rng.randint(1, n)
        bundles = [set() for _ in range(n)]
        for j in range(m):
            bundles[rng.randrange(used)].add(j)
        rng.shuffle(bundles)
        p = sf.Partition(tuple(frozenset(b) for b in bundles))
        for fn, ref in pairs:
            witness = fn(inst, p)
            assert witness == ref(inst, p), (fn.__name__, inst, p)
            seen[fn] += witness is not None
        for i in range(n):
            for k in range(n):
                assert sf.is_ef1_satisfied(inst, i, k, p) == _reference_is_ef1_satisfied(
                    inst, i, k, p
                )
        # Malformed calls: a bundle too many or too few, an agent or bundle
        # index out of range, and combinations where the check order decides.
        wrong = sf.Partition(p.bundles + (frozenset(),))
        short = sf.Partition(p.bundles[1:])
        for part in (wrong, short):
            for fn, ref in pairs:
                assert _raised(fn, inst, part) is _raised(ref, inst, part) is ValueError
        for i, k, part in ((n, 0, p), (-1, 0, p), (0, n, p), (0, -1, p), (n, n, wrong),
                           (0, n + 1, wrong), (n, 0, short)):
            got = _raised(sf.is_ef1_satisfied, inst, i, k, part)
            assert got is _raised(_reference_is_ef1_satisfied, inst, i, k, part), (i, k)
            assert got in (IndexError, ValueError)
    assert all(count > 500 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# balance, welfare, distinct items
# ---------------------------------------------------------------------------


def test_is_balanced():
    assert sf.is_balanced(sf.Partition.of({0, 2}, {1, 3}))
    assert not sf.is_balanced(sf.Partition.of({0}, {1, 2, 3}))
    assert sf.is_balanced(sf.Partition.of({0}, set()))


def test_nash_welfare_examples():
    inst = welfare_vs_symmetry()
    mnw = sf.Assignment(partition_of("bdf", "ace"), (0, 1))
    assert sf.nash_welfare(inst, mnw) == 108
    alt = sf.Assignment(partition_of("cdf", "abe"), (0, 1))
    assert sf.nash_welfare(inst, alt) == 91
    empty_handed = sf.Assignment(partition_of("abcdef", ""), (0, 1))
    assert sf.nash_welfare(inst, empty_handed) == 0


def test_items_distinct():
    assert sf.items_distinct(three_agent_blocker())
    assert not sf.items_distinct(sf.Instance.from_rows([[1, 0], [1, 0]]))  # zero column
    assert not sf.items_distinct(sf.Instance.from_rows([[1, 1], [2, 2]]))  # duplicate


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


@st.composite
def instances(draw, max_n=4, max_m=6, max_v=30):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    rows = [[draw(st.integers(0, max_v)) for _ in range(m)] for _ in range(n)]
    return sf.Instance.from_rows(rows)


@st.composite
def instance_with_partition(draw):
    inst = draw(instances())
    bundles = [set() for _ in range(inst.n)]
    for j in range(inst.m):
        bundles[draw(st.integers(0, inst.n - 1))].add(j)
    return inst, sf.Partition(tuple(frozenset(b) for b in bundles))


@settings(max_examples=200, deadline=None)
@given(instance_with_partition(), st.integers(1, 7))
def test_row_scaling_never_changes_verdicts(pair, c):
    inst, p = pair
    for i in range(inst.n):
        rows = [list(r) for r in inst.values]
        rows[i] = [c * v for v in rows[i]]
        scaled = sf.Instance.from_rows(rows)
        assert sf.is_symef1(scaled, p) == sf.is_symef1(inst, p)
        assert sf.is_symefx(scaled, p) == sf.is_symefx(inst, p)
        assert sf.is_ef1_satisfied(scaled, i, 0, p) == sf.is_ef1_satisfied(inst, i, 0, p)


@settings(max_examples=200, deadline=None)
@given(instance_with_partition())
def test_symefx_implies_symef1(pair):
    inst, p = pair
    if sf.is_symefx(inst, p):
        assert sf.is_symef1(inst, p)


@settings(max_examples=200, deadline=None)
@given(instance_with_partition(), st.randoms(use_true_random=False))
def test_symef1_ignores_bundle_order(pair, rnd):
    inst, p = pair
    shuffled = list(p.bundles)
    rnd.shuffle(shuffled)
    assert sf.is_symef1(inst, sf.Partition(tuple(shuffled))) == sf.is_symef1(inst, p)


@settings(max_examples=100, deadline=None)
@given(instances(max_n=5, max_m=4))
def test_few_items_singletons_always_symef1(inst):
    if inst.m > inst.n:
        return
    bundles = [frozenset({j}) for j in range(inst.m)]
    bundles += [frozenset()] * (inst.n - inst.m)
    assert sf.is_symef1(inst, sf.Partition(tuple(bundles)))


@settings(max_examples=150, deadline=None)
@given(instance_with_partition(), st.randoms(use_true_random=False))
def test_nash_welfare_permutation_invariant(pair, rnd):
    inst, p = pair
    perm = list(range(inst.n))
    rnd.shuffle(perm)
    base = sf.Assignment(p, tuple(range(inst.n)))
    permuted = sf.Assignment(
        sf.Partition(tuple(p.bundles[perm[k]] for k in range(inst.n))),
        tuple(perm),
    )
    # Bundle perm[k] keeps its owner perm[k]; only the listing order moved.
    assert sf.nash_welfare(inst, permuted) == sf.nash_welfare(inst, base)
