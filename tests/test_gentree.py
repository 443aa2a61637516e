"""Succession rules and the level-counting dynamic program."""

import copy
import json
import re
from collections import Counter
from dataclasses import replace
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonnesting import gentree
from nonnesting.errors import ResourceLimitError
from nonnesting.gentree import (
    _closing_options,
    _pusher,
    CONSTRAINED_FAMILIES,
    DUMP_CHUNK,
    FAMILIES,
    FamilySpec,
    LevelDistribution,
    count_levels,
    count_sequence,
    generate_diagrams,
    level_distribution,
    successors_partition,
    successors_permutation,
)
from nonnesting import diagrams as dg
from nonnesting import refdata
from nonnesting.closedform import a108304, a108307


class TestSuccessionRules:
    def test_partition_worked_example(self):
        children = sorted(successors_partition((4, 2)).elements())
        assert children == [
            (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 2), (4, 3), (5, 2),
        ]

    def test_partition_child_count(self):
        # 2 entries + a transitory/closer pair per semi-arc below the
        # protected ones, plus one pair for the outermost protected arc
        label = (4, 2)
        n_children = sum(successors_partition(label).values())
        assert n_children == 2 + 2 * (label[0] - label[1] + 1)

    def test_empty_label_children(self):
        assert successors_partition((0, 0)) == Counter({(0, 0): 1, (1, 0): 1})

    def test_enhanced_root(self):
        # a fixed point on the empty diagram keeps the label at zero
        assert successors_partition((0, 0), enhanced=True)[(0, 0)] == 1

    def test_permutation_worked_examples(self):
        assert sum(successors_permutation((2, (0,), (0,))).values()) == 10
        assert sum(successors_permutation((4, (2,), (1,))).values()) == 21

    def test_permutation_root(self):
        children = successors_permutation((0, (0,), (0,)))
        assert children == Counter(
            {(0, (0,), (0,)): 1, (1, (0,), (0,)): 1}
        )


def _reference_successors_partition(label, enhanced):
    """The partition rule as written before its closings came from
    `_closing_options`: the ranged closings (3)/(4) and the top closing (5)
    as loops of their own."""
    k = len(label)
    s0 = label[0]
    children = Counter()
    if enhanced:
        if k >= 2:
            children[(s0, s0) + label[2:]] += 1
        elif s0 == 0:
            children[label] += 1
    else:
        children[label] += 1
    children[(s0 + 1,) + label[1:]] += 1
    for j in range(1, k):
        prefix = tuple(x - 1 for x in label[1:j])
        rest = label[j + 1 :]
        for i in range(label[j], label[j - 1]):
            children[(s0,) + prefix + (i,) + rest] += 1
            children[(s0 - 1,) + prefix + (i,) + rest] += 1
    if label[k - 1] > 0:
        dec = tuple(x - 1 for x in label[1:])
        children[(s0,) + dec] += 1
        children[(s0 - 1,) + dec] += 1
    return children


@pytest.mark.parametrize("enhanced", [False, True])
def test_partition_rule_equals_inline_closings(enhanced):
    # every non-increasing label of length 1..5 with entries <= 6
    labels = [
        label
        for length in range(1, 6)
        for label in combinations_with_replacement(range(6, -1, -1), length)
    ]
    assert len(labels) == 791
    for label in labels:
        assert successors_partition(label, enhanced) == (
            _reference_successors_partition(label, enhanced)
        ), label


def _reference_successors_permutation(label):
    """The permutation rule with its closings written out as in
    `_reference_successors_partition`: each side's ranged closings and its
    top closing as loops of their own, and the closer their product."""
    h, r, s = label

    def closings(vec):
        bounds = (h,) + vec
        options = []
        for j in range(1, len(bounds)):
            prefix = tuple(x - 1 for x in vec[: j - 1])
            for i in range(bounds[j], bounds[j - 1]):
                options.append(prefix + (i,) + vec[j:])
        if bounds[-1] > 0:
            options.append(tuple(x - 1 for x in vec))
        return options

    upper, lower = closings(r), closings(s)
    children = Counter()
    if r:
        children[(h, (h,) + r[1:], s)] += 1
    elif h == 0:
        children[label] += 1
    children[(h + 1, r, s)] += 1
    children.update((h, r2, s) for r2 in upper)
    children.update((h, r, s2) for s2 in lower)
    children.update((h - 1, r2, s2) for r2 in upper for s2 in lower)
    return children


@pytest.mark.parametrize("k", range(2, 7))
def test_permutation_rule_equals_inline_closings(k):
    # every label (h, r, s) with h <= 6; compared as dicts, as Counter's
    # own == is a loop in Python
    labels = [
        (h, r, s)
        for h in range(7)
        for r in combinations_with_replacement(range(h, -1, -1), k - 2)
        for s in combinations_with_replacement(range(h, -1, -1), k - 2)
    ]
    for label in labels:
        assert dict(successors_permutation(label)) == dict(
            _reference_successors_permutation(label)
        ), label


class TestCountSequence:
    @pytest.mark.parametrize("family,k", [
        ("partitions", 3), ("partitions", 5),
        ("partitions-enhanced", 3), ("partitions-enhanced", 6),
        ("permutations", 3), ("permutations", 4),
    ])
    def test_matches_reference_prefix(self, family, k):
        seq = refdata.lookup(family, k)
        n = 9
        assert count_sequence(FamilySpec(family, k), n) == seq.as_ints()[:n]

    @pytest.mark.parametrize("family", CONSTRAINED_FAMILIES)
    @pytest.mark.parametrize("k", range(2, 6))
    def test_count_to_fewer_is_a_prefix_of_the_count_to_more(self, family, k):
        # each size prunes under its own horizon; `verify` reads the counts
        # of several sizes from one count to the largest
        spec = FamilySpec(family, k)
        longest = count_sequence(spec, 12)
        for n in range(12):
            assert count_sequence(spec, n) == longest[:n], n

    def test_small_objects_unconstrained_by_large_k(self):
        # a 9-nesting needs 17 vertices, so every size-5 permutation counts
        assert count_sequence(FamilySpec("permutations", 9), 5) == [1, 2, 6, 24, 120]

    @pytest.mark.parametrize("family", CONSTRAINED_FAMILIES)
    def test_pusher_is_built_for_k_at_most_n_plus_2(self, family, monkeypatch):
        # a k of thousands built thousand-digit labels and took seconds
        entry = gentree._FAMILY_TABLE[family]
        built, pusher = [], entry.pusher
        monkeypatch.setattr(entry, "pusher", lambda entry, k, n_max: built.append(
            k) or pusher(entry, k, n_max))
        for k, n, cap in ((20, 4, 6), (3, 4, 3), (2, 0, 2), (4, 0, 2)):
            built.clear()
            assert count_sequence(FamilySpec(family, k), n) == count_sequence(
                FamilySpec(family, cap), n)
            assert built == [cap, cap], (k, n)

    @pytest.mark.parametrize("family", CONSTRAINED_FAMILIES)
    def test_k_past_n_plus_2_gives_the_records_at_n_plus_2(self, family):
        # the bound is exact: no label entry past index n is ever nonzero
        def records(k, n):
            out = []
            seq = count_sequence(FamilySpec(family, k), n, stats=out.append)
            return seq, [{key: v for key, v in r.items() if key != "push_s"}
                         for r in out]

        for n in range(7 if family == "permutations" else 8):
            at_bound = records(n + 2, n)
            for k in range(n + 3, n + 6):
                assert records(k, n) == at_bound, (k, n)

    def test_partitions_k2_gives_catalan(self):
        assert count_sequence(FamilySpec("partitions", 2), 7) == [
            1, 2, 5, 14, 42, 132, 429,
        ]

    def test_open_diagram_totals(self):
        levels = count_levels(FamilySpec("open-partitions"), 3)
        assert [lv.total() for lv in levels] == [1, 2, 6, 22]
        levels = count_levels(FamilySpec("open-permutations"), 3)
        assert [lv.total() for lv in levels] == [1, 2, 7, 34]

    def test_label_budget(self):
        with pytest.raises(ResourceLimitError) as exc:
            count_sequence(FamilySpec("partitions", 4), 12, max_labels=5)
        assert exc.value.reached is not None

    def test_label_budget_message(self):
        with pytest.raises(ResourceLimitError) as exc:
            count_sequence(FamilySpec("partitions", 4), 12, max_labels=5)
        assert str(exc.value) == "label budget 5 exceeded at level 3 (6 labels)"
        assert exc.value.reached == 2

    def test_label_budget_bounds_pruned_levels(self):
        # the widest unpruned level before 12 has 50 labels (level 7), the
        # widest pruned one 43
        spec = FamilySpec("partitions", 4)
        expected = refdata.lookup("partitions", 4).as_ints()[:12]
        assert count_sequence(spec, 12, max_labels=43) == expected
        with pytest.raises(ResourceLimitError) as exc:
            count_sequence(spec, 12, max_labels=42)
        assert exc.value.reached == 6
        with pytest.raises(ResourceLimitError) as exc:
            count_levels(spec, 12, max_labels=43)
        assert exc.value.reached == 6

    @pytest.mark.parametrize("family,recurrence", [
        ("partitions", a108304), ("partitions-enhanced", a108307),
    ])
    def test_k3_sequence_at_research_depth_satisfies_p_recurrence(
        self, family, recurrence
    ):
        # the deepest terms of the pruned row-sweep DP, against the
        # A108304 / A108307 P-recurrences
        n = 200
        assert [1] + count_sequence(FamilySpec(family, 3), n) == recurrence(n)

    def test_level_distribution_json(self):
        level = count_levels(FamilySpec("partitions", 3), 4)[4]
        j = json.loads(level.to_json())
        assert j["n"] == 4
        counts = {tuple(e["label"]): e["count"] for e in j["labels"]}
        assert counts[(0, 0)] == "15"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_json_labels_sorted_as_flattened(self, family):
        # labels of one level share one shape, so tuple order is the order
        # of the flattened labels
        def flatten(label):
            return tuple(
                y for x in label for y in (x if isinstance(x, list) else [x])
            )

        k = 4 if family in CONSTRAINED_FAMILIES else None
        level = level_distribution(FamilySpec(family, k), 7)
        labels = json.loads(level.to_json())["labels"]
        keys = [flatten(e["label"]) for e in labels]
        assert len(keys) > 5
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            FamilySpec("widgets", 3)

    def test_unconstrained_rejects_k(self):
        with pytest.raises(ValueError):
            FamilySpec("open-partitions", 3)

    def test_spec_is_an_immutable_value(self):
        spec = FamilySpec("partitions", 3)
        same = FamilySpec("partitions", k=3)
        assert spec == same and hash(spec) == hash(same)
        assert spec != FamilySpec("partitions", 4)
        assert spec != FamilySpec("partitions-enhanced", 3)
        assert spec != ("partitions", 3)
        assert len({spec, same, FamilySpec("open-partitions")}) == 2
        assert repr(spec) == "FamilySpec(family='partitions', k=3)"
        assert repr(FamilySpec("open-permutations")) == (
            "FamilySpec(family='open-permutations', k=None)")
        # AttributeError, which a frozen dataclass's FrozenInstanceError
        # subclasses, so a caller that catches it still does
        with pytest.raises(AttributeError):
            spec.k = 4
        with pytest.raises(AttributeError):
            del spec.family
        assert (spec.family, spec.k) == ("partitions", 3)
        assert count_sequence(spec, 8) == [1, 2, 5, 15, 52, 202, 859, 3930]

    @pytest.mark.parametrize("family,k,message", [
        ("partitions", None, "--k is required for family partitions"),
        ("open-permutations", 3, "--k is not accepted for family open-permutations"),
        ("permutations", 1, "family permutations needs k >= 2, got 1"),
        ("partitions", 3.0, r"k must be an int, got 3\.0"),
        ("partitions-enhanced", True, "k must be an int, got True"),
        ("permutations", "3", "k must be an int, got '3'"),
    ])
    def test_k_rule_messages(self, family, k, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(family, k)

    @pytest.mark.parametrize("count", [count_sequence, count_levels,
                                       level_distribution])
    @pytest.mark.parametrize("n_max", [5.0, True, "5"])
    def test_n_max_must_be_an_int(self, count, n_max):
        with pytest.raises(ValueError, match="n_max must be an int"):
            count(FamilySpec("partitions", 3), n_max)

    @pytest.mark.parametrize("count", [count_sequence, count_levels,
                                       level_distribution])
    @pytest.mark.parametrize("budget", [True, False, 2.5, 3.0, 0, -1, "3"])
    def test_max_labels_must_be_an_int_of_at_least_one(self, count, budget):
        # refused before any push: no level record is written
        records = []
        kwargs = {} if count is count_levels else {"stats": records.append}
        message = f"max_labels must be an int >= 1, got {budget!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            count(FamilySpec("permutations", 3), 6, max_labels=budget, **kwargs)
        assert records == []

    @pytest.mark.parametrize("count", [count_sequence, level_distribution])
    @pytest.mark.parametrize("stats", [1, "x", [], True])
    def test_stats_must_be_none_or_callable(self, count, stats, monkeypatch):
        # refused before any level is pushed; the first level record raised
        # TypeError
        def no_levels(*args):
            raise AssertionError("a level was pushed")

        monkeypatch.setattr(gentree, "_level_stream", no_levels)
        message = f"stats must be None or callable, got {stats!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            count(FamilySpec("partitions", 3), 3, stats=stats)


def _differential_cases():
    for family in ("partitions", "partitions-enhanced", "permutations"):
        for k in range(2, 6):
            yield family, k, 11 if (family, k) == ("permutations", 5) else 12
    yield "open-partitions", None, 10
    yield "open-permutations", None, 10


@pytest.mark.parametrize("family,k,n_max", list(_differential_cases()))
def test_pruned_sequence_equals_unpruned_levels(family, k, n_max):
    """count_sequence prunes labels that cannot close by n_max; the root
    counts of the full distributions are the plain path it replaces."""
    spec = FamilySpec(family, k)
    root = spec.root_label()
    levels = count_levels(spec, n_max)
    unpruned = [level.entries.get(root, 0) for level in levels[1:]]
    for n in range(n_max + 1):
        assert count_sequence(spec, n) == unpruned[:n]
    assert level_distribution(spec, n_max) == levels[n_max]


def _push(pusher, level, limit=None):
    """One step of `pusher` from a code dict to a code dict."""
    return pusher.to_codes(pusher.step(pusher.from_codes(level), limit))


def _rule_push(spec, level):
    """One level pushed through the succession rule label by label: the
    sum of count * spec.successors(label), with an entry for every child,
    a zero count where the counts cancel."""
    nxt = Counter()
    for label, count in level.items():
        for child, mult in spec.successors(label).items():
            nxt[child] += count * mult
    return dict(nxt)


def _code_push(spec, pusher, codes):
    """The push on label codes that every pusher's step is checked
    against: the code dict `codes` decoded, pushed by `_rule_push` and
    encoded.  A partition level leaves out its zero counts, as
    `to_codes` of its rows does; the other pushers keep every child.
    Under a limit, the reference is this dict `_under` the limit: the
    rule's children with fewer semi-arcs than the limit allows."""
    level = {pusher.decode(code): count for code, count in codes.items()}
    pushed = _rule_push(spec, level)
    zeros = spec.family not in ("partitions", "partitions-enhanced")
    return {
        pusher.encode(label): count
        for label, count in pushed.items()
        if count or zeros
    }


def _under(codes, limit):
    """The entries of a code dict below `limit`; None is no limit."""
    return codes if limit is None else {c: v for c, v in codes.items() if c < limit}


def _pusher_cases():
    for family in CONSTRAINED_FAMILIES:
        for k in range(2, 7):
            yield family, k, 9 if family == "permutations" else 14
    yield "open-partitions", None, 12
    yield "open-permutations", None, 12


@pytest.mark.parametrize("family,k,n_max", list(_pusher_cases()))
def test_pusher_equals_rule_on_full_levels(family, k, n_max):
    """Each family's pusher (range sums for partitions, the split closer
    for permutations) against its own succession rule, one level at a
    time on full unpruned levels, with one pusher kept across levels as
    the DP keeps it.  Its codes are built for n_max, as the DP builds
    them, so the deepest level's digits reach the bound."""
    spec = FamilySpec(family, k)
    pusher = _pusher(spec, n_max)
    level = {pusher.encode(spec.root_label()): 1}
    for _ in range(n_max):
        expected = _code_push(spec, pusher, level)
        assert _push(pusher, level) == expected
        level = expected
    assert len(level) > n_max


def _non_increasing(top, length):
    return st.lists(st.integers(0, top), min_size=length, max_size=length).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def _labels(family, k):
    """Valid labels of the family: s_0 >= s_1 >= ... >= 0 for partitions,
    h >= r_1 >= ... and h >= s_1 >= ... for permutations."""
    if family in ("partitions", "partitions-enhanced"):
        return _non_increasing(15, k - 1)
    if family == "permutations":
        return st.integers(0, 15).flatmap(
            lambda h: st.tuples(
                st.just(h), _non_increasing(h, k - 2), _non_increasing(h, k - 2)
            )
        )
    return st.integers(0, 40)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pusher_equals_rule_on_random_labels(data):
    """Random labels of every family with counts of either sign or zero;
    a step keeps the zero entries that `_code_push` keeps."""
    family = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.integers(2, 7)) if family in CONSTRAINED_FAMILIES else None
    spec = FamilySpec(family, k)
    # the labels' digits are at most 15, their children's at most 16
    pusher = _pusher(spec, 16)
    labels = data.draw(st.lists(_labels(family, k), min_size=1, max_size=8,
                                unique=True))
    counts = data.draw(st.lists(st.integers(-2**300, 2**300),
                                min_size=len(labels), max_size=len(labels)))
    level = {pusher.encode(label): count for label, count in zip(labels, counts)}
    expected = _code_push(spec, pusher, level)
    assert _push(pusher, level) == expected
    assert _push(pusher, level) == expected  # a cache filled by the first push


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_push_under_a_limit_equals_filtered_push(family, data):
    """The push that `count_sequence` makes under the horizon against the
    plain path it replaces: the full push, then every code at or past the
    limit dropped, and against the rule's push under the limit.  The
    labels reach past the limit as well as below it, and their counts
    have either sign or are zero."""
    k = data.draw(st.integers(2, 7)) if family in CONSTRAINED_FAMILIES else None
    spec = FamilySpec(family, k)
    pusher = _pusher(spec, 16)
    labels = data.draw(st.lists(_labels(family, k), min_size=1, max_size=8,
                                unique=True))
    counts = data.draw(st.lists(st.integers(-2**300, 2**300),
                                min_size=len(labels), max_size=len(labels)))
    level = {pusher.encode(label): count for label, count in zip(labels, counts)}
    # one past the largest semi-arc count of a child: 16, or 41 when open
    top = 17 if family in CONSTRAINED_FAMILIES else 42
    limit = data.draw(st.integers(0, top)) * pusher.weight
    pushed = _push(pusher, level, limit)
    assert pushed == _under(_push(pusher, level), limit)
    assert pushed == _under(_code_push(spec, pusher, level), limit)


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced"])
@pytest.mark.parametrize("k", range(2, 8))
def test_partition_push_under_every_limit_equals_filtered_push(family, k):
    """The range-sum push under every limit from none to past every child,
    on every full level up to n_max, against the rule's push with every
    code at or past the limit dropped.  Some labels sit exactly at a
    limit, where they make only their closers."""
    n_max = 14
    spec = FamilySpec(family, k)
    pusher = _pusher(spec, n_max)
    w0 = pusher.weight
    level = {pusher.encode(spec.root_label()): 1}
    at_a_limit = False
    for n in range(n_max):
        full = _code_push(spec, pusher, level)
        assert _push(pusher, level, None) == full, n
        for limit in (h * w0 for h in range(n + 3)):
            at_a_limit |= any(limit <= code < limit + w0 for code in level)
            assert _push(pusher, level, limit) == _under(full, limit), (n, limit)
        level = full
    assert at_a_limit


def _sparse_partition_level(k):
    """Partition labels in few rows, each row (s_0, ..., s_{k-3}) holding
    a random set of last digits s_{k-2} <= s_{k-3}, so rows have gaps;
    for k = 2, random labels (s_0,)."""
    if k == 2:
        return st.sets(st.integers(0, 15), min_size=1, max_size=8).map(
            lambda s0s: [(s0,) for s0 in s0s]
        )
    row = _non_increasing(15, k - 2).flatmap(
        lambda prefix: st.sets(st.integers(0, prefix[-1]), min_size=1,
                               max_size=6).map(
            lambda digits: [prefix + (d,) for d in sorted(digits)]
        )
    )
    return st.lists(row, min_size=1, max_size=4).map(
        lambda rows: list(dict.fromkeys(label for r in rows for label in r))
    )


def _sparse_earlier_digit_level(k):
    """Partition labels in few rows of the digits before the last (k >= 4):
    each row keeps every digit of a label but one digit j in 1..k-3 and
    holds a random set of its values s_{j+1} <= s_j <= s_{j-1}, so the
    rows of rule j have gaps."""

    def row(label, j):
        values = st.sets(st.integers(label[j + 1], label[j - 1]), min_size=1,
                         max_size=6)
        return values.map(
            lambda ds: [label[:j] + (d,) + label[j + 1:] for d in sorted(ds)]
        )

    rows = st.tuples(_non_increasing(15, k - 1), st.integers(1, k - 3))
    return st.lists(rows.flatmap(lambda lj: row(*lj)), min_size=1,
                    max_size=4).map(
        lambda rows: list(dict.fromkeys(label for r in rows for label in r))
    )


def _well_formed(pusher, rows):
    """Each row has one slot per last digit its key allows: s_{k-3} + 1
    (one slot for k = 2)."""
    return all(
        len(row) == (key % pusher.base + 1 if pusher.slots > 1 else 1)
        for key, row in rows.items()
    )


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced"])
@pytest.mark.parametrize("k", range(2, 8))
def test_row_push_equals_code_push(family, k):
    """The push of whole rows against `_code_push`, on every full level up
    to n_max and under every limit from none to past every child.  The
    levels stay as rows from one push to the next, as the DP keeps them,
    and a push leaves the level it reads unchanged."""
    n_max = 13
    spec = FamilySpec(family, k)
    pusher = _pusher(spec, n_max)
    level = {pusher.encode(spec.root_label()): 1}
    rows = pusher.from_codes(level)
    for n in range(n_max):
        before = {key: list(row) for key, row in rows.items()}
        full = _code_push(spec, pusher, level)
        for limit in [None, *(h * pusher.weight for h in range(n + 3))]:
            expected = _under(full, limit)
            pushed = pusher.step(rows, limit)
            assert _well_formed(pusher, pushed), (n, limit)
            assert pusher.to_codes(pushed) == expected, (n, limit)
            assert _push(pusher, level, limit) == expected, (n, limit)
        assert rows == before, n
        level = full
        rows = pusher.step(rows)
        assert pusher.labels(rows) == len(level)
    assert len(level) > n_max


def test_enhanced_k3_step_owns_every_row_it_makes():
    """The k = 3 enhanced fixed point adds into the rows of the step's
    output in place, so each of them must be a new list held at one key:
    on every full level up to n_max and under every limit, no list of a
    step's output is held at two keys or shared with the level it read,
    and that level is unchanged."""
    n_max = 14
    pusher = _pusher(FamilySpec("partitions-enhanced", 3), n_max)
    rows = pusher.from_codes({pusher.encode((0, 0)): 1})
    for n in range(n_max):
        before = copy.deepcopy(rows)
        read = {id(row) for row in rows.values()}
        for limit in [None, *(h * pusher.weight for h in range(n + 3))]:
            made = [id(row) for row in pusher.step(rows, limit).values()]
            assert len(set(made)) == len(made), (n, limit)
            assert read.isdisjoint(made), (n, limit)
            assert rows == before, (n, limit)
        rows = pusher.step(rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_push_equals_code_push_on_sparse_levels(data):
    """As above, on sparse levels (rows with gaps in the last digit, or
    for k >= 4 in an earlier one) with counts of either sign or zero,
    under no limit or one that some label sits at, one past or one below.
    A zero count is no label, so `_code_push` leaves it out."""
    family = data.draw(st.sampled_from(["partitions", "partitions-enhanced"]))
    k = data.draw(st.integers(2, 7))
    spec = FamilySpec(family, k)
    pusher = _pusher(spec, 16)
    levels = [_sparse_partition_level(k)]
    if k >= 4:
        levels.append(_sparse_earlier_digit_level(k))
    labels = data.draw(st.one_of(levels))
    counts = data.draw(st.lists(st.integers(-2**300, 2**300),
                                min_size=len(labels), max_size=len(labels)))
    level = {pusher.encode(label): count for label, count in zip(labels, counts)}
    near = sorted({label[0] + d for label in labels for d in (-1, 0, 1)} - {-1})
    limit = data.draw(st.none() | st.sampled_from(near).map(
        lambda h: h * pusher.weight))
    expected = _under(_code_push(spec, pusher, level), limit)
    assert _push(pusher, level, limit) == expected


@pytest.mark.parametrize("k,n_max", list(zip(range(2, 8), (13, 13, 11, 9, 8, 7))))
def test_permutation_row_step_equals_code_push(k, n_max):
    """The push of whole (h, r) rows against `_code_push`, on every full
    level up to n_max and under every limit from none to past every child.
    The levels stay as rows from one step to the next, as the DP keeps
    them, a step leaves every row of the level it reads unchanged, and it
    makes no empty row."""
    spec = FamilySpec("permutations", k)
    pusher = _pusher(spec, n_max)
    level = {pusher.encode(spec.root_label()): 1}
    rows = pusher.from_codes(level)
    for n in range(n_max):
        before = copy.deepcopy(rows)
        full = _code_push(spec, pusher, level)
        for limit in [None, *(h * pusher.weight for h in range(n + 3))]:
            pushed = pusher.step(rows, limit)
            assert pusher.to_codes(pushed) == _under(full, limit), (n, limit)
            assert all(pushed.values()), (n, limit)
            assert rows == before, (n, limit)
        level = full
        rows = pusher.step(rows)
        assert pusher.to_codes(rows) == level, n
        assert pusher.labels(rows) == len(level), n
    assert len(level) > n_max


def _sparse_permutation_level(k):
    """Permutation labels in few (h, r) rows, each row holding a random
    set of lower vectors s with s_1 <= h, so rows have gaps; several rows
    share an h, so their upper closings meet at one key."""
    def rows(h):
        row = st.tuples(_non_increasing(h, k - 2), st.lists(
            _non_increasing(h, k - 2), min_size=1, max_size=6, unique=True))
        return st.lists(row, min_size=1, max_size=3).map(
            lambda rs: [(h, r, s) for r, ss in rs for s in ss]
        )

    return st.lists(st.integers(0, 15).flatmap(rows), min_size=1,
                    max_size=3).map(
        lambda groups: list(dict.fromkeys(label for g in groups for label in g))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_permutation_row_step_equals_code_push_on_sparse_levels(data):
    """As above, on sparse levels of few rows with counts of either sign
    or zero, under no limit or one that some label sits at, one past or
    one below.  Every child code is kept, a zero count included, the step
    leaves the level it reads unchanged, and it makes no empty row."""
    k = data.draw(st.integers(2, 7))
    spec = FamilySpec("permutations", k)
    pusher = _pusher(spec, 16)
    labels = data.draw(_sparse_permutation_level(k))
    counts = data.draw(st.lists(st.integers(-2**300, 2**300),
                                min_size=len(labels), max_size=len(labels)))
    level = {pusher.encode(label): count for label, count in zip(labels, counts)}
    near = sorted({label[0] + d for label in labels for d in (-1, 0, 1)} - {-1})
    limit = data.draw(st.none() | st.sampled_from(near).map(
        lambda h: h * pusher.weight))
    expected = _under(_code_push(spec, pusher, level), limit)
    rows = pusher.from_codes(level)
    before = copy.deepcopy(rows)
    pushed = pusher.step(rows, limit)
    assert pusher.to_codes(pushed) == expected
    assert all(pushed.values())
    assert rows == before
    assert _push(pusher, level, limit) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permutation_rows_round_trip(data):
    """`from_codes` and `to_codes` are inverse on a code dict, zero counts
    included; `labels` counts its entries and `count_of` reads each one,
    and 0 for a code it does not hold."""
    k = data.draw(st.integers(2, 7))
    pusher = _pusher(FamilySpec("permutations", k), 15)
    labels = data.draw(st.lists(_labels("permutations", k), min_size=2,
                                max_size=12, unique=True))
    counts = data.draw(st.lists(st.integers(-2**70, 2**70),
                                min_size=len(labels), max_size=len(labels)))
    codes = {pusher.encode(label): count for label, count in zip(labels, counts)}
    absent = codes.popitem()[0]
    rows = pusher.from_codes(codes)
    assert pusher.to_codes(rows) == codes
    assert pusher.labels(rows) == len(codes)
    for code, count in codes.items():
        assert pusher.count_of(rows, code) == count
    assert pusher.count_of(rows, absent) == 0


@pytest.mark.parametrize("k", range(2, 8))
def test_permutation_closings_from_digits_equal_option_tuples(k):
    """Every (h, vector) key of levels up to n_max = 12, moved-down keys
    with v_1 = h + 1 included: `lower` holds the deltas to v of the encoded
    `_closing_options`, in their order.  An (h, r) key reads the same
    table, so this pins the upper closings as well as the lower."""
    n_max = 12
    pusher = _pusher(FamilySpec("permutations", k), n_max)
    vector, m = pusher.vector, k - 2
    for h in range(n_max + 1):
        top = min(h + 1, n_max)
        for vec in combinations_with_replacement(range(top, -1, -1), m):
            v = pusher.encode_digits(vec)
            hv = h * vector + v
            expected = [
                pusher.encode_digits(option) - v
                for option in _closing_options(h, vec)
            ]
            assert pusher._lower(hv) == expected, (h, vec)
            assert pusher.lower[hv] == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closing_options_from_h_are_those_from_h_less_one_and_one_more(data):
    """The identity the permutation push's one lower pass rests on: the
    options from h are those from h - 1 plus the vector with v_1 set to
    h - 1 when v_1 < h; for an empty vector (k = 2), () when h = 1."""
    h = data.draw(st.integers(1, 15))
    vec = data.draw(st.integers(0, 5).flatmap(lambda m: _non_increasing(h, m)))
    if vec:
        extra = [(h - 1,) + vec[1:]] if vec[0] < h else []
    else:
        extra = [()] if h == 1 else []
    assert sorted(_closing_options(h, vec)) == sorted(
        _closing_options(h - 1, vec) + extra
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codes_round_trip_in_label_order(data):
    """decode(encode(label)) is the label, and code order is label order,
    for codes built with a bound equal to the largest digit drawn."""
    family = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.integers(2, 6)) if family in CONSTRAINED_FAMILIES else None
    labels = data.draw(st.lists(_labels(family, k), min_size=1, max_size=8,
                                unique=True))
    pusher = _pusher(FamilySpec(family, k), 15)
    for label in labels:
        assert pusher.decode(pusher.encode(label)) == label
    assert sorted(labels, key=pusher.encode) == sorted(labels)


@pytest.mark.parametrize("family,k,label", [
    ("partitions", 3, (6, 0)),
    ("partitions-enhanced", 4, (5, 5, 9)),
    ("permutations", 2, (6, (), ())),
    ("permutations", 4, (5, (5, 1), (6, 0))),
])
def test_encode_rejects_a_digit_outside_the_base(family, k, label):
    # codes for n_max = 5 are in base 6: a digit of 6 would carry
    pusher = _pusher(FamilySpec(family, k), 5)
    with pytest.raises(ValueError, match="outside base 6"):
        pusher.encode(label)


def _old_json_dict(level):
    """The object `count --all-labels --format json` used to dump: labels
    sorted, each written as a list, a permutation's r and s as lists."""

    def label_to_json(label):
        if isinstance(label, int):
            return [label]
        if len(label) == 3 and isinstance(label[1], tuple):
            h, r, s = label
            return [h, list(r), list(s)]
        return list(label)

    return {
        "n": level.level,
        "labels": [
            {"label": label_to_json(label), "count": str(count)}
            for label, count in sorted(level.entries.items())
        ],
    }


def _writer_cases():
    for family in CONSTRAINED_FAMILIES:
        for k in range(2, 7):
            yield family, k
    yield "open-partitions", None
    yield "open-permutations", None


def _decoded(pusher, rows):
    """The (label, count) pairs of a level held in the pusher's form, read
    as its code dict, `to_codes`, decoded in code order."""
    codes = pusher.to_codes(rows)
    return [(pusher.decode(code), codes[code]) for code in sorted(codes)]


@pytest.mark.parametrize("family,k", list(_writer_cases()))
def test_json_writer_equals_dumped_sorted_dict(family, k):
    """LevelDistribution.to_json against json.dumps of the dict it replaces,
    on levels 0..9; k = 2 has the 1-tuple partition labels and permutation
    labels with empty r and s.  `entries`, which that dict is built from,
    is the level's code dict decoded in code order."""
    spec = FamilySpec(family, k)
    for n in range(10):
        level = level_distribution(spec, n)
        assert list(level.entries.items()) == _decoded(level._pusher, level._rows)
        assert list(level.entries) == sorted(level.entries)
        assert level.to_json() == json.dumps(_old_json_dict(level))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walk_and_count_bits_equal_the_code_dict_on_sparse_levels(data):
    """On a level built with `from_codes` from labels with counts of either
    sign or zero, `entries`, which the pusher's `walk` reads from the
    rows, is the level's code dict decoded in code order, a partition
    level without its zero counts, which `to_codes` drops; `total()` is
    the dict's sum, and `count_bits` the widest bit length of its counts."""
    family = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.integers(2, 7)) if family in CONSTRAINED_FAMILIES else None
    pusher = _pusher(FamilySpec(family, k), 15)
    labels = data.draw(st.lists(_labels(family, k), min_size=1, max_size=12,
                                unique=True))
    counts = data.draw(st.lists(st.just(0) | st.integers(-2**300, 2**300),
                                min_size=len(labels), max_size=len(labels)))
    rows = pusher.from_codes(
        {pusher.encode(label): count for label, count in zip(labels, counts)}
    )
    codes = pusher.to_codes(rows)
    level = LevelDistribution(15, rows, pusher)
    assert level.total() == sum(codes.values())
    assert level._entries is None
    assert list(level.entries.items()) == _decoded(pusher, rows)
    assert pusher.count_bits(rows) == max(
        (count.bit_length() for count in codes.values()), default=0
    )


def _too_open(spec, n):
    """A label of spec's shape with n + 1 semi-arcs, more than any label of
    level n has, and a digit outside the codes of a level-n pusher."""
    root = spec.root_label()
    return n + 1 if isinstance(root, int) else (n + 1,) + root[1:]


@pytest.mark.parametrize("family,k", list(_writer_cases()))
def test_json_from_codes_equals_dumped_entries(family, k):
    """to_json() writes from the label codes and entries is decoded on first
    read: the dump equals json.dumps of the dict built from entries whether
    entries is read before or after it, and total() and entries.get() agree
    with the decoded entries."""
    spec = FamilySpec(family, k)
    for n in (0, 1, 5, 8):
        dumped_first = level_distribution(spec, n)
        text = dumped_first.to_json()
        assert text == json.dumps(_old_json_dict(dumped_first))
        decoded_first = level_distribution(spec, n)
        expected = json.dumps(_old_json_dict(decoded_first))
        assert decoded_first.to_json() == expected == text
        assert count_levels(spec, 8)[n] == decoded_first == dumped_first
        for level in (level_distribution(spec, n), decoded_first):
            total = level.total()
            assert total == sum(level.entries.values()) > 0
            for label, count in level.entries.items():
                assert level.entries.get(label, 0) == count
            assert level.entries.get(_too_open(spec, n), 0) == 0


def _labels_per_piece(pieces, fmt):
    """The number of labels in each piece of a dump in format fmt that
    holds any."""
    if fmt == "json":
        sizes = [piece.count('{"label": ') for piece in pieces]
    else:
        sizes = [piece.count("\n") for piece in pieces]
        if fmt == "csv":
            sizes[0] -= 1  # the header line
    return [size for size in sizes if size]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dump_writes_one_chunk_of_labels_at_a_time(fmt):
    """A dump of 11,262 labels reaches `write` as pieces of at most one
    chunk of labels each, all chunks full but the last, without decoding
    `entries`; to_json() is the JSON dump's line."""
    level = level_distribution(FamilySpec("permutations", 5), 11)
    pieces = []
    level.dump(pieces.append, fmt)
    assert level._entries is None
    if fmt == "json":
        assert "".join(pieces) == level.to_json() + "\n"
    labels = _labels_per_piece(pieces, fmt)
    full, rest = divmod(len(level.entries), DUMP_CHUNK)
    assert labels == [DUMP_CHUNK] * full + [rest] * (rest > 0)
    assert len(labels) > 1


@pytest.mark.parametrize("family,k,n,fmt", [
    ("partitions", 4, 7, "text"), ("partitions", 4, 7, "json"),
    ("partitions", 4, 7, "csv"), ("permutations", 4, 5, "text"),
    ("permutations", 4, 5, "json"), ("permutations", 4, 5, "csv"),
])
def test_dump_splits_a_row_between_chunks(monkeypatch, family, k, n, fmt):
    """At a chunk of 4 labels, some row of the level (a partition prefix,
    a permutation's (h, r)) holds labels on both sides of a chunk's end:
    the dump still hands `write` pieces of 4 labels each but the last,
    without decoding `entries`."""
    monkeypatch.setattr(gentree, "DUMP_CHUNK", 4)
    level = level_distribution(FamilySpec(family, k), n)
    ends = list(accumulate(map(len, level._pusher.walk(level._rows, False))))
    assert any(start // 4 < (end - 1) // 4 for start, end in zip([0] + ends, ends))
    pieces = []
    level.dump(pieces.append, fmt)
    full, rest = divmod(ends[-1], 4)
    assert _labels_per_piece(pieces, fmt) == [4] * full + [rest] * (rest > 0)
    assert level._entries is None


def test_dump_rejects_an_unknown_format():
    """Before it writes anything, for each pusher."""
    for family, k in ("partitions", 3), ("permutations", 3), ("open-partitions", None):
        level = level_distribution(FamilySpec(family, k), 2)
        pieces = []
        with pytest.raises(ValueError, match="unknown dump format 'xml'"):
            level.dump(pieces.append, "xml")
        assert pieces == [], family


@pytest.mark.parametrize("family,k,codes", [
    ("partitions", 3, {0: 0}), ("partitions", 3, {}), ("permutations", 3, {}),
    ("open-partitions", None, {}),
])
def test_dump_of_a_level_with_no_label(family, k, codes):
    """A level that holds no label (a partition level's zero slots are no
    labels) dumps as the CSV header alone, an empty JSON list and no text."""
    pusher = _pusher(FamilySpec(family, k), 3)
    level = LevelDistribution(3, pusher.from_codes(codes), pusher)
    dumps = {}
    for fmt in ("csv", "json", "text"):
        pieces = []
        level.dump(pieces.append, fmt)
        dumps[fmt] = "".join(pieces)
    assert dumps == {
        "csv": "label,count\n",
        "json": '{"n": 3, "labels": []}\n',
        "text": "",
    }


class TestLevelStats:
    @pytest.mark.parametrize("family,k", [
        ("partitions", 4), ("partitions-enhanced", 3), ("permutations", 3),
        ("open-permutations", None),
    ])
    def test_records_match_levels(self, family, k):
        spec = FamilySpec(family, k)
        n = 9
        levels = count_levels(spec, n)
        records = []
        assert level_distribution(spec, n, stats=records.append) == levels[n]
        assert [r["level"] for r in records] == list(range(1, n + 1))
        sizes = [len(level.entries) for level in levels[1:]]
        assert [r["labels_kept"] for r in records] == sizes
        assert [r["max_count_bits"] for r in records] == [
            max(level.entries.values()).bit_length() for level in levels[1:]
        ]
        assert all(r["push_s"] >= 0 for r in records)

        records.clear()
        assert count_sequence(spec, n, stats=records.append) == count_sequence(spec, n)
        kept = [
            sum(1 for label in level.entries
                if (label if isinstance(label, int) else label[0]) <= n - m)
            for m, level in enumerate(levels[1:], 1)
        ]
        assert records[0]["labels_kept"] == sizes[0]
        assert [r["labels_kept"] for r in records] == kept
        assert kept[-1] == 1 < max(kept)


    @pytest.mark.parametrize("family,k", [
        ("partitions", 4), ("partitions-enhanced", 3), ("permutations", 3),
        ("open-permutations", None),
    ])
    def test_labels_in_are_the_labels_pushed(self, family, k):
        # each level reads the labels the level before kept, pruned or not
        spec = FamilySpec(family, k)
        n = 9
        for count in (level_distribution, count_sequence):
            records = []
            count(spec, n, stats=records.append)
            kept = [1] + [r["labels_kept"] for r in records[:-1]]
            assert [r["labels_in"] for r in records] == kept


class TestGenerateDiagrams:
    def test_closed_partition_count(self):
        out = list(generate_diagrams(FamilySpec("partitions", 3), 4, closed_only=True))
        assert len(out) == 15
        assert len(set(out)) == 15

    def test_open_count_matches_dp(self):
        spec = FamilySpec("partitions-enhanced", 3)
        total = count_levels(spec, 5)[5].total()
        assert sum(1 for _ in generate_diagrams(spec, 5)) == total

    def test_permutation_generation_matches_dp(self):
        spec = FamilySpec("permutations", 3)
        out = list(generate_diagrams(spec, 4, closed_only=True))
        assert len(out) == 24
        total = count_levels(spec, 4)[4].total()
        assert sum(1 for _ in generate_diagrams(spec, 4)) == total

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate_diagrams(FamilySpec("partitions", 3), -1)

    @pytest.mark.parametrize("n", [1.5, True, "3"])
    def test_size_must_be_an_int(self, n):
        # a float walked forever without yielding, and True ran as n = 1
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            generate_diagrams(FamilySpec("partitions", 3), n)

    def test_deep_walk_needs_no_recursion(self):
        spec = FamilySpec("partitions", 3)
        assert next(generate_diagrams(spec, 1500, closed_only=True)).n == 1500
        assert next(generate_diagrams(spec, 1500)).n == 1500


def _walk_cases():
    for family in CONSTRAINED_FAMILIES:
        for k in (2, 3, 4):
            yield family, k, 6 if family == "permutations" else 7
    yield "open-partitions", None, 7
    yield "open-permutations", None, 6


@pytest.mark.parametrize("family,k,n_max", list(_walk_cases()))
def test_closed_only_walk_equals_filtered_walk(family, k, n_max):
    """The closed-only walk skips prefixes that cannot close; filtering the
    full walk is the plain path it replaces."""
    spec = FamilySpec(family, k)
    for n in range(n_max + 1):
        pruned = list(generate_diagrams(spec, n, closed_only=True))
        full = [d for d in generate_diagrams(spec, n) if d.is_closed()]
        assert pruned == full
    assert len(pruned) > 100


def _object_walk(spec, n, closed_only):
    """The walk the in-place one replaces: one immutable diagram per tree
    node, its children built by `apply_step` from `legal_steps`."""
    root, enhanced = spec.walk_start()
    change = dg.SEMI_ARC_CHANGE

    def children(d):
        steps = dg.legal_steps(d, spec.k, enhanced)
        if closed_only:
            room = n - d.n - 1 - d.semi_arcs()
            steps = [s for s in steps if change[s[0]] <= room]
        return (dg.apply_step(d, s) for s in steps)

    stack = [iter((root,))]
    while stack:
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
        elif d.n == n:
            yield d
        else:
            stack.append(children(d))


def _reference_cases():
    for family in CONSTRAINED_FAMILIES:
        for k in (2, 3, 4, 5):
            yield family, k, 6 if family == "permutations" else 7
    yield "open-partitions", None, 6
    yield "open-permutations", None, 5


@pytest.mark.parametrize("closed_only", [False, True])
@pytest.mark.parametrize("family,k,n_max", list(_reference_cases()))
def test_walk_equals_object_walk(family, k, n_max, closed_only):
    """The in-place walk yields the object-per-node walk's diagrams, in its
    order.  `freeze()` sets the walk state's fields as they are: each
    diagram equals its copy rebuilt through the public constructor, by
    value, hash, repr, attribute dict and JSON line, and its direct JSON is
    json.dumps of its dict.

    `apply_step` is the walk state's step, so the object walk does not
    check the step by itself; the DP does.  Each walked list has no
    duplicate, every diagram's label (k - 1 forbids a k-nesting) computes
    without ConstraintViolation, and the list is as long as the DP's count
    of the level: every label for an open walk, the closed count for a
    closed-only one."""
    spec = FamilySpec(family, k)
    label = {
        "partitions": lambda d: dg.partition_label(d, k - 1),
        "partitions-enhanced": lambda d: dg.partition_label(d, k - 1, enhanced=True),
        "permutations": lambda d: dg.permutation_label(d, k - 1),
    }.get(family)
    closed_counts = [1] + count_sequence(spec, n_max)
    for n in range(n_max + 1):
        walked = list(generate_diagrams(spec, n, closed_only=closed_only))
        assert walked == list(_object_walk(spec, n, closed_only))
        for d in walked:
            rebuilt = replace(d)
            assert rebuilt == d
            assert hash(rebuilt) == hash(d)
            assert repr(rebuilt) == repr(d)
            assert list(vars(rebuilt).items()) == list(vars(d).items())
            assert rebuilt.to_json() == d.to_json() == json.dumps(d.to_json_dict())
        assert len(set(walked)) == len(walked)
        if label is not None:
            for d in walked:
                label(d)
        expected = closed_counts[n] if closed_only else level_distribution(spec, n).total()
        assert len(walked) == expected
    assert len(walked) > 20


_PARTITION_ROOT = dg.OpenPartitionDiagram(0)
_PERMUTATION_ROOT = dg.OpenPermutationDiagram(0)

# walk states broken on purpose, as (root, state fields, the public
# constructor's arguments for the same fields)
_BROKEN_STATES = {
    "duplicate partition semi-arc origin": (
        _PARTITION_ROOT, dict(n=4, closed=[(1, 3)], opens=[2, 2]),
        (4, ((1, 3),), (2, 2)),
    ),
    "partition arc past n": (
        _PARTITION_ROOT, dict(n=3, closed=[(1, 2), (2, 4)], opens=[]),
        (3, ((1, 2), (2, 4)), ()),
    ),
    "duplicate permutation semi-arc origin": (
        _PERMUTATION_ROOT,
        dict(n=4, upper=[(1, 1)], lower=[], upper_open=[2, 2], lower_open=[3, 4]),
        (4, ((1, 1),), (), (2, 2), (3, 4)),
    ),
    "permutation arc past n": (
        _PERMUTATION_ROOT,
        dict(n=3, upper=[(1, 1)], lower=[(2, 4)], upper_open=[], lower_open=[]),
        (3, ((1, 1),), ((2, 4),), (), ()),
    ),
    "unequal semi-arc counts": (
        _PERMUTATION_ROOT,
        dict(n=3, upper=[(1, 2)], lower=[], upper_open=[3], lower_open=[]),
        (3, ((1, 2),), (), (3,), ()),
    ),
}


@pytest.mark.parametrize("fault", list(_BROKEN_STATES))
def test_freeze_validates_as_the_constructor(fault):
    """Every frozen diagram is validated: a broken walk state raises the
    public constructor's ValueError, with its message."""
    root, fields, arguments = _BROKEN_STATES[fault]
    state = dg.walk_state(root, 3)
    for name, value in fields.items():
        setattr(state, name, value)
    with pytest.raises(ValueError) as public:
        type(root)(*arguments)
    with pytest.raises(ValueError) as frozen:
        state.freeze()
    assert str(frozen.value) == str(public.value)


@pytest.mark.parametrize("root,fields,message", [
    (_PARTITION_ROOT, dict(n=3, opens=[3, 1]),
     r"^semi-arc origins \[3, 1\] are not ascending$"),
    (_PERMUTATION_ROOT, dict(n=3, upper_open=[3, 1], lower_open=[1, 2]),
     r"^upper semi-arc origins \[3, 1\] are not ascending$"),
])
def test_freeze_rejects_origins_out_of_order(root, fields, message):
    """`freeze()` does not sort the origins, so it checks that they
    ascend; the public constructor sorts them first."""
    state = dg.walk_state(root, 3)
    for name, value in fields.items():
        setattr(state, name, value)
    with pytest.raises(ValueError, match=message):
        state.freeze()


def _filtered_closed_walk(spec, n, last_level=None):
    """`generate_diagrams(spec, n, closed_only=True)` as it was before the
    last step was taken directly: every node, those at level n - 1 too,
    takes `state.steps()` filtered by `SEMI_ARC_CHANGE`.  With a list
    `last_level`, each node at level n - 1 appends its filtered steps and
    its `closing_step()`."""
    root, enhanced = spec.walk_start()
    if n == 0:
        yield root
        return
    state = dg.walk_state(root, spec.k, enhanced)
    change = dg.SEMI_ARC_CHANGE

    def steps():
        room = n - state.n - 1 - state.semi_arcs()
        legal = [s for s in state.steps() if change[s[0]] <= room]
        if last_level is not None and state.n == n - 1:
            last_level.append((legal, state.closing_step()))
        return legal

    frames = [iter(steps())]
    path = []
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if path:
                state.undo(path.pop())
            continue
        state.apply(step)
        if state.n == n:
            yield state.freeze()
            state.undo(step)
        else:
            path.append(step)
            frames.append(iter(steps()))


def _every_family(n_max):
    for family in FAMILIES:
        for k in range(2, 6) if family in CONSTRAINED_FAMILIES else (None,):
            for n in range(n_max + 1):
                yield family, k, n


@pytest.mark.parametrize("family,k,n", list(_every_family(7)))
def test_closed_walk_equals_filtered_closed_walk(family, k, n):
    """Taking the forced last step directly streams the same JSON lines as
    filtering every node's legal steps."""
    spec = FamilySpec(family, k)
    walked = [d.to_json() for d in generate_diagrams(spec, n, closed_only=True)]
    assert walked == [d.to_json() for d in _filtered_closed_walk(spec, n)]


@pytest.mark.parametrize("family,k,n", list(_every_family(7)))
def test_last_level_steps_are_the_closing_step(family, k, n):
    """At level n - 1 of a closed-only walk the filtered legal steps are
    exactly the closing step."""
    last_level = []
    list(_filtered_closed_walk(FamilySpec(family, k), n, last_level))
    assert len(last_level) == (n > 0) * len(
        list(generate_diagrams(FamilySpec(family, k), n, closed_only=True))
    )
    for legal, closing in last_level:
        assert legal == [closing]
