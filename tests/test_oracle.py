"""Brute-force enumeration and the definitional nesting check."""

from bisect import bisect_left
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from nonnesting.closedform import bell, catalan
from nonnesting.diagrams import max_nesting, permutation_arcs
from nonnesting.errors import ResourceLimitError
from nonnesting.gentree import FamilySpec, count_sequence
from nonnesting.oracle import (
    _partition_walk,
    _permutation_walk,
    nesting_histogram,
    oracle_count,
)
from reference import (
    contains_knesting,
    max_crossing,
    partition_to_arcs,
    restricted_growth_strings,
    rgs_arcs,
    rgs_to_blocks,
)


class TestRGS:
    @pytest.mark.parametrize("n", range(7))
    def test_count_is_bell(self, n):
        assert sum(1 for _ in restricted_growth_strings(n)) == bell(n)

    def test_unique_and_canonical(self):
        seen = set(restricted_growth_strings(5))
        assert len(seen) == bell(5)
        for rgs in seen:
            assert rgs[0] == 0
            for i in range(1, 5):
                assert rgs[i] <= max(rgs[:i]) + 1


class TestPartitionArcs:
    def test_worked_example(self):
        blocks = [[1, 3, 5], [2], [4, 6], [7, 8, 9]]
        assert partition_to_arcs(blocks) == [
            (1, 3), (3, 5), (4, 6), (7, 8), (8, 9),
        ]

    def test_singletons_give_no_arcs(self):
        assert partition_to_arcs([[1], [2], [3]]) == []

    @pytest.mark.parametrize("n", range(9))
    def test_one_pass_arcs_equal_block_arcs(self, n):
        # rgs_arcs replaces building blocks, sorting them and joining
        # consecutive elements; that path is the reference
        for rgs in restricted_growth_strings(n):
            blocks = rgs_to_blocks(rgs)
            plain = partition_to_arcs(blocks)
            singletons = [(b[0], b[0]) for b in blocks if len(b) == 1]
            assert sorted(rgs_arcs(rgs)) == plain
            assert sorted(rgs_arcs(rgs, enhanced=True)) == sorted(plain + singletons)

    def test_arc_count_identity(self):
        for rgs in restricted_growth_strings(6):
            blocks = rgs_to_blocks(rgs)
            assert len(partition_to_arcs(blocks)) == 6 - len(blocks)


class TestOracleCounts:
    def test_spot_values(self):
        assert oracle_count("partitions", 3, 6) == 202
        assert oracle_count("partitions-enhanced", 3, 5) == 51
        assert oracle_count("permutations", 3, 5) == 118

    def test_two_nonnesting_permutations_are_catalan(self):
        for n in range(1, 7):
            assert oracle_count("permutations", 2, n) == catalan(n)

    def test_small_sizes_cannot_nest(self):
        # a k-nesting needs 2k vertices, an enhanced one 2k - 1
        for k in (3, 4):
            for n in range(2 * k):
                assert oracle_count("partitions", k, n) == bell(n)
            for n in range(2 * k - 1):
                assert oracle_count("partitions-enhanced", k, n) == bell(n)

    @pytest.mark.parametrize("family,n_max", [
        ("partitions", 8), ("partitions-enhanced", 8), ("permutations", 7),
    ])
    def test_matches_generating_tree(self, family, n_max):
        for k in (2, 3):
            dp = count_sequence(FamilySpec(family, k), n_max)
            brute = [oracle_count(family, k, n) for n in range(1, n_max + 1)]
            assert brute == dp

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            oracle_count("partitions", 3, 40)
        with pytest.raises(ResourceLimitError):
            oracle_count("permutations", 3, 15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracle_count("partitions", 1, 4)
        with pytest.raises(ValueError):
            oracle_count("partitions", 3, -1)
        with pytest.raises(ValueError):
            oracle_count("trees", 3, 4)


def _reference_count(family, k, n):
    """The per-k enumeration that one histogram per size replaced: it
    enumerates every object again for each k."""
    if family in ("partitions", "partitions-enhanced"):
        enhanced = family == "partitions-enhanced"
        return sum(
            1
            for rgs in restricted_growth_strings(n)
            if max_nesting(rgs_arcs(rgs, enhanced), enhanced=enhanced) < k
        )

    def free(sigma):
        upper, lower = permutation_arcs(sigma)
        return max_nesting(upper, enhanced=True) < k and max_nesting(lower) < k

    return sum(1 for sigma in permutations(range(1, n + 1)) if free(sigma))


class TestNestingHistogram:
    @pytest.mark.parametrize("family,n_max", [
        ("partitions", 8), ("partitions-enhanced", 8), ("permutations", 7),
    ])
    def test_counts_equal_per_k_enumeration(self, family, n_max):
        for n in range(n_max + 1):
            for k in range(2, 6):
                assert oracle_count(family, k, n) == _reference_count(family, k, n)

    @pytest.mark.parametrize(
        "family", ["partitions", "partitions-enhanced", "permutations"]
    )
    def test_one_entry_per_object(self, family):
        size = factorial if family == "permutations" else bell
        for n in range(7):
            hist = nesting_histogram(family, n)
            assert isinstance(hist, tuple)
            assert sum(hist) == size(n)
            assert hist[-1] > 0


def _plain_histogram(family, n):
    """The path the walk replaced: build each object's arcs and measure
    them with `max_nesting`, one object at a time."""
    if family == "permutations":
        depths = (
            max(max_nesting(upper, enhanced=True), max_nesting(lower))
            for upper, lower in map(permutation_arcs, permutations(range(1, n + 1)))
        )
    else:
        enhanced = family == "partitions-enhanced"
        depths = (
            max_nesting(rgs_arcs(rgs, enhanced), enhanced=enhanced)
            for rgs in restricted_growth_strings(n)
        )
    counts = Counter(depths)
    return tuple(counts[m] for m in range(max(counts) + 1))


class TestWalk:
    @pytest.mark.parametrize("family,n", [
        *((family, n) for family in ("partitions", "partitions-enhanced")
          for n in range(10)),
        *(("permutations", n) for n in range(8)),
    ])
    def test_histogram_equals_plain_enumeration(self, family, n):
        assert nesting_histogram(family, n) == _plain_histogram(family, n)


def _crossings_and_nestings(family, n):
    """(maximum crossing, maximum nesting) of each size-n object: upper
    arcs enhanced, with fixed points as loops, and lower arcs strict for
    permutations; for partitions, the family's own variant."""
    if family == "permutations":
        for upper, lower in map(permutation_arcs, permutations(range(1, n + 1))):
            yield (
                max(max_crossing(upper, enhanced=True), max_crossing(lower)),
                max(max_nesting(upper, enhanced=True), max_nesting(lower)),
            )
    else:
        enhanced = family == "partitions-enhanced"
        for rgs in restricted_growth_strings(n):
            arcs = rgs_arcs(rgs, enhanced)
            yield (max_crossing(arcs, enhanced), max_nesting(arcs, enhanced))


@pytest.mark.parametrize("family,n_max", [
    ("partitions", 9), ("partitions-enhanced", 9), ("permutations", 8),
])
def test_crossings_and_nestings_are_symmetric(family, n_max):
    """The joint (crossing, nesting) histogram is symmetric (Chen et al.
    for partitions, Burrill, Mishna and Post for permutations), and its
    nesting marginal is the oracle's nesting histogram."""
    for n in range(n_max + 1):
        joint = Counter(_crossings_and_nestings(family, n))
        assert joint == Counter({(ne, cr): c for (cr, ne), c in joint.items()}), n
        nestings = Counter()
        for (_, ne), c in joint.items():
            nestings[ne] += c
        depth = max(nestings)
        assert tuple(nestings[m] for m in range(depth + 1)) == (
            nesting_histogram(family, n)
        ), n


def _frame_per_object_partition_walk(n, enhanced):
    """`oracle._partition_walk` as it was before the last element was
    counted in its parent's loop: every partition is a leaf call of its
    own, counted at p > n."""
    counts = [0] * (n + 2)
    last = []
    promise = []
    tails = [0] * (n + 1)

    def place(p, depth, promised):
        if p > n:
            counts[depth] += 1
            return
        left_after = n - p
        for b, q in enumerate(last):
            fulfils = q == promise[b]
            if promised - fulfils > left_after:
                continue
            pos = bisect_left(tails, -q, 0, depth)
            old = tails[pos]
            tails[pos] = -q
            last[b] = p
            place(p + 1, depth + (pos == depth), promised - fulfils)
            last[b] = q
            tails[pos] = old
        if enhanced and promised <= left_after:
            pos = bisect_left(tails, -p, 0, depth)
            old = tails[pos]
            tails[pos] = -p
            place(p + 1, depth + (pos == depth), promised)
            tails[pos] = old
        if promised < left_after or not enhanced:
            last.append(p)
            promise.append(p if enhanced else 0)
            place(p + 1, depth, promised + enhanced)
            promise.pop()
            last.pop()

    place(1, 0, 0)
    return counts


def _frame_per_object_permutation_walk(n):
    """`oracle._permutation_walk` as it was before the last value was
    placed and counted in one step: the last value goes through the loop
    and bisect of every other, and each permutation is a leaf call."""
    counts = [0] * (n + 2)
    free = list(range(1, n + 1))
    upper = [0] * (n + 1)
    lower = [0] * (n + 1)

    def place(i, up, low):
        if i > n:
            counts[max(up, low)] += 1
            return
        for j in range(i - 1, n):
            v = free[j]
            free[j] = free[i - 1]
            free[i - 1] = v
            if v >= i:
                pos = bisect_left(upper, -v, 0, up)
                old = upper[pos]
                upper[pos] = -v
                place(i + 1, up + (pos == up), low)
                upper[pos] = old
            else:
                pos = bisect_left(lower, -v, 0, low)
                old = lower[pos]
                lower[pos] = -v
                place(i + 1, up, low + (pos == low))
                lower[pos] = old
            free[i - 1] = free[j]
            free[j] = v

    place(1, 0, 0)
    return counts


class TestLastElementInPlace:
    """The walks count their last element in the parent's loop; the
    frame-per-object walks they replaced are the reference."""

    @pytest.mark.parametrize("enhanced", [False, True])
    @pytest.mark.parametrize("n", range(11))
    def test_partition_walk_equals_frame_per_object_walk(self, n, enhanced):
        counts = _partition_walk(n, enhanced)
        assert counts == _frame_per_object_partition_walk(n, enhanced)
        assert sum(counts) == bell(n)

    @pytest.mark.parametrize("n", range(9))
    def test_permutation_walk_equals_frame_per_object_walk(self, n):
        counts = _permutation_walk(n)
        assert counts == _frame_per_object_permutation_walk(n)
        assert sum(counts) == factorial(n)


class TestContainsKNesting:
    def test_worked_example_witnesses(self):
        sigma = (11, 6, 1, 5, 2, 4, 9, 8, 7, 10, 3)
        found, witnesses = contains_knesting(sigma, 3, all_witnesses=True)
        assert found
        assert sorted(witnesses) == [
            ((1, 11), (2, 6), (4, 5)),
            ((1, 11), (7, 9), (8, 8)),
        ]

    def test_identity_has_no_nestings(self):
        # degenerate arcs cannot nest in each other
        assert contains_knesting((1, 2, 3, 4), 2) == (False, [])

    def test_known_nonnesting_permutation(self):
        found, _ = contains_knesting((5, 6, 4, 3, 1, 2), 3)
        assert not found

    def test_agrees_with_count(self):
        n, k = 5, 3
        from itertools import permutations

        free = sum(
            1
            for sigma in permutations(range(1, n + 1))
            if not contains_knesting(sigma, k)[0]
        )
        assert free == oracle_count("permutations", k, n)
