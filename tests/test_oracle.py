"""Brute-force enumeration and the definitional nesting check."""

import pytest

from nonnesting.closedform import bell, catalan
from nonnesting.errors import ResourceLimitError
from nonnesting.gentree import FamilySpec, count_sequence
from nonnesting.oracle import (
    contains_knesting,
    oracle_count,
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
