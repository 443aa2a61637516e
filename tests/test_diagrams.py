"""Diagram model: nesting detection, labels, legal vertex additions."""

import pytest

from nonnesting import diagrams as dg
from nonnesting.errors import ConstraintViolation


class TestMaxNesting:
    def test_empty(self):
        assert dg.max_nesting([]) == 0

    def test_single_arc(self):
        assert dg.max_nesting([(1, 5)]) == 1

    def test_nested_chain(self):
        assert dg.max_nesting([(1, 6), (2, 5), (3, 4)]) == 3

    def test_crossing_is_not_nesting(self):
        assert dg.max_nesting([(1, 3), (2, 4)]) == 1

    def test_disjoint(self):
        assert dg.max_nesting([(1, 2), (3, 4), (5, 6)]) == 1

    def test_mixed(self):
        # chain (2,9)>(3,8)>(5,6) wins over the crossing pairs
        arcs = [(1, 4), (2, 9), (3, 8), (5, 6), (7, 10)]
        assert dg.max_nesting(arcs) == 3

    def test_enhanced_counts_fixed_point(self):
        assert dg.max_nesting([(1, 3), (2, 2)], enhanced=True) == 2
        assert dg.max_nesting([(1, 3)], enhanced=True) == 1

    def test_fixed_point_only_innermost(self):
        # a fixed point cannot be the outer arc of a nesting
        assert dg.max_nesting([(2, 2), (3, 5)], enhanced=True) == 1

    def test_degenerate_rejected_when_not_enhanced(self):
        with pytest.raises(ValueError):
            dg.max_nesting([(2, 2)])

    def test_invalid_arc_rejected(self):
        with pytest.raises(ValueError):
            dg.max_nesting([(5, 3)])


class TestPartitionDiagram:
    def test_validation_degree(self):
        with pytest.raises(ValueError):
            dg.OpenPartitionDiagram(3, ((1, 2), (1, 3)), ())

    @pytest.mark.parametrize("args,message", [
        ((3, ((2, 2),), ()), r"arc \(2, 2\) out of range for n=3"),
        ((3, ((1, 4),), ()), r"arc \(1, 4\) out of range for n=3"),
        ((3, (), (0,)), "semi-arc origin 0 out of range"),
        ((3, (), (2, 2)), "duplicate semi-arc origin 2"),
        ((3, ((1, 2), (1, 3)), ()), r"vertex degree constraint violated at \[1\]"),
        ((4, ((1, 3), (2, 3)), (4,)), r"vertex degree constraint violated at \[3\]"),
        ((4, ((1, 3), (2, 4)), (1, 2)), r"violated at \[1, 2\]"),
        # precedence: arcs, then origins in ascending order, then degrees
        ((3, ((1, 2), (1, 9)), (0,)), r"arc \(1, 9\) out of range"),
        ((3, ((1, 2), (1, 3)), (2, 2, 9)), "duplicate semi-arc origin 2"),
        ((3, ((1, 2), (1, 3)), (9,)), "semi-arc origin 9 out of range"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            dg.OpenPartitionDiagram(*args)

    def test_fixed_points(self):
        d = dg.OpenPartitionDiagram(4, ((1, 3),), (2,))
        assert d.fixed_points() == (4,)

    def test_json_round_trip_fields(self):
        d = dg.OpenPartitionDiagram(4, ((1, 3),), (2,))
        j = d.to_json_dict()
        assert j["n"] == 4
        assert sorted(map(tuple, j["closed_arcs"])) == [(1, 3)]
        assert list(j["open_arcs"]) == [2]


# worked example: 14 vertices, label (5, 4, 2, 1) for 5-nonnesting tracking
EXAMPLE_14 = dg.OpenPartitionDiagram(
    14,
    ((1, 3), (4, 11), (5, 10), (8, 9), (9, 14), (12, 13)),
    (3, 7, 10, 11, 14),
)


class TestNestingIndex:
    def test_indices_of_worked_example(self):
        expected = {3: 3, 7: 2, 10: 1, 11: 1, 14: 0}
        for origin, idx in expected.items():
            assert dg.nesting_index(EXAMPLE_14, origin) == idx

    def test_label_of_worked_example(self):
        assert dg.partition_label(EXAMPLE_14, 4) == (5, 4, 2, 1)

    def test_label_rejects_existing_nesting(self):
        d = dg.OpenPartitionDiagram(6, ((1, 6), (2, 5), (3, 4)), ())
        with pytest.raises(ConstraintViolation):
            dg.partition_label(d, 2)


class TestLegalSteps:
    # 11 vertices, label (4, 2): the semi-arc at 7 sits over a 2-nesting
    EXAMPLE_11 = dg.OpenPartitionDiagram(
        11, ((1, 3), (4, 6), (5, 8), (8, 9)), (3, 7, 10, 11)
    )

    def test_protected_semi_arc_not_closable(self):
        assert dg.partition_label(self.EXAMPLE_11, 2) == (4, 2)
        steps = dg.legal_steps(self.EXAMPLE_11, 3)
        closed = {
            self.EXAMPLE_11.open_arcs[s[1]]
            for s in steps
            if s[1] is not None
        }
        # origin 7 has nesting index 1 and is not outermost, so closing it
        # would commit a future 3-nesting
        assert 7 not in closed
        assert closed == {3, 10, 11}

    def test_unconstrained_child_count(self):
        d = dg.OpenPartitionDiagram(9, ((1, 3), (4, 6), (8, 9)), (3, 5, 7))
        steps = dg.legal_steps(d, None)
        assert len(steps) == 8  # 2m + 2 with m = 3 semi-arcs

    def test_children_labels_match_succession_rule(self):
        from nonnesting.gentree import successors_partition
        from collections import Counter

        got = Counter()
        for step in dg.legal_steps(self.EXAMPLE_11, 3):
            child = dg.apply_step(self.EXAMPLE_11, step)
            got[dg.partition_label(child, 2)] += 1
        assert got == successors_partition((4, 2))

    def test_apply_step_grows_by_one(self):
        for step in dg.legal_steps(self.EXAMPLE_11, 3):
            child = dg.apply_step(self.EXAMPLE_11, step)
            assert child.n == self.EXAMPLE_11.n + 1

    def test_semi_arc_change_per_step(self):
        d = self.EXAMPLE_11
        assert d.semi_arcs() == 4
        for step in dg.legal_steps(d, 3):
            child = dg.apply_step(d, step)
            assert child.semi_arcs() == d.semi_arcs() + dg.SEMI_ARC_CHANGE[step[0]]


class TestPermutationDiagrams:
    EXAMPLE_13 = dg.OpenPermutationDiagram(
        13,
        ((1, 11), (2, 6), (7, 12), (8, 9)),
        ((1, 9), (2, 5), (5, 6), (7, 10), (8, 12)),
        (3, 11, 13),
        (3, 10, 13),
    )

    def test_label_of_worked_example(self):
        assert dg.permutation_label(self.EXAMPLE_13, 3) == (3, (1, 1), (1, 0))

    def test_two_component_label(self):
        d = dg.OpenPermutationDiagram(
            11,
            ((1, 3), (4, 6), (5, 8), (8, 9), (9, 10)),
            ((4, 6),),
            (3, 7, 10, 11),
            (1, 5, 7, 11),
        )
        assert dg.permutation_label(d, 2) == (4, (2,), (1,))

    def test_semi_arc_count_balance_enforced(self):
        with pytest.raises(ValueError):
            dg.OpenPermutationDiagram(2, (), (), (1, 2), ())

    @pytest.mark.parametrize("args,message", [
        ((2, (), (), (1, 2), ()), "upper and lower semi-arc counts must match"),
        ((3, ((2, 1),), (), (), ()), r"upper arc \(2, 1\) out of range"),
        ((3, ((1, 4),), (), (), ()), r"upper arc \(1, 4\) out of range"),
        ((3, (), ((2, 2),), (), ()), r"lower arc \(2, 2\) out of range"),
        ((3, (), (), (4,), (1,)), "upper semi-arc origin 4 out of range"),
        ((3, ((1, 2), (1, 3)), (), (), ()), "upper layer degree constraint violated"),
        ((3, ((1, 3), (2, 3)), (), (), ()), "upper layer degree constraint violated"),
        ((3, ((1, 3),), (), (1,), (2,)), "upper layer degree constraint violated"),
        # a duplicate origin is a vertex of degree two
        ((3, (), (), (1, 1), (2, 3)), "upper layer degree constraint violated"),
        ((3, (), (), (1,), (0,)), "lower semi-arc origin 0 out of range"),
        ((3, (), ((1, 2), (1, 3)), (), ()), "lower layer degree constraint violated"),
        ((3, (), (), (1, 2), (3, 3)), "lower layer degree constraint violated"),
        # precedence: counts, upper arcs, lower arcs, then the upper layer's
        # origins and degrees before the lower layer's
        ((3, ((0, 1),), (), (1,), ()), "semi-arc counts must match"),
        ((3, ((0, 1),), ((3, 3),), (), ()), r"upper arc \(0, 1\)"),
        ((3, (), ((3, 3),), (9,), (9,)), r"lower arc \(3, 3\)"),
        ((3, (), (), (1, 1), (0, 2)), "upper layer degree constraint violated"),
        ((3, ((1, 2), (1, 3)), (), (9,), (1,)), "upper semi-arc origin 9"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            dg.OpenPermutationDiagram(*args)

    def test_perm_to_diagram(self):
        d = dg.perm_to_diagram((11, 6, 1, 5, 2, 4, 9, 8, 7, 10, 3))
        assert set(d.upper_arcs) == {(1, 11), (2, 6), (4, 5), (7, 9), (8, 8), (10, 10)}
        assert set(d.lower_arcs) == {(1, 3), (2, 5), (3, 11), (4, 6), (7, 9)}
        assert not d.upper_open and not d.lower_open

    def test_permutation_steps_deterministic(self):
        steps = dg.legal_steps(self.EXAMPLE_13, 4)
        assert steps == dg.legal_steps(self.EXAMPLE_13, 4)
        for step in steps:
            child = dg.apply_step(self.EXAMPLE_13, step)
            assert child.n == 14
            dg.permutation_label(child, 3)  # must stay constraint-free

    def test_semi_arc_change_per_step(self):
        d = self.EXAMPLE_13
        assert d.semi_arcs() == 3
        kinds = set()
        for step in dg.legal_steps(d, None):
            child = dg.apply_step(d, step)
            assert child.semi_arcs() == d.semi_arcs() + dg.SEMI_ARC_CHANGE[step[0]]
            kinds.add(step[0])
        assert kinds == set(dg.SEMI_ARC_CHANGE) - {dg.SEMI_TRANSITORY}

    def test_permutation_steps_reject_enhanced(self):
        # the upper layer is always enhanced; the flag is for partitions
        with pytest.raises(ValueError):
            dg.legal_steps(self.EXAMPLE_13, 4, enhanced=True)

    def test_permutation_arcs(self):
        assert dg.permutation_arcs((3, 2, 1)) == ([(1, 3), (2, 2)], [(1, 3)])


EXAMPLE_11 = TestLegalSteps.EXAMPLE_11
EXAMPLE_13 = TestPermutationDiagrams.EXAMPLE_13


@pytest.mark.parametrize("diagram,k,enhanced", [
    (EXAMPLE_11, 3, False),
    (EXAMPLE_11, None, False),
    (EXAMPLE_14, 5, False),
    (EXAMPLE_14, 5, True),
    (EXAMPLE_13, 4, False),
    (EXAMPLE_13, None, False),
])
def test_legal_steps_are_the_walk_steps(diagram, k, enhanced):
    steps = dg.legal_steps(diagram, k, enhanced)
    assert steps == dg.walk_state(diagram, k, enhanced).steps()
    assert len(steps) > 2


@pytest.mark.parametrize("diagram,step,error,message", [
    # partition steps are (kind, index)
    (EXAMPLE_11, (dg.CLOSER, 4), ValueError, "close index 4 out of range for 4"),
    (EXAMPLE_11, (dg.SEMI_TRANSITORY, -1), ValueError, "close index -1 out of range"),
    (EXAMPLE_11, (dg.CLOSER, None), ValueError, "close index None out of range"),
    (EXAMPLE_11, (dg.SEMI_TRANSITORY, None), ValueError, "close index None"),
    (EXAMPLE_11, ("bogus", None), ValueError, "bad step kind 'bogus' for a partition"),
    (EXAMPLE_11, (dg.UPPER_SEMI_TRANSITORY, 0), ValueError, "bad step kind"),
    (EXAMPLE_11, (dg.CLOSER, 0, None), ValueError, "too many values to unpack"),
    (EXAMPLE_11, (dg.FIXED_POINT,), ValueError, "not enough values to unpack"),
    # permutation steps are (kind, upper, lower)
    (EXAMPLE_13, (dg.CLOSER, 0, 3), ValueError, "close index 3 out of range for 3"),
    (EXAMPLE_13, (dg.UPPER_SEMI_TRANSITORY, 3, None), ValueError, "close index 3"),
    (EXAMPLE_13, (dg.CLOSER, 0, None), ValueError, "close index None out of range"),
    (EXAMPLE_13, (dg.LOWER_SEMI_TRANSITORY, 0, None), ValueError, "close index None"),
    (EXAMPLE_13, ("bogus", None, None), ValueError,
     "bad step kind 'bogus' for a permutation"),
    (EXAMPLE_13, (dg.SEMI_TRANSITORY, 0, None), ValueError, "bad step kind"),
    (EXAMPLE_13, (dg.CLOSER, 0), ValueError, "not enough values to unpack"),
    (EXAMPLE_13, (dg.CLOSER, 0, 0, 0), ValueError, "too many values to unpack"),
    # anything else is not a diagram
    ((), (dg.FIXED_POINT, None), TypeError, "not a diagram"),
])
def test_apply_step_rejects_a_step_that_does_not_fit(diagram, step, error, message):
    with pytest.raises(error, match=message):
        dg.apply_step(diagram, step)


@pytest.mark.parametrize("diagram,step,message", [
    # an index where a step closes nothing is rejected, not ignored
    (dg.OpenPartitionDiagram(1, (), (1,)), (dg.FIXED_POINT, 7),
     "fixed_point step takes the index None, not 7"),
    (EXAMPLE_11, (dg.FIXED_POINT, 0), "fixed_point step takes the index None, not 0"),
    (EXAMPLE_11, (dg.SEMI_OPENER, 1), "semi_opener step takes the index None, not 1"),
    (EXAMPLE_13, (dg.FIXED_POINT, 0, None),
     "fixed_point step takes the index None, not 0"),
    (EXAMPLE_13, (dg.FIXED_POINT, None, 2),
     "fixed_point step takes the index None, not 2"),
    (EXAMPLE_13, (dg.SEMI_OPENER, None, 1),
     "semi_opener step takes the index None, not 1"),
    (EXAMPLE_13, (dg.UPPER_SEMI_TRANSITORY, 0, 0),
     "upper_semi_transitory step takes the index None, not 0"),
    (EXAMPLE_13, (dg.LOWER_SEMI_TRANSITORY, 0, 1),
     "lower_semi_transitory step takes the index None, not 0"),
], ids=["partition-fixed-point-7", "partition-fixed-point", "partition-semi-opener",
        "permutation-fixed-point-upper", "permutation-fixed-point-lower",
        "permutation-semi-opener", "permutation-upper-transitory",
        "permutation-lower-transitory"])
def test_apply_step_rejects_an_unused_index(diagram, step, message):
    with pytest.raises(ValueError, match=message):
        dg.apply_step(diagram, step)
    # the same step with None there fits
    kind, *indices = step
    if kind in (dg.FIXED_POINT, dg.SEMI_OPENER):
        fixed = (kind,) + (None,) * len(indices)
    elif kind == dg.UPPER_SEMI_TRANSITORY:
        fixed = (kind, indices[0], None)
    else:
        fixed = (kind, None, indices[1])
    assert dg.apply_step(diagram, fixed).n == diagram.n + 1
