"""Diagram model: nesting detection, labels, legal vertex additions."""

import json
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_one_shot_iterator(self):
        # the input checks and the sweep read the same arcs
        assert dg.max_nesting(iter([(1, 3), (2, 2)]), enhanced=True) == 2
        assert dg.max_nesting(arc for arc in [(1, 6), (2, 5), (3, 4)]) == 3

    def test_degenerate_rejected_from_an_iterator(self):
        with pytest.raises(ValueError, match="degenerate"):
            dg.max_nesting(iter([(1, 3), (2, 2)]))


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
        # an arc that is not a pair, also after pairs
        ((3, ((1, 2, 3),), ()), "unpack"),
        ((3, ((1, 2), (2, 3, 3)), ()), "unpack"),
        # n and every vertex must be ints, before any other check; a bool
        # would be written as True in to_json()
        ((3, ((1.5, 2),), (True,)), "vertex 1.5 is not an int"),
        ((3, (), (True,)), "vertex True is not an int"),
        ((3, (), ("2", 1)), "vertex '2' is not an int"),
        ((3.0, ((1, 2),), ()), "n must be an int, got 3.0"),
        ((True, (), ()), "n must be an int, got True"),
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

    def test_rejects_a_permutation_diagram(self):
        d = dg.OpenPermutationDiagram(2, (), (), (1,), (2,))
        with pytest.raises(TypeError, match="OpenPermutationDiagram"):
            dg.nesting_index(d, 1)

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
        ((3, ((1, 1),), ((1, 2), (2, 3, 3)), (), ()), "unpack"),
        # n and every vertex of both layers must be ints
        ((3, ((1, 2.0),), (), (), ()), "vertex 2.0 is not an int"),
        ((3, (), ((1, True),), (), ()), "vertex True is not an int"),
        ((3, (), (), (False,), (1,)), "vertex False is not an int"),
        ((3, (), (), (1,), (None,)), "vertex None is not an int"),
        ((False, (), (), (), ()), "n must be an int, got False"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            dg.OpenPermutationDiagram(*args)

    def test_label_rejects_a_future_nesting(self):
        # the upper semi-arc at 1 lies left of a 2-nesting: a future
        # 3-nesting, which k = 2 forbids
        d = dg.OpenPermutationDiagram(5, ((2, 5), (3, 4)), (), (1,), (1,))
        with pytest.raises(ConstraintViolation) as info:
            dg.permutation_label(d, 2)
        assert str(info.value) == "diagram contains a future (3)-nesting"

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


@pytest.mark.parametrize("k,message", [
    (1, "the k-nonnesting tree needs k >= 2, got 1"),
    (0, "the k-nonnesting tree needs k >= 2, got 0"),
    (True, "k must be an int, got True"),
    (2.5, "k must be an int, got 2.5"),
    (3.0, "k must be an int, got 3.0"),
], ids=["1", "0", "True", "2.5", "3.0"])
@pytest.mark.parametrize("diagram", [
    dg.OpenPartitionDiagram(2, (), (1, 2)), EXAMPLE_13,
], ids=["partition", "permutation"])
def test_walk_refuses_a_k_of_no_tree(diagram, k, message):
    # k = 1, 0 and True each gave steps, and 2.5 more steps than k = 3
    for walk in (dg.walk_state, dg.legal_steps):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            walk(diagram, k)


@pytest.mark.parametrize("k,message", [
    (0, "k must be >= 1, got 0"),
    (-2, "k must be >= 1, got -2"),
    (True, "k must be an int, got True"),
    (2.5, "k must be an int, got 2.5"),
    (3.0, "k must be an int, got 3.0"),
    ("3", "k must be an int, got '3'"),
], ids=["0", "-2", "True", "2.5", "3.0", "str"])
@pytest.mark.parametrize("label,diagram", [
    (dg.partition_label, dg.OpenPartitionDiagram(2, (), (1, 2))),
    (partial(dg.partition_label, enhanced=True), dg.OpenPartitionDiagram(2, (), (1, 2))),
    (dg.permutation_label, EXAMPLE_13),
], ids=["partition", "enhanced", "permutation"])
def test_label_refuses_a_k_below_one_or_not_an_int(label, diagram, k, message):
    # True gave the k = 1 label, and a float raised TypeError from range
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        label(diagram, k)


def _unfit(step, diagram):
    """The one message `apply_step` refuses a step with."""
    return (
        f"step {step!r} does not fit an {type(diagram).__name__}"
        f" with semi-arc count {diagram.semi_arcs()}"
    )


# Each case is named by why its step does not fit; the name heads its test
# id.  A step fits when it is one of legal_steps(diagram, None).
@pytest.mark.parametrize("diagram,step,error,case", [
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
    # an index that is a bool or a float, and a step that is not a tuple:
    # True closed the semi-arc of index 1, a float raised a bare TypeError
    # and a list was taken as its tuple
    (EXAMPLE_11, (dg.SEMI_TRANSITORY, True), ValueError, "bool index"),
    (EXAMPLE_11, (dg.CLOSER, 1.0), ValueError, "float index"),
    (EXAMPLE_11, [dg.CLOSER, 0], ValueError, "list step"),
    (EXAMPLE_13, (dg.CLOSER, True, 0), ValueError, "bool upper index"),
    (EXAMPLE_13, (dg.LOWER_SEMI_TRANSITORY, None, 2.0), ValueError, "float lower index"),
    (EXAMPLE_13, [dg.FIXED_POINT, None, None], ValueError, "list step"),
])
def test_apply_step_rejects_a_step_that_does_not_fit(diagram, step, error, case):
    message = "not a diagram: ()" if error is TypeError else _unfit(step, diagram)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dg.apply_step(diagram, step)


def test_apply_step_names_the_step_class_and_semi_arc_count():
    with pytest.raises(ValueError, match=re.escape(
        "step ('closer', 4) does not fit an OpenPartitionDiagram with semi-arc count 4"
    ) + "$"):
        dg.apply_step(EXAMPLE_11, (dg.CLOSER, 4))
    with pytest.raises(ValueError, match=re.escape(
        "step ('semi_opener', None) does not fit an OpenPermutationDiagram"
        " with semi-arc count 0"
    ) + "$"):
        dg.apply_step(dg.OpenPermutationDiagram(0), (dg.SEMI_OPENER, None))


@pytest.mark.parametrize("diagram,step", [
    # an index where a step closes nothing is rejected, not ignored
    (dg.OpenPartitionDiagram(1, (), (1,)), (dg.FIXED_POINT, 7)),
    (EXAMPLE_11, (dg.FIXED_POINT, 0)),
    (EXAMPLE_11, (dg.SEMI_OPENER, 1)),
    (EXAMPLE_13, (dg.FIXED_POINT, 0, None)),
    (EXAMPLE_13, (dg.FIXED_POINT, None, 2)),
    (EXAMPLE_13, (dg.SEMI_OPENER, None, 1)),
    (EXAMPLE_13, (dg.UPPER_SEMI_TRANSITORY, 0, 0)),
    (EXAMPLE_13, (dg.LOWER_SEMI_TRANSITORY, 0, 1)),
], ids=["partition-fixed-point-7", "partition-fixed-point", "partition-semi-opener",
        "permutation-fixed-point-upper", "permutation-fixed-point-lower",
        "permutation-semi-opener", "permutation-upper-transitory",
        "permutation-lower-transitory"])
def test_apply_step_rejects_an_unused_index(diagram, step):
    with pytest.raises(ValueError, match=f"^{re.escape(_unfit(step, diagram))}$"):
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


@st.composite
def _diagrams(draw):
    """A valid open diagram of either class with up to 15 vertices, grown
    by unconstrained steps: semi-arcs, fixed points (degenerate upper arcs
    of a permutation diagram) and two-digit vertices."""
    d = draw(st.sampled_from([dg.OpenPartitionDiagram(0), dg.OpenPermutationDiagram(0)]))
    for _ in range(draw(st.integers(0, 15))):
        d = dg.apply_step(d, draw(st.sampled_from(dg.legal_steps(d, None))))
    return d


@settings(max_examples=300, deadline=None)
@given(_diagrams())
def test_json_line_is_the_dumped_dict(d):
    assert d.to_json() == json.dumps(d.to_json_dict())


@pytest.mark.parametrize("d", [
    dg.OpenPartitionDiagram(300, ((1, 2), (3, 300), (100, 255), (255, 256)), (4, 299)),
    dg.OpenPermutationDiagram(
        300, ((1, 1), (2, 300), (256, 256), (255, 257)),
        ((1, 299), (254, 255), (256, 258)), (3,), (2,)),
], ids=["partition", "permutation"])
def test_json_line_of_arcs_inside_and_past_the_text_table(d):
    # arc texts are kept for right ends up to 255 and made afresh past it;
    # the second line is written from the kept texts
    for _ in range(2):
        assert d.to_json() == json.dumps(d.to_json_dict())
    kept = dg._arc_text.__self__
    assert (255, 256) not in kept and (100, 255) in kept
    assert max(right for _, right in kept) <= 255
