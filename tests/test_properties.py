"""Randomized cross-checks of the fast nesting detector."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from nonnesting.diagrams import _nesting_indices, max_nesting
from reference import _is_nesting, contains_knesting


def arc_sets(max_point=12, max_arcs=7, allow_degenerate=False):
    point = st.integers(1, max_point)
    pair = st.tuples(point, point).map(sorted).map(tuple)
    if not allow_degenerate:
        pair = pair.filter(lambda a: a[0] < a[1])
    return st.lists(pair, max_size=max_arcs, unique=True)


def brute_max_nesting(arcs, enhanced=False):
    best = 0
    for size in range(1, len(arcs) + 1):
        for subset in combinations(arcs, size):
            if _is_nesting(subset, enhanced):
                best = size
    return best


@settings(max_examples=200, deadline=None)
@given(arc_sets())
def test_max_nesting_matches_subset_check(arcs):
    assert max_nesting(arcs) == brute_max_nesting(arcs)


@settings(max_examples=200, deadline=None)
@given(arc_sets(allow_degenerate=True))
def test_enhanced_max_nesting_matches_subset_check(arcs):
    assert max_nesting(arcs, enhanced=True) == brute_max_nesting(arcs, enhanced=True)


@settings(max_examples=300, deadline=None)
@given(
    arc_sets(allow_degenerate=True),
    st.lists(st.integers(0, 13), max_size=6, unique=True).map(sorted),
    st.booleans(),
)
def test_nesting_index_sweep_matches_max_nesting(arcs, origins, enhanced):
    """The one-sweep indices against max_nesting over the arcs with left >
    origin, taken origin by origin."""
    if not enhanced:
        arcs = [a for a in arcs if a[0] < a[1]]
    expected = [
        max_nesting([a for a in arcs if a[0] > origin], enhanced=enhanced)
        for origin in origins
    ]
    assert _nesting_indices(arcs, origins) == expected


@settings(max_examples=300, deadline=None)
@given(
    arc_sets(allow_degenerate=True),
    st.lists(st.integers(0, 13), max_size=6, unique=True).map(sorted),
    st.booleans(),
)
def test_nesting_index_sweep_matches_subset_check(arcs, origins, enhanced):
    """The sweep at every origin against the subset definition over the arcs
    with left > origin: `max_nesting` is the sweep too, so this keeps the
    definition as the sweep's own reference."""
    if not enhanced:
        arcs = [a for a in arcs if a[0] < a[1]]
    expected = [
        brute_max_nesting([a for a in arcs if a[0] > origin], enhanced)
        for origin in origins
    ]
    assert _nesting_indices(arcs, origins) == expected


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1, 8))), st.integers(2, 4))
def test_witnesses_are_genuine(sigma, k):
    found, witnesses = contains_knesting(tuple(sigma), k, all_witnesses=True)
    assert found == bool(witnesses)
    for w in witnesses:
        assert len(w) == k
        ordered = sorted(w)
        assert all(
            a[0] < b[0] and b[1] < a[1] for a, b in zip(ordered, ordered[1:])
        )
        # a degenerate arc may only sit innermost
        assert all(a[0] < a[1] for a in ordered[:-1])
