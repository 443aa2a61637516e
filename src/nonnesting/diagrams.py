"""Arc diagrams for set partitions and permutations, open variants included.

An open partition diagram is a row of vertices 1..n with closed arcs (l, r)
drawn above and semi-arcs that have a left endpoint only.  Open permutation
diagrams carry two layers of arcs (upper and lower) plus matching numbers of
upper and lower semi-arcs.  Semi-arcs are kept sorted by left endpoint; the
outermost ("top" upper / "bottom" lower) semi-arc is the one with the
smallest left endpoint, matching the non-crossing drawing convention.

Vertices are 1-based.  Diagrams are immutable values: `apply_step` returns a
new diagram.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConstraintViolation

__all__ = [
    "OpenPartitionDiagram",
    "OpenPermutationDiagram",
    "BuildStep",
    "SEMI_ARC_CHANGE",
    "max_nesting",
    "nesting_index",
    "partition_label",
    "permutation_label",
    "legal_steps",
    "apply_step",
    "permutation_arcs",
    "perm_to_diagram",
]

# BuildStep kinds for partition diagrams
FIXED_POINT = "fixed_point"
SEMI_OPENER = "semi_opener"
SEMI_TRANSITORY = "semi_transitory"
CLOSER = "closer"
# additional kinds for permutation diagrams
UPPER_SEMI_TRANSITORY = "upper_semi_transitory"
LOWER_SEMI_TRANSITORY = "lower_semi_transitory"

# How each step kind changes a diagram's `semi_arcs()`: an opener adds one,
# a closer closes one, every other step keeps the count.
SEMI_ARC_CHANGE = {
    FIXED_POINT: 0,
    SEMI_OPENER: 1,
    SEMI_TRANSITORY: 0,
    UPPER_SEMI_TRANSITORY: 0,
    LOWER_SEMI_TRANSITORY: 0,
    CLOSER: -1,
}


@dataclass(frozen=True)
class BuildStep:
    """One vertex-addition event.

    `close_index` refers to a position in the sorted open-arc list of a
    partition diagram; `upper_index`/`lower_index` to positions in the sorted
    upper/lower semi-arc lists of a permutation diagram.  A permutation
    closer carries both indices.
    """

    kind: str
    close_index: int | None = None
    upper_index: int | None = None
    lower_index: int | None = None


def max_nesting(arcs, enhanced=False):
    """Size of the largest chain of mutually nesting arcs.

    Arcs are (left, right) pairs with left <= right.  In plain mode the
    chain condition is i < i' < j' < j and degenerate arcs (left == right)
    are rejected.  In enhanced mode the condition is i < i' <= j' < j, which
    admits a single degenerate arc as the innermost element of a chain.

    Runs in O(m log m): sort by (left, right) ascending, then take the
    longest strictly decreasing subsequence of right endpoints.  Arcs
    sharing a left endpoint sort with rights ascending, so no two of them
    can appear in one chain.
    """
    for left, right in arcs:
        if left > right:
            raise ValueError(f"arc ({left}, {right}) has left > right")
        if left == right and not enhanced:
            raise ValueError(f"degenerate arc ({left}, {right}) in plain mode")
    # longest strictly increasing subsequence of negated rights
    tails = []
    for _, right in sorted(arcs):
        x = -right
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def _chain_arcs(arcs, cutoff, enhanced, fixed_points=()):
    """Arcs (plus degenerate fixed-point arcs when enhanced) with left > cutoff."""
    out = [a for a in arcs if a[0] > cutoff]
    if enhanced:
        out.extend((f, f) for f in fixed_points if f > cutoff)
    return out


@dataclass(frozen=True)
class OpenPartitionDiagram:
    """Partition diagram with closed arcs and open semi-arcs.

    closed_arcs: tuple of (left, right), 1 <= left < right <= n.
    open_arcs: sorted tuple of the left endpoints of the semi-arcs.
    """

    n: int
    closed_arcs: tuple = ()
    open_arcs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "closed_arcs", tuple(map(tuple, self.closed_arcs)))
        object.__setattr__(self, "open_arcs", tuple(sorted(self.open_arcs)))
        self._validate()

    def _validate(self):
        left_deg = {}
        right_deg = {}
        for left, right in self.closed_arcs:
            if not (1 <= left < right <= self.n):
                raise ValueError(f"arc ({left}, {right}) out of range for n={self.n}")
            left_deg[left] = left_deg.get(left, 0) + 1
            right_deg[right] = right_deg.get(right, 0) + 1
        seen = set()
        for origin in self.open_arcs:
            if not 1 <= origin <= self.n:
                raise ValueError(f"semi-arc origin {origin} out of range")
            if origin in seen:
                raise ValueError(f"duplicate semi-arc origin {origin}")
            seen.add(origin)
            left_deg[origin] = left_deg.get(origin, 0) + 1
        bad = [v for v, d in left_deg.items() if d > 1]
        bad += [v for v, d in right_deg.items() if d > 1]
        if bad:
            raise ValueError(f"vertex degree constraint violated at {sorted(set(bad))}")

    def fixed_points(self):
        """Vertices with no incident arc or semi-arc."""
        used = set(self.open_arcs)
        for left, right in self.closed_arcs:
            used.add(left)
            used.add(right)
        return tuple(v for v in range(1, self.n + 1) if v not in used)

    def semi_arcs(self):
        """Number of semi-arcs."""
        return len(self.open_arcs)

    def is_closed(self):
        """True when there are no semi-arcs: a plain set partition."""
        return not self.open_arcs

    def to_json_dict(self):
        return {
            "n": self.n,
            "closed_arcs": [list(a) for a in sorted(self.closed_arcs)],
            "open_arcs": list(self.open_arcs),
        }


@dataclass(frozen=True)
class OpenPermutationDiagram:
    """Permutation diagram with upper/lower arcs and semi-arcs.

    Fixed points of the permutation are stored as degenerate upper arcs
    (i, i); they take part in enhanced upper nestings.  Lower arcs are
    strictly proper.  The invariant |upper_open| == |lower_open| always
    holds.
    """

    n: int
    upper_arcs: tuple = ()
    lower_arcs: tuple = ()
    upper_open: tuple = ()
    lower_open: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "upper_arcs", tuple(map(tuple, self.upper_arcs)))
        object.__setattr__(self, "lower_arcs", tuple(map(tuple, self.lower_arcs)))
        object.__setattr__(self, "upper_open", tuple(sorted(self.upper_open)))
        object.__setattr__(self, "lower_open", tuple(sorted(self.lower_open)))
        self._validate()

    def _validate(self):
        if len(self.upper_open) != len(self.lower_open):
            raise ValueError("upper and lower semi-arc counts must match")
        for left, right in self.upper_arcs:
            if not (1 <= left <= right <= self.n):
                raise ValueError(f"upper arc ({left}, {right}) out of range")
        for left, right in self.lower_arcs:
            if not (1 <= left < right <= self.n):
                raise ValueError(f"lower arc ({left}, {right}) out of range")
        for layer, arcs, opens in (
            ("upper", self.upper_arcs, self.upper_open),
            ("lower", self.lower_arcs, self.lower_open),
        ):
            left_deg = {}
            right_deg = {}
            for left, right in arcs:
                left_deg[left] = left_deg.get(left, 0) + 1
                right_deg[right] = right_deg.get(right, 0) + 1
            for origin in opens:
                if not 1 <= origin <= self.n:
                    raise ValueError(f"{layer} semi-arc origin {origin} out of range")
                left_deg[origin] = left_deg.get(origin, 0) + 1
            if any(d > 1 for d in left_deg.values()) or any(
                d > 1 for d in right_deg.values()
            ):
                raise ValueError(f"{layer} layer degree constraint violated")
        if len(set(self.upper_open)) != len(self.upper_open):
            raise ValueError("duplicate upper semi-arc origin")
        if len(set(self.lower_open)) != len(self.lower_open):
            raise ValueError("duplicate lower semi-arc origin")

    def semi_arcs(self):
        """Number of upper semi-arcs (equal to the number of lower ones)."""
        return len(self.upper_open)

    def is_closed(self):
        """True when there are no semi-arcs: a plain permutation."""
        return not self.upper_open

    def to_json_dict(self):
        return {
            "n": self.n,
            "upper_arcs": [list(a) for a in sorted(self.upper_arcs)],
            "lower_arcs": [list(a) for a in sorted(self.lower_arcs)],
            "upper_open": list(self.upper_open),
            "lower_open": list(self.lower_open),
        }


def nesting_index(diagram, semi_arc_origin, enhanced=False):
    """Largest j such that a j-nesting lies entirely right of the semi-arc.

    Equivalently: the largest j for which the semi-arc belongs to a future
    (j+1)-nesting.  In enhanced mode, fixed points of the diagram count as
    degenerate arcs.
    """
    if semi_arc_origin not in diagram.open_arcs:
        raise ValueError(f"{semi_arc_origin} is not a semi-arc origin")
    fps = diagram.fixed_points() if enhanced else ()
    return max_nesting(
        _chain_arcs(diagram.closed_arcs, semi_arc_origin, enhanced, fps),
        enhanced=enhanced,
    )


def _upper_nesting_index(diagram, origin):
    """Enhanced nesting index of an upper semi-arc of a permutation diagram."""
    return max_nesting(
        [a for a in diagram.upper_arcs if a[0] > origin], enhanced=True
    )


def _lower_nesting_index(diagram, origin):
    """Plain nesting index of a lower semi-arc of a permutation diagram."""
    return max_nesting([a for a in diagram.lower_arcs if a[0] > origin])


def partition_label(diagram, k, enhanced=False):
    """Generating-tree label [s_0, ..., s_{k-1}] of an open partition diagram.

    s_i is the number of semi-arcs with (enhanced) nesting index >= i.  The
    diagram must avoid regular and future (k+1)-nestings, else
    ConstraintViolation is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fps = diagram.fixed_points() if enhanced else ()
    closed = _chain_arcs(diagram.closed_arcs, 0, enhanced, fps)
    if max_nesting(closed, enhanced=enhanced) > k:
        raise ConstraintViolation(f"diagram contains a regular (>{k})-nesting")
    indices = [
        nesting_index(diagram, origin, enhanced) for origin in diagram.open_arcs
    ]
    if any(idx >= k for idx in indices):
        raise ConstraintViolation(f"diagram contains a future ({k + 1})-nesting")
    return tuple(sum(1 for idx in indices if idx >= i) for i in range(k))


def permutation_label(diagram, k):
    """Label (h, r, s) of an open permutation diagram.

    h is the number of upper (= lower) semi-arcs; r_i counts upper semi-arcs
    of enhanced nesting index >= i and s_i counts lower semi-arcs of plain
    nesting index >= i, for 1 <= i <= k-1.  The diagram must avoid regular
    and future enhanced upper (k+1)-nestings and regular and future lower
    (k+1)-nestings.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_nesting(diagram.upper_arcs, enhanced=True) > k:
        raise ConstraintViolation(f"diagram contains an upper (>{k})-nesting")
    if max_nesting(diagram.lower_arcs) > k:
        raise ConstraintViolation(f"diagram contains a lower (>{k})-nesting")
    up = [_upper_nesting_index(diagram, o) for o in diagram.upper_open]
    lo = [_lower_nesting_index(diagram, o) for o in diagram.lower_open]
    if any(idx >= k for idx in up) or any(idx >= k for idx in lo):
        raise ConstraintViolation(f"diagram contains a future ({k + 1})-nesting")
    r = tuple(sum(1 for idx in up if idx >= i) for i in range(1, k))
    s = tuple(sum(1 for idx in lo if idx >= i) for i in range(1, k))
    return (len(diagram.upper_open), r, s)


def _closable(index_of, origins, k):
    """Positions whose semi-arc may be closed without forcing a k-nesting.

    A semi-arc in a future (k-1)-nesting (nesting index >= k-2) may only be
    closed if it is the outermost one, i.e. has the smallest left endpoint.
    k=None means unconstrained.
    """
    positions = []
    for pos, origin in enumerate(origins):
        if k is None or index_of(origin) < k - 2 or pos == 0:
            positions.append(pos)
    return positions


def legal_steps(diagram, k, enhanced=False):
    """All vertex additions that keep the diagram k-nonnesting.

    `k` is the forbidden nesting size (k=None for the unconstrained tree);
    `enhanced` counts fixed points as arcs (partition diagrams only).  Order
    is deterministic: fixed point, semi-opener, semi-transitories by
    ascending index, closers by ascending index (permutation closers by
    lexicographic (upper, lower) index).
    """
    if isinstance(diagram, OpenPartitionDiagram):
        steps = []
        # a fixed point bumps enhanced indices 0 -> 1, forbidden for k=2
        # unless there are no semi-arcs
        if not (enhanced and k == 2 and diagram.open_arcs):
            steps.append(BuildStep(FIXED_POINT))
        steps.append(BuildStep(SEMI_OPENER))
        closable = _closable(
            lambda o: nesting_index(diagram, o, enhanced), diagram.open_arcs, k
        )
        steps.extend(BuildStep(SEMI_TRANSITORY, close_index=p) for p in closable)
        steps.extend(BuildStep(CLOSER, close_index=p) for p in closable)
        return steps
    if isinstance(diagram, OpenPermutationDiagram):
        if enhanced:
            raise ValueError("enhanced applies to partition diagrams only")
        steps = []
        if not (k == 2 and diagram.upper_open):
            steps.append(BuildStep(FIXED_POINT))
        steps.append(BuildStep(SEMI_OPENER))
        up = _closable(
            lambda o: _upper_nesting_index(diagram, o), diagram.upper_open, k
        )
        lo = _closable(
            lambda o: _lower_nesting_index(diagram, o), diagram.lower_open, k
        )
        steps.extend(BuildStep(UPPER_SEMI_TRANSITORY, upper_index=p) for p in up)
        steps.extend(BuildStep(LOWER_SEMI_TRANSITORY, lower_index=p) for p in lo)
        steps.extend(
            BuildStep(CLOSER, upper_index=pu, lower_index=pl)
            for pu in up
            for pl in lo
        )
        return steps
    raise TypeError(f"not a diagram: {diagram!r}")


def apply_step(diagram, step):
    """Add one vertex to a diagram; returns the extended diagram."""
    if isinstance(diagram, OpenPartitionDiagram):
        return _apply_partition_step(diagram, step)
    if isinstance(diagram, OpenPermutationDiagram):
        return _apply_permutation_step(diagram, step)
    raise TypeError(f"not a diagram: {diagram!r}")


def _take(origins, index):
    if index is None or not 0 <= index < len(origins):
        raise ValueError(f"close index {index} out of range for {len(origins)} semi-arcs")
    return origins[index], origins[:index] + origins[index + 1 :]


def _apply_partition_step(d, step):
    v = d.n + 1
    if step.kind == FIXED_POINT:
        return OpenPartitionDiagram(v, d.closed_arcs, d.open_arcs)
    if step.kind == SEMI_OPENER:
        return OpenPartitionDiagram(v, d.closed_arcs, d.open_arcs + (v,))
    if step.kind == SEMI_TRANSITORY:
        origin, rest = _take(d.open_arcs, step.close_index)
        return OpenPartitionDiagram(v, d.closed_arcs + ((origin, v),), rest + (v,))
    if step.kind == CLOSER:
        origin, rest = _take(d.open_arcs, step.close_index)
        return OpenPartitionDiagram(v, d.closed_arcs + ((origin, v),), rest)
    raise ValueError(f"bad step kind {step.kind!r} for a partition diagram")


def _apply_permutation_step(d, step):
    v = d.n + 1
    if step.kind == FIXED_POINT:
        return OpenPermutationDiagram(
            v, d.upper_arcs + ((v, v),), d.lower_arcs, d.upper_open, d.lower_open
        )
    if step.kind == SEMI_OPENER:
        return OpenPermutationDiagram(
            v, d.upper_arcs, d.lower_arcs, d.upper_open + (v,), d.lower_open + (v,)
        )
    if step.kind == UPPER_SEMI_TRANSITORY:
        origin, rest = _take(d.upper_open, step.upper_index)
        return OpenPermutationDiagram(
            v, d.upper_arcs + ((origin, v),), d.lower_arcs, rest + (v,), d.lower_open
        )
    if step.kind == LOWER_SEMI_TRANSITORY:
        origin, rest = _take(d.lower_open, step.lower_index)
        return OpenPermutationDiagram(
            v, d.upper_arcs, d.lower_arcs + ((origin, v),), d.upper_open, rest + (v,)
        )
    if step.kind == CLOSER:
        uo, urest = _take(d.upper_open, step.upper_index)
        lo, lrest = _take(d.lower_open, step.lower_index)
        return OpenPermutationDiagram(
            v, d.upper_arcs + ((uo, v),), d.lower_arcs + ((lo, v),), urest, lrest
        )
    raise ValueError(f"bad step kind {step.kind!r} for a permutation diagram")


def permutation_arcs(sigma):
    """(upper, lower) arc lists of a permutation in one-line notation: the
    arc (i, sigma(i)) is upper when i <= sigma(i) (fixed points become
    degenerate upper arcs) and lower, as (sigma(i), i), otherwise."""
    upper = []
    lower = []
    for i, image in enumerate(sigma, start=1):
        if i <= image:
            upper.append((i, image))
        else:
            lower.append((image, i))
    return upper, lower


def perm_to_diagram(sigma):
    """Arc diagram of a permutation given in one-line notation."""
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    return OpenPermutationDiagram(n, *permutation_arcs(sigma))
