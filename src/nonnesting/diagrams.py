"""Arc diagrams for set partitions and permutations, open variants included.

An open partition diagram is a row of vertices 1..n with closed arcs (l, r)
drawn above and semi-arcs that have a left endpoint only.  Open permutation
diagrams carry two layers of arcs (upper and lower) plus matching numbers of
upper and lower semi-arcs.  Semi-arcs are kept sorted by left endpoint; the
outermost ("top" upper / "bottom" lower) semi-arc is the one with the
smallest left endpoint, matching the non-crossing drawing convention.

Vertices are 1-based.  A step, which adds one vertex, is a plain tuple
(see `legal_steps`).  Diagrams are immutable values; a step is implemented
once, on a mutable copy (`walk_state`) that applies it in place and undoes
it on backtrack.  Exhaustive generation grows one such copy and builds an
immutable diagram only for the ones it yields; `apply_step` is the state's
step applied to a copy of one diagram.  The immutable diagram is built from
the state's fields, which are already in canonical form (`_canonical`):
nothing is copied or sorted again, and the diagram is validated as the
public constructor validates it.  The state belongs to the walk that made
it and is never handed out; what callers get are immutable diagrams.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import lt

from .errors import ConstraintViolation

__all__ = [
    "OpenPartitionDiagram",
    "OpenPermutationDiagram",
    "SEMI_ARC_CHANGE",
    "max_nesting",
    "nesting_index",
    "partition_label",
    "permutation_label",
    "legal_steps",
    "apply_step",
    "walk_state",
    "permutation_arcs",
    "perm_to_diagram",
]

# step kinds for partition diagrams
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


def max_nesting(arcs, enhanced=False):
    """Size of the largest chain of mutually nesting arcs.

    Arcs are (left, right) pairs with left <= right.  In plain mode the
    chain condition is i < i' < j' < j and degenerate arcs (left == right)
    are rejected.  In enhanced mode the condition is i < i' <= j' < j, which
    admits a single degenerate arc as the innermost element of a chain.

    It is the `_nesting_indices` sweep read at an origin left of every arc,
    so it runs in O(m log m).  `arcs` may be any iterable, read once.
    """
    arcs = list(arcs)
    for left, right in arcs:
        if left > right:
            raise ValueError(f"arc ({left}, {right}) has left > right")
        if left == right and not enhanced:
            raise ValueError(f"degenerate arc ({left}, {right}) in plain mode")
    return _nesting_indices(arcs, (float("-inf"),))[0]


def _require_ints(n, arcs, opens):
    """Raise ValueError unless n and every end of `arcs` and `opens` is an
    int.  A bool or another int subclass is refused as well: `to_json`
    writes each vertex as Python prints it, which is JSON only for an int."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    for vertex in chain(chain.from_iterable(arcs), opens):
        if type(vertex) is not int:
            raise ValueError(f"vertex {vertex!r} is not an int")


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
        closed, opens = tuple(map(tuple, self.closed_arcs)), tuple(self.open_arcs)
        _require_ints(self.n, closed, opens)
        object.__setattr__(self, "closed_arcs", closed)
        object.__setattr__(self, "open_arcs", tuple(sorted(opens)))
        self._validate()

    @classmethod
    def _canonical(cls, n, closed_arcs, open_arcs):
        """The diagram of fields already in the form `__post_init__` gives
        them (a tuple of 2-tuples, ascending origins), set as they are and
        validated as the public constructor validates."""
        self = object.__new__(cls)
        self.__dict__.update(n=n, closed_arcs=closed_arcs, open_arcs=open_arcs)
        self._validate()
        return self

    def _validate(self):
        n, closed, opens = self.n, self.closed_arcs, self.open_arcs
        for left, right in closed:
            if not (1 <= left < right <= n):
                raise ValueError(f"arc ({left}, {right}) out of range for n={n}")
        seen = set()
        for origin in opens:
            if not 1 <= origin <= n:
                raise ValueError(f"semi-arc origin {origin} out of range")
            if origin in seen:
                raise ValueError(f"duplicate semi-arc origin {origin}")
            seen.add(origin)
        if not all(map(lt, opens, opens[1:])):
            raise ValueError(f"semi-arc origins {list(opens)} are not ascending")
        # the range loop above unpacked each arc, so every arc is a pair
        lefts, rights = zip(*closed) if closed else ((), ())
        lefts += opens
        if len(set(lefts)) < len(lefts) or len(set(rights)) < len(rights):
            bad = {v for ends in (lefts, rights) for v in ends if ends.count(v) > 1}
            raise ValueError(f"vertex degree constraint violated at {sorted(bad)}")

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

    def to_json(self):
        """`json.dumps(self.to_json_dict())`, written directly."""
        return '{"n": %d, "closed_arcs": %s, "open_arcs": %s}' % (
            self.n, _json_arcs(self.closed_arcs), list(self.open_arcs),
        )


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
        upper = tuple(map(tuple, self.upper_arcs))
        lower = tuple(map(tuple, self.lower_arcs))
        upper_open, lower_open = tuple(self.upper_open), tuple(self.lower_open)
        _require_ints(self.n, upper + lower, upper_open + lower_open)
        object.__setattr__(self, "upper_arcs", upper)
        object.__setattr__(self, "lower_arcs", lower)
        object.__setattr__(self, "upper_open", tuple(sorted(upper_open)))
        object.__setattr__(self, "lower_open", tuple(sorted(lower_open)))
        self._validate()

    @classmethod
    def _canonical(cls, n, upper_arcs, lower_arcs, upper_open, lower_open):
        """As `OpenPartitionDiagram._canonical`."""
        self = object.__new__(cls)
        self.__dict__.update(
            n=n, upper_arcs=upper_arcs, lower_arcs=lower_arcs,
            upper_open=upper_open, lower_open=lower_open,
        )
        self._validate()
        return self

    def _validate(self):
        n = self.n
        if len(self.upper_open) != len(self.lower_open):
            raise ValueError("upper and lower semi-arc counts must match")
        for left, right in self.upper_arcs:
            if not (1 <= left <= right <= n):
                raise ValueError(f"upper arc ({left}, {right}) out of range")
        for left, right in self.lower_arcs:
            if not (1 <= left < right <= n):
                raise ValueError(f"lower arc ({left}, {right}) out of range")
        for layer, arcs, opens in (
            ("upper", self.upper_arcs, self.upper_open),
            ("lower", self.lower_arcs, self.lower_open),
        ):
            for origin in opens:
                if not 1 <= origin <= n:
                    raise ValueError(f"{layer} semi-arc origin {origin} out of range")
            # each vertex is the left end of at most one arc or semi-arc of
            # the layer, and the right end of at most one arc; the range
            # loops above unpacked each arc, so every arc is a pair
            lefts, rights = zip(*arcs) if arcs else ((), ())
            lefts += opens
            if len(set(lefts)) < len(lefts) or len(set(rights)) < len(rights):
                raise ValueError(f"{layer} layer degree constraint violated")
            if not all(map(lt, opens, opens[1:])):
                raise ValueError(
                    f"{layer} semi-arc origins {list(opens)} are not ascending"
                )

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

    def to_json(self):
        """`json.dumps(self.to_json_dict())`, written directly."""
        return (
            '{"n": %d, "upper_arcs": %s, "lower_arcs": %s, '
            '"upper_open": %s, "lower_open": %s}'
        ) % (
            self.n, _json_arcs(self.upper_arcs), _json_arcs(self.lower_arcs),
            list(self.upper_open), list(self.lower_open),
        )


class _ArcTexts(dict):
    """The JSON text "[left, right]" of each arc, made on first use and kept
    for every arc whose right end is at most 255, so the table stays
    bounded however large the diagrams."""

    def __missing__(self, arc):
        text = "[%d, %d]" % arc
        if arc[1] <= 255:
            self[arc] = text
        return text


_arc_text = _ArcTexts().__getitem__


def _json_arcs(arcs):
    """The arcs, sorted, as a JSON list of [left, right] lists."""
    return "[%s]" % ", ".join(map(_arc_text, sorted(arcs)))


def _partition_arcs(diagram, enhanced):
    """The closed arcs of a partition diagram, plus each fixed point as a
    degenerate arc (f, f) when enhanced."""
    arcs = list(diagram.closed_arcs)
    if enhanced:
        arcs += [(f, f) for f in diagram.fixed_points()]
    return arcs


def nesting_index(diagram, semi_arc_origin, enhanced=False):
    """Largest j such that a j-nesting lies entirely right of the semi-arc.

    Equivalently: the largest j for which the semi-arc belongs to a future
    (j+1)-nesting.  In enhanced mode, fixed points of the diagram count as
    degenerate arcs.
    """
    if not isinstance(diagram, OpenPartitionDiagram):
        raise TypeError(f"not a partition diagram: {type(diagram).__name__}")
    if semi_arc_origin not in diagram.open_arcs:
        raise ValueError(f"{semi_arc_origin} is not a semi-arc origin")
    arcs = _partition_arcs(diagram, enhanced)
    return _nesting_indices(arcs, (semi_arc_origin,))[0]


def _nesting_indices(arcs, origins):
    """Nesting index of every semi-arc of one layer, in one sweep.

    Entry p is the size of the largest nesting chain among the arcs with
    left > origins[p], which must be ascending; degenerate arcs (f, f)
    count as in enhanced mode.  The arcs are sorted in descending order
    once and read from the right: a chain is then a strictly increasing run
    of right ends, so the patience-sort tails of rights grow while going
    down the origins, and an origin's index is the number of tails when it
    is reached.  This is the module's one chain measure: `max_nesting`,
    `nesting_index`, both labels and `_closable` all read it.
    """
    ordered = sorted(arcs, reverse=True)
    tails = []
    indices = [0] * len(origins)
    i = 0
    for pos in range(len(origins) - 1, -1, -1):
        origin = origins[pos]
        while i < len(ordered) and ordered[i][0] > origin:
            right = ordered[i][1]
            at = bisect_left(tails, right)
            if at == len(tails):
                tails.append(right)
            else:
                tails[at] = right
            i += 1
        indices[pos] = len(tails)
    return indices


def _layer_indices(arcs, origins, k, layer):
    """Nesting indices of one layer's semi-arcs, from one sweep whose first
    origin, 0, lies left of every vertex: that entry is the layer's largest
    nesting, and ConstraintViolation is raised if it exceeds k."""
    largest, *indices = _nesting_indices(arcs, (0, *origins))
    if largest > k:
        raise ConstraintViolation(f"diagram contains {layer} (>{k})-nesting")
    return indices


def _require_label_k(k):
    """Raise ValueError unless k is an int >= 1 (a bool or a float is not)."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def partition_label(diagram, k, enhanced=False):
    """Generating-tree label [s_0, ..., s_{k-1}] of an open partition diagram.

    s_i is the number of semi-arcs with (enhanced) nesting index >= i.  The
    diagram must avoid regular and future (k+1)-nestings, else
    ConstraintViolation is raised.
    """
    _require_label_k(k)
    indices = _layer_indices(
        _partition_arcs(diagram, enhanced), diagram.open_arcs, k, "a regular"
    )
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
    _require_label_k(k)
    up = _layer_indices(diagram.upper_arcs, diagram.upper_open, k, "an upper")
    lo = _layer_indices(diagram.lower_arcs, diagram.lower_open, k, "a lower")
    if any(idx >= k for idx in up) or any(idx >= k for idx in lo):
        raise ConstraintViolation(f"diagram contains a future ({k + 1})-nesting")
    r = tuple(sum(1 for idx in up if idx >= i) for i in range(1, k))
    s = tuple(sum(1 for idx in lo if idx >= i) for i in range(1, k))
    return (len(diagram.upper_open), r, s)


def _closable(arcs, origins, k):
    """Positions of the semi-arcs of one layer that may be closed without
    forcing a k-nesting.

    A semi-arc in a future (k-1)-nesting (nesting index >= k-2) may only be
    closed if it is the outermost one, i.e. has the smallest left endpoint.
    k=None means unconstrained.
    """
    if k is None:
        return range(len(origins))
    indices = _nesting_indices(arcs, origins)
    return [pos for pos, idx in enumerate(indices) if idx < k - 2 or pos == 0]


def legal_steps(diagram, k, enhanced=False):
    """All vertex additions that keep the diagram k-nonnesting, as step
    tuples: (kind, index) for a partition diagram and (kind, upper, lower)
    for a permutation diagram, where an index is the position of the
    semi-arc the step closes among the sorted origins of its layer, or None.

    `k` is the forbidden nesting size (k=None for the unconstrained tree);
    `enhanced` counts fixed points as arcs (partition diagrams only).  Order
    is deterministic: fixed point, semi-opener, semi-transitories by
    ascending index, closers by ascending index (permutation closers by
    lexicographic (upper, lower) index).
    """
    return walk_state(diagram, k, enhanced).steps()


def walk_state(diagram, k, enhanced=False):
    """A mutable copy of `diagram` for a depth-first walk of the k-nonnesting
    tree (arguments as in `legal_steps`).

    Its `steps()` are the legal step tuples, in `legal_steps` order, and
    `closing_step()` is the one step that closes a state with at most one
    semi-arc.  `apply(step)` adds one vertex in place, appending each new
    arc after the diagram's, and `undo(step)` removes it again, so the
    state is the diagram it was; `freeze()` builds the immutable diagram
    the state holds.  `apply` does not check its step, which must be one of
    `steps()`; `apply_step` is `apply` and `freeze` on a fresh state behind
    that check.
    """
    if k is not None:
        if type(k) is not int:  # a bool or a float as well
            raise ValueError(f"k must be an int, got {k!r}")
        if k < 2:
            raise ValueError(f"the k-nonnesting tree needs k >= 2, got {k}")
    if isinstance(diagram, OpenPartitionDiagram):
        return _PartitionState(diagram, k, enhanced)
    if isinstance(diagram, OpenPermutationDiagram):
        if enhanced:
            raise ValueError("enhanced applies to partition diagrams only")
        return _PermutationState(diagram, k)
    raise TypeError(f"not a diagram: {diagram!r}")


class _PartitionState:
    """Closed arcs in the order they were added, sorted semi-arc origins and
    the fixed points, as lists."""

    __slots__ = ("n", "closed", "opens", "fixed", "k", "enhanced")

    def __init__(self, diagram, k, enhanced):
        self.n = diagram.n
        self.closed = list(diagram.closed_arcs)
        self.opens = list(diagram.open_arcs)
        self.fixed = list(diagram.fixed_points())
        self.k = k
        self.enhanced = enhanced

    def semi_arcs(self):
        return len(self.opens)

    def steps(self):
        k, opens = self.k, self.opens
        steps = []
        # a fixed point bumps enhanced indices 0 -> 1, forbidden for k=2
        # unless there are no semi-arcs
        if not (self.enhanced and k == 2 and opens):
            steps.append((FIXED_POINT, None))
        steps.append((SEMI_OPENER, None))
        if opens:
            arcs = self.closed
            if self.enhanced:
                arcs = arcs + [(f, f) for f in self.fixed]
            closable = _closable(arcs, opens, k)
            steps += [(SEMI_TRANSITORY, pos) for pos in closable]
            steps += [(CLOSER, pos) for pos in closable]
        return steps

    def closing_step(self):
        """The step that closes a state with at most one semi-arc: the
        fixed point, or the closer of that semi-arc.  For such a state it is
        the only legal step that leaves no semi-arc (`_closable` always
        allows position 0)."""
        return (CLOSER, 0) if self.opens else (FIXED_POINT, None)

    def apply(self, step):
        kind, index = step
        self.n = v = self.n + 1
        if kind == FIXED_POINT:
            self.fixed.append(v)
        elif kind == SEMI_OPENER:
            self.opens.append(v)
        else:
            self.closed.append((self.opens.pop(index), v))
            if kind == SEMI_TRANSITORY:
                self.opens.append(v)

    def undo(self, step):
        kind, index = step
        self.n -= 1
        if kind == FIXED_POINT:
            self.fixed.pop()
        elif kind == SEMI_OPENER:
            self.opens.pop()
        else:
            if kind == SEMI_TRANSITORY:
                self.opens.pop()
            self.opens.insert(index, self.closed.pop()[0])

    def freeze(self):
        return OpenPartitionDiagram._canonical(
            self.n, tuple(self.closed), tuple(self.opens)
        )


class _PermutationState:
    """Upper and lower arcs in the order they were added (fixed points as
    degenerate upper arcs) and the sorted upper and lower semi-arc origins,
    as lists."""

    __slots__ = ("n", "upper", "lower", "upper_open", "lower_open", "k")

    def __init__(self, diagram, k):
        self.n = diagram.n
        self.upper = list(diagram.upper_arcs)
        self.lower = list(diagram.lower_arcs)
        self.upper_open = list(diagram.upper_open)
        self.lower_open = list(diagram.lower_open)
        self.k = k

    def semi_arcs(self):
        return len(self.upper_open)

    def steps(self):
        k = self.k
        steps = []
        if not (k == 2 and self.upper_open):
            steps.append((FIXED_POINT, None, None))
        steps.append((SEMI_OPENER, None, None))
        if self.upper_open:
            up = _closable(self.upper, self.upper_open, k)
            lo = _closable(self.lower, self.lower_open, k)
            steps += [(UPPER_SEMI_TRANSITORY, pu, None) for pu in up]
            steps += [(LOWER_SEMI_TRANSITORY, None, pl) for pl in lo]
            steps += [(CLOSER, pu, pl) for pu in up for pl in lo]
        return steps

    def closing_step(self):
        """As `_PartitionState.closing_step`: the fixed point, or the closer
        of the one semi-arc on each layer."""
        return (CLOSER, 0, 0) if self.upper_open else (FIXED_POINT, None, None)

    def apply(self, step):
        kind, pu, pl = step
        self.n = v = self.n + 1
        if kind == FIXED_POINT:
            self.upper.append((v, v))
        elif kind == SEMI_OPENER:
            self.upper_open.append(v)
            self.lower_open.append(v)
        else:
            if pu is not None:
                self.upper.append((self.upper_open.pop(pu), v))
            if pl is not None:
                self.lower.append((self.lower_open.pop(pl), v))
            if kind == UPPER_SEMI_TRANSITORY:
                self.upper_open.append(v)
            elif kind == LOWER_SEMI_TRANSITORY:
                self.lower_open.append(v)

    def undo(self, step):
        kind, pu, pl = step
        self.n -= 1
        if kind == FIXED_POINT:
            self.upper.pop()
        elif kind == SEMI_OPENER:
            self.upper_open.pop()
            self.lower_open.pop()
        else:
            if kind == UPPER_SEMI_TRANSITORY:
                self.upper_open.pop()
            elif kind == LOWER_SEMI_TRANSITORY:
                self.lower_open.pop()
            if pu is not None:
                self.upper_open.insert(pu, self.upper.pop()[0])
            if pl is not None:
                self.lower_open.insert(pl, self.lower.pop()[0])

    def freeze(self):
        return OpenPermutationDiagram._canonical(
            self.n, tuple(self.upper), tuple(self.lower),
            tuple(self.upper_open), tuple(self.lower_open),
        )


def apply_step(diagram, step):
    """Add one vertex to a diagram by a step tuple of its type; returns the
    extended diagram.  It is the walk state's step applied to a copy: a
    step fits when it is one of `legal_steps(diagram, None)`, which holds
    every step of a constrained or enhanced walk, and its indices are None
    or ints (a bool or a float is not); any other step raises ValueError."""
    state = walk_state(diagram, None)
    if step not in state.steps() or any(
        index is not None and type(index) is not int for index in step[1:]
    ):
        raise ValueError(
            f"step {step!r} does not fit an {type(diagram).__name__}"
            f" with semi-arc count {state.semi_arcs()}"
        )
    state.apply(step)
    return state.freeze()


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
