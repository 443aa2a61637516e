"""Succession rules and exact level-by-level counting.

The generating tree is never materialised: counting pushes a distribution of
labels (label -> arbitrary-precision count) through the succession rule one
level at a time, so memory is proportional to the number of distinct labels
per level.

Label conventions (k below is always the *forbidden* nesting size):
  * partitions / enhanced partitions: tuple (s_0, ..., s_{k-2}) with
    s_0 >= s_1 >= ... >= 0; s_0 is the number of semi-arcs.
  * permutations: (h, r, s) with r and s tuples of length k-2 and
    h >= r_1 >= ... >= 0, h >= s_1 >= ... >= 0.
  * unconstrained open diagrams: the plain integer number of (upper)
    semi-arcs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from . import diagrams
from .diagrams import OpenPartitionDiagram, OpenPermutationDiagram
from .errors import ResourceLimitError

__all__ = [
    "FAMILIES",
    "CONSTRAINED_FAMILIES",
    "FamilySpec",
    "LevelDistribution",
    "successors_partition",
    "successors_permutation",
    "count_levels",
    "level_distribution",
    "count_sequence",
    "generate_diagrams",
]


@dataclass(frozen=True)
class FamilySpec:
    """A family plus the forbidden nesting size; everything else about the
    family comes from its row in `_FAMILY_TABLE`."""

    family: str
    k: int | None = None

    def __post_init__(self):
        entry = _FAMILY_TABLE.get(self.family)
        if entry is None:
            raise ValueError(f"unknown family {self.family!r}")
        if not entry.takes_k:
            if self.k is not None:
                raise ValueError(f"--k is not accepted for family {self.family}")
        elif self.k is None:
            raise ValueError(f"--k is required for family {self.family}")
        elif self.k < 2:
            raise ValueError(f"family {self.family} needs k >= 2, got {self.k}")
        object.__setattr__(self, "_entry", entry)

    def root_label(self):
        return self._entry.root_label(self.k)

    def successors(self, label):
        return self._entry.successors(label)

    def walk_start(self):
        """The family's empty diagram and its `legal_steps` enhanced flag."""
        entry = self._entry
        return entry.diagram(0), entry.enhanced


@dataclass
class LevelDistribution:
    """Exact multiset of labels at one level of a generating tree."""

    level: int
    entries: dict = field(default_factory=dict)

    def total(self):
        return sum(self.entries.values())

    def count_of(self, label):
        return self.entries.get(label, 0)

    def to_json_dict(self):
        return {
            "n": self.level,
            "labels": [
                {"label": _label_to_json(label), "count": str(count)}
                for label, count in sorted(self.entries.items())
            ],
        }


def _label_to_json(label):
    if isinstance(label, int):
        return [label]
    if len(label) == 3 and isinstance(label[1], tuple):
        h, r, s = label
        return [h, list(r), list(s)]
    return list(label)


def successors_partition(label, enhanced=False):
    """Children multiset of a partition label under the succession rule.

    Rules, for a label [s_0, ..., s_{k-1}] of a (k+1)-nonnesting open
    partition diagram:
      (1) fixed point: label unchanged (enhanced: s_1 becomes s_0);
      (2) semi-opener: s_0 + 1;
      (3) semi-transitory closing a semi-arc of index j-1 < k-1:
          [s_0, s_1-1, ..., s_{j-1}-1, i, s_{j+1}, ...] for s_j <= i <= s_{j-1}-1;
      (4) closer, same with s_0 - 1;
      (5) if s_{k-1} > 0, the semi-transitory and closer that close the top
          semi-arc: all of s_1..s_{k-1} decrement.
    """
    k = len(label)
    s0 = label[0]
    children = Counter()
    # (1) fixed point
    if enhanced:
        if k >= 2:
            children[(s0, s0) + label[2:]] += 1
        elif s0 == 0:
            children[label] += 1
    else:
        children[label] += 1
    # (2) semi-opener
    children[(s0 + 1,) + label[1:]] += 1
    # (3) semi-transitory and (4) closer
    for j in range(1, k):
        prefix = tuple(x - 1 for x in label[1:j])
        rest = label[j + 1 :]
        for i in range(label[j], label[j - 1]):
            children[(s0,) + prefix + (i,) + rest] += 1
            children[(s0 - 1,) + prefix + (i,) + rest] += 1
    # (5) closing the top semi-arc of a future k-nesting
    if label[k - 1] > 0:
        dec = tuple(x - 1 for x in label[1:])
        children[(s0,) + dec] += 1
        children[(s0 - 1,) + dec] += 1
    return children


def _closing_options(h, vec):
    """Vectors reachable by closing one (upper or lower) semi-arc.

    vec is (r_1, ..., r_{k-1}) with the convention r_0 = h.  Closing a
    semi-arc of nesting index j-1 bumps the index of the same-index
    semi-arcs outside it, giving the ranged rules (3b)/(4b); closing the
    outermost semi-arc of a future k-nesting (allowed only for the
    outermost) decrements the whole vector, rules (3a)/(4a).
    """
    ext = (h,) + vec
    options = []
    for j in range(1, len(ext)):
        prefix = tuple(x - 1 for x in vec[: j - 1])
        rest = vec[j:]
        for i in range(ext[j], ext[j - 1]):
            options.append(prefix + (i,) + rest)
    if ext[-1] >= 1:
        options.append(tuple(x - 1 for x in vec))
    return options


def successors_permutation(label):
    """Children multiset of a permutation label (h, r, s).

    Closer children are the Cartesian product of the allowed upper and lower
    closings.  A fixed point sets r_1 to h (all upper semi-arcs join a
    future enhanced 2-nesting); for length-1 labels it is only allowed when
    h = 0.
    """
    h, r, s = label
    children = Counter()
    # (1) fixed point
    if r:
        children[(h, (h,) + r[1:], s)] += 1
    elif h == 0:
        children[label] += 1
    # (2) semi-opener
    children[(h + 1, r, s)] += 1
    upper = _closing_options(h, r)
    lower = _closing_options(h, s)
    # (3) upper semi-transitory
    for r2 in upper:
        children[(h, r2, s)] += 1
    # (4) lower semi-transitory
    for s2 in lower:
        children[(h, r, s2)] += 1
    # (5) closer
    for r2 in upper:
        for s2 in lower:
            children[(h - 1, r2, s2)] += 1
    return children


def _successors_open_partition(m):
    # (2m): fixed point, semi-opener, m semi-transitories, m closers
    children = Counter({m: m + 1, m + 1: 1})
    if m > 0:
        children[m - 1] = m
    return children


def _successors_open_permutation(m):
    children = Counter({m: 2 * m + 1, m + 1: 1})
    if m > 0:
        children[m - 1] = m * m
    return children


def _semi_arcs(label):
    return label if isinstance(label, int) else label[0]


def _level_stream(spec, n_max, max_labels, prune):
    """Yield the label distributions of levels 0..n_max, holding one at a time.

    With `prune`, each level drops the labels with more semi-arcs than there
    are levels left before n_max: a step closes at most one semi-arc, so
    those labels can no longer return to the root label.  `max_labels`
    bounds the number of labels kept per level; exceeding it raises
    ResourceLimitError carrying the last level completed.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    entry = spec._entry
    push = entry.pusher(entry.successors).push
    current = {spec.root_label(): 1}
    yield current
    for n in range(1, n_max + 1):
        current = push(current)
        if prune:
            horizon = n_max - n
            current = {
                label: count
                for label, count in current.items()
                if _semi_arcs(label) <= horizon
            }
        if max_labels is not None and len(current) > max_labels:
            raise ResourceLimitError(
                f"label budget {max_labels} exceeded at level {n} "
                f"({len(current)} labels)",
                reached=n - 1,
            )
        yield current


def count_levels(spec, n_max, max_labels=None):
    """Full label distributions for levels 0..n_max.

    Deterministic whatever the order labels are merged in, since the counts
    are exact integer sums.  `max_labels` bounds the number of distinct
    labels per level; exceeding it raises ResourceLimitError carrying the
    last level completed.
    """
    stream = _level_stream(spec, n_max, max_labels, prune=False)
    return [LevelDistribution(n, entries) for n, entries in enumerate(stream)]


def level_distribution(spec, n, max_labels=None):
    """The full label distribution at level n, without keeping the levels
    before it; `max_labels` as in count_levels."""
    for entries in _level_stream(spec, n, max_labels, prune=False):
        pass
    return LevelDistribution(n, entries)


class _GenericPusher:
    """One-level push for families whose rule is applied label by label."""

    def __init__(self, successors):
        self.successors = successors
        self.cache = {}

    def push(self, current):
        nxt = {}
        for label, count in current.items():
            children = self.cache.get(label)
            if children is None:
                children = list(self.successors(label).items())
                self.cache[label] = children
            for child, mult in children:
                nxt[child] = nxt.get(child, 0) + count * mult
        return nxt


class _PermutationPusher:
    """One-level push for permutation labels.

    Closers are the Cartesian product of upper and lower closings, so a
    direct push costs |upper| * |lower| per label.  Splitting the closer
    into close-the-upper-semi-arc followed by close-the-lower-semi-arc
    makes each level linear in |upper| + |lower| per label, which is what
    makes the deeper permutation tables tractable.
    """

    def __init__(self, _successors):  # the push is the rule's split form
        self.options = {}

    def _closings(self, h, vec):
        key = (h, vec)
        opts = self.options.get(key)
        if opts is None:
            opts = _closing_options(h, vec)
            self.options[key] = opts
        return opts

    def push(self, current):
        nxt = {}
        half_closed = {}
        for label, count in current.items():
            h, r, s = label
            if r:
                fp = (h, (h,) + r[1:], s)
                nxt[fp] = nxt.get(fp, 0) + count
            elif h == 0:
                nxt[label] = nxt.get(label, 0) + count
            op = (h + 1, r, s)
            nxt[op] = nxt.get(op, 0) + count
            for r2 in self._closings(h, r):
                child = (h, r2, s)
                nxt[child] = nxt.get(child, 0) + count
                half_closed[child] = half_closed.get(child, 0) + count
            for s2 in self._closings(h, s):
                child = (h, r, s2)
                nxt[child] = nxt.get(child, 0) + count
        for (h, r2, s), count in half_closed.items():
            for s2 in self._closings(h, s):
                child = (h - 1, r2, s2)
                nxt[child] = nxt.get(child, 0) + count
        return nxt


@dataclass(frozen=True)
class _Family:
    """One family: its k rule, succession rule and geometric counterpart."""

    takes_k: bool
    root_label: Callable  # k -> the label of the empty diagram
    successors: Callable  # label -> Counter of child labels
    diagram: type  # the geometric counterpart, walked from size 0
    enhanced: bool = False  # the `enhanced` flag of diagrams.legal_steps
    pusher: type = _GenericPusher  # built from `successors`; pushes a level


def _partition_root(k):
    return (0,) * (k - 1)


def _permutation_root(k):
    zeros = (0,) * (k - 2)
    return (0, zeros, zeros)


def _open_root(k):
    return 0


_FAMILY_TABLE = {
    "partitions": _Family(
        True, _partition_root, successors_partition, OpenPartitionDiagram
    ),
    "partitions-enhanced": _Family(
        True, _partition_root, partial(successors_partition, enhanced=True),
        OpenPartitionDiagram, enhanced=True,
    ),
    "permutations": _Family(
        True, _permutation_root, successors_permutation,
        OpenPermutationDiagram, pusher=_PermutationPusher,
    ),
    "open-partitions": _Family(
        False, _open_root, _successors_open_partition, OpenPartitionDiagram
    ),
    "open-permutations": _Family(
        False, _open_root, _successors_open_permutation, OpenPermutationDiagram
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)
CONSTRAINED_FAMILIES = tuple(f for f in FAMILIES if _FAMILY_TABLE[f].takes_k)


def count_sequence(spec, n_max, max_labels=None):
    """a(1..n_max): closed objects (root label) per level.

    Labels that can no longer return to the root by level n_max are pruned
    as the levels are pushed, so `max_labels` bounds the pruned label set.
    """
    root = spec.root_label()
    levels = _level_stream(spec, n_max, max_labels, prune=True)
    next(levels)
    return [entries.get(root, 0) for entries in levels]


def generate_diagrams(spec, n, closed_only=False):
    """Depth-first stream of every k-nonnesting open diagram of size n.

    Each diagram is emitted exactly once, in the deterministic step order of
    `legal_steps`.  With closed_only, only diagrams without semi-arcs (true
    set partitions / permutations) are emitted, and only prefixes that can
    still close are walked: a step that would leave more semi-arcs than
    vertices remain before n is skipped before its child is built, since
    each step closes at most one semi-arc.  The cost then follows the
    closed diagrams, not all open ones.  The walk keeps an explicit stack,
    so n is not bounded by the recursion limit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    root, enhanced = spec.walk_start()
    change = diagrams.SEMI_ARC_CHANGE

    def children(d):
        steps = diagrams.legal_steps(d, spec.k, enhanced)
        if closed_only:
            room = n - d.n - 1 - d.semi_arcs()
            steps = [s for s in steps if change[s.kind] <= room]
        return (diagrams.apply_step(d, s) for s in steps)

    def walk():
        stack = [iter((root,))]
        while stack:
            d = next(stack[-1], None)
            if d is None:
                stack.pop()
            elif d.n == n:
                yield d  # closed if closed_only: the steps were filtered
            else:
                stack.append(children(d))

    return walk()
