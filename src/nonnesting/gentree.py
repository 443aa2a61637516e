"""Succession rules and exact level-by-level counting.

The generating tree is never materialised: counting pushes a distribution of
labels (label -> arbitrary-precision count) through the succession rule one
level at a time, holding one level.  The permutation pusher also caches the
closing options of each (h, vector) it meets, and that cache keeps entries
from every level pushed so far.

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
from time import perf_counter

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


def _level_stream(spec, n_max, max_labels, prune, stats=None):
    """Yield the label distributions of levels 0..n_max, holding one at a time.

    With `prune`, each level drops the labels with more semi-arcs than there
    are levels left before n_max: a step closes at most one semi-arc, so
    those labels can no longer return to the root label.  `max_labels`
    bounds the number of labels kept per level; exceeding it raises
    ResourceLimitError carrying the last level completed.  `stats` is as
    in count_sequence; it is called before the label budget is checked, so
    the level that trips the budget is reported too.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    entry = spec._entry
    push = entry.pusher(entry).push
    current = {spec.root_label(): 1}
    yield current
    for n in range(1, n_max + 1):
        if stats is None:
            current = push(current)
        else:
            started = perf_counter()
            current = push(current)
            push_s = perf_counter() - started
            pushed = len(current)
        if prune:
            horizon = n_max - n
            current = {
                label: count
                for label, count in current.items()
                if _semi_arcs(label) <= horizon
            }
        if stats is not None:
            stats({
                "level": n,
                "labels_pushed": pushed,
                "labels_kept": len(current),
                "push_s": round(push_s, 6),
                "max_count_bits": max(
                    (c.bit_length() for c in current.values()), default=0
                ),
            })
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


def level_distribution(spec, n, max_labels=None, stats=None):
    """The full label distribution at level n, without keeping the levels
    before it; `max_labels` as in count_levels, `stats` as in
    count_sequence (nothing is pruned, so each level keeps every label)."""
    for entries in _level_stream(spec, n, max_labels, False, stats):
        pass
    return LevelDistribution(n, entries)


class _GenericPusher:
    """One-level push for families whose rule is applied label by label."""

    def __init__(self, family):
        self.successors = family.successors

    def push(self, current):
        nxt = {}
        for label, count in current.items():
            for child, mult in self.successors(label).items():
                nxt[child] = nxt.get(child, 0) + count * mult
        return nxt


class _RangeSumPusher:
    """One-level push for partition labels that sums each ranged rule once.

    Rule j of (3)/(4) gives a label the children [s_0, prefix, i, rest] and
    [s_0 - 1, prefix, i, rest] for s_j <= i < s_{j-1}, where prefix
    (s_1..s_{j-1}, each less one) and rest (s_{j+1}..) are fixed.  The first
    pass adds the label's count once, at s_j, to the line keyed by s_0,
    prefix and rest (they fix the end s_{j-1} too); the second walks each
    line from its smallest start to its end with a running sum.  A push
    then costs the distinct children plus one entry per label and rule,
    not the sum of the range lengths.
    """

    def __init__(self, family):
        self.enhanced = family.enhanced

    def push(self, current):
        nxt = {}
        lines = {}
        enhanced = self.enhanced
        for label, count in current.items():
            s0 = label[0]
            # (1) fixed point
            if not enhanced:
                fp = label
            elif len(label) >= 2:
                fp = (s0, s0) + label[2:]
            else:
                fp = label if s0 == 0 else None
            if fp is not None:
                nxt[fp] = nxt.get(fp, 0) + count
            # (2) semi-opener
            op = (s0 + 1,) + label[1:]
            nxt[op] = nxt.get(op, 0) + count
            # (3) semi-transitory and (4) closer, one line entry per rule
            dec = tuple([x - 1 for x in label[1:]])
            for j in range(1, len(label)):
                start = label[j]
                if start < label[j - 1]:
                    key = (s0, dec[: j - 1], label[j + 1 :])
                    starts = lines.get(key)
                    if starts is None:
                        lines[key] = {start: count}
                    else:
                        starts[start] = starts.get(start, 0) + count
            # (5) closing the top semi-arc of a future k-nesting
            if label[-1] > 0:
                child = (s0,) + dec
                nxt[child] = nxt.get(child, 0) + count
                child = (s0 - 1,) + dec
                nxt[child] = nxt.get(child, 0) + count
        for (s0, prefix, rest), starts in lines.items():
            end = prefix[-1] + 1 if prefix else s0
            high, low = (s0,) + prefix, (s0 - 1,) + prefix
            total = 0
            for i in range(min(starts), end):
                total += starts.get(i, 0)
                tail = (i,) + rest
                child = high + tail
                nxt[child] = nxt.get(child, 0) + total
                child = low + tail
                nxt[child] = nxt.get(child, 0) + total
        return nxt


class _PermutationPusher:
    """One-level push for permutation labels.

    Closers are the Cartesian product of upper and lower closings, so a
    direct push costs |upper| * |lower| per label.  Splitting the closer
    into close-the-upper-semi-arc followed by close-the-lower-semi-arc
    makes each level linear in |upper| + |lower| per label, which is what
    makes the deeper permutation tables tractable.

    The closings stay one child per option, not summed along lines as in
    `_RangeSumPusher`.  A ranged form of this push gave equal levels but
    took 1.5 to 2 times as long on k = 3, 4 and 5 (n = 14, 13 and 11):
    the ranges are short (2.3 steps on average at k = 5, n = 11, and 40 %
    are one step), so building the line keys costs more than it saves.
    """

    def __init__(self):
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
    pusher: Callable = _GenericPusher  # the row -> a fresh one-level pusher


def _partition_root(k):
    return (0,) * (k - 1)


def _permutation_root(k):
    zeros = (0,) * (k - 2)
    return (0, zeros, zeros)


def _open_root(k):
    return 0


_FAMILY_TABLE = {
    "partitions": _Family(
        True, _partition_root, successors_partition, OpenPartitionDiagram,
        pusher=_RangeSumPusher,
    ),
    "partitions-enhanced": _Family(
        True, _partition_root, partial(successors_partition, enhanced=True),
        OpenPartitionDiagram, enhanced=True, pusher=_RangeSumPusher,
    ),
    "permutations": _Family(
        True, _permutation_root, successors_permutation,
        OpenPermutationDiagram, pusher=lambda _family: _PermutationPusher(),
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


def count_sequence(spec, n_max, max_labels=None, stats=None):
    """a(1..n_max): closed objects (root label) per level.

    Labels that can no longer return to the root by level n_max are pruned
    as the levels are pushed, so `max_labels` bounds the pruned label set.
    `stats`, if given, is called with one dict per level 1..n_max: its
    `level`, the labels the push produced (`labels_pushed`) and kept after
    pruning (`labels_kept`), the push's seconds (`push_s`) and the bit
    length of the largest kept count (`max_count_bits`).  Without it no
    timing call is made.
    """
    root = spec.root_label()
    levels = _level_stream(spec, n_max, max_labels, True, stats)
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
