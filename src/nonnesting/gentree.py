"""Succession rules and exact level-by-level counting.

The generating tree is never materialised: counting pushes a distribution of
labels (label -> arbitrary-precision count) through the succession rule one
level at a time, holding one level.

Label conventions (k below is always the *forbidden* nesting size):
  * partitions / enhanced partitions: tuple (s_0, ..., s_{k-2}) with
    s_0 >= s_1 >= ... >= 0; s_0 is the number of semi-arcs.
  * permutations: (h, r, s) with r and s tuples of length k-2 and
    h >= r_1 >= ... >= 0, h >= s_1 >= ... >= 0.
  * unconstrained open diagrams: the plain integer number of (upper)
    semi-arcs.

Each label has a code, one non-negative int: the label's digits s_0, ...,
s_{k-2} (partitions) or h, r_1, ..., r_{k-2}, s_1, ..., s_{k-2}
(permutations), most significant first, at a fixed width in base
n_max + 1.  No digit of a label at a level <= n_max exceeds n_max, so
codes are distinct, code order is label order, and the semi-arc count is
the leading digit.  The open families' labels are already ints and are
their own codes.  Only the pushers know the codes: each is built for one
n_max and owns its encode and its decode.

Between levels the DP holds each level in its pusher's own form: the
open-family pusher a code dict (code -> count), and the partition and
permutation pushers rows, so that a push moves whole rows (a row holds
the labels that differ only in the last digit, or in s).  Every pusher's
one `step` makes the next level in its form.  With `limit` (a multiple of
the pusher's `weight`, the unit of the semi-arc digit), the next level
holds only the children whose codes are below it; `None` is no limit.
Each pusher turns a code dict into its form (`from_codes`) and back
(`to_codes`), reads one label's count (`count_of`), counts a level's
labels (`labels`), gives the bit length of its widest count
(`count_bits`) and reads a level in label order, row by row (`walk`).
`count_sequence` reads the root's count from each level; `count_levels`
and `level_distribution` return each level in that form, as a
`LevelDistribution`.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import accumulate, chain, islice
from operator import add
from time import perf_counter

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


class FamilySpec:
    """A family plus the forbidden nesting size; everything else about the
    family comes from its row in `_FAMILY_TABLE`.  Immutable, and equal to
    (and hashed as) any spec of the same family and k."""

    def __init__(self, family, k=None):
        entry = _FAMILY_TABLE.get(family)
        if entry is None:
            raise ValueError(f"unknown family {family!r}")
        if not entry.takes_k:
            if k is not None:
                raise ValueError(f"--k is not accepted for family {family}")
        elif k is None:
            raise ValueError(f"--k is required for family {family}")
        elif type(k) is not int:  # a bool or a float as well
            raise ValueError(f"k must be an int, got {k!r}")
        elif k < 2:
            raise ValueError(f"family {family} needs k >= 2, got {k}")
        self.__dict__.update(family=family, k=k, _entry=entry)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.k) == (other.family, other.k)

    def __hash__(self):
        return hash((self.family, self.k))

    def __repr__(self):
        return f"FamilySpec(family={self.family!r}, k={self.k!r})"

    def root_label(self):
        return self._entry.root_label(self.k)

    def successors(self, label):
        return self._entry.successors(label)

    def walk_start(self):
        """The family's empty diagram and its `legal_steps` enhanced flag."""
        from . import diagrams  # only the walks need the diagrams

        entry = self._entry
        return getattr(diagrams, entry.diagram)(0), entry.enhanced


# labels per piece of a level dump: a dump holds one chunk's text at a time
DUMP_CHUNK = 1024


class LevelDistribution:
    """Exact multiset of labels at one level of a generating tree, held
    in its pusher's form, which the pusher's `walk` reads in label order.
    `entries` (label -> count, in label order) is decoded on first read
    and then kept; `dump` writes the level in any format of
    `count --all-labels` without reading it.
    """

    def __init__(self, level, rows, pusher):
        self.level = level
        self._rows = rows
        self._pusher = pusher
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            rows = self._pusher.walk(self._rows, False)
            self._entries = dict(chain.from_iterable(rows))
        return self._entries

    def total(self):
        pairs = chain.from_iterable(self._pusher.walk(self._rows, False))
        return sum(count for _, count in pairs)

    def dump(self, write, fmt):
        """Write the level as `count --all-labels --format fmt` prints it,
        newline included, passing `write` one chunk of `DUMP_CHUNK` labels
        at a time (the last may hold fewer), in label order.

        "json" is one line, {"n": level, "labels": [{"label": [...],
        "count": "..."}, ...]}, as `json.dumps` writes it, each label a
        list (a permutation's r and s nested lists).  "csv" is a
        "label,count" header and one row per label, the label as JSON;
        "text" is one "label: count" line per label, the label as Python
        prints it.
        """
        labels = chain.from_iterable(self._pusher.walk(self._rows, fmt == "json"))
        chunks = iter(lambda: list(islice(labels, DUMP_CHUNK)), [])
        if fmt == "json":
            write('{"n": %d, "labels": [' % self.level)
            sep = ""
            for chunk in chunks:
                write(sep + ", ".join(chunk))
                sep = ", "
            write("]}")
            write("\n")
        elif fmt == "csv":
            import csv
            import io

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["label", "count"])
            for chunk in chunks:
                writer.writerows([_json_label(label), count] for label, count in chunk)
                write(buf.getvalue())
                buf.seek(0)
                buf.truncate()
            if buf.tell():  # no label came: the header alone
                write(buf.getvalue())
        elif fmt == "text":
            for chunk in chunks:
                write("".join([f"{label}: {count}\n" for label, count in chunk]))
        else:
            raise ValueError(f"unknown dump format {fmt!r}")

    def to_json(self):
        """The level as one line of JSON: `dump`'s "json" line, without
        its newline."""
        pieces = []
        self.dump(pieces.append, "json")
        return "".join(pieces[:-1])  # without the newline

    def __eq__(self, other):
        if not isinstance(other, LevelDistribution):
            return NotImplemented
        return (self.level, self.entries) == (other.level, other.entries)

    def __repr__(self):
        return f"LevelDistribution(level={self.level!r}, entries={self.entries!r})"


def _json_label(label):
    """A label (an int, or a tuple of ints and tuples of ints) as
    `json.dumps` writes it: `str` writes the same text but for a tuple's
    round brackets and a one-element tuple's trailing comma."""
    return str(label).replace("(", "[").replace(")", "]").replace(",]", "]")


def successors_partition(label, enhanced=False):
    """Children multiset of a partition label under the succession rule.

    Rules, for a label [s_0, ..., s_{k-1}] of a (k+1)-nonnesting open
    partition diagram:
      (1) fixed point: label unchanged (enhanced: s_1 becomes s_0);
      (2) semi-opener: s_0 + 1;
      (3) semi-transitory: s_0 kept, and one semi-arc closed, giving any
          vector of `_closing_options(s_0, [s_1, ..., s_{k-1}])`;
      (4) closer, the same with s_0 - 1.
    """
    s0 = label[0]
    children = Counter()
    # (1) fixed point
    if enhanced:
        if len(label) >= 2:
            children[(s0, s0) + label[2:]] += 1
        elif s0 == 0:
            children[label] += 1
    else:
        children[label] += 1
    # (2) semi-opener
    children[(s0 + 1,) + label[1:]] += 1
    # (3) semi-transitory and (4) closer
    for vec in _closing_options(s0, label[1:]):
        children[(s0,) + vec] += 1
        children[(s0 - 1,) + vec] += 1
    return children


def _closing_options(h, vec):
    """Vectors reachable by closing one semi-arc, for the partition rule
    and for each side (upper or lower) of the permutation rule.

    vec is (r_1, ..., r_{k-1}) with the convention r_0 = h.  Closing a
    semi-arc of nesting index j-1 < k-1 bumps the index of the same-index
    semi-arcs outside it: (r_1-1, ..., r_{j-1}-1, i, r_{j+1}, ...) for
    r_j <= i < r_{j-1}.  Closing the outermost semi-arc of a future
    k-nesting (possible when r_{k-1} > 0) decrements the whole vector.
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


def _pusher(spec, n_max, max_labels=None, stats=None, bounded=False):
    """A fresh one-level pusher for spec whose codes hold every label of
    levels 0..n_max, with the code of its root label as `root`.  The label
    budget `max_labels` of the push, None for none, and its `stats`
    callback, None or callable, are checked here too, before any push.

    With `bounded`, a k past n_max + 2 is built as n_max + 2.  No diagram
    of size <= n_max has a nesting of more than (n_max + 1) / 2 arcs, a
    fixed point counting as a degenerate arc, so no label entry past index
    n_max is ever nonzero, and the rule gives the same children, counts
    and labels as at k = n_max + 2; only the labels' length differs."""
    if type(n_max) is not int:  # a bool or a float as well
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_labels is not None and (type(max_labels) is not int or max_labels < 1):
        raise ValueError(f"max_labels must be an int >= 1, got {max_labels!r}")
    if stats is not None and not callable(stats):
        raise ValueError(f"stats must be None or callable, got {stats!r}")
    entry, k = spec._entry, spec.k
    if bounded and k is not None:
        k = min(k, n_max + 2)
    pusher = entry.pusher(entry, k, n_max)
    pusher.root = pusher.encode(entry.root_label(k))
    return pusher


def _level_stream(pusher, root, n_max, max_labels, prune, stats=None):
    """Yield the label distributions of levels 0..n_max in the pusher's own
    form, holding one at a time; level 0 is the root code alone.

    With `prune`, each level leaves out the labels with more semi-arcs than
    there are levels left before n_max: a step closes at most one semi-arc,
    so those labels can no longer return to the root label.  The semi-arc
    count is the leading digit of a code, so the push is given the code
    bound and builds no child at or past it.  `max_labels` bounds the
    number of labels kept per level; exceeding it raises
    ResourceLimitError carrying the last level completed.  `stats` is as
    in count_sequence; it is called before the label budget is checked,
    so the level that trips the budget is reported too.  Labels are
    counted only for `stats` and `max_labels`.
    """
    step, labels = pusher.step, pusher.labels
    current = pusher.from_codes({root: 1})
    kept = 1  # the labels of the level last yielded, when counted
    yield current
    for n in range(1, n_max + 1):
        limit = (n_max - n + 1) * pusher.weight if prune else None
        if stats is None:
            current = step(current, limit)
            if max_labels is not None:
                kept = labels(current)
        else:
            labels_in = kept
            started = perf_counter()
            current = step(current, limit)
            push_s = perf_counter() - started
            kept = labels(current)
            stats({
                "level": n,
                "labels_in": labels_in,
                "labels_kept": kept,
                "push_s": round(push_s, 6),
                "max_count_bits": pusher.count_bits(current),
            })
        if max_labels is not None and kept > max_labels:
            raise ResourceLimitError(
                f"label budget {max_labels} exceeded at level {n} "
                f"({kept} labels)",
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
    pusher = _pusher(spec, n_max, max_labels)
    stream = _level_stream(pusher, pusher.root, n_max, max_labels, prune=False)
    return [LevelDistribution(n, level, pusher) for n, level in enumerate(stream)]


def level_distribution(spec, n, max_labels=None, stats=None):
    """The full label distribution at level n, without keeping the levels
    before it; `max_labels` as in count_levels, `stats` as in
    count_sequence (nothing is pruned, so each level keeps every label)."""
    pusher = _pusher(spec, n, max_labels, stats)
    for level in _level_stream(pusher, pusher.root, n, max_labels, False, stats):
        pass
    return LevelDistribution(n, level, pusher)


class _GenericPusher:
    """One-level push for families whose rule is applied label by label.

    Their labels are already ints (the open families' semi-arc count), so
    the codec is the identity and the semi-arc digit has weight 1.  A
    level is held as its code dict: `from_codes` and `to_codes` are the
    identity.
    """

    weight = 1

    def __init__(self, family, k, n_max):
        self.successors = family.successors

    @staticmethod
    def encode(label):
        return label

    decode = from_codes = to_codes = encode
    labels = staticmethod(len)

    @staticmethod
    def count_of(codes, code):
        return codes.get(code, 0)

    @staticmethod
    def walk(codes, json):
        """The level in label order, as one row of the digit pushers' `walk`."""
        if json:
            yield [f'{{"label": [{c}], "count": "{codes[c]}"}}' for c in sorted(codes)]
        else:
            yield [(c, codes[c]) for c in sorted(codes)]

    @staticmethod
    def count_bits(codes):
        return max(map(int.bit_length, codes.values()), default=0)

    def step(self, current, limit=None):
        """The next level."""
        nxt = {}
        for label, count in current.items():
            children = self.successors(label).items()
            if limit is not None and label + 1 >= limit:  # its opener is past it
                children = [(c, mult) for c, mult in children if c < limit]
            for child, mult in children:
                nxt[child] = nxt.get(child, 0) + count * mult
        return nxt


class _DigitCodec:
    """Fixed-width codes of `width` digits in base n_max + 1, most
    significant first.  Each digit of a label at a level <= n_max is at
    most n_max, so every such label has its own code, and code order is
    the order of the digit tuples.  `weights[j]` is the value of a unit in
    digit j; `weight`, that of the leading (semi-arc) digit."""

    def __init__(self, width, n_max):
        self.base = n_max + 1
        self.weights = [self.base ** (width - 1 - j) for j in range(width)]
        self.weight = self.weights[0]
        # past every child of a level < n_max: a step's bound under no limit
        self.unbounded = (n_max + 2) * self.weight

    def encode_digits(self, digits):
        code = 0
        for d in digits:
            if not 0 <= d < self.base:
                raise ValueError(f"label digit {d} is outside base {self.base}")
            code = code * self.base + d
        return code

    def decode_digits(self, code):
        digits = []
        for w in self.weights:
            d, code = divmod(code, w)
            digits.append(d)
        return digits


class _RangeSumPusher(_DigitCodec):
    """One-level push for partition labels (s_0, ..., s_{k-2}), coded with
    digit j = s_j, that holds a level as rows along its last digit and
    moves whole rows.

    A level is a dict from the code of a prefix (s_0, ..., s_{k-3}) (its
    key) to its row: the counts of the labels (prefix, t) for t = 0..
    s_{k-3}, a list of s_{k-3} + 1 slots, 0 where there is no label.  For
    k = 2 the key is the whole label (s_0,) and the row has one slot.  A
    label's code is key * `slots` + t.  Rows are shared, by the two levels
    and by several keys of one level, so a row is never changed once a
    level holds it: the push builds new lists.

    The fixed point keeps the row (enhanced: s_1 set to s_0) and the
    opener moves it to s_0 + 1; a row that meets another at its key is
    added to it slot by slot, by `_add`.  For k = 3 the enhanced fixed
    point gathers the row into slot s_0 of its own key: once the other
    children are in, the row's total is added there with one add, in
    place.  The ranged closing j of (3)/(4) gives a label the children
    (s_0, s_1 - 1, ..., s_{j-1} - 1, i, s_{j+1}, ...) and those with
    s_0 - 1, for s_j <= i < s_{j-1}.

    For the last digit, j = k - 2, the children of a row's labels share a
    row, and the top closing of the label at t is its ranged child at
    t - 1, so child c of the row gets the row's slots 0..c + 1: the row's
    running sums, one `accumulate` per row.  For k = 2 the top closing is
    the only one, and it moves the row to s_0 and s_0 - 1.

    An earlier rule j < k - 2 moves whole rows.  Its children at i get the
    running sum of a group's rows at 0..i, where a group is the rows that
    differ only in digit j.  The first pass of a step adds each group to
    the step's set for rule j when one of its rows closes there
    (s_j < s_{j-1}).  One sweep per group then reads its rows straight
    from the level, for i from the group's s_{j+1}, below which it has no
    row, to s_{j-1} - 1.  For j = k - 3, s_{j+1} is the rows' own last
    digit: the sweep starts at 0, and its row i has i + 1 slots.  A push
    costs the rows it adds, not the sum of the range lengths.

    Every closing applies the horizon: under a `limit` it adds the
    semi-transitory child only below the limit, and always its closer, one
    semi-arc lower.  A row and its children share its labels' s_0, so they
    fall on one side of the limit together.  A row one semi-arc below the
    limit makes no semi-opener, a row at it makes no fixed point, and one
    past it makes nothing: its groups are never added.
    """

    def __init__(self, family, k, n_max):
        super().__init__(k - 1, n_max)
        self.enhanced = family.enhanced
        m = self.m = k - 2  # the last digit
        self.slots = self.base if m else 1
        # the weights of the key's digits s_0, ..., s_{m-1} (k = 2: s_0)
        keys = [w // self.slots for w in self.weights[: m or 1]]
        self.p0 = keys[0]
        self.p1 = keys[1] if m > 1 else 0
        self.below = sum(keys[1:m])  # what the last digit's children lose
        # earlier rule j's step, what its children lose besides the group's
        # digit j, and the weights of its bound s_{j-1} and of s_{j+1}, where
        # its sweep starts (None: the rows' own digit)
        self.rules = tuple(
            (keys[j], sum(keys[1:j]), keys[j - 1], keys[j + 1] if j + 1 < m else None)
            for j in range(1, m)
        )

    def encode(self, label):
        return self.encode_digits(label)

    def decode(self, code):
        return tuple(self.decode_digits(code))

    def from_codes(self, codes):
        """The level of a code dict, as rows."""
        rows, slots, base = {}, self.slots, self.base
        for code, count in codes.items():
            key, t = divmod(code, slots)
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * (key % base + 1 if self.m else 1)
            row[t] += count
        return rows

    def to_codes(self, rows):
        """The code dict of a level held as rows: its nonzero slots."""
        slots = self.slots
        return {
            key * slots + t: count
            for key, row in rows.items()
            for t, count in enumerate(row)
            if count
        }

    def count_of(self, rows, code):
        key, t = divmod(code, self.slots)
        row = rows.get(key)
        return row[t] if row is not None and t < len(row) else 0

    @staticmethod
    def labels(rows):
        """The labels of a level held as rows: its nonzero slots."""
        return sum([len(row) - row.count(0) for row in rows.values()])

    @staticmethod
    def count_bits(rows):
        return max(map(int.bit_length, chain.from_iterable(rows.values())), default=0)

    def walk(self, rows, json):
        """The nonzero slots of a level held as rows, in label order, one
        list per row: each label's (label, count) or, with `json`, its row
        of the JSON dump.  A row's head, the digits before the last, is
        decoded once."""
        for key, row in sorted(rows.items()):
            # `last` is 0, or for k = 2, where a row has one slot, s_0
            *head, last = self.decode_digits(key * self.slots)
            row = enumerate(row, last)  # (the last digit, the count) per slot
            if json:
                head = '{"label": [' + "".join([f"{d}, " for d in head])
                yield [f'{head}{t}], "count": "{count}"}}' for t, count in row if count]
            else:
                head = tuple(head)
                yield [(head + (t,), count) for t, count in row if count]

    def step(self, rows, limit=None):
        """The next level of a level held as rows."""
        p0, p1, m, below = self.p0, self.p1, self.m, self.below
        grow = m == 1  # k = 3: s_0 bounds the row, so the opener lengthens it
        cap = (self.unbounded if limit is None else limit) // self.weight
        enhanced = self.enhanced
        # (1) fixed point: each row stays, but those at or past the limit,
        # which the first pass deletes
        nxt = {} if enhanced else dict(rows)
        get = nxt.get
        rules = self.rules
        # each earlier rule's groups, which the first pass finds, and its step
        steps = [(set(), w) for w, *_ in rules]
        for key, row in rows.items():
            s0, rest = divmod(key, p0)
            if s0 < cap:
                if enhanced:  # (1) fixed point, s_1 set to s_0
                    low, child = key, row
                    if p1:
                        d1 = rest // p1
                        if d1 < s0:
                            low += (s0 - d1) * p1
                            if m == 2:  # s_1 bounds the row
                                child = row + [0] * (s0 - d1)
                    elif m or s0:  # k = 3: added below; k = 2: at s_0 = 0
                        low = None
                    if low is not None:
                        old = get(low)
                        nxt[low] = child if old is None else _add(old, child)
                # (2) semi-opener
                if s0 + 1 < cap:
                    low = key + p0
                    child = row + [0] if grow else row
                    old = get(low)
                    nxt[low] = child if old is None else _add(old, child)
            else:
                if not enhanced:
                    del nxt[key]
                if s0 > cap:
                    continue  # past the limit: every child would be at or past it
            # (3) and (4): the groups of the earlier rules the row closes on
            prev = s0
            for rule_groups, w in steps:
                d, rest = divmod(rest, w)
                if d < prev:
                    rule_groups.add(key - d * w)
                prev = d
            # the last digit's closings, the top one folded in
            if m:
                if not prev:
                    continue  # a row of one slot: no semi-arc closes
                child = list(accumulate(row))
                del child[0]
            elif s0:
                child = row
            else:
                continue
            low = key - below
            if s0 < cap:
                semi = child + [0] if grow else child
                old = get(low)
                nxt[low] = semi if old is None else _add(old, semi)
            low -= p0
            old = get(low)
            nxt[low] = child if old is None else _add(old, child)
        level, base = rows.get, self.base
        for (rule_groups, _), (w, lose, bound, start) in zip(steps, rules):
            for group in rule_groups:
                # child i: the group's rows at 0..i summed, for i from its
                # s_{j+1} (0 when that is the rows' own digit) to s_{j-1} - 1
                semi = group // p0 < cap
                first = group + (0 if start is None else group // start % base) * w
                low = first - lose - p0  # the closer at i
                total = None
                for key in range(first, group + group // bound % base * w, w):
                    row = level(key)
                    if row is not None:
                        if total is None:
                            total = row
                        elif start is None:  # row i has one slot more
                            total = list(map(add, total, row))
                            total.append(row[-1])
                        else:
                            total = _add(total, row)
                    elif total is None:
                        low += w
                        continue
                    elif start is None:
                        total = total + [0]
                    if semi:
                        old = get(low + p0)
                        nxt[low + p0] = total if old is None else _add(old, total)
                    old = get(low)
                    nxt[low] = total if old is None else _add(old, total)
                    low += w
        if enhanced and m == 1:
            # (1) fixed point for k = 3: each row's total into slot s_0 of
            # the row at its own key, s_0.  Every row `nxt` holds here is a
            # new list this step built (the opener's and the closings' rows
            # and the sums of `_add`), held at one key, so it is added in place.
            for key, row in rows.items():
                if key < cap:
                    old = get(key)
                    if old is None:
                        old = nxt[key] = [0] * (key + 1)
                    old[key] += sum(row)
        return nxt


def _add(a, b):
    """The slot-by-slot sum of two rows of one length, as a new row."""
    return [a[0] + b[0]] if len(a) == 1 else list(map(add, a, b))


class _PermutationPusher(_DigitCodec):
    """One-level push for permutation labels (h, r, s), coded with the
    digits h, r_1, ..., r_{k-2}, s_1, ..., s_{k-2}, that holds a level as
    rows keyed by (h, r) and moves whole rows.

    With m = k - 2 and B the base, a code is (h * B^m + r) * B^m + s,
    where r and s are the vector codes.  A level is a dict from a label's
    (h, r) code hr = h * B^m + r (its key) to its row, a dict from the s
    code to the count.  In a key, h has the unit B^m and r_1 the unit
    B^(m-1); s_1 has the same unit in s.  The closings of a vector are the
    options of `_closing_options`, kept as their deltas to v in one table,
    `lower`, built straight from the digits of an (h, vector) code
    hv = h * B^m + v.  With w_j the unit of v_j in v and v_0 = h, rule j
    gives (i - v_j) * w_j - (w_1 + ... + w_{j-1}) for v_j <= i < v_{j-1},
    and the top closing, when v_m >= 1, -(w_1 + ... + w_m); for k = 2 the
    one closing is 0, when h >= 1.  A key is an (h, r) code, so the same
    table serves both sides: the upper closings of a row move it to the
    keys hr + d for d in `lower[hr]`, and a lower closing of its label at
    s adds d in `lower[h * B^m + s]` to s.

    The fixed point moves a row to its key with r_1 set to h (for k = 2,
    where there is no r_1, only the row at h = 0, which stays), and the
    opener to h + 1.  Closers are the Cartesian product of upper and lower
    closings, so a direct push costs |upper| * |lower| per label.  The push
    splits the closer into close-the-upper-semi-arc followed by
    close-the-lower-semi-arc, which makes each level linear in
    |upper| + |lower| per label: the upper closings move whole rows into
    `half` only, and each half-closed row goes to the level as (3) and one
    semi-arc down into `lowered`.

    The lower closings are applied once, for (4) and (5) together.  For
    either side, `_closing_options(h, v)` is `_closing_options(h - 1, v)`
    and one option more: v with v_1 set to h - 1, present when v_1 < h
    (k = 2, v empty: the option () when h = 1).  So the closers of a
    half-closed label (h, r', s) are the lower semi-transitory children
    of (h - 1, r', s) and that one extra child.  `lowered` holds the rows
    below the limit (the labels of (4)) and every half-closed row moved
    down one semi-arc, summed where two meet.  Each of its entries closes
    one lower semi-arc with `lower[h * B^m + s]` into a new row at its
    key, and each half-closed label adds its extra child there.  A
    moved-down label can have s_1 = h > h - 1: no label of a level, but
    its code is still distinct, it lives only in `lowered` and as a key of
    `lower`, and each of its lower closings (none from rule j = 1) is a
    valid child.

    Rows are shared, by the two levels and by several keys of one level,
    so a row never changes once a level holds it.  A key that receives
    one row alone shares it; the row is copied before a second row is
    added into it.  The rows a push makes entry by entry are its own.
    A step makes an entry for every child code it adds a count to, with
    a zero count where the counts cancel, so `to_codes` of its rows keeps
    the zero entries a push label by label on the code dict would keep.

    The push applies the horizon: under a `limit` it adds the upper
    semi-transitory rows only below the limit, and always moves them down
    into `lowered`.  A row one semi-arc below the limit makes no
    semi-opener, a row at it makes only its upper closings and no (4), and
    one past it makes nothing.  `lower` keeps entries from every level
    pushed so far; its one empty entry, h = 0 and v = 0, is built again
    each time it is read.
    """

    def __init__(self, family, k, n_max):
        self.m = k - 2
        super().__init__(2 * self.m + 1, n_max)
        self.vector = self.base**self.m  # B^m, h's unit in a key
        self.r1_unit = self.vector // self.base  # r_1's unit in r (k = 2: 0)
        self.units = self.weights[self.m + 1 :]  # w_1, ..., w_m: v's digits
        self.lower = {}  # (h, vector) code -> the deltas of its closings
        self.vectors = {}  # vector code -> the vector, shared by the labels
        self.texts = {}  # vector code -> the vector's JSON text

    def encode(self, label):
        h, r, s = label
        return self.encode_digits((h,) + r + s)

    def decode(self, code):
        hr, s = divmod(code, self.vector)
        h, r = divmod(hr, self.vector)
        return h, self._vector(r), self._vector(s)

    def _vector(self, v):
        vec = self.vectors.get(v)
        if vec is None:
            vec = self.vectors[v] = tuple(self.decode_digits(v)[self.m + 1 :])
        return vec

    def _text(self, v):
        text = self.texts[v] = str(list(self._vector(v)))
        return text

    def _lower(self, hv):
        """The deltas of the closings of the (h, vector) code hv, in the
        order of `_closing_options`, built from its digits and kept in
        `lower`."""
        h, v = divmod(hv, self.vector)
        deltas = []
        bound, lose = h, 0  # v_{j-1}, and w_1 + ... + w_{j-1}
        for w in self.units:
            d, v = divmod(v, w)
            deltas += range(-lose, (bound - d) * w - lose, w)  # rule j
            bound, lose = d, lose + w
        if bound:  # the top closing (k = 2: the one closing, when h >= 1)
            deltas.append(-lose)
        self.lower[hv] = deltas
        return deltas

    def from_codes(self, codes):
        """The level of a code dict, as rows."""
        rows, vector = {}, self.vector
        for code, count in codes.items():
            key, s = divmod(code, vector)
            row = rows.get(key)
            if row is None:
                rows[key] = {s: count}
            else:
                row[s] = count
        return rows

    def to_codes(self, rows):
        """The code dict of a level held as rows: every entry of its rows."""
        vector = self.vector
        return {
            key * vector + s: count
            for key, row in rows.items()
            for s, count in row.items()
        }

    def count_of(self, rows, code):
        key, s = divmod(code, self.vector)
        row = rows.get(key)
        return 0 if row is None else row.get(s, 0)

    @staticmethod
    def labels(rows):
        """The labels of a level held as rows: the entries of its rows."""
        return sum(map(len, rows.values()))

    @staticmethod
    def count_bits(rows):
        counts = chain.from_iterable(map(dict.values, rows.values()))
        return max(map(int.bit_length, counts), default=0)

    def walk(self, rows, json):
        """Every entry of a level held as rows, as `_RangeSumPusher.walk`
        gives the slots: a row's head, h and r, is built once."""
        vector, texts, text, vec = self.vector, self.texts, self._text, self._vector
        for key, row in sorted(rows.items()):
            h, r = divmod(key, vector)
            if json:
                head = '{"label": [%d, %s, ' % (h, texts.get(r) or text(r))
                yield [
                    f'{head}{texts.get(s) or text(s)}], "count": "{row[s]}"}}'
                    for s in sorted(row)
                ]
            else:
                head = (h, vec(r))
                yield [(head + (vec(s),), row[s]) for s in sorted(row)]

    def step(self, rows, limit=None):
        """The next level of a level held as rows."""
        unit, r1 = self.vector, self.r1_unit
        cap = (self.unbounded if limit is None else limit) // unit
        lower, closings = self.lower, self._lower
        live = [(key, row) for key, row in rows.items() if key < cap]
        # close an upper semi-arc: (3) and the first half of (5); a row at
        # the limit closes too, and one past it makes nothing
        half = _sum_rows({}, [
            (key + d, row)
            for key, row in rows.items()
            if key < cap + unit
            for d in lower.get(key) or closings(key)
        ])
        # the rows whose lower closings make children: (4)'s rows, and
        # (5)'s half-closed rows one semi-arc down
        lowered = _sum_rows(
            {}, chain(live, [(key - unit, row) for key, row in half.items()])
        )
        nxt = {}
        for key, row in lowered.items():
            hv = key // unit * unit  # h * B^m: an entry's (h, s) code less s
            child = {}
            get = child.get
            for s, count in row.items():
                for d in lower.get(hv + s) or closings(hv + s):
                    t = s + d
                    child[t] = get(t, 0) + count
            nxt[key] = child
        # (3) upper semi-transitory
        moves = [(key, row) for key, row in half.items() if key < cap]
        if r1:
            # (5)'s extra closing of each half-closed label, s_1 set to h - 1
            # where s_1 < h, into the row one semi-arc down: the lower pass
            # made that row, as the row is in `lowered`
            for key, row in half.items():
                bound = key // unit * r1  # the codes s with s_1 < h
                first = bound - r1
                child = nxt[key - unit]
                get = child.get
                for s, count in row.items():
                    if s < bound:
                        t = first + s % r1
                        child[t] = get(t, 0) + count
            # (1) fixed point, r_1 set to h
            moves += [
                (key + (key // unit - key % unit // r1) * r1, row)
                for key, row in live
            ]
        else:
            # k = 2: the extra closing only at h = 1, the fixed point only
            # at h = 0; both go to h = 0
            for row in (half.get(1), rows.get(0) if cap else None):
                if row is not None:
                    moves.append((0, row))
        # (2) semi-opener
        top = cap - unit
        moves += [(key + unit, row) for key, row in live if key < top]
        return _sum_rows(nxt, moves)


def _sum_rows(rows, moves):
    """Add the row of each (key, row) of `moves` into `rows` at its key,
    and return `rows`.  The rows `rows` holds are its own; a row that a
    key receives alone is shared, and it is copied before a second row is
    added into it."""
    own = set(rows)
    get = rows.get
    for key, row in moves:
        old = get(key)
        if old is None:
            rows[key] = row
            continue
        if key not in own:
            old = rows[key] = old.copy()
            own.add(key)
        add = old.get
        for s, count in row.items():
            old[s] = add(s, 0) + count
    return rows


class _Family:
    """One family: its k rule, succession rule and geometric counterpart."""

    def __init__(self, takes_k, root_label, successors, diagram, enhanced=False,
                 pusher=_GenericPusher):
        self.takes_k = takes_k
        self.root_label = root_label  # k -> the label of the empty diagram
        self.successors = successors  # label -> Counter of child labels
        # the name of the geometric counterpart in `diagrams`, walked from
        # size 0, and the `enhanced` flag of diagrams.legal_steps
        self.diagram = diagram
        self.enhanced = enhanced
        # (the row, k, n_max) -> a fresh one-level pusher, with its label codec
        self.pusher = pusher


def _partition_root(k):
    return (0,) * (k - 1)


def _permutation_root(k):
    zeros = (0,) * (k - 2)
    return (0, zeros, zeros)


def _open_root(k):
    return 0


_FAMILY_TABLE = {
    "partitions": _Family(
        True, _partition_root, successors_partition, "OpenPartitionDiagram",
        pusher=_RangeSumPusher,
    ),
    "partitions-enhanced": _Family(
        True, _partition_root, partial(successors_partition, enhanced=True),
        "OpenPartitionDiagram", enhanced=True, pusher=_RangeSumPusher,
    ),
    "permutations": _Family(
        True, _permutation_root, successors_permutation,
        "OpenPermutationDiagram", pusher=_PermutationPusher,
    ),
    "open-partitions": _Family(
        False, _open_root, _successors_open_partition, "OpenPartitionDiagram"
    ),
    "open-permutations": _Family(
        False, _open_root, _successors_open_permutation,
        "OpenPermutationDiagram",
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)
CONSTRAINED_FAMILIES = tuple(f for f in FAMILIES if _FAMILY_TABLE[f].takes_k)


def count_sequence(spec, n_max, max_labels=None, stats=None):
    """a(1..n_max): closed objects (root label) per level.

    Labels that can no longer return to the root by level n_max are never
    built: each push is given the horizon, so `max_labels` bounds the
    pruned label set.  `stats`, if given, is called with one dict per level
    1..n_max: its `level`, the labels the push read (`labels_in`, those
    the level before kept), the labels it kept (`labels_kept`), the push's
    seconds (`push_s`) and the bit length of the largest kept count
    (`max_count_bits`).  The push builds only labels under the horizon, so
    every label it produces is kept.  Without `stats` no timing call is
    made.  The push is built for k at most n_max + 2, which gives the same
    counts and records (see `_pusher`), so a huge k costs no more.
    """
    pusher = _pusher(spec, n_max, max_labels, stats, bounded=True)
    root = pusher.root
    levels = _level_stream(pusher, root, n_max, max_labels, True, stats)
    next(levels)
    count_of = pusher.count_of
    return [count_of(level, root) for level in levels]


def generate_diagrams(spec, n, closed_only=False):
    """Depth-first stream of every k-nonnesting open diagram of size n.

    Each diagram is emitted exactly once, in the deterministic step order of
    `legal_steps`.  The walk grows one mutable diagram (`walk_state`): each
    step is applied in place and undone on backtrack, and an immutable,
    validated diagram is built only for each one emitted.  With
    closed_only, only diagrams without semi-arcs (true set partitions /
    permutations) are emitted, and only prefixes that can still close are
    walked: a step that would leave more semi-arcs than vertices remain
    before n is skipped before it is applied, since each step closes at
    most one semi-arc.  The cost then follows the closed diagrams, not all
    open ones.  A node at level n - 1 then has at most one semi-arc and one
    legal step, its `closing_step()`, which is taken directly, with no
    steps listed.  The walk keeps an explicit stack, so n is not bounded by
    the recursion limit.
    """
    if type(n) is not int:  # a bool or a float as well
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    root, enhanced = spec.walk_start()
    if n == 0:
        return iter((root,))
    from . import diagrams  # only the walks need the diagrams

    state = diagrams.walk_state(root, spec.k, enhanced)
    change = diagrams.SEMI_ARC_CHANGE

    def steps():
        legal = state.steps()
        if closed_only:
            room = n - state.n - 1 - state.semi_arcs()
            legal = [s for s in legal if change[s[0]] <= room]
        return legal

    def walk():
        frames = [iter(steps())]
        path = []  # the step that led to each frame but the first
        while frames:
            step = next(frames[-1], None)
            if step is None:
                frames.pop()
                if path:
                    state.undo(path.pop())
                continue
            state.apply(step)
            if state.n == n:
                yield state.freeze()  # closed if closed_only: steps filtered
                state.undo(step)
            elif closed_only and state.n == n - 1:
                # at most one semi-arc is open, and closing it is forced
                last = state.closing_step()
                state.apply(last)
                yield state.freeze()
                state.undo(last)
                state.undo(step)
            else:
                path.append(step)
                frames.append(iter(steps()))

    return walk()
