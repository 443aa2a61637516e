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

Between levels the DP keys each label by one non-negative int, its code:
the label's digits s_0, ..., s_{k-2} (partitions) or h, r_1, ..., r_{k-2},
s_1, ..., s_{k-2} (permutations), most significant first, at a fixed width
in base n_max + 1.  No digit of a label at a level <= n_max exceeds n_max,
so codes are distinct, code order is label order, and the semi-arc count
is the leading digit.  The open families' labels are already ints and are
their own codes.  Only the pushers know the codes: each is built for one
n_max and owns its encode, its decode and `json_rows`, the JSON rows of
a run of sorted codes.  `count_sequence` looks up the root's code.
`count_levels` and `level_distribution` return each level as a
`LevelDistribution` that keeps its codes and its pusher: `entries` (the
tuple labels above, in label order) is decoded on first read, and `dump`
writes the level in code order, which is label order, one chunk of
`DUMP_CHUNK` labels at a time: its JSON rows come from `json_rows`,
straight from the codes, and its text and CSV lines decode one chunk.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
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
        elif type(self.k) is not int:  # a bool or a float as well
            raise ValueError(f"k must be an int, got {self.k!r}")
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


# labels per piece of a level dump: a dump holds one chunk's text at a time
DUMP_CHUNK = 1024


class LevelDistribution:
    """Exact multiset of labels at one level of a generating tree.

    The level is held as the DP left it: a count per label code, with the
    pusher that owns the codes.  `entries` (label -> count, in label order)
    is decoded from the codes on first read and then kept; `total()` sums
    the counts without decoding.  `dump` writes the level in any format of
    `count --all-labels` without reading `entries`, and `to_json()` is its
    JSON line, so a JSON dump decodes nothing.
    """

    def __init__(self, level, codes, pusher):
        self.level = level
        self._codes = codes
        self._pusher = pusher
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            decode, codes = self._pusher.decode, self._codes
            self._entries = {decode(c): codes[c] for c in sorted(codes)}
        return self._entries

    def total(self):
        return sum(self._codes.values())

    def dump(self, write, fmt):
        """Write the level as `count --all-labels --format fmt` prints it,
        newline included, passing `write` one chunk of at most `DUMP_CHUNK`
        labels at a time, in label order.

        "json" is one line, {"n": level, "labels": [{"label": [...],
        "count": "..."}, ...]}, as `json.dumps` writes it, each label a
        list (a permutation's r and s nested lists); the pusher's
        `json_rows` writes each chunk's rows from the codes.  "csv" is a
        "label,count" header and one row per label, the label as JSON;
        "text" is one "label: count" line per label, the label as Python
        prints it.  Both decode one chunk of labels at a time.
        """
        codes, pusher = self._codes, self._pusher
        order = sorted(codes)
        chunks = (
            order[i : i + DUMP_CHUNK] for i in range(0, len(order), DUMP_CHUNK)
        )
        if fmt == "json":
            write('{"n": %d, "labels": [' % self.level)
            sep = ""
            for chunk in chunks:
                write(sep + pusher.json_rows(codes, chunk))
                sep = ", "
            write("]}")
            write("\n")
        elif fmt == "csv":
            decode, buf = pusher.decode, io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["label", "count"])
            for chunk in chunks:
                writer.writerows([_json_label(decode(c)), codes[c]] for c in chunk)
                write(buf.getvalue())
                buf.seek(0)
                buf.truncate()
        elif fmt == "text":
            decode = pusher.decode
            for chunk in chunks:
                write("".join([f"{decode(c)}: {codes[c]}\n" for c in chunk]))
        else:
            raise ValueError(f"unknown dump format {fmt!r}")

    def to_json(self):
        """The level as one line of JSON: `dump`'s "json" line, without
        its newline."""
        pieces = []
        self.dump(pieces.append, "json")
        pieces.pop()  # the newline
        return "".join(pieces)

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


def _pusher(spec, n_max):
    """A fresh one-level pusher for spec whose codes hold every label of
    levels 0..n_max."""
    if type(n_max) is not int:  # a bool or a float as well
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    entry = spec._entry
    return entry.pusher(entry, spec.k, n_max)


def _level_stream(pusher, root, n_max, max_labels, prune, stats=None):
    """Yield the coded label distributions of levels 0..n_max, holding one
    at a time; level 0 is the root code alone.

    With `prune`, each level leaves out the labels with more semi-arcs than
    there are levels left before n_max: a step closes at most one semi-arc,
    so those labels can no longer return to the root label.  The semi-arc
    count is the leading digit of a code, so the push is given the code
    bound and builds no child at or past it.  `max_labels` bounds the
    number of labels kept per level; exceeding it raises
    ResourceLimitError carrying the last level completed.  `stats` is as
    in count_sequence; it is called before the label budget is checked,
    so the level that trips the budget is reported too.
    """
    push = pusher.push
    current = {root: 1}
    yield current
    for n in range(1, n_max + 1):
        limit = (n_max - n + 1) * pusher.weight if prune else None
        if stats is None:
            current = push(current, limit)
        else:
            labels_in = len(current)
            started = perf_counter()
            current = push(current, limit)
            push_s = perf_counter() - started
            stats({
                "level": n,
                "labels_in": labels_in,
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
    pusher = _pusher(spec, n_max)
    root = pusher.encode(spec.root_label())
    stream = _level_stream(pusher, root, n_max, max_labels, prune=False)
    return [LevelDistribution(n, codes, pusher) for n, codes in enumerate(stream)]


def level_distribution(spec, n, max_labels=None, stats=None):
    """The full label distribution at level n, without keeping the levels
    before it; `max_labels` as in count_levels, `stats` as in
    count_sequence (nothing is pruned, so each level keeps every label)."""
    pusher = _pusher(spec, n)
    root = pusher.encode(spec.root_label())
    for codes in _level_stream(pusher, root, n, max_labels, False, stats):
        pass
    return LevelDistribution(n, codes, pusher)


class _GenericPusher:
    """One-level push for families whose rule is applied label by label.

    Their labels are already ints (the open families' semi-arc count), so
    the codec is the identity and the semi-arc digit has weight 1.
    """

    weight = 1

    def __init__(self, family, k, n_max):
        self.successors = family.successors

    @staticmethod
    def encode(label):
        return label

    decode = encode

    @staticmethod
    def json_rows(codes, chunk):
        """The JSON rows of the sorted codes `chunk`, with their counts in
        `codes`, joined by ", "."""
        row = '{"label": [%d], "count": "%d"}'
        return ", ".join([row % (c, codes[c]) for c in chunk])

    def push(self, current, limit=None):
        """The next level.  With `limit` (a multiple of `weight`), only the
        children whose codes are below it; every pusher's `push` takes it."""
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
        # past every child of a level < n_max: no push bound when none is given
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
    digit j = s_j, that sums each ranged rule once.

    The fixed point adds 0 (enhanced: (s_0 - s_1) * w_1, which sets s_1 to
    s_0), the opener w_0, and closing the top semi-arc subtracts
    w_1 + ... + w_{k-2}, then w_0 more for its closer.  The ranged closing
    j of (3)/(4) gives a label the children row - (w_1 + ... + w_{j-1}) +
    i * w_j and that less w_0, for s_j <= i < s_{j-1}, where its `row` for
    rule j is its code with digit j zeroed.  The codes row + i * w_j are
    the labels that differ from it only in digit j, so child i gets the
    running sum of the row's counts at 0..i.  The first pass only adds
    each label's row to rule j's set when the label closes there
    (s_j < s_{j-1}); one sweep per row then reads the row's counts straight
    from the level, for i = 0..s_{j-1} - 1.  A push costs the distinct
    children plus the rows' lengths, not the sum of the range lengths.

    The last digit, j = k - 2 for k > 2, has weight 1, and the top closing
    of its label at i is the row's ranged child i - 1, so its sweep folds
    the top closing in by reading the row one label ahead: child i - 1
    gets the counts at 0..i, for i = 1..s_{k-3}.  A label adds this rule's
    row when it has either closing (s_{k-3} > 0).  For k = 2 the top
    closing is the only one, and the first pass adds its children.

    Every closing applies the horizon: under a `limit` (a multiple of w_0)
    it adds the semi-transitory child only below the limit, and always its
    closer, w_0 lower.  A row and its children share its labels' s_0, so
    they fall on one side of the limit together.  A label one semi-arc
    below the limit makes no semi-opener, a label at it makes no fixed
    point, and one past it makes nothing: its rows are never added.
    """

    def __init__(self, family, k, n_max):
        super().__init__(k - 1, n_max)
        self.enhanced = family.enhanced
        self.w1 = self.weights[1] if k > 2 else 0
        # rule j's step w_j, what its children subtract besides the row's
        # digit j, the weight of its bound s_{j-1}, and whether it folds in
        # the top closing (the last digit's, of step 1)
        weights = self.weights
        self.rules = tuple(
            (weights[j], sum(weights[1:j]), weights[j - 1], int(j == k - 2))
            for j in range(1, k - 1)
        )

    def encode(self, label):
        return self.encode_digits(label)

    def decode(self, code):
        return tuple(self.decode_digits(code))

    def json_rows(self, codes, chunk):
        row, digits = '{"label": %s, "count": "%d"}', self.decode_digits
        # a list of ints prints as JSON
        return ", ".join([row % (digits(c), codes[c]) for c in chunk])

    def push(self, current, limit=None):
        nxt = {}
        w0 = self.weight
        if limit is None:
            limit = self.unbounded
        top = limit - w0  # a label below it makes an opener
        rules = self.rules
        rows = [set() for _ in rules]  # each rule's rows with a closing
        *earlier, last = rows or [None]  # last: the last digit's (k > 2)
        steps = list(zip(earlier, self.weights[1:]))
        enhanced, w1 = self.enhanced, self.w1
        for code, count in current.items():
            s0, rest = divmod(code, w0)
            if code < limit:
                # (1) fixed point, s_1 set to s_0 if enhanced
                if not enhanced:
                    fp = code
                elif w1:
                    fp = code + (s0 - rest // w1) * w1
                else:
                    fp = code if s0 == 0 else None
                if fp is not None:
                    nxt[fp] = nxt.get(fp, 0) + count
                # (2) semi-opener
                if code < top:
                    opener = code + w0
                    nxt[opener] = nxt.get(opener, 0) + count
            elif code >= limit + w0:
                continue  # past the limit: every child would be at or past it
            # (3) and (4): the label's row for each ranged rule it closes on
            prev = s0
            for rule_rows, w in steps:
                d, rest = divmod(rest, w)
                if d < prev:
                    rule_rows.add(code - d * w)
                prev = d
            # rest is the last digit now; some semi-arc can close unless
            # prev = 0
            if prev > 0:
                if last is not None:
                    last.add(code - rest)
                else:  # k = 2: close the top semi-arc
                    if code < limit:
                        nxt[code] = nxt.get(code, 0) + count
                    low = code - w0
                    nxt[low] = nxt.get(low, 0) + count
        base, get = self.base, current.get
        for rule_rows, (w, below, bound, fold) in zip(rows, rules):
            for row in rule_rows:
                # child i: the row's counts at 0..i (with `fold`, at
                # 0..i + 1, the last one's top closing), for i < s_{j-1}
                first = row + fold
                total = get(row, 0) if fold else 0
                child = row - below
                semi = row < limit  # the row's s_0 is its children's
                for code in range(first, first + row // bound % base * w, w):
                    total += get(code, 0)
                    if total:
                        if semi:
                            nxt[child] = nxt.get(child, 0) + total
                        low = child - w0
                        nxt[low] = nxt.get(low, 0) + total
                    child += w
        return nxt


class _PermutationPusher(_DigitCodec):
    """One-level push for permutation labels (h, r, s), coded with the
    digits h, r_1, ..., r_{k-2}, s_1, ..., s_{k-2}.

    With m = k - 2 and B the base, a code is (h * B^m + r) * B^m + s,
    where r and s are the vector codes.  The fixed point adds
    (h - r_1) * w_{r_1} (for k = 2, where there is no r_1, it is allowed
    only at h = 0 and adds 0), the opener w_h.  The closings of a vector
    come from `_closing_options`, cached per (h, vector) code h * B^m + v
    as their deltas to v: a lower closing adds the delta, an upper one
    the delta times B^m, and a closer adds both and subtracts w_h.

    Closers are the Cartesian product of upper and lower closings, so a
    direct push costs |upper| * |lower| per label.  Splitting the closer
    into close-the-upper-semi-arc followed by close-the-lower-semi-arc
    makes each level linear in |upper| + |lower| per label, which is what
    makes the deeper permutation tables tractable.

    The upper closings are pushed into `half_closed` only; its pass adds
    each half-closed label to the level as the upper semi-transitory child,
    and the closer then closes one of its lower semi-arcs.

    The lower closings are applied once, for (4) and (5) together.  For
    either side, `_closing_options(h, v)` is `_closing_options(h - 1, v)`
    and one option more: v with v_1 set to h - 1, present when v_1 < h
    (k = 2, v empty: the option () when h = 1).  So the closers of a
    half-closed label (h, r', s) are the lower semi-transitory children
    of (h - 1, r', s) and that one extra child.  The push gathers in
    `lowered` the labels below the limit (the labels of (4)) and every
    half-closed label moved down one semi-arc, summed where two meet, adds
    the extra child from the half-closed pass, and then closes one lower
    semi-arc of each label of `lowered`.  A moved-down label can have
    s_1 = h > h - 1: no label of a level, but its code is still distinct,
    it lives only in `lowered` and as a key of the option cache, and each
    of its lower closings (none from rule j = 1) is a valid child.

    The half-closed pass applies the horizon: under a `limit` (a multiple
    of w_h) it adds the upper semi-transitory child only below the limit,
    and always moves the label down into `lowered`.  A label one semi-arc
    below the limit makes no semi-opener, a label at it makes only its
    upper closings and is deleted from `lowered`, and one past it makes
    nothing.

    The closings stay one child per option, not summed along lines as in
    `_RangeSumPusher`.  A ranged form of this push gave equal levels but
    took 1.5 to 2 times as long on k = 3, 4 and 5 (n = 14, 13 and 11):
    the ranges are short (2.3 steps on average at k = 5, n = 11, and 40 %
    are one step), so building the line keys costs more than it saves.
    The option cache keeps entries from every level pushed so far.  The
    JSON rows of a chunk are written in code order, (h, r) group by group:
    a group's row head is built once, and each vector's text is cached per
    vector code.
    """

    def __init__(self, family, k, n_max):
        self.m = k - 2
        super().__init__(2 * self.m + 1, n_max)
        self.vector = self.base**self.m  # B^m
        self.r1_weight = self.weights[1] if self.m else 0
        self.r1_unit = self.vector // self.base  # r_1's unit in r
        self.options = {}
        self.vectors = {}  # vector code -> the vector, shared by the labels
        self.texts = {}  # vector code -> the vector's JSON text

    def encode(self, label):
        h, r, s = label
        return self.encode_digits((h,) + r + s)

    def decode(self, code):
        hr, s = divmod(code, self.vector)
        h, r = divmod(hr, self.vector)
        return h, self._vector(r), self._vector(s)

    def json_rows(self, codes, chunk):
        """The rows of the sorted codes `chunk`, in which each (h, r) group
        is together: a group's row head, up to r's text, is built once per
        chunk it meets."""
        vector, texts = self.vector, self.texts
        rows = []
        group = None
        for code in chunk:
            hr, s = divmod(code, vector)
            if hr != group:
                group = hr
                h, r = divmod(hr, vector)
                head = '{"label": [%d, %s, ' % (h, texts.get(r) or self._text(r))
            s_text = texts.get(s) or self._text(s)
            rows.append(f'{head}{s_text}], "count": "{codes[code]}"}}')
        return ", ".join(rows)

    def _vector(self, v):
        vec = self.vectors.get(v)
        if vec is None:
            vec = self.vectors[v] = tuple(self.decode_digits(v)[self.m + 1 :])
        return vec

    def _text(self, v):
        text = self.texts[v] = str(list(self._vector(v)))
        return text

    def _closings(self, hv):
        """(lower, upper) deltas of the closings of the (h, vector) code hv."""
        deltas = self.options.get(hv)
        if deltas is None:
            h, v = divmod(hv, self.vector)
            vec = self._vector(v)
            lower = [
                self.encode_digits(option) - v
                for option in _closing_options(h, vec)
            ]
            deltas = lower, [d * self.vector for d in lower]
            self.options[hv] = deltas
        return deltas

    def push(self, current, limit=None):
        nxt = {}
        half_closed = {}
        # the labels whose lower closings make children: (4)'s labels, and
        # (5)'s half-closed labels one semi-arc down
        lowered = dict(current)
        vector, wh = self.vector, self.weight
        if limit is None:
            limit = self.unbounded
        top = limit - wh  # a label below it makes an opener
        r1_weight, r1_unit = self.r1_weight, self.r1_unit
        options, closings = self.options, self._closings
        for code, count in current.items():
            hr = code // vector
            if code < limit:
                h, r = divmod(hr, vector)
                # (1) fixed point, r_1 set to h
                if r1_weight:
                    fp = code + (h - r // r1_unit) * r1_weight
                    nxt[fp] = nxt.get(fp, 0) + count
                elif h == 0:
                    nxt[code] = nxt.get(code, 0) + count
                # (2) semi-opener
                if code < top:
                    opener = code + wh
                    nxt[opener] = nxt.get(opener, 0) + count
            else:
                del lowered[code]  # it makes no (4)
                if code >= limit + wh:
                    continue  # past the limit
            # close an upper semi-arc: (3) and the first half of (5)
            for d in (options.get(hr) or closings(hr))[1]:
                child = code + d
                half_closed[child] = half_closed.get(child, 0) + count
        # (5) closer: its lower closings from the half-closed label's h are
        # those from h - 1, made by the `lowered` pass, and the extra one
        # that sets s_1 to h - 1 (k = 2: none unless h = 1)
        s1_unit = r1_unit
        for code, count in half_closed.items():
            if code < limit:  # (3) upper semi-transitory
                nxt[code] = nxt.get(code, 0) + count
            low = code - wh
            lowered[low] = lowered.get(low, 0) + count
            h = code // wh
            if s1_unit:
                s1 = code % vector // s1_unit
                if s1 < h:
                    child = low + (h - 1 - s1) * s1_unit
                    nxt[child] = nxt.get(child, 0) + count
            elif h == 1:
                nxt[low] = nxt.get(low, 0) + count
        # `lowered` holds their labels now; freed before the widest pass
        del half_closed
        # (4) lower semi-transitory, and (5)'s closings from h - 1
        for code, count in lowered.items():
            hr, s = divmod(code, vector)
            hs = hr // vector * vector + s
            for d in (options.get(hs) or closings(hs))[0]:
                child = code + d
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
    # (the row, k, n_max) -> a fresh one-level pusher, with its label codec
    pusher: Callable = _GenericPusher


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
    made.
    """
    pusher = _pusher(spec, n_max)
    root = pusher.encode(spec.root_label())
    levels = _level_stream(pusher, root, n_max, max_labels, True, stats)
    next(levels)
    return [codes.get(root, 0) for codes in levels]


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
    if n < 0:
        raise ValueError("n must be >= 0")
    root, enhanced = spec.walk_start()
    if n == 0:
        return iter((root,))
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
