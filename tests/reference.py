"""Definition-level reference for the oracle's walks and for
`diagrams.max_nesting`, used only by the tests.

Every set partition is listed as a restricted growth string, its arcs are
built from its blocks, and a nesting is found by the pairwise scan over arc
subsets.  This is the list path that `oracle.nesting_histogram`'s walks
replaced; it imports no counter, so the walks cannot reuse it.  The
maximum crossing, the statistic that k-nestings are symmetric with, is
measured here too, by the same pairwise definition.

`row_sweep_partition_push` is the generating-tree push on label codes that
the row push of `gentree._RangeSumPusher` replaced,
`tuple_permutation_closings` the closing deltas that
`gentree._PermutationPusher` built from option tuples before it built them
from a key's digits, and `code_permutation_push` the push on label codes
that its row push replaced.  Each takes the pusher (and the closing rule)
as arguments and imports nothing from the package.
"""

from itertools import combinations

from nonnesting.diagrams import permutation_arcs


def restricted_growth_strings(n):
    """Yield every length-n restricted growth string (0-based letters).

    Letter a[i] names the block of element i+1, with a[0] = 0 and
    a[i] <= 1 + max(a[:i]); the encoding is a bijection onto set
    partitions of {1..n}.
    """
    if n == 0:
        yield ()
        return
    a = [0] * n
    tops = [0] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == tops[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        tops[i] = max(tops[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            tops[j] = tops[i]


def rgs_to_blocks(rgs):
    blocks = {}
    for pos, letter in enumerate(rgs, start=1):
        blocks.setdefault(letter, []).append(pos)
    return [blocks[b] for b in sorted(blocks)]


def partition_to_arcs(blocks):
    """Arcs joining consecutive elements within each block."""
    arcs = []
    for block in blocks:
        ordered = sorted(block)
        arcs.extend(zip(ordered, ordered[1:]))
    return sorted(arcs)


def rgs_arcs(rgs, enhanced=False):
    """Arcs of the partition that an RGS encodes, built in one pass.

    Each element gets the arc from the previous element of its block, which
    gives the arcs of `partition_to_arcs(rgs_to_blocks(rgs))`, unsorted.
    With `enhanced`, each singleton block adds the degenerate arc (p, p),
    which can only be the innermost arc of a chain.
    """
    first = []
    last = []
    arcs = []
    for pos, letter in enumerate(rgs, start=1):
        if letter == len(last):
            first.append(pos)
            last.append(pos)
        else:
            arcs.append((last[letter], pos))
            last[letter] = pos
    if enhanced:
        arcs.extend((p, p) for p, q in zip(first, last) if p == q)
    return arcs


def _is_nesting(arcs, enhanced):
    """Definitional pairwise check: every pair strictly nested, with the
    innermost arc allowed to be a fixed point in the enhanced variant."""
    ordered = sorted(arcs)
    for (l1, r1), (l2, r2) in zip(ordered, ordered[1:]):
        if not (l1 < l2 and r2 < r1):
            return False
        if l2 == r2 and (l2, r2) != ordered[-1]:
            return False
    if not enhanced and any(l == r for l, r in ordered):
        return False
    return True


def contains_knesting(sigma, k, all_witnesses=False):
    """Test a permutation (one-line notation) for an upper enhanced
    k-nesting or a lower k-nesting.

    Returns (found, witnesses) where each witness is a tuple of k arcs,
    found by the O(m^k) scan over arc subsets.  With all_witnesses=False
    the scan stops at the first witness.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    upper, lower = permutation_arcs(sigma)
    witnesses = []
    for arcs, enhanced in ((upper, True), (lower, False)):
        for subset in combinations(sorted(arcs), k):
            if _is_nesting(subset, enhanced):
                witnesses.append(subset)
                if not all_witnesses:
                    return True, witnesses
    return bool(witnesses), witnesses


def max_crossing(arcs, enhanced=False):
    """Size of the largest set of mutually crossing arcs.

    Two arcs (i, j) and (i', j') with i < i' cross when i < i' < j < j';
    in the enhanced variant when i < i' <= j < j', so arcs that share an
    end cross, and a degenerate arc (p, p), which is an arc only there, is
    a crossing of one alone.  A set crosses when every pair of it does, so
    the sets of s + 1 arcs are grown from those of s, each by one arc
    after its last.
    """
    ordered = sorted(arc for arc in arcs if enhanced or arc[0] < arc[1])

    def cross(a, b):
        (i, j), (i2, j2) = ordered[a], ordered[b]
        return i < i2 and j < j2 and (i2 <= j if enhanced else i2 < j)

    best = 0
    sets = [(a,) for a in range(len(ordered))]
    while sets:
        best += 1
        sets = [
            s + (b,)
            for s in sets
            for b in range(s[-1] + 1, len(ordered))
            if all(cross(a, b) for a in s)
        ]
    return best


def row_sweep_partition_push(pusher, current, limit=None):
    """`gentree._RangeSumPusher.push` as it was before a level was held as
    rows along its last digit: the code dict `current` pushed one level,
    each ranged rule summed by one sweep per row of codes, read straight
    from the level.  `pusher` is a partition pusher of the current code
    layout; only its digit weights and flags are read, and the rules are
    built from them as its constructor built them."""
    weights = pusher.weights
    k = len(weights) + 1
    rules = tuple(
        (weights[j], sum(weights[1:j]), weights[j - 1], int(j == k - 2))
        for j in range(1, k - 1)
    )
    nxt = {}
    w0 = pusher.weight
    if limit is None:
        limit = pusher.unbounded
    top = limit - w0  # a label below it makes an opener
    rows = [set() for _ in rules]  # each rule's rows with a closing
    *earlier, last = rows or [None]  # last: the last digit's (k > 2)
    steps = list(zip(earlier, pusher.weights[1:]))
    enhanced, w1 = pusher.enhanced, pusher.w1
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
    base, get = pusher.base, current.get
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


def tuple_permutation_closings(pusher, closing_options):
    """The closings of `gentree._PermutationPusher`'s (h, vector) codes as
    it cached them before it built them from the digits: `closings(hv)` is
    (lower, upper), the deltas to v of the vectors `closing_options(h,
    vector)` gives, each encoded by the pusher, and those deltas times
    B^m.  `pusher` is a permutation pusher; only its codec is read."""
    options = {}
    vector, m = pusher.vector, pusher.m

    def closings(hv):
        deltas = options.get(hv)
        if deltas is None:
            h, v = divmod(hv, vector)
            vec = tuple(pusher.decode_digits(v)[m + 1 :])
            lower = [
                pusher.encode_digits(option) - v
                for option in closing_options(h, vec)
            ]
            deltas = options[hv] = lower, [d * vector for d in lower]
        return deltas

    return closings


def code_permutation_push(pusher, closing_options, current, limit=None):
    """`gentree._PermutationPusher.push` as it was before a level was held
    as rows keyed by (h, r): the code dict `current` pushed one level,
    label by label, with the closer split into an upper then a lower
    closing and the lower closings of (4) and (5) applied in one pass.
    The closings come from `tuple_permutation_closings`, so only the
    pusher's codec is read.  Every code a child is added to is kept, with
    a zero count where the counts cancel."""
    closings = tuple_permutation_closings(pusher, closing_options)
    vector, wh, m = pusher.vector, pusher.weight, pusher.m
    r1_weight = pusher.weights[1] if m else 0  # r_1's unit in a code
    s1_unit = pusher.weights[m + 1] if m else 0  # s_1's unit in a code
    if limit is None:
        limit = pusher.unbounded
    top = limit - wh  # a label below it makes an opener
    nxt = {}
    half_closed = {}
    # the labels whose lower closings make children: (4)'s labels, and
    # (5)'s half-closed labels one semi-arc down
    lowered = dict(current)
    for code, count in current.items():
        if code < limit:
            # (1) fixed point, r_1 set to h (k = 2: only at h = 0)
            digits = pusher.decode_digits(code)
            if m:
                fp = code + (digits[0] - digits[1]) * r1_weight
            else:
                fp = code if digits[0] == 0 else None
            if fp is not None:
                nxt[fp] = nxt.get(fp, 0) + count
            # (2) semi-opener
            if code < top:
                opener = code + wh
                nxt[opener] = nxt.get(opener, 0) + count
        else:
            del lowered[code]  # it makes no (4)
            if code >= limit + wh:
                continue  # past the limit
        # close an upper semi-arc: (3) and the first half of (5)
        for d in closings(code // vector)[1]:
            child = code + d
            half_closed[child] = half_closed.get(child, 0) + count
    # (5) closer: its lower closings from the half-closed label's h are
    # those from h - 1, made by the `lowered` pass, and the extra one that
    # sets s_1 to h - 1 (k = 2: none unless h = 1)
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
    # (4) lower semi-transitory, and (5)'s closings from h - 1
    for code, count in lowered.items():
        hs = code // wh * vector + code % vector  # its (h, s) code
        for d in closings(hs)[0]:
            child = code + d
            nxt[child] = nxt.get(child, 0) + count
    return nxt
