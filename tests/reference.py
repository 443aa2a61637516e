"""Definition-level reference for the oracle's walks and for
`diagrams.max_nesting`, used only by the tests.

Every set partition is listed as a restricted growth string, its arcs are
built from its blocks, and a nesting is found by the pairwise scan over arc
subsets.  This is the list path that `oracle.nesting_histogram`'s walks
replaced; it imports no counter, so the walks cannot reuse it.  The
maximum crossing, the statistic that k-nestings are symmetric with, is
measured here too, by the same pairwise definition.
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

