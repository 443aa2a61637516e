"""Definition-level brute force over set partitions and permutations.

Everything here works straight from the definitions: enumerate all objects
of size n, build the arc diagram, and test the maximum nesting.  It is the
ground truth that the generating-tree and series counts are checked
against, so it shares no succession-rule code with them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .closedform import bell
from .diagrams import max_nesting, permutation_arcs
from .errors import ResourceLimitError

__all__ = [
    "restricted_growth_strings",
    "partition_to_arcs",
    "rgs_to_blocks",
    "rgs_arcs",
    "nesting_histogram",
    "oracle_count",
    "contains_knesting",
]

# enumeration guard: objects beyond this many are refused
ENUMERATION_LIMIT = 10**7


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


def _permutation_nesting(sigma):
    upper, lower = permutation_arcs(sigma)
    return max(max_nesting(upper, enhanced=True), max_nesting(lower))


@lru_cache(maxsize=None)
def nesting_histogram(family, n):
    """Entry m counts the size-n objects whose maximum nesting is m, from
    one enumeration of all of them.

    family is "partitions", "partitions-enhanced" or "permutations"; a
    permutation's nesting is the larger of its upper (enhanced) and lower
    ones.  Raises ResourceLimitError when the enumeration would exceed the
    guard.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if family in ("partitions", "partitions-enhanced"):
        size, noun = bell(n), "partitions"
        enhanced = family == "partitions-enhanced"
        depths = (
            max_nesting(rgs_arcs(rgs, enhanced), enhanced=enhanced)
            for rgs in restricted_growth_strings(n)
        )
    elif family == "permutations":
        size, noun = factorial(n), "permutations"
        depths = map(_permutation_nesting, permutations(range(1, n + 1)))
    else:
        raise ValueError(f"unknown family {family!r}")
    if size > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"refusing to enumerate {size} {noun}", reached=size)
    counts = Counter(depths)
    return tuple(counts[m] for m in range(max(counts) + 1))


def oracle_count(family, k, n):
    """Count size-n objects with no (enhanced) k-nesting, by brute force:
    the entries of `nesting_histogram(family, n)` below k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(nesting_histogram(family, n)[:k])


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
